//! Target supervision: health probes, a staged recovery ladder, and the
//! wedgeable-target test decorator.
//!
//! GOOFI's campaign loop assumes the target stays controllable, but an
//! injected fault can wedge the target itself: the breakpoint never fires,
//! the TAP stops responding, or the core lands in an illegal state that
//! outlives `reset_target`. This module closes that gap:
//!
//! * a [`Supervisor`] runs a [`HealthProbe`] suite between experiments
//!   (every `n` experiments, per
//!   [`ExperimentPolicy::health_check_every`](crate::policy::ExperimentPolicy))
//!   — scan-chain signature check, memory pattern write/readback, and a
//!   golden smoke-workload run compared against the reference log;
//! * a [`RecoveryLadder`] applies bounded, escalating recovery stages
//!   `SoftReset → ReinitTestCard → PowerCycle`, re-probing after each
//!   attempt, and reports [`RecoveryStage::Offline`] when nothing helps;
//! * a watchdog `Timeout` that a failing probe suite *confirms* is a wedged
//!   target is logged as
//!   [`TerminationCause::TargetHang`](crate::logging::TerminationCause) —
//!   distinct from a merely slow workload, whose probes pass — quarantined,
//!   and re-run via a `parentExperiment` link after recovery;
//! * a [`WedgeableTarget`] decorator drives all of the above in tests: a
//!   seeded [`scanchain::WedgeModel`] deterministically wedges the target
//!   into hangs, stuck TAPs or garbage scan reads, clearing only when the
//!   recovery action reaches the modelled depth.
//!
//! The campaign service ([`crate::service`]) applies the same supervision
//! philosophy one level up the process tree: where this module watches a
//! *target* and recovers it through a ladder, the service's scheduler
//! watches *worker processes* through leases, kills and reassigns the
//! hung ones with backoff, and quarantines shards that keep failing —
//! poison-shard stubs reuse the `parentExperiment` re-run link that
//! quarantined hangs get here.

use crate::algorithms::{golden_run_matches, make_reference_run};
use crate::campaign::{Campaign, WorkloadImage};
use crate::logging::ExperimentRecord;
use crate::monitor::ProgressMonitor;
use crate::target::{RunBudget, RunEvent, TargetAccess, TargetSnapshot};
use crate::telemetry::Metric;
use crate::trigger::Trigger;
use crate::{GoofiError, Result};
use envsim::Environment;
use scanchain::{
    BitVec, ChainLayout, RecoveryDepth, ScanError, WedgeConfig, WedgeKind, WedgeModel,
};
use std::fmt;

// ---------------------------------------------------------------------------
// Health probes.

/// The individual checks of the between-experiment health suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthProbe {
    /// Each scan chain reads back the same, correctly-sized image twice.
    ScanSignature,
    /// A scratch memory word accepts and returns two test patterns.
    MemoryPattern,
    /// A fresh fault-free workload run reproduces the golden reference log.
    SmokeWorkload,
}

impl fmt::Display for HealthProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthProbe::ScanSignature => f.write_str("scan-signature"),
            HealthProbe::MemoryPattern => f.write_str("memory-pattern"),
            HealthProbe::SmokeWorkload => f.write_str("smoke-workload"),
        }
    }
}

/// One probe's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeReport {
    /// Which probe ran.
    pub probe: HealthProbe,
    /// Whether it passed.
    pub passed: bool,
    /// Failure detail (empty on success).
    pub detail: String,
}

/// The verdict of one full probe suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSuite {
    /// Per-probe reports, in execution order.
    pub reports: Vec<ProbeReport>,
}

impl ProbeSuite {
    /// Whether every probe passed.
    pub fn passed(&self) -> bool {
        self.reports.iter().all(|r| r.passed)
    }

    /// A one-line summary of the failing probes (empty when healthy).
    pub fn failure_summary(&self) -> String {
        self.reports
            .iter()
            .filter(|r| !r.passed)
            .map(|r| format!("{}: {}", r.probe, r.detail))
            .collect::<Vec<_>>()
            .join("; ")
    }
}

// ---------------------------------------------------------------------------
// Recovery ladder.

/// The escalating recovery stages, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryStage {
    /// Reset the core ([`TargetAccess::reset_target`]).
    SoftReset,
    /// Re-initialise the test card ([`TargetAccess::init_test_card`]).
    ReinitTestCard,
    /// Cold-restart the target ([`TargetAccess::power_cycle`]).
    PowerCycle,
    /// Every stage exhausted: the target is unrecoverable.
    Offline,
}

impl RecoveryStage {
    /// Database string form.
    pub fn encode(self) -> &'static str {
        match self {
            RecoveryStage::SoftReset => "soft-reset",
            RecoveryStage::ReinitTestCard => "reinit-test-card",
            RecoveryStage::PowerCycle => "power-cycle",
            RecoveryStage::Offline => "offline",
        }
    }

    /// Parses [`RecoveryStage::encode`] output.
    pub fn decode(s: &str) -> Option<RecoveryStage> {
        match s {
            "soft-reset" => Some(RecoveryStage::SoftReset),
            "reinit-test-card" => Some(RecoveryStage::ReinitTestCard),
            "power-cycle" => Some(RecoveryStage::PowerCycle),
            "offline" => Some(RecoveryStage::Offline),
            _ => None,
        }
    }
}

impl fmt::Display for RecoveryStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.encode())
    }
}

/// One applied recovery action and its outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryAction {
    /// Stage applied.
    pub stage: RecoveryStage,
    /// 1-based attempt number within the stage.
    pub attempt: u32,
    /// Whether the post-action probe suite passed.
    pub recovered: bool,
    /// Probe failure summary or action error (empty when recovered).
    pub detail: String,
}

/// What triggered a recovery episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryTrigger {
    /// A watchdog timeout that a probe suite confirmed as a wedged target.
    TargetHang,
    /// A scheduled health-probe suite failed between experiments.
    ProbeFailure,
}

impl RecoveryTrigger {
    /// Database string form.
    pub fn encode(self) -> &'static str {
        match self {
            RecoveryTrigger::TargetHang => "target-hang",
            RecoveryTrigger::ProbeFailure => "probe-failure",
        }
    }

    /// Parses [`RecoveryTrigger::encode`] output.
    pub fn decode(s: &str) -> Option<RecoveryTrigger> {
        match s {
            "target-hang" => Some(RecoveryTrigger::TargetHang),
            "probe-failure" => Some(RecoveryTrigger::ProbeFailure),
            _ => None,
        }
    }
}

impl fmt::Display for RecoveryTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.encode())
    }
}

/// One full recovery episode: the ladder climb for one sick target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Experiment around which the episode ran (the quarantined experiment
    /// for hangs, the last completed one for scheduled-probe failures).
    pub experiment: String,
    /// What started the episode.
    pub trigger: RecoveryTrigger,
    /// Every action applied, in order.
    pub actions: Vec<RecoveryAction>,
    /// Whether the target came back; `false` means [`RecoveryStage::Offline`].
    pub recovered: bool,
}

/// Bounded attempt counts for the ladder's stages, plus the supervision
/// cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryLadder {
    /// Soft-reset attempts before escalating.
    pub soft_resets: u32,
    /// Test-card re-init attempts before escalating.
    pub reinits: u32,
    /// Power-cycle attempts before declaring the target offline.
    pub power_cycles: u32,
    /// How many times one experiment may hang-and-recover before its
    /// failure is handed to the campaign's experiment policy.
    pub max_hang_rounds: u32,
}

impl Default for RecoveryLadder {
    fn default() -> Self {
        RecoveryLadder {
            soft_resets: 2,
            reinits: 2,
            power_cycles: 1,
            max_hang_rounds: 3,
        }
    }
}

impl RecoveryLadder {
    fn stages(&self) -> [(RecoveryStage, u32); 3] {
        [
            (RecoveryStage::SoftReset, self.soft_resets),
            (RecoveryStage::ReinitTestCard, self.reinits),
            (RecoveryStage::PowerCycle, self.power_cycles),
        ]
    }
}

// ---------------------------------------------------------------------------
// Supervisor.

/// Runs health probes and the recovery ladder for one campaign.
///
/// Supervision is enabled by
/// [`ExperimentPolicy::with_health_check`](crate::policy::ExperimentPolicy):
/// both runners construct a `Supervisor` whenever the campaign's policy
/// carries a probe cadence, and additionally use it to confirm watchdog
/// timeouts as real target hangs.
#[derive(Debug, Clone)]
pub struct Supervisor<'a> {
    campaign: &'a Campaign,
    reference: &'a ExperimentRecord,
    cadence: u32,
    ladder: RecoveryLadder,
}

/// Memory-pattern probe test words.
const PATTERNS: [u32; 2] = [0xA5A5_5A5A, 0x5A5A_A5A5];

impl<'a> Supervisor<'a> {
    /// Creates the supervisor when the campaign's policy enables
    /// supervision (a health-check cadence is set).
    pub fn from_campaign(
        campaign: &'a Campaign,
        reference: &'a ExperimentRecord,
    ) -> Option<Supervisor<'a>> {
        campaign
            .policy
            .health_check_every
            .map(|cadence| Supervisor {
                campaign,
                reference,
                cadence: cadence.max(1),
                ladder: RecoveryLadder::default(),
            })
    }

    /// The ladder bounds in use.
    pub fn ladder(&self) -> &RecoveryLadder {
        &self.ladder
    }

    /// Whether a scheduled probe suite is due after `completed` experiments.
    pub fn probe_due(&self, completed: usize) -> bool {
        completed > 0 && completed.is_multiple_of(self.cadence as usize)
    }

    /// Runs the full probe suite. Target errors during probing are probe
    /// *failures*, not campaign errors — a target that cannot answer a
    /// probe is exactly what the suite exists to detect.
    pub fn probe<T: TargetAccess + ?Sized>(
        &self,
        target: &mut T,
        env: &mut dyn Environment,
        monitor: &ProgressMonitor,
    ) -> ProbeSuite {
        let mut span = monitor
            .telemetry()
            .stage_span(crate::telemetry::Stage::Probe, 0);
        let reports = vec![
            self.probe_scan_signature(target),
            self.probe_memory_pattern(target),
            self.probe_smoke_workload(target, env),
        ];
        let suite = ProbeSuite { reports };
        monitor.count(Metric::ProbesRun, 1);
        if !suite.passed() {
            monitor.count(Metric::ProbesFailed, 1);
            span.set_detail(&suite.failure_summary());
        }
        suite
    }

    fn probe_scan_signature<T: TargetAccess + ?Sized>(&self, target: &mut T) -> ProbeReport {
        let mut detail = String::new();
        for layout in target.chain_layouts() {
            let chain = layout.name().to_string();
            let (first, second) = match (
                target.read_scan_chain(&chain),
                target.read_scan_chain(&chain),
            ) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    detail = format!("chain `{chain}`: {e}");
                    break;
                }
            };
            if first.len() != layout.total_bits() {
                detail = format!(
                    "chain `{chain}`: captured {} bits, layout has {}",
                    first.len(),
                    layout.total_bits()
                );
                break;
            }
            if first != second {
                detail = format!("chain `{chain}`: two idle captures disagree");
                break;
            }
        }
        ProbeReport {
            probe: HealthProbe::ScanSignature,
            passed: detail.is_empty(),
            detail,
        }
    }

    fn probe_memory_pattern<T: TargetAccess + ?Sized>(&self, target: &mut T) -> ProbeReport {
        let size = target.memory_size();
        if size == 0 {
            return ProbeReport {
                probe: HealthProbe::MemoryPattern,
                passed: true,
                detail: String::new(),
            };
        }
        // The last word is scratch: the next experiment reloads the
        // workload anyway, but restore it so probing is state-neutral.
        let addr = size - 1;
        let run = |target: &mut T| -> Result<Option<String>> {
            let original = target.read_memory(addr, 1)?[0];
            let mut mismatch = None;
            for pattern in PATTERNS {
                target.write_memory(addr, &[pattern])?;
                let read = target.read_memory(addr, 1)?[0];
                if read != pattern {
                    mismatch = Some(format!(
                        "word {addr:#x}: wrote {pattern:#010x}, read {read:#010x}"
                    ));
                    break;
                }
            }
            target.write_memory(addr, &[original])?;
            Ok(mismatch)
        };
        let detail = match run(target) {
            Ok(None) => String::new(),
            Ok(Some(mismatch)) => mismatch,
            Err(e) => e.to_string(),
        };
        ProbeReport {
            probe: HealthProbe::MemoryPattern,
            passed: detail.is_empty(),
            detail,
        }
    }

    fn probe_smoke_workload<T: TargetAccess + ?Sized>(
        &self,
        target: &mut T,
        env: &mut dyn Environment,
    ) -> ProbeReport {
        let detail = match make_reference_run(target, self.campaign, env) {
            Ok(golden) if golden_run_matches(self.reference, &golden) => String::new(),
            Ok(golden) => format!(
                "golden run diverged (termination {} vs reference {})",
                golden.termination, self.reference.termination
            ),
            Err(e) => e.to_string(),
        };
        ProbeReport {
            probe: HealthProbe::SmokeWorkload,
            passed: detail.is_empty(),
            detail,
        }
    }

    /// Climbs the recovery ladder: applies each stage up to its bound,
    /// re-probing after every attempt, until the probes pass or every stage
    /// is exhausted ([`RecoveryStage::Offline`]).
    pub fn recover<T: TargetAccess + ?Sized>(
        &self,
        target: &mut T,
        env: &mut dyn Environment,
        monitor: &ProgressMonitor,
        experiment: &str,
        trigger: RecoveryTrigger,
    ) -> RecoveryRecord {
        let mut span = monitor.telemetry().stage_span_detailed(
            crate::telemetry::Stage::Recover,
            0,
            &format!("{}: {}", experiment, trigger.encode()),
        );
        let mut actions = Vec::new();
        for (stage, attempts) in self.ladder.stages() {
            for attempt in 1..=attempts {
                let applied = match stage {
                    RecoveryStage::SoftReset => {
                        monitor.count(Metric::SoftResets, 1);
                        target.reset_target()
                    }
                    RecoveryStage::ReinitTestCard => {
                        monitor.count(Metric::CardReinits, 1);
                        target.init_test_card()
                    }
                    RecoveryStage::PowerCycle => {
                        monitor.count(Metric::PowerCycles, 1);
                        target.power_cycle()
                    }
                    RecoveryStage::Offline => unreachable!("Offline is not applied"),
                };
                if let Err(e) = applied {
                    actions.push(RecoveryAction {
                        stage,
                        attempt,
                        recovered: false,
                        detail: format!("action failed: {e}"),
                    });
                    continue;
                }
                let suite = self.probe(target, env, monitor);
                let recovered = suite.passed();
                actions.push(RecoveryAction {
                    stage,
                    attempt,
                    recovered,
                    detail: suite.failure_summary(),
                });
                if recovered {
                    span.set_detail(&format!(
                        "{}: {}: recovered at {}",
                        experiment,
                        trigger.encode(),
                        stage.encode()
                    ));
                    return RecoveryRecord {
                        experiment: experiment.to_string(),
                        trigger,
                        actions,
                        recovered: true,
                    };
                }
            }
        }
        monitor.count(Metric::TargetsOffline, 1);
        span.set_detail(&format!(
            "{}: {}: ladder exhausted, target offline",
            experiment,
            trigger.encode()
        ));
        actions.push(RecoveryAction {
            stage: RecoveryStage::Offline,
            attempt: 1,
            recovered: false,
            detail: "every recovery stage exhausted".into(),
        });
        RecoveryRecord {
            experiment: experiment.to_string(),
            trigger,
            actions,
            recovered: false,
        }
    }
}

// ---------------------------------------------------------------------------
// The wedgeable test decorator.

/// A [`TargetAccess`] decorator that deterministically wedges the inner
/// target, driven by a seeded [`scanchain::WedgeModel`].
///
/// One model draw is consumed per `run_workload` call and, for campaigns
/// that single-step instead (detail logging, persistent fault models), one
/// per workload launch — the first `step_instruction` after a
/// `load_workload`. A triggered wedge is sticky until a recovery action of
/// the configured depth is applied through the decorator:
///
/// * [`WedgeKind::Hang`] — every run burns its whole budget (and the
///   equivalent cycles) without real progress, so the harness sees a
///   watchdog timeout;
/// * [`WedgeKind::StuckTap`] — scan accesses fail with
///   [`ScanError::ShiftStall`];
/// * [`WedgeKind::GarbageScan`] — scan reads return seeded garbage.
#[derive(Debug, Clone)]
pub struct WedgeableTarget<T> {
    inner: T,
    model: WedgeModel,
    /// Budget burned while hanging, added to the inner counters so the
    /// campaign's instruction/cycle budgets genuinely run out.
    hang_burn: u64,
    /// Set by `load_workload`, cleared by the next execution op. Lets the
    /// stepping paths (which never call `run_workload`) still draw once
    /// per workload launch without double-drawing on the run path.
    pending_launch: bool,
}

impl<T: TargetAccess> WedgeableTarget<T> {
    /// Wraps `inner` with a wedge model built from `config`.
    pub fn new(inner: T, config: WedgeConfig) -> Self {
        WedgeableTarget {
            inner,
            model: WedgeModel::new(config),
            hang_burn: 0,
            pending_launch: false,
        }
    }

    /// The inner target.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The wedge model (current wedge, counts, operation count).
    pub fn model(&self) -> &WedgeModel {
        &self.model
    }

    fn recover_model(&mut self, depth: RecoveryDepth) {
        if self.model.recover(depth) {
            self.hang_burn = 0;
        }
    }

    fn stall(&self, operation: &str) -> GoofiError {
        GoofiError::Scan(ScanError::ShiftStall {
            operation: operation.to_string(),
        })
    }
}

/// Cycles burned per `step_instruction` while hung. A hung target never
/// completes a single-step command — the host's step op times out after a
/// slice's worth of cycles — so stepping campaigns reach their watchdog
/// budget in a bounded number of step calls instead of one cycle at a time.
const HANG_STEP_BURN: u64 = 4096;

impl<T: TargetAccess> TargetAccess for WedgeableTarget<T> {
    fn target_name(&self) -> &str {
        self.inner.target_name()
    }

    fn init_test_card(&mut self) -> Result<()> {
        let result = self.inner.init_test_card();
        if result.is_ok() {
            self.recover_model(RecoveryDepth::Reinit);
        }
        result
    }

    fn load_workload(&mut self, image: &WorkloadImage) -> Result<()> {
        // A fresh download resets the inner counters; the burn restarts
        // too (the wedge itself persists — reloading code does not unstick
        // a latched-up core).
        self.hang_burn = 0;
        self.pending_launch = true;
        self.inner.load_workload(image)
    }

    fn reset_target(&mut self) -> Result<()> {
        self.hang_burn = 0;
        let result = self.inner.reset_target();
        if result.is_ok() {
            self.recover_model(RecoveryDepth::SoftReset);
        }
        result
    }

    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        self.inner.write_memory(addr, data)
    }

    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        self.inner.read_memory(addr, len)
    }

    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> Result<()> {
        self.inner.flip_memory_bit(addr, bit)
    }

    fn memory_size(&self) -> u32 {
        self.inner.memory_size()
    }

    fn set_breakpoint(&mut self, trigger: Trigger) -> Result<()> {
        self.inner.set_breakpoint(trigger)
    }

    fn clear_breakpoints(&mut self) -> Result<()> {
        self.inner.clear_breakpoints()
    }

    fn run_workload(&mut self, budget: RunBudget) -> Result<RunEvent> {
        self.pending_launch = false;
        match self.model.advance() {
            Some(WedgeKind::Hang) => {
                self.hang_burn = self.hang_burn.saturating_add(budget.max_instructions);
                Ok(RunEvent::BudgetExhausted)
            }
            _ => self.inner.run_workload(budget),
        }
    }

    fn step_instruction(&mut self) -> Result<Option<RunEvent>> {
        if self.pending_launch {
            self.pending_launch = false;
            self.model.advance();
        }
        if self.model.wedged() == Some(WedgeKind::Hang) {
            self.hang_burn = self.hang_burn.saturating_add(HANG_STEP_BURN);
            return Ok(None);
        }
        self.inner.step_instruction()
    }

    fn chain_layouts(&self) -> Vec<ChainLayout> {
        self.inner.chain_layouts()
    }

    fn read_scan_chain(&mut self, chain: &str) -> Result<BitVec> {
        match self.model.wedged() {
            Some(WedgeKind::StuckTap) => Err(self.stall(&format!("read {chain}"))),
            Some(WedgeKind::GarbageScan) => {
                let len = self.inner.read_scan_chain(chain)?.len();
                Ok(self.model.garbage_bits(len))
            }
            _ => self.inner.read_scan_chain(chain),
        }
    }

    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> Result<()> {
        if self.model.wedged() == Some(WedgeKind::StuckTap) {
            return Err(self.stall(&format!("write {chain}")));
        }
        self.inner.write_scan_chain(chain, bits)
    }

    fn write_input_ports(&mut self, inputs: &[u32]) -> Result<()> {
        self.inner.write_input_ports(inputs)
    }

    fn read_output_ports(&mut self) -> Result<Vec<u32>> {
        self.inner.read_output_ports()
    }

    fn instructions_executed(&self) -> u64 {
        self.inner.instructions_executed() + self.hang_burn
    }

    fn cycles_executed(&self) -> u64 {
        self.inner.cycles_executed() + self.hang_burn
    }

    fn iterations_completed(&self) -> u64 {
        self.inner.iterations_completed()
    }

    fn step_traced(&mut self) -> Result<(Option<RunEvent>, crate::preinject::StepAccess)> {
        self.inner.step_traced()
    }

    fn power_cycle(&mut self) -> Result<()> {
        self.hang_burn = 0;
        let result = self.inner.power_cycle();
        if result.is_ok() {
            self.recover_model(RecoveryDepth::PowerCycle);
        }
        result
    }

    // A capture holds the inner target's snapshot plus this wrapper's
    // bookkeeping — but NOT the wedge model. The model is the drill's
    // seeded draw stream; it stays live across restores exactly as a real
    // flaky target keeps degrading regardless of what state the tool
    // rewinds the device to.
    fn snapshot(&mut self) -> Result<TargetSnapshot> {
        Ok(TargetSnapshot::new(WedgeableSnapshot {
            inner: self.inner.snapshot()?,
            hang_burn: self.hang_burn,
            pending_launch: self.pending_launch,
        }))
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        let snap = snapshot
            .downcast_ref::<WedgeableSnapshot>()
            .ok_or_else(|| GoofiError::Target("snapshot is not a wedge-drill capture".into()))?;
        self.inner.restore(&snap.inner)?;
        self.hang_burn = snap.hang_burn;
        self.pending_launch = snap.pending_launch;
        Ok(())
    }

    fn supports_snapshot(&self) -> bool {
        self.inner.supports_snapshot()
    }

    // The drill's observable behaviour is tied to the slow path's exact
    // call sequence: the per-experiment `init_test_card` recovers
    // reinit-depth wedges, and the model draws once per workload launch.
    // A restore that replaces that prefix skips both, so campaigns under
    // the drill would stop being essence-equal to the slow path. Declare
    // the fast path unsafe; the runner falls back to the real sequence.
    fn prefix_restore_safe(&self) -> bool {
        false
    }
}

/// The opaque payload behind [`WedgeableTarget::snapshot`].
#[derive(Debug)]
struct WedgeableSnapshot {
    inner: TargetSnapshot,
    hang_burn: u64,
    pending_launch: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_and_trigger_codecs_roundtrip() {
        for stage in [
            RecoveryStage::SoftReset,
            RecoveryStage::ReinitTestCard,
            RecoveryStage::PowerCycle,
            RecoveryStage::Offline,
        ] {
            assert_eq!(RecoveryStage::decode(stage.encode()), Some(stage));
        }
        assert_eq!(RecoveryStage::decode("bogus"), None);
        for trigger in [RecoveryTrigger::TargetHang, RecoveryTrigger::ProbeFailure] {
            assert_eq!(RecoveryTrigger::decode(trigger.encode()), Some(trigger));
        }
        assert_eq!(RecoveryTrigger::decode("bogus"), None);
    }

    #[test]
    fn ladder_stage_order_is_escalating() {
        assert!(RecoveryStage::SoftReset < RecoveryStage::ReinitTestCard);
        assert!(RecoveryStage::ReinitTestCard < RecoveryStage::PowerCycle);
        assert!(RecoveryStage::PowerCycle < RecoveryStage::Offline);
        let ladder = RecoveryLadder::default();
        let stages: Vec<_> = ladder.stages().iter().map(|(s, _)| *s).collect();
        let mut sorted = stages.clone();
        sorted.sort();
        assert_eq!(stages, sorted);
    }

    #[test]
    fn probe_suite_summarises_failures() {
        let suite = ProbeSuite {
            reports: vec![
                ProbeReport {
                    probe: HealthProbe::ScanSignature,
                    passed: true,
                    detail: String::new(),
                },
                ProbeReport {
                    probe: HealthProbe::SmokeWorkload,
                    passed: false,
                    detail: "diverged".into(),
                },
            ],
        };
        assert!(!suite.passed());
        assert_eq!(suite.failure_summary(), "smoke-workload: diverged");
    }
}
