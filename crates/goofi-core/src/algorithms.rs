//! The fault-injection algorithms — the paper's Figure 2, generically.
//!
//! Each algorithm is a plain function over `T: TargetAccess`, composed
//! entirely from the abstract building blocks. The SCIFI algorithm follows
//! the paper's listing step by step:
//!
//! ```text
//! readCampaignData(campaignNr);
//! makeReferenceRun();
//! for (int i = 0; i < nrOfExperiments; i++) {
//!     initTestCard(); loadWorkload(); writeMemory();
//!     runWorkload(); waitForBreakpoint();
//!     readScanChain(); injectFault(); writeScanChain();
//!     waitForTermination(); readMemory(); readScanChain();
//! }
//! ```
//!
//! `injectFault()` is realised as read-chain → invert bits → write-chain
//! ("reading the contents of the scan-chains, inverting the bits stated in
//! the campaign data and writing back", §3.3); stuck-at faults set the bits
//! to 0 or 1 instead of inverting them.
//!
//! `runWorkload(); waitForBreakpoint();` and `waitForTermination();` are
//! one run loop, shared by the reference run, every experiment and every
//! detail re-run. It runs the target in whole `run_workload` slices, or
//! single-steps when detail logging must log the state after each
//! instruction or a persistent fault model must be re-asserted after each
//! one. It either stops at the armed trigger breakpoint or runs to
//! termination, and it maps every `RunEvent` to a `TerminationCause` in
//! one place. Detail mode (§3.3) thus differs from normal mode in one
//! argument of each loop call: the logging mode.

use crate::campaign::{Campaign, EnvExchange, OutputRegion, Technique};
use crate::fault::{FaultLocation, FaultModel, FaultSpec};
use crate::golden::GoldenCache;
use crate::journal::ExperimentJournal;
use crate::logging::{ExperimentRecord, LoggingMode, StateSnapshot, TerminationCause, Validity};
use crate::monitor::ProgressMonitor;
use crate::policy::{ExperimentFailure, Watchdog};
use crate::runner;
use crate::supervisor::RecoveryRecord;
use crate::target::{RunBudget, RunEvent, TargetAccess, TargetSnapshot};
use crate::telemetry::{Metric, Stage, Telemetry};
use crate::trigger::Trigger;
use crate::{GoofiError, Result};
use envsim::Environment;
use scanchain::BitVec;
use std::collections::BTreeMap;

/// The outcome of a whole campaign: the reference run plus one record per
/// experiment, ready for [`crate::dbio`] storage and analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The fault-free reference run.
    pub reference: ExperimentRecord,
    /// One record per executed experiment.
    pub records: Vec<ExperimentRecord>,
    /// Experiments that failed despite the campaign's
    /// [`ExperimentPolicy`](crate::policy::ExperimentPolicy) (empty unless
    /// the policy skips failures), in index order.
    pub failures: Vec<ExperimentFailure>,
    /// Records quarantined by golden-run revalidation: produced while the
    /// target link was suspected faulty, marked
    /// [`Validity::Invalid`](crate::logging::Validity) and superseded by
    /// the `parentExperiment`-linked re-runs in
    /// [`records`](CampaignResult::records). Kept for audit.
    pub quarantined: Vec<ExperimentRecord>,
    /// Every recovery episode the target supervisor ran (empty unless the
    /// campaign's policy enables supervision): which probes failed, which
    /// ladder stages were applied, and whether the target came back.
    pub recoveries: Vec<RecoveryRecord>,
}

/// Per-driver snapshot bookkeeping for the per-experiment fast path.
///
/// The slow path pays the dominant prefix cost on every experiment:
/// `initTestCard()` + `loadWorkload()` (a full TAP-level download) and then
/// re-executing the workload up to the injection trigger. A session holds
/// two captures that replace that prefix:
///
/// * **post-load** — taken once, right after the first experiment's Load
///   block; every later experiment restores it instead of re-downloading;
/// * **trigger** — taken at the most recent experiment's trigger point.
///   [`Trigger::AfterInstructions`] fires on an *absolute* instruction
///   counter (part of the captured debug-unit state), so a capture at
///   instruction *t* seeds any later experiment with trigger *T ≥ t*:
///   restore, then execute only the *T − t* delta.
///
/// The fast path engages only when the target stack reports both
/// [`TargetAccess::supports_snapshot`] and
/// [`TargetAccess::prefix_restore_safe`] — fault-model decorators whose
/// observable draw streams are tied to the slow path's exact call sequence
/// (the wedge drill) veto it, which keeps snapshot campaigns essence-equal
/// to slow-path campaigns under every drill.
///
/// A session also ends experiments early. On a target that
/// [can rejoin](TargetAccess::can_rejoin), the first experiment that may
/// use it records the **golden path**: the fault-free run from the
/// post-load capture, with a checkpoint every 256 instructions and one at
/// termination, checked once against the reference record. After the
/// injection, and at every later checkpoint, the run loop asks the target
/// to [rejoin](TargetAccess::rejoin) the golden run; if it does, the
/// experiment ends with the golden termination and the state the target
/// would have reached on its own. A transient fault that was overwritten,
/// or that only sits where the golden run never looks again, thus costs
/// no further interpretation.
#[derive(Debug)]
pub struct ExperimentSession {
    /// Lazily probed capability: `None` until the first experiment,
    /// `Some(false)` pins the slow path for the rest of the campaign.
    enabled: Option<bool>,
    /// State right after the Load block, before any execution.
    post_load: Option<TargetSnapshot>,
    /// State at the most recent trigger point (pre-injection, pristine).
    trigger: Option<TriggerSnapshot>,
    /// What the golden path must reproduce: the reference run's
    /// termination and logged state.
    reference: (TerminationCause, StateSnapshot),
    /// `None` until the first experiment that may use the golden path;
    /// `Some(None)` when it cannot be recorded or did not reproduce the
    /// reference.
    golden: Option<Option<GoldenPath>>,
}

#[derive(Debug)]
struct TriggerSnapshot {
    /// The donor's state at its trigger point, which is the golden state
    /// at that instruction count.
    at: Checkpoint,
    /// Cycle counter right after the donor's Load block, so a restored
    /// experiment's watchdog measures the same elapsed cycles the slow
    /// path would.
    post_load_cycles: u64,
}

/// A capture of the fault-free run, with the counters the run loop needs
/// without a target round trip.
#[derive(Debug)]
struct Checkpoint {
    snap: TargetSnapshot,
    /// Absolute instruction count at capture.
    instructions: u64,
    /// Cycle counter at capture.
    cycles: u64,
}

impl Checkpoint {
    fn capture<T: TargetAccess + ?Sized>(target: &mut T) -> Result<Checkpoint> {
        Ok(Checkpoint {
            snap: target.snapshot()?,
            instructions: target.instructions_executed(),
            cycles: target.cycles_executed(),
        })
    }
}

/// Instructions between two golden-path checkpoints, unless the run is
/// too long for [`MAX_CHECKPOINTS`] of them.
const CHECKPOINT_SPACING: u64 = 256;

/// Most checkpoints one golden path holds; longer runs widen the spacing.
const MAX_CHECKPOINTS: u64 = 256;

/// The fault-free run from the post-load capture to its termination.
#[derive(Debug)]
struct GoldenPath {
    /// Instructions between checkpoints.
    spacing: u64,
    /// `checkpoints[k]` is the state after `(k + 1) * spacing`
    /// instructions.
    checkpoints: Vec<Checkpoint>,
    /// The state at termination.
    end: Checkpoint,
    /// How the run terminated: halt or detection, the ends that no cycle
    /// count or environment steers.
    termination: TerminationCause,
}

impl GoldenPath {
    /// Runs the target from its post-load state to termination,
    /// checkpointing on the way. `None` when the run is not one an
    /// experiment can rejoin: it crosses an iteration boundary (the
    /// environment lives outside the target), times out, stops at a
    /// breakpoint, needs more than [`MAX_CHECKPOINTS`] checkpoints, or
    /// does not reproduce the reference record.
    fn record<T: TargetAccess + ?Sized>(
        target: &mut T,
        campaign: &Campaign,
        reference: &(TerminationCause, StateSnapshot),
    ) -> Result<Option<GoldenPath>> {
        let max = campaign.termination.max_instructions;
        let spacing = CHECKPOINT_SPACING.max(reference.1.instructions.div_ceil(MAX_CHECKPOINTS));
        let mut checkpoints = Vec::new();
        let termination = loop {
            let now = target.instructions_executed();
            let next = (now / spacing + 1) * spacing;
            if now >= max || checkpoints.len() as u64 == MAX_CHECKPOINTS {
                return Ok(None);
            }
            match target.run_workload(RunBudget {
                max_instructions: next.min(max) - now,
            })? {
                RunEvent::BudgetExhausted if target.instructions_executed() == next => {
                    checkpoints.push(Checkpoint::capture(target)?);
                }
                RunEvent::Halted => break TerminationCause::WorkloadEnd,
                RunEvent::Detected(d) => break TerminationCause::Detected(d),
                _ => return Ok(None),
            }
        };
        let end = Checkpoint::capture(target)?;
        let state = snapshot(target, campaign, true)?;
        Ok(
            (termination == reference.0 && state == reference.1).then_some(GoldenPath {
                spacing,
                checkpoints,
                end,
                termination,
            }),
        )
    }

    /// The first checkpoint past instruction count `now`.
    fn checkpoint_after(&self, now: u64) -> Option<&Checkpoint> {
        usize::try_from(now / self.spacing)
            .ok()
            .and_then(|k| self.checkpoints.get(k))
    }
}

/// A golden path an experiment may rejoin, and the golden state at its
/// injection point when the session holds one.
#[derive(Clone, Copy)]
struct Rejoin<'a> {
    path: &'a GoldenPath,
    at_injection: Option<&'a Checkpoint>,
}

impl ExperimentSession {
    /// A fresh session with no captures, for a campaign whose fault-free
    /// reference run logged `reference`.
    pub fn new(reference: &ExperimentRecord) -> Self {
        ExperimentSession {
            enabled: None,
            post_load: None,
            trigger: None,
            reference: (reference.termination.clone(), reference.state.clone()),
            golden: None,
        }
    }

    /// Whether the fast path is usable on `target`, probing the capability
    /// on first call and pinning the answer.
    fn usable<T: TargetAccess + ?Sized>(&mut self, target: &T) -> bool {
        *self
            .enabled
            .get_or_insert_with(|| target.supports_snapshot() && target.prefix_restore_safe())
    }

    /// The golden path to rejoin from instruction count `now`, if one was
    /// recorded, with the golden state at `now` when a capture holds it.
    fn rejoin_at(&self, now: u64) -> Option<Rejoin<'_>> {
        let path = self.golden.as_ref()?.as_ref()?;
        let on_path = || {
            now.checked_sub(1)
                .and_then(|before| path.checkpoint_after(before))
        };
        let at_injection = self
            .trigger
            .as_ref()
            .map(|t| &t.at)
            .or_else(on_path)
            .filter(|c| c.instructions == now);
        Some(Rejoin { path, at_injection })
    }
}

/// Runs a SCIFI campaign (the paper's `faultInjectorSCIFI`).
///
/// # Errors
///
/// Fails if the campaign's technique is not [`Technique::Scifi`], on target
/// errors, or when stopped from the monitor.
pub fn faultinjector_scifi<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
) -> Result<CampaignResult> {
    if campaign.technique != Technique::Scifi {
        return Err(GoofiError::Config(
            "faultinjector_scifi requires a SCIFI campaign".into(),
        ));
    }
    run_campaign(target, campaign, monitor, env)
}

/// Runs a pre-runtime or runtime SWIFI campaign (the paper's
/// `faultInjectorSWIFI`).
///
/// # Errors
///
/// Fails if the campaign's technique is SCIFI, on target errors, or when
/// stopped from the monitor.
pub fn faultinjector_swifi<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
) -> Result<CampaignResult> {
    if campaign.technique == Technique::Scifi {
        return Err(GoofiError::Config(
            "faultinjector_swifi requires a SWIFI campaign".into(),
        ));
    }
    run_campaign(target, campaign, monitor, env)
}

/// Runs a pin-level campaign: faults forced onto device pins through the
/// boundary scan chain (the third technique of the paper's §2.1, composed
/// from the very same building blocks).
///
/// # Errors
///
/// Fails if the campaign's technique is not [`Technique::PinLevel`], on
/// target errors, or when stopped from the monitor.
pub fn faultinjector_pinlevel<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
) -> Result<CampaignResult> {
    if campaign.technique != Technique::PinLevel {
        return Err(GoofiError::Config(
            "faultinjector_pinlevel requires a pin-level campaign".into(),
        ));
    }
    run_campaign(target, campaign, monitor, env)
}

/// Technique-dispatching campaign driver: reference run, then every
/// experiment, honouring the progress monitor between experiments and the
/// campaign's [`ExperimentPolicy`](crate::policy::ExperimentPolicy) on
/// experiment failures.
///
/// # Errors
///
/// Target errors, configuration errors, [`GoofiError::Stopped`], or — when
/// the policy aborts on a failing experiment —
/// [`GoofiError::ExperimentFailed`] carrying every completed record.
pub fn run_campaign<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
) -> Result<CampaignResult> {
    run_campaign_journaled_opts(target, campaign, monitor, env, None, None, true)
}

/// [`run_campaign`] with the journal and hot-path controls exposed — the
/// campaign engine's drive loop run inline on `target`
/// (see [`crate::runner`]):
///
/// * `journal` — each finished experiment is written before the next one
///   starts; entries are synced once per 64 and at every ordering point,
///   so a killed process loses only the experiment in flight and a power
///   cut at most the entries since the last sync — see
///   [`crate::runner::resume_campaign`];
/// * `cache` — a [`GoldenCache`] consulted before the reference run; a hit
///   skips recomputing the golden log entirely (and a revalidation drift
///   invalidates the cached entry);
/// * `snapshots` — `false` forces the slow per-experiment path even on
///   snapshot-capable targets (the CLI's `--no-snapshot`).
///
/// # Errors
///
/// As [`run_campaign`], plus journal I/O errors and
/// [`GoofiError::TargetOffline`] when supervision finds the target dead.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_journaled_opts<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
    journal: Option<&mut ExperimentJournal>,
    cache: Option<&GoldenCache>,
    snapshots: bool,
) -> Result<CampaignResult> {
    campaign.validate()?;
    let tel = monitor.telemetry().clone();
    let _campaign_span = tel.campaign_span(&campaign.name);
    let journal = journal.map(parking_lot::Mutex::new);
    let reference = runner::reference_step(campaign, &tel, None, cache, journal.as_ref(), || {
        reference_run_traced(&mut *target, campaign, &mut *env, &tel)
    })?;
    runner::Engine::new(campaign, monitor, reference, journal, cache, snapshots)
        .run_inline(target, env)
}

/// Whether a freshly-executed golden run reproduces the stored reference
/// log: same architectural state, same workload outputs, same termination.
/// Any drift means the link (or the target) misbehaved at some point since
/// the last clean check.
pub fn golden_run_matches(reference: &ExperimentRecord, golden: &ExperimentRecord) -> bool {
    golden.termination == reference.termination
        && golden.state.outputs == reference.state.outputs
        && golden.state.same_state(&reference.state)
}

/// Runs experiment `index` under the campaign's retry policy. `Ok(Ok(_))`
/// is a completed record; `Ok(Err(_))` is an experiment that kept failing
/// after every allowed retry (the caller applies the policy's skip/fail
/// choice); `Err(_)` ends the campaign (see Errors).
///
/// With a `link`, the experiment is a re-run: the produced record is
/// renamed to the link's name and tied to its parent via
/// `parentExperiment` — the paper's §2.3 re-run workflow, used by campaign
/// resume, hang recovery and revalidation to re-run experiments as fresh,
/// linked experiments. `session` enables the snapshot fast path.
///
/// # Errors
///
/// [`GoofiError::Stopped`] when the monitor ends the campaign mid-retry,
/// or the error `before_blocking` returns. It runs when a pause between
/// retries is about to block (see [`ProgressMonitor::checkpoint_then`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_linked_experiment_then<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    index: usize,
    link: Option<(String, String)>,
    monitor: &ProgressMonitor,
    env: &mut dyn Environment,
    mut session: Option<&mut ExperimentSession>,
    before_blocking: impl Fn() -> Result<()>,
) -> Result<std::result::Result<ExperimentRecord, ExperimentFailure>> {
    let retries = campaign.policy.retries();
    let tel = monitor.telemetry();
    let mut attempt: u32 = 0;
    loop {
        let result = run_experiment_inner(
            target,
            campaign,
            index,
            &mut *env,
            link.as_ref().map(|(_, parent)| parent.clone()),
            campaign.logging,
            tel,
            session.as_deref_mut(),
        );
        match result {
            Ok(mut record) => {
                if let Some((name, _)) = &link {
                    record.name = name.clone();
                }
                return Ok(Ok(record));
            }
            // A user stop is not an experiment failure: propagate it.
            Err(GoofiError::Stopped) => return Err(GoofiError::Stopped),
            Err(e) => {
                if attempt < retries {
                    monitor.count(Metric::Retried, 1);
                    let delay = campaign.policy.backoff.delay(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                    // Honour pause/stop between retries as well.
                    monitor.checkpoint_then(&before_blocking)?;
                    continue;
                }
                return Ok(Err(ExperimentFailure {
                    index,
                    name: match &link {
                        Some((name, _)) => name.clone(),
                        None => campaign.experiment_name(index),
                    },
                    attempts: attempt + 1,
                    error: e.to_string(),
                }));
            }
        }
    }
}

/// Executes the fault-free reference run, "logging the fault-free system
/// state" (§3.3) — in detail mode, after every instruction.
///
/// # Errors
///
/// Target errors.
pub fn make_reference_run<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    env: &mut dyn Environment,
) -> Result<ExperimentRecord> {
    reference_run_traced(target, campaign, env, &Telemetry::disabled())
}

/// [`make_reference_run`] with load/run/scan stage spans recorded to `tel`
/// under a reference-run experiment span.
pub(crate) fn reference_run_traced<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    env: &mut dyn Environment,
    tel: &Telemetry,
) -> Result<ExperimentRecord> {
    let exp_span = tel
        .experiment_span_with(|| format!("{}/{}", campaign.name, ExperimentRecord::REFERENCE_NAME));
    {
        let _load = tel.stage_span(Stage::Load, exp_span.id());
        load(target, campaign, env)?;
    }
    let mut run = RunLoop::new(&*target, campaign, env);
    let termination = {
        let _run = tel.stage_span(Stage::Run, exp_span.id());
        run.until(target, Until::End(None, None), campaign.logging)?
            .expect("a run to the end stops only by terminating")
    };
    let state = {
        let _scan = tel.stage_span(Stage::Scan, exp_span.id());
        snapshot(target, campaign, true)?
    };
    Ok(ExperimentRecord {
        name: format!("{}/{}", campaign.name, ExperimentRecord::REFERENCE_NAME),
        parent: None,
        campaign: campaign.name.clone(),
        fault: None,
        termination,
        state,
        trace: run.trace,
        validity: Validity::Valid,
    })
}

/// Executes one fault-injection experiment.
///
/// # Errors
///
/// Target errors or an out-of-range experiment index.
pub fn run_experiment<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    index: usize,
    env: &mut dyn Environment,
) -> Result<ExperimentRecord> {
    run_experiment_inner(
        target,
        campaign,
        index,
        env,
        None,
        campaign.logging,
        &Telemetry::disabled(),
        None,
    )
}

/// Re-runs experiment `index` in detail mode, recording `parent` as the
/// originating experiment — the paper's §2.3 `parentExperiment` workflow
/// ("re-running the experiment logging the system state after each machine
/// instruction").
///
/// # Errors
///
/// Target errors or an out-of-range experiment index.
pub fn rerun_detailed<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    index: usize,
    env: &mut dyn Environment,
) -> Result<ExperimentRecord> {
    let parent = campaign.experiment_name(index);
    let mut record = run_experiment_inner(
        target,
        campaign,
        index,
        env,
        Some(parent.clone()),
        LoggingMode::Detail,
        &Telemetry::disabled(),
        None,
    )?;
    record.name = format!("{parent}/detail");
    Ok(record)
}

#[allow(clippy::too_many_arguments)]
fn run_experiment_inner<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    index: usize,
    env: &mut dyn Environment,
    parent: Option<String>,
    logging: LoggingMode,
    tel: &Telemetry,
    mut session: Option<&mut ExperimentSession>,
) -> Result<ExperimentRecord> {
    let spec = campaign.faults.get(index).ok_or_else(|| {
        GoofiError::Config(format!(
            "experiment index {index} out of range ({} faults)",
            campaign.faults.len()
        ))
    })?;
    let exp_span = tel.experiment_span_with(|| campaign.experiment_name(index));

    // initTestCard(); loadWorkload(); writeMemory(); — or, on the fast
    // path, one restore of the post-load capture: the TAP-level workload
    // download is paid once per campaign instead of once per experiment.
    // `env.reset()` still runs (the environment lives host-side, outside
    // any target snapshot); input ports and cleared breakpoints are part
    // of the captured state.
    let mut restored = false;
    if let Some(s) = session.as_deref_mut() {
        if s.usable(&*target) {
            if let Some(snap) = &s.post_load {
                let _sr = tel.stage_span(Stage::SnapshotRestore, exp_span.id());
                target.restore(snap)?;
                tel.count(Metric::Restores, 1);
                env.reset();
                restored = true;
            }
        }
    }
    if !restored {
        let _load = tel.stage_span(Stage::Load, exp_span.id());
        load(target, campaign, env)?;
        if let Some(s) = session.as_deref_mut() {
            if s.usable(&*target) {
                let _sr = tel.stage_span(Stage::SnapshotRestore, exp_span.id());
                match target.snapshot() {
                    Ok(snap) => {
                        s.post_load = Some(snap);
                        tel.count(Metric::SnapshotsTaken, 1);
                    }
                    // A target that advertises the capability but cannot
                    // deliver pins the slow path for the campaign.
                    Err(_) => s.enabled = Some(false),
                }
            }
        }
    }
    let detail = logging == LoggingMode::Detail;

    // The golden path, recorded once per session from the post-load state
    // by the first experiment that may rejoin it (normal logging, a
    // transient fault), then the post-load state again for the experiment.
    if let Some(s) = session.as_deref_mut() {
        let wanted = s.golden.is_none() && !detail && spec.model == FaultModel::TransientBitFlip;
        if wanted && s.usable(&*target) {
            s.golden = Some(None);
            if let (true, Some(post_load)) = (target.can_rejoin(), &s.post_load) {
                let path = {
                    let _run = tel.stage_span(Stage::Run, exp_span.id());
                    GoldenPath::record(target, campaign, &s.reference)?
                };
                let _sr = tel.stage_span(Stage::SnapshotRestore, exp_span.id());
                if let Some(path) = &path {
                    tel.count(Metric::SnapshotsTaken, path.checkpoints.len() as u64 + 1);
                }
                target.restore(post_load)?;
                tel.count(Metric::Restores, 1);
                s.golden = Some(path);
            }
        }
    }

    let mut wd_start = target.cycles_executed();
    let mut run = RunLoop::new(&*target, campaign, env);

    // Trigger fast-forward: `AfterInstructions` fires on an absolute
    // instruction counter that is part of the captured debug-unit state,
    // so the latest trigger capture at instruction t seeds any experiment
    // with trigger T ≥ t — restore, then execute only the delta (or
    // nothing at all when t == T). Gated on normal-mode logging (detail
    // mode must log the whole prefix) and on captures taken before any
    // environment exchange (the host-side environment starts every
    // experiment freshly reset, so restoring past an exchange would
    // desynchronise it from the target).
    let mut at_trigger = false;
    if !detail {
        if let (Trigger::AfterInstructions(want), Some(s)) = (spec.trigger, session.as_deref_mut())
        {
            if s.usable(&*target) {
                if let Some(ts) = &s.trigger {
                    if ts.at.instructions <= want {
                        let _sr = tel.stage_span(Stage::SnapshotRestore, exp_span.id());
                        target.restore(&ts.at.snap)?;
                        tel.count(Metric::Restores, 1);
                        // The slow path's watchdog starts counting at the
                        // post-load cycle mark; keep that origin.
                        wd_start = ts.post_load_cycles;
                        run.wd = Watchdog::start(&campaign.policy.watchdog, wd_start);
                        at_trigger = ts.at.instructions == want;
                    }
                }
            }
        }
    }

    // runWorkload(); waitForBreakpoint(); — unless a pre-runtime fault
    // corrupts the image before anything runs, or the restore landed
    // exactly on the trigger point (post-unlatch, post-clear state as
    // captured). In detail mode the pre-injection phase is logged per
    // instruction too, so the experiment trace aligns with the reference
    // trace.
    let pre_runtime = spec.trigger.is_pre_runtime();
    let stopped = if pre_runtime || at_trigger {
        None
    } else {
        target.set_breakpoint(spec.trigger)?;
        let _run = tel.stage_span(Stage::Run, exp_span.id());
        run.until(target, Until::Trigger, logging)?
    };
    let termination = match stopped {
        // The trigger never fired: the workload terminated first. The
        // fault was never injected; log the natural termination.
        Some(cause) => cause,
        None => {
            if !pre_runtime {
                target.clear_breakpoints()?;
                // Re-seed the trigger cache at this experiment's point:
                // the next experiment restores here when its own trigger
                // is at or past this instant.
                if !detail && !at_trigger && run.exchanges == 0 {
                    if let (Trigger::AfterInstructions(_), Some(s)) =
                        (spec.trigger, session.as_deref_mut())
                    {
                        if s.usable(&*target) {
                            let _sr = tel.stage_span(Stage::SnapshotRestore, exp_span.id());
                            if let Ok(at) = Checkpoint::capture(target) {
                                s.trigger = Some(TriggerSnapshot {
                                    at,
                                    post_load_cycles: wd_start,
                                });
                                tel.count(Metric::SnapshotsTaken, 1);
                            }
                        }
                    }
                }
            }
            // readScanChain(); injectFault(); writeScanChain();
            {
                let _inject = tel.stage_span(Stage::Inject, exp_span.id());
                apply_fault(target, spec)?;
            }
            // waitForTermination(); — ended early if the target rejoins
            // the session's golden path.
            let injected_at = target.instructions_executed();
            let rejoin = session.as_deref().and_then(|s| s.rejoin_at(injected_at));
            let _run = tel.stage_span(Stage::Run, exp_span.id());
            let cause = run
                .until(target, Until::End(Some(spec), rejoin), logging)?
                .expect("a run to the end stops only by terminating");
            if run.rejoined {
                tel.count(Metric::Rejoined, 1);
            }
            if cause == TerminationCause::Timeout {
                tel.count(Metric::TimedOut, 1);
                tel.count(
                    Metric::TimeoutInstructions,
                    target.instructions_executed().saturating_sub(injected_at),
                );
            }
            cause
        }
    };

    // readMemory(); readScanChain(); -> log the system state.
    let state = {
        let _scan = tel.stage_span(Stage::Scan, exp_span.id());
        snapshot(target, campaign, true)?
    };
    Ok(ExperimentRecord {
        name: campaign.experiment_name(index),
        parent,
        campaign: campaign.name.clone(),
        fault: Some(spec.clone()),
        termination,
        state,
        trace: run.trace,
        validity: Validity::Valid,
    })
}

/// `initTestCard(); loadWorkload(); writeMemory();` — the load block of
/// the reference run, of every slow-path experiment and of the liveness
/// trace: the workload freshly loaded, the environment reset, the
/// campaign's initial inputs applied and no breakpoint armed.
pub(crate) fn load<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    env: &mut dyn Environment,
) -> Result<()> {
    target.init_test_card()?;
    target.load_workload(&campaign.workload)?;
    env.reset();
    target.write_input_ports(&campaign.initial_inputs)?;
    target.clear_breakpoints()
}

// ---------------------------------------------------------------------------
// Fault application.

/// Injects every location of `spec` once — the one fault routine behind
/// every model: transient and intermittent faults toggle each bit,
/// stuck-at faults set it to 0 or 1. Scan cells go through
/// read-chain/change/write-chain, memory bits through the SWIFI primitive.
///
/// # Errors
///
/// Scan or memory errors (e.g. attempting to flip a read-only cell).
pub fn apply_fault<T: TargetAccess + ?Sized>(target: &mut T, spec: &FaultSpec) -> Result<()> {
    // `None` toggles a bit; `Some(v)` sets it to `v`.
    let stuck = match spec.model {
        FaultModel::TransientBitFlip | FaultModel::Intermittent { .. } => None,
        FaultModel::StuckAtZero => Some(false),
        FaultModel::StuckAtOne => Some(true),
    };
    // Batched scan transaction: all changes to one chain share a single
    // capture–shift–update walk instead of paying a read+write pair per
    // bit. Toggles commute and sets are idempotent, so grouping cannot
    // change the outcome; a chain none of whose bits change skips its
    // update walk entirely.
    let mut chains: BTreeMap<String, (BitVec, bool)> = BTreeMap::new();
    for loc in &spec.locations {
        match loc {
            FaultLocation::ScanCell { chain, cell, bit } => {
                let layout = chain_layout(target, chain)?;
                let offset = cell_bit_offset(&layout, chain, cell, *bit)?;
                if !chains.contains_key(chain) {
                    let bits = target.read_scan_chain(chain)?;
                    chains.insert(chain.clone(), (bits, false));
                }
                let (bits, dirty) = chains.get_mut(chain).expect("chain captured above");
                let value = stuck.unwrap_or(!bits.get(offset));
                if bits.get(offset) != value {
                    bits.set(offset, value);
                    *dirty = true;
                }
            }
            FaultLocation::Memory { addr, bit } => {
                let flip = match stuck {
                    None => true,
                    Some(value) => {
                        (target.read_memory(*addr, 1)?[0] >> bit) & 1 != u32::from(value)
                    }
                };
                if flip {
                    target.flip_memory_bit(*addr, *bit)?;
                }
            }
        }
    }
    for (chain, (bits, dirty)) in &chains {
        if *dirty {
            target.write_scan_chain(chain, bits)?;
        }
    }
    Ok(())
}

fn chain_layout<T: TargetAccess + ?Sized>(
    target: &T,
    chain: &str,
) -> Result<scanchain::ChainLayout> {
    target
        .chain_layouts()
        .into_iter()
        .find(|l| l.name() == chain)
        .ok_or_else(|| GoofiError::Scan(scanchain::ScanError::UnknownChain(chain.to_string())))
}

fn cell_bit_offset(
    layout: &scanchain::ChainLayout,
    chain: &str,
    cell: &str,
    bit: usize,
) -> Result<usize> {
    let def = layout
        .cell(cell)
        .ok_or_else(|| GoofiError::Scan(scanchain::ScanError::UnknownCell(cell.to_string())))?;
    if def.access == scanchain::CellAccess::ReadOnly {
        return Err(GoofiError::Scan(scanchain::ScanError::ReadOnlyCell {
            cell: cell.to_string(),
            chain: chain.to_string(),
        }));
    }
    if bit >= def.width {
        return Err(GoofiError::Scan(scanchain::ScanError::ValueTooWide {
            cell: cell.to_string(),
            width: def.width,
            value: bit as u64,
        }));
    }
    Ok(def.offset + bit)
}

// ---------------------------------------------------------------------------
// The run loop.

/// Where [`RunLoop::until`] stops.
#[derive(Clone, Copy)]
enum Until<'a> {
    /// `waitForBreakpoint()`: at the armed trigger (`Ok(None)`), or at
    /// termination if that comes first.
    Trigger,
    /// `waitForTermination()`: at termination, re-asserting the injected
    /// fault after every instruction when its model is persistent. A
    /// stray breakpoint is cleared and the run goes on. With a golden
    /// path, a run in slices tries to rejoin it right away and at each of
    /// its checkpoints.
    End(Option<&'a FaultSpec>, Option<Rejoin<'a>>),
}

/// One run of the workload, the reference run's or an experiment's, from
/// its load block to its termination.
struct RunLoop<'a> {
    campaign: &'a Campaign,
    env: &'a mut dyn Environment,
    wd: Watchdog,
    /// The state after every instruction retired under detail logging.
    trace: Vec<StateSnapshot>,
    /// Environment exchanges so far; a trigger capture is only reusable
    /// when none happened before it.
    exchanges: u64,
    /// Whether the run ended by rejoining a golden path.
    rejoined: bool,
}

impl<'a> RunLoop<'a> {
    /// Arms the campaign's watchdog at the target's current cycle count.
    fn new<T: TargetAccess + ?Sized>(
        target: &T,
        campaign: &'a Campaign,
        env: &'a mut dyn Environment,
    ) -> Self {
        RunLoop {
            campaign,
            env,
            wd: Watchdog::start(&campaign.policy.watchdog, target.cycles_executed()),
            trace: Vec::new(),
            exchanges: 0,
            rejoined: false,
        }
    }

    /// Runs the target until `until`: in whole `run_workload` slices, or
    /// one instruction at a time when detail `logging` or a persistent
    /// fault needs control after each one. "In detail mode the system
    /// state is logged as frequently as the target system allows,
    /// typically after the execution of each machine instruction, which
    /// increases the time-overhead" (§3.3). Environment data is exchanged
    /// at every iteration boundary short of the campaign's limit. Returns
    /// the termination cause, or `None` when the armed trigger fired.
    fn until<T: TargetAccess + ?Sized>(
        &mut self,
        target: &mut T,
        until: Until<'_>,
        logging: LoggingMode,
    ) -> Result<Option<TerminationCause>> {
        let persistent = match until {
            Until::End(Some(spec), _) if spec.model != FaultModel::TransientBitFlip => Some(spec),
            _ => None,
        };
        let detail = logging == LoggingMode::Detail;
        let stepping = detail || persistent.is_some();
        // A persistent fault keeps changing the state, and detail mode must
        // log every instruction: neither rejoins.
        let rejoin = match until {
            Until::End(_, rejoin) if !stepping => rejoin,
            _ => None,
        };
        if let Some(Rejoin {
            path,
            at_injection: Some(at),
        }) = rejoin
        {
            if let Some(cause) = self.rejoin(target, path, at)? {
                return Ok(Some(cause));
            }
        }
        let injected_at = target.instructions_executed();
        let mut bursts_done: u32 = 1; // the initial injection counts as burst 1
        let termination = &self.campaign.termination;
        loop {
            let remaining = termination
                .max_instructions
                .saturating_sub(target.instructions_executed());
            // A slice covers thousands of instructions, so the wall clock
            // is read before each one; single steps read it every few.
            if remaining == 0
                || self.wd.expired(target.cycles_executed())
                || (!stepping && self.wd.check_wall_now())
            {
                return Ok(Some(TerminationCause::Timeout));
            }
            // A watchdog clamps slices so it is re-checked often enough; a
            // single step is never clamped.
            let slice = if stepping {
                remaining
            } else {
                self.wd.clamp_slice(remaining)
            };
            let event = if stepping {
                let before = target.instructions_executed();
                let event = target.step_instruction()?;
                // Only retired instructions get a trace entry, so the
                // faulty trace stays index-aligned with the reference
                // trace. Detail-mode entries skip the memory digest:
                // hashing all of memory per instruction would dwarf the
                // experiment itself.
                if detail && target.instructions_executed() > before {
                    self.trace.push(snapshot(target, self.campaign, false)?);
                }
                // Re-assert a persistent fault: stuck-at after every
                // instruction, intermittent once per period.
                if let Some(spec) = persistent {
                    match spec.model {
                        FaultModel::Intermittent { period, bursts } => {
                            let elapsed =
                                target.instructions_executed().saturating_sub(injected_at);
                            if bursts_done < bursts
                                && period > 0
                                && elapsed >= period * u64::from(bursts_done)
                            {
                                apply_fault(target, spec)?;
                                bursts_done += 1;
                            }
                        }
                        _ => apply_fault(target, spec)?,
                    }
                }
                match event {
                    Some(event) => event,
                    None => continue,
                }
            } else {
                match self.run_slice(target, slice, rejoin.map(|r| r.path))? {
                    Ok(event) => event,
                    Err(cause) => return Ok(Some(cause)),
                }
            };
            let cause = match event {
                RunEvent::Breakpoint { .. } if matches!(until, Until::Trigger) => return Ok(None),
                // A stray breakpoint (should not happen: cleared before).
                RunEvent::Breakpoint { .. } => {
                    target.clear_breakpoints()?;
                    continue;
                }
                RunEvent::Halted => TerminationCause::WorkloadEnd,
                RunEvent::Detected(d) => TerminationCause::Detected(d),
                RunEvent::Timeout => TerminationCause::Timeout,
                // Only a real timeout when the whole remaining budget was
                // offered; a clamped watchdog slice just loops to re-check.
                RunEvent::BudgetExhausted if slice == remaining => TerminationCause::Timeout,
                RunEvent::BudgetExhausted => continue,
                RunEvent::IterationBoundary { iteration }
                    if termination
                        .max_iterations
                        .is_some_and(|max| iteration >= max) =>
                {
                    TerminationCause::IterationLimit
                }
                RunEvent::IterationBoundary { .. } => {
                    self.exchanges += 1;
                    exchange_env(target, self.campaign, &mut *self.env)?;
                    continue;
                }
            };
            return Ok(Some(cause));
        }
    }

    /// Runs `slice` instructions as one `run_workload` call, or, with a
    /// golden path, one call up to each of its checkpoints inside the
    /// slice and a rejoin attempt at each. Either way the watchdog and
    /// the instruction budget see the same slice. `Err(cause)` when the
    /// target rejoined and the run ends with `cause`.
    fn run_slice<T: TargetAccess + ?Sized>(
        &mut self,
        target: &mut T,
        slice: u64,
        golden: Option<&GoldenPath>,
    ) -> Result<std::result::Result<RunEvent, TerminationCause>> {
        let end = target.instructions_executed() + slice;
        loop {
            let now = target.instructions_executed();
            let checkpoint = golden
                .and_then(|path| path.checkpoint_after(now))
                .filter(|at| at.instructions < end);
            let (Some(path), Some(at)) = (golden, checkpoint) else {
                return Ok(Ok(target.run_workload(RunBudget {
                    max_instructions: end - now,
                })?));
            };
            match target.run_workload(RunBudget {
                max_instructions: at.instructions - now,
            })? {
                RunEvent::BudgetExhausted => {
                    if let Some(cause) = self.rejoin(target, path, at)? {
                        return Ok(Err(cause));
                    }
                }
                event => return Ok(Ok(event)),
            }
        }
    }

    /// Asks the target to rejoin `path` at `at`, the golden state at its
    /// current instruction count. The golden termination is returned when
    /// it does; the target is left as it was when it does not, or when
    /// the campaign's cycle budget would expire before the golden end.
    fn rejoin<T: TargetAccess + ?Sized>(
        &mut self,
        target: &mut T,
        path: &GoldenPath,
        at: &Checkpoint,
    ) -> Result<Option<TerminationCause>> {
        let end_cycles = target.cycles_executed() + path.end.cycles.saturating_sub(at.cycles);
        if self.wd.cycles_expired(end_cycles) || !target.rejoin(&at.snap, &path.end.snap)? {
            return Ok(None);
        }
        self.rejoined = true;
        Ok(Some(path.termination.clone()))
    }
}

/// One environment exchange, via ports or via the campaign's designated
/// memory locations (§3.2).
pub(crate) fn exchange_env<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    env: &mut dyn Environment,
) -> Result<()> {
    match &campaign.env_exchange {
        EnvExchange::Ports => {
            let outputs = target.read_output_ports()?;
            let inputs = env.exchange(&outputs);
            target.write_input_ports(&inputs)?;
        }
        EnvExchange::Memory { outputs, inputs } => {
            let mut out_values = Vec::with_capacity(outputs.len());
            for &addr in outputs {
                out_values.push(target.read_memory(addr, 1)?[0]);
            }
            let in_values = env.exchange(&out_values);
            for (&addr, value) in inputs.iter().zip(in_values) {
                target.write_memory(addr, &[value])?;
            }
        }
    }
    Ok(())
}

/// Captures the observable system state per the campaign's observe list.
///
/// # Errors
///
/// Target errors. An out-of-range output region (a fault corrupted a
/// pointer) yields empty outputs rather than an error, so the experiment
/// still logs.
pub fn snapshot<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    with_memory_digest: bool,
) -> Result<StateSnapshot> {
    let mut snap = StateSnapshot {
        iterations: target.iterations_completed(),
        instructions: target.instructions_executed(),
        cycles: target.cycles_executed(),
        ..StateSnapshot::default()
    };
    for chain in &campaign.observe.chains {
        let bits = target.read_scan_chain(chain)?;
        snap.scan.insert(chain.clone(), bits.to_bit_string());
    }
    if with_memory_digest {
        snap.memory_digest = target.memory_digest(target.memory_size() as usize)?;
    }
    snap.outputs = match campaign.observe.output {
        OutputRegion::Memory { addr, len } => {
            target.read_memory(addr, len as usize).unwrap_or_default()
        }
        OutputRegion::Ports => target.read_output_ports()?,
    };
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::WorkloadImage;
    use crate::framework::SimTarget;
    use envsim::NullEnvironment;

    /// A campaign on the simulator: `len` instructions, an iteration
    /// boundary every `every` (none when 0).
    fn sim_campaign(len: u32, every: u32) -> Campaign {
        Campaign::builder("golden")
            .target_system("sim")
            .workload(WorkloadImage {
                name: "sim".into(),
                words: vec![len, every],
                code_words: 2,
                entry: 0,
            })
            .fault(FaultSpec::single(
                FaultLocation::Memory { addr: 0, bit: 0 },
                Trigger::AfterInstructions(1),
            ))
            .build()
            .unwrap()
    }

    /// The golden path of `campaign` checked against `reference`, recorded
    /// from the post-load state as a session does.
    fn record(campaign: &Campaign, reference: &ExperimentRecord) -> Option<GoldenPath> {
        let mut target = SimTarget::new();
        load(&mut target, campaign, &mut NullEnvironment).unwrap();
        let reference = (reference.termination.clone(), reference.state.clone());
        GoldenPath::record(&mut target, campaign, &reference).unwrap()
    }

    fn reference(campaign: &Campaign) -> ExperimentRecord {
        make_reference_run(&mut SimTarget::new(), campaign, &mut NullEnvironment).unwrap()
    }

    #[test]
    fn a_golden_path_holds_at_most_max_checkpoints() {
        for (len, spacing, checkpoints) in [(1_000, 256, 3), (100_000, 391, 255)] {
            let campaign = sim_campaign(len, 0);
            let path = record(&campaign, &reference(&campaign)).unwrap();
            assert_eq!(path.spacing, spacing);
            assert_eq!(path.checkpoints.len(), checkpoints);
            assert!(path.checkpoints.len() as u64 <= MAX_CHECKPOINTS);
            for (k, c) in path.checkpoints.iter().enumerate() {
                assert_eq!(c.instructions, (k as u64 + 1) * spacing);
            }
            assert_eq!(path.end.instructions, u64::from(len));
            assert_eq!(path.termination, TerminationCause::WorkloadEnd);
            assert_eq!(
                path.checkpoint_after(spacing - 1).map(|c| c.instructions),
                Some(spacing)
            );
            assert!(path.checkpoint_after(u64::from(len)).is_none());
        }
    }

    #[test]
    fn a_golden_path_is_dropped_on_a_mismatch_or_an_iteration_boundary() {
        let campaign = sim_campaign(1_000, 0);
        let mut drifted = reference(&campaign);
        drifted.state.cycles += 1;
        assert!(record(&campaign, &drifted).is_none());

        let looping = sim_campaign(1_000, 100);
        assert!(record(&looping, &reference(&campaign)).is_none());
    }
}
