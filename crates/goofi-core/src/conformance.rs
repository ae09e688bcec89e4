//! The `TargetAccess` contract suite — genericity proven by table, not by
//! assertion.
//!
//! The paper claims GOOFI is generic: port a target through the Framework
//! template and every campaign algorithm works unchanged. That claim is
//! only as good as the *contract* each port upholds, so this module spells
//! the contract out as a reusable, table-driven suite: every check is a
//! plain function over `&mut dyn `[`TargetAccess`], and [`run_suite`] runs
//! them all against any port — the Thor simulator, the RV32I core, the
//! in-process [`crate::framework::SimTarget`], a scan-readout fallback
//! ([`ReadoutFallback`]), or any decorator stack (verified link, lossy
//! link, wedge drill) — and returns a [`ConformanceReport`].
//!
//! The checks (see [`CHECK_NAMES`]):
//!
//! - **capabilities** — stable non-empty name, non-empty chain layouts,
//!   non-zero memory, capability flags matching the spec's expectations;
//! - **readout_restore_identity** — a [`readout_snapshot`] written back via
//!   [`readout_restore`] reads out bit-identically;
//! - **digest_stability** — [`TargetAccess::memory_digest`] is stable
//!   across calls, equal to the generic digest of a plain readout, and
//!   sensitive to a single flipped bit;
//! - **snapshot_mutate_restore** — a native snapshot survives memory
//!   mutation and restores the exact digest, any number of times;
//! - **trigger_monotonicity** — instruction-count breakpoints fire at
//!   exactly the armed count, later counts fire strictly later, and a
//!   cleared target runs to termination;
//! - **reset_to_idle** — a power cycle plus workload reload zeroes the
//!   counters and reproduces the exact first run (event, ports, digest);
//! - **rejoin** — after a flip in a register the target refuses to rejoin
//!   its own fault-free run and stays exactly as it was; without the flip
//!   it rejoins at the run's checkpoint and reads out exactly as the run's
//!   end state, if and only if it reports
//!   [`TargetAccess::can_rejoin`].
//!
//! Workloads handed to the suite must terminate on their own (halt,
//! detection or timeout) without iteration boundaries.

use crate::campaign::WorkloadImage;
use crate::target::{
    readout_restore, readout_snapshot, ReadoutSnapshot, RunBudget, RunEvent, TargetAccess,
    TargetSnapshot,
};
use crate::trigger::Trigger;
use crate::{pass_through, GoofiError, Result};
use scanchain::ChainLayout;
use std::fmt;

/// What the suite should expect from a particular port.
///
/// The workload is the only mandatory ingredient — it must be a valid
/// image for the port under test (the suite is generic; the workload is
/// not). Everything else defaults to "don't check".
#[derive(Debug, Clone)]
pub struct ConformanceSpec {
    /// Human-readable label for the report (e.g. `"rv32i via fallback"`).
    pub label: String,
    /// A self-terminating workload valid for the port under test.
    pub workload: WorkloadImage,
    /// Expected [`TargetAccess::target_name`], when pinned.
    pub expect_name: Option<String>,
    /// Expected [`TargetAccess::supports_snapshot`], when pinned.
    pub expect_snapshot: Option<bool>,
    /// Expected [`TargetAccess::prefix_restore_safe`], when pinned.
    pub expect_prefix_safe: Option<bool>,
    /// Whether a restore brings the execution counters back too (true for
    /// native whole-state snapshots, false for scan-readout fallbacks,
    /// whose counters are not scan-writable).
    pub counters_restored: bool,
    /// Two instruction counts for the trigger check, first < second, both
    /// inside the workload's run length.
    pub breakpoints: (u64, u64),
    /// Instructions to pre-run before state checks (non-trivial state).
    pub prefix_instructions: u64,
    /// Memory word to flip in mutation checks; defaults to the last-but-one
    /// word, safely outside any code segment.
    pub flip_addr: Option<u32>,
}

impl ConformanceSpec {
    /// A spec with the given label and workload and default expectations.
    pub fn new(label: impl Into<String>, workload: WorkloadImage) -> Self {
        ConformanceSpec {
            label: label.into(),
            workload,
            expect_name: None,
            expect_snapshot: None,
            expect_prefix_safe: None,
            counters_restored: false,
            breakpoints: (3, 6),
            prefix_instructions: 4,
            flip_addr: None,
        }
    }
}

/// Outcome of one contract check.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Check name (one of [`CHECK_NAMES`]).
    pub name: &'static str,
    /// `None` on pass, the failure description otherwise.
    pub error: Option<String>,
}

/// Everything [`run_suite`] found out about one port.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// The port's [`TargetAccess::target_name`].
    pub target: String,
    /// The spec's label.
    pub label: String,
    /// One entry per check, in [`CHECK_NAMES`] order.
    pub checks: Vec<CheckResult>,
}

impl ConformanceReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.error.is_none())
    }

    /// The failed checks.
    pub fn failures(&self) -> Vec<&CheckResult> {
        self.checks.iter().filter(|c| c.error.is_some()).collect()
    }
}

impl fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "conformance: {} [{}]", self.label, self.target)?;
        for check in &self.checks {
            match &check.error {
                None => writeln!(f, "  PASS {}", check.name)?,
                Some(e) => writeln!(f, "  FAIL {} - {e}", check.name)?,
            }
        }
        Ok(())
    }
}

type Check = fn(&mut dyn TargetAccess, &ConformanceSpec) -> std::result::Result<(), String>;

/// The names of the contract checks, in execution order.
pub const CHECK_NAMES: [&str; 7] = [
    "capabilities",
    "readout_restore_identity",
    "digest_stability",
    "snapshot_mutate_restore",
    "trigger_monotonicity",
    "reset_to_idle",
    "rejoin",
];

const CHECKS: [(&str, Check); 7] = [
    ("capabilities", check_capabilities),
    ("readout_restore_identity", check_readout_restore_identity),
    ("digest_stability", check_digest_stability),
    ("snapshot_mutate_restore", check_snapshot_mutate_restore),
    ("trigger_monotonicity", check_trigger_monotonicity),
    ("reset_to_idle", check_reset_to_idle),
    ("rejoin", check_rejoin),
];

/// Runs every contract check against the port and reports per-check
/// outcomes. Nothing panics: a port that breaks the contract produces a
/// failing [`ConformanceReport`], which the caller asserts on.
pub fn run_suite<T>(target: &mut T, spec: &ConformanceSpec) -> ConformanceReport
where
    T: TargetAccess + AsDynTarget + ?Sized,
{
    let dyn_target = target.as_dyn_target();
    let mut checks = Vec::with_capacity(CHECKS.len());
    for (name, check) in CHECKS {
        checks.push(CheckResult {
            name,
            error: check(dyn_target, spec).err(),
        });
    }
    ConformanceReport {
        target: dyn_target.target_name().to_string(),
        label: spec.label.clone(),
        checks,
    }
}

/// Object-safe view of a target — lets [`run_suite`] accept both concrete
/// ports and `dyn TargetAccess` behind one signature.
pub trait AsDynTarget {
    /// The target as a trait object.
    fn as_dyn_target(&mut self) -> &mut dyn TargetAccess;
}

impl<T: TargetAccess> AsDynTarget for T {
    fn as_dyn_target(&mut self) -> &mut dyn TargetAccess {
        self
    }
}

impl AsDynTarget for dyn TargetAccess {
    fn as_dyn_target(&mut self) -> &mut dyn TargetAccess {
        self
    }
}

fn ctx<E: fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Fresh start: card up, workload loaded, no breakpoints armed.
fn prepare(t: &mut dyn TargetAccess, spec: &ConformanceSpec) -> std::result::Result<(), String> {
    t.init_test_card().map_err(ctx("init_test_card"))?;
    t.load_workload(&spec.workload)
        .map_err(ctx("load_workload"))?;
    t.clear_breakpoints().map_err(ctx("clear_breakpoints"))?;
    Ok(())
}

/// Runs until the workload terminates (halt/detection/timeout), riding
/// through at most a handful of iteration boundaries.
fn run_to_terminal(t: &mut dyn TargetAccess) -> std::result::Result<RunEvent, String> {
    for _ in 0..100 {
        let event = t
            .run_workload(RunBudget::default())
            .map_err(ctx("run_workload"))?;
        match event {
            RunEvent::IterationBoundary { .. } => continue,
            RunEvent::Breakpoint { .. } => {
                return Err("unexpected breakpoint with none armed".into())
            }
            terminal => return Ok(terminal),
        }
    }
    Err("workload did not terminate within 100 run calls".into())
}

fn flip_target_addr(t: &mut dyn TargetAccess, spec: &ConformanceSpec) -> u32 {
    spec.flip_addr
        .unwrap_or_else(|| t.memory_size().saturating_sub(2))
}

fn check_capabilities(
    t: &mut dyn TargetAccess,
    spec: &ConformanceSpec,
) -> std::result::Result<(), String> {
    prepare(t, spec)?;
    if t.target_name().is_empty() {
        return Err("target_name is empty".into());
    }
    if let Some(want) = &spec.expect_name {
        if t.target_name() != want {
            return Err(format!(
                "target_name {} != expected {want}",
                t.target_name()
            ));
        }
    }
    if t.memory_size() == 0 {
        return Err("memory_size is zero".into());
    }
    let layouts: Vec<ChainLayout> = t.chain_layouts();
    if layouts.is_empty() {
        return Err("no scan chains exposed".into());
    }
    for layout in &layouts {
        if layout.total_bits() == 0 {
            return Err(format!("chain {} has zero bits", layout.name()));
        }
        let bits = t
            .read_scan_chain(layout.name())
            .map_err(ctx("read_scan_chain"))?;
        if bits.len() != layout.total_bits() {
            return Err(format!(
                "chain {} readout is {} bits, layout says {}",
                layout.name(),
                bits.len(),
                layout.total_bits()
            ));
        }
    }
    if let Some(want) = spec.expect_snapshot {
        if t.supports_snapshot() != want {
            return Err(format!(
                "supports_snapshot() == {}, expected {want}",
                t.supports_snapshot()
            ));
        }
    }
    if let Some(want) = spec.expect_prefix_safe {
        if t.prefix_restore_safe() != want {
            return Err(format!(
                "prefix_restore_safe() == {}, expected {want}",
                t.prefix_restore_safe()
            ));
        }
    }
    Ok(())
}

fn check_readout_restore_identity(
    t: &mut dyn TargetAccess,
    spec: &ConformanceSpec,
) -> std::result::Result<(), String> {
    prepare(t, spec)?;
    // Run a short prefix so the state is not the all-zero reset image.
    t.run_workload(RunBudget {
        max_instructions: spec.prefix_instructions,
    })
    .map_err(ctx("prefix run"))?;
    let first = readout_snapshot(t).map_err(ctx("readout_snapshot"))?;
    readout_restore(t, &first).map_err(ctx("readout_restore"))?;
    let second = readout_snapshot(t).map_err(ctx("second readout_snapshot"))?;
    if first.memory != second.memory {
        return Err("memory readout changed across restore".into());
    }
    if first.chains.len() != second.chains.len() {
        return Err("chain count changed across restore".into());
    }
    for ((name_a, bits_a), (name_b, bits_b)) in first.chains.iter().zip(&second.chains) {
        if name_a != name_b {
            return Err(format!("chain order changed: {name_a} vs {name_b}"));
        }
        if bits_a != bits_b {
            return Err(format!("chain {name_a} not bit-identical across restore"));
        }
    }
    if (first.instructions, first.cycles, first.iterations)
        != (second.instructions, second.cycles, second.iterations)
    {
        return Err("counters moved with no execution in between".into());
    }
    Ok(())
}

fn check_digest_stability(
    t: &mut dyn TargetAccess,
    spec: &ConformanceSpec,
) -> std::result::Result<(), String> {
    prepare(t, spec)?;
    t.run_workload(RunBudget {
        max_instructions: spec.prefix_instructions,
    })
    .map_err(ctx("prefix run"))?;
    let len = t.memory_size() as usize;
    let d1 = t.memory_digest(len).map_err(ctx("memory_digest"))?;
    let d2 = t.memory_digest(len).map_err(ctx("second memory_digest"))?;
    if d1 != d2 {
        return Err(format!("digest unstable across calls: {d1:#x} vs {d2:#x}"));
    }
    let generic = crate::logging::digest_words(&t.read_memory(0, len).map_err(ctx("read_memory"))?);
    if d1 != generic {
        return Err(format!(
            "digest fast path {d1:#x} disagrees with generic readout digest {generic:#x}"
        ));
    }
    let addr = flip_target_addr(t, spec);
    t.flip_memory_bit(addr, 4).map_err(ctx("flip_memory_bit"))?;
    let flipped = t.memory_digest(len).map_err(ctx("post-flip digest"))?;
    if flipped == d1 {
        return Err(format!("digest blind to a bit flip at word {addr}"));
    }
    t.flip_memory_bit(addr, 4).map_err(ctx("flip back"))?;
    let back = t.memory_digest(len).map_err(ctx("post-unflip digest"))?;
    if back != d1 {
        return Err("digest did not return to original after un-flip".into());
    }
    Ok(())
}

fn check_snapshot_mutate_restore(
    t: &mut dyn TargetAccess,
    spec: &ConformanceSpec,
) -> std::result::Result<(), String> {
    prepare(t, spec)?;
    if !t.supports_snapshot() {
        // An honest non-port: the capability probe must match the error.
        return match t.snapshot() {
            Err(GoofiError::Unimplemented(_)) => Ok(()),
            Err(other) => Err(format!(
                "supports_snapshot() is false but snapshot() failed with {other} instead of Unimplemented"
            )),
            Ok(_) => Err("supports_snapshot() is false but snapshot() succeeded".into()),
        };
    }
    t.run_workload(RunBudget {
        max_instructions: spec.prefix_instructions,
    })
    .map_err(ctx("prefix run"))?;
    let len = t.memory_size() as usize;
    let snap: TargetSnapshot = t.snapshot().map_err(ctx("snapshot"))?;
    let digest0 = t.memory_digest(len).map_err(ctx("baseline digest"))?;
    let instr0 = t.instructions_executed();
    let addr = flip_target_addr(t, spec);
    for round in 0..2 {
        t.flip_memory_bit(addr, 7).map_err(ctx("flip_memory_bit"))?;
        if t.memory_digest(len).map_err(ctx("post-mutation digest"))? == digest0 {
            return Err(format!("round {round}: mutation invisible in digest"));
        }
        t.restore(&snap).map_err(ctx("restore"))?;
        let restored = t.memory_digest(len).map_err(ctx("post-restore digest"))?;
        if restored != digest0 {
            return Err(format!(
                "round {round}: restore digest {restored:#x} != snapshot digest {digest0:#x}"
            ));
        }
        if spec.counters_restored && t.instructions_executed() != instr0 {
            return Err(format!(
                "round {round}: instruction counter {} not restored to {instr0}",
                t.instructions_executed()
            ));
        }
    }
    Ok(())
}

fn check_trigger_monotonicity(
    t: &mut dyn TargetAccess,
    spec: &ConformanceSpec,
) -> std::result::Result<(), String> {
    let (n1, n2) = spec.breakpoints;
    if n1 >= n2 {
        return Err(format!(
            "spec error: breakpoints must be ordered, got ({n1}, {n2})"
        ));
    }
    prepare(t, spec)?;
    t.set_breakpoint(Trigger::AfterInstructions(n1))
        .map_err(ctx("set_breakpoint"))?;
    let a1 = match t.run_workload(RunBudget::default()).map_err(ctx("run"))? {
        RunEvent::Breakpoint { at_instruction, .. } => at_instruction,
        other => return Err(format!("expected breakpoint at {n1}, got {other:?}")),
    };
    if a1 != n1 {
        return Err(format!("breakpoint armed at {n1} fired at {a1}"));
    }
    t.clear_breakpoints().map_err(ctx("clear_breakpoints"))?;
    t.set_breakpoint(Trigger::AfterInstructions(n2))
        .map_err(ctx("second set_breakpoint"))?;
    let a2 = match t.run_workload(RunBudget::default()).map_err(ctx("run"))? {
        RunEvent::Breakpoint { at_instruction, .. } => at_instruction,
        other => return Err(format!("expected breakpoint at {n2}, got {other:?}")),
    };
    if a2 != n2 {
        return Err(format!("breakpoint armed at {n2} fired at {a2}"));
    }
    if a2 <= a1 {
        return Err(format!("later trigger fired earlier: {a2} <= {a1}"));
    }
    t.clear_breakpoints()
        .map_err(ctx("final clear_breakpoints"))?;
    run_to_terminal(t)?;
    Ok(())
}

fn check_reset_to_idle(
    t: &mut dyn TargetAccess,
    spec: &ConformanceSpec,
) -> std::result::Result<(), String> {
    prepare(t, spec)?;
    let len = t.memory_size() as usize;
    let event1 = run_to_terminal(t)?;
    let ports1 = t.read_output_ports().map_err(ctx("read_output_ports"))?;
    let digest1 = t.memory_digest(len).map_err(ctx("memory_digest"))?;
    if t.instructions_executed() == 0 {
        return Err("workload terminated with zero instructions executed".into());
    }
    t.power_cycle().map_err(ctx("power_cycle"))?;
    t.load_workload(&spec.workload).map_err(ctx("reload"))?;
    if t.instructions_executed() != 0 || t.iterations_completed() != 0 {
        return Err(format!(
            "counters not idle after power cycle + reload: instr={} iter={}",
            t.instructions_executed(),
            t.iterations_completed()
        ));
    }
    let event2 = run_to_terminal(t)?;
    if event2 != event1 {
        return Err(format!(
            "rerun terminated differently: {event1:?} vs {event2:?}"
        ));
    }
    let ports2 = t.read_output_ports().map_err(ctx("read_output_ports"))?;
    if ports2 != ports1 {
        return Err(format!(
            "rerun output ports differ: {ports1:?} vs {ports2:?}"
        ));
    }
    let digest2 = t.memory_digest(len).map_err(ctx("memory_digest"))?;
    if digest2 != digest1 {
        return Err(format!(
            "rerun memory digest differs: {digest1:#x} vs {digest2:#x}"
        ));
    }
    Ok(())
}

fn check_rejoin(
    t: &mut dyn TargetAccess,
    spec: &ConformanceSpec,
) -> std::result::Result<(), String> {
    prepare(t, spec)?;
    if !t.supports_snapshot() {
        // Without captures there is no run to rejoin.
        if t.can_rejoin() {
            return Err("can_rejoin() is true but supports_snapshot() is false".into());
        }
        return Ok(());
    }
    t.run_workload(RunBudget {
        max_instructions: spec.prefix_instructions,
    })
    .map_err(ctx("prefix run"))?;
    let checkpoint = t.snapshot().map_err(ctx("checkpoint snapshot"))?;
    run_to_terminal(t)?;
    let end = t.snapshot().map_err(ctx("end snapshot"))?;
    let finished = readout_snapshot(t).map_err(ctx("end readout"))?;

    // A flipped register: the target must refuse and stay as it was.
    t.restore(&checkpoint).map_err(ctx("restore"))?;
    let (chain, bit) = t
        .chain_layouts()
        .iter()
        .find_map(|layout| {
            let cell = layout
                .cells()
                .iter()
                .find(|c| c.access == scanchain::CellAccess::ReadWrite)?;
            Some((layout.name().to_string(), cell.offset))
        })
        .ok_or("no writable scan cell to flip")?;
    let mut bits = t.read_scan_chain(&chain).map_err(ctx("read_scan_chain"))?;
    bits.flip(bit);
    t.write_scan_chain(&chain, &bits)
        .map_err(ctx("write_scan_chain"))?;
    let flipped = readout_snapshot(t).map_err(ctx("flipped readout"))?;
    if t.rejoin(&checkpoint, &end).map_err(ctx("rejoin"))? {
        return Err(format!(
            "rejoined despite a flip in chain {chain} bit {bit}"
        ));
    }
    if readout_snapshot(t).map_err(ctx("refused readout"))? != flipped {
        return Err("a refused rejoin changed the target".into());
    }

    // The fault-free state itself: rejoins exactly when the port says so.
    t.restore(&checkpoint).map_err(ctx("second restore"))?;
    let before = readout_snapshot(t).map_err(ctx("checkpoint readout"))?;
    let rejoined = t.rejoin(&checkpoint, &end).map_err(ctx("second rejoin"))?;
    let after = readout_snapshot(t).map_err(ctx("rejoined readout"))?;
    match (rejoined, t.can_rejoin()) {
        (true, true) if after != finished => {
            Err("the rejoined target does not read out as the run's end state".into())
        }
        (false, false) if after != before => Err("a refused rejoin changed the target".into()),
        (true, true) | (false, false) => Ok(()),
        (rejoined, can) => Err(format!(
            "rejoin() returned {rejoined} at the run's own checkpoint, can_rejoin() is {can}"
        )),
    }
}

/// Generic snapshot support for ports without native state cloning: wraps
/// any [`TargetAccess`] and implements `snapshot`/`restore` with the
/// scan-readout building blocks ([`readout_snapshot`]/[`readout_restore`]).
///
/// This is the adapter `examples/port_a_target.rs` walks through: a brand
/// new port gets working (if slower) snapshot support for free, with the
/// documented readout limitation — state invisible to the scan chains,
/// including the execution counters, is not captured, so
/// [`ConformanceSpec::counters_restored`] must stay `false` for specs run
/// against it.
#[derive(Debug)]
pub struct ReadoutFallback<T: TargetAccess> {
    inner: T,
}

impl<T: TargetAccess> ReadoutFallback<T> {
    /// Wraps a port.
    pub fn new(inner: T) -> Self {
        ReadoutFallback { inner }
    }

    /// The wrapped port.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: TargetAccess> TargetAccess for ReadoutFallback<T> {
    pass_through! { inner:
        target_name, init_test_card, load_workload, reset_target, write_memory, read_memory,
        flip_memory_bit, memory_size, set_breakpoint, clear_breakpoints, run_workload,
        step_instruction, chain_layouts, read_scan_chain, write_scan_chain, write_input_ports,
        read_output_ports, instructions_executed, cycles_executed, iterations_completed,
        step_traced, power_cycle,
        // A readout capture is as safe to restore over a skipped prefix as the port under it.
        prefix_restore_safe,
    }

    fn snapshot(&mut self) -> Result<TargetSnapshot> {
        Ok(TargetSnapshot::new(readout_snapshot(&mut self.inner)?))
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        let snap = snapshot
            .downcast_ref::<ReadoutSnapshot>()
            .ok_or_else(|| GoofiError::Target("snapshot is not a readout capture".into()))?;
        // Pulse reset before scanning state back in: latches a scan write
        // cannot reach — halt flags, detection state, counters — must
        // return to idle, or a core that ran to completion since the
        // capture would stay halted through the restore. This is exactly
        // how a TAP-driven restore works on real silicon: reset, then
        // shift the saved state in.
        self.inner.reset_target()?;
        readout_restore(&mut self.inner, snap)
    }

    fn supports_snapshot(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{NullTarget, SimTarget};
    use crate::link::{UnreliableTarget, VerifiedTarget};
    use crate::supervisor::WedgeableTarget;
    use scanchain::{LinkFaultConfig, WedgeConfig};

    fn sim_workload() -> WorkloadImage {
        WorkloadImage {
            name: "sim-conformance".into(),
            // 20 instructions, no iteration boundary.
            words: vec![20, 0],
            code_words: 2,
            entry: 0,
        }
    }

    fn sim_spec(label: &str) -> ConformanceSpec {
        let mut spec = ConformanceSpec::new(label, sim_workload());
        spec.expect_snapshot = Some(true);
        spec.expect_prefix_safe = Some(true);
        spec.counters_restored = true;
        spec
    }

    #[test]
    fn sim_target_conforms() {
        let mut spec = sim_spec("sim native");
        spec.expect_name = Some("sim".into());
        let report = run_suite(&mut SimTarget::new(), &spec);
        assert!(report.passed(), "{report}");
        assert_eq!(report.checks.len(), CHECK_NAMES.len());
    }

    #[test]
    fn sim_target_via_readout_fallback_conforms() {
        let mut spec = sim_spec("sim via readout fallback");
        // Readout restores cannot reach the private instruction counter.
        spec.counters_restored = false;
        let mut target = ReadoutFallback::new(SimTarget::new());
        let report = run_suite(&mut target, &spec);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn decorator_stacks_conform_and_forward_capabilities() {
        // verified link over sim
        let report = run_suite(
            &mut VerifiedTarget::new(SimTarget::new()),
            &sim_spec("verified(sim)"),
        );
        assert!(report.passed(), "{report}");

        // healthy (zero-rate) lossy link over sim
        let report = run_suite(
            &mut UnreliableTarget::new(SimTarget::new(), LinkFaultConfig::default()),
            &sim_spec("unreliable(sim, zero rates)"),
        );
        assert!(report.passed(), "{report}");

        // wedge drill with zero rates: forwards everything, but consumes a
        // seeded draw per run call, so prefix-skip is NOT safe — the
        // capability must say so through the whole stack.
        let mut spec = sim_spec("wedgeable(verified(sim))");
        spec.expect_prefix_safe = Some(false);
        let report = run_suite(
            &mut WedgeableTarget::new(
                VerifiedTarget::new(SimTarget::new()),
                WedgeConfig::default(),
            ),
            &spec,
        );
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn unported_template_fails_loudly() {
        let report = run_suite(
            &mut NullTarget::new(),
            &ConformanceSpec::new("unported", sim_workload()),
        );
        assert!(!report.passed());
        // Every check that needs a working card fails at init_test_card.
        let failures = report.failures();
        assert!(!failures.is_empty());
        for failure in failures {
            let msg = failure.error.as_deref().unwrap();
            assert!(msg.contains("init_test_card"), "{msg}");
        }
    }

    #[test]
    fn dyn_targets_are_accepted() {
        let mut boxed: Box<dyn TargetAccess> = Box::new(SimTarget::new());
        let report = run_suite(
            boxed.as_mut() as &mut dyn TargetAccess,
            &sim_spec("dyn sim"),
        );
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn report_renders_outcomes() {
        let report = run_suite(&mut SimTarget::new(), &sim_spec("render"));
        let text = report.to_string();
        assert!(text.contains("PASS capabilities"), "{text}");
        assert!(text.contains("[sim]"), "{text}");
    }
}
