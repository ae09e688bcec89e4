//! The target-system interface: GOOFI's abstract building blocks.
//!
//! The paper's `FaultInjectionAlgorithms` class declares abstract methods —
//! `initTestCard()`, `loadWorkload()`, `runWorkload()`,
//! `waitForBreakpoint()`, `writeMemory()`, `readMemory()`,
//! `readScanChain()`, `injectFault()`, `writeScanChain()`,
//! `waitForTermination()` — that each `TargetSystemInterface` implements
//! (Figure 2). [`TargetAccess`] is the Rust rendering of that contract: the
//! generic algorithms in [`crate::algorithms`] are written purely against
//! this trait, and porting GOOFI to a new target system means implementing
//! it (see [`crate::framework::NullTarget`] for the template).
//!
//! `injectFault()` and `waitForBreakpoint()`/`waitForTermination()` are not
//! trait methods: they are *compositions* of building blocks (read chain →
//! flip bits → write chain; run until event), provided once, generically, in
//! [`crate::algorithms`].

use crate::campaign::WorkloadImage;
use crate::trigger::Trigger;
use crate::{GoofiError, Result};
use scanchain::{BitVec, ChainLayout};
use std::any::Any;

/// An opaque capture of a target's full state — CPU registers, memory,
/// scan-visible latches and counters — taken by [`TargetAccess::snapshot`]
/// and replayed by [`TargetAccess::restore`].
///
/// The payload is target-specific: the Thor port stores a clone of its
/// whole test card, the generic fallback stores a scan-chain readout
/// ([`ReadoutSnapshot`]). Decorators forward snapshots unchanged (or wrap
/// them, like the wedge drill), so a snapshot taken through a decorator
/// stack restores through the same stack.
#[derive(Debug)]
pub struct TargetSnapshot {
    state: Box<dyn Any + Send>,
}

impl TargetSnapshot {
    /// Wraps a target-specific state capture.
    pub fn new<S: Any + Send>(state: S) -> Self {
        TargetSnapshot {
            state: Box::new(state),
        }
    }

    /// The captured state, if it is of type `S` — how a target's `restore`
    /// recovers what its `snapshot` stored. `None` means the snapshot was
    /// taken by a different target (or decorator layer); restoring from it
    /// would be meaningless, so treat that as an error.
    pub fn downcast_ref<S: Any + Send>(&self) -> Option<&S> {
        self.state.downcast_ref::<S>()
    }
}

/// Execution budget for one [`TargetAccess::run_workload`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum instructions to retire before returning
    /// [`RunEvent::BudgetExhausted`].
    pub max_instructions: u64,
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget {
            max_instructions: 10_000_000,
        }
    }
}

/// A detection reported by the target's error detection mechanisms,
/// identified by the target-specific mechanism name (the analysis phase
/// classifies "errors detected by each of the various mechanisms", §3.4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DetectionInfo {
    /// Mechanism name, e.g. `"parity_icache"`.
    pub mechanism: String,
    /// Target-specific detection code (stored in the log).
    pub code: u32,
}

/// Why a [`TargetAccess::run_workload`] call returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunEvent {
    /// The workload ran to completion.
    Halted,
    /// An armed breakpoint (fault trigger) fired.
    Breakpoint {
        /// Instructions retired when it fired.
        at_instruction: u64,
        /// Cycles elapsed when it fired.
        at_cycle: u64,
    },
    /// An error detection mechanism fired.
    Detected(DetectionInfo),
    /// The workload reached a loop-iteration boundary; the framework
    /// exchanges data with the environment simulator and resumes.
    IterationBoundary {
        /// Completed iterations so far.
        iteration: u64,
    },
    /// The target's watchdog/time-out termination condition fired.
    Timeout,
    /// The per-call instruction budget ran out.
    BudgetExhausted,
}

/// The abstract methods a target system implements to join GOOFI.
///
/// Implementations wrap whatever reaches the real target — for the Thor
/// simulator that is a [`scanchain::TestCard`] plus direct memory download.
/// All methods return [`crate::GoofiError::Unimplemented`]-style errors when
/// the port has not filled them in; see [`crate::framework::NullTarget`].
pub trait TargetAccess {
    /// Stable target-system name (keys the `TargetSystemData` table).
    fn target_name(&self) -> &str;

    /// Initialises the test card / debug link (paper: `initTestCard()`).
    fn init_test_card(&mut self) -> Result<()>;

    /// Downloads the workload image and resets the core
    /// (paper: `loadWorkload()`).
    fn load_workload(&mut self, image: &WorkloadImage) -> Result<()>;

    /// Resets the core without reloading memory.
    fn reset_target(&mut self) -> Result<()>;

    /// Writes words into target memory (paper: `writeMemory()`).
    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()>;

    /// Reads words from target memory (paper: `readMemory()`).
    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>>;

    /// Inverts one bit of one memory word (the SWIFI primitive).
    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> Result<()>;

    /// Total memory size in words.
    fn memory_size(&self) -> u32;

    /// Arms a breakpoint for the given trigger (set via the scan chains on
    /// scan-instrumented targets).
    ///
    /// # Errors
    ///
    /// Fails for [`Trigger::PreRuntime`], which needs no breakpoint.
    fn set_breakpoint(&mut self, trigger: Trigger) -> Result<()>;

    /// Disarms all breakpoints.
    fn clear_breakpoints(&mut self) -> Result<()>;

    /// Runs the workload until an event occurs (paper: `runWorkload()` +
    /// `waitForBreakpoint()`/`waitForTermination()`).
    fn run_workload(&mut self, budget: RunBudget) -> Result<RunEvent>;

    /// Executes a single instruction; `None` means execution continues.
    /// Used by detail-mode logging ("the system state is logged … typically
    /// after the execution of each machine instruction", §3.3).
    fn step_instruction(&mut self) -> Result<Option<RunEvent>>;

    /// The target's scan-chain layouts (configuration phase, Figure 5).
    fn chain_layouts(&self) -> Vec<ChainLayout>;

    /// Captures a full chain image (paper: `readScanChain()`).
    fn read_scan_chain(&mut self, chain: &str) -> Result<BitVec>;

    /// Updates a chain's writable cells (paper: `writeScanChain()`).
    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> Result<()>;

    /// Drives the target's input ports (environment simulator data).
    fn write_input_ports(&mut self, inputs: &[u32]) -> Result<()>;

    /// Reads the target's output-port latches.
    fn read_output_ports(&mut self) -> Result<Vec<u32>>;

    /// Instructions retired since the last reset.
    fn instructions_executed(&self) -> u64;

    /// Cycles elapsed since the last reset.
    fn cycles_executed(&self) -> u64;

    /// Workload loop iterations completed since the last reset.
    fn iterations_completed(&self) -> u64;

    /// Executes one instruction while recording which architectural
    /// locations it read and wrote — the input to the pre-injection
    /// (liveness) analysis. Targets without trace support may return
    /// `Err(GoofiError::Unimplemented)`, which disables the optimisation.
    fn step_traced(&mut self) -> Result<(Option<RunEvent>, crate::preinject::StepAccess)>;

    /// Cold-restarts the target — the strongest recovery action short of
    /// taking the target offline (see [`crate::supervisor::Supervisor::recover`]).
    ///
    /// The default body re-initialises the test card and resets the core,
    /// which is the best a port without power control can do. Ports with
    /// real cold-reset semantics (the Thor simulator, hardware with a
    /// switchable supply) should override this to wipe *all* target state —
    /// registers, caches, detection latches — and reload the current
    /// workload, so that state a warm reset cannot reach is cleared too.
    fn power_cycle(&mut self) -> Result<()> {
        self.init_test_card()?;
        self.reset_target()
    }

    /// Captures the target's complete state — everything
    /// [`TargetAccess::load_workload`] plus subsequent execution can have
    /// changed — so a later [`TargetAccess::restore`] resumes from exactly
    /// this point (paper-era tools re-ran the prefix instead; see
    /// [`crate::algorithms::ExperimentSession`]).
    ///
    /// # Errors
    ///
    /// [`crate::GoofiError::Unimplemented`] by default; ports opt in by
    /// overriding this together with `restore` and `supports_snapshot`.
    /// Ports without cheap state cloning can build the capture with
    /// [`readout_snapshot`] (scan-chain + memory readout).
    fn snapshot(&mut self) -> Result<TargetSnapshot> {
        Err(GoofiError::Unimplemented("snapshot"))
    }

    /// Restores state captured by [`TargetAccess::snapshot`] on this same
    /// target. One snapshot may be restored any number of times.
    ///
    /// # Errors
    ///
    /// [`crate::GoofiError::Unimplemented`] by default; a snapshot from a
    /// different target type is a [`crate::GoofiError::Target`] error.
    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        let _ = snapshot;
        Err(GoofiError::Unimplemented("restore"))
    }

    /// Whether [`TargetAccess::snapshot`]/[`TargetAccess::restore`] are
    /// implemented — the capability probe the experiment drivers use to
    /// pick the hot path. Defaults to `false` so unported targets keep the
    /// (correct, slow) reload-and-replay behaviour.
    fn supports_snapshot(&self) -> bool {
        false
    }

    /// Whether skipping an already-executed run prefix (by restoring a
    /// snapshot taken at its end) leaves every later observable draw
    /// unchanged. True for plain targets: running a deterministic prefix
    /// twice is a no-op. Fault-model decorators that consume seeded draws
    /// *per run call* (the wedge drill) must return `false`, otherwise
    /// skipping the prefix would shift their stream and the campaign would
    /// no longer be essence-equal to the slow path.
    fn prefix_restore_safe(&self) -> bool {
        true
    }

    /// Whether [`TargetAccess::rejoin`] is implemented — the capability
    /// probe a snapshot session checks before it records a golden path.
    /// Defaults to `false`. Decorators keep the default (their
    /// pass-through cannot forward it), so a decorated stack never
    /// rejoins: its own state (link faults, drill draws) is not part of
    /// the comparison.
    fn can_rejoin(&self) -> bool {
        false
    }

    /// Rejoins a fault-free run (see
    /// [`crate::algorithms::ExperimentSession`]). `checkpoint` is that
    /// run's state at the target's current instruction count and `end` a
    /// later state of the same run, both taken by
    /// [`TargetAccess::snapshot`] on this target with no tool access in
    /// between. If the target would execute exactly as `checkpoint` does,
    /// it becomes the state it would reach by the end of that run and
    /// `Ok(true)` is returned: `end`, except that state the run never
    /// used after `checkpoint` keeps the target's own values, and the
    /// counters move by the target's distance from `checkpoint`.
    /// Otherwise it returns `Ok(false)` and changes nothing.
    ///
    /// # Errors
    ///
    /// None by default (the default never rejoins); a snapshot from a
    /// different target type is a [`crate::GoofiError::Target`] error.
    fn rejoin(&mut self, checkpoint: &TargetSnapshot, end: &TargetSnapshot) -> Result<bool> {
        let _ = (checkpoint, end);
        Ok(false)
    }

    /// Digest of the first `len` words of memory, exactly
    /// [`crate::logging::digest_words`] of a
    /// [`TargetAccess::read_memory`]`(0, len)` readout.
    ///
    /// The default does just that. Targets with structured memory may
    /// override it to skip the flat copy — the thor driver memoizes
    /// per-page block digests across copy-on-write snapshots — but any
    /// override MUST return the same value as the default, since digests
    /// are compared across records regardless of which path produced
    /// them. Decorators keep this default (their pass-through cannot
    /// forward it): it reads through the decorator's own `read_memory`,
    /// which keeps verified and lossy reads intact.
    ///
    /// # Errors
    ///
    /// As [`TargetAccess::read_memory`].
    fn memory_digest(&mut self, len: usize) -> Result<u64> {
        Ok(crate::logging::digest_words(&self.read_memory(0, len)?))
    }
}

/// The generic snapshot payload for ports without native state cloning:
/// whatever the scan chains and memory bus can see, captured with
/// [`readout_snapshot`] and written back with [`readout_restore`].
///
/// This is a *readout*, not a full capture — state invisible to the scan
/// chains (write-only latches, private counters) is not included, which is
/// exactly the paper's observability boundary. Ports using it should
/// restore any such private state themselves after calling
/// [`readout_restore`] (see `examples/port_a_target.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadoutSnapshot {
    /// Full image of every scan chain (name → bits).
    pub chains: Vec<(String, BitVec)>,
    /// Full memory image.
    pub memory: Vec<u32>,
    /// Counter values at capture time, for ports whose counters are
    /// architecturally visible.
    pub instructions: u64,
    /// Cycle counter at capture time.
    pub cycles: u64,
    /// Iteration counter at capture time.
    pub iterations: u64,
}

/// Captures everything reachable through the [`TargetAccess`] readout
/// methods: every scan chain plus all of memory. The building block for
/// `snapshot` on ports that lack cheap native state cloning.
///
/// # Errors
///
/// Any chain or memory read error from the target.
pub fn readout_snapshot<T: TargetAccess + ?Sized>(target: &mut T) -> Result<ReadoutSnapshot> {
    let mut chains = Vec::new();
    for layout in target.chain_layouts() {
        let bits = target.read_scan_chain(layout.name())?;
        chains.push((layout.name().to_string(), bits));
    }
    let memory = target.read_memory(0, target.memory_size() as usize)?;
    Ok(ReadoutSnapshot {
        chains,
        memory,
        instructions: target.instructions_executed(),
        cycles: target.cycles_executed(),
        iterations: target.iterations_completed(),
    })
}

/// Writes a [`readout_snapshot`] capture back: all of memory, then every
/// chain's writable cells. Memory goes first because memory writes may
/// have architectural side effects (cache-coherence invalidation on a
/// write-through port, for instance) that would clobber freshly scanned-in
/// state; scanning in last leaves the chains exactly as captured.
/// Read-only cells keep whatever the target holds — the same limitation
/// any scan-based state control has.
///
/// # Errors
///
/// Any chain or memory write error from the target.
pub fn readout_restore<T: TargetAccess + ?Sized>(
    target: &mut T,
    snapshot: &ReadoutSnapshot,
) -> Result<()> {
    target.write_memory(0, &snapshot.memory)?;
    for (chain, bits) in &snapshot.chains {
        target.write_scan_chain(chain, bits)?;
    }
    Ok(())
}

/// Writes the [`TargetAccess`] methods a decorator passes through.
///
/// Inside an `impl TargetAccess` block, `pass_through! { inner: a, b, … }`
/// writes each named method with a body that calls the same method on the
/// field `inner`, so a decorator hand-writes only the methods it changes.
/// Every decorator shares one rule, the four in this crate (the link and
/// wedge drills, verified I/O and the readout fallback) and any written
/// outside it:
///
/// - `power_cycle` passes through: the trait default would re-init and
///   reset this layer and skip the inner target's real cold reset.
/// - `snapshot`, `restore`, `supports_snapshot` and `prefix_restore_safe`
///   pass through unless the decorator has state of its own to capture or
///   a reason to veto prefix reuse. A capture is a host-side clone of the
///   inner target, not traffic a decorator disturbs or verifies, and the
///   defaults would hide the inner target's fast path.
/// - `memory_digest`, `can_rejoin` and `rejoin` keep the trait defaults,
///   and there is no arm for them. The default digest reads memory through
///   the decorator's own `read_memory`, so lossy and verified reads apply
///   to it. A decorator's own state (link faults, drill draws) is not part
///   of a rejoin comparison, so a decorated stack never rejoins.
///
/// Any crate may use it: it is exported at the crate root
/// (`goofi_core::pass_through`). The methods it writes name this crate's
/// types through `$crate`, and `ChainLayout` and `BitVec` as
/// `::scanchain::…`, so the using crate depends on `scanchain`, as every
/// `TargetAccess` implementation does. Their bodies call the method on the
/// field, so `TargetAccess` must be in scope where the macro expands. A
/// decorator that counts the runs reaching the target under it writes one
/// method:
///
/// ```
/// use goofi_core::framework::SimTarget;
/// use goofi_core::{pass_through, RunBudget, RunEvent, TargetAccess};
///
/// struct CountingRuns<T> {
///     inner: T,
///     runs: u64,
/// }
///
/// impl<T: TargetAccess> TargetAccess for CountingRuns<T> {
///     pass_through! { inner:
///         target_name, init_test_card, load_workload, reset_target, write_memory,
///         read_memory, flip_memory_bit, memory_size, set_breakpoint, clear_breakpoints,
///         step_instruction, chain_layouts, read_scan_chain, write_scan_chain,
///         write_input_ports, read_output_ports, instructions_executed, cycles_executed,
///         iterations_completed, step_traced, power_cycle, snapshot, restore,
///         supports_snapshot, prefix_restore_safe,
///     }
///
///     fn run_workload(&mut self, budget: RunBudget) -> goofi_core::Result<RunEvent> {
///         self.runs += 1;
///         self.inner.run_workload(budget)
///     }
/// }
///
/// let mut target = CountingRuns { inner: SimTarget::new(), runs: 0 };
/// target.init_test_card()?;
/// let budget = RunBudget { max_instructions: 1_000 };
/// assert_eq!(target.run_workload(budget)?, RunEvent::Halted);
/// assert_eq!((target.runs, target.instructions_executed()), (1, 100));
/// // The snapshot capability is the simulator's; rejoining stays off.
/// assert!(target.supports_snapshot() && !target.can_rejoin());
/// # Ok::<(), goofi_core::GoofiError>(())
/// ```
///
/// `Box<T>` is not a decorator: it forwards every method, those three
/// included, in its own impl.
#[macro_export]
macro_rules! pass_through {
    ($f:ident: $($method:ident),+ $(,)?) => {
        $($crate::pass_through!(@$method $f);)+
    };
    (@target_name $f:ident) => { fn target_name(&self) -> &str { self.$f.target_name() } };
    (@init_test_card $f:ident) => {
        fn init_test_card(&mut self) -> $crate::Result<()> { self.$f.init_test_card() }
    };
    (@load_workload $f:ident) => {
        fn load_workload(&mut self, image: &$crate::campaign::WorkloadImage) -> $crate::Result<()> {
            self.$f.load_workload(image)
        }
    };
    (@reset_target $f:ident) => {
        fn reset_target(&mut self) -> $crate::Result<()> { self.$f.reset_target() }
    };
    (@write_memory $f:ident) => {
        fn write_memory(&mut self, addr: u32, data: &[u32]) -> $crate::Result<()> {
            self.$f.write_memory(addr, data)
        }
    };
    (@read_memory $f:ident) => {
        fn read_memory(&mut self, addr: u32, len: usize) -> $crate::Result<Vec<u32>> {
            self.$f.read_memory(addr, len)
        }
    };
    (@flip_memory_bit $f:ident) => {
        fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> $crate::Result<()> {
            self.$f.flip_memory_bit(addr, bit)
        }
    };
    (@memory_size $f:ident) => { fn memory_size(&self) -> u32 { self.$f.memory_size() } };
    (@set_breakpoint $f:ident) => {
        fn set_breakpoint(&mut self, trigger: $crate::trigger::Trigger) -> $crate::Result<()> {
            self.$f.set_breakpoint(trigger)
        }
    };
    (@clear_breakpoints $f:ident) => {
        fn clear_breakpoints(&mut self) -> $crate::Result<()> { self.$f.clear_breakpoints() }
    };
    (@run_workload $f:ident) => {
        fn run_workload(&mut self, budget: $crate::RunBudget) -> $crate::Result<$crate::RunEvent> {
            self.$f.run_workload(budget)
        }
    };
    (@step_instruction $f:ident) => {
        fn step_instruction(&mut self) -> $crate::Result<Option<$crate::RunEvent>> {
            self.$f.step_instruction()
        }
    };
    (@chain_layouts $f:ident) => {
        fn chain_layouts(&self) -> Vec<::scanchain::ChainLayout> { self.$f.chain_layouts() }
    };
    (@read_scan_chain $f:ident) => {
        fn read_scan_chain(&mut self, chain: &str) -> $crate::Result<::scanchain::BitVec> {
            self.$f.read_scan_chain(chain)
        }
    };
    (@write_scan_chain $f:ident) => {
        fn write_scan_chain(
            &mut self,
            chain: &str,
            bits: &::scanchain::BitVec,
        ) -> $crate::Result<()> {
            self.$f.write_scan_chain(chain, bits)
        }
    };
    (@write_input_ports $f:ident) => {
        fn write_input_ports(&mut self, inputs: &[u32]) -> $crate::Result<()> {
            self.$f.write_input_ports(inputs)
        }
    };
    (@read_output_ports $f:ident) => {
        fn read_output_ports(&mut self) -> $crate::Result<Vec<u32>> { self.$f.read_output_ports() }
    };
    (@instructions_executed $f:ident) => {
        fn instructions_executed(&self) -> u64 { self.$f.instructions_executed() }
    };
    (@cycles_executed $f:ident) => {
        fn cycles_executed(&self) -> u64 { self.$f.cycles_executed() }
    };
    (@iterations_completed $f:ident) => {
        fn iterations_completed(&self) -> u64 { self.$f.iterations_completed() }
    };
    (@step_traced $f:ident) => {
        fn step_traced(
            &mut self,
        ) -> $crate::Result<(Option<$crate::RunEvent>, $crate::preinject::StepAccess)> {
            self.$f.step_traced()
        }
    };
    (@power_cycle $f:ident) => {
        fn power_cycle(&mut self) -> $crate::Result<()> { self.$f.power_cycle() }
    };
    (@snapshot $f:ident) => {
        fn snapshot(&mut self) -> $crate::Result<$crate::TargetSnapshot> { self.$f.snapshot() }
    };
    (@restore $f:ident) => {
        fn restore(&mut self, snapshot: &$crate::TargetSnapshot) -> $crate::Result<()> {
            self.$f.restore(snapshot)
        }
    };
    (@supports_snapshot $f:ident) => {
        fn supports_snapshot(&self) -> bool { self.$f.supports_snapshot() }
    };
    (@prefix_restore_safe $f:ident) => {
        fn prefix_restore_safe(&self) -> bool { self.$f.prefix_restore_safe() }
    };
}

/// Boxed targets are targets too, so callers can assemble decorator stacks
/// (e.g. [`crate::link::VerifiedTarget`] over
/// [`crate::link::UnreliableTarget`]) behind a single `Box<dyn
/// TargetAccess>` and still use the generic algorithms and the parallel
/// runner.
impl<T: TargetAccess + ?Sized> TargetAccess for Box<T> {
    fn target_name(&self) -> &str {
        (**self).target_name()
    }

    fn init_test_card(&mut self) -> Result<()> {
        (**self).init_test_card()
    }

    fn load_workload(&mut self, image: &WorkloadImage) -> Result<()> {
        (**self).load_workload(image)
    }

    fn reset_target(&mut self) -> Result<()> {
        (**self).reset_target()
    }

    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        (**self).write_memory(addr, data)
    }

    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        (**self).read_memory(addr, len)
    }

    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> Result<()> {
        (**self).flip_memory_bit(addr, bit)
    }

    fn memory_size(&self) -> u32 {
        (**self).memory_size()
    }

    fn set_breakpoint(&mut self, trigger: Trigger) -> Result<()> {
        (**self).set_breakpoint(trigger)
    }

    fn clear_breakpoints(&mut self) -> Result<()> {
        (**self).clear_breakpoints()
    }

    fn run_workload(&mut self, budget: RunBudget) -> Result<RunEvent> {
        (**self).run_workload(budget)
    }

    fn step_instruction(&mut self) -> Result<Option<RunEvent>> {
        (**self).step_instruction()
    }

    fn chain_layouts(&self) -> Vec<ChainLayout> {
        (**self).chain_layouts()
    }

    fn read_scan_chain(&mut self, chain: &str) -> Result<BitVec> {
        (**self).read_scan_chain(chain)
    }

    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> Result<()> {
        (**self).write_scan_chain(chain, bits)
    }

    fn write_input_ports(&mut self, inputs: &[u32]) -> Result<()> {
        (**self).write_input_ports(inputs)
    }

    fn read_output_ports(&mut self) -> Result<Vec<u32>> {
        (**self).read_output_ports()
    }

    fn instructions_executed(&self) -> u64 {
        (**self).instructions_executed()
    }

    fn cycles_executed(&self) -> u64 {
        (**self).cycles_executed()
    }

    fn iterations_completed(&self) -> u64 {
        (**self).iterations_completed()
    }

    fn step_traced(&mut self) -> Result<(Option<RunEvent>, crate::preinject::StepAccess)> {
        (**self).step_traced()
    }

    // Must forward explicitly: falling back to the trait default would
    // re-init through the *box* and silently skip any override the inner
    // target (or a decorator below it) provides.
    fn power_cycle(&mut self) -> Result<()> {
        (**self).power_cycle()
    }

    // Same reasoning as power_cycle: the trait defaults would report the
    // *box* as snapshot- and rejoin-incapable even when the boxed target
    // supports them.
    fn snapshot(&mut self) -> Result<TargetSnapshot> {
        (**self).snapshot()
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        (**self).restore(snapshot)
    }

    fn supports_snapshot(&self) -> bool {
        (**self).supports_snapshot()
    }

    fn prefix_restore_safe(&self) -> bool {
        (**self).prefix_restore_safe()
    }

    fn can_rejoin(&self) -> bool {
        (**self).can_rejoin()
    }

    fn rejoin(&mut self, checkpoint: &TargetSnapshot, end: &TargetSnapshot) -> Result<bool> {
        (**self).rejoin(checkpoint, end)
    }

    fn memory_digest(&mut self, len: usize) -> Result<u64> {
        (**self).memory_digest(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::ReadoutFallback;
    use crate::framework::SimTarget;
    use crate::link::{UnreliableTarget, VerifiedTarget};
    use crate::logging::digest_words;
    use crate::supervisor::WedgeableTarget;
    use scanchain::{LinkFaultConfig, WedgeConfig};
    use std::cell::Cell;
    use std::rc::Rc;

    const SENTINEL: u64 = 0x5E47_1E15;

    /// Calls that reached the probe.
    #[derive(Default)]
    struct Reached {
        rejoins: Cell<u32>,
        power_cycles: Cell<u32>,
    }

    /// `SimTarget` behind the pass-through, except where a decorator that
    /// broke the rules would show it: the probe rejoins, counts `rejoin`
    /// and `power_cycle` calls, and digests its memory to a sentinel.
    struct Probe {
        sim: SimTarget,
        reached: Rc<Reached>,
    }

    impl TargetAccess for Probe {
        crate::pass_through! { sim:
            target_name, init_test_card, load_workload, reset_target, write_memory,
            read_memory, flip_memory_bit, memory_size, set_breakpoint, clear_breakpoints,
            run_workload, step_instruction, chain_layouts, read_scan_chain, write_scan_chain,
            write_input_ports, read_output_ports, instructions_executed, cycles_executed,
            iterations_completed, step_traced, snapshot, restore, supports_snapshot,
            prefix_restore_safe,
        }

        fn power_cycle(&mut self) -> Result<()> {
            self.reached
                .power_cycles
                .set(self.reached.power_cycles.get() + 1);
            self.sim.power_cycle()
        }

        fn can_rejoin(&self) -> bool {
            true
        }

        fn rejoin(&mut self, _checkpoint: &TargetSnapshot, _end: &TargetSnapshot) -> Result<bool> {
            self.reached.rejoins.set(self.reached.rejoins.get() + 1);
            Ok(true)
        }

        fn memory_digest(&mut self, _len: usize) -> Result<u64> {
            Ok(SENTINEL)
        }
    }

    /// Wraps a fresh probe with `wrap` and holds the result to the rules
    /// in the pass-through's doc.
    fn keeps_the_rules<D: TargetAccess>(label: &str, wrap: impl FnOnce(Probe) -> D) {
        let reached = Rc::new(Reached::default());
        let probe = Probe {
            sim: SimTarget::new(),
            reached: Rc::clone(&reached),
        };
        let mut target = wrap(probe);

        assert!(!target.can_rejoin(), "{label}: can_rejoin passed through");
        let capture = target.snapshot().unwrap();
        assert!(
            !target.rejoin(&capture, &capture).unwrap(),
            "{label}: rejoined"
        );
        assert_eq!(reached.rejoins.get(), 0, "{label}: rejoin passed through");

        target.write_memory(3, &[0xDEAD_BEEF, 7]).unwrap();
        let len = target.memory_size() as usize;
        let own = digest_words(&target.read_memory(0, len).unwrap());
        let digest = target.memory_digest(len).unwrap();
        assert_ne!(digest, SENTINEL, "{label}: memory_digest passed through");
        assert_eq!(digest, own, "{label}");

        target.power_cycle().unwrap();
        assert_eq!(reached.power_cycles.get(), 1, "{label}: power_cycle");
    }

    #[test]
    fn decorators_keep_the_pass_through_rules() {
        let mut bare = Probe {
            sim: SimTarget::new(),
            reached: Rc::default(),
        };
        assert!(bare.can_rejoin());
        assert_eq!(bare.memory_digest(64).unwrap(), SENTINEL);

        keeps_the_rules("unreliable", |p| {
            UnreliableTarget::new(p, LinkFaultConfig::default())
        });
        keeps_the_rules("verified", VerifiedTarget::new);
        keeps_the_rules("wedgeable", |p| {
            WedgeableTarget::new(p, WedgeConfig::default())
        });
        keeps_the_rules("readout fallback", ReadoutFallback::new);
    }
}
