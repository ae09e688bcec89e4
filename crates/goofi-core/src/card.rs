//! The test-card port, written once for every CPU core.
//!
//! The paper's `Framework` template (§3, Figure 3) makes porting GOOFI a
//! matter of filling in the target-specific methods. For a simulated core
//! behind a scan-chain [`TestCard`], almost every [`TargetAccess`] building
//! block is the same whatever the ISA: scan accesses walk the card's TAP,
//! breakpoints arm the core's [`DebugUnit`], memory is the shared paged
//! [`Memory`], and a snapshot is a copy-on-write clone of the whole card.
//! [`CardTarget`] implements all of that once. A core joins by implementing
//! [`CardCpu`] on a marker type: its name, how to build it and download an
//! image, cache coherence after tool-side writes, how its stop reasons map
//! to [`RunEvent`]s, how its trace names the locations a step touched, and
//! how it rejoins a fault-free run — plus one forwarding line per core
//! operation the port drives.

use crate::campaign::WorkloadImage;
use crate::logging;
use crate::preinject::StepAccess;
use crate::trigger::Trigger;
use crate::{GoofiError, Result, RunBudget, RunEvent, TargetAccess, TargetSnapshot};
use scanchain::{
    BitVec, ChainLayout, DebugUnit, Memory, MemoryError, ScanTarget, TestCard, TestCardStats,
};
use std::fmt;
use std::sync::Arc;

/// What one CPU core contributes to its [`CardTarget`] port.
///
/// Implemented on a marker type in the port crate, since the core type is
/// foreign there. The methods are associated functions that take the
/// core, so an impl holds no state: the card, its snapshots and the
/// power-cycle bookkeeping all stay in [`CardTarget`].
pub trait CardCpu: 'static {
    /// The simulated core behind the test card.
    type Cpu: ScanTarget + Clone + fmt::Debug + Send + Sync;
    /// What the core is built from, kept so a power cycle can rebuild it.
    type Config: Copy + Default + fmt::Debug + Send + Sync;
    /// Why the core's `run` or `step` returned.
    type Stop;

    /// The target-system name campaigns store.
    const NAME: &'static str;
    /// Number of input (and of output) ports.
    const PORTS: usize;

    /// Builds a powered-up core.
    fn build(config: Self::Config) -> Self::Cpu;
    /// Downloads a workload image, given in the core's native units.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfRange`] if the image does not fit.
    fn load(cpu: &mut Self::Cpu, image: &WorkloadImage) -> std::result::Result<(), MemoryError>;
    /// Called after the tool wrote `words` words at `addr` behind the
    /// core's back. Cores with caches invalidate them there, or a fault
    /// would be masked by a stale cached copy; the default does nothing.
    fn invalidate(cpu: &mut Self::Cpu, addr: u32, words: u32) {
        let _ = (cpu, addr, words);
    }
    /// The framework event for a stop reason.
    fn event(stop: Self::Stop) -> RunEvent;
    /// Executes one instruction, adding the locations it read and wrote
    /// to `access` under the names fault locations use (`internal:<cell>`,
    /// `mem:<word>`).
    fn step_traced(cpu: &mut Self::Cpu, access: &mut StepAccess) -> Option<Self::Stop>;

    /// Rejoins a fault-free run (see [`TargetAccess::rejoin`]): if `live`
    /// would execute exactly as `checkpoint` does, turns it into the
    /// state it reaches by the end of that run, `end`, and returns `true`;
    /// otherwise returns `false` and leaves `live` unchanged.
    fn rejoin(live: &mut Self::Cpu, checkpoint: &Self::Cpu, end: &Self::Cpu) -> bool;

    /// Main memory.
    fn memory(cpu: &Self::Cpu) -> &Memory;
    /// Main memory, mutably.
    fn memory_mut(cpu: &mut Self::Cpu) -> &mut Memory;
    /// The debug-event unit breakpoints are armed in.
    fn debug_unit(cpu: &mut Self::Cpu) -> &mut DebugUnit;
    /// Warm reset: registers and counters, not memory.
    fn reset(cpu: &mut Self::Cpu);
    /// Runs until a stop reason or `max_instructions` retirements.
    fn run(cpu: &mut Self::Cpu, max_instructions: u64) -> Self::Stop;
    /// Executes one instruction.
    fn step(cpu: &mut Self::Cpu) -> Option<Self::Stop>;
    /// Drives input port `port`.
    fn set_in_port(cpu: &mut Self::Cpu, port: usize, value: u32);
    /// Samples output port `port`.
    fn out_port(cpu: &Self::Cpu, port: usize) -> u32;
    /// Instructions retired.
    fn instructions(cpu: &Self::Cpu) -> u64;
    /// Cycles elapsed.
    fn cycles(cpu: &Self::Cpu) -> u64;
    /// Workload iterations completed.
    fn iterations(cpu: &Self::Cpu) -> u64;
}

/// A CPU core behind a scan-chain test card: the [`TargetAccess`] port for
/// any [`CardCpu`].
///
/// The card (core, memory, TAP) lives behind an [`Arc`] so that snapshots
/// are copy-on-write: a capture is a reference-count bump, a restore
/// re-points the `Arc`, and the one deep copy is deferred to the first
/// mutation after a restore.
#[derive(Debug)]
pub struct CardTarget<P: CardCpu> {
    card: Arc<TestCard<P::Cpu>>,
    /// Construction config, kept so a power cycle can rebuild the core
    /// from scratch.
    config: P::Config,
    /// The last downloaded workload, reloaded after a power cycle.
    last_image: Option<WorkloadImage>,
}

impl<P: CardCpu> Default for CardTarget<P> {
    fn default() -> Self {
        Self::new(P::Config::default())
    }
}

impl<P: CardCpu> CardTarget<P> {
    /// Creates a target with the given core configuration.
    pub fn new(config: P::Config) -> Self {
        CardTarget {
            card: Arc::new(TestCard::new(P::build(config))),
            config,
            last_image: None,
        }
    }

    /// Read access to the wrapped core (for assertions in tests/benches).
    pub fn cpu(&self) -> &P::Cpu {
        self.card.target()
    }

    /// Mutable access to the wrapped core.
    pub fn cpu_mut(&mut self) -> &mut P::Cpu {
        self.card_mut().target_mut()
    }

    /// Mutable access to the card, copy-on-write: clones the shared state
    /// exactly once after a restore, then stays free until the next one.
    fn card_mut(&mut self) -> &mut TestCard<P::Cpu> {
        Arc::make_mut(&mut self.card)
    }

    /// Scan-traffic statistics (TCK cycles, bits shifted) — the cost model
    /// for the logging-overhead experiment.
    pub fn testcard_stats(&self) -> TestCardStats {
        self.card.stats()
    }

    fn event(&mut self, stop: P::Stop) -> RunEvent {
        let event = P::event(stop);
        if let RunEvent::Breakpoint { .. } = event {
            // Unlatch so execution can continue after injection.
            P::debug_unit(self.cpu_mut()).clear();
        }
        event
    }
}

fn mem_err(e: MemoryError) -> GoofiError {
    GoofiError::Target(format!("memory access failed: {e}"))
}

impl<P: CardCpu> TargetAccess for CardTarget<P> {
    fn target_name(&self) -> &str {
        P::NAME
    }

    fn init_test_card(&mut self) -> Result<()> {
        self.card_mut().init().map_err(GoofiError::Scan)
    }

    fn load_workload(&mut self, image: &WorkloadImage) -> Result<()> {
        P::load(self.cpu_mut(), image).map_err(mem_err)?;
        self.last_image = Some(image.clone());
        Ok(())
    }

    fn reset_target(&mut self) -> Result<()> {
        P::reset(self.cpu_mut());
        Ok(())
    }

    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        let cpu = self.cpu_mut();
        P::memory_mut(cpu).load_block(addr, data).map_err(mem_err)?;
        P::invalidate(cpu, addr, data.len() as u32);
        Ok(())
    }

    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        P::memory(self.cpu()).read_block(addr, len).map_err(mem_err)
    }

    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> Result<()> {
        let cpu = self.cpu_mut();
        P::memory_mut(cpu).flip_bit(addr, bit).map_err(mem_err)?;
        P::invalidate(cpu, addr, 1);
        Ok(())
    }

    fn memory_size(&self) -> u32 {
        P::memory(self.cpu()).len() as u32
    }

    fn set_breakpoint(&mut self, trigger: Trigger) -> Result<()> {
        let condition = trigger
            .to_debug_condition()
            .ok_or_else(|| GoofiError::Config("pre-runtime triggers need no breakpoint".into()))?;
        P::debug_unit(self.cpu_mut()).arm(condition);
        Ok(())
    }

    fn clear_breakpoints(&mut self) -> Result<()> {
        P::debug_unit(self.cpu_mut()).disarm_all();
        Ok(())
    }

    fn run_workload(&mut self, budget: RunBudget) -> Result<RunEvent> {
        let stop = P::run(self.cpu_mut(), budget.max_instructions);
        Ok(self.event(stop))
    }

    fn step_instruction(&mut self) -> Result<Option<RunEvent>> {
        let stop = P::step(self.cpu_mut());
        Ok(stop.map(|s| self.event(s)))
    }

    fn chain_layouts(&self) -> Vec<ChainLayout> {
        let cpu = self.cpu();
        cpu.chain_names()
            .iter()
            .filter_map(|name| cpu.chain_layout(name).cloned())
            .collect()
    }

    fn read_scan_chain(&mut self, chain: &str) -> Result<BitVec> {
        self.card_mut().read_chain(chain).map_err(GoofiError::Scan)
    }

    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> Result<()> {
        self.card_mut()
            .write_chain(chain, bits)
            .map(|_| ())
            .map_err(GoofiError::Scan)
    }

    fn write_input_ports(&mut self, inputs: &[u32]) -> Result<()> {
        for (port, value) in inputs.iter().enumerate().take(P::PORTS) {
            P::set_in_port(self.cpu_mut(), port, *value);
        }
        Ok(())
    }

    fn read_output_ports(&mut self) -> Result<Vec<u32>> {
        Ok((0..P::PORTS).map(|p| P::out_port(self.cpu(), p)).collect())
    }

    fn instructions_executed(&self) -> u64 {
        P::instructions(self.cpu())
    }

    fn cycles_executed(&self) -> u64 {
        P::cycles(self.cpu())
    }

    fn iterations_completed(&self) -> u64 {
        P::iterations(self.cpu())
    }

    fn step_traced(&mut self) -> Result<(Option<RunEvent>, StepAccess)> {
        let mut access = StepAccess::default();
        let stop = P::step_traced(self.cpu_mut(), &mut access);
        Ok((stop.map(|s| self.event(s)), access))
    }

    /// Real cold-reset semantics: the core (registers, caches, detection
    /// latches, debug unit) and the test card's TAP are rebuilt from
    /// scratch — state a warm [`reset_target`](TargetAccess::reset_target)
    /// cannot reach, such as a wedged detection latch, is wiped too — and
    /// the last workload image is downloaded again.
    fn power_cycle(&mut self) -> Result<()> {
        self.card = Arc::new(TestCard::new(P::build(self.config)));
        self.card_mut().init().map_err(GoofiError::Scan)?;
        if let Some(image) = self.last_image.clone() {
            self.load_workload(&image)?;
        }
        Ok(())
    }

    /// Native copy-on-write snapshot: the whole device — core registers,
    /// caches, memory, detection latches, debug-unit counters and the test
    /// card's TAP — is plain data behind an [`Arc`], so a capture is a
    /// reference-count bump and a restore re-points the `Arc`; the single
    /// deep copy is deferred to the first mutation afterwards. No scan
    /// traffic at all, which is the entire point: a restore replaces a
    /// workload download plus prefix re-execution.
    fn snapshot(&mut self) -> Result<TargetSnapshot> {
        Ok(TargetSnapshot::new(CardSnapshot::<P> {
            card: Arc::clone(&self.card),
            last_image: self.last_image.clone(),
        }))
    }

    /// Only a capture of the same core type restores.
    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        let snap = CardSnapshot::<P>::of(snapshot)?;
        self.card = Arc::clone(&snap.card);
        self.last_image = snap.last_image.clone();
        Ok(())
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    fn can_rejoin(&self) -> bool {
        true
    }

    /// The core compares and adopts ([`CardCpu::rejoin`]); the test
    /// card's TAP state and scan statistics stay the target's own, since
    /// the run being skipped does no scan traffic.
    fn rejoin(&mut self, checkpoint: &TargetSnapshot, end: &TargetSnapshot) -> Result<bool> {
        let (checkpoint, end) = (
            CardSnapshot::<P>::of(checkpoint)?,
            CardSnapshot::<P>::of(end)?,
        );
        Ok(P::rejoin(
            self.cpu_mut(),
            checkpoint.card.target(),
            end.card.target(),
        ))
    }

    fn memory_digest(&mut self, len: usize) -> Result<u64> {
        // The digest block size is chosen to match the CoW page size so a
        // page still shared with a snapshot never has to be re-hashed.
        const _: () = assert!(scanchain::PAGE_WORDS == logging::DIGEST_BLOCK_WORDS);
        let memory = P::memory(self.cpu());
        if len != memory.len() {
            return Ok(logging::digest_words(&self.read_memory(0, len)?));
        }
        let mut hash = logging::digest_seed(len);
        for index in 0..memory.page_count() {
            let digest = match memory.cached_page_digest(index) {
                Some(digest) => digest,
                None => {
                    let digest = logging::digest_block(memory.page_words(index));
                    memory.cache_page_digest(index, digest);
                    digest
                }
            };
            hash = logging::digest_fold(hash, digest);
        }
        Ok(hash)
    }
}

/// The opaque payload behind [`CardTarget::snapshot`].
struct CardSnapshot<P: CardCpu> {
    card: Arc<TestCard<P::Cpu>>,
    last_image: Option<WorkloadImage>,
}

impl<P: CardCpu> CardSnapshot<P> {
    /// The payload of `snapshot`, which only a capture of the same core
    /// type holds: the payload type is generic over `P`, so another
    /// core's snapshot fails the downcast.
    fn of(snapshot: &TargetSnapshot) -> Result<&Self> {
        snapshot
            .downcast_ref::<Self>()
            .ok_or_else(|| GoofiError::Target(format!("snapshot was not taken on {}", P::NAME)))
    }
}
