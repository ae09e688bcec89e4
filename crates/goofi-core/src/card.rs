//! The test-card port, written once for every CPU core.
//!
//! The paper's `Framework` template (§3, Figure 3) makes porting GOOFI a
//! matter of filling in the target-specific methods. For a simulated core
//! behind a scan-chain [`TestCard`], every [`TargetAccess`] building block
//! is the same whatever the ISA: scan accesses walk the card's TAP,
//! breakpoints arm the core's [`DebugUnit`](scanchain::DebugUnit), memory
//! is the shared paged [`Memory`](scanchain::Memory), and a snapshot is a
//! copy-on-write clone of the whole card. Every core is the shared
//! [`Core`] skeleton around its ISA half, so [`CardTarget`] drives run,
//! step, reset, ports, counters and rejoin through the skeleton, and maps
//! its stop reasons to [`RunEvent`]s in one place. The ISA half is the
//! whole port: `CardTarget<I>` takes its name from
//! [`Isa::NAME`](scanchain::Isa::NAME), invalidates its caches after
//! tool-side writes through [`Isa::invalidate`](scanchain::Isa::invalidate),
//! and names what a traced step touched from the layout of its first chain
//! ([`IsaChains::CHAINS`]).

use crate::campaign::WorkloadImage;
use crate::logging;
use crate::preinject::StepAccess;
use crate::trigger::Trigger;
use crate::{DetectionInfo, GoofiError, Result, RunBudget, RunEvent, TargetAccess, TargetSnapshot};
use scanchain::{
    AccessLog, BitVec, ChainLayout, Core, Detection as _, IsaChains, MemoryError, ScanTarget,
    StopReason, TestCard, TestCardStats, PORT_COUNT,
};
use std::sync::Arc;

/// A CPU core behind a scan-chain test card: the [`TargetAccess`] port for
/// any ISA half `I`.
///
/// The card (core, memory, TAP) lives behind an [`Arc`] so that snapshots
/// are copy-on-write: a capture is a reference-count bump, a restore
/// re-points the `Arc`, and the one deep copy is deferred to the first
/// mutation after a restore.
#[derive(Debug)]
pub struct CardTarget<I: IsaChains> {
    card: Arc<TestCard<Core<I>>>,
    /// Construction config, kept so a power cycle can rebuild the core
    /// from scratch.
    config: I::Config,
    /// The last downloaded workload, reloaded after a power cycle; shared
    /// with every snapshot taken since.
    last_image: Option<Arc<WorkloadImage>>,
}

impl<I: IsaChains> Default for CardTarget<I> {
    fn default() -> Self {
        Self::new(I::Config::default())
    }
}

impl<I: IsaChains> CardTarget<I> {
    /// Creates a target with the given core configuration.
    pub fn new(config: I::Config) -> Self {
        CardTarget {
            card: Arc::new(TestCard::new(Core::new(config))),
            config,
            last_image: None,
        }
    }

    /// Read access to the wrapped core (for assertions in tests/benches).
    pub fn cpu(&self) -> &Core<I> {
        self.card.target()
    }

    /// Mutable access to the wrapped core.
    pub fn cpu_mut(&mut self) -> &mut Core<I> {
        self.card_mut().target_mut()
    }

    /// Mutable access to the card, copy-on-write: clones the shared state
    /// exactly once after a restore, then stays free until the next one.
    fn card_mut(&mut self) -> &mut TestCard<Core<I>> {
        Arc::make_mut(&mut self.card)
    }

    /// Scan-traffic statistics (TCK cycles, bits shifted) — the cost model
    /// for the logging-overhead experiment.
    pub fn testcard_stats(&self) -> TestCardStats {
        self.card.stats()
    }

    /// The framework event for a stop reason, the one mapping for every
    /// core.
    fn event(&mut self, stop: StopReason<I::Detection>) -> RunEvent {
        match stop {
            StopReason::Halted => RunEvent::Halted,
            StopReason::Detected(d) => RunEvent::Detected(DetectionInfo {
                mechanism: d.mechanism().to_string(),
                code: d.encode(),
            }),
            StopReason::DebugEvent(ev) => {
                // Unlatch so execution can continue after injection.
                self.cpu_mut().debug_unit_mut().clear();
                RunEvent::Breakpoint {
                    at_instruction: ev.at_instruction,
                    at_cycle: ev.at_cycle,
                }
            }
            StopReason::Sync { iteration, .. } => RunEvent::IterationBoundary { iteration },
            StopReason::Timeout => RunEvent::Timeout,
            StopReason::InstrLimit => RunEvent::BudgetExhausted,
        }
    }

    /// Downloads `image` into the core: its words, code length and entry
    /// in the core's own units.
    fn load(&mut self, image: &WorkloadImage) -> Result<()> {
        self.cpu_mut()
            .load_words(&image.words, image.code_words, image.entry)
            .map_err(mem_err)
    }
}

fn mem_err(e: MemoryError) -> GoofiError {
    GoofiError::Target(format!("memory access failed: {e}"))
}

impl<I: IsaChains> TargetAccess for CardTarget<I> {
    fn target_name(&self) -> &str {
        I::NAME
    }

    fn init_test_card(&mut self) -> Result<()> {
        self.card_mut().init().map_err(GoofiError::Scan)
    }

    fn load_workload(&mut self, image: &WorkloadImage) -> Result<()> {
        self.load(image)?;
        self.last_image = Some(Arc::new(image.clone()));
        Ok(())
    }

    fn reset_target(&mut self) -> Result<()> {
        self.cpu_mut().reset();
        Ok(())
    }

    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        let cpu = self.cpu_mut();
        cpu.memory_mut().load_block(addr, data).map_err(mem_err)?;
        I::invalidate(cpu, addr, data.len() as u32);
        Ok(())
    }

    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        self.cpu().memory().read_block(addr, len).map_err(mem_err)
    }

    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> Result<()> {
        let cpu = self.cpu_mut();
        cpu.memory_mut().flip_bit(addr, bit).map_err(mem_err)?;
        I::invalidate(cpu, addr, 1);
        Ok(())
    }

    fn memory_size(&self) -> u32 {
        self.cpu().memory().len() as u32
    }

    fn set_breakpoint(&mut self, trigger: Trigger) -> Result<()> {
        let condition = trigger
            .to_debug_condition()
            .ok_or_else(|| GoofiError::Config("pre-runtime triggers need no breakpoint".into()))?;
        self.cpu_mut().debug_unit_mut().arm(condition);
        Ok(())
    }

    fn clear_breakpoints(&mut self) -> Result<()> {
        self.cpu_mut().debug_unit_mut().disarm_all();
        Ok(())
    }

    fn run_workload(&mut self, budget: RunBudget) -> Result<RunEvent> {
        let stop = self.cpu_mut().run(budget.max_instructions);
        Ok(self.event(stop))
    }

    fn step_instruction(&mut self) -> Result<Option<RunEvent>> {
        let stop = self.cpu_mut().step();
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
        for (port, value) in inputs.iter().enumerate().take(PORT_COUNT) {
            self.cpu_mut().set_in_port(port, *value);
        }
        Ok(())
    }

    fn read_output_ports(&mut self) -> Result<Vec<u32>> {
        Ok((0..PORT_COUNT).map(|p| self.cpu().out_port(p)).collect())
    }

    fn instructions_executed(&self) -> u64 {
        self.cpu().instructions()
    }

    fn cycles_executed(&self) -> u64 {
        self.cpu().cycles()
    }

    fn iterations_completed(&self) -> u64 {
        self.cpu().iterations()
    }

    /// Names each logged access as fault locations do: a cell of the
    /// ISA's first chain as `<chain>:<cell>`, a memory word as
    /// `mem:<word>`.
    fn step_traced(&mut self) -> Result<(Option<RunEvent>, StepAccess)> {
        let mut log = AccessLog::default();
        let stop = self.cpu_mut().step_logged(&mut log);
        let chain = I::CHAINS[0];
        let layout = self
            .cpu()
            .isa
            .layout(chain)
            .expect("the first chain has a layout");
        let names = |cells: &[usize], words: &[u32]| {
            let cells = cells
                .iter()
                .map(|&cell| format!("{chain}:{}", layout.cells()[cell].name));
            cells
                .chain(words.iter().map(|w| format!("mem:{w}")))
                .collect()
        };
        let access = StepAccess {
            reads: names(&log.cell_reads, &log.mem_reads),
            writes: names(&log.cell_writes, &log.mem_writes),
        };
        Ok((stop.map(|s| self.event(s)), access))
    }

    /// Real cold-reset semantics: the core (registers, caches, detection
    /// latches, debug unit) and the test card's TAP are rebuilt from
    /// scratch — state a warm [`reset_target`](TargetAccess::reset_target)
    /// cannot reach, such as a wedged detection latch, is wiped too — and
    /// the last workload image is downloaded again.
    fn power_cycle(&mut self) -> Result<()> {
        self.card = Arc::new(TestCard::new(Core::new(self.config)));
        self.card_mut().init().map_err(GoofiError::Scan)?;
        if let Some(image) = self.last_image.clone() {
            self.load(&image)?;
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
        Ok(TargetSnapshot::new(CardSnapshot::<I> {
            card: Arc::clone(&self.card),
            last_image: self.last_image.clone(),
        }))
    }

    /// Only a capture of the same core type restores.
    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        let snap = CardSnapshot::<I>::of(snapshot)?;
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

    /// The core compares and adopts ([`Core::rejoin`]); the test card's
    /// TAP state and scan statistics stay the target's own, since the run
    /// being skipped does no scan traffic.
    fn rejoin(&mut self, checkpoint: &TargetSnapshot, end: &TargetSnapshot) -> Result<bool> {
        let (checkpoint, end) = (
            CardSnapshot::<I>::of(checkpoint)?,
            CardSnapshot::<I>::of(end)?,
        );
        Ok(self
            .cpu_mut()
            .rejoin(checkpoint.card.target(), end.card.target()))
    }

    fn memory_digest(&mut self, len: usize) -> Result<u64> {
        // The digest block size is chosen to match the CoW page size so a
        // page still shared with a snapshot never has to be re-hashed.
        const _: () = assert!(scanchain::PAGE_WORDS == logging::DIGEST_BLOCK_WORDS);
        let memory = self.cpu().memory();
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
struct CardSnapshot<I: IsaChains> {
    card: Arc<TestCard<Core<I>>>,
    last_image: Option<Arc<WorkloadImage>>,
}

impl<I: IsaChains> CardSnapshot<I> {
    /// The payload of `snapshot`, which only a capture of the same core
    /// type holds: the payload type is generic over `I`, so another
    /// core's snapshot fails the downcast.
    fn of(snapshot: &TargetSnapshot) -> Result<&Self> {
        snapshot
            .downcast_ref::<Self>()
            .ok_or_else(|| GoofiError::Target(format!("snapshot was not taken on {}", I::NAME)))
    }
}
