//! The skeleton every simulated CPU core shares.
//!
//! A core behind a [`TestCard`](crate::TestCard) has two halves. The ISA
//! half is the core's own: its name, registers, decode and execute, and
//! whatever else its instruction set has (caches, an EDM mask). It
//! implements [`Isa`]. The other half is the same for every core and is
//! written once here as [`Core`]:
//!
//! - the machine state: PC, main memory, the I/O port latches, the cycle,
//!   instruction and iteration counters, the debug unit, the detection and
//!   halt latches, and the watchdog budget;
//! - image download and the shared half of reset;
//! - the run loop: `run`, `step` and `step_logged` over the ISA's
//!   [`Isa::step_inner`], behind one fetch prologue (halt, then a latched
//!   detection, then the watchdog, then a fetch breakpoint). `run` checks
//!   the two latches once, on entry, and runs a quiet instantiation of the
//!   step when the debug unit is idle (see [`Core::run`]);
//! - the one [`AccessLog`] a logged step fills, in which every ISA names
//!   a register by its cell in the ISA's first chain;
//! - the shared half of rejoining a fault-free run;
//! - the boundary (pin) and debug scan chains, beside the ISA's own
//!   ([`IsaChains`]).
//!
//! `thor::Cpu` is `Core<thor::ThorIsa>` and `riscv::Cpu` is
//! `Core<riscv::Rv32iIsa>`. A core reads as its ISA half too (`Deref`), so
//! `cpu.reg(r)` reaches the ISA's own accessors.

use crate::{
    BitVec, BusEvent, CellAccess, ChainLayout, DebugEvent, DebugUnit, Memory, MemoryError,
    ScanError, ScanTarget,
};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

/// Number of I/O ports in each direction.
pub const PORT_COUNT: usize = 4;
/// Name of the boundary (pin) chain every core exposes.
pub const BOUNDARY_CHAIN: &str = "boundary";
/// Name of the debug-unit chain every core exposes.
pub const DEBUG_CHAIN: &str = "debug";

/// Why a core stopped executing; `D` is the core's detection type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason<D> {
    /// The program halted.
    Halted,
    /// An error detection mechanism fired.
    Detected(D),
    /// An armed debug condition fired (breakpoint reached).
    DebugEvent(DebugEvent),
    /// An iteration boundary, at which the tool exchanges data with the
    /// environment simulator.
    Sync {
        /// The tag the workload passed.
        tag: u16,
        /// Completed loop iterations so far.
        iteration: u64,
    },
    /// The watchdog cycle budget was exhausted (time-out termination).
    Timeout,
    /// The per-call instruction budget of [`Core::run`] was exhausted.
    InstrLimit,
}

/// An error a core's mechanisms detect.
pub trait Detection: Copy + Eq + fmt::Debug + Send + Sync {
    /// Stable mechanism name used in database logs and report tables.
    fn mechanism(&self) -> &'static str;
    /// Compact code for the scan-visible status register (never 0).
    fn encode(&self) -> u32;
}

/// The architectural reads and writes of one instruction, which
/// [`Core::step_logged`] records for the pre-injection (liveness) analysis.
///
/// A register or latch is logged as its cell's index in the layout of the
/// ISA's first chain ([`IsaChains::CHAINS`]), so the same record serves
/// every core and names its entries from that layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessLog {
    /// Program counter of the instruction, in the ISA's address unit.
    pub pc: u32,
    /// Cells read, by index.
    pub cell_reads: Vec<usize>,
    /// Cells written, by index.
    pub cell_writes: Vec<usize>,
    /// Memory words read.
    pub mem_reads: Vec<u32>,
    /// Memory words written.
    pub mem_writes: Vec<u32>,
}

impl AccessLog {
    /// Empties the record, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.pc = 0;
        self.cell_reads.clear();
        self.cell_writes.clear();
        self.mem_reads.clear();
        self.mem_writes.clear();
    }
}

/// The ISA half of a core: what [`Core`] cannot know.
pub trait Isa: Clone + fmt::Debug + Send + Sync + Sized + 'static {
    /// The target-system name campaigns store.
    const NAME: &'static str;
    /// What the core's mechanisms detect.
    type Detection: Detection;
    /// Construction-time configuration, kept so a power cycle can
    /// rebuild the core.
    type Config: Copy + Default + fmt::Debug + Send + Sync;
    /// A loadable program image.
    type Image;

    /// Builds a powered-up core (see [`Core::with_isa`]).
    fn build(config: Self::Config) -> Core<Self>;
    /// An image's words (placed at word 0), code-segment length in words
    /// and entry PC.
    fn image(image: &Self::Image) -> (&[u32], u32, u32);
    /// Resets the ISA half; the stack pointer restarts at `initial_sp`.
    fn reset(&mut self, initial_sp: u32);
    /// Executes the instruction at `cpu.pc` once the fetch prologue let it
    /// through; `LOG` fills `cpu.log` with its accesses, a register as its
    /// cell in the first of [`IsaChains::CHAINS`] ([`AccessLog`]). `WATCH`
    /// is false in a quiet run, where the debug unit is idle throughout:
    /// the step reports its bus events, cycles and latched debug event
    /// through [`Core::observe`], [`Core::on_cycles`] and
    /// [`Core::debug_stop`], which then compile to nothing, a plain add and
    /// `None`.
    fn step_inner<const LOG: bool, const WATCH: bool>(
        cpu: &mut Core<Self>,
    ) -> Option<StopReason<Self::Detection>>;
    /// Brings what the ISA half caches of its code up to date with memory.
    /// `run`, `step` and `step_logged` call it before their first
    /// instruction whenever the tool may have changed memory since the last
    /// call ([`Core::memory_mut`], [`Core::load_image`]), so it sees every
    /// tool-side change. The default caches nothing.
    fn sync_code(cpu: &mut Core<Self>) {
        let _ = cpu;
    }
    /// Called after the tool wrote `words` words at `addr` behind the
    /// core's back. A core with caches invalidates them there, or a fault
    /// would be masked by a stale cached copy; the default does nothing.
    fn invalidate(cpu: &mut Core<Self>, addr: u32, words: u32) {
        let _ = (cpu, addr, words);
    }
    /// The ISA half of [`Core::rejoin`]: whether `self` steers execution
    /// exactly as `checkpoint` does, given the run from `checkpoint`
    /// (retired instruction `since`) to `end`.
    fn rejoins(&self, checkpoint: &Self, end: &Self, since: u64) -> bool;
    /// Moves what `self`, adopted from the run's `end`, counts or keeps
    /// by `live`'s distance from `checkpoint`. The default moves nothing.
    fn rebase(&mut self, live: &Self, checkpoint: &Self, since: u64) {
        let _ = (live, checkpoint, since);
    }
    /// Whether the core's detection mask lets `d` latch; checked in debug
    /// builds. Cores without a mask keep the default.
    fn unmasked(&self, d: Self::Detection) -> bool {
        let _ = d;
        true
    }
}

/// The scan chains of an ISA half, beside the boundary and debug chains
/// every [`Core`] exposes.
pub trait IsaChains: Isa {
    /// The ISA's own chains in SCAN_N order; [`BOUNDARY_CHAIN`] and
    /// [`DEBUG_CHAIN`] follow them.
    const CHAINS: &'static [&'static str];

    /// The layout of one of [`IsaChains::CHAINS`].
    fn layout(&self, chain: &str) -> Option<&ChainLayout>;
    /// Captures one of [`IsaChains::CHAINS`].
    ///
    /// # Errors
    ///
    /// [`ScanError::UnknownChain`] for any other name.
    fn capture(cpu: &Core<Self>, chain: &str) -> Result<BitVec, ScanError>;
    /// Updates one of [`IsaChains::CHAINS`] from bits of the right length,
    /// ignoring read-only cells.
    ///
    /// # Errors
    ///
    /// Whatever unpacking the chain reports.
    fn update(cpu: &mut Core<Self>, chain: &str, bits: &BitVec) -> Result<(), ScanError>;
}

/// A simulated CPU core: the shared machine state around an ISA half.
///
/// The fields are public for the ISA's execute code; the tool reaches the
/// core through the methods.
#[derive(Debug, Clone)]
pub struct Core<I: Isa> {
    /// The ISA half.
    pub isa: I,
    /// Program counter, in the ISA's address unit.
    pub pc: u32,
    /// Main memory.
    pub mem: Memory,
    /// Input port latches (environment simulator -> target).
    pub in_ports: [u32; PORT_COUNT],
    /// Output port latches (target -> environment simulator).
    pub out_ports: [u32; PORT_COUNT],
    /// Cycles since reset.
    pub cycles: u64,
    /// Instructions retired since reset.
    pub instret: u64,
    /// Completed sync iterations since reset.
    pub iterations: u64,
    /// The debug-event unit.
    pub debug: DebugUnit,
    /// The latched detection.
    pub detection: Option<I::Detection>,
    /// The halt latch.
    pub halted: bool,
    /// The access record of the instruction [`Core::step_logged`] runs.
    pub log: AccessLog,
    /// Whether the tool may have changed memory since the last
    /// [`Isa::sync_code`]; the next run or step calls it first.
    memory_touched: bool,
    watchdog: Option<u64>,
    entry: u32,
    initial_sp: u32,
}

impl<I: Isa> Deref for Core<I> {
    type Target = I;

    fn deref(&self) -> &I {
        &self.isa
    }
}

impl<I: Isa> DerefMut for Core<I> {
    fn deref_mut(&mut self) -> &mut I {
        &mut self.isa
    }
}

impl<I: Isa> Core<I> {
    /// Creates a core with zeroed state.
    pub fn new(config: I::Config) -> Self {
        I::build(config)
    }

    /// A reset core around `isa`, with `mem_words` words of memory, a
    /// watchdog budget in cycles (`None` disables it) and the stack
    /// pointer reset restores.
    pub fn with_isa(isa: I, mem_words: usize, watchdog: Option<u64>, initial_sp: u32) -> Self {
        let mut core = Core {
            isa,
            pc: 0,
            mem: Memory::new(mem_words),
            in_ports: [0; PORT_COUNT],
            out_ports: [0; PORT_COUNT],
            cycles: 0,
            instret: 0,
            iterations: 0,
            debug: DebugUnit::new(),
            detection: None,
            halted: false,
            log: AccessLog::default(),
            memory_touched: true,
            watchdog,
            entry: 0,
            initial_sp,
        };
        core.reset();
        core
    }

    /// Downloads an image ([`Core::load_words`]).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] if the image does not fit.
    pub fn load_image(&mut self, image: &I::Image) -> Result<(), MemoryError> {
        let (words, code_words, entry) = I::image(image);
        self.load_words(words, code_words, entry)
    }

    /// Downloads a program: `words` at word 0, the protection boundary
    /// after its first `code_words`, the reset PC at `entry` (in the ISA's
    /// address unit), then resets the core.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] if the words do not fit.
    pub fn load_words(
        &mut self,
        words: &[u32],
        code_words: u32,
        entry: u32,
    ) -> Result<(), MemoryError> {
        self.mem.clear();
        self.mem.load_block(0, words)?;
        self.mem.set_code_segment(code_words);
        self.memory_touched = true;
        self.entry = entry;
        self.reset();
        Ok(())
    }

    /// Resets the core while leaving main memory intact. Equivalent to
    /// pulsing the reset pin.
    pub fn reset(&mut self) {
        self.isa.reset(self.initial_sp);
        self.pc = self.entry;
        // Both port latch directions reset, or an experiment would inherit
        // the previous run's last sensor values and follow a (slightly)
        // different trajectory than the reference run.
        self.in_ports = [0; PORT_COUNT];
        self.out_ports = [0; PORT_COUNT];
        self.cycles = 0;
        self.instret = 0;
        self.iterations = 0;
        self.debug.reset_counters();
        self.detection = None;
        self.halted = false;
    }

    /// Main memory (tool-side access).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable main memory (tool-side access, used by SWIFI).
    pub fn memory_mut(&mut self) -> &mut Memory {
        self.memory_touched = true;
        &mut self.mem
    }

    /// The debug-event unit.
    pub fn debug_unit(&self) -> &DebugUnit {
        &self.debug
    }

    /// Mutable debug-event unit (breakpoint programming).
    pub fn debug_unit_mut(&mut self) -> &mut DebugUnit {
        &mut self.debug
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Cycle count since reset.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired since reset.
    pub fn instructions(&self) -> u64 {
        self.instret
    }

    /// Completed sync iterations since reset.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Latched detection, if any.
    pub fn detection(&self) -> Option<I::Detection> {
        self.detection
    }

    /// Whether the core has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Drives an input port.
    ///
    /// # Panics
    ///
    /// Panics if `port >= PORT_COUNT`.
    pub fn set_in_port(&mut self, port: usize, value: u32) {
        self.in_ports[port] = value;
    }

    /// Reads an output port latch.
    ///
    /// # Panics
    ///
    /// Panics if `port >= PORT_COUNT`.
    pub fn out_port(&self, port: usize) -> u32 {
        self.out_ports[port]
    }

    /// Latches detection `d` and returns the stop it causes.
    #[inline]
    pub fn detect(&mut self, d: I::Detection) -> StopReason<I::Detection> {
        debug_assert!(self.isa.unmasked(d), "masked detection {d:?} latched");
        self.detection = Some(d);
        StopReason::Detected(d)
    }

    /// Rejoins a fault-free run: if `self` would execute exactly as
    /// `checkpoint` does, becomes the state it reaches by the end of that
    /// run and returns `true`; otherwise returns `false` and changes
    /// nothing. `end` must be a later state of the run through
    /// `checkpoint`, with no tool access in between.
    ///
    /// Everything that steers execution or reaches a scan chain must
    /// match: the PC, ports, iterations, the detection and halt latches,
    /// the debug unit's conditions and latch, all of memory, and what the
    /// ISA half compares ([`Isa::rejoins`]). Cycles and debug counters move
    /// by `self`'s distance from `checkpoint`, as does what the ISA half
    /// rebases ([`Isa::rebase`]). The rejoin is refused when the moved
    /// cycle count would reach the watchdog.
    pub fn rejoin(&mut self, checkpoint: &Self, end: &Self) -> bool {
        let since = checkpoint.instret;
        let same = self.instret == since
            && end.instret >= since
            && end.cycles >= checkpoint.cycles
            && self.pc == checkpoint.pc
            && (self.in_ports, self.out_ports) == (checkpoint.in_ports, checkpoint.out_ports)
            && (self.iterations, self.detection, self.halted)
                == (
                    checkpoint.iterations,
                    checkpoint.detection,
                    checkpoint.halted,
                )
            && (self.watchdog, self.entry, self.initial_sp)
                == (checkpoint.watchdog, checkpoint.entry, checkpoint.initial_sp)
            && self.debug.same_conditions(&checkpoint.debug)
            && self.isa.rejoins(&checkpoint.isa, &end.isa, since)
            && self.mem.same_contents(&checkpoint.mem);
        if !same {
            return false;
        }
        let cycles = self.cycles + (end.cycles - checkpoint.cycles);
        if self.watchdog.is_some_and(|budget| cycles >= budget) {
            return false;
        }
        let mut next = end.clone();
        next.cycles = cycles;
        next.debug.rebase(&self.debug, &checkpoint.debug);
        next.isa.rebase(&self.isa, &checkpoint.isa, since);
        *self = next;
        true
    }

    /// Runs until a stop condition, retiring at most `max_instructions`.
    ///
    /// The halt and detection latches are checked once, here: only a step
    /// that returns a stop sets either. A debug unit that is idle on entry
    /// (nothing armed, nothing latched) stays idle for the whole call,
    /// since only the tool arms conditions, so the steps then run as the
    /// quiet instantiation of [`Isa::step_inner`]. Every counter ends as
    /// single [`Core::step`]s leave it.
    pub fn run(&mut self, max_instructions: u64) -> StopReason<I::Detection> {
        if max_instructions == 0 {
            return StopReason::InstrLimit;
        }
        if let Some(stop) = self.latched() {
            return stop;
        }
        self.sync_code();
        if self.debug.idle() {
            self.run_steps::<false>(max_instructions)
        } else {
            self.run_steps::<true>(max_instructions)
        }
    }

    /// The run loop past the latches. Quiet (`WATCH` false), the loop
    /// tells the debug unit nothing per fetch and adds the fetches it
    /// counted once, on the way out.
    fn run_steps<const WATCH: bool>(&mut self, max_instructions: u64) -> StopReason<I::Detection> {
        let budget = self.watchdog_budget();
        let mut fetched = 0;
        let stop = loop {
            if fetched == max_instructions {
                break StopReason::InstrLimit;
            }
            if let Some(stop) = self.fetch::<WATCH>(budget) {
                break stop;
            }
            fetched += 1;
            if let Some(stop) = I::step_inner::<false, WATCH>(self) {
                break stop;
            }
        };
        if !WATCH {
            self.debug.count_fetches(fetched);
        }
        stop
    }

    /// Executes one instruction; `None` means execution continues.
    pub fn step(&mut self) -> Option<StopReason<I::Detection>> {
        self.step_one::<false>()
    }

    /// Executes one instruction and fills `log` with its architectural
    /// reads and writes (reference-trace collection for the pre-injection
    /// analysis).
    pub fn step_logged(&mut self, log: &mut AccessLog) -> Option<StopReason<I::Detection>> {
        self.log.clear();
        let stop = self.step_one::<true>();
        std::mem::swap(log, &mut self.log);
        stop
    }

    /// One watched instruction: the whole fetch prologue, then the ISA's
    /// step.
    #[inline(always)]
    fn step_one<const LOG: bool>(&mut self) -> Option<StopReason<I::Detection>> {
        if let Some(stop) = self.latched() {
            return Some(stop);
        }
        if let Some(stop) = self.fetch::<true>(self.watchdog_budget()) {
            return Some(stop);
        }
        self.sync_code();
        I::step_inner::<LOG, true>(self)
    }

    /// [`Isa::sync_code`], if the tool may have changed memory since the
    /// last call.
    #[inline(always)]
    fn sync_code(&mut self) {
        if self.memory_touched {
            self.memory_touched = false;
            I::sync_code(self);
        }
    }

    /// The stop a latched halt or detection causes before anything runs.
    #[inline(always)]
    fn latched(&self) -> Option<StopReason<I::Detection>> {
        if self.halted {
            return Some(StopReason::Halted);
        }
        self.detection.map(StopReason::Detected)
    }

    /// The cycle count at which the watchdog fires; a disabled watchdog's
    /// is never reached.
    #[inline(always)]
    fn watchdog_budget(&self) -> u64 {
        self.watchdog.unwrap_or(u64::MAX)
    }

    /// The fetch prologue past the latches: the watchdog, then (watched) a
    /// fetch breakpoint, checked before the instruction executes.
    #[inline(always)]
    fn fetch<const WATCH: bool>(&mut self, budget: u64) -> Option<StopReason<I::Detection>> {
        if self.cycles >= budget {
            return Some(StopReason::Timeout);
        }
        if WATCH {
            if let Some(ev) = self.debug.observe(BusEvent::Fetch { pc: self.pc }) {
                return Some(StopReason::DebugEvent(ev));
            }
        }
        None
    }

    /// Reports a data access, branch or call to the debug unit; a quiet
    /// run (`WATCH` false) reports nothing.
    #[inline(always)]
    pub fn observe<const WATCH: bool>(&mut self, event: BusEvent) {
        if WATCH {
            self.debug.observe(event);
        }
    }

    /// Adds `cycles` to the debug unit's cycle counter (CCOUNT); only a
    /// watched run matches cycle-count conditions.
    #[inline(always)]
    pub fn on_cycles<const WATCH: bool>(&mut self, cycles: u64) {
        if WATCH {
            self.debug.on_cycles(cycles);
        } else {
            self.debug.count_cycles(cycles);
        }
    }

    /// The stop for a debug event latched while an instruction executed;
    /// a quiet run latches none.
    #[inline(always)]
    pub fn debug_stop<const WATCH: bool>(&self) -> Option<StopReason<I::Detection>> {
        if WATCH {
            self.debug.pending().map(StopReason::DebugEvent)
        } else {
            None
        }
    }
}

/// The boundary chain: input ports (writable), then output ports and the
/// error and halt pins (observe-only).
fn boundary_layout() -> &'static ChainLayout {
    static LAYOUT: OnceLock<ChainLayout> = OnceLock::new();
    LAYOUT.get_or_init(|| {
        let mut b = ChainLayout::builder(BOUNDARY_CHAIN);
        for i in 0..PORT_COUNT {
            b = b.cell(format!("IN_PORT{i}"), 32, CellAccess::ReadWrite);
        }
        for i in 0..PORT_COUNT {
            b = b.cell(format!("OUT_PORT{i}"), 32, CellAccess::ReadOnly);
        }
        b.cell("ERROR_PIN", 1, CellAccess::ReadOnly)
            .cell("HALT_PIN", 1, CellAccess::ReadOnly)
            .build()
    })
}

fn debug_layout() -> &'static ChainLayout {
    static LAYOUT: OnceLock<ChainLayout> = OnceLock::new();
    LAYOUT.get_or_init(DebugUnit::chain_layout)
}

impl<I: IsaChains> ScanTarget for Core<I> {
    fn chain_names(&self) -> Vec<String> {
        let shared = [BOUNDARY_CHAIN, DEBUG_CHAIN];
        I::CHAINS
            .iter()
            .chain(&shared)
            .map(|s| s.to_string())
            .collect()
    }

    fn chain_layout(&self, chain: &str) -> Option<&ChainLayout> {
        match chain {
            BOUNDARY_CHAIN => Some(boundary_layout()),
            DEBUG_CHAIN => Some(debug_layout()),
            _ => self.isa.layout(chain),
        }
    }

    fn capture_chain(&self, chain: &str) -> Result<BitVec, ScanError> {
        match chain {
            BOUNDARY_CHAIN => {
                let ports = self.in_ports.iter().chain(&self.out_ports);
                let pins = [self.detection.is_some() as u64, self.halted as u64];
                boundary_layout().pack(ports.map(|&p| p as u64).chain(pins))
            }
            DEBUG_CHAIN => self.debug.capture(),
            _ => I::capture(self, chain),
        }
    }

    fn update_chain(&mut self, chain: &str, bits: &BitVec) -> Result<(), ScanError> {
        let layout = self
            .chain_layout(chain)
            .ok_or_else(|| ScanError::UnknownChain(chain.to_string()))?;
        if bits.len() != layout.total_bits() {
            return Err(ScanError::LengthMismatch {
                expected: layout.total_bits(),
                got: bits.len(),
            });
        }
        match chain {
            BOUNDARY_CHAIN => {
                // Output ports and pins are read-only.
                let cells = boundary_layout().unpack::<{ 2 * PORT_COUNT + 2 }>(bits)?;
                for (port, value) in self.in_ports.iter_mut().zip(cells) {
                    *port = value as u32;
                }
                Ok(())
            }
            DEBUG_CHAIN => self.debug.update(bits),
            _ => I::update(self, chain, bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DebugCondition;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Fault(u16);

    impl Detection for Fault {
        fn mechanism(&self) -> &'static str {
            "fault"
        }

        fn encode(&self) -> u32 {
            1 | u32::from(self.0) << 8
        }
    }

    /// A toy ISA: word 0 counts into `acc` (one cycle), 1 halts, any other
    /// word latches `Fault(word)`.
    #[derive(Debug, Clone, Default)]
    struct Toy {
        acc: u32,
        sp: u32,
        steps: u32,
    }

    impl Isa for Toy {
        const NAME: &'static str = "toy";
        type Detection = Fault;
        type Config = ();
        type Image = Vec<u32>;

        fn build((): ()) -> Core<Toy> {
            Core::with_isa(Toy::default(), 64, Some(100), 63)
        }

        fn image(image: &Vec<u32>) -> (&[u32], u32, u32) {
            (image, image.len() as u32, 0)
        }

        fn reset(&mut self, initial_sp: u32) {
            self.acc = 0;
            self.sp = initial_sp;
        }

        fn step_inner<const LOG: bool, const WATCH: bool>(
            cpu: &mut Core<Toy>,
        ) -> Option<StopReason<Fault>> {
            let word = cpu.mem.read(cpu.pc).unwrap_or(0);
            if LOG {
                cpu.log.mem_reads.push(cpu.pc);
            }
            cpu.isa.steps += 1;
            cpu.pc += 1;
            cpu.instret += 1;
            cpu.cycles += 1;
            match word {
                0 => {
                    cpu.isa.acc += 1;
                    None
                }
                1 => {
                    cpu.halted = true;
                    Some(StopReason::Halted)
                }
                w => Some(cpu.detect(Fault(w as u16))),
            }
        }

        fn rejoins(&self, checkpoint: &Toy, _end: &Toy, _since: u64) -> bool {
            self.acc == checkpoint.acc
        }
    }

    fn toy(words: &[u32]) -> Core<Toy> {
        let mut cpu = Core::<Toy>::new(());
        cpu.load_image(&words.to_vec()).unwrap();
        cpu
    }

    #[test]
    fn fetch_prologue_stops_halt_then_detection_then_watchdog_then_breakpoint() {
        let mut cpu = toy(&[0, 0, 1]);
        cpu.halted = true;
        cpu.detection = Some(Fault(3));
        cpu.cycles = 100;
        cpu.debug.arm(DebugCondition::PcEquals(0));
        assert_eq!(cpu.step(), Some(StopReason::Halted));
        cpu.halted = false;
        assert_eq!(cpu.step(), Some(StopReason::Detected(Fault(3))));
        cpu.detection = None;
        assert_eq!(cpu.step(), Some(StopReason::Timeout));
        cpu.cycles = 0;
        match cpu.step() {
            Some(StopReason::DebugEvent(ev)) => {
                assert_eq!(ev.condition, DebugCondition::PcEquals(0));
            }
            other => panic!("expected a fetch breakpoint, got {other:?}"),
        }
        // Every stop so far came before the ISA ran.
        assert_eq!((cpu.isa.steps, cpu.pc, cpu.instret), (0, 0, 0));
        cpu.debug.disarm_all();
        assert_eq!(cpu.run(10), StopReason::Halted);
        assert_eq!(cpu.isa.acc, 2);
    }

    #[test]
    fn a_quiet_run_counts_the_fetches_single_steps_count() {
        // Two counting words, then one whose own step latches a fault.
        let mut quiet = toy(&[0, 0, 7]);
        let mut watched = quiet.clone();
        assert_eq!(quiet.run(10), StopReason::Detected(Fault(7)));
        assert_eq!((watched.step(), watched.step()), (None, None));
        assert_eq!(watched.step(), Some(StopReason::Detected(Fault(7))));
        assert_eq!(quiet.debug.instruction_count(), 3);
        assert_eq!(watched.debug.instruction_count(), 3);
        // The latch stops the next run on entry, before any fetch.
        assert_eq!(quiet.run(10), StopReason::Detected(Fault(7)));
        assert_eq!(quiet.debug.instruction_count(), 3);

        // The budget and the watchdog stop before a fetch is counted.
        let mut quiet = toy(&[0; 8]);
        assert_eq!(quiet.run(5), StopReason::InstrLimit);
        assert_eq!(quiet.debug.instruction_count(), 5);
        assert_eq!(quiet.run(1_000), StopReason::Timeout);
        assert_eq!((quiet.cycles, quiet.debug.instruction_count()), (100, 100));
    }

    #[test]
    fn reset_clears_counters_latches_and_ports_but_not_memory() {
        let mut cpu = toy(&[0, 0, 1]);
        assert_eq!(cpu.run(10), StopReason::Halted);
        cpu.mem.write_raw(40, 0xFEED).unwrap();
        cpu.iterations = 4;
        cpu.detection = Some(Fault(7));
        cpu.in_ports = [1, 2, 3, 4];
        cpu.out_ports = [5, 6, 7, 8];
        cpu.isa.sp = 0;
        cpu.reset();
        assert_eq!(
            (cpu.pc, cpu.cycles, cpu.instret, cpu.iterations),
            (0, 0, 0, 0)
        );
        assert_eq!((cpu.detection, cpu.halted), (None, false));
        assert_eq!((cpu.in_ports, cpu.out_ports), ([0; 4], [0; 4]));
        assert_eq!(cpu.debug.instruction_count(), 0);
        assert_eq!((cpu.isa.acc, cpu.isa.sp), (0, 63));
        assert_eq!(cpu.mem.read_raw(40), Ok(0xFEED));
        assert_eq!(cpu.mem.read_raw(2), Ok(1));
    }

    #[test]
    fn rejoin_refuses_a_differing_counter_port_or_latch_and_changes_nothing() {
        let mut run = toy(&[0, 0, 0, 0, 0, 0, 1]);
        run.run(2);
        let checkpoint = run.clone();
        assert_eq!(run.run(100), StopReason::Halted);
        let end = run;

        let mut live = checkpoint.clone();
        live.cycles += 5;
        assert!(live.rejoin(&checkpoint, &end));
        assert_eq!(
            (live.pc, live.halted, live.isa.acc),
            (end.pc, true, end.isa.acc)
        );
        assert_eq!(live.cycles, end.cycles + 5);

        let refused: [fn(&mut Core<Toy>); 12] = [
            |cpu| cpu.instret += 1,
            |cpu| cpu.iterations += 1,
            |cpu| cpu.pc += 1,
            |cpu| cpu.in_ports[1] = 7,
            |cpu| cpu.out_ports[2] = 7,
            |cpu| cpu.detection = Some(Fault(9)),
            |cpu| cpu.halted = true,
            |cpu| cpu.debug.arm(DebugCondition::PcEquals(5)),
            |cpu| cpu.watchdog = None,
            |cpu| cpu.isa.acc += 1,
            |cpu| cpu.mem.write_raw(40, 1).unwrap(),
            |cpu| cpu.cycles = 100 - 3,
        ];
        for (i, change) in refused.into_iter().enumerate() {
            let mut live = checkpoint.clone();
            change(&mut live);
            let before = format!("{live:?}");
            assert!(!live.rejoin(&checkpoint, &end), "change {i}");
            assert_eq!(format!("{live:?}"), before, "change {i}");
        }
    }
}
