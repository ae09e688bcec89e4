//! The CPU core: fetch/decode/execute, EDMs, ports, watchdog, debug unit.

use crate::asm::Image;
use crate::cache::{Cache, CacheConfig, Lookup};
use crate::edm::{Detection, EdmSet};
use crate::isa::{decode, DecodeError, Instr, Opcode, Reg};
use scanchain::{BusEvent, DebugEvent, DebugUnit, Memory, MemoryError};

/// Number of I/O ports in each direction.
pub const PORT_COUNT: usize = 4;

/// Construction-time CPU configuration.
#[derive(Debug, Clone, Copy)]
pub struct CpuConfig {
    /// Main memory size in words.
    pub mem_words: usize,
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// Data cache geometry.
    pub dcache: CacheConfig,
    /// Initially enabled error detection mechanisms.
    pub edm: EdmSet,
    /// Watchdog budget in cycles; `None` disables the watchdog.
    pub watchdog_cycles: Option<u64>,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            mem_words: scanchain::DEFAULT_MEMORY_WORDS,
            icache: CacheConfig::default(),
            dcache: CacheConfig::default(),
            edm: EdmSet::default(),
            watchdog_cycles: Some(2_000_000),
        }
    }
}

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed `halt`.
    Halted,
    /// An error detection mechanism fired.
    Detected(Detection),
    /// An armed debug condition fired (breakpoint reached).
    DebugEvent(DebugEvent),
    /// The workload executed `sync tag` — an iteration boundary at which
    /// the tool exchanges data with the environment simulator.
    Sync {
        /// The tag operand of the `sync` instruction.
        tag: u16,
        /// Completed loop iterations so far.
        iteration: u64,
    },
    /// The watchdog cycle budget was exhausted (time-out termination).
    Timeout,
    /// The per-call instruction budget of [`Cpu::run`] was exhausted.
    InstrLimit,
}

/// Condition-code flags.
const FLAG_Z: u8 = 1;
const FLAG_N: u8 = 2;
const FLAG_C: u8 = 4;
const FLAG_V: u8 = 8;

/// Record of the architectural reads/writes of one instruction, used by the
/// pre-injection (liveness) analysis of GOOFI's §4 extensions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessLog {
    /// Program counter of the instruction.
    pub pc: u32,
    /// Registers read.
    pub reg_reads: Vec<Reg>,
    /// Registers written.
    pub reg_writes: Vec<Reg>,
    /// Memory words read.
    pub mem_reads: Vec<u32>,
    /// Memory words written.
    pub mem_writes: Vec<u32>,
    /// Whether the instruction read the condition flags.
    pub flags_read: bool,
    /// Whether the instruction wrote the condition flags.
    pub flags_written: bool,
}

impl AccessLog {
    fn clear(&mut self) {
        self.pc = 0;
        self.reg_reads.clear();
        self.reg_writes.clear();
        self.mem_reads.clear();
        self.mem_writes.clear();
        self.flags_read = false;
        self.flags_written = false;
    }
}

/// Slots in the decoded-instruction cache.
const DECODE_SLOTS: usize = 64;

/// A direct-mapped cache of decoded instructions, indexed by the low bits
/// of the fetch address and keyed by the fetched word itself.
///
/// Decoding is a pure function of the word, so a slot whose stored word
/// equals the fetched word holds exactly what [`decode`] would return, and
/// nothing ever needs invalidating: a SWIFI code flip or a scan fault in
/// the instruction cache changes the fetched word and misses. Words that
/// fail to decode are never stored.
#[derive(Debug, Clone)]
struct DecodeCache {
    slots: [(u32, Instr); DECODE_SLOTS],
}

impl DecodeCache {
    fn new() -> Self {
        // Every slot starts as the valid pair (0, decode(0)).
        let nop = decode(0).expect("word 0 decodes");
        DecodeCache {
            slots: [(0, nop); DECODE_SLOTS],
        }
    }

    #[inline(always)]
    fn decode(&mut self, addr: u32, word: u32) -> Result<Instr, DecodeError> {
        let slot = &mut self.slots[addr as usize % DECODE_SLOTS];
        if slot.0 == word {
            return Ok(slot.1);
        }
        let instr = decode(word)?;
        *slot = (word, instr);
        Ok(instr)
    }
}

/// A snapshot of the CPU's scan-observable architectural state.
///
/// This is the `statevector` that GOOFI logs to the `LoggedSystemState`
/// table after the reference run and after every experiment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateVector {
    /// General-purpose registers.
    pub regs: [u32; Reg::COUNT],
    /// Program counter.
    pub pc: u32,
    /// Condition flags.
    pub flags: u8,
    /// Instruction register (last fetched word).
    pub ir: u32,
    /// Memory address register.
    pub mar: u32,
    /// Memory data register.
    pub mdr: u32,
    /// Output port latches.
    pub out_ports: [u32; PORT_COUNT],
    /// Completed workload iterations.
    pub iterations: u64,
    /// Latched detection status (encoded; 0 = none).
    pub detection: u32,
}

impl StateVector {
    /// Serialises the snapshot to words, for hashing and database storage.
    pub fn to_words(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(Reg::COUNT + PORT_COUNT + 8);
        v.extend_from_slice(&self.regs);
        v.push(self.pc);
        v.push(self.flags as u32);
        v.push(self.ir);
        v.push(self.mar);
        v.push(self.mdr);
        v.extend_from_slice(&self.out_ports);
        v.push(self.iterations as u32);
        v.push((self.iterations >> 32) as u32);
        v.push(self.detection);
        v
    }
}

/// The simulated processor.
///
/// See the crate docs for an end-to-end example. The scan-chain view of the
/// CPU lives in [`crate::scan`].
#[derive(Debug, Clone)]
pub struct Cpu {
    pub(crate) regs: [u32; Reg::COUNT],
    pub(crate) pc: u32,
    pub(crate) flags: u8,
    pub(crate) ir: u32,
    pub(crate) mar: u32,
    pub(crate) mdr: u32,
    pub(crate) edm: EdmSet,
    pub(crate) mem: Memory,
    pub(crate) icache: Cache,
    pub(crate) dcache: Cache,
    pub(crate) in_ports: [u32; PORT_COUNT],
    pub(crate) out_ports: [u32; PORT_COUNT],
    pub(crate) cycles: u64,
    pub(crate) instret: u64,
    pub(crate) iterations: u64,
    pub(crate) debug: DebugUnit,
    pub(crate) detection: Option<Detection>,
    pub(crate) halted: bool,
    watchdog: Option<u64>,
    entry: u32,
    initial_sp: u32,
    /// The configured EDM set, restored by [`Cpu::reset`] — without it an
    /// injected PSW bit flip would survive reset and contaminate every
    /// later experiment (and the golden run) of a campaign.
    config_edm: EdmSet,
    scratch_log: AccessLog,
    decoded: DecodeCache,
    pub(crate) chains: crate::scan::ChainSet,
}

impl Cpu {
    /// Creates a CPU with zeroed state.
    pub fn new(config: CpuConfig) -> Self {
        let initial_sp = config.mem_words as u32 - 1;
        let mut icache = Cache::new(config.icache);
        let mut dcache = Cache::new(config.dcache);
        icache.set_parity_enabled(config.edm.parity_i);
        dcache.set_parity_enabled(config.edm.parity_d);
        let chains = crate::scan::ChainSet::new(
            icache.line_count(),
            icache.tag_bits(),
            dcache.line_count(),
            dcache.tag_bits(),
        );
        let mut regs = [0; Reg::COUNT];
        regs[Reg::SP.index()] = initial_sp;
        Cpu {
            regs,
            pc: 0,
            flags: 0,
            ir: 0,
            mar: 0,
            mdr: 0,
            edm: config.edm,
            mem: Memory::new(config.mem_words),
            icache,
            dcache,
            in_ports: [0; PORT_COUNT],
            out_ports: [0; PORT_COUNT],
            cycles: 0,
            instret: 0,
            iterations: 0,
            debug: DebugUnit::new(),
            detection: None,
            halted: false,
            watchdog: config.watchdog_cycles,
            entry: 0,
            initial_sp,
            config_edm: config.edm,
            scratch_log: AccessLog::default(),
            decoded: DecodeCache::new(),
            chains,
        }
    }

    /// Downloads an assembled image: code at word 0, protection boundary at
    /// the image's code/data split, then resets the core.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] if the image does not fit.
    pub fn load_image(&mut self, image: &Image) -> Result<(), MemoryError> {
        self.mem.clear();
        self.mem.load_block(0, &image.words)?;
        self.mem.set_code_segment(image.code_words);
        self.entry = image.entry;
        self.reset();
        Ok(())
    }

    /// Resets the core (registers, caches, counters, detection latch, PSW
    /// error-detection mask) while leaving main memory intact. Equivalent
    /// to pulsing the reset pin.
    pub fn reset(&mut self) {
        self.regs = [0; Reg::COUNT];
        self.regs[Reg::SP.index()] = self.initial_sp;
        self.pc = self.entry;
        self.flags = 0;
        self.ir = 0;
        self.mar = 0;
        self.mdr = 0;
        // The PSW mask reverts to its configured value: a fault injected
        // into the PSW scan cell must not outlive its own experiment.
        self.edm = self.config_edm;
        self.icache.reset();
        self.dcache.reset();
        self.icache.set_parity_enabled(self.edm.parity_i);
        self.dcache.set_parity_enabled(self.edm.parity_d);
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

    /// The enabled error detection mechanisms.
    pub fn edm(&self) -> EdmSet {
        self.edm
    }

    /// Reconfigures the enabled EDMs (also reachable via the PSW scan cell).
    pub fn set_edm(&mut self, edm: EdmSet) {
        self.edm = edm;
        self.icache.set_parity_enabled(edm.parity_i);
        self.dcache.set_parity_enabled(edm.parity_d);
    }

    /// Main memory (tool-side access).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable main memory (tool-side access, used by SWIFI).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Invalidates any cached copy of `addr` in both caches. The test card
    /// calls this after tool-side memory writes so a SWIFI fault is not
    /// silently masked by a stale cache line.
    pub fn invalidate_cached(&mut self, addr: u32) {
        self.icache.invalidate(addr);
        self.dcache.invalidate(addr);
    }

    /// The debug-event unit.
    pub fn debug_unit(&self) -> &DebugUnit {
        &self.debug
    }

    /// Mutable debug-event unit (breakpoint programming).
    pub fn debug_unit_mut(&mut self) -> &mut DebugUnit {
        &mut self.debug
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (tool-side; scan writes use the chain interface).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index()] = value;
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter (tool-side).
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Cycle count since reset.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired since reset.
    pub fn instructions(&self) -> u64 {
        self.instret
    }

    /// Completed `sync` iterations since reset.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Latched detection, if any.
    pub fn detection(&self) -> Option<Detection> {
        self.detection
    }

    /// Whether the core has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Drives an input port (environment simulator -> target).
    ///
    /// # Panics
    ///
    /// Panics if `port >= PORT_COUNT`.
    pub fn set_in_port(&mut self, port: usize, value: u32) {
        self.in_ports[port] = value;
    }

    /// Reads an output port latch (target -> environment simulator).
    ///
    /// # Panics
    ///
    /// Panics if `port >= PORT_COUNT`.
    pub fn out_port(&self, port: usize) -> u32 {
        self.out_ports[port]
    }

    /// Instruction-cache statistics.
    pub fn icache_stats(&self) -> crate::cache::CacheStats {
        self.icache.stats()
    }

    /// Data-cache statistics.
    pub fn dcache_stats(&self) -> crate::cache::CacheStats {
        self.dcache.stats()
    }

    /// Snapshot of the scan-observable state.
    pub fn state_vector(&self) -> StateVector {
        StateVector {
            regs: self.regs,
            pc: self.pc,
            flags: self.flags,
            ir: self.ir,
            mar: self.mar,
            mdr: self.mdr,
            out_ports: self.out_ports,
            iterations: self.iterations,
            detection: self.detection.map_or(0, |d| d.encode()),
        }
    }

    /// Rejoins a fault-free run: if `self` would execute exactly as
    /// `checkpoint` does, becomes the state it reaches by the end of that
    /// run and returns `true`; otherwise returns `false` and changes
    /// nothing. `end` must be a later state of the run through
    /// `checkpoint`, with no tool access in between.
    ///
    /// Everything that steers execution or reaches a scan chain must
    /// match: registers, PC, flags, IR/MAR/MDR, PSW, ports, iterations,
    /// the detection and halt latches, the debug unit's conditions and
    /// latch, all of memory, and every cache line the run looks up or
    /// fills after `checkpoint`. Lines it never uses again keep `self`'s
    /// contents; cycles, debug counters and cache statistics move by
    /// `self`'s distance from `checkpoint`. The rejoin is refused when the
    /// moved cycle count would reach the watchdog.
    pub fn rejoin(&mut self, checkpoint: &Cpu, end: &Cpu) -> bool {
        let since = checkpoint.instret;
        let same = self.instret == since
            && end.instret >= since
            && end.cycles >= checkpoint.cycles
            && (self.pc, self.regs, self.flags)
                == (checkpoint.pc, checkpoint.regs, checkpoint.flags)
            && (self.ir, self.mar, self.mdr) == (checkpoint.ir, checkpoint.mar, checkpoint.mdr)
            && (self.edm, self.in_ports, self.out_ports)
                == (checkpoint.edm, checkpoint.in_ports, checkpoint.out_ports)
            && (self.iterations, self.detection, self.halted)
                == (
                    checkpoint.iterations,
                    checkpoint.detection,
                    checkpoint.halted,
                )
            && (self.watchdog, self.entry, self.initial_sp, self.config_edm)
                == (
                    checkpoint.watchdog,
                    checkpoint.entry,
                    checkpoint.initial_sp,
                    checkpoint.config_edm,
                )
            && self.debug.same_conditions(&checkpoint.debug)
            && self
                .icache
                .matches_where_used(&checkpoint.icache, &end.icache, since)
            && self
                .dcache
                .matches_where_used(&checkpoint.dcache, &end.dcache, since)
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
        next.icache.rebase(&self.icache, &checkpoint.icache, since);
        next.dcache.rebase(&self.dcache, &checkpoint.dcache, since);
        *self = next;
        true
    }

    /// Runs until a stop condition, retiring at most `max_instructions`.
    pub fn run(&mut self, max_instructions: u64) -> StopReason {
        for _ in 0..max_instructions {
            if let Some(stop) = self.step_inner::<false>() {
                return stop;
            }
        }
        StopReason::InstrLimit
    }

    /// Executes one instruction; `None` means execution continues.
    pub fn step(&mut self) -> Option<StopReason> {
        self.step_inner::<false>()
    }

    /// Executes one instruction and fills `log` with its architectural
    /// reads and writes (reference-trace collection for the pre-injection
    /// analysis).
    pub fn step_logged(&mut self, log: &mut AccessLog) -> Option<StopReason> {
        self.scratch_log.clear();
        let r = self.step_inner::<true>();
        std::mem::swap(log, &mut self.scratch_log);
        r
    }

    /// One instruction; `LOG` fills `scratch_log` with its accesses.
    #[inline(always)]
    fn step_inner<const LOG: bool>(&mut self) -> Option<StopReason> {
        if self.halted {
            return Some(StopReason::Halted);
        }
        if let Some(d) = self.detection {
            return Some(StopReason::Detected(d));
        }
        if let Some(budget) = self.watchdog {
            if self.cycles >= budget {
                return Some(StopReason::Timeout);
            }
        }
        // Breakpoint check on fetch, before the instruction executes.
        if let Some(ev) = self.debug.observe(BusEvent::Fetch { pc: self.pc }) {
            return Some(StopReason::DebugEvent(ev));
        }
        if LOG {
            self.scratch_log.pc = self.pc;
        }

        // Control-flow check of the fetch address itself.
        if self.pc >= self.mem.code_segment() && self.edm.control_flow {
            return Some(self.detect(Detection::ControlFlow));
        }

        // Fetch through the instruction cache.
        let word = match self.icache.lookup(self.pc, self.instret) {
            Lookup::Hit(w) => {
                self.cycles += 1;
                w
            }
            Lookup::Miss => match self.mem.read(self.pc) {
                Ok(w) => {
                    self.icache.fill(self.pc, w, self.instret);
                    self.cycles += 4;
                    w
                }
                Err(_) => {
                    if self.edm.access_violation {
                        return Some(self.detect(Detection::AccessViolation));
                    }
                    self.cycles += 4;
                    0 // reads beyond memory float to zero (NOP)
                }
            },
            Lookup::ParityError => return Some(self.detect(Detection::ParityI)),
        };
        self.ir = word;
        self.mar = self.pc;

        // Decode.
        let instr = match self.decoded.decode(self.pc, word) {
            Ok(i) => i,
            Err(_) => {
                if self.edm.illegal_opcode {
                    return Some(self.detect(Detection::IllegalOpcode));
                }
                // Detection disabled: the word executes as a NOP.
                self.pc = self.pc.wrapping_add(1);
                self.instret += 1;
                self.cycles += 1;
                self.debug.on_cycles(1);
                return self.post_instruction_stop();
            }
        };

        // Execute.
        let stop = self.execute::<LOG>(instr);
        self.instret += 1;
        if stop.is_some() {
            return stop;
        }
        self.post_instruction_stop()
    }

    /// After an instruction completes, surface any debug event latched by a
    /// data-access/branch/call/cycle trigger during execution.
    fn post_instruction_stop(&mut self) -> Option<StopReason> {
        self.debug.pending().map(StopReason::DebugEvent)
    }

    fn detect(&mut self, d: Detection) -> StopReason {
        debug_assert!(self.edm.allows(d), "masked detection {d:?} latched");
        self.detection = Some(d);
        StopReason::Detected(d)
    }

    fn set_zn(&mut self, value: u32) {
        self.flags &= !(FLAG_Z | FLAG_N);
        if value == 0 {
            self.flags |= FLAG_Z;
        }
        if (value as i32) < 0 {
            self.flags |= FLAG_N;
        }
    }

    fn set_arith_flags(&mut self, a: u32, b: u32, result: u32, carry: bool) {
        self.set_zn(result);
        self.flags &= !(FLAG_C | FLAG_V);
        if carry {
            self.flags |= FLAG_C;
        }
        // Signed overflow of a - b or a + b is summarised by the caller via
        // `carry`; V is computed from operand signs here for a + b form.
        let v = ((a ^ result) & (b ^ result)) >> 31 == 1;
        if v {
            self.flags |= FLAG_V;
        }
    }

    #[inline(always)]
    fn log_reg_read<const LOG: bool>(&mut self, r: Reg) -> u32 {
        if LOG {
            self.scratch_log.reg_reads.push(r);
        }
        self.regs[r.index()]
    }

    #[inline(always)]
    fn log_reg_write<const LOG: bool>(&mut self, r: Reg, v: u32) {
        if LOG {
            self.scratch_log.reg_writes.push(r);
        }
        self.regs[r.index()] = v;
    }

    /// Data read through the D-cache. Returns `Err(stop)` on detection.
    #[inline(always)]
    fn data_read<const LOG: bool>(&mut self, addr: u32) -> Result<u32, StopReason> {
        self.mar = addr;
        if LOG {
            self.scratch_log.mem_reads.push(addr);
        }
        let value = match self.dcache.lookup(addr, self.instret) {
            Lookup::Hit(v) => {
                self.cycles += 1;
                v
            }
            Lookup::Miss => match self.mem.read(addr) {
                Ok(v) => {
                    self.dcache.fill(addr, v, self.instret);
                    self.cycles += 4;
                    v
                }
                Err(MemoryError::OutOfRange { .. }) => {
                    if self.edm.access_violation {
                        return Err(self.detect(Detection::AccessViolation));
                    }
                    self.cycles += 4;
                    0
                }
                Err(MemoryError::WriteProtected { .. }) => {
                    unreachable!("read cannot hit protection")
                }
            },
            Lookup::ParityError => return Err(self.detect(Detection::ParityD)),
        };
        self.mdr = value;
        self.debug.observe(BusEvent::DataRead { addr });
        Ok(value)
    }

    /// Data write, write-through with allocate. Returns `Err(stop)` on
    /// detection.
    #[inline(always)]
    fn data_write<const LOG: bool>(&mut self, addr: u32, value: u32) -> Result<(), StopReason> {
        self.mar = addr;
        self.mdr = value;
        if LOG {
            self.scratch_log.mem_writes.push(addr);
        }
        match self.mem.write(addr, value) {
            Ok(()) => {
                self.dcache.fill(addr, value, self.instret);
                self.cycles += 2;
                self.debug.observe(BusEvent::DataWrite { addr });
                Ok(())
            }
            Err(_) => {
                if self.edm.access_violation {
                    Err(self.detect(Detection::AccessViolation))
                } else {
                    // Detection disabled: the store is silently dropped.
                    self.cycles += 2;
                    Ok(())
                }
            }
        }
    }

    /// Transfers control to `target` (branch/call/return). Returns
    /// `Err(stop)` when control-flow checking rejects the target.
    #[inline(always)]
    fn jump(&mut self, target: u32, is_call: bool) -> Result<(), StopReason> {
        if self.edm.control_flow && target >= self.mem.code_segment() {
            return Err(self.detect(Detection::ControlFlow));
        }
        self.pc = target;
        self.cycles += 1;
        let ev = if is_call {
            BusEvent::Call { target }
        } else {
            BusEvent::Branch { target }
        };
        self.debug.observe(ev);
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    fn execute<const LOG: bool>(&mut self, instr: Instr) -> Option<StopReason> {
        use Opcode::*;
        let next_pc = self.pc.wrapping_add(1);
        let mut pc_set = false;
        let mut cost = 1u64;

        macro_rules! stop_on {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(stop) => {
                        self.debug.on_cycles(cost);
                        return Some(stop);
                    }
                }
            };
        }

        match instr {
            Instr::R { op, rd, rs1, rs2 } => {
                let a = self.log_reg_read::<LOG>(rs1);
                let b = self.log_reg_read::<LOG>(rs2);
                match op {
                    Nop => {}
                    Halt => {
                        self.halted = true;
                        self.cycles += cost;
                        self.debug.on_cycles(cost);
                        return Some(StopReason::Halted);
                    }
                    Add => {
                        let (r, c) = a.overflowing_add(b);
                        if self.edm.overflow && (a as i32).checked_add(b as i32).is_none() {
                            return Some(self.detect(Detection::Overflow));
                        }
                        self.set_arith_flags(a, b, r, c);
                        if LOG {
                            self.scratch_log.flags_written = true;
                        }
                        self.log_reg_write::<LOG>(rd, r);
                    }
                    Sub | Cmp => {
                        let (r, borrow) = a.overflowing_sub(b);
                        if op == Sub
                            && self.edm.overflow
                            && (a as i32).checked_sub(b as i32).is_none()
                        {
                            return Some(self.detect(Detection::Overflow));
                        }
                        self.set_arith_flags(a, !b, r, !borrow);
                        if LOG {
                            self.scratch_log.flags_written = true;
                        }
                        if op == Sub {
                            self.log_reg_write::<LOG>(rd, r);
                        }
                    }
                    Mul => {
                        cost += 3;
                        if self.edm.overflow && (a as i32).checked_mul(b as i32).is_none() {
                            return Some(self.detect(Detection::Overflow));
                        }
                        let r = a.wrapping_mul(b);
                        self.set_zn(r);
                        if LOG {
                            self.scratch_log.flags_written = true;
                        }
                        self.log_reg_write::<LOG>(rd, r);
                    }
                    Div => {
                        cost += 10;
                        if b == 0 {
                            return Some(self.detect(Detection::DivideByZero));
                        }
                        let r = ((a as i32).wrapping_div(b as i32)) as u32;
                        self.set_zn(r);
                        if LOG {
                            self.scratch_log.flags_written = true;
                        }
                        self.log_reg_write::<LOG>(rd, r);
                    }
                    And | Or | Xor | Shl | Shr | Asr => {
                        let r = match op {
                            And => a & b,
                            Or => a | b,
                            Xor => a ^ b,
                            Shl => a.wrapping_shl(b & 31),
                            Shr => a.wrapping_shr(b & 31),
                            Asr => ((a as i32).wrapping_shr(b & 31)) as u32,
                            _ => unreachable!(),
                        };
                        self.set_zn(r);
                        if LOG {
                            self.scratch_log.flags_written = true;
                        }
                        self.log_reg_write::<LOG>(rd, r);
                    }
                    Mov => {
                        self.log_reg_write::<LOG>(rd, a);
                    }
                    Ldx => {
                        let addr = a.wrapping_add(b);
                        let v = stop_on!(self.data_read::<LOG>(addr));
                        self.log_reg_write::<LOG>(rd, v);
                        cost += 1;
                    }
                    Stx => {
                        let addr = a.wrapping_add(b);
                        let v = self.log_reg_read::<LOG>(rd);
                        stop_on!(self.data_write::<LOG>(addr, v));
                        cost += 1;
                    }
                    Push => {
                        let sp = self.log_reg_read::<LOG>(Reg::SP).wrapping_sub(1);
                        self.log_reg_write::<LOG>(Reg::SP, sp);
                        stop_on!(self.data_write::<LOG>(sp, a));
                        cost += 1;
                    }
                    Pop => {
                        let sp = self.log_reg_read::<LOG>(Reg::SP);
                        let v = stop_on!(self.data_read::<LOG>(sp));
                        self.log_reg_write::<LOG>(rd, v);
                        self.log_reg_write::<LOG>(Reg::SP, sp.wrapping_add(1));
                        cost += 1;
                    }
                    Ret => {
                        let target = self.log_reg_read::<LOG>(Reg::LR);
                        stop_on!(self.jump(target, false));
                        pc_set = true;
                    }
                    Jr => {
                        stop_on!(self.jump(a, false));
                        pc_set = true;
                    }
                    _ => unreachable!("imm opcode in R form"),
                }
            }
            Instr::I { op, rd, rs1, imm } => {
                let simm = imm as i32 as u32;
                let zimm = imm as u16 as u32;
                match op {
                    Addi | Subi | Muli | Cmpi => {
                        let a = self.log_reg_read::<LOG>(rs1);
                        match op {
                            Addi => {
                                let (r, c) = a.overflowing_add(simm);
                                if self.edm.overflow && (a as i32).checked_add(imm as i32).is_none()
                                {
                                    return Some(self.detect(Detection::Overflow));
                                }
                                self.set_arith_flags(a, simm, r, c);
                                self.log_reg_write::<LOG>(rd, r);
                            }
                            Subi | Cmpi => {
                                let (r, borrow) = a.overflowing_sub(simm);
                                if op == Subi
                                    && self.edm.overflow
                                    && (a as i32).checked_sub(imm as i32).is_none()
                                {
                                    return Some(self.detect(Detection::Overflow));
                                }
                                self.set_arith_flags(a, !simm, r, !borrow);
                                if op == Subi {
                                    self.log_reg_write::<LOG>(rd, r);
                                }
                            }
                            Muli => {
                                cost += 3;
                                if self.edm.overflow && (a as i32).checked_mul(imm as i32).is_none()
                                {
                                    return Some(self.detect(Detection::Overflow));
                                }
                                let r = a.wrapping_mul(simm);
                                self.set_zn(r);
                                self.log_reg_write::<LOG>(rd, r);
                            }
                            _ => unreachable!(),
                        }
                        if LOG {
                            self.scratch_log.flags_written = true;
                        }
                    }
                    Andi | Ori | Xori | Shli | Shri => {
                        let a = self.log_reg_read::<LOG>(rs1);
                        let r = match op {
                            Andi => a & zimm,
                            Ori => a | zimm,
                            Xori => a ^ zimm,
                            Shli => a.wrapping_shl(zimm & 31),
                            Shri => a.wrapping_shr(zimm & 31),
                            _ => unreachable!(),
                        };
                        self.set_zn(r);
                        if LOG {
                            self.scratch_log.flags_written = true;
                        }
                        self.log_reg_write::<LOG>(rd, r);
                    }
                    Ldi => {
                        self.log_reg_write::<LOG>(rd, simm);
                    }
                    Lui => {
                        self.log_reg_write::<LOG>(rd, zimm << 16);
                    }
                    Ld => {
                        let base = self.log_reg_read::<LOG>(rs1);
                        let addr = base.wrapping_add(simm);
                        let v = stop_on!(self.data_read::<LOG>(addr));
                        self.log_reg_write::<LOG>(rd, v);
                        cost += 1;
                    }
                    St => {
                        let base = self.log_reg_read::<LOG>(rs1);
                        let addr = base.wrapping_add(simm);
                        let v = self.log_reg_read::<LOG>(rd);
                        stop_on!(self.data_write::<LOG>(addr, v));
                        cost += 1;
                    }
                    Br | Beq | Bne | Blt | Bge | Bgt | Ble => {
                        let z = self.flags & FLAG_Z != 0;
                        let n = self.flags & FLAG_N != 0;
                        let v = self.flags & FLAG_V != 0;
                        let taken = match op {
                            Br => true,
                            Beq => z,
                            Bne => !z,
                            Blt => n != v,
                            Bge => n == v,
                            Bgt => !z && n == v,
                            Ble => z || n != v,
                            _ => unreachable!(),
                        };
                        if LOG && op != Br {
                            self.scratch_log.flags_read = true;
                        }
                        if taken {
                            let target = self.pc.wrapping_add(simm);
                            stop_on!(self.jump(target, false));
                            pc_set = true;
                        }
                    }
                    Call => {
                        self.log_reg_write::<LOG>(Reg::LR, next_pc);
                        stop_on!(self.jump(zimm, true));
                        pc_set = true;
                    }
                    In => {
                        let v = self.in_ports[(zimm as usize) % PORT_COUNT];
                        self.log_reg_write::<LOG>(rd, v);
                    }
                    Out => {
                        let v = self.log_reg_read::<LOG>(rs1);
                        self.out_ports[(zimm as usize) % PORT_COUNT] = v;
                    }
                    Sync => {
                        self.iterations += 1;
                        self.pc = next_pc;
                        self.cycles += cost;
                        self.debug.on_cycles(cost);
                        return Some(StopReason::Sync {
                            tag: imm as u16,
                            iteration: self.iterations,
                        });
                    }
                    Trap => {
                        return Some(self.detect(Detection::Assertion(imm as u16)));
                    }
                    _ => unreachable!("register opcode in I form"),
                }
            }
        }

        if !pc_set {
            self.pc = next_pc;
        }
        self.cycles += cost;
        self.debug.on_cycles(cost);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_asm(src: &str) -> (Cpu, StopReason) {
        let image = assemble(src).expect("assembly");
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        let stop = cpu.run(1_000_000);
        (cpu, stop)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (cpu, stop) = run_asm(
            r"
            ldi r1, 6
            ldi r2, 7
            mul r3, r1, r2
            halt
        ",
        );
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(3)), 42);
        assert_eq!(cpu.instructions(), 4);
    }

    #[test]
    fn loop_with_branches() {
        // Sum 1..=10 into r2.
        let (cpu, stop) = run_asm(
            r"
            ldi r1, 10
            ldi r2, 0
        loop:
            add r2, r2, r1
            subi r1, r1, 1
            cmpi r1, 0
            bgt loop
            halt
        ",
        );
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(2)), 55);
    }

    #[test]
    fn memory_load_store() {
        let (cpu, stop) = run_asm(
            r"
            ldi r1, 123
            st  r0, r1, 200
            ld  r2, r0, 200
            halt
        ",
        );
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(2)), 123);
        assert_eq!(cpu.memory().read_raw(200).unwrap(), 123);
    }

    #[test]
    fn call_and_ret() {
        let (cpu, stop) = run_asm(
            r"
            ldi r1, 5
            call double
            halt
        double:
            add r1, r1, r1
            ret
        ",
        );
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(1)), 10);
    }

    #[test]
    fn push_pop_stack() {
        let (cpu, stop) = run_asm(
            r"
            ldi r1, 11
            ldi r2, 22
            push r1
            push r2
            pop r3
            pop r4
            halt
        ",
        );
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(3)), 22);
        assert_eq!(cpu.reg(Reg::new(4)), 11);
    }

    #[test]
    fn io_ports_roundtrip() {
        let image = assemble(
            r"
            in  r1, 0
            addi r1, r1, 1
            out 2, r1
            halt
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        cpu.set_in_port(0, 41);
        assert_eq!(cpu.run(100), StopReason::Halted);
        assert_eq!(cpu.out_port(2), 42);
    }

    #[test]
    fn sync_reports_iterations() {
        let image = assemble(
            r"
        loop:
            sync 7
            br loop
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        assert_eq!(
            cpu.run(100),
            StopReason::Sync {
                tag: 7,
                iteration: 1
            }
        );
        assert_eq!(
            cpu.run(100),
            StopReason::Sync {
                tag: 7,
                iteration: 2
            }
        );
        assert_eq!(cpu.iterations(), 2);
    }

    #[test]
    fn trap_raises_assertion() {
        let (_, stop) = run_asm("trap 9");
        assert_eq!(stop, StopReason::Detected(Detection::Assertion(9)));
    }

    #[test]
    fn divide_by_zero_detected() {
        let (_, stop) = run_asm(
            r"
            ldi r1, 4
            ldi r2, 0
            div r3, r1, r2
            halt
        ",
        );
        assert_eq!(stop, StopReason::Detected(Detection::DivideByZero));
    }

    #[test]
    fn overflow_detected_and_maskable() {
        let src = r"
            lui r1, 0x7FFF
            ori r1, r1, 0xFFFF
            addi r1, r1, 1
            halt
        ";
        let (_, stop) = run_asm(src);
        assert_eq!(stop, StopReason::Detected(Detection::Overflow));

        let image = assemble(src).unwrap();
        let mut cfg = CpuConfig::default();
        cfg.edm.overflow = false;
        let mut cpu = Cpu::new(cfg);
        cpu.load_image(&image).unwrap();
        assert_eq!(cpu.run(100), StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(1)), 0x8000_0000);
    }

    #[test]
    fn store_to_code_is_access_violation() {
        let (_, stop) = run_asm(
            r"
            ldi r1, 1
            st  r0, r1, 0
            halt
        ",
        );
        assert_eq!(stop, StopReason::Detected(Detection::AccessViolation));
    }

    #[test]
    fn wild_jump_is_control_flow_error() {
        let (_, stop) = run_asm(
            r"
            ldi r1, 30000
            jr r1
            halt
        ",
        );
        assert_eq!(stop, StopReason::Detected(Detection::ControlFlow));
    }

    #[test]
    fn illegal_opcode_detected() {
        let image = assemble("halt").unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        // Overwrite the halt with an unassigned opcode; widen the code
        // segment so control-flow checking does not fire first.
        cpu.memory_mut().write_raw(0, 0xEE00_0000).unwrap();
        assert_eq!(cpu.run(10), StopReason::Detected(Detection::IllegalOpcode));
    }

    #[test]
    fn watchdog_times_out_infinite_loop() {
        let image = assemble("loop: br loop").unwrap();
        let cfg = CpuConfig {
            watchdog_cycles: Some(500),
            ..CpuConfig::default()
        };
        let mut cpu = Cpu::new(cfg);
        cpu.load_image(&image).unwrap();
        assert_eq!(cpu.run(u64::MAX), StopReason::Timeout);
    }

    #[test]
    fn instr_limit_stops_run() {
        let image = assemble("loop: br loop").unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        assert_eq!(cpu.run(10), StopReason::InstrLimit);
    }

    #[test]
    fn pc_breakpoint_halts_before_execution() {
        use scanchain::DebugCondition;
        let image = assemble(
            r"
            ldi r1, 1
            ldi r2, 2
            halt
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        cpu.debug_unit_mut().arm(DebugCondition::PcEquals(1));
        match cpu.run(100) {
            StopReason::DebugEvent(ev) => {
                assert_eq!(ev.condition, DebugCondition::PcEquals(1));
            }
            other => panic!("expected debug event, got {other:?}"),
        }
        // r2 not yet written.
        assert_eq!(cpu.reg(Reg::new(2)), 0);
        // Resume after clearing the breakpoint.
        cpu.debug_unit_mut().disarm_all();
        assert_eq!(cpu.run(100), StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(2)), 2);
    }

    #[test]
    fn reset_preserves_memory_but_clears_state() {
        let image = assemble(
            r"
            ldi r1, 5
            st  r0, r1, 100
            halt
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        cpu.run(100);
        cpu.reset();
        assert_eq!(cpu.reg(Reg::new(1)), 0);
        assert_eq!(cpu.pc(), 0);
        assert!(!cpu.is_halted());
        assert_eq!(cpu.memory().read_raw(100).unwrap(), 5);
        // Re-runs identically after reset.
        assert_eq!(cpu.run(100), StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(1)), 5);
    }

    #[test]
    fn reset_restores_configured_edm_mask() {
        // A fault injected into the PSW scan cell (here: everything off)
        // must not survive the next experiment's reset, or it would
        // contaminate the rest of the campaign and the golden run.
        let mut cpu = Cpu::new(CpuConfig::default());
        let configured = cpu.edm();
        cpu.set_edm(crate::edm::EdmSet::all_off());
        cpu.reset();
        assert_eq!(cpu.edm(), configured);
    }

    #[test]
    fn step_logged_records_accesses() {
        let image = assemble(
            r"
            ldi r1, 3
            st  r0, r1, 50
            ld  r2, r0, 50
            halt
        ",
        )
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        let mut log = AccessLog::default();

        assert!(cpu.step_logged(&mut log).is_none());
        assert_eq!(log.reg_writes, vec![Reg::new(1)]);

        assert!(cpu.step_logged(&mut log).is_none());
        assert_eq!(log.mem_writes, vec![50]);
        assert!(log.reg_reads.contains(&Reg::new(1)));

        assert!(cpu.step_logged(&mut log).is_none());
        assert_eq!(log.mem_reads, vec![50]);
        assert_eq!(log.reg_writes, vec![Reg::new(2)]);
    }

    #[test]
    fn state_vector_changes_with_execution() {
        let image = assemble("ldi r1, 9\nhalt").unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image).unwrap();
        let before = cpu.state_vector();
        cpu.run(10);
        let after = cpu.state_vector();
        assert_ne!(before, after);
        assert_eq!(after.regs[1], 9);
        assert_eq!(before.to_words().len(), after.to_words().len());
    }

    #[test]
    fn rejoin_adopts_the_run_end_and_keeps_lines_the_run_leaves_alone() {
        // A loop that keeps reloading one data word (D-cache line 12).
        let image = assemble(
            r"
            ldi r1, 50
        loop:
            ld  r2, r0, 300
            subi r1, r1, 1
            cmpi r1, 0
            bgt loop
            halt
        ",
        )
        .unwrap();
        let mut run = Cpu::new(CpuConfig::default());
        run.load_image(&image).unwrap();
        run.run(20);
        let checkpoint = run.clone();
        assert_eq!(run.run(1_000), StopReason::Halted);
        let end = run;

        // The checkpoint itself rejoins and ends exactly as the run does.
        let mut live = checkpoint.clone();
        assert!(live.rejoin(&checkpoint, &end));
        assert_eq!(live.state_vector(), end.state_vector());
        assert_eq!(
            (live.cycles, live.dcache, live.icache),
            (end.cycles, end.dcache.clone(), end.icache.clone())
        );

        // A line the rest of the run never uses keeps the live contents;
        // the counters move by the live offset.
        let mut live = checkpoint.clone();
        live.dcache.line_mut(3).data ^= 1;
        live.cycles += 100;
        live.debug.on_cycles(5);
        let kept = *live.dcache.line(3);
        assert!(live.rejoin(&checkpoint, &end));
        assert_eq!(*live.dcache.line(3), kept);
        assert_ne!(kept, *end.dcache.line(3));
        assert_eq!(live.cycles, end.cycles + 100);
        let ccount = |cpu: &Cpu| {
            let bits = cpu.debug.capture().unwrap();
            DebugUnit::chain_layout()
                .read_cell(&bits, "CCOUNT")
                .unwrap()
        };
        assert_eq!(ccount(&live), ccount(&end) + 5);
        assert_eq!(
            live.debug.instruction_count(),
            end.debug.instruction_count()
        );

        // A used line, a register, a memory word or a cycle count the
        // watchdog would reach: refused, and nothing changes.
        let refused: [fn(&mut Cpu); 4] = [
            |cpu| cpu.dcache.line_mut(12).data ^= 1,
            |cpu| cpu.regs[2] ^= 1,
            |cpu| cpu.mem.write_raw(400, 7).unwrap(),
            |cpu| cpu.cycles = 2_000_000 - 10,
        ];
        for change in refused {
            let mut live = checkpoint.clone();
            change(&mut live);
            let before = (live.state_vector(), live.cycles, live.dcache.clone());
            assert!(!live.rejoin(&checkpoint, &end));
            assert_eq!(
                (live.state_vector(), live.cycles, live.dcache.clone()),
                before
            );
        }
    }

    #[test]
    fn deterministic_execution() {
        let src = r"
            ldi r1, 100
            ldi r2, 0
        loop:
            add r2, r2, r1
            subi r1, r1, 1
            cmpi r1, 0
            bgt loop
            halt
        ";
        let (cpu1, _) = run_asm(src);
        let (cpu2, _) = run_asm(src);
        assert_eq!(cpu1.state_vector(), cpu2.state_vector());
        assert_eq!(cpu1.cycles(), cpu2.cycles());
    }
}
