//! The RV32I core: fetch/decode/execute, detections, ports, watchdog,
//! debug unit.
//!
//! # The ECALL environment convention
//!
//! Thor has dedicated `halt`/`sync`/`in`/`out`/`trap` instructions; RV32I
//! reserves all environment interaction for `ecall`. The call code lives in
//! `a7` (x17), arguments in `a0`/`a1`:
//!
//! | `a7`                | effect                                          |
//! |---------------------|-------------------------------------------------|
//! | [`ECALL_HALT`]  (0) | stop: the workload is complete                  |
//! | [`ECALL_SYNC`]  (1) | iteration boundary, tag = `a0` (environment exchange point) |
//! | [`ECALL_IN`]    (2) | `a0 = in_port[a0 % 4]`                          |
//! | [`ECALL_OUT`]   (3) | `out_port[a0 % 4] = a1`                         |
//! | [`ECALL_ASSERT`](4) | executable assertion failed, id = `a0`          |
//!
//! Unknown codes latch an assertion detection carrying the code — an
//! environment call the environment does not know is itself an error the
//! workload's software EDM layer reports.

use crate::isa::{
    decode, AluImmOp, AluOp, BranchCond, DecodeError, Instr, LoadWidth, Reg, ShiftOp, StoreWidth,
};
use scanchain::{BusEvent, DebugEvent, DebugUnit, Memory, MemoryError};
use std::fmt;

/// Number of I/O ports in each direction.
pub const PORT_COUNT: usize = 4;

/// `ecall` code: halt the workload.
pub const ECALL_HALT: u32 = 0;
/// `ecall` code: iteration boundary (control-loop workloads).
pub const ECALL_SYNC: u32 = 1;
/// `ecall` code: read an input port into `a0`.
pub const ECALL_IN: u32 = 2;
/// `ecall` code: write `a1` to an output port.
pub const ECALL_OUT: u32 = 3;
/// `ecall` code: executable assertion failure, id in `a0`.
pub const ECALL_ASSERT: u32 = 4;

/// A loadable RV32I program image.
///
/// `words` are placed at byte address 0; `code_words` marks the
/// write-protected code segment in words; `entry` is the initial PC in
/// *bytes* (RV32I PCs are byte addresses, unlike Thor's word PCs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Program and initial data, word 0 first.
    pub words: Vec<u32>,
    /// Length of the write-protected code prefix, in words.
    pub code_words: u32,
    /// Initial program counter, in bytes (word-aligned).
    pub entry: u32,
}

/// Construction-time CPU configuration.
#[derive(Debug, Clone, Copy)]
pub struct CpuConfig {
    /// Main memory size in words.
    pub mem_words: usize,
    /// Watchdog budget in cycles; `None` disables the watchdog.
    pub watchdog_cycles: Option<u64>,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            mem_words: scanchain::DEFAULT_MEMORY_WORDS,
            watchdog_cycles: Some(2_000_000),
        }
    }
}

/// An error detected by one of the core's mechanisms.
///
/// RV32I folds what Thor spreads over a PSW-maskable EDM set into the
/// architectural trap causes; none of them are maskable here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Detection {
    /// A reserved or corrupted encoding reached the decoder.
    IllegalInstr,
    /// Misaligned load/store/fetch or jump target.
    Misaligned,
    /// Out-of-range access or store into the protected code segment.
    AccessFault,
    /// Fetch or jump target outside the code segment.
    ControlFlow,
    /// The program executed `ebreak`.
    Ebreak,
    /// Software assertion (`ecall` with [`ECALL_ASSERT`]) with this id.
    Assertion(u16),
}

impl Detection {
    /// Stable mechanism name used in database logs and report tables.
    pub fn mechanism(&self) -> &'static str {
        match self {
            Detection::IllegalInstr => "illegal_instr",
            Detection::Misaligned => "misaligned",
            Detection::AccessFault => "access_fault",
            Detection::ControlFlow => "control_flow",
            Detection::Ebreak => "ebreak",
            Detection::Assertion(_) => "assertion",
        }
    }

    /// Whether this is a hardware mechanism (as opposed to a software
    /// assertion embedded in the workload).
    pub fn is_hardware(&self) -> bool {
        !matches!(self, Detection::Assertion(_))
    }

    /// Encodes to a compact code for the scan-visible status register.
    pub fn encode(&self) -> u32 {
        match self {
            Detection::IllegalInstr => 1,
            Detection::Misaligned => 2,
            Detection::AccessFault => 3,
            Detection::ControlFlow => 4,
            Detection::Ebreak => 5,
            Detection::Assertion(id) => 6 | ((*id as u32) << 8),
        }
    }

    /// Decodes a status-register value; 0 means "no detection".
    pub fn decode(code: u32) -> Option<Detection> {
        match code & 0xFF {
            1 => Some(Detection::IllegalInstr),
            2 => Some(Detection::Misaligned),
            3 => Some(Detection::AccessFault),
            4 => Some(Detection::ControlFlow),
            5 => Some(Detection::Ebreak),
            6 => Some(Detection::Assertion((code >> 8) as u16)),
            _ => None,
        }
    }
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detection::Assertion(id) => write!(f, "assertion({id})"),
            other => f.write_str(other.mechanism()),
        }
    }
}

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed `ecall` with [`ECALL_HALT`].
    Halted,
    /// An error detection mechanism fired.
    Detected(Detection),
    /// An armed debug condition fired (breakpoint reached).
    DebugEvent(DebugEvent),
    /// The workload executed `ecall` with [`ECALL_SYNC`] — an iteration
    /// boundary at which the tool exchanges data with the environment.
    Sync {
        /// The tag passed in `a0`.
        tag: u16,
        /// Completed loop iterations so far.
        iteration: u64,
    },
    /// The watchdog cycle budget was exhausted (time-out termination).
    Timeout,
    /// The per-call instruction budget of [`Cpu::run`] was exhausted.
    InstrLimit,
}

/// Record of the architectural reads/writes of one instruction, used by
/// the pre-injection (liveness) analysis. Register indices skip the
/// hardwired `x0`; memory addresses are in words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessLog {
    /// Program counter of the instruction, in bytes.
    pub pc: u32,
    /// Registers read.
    pub reg_reads: Vec<Reg>,
    /// Registers written.
    pub reg_writes: Vec<Reg>,
    /// Memory words read.
    pub mem_reads: Vec<u32>,
    /// Memory words written.
    pub mem_writes: Vec<u32>,
}

impl AccessLog {
    fn clear(&mut self) {
        self.pc = 0;
        self.reg_reads.clear();
        self.reg_writes.clear();
        self.mem_reads.clear();
        self.mem_writes.clear();
    }
}

/// Slots in the decoded-instruction cache.
const DECODE_SLOTS: usize = 64;

/// A direct-mapped cache of decoded instructions, indexed by the low bits
/// of the fetch word address and keyed by the fetched word itself.
///
/// Decoding is a pure function of the word, so a slot whose stored word
/// equals the fetched word holds exactly what [`decode`] would return, and
/// nothing ever needs invalidating: a SWIFI code flip changes the fetched
/// word and misses. Words that fail to decode are never stored.
#[derive(Debug, Clone)]
struct DecodeCache {
    slots: [(u32, Instr); DECODE_SLOTS],
}

impl DecodeCache {
    fn new() -> Self {
        // Every slot starts as the valid pair (nop, decode(nop)).
        const NOP: u32 = 0x0000_0013; // addi x0, x0, 0
        let nop = decode(NOP).expect("nop decodes");
        DecodeCache {
            slots: [(NOP, nop); DECODE_SLOTS],
        }
    }

    #[inline(always)]
    fn decode(&mut self, word_addr: u32, word: u32) -> Result<Instr, DecodeError> {
        let slot = &mut self.slots[word_addr as usize % DECODE_SLOTS];
        if slot.0 == word {
            return Ok(slot.1);
        }
        let instr = decode(word)?;
        *slot = (word, instr);
        Ok(instr)
    }
}

/// The simulated RV32I processor.
///
/// See the crate docs for an end-to-end example. The scan-chain view of
/// the core lives in [`crate::scan`].
#[derive(Debug, Clone)]
pub struct Cpu {
    pub(crate) regs: [u32; Reg::COUNT],
    /// Byte-addressed program counter, word-aligned while executing.
    pub(crate) pc: u32,
    pub(crate) mem: Memory,
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
    scratch_log: AccessLog,
    decoded: DecodeCache,
    pub(crate) chains: crate::scan::ChainSet,
}

impl Cpu {
    /// Creates a CPU with zeroed state.
    ///
    /// # Panics
    ///
    /// Panics if the configured memory does not fit the 32-bit byte
    /// address space (`mem_words > u32::MAX / 4`).
    pub fn new(config: CpuConfig) -> Self {
        assert!(
            config.mem_words <= (u32::MAX / 4) as usize,
            "memory exceeds the 32-bit byte address space"
        );
        let initial_sp = config.mem_words as u32 * 4 - 4;
        let mut regs = [0; Reg::COUNT];
        regs[Reg::SP.index()] = initial_sp;
        Cpu {
            regs,
            pc: 0,
            mem: Memory::new(config.mem_words),
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
            scratch_log: AccessLog::default(),
            decoded: DecodeCache::new(),
            chains: crate::scan::ChainSet::new(),
        }
    }

    /// Downloads an image: code at word 0, protection boundary at the
    /// image's code/data split, then resets the core.
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

    /// Resets the core (registers, counters, detection latch, ports)
    /// while leaving main memory intact. Equivalent to pulsing reset.
    pub fn reset(&mut self) {
        self.regs = [0; Reg::COUNT];
        self.regs[Reg::SP.index()] = self.initial_sp;
        self.pc = self.entry;
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

    /// Reads a register (`x0` always reads 0).
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (tool-side; writes to `x0` are dropped).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::X0 {
            self.regs[r.index()] = value;
        }
    }

    /// Current program counter, in bytes.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter (tool-side), in bytes.
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

    /// Completed sync iterations since reset.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Latched detection, if any.
    pub fn detection(&self) -> Option<Detection> {
        self.detection
    }

    /// Whether the core has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Drives an input port (environment simulator → target).
    ///
    /// # Panics
    ///
    /// Panics if `port >= PORT_COUNT`.
    pub fn set_in_port(&mut self, port: usize, value: u32) {
        self.in_ports[port] = value;
    }

    /// Reads an output port latch (target → environment simulator).
    ///
    /// # Panics
    ///
    /// Panics if `port >= PORT_COUNT`.
    pub fn out_port(&self, port: usize) -> u32 {
        self.out_ports[port]
    }

    /// Rejoins a fault-free run: if `self` would execute exactly as
    /// `checkpoint` does, becomes the state it reaches by the end of that
    /// run and returns `true`; otherwise returns `false` and changes
    /// nothing. `end` must be a later state of the run through
    /// `checkpoint`, with no tool access in between.
    ///
    /// The core has no caches, so the comparison is plain: registers, PC,
    /// ports, iterations, the detection and halt latches, the debug unit's
    /// conditions and latch, and all of memory must match. Cycles and
    /// debug counters move by `self`'s distance from `checkpoint`; the
    /// rejoin is refused when the moved cycle count would reach the
    /// watchdog.
    pub fn rejoin(&mut self, checkpoint: &Cpu, end: &Cpu) -> bool {
        let same = self.instret == checkpoint.instret
            && end.instret >= checkpoint.instret
            && end.cycles >= checkpoint.cycles
            && (self.pc, self.regs) == (checkpoint.pc, checkpoint.regs)
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

        // Fetch-address checks: alignment, then control flow.
        if !self.pc.is_multiple_of(4) {
            return Some(self.detect(Detection::Misaligned));
        }
        let word_addr = self.pc / 4;
        if word_addr >= self.mem.code_segment() {
            return Some(self.detect(Detection::ControlFlow));
        }
        let word = match self.mem.read(word_addr) {
            Ok(w) => w,
            Err(_) => return Some(self.detect(Detection::AccessFault)),
        };

        // Decode (strict: any reserved encoding traps).
        let instr = match self.decoded.decode(word_addr, word) {
            Ok(i) => i,
            Err(_) => return Some(self.detect(Detection::IllegalInstr)),
        };

        // Execute.
        let stop = self.execute::<LOG>(instr);
        self.instret += 1;
        if stop.is_some() {
            return stop;
        }
        // Surface any debug event latched by a data-access/branch/call/
        // cycle trigger during execution.
        self.debug.pending().map(StopReason::DebugEvent)
    }

    fn detect(&mut self, d: Detection) -> StopReason {
        self.detection = Some(d);
        StopReason::Detected(d)
    }

    #[inline(always)]
    fn log_reg_read<const LOG: bool>(&mut self, r: Reg) -> u32 {
        if LOG && r != Reg::X0 {
            self.scratch_log.reg_reads.push(r);
        }
        self.regs[r.index()]
    }

    #[inline(always)]
    fn log_reg_write<const LOG: bool>(&mut self, r: Reg, v: u32) {
        if r == Reg::X0 {
            return; // x0 is hardwired to zero
        }
        if LOG {
            self.scratch_log.reg_writes.push(r);
        }
        self.regs[r.index()] = v;
    }

    /// Loads through the data bus. Byte addresses; returns `Err(stop)` on
    /// detection.
    #[inline(always)]
    fn data_load<const LOG: bool>(
        &mut self,
        width: LoadWidth,
        addr: u32,
    ) -> Result<u32, StopReason> {
        let align = match width {
            LoadWidth::B | LoadWidth::Bu => 1,
            LoadWidth::H | LoadWidth::Hu => 2,
            LoadWidth::W => 4,
        };
        if !addr.is_multiple_of(align) {
            return Err(self.detect(Detection::Misaligned));
        }
        let word_addr = addr / 4;
        let word = match self.mem.read(word_addr) {
            Ok(w) => w,
            Err(_) => return Err(self.detect(Detection::AccessFault)),
        };
        if LOG {
            self.scratch_log.mem_reads.push(word_addr);
        }
        self.debug.observe(BusEvent::DataRead { addr: word_addr });
        let value = match width {
            LoadWidth::W => word,
            LoadWidth::B => (word >> (8 * (addr % 4))) as u8 as i8 as i32 as u32,
            LoadWidth::Bu => (word >> (8 * (addr % 4))) as u8 as u32,
            LoadWidth::H => (word >> (8 * (addr % 4))) as u16 as i16 as i32 as u32,
            LoadWidth::Hu => (word >> (8 * (addr % 4))) as u16 as u32,
        };
        Ok(value)
    }

    /// Stores through the data bus (read-modify-write for sub-word
    /// widths). Returns `Err(stop)` on detection.
    #[inline(always)]
    fn data_store<const LOG: bool>(
        &mut self,
        width: StoreWidth,
        addr: u32,
        value: u32,
    ) -> Result<(), StopReason> {
        let align = match width {
            StoreWidth::B => 1,
            StoreWidth::H => 2,
            StoreWidth::W => 4,
        };
        if !addr.is_multiple_of(align) {
            return Err(self.detect(Detection::Misaligned));
        }
        let word_addr = addr / 4;
        let merged = match width {
            StoreWidth::W => value,
            StoreWidth::B | StoreWidth::H => {
                let old = match self.mem.read(word_addr) {
                    Ok(w) => w,
                    Err(_) => return Err(self.detect(Detection::AccessFault)),
                };
                let (mask, shift) = match width {
                    StoreWidth::B => (0xFFu32, 8 * (addr % 4)),
                    StoreWidth::H => (0xFFFFu32, 8 * (addr % 4)),
                    StoreWidth::W => unreachable!(),
                };
                (old & !(mask << shift)) | ((value & mask) << shift)
            }
        };
        if self.mem.write(word_addr, merged).is_err() {
            // Out of range or a store into the protected code segment:
            // both surface as an access fault.
            return Err(self.detect(Detection::AccessFault));
        }
        if LOG {
            self.scratch_log.mem_writes.push(word_addr);
        }
        self.debug.observe(BusEvent::DataWrite { addr: word_addr });
        Ok(())
    }

    /// Transfers control to `target` (branch/jal/jalr). Returns
    /// `Err(stop)` when the target is rejected.
    #[inline(always)]
    fn jump(&mut self, target: u32, is_call: bool) -> Result<(), StopReason> {
        if !target.is_multiple_of(4) {
            return Err(self.detect(Detection::Misaligned));
        }
        if target / 4 >= self.mem.code_segment() {
            return Err(self.detect(Detection::ControlFlow));
        }
        self.pc = target;
        let ev = if is_call {
            BusEvent::Call { target }
        } else {
            BusEvent::Branch { target }
        };
        self.debug.observe(ev);
        Ok(())
    }

    #[inline(always)]
    fn execute<const LOG: bool>(&mut self, instr: Instr) -> Option<StopReason> {
        let next_pc = self.pc.wrapping_add(4);
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
            Instr::Lui { rd, imm20 } => {
                self.log_reg_write::<LOG>(rd, imm20 << 12);
            }
            Instr::Auipc { rd, imm20 } => {
                self.log_reg_write::<LOG>(rd, self.pc.wrapping_add(imm20 << 12));
            }
            Instr::Jal { rd, offset } => {
                cost += 2;
                let target = self.pc.wrapping_add(offset as u32);
                self.log_reg_write::<LOG>(rd, next_pc);
                stop_on!(self.jump(target, rd == Reg::RA));
                pc_set = true;
            }
            Instr::Jalr { rd, rs1, offset } => {
                cost += 2;
                let base = self.log_reg_read::<LOG>(rs1);
                let target = base.wrapping_add(offset as u32) & !1;
                self.log_reg_write::<LOG>(rd, next_pc);
                stop_on!(self.jump(target, rd == Reg::RA));
                pc_set = true;
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.log_reg_read::<LOG>(rs1);
                let b = self.log_reg_read::<LOG>(rs2);
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i32) < (b as i32),
                    BranchCond::Ge => (a as i32) >= (b as i32),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                if taken {
                    cost += 1;
                    let target = self.pc.wrapping_add(offset as u32);
                    stop_on!(self.jump(target, false));
                    pc_set = true;
                }
            }
            Instr::Load {
                width,
                rd,
                rs1,
                offset,
            } => {
                cost += 2;
                let base = self.log_reg_read::<LOG>(rs1);
                let addr = base.wrapping_add(offset as u32);
                let v = stop_on!(self.data_load::<LOG>(width, addr));
                self.log_reg_write::<LOG>(rd, v);
            }
            Instr::Store {
                width,
                rs1,
                rs2,
                offset,
            } => {
                cost += 2;
                let base = self.log_reg_read::<LOG>(rs1);
                let addr = base.wrapping_add(offset as u32);
                let v = self.log_reg_read::<LOG>(rs2);
                stop_on!(self.data_store::<LOG>(width, addr, v));
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let a = self.log_reg_read::<LOG>(rs1);
                let simm = imm as u32;
                let r = match op {
                    AluImmOp::Addi => a.wrapping_add(simm),
                    AluImmOp::Slti => ((a as i32) < imm) as u32,
                    AluImmOp::Sltiu => (a < simm) as u32,
                    AluImmOp::Xori => a ^ simm,
                    AluImmOp::Ori => a | simm,
                    AluImmOp::Andi => a & simm,
                };
                self.log_reg_write::<LOG>(rd, r);
            }
            Instr::Shift { op, rd, rs1, shamt } => {
                let a = self.log_reg_read::<LOG>(rs1);
                let r = match op {
                    ShiftOp::Sll => a << shamt,
                    ShiftOp::Srl => a >> shamt,
                    ShiftOp::Sra => ((a as i32) >> shamt) as u32,
                };
                self.log_reg_write::<LOG>(rd, r);
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let a = self.log_reg_read::<LOG>(rs1);
                let b = self.log_reg_read::<LOG>(rs2);
                let r = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Sll => a.wrapping_shl(b & 31),
                    AluOp::Slt => ((a as i32) < (b as i32)) as u32,
                    AluOp::Sltu => (a < b) as u32,
                    AluOp::Xor => a ^ b,
                    AluOp::Srl => a.wrapping_shr(b & 31),
                    AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
                    AluOp::Or => a | b,
                    AluOp::And => a & b,
                };
                self.log_reg_write::<LOG>(rd, r);
            }
            Instr::Fence => {}
            Instr::Ecall => {
                let code = self.log_reg_read::<LOG>(Reg::A7);
                match code {
                    ECALL_HALT => {
                        self.halted = true;
                        self.cycles += cost;
                        self.debug.on_cycles(cost);
                        return Some(StopReason::Halted);
                    }
                    ECALL_SYNC => {
                        let tag = self.log_reg_read::<LOG>(Reg::A0) as u16;
                        self.iterations += 1;
                        self.pc = next_pc;
                        self.cycles += cost;
                        self.debug.on_cycles(cost);
                        return Some(StopReason::Sync {
                            tag,
                            iteration: self.iterations,
                        });
                    }
                    ECALL_IN => {
                        let port = self.log_reg_read::<LOG>(Reg::A0) as usize % PORT_COUNT;
                        let v = self.in_ports[port];
                        self.log_reg_write::<LOG>(Reg::A0, v);
                    }
                    ECALL_OUT => {
                        let port = self.log_reg_read::<LOG>(Reg::A0) as usize % PORT_COUNT;
                        let v = self.log_reg_read::<LOG>(Reg::A1);
                        self.out_ports[port] = v;
                    }
                    ECALL_ASSERT => {
                        let id = self.log_reg_read::<LOG>(Reg::A0) as u16;
                        return Some(self.detect(Detection::Assertion(id)));
                    }
                    unknown => {
                        return Some(self.detect(Detection::Assertion(unknown as u16)));
                    }
                }
            }
            Instr::Ebreak => {
                return Some(self.detect(Detection::Ebreak));
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
mod rv32i_tests {
    use super::*;
    use crate::isa::encode;

    // Terse machine-code builders for the tests.
    fn addi(rd: u8, rs1: u8, imm: i32) -> u32 {
        encode(Instr::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::new(rd),
            rs1: Reg::new(rs1),
            imm,
        })
    }

    fn ecall(code: u32, words: &mut Vec<u32>) {
        words.push(addi(17, 0, code as i32));
        words.push(encode(Instr::Ecall));
    }

    fn image(words: Vec<u32>) -> Image {
        let code_words = words.len() as u32;
        Image {
            words,
            code_words,
            entry: 0,
        }
    }

    fn run_words(words: Vec<u32>) -> (Cpu, StopReason) {
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image(words)).unwrap();
        let stop = cpu.run(1_000_000);
        (cpu, stop)
    }

    fn halting(mut words: Vec<u32>) -> Vec<u32> {
        ecall(ECALL_HALT, &mut words);
        words
    }

    #[test]
    fn arithmetic_and_halt() {
        let (cpu, stop) = run_words(halting(vec![
            addi(5, 0, 6),
            addi(6, 0, 7),
            encode(Instr::Alu {
                op: AluOp::Add,
                rd: Reg::new(7),
                rs1: Reg::new(5),
                rs2: Reg::new(6),
            }),
        ]));
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(7)), 13);
        assert_eq!(cpu.instructions(), 5);
        assert!(cpu.cycles() >= 5);
    }

    #[test]
    fn rejoin_adopts_the_run_end_or_refuses_and_changes_nothing() {
        let mut run = Cpu::new(CpuConfig::default());
        let words = (1..=12).map(|i| addi(5, 5, i)).collect();
        run.load_image(&image(halting(words))).unwrap();
        run.run(4);
        let checkpoint = run.clone();
        assert_eq!(run.run(100), StopReason::Halted);
        let end = run;

        let mut live = checkpoint.clone();
        live.cycles += 7;
        assert!(live.rejoin(&checkpoint, &end));
        assert_eq!((live.regs, live.pc, live.halted), (end.regs, end.pc, true));
        assert_eq!(live.cycles, end.cycles + 7);

        let mut live = checkpoint.clone();
        live.regs[5] ^= 1;
        let before = live.clone();
        assert!(!live.rejoin(&checkpoint, &end));
        assert_eq!((live.regs, live.cycles), (before.regs, before.cycles));
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let (cpu, stop) = run_words(halting(vec![addi(0, 0, 99)]));
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::X0), 0);
    }

    #[test]
    fn loop_with_branch_sums() {
        // x5 = 10; x6 = 0; loop: x6 += x5; x5 -= 1; bne x5, x0, loop; halt.
        let (cpu, stop) = run_words(halting(vec![
            addi(5, 0, 10),
            addi(6, 0, 0),
            encode(Instr::Alu {
                op: AluOp::Add,
                rd: Reg::new(6),
                rs1: Reg::new(6),
                rs2: Reg::new(5),
            }),
            addi(5, 5, -1),
            encode(Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::new(5),
                rs2: Reg::X0,
                offset: -8,
            }),
        ]));
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(6)), 55);
    }

    #[test]
    fn code_word_flip_runs_the_new_instruction() {
        // x5 += 1 (word 2) on each of three passes; after the first pass,
        // a SWIFI flip of immediate bit 1 turns it into x5 += 3. Decoded
        // instructions are cached by word, so the flip must take effect.
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image(halting(vec![
            addi(5, 0, 0),
            addi(6, 0, 3),
            addi(5, 5, 1),
            addi(6, 6, -1),
            encode(Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::new(6),
                rs2: Reg::X0,
                offset: -8,
            }),
        ])))
        .unwrap();
        for _ in 0..5 {
            assert_eq!(cpu.step(), None);
        }
        assert_eq!((cpu.pc(), cpu.reg(Reg::new(5))), (8, 1));
        cpu.memory_mut().flip_bit(2, 20 + 1).unwrap();
        assert_eq!(cpu.run(100), StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(5)), 7);
    }

    #[test]
    fn word_load_store_roundtrip() {
        let (cpu, stop) = run_words(halting(vec![
            addi(5, 0, 123),
            encode(Instr::Store {
                width: StoreWidth::W,
                rs1: Reg::X0,
                rs2: Reg::new(5),
                offset: 800,
            }),
            encode(Instr::Load {
                width: LoadWidth::W,
                rd: Reg::new(6),
                rs1: Reg::X0,
                offset: 800,
            }),
        ]));
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(6)), 123);
        assert_eq!(cpu.memory().read_raw(200).unwrap(), 123);
    }

    #[test]
    fn byte_and_half_accesses_sign_extend() {
        let (cpu, stop) = run_words(halting(vec![
            addi(5, 0, -1), // 0xFFFF_FFFF
            encode(Instr::Store {
                width: StoreWidth::B,
                rs1: Reg::X0,
                rs2: Reg::new(5),
                offset: 801, // byte 1 of word 200
            }),
            encode(Instr::Load {
                width: LoadWidth::B,
                rd: Reg::new(6),
                rs1: Reg::X0,
                offset: 801,
            }),
            encode(Instr::Load {
                width: LoadWidth::Bu,
                rd: Reg::new(7),
                rs1: Reg::X0,
                offset: 801,
            }),
            encode(Instr::Load {
                width: LoadWidth::Hu,
                rd: Reg::new(8),
                rs1: Reg::X0,
                offset: 800,
            }),
        ]));
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.memory().read_raw(200).unwrap(), 0x0000_FF00);
        assert_eq!(cpu.reg(Reg::new(6)), 0xFFFF_FFFF); // lb sign-extends
        assert_eq!(cpu.reg(Reg::new(7)), 0xFF); // lbu zero-extends
        assert_eq!(cpu.reg(Reg::new(8)), 0xFF00);
    }

    #[test]
    fn jal_and_jalr_call_return() {
        // jal ra, +12 (to the double routine); after return halt.
        // double: x5 += x5; jalr x0, ra, 0.
        let mut words = vec![
            addi(5, 0, 21),
            encode(Instr::Jal {
                rd: Reg::RA,
                offset: 12, // jal is at byte 4; the routine at byte 16
            }),
        ];
        ecall(ECALL_HALT, &mut words); // words 2,3
        words.push(encode(Instr::Alu {
            op: AluOp::Add,
            rd: Reg::new(5),
            rs1: Reg::new(5),
            rs2: Reg::new(5),
        })); // word 4 (byte 16)
        words.push(encode(Instr::Jalr {
            rd: Reg::X0,
            rs1: Reg::RA,
            offset: 0,
        }));
        let (cpu, stop) = run_words(words);
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(5)), 42);
    }

    #[test]
    fn ecall_io_ports_roundtrip() {
        // a0 = 0 (port); ecall IN; a1 = a0 + 1; a0 = 2 (port); ecall OUT.
        let mut words = vec![addi(10, 0, 0)];
        ecall(ECALL_IN, &mut words);
        words.push(addi(11, 10, 1));
        words.push(addi(10, 0, 2));
        ecall(ECALL_OUT, &mut words);
        let words = halting(words);
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image(words)).unwrap();
        cpu.set_in_port(0, 41);
        assert_eq!(cpu.run(100), StopReason::Halted);
        assert_eq!(cpu.out_port(2), 42);
    }

    #[test]
    fn sync_reports_iterations() {
        // loop: a0 = 7; ecall SYNC; jal x0, loop.
        let mut words = vec![addi(10, 0, 7)];
        ecall(ECALL_SYNC, &mut words);
        words.push(encode(Instr::Jal {
            rd: Reg::X0,
            offset: -12,
        }));
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image(words)).unwrap();
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
    fn assertion_and_unknown_ecall_detected() {
        let mut words = vec![addi(10, 0, 9)];
        ecall(ECALL_ASSERT, &mut words);
        let (_, stop) = run_words(words);
        assert_eq!(stop, StopReason::Detected(Detection::Assertion(9)));

        let mut words = Vec::new();
        ecall(77, &mut words);
        let (_, stop) = run_words(words);
        assert_eq!(stop, StopReason::Detected(Detection::Assertion(77)));
    }

    #[test]
    fn ebreak_detected() {
        let (_, stop) = run_words(vec![encode(Instr::Ebreak)]);
        assert_eq!(stop, StopReason::Detected(Detection::Ebreak));
    }

    #[test]
    fn illegal_instruction_detected() {
        let (_, stop) = run_words(vec![0xFFFF_FFFF]);
        assert_eq!(stop, StopReason::Detected(Detection::IllegalInstr));
        // The all-zero word (wild jump into zeroed data) also traps.
        let (_, stop) = run_words(vec![0x0000_0000]);
        assert_eq!(stop, StopReason::Detected(Detection::IllegalInstr));
    }

    #[test]
    fn misaligned_load_detected() {
        let (_, stop) = run_words(halting(vec![encode(Instr::Load {
            width: LoadWidth::W,
            rd: Reg::new(5),
            rs1: Reg::X0,
            offset: 802,
        })]));
        assert_eq!(stop, StopReason::Detected(Detection::Misaligned));
    }

    #[test]
    fn store_to_code_is_access_fault() {
        let (_, stop) = run_words(halting(vec![
            addi(5, 0, 1),
            encode(Instr::Store {
                width: StoreWidth::W,
                rs1: Reg::X0,
                rs2: Reg::new(5),
                offset: 0,
            }),
        ]));
        assert_eq!(stop, StopReason::Detected(Detection::AccessFault));
    }

    #[test]
    fn wild_jump_is_control_flow_error() {
        let (_, stop) = run_words(halting(vec![encode(Instr::Jalr {
            rd: Reg::X0,
            rs1: Reg::X0,
            offset: 2040, // far outside the code segment
        })]));
        assert_eq!(stop, StopReason::Detected(Detection::ControlFlow));
    }

    #[test]
    fn watchdog_times_out_infinite_loop() {
        let words = vec![encode(Instr::Jal {
            rd: Reg::X0,
            offset: 0,
        })];
        let mut cpu = Cpu::new(CpuConfig {
            watchdog_cycles: Some(500),
            ..CpuConfig::default()
        });
        cpu.load_image(&image(words)).unwrap();
        assert_eq!(cpu.run(u64::MAX), StopReason::Timeout);
    }

    #[test]
    fn instr_limit_stops_run() {
        let words = vec![encode(Instr::Jal {
            rd: Reg::X0,
            offset: 0,
        })];
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image(words)).unwrap();
        assert_eq!(cpu.run(10), StopReason::InstrLimit);
    }

    #[test]
    fn pc_breakpoint_halts_before_execution() {
        use scanchain::DebugCondition;
        let words = halting(vec![addi(5, 0, 1), addi(6, 0, 2)]);
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image(words)).unwrap();
        // PCs are byte addresses: the second instruction is at byte 4.
        cpu.debug_unit_mut().arm(DebugCondition::PcEquals(4));
        match cpu.run(100) {
            StopReason::DebugEvent(ev) => {
                assert_eq!(ev.condition, DebugCondition::PcEquals(4));
            }
            other => panic!("expected debug event, got {other:?}"),
        }
        assert_eq!(cpu.reg(Reg::new(6)), 0);
        cpu.debug_unit_mut().disarm_all();
        assert_eq!(cpu.run(100), StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(6)), 2);
    }

    #[test]
    fn reset_preserves_memory_but_clears_state() {
        let words = halting(vec![
            addi(5, 0, 5),
            encode(Instr::Store {
                width: StoreWidth::W,
                rs1: Reg::X0,
                rs2: Reg::new(5),
                offset: 400,
            }),
        ]);
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image(words)).unwrap();
        cpu.run(100);
        cpu.reset();
        assert_eq!(cpu.reg(Reg::new(5)), 0);
        assert_eq!(cpu.pc(), 0);
        assert!(!cpu.is_halted());
        assert_eq!(cpu.memory().read_raw(100).unwrap(), 5);
        assert_eq!(cpu.run(100), StopReason::Halted);
        assert_eq!(cpu.reg(Reg::new(5)), 5);
    }

    #[test]
    fn step_logged_records_accesses() {
        let words = halting(vec![
            addi(5, 0, 3),
            encode(Instr::Store {
                width: StoreWidth::W,
                rs1: Reg::X0,
                rs2: Reg::new(5),
                offset: 400,
            }),
            encode(Instr::Load {
                width: LoadWidth::W,
                rd: Reg::new(6),
                rs1: Reg::X0,
                offset: 400,
            }),
        ]);
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_image(&image(words)).unwrap();
        let mut log = AccessLog::default();

        assert!(cpu.step_logged(&mut log).is_none());
        assert_eq!(log.reg_writes, vec![Reg::new(5)]);

        assert!(cpu.step_logged(&mut log).is_none());
        assert_eq!(log.mem_writes, vec![100]);
        assert!(log.reg_reads.contains(&Reg::new(5)));

        assert!(cpu.step_logged(&mut log).is_none());
        assert_eq!(log.mem_reads, vec![100]);
        assert_eq!(log.reg_writes, vec![Reg::new(6)]);
    }

    #[test]
    fn deterministic_execution() {
        let build = || {
            halting(vec![
                addi(5, 0, 100),
                addi(6, 0, 0),
                encode(Instr::Alu {
                    op: AluOp::Add,
                    rd: Reg::new(6),
                    rs1: Reg::new(6),
                    rs2: Reg::new(5),
                }),
                addi(5, 5, -1),
                encode(Instr::Branch {
                    cond: BranchCond::Ne,
                    rs1: Reg::new(5),
                    rs2: Reg::X0,
                    offset: -8,
                }),
            ])
        };
        let (cpu1, _) = run_words(build());
        let (cpu2, _) = run_words(build());
        assert_eq!(cpu1.regs, cpu2.regs);
        assert_eq!(cpu1.cycles(), cpu2.cycles());
        assert_eq!(cpu1.instructions(), cpu2.instructions());
    }

    #[test]
    fn detection_encode_decode_roundtrip() {
        for d in [
            Detection::IllegalInstr,
            Detection::Misaligned,
            Detection::AccessFault,
            Detection::ControlFlow,
            Detection::Ebreak,
            Detection::Assertion(0),
            Detection::Assertion(513),
        ] {
            assert_eq!(Detection::decode(d.encode()), Some(d), "{d:?}");
        }
        assert_eq!(Detection::decode(0), None);
    }
}
