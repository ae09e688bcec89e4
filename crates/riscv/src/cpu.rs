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

use crate::isa::{decode, AluImmOp, AluOp, BranchCond, Instr, LoadWidth, Reg, ShiftOp, StoreWidth};
use crate::scan::{ChainSet, X0_CELL};
use scanchain::{BusEvent, Core, Detection as _, Isa, Memory, PORT_COUNT};
use std::fmt;
use std::sync::Arc;

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

impl scanchain::Detection for Detection {
    fn mechanism(&self) -> &'static str {
        match self {
            Detection::IllegalInstr => "illegal_instr",
            Detection::Misaligned => "misaligned",
            Detection::AccessFault => "access_fault",
            Detection::ControlFlow => "control_flow",
            Detection::Ebreak => "ebreak",
            Detection::Assertion(_) => "assertion",
        }
    }

    fn encode(&self) -> u32 {
        match self {
            Detection::IllegalInstr => 1,
            Detection::Misaligned => 2,
            Detection::AccessFault => 3,
            Detection::ControlFlow => 4,
            Detection::Ebreak => 5,
            Detection::Assertion(id) => 6 | ((*id as u32) << 8),
        }
    }
}

impl Detection {
    /// Whether this is a hardware mechanism (as opposed to a software
    /// assertion embedded in the workload).
    pub fn is_hardware(&self) -> bool {
        !matches!(self, Detection::Assertion(_))
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

/// The simulated RV32I processor: the shared core skeleton around the
/// RV32I ISA half.
///
/// See the crate docs for an end-to-end example. The scan-chain view of
/// the core lives in [`crate::scan`].
pub type Cpu = Core<Rv32iIsa>;

/// Why execution stopped.
pub type StopReason = scanchain::StopReason<Detection>;

/// The RV32I half of a [`Cpu`]: the register file and decode/execute,
/// with the alignment traps of a byte-addressed ISA. Its accessors read as
/// the CPU's own.
#[derive(Clone)]
pub struct Rv32iIsa {
    pub(crate) regs: [u32; Reg::COUNT],
    code: Code,
    pub(crate) chains: ChainSet,
}

/// The predecoded code is a cache, not state, so it is left out.
impl fmt::Debug for Rv32iIsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rv32iIsa")
            .field("regs", &self.regs)
            .field("chains", &self.chains)
            .finish_non_exhaustive()
    }
}

/// The code segment decoded once: the fetch path of every instruction.
///
/// RV32I fetches straight from memory, so its code is decoded again when
/// the first run or step after a tool-side write to memory finds it changed
/// ([`Isa::sync_code`]): a compare of the segment's words, which catches a
/// SWIFI flip. A restored snapshot carries the code of its own memory.
/// Within a run only a program store reaches the segment (with protection
/// off), and that rebuilds it. It covers the words that are both code and
/// memory, so a fetch past it is a control-flow error or, inside the code
/// segment, an access fault.
#[derive(Clone, Default)]
struct Code {
    /// The code-segment length it was built for, in words.
    segment: u32,
    /// The words it decodes.
    words: Arc<[u32]>,
    /// Each word's decoding; `None` for a reserved encoding.
    instrs: Arc<[Option<Instr>]>,
}

impl Code {
    /// Decodes `mem`'s code segment.
    fn of(mem: &Memory) -> Code {
        let len = (mem.code_segment() as usize).min(mem.len());
        let words = mem.read_block(0, len).expect("the segment lies in memory");
        Code {
            segment: mem.code_segment(),
            instrs: words.iter().map(|&w| decode(w).ok()).collect(),
            words: words.into(),
        }
    }

    /// Whether it still decodes `mem`'s code segment.
    fn current(&self, mem: &Memory) -> bool {
        self.segment == mem.code_segment()
            && self.words.len() == (mem.code_segment() as usize).min(mem.len())
            && mem.starts_with(&self.words)
    }
}

impl Rv32iIsa {
    /// Reads a register (`x0` always reads 0).
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }
}

impl Isa for Rv32iIsa {
    const NAME: &'static str = "rv32i";
    type Detection = Detection;
    type Config = CpuConfig;
    type Image = Image;

    /// # Panics
    ///
    /// Panics if the configured memory does not fit the 32-bit byte
    /// address space (`mem_words > u32::MAX / 4`).
    fn build(config: CpuConfig) -> Cpu {
        assert!(
            config.mem_words <= (u32::MAX / 4) as usize,
            "memory exceeds the 32-bit byte address space"
        );
        let isa = Rv32iIsa {
            regs: [0; Reg::COUNT],
            code: Code::default(),
            chains: ChainSet::new(),
        };
        let initial_sp = config.mem_words as u32 * 4 - 4;
        Core::with_isa(isa, config.mem_words, config.watchdog_cycles, initial_sp)
    }

    fn image(image: &Image) -> (&[u32], u32, u32) {
        (&image.words, image.code_words, image.entry)
    }

    fn reset(&mut self, initial_sp: u32) {
        self.regs = [0; Reg::COUNT];
        self.regs[Reg::SP.index()] = initial_sp;
    }

    #[inline(always)]
    fn step_inner<const LOG: bool, const WATCH: bool>(cpu: &mut Cpu) -> Option<StopReason> {
        if LOG {
            cpu.log.pc = cpu.pc;
        }

        // Fetch: alignment, then control flow, then the word's range, then
        // its decoding (strict: any reserved encoding traps).
        if !cpu.pc.is_multiple_of(4) {
            return Some(cpu.detect(Detection::Misaligned));
        }
        let word_addr = cpu.pc / 4;
        let instr = match cpu.isa.code.instrs.get(word_addr as usize) {
            Some(&Some(instr)) => instr,
            Some(None) => return Some(cpu.detect(Detection::IllegalInstr)),
            None if word_addr >= cpu.mem.code_segment() => {
                return Some(cpu.detect(Detection::ControlFlow))
            }
            None => return Some(cpu.detect(Detection::AccessFault)),
        };

        // Execute.
        let stop = execute::<LOG, WATCH>(cpu, instr);
        cpu.instret += 1;
        if stop.is_some() {
            return stop;
        }
        // Surface any debug event latched by a data-access/branch/call/
        // cycle trigger during execution.
        cpu.debug_stop::<WATCH>()
    }

    fn sync_code(cpu: &mut Cpu) {
        if !cpu.isa.code.current(&cpu.mem) {
            cpu.isa.code = Code::of(&cpu.mem);
        }
    }

    /// The core has no caches, so only the registers are compared.
    fn rejoins(&self, checkpoint: &Self, _end: &Self, _since: u64) -> bool {
        self.regs == checkpoint.regs
    }
}

#[inline(always)]
fn log_reg_read<const LOG: bool>(cpu: &mut Cpu, r: Reg) -> u32 {
    if LOG && r != Reg::X0 {
        cpu.log.cell_reads.push(X0_CELL + r.index());
    }
    cpu.isa.regs[r.index()]
}

#[inline(always)]
fn log_reg_write<const LOG: bool>(cpu: &mut Cpu, r: Reg, v: u32) {
    if r == Reg::X0 {
        return; // x0 is hardwired to zero
    }
    if LOG {
        cpu.log.cell_writes.push(X0_CELL + r.index());
    }
    cpu.isa.regs[r.index()] = v;
}

/// Loads through the data bus. Byte addresses; returns `Err(stop)` on
/// detection.
#[inline(always)]
fn data_load<const LOG: bool, const WATCH: bool>(
    cpu: &mut Cpu,
    width: LoadWidth,
    addr: u32,
) -> Result<u32, StopReason> {
    let align = match width {
        LoadWidth::B | LoadWidth::Bu => 1,
        LoadWidth::H | LoadWidth::Hu => 2,
        LoadWidth::W => 4,
    };
    if !addr.is_multiple_of(align) {
        return Err(cpu.detect(Detection::Misaligned));
    }
    let word_addr = addr / 4;
    let word = match cpu.mem.read(word_addr) {
        Ok(w) => w,
        Err(_) => return Err(cpu.detect(Detection::AccessFault)),
    };
    if LOG {
        cpu.log.mem_reads.push(word_addr);
    }
    cpu.observe::<WATCH>(BusEvent::DataRead { addr: word_addr });
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
fn data_store<const LOG: bool, const WATCH: bool>(
    cpu: &mut Cpu,
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
        return Err(cpu.detect(Detection::Misaligned));
    }
    let word_addr = addr / 4;
    let merged = match width {
        StoreWidth::W => value,
        StoreWidth::B | StoreWidth::H => {
            let old = match cpu.mem.read(word_addr) {
                Ok(w) => w,
                Err(_) => return Err(cpu.detect(Detection::AccessFault)),
            };
            let (mask, shift) = match width {
                StoreWidth::B => (0xFFu32, 8 * (addr % 4)),
                StoreWidth::H => (0xFFFFu32, 8 * (addr % 4)),
                StoreWidth::W => unreachable!(),
            };
            (old & !(mask << shift)) | ((value & mask) << shift)
        }
    };
    if cpu.mem.write(word_addr, merged).is_err() {
        // Out of range or a store into the protected code segment:
        // both surface as an access fault.
        return Err(cpu.detect(Detection::AccessFault));
    }
    if word_addr < cpu.mem.code_segment() {
        // Protection is off and the program rewrote its own code.
        Rv32iIsa::sync_code(cpu);
    }
    if LOG {
        cpu.log.mem_writes.push(word_addr);
    }
    cpu.observe::<WATCH>(BusEvent::DataWrite { addr: word_addr });
    Ok(())
}

/// Transfers control to `target` (branch/jal/jalr). Returns
/// `Err(stop)` when the target is rejected.
#[inline(always)]
fn jump<const WATCH: bool>(cpu: &mut Cpu, target: u32, is_call: bool) -> Result<(), StopReason> {
    if !target.is_multiple_of(4) {
        return Err(cpu.detect(Detection::Misaligned));
    }
    if target / 4 >= cpu.mem.code_segment() {
        return Err(cpu.detect(Detection::ControlFlow));
    }
    cpu.pc = target;
    let ev = if is_call {
        BusEvent::Call { target }
    } else {
        BusEvent::Branch { target }
    };
    cpu.observe::<WATCH>(ev);
    Ok(())
}

#[inline(always)]
fn execute<const LOG: bool, const WATCH: bool>(cpu: &mut Cpu, instr: Instr) -> Option<StopReason> {
    let next_pc = cpu.pc.wrapping_add(4);
    let mut pc_set = false;
    let mut cost = 1u64;

    macro_rules! stop_on {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(stop) => {
                    cpu.on_cycles::<WATCH>(cost);
                    return Some(stop);
                }
            }
        };
    }

    match instr {
        Instr::Lui { rd, imm20 } => {
            log_reg_write::<LOG>(cpu, rd, imm20 << 12);
        }
        Instr::Auipc { rd, imm20 } => {
            log_reg_write::<LOG>(cpu, rd, cpu.pc.wrapping_add(imm20 << 12));
        }
        Instr::Jal { rd, offset } => {
            cost += 2;
            let target = cpu.pc.wrapping_add(offset as u32);
            log_reg_write::<LOG>(cpu, rd, next_pc);
            stop_on!(jump::<WATCH>(cpu, target, rd == Reg::RA));
            pc_set = true;
        }
        Instr::Jalr { rd, rs1, offset } => {
            cost += 2;
            let base = log_reg_read::<LOG>(cpu, rs1);
            let target = base.wrapping_add(offset as u32) & !1;
            log_reg_write::<LOG>(cpu, rd, next_pc);
            stop_on!(jump::<WATCH>(cpu, target, rd == Reg::RA));
            pc_set = true;
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => {
            let a = log_reg_read::<LOG>(cpu, rs1);
            let b = log_reg_read::<LOG>(cpu, rs2);
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
                let target = cpu.pc.wrapping_add(offset as u32);
                stop_on!(jump::<WATCH>(cpu, target, false));
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
            let base = log_reg_read::<LOG>(cpu, rs1);
            let addr = base.wrapping_add(offset as u32);
            let v = stop_on!(data_load::<LOG, WATCH>(cpu, width, addr));
            log_reg_write::<LOG>(cpu, rd, v);
        }
        Instr::Store {
            width,
            rs1,
            rs2,
            offset,
        } => {
            cost += 2;
            let base = log_reg_read::<LOG>(cpu, rs1);
            let addr = base.wrapping_add(offset as u32);
            let v = log_reg_read::<LOG>(cpu, rs2);
            stop_on!(data_store::<LOG, WATCH>(cpu, width, addr, v));
        }
        Instr::AluImm { op, rd, rs1, imm } => {
            let a = log_reg_read::<LOG>(cpu, rs1);
            let simm = imm as u32;
            let r = match op {
                AluImmOp::Addi => a.wrapping_add(simm),
                AluImmOp::Slti => ((a as i32) < imm) as u32,
                AluImmOp::Sltiu => (a < simm) as u32,
                AluImmOp::Xori => a ^ simm,
                AluImmOp::Ori => a | simm,
                AluImmOp::Andi => a & simm,
            };
            log_reg_write::<LOG>(cpu, rd, r);
        }
        Instr::Shift { op, rd, rs1, shamt } => {
            let a = log_reg_read::<LOG>(cpu, rs1);
            let r = match op {
                ShiftOp::Sll => a << shamt,
                ShiftOp::Srl => a >> shamt,
                ShiftOp::Sra => ((a as i32) >> shamt) as u32,
            };
            log_reg_write::<LOG>(cpu, rd, r);
        }
        Instr::Alu { op, rd, rs1, rs2 } => {
            let a = log_reg_read::<LOG>(cpu, rs1);
            let b = log_reg_read::<LOG>(cpu, rs2);
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
            log_reg_write::<LOG>(cpu, rd, r);
        }
        Instr::Fence => {}
        Instr::Ecall => {
            let code = log_reg_read::<LOG>(cpu, Reg::A7);
            match code {
                ECALL_HALT => {
                    cpu.halted = true;
                    cpu.cycles += cost;
                    cpu.on_cycles::<WATCH>(cost);
                    return Some(StopReason::Halted);
                }
                ECALL_SYNC => {
                    let tag = log_reg_read::<LOG>(cpu, Reg::A0) as u16;
                    cpu.iterations += 1;
                    cpu.pc = next_pc;
                    cpu.cycles += cost;
                    cpu.on_cycles::<WATCH>(cost);
                    return Some(StopReason::Sync {
                        tag,
                        iteration: cpu.iterations,
                    });
                }
                ECALL_IN => {
                    let port = log_reg_read::<LOG>(cpu, Reg::A0) as usize % PORT_COUNT;
                    let v = cpu.in_ports[port];
                    log_reg_write::<LOG>(cpu, Reg::A0, v);
                }
                ECALL_OUT => {
                    let port = log_reg_read::<LOG>(cpu, Reg::A0) as usize % PORT_COUNT;
                    let v = log_reg_read::<LOG>(cpu, Reg::A1);
                    cpu.out_ports[port] = v;
                }
                ECALL_ASSERT => {
                    let id = log_reg_read::<LOG>(cpu, Reg::A0) as u16;
                    return Some(cpu.detect(Detection::Assertion(id)));
                }
                unknown => {
                    return Some(cpu.detect(Detection::Assertion(unknown as u16)));
                }
            }
        }
        Instr::Ebreak => {
            return Some(cpu.detect(Detection::Ebreak));
        }
    }

    if !pc_set {
        cpu.pc = next_pc;
    }
    cpu.cycles += cost;
    cpu.on_cycles::<WATCH>(cost);
    None
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
        // a SWIFI flip of immediate bit 1 turns it into x5 += 3. The code
        // is decoded once, so the next run must see the flip and decode
        // it again.
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
    fn a_new_image_runs_its_own_code() {
        // The same core, its code decoded by a run, then a second image.
        let mut cpu = Cpu::new(CpuConfig::default());
        for value in [1, 2] {
            cpu.load_image(&image(halting(vec![addi(5, 0, value)])))
                .unwrap();
            assert_eq!(cpu.run(100), StopReason::Halted);
            assert_eq!(cpu.reg(Reg::new(5)), value as u32);
        }
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
        use scanchain::{AccessLog, ScanTarget};
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
        // Registers are logged as their cells in the internal chain.
        let layout = cpu.chain_layout(crate::scan::INTERNAL).unwrap().clone();
        let cell = |name: &str| layout.cells().iter().position(|c| c.name == name).unwrap();

        assert!(cpu.step_logged(&mut log).is_none());
        assert_eq!(log.cell_writes, vec![cell("X5")]);

        assert!(cpu.step_logged(&mut log).is_none());
        assert_eq!(log.mem_writes, vec![100]);
        assert!(log.cell_reads.contains(&cell("X5")));

        assert!(cpu.step_logged(&mut log).is_none());
        assert_eq!(log.mem_reads, vec![100]);
        assert_eq!(log.cell_writes, vec![cell("X6")]);
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
