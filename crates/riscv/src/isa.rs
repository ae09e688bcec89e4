//! The RV32I instruction set: registers, encoding and strict decoding.
//!
//! Exactly the 40 instructions of the RV32I base ISA are implemented. The
//! decoder is *strict*: every word either decodes to one canonical
//! [`Instr`] whose re-encoding reproduces the word bit-for-bit, or fails
//! with [`DecodeError`] — there are no "don't care" bits that survive a
//! decode→encode round trip changed. Strictness is what makes
//! illegal-instruction detection deterministic (any reserved encoding
//! traps) and what the decoder property tests assert.
//!
//! Two deliberate canonicalisations, documented here because real
//! assemblers emit looser forms:
//!
//! * `FENCE` is accepted only as the canonical word `0x0000_000F`
//!   (fm/pred/succ/rs1/rd all zero) — this core has no memory reordering
//!   to order, so the hint bits carry no information;
//! * `ECALL`/`EBREAK` are accepted only as their exact SYSTEM words.

use std::error::Error;
use std::fmt;

/// One of the 32 integer registers, `x0`–`x31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Number of integer registers.
    pub const COUNT: usize = 32;
    /// The hardwired-zero register `x0`.
    pub const X0: Reg = Reg(0);
    /// The return-address register `x1` (`ra`).
    pub const RA: Reg = Reg(1);
    /// The stack pointer `x2` (`sp`).
    pub const SP: Reg = Reg(2);
    /// Argument register `x10` (`a0`).
    pub const A0: Reg = Reg(10);
    /// Argument register `x11` (`a1`).
    pub const A1: Reg = Reg(11);
    /// Argument register `x12` (`a2`).
    pub const A2: Reg = Reg(12);
    /// The environment-call code register `x17` (`a7`).
    pub const A7: Reg = Reg(17);

    /// Register by index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn new(index: u8) -> Reg {
        assert!(
            (index as usize) < Reg::COUNT,
            "register x{index} out of range"
        );
        Reg(index)
    }

    /// The register's index, 0–31.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over all 32 registers.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..Reg::COUNT as u8).map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Branch comparison (the funct3 of the BRANCH opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `beq` — equal.
    Eq,
    /// `bne` — not equal.
    Ne,
    /// `blt` — signed less-than.
    Lt,
    /// `bge` — signed greater-or-equal.
    Ge,
    /// `bltu` — unsigned less-than.
    Ltu,
    /// `bgeu` — unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    fn funct3(self) -> u32 {
        match self {
            BranchCond::Eq => 0b000,
            BranchCond::Ne => 0b001,
            BranchCond::Lt => 0b100,
            BranchCond::Ge => 0b101,
            BranchCond::Ltu => 0b110,
            BranchCond::Geu => 0b111,
        }
    }

    fn from_funct3(f: u32) -> Option<Self> {
        match f {
            0b000 => Some(BranchCond::Eq),
            0b001 => Some(BranchCond::Ne),
            0b100 => Some(BranchCond::Lt),
            0b101 => Some(BranchCond::Ge),
            0b110 => Some(BranchCond::Ltu),
            0b111 => Some(BranchCond::Geu),
            _ => None,
        }
    }

    /// All six conditions.
    pub fn all() -> [BranchCond; 6] {
        [
            BranchCond::Eq,
            BranchCond::Ne,
            BranchCond::Lt,
            BranchCond::Ge,
            BranchCond::Ltu,
            BranchCond::Geu,
        ]
    }
}

/// Load width/signedness (the funct3 of the LOAD opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadWidth {
    /// `lb` — sign-extended byte.
    B,
    /// `lh` — sign-extended halfword.
    H,
    /// `lw` — word.
    W,
    /// `lbu` — zero-extended byte.
    Bu,
    /// `lhu` — zero-extended halfword.
    Hu,
}

impl LoadWidth {
    fn funct3(self) -> u32 {
        match self {
            LoadWidth::B => 0b000,
            LoadWidth::H => 0b001,
            LoadWidth::W => 0b010,
            LoadWidth::Bu => 0b100,
            LoadWidth::Hu => 0b101,
        }
    }

    fn from_funct3(f: u32) -> Option<Self> {
        match f {
            0b000 => Some(LoadWidth::B),
            0b001 => Some(LoadWidth::H),
            0b010 => Some(LoadWidth::W),
            0b100 => Some(LoadWidth::Bu),
            0b101 => Some(LoadWidth::Hu),
            _ => None,
        }
    }

    /// All five widths.
    pub fn all() -> [LoadWidth; 5] {
        [
            LoadWidth::B,
            LoadWidth::H,
            LoadWidth::W,
            LoadWidth::Bu,
            LoadWidth::Hu,
        ]
    }
}

/// Store width (the funct3 of the STORE opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreWidth {
    /// `sb` — byte.
    B,
    /// `sh` — halfword.
    H,
    /// `sw` — word.
    W,
}

impl StoreWidth {
    fn funct3(self) -> u32 {
        match self {
            StoreWidth::B => 0b000,
            StoreWidth::H => 0b001,
            StoreWidth::W => 0b010,
        }
    }

    fn from_funct3(f: u32) -> Option<Self> {
        match f {
            0b000 => Some(StoreWidth::B),
            0b001 => Some(StoreWidth::H),
            0b010 => Some(StoreWidth::W),
            _ => None,
        }
    }

    /// All three widths.
    pub fn all() -> [StoreWidth; 3] {
        [StoreWidth::B, StoreWidth::H, StoreWidth::W]
    }
}

/// Register-immediate ALU operation (OP-IMM, excluding shifts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluImmOp {
    /// `addi`.
    Addi,
    /// `slti` — set if less-than, signed.
    Slti,
    /// `sltiu` — set if less-than, unsigned.
    Sltiu,
    /// `xori`.
    Xori,
    /// `ori`.
    Ori,
    /// `andi`.
    Andi,
}

impl AluImmOp {
    fn funct3(self) -> u32 {
        match self {
            AluImmOp::Addi => 0b000,
            AluImmOp::Slti => 0b010,
            AluImmOp::Sltiu => 0b011,
            AluImmOp::Xori => 0b100,
            AluImmOp::Ori => 0b110,
            AluImmOp::Andi => 0b111,
        }
    }

    fn from_funct3(f: u32) -> Option<Self> {
        match f {
            0b000 => Some(AluImmOp::Addi),
            0b010 => Some(AluImmOp::Slti),
            0b011 => Some(AluImmOp::Sltiu),
            0b100 => Some(AluImmOp::Xori),
            0b110 => Some(AluImmOp::Ori),
            0b111 => Some(AluImmOp::Andi),
            _ => None,
        }
    }

    /// All six operations.
    pub fn all() -> [AluImmOp; 6] {
        [
            AluImmOp::Addi,
            AluImmOp::Slti,
            AluImmOp::Sltiu,
            AluImmOp::Xori,
            AluImmOp::Ori,
            AluImmOp::Andi,
        ]
    }
}

/// Immediate shift operation (OP-IMM, funct3 001/101).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftOp {
    /// `slli` — logical left.
    Sll,
    /// `srli` — logical right.
    Srl,
    /// `srai` — arithmetic right.
    Sra,
}

impl ShiftOp {
    /// All three shifts.
    pub fn all() -> [ShiftOp; 3] {
        [ShiftOp::Sll, ShiftOp::Srl, ShiftOp::Sra]
    }
}

/// Register-register ALU operation (the OP opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `add`.
    Add,
    /// `sub`.
    Sub,
    /// `sll` — logical left shift by `rs2 & 31`.
    Sll,
    /// `slt` — set if less-than, signed.
    Slt,
    /// `sltu` — set if less-than, unsigned.
    Sltu,
    /// `xor`.
    Xor,
    /// `srl` — logical right shift.
    Srl,
    /// `sra` — arithmetic right shift.
    Sra,
    /// `or`.
    Or,
    /// `and`.
    And,
}

impl AluOp {
    /// (funct3, funct7) per the RV32I OP encoding table.
    fn functs(self) -> (u32, u32) {
        match self {
            AluOp::Add => (0b000, 0b0000000),
            AluOp::Sub => (0b000, 0b0100000),
            AluOp::Sll => (0b001, 0b0000000),
            AluOp::Slt => (0b010, 0b0000000),
            AluOp::Sltu => (0b011, 0b0000000),
            AluOp::Xor => (0b100, 0b0000000),
            AluOp::Srl => (0b101, 0b0000000),
            AluOp::Sra => (0b101, 0b0100000),
            AluOp::Or => (0b110, 0b0000000),
            AluOp::And => (0b111, 0b0000000),
        }
    }

    fn from_functs(funct3: u32, funct7: u32) -> Option<Self> {
        match (funct3, funct7) {
            (0b000, 0b0000000) => Some(AluOp::Add),
            (0b000, 0b0100000) => Some(AluOp::Sub),
            (0b001, 0b0000000) => Some(AluOp::Sll),
            (0b010, 0b0000000) => Some(AluOp::Slt),
            (0b011, 0b0000000) => Some(AluOp::Sltu),
            (0b100, 0b0000000) => Some(AluOp::Xor),
            (0b101, 0b0000000) => Some(AluOp::Srl),
            (0b101, 0b0100000) => Some(AluOp::Sra),
            (0b110, 0b0000000) => Some(AluOp::Or),
            (0b111, 0b0000000) => Some(AluOp::And),
            _ => None,
        }
    }

    /// All ten operations.
    pub fn all() -> [AluOp; 10] {
        [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Sll,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Xor,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Or,
            AluOp::And,
        ]
    }
}

/// A decoded RV32I instruction.
///
/// Immediates are held in their natural signed byte units: branch and jump
/// offsets are byte offsets relative to the instruction's own PC, load and
/// store offsets are byte offsets from `rs1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `lui rd, imm20` — `rd = imm20 << 12`.
    Lui {
        /// Destination register.
        rd: Reg,
        /// Upper 20 immediate bits (0–0xFFFFF).
        imm20: u32,
    },
    /// `auipc rd, imm20` — `rd = pc + (imm20 << 12)`.
    Auipc {
        /// Destination register.
        rd: Reg,
        /// Upper 20 immediate bits (0–0xFFFFF).
        imm20: u32,
    },
    /// `jal rd, offset` — `rd = pc + 4; pc += offset`.
    Jal {
        /// Link register.
        rd: Reg,
        /// Byte offset, even, within ±1 MiB.
        offset: i32,
    },
    /// `jalr rd, rs1, offset` — `rd = pc + 4; pc = (rs1 + offset) & !1`.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Conditional branch, `pc += offset` when the comparison holds.
    Branch {
        /// Comparison.
        cond: BranchCond,
        /// Left operand register.
        rs1: Reg,
        /// Right operand register.
        rs2: Reg,
        /// Byte offset, even, within ±4 KiB.
        offset: i32,
    },
    /// Memory load, `rd = mem[rs1 + offset]`.
    Load {
        /// Width and sign extension.
        width: LoadWidth,
        /// Destination register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Memory store, `mem[rs1 + offset] = rs2`.
    Store {
        /// Width.
        width: StoreWidth,
        /// Base register.
        rs1: Reg,
        /// Source register.
        rs2: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Register-immediate ALU operation.
    AluImm {
        /// Operation.
        op: AluImmOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Signed 12-bit immediate.
        imm: i32,
    },
    /// Immediate shift (`slli`/`srli`/`srai`).
    Shift {
        /// Shift kind.
        op: ShiftOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Shift amount, 0–31.
        shamt: u8,
    },
    /// Register-register ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Left operand register.
        rs1: Reg,
        /// Right operand register.
        rs2: Reg,
    },
    /// `fence` — a no-op on this in-order core (canonical word only).
    Fence,
    /// `ecall` — environment call (see the ECALL convention in [`crate::Cpu`]).
    Ecall,
    /// `ebreak` — debugger breakpoint; latches a detection.
    Ebreak,
}

const OPC_LUI: u32 = 0b0110111;
const OPC_AUIPC: u32 = 0b0010111;
const OPC_JAL: u32 = 0b1101111;
const OPC_JALR: u32 = 0b1100111;
const OPC_BRANCH: u32 = 0b1100011;
const OPC_LOAD: u32 = 0b0000011;
const OPC_STORE: u32 = 0b0100011;
const OPC_OP_IMM: u32 = 0b0010011;
const OPC_OP: u32 = 0b0110011;
const WORD_FENCE: u32 = 0x0000_000F;
const WORD_ECALL: u32 = 0x0000_0073;
const WORD_EBREAK: u32 = 0x0010_0073;

/// A word that is not a legal RV32I instruction under the strict decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The offending instruction word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "illegal instruction word {:#010x}", self.word)
    }
}

impl Error for DecodeError {}

fn reg_at(word: u32, lsb: u32) -> Reg {
    Reg(((word >> lsb) & 0x1F) as u8)
}

/// Sign-extends the low `bits` bits of `value`.
fn sext(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

fn i_imm(word: u32) -> i32 {
    sext(word >> 20, 12)
}

fn s_imm(word: u32) -> i32 {
    sext(((word >> 25) << 5) | ((word >> 7) & 0x1F), 12)
}

fn b_imm(word: u32) -> i32 {
    let imm = ((word >> 31) & 1) << 12
        | ((word >> 7) & 1) << 11
        | ((word >> 25) & 0x3F) << 5
        | ((word >> 8) & 0xF) << 1;
    sext(imm, 13)
}

fn j_imm(word: u32) -> i32 {
    let imm = ((word >> 31) & 1) << 20
        | ((word >> 12) & 0xFF) << 12
        | ((word >> 20) & 1) << 11
        | ((word >> 21) & 0x3FF) << 1;
    sext(imm, 21)
}

/// Range-checks a signed immediate that must fit `bits` bits.
fn check_signed(value: i32, bits: u32, what: &str) -> u32 {
    let min = -(1i32 << (bits - 1));
    let max = (1i32 << (bits - 1)) - 1;
    assert!(
        (min..=max).contains(&value),
        "{what} {value} does not fit {bits} signed bits"
    );
    (value as u32) & ((1u32 << bits) - 1)
}

/// Encodes an instruction to its unique RV32I word.
///
/// # Panics
///
/// Panics when a field is out of range: a 20-bit upper immediate above
/// `0xFFFFF`, a signed immediate that does not fit its field, an odd
/// branch/jump offset, or a shift amount above 31. (Construction through
/// [`decode`] always yields in-range fields.)
pub fn encode(instr: Instr) -> u32 {
    match instr {
        Instr::Lui { rd, imm20 } => {
            assert!(imm20 <= 0xF_FFFF, "upper immediate {imm20:#x} too wide");
            (imm20 << 12) | ((rd.0 as u32) << 7) | OPC_LUI
        }
        Instr::Auipc { rd, imm20 } => {
            assert!(imm20 <= 0xF_FFFF, "upper immediate {imm20:#x} too wide");
            (imm20 << 12) | ((rd.0 as u32) << 7) | OPC_AUIPC
        }
        Instr::Jal { rd, offset } => {
            assert!(offset % 2 == 0, "jal offset {offset} is odd");
            let imm = check_signed(offset, 21, "jal offset");
            let word = ((imm >> 20) & 1) << 31
                | ((imm >> 1) & 0x3FF) << 21
                | ((imm >> 11) & 1) << 20
                | ((imm >> 12) & 0xFF) << 12;
            word | ((rd.0 as u32) << 7) | OPC_JAL
        }
        Instr::Jalr { rd, rs1, offset } => {
            let imm = check_signed(offset, 12, "jalr offset");
            (imm << 20) | ((rs1.0 as u32) << 15) | ((rd.0 as u32) << 7) | OPC_JALR
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => {
            assert!(offset % 2 == 0, "branch offset {offset} is odd");
            let imm = check_signed(offset, 13, "branch offset");
            ((imm >> 12) & 1) << 31
                | ((imm >> 5) & 0x3F) << 25
                | ((rs2.0 as u32) << 20)
                | ((rs1.0 as u32) << 15)
                | (cond.funct3() << 12)
                | ((imm >> 1) & 0xF) << 8
                | ((imm >> 11) & 1) << 7
                | OPC_BRANCH
        }
        Instr::Load {
            width,
            rd,
            rs1,
            offset,
        } => {
            let imm = check_signed(offset, 12, "load offset");
            (imm << 20)
                | ((rs1.0 as u32) << 15)
                | (width.funct3() << 12)
                | ((rd.0 as u32) << 7)
                | OPC_LOAD
        }
        Instr::Store {
            width,
            rs1,
            rs2,
            offset,
        } => {
            let imm = check_signed(offset, 12, "store offset");
            ((imm >> 5) << 25)
                | ((rs2.0 as u32) << 20)
                | ((rs1.0 as u32) << 15)
                | (width.funct3() << 12)
                | ((imm & 0x1F) << 7)
                | OPC_STORE
        }
        Instr::AluImm { op, rd, rs1, imm } => {
            let imm = check_signed(imm, 12, "immediate");
            (imm << 20)
                | ((rs1.0 as u32) << 15)
                | (op.funct3() << 12)
                | ((rd.0 as u32) << 7)
                | OPC_OP_IMM
        }
        Instr::Shift { op, rd, rs1, shamt } => {
            assert!(shamt < 32, "shift amount {shamt} out of range");
            let (funct3, funct7) = match op {
                ShiftOp::Sll => (0b001, 0b0000000),
                ShiftOp::Srl => (0b101, 0b0000000),
                ShiftOp::Sra => (0b101, 0b0100000),
            };
            (funct7 << 25)
                | ((shamt as u32) << 20)
                | ((rs1.0 as u32) << 15)
                | (funct3 << 12)
                | ((rd.0 as u32) << 7)
                | OPC_OP_IMM
        }
        Instr::Alu { op, rd, rs1, rs2 } => {
            let (funct3, funct7) = op.functs();
            (funct7 << 25)
                | ((rs2.0 as u32) << 20)
                | ((rs1.0 as u32) << 15)
                | (funct3 << 12)
                | ((rd.0 as u32) << 7)
                | OPC_OP
        }
        Instr::Fence => WORD_FENCE,
        Instr::Ecall => WORD_ECALL,
        Instr::Ebreak => WORD_EBREAK,
    }
}

/// Decodes an RV32I word; strict, so `encode(decode(w)?) == w`.
///
/// # Errors
///
/// Returns [`DecodeError`] for every word outside the 40-instruction set,
/// including reserved funct fields and non-canonical FENCE/SYSTEM forms.
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    let err = Err(DecodeError { word });
    let opcode = word & 0x7F;
    let rd = reg_at(word, 7);
    let rs1 = reg_at(word, 15);
    let rs2 = reg_at(word, 20);
    let funct3 = (word >> 12) & 0x7;
    let funct7 = word >> 25;
    match opcode {
        OPC_LUI => Ok(Instr::Lui {
            rd,
            imm20: word >> 12,
        }),
        OPC_AUIPC => Ok(Instr::Auipc {
            rd,
            imm20: word >> 12,
        }),
        OPC_JAL => Ok(Instr::Jal {
            rd,
            offset: j_imm(word),
        }),
        OPC_JALR => {
            if funct3 != 0 {
                return err;
            }
            Ok(Instr::Jalr {
                rd,
                rs1,
                offset: i_imm(word),
            })
        }
        OPC_BRANCH => match BranchCond::from_funct3(funct3) {
            Some(cond) => Ok(Instr::Branch {
                cond,
                rs1,
                rs2,
                offset: b_imm(word),
            }),
            None => err,
        },
        OPC_LOAD => match LoadWidth::from_funct3(funct3) {
            Some(width) => Ok(Instr::Load {
                width,
                rd,
                rs1,
                offset: i_imm(word),
            }),
            None => err,
        },
        OPC_STORE => match StoreWidth::from_funct3(funct3) {
            Some(width) => Ok(Instr::Store {
                width,
                rs1,
                rs2,
                offset: s_imm(word),
            }),
            None => err,
        },
        OPC_OP_IMM => match funct3 {
            0b001 if funct7 == 0 => Ok(Instr::Shift {
                op: ShiftOp::Sll,
                rd,
                rs1,
                shamt: rs2.0,
            }),
            0b101 if funct7 == 0 => Ok(Instr::Shift {
                op: ShiftOp::Srl,
                rd,
                rs1,
                shamt: rs2.0,
            }),
            0b101 if funct7 == 0b0100000 => Ok(Instr::Shift {
                op: ShiftOp::Sra,
                rd,
                rs1,
                shamt: rs2.0,
            }),
            0b001 | 0b101 => err,
            _ => match AluImmOp::from_funct3(funct3) {
                Some(op) => Ok(Instr::AluImm {
                    op,
                    rd,
                    rs1,
                    imm: i_imm(word),
                }),
                None => err,
            },
        },
        OPC_OP => match AluOp::from_functs(funct3, funct7) {
            Some(op) => Ok(Instr::Alu { op, rd, rs1, rs2 }),
            None => err,
        },
        _ if word == WORD_FENCE => Ok(Instr::Fence),
        _ if word == WORD_ECALL => Ok(Instr::Ecall),
        _ if word == WORD_EBREAK => Ok(Instr::Ebreak),
        _ => err,
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Lui { rd, imm20 } => write!(f, "lui {rd}, {imm20:#x}"),
            Instr::Auipc { rd, imm20 } => write!(f, "auipc {rd}, {imm20:#x}"),
            Instr::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Instr::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let m = match cond {
                    BranchCond::Eq => "beq",
                    BranchCond::Ne => "bne",
                    BranchCond::Lt => "blt",
                    BranchCond::Ge => "bge",
                    BranchCond::Ltu => "bltu",
                    BranchCond::Geu => "bgeu",
                };
                write!(f, "{m} {rs1}, {rs2}, {offset}")
            }
            Instr::Load {
                width,
                rd,
                rs1,
                offset,
            } => {
                let m = match width {
                    LoadWidth::B => "lb",
                    LoadWidth::H => "lh",
                    LoadWidth::W => "lw",
                    LoadWidth::Bu => "lbu",
                    LoadWidth::Hu => "lhu",
                };
                write!(f, "{m} {rd}, {offset}({rs1})")
            }
            Instr::Store {
                width,
                rs1,
                rs2,
                offset,
            } => {
                let m = match width {
                    StoreWidth::B => "sb",
                    StoreWidth::H => "sh",
                    StoreWidth::W => "sw",
                };
                write!(f, "{m} {rs2}, {offset}({rs1})")
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let m = match op {
                    AluImmOp::Addi => "addi",
                    AluImmOp::Slti => "slti",
                    AluImmOp::Sltiu => "sltiu",
                    AluImmOp::Xori => "xori",
                    AluImmOp::Ori => "ori",
                    AluImmOp::Andi => "andi",
                };
                write!(f, "{m} {rd}, {rs1}, {imm}")
            }
            Instr::Shift { op, rd, rs1, shamt } => {
                let m = match op {
                    ShiftOp::Sll => "slli",
                    ShiftOp::Srl => "srli",
                    ShiftOp::Sra => "srai",
                };
                write!(f, "{m} {rd}, {rs1}, {shamt}")
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let m = match op {
                    AluOp::Add => "add",
                    AluOp::Sub => "sub",
                    AluOp::Sll => "sll",
                    AluOp::Slt => "slt",
                    AluOp::Sltu => "sltu",
                    AluOp::Xor => "xor",
                    AluOp::Srl => "srl",
                    AluOp::Sra => "sra",
                    AluOp::Or => "or",
                    AluOp::And => "and",
                };
                write!(f, "{m} {rd}, {rs1}, {rs2}")
            }
            Instr::Fence => f.write_str("fence"),
            Instr::Ecall => f.write_str("ecall"),
            Instr::Ebreak => f.write_str("ebreak"),
        }
    }
}

#[cfg(test)]
mod rv32i_tests {
    use super::*;

    #[test]
    fn known_words_decode() {
        // Hand-assembled reference words (checked against the RV32I spec).
        assert_eq!(
            decode(0x0000_0513).unwrap(), // addi x10, x0, 0
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::X0,
                imm: 0
            }
        );
        assert_eq!(
            decode(0x0062_8233).unwrap(), // add x4, x5, x6
            Instr::Alu {
                op: AluOp::Add,
                rd: Reg::new(4),
                rs1: Reg::new(5),
                rs2: Reg::new(6)
            }
        );
        assert_eq!(
            decode(0xFE20_8EE3).unwrap(), // beq x1, x2, -4
            Instr::Branch {
                cond: BranchCond::Eq,
                rs1: Reg::RA,
                rs2: Reg::SP,
                offset: -4
            }
        );
        assert_eq!(decode(WORD_ECALL).unwrap(), Instr::Ecall);
        assert_eq!(decode(WORD_EBREAK).unwrap(), Instr::Ebreak);
        assert_eq!(decode(WORD_FENCE).unwrap(), Instr::Fence);
    }

    #[test]
    fn representative_roundtrips() {
        let cases = [
            Instr::Lui {
                rd: Reg::new(31),
                imm20: 0xF_FFFF,
            },
            Instr::Auipc {
                rd: Reg::X0,
                imm20: 1,
            },
            Instr::Jal {
                rd: Reg::RA,
                offset: -1048576,
            },
            Instr::Jalr {
                rd: Reg::X0,
                rs1: Reg::RA,
                offset: -2048,
            },
            Instr::Branch {
                cond: BranchCond::Geu,
                rs1: Reg::new(7),
                rs2: Reg::new(8),
                offset: 4094,
            },
            Instr::Load {
                width: LoadWidth::Hu,
                rd: Reg::new(9),
                rs1: Reg::new(10),
                offset: 2047,
            },
            Instr::Store {
                width: StoreWidth::B,
                rs1: Reg::new(11),
                rs2: Reg::new(12),
                offset: -1,
            },
            Instr::Shift {
                op: ShiftOp::Sra,
                rd: Reg::new(13),
                rs1: Reg::new(14),
                shamt: 31,
            },
            Instr::Fence,
        ];
        for instr in cases {
            assert_eq!(decode(encode(instr)), Ok(instr), "{instr}");
        }
    }

    #[test]
    fn reserved_encodings_are_illegal() {
        // BRANCH funct3 010/011 are reserved.
        assert!(decode(OPC_BRANCH | 0b010 << 12).is_err());
        // LOAD funct3 011/110/111 are reserved.
        assert!(decode(OPC_LOAD | 0b011 << 12).is_err());
        // STORE funct3 011 is reserved.
        assert!(decode(OPC_STORE | 0b011 << 12).is_err());
        // JALR requires funct3 000.
        assert!(decode(OPC_JALR | 0b001 << 12).is_err());
        // slli with a set funct7 bit is reserved.
        assert!(decode((1 << 25) | 0b001 << 12 | OPC_OP_IMM).is_err());
        // OP with a stray funct7 is reserved (mul would live here in M).
        assert!(decode((0b0000001 << 25) | OPC_OP).is_err());
        // Non-canonical fence/ecall forms.
        assert!(decode(WORD_FENCE | 0x0FF0_0000).is_err());
        // A system instruction with a set rd field is non-canonical (note
        // that WORD_ECALL | 1 << 20 would be EBREAK itself, not reserved).
        assert!(decode(WORD_ECALL | 1 << 7).is_err());
        assert!(decode(WORD_ECALL | 2 << 20).is_err());
        // The all-zero and all-one words (the classic dead-bus patterns).
        assert!(decode(0).is_err());
        assert!(decode(u32::MAX).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            encode(Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::X0,
                imm: 42
            }),
            0x02A0_0513
        );
        let i = decode(0x02A0_0513).unwrap();
        assert_eq!(i.to_string(), "addi x10, x0, 42");
        assert_eq!(decode(WORD_EBREAK).unwrap().to_string(), "ebreak");
    }
}
