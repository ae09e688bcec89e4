//! A small cycle-counting RV32I core — GOOFI's second target system.
//!
//! The paper's central claim is that GOOFI is *generic*: any target ported
//! through the `Framework` template gets the campaign algorithms, database
//! and analysis for free. The `thor` crate is the first target (the CPU the
//! paper actually drives); this crate is the deliberately different second
//! one, used to prove the claim by construction:
//!
//! * a standard ISA (the 40 instructions of RV32I: LUI/AUIPC, JAL/JALR,
//!   branches, loads/stores, ALU ops, FENCE, ECALL, EBREAK) instead of
//!   Thor's bespoke one — byte-addressed PC, no condition flags;
//! * machine-code workloads built with [`encode`] instead of an assembler;
//! * an ECALL environment convention (halt, sync, port I/O, assertions)
//!   instead of dedicated instructions;
//! * the same scan-chain test logic: internal, boundary and debug chains
//!   over the `scanchain` TAP machinery, with the read-only/writable split
//!   the paper describes ([`Cpu`] implements [`scanchain::ScanTarget`]).
//!
//! # Quick start
//!
//! ```
//! use riscv::{encode, Cpu, Image, Instr, Reg, StopReason};
//!
//! // x10 = 40 + 2; mem[word 64] = x10; halt.
//! let words = vec![
//!     encode(Instr::AluImm { op: riscv::AluImmOp::Addi, rd: Reg::A0, rs1: Reg::X0, imm: 40 }),
//!     encode(Instr::AluImm { op: riscv::AluImmOp::Addi, rd: Reg::A0, rs1: Reg::A0, imm: 2 }),
//!     encode(Instr::Store { width: riscv::StoreWidth::W, rs1: Reg::X0, rs2: Reg::A0, offset: 256 }),
//!     encode(Instr::AluImm { op: riscv::AluImmOp::Addi, rd: Reg::A7, rs1: Reg::X0, imm: 0 }),
//!     encode(Instr::Ecall),
//! ];
//! let image = Image { words, code_words: 5, entry: 0 };
//! let mut cpu = Cpu::new(Default::default());
//! cpu.load_image(&image).unwrap();
//! assert_eq!(cpu.run(1_000), StopReason::Halted);
//! assert_eq!(cpu.memory().read_raw(64).unwrap(), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod isa;
pub mod scan;

pub use cpu::{
    Cpu, CpuConfig, Detection, Image, Rv32iIsa, StopReason, ECALL_ASSERT, ECALL_HALT, ECALL_IN,
    ECALL_OUT, ECALL_SYNC,
};
pub use isa::{
    decode, encode, AluImmOp, AluOp, BranchCond, DecodeError, Instr, LoadWidth, Reg, ShiftOp,
    StoreWidth,
};
pub use scan::ChainSet;
pub use scanchain::{Memory, MemoryError, PAGE_WORDS, PORT_COUNT};
