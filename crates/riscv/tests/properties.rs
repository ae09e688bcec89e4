//! Property-based tests for the RV32I encoder/decoder and the illegal-
//! instruction trap.
//!
//! The conformance suite and the golden-trace tests both lean on the claim
//! that the decoder is *strict*: every one of the ~40 encodable
//! instructions round-trips `decode(encode(i)) == i`, every legal word
//! re-encodes to itself, and everything else traps deterministically.
//! These properties pin that claim down.

use proptest::prelude::*;
use riscv::{
    decode, encode, AluImmOp, AluOp, BranchCond, Cpu, CpuConfig, Detection, Image, Instr,
    LoadWidth, Reg, ShiftOp, StopReason, StoreWidth, ECALL_HALT, ECALL_IN, ECALL_OUT, PORT_COUNT,
};
use scanchain::AccessLog;

fn pick<T: std::fmt::Debug + Clone>(items: Vec<T>) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i].clone())
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

/// Signed immediate fitting 12 bits.
fn arb_imm12() -> impl Strategy<Value = i32> {
    -2048i32..2048
}

/// Even branch offset fitting 13 signed bits.
fn arb_branch_offset() -> impl Strategy<Value = i32> {
    (-(1i32 << 11)..(1i32 << 11)).prop_map(|half| half * 2)
}

/// Even jump offset fitting 21 signed bits.
fn arb_jal_offset() -> impl Strategy<Value = i32> {
    (-(1i32 << 19)..(1i32 << 19)).prop_map(|half| half * 2)
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (arb_reg(), 0u32..=0xF_FFFF).prop_map(|(rd, imm20)| Instr::Lui { rd, imm20 }),
        (arb_reg(), 0u32..=0xF_FFFF).prop_map(|(rd, imm20)| Instr::Auipc { rd, imm20 }),
        (arb_reg(), arb_jal_offset()).prop_map(|(rd, offset)| Instr::Jal { rd, offset }),
        (arb_reg(), arb_reg(), arb_imm12()).prop_map(|(rd, rs1, offset)| Instr::Jalr {
            rd,
            rs1,
            offset
        }),
        (
            pick(BranchCond::all().to_vec()),
            arb_reg(),
            arb_reg(),
            arb_branch_offset()
        )
            .prop_map(|(cond, rs1, rs2, offset)| Instr::Branch {
                cond,
                rs1,
                rs2,
                offset
            }),
        (
            pick(LoadWidth::all().to_vec()),
            arb_reg(),
            arb_reg(),
            arb_imm12()
        )
            .prop_map(|(width, rd, rs1, offset)| Instr::Load {
                width,
                rd,
                rs1,
                offset
            }),
        (
            pick(StoreWidth::all().to_vec()),
            arb_reg(),
            arb_reg(),
            arb_imm12()
        )
            .prop_map(|(width, rs1, rs2, offset)| Instr::Store {
                width,
                rs1,
                rs2,
                offset
            }),
        (
            pick(AluImmOp::all().to_vec()),
            arb_reg(),
            arb_reg(),
            arb_imm12()
        )
            .prop_map(|(op, rd, rs1, imm)| Instr::AluImm { op, rd, rs1, imm }),
        (pick(ShiftOp::all().to_vec()), arb_reg(), arb_reg(), 0u8..32)
            .prop_map(|(op, rd, rs1, shamt)| Instr::Shift { op, rd, rs1, shamt }),
        (pick(AluOp::all().to_vec()), arb_reg(), arb_reg(), arb_reg())
            .prop_map(|(op, rd, rs1, rs2)| Instr::Alu { op, rd, rs1, rs2 }),
        Just(Instr::Fence),
        Just(Instr::Ecall),
        Just(Instr::Ebreak),
    ]
}

/// The nine major opcodes plus the two canonical-word-only ones
/// (FENCE, SYSTEM). Any other low-7-bit pattern is structurally illegal.
const LEGAL_OPCODES: [u32; 11] = [
    0b0110111, 0b0010111, 0b1101111, 0b1100111, 0b1100011, 0b0000011, 0b0100011, 0b0010011,
    0b0110011, 0b0001111, 0b1110011,
];

fn arb_illegal_opcode_word() -> impl Strategy<Value = u32> {
    let illegal: Vec<u32> = (0..128).filter(|op| !LEGAL_OPCODES.contains(op)).collect();
    (0..illegal.len(), any::<u32>()).prop_map(move |(i, upper)| (upper & !0x7F) | illegal[i])
}

/// Runs `word` as the sole instruction of a fresh core and returns the
/// stop reason with the counter state it stopped at.
fn trap_fingerprint(word: u32) -> (StopReason, u64, u64) {
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.load_image(&Image {
        words: vec![word],
        code_words: 1,
        entry: 0,
    })
    .unwrap();
    let stop = cpu.run(10);
    (stop, cpu.instructions(), cpu.cycles())
}

fn addi(rd: u8, rs1: u8, imm: i32) -> u32 {
    encode(Instr::AluImm {
        op: AluImmOp::Addi,
        rd: Reg::new(rd),
        rs1: Reg::new(rs1),
        imm,
    })
}

fn jal(rd: u8, offset: i32) -> u32 {
    encode(Instr::Jal {
        rd: Reg::new(rd),
        offset,
    })
}

/// An input-driven program for the determinism property: `in[0] % 16`
/// passes of a loop with word and byte stores and loads and a call, then
/// the accumulated sum on output port 0. Data lives at byte 512 on.
fn port_loop_image() -> Image {
    const A0: u8 = 10;
    const A7: u8 = 17;
    let (s0, s1, t0, t1, t2, t3) = (8u8, 9u8, 5u8, 6u8, 7u8, 28u8);
    let r = Reg::new;
    let words = vec![
        addi(A7, 0, ECALL_IN as i32), // 0
        addi(A0, 0, 0),
        encode(Instr::Ecall), // a0 = in[0]
        encode(Instr::AluImm {
            op: AluImmOp::Andi,
            rd: r(s0),
            rs1: r(A0),
            imm: 15,
        }),
        addi(A0, 0, 1),
        encode(Instr::Ecall), // 5: a0 = in[1]
        addi(s1, A0, 0),
        addi(t0, 0, 0),
        // 8, loop: exit to `done` (word 18) when s0 == 0.
        encode(Instr::Branch {
            cond: BranchCond::Eq,
            rs1: r(s0),
            rs2: Reg::X0,
            offset: 40,
        }),
        encode(Instr::Alu {
            op: AluOp::Add,
            rd: r(t0),
            rs1: r(t0),
            rs2: r(s1),
        }),
        encode(Instr::Shift {
            op: ShiftOp::Sll,
            rd: r(t1),
            rs1: r(s0),
            shamt: 2,
        }),
        encode(Instr::Store {
            width: StoreWidth::W,
            rs1: r(t1),
            rs2: r(t0),
            offset: 512,
        }),
        encode(Instr::Load {
            width: LoadWidth::W,
            rd: r(t2),
            rs1: r(t1),
            offset: 512,
        }),
        encode(Instr::Store {
            width: StoreWidth::B,
            rs1: r(t1),
            rs2: r(t2),
            offset: 1025,
        }),
        encode(Instr::Load {
            width: LoadWidth::Bu,
            rd: r(t3),
            rs1: r(t1),
            offset: 1025,
        }),
        jal(1, 36), // 15: call `twice` (word 24)
        addi(s0, s0, -1),
        jal(0, -36), // back to `loop`
        // 18, done: out[0] = t0, then halt.
        addi(A7, 0, ECALL_OUT as i32),
        addi(A0, 0, 0),
        addi(11, t0, 0),
        encode(Instr::Ecall),
        addi(A7, 0, ECALL_HALT as i32),
        encode(Instr::Ecall),
        // 24, twice: t2 += t2.
        encode(Instr::Alu {
            op: AluOp::Add,
            rd: r(t2),
            rs1: r(t2),
            rs2: r(t2),
        }),
        encode(Instr::Jalr {
            rd: Reg::X0,
            rs1: Reg::RA,
            offset: 0,
        }),
    ];
    let code_words = words.len() as u32;
    Image {
        words,
        code_words,
        entry: 0,
    }
}

#[test]
fn port_loop_program_sums_its_input() {
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.load_image(&port_loop_image()).unwrap();
    cpu.set_in_port(0, 5);
    cpu.set_in_port(1, 7);
    assert_eq!(cpu.run(1000), StopReason::Halted);
    assert_eq!(cpu.out_port(0), 35);
    // The last pass (s0 = 1) stored the sum at byte 516 and its low byte
    // at byte 1029.
    assert_eq!(cpu.memory().read_block(129, 1).unwrap(), vec![35]);
    assert_eq!(cpu.memory().read_block(257, 1).unwrap(), vec![35 << 8]);
}

// Thor's `tests/properties.rs` has a property of the same name; the module
// keeps the two test names apart, and the unchanged function name keeps the
// cases the proptest stub derives from it.
mod rv32i {
    use super::*;

    proptest! {
        #[test]
        fn execution_is_deterministic_under_any_inputs(
            inputs in proptest::collection::vec(any::<u32>(), PORT_COUNT),
            n in 0u64..256,
        ) {
            // `run(n)`, n single steps and n logged steps must all end in the
            // same stop and the same architectural state: the step loop is
            // inlined into `run`, and logging is compiled in or out.
            let image = port_loop_image();
            let fresh = || {
                let mut cpu = Cpu::new(CpuConfig::default());
                cpu.load_image(&image).unwrap();
                for (port, v) in inputs.iter().enumerate() {
                    cpu.set_in_port(port, *v);
                }
                cpu
            };
            let end = |cpu: Cpu, stop: Option<StopReason>| {
                (
                    stop.unwrap_or(StopReason::InstrLimit),
                    (0..32).map(|i| cpu.reg(Reg::new(i))).collect::<Vec<_>>(),
                    cpu.pc(),
                    (0..PORT_COUNT).map(|p| cpu.out_port(p)).collect::<Vec<_>>(),
                    cpu.memory().read_block(128, 160).unwrap(),
                    cpu.detection(),
                    cpu.instructions(),
                    cpu.cycles(),
                )
            };
            let run = || {
                let mut cpu = fresh();
                let stop = cpu.run(n);
                end(cpu, Some(stop))
            };
            let ran = run();
            prop_assert_eq!(&ran, &run());

            let mut cpu = fresh();
            let stop = (0..n).find_map(|_| cpu.step());
            prop_assert_eq!(&ran, &end(cpu, stop));

            let mut cpu = fresh();
            let mut log = AccessLog::default();
            let stop = (0..n).find_map(|_| cpu.step_logged(&mut log));
            prop_assert_eq!(&ran, &end(cpu, stop));
        }
    }
}

proptest! {
    #[test]
    fn every_encodable_instruction_round_trips(instr in arb_instr()) {
        let word = encode(instr);
        prop_assert_eq!(decode(word), Ok(instr));
        // Strictness: the canonical word is a fixed point of re-encoding.
        prop_assert_eq!(encode(decode(word).unwrap()), word);
    }

    #[test]
    fn decode_is_total_and_stable(word: u32) {
        // Decoding any word never panics, is reproducible, and legal words
        // re-encode to themselves (the decoder accepts canonical forms
        // only, so `decode` and `encode` are mutually inverse bijections
        // between the legal-word set and the instruction set).
        let first = decode(word);
        prop_assert_eq!(decode(word), first);
        if let Ok(instr) = first {
            prop_assert_eq!(encode(instr), word);
        }
    }

    #[test]
    fn illegal_opcodes_trap_deterministically(word in arb_illegal_opcode_word()) {
        prop_assert!(decode(word).is_err());
        let fp = trap_fingerprint(word);
        prop_assert_eq!(fp.0, StopReason::Detected(Detection::IllegalInstr));
        // Trapping is part of the deterministic trace: same stop, same
        // counters, every time.
        prop_assert_eq!(trap_fingerprint(word), fp);
    }

    #[test]
    fn undecodable_words_always_trap_as_illegal(word: u32) {
        // Beyond structurally-illegal opcodes: ANY word the strict decoder
        // rejects (reserved funct fields, non-canonical FENCE/SYSTEM) must
        // latch IllegalInstr rather than execute as something else.
        if decode(word).is_err() {
            let (stop, instret, _) = trap_fingerprint(word);
            prop_assert_eq!(stop, StopReason::Detected(Detection::IllegalInstr));
            prop_assert_eq!(instret, 0); // trapped before retiring
        }
    }
}
