//! Property-based tests for the CPU substrate.

use proptest::prelude::*;
use scanchain::{AccessLog, BitVec, ScanTarget, TestCard};
use thor::{asm, decode, encode, Cpu, CpuConfig, Instr, Opcode, Reg, StopReason};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg::new)
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    let ops = Opcode::all().to_vec();
    (0..ops.len(), arb_reg(), arb_reg(), arb_reg(), any::<i16>()).prop_map(
        move |(i, rd, rs1, rs2, imm)| {
            let op = ops[i];
            if Instr::uses_imm(op) {
                Instr::i(op, rd, rs1, imm)
            } else {
                Instr::r(op, rd, rs1, rs2)
            }
        },
    )
}

proptest! {
    #[test]
    fn instruction_encode_decode_roundtrip(instr in arb_instr()) {
        prop_assert_eq!(decode(encode(instr)).unwrap(), instr);
    }

    #[test]
    fn decode_is_stable_under_reencoding(word: u32) {
        // Arbitrary words either fail to decode (illegal opcode) or decode
        // to an instruction whose canonical encoding decodes identically.
        if let Ok(instr) = decode(word) {
            prop_assert_eq!(decode(encode(instr)).unwrap(), instr);
        }
    }

    #[test]
    fn sorting_random_data_on_cpu(mut data in proptest::collection::vec(0u32..100_000, 2..24)) {
        // Generate a bubble-sort program over the given data.
        let n = data.len();
        let words: Vec<String> = data.iter().map(u32::to_string).collect();
        let src = format!(
            r"
        .equ N, {n}
                ldi r1, 0
                li  r3, arr
        outer:
                ldi r2, 0
        inner:
                ldx r4, r3, r2
                addi r5, r2, 1
                ldx r6, r3, r5
                cmp r4, r6
                ble noswap
                stx r3, r2, r6
                stx r3, r5, r4
        noswap:
                addi r2, r2, 1
                cmpi r2, N-1
                blt inner
                addi r1, r1, 1
                cmpi r1, N-1
                blt outer
                halt
        .data
        arr:    .word {words}
        ",
            n = n,
            words = words.join(", "),
        );
        let image = asm::assemble(&src).unwrap();
        let arr = image.label("arr").unwrap();
        let mut cpu = Cpu::new(CpuConfig {
            watchdog_cycles: Some(50_000_000),
            ..CpuConfig::default()
        });
        cpu.load_image(&image).unwrap();
        prop_assert_eq!(cpu.run(10_000_000), StopReason::Halted);
        let sorted = cpu.memory().read_block(arr, n).unwrap();
        data.sort_unstable();
        prop_assert_eq!(sorted, data);
    }

    #[test]
    fn register_scan_write_read_roundtrip(
        reg in 1u8..14,
        value: u32,
    ) {
        let mut card = TestCard::new(Cpu::new(CpuConfig::default()));
        card.init().unwrap();
        let cell = format!("R{reg}");
        card.write_cell("internal", &cell, value as u64).unwrap();
        prop_assert_eq!(card.read_cell("internal", &cell).unwrap(), value as u64);
        prop_assert_eq!(card.target().reg(Reg::new(reg)), value);
    }

    #[test]
    fn full_internal_chain_write_is_lossless_for_rw_cells(seed: u64) {
        let mut card = TestCard::new(Cpu::new(CpuConfig::default()));
        card.init().unwrap();
        let layout = card.target().chain_layout("internal").unwrap().clone();
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let image = scanchain::BitVec::from_bits(
            (0..layout.total_bits()).map(|_| next() & 1 == 1),
        );
        card.write_chain("internal", &image).unwrap();
        let read_back = card.read_chain("internal").unwrap();
        for cell in layout.writable_cells() {
            for bit in cell.bit_range() {
                prop_assert_eq!(
                    read_back.get(bit),
                    image.get(bit),
                    "cell {} bit {}",
                    &cell.name,
                    bit
                );
            }
        }
    }

    #[test]
    fn execution_is_deterministic_under_any_inputs(
        inputs in proptest::collection::vec(any::<u32>(), 4),
        n in 0u64..256,
    ) {
        // `run(n)`, n single steps and n logged steps must all end in the
        // same stop and the same architectural and cache state: the step
        // loop is inlined into `run`, and logging is compiled in or out.
        let image = asm::assemble(&workloads_source()).unwrap();
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
                chains(&cpu),
                cpu.cycles(),
                cpu.icache_stats(),
                cpu.dcache_stats(),
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

/// What every scan chain of `cpu` captures.
fn chains(cpu: &Cpu) -> Vec<BitVec> {
    cpu.chain_names()
        .iter()
        .map(|chain| cpu.capture_chain(chain).unwrap())
        .collect()
}

/// An input-driven program for the determinism property: `in[0] % 16`
/// passes of a loop with arithmetic (which may overflow), a store and a
/// load, the stack and a call, then the results on the output ports.
fn workloads_source() -> String {
    r"
        in   r1, 0
        in   r2, 1
        andi r3, r1, 15
        ldi  r4, 0
    loop:
        cmpi r3, 0
        ble  done
        add  r4, r4, r2
        st   r3, r4, 200
        ld   r5, r3, 200
        push r5
        pop  r6
        call twice
        subi r3, r3, 1
        br   loop
    done:
        out  0, r4
        xor  r7, r1, r2
        out  1, r7
        halt
    twice:
        add  r6, r6, r6
        ret
    "
    .to_string()
}

#[test]
fn disassembly_of_workloads_reassembles_equivalently() {
    // Every code word of every workload disassembles to text that, when
    // fed back through the assembler as a standalone instruction, encodes
    // to the original word (branch displacements are relative, so they are
    // checked in a zero-origin context).
    for wl in workloads_list() {
        for (addr, &word) in wl.0.iter().enumerate() {
            let text = thor::asm::disassemble(word);
            if text.starts_with(".word") {
                continue;
            }
            let op = decode(word).unwrap().opcode();
            if matches!(
                op,
                Opcode::Br
                    | Opcode::Beq
                    | Opcode::Bne
                    | Opcode::Blt
                    | Opcode::Bge
                    | Opcode::Bgt
                    | Opcode::Ble
                    | Opcode::Call
            ) {
                continue; // label-relative syntax differs from display form
            }
            let reassembled =
                asm::assemble(&text).unwrap_or_else(|e| panic!("word {addr} `{text}`: {e}"));
            assert_eq!(reassembled.words[0], word, "word {addr} `{text}`");
        }
    }
}

fn workloads_list() -> Vec<(Vec<u32>, String)> {
    // Reuse the asm test corpus: assemble a few known programs.
    let sources = [
        "ldi r1, 5\nadd r2, r1, r1\nst r0, r2, 40\nld r3, r0, 40\nhalt",
        "in r1, 0\nout 1, r1\nsync 3\ntrap 9",
        "push r1\npop r2\nmov r3, r2\nret",
    ];
    sources
        .iter()
        .map(|s| (asm::assemble(s).unwrap().words, s.to_string()))
        .collect()
}
