//! Fault cases a wrong interpreter fast path would get wrong.
//!
//! The core keeps decoded instructions keyed by the fetched word and
//! checks cache parity only on lines written by scan since their last
//! fill. Each case changes an instruction word behind the core's back —
//! through memory, or through an I-cache scan write — and asserts that the
//! new word is what executes, and that parity still catches the scanned
//! line once the check is back on.

use scanchain::TestCard;
use thor::asm::assemble;
use thor::{Cpu, CpuConfig, Detection, Reg, StopReason};

/// Adds 1 to r1 (the `addi` at word [`ADDI`]) on each of three passes.
const LOOP: &str = r"
        ldi  r1, 0
        ldi  r2, 3
    loop:
        addi r1, r1, 1
        subi r2, r2, 1
        cmpi r2, 0
        bgt  loop
        halt
";
const ADDI: u32 = 2;
/// Bit 1 of the `addi` immediate: flipping it turns `+1` into `+3`.
const IMM_BIT: u32 = 1 << 1;

/// A core that has run the loop body once and is back at its head, with
/// the body in the I-cache and the decoded-instruction cache.
fn after_first_pass() -> Cpu {
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.load_image(&assemble(LOOP).unwrap()).unwrap();
    for _ in 0..6 {
        assert_eq!(cpu.step(), None);
    }
    assert_eq!(cpu.pc(), ADDI);
    assert_eq!(cpu.reg(Reg::new(1)), 1);
    cpu
}

#[test]
fn code_word_flip_runs_the_new_instruction() {
    let mut cpu = after_first_pass();
    // A SWIFI code flip, written as `ThorTarget::flip_memory_bit` does.
    cpu.memory_mut().flip_bit(ADDI, 1).unwrap();
    cpu.invalidate_cached(ADDI);
    assert_eq!(cpu.run(100), StopReason::Halted);
    // +1 on the first pass, +3 on each of the other two.
    assert_eq!(cpu.reg(Reg::new(1)), 7);
}

#[test]
fn icache_scan_flip_runs_unchecked_then_trips_parity() {
    let mut card = TestCard::new(after_first_pass());
    card.init().unwrap();
    // PSW bit 0 enables I-cache parity; turn it off by scan.
    card.flip_cell_bit("internal", "PSW", 0).unwrap();
    assert!(!card.target().edm().parity_i);
    // The `addi` sits in I-cache line ADDI % 32.
    let line = format!("L{ADDI}.DATA");
    let word = card.read_cell("icache", &line).unwrap();
    card.write_cell("icache", &line, word ^ u64::from(IMM_BIT))
        .unwrap();

    // Second pass: the corrupted `addi r1, r1, 3` runs unchecked.
    for _ in 0..4 {
        assert_eq!(card.target_mut().step(), None);
    }
    assert_eq!(card.target().reg(Reg::new(1)), 4);

    // Parity back on: the next hit of the scanned line is caught.
    card.flip_cell_bit("internal", "PSW", 0).unwrap();
    assert_eq!(
        card.target_mut().run(100),
        StopReason::Detected(Detection::ParityI)
    );
    assert_eq!(card.target().pc(), ADDI);
    assert_eq!(card.target().icache_stats().parity_errors, 1);
}
