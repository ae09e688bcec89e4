//! Golden-trace tests for the RV32I workload library.
//!
//! Every constant here was computed by hand from the cycle model documented
//! on `riscv::Cpu` (base 1 cycle, +2 load/store, +1 taken branch, +2
//! `jal`/`jalr`) and cross-checked against an actual run. A fault-free run
//! of each workload must reproduce them bit-for-bit: the campaign layer's
//! golden-run cache, trigger fast-forward and pre-injection analysis all
//! assume the core is cycle-deterministic, so any drift in these numbers is
//! a regression even if the workload's *output* stays correct.

use riscv::{Cpu, CpuConfig, StopReason};
use scanchain::AccessLog;
use workloads::{
    riscv_by_name, riscv_fibonacci, riscv_memcpy, RiscvWorkload, RISCV_MEMCPY_DATA,
    RISCV_MEMCPY_WORDS,
};

/// `rv-fibonacci`: 5 main instructions, 88 recursive frames of 17 and 89
/// base cases of 3 (fib(11) = 89 leaves for n = 10).
const FIB_INSTRET: u64 = 1768;
const FIB_CYCLES: u64 = 3623;

/// `rv-memcpy`: 3 + 8*7 + 1 copy, 3 + 32*6 + 1 checksum, 3 tail.
const MEMCPY_INSTRET: u64 = 259;
const MEMCPY_CYCLES: u64 = 439;

fn run(w: &RiscvWorkload) -> Cpu {
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.load_image(&w.image).unwrap();
    assert_eq!(cpu.run(1_000_000), StopReason::Halted, "{}", w.name);
    cpu
}

#[test]
fn fibonacci_golden_counters_and_output() {
    let w = riscv_fibonacci();
    let cpu = run(&w);
    assert_eq!(cpu.instructions(), FIB_INSTRET);
    assert_eq!(cpu.cycles(), FIB_CYCLES);
    assert_eq!(cpu.iterations(), 0);
    assert_eq!(w.read_output(&cpu).unwrap(), vec![55]);
}

#[test]
fn memcpy_golden_counters_and_output() {
    let w = riscv_memcpy();
    let cpu = run(&w);
    assert_eq!(cpu.instructions(), MEMCPY_INSTRET);
    assert_eq!(cpu.cycles(), MEMCPY_CYCLES);
    let out = w.read_output(&cpu).unwrap();
    assert_eq!(&out[..RISCV_MEMCPY_WORDS as usize], &RISCV_MEMCPY_DATA);
    let byte_sum: u32 = RISCV_MEMCPY_DATA
        .iter()
        .flat_map(|word| word.to_le_bytes())
        .map(u32::from)
        .sum();
    assert_eq!(out[RISCV_MEMCPY_WORDS as usize], byte_sum);
}

#[test]
fn memcpy_golden_pc_trace_prefix() {
    // The first twelve fetches: prologue (words 0-2), one full copy
    // iteration (3-9), then back to the loop head for the second element.
    const PREFIX: [u32; 12] = [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 12, 16];
    let w = riscv_memcpy();
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.load_image(&w.image).unwrap();
    let mut log = AccessLog::default();
    for (i, expected_pc) in PREFIX.into_iter().enumerate() {
        assert!(
            cpu.step_logged(&mut log).is_none(),
            "early stop at step {i}"
        );
        assert_eq!(log.pc, expected_pc, "step {i}");
    }
}

#[test]
fn golden_runs_are_deterministic() {
    for w in workloads::riscv_all() {
        let a = run(&w);
        let b = run(&w);
        assert_eq!(a.instructions(), b.instructions(), "{}", w.name);
        assert_eq!(a.cycles(), b.cycles(), "{}", w.name);
        assert_eq!(
            w.read_output(&a).unwrap(),
            w.read_output(&b).unwrap(),
            "{}",
            w.name
        );
    }
}

#[test]
fn by_name_round_trips_the_registry() {
    for w in workloads::riscv_all() {
        let again = riscv_by_name(&w.name).expect(&w.name);
        assert_eq!(again.image, w.image, "{}", w.name);
    }
}
