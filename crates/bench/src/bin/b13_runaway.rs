//! B13 — the run loop on runaway suffixes.
//!
//! A campaign's time-outs retire its whole instruction budget inside the
//! simulator, so the run loop's cost per instruction bounds how fast they
//! end. This replay times exactly that loop, on a bare core, with no
//! campaign machinery around it:
//!
//! 1. for each shipped terminating program on both CPUs, run the
//!    fault-free reference;
//! 2. draw seeded internal-chain flips at uniform instants of it (seed
//!    0xE1), and keep the post-injection states whose suffix times out at
//!    the 500,000-instruction budget (or at the watchdog first);
//! 3. time only `Core::run` on each kept state, best of three passes.
//!
//! Per program it prints the time-outs, the instructions they retire, ns
//! per instruction, and an FNV-1a digest of every end state (stop, cycles,
//! pc, ICOUNT and all of memory), so two builds can be checked to end every
//! run identically. It draws 2,000 flips per program; `--quick` (CI's
//! perf-smoke step) draws 300 over two programs and times one pass.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scanchain::{Core, IsaChains, ScanTarget, StopReason};
use std::time::{Duration, Instant};
use workloads::WorkloadKind;

const SEED: u64 = 0xE1;
/// The instruction budget goofibench's and the E-series campaigns use.
const BUDGET: u64 = 500_000;
/// Flips drawn per program, and timed passes over its runaways.
const FLIPS: usize = 2_000;
const REPS: usize = 3;

/// One program's replay.
struct Replay {
    timeouts: usize,
    instructions: u64,
    elapsed: Duration,
    digest: u64,
}

/// FNV-1a, folded a word at a time.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Replays `flips` seeded flips on the program `fresh` loads.
fn replay<I: IsaChains>(
    name: &str,
    fresh: impl Fn() -> Core<I>,
    flips: usize,
    reps: usize,
) -> Replay {
    let mut golden = fresh();
    let len = {
        let mut end = golden.clone();
        assert_eq!(end.run(BUDGET), StopReason::Halted, "{name}: reference");
        end.instret
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let chain_len = golden
        .capture_chain("internal")
        .expect("internal chain")
        .len();
    let mut draws: Vec<(u64, usize)> = (0..flips)
        .map(|_| (rng.gen_range(0..len), rng.gen_range(0..chain_len)))
        .collect();
    draws.sort_unstable();

    // The post-injection states whose suffix runs away.
    let mut runaways = Vec::new();
    for (at, bit) in draws {
        golden.run(at - golden.instret);
        let mut bits = golden.capture_chain("internal").expect("internal chain");
        bits.flip(bit);
        let mut state = golden.clone();
        state.update_chain("internal", &bits).expect("same layout");
        if matches!(
            state.clone().run(BUDGET),
            StopReason::InstrLimit | StopReason::Timeout
        ) {
            runaways.push(state);
        }
    }

    let mut best: Option<Replay> = None;
    for _ in 0..reps {
        let mut pass = Replay {
            timeouts: runaways.len(),
            instructions: 0,
            elapsed: Duration::ZERO,
            digest: 0xCBF2_9CE4_8422_2325,
        };
        let mut fnv = Fnv(pass.digest);
        for state in &runaways {
            let mut cpu = state.clone();
            let started = Instant::now();
            let stop = cpu.run(BUDGET);
            pass.elapsed += started.elapsed();
            pass.instructions += cpu.instret - state.instret;
            for b in format!("{stop:?}").bytes() {
                fnv.word(u64::from(b));
            }
            fnv.word(cpu.cycles);
            fnv.word(u64::from(cpu.pc));
            fnv.word(cpu.debug_unit().instruction_count());
            let mem = cpu.memory();
            for page in 0..mem.page_count() {
                for &w in mem.page_words(page) {
                    fnv.word(u64::from(w));
                }
            }
        }
        pass.digest = fnv.0;
        if best.as_ref().is_none_or(|b| pass.elapsed < b.elapsed) {
            best = Some(pass);
        }
    }
    best.expect("at least one pass")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = match args.as_slice() {
        [] => false,
        [flag] if flag == "--quick" => true,
        _ => panic!("usage: b13_runaway [--quick]"),
    };
    let (flips, reps) = if quick { (300, 1) } else { (FLIPS, REPS) };
    println!(
        "B13: runaway suffixes at the {BUDGET}-instruction budget, {flips} internal-chain flips \
         per program (seed {SEED:#x}), best of {reps}\n"
    );
    println!(
        "{:<14} {:<6} {:>9} {:>13} {:>9}  end-state digest",
        "program", "cpu", "time-outs", "instructions", "ns/instr"
    );
    let mut totals: Vec<(&str, u64, Duration)> = Vec::new();
    let mut row = |cpu: &'static str, name: &str, r: Replay| {
        let ns = r.elapsed.as_nanos() as f64 / r.instructions.max(1) as f64;
        println!(
            "{name:<14} {cpu:<6} {:>9} {:>13} {ns:>9.2}  {:016x}",
            r.timeouts, r.instructions, r.digest
        );
        match totals.iter_mut().find(|t| t.0 == cpu) {
            Some(t) => {
                t.1 += r.instructions;
                t.2 += r.elapsed;
            }
            None => totals.push((cpu, r.instructions, r.elapsed)),
        }
    };

    for w in workloads::all() {
        if w.kind != WorkloadKind::Terminating || (quick && w.name != "crc32") {
            continue;
        }
        let fresh = || {
            let mut cpu = thor::Cpu::new(thor::CpuConfig::default());
            cpu.load_image(&w.image).expect("image fits");
            cpu
        };
        row("thor", &w.name, replay(&w.name, fresh, flips, reps));
    }
    for w in workloads::riscv_all() {
        if w.kind != WorkloadKind::Terminating || (quick && w.name != "rv-memcpy") {
            continue;
        }
        let fresh = || {
            let mut cpu = riscv::Cpu::new(riscv::CpuConfig::default());
            cpu.load_image(&w.image).expect("image fits");
            cpu
        };
        row("rv32i", &w.name, replay(&w.name, fresh, flips, reps));
    }
    println!();
    for (cpu, instructions, elapsed) in totals {
        println!(
            "{cpu}: {:.2} ns/instr over {instructions} instructions",
            elapsed.as_nanos() as f64 / instructions.max(1) as f64
        );
    }
}
