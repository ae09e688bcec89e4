//! Golden-trace tests for the Thor workload library, the twin of
//! `riscv_golden.rs`.
//!
//! Every number here was taken from a fault-free run before the
//! interpreter gained its fast path (inlined step loop, idle debug unit,
//! decoded-instruction cache, scan-only parity checks). That fast path
//! must be exact, so each workload must still reproduce its stop, its
//! instruction and cycle counts, its cache hit and miss counts and its
//! output bit for bit: the campaign layer's golden-run cache, trigger
//! fast-forward and pre-injection analysis all assume the core is
//! cycle-deterministic.

use thor::{CacheStats, Cpu, CpuConfig, StopReason};
use workloads::Workload;

/// Control loops never halt: they are pinned after this many iterations.
const CONTROL_ITERATIONS: u64 = 5;

struct Golden {
    name: &'static str,
    stop: StopReason,
    instructions: u64,
    cycles: u64,
    /// Instruction-cache `(hits, misses)`.
    icache: (u64, u64),
    /// Data-cache `(hits, misses)`.
    dcache: (u64, u64),
    output: &'static [u32],
}

const CONTROL_STOP: StopReason = StopReason::Sync {
    tag: 0,
    iteration: CONTROL_ITERATIONS,
};

const GOLDEN: [Golden; 7] = [
    Golden {
        name: "bubblesort",
        stop: StopReason::Halted,
        instructions: 2002,
        cycles: 5800,
        icache: (1984, 18),
        dcache: (434, 16),
        output: &[
            1027, 1240, 1773, 1788, 2011, 2224, 2356, 3325, 3375, 5072, 5529, 5539, 6326, 7360,
            7621, 7879,
        ],
    },
    Golden {
        name: "matmul",
        stop: StopReason::Halted,
        instructions: 1138,
        cycles: 3492,
        icache: (1107, 31),
        dcache: (84, 44),
        output: &[
            3273, 3708, 637, 3411, 4091, 4297, 629, 4215, 2320, 3572, 650, 3230, 2811, 3828, 477,
            3490,
        ],
    },
    Golden {
        name: "crc32",
        stop: StopReason::Halted,
        instructions: 4247,
        cycles: 9681,
        icache: (4220, 27),
        dcache: (0, 16),
        output: &[422_886_094],
    },
    Golden {
        name: "primes",
        stop: StopReason::Halted,
        instructions: 2467,
        cycles: 9189,
        icache: (2447, 20),
        dcache: (0, 0),
        output: &[25],
    },
    Golden {
        name: "fibonacci",
        stop: StopReason::Halted,
        instructions: 17758,
        cycles: 55308,
        icache: (17736, 22),
        dcache: (2958, 0),
        output: &[610],
    },
    Golden {
        name: "pi-control",
        stop: CONTROL_STOP,
        instructions: 111,
        cycles: 328,
        icache: (87, 24),
        dcache: (0, 0),
        output: &[1040, 0, 0, 0],
    },
    Golden {
        name: "pi-control-ber",
        stop: CONTROL_STOP,
        instructions: 111,
        cycles: 328,
        icache: (87, 24),
        dcache: (0, 0),
        output: &[1040, 0, 0, 0],
    },
];

/// Runs `w` fault-free to its halt, or a control loop through
/// [`CONTROL_ITERATIONS`] iterations with all input ports at zero.
fn run(w: &Workload) -> (Cpu, StopReason) {
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.load_image(&w.image).unwrap();
    let mut stop = cpu.run(1_000_000);
    while matches!(stop, StopReason::Sync { .. }) && cpu.iterations() < CONTROL_ITERATIONS {
        stop = cpu.run(1_000_000);
    }
    (cpu, stop)
}

fn hits_misses(stats: CacheStats) -> (u64, u64) {
    assert_eq!(stats.parity_errors, 0);
    (stats.hits, stats.misses)
}

#[test]
fn every_workload_matches_its_golden_run() {
    let all = workloads::all();
    assert_eq!(
        all.iter().map(|w| w.name.as_str()).collect::<Vec<_>>(),
        GOLDEN.iter().map(|g| g.name).collect::<Vec<_>>(),
        "the golden table covers the registry in order"
    );
    for (w, g) in all.iter().zip(&GOLDEN) {
        let (cpu, stop) = run(w);
        let got = (
            stop,
            cpu.instructions(),
            cpu.cycles(),
            hits_misses(cpu.icache_stats()),
            hits_misses(cpu.dcache_stats()),
            w.read_output(&cpu).unwrap(),
        );
        let want = (
            g.stop,
            g.instructions,
            g.cycles,
            g.icache,
            g.dcache,
            g.output.to_vec(),
        );
        assert_eq!(got, want, "{}", g.name);
    }
}
