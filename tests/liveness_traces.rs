//! The liveness traces of both CPUs, pinned.
//!
//! The pre-injection analysis (paper §4) reads which locations each
//! instruction of the fault-free run touches. For every shipped
//! terminating program on each CPU, the trace `preinject::collect_trace`
//! collects on the port `goofi` builds must keep its length, the number of
//! distinct locations it touches and, step by step, the same sets of
//! locations read and written.

use goofi::core::campaign::{Campaign, Termination};
use goofi::core::preinject::{self, LivenessMap, StepAccess};
use goofi::envsim::NullEnvironment;
use goofi::goofidb::codec::fnv1a;
use goofi::targets::TargetKind;
use workloads::WorkloadKind;

/// FNV-1a of one line per step: the step's sorted, de-duplicated reads,
/// then its writes.
fn digest(trace: &[StepAccess]) -> u32 {
    let mut text = String::new();
    for step in trace {
        for set in [&step.reads, &step.writes] {
            let mut set = set.clone();
            set.sort();
            set.dedup();
            text.push_str(&set.join(","));
            text.push(';');
        }
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

#[test]
fn liveness_traces_of_every_terminating_program_are_pinned() {
    let mut got = Vec::new();
    for kind in TargetKind::ALL {
        for program in kind.programs() {
            if program.kind != WorkloadKind::Terminating {
                continue;
            }
            let name = program.image.name.clone();
            let campaign = Campaign::builder(format!("trace-{name}"))
                .target_system(kind.system_name())
                .workload(program.image)
                .output(program.output)
                .termination(Termination {
                    max_instructions: 100_000,
                    max_iterations: None,
                })
                .build()
                .expect("valid campaign");
            let trace = preinject::collect_trace(
                &mut *kind.build(),
                &campaign,
                100_000,
                &mut NullEnvironment,
            )
            .expect("the port traces");
            let map = LivenessMap::from_trace(&trace);
            got.push((
                kind.flag(),
                name,
                map.trace_len(),
                map.location_count(),
                digest(&trace),
            ));
        }
    }
    let want = [
        ("thor", "bubblesort", 2_002, 24, 0xd717_6823),
        ("thor", "matmul", 1_138, 60, 0x5762_2c15),
        ("thor", "crc32", 4_247, 26, 0xd350_fe51),
        ("thor", "primes", 2_467, 8, 0x77eb_f27d),
        ("thor", "fibonacci", 17_758, 37, 0xff2b_ad53),
        ("riscv", "rv-fibonacci", 1_768, 34, 0x29ca_6758),
        ("riscv", "rv-memcpy", 259, 23, 0x6ff6_7bdc),
    ];
    let want: Vec<_> = want
        .into_iter()
        .map(|(kind, name, len, locations, digest)| {
            (kind, name.to_string(), len, locations, digest)
        })
        .collect();
    assert_eq!(got, want);
}
