//! Property tests for the copy-on-write snapshot path: a snapshot taken at
//! any point of a run is a faithful capture — every mutation applied
//! afterwards (more execution, memory writes, bit flips, scan-chain
//! updates) is fully undone by `restore` — and the page-memoized
//! `memory_digest` always agrees with a flat digest of the same image.

use goofi_core::campaign::WorkloadImage;
use goofi_core::logging::digest_words;
use goofi_core::{RunBudget, TargetAccess};
use goofi_thor::ThorTarget;
use proptest::prelude::*;

fn workload_image(name: &str) -> WorkloadImage {
    let wl = workloads::by_name(name).expect("workload exists");
    WorkloadImage {
        name: wl.name,
        words: wl.image.words,
        code_words: wl.image.code_words,
        entry: wl.image.entry,
    }
}

fn ready(name: &str) -> ThorTarget {
    let mut target = ThorTarget::default();
    target.init_test_card().unwrap();
    target.load_workload(&workload_image(name)).unwrap();
    target
}

/// One observable mutation of the target between snapshot and restore.
#[derive(Debug, Clone)]
enum Mutation {
    Run(u16),
    WriteMemory(u16, u32),
    FlipMemoryBit(u16, u8),
    FlipChainBit(u8, u16),
    WriteInputPort(u32),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (1u16..200).prop_map(Mutation::Run),
        (any::<u16>(), any::<u32>()).prop_map(|(a, v)| Mutation::WriteMemory(a, v)),
        (any::<u16>(), 0u8..32).prop_map(|(a, b)| Mutation::FlipMemoryBit(a, b)),
        (any::<u8>(), any::<u16>()).prop_map(|(c, b)| Mutation::FlipChainBit(c, b)),
        any::<u32>().prop_map(Mutation::WriteInputPort),
    ]
}

fn apply(target: &mut ThorTarget, mutation: &Mutation) {
    match *mutation {
        Mutation::Run(steps) => {
            let _ = target.run_workload(RunBudget {
                max_instructions: u64::from(steps),
            });
        }
        Mutation::WriteMemory(addr, value) => {
            let addr = u32::from(addr) % target.memory_size();
            target.write_memory(addr, &[value]).unwrap();
        }
        Mutation::FlipMemoryBit(addr, bit) => {
            let addr = u32::from(addr) % target.memory_size();
            target.flip_memory_bit(addr, bit).unwrap();
        }
        Mutation::FlipChainBit(chain, bit) => {
            let layouts = target.chain_layouts();
            let layout = &layouts[chain as usize % layouts.len()];
            let name = layout.name().to_string();
            let mut bits = target.read_scan_chain(&name).unwrap();
            let idx = bit as usize % bits.len();
            bits.flip(idx);
            // Read-only cells silently keep their value; the write itself
            // must still succeed and be undone by restore.
            target.write_scan_chain(&name, &bits).unwrap();
        }
        Mutation::WriteInputPort(value) => {
            target.write_input_ports(&[value]).unwrap();
        }
    }
}

/// Everything an experiment can observe about the target.
#[derive(Debug, PartialEq)]
struct Observation {
    memory: Vec<u32>,
    /// `(chain name, captured bits)` per scan chain.
    chains: Vec<(String, String)>,
    instructions: u64,
    cycles: u64,
    iterations: u64,
    outputs: Vec<u32>,
}

fn observe(target: &mut ThorTarget) -> Observation {
    let memory = target
        .read_memory(0, target.memory_size() as usize)
        .unwrap();
    let mut chains = Vec::new();
    for layout in target.chain_layouts() {
        let name = layout.name().to_string();
        let bits = target.read_scan_chain(&name).unwrap();
        chains.push((name, bits.to_bit_string()));
    }
    Observation {
        memory,
        chains,
        instructions: target.instructions_executed(),
        cycles: target.cycles_executed(),
        iterations: target.iterations_completed(),
        outputs: target.read_output_ports().unwrap(),
    }
}

proptest! {
    #[test]
    fn snapshot_mutate_restore_is_identity(
        workload in prop_oneof![Just("bubblesort"), Just("crc32"), Just("fibonacci")],
        prefix in 0u64..400,
        mutations in proptest::collection::vec(mutation(), 1..8),
    ) {
        let mut target = ready(workload);
        if prefix > 0 {
            let _ = target.run_workload(RunBudget { max_instructions: prefix }).unwrap();
        }
        let before = observe(&mut target);
        let snap = target.snapshot().unwrap();

        for m in &mutations {
            apply(&mut target, m);
        }

        target.restore(&snap).unwrap();
        let after = observe(&mut target);
        prop_assert_eq!(before, after);

        // A restored target is live, not a frozen copy: it can keep
        // executing from the captured point.
        let _ = target.run_workload(RunBudget { max_instructions: 10 }).unwrap();
    }

    #[test]
    fn memoized_memory_digest_matches_flat_digest(
        workload in prop_oneof![Just("bubblesort"), Just("crc32")],
        prefix in 0u64..400,
        mutations in proptest::collection::vec(mutation(), 0..8),
    ) {
        let mut target = ready(workload);
        if prefix > 0 {
            let _ = target.run_workload(RunBudget { max_instructions: prefix }).unwrap();
        }
        let len = target.memory_size() as usize;
        // Prime the per-page digest cache, then mutate: stale cache
        // entries must be invalidated by every mutation path.
        prop_assert_eq!(
            target.memory_digest(len).unwrap(),
            digest_words(&target.read_memory(0, len).unwrap())
        );
        let snap = target.snapshot().unwrap();
        for m in &mutations {
            apply(&mut target, m);
            prop_assert_eq!(
                target.memory_digest(len).unwrap(),
                digest_words(&target.read_memory(0, len).unwrap())
            );
        }
        // The digest survives a restore, including its cached pages.
        target.restore(&snap).unwrap();
        prop_assert_eq!(
            target.memory_digest(len).unwrap(),
            digest_words(&target.read_memory(0, len).unwrap())
        );
    }
}
