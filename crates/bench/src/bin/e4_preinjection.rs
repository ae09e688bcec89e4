//! E4 — pre-injection (liveness) analysis efficiency (paper §4).
//!
//! "The purpose of this analysis is to determine when registers and other
//! fault injection locations hold live data. Injecting a fault into a
//! location that does not hold live data serves no purpose, since the fault
//! will be overwritten."
//!
//! The experiment samples a blind campaign, collects a traced reference
//! run, prunes provably dead injections, and compares: experiments run,
//! effective-error yield, and — crucially — verifies soundness by actually
//! running the pruned experiments and checking that none was effective.
//!
//! Expected shape: a large fraction of blind injections is pruned, the
//! yield of effective errors per executed experiment rises sharply, and no
//! pruned experiment would have been effective.

use goofi_core::preinject::{self, Liveness};
use goofi_thor::ThorTarget;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 500;
    println!("E4: pre-injection analysis, {n} blind experiments\n");
    let data = bench::thor_description();
    let wl = workloads::by_name("matmul").expect("workload exists");

    let probe = bench::campaign_for("e4-probe", &wl).build().unwrap();
    let len = bench::reference_length(&probe);

    // Blind campaign over registers + data memory.
    let mut space = bench::internal_fault_space(&data, 0..len);
    space.memory = Some(0..wl.image.words.len() as u32);
    let faults = space.sample_campaign(n, &mut StdRng::seed_from_u64(0xE4));
    let blind = bench::campaign_for("e4-blind", &wl)
        .faults(faults)
        .build()
        .unwrap();

    // Liveness map from a traced reference run.
    let mut target = ThorTarget::default();
    let trace =
        preinject::collect_trace(&mut target, &blind, 2 * len, &mut envsim::NullEnvironment)
            .expect("trace");
    let map = preinject::LivenessMap::from_trace(&trace);
    println!(
        "reference trace: {} instructions, {} distinct locations accessed",
        map.trace_len(),
        map.location_count(),
    );

    let (kept_campaign, pruned) = preinject::filter_campaign(&blind, &map, false);
    println!(
        "pruned {} of {} experiments as provably dead ({}%)\n",
        pruned.len(),
        n,
        100 * pruned.len() / n,
    );

    // Run both versions.
    let blind_result = bench::run(&blind);
    let blind_stats = bench::stats(&blind_result);
    let kept_result = bench::run(&kept_campaign);
    let kept_stats = bench::stats(&kept_result);

    println!(
        "{:<22} {:>12} {:>12} {:>18}",
        "campaign", "experiments", "effective", "yield (eff/run)"
    );
    for (name, stats) in [("blind", &blind_stats), ("pre-injection", &kept_stats)] {
        println!(
            "{:<22} {:>12} {:>12} {:>17.1}%",
            name,
            stats.total,
            stats.effective(),
            100.0 * stats.effective() as f64 / stats.total.max(1) as f64,
        );
    }

    // Soundness check: run every pruned experiment and verify none was
    // effective (the optimisation must not discard interesting faults).
    let pruned_campaign = {
        let mut c = blind.clone();
        c.name = "e4-pruned".into();
        c.faults = pruned;
        c
    };
    let pruned_result = bench::run(&pruned_campaign);
    let pruned_stats = bench::stats(&pruned_result);
    println!(
        "\nsoundness: {} pruned experiments re-run -> {} effective (must be 0)",
        pruned_stats.total,
        pruned_stats.effective(),
    );
    assert_eq!(
        pruned_stats.effective(),
        0,
        "pre-injection analysis unsound!"
    );

    // Show a few verdict examples.
    println!("\nexample verdicts:");
    for spec in blind.faults.iter().take(5) {
        let verdict = map.spec_liveness(spec);
        println!(
            "  {:<60} {:?}",
            spec.to_string(),
            match verdict {
                Liveness::Live => "live",
                Liveness::Dead => "dead (pruned)",
                Liveness::NeverUsed => "never used again",
                Liveness::Unknown => "unknown (kept)",
            }
        );
    }
}
