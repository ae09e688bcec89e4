//! E1 — SCIFI outcome distribution (paper Fig. 2 algorithm + §3.4 taxonomy).
//!
//! Runs the paper's SCIFI algorithm over the full scan-reachable fault
//! space (internal state + both caches) for several workloads and prints
//! the outcome distribution per fault-location class — the table shape of
//! the companion Thor studies (FTCS-28 \[10\], DSN 2001 \[12\]).
//!
//! Expected shape: most faults are non-effective (overwritten/latent);
//! among effective errors the parity-protected caches give near-total
//! detection while register faults escape more often.

use goofi_analysis::report;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let per_workload = 400;
    println!("E1: SCIFI campaigns, {per_workload} experiments per workload\n");
    let data = bench::thor_description();

    let mut all = Vec::new();
    for name in ["bubblesort", "crc32", "matmul"] {
        let wl = workloads::by_name(name).expect("workload exists");
        let campaign_probe = bench::campaign_for(&format!("e1-{name}-probe"), &wl)
            .fault(goofi_core::fault::FaultSpec::single(
                goofi_core::fault::FaultLocation::Memory { addr: 0, bit: 0 },
                goofi_core::trigger::Trigger::AfterInstructions(1),
            ))
            .build()
            .unwrap();
        let len = bench::reference_length(&campaign_probe);

        let space = bench::full_scifi_space(&data, 0..len);
        let faults = space.sample_campaign(per_workload, &mut StdRng::seed_from_u64(0xE1));
        let campaign = bench::campaign_for(&format!("e1-{name}"), &wl)
            .faults(faults)
            .build()
            .unwrap();
        let result = bench::run(&campaign);
        let latencies = goofi_analysis::latency::detection_latencies(&result.records);
        let lat = goofi_analysis::latency::LatencySummary::from_latencies(&latencies);
        let classified = bench::classify(&result);
        println!(
            "-- workload `{name}` ({len} reference instructions) --\n{}",
            report::outcome_table(&goofi_analysis::stats::CampaignStats::from_classified(
                &classified
            ))
        );
        println!(
            "detection latency (instructions): n={} min={} median={} mean={} max={}\n",
            lat.samples, lat.min, lat.median, lat.mean, lat.max,
        );
        all.extend(classified);
    }

    let stats = goofi_analysis::stats::CampaignStats::from_classified(&all);
    println!(
        "{}",
        report::full_report("E1: all workloads combined", &stats)
    );
}
