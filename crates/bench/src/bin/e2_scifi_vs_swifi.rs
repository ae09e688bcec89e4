//! E2 — SCIFI vs pre-runtime SWIFI (paper §1/§4; shape from \[10\]).
//!
//! The two techniques reach *different fault spaces*: SCIFI reaches the
//! microarchitectural state (registers, latches, cache bits) through the
//! scan chains; pre-runtime SWIFI reaches only the program/data memory
//! image. This experiment runs both on the same workloads and compares
//! reachable-space sizes and outcome distributions.
//!
//! Expected shape: pre-runtime SWIFI is far more *effective* per fault
//! (every flipped image bit is consumed by the run: code flips trip the
//! illegal-opcode/control-flow detectors, data flips silently corrupt the
//! output and escape), while SCIFI's microarchitectural faults are mostly
//! overwritten but enjoy near-total detection coverage thanks to cache
//! parity — the complementary-technique story of \[10\].

use goofi_analysis::report;
use goofi_analysis::stats::CampaignStats;
use goofi_core::campaign::Technique;
use goofi_core::fault::FaultSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 400;
    println!("E2: SCIFI vs pre-runtime SWIFI, {n} experiments each\n");
    let data = bench::thor_description();
    let wl = workloads::by_name("bubblesort").expect("workload exists");
    let image_words = wl.image.words.len() as u32;

    let probe = bench::campaign_for("e2-probe", &wl).build().unwrap();
    let len = bench::reference_length(&probe);

    // SCIFI: scan-reachable state.
    let scifi_space = bench::full_scifi_space(&data, 0..len);
    let scifi_campaign = bench::campaign_for("e2-scifi", &wl)
        .technique(Technique::Scifi)
        .faults(scifi_space.sample_campaign(n, &mut StdRng::seed_from_u64(0xE2)))
        .build()
        .unwrap();
    let scifi = bench::run(&scifi_campaign);
    let scifi_stats = CampaignStats::from_classified(&bench::classify(&scifi));

    // Pre-runtime SWIFI: the memory image only.
    let swifi_space = FaultSpace {
        scan_cells: vec![],
        memory: Some(0..image_words),
        time_window: 0..1,
    };
    let mut swifi_faults = swifi_space.sample_campaign(n, &mut StdRng::seed_from_u64(0xE2 + 1));
    for f in &mut swifi_faults {
        f.trigger = goofi_core::trigger::Trigger::PreRuntime;
    }
    let swifi_campaign = bench::campaign_for("e2-swifi", &wl)
        .technique(Technique::SwifiPreRuntime)
        .faults(swifi_faults)
        .build()
        .unwrap();
    let swifi = bench::run(&swifi_campaign);
    let swifi_stats = CampaignStats::from_classified(&bench::classify(&swifi));

    println!(
        "reachable fault spaces:\n  SCIFI: {:>9} bits (registers, latches, cache cells)\n  SWIFI: {:>9} bits (memory image of {} words)\n",
        scifi_space.bit_count(),
        swifi_space.bit_count(),
        image_words,
    );
    println!("{}", report::full_report("E2a: SCIFI", &scifi_stats));
    println!(
        "{}",
        report::full_report("E2b: pre-runtime SWIFI", &swifi_stats)
    );

    println!(
        "summary: SCIFI effectiveness {} vs SWIFI {}; SCIFI coverage {} vs SWIFI {}",
        scifi_stats.effectiveness().to_percent_string(),
        swifi_stats.effectiveness().to_percent_string(),
        scifi_stats.detection_coverage().to_percent_string(),
        swifi_stats.detection_coverage().to_percent_string(),
    );
}
