//! E5 — fault models: transient vs permanent vs intermittent (paper §4).
//!
//! The base tool injects single/multiple transient bit flips; §4 lists
//! "support for additional fault models such as intermittent and permanent
//! faults" as an extension. This experiment injects the *same* sampled
//! (location, time) pairs under every model and compares outcomes; a
//! multiple-bit-flip campaign is included as the paper's "multiple
//! transient" case.
//!
//! Expected shape: multiple bit flips are markedly more effective than a
//! single transient flip, intermittent faults add a little over transient,
//! and the stuck-at models split by data polarity — register contents are
//! mostly small non-negative values, so stuck-at-0 frequently asserts a
//! value that is already there (benign), while stuck-at-1 is the most
//! damaging persistent model.

use goofi_analysis::stats::CampaignStats;
use goofi_core::fault::FaultModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 150;
    println!("E5: fault models, {n} experiments per model\n");
    let data = bench::thor_description();
    let wl = workloads::by_name("bubblesort").expect("workload exists");

    let probe = bench::campaign_for("e5-probe", &wl).build().unwrap();
    let len = bench::reference_length(&probe);
    let space = bench::internal_fault_space(&data, 0..len);
    let base = space.sample_campaign(n, &mut StdRng::seed_from_u64(0xE5));

    let models: Vec<(&str, Option<FaultModel>)> = vec![
        ("transient (1 flip)", Some(FaultModel::TransientBitFlip)),
        ("multiple (3 flips)", None), // handled specially below
        (
            "intermittent (x5/100)",
            Some(FaultModel::Intermittent {
                period: 100,
                bursts: 5,
            }),
        ),
        ("stuck-at-0", Some(FaultModel::StuckAtZero)),
        ("stuck-at-1", Some(FaultModel::StuckAtOne)),
    ];

    println!(
        "{:<24} {:>9} {:>9} {:>9} {:>12} {:>14}",
        "model", "detected", "escaped", "latent", "overwritten", "effectiveness"
    );
    for (label, model) in models {
        let faults = match model {
            Some(m) => base
                .iter()
                .cloned()
                .map(|mut f| {
                    f.model = m;
                    f
                })
                .collect(),
            None => space.sample_multi_campaign(n, 3, &mut StdRng::seed_from_u64(0xE5)),
        };
        let campaign = bench::campaign_for(&format!("e5-{label}"), &wl)
            .faults(faults)
            .build()
            .unwrap();
        let result = bench::run(&campaign);
        let stats: CampaignStats = bench::stats(&result);
        println!(
            "{:<24} {:>9} {:>9} {:>9} {:>12} {:>14}",
            label,
            stats.category_count("detected"),
            stats.category_count("escaped"),
            stats.category_count("latent"),
            stats.category_count("overwritten"),
            stats.effectiveness().to_percent_string(),
        );
    }
}
