//! A1 — EDM ablation: the contribution of each error detection mechanism.
//!
//! The analysis phase classifies detected errors "into errors detected by
//! each of the various mechanisms" (§3.4); the natural follow-up question —
//! what does each mechanism buy? — is answered by re-running the same
//! campaign with individual mechanisms disabled (the PSW mask the scan
//! chain exposes).
//!
//! Expected shape: disabling the cache parity collapses detection coverage
//! (it dominates E1); errors that parity caught become silent data
//! corruption — escapes or latents — or get picked up by downstream
//! mechanisms (illegal opcode / control flow) after the corrupt word
//! executes.

use goofi_analysis::stats::CampaignStats;
use goofi_core::algorithms;
use goofi_core::monitor::ProgressMonitor;
use goofi_thor::ThorTarget;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thor::{CpuConfig, EdmSet};

fn main() {
    let n = 400;
    println!("A1: EDM ablation, {n} experiments per configuration\n");
    let data = bench::thor_description();
    let wl = workloads::by_name("crc32").expect("workload exists");

    let probe = bench::campaign_for("a1-probe", &wl).build().unwrap();
    let len = bench::reference_length(&probe);
    let space = bench::full_scifi_space(&data, 0..len);
    let faults = space.sample_campaign(n, &mut StdRng::seed_from_u64(0xA1));
    let campaign = bench::campaign_for("a1", &wl)
        .faults(faults)
        .build()
        .unwrap();

    let configs: Vec<(&str, EdmSet)> = vec![
        ("all mechanisms", EdmSet::all_on()),
        (
            "no cache parity",
            EdmSet {
                parity_i: false,
                parity_d: false,
                ..EdmSet::all_on()
            },
        ),
        (
            "no control flow",
            EdmSet {
                control_flow: false,
                ..EdmSet::all_on()
            },
        ),
        (
            "no illegal opcode",
            EdmSet {
                illegal_opcode: false,
                ..EdmSet::all_on()
            },
        ),
        (
            "no access violation",
            EdmSet {
                access_violation: false,
                ..EdmSet::all_on()
            },
        ),
        (
            "no overflow trap",
            EdmSet {
                overflow: false,
                ..EdmSet::all_on()
            },
        ),
        ("bare CPU (all off)", EdmSet::all_off()),
    ];

    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>12} {:>22}",
        "configuration", "detected", "escaped", "latent", "overwritten", "detection coverage"
    );
    for (label, edm) in configs {
        let mut target = ThorTarget::new(CpuConfig {
            edm,
            ..CpuConfig::default()
        });
        let monitor = ProgressMonitor::new(n);
        let result = algorithms::run_campaign(
            &mut target,
            &campaign,
            &monitor,
            &mut envsim::NullEnvironment,
        )
        .expect("campaign failed");
        let stats: CampaignStats = bench::stats(&result);
        println!(
            "{:<22} {:>9} {:>9} {:>9} {:>12} {:>22}",
            label,
            stats.category_count("detected"),
            stats.category_count("escaped"),
            stats.category_count("latent"),
            stats.category_count("overwritten"),
            stats.detection_coverage().to_percent_string(),
        );
    }
}
