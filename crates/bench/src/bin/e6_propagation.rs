//! E6 — parentExperiment re-run + error-propagation trace (paper §2.3/§3.3).
//!
//! "Assume that one fault injection experiment E1 shows an interesting
//! result such as a fail-silence violation, and we want to investigate the
//! reason for this violation by re-running the experiment logging the
//! system state after each machine instruction." This experiment automates
//! that workflow: find escaped errors, re-run each in detail mode with the
//! parent link, and print the propagation profile.
//!
//! Expected shape: divergence starts at the injection instruction, the
//! number of corrupted bits grows as the error propagates through
//! registers, and outputs begin to differ strictly after state diverges.

use goofi_analysis::{classify, propagation, Outcome};
use goofi_core::algorithms;
use goofi_core::logging::LoggingMode;
use goofi_thor::ThorTarget;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("E6: escaped-error detail re-runs and propagation profiles\n");
    let data = bench::thor_description();
    let wl = workloads::by_name("crc32").expect("workload exists");

    let probe = bench::campaign_for("e6-probe", &wl).build().unwrap();
    let len = bench::reference_length(&probe);
    let space = bench::internal_fault_space(&data, 100..len);
    let faults = space.sample_campaign(300, &mut StdRng::seed_from_u64(0xE6));
    let campaign = bench::campaign_for("e6", &wl)
        .faults(faults)
        .build()
        .unwrap();
    let result = bench::run(&campaign);

    let escaped: Vec<usize> = result
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(classify(&result.reference, r), Outcome::Escaped { .. }))
        .map(|(i, _)| i)
        .collect();
    println!(
        "campaign: {} experiments, {} escaped errors\n",
        result.records.len(),
        escaped.len(),
    );

    let mut detail_campaign = campaign.clone();
    detail_campaign.logging = LoggingMode::Detail;
    let mut target = ThorTarget::default();
    let detailed_ref =
        algorithms::make_reference_run(&mut target, &detail_campaign, &mut envsim::NullEnvironment)
            .expect("reference");

    println!(
        "{:<22} {:>10} {:>12} {:>10} {:>10}",
        "experiment", "inject@", "diverge@", "peak bits", "peak@"
    );
    for &index in escaped.iter().take(8) {
        let detailed = algorithms::rerun_detailed(
            &mut target,
            &detail_campaign,
            index,
            &mut envsim::NullEnvironment,
        )
        .expect("detail re-run");
        assert_eq!(
            detailed.parent.as_deref(),
            Some(campaign.experiment_name(index).as_str()),
            "parentExperiment link must point at the original experiment"
        );
        let inject_at = match campaign.faults[index].trigger {
            goofi_core::trigger::Trigger::AfterInstructions(t) => t,
            _ => 0,
        };
        let prop = propagation::analyse(&detailed_ref.trace, &detailed.trace);
        println!(
            "{:<22} {:>10} {:>12} {:>10} {:>10}",
            campaign.experiment_name(index),
            inject_at,
            prop.first_divergence
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            prop.peak_bits(),
            prop.peak_step()
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
}
