//! Quickstart: a minimal SCIFI fault-injection campaign, end to end.
//!
//! Covers the paper's four phases in ~80 lines: describe the target system
//! (configuration), build a campaign of random bit flips (set-up), run it
//! (fault injection), and classify + report the outcomes (analysis).
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use goofi::analysis::{classify_campaign, report, stats::CampaignStats};
use goofi::core::algorithms;
use goofi::core::campaign::{Campaign, TargetSystemData, Termination};
use goofi::core::monitor::ProgressMonitor;
use goofi::envsim::NullEnvironment;
use goofi::goofi_thor::ThorTarget;
use goofi::targets::TargetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Configuration phase: describe the target system. -----------------
    let mut target = ThorTarget::default();
    let target_data = TargetSystemData::from_target(&target, "Thor-RD-like CPU simulator");
    println!(
        "target `{}`: {} scan locations, {} words of memory",
        target_data.name,
        target_data.locations.len(),
        target_data.memory_words,
    );

    // --- Set-up phase: workload, fault space, campaign. --------------------
    let program = TargetKind::Thor
        .program("bubblesort")
        .expect("program exists");
    let space = target_data.fault_space(None, 0..2_000);
    println!(
        "fault space: {} injectable bits x 2000 time points",
        space.bit_count()
    );
    let faults = space.sample_campaign(200, &mut StdRng::seed_from_u64(2003));

    let campaign = Campaign::builder("quickstart")
        .target_system(&target_data.name)
        .workload(program.image)
        .observe_chains(["internal"])
        .output(program.output)
        .termination(Termination {
            max_instructions: 200_000,
            max_iterations: None,
        })
        .faults(faults)
        .build()?;

    // --- Fault-injection phase. --------------------------------------------
    let monitor = ProgressMonitor::new(campaign.experiment_count());
    let result =
        algorithms::faultinjector_scifi(&mut target, &campaign, &monitor, &mut NullEnvironment)?;
    println!(
        "ran {} experiments (reference terminated: {})",
        result.records.len(),
        result.reference.termination,
    );

    // --- Analysis phase. ----------------------------------------------------
    let classified = classify_campaign(&result.reference, &result.records);
    let stats = CampaignStats::from_classified(&classified);
    println!("\n{}", report::full_report("quickstart campaign", &stats));
    Ok(())
}
