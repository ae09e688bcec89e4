//! SCIFI on a closed-loop control application — the scenario of the paper's
//! reference \[12\]: a PI controller with executable assertions, driving a
//! DC-motor plant through the environment simulator, with faults injected
//! into the controller's internal state.
//!
//! ```sh
//! cargo run --example control_loop
//! ```

use goofi::analysis::{classify_campaign, report, stats::CampaignStats};
use goofi::core::algorithms;
use goofi::core::campaign::{Campaign, OutputRegion, TargetSystemData, Termination};
use goofi::core::fault::FaultSpace;
use goofi::core::monitor::ProgressMonitor;
use goofi::envsim::DcMotor;
use goofi::goofi_thor::ThorTarget;
use goofi::targets::TargetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = TargetKind::Thor
        .program("pi-control")
        .expect("program exists");
    let mut target = ThorTarget::default();
    let target_data = TargetSystemData::from_target(&target, "Thor-RD-like CPU simulator");

    // Restrict the fault space to the controller's working registers — the
    // locations the paper's assertions are designed to guard.
    let space = FaultSpace {
        scan_cells: target_data
            .locations
            .iter()
            .filter(|(chain, cell, _, rw)| {
                *rw && chain == "internal" && (cell.starts_with('R') || cell == "FLAGS")
            })
            .map(|(chain, cell, width, _)| (chain.clone(), cell.clone(), *width))
            .collect(),
        memory: None,
        // Inject while the loop runs: the reference completes its 200
        // iterations in roughly 5,000 instructions.
        time_window: 200..4_800,
    };
    let faults = space.sample_campaign(150, &mut StdRng::seed_from_u64(12));

    let campaign = Campaign::builder("control-loop")
        .target_system(&target_data.name)
        .workload(program.image)
        .observe_chains(["internal"])
        .output(OutputRegion::Ports)
        .termination(Termination {
            max_instructions: 3_000_000,
            // The paper: for infinite-loop workloads "the user must specify
            // the maximum number of iterations".
            max_iterations: Some(200),
        })
        .faults(faults)
        .build()?;

    let monitor = ProgressMonitor::new(campaign.experiment_count());
    let mut motor = DcMotor::new();
    let result = algorithms::faultinjector_scifi(&mut target, &campaign, &monitor, &mut motor)?;

    println!(
        "reference run: {} after {} iterations, control output {}",
        result.reference.termination,
        result.reference.state.iterations,
        result.reference.state.outputs[0] as i32,
    );

    let classified = classify_campaign(&result.reference, &result.records);
    let stats = CampaignStats::from_classified(&classified);
    println!(
        "\n{}",
        report::full_report("PI controller under fault injection", &stats)
    );

    // The executable assertions of [12] show up as `assertion` detections.
    let asserted = stats.by_mechanism.get("assertion").copied().unwrap_or(0);
    println!(
        "executable assertions caught {asserted} of {} detected errors",
        stats.category_count("detected"),
    );
    Ok(())
}
