//! Detail-mode error-propagation analysis — the paper's §2.3 workflow.
//!
//! A campaign finds an escaped error (a fail-silence violation); the
//! interesting experiment is re-run in detail mode with `parentExperiment`
//! linking it back, and the per-instruction trace shows where the error
//! first appeared and how it spread.
//!
//! ```sh
//! cargo run --example error_propagation
//! ```

use goofi::analysis::{classify, propagation, Outcome};
use goofi::core::algorithms;
use goofi::core::campaign::{Campaign, TargetSystemData, Termination};
use goofi::core::logging::LoggingMode;
use goofi::core::monitor::ProgressMonitor;
use goofi::envsim::NullEnvironment;
use goofi::goofi_thor::ThorTarget;
use goofi::targets::TargetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = TargetKind::Thor.program("crc32").expect("program exists");
    let mut target = ThorTarget::default();
    let target_data = TargetSystemData::from_target(&target, "Thor-RD-like CPU simulator");

    // Normal-mode campaign: find an escaped error.
    let space = target_data.fault_space(None, 100..2_000);
    let faults = space.sample_campaign(300, &mut StdRng::seed_from_u64(41));
    let campaign = Campaign::builder("prop-hunt")
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

    let monitor = ProgressMonitor::new(campaign.experiment_count());
    let result =
        algorithms::faultinjector_scifi(&mut target, &campaign, &monitor, &mut NullEnvironment)?;

    let escaped_index = result
        .records
        .iter()
        .position(|r| matches!(classify(&result.reference, r), Outcome::Escaped { .. }));
    let Some(index) = escaped_index else {
        println!("no escaped error in this campaign — try another seed");
        return Ok(());
    };
    let record = &result.records[index];
    println!(
        "escaped error found: {} ({})",
        record.name,
        record.fault.as_ref().expect("faulty record"),
    );

    // Re-run in detail mode (parentExperiment workflow).
    let mut detail_campaign = campaign.clone();
    detail_campaign.logging = LoggingMode::Detail;
    let reference =
        algorithms::make_reference_run(&mut target, &detail_campaign, &mut NullEnvironment)?;
    let detailed =
        algorithms::rerun_detailed(&mut target, &detail_campaign, index, &mut NullEnvironment)?;
    println!(
        "detail re-run `{}` (parent: {})",
        detailed.name,
        detailed.parent.as_deref().unwrap_or("-"),
    );

    // Propagation profile.
    let prop = propagation::analyse(&reference.trace, &detailed.trace);
    match prop.first_divergence {
        Some(step) => {
            println!(
                "first divergence at instruction {step}; corruption peaks at \
                 {} bits (instruction {:?}); {} instructions compared",
                prop.peak_bits(),
                prop.peak_step(),
                prop.compared_steps,
            );
            println!("\ncorrupted scan bits over time (every 200 instructions):");
            for s in prop.series.iter().skip(step).step_by(200) {
                println!(
                    "  instr {:>6}: {:>4} bits {}",
                    s.step,
                    s.total_bits,
                    if s.outputs_differ {
                        "(outputs differ)"
                    } else {
                        ""
                    },
                );
            }
        }
        None => println!("traces never diverged (fault overwritten before use)"),
    }
    Ok(())
}
