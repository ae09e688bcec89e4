//! Shared plumbing for the GOOFI experiment harness.
//!
//! The binaries in `src/bin/` regenerate the experiments indexed in
//! `DESIGN.md` and `EXPERIMENTS.md`: `e1`–`e9`, the `a1` EDM ablation, the
//! `b11` snapshot/restore speedup and the RV32I `riscv_e1` campaign. This
//! library holds the campaign-construction helpers they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use goofi_analysis::stats::CampaignStats;
use goofi_analysis::{classify_campaign, ClassifiedExperiment};
use goofi_core::algorithms::{self, CampaignResult};
use goofi_core::campaign::{
    Campaign, CampaignBuilder, OutputRegion, TargetSystemData, Termination, WorkloadImage,
};
use goofi_core::fault::FaultSpace;
use goofi_core::monitor::ProgressMonitor;
use goofi_riscv::RiscvTarget;
use goofi_thor::ThorTarget;
use workloads::{OutputSpec, RiscvWorkload, Workload};

/// Converts a library workload into a campaign workload image.
pub fn workload_image(w: &Workload) -> WorkloadImage {
    WorkloadImage {
        name: w.name.clone(),
        words: w.image.words.clone(),
        code_words: w.image.code_words,
        entry: w.image.entry,
    }
}

/// The campaign output region matching a workload's output spec.
pub fn output_region(w: &Workload) -> OutputRegion {
    match w.output {
        OutputSpec::Memory { addr, len } => OutputRegion::Memory { addr, len },
        OutputSpec::Ports => OutputRegion::Ports,
    }
}

/// A campaign builder pre-configured for a workload on the Thor target.
pub fn campaign_for(name: &str, w: &Workload) -> CampaignBuilder {
    Campaign::builder(name)
        .target_system("thor-rd")
        .workload(workload_image(w))
        .observe_chains(["internal"])
        .output(output_region(w))
        .termination(Termination {
            max_instructions: 500_000,
            max_iterations: None,
        })
}

/// The Thor target-system description.
pub fn thor_description() -> TargetSystemData {
    TargetSystemData::from_target(&ThorTarget::default(), "Thor-RD-like CPU simulator")
}

/// Converts an RV32I library workload into a campaign workload image.
pub fn riscv_workload_image(w: &RiscvWorkload) -> WorkloadImage {
    WorkloadImage {
        name: w.name.clone(),
        words: w.image.words.clone(),
        code_words: w.image.code_words,
        entry: w.image.entry,
    }
}

/// The campaign output region matching an RV32I workload's output spec.
pub fn riscv_output_region(w: &RiscvWorkload) -> OutputRegion {
    match w.output {
        OutputSpec::Memory { addr, len } => OutputRegion::Memory { addr, len },
        OutputSpec::Ports => OutputRegion::Ports,
    }
}

/// A campaign builder pre-configured for a workload on the RV32I target —
/// the exact shape of [`campaign_for`] with the second CPU's system name.
pub fn riscv_campaign_for(name: &str, w: &RiscvWorkload) -> CampaignBuilder {
    Campaign::builder(name)
        .target_system("rv32i")
        .workload(riscv_workload_image(w))
        .observe_chains(["internal"])
        .output(riscv_output_region(w))
        .termination(Termination {
            max_instructions: 500_000,
            max_iterations: None,
        })
}

/// The RV32I target-system description.
pub fn riscv_description() -> TargetSystemData {
    TargetSystemData::from_target(&RiscvTarget::default(), "RV32I cycle-counting core")
}

/// The SCIFI fault space over the core's architectural state (the
/// `internal` chain), excluding the test infrastructure chains.
pub fn internal_fault_space(
    data: &TargetSystemData,
    time_window: std::ops::Range<u64>,
) -> FaultSpace {
    FaultSpace {
        scan_cells: data
            .locations
            .iter()
            .filter(|(chain, _, _, rw)| *rw && chain == "internal")
            .map(|(chain, cell, width, _)| (chain.clone(), cell.clone(), *width))
            .collect(),
        memory: None,
        time_window,
    }
}

/// The SCIFI fault space over core plus caches — "the pins and many of the
/// internal state elements" reachable through the scan chains.
pub fn full_scifi_space(data: &TargetSystemData, time_window: std::ops::Range<u64>) -> FaultSpace {
    FaultSpace {
        scan_cells: data
            .locations
            .iter()
            .filter(|(chain, _, _, rw)| {
                *rw && matches!(chain.as_str(), "internal" | "icache" | "dcache")
            })
            .map(|(chain, cell, width, _)| (chain.clone(), cell.clone(), *width))
            .collect(),
        memory: None,
        time_window,
    }
}

/// Runs a campaign serially on a fresh Thor target.
///
/// # Panics
///
/// Panics on campaign failure — the harness treats that as a broken
/// experiment definition.
pub fn run(campaign: &Campaign) -> CampaignResult {
    run_opts(campaign, true)
}

/// Runs a campaign serially on a fresh RV32I target.
///
/// # Panics
///
/// Panics on campaign failure.
pub fn riscv_run(campaign: &Campaign) -> CampaignResult {
    let mut target = RiscvTarget::default();
    let monitor = ProgressMonitor::new(campaign.experiment_count());
    algorithms::run_campaign_journaled_opts(
        &mut target,
        campaign,
        &monitor,
        &mut envsim::NullEnvironment,
        None,
        None,
        true,
    )
    .expect("campaign failed")
}

/// [`run`] with the snapshot/restore hot path made explicit —
/// `snapshots: false` is the slow-path baseline the speedup benchmarks
/// compare against.
///
/// # Panics
///
/// Panics on campaign failure.
pub fn run_opts(campaign: &Campaign, snapshots: bool) -> CampaignResult {
    let mut target = ThorTarget::default();
    let monitor = ProgressMonitor::new(campaign.experiment_count());
    algorithms::run_campaign_journaled_opts(
        &mut target,
        campaign,
        &monitor,
        &mut envsim::NullEnvironment,
        None,
        None,
        snapshots,
    )
    .expect("campaign failed")
}

/// Classifies a campaign result.
pub fn classify(result: &CampaignResult) -> Vec<ClassifiedExperiment> {
    classify_campaign(&result.reference, &result.records)
}

/// Classification statistics of a campaign result.
pub fn stats(result: &CampaignResult) -> CampaignStats {
    CampaignStats::from_classified(&classify(result))
}

/// Number of instructions the reference run of `campaign` takes — used to
/// size injection-time windows.
pub fn reference_length(campaign: &Campaign) -> u64 {
    let mut target = ThorTarget::default();
    algorithms::make_reference_run(&mut target, campaign, &mut envsim::NullEnvironment)
        .expect("reference run failed")
        .state
        .instructions
}

/// [`reference_length`] against the RV32I core.
pub fn riscv_reference_length(campaign: &Campaign) -> u64 {
    let mut target = RiscvTarget::default();
    algorithms::make_reference_run(&mut target, campaign, &mut envsim::NullEnvironment)
        .expect("reference run failed")
        .state
        .instructions
}

#[cfg(test)]
mod tests {
    use super::*;
    use goofi_core::fault::FaultSpec;
    use goofi_core::trigger::Trigger;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn helpers_compose_a_runnable_campaign() {
        let wl = workloads::by_name("primes").unwrap();
        let data = thor_description();
        let space = internal_fault_space(&data, 0..1_000);
        assert!(space.bit_count() > 0);
        let campaign = campaign_for("helper-test", &wl)
            .faults(space.sample_campaign(5, &mut StdRng::seed_from_u64(1)))
            .build()
            .unwrap();
        let result = run(&campaign);
        assert_eq!(result.records.len(), 5);
        assert_eq!(stats(&result).total, 5);
    }

    #[test]
    fn full_space_is_larger_than_internal() {
        let data = thor_description();
        let internal = internal_fault_space(&data, 0..1).bit_count();
        let full = full_scifi_space(&data, 0..1).bit_count();
        assert!(full > internal);
    }

    #[test]
    fn reference_length_is_positive() {
        let wl = workloads::by_name("fibonacci").unwrap();
        let campaign = campaign_for("len", &wl)
            .fault(FaultSpec::single(
                goofi_core::fault::FaultLocation::Memory { addr: 0, bit: 0 },
                Trigger::AfterInstructions(1),
            ))
            .build()
            .unwrap();
        assert!(reference_length(&campaign) > 100);
    }
}
