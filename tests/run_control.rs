//! Pinned run control on both CPUs: the reference run and every
//! experiment of a small campaign, under normal and detail logging, each
//! fault model, and the slow and snapshot paths, held to FNV-1a digests of
//! the `CampaignResult`'s `Debug` rendering. A change to how the run loop
//! slices, steps, stops, exchanges with the environment or re-asserts a
//! fault shows up as a changed digest.
//!
//! Thor runs the `pi-control` loop against a DC motor, so experiments
//! exchange with the environment before and after their trigger; RV32I
//! runs the terminating `rv-memcpy`.

use goofi::core::algorithms;
use goofi::core::campaign::{Campaign, TargetSystemData, Termination};
use goofi::core::fault::FaultModel;
use goofi::core::logging::LoggingMode;
use goofi::core::monitor::ProgressMonitor;
use goofi::envsim::{DcMotor, Environment, NullEnvironment};
use goofi::targets::TargetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the text.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const MODELS: [FaultModel; 4] = [
    FaultModel::TransientBitFlip,
    FaultModel::StuckAtZero,
    FaultModel::StuckAtOne,
    FaultModel::Intermittent {
        period: 40,
        bursts: 3,
    },
];

/// The pinned campaign on `kind`: twelve experiments of two locations each
/// (scan cells of the internal chain or code-segment memory words),
/// triggers spread over the run and a little past its end.
fn pinned_campaign(kind: TargetKind, logging: LoggingMode, model: FaultModel) -> Campaign {
    let (program, max_iterations, window) = match kind {
        TargetKind::Thor => ("pi-control", Some(10), 0..260),
        TargetKind::Riscv => ("rv-memcpy", None, 0..300),
    };
    let library = kind.program(program).unwrap();
    let data = TargetSystemData::from_target(&*kind.build(), kind.description());
    let mut space = data.fault_space(Some(0..library.image.code_words), window);
    space.scan_cells.retain(|(chain, _, _)| chain == "internal");
    let mut faults = space.sample_multi_campaign(12, 2, &mut StdRng::seed_from_u64(0x5eed));
    for fault in &mut faults {
        fault.model = model;
    }
    let mut campaign = Campaign::builder("pinned")
        .target_system(kind.system_name())
        .workload(library.image)
        .observe_chains(["internal"])
        .output(library.output)
        .termination(Termination {
            max_instructions: 5_000,
            max_iterations,
        })
        .faults(faults)
        .build()
        .unwrap();
    campaign.logging = logging;
    campaign
}

/// Digests for normal logging under each of [`MODELS`], then detail
/// logging under each.
fn pinned(kind: TargetKind, snapshots: bool) -> Vec<u64> {
    let mut digests = Vec::new();
    for logging in [LoggingMode::Normal, LoggingMode::Detail] {
        for model in MODELS {
            let campaign = pinned_campaign(kind, logging, model);
            let mut env: Box<dyn Environment> = match kind {
                TargetKind::Thor => Box::new(DcMotor::new()),
                TargetKind::Riscv => Box::new(NullEnvironment),
            };
            let result = algorithms::run_campaign_journaled_opts(
                &mut kind.build(),
                &campaign,
                &ProgressMonitor::new(campaign.experiment_count()),
                env.as_mut(),
                None,
                None,
                snapshots,
            )
            .unwrap();
            digests.push(digest(&format!("{result:?}")));
        }
    }
    digests
}

/// The digests both paths must produce on Thor.
const THOR: [u64; 8] = [
    10876820658940329331,
    7023925491421718410,
    13627681662305638183,
    13186285689922070176,
    1136177307897111653,
    2197903468383613343,
    18133809852694896833,
    18164622580385398296,
];

/// The same for RV32I.
const RISCV: [u64; 8] = [
    15546817573866446253,
    3485131065643501660,
    16274599352792417144,
    11031022865279610943,
    17568126458014818864,
    17788149993992835627,
    2793624087630780571,
    14616994583265436679,
];

#[test]
fn thor_run_control_is_pinned_on_the_slow_path() {
    assert_eq!(pinned(TargetKind::Thor, false), THOR);
}

#[test]
fn thor_run_control_is_pinned_on_the_snapshot_path() {
    assert_eq!(pinned(TargetKind::Thor, true), THOR);
}

#[test]
fn riscv_run_control_is_pinned_on_the_slow_path() {
    assert_eq!(pinned(TargetKind::Riscv, false), RISCV);
}

#[test]
fn riscv_run_control_is_pinned_on_the_snapshot_path() {
    assert_eq!(pinned(TargetKind::Riscv, true), RISCV);
}
