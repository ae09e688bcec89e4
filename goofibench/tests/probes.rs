//! The timing probes must be invisible to the code they wrap: a timed
//! target passes the `TargetAccess` conformance suite, a traced campaign
//! logs exactly the records an untraced one does, and a journal written
//! through the timed filesystem reads back unchanged.

use envsim::NullEnvironment;
use goofi_core::algorithms::{self, CampaignResult};
use goofi_core::campaign::{Campaign, WorkloadImage};
use goofi_core::conformance::{run_suite, ConformanceSpec, CHECK_NAMES};
use goofi_core::journal::ExperimentJournal;
use goofi_core::monitor::ProgressMonitor;
use goofi_core::vfs::RealFs;
use goofi_core::TargetAccess;
use goofi_riscv::RiscvTarget;
use goofi_thor::ThorTarget;
use goofibench::probe::{Ledger, Op, TimedTarget, TimedVfs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn thor_image() -> WorkloadImage {
    bench::workload_image(&workloads::by_name("crc32").expect("crc32 exists"))
}

fn riscv_image() -> WorkloadImage {
    bench::riscv_workload_image(&workloads::riscv_by_name("rv-memcpy").expect("rv-memcpy exists"))
}

fn native_spec(label: &str, image: WorkloadImage, name: &str) -> ConformanceSpec {
    let mut spec = ConformanceSpec::new(label, image);
    spec.expect_name = Some(name.to_string());
    spec.expect_snapshot = Some(true);
    spec.expect_prefix_safe = Some(true);
    spec.counters_restored = true;
    spec
}

#[test]
fn timed_targets_pass_the_conformance_suite_on_both_cpus() {
    let ledger = Ledger::new();
    let report = run_suite(
        &mut TimedTarget::new(ThorTarget::default(), &ledger),
        &native_spec("timed thor", thor_image(), "thor-rd"),
    );
    assert!(report.passed(), "{report}");
    assert_eq!(report.checks.len(), CHECK_NAMES.len());
    let report = run_suite(
        &mut TimedTarget::new(RiscvTarget::default(), &ledger),
        &native_spec("timed rv32i", riscv_image(), "rv32i"),
    );
    assert!(report.passed(), "{report}");
    // Dropping the targets merged their tallies: the suite snapshotted,
    // restored, digested, scanned and ran.
    let tallies = ledger.tallies();
    for op in [Op::Snapshot, Op::Restore, Op::Digest, Op::ScanRead, Op::Run] {
        assert!(tallies[op as usize].count > 0, "{op:?} was never timed");
    }
}

fn campaign(riscv: bool, faults: usize) -> Campaign {
    let data = if riscv {
        bench::riscv_description()
    } else {
        bench::thor_description()
    };
    let space = bench::internal_fault_space(&data, 0..300);
    let builder = if riscv {
        bench::riscv_campaign_for(
            "probe-rv",
            &workloads::riscv_by_name("rv-fibonacci").unwrap(),
        )
    } else {
        bench::campaign_for("probe-thor", &workloads::by_name("fibonacci").unwrap())
    };
    builder
        .faults(space.sample_campaign(faults, &mut StdRng::seed_from_u64(7)))
        .build()
        .unwrap()
}

fn run<T: TargetAccess>(mut target: T, campaign: &Campaign) -> CampaignResult {
    algorithms::run_campaign_journaled_opts(
        &mut target,
        campaign,
        &ProgressMonitor::new(campaign.experiment_count()),
        &mut NullEnvironment,
        None,
        None,
        true,
    )
    .unwrap()
}

#[test]
fn traced_and_untraced_campaigns_log_identical_records() {
    for riscv in [false, true] {
        let campaign = campaign(riscv, 40);
        let ledger = Ledger::new();
        let (plain, timed) = if riscv {
            (
                run(RiscvTarget::default(), &campaign),
                run(TimedTarget::new(RiscvTarget::default(), &ledger), &campaign),
            )
        } else {
            (
                run(ThorTarget::default(), &campaign),
                run(TimedTarget::new(ThorTarget::default(), &ledger), &campaign),
            )
        };
        assert_eq!(plain, timed, "tracing changed the records (riscv: {riscv})");
        // The traced run took the snapshot fast path, like the plain one.
        let tallies = ledger.tallies();
        assert!(tallies[Op::Restore as usize].count > 0);
        assert!(tallies[Op::RunToTrigger as usize].units > 0);
    }
}

#[test]
fn timed_journal_reads_back_and_counts_one_fsync_per_append() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("timed-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("c.gjl");
    let campaign = campaign(false, 12);
    let ledger = Ledger::new();
    let vfs = TimedVfs::new(RealFs, &ledger);
    let mut journal = ExperimentJournal::create_with(&vfs, &path, &campaign.name).unwrap();
    let result = algorithms::run_campaign_journaled_opts(
        &mut ThorTarget::default(),
        &campaign,
        &ProgressMonitor::new(campaign.experiment_count()),
        &mut NullEnvironment,
        Some(&mut journal),
        None,
        true,
    )
    .unwrap();
    drop(journal);

    let state = ExperimentJournal::load(&path, &campaign.name).unwrap();
    assert_eq!(state.reference.as_ref(), Some(&result.reference));
    assert_eq!(
        state.completed.into_values().collect::<Vec<_>>(),
        result.records
    );
    let tallies = ledger.tallies();
    // Header plus reference plus one line per experiment, each synced.
    let appends = 1 + 1 + campaign.experiment_count() as u64;
    assert_eq!(tallies[Op::JournalSync as usize].count, appends);
    assert_eq!(tallies[Op::JournalWrite as usize].count, appends);
    assert_eq!(tallies[Op::JournalCreate as usize].count, 1);
    assert_eq!(
        tallies[Op::JournalWrite as usize].units,
        std::fs::metadata(&path).unwrap().len()
    );
    assert_eq!(ledger.fsync_ns().len() as u64, appends);
    std::fs::remove_dir_all(&dir).unwrap();
}
