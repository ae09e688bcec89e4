//! End-to-end unreliable-link resilience tests.
//!
//! The two acceptance properties of the link-resilience subsystem:
//!
//! 1. **Recoverable faults are invisible.** A campaign run through
//!    `VerifiedTarget(UnreliableTarget(target))` at a recoverable fault
//!    rate produces a result bit-for-bit identical to the same campaign on
//!    a perfect link.
//! 2. **Unrecoverable drift is quarantined.** When golden-run revalidation
//!    detects that the link misbehaved, the records of the suspect window
//!    are marked invalid, kept for audit, and superseded by
//!    `parentExperiment`-linked re-runs — in the campaign result, in the
//!    crash-safe journal, and in the database.

use goofi_core::algorithms;
use goofi_core::campaign::{Campaign, WorkloadImage};
use goofi_core::golden::GoldenCache;
use goofi_core::journal::ExperimentJournal;
use goofi_core::link::{UnreliableTarget, VerifiedTarget, VerifyConfig};
use goofi_core::logging::Validity;
use goofi_core::monitor::ProgressMonitor;
use goofi_core::policy::ExperimentPolicy;
use goofi_core::{dbio, runner};
use goofi_core::{pass_through, TargetAccess};
use goofidb::Database;
use scanchain::LinkFaultConfig;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod recorder;
use recorder::Recorder;
mod scripted;
use scripted::{temp_path, Scripted};

/// The scripted device on a lab link. `bad_loads` names the (1-based)
/// workload loads whose runs produce drifted outputs — modelling a link
/// that went bad between two golden-run checks. The load counter is shared
/// across clones so parallel workers observe one global timeline.
#[derive(Clone)]
struct LabTarget {
    inner: Scripted,
    loads: Arc<AtomicU64>,
    bad_loads: Range<u64>,
    bad_now: bool,
}

impl LabTarget {
    fn new(workload_len: u64) -> Self {
        Self::drifting(workload_len, 0..0, Arc::new(AtomicU64::new(0)))
    }

    fn drifting(workload_len: u64, bad_loads: Range<u64>, loads: Arc<AtomicU64>) -> Self {
        LabTarget {
            inner: Scripted::new(workload_len),
            loads,
            bad_loads,
            bad_now: false,
        }
    }
}

impl TargetAccess for LabTarget {
    pass_through! { inner:
        target_name, init_test_card, reset_target, write_memory, read_memory, flip_memory_bit,
        memory_size, set_breakpoint, clear_breakpoints, run_workload, step_instruction,
        chain_layouts, read_scan_chain, write_scan_chain, write_input_ports,
        instructions_executed, cycles_executed, iterations_completed, step_traced, power_cycle,
        snapshot, restore, supports_snapshot, prefix_restore_safe,
    }
    fn load_workload(&mut self, image: &WorkloadImage) -> goofi_core::Result<()> {
        let load = self.loads.fetch_add(1, Ordering::SeqCst) + 1;
        self.bad_now = self.bad_loads.contains(&load);
        self.inner.load_workload(image)
    }
    fn read_output_ports(&mut self) -> goofi_core::Result<Vec<u32>> {
        let mut outputs = self.inner.read_output_ports()?;
        // A drifted run yields wrong outputs — what a stuck scan link
        // looks like from the host.
        if self.bad_now {
            outputs[0] ^= 0x8000_0000;
        }
        Ok(outputs)
    }
}

fn campaign_n(n: usize, policy: ExperimentPolicy) -> Campaign {
    scripted::campaign("lossy", 1_000_000)
        .policy(policy)
        .faults(scripted::staggered_flips(n, |i| i % 8))
        .build()
        .unwrap()
}

#[test]
fn verified_campaign_over_lossy_link_matches_fault_free_run() {
    let c = campaign_n(8, ExperimentPolicy::default());

    // Ground truth: the campaign on a perfect link.
    let mut clean_target = LabTarget::new(200);
    let clean = algorithms::run_campaign(
        &mut clean_target,
        &c,
        &ProgressMonitor::new(8),
        &mut envsim::NullEnvironment,
    )
    .unwrap();

    // The same campaign through a lossy link with the recovery layer on.
    let monitor = ProgressMonitor::new(8);
    let lossy = UnreliableTarget::new(
        LabTarget::new(200),
        LinkFaultConfig {
            seed: 7,
            corrupt_rate: 0.02,
            drop_rate: 0.01,
            duplicate_rate: 0.01,
            stall_rate: 0.005,
            disconnect_rate: 0.005,
            ..Default::default()
        },
    );
    let mut verified = VerifiedTarget::with_config(lossy, VerifyConfig { max_attempts: 10 })
        .with_monitor(monitor.clone());
    let recovered_result =
        algorithms::run_campaign(&mut verified, &c, &monitor, &mut envsim::NullEnvironment)
            .unwrap();

    assert_eq!(
        recovered_result, clean,
        "recoverable link faults must be invisible in the campaign result"
    );
    assert!(recovered_result.quarantined.is_empty());
    let stats = verified.stats();
    assert!(
        stats.recovered > 0,
        "the lossy link must actually have misbehaved"
    );
    assert_eq!(stats.unrecovered, 0);
    assert!(
        verified.inner().counts().total() > 0,
        "fault model must have injected transport events"
    );
    assert_eq!(monitor.snapshot().link_recovered as u64, stats.recovered);
}

#[test]
fn golden_run_drift_quarantines_window_and_reruns_with_parent_links() {
    // Timeline by workload load: 1 reference, 2-3 experiments 0-1,
    // 4 golden run (BAD: the link drifted) -> quarantine + reruns on
    // loads 5-6, 7-8 experiments 2-3, 9 golden run (clean again).
    let c = campaign_n(4, ExperimentPolicy::default().with_revalidation(2));
    let mut target = LabTarget::drifting(200, 4..5, Arc::new(AtomicU64::new(0)));

    let journal_path = temp_path("quarantine.gjl");
    let _ = std::fs::remove_file(&journal_path);
    let mut journal = ExperimentJournal::create(&journal_path, "lossy").unwrap();
    let monitor = ProgressMonitor::new(4);
    let result = algorithms::run_campaign_journaled_opts(
        &mut target,
        &c,
        &monitor,
        &mut envsim::NullEnvironment,
        Some(&mut journal),
        None,
        true,
    )
    .unwrap();
    drop(journal);

    // The first window was quarantined and superseded by linked re-runs.
    assert_eq!(result.records.len(), 4);
    assert_eq!(result.records[0].name, "lossy/exp00000/rerun1");
    assert_eq!(result.records[0].parent.as_deref(), Some("lossy/exp00000"));
    assert_eq!(result.records[1].name, "lossy/exp00001/rerun1");
    assert_eq!(result.records[1].parent.as_deref(), Some("lossy/exp00001"));
    assert_eq!(result.records[2].name, "lossy/exp00002");
    assert_eq!(result.records[3].name, "lossy/exp00003");
    assert!(result.records.iter().all(|r| r.validity == Validity::Valid));
    assert_eq!(result.quarantined.len(), 2);
    assert!(result
        .quarantined
        .iter()
        .all(|r| r.validity == Validity::Invalid));
    assert_eq!(result.quarantined[0].name, "lossy/exp00000");
    assert_eq!(monitor.snapshot().quarantined, 2);

    // The reruns ran on a clean link, so apart from name/parent they must
    // equal what the quarantined originals measured on the clean link too.
    for (rerun, original) in result.records.iter().zip(&result.quarantined) {
        assert_eq!(rerun.termination, original.termination);
        assert_eq!(rerun.state, original.state);
        assert_eq!(rerun.fault, original.fault);
    }

    // Journal: the quarantine marks and reruns are durable; the invalid
    // originals stay available for import.
    let state = ExperimentJournal::load(&journal_path, "lossy").unwrap();
    assert_eq!(state.completed.len(), 4);
    assert_eq!(state.completed[&0].name, "lossy/exp00000/rerun1");
    assert!(state.failed.is_empty());
    assert_eq!(state.quarantined.len(), 2);

    // Database: originals logged as invalid, reruns linked via
    // parentExperiment — and the analysis layer sees only valid records.
    let mut db = Database::new();
    dbio::init_schema(&mut db).unwrap();
    dbio::store_campaign(&mut db, &c).unwrap();
    let imported = dbio::import_journal(&mut db, &journal_path, "lossy").unwrap();
    assert_eq!(imported, 7); // reference + 4 valid records + 2 quarantined
    let original = dbio::load_experiment(&db, "lossy/exp00000").unwrap();
    assert_eq!(original.validity, Validity::Invalid);
    let rerun = dbio::load_experiment(&db, "lossy/exp00000/rerun1").unwrap();
    assert_eq!(rerun.validity, Validity::Valid);
    assert_eq!(rerun.parent.as_deref(), Some("lossy/exp00000"));
    std::fs::remove_file(&journal_path).unwrap();
}

#[test]
fn interrupted_quarantine_is_finished_by_resume() {
    // Run the drifting campaign, then truncate the journal right after the
    // two quarantine marks (simulating a crash mid-revalidation): resume
    // must re-run the quarantined experiments as linked reruns.
    let c = campaign_n(4, ExperimentPolicy::default().with_revalidation(2));
    let mut target = LabTarget::drifting(200, 4..5, Arc::new(AtomicU64::new(0)));
    let journal_path = temp_path("crashed-quarantine.gjl");
    let _ = std::fs::remove_file(&journal_path);
    let mut journal = ExperimentJournal::create(&journal_path, "lossy").unwrap();
    algorithms::run_campaign_journaled_opts(
        &mut target,
        &c,
        &ProgressMonitor::new(4),
        &mut envsim::NullEnvironment,
        Some(&mut journal),
        None,
        true,
    )
    .unwrap();
    drop(journal);

    // Keep header, campaign line, reference, exp0, exp1, and both invalid
    // re-journalings — drop the reruns and the rest of the campaign.
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let crashed = temp_path("crashed-quarantine-cut.gjl");
    std::fs::write(&crashed, format!("{}\n", lines[..7].join("\n"))).unwrap();

    let resumed = runner::resume_campaign(
        || LabTarget::new(200),
        None::<fn() -> Box<dyn envsim::Environment>>,
        &c,
        &ProgressMonitor::new(4),
        2,
        &goofi_core::vfs::RealFs,
        &crashed,
        0..c.faults.len(),
    )
    .unwrap();
    assert_eq!(resumed.records.len(), 4);
    assert_eq!(resumed.records[0].name, "lossy/exp00000/rerun1");
    assert_eq!(resumed.records[0].parent.as_deref(), Some("lossy/exp00000"));
    assert_eq!(resumed.records[1].name, "lossy/exp00001/rerun1");
    assert!(resumed.failures.is_empty());
    std::fs::remove_file(&journal_path).unwrap();
    std::fs::remove_file(&crashed).unwrap();
}

#[test]
fn serial_and_single_loop_resume_quarantine_the_same_window() {
    // Same timeline as the serial quarantine test above. Resume with one
    // loop makes its reference run on its own target, so the factory hands
    // out views of one physical target (one shared load counter).
    let c = campaign_n(4, ExperimentPolicy::default().with_revalidation(2));
    let mut target = LabTarget::drifting(200, 4..5, Arc::new(AtomicU64::new(0)));
    let serial = algorithms::run_campaign(
        &mut target,
        &c,
        &ProgressMonitor::new(4),
        &mut envsim::NullEnvironment,
    )
    .unwrap();
    assert_eq!(serial.quarantined.len(), 2);

    // A private dir keeps the golden cache, stored beside the journal, from
    // serving a reference left behind by another run.
    let dir = temp_path("single-loop-resume");
    std::fs::create_dir_all(&dir).unwrap();
    let loads = Arc::new(AtomicU64::new(0));
    let resumed = runner::resume_campaign(
        move || LabTarget::drifting(200, 4..5, loads.clone()),
        None::<fn() -> Box<dyn envsim::Environment>>,
        &c,
        &ProgressMonitor::new(4),
        1,
        &goofi_core::vfs::RealFs,
        dir.join("fresh.gjl"),
        0..c.faults.len(),
    )
    .unwrap();
    assert_eq!(resumed.records, serial.records);
    assert_eq!(resumed.quarantined, serial.quarantined);
    let links = |r: &goofi_core::algorithms::CampaignResult| -> Vec<Option<String>> {
        r.records.iter().map(|r| r.parent.clone()).collect()
    };
    assert_eq!(links(&resumed), links(&serial));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn parallel_loops_quarantine_drift_seen_on_their_own_targets() {
    // Every target's link goes bad from its own second workload load on:
    // each loop's first experiment runs clean, and every golden check after
    // it drifts. Each loop checks after every record, so however the two
    // loops split the items, every record is quarantined exactly once.
    let c = campaign_n(4, ExperimentPolicy::default().with_revalidation(1));
    let monitor = ProgressMonitor::new(4);
    let result = runner::run_campaign_parallel_journaled_opts(
        || LabTarget::drifting(200, 2..u64::MAX, Arc::new(AtomicU64::new(0))),
        None::<fn() -> Box<dyn envsim::Environment>>,
        &c,
        &monitor,
        2,
        None,
        true,
    )
    .unwrap();
    assert_eq!(result.records.len(), 4);
    assert_eq!(result.quarantined.len(), 4);
    for (i, record) in result.records.iter().enumerate() {
        assert_eq!(record.name, format!("lossy/exp{i:05}/rerun1"));
        assert_eq!(
            record.parent.as_deref(),
            Some(format!("lossy/exp{i:05}")).as_deref()
        );
        assert_eq!(record.validity, Validity::Valid);
    }
    assert!(result
        .quarantined
        .iter()
        .all(|r| r.validity == Validity::Invalid));
    assert_eq!(monitor.snapshot().quarantined, 4);
}

#[test]
fn unrecovered_link_fault_is_a_policy_visible_failure() {
    // A permanently dead link: the verified target escalates to
    // GoofiError::LinkFault and the skip policy records the failure
    // instead of aborting the campaign.
    let c = campaign_n(2, ExperimentPolicy::skip_and_continue());
    let monitor = ProgressMonitor::new(2);
    let lossy = UnreliableTarget::new(
        LabTarget::new(200),
        LinkFaultConfig {
            seed: 9,
            disconnect_rate: 1.0,
            // The reference run needs a working link (it consumes exactly
            // four transport ops on this target); every transaction after
            // it is dead.
            skip_ops: 4,
            ..Default::default()
        },
    );
    let mut verified = VerifiedTarget::with_config(lossy, VerifyConfig { max_attempts: 2 })
        .with_monitor(monitor.clone());
    let result =
        algorithms::run_campaign(&mut verified, &c, &monitor, &mut envsim::NullEnvironment);
    match result {
        Ok(r) => {
            assert!(
                !r.failures.is_empty(),
                "a dead link must surface as experiment failures"
            );
            assert!(r.failures[0].error.contains("link fault"));
        }
        Err(e) => panic!("skip policy must not abort the campaign: {e}"),
    }
    assert!(verified.stats().unrecovered > 0);
    assert!(monitor.snapshot().link_unrecovered > 0);
}

#[test]
fn a_drift_syncs_its_marks_before_the_reruns_and_the_next_clean_check_restores_the_cache() {
    // The timeline of the serial quarantine test above, resumed with one
    // loop: the golden run on load 4 drifts, the one on load 9 is clean.
    let c = campaign_n(4, ExperimentPolicy::default().with_revalidation(2));
    let dir = temp_path("drift-ordering");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("run.gjl");
    let recorder = Recorder::new(goofi_core::vfs::RealFs);
    let loads = Arc::new(AtomicU64::new(0));
    let result = runner::resume_campaign(
        move || LabTarget::drifting(200, 4..5, loads.clone()),
        None::<fn() -> Box<dyn envsim::Environment>>,
        &c,
        &ProgressMonitor::new(4),
        1,
        &recorder,
        &journal,
        0..c.faults.len(),
    )
    .unwrap();
    assert_eq!(result.quarantined.len(), 2, "the drift never happened");
    assert_eq!(
        recorder::unsynced_before_rerun(&recorder.ops()),
        0,
        "journal entries unsynced when the re-runs started"
    );
    // The drift deleted the cached golden run; the clean check stored it
    // again.
    let env = envsim::Environment::name(&envsim::NullEnvironment);
    let cache = GoldenCache::new(&goofi_core::vfs::RealFs, &journal, &c, env);
    assert_eq!(cache.load(&c), Some(result.reference));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn clean_revalidation_leaves_a_current_golden_cache_alone() {
    // Mutating filesystem operations of one journaled run of `c`.
    let ops = |c: &Campaign| {
        let dir = temp_path("cache-ops");
        std::fs::create_dir_all(&dir).unwrap();
        let counting = goofi_core::vfs::FaultFs::counting();
        runner::resume_campaign(
            || LabTarget::new(200),
            None::<fn() -> Box<dyn envsim::Environment>>,
            c,
            &ProgressMonitor::new(c.faults.len()),
            1,
            &counting,
            dir.join("run.gjl"),
            0..c.faults.len(),
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        counting.ops()
    };
    let plain = ops(&campaign_n(20, ExperimentPolicy::default()));
    let revalidated = ops(&campaign_n(
        20,
        ExperimentPolicy::default().with_revalidation(2),
    ));
    assert_eq!(revalidated, plain);
}
