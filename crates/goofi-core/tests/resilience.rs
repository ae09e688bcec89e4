//! Campaign resilience tests: retry/skip/abort policies, watchdog hang
//! detection, crash-safe journaling and resume with `parentExperiment`
//! re-runs — driven by a scripted target that can fail or hang on demand.

use goofi_core::algorithms;
use goofi_core::campaign::{Campaign, WorkloadImage};
use goofi_core::journal::ExperimentJournal;
use goofi_core::logging::TerminationCause;
use goofi_core::monitor::ProgressMonitor;
use goofi_core::policy::{ExperimentPolicy, WatchdogBudget};
use goofi_core::trigger::Trigger;
use goofi_core::{dbio, runner};
use goofi_core::{pass_through, GoofiError, RunBudget, RunEvent, TargetAccess};
use goofidb::Database;
use scanchain::BitVec;
use std::collections::{HashMap, HashSet};

mod scripted;
use scripted::{run_serial, temp_path, trigger_of, Scripted};

/// The scripted device with experiments scripted to fail or hang, keyed by
/// the experiment's trigger time (each campaign fault gets a distinct
/// trigger, so the key identifies the experiment — and the reference run,
/// which sets no breakpoint, is never affected).
#[derive(Clone)]
struct FlakyTarget {
    inner: Scripted,
    current_trigger: Option<u64>,
    injected: bool,
    /// Cycles a stalled run burned since the load, without retiring any.
    stalled: u64,
    /// trigger time → how many more run_workload calls fail (pre-injection).
    fail_plan: HashMap<u64, u32>,
    /// trigger times whose post-injection run stalls while burning cycles.
    hang_cycles: HashSet<u64>,
    /// trigger times whose post-injection run stalls burning nothing but
    /// wall time.
    hang_wall: HashSet<u64>,
}

impl FlakyTarget {
    fn new(workload_len: u64) -> Self {
        FlakyTarget {
            inner: Scripted::new(workload_len),
            current_trigger: None,
            injected: false,
            stalled: 0,
            fail_plan: HashMap::new(),
            hang_cycles: HashSet::new(),
            hang_wall: HashSet::new(),
        }
    }
}

impl TargetAccess for FlakyTarget {
    pass_through! { inner:
        target_name, init_test_card, reset_target, write_memory, read_memory, flip_memory_bit,
        memory_size, clear_breakpoints, step_instruction, chain_layouts, read_scan_chain,
        write_input_ports, read_output_ports, instructions_executed, iterations_completed,
        step_traced, power_cycle, snapshot, restore, supports_snapshot, prefix_restore_safe,
    }
    fn load_workload(&mut self, image: &WorkloadImage) -> goofi_core::Result<()> {
        self.current_trigger = None;
        self.injected = false;
        self.stalled = 0;
        self.inner.load_workload(image)
    }
    fn set_breakpoint(&mut self, trigger: Trigger) -> goofi_core::Result<()> {
        if let Trigger::AfterInstructions(n) = trigger {
            self.current_trigger = Some(n);
        }
        self.inner.set_breakpoint(trigger)
    }
    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> goofi_core::Result<()> {
        self.injected = true;
        self.inner.write_scan_chain(chain, bits)
    }
    fn cycles_executed(&self) -> u64 {
        self.inner.cycles_executed() + self.stalled
    }
    fn run_workload(&mut self, budget: RunBudget) -> goofi_core::Result<RunEvent> {
        if let Some(t) = self.current_trigger {
            if !self.injected {
                if let Some(n) = self.fail_plan.get_mut(&t) {
                    if *n > 0 {
                        *n -= 1;
                        return Err(GoofiError::Target("flaky test card link".into()));
                    }
                }
            } else if self.hang_cycles.contains(&t) {
                // Stalled hardware: cycles tick, nothing retires.
                self.stalled += budget.max_instructions.max(1);
                return Ok(RunEvent::BudgetExhausted);
            } else if self.hang_wall.contains(&t) {
                // Dead link: nothing advances at all.
                return Ok(RunEvent::BudgetExhausted);
            }
        }
        self.inner.run_workload(budget)
    }
}

fn campaign_n(n: usize, policy: ExperimentPolicy) -> Campaign {
    scripted::campaign("mock", 1_000_000)
        .policy(policy)
        .faults(scripted::staggered_flips(n, |_| 2))
        .build()
        .unwrap()
}

#[test]
fn fail_fast_aborts_but_preserves_completed_records() {
    let mut target = FlakyTarget::new(200);
    target.fail_plan.insert(trigger_of(2), u32::MAX);
    let c = campaign_n(4, ExperimentPolicy::fail_fast());
    let err = run_serial(&mut target, &c, &ProgressMonitor::new(4)).unwrap_err();
    match err {
        GoofiError::ExperimentFailed { failure, partial } => {
            assert_eq!(failure.index, 2);
            assert_eq!(failure.name, "mock/exp00002");
            assert_eq!(failure.attempts, 1);
            assert_eq!(partial.records.len(), 2);
            assert_eq!(partial.records[0].name, "mock/exp00000");
            assert_eq!(partial.reference.termination, TerminationCause::WorkloadEnd);
        }
        other => panic!("expected ExperimentFailed, got {other:?}"),
    }
}

#[test]
fn skip_and_continue_records_failure_and_finishes() {
    let mut target = FlakyTarget::new(200);
    target.fail_plan.insert(trigger_of(2), u32::MAX);
    let c = campaign_n(4, ExperimentPolicy::skip_and_continue());
    let monitor = ProgressMonitor::new(4);
    let result = run_serial(&mut target, &c, &monitor).unwrap();
    assert_eq!(result.records.len(), 3);
    assert_eq!(result.failures.len(), 1);
    assert_eq!(result.failures[0].index, 2);
    assert!(result.failures[0].error.contains("flaky test card link"));
    let progress = monitor.snapshot();
    assert_eq!(progress.completed, 3);
    assert_eq!(progress.failed, 1);
    assert_eq!(progress.fraction(), 1.0);
}

#[test]
fn retry_then_skip_recovers_a_transient_failure() {
    let mut target = FlakyTarget::new(200);
    target.fail_plan.insert(trigger_of(1), 2); // fails twice, then works
    let c = campaign_n(4, ExperimentPolicy::retry_then_skip(3));
    let monitor = ProgressMonitor::new(4);
    let result = run_serial(&mut target, &c, &monitor).unwrap();
    assert_eq!(result.records.len(), 4);
    assert!(result.failures.is_empty());
    assert_eq!(result.records[1].name, "mock/exp00001");
    assert_eq!(monitor.snapshot().retried, 2);
}

#[test]
fn retry_then_fail_aborts_after_exhausting_retries() {
    let mut target = FlakyTarget::new(200);
    target.fail_plan.insert(trigger_of(1), u32::MAX);
    let c = campaign_n(3, ExperimentPolicy::retry_then_fail(2));
    let err = run_serial(&mut target, &c, &ProgressMonitor::new(3)).unwrap_err();
    match err {
        GoofiError::ExperimentFailed { failure, partial } => {
            assert_eq!(failure.index, 1);
            assert_eq!(failure.attempts, 3); // initial try + 2 retries
            assert_eq!(partial.records.len(), 1);
        }
        other => panic!("expected ExperimentFailed, got {other:?}"),
    }
}

#[test]
fn cycle_watchdog_classifies_a_hung_workload_as_timeout() {
    let mut target = FlakyTarget::new(200);
    target.hang_cycles.insert(trigger_of(1));
    let c = campaign_n(
        3,
        ExperimentPolicy::default().with_watchdog(WatchdogBudget {
            max_cycles: Some(5_000),
            max_wall_ms: None,
        }),
    );
    let result = run_serial(&mut target, &c, &ProgressMonitor::new(3)).unwrap();
    assert_eq!(result.reference.termination, TerminationCause::WorkloadEnd);
    assert_eq!(result.records[0].termination, TerminationCause::WorkloadEnd);
    assert_eq!(result.records[1].termination, TerminationCause::Timeout);
    assert_eq!(result.records[2].termination, TerminationCause::WorkloadEnd);
}

#[test]
fn wall_clock_watchdog_classifies_a_dead_target_as_timeout() {
    let mut target = FlakyTarget::new(200);
    target.hang_wall.insert(trigger_of(0));
    let c = campaign_n(
        2,
        ExperimentPolicy::default().with_watchdog(WatchdogBudget {
            max_cycles: None,
            max_wall_ms: Some(50),
        }),
    );
    let result = run_serial(&mut target, &c, &ProgressMonitor::new(2)).unwrap();
    assert_eq!(result.records[0].termination, TerminationCause::Timeout);
    assert_eq!(result.records[1].termination, TerminationCause::WorkloadEnd);
}

#[test]
fn parallel_runner_reports_lowest_index_failure_with_partials() {
    // Both experiment 0 and 1 fail, on different workers, at roughly the
    // same time: the reported failure must deterministically be index 0.
    let make_target = || {
        let mut t = FlakyTarget::new(200);
        t.fail_plan.insert(trigger_of(0), u32::MAX);
        t.fail_plan.insert(trigger_of(1), u32::MAX);
        t
    };
    let c = campaign_n(6, ExperimentPolicy::fail_fast());
    let err = runner::run_campaign_parallel_journaled_opts(
        make_target,
        None::<fn() -> Box<dyn envsim::Environment>>,
        &c,
        &ProgressMonitor::new(6),
        2,
        None,
        true,
    )
    .unwrap_err();
    match err {
        GoofiError::ExperimentFailed { failure, partial } => {
            assert_eq!(failure.index, 0);
            assert!(partial
                .records
                .iter()
                .all(|r| r.name != "mock/exp00000" && r.name != "mock/exp00001"));
        }
        other => panic!("expected ExperimentFailed, got {other:?}"),
    }
}

#[test]
fn parallel_runner_skip_policy_matches_serial() {
    let make_target = || {
        let mut t = FlakyTarget::new(200);
        t.fail_plan.insert(trigger_of(3), u32::MAX);
        t
    };
    let c = campaign_n(6, ExperimentPolicy::skip_and_continue());
    let mut serial_target = make_target();
    let serial = run_serial(&mut serial_target, &c, &ProgressMonitor::new(6)).unwrap();
    let parallel = runner::run_campaign_parallel_journaled_opts(
        make_target,
        None::<fn() -> Box<dyn envsim::Environment>>,
        &c,
        &ProgressMonitor::new(6),
        3,
        None,
        true,
    )
    .unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial.failures.len(), 1);
    assert_eq!(serial.failures[0].index, 3);
}

#[test]
fn resume_reruns_failed_experiments_as_linked_children() {
    let journal = temp_path("rerun.gjl");
    let _ = std::fs::remove_file(&journal);
    let c = campaign_n(3, ExperimentPolicy::skip_and_continue());

    // First run: experiment 1 fails and is journaled as a failure.
    let mut flaky = FlakyTarget::new(200);
    flaky.fail_plan.insert(trigger_of(1), u32::MAX);
    let mut j = ExperimentJournal::create(&journal, "mock").unwrap();
    let first = algorithms::run_campaign_journaled_opts(
        &mut flaky,
        &c,
        &ProgressMonitor::new(3),
        &mut envsim::NullEnvironment,
        Some(&mut j),
        None,
        true,
    )
    .unwrap();
    drop(j);
    assert_eq!(first.failures.len(), 1);

    // The flakiness is gone; resume re-runs experiment 1 as a child of
    // the original experiment (paper §2.3 parentExperiment linking).
    let resumed = runner::resume_campaign(
        || FlakyTarget::new(200),
        None::<fn() -> Box<dyn envsim::Environment>>,
        &c,
        &ProgressMonitor::new(3),
        2,
        &goofi_core::vfs::RealFs,
        &journal,
        0..c.faults.len(),
    )
    .unwrap();
    assert_eq!(resumed.records.len(), 3);
    assert!(resumed.failures.is_empty());
    assert_eq!(resumed.records[0], first.records[0]);
    assert_eq!(resumed.records[2], first.records[1]);
    let rerun = &resumed.records[1];
    assert_eq!(rerun.name, "mock/exp00001/rerun1");
    assert_eq!(rerun.parent.as_deref(), Some("mock/exp00001"));
    assert_eq!(rerun.termination, TerminationCause::WorkloadEnd);

    // The journal now supersedes the failure with the re-run record, and
    // the records import cleanly into the database under the child name.
    let state = ExperimentJournal::load(&journal, "mock").unwrap();
    assert!(state.failed.is_empty());
    assert_eq!(state.completed.len(), 3);
    let mut db = Database::new();
    dbio::init_schema(&mut db).unwrap();
    dbio::store_campaign(&mut db, &c).unwrap();
    let imported = dbio::import_journal(&mut db, &journal, "mock").unwrap();
    assert_eq!(imported, 4); // reference + 3 experiments
    let rerun_row = dbio::load_experiment(&db, "mock/exp00001/rerun1").unwrap();
    assert_eq!(rerun_row.parent.as_deref(), Some("mock/exp00001"));
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn resume_after_any_crash_point_reproduces_the_uninterrupted_run() {
    let journal = temp_path("crash.gjl");
    let _ = std::fs::remove_file(&journal);
    let c = campaign_n(6, ExperimentPolicy::default());

    // Uninterrupted journaled run — the ground truth.
    let mut target = FlakyTarget::new(200);
    let mut j = ExperimentJournal::create(&journal, "mock").unwrap();
    let full = algorithms::run_campaign_journaled_opts(
        &mut target,
        &c,
        &ProgressMonitor::new(6),
        &mut envsim::NullEnvironment,
        Some(&mut j),
        None,
        true,
    )
    .unwrap();
    drop(j);
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::remove_file(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2 + 1 + 6); // header, campaign, reference, experiments

    // Crash after every possible number of journaled lines (even before
    // the reference run), then resume: the result must be identical.
    for crash_after in 2..=lines.len() {
        let partial = temp_path(&format!("crash-{crash_after}.gjl"));
        std::fs::write(&partial, format!("{}\n", lines[..crash_after].join("\n"))).unwrap();
        let resumed = runner::resume_campaign(
            || FlakyTarget::new(200),
            None::<fn() -> Box<dyn envsim::Environment>>,
            &c,
            &ProgressMonitor::new(6),
            2,
            &goofi_core::vfs::RealFs,
            &partial,
            0..c.faults.len(),
        )
        .unwrap_or_else(|e| panic!("resume after {crash_after} lines: {e}"));
        assert_eq!(resumed, full, "crash after {crash_after} journal lines");
        // The journal is whole again after the resume.
        let state = ExperimentJournal::load(&partial, "mock").unwrap();
        assert_eq!(state.completed.len(), 6);
        std::fs::remove_file(&partial).unwrap();
    }

    // A crash mid-append (torn final line) resumes identically too.
    let torn = temp_path("crash-torn.gjl");
    std::fs::write(&torn, &text[..text.len() - 9]).unwrap();
    let resumed = runner::resume_campaign(
        || FlakyTarget::new(200),
        None::<fn() -> Box<dyn envsim::Environment>>,
        &c,
        &ProgressMonitor::new(6),
        2,
        &goofi_core::vfs::RealFs,
        &torn,
        0..c.faults.len(),
    )
    .unwrap();
    assert_eq!(resumed, full, "torn journal tail");
    std::fs::remove_file(&torn).unwrap();
}

#[test]
fn resume_on_a_missing_journal_runs_the_full_campaign() {
    let journal = temp_path("fresh.gjl");
    let _ = std::fs::remove_file(&journal);
    let c = campaign_n(3, ExperimentPolicy::default());
    let mut target = FlakyTarget::new(200);
    let serial = run_serial(&mut target, &c, &ProgressMonitor::new(3)).unwrap();
    let resumed = runner::resume_campaign(
        || FlakyTarget::new(200),
        None::<fn() -> Box<dyn envsim::Environment>>,
        &c,
        &ProgressMonitor::new(3),
        2,
        &goofi_core::vfs::RealFs,
        &journal,
        0..c.faults.len(),
    )
    .unwrap();
    assert_eq!(resumed, serial);
    assert!(journal.exists(), "resume created the journal");
    std::fs::remove_file(&journal).unwrap();
}
