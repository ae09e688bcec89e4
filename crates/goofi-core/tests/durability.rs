//! Durability torture harness: the framework injecting faults into
//! *itself*.
//!
//! Every persistence artifact — run journal, database file, service spool —
//! is written through the [`goofi_core::vfs`] seam, so a seeded
//! [`FaultFs`] can tear a write, garble a sector, drop every fsync, cut
//! the power, or fail with `ENOSPC`/`EIO` at *any* chosen operation. The
//! torture discipline is always the same:
//!
//! 1. count the mutating operations of an uninterrupted run,
//! 2. crash (or fault) the run at every single one of them,
//! 3. run `fsck --repair` over the wreckage,
//! 4. resume on the clean filesystem,
//! 5. assert the final database is essence-equal to a run that was never
//!    interrupted — and that a second fsck pass finds nothing.
//!
//! Plus a corruption-class matrix (every [`CorruptionClass`] is detected
//! without `--repair` and repaired to convergence with it), scheduler
//! spool-recovery quarantine, and proptests over randomly truncated and
//! bit-flipped journal tails and spool manifests.

use envsim::Environment;
use goofi_core::campaign::Campaign;
use goofi_core::dbio;
use goofi_core::fault::FaultLocation;
use goofi_core::framework::SimTarget;
use goofi_core::fsck::{self, CorruptionClass};
use goofi_core::journal;
use goofi_core::monitor::ProgressMonitor;
use goofi_core::policy::{ExperimentPolicy, WatchdogBudget};
use goofi_core::runner;
use goofi_core::supervisor::WedgeableTarget;
use goofi_core::vfs::{FaultFs, FaultKind, FaultPlan, RealFs, Vfs};
use goofi_core::GoofiError;
use proptest::prelude::*;
use scanchain::WedgeConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

mod oracle;
mod recorder;
use oracle::{assert_essence_equal, config, make_db, serial_records, sim_campaign, temp_dir};
use recorder::Recorder;

const CAMPAIGN: &str = "torture";

/// One full persistence cycle over `vfs`: a journaled (resuming) run, then
/// merge the journal into the database file with an atomic checksummed
/// save. Exactly the sequence every crash in this harness interrupts.
fn run_and_persist(
    vfs: &dyn Vfs,
    campaign: &Campaign,
    db_path: &Path,
    journal_path: &Path,
) -> goofi_core::Result<()> {
    let monitor = ProgressMonitor::new(campaign.experiment_count());
    runner::resume_campaign(
        SimTarget::new,
        None::<fn() -> Box<dyn envsim::Environment>>,
        campaign,
        &monitor,
        1,
        vfs,
        journal_path,
        0..campaign.experiment_count(),
    )?;
    let mut db = if vfs.exists(db_path) {
        dbio::load_database(vfs, db_path)?
    } else {
        let mut fresh = goofidb::Database::new();
        dbio::init_schema(&mut fresh)?;
        dbio::store_campaign(&mut fresh, campaign)?;
        fresh
    };
    dbio::import_journal_with(&mut db, vfs, journal_path, &campaign.name)?;
    dbio::save_database(vfs, db_path, &db)
}

/// Exhaustively crashes a run→persist cycle of `experiments` experiments
/// at every mutating filesystem operation with fault `kind`, then proves
/// crash → fsck → resume converges to the uninterrupted run's database.
fn crash_walk(kind: FaultKind, experiments: usize) {
    let dir = temp_dir(&format!("walk-{}", kind.encode()));
    let campaign = sim_campaign(CAMPAIGN, experiments);
    let want = serial_records(&campaign);

    // Pass 0: learn how many mutating operations the walk must cover, and
    // which of them sync the journal.
    let count_dir = dir.join("count");
    std::fs::create_dir_all(&count_dir).unwrap();
    let counting = FaultFs::counting();
    let recorder = Recorder::new(counting.clone());
    run_and_persist(
        &recorder,
        &campaign,
        &count_dir.join("c.gdb"),
        &count_dir.join("c.gjl"),
    )
    .unwrap();
    let total = counting.ops();
    assert!(total > 10, "counting pass looks too small: {total} ops");
    let ops = recorder.ops();
    assert_eq!(ops.len() as u64, total, "ops numbered unlike FaultFs");
    // (operation number, journal entries durable once it returned) per
    // journal sync.
    let mut entries = 0;
    let mut syncs = Vec::new();
    for (at, op) in (1u64..).zip(&ops) {
        entries += usize::from(op.journal_entry());
        if op.journal_sync() {
            syncs.push((at, entries));
        }
    }
    if kind == FaultKind::PowerCut {
        assert_sync_batches(&syncs, experiments);
    }

    for at in 1..=total {
        let kdir = dir.join(format!("at{at}"));
        std::fs::create_dir_all(&kdir).unwrap();
        let db = kdir.join("campaigns.gdb");
        let journal = kdir.join("run.gjl");
        let fault = FaultFs::new(FaultPlan {
            at,
            kind,
            seed: 0xD15_EA5E ^ at,
        });

        // Phase 1: run until the machine dies. (A fault landing on a
        // best-effort operation like the directory sync can let the run
        // report success; the walk does not care — the wreckage on disk is
        // what matters.)
        let _ = run_and_persist(&fault, &campaign, &db, &journal);
        if kind == FaultKind::PowerCut {
            // Only synced entries survive: after a cut just after the k-th
            // batch sync, the reference plus k batches of records.
            let durable = journal::ExperimentJournal::load(&journal, CAMPAIGN)
                .ok()
                .map(|state| state.len());
            let synced = syncs.iter().rev().find(|s| s.0 < at).map(|s| s.1);
            assert_eq!(
                durable, synced,
                "journal entries after a power cut at op {at}"
            );
        }

        // Phase 2: repair with the real filesystem, as an operator would.
        let report = fsck::fsck_all(&RealFs, &db, Some((&journal, CAMPAIGN)), true)
            .unwrap_or_else(|e| panic!("fsck --repair failed at op {at} ({kind:?}): {e}"));

        // Phase 3: fsck converges — a second pass finds nothing.
        let second = fsck::fsck_all(&RealFs, &db, Some((&journal, CAMPAIGN)), false).unwrap();
        assert!(
            second.clean(),
            "fsck did not converge at op {at} ({kind:?}):\nsecond: {}\nfirst: {}",
            second.render(),
            report.render()
        );

        // Phase 4: resume on the clean filesystem.
        run_and_persist(&RealFs, &campaign, &db, &journal)
            .unwrap_or_else(|e| panic!("resume failed at op {at} ({kind:?}): {e}"));

        // Phase 5: nothing was lost, nothing was duplicated.
        assert_essence_equal(&db, CAMPAIGN, &want, &format!("{kind:?} at op {at}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts the journal synced its header, the reference, every full batch
/// of records and, in the fan-in, the partial last one — and that the run
/// spanned at least two full batches. `syncs` holds the entries durable
/// after each journal sync; the batch size is read off the third.
fn assert_sync_batches(syncs: &[(u64, usize)], experiments: usize) {
    let durable: Vec<usize> = syncs.iter().map(|s| s.1).collect();
    let batch = durable.get(2).map_or(0, |n| n.saturating_sub(1));
    assert!(
        batch > 1 && 2 * batch < experiments,
        "no two full sync batches in {experiments} experiments: {durable:?}"
    );
    let mut want = vec![0, 1];
    want.extend((1..=(experiments - 1) / batch).map(|k| 1 + k * batch));
    want.push(1 + experiments);
    assert_eq!(durable, want, "entries durable after each journal sync");
}

#[test]
fn torn_write_crash_at_every_operation_converges() {
    crash_walk(FaultKind::Torn, 5);
}

#[test]
fn garbled_write_crash_at_every_operation_converges() {
    crash_walk(FaultKind::Garble, 5);
}

#[test]
fn lost_sync_crash_at_every_operation_converges() {
    crash_walk(FaultKind::LostSync, 5);
}

/// Past two journal sync batches, so cuts land after full batches and
/// inside the partial last one.
#[test]
fn power_cut_at_every_operation_converges() {
    crash_walk(FaultKind::PowerCut, 160);
}

/// An environment that pauses `monitor` at the `at`-th reset counted over
/// all its instances: the reference run resets first, then each
/// experiment attempt once.
struct PauseAt {
    monitor: ProgressMonitor,
    resets: Arc<AtomicUsize>,
    at: usize,
}

impl Environment for PauseAt {
    fn name(&self) -> &str {
        "pause-at"
    }

    fn reset(&mut self) {
        if self.resets.fetch_add(1, Ordering::SeqCst) + 1 == self.at {
            self.monitor.pause();
        }
    }

    fn exchange(&mut self, _outputs: &[u32]) -> Vec<u32> {
        Vec::new()
    }
}

/// A loop about to block on a pause first syncs the batch it is in the
/// middle of, whether the pause finds it between two experiments or
/// between the retries of a failing one.
#[test]
fn a_paused_campaign_holds_no_unsynced_entry() {
    for retrying in [false, true] {
        let mut campaign = sim_campaign(CAMPAIGN, 64);
        campaign.policy = ExperimentPolicy::retry_then_skip(1);
        if retrying {
            // A flip past the end of memory fails every attempt.
            campaign.faults[32].locations = vec![FaultLocation::Memory {
                addr: 1 << 20,
                bit: 0,
            }];
        }
        let monitor = ProgressMonitor::new(64);
        let resets = Arc::new(AtomicUsize::new(0));
        // Reset 34 starts experiment 32, when the reference and 32 records
        // are journaled and the records not yet synced.
        let make_env = || {
            Box::new(PauseAt {
                monitor: monitor.clone(),
                resets: Arc::clone(&resets),
                at: 34,
            }) as Box<dyn Environment>
        };
        let recorder = Recorder::new(RealFs);
        let dir = temp_dir("pause");
        let entries = |ops: &[recorder::Op]| ops.iter().filter(|op| op.journal_entry()).count();
        std::thread::scope(|scope| {
            let running = scope.spawn(|| {
                runner::resume_campaign(
                    SimTarget::new,
                    Some(make_env),
                    &campaign,
                    &monitor,
                    1,
                    &recorder,
                    dir.join("run.gjl"),
                    0..64,
                )
            });
            // Wait for the loop to block with nothing left to sync.
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut ops = recorder.ops();
            while (entries(&ops) < 33 || recorder::unsynced(&ops) > 0) && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(2));
                ops = recorder.ops();
            }
            let retried = monitor.snapshot().retried;
            monitor.resume();
            let result = running.join().unwrap().unwrap();
            // Between experiments the loop had journaled experiment 32;
            // between its retries it had not.
            let want = (34 - usize::from(retrying), 0, usize::from(retrying));
            assert_eq!(
                (entries(&ops), recorder::unsynced(&ops), retried),
                want,
                "(entries, unsynced, retries) while paused, retrying: {retrying}"
            );
            assert_eq!(result.failures.len(), usize::from(retrying));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A hang's quarantine mark is synced before recovery and the re-run.
#[test]
fn a_hang_mark_is_synced_before_recovery_reruns_it() {
    let mut campaign = sim_campaign(CAMPAIGN, 4);
    campaign.policy = ExperimentPolicy::default()
        .with_watchdog(WatchdogBudget {
            max_cycles: Some(5_000),
            max_wall_ms: None,
        })
        .with_health_check(1_000);
    // The reference runs on the first target; the loop's target hangs on
    // its first experiment until a power cycle.
    let made = AtomicUsize::new(0);
    let make_target = || {
        let config = if made.fetch_add(1, Ordering::Relaxed) == 0 {
            WedgeConfig::default()
        } else {
            WedgeConfig {
                max_events: Some(1),
                ..WedgeConfig::hang(1, 1.0)
            }
        };
        WedgeableTarget::new(SimTarget::new(), config)
    };
    let recorder = Recorder::new(RealFs);
    let dir = temp_dir("hang");
    let result = runner::resume_campaign(
        make_target,
        None::<fn() -> Box<dyn Environment>>,
        &campaign,
        &ProgressMonitor::new(4),
        1,
        &recorder,
        dir.join("run.gjl"),
        0..4,
    )
    .unwrap();
    assert_eq!(result.quarantined.len(), 1, "the hang never happened");
    assert_eq!(recorder::unsynced_before_rerun(&recorder.ops()), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resume reads its journal once, salvaging and loading from the same
/// read, and leaves a clean journal untouched.
#[test]
fn resume_reads_a_clean_journal_once_and_leaves_it_untouched() {
    let dir = temp_dir("resume-reads");
    let campaign = sim_campaign(CAMPAIGN, 5);
    let journal = dir.join("c.gjl");
    let resume = |vfs: &dyn Vfs| {
        let monitor = ProgressMonitor::new(campaign.experiment_count());
        runner::resume_campaign(
            SimTarget::new,
            None::<fn() -> Box<dyn Environment>>,
            &campaign,
            &monitor,
            1,
            vfs,
            &journal,
            0..campaign.experiment_count(),
        )
        .unwrap()
    };
    let first = resume(&RealFs);
    let recorder = Recorder::new(RealFs);
    let again = resume(&recorder);
    assert_eq!(again.records, first.records);
    assert_eq!(recorder.reads(&journal), 1, "reads of the journal");
    let touched: Vec<_> = recorder
        .ops()
        .into_iter()
        .filter(|op| op.path == journal || op.path == dir.join("c.gjl.tmp"))
        .collect();
    assert!(
        touched.is_empty(),
        "a clean journal was changed: {touched:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: `ENOSPC`/`EIO` at any operation surface as
/// [`GoofiError::Io`] naming the damaged file — never a panic — and since
/// they are transient, simply re-running the same cycle completes.
#[test]
fn transient_disk_errors_surface_as_io_and_retry_completes() {
    let dir = temp_dir("transient");
    let campaign = sim_campaign(CAMPAIGN, 4);
    let want = serial_records(&campaign);

    let count_dir = dir.join("count");
    std::fs::create_dir_all(&count_dir).unwrap();
    let counting = FaultFs::counting();
    run_and_persist(
        &counting,
        &campaign,
        &count_dir.join("c.gdb"),
        &count_dir.join("c.gjl"),
    )
    .unwrap();
    let total = counting.ops();

    for kind in [FaultKind::Enospc, FaultKind::Eio] {
        let mut surfaced = 0;
        for at in 1..=total {
            let kdir = dir.join(format!("{}-at{at}", kind.encode()));
            std::fs::create_dir_all(&kdir).unwrap();
            let db = kdir.join("campaigns.gdb");
            let journal = kdir.join("run.gjl");
            let fault = FaultFs::new(FaultPlan { at, kind, seed: 7 });
            match run_and_persist(&fault, &campaign, &db, &journal) {
                // The fault landed on a best-effort step (directory sync).
                Ok(()) => {}
                Err(GoofiError::Io { path, detail, .. }) => {
                    surfaced += 1;
                    assert!(
                        path.starts_with(&kdir),
                        "I/O error names a foreign path {path:?} (op {at}, {kind:?})"
                    );
                    assert!(!detail.is_empty());
                    assert!(
                        !fault.crashed(),
                        "transient fault must not kill the machine"
                    );
                    // The disk recovered; the identical retry completes.
                    run_and_persist(&fault, &campaign, &db, &journal).unwrap_or_else(|e| {
                        panic!("retry after transient {kind:?} at op {at} failed: {e}")
                    });
                }
                Err(other) => {
                    panic!("op {at} {kind:?}: expected GoofiError::Io, got: {other}")
                }
            }
            assert_essence_equal(&db, CAMPAIGN, &want, &format!("{kind:?} at op {at}"));
        }
        assert!(
            surfaced > 0,
            "{kind:?} walk never surfaced an I/O error — the fault plan is dead"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full corruption-class matrix: every [`CorruptionClass`] is detected
/// (and named) by a plain fsck pass, and `--repair` converges — after one
/// repair pass, a second plain pass is clean.
#[test]
fn fsck_detects_and_repairs_every_corruption_class() {
    let dir = temp_dir("classes");
    let campaign = sim_campaign(CAMPAIGN, 3);

    // Pristine fixtures to mutate per case.
    let fixture = dir.join("fixture");
    std::fs::create_dir_all(&fixture).unwrap();
    let fdb = fixture.join("campaigns.gdb");
    let fjournal = fixture.join("run.gjl");
    run_and_persist(&RealFs, &campaign, &fdb, &fjournal).unwrap();
    let db_text = std::fs::read_to_string(&fdb).unwrap();
    let journal_text = std::fs::read_to_string(&fjournal).unwrap();
    assert!(
        fsck::fsck_all(&RealFs, &fdb, Some((&fjournal, CAMPAIGN)), false)
            .unwrap()
            .clean()
    );
    assert!(db_text.contains("T:end"), "fixture rows look unexpected");

    let check = |name: &str, class: CorruptionClass, corrupt: &dyn Fn(&Path, &Path)| {
        let cdir = dir.join(name);
        std::fs::create_dir_all(&cdir).unwrap();
        let db = cdir.join("campaigns.gdb");
        let journal = cdir.join("run.gjl");
        std::fs::write(&db, &db_text).unwrap();
        std::fs::write(&journal, &journal_text).unwrap();
        corrupt(&db, &journal);

        // Detection names the class without touching anything.
        let found = fsck::fsck_all(&RealFs, &db, Some((&journal, CAMPAIGN)), false).unwrap();
        assert!(!found.clean(), "{name}: corruption not detected");
        assert!(
            found.findings.iter().any(|f| f.class == class),
            "{name}: expected {class} among:\n{}",
            found.render()
        );
        assert_eq!(found.repaired(), 0, "{name}: plain pass must not repair");

        // Repair converges.
        let repaired = fsck::fsck_all(&RealFs, &db, Some((&journal, CAMPAIGN)), true).unwrap();
        assert!(
            repaired.repaired() >= 1,
            "{name}: nothing repaired:\n{}",
            repaired.render()
        );
        let after = fsck::fsck_all(&RealFs, &db, Some((&journal, CAMPAIGN)), false).unwrap();
        assert!(
            after.clean(),
            "{name}: fsck did not converge:\n{}",
            after.render()
        );
    };

    check(
        "journal-bad-header",
        CorruptionClass::JournalBadHeader,
        &|_, j| std::fs::write(j, "definitely not a journal\nnoise\n").unwrap(),
    );
    check(
        "journal-torn-tail",
        CorruptionClass::JournalTornTail,
        &|_, j| {
            let t = journal_text.trim_end_matches('\n');
            std::fs::write(j, &t[..t.len() - 3]).unwrap();
        },
    );
    check(
        "journal-garbled-entry",
        CorruptionClass::JournalGarbledEntry,
        &|_, j| {
            let mut lines: Vec<String> = journal_text.lines().map(String::from).collect();
            assert!(lines.len() > 4, "fixture journal too short to garble");
            let mid = lines[2].clone();
            lines[2] = format!("{}XX", &mid[..mid.len() - 2]);
            std::fs::write(j, format!("{}\n", lines.join("\n"))).unwrap();
        },
    );
    check("db-unreadable", CorruptionClass::DbUnreadable, &|db, _| {
        std::fs::write(db, "garbage, not a database\n").unwrap();
    });
    check(
        "db-checksum-mismatch",
        CorruptionClass::DbChecksumMismatch,
        &|db, _| std::fs::write(db, db_text.replacen("T:end", "T:foo", 1)).unwrap(),
    );
    check("db-garbled-row", CorruptionClass::DbGarbledRow, &|db, _| {
        std::fs::write(db, db_text.replacen("T:end", "X?end", 1)).unwrap()
    });
    check("db-stray-temp", CorruptionClass::DbStrayTemp, &|db, _| {
        std::fs::write(format!("{}.tmp", db.display()), "half a save").unwrap();
    });
    check(
        "spool-orphan-dir",
        CorruptionClass::SpoolOrphanDir,
        &|db, _| {
            let spool = PathBuf::from(format!("{}.spool", db.display()));
            std::fs::create_dir_all(spool.join("job-1")).unwrap();
        },
    );
    check(
        "spool-bad-manifest",
        CorruptionClass::SpoolBadManifest,
        &|db, _| {
            let job = PathBuf::from(format!("{}.spool", db.display())).join("job-2");
            std::fs::create_dir_all(&job).unwrap();
            std::fs::write(job.join("manifest"), "wat\n").unwrap();
        },
    );
    check(
        "spool-shard-mismatch",
        CorruptionClass::SpoolShardMismatch,
        &|db, _| {
            let job = PathBuf::from(format!("{}.spool", db.display())).join("job-3");
            std::fs::create_dir_all(&job).unwrap();
            std::fs::write(
                job.join("manifest"),
                "#goofi-job v1\ncampaign someone-else\nworkers 1\n",
            )
            .unwrap();
            std::fs::write(job.join("shard-0.gjl"), &journal_text).unwrap();
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spool recovery after a daemon SIGKILL: a job directory whose manifest
/// was destroyed is quarantined aside (never resumed, never deleted) while
/// the intact job resumes and completes.
#[test]
fn recover_quarantines_damaged_spool_jobs_and_resumes_intact_ones() {
    use goofi_core::service::{JobState, Scheduler};

    let dir = temp_dir("recover");
    let campaign = sim_campaign("torture-spool", 6);
    let want = serial_records(&campaign);
    let db = make_db(&dir, &campaign);

    // A spool as a killed daemon leaves it: one intact in-flight job, one
    // whose manifest a crash destroyed.
    let spool = dir.join("campaigns.gdb.spool");
    let good = spool.join("job-1");
    std::fs::create_dir_all(&good).unwrap();
    std::fs::write(
        good.join("manifest"),
        "#goofi-job v1\ncampaign torture-spool\nworkers 2\n",
    )
    .unwrap();
    let bad = spool.join("job-2");
    std::fs::create_dir_all(&bad).unwrap();
    std::fs::write(bad.join("manifest"), "\u{1}\u{2}garbage").unwrap();

    let scheduler = Scheduler::new(config(&db, 2)).unwrap();
    let recovered = scheduler.recover().unwrap();
    assert_eq!(recovered.resumed, vec!["job-1".to_string()]);
    assert_eq!(recovered.quarantined, vec!["job-2".to_string()]);
    assert!(!bad.exists(), "damaged job dir must be renamed aside");
    assert!(
        spool.join("quarantined-job-2").join("manifest").exists(),
        "quarantine must preserve the damaged artifacts"
    );

    let done = scheduler.watch("job-1").unwrap().wait();
    assert_eq!(done.state, JobState::Done, "{}", done.detail);
    assert_essence_equal(&db, "torture-spool", &want, "recovered spool");
    scheduler.shutdown();

    // A second daemon generation skips the quarantined directory forever.
    let recovered2 = {
        let scheduler2 = Scheduler::new(config(&db, 2)).unwrap();
        let outcome = scheduler2.recover().unwrap();
        scheduler2.shutdown();
        outcome
    };
    assert!(recovered2.quarantined.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Proptests: random truncation and bit-rot over journal tails and spool
// manifests. The decoders must be total, and salvage must always converge
// to a clean (or quarantined) journal.
// ---------------------------------------------------------------------------

/// A pristine journal produced by a real run, fixed across cases.
fn fixture_journal() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let dir = temp_dir("prop-fixture");
        let campaign = sim_campaign(CAMPAIGN, 4);
        run_and_persist(&RealFs, &campaign, &dir.join("c.gdb"), &dir.join("c.gjl")).unwrap();
        let text = std::fs::read_to_string(dir.join("c.gjl")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(text.is_ascii(), "fixture journal must be ASCII");
        text
    })
}

/// Writes `bytes` to a scratch journal, salvages it, and asserts the
/// result is either a clean journal or a quarantined (renamed) file —
/// never an error, never a still-damaged journal.
fn salvage_converges(case: &str, bytes: &[u8]) {
    let dir = temp_dir(&format!("prop-{case}"));
    let path = dir.join("t.gjl");
    std::fs::write(&path, bytes).unwrap();
    let outcome = journal::salvage_with(&RealFs, &path)
        .unwrap_or_else(|e| panic!("salvage errored on damaged input: {e}"));
    if outcome.quarantined.is_some() {
        assert!(!path.exists(), "quarantine must move the file aside");
    } else {
        let after = std::fs::read_to_string(&path).unwrap();
        let scan = journal::scan_text(&after);
        assert!(
            scan.clean(),
            "journal still damaged after salvage (kept {}, dropped {})",
            outcome.kept,
            outcome.dropped
        );
        assert_eq!(scan.valid, outcome.kept);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #[test]
    fn truncated_journal_tails_salvage_clean(cut in 0usize..4096) {
        let text = fixture_journal();
        let cut = cut.min(text.len());
        let scan = journal::scan_text(&text[..cut]);
        prop_assert!(scan.valid <= text.lines().count());
        salvage_converges("trunc", &text.as_bytes()[..cut]);
    }

    #[test]
    fn bit_flipped_journals_salvage_clean(pos in 0usize..4096, bit in 0u32..8) {
        let mut bytes = fixture_journal().as_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        // Total even when the flip breaks UTF-8.
        let _ = journal::scan_text(&String::from_utf8_lossy(&bytes));
        salvage_converges("flip", &bytes);
    }

    #[test]
    fn journal_scan_is_total_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = journal::scan_text(&String::from_utf8_lossy(&bytes));
        salvage_converges("noise", &bytes);
    }

    #[test]
    fn manifest_parser_is_total_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = fsck::parse_manifest(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn truncated_manifests_never_misparse(cut in 0usize..64) {
        let valid = "#goofi-job v1\ncampaign tort camp\nworkers 3\n";
        let cut = cut.min(valid.len());
        if let Some((campaign, workers)) = fsck::parse_manifest(&valid[..cut]) {
            // A prefix either fails to parse or yields the original values.
            prop_assert_eq!(campaign, "tort camp");
            prop_assert_eq!(workers, 3);
        }
    }
}
