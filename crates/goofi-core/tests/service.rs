//! End-to-end tests of the campaign service: sharded jobs over real
//! worker OS processes (the `goofi-mock-worker` binary wrapping
//! [`SimTarget`]), chaos-killed workers, daemon-death resume, and
//! poison-shard quarantine.
//!
//! Every test's oracle is the same: the merged database must be
//! *essence-equal* to a serial in-process run of the same campaign —
//! same records, same faults, same terminations, same end states.

mod oracle;
mod recorder;

use goofi_core::dbio;
use goofi_core::logging::{TerminationCause, Validity};
use goofi_core::service::{ChaosConfig, JobState, Scheduler};
use goofi_core::vfs::RealFs;
use oracle::{
    assert_essence_equal, config, make_db, mock_worker_cmd, serial_records, sim_campaign, temp_dir,
};
use std::time::Duration;

/// Submits the campaign, waits for the job, and asserts it completed.
fn run_job(scheduler: &Scheduler, campaign: &str, workers: usize) -> String {
    let job = scheduler.submit(None, campaign, workers, None).unwrap();
    let progress = scheduler.watch(&job).unwrap().wait();
    assert_eq!(
        progress.state,
        JobState::Done,
        "job should complete: {}",
        progress.detail
    );
    job
}

/// A job's fixed cost follows the job, not the database's history: the
/// daemon reads the database once at submit and once to merge (the
/// runner reuses submit's campaign), and each shard journal once (the
/// merge imports what the completion check loaded).
#[test]
fn a_job_reads_the_database_twice_and_each_shard_journal_once() {
    let dir = temp_dir("reads");
    let campaign = sim_campaign("svc-reads", 10);
    let db = make_db(&dir, &campaign);
    let want = serial_records(&campaign);

    let recorder = recorder::Recorder::new(RealFs);
    let mut cfg = config(&db, 2);
    cfg.vfs = std::sync::Arc::new(recorder.clone());
    let scheduler = Scheduler::new(cfg).unwrap();
    let job = run_job(&scheduler, "svc-reads", 2);
    assert_essence_equal(&db, "svc-reads", &want, "recorded job");

    assert_eq!(recorder.reads(&db), 2, "database reads: submit and merge");
    let spool = dir.join("campaigns.gdb.spool").join(&job);
    for shard in 0..2 {
        let journal = spool.join(format!("shard-{shard}.gjl"));
        assert_eq!(
            recorder.reads(&journal),
            1,
            "reads of {}",
            journal.display()
        );
    }
    scheduler.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker sends at most one progress frame per scheduler tick, and its
/// last progress frame carries the counters its `done` frame reports.
#[test]
fn a_worker_paces_progress_frames_and_ends_with_its_final_counters() {
    use goofi_core::service::net::{FrameRead, FrameReader};
    use goofi_core::service::{WorkerArgs, WorkerEvent};

    let dir = temp_dir("frames");
    let campaign = sim_campaign("svc-frames", 300);
    let db = make_db(&dir, &campaign);
    let args = WorkerArgs {
        db,
        campaign: "svc-frames".into(),
        shard: 0,
        range: 20..300,
        journal: dir.join("shard-0.gjl"),
        attempt: 1,
        chaos: None,
        net_chaos: None,
        target: None,
    };
    let started = std::time::Instant::now();
    let out = std::process::Command::new(mock_worker_cmd().program)
        .args(args.to_args())
        .output()
        .unwrap();
    let wall_ms = started.elapsed().as_millis() as usize;
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut reader = FrameReader::new(&out.stdout[..]);
    let mut events = Vec::new();
    loop {
        match reader.read_frame().unwrap() {
            FrameRead::Frame(line) => events.push(WorkerEvent::decode_with_seq(&line).unwrap().1),
            FrameRead::Malformed(detail) => panic!("damaged frame without net chaos: {detail}"),
            FrameRead::Eof => break,
        }
    }
    match &events[..] {
        [.., WorkerEvent::Progress {
            completed,
            failed,
            skipped: 0,
            quarantined: 0,
            ..
        }, WorkerEvent::Done {
            completed: done_completed,
            failed: done_failed,
            ..
        }] => {
            assert_eq!((completed, failed), (done_completed, done_failed));
            assert_eq!(*completed, 280);
        }
        other => panic!("stdout must end with progress then done: {other:?}"),
    }
    let frames = events
        .iter()
        .filter(|e| matches!(e, WorkerEvent::Progress { .. }))
        .count();
    assert!(
        frames <= 3 + wall_ms / 10,
        "{frames} progress frames in {wall_ms} ms"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_job_merges_to_serial_essence() {
    let dir = temp_dir("happy");
    let campaign = sim_campaign("svc-happy", 12);
    let db = make_db(&dir, &campaign);
    let want = serial_records(&campaign);

    let scheduler = Scheduler::new(config(&db, 3)).unwrap();
    let job = run_job(&scheduler, "svc-happy", 3);
    let progress = scheduler.watch(&job).unwrap().current();
    assert_eq!(progress.total, 12);
    assert_eq!(progress.completed, 12);
    assert_eq!(progress.shards_done, 3);
    assert_eq!(progress.shards_poisoned, 0);
    assert!(dir
        .join("campaigns.gdb.spool")
        .join(&job)
        .join("done")
        .exists());

    assert_essence_equal(&db, "svc-happy", &want, "sharded job");
    scheduler.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_killed_workers_are_reassigned_and_the_job_completes() {
    let dir = temp_dir("chaos");
    let campaign = sim_campaign("svc-chaos", 10);
    let db = make_db(&dir, &campaign);
    let want = serial_records(&campaign);

    // Every shard's first lease self-kills within its first 2 completions;
    // the reassigned attempt 2 leases are allowed to finish.
    let mut cfg = config(&db, 2);
    cfg.chaos = Some(ChaosConfig::decode("kill-after=2,seed=3").unwrap());
    cfg.backoff = goofi_core::policy::Backoff::exponential(5, 50);
    let scheduler = Scheduler::new(cfg).unwrap();
    let job = run_job(&scheduler, "svc-chaos", 2);

    // Both shards were struck (attempt 1 always dies), so both journals
    // were written across at least two leases — yet the merged database is
    // still essence-equal to the serial run, with no duplicates.
    assert_essence_equal(&db, "svc-chaos", &want, "chaos-killed workers");
    let progress = scheduler.watch(&job).unwrap().current();
    assert_eq!(progress.completed, 10);
    assert_eq!(progress.shards_poisoned, 0);
    scheduler.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_daemon_resumes_in_flight_jobs_from_the_spool() {
    let dir = temp_dir("resume");
    let campaign = sim_campaign("svc-resume", 8);
    let db = make_db(&dir, &campaign);
    let want = serial_records(&campaign);

    // Phase 1: a scheduler whose workers stall (freeze mid-shard) on every
    // attempt, so the job can never finish — it survives on lease-expiry
    // kills and reassignment until we "kill the daemon".
    let mut cfg = config(&db, 2);
    cfg.chaos = Some(ChaosConfig::decode("kill-after=1,seed=5,kills=999,mode=stall").unwrap());
    cfg.lease = Duration::from_millis(400);
    cfg.poison_after = 1_000; // never poison in this phase
    cfg.backoff = goofi_core::policy::Backoff::exponential(5, 20);
    let scheduler = Scheduler::new(cfg).unwrap();
    let job = scheduler.submit(None, "svc-resume", 2, None).unwrap();

    // Wait until the job has made *some* journaled progress.
    let watcher = scheduler.watch(&job).unwrap();
    let mut progress = watcher.current();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while progress.completed < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "no progress under stall chaos: {progress:?}"
        );
        progress = watcher.wait_changed(&progress, Duration::from_millis(250));
    }

    // "Kill" the daemon: abort mid-job. No done marker is written; the
    // manifest and partial shard journals stay in the spool.
    scheduler.shutdown();
    let spool = dir.join("campaigns.gdb.spool");
    assert!(spool.join(&job).join("manifest").exists());
    assert!(!spool.join(&job).join("done").exists());

    // Phase 2: a fresh scheduler (chaos off) recovers the spool and the
    // job runs to completion, replaying the journals instead of redoing
    // finished work.
    let scheduler2 = Scheduler::new(config(&db, 2)).unwrap();
    let recovered = scheduler2.recover().unwrap();
    assert_eq!(recovered.resumed, vec![job.clone()]);
    assert!(recovered.quarantined.is_empty());
    let done = scheduler2.watch(&job).unwrap().wait();
    assert_eq!(done.state, JobState::Done, "{}", done.detail);
    assert_eq!(done.completed, 8);

    assert_essence_equal(&db, "svc-resume", &want, "resumed daemon");
    scheduler2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poison_shard_is_quarantined_with_parent_linked_rerun_stubs() {
    let dir = temp_dir("poison");
    let campaign = sim_campaign("svc-poison", 6);
    let db = make_db(&dir, &campaign);

    // Workers that cannot even parse their command line: every lease of
    // every shard fails instantly, so both shards go poison.
    let mut cfg = config(&db, 2);
    cfg.worker_cmd.args = vec!["--nonsense".into(), "x".into()];
    cfg.poison_after = 2;
    cfg.backoff = goofi_core::policy::Backoff::exponential(5, 20);
    let scheduler = Scheduler::new(cfg).unwrap();
    let job = scheduler.submit(None, "svc-poison", 2, None).unwrap();
    let progress = scheduler.watch(&job).unwrap().wait();

    // The job completes *around* the poison shards instead of wedging.
    assert_eq!(progress.state, JobState::Done, "{}", progress.detail);
    assert_eq!(progress.shards_poisoned, 2);
    assert_eq!(progress.completed, 0);
    assert_eq!(progress.quarantined, 12, "two stubs per lost experiment");

    // Every lost experiment is documented in the merged database: an
    // invalid original plus an invalid `parentExperiment`-linked rerun
    // stub, the paper's §2.3 re-run hook.
    let parsed = dbio::load_database(&RealFs, &db).unwrap();
    let records = dbio::load_experiments(&parsed, "svc-poison").unwrap();
    for i in 0..6 {
        let name = campaign.experiment_name(i);
        let original = records.iter().find(|r| r.name == name).unwrap();
        assert_eq!(original.validity, Validity::Invalid);
        assert_eq!(original.termination, TerminationCause::TargetHang);
        assert_eq!(original.parent, None);
        let rerun = records
            .iter()
            .find(|r| r.name == format!("{name}/rerun1"))
            .unwrap();
        assert_eq!(rerun.validity, Validity::Invalid);
        assert_eq!(rerun.parent.as_deref(), Some(name.as_str()));
    }
    scheduler.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A finished job's spool keeps only what a restart reads: its shard
/// journals go once the merge is saved and `done` is written, and a fresh
/// scheduler still knows the job as done, dedups its request id and finds
/// nothing for fsck. Journals a crash left beside `done` go at `recover`;
/// a journal quarantined aside stays.
#[test]
fn a_finished_job_leaves_only_its_manifest_and_done_marker() {
    let dir = temp_dir("spool-cleanup");
    let campaign = sim_campaign("svc-cleanup", 10);
    let db = make_db(&dir, &campaign);
    let want = serial_records(&campaign);
    let spool = dir.join("campaigns.gdb.spool");
    let listing = |job: &str| {
        let mut names: Vec<String> = std::fs::read_dir(spool.join(job))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };

    let scheduler = Scheduler::new(config(&db, 2)).unwrap();
    let job = scheduler
        .submit(Some("cleanup-1"), "svc-cleanup", 2, None)
        .unwrap();
    let progress = scheduler.watch(&job).unwrap().wait();
    assert_eq!(progress.state, JobState::Done, "{}", progress.detail);
    // The runner removes the journals after reporting done; joining it
    // waits for that.
    scheduler.shutdown();
    assert_essence_equal(&db, "svc-cleanup", &want, "finished job");
    assert_eq!(listing(&job), ["done", "manifest"]);

    // What a crash between `done` and the cleanup leaves, beside a
    // journal quarantined aside.
    std::fs::write(spool.join(&job).join("shard-1.gjl"), "torn").unwrap();
    std::fs::write(spool.join(&job).join("golden-0.gc"), "torn").unwrap();
    std::fs::write(spool.join(&job).join("shard-0.gjl.corrupt"), "aside").unwrap();
    let scheduler2 = Scheduler::new(config(&db, 2)).unwrap();
    let recovered = scheduler2.recover().unwrap();
    assert!(recovered.resumed.is_empty() && recovered.quarantined.is_empty());
    assert_eq!(listing(&job), ["done", "manifest", "shard-0.gjl.corrupt"]);
    std::fs::remove_file(spool.join(&job).join("shard-0.gjl.corrupt")).unwrap();
    let states: Vec<_> = scheduler2
        .jobs()
        .into_iter()
        .map(|(id, _, p)| (id, p.state))
        .collect();
    assert_eq!(states, [(job.clone(), JobState::Done)]);
    assert_eq!(
        scheduler2
            .submit(Some("cleanup-1"), "svc-cleanup", 2, None)
            .unwrap(),
        job
    );
    let report = goofi_core::fsck::fsck_spool(&RealFs, &spool, false).unwrap();
    assert!(report.clean(), "{:?}", report.findings);
    scheduler2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_rejects_unknown_campaigns_without_spooling_anything() {
    let dir = temp_dir("reject");
    let campaign = sim_campaign("svc-known", 2);
    let db = make_db(&dir, &campaign);
    let scheduler = Scheduler::new(config(&db, 1)).unwrap();
    assert!(scheduler.submit(None, "no-such-campaign", 1, None).is_err());
    let spool: Vec<_> = std::fs::read_dir(dir.join("campaigns.gdb.spool"))
        .unwrap()
        .collect();
    assert!(
        spool.is_empty(),
        "rejected submission must not leave a job dir"
    );
    scheduler.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_and_client_speak_the_wire_protocol_end_to_end() {
    use goofi_core::service::{serve, Client, RealNet, Request, Response, Transport};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let dir = temp_dir("wire");
    let campaign = sim_campaign("svc-wire", 6);
    let db = make_db(&dir, &campaign);
    let want = serial_records(&campaign);

    let listener = RealNet.listen("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let scheduler = Arc::new(Scheduler::new(config(&db, 2)).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    let daemon = {
        let scheduler = Arc::clone(&scheduler);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve(listener, scheduler, stop))
    };

    // Submit with watch: accepted, then progress lines to a terminal one.
    let mut client = Client::connect(&addr).unwrap();
    client
        .send(&Request::Submit {
            id: "req-wire-1".into(),
            campaign: "svc-wire".into(),
            workers: 2,
            watch: true,
            target: String::new(),
        })
        .unwrap();
    let job = match client.recv().unwrap() {
        Some(Response::Accepted { job }) => job,
        other => panic!("expected accepted, got {other:?}"),
    };
    let mut saw_done = false;
    while let Some(response) = client.recv().unwrap() {
        match response {
            Response::Progress {
                state,
                completed,
                total,
                ..
            } => {
                assert!(completed <= total);
                if state == "done" {
                    saw_done = true;
                    break;
                }
                // The first snapshot can race the runner thread's start.
                assert!(
                    state == "running" || state == "queued",
                    "unexpected mid-watch state `{state}`"
                );
            }
            other => panic!("unexpected mid-watch response: {other:?}"),
        }
    }
    assert!(
        saw_done,
        "watch stream must end with a terminal progress line"
    );
    assert_essence_equal(&db, "svc-wire", &want, "wire submit");

    // Status lists the finished job.
    let mut status = Client::connect(&addr).unwrap();
    status.send(&Request::Status).unwrap();
    let mut jobs = Vec::new();
    loop {
        match status.recv().unwrap() {
            Some(Response::Listing { jobs }) => assert_eq!(jobs, 1),
            Some(Response::Job { job, state, .. }) => jobs.push((job, state)),
            Some(Response::End) | None => break,
            other => panic!("unexpected status response: {other:?}"),
        }
    }
    assert_eq!(jobs, vec![(job, "done".to_string())]);

    // A malformed frame gets a typed error, not a dead daemon.
    let mut bad = Client::connect(&addr).unwrap();
    bad.send_raw("this is not a frame\n").unwrap();
    match bad.recv().unwrap() {
        Some(Response::Error { detail }) => assert!(
            detail.contains("bad frame"),
            "unexpected error detail: {detail}"
        ),
        other => panic!("expected error response, got {other:?}"),
    }

    // Shutdown stops the accept loop.
    let mut shut = Client::connect(&addr).unwrap();
    shut.send(&Request::Shutdown).unwrap();
    let _ = shut.recv();
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
