//! Jepsen-style network torture harness for the campaign service.
//!
//! The GOOFI discipline applied to the service's own wire: every byte of
//! service I/O flows through the [`Transport`] seam, so a seeded
//! [`FaultNet`] can drop, duplicate, reorder, delay, truncate and corrupt
//! frames, reset connections mid-frame, go half-open, or refuse accepts —
//! at the N-th network operation of a real daemon/client/worker run.
//!
//! The oracle never changes: whatever the network does, a submitted
//! campaign must run to `done` and the merged database must be
//! essence-equal to a fault-free serial in-process run. A first
//! counting-mode pass learns how many network ops a clean run performs;
//! the walk then replays the campaign with a single deterministic fault
//! planted across that op range, for every fault kind.

mod oracle;

use goofi_core::policy::Backoff;
use goofi_core::service::{
    self, serve, Client, FaultNet, JobState, NetFaultConfig, NetFaultKind, RealNet, Request,
    Response, Scheduler, ServiceConfig, Transport,
};
use oracle::{assert_essence_equal, make_db, serial_records, sim_campaign, temp_dir};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Experiments per torture campaign — small, because the walk runs many
/// campaigns back to back.
const FAULTS: usize = 4;
const SHARDS: usize = 2;
/// Client-side acknowledgement deadline: short, so a lost frame costs a
/// quick retry instead of a production-sized timeout.
const ACK_TIMEOUT: Duration = Duration::from_millis(1500);

/// The oracle's service, with a short lease and a fast backoff: a walk
/// runs many campaigns back to back.
fn config(db: &Path, workers: usize) -> ServiceConfig {
    let mut cfg = oracle::config(db, workers);
    cfg.lease = Duration::from_secs(2);
    cfg.backoff = Backoff::exponential(5, 50);
    cfg
}

/// A daemon serving over `transport`, stopped via the shared flag.
struct TestDaemon {
    addr: String,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<goofi_core::Result<()>>,
}

fn start_daemon(
    transport: &dyn Transport,
    db: &Path,
    worker_net: Option<NetFaultConfig>,
) -> TestDaemon {
    let mut cfg = config(db, SHARDS);
    cfg.net_chaos = worker_net;
    let scheduler = Arc::new(Scheduler::new(cfg).unwrap());
    let listener = transport.listen("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve(listener, scheduler, stop))
    };
    TestDaemon { addr, stop, handle }
}

impl TestDaemon {
    fn shutdown(self) {
        self.stop.store(true, Ordering::Release);
        self.handle.join().unwrap().unwrap();
    }
}

/// Runs one full campaign — submit, watch to the end, check the merged
/// database against the serial ground truth — with `transport_fault`
/// armed on the daemon/client wire and `worker_fault` armed on every
/// worker's event stream. Returns the number of network ops counted on
/// the daemon/client wire.
fn torture_run(
    tag: &str,
    transport_fault: NetFaultConfig,
    worker_fault: Option<NetFaultConfig>,
) -> u64 {
    let dir = temp_dir(tag);
    let name = format!("net-{tag}");
    let campaign = sim_campaign(&name, FAULTS);
    let db = make_db(&dir, &campaign);
    let want = serial_records(&campaign);

    let net = FaultNet::new(transport_fault);
    let injector = net.injector();
    let daemon = start_daemon(&net, &db, worker_fault);

    let request_id = format!("req-{tag}");
    let job = service::submit_job(
        &net,
        &daemon.addr,
        &request_id,
        &name,
        SHARDS,
        None,
        ACK_TIMEOUT,
    )
    .unwrap_or_else(|e| panic!("[{tag}] submit failed: {e}"));
    let terminal = service::watch_to_end(&net, &daemon.addr, &job, 0, ACK_TIMEOUT, |_| {})
        .unwrap_or_else(|e| panic!("[{tag}] watch failed: {e}"));
    match &terminal {
        Response::Progress { state, detail, .. } => {
            assert_eq!(state, "done", "[{tag}] job failed: {detail}");
        }
        other => panic!("[{tag}] terminal frame is not progress: {other:?}"),
    }
    assert_essence_equal(&db, &name, &want, tag);

    // The one-shot status listing rides the same retry machinery and
    // must survive whatever the walk throws at its network ops too.
    let rows = service::job_list(&net, &daemon.addr, ACK_TIMEOUT)
        .unwrap_or_else(|e| panic!("[{tag}] status failed: {e}"));
    assert!(
        rows.iter()
            .any(|(j, state, c)| *j == job && state == "done" && *c == name),
        "[{tag}] listing must show the finished job: {rows:?}"
    );

    daemon.shutdown();
    let ops = injector.ops();
    let _ = std::fs::remove_dir_all(&dir);
    ops
}

/// Up to `points` op indices spread across `1..=ops`, ends included.
fn spread(ops: u64, points: u64) -> Vec<u64> {
    let mut out = Vec::new();
    for i in 0..points {
        let at = 1 + i * ops.saturating_sub(1) / (points - 1).max(1);
        if !out.contains(&at) {
            out.push(at);
        }
    }
    out
}

/// The tentpole walk: learn a clean run's op count, then replay the
/// campaign with every fault kind planted across that op range. Every
/// single run must still converge to the serial essence.
#[test]
fn transport_faults_at_walked_ops_leave_campaigns_essence_equal() {
    let ops = torture_run("count", NetFaultConfig::counting(), None);
    assert!(
        ops >= 8,
        "suspiciously few network ops in a clean run: {ops}"
    );
    for kind in NetFaultKind::ALL {
        for at in spread(ops, 3) {
            let tag = format!("{}-{at}", kind.encode());
            torture_run(&tag, NetFaultConfig::plan(at, kind, 40 + at), None);
        }
    }
}

/// The same walk, aimed at the worker→daemon event stream: each worker
/// process perturbs its own framed stdout. The journal, not the event
/// stream, is the ground truth for shard completion, so a mangled stream
/// must never change the merged database.
#[test]
fn worker_event_stream_faults_leave_campaigns_essence_equal() {
    let kinds = [
        NetFaultKind::Drop,
        NetFaultKind::Dup,
        NetFaultKind::Reorder,
        NetFaultKind::Corrupt,
        NetFaultKind::Truncate,
        NetFaultKind::HalfOpen,
    ];
    for kind in kinds {
        for at in [1, 3] {
            let tag = format!("wrk-{}-{at}", kind.encode());
            torture_run(
                &tag,
                NetFaultConfig::counting(),
                Some(NetFaultConfig::plan(at, kind, 9 + at)),
            );
        }
    }
}

/// Standing rate-mode chaos on every seam at once — the `--net-chaos
/// drop=0.05,seed=7`-style drill — still converges.
#[test]
fn rate_mode_chaos_on_every_seam_still_converges() {
    let transport = NetFaultConfig::decode(
        "drop=0.02,dup=0.02,reorder=0.02,corrupt=0.02,delay=0.02,seed=29,delay-ms=5",
    )
    .unwrap();
    let worker = NetFaultConfig::decode("drop=0.05,corrupt=0.05,seed=31").unwrap();
    torture_run("rate", transport, Some(worker));
}

/// `--status` and `--shutdown` are one-shot requests, but they ride the
/// same retry machinery as submits: under rate chaos the listing still
/// arrives intact and the shutdown is still acknowledged.
#[test]
fn status_and_shutdown_ride_out_rate_chaos() {
    let dir = temp_dir("statuschaos");
    let campaign = sim_campaign("net-status", FAULTS);
    let db = make_db(&dir, &campaign);
    let want = serial_records(&campaign);
    // Damage-only kinds (no drop/delay): every fault is answered or
    // detected immediately, so retries fire without read-timeout stalls.
    let net = FaultNet::new(
        NetFaultConfig::decode("dup=0.05,corrupt=0.05,reorder=0.05,seed=43").unwrap(),
    );
    let daemon = start_daemon(&net, &db, None);

    assert!(
        service::job_list(&net, &daemon.addr, ACK_TIMEOUT)
            .unwrap()
            .is_empty(),
        "no jobs before the first submit"
    );
    let job = service::submit_job(
        &net,
        &daemon.addr,
        "req-status",
        "net-status",
        SHARDS,
        None,
        ACK_TIMEOUT,
    )
    .unwrap();
    service::watch_to_end(&net, &daemon.addr, &job, 0, ACK_TIMEOUT, |_| {}).unwrap();
    let rows = service::job_list(&net, &daemon.addr, ACK_TIMEOUT).unwrap();
    assert!(
        rows.iter()
            .any(|(j, state, c)| *j == job && state == "done" && c == "net-status"),
        "listing must show the finished job: {rows:?}"
    );
    assert_essence_equal(&db, "net-status", &want, "statuschaos");

    service::request_shutdown(&net, &daemon.addr, ACK_TIMEOUT).unwrap();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--watch` client killed mid-stream reconnects with `after` set to
/// the last sequence number it acknowledged and sees every later update
/// exactly once: no duplicates, no gaps, one terminal frame.
#[test]
fn killed_watch_client_resumes_from_last_acked_seq_without_dups_or_gaps() {
    let dir = temp_dir("resume");
    let campaign = sim_campaign("net-resume", 12);
    let db = make_db(&dir, &campaign);
    let want = serial_records(&campaign);
    let daemon = start_daemon(&RealNet, &db, None);

    let job = service::submit_job(
        &RealNet,
        &daemon.addr,
        "req-resume",
        "net-resume",
        SHARDS,
        None,
        ACK_TIMEOUT,
    )
    .unwrap();

    // Phase 1: watch from the start, ack a few frames, then die without
    // so much as a goodbye — the connection is dropped mid-stream.
    let mut phase1: Vec<u64> = Vec::new();
    {
        let mut client = Client::connect_via(&RealNet, &daemon.addr, 4).unwrap();
        client.set_read_timeout(Duration::from_secs(5));
        client
            .send(&Request::Watch {
                job: job.clone(),
                after: 0,
            })
            .unwrap();
        let mut last = 0u64;
        while phase1.len() < 2 {
            match client.recv().unwrap() {
                Some(Response::Progress { seq, state, .. }) => {
                    if seq <= last {
                        continue;
                    }
                    last = seq;
                    phase1.push(seq);
                    if state == "done" || state == "failed" {
                        break;
                    }
                }
                other => panic!("unexpected mid-watch response: {other:?}"),
            }
        }
    }
    let resume_after = *phase1.last().unwrap();

    // Phase 2: a fresh session resumes from the last-acked seq.
    let mut phase2: Vec<u64> = Vec::new();
    let terminal = service::watch_to_end(
        &RealNet,
        &daemon.addr,
        &job,
        resume_after,
        Duration::from_secs(5),
        |response| {
            if let Response::Progress { seq, .. } = response {
                phase2.push(*seq);
            }
        },
    )
    .unwrap();
    match &terminal {
        Response::Progress { state, detail, .. } => {
            assert_eq!(state, "done", "job failed: {detail}");
        }
        other => panic!("terminal frame is not progress: {other:?}"),
    }

    // The union of both sessions is exactly the job's update history:
    // strictly increasing from the first update, no seam artifacts.
    let mut all = phase1;
    all.extend(&phase2);
    let last = *all.last().unwrap();
    assert_eq!(
        all,
        (all[0]..=last).collect::<Vec<u64>>(),
        "resumed stream must replay exactly the missed updates"
    );
    assert!(
        phase2.iter().all(|&seq| seq > resume_after),
        "resume must not repeat acknowledged frames: {phase2:?}"
    );

    assert_essence_equal(&db, "net-resume", &want, "resume");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retrying a submit with the same request id never double-submits; a
/// fresh id does.
#[test]
fn duplicate_submits_with_one_request_id_yield_one_job() {
    let dir = temp_dir("dedup");
    let campaign = sim_campaign("net-dedup", FAULTS);
    let db = make_db(&dir, &campaign);
    let daemon = start_daemon(&RealNet, &db, None);

    let first = service::submit_job(
        &RealNet,
        &daemon.addr,
        "req-dedup",
        "net-dedup",
        SHARDS,
        None,
        ACK_TIMEOUT,
    )
    .unwrap();
    let replay = service::submit_job(
        &RealNet,
        &daemon.addr,
        "req-dedup",
        "net-dedup",
        SHARDS,
        None,
        ACK_TIMEOUT,
    )
    .unwrap();
    assert_eq!(first, replay, "one request id, one job");
    let terminal = service::watch_to_end(
        &RealNet,
        &daemon.addr,
        &first,
        0,
        Duration::from_secs(30),
        |_| {},
    )
    .unwrap();
    assert!(matches!(
        &terminal,
        Response::Progress { state, .. } if state == "done"
    ));

    // Dedup holds after completion, and a fresh id is a fresh job.
    let after_done = service::submit_job(
        &RealNet,
        &daemon.addr,
        "req-dedup",
        "net-dedup",
        SHARDS,
        None,
        ACK_TIMEOUT,
    )
    .unwrap();
    assert_eq!(first, after_done);
    let fresh = service::submit_job(
        &RealNet,
        &daemon.addr,
        "req-dedup-2",
        "net-dedup",
        SHARDS,
        None,
        ACK_TIMEOUT,
    )
    .unwrap();
    assert_ne!(first, fresh, "a fresh request id must submit a fresh job");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Request-id dedup is spooled with the manifest, so a daemon restart
/// still recognises a retried submit.
#[test]
fn request_dedup_survives_daemon_restart() {
    let dir = temp_dir("dedup-restart");
    let campaign = sim_campaign("net-dedup-restart", FAULTS);
    let db = make_db(&dir, &campaign);

    let scheduler = Scheduler::new(config(&db, SHARDS)).unwrap();
    let job = scheduler
        .submit(Some("req-persist"), "net-dedup-restart", SHARDS, None)
        .unwrap();
    let progress = scheduler.watch(&job).unwrap().wait();
    assert_eq!(progress.state, JobState::Done, "{}", progress.detail);
    scheduler.shutdown();

    let restarted = Scheduler::new(config(&db, SHARDS)).unwrap();
    restarted.recover().unwrap();
    let replay = restarted
        .submit(Some("req-persist"), "net-dedup-restart", SHARDS, None)
        .unwrap();
    assert_eq!(replay, job, "dedup must survive a daemon restart");
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Version negotiation: a too-old client gets a typed refusal naming the
/// supported range, a newer client is negotiated down, and a connection
/// that skips the hello is told so.
#[test]
fn protocol_version_negotiation_refuses_old_and_caps_new() {
    let dir = temp_dir("version");
    let campaign = sim_campaign("net-version", 2);
    let db = make_db(&dir, &campaign);
    let daemon = start_daemon(&RealNet, &db, None);
    let connect = |daemon: &TestDaemon| {
        let mut conn = RealNet
            .connect(&daemon.addr, Duration::from_secs(2))
            .unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn
    };
    let recv_response =
        |conn: &mut Box<dyn goofi_core::service::net::Conn>| match conn.recv().unwrap() {
            goofi_core::service::net::FrameRead::Frame(line) => Response::decode(&line).unwrap(),
            other => panic!("expected a frame, got {other:?}"),
        };

    // Below the floor: refused by name.
    let mut old = connect(&daemon);
    old.send(&Request::Hello { version: 1 }.encode()).unwrap();
    match recv_response(&mut old) {
        Response::Error { detail } => assert!(
            detail.contains("unsupported protocol version 1"),
            "unexpected refusal: {detail}"
        ),
        other => panic!("expected refusal, got {other:?}"),
    }

    // Above ours: negotiated down to what the daemon speaks.
    let mut new = connect(&daemon);
    new.send(&Request::Hello { version: 99 }.encode()).unwrap();
    match recv_response(&mut new) {
        Response::Hello { version } => assert!(
            version < 99,
            "daemon must negotiate down from a futuristic client"
        ),
        other => panic!("expected hello, got {other:?}"),
    }

    // No hello at all: told to handshake first.
    let mut rude = connect(&daemon);
    rude.send(&Request::Status.encode()).unwrap();
    match recv_response(&mut rude) {
        Response::Error { detail } => assert!(
            detail.contains("expected hello"),
            "unexpected error: {detail}"
        ),
        other => panic!("expected error, got {other:?}"),
    }

    // The blessed path reports the negotiated version.
    let client = Client::connect_via(&RealNet, &daemon.addr, 4).unwrap();
    assert!(client.negotiated_version() >= 2);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Garbage on an established connection draws typed errors while the
/// frame codec stays in sync: the next well-formed request still works.
#[test]
fn damaged_frames_get_typed_errors_and_the_stream_stays_in_sync() {
    let dir = temp_dir("desync");
    let campaign = sim_campaign("net-desync", 2);
    let db = make_db(&dir, &campaign);
    let daemon = start_daemon(&RealNet, &db, None);

    let mut client = Client::connect_via(&RealNet, &daemon.addr, 4).unwrap();
    client.send_raw("complete garbage, not a frame\n").unwrap();
    match client.recv().unwrap() {
        Some(Response::Error { detail }) => assert!(
            detail.contains("bad frame"),
            "unexpected error detail: {detail}"
        ),
        other => panic!("expected typed error, got {other:?}"),
    }

    // Still in sync: a status request on the same connection answers.
    client.send(&Request::Status).unwrap();
    loop {
        match client.recv().unwrap() {
            Some(Response::Listing { .. }) | Some(Response::Job { .. }) => continue,
            Some(Response::End) => break,
            other => panic!("unexpected status response: {other:?}"),
        }
    }

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A half-open peer — accepts the TCP connection, then says nothing —
/// is flushed out by the heartbeat deadline as a clean wire error, not a
/// hang.
#[test]
fn half_open_daemon_is_flushed_out_as_a_clean_timeout() {
    // A bound listener that never accepts: the kernel completes the TCP
    // handshake, then the daemon-shaped hole stays silent forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let Err(err) = Client::connect_via(&RealNet, &addr, 1) else {
        panic!("connecting to a silent peer must not succeed");
    };
    let message = err.to_string();
    assert!(
        message.contains("timed out") || message.contains("gave up"),
        "half-open peer must surface as a timeout, got: {message}"
    );
    drop(listener);
}
