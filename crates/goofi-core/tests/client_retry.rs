//! The service client's retry rules, pinned against a scripted daemon.
//!
//! A [`Scripted`] transport answers each dial with the next list of
//! responses and refuses every dial once the lists run out, so these
//! tests need no daemon, no sockets and no fault plan: every reply the
//! client sees, and every redial it makes, is spelled out in the test.
//! The last test drives a real daemon instead, to check a zero-worker
//! submission end to end.

use goofi_core::campaign::{Campaign, OutputRegion, Termination, WorkloadImage};
use goofi_core::dbio;
use goofi_core::fault::{FaultLocation, FaultSpec};
use goofi_core::service::net::{Conn, FrameRead, Listener, Transport};
use goofi_core::service::{
    self, RealNet, Request, Response, Scheduler, ServiceConfig, WorkerCommand,
};
use goofi_core::trigger::Trigger;
use goofi_core::vfs::RealFs;
use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(1);
const ADDR: &str = "scripted:1";

/// A transport whose dials replay scripted responses in order.
#[derive(Debug)]
struct Scripted {
    dials: Mutex<VecDeque<Vec<Response>>>,
    sent: Arc<Mutex<Vec<Request>>>,
}

impl Scripted {
    /// One entry per successful dial; each dial first answers the
    /// handshake with a hello, then replays its responses, then closes.
    fn new(dials: Vec<Vec<Response>>) -> Scripted {
        let dials = dials
            .into_iter()
            .map(|replies| {
                let mut all = vec![Response::Hello { version: 2 }];
                all.extend(replies);
                all
            })
            .collect();
        Scripted {
            dials: Mutex::new(dials),
            sent: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Scripted dials nobody made.
    fn unused(&self) -> usize {
        self.dials.lock().unwrap().len()
    }

    /// Every request the client sent, hellos left out.
    fn requests(&self) -> Vec<Request> {
        self.sent
            .lock()
            .unwrap()
            .iter()
            .filter(|r| !matches!(r, Request::Hello { .. }))
            .cloned()
            .collect()
    }
}

impl Transport for Scripted {
    fn connect(&self, _addr: &str, _timeout: Duration) -> io::Result<Box<dyn Conn>> {
        match self.dials.lock().unwrap().pop_front() {
            Some(replies) => Ok(Box::new(ScriptedConn {
                replies: replies.into(),
                sent: Arc::clone(&self.sent),
            })),
            None => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "script exhausted",
            )),
        }
    }

    fn listen(&self, _addr: &str) -> io::Result<Box<dyn Listener>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "a scripted transport only dials",
        ))
    }
}

struct ScriptedConn {
    replies: VecDeque<Response>,
    sent: Arc<Mutex<Vec<Request>>>,
}

impl Conn for ScriptedConn {
    fn send(&mut self, payload: &str) -> io::Result<()> {
        let request = Request::decode(payload).expect("the client sends valid requests");
        self.sent.lock().unwrap().push(request);
        Ok(())
    }

    fn send_bytes(&mut self, _bytes: &[u8]) -> io::Result<()> {
        Ok(())
    }

    fn recv(&mut self) -> io::Result<FrameRead> {
        Ok(match self.replies.pop_front() {
            Some(response) => FrameRead::Frame(response.encode()),
            None => FrameRead::Eof,
        })
    }

    fn set_read_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }

    fn peer(&self) -> String {
        ADDR.into()
    }
}

fn progress(seq: u64, state: &str) -> Response {
    Response::Progress {
        seq,
        job: "job-1".into(),
        state: state.into(),
        total: 11,
        completed: seq,
        failed: 0,
        quarantined: 0,
        shards_done: 0,
        shards_total: 1,
        shards_poisoned: 0,
        detail: String::new(),
    }
}

fn row(job: &str) -> Response {
    Response::Job {
        job: job.into(),
        campaign: "c".into(),
        state: "done".into(),
    }
}

fn submit(net: &Scripted) -> goofi_core::Result<String> {
    service::submit_job(net, ADDR, "req-1", "c", 1, None, TIMEOUT)
}

#[test]
fn a_final_refusal_ends_submit_after_one_dial() {
    let net = Scripted::new(vec![
        vec![Response::Error {
            detail: "no campaign named `c`".into(),
        }],
        vec![Response::Accepted {
            job: "job-1".into(),
        }],
    ]);
    let err = submit(&net).unwrap_err().to_string();
    assert!(err.contains("no campaign named `c`"), "{err}");
    assert_eq!(net.unused(), 1, "a refusal must not redial");
}

#[test]
fn a_final_refusal_ends_watch_after_one_dial() {
    let net = Scripted::new(vec![
        vec![Response::Error {
            detail: "no such job `job-1`".into(),
        }],
        vec![progress(1, "done")],
    ]);
    let err = service::watch_to_end(&net, ADDR, "job-1", 0, TIMEOUT, |_| {})
        .unwrap_err()
        .to_string();
    assert!(err.contains("no such job `job-1`"), "{err}");
    assert_eq!(net.unused(), 1, "a refusal must not redial");
}

#[test]
fn a_bad_frame_error_makes_submit_redial_and_succeed() {
    let net = Scripted::new(vec![
        vec![Response::Error {
            detail: "bad frame: checksum mismatch".into(),
        }],
        vec![Response::Accepted {
            job: "job-1".into(),
        }],
    ]);
    assert_eq!(submit(&net).unwrap(), "job-1");
    let sent = net.requests();
    assert_eq!(sent.len(), 2, "one submit per dial: {sent:?}");
    assert_eq!(sent[0], sent[1], "a retry resends the same request id");
}

#[test]
fn shutdown_counts_as_done_when_delivered_and_the_redial_fails() {
    // The daemon closes without acknowledging, then stops listening.
    let net = Scripted::new(vec![vec![]]);
    service::request_shutdown(&net, ADDR, TIMEOUT).unwrap();
    assert_eq!(net.requests(), vec![Request::Shutdown]);
}

#[test]
fn a_listing_with_a_repeated_job_is_retried() {
    // A duplicated row and a dropped row cancel out in the row count.
    let net = Scripted::new(vec![
        vec![
            Response::Listing { jobs: 2 },
            row("job-1"),
            row("job-1"),
            Response::End,
        ],
        vec![
            Response::Listing { jobs: 2 },
            row("job-1"),
            row("job-2"),
            Response::End,
        ],
    ]);
    let jobs: Vec<String> = service::job_list(&net, ADDR, TIMEOUT)
        .unwrap()
        .into_iter()
        .map(|(job, _, _)| job)
        .collect();
    assert_eq!(jobs, ["job-1", "job-2"]);
    assert_eq!(net.unused(), 0);
}

#[test]
fn a_watch_that_progresses_on_every_connection_never_runs_out_of_retries() {
    // Ten connections each replay the last update, deliver one new one
    // and drop; more than the retry budget, but every one made progress.
    let mut dials: Vec<Vec<Response>> = (1..=10)
        .map(|seq| vec![progress(seq - 1, "running"), progress(seq, "running")])
        .collect();
    dials.push(vec![progress(10, "running"), progress(11, "done")]);
    let net = Scripted::new(dials);
    let mut seen = Vec::new();
    let terminal = service::watch_to_end(&net, ADDR, "job-1", 0, TIMEOUT, |response| {
        if let Response::Progress { seq, .. } = response {
            seen.push(*seq);
        }
    })
    .unwrap();
    assert_eq!(terminal, progress(11, "done"));
    assert_eq!(seen, (1..=11).collect::<Vec<u64>>());
    let resumed: Vec<u64> = net
        .requests()
        .iter()
        .map(|r| match r {
            Request::Watch { after, .. } => *after,
            other => panic!("a watch sends only watch requests: {other:?}"),
        })
        .collect();
    assert_eq!(resumed, (0..=10).collect::<Vec<u64>>(), "resume by seq");
}

#[test]
fn a_zero_worker_submit_gets_the_daemons_default_shard_count() {
    let dir = std::env::temp_dir().join(format!("goofi-client-retry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let campaign = Campaign::builder("c")
        .workload(WorkloadImage {
            name: "sim-wl".into(),
            words: vec![60],
            code_words: 1,
            entry: 0,
        })
        .observe_chains(["internal"])
        .output(OutputRegion::Ports)
        .termination(Termination {
            max_instructions: 1_000,
            max_iterations: None,
        })
        .faults(
            (0..6)
                .map(|bit| {
                    FaultSpec::single(
                        FaultLocation::ScanCell {
                            chain: "internal".into(),
                            cell: "A".into(),
                            bit,
                        },
                        Trigger::AfterInstructions(5),
                    )
                })
                .collect::<Vec<_>>(),
        )
        .build()
        .unwrap();
    let db_path = dir.join("campaigns.gdb");
    let mut db = goofidb::Database::new();
    dbio::init_schema(&mut db).unwrap();
    dbio::store_campaign(&mut db, &campaign).unwrap();
    dbio::save_database(&RealFs, &db_path, &db).unwrap();

    let mut cfg = ServiceConfig::new(
        &db_path,
        WorkerCommand {
            program: PathBuf::from(env!("CARGO_BIN_EXE_goofi-mock-worker")),
            args: Vec::new(),
        },
    );
    cfg.default_workers = 3;
    let scheduler = Arc::new(Scheduler::new(cfg).unwrap());
    let listener = RealNet.listen("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let daemon = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || service::serve(listener, scheduler, stop))
    };

    let read_timeout = Duration::from_secs(10);
    let job = service::submit_job(&RealNet, &addr, "req-0", "c", 0, None, read_timeout).unwrap();
    let terminal = service::watch_to_end(&RealNet, &addr, &job, 0, read_timeout, |_| {}).unwrap();
    let Response::Progress {
        state,
        shards_total,
        ..
    } = terminal
    else {
        panic!("the watch ends on a progress update: {terminal:?}");
    };
    assert_eq!(state, "done");
    assert_eq!(shards_total, 3, "0 workers means the daemon's default");

    stop.store(true, Ordering::Release);
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
