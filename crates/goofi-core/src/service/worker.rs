//! The shard-worker half of the campaign service.
//!
//! A worker is one OS process owning one shard of a campaign's experiment
//! index space. It reads its campaign's tables from the shared database,
//! runs its shard's index range via [`runner::resume_campaign`] under a
//! private journal, and streams [`WorkerEvent`] lines on stdout — the
//! daemon reads them to renew the shard lease and aggregate job progress.
//! The binary wrapping [`run_worker`] chooses the target system (`goofi
//! worker` builds the Thor simulator; the test binary builds
//! [`SimTarget`](crate::framework::SimTarget)), which is all that differs
//! between production and test workers.

use super::chaos::{ChaosConfig, ChaosMode, CHAOS_EXIT_CODE};
use super::net::{encode_frame, FaultInjector, FaultWriter, NetFaultConfig};
use super::wire::WorkerEvent;
use crate::dbio;
use crate::journal::ExperimentJournal;
use crate::monitor::{Progress, ProgressMonitor};
use crate::runner;
use crate::target::TargetAccess;
use crate::{GoofiError, Result};
use parking_lot::Mutex;
use std::io::Write;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Parsed `goofi worker` command line. The grammar is shared by every
/// worker binary so the scheduler can spawn any of them interchangeably.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerArgs {
    /// Database file holding the campaign.
    pub db: PathBuf,
    /// Campaign name.
    pub campaign: String,
    /// Shard index (for event attribution).
    pub shard: usize,
    /// Global experiment index range of this shard.
    pub range: Range<usize>,
    /// Private shard journal path.
    pub journal: PathBuf,
    /// Lease attempt, 1-based.
    pub attempt: u32,
    /// Seeded self-kill drill, when the daemon runs with `--chaos`.
    pub chaos: Option<ChaosConfig>,
    /// Seeded perturbation of our own event frames, when the daemon runs
    /// with `--net-chaos` — the worker-side half of the network drill.
    pub net_chaos: Option<NetFaultConfig>,
    /// The campaign's `target_system` name, recorded by the spawning
    /// daemon so a multi-target worker binary builds the right port
    /// (`None` = the binary's default target). The framework never
    /// interprets the string — only the binary's registry does.
    pub target: Option<String>,
}

impl WorkerArgs {
    /// Parses `--db P --campaign C --shard K --range A:B --journal P
    /// [--attempt N] [--chaos SPEC] [--net-chaos SPEC] [--target NAME]`.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Config`] on unknown flags, missing values, or
    /// malformed numbers — never a panic, since the daemon's spawn line
    /// is still an external input.
    pub fn parse(args: &[String]) -> Result<WorkerArgs> {
        let mut db = None;
        let mut campaign = None;
        let mut shard = None;
        let mut range = None;
        let mut journal = None;
        let mut attempt: u32 = 1;
        let mut chaos = None;
        let mut net_chaos = None;
        let mut target = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| GoofiError::Config(format!("missing value for `{flag}`")))?;
            match flag.as_str() {
                "--db" => db = Some(PathBuf::from(value)),
                "--campaign" => campaign = Some(value.clone()),
                "--shard" => {
                    shard = Some(
                        value
                            .parse()
                            .map_err(|_| GoofiError::Config(format!("bad --shard `{value}`")))?,
                    );
                }
                "--range" => {
                    let (a, b) = value.split_once(':').ok_or_else(|| {
                        GoofiError::Config(format!("bad --range `{value}` (want A:B)"))
                    })?;
                    let a: usize = a
                        .parse()
                        .map_err(|_| GoofiError::Config(format!("bad --range start `{a}`")))?;
                    let b: usize = b
                        .parse()
                        .map_err(|_| GoofiError::Config(format!("bad --range end `{b}`")))?;
                    if b < a {
                        return Err(GoofiError::Config(format!("backwards --range `{value}`")));
                    }
                    range = Some(a..b);
                }
                "--journal" => journal = Some(PathBuf::from(value)),
                "--attempt" => {
                    attempt = value
                        .parse()
                        .map_err(|_| GoofiError::Config(format!("bad --attempt `{value}`")))?;
                }
                "--chaos" => {
                    chaos = Some(
                        ChaosConfig::decode(value)
                            .ok_or_else(|| GoofiError::Config(format!("bad --chaos `{value}`")))?,
                    );
                }
                "--net-chaos" => {
                    net_chaos =
                        Some(NetFaultConfig::decode(value).ok_or_else(|| {
                            GoofiError::Config(format!("bad --net-chaos `{value}`"))
                        })?);
                }
                "--target" => target = Some(value.clone()),
                other => return Err(GoofiError::Config(format!("unknown worker flag `{other}`"))),
            }
        }
        let missing = |name: &str| GoofiError::Config(format!("worker needs `{name}`"));
        Ok(WorkerArgs {
            db: db.ok_or_else(|| missing("--db"))?,
            campaign: campaign.ok_or_else(|| missing("--campaign"))?,
            shard: shard.ok_or_else(|| missing("--shard"))?,
            range: range.ok_or_else(|| missing("--range"))?,
            journal: journal.ok_or_else(|| missing("--journal"))?,
            attempt: attempt.max(1),
            chaos,
            net_chaos,
            target,
        })
    }

    /// The argument vector [`WorkerArgs::parse`] reads — what the
    /// scheduler appends to the worker command line.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--db".into(),
            self.db.display().to_string(),
            "--campaign".into(),
            self.campaign.clone(),
            "--shard".into(),
            self.shard.to_string(),
            "--range".into(),
            format!("{}:{}", self.range.start, self.range.end),
            "--journal".into(),
            self.journal.display().to_string(),
            "--attempt".into(),
            self.attempt.to_string(),
        ];
        if let Some(chaos) = &self.chaos {
            args.push("--chaos".into());
            args.push(chaos.encode());
        }
        if let Some(net_chaos) = &self.net_chaos {
            args.push("--net-chaos".into());
            args.push(net_chaos.encode());
        }
        if let Some(target) = &self.target {
            args.push("--target".into());
            args.push(target.clone());
        }
        args
    }
}

/// The worker's event channel to the daemon: sequence-numbered
/// [`WorkerEvent`] frames on stdout. Sequence numbers start at 1 per
/// process, so the daemon's per-spawn reader can drop duplicated or
/// reordered-stale frames; the frame codec (length prefix + checksum)
/// lets it skip corrupted ones without desyncing. Under `--net-chaos`
/// the writer itself perturbs outgoing frames — the drill's worker half.
struct EventSender {
    writer: Mutex<FaultWriter<Box<dyn Write + Send>>>,
    seq: AtomicU64,
}

impl EventSender {
    fn new(net_chaos: Option<NetFaultConfig>) -> EventSender {
        let sink: Box<dyn Write + Send> = Box::new(std::io::stdout());
        EventSender {
            writer: Mutex::new(FaultWriter::new(sink, net_chaos.map(FaultInjector::new))),
            seq: AtomicU64::new(0),
        }
    }

    /// Emits one event frame; delivery failures are deliberately ignored
    /// (a daemon that stopped listening judges us by lease, not by I/O).
    fn emit(&self, event: &WorkerEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let frame = encode_frame(&event.encode_with_seq(seq));
        let _ = self.writer.lock().send_frame(&frame);
    }
}

/// This process's parent id, where the platform reports one.
fn parent_id() -> Option<u32> {
    #[cfg(unix)]
    return Some(std::os::unix::process::parent_id());
    #[cfg(not(unix))]
    return None;
}

/// A stalled chaos worker's end: the daemon kills it at the lease
/// deadline. Should that daemon die first, the worker is re-parented, its
/// parent id stops matching `daemon`, and it exits rather than sleep
/// forever with nobody left to kill it.
fn stall_until_orphaned(daemon: Option<u32>) -> ! {
    while parent_id() == daemon {
        std::thread::sleep(Duration::from_millis(100));
    }
    std::process::exit(CHAOS_EXIT_CODE)
}

/// Runs one shard to completion: the body of every worker binary.
///
/// Reads the campaign from `args.db` with [`dbio::load_campaign_from`],
/// which decodes only the campaign's tables, replays/extends the shard
/// journal over `args.range`, and streams [`WorkerEvent`]s on stdout:
/// at most one progress frame per scheduler tick while the shard runs,
/// then the final counters and `done` (or `error`) as soon as it ends.
/// With a chaos config active for this attempt, the process
/// deterministically kills itself (or stalls) after a seeded number of
/// fresh completions — see [`super::chaos`].
///
/// # Errors
///
/// Any campaign, journal, or database error; the caller should exit
/// nonzero so the daemon counts the lease as failed.
pub fn run_worker<T, FT>(args: &WorkerArgs, make_target: FT) -> Result<()>
where
    T: TargetAccess,
    FT: Fn() -> T + Sync,
{
    // The daemon that spawned this worker, read before the database read
    // so that a daemon dying during start-up is still seen to be gone.
    let daemon = parent_id();
    let campaign = dbio::load_campaign_from(&crate::vfs::RealFs, &args.db, &args.campaign)?;
    let range =
        args.range.start.min(campaign.faults.len())..args.range.end.min(campaign.faults.len());

    let monitor = ProgressMonitor::new(range.len());
    let events = Arc::new(EventSender::new(args.net_chaos.clone()));
    events.emit(&WorkerEvent::Hello {
        shard: args.shard,
        attempt: args.attempt,
    });

    // Progress streamer: a frame on change, then a tick's rest before the
    // next, since the daemon samples no more often. The end of the run
    // cuts either wait short and ends the streamer; the final counters go
    // out below.
    let streamer = {
        let monitor = monitor.clone();
        let shard = args.shard;
        let events = Arc::clone(&events);
        std::thread::spawn(move || {
            let mut sent = Progress::default();
            loop {
                let p = monitor.wait_for_change(&sent, Duration::from_millis(100));
                if monitor.is_finished() {
                    return;
                }
                if p != sent {
                    events.emit(&progress_event(shard, &p));
                    sent = p;
                }
                if monitor.wait_finished(super::TICK) {
                    return;
                }
            }
        })
    };

    // Chaos drill: self-kill (or stall) after a seeded number of *fresh*
    // completions this lease.
    if let Some(chaos) = args.chaos.filter(|c| c.active(args.attempt)) {
        // Experiments already journaled count as "replayed", not "fresh":
        // only the kill point depends on the split, but it is what makes
        // drills re-kill only on new work. A journal that does not load
        // counts none; `resume_campaign` salvages it below.
        let baseline = ExperimentJournal::load(&args.journal, &args.campaign).map_or(0, |state| {
            state
                .completed
                .keys()
                .filter(|index| range.contains(index))
                .count()
        });
        let kill_point = chaos.kill_point(args.shard, args.attempt);
        let monitor = monitor.clone();
        std::thread::spawn(move || {
            let mut last = Progress::default();
            loop {
                // Read before the wait: once the run has ended, the
                // wait's counters are final and the drill is over.
                let ended = monitor.is_finished();
                let p = monitor.wait_for_change(&last, Duration::from_millis(50));
                if p.completed.saturating_sub(baseline) as u64 >= kill_point {
                    match chaos.mode {
                        ChaosMode::Exit => std::process::exit(CHAOS_EXIT_CODE),
                        ChaosMode::Stall => {
                            // Freeze the campaign without exiting: the
                            // lease deadline must catch us.
                            monitor.pause();
                            stall_until_orphaned(daemon)
                        }
                    }
                }
                if ended {
                    return;
                }
                last = p;
            }
        });
    }

    let result = runner::resume_campaign(
        &make_target,
        None::<fn() -> Box<dyn envsim::Environment>>,
        &campaign,
        &monitor,
        1,
        &crate::vfs::RealFs,
        &args.journal,
        range,
    );
    monitor.finish();
    let _ = streamer.join();

    // The final counters always precede `done`, so the last progress
    // frame and the `done` frame agree.
    let snapshot = monitor.snapshot();
    events.emit(&progress_event(args.shard, &snapshot));
    match result {
        Ok(_) => {
            events.emit(&WorkerEvent::Done {
                shard: args.shard,
                completed: snapshot.completed as u64,
                failed: snapshot.failed as u64,
            });
            Ok(())
        }
        Err(e) => {
            let kind = match &e {
                GoofiError::TargetOffline { .. } => "target-offline",
                GoofiError::Stopped => "stopped",
                _ => "error",
            };
            events.emit(&WorkerEvent::Error {
                shard: args.shard,
                kind: kind.into(),
                detail: e.to_string(),
            });
            Err(e)
        }
    }
}

fn progress_event(shard: usize, p: &Progress) -> WorkerEvent {
    WorkerEvent::Progress {
        shard,
        completed: p.completed as u64,
        failed: p.failed as u64,
        skipped: p.skipped as u64,
        quarantined: p.quarantined as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(spec: &[&str]) -> Result<WorkerArgs> {
        WorkerArgs::parse(&spec.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn args_roundtrip_through_to_args() {
        let args = WorkerArgs {
            db: "/tmp/db.gdb".into(),
            campaign: "c1".into(),
            shard: 2,
            range: 10..20,
            journal: "/tmp/shard-2.gjl".into(),
            attempt: 3,
            chaos: Some(ChaosConfig::decode("kill-after=3,seed=7").unwrap()),
            net_chaos: Some(NetFaultConfig::decode("drop=0.05,seed=7").unwrap()),
            target: Some("rv32i".into()),
        };
        assert_eq!(WorkerArgs::parse(&args.to_args()).unwrap(), args);
    }

    #[test]
    fn target_flag_is_optional() {
        let args = parse(&[
            "--db",
            "d",
            "--campaign",
            "c",
            "--shard",
            "0",
            "--range",
            "0:4",
            "--journal",
            "j",
        ])
        .unwrap();
        assert_eq!(args.target, None);
        // A spawn line without `--target` stays parseable by old workers.
        assert!(!args.to_args().contains(&"--target".to_string()));
    }

    #[test]
    fn parse_rejects_malformed_args() {
        assert!(parse(&["--db"]).is_err()); // missing value
        assert!(parse(&["--bogus", "1"]).is_err());
        assert!(parse(&["--shard", "x"]).is_err());
        assert!(parse(&["--range", "5"]).is_err());
        assert!(parse(&["--range", "9:3"]).is_err());
        assert!(parse(&["--chaos", "nope"]).is_err());
        assert!(parse(&["--net-chaos", "nope"]).is_err());
        // All mandatory flags must be present.
        assert!(parse(&["--db", "d", "--campaign", "c"]).is_err());
    }
}
