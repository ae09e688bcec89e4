//! Job scheduling: shard leases, heartbeats, poison quarantine, journal
//! merge, and daemon-restart recovery.
//!
//! One [`Scheduler`] owns one database and a spool directory next to it.
//! Each submitted campaign becomes a *job* with a durable manifest in
//! `<spool>/job-<n>/`; a runner thread partitions the campaign's
//! experiment index space into shards ([`super::partition`]) and drives
//! one worker OS process per shard:
//!
//! - **Lease + heartbeat.** A running shard holds a lease that is renewed
//!   whenever its worker reports *changed* counters on stdout. A worker
//!   that exits without finishing, hangs past the lease deadline, or
//!   reports `target-offline` has its lease revoked: the process is
//!   killed (if still alive) and the shard goes back to pending with
//!   exponential backoff ([`crate::policy::Backoff`]) — the process-level
//!   generalisation of a campaign drive loop's retirement.
//! - **Poison shards.** A shard failing [`ServiceConfig::poison_after`]
//!   consecutive leases is quarantined instead of wedging the job: every
//!   experiment it still owes is recorded in its journal as a
//!   `Validity::Invalid` stub plus a `parentExperiment`-linked
//!   `…/rerun1` stub, and the job completes around it.
//! - **Merge.** When every shard is done or poisoned, the shard journals
//!   are folded into the database in shard order through the idempotent
//!   [`dbio::import_journal_state`] path, from the journal state each
//!   shard's completion check (or poison quarantine) already loaded, so
//!   no journal is read twice. Journals carry global experiment indices
//!   and each contains its own (identical, deduplicated) reference run,
//!   so at-least-once execution still merges to a database
//!   essence-equal to a serial run.
//! - **Restart recovery.** [`Scheduler::recover`] re-runs every spooled
//!   job without a `done` marker; shard journals make the replay
//!   idempotent, so a killed daemon resumes mid-flight jobs where they
//!   stopped.

use super::chaos::ChaosConfig;
use super::net::{FrameRead, FrameReader, NetFaultConfig};
use super::wire::WorkerEvent;
use crate::campaign::Campaign;
use crate::dbio;
use crate::golden;
use crate::journal::{self, ExperimentJournal, JournalState};
use crate::logging::ExperimentRecord;
use crate::policy::Backoff;
use crate::vfs::{self, Vfs, VfsHandle};
use crate::{GoofiError, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a spawned worker process is invoked: a program plus fixed argument
/// prefix, to which the scheduler appends the per-shard `--db/--shard/…`
/// flags. The daemon uses its own executable with a `worker` prefix; the
/// test suite points this at a `goofi-mock-worker` binary instead.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Program to spawn.
    pub program: PathBuf,
    /// Arguments placed before the worker flags (e.g. `["worker"]`).
    pub args: Vec<String>,
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The shared campaign database.
    pub db_path: PathBuf,
    /// Spool directory for job manifests and shard journals; created on
    /// [`Scheduler::new`]. Defaults to `<db>.spool`.
    pub spool_dir: PathBuf,
    /// How shard workers are spawned.
    pub worker_cmd: WorkerCommand,
    /// Default shard count for jobs that do not specify one.
    pub default_workers: usize,
    /// Lease duration: a running shard whose counters have not changed
    /// for this long is considered hung and its lease revoked.
    pub lease: Duration,
    /// Consecutive lease failures after which a shard is quarantined as
    /// poison.
    pub poison_after: u32,
    /// Delay schedule between lease reassignments of a failing shard.
    pub backoff: Backoff,
    /// Seeded chaos drill passed to every spawned worker.
    pub chaos: Option<ChaosConfig>,
    /// Seeded network-fault drill passed to every spawned worker: the
    /// worker perturbs its own event frames, exercising the daemon's
    /// frame resync and sequence dedup (`goofi serve --net-chaos`).
    pub net_chaos: Option<NetFaultConfig>,
    /// Filesystem all scheduler persistence goes through — [`vfs::real`]
    /// in production, a fault-injecting [`crate::vfs::FaultFs`] in the
    /// durability torture harness.
    pub vfs: VfsHandle,
}

impl ServiceConfig {
    /// A config with service defaults: `<db>.spool` spool directory,
    /// 2 workers, 5 s leases, poison after 3 failures, 50→2000 ms
    /// exponential backoff, no chaos.
    pub fn new(db_path: impl Into<PathBuf>, worker_cmd: WorkerCommand) -> Self {
        let db_path = db_path.into();
        let spool_dir = PathBuf::from(format!("{}.spool", db_path.display()));
        ServiceConfig {
            db_path,
            spool_dir,
            worker_cmd,
            default_workers: 2,
            lease: Duration::from_secs(5),
            poison_after: 3,
            backoff: Backoff::exponential(50, 2_000),
            chaos: None,
            net_chaos: None,
            vfs: vfs::real(),
        }
    }
}

/// What [`Scheduler::recover`] did with the spool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverOutcome {
    /// Jobs restarted from their manifests.
    pub resumed: Vec<String>,
    /// Job directories with damaged manifests, renamed aside to
    /// `quarantined-<id>` instead of failing startup.
    pub quarantined: Vec<String>,
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, runner not started yet.
    Queued,
    /// Shards in flight.
    Running,
    /// All shards done or poisoned; journals merged into the database.
    Done,
    /// The job itself failed (bad campaign, database I/O, …).
    Failed,
}

impl JobState {
    /// Wire encoding (`queued`/`running`/`done`/`failed`).
    pub fn encode(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job has finished (successfully or not).
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

/// Aggregated live progress of a job across its shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobProgress {
    /// Lifecycle state.
    pub state: JobState,
    /// Experiments in the campaign.
    pub total: usize,
    /// Experiments completed across all shards (journal replays count).
    pub completed: usize,
    /// Experiments failed.
    pub failed: usize,
    /// Experiments skipped.
    pub skipped: usize,
    /// Records quarantined (workers' own plus poison-shard stubs).
    pub quarantined: usize,
    /// Shards finished.
    pub shards_done: usize,
    /// Shards total.
    pub shards_total: usize,
    /// Shards quarantined as poison.
    pub shards_poisoned: usize,
    /// Failure detail when `state` is [`JobState::Failed`], else empty.
    pub detail: String,
}

impl JobProgress {
    fn new() -> Self {
        JobProgress {
            state: JobState::Queued,
            total: 0,
            completed: 0,
            failed: 0,
            skipped: 0,
            quarantined: 0,
            shards_done: 0,
            shards_total: 0,
            shards_poisoned: 0,
            detail: String::new(),
        }
    }
}

/// Watch handle on one job: current progress, blocking change waits, and
/// the sequence-numbered update history that makes watch streams
/// resumable after a lost connection.
#[derive(Clone)]
pub struct JobWatcher {
    shared: Arc<JobShared>,
}

impl JobWatcher {
    /// The job's current aggregated progress.
    pub fn current(&self) -> JobProgress {
        self.shared.inner.lock().current.clone()
    }

    /// The current progress with its sequence number (0 until the first
    /// update).
    pub fn snapshot(&self) -> (u64, JobProgress) {
        let h = self.shared.inner.lock();
        (h.seq, h.current.clone())
    }

    /// Every retained update with a sequence number greater than `after`,
    /// oldest first. Updates are cumulative snapshots, so even if the
    /// history ring has trimmed entries past `after`, replaying what is
    /// returned converges the watcher on the current state.
    pub fn since(&self, after: u64) -> Vec<(u64, JobProgress)> {
        self.shared
            .inner
            .lock()
            .ring
            .iter()
            .filter(|(seq, _)| *seq > after)
            .cloned()
            .collect()
    }

    /// Blocks until an update with a sequence number greater than
    /// `last_seq` exists or `timeout` elapses; returns the current
    /// snapshot either way.
    pub fn wait_newer(&self, last_seq: u64, timeout: Duration) -> (u64, JobProgress) {
        let deadline = Instant::now() + timeout;
        let mut h = self.shared.inner.lock();
        while h.seq <= last_seq {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if self
                .shared
                .changed
                .wait_for(&mut h, deadline - now)
                .timed_out()
            {
                break;
            }
        }
        (h.seq, h.current.clone())
    }

    /// Blocks until the progress differs from `last` or `timeout`
    /// elapses; returns the current progress either way.
    pub fn wait_changed(&self, last: &JobProgress, timeout: Duration) -> JobProgress {
        let deadline = Instant::now() + timeout;
        let mut h = self.shared.inner.lock();
        while h.current == *last {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if self
                .shared
                .changed
                .wait_for(&mut h, deadline - now)
                .timed_out()
            {
                break;
            }
        }
        h.current.clone()
    }

    /// Blocks until the job reaches a terminal state.
    pub fn wait(&self) -> JobProgress {
        let mut last = JobProgress::new();
        loop {
            let p = self.wait_changed(&last, Duration::from_millis(500));
            if p.state.is_terminal() {
                return p;
            }
            last = p;
        }
    }
}

/// Updates retained for watch-stream resume. Jobs emit one update per
/// aggregate change, so this comfortably covers any realistic
/// reconnect window; beyond it, cumulative snapshots still converge.
const HISTORY_RING: usize = 1024;

struct JobHistory {
    /// Sequence number of the latest update; 0 means "no update yet".
    seq: u64,
    current: JobProgress,
    ring: VecDeque<(u64, JobProgress)>,
}

struct JobShared {
    inner: Mutex<JobHistory>,
    changed: Condvar,
}

impl JobShared {
    fn new() -> Self {
        JobShared {
            inner: Mutex::new(JobHistory {
                seq: 0,
                current: JobProgress::new(),
                ring: VecDeque::new(),
            }),
            changed: Condvar::new(),
        }
    }

    /// Applies `mutate`; if it actually changed the progress, assigns the
    /// next sequence number and records the update in the history ring.
    /// No-op mutations do not bump the sequence, so keepalive resends
    /// stay deduplicable by seq.
    fn set(&self, mutate: impl FnOnce(&mut JobProgress)) {
        let mut h = self.inner.lock();
        let before = h.current.clone();
        mutate(&mut h.current);
        if h.current == before {
            return;
        }
        h.seq += 1;
        let entry = (h.seq, h.current.clone());
        h.ring.push_back(entry);
        if h.ring.len() > HISTORY_RING {
            h.ring.pop_front();
        }
        self.changed.notify_all();
    }
}

struct JobEntry {
    campaign: String,
    shared: Arc<JobShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

struct SchedShared {
    cfg: ServiceConfig,
    jobs: Mutex<BTreeMap<String, JobEntry>>,
    /// Request id → job id, the server-side half of idempotent submits:
    /// a client retrying a submission whose `accepted` response was lost
    /// gets the original job back instead of a duplicate. Persisted in
    /// each job's manifest and repopulated by [`Scheduler::recover`].
    requests: Mutex<BTreeMap<String, String>>,
    /// Serialises read-modify-write cycles on the shared database file.
    db_lock: Mutex<()>,
    /// Set by [`Scheduler::shutdown`]: runner threads kill their workers
    /// and return without completing (manifests stay, so a later
    /// [`Scheduler::recover`] resumes the jobs).
    aborted: AtomicBool,
    next_job: AtomicU64,
}

/// The campaign-service scheduler. See the module docs for the protocol.
pub struct Scheduler {
    shared: Arc<SchedShared>,
}

impl Scheduler {
    /// Creates a scheduler over `cfg`, creating the spool directory and
    /// seeding the job-id counter past any spooled jobs.
    ///
    /// # Errors
    ///
    /// Spool directory I/O errors.
    pub fn new(cfg: ServiceConfig) -> Result<Scheduler> {
        cfg.vfs
            .create_dir_all(&cfg.spool_dir)
            .map_err(|e| GoofiError::io("creating spool dir", &cfg.spool_dir, &e))?;
        let mut max_id = 0;
        for id in spooled_job_ids(cfg.vfs.as_ref(), &cfg.spool_dir)? {
            if let Some(n) = id.strip_prefix("job-").and_then(|n| n.parse::<u64>().ok()) {
                max_id = max_id.max(n);
            }
        }
        Ok(Scheduler {
            shared: Arc::new(SchedShared {
                cfg,
                jobs: Mutex::new(BTreeMap::new()),
                requests: Mutex::new(BTreeMap::new()),
                db_lock: Mutex::new(()),
                aborted: AtomicBool::new(false),
                next_job: AtomicU64::new(max_id + 1),
            }),
        })
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.cfg
    }

    /// Submits the named campaign as a new job over `workers` shards
    /// (0 = the config default). Validates the campaign against the
    /// database, writes the job manifest, and starts the runner thread.
    ///
    /// `request_id` is the optional idempotency token of the wire
    /// protocol: resubmitting an id this scheduler has already accepted
    /// returns the existing job instead of starting a duplicate, so
    /// clients may blindly retry a submit whose acknowledgement was lost
    /// in flight. Accepted ids survive daemon restarts via the job
    /// manifest. `target`, when given, is the expected target system: the
    /// submission is rejected when the stored campaign names a different
    /// one, so a client's `--target` flag acts as a cross-check rather
    /// than an override — the campaign, not the submitter, owns the
    /// choice of CPU.
    ///
    /// # Errors
    ///
    /// Unknown campaign, malformed request id, database, or spool I/O
    /// errors, and [`GoofiError::Config`] on a target-system mismatch.
    pub fn submit(
        &self,
        request_id: Option<&str>,
        campaign: &str,
        workers: usize,
        target: Option<&str>,
    ) -> Result<String> {
        // Held across the whole submit so two racing retries of the same
        // request id cannot both miss the map and double-submit.
        let mut requests = self.shared.requests.lock();
        if let Some(rid) = request_id {
            if rid.contains(|c: char| c.is_whitespace() || c.is_control()) {
                return Err(GoofiError::Wire(format!(
                    "request id `{}` contains whitespace or control characters",
                    rid.escape_default()
                )));
            }
            if let Some(job) = requests.get(rid) {
                return Ok(job.clone());
            }
        }
        let cfg = &self.shared.cfg;
        // Fail fast on bad submissions, before anything durable exists.
        let db = dbio::load_database(cfg.vfs.as_ref(), &cfg.db_path)?;
        let stored = dbio::load_campaign(&db, campaign)?;
        if let Some(want) = target {
            if stored.target_system != want {
                return Err(GoofiError::Config(format!(
                    "campaign `{campaign}` targets `{}`, not `{want}`",
                    stored.target_system
                )));
            }
        }
        drop(db);

        let id = format!(
            "job-{}",
            self.shared.next_job.fetch_add(1, Ordering::Relaxed)
        );
        let dir = cfg.spool_dir.join(&id);
        cfg.vfs
            .create_dir_all(&dir)
            .map_err(|e| GoofiError::io("creating job dir", &dir, &e))?;
        let workers = if workers == 0 {
            cfg.default_workers
        } else {
            workers
        };
        write_manifest(cfg.vfs.as_ref(), &dir, campaign, workers, request_id)?;
        self.start_job(&id, stored, workers);
        if let Some(rid) = request_id {
            requests.insert(rid.to_string(), id.clone());
        }
        Ok(id)
    }

    /// Re-runs every spooled job without a `done` marker — the daemon's
    /// restart path. Shard journals make the replay idempotent.
    ///
    /// A job directory whose manifest is damaged does not fail the whole
    /// startup: the directory is renamed to `quarantined-<id>` (which this
    /// scan skips forever after) and reported in
    /// [`RecoverOutcome::quarantined`] — the salvage-and-quarantine
    /// discipline of `goofi fsck`, applied at the one place a daemon
    /// restart meets damaged state.
    ///
    /// # Errors
    ///
    /// Spool I/O errors.
    pub fn recover(&self) -> Result<RecoverOutcome> {
        let cfg = &self.shared.cfg;
        let mut outcome = RecoverOutcome::default();
        for id in spooled_job_ids(cfg.vfs.as_ref(), &cfg.spool_dir)? {
            let dir = cfg.spool_dir.join(&id);
            if self.shared.jobs.lock().contains_key(&id) {
                continue;
            }
            let done = cfg.vfs.exists(&dir.join("done"));
            if done {
                // A crash between the done marker and the cleanup.
                remove_spent_files(cfg.vfs.as_ref(), &dir);
            }
            match read_manifest(cfg.vfs.as_ref(), &dir) {
                Ok((campaign, workers, request_id)) => {
                    if let Some(rid) = request_id {
                        // Re-arm submit dedup across the restart, so a
                        // client still retrying an old submission does
                        // not fork a second job — completed jobs
                        // included, since retries outlive completions.
                        self.shared.requests.lock().insert(rid, id.clone());
                    }
                    if done {
                        // Finished before the restart: register it as a
                        // terminal entry so status listings, watches and
                        // dedup'd resubmits resolve, but run nothing.
                        self.register_settled_job(
                            &id,
                            &campaign,
                            JobState::Done,
                            "completed before daemon restart".into(),
                        );
                        continue;
                    }
                    // Only the campaign's tables: the job's merge still
                    // loads (and checks) the whole database.
                    match dbio::load_campaign_from(cfg.vfs.as_ref(), &cfg.db_path, &campaign) {
                        Ok(stored) => self.start_job(&id, stored, workers),
                        Err(e) => self.register_settled_job(
                            &id,
                            &campaign,
                            JobState::Failed,
                            e.to_string(),
                        ),
                    }
                    outcome.resumed.push(id);
                }
                // A finished job's manifest no longer matters; damage to
                // it is fsck's concern, not a reason to quarantine.
                Err(_) if done => {}
                Err(_) => {
                    quarantine_job_dir(cfg.vfs.as_ref(), &cfg.spool_dir, &id)?;
                    outcome.quarantined.push(id);
                }
            }
        }
        Ok(outcome)
    }

    /// Registers a job in a terminal state, with no runner thread: one
    /// that completed before a restart, or one whose campaign no longer
    /// reads. Counters are left at zero — the merged database, not this
    /// summary, is the record of what happened.
    fn register_settled_job(&self, id: &str, campaign: &str, state: JobState, detail: String) {
        let shared = Arc::new(JobShared::new());
        shared.set(|p| {
            p.state = state;
            p.detail = detail;
        });
        self.shared.jobs.lock().insert(
            id.to_string(),
            JobEntry {
                campaign: campaign.to_string(),
                shared,
                thread: None,
            },
        );
    }

    /// Starts the runner thread of a job over its decoded campaign.
    fn start_job(&self, id: &str, campaign: Campaign, workers: usize) {
        let shared = Arc::new(JobShared::new());
        let name = campaign.name.clone();
        let thread = {
            let sched = Arc::clone(&self.shared);
            let job_shared = Arc::clone(&shared);
            let id = id.to_string();
            std::thread::spawn(move || {
                if let Err(e) = run_job(&sched, &id, &campaign, workers, &job_shared) {
                    job_shared.set(|p| {
                        p.state = JobState::Failed;
                        p.detail = e.to_string();
                    });
                }
            })
        };
        self.shared.jobs.lock().insert(
            id.to_string(),
            JobEntry {
                campaign: name,
                shared,
                thread: Some(thread),
            },
        );
    }

    /// A watch handle on a job, or `None` for unknown ids.
    pub fn watch(&self, id: &str) -> Option<JobWatcher> {
        self.shared.jobs.lock().get(id).map(|entry| JobWatcher {
            shared: Arc::clone(&entry.shared),
        })
    }

    /// `(id, campaign, progress)` of every job this scheduler knows.
    pub fn jobs(&self) -> Vec<(String, String, JobProgress)> {
        self.shared
            .jobs
            .lock()
            .iter()
            .map(|(id, entry)| {
                (
                    id.clone(),
                    entry.campaign.clone(),
                    entry.shared.inner.lock().current.clone(),
                )
            })
            .collect()
    }

    /// Stops the scheduler: runner threads kill their worker processes
    /// and return without writing completion markers, so the spool state
    /// is exactly what a crashed daemon would leave behind —
    /// [`Scheduler::recover`] on a fresh scheduler resumes the jobs.
    pub fn shutdown(&self) {
        self.shared.aborted.store(true, Ordering::Release);
        let handles: Vec<_> = self
            .shared
            .jobs
            .lock()
            .values_mut()
            .filter_map(|entry| entry.thread.take())
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Per-shard bookkeeping of the job runner loop. A settled shard keeps
/// the journal state the merge imports.
enum ShardState {
    Pending {
        attempt: u32,
        not_before: Instant,
    },
    Running {
        attempt: u32,
        child: Child,
        comm: Arc<ShardComm>,
        reader: std::thread::JoinHandle<()>,
    },
    Done(JournalState),
    Poisoned(JournalState),
}

impl ShardState {
    /// A shard due for its `attempt`-th lease now.
    fn pending(attempt: u32) -> ShardState {
        ShardState::Pending {
            attempt,
            not_before: Instant::now(),
        }
    }
}

/// What the stdout reader thread shares with the runner loop.
struct ShardComm {
    /// Last instant the worker's counters *changed* (or hello/done/error
    /// arrived) — the lease renewal clock.
    renewed: Mutex<Instant>,
    /// Latest reported counters and terminal flags.
    stats: Mutex<ShardStats>,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ShardStats {
    completed: u64,
    failed: u64,
    skipped: u64,
    quarantined: u64,
    done: bool,
    error: Option<String>,
}

/// The job runner: drives all shards of one job to done-or-poisoned,
/// then merges the shard journals into the database.
fn run_job(
    sched: &SchedShared,
    id: &str,
    campaign: &Campaign,
    workers: usize,
    job: &JobShared,
) -> Result<()> {
    let vfs = sched.cfg.vfs.as_ref();
    let campaign_name = campaign.name.as_str();
    let total = campaign.experiment_count();
    let ranges = super::partition(total, workers);
    let dir = sched.cfg.spool_dir.join(id);
    let journal_path = |shard: usize| dir.join(format!("shard-{shard}.gjl"));

    job.set(|p| {
        p.state = JobState::Running;
        p.total = total;
        p.shards_total = ranges.len();
    });

    let mut shards: Vec<ShardState> = Vec::new();
    let mut last_stats: Vec<ShardStats> = vec![ShardStats::default(); ranges.len()];
    let mut consecutive_failures: Vec<u32> = vec![0; ranges.len()];
    let mut poison_quarantined: usize = 0;
    for (shard, range) in ranges.iter().enumerate() {
        // A journal that already covers its whole range (daemon restarted
        // after the shard finished but before the merge) is done as-is.
        match shard_journal_complete(vfs, &journal_path(shard), campaign_name, range)? {
            Some(journal) => {
                last_stats[shard].completed = range.len() as u64;
                last_stats[shard].done = true;
                shards.push(ShardState::Done(journal));
            }
            None => shards.push(ShardState::pending(1)),
        }
    }

    loop {
        if sched.aborted.load(Ordering::Acquire) {
            for state in &mut shards {
                if let ShardState::Running { child, reader, .. } =
                    std::mem::replace(state, ShardState::pending(1))
                {
                    kill_child(child);
                    let _ = reader.join();
                }
            }
            return Err(GoofiError::Stopped);
        }

        let mut all_settled = true;
        for shard in 0..shards.len() {
            match &mut shards[shard] {
                ShardState::Done(_) | ShardState::Poisoned(_) => {}
                ShardState::Pending {
                    attempt,
                    not_before,
                } => {
                    all_settled = false;
                    if Instant::now() < *not_before {
                        continue;
                    }
                    let attempt = *attempt;
                    match spawn_worker(
                        &sched.cfg,
                        campaign_name,
                        &campaign.target_system,
                        shard,
                        &ranges[shard],
                        &journal_path(shard),
                        attempt,
                    ) {
                        Ok((child, comm, reader)) => {
                            shards[shard] = ShardState::Running {
                                attempt,
                                child,
                                comm,
                                reader,
                            };
                        }
                        Err(_) => {
                            // Spawn failure counts as a failed lease.
                            shard_lease_failed(
                                sched,
                                campaign,
                                &ranges[shard],
                                &journal_path(shard),
                                attempt,
                                &mut shards[shard],
                                &mut consecutive_failures[shard],
                                &mut poison_quarantined,
                            )?;
                        }
                    }
                }
                ShardState::Running {
                    attempt,
                    child,
                    comm,
                    ..
                } => {
                    all_settled = false;
                    let attempt = *attempt;
                    let comm = Arc::clone(comm);
                    last_stats[shard] = comm.stats.lock().clone();
                    let exited = child.try_wait().ok().flatten();
                    let lease_expired =
                        exited.is_none() && comm.renewed.lock().elapsed() > sched.cfg.lease;
                    if exited.is_none() && !lease_expired {
                        continue;
                    }
                    // The worker exited or its lease expired: settle it.
                    let state = std::mem::replace(&mut shards[shard], ShardState::pending(attempt));
                    let (child, reader) = match state {
                        ShardState::Running { child, reader, .. } => (child, reader),
                        _ => unreachable!("shard was running"),
                    };
                    let status = if lease_expired {
                        kill_child(child);
                        None
                    } else {
                        Some(child).and_then(|mut c| c.wait().ok())
                    };
                    // Join the reader before judging: the worker's final
                    // `done` frame may still be in the pipe at exit time.
                    let _ = reader.join();
                    last_stats[shard] = comm.stats.lock().clone();
                    // The journal is the ground truth for completion; the
                    // exit status guards against a worker that "finished"
                    // while dying.
                    let finished = match status {
                        Some(status) if status.success() => shard_journal_complete(
                            vfs,
                            &journal_path(shard),
                            campaign_name,
                            &ranges[shard],
                        )?,
                        _ => None,
                    };
                    if let Some(journal) = finished {
                        consecutive_failures[shard] = 0;
                        shards[shard] = ShardState::Done(journal);
                    } else {
                        shard_lease_failed(
                            sched,
                            campaign,
                            &ranges[shard],
                            &journal_path(shard),
                            attempt,
                            &mut shards[shard],
                            &mut consecutive_failures[shard],
                            &mut poison_quarantined,
                        )?;
                    }
                }
            }
        }

        // Aggregate progress across shards and notify watchers on change.
        let mut agg = JobProgress::new();
        agg.state = JobState::Running;
        agg.total = total;
        agg.shards_total = ranges.len();
        for (shard, stats) in last_stats.iter().enumerate() {
            agg.completed += stats.completed as usize;
            agg.failed += stats.failed as usize;
            agg.skipped += stats.skipped as usize;
            agg.quarantined += stats.quarantined as usize;
            match shards[shard] {
                ShardState::Done(_) => agg.shards_done += 1,
                ShardState::Poisoned(_) => agg.shards_poisoned += 1,
                _ => {}
            }
        }
        agg.quarantined += poison_quarantined;
        // JobShared::set dedups no-op updates, so this only bumps the
        // watch sequence (and wakes watchers) on real change.
        job.set(|p| *p = agg.clone());

        if all_settled {
            break;
        }
        std::thread::sleep(super::TICK);
    }

    // Merge: fold every shard's journal state into the database, in shard
    // order (deterministic), through the idempotent import path. Each
    // state is dropped once imported, which keeps the states out of the
    // save's peak memory.
    {
        let _db_guard = sched.db_lock.lock();
        let mut db = dbio::load_database(vfs, &sched.cfg.db_path)?;
        for state in shards {
            if let ShardState::Done(journal) | ShardState::Poisoned(journal) = state {
                dbio::import_journal_state(&mut db, &journal)?;
            }
        }
        dbio::save_database(vfs, &sched.cfg.db_path, &db)?;
    }
    let done = dir.join("done");
    vfs::write_file(vfs, &done, b"done\n")
        .map_err(|e| GoofiError::io("writing done marker", &done, &e))?;
    job.set(|p| p.state = JobState::Done);
    // After the report, so the cleanup stays out of the job's turnaround.
    remove_spent_files(vfs, &dir);
    Ok(())
}

/// Whether a spool file name is a shard journal (`shard-<k>.gjl`); a
/// journal quarantined aside has another suffix.
pub(crate) fn is_shard_journal(name: &str) -> bool {
    name.starts_with("shard-") && name.ends_with(".gjl")
}

/// Removes the shard journals of a job whose merge is saved and whose
/// `done` marker is written, and the golden-run cache its workers shared:
/// nothing reads them again. What `recover`, request-id dedup and
/// `fsck_spool` read (the manifest and `done`) stays, as does anything
/// quarantined aside. Best effort: a file left behind is removed by the
/// next [`Scheduler::recover`].
fn remove_spent_files(vfs: &dyn Vfs, dir: &Path) {
    let Ok(entries) = vfs.read_dir(dir) else {
        return;
    };
    let merged = |name: &str| is_shard_journal(name) || golden::is_cache_file(name);
    for path in entries {
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(merged)
        {
            let _ = vfs.remove_file(&path);
        }
    }
}

/// Handles one failed lease: backoff-requeue, or poison the shard once it
/// has failed `poison_after` consecutive leases.
#[allow(clippy::too_many_arguments)]
fn shard_lease_failed(
    sched: &SchedShared,
    campaign: &Campaign,
    range: &std::ops::Range<usize>,
    journal: &Path,
    attempt: u32,
    state: &mut ShardState,
    consecutive: &mut u32,
    poison_quarantined: &mut usize,
) -> Result<()> {
    *consecutive += 1;
    if *consecutive >= sched.cfg.poison_after {
        let (stubs, journal) = poison_shard(sched.cfg.vfs.as_ref(), campaign, range, journal)?;
        *poison_quarantined += stubs;
        *state = ShardState::Poisoned(journal);
    } else {
        *state = ShardState::Pending {
            attempt: attempt + 1,
            not_before: Instant::now() + sched.cfg.backoff.delay(*consecutive),
        };
    }
    Ok(())
}

/// Quarantines a poison shard: every experiment the shard still owes gets
/// a `Validity::Invalid` stub record plus an invalid
/// `parentExperiment`-linked `…/rerun1` stub appended to its journal, so
/// the merged database documents the loss (and the rerun hook) instead of
/// the job wedging forever. Returns the number of stub records written and
/// the journal's state with the stubs in, as a reload would read it.
fn poison_shard(
    vfs: &dyn Vfs,
    campaign: &Campaign,
    range: &std::ops::Range<usize>,
    journal_path: &Path,
) -> Result<(usize, JournalState)> {
    let (mut journal, mut state) = ExperimentJournal::reopen(vfs, journal_path, &campaign.name)?;
    let mut stubs = 0;
    for index in range.clone() {
        if state.completed.contains_key(&index) {
            continue;
        }
        let name = campaign.experiment_name(index);
        let fault = campaign.faults.get(index).cloned();
        for record in ExperimentRecord::lost_stubs(&campaign.name, &name, fault) {
            journal.append_record(Some(index), &record)?;
            state.apply_record(index, record);
            stubs += 1;
        }
    }
    journal.commit()?;
    Ok((stubs, state))
}

/// The loaded shard journal, when it exists and covers every index in
/// `range` with a completed record; `None` otherwise. The journal is read
/// once and salvaged rather than failing the job: damage is cut away, and
/// a file that is not a journal, or is another campaign's, is quarantined
/// aside, so the shard simply counts as incomplete and re-runs.
fn shard_journal_complete(
    vfs: &dyn Vfs,
    path: &Path,
    campaign: &str,
    range: &std::ops::Range<usize>,
) -> Result<Option<JournalState>> {
    if !vfs.exists(path) {
        return Ok(None);
    }
    let salvaged = journal::salvage_with(vfs, path)?;
    if salvaged.quarantined.is_some() {
        return Ok(None);
    }
    let state = salvaged.state;
    if state.campaign != campaign {
        vfs::quarantine(vfs, path)?;
        return Ok(None);
    }
    let complete = range
        .clone()
        .all(|index| state.completed.contains_key(&index));
    Ok(complete.then_some(state))
}

/// Spawns one worker process for a shard and a reader thread draining its
/// stdout into a [`ShardComm`].
fn spawn_worker(
    cfg: &ServiceConfig,
    campaign: &str,
    target_system: &str,
    shard: usize,
    range: &std::ops::Range<usize>,
    journal: &Path,
    attempt: u32,
) -> Result<(Child, Arc<ShardComm>, std::thread::JoinHandle<()>)> {
    let worker_args = super::worker::WorkerArgs {
        db: cfg.db_path.clone(),
        campaign: campaign.to_string(),
        shard,
        range: range.clone(),
        journal: journal.to_path_buf(),
        attempt,
        chaos: cfg.chaos,
        net_chaos: cfg.net_chaos.clone(),
        // The campaign's stored target system rides the spawn line so a
        // multi-target worker binary ports the job to the right CPU.
        target: if target_system.is_empty() {
            None
        } else {
            Some(target_system.to_string())
        },
    };
    let mut child = Command::new(&cfg.worker_cmd.program)
        .args(&cfg.worker_cmd.args)
        .args(worker_args.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| {
            GoofiError::Config(format!(
                "spawning worker {}: {e}",
                cfg.worker_cmd.program.display()
            ))
        })?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| GoofiError::Config("worker stdout not captured".into()))?;
    let comm = Arc::new(ShardComm {
        renewed: Mutex::new(Instant::now()),
        stats: Mutex::new(ShardStats::default()),
    });
    let reader = {
        let comm = Arc::clone(&comm);
        std::thread::spawn(move || {
            let mut reader = FrameReader::new(stdout);
            // Highest event sequence number seen from *this* spawn; a
            // fresh attempt starts its own numbering at 1. Duplicated
            // or reordered-stale frames (worker-side net chaos) drop
            // here — stats are cumulative, so newest wins.
            let mut last_seq = 0u64;
            loop {
                let line = match reader.read_frame() {
                    Ok(FrameRead::Frame(line)) => line,
                    // A damaged frame from a half-dead worker is
                    // skipped, not fatal; the reader has already
                    // resynced and the lease deadline judges silence.
                    Ok(FrameRead::Malformed(_)) => continue,
                    Ok(FrameRead::Eof) | Err(_) => break,
                };
                let Ok((seq, event)) = WorkerEvent::decode_with_seq(&line) else {
                    continue;
                };
                if seq != 0 && seq <= last_seq {
                    continue;
                }
                last_seq = last_seq.max(seq);
                let mut stats = comm.stats.lock();
                let before = stats.clone();
                match event {
                    WorkerEvent::Hello { .. } => {}
                    WorkerEvent::Progress {
                        completed,
                        failed,
                        skipped,
                        quarantined,
                        ..
                    } => {
                        stats.completed = completed;
                        stats.failed = failed;
                        stats.skipped = skipped;
                        stats.quarantined = quarantined;
                    }
                    WorkerEvent::Done {
                        completed, failed, ..
                    } => {
                        stats.completed = completed;
                        stats.failed = failed;
                        stats.done = true;
                    }
                    WorkerEvent::Error { kind, detail, .. } => {
                        stats.error = Some(format!("{kind}: {detail}"));
                    }
                }
                // Hello/done/error always renew; progress renews only on
                // change — an idle heartbeat must not keep a hung worker
                // alive past its lease.
                if *stats != before || stats.done || stats.error.is_some() {
                    *comm.renewed.lock() = Instant::now();
                }
            }
        })
    };
    Ok((child, comm, reader))
}

fn kill_child(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// First line of every job manifest.
const MANIFEST_HEADER: &str = "#goofi-job v1";

/// A job directory's manifest file.
pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest")
}

/// Writes `<dir>/manifest`: the durable record from which a restarted
/// daemon resumes the job. Same `key value` line discipline as the
/// journal header; written with the full atomic temp-file, `fsync`,
/// rename discipline so a crash mid-submit leaves either no manifest or
/// a complete one — never a torn one. The optional `request <id>` line
/// keeps submit dedup working across a daemon restart; older manifests
/// without it (and older daemons reading newer manifests) parse fine,
/// since [`decode_manifest`] ignores unknown lines.
fn write_manifest(
    vfs: &dyn Vfs,
    dir: &Path,
    campaign: &str,
    workers: usize,
    request_id: Option<&str>,
) -> Result<()> {
    let path = manifest_path(dir);
    let mut body = format!("{MANIFEST_HEADER}\ncampaign {campaign}\nworkers {workers}\n");
    if let Some(rid) = request_id {
        body.push_str(&format!("request {rid}\n"));
    }
    vfs::atomic_write(vfs, &path, body.as_bytes())
        .map_err(|e| GoofiError::io("writing manifest", &path, &e))
}

/// Decodes what [`write_manifest`] writes: the campaign, the worker count
/// and the request id, if any. `None` when the header, the campaign or
/// the worker count is missing; unknown lines are ignored.
pub(crate) fn decode_manifest(text: &str) -> Option<(String, usize, Option<String>)> {
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return None;
    }
    let (mut campaign, mut workers, mut request) = (None, None, None);
    for line in lines {
        match line.split_once(' ') {
            Some(("campaign", v)) => campaign = Some(v.to_string()),
            Some(("workers", v)) => workers = v.parse().ok(),
            Some(("request", v)) => request = Some(v.to_string()),
            _ => {}
        }
    }
    Some((campaign?, workers?, request))
}

fn read_manifest(vfs: &dyn Vfs, dir: &Path) -> Result<(String, usize, Option<String>)> {
    let path = manifest_path(dir);
    // Lossy read so a bit-rotted manifest classifies as "bad manifest"
    // (recover quarantines the job dir) rather than an unreadable file.
    let text =
        vfs::read_lossy(vfs, &path).map_err(|e| GoofiError::io("reading manifest", &path, &e))?;
    decode_manifest(&text)
        .ok_or_else(|| GoofiError::Config(format!("bad manifest in {}", path.display())))
}

/// Renames the damaged job directory `<spool>/<id>` to
/// `<spool>/quarantined-<id>`, a name [`Scheduler::recover`] never
/// resumes, and returns that path.
pub(crate) fn quarantine_job_dir(vfs: &dyn Vfs, spool: &Path, id: &str) -> Result<PathBuf> {
    let dir = spool.join(id);
    let aside = spool.join(format!("quarantined-{id}"));
    vfs.rename(&dir, &aside)
        .map_err(|e| GoofiError::io("quarantining job dir", &dir, &e))?;
    Ok(aside)
}

/// Job ids (directory names) present in the spool directory, sorted.
/// `quarantined-*` directories (fsck/recover damage quarantine) never
/// match the `job-` prefix, so they are skipped forever.
fn spooled_job_ids(vfs: &dyn Vfs, spool: &Path) -> Result<Vec<String>> {
    let mut ids = Vec::new();
    let entries = match vfs.read_dir(spool) {
        Ok(entries) => entries,
        Err(_) => return Ok(ids),
    };
    for entry in entries {
        let Some(name) = entry.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("job-") && vfs.exists(&manifest_path(&entry)) {
            ids.push(name.to_string());
        }
    }
    ids.sort();
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrips() {
        let dir = std::env::temp_dir().join(format!("goofi-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fs = crate::vfs::RealFs;
        write_manifest(&fs, &dir, "c one", 3, None).unwrap();
        assert_eq!(
            read_manifest(&fs, &dir).unwrap(),
            ("c one".to_string(), 3, None)
        );
        write_manifest(&fs, &dir, "c one", 3, Some("req-1-ab")).unwrap();
        assert_eq!(
            read_manifest(&fs, &dir).unwrap(),
            ("c one".to_string(), 3, Some("req-1-ab".to_string()))
        );
        assert!(!dir.join("manifest.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn job_history_sequences_and_dedups_updates() {
        let shared = Arc::new(JobShared::new());
        let watcher = JobWatcher {
            shared: Arc::clone(&shared),
        };
        assert_eq!(watcher.snapshot().0, 0);
        shared.set(|p| p.state = JobState::Running);
        shared.set(|p| p.state = JobState::Running); // no-op: no new seq
        shared.set(|p| p.completed = 2);
        let (seq, current) = watcher.snapshot();
        assert_eq!(seq, 2);
        assert_eq!(current.completed, 2);
        let all = watcher.since(0);
        assert_eq!(
            all.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2],
            "history replays every real update in order"
        );
        assert_eq!(watcher.since(1).len(), 1);
        assert!(watcher.since(2).is_empty());
        let (seq, _) = watcher.wait_newer(1, Duration::from_millis(10));
        assert_eq!(seq, 2);
    }

    /// A three-experiment campaign named `poison`.
    fn poison_campaign() -> Campaign {
        use crate::campaign::WorkloadImage;
        use crate::fault::{FaultLocation, FaultSpec};
        let fault = FaultSpec::single(
            FaultLocation::Memory { addr: 0, bit: 0 },
            crate::trigger::Trigger::AfterInstructions(1),
        );
        Campaign::builder("poison")
            .workload(WorkloadImage {
                name: "wl".into(),
                words: vec![1],
                code_words: 1,
                entry: 0,
            })
            .faults(vec![fault; 3])
            .build()
            .unwrap()
    }

    #[test]
    fn poison_stubs_survive_a_power_cut_right_after_poison_shard() {
        use crate::vfs::{FaultFs, FaultKind, FaultPlan};
        let dir = std::env::temp_dir().join(format!("goofi-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let campaign = poison_campaign();
        let counting = FaultFs::counting();
        let (_, counted) =
            poison_shard(&counting, &campaign, &(0..3), &dir.join("count.gjl")).unwrap();
        // The power fails at the first operation after the stubs went in.
        let cut = FaultFs::new(FaultPlan {
            at: counting.ops() + 1,
            kind: FaultKind::PowerCut,
            seed: 0,
        });
        let journal = dir.join("shard-0.gjl");
        let (stubs, returned) = poison_shard(&cut, &campaign, &(0..3), &journal).unwrap();
        assert_eq!(stubs, 6);
        assert!(cut.create(&dir.join("after")).is_err());
        let state = ExperimentJournal::load(&journal, "poison").unwrap();
        assert_eq!(state.quarantined.len(), 6);
        // The returned state is what the merge imports: the reload's.
        assert_eq!(returned.quarantined, state.quarantined);
        assert_eq!(returned.failed, state.failed);
        assert_eq!(counted.quarantined, state.quarantined);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poison_stubs_after_a_torn_tail_are_all_visible_to_a_reload() {
        use std::io::Write;
        let dir = std::env::temp_dir().join(format!("goofi-poison-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("shard-0.gjl");
        ExperimentJournal::create(&journal, "poison").unwrap();
        // A worker killed mid-append left half an entry, without a newline.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        file.write_all(b"R\t0\tpoison/exp0").unwrap();
        drop(file);
        let (stubs, _) =
            poison_shard(&crate::vfs::RealFs, &poison_campaign(), &(0..3), &journal).unwrap();
        assert_eq!(stubs, 6);
        let state = ExperimentJournal::load(&journal, "poison").unwrap();
        assert_eq!(state.quarantined.len(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_shard_journal_of_another_campaign_is_quarantined() {
        let dir = std::env::temp_dir().join(format!("goofi-shard-other-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("shard-0.gjl");
        ExperimentJournal::create(&journal, "other").unwrap();
        let complete =
            shard_journal_complete(&crate::vfs::RealFs, &journal, "poison", &(0..3)).unwrap();
        assert!(complete.is_none());
        assert!(!journal.exists());
        assert!(dir.join("shard-0.gjl.corrupt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn job_state_encodes() {
        assert_eq!(JobState::Running.encode(), "running");
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(!JobState::Queued.is_terminal());
    }
}
