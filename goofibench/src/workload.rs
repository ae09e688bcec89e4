//! The four workloads: set-up, the slow-path oracle, and the closed
//! campaign loop that produces the end-to-end and per-layer metrics.
//!
//! | workload | drive | stresses |
//! |---|---|---|
//! | `thor-scifi-uniform` | serial `goofi run` path, 4 Thor programs | post-injection suffix interpretation |
//! | `thor-scifi-deep-x2` | in-process runner, 2 workers, late triggers | snapshot fast-forward, per-experiment fixed costs |
//! | `riscv-scifi-journaled` | `goofi run --journal` path on RV32I | journal fsyncs, database store/save, the second CPU |
//! | `thor-service-x2` | `serve` + one client, 2 shard processes | spawn, shard journals, merge, wire |
//!
//! Campaign `k` of a workload samples its faults with seed `S + k`; the
//! code under test receives only the built campaigns. Every workload is a
//! closed loop: campaign (or job) `k + 1` starts when `k` has finished,
//! whole rounds (one campaign per program) at a time, until the requested
//! seconds have passed. The campaign pool repeats when a run outlasts it,
//! and a repeated campaign must reproduce its first records exactly.

use crate::json::Json;
use crate::probe::{
    CountingNet, Ledger, Op, Span, Tallies, Tally, TimedTarget, TimedVfs, HIST_BUCKETS, OPS,
};
use crate::stats;
use envsim::{Environment, NullEnvironment};
use goofi_core::algorithms::{self, CampaignResult};
use goofi_core::campaign::{Campaign, CampaignBuilder, TargetSystemData};
use goofi_core::dbio;
use goofi_core::fault::{FaultLocation, FaultSpec};
use goofi_core::journal::ExperimentJournal;
use goofi_core::logging::ExperimentRecord;
use goofi_core::monitor::ProgressMonitor;
use goofi_core::runner;
use goofi_core::service::{
    self, Client, RealNet, Request, Response, Scheduler, ServiceConfig, Transport, WorkerArgs,
    WorkerCommand,
};
use goofi_core::trigger::Trigger;
use goofi_core::vfs::{RealFs, Vfs};
use goofi_core::TargetAccess;
use goofi_riscv::RiscvTarget;
use goofi_thor::ThorTarget;
use goofidb::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, in the order a no-argument run executes them.
pub const NAMES: [&str; 4] = [
    "thor-scifi-uniform",
    "thor-scifi-deep-x2",
    "riscv-scifi-journaled",
    "thor-service-x2",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Experiments of the first campaign checked against the slow path.
const ORACLE_EXPERIMENTS: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cpu {
    Thor,
    Riscv,
}

#[derive(Debug, Clone, Copy)]
enum Window {
    /// Triggers uniform over the whole reference run.
    Uniform,
    /// Triggers in the last tenth of the reference run.
    LastTenth,
}

#[derive(Debug, Clone, Copy)]
enum Drive {
    /// `algorithms::run_campaign_journaled_opts`, no journal: `goofi run`.
    Serial,
    /// `runner::run_campaign_parallel_journaled_opts` with this many
    /// worker threads.
    Parallel(usize),
    /// Journal, serial run, `dbio::store_result`, `dbio::save_database`:
    /// `goofi run --journal`.
    Journaled,
    /// `serve` in-process, one client submitting jobs of this many shards.
    Service(usize),
}

impl Drive {
    fn workers(self) -> usize {
        match self {
            Drive::Serial | Drive::Journaled => 1,
            Drive::Parallel(n) | Drive::Service(n) => n,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Shape {
    cpu: Cpu,
    programs: &'static [&'static str],
    /// Pool size in rounds; the pool holds `rounds × programs` campaigns.
    rounds: usize,
    /// Faults per campaign.
    flips: usize,
    window: Window,
    drive: Drive,
}

impl Shape {
    fn named(name: &str, smoke: bool) -> Option<Shape> {
        let shape = match name {
            "thor-scifi-uniform" => Shape {
                cpu: Cpu::Thor,
                programs: &["bubblesort", "crc32", "matmul", "fibonacci"],
                rounds: 8,
                flips: 4_000,
                window: Window::Uniform,
                drive: Drive::Serial,
            },
            "thor-scifi-deep-x2" => Shape {
                cpu: Cpu::Thor,
                programs: &["fibonacci"],
                rounds: 16,
                flips: 20_000,
                window: Window::LastTenth,
                drive: Drive::Parallel(2),
            },
            "riscv-scifi-journaled" => Shape {
                cpu: Cpu::Riscv,
                programs: &["rv-fibonacci", "rv-memcpy"],
                rounds: 1,
                flips: 2_000,
                window: Window::Uniform,
                drive: Drive::Journaled,
            },
            "thor-service-x2" => Shape {
                cpu: Cpu::Thor,
                programs: &["fibonacci"],
                rounds: 1,
                flips: 5_000,
                window: Window::Uniform,
                drive: Drive::Service(2),
            },
            _ => return None,
        };
        Some(if smoke {
            Shape {
                rounds: 1,
                flips: 200,
                ..shape
            }
        } else {
            shape
        })
    }
}

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Base seed; campaign `k` samples with `seed + k`.
    pub seed: u64,
    /// Closed-loop measuring time; the loop stops at the first round
    /// boundary past it.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny campaigns and a single set-up, for a quick end-to-end check.
    pub smoke: bool,
    /// Scratch and output directory.
    pub out: PathBuf,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub name: &'static str,
    /// Every check passed.
    pub correct: bool,
    /// What failed, when something did.
    pub problems: Vec<String>,
    /// Experiments attempted in the measured loop.
    pub attempted: u64,
    /// Failed, quarantined or missing experiments among them.
    pub failed: u64,
    /// FNV-1a over the essence of every record of campaign 0 (reference
    /// first, then index order).
    pub records_fnv: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run) — exactly the set `BENCHMARK.json` lists.
    pub metrics: Vec<Metric>,
    /// Further numbers for `results.json` and the console.
    pub details: Vec<Metric>,
    /// Spans of the first traced campaign or job.
    pub spans: Vec<Span>,
    /// `(layer.op, log₂-ns histogram)` of every op the traced run timed.
    pub histograms: Vec<(String, [u64; HIST_BUCKETS])>,
}

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown name, or any set-up, campaign or service error — a
/// workload on which an operation fails is a broken benchmark.
pub fn run(name: &str, opts: &Options) -> Result<Outcome, String> {
    let (index, shape) = NAMES
        .iter()
        .position(|n| *n == name)
        .zip(Shape::named(name, opts.smoke))
        .ok_or_else(|| format!("unknown workload `{name}` (known: {})", NAMES.join(", ")))?;
    let name = NAMES[index];
    let dir = opts.out.join(name);

    let repeats = if opts.smoke { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut prepared: Option<Prepared> = None;
    for _ in 0..repeats {
        drop(prepared.take());
        empty_dir(&dir)?;
        let started = Instant::now();
        prepared = Some(Prepared::new(name, shape, opts.seed, &dir)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.ok_or("no set-up ran")?;

    // The oracle doubles as warm-up; it is outside every timed region.
    let oracle_n = if opts.smoke { 32 } else { ORACLE_EXPERIMENTS };
    let oracle = oracle_essence(shape.cpu, &prepared.pool[0], oracle_n)?;

    let ledger = opts.trace.then(Ledger::new);
    let mut runs = Runs::default();
    let programs = shape.programs.len();
    let started = Instant::now();
    let mut round = 0;
    loop {
        for j in 0..programs {
            let k = round * programs + j;
            match &ledger {
                None => {
                    let done = prepared.run(k, None, oracle_n)?;
                    runs.add(k, prepared.pool.len(), false, done);
                }
                // Traced runs pair every campaign with an untraced run of
                // the same campaign, alternating which goes first, so the
                // tracing overhead is measured on identical work.
                Some(ledger) => {
                    let traced_first = k % 2 == 1;
                    for traced in [traced_first, !traced_first] {
                        let done = prepared.run(k, traced.then_some(ledger), oracle_n)?;
                        runs.add(k, prepared.pool.len(), traced, done);
                    }
                }
            }
        }
        round += 1;
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    drop(prepared);

    runs.check_oracle(&oracle);
    let mut outcome = Outcome {
        name,
        correct: runs.problems.is_empty(),
        problems: runs.problems.clone(),
        attempted: runs.attempted,
        failed: runs.failed,
        records_fnv: runs.digests.get(&0).copied().unwrap_or(0),
        metrics: Vec::new(),
        details: vec![
            metric("rounds", round as f64, "count"),
            metric("campaigns", runs.walls.len() as f64, "count"),
            metric(
                "failed_frac",
                runs.failed as f64 / runs.attempted.max(1) as f64,
                "ratio",
            ),
        ],
        spans: Vec::new(),
        histograms: Vec::new(),
    };
    match &ledger {
        None => {
            let rss = stats::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
            outcome.metrics = vec![
                metric("exp_per_s", runs.exp_per_s(false), "exp/s"),
                metric("campaign_p50_s", runs.campaign_p50_s(programs), "s"),
                metric("setup_s", stats::median(&setup_s), "s"),
                metric("peak_rss_mb", rss, "MB"),
            ];
            if let Drive::Service(_) = shape.drive {
                let first: Vec<f64> = runs
                    .jobs(false)
                    .iter()
                    .map(|j| j.first_progress_s)
                    .collect();
                outcome
                    .details
                    .push(metric("first_result_s", stats::median(&first), "s"));
            }
        }
        Some(ledger) => {
            outcome.metrics = runs.layer_metrics(ledger, shape.drive);
            outcome.details.extend(runs.layer_details(ledger));
            outcome.spans = ledger.spans();
            outcome.histograms = OPS
                .into_iter()
                .zip(ledger.tallies())
                .filter(|(_, t)| t.count > 0)
                .map(|(op, t)| (op.key(), t.hist))
                .collect();
        }
    }
    Ok(outcome)
}

/// Empties `dir` of an earlier run's or set-up's files.
fn empty_dir(dir: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("clearing {}: {e}", dir.display());
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io)?;
    }
    std::fs::create_dir_all(dir).map_err(io)
}

/// A campaign builder for `program` on `cpu`, with the `goofi new` shape
/// the rest of the harness uses.
fn builder(cpu: Cpu, program: &str, name: &str) -> Result<CampaignBuilder, String> {
    let unknown = || format!("unknown {cpu:?} program `{program}`");
    Ok(match cpu {
        Cpu::Thor => bench::campaign_for(name, &workloads::by_name(program).ok_or_else(unknown)?),
        Cpu::Riscv => bench::riscv_campaign_for(
            name,
            &workloads::riscv_by_name(program).ok_or_else(unknown)?,
        ),
    })
}

fn description(cpu: Cpu) -> TargetSystemData {
    match cpu {
        Cpu::Thor => bench::thor_description(),
        Cpu::Riscv => bench::riscv_description(),
    }
}

/// The campaign pool: `rounds × programs` campaigns, campaign `k` sampled
/// with `seed + k`.
fn build_pool(name: &str, shape: Shape, seed: u64) -> Result<Vec<Campaign>, String> {
    let data = description(shape.cpu);
    let mut spaces = Vec::with_capacity(shape.programs.len());
    for program in shape.programs {
        let probe = builder(shape.cpu, program, &format!("{name}-probe"))?
            .fault(FaultSpec::single(
                FaultLocation::Memory { addr: 0, bit: 0 },
                Trigger::AfterInstructions(1),
            ))
            .build()
            .map_err(|e| e.to_string())?;
        let len = match shape.cpu {
            Cpu::Thor => bench::reference_length(&probe),
            Cpu::Riscv => bench::riscv_reference_length(&probe),
        };
        let window = match shape.window {
            Window::Uniform => 0..len,
            Window::LastTenth => len - len / 10..len,
        };
        spaces.push(match shape.cpu {
            Cpu::Thor => bench::full_scifi_space(&data, window),
            Cpu::Riscv => bench::internal_fault_space(&data, window),
        });
    }
    let mut pool = Vec::with_capacity(shape.rounds * shape.programs.len());
    for _ in 0..shape.rounds {
        for (program, space) in shape.programs.iter().zip(&spaces) {
            let k = pool.len();
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(k as u64));
            let campaign = builder(shape.cpu, program, &format!("{name}-{k:03}-{program}"))?
                .faults(space.sample_campaign(shape.flips, &mut rng))
                .build()
                .map_err(|e| e.to_string())?;
            pool.push(campaign);
        }
    }
    Ok(pool)
}

/// A campaign database holding the target description and every pool
/// campaign, saved to `path`.
fn create_db(cpu: Cpu, pool: &[Campaign], path: &Path) -> Result<Database, String> {
    let mut db = Database::new();
    dbio::init_schema(&mut db).map_err(|e| e.to_string())?;
    dbio::store_target_system(&mut db, &description(cpu)).map_err(|e| e.to_string())?;
    for campaign in pool {
        dbio::store_campaign(&mut db, campaign).map_err(|e| e.to_string())?;
    }
    dbio::save_database(&RealFs, path, &db).map_err(|e| e.to_string())?;
    Ok(db)
}

/// An in-process `serve` loop on a loopback port; stopped and joined on
/// drop (after which every worker process it spawned has been reaped).
struct Daemon {
    addr: String,
    spool: PathBuf,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<goofi_core::Result<()>>>,
}

impl Daemon {
    fn start(db_path: &Path, shards: usize) -> Result<Daemon, String> {
        let program =
            std::env::current_exe().map_err(|e| format!("locating goofibench executable: {e}"))?;
        let mut cfg = ServiceConfig::new(
            db_path,
            WorkerCommand {
                program,
                args: vec!["worker".to_string()],
            },
        );
        cfg.default_workers = shards;
        let spool = cfg.spool_dir.clone();
        let scheduler = Arc::new(Scheduler::new(cfg).map_err(|e| e.to_string())?);
        let listener = RealNet
            .listen("127.0.0.1:0")
            .map_err(|e| format!("binding a loopback port: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || service::serve(listener, scheduler, stop))
        };
        Ok(Daemon {
            addr,
            spool,
            stop,
            thread: Some(thread),
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The state a workload's set-up leaves for its measured loop.
struct Prepared {
    // Declared first so it stops (and reaps its workers) before anything
    // else is dropped.
    daemon: Option<Daemon>,
    shape: Shape,
    pool: Vec<Campaign>,
    dir: PathBuf,
    db: Option<Database>,
    db_path: PathBuf,
}

impl Prepared {
    /// Sets `name` up in the empty directory `dir`.
    fn new(name: &str, shape: Shape, seed: u64, dir: &Path) -> Result<Prepared, String> {
        let pool = build_pool(name, shape, seed)?;
        let db_path = dir.join("campaigns.gdb");
        let (db, daemon) = match shape.drive {
            Drive::Serial | Drive::Parallel(_) => (None, None),
            Drive::Journaled => (Some(create_db(shape.cpu, &pool, &db_path)?), None),
            Drive::Service(shards) => {
                create_db(shape.cpu, &pool, &db_path)?;
                (None, Some(Daemon::start(&db_path, shards)?))
            }
        };
        Ok(Prepared {
            daemon,
            shape,
            pool,
            dir: dir.to_path_buf(),
            db,
            db_path,
        })
    }

    /// Runs campaign (or job) `k`, traced when `ledger` is given. Campaign
    /// 0 also returns the essence of its first `head` records.
    fn run(&mut self, k: usize, ledger: Option<&Arc<Ledger>>, head: usize) -> Result<Done, String> {
        let index = k % self.pool.len();
        let head = if k == 0 { Some(head) } else { None };
        // Spans cover the first traced campaign only.
        let spans = ledger.filter(|_| k == 0).map(|l| (l, l.begin_spans(k)));
        let done = match self.shape.drive {
            Drive::Service(shards) => self.run_job(index, shards, ledger, head),
            _ => self.run_in_process(index, ledger, head),
        };
        if let (Some((ledger, id)), Ok(done)) = (spans, &done) {
            ledger.end_spans(id, "campaign", done.started, done.started + done.wall);
        }
        done
    }

    fn run_in_process(
        &mut self,
        index: usize,
        ledger: Option<&Arc<Ledger>>,
        head: Option<usize>,
    ) -> Result<Done, String> {
        let cpu = self.shape.cpu;
        let drive = self.shape.drive;
        let campaign = &self.pool[index];
        let db = &mut self.db;
        let db_path = &self.db_path;
        let journal_path = self.dir.join(format!("{}.gjl", campaign.name));
        let monitor = ProgressMonitor::new(campaign.experiment_count());
        let started = Instant::now();
        let (result, first_result) =
            with_first_result(ledger.is_some(), &monitor, started, || match drive {
                Drive::Serial => {
                    let mut target = make_target(cpu, ledger);
                    algorithms::run_campaign_journaled_opts(
                        &mut target,
                        campaign,
                        &monitor,
                        &mut NullEnvironment,
                        None,
                        None,
                        true,
                    )
                    .map_err(|e| e.to_string())
                }
                Drive::Parallel(workers) => runner::run_campaign_parallel_journaled_opts(
                    || make_target(cpu, ledger),
                    None::<fn() -> Box<dyn Environment>>,
                    campaign,
                    &monitor,
                    workers,
                    None,
                    true,
                )
                .map_err(|e| e.to_string()),
                Drive::Journaled => {
                    let db = db.as_mut().ok_or("journaled workload without a database")?;
                    run_journaled(cpu, campaign, &monitor, ledger, &journal_path, db, db_path)
                }
                Drive::Service(_) => Err("service workloads run as jobs".to_string()),
            });
        let wall = started.elapsed();
        let result = result?;
        let expected = campaign.experiment_count() as u64;
        let completed = result.records.len() as u64;
        let records: Vec<&ExperimentRecord> = std::iter::once(&result.reference)
            .chain(&result.records)
            .collect();
        Ok(Done {
            started,
            wall,
            experiments: completed,
            expected,
            failed: expected.saturating_sub(completed)
                + (result.failures.len() + result.quarantined.len()) as u64,
            digest: Some(digest(&records)),
            head: head.map(|n| records.iter().take(n + 1).map(|r| essence(r)).collect()),
            first_result,
            job: None,
        })
    }

    fn run_job(
        &mut self,
        index: usize,
        shards: usize,
        ledger: Option<&Arc<Ledger>>,
        head: Option<usize>,
    ) -> Result<Done, String> {
        let daemon = self
            .daemon
            .as_ref()
            .ok_or("service workload without a daemon")?;
        let campaign = &self.pool[index];
        let marker = trace_marker(&self.db_path);
        if ledger.is_some() {
            std::fs::write(&marker, b"").map_err(|e| format!("{}: {e}", marker.display()))?;
        }
        let counting = CountingNet::new(RealNet);
        let transport: &dyn Transport = if ledger.is_some() {
            &counting
        } else {
            &RealNet
        };

        let started = Instant::now();
        let watched = watch_job(transport, &daemon.addr, &campaign.name, shards);
        let wall = started.elapsed();
        if ledger.is_some() {
            std::fs::remove_file(&marker).map_err(|e| format!("{}: {e}", marker.display()))?;
        }
        let watched = watched?;

        let expected = campaign.experiment_count() as u64;
        let done_ok = watched.state == "done" && watched.shards_poisoned == 0;
        let mut job = JobTimes {
            submit_s: (watched.accepted - started).as_secs_f64(),
            first_progress_s: watched
                .first
                .map_or(wall.as_secs_f64(), |t| (t - started).as_secs_f64()),
            drain_s: (watched.done - watched.last_change).as_secs_f64(),
            ..JobTimes::default()
        };
        if let Some(ledger) = ledger {
            job.frames_in = counting.counts().frames_in.load(Ordering::Relaxed);
            job.bytes_in = counting.counts().bytes_in.load(Ordering::Relaxed);
            let job_dir = daemon.spool.join(&watched.job);
            for shard in 0..shards {
                let path = job_dir.join(format!("shard-{shard}.gjl.layers"));
                let layers = read_layers(&path)?;
                ledger.merge_tallies(&layers.tallies);
                job.worker_spawns += 1;
                job.worker_start_s += layers.start_s;
                job.worker_wall_s += layers.wall_s;
            }
            if let Some(first) = watched.first {
                ledger.record_span("service", "submit", started, watched.accepted);
                ledger.record_span("service", "first_progress", watched.accepted, first);
            }
            ledger.record_span("service", "drain", watched.last_change, watched.done);
        }

        // The merged database is the job's result: read it back (outside
        // the timed region) for the digest and the oracle comparison.
        let (digest, head) = match head {
            Some(n) => {
                let db = dbio::load_database(&RealFs, &self.db_path).map_err(|e| e.to_string())?;
                let records =
                    dbio::load_experiments(&db, &campaign.name).map_err(|e| e.to_string())?;
                let refs: Vec<&ExperimentRecord> = records.iter().collect();
                let head = refs.iter().take(n + 1).map(|r| essence(r)).collect();
                (Some(digest(&refs)), Some(head))
            }
            None => (None, None),
        };
        Ok(Done {
            started,
            wall,
            experiments: watched.completed,
            expected,
            failed: expected.saturating_sub(watched.completed)
                + watched.failed
                + watched.quarantined
                + u64::from(!done_ok),
            digest,
            head,
            first_result: watched.first.map(|t| t - started),
            job: Some(job),
        })
    }
}

/// One campaign through the `goofi run --journal` sequence: fresh
/// journal, serial run, store, save.
fn run_journaled(
    cpu: Cpu,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    ledger: Option<&Arc<Ledger>>,
    journal_path: &Path,
    db: &mut Database,
    db_path: &Path,
) -> Result<CampaignResult, String> {
    let timed_vfs = ledger.map(|l| TimedVfs::new(RealFs, l));
    let vfs: &dyn Vfs = match &timed_vfs {
        Some(v) => v,
        None => &RealFs,
    };
    let mut journal = ExperimentJournal::create_with(vfs, journal_path, &campaign.name)
        .map_err(|e| e.to_string())?;
    let mut target = make_target(cpu, ledger);
    let result = algorithms::run_campaign_journaled_opts(
        &mut target,
        campaign,
        monitor,
        &mut NullEnvironment,
        Some(&mut journal),
        None,
        true,
    )
    .map_err(|e| e.to_string())?;
    drop(journal);
    let t_store = Instant::now();
    dbio::store_result(db, &result).map_err(|e| e.to_string())?;
    let t_save = Instant::now();
    dbio::save_database(&RealFs, db_path, db).map_err(|e| e.to_string())?;
    if let Some(ledger) = ledger {
        let records = (result.records.len() + 1) as u64;
        ledger.record(Op::DbStore, t_store, t_save, records);
        let bytes = std::fs::metadata(db_path).map_or(0, |m| m.len());
        ledger.record(Op::DbSave, t_save, Instant::now(), bytes);
    }
    Ok(result)
}

fn make_target(cpu: Cpu, ledger: Option<&Arc<Ledger>>) -> Box<dyn TargetAccess> {
    match (cpu, ledger) {
        (Cpu::Thor, None) => Box::new(ThorTarget::default()),
        (Cpu::Thor, Some(l)) => Box::new(TimedTarget::new(ThorTarget::default(), l)),
        (Cpu::Riscv, None) => Box::new(RiscvTarget::default()),
        (Cpu::Riscv, Some(l)) => Box::new(TimedTarget::new(RiscvTarget::default(), l)),
    }
}

/// Runs `body`; when `enabled`, a watcher thread notes how long after
/// `started` the monitor first counted a completed experiment.
fn with_first_result<R>(
    enabled: bool,
    monitor: &ProgressMonitor,
    started: Instant,
    body: impl FnOnce() -> R,
) -> (R, Option<Duration>) {
    if !enabled {
        return (body(), None);
    }
    let finished = AtomicBool::new(false);
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut last = monitor.snapshot();
            loop {
                if last.completed > 0 {
                    return Some(started.elapsed());
                }
                if finished.load(Ordering::Acquire) {
                    return None;
                }
                last = monitor.wait_for_change(&last, Duration::from_millis(20));
            }
        });
        let result = body();
        finished.store(true, Ordering::Release);
        (result, watcher.join().ok().flatten())
    })
}

/// The slow-path oracle: campaign `campaign` cut to its first `n` faults,
/// run serially with snapshots off. Returns the essence of the reference
/// and every record.
fn oracle_essence(cpu: Cpu, campaign: &Campaign, n: usize) -> Result<Vec<String>, String> {
    let mut cut = campaign.clone();
    cut.faults.truncate(n);
    let mut target = make_target(cpu, None);
    let result = algorithms::run_campaign_journaled_opts(
        &mut target,
        &cut,
        &ProgressMonitor::new(cut.experiment_count()),
        &mut NullEnvironment,
        None,
        None,
        false,
    )
    .map_err(|e| format!("oracle run: {e}"))?;
    Ok(std::iter::once(&result.reference)
        .chain(&result.records)
        .map(essence)
        .collect())
}

/// What a record must reproduce across execution modes: name, fault,
/// termination, final state and validity.
fn essence(record: &ExperimentRecord) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}",
        record.name,
        record
            .fault
            .as_ref()
            .map_or_else(String::new, FaultSpec::encode),
        record.termination.encode(),
        record.state.encode(),
        record.validity.encode(),
    )
}

fn digest(records: &[&ExperimentRecord]) -> u64 {
    records.iter().fold(stats::FNV_OFFSET, |hash, record| {
        stats::fnv1a(stats::fnv1a(hash, essence(record).as_bytes()), b"\n")
    })
}

/// The marker whose presence tells spawned workers to time their target
/// and write a layers file: `<db>.trace`.
fn trace_marker(db: &Path) -> PathBuf {
    let mut path = db.as_os_str().to_owned();
    path.push(".trace");
    PathBuf::from(path)
}

/// What the client saw of one job.
struct Watched {
    job: String,
    state: String,
    completed: u64,
    failed: u64,
    quarantined: u64,
    shards_poisoned: u64,
    accepted: Instant,
    first: Option<Instant>,
    last_change: Instant,
    done: Instant,
}

/// Submits `campaign` with `shards` shards on one connection and watches
/// it to a terminal state.
fn watch_job(
    transport: &dyn Transport,
    addr: &str,
    campaign: &str,
    shards: usize,
) -> Result<Watched, String> {
    let mut client = Client::connect_via(transport, addr, 4).map_err(|e| e.to_string())?;
    client
        .send(&Request::Submit {
            id: service::new_request_id(),
            campaign: campaign.to_string(),
            workers: shards,
            watch: true,
            target: String::new(),
        })
        .map_err(|e| e.to_string())?;
    let job = match client.recv().map_err(|e| e.to_string())? {
        Some(Response::Accepted { job }) => job,
        other => {
            return Err(format!(
                "submitting `{campaign}`: daemon answered {other:?}"
            ))
        }
    };
    let accepted = Instant::now();
    let mut first = None;
    let mut last_change = accepted;
    let mut last_completed = 0;
    loop {
        match client.recv().map_err(|e| e.to_string())? {
            Some(Response::Progress {
                state,
                completed,
                failed,
                quarantined,
                shards_poisoned,
                ..
            }) => {
                let now = Instant::now();
                if completed != last_completed {
                    last_completed = completed;
                    last_change = now;
                }
                if first.is_none() && completed >= 1 {
                    first = Some(now);
                }
                if state == "done" || state == "failed" {
                    return Ok(Watched {
                        job,
                        state,
                        completed,
                        failed,
                        quarantined,
                        shards_poisoned,
                        accepted,
                        first,
                        last_change,
                        done: now,
                    });
                }
            }
            other => return Err(format!("watching {job}: daemon sent {other:?}")),
        }
    }
}

/// One finished campaign or job.
struct Done {
    started: Instant,
    wall: Duration,
    experiments: u64,
    expected: u64,
    failed: u64,
    digest: Option<u64>,
    head: Option<Vec<String>>,
    first_result: Option<Duration>,
    job: Option<JobTimes>,
}

/// Client- and worker-side phase times of one service job.
#[derive(Default)]
struct JobTimes {
    submit_s: f64,
    first_progress_s: f64,
    drain_s: f64,
    frames_in: u64,
    bytes_in: u64,
    worker_spawns: u64,
    worker_start_s: f64,
    worker_wall_s: f64,
}

/// Accumulates the loop's campaigns and checks each one.
#[derive(Default)]
struct Runs {
    /// `(traced, seconds)` of every campaign, in run order.
    walls: Vec<(bool, f64)>,
    experiments: [u64; 2],
    attempted: u64,
    failed: u64,
    /// Records digest per pool index.
    digests: BTreeMap<usize, u64>,
    head: Option<Vec<String>>,
    first_results: Vec<f64>,
    /// `(traced, times)` of every service job.
    jobs: Vec<(bool, JobTimes)>,
    problems: Vec<String>,
}

impl Runs {
    fn add(&mut self, k: usize, pool: usize, traced: bool, done: Done) {
        self.walls.push((traced, done.wall.as_secs_f64()));
        self.experiments[usize::from(traced)] += done.experiments;
        self.attempted += done.expected;
        self.failed += done.failed;
        if done.failed > 0 {
            self.problems.push(format!(
                "campaign {k}: {} of {} experiments failed, quarantined or missing",
                done.failed, done.expected
            ));
        }
        if let Some(digest) = done.digest {
            let first = *self.digests.entry(k % pool).or_insert(digest);
            if first != digest {
                self.problems.push(format!(
                    "campaign {k}{}: records differ from an earlier run of the same campaign",
                    if traced { " (traced)" } else { "" }
                ));
            }
        }
        if self.head.is_none() {
            self.head = done.head;
        }
        if traced {
            if let Some(first) = done.first_result {
                self.first_results.push(first.as_secs_f64());
            }
        }
        if let Some(job) = done.job {
            self.jobs.push((traced, job));
        }
    }

    fn jobs(&self, traced: bool) -> Vec<&JobTimes> {
        self.jobs
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, job)| job)
            .collect()
    }

    fn check_oracle(&mut self, oracle: &[String]) {
        let Some(head) = &self.head else {
            self.problems.push("campaign 0 never ran".into());
            return;
        };
        if head.len() != oracle.len() {
            self.problems.push(format!(
                "campaign 0 has {} leading records, the oracle {}",
                head.len(),
                oracle.len()
            ));
        }
        if let Some(i) = head.iter().zip(oracle).position(|(a, b)| a != b) {
            self.problems.push(format!(
                "campaign 0 record {i} differs from the slow-path oracle:\n  fast: {}\n  slow: {}",
                head[i], oracle[i]
            ));
        }
    }

    fn wall(&self, traced: bool) -> f64 {
        self.walls
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, w)| w)
            .sum()
    }

    fn exp_per_s(&self, traced: bool) -> f64 {
        self.experiments[usize::from(traced)] as f64 / self.wall(traced)
    }

    /// Median over rounds of the mean campaign wall in the round: a round
    /// holds one campaign per program, so this is stable where a median
    /// over campaigns of unequal programs would jump between programs.
    fn campaign_p50_s(&self, programs: usize) -> f64 {
        let walls: Vec<f64> = self
            .walls
            .iter()
            .filter(|(traced, _)| !traced)
            .map(|(_, w)| *w)
            .collect();
        let rounds: Vec<f64> = walls
            .chunks(programs)
            .map(|round| round.iter().sum::<f64>() / round.len() as f64)
            .collect();
        stats::median(&rounds)
    }

    fn layer_metrics(&self, ledger: &Ledger, drive: Drive) -> Vec<Metric> {
        let t = ledger.tallies();
        let sum = |ops: &[Op], f: fn(&Tally) -> u64| -> f64 {
            ops.iter().map(|op| f(&t[*op as usize])).sum::<u64>() as f64
        };
        let busy = |ops: &[Op]| sum(ops, |t| t.busy_ns) / 1e9;
        let exps = self.experiments[1].max(1) as f64;
        let wall = self.wall(true);
        let workers = drive.workers() as f64;
        const CPU: &[Op] = &[Op::RunToTrigger, Op::Run, Op::Step];
        const SCAN: &[Op] = &[Op::ScanRead, Op::ScanWrite];
        const TARGET: &[Op] = &[
            Op::RunToTrigger,
            Op::Run,
            Op::Step,
            Op::ScanRead,
            Op::ScanWrite,
            Op::Restore,
            Op::Snapshot,
            Op::Digest,
            Op::Load,
            Op::PortOther,
        ];
        const JOURNAL: &[Op] = &[Op::JournalCreate, Op::JournalWrite, Op::JournalSync];
        const DB: &[Op] = &[Op::DbStore, Op::DbSave];
        let instr = sum(CPU, |t| t.units);
        let bits = sum(SCAN, |t| t.units);
        let per_exp_us = |seconds: f64| seconds * 1e6 / exps;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        let traced_jobs = self.jobs(true);
        let jobs = traced_jobs.len().max(1) as f64;
        let job_sum = |f: fn(&JobTimes) -> f64| traced_jobs.iter().fold(0.0, |sum, j| sum + f(j));
        // Core self time: what the campaign call (or, for the service, the
        // worker processes) spent outside every measured layer.
        let all_busy = busy(&OPS);
        let core_s = match drive {
            Drive::Service(_) => job_sum(|j| j.worker_wall_s) - all_busy,
            _ => workers * wall - all_busy,
        };
        let overhead = (wall / self.wall(false) - 1.0) * 100.0;
        vec![
            metric("cpu.instr_per_exp", instr / exps, "count"),
            metric(
                "cpu.ff_instr_per_exp",
                sum(&[Op::RunToTrigger], |t| t.units) / exps,
                "count",
            ),
            metric(
                "cpu.suffix_instr_per_exp",
                sum(&[Op::Run, Op::Step], |t| t.units) / exps,
                "count",
            ),
            metric(
                "cpu.run_calls_per_exp",
                sum(&[Op::RunToTrigger, Op::Run], |t| t.count) / exps,
                "count",
            ),
            metric("cpu.ns_per_instr", ratio(busy(CPU) * 1e9, instr), "ns"),
            metric("cpu.us_per_exp", per_exp_us(busy(CPU)), "us"),
            metric("scan.bits_per_exp", bits / exps, "count"),
            metric("scan.ns_per_bit", ratio(busy(SCAN) * 1e9, bits), "ns"),
            metric("scan.us_per_exp", per_exp_us(busy(SCAN)), "us"),
            metric(
                "port.restores_per_exp",
                sum(&[Op::Restore], |t| t.count) / exps,
                "count",
            ),
            metric(
                "port.snapshots_per_exp",
                sum(&[Op::Snapshot], |t| t.count) / exps,
                "count",
            ),
            metric(
                "port.restore_us_per_exp",
                per_exp_us(busy(&[Op::Restore])),
                "us",
            ),
            metric(
                "port.digest_us_per_exp",
                per_exp_us(busy(&[Op::Digest])),
                "us",
            ),
            metric("port.load_us_per_exp", per_exp_us(busy(&[Op::Load])), "us"),
            metric(
                "port.other_us_per_exp",
                per_exp_us(busy(&[Op::Snapshot, Op::PortOther])),
                "us",
            ),
            metric("core.self_us_per_exp", per_exp_us(core_s), "us"),
            metric(
                "runner.busy_frac",
                ratio(busy(TARGET), workers * wall),
                "ratio",
            ),
            metric(
                "journal.fsyncs_per_exp",
                sum(&[Op::JournalSync], |t| t.count) / exps,
                "count",
            ),
            metric(
                "journal.bytes_per_exp",
                sum(&[Op::JournalWrite], |t| t.units) / exps,
                "bytes",
            ),
            metric("journal.busy_frac", ratio(busy(JOURNAL), wall), "ratio"),
            metric("db.busy_frac", ratio(busy(DB), wall), "ratio"),
            metric(
                "db.save_bytes_per_exp",
                sum(&[Op::DbSave], |t| t.units) / exps,
                "bytes",
            ),
            metric(
                "service.submit_frac",
                ratio(job_sum(|j| j.submit_s), wall),
                "ratio",
            ),
            metric(
                "service.worker_start_frac",
                ratio(job_sum(|j| j.worker_start_s) / workers, wall),
                "ratio",
            ),
            metric(
                "service.drain_frac",
                ratio(job_sum(|j| j.drain_s), wall),
                "ratio",
            ),
            metric(
                "service.worker_spawns_per_job",
                job_sum(|j| j.worker_spawns as f64) / jobs,
                "count",
            ),
            metric(
                "wire.frames_in_per_job",
                job_sum(|j| j.frames_in as f64) / jobs,
                "count",
            ),
            metric(
                "wire.bytes_in_per_job",
                job_sum(|j| j.bytes_in as f64) / jobs,
                "bytes",
            ),
            metric(
                "first_result_ms",
                stats::median(&self.first_results) * 1e3,
                "ms",
            ),
            metric("trace_overhead_pct", overhead, "%"),
        ]
    }

    /// Raw per-op totals and absolute phase times of the traced run.
    fn layer_details(&self, ledger: &Ledger) -> Vec<Metric> {
        let mut out = Vec::new();
        for (op, tally) in OPS.into_iter().zip(ledger.tallies()) {
            if tally.count == 0 {
                continue;
            }
            let key = op.key();
            out.push(metric(format!("{key}.calls"), tally.count as f64, "count"));
            out.push(metric(
                format!("{key}.busy_s"),
                tally.busy_ns as f64 / 1e9,
                "s",
            ));
            if let Some(unit) = op.unit() {
                out.push(metric(format!("{key}.units"), tally.units as f64, unit));
            }
        }
        let mut fsync = ledger.fsync_ns();
        if !fsync.is_empty() {
            fsync.sort_unstable();
            let us = |q| stats::percentile(&fsync, q) as f64 / 1e3;
            out.push(metric("journal.fsync_p50_us", us(0.5), "us"));
            out.push(metric("journal.fsync_p99_us", us(0.99), "us"));
        }
        let jobs = self.jobs(true);
        if !jobs.is_empty() {
            let med = |f: fn(&JobTimes) -> f64| {
                stats::median(&jobs.iter().map(|j| f(j)).collect::<Vec<_>>())
            };
            out.push(metric("service.submit_ms", med(|j| j.submit_s) * 1e3, "ms"));
            out.push(metric(
                "service.first_progress_s",
                med(|j| j.first_progress_s),
                "s",
            ));
            out.push(metric("service.drain_s", med(|j| j.drain_s), "s"));
            out.push(metric(
                "service.worker_start_s",
                med(|j| j.worker_start_s / j.worker_spawns.max(1) as f64),
                "s",
            ));
        }
        out.push(metric("traced_exp_per_s", self.exp_per_s(true), "exp/s"));
        out.push(metric("untraced_exp_per_s", self.exp_per_s(false), "exp/s"));
        out
    }
}

/// What a traced worker reports about itself.
struct Layers {
    tallies: Tallies,
    /// Worker `main` to its first target call.
    start_s: f64,
    /// Worker `main` to exit.
    wall_s: f64,
}

fn read_layers(path: &Path) -> Result<Layers, String> {
    let bad = |what: &str| format!("{}: {what}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| bad(&e.to_string()))?;
    let json = Json::parse(&text).map_err(|e| bad(&e))?;
    let number = |key: &str| json.get(key).and_then(Json::as_f64).ok_or_else(|| bad(key));
    let mut tallies = [Tally::default(); OPS.len()];
    for (name, value) in json
        .get("ops")
        .and_then(Json::as_object)
        .ok_or_else(|| bad("ops"))?
    {
        let op = Op::from_name(name).ok_or_else(|| bad(name))?;
        let fields: Vec<u64> = value
            .as_array()
            .ok_or_else(|| bad(name))?
            .iter()
            .map(|v| v.as_f64().map(|f| f as u64))
            .collect::<Option<_>>()
            .ok_or_else(|| bad(name))?;
        // `[count, busy_ns, units, histogram buckets…]`
        let [count, busy_ns, units, ref buckets @ ..] = fields[..] else {
            return Err(bad(name));
        };
        let hist = buckets.try_into().map_err(|_| bad(name))?;
        tallies[op as usize] = Tally {
            count,
            busy_ns,
            units,
            hist,
        };
    }
    Ok(Layers {
        tallies,
        start_s: number("start_ns")? / 1e9,
        wall_s: number("wall_ns")? / 1e9,
    })
}

/// The `worker` mode of the benchmark binary: one service shard, exactly
/// as `goofi worker` runs it. When the daemon's database has a trace
/// marker beside it, the target is wrapped in a [`TimedTarget`] and the
/// worker writes `<shard journal>.layers` before exiting.
///
/// # Errors
///
/// Bad arguments or any shard error; the caller exits non-zero so the
/// daemon counts the lease as failed.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let started = Instant::now();
    let args = WorkerArgs::parse(args).map_err(|e| e.to_string())?;
    let cpu = match args.target.as_deref() {
        None | Some("thor-rd") => Cpu::Thor,
        Some("rv32i") => Cpu::Riscv,
        Some(other) => return Err(format!("worker: unknown target system `{other}`")),
    };
    if !trace_marker(&args.db).exists() {
        return match cpu {
            Cpu::Thor => service::run_worker(&args, ThorTarget::default),
            Cpu::Riscv => service::run_worker(&args, RiscvTarget::default),
        }
        .map_err(|e| e.to_string());
    }
    let ledger = Ledger::new();
    match cpu {
        Cpu::Thor => {
            service::run_worker(&args, || TimedTarget::new(ThorTarget::default(), &ledger))
        }
        Cpu::Riscv => {
            service::run_worker(&args, || TimedTarget::new(RiscvTarget::default(), &ledger))
        }
    }
    .map_err(|e| e.to_string())?;
    let tallies = ledger.tallies();
    let mut ops = Json::obj();
    for op in OPS {
        let t = &tallies[op as usize];
        let fields = [t.count, t.busy_ns, t.units].into_iter().chain(t.hist);
        ops.push(op.name(), fields.map(Json::from).collect::<Vec<_>>());
    }
    let start_ns = ledger
        .first_call()
        .map_or(0, |first| (first - started).as_nanos() as u64);
    let layers = Json::obj()
        .with("start_ns", start_ns)
        .with("wall_ns", started.elapsed().as_nanos() as u64)
        .with("ops", ops);
    let mut path = args.journal.into_os_string();
    path.push(".layers");
    std::fs::write(&path, layers.encode()).map_err(|e| format!("writing layers file: {e}"))
}
