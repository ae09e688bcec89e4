//! `goofi` — the command-line front end of the tool.
//!
//! The original GOOFI drove campaigns from a Java Swing GUI (paper Figures
//! 5–7); this binary is the equivalent operator interface: it walks the
//! same four phases against a campaign database file.
//!
//! ```text
//! goofi targets                         # configuration phase: show the target system
//! goofi workloads                       # available workloads
//! goofi new <db> --name c1 --workload bubblesort --experiments 200
//!                                       # set-up phase: store campaign in <db>
//! goofi run <db> --name c1              # fault-injection phase
//! goofi report <db> --name c1           # analysis phase
//! goofi sql <db> "SELECT ..."           # ad-hoc analysis queries
//! ```

use goofi::analysis::{queries, report};
use goofi::core::algorithms;
use goofi::core::campaign::{Campaign, TargetSystemData, Technique, Termination};
use goofi::core::journal::ExperimentJournal;
use goofi::core::link::{UnreliableTarget, VerifiedTarget};
use goofi::core::logging::LoggingMode;
use goofi::core::monitor::ProgressMonitor;
use goofi::core::policy::{Backoff, ExperimentPolicy, WatchdogBudget};
use goofi::core::service::{
    self, ChaosConfig, FaultNet, NetFaultConfig, RealNet, Response, Scheduler, ServiceConfig,
    Transport, WorkerArgs, WorkerCommand,
};
use goofi::core::supervisor::WedgeableTarget;
use goofi::core::telemetry::{JsonlSink, MetricsSnapshot, RingSink, Stage, Telemetry, TraceSink};
use goofi::core::{dbio, runner};
use goofi::core::{GoofiError, TargetAccess};
use goofi::envsim::{DcMotor, Environment, JetEngine, NullEnvironment, WaterTank};
use goofi::goofidb::Database;
use goofi::scanchain::{LinkFaultConfig, WedgeConfig};
use goofi::targets::TargetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Signal plumbing: SIGINT/SIGTERM set a flag the long-running commands
/// poll, so an interrupted campaign stops through the normal error path —
/// journals are closed cleanly and the flight recorder is dumped — instead
/// of the process dying mid-write.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        INTERRUPTED.store(true, Ordering::Release);
    }

    /// Installs the SIGINT/SIGTERM handlers (no-op outside unix).
    pub fn install() {
        #[cfg(unix)]
        {
            extern "C" {
                fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            }
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            unsafe {
                signal(SIGINT, on_signal);
                signal(SIGTERM, on_signal);
            }
        }
    }

    /// Whether a SIGINT/SIGTERM has arrived.
    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::Acquire)
    }
}

/// Spawns a watcher that turns an incoming SIGINT/SIGTERM into a clean
/// campaign stop via [`ProgressMonitor::stop`]; the run then unwinds
/// through the regular error path (journal close + flight-recorder dump).
fn stop_on_signal(monitor: &ProgressMonitor) {
    let monitor = monitor.clone();
    std::thread::spawn(move || loop {
        if signals::interrupted() {
            monitor.stop();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
}

fn main() -> ExitCode {
    signals::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("goofi: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(());
    };
    match command.as_str() {
        "targets" => cmd_targets(),
        "workloads" => cmd_workloads(),
        "new" => cmd_new(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "resume" => cmd_resume(&args[1..]),
        "fsck" => cmd_fsck(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "worker" => cmd_worker(&args[1..]),
        "submit" => cmd_submit(&args[1..]),
        "report" => cmd_report(&args[1..]),
        "sql" => cmd_sql(&args[1..]),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `goofi help`)")),
    }
}

fn print_usage() {
    println!(
        "GOOFI - generic object-oriented fault injection tool\n\n\
         usage:\n  \
         goofi targets\n  \
         goofi workloads\n  \
         goofi new <db> --name <campaign> --workload <name> [--target thor|riscv]\n        \
            [--experiments N]\n        \
            [--seed S] [--technique scifi|swifi-pre|swifi-run|pin] [--time-window A:B]\n        \
            [--max-instr N] [--max-iterations N] [--detail] [--with-caches]\n        \
            [--on-error failfast|skip|retry-skip|retry-fail] [--retries N]\n        \
            [--backoff-ms A:B] [--watchdog-cycles N] [--watchdog-ms N]\n        \
            [--revalidate-every N] [--health-check-every N]\n  \
         goofi run <db> --name <campaign> [--target thor|riscv] [--workers N]\n        \
            [--env none|motor|tank|jet]\n        \
            [--journal <file>] [--link-faults <spec>] [--verify-reads]\n        \
            [--health-check-every N] [--wedge <spec>] [--trace <file>] [--metrics]\n        \
            [--no-snapshot]\n  \
         goofi resume <db> --name <campaign> --journal <file> [--target thor|riscv]\n        \
            [--workers N]\n        \
            [--env none|motor|tank|jet] [--link-faults <spec>] [--verify-reads]\n        \
            [--health-check-every N] [--wedge <spec>] [--trace <file>] [--metrics]\n  \
         goofi serve <db> [--addr HOST:PORT] [--workers N] [--lease-ms N]\n        \
            [--poison-after N] [--chaos <spec>] [--net-chaos <spec>]\n  \
         goofi submit <addr> --name <campaign> [--target thor|riscv] [--workers N] [--watch]\n  \
         goofi submit <addr> --job <id> --watch | --status | --shutdown\n  \
         goofi worker --db <db> --campaign <name> --shard K --range A:B --journal <file>\n        \
            [--attempt N] [--chaos <spec>] [--net-chaos <spec>]   (spawned by `goofi serve`)\n  \
         goofi fsck <db> [--name <campaign> --journal <file>] [--repair]\n  \
         goofi report <db> --name <campaign> [--timings <trace>] [--trace <file>]\n  \
         goofi sql <db> \"<SELECT ...>\"\n\n\
         drill specs: comma-separated key=value items, each key at most once, spaces\n\
         ignored; S is a seed, P a rate in [0, 1], N and K are counts (DESIGN.md §6)\n  \
         --link-faults seed=S[,corrupt=P][,drop=P][,dup=P][,stall=P][,disc=P][,skip=N][,max=N]\n  \
         --wedge       seed=S[,hang=P][,stuck=P][,garbage=P][,recover=soft|reinit|power|never][,max=N]\n  \
         --chaos       kill-after=N,seed=S[,kills=K][,mode=exit|stall]\n  \
         --net-chaos   drop|dup|reorder|delay|truncate|corrupt|reset|half-open|partition=P,...,seed=S\n                \
                       [,delay-ms=N]  or  at=N,kind=<one of those kinds>,seed=S"
    );
}

// The flags each command reads; `goofi run` reads `RESUME_FLAGS` and
// `--no-snapshot`. (`goofi worker` checks its own in `WorkerArgs::parse`.)
const NEW_FLAGS: &[&str] = &[
    "name",
    "workload",
    "target",
    "experiments",
    "seed",
    "technique",
    "time-window",
    "max-instr",
    "max-iterations",
    "detail",
    "with-caches",
    "on-error",
    "retries",
    "backoff-ms",
    "watchdog-cycles",
    "watchdog-ms",
    "revalidate-every",
    "health-check-every",
];
const RESUME_FLAGS: &[&str] = &[
    "name",
    "journal",
    "target",
    "workers",
    "env",
    "link-faults",
    "verify-reads",
    "health-check-every",
    "wedge",
    "trace",
    "metrics",
];
const SERVE_FLAGS: &[&str] = &[
    "addr",
    "workers",
    "lease-ms",
    "poison-after",
    "chaos",
    "net-chaos",
];
const SUBMIT_FLAGS: &[&str] = &[
    "name", "target", "workers", "watch", "job", "status", "shutdown",
];
const FSCK_FLAGS: &[&str] = &["name", "journal", "repair"];
const REPORT_FLAGS: &[&str] = &["name", "timings", "trace"];

/// Splits `goofi <command>`'s arguments into positional ones and
/// `--flag [value]` pairs. Flags not in `accepted` fail the command, all
/// named in one message, so a mistyped flag is never silently ignored.
fn parse_flags(
    command: &str,
    accepted: &[&str],
    args: &[String],
) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut unknown = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if !accepted.contains(&name) {
                unknown.push(format!("`{a}`"));
                i += 1;
                continue;
            }
            // Boolean flags have no value; detect by peeking.
            let boolean = matches!(
                name,
                "detail"
                    | "with-caches"
                    | "verify-reads"
                    | "metrics"
                    | "watch"
                    | "status"
                    | "shutdown"
                    | "repair"
                    | "no-snapshot"
            );
            if boolean {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), value.clone());
                i += 2;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    if !unknown.is_empty() {
        return Err(format!(
            "unknown flag{} {} for `goofi {command}` (try `goofi help`)",
            if unknown.len() == 1 { "" } else { "s" },
            unknown.join(", "),
        ));
    }
    Ok((positional, flags))
}

fn load_db(path: &str) -> Result<Database, String> {
    if !Path::new(path).exists() {
        let mut db = Database::new();
        dbio::init_schema(&mut db).map_err(|e| e.to_string())?;
        return Ok(db);
    }
    // Checksummed load; corruption points at `goofi fsck --repair`.
    dbio::load_database(&goofi::core::vfs::RealFs, path).map_err(|e| e.to_string())
}

fn save_db(path: &str, db: &Database) -> Result<(), String> {
    // Atomic: a crash mid-save never leaves a torn database file.
    dbio::save_database(&goofi::core::vfs::RealFs, path, db).map_err(|e| e.to_string())
}

/// Builds the campaign's resilience policy from command-line flags.
fn policy_from_flags(flags: &HashMap<String, String>) -> Result<ExperimentPolicy, String> {
    let mut policy = match flags.get("on-error").map(String::as_str) {
        None | Some("failfast") => ExperimentPolicy::fail_fast(),
        Some("skip") => ExperimentPolicy::skip_and_continue(),
        Some("retry-skip") => ExperimentPolicy::retry_then_skip(3),
        Some("retry-fail") => ExperimentPolicy::retry_then_fail(3),
        Some(other) => return Err(format!("unknown --on-error `{other}`")),
    };
    if let Some(v) = flags.get("retries") {
        policy.max_retries = v.parse().map_err(|_| "bad --retries")?;
    }
    if let Some(v) = flags.get("backoff-ms") {
        let (a, b) = v.split_once(':').ok_or("bad --backoff-ms, use A:B")?;
        policy = policy.with_backoff(Backoff::exponential(
            a.parse().map_err(|_| "bad --backoff-ms start")?,
            b.parse().map_err(|_| "bad --backoff-ms cap")?,
        ));
    }
    let mut watchdog = WatchdogBudget::default();
    if let Some(v) = flags.get("watchdog-cycles") {
        watchdog.max_cycles = Some(v.parse().map_err(|_| "bad --watchdog-cycles")?);
    }
    if let Some(v) = flags.get("watchdog-ms") {
        watchdog.max_wall_ms = Some(v.parse().map_err(|_| "bad --watchdog-ms")?);
    }
    if let Some(v) = flags.get("revalidate-every") {
        policy = policy.with_revalidation(v.parse().map_err(|_| "bad --revalidate-every")?);
    }
    if let Some(v) = flags.get("health-check-every") {
        policy = policy.with_health_check(v.parse().map_err(|_| "bad --health-check-every")?);
    }
    Ok(policy.with_watchdog(watchdog))
}

/// Parses an optional count that must be at least 1: `run`'s and
/// `resume`'s `--workers`, and `serve`'s `--workers`, `--lease-ms` and
/// `--poison-after`. A 0 is refused before anything is loaded, bound or
/// written.
fn positive_flag<N: std::str::FromStr + Default + PartialEq>(
    flags: &HashMap<String, String>,
    name: &str,
) -> Result<Option<N>, String> {
    match flags.get(name).map(|v| v.parse::<N>()) {
        None => Ok(None),
        Some(Ok(n)) if n == N::default() => Err(format!("`--{name}` must be at least 1")),
        Some(Ok(n)) => Ok(Some(n)),
        Some(Err(_)) => Err(format!("bad --{name}")),
    }
}

/// Builds the run's telemetry from the `--trace`/`--metrics` flags shared
/// by `run` and `resume`: disabled when neither is given; otherwise a
/// JSONL trace sink (when `--trace <file>` names one) plus an in-memory
/// flight recorder holding the last
/// [`goofi::core::telemetry::FLIGHT_RECORDER_SPANS`] spans for a crash dump.
fn telemetry_from_flags(flags: &HashMap<String, String>) -> Result<Telemetry, String> {
    let trace_path = flags.get("trace");
    if trace_path.is_none() && !flags.contains_key("metrics") {
        return Ok(Telemetry::disabled());
    }
    let mut sinks: Vec<Arc<dyn TraceSink>> = Vec::new();
    if let Some(path) = trace_path {
        let sink = JsonlSink::create(Path::new(path))
            .map_err(|e| format!("creating trace file {path}: {e}"))?;
        sinks.push(Arc::new(sink));
    }
    sinks.push(Arc::new(RingSink::new(
        goofi::core::telemetry::FLIGHT_RECORDER_SPANS,
    )));
    Ok(Telemetry::with_sinks(sinks))
}

/// Dumps the flight recorder next to the run's journal (falling back to the
/// trace file, then the database) after a fatal campaign error, and folds
/// the dump location into the error message.
fn dump_flight(
    tel: &Telemetry,
    flags: &HashMap<String, String>,
    db_path: &str,
    msg: String,
) -> String {
    if !tel.is_enabled() {
        return msg;
    }
    let base = flags
        .get("journal")
        .or_else(|| flags.get("trace"))
        .map_or(db_path, String::as_str);
    let path = format!("{base}.flight");
    match tel.dump_flight(Path::new(&path)) {
        Ok(n) if n > 0 => format!("{msg}\nflight recorder: last {n} span(s) dumped to {path}"),
        Ok(_) => msg,
        Err(e) => format!("{msg}\nflight recorder dump to {path} failed: {e}"),
    }
}

/// Parses the optional `--target` flag against the target registry.
fn target_flag(flags: &HashMap<String, String>) -> Result<Option<TargetKind>, String> {
    match flags.get("target") {
        Some(v) => TargetKind::parse(v)
            .map(Some)
            .ok_or_else(|| format!("unknown --target `{v}` (see `goofi targets`)")),
        None => Ok(None),
    }
}

/// Resolves the target system a loaded campaign runs on. The campaign's
/// stored `target_system` owns the choice; an explicit `--target` flag is
/// a cross-check that fails loudly on mismatch rather than an override,
/// since the fault list was sampled against one chain layout.
fn campaign_target(
    campaign: &Campaign,
    flags: &HashMap<String, String>,
) -> Result<TargetKind, String> {
    let stored = TargetKind::from_system_name(&campaign.target_system).ok_or_else(|| {
        format!(
            "campaign `{}` targets unknown system `{}`",
            campaign.name, campaign.target_system,
        )
    })?;
    if let Some(asked) = target_flag(flags)? {
        if asked != stored {
            return Err(format!(
                "campaign `{}` targets `{}`, not `{}`",
                campaign.name,
                stored.flag(),
                asked.flag(),
            ));
        }
    }
    Ok(stored)
}

/// Assembles the target decorator stack: an optional wedge-simulating
/// [`WedgeableTarget`] closest to the hardware, an optional fault-injecting
/// [`UnreliableTarget`] above it, and an optional [`VerifiedTarget`]
/// recovery layer on top. `worker` offsets the wedge and link-fault seeds
/// so parallel workers draw distinct (but still deterministic) streams.
fn decorate_target(
    kind: TargetKind,
    wedge: Option<WedgeConfig>,
    link: Option<LinkFaultConfig>,
    verify: bool,
    monitor: &ProgressMonitor,
    worker: u64,
) -> Box<dyn TargetAccess> {
    let base = kind.build();
    let wedged: Box<dyn TargetAccess> = match wedge {
        Some(mut cfg) => {
            cfg.seed = cfg.seed.wrapping_add(worker);
            Box::new(WedgeableTarget::new(base, cfg))
        }
        None => Box::new(base),
    };
    let inner: Box<dyn TargetAccess> = match link {
        Some(mut cfg) => {
            cfg.seed = cfg.seed.wrapping_add(worker);
            Box::new(UnreliableTarget::new(wedged, cfg))
        }
        None => wedged,
    };
    if verify {
        Box::new(VerifiedTarget::new(inner).with_monitor(monitor.clone()))
    } else {
        inner
    }
}

/// Stores whatever a failed campaign completed before erroring out, so an
/// aborted run never throws away finished experiments.
fn salvage_partial(db: &mut Database, db_path: &str, err: GoofiError) -> String {
    let (what, partial) = match err {
        GoofiError::ExperimentFailed { failure, partial } => (failure.to_string(), partial),
        GoofiError::TargetOffline { context, partial } => (
            format!("target offline: recovery ladder exhausted during {context}"),
            partial,
        ),
        other => return other.to_string(),
    };
    let salvaged = partial.records.len();
    let stored = dbio::store_result(db, &partial)
        .map_err(|e| e.to_string())
        .and_then(|()| save_db(db_path, db));
    match stored {
        Ok(()) => format!("{what}; salvaged {salvaged} completed record(s) to {db_path}"),
        Err(e) => format!("{what}; salvaging partial results also failed: {e}"),
    }
}

fn cmd_targets() -> Result<(), String> {
    for (i, kind) in TargetKind::ALL.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        let target = kind.build();
        let data = TargetSystemData::from_target(&*target, kind.description());
        println!(
            "target system: {} (--target {}): {}",
            data.name,
            kind.flag(),
            kind.description(),
        );
        println!("memory: {} words", data.memory_words);
        let mut per_chain: HashMap<&str, (usize, usize)> = HashMap::new();
        for (chain, _, width, rw) in &data.locations {
            let entry = per_chain.entry(chain.as_str()).or_insert((0, 0));
            entry.0 += width;
            if *rw {
                entry.1 += width;
            }
        }
        let mut chains: Vec<_> = per_chain.into_iter().collect();
        chains.sort();
        println!("\n{:<12} {:>10} {:>16}", "chain", "bits", "writable bits");
        for (chain, (bits, writable)) in chains {
            println!("{chain:<12} {bits:>10} {writable:>16}");
        }
    }
    Ok(())
}

fn cmd_workloads() -> Result<(), String> {
    println!("{:<14} {:<8} {:<12} description", "name", "target", "kind");
    for kind in TargetKind::ALL {
        for p in kind.programs() {
            println!(
                "{:<14} {:<8} {:<12} {}",
                p.image.name,
                kind.flag(),
                match p.kind {
                    workloads::WorkloadKind::Terminating => "terminating",
                    workloads::WorkloadKind::ControlLoop => "control-loop",
                },
                p.description,
            );
        }
    }
    Ok(())
}

fn cmd_new(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags("new", NEW_FLAGS, args)?;
    let db_path = positional.first().ok_or("new: missing <db> path")?;
    let name = flags.get("name").ok_or("new: --name is required")?;
    let workload_name = flags.get("workload").ok_or("new: --workload is required")?;
    let kind = target_flag(&flags)?.unwrap_or_default();
    let wl = kind.program(workload_name).ok_or_else(|| {
        format!("unknown workload `{workload_name}` for --target {kind} (see `goofi workloads`)")
    })?;
    let experiments: usize = flags
        .get("experiments")
        .map_or(Ok(100), |v| v.parse().map_err(|_| "bad --experiments"))?;
    let seed: u64 = flags
        .get("seed")
        .map_or(Ok(2003), |v| v.parse().map_err(|_| "bad --seed"))?;
    let technique = match flags.get("technique").map(String::as_str) {
        None | Some("scifi") => Technique::Scifi,
        Some("swifi-pre") => Technique::SwifiPreRuntime,
        Some("swifi-run") => Technique::SwifiRuntime,
        Some("pin") => Technique::PinLevel,
        Some(other) => return Err(format!("unknown technique `{other}`")),
    };
    let max_instructions: u64 = flags
        .get("max-instr")
        .map_or(Ok(1_000_000), |v| v.parse().map_err(|_| "bad --max-instr"))?;
    let max_iterations: Option<u64> = match flags.get("max-iterations") {
        Some(v) => Some(v.parse().map_err(|_| "bad --max-iterations")?),
        None => match wl.kind {
            workloads::WorkloadKind::ControlLoop => Some(200),
            workloads::WorkloadKind::Terminating => None,
        },
    };

    let target = kind.build();
    let data = TargetSystemData::from_target(&*target, kind.description());
    let time_window = match flags.get("time-window") {
        Some(v) => {
            let (a, b) = v.split_once(':').ok_or("bad --time-window, use A:B")?;
            let a: u64 = a.parse().map_err(|_| "bad --time-window start")?;
            let b: u64 = b.parse().map_err(|_| "bad --time-window end")?;
            a..b
        }
        None => 0..10_000,
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let faults = match technique {
        Technique::Scifi => {
            let mut space = data.fault_space(None, time_window);
            if !flags.contains_key("with-caches") {
                space.scan_cells.retain(|(chain, _, _)| chain == "internal");
            } else {
                space.scan_cells.retain(|(chain, _, _)| {
                    matches!(chain.as_str(), "internal" | "icache" | "dcache")
                });
            }
            space.sample_campaign(experiments, &mut rng)
        }
        Technique::PinLevel => {
            // Pins reached through the boundary chain (the writable cells
            // are the input pins).
            let mut space = data.fault_space(None, time_window);
            space.scan_cells.retain(|(chain, _, _)| chain == "boundary");
            space.sample_campaign(experiments, &mut rng)
        }
        Technique::SwifiRuntime => {
            let space = goofi::core::fault::FaultSpace {
                scan_cells: vec![],
                memory: Some(0..wl.image.words.len() as u32),
                time_window,
            };
            space.sample_campaign(experiments, &mut rng)
        }
        Technique::SwifiPreRuntime => {
            let space = goofi::core::fault::FaultSpace {
                scan_cells: vec![],
                memory: Some(0..wl.image.words.len() as u32),
                time_window: 0..1,
            };
            space
                .sample_campaign(experiments, &mut rng)
                .into_iter()
                .map(|mut f| {
                    f.trigger = goofi::core::trigger::Trigger::PreRuntime;
                    f
                })
                .collect()
        }
    };

    let campaign = Campaign::builder(name.clone())
        .target_system(&data.name)
        .technique(technique)
        .workload(wl.image)
        .observe_chains(["internal"])
        .output(wl.output)
        .termination(Termination {
            max_instructions,
            max_iterations,
        })
        .logging(if flags.contains_key("detail") {
            LoggingMode::Detail
        } else {
            LoggingMode::Normal
        })
        .policy(policy_from_flags(&flags)?)
        .faults(faults)
        .build()
        .map_err(|e| e.to_string())?;

    let mut db = load_db(db_path)?;
    dbio::store_target_system(&mut db, &data).map_err(|e| e.to_string())?;
    dbio::store_campaign(&mut db, &campaign).map_err(|e| e.to_string())?;
    save_db(db_path, &db)?;
    println!(
        "campaign `{name}`: {} experiments on `{}` (target {}) stored in {db_path}",
        campaign.experiment_count(),
        workload_name,
        kind.flag(),
    );
    Ok(())
}

fn make_env(kind: Option<&str>) -> Result<Box<dyn Environment>, String> {
    Ok(match kind {
        None | Some("none") => Box::new(NullEnvironment),
        Some("motor") => Box::new(DcMotor::new()),
        Some("tank") => Box::new(WaterTank::new()),
        Some("jet") => Box::new(JetEngine::new()),
        Some(other) => return Err(format!("unknown environment `{other}`")),
    })
}

/// What `goofi run` and `goofi resume` share around the engine call: the
/// flags, the database and its campaign, the run's telemetry and monitor,
/// and the drills each target is built under.
struct RunSetup {
    flags: HashMap<String, String>,
    db_path: String,
    journal: Option<String>,
    workers: usize,
    env_kind: Option<String>,
    link: Option<LinkFaultConfig>,
    verify: bool,
    wedge: Option<WedgeConfig>,
    db: Database,
    campaign: Campaign,
    kind: TargetKind,
    monitor: ProgressMonitor,
}

impl RunSetup {
    /// Parses `command`'s flags and loads its campaign. Every flag is
    /// checked before the database is read: `--workers 0`, an unknown
    /// environment or drill spec and, for `resume`, a missing journal are
    /// refused with nothing loaded or written. A stop signal then halts
    /// the monitor.
    fn load(command: &str, accepted: &[&str], args: &[String]) -> Result<RunSetup, String> {
        let (positional, flags) = parse_flags(command, accepted, args)?;
        let db_path = positional
            .first()
            .ok_or(format!("{command}: missing <db> path"))?
            .clone();
        let name = flags
            .get("name")
            .ok_or(format!("{command}: --name is required"))?;
        let journal = flags.get("journal").cloned();
        let resume = command == "resume";
        if resume && journal.is_none() {
            return Err("resume: --journal is required".into());
        }
        let workers = positive_flag(&flags, "workers")?.unwrap_or(1);
        if let Some(journal) = journal
            .as_ref()
            .filter(|j| resume && !Path::new(j).exists())
        {
            return Err(format!(
                "resume: journal {journal} does not exist (a journaled run writes it: \
                 `goofi run {db_path} --name {name} --journal {journal}`)"
            ));
        }
        let env_kind = flags.get("env").cloned();
        make_env(env_kind.as_deref())?; // validate before the workers clone it
        let link = flags
            .get("link-faults")
            .map(|spec| {
                LinkFaultConfig::decode(spec)
                    .ok_or_else(|| format!("bad --link-faults spec `{spec}`"))
            })
            .transpose()?;
        let verify = flags.contains_key("verify-reads");
        let wedge = flags
            .get("wedge")
            .map(|spec| {
                WedgeConfig::decode(spec).ok_or_else(|| format!("bad --wedge spec `{spec}`"))
            })
            .transpose()?;

        let db = load_db(&db_path)?;
        // The paper's readCampaignData step.
        let mut campaign = dbio::load_campaign(&db, name).map_err(|e| e.to_string())?;
        if let Some(v) = flags.get("health-check-every") {
            campaign.policy = campaign
                .policy
                .with_health_check(v.parse().map_err(|_| "bad --health-check-every")?);
        }
        let kind = campaign_target(&campaign, &flags)?;
        let tel = telemetry_from_flags(&flags)?;
        let monitor = ProgressMonitor::with_telemetry(campaign.experiment_count(), tel);
        stop_on_signal(&monitor);
        Ok(RunSetup {
            flags,
            db_path,
            journal,
            workers,
            env_kind,
            link,
            verify,
            wedge,
            db,
            campaign,
            kind,
            monitor,
        })
    }

    /// The seeded target factory: the n-th target it builds (from 0)
    /// offsets its wedge and link-fault seeds by n, so parallel loops draw
    /// distinct but deterministic streams and a serial run draws loop 0's.
    fn targets(&self) -> impl Fn() -> Box<dyn TargetAccess> + Sync {
        let (kind, wedge, link, verify) = (self.kind, self.wedge, self.link, self.verify);
        let monitor = self.monitor.clone();
        let built = std::sync::atomic::AtomicU64::new(0);
        move || {
            let worker = built.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            decorate_target(kind, wedge, link, verify, &monitor, worker)
        }
    }

    /// The environment factory. `load` validated the kind; the
    /// `NullEnvironment` fallback only keeps a loop from panicking.
    fn envs(&self) -> impl Fn() -> Box<dyn Environment> + Sync {
        let env_kind = self.env_kind.clone();
        move || make_env(env_kind.as_deref()).unwrap_or_else(|_| Box::new(NullEnvironment))
    }

    /// Stores the run's records and prints its summary. When the engine
    /// failed, it stores what completed instead and dumps the flight
    /// recorder.
    fn finish(
        mut self,
        result: goofi::core::Result<algorithms::CampaignResult>,
        started: std::time::Instant,
    ) -> Result<(), String> {
        let (db, db_path, monitor) = (&mut self.db, self.db_path.as_str(), &self.monitor);
        let result = result.map_err(|e| {
            let msg = salvage_partial(db, db_path, e);
            dump_flight(monitor.telemetry(), &self.flags, db_path, msg)
        })?;
        let elapsed = started.elapsed();
        dbio::store_result_traced(db, &result, monitor.telemetry()).map_err(|e| e.to_string())?;
        // Detail mode keeps the full recovery audit trail in the database.
        if self.campaign.logging == LoggingMode::Detail && !result.recoveries.is_empty() {
            dbio::log_recovery_actions(db, &self.campaign.name, &result.recoveries)
                .map_err(|e| e.to_string())?;
        }
        save_db(db_path, db)?;
        let progress = monitor.snapshot();
        println!(
            "done in {elapsed:?}: {} experiments logged ({:.1} exp/s)",
            progress.completed,
            progress.completed as f64 / elapsed.as_secs_f64(),
        );
        for (cause, n) in &progress.by_termination {
            println!("  terminated by {cause}: {n}");
        }
        if progress.link_recovered > 0 || progress.link_unrecovered > 0 {
            println!(
                "link events: {} recovered, {} unrecovered",
                progress.link_recovered, progress.link_unrecovered,
            );
        }
        if progress.probes_run > 0 || progress.hangs > 0 {
            println!(
                "supervision: {} probe suite(s) run ({} failed), {} target hang(s)",
                progress.probes_run, progress.probes_failed, progress.hangs,
            );
            println!(
                "  recovery actions: {} soft reset(s), {} card re-init(s), {} power cycle(s), {} target(s) offline",
                progress.soft_resets, progress.card_reinits, progress.power_cycles, progress.targets_offline,
            );
        }
        if !result.recoveries.is_empty() {
            println!("recovery episodes:");
            for episode in &result.recoveries {
                println!(
                    "  {} ({}): {} action(s), {}",
                    episode.experiment,
                    episode.trigger,
                    episode.actions.len(),
                    if episode.recovered {
                        "recovered"
                    } else {
                        "target offline"
                    },
                );
            }
        }
        if !result.quarantined.is_empty() {
            println!(
                "quarantined by golden-run revalidation ({} record(s), kept as invalid, re-run via parentExperiment):",
                result.quarantined.len(),
            );
            for record in &result.quarantined {
                println!("  {}", record.name);
            }
        }
        if !result.failures.is_empty() {
            println!("failed experiments (skipped by policy):");
            for failure in &result.failures {
                println!("  {failure}");
            }
        }
        let tel = monitor.telemetry();
        tel.flush();
        if self.flags.contains_key("metrics") {
            if let Some(snapshot) = tel.metrics() {
                println!("\nper-stage timings:");
                println!("{}", snapshot.render_timings());
                let nonzero: Vec<_> = snapshot.counters.iter().filter(|(_, v)| **v > 0).collect();
                if !nonzero.is_empty() {
                    println!("counters:");
                    for (name, value) in nonzero {
                        println!("  {name:<20} {value}");
                    }
                }
            }
        }
        Ok(())
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let accepted = [RESUME_FLAGS, &["no-snapshot"]].concat();
    let setup = RunSetup::load("run", &accepted, args)?;
    let campaign = &setup.campaign;
    println!(
        "running campaign `{}`: {} experiments on {} ({}, {:?} logging)",
        campaign.name,
        campaign.experiment_count(),
        setup.kind.system_name(),
        campaign.technique.encode(),
        campaign.logging,
    );

    let mut journal = match &setup.journal {
        Some(p) => Some(ExperimentJournal::create(p, &campaign.name).map_err(|e| e.to_string())?),
        None => None,
    };
    let snapshots = !setup.flags.contains_key("no-snapshot");
    let started = std::time::Instant::now();
    let result = if setup.workers == 1 {
        let mut target = setup.targets()();
        let mut env = setup.envs()();
        // The golden cache lives next to the journal; a journal-less run
        // has nowhere durable to keep it.
        let cache = setup.journal.as_ref().map(|p| {
            goofi::core::golden::GoldenCache::new(
                &goofi::core::vfs::RealFs,
                Path::new(p.as_str()),
                campaign,
                env.name(),
            )
        });
        algorithms::run_campaign_journaled_opts(
            &mut target,
            campaign,
            &setup.monitor,
            env.as_mut(),
            journal.as_mut(),
            cache.as_ref(),
            snapshots,
        )
    } else {
        runner::run_campaign_parallel_journaled_opts(
            setup.targets(),
            Some(setup.envs()),
            campaign,
            &setup.monitor,
            setup.workers,
            journal.as_mut(),
            snapshots,
        )
    };
    setup.finish(result, started)
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let setup = RunSetup::load("resume", RESUME_FLAGS, args)?;
    let journal_path = setup
        .journal
        .clone()
        .expect("`RunSetup::load` refuses a resume without --journal");
    // Auto-fsck: salvage a torn/garbled journal before resuming from it,
    // and tell the operator what was dropped. (The runner re-checks through
    // its own VFS; this pass makes the repair visible.)
    let salvage = goofi::core::journal::salvage_with(
        &goofi::core::vfs::RealFs,
        Path::new(journal_path.as_str()),
    )
    .map_err(|e| e.to_string())?;
    if let Some(quarantined) = &salvage.quarantined {
        println!(
            "journal {journal_path} was not recognisable; quarantined to {} and starting fresh",
            quarantined.display(),
        );
    } else if salvage.rewritten {
        println!(
            "journal {journal_path} was damaged; salvaged {} entr(y/ies), dropped {}",
            salvage.kept, salvage.dropped,
        );
    }
    println!(
        "resuming campaign `{}` from {journal_path}: {} experiments total",
        setup.campaign.name,
        setup.campaign.experiment_count(),
    );

    let started = std::time::Instant::now();
    let result = runner::resume_campaign(
        setup.targets(),
        Some(setup.envs()),
        &setup.campaign,
        &setup.monitor,
        setup.workers,
        &goofi::core::vfs::RealFs,
        &journal_path,
        0..setup.campaign.experiment_count(),
    );
    setup.finish(result, started)
}

/// `goofi fsck <db> [--name C --journal J] [--repair]`: checks every
/// persistence artifact — the checksummed database file, an optional run
/// journal, and the service spool next to the database — for torn writes,
/// garbled entries, bad headers, and stray temp files. Without `--repair`
/// the findings are reported (one class per line) and the exit code is
/// non-zero; with `--repair` the damage is salvaged: journals are rewritten
/// down to their valid entries, unrecognisable files are quarantined aside
/// (`vfs::quarantine`), damaged spool jobs become `quarantined-*` directories,
/// and experiments lost to garbled database rows are re-logged as
/// `Validity::Invalid` stubs with `parentExperiment`-linked rerun stubs.
fn cmd_fsck(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags("fsck", FSCK_FLAGS, args)?;
    let db_path = positional.first().ok_or("fsck: missing <db> path")?;
    let repair = flags.contains_key("repair");
    let journal = match (flags.get("journal"), flags.get("name")) {
        (Some(j), Some(n)) => Some((j.clone(), n.clone())),
        (Some(_), None) => return Err("fsck: --journal needs --name <campaign>".to_string()),
        (None, Some(_)) => return Err("fsck: --name needs --journal <file>".to_string()),
        (None, None) => None,
    };
    let report = goofi::core::fsck::fsck_all(
        &goofi::core::vfs::RealFs,
        Path::new(db_path),
        journal
            .as_ref()
            .map(|(j, n)| (Path::new(j.as_str()), n.as_str())),
        repair,
    )
    .map_err(|e| e.to_string())?;
    println!("{}", report.render());
    if !report.clean() && !repair {
        return Err(format!(
            "{} finding(s); run `goofi fsck {db_path}{} --repair` to salvage",
            report.findings.len(),
            journal
                .as_ref()
                .map(|(j, n)| format!(" --name {n} --journal {j}"))
                .unwrap_or_default(),
        ));
    }
    Ok(())
}

/// `goofi serve <db>`: the campaign-service daemon. Accepts submissions
/// on a loopback TCP socket, shards each job across spawned
/// `goofi worker` processes under lease discipline, and resumes any
/// spooled in-flight jobs left behind by a previous (possibly killed)
/// daemon before accepting new work.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags("serve", SERVE_FLAGS, args)?;
    let db_path = positional.first().ok_or("serve: missing <db> path")?;
    if !Path::new(db_path).exists() {
        return Err(format!(
            "serve: no database at {db_path} (create campaigns with `goofi new` first)"
        ));
    }
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:4711".to_string());
    let exe = std::env::current_exe().map_err(|e| format!("locating goofi executable: {e}"))?;
    let mut cfg = ServiceConfig::new(
        db_path,
        WorkerCommand {
            program: exe,
            args: vec!["worker".to_string()],
        },
    );
    if let Some(workers) = positive_flag(&flags, "workers")? {
        cfg.default_workers = workers;
    }
    if let Some(ms) = positive_flag(&flags, "lease-ms")? {
        cfg.lease = std::time::Duration::from_millis(ms);
    }
    if let Some(failures) = positive_flag(&flags, "poison-after")? {
        cfg.poison_after = failures;
    }
    if let Some(spec) = flags.get("chaos") {
        cfg.chaos =
            Some(ChaosConfig::decode(spec).ok_or_else(|| format!("bad --chaos spec `{spec}`"))?);
    }
    let net_chaos = match flags.get("net-chaos") {
        Some(spec) => Some(
            NetFaultConfig::decode(spec).ok_or_else(|| format!("bad --net-chaos spec `{spec}`"))?,
        ),
        None => None,
    };
    cfg.net_chaos = net_chaos.clone();
    let spool = cfg.spool_dir.clone();
    let scheduler = Arc::new(Scheduler::new(cfg).map_err(|e| e.to_string())?);
    // `--net-chaos` puts the daemon's own accept/send path behind a
    // seeded FaultNet as well as the workers' event frames — the whole
    // service I/O plane runs through the drill.
    let transport: Box<dyn Transport> = match net_chaos {
        Some(spec) => Box::new(FaultNet::new(spec)),
        None => Box::new(RealNet),
    };
    let listener = transport
        .listen(&addr)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    // Report the *bound* address: with `--addr 127.0.0.1:0` the OS picks
    // the port, and clients need the real one.
    let bound = listener.local_addr().unwrap_or(addr);
    println!(
        "goofi daemon on {bound} (db {db_path}, spool {})",
        spool.display()
    );
    let recovered = scheduler.recover().map_err(|e| e.to_string())?;
    for job in &recovered.resumed {
        println!("resumed in-flight {job} from {}", spool.display());
    }
    for job in &recovered.quarantined {
        println!("quarantined damaged {job} (renamed to quarantined-{job}; see `goofi fsck`)");
    }
    // SIGINT/SIGTERM stop the accept loop; the scheduler then halts its
    // jobs resumably (spool manifests stay, no done markers are written).
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            if signals::interrupted() {
                stop.store(true, std::sync::atomic::Ordering::Release);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }
    service::serve(listener, scheduler, stop).map_err(|e| e.to_string())?;
    println!("daemon stopped; in-flight jobs resume on next `goofi serve`");
    Ok(())
}

/// `goofi worker …`: one shard of a service job, spawned by the daemon —
/// not normally invoked by hand. Runs its index range against the target
/// system named on its spawn line (Thor when unspecified) under a private
/// journal, streaming events on stdout.
fn cmd_worker(args: &[String]) -> Result<(), String> {
    let parsed = WorkerArgs::parse(args).map_err(|e| e.to_string())?;
    let kind = match parsed.target.as_deref() {
        None => TargetKind::Thor,
        Some(name) => TargetKind::from_system_name(name)
            .ok_or_else(|| format!("worker: unknown target system `{name}`"))?,
    };
    service::run_worker(&parsed, || kind.build()).map_err(|e| e.to_string())
}

/// `goofi submit <addr>`: client side of the service — submit a campaign
/// (optionally watching it), attach to a running job, list jobs, or ask
/// the daemon to shut down.
fn cmd_submit(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags("submit", SUBMIT_FLAGS, args)?;
    let addr = positional
        .first()
        .ok_or("submit: missing <addr> (e.g. 127.0.0.1:4711)")?;
    if flags.contains_key("status") {
        // job_list retries across fresh connections on transport damage,
        // so a lossy link (`--net-chaos` drills) still gets a listing.
        for (job, state, campaign) in
            service::job_list(&RealNet, addr, std::time::Duration::from_secs(10))
                .map_err(|e| e.to_string())?
        {
            println!("{job:<10} {state:<8} {campaign}");
        }
        return Ok(());
    }
    if flags.contains_key("shutdown") {
        service::request_shutdown(&RealNet, addr, std::time::Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
        println!("daemon shutting down");
        return Ok(());
    }
    if let Some(job) = flags.get("job") {
        return watch_job(addr, job);
    }
    let name = flags.get("name").ok_or("submit: --name is required")?;
    let workers: usize = flags
        .get("workers")
        .map_or(Ok(0), |v| v.parse().map_err(|_| "bad --workers"))?;
    let watch = flags.contains_key("watch");
    let target = target_flag(&flags)?;
    // One request id for every retry: the daemon deduplicates, so a
    // submission whose acknowledgement was lost is not run twice.
    let request_id = service::new_request_id();
    let job = service::submit_job(
        &RealNet,
        addr,
        &request_id,
        name,
        workers,
        target.map(TargetKind::system_name),
        std::time::Duration::from_secs(10),
    )
    .map_err(|e| e.to_string())?;
    println!("accepted as {job}");
    if watch {
        watch_job(addr, &job)
    } else {
        Ok(())
    }
}

/// Prints streamed progress lines until the watched job ends. The watch
/// session resumes across lost connections: the client reconnects and
/// replays from the last sequence number it saw, so no line is missed or
/// repeated.
fn watch_job(addr: &str, job: &str) -> Result<(), String> {
    let terminal = service::watch_to_end(
        &RealNet,
        addr,
        job,
        0,
        std::time::Duration::from_secs(30),
        print_progress,
    )
    .map_err(|e| e.to_string())?;
    match &terminal {
        Response::Progress { state, detail, .. } if state == "failed" => {
            Err(if detail.is_empty() {
                "job failed".to_string()
            } else {
                detail.clone()
            })
        }
        _ => Ok(()),
    }
}

fn print_progress(response: &Response) {
    if let Response::Progress {
        job,
        state,
        total,
        completed,
        failed,
        quarantined,
        shards_done,
        shards_total,
        shards_poisoned,
        ..
    } = response
    {
        let poisoned = if *shards_poisoned > 0 {
            format!(", {shards_poisoned} poisoned")
        } else {
            String::new()
        };
        println!(
            "{job}: {state} {completed}/{total} \
             ({failed} failed, {quarantined} quarantined, \
             shards {shards_done}/{shards_total}{poisoned})"
        );
    }
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags("report", REPORT_FLAGS, args)?;
    let db_path = positional.first().ok_or("report: missing <db> path")?;
    let name = flags.get("name").ok_or("report: --name is required")?;
    let mut db = load_db(db_path)?;
    // `--trace <file>` appends the analysis phase's classify spans to an
    // existing trace, so one JSONL file covers the whole four-phase workflow.
    let tel = match flags.get("trace") {
        Some(path) => {
            let sink = JsonlSink::append(Path::new(path))
                .map_err(|e| format!("opening trace file {path}: {e}"))?;
            Telemetry::with_sinks(vec![Arc::new(sink)])
        }
        None => Telemetry::disabled(),
    };
    let classified = tel
        .time(Stage::Classify, || queries::analyse_campaign(&mut db, name))
        .map_err(|e| e.to_string())?;
    let stats = goofi::analysis::stats::CampaignStats::from_classified(&classified);
    println!(
        "{}",
        report::full_report(&format!("campaign `{name}`"), &stats)
    );
    let escaped = queries::escaped_experiments(&db, name).map_err(|e| e.to_string())?;
    if !escaped.is_empty() {
        println!("candidates for detail-mode re-run (escaped errors):");
        for row in &escaped.rows {
            println!("  {}", row[0]);
        }
    }
    let recoveries = dbio::load_recovery_actions(&db, name).map_err(|e| e.to_string())?;
    if !recoveries.is_empty() {
        println!("recovery audit trail ({} episode(s)):", recoveries.len());
        for episode in &recoveries {
            println!(
                "  {} ({}): {}",
                episode.experiment,
                episode.trigger,
                if episode.recovered {
                    "recovered"
                } else {
                    "target offline"
                },
            );
            for action in &episode.actions {
                println!(
                    "    {} attempt {}: {}{}",
                    action.stage,
                    action.attempt,
                    if action.recovered { "ok" } else { "failed" },
                    if action.detail.is_empty() {
                        String::new()
                    } else {
                        format!(" — {}", action.detail)
                    },
                );
            }
        }
    }
    tel.flush();
    // `--timings <trace>` rebuilds the per-stage latency histograms from a
    // recorded JSONL trace and renders them as a report section.
    if let Some(trace_path) = flags.get("timings") {
        let text = std::fs::read_to_string(trace_path)
            .map_err(|e| format!("reading trace {trace_path}: {e}"))?;
        let snapshot = MetricsSnapshot::from_trace(&text);
        println!("per-stage timings (from {trace_path}):");
        println!("{}", snapshot.render_timings());
    }
    save_db(db_path, &db)?;
    Ok(())
}

fn cmd_sql(args: &[String]) -> Result<(), String> {
    let db_path = args.first().ok_or("sql: missing <db> path")?;
    let query = args.get(1).ok_or("sql: missing query string")?;
    let db = load_db(db_path)?;
    let result = db.query(query).map_err(|e| e.to_string())?;
    println!("{result}");
    Ok(())
}
