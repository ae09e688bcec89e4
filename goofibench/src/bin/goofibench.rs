//! `goofibench` — end-to-end campaign throughput on both CPUs and the
//! service, with an outside-in per-layer trace. See `BENCHMARK.md`.
//!
//! ```text
//! goofibench [--workload NAME]... [--seed S] [--seconds N] [--trace [0|1]]
//!            [--smoke] [--out DIR]
//! ```
//!
//! Without `--workload` every workload runs, one after the other, each in
//! a child process of this binary. The last line of stdout is the JSON
//! result; `DIR/results.json` (and, traced, `DIR/<workload>.spans.jsonl`)
//! hold the rest. Exits 1 when any check fails, 2 on bad arguments.
//! `goofibench worker …` is the service's shard worker, spawned by the
//! in-process daemon.

use goofibench::json::Json;
use goofibench::report;
use goofibench::workload::{self, Options, NAMES};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: goofibench [--workload NAME]... [--seed S] [--seconds N] \
                     [--trace [0|1]] [--smoke] [--out DIR]";

/// Default seed, the E1 seed the repository's other benchmarks use.
const DEFAULT_SEED: u64 = 0xE1;

fn parse_seed(text: &str) -> Result<u64, String> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
    .map_err(|_| format!("bad --seed `{text}`"))
}

fn parse_args(args: &[String]) -> Result<(Vec<String>, Options), String> {
    let mut names = Vec::new();
    let mut seconds = None;
    let mut opts = Options {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/bench"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("missing value for `{flag}`"))
        };
        match flag.as_str() {
            "--workload" => names.push(value()?.clone()),
            "--seed" => opts.seed = parse_seed(value()?)?,
            "--seconds" => {
                let text = value()?;
                let s: f64 = text
                    .parse()
                    .map_err(|_| format!("bad --seconds `{text}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, not `{text}`"));
                }
                seconds = Some(s);
            }
            // `--trace` alone, or `--trace 0|1`.
            "--trace" => {
                opts.trace = it
                    .next_if(|v| matches!(v.as_str(), "0" | "1"))
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // Smoke runs exist to finish fast: a fraction of a second per loop.
    opts.seconds = seconds.unwrap_or(if opts.smoke { 0.2 } else { 10.0 });
    if names.is_empty() {
        names = NAMES.iter().map(|n| n.to_string()).collect();
    }
    if let Some(bad) = names.iter().find(|n| !NAMES.contains(&n.as_str())) {
        return Err(format!(
            "unknown workload `{bad}` (known: {})",
            NAMES.join(", ")
        ));
    }
    Ok((names, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return match workload::worker_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("goofibench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (names, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("goofibench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("goofibench: creating {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    match names.as_slice() {
        [name] => run_one(name, &opts),
        _ => run_each(&names, &opts),
    }
}

/// Runs one workload in this process.
fn run_one(name: &str, opts: &Options) -> ExitCode {
    eprintln!(
        "goofibench: {name} (seed {:#x}, {} s{})",
        opts.seed,
        opts.seconds,
        if opts.trace { ", traced" } else { "" }
    );
    let outcome = match workload::run(name, opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("goofibench: {name} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    report::print_outcome(&outcome);
    let results = opts.out.join("results.json");
    let written = std::fs::write(&results, report::results_json(opts, &outcome).encode())
        .map_err(|e| format!("writing {}: {e}", results.display()))
        .and_then(|()| {
            if opts.trace {
                report::write_spans(&opts.out, &outcome)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("goofibench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(&outcome).encode());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of this binary, one after the
/// other, so each one's set-up time and peak memory are its own — exactly
/// what a single-workload run measures — then merges their results:
/// `results.json` holds every workload, and the result line prefixes each
/// metric with `<workload>.`.
fn run_each(names: &[String], opts: &Options) -> ExitCode {
    let mut workloads = Json::obj();
    let mut metrics = Json::obj();
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    for name in names {
        let (line, results) = match run_child(name, opts) {
            Ok(outputs) => outputs,
            Err(e) => {
                eprintln!("goofibench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let number = |key| line.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        attempted += number("attempted");
        failed += number("failed");
        correct &= line.get("correct") == Some(&Json::Bool(true));
        for (metric, value) in line.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
            metrics.push(&format!("{name}.{metric}"), value.clone());
        }
        if let Some(entry) = results.get("workloads").and_then(|w| w.get(name)) {
            workloads.push(name, entry.clone());
        }
    }
    let results = opts.out.join("results.json");
    let mut summary = report::results_json_header(opts);
    summary.push("workloads", workloads);
    if let Err(e) = std::fs::write(&results, summary.encode()) {
        eprintln!("goofibench: writing {}: {e}", results.display());
        return ExitCode::FAILURE;
    }
    let line = Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics);
    println!("{}", line.encode());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `name` in a child process; passes its console lines through and
/// returns its result line and `results.json`.
fn run_child(name: &str, opts: &Options) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating goofibench: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out);
    if opts.smoke {
        child.arg("--smoke");
    }
    let output = child
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let line = Json::parse(last).map_err(|_| format!("{name} failed ({})", output.status))?;
    let path = opts.out.join("results.json");
    let results = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok((line, results))
}
