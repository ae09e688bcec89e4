//! What a workload run writes: the console table, `results.json`, the
//! span file of a traced run, and the one-line JSON result that ends
//! stdout.

use crate::json::Json;
use crate::stats;
use crate::workload::{Metric, Options, Outcome};
use std::io::Write as _;
use std::path::Path;

fn metrics_json(metrics: &[Metric]) -> Json {
    let mut out = Json::obj();
    for m in metrics {
        out.push(
            &m.name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        );
    }
    out
}

/// Prints the outcome as aligned `workload metric value unit` lines.
pub fn print_outcome(outcome: &Outcome) {
    let name = outcome.name;
    for m in outcome.metrics.iter().chain(&outcome.details) {
        println!("{name:<22} {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{name:<22} {:<30} {:>16x}",
        "records_fnv", outcome.records_fnv
    );
    println!(
        "{name:<22} {:<30} {:>16} ({} attempted, {} failed)",
        "correct", outcome.correct, outcome.attempted, outcome.failed
    );
    for problem in &outcome.problems {
        println!("{name:<22} PROBLEM {problem}");
    }
}

/// `results.json`: the run's settings plus the workload's metrics,
/// details, per-op histograms (traced), records digest and problems —
/// the input of `benchdiff`.
pub fn results_json(opts: &Options, o: &Outcome) -> Json {
    let mut histograms = Json::obj();
    for (op, buckets) in &o.histograms {
        let counts: Vec<Json> = buckets.iter().map(|&n| Json::from(n)).collect();
        histograms.push(op, counts);
    }
    let workload = Json::obj()
        .with("correct", o.correct)
        .with("attempted", o.attempted)
        .with("failed", o.failed)
        .with("records_fnv", format!("{:016x}", o.records_fnv))
        .with(
            "problems",
            o.problems
                .iter()
                .map(|p| Json::from(p.as_str()))
                .collect::<Vec<_>>(),
        )
        .with("metrics", metrics_json(&o.metrics))
        .with("details", metrics_json(&o.details))
        .with("histograms_log2_ns", histograms);
    results_json_header(opts).with("workloads", Json::obj().with(o.name, workload))
}

/// The settings part of `results.json`: seed, seconds, trace, smoke and
/// `nproc`.
pub fn results_json_header(opts: &Options) -> Json {
    Json::obj()
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("trace", opts.trace)
        .with("smoke", opts.smoke)
        .with("nproc", stats::nproc())
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(o: &Outcome) -> Json {
    Json::obj()
        .with("correct", o.correct)
        .with("attempted", o.attempted)
        .with("failed", o.failed)
        .with("metrics", metrics_json(&o.metrics))
}

/// Writes `<dir>/<workload>.spans.jsonl`: one JSON object per span.
///
/// # Errors
///
/// I/O errors, naming the file.
pub fn write_spans(dir: &Path, outcome: &Outcome) -> Result<(), String> {
    let path = dir.join(format!("{}.spans.jsonl", outcome.name));
    let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    for s in &outcome.spans {
        let line = Json::obj()
            .with("id", s.id)
            .with("parent", s.parent)
            .with("layer", s.layer)
            .with("op", s.op)
            .with("start_ns", s.start_ns)
            .with("end_ns", s.end_ns)
            .with("campaign", s.campaign);
        writeln!(file, "{}", line.encode()).map_err(io)?;
    }
    file.flush().map_err(io)
}
