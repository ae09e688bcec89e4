//! `goofibench --smoke` runs all four workloads end to end — untraced and
//! traced — passes every correctness check, and reports every metric
//! `BENCHMARK.json` lists.

use goofibench::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn metric_names(spec: &Json, section: &str) -> Vec<String> {
    spec.get(section)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// Runs the smoke configuration and returns the parsed result line.
fn smoke(out: &Path, extra: &[&str]) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_goofibench"))
        .args(["--smoke", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "goofibench --smoke {extra:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(stdout.lines().last().unwrap()).unwrap()
}

const WORKLOADS: [&str; 4] = [
    "thor-scifi-uniform",
    "thor-scifi-deep-x2",
    "riscv-scifi-journaled",
    "thor-service-x2",
];

#[test]
fn smoke_run_reports_every_end_to_end_metric_and_passes_its_checks() {
    let out = scratch("smoke");
    let line = smoke(&out, &[]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = line.get("metrics").unwrap();
    for workload in WORKLOADS {
        for name in metric_names(&spec(), "end_to_end") {
            let value = metrics
                .get(&format!("{workload}.{name}"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert!(value > 0.0, "{workload}.{name} = {value}");
        }
    }
    let results = Json::parse(&std::fs::read_to_string(out.join("results.json")).unwrap()).unwrap();
    for workload in WORKLOADS {
        let fnv = results
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("records_fnv"))
            .and_then(Json::as_str)
            .unwrap();
        assert_eq!(fnv.len(), 16, "{workload}: records_fnv {fnv}");
    }
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn traced_smoke_run_reports_every_per_layer_metric_and_writes_spans() {
    let out = scratch("smoke-trace");
    let line = smoke(
        &out,
        &[
            "--workload",
            "riscv-scifi-journaled",
            "--workload",
            "thor-service-x2",
            "--trace",
        ],
    );
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let metrics = line.get("metrics").unwrap();
    let value = |workload: &str, name: &str| {
        metrics
            .get(&format!("{workload}.{name}"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{workload}: no {name}"))
    };
    for workload in ["riscv-scifi-journaled", "thor-service-x2"] {
        for name in metric_names(&spec(), "per_layer") {
            value(workload, &name);
        }
        assert!(value(workload, "cpu.instr_per_exp") > 0.0);
        assert!(value(workload, "scan.bits_per_exp") > 0.0);
        let spans = std::fs::read_to_string(out.join(format!("{workload}.spans.jsonl"))).unwrap();
        assert!(spans.lines().count() > 1, "{workload}: no spans");
    }
    // Each layer shows up where its workload exercises it.
    assert!(value("riscv-scifi-journaled", "journal.fsyncs_per_exp") >= 1.0);
    assert!(value("riscv-scifi-journaled", "db.save_bytes_per_exp") > 0.0);
    assert_eq!(
        value("thor-service-x2", "service.worker_spawns_per_job"),
        2.0
    );
    assert!(value("thor-service-x2", "wire.frames_in_per_job") > 0.0);
    std::fs::remove_dir_all(&out).unwrap();
}
