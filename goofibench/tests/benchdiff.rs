//! `benchdiff` verdicts on hand-made result sets: steady and equal is ok,
//! a worse median beyond the bound is a regression, a spread wider than
//! the bound is unresolved (except for `setup_s`, judged by its median),
//! and differing records fail the comparison.

use std::path::{Path, PathBuf};
use std::process::Command;

const SPEC: &str = r#"{"end_to_end": [
    {"name": "exp_per_s", "unit": "exp/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
  "per_layer": [{"name": "cpu.ns_per_instr", "unit": "ns", "better": "lower"}]}"#;

/// Set-up times of the five runs of every set: equal medians, a spread
/// far wider than the bound.
const SETUP_S: [f64; 5] = [0.5, 0.2, 0.8, 0.35, 0.6];

fn results(dir: &Path, name: &str, exp_per_s: f64, setup_s: f64, fnv: &str) -> String {
    let path = dir.join(name);
    let body = format!(
        r#"{{"seed": 7, "workloads": {{"w": {{"correct": true, "records_fnv": "{fnv}",
        "metrics": {{"exp_per_s": {{"value": {exp_per_s}, "unit": "exp/s"}},
                     "setup_s": {{"value": {setup_s}, "unit": "s"}}}}}}}}}}"#
    );
    std::fs::write(&path, body).unwrap();
    path.display().to_string()
}

fn benchdiff(dir: &Path, base: &[String], new: &[String]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_benchdiff"))
        .arg("--spec")
        .arg(dir.join("spec.json"))
        .arg("--base")
        .args(base)
        .arg("--new")
        .args(new)
        .output()
        .unwrap();
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn verdicts_follow_the_bounds() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("benchdiff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("spec.json"), SPEC).unwrap();
    let set = |tag: &str, values: &[f64], fnv: &str| -> Vec<String> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| results(&dir, &format!("{tag}{i}.json"), *v, SETUP_S[i], fnv))
            .collect()
    };
    let base = set("base", &[100.0, 101.0, 99.0, 100.5, 99.5], "aa");

    let (ok, out) = benchdiff(
        &dir,
        &base,
        &set("same", &[100.2, 99.8, 100.0, 101.0, 99.0], "aa"),
    );
    assert!(ok, "{out}");
    assert!(out.contains(" ok"), "{out}");

    let (ok, out) = benchdiff(
        &dir,
        &base,
        &set("slow", &[80.0, 81.0, 79.0, 80.5, 79.5], "aa"),
    );
    assert!(!ok && out.contains("REGRESSION"), "{out}");

    let (ok, out) = benchdiff(
        &dir,
        &base,
        &set("noisy", &[70.0, 130.0, 100.0, 75.0, 125.0], "aa"),
    );
    assert!(!ok && out.contains("unresolved"), "{out}");

    let (ok, out) = benchdiff(
        &dir,
        &base,
        &set("drift", &[100.0, 100.0, 100.0, 100.0, 100.0], "bb"),
    );
    assert!(!ok && out.contains("RECORDS DIFFER"), "{out}");

    std::fs::remove_dir_all(&dir).unwrap();
}
