//! `benchdiff` — compares two sets of `goofibench` `results.json` runs.
//!
//! ```text
//! benchdiff [--spec BENCHMARK.json] --base A1.json A2.json … --new B1.json B2.json …
//! ```
//!
//! For every workload × metric listed in the spec it prints each side's
//! median and quartiles and a verdict against the metric's bound:
//! `REGRESSION` when the new median is worse than the base median by more
//! than the bound, `unresolved` when either side's spread (interquartile
//! range over median) is wider than the bound — unless every new run
//! reads better than every base run, and never for `setup_s`, whose
//! median alone is judged — and `ok` otherwise. Per-layer
//! metrics (traced runs) are shown without a verdict. It also checks that
//! all runs of one workload and seed agree on `records_fnv` and passed
//! their correctness checks. Exits 1 on any regression, unresolved
//! metric, digest mismatch or failed run; 2 on bad input.

use goofibench::json::Json;
use goofibench::stats;
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str =
    "usage: benchdiff [--spec BENCHMARK.json] --base RESULTS.json... --new RESULTS.json...";

/// One metric definition from the spec.
struct Def {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// `None` for per-layer metrics, which have no bound.
    bound: Option<f64>,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn spec_defs(spec: &Json) -> Result<Vec<Def>, String> {
    let mut defs = Vec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let entries = spec
            .get(section)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("spec: missing `{section}` list"))?;
        for entry in entries {
            let text = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("spec: {section} entry without `{key}`"))
            };
            let bound = if bounded {
                Some(
                    entry
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("spec: {section} entry without `bound`"))?,
                )
            } else {
                None
            };
            defs.push(Def {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound,
            });
        }
    }
    Ok(defs)
}

/// `(workload, metric) → values` of one side.
type Values = BTreeMap<(String, String), Vec<f64>>;

/// Reads one side's results files; also collects `(workload, seed) →
/// (records_fnv, file)` and the runs that failed their checks.
fn load_side(
    paths: &[String],
    digests: &mut BTreeMap<(String, u64), Vec<(String, String)>>,
    failed: &mut Vec<String>,
) -> Result<Values, String> {
    let mut side = Values::new();
    for path in paths {
        let results = read_json(path)?;
        let seed = results
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: no `seed`"))? as u64;
        let workloads = results
            .get("workloads")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{path}: no `workloads`"))?;
        for (workload, result) in workloads {
            if result.get("correct") != Some(&Json::Bool(true)) {
                failed.push(format!("{path}: {workload} failed its checks"));
            }
            if let Some(fnv) = result.get("records_fnv").and_then(Json::as_str) {
                digests
                    .entry((workload.clone(), seed))
                    .or_default()
                    .push((fnv.to_string(), path.clone()));
            }
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or_else(|| format!("{path}: {workload} has no `metrics`"))?;
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    side.entry((workload.clone(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(side)
}

fn fmt_side(values: &[f64]) -> String {
    let [q1, med, q3] = stats::quartiles(values);
    format!("{med:>12.4} [{q1:.4} – {q3:.4}]")
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut base = Vec::new();
    let mut new = Vec::new();
    let mut target: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => {
                spec_path = it.next().ok_or("missing value for `--spec`")?.clone();
                target = None;
            }
            "--base" => target = Some(&mut base),
            "--new" => target = Some(&mut new),
            file => match target.as_deref_mut() {
                Some(list) => list.push(file.to_string()),
                None => return Err(format!("`{file}` is neither under --base nor --new")),
            },
        }
    }
    if base.is_empty() || new.is_empty() {
        return Err("need at least one --base and one --new results file".into());
    }
    let defs = spec_defs(&read_json(&spec_path)?)?;
    let mut digests = BTreeMap::new();
    let mut failed = Vec::new();
    let base_side = load_side(&base, &mut digests, &mut failed)?;
    let new_side = load_side(&new, &mut digests, &mut failed)?;

    let mut clean = true;
    let workloads: std::collections::BTreeSet<&String> = base_side.keys().map(|(w, _)| w).collect();
    println!(
        "{:<22} {:<28} {:>40} {:>40} {:>8}  verdict",
        "workload", "metric", "base median [q1 – q3]", "new median [q1 – q3]", "change"
    );
    for workload in workloads {
        for def in &defs {
            let key = (workload.clone(), def.name.clone());
            let (Some(b), Some(n)) = (base_side.get(&key), new_side.get(&key)) else {
                continue;
            };
            let (bm, nm) = (stats::median(b), stats::median(n));
            // Positive = worse, as a share of the base median.
            let worse = if def.higher_is_better {
                (bm - nm) / bm.abs()
            } else {
                (nm - bm) / bm.abs()
            };
            let all_better = if def.higher_is_better {
                n.iter().all(|x| b.iter().all(|y| x > y))
            } else {
                n.iter().all(|x| b.iter().all(|y| x < y))
            };
            // Set-up time is judged by its median only: a few milliseconds
            // of set-up spread wider than any bound that would still catch
            // work moved into it.
            let judge_spread = def.name != "setup_s" && !all_better;
            let verdict = match def.bound {
                None => "",
                Some(bound) if worse > bound => "REGRESSION",
                Some(bound)
                    if judge_spread && (stats::spread(b) > bound || stats::spread(n) > bound) =>
                {
                    "unresolved"
                }
                Some(_) => "ok",
            };
            clean &= matches!(verdict, "" | "ok");
            println!(
                "{workload:<22} {:<28} {:>40} {:>40} {:>+7.2}%  {verdict}",
                format!("{} ({})", def.name, def.unit),
                fmt_side(b),
                fmt_side(n),
                -worse * 100.0,
            );
        }
    }
    for ((workload, seed), seen) in &digests {
        let first = &seen[0].0;
        if let Some((other, path)) = seen.iter().find(|(d, _)| d != first) {
            clean = false;
            println!(
                "RECORDS DIFFER: {workload} seed {seed}: records_fnv {first} ({}) vs {other} ({path})",
                seen[0].1
            );
        }
    }
    for f in &failed {
        clean = false;
        println!("FAILED RUN: {f}");
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchdiff: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
