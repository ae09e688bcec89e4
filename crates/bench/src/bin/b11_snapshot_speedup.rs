//! B11 — snapshot/restore hot-path speedup.
//!
//! Runs the same E1-class SCIFI campaign (full scan-reachable fault
//! space, seed 0xE1) twice per mode: once on the slow path (every
//! experiment re-downloads the workload and re-executes the pre-trigger
//! prefix) and once on the snapshot path (post-load restore plus
//! monotonic trigger fast-forward). Prints experiments/s for both and the
//! multiplier, and asserts the two paths produce identical records — the
//! speedup is only worth reporting if it is free of behavioural drift.
//!
//! Two configs are timed:
//!
//! * **deep-prefix** (headline): the longest workload (fibonacci), fault
//!   triggers drawn from the last tenth of the run. This is the shape
//!   snapshots exist for — the slow path re-executes ~90% of the workload
//!   before every injection, the fast path restores past it.
//! * **uniform**: bubblesort/crc32/matmul with triggers uniform over the
//!   whole run. Here the post-trigger suffix (which both paths must
//!   execute) bounds the gain, so the multiplier is honest about the
//!   average case.
//!
//! `--quick` shrinks both configs for CI's perf-smoke step; `--per-workload
//! N` and `--workers N` override the defaults (400, and the machine's
//! available parallelism).

use goofi_core::campaign::Campaign;
use goofi_core::monitor::ProgressMonitor;
use goofi_core::runner;
use goofi_thor::ThorTarget;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xE1;

#[derive(Clone, Copy)]
enum Window {
    /// Triggers uniform over the whole reference run.
    Uniform,
    /// Triggers drawn from the last tenth of the reference run.
    Late,
}

fn campaigns(names: &[&str], per_workload: usize, window: Window) -> Vec<Campaign> {
    let data = bench::thor_description();
    names
        .iter()
        .map(|name| {
            let wl = workloads::by_name(name).expect("workload exists");
            let probe = bench::campaign_for(&format!("b11-{name}-probe"), &wl)
                .fault(goofi_core::fault::FaultSpec::single(
                    goofi_core::fault::FaultLocation::Memory { addr: 0, bit: 0 },
                    goofi_core::trigger::Trigger::AfterInstructions(1),
                ))
                .build()
                .unwrap();
            let len = bench::reference_length(&probe);
            let range = match window {
                Window::Uniform => 0..len,
                Window::Late => len - len / 10..len,
            };
            let space = bench::full_scifi_space(&data, range);
            bench::campaign_for(&format!("b11-{name}"), &wl)
                .faults(space.sample_campaign(per_workload, &mut StdRng::seed_from_u64(SEED)))
                .build()
                .unwrap()
        })
        .collect()
}

/// Runs every campaign in `mode`, returning (experiments, seconds).
fn run_serial(campaigns: &[Campaign], snapshots: bool) -> (usize, f64) {
    let started = std::time::Instant::now();
    let mut experiments = 0;
    for campaign in campaigns {
        let result = bench::run_opts(campaign, snapshots);
        experiments += result.records.len();
    }
    (experiments, started.elapsed().as_secs_f64())
}

fn run_sharded(campaigns: &[Campaign], workers: usize, snapshots: bool) -> (usize, f64) {
    let started = std::time::Instant::now();
    let mut experiments = 0;
    for campaign in campaigns {
        let monitor = ProgressMonitor::new(campaign.experiment_count());
        let result = runner::run_campaign_parallel_journaled_opts(
            ThorTarget::default,
            None::<fn() -> Box<dyn envsim::Environment>>,
            campaign,
            &monitor,
            workers,
            None,
            snapshots,
        )
        .expect("campaign failed");
        experiments += result.records.len();
    }
    (experiments, started.elapsed().as_secs_f64())
}

/// Identity check plus serial timing for one config.
fn measure(label: &str, campaigns: &[Campaign]) {
    for campaign in campaigns {
        let slow = bench::run_opts(campaign, false);
        let fast = bench::run_opts(campaign, true);
        assert_eq!(
            slow.reference, fast.reference,
            "{}: reference drifted",
            campaign.name
        );
        assert_eq!(
            slow.records, fast.records,
            "{}: records drifted",
            campaign.name
        );
    }
    let (n, slow_s) = run_serial(campaigns, false);
    let (_, fast_s) = run_serial(campaigns, true);
    let speedup = slow_s / fast_s;
    println!(
        "{label:<24} serial ({n} experiments): slow {:7.1} exp/s, snapshot {:7.1} exp/s -> {speedup:5.1}x",
        n as f64 / slow_s,
        n as f64 / fast_s,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut per_workload = 400usize;
    let mut workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut uniform_names: Vec<&str> = vec!["bubblesort", "crc32", "matmul"];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                per_workload = 60;
                uniform_names = vec!["crc32"];
                i += 1;
            }
            "--per-workload" => {
                per_workload = args[i + 1].parse().expect("bad --per-workload");
                i += 2;
            }
            "--workers" => {
                workers = args[i + 1].parse().expect("bad --workers");
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    println!(
        "B11: snapshot/restore speedup, {per_workload} experiments per workload, seed {SEED:#x}\n"
    );

    let deep = campaigns(&["fibonacci"], per_workload, Window::Late);
    let uniform = campaigns(&uniform_names, per_workload, Window::Uniform);

    measure("deep-prefix (fibonacci)", &deep);
    measure(&format!("uniform ({})", uniform_names.join("/")), &uniform);
    println!("\nidentity checks passed: snapshot-path records == slow-path records\n");

    let (n, slow_s) = run_sharded(&deep, workers, false);
    let (_, fast_s) = run_sharded(&deep, workers, true);
    println!(
        "deep-prefix sharded x{workers} ({n} experiments): slow {:7.1} exp/s, snapshot {:7.1} exp/s -> {:5.1}x",
        n as f64 / slow_s,
        n as f64 / fast_s,
        slow_s / fast_s,
    );
}
