//! RV32I E1 — SCIFI outcome distribution on the second target.
//!
//! The same E1-class experiment as `e1_scifi_outcomes`, pointed at the
//! RV32I core: full scan-reachable fault space over the `internal` chain,
//! seeded sampling, outcome taxonomy per workload. Framework-side
//! everything — fault-space construction, campaign drive, classification,
//! reporting — is byte-for-byte the code that runs the Thor studies; only
//! the `TargetAccess` port behind the interface differs. The bin also
//! times the campaign and prints its throughput; CI's perf-smoke job runs
//! it with `--quick`.

use goofi_analysis::report;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xE1;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut per_workload = 400usize;
    let mut names: Vec<&str> = vec!["rv-fibonacci", "rv-memcpy"];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                per_workload = 60;
                names = vec!["rv-memcpy"];
                i += 1;
            }
            "--per-workload" => {
                per_workload = args[i + 1].parse().expect("bad --per-workload");
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    println!("RV32I E1: SCIFI campaigns, {per_workload} experiments per workload\n");
    let data = bench::riscv_description();

    let mut all = Vec::new();
    let mut experiments = 0usize;
    let mut elapsed = 0.0f64;
    for name in &names {
        let wl = workloads::riscv_by_name(name).expect("workload exists");
        let campaign_probe = bench::riscv_campaign_for(&format!("rv-e1-{name}-probe"), &wl)
            .build()
            .unwrap();
        let len = bench::riscv_reference_length(&campaign_probe);

        let space = bench::internal_fault_space(&data, 0..len);
        let faults = space.sample_campaign(per_workload, &mut StdRng::seed_from_u64(SEED));
        let campaign = bench::riscv_campaign_for(&format!("rv-e1-{name}"), &wl)
            .faults(faults)
            .build()
            .unwrap();
        let started = std::time::Instant::now();
        let result = bench::riscv_run(&campaign);
        elapsed += started.elapsed().as_secs_f64();
        experiments += result.records.len();
        let classified = bench::classify(&result);
        println!(
            "-- workload `{name}` ({len} reference instructions) --\n{}",
            report::outcome_table(&goofi_analysis::stats::CampaignStats::from_classified(
                &classified
            ))
        );
        all.extend(classified);
    }

    let stats = goofi_analysis::stats::CampaignStats::from_classified(&all);
    println!(
        "{}",
        report::full_report("RV32I E1: all workloads combined", &stats)
    );

    let throughput = experiments as f64 / elapsed;
    println!("campaign throughput: {throughput:.1} exp/s ({experiments} experiments)");
}
