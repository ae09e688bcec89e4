//! Cross-crate integration tests: full GOOFI campaigns on the Thor target.
//!
//! These exercise the complete paper workflow — configuration, set-up,
//! fault injection and analysis — through the public API only.

use goofi::analysis::{classify, classify_campaign, queries, stats::CampaignStats, Outcome};
use goofi::core::algorithms::{self, CampaignResult};
use goofi::core::campaign::{Campaign, OutputRegion, TargetSystemData, Technique, Termination};
use goofi::core::fault::{FaultLocation, FaultSpec};
use goofi::core::logging::{LoggingMode, TerminationCause};
use goofi::core::monitor::ProgressMonitor;
use goofi::core::trigger::Trigger;
use goofi::core::{dbio, runner};
use goofi::envsim::{DcMotor, NullEnvironment};
use goofi::goofi_thor::ThorTarget;
use goofi::goofidb::Database;
use goofi::targets::{Program, TargetKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Thor library program called `name`.
fn program(name: &str) -> Program {
    TargetKind::Thor.program(name).expect(name)
}

fn scan_loc(cell: &str, bit: usize) -> FaultLocation {
    FaultLocation::ScanCell {
        chain: "internal".into(),
        cell: cell.into(),
        bit,
    }
}

fn base_campaign(name: &str, wl: &Program) -> goofi::core::campaign::CampaignBuilder {
    Campaign::builder(name)
        .target_system("thor-rd")
        .workload(wl.image.clone())
        .observe_chains(["internal"])
        .output(wl.output)
        .termination(Termination {
            max_instructions: 500_000,
            max_iterations: None,
        })
}

#[test]
fn crafted_faults_cover_all_outcome_categories() {
    let wl = program("bubblesort");
    let result_addr = match wl.output {
        OutputRegion::Memory { addr, .. } => addr,
        OutputRegion::Ports => unreachable!(),
    };
    let campaign = base_campaign("crafted", &wl)
        // (0) Overwritten: R1 is overwritten by the first instruction.
        .fault(FaultSpec::single(
            scan_loc("R1", 3),
            Trigger::AfterInstructions(0),
        ))
        // (1) Latent: R11 is never used by the workload.
        .fault(FaultSpec::single(
            scan_loc("R11", 7),
            Trigger::AfterInstructions(10),
        ))
        // (2) Detected: PC forced far outside the code segment.
        .fault(FaultSpec::single(
            scan_loc("PC", 14),
            Trigger::AfterInstructions(20),
        ))
        // (3) Escaped: corrupt a high bit of an array element mid-sort —
        // the sorted output is wrong, and nothing detects data-value errors.
        .fault(FaultSpec::single(
            FaultLocation::Memory {
                addr: result_addr + 5,
                bit: 30,
            },
            Trigger::AfterInstructions(50),
        ))
        .build()
        .unwrap();

    let mut target = ThorTarget::default();
    let monitor = ProgressMonitor::new(campaign.experiment_count());
    let result =
        algorithms::faultinjector_scifi(&mut target, &campaign, &monitor, &mut NullEnvironment)
            .unwrap();

    assert_eq!(result.reference.termination, TerminationCause::WorkloadEnd);
    let outcomes: Vec<Outcome> = result
        .records
        .iter()
        .map(|r| classify(&result.reference, r))
        .collect();
    assert_eq!(outcomes[0], Outcome::Overwritten, "{:?}", result.records[0]);
    assert_eq!(outcomes[1], Outcome::Latent);
    assert!(
        matches!(&outcomes[2], Outcome::Detected { mechanism } if mechanism == "control_flow"),
        "{:?}",
        outcomes[2]
    );
    assert!(
        matches!(outcomes[3], Outcome::Escaped { .. }),
        "{:?}",
        outcomes[3]
    );

    // The monitor saw every experiment.
    let progress = monitor.snapshot();
    assert_eq!(progress.completed, 4);
    assert_eq!(progress.fraction(), 1.0);
}

#[test]
fn random_scifi_campaign_is_deterministic_and_classifiable() {
    let wl = program("crc32");
    let target_data = TargetSystemData::from_target(&ThorTarget::default(), "thor sim");
    let space = target_data.fault_space(None, 0..2_000);
    let faults = space.sample_campaign(40, &mut StdRng::seed_from_u64(1234));
    let campaign = base_campaign("rand-scifi", &wl)
        .faults(faults)
        .build()
        .unwrap();

    let run = |campaign: &Campaign| -> CampaignResult {
        let mut target = ThorTarget::default();
        let monitor = ProgressMonitor::new(campaign.experiment_count());
        algorithms::faultinjector_scifi(&mut target, campaign, &monitor, &mut NullEnvironment)
            .unwrap()
    };
    let a = run(&campaign);
    let b = run(&campaign);
    assert_eq!(a, b, "campaigns must be fully reproducible");

    let classified = classify_campaign(&a.reference, &a.records);
    assert_eq!(classified.len(), 40);
    let stats = CampaignStats::from_classified(&classified);
    assert_eq!(stats.total, 40);
    let sum: usize = stats.by_category.values().sum();
    assert_eq!(sum, 40);
}

#[test]
fn swifi_preruntime_campaign_runs() {
    let wl = program("primes");
    // Flip bits across the code segment: expect plenty of detections
    // (illegal opcode / control flow) and some escapes.
    let faults: Vec<FaultSpec> = (0..20)
        .map(|i| {
            FaultSpec::single(
                FaultLocation::Memory {
                    addr: (i * 7) % wl.image.code_words,
                    bit: ((i * 11) % 32) as u8,
                },
                Trigger::PreRuntime,
            )
        })
        .collect();
    let campaign = base_campaign("swifi-pre", &wl)
        .technique(Technique::SwifiPreRuntime)
        .faults(faults)
        .build()
        .unwrap();
    let mut target = ThorTarget::default();
    let monitor = ProgressMonitor::new(campaign.experiment_count());
    let result =
        algorithms::faultinjector_swifi(&mut target, &campaign, &monitor, &mut NullEnvironment)
            .unwrap();
    assert_eq!(result.records.len(), 20);
    let classified = classify_campaign(&result.reference, &result.records);
    // Code corruption must produce at least one effective error.
    assert!(
        classified.iter().any(|c| c.outcome.is_effective()),
        "{classified:?}"
    );
}

#[test]
fn technique_dispatch_is_enforced() {
    let wl = program("primes");
    let scifi = base_campaign("c-scifi", &wl)
        .fault(FaultSpec::single(
            scan_loc("R1", 0),
            Trigger::AfterInstructions(1),
        ))
        .build()
        .unwrap();
    let mut target = ThorTarget::default();
    let monitor = ProgressMonitor::new(1);
    assert!(
        algorithms::faultinjector_swifi(&mut target, &scifi, &monitor, &mut NullEnvironment)
            .is_err()
    );
}

#[test]
fn control_loop_campaign_with_environment() {
    let wl = program("pi-control");
    let campaign = base_campaign("control", &wl)
        .termination(Termination {
            max_instructions: 2_000_000,
            max_iterations: Some(120),
        })
        .fault(FaultSpec::single(
            scan_loc("R10", 28),
            Trigger::AfterInstructions(900),
        ))
        .fault(FaultSpec::single(
            scan_loc("R3", 2),
            Trigger::AfterInstructions(1_500),
        ))
        .build()
        .unwrap();
    let mut target = ThorTarget::default();
    let monitor = ProgressMonitor::new(campaign.experiment_count());
    let mut motor = DcMotor::new();
    let result =
        algorithms::faultinjector_scifi(&mut target, &campaign, &monitor, &mut motor).unwrap();
    // The reference run completes its 120 iterations.
    assert_eq!(
        result.reference.termination,
        TerminationCause::IterationLimit
    );
    assert_eq!(result.reference.state.iterations, 120);
    // The controller converged to the set point in the reference run.
    let out = result.reference.state.outputs[0] as i32;
    assert!(out.abs() < 20_000, "control output {out}");
    // A huge bit flip in the integral accumulator (R10 bit 28) is caught by
    // the workload's executable assertion or escapes as a failure; either
    // way it must be effective.
    let o = classify(&result.reference, &result.records[0]);
    assert!(o.is_effective(), "{o:?}");
}

#[test]
fn database_workflow_and_automatic_analysis() {
    let wl = program("fibonacci");
    let target_data = TargetSystemData::from_target(&ThorTarget::default(), "thor sim");
    let space = target_data.fault_space(Some(0..wl.image.words.len() as u32), 0..3_000);
    let faults = space.sample_campaign(25, &mut StdRng::seed_from_u64(7));
    let campaign = base_campaign("db-campaign", &wl)
        .faults(faults)
        .build()
        .unwrap();

    let mut target = ThorTarget::default();
    let monitor = ProgressMonitor::new(campaign.experiment_count());
    let result =
        algorithms::run_campaign(&mut target, &campaign, &monitor, &mut NullEnvironment).unwrap();

    // Store everything per the Figure 4 schema.
    let mut db = Database::new();
    dbio::init_schema(&mut db).unwrap();
    dbio::store_target_system(&mut db, &target_data).unwrap();
    dbio::store_campaign(&mut db, &campaign).unwrap();
    dbio::store_result(&mut db, &result).unwrap();
    db.check_integrity().unwrap();

    // Campaign round-trips.
    assert_eq!(dbio::load_campaign(&db, "db-campaign").unwrap(), campaign);
    let loaded = dbio::load_experiments(&db, "db-campaign").unwrap();
    assert_eq!(loaded.len(), 26); // reference + 25

    // Automatic analysis (§4 extension) and SQL reporting.
    let classified = queries::analyse_campaign(&mut db, "db-campaign").unwrap();
    assert_eq!(classified.len(), 25);
    let dist = queries::outcome_distribution(&db, "db-campaign").unwrap();
    let total: i64 = dist.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(total, 25);

    // Persistence round-trip preserves the analysis results.
    let restored = Database::load_from_string(&db.save_to_string()).unwrap();
    let dist2 = queries::outcome_distribution(&restored, "db-campaign").unwrap();
    assert_eq!(dist, dist2);

    // Stats computed from DB match stats computed in memory.
    let from_db = queries::campaign_stats(&db, "db-campaign").unwrap();
    let in_memory =
        CampaignStats::from_classified(&classify_campaign(&result.reference, &result.records));
    assert_eq!(from_db, in_memory);
}

#[test]
fn parallel_runner_matches_serial() {
    let wl = program("matmul");
    let target_data = TargetSystemData::from_target(&ThorTarget::default(), "thor sim");
    let space = target_data.fault_space(None, 0..2_000);
    let faults = space.sample_campaign(16, &mut StdRng::seed_from_u64(99));
    let campaign = base_campaign("par", &wl).faults(faults).build().unwrap();

    let mut target = ThorTarget::default();
    let serial = algorithms::run_campaign(
        &mut target,
        &campaign,
        &ProgressMonitor::new(16),
        &mut NullEnvironment,
    )
    .unwrap();

    let parallel = runner::run_campaign_parallel_journaled_opts(
        ThorTarget::default,
        None::<fn() -> Box<dyn goofi::envsim::Environment>>,
        &campaign,
        &ProgressMonitor::new(16),
        4,
        None,
        true,
    )
    .unwrap();

    assert_eq!(serial, parallel);
}

#[test]
fn journaled_campaign_resumes_to_identical_results() {
    use goofi::core::journal::ExperimentJournal;

    let wl = program("crc32");
    let target_data = TargetSystemData::from_target(&ThorTarget::default(), "thor sim");
    let space = target_data.fault_space(None, 0..2_000);
    let faults = space.sample_campaign(8, &mut StdRng::seed_from_u64(5));
    let campaign = base_campaign("journal-e2e", &wl)
        .faults(faults)
        .build()
        .unwrap();

    let path = std::env::temp_dir().join(format!("goofi-e2e-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let mut journal = ExperimentJournal::create(&path, &campaign.name).unwrap();
    let full = runner::run_campaign_parallel_journaled_opts(
        ThorTarget::default,
        None::<fn() -> Box<dyn goofi::envsim::Environment>>,
        &campaign,
        &ProgressMonitor::new(8),
        3,
        Some(&mut journal),
        true,
    )
    .unwrap();
    drop(journal);

    // Simulate a crash partway through: keep the header, campaign line,
    // reference record and the first two experiment records.
    let text = std::fs::read_to_string(&path).unwrap();
    let keep: String = text.lines().take(5).map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, keep).unwrap();

    let monitor = ProgressMonitor::new(8);
    let resumed = runner::resume_campaign(
        ThorTarget::default,
        None::<fn() -> Box<dyn goofi::envsim::Environment>>,
        &campaign,
        &monitor,
        3,
        &goofi::core::vfs::RealFs,
        &path,
        0..campaign.faults.len(),
    )
    .unwrap();
    assert_eq!(resumed, full, "resume must reproduce the uninterrupted run");
    assert_eq!(monitor.snapshot().fraction(), 1.0);

    // The journal is whole again and a second resume re-runs nothing.
    let state = ExperimentJournal::load(&path, &campaign.name).unwrap();
    assert_eq!(state.completed.len(), 8);
    assert!(state.failed.is_empty());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn detail_rerun_links_parent_and_shows_propagation() {
    let wl = program("crc32");
    // A fault in the CRC accumulator register (r1) mid-computation escapes
    // as an incorrect result.
    let campaign = base_campaign("detail", &wl)
        .fault(FaultSpec::single(
            scan_loc("R1", 13),
            Trigger::AfterInstructions(400),
        ))
        .build()
        .unwrap();
    let mut target = ThorTarget::default();
    let monitor = ProgressMonitor::new(1);
    let result =
        algorithms::faultinjector_scifi(&mut target, &campaign, &monitor, &mut NullEnvironment)
            .unwrap();
    let outcome = classify(&result.reference, &result.records[0]);
    assert!(matches!(outcome, Outcome::Escaped { .. }), "{outcome:?}");

    // Re-run in detail mode (paper §2.3): reference trace vs faulty trace.
    let mut detail_campaign = campaign.clone();
    detail_campaign.logging = LoggingMode::Detail;
    let detailed_ref =
        algorithms::make_reference_run(&mut target, &detail_campaign, &mut NullEnvironment)
            .unwrap();
    let detailed =
        algorithms::rerun_detailed(&mut target, &detail_campaign, 0, &mut NullEnvironment).unwrap();
    assert_eq!(detailed.parent.as_deref(), Some("detail/exp00000"));
    assert!(!detailed.trace.is_empty());
    assert!(!detailed_ref.trace.is_empty());

    let prop = goofi::analysis::propagation::analyse(&detailed_ref.trace, &detailed.trace);
    let first = prop.first_divergence.expect("fault must show in the trace");
    // Divergence appears at/after the injection point, not before.
    assert!(first >= 399, "diverged at step {first}");
    assert!(prop.peak_bits() > 0);
}

#[test]
fn dead_fault_in_control_loop_is_non_effective() {
    // Regression: experiments must start from exactly the reference run's
    // initial conditions (including input-port latches), so a fault in a
    // register the workload never touches cannot change the outputs.
    let wl = program("pi-control-ber");
    let campaign = base_campaign("dead-ctl", &wl)
        .termination(Termination {
            max_instructions: 3_000_000,
            max_iterations: Some(200),
        })
        .fault(FaultSpec::single(
            scan_loc("R11", 5),
            Trigger::AfterInstructions(1_000),
        ))
        .build()
        .unwrap();
    let mut target = ThorTarget::default();
    let mut engine = goofi::envsim::JetEngine::new();
    let result = algorithms::run_campaign(
        &mut target,
        &campaign,
        &ProgressMonitor::new(1),
        &mut engine,
    )
    .unwrap();
    assert_eq!(
        result.records[0].state.outputs, result.reference.state.outputs,
        "a dead fault must not perturb the control trajectory"
    );
    assert_eq!(
        classify(&result.reference, &result.records[0]),
        Outcome::Latent
    );
}

#[test]
fn pin_level_fault_injection_through_boundary_chain() {
    // Pin-level FI (the paper's third technique) forces a bit on the
    // sensor input pin of the PI controller mid-run: the implausible
    // reading must trip the workload's input assertion.
    let wl = program("pi-control");
    let campaign = base_campaign("pin", &wl)
        .technique(Technique::PinLevel)
        .termination(Termination {
            max_instructions: 3_000_000,
            max_iterations: Some(200),
        })
        .fault(goofi::core::fault::FaultSpec {
            locations: vec![FaultLocation::ScanCell {
                chain: "boundary".into(),
                cell: "IN_PORT0".into(),
                bit: 30,
            }],
            model: goofi::core::fault::FaultModel::StuckAtOne,
            trigger: Trigger::AfterInstructions(1_000),
        })
        .build()
        .unwrap();
    let mut target = ThorTarget::default();
    let mut motor = DcMotor::new();
    let result = goofi::core::algorithms::faultinjector_pinlevel(
        &mut target,
        &campaign,
        &ProgressMonitor::new(1),
        &mut motor,
    )
    .unwrap();
    match &result.records[0].termination {
        TerminationCause::Detected(d) => assert_eq!(d.mechanism, "assertion"),
        other => panic!("expected input assertion, got {other:?}"),
    }
    // Technique dispatch is enforced for pin-level too.
    let mut scifi = campaign.clone();
    scifi.technique = Technique::Scifi;
    assert!(goofi::core::algorithms::faultinjector_pinlevel(
        &mut target,
        &scifi,
        &ProgressMonitor::new(1),
        &mut motor,
    )
    .is_err());
}

#[test]
fn memory_based_environment_exchange_on_real_target() {
    // A control loop communicating through memory locations instead of
    // ports (§3.2): reads `sensor`, writes `sensor + 1` to `outv`.
    let image = thor::asm::assemble(
        r"
    loop:
        ld   r1, r0, sensor
        addi r2, r1, 1
        st   r0, r2, outv
        sync 0
        br   loop
    .data
    sensor: .word 0
    outv:   .word 0
    ",
    )
    .unwrap();
    let sensor = image.label("sensor").unwrap();
    let outv = image.label("outv").unwrap();
    let campaign = Campaign::builder("mem-exchange")
        .workload(goofi::core::campaign::WorkloadImage {
            name: "echo".into(),
            words: image.words.clone(),
            code_words: image.code_words,
            entry: image.entry,
        })
        .observe_chains(["internal"])
        .output(OutputRegion::Memory { addr: outv, len: 1 })
        .env_exchange(goofi::core::campaign::EnvExchange::Memory {
            outputs: vec![outv],
            inputs: vec![sensor],
        })
        .termination(Termination {
            max_instructions: 10_000,
            max_iterations: Some(4),
        })
        .fault(FaultSpec::single(
            scan_loc("R9", 0),
            Trigger::AfterInstructions(9_999),
        ))
        .build()
        .unwrap();

    let mut target = ThorTarget::default();
    let mut env = goofi::envsim::ScriptedEnvironment::new(vec![vec![10], vec![20], vec![30]]);
    let result =
        algorithms::run_campaign(&mut target, &campaign, &ProgressMonitor::new(1), &mut env)
            .unwrap();
    assert_eq!(
        result.reference.termination,
        TerminationCause::IterationLimit
    );
    // Iterations: out=1 (sensor 0), exchange sets sensor=10; out=11,
    // sensor=20; out=21, sensor=30; out=31 -> iteration limit.
    assert_eq!(result.reference.state.outputs, vec![31]);
}

#[test]
fn stopping_a_campaign_midway() {
    let wl = program("primes");
    let faults: Vec<FaultSpec> = (0..10)
        .map(|i| FaultSpec::single(scan_loc("R1", i), Trigger::AfterInstructions(50)))
        .collect();
    let campaign = base_campaign("stopme", &wl).faults(faults).build().unwrap();
    let monitor = ProgressMonitor::new(10);
    monitor.stop();
    let mut target = ThorTarget::default();
    let err = algorithms::run_campaign(&mut target, &campaign, &monitor, &mut NullEnvironment)
        .unwrap_err();
    assert!(matches!(err, goofi::core::GoofiError::Stopped));
}

#[test]
fn trigger_beyond_workload_end_logs_natural_termination() {
    let wl = program("fibonacci");
    let campaign = base_campaign("late", &wl)
        .fault(FaultSpec::single(
            scan_loc("R1", 0),
            Trigger::AfterInstructions(100_000_000),
        ))
        .build()
        .unwrap();
    let mut target = ThorTarget::default();
    let result = algorithms::run_campaign(
        &mut target,
        &campaign,
        &ProgressMonitor::new(1),
        &mut NullEnvironment,
    )
    .unwrap();
    assert_eq!(result.records[0].termination, TerminationCause::WorkloadEnd);
    // Never injected -> overwritten.
    assert_eq!(
        classify(&result.reference, &result.records[0]),
        Outcome::Overwritten
    );
}
