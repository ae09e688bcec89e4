//! Rejoining the golden run changes no record.
//!
//! A snapshot session records the fault-free run once and ends an
//! experiment as soon as its target state rejoins it (see
//! `algorithms::ExperimentSession`). These tests hold that shortcut to the
//! slow path on both CPUs: every record of a campaign run with snapshots
//! must equal, in name, fault, termination, logged state and validity, the
//! record of the same campaign run without a session (`--no-snapshot`).
//! They cover the widest scan fault space of each CPU plus SWIFI memory
//! faults, every case that must not rejoin (records that observe the
//! caches and the debug unit, a tight cycle budget, persistent fault
//! models, detail logging, a control loop, a decorated target stack), and
//! count the rejoins through the `rejoined` metric.

use goofi::core::algorithms::{self, CampaignResult};
use goofi::core::campaign::{Campaign, CampaignBuilder, TargetSystemData, Technique, Termination};
use goofi::core::fault::{FaultLocation, FaultModel, FaultSpace, FaultSpec};
use goofi::core::link::{UnreliableTarget, VerifiedTarget};
use goofi::core::logging::{ExperimentRecord, LoggingMode, TerminationCause};
use goofi::core::monitor::ProgressMonitor;
use goofi::core::policy::{ExperimentPolicy, WatchdogBudget};
use goofi::core::telemetry::{Metric, Telemetry};
use goofi::core::trigger::Trigger;
use goofi::core::{RunBudget, RunEvent, TargetAccess};
use goofi::envsim::{DcMotor, Environment, NullEnvironment};
use goofi::scanchain::LinkFaultConfig;
use goofi::targets::TargetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Terminating programs per CPU.
fn programs(kind: TargetKind) -> &'static [&'static str] {
    match kind {
        TargetKind::Thor => &["bubblesort", "crc32", "matmul", "fibonacci"],
        TargetKind::Riscv => &["rv-fibonacci", "rv-memcpy"],
    }
}

/// The `goofi new` campaign shape: the internal chain observed, outputs
/// and a memory digest logged.
fn builder(kind: TargetKind, program: &str) -> CampaignBuilder {
    let library = kind.program(program).unwrap();
    Campaign::builder(format!("rejoin-{program}"))
        .target_system(kind.system_name())
        .workload(library.image)
        .observe_chains(["internal"])
        .output(library.output)
        .termination(Termination {
            max_instructions: 500_000,
            max_iterations: None,
        })
}

/// Every writable scan cell of the CPU's core and caches (Thor: internal,
/// icache, dcache; RV32I: internal), triggers uniform over the whole
/// reference run.
fn scan_space(kind: TargetKind, program: &str) -> FaultSpace {
    let len = reference(kind, &builder(kind, program)).state.instructions;
    let data = TargetSystemData::from_target(&*kind.build(), kind.description());
    let mut space = data.fault_space(None, 0..len);
    space
        .scan_cells
        .retain(|(chain, _, _)| matches!(chain.as_str(), "internal" | "icache" | "dcache"));
    space
}

fn reference(kind: TargetKind, builder: &CampaignBuilder) -> ExperimentRecord {
    let probe = builder
        .clone()
        .fault(FaultSpec::single(
            FaultLocation::Memory { addr: 0, bit: 0 },
            Trigger::AfterInstructions(1),
        ))
        .build()
        .unwrap();
    algorithms::make_reference_run(&mut kind.build(), &probe, &mut NullEnvironment).unwrap()
}

/// SWIFI campaigns: pre-runtime flips anywhere in the image, and runtime
/// flips in the data area spread over the reference run.
fn swifi_campaigns(kind: TargetKind, program: &str, n: usize, seed: u64) -> [Campaign; 2] {
    let image = kind.program(program).unwrap().image;
    let len = reference(kind, &builder(kind, program)).state.instructions;
    let words = image.words.len() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sample = |memory, time_window| {
        let space = FaultSpace {
            scan_cells: Vec::new(),
            memory: Some(memory),
            time_window,
        };
        space.sample_campaign(n, &mut rng)
    };
    let mut before = sample(0..words, 0..1);
    for f in &mut before {
        f.trigger = Trigger::PreRuntime;
    }
    let during = sample(image.code_words..words.max(image.code_words + 64), 0..len);
    [
        (Technique::SwifiPreRuntime, before),
        (Technique::SwifiRuntime, during),
    ]
    .map(|(technique, faults)| {
        builder(kind, program)
            .technique(technique)
            .faults(faults)
            .build()
            .unwrap()
    })
}

/// Runs `campaign` serially, with or without a snapshot session, and
/// returns the result and how many experiments rejoined.
fn run_on(
    target: &mut dyn TargetAccess,
    campaign: &Campaign,
    env: &mut dyn Environment,
    snapshots: bool,
) -> (CampaignResult, u64) {
    let monitor =
        ProgressMonitor::with_telemetry(campaign.experiment_count(), Telemetry::enabled());
    let result = algorithms::run_campaign_journaled_opts(
        target, campaign, &monitor, env, None, None, snapshots,
    )
    .unwrap();
    let rejoined = monitor
        .telemetry()
        .metrics()
        .unwrap()
        .counter(Metric::Rejoined.encode());
    (result, rejoined)
}

/// What a record must reproduce across execution modes.
fn essence(r: &ExperimentRecord) -> String {
    format!(
        "{} {} {} {} {}",
        r.name,
        r.fault.as_ref().map_or_else(String::new, FaultSpec::encode),
        r.termination.encode(),
        r.state.encode(),
        r.validity.encode()
    )
}

/// Runs `campaign` on the snapshot path and on the slow path, asserts the
/// records are identical, and returns the snapshot path's rejoin count.
fn fast_equals_slow(
    kind: TargetKind,
    campaign: &Campaign,
    env: fn() -> Box<dyn Environment>,
) -> u64 {
    let (fast, rejoined) = run_on(&mut *kind.build(), campaign, &mut *env(), true);
    let (slow, none) = run_on(&mut *kind.build(), campaign, &mut *env(), false);
    assert_eq!(
        none, 0,
        "{}: the slow path has no session to rejoin",
        campaign.name
    );
    assert_eq!(essence(&fast.reference), essence(&slow.reference));
    assert_eq!(fast.records.len(), campaign.experiment_count());
    assert_eq!(fast.records.len(), slow.records.len());
    for (f, s) in fast.records.iter().zip(&slow.records) {
        assert_eq!(essence(f), essence(s), "{}", campaign.name);
    }
    rejoined
}

fn null_env() -> Box<dyn Environment> {
    Box::new(NullEnvironment)
}

#[test]
fn rejoined_records_equal_the_slow_path_over_the_widest_fault_space_on_both_cpus() {
    for kind in TargetKind::ALL {
        for (p, program) in programs(kind).iter().enumerate() {
            let scifi = scan_space(kind, program)
                .sample_campaign(500, &mut StdRng::seed_from_u64(0xE1 + p as u64));
            let campaign = builder(kind, program).faults(scifi).build().unwrap();
            let rejoined = fast_equals_slow(kind, &campaign, null_env);
            if kind == TargetKind::Thor {
                assert!(
                    rejoined * 100 >= 40 * campaign.experiment_count() as u64,
                    "{program}: only {rejoined} of {} experiments rejoined",
                    campaign.experiment_count()
                );
            }

            for campaign in swifi_campaigns(kind, program, 60, 0x5F + p as u64) {
                fast_equals_slow(kind, &campaign, null_env);
            }
        }
    }
}

#[test]
fn records_that_observe_the_caches_and_the_debug_unit_still_equal_the_slow_path() {
    // Kept cache lines and moved cycle and instruction counters now reach
    // the records through the observed chains.
    let kind = TargetKind::Thor;
    for (p, program) in ["crc32", "matmul"].into_iter().enumerate() {
        let faults =
            scan_space(kind, program).sample_campaign(200, &mut StdRng::seed_from_u64(p as u64));
        let campaign = builder(kind, program)
            .observe_chains(["internal", "icache", "dcache", "debug"])
            .faults(faults)
            .build()
            .unwrap();
        assert!(fast_equals_slow(kind, &campaign, null_env) > 0, "{program}");
    }
}

#[test]
fn a_cycle_budget_just_above_the_golden_run_vetoes_late_rejoins() {
    for kind in TargetKind::ALL {
        let program = programs(kind)[0];
        let golden = reference(kind, &builder(kind, program)).state.cycles;
        let faults = scan_space(kind, program).sample_campaign(150, &mut StdRng::seed_from_u64(9));
        let campaign = builder(kind, program)
            .policy(budget(golden + 1))
            .faults(faults)
            .build()
            .unwrap();
        fast_equals_slow(kind, &campaign, null_env);
    }

    // The budget is checked every 4,096 instructions after the injection.
    // Injected 4,097 instructions before the golden halt, an I-cache miss
    // the golden run does not take (a cleared valid bit) puts three extra
    // cycles on the last check before the halt, which a budget of exactly
    // that check's golden cycles plus three then reaches: the slow path
    // times out there, so the experiment must not rejoin the golden run.
    let kind = TargetKind::Thor;
    let program = "fibonacci";
    let len = reference(kind, &builder(kind, program)).state.instructions;
    let at = len - 4_097;
    let mut target = kind.build();
    target.init_test_card().unwrap();
    target
        .load_workload(&kind.program(program).unwrap().image)
        .unwrap();
    let budget_before = RunBudget {
        max_instructions: len - 1,
    };
    assert_eq!(
        target.run_workload(budget_before).unwrap(),
        RunEvent::BudgetExhausted
    );
    let last_check = target.cycles_executed();
    let lines = TargetSystemData::from_target(&*kind.build(), kind.description())
        .locations
        .into_iter()
        .filter(|(chain, cell, _, _)| chain == "icache" && cell.ends_with(".VALID"));
    let faults = lines.map(|(chain, cell, _, _)| {
        FaultSpec::single(
            FaultLocation::ScanCell {
                chain,
                cell,
                bit: 0,
            },
            Trigger::AfterInstructions(at),
        )
    });
    let campaign = builder(kind, program)
        .policy(budget(last_check + 3))
        .faults(faults)
        .build()
        .unwrap();
    fast_equals_slow(kind, &campaign, null_env);
    let (slow, _) = run_on(&mut *kind.build(), &campaign, &mut NullEnvironment, false);
    assert!(
        slow.records
            .iter()
            .any(|r| r.termination == TerminationCause::Timeout),
        "no experiment reached the budget"
    );
}

fn budget(max_cycles: u64) -> ExperimentPolicy {
    ExperimentPolicy::default().with_watchdog(WatchdogBudget {
        max_cycles: Some(max_cycles),
        max_wall_ms: None,
    })
}

#[test]
fn persistent_faults_and_detail_logging_never_rejoin() {
    for kind in TargetKind::ALL {
        let program = programs(kind)[1];
        let space = scan_space(kind, program);
        let mut faults = space.sample_campaign(60, &mut StdRng::seed_from_u64(3));
        for (i, f) in faults.iter_mut().enumerate() {
            f.model = match i % 3 {
                0 => FaultModel::StuckAtZero,
                1 => FaultModel::StuckAtOne,
                _ => FaultModel::Intermittent {
                    period: 40,
                    bursts: 3,
                },
            };
        }
        let campaign = builder(kind, program).faults(faults).build().unwrap();
        assert_eq!(fast_equals_slow(kind, &campaign, null_env), 0, "{program}");

        let faults = space.sample_campaign(4, &mut StdRng::seed_from_u64(4));
        let campaign = builder(kind, program)
            .logging(LoggingMode::Detail)
            .faults(faults)
            .build()
            .unwrap();
        let (fast, rejoined) = run_on(&mut *kind.build(), &campaign, &mut NullEnvironment, true);
        let (slow, _) = run_on(&mut *kind.build(), &campaign, &mut NullEnvironment, false);
        assert_eq!(rejoined, 0, "{program} in detail mode");
        assert_eq!(fast, slow, "{program} in detail mode");
    }
}

#[test]
fn a_control_loop_with_an_environment_never_rejoins() {
    let kind = TargetKind::Thor;
    let library = kind.program("pi-control").unwrap();
    let data = TargetSystemData::from_target(&*kind.build(), kind.description());
    let mut space = data.fault_space(None, 0..3_000);
    space.scan_cells.retain(|(chain, _, _)| chain == "internal");
    let campaign = Campaign::builder("rejoin-motor")
        .target_system(kind.system_name())
        .workload(library.image)
        .observe_chains(["internal"])
        .output(library.output)
        .termination(Termination {
            max_instructions: 2_000_000,
            max_iterations: Some(40),
        })
        .faults(space.sample_campaign(40, &mut StdRng::seed_from_u64(5)))
        .build()
        .unwrap();
    assert_eq!(
        fast_equals_slow(kind, &campaign, || Box::new(DcMotor::new())),
        0
    );
}

#[test]
fn a_decorated_stack_never_rejoins() {
    for kind in TargetKind::ALL {
        let program = programs(kind)[0];
        let faults = scan_space(kind, program).sample_campaign(60, &mut StdRng::seed_from_u64(6));
        let campaign = builder(kind, program).faults(faults).build().unwrap();
        let mut stack = VerifiedTarget::new(UnreliableTarget::new(
            kind.build(),
            LinkFaultConfig::default(),
        ));
        assert!(!stack.can_rejoin());
        let (decorated, rejoined) = run_on(&mut stack, &campaign, &mut NullEnvironment, true);
        assert_eq!(rejoined, 0);
        let (plain, plain_rejoined) =
            run_on(&mut *kind.build(), &campaign, &mut NullEnvironment, true);
        assert!(plain_rejoined > 0, "{program}: the bare target does rejoin");
        for (d, p) in decorated.records.iter().zip(&plain.records) {
            assert_eq!(essence(d), essence(p));
        }
    }
}
