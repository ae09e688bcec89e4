//! The second-target proof: the framework is generic because the *same*
//! framework-side behaviour falls out whichever CPU sits behind
//! `TargetAccess`.
//!
//! Two layers of evidence:
//!
//! 1. **Conformance** — the `goofi_core::conformance` contract suite passes
//!    for every registered target (`goofi targets`), for the in-process
//!    simulator, for the generic scan-readout fallback, and for every
//!    fault-model decorator stack over both CPUs.
//! 2. **Differential campaigns** — E1-class (SCIFI) and E2-class
//!    (pre-runtime SWIFI) campaigns run against Thor and the RV32I core
//!    with the same campaign shape. Everything the *framework* contributes
//!    to a record — names, parent links, validity, fault bookkeeping,
//!    quarantine topology, resume behaviour — must be bit-identical across
//!    the two CPUs; only the target-measured payload (state digests,
//!    outputs, counters) may differ. The same holds under a faulty link
//!    (quarantine + linked re-runs) and under a wedge drill (hang
//!    recovery), and a truncated journal must resume to the uninterrupted
//!    result on either CPU. On either CPU, one campaign yields the same
//!    records in every execution mode of the campaign engine: slow and
//!    snapshot serial, two loops, resume and merged service shards.

use goofi::core::algorithms;
use goofi::core::campaign::{
    Campaign, CampaignBuilder, TargetSystemData, Termination, WorkloadImage,
};
use goofi::core::conformance::{run_suite, ConformanceSpec, ReadoutFallback, CHECK_NAMES};
use goofi::core::fault::{FaultLocation, FaultSpec};
use goofi::core::journal::ExperimentJournal;
use goofi::core::link::{UnreliableTarget, VerifiedTarget};
use goofi::core::logging::{ExperimentRecord, TerminationCause, Validity};
use goofi::core::monitor::ProgressMonitor;
use goofi::core::policy::{ExperimentPolicy, WatchdogBudget};
use goofi::core::runner;
use goofi::core::supervisor::WedgeableTarget;
use goofi::core::trigger::Trigger;
use goofi::core::{pass_through, TargetAccess};
use goofi::envsim::NullEnvironment;
use goofi::scanchain::{LinkFaultConfig, RecoveryDepth, WedgeConfig};
use goofi::targets::{Program, TargetKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A self-terminating, memory-output library program for each CPU:
/// `crc32` for Thor, `rv-memcpy` for RV32I. Same role on both sides of
/// every differential test below.
fn program_for(kind: TargetKind) -> Program {
    let name = match kind {
        TargetKind::Thor => "crc32",
        TargetKind::Riscv => "rv-memcpy",
    };
    kind.program(name).unwrap()
}

/// A campaign builder with the same framework-side shape on either CPU:
/// same name, same observed chain, same termination policy — only the
/// workload image and target-system name differ.
fn campaign_for(kind: TargetKind, name: &str) -> CampaignBuilder {
    let program = program_for(kind);
    Campaign::builder(name)
        .target_system(kind.system_name())
        .workload(program.image)
        .observe_chains(["internal"])
        .output(program.output)
        .termination(Termination {
            max_instructions: 500_000,
            max_iterations: None,
        })
}

/// E1-class SCIFI faults for a CPU: sampled from that CPU's own
/// architectural fault space (the chains differ between the ISAs, so the
/// *content* is per-CPU; the sampling parameters are shared).
fn scifi_faults(kind: TargetKind, n: usize, seed: u64) -> Vec<FaultSpec> {
    let data = TargetSystemData::from_target(&*kind.build(), kind.description());
    let mut space = data.fault_space(None, 0..200);
    space.scan_cells.retain(|(chain, _, _)| chain == "internal");
    space.sample_campaign(n, &mut StdRng::seed_from_u64(seed))
}

/// E2-class pre-runtime SWIFI faults: memory bit flips are expressed in
/// target-agnostic units, so both CPUs get the *same* fault list.
fn swifi_faults() -> Vec<FaultSpec> {
    let mut faults = Vec::new();
    for addr in 0..4u32 {
        for bit in (0..32u8).step_by(4) {
            faults.push(FaultSpec::single(
                FaultLocation::Memory { addr, bit },
                Trigger::PreRuntime,
            ));
        }
    }
    faults
}

fn run_serial(kind: TargetKind, campaign: &Campaign) -> algorithms::CampaignResult {
    let mut target = kind.build();
    algorithms::run_campaign(
        &mut target,
        campaign,
        &ProgressMonitor::new(campaign.experiment_count()),
        &mut NullEnvironment,
    )
    .unwrap()
}

/// Everything the *framework* contributes to a record — the part that must
/// be bit-identical whichever CPU ran the experiment. The target-measured
/// payload (state, termination detail, counters) is deliberately absent.
fn framework_essence(r: &ExperimentRecord) -> (String, Option<String>, String, bool, Validity) {
    (
        r.name.clone(),
        r.parent.clone(),
        r.campaign.clone(),
        r.fault.is_some(),
        r.validity,
    )
}

#[test]
fn conformance_suite_passes_for_every_registered_target() {
    for kind in TargetKind::ALL {
        let image = program_for(kind).image;
        let mut spec = ConformanceSpec::new(format!("{} native", kind.flag()), image);
        spec.expect_name = Some(kind.system_name().to_string());
        spec.expect_snapshot = Some(true);
        spec.expect_prefix_safe = Some(true);
        spec.counters_restored = true; // native snapshots capture counters

        let mut target = kind.build();
        let report = run_suite(&mut target, &spec);
        assert!(report.passed(), "{report}");
        assert_eq!(report.checks.len(), CHECK_NAMES.len());
    }
}

#[test]
fn conformance_suite_passes_for_the_simulator_and_readout_fallbacks() {
    // The in-process simulator target the service stack tests against.
    let sim_image = WorkloadImage {
        name: "sim-conformance".into(),
        words: vec![20, 0],
        code_words: 2,
        entry: 0,
    };
    let mut spec = ConformanceSpec::new("sim native", sim_image);
    spec.expect_name = Some("sim".into());
    spec.expect_snapshot = Some(true);
    spec.expect_prefix_safe = Some(true);
    spec.counters_restored = true;
    let report = run_suite(&mut goofi::core::framework::SimTarget::new(), &spec);
    assert!(report.passed(), "{report}");

    // The generic scan-readout fallback over both real CPUs: a port with
    // no native snapshot gets working state capture from its scan chains
    // alone. Counters live outside the chains, so they are not restored.
    for kind in TargetKind::ALL {
        let image = program_for(kind).image;
        let mut spec = ConformanceSpec::new(format!("{} via readout fallback", kind.flag()), image);
        spec.expect_name = Some(kind.system_name().to_string());
        spec.expect_snapshot = Some(true);
        spec.counters_restored = false;
        let mut target = ReadoutFallback::new(kind.build());
        let report = run_suite(&mut target, &spec);
        assert!(report.passed(), "{report}");
    }
}

#[test]
fn conformance_suite_passes_for_every_decorator_stack_over_both_cpus() {
    for kind in TargetKind::ALL {
        let image = program_for(kind).image;
        let spec_for = |label: &str| {
            let mut spec = ConformanceSpec::new(format!("{label}({})", kind.flag()), image.clone());
            spec.expect_name = Some(kind.system_name().to_string());
            spec.expect_snapshot = Some(true);
            spec.expect_prefix_safe = Some(true);
            spec.counters_restored = true;
            spec
        };

        // Verified link.
        let report = run_suite(
            &mut VerifiedTarget::new(kind.build()),
            &spec_for("verified"),
        );
        assert!(report.passed(), "{report}");

        // Healthy (zero-rate) lossy link.
        let report = run_suite(
            &mut UnreliableTarget::new(kind.build(), LinkFaultConfig::default()),
            &spec_for("unreliable"),
        );
        assert!(report.passed(), "{report}");

        // Wedge drill over a verified link: forwards everything, but its
        // seeded per-run draws make prefix-skips unsafe — the capability
        // bit must survive the whole stack, on either CPU.
        let mut spec = spec_for("wedgeable+verified");
        spec.expect_prefix_safe = Some(false);
        let report = run_suite(
            &mut WedgeableTarget::new(VerifiedTarget::new(kind.build()), WedgeConfig::default()),
            &spec,
        );
        assert!(report.passed(), "{report}");
    }
}

/// Both ports share one generic snapshot payload, so only its CPU type
/// parameter keeps one CPU's capture out of the other: a restore across
/// CPUs must fail and leave the target exactly as it was.
#[test]
fn a_snapshot_from_the_other_cpu_is_refused_and_changes_nothing() {
    let started = |kind: TargetKind| {
        let mut target = kind.build();
        target.init_test_card().unwrap();
        target.load_workload(&program_for(kind).image).unwrap();
        let budget = goofi::core::RunBudget {
            max_instructions: 50,
        };
        target.run_workload(budget).unwrap();
        target
    };
    let observe = |target: &mut Box<dyn TargetAccess>| {
        let len = target.memory_size() as usize;
        (
            target.memory_digest(len).unwrap(),
            target.instructions_executed(),
            target.read_scan_chain("internal").unwrap(),
        )
    };
    for from in TargetKind::ALL {
        for into in TargetKind::ALL.into_iter().filter(|&k| k != from) {
            let snapshot = started(from).snapshot().unwrap();
            let mut target = started(into);
            let before = observe(&mut target);
            assert!(
                target.restore(&snapshot).is_err(),
                "{from} snapshot restored into {into}"
            );
            assert_eq!(observe(&mut target), before, "{from} into {into}");
        }
    }
}

#[test]
fn e1_scifi_framework_essence_is_bit_identical_across_cpus() {
    let mut essences = Vec::new();
    for kind in TargetKind::ALL {
        let campaign = campaign_for(kind, "diff-e1")
            .faults(scifi_faults(kind, 24, 0xD1FF))
            .build()
            .unwrap();
        let result = run_serial(kind, &campaign);
        let again = run_serial(kind, &campaign);
        assert_eq!(result, again, "{kind}: campaign must be deterministic");

        // Per-CPU internal consistency: record i carries fault i.
        assert_eq!(result.records.len(), campaign.faults.len());
        for (i, r) in result.records.iter().enumerate() {
            assert_eq!(r.fault.as_ref(), Some(&campaign.faults[i]), "{kind}");
        }
        assert!(result.reference.fault.is_none());
        assert_eq!(result.reference.name, "diff-e1/reference");

        let mut essence: Vec<_> = result.records.iter().map(framework_essence).collect();
        essence.push(framework_essence(&result.reference));
        essences.push(essence);
    }
    // The framework-side record structure must not depend on the CPU.
    assert_eq!(
        essences[0], essences[1],
        "E1 record essence differs between CPUs"
    );
}

#[test]
fn e2_swifi_framework_essence_is_bit_identical_across_cpus() {
    // Pre-runtime memory flips are target-agnostic, so here even the fault
    // lists themselves are shared verbatim between the two campaigns.
    let faults = swifi_faults();
    let mut essences = Vec::new();
    for kind in TargetKind::ALL {
        let campaign = campaign_for(kind, "diff-e2")
            .technique(goofi::core::campaign::Technique::SwifiPreRuntime)
            .faults(faults.clone())
            .build()
            .unwrap();
        let result = run_serial(kind, &campaign);
        assert!(result.quarantined.is_empty());
        assert!(result.failures.is_empty());
        let essence: Vec<_> = result.records.iter().map(framework_essence).collect();
        // The injected faults round-trip identically on both CPUs.
        for (i, r) in result.records.iter().enumerate() {
            assert_eq!(r.fault.as_ref(), Some(&faults[i]), "{kind}");
        }
        essences.push(essence);
    }
    assert_eq!(
        essences[0], essences[1],
        "E2 record essence differs between CPUs"
    );
}

#[test]
fn truncated_journal_resumes_to_the_uninterrupted_result_on_either_cpu() {
    for kind in TargetKind::ALL {
        let campaign = campaign_for(kind, "diff-resume")
            .faults(scifi_faults(kind, 8, 0x0E5))
            .build()
            .unwrap();

        let path = std::env::temp_dir().join(format!(
            "goofi-second-target-{}-{}.journal",
            std::process::id(),
            kind.flag()
        ));
        let _ = std::fs::remove_file(&path);

        let mut journal = ExperimentJournal::create(&path, &campaign.name).unwrap();
        let make_target = move || kind.build();
        let full = runner::run_campaign_parallel_journaled_opts(
            make_target,
            None::<fn() -> Box<dyn goofi::envsim::Environment>>,
            &campaign,
            &ProgressMonitor::new(8),
            3,
            Some(&mut journal),
            true,
        )
        .unwrap();
        drop(journal);

        // Crash partway: keep the header, campaign line, reference record
        // and the first two experiment records.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: String = text.lines().take(5).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, keep).unwrap();

        let monitor = ProgressMonitor::new(8);
        let resumed = runner::resume_campaign(
            make_target,
            None::<fn() -> Box<dyn goofi::envsim::Environment>>,
            &campaign,
            &monitor,
            3,
            &goofi::core::vfs::RealFs,
            &path,
            0..campaign.faults.len(),
        )
        .unwrap();
        assert_eq!(
            resumed, full,
            "{kind}: resume must reproduce the uninterrupted run bit-identically"
        );
        assert_eq!(monitor.snapshot().fraction(), 1.0);
        let _ = std::fs::remove_file(&path);
    }
}

/// The part of a record every execution mode must reproduce.
fn mode_essence(
    r: &ExperimentRecord,
) -> (String, Option<String>, Option<FaultSpec>, String, String) {
    (
        r.name.clone(),
        r.parent.clone(),
        r.fault.clone(),
        r.termination.encode(),
        r.state.encode(),
    )
}

#[test]
fn every_execution_mode_yields_the_same_records_on_either_cpu() {
    type NoEnv = Option<fn() -> Box<dyn goofi::envsim::Environment>>;
    for kind in TargetKind::ALL {
        let campaign = campaign_for(kind, "diff-modes")
            .faults(scifi_faults(kind, 16, 0x40DE))
            .build()
            .unwrap();
        let n = campaign.faults.len();
        let monitor = || ProgressMonitor::new(n);
        let serial = |snapshots: bool, journal: Option<&mut ExperimentJournal>| {
            algorithms::run_campaign_journaled_opts(
                &mut kind.build(),
                &campaign,
                &monitor(),
                &mut NullEnvironment,
                journal,
                None,
                snapshots,
            )
            .unwrap()
        };
        let slow = serial(false, None);
        let mut modes = vec![
            ("snapshot serial", serial(true, None)),
            (
                "workers = 2",
                runner::run_campaign_parallel_journaled_opts(
                    || kind.build(),
                    None as NoEnv,
                    &campaign,
                    &monitor(),
                    2,
                    None,
                    true,
                )
                .unwrap(),
            ),
        ];

        let dir = std::env::temp_dir().join(format!(
            "goofi-second-target-modes-{}-{}",
            std::process::id(),
            kind.flag()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let resume = |workers: usize, journal: &std::path::Path, range: std::ops::Range<usize>| {
            runner::resume_campaign(
                || kind.build(),
                None as NoEnv,
                &campaign,
                &monitor(),
                workers,
                &goofi::core::vfs::RealFs,
                journal,
                range,
            )
            .unwrap()
        };

        // Resume from a journal cut mid-campaign: header, campaign line,
        // reference and the first half of the experiments survive.
        let path = dir.join("cut.journal");
        let mut journal = ExperimentJournal::create(&path, &campaign.name).unwrap();
        serial(true, Some(&mut journal));
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: String = text
            .lines()
            .take(3 + n / 2)
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&path, keep).unwrap();
        modes.push(("resume of a cut journal", resume(2, &path, 0..n)));

        // Two service shards, each over its own journal, merged by index.
        let low = resume(1, &dir.join("shard-0.journal"), 0..n / 2);
        let high = resume(1, &dir.join("shard-1.journal"), n / 2..n);
        assert_eq!(low.reference, high.reference, "{kind}: shard references");
        let mut union = low;
        union.records.extend(high.records);
        modes.push(("union of two shards", union));

        let want: Vec<_> = slow.records.iter().map(mode_essence).collect();
        assert_eq!(want.len(), n);
        for (mode, result) in &modes {
            assert_eq!(
                mode_essence(&result.reference),
                mode_essence(&slow.reference),
                "{kind}, {mode}: reference differs from the slow serial run"
            );
            let got: Vec<_> = result.records.iter().map(mode_essence).collect();
            assert_eq!(
                got, want,
                "{kind}, {mode}: records differ from the slow serial run"
            );
            assert!(result.failures.is_empty() && result.quarantined.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A link decorator whose misbehaviour is scheduled *framework-side*: it
/// corrupts every memory readout while the N-th `run_workload` call is the
/// most recent one. Because the campaign driver issues the same call
/// sequence whatever CPU is behind it, the drift window — and therefore
/// the quarantine topology — lands on the same experiments on both CPUs.
struct DriftingLink<T> {
    inner: T,
    runs: u64,
    corrupt_after_run: u64,
}

impl<T: TargetAccess> DriftingLink<T> {
    fn new(inner: T, corrupt_after_run: u64) -> Self {
        DriftingLink {
            inner,
            runs: 0,
            corrupt_after_run,
        }
    }

    fn drifting(&self) -> bool {
        self.runs == self.corrupt_after_run
    }
}

impl<T: TargetAccess> TargetAccess for DriftingLink<T> {
    // memory_digest keeps the trait default: it routes through this
    // decorator's (possibly drifting) read_memory, like a real lossy link.
    pass_through! { inner:
        target_name, init_test_card, load_workload, reset_target, write_memory,
        flip_memory_bit, memory_size, set_breakpoint, clear_breakpoints, step_instruction,
        chain_layouts, read_scan_chain, write_scan_chain, write_input_ports, read_output_ports,
        instructions_executed, cycles_executed, iterations_completed, step_traced, power_cycle,
        snapshot, restore, supports_snapshot, prefix_restore_safe,
    }
    fn read_memory(&mut self, addr: u32, len: usize) -> goofi::core::Result<Vec<u32>> {
        let mut words = self.inner.read_memory(addr, len)?;
        if self.drifting() {
            for w in &mut words {
                *w ^= 1;
            }
        }
        Ok(words)
    }
    fn run_workload(
        &mut self,
        budget: goofi::core::RunBudget,
    ) -> goofi::core::Result<goofi::core::RunEvent> {
        self.runs += 1;
        self.inner.run_workload(budget)
    }
}

#[test]
fn quarantine_links_are_bit_identical_across_cpus() {
    // Call sequence with revalidate_every = 2 and pre-runtime faults:
    //   run 1: reference   run 2-3: exp0, exp1   run 4: golden re-run
    // The drift window covers exactly run 4 — the golden run reads back
    // corrupted state, the framework quarantines exps 0-1 and re-runs them
    // with parent links. All of that is framework bookkeeping, so the
    // resulting topology must be the same strings on both CPUs.
    let mut outcomes = Vec::new();
    for kind in TargetKind::ALL {
        let campaign = campaign_for(kind, "diff-quarantine")
            .technique(goofi::core::campaign::Technique::SwifiPreRuntime)
            .faults(swifi_faults().into_iter().take(4).collect::<Vec<_>>())
            .policy(ExperimentPolicy::default().with_revalidation(2))
            .build()
            .unwrap();

        let mut target = DriftingLink::new(kind.build(), 4);
        let monitor = ProgressMonitor::new(4);
        let result =
            algorithms::run_campaign(&mut target, &campaign, &monitor, &mut NullEnvironment)
                .unwrap();

        // Quarantined originals kept for audit, all records superseded.
        assert_eq!(result.quarantined.len(), 2, "{kind}");
        assert!(
            result
                .quarantined
                .iter()
                .all(|r| r.validity == Validity::Invalid),
            "{kind}"
        );
        assert!(
            result.records.iter().all(|r| r.validity == Validity::Valid),
            "{kind}"
        );
        assert_eq!(monitor.snapshot().quarantined, 2, "{kind}");

        let reruns: Vec<_> = result.records.iter().map(framework_essence).collect();
        let quarantined: Vec<_> = result.quarantined.iter().map(framework_essence).collect();
        outcomes.push((reruns, quarantined));
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "quarantine topology differs between CPUs"
    );
    // And the linkage itself is the expected literal structure.
    let (records, quarantined) = &outcomes[0];
    assert_eq!(records[0].0, "diff-quarantine/exp00000/rerun1");
    assert_eq!(records[0].1.as_deref(), Some("diff-quarantine/exp00000"));
    assert_eq!(records[1].0, "diff-quarantine/exp00001/rerun1");
    assert_eq!(records[1].1.as_deref(), Some("diff-quarantine/exp00001"));
    assert_eq!(records[2].0, "diff-quarantine/exp00002");
    assert_eq!(quarantined[0].0, "diff-quarantine/exp00000");
    assert_eq!(quarantined[1].0, "diff-quarantine/exp00001");
}

#[test]
fn wedge_recovery_preserves_campaign_essence_on_either_cpu() {
    for kind in TargetKind::ALL {
        let policy = ExperimentPolicy::default()
            .with_watchdog(WatchdogBudget {
                max_cycles: Some(200_000),
                max_wall_ms: None,
            })
            .with_health_check(1_000);
        let campaign = campaign_for(kind, "diff-wedge")
            .technique(goofi::core::campaign::Technique::SwifiPreRuntime)
            .faults(swifi_faults().into_iter().take(4).collect::<Vec<_>>())
            .policy(policy)
            .build()
            .unwrap();

        // Ground truth: the same campaign on a healthy target.
        let healthy = run_serial(kind, &campaign);
        assert!(healthy.recoveries.is_empty(), "{kind}");

        // A wedge that hangs the target once, clearable only by a power
        // cycle. The supervisor must detect it, recover, and re-run the
        // poisoned experiment to the healthy outcome.
        let cfg = WedgeConfig {
            max_events: Some(1),
            recovery: RecoveryDepth::PowerCycle,
            ..WedgeConfig::hang(17, 0.3)
        };
        let mut wedged = WedgeableTarget::new(kind.build(), cfg);
        let monitor = ProgressMonitor::new(4);
        let result =
            algorithms::run_campaign(&mut wedged, &campaign, &monitor, &mut NullEnvironment)
                .unwrap();

        assert_eq!(result.records.len(), healthy.records.len(), "{kind}");
        for (got, want) in result.records.iter().zip(&healthy.records) {
            assert_eq!(got.fault, want.fault, "{kind}");
            assert_eq!(got.termination, want.termination, "{kind}");
            assert_eq!(got.state, want.state, "{kind}");
            assert_eq!(got.validity, Validity::Valid, "{kind}");
        }

        // Exactly one linked re-run replaced the hang; the quarantined
        // original is rewritten to TargetHang and one recovery episode
        // reached the power cycle. Same framework structure, either CPU.
        let reruns: Vec<&ExperimentRecord> = result
            .records
            .iter()
            .filter(|r| r.parent.is_some())
            .collect();
        assert_eq!(reruns.len(), 1, "{kind}: exactly one hang re-run expected");
        let parent = reruns[0].parent.as_deref().unwrap();
        assert_eq!(reruns[0].name, format!("{parent}/rerun1"), "{kind}");
        assert_eq!(result.quarantined.len(), 1, "{kind}");
        assert_eq!(result.quarantined[0].name, parent, "{kind}");
        assert_eq!(
            result.quarantined[0].termination,
            TerminationCause::TargetHang,
            "{kind}"
        );
        assert_eq!(result.recoveries.len(), 1, "{kind}");
        assert_eq!(result.recoveries[0].experiment, parent, "{kind}");
    }
}
