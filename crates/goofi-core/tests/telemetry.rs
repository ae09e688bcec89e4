//! End-to-end tests of the observability layer: spans recorded by a real
//! campaign against a scripted target follow the paper's four-phase
//! workflow, the metrics registry agrees with the progress monitor, the
//! flight recorder survives a mid-campaign failure, and a JSONL trace
//! reproduces the live per-stage histograms (the `report --timings` path).

use goofi_core::algorithms;
use goofi_core::campaign::{Campaign, OutputRegion, Termination, WorkloadImage};
use goofi_core::fault::{FaultModel, FaultSpec};
use goofi_core::monitor::ProgressMonitor;
use goofi_core::telemetry::{
    JsonlSink, MetricsSnapshot, RingSink, SpanKind, SpanRecord, Stage, Telemetry, TraceSink,
};
use goofi_core::trigger::Trigger;
use goofi_core::GoofiError;
use std::sync::Arc;

mod scripted;
use scripted::{temp_path, Scripted};

fn scan_fault(trigger: Trigger) -> FaultSpec {
    scripted::fault_in_a(2, FaultModel::TransientBitFlip, trigger)
}

fn campaign(faults: Vec<FaultSpec>) -> Campaign {
    scripted::campaign("tel-e2e", 1_000)
        .faults(faults)
        .build()
        .unwrap()
}

/// Three well-formed experiments (instruction-count triggers).
fn good_campaign() -> Campaign {
    campaign(vec![
        scan_fault(Trigger::AfterInstructions(10)),
        scan_fault(Trigger::AfterInstructions(20)),
        scan_fault(Trigger::AfterInstructions(30)),
    ])
}

/// Runs `good_campaign` with the given sinks attached; returns the
/// telemetry handle and the monitor after a successful run.
fn run_traced(sinks: Vec<Arc<dyn TraceSink>>) -> (Telemetry, ProgressMonitor) {
    let c = good_campaign();
    let tel = Telemetry::with_sinks(sinks);
    let monitor = ProgressMonitor::with_telemetry(c.experiment_count(), tel.clone());
    let mut target = Scripted::new(100);
    algorithms::run_campaign(&mut target, &c, &monitor, &mut envsim::NullEnvironment).unwrap();
    (tel, monitor)
}

#[test]
fn span_hierarchy_follows_four_phase_workflow() {
    let ring = Arc::new(RingSink::new(4096));
    let (_tel, _monitor) = run_traced(vec![ring.clone()]);
    let spans = ring.buffered();

    // Exactly one campaign span, at the root.
    let campaigns: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Campaign)
        .collect();
    assert_eq!(campaigns.len(), 1, "{spans:#?}");
    let campaign_span = campaigns[0];
    assert_eq!(campaign_span.parent, None);
    assert_eq!(campaign_span.name, "tel-e2e");

    // Reference + three experiments, all parented to the campaign.
    let experiments: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Experiment)
        .collect();
    assert_eq!(experiments.len(), 4);
    for e in &experiments {
        assert_eq!(e.parent, Some(campaign_span.id), "{e:?}");
    }

    // Every experiment goes through set-up (load), execution (run) and
    // state scanning; the fault-injection phase additionally injects in
    // each non-reference experiment.
    for e in &experiments {
        let child_stages: Vec<Stage> = spans
            .iter()
            .filter(|s| s.parent == Some(e.id))
            .filter_map(|s| match s.kind {
                SpanKind::Stage(stage) => Some(stage),
                _ => None,
            })
            .collect();
        assert!(
            child_stages.contains(&Stage::Load),
            "{e:?}: {child_stages:?}"
        );
        assert!(
            child_stages.contains(&Stage::Run),
            "{e:?}: {child_stages:?}"
        );
        assert!(
            child_stages.contains(&Stage::Scan),
            "{e:?}: {child_stages:?}"
        );
        let is_reference = e.name.ends_with("/reference");
        assert_eq!(
            child_stages.contains(&Stage::Inject),
            !is_reference,
            "{e:?}: {child_stages:?}"
        );
    }
}

/// Time-outs are counted apart from the run stage's mean: on an
/// rv-memcpy campaign whose budget lets some internal-chain flips run
/// away, `timed-out` counts the `Timeout` records and
/// `timeout-instructions` what they retired after injection.
#[test]
fn time_outs_count_their_records_and_the_instructions_after_injection() {
    use goofi_core::campaign::TargetSystemData;
    use goofi_core::fault::FaultSpace;
    use goofi_core::logging::TerminationCause;
    use goofi_core::telemetry::Metric;
    use rand::SeedableRng;

    let w = workloads::riscv_memcpy();
    let description = TargetSystemData::from_target(&goofi_riscv::RiscvTarget::default(), "rv32i");
    let space = FaultSpace {
        scan_cells: description
            .locations
            .iter()
            .filter(|(chain, _, _, rw)| *rw && chain == "internal")
            .map(|(chain, cell, width, _)| (chain.clone(), cell.clone(), *width))
            .collect(),
        memory: None,
        time_window: 0..259,
    };
    let campaign = Campaign::builder("rv-timeouts")
        .target_system("rv32i")
        .workload(WorkloadImage {
            name: w.name.clone(),
            words: w.image.words.clone(),
            code_words: w.image.code_words,
            entry: w.image.entry,
        })
        .observe_chains(["internal"])
        .output(OutputRegion::Ports)
        .termination(Termination {
            max_instructions: 5_000,
            max_iterations: None,
        })
        .faults(space.sample_campaign(300, &mut rand::rngs::StdRng::seed_from_u64(0xE1)))
        .build()
        .unwrap();
    let tel = Telemetry::enabled();
    let monitor = ProgressMonitor::with_telemetry(campaign.experiment_count(), tel.clone());
    let mut target = goofi_riscv::RiscvTarget::default();
    let result = algorithms::run_campaign(
        &mut target,
        &campaign,
        &monitor,
        &mut envsim::NullEnvironment,
    )
    .unwrap();

    let timeouts: Vec<_> = result
        .records
        .iter()
        .filter(|r| r.termination == TerminationCause::Timeout)
        .collect();
    assert!(!timeouts.is_empty(), "the campaign must have time-outs");
    let after_injection: u64 = timeouts
        .iter()
        .map(|r| match r.fault.as_ref().map(|f| f.trigger) {
            Some(Trigger::AfterInstructions(at)) => r.state.instructions - at,
            other => panic!("{}: trigger {other:?}", r.name),
        })
        .sum();
    let metrics = tel.metrics().expect("telemetry enabled");
    assert_eq!(
        metrics.counter(Metric::TimedOut.encode()),
        timeouts.len() as u64
    );
    assert_eq!(
        metrics.counter(Metric::TimeoutInstructions.encode()),
        after_injection
    );
}

#[test]
fn metrics_snapshot_agrees_with_progress_monitor() {
    let (tel, monitor) = run_traced(vec![Arc::new(RingSink::new(64))]);
    let snapshot = tel.metrics().expect("telemetry enabled");
    let progress = monitor.snapshot();

    assert_eq!(progress.completed, 3);
    assert_eq!(snapshot.counter("completed"), progress.completed as u64);
    assert_eq!(snapshot.counter("failed"), progress.failed as u64);
    assert_eq!(snapshot.counter("retried"), progress.retried as u64);

    // One load/scan per experiment plus the reference run.
    assert_eq!(snapshot.stage(Stage::Load).count(), 4);
    assert_eq!(snapshot.stage(Stage::Scan).count(), 4);
    // One injection per experiment, none for the reference.
    assert_eq!(snapshot.stage(Stage::Inject).count(), 3);
    // Every experiment executes at least once.
    assert!(snapshot.stage(Stage::Run).count() >= 4);
    // Nothing ran the analysis phase or supervision here.
    assert_eq!(snapshot.stage(Stage::Classify).count(), 0);
    assert_eq!(snapshot.stage(Stage::Probe).count(), 0);
}

#[test]
fn flight_recorder_dumps_on_failure_and_roundtrips() {
    // The second experiment's trigger kind is unsupported by the device, so
    // the default fail-fast policy aborts the campaign mid-flight.
    let c = campaign(vec![
        scan_fault(Trigger::AfterInstructions(10)),
        scan_fault(Trigger::Breakpoint(1)),
    ]);
    let ring = Arc::new(RingSink::new(256));
    let tel = Telemetry::with_sinks(vec![ring.clone()]);
    let monitor = ProgressMonitor::with_telemetry(c.experiment_count(), tel.clone());
    let mut target = Scripted::new(100);
    let err = algorithms::run_campaign(&mut target, &c, &monitor, &mut envsim::NullEnvironment)
        .unwrap_err();
    assert!(matches!(err, GoofiError::ExperimentFailed { .. }), "{err}");

    let path = temp_path("flight");
    let dumped = tel.dump_flight(&path).unwrap();
    assert!(dumped > 0);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    // Every dumped line round-trips through the codec verbatim.
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), dumped);
    for line in &lines {
        let record = SpanRecord::decode(line).unwrap_or_else(|| panic!("bad line `{line}`"));
        assert_eq!(record.encode(), *line);
    }

    // The dump holds the work that completed before the failure: the
    // reference and first experiment with their stage spans.
    let records: Vec<SpanRecord> = lines.iter().filter_map(|l| SpanRecord::decode(l)).collect();
    assert!(records
        .iter()
        .any(|r| r.kind == SpanKind::Experiment && r.name == "tel-e2e/reference"));
    assert!(records
        .iter()
        .any(|r| r.kind == SpanKind::Experiment && r.name == "tel-e2e/exp00000"));
    assert!(records
        .iter()
        .any(|r| r.kind == SpanKind::Stage(Stage::Inject)));
}

#[test]
fn jsonl_trace_reproduces_live_histograms() {
    // The `goofi report --timings <trace>` path: per-stage histograms
    // rebuilt from the trace file must equal the in-process registry's.
    let path = temp_path("trace");
    let sink = Arc::new(JsonlSink::create(&path).unwrap());
    let (tel, _monitor) = run_traced(vec![sink]);
    tel.flush();
    let live = tel.metrics().expect("telemetry enabled");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let from_trace = MetricsSnapshot::from_trace(&text);
    for stage in Stage::ALL {
        assert_eq!(
            from_trace.stage(stage),
            live.stage(stage),
            "stage {}",
            stage.encode()
        );
    }
    // And the rendered table carries one row per stage.
    let table = from_trace.render_timings();
    for stage in Stage::ALL {
        assert!(table.contains(stage.encode()), "{table}");
    }
}
