//! Run-control tests of the generic algorithms against a scripted mock
//! target — verifying the paper's Figure 2 call sequence and the
//! termination/fault-model edge cases independently of any real CPU.

use goofi_core::algorithms::{self, CampaignResult};
use goofi_core::campaign::{Campaign, WorkloadImage};
use goofi_core::fault::{FaultLocation, FaultModel, FaultSpec};
use goofi_core::logging::{LoggingMode, TerminationCause};
use goofi_core::monitor::ProgressMonitor;
use goofi_core::trigger::Trigger;
use goofi_core::{pass_through, RunBudget, RunEvent, TargetAccess};
use scanchain::BitVec;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

mod scripted;
use scripted::Scripted;

/// The scripted device, rewriting cell `A` every instruction, behind a log
/// of the building blocks the algorithms call and a count of chain writes.
/// It derefs to the device, so a test sets and reads the device directly.
struct MockTarget {
    inner: Scripted,
    calls: Rc<RefCell<Vec<String>>>,
    chain_writes: u64,
}

impl MockTarget {
    fn new(workload_len: u64) -> Self {
        let mut inner = Scripted::new(workload_len);
        inner.refresh_a = true;
        MockTarget {
            inner,
            calls: Rc::default(),
            chain_writes: 0,
        }
    }

    fn log(&self, call: &str) {
        self.calls.borrow_mut().push(call.to_string());
    }
}

impl Deref for MockTarget {
    type Target = Scripted;
    fn deref(&self) -> &Scripted {
        &self.inner
    }
}

impl DerefMut for MockTarget {
    fn deref_mut(&mut self) -> &mut Scripted {
        &mut self.inner
    }
}

impl TargetAccess for MockTarget {
    pass_through! { inner:
        target_name, read_memory, memory_size, step_instruction, chain_layouts,
        read_output_ports, instructions_executed, cycles_executed, iterations_completed,
        step_traced, power_cycle, snapshot, restore, supports_snapshot, prefix_restore_safe,
    }
    fn init_test_card(&mut self) -> goofi_core::Result<()> {
        self.log("init_test_card");
        self.inner.init_test_card()
    }
    fn load_workload(&mut self, image: &WorkloadImage) -> goofi_core::Result<()> {
        self.log("load_workload");
        self.inner.load_workload(image)
    }
    fn reset_target(&mut self) -> goofi_core::Result<()> {
        self.log("reset_target");
        self.inner.reset_target()
    }
    fn write_memory(&mut self, addr: u32, data: &[u32]) -> goofi_core::Result<()> {
        self.log("write_memory");
        self.inner.write_memory(addr, data)
    }
    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> goofi_core::Result<()> {
        self.log("flip_memory_bit");
        self.inner.flip_memory_bit(addr, bit)
    }
    fn set_breakpoint(&mut self, trigger: Trigger) -> goofi_core::Result<()> {
        self.log("set_breakpoint");
        self.inner.set_breakpoint(trigger)
    }
    fn clear_breakpoints(&mut self) -> goofi_core::Result<()> {
        self.log("clear_breakpoints");
        self.inner.clear_breakpoints()
    }
    fn run_workload(&mut self, budget: RunBudget) -> goofi_core::Result<RunEvent> {
        self.log("run_workload");
        self.inner.run_workload(budget)
    }
    fn read_scan_chain(&mut self, chain: &str) -> goofi_core::Result<BitVec> {
        self.log("read_scan_chain");
        self.inner.read_scan_chain(chain)
    }
    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> goofi_core::Result<()> {
        self.log("write_scan_chain");
        self.chain_writes += 1;
        self.inner.write_scan_chain(chain, bits)
    }
    fn write_input_ports(&mut self, inputs: &[u32]) -> goofi_core::Result<()> {
        self.log("write_input_ports");
        self.inner.write_input_ports(inputs)
    }
}

fn scan_fault(trigger: Trigger, model: FaultModel) -> FaultSpec {
    scripted::fault_in_a(2, model, trigger)
}

fn campaign(faults: Vec<FaultSpec>, max_instructions: u64) -> Campaign {
    scripted::campaign("mock", max_instructions)
        .faults(faults)
        .build()
        .unwrap()
}

fn run_one(target: &mut MockTarget, c: &Campaign) -> CampaignResult {
    algorithms::run_campaign(
        target,
        c,
        &ProgressMonitor::new(c.experiment_count()),
        &mut envsim::NullEnvironment,
    )
    .unwrap()
}

#[test]
fn scifi_experiment_follows_figure_2_sequence() {
    let mut target = MockTarget::new(100);
    let c = campaign(
        vec![scan_fault(
            Trigger::AfterInstructions(10),
            FaultModel::TransientBitFlip,
        )],
        1_000,
    );
    let calls = Rc::clone(&target.calls);
    let result = run_one(&mut target, &c);
    assert_eq!(result.records[0].termination, TerminationCause::WorkloadEnd);

    let calls = calls.borrow();
    // Find where the experiment (after the reference run) begins.
    let exp_start = calls
        .iter()
        .rposition(|c| c == "init_test_card")
        .expect("experiment init");
    let tail: Vec<&str> = calls[exp_start..].iter().map(String::as_str).collect();
    // initTestCard; loadWorkload; (inputs); set_breakpoint; runWorkload;
    // readScanChain; injectFault=write; clear; waitForTermination; logging.
    let expect_order = [
        "init_test_card",
        "load_workload",
        "write_input_ports",
        "set_breakpoint",
        "run_workload",
        "clear_breakpoints",
        "read_scan_chain",  // injectFault: read ...
        "write_scan_chain", // ... invert, write back
        "run_workload",     // waitForTermination
        "read_scan_chain",  // final state logging
    ];
    let mut pos = 0;
    for want in expect_order {
        pos = tail[pos..]
            .iter()
            .position(|c| *c == want)
            .unwrap_or_else(|| panic!("missing `{want}` after position {pos} in {tail:?}"))
            + pos
            + 1;
    }
}

#[test]
fn budget_exhaustion_is_a_timeout() {
    let mut target = MockTarget::new(1_000_000);
    let c = campaign(
        vec![scan_fault(
            Trigger::AfterInstructions(10),
            FaultModel::TransientBitFlip,
        )],
        50, // tiny budget
    );
    let result = run_one(&mut target, &c);
    assert_eq!(result.reference.termination, TerminationCause::Timeout);
    assert_eq!(result.records[0].termination, TerminationCause::Timeout);
}

#[test]
fn detection_during_wait_logs_detected_without_injection() {
    let mut target = MockTarget::new(100);
    target.detect_at = Some(5);
    let c = campaign(
        vec![scan_fault(
            Trigger::AfterInstructions(50),
            FaultModel::TransientBitFlip,
        )],
        1_000,
    );
    let calls = Rc::clone(&target.calls);
    let result = run_one(&mut target, &c);
    match &result.records[0].termination {
        TerminationCause::Detected(d) => assert_eq!(d.mechanism, "mock"),
        other => panic!("expected detection, got {other:?}"),
    }
    // The fault was never injected: no chain write in the experiment.
    let calls = calls.borrow();
    let exp_start = calls.iter().rposition(|c| c == "init_test_card").unwrap();
    assert!(!calls[exp_start..].iter().any(|c| c == "write_scan_chain"));
}

#[test]
fn iteration_limit_terminates_before_trigger() {
    let mut target = MockTarget::new(1_000_000);
    target.iteration_every = Some(10);
    let mut c = campaign(
        vec![scan_fault(
            Trigger::AfterInstructions(500),
            FaultModel::TransientBitFlip,
        )],
        10_000,
    );
    c.termination.max_iterations = Some(3);
    let result = run_one(&mut target, &c);
    assert_eq!(
        result.records[0].termination,
        TerminationCause::IterationLimit
    );
    assert_eq!(result.records[0].state.iterations, 3);
}

#[test]
fn environment_exchanged_once_per_iteration() {
    let mut target = MockTarget::new(1_000_000);
    target.iteration_every = Some(10);
    let mut c = campaign(
        vec![scan_fault(
            Trigger::AfterInstructions(15),
            FaultModel::TransientBitFlip,
        )],
        10_000,
    );
    c.termination.max_iterations = Some(5);
    let mut env = envsim::ScriptedEnvironment::new(vec![vec![1], vec![2]]);
    algorithms::run_experiment(&mut target, &c, 0, &mut env).unwrap();
    // 5 iterations, the last one terminates the run: 4 exchanges.
    assert_eq!(env.observed().len(), 4);
    // The environment saw the target's outputs (instruction counts).
    assert_eq!(env.observed()[0], vec![10]);
    assert_eq!(env.observed()[1], vec![20]);
}

#[test]
fn memory_based_environment_exchange() {
    // §3.2: data may be exchanged through "the memory locations holding
    // output and input data within the target system".
    let mut target = MockTarget::new(1_000);
    target.iteration_every = Some(10);
    target.memory[5] = 77; // the workload's output location
    let mut c = campaign(
        vec![scan_fault(
            Trigger::AfterInstructions(999),
            FaultModel::TransientBitFlip,
        )],
        10_000,
    );
    c.termination.max_iterations = Some(3);
    c.env_exchange = goofi_core::campaign::EnvExchange::Memory {
        outputs: vec![5],
        inputs: vec![6],
    };
    let mut env = envsim::ScriptedEnvironment::new(vec![vec![111], vec![222]]);
    algorithms::run_experiment(&mut target, &c, 0, &mut env).unwrap();
    // The environment saw the memory output location...
    assert_eq!(env.observed(), [[77], [77]]);
    // ...and its inputs landed in the designated input word.
    assert_eq!(target.memory[6], 222);
}

#[test]
fn transient_fault_writes_chain_exactly_once() {
    let mut target = MockTarget::new(100);
    let c = campaign(
        vec![scan_fault(
            Trigger::AfterInstructions(10),
            FaultModel::TransientBitFlip,
        )],
        1_000,
    );
    run_one(&mut target, &c);
    assert_eq!(target.chain_writes, 1);
}

#[test]
fn stuck_at_fault_reasserts_every_instruction() {
    let mut target = MockTarget::new(50);
    let c = campaign(
        vec![scan_fault(
            Trigger::AfterInstructions(10),
            FaultModel::StuckAtOne,
        )],
        1_000,
    );
    run_one(&mut target, &c);
    // The mock zeroes cell A every instruction, so stuck-at-1 must
    // re-write the chain after (almost) every one of the ~40 remaining
    // instructions.
    assert!(
        target.chain_writes >= 35,
        "only {} chain writes",
        target.chain_writes
    );
    // And the bit is still forced at the end.
    let layout = target.layout.clone();
    assert_eq!(layout.read_cell(&target.chain, "A").unwrap() & 0b100, 0b100);
}

#[test]
fn intermittent_fault_bursts_count() {
    let mut target = MockTarget::new(200);
    let c = campaign(
        vec![scan_fault(
            Trigger::AfterInstructions(10),
            FaultModel::Intermittent {
                period: 20,
                bursts: 4,
            },
        )],
        1_000,
    );
    run_one(&mut target, &c);
    // One initial injection plus three re-injections.
    assert_eq!(target.chain_writes, 4);
}

#[test]
fn detail_mode_reference_and_experiment_traces_align() {
    let mut target = MockTarget::new(30);
    let mut c = campaign(
        vec![scan_fault(
            Trigger::AfterInstructions(10),
            FaultModel::TransientBitFlip,
        )],
        1_000,
    );
    c.logging = LoggingMode::Detail;
    let result = run_one(&mut target, &c);
    assert_eq!(result.reference.trace.len(), 30);
    assert_eq!(result.records[0].trace.len(), 30);
    // Pre-injection prefix identical, post-injection state reflects the
    // (immediately overwritten) flip only in cycle counters.
    for step in 0..10 {
        assert_eq!(
            result.reference.trace[step], result.records[0].trace[step],
            "step {step}"
        );
    }
}

#[test]
fn swifi_runtime_uses_memory_primitive() {
    let mut target = MockTarget::new(100);
    let mut c = campaign(
        vec![FaultSpec {
            locations: vec![FaultLocation::Memory { addr: 7, bit: 3 }],
            model: FaultModel::TransientBitFlip,
            trigger: Trigger::AfterInstructions(10),
        }],
        1_000,
    );
    c.technique = goofi_core::campaign::Technique::SwifiRuntime;
    let calls = Rc::clone(&target.calls);
    let result = algorithms::faultinjector_swifi(
        &mut target,
        &c,
        &ProgressMonitor::new(1),
        &mut envsim::NullEnvironment,
    )
    .unwrap();
    assert_eq!(result.records.len(), 1);
    assert!(calls.borrow().iter().any(|c| c == "flip_memory_bit"));
    assert_eq!(target.memory[7], 1 << 3);
}

// ---------------------------------------------------------------------------
// Pinned run control: every branch of the run loop, held to digests.

/// FNV-1a over the text.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// How a pinned mock campaign ends.
#[derive(Debug, Clone, Copy)]
enum Ending {
    TriggerThenHalt,
    HaltBeforeTrigger,
    InstructionBudget,
    DetectionBeforeTrigger,
    DetectionAfterTrigger,
    IterationLimitPorts,
    IterationLimitMemory,
    CycleWatchdog,
    PreRuntimeThenHalt,
}

const MODELS: [FaultModel; 4] = [
    FaultModel::TransientBitFlip,
    FaultModel::StuckAtZero,
    FaultModel::StuckAtOne,
    FaultModel::Intermittent {
        period: 15,
        bursts: 3,
    },
];

/// Runs the campaign for `ending` under one logging mode and fault model,
/// then the detail re-run of its experiment, and digests everything the
/// run loop decides: both records, the target's call log, the last run's
/// environment exchanges, the chain write count and the final memory.
fn pinned_run(ending: Ending, logging: LoggingMode, model: FaultModel) -> u64 {
    let mut target = MockTarget::new(60);
    let mut trigger = Trigger::AfterInstructions(20);
    let mut locations = vec![
        FaultLocation::ScanCell {
            chain: "internal".into(),
            cell: "A".into(),
            bit: 2,
        },
        FaultLocation::Memory { addr: 7, bit: 3 },
    ];
    let mut max_instructions = 1_000;
    match ending {
        Ending::TriggerThenHalt => {}
        Ending::HaltBeforeTrigger => trigger = Trigger::AfterInstructions(80),
        Ending::InstructionBudget => {
            target.workload_len = 1_000_000;
            max_instructions = 70;
        }
        Ending::DetectionBeforeTrigger => target.detect_at = Some(12),
        Ending::DetectionAfterTrigger => target.detect_at = Some(35),
        Ending::IterationLimitPorts | Ending::IterationLimitMemory => {
            target.workload_len = 1_000_000;
            target.iteration_every = Some(10);
            target.memory[5] = 77;
        }
        Ending::CycleWatchdog => {
            target.workload_len = 1_000_000;
            max_instructions = 100_000;
        }
        Ending::PreRuntimeThenHalt => {
            trigger = Trigger::PreRuntime;
            locations = vec![
                FaultLocation::Memory { addr: 7, bit: 3 },
                FaultLocation::Memory { addr: 9, bit: 0 },
            ];
        }
    }
    let mut c = campaign(Vec::new(), max_instructions);
    c.faults = vec![FaultSpec {
        locations,
        model,
        trigger,
    }];
    c.logging = logging;
    match ending {
        Ending::IterationLimitPorts => c.termination.max_iterations = Some(6),
        Ending::IterationLimitMemory => {
            c.termination.max_iterations = Some(6);
            c.env_exchange = goofi_core::campaign::EnvExchange::Memory {
                outputs: vec![5],
                inputs: vec![6],
            };
        }
        Ending::CycleWatchdog => {
            c.policy = c.policy.with_watchdog(goofi_core::policy::WatchdogBudget {
                max_cycles: Some(5_000),
                max_wall_ms: None,
            });
        }
        Ending::PreRuntimeThenHalt => {
            c.technique = goofi_core::campaign::Technique::SwifiPreRuntime;
        }
        _ => {}
    }
    let mut env = envsim::ScriptedEnvironment::new(vec![vec![111], vec![222], vec![333]]);
    let calls = Rc::clone(&target.calls);
    let result = algorithms::run_campaign(
        &mut target,
        &c,
        &ProgressMonitor::new(c.experiment_count()),
        &mut env,
    )
    .unwrap();
    let rerun = algorithms::rerun_detailed(&mut target, &c, 0, &mut env).unwrap();
    let calls = calls.borrow();
    digest(&format!(
        "{result:?}|{rerun:?}|{calls:?}|{:?}|{}|{:?}",
        env.observed(),
        target.chain_writes,
        target.memory
    ))
}

/// Digests for normal logging under each of [`MODELS`], then detail
/// logging under each.
fn pinned(ending: Ending) -> Vec<u64> {
    [LoggingMode::Normal, LoggingMode::Detail]
        .into_iter()
        .flat_map(|logging| MODELS.map(|model| pinned_run(ending, logging, model)))
        .collect()
}

#[test]
fn pinned_trigger_then_halt() {
    assert_eq!(
        pinned(Ending::TriggerThenHalt),
        [
            1063072294473377500,
            5217482142530767117,
            13186283413899452906,
            3459295691404002799,
            11719284281031876411,
            5978833403171170939,
            953683771781096762,
            865637775128557339,
        ]
    );
}

#[test]
fn pinned_halt_before_trigger() {
    assert_eq!(
        pinned(Ending::HaltBeforeTrigger),
        [
            1946030404413465063,
            13920569531018690109,
            14085992411839431535,
            3685606448485406579,
            6393733124609632215,
            16188952504056494711,
            14922694142291313537,
            5939196429331118547,
        ]
    );
}

#[test]
fn pinned_instruction_budget() {
    assert_eq!(
        pinned(Ending::InstructionBudget),
        [
            286498737408128908,
            12741411835149386777,
            944099998828567485,
            6374456012836135139,
            1625973629349387739,
            2892659236681911363,
            9971262598111824011,
            17028829926041037755,
        ]
    );
}

#[test]
fn pinned_detection_before_trigger() {
    assert_eq!(
        pinned(Ending::DetectionBeforeTrigger),
        [
            4258294875225905768,
            9195999055089560136,
            17247763522513085074,
            9348447681769182456,
            7330184091550030890,
            6103928086170441194,
            1627366151525600646,
            4409109439458300370,
        ]
    );
}

#[test]
fn pinned_detection_after_trigger() {
    assert_eq!(
        pinned(Ending::DetectionAfterTrigger),
        [
            10508744174305843554,
            10427386606459790215,
            4642724692738061163,
            6590233771529839707,
            14092809038294482609,
            280416845637198277,
            5018727480572105823,
            13616052357260493351,
        ]
    );
}

#[test]
fn pinned_iteration_limit_with_port_exchange() {
    assert_eq!(
        pinned(Ending::IterationLimitPorts),
        [
            5445910206187079159,
            15102502148720812079,
            1140783177334696744,
            4210034099798852307,
            18206738390631256822,
            8471802315106804932,
            18428560283273206709,
            6132103426596516862,
        ]
    );
}

#[test]
fn pinned_iteration_limit_with_memory_exchange() {
    assert_eq!(
        pinned(Ending::IterationLimitMemory),
        [
            4907178663339310311,
            16792090605868941632,
            13066832760643811667,
            17786933643806700879,
            13220983418108083526,
            690295079434048993,
            17828226228364266090,
            13310764437943638202,
        ]
    );
}

#[test]
fn pinned_cycle_watchdog() {
    assert_eq!(
        pinned(Ending::CycleWatchdog),
        [
            1312597763143651718,
            12205470550801621268,
            14474450835554162615,
            2355892884128316386,
            170495108387548780,
            11166863513364879482,
            17383505324856791797,
            678624751215433944,
        ]
    );
}

#[test]
fn pinned_pre_runtime_then_halt() {
    assert_eq!(
        pinned(Ending::PreRuntimeThenHalt),
        [
            17427954119684217439,
            11440451424717145336,
            724198085829029621,
            13365241115564106950,
            5115230713096748291,
            372054028054316335,
            8398829497168174222,
            9827603238748428203,
        ]
    );
}

#[test]
fn liveness_trace_exchanges_through_memory_on_memory_exchange_campaigns() {
    // The liveness trace must follow the trajectory the experiments do:
    // a memory-exchange control loop exchanges through its designated
    // words, not through the ports.
    let mut target = MockTarget::new(1_000);
    target.iteration_every = Some(10);
    target.memory[5] = 77;
    let mut c = campaign(
        vec![scan_fault(
            Trigger::AfterInstructions(999),
            FaultModel::TransientBitFlip,
        )],
        10_000,
    );
    c.termination.max_iterations = Some(3);
    c.env_exchange = goofi_core::campaign::EnvExchange::Memory {
        outputs: vec![5],
        inputs: vec![6],
    };
    let mut env = envsim::ScriptedEnvironment::new(vec![vec![111], vec![222]]);
    let trace = goofi_core::preinject::collect_trace(&mut target, &c, 10_000, &mut env).unwrap();
    assert_eq!(trace.len(), 30);
    assert_eq!(env.observed(), [[77], [77]]);
    assert_eq!(target.memory[6], 222);
}
