//! Porting GOOFI to a new target system — the paper's Figure 3 workflow.
//!
//! The paper's `Framework` class is a template whose methods all read
//! "Write your code here!". This example plays the role of the porting
//! programmer on day one of the RV32I port: it wires the *real* `riscv`
//! core into the `TargetAccess` building blocks — but only the minimal
//! ones. No native snapshot, no copy-on-write cleverness, and `step_traced`
//! still says "Write your code here!".
//!
//! Three things then come for free, which is the paper's genericity claim
//! made runnable:
//!
//! 1. [`goofi::core::conformance::ReadoutFallback`] wraps the fresh port
//!    and supplies `snapshot`/`restore` generically from the port's own
//!    scan chains and memory access;
//! 2. the [`goofi::core::conformance`] suite — the same table of checks the
//!    shipped Thor and RV32I ports must pass — proves the port upholds the
//!    `TargetAccess` contract;
//! 3. the *same* `faultinjector_swifi` that drives Thor campaigns runs an
//!    exhaustive pre-runtime campaign against the new CPU unchanged.
//!
//! The shipped `goofi-riscv` crate is where this port ends up, and it is
//! one type alias: every `TargetAccess` method, native CoW snapshots,
//! access tracing and real cold reset included, is written once in
//! `goofi_core::card::CardTarget`, which drives every core through the
//! shared `scanchain::Core` skeleton and maps its stop reasons in one
//! place. `RiscvTarget` is `CardTarget<riscv::Rv32iIsa>`: the ISA half
//! alone supplies the target name, cache invalidation (none on RV32I) and
//! the chain whose cells name registers in access traces. This example
//! stays a hand-written `TargetAccess` port on purpose: it is the honest
//! first milestone for a target that is not a simulated core behind a test
//! card.
//!
//! ```sh
//! cargo run --example port_a_target
//! ```

use goofi::analysis::{classify_campaign, report, stats::CampaignStats};
use goofi::core::algorithms;
use goofi::core::campaign::{Campaign, Technique, Termination, WorkloadImage};
use goofi::core::conformance::{run_suite, ConformanceSpec, ReadoutFallback};
use goofi::core::fault::{FaultLocation, FaultSpec};
use goofi::core::monitor::ProgressMonitor;
use goofi::core::trigger::Trigger;
use goofi::core::{DetectionInfo, GoofiError, RunBudget, RunEvent, TargetAccess};
use goofi::envsim::NullEnvironment;
use goofi::scanchain::{BitVec, ChainLayout, Detection as _, ScanTarget, TestCard};
use goofi::targets::TargetKind;
use riscv::{Cpu, CpuConfig, StopReason, PORT_COUNT};

/// Day one of the RV32I port: the real core behind the real scan-chain
/// test card, and nothing else. Contrast with `goofi_riscv::RiscvTarget`,
/// whose generic `CardTarget` adds native copy-on-write snapshots, access
/// tracing and true cold-reset semantics on top of exactly this skeleton.
struct FreshRv32iPort {
    card: TestCard<Cpu>,
}

impl FreshRv32iPort {
    fn new() -> Self {
        FreshRv32iPort {
            card: TestCard::new(Cpu::new(CpuConfig::default())),
        }
    }

    fn map_stop(&mut self, stop: StopReason) -> RunEvent {
        match stop {
            StopReason::Halted => RunEvent::Halted,
            StopReason::Detected(d) => RunEvent::Detected(DetectionInfo {
                mechanism: d.mechanism().to_string(),
                code: d.encode(),
            }),
            StopReason::DebugEvent(ev) => {
                // Unlatch so execution can continue after injection.
                self.card.target_mut().debug_unit_mut().clear();
                RunEvent::Breakpoint {
                    at_instruction: ev.at_instruction,
                    at_cycle: ev.at_cycle,
                }
            }
            StopReason::Sync { iteration, .. } => RunEvent::IterationBoundary { iteration },
            StopReason::Timeout => RunEvent::Timeout,
            StopReason::InstrLimit => RunEvent::BudgetExhausted,
        }
    }
}

fn scan_err(e: goofi::scanchain::ScanError) -> GoofiError {
    GoofiError::Scan(e)
}

fn mem_err(e: riscv::MemoryError) -> GoofiError {
    GoofiError::Target(format!("memory access failed: {e}"))
}

// The porting step: each building block is a one-to-few-line mapping onto
// the core or the test card. Anything not needed yet keeps the template's
// "Write your code here!" default — including `snapshot`/`restore`, which
// a fresh port of real hardware rarely can implement natively.
impl TargetAccess for FreshRv32iPort {
    fn target_name(&self) -> &str {
        "rv32i"
    }

    fn init_test_card(&mut self) -> goofi::core::Result<()> {
        self.card.init().map_err(scan_err)
    }

    fn load_workload(&mut self, image: &WorkloadImage) -> goofi::core::Result<()> {
        // WorkloadImage fields are in the target's native units; an RV32I
        // entry point is a byte address.
        self.card
            .target_mut()
            .load_words(&image.words, image.code_words, image.entry)
            .map_err(mem_err)
    }

    fn reset_target(&mut self) -> goofi::core::Result<()> {
        self.card.target_mut().reset();
        Ok(())
    }

    fn write_memory(&mut self, addr: u32, data: &[u32]) -> goofi::core::Result<()> {
        self.card
            .target_mut()
            .memory_mut()
            .load_block(addr, data)
            .map_err(mem_err)
    }

    fn read_memory(&mut self, addr: u32, len: usize) -> goofi::core::Result<Vec<u32>> {
        self.card
            .target()
            .memory()
            .read_block(addr, len)
            .map_err(mem_err)
    }

    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> goofi::core::Result<()> {
        self.card
            .target_mut()
            .memory_mut()
            .flip_bit(addr, bit)
            .map_err(mem_err)
    }

    fn memory_size(&self) -> u32 {
        self.card.target().memory().len() as u32
    }

    fn set_breakpoint(&mut self, trigger: Trigger) -> goofi::core::Result<()> {
        let condition = trigger
            .to_debug_condition()
            .ok_or_else(|| GoofiError::Config("pre-runtime triggers need no breakpoint".into()))?;
        self.card.target_mut().debug_unit_mut().arm(condition);
        Ok(())
    }

    fn clear_breakpoints(&mut self) -> goofi::core::Result<()> {
        self.card.target_mut().debug_unit_mut().disarm_all();
        Ok(())
    }

    fn run_workload(&mut self, budget: RunBudget) -> goofi::core::Result<RunEvent> {
        let stop = self.card.target_mut().run(budget.max_instructions);
        Ok(self.map_stop(stop))
    }

    fn step_instruction(&mut self) -> goofi::core::Result<Option<RunEvent>> {
        let stop = self.card.target_mut().step();
        Ok(stop.map(|s| self.map_stop(s)))
    }

    fn chain_layouts(&self) -> Vec<ChainLayout> {
        let cpu = self.card.target();
        cpu.chain_names()
            .iter()
            .filter_map(|n| cpu.chain_layout(n).cloned())
            .collect()
    }

    fn read_scan_chain(&mut self, chain: &str) -> goofi::core::Result<BitVec> {
        self.card.read_chain(chain).map_err(scan_err)
    }

    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> goofi::core::Result<()> {
        self.card
            .write_chain(chain, bits)
            .map(|_| ())
            .map_err(scan_err)
    }

    fn write_input_ports(&mut self, inputs: &[u32]) -> goofi::core::Result<()> {
        for (port, value) in inputs.iter().enumerate().take(PORT_COUNT) {
            self.card.target_mut().set_in_port(port, *value);
        }
        Ok(())
    }

    fn read_output_ports(&mut self) -> goofi::core::Result<Vec<u32>> {
        Ok((0..PORT_COUNT)
            .map(|p| self.card.target().out_port(p))
            .collect())
    }

    fn instructions_executed(&self) -> u64 {
        self.card.target().instructions()
    }

    fn cycles_executed(&self) -> u64 {
        self.card.target().cycles()
    }

    fn iterations_completed(&self) -> u64 {
        self.card.target().iterations()
    }

    fn step_traced(
        &mut self,
    ) -> goofi::core::Result<(Option<RunEvent>, goofi::core::preinject::StepAccess)> {
        Err(GoofiError::Unimplemented("step_traced")) // Write your code here!
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let memcpy = TargetKind::Riscv
        .program("rv-memcpy")
        .expect("program exists");
    let workload = memcpy.image;

    // Milestone 1: generic snapshot support. The fresh port never
    // implements `snapshot`/`restore`; the readout fallback builds both
    // from the scan chains and memory access the port already has.
    let mut target = ReadoutFallback::new(FreshRv32iPort::new());

    // Milestone 2: prove the contract. This is the same table-driven suite
    // the shipped Thor and RV32I ports are held to — if it passes, every
    // campaign algorithm in the tool will drive this port unchanged.
    let mut spec = ConformanceSpec::new("fresh rv32i port via readout fallback", workload.clone());
    spec.expect_name = Some("rv32i".into());
    spec.expect_snapshot = Some(true); // supplied by the fallback
    spec.expect_prefix_safe = Some(true);
    // Scan chains cannot reach the core's private execution counters, so a
    // readout restore brings state back but not `instructions_executed`.
    spec.counters_restored = false;
    let conformance = run_suite(&mut target, &spec);
    println!("{conformance}");
    assert!(conformance.passed(), "fresh port violates the contract");

    // Milestone 3: a real campaign. One pre-runtime flip per bit of the
    // copy loop's first eight code words, driven by the *same*
    // faultinjector_swifi that runs Thor campaigns.
    let mut faults = Vec::new();
    for addr in 0..8u32 {
        for bit in 0..32u8 {
            faults.push(FaultSpec::single(
                FaultLocation::Memory { addr, bit },
                Trigger::PreRuntime,
            ));
        }
    }
    let n = faults.len();
    let campaign = Campaign::builder("port-demo")
        .target_system("rv32i")
        .technique(Technique::SwifiPreRuntime)
        .workload(workload)
        .output(memcpy.output)
        .termination(Termination {
            max_instructions: 100_000,
            max_iterations: None,
        })
        .faults(faults)
        .build()?;

    let monitor = ProgressMonitor::new(n);
    let result =
        algorithms::faultinjector_swifi(&mut target, &campaign, &monitor, &mut NullEnvironment)?;

    let classified = classify_campaign(&result.reference, &result.records);
    let stats = CampaignStats::from_classified(&classified);
    println!(
        "{}",
        report::full_report("exhaustive SWIFI on the freshly ported RV32I core", &stats)
    );
    println!(
        "reference output: {:?} (copied words + byte checksum)",
        result.reference.state.outputs
    );
    Ok(())
}
