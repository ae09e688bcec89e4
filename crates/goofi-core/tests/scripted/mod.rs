//! The scripted device behind goofi-core's engine suites, and the campaign
//! set-up they share around it. A suite states only its own behaviour, as
//! a small decorator over [`Scripted`] written with
//! [`goofi_core::pass_through`]: a call log, failures keyed by trigger, a
//! latch on the first load, drifting outputs.

// Each test binary that includes this module uses only part of it.
#![allow(dead_code)]

use goofi_core::algorithms::{self, CampaignResult};
use goofi_core::campaign::{Campaign, CampaignBuilder, OutputRegion, Termination, WorkloadImage};
use goofi_core::fault::{FaultLocation, FaultModel, FaultSpec};
use goofi_core::monitor::ProgressMonitor;
use goofi_core::preinject::StepAccess;
use goofi_core::trigger::Trigger;
use goofi_core::{DetectionInfo, GoofiError, Result, RunBudget, RunEvent, TargetAccess};
use scanchain::{BitVec, CellAccess, ChainLayout};
use std::path::PathBuf;

/// A deterministic scripted device.
///
/// One scan chain, `internal`, with cells `A` (8 bits, read-write) and `S`
/// (4 bits, read-only); 64 words of memory, kept across loads. A load
/// zeroes the chain, the counters and the breakpoint; the workload then
/// runs `workload_len` instructions and halts. Breakpoints take
/// instruction counts only, any other trigger is a configuration error.
/// Cycles equal instructions, and the one output port reads the
/// instruction count. `Clone + Send`, so a parallel or resume factory can
/// hand out copies.
///
/// The settings are the per-instruction behaviour a decorator cannot see.
#[derive(Debug, Clone)]
pub struct Scripted {
    pub layout: ChainLayout,
    pub chain: BitVec,
    pub memory: Vec<u32>,
    pub workload_len: u64,
    /// Zero cell `A` after every instruction, like hardware that rewrites
    /// the location every cycle: persistent fault models must re-assert.
    pub refresh_a: bool,
    /// Report a detection (mechanism `mock`, code 9) at this instruction.
    pub detect_at: Option<u64>,
    /// Report an iteration boundary every this many instructions.
    pub iteration_every: Option<u64>,
    instructions: u64,
    iterations: u64,
    breakpoint: Option<u64>,
    halted: bool,
}

impl Scripted {
    pub fn new(workload_len: u64) -> Self {
        let layout = ChainLayout::builder("internal")
            .cell("A", 8, CellAccess::ReadWrite)
            .cell("S", 4, CellAccess::ReadOnly)
            .build();
        Scripted {
            chain: BitVec::zeros(layout.total_bits()),
            layout,
            memory: vec![0; 64],
            workload_len,
            refresh_a: false,
            detect_at: None,
            iteration_every: None,
            instructions: 0,
            iterations: 0,
            breakpoint: None,
            halted: false,
        }
    }

    fn exec_one(&mut self) -> Option<RunEvent> {
        if self.halted {
            return Some(RunEvent::Halted);
        }
        if self.breakpoint == Some(self.instructions) {
            return Some(RunEvent::Breakpoint {
                at_instruction: self.instructions,
                at_cycle: self.instructions,
            });
        }
        self.instructions += 1;
        if self.refresh_a {
            self.layout.write_cell(&mut self.chain, "A", 0).unwrap();
        }
        if self.detect_at == Some(self.instructions) {
            return Some(RunEvent::Detected(DetectionInfo {
                mechanism: "mock".into(),
                code: 9,
            }));
        }
        if self.instructions >= self.workload_len {
            self.halted = true;
            return Some(RunEvent::Halted);
        }
        match self.iteration_every {
            Some(every) if self.instructions.is_multiple_of(every) => {
                self.iterations += 1;
                Some(RunEvent::IterationBoundary {
                    iteration: self.iterations,
                })
            }
            _ => None,
        }
    }
}

impl TargetAccess for Scripted {
    fn target_name(&self) -> &str {
        "mock"
    }
    fn init_test_card(&mut self) -> Result<()> {
        Ok(())
    }
    fn load_workload(&mut self, _image: &WorkloadImage) -> Result<()> {
        self.instructions = 0;
        self.iterations = 0;
        self.halted = false;
        self.breakpoint = None;
        self.chain = BitVec::zeros(self.layout.total_bits());
        Ok(())
    }
    fn reset_target(&mut self) -> Result<()> {
        Ok(())
    }
    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        let at = addr as usize;
        self.memory[at..at + data.len()].copy_from_slice(data);
        Ok(())
    }
    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        Ok(self.memory[addr as usize..addr as usize + len].to_vec())
    }
    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> Result<()> {
        self.memory[addr as usize] ^= 1 << bit;
        Ok(())
    }
    fn memory_size(&self) -> u32 {
        self.memory.len() as u32
    }
    fn set_breakpoint(&mut self, trigger: Trigger) -> Result<()> {
        match trigger {
            Trigger::AfterInstructions(n) => {
                self.breakpoint = Some(n);
                Ok(())
            }
            other => Err(GoofiError::Config(format!(
                "scripted device only supports instruction-count triggers, got {other}"
            ))),
        }
    }
    fn clear_breakpoints(&mut self) -> Result<()> {
        self.breakpoint = None;
        Ok(())
    }
    fn run_workload(&mut self, budget: RunBudget) -> Result<RunEvent> {
        for _ in 0..budget.max_instructions {
            if let Some(ev) = self.exec_one() {
                return Ok(ev);
            }
        }
        Ok(RunEvent::BudgetExhausted)
    }
    fn step_instruction(&mut self) -> Result<Option<RunEvent>> {
        Ok(self.exec_one())
    }
    fn chain_layouts(&self) -> Vec<ChainLayout> {
        vec![self.layout.clone()]
    }
    fn read_scan_chain(&mut self, chain: &str) -> Result<BitVec> {
        assert_eq!(chain, "internal");
        Ok(self.chain.clone())
    }
    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> Result<()> {
        assert_eq!(chain, "internal");
        self.chain = self.layout.masked_update(&self.chain, bits).unwrap();
        Ok(())
    }
    fn write_input_ports(&mut self, _inputs: &[u32]) -> Result<()> {
        Ok(())
    }
    fn read_output_ports(&mut self) -> Result<Vec<u32>> {
        Ok(vec![self.instructions as u32])
    }
    fn instructions_executed(&self) -> u64 {
        self.instructions
    }
    fn cycles_executed(&self) -> u64 {
        self.instructions
    }
    fn iterations_completed(&self) -> u64 {
        self.iterations
    }
    fn step_traced(&mut self) -> Result<(Option<RunEvent>, StepAccess)> {
        let access = StepAccess {
            reads: vec![],
            writes: vec!["internal:A".into()],
        };
        Ok((self.exec_one(), access))
    }
}

/// A campaign on the scripted device: the one-word workload image, the
/// `internal` chain observed, the output ports as its output and a budget
/// of `max_instructions`.
pub fn campaign(name: &str, max_instructions: u64) -> CampaignBuilder {
    Campaign::builder(name)
        .workload(WorkloadImage {
            name: "mock-wl".into(),
            words: vec![0],
            code_words: 1,
            entry: 0,
        })
        .observe_chains(["internal"])
        .output(OutputRegion::Ports)
        .termination(Termination {
            max_instructions,
            max_iterations: None,
        })
}

/// A fault on bit `bit` of cell `A`.
pub fn fault_in_a(bit: usize, model: FaultModel, trigger: Trigger) -> FaultSpec {
    FaultSpec {
        locations: vec![FaultLocation::ScanCell {
            chain: "internal".into(),
            cell: "A".into(),
            bit,
        }],
        model,
        trigger,
    }
}

/// Experiment `i` triggers at instruction `10 * (i + 1)`.
pub fn trigger_of(index: usize) -> u64 {
    10 * (index as u64 + 1)
}

/// `n` transient flips in cell `A`, experiment `i` flipping `bit(i)` at
/// [`trigger_of`]`(i)`: each experiment has a trigger of its own, which a
/// decorator can key its behaviour by.
pub fn staggered_flips(n: usize, bit: fn(usize) -> usize) -> Vec<FaultSpec> {
    (0..n)
        .map(|i| {
            let trigger = Trigger::AfterInstructions(trigger_of(i));
            fault_in_a(bit(i), FaultModel::TransientBitFlip, trigger)
        })
        .collect()
}

/// Runs `c` serially on `target` with no environment.
pub fn run_serial<T: TargetAccess>(
    target: &mut T,
    c: &Campaign,
    monitor: &ProgressMonitor,
) -> Result<CampaignResult> {
    algorithms::run_campaign(target, c, monitor, &mut envsim::NullEnvironment)
}

/// A path in the temporary directory, unique per call: the tests of one
/// binary share a pid and run on parallel threads, so the pid alone does
/// not keep their files apart.
pub fn temp_path(name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "goofi-{}-{}-{}-{name}",
        env!("CARGO_CRATE_NAME"),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}
