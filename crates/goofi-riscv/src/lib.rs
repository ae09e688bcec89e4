//! The GOOFI `TargetSystemInterface` for the RV32I core — the second
//! target system, ported through the same Framework template as
//! `goofi-thor`.
//!
//! The port is deliberately boring: every [`goofi_core::TargetAccess`]
//! building block maps onto the `riscv` simulator wrapped in a
//! [`scanchain::TestCard`], exactly as the Thor port does. That is the
//! paper's genericity claim made concrete — a different ISA (byte-addressed
//! PCs, a hardwired zero register, ECALL-based environment calls, no
//! caches) slots in behind the identical interface, and the campaign
//! algorithms, database and analyses never notice.
//!
//! Unit conventions: memory addresses are in words (like Thor), but the
//! program counter — and therefore [`goofi_core::trigger::Trigger::Breakpoint`]
//! operands — is a *byte* address, because that is RV32I's native PC unit.
//! The framework treats trigger operands as opaque target units, so nothing
//! above this crate needs to care.
//!
//! # Example
//!
//! ```
//! use goofi_core::TargetAccess;
//! use goofi_riscv::RiscvTarget;
//!
//! let mut target = RiscvTarget::default();
//! target.init_test_card().unwrap();
//! assert_eq!(target.target_name(), "rv32i");
//! assert_eq!(target.chain_layouts().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use goofi_core::campaign::WorkloadImage;
use goofi_core::preinject::StepAccess;
use goofi_core::trigger::Trigger;
use goofi_core::DetectionInfo;
use goofi_core::{GoofiError, Result, RunBudget, RunEvent, TargetAccess, TargetSnapshot};
use riscv::{AccessLog, Cpu, CpuConfig, Image, StopReason, PORT_COUNT};
use scanchain::{BitVec, ChainLayout, TestCard, TestCardStats};
use std::sync::Arc;

/// The RV32I target system behind a scan-chain test card.
///
/// Same copy-on-write shape as `ThorTarget`: the card (CPU, memory, TAP)
/// lives behind an [`Arc`] so a snapshot is a reference-count bump, a
/// restore re-points the `Arc`, and the one deep copy is deferred to the
/// first mutation after a restore.
#[derive(Debug)]
pub struct RiscvTarget {
    card: Arc<TestCard<Cpu>>,
    /// Construction config, kept so a power cycle can rebuild the CPU
    /// from scratch.
    config: CpuConfig,
    /// The last downloaded workload, reloaded after a power cycle.
    last_image: Option<WorkloadImage>,
}

impl Default for RiscvTarget {
    fn default() -> Self {
        Self::new(CpuConfig::default())
    }
}

impl RiscvTarget {
    /// Creates a target with the given CPU configuration.
    pub fn new(config: CpuConfig) -> Self {
        RiscvTarget {
            card: Arc::new(TestCard::new(Cpu::new(config))),
            config,
            last_image: None,
        }
    }

    /// Read access to the wrapped CPU (for assertions in tests/benches).
    pub fn cpu(&self) -> &Cpu {
        self.card.target()
    }

    /// Mutable access to the wrapped CPU.
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        self.card_mut().target_mut()
    }

    /// Mutable access to the card, copy-on-write: clones the shared state
    /// exactly once after a restore, then stays free until the next one.
    fn card_mut(&mut self) -> &mut TestCard<Cpu> {
        Arc::make_mut(&mut self.card)
    }

    /// Scan-traffic statistics (TCK cycles, bits shifted).
    pub fn testcard_stats(&self) -> TestCardStats {
        self.card.stats()
    }

    /// Resets the scan-traffic statistics.
    pub fn reset_testcard_stats(&mut self) {
        self.card_mut().reset_stats();
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
                self.card_mut().target_mut().debug_unit_mut().clear();
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

fn scan_err(e: scanchain::ScanError) -> GoofiError {
    GoofiError::Scan(e)
}

fn mem_err(e: riscv::MemoryError) -> GoofiError {
    GoofiError::Target(format!("memory access failed: {e}"))
}

impl TargetAccess for RiscvTarget {
    fn target_name(&self) -> &str {
        "rv32i"
    }

    fn init_test_card(&mut self) -> Result<()> {
        self.card_mut().init().map_err(scan_err)
    }

    fn load_workload(&mut self, image: &WorkloadImage) -> Result<()> {
        // WorkloadImage fields are in the target's native units: the entry
        // point of an RV32I image is a byte address.
        let rv_image = Image {
            words: image.words.clone(),
            code_words: image.code_words,
            entry: image.entry,
        };
        self.card_mut()
            .target_mut()
            .load_image(&rv_image)
            .map_err(mem_err)?;
        self.last_image = Some(image.clone());
        Ok(())
    }

    fn reset_target(&mut self) -> Result<()> {
        self.card_mut().target_mut().reset();
        Ok(())
    }

    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        // No caches to keep coherent — tool-side writes land directly.
        self.card_mut()
            .target_mut()
            .memory_mut()
            .load_block(addr, data)
            .map_err(mem_err)
    }

    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        self.card
            .target()
            .memory()
            .read_block(addr, len)
            .map_err(mem_err)
    }

    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> Result<()> {
        self.card_mut()
            .target_mut()
            .memory_mut()
            .flip_bit(addr, bit)
            .map_err(mem_err)
    }

    fn memory_size(&self) -> u32 {
        self.card.target().memory().len() as u32
    }

    fn set_breakpoint(&mut self, trigger: Trigger) -> Result<()> {
        let condition = trigger
            .to_debug_condition()
            .ok_or_else(|| GoofiError::Config("pre-runtime triggers need no breakpoint".into()))?;
        self.card_mut().target_mut().debug_unit_mut().arm(condition);
        Ok(())
    }

    fn clear_breakpoints(&mut self) -> Result<()> {
        self.card_mut().target_mut().debug_unit_mut().disarm_all();
        Ok(())
    }

    fn run_workload(&mut self, budget: RunBudget) -> Result<RunEvent> {
        let stop = self.card_mut().target_mut().run(budget.max_instructions);
        Ok(self.map_stop(stop))
    }

    fn step_instruction(&mut self) -> Result<Option<RunEvent>> {
        let stop = self.card_mut().target_mut().step();
        Ok(stop.map(|s| self.map_stop(s)))
    }

    fn chain_layouts(&self) -> Vec<ChainLayout> {
        riscv::ChainSet::names()
            .iter()
            .filter_map(|n| self.card.target().chains().by_name(n).cloned())
            .collect()
    }

    fn read_scan_chain(&mut self, chain: &str) -> Result<BitVec> {
        self.card_mut().read_chain(chain).map_err(scan_err)
    }

    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> Result<()> {
        self.card_mut()
            .write_chain(chain, bits)
            .map(|_| ())
            .map_err(scan_err)
    }

    fn write_input_ports(&mut self, inputs: &[u32]) -> Result<()> {
        for (port, value) in inputs.iter().enumerate().take(PORT_COUNT) {
            self.card_mut().target_mut().set_in_port(port, *value);
        }
        Ok(())
    }

    fn read_output_ports(&mut self) -> Result<Vec<u32>> {
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

    fn step_traced(&mut self) -> Result<(Option<RunEvent>, StepAccess)> {
        let mut log = AccessLog::default();
        let stop = self.card_mut().target_mut().step_logged(&mut log);
        let mut access = StepAccess::default();
        for r in &log.reg_reads {
            access.reads.push(format!("internal:X{}", r.index()));
        }
        for w in &log.reg_writes {
            access.writes.push(format!("internal:X{}", w.index()));
        }
        for addr in &log.mem_reads {
            access.reads.push(format!("mem:{addr}"));
        }
        for addr in &log.mem_writes {
            access.writes.push(format!("mem:{addr}"));
        }
        Ok((stop.map(|s| self.map_stop(s)), access))
    }

    /// Real cold-reset semantics: the CPU and the test card's TAP are
    /// rebuilt from scratch and the last workload image is downloaded
    /// again.
    fn power_cycle(&mut self) -> Result<()> {
        self.card = Arc::new(TestCard::new(Cpu::new(self.config)));
        self.card_mut().init().map_err(scan_err)?;
        if let Some(image) = self.last_image.clone() {
            self.load_workload(&image)?;
        }
        Ok(())
    }

    /// Native copy-on-write snapshot, same shape as the Thor port: a
    /// capture is a reference-count bump, a restore re-points the `Arc`.
    fn snapshot(&mut self) -> Result<TargetSnapshot> {
        Ok(TargetSnapshot::new(RiscvSnapshot {
            card: Arc::clone(&self.card),
            last_image: self.last_image.clone(),
        }))
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        let snap = snapshot
            .downcast_ref::<RiscvSnapshot>()
            .ok_or_else(|| GoofiError::Target("snapshot is not an rv32i capture".into()))?;
        self.card = Arc::clone(&snap.card);
        self.last_image = snap.last_image.clone();
        Ok(())
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    fn memory_digest(&mut self, len: usize) -> Result<u64> {
        // The digest block size matches the CoW page size so a page still
        // shared with a snapshot never has to be re-hashed.
        const _: () = assert!(riscv::PAGE_WORDS == goofi_core::logging::DIGEST_BLOCK_WORDS);
        let memory = self.card.target().memory();
        if len != memory.len() {
            return Ok(goofi_core::logging::digest_words(
                &self.read_memory(0, len)?,
            ));
        }
        let mut hash = goofi_core::logging::digest_seed(len);
        for index in 0..memory.page_count() {
            let digest = match memory.cached_page_digest(index) {
                Some(digest) => digest,
                None => {
                    let digest = goofi_core::logging::digest_block(memory.page_words(index));
                    memory.cache_page_digest(index, digest);
                    digest
                }
            };
            hash = goofi_core::logging::digest_fold(hash, digest);
        }
        Ok(hash)
    }
}

/// The opaque payload behind [`RiscvTarget::snapshot`].
#[derive(Debug, Clone)]
struct RiscvSnapshot {
    card: Arc<TestCard<Cpu>>,
    last_image: Option<WorkloadImage>,
}

#[cfg(test)]
mod rv32i_tests {
    use super::*;
    use riscv::{encode, AluImmOp, Instr, LoadWidth, Reg, StoreWidth};

    fn addi(rd: u8, rs1: u8, imm: i32) -> u32 {
        encode(Instr::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::new(rd),
            rs1: Reg::new(rs1),
            imm,
        })
    }

    fn ecall(code: u32, words: &mut Vec<u32>) {
        words.push(addi(17, 0, code as i32));
        words.push(encode(Instr::Ecall));
    }

    fn halting(mut words: Vec<u32>) -> Vec<u32> {
        ecall(riscv::ECALL_HALT, &mut words);
        words
    }

    fn workload(words: Vec<u32>) -> WorkloadImage {
        let code_words = words.len() as u32;
        WorkloadImage {
            name: "test".into(),
            words,
            code_words,
            entry: 0,
        }
    }

    fn ready(words: Vec<u32>) -> RiscvTarget {
        let mut t = RiscvTarget::default();
        t.init_test_card().unwrap();
        t.load_workload(&workload(words)).unwrap();
        t
    }

    #[test]
    fn run_maps_halt() {
        let mut t = ready(halting(vec![addi(1, 0, 1)]));
        assert_eq!(
            t.run_workload(RunBudget::default()).unwrap(),
            RunEvent::Halted
        );
        assert_eq!(t.instructions_executed(), 3);
        assert!(t.cycles_executed() > 0);
    }

    #[test]
    fn breakpoint_maps_and_unlatches() {
        let mut t = ready(halting(vec![addi(1, 0, 1), addi(2, 0, 2), addi(3, 0, 3)]));
        // PC triggers are byte addresses on RV32I: instruction 2 is at 8.
        t.set_breakpoint(Trigger::Breakpoint(8)).unwrap();
        match t.run_workload(RunBudget::default()).unwrap() {
            RunEvent::Breakpoint { at_instruction, .. } => assert_eq!(at_instruction, 2),
            other => panic!("expected breakpoint, got {other:?}"),
        }
        t.clear_breakpoints().unwrap();
        assert_eq!(
            t.run_workload(RunBudget::default()).unwrap(),
            RunEvent::Halted
        );
    }

    #[test]
    fn detection_maps_mechanism_name() {
        let mut words = vec![addi(10, 0, 5)];
        ecall(riscv::ECALL_ASSERT, &mut words);
        let mut t = ready(words);
        match t.run_workload(RunBudget::default()).unwrap() {
            RunEvent::Detected(d) => assert_eq!(d.mechanism, "assertion"),
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn sync_maps_to_iteration_boundary() {
        let mut words = vec![addi(10, 0, 0)];
        ecall(riscv::ECALL_SYNC, &mut words);
        words.push(encode(Instr::Jal {
            rd: Reg::X0,
            offset: -12,
        }));
        let mut t = ready(words);
        assert_eq!(
            t.run_workload(RunBudget::default()).unwrap(),
            RunEvent::IterationBoundary { iteration: 1 }
        );
        assert_eq!(t.iterations_completed(), 1);
    }

    #[test]
    fn budget_exhaustion_maps() {
        let mut t = ready(vec![encode(Instr::Jal {
            rd: Reg::X0,
            offset: 0,
        })]);
        assert_eq!(
            t.run_workload(RunBudget {
                max_instructions: 5
            })
            .unwrap(),
            RunEvent::BudgetExhausted
        );
    }

    #[test]
    fn memory_roundtrip_and_flip() {
        let mut t = ready(halting(vec![]));
        t.write_memory(100, &[0b100, 7]).unwrap();
        assert_eq!(t.read_memory(100, 2).unwrap(), vec![0b100, 7]);
        t.flip_memory_bit(100, 2).unwrap();
        assert_eq!(t.read_memory(100, 1).unwrap(), vec![0]);
        assert!(t.read_memory(t.memory_size(), 1).is_err());
    }

    #[test]
    fn scan_chain_access_through_card() {
        let mut t = ready(halting(vec![addi(4, 0, 44)]));
        t.run_workload(RunBudget::default()).unwrap();
        let layout = t
            .chain_layouts()
            .into_iter()
            .find(|l| l.name() == "internal")
            .unwrap();
        let bits = t.read_scan_chain("internal").unwrap();
        assert_eq!(layout.read_cell(&bits, "X4").unwrap(), 44);
    }

    #[test]
    fn pre_runtime_trigger_rejected_as_breakpoint() {
        let mut t = ready(halting(vec![]));
        assert!(t.set_breakpoint(Trigger::PreRuntime).is_err());
    }

    #[test]
    fn io_ports() {
        // a0 = 0; ecall IN; a1 = a0; a0 = 1; ecall OUT; halt.
        let mut words = vec![addi(10, 0, 0)];
        ecall(riscv::ECALL_IN, &mut words);
        words.push(addi(11, 10, 0));
        words.push(addi(10, 0, 1));
        ecall(riscv::ECALL_OUT, &mut words);
        let mut t = ready(halting(words));
        t.write_input_ports(&[123]).unwrap();
        t.run_workload(RunBudget::default()).unwrap();
        assert_eq!(t.read_output_ports().unwrap()[1], 123);
    }

    #[test]
    fn power_cycle_wipes_state_and_reloads_workload() {
        let mut t = ready(halting(vec![addi(1, 0, 9)]));
        t.run_workload(RunBudget::default()).unwrap();
        assert!(t.instructions_executed() > 0);
        let layout = t
            .chain_layouts()
            .into_iter()
            .find(|l| l.name() == "internal")
            .unwrap();
        let bits = t.read_scan_chain("internal").unwrap();
        assert_eq!(layout.read_cell(&bits, "X1").unwrap(), 9);
        t.power_cycle().unwrap();
        assert_eq!(t.instructions_executed(), 0);
        let bits = t.read_scan_chain("internal").unwrap();
        assert_eq!(layout.read_cell(&bits, "X1").unwrap(), 0);
        assert_eq!(
            t.run_workload(RunBudget::default()).unwrap(),
            RunEvent::Halted
        );
    }

    #[test]
    fn power_cycle_without_workload_is_clean() {
        let mut t = RiscvTarget::default();
        t.init_test_card().unwrap();
        t.power_cycle().unwrap();
        assert_eq!(t.instructions_executed(), 0);
    }

    #[test]
    fn step_traced_reports_locations() {
        let mut t = ready(halting(vec![
            addi(1, 0, 3),
            encode(Instr::Store {
                width: StoreWidth::W,
                rs1: Reg::X0,
                rs2: Reg::new(1),
                offset: 240,
            }),
            encode(Instr::Load {
                width: LoadWidth::W,
                rd: Reg::new(2),
                rs1: Reg::X0,
                offset: 240,
            }),
        ]));
        let (ev, acc) = t.step_traced().unwrap();
        assert!(ev.is_none());
        assert_eq!(acc.writes, vec!["internal:X1"]);
        let (_, acc) = t.step_traced().unwrap();
        assert!(acc.writes.contains(&"mem:60".to_string()));
        assert!(acc.reads.contains(&"internal:X1".to_string()));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut t = ready(halting(vec![addi(1, 0, 7)]));
        let snap = t.snapshot().unwrap();
        t.run_workload(RunBudget::default()).unwrap();
        assert!(t.instructions_executed() > 0);
        t.restore(&snap).unwrap();
        assert_eq!(t.instructions_executed(), 0);
        assert_eq!(
            t.run_workload(RunBudget::default()).unwrap(),
            RunEvent::Halted
        );
        assert_eq!(t.cpu().reg(Reg::new(1)), 7);
    }

    #[test]
    fn digest_tracks_memory_and_matches_generic_path() {
        let mut t = ready(halting(vec![addi(1, 0, 1)]));
        let len = t.memory_size() as usize;
        let fast = t.memory_digest(len).unwrap();
        let generic = goofi_core::logging::digest_words(&t.read_memory(0, len).unwrap());
        assert_eq!(fast, generic);
        t.flip_memory_bit(500, 3).unwrap();
        assert_ne!(t.memory_digest(len).unwrap(), fast);
    }
}
