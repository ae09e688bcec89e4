//! The GOOFI `TargetSystemInterface` for the RV32I core — the second
//! target system, ported through the same Framework template as
//! `goofi-thor`.
//!
//! The port is one type alias: every [`goofi_core::TargetAccess`] building
//! block comes from [`goofi_core::card::CardTarget`], as for Thor, over the
//! ISA half [`riscv::Rv32iIsa`] (name `rv32i`; no caches to invalidate;
//! registers named in traces by their internal-chain cells `X1`–`X31`).
//! That is the paper's genericity claim made concrete — a different ISA
//! (byte-addressed PCs, a hardwired zero register, ECALL-based environment
//! calls, no caches) slots in behind the identical interface, and the
//! campaign algorithms, database and analyses never notice.
//!
//! Unit conventions: memory addresses are in words (like Thor), but the
//! program counter — and therefore [`goofi_core::trigger::Trigger::Breakpoint`]
//! operands and an image's entry point — is a *byte* address, because that
//! is RV32I's native PC unit. The framework treats trigger operands as
//! opaque target units, so nothing above this crate needs to care.
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

use goofi_core::card::CardTarget;
use riscv::Rv32iIsa;

/// The RV32I target system behind a scan-chain test card.
pub type RiscvTarget = CardTarget<Rv32iIsa>;

#[cfg(test)]
mod rv32i_tests {
    use super::*;
    use goofi_core::campaign::WorkloadImage;
    use goofi_core::trigger::Trigger;
    use goofi_core::{RunBudget, RunEvent, TargetAccess};
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
