//! The GOOFI `TargetSystemInterface` for the Thor-RD-like CPU simulator.
//!
//! This crate is the Rust equivalent of the paper's target-specific class.
//! The building blocks of [`goofi_core::TargetAccess`] are written once, in
//! [`goofi_core::card::CardTarget`], for any core behind a
//! [`scanchain::TestCard`] — scan accesses walk the real TAP state machine,
//! breakpoints are programmed into the debug unit, memory is downloaded
//! through the test card, exactly as §3 of the paper describes for the real
//! Thor RD. What is Thor's own is its ISA half, [`thor::ThorIsa`]: the name
//! `thor-rd`, cache invalidation after tool-side writes, and the internal
//! chain whose cells (`R0`–`R15`, `FLAGS`) name registers in traces.
//!
//! # Example
//!
//! ```
//! use goofi_core::TargetAccess;
//! use goofi_thor::ThorTarget;
//!
//! let mut target = ThorTarget::default();
//! target.init_test_card().unwrap();
//! assert_eq!(target.target_name(), "thor-rd");
//! assert_eq!(target.chain_layouts().len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use goofi_core::card::CardTarget;
use thor::ThorIsa;

/// The Thor target system behind a scan-chain test card.
pub type ThorTarget = CardTarget<ThorIsa>;

#[cfg(test)]
mod tests {
    use super::*;
    use goofi_core::campaign::WorkloadImage;
    use goofi_core::trigger::Trigger;
    use goofi_core::{RunBudget, RunEvent, TargetAccess};

    fn workload(src: &str) -> WorkloadImage {
        let image = thor::asm::assemble(src).unwrap();
        WorkloadImage {
            name: "test".into(),
            words: image.words,
            code_words: image.code_words,
            entry: image.entry,
        }
    }

    fn ready(src: &str) -> ThorTarget {
        let mut t = ThorTarget::default();
        t.init_test_card().unwrap();
        t.load_workload(&workload(src)).unwrap();
        t
    }

    #[test]
    fn run_maps_halt() {
        let mut t = ready("ldi r1, 1\nhalt");
        assert_eq!(
            t.run_workload(RunBudget::default()).unwrap(),
            RunEvent::Halted
        );
        assert_eq!(t.instructions_executed(), 2);
        assert!(t.cycles_executed() > 0);
    }

    #[test]
    fn breakpoint_maps_and_unlatches() {
        let mut t = ready("nop\nnop\nnop\nhalt");
        t.set_breakpoint(Trigger::Breakpoint(2)).unwrap();
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
        let mut t = ready("trap 5");
        match t.run_workload(RunBudget::default()).unwrap() {
            RunEvent::Detected(d) => assert_eq!(d.mechanism, "assertion"),
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn sync_maps_to_iteration_boundary() {
        let mut t = ready("loop: sync 0\nbr loop");
        assert_eq!(
            t.run_workload(RunBudget::default()).unwrap(),
            RunEvent::IterationBoundary { iteration: 1 }
        );
        assert_eq!(t.iterations_completed(), 1);
    }

    #[test]
    fn budget_exhaustion_maps() {
        let mut t = ready("loop: br loop");
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
        let mut t = ready("halt");
        t.write_memory(100, &[0b100, 7]).unwrap();
        assert_eq!(t.read_memory(100, 2).unwrap(), vec![0b100, 7]);
        t.flip_memory_bit(100, 2).unwrap();
        assert_eq!(t.read_memory(100, 1).unwrap(), vec![0]);
        assert!(t.read_memory(t.memory_size(), 1).is_err());
    }

    #[test]
    fn scan_chain_access_through_card() {
        let mut t = ready("ldi r4, 44\nhalt");
        t.run_workload(RunBudget::default()).unwrap();
        let layout = t
            .chain_layouts()
            .into_iter()
            .find(|l| l.name() == "internal")
            .unwrap();
        let bits = t.read_scan_chain("internal").unwrap();
        assert_eq!(layout.read_cell(&bits, "R4").unwrap(), 44);
    }

    #[test]
    fn pre_runtime_trigger_rejected_as_breakpoint() {
        let mut t = ready("halt");
        assert!(t.set_breakpoint(Trigger::PreRuntime).is_err());
    }

    #[test]
    fn io_ports() {
        let mut t = ready("in r1, 0\nout 1, r1\nhalt");
        t.write_input_ports(&[123]).unwrap();
        t.run_workload(RunBudget::default()).unwrap();
        assert_eq!(t.read_output_ports().unwrap()[1], 123);
    }

    #[test]
    fn power_cycle_wipes_state_and_reloads_workload() {
        let mut t = ready("ldi r1, 9\nhalt");
        t.run_workload(RunBudget::default()).unwrap();
        assert!(t.instructions_executed() > 0);
        let bits = t.read_scan_chain("internal").unwrap();
        let layout = t
            .chain_layouts()
            .into_iter()
            .find(|l| l.name() == "internal")
            .unwrap();
        assert_eq!(layout.read_cell(&bits, "R1").unwrap(), 9);
        t.power_cycle().unwrap();
        // Registers and counters are wiped, not just reset.
        assert_eq!(t.instructions_executed(), 0);
        let bits = t.read_scan_chain("internal").unwrap();
        assert_eq!(layout.read_cell(&bits, "R1").unwrap(), 0);
        // The workload was reloaded: the target runs to completion again.
        assert_eq!(
            t.run_workload(RunBudget::default()).unwrap(),
            RunEvent::Halted
        );
    }

    #[test]
    fn power_cycle_without_workload_is_clean() {
        let mut t = ThorTarget::default();
        t.init_test_card().unwrap();
        t.power_cycle().unwrap();
        assert_eq!(t.instructions_executed(), 0);
    }

    #[test]
    fn step_traced_reports_locations() {
        let mut t = ready("ldi r1, 3\nst r0, r1, 60\nhalt");
        let (ev, acc) = t.step_traced().unwrap();
        assert!(ev.is_none());
        assert_eq!(acc.writes, vec!["internal:R1"]);
        let (_, acc) = t.step_traced().unwrap();
        assert!(acc.writes.contains(&"mem:60".to_string()));
        assert!(acc.reads.contains(&"internal:R1".to_string()));
    }
}
