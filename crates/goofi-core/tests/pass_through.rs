//! The exported pass-through, used from outside goofi-core: a decorator
//! written with `goofi_core::pass_through!` keeps the rules the macro's
//! doc states, held against a probe that shows any rule it breaks.

use goofi_core::logging::digest_words;
use goofi_core::{pass_through, Result, TargetAccess, TargetSnapshot};
use std::cell::Cell;
use std::rc::Rc;

mod scripted;
use scripted::Scripted;

const SENTINEL: u64 = 0x5E47_1E15;

/// Calls that reached the probe.
#[derive(Default)]
struct Reached {
    rejoins: Cell<u32>,
    power_cycles: Cell<u32>,
}

/// The scripted device behind the pass-through, except where a decorator
/// that broke the rules would show it: the probe claims to rejoin, counts
/// `rejoin` and `power_cycle` calls, and digests its memory to a sentinel.
struct Probe {
    inner: Scripted,
    reached: Rc<Reached>,
}

impl TargetAccess for Probe {
    pass_through! { inner:
        target_name, init_test_card, load_workload, reset_target, write_memory, read_memory,
        flip_memory_bit, memory_size, set_breakpoint, clear_breakpoints, run_workload,
        step_instruction, chain_layouts, read_scan_chain, write_scan_chain, write_input_ports,
        read_output_ports, instructions_executed, cycles_executed, iterations_completed,
        step_traced, snapshot, restore, supports_snapshot, prefix_restore_safe,
    }

    fn power_cycle(&mut self) -> Result<()> {
        let reached = &self.reached.power_cycles;
        reached.set(reached.get() + 1);
        self.inner.power_cycle()
    }

    fn can_rejoin(&self) -> bool {
        true
    }

    fn rejoin(&mut self, _checkpoint: &TargetSnapshot, _end: &TargetSnapshot) -> Result<bool> {
        self.reached.rejoins.set(self.reached.rejoins.get() + 1);
        Ok(true)
    }

    fn memory_digest(&mut self, _len: usize) -> Result<u64> {
        Ok(SENTINEL)
    }
}

/// A decorator that changes nothing: it names every method the macro has
/// an arm for.
struct Forwarding<T> {
    inner: T,
}

impl<T: TargetAccess> TargetAccess for Forwarding<T> {
    pass_through! { inner:
        target_name, init_test_card, load_workload, reset_target, write_memory, read_memory,
        flip_memory_bit, memory_size, set_breakpoint, clear_breakpoints, run_workload,
        step_instruction, chain_layouts, read_scan_chain, write_scan_chain, write_input_ports,
        read_output_ports, instructions_executed, cycles_executed, iterations_completed,
        step_traced, power_cycle, snapshot, restore, supports_snapshot, prefix_restore_safe,
    }
}

#[test]
fn a_decorator_outside_goofi_core_keeps_the_pass_through_rules() {
    let reached = Rc::new(Reached::default());
    let mut probe = Probe {
        inner: Scripted::new(100),
        reached: Rc::clone(&reached),
    };
    assert!(probe.can_rejoin());
    assert_eq!(probe.memory_digest(64).unwrap(), SENTINEL);
    let mut target = Forwarding { inner: probe };

    assert!(!target.can_rejoin(), "can_rejoin passed through");
    let capture = TargetSnapshot::new(());
    assert!(!target.rejoin(&capture, &capture).unwrap(), "rejoined");
    assert_eq!(reached.rejoins.get(), 0, "rejoin passed through");

    target.write_memory(3, &[0xDEAD_BEEF, 7]).unwrap();
    let len = target.memory_size() as usize;
    let own = digest_words(&target.read_memory(0, len).unwrap());
    let digest = target.memory_digest(len).unwrap();
    assert_ne!(digest, SENTINEL, "memory_digest passed through");
    assert_eq!(digest, own);

    target.power_cycle().unwrap();
    assert_eq!(reached.power_cycles.get(), 1, "power_cycle");
}
