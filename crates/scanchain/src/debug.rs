//! The debug-event unit: breakpoints and watchpoints programmed via scan.
//!
//! GOOFI's SCIFI algorithm "requires breakpoints to be set according to the
//! points in time when the fault should be injected … The breakpoint is
//! obtained by analysing the workload code and is set via the scan-chains"
//! (paper §3.3). A fault injection experiment can also "be terminated by a
//! debug event generated via the scan chains i.e., when a time-out value has
//! been reached" (§3.2).
//!
//! [`DebugUnit`] models that logic: a set of armed [`DebugCondition`]s that
//! the core reports its activity to ([`BusEvent`]) and that fires
//! [`DebugEvent`]s. The unit's configuration registers are exposed as a scan
//! chain so the test card programs it exactly the way the paper describes.

use crate::{BitVec, CellAccess, ChainLayout};
use std::sync::OnceLock;

/// A condition the debug unit can be armed with.
///
/// The first two are the paper's §3.3 breakpoints; the rest are the "future
/// extensions" triggers from §4 (data access, branch instructions,
/// subprogram calls, real-time clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DebugCondition {
    /// Break when the program counter reaches the given address.
    PcEquals(u32),
    /// Break once the executed-instruction count reaches the given value.
    InstructionCount(u64),
    /// Break when the given data address is read or written.
    DataAccess(u32),
    /// Break when the given data address is written.
    DataWrite(u32),
    /// Break on execution of any taken branch instruction.
    BranchExecuted,
    /// Break on execution of any subprogram call instruction.
    CallExecuted,
    /// Break when the cycle counter (real-time clock) reaches the value.
    CycleCount(u64),
}

/// A debug event the unit reports to the test card.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DebugEvent {
    /// The condition that fired.
    pub condition: DebugCondition,
    /// Instruction count at which it fired.
    pub at_instruction: u64,
    /// Cycle count at which it fired.
    pub at_cycle: u64,
}

/// Core activity reported to the debug unit each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusEvent {
    /// An instruction at `pc` is about to execute.
    Fetch {
        /// Address of the instruction.
        pc: u32,
    },
    /// A data read from `addr` completed.
    DataRead {
        /// Address read.
        addr: u32,
    },
    /// A data write to `addr` completed.
    DataWrite {
        /// Address written.
        addr: u32,
    },
    /// A taken branch to `target` executed.
    Branch {
        /// Branch target address.
        target: u32,
    },
    /// A subprogram call to `target` executed.
    Call {
        /// Call target address.
        target: u32,
    },
}

/// Number of condition slots in the hardware unit.
pub const DEBUG_SLOTS: usize = 4;

/// The debug-event unit of a scan-instrumented core.
///
/// Holds up to [`DEBUG_SLOTS`] armed conditions. Once any condition fires the
/// unit latches the event until [`DebugUnit::clear`]; the core is expected to
/// halt when [`DebugUnit::pending`] is set.
#[derive(Debug, Clone, Default)]
pub struct DebugUnit {
    conditions: Vec<DebugCondition>,
    pending: Option<DebugEvent>,
    instructions: u64,
    cycles: u64,
}

impl DebugUnit {
    /// Creates an empty, disarmed unit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a condition.
    ///
    /// # Panics
    ///
    /// Panics if all [`DEBUG_SLOTS`] slots are in use.
    pub fn arm(&mut self, condition: DebugCondition) {
        assert!(
            self.conditions.len() < DEBUG_SLOTS,
            "all {DEBUG_SLOTS} debug slots in use"
        );
        self.conditions.push(condition);
    }

    /// Removes all armed conditions and any pending event.
    pub fn disarm_all(&mut self) {
        self.conditions.clear();
        self.pending = None;
    }

    /// Currently armed conditions.
    pub fn conditions(&self) -> &[DebugCondition] {
        &self.conditions
    }

    /// The latched event, if one has fired.
    #[inline(always)]
    pub fn pending(&self) -> Option<DebugEvent> {
        self.pending
    }

    /// Clears a latched event so execution can continue.
    pub fn clear(&mut self) {
        self.pending = None;
    }

    /// Resets progress counters (on target reset).
    pub fn reset_counters(&mut self) {
        self.instructions = 0;
        self.cycles = 0;
        self.pending = None;
    }

    /// Instructions observed since the last reset.
    pub fn instruction_count(&self) -> u64 {
        self.instructions
    }

    /// Cycles observed since the last reset.
    pub fn cycle_count(&self) -> u64 {
        self.cycles
    }

    /// Whether no condition is armed and no event is latched: the unit
    /// only counts, so the core's per-instruction reports take the inlined
    /// path and never reach condition matching.
    #[inline(always)]
    fn idle(&self) -> bool {
        self.conditions.is_empty() && self.pending.is_none()
    }

    /// Advances the cycle counter; fires any armed cycle-count condition.
    #[inline(always)]
    pub fn on_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
        if !self.idle() {
            self.match_cycles();
        }
    }

    /// [`Self::on_cycles`] with a condition armed or an event latched.
    #[cold]
    #[inline(never)]
    fn match_cycles(&mut self) {
        if self.pending.is_none() {
            for &c in &self.conditions {
                if let DebugCondition::CycleCount(n) = c {
                    if self.cycles >= n {
                        self.pending = Some(DebugEvent {
                            condition: c,
                            at_instruction: self.instructions,
                            at_cycle: self.cycles,
                        });
                        break;
                    }
                }
            }
        }
    }

    /// Reports one core bus event; returns the debug event if one fired now.
    ///
    /// A `Fetch` event also increments the instruction counter, *after*
    /// matching `InstructionCount` conditions, so a condition armed with
    /// count `n` fires before the `(n+1)`-th instruction executes (i.e.
    /// after `n` complete instructions — the semantics the SCIFI algorithm
    /// needs to inject "after N instructions").
    #[inline(always)]
    pub fn observe(&mut self, event: BusEvent) -> Option<DebugEvent> {
        if self.idle() {
            if let BusEvent::Fetch { .. } = event {
                self.instructions += 1;
            }
            return None;
        }
        self.match_event(event)
    }

    /// [`Self::observe`] with a condition armed or an event latched.
    #[cold]
    #[inline(never)]
    fn match_event(&mut self, event: BusEvent) -> Option<DebugEvent> {
        if self.pending.is_some() {
            if let BusEvent::Fetch { .. } = event {
                // Core is halting; don't double-count.
            }
            return None;
        }
        let fired = self.conditions.iter().copied().find(|&c| match (c, event) {
            (DebugCondition::PcEquals(want), BusEvent::Fetch { pc }) => pc == want,
            (DebugCondition::InstructionCount(n), BusEvent::Fetch { .. }) => self.instructions >= n,
            (DebugCondition::DataAccess(a), BusEvent::DataRead { addr }) => addr == a,
            (DebugCondition::DataAccess(a), BusEvent::DataWrite { addr }) => addr == a,
            (DebugCondition::DataWrite(a), BusEvent::DataWrite { addr }) => addr == a,
            (DebugCondition::BranchExecuted, BusEvent::Branch { .. }) => true,
            (DebugCondition::CallExecuted, BusEvent::Call { .. }) => true,
            _ => false,
        });
        if let Some(condition) = fired {
            let ev = DebugEvent {
                condition,
                at_instruction: self.instructions,
                at_cycle: self.cycles,
            };
            self.pending = Some(ev);
            return Some(ev);
        }
        if let BusEvent::Fetch { .. } = event {
            self.instructions += 1;
        }
        None
    }

    /// Layout of the debug unit's configuration/status scan chain, built
    /// once per process.
    ///
    /// Four condition slots (kind + operand each) plus read-only status.
    pub fn chain_layout() -> ChainLayout {
        static LAYOUT: OnceLock<ChainLayout> = OnceLock::new();
        let layout = LAYOUT.get_or_init(|| {
            let mut b = ChainLayout::builder("debug");
            for i in 0..DEBUG_SLOTS {
                b = b
                    .cell(format!("COND{i}.KIND"), 4, CellAccess::ReadWrite)
                    .cell(format!("COND{i}.OPERAND"), 64, CellAccess::ReadWrite);
            }
            b.cell("HIT", 1, CellAccess::ReadOnly)
                .cell("HIT_SLOT", 4, CellAccess::ReadOnly)
                .cell("ICOUNT", 64, CellAccess::ReadOnly)
                .cell("CCOUNT", 64, CellAccess::ReadOnly)
                .build()
        });
        layout.clone()
    }

    /// Captures the unit's registers into a scan image.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::ScanError`] from cell access; cannot fail for
    /// the layout this unit builds itself, but kept fallible so callers in
    /// scan transport paths never have to panic.
    pub fn capture(&self) -> Result<BitVec, crate::ScanError> {
        let slots = (0..DEBUG_SLOTS).flat_map(|i| {
            let (kind, operand) = self
                .conditions
                .get(i)
                .map_or((0, 0), |&c| encode_condition(c));
            [kind as u64, operand]
        });
        let hit_slot = self
            .pending
            .and_then(|ev| self.conditions.iter().position(|&c| c == ev.condition))
            .unwrap_or(0);
        let status = [
            self.pending.is_some() as u64,
            hit_slot as u64,
            self.instructions,
            self.cycles,
        ];
        Self::chain_layout().pack(slots.chain(status))
    }

    /// Applies an update image to the unit's writable registers.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ScanError::LengthMismatch`] (via cell access) when
    /// `bits` is not a full debug-chain image.
    pub fn update(&mut self, bits: &BitVec) -> Result<(), crate::ScanError> {
        let cells = Self::chain_layout().unpack::<{ 2 * DEBUG_SLOTS + 4 }>(bits)?;
        self.conditions = cells[..2 * DEBUG_SLOTS]
            .chunks(2)
            .filter_map(|slot| decode_condition(slot[0] as u8, slot[1]))
            .collect();
        Ok(())
    }
}

fn encode_condition(c: DebugCondition) -> (u8, u64) {
    match c {
        DebugCondition::PcEquals(a) => (1, a as u64),
        DebugCondition::InstructionCount(n) => (2, n),
        DebugCondition::DataAccess(a) => (3, a as u64),
        DebugCondition::DataWrite(a) => (4, a as u64),
        DebugCondition::BranchExecuted => (5, 0),
        DebugCondition::CallExecuted => (6, 0),
        DebugCondition::CycleCount(n) => (7, n),
    }
}

fn decode_condition(kind: u8, operand: u64) -> Option<DebugCondition> {
    Some(match kind {
        1 => DebugCondition::PcEquals(operand as u32),
        2 => DebugCondition::InstructionCount(operand),
        3 => DebugCondition::DataAccess(operand as u32),
        4 => DebugCondition::DataWrite(operand as u32),
        5 => DebugCondition::BranchExecuted,
        6 => DebugCondition::CallExecuted,
        7 => DebugCondition::CycleCount(operand),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_captures_and_updates_its_own_field() {
        let armed = [
            DebugCondition::DataWrite(0x44),
            DebugCondition::CycleCount(0x1_0000_0005),
            DebugCondition::PcEquals(0x40),
            DebugCondition::InstructionCount(77),
        ];
        let mut du = DebugUnit::new();
        for c in armed {
            du.arm(c);
        }
        du.instructions = 0xABCD;
        du.cycles = 0x1234_5678_9ABC;
        du.pending = Some(DebugEvent {
            condition: armed[2],
            at_instruction: 0,
            at_cycle: 0,
        });
        let layout = DebugUnit::chain_layout();
        let bits = du.capture().unwrap();
        let cell = |name: &str| layout.read_cell(&bits, name).unwrap();
        for (i, c) in armed.into_iter().enumerate() {
            let (kind, operand) = encode_condition(c);
            assert_eq!(cell(&format!("COND{i}.KIND")), u64::from(kind), "slot {i}");
            assert_eq!(cell(&format!("COND{i}.OPERAND")), operand, "slot {i}");
        }
        assert_eq!(
            ["HIT", "HIT_SLOT", "ICOUNT", "CCOUNT"].map(cell),
            [1, 2, 0xABCD, 0x1234_5678_9ABC]
        );

        let written = [
            DebugCondition::CallExecuted,
            DebugCondition::DataAccess(0x80),
            DebugCondition::BranchExecuted,
            DebugCondition::InstructionCount(9),
        ];
        let mut bits = bits;
        for (i, c) in written.into_iter().enumerate() {
            let (kind, operand) = encode_condition(c);
            layout
                .write_cell(&mut bits, &format!("COND{i}.KIND"), u64::from(kind))
                .unwrap();
            layout
                .write_cell(&mut bits, &format!("COND{i}.OPERAND"), operand)
                .unwrap();
        }
        du.update(&bits).unwrap();
        assert_eq!(du.conditions(), written);
    }

    #[test]
    fn pc_breakpoint_fires_on_fetch() {
        let mut du = DebugUnit::new();
        du.arm(DebugCondition::PcEquals(0x40));
        assert!(du.observe(BusEvent::Fetch { pc: 0x3C }).is_none());
        let ev = du.observe(BusEvent::Fetch { pc: 0x40 }).unwrap();
        assert_eq!(ev.condition, DebugCondition::PcEquals(0x40));
        assert_eq!(ev.at_instruction, 1);
        assert!(du.pending().is_some());
    }

    #[test]
    fn instruction_count_fires_after_n_instructions() {
        let mut du = DebugUnit::new();
        du.arm(DebugCondition::InstructionCount(3));
        for pc in [0u32, 4, 8] {
            assert!(du.observe(BusEvent::Fetch { pc }).is_none(), "pc {pc}");
        }
        let ev = du.observe(BusEvent::Fetch { pc: 12 }).unwrap();
        assert_eq!(ev.at_instruction, 3);
    }

    #[test]
    fn data_access_fires_on_read_and_write() {
        let mut du = DebugUnit::new();
        du.arm(DebugCondition::DataAccess(0x100));
        assert!(du.observe(BusEvent::DataRead { addr: 0x104 }).is_none());
        assert!(du.observe(BusEvent::DataRead { addr: 0x100 }).is_some());
        du.clear();
        assert!(du.observe(BusEvent::DataWrite { addr: 0x100 }).is_some());
    }

    #[test]
    fn data_write_ignores_reads() {
        let mut du = DebugUnit::new();
        du.arm(DebugCondition::DataWrite(0x80));
        assert!(du.observe(BusEvent::DataRead { addr: 0x80 }).is_none());
        assert!(du.observe(BusEvent::DataWrite { addr: 0x80 }).is_some());
    }

    #[test]
    fn branch_and_call_triggers() {
        let mut du = DebugUnit::new();
        du.arm(DebugCondition::BranchExecuted);
        assert!(du.observe(BusEvent::Call { target: 8 }).is_none());
        assert!(du.observe(BusEvent::Branch { target: 4 }).is_some());
        du.disarm_all();
        du.arm(DebugCondition::CallExecuted);
        assert!(du.observe(BusEvent::Branch { target: 4 }).is_none());
        assert!(du.observe(BusEvent::Call { target: 8 }).is_some());
    }

    #[test]
    fn cycle_count_fires_via_on_cycles() {
        let mut du = DebugUnit::new();
        du.arm(DebugCondition::CycleCount(100));
        du.on_cycles(60);
        assert!(du.pending().is_none());
        du.on_cycles(60);
        let ev = du.pending().unwrap();
        assert_eq!(ev.at_cycle, 120);
    }

    #[test]
    fn latched_event_suppresses_further_counting() {
        let mut du = DebugUnit::new();
        du.arm(DebugCondition::PcEquals(0));
        du.observe(BusEvent::Fetch { pc: 0 }).unwrap();
        let count = du.instruction_count();
        assert!(du.observe(BusEvent::Fetch { pc: 4 }).is_none());
        assert_eq!(du.instruction_count(), count);
        du.clear();
        assert!(du.pending().is_none());
    }

    #[test]
    fn scan_roundtrip_preserves_conditions() {
        let mut du = DebugUnit::new();
        du.arm(DebugCondition::PcEquals(0xABCD));
        du.arm(DebugCondition::InstructionCount(42));
        du.arm(DebugCondition::CycleCount(9999));
        let image = du.capture().unwrap();

        let mut other = DebugUnit::new();
        other.update(&image).unwrap();
        assert_eq!(other.conditions(), du.conditions());
        // A wrong-size image is a typed error, not a panic.
        assert!(other.update(&BitVec::zeros(3)).is_err());
    }

    #[test]
    fn capture_exposes_hit_status_read_only() {
        let mut du = DebugUnit::new();
        du.arm(DebugCondition::PcEquals(4));
        du.observe(BusEvent::Fetch { pc: 4 });
        let layout = DebugUnit::chain_layout();
        let image = du.capture().unwrap();
        assert_eq!(layout.read_cell(&image, "HIT").unwrap(), 1);
        assert_eq!(layout.cell("HIT").unwrap().access, CellAccess::ReadOnly);
        // The breakpoint fires on fetch, before the instruction completes.
        assert_eq!(layout.read_cell(&image, "ICOUNT").unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "debug slots in use")]
    fn arming_too_many_conditions_panics() {
        let mut du = DebugUnit::new();
        for i in 0..=DEBUG_SLOTS {
            du.arm(DebugCondition::PcEquals(i as u32));
        }
    }
}
