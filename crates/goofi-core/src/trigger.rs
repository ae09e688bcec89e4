//! Fault triggers: *when* a fault is injected.
//!
//! The base tool injects at breakpoints "set according to the points in time
//! when the fault should be injected" (paper §3.3); §4 lists the planned
//! additional triggers — "access of certain data values, execution of branch
//! instructions or subprogram calls … or at specific times determined by a
//! real-time clock" — all of which are implemented here.

use scanchain::DebugCondition;
use std::fmt::{self, Write};

/// When to inject a fault during an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// Inject into the memory image before execution starts — pre-runtime
    /// SWIFI (paper §1).
    PreRuntime,
    /// Inject when the program counter reaches an address.
    Breakpoint(u32),
    /// Inject after N instructions have executed.
    AfterInstructions(u64),
    /// Inject when a data address is read or written (§4 extension).
    DataAccess(u32),
    /// Inject when a data address is written (§4 extension).
    DataWrite(u32),
    /// Inject at the next taken branch (§4 extension).
    BranchExecuted,
    /// Inject at the next subprogram call (§4 extension).
    CallExecuted,
    /// Inject after N cycles — the "real-time clock" trigger (§4 extension).
    AfterCycles(u64),
}

impl Trigger {
    /// The debug-unit condition implementing this trigger, or `None` for
    /// [`Trigger::PreRuntime`] (which needs no breakpoint).
    pub fn to_debug_condition(self) -> Option<DebugCondition> {
        match self {
            Trigger::PreRuntime => None,
            Trigger::Breakpoint(pc) => Some(DebugCondition::PcEquals(pc)),
            Trigger::AfterInstructions(n) => Some(DebugCondition::InstructionCount(n)),
            Trigger::DataAccess(a) => Some(DebugCondition::DataAccess(a)),
            Trigger::DataWrite(a) => Some(DebugCondition::DataWrite(a)),
            Trigger::BranchExecuted => Some(DebugCondition::BranchExecuted),
            Trigger::CallExecuted => Some(DebugCondition::CallExecuted),
            Trigger::AfterCycles(n) => Some(DebugCondition::CycleCount(n)),
        }
    }

    /// Whether injection happens before the workload starts.
    pub fn is_pre_runtime(self) -> bool {
        self == Trigger::PreRuntime
    }

    /// Compact string form for the `experimentData` database attribute.
    pub fn encode(self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`Trigger::encode`]'s text to `out`.
    pub(crate) fn encode_into(self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = match self {
            Trigger::PreRuntime => out.write_str("pre"),
            Trigger::Breakpoint(pc) => write!(out, "pc:{pc}"),
            Trigger::AfterInstructions(n) => write!(out, "instr:{n}"),
            Trigger::DataAccess(a) => write!(out, "daccess:{a}"),
            Trigger::DataWrite(a) => write!(out, "dwrite:{a}"),
            Trigger::BranchExecuted => out.write_str("branch"),
            Trigger::CallExecuted => out.write_str("call"),
            Trigger::AfterCycles(n) => write!(out, "cycles:{n}"),
        };
    }

    /// Parses [`Trigger::encode`] output.
    pub fn decode(s: &str) -> Option<Trigger> {
        match s {
            "pre" => return Some(Trigger::PreRuntime),
            "branch" => return Some(Trigger::BranchExecuted),
            "call" => return Some(Trigger::CallExecuted),
            _ => {}
        }
        let (kind, arg) = s.split_once(':')?;
        match kind {
            "pc" => arg.parse().ok().map(Trigger::Breakpoint),
            "instr" => arg.parse().ok().map(Trigger::AfterInstructions),
            "daccess" => arg.parse().ok().map(Trigger::DataAccess),
            "dwrite" => arg.parse().ok().map(Trigger::DataWrite),
            "cycles" => arg.parse().ok().map(Trigger::AfterCycles),
            _ => None,
        }
    }
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::PreRuntime => f.write_str("pre-runtime"),
            Trigger::Breakpoint(pc) => write!(f, "breakpoint at pc={pc:#x}"),
            Trigger::AfterInstructions(n) => write!(f, "after {n} instructions"),
            Trigger::DataAccess(a) => write!(f, "on access of address {a:#x}"),
            Trigger::DataWrite(a) => write!(f, "on write of address {a:#x}"),
            Trigger::BranchExecuted => f.write_str("on branch execution"),
            Trigger::CallExecuted => f.write_str("on subprogram call"),
            Trigger::AfterCycles(n) => write!(f, "after {n} cycles"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_triggers() -> Vec<Trigger> {
        vec![
            Trigger::PreRuntime,
            Trigger::Breakpoint(0x40),
            Trigger::AfterInstructions(1000),
            Trigger::DataAccess(0x100),
            Trigger::DataWrite(0x200),
            Trigger::BranchExecuted,
            Trigger::CallExecuted,
            Trigger::AfterCycles(5_000),
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for t in all_triggers() {
            assert_eq!(Trigger::decode(&t.encode()), Some(t), "{t}");
        }
        assert_eq!(Trigger::decode("bogus"), None);
        assert_eq!(Trigger::decode("pc:notanumber"), None);
    }

    #[test]
    fn only_pre_runtime_lacks_a_debug_condition() {
        for t in all_triggers() {
            assert_eq!(t.to_debug_condition().is_none(), t.is_pre_runtime(), "{t}");
        }
    }

    #[test]
    fn debug_condition_mapping() {
        assert_eq!(
            Trigger::Breakpoint(7).to_debug_condition(),
            Some(DebugCondition::PcEquals(7))
        );
        assert_eq!(
            Trigger::AfterCycles(9).to_debug_condition(),
            Some(DebugCondition::CycleCount(9))
        );
    }
}
