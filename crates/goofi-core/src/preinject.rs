//! Pre-injection (liveness) analysis — the §4 efficiency extension.
//!
//! "The purpose of this analysis is to determine when registers and other
//! fault injection locations hold live data. Injecting a fault into a
//! location that does not hold live data serves no purpose, since the fault
//! will be overwritten." This module builds a per-location access timeline
//! from a traced reference run and prunes experiments whose (location, time)
//! pair is provably non-effective.

use crate::campaign::Campaign;
use crate::fault::{FaultLocation, FaultSpec};
use crate::target::{RunEvent, TargetAccess};
use crate::trigger::Trigger;
use crate::Result;
use std::collections::BTreeMap;

/// The architectural locations one instruction read and wrote, keyed by
/// [`location_key`]-format strings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepAccess {
    /// Locations read by the instruction.
    pub reads: Vec<String>,
    /// Locations written by the instruction.
    pub writes: Vec<String>,
}

/// The canonical liveness key of a fault location: bit indexes are dropped
/// (liveness is tracked per cell/word).
pub fn location_key(loc: &FaultLocation) -> String {
    match loc {
        FaultLocation::ScanCell { chain, cell, .. } => format!("{chain}:{cell}"),
        FaultLocation::Memory { addr, .. } => format!("mem:{addr}"),
    }
}

/// Liveness verdict for a (location, time) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// The next access after the injection time is a read: the fault can
    /// propagate.
    Live,
    /// The next access is a write: the fault is guaranteed overwritten.
    Dead,
    /// The location is never accessed again: the fault can only become a
    /// latent error.
    NeverUsed,
    /// The location is not covered by the trace (e.g. cache or pipeline
    /// state): unknown, treated as live.
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Read,
    Write,
}

/// Per-location access timelines derived from a reference trace.
#[derive(Debug, Clone, Default)]
pub struct LivenessMap {
    timelines: BTreeMap<String, Vec<(u64, Access)>>,
    trace_len: u64,
}

impl LivenessMap {
    /// Builds the map from per-instruction access records; index `i` of the
    /// slice is instruction time `i`.
    pub fn from_trace(trace: &[StepAccess]) -> Self {
        let mut timelines: BTreeMap<String, Vec<(u64, Access)>> = BTreeMap::new();
        for (t, step) in trace.iter().enumerate() {
            // Reads precede writes within one instruction.
            for r in &step.reads {
                timelines
                    .entry(r.clone())
                    .or_default()
                    .push((t as u64, Access::Read));
            }
            for w in &step.writes {
                timelines
                    .entry(w.clone())
                    .or_default()
                    .push((t as u64, Access::Write));
            }
        }
        LivenessMap {
            timelines,
            trace_len: trace.len() as u64,
        }
    }

    /// Number of instructions in the underlying trace.
    pub fn trace_len(&self) -> u64 {
        self.trace_len
    }

    /// Locations with at least one recorded access.
    pub fn location_count(&self) -> usize {
        self.timelines.len()
    }

    /// Verdict for injecting into `key` after `time` instructions have
    /// retired (i.e. the fault lands before instruction `time` executes).
    pub fn liveness(&self, key: &str, time: u64) -> Liveness {
        let Some(timeline) = self.timelines.get(key) else {
            return Liveness::Unknown;
        };
        match timeline.iter().find(|(t, _)| *t >= time) {
            Some((_, Access::Read)) => Liveness::Live,
            Some((_, Access::Write)) => Liveness::Dead,
            None => Liveness::NeverUsed,
        }
    }

    /// Verdict for a whole fault spec: `Live`/`Unknown` if *any* location
    /// can propagate.
    pub fn spec_liveness(&self, spec: &FaultSpec) -> Liveness {
        let time = match spec.trigger {
            Trigger::AfterInstructions(n) => n,
            Trigger::PreRuntime => 0,
            // Event triggers fire at times the static analysis does not
            // model; treat as unknown.
            _ => return Liveness::Unknown,
        };
        let mut verdict = Liveness::Dead;
        for loc in &spec.locations {
            match self.liveness(&location_key(loc), time) {
                Liveness::Live => return Liveness::Live,
                Liveness::Unknown => verdict = Liveness::Unknown,
                Liveness::NeverUsed if verdict == Liveness::Dead => {
                    verdict = Liveness::NeverUsed;
                }
                _ => {}
            }
        }
        verdict
    }
}

/// Collects a traced reference run: the experiments' load block, then
/// step with access logging until the workload terminates or `max_steps`
/// is reached.
///
/// Control-loop workloads exchange environment data at every iteration
/// boundary through the campaign's exchange routine (ports or designated
/// memory words), exactly as the campaign runs will — the liveness map
/// must be built from the *same trajectory* the experiments follow, or
/// pruning would be unsound. Pass [`envsim::NullEnvironment`] for
/// terminating workloads.
///
/// # Errors
///
/// Propagates target errors; targets without trace support fail with
/// `Unimplemented("step_traced")`, which callers treat as "analysis
/// unavailable".
pub fn collect_trace<T: TargetAccess + ?Sized>(
    target: &mut T,
    campaign: &Campaign,
    max_steps: u64,
    env: &mut dyn envsim::Environment,
) -> Result<Vec<StepAccess>> {
    crate::algorithms::load(target, campaign, env)?;
    let mut trace = Vec::new();
    for _ in 0..max_steps {
        let (event, access) = target.step_traced()?;
        trace.push(access);
        match event {
            None => {}
            Some(RunEvent::IterationBoundary { iteration }) => {
                if campaign
                    .termination
                    .max_iterations
                    .is_some_and(|max| iteration >= max)
                {
                    break;
                }
                crate::algorithms::exchange_env(target, campaign, env)?;
            }
            Some(_) => break,
        }
    }
    Ok(trace)
}

/// Splits a campaign into (kept, pruned) according to the liveness map.
///
/// Experiments whose verdict is [`Liveness::Dead`] — and, when
/// `prune_never_used` is set, [`Liveness::NeverUsed`] — are pruned;
/// everything else is kept. The paper's optimisation goal is exactly this:
/// skip injections that are certain to be overwritten.
pub fn filter_campaign(
    campaign: &Campaign,
    map: &LivenessMap,
    prune_never_used: bool,
) -> (Campaign, Vec<FaultSpec>) {
    let mut kept = Vec::new();
    let mut pruned = Vec::new();
    for spec in &campaign.faults {
        let verdict = map.spec_liveness(spec);
        let prune =
            verdict == Liveness::Dead || (prune_never_used && verdict == Liveness::NeverUsed);
        if prune {
            pruned.push(spec.clone());
        } else {
            kept.push(spec.clone());
        }
    }
    let mut filtered = campaign.clone();
    filtered.faults = kept;
    (filtered, pruned)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(reads: &[&str], writes: &[&str]) -> StepAccess {
        StepAccess {
            reads: reads.iter().map(|s| s.to_string()).collect(),
            writes: writes.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn map() -> LivenessMap {
        // t0: write R1; t1: read R1, write R2; t2: read R2; t3: write R1
        LivenessMap::from_trace(&[
            step(&[], &["internal:R1"]),
            step(&["internal:R1"], &["internal:R2"]),
            step(&["internal:R2"], &[]),
            step(&[], &["internal:R1"]),
        ])
    }

    #[test]
    fn live_when_next_access_is_read() {
        let m = map();
        assert_eq!(m.liveness("internal:R1", 1), Liveness::Live);
        assert_eq!(m.liveness("internal:R2", 2), Liveness::Live);
    }

    #[test]
    fn dead_when_next_access_is_write() {
        let m = map();
        // After t1, R1's next access is the write at t3.
        assert_eq!(m.liveness("internal:R1", 2), Liveness::Dead);
        assert_eq!(m.liveness("internal:R1", 0), Liveness::Dead);
    }

    #[test]
    fn never_used_and_unknown() {
        let m = map();
        assert_eq!(m.liveness("internal:R2", 3), Liveness::NeverUsed);
        assert_eq!(m.liveness("icache:L0.DATA", 0), Liveness::Unknown);
    }

    #[test]
    fn read_precedes_write_within_instruction() {
        // Instruction both reads and writes R1 (e.g. addi r1, r1, 1):
        // injecting right before it must be Live.
        let m = LivenessMap::from_trace(&[step(&["internal:R1"], &["internal:R1"])]);
        assert_eq!(m.liveness("internal:R1", 0), Liveness::Live);
    }

    #[test]
    fn spec_liveness_any_live_wins() {
        let m = map();
        let spec = FaultSpec {
            locations: vec![
                FaultLocation::ScanCell {
                    chain: "internal".into(),
                    cell: "R1".into(),
                    bit: 0,
                },
                FaultLocation::ScanCell {
                    chain: "internal".into(),
                    cell: "R2".into(),
                    bit: 0,
                },
            ],
            model: crate::fault::FaultModel::TransientBitFlip,
            trigger: Trigger::AfterInstructions(2),
        };
        // R1 dead at t2, but R2 live at t2.
        assert_eq!(m.spec_liveness(&spec), Liveness::Live);
    }

    #[test]
    fn event_triggers_are_unknown() {
        let m = map();
        let spec = FaultSpec::single(
            FaultLocation::ScanCell {
                chain: "internal".into(),
                cell: "R1".into(),
                bit: 0,
            },
            Trigger::BranchExecuted,
        );
        assert_eq!(m.spec_liveness(&spec), Liveness::Unknown);
    }

    #[test]
    fn location_keys_drop_bits() {
        assert_eq!(
            location_key(&FaultLocation::ScanCell {
                chain: "internal".into(),
                cell: "R7".into(),
                bit: 31
            }),
            "internal:R7"
        );
        assert_eq!(
            location_key(&FaultLocation::Memory { addr: 100, bit: 5 }),
            "mem:100"
        );
    }
}
