//! Fault models and fault locations: *what* is injected and *where*.
//!
//! The paper's base tool "is capable of injecting single or multiple
//! transient bit-flip faults" (§1); §4 adds "additional fault models such as
//! intermittent and permanent faults" — all four are implemented.

use crate::trigger::Trigger;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt::{self, Write};

/// A single fault-injection location.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FaultLocation {
    /// One bit of a named cell in a scan chain (SCIFI).
    ScanCell {
        /// Chain name.
        chain: String,
        /// Cell name within the chain.
        cell: String,
        /// Bit index within the cell.
        bit: usize,
    },
    /// One bit of a memory word (SWIFI).
    Memory {
        /// Word address.
        addr: u32,
        /// Bit index (0..32).
        bit: u8,
    },
}

impl FaultLocation {
    /// Compact string form for the `experimentData` database attribute.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`FaultLocation::encode`]'s text to `out`.
    pub(crate) fn encode_into(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = match self {
            FaultLocation::ScanCell { chain, cell, bit } => {
                write!(out, "scan:{chain}:{cell}:{bit}")
            }
            FaultLocation::Memory { addr, bit } => write!(out, "mem:{addr}:{bit}"),
        };
    }

    /// Parses [`FaultLocation::encode`] output.
    pub fn decode(s: &str) -> Option<FaultLocation> {
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            ["scan", chain, cell, bit] => Some(FaultLocation::ScanCell {
                chain: chain.to_string(),
                cell: cell.to_string(),
                bit: bit.parse().ok()?,
            }),
            ["mem", addr, bit] => Some(FaultLocation::Memory {
                addr: addr.parse().ok()?,
                bit: bit.parse().ok()?,
            }),
            _ => None,
        }
    }

    /// A coarse location class for analysis tables (e.g. `"internal.R3"`,
    /// `"icache"`, `"memory"`).
    pub fn class(&self) -> String {
        match self {
            FaultLocation::ScanCell { chain, cell, .. } => {
                // Cache cells are named L<i>.<FIELD>; group per chain.
                if cell.starts_with('L') && cell.contains('.') {
                    chain.clone()
                } else {
                    format!("{chain}.{cell}")
                }
            }
            FaultLocation::Memory { .. } => "memory".to_string(),
        }
    }
}

impl fmt::Display for FaultLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultLocation::ScanCell { chain, cell, bit } => {
                write!(f, "{chain}/{cell}[{bit}]")
            }
            FaultLocation::Memory { addr, bit } => write!(f, "mem[{addr:#x}] bit {bit}"),
        }
    }
}

/// The fault model applied at the trigger point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// Invert the bit once (transient bit flip — the base model).
    TransientBitFlip,
    /// Force the bit to 0 for the rest of the experiment (permanent).
    StuckAtZero,
    /// Force the bit to 1 for the rest of the experiment (permanent).
    StuckAtOne,
    /// Re-flip the bit every `period` instructions, `bursts` times in total
    /// (intermittent).
    Intermittent {
        /// Instructions between re-injections.
        period: u64,
        /// Total number of injections.
        bursts: u32,
    },
}

impl FaultModel {
    /// Compact string form for the database.
    pub fn encode(self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`FaultModel::encode`]'s text to `out`.
    pub(crate) fn encode_into(self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = match self {
            FaultModel::TransientBitFlip => out.write_str("flip"),
            FaultModel::StuckAtZero => out.write_str("sa0"),
            FaultModel::StuckAtOne => out.write_str("sa1"),
            FaultModel::Intermittent { period, bursts } => write!(out, "int:{period}:{bursts}"),
        };
    }

    /// Parses [`FaultModel::encode`] output.
    pub fn decode(s: &str) -> Option<FaultModel> {
        match s {
            "flip" => return Some(FaultModel::TransientBitFlip),
            "sa0" => return Some(FaultModel::StuckAtZero),
            "sa1" => return Some(FaultModel::StuckAtOne),
            _ => {}
        }
        let rest = s.strip_prefix("int:")?;
        let (p, b) = rest.split_once(':')?;
        Some(FaultModel::Intermittent {
            period: p.parse().ok()?,
            bursts: b.parse().ok()?,
        })
    }

    /// Whether the model needs to re-assert the fault while the workload
    /// continues running (permanent and intermittent models).
    pub fn is_persistent(self) -> bool {
        !matches!(self, FaultModel::TransientBitFlip)
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultModel::TransientBitFlip => f.write_str("transient bit-flip"),
            FaultModel::StuckAtZero => f.write_str("stuck-at-0"),
            FaultModel::StuckAtOne => f.write_str("stuck-at-1"),
            FaultModel::Intermittent { period, bursts } => {
                write!(f, "intermittent (x{bursts}, every {period} instr)")
            }
        }
    }
}

/// One experiment's fault: locations (one for single, several for multiple
/// bit flips), model, and injection trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Bits to disturb (all at the same trigger point).
    pub locations: Vec<FaultLocation>,
    /// Fault model.
    pub model: FaultModel,
    /// Injection time.
    pub trigger: Trigger,
}

impl FaultSpec {
    /// A single transient bit flip at `location` when `trigger` fires.
    pub fn single(location: FaultLocation, trigger: Trigger) -> FaultSpec {
        FaultSpec {
            locations: vec![location],
            model: FaultModel::TransientBitFlip,
            trigger,
        }
    }

    /// Serialises to the `experimentData` attribute format.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`FaultSpec::encode`]'s text to `out`.
    pub(crate) fn encode_into(&self, out: &mut String) {
        out.push_str("model=");
        self.model.encode_into(out);
        out.push_str(";trigger=");
        self.trigger.encode_into(out);
        out.push_str(";locations=");
        for (i, location) in self.locations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            location.encode_into(out);
        }
    }

    /// Parses [`FaultSpec::encode`] output.
    pub fn decode(s: &str) -> Option<FaultSpec> {
        let mut model = None;
        let mut trigger = None;
        let mut locations = Vec::new();
        for part in s.split(';') {
            let (k, v) = part.split_once('=')?;
            match k {
                "model" => model = FaultModel::decode(v),
                "trigger" => trigger = Trigger::decode(v),
                "locations" => {
                    for l in v.split(',').filter(|l| !l.is_empty()) {
                        locations.push(FaultLocation::decode(l)?);
                    }
                }
                _ => return None,
            }
        }
        Some(FaultSpec {
            locations,
            model: model?,
            trigger: trigger?,
        })
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at ", self.model)?;
        for (i, l) in self.locations.iter().enumerate() {
            if i > 0 {
                f.write_str(" + ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ", {}", self.trigger)
    }
}

/// The sampling universe for a campaign: which bits and which times are
/// eligible. The set-up phase presents this as the "hierarchical list of
/// possible locations" (paper Figure 6) from which experiments are drawn.
#[derive(Debug, Clone, Default)]
pub struct FaultSpace {
    /// Scan-cell candidates: `(chain, cell, width_in_bits)`.
    pub scan_cells: Vec<(String, String, usize)>,
    /// Memory candidate range `[start, end)` in words.
    pub memory: Option<std::ops::Range<u32>>,
    /// Injection-time window in instructions `[earliest, latest)`.
    pub time_window: std::ops::Range<u64>,
}

impl FaultSpace {
    /// Total number of injectable bits.
    pub fn bit_count(&self) -> u64 {
        let scan: u64 = self.scan_cells.iter().map(|(_, _, w)| *w as u64).sum();
        let mem = self
            .memory
            .as_ref()
            .map(|r| (r.end - r.start) as u64 * 32)
            .unwrap_or(0);
        scan + mem
    }

    /// Draws one uniformly random bit location.
    ///
    /// # Panics
    ///
    /// Panics if the space is empty.
    pub fn sample_location<R: Rng>(&self, rng: &mut R) -> FaultLocation {
        Draw::new(self).location(rng)
    }

    /// Draws a uniformly random injection time (instruction count) from the
    /// time window.
    pub fn sample_time<R: Rng>(&self, rng: &mut R) -> u64 {
        if self.time_window.is_empty() {
            self.time_window.start
        } else {
            rng.gen_range(self.time_window.clone())
        }
    }

    /// Samples `n` single-bit-flip experiments: uniformly random
    /// (location, time) pairs — the standard campaign generator.
    pub fn sample_campaign<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<FaultSpec> {
        let draw = Draw::new(self);
        (0..n)
            .map(|_| {
                FaultSpec::single(
                    draw.location(rng),
                    Trigger::AfterInstructions(self.sample_time(rng)),
                )
            })
            .collect()
    }

    /// Samples `n` experiments with `flips` simultaneous bit flips each
    /// (the paper's "multiple transient bit-flip faults").
    pub fn sample_multi_campaign<R: Rng>(
        &self,
        n: usize,
        flips: usize,
        rng: &mut R,
    ) -> Vec<FaultSpec> {
        let draw = Draw::new(self);
        (0..n)
            .map(|_| {
                let mut locations = Vec::with_capacity(flips);
                while locations.len() < flips {
                    let l = draw.location(rng);
                    if !locations.contains(&l) {
                        locations.push(l);
                    }
                }
                locations.shuffle(rng);
                FaultSpec {
                    locations,
                    model: FaultModel::TransientBitFlip,
                    trigger: Trigger::AfterInstructions(self.sample_time(rng)),
                }
            })
            .collect()
    }
}

/// A fault space prepared for many draws: the running bit count at the end
/// of each scan cell, so a draw finds its cell by binary search rather than
/// by walking every cell (a campaign over Thor's caches draws from ~280).
struct Draw<'a> {
    space: &'a FaultSpace,
    /// `ends[i]`: scan bits in cells `0..=i`.
    ends: Vec<u64>,
    total: u64,
}

impl<'a> Draw<'a> {
    fn new(space: &'a FaultSpace) -> Self {
        let ends = space
            .scan_cells
            .iter()
            .scan(0, |bits, (_, _, width)| {
                *bits += *width as u64;
                Some(*bits)
            })
            .collect();
        Draw {
            space,
            ends,
            total: space.bit_count(),
        }
    }

    /// Draws one bit uniformly.
    fn location<R: Rng>(&self, rng: &mut R) -> FaultLocation {
        assert!(self.total > 0, "empty fault space");
        self.at(rng.gen_range(0..self.total))
    }

    /// Bit `pick` of the space in draw order: scan cells first, then
    /// memory words.
    fn at(&self, pick: u64) -> FaultLocation {
        let cell = self.ends.partition_point(|&end| end <= pick);
        let start = cell.checked_sub(1).map_or(0, |before| self.ends[before]);
        if let Some((chain, name, _)) = self.space.scan_cells.get(cell) {
            return FaultLocation::ScanCell {
                chain: chain.clone(),
                cell: name.clone(),
                bit: (pick - start) as usize,
            };
        }
        let pick = pick - start;
        let mem = self
            .space
            .memory
            .as_ref()
            .expect("pick must land in memory");
        FaultLocation::Memory {
            addr: mem.start + (pick / 32) as u32,
            bit: (pick % 32) as u8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> FaultSpace {
        FaultSpace {
            scan_cells: vec![
                ("internal".into(), "R1".into(), 32),
                ("internal".into(), "PC".into(), 32),
            ],
            memory: Some(100..104),
            time_window: 0..1000,
        }
    }

    #[test]
    fn a_draw_maps_every_bit_as_a_walk_over_the_cells_does() {
        let mut s = space();
        s.scan_cells
            .insert(1, ("icache".into(), "L0.VALID".into(), 1));
        let draw = Draw::new(&s);
        for pick in 0..s.bit_count() {
            let mut rest = pick;
            let mut walked = None;
            for (chain, cell, width) in &s.scan_cells {
                if rest < *width as u64 {
                    walked = Some(FaultLocation::ScanCell {
                        chain: chain.clone(),
                        cell: cell.clone(),
                        bit: rest as usize,
                    });
                    break;
                }
                rest -= *width as u64;
            }
            let walked = walked.unwrap_or(FaultLocation::Memory {
                addr: 100 + (rest / 32) as u32,
                bit: (rest % 32) as u8,
            });
            assert_eq!(draw.at(pick), walked, "bit {pick}");
        }
    }

    #[test]
    fn bit_count_sums_scan_and_memory() {
        assert_eq!(space().bit_count(), 64 + 4 * 32);
    }

    #[test]
    fn sampled_locations_are_in_space() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(42);
        let mut saw_scan = false;
        let mut saw_mem = false;
        for _ in 0..500 {
            match s.sample_location(&mut rng) {
                FaultLocation::ScanCell { chain, cell, bit } => {
                    assert_eq!(chain, "internal");
                    assert!(cell == "R1" || cell == "PC");
                    assert!(bit < 32);
                    saw_scan = true;
                }
                FaultLocation::Memory { addr, bit } => {
                    assert!((100..104).contains(&addr));
                    assert!(bit < 32);
                    saw_mem = true;
                }
            }
        }
        assert!(saw_scan && saw_mem);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let s = space();
        let a = s.sample_campaign(20, &mut StdRng::seed_from_u64(7));
        let b = s.sample_campaign(20, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = s.sample_campaign(20, &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn multi_campaign_has_distinct_locations() {
        let s = space();
        let specs = s.sample_multi_campaign(10, 3, &mut StdRng::seed_from_u64(1));
        for spec in specs {
            assert_eq!(spec.locations.len(), 3);
            for (i, l) in spec.locations.iter().enumerate() {
                assert!(!spec.locations[..i].contains(l));
            }
        }
    }

    #[test]
    fn spec_encode_decode_roundtrip() {
        let specs = vec![
            FaultSpec::single(
                FaultLocation::ScanCell {
                    chain: "internal".into(),
                    cell: "R3".into(),
                    bit: 17,
                },
                Trigger::AfterInstructions(500),
            ),
            FaultSpec {
                locations: vec![
                    FaultLocation::Memory { addr: 40, bit: 3 },
                    FaultLocation::Memory { addr: 41, bit: 0 },
                ],
                model: FaultModel::Intermittent {
                    period: 100,
                    bursts: 5,
                },
                trigger: Trigger::PreRuntime,
            },
            FaultSpec {
                locations: vec![FaultLocation::Memory { addr: 1, bit: 31 }],
                model: FaultModel::StuckAtOne,
                trigger: Trigger::Breakpoint(0x20),
            },
        ];
        for spec in specs {
            assert_eq!(
                FaultSpec::decode(&spec.encode()),
                Some(spec.clone()),
                "{spec}"
            );
        }
        assert_eq!(FaultSpec::decode("garbage"), None);
    }

    #[test]
    fn location_classes() {
        assert_eq!(
            FaultLocation::ScanCell {
                chain: "internal".into(),
                cell: "R3".into(),
                bit: 0
            }
            .class(),
            "internal.R3"
        );
        assert_eq!(
            FaultLocation::ScanCell {
                chain: "icache".into(),
                cell: "L5.DATA".into(),
                bit: 0
            }
            .class(),
            "icache"
        );
        assert_eq!(FaultLocation::Memory { addr: 0, bit: 0 }.class(), "memory");
    }

    #[test]
    fn persistence_flags() {
        assert!(!FaultModel::TransientBitFlip.is_persistent());
        assert!(FaultModel::StuckAtZero.is_persistent());
        assert!(FaultModel::Intermittent {
            period: 1,
            bursts: 2
        }
        .is_persistent());
    }
}
