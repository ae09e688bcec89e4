//! A seeded, deterministic target-wedge model.
//!
//! Where [`crate::link`] disturbs the transport *between* host and test
//! card, this module models the target itself going bad: an injected fault
//! (or plain hardware flakiness) leaves the CPU spinning with interrupts
//! off, the TAP state machine stuck mid-shift, or the scan path returning
//! garbage. Campaign drivers wrap a target in a decorator that consults a
//! [`WedgeModel`] and use it to exercise hang detection and the recovery
//! ladder end-to-end without real broken hardware.
//!
//! A wedge is *sticky*: once entered it persists across warm resets and
//! workload reloads, and only clears when the recovery action reaches the
//! configured [`RecoveryDepth`] — a hardware property of the modelled
//! failure (a latched-up core needs a power cycle; a confused TAP recovers
//! on test-card re-init).
//!
//! Like the link model, everything is driven by one SplitMix64 stream
//! seeded from [`WedgeConfig::seed`], so a campaign against a wedging
//! target is exactly reproducible.

use crate::link::splitmix64;
use std::fmt;

/// The ways a target can wedge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WedgeKind {
    /// The core spins without retiring useful work: every run consumes its
    /// whole budget and makes no progress toward termination.
    Hang,
    /// The TAP controller is stuck: every scan access stalls mid-shift.
    StuckTap,
    /// The scan path shifts, but captures garbage bits.
    GarbageScan,
}

impl fmt::Display for WedgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WedgeKind::Hang => f.write_str("hang"),
            WedgeKind::StuckTap => f.write_str("stuck-tap"),
            WedgeKind::GarbageScan => f.write_str("garbage-scan"),
        }
    }
}

/// How deep a recovery action must reach to clear a wedge.
///
/// Ordered: a deeper action also clears every shallower wedge
/// (`SoftReset < Reinit < PowerCycle < Never`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryDepth {
    /// A core reset clears it.
    SoftReset,
    /// Re-initialising the test card clears it.
    Reinit,
    /// Only a full power cycle clears it.
    PowerCycle,
    /// Nothing clears it — the target is permanently gone.
    Never,
}

impl RecoveryDepth {
    /// Config-string form.
    pub fn encode(self) -> &'static str {
        match self {
            RecoveryDepth::SoftReset => "soft",
            RecoveryDepth::Reinit => "reinit",
            RecoveryDepth::PowerCycle => "power",
            RecoveryDepth::Never => "never",
        }
    }

    /// Parses [`RecoveryDepth::encode`] output.
    pub fn decode(s: &str) -> Option<RecoveryDepth> {
        match s {
            "soft" => Some(RecoveryDepth::SoftReset),
            "reinit" => Some(RecoveryDepth::Reinit),
            "power" => Some(RecoveryDepth::PowerCycle),
            "never" => Some(RecoveryDepth::Never),
            _ => None,
        }
    }
}

/// Configuration of a [`WedgeModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WedgeConfig {
    /// RNG seed; the whole wedge schedule is a pure function of it.
    pub seed: u64,
    /// Per-armed-operation probability of entering [`WedgeKind::Hang`].
    pub hang_rate: f64,
    /// Per-armed-operation probability of entering [`WedgeKind::StuckTap`].
    pub stuck_tap_rate: f64,
    /// Per-armed-operation probability of entering
    /// [`WedgeKind::GarbageScan`].
    pub garbage_rate: f64,
    /// Stop wedging after this many wedge events (`None` = unbounded).
    pub max_events: Option<u32>,
    /// How deep a recovery action must reach to clear a wedge.
    pub recovery: RecoveryDepth,
}

impl Default for WedgeConfig {
    fn default() -> Self {
        WedgeConfig {
            seed: 0,
            hang_rate: 0.0,
            stuck_tap_rate: 0.0,
            garbage_rate: 0.0,
            max_events: None,
            recovery: RecoveryDepth::PowerCycle,
        }
    }
}

impl WedgeConfig {
    /// A model that only hangs, at `rate` per armed operation.
    pub fn hang(seed: u64, rate: f64) -> WedgeConfig {
        WedgeConfig {
            seed,
            hang_rate: rate,
            ..WedgeConfig::default()
        }
    }

    /// Total per-operation wedge probability.
    pub fn total_rate(&self) -> f64 {
        self.hang_rate + self.stuck_tap_rate + self.garbage_rate
    }

    /// Whether this configuration can ever wedge.
    pub fn is_active(&self) -> bool {
        self.total_rate() > 0.0 && self.max_events != Some(0)
    }

    /// Compact `key=value,...` form, mirroring
    /// [`crate::LinkFaultConfig::encode`].
    pub fn encode(&self) -> String {
        let mut s = format!(
            "seed={},hang={},stuck={},garbage={},recover={}",
            self.seed,
            self.hang_rate,
            self.stuck_tap_rate,
            self.garbage_rate,
            self.recovery.encode(),
        );
        if let Some(max) = self.max_events {
            s.push_str(&format!(",max={max}"));
        }
        s
    }

    /// Parses [`WedgeConfig::encode`] output. Rejects unknown keys, rates
    /// outside `[0, 1]` and rate sums above 1.
    pub fn decode(s: &str) -> Option<WedgeConfig> {
        let mut config = WedgeConfig::default();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part.split_once('=')?;
            match key {
                "seed" => config.seed = value.parse().ok()?,
                "hang" => config.hang_rate = value.parse().ok()?,
                "stuck" => config.stuck_tap_rate = value.parse().ok()?,
                "garbage" => config.garbage_rate = value.parse().ok()?,
                "recover" => config.recovery = RecoveryDepth::decode(value)?,
                "max" => config.max_events = Some(value.parse().ok()?),
                _ => return None,
            }
        }
        let rates = [config.hang_rate, config.stuck_tap_rate, config.garbage_rate];
        if rates.iter().any(|r| !(0.0..=1.0).contains(r)) || config.total_rate() > 1.0 {
            return None;
        }
        Some(config)
    }
}

/// Wedge events observed so far, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WedgeCounts {
    /// Hangs entered.
    pub hangs: u32,
    /// Stuck-TAP wedges entered.
    pub stuck_taps: u32,
    /// Garbage-scan wedges entered.
    pub garbage_scans: u32,
}

impl WedgeCounts {
    /// Total wedge events.
    pub fn total(&self) -> u32 {
        self.hangs + self.stuck_taps + self.garbage_scans
    }
}

/// The seeded wedge state machine.
///
/// [`WedgeModel::advance`] consumes exactly one RNG draw per armed
/// operation whether or not a wedge fires, so the wedge schedule depends
/// only on the seed and the operation count — never on what the previous
/// draws decided.
#[derive(Debug, Clone)]
pub struct WedgeModel {
    config: WedgeConfig,
    rng: u64,
    ops: u64,
    counts: WedgeCounts,
    wedged: Option<WedgeKind>,
}

impl WedgeModel {
    /// Creates the model from its configuration.
    pub fn new(config: WedgeConfig) -> WedgeModel {
        WedgeModel {
            rng: config.seed ^ 0xC3C3_3C3C_FEED_F00D,
            config,
            ops: 0,
            counts: WedgeCounts::default(),
            wedged: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WedgeConfig {
        &self.config
    }

    /// Armed operations seen so far.
    pub fn operations(&self) -> u64 {
        self.ops
    }

    /// Wedge events so far, by kind.
    pub fn counts(&self) -> WedgeCounts {
        self.counts
    }

    /// The current wedge, if any.
    pub fn wedged(&self) -> Option<WedgeKind> {
        self.wedged
    }

    fn uniform(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (splitmix64(&mut self.rng) >> 11) as f64 * SCALE
    }

    /// Advances the model by one armed operation and returns the current
    /// wedge (freshly entered or persisting). While already wedged, no
    /// draw is consumed — the target is stuck, not re-rolling.
    pub fn advance(&mut self) -> Option<WedgeKind> {
        if self.wedged.is_some() {
            return self.wedged;
        }
        self.ops += 1;
        let draw = self.uniform();
        if let Some(max) = self.config.max_events {
            if self.counts.total() >= max {
                return None;
            }
        }
        let kind = if draw < self.config.hang_rate {
            WedgeKind::Hang
        } else if draw < self.config.hang_rate + self.config.stuck_tap_rate {
            WedgeKind::StuckTap
        } else if draw < self.config.total_rate() {
            WedgeKind::GarbageScan
        } else {
            return None;
        };
        match kind {
            WedgeKind::Hang => self.counts.hangs += 1,
            WedgeKind::StuckTap => self.counts.stuck_taps += 1,
            WedgeKind::GarbageScan => self.counts.garbage_scans += 1,
        }
        self.wedged = Some(kind);
        self.wedged
    }

    /// Applies a recovery action of the given depth: the wedge clears when
    /// the action reaches the configured [`WedgeConfig::recovery`] depth.
    /// Returns whether this action cleared a wedge (`false` when the model
    /// was not wedged, or when the action was too shallow).
    pub fn recover(&mut self, depth: RecoveryDepth) -> bool {
        if self.wedged.is_some()
            && self.config.recovery != RecoveryDepth::Never
            && depth >= self.config.recovery
        {
            self.wedged = None;
            return true;
        }
        false
    }

    /// Seeded garbage bits for a [`WedgeKind::GarbageScan`] capture.
    pub fn garbage_bits(&mut self, len: usize) -> crate::BitVec {
        let mut bits = crate::BitVec::zeros(len);
        for i in 0..len {
            if splitmix64(&mut self.rng) & 1 == 1 {
                bits.set(i, true);
            }
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_roundtrips() {
        let configs = [
            WedgeConfig::default(),
            WedgeConfig::hang(42, 0.01),
            WedgeConfig {
                seed: 7,
                hang_rate: 0.1,
                stuck_tap_rate: 0.2,
                garbage_rate: 0.3,
                max_events: Some(4),
                recovery: RecoveryDepth::Never,
            },
        ];
        for c in configs {
            assert_eq!(WedgeConfig::decode(&c.encode()), Some(c));
        }
        assert_eq!(WedgeConfig::decode("hang=1.5"), None);
        assert_eq!(WedgeConfig::decode("hang=0.6,stuck=0.6"), None);
        assert_eq!(WedgeConfig::decode("bogus=1"), None);
        for d in [
            RecoveryDepth::SoftReset,
            RecoveryDepth::Reinit,
            RecoveryDepth::PowerCycle,
            RecoveryDepth::Never,
        ] {
            assert_eq!(RecoveryDepth::decode(d.encode()), Some(d));
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let config = WedgeConfig {
            hang_rate: 0.05,
            stuck_tap_rate: 0.05,
            garbage_rate: 0.05,
            ..WedgeConfig::hang(99, 0.0)
        };
        let mut a = WedgeModel::new(config);
        let mut b = WedgeModel::new(config);
        for _ in 0..500 {
            let wa = a.advance();
            assert_eq!(wa, b.advance());
            if wa.is_some() {
                assert!(a.recover(RecoveryDepth::PowerCycle));
                assert!(b.recover(RecoveryDepth::PowerCycle));
            }
        }
        assert_eq!(a.counts(), b.counts());
        assert!(a.counts().total() > 0);
    }

    #[test]
    fn wedge_is_sticky_until_deep_enough_recovery() {
        let mut m = WedgeModel::new(WedgeConfig::hang(1, 1.0));
        assert_eq!(m.advance(), Some(WedgeKind::Hang));
        // Persists across further operations without consuming draws.
        let ops = m.operations();
        assert_eq!(m.advance(), Some(WedgeKind::Hang));
        assert_eq!(m.operations(), ops);
        // Too-shallow recovery leaves it wedged.
        assert!(!m.recover(RecoveryDepth::SoftReset));
        assert!(!m.recover(RecoveryDepth::Reinit));
        assert!(m.recover(RecoveryDepth::PowerCycle));
        assert_eq!(m.wedged(), None);
    }

    #[test]
    fn never_recovering_wedge_survives_power_cycle() {
        let mut m = WedgeModel::new(WedgeConfig {
            recovery: RecoveryDepth::Never,
            ..WedgeConfig::hang(1, 1.0)
        });
        assert_eq!(m.advance(), Some(WedgeKind::Hang));
        assert!(!m.recover(RecoveryDepth::PowerCycle));
        assert_eq!(m.wedged(), Some(WedgeKind::Hang));
    }

    #[test]
    fn max_events_bounds_the_wedge_count() {
        let mut m = WedgeModel::new(WedgeConfig {
            max_events: Some(2),
            ..WedgeConfig::hang(3, 1.0)
        });
        for _ in 0..10 {
            if m.advance().is_some() {
                m.recover(RecoveryDepth::PowerCycle);
            }
        }
        assert_eq!(m.counts().total(), 2);
        assert_eq!(m.wedged(), None);
    }

    #[test]
    fn garbage_bits_are_seeded_and_sized() {
        let mut a = WedgeModel::new(WedgeConfig::hang(5, 0.0));
        let mut b = WedgeModel::new(WedgeConfig::hang(5, 0.0));
        let ga = a.garbage_bits(64);
        assert_eq!(ga.len(), 64);
        assert_eq!(ga, b.garbage_bits(64));
        // Different seeds give different garbage (with overwhelming odds).
        let mut c = WedgeModel::new(WedgeConfig::hang(6, 0.0));
        assert_ne!(ga, c.garbage_bits(64));
    }
}
