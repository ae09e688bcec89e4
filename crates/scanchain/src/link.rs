//! Transport-level link faults: the scan link itself as a fault location.
//!
//! The GOOFI paper assumes the test card's JTAG link is perfect; real
//! deployments meet corrupted readbacks, lost transactions and stalled
//! shifts. [`LinkFaultModel`] is a *seeded, deterministic* model of such an
//! unreliable link: it decides the fate of each transaction at configurable
//! rates. Applying it to a target (`goofi_core::link::UnreliableTarget`)
//! and the recovery side (verified reads, re-shift, quarantine) live in
//! `goofi-core`; this crate only produces the faults.
//!
//! Determinism matters: an experiment campaign run twice with the same
//! [`LinkFaultConfig`] sees the *same* sequence of link faults, which is
//! what makes the recovery layer's "bit-for-bit identical result" tests
//! possible. The model therefore draws from a [`plan::splitmix64`] stream
//! rather than any global randomness.

use crate::plan::{self, Kind};
use crate::{BitVec, ScanError};
use std::fmt;

/// One kind of transport fault the link can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkFault {
    /// A single shifted bit is inverted in flight.
    CorruptBit,
    /// The transaction is silently lost (writes never reach the device,
    /// reads return a stale all-zero image).
    Drop,
    /// The transaction is applied twice (idempotent for reads, and for the
    /// masked full-image updates the test card performs, but still a
    /// distinct link behaviour worth modelling and counting).
    Duplicate,
    /// The shift never completes; the operation fails with
    /// [`ScanError::ShiftStall`].
    Stall,
    /// The link is down for this transaction; the operation fails with
    /// [`ScanError::LinkDown`].
    Disconnect,
}

impl fmt::Display for LinkFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LinkFault::CorruptBit => "corrupt",
            LinkFault::Drop => "drop",
            LinkFault::Duplicate => "duplicate",
            LinkFault::Stall => "stall",
            LinkFault::Disconnect => "disconnect",
        })
    }
}

impl Kind for LinkFault {
    const KEYS: &'static [(LinkFault, &'static str)] = &[
        (LinkFault::CorruptBit, "corrupt"),
        (LinkFault::Drop, "drop"),
        (LinkFault::Duplicate, "dup"),
        (LinkFault::Stall, "stall"),
        (LinkFault::Disconnect, "disc"),
    ];
}

/// Configuration of the link fault model: per-transaction probabilities of
/// each fault kind, plus bounds that keep campaigns controllable.
///
/// All rates are per scan transaction, in `[0, 1]`; their sum must not
/// exceed 1. The default configuration injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability of a single-bit corruption.
    pub corrupt_rate: f64,
    /// Probability of a dropped transaction.
    pub drop_rate: f64,
    /// Probability of a duplicated transaction.
    pub duplicate_rate: f64,
    /// Probability of a stalled shift.
    pub stall_rate: f64,
    /// Probability of a transient disconnect.
    pub disconnect_rate: f64,
    /// Number of initial transactions left fault-free (e.g. to protect a
    /// reference run while faulting the rest of a campaign).
    pub skip_ops: u64,
    /// Upper bound on injected events; once reached the link is healthy
    /// again (`None` = unbounded).
    pub max_events: Option<u64>,
}

impl LinkFaultConfig {
    /// A configuration that corrupts single bits at `rate` with `seed`.
    pub fn corrupt(seed: u64, rate: f64) -> Self {
        LinkFaultConfig {
            seed,
            corrupt_rate: rate,
            ..Default::default()
        }
    }

    /// Sum of all fault rates (probability a transaction is disturbed).
    pub fn total_rate(&self) -> f64 {
        self.rates().iter().map(|r| r.1).sum()
    }

    /// Whether the configuration can ever inject a fault.
    pub fn is_active(&self) -> bool {
        self.total_rate() > 0.0 && self.max_events != Some(0)
    }

    /// Each fault kind with its rate, in draw order.
    pub(crate) fn rates(&self) -> [(LinkFault, f64); 5] {
        [
            (LinkFault::CorruptBit, self.corrupt_rate),
            (LinkFault::Drop, self.drop_rate),
            (LinkFault::Duplicate, self.duplicate_rate),
            (LinkFault::Stall, self.stall_rate),
            (LinkFault::Disconnect, self.disconnect_rate),
        ]
    }

    /// Parses a [`crate::plan`] spec as used by the CLI's `--link-faults`
    /// flag, e.g.
    /// `seed=42,corrupt=0.01,drop=0.001,dup=0.001,stall=0.0005,disc=0.0005,skip=30,max=100`.
    ///
    /// Returns `None` on a spec the grammar rejects, a malformed number, or
    /// a rate sum above 1.
    pub fn decode(spec: &str) -> Option<Self> {
        plan::read(spec, |spec| {
            let cfg = LinkFaultConfig {
                seed: spec.num("seed")?.unwrap_or(0),
                corrupt_rate: spec.rate(LinkFault::CorruptBit)?,
                drop_rate: spec.rate(LinkFault::Drop)?,
                duplicate_rate: spec.rate(LinkFault::Duplicate)?,
                stall_rate: spec.rate(LinkFault::Stall)?,
                disconnect_rate: spec.rate(LinkFault::Disconnect)?,
                skip_ops: spec.num("skip")?.unwrap_or(0),
                max_events: spec.num("max")?,
            };
            (cfg.total_rate() <= 1.0).then_some(cfg)
        })
    }

    /// Renders the configuration in [`LinkFaultConfig::decode`] format.
    pub fn encode(&self) -> String {
        let mut spec = String::new();
        plan::push(&mut spec, "seed", self.seed);
        for (kind, rate) in self.rates() {
            plan::push(&mut spec, kind.key(), rate);
        }
        if self.skip_ops > 0 {
            plan::push(&mut spec, "skip", self.skip_ops);
        }
        if let Some(max) = self.max_events {
            plan::push(&mut spec, "max", max);
        }
        spec
    }
}

/// Per-kind counters of injected link events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaultCounts {
    /// Bits corrupted in flight.
    pub corrupted: u64,
    /// Transactions dropped.
    pub dropped: u64,
    /// Transactions duplicated.
    pub duplicated: u64,
    /// Shifts stalled.
    pub stalled: u64,
    /// Transient disconnects.
    pub disconnected: u64,
}

impl LinkFaultCounts {
    /// Total events across all kinds.
    pub fn total(&self) -> u64 {
        self.corrupted + self.dropped + self.duplicated + self.stalled + self.disconnected
    }
}

/// Deterministic, seeded stream of transport faults.
///
/// Every scan transaction asks the model [`LinkFaultModel::next_fault`];
/// the answer depends only on the configuration and the number of
/// transactions seen so far, never on wall-clock time or global RNG state.
#[derive(Debug, Clone)]
pub struct LinkFaultModel {
    config: LinkFaultConfig,
    rng: u64,
    ops: u64,
    counts: LinkFaultCounts,
}

impl LinkFaultModel {
    /// Creates a model from a configuration.
    pub fn new(config: LinkFaultConfig) -> Self {
        LinkFaultModel {
            rng: config.seed ^ 0xA5A5_5A5A_DEAD_BEEF,
            config,
            ops: 0,
            counts: LinkFaultCounts::default(),
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &LinkFaultConfig {
        &self.config
    }

    /// Transactions observed so far (faulted or not).
    pub fn ops_observed(&self) -> u64 {
        self.ops
    }

    /// Events injected so far, by kind.
    pub fn counts(&self) -> LinkFaultCounts {
        self.counts
    }

    /// Total events injected so far.
    pub fn events_injected(&self) -> u64 {
        self.counts.total()
    }

    /// Draws a uniform index in `0..n` (`n > 0`).
    pub fn random_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (plan::splitmix64(&mut self.rng) % n as u64) as usize
    }

    /// Decides the fate of the next transaction.
    ///
    /// Advances the deterministic stream; returns `None` for a fault-free
    /// transaction. The per-kind decision consumes one draw whether or not
    /// a fault fires, so rate changes do not shift the schedule of
    /// unrelated kinds.
    pub fn next_fault(&mut self) -> Option<LinkFault> {
        self.ops += 1;
        let u = plan::uniform(&mut self.rng);
        if self.ops <= self.config.skip_ops {
            return None;
        }
        if let Some(max) = self.config.max_events {
            if self.counts.total() >= max {
                return None;
            }
        }
        let fault = plan::pick(u, self.config.rates())?;
        let count = match fault {
            LinkFault::CorruptBit => &mut self.counts.corrupted,
            LinkFault::Drop => &mut self.counts.dropped,
            LinkFault::Duplicate => &mut self.counts.duplicated,
            LinkFault::Stall => &mut self.counts.stalled,
            LinkFault::Disconnect => &mut self.counts.disconnected,
        };
        *count += 1;
        Some(fault)
    }

    /// Applies a fault decision to a captured (read) image.
    ///
    /// Returns the possibly-disturbed image, or the typed error for
    /// stall/disconnect faults. `operation` names the transaction for
    /// error messages.
    pub fn disturb_read(&mut self, image: BitVec, operation: &str) -> Result<BitVec, ScanError> {
        match self.next_fault() {
            None | Some(LinkFault::Duplicate) => Ok(image),
            Some(LinkFault::CorruptBit) => {
                let mut image = image;
                if !image.is_empty() {
                    let bit = self.random_index(image.len());
                    image.flip(bit);
                }
                Ok(image)
            }
            // A dropped read transaction returns a stale all-zero image.
            Some(LinkFault::Drop) => Ok(BitVec::zeros(image.len())),
            Some(LinkFault::Stall) => Err(ScanError::ShiftStall {
                operation: operation.to_string(),
            }),
            Some(LinkFault::Disconnect) => Err(ScanError::LinkDown {
                operation: operation.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_injects_nothing() {
        let mut m = LinkFaultModel::new(LinkFaultConfig::default());
        for _ in 0..10_000 {
            assert_eq!(m.next_fault(), None);
        }
        assert_eq!(m.events_injected(), 0);
        assert_eq!(m.ops_observed(), 10_000);
        assert!(!LinkFaultConfig::default().is_active());
    }

    #[test]
    fn fault_stream_is_deterministic() {
        let cfg = LinkFaultConfig {
            seed: 7,
            corrupt_rate: 0.05,
            drop_rate: 0.02,
            duplicate_rate: 0.02,
            stall_rate: 0.01,
            disconnect_rate: 0.01,
            ..Default::default()
        };
        let mut a = LinkFaultModel::new(cfg);
        let mut b = LinkFaultModel::new(cfg);
        let fa: Vec<_> = (0..5_000).map(|_| a.next_fault()).collect();
        let fb: Vec<_> = (0..5_000).map(|_| b.next_fault()).collect();
        assert_eq!(fa, fb);
        assert!(a.events_injected() > 0, "rates this high must fire");
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mk = |seed| {
            let mut m = LinkFaultModel::new(LinkFaultConfig::corrupt(seed, 0.1));
            (0..2_000).map(|_| m.next_fault()).collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn rates_are_roughly_respected() {
        let mut m = LinkFaultModel::new(LinkFaultConfig::corrupt(3, 0.1));
        let n = 50_000;
        let fired = (0..n).filter(|_| m.next_fault().is_some()).count();
        let rate = fired as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "rate {rate}");
    }

    #[test]
    fn skip_ops_protects_prefix_and_max_events_heals() {
        let cfg = LinkFaultConfig {
            seed: 1,
            corrupt_rate: 0.5,
            skip_ops: 100,
            max_events: Some(3),
            ..Default::default()
        };
        let mut m = LinkFaultModel::new(cfg);
        for _ in 0..100 {
            assert_eq!(m.next_fault(), None, "skip window must be clean");
        }
        let fired: u64 = (0..1_000).filter(|_| m.next_fault().is_some()).count() as u64;
        assert_eq!(fired, 3, "budget bounds total events");
        assert_eq!(m.events_injected(), 3);
    }

    #[test]
    fn config_decode_encode_roundtrip() {
        let spec =
            "seed=42,corrupt=0.01,drop=0.001,dup=0.002,stall=0.0005,disc=0.0001,skip=30,max=100";
        let cfg = LinkFaultConfig::decode(spec).unwrap();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.corrupt_rate, 0.01);
        assert_eq!(cfg.drop_rate, 0.001);
        assert_eq!(cfg.duplicate_rate, 0.002);
        assert_eq!(cfg.stall_rate, 0.0005);
        assert_eq!(cfg.disconnect_rate, 0.0001);
        assert_eq!(cfg.skip_ops, 30);
        assert_eq!(cfg.max_events, Some(100));
        assert_eq!(LinkFaultConfig::decode(&cfg.encode()), Some(cfg));
        // Malformed specs are rejected.
        assert_eq!(LinkFaultConfig::decode("corrupt=2.0"), None);
        assert_eq!(LinkFaultConfig::decode("nope=1"), None);
        assert_eq!(LinkFaultConfig::decode("corrupt"), None);
        assert_eq!(LinkFaultConfig::decode("corrupt=0.9,drop=0.9"), None);
        assert_eq!(LinkFaultConfig::decode("drop=0.1,drop=0.2,seed=1"), None);
        // Empty spec = default.
        assert_eq!(
            LinkFaultConfig::decode(""),
            Some(LinkFaultConfig::default())
        );
    }

    #[test]
    fn disturb_read_corrupts_exactly_one_bit() {
        let mut m = LinkFaultModel::new(LinkFaultConfig::corrupt(9, 1.0));
        let clean = BitVec::zeros(64);
        let dirty = m.disturb_read(clean.clone(), "read").unwrap();
        assert_eq!(clean.diff_indices(&dirty).len(), 1);
    }

    #[test]
    fn disturb_read_maps_stall_and_disconnect_to_errors() {
        let mut m = LinkFaultModel::new(LinkFaultConfig {
            seed: 11,
            stall_rate: 1.0,
            ..Default::default()
        });
        assert!(matches!(
            m.disturb_read(BitVec::zeros(8), "read `internal`"),
            Err(ScanError::ShiftStall { .. })
        ));
        let mut m = LinkFaultModel::new(LinkFaultConfig {
            seed: 11,
            disconnect_rate: 1.0,
            ..Default::default()
        });
        assert!(matches!(
            m.disturb_read(BitVec::zeros(8), "read `internal`"),
            Err(ScanError::LinkDown { .. })
        ));
    }
}
