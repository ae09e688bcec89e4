//! Drill specs and the seeded draws behind every fault drill.
//!
//! Every self-injection drill reads one spec: `--link-faults`
//! ([`crate::LinkFaultConfig`]), `--wedge` ([`crate::WedgeConfig`]), and
//! the service's `--net-chaos` and `--chaos` in `goofi-core`. Their grammar
//! and the randomness they draw from live here once, so a spec reads the
//! same way, and a seed replays the same schedule, on every seam.
//!
//! The grammar:
//!
//! - a spec is a comma-separated list of `key=value` items; empty items
//!   are skipped, so `""` is the empty spec;
//! - whitespace around keys and values is ignored;
//! - a key may appear once, and a drill accepts only the keys it reads;
//! - `seed=` is a `u64`; a per-kind rate is a decimal in `[0, 1]` keyed by
//!   the kind enum's own table ([`Kind`]); `at=N,kind=K` names one strike.
//!
//! What the values mean, and which combinations are valid, is each
//! drill's own rule.
//!
//! ```
//! use scanchain::plan;
//!
//! let seed = |text: &str| plan::read(text, |spec| spec.num::<u64>("seed")?);
//! assert_eq!(seed(" seed = 7 "), Some(7));
//! assert_eq!(seed("seed=7,seed=8"), None); // a repeated key
//! assert_eq!(seed("seed=7,drop=0.5"), None); // a key this decoder never reads
//! ```

use std::cell::Cell;
use std::fmt::{self, Write};
use std::str::FromStr;

/// A drill's enum of fault kinds, with the spec key naming each.
pub trait Kind: Copy + PartialEq + 'static {
    /// Every kind with its spec key.
    const KEYS: &'static [(Self, &'static str)];

    /// The spec key naming this kind.
    fn key(self) -> &'static str {
        Self::KEYS
            .iter()
            .find(|k| k.0 == self)
            .expect("every kind is in its key table")
            .1
    }

    /// The kind that `key` names.
    fn from_key(key: &str) -> Option<Self> {
        Self::KEYS.iter().find(|k| k.1 == key).map(|k| k.0)
    }
}

/// One parsed spec, handed to a drill's decoder by [`read`].
pub struct Spec<'a> {
    items: Vec<Item<'a>>,
}

struct Item<'a> {
    key: &'a str,
    value: &'a str,
    read: Cell<bool>,
}

/// Parses `text` and hands it to `decode`.
///
/// Returns `None` when an item has no `=`, when a key repeats, when
/// `decode` rejects a value, or when `decode` left an item unread: every
/// accessor of [`Spec`] marks the item it reads, so an unread item is an
/// unknown key.
pub fn read<T>(text: &str, decode: impl FnOnce(&Spec<'_>) -> Option<T>) -> Option<T> {
    let mut items: Vec<Item<'_>> = Vec::new();
    for item in text.split(',').map(str::trim).filter(|i| !i.is_empty()) {
        let (key, value) = item.split_once('=')?;
        let key = key.trim();
        if items.iter().any(|i| i.key == key) {
            return None;
        }
        items.push(Item {
            key,
            value: value.trim(),
            read: Cell::new(false),
        });
    }
    let spec = Spec { items };
    let decoded = decode(&spec)?;
    spec.items.iter().all(|i| i.read.get()).then_some(decoded)
}

impl<'a> Spec<'a> {
    /// `key`'s value through `parse`: `Some(None)` when the key is absent,
    /// `None` when `parse` rejects the value.
    pub fn value<T>(&self, key: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<Option<T>> {
        let Some(item) = self.items.iter().find(|i| i.key == key) else {
            return Some(None);
        };
        item.read.set(true);
        parse(item.value).map(Some)
    }

    /// `key`'s value as a number, such as `seed=` or `at=`.
    pub fn num<T: FromStr>(&self, key: &str) -> Option<Option<T>> {
        self.value(key, |v| v.parse().ok())
    }

    /// The rate given for `kind`, 0 when absent; `None` when the value is
    /// not a decimal in `[0, 1]`.
    pub fn rate<K: Kind>(&self, kind: K) -> Option<f64> {
        Some(self.value(kind.key(), parse_rate)?.unwrap_or(0.0))
    }

    /// Every rate given for a kind of `K`, in spec order.
    pub fn rates<K: Kind>(&self) -> Option<Vec<(K, f64)>> {
        self.items
            .iter()
            .filter_map(|item| {
                let kind = K::from_key(item.key)?;
                item.read.set(true);
                Some(parse_rate(item.value).map(|rate| (kind, rate)))
            })
            .collect()
    }
}

fn parse_rate(value: &str) -> Option<f64> {
    let rate: f64 = value.parse().ok()?;
    (0.0..=1.0).contains(&rate).then_some(rate)
}

/// Appends the item `key=value` to a spec being written.
pub fn push(spec: &mut String, key: &str, value: impl fmt::Display) {
    if !spec.is_empty() {
        spec.push(',');
    }
    let _ = write!(spec, "{key}={value}");
}

/// One step of a SplitMix64 stream: advances `state` and returns the next
/// word. Small, fast and good enough for fault scheduling; hand-rolled
/// because this crate has no runtime dependencies. Each drill seeds its
/// own state.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The next draw in `[0, 1)` from a [`splitmix64`] stream.
pub(crate) fn uniform(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A SplitMix64-style mixer over three words: a draw keyed by what it
/// decides (a seed, an operation number, a salt) instead of by its place
/// in a stream, so a drill whose operations interleave across threads
/// still replays per operation.
pub fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(c.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Picks the kind whose share of `[0, 1)` holds the draw `u`, the shares
/// laid end to end in the given order, each as wide as its rate. `None`
/// when `u` lands past the last share.
pub(crate) fn pick<K>(u: f64, rates: impl IntoIterator<Item = (K, f64)>) -> Option<K> {
    let mut threshold = 0.0;
    for (kind, rate) in rates {
        threshold += rate;
        if u < threshold {
            return Some(kind);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Colour {
        Red,
        Blue,
    }

    impl Kind for Colour {
        const KEYS: &'static [(Colour, &'static str)] =
            &[(Colour::Red, "red"), (Colour::Blue, "blue")];
    }

    fn seed_and_rates(text: &str) -> Option<(u64, f64, f64)> {
        read(text, |spec| {
            Some((
                spec.num("seed")?.unwrap_or(0),
                spec.rate(Colour::Red)?,
                spec.rate(Colour::Blue)?,
            ))
        })
    }

    #[test]
    fn grammar_trims_skips_empty_items_and_rejects_repeats_and_unknowns() {
        assert_eq!(seed_and_rates(""), Some((0, 0.0, 0.0)));
        assert_eq!(
            seed_and_rates(" seed = 3 ,, red=0.5 ,"),
            Some((3, 0.5, 0.0))
        );
        assert_eq!(seed_and_rates("seed=3,seed=3"), None);
        assert_eq!(seed_and_rates("seed=3,green=0.1"), None);
        assert_eq!(seed_and_rates("seed"), None);
        assert_eq!(seed_and_rates("seed=x"), None);
        assert_eq!(seed_and_rates("red=1.5"), None);
        assert_eq!(seed_and_rates("red=-0.1"), None);
        assert_eq!(seed_and_rates("red=NaN"), None);
    }

    #[test]
    fn rates_keep_spec_order() {
        let rates = read("blue=0.25,seed=1,red=0.5", |spec| {
            spec.num::<u64>("seed")?;
            spec.rates::<Colour>()
        });
        assert_eq!(rates, Some(vec![(Colour::Blue, 0.25), (Colour::Red, 0.5)]));
    }

    #[test]
    fn push_writes_what_read_parses() {
        let mut spec = String::new();
        push(&mut spec, "seed", 9);
        push(&mut spec, Colour::Blue.key(), 0.125);
        assert_eq!(spec, "seed=9,blue=0.125");
        assert_eq!(seed_and_rates(&spec), Some((9, 0.0, 0.125)));
    }

    #[test]
    fn pick_lays_rates_end_to_end() {
        let rates = [(Colour::Red, 0.25), (Colour::Blue, 0.5)];
        assert_eq!(pick(0.0, rates), Some(Colour::Red));
        assert_eq!(pick(0.2499, rates), Some(Colour::Red));
        assert_eq!(pick(0.25, rates), Some(Colour::Blue));
        assert_eq!(pick(0.7499, rates), Some(Colour::Blue));
        assert_eq!(pick(0.75, rates), None);
        assert_eq!(pick(0.0, [(Colour::Red, 0.0)]), None);
    }

    #[test]
    fn streams_are_seeded() {
        let (mut a, mut b) = (5u64, 5u64);
        let draws: Vec<f64> = (0..100).map(|_| uniform(&mut a)).collect();
        assert!(draws.iter().all(|u| (0.0..1.0).contains(u)));
        assert_eq!(draws, (0..100).map(|_| uniform(&mut b)).collect::<Vec<_>>());
        assert_ne!(mix(1, 2, 3), mix(1, 2, 4));
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
    }
}
