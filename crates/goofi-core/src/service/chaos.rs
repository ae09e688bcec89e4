//! Seeded chaos drill for the campaign service.
//!
//! `goofi serve --chaos kill-after=<n>,seed=<s>` makes every spawned shard
//! worker *deterministically kill itself* mid-shard on its first lease
//! attempt(s): the worker counts the experiments it completes this lease
//! and exits abruptly (exit code [`CHAOS_EXIT_CODE`]) once it reaches a
//! seeded kill point within the first `kill-after` completions. The
//! scheduler then exercises exactly the machinery the drill is for —
//! lease revocation, backoff, reassignment, journal replay — and the
//! campaign must still complete with a merged database essence-equal to a
//! serial run.
//!
//! The spec follows the drill grammar of [`scanchain::plan`], like
//! `--wedge`:
//!
//! ```text
//! kill-after=3,seed=7            kill within the first 3 completions, once
//! kill-after=5,seed=1,kills=2    first two lease attempts die
//! kill-after=4,seed=9,mode=stall stall (stop heartbeating) instead of exiting
//! ```
//!
//! `mode=stall` rehearses the *hang* half of the lease discipline: the
//! worker stops making progress without exiting, so the daemon must
//! revoke the lease on deadline and kill the process itself.

use scanchain::plan::{self, mix};

/// Exit code of a chaos-killed worker, distinct from ordinary failures.
pub const CHAOS_EXIT_CODE: i32 = 86;

/// What a chaos-struck worker does at its kill point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Exit abruptly with [`CHAOS_EXIT_CODE`] (simulates a crash).
    Exit,
    /// Keep running but stop completing experiments and heartbeating
    /// (simulates a hung worker; the lease deadline must catch it).
    Stall,
}

/// A seeded worker self-kill schedule. The whole drill is a pure function
/// of `(seed, shard, attempt)`, so re-running a chaos campaign reproduces
/// the same crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Kill within the first `kill_after` experiment completions of a
    /// lease (the exact point is seeded).
    pub kill_after: u64,
    /// Seed for the kill-point schedule.
    pub seed: u64,
    /// How many lease attempts per shard die before the worker is allowed
    /// to finish (default 1).
    pub kills: u32,
    /// Crash or stall at the kill point.
    pub mode: ChaosMode,
}

impl ChaosConfig {
    /// Whether lease `attempt` (1-based) of any shard is chaos-struck.
    pub fn active(&self, attempt: u32) -> bool {
        self.kill_after > 0 && attempt <= self.kills
    }

    /// The number of fresh completions after which this lease dies:
    /// `1..=kill_after`, seeded per `(shard, attempt)`.
    pub fn kill_point(&self, shard: usize, attempt: u32) -> u64 {
        let n = self.kill_after.max(1);
        1 + mix(self.seed, shard as u64, u64::from(attempt)) % n
    }

    /// Encodes to the [`plan`] spec accepted by [`ChaosConfig::decode`].
    pub fn encode(&self) -> String {
        let mut spec = String::new();
        plan::push(&mut spec, "kill-after", self.kill_after);
        plan::push(&mut spec, "seed", self.seed);
        if self.kills != 1 {
            plan::push(&mut spec, "kills", self.kills);
        }
        if self.mode == ChaosMode::Stall {
            plan::push(&mut spec, "mode", "stall");
        }
        spec
    }

    /// Parses `kill-after=<n>,seed=<s>[,kills=<k>][,mode=exit|stall]`.
    /// Returns `None` on a spec the grammar rejects, a malformed value, or
    /// a drill that could never strike (`kill-after` or `kills` of 0).
    pub fn decode(spec: &str) -> Option<ChaosConfig> {
        plan::read(spec, |spec| {
            let mode = |m: &str| match m {
                "exit" => Some(ChaosMode::Exit),
                "stall" => Some(ChaosMode::Stall),
                _ => None,
            };
            let config = ChaosConfig {
                kill_after: spec.num("kill-after")?.unwrap_or(0),
                seed: spec.num("seed")?.unwrap_or(0),
                kills: spec.num("kills")?.unwrap_or(1),
                mode: spec.value("mode", mode)?.unwrap_or(ChaosMode::Exit),
            };
            (config.kill_after > 0 && config.kills > 0).then_some(config)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrips() {
        let configs = [
            ChaosConfig {
                kill_after: 3,
                seed: 7,
                kills: 1,
                mode: ChaosMode::Exit,
            },
            ChaosConfig {
                kill_after: 5,
                seed: 1,
                kills: 2,
                mode: ChaosMode::Stall,
            },
        ];
        for config in configs {
            assert_eq!(ChaosConfig::decode(&config.encode()), Some(config));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(ChaosConfig::decode("seed=1"), None); // kill-after required
        assert_eq!(ChaosConfig::decode("kill-after=0,seed=1"), None);
        assert_eq!(ChaosConfig::decode("kill-after=x"), None);
        assert_eq!(ChaosConfig::decode("kill-after=2,bogus=1"), None);
        assert_eq!(ChaosConfig::decode("kill-after=2,mode=melt"), None);
        assert_eq!(
            ChaosConfig::decode("kill-after=2,kill-after=3,seed=1"),
            None
        );
        assert_eq!(ChaosConfig::decode("kill-after=3,seed=7,kills=0"), None);
    }

    #[test]
    fn kill_points_are_deterministic_and_in_range() {
        let config = ChaosConfig::decode("kill-after=4,seed=9").unwrap();
        for shard in 0..8 {
            for attempt in 1..4 {
                let p = config.kill_point(shard, attempt);
                assert_eq!(p, config.kill_point(shard, attempt));
                assert!((1..=4).contains(&p), "kill point {p} out of range");
            }
        }
        // Different seeds give different schedules somewhere.
        let other = ChaosConfig::decode("kill-after=4,seed=10").unwrap();
        assert!((0..32).any(|s| config.kill_point(s, 1) != other.kill_point(s, 1)));
    }

    #[test]
    fn only_early_attempts_are_struck() {
        let config = ChaosConfig::decode("kill-after=3,seed=7").unwrap();
        assert!(config.active(1));
        assert!(!config.active(2));
        let double = ChaosConfig::decode("kill-after=3,seed=7,kills=2").unwrap();
        assert!(double.active(2));
        assert!(!double.active(3));
    }
}
