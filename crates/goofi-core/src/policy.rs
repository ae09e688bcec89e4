//! Experiment resilience policy: retries, failure handling and watchdogs.
//!
//! GOOFI campaigns are meant to run unattended — the paper's progress
//! monitor (Figure 7) and the `parentExperiment` re-run workflow (§2.3)
//! both exist because thousands-of-experiment campaigns meet flaky
//! hardware, hung workloads and operator restarts. [`ExperimentPolicy`]
//! makes that machinery explicit: what the campaign driver does when a
//! single experiment errors ([`FailureAction`]), how often it retries and
//! with what pacing ([`Backoff`]), and how a hung workload is cut off and
//! classified as a `Timeout` termination ([`WatchdogBudget`]).
//!
//! The default policy reproduces the historical behaviour exactly: fail
//! fast, no retries, no watchdog beyond the campaign's instruction budget.

use std::fmt;
use std::time::{Duration, Instant};

/// What the campaign driver does when one experiment returns an error
/// (after any retries allowed by the policy are exhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureAction {
    /// Abort the campaign on the first failing experiment (historical
    /// behaviour). Completed records are still returned with the error.
    #[default]
    FailFast,
    /// Record the failure and move on to the next experiment.
    SkipAndContinue,
    /// Retry up to [`ExperimentPolicy::max_retries`] times, then record the
    /// failure and move on.
    RetryThenSkip,
    /// Retry up to [`ExperimentPolicy::max_retries`] times, then abort the
    /// campaign.
    RetryThenFail,
}

impl FailureAction {
    fn encode(self) -> &'static str {
        match self {
            FailureAction::FailFast => "failfast",
            FailureAction::SkipAndContinue => "skip",
            FailureAction::RetryThenSkip => "retry-skip",
            FailureAction::RetryThenFail => "retry-fail",
        }
    }

    fn decode(s: &str) -> Option<Self> {
        match s {
            "failfast" => Some(FailureAction::FailFast),
            "skip" => Some(FailureAction::SkipAndContinue),
            "retry-skip" => Some(FailureAction::RetryThenSkip),
            "retry-fail" => Some(FailureAction::RetryThenFail),
            _ => None,
        }
    }
}

/// Bounded exponential backoff between experiment retries.
///
/// Attempt `k` (zero-based) sleeps `initial_ms * 2^k`, capped at `max_ms`.
/// The default (all zero) retries immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Backoff {
    /// Delay before the first retry, in milliseconds.
    pub initial_ms: u64,
    /// Upper bound on any single delay, in milliseconds.
    pub max_ms: u64,
}

impl Backoff {
    /// A bounded exponential backoff.
    pub fn exponential(initial_ms: u64, max_ms: u64) -> Self {
        Backoff { initial_ms, max_ms }
    }

    /// The delay before retry number `attempt` (zero-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        let ms = self
            .initial_ms
            .saturating_mul(factor)
            .min(self.max_ms.max(self.initial_ms));
        Duration::from_millis(ms)
    }
}

/// Per-experiment watchdog budget, independent of the campaign's
/// instruction budget.
///
/// The instruction budget in [`crate::campaign::Termination`] cannot catch
/// every hang: a target stalled without retiring instructions never
/// consumes it, and a generous budget can keep a worker busy for hours.
/// The watchdog bounds each experiment in *workload cycles* and/or *wall
/// time*; either expiring terminates the experiment with
/// [`crate::logging::TerminationCause::Timeout`], exactly as the paper's
/// "time-out value has been reached" condition (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatchdogBudget {
    /// Maximum workload cycles per experiment (`None` = unbounded).
    pub max_cycles: Option<u64>,
    /// Maximum wall-clock milliseconds per experiment (`None` = unbounded).
    pub max_wall_ms: Option<u64>,
}

impl WatchdogBudget {
    /// Whether any bound is configured.
    pub fn is_bounded(&self) -> bool {
        self.max_cycles.is_some() || self.max_wall_ms.is_some()
    }
}

/// How the driver handles per-experiment failures and hangs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExperimentPolicy {
    /// Reaction to a failing experiment.
    pub on_error: FailureAction,
    /// Retries per experiment (only meaningful for the `RetryThen*`
    /// actions).
    pub max_retries: u32,
    /// Pacing between retries.
    pub backoff: Backoff,
    /// Per-experiment hang detection.
    pub watchdog: WatchdogBudget,
    /// Golden-run revalidation interval: every `n` completed experiments
    /// the driver re-runs the fault-free reference and compares it to the
    /// stored golden log; on a mismatch the window of records since the
    /// last check is quarantined and re-run (`None` disables the check).
    pub revalidate_every: Option<u32>,
    /// Target supervision cadence: every `n` completed experiments the
    /// driver runs the health-probe suite
    /// ([`crate::supervisor::Supervisor`]) and climbs the recovery ladder
    /// on failure. Setting this also enables hang confirmation: a
    /// `Timeout` termination whose post-run probes fail is reclassified as
    /// [`crate::logging::TerminationCause::TargetHang`], quarantined and
    /// re-run after recovery. `None` disables supervision entirely.
    pub health_check_every: Option<u32>,
}

impl ExperimentPolicy {
    /// Abort the campaign on the first failure (the default).
    pub fn fail_fast() -> Self {
        ExperimentPolicy::default()
    }

    /// Record failures and keep going.
    pub fn skip_and_continue() -> Self {
        ExperimentPolicy {
            on_error: FailureAction::SkipAndContinue,
            ..Default::default()
        }
    }

    /// Retry each failing experiment up to `retries` times, then skip it.
    pub fn retry_then_skip(retries: u32) -> Self {
        ExperimentPolicy {
            on_error: FailureAction::RetryThenSkip,
            max_retries: retries,
            ..Default::default()
        }
    }

    /// Retry each failing experiment up to `retries` times, then abort.
    pub fn retry_then_fail(retries: u32) -> Self {
        ExperimentPolicy {
            on_error: FailureAction::RetryThenFail,
            max_retries: retries,
            ..Default::default()
        }
    }

    /// Sets the retry backoff.
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Sets the watchdog budget.
    pub fn with_watchdog(mut self, watchdog: WatchdogBudget) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Sets the golden-run revalidation interval (`0` disables it).
    pub fn with_revalidation(mut self, every: u32) -> Self {
        self.revalidate_every = (every > 0).then_some(every);
        self
    }

    /// Sets the target-supervision (health-probe) cadence (`0` disables
    /// it).
    pub fn with_health_check(mut self, every: u32) -> Self {
        self.health_check_every = (every > 0).then_some(every);
        self
    }

    /// Retries the driver should attempt for one experiment.
    pub fn retries(&self) -> u32 {
        match self.on_error {
            FailureAction::FailFast | FailureAction::SkipAndContinue => 0,
            FailureAction::RetryThenSkip | FailureAction::RetryThenFail => self.max_retries,
        }
    }

    /// Whether an exhausted experiment failure aborts the whole campaign.
    pub fn fails_campaign(&self) -> bool {
        matches!(
            self.on_error,
            FailureAction::FailFast | FailureAction::RetryThenFail
        )
    }

    /// Encodes the policy for database storage
    /// (`onerr=<action>;retries=<n>;backoff=<initial>:<max>;wd=<cycles|->:<ms|->;reval=<n|->;hc=<n|->`).
    pub fn encode(&self) -> String {
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        format!(
            "onerr={};retries={};backoff={}:{};wd={}:{};reval={};hc={}",
            self.on_error.encode(),
            self.max_retries,
            self.backoff.initial_ms,
            self.backoff.max_ms,
            opt(self.watchdog.max_cycles),
            opt(self.watchdog.max_wall_ms),
            opt(self.revalidate_every.map(u64::from)),
            opt(self.health_check_every.map(u64::from)),
        )
    }

    /// Decodes [`ExperimentPolicy::encode`] output. Unknown keys are
    /// ignored and missing keys keep their defaults, so policies stored by
    /// future versions still load.
    pub fn decode(s: &str) -> Option<Self> {
        let mut policy = ExperimentPolicy::default();
        let opt = |v: &str| -> Option<Option<u64>> {
            if v == "-" {
                Some(None)
            } else {
                v.parse().ok().map(Some)
            }
        };
        for part in s.split(';').filter(|p| !p.is_empty()) {
            let (key, value) = part.split_once('=')?;
            match key {
                "onerr" => policy.on_error = FailureAction::decode(value)?,
                "retries" => policy.max_retries = value.parse().ok()?,
                "backoff" => {
                    let (i, m) = value.split_once(':')?;
                    policy.backoff = Backoff {
                        initial_ms: i.parse().ok()?,
                        max_ms: m.parse().ok()?,
                    };
                }
                "wd" => {
                    let (c, w) = value.split_once(':')?;
                    policy.watchdog = WatchdogBudget {
                        max_cycles: opt(c)?,
                        max_wall_ms: opt(w)?,
                    };
                }
                "reval" => {
                    policy.revalidate_every = opt(value)?.map(|v| v as u32);
                }
                "hc" => {
                    policy.health_check_every = opt(value)?.map(|v| v as u32);
                }
                _ => {}
            }
        }
        Some(policy)
    }
}

/// One experiment that failed despite the policy's retries.
///
/// Kept as data (`Clone`/`PartialEq`, error rendered to text) so campaign
/// results containing failures stay comparable and storable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentFailure {
    /// Experiment index within the campaign.
    pub index: usize,
    /// Experiment name ([`crate::campaign::Campaign::experiment_name`]).
    pub name: String,
    /// Attempts made (1 = no retries).
    pub attempts: u32,
    /// Rendered error of the last attempt.
    pub error: String,
}

impl fmt::Display for ExperimentFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "experiment `{}` (index {}) failed after {} attempt(s): {}",
            self.name, self.index, self.attempts, self.error
        )
    }
}

/// Maximum instructions per `run_workload` slice while a watchdog is
/// armed, so expiry is observed promptly even in coarse-grained runs.
const WATCHDOG_SLICE: u64 = 4096;

/// How many [`Watchdog::expired`] calls between wall-clock checks in
/// single-stepping loops (reading the clock per instruction would dominate
/// the experiment).
const WALL_CHECK_INTERVAL: u32 = 64;

/// A running watchdog for one experiment.
///
/// Constructed at experiment start from the campaign's
/// [`WatchdogBudget`]; the run-control loops poll [`Watchdog::expired`]
/// and convert expiry into a `Timeout` termination.
#[derive(Debug)]
pub struct Watchdog {
    start_cycles: u64,
    max_cycles: Option<u64>,
    deadline: Option<Instant>,
    checks: u32,
    wall_expired: bool,
}

impl Watchdog {
    /// Arms a watchdog; `start_cycles` is the target's current cycle count.
    pub fn start(budget: &WatchdogBudget, start_cycles: u64) -> Self {
        Watchdog {
            start_cycles,
            max_cycles: budget.max_cycles,
            deadline: budget
                .max_wall_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            checks: 0,
            wall_expired: false,
        }
    }

    /// An unarmed watchdog (never expires).
    pub fn unbounded() -> Self {
        Watchdog::start(&WatchdogBudget::default(), 0)
    }

    /// Whether the budget is exhausted, given the target's current cycle
    /// count. The wall clock is only read every few calls — cheap enough
    /// for per-instruction polling.
    pub fn expired(&mut self, cycles_now: u64) -> bool {
        if self.cycles_expired(cycles_now) {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if self.wall_expired {
                return true;
            }
            self.checks = self.checks.wrapping_add(1);
            if self.checks.is_multiple_of(WALL_CHECK_INTERVAL) && Instant::now() >= deadline {
                self.wall_expired = true;
                return true;
            }
        }
        false
    }

    /// Whether the cycle budget is exhausted at cycle count `cycles`; the
    /// wall clock is not read.
    pub fn cycles_expired(&self, cycles: u64) -> bool {
        self.max_cycles
            .is_some_and(|max| cycles.saturating_sub(self.start_cycles) >= max)
    }

    /// Forces a wall-clock check on the next [`Watchdog::expired`] call —
    /// used by coarse-grained loops where calls are rare but each covers
    /// thousands of instructions.
    pub fn check_wall_now(&mut self) -> bool {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.wall_expired = true;
            }
        }
        self.wall_expired
    }

    /// Clamps a `run_workload` instruction budget so an armed watchdog is
    /// re-checked often enough.
    pub fn clamp_slice(&self, remaining: u64) -> u64 {
        if self.max_cycles.is_some() || self.deadline.is_some() {
            remaining.min(WATCHDOG_SLICE)
        } else {
            remaining
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_historical_behaviour() {
        let p = ExperimentPolicy::default();
        assert_eq!(p.on_error, FailureAction::FailFast);
        assert_eq!(p.retries(), 0);
        assert!(p.fails_campaign());
        assert!(!p.watchdog.is_bounded());
    }

    #[test]
    fn retries_only_count_for_retry_actions() {
        assert_eq!(ExperimentPolicy::skip_and_continue().retries(), 0);
        assert_eq!(ExperimentPolicy::retry_then_skip(3).retries(), 3);
        assert_eq!(ExperimentPolicy::retry_then_fail(2).retries(), 2);
        assert!(!ExperimentPolicy::retry_then_skip(3).fails_campaign());
        assert!(ExperimentPolicy::retry_then_fail(2).fails_campaign());
        assert!(!ExperimentPolicy::skip_and_continue().fails_campaign());
    }

    #[test]
    fn backoff_is_exponential_and_bounded() {
        let b = Backoff::exponential(10, 50);
        assert_eq!(b.delay(0), Duration::from_millis(10));
        assert_eq!(b.delay(1), Duration::from_millis(20));
        assert_eq!(b.delay(2), Duration::from_millis(40));
        assert_eq!(b.delay(3), Duration::from_millis(50));
        assert_eq!(b.delay(200), Duration::from_millis(50)); // shift overflow
        assert_eq!(Backoff::default().delay(5), Duration::ZERO);
    }

    #[test]
    fn policy_encodes_and_decodes() {
        let policies = [
            ExperimentPolicy::default(),
            ExperimentPolicy::skip_and_continue(),
            ExperimentPolicy::retry_then_skip(4).with_backoff(Backoff::exponential(5, 100)),
            ExperimentPolicy::retry_then_fail(1).with_watchdog(WatchdogBudget {
                max_cycles: Some(10_000),
                max_wall_ms: None,
            }),
            ExperimentPolicy::fail_fast().with_watchdog(WatchdogBudget {
                max_cycles: None,
                max_wall_ms: Some(250),
            }),
            ExperimentPolicy::retry_then_skip(2).with_revalidation(25),
            ExperimentPolicy::skip_and_continue().with_health_check(10),
            ExperimentPolicy::retry_then_skip(1)
                .with_revalidation(20)
                .with_health_check(5),
        ];
        for p in policies {
            assert_eq!(
                ExperimentPolicy::decode(&p.encode()),
                Some(p),
                "{}",
                p.encode()
            );
        }
        // Missing keys keep defaults; unknown keys are ignored.
        assert_eq!(
            ExperimentPolicy::decode("onerr=skip;future=1"),
            Some(ExperimentPolicy::skip_and_continue())
        );
        assert_eq!(
            ExperimentPolicy::decode(""),
            Some(ExperimentPolicy::default())
        );
        assert_eq!(ExperimentPolicy::decode("onerr=nope"), None);
    }

    #[test]
    fn watchdog_cycle_budget_expires() {
        let budget = WatchdogBudget {
            max_cycles: Some(100),
            max_wall_ms: None,
        };
        let mut wd = Watchdog::start(&budget, 1_000);
        assert!(!wd.expired(1_000));
        assert!(!wd.expired(1_099));
        assert!(wd.expired(1_100));
        assert!(wd.expired(5_000));
    }

    #[test]
    fn watchdog_wall_deadline_expires() {
        let budget = WatchdogBudget {
            max_cycles: None,
            max_wall_ms: Some(0),
        };
        let mut wd = Watchdog::start(&budget, 0);
        // The forced check observes the (immediately) elapsed deadline.
        assert!(wd.check_wall_now());
        assert!(wd.expired(0));
    }

    #[test]
    fn unbounded_watchdog_never_expires() {
        let mut wd = Watchdog::unbounded();
        assert!(!wd.expired(u64::MAX));
        assert!(!wd.check_wall_now());
        assert_eq!(wd.clamp_slice(1_000_000), 1_000_000);
    }

    #[test]
    fn armed_watchdog_clamps_slices() {
        let wd = Watchdog::start(
            &WatchdogBudget {
                max_cycles: Some(1),
                max_wall_ms: None,
            },
            0,
        );
        assert_eq!(wd.clamp_slice(1_000_000), WATCHDOG_SLICE);
        assert_eq!(wd.clamp_slice(10), 10);
    }

    #[test]
    fn failure_display_names_the_experiment() {
        let f = ExperimentFailure {
            index: 3,
            name: "c1/exp00003".into(),
            attempts: 2,
            error: "target system error: dead".into(),
        };
        let s = f.to_string();
        assert!(s.contains("c1/exp00003"));
        assert!(s.contains("2 attempt(s)"));
    }
}
