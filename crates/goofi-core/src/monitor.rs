//! Campaign progress monitoring: the paper's progress window (Figure 7).
//!
//! "During the fault injection campaign, a progress window is shown enabling
//! the user to monitor the experiments, e.g. getting information about the
//! number of faults injected and also to pause, restart or end the campaign"
//! (§3.3). [`ProgressMonitor`] is that component as a thread-safe API: the
//! campaign loop calls [`ProgressMonitor::checkpoint`] between experiments,
//! which blocks while paused and aborts when stopped; any thread (a CLI, a
//! UI, a test) can pause/resume/stop and read the live counters.
//!
//! Each campaign event is counted once, into a [`MetricsRegistry`]: the
//! telemetry's registry when telemetry is enabled, a private one otherwise.
//! [`ProgressMonitor::snapshot`] reads [`Progress`] back from it, so the
//! progress window and a `--metrics` snapshot cannot disagree. The window
//! holds only counters the engine records: completed and failed
//! experiments, retries, link events, quarantined records, probe suites,
//! hangs, recovery actions and offline targets.

use crate::logging::TerminationCause;
use crate::telemetry::{Metric, MetricsRegistry, Telemetry};
use crate::{GoofiError, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Run,
    Pause,
    Stop,
}

/// Live campaign counters, as read by [`ProgressMonitor::snapshot`]. Each
/// counter is the [`Metric`] of the same name in the monitor's registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Progress {
    /// Experiments configured in the campaign.
    pub total: usize,
    /// Experiments completed so far.
    pub completed: usize,
    /// Experiments that failed despite the campaign's retry policy.
    pub failed: usize,
    /// Experiment retries attempted so far.
    pub retried: usize,
    /// Link faults detected and recovered by a
    /// [`VerifiedTarget`](crate::link::VerifiedTarget).
    pub link_recovered: usize,
    /// Link faults that exhausted the recovery budget.
    pub link_unrecovered: usize,
    /// Records quarantined by golden-run revalidation.
    pub quarantined: usize,
    /// Health-probe suites run between experiments.
    pub probes_run: usize,
    /// Health-probe suites that failed (triggering the recovery ladder).
    pub probes_failed: usize,
    /// Watchdog timeouts confirmed as wedged targets
    /// ([`TerminationCause::TargetHang`]).
    pub hangs: usize,
    /// Soft-reset recovery attempts applied.
    pub soft_resets: usize,
    /// Test-card re-init recovery attempts applied.
    pub card_reinits: usize,
    /// Power-cycle recovery attempts applied.
    pub power_cycles: usize,
    /// Targets that exhausted the recovery ladder and went offline (the
    /// campaign engine retires that target's drive loop and redistributes
    /// its remaining experiments).
    pub targets_offline: usize,
    /// Completed experiments per termination cause (encoded form).
    pub by_termination: BTreeMap<String, usize>,
}

impl Progress {
    /// Fraction of experiments done (completed or failed), 0.0..=1.0.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            (self.completed + self.failed) as f64 / self.total as f64
        }
    }
}

#[derive(Debug)]
struct Inner {
    command: Mutex<Command>,
    wakeup: Condvar,
    total: usize,
    counters: Arc<MetricsRegistry>,
    // Every count takes this lock, so `completed` and the map change
    // together and `progress_changed` (a condvar must never be used with
    // two different mutexes) wakes watchers such as `goofi submit --watch`
    // on every count.
    by_termination: Mutex<BTreeMap<String, usize>>,
    progress_changed: Condvar,
    /// Set by `finish`, under the `by_termination` lock, which also
    /// guards the waits on `ended`.
    finished: AtomicBool,
    ended: Condvar,
    /// The completed count at which [`ProgressMonitor::record`] pauses
    /// the campaign (`u64::MAX`: never).
    pause_at: AtomicU64,
    telemetry: Telemetry,
}

/// Thread-safe pause/resume/stop control plus progress counters.
#[derive(Debug, Clone)]
pub struct ProgressMonitor {
    inner: Arc<Inner>,
}

impl Default for ProgressMonitor {
    fn default() -> Self {
        Self::new(0)
    }
}

impl ProgressMonitor {
    /// Creates a monitor for a campaign of `total` experiments, with
    /// telemetry disabled.
    pub fn new(total: usize) -> Self {
        Self::with_telemetry(total, Telemetry::disabled())
    }

    /// Creates a monitor that counts into `telemetry`'s metrics registry
    /// (two monitors given one enabled handle share their counters), and
    /// which carries the handle to every component the monitor reaches
    /// (runner, algorithms, supervisor, link).
    pub fn with_telemetry(total: usize, telemetry: Telemetry) -> Self {
        ProgressMonitor {
            inner: Arc::new(Inner {
                command: Mutex::new(Command::Run),
                wakeup: Condvar::new(),
                total,
                counters: telemetry.registry().unwrap_or_default(),
                by_termination: Mutex::new(BTreeMap::new()),
                progress_changed: Condvar::new(),
                finished: AtomicBool::new(false),
                ended: Condvar::new(),
                pause_at: AtomicU64::new(u64::MAX),
                telemetry,
            }),
        }
    }

    /// The telemetry handle this monitor carries (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Pauses the campaign after the current experiment.
    pub fn pause(&self) {
        *self.inner.command.lock() = Command::Pause;
    }

    /// Resumes a paused campaign.
    pub fn resume(&self) {
        let mut cmd = self.inner.command.lock();
        if *cmd == Command::Pause {
            *cmd = Command::Run;
        }
        self.inner.wakeup.notify_all();
    }

    /// Ends the campaign after the current experiment.
    pub fn stop(&self) {
        *self.inner.command.lock() = Command::Stop;
        self.inner.wakeup.notify_all();
    }

    /// Whether a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        *self.inner.command.lock() == Command::Stop
    }

    /// Called by the campaign loop between experiments: blocks while
    /// paused.
    ///
    /// # Errors
    ///
    /// Returns [`GoofiError::Stopped`] once the user has ended the campaign.
    pub fn checkpoint(&self) -> Result<()> {
        self.checkpoint_then(|| Ok(()))
    }

    /// [`ProgressMonitor::checkpoint`] that, when the campaign is paused,
    /// first runs `before_blocking` without holding the lock. The campaign
    /// engine syncs its journal there, so a paused campaign holds no
    /// unsynced entry.
    ///
    /// # Errors
    ///
    /// As [`ProgressMonitor::checkpoint`], or the error of
    /// `before_blocking`.
    pub(crate) fn checkpoint_then(
        &self,
        before_blocking: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        let mut cmd = self.inner.command.lock();
        if *cmd == Command::Pause {
            drop(cmd);
            before_blocking()?;
            cmd = self.inner.command.lock();
        }
        while *cmd == Command::Pause {
            self.inner.wakeup.wait(&mut cmd);
        }
        if *cmd == Command::Stop {
            return Err(GoofiError::Stopped);
        }
        Ok(())
    }

    /// Pauses the campaign as the `completed`-th experiment is recorded,
    /// so that experiment is the last one to run before the next
    /// checkpoint blocks. A chaos-struck shard worker strikes at its kill
    /// point this way, however late its drill thread wakes.
    pub(crate) fn pause_at(&self, completed: usize) {
        self.inner
            .pause_at
            .store(completed as u64, Ordering::Relaxed);
    }

    /// Records a completed experiment and its termination cause.
    pub fn record(&self, cause: &TerminationCause) {
        let mut by_termination = self.inner.by_termination.lock();
        *by_termination.entry(cause.encode()).or_insert(0) += 1;
        self.inner.counters.add(Metric::Completed, 1);
        if self.inner.counters.counter(Metric::Completed)
            == self.inner.pause_at.load(Ordering::Relaxed)
        {
            self.pause();
        }
        self.inner.progress_changed.notify_all();
    }

    /// Adds `n` to a campaign counter (a failed or retried experiment, a
    /// link event, a quarantined record, a probe suite, a recovery
    /// action) and wakes progress watchers. A completed
    /// experiment goes through [`ProgressMonitor::record`], which also
    /// counts its termination cause.
    pub fn count(&self, metric: Metric, n: u64) {
        let _lock = self.inner.by_termination.lock();
        self.inner.counters.add(metric, n);
        self.inner.progress_changed.notify_all();
    }

    /// A copy of the current counters.
    pub fn snapshot(&self) -> Progress {
        self.snapshot_locked(&self.inner.by_termination.lock())
    }

    /// [`ProgressMonitor::snapshot`] for a caller holding the lock.
    fn snapshot_locked(&self, by_termination: &BTreeMap<String, usize>) -> Progress {
        let n = |metric| self.inner.counters.counter(metric) as usize;
        Progress {
            total: self.inner.total,
            completed: n(Metric::Completed),
            failed: n(Metric::Failed),
            retried: n(Metric::Retried),
            link_recovered: n(Metric::LinkRecovered),
            link_unrecovered: n(Metric::LinkUnrecovered),
            quarantined: n(Metric::Quarantined),
            probes_run: n(Metric::ProbesRun),
            probes_failed: n(Metric::ProbesFailed),
            hangs: n(Metric::Hangs),
            soft_resets: n(Metric::SoftResets),
            card_reinits: n(Metric::CardReinits),
            power_cycles: n(Metric::PowerCycles),
            targets_offline: n(Metric::TargetsOffline),
            by_termination: by_termination.clone(),
        }
    }

    /// Blocks until the counters differ from `last`, the run has ended
    /// ([`ProgressMonitor::finish`]) or `timeout` elapses, then returns a
    /// copy of the current counters. This is the push side of live
    /// progress streaming: shard workers loop on it to emit wire events on
    /// change instead of polling [`ProgressMonitor::snapshot`].
    pub fn wait_for_change(&self, last: &Progress, timeout: Duration) -> Progress {
        let deadline = Instant::now() + timeout;
        let mut by_termination = self.inner.by_termination.lock();
        loop {
            let p = self.snapshot_locked(&by_termination);
            let now = Instant::now();
            if p != *last || now >= deadline || self.is_finished() {
                return p;
            }
            self.inner
                .progress_changed
                .wait_for(&mut by_termination, deadline - now);
        }
    }

    /// Marks the run as ended, once nothing more will be counted, and
    /// wakes every thread blocked in [`ProgressMonitor::wait_for_change`]
    /// or [`ProgressMonitor::wait_finished`]: from then on both return at
    /// once.
    pub fn finish(&self) {
        let _lock = self.inner.by_termination.lock();
        self.inner.finished.store(true, Ordering::Release);
        self.inner.progress_changed.notify_all();
        self.inner.ended.notify_all();
    }

    /// Whether [`ProgressMonitor::finish`] has been called.
    pub fn is_finished(&self) -> bool {
        self.inner.finished.load(Ordering::Acquire)
    }

    /// Blocks until the run has ended or `timeout` elapses; returns
    /// whether it has ended. Unlike [`ProgressMonitor::wait_for_change`],
    /// counting does not wake it, so it paces a loop that must still see
    /// the end at once.
    pub fn wait_finished(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut lock = self.inner.by_termination.lock();
        while !self.is_finished() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.inner.ended.wait_for(&mut lock, deadline - now);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::DetectionInfo;
    use std::thread;

    #[test]
    fn records_and_fractions() {
        let m = ProgressMonitor::new(4);
        m.record(&TerminationCause::WorkloadEnd);
        m.record(&TerminationCause::Detected(DetectionInfo {
            mechanism: "parity_icache".into(),
            code: 1,
        }));
        m.count(Metric::Failed, 1);
        let p = m.snapshot();
        assert_eq!(p.completed, 2);
        assert_eq!(p.failed, 1);
        assert_eq!(p.fraction(), 0.75);
        assert_eq!(p.by_termination.get("end"), Some(&1));
    }

    #[test]
    fn failed_experiments_count_toward_progress() {
        let m = ProgressMonitor::new(4);
        m.record(&TerminationCause::WorkloadEnd);
        m.count(Metric::Retried, 1);
        m.count(Metric::Retried, 1);
        m.count(Metric::Failed, 1);
        m.count(Metric::Completed, 1);
        m.count(Metric::Failed, 1);
        let p = m.snapshot();
        assert_eq!(p.completed, 2);
        assert_eq!(p.failed, 2);
        assert_eq!(p.retried, 2);
        assert_eq!(p.fraction(), 1.0);
    }

    #[test]
    fn link_and_quarantine_counters_accumulate() {
        let m = ProgressMonitor::new(2);
        m.count(Metric::LinkRecovered, 1);
        m.count(Metric::LinkRecovered, 1);
        m.count(Metric::LinkUnrecovered, 1);
        m.count(Metric::Quarantined, 1);
        let p = m.snapshot();
        assert_eq!(p.link_recovered, 2);
        assert_eq!(p.link_unrecovered, 1);
        assert_eq!(p.quarantined, 1);
        // Link events are not experiment progress.
        assert_eq!(p.completed, 0);
    }

    #[test]
    fn supervision_counters_accumulate() {
        let m = ProgressMonitor::new(2);
        m.count(Metric::ProbesRun, 1);
        m.count(Metric::ProbesRun, 1);
        m.count(Metric::ProbesFailed, 1);
        m.count(Metric::Hangs, 1);
        m.count(Metric::SoftResets, 1);
        m.count(Metric::SoftResets, 1);
        m.count(Metric::CardReinits, 1);
        m.count(Metric::PowerCycles, 1);
        m.count(Metric::TargetsOffline, 1);
        let p = m.snapshot();
        assert_eq!(p.probes_run, 2);
        assert_eq!(p.probes_failed, 1);
        assert_eq!(p.hangs, 1);
        assert_eq!(p.soft_resets, 2);
        assert_eq!(p.card_reinits, 1);
        assert_eq!(p.power_cycles, 1);
        assert_eq!(p.targets_offline, 1);
        // Supervision events are not experiment progress.
        assert_eq!(p.completed, 0);
    }

    /// Reads one counter field of a `Progress`.
    type Field = fn(&Progress) -> usize;

    /// Each campaign-event metric paired with the `Progress` field that
    /// reads it.
    fn progress_fields() -> [(Metric, Field); 13] {
        [
            (Metric::Completed, |p| p.completed),
            (Metric::Failed, |p| p.failed),
            (Metric::Retried, |p| p.retried),
            (Metric::LinkRecovered, |p| p.link_recovered),
            (Metric::LinkUnrecovered, |p| p.link_unrecovered),
            (Metric::Quarantined, |p| p.quarantined),
            (Metric::ProbesRun, |p| p.probes_run),
            (Metric::ProbesFailed, |p| p.probes_failed),
            (Metric::Hangs, |p| p.hangs),
            (Metric::SoftResets, |p| p.soft_resets),
            (Metric::CardReinits, |p| p.card_reinits),
            (Metric::PowerCycles, |p| p.power_cycles),
            (Metric::TargetsOffline, |p| p.targets_offline),
        ]
    }

    #[test]
    fn every_progress_counter_reads_its_own_metric() {
        for telemetry in [Telemetry::disabled(), Telemetry::enabled()] {
            let m = ProgressMonitor::with_telemetry(100, telemetry);
            // A distinct amount per metric, so two fields read from each
            // other's metric cannot pass.
            for (n, (metric, _)) in (1..).zip(progress_fields()) {
                m.count(metric, n);
            }
            let p = m.snapshot();
            for (n, (metric, field)) in (1..).zip(progress_fields()) {
                assert_eq!(field(&p), n, "{}", metric.encode());
            }
            if let Some(t) = m.telemetry().metrics() {
                for (n, (metric, _)) in (1..).zip(progress_fields()) {
                    assert_eq!(t.counter(metric.encode()), n as u64, "{}", metric.encode());
                }
            }
        }
    }

    #[test]
    fn completed_is_the_sum_over_termination_causes() {
        let m = ProgressMonitor::new(8);
        for cause in [
            TerminationCause::WorkloadEnd,
            TerminationCause::Timeout,
            TerminationCause::WorkloadEnd,
            TerminationCause::TargetHang,
            TerminationCause::WorkloadEnd,
        ] {
            m.record(&cause);
            m.count(Metric::Retried, 1);
        }
        let p = m.snapshot();
        assert_eq!(p.completed, 5);
        assert_eq!(p.by_termination.values().sum::<usize>(), p.completed);
    }

    #[test]
    fn stop_aborts_checkpoint() {
        let m = ProgressMonitor::new(1);
        m.checkpoint().unwrap();
        m.stop();
        assert!(m.is_stopped());
        assert!(matches!(m.checkpoint(), Err(GoofiError::Stopped)));
    }

    #[test]
    fn pause_blocks_until_resume() {
        let m = ProgressMonitor::new(1);
        m.pause();
        let m2 = m.clone();
        let handle = thread::spawn(move || m2.checkpoint());
        // Give the worker time to block on the pause.
        thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished());
        m.resume();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn stop_wakes_a_paused_campaign() {
        let m = ProgressMonitor::new(1);
        m.pause();
        let m2 = m.clone();
        let handle = thread::spawn(move || m2.checkpoint());
        thread::sleep(Duration::from_millis(50));
        m.stop();
        assert!(matches!(handle.join().unwrap(), Err(GoofiError::Stopped)));
    }

    #[test]
    fn checkpoint_then_runs_its_hook_unlocked_and_only_when_paused() {
        let m = ProgressMonitor::new(1);
        m.checkpoint_then(|| panic!("hook ran without a pause"))
            .unwrap();
        m.pause();
        let mut ran = false;
        // The hook may use the monitor: it runs without the lock.
        m.checkpoint_then(|| {
            ran = true;
            m.resume();
            Ok(())
        })
        .unwrap();
        assert!(ran);
        // A failing hook fails the checkpoint instead of blocking.
        m.pause();
        let failed = m.checkpoint_then(|| Err(GoofiError::Config("hook".into())));
        assert!(matches!(failed, Err(GoofiError::Config(_))));
    }

    #[test]
    fn resume_does_not_cancel_stop() {
        let m = ProgressMonitor::new(1);
        m.stop();
        m.resume();
        assert!(m.is_stopped());
    }

    #[test]
    fn empty_campaign_fraction_is_one() {
        assert_eq!(ProgressMonitor::new(0).snapshot().fraction(), 1.0);
    }

    #[test]
    fn wait_for_change_wakes_on_record() {
        let m = ProgressMonitor::new(2);
        let last = m.snapshot();
        let m2 = m.clone();
        let handle = thread::spawn(move || m2.wait_for_change(&last, Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(30));
        m.record(&TerminationCause::WorkloadEnd);
        let p = handle.join().unwrap();
        assert_eq!(p.completed, 1);
    }

    #[test]
    fn wait_for_change_wakes_on_count() {
        let m = ProgressMonitor::new(2);
        let last = m.snapshot();
        let m2 = m.clone();
        let handle = thread::spawn(move || {
            let started = Instant::now();
            let p = m2.wait_for_change(&last, Duration::from_secs(5));
            (p, started.elapsed())
        });
        // Give the watcher time to block, so the count has to wake it. On
        // any interleaving it must return well inside the timeout.
        thread::sleep(Duration::from_millis(50));
        m.count(Metric::Quarantined, 1);
        let (p, waited) = handle.join().unwrap();
        assert_eq!(p.quarantined, 1);
        assert!(waited < Duration::from_secs(1), "woke after {waited:?}");
    }

    #[test]
    fn wait_for_change_times_out_unchanged() {
        let m = ProgressMonitor::new(2);
        let last = m.snapshot();
        let p = m.wait_for_change(&last, Duration::from_millis(20));
        assert_eq!(p, last);
    }

    #[test]
    fn finish_ends_a_long_wait_at_once() {
        let m = ProgressMonitor::new(2);
        let last = m.snapshot();
        let waiters: Vec<_> = (0..2)
            .map(|which| {
                let (m, last) = (m.clone(), last.clone());
                thread::spawn(move || {
                    let started = Instant::now();
                    if which == 0 {
                        assert_eq!(m.wait_for_change(&last, Duration::from_secs(10)), last);
                    } else {
                        assert!(m.wait_finished(Duration::from_secs(10)));
                    }
                    started.elapsed()
                })
            })
            .collect();
        assert!(!m.wait_finished(Duration::from_millis(50)));
        assert!(!m.is_finished());
        m.finish();
        for waiter in waiters {
            let waited = waiter.join().unwrap();
            assert!(waited < Duration::from_secs(1), "woke after {waited:?}");
        }
        // Once finished, neither wait blocks.
        assert!(m.wait_finished(Duration::from_secs(10)));
        assert_eq!(m.wait_for_change(&last, Duration::from_secs(10)), last);
    }

    #[test]
    fn counting_does_not_end_wait_finished() {
        let m = ProgressMonitor::new(2);
        let m2 = m.clone();
        let handle = thread::spawn(move || m2.wait_finished(Duration::from_millis(200)));
        thread::sleep(Duration::from_millis(20));
        m.record(&TerminationCause::WorkloadEnd);
        assert!(!handle.join().unwrap(), "a count is not the end of the run");
    }

    #[test]
    fn counters_mirror_into_telemetry() {
        let m = ProgressMonitor::with_telemetry(3, Telemetry::enabled());
        m.record(&TerminationCause::WorkloadEnd);
        m.count(Metric::Retried, 1);
        m.count(Metric::ProbesRun, 1);
        m.count(Metric::ProbesFailed, 1);
        m.count(Metric::Completed, 2);
        m.count(Metric::Failed, 1);
        m.count(Metric::Quarantined, 1);
        let p = m.snapshot();
        let t = m.telemetry().metrics().unwrap();
        assert_eq!(t.counter("completed"), p.completed as u64);
        assert_eq!(t.counter("failed"), p.failed as u64);
        assert_eq!(t.counter("retried"), p.retried as u64);
        assert_eq!(t.counter("probes-run"), p.probes_run as u64);
        assert_eq!(t.counter("probes-failed"), p.probes_failed as u64);
        assert_eq!(t.counter("quarantined"), p.quarantined as u64);
    }
}
