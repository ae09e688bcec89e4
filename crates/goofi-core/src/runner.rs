//! The campaign engine: one drive loop behind serial, parallel, resume and
//! service-shard runs.
//!
//! Fault-injection experiments are independent: each one reloads the
//! workload and resets the target, so a campaign shards perfectly across
//! loops, each owning a private target instance (a simulator affords as
//! many "test cards" as there are cores — the one place this reproduction
//! can go beyond the paper's single-target hardware setup). The engine is
//! made of three parts:
//!
//! - the **reference step** gets the fault-free reference run: from the
//!   journal being resumed, else from the [`GoldenCache`], else a fresh
//!   run, which is journaled;
//! - the **drive loop** claims work items and runs each under the
//!   campaign's retry policy with its [`ExperimentSession`], then resolves hangs, journals the outcome,
//!   runs scheduled health probes and revalidates the golden run on its
//!   own target. A serial run drives one loop inline on the caller's
//!   target; a parallel run drives one loop per scoped thread, each on a
//!   target of its own. Resume and the service shard use the same engine
//!   after their reference step;
//! - the **fan-in** assembles the [`CampaignResult`] in campaign-index
//!   order, or the error that carries the partial result.
//!
//! Resilience guarantees of the engine:
//!
//! - A failing experiment never discards completed records: the error is
//!   [`GoofiError::ExperimentFailed`] carrying the partial
//!   [`CampaignResult`], and when several loops fail concurrently the
//!   failure first in item order is reported, deterministically.
//! - With a journal attached, every finished experiment is written to an
//!   append-only log before its loop moves on, and the log is synced once
//!   per 64 entries and at every ordering point: after the reference
//!   record, after quarantine marks and before their re-runs, before a
//!   loop blocks on a pause, and in the fan-in. A power cut loses at most
//!   the entries since the last sync, and [`resume_campaign`] restarts an
//!   interrupted campaign by re-running only what is missing — previously
//!   *failed* experiments are re-run as new experiments linked to the
//!   original via `parentExperiment` (paper §2.3).
//! - With revalidation enabled, each loop re-runs the golden reference on
//!   its own target after every *n* records it completed, and once more
//!   for its tail window; a drift quarantines exactly that loop's window.
//! - With supervision enabled (see [`crate::supervisor`]), each loop
//!   health-probes its own target every *n* items it processed, confirms
//!   watchdog timeouts as real hangs, and climbs the recovery ladder. A
//!   loop whose target escalates to offline *retires*: its in-flight
//!   experiment goes back on the queue for the surviving loops, and the
//!   campaign fails with [`GoofiError::TargetOffline`] only when the last
//!   live loop retires.

use crate::algorithms::{self, CampaignResult, ExperimentSession};
use crate::campaign::Campaign;
use crate::golden::GoldenCache;
use crate::journal::ExperimentJournal;
use crate::logging::{ExperimentRecord, TerminationCause, Validity};
use crate::monitor::ProgressMonitor;
use crate::policy::ExperimentFailure;
use crate::supervisor::{self, RecoveryRecord, RecoveryTrigger, Supervisor};
use crate::target::TargetAccess;
use crate::telemetry::{Metric, Stage, Telemetry};
use crate::trigger::Trigger;
use crate::vfs::Vfs;
use crate::{GoofiError, Result};
use envsim::Environment;
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Runs a campaign across up to `workers` loops, each on a target from
/// `make_target` and an environment from `make_env` (the null
/// environment when `None`). The reference runs on a dedicated target
/// first. With one loop it runs inline on the calling thread.
///
/// `journal`, when given, receives the reference run and every finished
/// experiment as they complete. Entries are written at once and synced in
/// batches, and the fan-in syncs the rest, so a killed process loses only
/// the experiments in flight and a power cut at most the entries since
/// the last sync. `snapshots: false` forces every loop onto the slow
/// load-and-execute path (benchmark baselines, equivalence testing, or a
/// safety valve for a misbehaving target snapshot implementation).
/// Records come back in experiment order — byte-for-byte what the serial
/// [`algorithms::run_campaign`] produces.
///
/// # Errors
///
/// [`GoofiError::Stopped`] when the monitor ends the campaign early;
/// [`GoofiError::ExperimentFailed`] (first failing item, completed records
/// preserved) when an experiment fails and the campaign's
/// [`ExperimentPolicy`](crate::policy::ExperimentPolicy) aborts on
/// failure; [`GoofiError::TargetOffline`] when every loop's target died;
/// journal I/O errors.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_parallel_journaled_opts<T, FT, FE>(
    make_target: FT,
    make_env: Option<FE>,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    workers: usize,
    journal: Option<&mut ExperimentJournal>,
    snapshots: bool,
) -> Result<CampaignResult>
where
    T: TargetAccess,
    FT: Fn() -> T + Sync,
    FE: Fn() -> Box<dyn Environment> + Sync,
{
    if workers == 0 {
        return Err(GoofiError::Config("worker count must be at least 1".into()));
    }
    campaign.validate()?;
    let tel = monitor.telemetry().clone();
    let _campaign_span = tel.campaign_span(&campaign.name);
    let journal = journal.map(Mutex::new);
    let reference = reference_step(campaign, &tel, None, None, journal.as_ref(), || {
        algorithms::reference_run_traced(
            &mut make_target(),
            campaign,
            new_env(&make_env).as_mut(),
            &tel,
        )
    })?;
    Engine::new(campaign, monitor, reference, journal, None, snapshots).run(
        &make_target,
        &make_env,
        workers,
    )
}

/// Resumes (or starts) a journaled campaign over the experiment indices in
/// `range`, across up to `workers` loops.
///
/// When `journal_path` does not exist yet, the journal is created and the
/// range runs in full. Otherwise the journal is reopened
/// ([`ExperimentJournal::reopen`]: a damaged line is cut away, an
/// unrecognisable file replaced by a fresh journal) and the range completed:
/// journaled experiments are skipped (their records are reused verbatim),
/// missing experiments run normally, and journaled *failures* are re-run
/// as new experiments named `<original>/rerun<k>` with `parentExperiment`
/// linking them to the original experiment — the paper's §2.3 re-run
/// tracking. An uninterrupted run and a crash-then-resume run of the same
/// campaign produce identical [`CampaignResult`]s (absent failures).
///
/// A range narrower than the campaign is the campaign-service shard: a
/// shard worker owns one contiguous slice of the index space and one
/// private journal. Journal entries keep their *global* campaign indices,
/// so the scheduler merges shard journals into one database with simple
/// per-experiment idempotence. Every file operation goes through `vfs` —
/// the seam the durability torture harness injects faults through.
///
/// # Errors
///
/// As [`run_campaign_parallel_journaled_opts`], plus journal I/O and
/// header-mismatch errors.
#[allow(clippy::too_many_arguments)]
pub fn resume_campaign<T, FT, FE>(
    make_target: FT,
    make_env: Option<FE>,
    campaign: &Campaign,
    monitor: &ProgressMonitor,
    workers: usize,
    vfs: &dyn Vfs,
    journal_path: impl AsRef<Path>,
    range: Range<usize>,
) -> Result<CampaignResult>
where
    T: TargetAccess,
    FT: Fn() -> T + Sync,
    FE: Fn() -> Box<dyn Environment> + Sync,
{
    let path = journal_path.as_ref();
    if workers == 0 {
        return Err(GoofiError::Config("worker count must be at least 1".into()));
    }
    campaign.validate()?;
    let total = campaign.faults.len();
    let range = range.start.min(total)..range.end.min(total);
    let tel = monitor.telemetry().clone();
    let _campaign_span = tel.campaign_span(&campaign.name);
    let (mut journal_file, state) = ExperimentJournal::reopen(vfs, path, &campaign.name)?;
    let journal = Mutex::new(&mut journal_file);
    // The golden cache lives beside the journal, keyed by the environment
    // model too. A journal that already holds the reference is the more
    // authoritative source, so the cache is not consulted then.
    let cache = GoldenCache::new(vfs, path, campaign, new_env(&make_env).name());
    let reference = reference_step(
        campaign,
        &tel,
        state.reference,
        Some(&cache),
        Some(&journal),
        || {
            algorithms::reference_run_traced(
                &mut make_target(),
                campaign,
                new_env(&make_env).as_mut(),
                &tel,
            )
        },
    )?;

    // Journaled completions within the range count as progress without
    // re-running.
    let preloaded: BTreeMap<usize, ExperimentRecord> = state
        .completed
        .into_iter()
        .filter(|(index, _)| range.contains(index))
        .collect();
    for record in preloaded.values() {
        monitor.record(&record.termination);
    }
    let items = range
        .filter(|index| !preloaded.contains_key(index))
        .map(|index| {
            let link = state.failed.get(&index).map(|_| {
                let original = campaign.experiment_name(index);
                let round = state.failed_rounds.get(&index).copied().unwrap_or(1);
                (format!("{original}/rerun{round}"), original)
            });
            WorkItem { index, link }
        })
        .collect();
    let mut engine = Engine::new(
        campaign,
        monitor,
        reference,
        Some(journal),
        Some(&cache),
        true,
    );
    engine.items = items;
    engine.preloaded = preloaded;
    engine.run(&make_target, &make_env, workers)
}

/// The reference step: the journaled reference when resuming, else the
/// golden cache's copy, else a fresh run from `fresh` (stored in the
/// cache). A reference that did not come from the journal is journaled
/// and committed before any experiment runs.
pub(crate) fn reference_step(
    campaign: &Campaign,
    tel: &Telemetry,
    journaled: Option<ExperimentRecord>,
    cache: Option<&GoldenCache>,
    journal: Option<&Mutex<&mut ExperimentJournal>>,
    fresh: impl FnOnce() -> Result<ExperimentRecord>,
) -> Result<ExperimentRecord> {
    if let Some(reference) = journaled {
        return Ok(reference);
    }
    let reference = match cache.and_then(|c| c.load(campaign)) {
        Some(cached) => {
            tel.count(Metric::GoldenCacheHits, 1);
            cached
        }
        None => {
            let fresh = fresh()?;
            if let Some(c) = cache {
                tel.count(Metric::GoldenCacheMisses, 1);
                c.store(&fresh);
            }
            fresh
        }
    };
    if let Some(j) = journal {
        tel.time(Stage::DbWrite, || {
            let mut j = j.lock();
            j.append_record(None, &reference)?;
            j.commit()
        })?;
    }
    Ok(reference)
}

fn new_env<FE: Fn() -> Box<dyn Environment>>(make_env: &Option<FE>) -> Box<dyn Environment> {
    match make_env {
        Some(f) => f(),
        None => Box::new(envsim::NullEnvironment),
    }
}

/// Execution-order key for snapshot-mode campaigns: instruction-count
/// triggers sort by their absolute trigger time so successive experiments
/// fast-forward monotonically; every other trigger keys to zero (those
/// experiments restore the post-load snapshot directly, so their relative
/// order is irrelevant to the hot path).
fn trigger_order_key(trigger: &Trigger) -> u64 {
    match trigger {
        Trigger::AfterInstructions(n) => *n,
        _ => 0,
    }
}

/// One unit of work: a campaign experiment index plus, for re-runs of
/// previously failed experiments, the `(name, parent)` link of the record
/// to produce.
#[derive(Debug)]
struct WorkItem {
    index: usize,
    link: Option<(String, String)>,
}

/// What the loops left for one work item.
#[derive(Default)]
struct Slot {
    /// The standing record (possibly a re-run replacing a quarantined one).
    record: Option<ExperimentRecord>,
    /// A failure the policy skipped past.
    failure: Option<ExperimentFailure>,
}

/// An outcome that ends the campaign.
enum Abort {
    /// An experiment failed and the policy aborts on failure.
    Failed(ExperimentFailure),
    /// Infrastructure error (journal I/O, a failing golden run).
    Error(GoofiError),
}

/// Why a drive loop stopped before running out of work.
enum Halt {
    /// The user stopped the campaign, or another loop aborted it.
    Stop,
    /// The loop's target exhausted the recovery ladder; the context names
    /// the experiment the episode ran for.
    Retire(String),
    /// The campaign must end, because of the item at this position.
    Abort(usize, Abort),
}

/// The control flow of a drive loop step.
type Flow<T = ()> = std::result::Result<T, Halt>;

impl Halt {
    fn at(pos: usize, error: GoofiError) -> Halt {
        match error {
            GoofiError::Stopped => Halt::Stop,
            error => Halt::Abort(pos, Abort::Error(error)),
        }
    }
}

/// One campaign execution: the work items, the state the drive loops
/// share, and everything the fan-in assembles.
pub(crate) struct Engine<'a> {
    campaign: &'a Campaign,
    monitor: &'a ProgressMonitor,
    reference: ExperimentRecord,
    /// Shared by every loop, behind one mutex in every mode.
    journal: Option<Mutex<&'a mut ExperimentJournal>>,
    cache: Option<&'a GoldenCache<'a>>,
    snapshots: bool,
    revalidate_every: Option<usize>,
    items: Vec<WorkItem>,
    /// Records reused from a resumed journal.
    preloaded: BTreeMap<usize, ExperimentRecord>,
    /// Loops started (fixed before driving).
    loops: usize,
    slots: Vec<Mutex<Slot>>,
    next: AtomicUsize,
    /// Positions a retiring loop handed back to the survivors.
    requeue: Mutex<Vec<usize>>,
    /// Loops looking for or holding an unsettled claim; idle loops stay
    /// alive while a retirement could still requeue work.
    in_flight: AtomicUsize,
    /// Idle loops park here, on the `requeue` lock, until a claim settles
    /// with its item requeued or with nothing left in flight.
    settled: Condvar,
    aborted: AtomicBool,
    abort: Mutex<Option<(usize, Abort)>>,
    quarantined: Mutex<Vec<ExperimentRecord>>,
    recoveries: Mutex<Vec<RecoveryRecord>>,
    /// One context per retired loop.
    retired: Mutex<Vec<String>>,
}

impl<'a> Engine<'a> {
    /// An execution of every experiment of `campaign` against `reference`.
    pub(crate) fn new(
        campaign: &'a Campaign,
        monitor: &'a ProgressMonitor,
        reference: ExperimentRecord,
        journal: Option<Mutex<&'a mut ExperimentJournal>>,
        cache: Option<&'a GoldenCache<'a>>,
        snapshots: bool,
    ) -> Engine<'a> {
        Engine {
            campaign,
            monitor,
            reference,
            journal,
            cache,
            snapshots,
            revalidate_every: campaign
                .policy
                .revalidate_every
                .map(|n| n as usize)
                .filter(|n| *n > 0),
            items: (0..campaign.faults.len())
                .map(|index| WorkItem { index, link: None })
                .collect(),
            preloaded: BTreeMap::new(),
            loops: 0,
            slots: Vec::new(),
            next: AtomicUsize::new(0),
            requeue: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
            settled: Condvar::new(),
            aborted: AtomicBool::new(false),
            abort: Mutex::new(None),
            quarantined: Mutex::new(Vec::new()),
            recoveries: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Drives up to `workers` loops, each on a target and environment of
    /// its own, then fans in.
    fn run<T, FT, FE>(
        mut self,
        make_target: &FT,
        make_env: &Option<FE>,
        workers: usize,
    ) -> Result<CampaignResult>
    where
        T: TargetAccess,
        FT: Fn() -> T + Sync,
        FE: Fn() -> Box<dyn Environment> + Sync,
    {
        match workers.min(self.items.len()) {
            0 => self.finish(),
            1 => self.run_inline(&mut make_target(), new_env(make_env).as_mut()),
            loops => {
                // Loops claim positions off a shared counter, so a
                // trigger-sorted list keeps every loop's claims monotonic
                // in trigger time. Each loop's session probes its own
                // target's snapshot capability.
                self.start(loops, self.snapshots);
                let engine = &self;
                crossbeam::thread::scope(|scope| {
                    for _ in 0..loops {
                        scope.spawn(|_| {
                            engine.drive(&mut make_target(), new_env(make_env).as_mut())
                        });
                    }
                })
                .expect("campaign loop panicked");
                self.finish()
            }
        }
    }

    /// Drives one loop inline on `target`, then fans in.
    pub(crate) fn run_inline<T: TargetAccess + ?Sized>(
        mut self,
        target: &mut T,
        env: &mut dyn Environment,
    ) -> Result<CampaignResult> {
        // Trigger order only pays off when the whole target stack can take
        // and safely reuse snapshots; otherwise keep campaign-index order,
        // which drills with call-sequence-tied draw streams depend on.
        let sort = self.snapshots && target.supports_snapshot() && target.prefix_restore_safe();
        self.start(1, sort);
        self.drive(target, env);
        self.finish()
    }

    /// Fixes the loop count and the execution order. Snapshot mode executes
    /// in trigger order: each experiment then fast-forwards from the
    /// previous trigger snapshot instead of re-executing its whole prefix,
    /// so total prefix work is one amortised sweep of the reference run.
    /// The sort is stable (ties keep campaign-index order), and the fan-in
    /// keys records by campaign index, so results and journals are
    /// unaffected by execution order.
    fn start(&mut self, loops: usize, sort: bool) {
        if sort {
            let faults = &self.campaign.faults;
            self.items
                .sort_by_key(|item| trigger_order_key(&faults[item.index].trigger));
        }
        self.slots = self.items.iter().map(|_| Mutex::default()).collect();
        self.loops = loops;
    }

    /// The drive loop, on one target: claim an item, run it, resolve hangs,
    /// journal the outcome, run the scheduled probes and revalidate.
    fn drive<T: TargetAccess + ?Sized>(&self, target: &mut T, env: &mut dyn Environment) {
        let supervisor = Supervisor::from_campaign(self.campaign, &self.reference);
        // Each loop owns its target, so it also owns the snapshot session
        // for that target's experiment prefixes.
        let mut session = self
            .snapshots
            .then(|| ExperimentSession::new(&self.reference));
        // Items this loop processed (the probe cadence) and the positions
        // of the records it completed since its last clean golden check.
        let mut processed: usize = 0;
        let mut window: Vec<usize> = Vec::new();
        let halt = loop {
            let pos = match self.claim() {
                Ok(Some(pos)) => pos,
                // Out of work: one last check covers the tail window.
                Ok(None) => break self.revalidate(target, env, &mut window).err(),
                Err(halt) => break Some(halt),
            };
            let ran = self.run_item(target, env, supervisor.as_ref(), session.as_mut(), pos);
            let retired = matches!(ran, Err(Halt::Retire(_)));
            if retired {
                // Hand the experiment to the surviving loops. Requeue
                // before the in-flight decrement so idle loops never miss
                // the hand-off.
                self.requeue.lock().push(pos);
            }
            let last = self.in_flight.fetch_sub(1, Ordering::AcqRel) == 1;
            if self.loops > 1 && (retired || last) {
                // Wake parked loops (a lone loop never parks). Taking the
                // lock orders the signal after any parked loop's last look
                // at the queue and the count.
                let _requeue = self.requeue.lock();
                self.settled.notify_all();
            }
            if let Err(halt) = ran {
                break Some(halt);
            }
            processed += 1;
            // The window only feeds revalidation; without it, keep none.
            if self.revalidate_every.is_some() && self.slots[pos].lock().record.is_some() {
                window.push(pos);
            }
            if let Err(halt) =
                self.scheduled_probe(target, env, supervisor.as_ref(), processed, pos)
            {
                break Some(halt);
            }
            if self.revalidate_every.is_some_and(|n| window.len() >= n) {
                if let Err(halt) = self.revalidate(target, env, &mut window) {
                    break Some(halt);
                }
            }
        };
        match halt {
            None | Some(Halt::Stop) => {}
            Some(Halt::Retire(context)) => self.retired.lock().push(context),
            Some(Halt::Abort(pos, abort)) => {
                // Let other loops finish their current item, but claim no
                // more work. The abort first in item order wins.
                self.aborted.store(true, Ordering::Release);
                let mut first = self.abort.lock();
                if first.as_ref().is_none_or(|(at, _)| pos < *at) {
                    *first = Some((pos, abort));
                }
            }
        }
    }

    /// Claims the next position: a requeued hand-off first, then the next
    /// unclaimed one. `Ok(None)` means no work is left anywhere.
    fn claim(&self) -> Flow<Option<usize>> {
        loop {
            // A failed commit ranks after every item's abort.
            self.monitor
                .checkpoint_then(|| self.commit_before_pause())
                .map_err(|e| Halt::at(usize::MAX, e))?;
            if self.aborted.load(Ordering::Acquire) {
                return Err(Halt::Stop);
            }
            // Count as in flight before looking, so a loop that sees zero
            // in flight knows nobody holds an unsettled claim.
            self.in_flight.fetch_add(1, Ordering::AcqRel);
            let claimed = self.requeue.lock().pop().or_else(|| {
                let pos = self.next.fetch_add(1, Ordering::Relaxed);
                (pos < self.items.len()).then_some(pos)
            });
            if claimed.is_some() {
                return Ok(claimed);
            }
            let mut requeue = self.requeue.lock();
            let idle = self.in_flight.fetch_sub(1, Ordering::AcqRel) == 1;
            if !requeue.is_empty() {
                continue;
            }
            if idle {
                // All work is accounted for; parked loops may exit too.
                self.settled.notify_all();
                return Ok(None);
            }
            // A busy loop may yet retire and requeue its item: park until
            // a claim settles. The bound keeps a pause or stop visible.
            self.settled
                .wait_for(&mut requeue, std::time::Duration::from_millis(5));
        }
    }

    /// Runs the item at `pos` and settles its slot.
    fn run_item<T: TargetAccess + ?Sized>(
        &self,
        target: &mut T,
        env: &mut dyn Environment,
        supervisor: Option<&Supervisor<'_>>,
        session: Option<&mut ExperimentSession>,
        pos: usize,
    ) -> Flow {
        let link = self.items[pos].link.clone();
        let outcome = match (self.execute(target, env, pos, link, session)?, supervisor) {
            (Ok(record), Some(sup)) => self.resolve_hangs(target, env, sup, record, pos)?,
            (outcome, _) => outcome,
        };
        match outcome {
            Ok(record) => {
                self.monitor.record(&record.termination);
                self.log(pos, &record)?;
                self.slots[pos].lock().record = Some(record);
            }
            Err(failure) => {
                self.monitor.count(Metric::Failed, 1);
                self.log_failure(pos, &failure)?;
                if self.campaign.policy.fails_campaign() {
                    return Err(Halt::Abort(pos, Abort::Failed(failure)));
                }
                self.slots[pos].lock().failure = Some(failure);
            }
        }
        Ok(())
    }

    /// Confirms a `Timeout` termination with the health-probe suite and,
    /// for a real target hang, quarantines the record (termination
    /// rewritten to [`TerminationCause::TargetHang`]), climbs the recovery
    /// ladder and re-runs the experiment as a `parentExperiment`-linked
    /// child — looping, bounded by the ladder's hang-round limit, in case
    /// the re-run wedges the target again. A `Timeout` whose probes pass is
    /// a slow workload and stands unchanged. `Ok(Err(_))` is an experiment
    /// that kept hanging (or whose re-run failed).
    fn resolve_hangs<T: TargetAccess + ?Sized>(
        &self,
        target: &mut T,
        env: &mut dyn Environment,
        sup: &Supervisor<'_>,
        mut record: ExperimentRecord,
        pos: usize,
    ) -> Flow<std::result::Result<ExperimentRecord, ExperimentFailure>> {
        let item = &self.items[pos];
        let mut round: u32 = 0;
        loop {
            if record.termination != TerminationCause::Timeout
                || sup.probe(target, &mut *env, self.monitor).passed()
            {
                return Ok(Ok(record));
            }
            round += 1;
            self.monitor.count(Metric::Hangs, 1);
            record.termination = TerminationCause::TargetHang;
            record.validity = Validity::Invalid;
            self.log(pos, &record)?;
            // The mark is durable before recovery and the re-run start.
            self.commit(pos)?;
            self.monitor.count(Metric::Quarantined, 1);
            let parent = record.name.clone();
            self.quarantined.lock().push(record);
            if !self.recover(target, env, sup, &parent, RecoveryTrigger::TargetHang) {
                return Err(Halt::Retire(parent));
            }
            if round > supervisor::MAX_HANG_ROUNDS {
                return Ok(Err(ExperimentFailure {
                    index: item.index,
                    name: parent,
                    attempts: round,
                    error: "target hang persisted across recovery re-runs".into(),
                }));
            }
            let base = match &item.link {
                Some((name, _)) => name.clone(),
                None => self.campaign.experiment_name(item.index),
            };
            let link = Some((format!("{base}/rerun{round}"), parent));
            // The target just climbed the recovery ladder; any snapshot
            // taken before the hang is stale, so this re-run executes from
            // scratch.
            match self.execute(target, env, pos, link, None)? {
                Ok(rerun) => record = rerun,
                Err(failure) => return Ok(Err(failure)),
            }
        }
    }

    /// The scheduled health probe after this loop's `processed`-th item
    /// (the one at `pos`); an unrecoverable target retires the loop.
    fn scheduled_probe<T: TargetAccess + ?Sized>(
        &self,
        target: &mut T,
        env: &mut dyn Environment,
        supervisor: Option<&Supervisor<'_>>,
        processed: usize,
        pos: usize,
    ) -> Flow {
        let Some(sup) = supervisor else {
            return Ok(());
        };
        if !sup.probe_due(processed) || sup.probe(target, &mut *env, self.monitor).passed() {
            return Ok(());
        }
        let context = self.campaign.experiment_name(self.items[pos].index);
        if self.recover(target, env, sup, &context, RecoveryTrigger::ProbeFailure) {
            Ok(())
        } else {
            Err(Halt::Retire(context))
        }
    }

    /// Climbs the recovery ladder and keeps the episode; whether the target
    /// came back.
    fn recover<T: TargetAccess + ?Sized>(
        &self,
        target: &mut T,
        env: &mut dyn Environment,
        sup: &Supervisor<'_>,
        context: &str,
        trigger: RecoveryTrigger,
    ) -> bool {
        let recovery = sup.recover(target, env, self.monitor, context, trigger);
        let recovered = recovery.recovered;
        self.recoveries.lock().push(recovery);
        recovered
    }

    /// Golden-run revalidation over this loop's `window`: re-runs the
    /// fault-free reference on the loop's own target and, on drift from
    /// the stored golden log, quarantines every record in the window
    /// (marked invalid, re-journaled) and re-runs each as a fresh
    /// `parentExperiment`-linked experiment that replaces the quarantined
    /// original — the paper's §2.3 re-run workflow turned into a
    /// link-integrity countermeasure. Empties the window.
    fn revalidate<T: TargetAccess + ?Sized>(
        &self,
        target: &mut T,
        env: &mut dyn Environment,
        window: &mut Vec<usize>,
    ) -> Flow {
        let (Some(_), Some(&first)) = (self.revalidate_every, window.first()) else {
            return Ok(());
        };
        // Revalidation goldens are always genuinely re-executed — never
        // served from the cache — because their whole purpose is to
        // exercise the link and target afresh.
        let golden = algorithms::reference_run_traced(
            target,
            self.campaign,
            &mut *env,
            self.monitor.telemetry(),
        )
        .map_err(|e| Halt::at(first, e))?;
        if algorithms::golden_run_matches(&self.reference, &golden) {
            // A clean check is also the moment the cache entry is known
            // good: store it unless this run already loaded or stored it.
            if let Some(c) = self.cache.filter(|c| !c.is_current()) {
                c.store(&self.reference);
            }
            window.clear();
            return Ok(());
        }
        // Drift: the cached golden can no longer be trusted by future runs.
        if let Some(c) = self.cache {
            c.invalidate();
        }
        // Mark the whole window first, commit, re-run second: once the
        // quarantine entries are synced, a crash at any later point still
        // re-runs every suspect experiment on resume.
        let mut suspects = Vec::with_capacity(window.len());
        for pos in window.drain(..) {
            let mut slot = self.slots[pos].lock();
            let record = slot.record.as_mut().expect("window positions hold records");
            record.validity = Validity::Invalid;
            self.log(pos, record)?;
            self.monitor.count(Metric::Quarantined, 1);
            suspects.push((pos, record.name.clone()));
        }
        self.commit(first)?;
        for (pos, original) in suspects {
            let link = Some((format!("{original}/rerun1"), original));
            // The experiment already counted toward progress when it first
            // completed, so re-run outcomes update only the quarantine
            // counter. Quarantine re-runs stay on the slow path: they
            // replace results produced over a suspect link, so nothing from
            // before the drift may be reused.
            match self.execute(target, env, pos, link, None)? {
                Ok(rerun) => {
                    self.log(pos, &rerun)?;
                    let original = self.slots[pos].lock().record.replace(rerun);
                    self.quarantined.lock().extend(original);
                }
                Err(failure) => {
                    self.log_failure(pos, &failure)?;
                    // The invalid original stays in place (still
                    // quarantined); a later resume re-runs it from the
                    // journal.
                    if self.campaign.policy.fails_campaign() {
                        return Err(Halt::Abort(pos, Abort::Failed(failure)));
                    }
                    self.slots[pos].lock().failure = Some(failure);
                }
            }
        }
        Ok(())
    }

    /// Runs the item at `pos` under the retry policy: as a linked re-run
    /// when `link` is given, on the snapshot fast path when `session` is.
    fn execute<T: TargetAccess + ?Sized>(
        &self,
        target: &mut T,
        env: &mut dyn Environment,
        pos: usize,
        link: Option<(String, String)>,
        session: Option<&mut ExperimentSession>,
    ) -> Flow<std::result::Result<ExperimentRecord, ExperimentFailure>> {
        let index = self.items[pos].index;
        algorithms::run_linked_experiment_then(
            target,
            self.campaign,
            index,
            link,
            self.monitor,
            env,
            session,
            || self.commit_before_pause(),
        )
        .map_err(|e| Halt::at(pos, e))
    }

    /// A loop about to block on a pause (before a claim or between
    /// retries) first syncs the journal, so a paused campaign holds no
    /// unsynced entry.
    fn commit_before_pause(&self) -> Result<()> {
        self.journal.as_ref().map_or(Ok(()), |j| j.lock().commit())
    }

    /// Journals `record` for the item at `pos`.
    fn log(&self, pos: usize, record: &ExperimentRecord) -> Flow {
        let index = Some(self.items[pos].index);
        self.journaled(pos, |j| j.append_record(index, record))
    }

    fn log_failure(&self, pos: usize, failure: &ExperimentFailure) -> Flow {
        self.journaled(pos, |j| j.append_failure(failure))
    }

    /// Syncs the journal's pending entries: an ordering point, failing as
    /// the item at `pos` would.
    fn commit(&self, pos: usize) -> Flow {
        self.journaled(pos, ExperimentJournal::commit)
    }

    fn journaled(
        &self,
        pos: usize,
        append: impl FnOnce(&mut ExperimentJournal) -> Result<()>,
    ) -> Flow {
        let Some(j) = &self.journal else {
            return Ok(());
        };
        let tel = self.monitor.telemetry();
        tel.time(Stage::DbWrite, || append(&mut j.lock()))
            .map_err(|e| Halt::at(pos, e))
    }

    /// The fan-in: records in campaign-index order (preloaded ones
    /// included), failures by index, quarantined records and recovery
    /// episodes by name — so neither trigger-order execution nor loop
    /// interleaving leaks into the result — and the campaign's verdict.
    /// It syncs the journal's pending entries on every path; a failed sync
    /// fails an otherwise successful run, and an earlier error wins.
    fn finish(self) -> Result<CampaignResult> {
        let synced = match &self.journal {
            Some(j) => {
                let tel = self.monitor.telemetry();
                tel.time(Stage::DbWrite, || j.lock().commit())
            }
            None => Ok(()),
        };
        let mut records = self.preloaded;
        let mut failures = Vec::new();
        let mut incomplete = false;
        for (item, slot) in self.items.iter().zip(self.slots) {
            let slot = slot.into_inner();
            incomplete |= slot.record.is_none() && slot.failure.is_none();
            if let Some(record) = slot.record {
                records.insert(item.index, record);
            }
            failures.extend(slot.failure);
        }
        failures.sort_by_key(|failure| failure.index);
        let mut quarantined = self.quarantined.into_inner();
        quarantined.sort_by(|a, b| a.name.cmp(&b.name));
        let mut recoveries = self.recoveries.into_inner();
        recoveries.sort_by(|a, b| a.experiment.cmp(&b.experiment));
        let partial = Box::new(CampaignResult {
            reference: self.reference,
            records: records.into_values().collect(),
            failures,
            quarantined,
            recoveries,
        });
        let retired = self.retired.into_inner();
        match self.abort.into_inner() {
            Some((_, Abort::Failed(failure))) => {
                Err(GoofiError::ExperimentFailed { failure, partial })
            }
            Some((_, Abort::Error(e))) => Err(e),
            None if self.monitor.is_stopped() => Err(GoofiError::Stopped),
            None if self.loops > 0 && retired.len() == self.loops => {
                // The last live loop retired: the campaign cannot degrade
                // any further. The completed part is preserved.
                let context = match retired.as_slice() {
                    [only] => only.clone(),
                    _ => format!("all {} worker target(s) retired", self.loops),
                };
                Err(GoofiError::TargetOffline { context, partial })
            }
            // Unclaimed items without a stop request should be impossible;
            // report rather than fabricate a complete result silently.
            None if incomplete => Err(GoofiError::Stopped),
            None => synced.map(|()| *partial),
        }
    }
}
