//! Outside-in timing probes.
//!
//! Each probe wraps a public seam of one layer and times every call that
//! crosses it, without touching the code behind the seam:
//!
//! - [`TimedTarget`] over any [`TargetAccess`] port — the CPU
//!   (`run_workload`/`step_instruction`), the scan chains
//!   (`read_scan_chain`/`write_scan_chain`) and the port's own
//!   snapshot/restore/digest/load/memory/breakpoint calls;
//! - [`TimedVfs`] over the [`Vfs`] an experiment journal writes through;
//! - [`CountingNet`] over the service client's [`Transport`].
//!
//! Calls report into a shared [`Ledger`]: one [`Tally`] (count, busy time,
//! work units, log₂ histogram) per [`Op`] for every call, and full
//! [`Span`]s only while the ledger records the first campaign of a
//! workload. A [`TimedTarget`] keeps its tallies locally and merges them
//! when dropped, so two runner workers never contend on the ledger.
//!
//! Cheap `&self` accessors (instruction/cycle counters, names, layouts,
//! capability bits) are forwarded untimed: timing a one-nanosecond getter
//! would cost more than the getter.

use goofi_core::campaign::WorkloadImage;
use goofi_core::preinject::StepAccess;
use goofi_core::service::net::{Conn, FrameRead, Listener};
use goofi_core::service::Transport;
use goofi_core::trigger::Trigger;
use goofi_core::vfs::{Vfs, VfsFile};
use goofi_core::{Result, RunBudget, RunEvent, TargetAccess, TargetSnapshot};
use scanchain::{BitVec, ChainLayout};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every call site the probes time; one [`Tally`] each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `run_workload` that stopped at an armed trigger: the fault-free
    /// prefix (fast-forward) before an injection.
    RunToTrigger,
    /// `run_workload` that stopped for any other reason: the
    /// post-injection suffix, and reference runs.
    Run,
    /// `step_instruction` / `step_traced`.
    Step,
    /// `read_scan_chain`; units are bits shifted out.
    ScanRead,
    /// `write_scan_chain`; units are bits shifted in.
    ScanWrite,
    /// Snapshot restore.
    Restore,
    /// Snapshot capture.
    Snapshot,
    /// `memory_digest`.
    Digest,
    /// `init_test_card`, `load_workload`, `reset_target`, `power_cycle`.
    Load,
    /// Memory, port and breakpoint access.
    PortOther,
    /// Journal file create.
    JournalCreate,
    /// Journal write; units are bytes.
    JournalWrite,
    /// Journal fsync.
    JournalSync,
    /// `dbio::store_result`; units are records.
    DbStore,
    /// `dbio::save_database`; units are bytes on disk.
    DbSave,
}

/// All ops, in [`Op`] declaration (and tally index) order.
pub const OPS: [Op; 15] = [
    Op::RunToTrigger,
    Op::Run,
    Op::Step,
    Op::ScanRead,
    Op::ScanWrite,
    Op::Restore,
    Op::Snapshot,
    Op::Digest,
    Op::Load,
    Op::PortOther,
    Op::JournalCreate,
    Op::JournalWrite,
    Op::JournalSync,
    Op::DbStore,
    Op::DbSave,
];

impl Op {
    /// The layer the op belongs to — the crate or module behind the seam.
    pub fn layer(self) -> &'static str {
        match self {
            Op::RunToTrigger | Op::Run | Op::Step => "cpu",
            Op::ScanRead | Op::ScanWrite => "scan",
            Op::Restore | Op::Snapshot | Op::Digest | Op::Load | Op::PortOther => "port",
            Op::JournalCreate | Op::JournalWrite | Op::JournalSync => "journal",
            Op::DbStore | Op::DbSave => "db",
        }
    }

    /// Stable op name, used in span files and worker layer files.
    pub fn name(self) -> &'static str {
        match self {
            Op::RunToTrigger => "run_to_trigger",
            Op::Run => "run",
            Op::Step => "step",
            Op::ScanRead => "scan_read",
            Op::ScanWrite => "scan_write",
            Op::Restore => "restore",
            Op::Snapshot => "snapshot",
            Op::Digest => "digest",
            Op::Load => "load",
            Op::PortOther => "port_other",
            Op::JournalCreate => "create",
            Op::JournalWrite => "write",
            Op::JournalSync => "fsync",
            Op::DbStore => "store_result",
            Op::DbSave => "save_database",
        }
    }

    /// The op named `name`.
    pub fn from_name(name: &str) -> Option<Op> {
        OPS.into_iter().find(|op| op.name() == name)
    }

    /// `layer.name`, the op's key in `results.json`.
    pub fn key(self) -> String {
        format!("{}.{}", self.layer(), self.name())
    }

    /// What [`Tally::units`] counts for this op, if anything.
    pub fn unit(self) -> Option<&'static str> {
        match self {
            Op::RunToTrigger | Op::Run | Op::Step => Some("instructions"),
            Op::ScanRead | Op::ScanWrite => Some("bits"),
            Op::JournalWrite | Op::DbSave => Some("bytes"),
            Op::DbStore => Some("records"),
            _ => None,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Buckets of the log₂-nanosecond histogram: bucket `b` counts calls that
/// took `[2^b, 2^(b+1))` ns (bucket 0 also takes 0 ns); the last bucket is
/// open-ended (≥ 2^39 ns ≈ 9 min).
pub const HIST_BUCKETS: usize = 40;

/// Aggregate of every call to one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Calls.
    pub count: u64,
    /// Wall time inside the calls.
    pub busy_ns: u64,
    /// Op-specific work units (instructions, bits, bytes, records).
    pub units: u64,
    /// log₂-ns duration histogram.
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            count: 0,
            busy_ns: 0,
            units: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

impl Tally {
    fn add(&mut self, ns: u64, units: u64) {
        self.count += 1;
        self.busy_ns += ns;
        self.units += units;
        let bucket = (63 - ns.max(1).leading_zeros()) as usize;
        self.hist[bucket.min(HIST_BUCKETS - 1)] += 1;
    }

    fn merge(&mut self, other: &Tally) {
        self.count += other.count;
        self.busy_ns += other.busy_ns;
        self.units += other.units;
        for (mine, theirs) in self.hist.iter_mut().zip(other.hist) {
            *mine += theirs;
        }
    }
}

/// One tally per [`Op`], indexed by [`Op`] order.
pub type Tallies = [Tally; OPS.len()];

/// One timed call (or a benchmark-level interval such as a whole campaign).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the ledger, starting at 1.
    pub id: u64,
    /// The enclosing span (a campaign or job), 0 for roots.
    pub parent: u64,
    /// Layer name.
    pub layer: &'static str,
    /// Operation name.
    pub op: &'static str,
    /// Start, ns since the ledger was created.
    pub start_ns: u64,
    /// End, ns since the ledger was created.
    pub end_ns: u64,
    /// Campaign (or job) number within the workload.
    pub campaign: usize,
}

/// Spans kept per workload at most: the first campaign of the deep-prefix
/// workload alone makes ~300 k calls, and the span file is a sample for
/// reading, not a complete record (the tallies are complete).
pub const SPAN_CAP: usize = 65_536;

#[derive(Debug, Default)]
struct LedgerState {
    tallies: Tallies,
    spans: Vec<Span>,
    /// Parent span and campaign number while spans are being recorded.
    recording: Option<(u64, usize)>,
    /// Every journal fsync duration, for exact percentiles.
    fsync_ns: Vec<u64>,
    /// The earliest instant any probe was first called.
    first_call: Option<Instant>,
}

/// The per-layer record all probes of one workload run report into.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    next_span: AtomicU64,
    state: Mutex<LedgerState>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            state: Mutex::new(LedgerState::default()),
        }
    }
}

impl Ledger {
    /// A fresh, empty ledger whose span clock starts now.
    pub fn new() -> Arc<Ledger> {
        Arc::new(Ledger::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LedgerState> {
        // Every update below leaves the state valid, so a panic elsewhere
        // while the lock was held cannot have left it half-written.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts recording spans for campaign `campaign`: every probe created
    /// from now on parents its spans to the returned campaign span id.
    /// Probes created before keep not recording.
    pub fn begin_spans(&self, campaign: usize) -> u64 {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        self.lock().recording = Some((id, campaign));
        id
    }

    /// Stops recording spans and stores the enclosing campaign span
    /// `[start, end)` under `id` (from [`Ledger::begin_spans`]).
    pub fn end_spans(&self, id: u64, op: &'static str, start: Instant, end: Instant) {
        let mut state = self.lock();
        if let Some((_, campaign)) = state.recording.take() {
            let span = Span {
                id,
                parent: 0,
                layer: "core",
                op,
                start_ns: self.offset_ns(start),
                end_ns: self.offset_ns(end),
                campaign,
            };
            state.spans.push(span);
        }
    }

    /// Records one call made by the benchmark itself (the `dbio`
    /// calls, service job phases), as a tally and — while recording — a
    /// span.
    pub fn record(&self, op: Op, start: Instant, end: Instant, units: u64) {
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        let mut state = self.lock();
        state.tallies[op.index()].add(ns, units);
        if op == Op::JournalSync {
            state.fsync_ns.push(ns);
        }
        self.push_span(&mut state, op.layer(), op.name(), start, end);
    }

    /// Records a span that is not a tallied op (service job phases).
    pub fn record_span(&self, layer: &'static str, op: &'static str, start: Instant, end: Instant) {
        let mut state = self.lock();
        self.push_span(&mut state, layer, op, start, end);
    }

    fn push_span(
        &self,
        state: &mut LedgerState,
        layer: &'static str,
        op: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if let Some(recording) = state.recording {
            if state.spans.len() < SPAN_CAP {
                let span = self.span(recording, layer, op, start, end);
                state.spans.push(span);
            }
        }
    }

    /// A new span under `recording` (parent span id, campaign number).
    fn span(
        &self,
        (parent, campaign): (u64, usize),
        layer: &'static str,
        op: &'static str,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            id: self.next_span.fetch_add(1, Ordering::Relaxed),
            parent,
            layer,
            op,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            campaign,
        }
    }

    /// Folds tallies measured elsewhere (a worker process) into this
    /// ledger.
    pub fn merge_tallies(&self, tallies: &Tallies) {
        let mut state = self.lock();
        for (mine, theirs) in state.tallies.iter_mut().zip(tallies) {
            mine.merge(theirs);
        }
    }

    /// A copy of the tallies so far.
    pub fn tallies(&self) -> Tallies {
        self.lock().tallies
    }

    /// Every journal fsync duration recorded so far, in ns.
    pub fn fsync_ns(&self) -> Vec<u64> {
        self.lock().fsync_ns.clone()
    }

    /// The recorded spans, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.lock().spans.clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// When the first probe call of this ledger happened.
    pub fn first_call(&self) -> Option<Instant> {
        self.lock().first_call
    }

    fn probe(self: &Arc<Ledger>) -> Probe {
        Probe {
            recording: self.lock().recording,
            ledger: Arc::clone(self),
            tallies: [Tally::default(); OPS.len()],
            spans: Vec::new(),
            first_call: None,
        }
    }
}

/// One decorator's private view of the ledger: local tallies and spans,
/// merged into the ledger on drop.
struct Probe {
    ledger: Arc<Ledger>,
    recording: Option<(u64, usize)>,
    tallies: Tallies,
    spans: Vec<Span>,
    first_call: Option<Instant>,
}

impl Probe {
    fn start(&mut self) -> Instant {
        let now = Instant::now();
        self.first_call.get_or_insert(now);
        now
    }

    fn record(&mut self, op: Op, start: Instant, units: u64) {
        let end = Instant::now();
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.tallies[op.index()].add(ns, units);
        if let Some(recording) = self.recording {
            if self.spans.len() < SPAN_CAP {
                let span = self
                    .ledger
                    .span(recording, op.layer(), op.name(), start, end);
                self.spans.push(span);
            }
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let mut state = self.ledger.lock();
        for (mine, theirs) in state.tallies.iter_mut().zip(&self.tallies) {
            mine.merge(theirs);
        }
        let room = SPAN_CAP.saturating_sub(state.spans.len());
        state.spans.extend(self.spans.drain(..).take(room));
        if let Some(first) = self.first_call {
            let earliest = state.first_call.map_or(first, |f| f.min(first));
            state.first_call = Some(earliest);
        }
    }
}

/// A [`TargetAccess`] decorator that times every call into the port.
///
/// It forwards `snapshot`, `restore`, `supports_snapshot`,
/// `prefix_restore_safe`, `memory_digest` and `power_cycle` explicitly, so
/// a traced campaign takes exactly the fast path an untraced one takes.
pub struct TimedTarget<T> {
    inner: T,
    probe: Probe,
}

impl<T: TargetAccess> TimedTarget<T> {
    /// Wraps `inner`, reporting into `ledger`.
    pub fn new(inner: T, ledger: &Arc<Ledger>) -> Self {
        TimedTarget {
            inner,
            probe: ledger.probe(),
        }
    }

    fn timed<R>(&mut self, op: Op, call: impl FnOnce(&mut T) -> R) -> R {
        let start = self.probe.start();
        let result = call(&mut self.inner);
        self.probe.record(op, start, 0);
        result
    }

    fn timed_run(&mut self, call: impl FnOnce(&mut T) -> Result<RunEvent>) -> Result<RunEvent> {
        let before = self.inner.instructions_executed();
        let start = self.probe.start();
        let event = call(&mut self.inner);
        let op = match event {
            Ok(RunEvent::Breakpoint { .. }) => Op::RunToTrigger,
            _ => Op::Run,
        };
        let instructions = self.inner.instructions_executed().saturating_sub(before);
        self.probe.record(op, start, instructions);
        event
    }

    fn timed_step<R>(&mut self, call: impl FnOnce(&mut T) -> R) -> R {
        let before = self.inner.instructions_executed();
        let start = self.probe.start();
        let result = call(&mut self.inner);
        let instructions = self.inner.instructions_executed().saturating_sub(before);
        self.probe.record(Op::Step, start, instructions);
        result
    }
}

impl<T: TargetAccess> TargetAccess for TimedTarget<T> {
    fn target_name(&self) -> &str {
        self.inner.target_name()
    }

    fn init_test_card(&mut self) -> Result<()> {
        self.timed(Op::Load, T::init_test_card)
    }

    fn load_workload(&mut self, image: &WorkloadImage) -> Result<()> {
        self.timed(Op::Load, |t| t.load_workload(image))
    }

    fn reset_target(&mut self) -> Result<()> {
        self.timed(Op::Load, T::reset_target)
    }

    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        self.timed(Op::PortOther, |t| t.write_memory(addr, data))
    }

    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        self.timed(Op::PortOther, |t| t.read_memory(addr, len))
    }

    fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> Result<()> {
        self.timed(Op::PortOther, |t| t.flip_memory_bit(addr, bit))
    }

    fn memory_size(&self) -> u32 {
        self.inner.memory_size()
    }

    fn set_breakpoint(&mut self, trigger: Trigger) -> Result<()> {
        self.timed(Op::PortOther, |t| t.set_breakpoint(trigger))
    }

    fn clear_breakpoints(&mut self) -> Result<()> {
        self.timed(Op::PortOther, T::clear_breakpoints)
    }

    fn run_workload(&mut self, budget: RunBudget) -> Result<RunEvent> {
        self.timed_run(|t| t.run_workload(budget))
    }

    fn step_instruction(&mut self) -> Result<Option<RunEvent>> {
        self.timed_step(T::step_instruction)
    }

    fn chain_layouts(&self) -> Vec<ChainLayout> {
        self.inner.chain_layouts()
    }

    fn read_scan_chain(&mut self, chain: &str) -> Result<BitVec> {
        let start = self.probe.start();
        let bits = self.inner.read_scan_chain(chain);
        let len = bits.as_ref().map_or(0, |b| b.len() as u64);
        self.probe.record(Op::ScanRead, start, len);
        bits
    }

    fn write_scan_chain(&mut self, chain: &str, bits: &BitVec) -> Result<()> {
        let start = self.probe.start();
        let result = self.inner.write_scan_chain(chain, bits);
        self.probe.record(Op::ScanWrite, start, bits.len() as u64);
        result
    }

    fn write_input_ports(&mut self, inputs: &[u32]) -> Result<()> {
        self.timed(Op::PortOther, |t| t.write_input_ports(inputs))
    }

    fn read_output_ports(&mut self) -> Result<Vec<u32>> {
        self.timed(Op::PortOther, T::read_output_ports)
    }

    fn instructions_executed(&self) -> u64 {
        self.inner.instructions_executed()
    }

    fn cycles_executed(&self) -> u64 {
        self.inner.cycles_executed()
    }

    fn iterations_completed(&self) -> u64 {
        self.inner.iterations_completed()
    }

    fn step_traced(&mut self) -> Result<(Option<RunEvent>, StepAccess)> {
        self.timed_step(T::step_traced)
    }

    fn power_cycle(&mut self) -> Result<()> {
        self.timed(Op::Load, T::power_cycle)
    }

    fn snapshot(&mut self) -> Result<TargetSnapshot> {
        self.timed(Op::Snapshot, T::snapshot)
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        self.timed(Op::Restore, |t| t.restore(snapshot))
    }

    fn supports_snapshot(&self) -> bool {
        self.inner.supports_snapshot()
    }

    fn prefix_restore_safe(&self) -> bool {
        self.inner.prefix_restore_safe()
    }

    // Forwarded on purpose, unlike semantic decorators: this wrapper only
    // observes, so the port's memoized digest must stay the path taken.
    fn memory_digest(&mut self, len: usize) -> Result<u64> {
        self.timed(Op::Digest, |t| t.memory_digest(len))
    }
}

/// A [`Vfs`] decorator that times journal file creation, writes and
/// fsyncs. Other filesystem calls are forwarded untimed: the journal
/// path makes none of them.
pub struct TimedVfs<V> {
    inner: V,
    ledger: Arc<Ledger>,
}

impl<V: Vfs> TimedVfs<V> {
    /// Wraps `inner`, reporting into `ledger`.
    pub fn new(inner: V, ledger: &Arc<Ledger>) -> Self {
        TimedVfs {
            inner,
            ledger: Arc::clone(ledger),
        }
    }
}

impl<V> fmt::Debug for TimedVfs<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TimedVfs")
    }
}

struct TimedFile {
    inner: Box<dyn VfsFile>,
    ledger: Arc<Ledger>,
}

impl VfsFile for TimedFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.write_all(data);
        self.ledger
            .record(Op::JournalWrite, start, Instant::now(), data.len() as u64);
        result
    }

    fn sync(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.sync();
        self.ledger
            .record(Op::JournalSync, start, Instant::now(), 0);
        result
    }
}

impl<V: Vfs> Vfs for TimedVfs<V> {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.inner.read_to_string(path)
    }

    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read_bytes(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let start = Instant::now();
        let file = self.inner.create(path);
        self.ledger
            .record(Op::JournalCreate, start, Instant::now(), 0);
        Ok(Box::new(TimedFile {
            inner: file?,
            ledger: Arc::clone(&self.ledger),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(TimedFile {
            inner: self.inner.open_append(path)?,
            ledger: Arc::clone(&self.ledger),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)
    }
}

/// Frames and payload bytes a [`CountingNet`] client has received.
#[derive(Debug, Default)]
pub struct WireCounts {
    /// Frames received.
    pub frames_in: AtomicU64,
    /// Payload bytes received.
    pub bytes_in: AtomicU64,
}

/// A [`Transport`] decorator that counts the frames and bytes every
/// connection it dials receives.
#[derive(Debug)]
pub struct CountingNet<N> {
    inner: N,
    counts: Arc<WireCounts>,
}

impl<N: Transport> CountingNet<N> {
    /// Wraps `inner`.
    pub fn new(inner: N) -> Self {
        CountingNet {
            inner,
            counts: Arc::default(),
        }
    }

    /// The shared counters.
    pub fn counts(&self) -> &WireCounts {
        &self.counts
    }
}

struct CountingConn {
    inner: Box<dyn Conn>,
    counts: Arc<WireCounts>,
}

impl Conn for CountingConn {
    fn send(&mut self, payload: &str) -> io::Result<()> {
        self.inner.send(payload)
    }

    fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.send_bytes(bytes)
    }

    fn recv(&mut self) -> io::Result<FrameRead> {
        let frame = self.inner.recv()?;
        if let FrameRead::Frame(payload) = &frame {
            // Statistics only: nothing else is published through these.
            self.counts.frames_in.fetch_add(1, Ordering::Relaxed);
            self.counts
                .bytes_in
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
        }
        Ok(frame)
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

impl<N: Transport> Transport for CountingNet<N> {
    fn connect(&self, addr: &str, timeout: Duration) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(CountingConn {
            inner: self.inner.connect(addr, timeout)?,
            counts: Arc::clone(&self.counts),
        }))
    }

    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>> {
        self.inner.listen(addr)
    }
}
