//! Campaign observability: tracing spans, metrics, and a flight recorder.
//!
//! The paper's only window into a running campaign is the §3.3 progress
//! window; this module is its production-scale counterpart. Three pieces:
//!
//! 1. **Tracing facade** — a [`Telemetry`] handle hands out [`Span`] guards
//!    arranged in a campaign → experiment → stage hierarchy. Completed spans
//!    become [`SpanRecord`]s and fan out to pluggable [`TraceSink`]s: an
//!    in-memory ring ([`RingSink`]), a JSONL writer ([`JsonlSink`]), or
//!    nothing at all. A disabled handle (the default) costs one branch per
//!    call site — no clock reads, no allocation, no locks.
//! 2. **Metrics** — a [`MetricsRegistry`] of atomic [`Metric`] counters
//!    (the one store of every `ProgressMonitor` counter) and log-scale
//!    latency [`Histogram`]s per workflow [`Stage`]
//!    (load/run/inject/scan/classify/db-write/probe/recover/
//!    snapshot-restore).
//! 3. **Flight recorder** — a [`RingSink`] keeps the last-N spans; on a
//!    campaign-fatal `GoofiError` the CLI dumps it next to the journal so
//!    failed campaigns are post-mortem debuggable without re-running.
//!
//! Everything encodes to plain text (JSON lines for spans, the repo's usual
//! `encode`/`decode` pairs for enums) so traces survive the same unreliable
//! links the experiments do.

use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of log₂ buckets in a latency [`Histogram`]. Bucket `i` holds
/// durations in `[2^(i-1), 2^i)` microseconds; bucket 39 tops out above
/// six days, far beyond any watchdog budget.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Default flight-recorder capacity (last-N spans kept for the crash dump).
pub const FLIGHT_RECORDER_SPANS: usize = 256;

// ---------------------------------------------------------------------------
// Stage and Metric vocabularies
// ---------------------------------------------------------------------------

/// A timed stage of the four-phase experiment workflow (§2.1), refined to
/// the points where a campaign actually spends wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Set-up: test-card init, workload download, input ports.
    Load,
    /// Workload execution on the target (to breakpoint or termination).
    Run,
    /// Fault injection proper: scan-chain/memory manipulation.
    Inject,
    /// State readout: scan-chain capture, memory digest, outputs.
    Scan,
    /// Analysis-phase outcome classification (`goofi report`).
    Classify,
    /// Database and journal writes.
    DbWrite,
    /// Inter-experiment health-probe suites.
    Probe,
    /// Recovery-ladder actions after a hang or failed probe.
    Recover,
    /// Snapshot captures and restores on the hot path (replacing workload
    /// reload plus prefix re-execution between experiments).
    SnapshotRestore,
}

impl Stage {
    /// Every stage, in workflow order.
    pub const ALL: [Stage; 9] = [
        Stage::Load,
        Stage::Run,
        Stage::Inject,
        Stage::Scan,
        Stage::Classify,
        Stage::DbWrite,
        Stage::Probe,
        Stage::Recover,
        Stage::SnapshotRestore,
    ];

    /// Stable text form used in traces and reports.
    pub fn encode(self) -> &'static str {
        match self {
            Stage::Load => "load",
            Stage::Run => "run",
            Stage::Inject => "inject",
            Stage::Scan => "scan",
            Stage::Classify => "classify",
            Stage::DbWrite => "db-write",
            Stage::Probe => "probe",
            Stage::Recover => "recover",
            Stage::SnapshotRestore => "snapshot-restore",
        }
    }

    /// Inverse of [`Stage::encode`].
    pub fn decode(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|t| t.encode() == s)
    }

    fn index(self) -> usize {
        Stage::ALL.iter().position(|s| *s == self).unwrap_or(0)
    }
}

/// A monotonically increasing campaign counter. The first thirteen are the
/// `ProgressMonitor` counters: the monitor counts them here and reads its
/// progress window back from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Metric {
    /// Experiments completed.
    Completed,
    /// Experiments failed despite the retry policy.
    Failed,
    /// Retry attempts.
    Retried,
    /// Link faults detected and recovered.
    LinkRecovered,
    /// Link faults that exhausted the recovery budget.
    LinkUnrecovered,
    /// Records quarantined by golden-run revalidation.
    Quarantined,
    /// Health-probe suites run.
    ProbesRun,
    /// Health-probe suites that failed.
    ProbesFailed,
    /// Watchdog timeouts confirmed as hangs.
    Hangs,
    /// Soft-reset recovery actions.
    SoftResets,
    /// Test-card re-init recovery actions.
    CardReinits,
    /// Power-cycle recovery actions.
    PowerCycles,
    /// Targets that went offline.
    TargetsOffline,
    /// Trace records dropped because a sink failed (e.g. disk full).
    TraceDropped,
    /// Target snapshots captured on the hot path.
    SnapshotsTaken,
    /// Target restores replacing a workload reload / prefix re-execution.
    Restores,
    /// Golden-run cache hits (reference recomputation skipped).
    GoldenCacheHits,
    /// Golden-run cache misses (reference computed and stored).
    GoldenCacheMisses,
    /// Experiments ended early by rejoining the fault-free run (see
    /// [`crate::algorithms::ExperimentSession`]).
    Rejoined,
    /// Experiments that ran into the time-out after their fault was
    /// injected.
    TimedOut,
    /// Instructions those experiments retired from injection to the
    /// time-out: the share of the run stage the time-outs take.
    TimeoutInstructions,
}

impl Metric {
    /// Every counter, in declaration order.
    pub const ALL: [Metric; 21] = [
        Metric::Completed,
        Metric::Failed,
        Metric::Retried,
        Metric::LinkRecovered,
        Metric::LinkUnrecovered,
        Metric::Quarantined,
        Metric::ProbesRun,
        Metric::ProbesFailed,
        Metric::Hangs,
        Metric::SoftResets,
        Metric::CardReinits,
        Metric::PowerCycles,
        Metric::TargetsOffline,
        Metric::TraceDropped,
        Metric::SnapshotsTaken,
        Metric::Restores,
        Metric::GoldenCacheHits,
        Metric::GoldenCacheMisses,
        Metric::Rejoined,
        Metric::TimedOut,
        Metric::TimeoutInstructions,
    ];

    /// Stable text form used in snapshots and reports.
    pub fn encode(self) -> &'static str {
        match self {
            Metric::Completed => "completed",
            Metric::Failed => "failed",
            Metric::Retried => "retried",
            Metric::LinkRecovered => "link-recovered",
            Metric::LinkUnrecovered => "link-unrecovered",
            Metric::Quarantined => "quarantined",
            Metric::ProbesRun => "probes-run",
            Metric::ProbesFailed => "probes-failed",
            Metric::Hangs => "hangs",
            Metric::SoftResets => "soft-resets",
            Metric::CardReinits => "card-reinits",
            Metric::PowerCycles => "power-cycles",
            Metric::TargetsOffline => "targets-offline",
            Metric::TraceDropped => "trace-dropped",
            Metric::SnapshotsTaken => "snapshots-taken",
            Metric::Restores => "restores",
            Metric::GoldenCacheHits => "golden-cache-hits",
            Metric::GoldenCacheMisses => "golden-cache-misses",
            Metric::Rejoined => "rejoined",
            Metric::TimedOut => "timed-out",
            Metric::TimeoutInstructions => "timeout-instructions",
        }
    }

    /// Inverse of [`Metric::encode`].
    pub fn decode(s: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.encode() == s)
    }

    fn index(self) -> usize {
        Metric::ALL.iter().position(|m| *m == self).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Span records and their JSONL codec
// ---------------------------------------------------------------------------

/// What a span represents in the campaign hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole campaign (one per run/resume).
    Campaign,
    /// One experiment (or the reference run).
    Experiment,
    /// A timed workflow stage within an experiment or campaign.
    Stage(Stage),
    /// A point-in-time event (duration zero unless timed explicitly).
    Event,
}

impl SpanKind {
    /// Stable text form ("campaign", "experiment", "stage", "event").
    pub fn encode(self) -> &'static str {
        match self {
            SpanKind::Campaign => "campaign",
            SpanKind::Experiment => "experiment",
            SpanKind::Stage(_) => "stage",
            SpanKind::Event => "event",
        }
    }
}

/// A completed span, as delivered to sinks and serialised to JSONL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the trace (1-based; 0 is "no span").
    pub id: u64,
    /// Parent span id, or `None` for roots.
    pub parent: Option<u64>,
    /// Hierarchy level and, for stages, which stage.
    pub kind: SpanKind,
    /// Human-readable name (campaign name, experiment name, event label).
    pub name: String,
    /// Start offset in microseconds since the telemetry epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Free-form detail (recovery trigger, link operation, …).
    pub detail: String,
}

pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Minimal value space for the hand-rolled JSON line codec.
pub(crate) enum JsonVal {
    Null,
    Num(u64),
    Str(String),
}

/// Parses one flat JSON object of string/number/null values. Returns the
/// key/value pairs, or `None` on any syntax error (torn trace tails are
/// skipped, mirroring the journal's torn-line tolerance).
pub(crate) fn parse_flat_json(line: &str) -> Option<Vec<(String, JsonVal)>> {
    let mut chars = line.trim().char_indices().peekable();
    let s = line.trim();
    let mut out = Vec::new();
    match chars.next() {
        Some((_, '{')) => {}
        _ => return None,
    }
    loop {
        // Skip whitespace.
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
        match chars.peek() {
            Some((_, '}')) => return Some(out),
            Some((_, '"')) => {}
            _ => return None,
        }
        let key = parse_json_string(s, &mut chars)?;
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
        match chars.next() {
            Some((_, ':')) => {}
            _ => return None,
        }
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
        let val = match chars.peek() {
            Some((_, '"')) => JsonVal::Str(parse_json_string(s, &mut chars)?),
            Some((_, 'n')) => {
                for expect in "null".chars() {
                    if chars.next().map(|(_, c)| c) != Some(expect) {
                        return None;
                    }
                }
                JsonVal::Null
            }
            Some((_, c)) if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some((_, c)) = chars.peek() {
                    if let Some(d) = c.to_digit(10) {
                        n = n.checked_mul(10)?.checked_add(d as u64)?;
                        chars.next();
                    } else {
                        break;
                    }
                }
                JsonVal::Num(n)
            }
            _ => return None,
        };
        out.push((key, val));
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
        match chars.next() {
            Some((_, ',')) => {}
            Some((_, '}')) => return Some(out),
            _ => return None,
        }
    }
}

fn parse_json_string(
    _src: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Option<String> {
    match chars.next() {
        Some((_, '"')) => {}
        _ => return None,
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            (_, '"') => return Some(out),
            (_, '\\') => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            (_, c) => out.push(c),
        }
    }
}

impl SpanRecord {
    /// Serialises to one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(96 + self.name.len() + self.detail.len());
        out.push_str("{\"id\":");
        out.push_str(&self.id.to_string());
        out.push_str(",\"parent\":");
        match self.parent {
            Some(p) => out.push_str(&p.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.encode());
        out.push_str("\",\"stage\":");
        match self.kind {
            SpanKind::Stage(stage) => {
                out.push('"');
                out.push_str(stage.encode());
                out.push('"');
            }
            _ => out.push_str("null"),
        }
        out.push_str(",\"name\":");
        push_json_str(&mut out, &self.name);
        out.push_str(",\"start_us\":");
        out.push_str(&self.start_us.to_string());
        out.push_str(",\"dur_us\":");
        out.push_str(&self.duration_us.to_string());
        out.push_str(",\"detail\":");
        push_json_str(&mut out, &self.detail);
        out.push('}');
        out
    }

    /// Parses one JSON line produced by [`SpanRecord::encode`]. Returns
    /// `None` on malformed input (e.g. a torn final line after a crash).
    pub fn decode(line: &str) -> Option<SpanRecord> {
        let fields = parse_flat_json(line)?;
        let mut id = None;
        let mut parent = None;
        let mut kind = None;
        let mut stage = None;
        let mut name = None;
        let mut start_us = None;
        let mut duration_us = None;
        let mut detail = String::new();
        for (key, val) in fields {
            match (key.as_str(), val) {
                ("id", JsonVal::Num(n)) => id = Some(n),
                ("parent", JsonVal::Num(n)) => parent = Some(Some(n)),
                ("parent", JsonVal::Null) => parent = Some(None),
                ("kind", JsonVal::Str(s)) => kind = Some(s),
                ("stage", JsonVal::Str(s)) => stage = Stage::decode(&s),
                ("stage", JsonVal::Null) => {}
                ("name", JsonVal::Str(s)) => name = Some(s),
                ("start_us", JsonVal::Num(n)) => start_us = Some(n),
                ("dur_us", JsonVal::Num(n)) => duration_us = Some(n),
                ("detail", JsonVal::Str(s)) => detail = s,
                _ => return None,
            }
        }
        let kind = match kind?.as_str() {
            "campaign" => SpanKind::Campaign,
            "experiment" => SpanKind::Experiment,
            "stage" => SpanKind::Stage(stage?),
            "event" => SpanKind::Event,
            _ => return None,
        };
        Some(SpanRecord {
            id: id?,
            parent: parent?,
            kind,
            name: name?,
            start_us: start_us?,
            duration_us: duration_us?,
            detail,
        })
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Receives completed spans. Implementations must be cheap and internally
/// synchronised: parallel campaign workers record concurrently.
pub trait TraceSink: Send + Sync {
    /// Delivers one completed span. Returns `false` if the record was
    /// dropped (the registry counts drops under [`Metric::TraceDropped`]).
    fn record(&self, span: &SpanRecord) -> bool;
    /// Flushes buffered output to its destination.
    fn flush(&self);
    /// Spans currently buffered in memory (used for the flight dump).
    /// Streaming sinks return an empty vec.
    fn buffered(&self) -> Vec<SpanRecord> {
        Vec::new()
    }
}

/// Bounded in-memory ring of the most recent spans — the flight recorder.
pub struct RingSink {
    capacity: usize,
    ring: Mutex<VecDeque<SpanRecord>>,
}

impl RingSink {
    /// Creates a ring keeping at most `capacity` spans (oldest evicted).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }
}

impl TraceSink for RingSink {
    fn record(&self, span: &SpanRecord) -> bool {
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(span.clone());
        true
    }

    fn flush(&self) {}

    fn buffered(&self) -> Vec<SpanRecord> {
        self.ring.lock().iter().cloned().collect()
    }
}

/// Streams spans to a JSONL file, one record per line.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (or truncates) `path` and streams spans into it.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }

    /// Opens `path` for append so a later phase (e.g. `goofi report
    /// --trace`) can extend a campaign's trace in place.
    pub fn append(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, span: &SpanRecord) -> bool {
        let mut w = self.writer.lock();
        writeln!(w, "{}", span.encode()).is_ok()
    }

    fn flush(&self) {
        let mut w = self.writer.lock();
        let _ = w.flush();
    }
}

// ---------------------------------------------------------------------------
// Histograms and the metrics registry
// ---------------------------------------------------------------------------

/// Lock-free log₂-bucketed latency histogram over microsecond durations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_us: AtomicU64,
}

/// Bucket index for a duration: 0 for 0µs, else the bit length of the
/// value, clamped to the last bucket.
fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound (µs) of bucket `i`.
fn bucket_upper_us(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one duration.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`Histogram`]; merge is elementwise, so it is
/// associative and commutative — shard histograms can be combined in any
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per log₂ bucket (length [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Sum of all recorded durations, µs.
    pub sum_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            sum_us: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Records one duration into the snapshot (used when rebuilding
    /// histograms from a JSONL trace).
    pub fn record(&mut self, us: u64) {
        if self.buckets.len() != HISTOGRAM_BUCKETS {
            self.buckets.resize(HISTOGRAM_BUCKETS, 0);
        }
        self.buckets[bucket_index(us)] += 1;
        self.sum_us = self.sum_us.saturating_add(us);
    }

    /// Total recorded durations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean duration in µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count()).unwrap_or(0)
    }

    /// Upper bound (µs) of the bucket containing quantile `q` (0.0..=1.0).
    pub fn quantile_upper_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_upper_us(i);
            }
        }
        bucket_upper_us(HISTOGRAM_BUCKETS - 1)
    }

    /// Elementwise sum of two snapshots.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for i in 0..HISTOGRAM_BUCKETS {
            out.buckets[i] = self.buckets.get(i).copied().unwrap_or(0)
                + other.buckets.get(i).copied().unwrap_or(0);
        }
        out.sum_us = self.sum_us.saturating_add(other.sum_us);
        out
    }
}

/// Atomic counters plus per-stage latency histograms. Shared by all
/// campaign workers through the [`Telemetry`] handle and by the
/// `ProgressMonitor` that carries it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    stages: [Histogram; Stage::ALL.len()],
    counters: [AtomicU64; Metric::ALL.len()],
}

impl MetricsRegistry {
    /// Records one stage duration.
    pub fn record_stage(&self, stage: Stage, us: u64) {
        self.stages[stage.index()].record(us);
    }

    /// Adds `n` to a counter.
    pub fn add(&self, metric: Metric, n: u64) {
        self.counters[metric.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of one counter.
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric.index()].load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        for m in Metric::ALL {
            counters.insert(m.encode().to_string(), self.counter(m));
        }
        let mut stages = BTreeMap::new();
        for s in Stage::ALL {
            stages.insert(s.encode().to_string(), self.stages[s.index()].snapshot());
        }
        MetricsSnapshot { counters, stages }
    }
}

/// Immutable copy of a [`MetricsRegistry`], keyed by the stable encoded
/// names so it survives serialisation and cross-version comparison.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by [`Metric::encode`] name.
    pub counters: BTreeMap<String, u64>,
    /// Stage histograms by [`Stage::encode`] name.
    pub stages: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Stage histogram by name.
    pub fn stage(&self, stage: Stage) -> HistogramSnapshot {
        self.stages.get(stage.encode()).cloned().unwrap_or_default()
    }

    /// Merges two snapshots: counters sum, histograms merge elementwise.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (k, v) in &other.counters {
            *out.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.stages {
            let merged = match out.stages.get(k) {
                Some(mine) => mine.merge(h),
                None => h.clone(),
            };
            out.stages.insert(k.clone(), merged);
        }
        out
    }

    /// Rebuilds per-stage histograms from a JSONL trace (the text of a file
    /// written by a [`JsonlSink`] or a flight dump). Malformed lines — e.g.
    /// a torn tail after a crash — are skipped, matching the journal's
    /// tolerance. Counters are left empty: traces carry timings, the
    /// journal carries outcomes.
    pub fn from_trace(text: &str) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if let Some(rec) = SpanRecord::decode(line) {
                if let SpanKind::Stage(stage) = rec.kind {
                    out.stages
                        .entry(stage.encode().to_string())
                        .or_default()
                        .record(rec.duration_us);
                }
            }
        }
        out
    }

    /// Renders the per-stage timing table shown by `goofi report
    /// --timings` and the CLI `--metrics` summary. One row per stage, in
    /// workflow order, including empty stages so the shape is stable. The
    /// name column is as wide as the longest stage name.
    pub fn render_timings(&self) -> String {
        let w = Stage::ALL
            .iter()
            .map(|s| s.encode().len())
            .max()
            .unwrap_or(0);
        let mut out = format!(
            "{:<w$} {:>8} {:>14} {:>10} {:>10} {:>10}\n",
            "stage", "spans", "total_us", "mean_us", "p50<=us", "p99<=us"
        );
        for s in Stage::ALL {
            let h = self.stage(s);
            out.push_str(&format!(
                "{:<w$} {:>8} {:>14} {:>10} {:>10} {:>10}\n",
                s.encode(),
                h.count(),
                h.sum_us,
                h.mean_us(),
                h.quantile_upper_us(0.50),
                h.quantile_upper_us(0.99),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The Telemetry handle and span guards
// ---------------------------------------------------------------------------

struct TelemetryInner {
    epoch: Instant,
    next_id: AtomicU64,
    /// Id of the currently open campaign span (0 when none) — lets worker
    /// threads parent their experiment spans without plumbing an id through
    /// every signature.
    campaign_span: AtomicU64,
    sinks: Vec<Arc<dyn TraceSink>>,
    metrics: Arc<MetricsRegistry>,
}

impl TelemetryInner {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn emit(&self, record: &SpanRecord) {
        for sink in &self.sinks {
            if !sink.record(record) {
                self.metrics.add(Metric::TraceDropped, 1);
            }
        }
    }
}

/// Cloneable handle to a campaign's telemetry. The default handle is
/// **disabled**: every call is a single `Option` branch — no clock reads,
/// no allocation, no locking — so instrumented code paths cost nothing in
/// ordinary runs.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "Telemetry(disabled)"),
            Some(i) => write!(f, "Telemetry(enabled, {} sinks)", i.sinks.len()),
        }
    }
}

impl Telemetry {
    /// The no-op handle (same as `Telemetry::default()`).
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Metrics-only telemetry: counters and histograms, no trace sinks.
    pub fn enabled() -> Self {
        Telemetry::with_sinks(Vec::new())
    }

    /// Telemetry with the given trace sinks (metrics always included).
    pub fn with_sinks(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                campaign_span: AtomicU64::new(0),
                sinks,
                metrics: Arc::default(),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A snapshot of the metrics registry, or `None` when disabled.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.metrics.snapshot())
    }

    /// The registry itself, shared with the caller, or `None` when
    /// disabled.
    pub(crate) fn registry(&self) -> Option<Arc<MetricsRegistry>> {
        self.inner.as_ref().map(|i| i.metrics.clone())
    }

    /// Adds `n` to a counter (no-op when disabled).
    pub fn count(&self, metric: Metric, n: u64) {
        if let Some(i) = &self.inner {
            i.metrics.add(metric, n);
        }
    }

    /// Records a stage duration directly (no span emitted).
    pub fn record_stage(&self, stage: Stage, us: u64) {
        if let Some(i) = &self.inner {
            i.metrics.record_stage(stage, us);
        }
    }

    fn open(&self, kind: SpanKind, parent: u64, name: &str, detail: &str) -> Span {
        match &self.inner {
            None => Span::disabled(),
            Some(inner) => {
                let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
                let parent = if parent != 0 {
                    parent
                } else {
                    inner.campaign_span.load(Ordering::Relaxed)
                };
                Span {
                    tel: Some(inner.clone()),
                    id,
                    parent,
                    kind,
                    name: name.to_string(),
                    detail: detail.to_string(),
                    start_us: inner.now_us(),
                }
            }
        }
    }

    /// Opens the campaign root span. Stage and experiment spans opened
    /// while it lives parent to it by default.
    pub fn campaign_span(&self, name: &str) -> Span {
        let span = self.open(SpanKind::Campaign, 0, name, "");
        if let Some(inner) = &self.inner {
            inner.campaign_span.store(span.id, Ordering::Relaxed);
        }
        span
    }

    /// Opens an experiment span, parented to the current campaign span.
    /// The name is built lazily, so hot call sites skip its allocation
    /// entirely when disabled.
    pub fn experiment_span_with(&self, name: impl FnOnce() -> String) -> Span {
        if self.inner.is_some() {
            self.open(SpanKind::Experiment, 0, &name(), "")
        } else {
            Span::disabled()
        }
    }

    /// Opens a stage span under `parent` (a span id; 0 means "the current
    /// campaign span").
    pub fn stage_span(&self, stage: Stage, parent: u64) -> Span {
        self.open(SpanKind::Stage(stage), parent, stage.encode(), "")
    }

    /// Like [`Telemetry::stage_span`] with a free-form detail string.
    pub fn stage_span_detailed(&self, stage: Stage, parent: u64, detail: &str) -> Span {
        self.open(SpanKind::Stage(stage), parent, stage.encode(), detail)
    }

    /// Emits a point-in-time event (zero duration), parented to the
    /// current campaign span.
    pub fn event(&self, name: &str, detail: &str) {
        if let Some(inner) = &self.inner {
            let record = SpanRecord {
                id: inner.next_id.fetch_add(1, Ordering::Relaxed),
                parent: match inner.campaign_span.load(Ordering::Relaxed) {
                    0 => None,
                    p => Some(p),
                },
                kind: SpanKind::Event,
                name: name.to_string(),
                start_us: inner.now_us(),
                duration_us: 0,
                detail: detail.to_string(),
            };
            inner.emit(&record);
        }
    }

    /// Times a closure as a stage span parented to the campaign span.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let _span = self.stage_span(stage, 0);
        f()
    }

    /// Flushes every sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for sink in &inner.sinks {
                sink.flush();
            }
        }
    }

    /// Dumps the union of all sinks' buffered spans (the flight recorder
    /// contents) as JSONL to `path`. Returns the number of spans written,
    /// or 0 (and writes nothing) when disabled or nothing is buffered.
    pub fn dump_flight(&self, path: &Path) -> std::io::Result<usize> {
        let Some(inner) = &self.inner else {
            return Ok(0);
        };
        let mut spans: Vec<SpanRecord> = Vec::new();
        for sink in &inner.sinks {
            spans.extend(sink.buffered());
        }
        if spans.is_empty() {
            return Ok(0);
        }
        spans.sort_by_key(|s| s.id);
        spans.dedup_by_key(|s| s.id);
        let mut w = BufWriter::new(File::create(path)?);
        for s in &spans {
            writeln!(w, "{}", s.encode())?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}

/// RAII span guard: created by [`Telemetry`], records a [`SpanRecord`] (and
/// for stages, a histogram sample) when dropped. A disabled guard is inert.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct Span {
    tel: Option<Arc<TelemetryInner>>,
    id: u64,
    parent: u64,
    kind: SpanKind,
    name: String,
    detail: String,
    start_us: u64,
}

impl Span {
    fn disabled() -> Span {
        Span {
            tel: None,
            id: 0,
            parent: 0,
            kind: SpanKind::Event,
            name: String::new(),
            detail: String::new(),
            start_us: 0,
        }
    }

    /// This span's id (0 when telemetry is disabled), for parenting
    /// child stage spans.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Replaces the span's detail string (e.g. recording an outcome
    /// discovered mid-span).
    pub fn set_detail(&mut self, detail: &str) {
        if self.tel.is_some() {
            self.detail = detail.to_string();
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.tel.take() else {
            return;
        };
        let end_us = inner.now_us();
        let duration_us = end_us.saturating_sub(self.start_us);
        if let SpanKind::Stage(stage) = self.kind {
            inner.metrics.record_stage(stage, duration_us);
        }
        if self.kind == SpanKind::Campaign {
            // Only clear the current-campaign pointer if it is still us.
            let _ = inner.campaign_span.compare_exchange(
                self.id,
                0,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        let record = SpanRecord {
            id: self.id,
            parent: match self.parent {
                0 => None,
                p => Some(p),
            },
            kind: self.kind,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            duration_us,
            detail: std::mem::take(&mut self.detail),
        };
        inner.emit(&record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_and_metric_roundtrip() {
        for s in Stage::ALL {
            assert_eq!(Stage::decode(s.encode()), Some(s));
        }
        for m in Metric::ALL {
            assert_eq!(Metric::decode(m.encode()), Some(m));
        }
        assert_eq!(Stage::decode("bogus"), None);
        assert_eq!(Metric::decode("bogus"), None);
    }

    #[test]
    fn span_record_json_roundtrip() {
        let rec = SpanRecord {
            id: 7,
            parent: Some(3),
            kind: SpanKind::Stage(Stage::Inject),
            name: "c1/exp00002 \"quoted\"\npath\\x".into(),
            start_us: 123,
            duration_us: 456,
            detail: "tab\there".into(),
        };
        assert_eq!(SpanRecord::decode(&rec.encode()), Some(rec));
        let root = SpanRecord {
            id: 1,
            parent: None,
            kind: SpanKind::Campaign,
            name: "c1".into(),
            start_us: 0,
            duration_us: 9,
            detail: String::new(),
        };
        assert_eq!(SpanRecord::decode(&root.encode()), Some(root));
    }

    #[test]
    fn torn_or_malformed_lines_decode_to_none() {
        let rec = SpanRecord {
            id: 1,
            parent: None,
            kind: SpanKind::Event,
            name: "e".into(),
            start_us: 5,
            duration_us: 0,
            detail: String::new(),
        };
        let line = rec.encode();
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert_eq!(SpanRecord::decode(&line[..cut]), None, "cut at {cut}");
        }
        assert_eq!(SpanRecord::decode("not json"), None);
        assert_eq!(SpanRecord::decode("{\"id\":1}"), None);
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_us(0), 0);
        assert_eq!(bucket_upper_us(10), 1023);
    }

    #[test]
    fn histogram_stats() {
        let h = Histogram::default();
        for us in [0, 1, 100, 100, 5000] {
            h.record(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum_us, 5201);
        assert_eq!(s.mean_us(), 1040);
        // p50 falls in the 100µs bucket: [64,128) → upper bound 127.
        assert_eq!(s.quantile_upper_us(0.5), 127);
        assert_eq!(s.quantile_upper_us(1.0), 8191);
        assert_eq!(HistogramSnapshot::default().quantile_upper_us(0.5), 0);
    }

    #[test]
    fn snapshot_merge_matches_combined_recording() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        let mut both = HistogramSnapshot::default();
        for us in [3, 70, 900] {
            a.record(us);
            both.record(us);
        }
        for us in [0, 70, 1_000_000] {
            b.record(us);
            both.record(us);
        }
        assert_eq!(a.merge(&b), both);
        assert_eq!(b.merge(&a), both);
    }

    #[test]
    fn disabled_telemetry_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert_eq!(tel.metrics(), None);
        let span = tel.campaign_span("c");
        assert_eq!(span.id(), 0);
        drop(span);
        tel.event("x", "");
        tel.count(Metric::Completed, 3);
        assert_eq!(tel.time(Stage::Run, || 42), 42);
        assert_eq!(tel.dump_flight(Path::new("/nonexistent/x")).unwrap(), 0);
    }

    #[test]
    fn span_hierarchy_parents_to_campaign() {
        let ring = Arc::new(RingSink::new(16));
        let tel = Telemetry::with_sinks(vec![ring.clone()]);
        {
            let campaign = tel.campaign_span("c1");
            let exp = tel.experiment_span_with(|| "c1/exp00000".into());
            assert_ne!(exp.id(), 0);
            let stage = tel.stage_span(Stage::Load, exp.id());
            drop(stage);
            drop(exp);
            tel.time(Stage::DbWrite, || ());
            drop(campaign);
        }
        let spans = ring.buffered();
        assert_eq!(spans.len(), 4);
        let campaign = spans.iter().find(|s| s.kind == SpanKind::Campaign).unwrap();
        let exp = spans
            .iter()
            .find(|s| s.kind == SpanKind::Experiment)
            .unwrap();
        let load = spans
            .iter()
            .find(|s| s.kind == SpanKind::Stage(Stage::Load))
            .unwrap();
        let db = spans
            .iter()
            .find(|s| s.kind == SpanKind::Stage(Stage::DbWrite))
            .unwrap();
        assert_eq!(campaign.parent, None);
        assert_eq!(exp.parent, Some(campaign.id));
        assert_eq!(load.parent, Some(exp.id));
        assert_eq!(db.parent, Some(campaign.id));
        // After the campaign span closes, new spans are roots again.
        drop(tel.experiment_span_with(|| "orphan".into()));
        assert_eq!(ring.buffered().last().unwrap().parent, None);
    }

    #[test]
    fn stage_spans_feed_histograms_and_counters_accumulate() {
        let tel = Telemetry::enabled();
        tel.time(Stage::Inject, || ());
        tel.time(Stage::Inject, || ());
        tel.record_stage(Stage::Scan, 250);
        tel.count(Metric::Retried, 2);
        tel.count(Metric::Retried, 1);
        let m = tel.metrics().unwrap();
        assert_eq!(m.stage(Stage::Inject).count(), 2);
        assert_eq!(m.stage(Stage::Scan).count(), 1);
        assert_eq!(m.stage(Stage::Scan).sum_us, 250);
        assert_eq!(m.counter("retried"), 3);
        assert_eq!(m.counter("completed"), 0);
    }

    #[test]
    fn ring_sink_evicts_oldest() {
        let ring = RingSink::new(3);
        let tel = Telemetry::with_sinks(vec![]);
        let _ = tel; // capacity test drives the sink directly
        for i in 1..=5u64 {
            let rec = SpanRecord {
                id: i,
                parent: None,
                kind: SpanKind::Event,
                name: format!("e{i}"),
                start_us: i,
                duration_us: 0,
                detail: String::new(),
            };
            ring.record(&rec);
        }
        let ids: Vec<u64> = ring.buffered().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn from_trace_rebuilds_stage_histograms() {
        let ring = Arc::new(RingSink::new(64));
        let tel = Telemetry::with_sinks(vec![ring.clone()]);
        {
            let _c = tel.campaign_span("c");
            tel.time(Stage::Load, || ());
            tel.time(Stage::Run, || ());
            tel.time(Stage::Run, || ());
            tel.event("note", "not a stage");
        }
        let text: String = ring.buffered().iter().map(|s| s.encode() + "\n").collect();
        let rebuilt = MetricsSnapshot::from_trace(&text);
        let live = tel.metrics().unwrap();
        for s in Stage::ALL {
            assert_eq!(
                rebuilt.stage(s).count(),
                live.stage(s).count(),
                "stage {}",
                s.encode()
            );
            assert_eq!(rebuilt.stage(s), live.stage(s), "stage {}", s.encode());
        }
        // Torn tail and junk lines are skipped, not fatal.
        let torn = format!("{}{}", text, "{\"id\":99,\"par");
        assert_eq!(
            MetricsSnapshot::from_trace(&torn).stage(Stage::Run).count(),
            2
        );
    }

    #[test]
    fn metrics_snapshot_merge_sums_counters_and_histograms() {
        let a_reg = Telemetry::enabled();
        a_reg.count(Metric::Completed, 2);
        a_reg.record_stage(Stage::Run, 10);
        let b_reg = Telemetry::enabled();
        b_reg.count(Metric::Completed, 3);
        b_reg.count(Metric::Hangs, 1);
        b_reg.record_stage(Stage::Run, 2000);
        let a = a_reg.metrics().unwrap();
        let b = b_reg.metrics().unwrap();
        let m = a.merge(&b);
        assert_eq!(m.counter("completed"), 5);
        assert_eq!(m.counter("hangs"), 1);
        assert_eq!(m.stage(Stage::Run).count(), 2);
        assert_eq!(m.stage(Stage::Run).sum_us, 2010);
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn render_timings_has_one_row_per_stage() {
        let tel = Telemetry::enabled();
        tel.record_stage(Stage::Load, 100);
        let table = tel.metrics().unwrap().render_timings();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 1 + Stage::ALL.len());
        assert!(lines[0].starts_with("stage"));
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert!(
                lines[1 + i].starts_with(s.encode()),
                "row {i}: {}",
                lines[1 + i]
            );
        }
    }

    #[test]
    fn timing_rows_end_their_numeric_columns_under_the_header() {
        // Where each whitespace-separated field of a line ends.
        fn field_ends(line: &str) -> Vec<usize> {
            let b = line.as_bytes();
            (0..b.len())
                .filter(|&i| b[i] != b' ' && b.get(i + 1).is_none_or(|&n| n == b' '))
                .map(|i| i + 1)
                .collect()
        }
        let tel = Telemetry::enabled();
        for (us, s) in (1..).map(|n| n * 997).zip(Stage::ALL) {
            tel.record_stage(s, us);
        }
        let table = tel.metrics().unwrap().render_timings();
        let mut lines = table.lines();
        let header = field_ends(lines.next().unwrap());
        for row in lines {
            // The first field is the left-aligned stage name.
            assert_eq!(field_ends(row)[1..], header[1..], "{row}");
        }
    }

    #[test]
    fn jsonl_sink_and_flight_dump_roundtrip() {
        let dir = std::env::temp_dir().join(format!("goofi-tel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let flight = dir.join("trace.flight");
        {
            let jsonl = Arc::new(JsonlSink::create(&trace).unwrap());
            let ring = Arc::new(RingSink::new(8));
            let tel = Telemetry::with_sinks(vec![jsonl, ring]);
            let _c = tel.campaign_span("c");
            tel.time(Stage::Scan, || ());
            tel.event("boom", "injected failure");
            drop(_c);
            tel.flush();
            let n = tel.dump_flight(&flight).unwrap();
            assert_eq!(n, 3);
        }
        let text = std::fs::read_to_string(&trace).unwrap();
        let decoded: Vec<SpanRecord> = text
            .lines()
            .map(|l| SpanRecord::decode(l).unwrap())
            .collect();
        assert_eq!(decoded.len(), 3);
        let flight_text = std::fs::read_to_string(&flight).unwrap();
        let flight_decoded: Vec<SpanRecord> = flight_text
            .lines()
            .map(|l| SpanRecord::decode(l).unwrap())
            .collect();
        assert_eq!(flight_decoded.len(), 3);
        // Appending extends the same trace.
        {
            let jsonl = Arc::new(JsonlSink::append(&trace).unwrap());
            let tel = Telemetry::with_sinks(vec![jsonl]);
            tel.time(Stage::Classify, || ());
            tel.flush();
        }
        let text2 = std::fs::read_to_string(&trace).unwrap();
        assert_eq!(text2.lines().count(), 4);
        assert_eq!(
            MetricsSnapshot::from_trace(&text2)
                .stage(Stage::Classify)
                .count(),
            1
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
