//! Logging modes, state snapshots and experiment records.
//!
//! GOOFI "can be operated in either normal or detail mode. In normal mode,
//! the system state is logged only when the termination condition is
//! fulfilled. In detail mode the system state is logged as frequently as the
//! target system allows, typically after the execution of each machine
//! instruction" (§3.3). The logged state "typically includes the contents of
//! all the locations in the target system that are observable … as well as
//! the workload input and output values, together with information about
//! when and where any faults were injected".

use crate::target::DetectionInfo;
use goofidb::codec::escape_into;
use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// Normal (end-state only) or detail (per-instruction trace) logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LoggingMode {
    /// Log the system state only at termination.
    #[default]
    Normal,
    /// Additionally log the state vector after every instruction.
    Detail,
}

impl LoggingMode {
    /// Database string form.
    pub fn encode(self) -> &'static str {
        match self {
            LoggingMode::Normal => "normal",
            LoggingMode::Detail => "detail",
        }
    }

    /// Parses [`LoggingMode::encode`] output.
    pub fn decode(s: &str) -> Option<LoggingMode> {
        match s {
            "normal" => Some(LoggingMode::Normal),
            "detail" => Some(LoggingMode::Detail),
            _ => None,
        }
    }
}

/// Why an experiment terminated.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TerminationCause {
    /// The workload ran to completion.
    WorkloadEnd,
    /// An error detection mechanism fired.
    Detected(DetectionInfo),
    /// The time-out value was reached (watchdog or instruction budget).
    Timeout,
    /// The configured maximum number of loop iterations completed.
    IterationLimit,
    /// A [`Timeout`](TerminationCause::Timeout) that the health-probe suite
    /// confirmed was a wedged target, not a slow workload: the target
    /// failed its probes after the run and had to climb the recovery
    /// ladder ([`Supervisor::recover`](crate::supervisor::Supervisor::recover)). Such records
    /// are quarantined and superseded by a `parentExperiment`-linked re-run
    /// after recovery.
    TargetHang,
}

impl TerminationCause {
    /// Database string form.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`TerminationCause::encode`]'s text to `out`.
    pub(crate) fn encode_into(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = match self {
            TerminationCause::WorkloadEnd => out.write_str("end"),
            TerminationCause::Detected(d) => write!(out, "detected:{}:{}", d.mechanism, d.code),
            TerminationCause::Timeout => out.write_str("timeout"),
            TerminationCause::IterationLimit => out.write_str("iterations"),
            TerminationCause::TargetHang => out.write_str("hang"),
        };
    }

    /// Parses [`TerminationCause::encode`] output.
    pub fn decode(s: &str) -> Option<TerminationCause> {
        match s {
            "end" => return Some(TerminationCause::WorkloadEnd),
            "timeout" => return Some(TerminationCause::Timeout),
            "iterations" => return Some(TerminationCause::IterationLimit),
            "hang" => return Some(TerminationCause::TargetHang),
            _ => {}
        }
        let rest = s.strip_prefix("detected:")?;
        let (mechanism, code) = rest.rsplit_once(':')?;
        Some(TerminationCause::Detected(DetectionInfo {
            mechanism: mechanism.to_string(),
            code: code.parse().ok()?,
        }))
    }
}

impl fmt::Display for TerminationCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TerminationCause::WorkloadEnd => f.write_str("workload end"),
            TerminationCause::Detected(d) => write!(f, "detected by {}", d.mechanism),
            TerminationCause::Timeout => f.write_str("time-out"),
            TerminationCause::IterationLimit => f.write_str("iteration limit"),
            TerminationCause::TargetHang => f.write_str("target hang"),
        }
    }
}

/// One logged system state: the `statevector` attribute of the
/// `LoggedSystemState` table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StateSnapshot {
    /// Captured scan chains (chain name → bit string), restricted to the
    /// observe list of the campaign.
    pub scan: BTreeMap<String, String>,
    /// FNV-1a digest of all of target memory (latent-error comparison).
    pub memory_digest: u64,
    /// The workload's output values (designated memory region or ports).
    pub outputs: Vec<u32>,
    /// Completed loop iterations.
    pub iterations: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
}

impl StateSnapshot {
    /// Serialises to the text form stored in the database.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out, false);
        out
    }

    /// Appends [`StateSnapshot::encode`]'s text to `out`; with `escaped`,
    /// that text as [`escape_into`] escapes it for a journal field,
    /// written straight into `out`.
    pub(crate) fn encode_into(&self, out: &mut String, escaped: bool) {
        let (text, newline): (fn(&mut String, &str), &str) = match escaped {
            true => (escape_into, "\\n"),
            false => (String::push_str, "\n"),
        };
        for (chain, bits) in &self.scan {
            out.push_str("chain ");
            text(out, chain);
            out.push(' ');
            text(out, bits);
            out.push_str(newline);
        }
        // Writing into a `String` cannot fail.
        let _ = write!(out, "memdigest {}{newline}outputs ", self.memory_digest);
        for (i, value) in self.outputs.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(out, "{comma}{value}");
        }
        let _ = write!(
            out,
            "{newline}counters {} {} {}{newline}",
            self.iterations, self.instructions, self.cycles
        );
    }

    /// Parses [`StateSnapshot::encode`] output.
    pub fn decode(s: &str) -> Option<StateSnapshot> {
        let mut snap = StateSnapshot::default();
        for line in s.lines() {
            let mut parts = line.splitn(2, ' ');
            let key = parts.next()?;
            let rest = parts.next().unwrap_or("");
            match key {
                "chain" => {
                    let (name, bits) = rest.split_once(' ')?;
                    snap.scan.insert(name.to_string(), bits.to_string());
                }
                "memdigest" => snap.memory_digest = rest.parse().ok()?,
                "outputs" => {
                    snap.outputs = rest
                        .split(',')
                        .filter(|p| !p.is_empty())
                        .map(str::parse)
                        .collect::<std::result::Result<_, _>>()
                        .ok()?;
                }
                "counters" => {
                    let mut it = rest.split(' ');
                    snap.iterations = it.next()?.parse().ok()?;
                    snap.instructions = it.next()?.parse().ok()?;
                    snap.cycles = it.next()?.parse().ok()?;
                }
                _ => return None,
            }
        }
        Some(snap)
    }

    /// Whether two snapshots describe the same architectural state
    /// (used to separate latent from overwritten errors).
    pub fn same_state(&self, other: &StateSnapshot) -> bool {
        self.scan == other.scan && self.memory_digest == other.memory_digest
    }
}

const DIGEST_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const DIGEST_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Block size of the memory digest, in words. Matches the page size of
/// targets with copy-on-write paged memory, so per-block digests can be
/// memoized page by page across snapshots (see
/// [`crate::TargetAccess::memory_digest`]).
pub const DIGEST_BLOCK_WORDS: usize = 1024;

/// The memory digest function: the image is split into
/// [`DIGEST_BLOCK_WORDS`]-word blocks, each hashed independently by
/// [`digest_block`], and the block digests are chained with the length.
///
/// A single byte-wise FNV chain serialises on its multiply (one
/// multiply's latency per byte), which made digesting a full memory image
/// the most expensive part of every experiment readout. The block
/// structure buys two things: within a block, eight interleaved lanes let
/// the CPU overlap the multiplies, and across blocks a paged target can
/// reuse the digest of any block whose page is still shared with a
/// snapshot. The chain fold is position-dependent, so word order and
/// length still change the digest. The value is an internal fingerprint
/// (latent-error comparison, golden cache keys) — nothing outside this
/// repository depends on the exact function.
pub fn digest_words(words: &[u32]) -> u64 {
    let mut hash = digest_seed(words.len());
    for block in words.chunks(DIGEST_BLOCK_WORDS) {
        hash = digest_fold(hash, digest_block(block));
    }
    hash
}

/// Initial chain value of [`digest_words`] for an image of `len` words.
/// Paged targets fold memoized [`digest_block`] values onto this seed with
/// [`digest_fold`] to reproduce `digest_words` without materialising the
/// flat image.
pub fn digest_seed(len: usize) -> u64 {
    DIGEST_OFFSET ^ len as u64
}

/// One chain step of [`digest_words`]: folds the next block's
/// [`digest_block`] value into the running hash.
pub fn digest_fold(hash: u64, block_digest: u64) -> u64 {
    (hash ^ block_digest).wrapping_mul(DIGEST_PRIME)
}

/// Digest of one block of [`digest_words`]'s chain: eight interleaved
/// FNV-1a-style streams over word lanes, folded into one value with the
/// block length. Exposed so paged targets can memoize per-page digests;
/// `digest_words` is exactly the fold of this over consecutive
/// [`DIGEST_BLOCK_WORDS`]-word chunks.
pub fn digest_block(words: &[u32]) -> u64 {
    const LANES: usize = 8;
    let mut lanes = [DIGEST_OFFSET; LANES];
    let mut chunks = words.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, w) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane ^ u64::from(*w)).wrapping_mul(DIGEST_PRIME);
        }
    }
    for (lane, w) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = (*lane ^ u64::from(*w)).wrapping_mul(DIGEST_PRIME);
    }
    let mut hash = DIGEST_OFFSET ^ words.len() as u64;
    for lane in lanes {
        hash = (hash ^ lane).wrapping_mul(DIGEST_PRIME);
    }
    hash
}

/// Whether a logged experiment's results can be trusted.
///
/// Records produced while the target link was misbehaving are *quarantined*:
/// kept in the database for audit, marked [`Validity::Invalid`], excluded
/// from analysis, and re-run as fresh `parentExperiment`-linked experiments
/// (see the golden-run revalidation in [`crate::algorithms`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Validity {
    /// The record is trusted (the default).
    #[default]
    Valid,
    /// The record was produced under suspected link faults and has been
    /// quarantined; a linked re-run supersedes it.
    Invalid,
}

impl Validity {
    /// Database string form.
    pub fn encode(self) -> &'static str {
        match self {
            Validity::Valid => "valid",
            Validity::Invalid => "invalid",
        }
    }

    /// Parses [`Validity::encode`] output.
    pub fn decode(s: &str) -> Option<Validity> {
        match s {
            "valid" => Some(Validity::Valid),
            "invalid" => Some(Validity::Invalid),
            _ => None,
        }
    }
}

/// The complete log of one fault-injection experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Unique experiment name (e.g. `"c1/exp0042"`).
    pub name: String,
    /// Parent experiment when this is a detail-mode re-run (paper §2.3's
    /// `parentExperiment` attribute); empty otherwise.
    pub parent: Option<String>,
    /// Campaign this experiment belongs to.
    pub campaign: String,
    /// The injected fault; `None` for the reference (fault-free) run.
    pub fault: Option<crate::fault::FaultSpec>,
    /// Why the run terminated.
    pub termination: TerminationCause,
    /// Final system state.
    pub state: StateSnapshot,
    /// Detail-mode per-instruction trace (empty in normal mode).
    pub trace: Vec<StateSnapshot>,
    /// Whether the record survived golden-run revalidation (quarantined
    /// records are kept but excluded from analysis).
    pub validity: Validity,
}

impl ExperimentRecord {
    /// Name used for the reference run of a campaign.
    pub const REFERENCE_NAME: &'static str = "reference";

    /// Whether this record is the campaign's reference run.
    pub fn is_reference(&self) -> bool {
        self.fault.is_none()
    }

    /// The records that document a lost experiment, one whose run no
    /// longer exists: an invalid `TargetHang` record named `name` and its
    /// invalid `parentExperiment`-linked `…/rerun1` child (the paper's
    /// §2.3 re-run hook), both with an empty state and no trace. A
    /// poisoned service shard writes them for every experiment it still
    /// owed, and `fsck --repair` for every row a garbled database lost.
    pub fn lost_stubs(
        campaign: &str,
        name: &str,
        fault: Option<crate::fault::FaultSpec>,
    ) -> [ExperimentRecord; 2] {
        let stub = |name: String, parent: Option<String>| ExperimentRecord {
            name,
            parent,
            campaign: campaign.to_string(),
            fault: fault.clone(),
            termination: TerminationCause::TargetHang,
            state: StateSnapshot::default(),
            trace: Vec::new(),
            validity: Validity::Invalid,
        };
        [
            stub(name.to_string(), None),
            stub(format!("{name}/rerun1"), Some(name.to_string())),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logging_mode_roundtrip() {
        for m in [LoggingMode::Normal, LoggingMode::Detail] {
            assert_eq!(LoggingMode::decode(m.encode()), Some(m));
        }
        assert_eq!(LoggingMode::decode("x"), None);
    }

    #[test]
    fn termination_roundtrip() {
        for t in [
            TerminationCause::WorkloadEnd,
            TerminationCause::Timeout,
            TerminationCause::IterationLimit,
            TerminationCause::TargetHang,
            TerminationCause::Detected(DetectionInfo {
                mechanism: "parity_icache".into(),
                code: 1,
            }),
        ] {
            assert_eq!(
                TerminationCause::decode(&t.encode()),
                Some(t.clone()),
                "{t}"
            );
        }
        assert_eq!(TerminationCause::decode("nope"), None);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut snap = StateSnapshot {
            memory_digest: 12345,
            outputs: vec![1, 2, 3],
            iterations: 4,
            instructions: 500,
            cycles: 900,
            ..Default::default()
        };
        snap.scan.insert("internal".into(), "0101".into());
        snap.scan.insert("icache".into(), "111".into());
        assert_eq!(StateSnapshot::decode(&snap.encode()), Some(snap.clone()));
    }

    #[test]
    fn empty_outputs_roundtrip() {
        let snap = StateSnapshot::default();
        assert_eq!(StateSnapshot::decode(&snap.encode()), Some(snap));
    }

    #[test]
    fn same_state_ignores_counters() {
        let mut a = StateSnapshot {
            memory_digest: 1,
            cycles: 10,
            ..Default::default()
        };
        let mut b = a.clone();
        b.cycles = 99;
        assert!(a.same_state(&b));
        b.memory_digest = 2;
        assert!(!a.same_state(&b));
        b.memory_digest = 1;
        a.scan.insert("internal".into(), "1".into());
        assert!(!a.same_state(&b));
    }

    #[test]
    fn validity_roundtrip() {
        for v in [Validity::Valid, Validity::Invalid] {
            assert_eq!(Validity::decode(v.encode()), Some(v));
        }
        assert_eq!(Validity::decode("x"), None);
        assert_eq!(Validity::default(), Validity::Valid);
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(digest_words(&[1, 2]), digest_words(&[2, 1]));
        assert_eq!(digest_words(&[1, 2]), digest_words(&[1, 2]));
        assert_ne!(digest_words(&[0]), digest_words(&[]));
    }
}
