//! Crash-safe experiment journal: append-only campaign checkpointing.
//!
//! `goofidb` persistence is a whole-file rewrite — atomic (see
//! [`crate::dbio::save_database`]) but only written when someone asks. A
//! campaign that dies 4 000 experiments into 5 000 would lose everything
//! since the last save. The journal closes that gap: the campaign driver
//! appends one entry per finished experiment, written at once and
//! `fsync`ed in batches of 64 (group commit), so after a crash
//! [`crate::runner::resume_campaign`] can reload exactly the completed
//! set, skip it, and re-run only what is missing or failed. A killed
//! process loses nothing (every entry is already in the page cache); a
//! power cut loses at most the entries since the last sync, never more
//! than 63. [`ExperimentJournal::commit`] syncs the pending entries
//! early: the campaign engine commits at each ordering point (after the
//! reference, after quarantine marks, before blocking on a pause, and in
//! its fan-in).
//!
//! The campaign service ([`crate::service`]) leans on the same property
//! one level up: each shard worker keeps a private journal under
//! [`crate::runner::resume_campaign`] (entries carry *global*
//! campaign indices), so a crashed or lease-revoked worker's replacement
//! replays the journal instead of redoing its work, and the scheduler
//! merges shard journals into the database idempotently via
//! [`crate::dbio::import_journal`].
//!
//! ## Format
//!
//! A journal is a line-oriented text file:
//!
//! ```text
//! #goofi-journal v1
//! C <campaign-name>
//! R <index|-> <name> <parent|-> <fault|-> <termination> <state> <trace|-> <validity> #<fnv>
//! F <index> <attempts> <error> #<fnv>
//! ```
//!
//! Fields are tab-separated and escaped (`\t`, `\n`, `\\`); `R` entries
//! are completed experiment records (`-` in the index column marks the
//! reference run), `F` entries are experiments that failed despite the
//! policy's retries. Every entry line ends with an FNV-1a checksum of its
//! payload. Loading stops at the first torn or corrupt line — precisely
//! the tail a crash mid-append can leave — so a damaged tail never
//! poisons the records before it.

use crate::logging::{ExperimentRecord, StateSnapshot, TerminationCause, Validity};
use crate::policy::ExperimentFailure;
use crate::vfs::{self, Vfs, VfsFile};
use crate::{fault::FaultSpec, GoofiError, Result};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const HEADER: &str = "#goofi-journal v1";

/// Entries appended per `fsync`: the appending thread syncs when this many
/// are pending, so the batch boundaries (and every `FaultFs` crash point)
/// are a pure function of the append sequence.
const SYNC_EVERY: usize = 64;

/// What a journal file says about a partially-run campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalState {
    /// Campaign name recorded in the journal header.
    pub campaign: String,
    /// The reference run, when it completed before the crash.
    pub reference: Option<ExperimentRecord>,
    /// Completed experiment records by campaign index.
    pub completed: BTreeMap<usize, ExperimentRecord>,
    /// Experiments that failed (index → failure), unless a later `R`
    /// entry for the same index superseded the failure.
    pub failed: BTreeMap<usize, ExperimentFailure>,
    /// How many `F` entries each index has accumulated across runs —
    /// superseded or not (quarantined `R` entries count a round too).
    /// Resume derives unique `…/rerun<k>` names from this, so an
    /// experiment that fails on every resume still gets a fresh child name
    /// each time.
    pub failed_rounds: BTreeMap<usize, u32>,
    /// Records quarantined by golden-run revalidation (validity
    /// `invalid`), unless a later valid `R` entry superseded them. Their
    /// indices appear in [`JournalState::failed`] so resume re-runs them;
    /// the records themselves are kept for database import.
    pub quarantined: Vec<ExperimentRecord>,
}

impl JournalState {
    /// Total entries that survived loading.
    pub fn len(&self) -> usize {
        self.completed.len() + self.failed.len() + usize::from(self.reference.is_some())
    }

    /// Folds in one experiment record appended at campaign index `index`,
    /// exactly as [`ExperimentJournal::load`] reads it back.
    pub(crate) fn apply_record(&mut self, index: usize, record: ExperimentRecord) {
        if record.validity == Validity::Invalid {
            // Quarantined: drop any completed record so resume re-runs
            // the experiment; the round keeps the rerun name unique.
            self.completed.remove(&index);
            *self.failed_rounds.entry(index).or_insert(0) += 1;
            self.failed.insert(
                index,
                ExperimentFailure {
                    index,
                    name: record.name.clone(),
                    attempts: 1,
                    error: "quarantined by golden-run revalidation".into(),
                },
            );
            self.quarantined.push(record);
        } else {
            self.failed.remove(&index);
            self.completed.insert(index, record);
        }
    }

    /// Whether nothing was journaled yet.
    pub fn is_empty(&self) -> bool {
        self.reference.is_none() && self.completed.is_empty() && self.failed.is_empty()
    }
}

/// An open, append-only experiment journal.
///
/// Each append is written as one line before returning, so an entry
/// either fully exists or is a recognisable torn tail. Every 64th append
/// also syncs the file; [`ExperimentJournal::commit`] syncs whatever is
/// pending sooner.
pub struct ExperimentJournal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Entries written since the last sync.
    pending: usize,
}

impl std::fmt::Debug for ExperimentJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentJournal")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl ExperimentJournal {
    /// Creates a fresh journal for `campaign`, truncating any existing
    /// file at `path`.
    ///
    /// # Errors
    ///
    /// I/O errors, surfaced as [`GoofiError::Io`].
    pub fn create(path: impl AsRef<Path>, campaign: &str) -> Result<Self> {
        Self::create_with(&vfs::RealFs, path, campaign)
    }

    /// [`ExperimentJournal::create`] over an explicit [`Vfs`] — the seam
    /// the durability torture harness injects faults through.
    ///
    /// # Errors
    ///
    /// I/O errors, surfaced as [`GoofiError::Io`].
    pub fn create_with(vfs: &dyn Vfs, path: impl AsRef<Path>, campaign: &str) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = vfs
            .create(&path)
            .map_err(|e| GoofiError::io("creating", &path, &e))?;
        let header = format!("{HEADER}\nC\t{}\n", escape(campaign));
        file.write_all(header.as_bytes())
            .and_then(|()| file.sync())
            .map_err(|e| GoofiError::io("writing header to", &path, &e))?;
        Ok(ExperimentJournal {
            file,
            path,
            pending: 0,
        })
    }

    /// Opens an existing journal for appending (after [`load`]).
    ///
    /// # Errors
    ///
    /// I/O errors, surfaced as [`GoofiError::Io`].
    ///
    /// [`load`]: ExperimentJournal::load
    pub fn open_append(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_append_with(&vfs::RealFs, path)
    }

    /// [`ExperimentJournal::open_append`] over an explicit [`Vfs`].
    ///
    /// # Errors
    ///
    /// I/O errors, surfaced as [`GoofiError::Io`].
    pub fn open_append_with(vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = vfs
            .open_append(&path)
            .map_err(|e| GoofiError::io("opening", &path, &e))?;
        Ok(ExperimentJournal {
            file,
            path,
            pending: 0,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a completed experiment record. `index` is the experiment's
    /// campaign index; `None` marks the reference run.
    ///
    /// # Errors
    ///
    /// I/O errors, surfaced as [`GoofiError::Io`], a failed batch sync
    /// included.
    pub fn append_record(&mut self, index: Option<usize>, record: &ExperimentRecord) -> Result<()> {
        self.append_line(&encode_record_payload(index, record))
    }

    /// Appends an experiment failure.
    ///
    /// # Errors
    ///
    /// As [`ExperimentJournal::append_record`].
    pub fn append_failure(&mut self, failure: &ExperimentFailure) -> Result<()> {
        let payload = format!(
            "F\t{}\t{}\t{}",
            failure.index,
            failure.attempts,
            escape(&failure.error)
        );
        self.append_line(&payload)
    }

    /// Syncs every entry appended since the last sync; a no-op when none
    /// is pending. A crash after `commit` returns loses none of them.
    ///
    /// # Errors
    ///
    /// I/O errors, surfaced as [`GoofiError::Io`]; the entries stay
    /// pending.
    pub fn commit(&mut self) -> Result<()> {
        if self.pending == 0 {
            return Ok(());
        }
        self.file
            .sync()
            .map_err(|e| GoofiError::io("syncing", &self.path, &e))?;
        self.pending = 0;
        Ok(())
    }

    fn append_line(&mut self, payload: &str) -> Result<()> {
        let line = format!("{payload}\t#{:08x}\n", fnv1a(payload.as_bytes()));
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| GoofiError::io("appending to", &self.path, &e))?;
        self.pending += 1;
        if self.pending >= SYNC_EVERY {
            self.commit()?;
        }
        Ok(())
    }

    /// Loads a journal, tolerating a torn tail: parsing stops at the first
    /// incomplete, checksum-mismatched or malformed entry line.
    ///
    /// # Errors
    ///
    /// I/O errors and a missing/mismatched header — a damaged *tail* is
    /// expected after a crash, a damaged *head* means this is not a
    /// journal.
    pub fn load(path: impl AsRef<Path>, campaign_name: &str) -> Result<JournalState> {
        Self::load_with(&vfs::RealFs, path, campaign_name)
    }

    /// [`ExperimentJournal::load`] over an explicit [`Vfs`].
    ///
    /// # Errors
    ///
    /// As [`ExperimentJournal::load`].
    pub fn load_with(
        vfs: &dyn Vfs,
        path: impl AsRef<Path>,
        campaign_name: &str,
    ) -> Result<JournalState> {
        let path = path.as_ref();
        let text = vfs
            .read_to_string(path)
            .map_err(|e| GoofiError::io("reading", path, &e))?;
        let complete = text.ends_with('\n');
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(GoofiError::Journal(format!(
                "{}: not a goofi journal (bad header)",
                path.display()
            )));
        }
        let mut state = JournalState::default();
        match lines.next().and_then(|l| l.strip_prefix("C\t")) {
            Some(name) => state.campaign = unescape(name),
            None => {
                return Err(GoofiError::Journal(format!(
                    "{}: missing campaign line",
                    path.display()
                )))
            }
        }
        if state.campaign != campaign_name {
            return Err(GoofiError::Journal(format!(
                "{}: journal belongs to campaign `{}`, not `{campaign_name}`",
                path.display(),
                state.campaign
            )));
        }
        let mut rest = lines.peekable();
        while let Some(line) = rest.next() {
            // The final line is torn if the file lacks a trailing newline.
            if rest.peek().is_none() && !complete {
                break;
            }
            match parse_entry(line, campaign_name) {
                Some(Entry::Reference(record)) => state.reference = Some(record),
                Some(Entry::Completed(index, record)) => state.apply_record(index, record),
                Some(Entry::Failed(failure)) => {
                    *state.failed_rounds.entry(failure.index).or_insert(0) += 1;
                    if !state.completed.contains_key(&failure.index) {
                        state.failed.insert(failure.index, failure);
                    }
                }
                // Corrupt line: everything after it is suspect too.
                None => break,
            }
        }
        Ok(state)
    }
}

/// A line-level integrity scan of a journal file — finer-grained than
/// [`ExperimentJournal::load`], which stops at the first bad line. The
/// scan validates every entry line *individually*, so `goofi fsck` can
/// salvage valid records that sit beyond a garbled middle line.
#[derive(Debug, Clone, Default)]
pub struct JournalScan {
    /// Campaign named in the header, or `None` when the header itself is
    /// damaged (this is not recognisably a journal).
    pub campaign: Option<String>,
    /// Entry lines (verbatim) whose checksum and format both validate.
    pub valid: Vec<String>,
    /// Complete-but-invalid lines before the end of the file — corruption
    /// that the plain loader's torn-tail tolerance does *not* cover.
    pub garbled: usize,
    /// The final line is torn: invalid, or valid but missing its
    /// terminating newline (in which case it is also in `valid` — the
    /// record survives, the file still needs rewriting before appends).
    pub torn_tail: bool,
}

impl JournalScan {
    /// Whether the file is a pristine journal.
    pub fn clean(&self) -> bool {
        self.campaign.is_some() && self.garbled == 0 && !self.torn_tail
    }
}

/// Scans journal text line by line. See [`JournalScan`].
pub fn scan_text(text: &str) -> JournalScan {
    let mut scan = JournalScan::default();
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return scan;
    }
    let campaign = match lines.next().and_then(|l| l.strip_prefix("C\t")) {
        Some(name) => unescape(name),
        None => return scan,
    };
    scan.campaign = Some(campaign.clone());
    let complete = text.ends_with('\n');
    let mut rest = lines.peekable();
    while let Some(line) = rest.next() {
        let last = rest.peek().is_none();
        if parse_entry(line, &campaign).is_some() {
            scan.valid.push(line.to_string());
            if last && !complete {
                // Valid payload but the newline never landed: the record
                // survives, yet appending to the file as-is would
                // concatenate onto this line. Flag it for rewriting.
                scan.torn_tail = true;
            }
        } else if last {
            // An invalid final line — unterminated or complete-but-bad —
            // is the residue of a crash mid-append: a torn tail.
            scan.torn_tail = true;
        } else {
            scan.garbled += 1;
        }
    }
    scan
}

/// What [`salvage_with`] did to a journal file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageOutcome {
    /// The file was rewritten (damage was found and cut out).
    pub rewritten: bool,
    /// Valid entry lines kept.
    pub kept: usize,
    /// Damaged lines dropped (garbled entries plus a torn tail).
    pub dropped: usize,
    /// The file was not recognisably a journal and was renamed aside to
    /// this quarantine path instead of rewritten.
    pub quarantined: Option<PathBuf>,
}

/// Repairs a journal in place: keeps the header and every entry line that
/// individually validates, atomically rewriting the file. A file whose
/// *header* is damaged is quarantined aside ([`vfs::quarantine`], never
/// silently deleted) so its owner can start a fresh journal. A
/// pristine journal is left untouched.
///
/// # Errors
///
/// I/O errors, surfaced as [`GoofiError::Io`].
pub fn salvage_with(vfs: &dyn Vfs, path: &Path) -> Result<SalvageOutcome> {
    // Lossy read: a garbled sector is rarely valid UTF-8, and salvage must
    // still be able to look at the rest of the file.
    let text =
        crate::vfs::read_lossy(vfs, path).map_err(|e| GoofiError::io("reading", path, &e))?;
    let scan = scan_text(&text);
    let Some(campaign) = &scan.campaign else {
        return Ok(SalvageOutcome {
            quarantined: Some(vfs::quarantine(vfs, path)?),
            ..SalvageOutcome::default()
        });
    };
    if scan.clean() {
        return Ok(SalvageOutcome {
            kept: scan.valid.len(),
            ..SalvageOutcome::default()
        });
    }
    let mut body = format!("{HEADER}\nC\t{}\n", escape(campaign));
    for line in &scan.valid {
        body.push_str(line);
        body.push('\n');
    }
    vfs::atomic_write(vfs, path, body.as_bytes())
        .map_err(|e| GoofiError::io("rewriting", path, &e))?;
    let entry_lines = text.lines().count().saturating_sub(2);
    Ok(SalvageOutcome {
        rewritten: true,
        kept: scan.valid.len(),
        dropped: entry_lines - scan.valid.len(),
        quarantined: None,
    })
}

pub(crate) enum Entry {
    Reference(ExperimentRecord),
    Completed(usize, ExperimentRecord),
    Failed(ExperimentFailure),
}

/// One journal record line, minus the trailing checksum column (shared
/// with the golden-run cache, which persists a reference record in the
/// same checksummed format).
pub(crate) fn encode_record_payload(index: Option<usize>, record: &ExperimentRecord) -> String {
    format!(
        "R\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        index.map_or_else(|| "-".to_string(), |i| i.to_string()),
        escape(&record.name),
        record.parent.as_deref().map_or_else(|| "-".into(), escape),
        record
            .fault
            .as_ref()
            .map_or_else(|| "-".into(), |f| escape(&f.encode())),
        escape(&record.termination.encode()),
        escape(&record.state.encode()),
        if record.trace.is_empty() {
            "-".to_string()
        } else {
            escape(
                &record
                    .trace
                    .iter()
                    .map(StateSnapshot::encode)
                    .collect::<Vec<_>>()
                    .join("---\n"),
            )
        },
        record.validity.encode(),
    )
}

pub(crate) fn parse_entry(line: &str, campaign: &str) -> Option<Entry> {
    let (payload, checksum) = line.rsplit_once("\t#")?;
    if u32::from_str_radix(checksum, 16).ok()? != fnv1a(payload.as_bytes()) {
        return None;
    }
    let fields: Vec<&str> = payload.split('\t').collect();
    match fields.as_slice() {
        // The validity column was added later; 8-field entries written by
        // older versions load as valid records.
        ["R", index, name, parent, fault, termination, state, trace]
        | ["R", index, name, parent, fault, termination, state, trace, _] => {
            let validity = match fields.get(8) {
                Some(v) => Validity::decode(v)?,
                None => Validity::Valid,
            };
            let record = ExperimentRecord {
                name: unescape(name),
                parent: (*parent != "-").then(|| unescape(parent)),
                campaign: campaign.to_string(),
                fault: if *fault == "-" {
                    None
                } else {
                    Some(FaultSpec::decode(&unescape(fault))?)
                },
                termination: TerminationCause::decode(&unescape(termination))?,
                state: StateSnapshot::decode(&unescape(state))?,
                trace: if *trace == "-" {
                    Vec::new()
                } else {
                    unescape(trace)
                        .split("---\n")
                        .map(StateSnapshot::decode)
                        .collect::<Option<Vec<_>>>()?
                },
                validity,
            };
            if *index == "-" {
                Some(Entry::Reference(record))
            } else {
                Some(Entry::Completed(index.parse().ok()?, record))
            }
        }
        ["F", index, attempts, error] => {
            let index = index.parse().ok()?;
            Some(Entry::Failed(ExperimentFailure {
                index,
                name: format!("{campaign}/exp{index:05}"),
                attempts: attempts.parse().ok()?,
                error: unescape(error),
            }))
        }
        _ => None,
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

pub(crate) fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "goofi-journal-test-{}-{name}.gjl",
            std::process::id()
        ));
        p
    }

    fn record(name: &str, parent: Option<&str>) -> ExperimentRecord {
        let mut state = StateSnapshot {
            memory_digest: 7,
            outputs: vec![1, 2, 3],
            iterations: 1,
            instructions: 100,
            cycles: 150,
            ..StateSnapshot::default()
        };
        state.scan.insert("internal".into(), "0101".into());
        ExperimentRecord {
            name: name.into(),
            parent: parent.map(str::to_string),
            campaign: "c1".into(),
            fault: None,
            termination: TerminationCause::WorkloadEnd,
            state,
            trace: vec![StateSnapshot::default()],
            validity: Validity::Valid,
        }
    }

    #[test]
    fn validity_roundtrips_and_supersedes() {
        let path = temp_journal("validity");
        let mut j = ExperimentJournal::create(&path, "c1").unwrap();
        let good = record("c1/exp00000", None);
        let mut bad = good.clone();
        bad.validity = Validity::Invalid;
        j.append_record(Some(0), &good).unwrap();
        // Quarantine re-journals the same index with validity=invalid: the
        // record leaves `completed` (so resume re-runs it as a linked
        // rerun) and is kept aside for database import.
        j.append_record(Some(0), &bad).unwrap();
        drop(j);
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert!(!state.completed.contains_key(&0));
        assert_eq!(
            state.failed[&0].error,
            "quarantined by golden-run revalidation"
        );
        assert_eq!(state.failed_rounds[&0], 1);
        assert_eq!(state.quarantined.len(), 1);
        assert_eq!(state.quarantined[0].validity, Validity::Invalid);

        // … and an eight-field entry from an older version loads as valid.
        let mut jv = ExperimentJournal::create(&path, "c1").unwrap();
        jv.append_record(Some(1), &good).unwrap();
        drop(jv);
        let text = std::fs::read_to_string(&path).unwrap();
        let legacy: String = text
            .lines()
            .map(|line| match line.split_once("\t#") {
                Some((payload, _)) if payload.starts_with("R\t") => {
                    let stripped = payload.rsplit_once('\t').unwrap().0;
                    format!("{stripped}\t#{:08x}\n", fnv1a(stripped.as_bytes()))
                }
                _ => format!("{line}\n"),
            })
            .collect();
        std::fs::write(&path, legacy).unwrap();
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert_eq!(state.completed[&1].validity, Validity::Valid);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn roundtrips_records_and_failures() {
        let path = temp_journal("roundtrip");
        let mut j = ExperimentJournal::create(&path, "c1").unwrap();
        let reference = record("c1/reference", None);
        let exp0 = record("c1/exp00000", None);
        let rerun = record("c1/exp00002/rerun1", Some("c1/exp00002"));
        j.append_record(None, &reference).unwrap();
        j.append_record(Some(0), &exp0).unwrap();
        j.append_failure(&ExperimentFailure {
            index: 1,
            name: "c1/exp00001".into(),
            attempts: 3,
            error: "target system error: tab\there".into(),
        })
        .unwrap();
        j.append_record(Some(2), &rerun).unwrap();
        drop(j);

        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert_eq!(state.campaign, "c1");
        assert_eq!(state.reference.as_ref(), Some(&reference));
        assert_eq!(state.completed.len(), 2);
        assert_eq!(state.completed[&0], exp0);
        assert_eq!(state.completed[&2], rerun);
        assert_eq!(state.failed.len(), 1);
        assert_eq!(state.failed[&1].attempts, 3);
        assert_eq!(state.failed_rounds[&1], 1);
        assert!(state.failed[&1].error.contains("tab\there"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn later_record_supersedes_failure() {
        let path = temp_journal("supersede");
        let mut j = ExperimentJournal::create(&path, "c1").unwrap();
        j.append_failure(&ExperimentFailure {
            index: 0,
            name: "c1/exp00000".into(),
            attempts: 1,
            error: "flaky".into(),
        })
        .unwrap();
        j.append_record(Some(0), &record("c1/exp00000/rerun1", Some("c1/exp00000")))
            .unwrap();
        drop(j);
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert!(state.failed.is_empty());
        // The F entry still counts a round, keeping future rerun names
        // unique.
        assert_eq!(state.failed_rounds[&0], 1);
        assert_eq!(state.completed.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = temp_journal("torn");
        let mut j = ExperimentJournal::create(&path, "c1").unwrap();
        j.append_record(Some(0), &record("c1/exp00000", None))
            .unwrap();
        j.append_record(Some(1), &record("c1/exp00001", None))
            .unwrap();
        drop(j);
        // Simulate a crash mid-append: truncate the last line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 10]).unwrap();
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert_eq!(state.completed.len(), 1);
        assert!(state.completed.contains_key(&0));

        // A corrupted middle line cuts the journal there.
        let corrupt = text.replace("exp00000", "exp0?¿00");
        std::fs::write(&path, corrupt).unwrap();
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert!(state.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_after_load_continues_the_journal() {
        let path = temp_journal("append");
        let mut j = ExperimentJournal::create(&path, "c1").unwrap();
        j.append_record(Some(0), &record("c1/exp00000", None))
            .unwrap();
        drop(j);
        let mut j = ExperimentJournal::open_append(&path).unwrap();
        j.append_record(Some(1), &record("c1/exp00001", None))
            .unwrap();
        drop(j);
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert_eq!(state.completed.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_campaign_is_rejected() {
        let path = temp_journal("wrong");
        ExperimentJournal::create(&path, "c1").unwrap();
        assert!(matches!(
            ExperimentJournal::load(&path, "other"),
            Err(GoofiError::Journal(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let path = temp_journal("notjournal");
        std::fs::write(&path, "hello\n").unwrap();
        assert!(ExperimentJournal::load(&path, "c1").is_err());
        std::fs::remove_file(&path).unwrap();
        assert!(ExperimentJournal::load(&path, "c1").is_err()); // missing file
    }

    #[test]
    fn escape_roundtrips() {
        for s in ["plain", "tab\tnl\ncr\rback\\slash", "", "trailing\\"] {
            assert_eq!(unescape(&escape(s)), s);
        }
    }
}
