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
//! Fields are tab-separated and escaped (`\\`, `\t`, `\n`, `\r`) by
//! [`goofidb::codec`], the escape of the database file too; any other
//! escape makes the entry damaged. `R` entries are completed experiment
//! records (`-` in the index column marks the reference run), `F` entries
//! are experiments that failed despite the policy's retries. Every entry
//! line ends with an FNV-1a checksum of its payload. An append encodes its
//! entry, checksum included, into one reused line buffer and writes it
//! with one `write_all`.
//!
//! One line walker ([`scan_text`]) reads every journal, for loading,
//! salvage, fsck and reopening alike. It checks each entry line on its
//! own, so a torn tail (what a crash mid-append leaves) or a garbled line
//! in the middle costs exactly that line: a load keeps every entry that
//! checks out, the same set a salvage keeps.

use crate::logging::{ExperimentRecord, StateSnapshot, TerminationCause, Validity};
use crate::policy::ExperimentFailure;
use crate::vfs::{self, Vfs, VfsFile};
use crate::{fault::FaultSpec, GoofiError, Result};
use goofidb::codec::{escape_into, fnv1a, needs_escape, unescape};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write;
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

    /// This state when the journal at `path` belongs to `campaign`.
    fn belonging_to(self, path: &Path, campaign: &str) -> Result<JournalState> {
        if self.campaign == campaign {
            return Ok(self);
        }
        Err(GoofiError::Journal(format!(
            "{}: journal belongs to campaign `{}`, not `{campaign}`",
            path.display(),
            self.campaign
        )))
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
    /// The line each append encodes its entry into, kept between appends
    /// so an entry allocates nothing once it has grown.
    line: String,
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
        file.write_all(head(campaign).as_bytes())
            .and_then(|()| file.sync())
            .map_err(|e| GoofiError::io("writing header to", &path, &e))?;
        Ok(ExperimentJournal {
            file,
            path,
            pending: 0,
            line: String::new(),
        })
    }

    /// Opens the journal at `path` for appending `campaign`'s entries and
    /// returns it with the state it holds. An absent file is created. An
    /// existing one is first read once and salvaged ([`salvage_with`]),
    /// since an entry appended after a torn line would be lost to every
    /// later load; a fresh journal replaces a quarantined file.
    ///
    /// # Errors
    ///
    /// I/O errors, and [`GoofiError::Journal`] when the journal belongs to
    /// another campaign.
    pub fn reopen(
        vfs: &dyn Vfs,
        path: impl AsRef<Path>,
        campaign: &str,
    ) -> Result<(Self, JournalState)> {
        let path = path.as_ref();
        let salvaged = vfs.exists(path).then(|| salvage_with(vfs, path));
        let kept = salvaged.transpose()?.filter(|s| s.quarantined.is_none());
        let Some(SalvageOutcome { state, .. }) = kept else {
            let state = JournalState {
                campaign: campaign.to_string(),
                ..JournalState::default()
            };
            return Ok((Self::create_with(vfs, path, campaign)?, state));
        };
        let state = state.belonging_to(path, campaign)?;
        let file = vfs
            .open_append(path)
            .map_err(|e| GoofiError::io("opening", path, &e))?;
        let journal = ExperimentJournal {
            file,
            path: path.to_path_buf(),
            pending: 0,
            line: String::new(),
        };
        Ok((journal, state))
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
        self.append(|line| encode_record(line, index, record))
    }

    /// Appends an experiment failure.
    ///
    /// # Errors
    ///
    /// As [`ExperimentJournal::append_record`].
    pub fn append_failure(&mut self, failure: &ExperimentFailure) -> Result<()> {
        self.append(|line| {
            // Writing into a `String` cannot fail.
            let _ = write!(line, "F\t{}\t{}\t", failure.index, failure.attempts);
            escape_into(line, &failure.error);
        })
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

    /// Writes the entry `payload` encodes as one line, with one
    /// `write_all`.
    fn append(&mut self, payload: impl FnOnce(&mut String)) -> Result<()> {
        self.line.clear();
        push_entry(&mut self.line, payload);
        self.file
            .write_all(self.line.as_bytes())
            .map_err(|e| GoofiError::io("appending to", &self.path, &e))?;
        self.pending += 1;
        if self.pending >= SYNC_EVERY {
            self.commit()?;
        }
        Ok(())
    }

    /// Loads a journal: every entry line that checks out on its own, in
    /// file order. That is exactly the set [`salvage_with`] keeps, so a
    /// torn tail or a garbled line in the middle costs only that line.
    ///
    /// # Errors
    ///
    /// I/O errors, a file that is not a journal (damaged header or
    /// campaign line), and a journal of another campaign.
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
        let text = vfs::read_lossy(vfs, path).map_err(|e| GoofiError::io("reading", path, &e))?;
        let scan = scan_text(&text);
        match scan.campaign {
            Ok(_) => scan.state.belonging_to(path, campaign_name),
            Err(why) => Err(GoofiError::Journal(format!("{}: {why}", path.display()))),
        }
    }
}

/// What the journal line walker ([`scan_text`]) found in a journal's text.
#[derive(Debug, Clone)]
pub struct JournalScan<'t> {
    /// Campaign named in the header, or why the text is not recognisably
    /// a journal: a damaged header or campaign line.
    pub campaign: std::result::Result<String, &'static str>,
    /// The valid entries, folded in file order.
    pub state: JournalState,
    /// Entry lines whose checksum and format both validate.
    pub valid: usize,
    /// Complete-but-invalid lines before the end of the file.
    pub garbled: usize,
    /// The final line is torn: invalid, or valid but missing its
    /// terminating newline (in which case it also counts as valid — the
    /// record survives, the file still needs rewriting before appends).
    pub torn_tail: bool,
    /// The scanned text's entry lines, for a rewrite; the valid ones are
    /// not collected, so a clean scan allocates nothing for them.
    entries: std::str::Lines<'t>,
    /// Positions among `entries` of the invalid lines: the garbled ones
    /// and an invalid final line.
    dropped: Vec<usize>,
}

impl JournalScan<'_> {
    /// Whether the file is a pristine journal.
    pub fn clean(&self) -> bool {
        self.campaign.is_ok() && self.garbled == 0 && !self.torn_tail
    }

    /// Repairs the file at `path` this scan read; see [`salvage_with`].
    pub(crate) fn salvage(self, vfs: &dyn Vfs, path: &Path) -> Result<SalvageOutcome> {
        let Ok(campaign) = &self.campaign else {
            return Ok(SalvageOutcome {
                quarantined: Some(vfs::quarantine(vfs, path)?),
                ..SalvageOutcome::default()
            });
        };
        let rewritten = !self.clean();
        if rewritten {
            let mut body = head(campaign);
            for (at, line) in self.entries.enumerate() {
                if self.dropped.binary_search(&at).is_err() {
                    body.push_str(line);
                    body.push('\n');
                }
            }
            vfs::atomic_write(vfs, path, body.as_bytes())
                .map_err(|e| GoofiError::io("rewriting", path, &e))?;
        }
        Ok(SalvageOutcome {
            rewritten,
            kept: self.valid,
            dropped: self.dropped.len(),
            quarantined: None,
            state: self.state,
        })
    }
}

/// The journal line walker, the only code that parses a journal: reads
/// the header and campaign line, then checks each entry line on its own
/// and folds the valid ones into a [`JournalState`]. See [`JournalScan`].
pub fn scan_text(text: &str) -> JournalScan<'_> {
    let mut lines = text.lines();
    let campaign = if lines.next() == Some(HEADER) {
        match lines.next().and_then(|l| l.strip_prefix("C\t")) {
            Some(name) => unescape(name)
                .map(Cow::into_owned)
                .map_err(|_| "undecodable campaign line"),
            None => Err("missing campaign line"),
        }
    } else {
        Err("not a goofi journal (bad header)")
    };
    let mut scan = JournalScan {
        campaign,
        state: JournalState::default(),
        valid: 0,
        garbled: 0,
        torn_tail: false,
        entries: lines.clone(),
        dropped: Vec::new(),
    };
    let Ok(campaign) = &scan.campaign else {
        return scan;
    };
    let state = &mut scan.state;
    state.campaign.clone_from(campaign);
    let complete = text.ends_with('\n');
    let mut rest = lines.enumerate().peekable();
    while let Some((at, line)) = rest.next() {
        let last = rest.peek().is_none();
        let Some(entry) = parse_entry(line, campaign) else {
            // An invalid final line — unterminated or complete-but-bad —
            // is the residue of a crash mid-append: a torn tail.
            scan.torn_tail |= last;
            scan.garbled += usize::from(!last);
            scan.dropped.push(at);
            continue;
        };
        // Valid, but if its newline never landed, appending to the file
        // as-is would concatenate onto this line.
        scan.torn_tail |= last && !complete;
        scan.valid += 1;
        match entry {
            Entry::Reference(record) => state.reference = Some(record),
            Entry::Completed(index, record) => state.apply_record(index, record),
            Entry::Failed(failure) => {
                *state.failed_rounds.entry(failure.index).or_insert(0) += 1;
                if !state.completed.contains_key(&failure.index) {
                    state.failed.insert(failure.index, failure);
                }
            }
        }
    }
    scan
}

/// What [`salvage_with`] did to a journal file.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// The entries kept (none when the file was quarantined).
    pub state: JournalState,
}

/// Reads the journal at `path` once and repairs it in place: a damaged
/// journal is atomically rewritten to its header and valid entry lines, a
/// file that is not a journal is quarantined aside ([`vfs::quarantine`],
/// never deleted), and a pristine one is left untouched. This is the
/// read-and-repair half of [`ExperimentJournal::reopen`].
///
/// # Errors
///
/// I/O errors, surfaced as [`GoofiError::Io`].
pub fn salvage_with(vfs: &dyn Vfs, path: &Path) -> Result<SalvageOutcome> {
    let text = vfs::read_lossy(vfs, path).map_err(|e| GoofiError::io("reading", path, &e))?;
    scan_text(&text).salvage(vfs, path)
}

/// The header and campaign line a journal of `campaign` starts with.
fn head(campaign: &str) -> String {
    let mut head = format!("{HEADER}\nC\t");
    escape_into(&mut head, campaign);
    head.push('\n');
    head
}

/// One journal entry line, decoded.
#[derive(Debug, PartialEq)]
pub enum Entry {
    /// The reference run's record.
    Reference(ExperimentRecord),
    /// The record of the experiment at this campaign index.
    Completed(usize, ExperimentRecord),
    /// An experiment that failed despite the policy's retries.
    Failed(ExperimentFailure),
}

/// Appends one sealed entry line to `out`: the payload `encode` writes,
/// then a tab, `#`, the payload's FNV-1a checksum in hex and a newline.
pub(crate) fn push_entry(out: &mut String, encode: impl FnOnce(&mut String)) {
    let start = out.len();
    encode(out);
    let sum = fnv1a(&out.as_bytes()[start..]);
    // Writing into a `String` cannot fail.
    let _ = writeln!(out, "\t#{sum:08x}");
}

/// Appends a record entry's payload, the line minus its checksum column
/// (shared with the golden-run cache, which persists a reference record in
/// the same checksummed format). Every field goes straight into `out`.
pub(crate) fn encode_record(out: &mut String, index: Option<usize>, record: &ExperimentRecord) {
    out.push_str("R\t");
    match index {
        // Writing into a `String` cannot fail.
        Some(index) => {
            let _ = write!(out, "{index}");
        }
        None => out.push('-'),
    }
    out.push('\t');
    escape_into(out, &record.name);
    out.push('\t');
    match &record.parent {
        Some(parent) => escape_into(out, parent),
        None => out.push('-'),
    }
    out.push('\t');
    match &record.fault {
        Some(fault) => escaped(out, |out| fault.encode_into(out)),
        None => out.push('-'),
    }
    out.push('\t');
    escaped(out, |out| record.termination.encode_into(out));
    out.push('\t');
    record.state.encode_into(out, true);
    out.push('\t');
    if record.trace.is_empty() {
        out.push('-');
    }
    for (i, state) in record.trace.iter().enumerate() {
        if i > 0 {
            out.push_str("---\\n");
        }
        state.encode_into(out, true);
    }
    out.push('\t');
    out.push_str(record.validity.encode());
}

/// Appends what `write` writes, escaped: in place, unless it holds a byte
/// to escape, which no fault or termination text written today does.
fn escaped(out: &mut String, write: impl FnOnce(&mut String)) {
    let start = out.len();
    write(out);
    if needs_escape(&out[start..]) {
        let raw = out.split_off(start);
        escape_into(out, &raw);
    }
}

/// Decodes one entry line of the journal of `campaign`: `None` unless its
/// checksum and every field check out.
pub fn parse_entry(line: &str, campaign: &str) -> Option<Entry> {
    let (payload, checksum) = line.rsplit_once("\t#")?;
    if u32::from_str_radix(checksum, 16).ok()? != fnv1a(payload.as_bytes()) {
        return None;
    }
    let mut fields = [""; 9];
    let mut count = 0;
    for field in payload.split('\t') {
        *fields.get_mut(count)? = field;
        count += 1;
    }
    fn text(field: &str) -> Option<Cow<'_, str>> {
        unescape(field).ok()
    }
    match &fields[..count] {
        // The validity column was added later; 8-field entries written by
        // older versions load as valid records.
        ["R", index, name, parent, fault, termination, state, trace]
        | ["R", index, name, parent, fault, termination, state, trace, _] => {
            let validity = match count {
                9 => Validity::decode(fields[8])?,
                _ => Validity::Valid,
            };
            let record = ExperimentRecord {
                name: text(name)?.into_owned(),
                parent: match *parent {
                    "-" => None,
                    parent => Some(text(parent)?.into_owned()),
                },
                campaign: campaign.to_string(),
                fault: match *fault {
                    "-" => None,
                    fault => Some(FaultSpec::decode(&text(fault)?)?),
                },
                termination: TerminationCause::decode(&text(termination)?)?,
                state: StateSnapshot::decode(&text(state)?)?,
                trace: match *trace {
                    "-" => Vec::new(),
                    trace => text(trace)?
                        .split("---\n")
                        .map(StateSnapshot::decode)
                        .collect::<Option<Vec<_>>>()?,
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
                error: text(error)?.into_owned(),
            }))
        }
        _ => None,
    }
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

    /// A reference, a detail re-run with every optional field set, and a
    /// failure whose error needs escaping: one of each journal entry.
    fn pinned_entries() -> (ExperimentRecord, ExperimentRecord, ExperimentFailure) {
        let mut state = StateSnapshot {
            memory_digest: 0xdead_beef_0123_4567,
            outputs: vec![1, 0, u32::MAX],
            iterations: 1,
            instructions: 100,
            cycles: 150,
            ..StateSnapshot::default()
        };
        state.scan.insert("internal".into(), "0101".into());
        state.scan.insert("icache".into(), "110".into());
        let reference = ExperimentRecord {
            name: "c1/reference".into(),
            parent: None,
            campaign: "c1".into(),
            fault: None,
            termination: TerminationCause::WorkloadEnd,
            state: state.clone(),
            trace: Vec::new(),
            validity: Validity::Valid,
        };
        let mut later = state.clone();
        later.instructions = 101;
        later.outputs.clear();
        let detail = ExperimentRecord {
            name: "c1/exp00003/detail".into(),
            parent: Some("c1/exp00003".into()),
            fault: Some(FaultSpec::single(
                crate::fault::FaultLocation::ScanCell {
                    chain: "internal".into(),
                    cell: "R1".into(),
                    bit: 4,
                },
                crate::trigger::Trigger::AfterInstructions(100),
            )),
            termination: TerminationCause::Detected(crate::target::DetectionInfo {
                mechanism: "parity_icache".into(),
                code: 1,
            }),
            trace: vec![state, later],
            validity: Validity::Invalid,
            ..reference.clone()
        };
        let failure = ExperimentFailure {
            index: 5,
            name: "c1/exp00005".into(),
            attempts: 2,
            error: "scan link down:\tstall\nafter 2 attempts".into(),
        };
        (reference, detail, failure)
    }

    /// The journal [`pinned_entries`] are written to: the format is
    /// pinned, so a codec change that alters one byte fails here.
    const PINNED_JOURNAL: &str = concat!(
        "#goofi-journal v1\n",
        "C\tc1\n",
        "R\t-\tc1/reference\t-\t-\tend\t",
        "chain icache 110\\nchain internal 0101\\nmemdigest 16045690981116495207\\n",
        "outputs 1,0,4294967295\\ncounters 1 100 150\\n\t-\tvalid\t#770af1ba\n",
        "R\t3\tc1/exp00003/detail\tc1/exp00003\t",
        "model=flip;trigger=instr:100;locations=scan:internal:R1:4\tdetected:parity_icache:1\t",
        "chain icache 110\\nchain internal 0101\\nmemdigest 16045690981116495207\\n",
        "outputs 1,0,4294967295\\ncounters 1 100 150\\n\t",
        "chain icache 110\\nchain internal 0101\\nmemdigest 16045690981116495207\\n",
        "outputs 1,0,4294967295\\ncounters 1 100 150\\n---\\n",
        "chain icache 110\\nchain internal 0101\\nmemdigest 16045690981116495207\\n",
        "outputs \\ncounters 1 101 150\\n\tinvalid\t#016999ea\n",
        "F\t5\t2\tscan link down:\\tstall\\nafter 2 attempts\t#87ae9fbe\n",
    );

    #[test]
    fn journal_writes_the_pinned_lines_and_parses_them_back() {
        let (reference, detail, failure) = pinned_entries();
        let path = temp_journal("pinned");
        let mut j = ExperimentJournal::create(&path, "c1").unwrap();
        j.append_record(None, &reference).unwrap();
        j.append_record(Some(3), &detail).unwrap();
        j.append_failure(&failure).unwrap();
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text, PINNED_JOURNAL);

        let lines: Vec<&str> = PINNED_JOURNAL.lines().skip(2).collect();
        assert!(matches!(
            parse_entry(lines[0], "c1"),
            Some(Entry::Reference(r)) if r == reference
        ));
        assert!(matches!(
            parse_entry(lines[1], "c1"),
            Some(Entry::Completed(3, r)) if r == detail
        ));
        assert!(matches!(
            parse_entry(lines[2], "c1"),
            Some(Entry::Failed(f)) if f == failure
        ));
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

        // A corrupted middle line costs that line only.
        let corrupt = text.replace("exp00000", "exp0?¿00");
        std::fs::write(&path, corrupt).unwrap();
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert_eq!(state.completed.keys().copied().collect::<Vec<_>>(), [1]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_after_load_continues_the_journal() {
        let path = temp_journal("append");
        let mut j = ExperimentJournal::create(&path, "c1").unwrap();
        j.append_record(Some(0), &record("c1/exp00000", None))
            .unwrap();
        drop(j);
        let (mut j, _) = ExperimentJournal::reopen(&vfs::RealFs, &path, "c1").unwrap();
        j.append_record(Some(1), &record("c1/exp00001", None))
            .unwrap();
        drop(j);
        let state = ExperimentJournal::load(&path, "c1").unwrap();
        assert_eq!(state.completed.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_keeps_exactly_the_entries_salvage_keeps() {
        let path = temp_journal("garbled-middle");
        let mut j = ExperimentJournal::create(&path, "c1").unwrap();
        for index in 0..5 {
            let name = format!("c1/exp{index:05}");
            j.append_record(Some(index), &record(&name, None)).unwrap();
        }
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("exp00002", "exq00002")).unwrap();
        let loaded = ExperimentJournal::load(&path, "c1").unwrap();
        let outcome = salvage_with(&vfs::RealFs, &path).unwrap();
        assert_eq!((outcome.kept, outcome.dropped), (4, 1));
        let salvaged = ExperimentJournal::load(&path, "c1").unwrap();
        assert_eq!(loaded.completed.len(), 4);
        assert_eq!(loaded, outcome.state);
        assert_eq!(loaded, salvaged);
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
        assert!(matches!(
            ExperimentJournal::reopen(&vfs::RealFs, &path, "other"),
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
    fn an_unknown_escape_marks_the_entry_damaged() {
        // No writer emits `\q`: a line holding one is damaged even when its
        // checksum agrees, and costs that line like any other.
        let sealed = |payload: &str| {
            let mut line = String::new();
            push_entry(&mut line, |out| out.push_str(payload));
            line
        };
        let (bad, good) = (sealed("F\t1\t1\tstall \\q"), sealed("F\t2\t1\tstall \\t"));
        assert!(parse_entry(bad.trim_end(), "c1").is_none());
        let text = format!("{}{bad}{good}", head("c1"));
        let scan = scan_text(&text);
        assert_eq!((scan.valid, scan.garbled, scan.torn_tail), (1, 1, false));
        assert_eq!(scan.state.failed[&2].error, "stall \t");
    }
}
