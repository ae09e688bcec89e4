//! `goofi fsck`: detect and repair corruption in GOOFI's own durable
//! state.
//!
//! The framework injects faults into target systems for a living; this
//! module turns the same scrutiny inward. It walks every durable artifact
//! — the database file, campaign journals, and the service spool — and
//! classifies each piece of damage as a [`CorruptionClass`]. With repair
//! enabled it applies the *salvage-and-quarantine* discipline:
//!
//! - journals are rewritten keeping every individually checksum-valid
//!   entry ([`crate::journal::salvage_with`]); files that are not
//!   recognisably journals are quarantined aside ([`vfs::quarantine`]);
//! - database tables are read once, salvaging; garbled `LoggedSystemState`
//!   rows whose primary key survived are replaced by `Validity::Invalid`
//!   stubs plus `parentExperiment`-linked `…/rerun1` stubs, so the loss
//!   is documented and re-runnable rather than silently dropped;
//! - spool job directories without a readable manifest are renamed to
//!   `quarantined-<id>` (which [`crate::service::Scheduler`] skips), and
//!   shard journals that disagree with their manifest are quarantined.
//!
//! Nothing is ever deleted: every repair either rewrites a file from its
//! surviving valid content or renames the damaged original aside.

use crate::logging::ExperimentRecord;
use crate::service::scheduler;
use crate::vfs::{self, Vfs};
use crate::{dbio, journal, GoofiError, Result};
use goofidb::{Database, IssueKind, Value};
use std::fmt;
use std::path::{Path, PathBuf};

/// Taxonomy of on-disk damage `goofi fsck` can detect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionClass {
    /// A journal file whose header is damaged — not recognisably a
    /// journal.
    JournalBadHeader,
    /// A journal's final entry is torn (crash mid-append).
    JournalTornTail,
    /// A journal entry *before* the tail fails its checksum or format —
    /// not the residue of a crash mid-append. Only that entry is lost.
    JournalGarbledEntry,
    /// The database file is structurally unreadable (bad header, damaged
    /// block structure, truncation, bytes that are not UTF-8).
    DbUnreadable,
    /// A database table's rows disagree with its `CHECK` footer.
    DbChecksumMismatch,
    /// A database row failed to decode or insert.
    DbGarbledRow,
    /// A stray [`vfs::temp_path`] from a crashed atomic save.
    DbStrayTemp,
    /// A spool job directory without a manifest.
    SpoolOrphanDir,
    /// A spool job manifest that does not parse.
    SpoolBadManifest,
    /// A shard journal naming a different campaign than its manifest.
    SpoolShardMismatch,
}

impl CorruptionClass {
    /// Stable text form used in reports.
    pub fn encode(self) -> &'static str {
        match self {
            CorruptionClass::JournalBadHeader => "journal-bad-header",
            CorruptionClass::JournalTornTail => "journal-torn-tail",
            CorruptionClass::JournalGarbledEntry => "journal-garbled-entry",
            CorruptionClass::DbUnreadable => "db-unreadable",
            CorruptionClass::DbChecksumMismatch => "db-checksum-mismatch",
            CorruptionClass::DbGarbledRow => "db-garbled-row",
            CorruptionClass::DbStrayTemp => "db-stray-temp",
            CorruptionClass::SpoolOrphanDir => "spool-orphan-dir",
            CorruptionClass::SpoolBadManifest => "spool-bad-manifest",
            CorruptionClass::SpoolShardMismatch => "spool-shard-mismatch",
        }
    }
}

impl fmt::Display for CorruptionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.encode())
    }
}

/// One piece of damage found by an fsck pass.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What kind of damage.
    pub class: CorruptionClass,
    /// File (or directory) the damage was found in.
    pub path: PathBuf,
    /// Human-readable description.
    pub detail: String,
    /// What the repair pass did about it, when repair ran.
    pub repaired: Option<String>,
}

/// The aggregated result of an fsck pass.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Every finding, in discovery order.
    pub findings: Vec<Finding>,
}

impl FsckReport {
    /// Whether no damage was found.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// How many findings were repaired.
    pub fn repaired(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.repaired.is_some())
            .count()
    }

    /// Appends another report's findings.
    pub fn merge(&mut self, mut other: FsckReport) {
        self.findings.append(&mut other.findings);
    }

    /// Renders the report for the CLI.
    pub fn render(&self) -> String {
        if self.clean() {
            return "fsck: clean".to_string();
        }
        let mut out = format!(
            "fsck: {} finding(s), {} repaired\n",
            self.findings.len(),
            self.repaired()
        );
        for f in &self.findings {
            out.push_str(&format!(
                "  {} {}: {}\n",
                f.class,
                f.path.display(),
                f.detail
            ));
            if let Some(note) = &f.repaired {
                out.push_str(&format!("    repaired: {note}\n"));
            }
        }
        out.pop();
        out
    }
}

fn finding(class: CorruptionClass, path: &Path, detail: impl Into<String>) -> Finding {
    Finding {
        class,
        path: path.to_path_buf(),
        detail: detail.into(),
        repaired: None,
    }
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

/// Checks (and optionally repairs) the database file at `path`.
///
/// Detection: a stray [`vfs::temp_path`] from a crashed atomic save, bytes
/// that are not UTF-8, and whatever the database reader's salvaging load
/// reports: a structurally unreadable file, per-table `CHECK` checksum
/// mismatches, and garbled or rejected rows. That read is the one the
/// strict loader makes, so the file is clean exactly when
/// [`dbio::load_database`] accepts it. Repair:
/// the stray temp is removed, garbled `LoggedSystemState` rows whose
/// experiment name survived become `Validity::Invalid` stubs with
/// `parentExperiment`-linked `…/rerun1` stubs, and the salvaged database
/// is atomically re-saved. A file that is not recognisably a goofidb dump
/// is quarantined aside ([`vfs::quarantine`]) rather than overwritten.
///
/// A missing file is clean — it simply means no database exists yet.
///
/// # Errors
///
/// I/O errors from reading or rewriting.
pub fn fsck_database(vfs: &dyn Vfs, path: &Path, repair: bool) -> Result<FsckReport> {
    let mut report = FsckReport::default();

    let tmp = vfs::temp_path(path);
    if vfs.exists(&tmp) {
        let mut f = finding(
            CorruptionClass::DbStrayTemp,
            &tmp,
            "leftover temp file from an interrupted save",
        );
        if repair {
            vfs.remove_file(&tmp)
                .map_err(|e| GoofiError::io("removing", &tmp, &e))?;
            f.repaired = Some("removed".into());
        }
        report.findings.push(f);
    }

    let (text, utf8) = match dbio::read_database(vfs, path) {
        Ok(read) => read,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(GoofiError::io("reading", path, &e)),
    };
    let (mut db, issues) = Database::load_from_string_lenient(&text);
    if issues.is_empty() && utf8 {
        return Ok(report);
    }

    // Not recognisably a goofidb dump: quarantine, never overwrite.
    if !text.starts_with("#goofidb") {
        let mut f = finding(
            CorruptionClass::DbUnreadable,
            path,
            "not a goofidb dump (bad header)",
        );
        if repair {
            let aside = vfs::quarantine(vfs, path)?;
            f.repaired = Some(format!("quarantined to {}", aside.display()));
        }
        report.findings.push(f);
        return Ok(report);
    }

    if !utf8 {
        report.findings.push(finding(
            CorruptionClass::DbUnreadable,
            path,
            "file is not valid UTF-8 (undecodable bytes read as U+FFFD)",
        ));
    }
    let mut stub_sources: Vec<(String, String)> = Vec::new();
    for issue in &issues {
        let class = match issue.kind {
            IssueKind::ChecksumMismatch => CorruptionClass::DbChecksumMismatch,
            IssueKind::BadRow | IssueKind::InsertFailed => CorruptionClass::DbGarbledRow,
            IssueKind::BadLine | IssueKind::Truncated => CorruptionClass::DbUnreadable,
        };
        let detail = if issue.table.is_empty() {
            format!("[{}] {}", issue.kind.encode(), issue.detail)
        } else {
            format!(
                "[{}] table {}: {}",
                issue.kind.encode(),
                issue.table,
                issue.detail
            )
        };
        report.findings.push(finding(class, path, detail));
        // A garbled experiment row whose primary key (and campaign)
        // survived can be stubbed for a rerun.
        if issue.table == dbio::LOG_TABLE && issue.kind == IssueKind::BadRow {
            if let (Some(Some(Value::Text(name))), Some(Some(Value::Text(campaign)))) =
                (issue.recovered.first(), issue.recovered.get(2))
            {
                stub_sources.push((name.clone(), campaign.clone()));
            }
        }
    }
    if repair {
        let mut notes = Vec::new();
        for (name, campaign) in stub_sources {
            match stub_lost_experiment(&mut db, &name, &campaign) {
                Ok(true) => notes.push(format!("stubbed `{name}` as invalid with rerun hook")),
                Ok(false) => {}
                Err(e) => notes.push(format!("could not stub `{name}`: {e}")),
            }
        }
        dbio::save_database(vfs, path, &db)?;
        let salvage_note = format!(
            "salvaged {} table(s){}",
            db.table_names().len(),
            if notes.is_empty() {
                String::new()
            } else {
                format!("; {}", notes.join("; "))
            }
        );
        for f in &mut report.findings {
            if f.repaired.is_none() {
                f.repaired = Some(salvage_note.clone());
            }
        }
    }
    Ok(report)
}

/// Logs [`ExperimentRecord::lost_stubs`] for a lost experiment, as the
/// service does for a poisoned shard's. Returns `false` when the
/// experiment already has a (surviving) row.
fn stub_lost_experiment(db: &mut Database, name: &str, campaign: &str) -> Result<bool> {
    let exists = |db: &Database, key: &str| {
        db.table(dbio::LOG_TABLE)
            .is_some_and(|t| t.contains_key(key))
    };
    if exists(db, name) {
        return Ok(false);
    }
    let [original, rerun] = ExperimentRecord::lost_stubs(campaign, name, None);
    dbio::log_experiment(db, &original)?;
    if !exists(db, &rerun.name) {
        dbio::log_experiment(db, &rerun)?;
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// Journals
// ---------------------------------------------------------------------------

/// Checks (and optionally repairs) one experiment journal.
///
/// When `expect_campaign` is given (the spool path passes the manifest's
/// campaign), a journal naming a different campaign is classified as
/// [`CorruptionClass::SpoolShardMismatch`] and quarantined on repair.
/// Other damage — bad header, garbled entries, torn tail — is repaired
/// from the same read, as [`crate::journal::salvage_with`] would. A
/// missing file is clean.
///
/// # Errors
///
/// I/O errors from reading or rewriting.
pub fn fsck_journal(
    vfs: &dyn Vfs,
    path: &Path,
    expect_campaign: Option<&str>,
    repair: bool,
) -> Result<FsckReport> {
    let mut report = FsckReport::default();
    let text = match vfs::read_lossy(vfs, path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(GoofiError::io("reading", path, &e)),
    };
    let scan = journal::scan_text(&text);
    let mut quarantine_whole_file = false;
    match &scan.campaign {
        Err(_) => {
            report.findings.push(finding(
                CorruptionClass::JournalBadHeader,
                path,
                "not a goofi journal (damaged header)",
            ));
            quarantine_whole_file = true;
        }
        Ok(campaign) => {
            if let Some(expected) = expect_campaign {
                if campaign != expected {
                    report.findings.push(finding(
                        CorruptionClass::SpoolShardMismatch,
                        path,
                        format!("journal names campaign `{campaign}`, manifest says `{expected}`"),
                    ));
                    quarantine_whole_file = true;
                }
            }
            if scan.garbled > 0 {
                report.findings.push(finding(
                    CorruptionClass::JournalGarbledEntry,
                    path,
                    format!(
                        "{} garbled entry line(s) before the tail ({} valid)",
                        scan.garbled, scan.valid
                    ),
                ));
            }
            if scan.torn_tail {
                report.findings.push(finding(
                    CorruptionClass::JournalTornTail,
                    path,
                    "final entry torn by a crash mid-append",
                ));
            }
        }
    }
    if report.clean() || !repair {
        return Ok(report);
    }
    let note = if quarantine_whole_file {
        let aside = vfs::quarantine(vfs, path)?;
        format!("quarantined to {}", aside.display())
    } else {
        // Repaired from this pass: the file is not read again.
        let outcome = scan.salvage(vfs, path)?;
        format!(
            "rewrote journal keeping {} entr{}, dropped {}",
            outcome.kept,
            if outcome.kept == 1 { "y" } else { "ies" },
            outcome.dropped
        )
    };
    for f in &mut report.findings {
        f.repaired = Some(note.clone());
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Spool
// ---------------------------------------------------------------------------

/// Checks (and optionally repairs) a campaign-service spool directory.
///
/// Detection: `job-*` directories without a manifest, manifests that do
/// not parse, and shard journals that are damaged or disagree with their
/// manifest's campaign. Repair: damaged job directories are renamed to
/// `quarantined-<id>` — a prefix [`crate::service::Scheduler`] never
/// resumes — and shard journals are salvaged or quarantined per
/// [`fsck_journal`]. A missing spool directory is clean.
///
/// # Errors
///
/// I/O errors from listing, reading, or rewriting.
pub fn fsck_spool(vfs: &dyn Vfs, spool: &Path, repair: bool) -> Result<FsckReport> {
    let mut report = FsckReport::default();
    if !vfs.exists(spool) {
        return Ok(report);
    }
    let mut entries = vfs
        .read_dir(spool)
        .map_err(|e| GoofiError::io("listing", spool, &e))?;
    entries.sort();
    for dir in entries {
        let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        if !name.starts_with("job-") {
            continue;
        }
        let manifest = scheduler::manifest_path(&dir);
        let campaign = match vfs::read_lossy(vfs, &manifest) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(finding(
                CorruptionClass::SpoolOrphanDir,
                &dir,
                "job directory has no manifest",
            )),
            Err(e) => return Err(GoofiError::io("reading", &manifest, &e)),
            Ok(text) => parse_manifest(&text)
                .map(|(campaign, _)| campaign)
                .ok_or_else(|| {
                    finding(
                        CorruptionClass::SpoolBadManifest,
                        &manifest,
                        "manifest does not parse",
                    )
                }),
        };
        let campaign = match campaign {
            Ok(campaign) => campaign,
            Err(mut f) => {
                if repair {
                    let aside = scheduler::quarantine_job_dir(vfs, spool, &name)?;
                    f.repaired = Some(format!("quarantined to {}", aside.display()));
                }
                report.findings.push(f);
                continue;
            }
        };
        let mut shards = vfs
            .read_dir(&dir)
            .map_err(|e| GoofiError::io("listing", &dir, &e))?;
        shards.sort();
        for shard in shards {
            let is_journal = shard
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(scheduler::is_shard_journal);
            if is_journal {
                report.merge(fsck_journal(vfs, &shard, Some(&campaign), repair)?);
            }
        }
    }
    Ok(report)
}

/// Parses a spool job manifest (`#goofi-job v1` / `campaign …` /
/// `workers …`) into its campaign and worker count, with the scheduler's
/// decoder.
pub fn parse_manifest(text: &str) -> Option<(String, usize)> {
    scheduler::decode_manifest(text).map(|(campaign, workers, _)| (campaign, workers))
}

// ---------------------------------------------------------------------------
// Everything
// ---------------------------------------------------------------------------

/// Runs every check: the database at `db_path`, its default spool
/// directory (`<db>.spool`), and optionally one campaign journal.
///
/// # Errors
///
/// I/O errors from any check.
pub fn fsck_all(
    vfs: &dyn Vfs,
    db_path: &Path,
    journal: Option<(&Path, &str)>,
    repair: bool,
) -> Result<FsckReport> {
    let mut report = fsck_database(vfs, db_path, repair)?;
    if let Some((path, campaign)) = journal {
        report.merge(fsck_journal(vfs, path, Some(campaign), repair)?);
    }
    let spool = PathBuf::from(format!("{}.spool", db_path.display()));
    report.merge(fsck_spool(vfs, &spool, repair)?);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logging::{StateSnapshot, TerminationCause, Validity};
    use crate::vfs::RealFs;

    fn temp_dir(name: &str) -> PathBuf {
        // Unique per call: the tests of one binary share a pid and run on
        // parallel threads, so the pid alone does not keep their dirs apart.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "goofi-fsck-test-{}-{}-{name}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seed_db() -> Database {
        let mut db = Database::new();
        dbio::init_schema(&mut db).unwrap();
        let mut campaign_row = vec![Value::Null; 17];
        campaign_row[0] = Value::text("c1");
        campaign_row[7] = Value::Int(2);
        db.insert(dbio::CAMPAIGN_TABLE, campaign_row).unwrap();
        let record = |name: &str| ExperimentRecord {
            name: name.into(),
            parent: None,
            campaign: "c1".into(),
            fault: None,
            termination: TerminationCause::WorkloadEnd,
            state: StateSnapshot::default(),
            trace: Vec::new(),
            validity: Validity::Valid,
        };
        dbio::log_experiment(&mut db, &record("c1/exp00000")).unwrap();
        dbio::log_experiment(&mut db, &record("c1/exp00001")).unwrap();
        db
    }

    #[test]
    fn clean_database_reports_clean() {
        let dir = temp_dir("clean-db");
        let path = dir.join("db.gdb");
        dbio::save_database(&RealFs, &path, &seed_db()).unwrap();
        let report = fsck_database(&RealFs, &path, false).unwrap();
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.render(), "fsck: clean");
        // Missing files are clean too.
        assert!(fsck_database(&RealFs, &dir.join("absent"), false)
            .unwrap()
            .clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_finds_damage_exactly_where_the_strict_load_refuses() {
        let dir = temp_dir("flip-db");
        let path = dir.join("db.gdb");
        dbio::save_database(&RealFs, &path, &seed_db()).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // Bit 7 makes the bytes invalid UTF-8.
        for (at, bit) in (0..pristine.len()).flat_map(|at| [(at, 0), (at, 7)]) {
            let mut flipped = pristine.clone();
            flipped[at] ^= 1 << bit;
            std::fs::write(&path, &flipped).unwrap();
            let report = fsck_database(&RealFs, &path, false).unwrap();
            assert_eq!(
                report.clean(),
                dbio::load_database(&RealFs, &path).is_ok(),
                "byte {at}, bit {bit}: {}",
                report.render()
            );
        }
        // Repair re-saves the lossy salvage, which loads.
        let mut flipped = pristine.clone();
        flipped[8] ^= 0x80;
        std::fs::write(&path, &flipped).unwrap();
        let report = fsck_database(&RealFs, &path, true).unwrap();
        assert_eq!(report.findings[0].class, CorruptionClass::DbUnreadable);
        dbio::load_database(&RealFs, &path).unwrap();
        assert!(fsck_database(&RealFs, &path, false).unwrap().clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_byte_in_a_schema_line_is_found() {
        let dir = temp_dir("schema-db");
        let path = dir.join("db.gdb");
        dbio::save_database(&RealFs, &path, &seed_db()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for (line, flipped) in [
            (
                format!("TABLE {}", dbio::LOG_TABLE),
                "TABLE LoggedSystemStatf".to_string(),
            ),
            (
                "COLUMN termination TEXT".into(),
                "COLUMN terminatiom TEXT".into(),
            ),
            ("FK campaignName ".into(), "FK campaignNamf ".into()),
        ] {
            let damaged = text.replacen(&line, &flipped, 1);
            assert_ne!(damaged, text, "{line}");
            std::fs::write(&path, damaged).unwrap();
            assert!(dbio::load_database(&RealFs, &path).is_err(), "{flipped}");
            let report = fsck_database(&RealFs, &path, false).unwrap();
            assert!(
                report
                    .findings
                    .iter()
                    .any(|f| f.class == CorruptionClass::DbChecksumMismatch),
                "{flipped}: {}",
                report.render()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbled_db_row_is_stubbed_on_repair() {
        let dir = temp_dir("garble-db");
        let path = dir.join("db.gdb");
        dbio::save_database(&RealFs, &path, &seed_db()).unwrap();
        // Garble exp00001's row payload (keep the name field intact).
        let text = std::fs::read_to_string(&path).unwrap();
        let garbled = text.replace("exp00001\tN\tT:c1\tN\tT:end", "exp00001\tN\tT:c1\tN\tX?end");
        assert_ne!(text, garbled);
        std::fs::write(&path, garbled).unwrap();

        let report = fsck_database(&RealFs, &path, false).unwrap();
        assert!(!report.clean());
        assert!(report
            .findings
            .iter()
            .any(|f| f.class == CorruptionClass::DbGarbledRow));
        assert!(report
            .findings
            .iter()
            .any(|f| f.class == CorruptionClass::DbChecksumMismatch));

        let report = fsck_database(&RealFs, &path, true).unwrap();
        assert!(report.repaired() > 0, "{}", report.render());
        // The repaired database loads strictly and documents the loss.
        let db = dbio::load_database(&RealFs, &path).unwrap();
        let lost = dbio::load_experiment(&db, "c1/exp00001").unwrap();
        assert_eq!(lost.validity, Validity::Invalid);
        let rerun = dbio::load_experiment(&db, "c1/exp00001/rerun1").unwrap();
        assert_eq!(rerun.parent.as_deref(), Some("c1/exp00001"));
        assert_eq!(rerun.validity, Validity::Invalid);
        assert!(fsck_database(&RealFs, &path, false).unwrap().clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_temp_and_unreadable_db_are_quarantined() {
        let dir = temp_dir("stray-db");
        let path = dir.join("db.gdb");
        std::fs::write(&path, "this is no database\n").unwrap();
        std::fs::write(dir.join("db.gdb.tmp"), "half a save").unwrap();
        let report = fsck_database(&RealFs, &path, true).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.class == CorruptionClass::DbStrayTemp));
        assert!(report
            .findings
            .iter()
            .any(|f| f.class == CorruptionClass::DbUnreadable));
        assert_eq!(report.repaired(), report.findings.len());
        assert!(!path.exists());
        assert!(dir.join("db.gdb.corrupt").exists());
        assert!(!dir.join("db.gdb.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spool_orphan_and_mismatch_are_quarantined() {
        let dir = temp_dir("spool");
        let spool = dir.join("db.gdb.spool");
        // job-1: no manifest at all.
        std::fs::create_dir_all(spool.join("job-1")).unwrap();
        // job-2: good manifest, but its shard journal names another
        // campaign.
        std::fs::create_dir_all(spool.join("job-2")).unwrap();
        std::fs::write(
            spool.join("job-2/manifest"),
            "#goofi-job v1\ncampaign c1\nworkers 1\n",
        )
        .unwrap();
        crate::journal::ExperimentJournal::create(spool.join("job-2/shard-0.gjl"), "other")
            .unwrap();
        // job-3: manifest garbage.
        std::fs::create_dir_all(spool.join("job-3")).unwrap();
        std::fs::write(spool.join("job-3/manifest"), "garbage\n").unwrap();

        let report = fsck_spool(&RealFs, &spool, false).unwrap();
        let classes: Vec<_> = report.findings.iter().map(|f| f.class).collect();
        assert!(classes.contains(&CorruptionClass::SpoolOrphanDir));
        assert!(classes.contains(&CorruptionClass::SpoolShardMismatch));
        assert!(classes.contains(&CorruptionClass::SpoolBadManifest));

        let report = fsck_spool(&RealFs, &spool, true).unwrap();
        assert_eq!(report.repaired(), report.findings.len());
        assert!(spool.join("quarantined-job-1").exists());
        assert!(spool.join("quarantined-job-3").exists());
        assert!(spool.join("job-2/shard-0.gjl.corrupt").exists());
        assert!(fsck_spool(&RealFs, &spool, false).unwrap().clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_parser_matches_writer_format() {
        assert_eq!(
            parse_manifest("#goofi-job v1\ncampaign c one\nworkers 3\n"),
            Some(("c one".to_string(), 3))
        );
        assert_eq!(parse_manifest("#goofi-job v1\ncampaign c\n"), None);
        assert_eq!(parse_manifest("nope\n"), None);
    }
}
