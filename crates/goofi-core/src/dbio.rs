//! Database storage: the paper's Figure 4 schema over `goofidb`.
//!
//! Three tables joined by foreign keys: `TargetSystemData` ("all information
//! about the target system required for setting up new fault injection
//! campaigns"), `CampaignData` ("all the information needed to conduct a
//! campaign") and `LoggedSystemState` ("the system state during and after an
//! experiment"), whose `parentExperiment` attribute links detail-mode
//! re-runs to the original experiment (§2.3).

use crate::algorithms::CampaignResult;
use crate::campaign::{
    Campaign, EnvExchange, ObserveList, OutputRegion, TargetSystemData, Technique, Termination,
    WorkloadImage,
};
use crate::fault::FaultSpec;
use crate::journal::JournalState;
use crate::logging::{ExperimentRecord, LoggingMode, StateSnapshot, TerminationCause, Validity};
use crate::supervisor::{RecoveryAction, RecoveryRecord, RecoveryStage, RecoveryTrigger};
use crate::telemetry::{Stage, Telemetry};
use crate::vfs::{self, Vfs};
use crate::{GoofiError, Result};
use goofidb::{Database, Value};
use std::path::Path;

/// Table name: target-system descriptions.
pub const TARGET_TABLE: &str = "TargetSystemData";
/// Table name: campaign configurations.
pub const CAMPAIGN_TABLE: &str = "CampaignData";
/// Table name: per-experiment logs.
pub const LOG_TABLE: &str = "LoggedSystemState";
/// Table name: recovery-ladder audit log (one row per applied action).
pub const RECOVERY_TABLE: &str = "RecoveryActions";

/// Creates the four tables (idempotent).
///
/// # Errors
///
/// Database errors other than "table exists".
pub fn init_schema(db: &mut Database) -> Result<()> {
    let stmts = [
        "CREATE TABLE TargetSystemData (
            name TEXT PRIMARY KEY,
            description TEXT,
            memoryWords INTEGER,
            locations TEXT)",
        "CREATE TABLE CampaignData (
            campaignName TEXT PRIMARY KEY,
            targetSystem TEXT,
            technique TEXT,
            workloadName TEXT,
            workloadImage TEXT,
            codeWords INTEGER,
            entry INTEGER,
            nrOfExperiments INTEGER,
            maxInstructions INTEGER,
            maxIterations INTEGER,
            loggingMode TEXT,
            observeChains TEXT,
            outputRegion TEXT,
            initialInputs TEXT,
            envExchange TEXT,
            faults TEXT,
            policy TEXT,
            FOREIGN KEY (targetSystem) REFERENCES TargetSystemData(name))",
        "CREATE TABLE LoggedSystemState (
            experimentName TEXT PRIMARY KEY,
            parentExperiment TEXT,
            campaignName TEXT,
            experimentData TEXT,
            termination TEXT,
            stateVector TEXT,
            trace TEXT,
            validity TEXT,
            FOREIGN KEY (campaignName) REFERENCES CampaignData(campaignName))",
        "CREATE TABLE RecoveryActions (
            actionName TEXT PRIMARY KEY,
            campaignName TEXT,
            experimentName TEXT,
            trigger TEXT,
            seq INTEGER,
            stage TEXT,
            attempt INTEGER,
            recovered INTEGER,
            detail TEXT,
            FOREIGN KEY (campaignName) REFERENCES CampaignData(campaignName))",
    ];
    for stmt in stmts {
        match db.execute(stmt) {
            Ok(_) => {}
            Err(goofidb::DbError::TableExists(_)) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Stores (or replaces) a target-system description.
///
/// # Errors
///
/// Database errors.
pub fn store_target_system(db: &mut Database, data: &TargetSystemData) -> Result<()> {
    let locations = data
        .locations
        .iter()
        .map(|(chain, cell, width, rw)| {
            format!("{chain}:{cell}:{width}:{}", if *rw { "rw" } else { "ro" })
        })
        .collect::<Vec<_>>()
        .join(";");
    // Replace an existing row of the same name.
    let existing = db
        .table(TARGET_TABLE)
        .is_some_and(|t| t.contains_key(data.name.as_str()));
    if existing {
        db.update_where(
            TARGET_TABLE,
            |row| row[0] == Value::text(data.name.clone()),
            |row| {
                row[1] = Value::text(data.description.clone());
                row[2] = Value::from(data.memory_words);
                row[3] = Value::text(locations.clone());
            },
        )?;
    } else {
        db.insert(
            TARGET_TABLE,
            vec![
                Value::text(data.name.clone()),
                Value::text(data.description.clone()),
                Value::from(data.memory_words),
                Value::text(locations),
            ],
        )?;
    }
    Ok(())
}

/// Loads a target-system description.
///
/// # Errors
///
/// Fails when the target system is unknown or the row is malformed.
pub fn load_target_system(db: &Database, name: &str) -> Result<TargetSystemData> {
    let table = db
        .table(TARGET_TABLE)
        .ok_or_else(|| GoofiError::Config(format!("no {TARGET_TABLE} table")))?;
    let row = table
        .find_by_key(name)
        .ok_or_else(|| GoofiError::Config(format!("unknown target system `{name}`")))?;
    let locations_text = row[3].as_text().unwrap_or_default();
    let mut locations = Vec::new();
    for entry in locations_text.split(';').filter(|e| !e.is_empty()) {
        let parts: Vec<&str> = entry.split(':').collect();
        if parts.len() != 4 {
            return Err(GoofiError::Config(format!("bad location entry `{entry}`")));
        }
        locations.push((
            parts[0].to_string(),
            parts[1].to_string(),
            parts[2]
                .parse()
                .map_err(|_| GoofiError::Config(format!("bad width in `{entry}`")))?,
            parts[3] == "rw",
        ));
    }
    Ok(TargetSystemData {
        name: name.to_string(),
        description: row[1].as_text().unwrap_or_default().to_string(),
        memory_words: row[2].as_int().unwrap_or(0) as u32,
        locations,
    })
}

/// Stores a campaign configuration (the set-up phase output).
///
/// # Errors
///
/// Fails when the referenced target system is absent (foreign key) or the
/// campaign name is taken.
pub fn store_campaign(db: &mut Database, campaign: &Campaign) -> Result<()> {
    let faults = campaign
        .faults
        .iter()
        .map(FaultSpec::encode)
        .collect::<Vec<_>>()
        .join("|");
    let inputs = campaign
        .initial_inputs
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",");
    db.insert(
        CAMPAIGN_TABLE,
        vec![
            Value::text(campaign.name.clone()),
            if campaign.target_system.is_empty() {
                Value::Null
            } else {
                Value::text(campaign.target_system.clone())
            },
            Value::text(campaign.technique.encode()),
            Value::text(campaign.workload.name.clone()),
            Value::text(campaign.workload.encode_words()),
            Value::from(campaign.workload.code_words),
            Value::from(campaign.workload.entry),
            Value::from(campaign.faults.len() as u64),
            Value::from(campaign.termination.max_instructions),
            campaign
                .termination
                .max_iterations
                .map_or(Value::Null, Value::from),
            Value::text(campaign.logging.encode()),
            Value::text(campaign.observe.chains.join(",")),
            Value::text(campaign.observe.output.encode()),
            Value::text(inputs),
            Value::text(campaign.env_exchange.encode()),
            Value::text(faults),
            Value::text(campaign.policy.encode()),
        ],
    )?;
    Ok(())
}

/// Replaces a stored campaign's configuration — the paper's §3.2 set-up
/// operation ("the user may also modify already stored campaign data
/// created for earlier fault injection campaigns").
///
/// # Errors
///
/// Fails when the campaign does not exist, or when experiments have
/// already been logged against it (results must stay reproducible from
/// their campaign row).
pub fn update_campaign(db: &mut Database, campaign: &Campaign) -> Result<()> {
    let exists = db
        .table(CAMPAIGN_TABLE)
        .is_some_and(|t| t.contains_key(campaign.name.as_str()));
    if !exists {
        return Err(GoofiError::Config(format!(
            "unknown campaign `{}`",
            campaign.name
        )));
    }
    let has_logs = db.table(LOG_TABLE).is_some_and(|t| {
        t.iter()
            .any(|row| row[2].as_text() == Some(campaign.name.as_str()))
    });
    if has_logs {
        return Err(GoofiError::Config(format!(
            "campaign `{}` already has logged experiments; merge into a new campaign instead",
            campaign.name
        )));
    }
    db.delete_where(CAMPAIGN_TABLE, |row| {
        row[0] == Value::text(campaign.name.clone())
    })?;
    store_campaign(db, campaign)
}

/// Loads a campaign back from the database (the paper's
/// `readCampaignData(campaignNr)` step).
///
/// # Errors
///
/// Fails on unknown campaigns or malformed rows.
pub fn load_campaign(db: &Database, name: &str) -> Result<Campaign> {
    let table = db
        .table(CAMPAIGN_TABLE)
        .ok_or_else(|| GoofiError::Config(format!("no {CAMPAIGN_TABLE} table")))?;
    let row = table
        .find_by_key(name)
        .ok_or_else(|| GoofiError::Config(format!("unknown campaign `{name}`")))?;
    let bad = |what: &str| GoofiError::Config(format!("campaign `{name}`: bad {what}"));

    let words = WorkloadImage::decode_words(row[4].as_text().unwrap_or_default())
        .ok_or_else(|| bad("workload image"))?;
    let mut faults = Vec::new();
    for f in row[15]
        .as_text()
        .unwrap_or_default()
        .split('|')
        .filter(|f| !f.is_empty())
    {
        faults.push(FaultSpec::decode(f).ok_or_else(|| bad("fault spec"))?);
    }
    let initial_inputs = row[13]
        .as_text()
        .unwrap_or_default()
        .split(',')
        .filter(|p| !p.is_empty())
        .map(str::parse)
        .collect::<std::result::Result<Vec<u32>, _>>()
        .map_err(|_| bad("initial inputs"))?;
    Ok(Campaign {
        name: name.to_string(),
        target_system: row[1].as_text().unwrap_or_default().to_string(),
        technique: Technique::decode(row[2].as_text().unwrap_or_default())
            .ok_or_else(|| bad("technique"))?,
        workload: WorkloadImage {
            name: row[3].as_text().unwrap_or_default().to_string(),
            words,
            code_words: row[5].as_int().unwrap_or(0) as u32,
            entry: row[6].as_int().unwrap_or(0) as u32,
        },
        faults,
        termination: Termination {
            max_instructions: row[8].as_int().unwrap_or(0) as u64,
            max_iterations: row[9].as_int().map(|v| v as u64),
        },
        logging: LoggingMode::decode(row[10].as_text().unwrap_or_default())
            .ok_or_else(|| bad("logging mode"))?,
        observe: ObserveList {
            chains: row[11]
                .as_text()
                .unwrap_or_default()
                .split(',')
                .filter(|c| !c.is_empty())
                .map(str::to_string)
                .collect(),
            output: OutputRegion::decode(row[12].as_text().unwrap_or_default())
                .ok_or_else(|| bad("output region"))?,
        },
        initial_inputs,
        env_exchange: EnvExchange::decode(row[14].as_text().unwrap_or_default())
            .ok_or_else(|| bad("envExchange"))?,
        // Databases saved before the policy column existed load with the
        // default (fail-fast) policy.
        policy: match row.get(16).and_then(|v| v.as_text()) {
            Some(text) => {
                crate::policy::ExperimentPolicy::decode(text).ok_or_else(|| bad("policy"))?
            }
            None => crate::policy::ExperimentPolicy::default(),
        },
    })
}

/// Logs one experiment to `LoggedSystemState`.
///
/// # Errors
///
/// Fails when the campaign row is absent (foreign key) or the experiment
/// name is taken.
pub fn log_experiment(db: &mut Database, record: &ExperimentRecord) -> Result<()> {
    let mut trace = String::new();
    for (i, state) in record.trace.iter().enumerate() {
        if i > 0 {
            trace.push_str("---\n");
        }
        state.encode_into(&mut trace, false);
    }
    let mut row = vec![
        Value::text(record.name.clone()),
        record.parent.clone().map_or(Value::Null, Value::text),
        Value::text(record.campaign.clone()),
        record
            .fault
            .as_ref()
            .map_or(Value::Null, |f| Value::text(f.encode())),
        Value::text(record.termination.encode()),
        Value::text(record.state.encode()),
        if trace.is_empty() {
            Value::Null
        } else {
            Value::text(trace)
        },
        Value::text(record.validity.encode()),
    ];
    // Database files created before the validity column existed have a
    // seven-column LoggedSystemState; keep logging into them (their records
    // are all implicitly valid).
    if let Some(t) = db.table(LOG_TABLE) {
        row.truncate(t.schema().columns.len());
    }
    db.insert(LOG_TABLE, row)?;
    Ok(())
}

/// Stores a full campaign result: the reference run, all experiments, and
/// any quarantined records (kept for audit alongside their authoritative
/// re-runs). Idempotent by experiment name, so a result assembled after a
/// resume can be stored over records already salvaged from a partial run or
/// imported from a journal.
///
/// # Errors
///
/// Database errors (the campaign row must already exist).
pub fn store_result(db: &mut Database, result: &CampaignResult) -> Result<()> {
    store_result_traced(db, result, &Telemetry::disabled())
}

/// [`store_result`] with each record's insert timed as a `db-write` span in
/// the given telemetry handle.
///
/// # Errors
///
/// Database errors (the campaign row must already exist).
pub fn store_result_traced(
    db: &mut Database,
    result: &CampaignResult,
    tel: &Telemetry,
) -> Result<()> {
    let records = std::iter::once(&result.reference)
        .chain(&result.records)
        .chain(&result.quarantined);
    log_new_records(db, records, tel).map(drop)
}

/// Logs each record whose experiment name is not in `LoggedSystemState`
/// yet, timing each insert as a `db-write` span; returns how many it
/// logged. Every idempotent store and import goes through here.
fn log_new_records<'r>(
    db: &mut Database,
    records: impl IntoIterator<Item = &'r ExperimentRecord>,
    tel: &Telemetry,
) -> Result<usize> {
    let mut inserted = 0;
    for record in records {
        let logged = db
            .table(LOG_TABLE)
            .is_some_and(|t| t.contains_key(record.name.as_str()));
        if !logged {
            tel.time(Stage::DbWrite, || log_experiment(db, record))?;
            inserted += 1;
        }
    }
    Ok(inserted)
}

/// Logs every action of the given recovery episodes to `RecoveryActions`,
/// one row per ladder step, keyed `{experiment}@{trigger}#{seq}` so storing
/// the same episodes twice (e.g. after a resume) is idempotent. Databases
/// created before the table existed are upgraded in place by
/// [`init_schema`]; call that first.
///
/// # Errors
///
/// Database errors (the campaign row must already exist).
pub fn log_recovery_actions(
    db: &mut Database,
    campaign: &str,
    recoveries: &[RecoveryRecord],
) -> Result<()> {
    let existing = |db: &Database, name: &str| {
        db.table(RECOVERY_TABLE)
            .is_some_and(|t| t.contains_key(name))
    };
    for episode in recoveries {
        for (seq, action) in episode.actions.iter().enumerate() {
            let key = format!("{}@{}#{seq}", episode.experiment, episode.trigger.encode());
            if existing(db, &key) {
                continue;
            }
            db.insert(
                RECOVERY_TABLE,
                vec![
                    Value::text(key),
                    Value::text(campaign.to_string()),
                    Value::text(episode.experiment.clone()),
                    Value::text(episode.trigger.encode()),
                    Value::from(seq as u64),
                    Value::text(action.stage.encode()),
                    Value::from(u64::from(action.attempt)),
                    Value::from(u64::from(action.recovered)),
                    Value::text(action.detail.clone()),
                ],
            )?;
        }
    }
    Ok(())
}

/// Loads a campaign's recovery episodes back from `RecoveryActions`,
/// grouping rows into [`RecoveryRecord`]s. Returns an empty vector when the
/// table is absent (pre-supervision database).
///
/// # Errors
///
/// Fails on malformed rows.
pub fn load_recovery_actions(db: &Database, campaign: &str) -> Result<Vec<RecoveryRecord>> {
    let Some(table) = db.table(RECOVERY_TABLE) else {
        return Ok(Vec::new());
    };
    let bad = |what: &str| GoofiError::Config(format!("recovery action: bad {what}"));
    let mut rows = Vec::new();
    for row in table.iter() {
        if row[1].as_text() != Some(campaign) {
            continue;
        }
        let experiment = row[2].as_text().unwrap_or_default().to_string();
        let trigger = RecoveryTrigger::decode(row[3].as_text().unwrap_or_default())
            .ok_or_else(|| bad("trigger"))?;
        let seq = row[4].as_int().ok_or_else(|| bad("seq"))?;
        let action = RecoveryAction {
            stage: RecoveryStage::decode(row[5].as_text().unwrap_or_default())
                .ok_or_else(|| bad("stage"))?,
            attempt: row[6].as_int().ok_or_else(|| bad("attempt"))? as u32,
            recovered: row[7].as_int().ok_or_else(|| bad("recovered"))? != 0,
            detail: row[8].as_text().unwrap_or_default().to_string(),
        };
        rows.push((experiment, trigger, seq, action));
    }
    rows.sort_by(|a, b| (&a.0, a.1.encode(), a.2).cmp(&(&b.0, b.1.encode(), b.2)));
    let mut episodes: Vec<RecoveryRecord> = Vec::new();
    for (experiment, trigger, _, action) in rows {
        match episodes.last_mut() {
            Some(e) if e.experiment == experiment && e.trigger == trigger => {
                e.recovered = e.recovered || action.recovered;
                e.actions.push(action);
            }
            _ => episodes.push(RecoveryRecord {
                experiment,
                trigger,
                recovered: action.recovered,
                actions: vec![action],
            }),
        }
    }
    Ok(episodes)
}

/// Imports the records of a crash-safe experiment journal (see
/// [`crate::journal`]) into `LoggedSystemState`, skipping experiments
/// already present — so a journal can be folded into the database after a
/// crash, idempotently. Returns how many records were inserted.
///
/// This is also the campaign service's merge primitive: the scheduler
/// folds every shard journal of a finished job through here (in shard
/// order), and the name-keyed dedup is what turns the service's
/// at-least-once execution into an exactly-once database.
///
/// # Errors
///
/// Journal read errors and database errors (the campaign row must exist).
pub fn import_journal(
    db: &mut Database,
    path: impl AsRef<std::path::Path>,
    campaign: &str,
) -> Result<usize> {
    import_journal_with(db, &vfs::RealFs, path, campaign)
}

/// [`import_journal`] over an explicit [`Vfs`] — the seam the durability
/// torture harness injects faults through.
///
/// # Errors
///
/// As [`import_journal`].
pub fn import_journal_with(
    db: &mut Database,
    vfs: &dyn Vfs,
    path: impl AsRef<std::path::Path>,
    campaign: &str,
) -> Result<usize> {
    let state = crate::journal::ExperimentJournal::load_with(vfs, path, campaign)?;
    import_journal_state(db, &state)
}

/// Imports an already loaded journal: [`import_journal`] minus the read.
/// The service merge calls this with the state each shard's completion
/// check loaded, so it reads no journal a second time.
///
/// # Errors
///
/// Database errors (the campaign row must exist).
pub fn import_journal_state(db: &mut Database, state: &JournalState) -> Result<usize> {
    let records = state
        .reference
        .iter()
        .chain(state.completed.values())
        .chain(&state.quarantined);
    log_new_records(db, records, &Telemetry::disabled())
}

/// Saves the database through a [`Vfs`] with [`vfs::atomic_write`]'s
/// temp-file, `fsync`, rename discipline: the one way a database file is
/// written, and the seam the torture harness injects faults through.
///
/// # Errors
///
/// I/O errors, surfaced as [`GoofiError::Io`] with the offending path.
pub fn save_database(vfs: &dyn Vfs, path: impl AsRef<Path>, db: &Database) -> Result<()> {
    let path = path.as_ref();
    vfs::atomic_write(vfs, path, db.save_to_string().as_bytes())
        .map_err(|e| GoofiError::io("saving database to", path, &e))
}

/// Loads a database through a [`Vfs`], verifying every table's `CHECK`
/// checksum footer. A checksum mismatch surfaces as
/// [`goofidb::DbError::Corrupt`] with a hint to run `goofi fsck --repair`.
/// The same reader, salvaging, gives fsck its verdict, so fsck finds
/// damage in exactly the files this load refuses.
///
/// # Errors
///
/// I/O errors ([`GoofiError::Io`]) and corruption/parse errors
/// ([`GoofiError::Db`]).
pub fn load_database(vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<Database> {
    let text = read_strict(vfs, path.as_ref())?;
    Database::load_from_string(&text).map_err(strict_load_error)
}

/// Loads one campaign from a database file without loading the database:
/// only the `TargetSystemData` and `CampaignData` blocks are decoded and
/// checked against their `CHECK` footers, and every other block is
/// skipped undecoded. Returns what [`load_campaign`] returns after a full
/// [`load_database`], at a cost that does not grow with the logged
/// experiments. The service's shard workers and its restart path read
/// their campaign this way.
///
/// # Errors
///
/// As [`load_database`] for the two campaign tables, and as
/// [`load_campaign`].
pub fn load_campaign_from(vfs: &dyn Vfs, path: impl AsRef<Path>, name: &str) -> Result<Campaign> {
    let text = read_strict(vfs, path.as_ref())?;
    let db = Database::load_tables_from_string(&text, &[TARGET_TABLE, CAMPAIGN_TABLE])
        .map_err(strict_load_error)?;
    load_campaign(&db, name)
}

/// The one read of a database file, behind the strict loads and fsck: its
/// text, with `U+FFFD` for invalid UTF-8, and whether it was valid UTF-8.
/// A file that is not is damaged: the strict loads refuse it, and fsck
/// reports it and repairs it from the lossy text.
///
/// # Errors
///
/// Propagated (or injected) I/O errors.
pub(crate) fn read_database(vfs: &dyn Vfs, path: &Path) -> std::io::Result<(String, bool)> {
    vfs.read_bytes(path).map(vfs::lossy)
}

/// [`read_database`] for the strict loads: invalid UTF-8 is refused, not
/// decoded lossily, since a replaced byte in a schema line would load as
/// a renamed table or column.
fn read_strict(vfs: &dyn Vfs, path: &Path) -> Result<String> {
    let read = read_database(vfs, path).and_then(|(text, utf8)| {
        utf8.then_some(text).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8 (run `goofi fsck --repair` to salvage)",
            )
        })
    });
    read.map_err(|e| GoofiError::io("loading database from", path, &e))
}

/// A strict load's error, with the salvage hint on corruption.
fn strict_load_error(e: goofidb::DbError) -> GoofiError {
    match e {
        goofidb::DbError::Corrupt { table, detail } => GoofiError::Db(goofidb::DbError::Corrupt {
            table,
            detail: format!("{detail} (run `goofi fsck --repair` to salvage)"),
        }),
        other => GoofiError::Db(other),
    }
}

/// Loads one experiment record by name.
///
/// # Errors
///
/// Fails on unknown experiments or malformed rows.
pub fn load_experiment(db: &Database, name: &str) -> Result<ExperimentRecord> {
    let table = db
        .table(LOG_TABLE)
        .ok_or_else(|| GoofiError::Config(format!("no {LOG_TABLE} table")))?;
    let row = table
        .find_by_key(name)
        .ok_or_else(|| GoofiError::Config(format!("unknown experiment `{name}`")))?;
    decode_log_row(row)
}

/// Loads every experiment of a campaign (reference first, when present).
///
/// # Errors
///
/// Fails on malformed rows.
pub fn load_experiments(db: &Database, campaign: &str) -> Result<Vec<ExperimentRecord>> {
    let table = db
        .table(LOG_TABLE)
        .ok_or_else(|| GoofiError::Config(format!("no {LOG_TABLE} table")))?;
    let mut records = Vec::new();
    for row in table.iter() {
        if row[2].as_text() == Some(campaign) {
            records.push(decode_log_row(row)?);
        }
    }
    // Length-then-lexicographic keeps numeric order even past the 5-digit
    // zero padding of experiment names.
    records.sort_by_key(|r| (!r.is_reference(), r.name.len(), r.name.clone()));
    Ok(records)
}

fn decode_log_row(row: &[Value]) -> Result<ExperimentRecord> {
    let name = row[0].as_text().unwrap_or_default().to_string();
    let bad = |what: &str| GoofiError::Config(format!("experiment `{name}`: bad {what}"));
    let fault = match row[3].as_text() {
        Some(s) => Some(FaultSpec::decode(s).ok_or_else(|| bad("experimentData"))?),
        None => None,
    };
    let termination = TerminationCause::decode(row[4].as_text().unwrap_or_default())
        .ok_or_else(|| bad("termination"))?;
    let state = StateSnapshot::decode(row[5].as_text().unwrap_or_default())
        .ok_or_else(|| bad("stateVector"))?;
    let mut trace = Vec::new();
    if let Some(text) = row[6].as_text() {
        for part in text.split("---\n") {
            trace.push(StateSnapshot::decode(part).ok_or_else(|| bad("trace"))?);
        }
    }
    // Rows written before the validity column existed decode as valid.
    let validity = match row.get(7).and_then(|v| v.as_text()) {
        Some(text) => Validity::decode(text).ok_or_else(|| bad("validity"))?,
        None => Validity::Valid,
    };
    Ok(ExperimentRecord {
        name: name.clone(),
        parent: row[1].as_text().map(str::to_string),
        campaign: row[2].as_text().unwrap_or_default().to_string(),
        fault,
        termination,
        state,
        trace,
        validity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultLocation;
    use crate::trigger::Trigger;

    fn demo_campaign() -> Campaign {
        Campaign::builder("c1")
            .target_system("thor-rd")
            .technique(Technique::Scifi)
            .workload(WorkloadImage {
                name: "w".into(),
                words: vec![0xDEADBEEF, 0x01000000],
                code_words: 2,
                entry: 0,
            })
            .observe_chains(["internal"])
            .output(OutputRegion::Memory { addr: 10, len: 2 })
            .initial_inputs(vec![5, 6])
            .fault(FaultSpec::single(
                FaultLocation::ScanCell {
                    chain: "internal".into(),
                    cell: "R1".into(),
                    bit: 4,
                },
                Trigger::AfterInstructions(100),
            ))
            .fault(FaultSpec::single(
                FaultLocation::Memory { addr: 3, bit: 7 },
                Trigger::Breakpoint(1),
            ))
            .build()
            .unwrap()
    }

    fn demo_target() -> TargetSystemData {
        TargetSystemData {
            name: "thor-rd".into(),
            description: "simulated thor".into(),
            memory_words: 65536,
            locations: vec![
                ("internal".into(), "R1".into(), 32, true),
                ("internal".into(), "DETECT".into(), 32, false),
            ],
        }
    }

    #[test]
    fn schema_is_idempotent() {
        let mut db = Database::new();
        init_schema(&mut db).unwrap();
        init_schema(&mut db).unwrap();
        assert_eq!(db.table_names().len(), 4);
    }

    #[test]
    fn target_system_roundtrip() {
        let mut db = Database::new();
        init_schema(&mut db).unwrap();
        let t = demo_target();
        store_target_system(&mut db, &t).unwrap();
        assert_eq!(load_target_system(&db, "thor-rd").unwrap(), t);
        // Re-store replaces.
        let mut t2 = t.clone();
        t2.description = "updated".into();
        store_target_system(&mut db, &t2).unwrap();
        assert_eq!(load_target_system(&db, "thor-rd").unwrap(), t2);
        assert!(load_target_system(&db, "nope").is_err());
    }

    #[test]
    fn campaign_roundtrip() {
        let mut db = Database::new();
        init_schema(&mut db).unwrap();
        store_target_system(&mut db, &demo_target()).unwrap();
        let c = demo_campaign();
        store_campaign(&mut db, &c).unwrap();
        assert_eq!(load_campaign(&db, "c1").unwrap(), c);
        assert!(load_campaign(&db, "nope").is_err());
    }

    #[test]
    fn campaign_policy_roundtrips() {
        let mut db = Database::new();
        init_schema(&mut db).unwrap();
        store_target_system(&mut db, &demo_target()).unwrap();
        let mut c = demo_campaign();
        c.policy = crate::policy::ExperimentPolicy::retry_then_skip(3)
            .with_backoff(crate::policy::Backoff::exponential(5, 50))
            .with_watchdog(crate::policy::WatchdogBudget {
                max_cycles: Some(50_000),
                max_wall_ms: Some(1_000),
            });
        store_campaign(&mut db, &c).unwrap();
        assert_eq!(load_campaign(&db, "c1").unwrap(), c);
    }

    #[test]
    fn import_journal_is_idempotent() {
        let mut db = Database::new();
        init_schema(&mut db).unwrap();
        store_target_system(&mut db, &demo_target()).unwrap();
        let c = demo_campaign();
        store_campaign(&mut db, &c).unwrap();

        let mut path = std::env::temp_dir();
        path.push(format!("goofi-dbio-import-{}.gjl", std::process::id()));
        let mut journal = crate::journal::ExperimentJournal::create(&path, "c1").unwrap();
        let reference = ExperimentRecord {
            name: "c1/reference".into(),
            parent: None,
            campaign: "c1".into(),
            fault: None,
            termination: TerminationCause::WorkloadEnd,
            state: StateSnapshot::default(),
            trace: vec![],
            validity: Validity::Valid,
        };
        let exp = ExperimentRecord {
            name: "c1/exp00000".into(),
            fault: Some(c.faults[0].clone()),
            ..reference.clone()
        };
        journal.append_record(None, &reference).unwrap();
        journal.append_record(Some(0), &exp).unwrap();
        drop(journal);

        assert_eq!(import_journal(&mut db, &path, "c1").unwrap(), 2);
        // Importing again inserts nothing new.
        assert_eq!(import_journal(&mut db, &path, "c1").unwrap(), 0);
        assert_eq!(load_experiments(&db, "c1").unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn campaign_fk_requires_target_system() {
        let mut db = Database::new();
        init_schema(&mut db).unwrap();
        let e = store_campaign(&mut db, &demo_campaign()).unwrap_err();
        assert!(matches!(
            e,
            GoofiError::Db(goofidb::DbError::ForeignKeyViolation { .. })
        ));
    }

    #[test]
    fn update_campaign_replaces_until_logs_exist() {
        let mut db = Database::new();
        init_schema(&mut db).unwrap();
        store_target_system(&mut db, &demo_target()).unwrap();
        let mut c = demo_campaign();
        store_campaign(&mut db, &c).unwrap();

        // Modify the stored set-up (paper §3.2).
        c.termination.max_instructions = 42;
        c.faults.truncate(1);
        update_campaign(&mut db, &c).unwrap();
        assert_eq!(load_campaign(&db, "c1").unwrap(), c);

        // Unknown campaigns are rejected.
        let mut other = c.clone();
        other.name = "nope".into();
        assert!(update_campaign(&mut db, &other).is_err());

        // Once experiments are logged, the campaign is frozen.
        log_experiment(
            &mut db,
            &ExperimentRecord {
                name: "c1/exp00000".into(),
                parent: None,
                campaign: "c1".into(),
                fault: Some(c.faults[0].clone()),
                termination: TerminationCause::WorkloadEnd,
                state: StateSnapshot::default(),
                trace: vec![],
                validity: Validity::Valid,
            },
        )
        .unwrap();
        assert!(update_campaign(&mut db, &c).is_err());
    }

    #[test]
    fn experiment_roundtrip_including_parent_and_trace() {
        let mut db = Database::new();
        init_schema(&mut db).unwrap();
        store_target_system(&mut db, &demo_target()).unwrap();
        let c = demo_campaign();
        store_campaign(&mut db, &c).unwrap();

        let mut snap = StateSnapshot {
            memory_digest: 42,
            outputs: vec![1, 2],
            ..Default::default()
        };
        snap.scan.insert("internal".into(), "0110".into());
        let record = ExperimentRecord {
            name: "c1/exp00000".into(),
            parent: None,
            campaign: "c1".into(),
            fault: Some(c.faults[0].clone()),
            termination: TerminationCause::WorkloadEnd,
            state: snap.clone(),
            trace: vec![snap.clone(), snap.clone()],
            validity: Validity::Valid,
        };
        log_experiment(&mut db, &record).unwrap();
        assert_eq!(load_experiment(&db, "c1/exp00000").unwrap(), record);

        // A detail-mode re-run referencing its parent (paper §2.3).
        let rerun = ExperimentRecord {
            name: "c1/exp00000/detail".into(),
            parent: Some("c1/exp00000".into()),
            ..record.clone()
        };
        log_experiment(&mut db, &rerun).unwrap();
        let loaded = load_experiment(&db, "c1/exp00000/detail").unwrap();
        assert_eq!(loaded.parent.as_deref(), Some("c1/exp00000"));
    }

    #[test]
    fn load_experiments_sorts_reference_first() {
        let mut db = Database::new();
        init_schema(&mut db).unwrap();
        store_target_system(&mut db, &demo_target()).unwrap();
        let c = demo_campaign();
        store_campaign(&mut db, &c).unwrap();

        let make = |name: &str, fault: Option<FaultSpec>| ExperimentRecord {
            name: name.into(),
            parent: None,
            campaign: "c1".into(),
            fault,
            termination: TerminationCause::WorkloadEnd,
            state: StateSnapshot::default(),
            trace: vec![],
            validity: Validity::Valid,
        };
        log_experiment(&mut db, &make("c1/exp00001", Some(c.faults[0].clone()))).unwrap();
        log_experiment(&mut db, &make("c1/reference", None)).unwrap();
        log_experiment(&mut db, &make("c1/exp00000", Some(c.faults[1].clone()))).unwrap();

        let records = load_experiments(&db, "c1").unwrap();
        assert_eq!(records.len(), 3);
        assert!(records[0].is_reference());
        assert_eq!(records[1].name, "c1/exp00000");
        assert_eq!(records[2].name, "c1/exp00001");
        assert!(load_experiments(&db, "other").unwrap().is_empty());
    }

    #[test]
    fn validity_roundtrips_and_legacy_tables_still_log() {
        let mut db = Database::new();
        init_schema(&mut db).unwrap();
        store_target_system(&mut db, &demo_target()).unwrap();
        let c = demo_campaign();
        store_campaign(&mut db, &c).unwrap();

        let mut record = ExperimentRecord {
            name: "c1/exp00000".into(),
            parent: None,
            campaign: "c1".into(),
            fault: Some(c.faults[0].clone()),
            termination: TerminationCause::WorkloadEnd,
            state: StateSnapshot::default(),
            trace: vec![],
            validity: Validity::Invalid,
        };
        log_experiment(&mut db, &record).unwrap();
        assert_eq!(
            load_experiment(&db, "c1/exp00000").unwrap().validity,
            Validity::Invalid
        );

        // A database created before the validity column existed keeps
        // accepting logs; its records load as valid.
        let mut old = Database::new();
        old.execute(
            "CREATE TABLE LoggedSystemState (
                experimentName TEXT PRIMARY KEY,
                parentExperiment TEXT,
                campaignName TEXT,
                experimentData TEXT,
                termination TEXT,
                stateVector TEXT,
                trace TEXT)",
        )
        .unwrap();
        record.campaign = String::new();
        record.fault = None;
        log_experiment(&mut old, &record).unwrap();
        assert_eq!(
            load_experiment(&old, "c1/exp00000").unwrap().validity,
            Validity::Valid
        );
    }

    #[test]
    fn store_result_includes_quarantined_records() {
        let mut db = Database::new();
        init_schema(&mut db).unwrap();
        store_target_system(&mut db, &demo_target()).unwrap();
        let c = demo_campaign();
        store_campaign(&mut db, &c).unwrap();

        let reference = ExperimentRecord {
            name: "c1/reference".into(),
            parent: None,
            campaign: "c1".into(),
            fault: None,
            termination: TerminationCause::WorkloadEnd,
            state: StateSnapshot::default(),
            trace: vec![],
            validity: Validity::Valid,
        };
        let quarantined = ExperimentRecord {
            name: "c1/exp00000".into(),
            fault: Some(c.faults[0].clone()),
            validity: Validity::Invalid,
            ..reference.clone()
        };
        let rerun = ExperimentRecord {
            name: "c1/exp00000/rerun1".into(),
            parent: Some("c1/exp00000".into()),
            fault: Some(c.faults[0].clone()),
            ..reference.clone()
        };
        let result = CampaignResult {
            reference,
            records: vec![rerun],
            failures: vec![],
            quarantined: vec![quarantined],
            recoveries: vec![],
        };
        store_result(&mut db, &result).unwrap();
        let records = load_experiments(&db, "c1").unwrap();
        assert_eq!(records.len(), 3);
        let stored = load_experiment(&db, "c1/exp00000").unwrap();
        assert_eq!(stored.validity, Validity::Invalid);
        let stored = load_experiment(&db, "c1/exp00000/rerun1").unwrap();
        assert_eq!(stored.parent.as_deref(), Some("c1/exp00000"));
        assert_eq!(stored.validity, Validity::Valid);
    }

    #[test]
    fn recovery_actions_roundtrip_and_are_idempotent() {
        let mut db = Database::new();
        init_schema(&mut db).unwrap();
        store_target_system(&mut db, &demo_target()).unwrap();
        store_campaign(&mut db, &demo_campaign()).unwrap();

        let episodes = vec![
            RecoveryRecord {
                experiment: "c1/exp00002".into(),
                trigger: RecoveryTrigger::TargetHang,
                actions: vec![
                    RecoveryAction {
                        stage: RecoveryStage::SoftReset,
                        attempt: 1,
                        recovered: false,
                        detail: "chain `internal`: two idle captures disagree".into(),
                    },
                    RecoveryAction {
                        stage: RecoveryStage::ReinitTestCard,
                        attempt: 1,
                        recovered: true,
                        detail: String::new(),
                    },
                ],
                recovered: true,
            },
            RecoveryRecord {
                experiment: "c1/exp00005".into(),
                trigger: RecoveryTrigger::ProbeFailure,
                actions: vec![RecoveryAction {
                    stage: RecoveryStage::Offline,
                    attempt: 1,
                    recovered: false,
                    detail: "every recovery stage exhausted".into(),
                }],
                recovered: false,
            },
        ];
        log_recovery_actions(&mut db, "c1", &episodes).unwrap();
        // Logging again inserts nothing new.
        log_recovery_actions(&mut db, "c1", &episodes).unwrap();
        assert_eq!(load_recovery_actions(&db, "c1").unwrap(), episodes);
        assert!(load_recovery_actions(&db, "other").unwrap().is_empty());

        // Pre-supervision databases simply have no episodes.
        let old = Database::new();
        assert!(load_recovery_actions(&old, "c1").unwrap().is_empty());
    }

    #[test]
    fn experiment_fk_requires_campaign() {
        let mut db = Database::new();
        init_schema(&mut db).unwrap();
        let record = ExperimentRecord {
            name: "x".into(),
            parent: None,
            campaign: "missing".into(),
            fault: None,
            termination: TerminationCause::Timeout,
            state: StateSnapshot::default(),
            trace: vec![],
            validity: Validity::Valid,
        };
        assert!(log_experiment(&mut db, &record).is_err());
    }
}
