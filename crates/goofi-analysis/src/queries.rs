//! Automatic analysis of the `LoggedSystemState` table — the paper's §4
//! extension ("automatic generation of software for analysing the database
//! table LoggedSystemState").
//!
//! [`analyse_campaign`] classifies every experiment of a campaign straight
//! from the database, writes the results to an `AnalysisResults` table, and
//! the canned SQL here then produces the report tables — completing the
//! database-centric analysis loop that the paper's users had to script by
//! hand.

use crate::classify::{classify_campaign, ClassifiedExperiment};
use crate::stats::CampaignStats;
use goofi_core::dbio;
use goofi_core::{GoofiError, Result};
use goofidb::{Database, QueryResult, Value};

/// Name of the classification results table.
pub const ANALYSIS_TABLE: &str = "AnalysisResults";

/// Creates the `AnalysisResults` table (idempotent).
///
/// # Errors
///
/// Database errors other than "table exists".
pub fn init_analysis_table(db: &mut Database) -> Result<()> {
    match db.execute(
        "CREATE TABLE AnalysisResults (
            experimentName TEXT PRIMARY KEY,
            campaignName TEXT,
            outcome TEXT,
            mechanism TEXT,
            locationClass TEXT,
            trig TEXT,
            FOREIGN KEY (experimentName) REFERENCES LoggedSystemState(experimentName),
            FOREIGN KEY (campaignName) REFERENCES CampaignData(campaignName))",
    ) {
        Ok(_) => Ok(()),
        Err(goofidb::DbError::TableExists(_)) => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Loads a campaign's experiments, classifies them against the reference
/// run, and stores the classifications. Returns the classified list.
///
/// # Errors
///
/// Fails when the campaign has no logged reference run or on database
/// errors.
pub fn analyse_campaign(db: &mut Database, campaign: &str) -> Result<Vec<ClassifiedExperiment>> {
    let records = dbio::load_experiments(db, campaign)?;
    let reference = records
        .iter()
        .find(|r| r.is_reference())
        .cloned()
        .ok_or_else(|| {
            GoofiError::Config(format!("campaign `{campaign}` has no logged reference run"))
        })?;
    let classified = classify_campaign(&reference, &records);
    init_analysis_table(db)?;
    // Re-analysis replaces previous results for the campaign.
    let _ = db.delete_where(ANALYSIS_TABLE, |row| row[1].as_text() == Some(campaign))?;
    for c in &classified {
        db.insert(
            ANALYSIS_TABLE,
            vec![
                Value::text(c.name.clone()),
                Value::text(campaign),
                Value::text(c.outcome.category()),
                c.outcome.mechanism().map_or(Value::Null, Value::text),
                c.location_class.clone().map_or(Value::Null, Value::text),
                c.trigger.clone().map_or(Value::Null, Value::text),
            ],
        )?;
    }
    Ok(classified)
}

/// Statistics for a campaign straight from the database (classifying on the
/// fly; nothing is written).
///
/// # Errors
///
/// Same conditions as [`analyse_campaign`].
pub fn campaign_stats(db: &Database, campaign: &str) -> Result<CampaignStats> {
    let records = dbio::load_experiments(db, campaign)?;
    let reference = records
        .iter()
        .find(|r| r.is_reference())
        .cloned()
        .ok_or_else(|| {
            GoofiError::Config(format!("campaign `{campaign}` has no logged reference run"))
        })?;
    Ok(CampaignStats::from_classified(&classify_campaign(
        &reference, &records,
    )))
}

/// SQL: outcome distribution of a campaign (requires [`analyse_campaign`]).
///
/// # Errors
///
/// Database errors.
pub fn outcome_distribution(db: &Database, campaign: &str) -> Result<QueryResult> {
    Ok(db.query(&format!(
        "SELECT outcome, COUNT(*) AS n FROM AnalysisResults
         WHERE campaignName = {} GROUP BY outcome ORDER BY n DESC, outcome",
        literal(campaign)
    ))?)
}

/// SQL: detections per mechanism (requires [`analyse_campaign`]).
///
/// # Errors
///
/// Database errors.
pub fn mechanism_distribution(db: &Database, campaign: &str) -> Result<QueryResult> {
    Ok(db.query(&format!(
        "SELECT mechanism, COUNT(*) AS n FROM AnalysisResults
         WHERE campaignName = {} AND mechanism IS NOT NULL
         GROUP BY mechanism ORDER BY n DESC, mechanism",
        literal(campaign)
    ))?)
}

/// SQL: experiments worth re-running in detail mode — the escaped errors
/// (the paper's §2.3 fail-silence-violation example).
///
/// # Errors
///
/// Database errors.
pub fn escaped_experiments(db: &Database, campaign: &str) -> Result<QueryResult> {
    Ok(db.query(&format!(
        "SELECT experimentName FROM AnalysisResults
         WHERE campaignName = {} AND outcome = 'escaped'
         ORDER BY experimentName",
        literal(campaign)
    ))?)
}

/// `text` as an SQL string literal: quoted, with each `'` doubled.
fn literal(text: &str) -> String {
    format!("'{}'", text.replace('\'', "''"))
}
