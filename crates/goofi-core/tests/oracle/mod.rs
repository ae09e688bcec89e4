//! The essence oracle behind goofi-core's service, durability and network
//! suites: a small [`SimTarget`] campaign, its fault-free serial run, and
//! the check that a database written any other way (merged shards, a
//! resume after a crash, a run under network faults) holds the same
//! records. A record's essence is its fault, termination, logged state and
//! validity: what sharding, resuming or re-running must not change.

// Each test binary that includes this module uses only part of it.
#![allow(dead_code)]

use goofi_core::algorithms;
use goofi_core::campaign::{Campaign, OutputRegion, Termination, WorkloadImage};
use goofi_core::dbio;
use goofi_core::fault::{FaultLocation, FaultSpec};
use goofi_core::framework::SimTarget;
use goofi_core::logging::{ExperimentRecord, TerminationCause, Validity};
use goofi_core::monitor::ProgressMonitor;
use goofi_core::service::{ServiceConfig, WorkerCommand};
use goofi_core::trigger::Trigger;
use goofi_core::vfs::RealFs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A fresh, empty directory in the temporary directory, unique per call:
/// the tests of one binary share a pid and run on parallel threads, so the
/// pid alone does not keep their directories apart.
pub fn temp_dir(name: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "goofi-{}-{}-{}-{name}",
        env!("CARGO_CRATE_NAME"),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `faults` single bit flips in [`SimTarget`]'s cell `A`, experiment `i`
/// flipping bit `i % 8` after `5 + i` instructions of a 60-instruction
/// workload.
pub fn sim_campaign(name: &str, faults: usize) -> Campaign {
    Campaign::builder(name)
        .workload(WorkloadImage {
            name: "sim-wl".into(),
            words: vec![60],
            code_words: 1,
            entry: 0,
        })
        .observe_chains(["internal"])
        .output(OutputRegion::Ports)
        .termination(Termination {
            max_instructions: 1_000,
            max_iterations: None,
        })
        .faults(
            (0..faults)
                .map(|i| {
                    FaultSpec::single(
                        FaultLocation::ScanCell {
                            chain: "internal".into(),
                            cell: "A".into(),
                            bit: i % 8,
                        },
                        Trigger::AfterInstructions(5 + i as u64),
                    )
                })
                .collect::<Vec<_>>(),
        )
        .build()
        .unwrap()
}

/// Stores `campaign` in a fresh database file in `dir` and returns its
/// path.
pub fn make_db(dir: &Path, campaign: &Campaign) -> PathBuf {
    let path = dir.join("campaigns.gdb");
    let mut db = goofidb::Database::new();
    dbio::init_schema(&mut db).unwrap();
    dbio::store_campaign(&mut db, campaign).unwrap();
    dbio::save_database(&RealFs, &path, &db).unwrap();
    path
}

/// The serial in-process ground truth over the same simulated target.
pub fn serial_records(campaign: &Campaign) -> Vec<ExperimentRecord> {
    let mut target = SimTarget::new();
    let monitor = ProgressMonitor::new(campaign.experiment_count());
    algorithms::run_campaign(
        &mut target,
        campaign,
        &monitor,
        &mut envsim::NullEnvironment,
    )
    .unwrap()
    .records
}

/// The part of a record no execution mode may change: everything but the
/// name and the parent link.
pub fn essence(r: &ExperimentRecord) -> (Option<&FaultSpec>, &TerminationCause, String, Validity) {
    (
        r.fault.as_ref(),
        &r.termination,
        r.state.encode(),
        r.validity,
    )
}

/// Asserts the database at `db_path` holds every record of `want` for
/// `campaign` exactly once, essence-equal to it. `context` prefixes every
/// failure message: which run or which fault the database came from.
pub fn assert_essence_equal(
    db_path: &Path,
    campaign: &str,
    want: &[ExperimentRecord],
    context: &str,
) {
    let db = dbio::load_database(&RealFs, db_path).unwrap();
    let got = dbio::load_experiments(&db, campaign).unwrap();
    let by_name: BTreeMap<&str, &ExperimentRecord> =
        got.iter().map(|r| (r.name.as_str(), r)).collect();
    assert_eq!(
        got.len(),
        by_name.len(),
        "[{context}] the database holds duplicate experiments"
    );
    for record in want {
        let stored = by_name
            .get(record.name.as_str())
            .unwrap_or_else(|| panic!("[{context}] experiment `{}` missing", record.name));
        assert_eq!(
            essence(stored),
            essence(record),
            "[{context}] experiment `{}` diverged from the serial run",
            record.name
        );
    }
}

/// The `goofi-mock-worker` binary: a shard worker over [`SimTarget`].
pub fn mock_worker_cmd() -> WorkerCommand {
    WorkerCommand {
        program: PathBuf::from(env!("CARGO_BIN_EXE_goofi-mock-worker")),
        args: Vec::new(),
    }
}

/// A service over the database at `db` running `workers` mock workers per
/// job, each shard's lease 5 s.
pub fn config(db: &Path, workers: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(db, mock_worker_cmd());
    cfg.default_workers = workers;
    cfg.lease = Duration::from_secs(5);
    cfg
}
