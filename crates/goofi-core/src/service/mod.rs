//! The campaign service: a daemon that runs campaigns as *jobs* sharded
//! across worker OS processes.
//!
//! The paper runs one campaign on one workstation driving one test card.
//! This module generalises the campaign engine ([`runner`](crate::runner))
//! one level up: a long-lived daemon (`goofi serve`) accepts campaign
//! submissions over a newline-delimited-JSON wire protocol ([`wire`]),
//! partitions each campaign's experiment index space into contiguous
//! *shards* ([`partition`]), and hands every shard to a spawned
//! `goofi worker` process under a lease-and-heartbeat discipline
//! ([`scheduler`]):
//!
//! - Each shard runs under its own [`ExperimentJournal`]
//!   (crate::journal::ExperimentJournal) via
//!   [`runner::resume_campaign`](crate::runner::resume_campaign) over
//!   the shard's index range, so journal entries keep their global
//!   campaign indices.
//! - A worker renews its lease by reporting progress on stdout. A worker
//!   that crashes, hangs past its lease deadline, or reports the target
//!   offline gets its shard revoked and reassigned with exponential
//!   backoff — the process-level twin of a drive loop's retirement.
//! - At-least-once execution is made idempotent by the journal: a
//!   reassigned shard replays its journal and re-runs only what is
//!   missing, so the merged database is essence-equal to a serial run.
//! - A shard failing its lease too many times in a row is quarantined as
//!   a *poison shard*: its unfinished experiments are recorded as
//!   `Validity::Invalid` stubs with `parentExperiment`-linked rerun stubs
//!   rather than wedging the whole job.
//! - The daemon persists a small manifest per job in a spool directory
//!   next to the database; a killed daemon resumes every in-flight job
//!   from manifest plus shard journals on restart.
//!
//! [`worker`] is the shard-side half, [`server`] the accept loop and
//! client, [`net`] the transport seam all service I/O goes through
//! (length-prefixed checksummed frames over a [`Transport`]; a seeded
//! `FaultNet` injects dropped/duplicated/reordered/corrupted frames,
//! resets, half-open peers and partitions under test), and [`chaos`] a
//! seeded self-kill drill used to rehearse all of the above.

pub mod chaos;
pub mod net;
pub mod scheduler;
pub mod server;
pub mod wire;
pub mod worker;

pub use chaos::ChaosConfig;
pub use net::{FaultNet, NetFaultConfig, NetFaultKind, RealNet, Transport};
pub use scheduler::{
    JobProgress, JobState, RecoverOutcome, Scheduler, ServiceConfig, WorkerCommand,
};
pub use server::{
    job_list, new_request_id, request_shutdown, serve, submit_job, watch_to_end, Client,
};
pub use wire::{Request, Response, WorkerEvent};
pub use worker::{run_worker, WorkerArgs};

/// The scheduler's tick: a job runner samples its shards' stats once per
/// tick, so a worker sends at most one progress frame per tick.
pub(crate) const TICK: std::time::Duration = std::time::Duration::from_millis(10);

/// Splits `0..total` into at most `shards` contiguous, near-equal,
/// non-empty ranges covering every index exactly once. Earlier ranges get
/// the remainder, so the split is deterministic.
pub fn partition(total: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.max(1).min(total.max(1));
    let base = total / shards;
    let remainder = total % shards;
    let mut ranges = Vec::new();
    let mut start = 0;
    for shard in 0..shards {
        let len = base + usize::from(shard < remainder);
        if len == 0 {
            continue;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::partition;

    #[test]
    fn partition_covers_every_index_once() {
        for total in 0..40 {
            for shards in 1..8 {
                let ranges = partition(total, shards);
                let mut covered = Vec::new();
                for range in &ranges {
                    assert!(!range.is_empty(), "empty shard for {total}/{shards}");
                    covered.extend(range.clone());
                }
                assert_eq!(covered, (0..total).collect::<Vec<_>>());
                assert!(ranges.len() <= shards);
            }
        }
    }

    #[test]
    fn partition_is_near_equal() {
        let ranges = partition(10, 3);
        let lens: Vec<usize> = ranges.iter().map(std::ops::Range::len).collect();
        assert_eq!(lens, vec![4, 3, 3]);
    }
}
