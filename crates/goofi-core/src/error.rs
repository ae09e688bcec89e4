//! Framework error type.

use std::error::Error;
use std::fmt;

/// Errors raised by the fault-injection framework.
#[derive(Debug)]
pub enum GoofiError {
    /// A scan-chain/test-card operation failed.
    Scan(scanchain::ScanError),
    /// A database operation failed.
    Db(goofidb::DbError),
    /// A target-system operation failed (message from the target interface).
    Target(String),
    /// The campaign configuration is invalid.
    Config(String),
    /// A `Framework` template method was called before being implemented
    /// for the target system (paper Figure 3: "Write your code here!").
    Unimplemented(&'static str),
    /// The campaign was stopped from the progress monitor.
    Stopped,
    /// The link to the target kept failing: a transport operation could not
    /// be completed (or verified) within the recovery budget of a
    /// [`VerifiedTarget`](crate::link::VerifiedTarget).
    LinkFault {
        /// The operation that failed, e.g. `read_scan_chain(internal)`.
        operation: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// What the last attempt observed.
        detail: String,
    },
    /// An experiment journal could not be written or read.
    Journal(String),
    /// A filesystem operation on a persistence artifact (journal, spool
    /// manifest, shard journal, database file) failed. `ENOSPC`/`EIO`
    /// mid-campaign surface here — with the offending path — instead of
    /// panicking.
    Io {
        /// What was being done, e.g. `appending to`.
        op: String,
        /// The file the operation failed on.
        path: std::path::PathBuf,
        /// The rendered [`std::io::Error`].
        detail: String,
    },
    /// A campaign-service wire message (newline-delimited JSON between
    /// `goofi submit`, the daemon, and its shard workers) was malformed,
    /// truncated, or could not be transported.
    Wire(String),
    /// An experiment failed despite the campaign's
    /// [`ExperimentPolicy`](crate::policy::ExperimentPolicy) and the policy
    /// aborts the campaign. Unlike a bare error, this carries every record
    /// completed before the failure — a failing experiment no longer
    /// discards finished work.
    ExperimentFailed {
        /// The failing experiment (lowest index when several workers
        /// failed concurrently).
        failure: crate::policy::ExperimentFailure,
        /// Reference run plus all records completed before the abort.
        partial: Box<crate::algorithms::CampaignResult>,
    },
    /// The target stopped responding and the recovery ladder
    /// ([`Supervisor::recover`](crate::supervisor::Supervisor::recover))
    /// exhausted every stage: the target is offline. Like [`GoofiError::ExperimentFailed`],
    /// this preserves all work completed before the target died.
    TargetOffline {
        /// Where the target died, e.g. the experiment being recovered.
        context: String,
        /// Reference run plus all records completed before the target
        /// went offline.
        partial: Box<crate::algorithms::CampaignResult>,
    },
}

impl fmt::Display for GoofiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoofiError::Scan(e) => write!(f, "scan-chain error: {e}"),
            GoofiError::Db(e) => write!(f, "database error: {e}"),
            GoofiError::Target(msg) => write!(f, "target system error: {msg}"),
            GoofiError::Config(msg) => write!(f, "campaign configuration error: {msg}"),
            GoofiError::Unimplemented(method) => {
                write!(
                    f,
                    "abstract method `{method}` not implemented for this target system"
                )
            }
            GoofiError::Stopped => f.write_str("campaign stopped by the user"),
            GoofiError::LinkFault {
                operation,
                attempts,
                detail,
            } => write!(
                f,
                "unrecovered link fault in {operation} after {attempts} attempt(s): {detail}"
            ),
            GoofiError::Journal(msg) => write!(f, "experiment journal error: {msg}"),
            GoofiError::Io { op, path, detail } => {
                write!(f, "I/O error {op} {}: {detail}", path.display())
            }
            GoofiError::Wire(msg) => write!(f, "wire protocol error: {msg}"),
            GoofiError::ExperimentFailed { failure, partial } => write!(
                f,
                "{failure}; {} completed record(s) preserved",
                partial.records.len()
            ),
            GoofiError::TargetOffline { context, partial } => write!(
                f,
                "target offline: recovery ladder exhausted during {context}; \
                 {} completed record(s) preserved",
                partial.records.len()
            ),
        }
    }
}

impl GoofiError {
    /// An [`GoofiError::Io`] from a failed filesystem step.
    pub fn io(op: &str, path: impl Into<std::path::PathBuf>, e: &std::io::Error) -> GoofiError {
        GoofiError::Io {
            op: op.to_string(),
            path: path.into(),
            detail: e.to_string(),
        }
    }
}

impl Error for GoofiError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GoofiError::Scan(e) => Some(e),
            GoofiError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<scanchain::ScanError> for GoofiError {
    fn from(e: scanchain::ScanError) -> Self {
        GoofiError::Scan(e)
    }
}

impl From<goofidb::DbError> for GoofiError {
    fn from(e: goofidb::DbError) -> Self {
        GoofiError::Db(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = GoofiError::Unimplemented("load_workload");
        assert!(e.to_string().contains("load_workload"));
        let e = GoofiError::from(scanchain::ScanError::UnknownChain("x".into()));
        assert!(e.to_string().contains("scan-chain"));
        let e = GoofiError::from(goofidb::DbError::NoSuchTable("t".into()));
        assert!(e.to_string().contains("database"));
        assert!(GoofiError::Stopped.to_string().contains("stopped"));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e = GoofiError::from(goofidb::DbError::NoSuchTable("t".into()));
        assert!(e.source().is_some());
        assert!(GoofiError::Stopped.source().is_none());
    }
}
