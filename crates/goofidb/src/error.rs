//! Database error type.

use std::error::Error;
use std::fmt;

/// Errors reported by database operations and SQL execution.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// Referenced table does not exist.
    NoSuchTable(String),
    /// Referenced column does not exist.
    NoSuchColumn(String),
    /// A table with this name already exists.
    TableExists(String),
    /// A row with the same primary key already exists.
    DuplicateKey {
        /// Table holding the conflict.
        table: String,
        /// Display form of the conflicting key.
        key: String,
    },
    /// Primary-key column received NULL or a REAL value.
    BadPrimaryKey {
        /// Table being inserted into.
        table: String,
        /// Explanation.
        reason: String,
    },
    /// A foreign-key constraint failed.
    ForeignKeyViolation {
        /// Constraint description, e.g. `campaign.testCardName -> targets.name`.
        constraint: String,
        /// Display form of the missing/blocking key.
        key: String,
    },
    /// A value's type does not match its column type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// Expected SQL type.
        expected: &'static str,
        /// Actual SQL type supplied.
        got: &'static str,
    },
    /// Wrong number of values for the column list.
    ArityMismatch {
        /// Columns expected.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// SQL text failed to parse.
    Parse(String),
    /// Any other execution failure.
    Execution(String),
    /// A persisted table's rows do not match its `CHECK` checksum footer —
    /// on-disk corruption (bit rot, torn write), not a semantic error.
    Corrupt {
        /// Table whose checksum failed.
        table: String,
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table `{t}`"),
            DbError::NoSuchColumn(c) => write!(f, "no such column `{c}`"),
            DbError::TableExists(t) => write!(f, "table `{t}` already exists"),
            DbError::DuplicateKey { table, key } => {
                write!(f, "duplicate primary key {key} in table `{table}`")
            }
            DbError::BadPrimaryKey { table, reason } => {
                write!(f, "bad primary key for table `{table}`: {reason}")
            }
            DbError::ForeignKeyViolation { constraint, key } => {
                write!(f, "foreign key violation ({constraint}) for key {key}")
            }
            DbError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(f, "column `{column}` expects {expected}, got {got}"),
            DbError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            DbError::Parse(msg) => write!(f, "SQL parse error: {msg}"),
            DbError::Execution(msg) => write!(f, "execution error: {msg}"),
            DbError::Corrupt { table, detail } => {
                write!(f, "table `{table}` is corrupt: {detail}")
            }
        }
    }
}

impl Error for DbError {}
