//! An embedded, SQL-compatible relational database.
//!
//! GOOFI stores everything — target-system descriptions, campaign
//! configurations and per-experiment logs — in "a SQL compatible database"
//! (paper §1), with foreign keys between the `TargetSystemData`,
//! `CampaignData` and `LoggedSystemState` tables (Figure 4) so that "we
//! prevent inconsistencies in the database … while still being able to track
//! all information about the campaign and the target system" (§2.3). The
//! analysis phase is then performed by "tailor made scripts or programs that
//! query the database" (§3.4).
//!
//! This crate is the from-scratch substitute for the commercial database the
//! paper used: an in-memory relational engine with
//!
//! * typed columns ([`ColumnType`]: `INTEGER`, `REAL`, `TEXT`),
//! * primary keys with index-backed uniqueness,
//! * foreign keys with referential-integrity enforcement on insert and
//!   delete,
//! * a SQL dialect covering `CREATE TABLE`, `INSERT`, `SELECT` (with
//!   `JOIN … ON`, `WHERE`, `GROUP BY`, aggregates, `ORDER BY`, `LIMIT`),
//!   `UPDATE` and `DELETE`,
//! * a checksummed text format ([`Database::save_to_string`] /
//!   [`Database::load_from_string`]), with a salvaging load
//!   ([`Database::load_from_string_lenient`]) that reports each piece of
//!   damage as a [`PersistIssue`]; one reader decides both loads.
//!
//! The crate does no file I/O: callers write and read the text. GOOFI
//! saves it with `goofi_core::dbio::save_database`, atomically and through
//! the `Vfs` seam its torture harness injects faults into.
//!
//! # Example
//!
//! ```
//! use goofidb::{Database, Value};
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)").unwrap();
//! db.execute("INSERT INTO t (id, name) VALUES (1, 'thor')").unwrap();
//! let result = db.query("SELECT name FROM t WHERE id = 1").unwrap();
//! assert_eq!(result.rows[0][0], Value::Text("thor".into()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod db;
mod error;
mod persist;
mod schema;
pub mod sql;
mod table;
mod value;

pub use db::{Database, QueryResult};
pub use error::DbError;
pub use persist::{IssueKind, PersistIssue};
pub use schema::{ColumnDef, ColumnType, ForeignKey, TableSchema};
pub use table::{Row, Table};
pub use value::Value;
