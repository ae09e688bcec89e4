//! The database: a set of tables with enforced referential integrity.

use crate::schema::TableSchema;
use crate::table::{Row, Table};
use crate::value::Value;
use crate::DbError;
use std::collections::BTreeMap;
use std::fmt;

/// The result of a `SELECT`: output column names and rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Value at (`row`, named column).
    pub fn get(&self, row: usize, column: &str) -> Option<&Value> {
        let idx = self.columns.iter().position(|c| c == column)?;
        self.rows.get(row)?.get(idx)
    }

    /// First row's first value — convenient for aggregates.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first()?.first()
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for QueryResult {
    /// Renders the result as an ASCII table (the GOOFI analysis reports).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        // Pads by hand: a `{:<w$}` width is capped at 65,535, and a
        // detail-mode trace cell is wider. Padding counts characters, as
        // `{:<w$}` does.
        let cells = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (cell, w) in cells.iter().zip(&widths) {
                let pad = w.saturating_sub(cell.chars().count());
                write!(f, " {cell}{} |", " ".repeat(pad))?;
            }
            writeln!(f)
        };
        line(f)?;
        cells(f, &self.columns)?;
        line(f)?;
        for row in &rendered {
            cells(f, row)?;
        }
        line(f)
    }
}

/// An in-memory relational database.
///
/// See the crate docs for an example.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates a table from a schema.
    ///
    /// # Errors
    ///
    /// Fails if the table exists, or a foreign key references a missing
    /// table/non-primary-key column.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), DbError> {
        if self.tables.contains_key(&schema.name) {
            return Err(DbError::TableExists(schema.name));
        }
        for fk in &schema.foreign_keys {
            let target = self
                .tables
                .get(&fk.ref_table)
                .ok_or_else(|| DbError::NoSuchTable(fk.ref_table.clone()))?;
            let pk = target.schema().primary_key_index();
            let ok = pk
                .map(|i| target.schema().columns[i].name == fk.ref_column)
                .unwrap_or(false);
            if !ok {
                return Err(DbError::Execution(format!(
                    "foreign key {fk} must reference the primary key of `{}`",
                    fk.ref_table
                )));
            }
        }
        self.tables.insert(schema.name.clone(), Table::new(schema));
        Ok(())
    }

    /// Drops a table.
    ///
    /// # Errors
    ///
    /// Fails if other tables hold foreign keys into it, or it is missing.
    pub fn drop_table(&mut self, name: &str) -> Result<(), DbError> {
        if !self.tables.contains_key(name) {
            return Err(DbError::NoSuchTable(name.to_string()));
        }
        for t in self.tables.values() {
            for fk in &t.schema().foreign_keys {
                if fk.ref_table == name && t.schema().name != name {
                    return Err(DbError::Execution(format!(
                        "cannot drop `{name}`: referenced by `{}` ({fk})",
                        t.schema().name
                    )));
                }
            }
        }
        self.tables.remove(name);
        Ok(())
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Read access to a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Inserts a row, enforcing foreign keys.
    ///
    /// # Errors
    ///
    /// Fails on schema violations (see [`Table::insert`]) or when a non-NULL
    /// foreign-key value has no referent.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<(), DbError> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_string()))?;
        for fk in &t.schema().foreign_keys {
            let idx = t
                .schema()
                .column_index(&fk.column)
                .ok_or_else(|| DbError::NoSuchColumn(fk.column.clone()))?;
            let Some(v) = row.get(idx).filter(|v| !v.is_null()) else {
                continue; // NULL foreign keys are permitted.
            };
            let target = self
                .tables
                .get(&fk.ref_table)
                .ok_or_else(|| DbError::NoSuchTable(fk.ref_table.clone()))?;
            if !target.contains_key(v) {
                return Err(DbError::ForeignKeyViolation {
                    constraint: format!("{}.{fk}", table),
                    key: v.to_string(),
                });
            }
        }
        self.table_mut(table)?.insert(row)
    }

    /// Deletes rows matching `pred`, enforcing RESTRICT semantics: a row
    /// whose primary key is referenced from another table cannot go.
    ///
    /// # Errors
    ///
    /// Fails when a victim row is still referenced; nothing is deleted then.
    pub fn delete_where(
        &mut self,
        table: &str,
        pred: impl Fn(&Row) -> bool,
    ) -> Result<usize, DbError> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_string()))?;
        // The predicate is evaluated exactly once per row, in table order,
        // so stateful predicates (e.g. precomputed masks) work.
        let mask: Vec<bool> = t.iter().map(&pred).collect();
        if let Some(pk) = t.schema().primary_key_index() {
            let victims: Vec<Value> = t
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| m)
                .map(|(r, _)| r[pk].clone())
                .collect();
            for (other_name, other) in &self.tables {
                for fk in &other.schema().foreign_keys {
                    if fk.ref_table != table {
                        continue;
                    }
                    let col = other
                        .schema()
                        .column_index(&fk.column)
                        .ok_or_else(|| DbError::NoSuchColumn(fk.column.clone()))?;
                    for key in &victims {
                        if other.iter().any(|r| r[col] == *key) {
                            return Err(DbError::ForeignKeyViolation {
                                constraint: format!("{other_name}.{fk}"),
                                key: key.to_string(),
                            });
                        }
                    }
                }
            }
        }
        let mut i = 0;
        Ok(self.table_mut(table)?.delete_where(|_| {
            let m = mask.get(i).copied().unwrap_or(false);
            i += 1;
            m
        }))
    }

    /// Applies `update` to rows matching `pred`, then re-checks every
    /// invariant (types, primary keys, all foreign keys); on violation the
    /// table is restored and the error returned.
    ///
    /// # Errors
    ///
    /// Fails when the update breaks any integrity constraint.
    pub fn update_where(
        &mut self,
        table: &str,
        pred: impl Fn(&Row) -> bool,
        update: impl FnMut(&mut Row),
    ) -> Result<usize, DbError> {
        let backup = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_string()))?
            .clone();
        let changed = self.table_mut(table)?.update_where(|r| pred(r), update);
        if changed > 0 {
            if let Err(e) = self.check_integrity() {
                *self.table_mut(table)? = backup;
                return Err(e);
            }
        }
        Ok(changed)
    }

    /// Full integrity check: per-table invariants plus all foreign keys.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_integrity(&self) -> Result<(), DbError> {
        for (name, t) in &self.tables {
            t.revalidate()?;
            for fk in &t.schema().foreign_keys {
                let col = t
                    .schema()
                    .column_index(&fk.column)
                    .ok_or_else(|| DbError::NoSuchColumn(fk.column.clone()))?;
                let target = self
                    .tables
                    .get(&fk.ref_table)
                    .ok_or_else(|| DbError::NoSuchTable(fk.ref_table.clone()))?;
                for row in t.iter() {
                    let v = &row[col];
                    if !v.is_null() && !target.contains_key(v) {
                        return Err(DbError::ForeignKeyViolation {
                            constraint: format!("{name}.{fk}"),
                            key: v.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Executes a SQL statement (`CREATE TABLE`, `INSERT`, `UPDATE`,
    /// `DELETE`, `DROP TABLE`); returns the number of affected rows.
    ///
    /// # Errors
    ///
    /// Parse errors, schema violations and integrity violations.
    pub fn execute(&mut self, sql: &str) -> Result<usize, DbError> {
        crate::sql::execute(self, sql)
    }

    /// Runs a `SELECT` query.
    ///
    /// # Errors
    ///
    /// Parse errors and unknown tables/columns.
    pub fn query(&self, sql: &str) -> Result<QueryResult, DbError> {
        crate::sql::query(self, sql)
    }

    /// Serialises the whole database to the text persistence format.
    pub fn save_to_string(&self) -> String {
        crate::persist::save(self)
    }

    /// Restores a database from [`Database::save_to_string`] output.
    ///
    /// # Errors
    ///
    /// Fails at the first damage: a table whose `CHECK` checksum footer
    /// disagrees with its rows, or cannot be read, is [`DbError::Corrupt`];
    /// any other malformed line or integrity violation is
    /// [`DbError::Execution`], naming the table and the line.
    pub fn load_from_string(text: &str) -> Result<Database, DbError> {
        crate::persist::load(text)
    }

    /// Restores only the named tables from [`Database::save_to_string`]
    /// output, as strictly as [`Database::load_from_string`]. Every other
    /// table block is skipped without being decoded or checked, and
    /// reading stops once all named tables are in; the names must include
    /// every table they reference.
    ///
    /// # Errors
    ///
    /// As [`Database::load_from_string`], for the named tables.
    pub fn load_tables_from_string(text: &str, tables: &[&str]) -> Result<Database, DbError> {
        crate::persist::load_tables(text, Some(tables))
    }

    /// Best-effort restore from damaged [`Database::save_to_string`]
    /// output: decodable tables and rows are kept; every skipped piece is
    /// reported as a [`crate::PersistIssue`]. The same reader decides both
    /// loads, so the issue list is empty exactly when
    /// [`Database::load_from_string`] accepts the text.
    pub fn load_from_string_lenient(text: &str) -> (Database, Vec<crate::PersistIssue>) {
        crate::persist::load_lenient(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType, ForeignKey};

    #[test]
    fn display_pads_cells_wider_than_a_format_width() {
        // A format width is capped at 65,535; a detail-mode trace cell is
        // wider than that.
        let wide = "x".repeat(70_000);
        let result = QueryResult {
            columns: vec!["id".into(), "trace".into()],
            rows: vec![
                vec![Value::Int(1), Value::text(wide.clone())],
                vec![Value::Int(22), Value::text("é")],
            ],
        };
        let table = result.to_string();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(
            lines[1],
            format!("| id | trace{} |", " ".repeat(70_000 - 5))
        );
        assert_eq!(lines[3], format!("| 1  | {wide} |"));
        // Padding counts characters, as `{:<w$}` does.
        assert_eq!(lines[4], format!("| 22 | é{} |", " ".repeat(70_000 - 1)));
        assert_eq!(lines[0], format!("+----+{}+", "-".repeat(70_002)));
    }

    fn two_table_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "targets",
                vec![
                    ColumnDef::primary("name", ColumnType::Text),
                    ColumnDef::new("chains", ColumnType::Integer),
                ],
                vec![],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "campaigns",
                vec![
                    ColumnDef::primary("id", ColumnType::Integer),
                    ColumnDef::new("target", ColumnType::Text),
                ],
                vec![ForeignKey {
                    column: "target".into(),
                    ref_table: "targets".into(),
                    ref_column: "name".into(),
                }],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn fk_enforced_on_insert() {
        let mut db = two_table_db();
        let e = db
            .insert("campaigns", vec![Value::Int(1), Value::text("thor")])
            .unwrap_err();
        assert!(matches!(e, DbError::ForeignKeyViolation { .. }));
        db.insert("targets", vec![Value::text("thor"), Value::Int(5)])
            .unwrap();
        db.insert("campaigns", vec![Value::Int(1), Value::text("thor")])
            .unwrap();
    }

    #[test]
    fn null_fk_allowed() {
        let mut db = two_table_db();
        db.insert("campaigns", vec![Value::Int(1), Value::Null])
            .unwrap();
    }

    #[test]
    fn delete_restricted_when_referenced() {
        let mut db = two_table_db();
        db.insert("targets", vec![Value::text("thor"), Value::Int(5)])
            .unwrap();
        db.insert("campaigns", vec![Value::Int(1), Value::text("thor")])
            .unwrap();
        let e = db
            .delete_where("targets", |r| r[0] == Value::text("thor"))
            .unwrap_err();
        assert!(matches!(e, DbError::ForeignKeyViolation { .. }));
        // Remove the referent first, then the target row can go.
        db.delete_where("campaigns", |_| true).unwrap();
        assert_eq!(
            db.delete_where("targets", |r| r[0] == Value::text("thor"))
                .unwrap(),
            1
        );
    }

    #[test]
    fn fk_must_reference_primary_key() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "a",
                vec![
                    ColumnDef::primary("id", ColumnType::Integer),
                    ColumnDef::new("other", ColumnType::Integer),
                ],
                vec![],
            )
            .unwrap(),
        )
        .unwrap();
        let e = db
            .create_table(
                TableSchema::new(
                    "b",
                    vec![ColumnDef::new("aref", ColumnType::Integer)],
                    vec![ForeignKey {
                        column: "aref".into(),
                        ref_table: "a".into(),
                        ref_column: "other".into(),
                    }],
                )
                .unwrap(),
            )
            .unwrap_err();
        assert!(matches!(e, DbError::Execution(_)));
    }

    #[test]
    fn update_that_breaks_fk_rolls_back() {
        let mut db = two_table_db();
        db.insert("targets", vec![Value::text("thor"), Value::Int(5)])
            .unwrap();
        db.insert("campaigns", vec![Value::Int(1), Value::text("thor")])
            .unwrap();
        let e = db
            .update_where("campaigns", |_| true, |r| r[1] = Value::text("missing"))
            .unwrap_err();
        assert!(matches!(e, DbError::ForeignKeyViolation { .. }));
        // Rolled back.
        assert_eq!(
            db.table("campaigns").unwrap().iter().next().unwrap()[1],
            Value::text("thor")
        );
    }

    #[test]
    fn drop_table_restricted() {
        let mut db = two_table_db();
        let e = db.drop_table("targets").unwrap_err();
        assert!(matches!(e, DbError::Execution(_)));
        db.drop_table("campaigns").unwrap();
        db.drop_table("targets").unwrap();
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn query_result_display_is_table_shaped() {
        let r = QueryResult {
            columns: vec!["outcome".into(), "n".into()],
            rows: vec![
                vec![Value::text("detected"), Value::Int(42)],
                vec![Value::text("latent"), Value::Int(7)],
            ],
        };
        let s = r.to_string();
        assert!(s.contains("| outcome  | n  |"));
        assert!(s.contains("| detected | 42 |"));
        assert_eq!(r.get(1, "n"), Some(&Value::Int(7)));
        assert_eq!(r.get(1, "nope"), None);
    }
}
