//! Text persistence: a line-oriented dump/load format.
//!
//! The paper keeps all campaign data "in a portable SQL-database"; this
//! module provides the portability half — a database can be saved to text
//! and reloaded for later analysis (the caller does the file I/O). Tables
//! are emitted in foreign-key dependency order so a load replays cleanly
//! through the integrity checks.
//!
//! Each table block ends with a `CHECK <fnv32>` footer over its ROW lines.
//! One reader, [`read`], decodes the format: strictly ([`load`]) it fails
//! at the first damage, salvaging ([`load_lenient`]) it reports each
//! skipped piece as a [`PersistIssue`] so `goofi fsck` can classify and
//! quarantine rather than silently drop data. Files written before the
//! footer existed (no CHECK line) still load.

use crate::schema::{ColumnDef, ColumnType, ForeignKey, TableSchema};
use crate::table::Row;
use crate::value::Value;
use crate::{Database, DbError};

/// Serialises a database.
pub(crate) fn save(db: &Database) -> String {
    let mut out = String::from("#goofidb v1\n");
    for name in topo_order(db) {
        // `topo_order` only yields names from `db.table_names()`, but stay
        // panic-free regardless: a missing table is simply skipped.
        let Some(table) = db.table(&name) else {
            continue;
        };
        out.push_str(&format!("TABLE {name}\n"));
        for c in &table.schema().columns {
            out.push_str(&format!(
                "COLUMN {} {}{}\n",
                c.name,
                c.ty.keyword(),
                if c.primary_key { " PK" } else { "" }
            ));
        }
        for fk in &table.schema().foreign_keys {
            out.push_str(&format!(
                "FK {} {} {}\n",
                fk.column, fk.ref_table, fk.ref_column
            ));
        }
        let mut rows = String::new();
        for row in table.iter() {
            rows.push_str("ROW");
            for v in row {
                rows.push('\t');
                rows.push_str(&encode_value(v));
            }
            rows.push('\n');
        }
        out.push_str(&rows);
        out.push_str(&format!("CHECK {:08x}\n", fnv1a(rows.as_bytes())));
        out.push_str("END\n");
    }
    out
}

/// Restores a database from [`save`] output.
pub(crate) fn load(text: &str) -> Result<Database, DbError> {
    read(text, None, None)
}

/// [`load`] of the `only` tables (every table when `None`), just as
/// strict for those. Any other table block is skipped to its `END` line
/// without decoding, and reading stops once every named table is in.
pub(crate) fn load_tables(text: &str, only: Option<&[&str]>) -> Result<Database, DbError> {
    read(text, only, None)
}

/// What kind of damage a lenient load worked around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// A table's `CHECK` footer disagreed with its rows (bit rot or a
    /// torn rewrite), or could not be read; the decodable rows were kept.
    ChecksumMismatch,
    /// A ROW line failed to decode; the row was skipped. [`PersistIssue::
    /// recovered`] carries whatever fields did decode.
    BadRow,
    /// A decodable row was rejected by the schema or integrity checks
    /// (duplicate key, foreign-key violation, type mismatch).
    InsertFailed,
    /// A line that is neither TABLE/COLUMN/FK/ROW/CHECK/END; skipped.
    BadLine,
    /// The file ended inside a table block (truncation); rows up to the
    /// cut were kept.
    Truncated,
}

impl IssueKind {
    /// Stable text form for reports.
    pub fn encode(self) -> &'static str {
        match self {
            IssueKind::ChecksumMismatch => "checksum-mismatch",
            IssueKind::BadRow => "bad-row",
            IssueKind::InsertFailed => "insert-failed",
            IssueKind::BadLine => "bad-line",
            IssueKind::Truncated => "truncated",
        }
    }
}

/// One piece of damage a [`Database::load_from_string_lenient`] call
/// salvaged around.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistIssue {
    /// Table the damage was found in (empty for file-level damage).
    pub table: String,
    /// What kind of damage.
    pub kind: IssueKind,
    /// For row-level damage: each field that still decoded (`None` where
    /// garbled), so a repair can identify the row by its surviving key.
    pub recovered: Vec<Option<Value>>,
    /// Human-readable description.
    pub detail: String,
}

/// Best-effort restore from damaged [`save`] output: decodable tables and
/// rows are kept, everything else is skipped and reported. The header must
/// still identify the file as a goofidb dump — a missing header means this
/// is not a database, and one issue with an empty database is returned.
pub(crate) fn load_lenient(text: &str) -> (Database, Vec<PersistIssue>) {
    let mut issues = Vec::new();
    let db = read(text, None, Some(&mut issues)).unwrap_or_default();
    (db, issues)
}

/// The one reader of the format, behind every load.
///
/// Without `issues`, the first damage in line order fails the read. With
/// them, each piece of damage is recorded and the read salvages around
/// it, never failing. A table's issues come in this order: damage to the
/// lines of its block, a truncation, its undecodable rows, then what the
/// schema and integrity checks rejected.
fn read(
    text: &str,
    only: Option<&[&str]>,
    issues: Option<&mut Vec<PersistIssue>>,
) -> Result<Database, DbError> {
    use IssueKind::{BadLine, BadRow, ChecksumMismatch, InsertFailed, Truncated};
    let mut damage = Damage(issues);
    let mut db = Database::new();
    let mut lines = text.lines();
    let header = lines.next();
    if !header.is_some_and(|h| h.starts_with("#goofidb")) {
        damage.note("", BadLine, format!("bad persistence header: {header:?}"))?;
        return Ok(db);
    }
    // Named tables not read yet (`None`: read every table).
    let mut missing = only.map(<[&str]>::len);
    while missing != Some(0) {
        let Some(line) = lines.next() else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        let Some(name) = line.strip_prefix("TABLE ") else {
            damage.note("", BadLine, format!("expected TABLE, got `{}`", clip(line)))?;
            continue;
        };
        // A block of a table not named is skipped undecoded.
        let skip = only.is_some_and(|only| !only.contains(&name));
        if let (false, Some(n)) = (skip, missing.as_mut()) {
            *n -= 1;
        }
        let first_issue = damage.count();
        let mut columns = Vec::new();
        let mut fks = Vec::new();
        let mut rows: Vec<Row> = Vec::new();
        let mut row_sum = FNV_OFFSET;
        let mut terminated = false;
        for line in lines.by_ref() {
            if line == "END" {
                terminated = true;
                break;
            }
            if skip {
                continue;
            }
            if let Some(sum) = line.strip_prefix("CHECK ") {
                // Checksum footer over the ROW lines (absent in files
                // written before it existed); an unreadable one mismatches.
                if u32::from_str_radix(sum.trim(), 16) != Ok(row_sum) {
                    let detail = format!("row checksum {row_sum:08x} != recorded {}", clip(sum));
                    damage.note(name, ChecksumMismatch, detail)?;
                }
            } else if let Some(rest) = line.strip_prefix("COLUMN ") {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                match parts.get(1).and_then(|ty| ColumnType::parse(ty)) {
                    Some(ty) => columns.push(ColumnDef {
                        name: parts[0].to_string(),
                        ty,
                        primary_key: parts.get(2) == Some(&"PK"),
                    }),
                    None => {
                        damage.note(name, BadLine, format!("bad COLUMN line `{}`", clip(line)))?
                    }
                }
            } else if let Some(rest) = line.strip_prefix("FK ") {
                match rest.split_whitespace().collect::<Vec<_>>()[..] {
                    [column, ref_table, ref_column] => fks.push(ForeignKey {
                        column: column.to_string(),
                        ref_table: ref_table.to_string(),
                        ref_column: ref_column.to_string(),
                    }),
                    _ => damage.note(name, BadLine, format!("bad FK line `{}`", clip(line)))?,
                }
            } else if let Some(rest) = line.strip_prefix("ROW") {
                row_sum = fnv1a_line(row_sum, line);
                let fields = || rest.split('\t').skip(1);
                match fields().map(decode_value).collect() {
                    Ok(row) => rows.push(row),
                    Err(_) => damage.note_with(
                        name,
                        BadRow,
                        || fields().map(|field| decode_value(field).ok()).collect(),
                        format!("undecodable row `{}`", clip(line)),
                    )?,
                }
            } else {
                damage.note(
                    name,
                    BadLine,
                    format!("bad line `{}` in table block", clip(line)),
                )?;
            }
        }
        if !terminated {
            damage.note(name, Truncated, "file ends inside table block".into())?;
        }
        damage.rows_last(first_issue);
        if skip {
            continue;
        }
        let schema = TableSchema::new(name, columns, fks);
        if let Err(e) = schema.and_then(|schema| db.create_table(schema)) {
            damage.note(name, BadLine, format!("table unusable: {e}"))?;
            continue;
        }
        for row in rows {
            let kept = damage.salvaging().then(|| row.clone());
            if let Err(e) = db.insert(name, row) {
                let recovered = || kept.into_iter().flatten().map(Some).collect();
                damage.note_with(name, InsertFailed, recovered, e.to_string())?;
            }
        }
    }
    Ok(db)
}

/// Where a [`read`]'s damage goes: with no list, the first piece fails
/// the read; with one, each piece is recorded there.
struct Damage<'a>(Option<&'a mut Vec<PersistIssue>>);

impl Damage<'_> {
    fn salvaging(&self) -> bool {
        self.0.is_some()
    }

    fn count(&self) -> usize {
        self.0.as_ref().map_or(0, |list| list.len())
    }

    fn note(&mut self, table: &str, kind: IssueKind, detail: String) -> Result<(), DbError> {
        self.note_with(table, kind, Vec::new, detail)
    }

    /// Records one piece of damage in `table` (empty for the file), or
    /// fails a strict read with it: a checksum mismatch as
    /// [`DbError::Corrupt`], anything else as [`DbError::Execution`].
    /// `recovered` runs only when the read salvages.
    fn note_with(
        &mut self,
        table: &str,
        kind: IssueKind,
        recovered: impl FnOnce() -> Vec<Option<Value>>,
        detail: String,
    ) -> Result<(), DbError> {
        let Some(list) = self.0.as_deref_mut() else {
            return Err(match kind {
                IssueKind::ChecksumMismatch => DbError::Corrupt {
                    table: table.to_string(),
                    detail,
                },
                _ if table.is_empty() => DbError::Execution(detail),
                _ => DbError::Execution(format!("table `{table}`: {detail}")),
            });
        };
        list.push(PersistIssue {
            table: table.to_string(),
            kind,
            recovered: recovered(),
            detail,
        });
        Ok(())
    }

    /// Moves the bad rows among the issues since `first` behind the rest
    /// (damaged lines, then a truncation), keeping each group in order.
    fn rows_last(&mut self, first: usize) {
        if let Some(list) = self.0.as_deref_mut() {
            list[first..].sort_by_key(|issue| issue.kind == IssueKind::BadRow);
        }
    }
}

fn clip(line: &str) -> String {
    if line.len() <= 80 {
        return line.to_string();
    }
    let mut out: String = line.chars().take(80).collect();
    out.push('…');
    out
}

const FNV_OFFSET: u32 = 0x811c_9dc5;

fn fnv1a(bytes: &[u8]) -> u32 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

fn fnv1a_extend(mut hash: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Folds one ROW line and its newline into a running `CHECK` sum, so a
/// load verifies a table without copying its rows' text.
fn fnv1a_line(hash: u32, line: &str) -> u32 {
    fnv1a_extend(fnv1a_extend(hash, line.as_bytes()), b"\n")
}

/// Orders tables so every table appears after the tables it references.
fn topo_order(db: &Database) -> Vec<String> {
    let names = db.table_names();
    let mut out: Vec<String> = Vec::new();
    let mut remaining = names;
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|name| {
            let deps_done = db
                .table(name)
                .map(|t| {
                    t.schema()
                        .foreign_keys
                        .iter()
                        .all(|fk| fk.ref_table == *name || out.contains(&fk.ref_table))
                })
                .unwrap_or(true);
            if deps_done {
                out.push(name.clone());
                false
            } else {
                true
            }
        });
        if remaining.len() == before {
            // FK cycle: emit the rest in name order (load will fail loudly).
            out.append(&mut remaining);
        }
    }
    out
}

fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "N".to_string(),
        Value::Int(i) => format!("I:{i}"),
        // Bit-exact float round trip.
        Value::Real(r) => format!("R:{}", r.to_bits()),
        Value::Text(s) => format!("T:{}", escape(s)),
    }
}

fn decode_value(field: &str) -> Result<Value, DbError> {
    if field == "N" {
        return Ok(Value::Null);
    }
    let (tag, body) = field
        .split_once(':')
        .ok_or_else(|| DbError::Execution(format!("bad value field `{field}`")))?;
    match tag {
        "I" => body
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| DbError::Execution(format!("bad integer `{body}`"))),
        "R" => body
            .parse::<u64>()
            .map(|bits| Value::Real(f64::from_bits(bits)))
            .map_err(|_| DbError::Execution(format!("bad real `{body}`"))),
        "T" => Ok(Value::Text(unescape(body)?)),
        _ => Err(DbError::Execution(format!("bad value tag `{tag}`"))),
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, DbError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => {
                return Err(DbError::Execution(format!(
                    "bad escape `\\{}`",
                    other.map(String::from).unwrap_or_default()
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};

    #[test]
    fn roundtrip_with_fk_and_special_chars() {
        let mut db = Database::new();
        db.execute("CREATE TABLE targets (name TEXT PRIMARY KEY, chains INTEGER)")
            .unwrap();
        db.execute(
            "CREATE TABLE campaigns (id INTEGER PRIMARY KEY, target TEXT, score REAL,
             FOREIGN KEY (target) REFERENCES targets(name))",
        )
        .unwrap();
        db.execute("INSERT INTO targets (name, chains) VALUES ('thor', 5)")
            .unwrap();
        db.insert(
            "campaigns",
            vec![
                Value::Int(1),
                Value::text("thor"),
                Value::Real(0.1 + 0.2), // non-representable decimal
            ],
        )
        .unwrap();
        db.insert("campaigns", vec![Value::Int(2), Value::Null, Value::Null])
            .unwrap();
        // Text with tabs/newlines/backslashes survives.
        db.execute("CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)")
            .unwrap();
        db.insert("notes", vec![Value::Int(1), Value::text("a\tb\nc\\d")])
            .unwrap();

        let text = db.save_to_string();
        let restored = Database::load_from_string(&text).unwrap();
        assert_eq!(restored.table_names(), db.table_names());
        assert_eq!(
            restored.table("campaigns").unwrap().len(),
            db.table("campaigns").unwrap().len()
        );
        assert_eq!(
            restored
                .table("campaigns")
                .unwrap()
                .find_by_key(&Value::Int(1))
                .unwrap()[2],
            Value::Real(0.1 + 0.2)
        );
        assert_eq!(
            restored
                .table("notes")
                .unwrap()
                .find_by_key(&Value::Int(1))
                .unwrap()[1],
            Value::text("a\tb\nc\\d")
        );
        restored.check_integrity().unwrap();
    }

    #[test]
    fn load_tables_decodes_only_the_named_tables() {
        let mut db = Database::new();
        db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY)")
            .unwrap();
        db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, x TEXT)")
            .unwrap();
        db.execute("CREATE TABLE c (id INTEGER PRIMARY KEY)")
            .unwrap();
        db.execute("INSERT INTO b (id, x) VALUES (1, 'kept')")
            .unwrap();
        db.execute("INSERT INTO c (id) VALUES (7)").unwrap();
        let text = db.save_to_string();

        let only_b = load_tables(&text, Some(&["b"])).unwrap();
        assert_eq!(only_b.table_names(), vec!["b".to_string()]);
        assert_eq!(only_b.table("b").unwrap().len(), 1);

        // Damage to a skipped block goes unread; in a named one it fails.
        let garbled = text.replace("ROW\tI:7", "ROW\tI:8");
        assert!(load_tables(&garbled, Some(&["b"])).is_ok());
        assert!(matches!(
            load_tables(&garbled, Some(&["c"])),
            Err(DbError::Corrupt { .. })
        ));
        assert!(matches!(load(&garbled), Err(DbError::Corrupt { .. })));
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(Database::load_from_string("nope").is_err());
        assert!(Database::load_from_string("#goofidb v1\nGARBAGE x\n").is_err());
        assert!(Database::load_from_string("#goofidb v1\nTABLE t\nCOLUMN a INTEGER\n").is_err());
    }

    #[test]
    fn topo_order_puts_referenced_tables_first() {
        let mut db = Database::new();
        // Alphabetically `aaa` sorts before `zzz`, but `aaa` references it.
        db.create_table(
            TableSchema::new(
                "zzz",
                vec![ColumnDef::primary("id", ColumnType::Integer)],
                vec![],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "aaa",
                vec![ColumnDef::new("zref", ColumnType::Integer)],
                vec![ForeignKey {
                    column: "zref".into(),
                    ref_table: "zzz".into(),
                    ref_column: "id".into(),
                }],
            )
            .unwrap(),
        )
        .unwrap();
        let order = topo_order(&db);
        let zi = order.iter().position(|n| n == "zzz").unwrap();
        let ai = order.iter().position(|n| n == "aaa").unwrap();
        assert!(zi < ai);
        // And the save/load roundtrip works despite the name order.
        let restored = Database::load_from_string(&db.save_to_string()).unwrap();
        assert_eq!(restored.table_names(), db.table_names());
    }
}
