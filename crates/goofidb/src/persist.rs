//! Text persistence: a line-oriented dump/load format.
//!
//! The paper keeps all campaign data "in a portable SQL-database"; this
//! module provides the portability half — a database can be saved to text
//! and reloaded for later analysis (the caller does the file I/O). Tables
//! are emitted in foreign-key dependency order so a load replays cleanly
//! through the integrity checks.
//!
//! Each table block ends with a `CHECK <fnv32>` footer over every line of
//! the block from its `TABLE` line on, so a flipped byte in a table or
//! column name or a foreign key is caught like one in a row. One reader,
//! [`read`], decodes the format: strictly ([`load`]) it fails at the first
//! damage, salvaging ([`load_lenient`]) it reports each skipped piece as a
//! [`PersistIssue`] so `goofi fsck` can classify and quarantine rather
//! than silently drop data. Older files still load: a `#goofidb v1` footer
//! covers the ROW lines only, and files written before the footer existed
//! have no CHECK line at all.

use crate::codec::{escape_into, fnv1a, fnv1a_extend, unescape, FNV_OFFSET};
use crate::schema::{ColumnDef, ColumnType, ForeignKey, TableSchema};
use crate::table::{Row, Table};
use crate::value::Value;
use crate::{Database, DbError};
use std::fmt::{self, Write};

/// The header of the current format, whose footers cover whole blocks.
const HEADER: &str = "#goofidb v2";

/// Serialises a database into one string: every block is written in
/// place, and its `CHECK` footer sums the block's byte range.
pub(crate) fn save(db: &Database) -> String {
    let mut out = String::with_capacity(saved_len_hint(db));
    out.push_str(HEADER);
    out.push('\n');
    for name in topo_order(db) {
        // `topo_order` only yields names from `db.table_names()`, but stay
        // panic-free regardless: a missing table is simply skipped.
        if let Some(table) = db.table(&name) {
            // Writing into a `String` cannot fail.
            let _ = write_block(&mut out, &name, table);
        }
    }
    out
}

/// Appends one table's block: its schema lines and rows, then a `CHECK`
/// footer over the block's bytes and `END`.
fn write_block(out: &mut String, name: &str, table: &Table) -> fmt::Result {
    let block = out.len();
    writeln!(out, "TABLE {name}")?;
    for c in &table.schema().columns {
        let pk = if c.primary_key { " PK" } else { "" };
        writeln!(out, "COLUMN {} {}{pk}", c.name, c.ty.keyword())?;
    }
    for fk in &table.schema().foreign_keys {
        writeln!(out, "FK {} {} {}", fk.column, fk.ref_table, fk.ref_column)?;
    }
    for row in table.iter() {
        out.push_str("ROW");
        for v in row {
            out.push('\t');
            encode_value(out, v)?;
        }
        out.push('\n');
    }
    let sum = fnv1a(&out.as_bytes()[block..]);
    writeln!(out, "CHECK {sum:08x}")?;
    out.push_str("END\n");
    Ok(())
}

/// About the length [`save`] writes: every value's text plus a few bytes
/// per field, so the output string grows once at most.
fn saved_len_hint(db: &Database) -> usize {
    let names = db.table_names();
    let rows = names
        .iter()
        .filter_map(|name| db.table(name))
        .flat_map(|t| t.iter());
    let fields: usize = rows
        .flatten()
        .map(|v| 4 + v.as_text().map_or(20, str::len))
        .sum();
    // Escapes lengthen a few fields; schema lines are short.
    fields + fields / 32 + 4096
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
    // Older headers keep the rows-only footer.
    let whole_block = header == Some(HEADER);
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
        let mut block_sum = match whole_block {
            true => fnv1a_line(FNV_OFFSET, line),
            false => FNV_OFFSET,
        };
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
                // Checksum footer (absent in files written before it
                // existed); an unreadable one mismatches.
                if u32::from_str_radix(sum.trim(), 16) != Ok(block_sum) {
                    let detail = format!("checksum {block_sum:08x} != recorded {}", clip(sum));
                    damage.note(name, ChecksumMismatch, detail)?;
                }
                continue;
            }
            if whole_block || line.starts_with("ROW") {
                block_sum = fnv1a_line(block_sum, line);
            }
            if let Some(rest) = line.strip_prefix("COLUMN ") {
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
                let fields = || rest.split('\t').skip(1);
                let mut row = Vec::with_capacity(columns.len());
                match fields().try_for_each(|field| decode_value(field).map(|v| row.push(v))) {
                    Ok(()) => rows.push(row),
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

/// Folds one line of a block and its newline into a running `CHECK` sum,
/// so a load verifies a table without copying its text.
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

/// Appends one field of a ROW line.
fn encode_value(out: &mut String, v: &Value) -> fmt::Result {
    match v {
        Value::Null => out.push('N'),
        Value::Int(i) => write!(out, "I:{i}")?,
        // Bit-exact float round trip.
        Value::Real(r) => write!(out, "R:{}", r.to_bits())?,
        Value::Text(s) => {
            out.push_str("T:");
            escape_into(out, s);
        }
    }
    Ok(())
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
        "T" => Ok(Value::Text(unescape(body)?.into_owned())),
        _ => Err(DbError::Execution(format!("bad value tag `{tag}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};

    /// A database holding every value kind, a primary and a foreign key.
    fn every_value_kind() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE targets (name TEXT PRIMARY KEY, chains INTEGER)")
            .unwrap();
        db.execute(
            "CREATE TABLE runs (id INTEGER PRIMARY KEY, target TEXT, score REAL, note TEXT,
             FOREIGN KEY (target) REFERENCES targets(name))",
        )
        .unwrap();
        let name = "thör\\\t\n\r✓";
        db.insert("targets", vec![Value::text(name), Value::Int(i64::MIN)])
            .unwrap();
        db.insert(
            "runs",
            vec![
                Value::Int(-42),
                Value::text(name),
                Value::Real(-0.0),
                Value::text(""),
            ],
        )
        .unwrap();
        db.insert(
            "runs",
            vec![
                Value::Int(7),
                Value::Null,
                Value::Real(f64::from_bits(0x7ff8_0000_0000_0001)),
                Value::text("a\\b\\\\c\td\ne\rf — ü"),
            ],
        )
        .unwrap();
        db
    }

    /// The bytes [`every_value_kind`] saves to: the format is pinned, so
    /// a codec change that alters one byte fails here.
    const EVERY_VALUE_KIND: &str = concat!(
        "#goofidb v2\n",
        "TABLE targets\n",
        "COLUMN name TEXT PK\n",
        "COLUMN chains INTEGER\n",
        "ROW\tT:thör\\\\\\t\\n\\r✓\tI:-9223372036854775808\n",
        "CHECK f7cf0e2f\n",
        "END\n",
        "TABLE runs\n",
        "COLUMN id INTEGER PK\n",
        "COLUMN target TEXT\n",
        "COLUMN score REAL\n",
        "COLUMN note TEXT\n",
        "FK target targets name\n",
        "ROW\tI:-42\tT:thör\\\\\\t\\n\\r✓\tR:9223372036854775808\tT:\n",
        "ROW\tI:7\tN\tR:9221120237041090561\tT:a\\\\b\\\\\\\\c\\td\\ne\\rf — ü\n",
        "CHECK a93400dd\n",
        "END\n",
    );

    #[test]
    fn save_writes_the_pinned_bytes_and_load_reads_them_back() {
        let db = every_value_kind();
        assert_eq!(db.save_to_string(), EVERY_VALUE_KIND);

        // REAL values compare by bit pattern: -0.0 and the NaN payload
        // must survive, which `==` on f64 cannot see.
        let bits = |row: &Row| -> Vec<Result<u64, Value>> {
            row.iter()
                .map(|v| match v {
                    Value::Real(r) => Ok(r.to_bits()),
                    other => Err(other.clone()),
                })
                .collect()
        };
        let loaded = Database::load_from_string(EVERY_VALUE_KIND).unwrap();
        assert_eq!(loaded.table_names(), db.table_names());
        for name in db.table_names() {
            let (a, b) = (db.table(&name).unwrap(), loaded.table(&name).unwrap());
            assert_eq!(a.schema(), b.schema());
            let rows = |t: &crate::Table| t.iter().map(bits).collect::<Vec<_>>();
            assert_eq!(rows(a), rows(b), "{name}");
        }
        assert_eq!(loaded.save_to_string(), EVERY_VALUE_KIND);
    }

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
    fn the_footer_covers_schema_lines_and_older_files_still_load() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (name TEXT PRIMARY KEY, termination TEXT)")
            .unwrap();
        db.execute(
            "CREATE TABLE u (id INTEGER PRIMARY KEY, t TEXT, FOREIGN KEY (t) REFERENCES t(name))",
        )
        .unwrap();
        db.execute("INSERT INTO t (name, termination) VALUES ('a', 'end')")
            .unwrap();
        let text = db.save_to_string();
        assert!(text.starts_with("#goofidb v2\n"));
        for (line, flipped) in [
            ("TABLE u", "TABLE v"),
            ("COLUMN termination TEXT", "COLUMN terminatiom TEXT"),
            ("FK t t name", "FK t t nbme"),
        ] {
            let damaged = text.replacen(line, flipped, 1);
            assert_ne!(damaged, text);
            assert!(
                matches!(load(&damaged), Err(DbError::Corrupt { .. })),
                "{flipped}"
            );
            let (_, issues) = load_lenient(&damaged);
            assert_eq!(issues[0].kind, IssueKind::ChecksumMismatch, "{flipped}");
        }

        // A v1 file: the footer sums the ROW lines only, so its schema
        // lines stay unprotected, as they always were.
        let mut v1 = String::from("#goofidb v1\n");
        let mut block: Vec<&str> = Vec::new();
        for line in text.lines().skip(1) {
            if line.starts_with("CHECK ") {
                let rows: String = block
                    .iter()
                    .filter(|l| l.starts_with("ROW"))
                    .map(|l| format!("{l}\n"))
                    .collect();
                v1.push_str(&format!("CHECK {:08x}\n", fnv1a(rows.as_bytes())));
                block.clear();
            } else {
                block.push(line);
                v1.push_str(&format!("{line}\n"));
            }
        }
        assert_eq!(load(&v1).unwrap().table_names(), db.table_names());
        let renamed = v1.replacen("COLUMN termination", "COLUMN terminatiom", 1);
        assert!(load(&renamed).is_ok());
        assert!(load(&v1.replacen("T:end", "T:enc", 1)).is_err());
        // No footer at all, as before footers existed.
        let bare: String = text
            .lines()
            .filter(|l| !l.starts_with("CHECK "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(load(&bare).unwrap().table_names(), db.table_names());
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
