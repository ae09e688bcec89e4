//! Row storage with a primary-key index.

use crate::schema::TableSchema;
use crate::value::{AsKey, Key, Value};
use crate::DbError;
use std::collections::{HashMap, HashSet};

/// One row: values in schema column order.
pub type Row = Vec<Value>;

/// A table: schema + rows + primary-key index.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Row>,
    pk_index: KeyIndex,
}

/// The primary-key index: each key's row position. Integer and text keys
/// are kept apart so a lookup hashes the borrowed key it is given.
#[derive(Debug, Clone, Default)]
struct KeyIndex {
    ints: HashMap<i64, usize>,
    texts: HashMap<String, usize>,
}

impl KeyIndex {
    fn get(&self, key: Key<'_>) -> Option<usize> {
        match key {
            Key::Int(i) => self.ints.get(&i),
            Key::Text(s) => self.texts.get(s),
        }
        .copied()
    }

    fn insert(&mut self, key: Key<'_>, at: usize) {
        match key {
            Key::Int(i) => self.ints.insert(i, at),
            Key::Text(s) => self.texts.insert(s.to_owned(), at),
        };
    }

    fn clear(&mut self) {
        self.ints.clear();
        self.texts.clear();
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
            pk_index: KeyIndex::default(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over all rows.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// Validates a row against the schema (arity, types, PK key-ability);
    /// returns the primary-key column index and key for indexed tables.
    fn validate<'r>(&self, row: &'r Row) -> Result<Option<(usize, Key<'r>)>, DbError> {
        if row.len() != self.schema.columns.len() {
            return Err(DbError::ArityMismatch {
                expected: self.schema.columns.len(),
                got: row.len(),
            });
        }
        for (col, v) in self.schema.columns.iter().zip(row) {
            if !col.ty.accepts(v) {
                return Err(DbError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty.keyword(),
                    got: v.type_name(),
                });
            }
        }
        match self.schema.primary_key_index() {
            Some(pk) => {
                let key = row[pk].as_key().ok_or_else(|| DbError::BadPrimaryKey {
                    table: self.schema.name.clone(),
                    reason: format!("key value {} is not indexable", row[pk]),
                })?;
                Ok(Some((pk, key)))
            }
            None => Ok(None),
        }
    }

    /// Inserts a row.
    ///
    /// # Errors
    ///
    /// Fails on arity/type mismatch, NULL/REAL primary keys and duplicate
    /// primary keys. Foreign keys are checked by the
    /// [`Database`](crate::Database), which can see the referenced tables.
    pub fn insert(&mut self, row: Row) -> Result<(), DbError> {
        if let Some((pk, key)) = self.validate(&row)? {
            if self.pk_index.get(key).is_some() {
                return Err(DbError::DuplicateKey {
                    table: self.schema.name.clone(),
                    key: row[pk].to_string(),
                });
            }
            self.pk_index.insert(key, self.rows.len());
        }
        self.rows.push(row);
        Ok(())
    }

    /// Point lookup by primary key: a [`Value`](crate::Value), or a
    /// `str` for a TEXT key.
    pub fn find_by_key<K: AsKey + ?Sized>(&self, key: &K) -> Option<&Row> {
        let at = self.pk_index.get(key.as_key()?)?;
        Some(&self.rows[at])
    }

    /// Whether a primary-key value exists (foreign-key checks).
    pub fn contains_key<K: AsKey + ?Sized>(&self, key: &K) -> bool {
        self.find_by_key(key).is_some()
    }

    /// Deletes all rows matching `pred`; returns how many were removed.
    pub fn delete_where(&mut self, mut pred: impl FnMut(&Row) -> bool) -> usize {
        let before = self.rows.len();
        self.rows.retain(|r| !pred(r));
        let removed = before - self.rows.len();
        if removed > 0 {
            self.rebuild_index();
        }
        removed
    }

    /// Applies `update` to all rows matching `pred`; returns how many
    /// changed. The caller must re-validate PK/type invariants via
    /// [`Database`](crate::Database)-level update, which funnels here.
    pub(crate) fn update_where(
        &mut self,
        mut pred: impl FnMut(&Row) -> bool,
        mut update: impl FnMut(&mut Row),
    ) -> usize {
        let mut changed = 0;
        for row in &mut self.rows {
            if pred(row) {
                update(row);
                changed += 1;
            }
        }
        if changed > 0 {
            self.rebuild_index();
        }
        changed
    }

    /// Re-validates every row after a bulk mutation.
    pub(crate) fn revalidate(&self) -> Result<(), DbError> {
        let mut seen = HashSet::new();
        for row in &self.rows {
            if let Some((pk, key)) = self.validate(row)? {
                if !seen.insert(key) {
                    return Err(DbError::DuplicateKey {
                        table: self.schema.name.clone(),
                        key: row[pk].to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    fn rebuild_index(&mut self) {
        self.pk_index.clear();
        if let Some(pk) = self.schema.primary_key_index() {
            for (i, row) in self.rows.iter().enumerate() {
                if let Some(key) = row[pk].as_key() {
                    self.pk_index.insert(key, i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};

    fn table() -> Table {
        Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::primary("id", ColumnType::Integer),
                    ColumnDef::new("name", ColumnType::Text),
                ],
                vec![],
            )
            .unwrap(),
        )
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::text("a")]).unwrap();
        t.insert(vec![Value::Int(2), Value::text("b")]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.find_by_key(&Value::Int(2)).unwrap()[1], Value::text("b"));
        assert!(t.find_by_key(&Value::Int(3)).is_none());
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::text("a")]).unwrap();
        let e = t.insert(vec![Value::Int(1), Value::text("b")]).unwrap_err();
        assert!(matches!(e, DbError::DuplicateKey { .. }));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn null_key_rejected() {
        let mut t = table();
        let e = t.insert(vec![Value::Null, Value::text("a")]).unwrap_err();
        assert!(matches!(e, DbError::BadPrimaryKey { .. }));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = table();
        let e = t.insert(vec![Value::Int(1), Value::Int(2)]).unwrap_err();
        assert!(matches!(e, DbError::TypeMismatch { .. }));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = table();
        let e = t.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(
            e,
            DbError::ArityMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn delete_rebuilds_index() {
        let mut t = table();
        for i in 0..5 {
            t.insert(vec![Value::Int(i), Value::text(format!("n{i}"))])
                .unwrap();
        }
        let removed = t.delete_where(|r| r[0].as_int().unwrap() % 2 == 0);
        assert_eq!(removed, 3);
        assert!(t.find_by_key(&Value::Int(0)).is_none());
        assert!(t.find_by_key(&Value::Int(3)).is_some());
    }

    #[test]
    fn update_rebuilds_index() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::text("a")]).unwrap();
        let n = t.update_where(|r| r[0] == Value::Int(1), |r| r[0] = Value::Int(99));
        assert_eq!(n, 1);
        assert!(t.find_by_key(&Value::Int(99)).is_some());
        assert!(t.find_by_key(&Value::Int(1)).is_none());
        t.revalidate().unwrap();
    }
}
