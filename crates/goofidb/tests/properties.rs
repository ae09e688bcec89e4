//! Property-based tests for the database substrate.

use goofidb::{Database, Value};
use proptest::prelude::*;
use std::cmp::Ordering;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Real),
        // Text including separators and escapes the persistence layer
        // must survive.
        "[ -~\\t\\n]{0,24}".prop_map(Value::Text),
    ]
}

/// Saved text of a database with two tables joined by a foreign key,
/// whose child rows carry `notes`: text that needs escaping.
fn saved_with_fk(notes: &[String]) -> String {
    let mut db = Database::new();
    db.execute("CREATE TABLE targets (name TEXT PRIMARY KEY, chains INTEGER)")
        .unwrap();
    db.execute(
        "CREATE TABLE runs (id INTEGER PRIMARY KEY, target TEXT, note TEXT, score REAL,
         FOREIGN KEY (target) REFERENCES targets(name))",
    )
    .unwrap();
    let targets = [Value::text("thor"), Value::text("rv\t32\\x"), Value::Null];
    db.insert("targets", vec![targets[0].clone(), Value::Int(5)])
        .unwrap();
    db.insert("targets", vec![targets[1].clone(), Value::Null])
        .unwrap();
    for (i, note) in notes.iter().enumerate() {
        let row = vec![
            Value::Int(i as i64),
            targets[i % 3].clone(),
            Value::text(note.clone()),
            Value::Real(i as f64 / 3.0),
        ];
        db.insert("runs", row).unwrap();
    }
    db.save_to_string()
}

proptest! {
    #[test]
    fn strict_and_salvaging_reads_agree_on_any_single_damage(
        notes in proptest::collection::vec("[ -~\\t\\n]{0,12}", 1..5),
        at: usize,
        bit in 0u8..8,
    ) {
        let text = saved_with_fk(&notes);
        let bytes = text.as_bytes();
        let lines: Vec<&str> = text.lines().collect();
        let mut flipped = bytes.to_vec();
        flipped[at % bytes.len()] ^= 1 << bit;
        let mut dropped = lines.clone();
        dropped.remove(at % lines.len());
        let mut blank = lines.clone();
        blank.insert(at % (lines.len() + 1), "");
        let damaged = [
            String::from_utf8_lossy(&flipped).into_owned(),
            String::from_utf8_lossy(&bytes[..at % bytes.len()]).into_owned(),
            dropped.join("\n") + "\n",
            blank.join("\n") + "\n",
        ];
        for text in damaged {
            let strict = Database::load_from_string(&text);
            let (salvaged, issues) = Database::load_from_string_lenient(&text);
            prop_assert_eq!(strict.is_ok(), issues.is_empty(), "{:?}\n{}", issues, text);
            if let Ok(db) = strict {
                prop_assert_eq!(db.save_to_string(), salvaged.save_to_string());
            }
        }
    }

    #[test]
    fn insert_then_count_and_point_lookup(
        rows in proptest::collection::btree_map(any::<i64>(), arb_value(), 0..40),
    ) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)").unwrap();
        let mut inserted = 0i64;
        for (id, v) in &rows {
            let text = match v {
                Value::Text(_) => v.clone(),
                other => Value::Text(other.to_string()),
            };
            db.insert("t", vec![Value::Int(*id), text]).unwrap();
            inserted += 1;
        }
        let r = db.query("SELECT COUNT(*) AS n FROM t").unwrap();
        prop_assert_eq!(r.scalar(), Some(&Value::Int(inserted)));
        for id in rows.keys() {
            prop_assert!(db.table("t").unwrap().find_by_key(&Value::Int(*id)).is_some());
        }
        db.check_integrity().unwrap();
    }

    #[test]
    fn duplicate_pk_always_rejected(id: i64) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)").unwrap();
        db.insert("t", vec![Value::Int(id)]).unwrap();
        prop_assert!(db.insert("t", vec![Value::Int(id)]).is_err());
        prop_assert_eq!(db.table("t").unwrap().len(), 1);
    }

    #[test]
    fn persistence_roundtrip_arbitrary_values(
        rows in proptest::collection::vec((any::<i64>(), arb_value()), 0..30),
    ) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b REAL, c TEXT)")
            .unwrap();
        for (next_id, (_seed, v)) in rows.into_iter().enumerate() {
            let (a, b, c) = match v {
                Value::Int(x) => (Value::Int(x), Value::Null, Value::Null),
                Value::Real(x) => (Value::Null, Value::Real(x), Value::Null),
                Value::Text(x) => (Value::Null, Value::Null, Value::Text(x)),
                Value::Null => (Value::Null, Value::Null, Value::Null),
            };
            db.insert("t", vec![Value::Int(next_id as i64), a, b, c]).unwrap();
        }
        let restored = Database::load_from_string(&db.save_to_string()).unwrap();
        let orig = db.table("t").unwrap();
        let back = restored.table("t").unwrap();
        prop_assert_eq!(orig.len(), back.len());
        for (a, b) in orig.iter().zip(back.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                match (x, y) {
                    // NaN round-trips bit-exactly but NaN != NaN.
                    (Value::Real(p), Value::Real(q)) => {
                        prop_assert_eq!(p.to_bits(), q.to_bits());
                    }
                    _ => prop_assert_eq!(x, y),
                }
            }
        }
    }

    #[test]
    fn order_key_is_total_and_antisymmetric(a in arb_value(), b in arb_value(), c in arb_value()) {
        // Antisymmetry.
        match a.order_key(&b) {
            Ordering::Less => prop_assert_eq!(b.order_key(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.order_key(&a), Ordering::Less),
            Ordering::Equal => prop_assert_eq!(b.order_key(&a), Ordering::Equal),
        }
        // Transitivity of <=.
        if a.order_key(&b) != Ordering::Greater && b.order_key(&c) != Ordering::Greater {
            prop_assert_ne!(a.order_key(&c), Ordering::Greater);
        }
    }

    #[test]
    fn order_by_sorts_consistently(values in proptest::collection::vec(any::<i64>(), 0..30)) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)").unwrap();
        for (i, v) in values.iter().enumerate() {
            db.insert("t", vec![Value::Int(i as i64), Value::Int(*v)]).unwrap();
        }
        let r = db.query("SELECT v FROM t ORDER BY v").unwrap();
        let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn delete_preserves_integrity_with_fk(
        keep in proptest::collection::vec(any::<bool>(), 10),
    ) {
        let mut db = Database::new();
        db.execute("CREATE TABLE parents (id INTEGER PRIMARY KEY)").unwrap();
        db.execute(
            "CREATE TABLE children (id INTEGER PRIMARY KEY, p INTEGER,
             FOREIGN KEY (p) REFERENCES parents(id))",
        )
        .unwrap();
        for i in 0..10i64 {
            db.insert("parents", vec![Value::Int(i)]).unwrap();
        }
        // Children reference the parents we intend to keep.
        let mut child_id = 0i64;
        for (i, k) in keep.iter().enumerate() {
            if *k {
                db.insert("children", vec![Value::Int(child_id), Value::Int(i as i64)]).unwrap();
                child_id += 1;
            }
        }
        // Deleting unreferenced parents succeeds; referenced ones fail.
        for (i, k) in keep.iter().enumerate() {
            let result = db.delete_where("parents", |r| r[0] == Value::Int(i as i64));
            prop_assert_eq!(result.is_err(), *k, "parent {}", i);
        }
        db.check_integrity().unwrap();
    }
}
