//! SQL values and their comparison semantics.

use std::cmp::Ordering;
use std::fmt;

/// A dynamically typed SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Double-precision float.
    Real(f64),
    /// UTF-8 string.
    Text(String),
}

impl Value {
    /// Convenience constructor from anything stringy.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// Whether the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Real` coerce to `f64`.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// The text content, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison with numeric coercion between `Int` and `Real`.
    ///
    /// Returns `None` when either side is NULL or the types are
    /// incomparable (number vs text) — such comparisons are "unknown" and
    /// filter rows out, as in SQL.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_real()?, b.as_real()?);
                Some(x.total_cmp(&y))
            }
        }
    }

    /// Total ordering used by `ORDER BY`: NULL < numbers < text.
    pub fn order_key(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Real(_) => 1,
                Value::Text(_) => 2,
            }
        }
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => self.compare(other).unwrap_or(Ordering::Equal),
            o => o,
        }
    }

    /// SQL type name of the value, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INTEGER",
            Value::Real(_) => "REAL",
            Value::Text(_) => "TEXT",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Text(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(v)
    }
}

/// A primary-key value, borrowed from a row or a lookup.
///
/// Only integer and text values may be primary keys (floats make unreliable
/// keys and are rejected at insert time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key<'a> {
    /// Integer key.
    Int(i64),
    /// Text key.
    Text(&'a str),
}

/// What a primary-key lookup takes: a [`Value`], or a `str` to look a
/// TEXT key up without building a [`Value`] for it.
pub trait AsKey {
    /// The key; `None` for NULL and REAL, which no row has as its key.
    fn as_key(&self) -> Option<Key<'_>>;
}

impl AsKey for Value {
    fn as_key(&self) -> Option<Key<'_>> {
        match self {
            Value::Int(i) => Some(Key::Int(*i)),
            Value::Text(s) => Some(Key::Text(s)),
            _ => None,
        }
    }
}

impl AsKey for str {
    fn as_key(&self) -> Option<Key<'_>> {
        Some(Key::Text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coerced_numeric_comparison() {
        assert_eq!(
            Value::Int(2).compare(&Value::Real(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Real(1.5).compare(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Null), None);
    }

    #[test]
    fn text_vs_number_is_unknown() {
        assert_eq!(Value::text("a").compare(&Value::Int(1)), None);
    }

    #[test]
    fn order_key_total_order() {
        let mut vals = vec![
            Value::text("b"),
            Value::Int(10),
            Value::Null,
            Value::Real(2.5),
            Value::text("a"),
        ];
        vals.sort_by(|a, b| a.order_key(b));
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Real(2.5),
                Value::Int(10),
                Value::text("a"),
                Value::text("b"),
            ]
        );
    }

    #[test]
    fn key_values() {
        assert_eq!(Value::Int(3).as_key(), Some(Key::Int(3)));
        assert_eq!(Value::text("x").as_key(), Some(Key::Text("x")));
        assert_eq!("x".as_key(), Value::text("x").as_key());
        assert_eq!(Value::Real(1.0).as_key(), None);
        assert_eq!(Value::Null.as_key(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Real(2.5).to_string(), "2.5");
        assert_eq!(Value::text("hi").to_string(), "hi");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(5u32), Value::Int(5));
        assert_eq!(Value::from("s"), Value::text("s"));
        assert_eq!(Value::from(0.5), Value::Real(0.5));
    }
}
