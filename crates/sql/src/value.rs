//! Typed values and the common-schema data types.
//!
//! Every TDS hosts a local database conforming to a common schema (Section
//! 2.1), so one small, closed set of types suffices: 64-bit integers, 64-bit
//! floats, UTF-8 strings, booleans and NULL.

use std::cmp::Ordering;

use crate::error::{Result, SqlError};

/// Data types of the common schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataType::Int => f.write_str("INT"),
            DataType::Float => f.write_str("FLOAT"),
            DataType::Str => f.write_str("TEXT"),
            DataType::Bool => f.write_str("BOOL"),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The value's type, if not NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Is this SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (Int or Float), used by arithmetic and aggregates.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(SqlError::Type {
                message: format!("expected numeric value, got {other}"),
            }),
        }
    }

    /// Boolean view for predicates; NULL maps to `None` (unknown).
    pub fn as_bool3(&self) -> Result<Option<bool>> {
        match self {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(*b)),
            other => Err(SqlError::Type {
                message: format!("expected boolean value, got {other}"),
            }),
        }
    }

    /// SQL equality: NULL = anything is unknown (None).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL comparison with numeric coercion between Int and Float.
    /// Returns `None` when either side is NULL or the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Length of [`Self::canonical_bytes`]' output for this value.
    pub fn canonical_len(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) | Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Bool(_) => 2,
        }
    }

    /// A canonical byte encoding used for grouping keys, DISTINCT sets and
    /// deterministic encryption. Integers that equal a float value encode
    /// differently (they are different values to GROUP BY, matching the
    /// common-schema typing: a column is either INT or FLOAT, never mixed).
    pub fn canonical_bytes(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_be_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                // Normalise -0.0 to 0.0 so equal floats share an encoding.
                let f = if *f == 0.0 { 0.0 } else { *f };
                out.extend_from_slice(&f.to_be_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                // Counter-width audit: length-prefixes an in-memory string
                // value so canonical encodings stay prefix-free. A u32
                // overflow needs a >4 GiB resident string — memory
                // exhaustion strikes first — so the cast stays, guarded.
                debug_assert!(u32::try_from(s.len()).is_ok());
                out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                out.push(4);
                out.push(*b as u8);
            }
        }
    }
}

impl Value {
    /// Decode one canonical value from `buf`, advancing `pos`
    /// (inverse of [`Value::canonical_bytes`]).
    pub fn decode_canonical(buf: &[u8], pos: &mut usize) -> Result<Value> {
        let err = || SqlError::Type {
            message: "corrupt canonical value".into(),
        };
        let tag = *buf.get(*pos).ok_or_else(err)?;
        *pos += 1;
        match tag {
            0 => Ok(Value::Null),
            1 => {
                let b: [u8; 8] = buf.get(*pos..*pos + 8).ok_or_else(err)?.try_into().unwrap();
                *pos += 8;
                Ok(Value::Int(i64::from_be_bytes(b)))
            }
            2 => {
                let b: [u8; 8] = buf.get(*pos..*pos + 8).ok_or_else(err)?.try_into().unwrap();
                *pos += 8;
                Ok(Value::Float(f64::from_be_bytes(b)))
            }
            3 => {
                let lb: [u8; 4] = buf.get(*pos..*pos + 4).ok_or_else(err)?.try_into().unwrap();
                *pos += 4;
                let len = u32::from_be_bytes(lb) as usize;
                let bytes = buf.get(*pos..*pos + len).ok_or_else(err)?;
                *pos += len;
                let s = std::str::from_utf8(bytes).map_err(|_| err())?.to_string();
                Ok(Value::Str(s))
            }
            4 => {
                let b = *buf.get(*pos).ok_or_else(err)?;
                *pos += 1;
                Ok(Value::Bool(b != 0))
            }
            _ => Err(err()),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                // Keep the literal unambiguously a float so that printed
                // queries re-parse to the same AST ("2.0", not "2").
                if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A grouping key: the canonical encoding of the grouping-attribute values.
/// Hashable and ordered, used as the map key in every aggregation phase.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey(pub Vec<u8>);

/// Keys order and compare as their bytes do, so a map keyed by `GroupKey`
/// can be searched with a borrowed key slice.
impl std::borrow::Borrow<[u8]> for GroupKey {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl GroupKey {
    /// Encode a slice of values into one key.
    pub fn from_values(values: &[Value]) -> Self {
        let mut buf = Vec::with_capacity(values.len() * 9);
        for v in values {
            v.canonical_bytes(&mut buf);
        }
        GroupKey(buf)
    }

    /// Decode back to values (inverse of [`GroupKey::from_values`]).
    pub fn to_values(&self) -> Vec<Value> {
        let mut values = Vec::new();
        let buf = &self.0;
        let mut i = 0;
        while i < buf.len() {
            match buf[i] {
                0 => {
                    values.push(Value::Null);
                    i += 1;
                }
                1 => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&buf[i + 1..i + 9]);
                    values.push(Value::Int(i64::from_be_bytes(b)));
                    i += 9;
                }
                2 => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&buf[i + 1..i + 9]);
                    values.push(Value::Float(f64::from_be_bytes(b)));
                    i += 9;
                }
                3 => {
                    let mut lb = [0u8; 4];
                    lb.copy_from_slice(&buf[i + 1..i + 5]);
                    let len = u32::from_be_bytes(lb) as usize;
                    let s = String::from_utf8_lossy(&buf[i + 5..i + 5 + len]).into_owned();
                    values.push(Value::Str(s));
                    i += 5 + len;
                }
                4 => {
                    values.push(Value::Bool(buf[i + 1] != 0));
                    i += 2;
                }
                other => panic!("corrupt GroupKey tag {other}"),
            }
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_numeric_coercion() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Int(2)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn null_comparisons_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn incomparable_types() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Str("1".into())), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn group_key_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(3.25),
            Value::Str("détaché".into()),
            Value::Bool(true),
        ];
        let key = GroupKey::from_values(&vals);
        assert_eq!(key.to_values(), vals);
    }

    #[test]
    fn canonical_len_matches_canonical_bytes() {
        for v in [
            Value::Null,
            Value::Int(-7),
            Value::Float(2.5),
            Value::Str(String::new()),
            Value::Str("district-3".into()),
            Value::Bool(true),
        ] {
            let mut out = Vec::new();
            v.canonical_bytes(&mut out);
            assert_eq!(v.canonical_len(), out.len(), "{v:?}");
        }
    }

    #[test]
    fn group_key_distinguishes_types() {
        let int_key = GroupKey::from_values(&[Value::Int(1)]);
        let float_key = GroupKey::from_values(&[Value::Float(1.0)]);
        assert_ne!(int_key, float_key);
    }

    #[test]
    fn group_key_negative_zero_float() {
        let a = GroupKey::from_values(&[Value::Float(0.0)]);
        let b = GroupKey::from_values(&[Value::Float(-0.0)]);
        assert_eq!(a, b);
    }

    #[test]
    fn group_key_string_boundaries() {
        // ["ab","c"] must differ from ["a","bc"].
        let a = GroupKey::from_values(&[Value::Str("ab".into()), Value::Str("c".into())]);
        let b = GroupKey::from_values(&[Value::Str("a".into()), Value::Str("bc".into())]);
        assert_ne!(a, b);
    }

    #[test]
    fn decode_canonical_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::Int(99),
            Value::Float(-1.5),
            Value::Str("x'y".into()),
            Value::Bool(false),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            v.canonical_bytes(&mut buf);
        }
        let mut pos = 0;
        for v in &vals {
            assert_eq!(&Value::decode_canonical(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
        assert!(Value::decode_canonical(&buf, &mut pos).is_err());
        assert!(Value::decode_canonical(&[7], &mut 0).is_err());
        assert!(Value::decode_canonical(&[1, 0], &mut 0).is_err());
    }

    #[test]
    fn as_bool3() {
        assert_eq!(Value::Bool(true).as_bool3().unwrap(), Some(true));
        assert_eq!(Value::Null.as_bool3().unwrap(), None);
        assert!(Value::Int(1).as_bool3().is_err());
    }
}
