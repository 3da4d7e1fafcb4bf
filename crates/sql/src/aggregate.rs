//! Aggregate functions with **mergeable partial states**.
//!
//! The protocols never ship raw tuples past the collection phase: TDSs
//! compute *partial aggregations* over whatever partition the SSI hands
//! them, and partial states merge pairwise (the paper's `Ω = Ω ⊕ tup` /
//! `Ω = Ω ⊕ Ω`) until one state per group remains. Merge is associative and
//! commutative, so any partitioning the SSI chooses yields the same final
//! answer: `exact_aggregate_merge_is_partition_and_order_invariant` in
//! `tests/generated.rs` checks that for COUNT, SUM, MIN, MAX, MEDIAN and
//! MODE. AVG, VARIANCE and STDDEV merge floats, so the last ulp may still
//! depend on the merge order.
//!
//! Classes from the paper (after \[27\]):
//! * distributive — COUNT, SUM, MIN, MAX: the partial state is the result;
//! * algebraic — AVG, VARIANCE, STDDEV: small fixed-size state
//!   (count/mean/M2, merged with Chan's parallel update);
//! * holistic — MEDIAN, and any DISTINCT aggregate: the state carries the
//!   full (multi)set, which is why the paper flags RAM as the limiting
//!   factor of `S_Agg` for large group counts.

use std::collections::BTreeSet;

use crate::ast::{AggCall, AggFunc};
use crate::error::{Result, SqlError};
use crate::value::Value;

/// Specification of one aggregate slot: function + DISTINCT flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// Function.
    pub func: AggFunc,
    /// DISTINCT flag.
    pub distinct: bool,
}

impl AggSpec {
    /// Extract the spec from a parsed call.
    pub fn from_call(call: &AggCall) -> Self {
        Self {
            func: call.func,
            distinct: call.distinct,
        }
    }

    /// Fresh empty state for this spec.
    pub fn init(&self) -> AggState {
        if self.distinct {
            AggState::Distinct(BTreeSet::new())
        } else {
            AggState::Plain(match self.func {
                AggFunc::Count => PlainState::Count(0),
                AggFunc::Sum => PlainState::Sum(SumState::Empty),
                AggFunc::Min => PlainState::Min(None),
                AggFunc::Max => PlainState::Max(None),
                AggFunc::Avg => PlainState::Avg { sum: 0.0, n: 0 },
                AggFunc::Variance | AggFunc::StdDev => PlainState::Var {
                    n: 0,
                    mean: 0.0,
                    m2: 0.0,
                },
                AggFunc::Median => PlainState::Median(Vec::new()),
                AggFunc::Mode => PlainState::Mode(std::collections::BTreeMap::new()),
            })
        }
    }
}

/// Running sum that stays exact for integers.
#[derive(Debug, Clone, PartialEq)]
pub enum SumState {
    /// No non-NULL input yet.
    Empty,
    /// All inputs were integers.
    Int(i128),
    /// At least one float input (or overflow promotion).
    Float(f64),
}

/// Non-DISTINCT partial states.
#[derive(Debug, Clone, PartialEq)]
pub enum PlainState {
    /// Row / non-NULL count.
    Count(u64),
    /// Sum.
    Sum(SumState),
    /// Minimum value so far.
    Min(Option<Value>),
    /// Maximum value so far.
    Max(Option<Value>),
    /// Average (algebraic: sum + count).
    Avg {
        /// Sum of inputs.
        sum: f64,
        /// Count of non-NULL inputs.
        n: u64,
    },
    /// Variance / stddev via Welford + Chan merge.
    Var {
        /// Count.
        n: u64,
        /// Running mean.
        mean: f64,
        /// Sum of squared deviations.
        m2: f64,
    },
    /// Median (holistic: the whole multiset travels).
    Median(Vec<f64>),
    /// Mode (holistic: canonical value encoding → occurrence count).
    Mode(std::collections::BTreeMap<Vec<u8>, u64>),
}

/// A mergeable partial aggregate state.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// Non-DISTINCT state.
    Plain(PlainState),
    /// DISTINCT: set of canonical single-value encodings; the function is
    /// applied to the set at finalize time.
    Distinct(BTreeSet<Vec<u8>>),
}

impl AggState {
    /// Feed one input value. NULLs are skipped per SQL semantics; the engine
    /// feeds a non-NULL marker for `COUNT(*)`.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            AggState::Distinct(set) => {
                let mut buf = Vec::with_capacity(9);
                v.canonical_bytes(&mut buf);
                set.insert(buf);
                Ok(())
            }
            AggState::Plain(p) => p.update(v),
        }
    }

    /// Merge another partial state of the same spec (`⊕`).
    pub fn merge(&mut self, other: &AggState) -> Result<()> {
        match (self, other) {
            (AggState::Distinct(a), AggState::Distinct(b)) => {
                a.extend(b.iter().cloned());
                Ok(())
            }
            (AggState::Plain(a), AggState::Plain(b)) => a.merge(b),
            _ => Err(SqlError::Aggregate {
                message: "mismatched partial-state kinds".into(),
            }),
        }
    }

    /// Produce the final value for `spec`.
    pub fn finalize(&self, spec: &AggSpec) -> Result<Value> {
        match self {
            AggState::Plain(p) => p.finalize(spec.func),
            AggState::Distinct(set) => {
                // Re-run the plain aggregator over the distinct set.
                let mut plain = AggSpec {
                    func: spec.func,
                    distinct: false,
                }
                .init();
                for enc in set {
                    let vals = crate::value::GroupKey(enc.clone()).to_values();
                    debug_assert_eq!(vals.len(), 1);
                    plain.update(&vals[0])?;
                }
                plain.finalize(spec)
            }
        }
    }
}

impl PlainState {
    fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            PlainState::Count(n) => {
                *n += 1;
                Ok(())
            }
            PlainState::Sum(s) => s.add(v),
            PlainState::Min(cur) => replace_if(cur, v, std::cmp::Ordering::Greater),
            PlainState::Max(cur) => replace_if(cur, v, std::cmp::Ordering::Less),
            PlainState::Avg { sum, n } => {
                *sum += v.as_f64()?;
                *n += 1;
                Ok(())
            }
            PlainState::Var { n, mean, m2 } => {
                let x = v.as_f64()?;
                *n += 1;
                let delta = x - *mean;
                *mean += delta / *n as f64;
                *m2 += delta * (x - *mean);
                Ok(())
            }
            PlainState::Median(values) => {
                values.push(v.as_f64()?);
                Ok(())
            }
            PlainState::Mode(counts) => {
                let mut enc = Vec::with_capacity(9);
                v.canonical_bytes(&mut enc);
                *counts.entry(enc).or_insert(0) += 1;
                Ok(())
            }
        }
    }

    fn merge(&mut self, other: &PlainState) -> Result<()> {
        match (self, other) {
            (PlainState::Count(a), PlainState::Count(b)) => {
                *a += b;
                Ok(())
            }
            (PlainState::Sum(a), PlainState::Sum(b)) => a.merge(b),
            (PlainState::Min(a), PlainState::Min(b)) => {
                if let Some(v) = b {
                    replace_if(a, v, std::cmp::Ordering::Greater)?;
                }
                Ok(())
            }
            (PlainState::Max(a), PlainState::Max(b)) => {
                if let Some(v) = b {
                    replace_if(a, v, std::cmp::Ordering::Less)?;
                }
                Ok(())
            }
            (PlainState::Avg { sum: s1, n: n1 }, PlainState::Avg { sum: s2, n: n2 }) => {
                *s1 += s2;
                *n1 += n2;
                Ok(())
            }
            (
                PlainState::Var {
                    n: n1,
                    mean: m1,
                    m2: sq1,
                },
                PlainState::Var {
                    n: n2,
                    mean: m2v,
                    m2: sq2,
                },
            ) => {
                // Chan et al. parallel combination.
                if *n2 == 0 {
                    return Ok(());
                }
                if *n1 == 0 {
                    *n1 = *n2;
                    *m1 = *m2v;
                    *sq1 = *sq2;
                    return Ok(());
                }
                let n = *n1 + *n2;
                let delta = *m2v - *m1;
                let new_mean = *m1 + delta * (*n2 as f64) / n as f64;
                *sq1 += sq2 + delta * delta * (*n1 as f64) * (*n2 as f64) / n as f64;
                *m1 = new_mean;
                *n1 = n;
                Ok(())
            }
            (PlainState::Median(a), PlainState::Median(b)) => {
                a.extend_from_slice(b);
                Ok(())
            }
            (PlainState::Mode(a), PlainState::Mode(b)) => {
                for (enc, count) in b {
                    *a.entry(enc.clone()).or_insert(0) += count;
                }
                Ok(())
            }
            _ => Err(SqlError::Aggregate {
                message: "mismatched plain-state variants".into(),
            }),
        }
    }

    fn finalize(&self, func: AggFunc) -> Result<Value> {
        Ok(match self {
            PlainState::Count(n) => Value::Int(*n as i64),
            PlainState::Sum(SumState::Empty) => Value::Null,
            PlainState::Sum(SumState::Int(i)) => {
                Value::Int(i64::try_from(*i).map_err(|_| SqlError::Type {
                    message: "SUM overflows 64-bit integer".into(),
                })?)
            }
            PlainState::Sum(SumState::Float(f)) => Value::Float(*f),
            PlainState::Min(v) | PlainState::Max(v) => v.clone().unwrap_or(Value::Null),
            PlainState::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
            PlainState::Var { n, m2, .. } => {
                if *n < 2 {
                    Value::Null
                } else {
                    let var = m2 / (*n as f64 - 1.0);
                    match func {
                        AggFunc::StdDev => Value::Float(var.sqrt()),
                        _ => Value::Float(var),
                    }
                }
            }
            PlainState::Median(values) => {
                if values.is_empty() {
                    Value::Null
                } else {
                    let mut sorted = values.clone();
                    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in median input"));
                    let mid = sorted.len() / 2;
                    if sorted.len() % 2 == 1 {
                        Value::Float(sorted[mid])
                    } else {
                        Value::Float((sorted[mid - 1] + sorted[mid]) / 2.0)
                    }
                }
            }
            PlainState::Mode(counts) => match counts
                .iter()
                // Max count; BTreeMap order breaks ties on the smallest
                // canonical encoding, deterministically across partitions.
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            {
                None => Value::Null,
                Some((enc, _)) => crate::value::GroupKey(enc.clone())
                    .to_values()
                    .into_iter()
                    .next()
                    .expect("one value"),
            },
        })
    }
}

fn replace_if(cur: &mut Option<Value>, v: &Value, replace_when: std::cmp::Ordering) -> Result<()> {
    match cur {
        None => {
            *cur = Some(v.clone());
            Ok(())
        }
        Some(existing) => {
            let ord = existing.sql_cmp(v).ok_or_else(|| SqlError::Type {
                message: format!("cannot order {existing} against {v}"),
            })?;
            if ord == replace_when {
                *cur = Some(v.clone());
            }
            Ok(())
        }
    }
}

impl SumState {
    fn add(&mut self, v: &Value) -> Result<()> {
        match (&mut *self, v) {
            (SumState::Empty, Value::Int(i)) => {
                *self = SumState::Int(*i as i128);
                Ok(())
            }
            (SumState::Empty, Value::Float(f)) => {
                *self = SumState::Float(*f);
                Ok(())
            }
            (SumState::Int(acc), Value::Int(i)) => {
                *acc += *i as i128;
                Ok(())
            }
            (SumState::Int(acc), Value::Float(f)) => {
                *self = SumState::Float(*acc as f64 + f);
                Ok(())
            }
            (SumState::Float(acc), _) => {
                *acc += v.as_f64()?;
                Ok(())
            }
            (_, other) => Err(SqlError::Type {
                message: format!("SUM expects numeric, got {other}"),
            }),
        }
    }

    fn merge(&mut self, other: &SumState) -> Result<()> {
        match (&mut *self, other) {
            (_, SumState::Empty) => Ok(()),
            (SumState::Empty, o) => {
                *self = o.clone();
                Ok(())
            }
            (SumState::Int(a), SumState::Int(b)) => {
                *a += b;
                Ok(())
            }
            (SumState::Int(a), SumState::Float(b)) => {
                *self = SumState::Float(*a as f64 + b);
                Ok(())
            }
            (SumState::Float(a), SumState::Int(b)) => {
                *a += *b as f64;
                Ok(())
            }
            (SumState::Float(a), SumState::Float(b)) => {
                *a += b;
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire encoding — partial aggregates are what TDSs encrypt and ship via the
// SSI, so the state needs a compact, self-describing byte format.
// ---------------------------------------------------------------------------

impl AggState {
    /// Serialize to bytes.
    ///
    /// Counter-width audit: the `as u32` casts in this impl (and in
    /// `PlainState::encode`) count elements of in-memory sets/vectors. A
    /// u32 overflow would need >4 billion resident entries — memory
    /// exhaustion strikes first — so they stay as casts with debug guards,
    /// unlike the per-tuple wire counters in `tuple_codec` which take
    /// attacker-shaped row widths and return typed `LengthOverflow` errors.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AggState::Distinct(set) => {
                out.push(0);
                debug_assert!(u32::try_from(set.len()).is_ok());
                out.extend_from_slice(&(set.len() as u32).to_be_bytes());
                for enc in set {
                    out.extend_from_slice(&(enc.len() as u32).to_be_bytes());
                    out.extend_from_slice(enc);
                }
            }
            AggState::Plain(p) => {
                out.push(1);
                p.encode(out);
            }
        }
    }

    /// Deserialize from bytes, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<AggState> {
        let tag = read_u8(buf, pos)?;
        match tag {
            0 => {
                let n = read_u32(buf, pos)? as usize;
                let mut set = BTreeSet::new();
                for _ in 0..n {
                    let len = read_u32(buf, pos)? as usize;
                    let bytes = read_slice(buf, pos, len)?.to_vec();
                    set.insert(bytes);
                }
                Ok(AggState::Distinct(set))
            }
            1 => Ok(AggState::Plain(PlainState::decode(buf, pos)?)),
            t => Err(corrupt(format!("bad AggState tag {t}"))),
        }
    }
}

impl PlainState {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PlainState::Count(n) => {
                out.push(0);
                out.extend_from_slice(&n.to_be_bytes());
            }
            PlainState::Sum(SumState::Empty) => out.push(1),
            PlainState::Sum(SumState::Int(i)) => {
                out.push(2);
                out.extend_from_slice(&i.to_be_bytes());
            }
            PlainState::Sum(SumState::Float(f)) => {
                out.push(3);
                out.extend_from_slice(&f.to_be_bytes());
            }
            PlainState::Min(v) => {
                out.push(4);
                encode_opt_value(v, out);
            }
            PlainState::Max(v) => {
                out.push(5);
                encode_opt_value(v, out);
            }
            PlainState::Avg { sum, n } => {
                out.push(6);
                out.extend_from_slice(&sum.to_be_bytes());
                out.extend_from_slice(&n.to_be_bytes());
            }
            PlainState::Var { n, mean, m2 } => {
                out.push(7);
                out.extend_from_slice(&n.to_be_bytes());
                out.extend_from_slice(&mean.to_be_bytes());
                out.extend_from_slice(&m2.to_be_bytes());
            }
            PlainState::Median(values) => {
                out.push(8);
                debug_assert!(u32::try_from(values.len()).is_ok());
                out.extend_from_slice(&(values.len() as u32).to_be_bytes());
                for v in values {
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
            PlainState::Mode(counts) => {
                out.push(9);
                out.extend_from_slice(&(counts.len() as u32).to_be_bytes());
                for (enc, count) in counts {
                    out.extend_from_slice(&(enc.len() as u32).to_be_bytes());
                    out.extend_from_slice(enc);
                    out.extend_from_slice(&count.to_be_bytes());
                }
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<PlainState> {
        let tag = read_u8(buf, pos)?;
        Ok(match tag {
            0 => PlainState::Count(read_u64(buf, pos)?),
            1 => PlainState::Sum(SumState::Empty),
            2 => {
                let bytes: [u8; 16] = read_slice(buf, pos, 16)?.try_into().unwrap();
                PlainState::Sum(SumState::Int(i128::from_be_bytes(bytes)))
            }
            3 => PlainState::Sum(SumState::Float(read_f64(buf, pos)?)),
            4 => PlainState::Min(decode_opt_value(buf, pos)?),
            5 => PlainState::Max(decode_opt_value(buf, pos)?),
            6 => PlainState::Avg {
                sum: read_f64(buf, pos)?,
                n: read_u64(buf, pos)?,
            },
            7 => PlainState::Var {
                n: read_u64(buf, pos)?,
                mean: read_f64(buf, pos)?,
                m2: read_f64(buf, pos)?,
            },
            8 => {
                let n = read_u32(buf, pos)? as usize;
                let mut values = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    values.push(read_f64(buf, pos)?);
                }
                PlainState::Median(values)
            }
            9 => {
                let n = read_u32(buf, pos)? as usize;
                let mut counts = std::collections::BTreeMap::new();
                for _ in 0..n {
                    let len = read_u32(buf, pos)? as usize;
                    let enc = read_slice(buf, pos, len)?.to_vec();
                    let count = read_u64(buf, pos)?;
                    counts.insert(enc, count);
                }
                PlainState::Mode(counts)
            }
            t => return Err(corrupt(format!("bad PlainState tag {t}"))),
        })
    }
}

fn encode_opt_value(v: &Option<Value>, out: &mut Vec<u8>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            v.canonical_bytes(out);
        }
    }
}

fn decode_opt_value(buf: &[u8], pos: &mut usize) -> Result<Option<Value>> {
    match read_u8(buf, pos)? {
        0 => Ok(None),
        1 => {
            // Canonical value encodings are self-delimiting; reuse GroupKey
            // decoding over the remaining buffer by finding the value length.
            let start = *pos;
            skip_canonical_value(buf, pos)?;
            let vals = crate::value::GroupKey(buf[start..*pos].to_vec()).to_values();
            Ok(Some(vals.into_iter().next().expect("one value")))
        }
        t => Err(corrupt(format!("bad Option<Value> tag {t}"))),
    }
}

/// Advance past one canonical value encoding.
pub(crate) fn skip_canonical_value(buf: &[u8], pos: &mut usize) -> Result<()> {
    let tag = read_u8(buf, pos)?;
    let skip = match tag {
        0 => 0,
        1 | 2 => 8,
        3 => read_u32(buf, pos)? as usize,
        4 => 1,
        t => return Err(corrupt(format!("bad canonical value tag {t}"))),
    };
    read_slice(buf, pos, skip)?;
    Ok(())
}

pub(crate) fn corrupt(message: String) -> SqlError {
    SqlError::Type {
        message: format!("corrupt encoding: {message}"),
    }
}

pub(crate) fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| corrupt("unexpected end".into()))?;
    *pos += 1;
    Ok(b)
}

pub(crate) fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let s = read_slice(buf, pos, 4)?;
    Ok(u32::from_be_bytes(s.try_into().unwrap()))
}

pub(crate) fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let s = read_slice(buf, pos, 8)?;
    Ok(u64::from_be_bytes(s.try_into().unwrap()))
}

pub(crate) fn read_f64(buf: &[u8], pos: &mut usize) -> Result<f64> {
    let s = read_slice(buf, pos, 8)?;
    Ok(f64::from_be_bytes(s.try_into().unwrap()))
}

pub(crate) fn read_slice<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8]> {
    let end = pos
        .checked_add(len)
        .ok_or_else(|| corrupt("length overflow".into()))?;
    if end > buf.len() {
        return Err(corrupt("unexpected end".into()));
    }
    let s = &buf[*pos..end];
    *pos = end;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(spec: AggSpec, inputs: &[Value]) -> Value {
        let mut st = spec.init();
        for v in inputs {
            st.update(v).unwrap();
        }
        st.finalize(&spec).unwrap()
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn basic_aggregates() {
        let data = ints(&[3, 1, 4, 1, 5]);
        assert_eq!(
            run(
                AggSpec {
                    func: AggFunc::Count,
                    distinct: false
                },
                &data
            ),
            Value::Int(5)
        );
        assert_eq!(
            run(
                AggSpec {
                    func: AggFunc::Count,
                    distinct: true
                },
                &data
            ),
            Value::Int(4)
        );
        assert_eq!(
            run(
                AggSpec {
                    func: AggFunc::Sum,
                    distinct: false
                },
                &data
            ),
            Value::Int(14)
        );
        assert_eq!(
            run(
                AggSpec {
                    func: AggFunc::Sum,
                    distinct: true
                },
                &data
            ),
            Value::Int(13)
        );
        assert_eq!(
            run(
                AggSpec {
                    func: AggFunc::Min,
                    distinct: false
                },
                &data
            ),
            Value::Int(1)
        );
        assert_eq!(
            run(
                AggSpec {
                    func: AggFunc::Max,
                    distinct: false
                },
                &data
            ),
            Value::Int(5)
        );
        assert_eq!(
            run(
                AggSpec {
                    func: AggFunc::Avg,
                    distinct: false
                },
                &data
            ),
            Value::Float(2.8)
        );
        assert_eq!(
            run(
                AggSpec {
                    func: AggFunc::Median,
                    distinct: false
                },
                &data
            ),
            Value::Float(3.0)
        );
    }

    #[test]
    fn nulls_skipped_and_empty_results() {
        let spec = AggSpec {
            func: AggFunc::Sum,
            distinct: false,
        };
        assert_eq!(run(spec, &[Value::Null, Value::Null]), Value::Null);
        let spec = AggSpec {
            func: AggFunc::Count,
            distinct: false,
        };
        assert_eq!(run(spec, &[Value::Null, Value::Int(1)]), Value::Int(1));
        let spec = AggSpec {
            func: AggFunc::Avg,
            distinct: false,
        };
        assert_eq!(run(spec, &[]), Value::Null);
        let spec = AggSpec {
            func: AggFunc::Min,
            distinct: false,
        };
        assert_eq!(run(spec, &[]), Value::Null);
        let spec = AggSpec {
            func: AggFunc::Median,
            distinct: false,
        };
        assert_eq!(run(spec, &[]), Value::Null);
    }

    #[test]
    fn variance_and_stddev() {
        let data = ints(&[2, 4, 4, 4, 5, 5, 7, 9]);
        // Sample variance of this classic set is 32/7.
        let v = run(
            AggSpec {
                func: AggFunc::Variance,
                distinct: false,
            },
            &data,
        );
        match v {
            Value::Float(f) => assert!((f - 32.0 / 7.0).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
        let v = run(
            AggSpec {
                func: AggFunc::StdDev,
                distinct: false,
            },
            &data,
        );
        match v {
            Value::Float(f) => assert!((f - (32.0f64 / 7.0).sqrt()).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
        // n < 2 → NULL.
        assert_eq!(
            run(
                AggSpec {
                    func: AggFunc::Variance,
                    distinct: false
                },
                &ints(&[5])
            ),
            Value::Null
        );
    }

    #[test]
    fn median_even_count() {
        let data = ints(&[1, 2, 3, 4]);
        assert_eq!(
            run(
                AggSpec {
                    func: AggFunc::Median,
                    distinct: false
                },
                &data
            ),
            Value::Float(2.5)
        );
    }

    #[test]
    fn merge_equals_single_pass() {
        let data = ints(&[5, 3, 8, 1, 9, 2, 7, 7, 4, 6]);
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::Variance,
            AggFunc::StdDev,
            AggFunc::Median,
            AggFunc::Mode,
        ] {
            for distinct in [false, true] {
                let spec = AggSpec { func, distinct };
                let expected = run(spec, &data);
                // Split into three partials merged pairwise.
                let mut parts: Vec<AggState> = Vec::new();
                for chunk in data.chunks(4) {
                    let mut st = spec.init();
                    for v in chunk {
                        st.update(v).unwrap();
                    }
                    parts.push(st);
                }
                let mut acc = spec.init();
                for p in &parts {
                    acc.merge(p).unwrap();
                }
                let merged = acc.finalize(&spec).unwrap();
                match (&expected, &merged) {
                    (Value::Float(a), Value::Float(b)) => {
                        assert!(
                            (a - b).abs() < 1e-9,
                            "{func:?} distinct={distinct}: {a} vs {b}"
                        )
                    }
                    _ => assert_eq!(expected, merged, "{func:?} distinct={distinct}"),
                }
            }
        }
    }

    #[test]
    fn sum_stays_exact_for_large_ints() {
        let spec = AggSpec {
            func: AggFunc::Sum,
            distinct: false,
        };
        let data: Vec<Value> = (0..1000).map(|_| Value::Int(i64::MAX / 2000)).collect();
        let v = run(spec, &data);
        assert_eq!(v, Value::Int((i64::MAX / 2000) * 1000));
    }

    #[test]
    fn sum_overflow_reported() {
        let spec = AggSpec {
            func: AggFunc::Sum,
            distinct: false,
        };
        let mut st = spec.init();
        st.update(&Value::Int(i64::MAX)).unwrap();
        st.update(&Value::Int(i64::MAX)).unwrap();
        assert!(st.finalize(&spec).is_err());
    }

    #[test]
    fn mixed_int_float_sum() {
        let spec = AggSpec {
            func: AggFunc::Sum,
            distinct: false,
        };
        let v = run(spec, &[Value::Int(1), Value::Float(0.5)]);
        assert_eq!(v, Value::Float(1.5));
    }

    #[test]
    fn min_max_on_strings() {
        let data = vec![Value::Str("pear".into()), Value::Str("apple".into())];
        assert_eq!(
            run(
                AggSpec {
                    func: AggFunc::Min,
                    distinct: false
                },
                &data
            ),
            Value::Str("apple".into())
        );
        assert_eq!(
            run(
                AggSpec {
                    func: AggFunc::Max,
                    distinct: false
                },
                &data
            ),
            Value::Str("pear".into())
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let data = ints(&[5, 3, 8, 1, 9]);
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::Variance,
            AggFunc::Median,
            AggFunc::Mode,
        ] {
            for distinct in [false, true] {
                let spec = AggSpec { func, distinct };
                let mut st = spec.init();
                for v in &data {
                    st.update(v).unwrap();
                }
                let mut buf = Vec::new();
                st.encode(&mut buf);
                let mut pos = 0;
                let decoded = AggState::decode(&buf, &mut pos).unwrap();
                assert_eq!(pos, buf.len());
                assert_eq!(decoded, st, "{func:?} distinct={distinct}");
            }
        }
    }

    #[test]
    fn decode_rejects_corrupt() {
        assert!(AggState::decode(&[], &mut 0).is_err());
        assert!(AggState::decode(&[9], &mut 0).is_err());
        assert!(AggState::decode(&[1, 99], &mut 0).is_err());
        // Truncated count.
        assert!(AggState::decode(&[1, 0, 0, 0], &mut 0).is_err());
    }

    #[test]
    fn mismatched_merge_rejected() {
        let mut a = AggSpec {
            func: AggFunc::Count,
            distinct: false,
        }
        .init();
        let b = AggSpec {
            func: AggFunc::Sum,
            distinct: false,
        }
        .init();
        assert!(a.merge(&b).is_err());
        let mut c = AggSpec {
            func: AggFunc::Count,
            distinct: true,
        }
        .init();
        assert!(c.merge(&b).is_err());
    }
}
