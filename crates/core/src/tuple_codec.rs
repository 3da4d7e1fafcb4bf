//! Wire formats for everything TDSs encrypt and ship through the SSI.
//!
//! Four payload kinds travel during a query:
//!
//! * [`PlainTuple`] — a result row of a Select-From-Where query (collection
//!   phase of the basic protocol), possibly a **dummy**;
//! * [`AggInput`] — one input row of an aggregate query: the group key plus
//!   one input value per aggregate slot, possibly a dummy or a noise-protocol
//!   **fake**;
//! * [`PartialAggBatch`] — a batch of (group key, partial states) pairs, the
//!   unit of the iterative aggregation phase;
//! * [`ResultRow`] — a final projected row, encrypted under `k1` for the
//!   querier.
//!
//! All encodings support **padding**: dummy and fake tuples must be
//! indistinguishable from true ones by size, so collection payloads are
//! padded to a fixed per-query length before encryption.

use tdsql_sql::aggregate::AggState;
use tdsql_sql::value::{GroupKey, Value};

use crate::codec::{len_u32, put_blob, take_blob, take_blob_ref, take_u32, take_u8};
use crate::error::{ProtocolError, Result};

fn corrupt(msg: &str) -> ProtocolError {
    ProtocolError::Codec(msg.to_string())
}

/// Framing arithmetic for every wire format in this module, exported for the
/// static size-abstraction pass (`tdsql-analyze::verify::sizes`): the
/// verifier computes per-phase plaintext-size intervals from these constants
/// instead of encoding sample tuples, and the `framing_constants_match_the_
/// encoders` test pins each constant to the real encoder output so the two
/// can never drift.
pub mod framing {
    /// `PlainTuple::Row` header: 1 kind byte + 2-byte value count.
    pub const PLAIN_TUPLE_HEADER: usize = 3;
    /// `PlainTuple::Dummy`: a single kind byte.
    pub const PLAIN_TUPLE_DUMMY: usize = 1;
    /// `AggInput` header: 1 fake flag + 4-byte key length + 2-byte input
    /// count (the key bytes and values follow).
    pub const AGG_INPUT_HEADER: usize = 7;
    /// `PartialAggBatch` header: 4-byte entry count.
    pub const BATCH_HEADER: usize = 4;
    /// Per-entry `PartialAggBatch` overhead: 4-byte key length + 2-byte
    /// state count.
    pub const BATCH_ENTRY_HEADER: usize = 6;
    /// `ResultRow` header: 2-byte value count.
    pub const RESULT_ROW_HEADER: usize = 2;
    /// Canonical [`Value`](tdsql_sql::value::Value) encoding: widest
    /// fixed-size variant (`Int`/`Float`: 1 tag byte + 8 payload bytes).
    pub const VALUE_MAX_FIXED: usize = 9;
    /// Canonical `Value::Str` overhead: 1 tag byte + 4-byte length prefix
    /// (the UTF-8 bytes follow, unbounded).
    pub const VALUE_STR_HEADER: usize = 5;
    /// Canonical `Value::Null` encoding: 1 tag byte.
    pub const VALUE_MIN: usize = 1;
}

/// Checked narrowing of a collection length to a `u16` wire counter.
/// A plain `as u16` cast would wrap at 65 536 and produce a payload that
/// decodes cleanly to the *wrong* number of elements — a silent data loss.
fn len_u16(what: &'static str, len: usize) -> Result<u16> {
    u16::try_from(len).map_err(|_| ProtocolError::LengthOverflow {
        what,
        len,
        max: u16::MAX as usize,
    })
}

fn read_u16(buf: &[u8], pos: &mut usize) -> Result<u16> {
    let s = buf
        .get(*pos..*pos + 2)
        .ok_or_else(|| corrupt("unexpected end"))?;
    *pos += 2;
    Ok(u16::from_be_bytes(s.try_into().unwrap()))
}

fn decode_values(buf: &[u8], pos: &mut usize, n: usize) -> Result<Vec<Value>> {
    let mut out = Vec::new();
    decode_values_into(buf, pos, n, &mut out)?;
    Ok(out)
}

/// Append `n` decoded values to `out`.
fn decode_values_into(buf: &[u8], pos: &mut usize, n: usize, out: &mut Vec<Value>) -> Result<()> {
    out.reserve(n);
    for _ in 0..n {
        out.push(
            Value::decode_canonical(buf, pos).map_err(|e| ProtocolError::Codec(e.to_string()))?,
        );
    }
    Ok(())
}

/// Pad `buf` with zero bytes up to `target` (no-op if already longer).
/// Ciphertext length is the only thing the SSI can observe about a payload,
/// so uniform padding is what makes dummies/fakes invisible.
pub fn pad_to(buf: &mut Vec<u8>, target: usize) {
    if buf.len() < target {
        buf.resize(target, 0);
    }
}

/// Pad the suffix of `buf` starting at `start` up to `target` bytes — the
/// appending (`encode_into`) variant of [`pad_to`].
fn pad_to_from(buf: &mut Vec<u8>, start: usize, target: usize) {
    if buf.len() - start < target {
        buf.resize(start + target, 0);
    }
}

// ---------------------------------------------------------------------------
// PlainTuple
// ---------------------------------------------------------------------------

/// A (possibly dummy) result row of a Select-From-Where query.
#[derive(Debug, Clone, PartialEq)]
pub enum PlainTuple {
    /// A real row.
    Row(Vec<Value>),
    /// A dummy sent to hide selectivity / access denial.
    Dummy,
}

impl PlainTuple {
    /// Encode, padding to exactly `pad` bytes. A payload longer than `pad`
    /// would travel unpadded — distinguishable by size — so it is rejected
    /// with [`ProtocolError::PadTooSmall`] instead.
    pub fn encode(&self, pad: usize) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(pad.max(16));
        self.encode_into(pad, &mut out)?;
        Ok(out)
    }

    /// Arena variant of [`Self::encode`]: appends exactly `pad` bytes to
    /// `out` (a reusable scratch buffer). On error `out` is restored to its
    /// original length. Byte-identical to the `Vec` path.
    pub fn encode_into(&self, pad: usize, out: &mut Vec<u8>) -> Result<()> {
        let start = out.len();
        let body = (|| -> Result<()> {
            match self {
                PlainTuple::Row(values) => {
                    out.push(0);
                    out.extend_from_slice(
                        &len_u16("PlainTuple values", values.len())?.to_be_bytes(),
                    );
                    for v in values {
                        v.canonical_bytes(out);
                    }
                }
                PlainTuple::Dummy => out.push(1),
            }
            if out.len() - start > pad {
                return Err(ProtocolError::PadTooSmall {
                    needed: out.len() - start,
                    pad,
                });
            }
            Ok(())
        })();
        if let Err(e) = body {
            out.truncate(start);
            return Err(e);
        }
        pad_to_from(out, start, pad);
        Ok(())
    }

    /// Decode (padding is ignored).
    pub fn decode(buf: &[u8]) -> Result<PlainTuple> {
        let mut pos = 0;
        match take_u8(buf, &mut pos)? {
            0 => {
                let n = read_u16(buf, &mut pos)? as usize;
                Ok(PlainTuple::Row(decode_values(buf, &mut pos, n)?))
            }
            1 => Ok(PlainTuple::Dummy),
            t => Err(corrupt(&format!("bad PlainTuple kind {t}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// AggInput
// ---------------------------------------------------------------------------

/// One collection-phase tuple of an aggregate query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggInput {
    /// Grouping key (`A_G` values, canonically encoded).
    pub key: GroupKey,
    /// One input value per aggregate slot (`COUNT(*)` slots get a marker).
    pub inputs: Vec<Value>,
    /// Dummy/fake flag — set on dummies (empty result, access denied) and on
    /// the fake tuples injected by the noise-based protocols. Invisible to
    /// the SSI (it is under the encryption); TDSs filter on it.
    pub fake: bool,
}

impl AggInput {
    /// Encode, padding to exactly `pad` bytes. Oversized payloads are
    /// rejected with [`ProtocolError::PadTooSmall`] rather than sent
    /// unpadded (see [`PlainTuple::encode`]).
    pub fn encode(&self, pad: usize) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(pad.max(32));
        self.encode_into(pad, &mut out)?;
        Ok(out)
    }

    /// Arena variant of [`Self::encode`]: appends exactly `pad` bytes to
    /// `out`. On error `out` is restored to its original length.
    /// Byte-identical to the `Vec` path.
    pub fn encode_into(&self, pad: usize, out: &mut Vec<u8>) -> Result<()> {
        Self::encode_parts(self.fake, &self.key.0, &self.inputs, pad, out)
    }

    /// [`Self::encode_into`] from borrowed parts: the tuple
    /// `AggInput { key, inputs, fake }` encoded without building it, so a
    /// fake can borrow its key from the noise domain.
    pub fn encode_parts(
        fake: bool,
        key: &[u8],
        inputs: &[Value],
        pad: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let start = out.len();
        let body = (|| -> Result<()> {
            out.push(fake as u8);
            put_blob(out, "AggInput group key", key)?;
            out.extend_from_slice(&len_u16("AggInput inputs", inputs.len())?.to_be_bytes());
            for v in inputs {
                v.canonical_bytes(out);
            }
            if out.len() - start > pad {
                return Err(ProtocolError::PadTooSmall {
                    needed: out.len() - start,
                    pad,
                });
            }
            Ok(())
        })();
        if let Err(e) = body {
            out.truncate(start);
            return Err(e);
        }
        pad_to_from(out, start, pad);
        Ok(())
    }

    /// Decode (padding is ignored).
    pub fn decode(buf: &[u8]) -> Result<AggInput> {
        let mut inputs = Vec::new();
        let (fake, key) = Self::decode_view(buf, &mut inputs)?;
        Ok(AggInput {
            key: GroupKey(key.to_vec()),
            inputs,
            fake,
        })
    }

    /// [`Self::decode`] as a view: returns the fake flag and the key in
    /// place, and decodes the inputs into `inputs` (cleared first), so a
    /// reducer can reuse one buffer across a partition. Accepts and rejects
    /// exactly the buffers [`Self::decode`] does.
    pub fn decode_view<'b>(buf: &'b [u8], inputs: &mut Vec<Value>) -> Result<(bool, &'b [u8])> {
        inputs.clear();
        let mut pos = 0;
        let fake = match take_u8(buf, &mut pos)? {
            0 => false,
            1 => true,
            t => return Err(corrupt(&format!("bad AggInput flag {t}"))),
        };
        let key = take_blob_ref(buf, &mut pos)?;
        let n = read_u16(buf, &mut pos)? as usize;
        decode_values_into(buf, &mut pos, n, inputs)?;
        Ok((fake, key))
    }
}

// ---------------------------------------------------------------------------
// PartialAggBatch
// ---------------------------------------------------------------------------

/// A batch of per-group partial aggregations — what a TDS uploads after
/// reducing one partition, and what it downloads in later iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAggBatch {
    /// (group key, one partial state per aggregate slot).
    pub entries: Vec<(GroupKey, Vec<AggState>)>,
}

impl PartialAggBatch {
    /// Encode (no padding: batch sizes are already data-independent, they
    /// depend only on the number of groups in the partition).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(
            &len_u32("PartialAggBatch entries", self.entries.len())?.to_be_bytes(),
        );
        for (key, states) in &self.entries {
            put_blob(&mut out, "PartialAggBatch group key", &key.0)?;
            out.extend_from_slice(&len_u16("PartialAggBatch states", states.len())?.to_be_bytes());
            for st in states {
                st.encode(&mut out);
            }
        }
        Ok(out)
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<PartialAggBatch> {
        let mut pos = 0;
        let n = take_u32(buf, &mut pos)? as usize;
        let mut entries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let key_bytes = take_blob(buf, &mut pos)?;
            let n_states = read_u16(buf, &mut pos)? as usize;
            let mut states = Vec::with_capacity(n_states);
            for _ in 0..n_states {
                states.push(
                    AggState::decode(buf, &mut pos)
                        .map_err(|e| ProtocolError::Codec(e.to_string()))?,
                );
            }
            entries.push((GroupKey(key_bytes), states));
        }
        if pos != buf.len() {
            return Err(corrupt("trailing bytes in PartialAggBatch"));
        }
        Ok(PartialAggBatch { entries })
    }
}

// ---------------------------------------------------------------------------
// ResultRow
// ---------------------------------------------------------------------------

/// A final projected row, shipped to the querier under `k1`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow(pub Vec<Value>);

impl ResultRow {
    /// Encode.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(&len_u16("ResultRow values", self.0.len())?.to_be_bytes());
        for v in &self.0 {
            v.canonical_bytes(&mut out);
        }
        Ok(out)
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<ResultRow> {
        let mut pos = 0;
        let n = read_u16(buf, &mut pos)? as usize;
        let values = decode_values(buf, &mut pos, n)?;
        if pos != buf.len() {
            return Err(corrupt("trailing bytes in ResultRow"));
        }
        Ok(ResultRow(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_sql::aggregate::AggSpec;
    use tdsql_sql::ast::AggFunc;

    #[test]
    fn plain_tuple_roundtrip_and_padding() {
        let t = PlainTuple::Row(vec![Value::Int(1), Value::Str("Memphis".into())]);
        let enc = t.encode(64).unwrap();
        assert_eq!(enc.len(), 64);
        assert_eq!(PlainTuple::decode(&enc).unwrap(), t);
        let d = PlainTuple::Dummy;
        let enc_d = d.encode(64).unwrap();
        assert_eq!(enc_d.len(), 64, "dummy and true tuples share a size");
        assert_eq!(PlainTuple::decode(&enc_d).unwrap(), d);
    }

    #[test]
    fn agg_input_roundtrip() {
        let t = AggInput {
            key: GroupKey::from_values(&[Value::Str("north".into())]),
            inputs: vec![Value::Float(3.5), Value::Bool(true)],
            fake: false,
        };
        let enc = t.encode(96).unwrap();
        assert_eq!(enc.len(), 96);
        assert_eq!(AggInput::decode(&enc).unwrap(), t);

        let f = AggInput {
            key: t.key.clone(),
            inputs: t.inputs.clone(),
            fake: true,
        };
        assert!(AggInput::decode(&f.encode(96).unwrap()).unwrap().fake);
    }

    #[test]
    fn encode_into_matches_encode() {
        let pad = 96;
        let mut scratch = vec![0xABu8; 4];
        let plain = PlainTuple::Row(vec![Value::Int(7), Value::Str("east".into())]);
        let dummy = PlainTuple::Dummy;
        for t in [&plain, &dummy] {
            let start = scratch.len();
            t.encode_into(pad, &mut scratch).unwrap();
            assert_eq!(&scratch[start..], &t.encode(pad).unwrap()[..]);
        }
        let agg = AggInput {
            key: GroupKey::from_values(&[Value::Str("north".into())]),
            inputs: vec![Value::Float(3.5)],
            fake: true,
        };
        let start = scratch.len();
        agg.encode_into(pad, &mut scratch).unwrap();
        assert_eq!(&scratch[start..], &agg.encode(pad).unwrap()[..]);
        // Prefix bytes untouched.
        assert_eq!(&scratch[..4], &[0xAB; 4]);

        // Errors restore the buffer to its pre-call length.
        let len_before = scratch.len();
        let oversized = PlainTuple::Row(vec![Value::Str("x".repeat(200))]);
        assert!(oversized.encode_into(16, &mut scratch).is_err());
        assert!(agg.encode_into(3, &mut scratch).is_err());
        assert_eq!(scratch.len(), len_before);
    }

    #[test]
    fn oversized_payload_rejected_not_leaked() {
        // A payload longer than `pad` used to be sent unpadded — a silent
        // size leak. Encoding now refuses, naming the needed size.
        let t = PlainTuple::Row(vec![Value::Str("x".repeat(200))]);
        match t.encode(64) {
            Err(ProtocolError::PadTooSmall { needed, pad }) => {
                assert!(needed > 200, "needed {needed}");
                assert_eq!(pad, 64);
            }
            other => panic!("expected PadTooSmall, got {other:?}"),
        }
        let a = AggInput {
            key: GroupKey::from_values(&[Value::Str("y".repeat(100))]),
            inputs: vec![],
            fake: false,
        };
        assert!(matches!(
            a.encode(32),
            Err(ProtocolError::PadTooSmall { .. })
        ));
        // The boundary case still fits: exact-size payloads are fine.
        let exact = t.encode(4096).unwrap();
        assert_eq!(exact.len(), 4096);
        assert_eq!(PlainTuple::decode(&exact).unwrap(), t);
    }

    #[test]
    fn partial_agg_batch_roundtrip() {
        let spec = AggSpec {
            func: AggFunc::Avg,
            distinct: false,
        };
        let mut st = spec.init();
        st.update(&Value::Int(5)).unwrap();
        let batch = PartialAggBatch {
            entries: vec![
                (GroupKey::from_values(&[Value::Int(1)]), vec![st.clone()]),
                (GroupKey::from_values(&[Value::Int(2)]), vec![st]),
            ],
        };
        let enc = batch.encode().unwrap();
        assert_eq!(PartialAggBatch::decode(&enc).unwrap(), batch);
    }

    #[test]
    fn result_row_roundtrip() {
        let r = ResultRow(vec![Value::Str("north".into()), Value::Float(3.0)]);
        assert_eq!(ResultRow::decode(&r.encode().unwrap()).unwrap(), r);
    }

    #[test]
    fn corrupt_payloads_rejected() {
        assert!(PlainTuple::decode(&[]).is_err());
        assert!(PlainTuple::decode(&[7]).is_err());
        assert!(AggInput::decode(&[0, 0, 0, 0, 9]).is_err());
        assert!(PartialAggBatch::decode(&[0, 0, 0, 1]).is_err());
        assert!(ResultRow::decode(&[0, 1, 1]).is_err());
        // Trailing garbage on unpadded formats is rejected.
        let r = ResultRow(vec![Value::Int(1)]);
        let mut enc = r.encode().unwrap();
        enc.push(0);
        assert!(ResultRow::decode(&enc).is_err());
    }

    #[test]
    fn length_overflow_rejected_not_wrapped() {
        // 65 536 values wraps a u16 counter to 0: the old `as u16` cast
        // produced a payload that decoded cleanly to an EMPTY row. Now it
        // is a typed refusal.
        let row = PlainTuple::Row(vec![Value::Int(0); (u16::MAX as usize) + 1]);
        match row.encode(1 << 22) {
            Err(ProtocolError::LengthOverflow { what, len, max }) => {
                assert_eq!(what, "PlainTuple values");
                assert_eq!(len, 65_536);
                assert_eq!(max, 65_535);
            }
            other => panic!("expected LengthOverflow, got {other:?}"),
        }
        let r = ResultRow(vec![Value::Int(0); (u16::MAX as usize) + 1]);
        assert!(matches!(
            r.encode(),
            Err(ProtocolError::LengthOverflow { .. })
        ));
        let a = AggInput {
            key: GroupKey(vec![]),
            inputs: vec![Value::Int(0); (u16::MAX as usize) + 1],
            fake: false,
        };
        assert!(matches!(
            a.encode(1 << 22),
            Err(ProtocolError::LengthOverflow { .. })
        ));
        // The boundary itself is still encodable.
        let ok = ResultRow(vec![Value::Bool(true); u16::MAX as usize]);
        let enc = ok.encode().unwrap();
        assert_eq!(ResultRow::decode(&enc).unwrap().0.len(), u16::MAX as usize);
    }

    /// Pin every [`framing`] constant to the real encoder output, so the
    /// static size verifier's arithmetic can never drift from the codecs.
    #[test]
    fn framing_constants_match_the_encoders() {
        use super::framing::*;

        // Exact pre-padding length of a padded encoding: at pad 0 the
        // encoder refuses and names precisely the size it needed.
        fn needed(result: Result<Vec<u8>>) -> usize {
            match result {
                Err(ProtocolError::PadTooSmall { needed, .. }) => needed,
                other => panic!("expected PadTooSmall, got {other:?}"),
            }
        }

        // PlainTuple: header + canonical values, dummy is one byte.
        assert_eq!(
            needed(PlainTuple::Row(vec![]).encode(0)),
            PLAIN_TUPLE_HEADER
        );
        assert_eq!(needed(PlainTuple::Dummy.encode(0)), PLAIN_TUPLE_DUMMY);

        // AggInput: header + key bytes + canonical values.
        let agg = AggInput {
            key: GroupKey(vec![1, 2, 3]),
            inputs: vec![],
            fake: false,
        };
        assert_eq!(needed(agg.encode(0)), AGG_INPUT_HEADER + 3);

        // PartialAggBatch: header + per-entry header + key + states.
        let batch = PartialAggBatch { entries: vec![] }.encode().unwrap();
        assert_eq!(batch.len(), BATCH_HEADER);
        let one = PartialAggBatch {
            entries: vec![(GroupKey(vec![9, 9]), vec![])],
        }
        .encode()
        .unwrap();
        assert_eq!(one.len(), BATCH_HEADER + BATCH_ENTRY_HEADER + 2);

        // ResultRow: header + canonical values.
        let row = ResultRow(vec![]).encode().unwrap();
        assert_eq!(row.len(), RESULT_ROW_HEADER);

        // Canonical Value widths.
        let mut buf = Vec::new();
        Value::Null.canonical_bytes(&mut buf);
        assert_eq!(buf.len(), VALUE_MIN);
        for v in [Value::Int(i64::MIN), Value::Float(f64::MAX)] {
            let mut buf = Vec::new();
            v.canonical_bytes(&mut buf);
            assert_eq!(buf.len(), VALUE_MAX_FIXED, "{v:?}");
        }
        let mut buf = Vec::new();
        Value::Bool(true).canonical_bytes(&mut buf);
        assert!(buf.len() <= VALUE_MAX_FIXED);
        let mut buf = Vec::new();
        Value::Str("abcd".into()).canonical_bytes(&mut buf);
        assert_eq!(buf.len(), VALUE_STR_HEADER + 4);
    }

    #[test]
    fn equal_pad_means_equal_size() {
        // True tuple vs dummy vs fake, all padded: identical ciphertext-input
        // lengths (this is the indistinguishability requirement).
        let pad = 128;
        let a = AggInput {
            key: GroupKey::from_values(&[Value::Int(3)]),
            inputs: vec![Value::Float(1.0)],
            fake: false,
        }
        .encode(pad)
        .unwrap();
        let b = AggInput {
            key: GroupKey::from_values(&[Value::Int(77)]),
            inputs: vec![Value::Float(2.0)],
            fake: true,
        }
        .encode(pad)
        .unwrap();
        let c = PlainTuple::Dummy.encode(pad).unwrap();
        assert_eq!(a.len(), pad);
        assert_eq!(b.len(), pad);
        assert_eq!(c.len(), pad);
    }
}
