//! The one byte codec for everything that leaves the process.
//!
//! The network wire (`tdsql-net::wire`) and the SSI's settle journal
//! ([`crate::ssi::journal`]) frame the same domain types — envelope,
//! credential, tuple, tag, phase, protocol kind — with the same bytes, so
//! they share these functions instead of keeping a copy each: a decoder
//! bound or a format argument is made here once and holds for both.
//!
//! Big-endian, explicit `u32` length prefixes, checked counter widths (a
//! too-long vector is a typed [`ProtocolError::LengthOverflow`], never a
//! silently wrapped counter) and bounds-checked reads: a declared length
//! must fit inside what is left of the buffer *before* anything is
//! allocated for it, and a truncated or malformed buffer is a typed
//! [`ProtocolError::Codec`], never a panic. Ciphertext blobs are framed,
//! never looked inside.

use tdsql_crypto::credential::{Credential, Role};
use tdsql_sql::ast::SizeClause;

use crate::bytes::Bytes;
use crate::error::{ProtocolError, Result};
use crate::message::{GroupTag, QueryEnvelope, QueryTarget, StoredTuple};
use crate::protocol::ProtocolKind;
use crate::stats::Phase;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

fn eof() -> ProtocolError {
    ProtocolError::Codec("unexpected end of message".into())
}

/// The typed rejection of a malformed buffer (bad tag byte, trailing
/// bytes, …); `what` names the field that failed.
pub fn bad(what: &str) -> ProtocolError {
    ProtocolError::Codec(format!("malformed message: {what}"))
}

/// Checked vector/byte-string counter: refuses to emit a length the format
/// cannot carry instead of wrapping it.
#[inline]
pub fn len_u32(what: &'static str, len: usize) -> Result<u32> {
    u32::try_from(len).map_err(|_| ProtocolError::LengthOverflow {
        what,
        len,
        max: u32::MAX as usize,
    })
}

/// Append one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a big-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a boolean as one `0`/`1` byte.
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Read one byte.
#[inline]
pub fn take_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf.get(*pos).ok_or_else(eof)?;
    *pos += 1;
    Ok(b)
}

/// Read exactly `N` bytes (fixed-width fields: integers, signatures,
/// bucket hashes).
#[inline]
pub fn take_array<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let end = pos.checked_add(N).ok_or_else(eof)?;
    let slice = buf.get(*pos..end).ok_or_else(eof)?;
    let mut out = [0u8; N];
    out.copy_from_slice(slice);
    *pos = end;
    Ok(out)
}

/// Read a big-endian `u32`.
#[inline]
pub fn take_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    Ok(u32::from_be_bytes(take_array(buf, pos)?))
}

/// Read a big-endian `u64`.
#[inline]
pub fn take_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    Ok(u64::from_be_bytes(take_array(buf, pos)?))
}

/// Read a boolean; any byte but `0`/`1` is malformed.
#[inline]
pub fn take_bool(buf: &[u8], pos: &mut usize) -> Result<bool> {
    match take_u8(buf, pos)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(bad("bool")),
    }
}

/// Append a `u32`-length-prefixed byte string.
#[inline]
pub fn put_blob(out: &mut Vec<u8>, what: &'static str, bytes: &[u8]) -> Result<()> {
    put_u32(out, len_u32(what, bytes.len())?);
    out.extend_from_slice(bytes);
    Ok(())
}

/// Read a length-prefixed byte string. The declared length must fit inside
/// the remaining buffer, so a hostile count cannot trigger a huge
/// allocation.
#[inline]
pub fn take_blob(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>> {
    let len = take_u32(buf, pos)? as usize;
    let end = pos.checked_add(len).ok_or_else(eof)?;
    let slice = buf.get(*pos..end).ok_or_else(eof)?;
    *pos = end;
    Ok(slice.to_vec())
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, what: &'static str, s: &str) -> Result<()> {
    put_blob(out, what, s.as_bytes())
}

/// Read a length-prefixed UTF-8 string.
pub fn take_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    String::from_utf8(take_blob(buf, pos)?).map_err(|_| bad("non-UTF-8 string"))
}

/// Append an optional `u64` (flag byte, then the value if present).
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_u64(out, x);
        }
    }
}

/// Read an optional `u64`.
pub fn take_opt_u64(buf: &[u8], pos: &mut usize) -> Result<Option<u64>> {
    match take_u8(buf, pos)? {
        0 => Ok(None),
        1 => Ok(Some(take_u64(buf, pos)?)),
        _ => Err(bad("option flag")),
    }
}

/// Append a counted vector: a checked `u32` count, then each element.
pub fn put_vec<T>(
    out: &mut Vec<u8>,
    what: &'static str,
    items: &[T],
    mut put: impl FnMut(&mut Vec<u8>, &T) -> Result<()>,
) -> Result<()> {
    put_u32(out, len_u32(what, items.len())?);
    items.iter().try_for_each(|item| put(out, item))
}

/// Read a counted vector — the one place a decoded count drives a loop.
/// The vector grows element by element, so a hostile count runs into the
/// end of the buffer, not into the allocator.
pub fn take_vec<T>(
    buf: &[u8],
    pos: &mut usize,
    mut take: impl FnMut(&[u8], &mut usize) -> Result<T>,
) -> Result<Vec<T>> {
    let n = take_u32(buf, pos)? as usize;
    let mut items = Vec::new();
    for _ in 0..n {
        items.push(take(buf, pos)?);
    }
    Ok(items)
}

/// Append a counted vector of `u64` ids.
pub fn put_u64s(out: &mut Vec<u8>, what: &'static str, ids: &[u64]) -> Result<()> {
    put_vec(out, what, ids, |out, id| {
        put_u64(out, *id);
        Ok(())
    })
}

/// Read a counted vector of `u64` ids.
pub fn take_u64s(buf: &[u8], pos: &mut usize) -> Result<Vec<u64>> {
    take_vec(buf, pos, take_u64)
}

// ---------------------------------------------------------------------------
// Domain types
// ---------------------------------------------------------------------------

/// Encode a partitioning tag.
pub fn put_tag(out: &mut Vec<u8>, tag: &GroupTag) -> Result<()> {
    match tag {
        GroupTag::None => put_u8(out, 0),
        GroupTag::Det(b) => {
            put_u8(out, 1);
            put_blob(out, "group tag", b)?;
        }
        GroupTag::Bucket(b) => {
            put_u8(out, 2);
            out.extend_from_slice(b);
        }
    }
    Ok(())
}

/// Decode a partitioning tag.
pub fn take_tag(buf: &[u8], pos: &mut usize) -> Result<GroupTag> {
    Ok(match take_u8(buf, pos)? {
        0 => GroupTag::None,
        1 => GroupTag::Det(Bytes::from(take_blob(buf, pos)?)),
        2 => GroupTag::Bucket(take_array(buf, pos)?),
        _ => return Err(bad("group tag kind")),
    })
}

/// Encode one stored tuple (tag, then ciphertext blob).
pub fn put_tuple(out: &mut Vec<u8>, t: &StoredTuple) -> Result<()> {
    put_tag(out, &t.tag)?;
    put_blob(out, "tuple blob", &t.blob)
}

/// Decode one stored tuple.
pub fn take_tuple(buf: &[u8], pos: &mut usize) -> Result<StoredTuple> {
    let tag = take_tag(buf, pos)?;
    let blob = Bytes::from(take_blob(buf, pos)?);
    Ok(StoredTuple { tag, blob })
}

/// Encode a counted vector of stored tuples.
pub fn put_tuples(out: &mut Vec<u8>, ts: &[StoredTuple]) -> Result<()> {
    put_vec(out, "tuples", ts, put_tuple)
}

/// Decode a counted vector of stored tuples.
pub fn take_tuples(buf: &[u8], pos: &mut usize) -> Result<Vec<StoredTuple>> {
    take_vec(buf, pos, take_tuple)
}

/// Encode a counted vector of ciphertext blobs (sealed result rows).
pub fn put_blobs(out: &mut Vec<u8>, bs: &[Bytes]) -> Result<()> {
    put_vec(out, "blobs", bs, |out, b| put_blob(out, "blob", b))
}

/// Decode a counted vector of ciphertext blobs.
pub fn take_blobs(buf: &[u8], pos: &mut usize) -> Result<Vec<Bytes>> {
    take_vec(buf, pos, |buf, pos| take_blob(buf, pos).map(Bytes::from))
}

/// Encode a signed credential; the signature travels byte for byte.
pub fn put_credential(out: &mut Vec<u8>, c: &Credential) -> Result<()> {
    put_str(out, "credential id", &c.querier_id)?;
    put_str(out, "credential role", &c.role.0)?;
    put_u64(out, c.expires_at_round);
    out.extend_from_slice(&c.signature());
    Ok(())
}

/// Decode a credential. Decoding does not verify it — every TDS does.
pub fn take_credential(buf: &[u8], pos: &mut usize) -> Result<Credential> {
    let querier_id = take_str(buf, pos)?;
    let role = Role(take_str(buf, pos)?);
    let expires_at_round = take_u64(buf, pos)?;
    let signature = take_array(buf, pos)?;
    Ok(Credential::from_parts(
        querier_id,
        role,
        expires_at_round,
        signature,
    ))
}

/// Encode a protocol kind with its public parameter.
pub fn put_kind(out: &mut Vec<u8>, k: ProtocolKind) {
    match k {
        ProtocolKind::Basic => put_u8(out, 0),
        ProtocolKind::SAgg => put_u8(out, 1),
        ProtocolKind::RnfNoise { nf } => {
            put_u8(out, 2);
            put_u32(out, nf);
        }
        ProtocolKind::CNoise => put_u8(out, 3),
        ProtocolKind::EdHist { buckets } => {
            put_u8(out, 4);
            put_u32(out, buckets);
        }
    }
}

/// Decode a protocol kind.
pub fn take_kind(buf: &[u8], pos: &mut usize) -> Result<ProtocolKind> {
    Ok(match take_u8(buf, pos)? {
        0 => ProtocolKind::Basic,
        1 => ProtocolKind::SAgg,
        2 => ProtocolKind::RnfNoise {
            nf: take_u32(buf, pos)?,
        },
        3 => ProtocolKind::CNoise,
        4 => ProtocolKind::EdHist {
            buckets: take_u32(buf, pos)?,
        },
        _ => return Err(bad("protocol kind")),
    })
}

/// Encode a protocol phase.
pub fn put_phase(out: &mut Vec<u8>, p: Phase) {
    put_u8(
        out,
        match p {
            Phase::Discovery => 0,
            Phase::Collection => 1,
            Phase::Aggregation => 2,
            Phase::Filtering => 3,
        },
    );
}

/// Decode a protocol phase.
pub fn take_phase(buf: &[u8], pos: &mut usize) -> Result<Phase> {
    Ok(match take_u8(buf, pos)? {
        0 => Phase::Discovery,
        1 => Phase::Collection,
        2 => Phase::Aggregation,
        3 => Phase::Filtering,
        _ => return Err(bad("phase")),
    })
}

/// Encode a posted query envelope — everything the SSI sees of a query.
pub fn put_envelope(out: &mut Vec<u8>, e: &QueryEnvelope) -> Result<()> {
    put_u64(out, e.query_id);
    put_blob(out, "enc_query", &e.enc_query)?;
    put_credential(out, &e.credential)?;
    put_opt_u64(out, e.size.max_tuples);
    put_opt_u64(out, e.size.max_rounds);
    put_kind(out, e.protocol);
    match &e.target {
        QueryTarget::Crowd => put_u8(out, 0),
        QueryTarget::Tds(ids) => {
            put_u8(out, 1);
            put_u64s(out, "target ids", ids)?;
        }
    }
    Ok(())
}

/// Decode a posted query envelope.
pub fn take_envelope(buf: &[u8], pos: &mut usize) -> Result<QueryEnvelope> {
    let query_id = take_u64(buf, pos)?;
    let enc_query = Bytes::from(take_blob(buf, pos)?);
    let credential = take_credential(buf, pos)?;
    let size = SizeClause {
        max_tuples: take_opt_u64(buf, pos)?,
        max_rounds: take_opt_u64(buf, pos)?,
    };
    let protocol = take_kind(buf, pos)?;
    let target = match take_u8(buf, pos)? {
        0 => QueryTarget::Crowd,
        1 => QueryTarget::Tds(take_u64s(buf, pos)?),
        _ => return Err(bad("query target kind")),
    };
    Ok(QueryEnvelope {
        query_id,
        enc_query,
        credential,
        size,
        protocol,
        target,
    })
}

/// Reject trailing bytes after a complete message or record: a
/// length-prefix confusion upstream must fail loudly, not silently
/// truncate.
pub fn expect_consumed(buf: &[u8], pos: usize) -> Result<()> {
    if pos != buf.len() {
        return Err(bad("trailing bytes"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_crypto::credential::CredentialSigner;

    fn sample_envelope() -> QueryEnvelope {
        let signer = CredentialSigner::new(b"authority");
        QueryEnvelope {
            query_id: 7,
            enc_query: Bytes::from(vec![1, 2, 3, 4, 5]),
            credential: signer.issue("energy-co", Role::new("supplier"), 1000),
            size: SizeClause {
                max_tuples: Some(100),
                max_rounds: None,
            },
            protocol: ProtocolKind::EdHist { buckets: 4 },
            target: QueryTarget::Tds(vec![3, 5, 8]),
        }
    }

    fn sample_tuples() -> Vec<StoredTuple> {
        vec![
            StoredTuple {
                tag: GroupTag::None,
                blob: Bytes::from(vec![8; 48]),
            },
            StoredTuple {
                tag: GroupTag::Det(Bytes::from(vec![4, 4])),
                blob: Bytes::from(vec![9; 16]),
            },
            StoredTuple {
                tag: GroupTag::Bucket([7; 8]),
                blob: Bytes::from(vec![1, 2, 3]),
            },
        ]
    }

    /// Decode a whole buffer and encode the result again (re-encoding
    /// stands in for equality: `QueryEnvelope` has no `PartialEq`).
    type Recode = fn(&[u8]) -> Result<Vec<u8>>;

    fn recode_envelope(buf: &[u8]) -> Result<Vec<u8>> {
        let (pos, mut out) = (&mut 0, Vec::new());
        let e = take_envelope(buf, pos)?;
        expect_consumed(buf, *pos)?;
        put_envelope(&mut out, &e)?;
        Ok(out)
    }

    fn recode_tuples(buf: &[u8]) -> Result<Vec<u8>> {
        let (pos, mut out) = (&mut 0, Vec::new());
        let ts = take_tuples(buf, pos)?;
        expect_consumed(buf, *pos)?;
        put_tuples(&mut out, &ts)?;
        Ok(out)
    }

    /// (name, encoded sample, recoder) for each codec under test.
    fn cases() -> [(&'static str, Vec<u8>, Recode); 2] {
        let (mut envelope, mut tuples) = (Vec::new(), Vec::new());
        put_envelope(&mut envelope, &sample_envelope()).unwrap();
        put_tuples(&mut tuples, &sample_tuples()).unwrap();
        [
            ("envelope", envelope, recode_envelope),
            ("tuples", tuples, recode_tuples),
        ]
    }

    #[test]
    fn round_trips_byte_for_byte() {
        for (name, encoded, recode) in cases() {
            assert_eq!(recode(&encoded).unwrap(), encoded, "{name}");
        }
        let [(_, envelope, _), (_, tuples, _)] = cases();
        assert_eq!(take_tuples(&tuples, &mut 0).unwrap(), sample_tuples());
        // The credential's signature survives: it still verifies.
        let got = take_envelope(&envelope, &mut 0).unwrap();
        let signer = CredentialSigner::new(b"authority");
        assert!(got
            .credential
            .verify(&signer.verification_key(), 50)
            .is_ok());
        assert_eq!(got.credential, sample_envelope().credential);
    }

    #[test]
    fn truncation_at_every_offset_and_a_trailing_byte_are_typed_errors() {
        for (name, encoded, recode) in cases() {
            for cut in 0..encoded.len() {
                let got = recode(&encoded[..cut]);
                assert!(
                    matches!(got, Err(ProtocolError::Codec(_))),
                    "{name} cut at {cut}: {got:?}"
                );
            }
            let mut long = encoded.clone();
            long.push(0);
            assert!(
                matches!(recode(&long), Err(ProtocolError::Codec(_))),
                "{name}"
            );
        }
    }

    #[test]
    fn hostile_count_on_a_short_buffer_fails_before_allocating() {
        // A count of u32::MAX over a few bytes: every counted decoder must
        // run into the end of the buffer, not reserve 4 billion elements.
        let hostile = [0xff, 0xff, 0xff, 0xff, 0, 0];
        let pos = &mut 0;
        assert!(matches!(
            take_tuples(&hostile, pos),
            Err(ProtocolError::Codec(_))
        ));
        assert!(take_blobs(&hostile, &mut 0).is_err());
        assert!(take_u64s(&hostile, &mut 0).is_err());
        assert!(take_blob(&hostile, &mut 0).is_err());
        // The same count inside an envelope's target list.
        let [(_, mut envelope, _), _] = cases();
        let ids_at = envelope.len() - (4 + 3 * 8);
        envelope[ids_at..ids_at + 4].copy_from_slice(&[0xff; 4]);
        assert!(matches!(
            take_envelope(&envelope, &mut 0),
            Err(ProtocolError::Codec(_))
        ));
    }

    #[test]
    fn oversized_length_is_refused_not_wrapped() {
        assert!(matches!(
            len_u32("probe", u32::MAX as usize + 1),
            Err(ProtocolError::LengthOverflow { what: "probe", .. })
        ));
        assert_eq!(len_u32("probe", 7).unwrap(), 7);
    }
}
