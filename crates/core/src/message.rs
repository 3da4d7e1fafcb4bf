//! Messages as the **SSI sees them** — opaque ciphertexts plus the minimum
//! cleartext the protocols deliberately reveal (the SIZE bound, the signed
//! credential, the partitioning tag), and the observation log used by the
//! security tests and the exposure analysis.

use crate::bytes::Bytes;
use tdsql_crypto::Credential;
use tdsql_sql::ast::SizeClause;

use crate::protocol::ProtocolKind;
use crate::stats::Phase;

/// The partitioning tag attached to a stored tuple.
///
/// This is the *only* grouping information each protocol chooses to reveal:
/// nothing (`S_Agg`), a deterministic ciphertext of the grouping attributes
/// (noise-based), or a keyed hash of an equi-depth bucket id (`ED_Hist`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupTag {
    /// No tag — the SSI partitions blindly (S_Agg, basic protocol).
    None,
    /// `Det_Enc(A_G)` ciphertext bytes (noise-based protocols, and the
    /// second aggregation step of ED_Hist). Arc-backed: tags are cloned
    /// into every observation and partition map, so clones must be
    /// refcount bumps rather than byte copies.
    Det(Bytes),
    /// `h(bucketId)` (first step of ED_Hist).
    Bucket([u8; 8]),
}

/// One encrypted tuple parked on the SSI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredTuple {
    /// Partitioning tag (cleartext to the SSI).
    pub tag: GroupTag,
    /// Opaque encrypted payload.
    pub blob: Bytes,
}

/// Unique identifier of one *assignment*: one attempt to have one TDS
/// process one work item (a partition, or a TDS's collection contribution).
///
/// Transport is at-least-once: an upload may be lost (SSI timeout → the work
/// item is re-sent under a **new** assignment id), duplicated, or delivered
/// after the re-sent assignment already completed. Carrying the assignment id
/// on every upload lets the SSI deduplicate exactly — the first completed
/// delivery per work item wins, every other delivery for that item is
/// dropped and counted, never merged into the working set twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AssignmentId(pub u64);

impl std::fmt::Display for AssignmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// What the SSI did with a delivery, after dedup and lifecycle checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// First completed delivery for its work item: merged into the state.
    Accepted,
    /// The same assignment already delivered; this copy was dropped.
    Duplicate,
    /// Another assignment already completed this work item (the delivery
    /// arrived late, after the SSI's timeout re-sent the work); dropped.
    LateAfterReassign,
    /// A collection-phase delivery arriving after SIZE closed the window;
    /// dropped under the paper's stream semantics.
    WindowClosed,
}

/// Which querybox a query is posted to: the global box (crowd queries) or
/// the personal boxes of specific TDSs ("get the monthly energy consumption
/// of consumer C" — Section 3.1). Routing is necessarily visible to the SSI;
/// the query content never is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryTarget {
    /// The global querybox: every connected TDS participates.
    Crowd,
    /// Personal queryboxes: only the listed TDS ids download the query.
    Tds(Vec<u64>),
}

impl QueryTarget {
    /// Does this target include the given TDS?
    pub fn includes(&self, tds_id: u64) -> bool {
        match self {
            QueryTarget::Crowd => true,
            QueryTarget::Tds(ids) => ids.contains(&tds_id),
        }
    }
}

/// A query posted to a querybox: everything here is visible to the SSI.
#[derive(Debug, Clone)]
pub struct QueryEnvelope {
    /// SSI-assigned query identifier.
    pub query_id: u64,
    /// `nDet_Enc_k1(SQL text)` — opaque to the SSI.
    pub enc_query: Bytes,
    /// Authority-signed credential, checked by each TDS.
    pub credential: Credential,
    /// SIZE clause in cleartext so the SSI can evaluate it (step 1).
    pub size: SizeClause,
    /// Which protocol's dataflow to run — a public execution recipe.
    pub protocol: ProtocolKind,
    /// Global or personal querybox routing.
    pub target: QueryTarget,
}

/// One entry of the SSI's view of the world, recorded for the information-
/// exposure analysis and the security property tests. Only things a real
/// honest-but-curious SSI could write down are recorded: sender role, phase,
/// tag, payload length and a digest of the ciphertext (to count repeats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Query the message belongs to.
    pub query_id: u64,
    /// Protocol phase during which the message was seen.
    pub phase: Phase,
    /// Partitioning tag (cleartext).
    pub tag: GroupTag,
    /// Ciphertext length in bytes.
    pub blob_len: usize,
    /// SHA-256/128 digest of the ciphertext — lets the analysis count how
    /// often the *same* ciphertext repeats (the frequency-attack surface).
    pub blob_digest: [u8; 16],
}

impl Observation {
    /// Record a stored tuple.
    pub fn of(query_id: u64, phase: Phase, tuple: &StoredTuple) -> Self {
        Self::of_parts(query_id, phase, &tuple.tag, &tuple.blob)
    }

    /// Record a ciphertext and the tag it travelled with (sealed result
    /// rows and cache blobs travel with [`GroupTag::None`]).
    pub fn of_parts(query_id: u64, phase: Phase, tag: &GroupTag, blob: &[u8]) -> Self {
        let digest = tdsql_crypto::sha256::Sha256::digest(blob);
        let mut d = [0u8; 16];
        d.copy_from_slice(&digest[..16]);
        Self {
            query_id,
            phase,
            tag: tag.clone(),
            blob_len: blob.len(),
            blob_digest: d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_digests_detect_repeats() {
        let a = StoredTuple {
            tag: GroupTag::None,
            blob: Bytes::from_static(b"ciphertext-1"),
        };
        let b = StoredTuple {
            tag: GroupTag::None,
            blob: Bytes::from_static(b"ciphertext-1"),
        };
        let c = StoredTuple {
            tag: GroupTag::None,
            blob: Bytes::from_static(b"ciphertext-2"),
        };
        let oa = Observation::of(0, Phase::Collection, &a);
        let ob = Observation::of(0, Phase::Collection, &b);
        let oc = Observation::of(0, Phase::Collection, &c);
        assert_eq!(oa.blob_digest, ob.blob_digest);
        assert_ne!(oa.blob_digest, oc.blob_digest);
    }

    #[test]
    fn group_tags_order_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(GroupTag::None);
        set.insert(GroupTag::Det(Bytes::from(vec![1, 2])));
        set.insert(GroupTag::Det(Bytes::from(vec![1, 2])));
        set.insert(GroupTag::Bucket([0; 8]));
        assert_eq!(set.len(), 3);
    }
}
