//! Keyed bucket-identifier hash for the equi-depth histogram protocol.
//!
//! ED_Hist tags every tuple with `h(bucketId)` instead of `Det_Enc(A_G)`.
//! The paper notes `h(bucketId)` "plays the same role as Det_Enc(bucketId)
//! values but is cheaper to compute for TDSs": a single keyed hash, no CTR
//! pass. The hash key lives in the TDS [`crate::keys::KeyRing`], so the SSI
//! sees opaque 8-byte identifiers that carry no ordering information about
//! the underlying domain.

use crate::hmac::HmacSha256;
use crate::keys::SymKey;

/// Length of a hashed bucket identifier in bytes.
pub const BUCKET_TAG_LEN: usize = 8;

/// A hashed bucket identifier, as the SSI sees it.
pub type BucketTag = [u8; BUCKET_TAG_LEN];

/// Keyed hash for bucket identifiers.
#[derive(Clone)]
pub struct BucketHasher {
    /// Keyed HMAC template (both pads absorbed), cloned per hash so the two
    /// pad compressions happen once per key ring.
    mac: HmacSha256,
}

impl BucketHasher {
    /// Build a hasher from the ring's hash key.
    pub fn new(key: &SymKey) -> Self {
        Self {
            mac: HmacSha256::new(key.mac_key()),
        }
    }

    /// Hash a bucket identifier.
    pub fn hash(&self, bucket_id: u32) -> BucketTag {
        let mut mac = self.mac.clone();
        mac.update(&bucket_id.to_be_bytes());
        let digest = mac.finalize();
        let mut tag = [0u8; BUCKET_TAG_LEN];
        tag.copy_from_slice(&digest[..BUCKET_TAG_LEN]);
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_distinct() {
        let h = BucketHasher::new(&SymKey::derive(b"seed", "hash"));
        assert_eq!(h.hash(0), h.hash(0));
        assert_ne!(h.hash(0), h.hash(1));
    }

    #[test]
    fn keyed() {
        let h1 = BucketHasher::new(&SymKey::derive(b"a", "hash"));
        let h2 = BucketHasher::new(&SymKey::derive(b"b", "hash"));
        assert_ne!(h1.hash(7), h2.hash(7));
    }

    #[test]
    fn no_collisions_over_small_domain() {
        let h = BucketHasher::new(&SymKey::derive(b"seed", "hash"));
        let mut seen = std::collections::HashSet::new();
        for id in 0..10_000u32 {
            assert!(seen.insert(h.hash(id)), "collision at {id}");
        }
    }
}
