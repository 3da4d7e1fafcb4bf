//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).

use crate::sha256::{Sha256, BLOCK_SIZE, DIGEST_SIZE};

/// Incremental HMAC-SHA256.
///
/// Both pads are absorbed at construction: `inner` has taken `K ^ ipad` and
/// `outer` has taken `K ^ opad`, each one full block. A context cloned from
/// a keyed template therefore pays only for its message and the two
/// finishing blocks.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Hasher with the outer pad `K ^ opad` already compressed; it absorbs
    /// the inner digest at [`Self::finalize`].
    outer: Sha256,
}

impl HmacSha256 {
    /// Create an HMAC context keyed by `key` (any length; hashed if > 64 B).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            k[..DIGEST_SIZE].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK_SIZE];
        let mut opad = [0x5cu8; BLOCK_SIZE];
        for i in 0..BLOCK_SIZE {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        Self { inner, outer }
    }

    /// Absorb message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produce the 32-byte tag.
    pub fn finalize(mut self) -> [u8; DIGEST_SIZE] {
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }

    /// One-shot convenience.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; DIGEST_SIZE] {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }
}

/// Constant-time comparison of two byte strings.
///
/// The SSI never verifies MACs (it only stores ciphertexts), but TDSs do, and
/// timing side channels are exactly what tamper-resistant hardware defends
/// against — keep the software model honest.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let tag = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = HmacSha256::mac(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 6 (key longer than block size).
    #[test]
    fn rfc4231_case6() {
        let key = [0xaa; 131];
        let tag = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = b"key material";
        let data = b"some message spanning multiple updates";
        let mut h = HmacSha256::new(key);
        h.update(&data[..10]);
        h.update(&data[10..]);
        assert_eq!(h.finalize(), HmacSha256::mac(key, data));
    }

    /// A template keyed once and cloned per message (how the ciphers use
    /// it) gives the one-shot tag at every message length from 0 to 130
    /// bytes, so the inner padding meets every block position; the tags
    /// fold to the value Python's `hmac` module computes for the same key
    /// and `(i * 37 + 11) mod 256` messages.
    #[test]
    fn cloned_template_matches_oneshot_at_every_length() {
        let key = b"template key";
        let data: Vec<u8> = (0..130).map(|i| ((i * 37 + 11) % 256) as u8).collect();
        let template = HmacSha256::new(key);
        let mut fold = Sha256::new();
        for len in 0..=data.len() {
            let mut h = template.clone();
            h.update(&data[..len]);
            let tag = h.finalize();
            assert_eq!(tag, HmacSha256::mac(key, &data[..len]), "len {len}");
            fold.update(&tag);
        }
        assert_eq!(
            hex(&fold.finalize()),
            "214009c09472e9b978c4338740bb2136e1b8b36c7ba300ceb31c12a7b4a2501c"
        );
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
