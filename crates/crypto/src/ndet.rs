//! `nDet_Enc` — non-deterministic (probabilistic) authenticated encryption.
//!
//! Several encryptions of the same message yield different ciphertexts, so an
//! honest-but-curious SSI observing the collection phase can neither mount a
//! frequency-based attack nor distinguish dummy tuples from true ones.
//!
//! Construction: encrypt-then-MAC.
//! `nonce (16B, random) || AES-CTR(enc_key, nonce, pt) || HMAC(mac_key,
//! nonce || ct)[..16]`.

use crate::rng::RngCore;

use crate::aes::{Aes128, BLOCK_SIZE};
use crate::ctr;
use crate::error::CryptoError;
use crate::hmac::{ct_eq, HmacSha256};
use crate::keys::SymKey;

/// Tag length in bytes (truncated HMAC-SHA256).
pub const TAG_LEN: usize = 16;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = BLOCK_SIZE;
/// Total ciphertext expansion over the plaintext length.
pub const OVERHEAD: usize = NONCE_LEN + TAG_LEN;

/// Probabilistic authenticated cipher bound to one [`SymKey`].
///
/// Construction is the expensive part (AES key-schedule expansion plus the
/// HMAC ipad/opad precomputation); per-message work clones the precomputed
/// MAC template instead of re-deriving it, so a cipher built once per key
/// ring amortises across every tuple sealed under that ring.
#[derive(Clone)]
pub struct NDetCipher {
    aes: Aes128,
    /// Keyed HMAC template with both pad blocks already compressed. Cloned
    /// per message, which skips the two compressions `HmacSha256::new` pays.
    mac: HmacSha256,
}

impl NDetCipher {
    /// Build a cipher from a symmetric key.
    pub fn new(key: &SymKey) -> Self {
        Self {
            aes: Aes128::new(key.enc_key()),
            mac: HmacSha256::new(key.mac_key()),
        }
    }

    /// Encrypt with a nonce drawn from `rng`.
    pub fn encrypt<R: RngCore>(&self, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        self.encrypt_with_nonce(&nonce, plaintext)
    }

    /// Deterministic-nonce variant, exposed for tests and for reproducible
    /// simulation runs (the runtime passes a seeded RNG to [`Self::encrypt`]).
    pub fn encrypt_with_nonce(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + OVERHEAD);
        self.encrypt_with_nonce_into(nonce, plaintext, &mut out);
        out
    }

    /// Encrypt with a nonce drawn from `rng`, appending `nonce || ct || tag`
    /// to `out` instead of allocating a fresh `Vec`.
    ///
    /// This is the arena entry point for the collection hot path: a TDS
    /// seals its tuples into one contiguous buffer and slices it up
    /// afterwards, instead of paying an allocation per tuple. Byte-identical
    /// to [`Self::encrypt`] given the same RNG state.
    pub fn encrypt_into<R: RngCore>(&self, rng: &mut R, plaintext: &[u8], out: &mut Vec<u8>) {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        self.encrypt_with_nonce_into(&nonce, plaintext, out);
    }

    /// Arena variant of [`Self::encrypt_with_nonce`]: appends to `out`.
    pub fn encrypt_with_nonce_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        out.reserve(plaintext.len() + OVERHEAD);
        out.extend_from_slice(nonce);
        out.extend_from_slice(plaintext);
        ctr::apply_keystream(&self.aes, nonce, &mut out[start + NONCE_LEN..]);
        let mut mac = self.mac.clone();
        mac.update(&out[start..]);
        let tag = mac.finalize();
        out.extend_from_slice(&tag[..TAG_LEN]);
    }

    /// Verify and decrypt.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut pt = Vec::new();
        self.decrypt_into(ciphertext, &mut pt)?;
        Ok(pt)
    }

    /// Verify and decrypt into a caller-provided buffer (cleared first).
    ///
    /// The aggregation phase decrypts millions of tuples through one reused
    /// scratch buffer instead of allocating a plaintext `Vec` per tuple.
    /// Identical verification and output to [`Self::decrypt`].
    pub fn decrypt_into(&self, ciphertext: &[u8], out: &mut Vec<u8>) -> Result<(), CryptoError> {
        out.clear();
        if ciphertext.len() < OVERHEAD {
            return Err(CryptoError::Truncated {
                need: OVERHEAD,
                got: ciphertext.len(),
            });
        }
        let (body, tag) = ciphertext.split_at(ciphertext.len() - TAG_LEN);
        let mut mac = self.mac.clone();
        mac.update(body);
        let expected = mac.finalize();
        if !ct_eq(&expected[..TAG_LEN], tag) {
            return Err(CryptoError::TagMismatch);
        }
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&body[..NONCE_LEN]);
        out.extend_from_slice(&body[NONCE_LEN..]);
        ctr::apply_keystream(&self.aes, &nonce, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedableRng;
    use crate::rng::StdRng;

    fn cipher() -> NDetCipher {
        NDetCipher::new(&SymKey::derive(b"test", "ndet"))
    }

    #[test]
    fn roundtrip() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(1);
        for len in [0usize, 1, 16, 17, 100, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = c.encrypt(&mut rng, &pt);
            assert_eq!(ct.len(), pt.len() + OVERHEAD);
            assert_eq!(c.decrypt(&ct).unwrap(), pt);
        }
    }

    #[test]
    fn encrypt_into_matches_vec_path() {
        let c = cipher();
        // Pre-existing arena bytes must be preserved, output appended.
        let mut arena = vec![0xEEu8; 3];
        for len in [0usize, 1, 15, 16, 17, 100, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let nonce = [(len % 251) as u8; NONCE_LEN];
            let expect = c.encrypt_with_nonce(&nonce, &pt);
            let start = arena.len();
            c.encrypt_with_nonce_into(&nonce, &pt, &mut arena);
            assert_eq!(&arena[start..], &expect[..], "len {len}");
        }
        assert_eq!(&arena[..3], &[0xEE; 3]);
    }

    #[test]
    fn encrypt_into_same_rng_matches_encrypt() {
        let c = cipher();
        let pt = b"seeded rng draws the same nonce";
        let ct_vec = c.encrypt(&mut StdRng::seed_from_u64(9), pt);
        let mut arena = Vec::new();
        c.encrypt_into(&mut StdRng::seed_from_u64(9), pt, &mut arena);
        assert_eq!(arena, ct_vec);
        assert_eq!(c.decrypt(&arena).unwrap(), pt);
    }

    #[test]
    fn decrypt_into_matches_decrypt() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(8);
        let mut scratch = vec![0xAAu8; 7]; // stale contents must be cleared
        for len in [0usize, 1, 16, 17, 100] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = c.encrypt(&mut rng, &pt);
            c.decrypt_into(&ct, &mut scratch).unwrap();
            assert_eq!(scratch, pt, "len {len}");
        }
        let mut bad = c.encrypt(&mut rng, b"x");
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(
            c.decrypt_into(&bad, &mut scratch),
            Err(CryptoError::TagMismatch)
        );
    }

    #[test]
    fn same_plaintext_different_ciphertexts() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(2);
        let a = c.encrypt(&mut rng, b"Alice lives in Memphis");
        let b = c.encrypt(&mut rng, b"Alice lives in Memphis");
        assert_ne!(a, b, "nDet_Enc must be probabilistic");
    }

    #[test]
    fn tamper_detection() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(3);
        let mut ct = c.encrypt(&mut rng, b"consumption=42");
        for idx in [0usize, NONCE_LEN, ct.len() - 1] {
            let mut bad = ct.clone();
            bad[idx] ^= 0x01;
            assert_eq!(
                c.decrypt(&bad),
                Err(CryptoError::TagMismatch),
                "flip at {idx}"
            );
        }
        ct.truncate(OVERHEAD - 1);
        assert!(matches!(c.decrypt(&ct), Err(CryptoError::Truncated { .. })));
    }

    #[test]
    fn wrong_key_rejected() {
        let c1 = cipher();
        let c2 = NDetCipher::new(&SymKey::derive(b"other", "ndet"));
        let mut rng = StdRng::seed_from_u64(4);
        let ct = c1.encrypt(&mut rng, b"secret");
        assert_eq!(c2.decrypt(&ct), Err(CryptoError::TagMismatch));
    }
}
