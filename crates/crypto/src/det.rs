//! `Det_Enc` — deterministic authenticated encryption (SIV construction).
//!
//! The noise-based protocols apply `Det_Enc` to the grouping attributes so
//! the SSI can assemble tuples of the same GROUP BY class into the same
//! partition *without* decrypting anything. Determinism is the point — and
//! also the risk: it exposes the ciphertext frequency distribution, which is
//! why the protocols pair it with fake tuples (Section 4.3) or replace it
//! with hashed equi-depth buckets (Section 4.4).
//!
//! Construction (misuse-resistant SIV):
//! `iv = HMAC(mac_key, pt)[..16]`, `ct = AES-CTR(enc_key, iv, pt)`,
//! output `iv || ct`. Decryption re-derives the IV from the recovered
//! plaintext and compares — authentication for free.

use crate::aes::{Aes128, BLOCK_SIZE};
use crate::ctr;
use crate::error::CryptoError;
use crate::hmac::{ct_eq, HmacSha256};
use crate::keys::SymKey;

/// Ciphertext expansion over plaintext length.
pub const OVERHEAD: usize = BLOCK_SIZE;

/// Deterministic authenticated cipher bound to one [`SymKey`].
#[derive(Clone)]
pub struct DetCipher {
    aes: Aes128,
    /// Keyed HMAC template (both pads absorbed), cloned per message so the
    /// two pad compressions happen once per key ring.
    mac: HmacSha256,
}

impl DetCipher {
    /// Build a cipher from a symmetric key.
    pub fn new(key: &SymKey) -> Self {
        Self {
            aes: Aes128::new(key.enc_key()),
            mac: HmacSha256::new(key.mac_key()),
        }
    }

    fn synthetic_iv(&self, plaintext: &[u8]) -> [u8; BLOCK_SIZE] {
        let mut mac = self.mac.clone();
        mac.update(b"det-siv");
        mac.update(plaintext);
        let digest = mac.finalize();
        let mut iv = [0u8; BLOCK_SIZE];
        iv.copy_from_slice(&digest[..BLOCK_SIZE]);
        iv
    }

    /// Encrypt. Equal plaintexts yield equal ciphertexts under the same key.
    pub fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + OVERHEAD);
        self.encrypt_into(plaintext, &mut out);
        out
    }

    /// Arena variant of [`Self::encrypt`]: appends `iv || ct` to `out`
    /// instead of allocating. Byte-identical to the `Vec` path.
    pub fn encrypt_into(&self, plaintext: &[u8], out: &mut Vec<u8>) {
        let iv = self.synthetic_iv(plaintext);
        let start = out.len();
        out.reserve(plaintext.len() + OVERHEAD);
        out.extend_from_slice(&iv);
        out.extend_from_slice(plaintext);
        ctr::apply_keystream(&self.aes, &iv, &mut out[start + BLOCK_SIZE..]);
    }

    /// Decrypt and verify the synthetic IV.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if ciphertext.len() < OVERHEAD {
            return Err(CryptoError::Truncated {
                need: OVERHEAD,
                got: ciphertext.len(),
            });
        }
        let mut iv = [0u8; BLOCK_SIZE];
        iv.copy_from_slice(&ciphertext[..BLOCK_SIZE]);
        let mut pt = ciphertext[BLOCK_SIZE..].to_vec();
        ctr::apply_keystream(&self.aes, &iv, &mut pt);
        let expected = self.synthetic_iv(&pt);
        if !ct_eq(&expected, &iv) {
            return Err(CryptoError::TagMismatch);
        }
        Ok(pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> DetCipher {
        DetCipher::new(&SymKey::derive(b"test", "det"))
    }

    #[test]
    fn deterministic_and_roundtrip() {
        let c = cipher();
        let a = c.encrypt(b"district-7");
        let b = c.encrypt(b"district-7");
        assert_eq!(a, b, "Det_Enc must be deterministic");
        assert_eq!(c.decrypt(&a).unwrap(), b"district-7");
    }

    #[test]
    fn encrypt_into_matches_vec_path() {
        let c = cipher();
        let mut arena = vec![0x77u8; 5];
        for len in [0usize, 1, 15, 16, 17, 100] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let expect = c.encrypt(&pt);
            let start = arena.len();
            c.encrypt_into(&pt, &mut arena);
            assert_eq!(&arena[start..], &expect[..], "len {len}");
            assert_eq!(c.decrypt(&arena[start..]).unwrap(), pt);
        }
        assert_eq!(&arena[..5], &[0x77; 5]);
    }

    #[test]
    fn distinct_plaintexts_distinct_ciphertexts() {
        let c = cipher();
        assert_ne!(c.encrypt(b"district-7"), c.encrypt(b"district-8"));
    }

    #[test]
    fn key_separation() {
        let c1 = cipher();
        let c2 = DetCipher::new(&SymKey::derive(b"other", "det"));
        let ct1 = c1.encrypt(b"district-7");
        assert_ne!(ct1, c2.encrypt(b"district-7"));
        assert_eq!(c2.decrypt(&ct1), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn tamper_detection() {
        let c = cipher();
        let mut ct = c.encrypt(b"grouping attribute value");
        ct[3] ^= 0xff;
        assert_eq!(c.decrypt(&ct), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn empty_plaintext() {
        let c = cipher();
        let ct = c.encrypt(b"");
        assert_eq!(ct.len(), OVERHEAD);
        assert_eq!(c.decrypt(&ct).unwrap(), b"");
    }
}
