//! The leakage lattice: how much an honest-but-curious observer learns from
//! one exposed representation of a value.
//!
//! Ordered by *protection* — lower elements leak more:
//!
//! ```text
//! Plaintext  <  KeyedHash  <  DetEnc  <  NDetEnc
//! ```
//!
//! * `Plaintext` — the value itself (only ever authorized for the SIZE
//!   bound, the signed credential, the protocol recipe and the routing
//!   target);
//! * `KeyedHash` — `h(bucketId)`: hides the value and the domain order, but
//!   equal inputs produce equal outputs *within one bucket mapping*
//!   (ED_Hist's first-step tags);
//! * `DetEnc` — `Det_Enc_k2(v)`: hides the value but exposes the exact
//!   equality pattern, hence frequencies (noise-protocol tags, ED_Hist's
//!   second-step tags);
//! * `NDetEnc` — `nDet_Enc(v)`: semantically secure, unlinkable ciphertexts
//!   (every tuple payload; the exposure floor of S_Agg).

/// One point of the leakage lattice. `Ord` follows protection strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Leakage {
    /// Cleartext.
    Plaintext,
    /// Keyed hash of a coarsened value (bucket id).
    KeyedHash,
    /// Deterministic encryption — equality pattern exposed.
    DetEnc,
    /// Non-deterministic encryption — semantically secure.
    NDetEnc,
}

impl Leakage {
    /// Display name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Leakage::Plaintext => "plaintext",
            Leakage::KeyedHash => "keyed-hash",
            Leakage::DetEnc => "Det_Enc",
            Leakage::NDetEnc => "nDet_Enc",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_protection_strength() {
        assert!(Leakage::Plaintext < Leakage::KeyedHash);
        assert!(Leakage::KeyedHash < Leakage::DetEnc);
        assert!(Leakage::DetEnc < Leakage::NDetEnc);
    }
}
