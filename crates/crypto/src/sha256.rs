//! SHA-256 (FIPS 180-4), block-oriented software implementation with a
//! runtime-detected SHA-NI fast path.

/// Digest size in bytes.
pub const DIGEST_SIZE: usize = 32;
/// Internal block size in bytes (needed by HMAC).
pub const BLOCK_SIZE: usize = 64;

/// Which compression function [`Sha256`] dispatches to at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShaBackend {
    /// Portable software compression (always available).
    Software,
    /// x86-64 SHA-NI instructions, detected at runtime via CPUID.
    ShaNi,
}

impl std::fmt::Display for ShaBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShaBackend::Software => f.write_str("software"),
            ShaBackend::ShaNi => f.write_str("sha-ni"),
        }
    }
}

/// The backend new [`Sha256`] hashers will use for this process.
///
/// Honors the `TDSQL_SOFT_CRYPTO` kill switch (see
/// [`crate::aes::aes_backend`]); hashers built by [`Sha256::new_software`]
/// always compress in software regardless.
pub fn sha_backend() -> ShaBackend {
    static BACKEND: std::sync::OnceLock<ShaBackend> = std::sync::OnceLock::new();
    *BACKEND.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if !crate::aes::soft_crypto_forced()
            && std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse4.1")
            && std::arch::is_x86_feature_detected!("ssse3")
        {
            return ShaBackend::ShaNi;
        }
        ShaBackend::Software
    })
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_SIZE],
    buffer_len: usize,
    total_len: u64,
    backend: ShaBackend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher with the FIPS initial state, using the detected backend.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; BLOCK_SIZE],
            buffer_len: 0,
            total_len: 0,
            backend: sha_backend(),
        }
    }

    /// Fresh hasher pinned to the software compression function, so the
    /// hardware path can be cross-checked against it on SHA-NI machines.
    pub fn new_software() -> Self {
        Self {
            backend: ShaBackend::Software,
            ..Self::new()
        }
    }

    /// One-shot software-only digest, the cross-check reference.
    pub fn digest_software(data: &[u8]) -> [u8; DIGEST_SIZE] {
        let mut h = Self::new_software();
        h.update(data);
        h.finalize()
    }

    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (BLOCK_SIZE - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < BLOCK_SIZE {
                // Buffer still not full; nothing block-aligned to compress.
                return;
            }
            compress(self.backend, &mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let mut chunks = data.chunks_exact(BLOCK_SIZE);
        for chunk in &mut chunks {
            let mut block = [0u8; BLOCK_SIZE];
            block.copy_from_slice(chunk);
            compress(self.backend, &mut self.state, &block);
        }
        let rem = chunks.remainder();
        self.buffer[..rem.len()].copy_from_slice(rem);
        self.buffer_len = rem.len();
    }

    /// Finish and produce the 32-byte digest.
    ///
    /// Padding is written into the buffer a block at a time: 0x80, a zero
    /// fill, and the 64-bit big-endian bit length in the last 8 bytes. When
    /// fewer than 9 bytes are free the 0x80 and zeros close this block and
    /// the length goes into one more.
    pub fn finalize(mut self) -> [u8; DIGEST_SIZE] {
        const LEN_AT: usize = BLOCK_SIZE - 8;
        let bit_len = self.total_len.wrapping_mul(8);
        let mut fill = self.buffer_len;
        self.buffer[fill] = 0x80;
        fill += 1;
        if fill > LEN_AT {
            self.buffer[fill..].fill(0);
            compress(self.backend, &mut self.state, &self.buffer);
            fill = 0;
        }
        self.buffer[fill..LEN_AT].fill(0);
        self.buffer[LEN_AT..].copy_from_slice(&bit_len.to_be_bytes());
        compress(self.backend, &mut self.state, &self.buffer);
        let mut out = [0u8; DIGEST_SIZE];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_SIZE] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

/// One compression of `block` into `state`, on `backend`.
fn compress(backend: ShaBackend, state: &mut [u32; 8], block: &[u8; BLOCK_SIZE]) {
    #[cfg(target_arch = "x86_64")]
    if backend == ShaBackend::ShaNi {
        // SAFETY: `backend` is only ShaNi when CPUID reported the
        // sha/sse4.1/ssse3 features (see `sha_backend`).
        unsafe { ni::compress(state, block) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = backend;
    compress_soft(state, block);
}

fn compress_soft(state: &mut [u32; 8], block: &[u8; BLOCK_SIZE]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// SHA-NI compression (FIPS 180-4 semantics, Intel SHA extensions).
///
/// The two `sha256rnds2` state registers hold the working variables packed
/// as ABEF / CDGH; the prologue/epilogue shuffles translate to and from the
/// linear `[a..h]` state array. Message words are byteswapped on load (the
/// wire format is big-endian) and scheduled four at a time with
/// `sha256msg1`/`sha256msg2`.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::{BLOCK_SIZE, K};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Four rounds: feed `wk` (message words + round constants) into the
    /// CDGH half, then its high lanes into the ABEF half.
    #[inline]
    #[target_feature(enable = "sha,sse4.1,ssse3")]
    unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, wk: __m128i) {
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// Produce message words `w[i+16..i+20]` from the previous four vectors.
    #[inline]
    #[target_feature(enable = "sha,sse4.1,ssse3")]
    unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// # Safety
    /// The CPU must support `sha`, `sse4.1` and `ssse3` (caller checks).
    #[target_feature(enable = "sha,sse4.1,ssse3")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_SIZE]) {
        // Per-32-bit-lane byte swap control for pshufb.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);

        // Pack [a,b,c,d] / [e,f,g,h] into ABEF / CDGH.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        let abef_save = abef;
        let cdgh_save = cdgh;

        let p = block.as_ptr().cast::<__m128i>();
        let mut w = [
            _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
        ];
        for group in 0..16 {
            if group >= 4 {
                let next = schedule(w[0], w[1], w[2], w[3]);
                w = [w[1], w[2], w[3], next];
            }
            let wi = if group < 4 { w[group] } else { w[3] };
            let k = _mm_loadu_si128(K.as_ptr().add(4 * group).cast());
            rounds4(&mut abef, &mut cdgh, _mm_add_epi32(wi, k));
        }

        abef = _mm_add_epi32(abef, abef_save);
        cdgh = _mm_add_epi32(cdgh, cdgh_save);

        // Unpack ABEF / CDGH back to [a..d] / [e..h].
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgfe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hardware_matches_software() {
        // On SHA-NI machines this pins the intrinsics path byte-for-byte
        // against the portable compression; elsewhere it is a tautology.
        let mut data = vec![0u8; 1025];
        let mut x = 41u8;
        for b in data.iter_mut() {
            x = x.wrapping_mul(167).wrapping_add(29);
            *b = x;
        }
        for len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 1025] {
            assert_eq!(
                Sha256::digest(&data[..len]),
                Sha256::digest_software(&data[..len]),
                "len {len} backend {}",
                sha_backend()
            );
        }
    }

    /// Every length from 0 to 130 bytes, so the padding lands in every
    /// position of the last block, including 56..=63 and 120..=127 where
    /// it spills into one more block. The messages are prefixes of the
    /// pattern `(i * 37 + 11) mod 256`. The expected values come from an
    /// independent implementation (Python's `hashlib`): the SHA-256 of the
    /// 131 digests concatenated, plus the digests at the spill edges.
    #[test]
    fn padding_at_every_length_matches_reference() {
        let data: Vec<u8> = (0..130).map(|i| ((i * 37 + 11) % 256) as u8).collect();
        let at = |len: usize| hex(&Sha256::digest(&data[..len]));
        assert_eq!(
            at(55),
            "2900465fcb533e05a158fd2b3be0e5e3b03740d83060aa3580e0d98a96bf2384"
        );
        assert_eq!(
            at(56),
            "31454ff48ef36af2f08fd511bdc37d9d5855ac23e992e5ff5445cb6b7674a674"
        );
        assert_eq!(
            at(63),
            "5f6401b96532c36de4e65beec0409b69b1d181864c8009b7a04f43e5d56350d1"
        );
        assert_eq!(
            at(64),
            "94eb5de4943613fd048dc93393ab06877405faa39c11f53e9386083339833e7e"
        );
        assert_eq!(
            at(119),
            "b0dc41b1a384e2f1203f0351b38fbeaafceef577ce1191d5bfc25da39f721eae"
        );
        assert_eq!(
            at(120),
            "5df24dd802ac26132ce608dcb5f09841eef039ee0f152acf98d26d17fe4e88e6"
        );
        let mut fold = Sha256::new();
        let mut fold_soft = Sha256::new();
        for len in 0..=data.len() {
            fold.update(&Sha256::digest(&data[..len]));
            fold_soft.update(&Sha256::digest_software(&data[..len]));
        }
        let expect = "cec4c6d09a19510a15db5bcadc0491d8921c4ac138b9237e9b623d4c0998fb45";
        assert_eq!(hex(&fold.finalize()), expect, "backend {}", sha_backend());
        assert_eq!(hex(&fold_soft.finalize()), expect, "software backend");
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..300u16).map(|i| i as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 128, 299] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }
}
