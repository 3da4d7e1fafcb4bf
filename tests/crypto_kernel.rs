//! Property tests for the batched crypto kernel.
//!
//! The fast paths are *transparent*: `encrypt_into`-style appending
//! variants produce byte-identical output to the allocating originals, and
//! the hardware (AES-NI) block cipher produces byte-identical output to the
//! portable software implementation, including across every 32/64/96-bit
//! counter-carry boundary the CTR rewrite now propagates.

use tdsql_crypto::aes::{aes_backend, Aes128, AesBackend, BLOCK_SIZE};
use tdsql_crypto::rng::{SeedableRng, StdRng};
use tdsql_crypto::{ctr, DetCipher, KeyRing, NDetCipher};

/// Message lengths exercising every path split: empty, sub-block, exact
/// block ±1, a multi-stripe buffer, and a 1 MiB body (many stripes).
const LENS: [usize; 7] = [0, 1, 15, 16, 17, 4096, 1 << 20];

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

#[test]
fn ndet_encrypt_into_matches_encrypt_across_lengths() {
    let ring = KeyRing::derive(b"kernel-prop");
    let cipher = NDetCipher::new(&ring.k2);
    for (i, &len) in LENS.iter().enumerate() {
        let plain = pattern(len, i as u8);
        let mut rng_a = StdRng::seed_from_u64(1000 + i as u64);
        let mut rng_b = rng_a.clone();
        let vec_path = cipher.encrypt(&mut rng_a, &plain);
        // `encrypt_into` appends (arena semantics): bytes already in the
        // buffer must survive untouched, the suffix must match the Vec path.
        let mut arena_path = vec![0xAA; 7];
        cipher.encrypt_into(&mut rng_b, &plain, &mut arena_path);
        assert_eq!(&arena_path[..7], &[0xAA; 7], "len {len}: prefix clobbered");
        assert_eq!(vec_path, arena_path[7..], "len {len}");
        assert_eq!(
            cipher.decrypt(&arena_path[7..]).unwrap(),
            plain,
            "len {len}"
        );
    }
}

#[test]
fn det_encrypt_into_matches_encrypt_across_lengths() {
    let ring = KeyRing::derive(b"kernel-prop");
    let cipher = DetCipher::new(&ring.k2);
    for (i, &len) in LENS.iter().enumerate() {
        let plain = pattern(len, 0x40 ^ i as u8);
        let vec_path = cipher.encrypt(&plain);
        let mut arena_path = vec![0x55; 3];
        cipher.encrypt_into(&plain, &mut arena_path);
        assert_eq!(&arena_path[..3], &[0x55; 3], "len {len}: prefix clobbered");
        assert_eq!(vec_path, arena_path[3..], "len {len}");
        assert_eq!(
            cipher.decrypt(&arena_path[3..]).unwrap(),
            plain,
            "len {len}"
        );
    }
}

#[test]
fn batched_blocks_match_software_backend() {
    let aes = Aes128::new(b"kernel-prop-key!");
    // Lengths that cover partial stripes, full stripes, and the 8-lane
    // AES-NI inner loop's remainder handling (1..=9, 31..=33 blocks).
    for nblocks in (1..=9).chain(31..=33).chain([128]) {
        let mut hw = pattern(nblocks * BLOCK_SIZE, 0x7f);
        let mut soft = hw.clone();
        aes.encrypt_blocks(&mut hw);
        aes.encrypt_blocks_soft(&mut soft);
        assert_eq!(
            hw,
            soft,
            "dispatch backend {} diverges from software at {nblocks} blocks",
            aes_backend()
        );
    }
}

/// Per-block software CTR reference: block *i* XORs with
/// `E_soft(iv + i mod 2^128)`, big-endian. [`ctr::apply_keystream`] (striped,
/// possibly hardware) must agree byte for byte, whatever carries the counter
/// walk crosses.
fn reference_keystream(aes: &Aes128, iv: &[u8; BLOCK_SIZE], data: &mut [u8]) {
    let base = u128::from_be_bytes(*iv);
    for (i, chunk) in data.chunks_mut(BLOCK_SIZE).enumerate() {
        let mut block = base.wrapping_add(i as u128).to_be_bytes();
        let mut one = block;
        aes.encrypt_blocks_soft(&mut one);
        block.copy_from_slice(&one);
        for (b, k) in chunk.iter_mut().zip(block.iter()) {
            *b ^= k;
        }
    }
}

#[test]
fn keystream_matches_blockwise_reference_at_carry_boundaries() {
    let aes = Aes128::new(b"carry-prop-key!!");
    // IVs placed so the 100-block message walks the counter across every
    // word-carry boundary: low-32 wrap, low-64 wrap, low-96 wrap, full
    // 128-bit wrap, plus an unremarkable midrange base.
    let bases: [u128; 5] = [
        0x0102_0304_0506_0708_0000_0000_ffff_fffd,
        0x0102_0304_0506_0708_ffff_ffff_ffff_fffd,
        0x0102_0304_ffff_ffff_ffff_ffff_ffff_fffd,
        u128::MAX - 2,
        0x0123_4567_89ab_cdef_0011_2233_4455_6677,
    ];
    for (i, base) in bases.into_iter().enumerate() {
        let iv = base.to_be_bytes();
        // 100 blocks + a ragged 7-byte tail.
        let mut got = pattern(100 * BLOCK_SIZE + 7, i as u8);
        let mut want = got.clone();
        ctr::apply_keystream(&aes, &iv, &mut got);
        reference_keystream(&aes, &iv, &mut want);
        assert_eq!(got, want, "carry case {i} (iv base {base:#034x})");
    }
}

#[test]
fn hardware_backend_is_detected_or_forced_off() {
    // Informational pin: under TDSQL_SOFT_CRYPTO the dispatch must report
    // Software; otherwise whatever CPUID found. Either way the equivalence
    // tests above already proved the dispatch target's bytes.
    let forced = std::env::var_os("TDSQL_SOFT_CRYPTO").is_some_and(|v| !v.is_empty() && v != "0");
    if forced {
        assert_eq!(aes_backend(), AesBackend::Software);
    }
}
