//! Deterministic pseudo-random number generation, in-repo.
//!
//! The simulation runtime, the workload generators and `nDet_Enc` all need a
//! seedable, reproducible PRNG. The build environment is hermetic (no
//! crates.io access), so instead of the `rand` crate this module provides the
//! small API surface the workspace actually uses, backed by **splitmix64**
//! (seeding) and **xoshiro256++** (generation) — the standard pairing from
//! Blackman & Vigna, <https://prng.di.unimi.it/>.
//!
//! None of this is cryptographic keystream material: ciphertext randomness
//! only feeds *nonces* (public by construction in `nDet_Enc`), and every
//! protocol run is deliberately reproducible from one seed. The API mirrors
//! `rand` 0.8 (`StdRng`, `SeedableRng`, `Rng`, `seq::SliceRandom`) so the
//! call sites read identically and the external crate can be swapped back in
//! a connected build if ever needed.

/// One step of the splitmix64 sequence; used to expand a 64-bit seed into
/// xoshiro state and usable directly for cheap hash mixing.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Core trait of a random generator: a source of `u64`s plus helpers.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let last = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&last[..rem.len()]);
        }
    }
}

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose whole stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The workspace's standard generator: xoshiro256++ seeded via splitmix64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state (only possible for adversarial seeds) would be a
        // fixed point; splitmix64 never produces four zeros from one seed,
        // but keep the guard explicit.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        StdRng { s }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A type samplable uniformly from a generator (the `rand` crate's
/// `Standard` distribution equivalent; only the types the workspace draws).
pub trait Standard: Sized {
    /// Draw one uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// A half-open range samplable uniformly (the `rand` `SampleRange` subset
/// used by the workspace: `Range` over the primitive ints and `f64`).
pub trait SampleRange {
    /// The sampled value's type.
    type Output;
    /// Draw one value uniformly from the range. Panics on empty ranges, like
    /// `rand` does.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Uniform integer in `[0, bound)` by widening multiply (Lemire's method,
/// without the rejection loop — the bias is < 2⁻⁶⁴·bound, irrelevant for
/// simulation sampling).
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    ((rng.next_u64() as u128 * bound as u128) >> 64) as u64
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + bounded_u64(rng, span) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, i64, i32);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let x = f64::sample(rng);
        self.start + x * (self.end - self.start)
    }
}

/// Convenience sampling methods, blanket-implemented for every generator.
pub trait Rng: RngCore {
    /// Draw a value of a [`Standard`]-samplable type (`let x: f64 = rng.gen()`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draw uniformly from a half-open range.
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Path-compatibility module mirroring the `rand` crate's `rngs`.
pub mod rngs {
    pub use super::StdRng;
}

/// Slice shuffling and choosing, mirroring the `rand` crate's `seq`.
pub mod seq {
    use super::{RngCore, SampleRange};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (0..i + 1).sample_from(rng);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[(0..self.len()).sample_from(rng)])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn reproducible_streams() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(va[0], c.next_u64());
    }

    #[test]
    fn fill_bytes_covers_partial_blocks() {
        let mut rng = StdRng::seed_from_u64(1);
        for len in [0usize, 1, 7, 8, 9, 16, 33] {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                assert_ne!(buf, vec![0u8; len], "len {len} should be randomized");
            }
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..17usize);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-2.0..2.0);
            assert!((-2.0..2.0).contains(&f));
            let i = rng.gen_range(0..100i64);
            assert!((0..100).contains(&i));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn gen_bool_edges_and_rate() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!((0..1000).all(|_| !rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "{hits}");
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 100_000.0;
        assert!((0.49..0.51).contains(&mean), "{mean}");
    }

    #[test]
    fn shuffle_permutes_and_choose_hits_everything() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());

        let items = [1u8, 2, 3];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(*items.choose(&mut rng).expect("non-empty"));
        }
        assert_eq!(seen.len(), 3);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn splitmix_known_values() {
        // Reference values from the splitmix64 reference implementation
        // (seed 0): first three outputs.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut s), 0x06c4_5d18_8009_454f);
    }
}
