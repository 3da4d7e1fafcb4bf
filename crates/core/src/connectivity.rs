//! Connectivity and fault model for the TDS population.
//!
//! TDSs are "low power, weakly connected": smart meters may be online all the
//! time, personal tokens connect seldom and briefly. The runtime samples a
//! connected subset each round; a connected TDS may still drop out in the
//! middle of processing a partition, in which case the SSI re-sends the
//! partition to another TDS after a timeout (correctness argument of
//! Section 3.2).
//!
//! Mid-partition dropout is only one failure mode of a real deployment. The
//! [`FaultPlan`] extends the model to the full at-least-once taxonomy: a
//! message may be **lost** in transit, **duplicated** by the transport,
//! delivered **late** (after the SSI's timeout already re-sent the work to
//! another TDS), **reordered** against its peers, or **corrupted** on the
//! wire (caught by the authenticated encryption, never by luck). Every
//! decision is a pure function of the plan's seed and the message's identity
//! (phase, work item, delivery attempt), so a fault schedule replays
//! identically on every backend, in process or over the wire.

use tdsql_crypto::rng::Rng;

use crate::bytes::Bytes;
use crate::stats::Phase;

/// A deterministic, seeded fault-injection schedule for message delivery.
///
/// Probabilities are per *delivery attempt*: the same work item retried after
/// a fault rolls fresh (but still deterministic) dice on the next attempt, so
/// any schedule with probabilities below 1.0 lets a retried item eventually
/// get through — the retry budget, not chance, decides termination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed separating this schedule from every other one.
    pub seed: u64,
    /// Probability an upload (TDS → SSI) vanishes: the SSI times out and
    /// re-sends the work to another TDS.
    pub loss: f64,
    /// Probability an upload is delivered twice by the transport.
    pub duplication: f64,
    /// Probability an upload is delayed past the SSI's timeout: the work is
    /// reassigned, and the original answer still arrives afterwards.
    pub late: f64,
    /// Probability the pending work queue is shuffled before a round.
    pub reorder: f64,
    /// Probability a download (SSI → TDS) is corrupted in transit. The TDS's
    /// authenticated decryption rejects it and the SSI re-sends.
    pub corruption: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// splitmix64 — the classic 64-bit finalizer, good enough to turn message
/// coordinates into independent uniform draws.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The salts keeping the five fault kinds' dice independent.
const SALT_LOSS: u64 = 1;
const SALT_DUP: u64 = 2;
const SALT_LATE: u64 = 3;
const SALT_REORDER: u64 = 4;
const SALT_CORRUPT: u64 = 5;

impl FaultPlan {
    /// No faults at all (the default — healthy transport).
    pub fn none() -> Self {
        Self {
            seed: 0,
            loss: 0.0,
            duplication: 0.0,
            late: 0.0,
            reorder: 0.0,
            corruption: 0.0,
        }
    }

    /// A fresh all-zero schedule under `seed`; compose with the `with_*`
    /// builders.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::none()
        }
    }

    /// Set the upload-loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss = p;
        self
    }

    /// Set the upload-duplication probability.
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.duplication = p;
        self
    }

    /// Set the late-delivery-after-reassignment probability.
    pub fn with_late(mut self, p: f64) -> Self {
        self.late = p;
        self
    }

    /// Set the queue-reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Set the download-corruption probability.
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.corruption = p;
        self
    }

    /// One deterministic uniform draw in `[0, 1)` for a message coordinate.
    fn draw(&self, salt: u64, phase: Phase, item: u64, attempt: u32) -> f64 {
        let phase_ix = match phase {
            Phase::Collection => 0u64,
            Phase::Aggregation => 1,
            Phase::Filtering => 2,
            Phase::Discovery => 3,
        };
        let mut h = splitmix64(self.seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f));
        h = splitmix64(h ^ phase_ix);
        h = splitmix64(h ^ item);
        h = splitmix64(h ^ attempt as u64);
        // 53 high bits → uniform double in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Does this delivery attempt's upload get lost?
    pub fn lose_upload(&self, phase: Phase, item: u64, attempt: u32) -> bool {
        self.loss > 0.0 && self.draw(SALT_LOSS, phase, item, attempt) < self.loss
    }

    /// Is this delivery attempt's upload duplicated?
    pub fn duplicate_upload(&self, phase: Phase, item: u64, attempt: u32) -> bool {
        self.duplication > 0.0 && self.draw(SALT_DUP, phase, item, attempt) < self.duplication
    }

    /// Is this delivery attempt's upload delayed past the reassignment
    /// timeout?
    pub fn deliver_late(&self, phase: Phase, item: u64, attempt: u32) -> bool {
        self.late > 0.0 && self.draw(SALT_LATE, phase, item, attempt) < self.late
    }

    /// Is this delivery attempt's download corrupted in transit?
    pub fn corrupt_download(&self, phase: Phase, item: u64, attempt: u32) -> bool {
        self.corruption > 0.0 && self.draw(SALT_CORRUPT, phase, item, attempt) < self.corruption
    }

    /// Should the pending queue be shuffled before this round/step?
    pub fn reorder_round(&self, phase: Phase, step: u64) -> bool {
        self.reorder > 0.0 && self.draw(SALT_REORDER, phase, step, 0) < self.reorder
    }

    /// Deterministically corrupt one byte of a blob (position and mask are a
    /// function of the message coordinate). Authenticated encryption turns
    /// any single-bit flip into a decryption failure at the receiving TDS.
    pub fn corrupt_blob(&self, blob: &Bytes, phase: Phase, item: u64, attempt: u32) -> Bytes {
        if blob.is_empty() {
            return blob.clone();
        }
        let phase_ix = match phase {
            Phase::Collection => 0u64,
            Phase::Aggregation => 1,
            Phase::Filtering => 2,
            Phase::Discovery => 3,
        };
        let h = splitmix64(
            splitmix64(self.seed ^ SALT_CORRUPT)
                ^ phase_ix
                ^ item.rotate_left(17)
                ^ (attempt as u64).rotate_left(43),
        );
        let pos = (h as usize) % blob.len();
        let mask = 1u8 << (h >> 32 & 7);
        let mut v = blob.to_vec();
        v[pos] ^= mask;
        Bytes::from(v)
    }
}

/// Connectivity parameters for a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Connectivity {
    /// Fraction of the TDS population connected during any given round
    /// (the paper's experiments use 1%, 10% and 100%).
    pub fraction: f64,
    /// Probability that a TDS fails mid-partition and its work must be
    /// reassigned.
    pub dropout: f64,
    /// Deterministic message-level fault schedule (loss, duplication, late
    /// delivery, reordering, corruption).
    pub faults: FaultPlan,
}

impl Connectivity {
    /// Everybody connected, nobody drops (smart-meter platform).
    pub fn always_on() -> Self {
        Self {
            fraction: 1.0,
            dropout: 0.0,
            faults: FaultPlan::none(),
        }
    }

    /// A fraction of the population connected per round.
    pub fn fraction(fraction: f64) -> Self {
        Self {
            fraction,
            dropout: 0.0,
            faults: FaultPlan::none(),
        }
    }

    /// Add a dropout probability.
    pub fn with_dropout(mut self, dropout: f64) -> Self {
        self.dropout = dropout;
        self
    }

    /// Install a message-level fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sample the TDS indices connected this round. At least one TDS is
    /// always returned for a non-empty population (otherwise no protocol
    /// could ever terminate under a tiny fraction).
    ///
    /// Uses Floyd's sampling: O(count) RNG draws instead of shuffling the
    /// whole population every round. Membership lives in a mark array of
    /// one byte per TDS, swept in ascending order, so the result keeps the
    /// contract of ascending, distinct indices at O(population) cost with
    /// no per-member allocation.
    ///
    /// A caller that needs only a few TDSs still ranks the whole population:
    /// drawing fewer would change how much of the run's RNG stream a round
    /// consumes, and with it every later draw of the run.
    pub fn sample_connected<R: Rng>(&self, population: usize, rng: &mut R) -> Vec<usize> {
        if population == 0 {
            return Vec::new();
        }
        let count = ((population as f64 * self.fraction).round() as usize).clamp(1, population);
        let mut chosen = vec![false; population];
        for j in (population - count)..population {
            let t = rng.gen_range(0..j + 1);
            if chosen[t] {
                chosen[j] = true;
            } else {
                chosen[t] = true;
            }
        }
        let mut connected = Vec::with_capacity(count);
        connected.extend((0..population).filter(|&i| chosen[i]));
        connected
    }

    /// Does a TDS drop out while holding a partition?
    pub fn drops<R: Rng>(&self, rng: &mut R) -> bool {
        self.dropout > 0.0 && rng.gen_bool(self.dropout.min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_crypto::rng::SeedableRng;
    use tdsql_crypto::rng::StdRng;

    #[test]
    fn always_on_connects_everyone() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = Connectivity::always_on();
        assert_eq!(
            c.sample_connected(10, &mut rng),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fraction_samples_expected_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = Connectivity::fraction(0.1);
        let connected = c.sample_connected(1000, &mut rng);
        assert_eq!(connected.len(), 100);
        // Distinct and in range.
        let set: std::collections::BTreeSet<_> = connected.iter().collect();
        assert_eq!(set.len(), 100);
        assert!(connected.iter().all(|&i| i < 1000));
    }

    #[test]
    fn at_least_one_connected() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = Connectivity::fraction(0.0001);
        assert_eq!(c.sample_connected(50, &mut rng).len(), 1);
        assert!(c.sample_connected(0, &mut rng).is_empty());
    }

    #[test]
    fn dropout_honours_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let never = Connectivity::always_on();
        assert!((0..100).all(|_| !never.drops(&mut rng)));
        let always = Connectivity::always_on().with_dropout(1.0);
        assert!((0..100).all(|_| always.drops(&mut rng)));
        let half = Connectivity::always_on().with_dropout(0.5);
        let hits = (0..10_000).filter(|_| half.drops(&mut rng)).count();
        assert!((4_000..6_000).contains(&hits), "{hits}");
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let c = Connectivity::fraction(0.13);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for population in [1, 7, 100, 999] {
            assert_eq!(
                c.sample_connected(population, &mut a),
                c.sample_connected(population, &mut b),
                "same seed must yield the same sample (population {population})"
            );
        }
        let mut other = StdRng::seed_from_u64(43);
        assert_ne!(
            c.sample_connected(999, &mut StdRng::seed_from_u64(42)),
            c.sample_connected(999, &mut other),
            "different seeds should (generically) differ"
        );
    }

    #[test]
    fn sample_is_sorted_distinct_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let c = Connectivity::fraction(0.5);
        for population in [1, 2, 3, 10, 64, 257] {
            let s = c.sample_connected(population, &mut rng);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
            assert!(s.iter().all(|&i| i < population));
            let expected = ((population as f64 * 0.5).round() as usize).clamp(1, population);
            assert_eq!(s.len(), expected);
        }
    }

    #[test]
    fn different_rounds_different_samples() {
        let mut rng = StdRng::seed_from_u64(5);
        let c = Connectivity::fraction(0.2);
        let a = c.sample_connected(100, &mut rng);
        let b = c.sample_connected(100, &mut rng);
        assert_ne!(a, b, "rounds should rotate the connected subset");
    }

    /// Floyd's sampling into a `BTreeSet`: the sampler's earlier form, kept
    /// as the reference the mark-array version must reproduce.
    fn sample_connected_btree<R: Rng>(
        c: &Connectivity,
        population: usize,
        rng: &mut R,
    ) -> Vec<usize> {
        if population == 0 {
            return Vec::new();
        }
        let count = ((population as f64 * c.fraction).round() as usize).clamp(1, population);
        let mut chosen = std::collections::BTreeSet::new();
        for j in (population - count)..population {
            let t = rng.gen_range(0..j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }

    #[test]
    fn mark_array_sampler_matches_the_btree_sampler() {
        let populations = [0, 1, 2, 3, 7, 63, 64, 65, 257, 999, 4096];
        let fractions = [1e-4, 0.01, 0.13, 0.5, 0.99, 1.0];
        for population in populations {
            for fraction in fractions {
                let c = Connectivity::fraction(fraction);
                for seed in 0..20u64 {
                    let mut new = StdRng::seed_from_u64(seed);
                    let mut old = StdRng::seed_from_u64(seed);
                    assert_eq!(
                        c.sample_connected(population, &mut new),
                        sample_connected_btree(&c, population, &mut old),
                        "population {population}, fraction {fraction}, seed {seed}"
                    );
                    assert_eq!(
                        new, old,
                        "RNG state after the draw (population {population}, fraction {fraction}, seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_plan_none_is_inert() {
        let plan = FaultPlan::none();
        for item in 0..100 {
            assert!(!plan.lose_upload(Phase::Collection, item, 0));
            assert!(!plan.duplicate_upload(Phase::Aggregation, item, 1));
            assert!(!plan.deliver_late(Phase::Filtering, item, 2));
            assert!(!plan.corrupt_download(Phase::Aggregation, item, 3));
            assert!(!plan.reorder_round(Phase::Aggregation, item));
        }
    }

    #[test]
    fn fault_decisions_are_deterministic_per_coordinate() {
        let plan = FaultPlan::seeded(7).with_loss(0.5).with_duplication(0.5);
        for item in 0..200u64 {
            for attempt in 0..4u32 {
                assert_eq!(
                    plan.lose_upload(Phase::Aggregation, item, attempt),
                    plan.lose_upload(Phase::Aggregation, item, attempt),
                    "same coordinate must roll the same dice"
                );
            }
        }
        // Different attempts re-roll: a retried item is not doomed.
        let stuck =
            (0..200u64).filter(|&i| (0..24u32).all(|a| plan.lose_upload(Phase::Aggregation, i, a)));
        assert_eq!(
            stuck.count(),
            0,
            "p=0.5 over 24 attempts should free every item"
        );
    }

    #[test]
    fn fault_rates_track_probability() {
        let plan = FaultPlan::seeded(11).with_loss(0.3);
        let hits = (0..10_000u64)
            .filter(|&i| plan.lose_upload(Phase::Collection, i, 0))
            .count();
        assert!((2_500..3_500).contains(&hits), "{hits}");
        // Kinds are independent: loss dice say nothing about duplication.
        assert_eq!(
            (0..10_000u64)
                .filter(|&i| plan.duplicate_upload(Phase::Collection, i, 0))
                .count(),
            0,
            "duplication stays off when only loss is configured"
        );
    }

    #[test]
    fn seeds_give_different_schedules() {
        let a = FaultPlan::seeded(1).with_loss(0.5);
        let b = FaultPlan::seeded(2).with_loss(0.5);
        let differ = (0..200u64).any(|i| {
            a.lose_upload(Phase::Aggregation, i, 0) != b.lose_upload(Phase::Aggregation, i, 0)
        });
        assert!(differ, "different seeds must differ somewhere");
    }

    #[test]
    fn corrupt_blob_flips_exactly_one_bit_deterministically() {
        let plan = FaultPlan::seeded(3).with_corruption(1.0);
        let blob = Bytes::copy_from_slice(&[0u8; 64]);
        let a = plan.corrupt_blob(&blob, Phase::Aggregation, 5, 0);
        let b = plan.corrupt_blob(&blob, Phase::Aggregation, 5, 0);
        assert_eq!(a, b, "corruption must replay identically");
        let flipped: u32 = blob
            .iter()
            .zip(a.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit flips");
        // Empty blobs pass through untouched instead of panicking.
        let empty = Bytes::copy_from_slice(&[]);
        assert_eq!(plan.corrupt_blob(&empty, Phase::Collection, 0, 0), empty);
    }

    #[test]
    fn corrupt_blob_never_identity_across_coordinates() {
        // Sweep many message coordinates: corruption must always flip exactly
        // one bit — never zero (an identical blob would slip past the
        // authenticated-decryption check and defeat the injection).
        let plan = FaultPlan::seeded(17).with_corruption(1.0);
        let blob = Bytes::copy_from_slice(&[0xa5u8; 37]);
        for phase in Phase::ALL {
            for item in 0..64u64 {
                for attempt in 0..4u32 {
                    let c = plan.corrupt_blob(&blob, phase, item, attempt);
                    assert_ne!(c, blob, "corruption must never be a no-op");
                    let flipped: u32 = blob
                        .iter()
                        .zip(c.iter())
                        .map(|(x, y)| (x ^ y).count_ones())
                        .sum();
                    assert_eq!(
                        flipped, 1,
                        "exactly one bit flips ({phase} {item} {attempt})"
                    );
                }
            }
        }
    }

    #[test]
    fn discovery_phase_has_independent_fault_coordinates() {
        // The discovery sub-protocol rolls its own dice: its schedule must
        // not simply mirror the collection phase's.
        let plan = FaultPlan::seeded(23).with_loss(0.5);
        let differ = (0..200u64).any(|i| {
            plan.lose_upload(Phase::Discovery, i, 0) != plan.lose_upload(Phase::Collection, i, 0)
        });
        assert!(differ, "discovery must have its own fault coordinates");
    }
}
