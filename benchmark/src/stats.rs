//! Percentiles and the count/time aggregators the decorators feed.

use std::sync::atomic::{AtomicU64, Ordering};

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`); `None`
/// for an empty one: no sample is no reading, not a reading of 0.
fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

/// Nearest-rank percentile of `samples`, in any order.
pub fn percentile_of(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// `num / den`, `None` when nothing was counted: a metric of a layer the
/// workload never enters does not apply, it is not 0.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Calls and nanoseconds of one class of calls. Relaxed atomics: these are
/// statistics read after the worker threads have been joined.
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Tally {
    pub fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn us_per_call(&self) -> Option<f64> {
        ratio(self.ns() as f64 / 1e3, self.calls() as f64)
    }
}

/// A plain event counter (tuples, errors).
#[derive(Debug, Default)]
pub struct Count(AtomicU64);

impl Count {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(5.0));
        assert_eq!(percentile(&v, 0.90), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[7.5], 0.5), Some(7.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_of_takes_samples_in_any_order() {
        assert_eq!(percentile_of(&[9.0, 1.0, 5.0], 0.5), Some(5.0));
        assert_eq!(percentile_of(&[9.0, 1.0, 5.0, 7.0], 0.9), Some(9.0));
        assert_eq!(percentile_of(&[], 0.5), None);
    }

    #[test]
    fn tally_aggregates_calls_and_time() {
        let t = Tally::default();
        assert_eq!(t.us_per_call(), None);
        t.add(1_500);
        t.add(2_500);
        assert_eq!(t.calls(), 2);
        assert_eq!(t.ns(), 4_000);
        assert_eq!(t.us_per_call(), Some(2.0));
    }

    #[test]
    fn tally_is_shared_across_threads() {
        let t = Tally::default();
        let c = Count::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        t.add(10);
                        c.add(2);
                    }
                });
            }
        });
        assert_eq!(t.calls(), 4000);
        assert_eq!(t.ns(), 40_000);
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn ratio_of_nothing_is_no_reading() {
        assert_eq!(ratio(5.0, 0.0), None);
        assert_eq!(ratio(6.0, 3.0), Some(2.0));
    }
}
