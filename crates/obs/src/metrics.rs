//! Monotonic counters and fixed-log2-bucket histograms.
//!
//! The histogram layout is fixed (32 power-of-two buckets) so merged sets
//! from different runs always line up, and recording is allocation-free
//! once a name has been seen (the first record under a name stores it).
//! Units are the caller's choice: the threaded runtime records wall-clock
//! microseconds, the round and DES backends record virtual time (rounds,
//! simulated milliseconds) and byte volumes.

use std::collections::BTreeMap;

/// A histogram over `[2^i, 2^(i+1))` buckets, `i = 0..32`.
///
/// Values of 0 and 1 land in bucket 0; anything at or above `2^31` lands in
/// the last bucket. Alongside the buckets it keeps exact `count`, `sum` and
/// `max`, so averages stay precise even though the distribution is bucketed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    /// Observation counts per power-of-two bucket.
    pub buckets: [u64; 32],
    /// Total number of observations.
    pub count: u64,
    /// Exact sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; 32],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = if value <= 1 {
            0
        } else {
            (63 - value.leading_zeros() as usize).min(31)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Mean of all observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// A named set of counters and histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSet {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Log2Histogram>,
}

impl MetricsSet {
    /// Fresh, empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to the named monotonic counter.
    pub fn inc(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Record one observation in the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => self
                .histograms
                .entry(name.to_string())
                .or_default()
                .record(value),
        }
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if anything was observed.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Log2Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// No counters and no histograms recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Fold another set into this one (matching names merge).
    pub fn merge(&mut self, other: &MetricsSet) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Stable multi-line text summary (one line per metric, name order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name}: count={} sum={} max={} mean={:.1}\n",
                h.count,
                h.sum,
                h.max,
                h.mean()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Log2Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        h.record(u64::MAX);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 2); // 2 and 3
        assert_eq!(h.buckets[10], 1); // 1024
        assert_eq!(h.buckets[31], 1); // saturates in the last bucket
        assert_eq!(h.count, 6);
        assert_eq!(h.max, u64::MAX);
    }

    #[test]
    fn histogram_merge_adds_everything() {
        let mut a = Log2Histogram::default();
        a.record(4);
        let mut b = Log2Histogram::default();
        b.record(8);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 112);
        assert_eq!(a.max, 100);
    }

    #[test]
    fn metrics_set_counters_and_merge() {
        let mut m = MetricsSet::new();
        m.inc("rounds", 3);
        m.inc("rounds", 2);
        m.observe("lat", 10);
        assert_eq!(m.counter("rounds"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.histogram("lat").unwrap().count, 1);

        let mut other = MetricsSet::new();
        other.inc("rounds", 1);
        other.observe("lat", 20);
        m.merge(&other);
        assert_eq!(m.counter("rounds"), 6);
        assert_eq!(m.histogram("lat").unwrap().count, 2);
        assert!(!m.is_empty());
        assert!(m.render().contains("counter rounds = 6"));
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Log2Histogram::default().mean(), 0.0);
    }
}
