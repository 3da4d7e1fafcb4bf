//! The reference task: a fixed piece of work that belongs to the benchmark,
//! not to the program, timed after every query. The box this runs on is a
//! guest on a shared host whose speed changes by a factor of two to four
//! for minutes at a time (README, *The box*); how long the reference task
//! takes at that moment says how fast the box is, and the end-to-end times
//! are reported at the speed of a calm box.

use std::cell::Cell;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::percentile_of;

/// What the task takes on the reference box in a calm quarter of an hour.
/// It anchors the unit (a scaled time is "ms on a calm reference box") and
/// nothing else: parent and change are scaled alike.
pub const NOMINAL_US: f64 = 1_000.0;

/// Group 4 000 keyed values under 701 formatted keys, render every group,
/// sort the rows: hashing, formatting, small allocations and a sort, which
/// is the kind of code the program's hot path is made of (a query of
/// `inproc_cnoise_2k` allocates 1.2 million times). Probes that only
/// compute or only chase pointers hardly notice the neighbour that doubles
/// a query's time; this one follows it best of those tried (README).
pub struct RefTask {
    state: Cell<u64>,
}

impl RefTask {
    pub fn new() -> Self {
        Self {
            state: Cell::new(0x9e37_79b9_7f4a_7c15),
        }
    }

    fn next(&self) -> u64 {
        let mut x = self.state.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state.set(x);
        x
    }

    /// Run the task once; microseconds it took.
    pub fn run(&self) -> f64 {
        let begun = Instant::now();
        let mut groups: HashMap<String, Vec<u64>> = HashMap::new();
        for _ in 0..4_000 {
            let v = self.next();
            groups
                .entry(format!("district-{}", v % 701))
                .or_default()
                .push(v);
        }
        let mut rows: Vec<(String, u64, Vec<u8>)> = groups
            .iter()
            .map(|(key, values)| {
                let sum = values.iter().fold(0u64, |a, v| a.wrapping_add(*v));
                (key.clone(), sum, format!("{values:?}").into_bytes())
            })
            .collect();
        rows.sort();
        let digest = rows.iter().fold(0u64, |h, (key, sum, text)| {
            h.wrapping_mul(31)
                .wrapping_add(key.len() as u64 + sum + text.len() as u64)
        });
        black_box(digest);
        begun.elapsed().as_secs_f64() * 1e6
    }
}

/// What a time measured while the reference task read `ref_us` is
/// multiplied by: `NOMINAL_US` ÷ the median reading. `None` without one.
pub fn speed_factor(ref_us: &[f64]) -> Option<f64> {
    percentile_of(ref_us, 0.5).map(|reading| NOMINAL_US / reading)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_calm_box_is_not_scaled_and_a_slow_one_is_scaled_down() {
        assert_eq!(speed_factor(&[NOMINAL_US; 3]), Some(1.0));
        assert_eq!(
            speed_factor(&[3.0 * NOMINAL_US, 2.0 * NOMINAL_US, NOMINAL_US]),
            Some(0.5)
        );
        assert_eq!(speed_factor(&[]), None);
    }

    #[test]
    fn the_task_does_the_same_work_every_time() {
        let task = RefTask::new();
        assert!(task.run() > 0.0);
        let again = RefTask::new();
        again.run();
        assert_eq!(task.state, again.state);
    }
}
