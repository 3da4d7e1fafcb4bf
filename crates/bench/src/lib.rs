//! Benchmark crate: the figure regeneration harness lives in
//! `src/bin/figures.rs`, the wall-clock sweep in `src/bin/bench_report.rs`,
//! and [`simtime`] is the one virtual clock: it turns a driver run's
//! measured statistics into time on the paper's secure-token hardware
//! profile.

#![warn(missing_docs)]

pub mod simtime;
