//! Leakage-safe observability for the tdsql stack.
//!
//! Trace output is itself a leakage channel: the honest-but-curious SSI
//! operator reads logs too, so anything a trace emits must be bounded by the
//! same exposure contract that governs the protocol messages themselves.
//! This crate makes redaction a property of the type system rather than of
//! reviewer discipline:
//!
//! * [`Field`] values are either **public** (counts, phase names, byte
//!   totals — things the SSI computes on its own anyway) or **sensitive**.
//!   A sensitive field can only be built through a [`Redactor`], which
//!   immediately replaces the plaintext with a keyed SHA-256 digest; no
//!   constructor stores sensitive plaintext, so no sink can leak it.
//! * [`MetricsSet`] holds monotonic counters and fixed-log2-bucket
//!   [`Log2Histogram`]s — admission queue depths in the scheduler, for
//!   example.
//! * [`Obs`] is a bounded ring-buffer collector with a deterministic JSONL
//!   exporter and a console sink gated by the `TDSQL_LOG` environment
//!   variable.
//!
//! The crate is hermetic: its only dependency is `tdsql-crypto` (for the
//! keyed digest), and nothing here reads the wall clock — timestamps enter
//! metrics from the caller, never trace events, so traces replay
//! byte-identically under a fixed seed.

#![warn(missing_docs)]

pub mod field;
pub mod metrics;
pub mod trace;

pub use field::{Field, FieldClass, FieldValue, Redactor};
pub use metrics::{Log2Histogram, MetricsSet};
pub use trace::{Event, Obs};
