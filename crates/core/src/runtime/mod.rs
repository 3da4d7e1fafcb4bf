//! Protocol runtimes.
//!
//! * [`service`] — the one sequential plan interpreter:
//!   [`service::ServiceDriver`] executes a compiled plan over the
//!   [`crate::service`] seam, in process or against the `tdsql-net` framed
//!   TCP servers;
//! * [`round`] — the deterministic, seeded simulation world used by tests,
//!   examples and benchmarks: [`SimWorld`] provisions a deployment in one
//!   process and runs its queries through the driver above;
//! * [`threaded`] — a concurrent runtime where every TDS is a worker thread
//!   and the SSI is shared state, demonstrating that the protocol logic is
//!   runtime-agnostic;
//! * [`mixed`] — the multi-query runner: N concurrent queryboxes over a
//!   shared deployment, behind the [`crate::ssi::sched`] admission layer;
//! * [`backoff`] — the workspace's only sanctioned delay primitive:
//!   seeded-jitter exponential backoff (srclint bans bare `thread::sleep`).

pub mod backoff;
pub mod mixed;
pub mod round;
pub mod service;
pub mod threaded;

pub use round::{SimBuilder, SimWorld};
