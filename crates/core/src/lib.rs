//! # tdsql-core — privacy-preserving decentralized query execution
//!
//! Reproduction of the querying protocols of *"Privacy-Preserving Query
//! Execution using a Decentralized Architecture and Tamper Resistant
//! Hardware"* (To, Nguyen, Pucheral — EDBT 2014).
//!
//! The architecture is **asymmetric**: a very large number of low-power but
//! trusted [`tds::Tds`] (Trusted Data Servers) cooperate through a powerful
//! but **untrusted**, honest-but-curious [`ssi::Ssi`] (Supporting Server
//! Infrastructure). A [`querier::Querier`] posts SQL queries and receives
//! only the final result; the SSI stores only ciphertexts and the few
//! cleartext crumbs each protocol deliberately reveals.
//!
//! Four protocols execute the dialect's queries. Each is compiled to a
//! [`plan::PhasePlan`] that the runtimes interpret:
//!
//! | Protocol | Queries | SSI sees | Defense |
//! |---|---|---|---|
//! | `Basic` | Select-From-Where | nDet ciphertexts | dummy tuples |
//! | `S_Agg` | Group By | nDet ciphertexts | nothing to attack |
//! | `Rnf_Noise` / `C_Noise` | Group By | Det tags | fake tuples |
//! | `ED_Hist` | Group By | hashed buckets | equi-depth flattening |
//!
//! # Quickstart
//!
//! ```
//! use tdsql_core::access::AccessPolicy;
//! use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
//! use tdsql_core::runtime::SimBuilder;
//! use tdsql_core::workload::{smart_meters, SmartMeterConfig};
//! use tdsql_crypto::credential::Role;
//! use tdsql_sql::parser::parse_query;
//!
//! let (dbs, _oracle) = smart_meters(&SmartMeterConfig::default());
//! let mut world = SimBuilder::new().build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
//! let querier = world.make_querier("energy-co", "supplier");
//! let query = parse_query(
//!     "SELECT c.district, AVG(p.cons) FROM power p, consumer c \
//!      WHERE c.cid = p.cid GROUP BY c.district",
//! ).unwrap();
//! let rows = world
//!     .run_query(&querier, &query, ProtocolParams::new(ProtocolKind::SAgg))
//!     .unwrap();
//! assert!(!rows.is_empty());
//! ```

#![warn(missing_docs)]
pub mod access;
pub mod adversary;
pub mod arena;
pub mod bytes;
pub mod codec;
pub mod connectivity;
pub mod error;
pub mod explain;
pub mod histogram;
pub mod leakage;
pub mod message;
pub mod partition;
pub mod plan;
pub mod protocol;
pub mod querier;
pub mod runtime;
pub mod service;
pub mod ssi;
pub mod stats;
pub mod tds;
pub mod tuple_codec;
pub mod workload;

pub use connectivity::{Connectivity, FaultPlan};
pub use error::{ProtocolError, Result};
pub use message::{AssignmentId, DeliveryOutcome};
pub use protocol::{ProtocolKind, ProtocolParams};
pub use runtime::batch::BatchingPool;
pub use runtime::mixed::{run_mixed, MixedOptions, MixedOutcome, MixedQuery, MixedReport};
pub use runtime::service::{DriverConfig, ServiceDriver};
pub use runtime::{SimBuilder, SimWorld};
pub use service::{LocalTdsPool, MultiStepPart, SsiService, StepResult, TdsPool, TdsStep};
pub use ssi::sched::{DiscoveryCache, SchedConfig, Scheduler};
pub use stats::FaultStats;
