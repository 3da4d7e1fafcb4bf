//! The distributed querying protocols.
//!
//! A protocol is named by a [`ProtocolKind`] and tuned by [`ProtocolParams`];
//! its dataflow is described by a compiled [`crate::plan::PhasePlan`], which
//! the driver ([`crate::runtime::service`], behind [`crate::runtime::round`])
//! interprets. The paper's protocols map onto plans as:
//!
//! * **Basic** — Select-From-Where (Section 3.2): collect untagged, no
//!   reduction, filter rows in random partitions;
//! * **S_Agg** — secure aggregation (Section 4.2): iterative random
//!   partitioning down to a single batch;
//! * **Rnf_Noise / C_Noise** — deterministic grouping tags hidden under fake
//!   tuples (Section 4.3): per-tag reduction to singletons;
//! * **ED_Hist** — equi-depth histogram buckets (Section 4.4): keyed-hash
//!   bucket tags at collection, per-tag reduction;
//! * [`discovery`] — the domain/distribution discovery sub-protocol that
//!   `C_Noise` and `ED_Hist` bootstrap from.

pub mod discovery;

use std::sync::Arc;

use tdsql_sql::value::GroupKey;

use crate::histogram::Histogram;

/// Which querying protocol executes a posted query. This is public
/// information: the SSI must know the dataflow recipe (how to partition),
/// and learning the recipe reveals nothing about the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Select-From-Where (no aggregation).
    Basic,
    /// Secure aggregation: nDet everywhere, iterative random partitions.
    SAgg,
    /// Random white noise: `nf` fake tuples per true tuple.
    RnfNoise {
        /// Fake tuples per true tuple.
        nf: u32,
    },
    /// Controlled noise over the complementary domain (nd − 1 fakes).
    CNoise,
    /// Equi-depth histogram buckets.
    EdHist {
        /// Number of buckets to build from the discovered distribution.
        buckets: u32,
    },
}

impl ProtocolKind {
    /// Short display name used in reports and benchmarks.
    pub fn name(&self) -> String {
        match self {
            ProtocolKind::Basic => "Basic".into(),
            ProtocolKind::SAgg => "S_Agg".into(),
            ProtocolKind::RnfNoise { nf } => format!("R{nf}_Noise"),
            ProtocolKind::CNoise => "C_Noise".into(),
            ProtocolKind::EdHist { .. } => "ED_Hist".into(),
        }
    }

    /// Does the protocol need the grouping-attribute domain / distribution
    /// to be discovered before collection?
    pub fn needs_discovery(&self) -> bool {
        matches!(
            self,
            ProtocolKind::RnfNoise { .. } | ProtocolKind::CNoise | ProtocolKind::EdHist { .. }
        )
    }
}

/// Tunable parameters of a protocol run. The defaults mirror the paper's
/// experimental section where applicable.
///
/// The discovery payload (`noise_domain`, `histogram`) is immutable once
/// discovered and sits behind [`Arc`], so cloning the parameters — which the
/// pool does once per step to hand them to the TDS — copies a few words
/// whatever the domain size.
#[derive(Debug, Clone)]
pub struct ProtocolParams {
    /// Protocol to run.
    pub kind: ProtocolKind,
    /// Pad length for collection payloads (the paper's tuple size `st` is
    /// 16 bytes of payload; our encodings carry keys and flags, so the
    /// default is a roomier 64).
    ///
    /// **Security note**: a payload longer than `pad` would be
    /// distinguishable by size, so encoding refuses it with
    /// [`crate::error::ProtocolError::PadTooSmall`] and the query fails.
    /// Choose `pad` at least as large as the biggest encoded tuple of the
    /// query (long string grouping values are the usual reason to raise
    /// it) — the size-uniformity tests in `tests/security_properties.rs`
    /// check this.
    pub pad: usize,
    /// Tuples per partition in the first aggregation step.
    pub chunk: usize,
    /// Reduction factor: partial batches merged per partition in later
    /// iterations (the paper's α, optimal ≈ 3.6 → default 4).
    pub alpha: usize,
    /// Discovered grouping-attribute domain (noise protocols); filled by the
    /// discovery sub-protocol, conceptually distributed under `k2`.
    pub noise_domain: Arc<[GroupKey]>,
    /// Shared equi-depth histogram (ED_Hist); filled by discovery.
    pub histogram: Option<Arc<Histogram>>,
}

impl ProtocolParams {
    /// Defaults for a protocol kind.
    pub fn new(kind: ProtocolKind) -> Self {
        Self {
            kind,
            pad: 64,
            chunk: 256,
            alpha: 4,
            noise_domain: Arc::default(),
            histogram: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(ProtocolKind::SAgg.name(), "S_Agg");
        assert_eq!(ProtocolKind::RnfNoise { nf: 1000 }.name(), "R1000_Noise");
        assert_eq!(ProtocolKind::EdHist { buckets: 10 }.name(), "ED_Hist");
    }

    #[test]
    fn discovery_requirements() {
        assert!(!ProtocolKind::Basic.needs_discovery());
        assert!(!ProtocolKind::SAgg.needs_discovery());
        assert!(ProtocolKind::CNoise.needs_discovery());
        assert!(ProtocolKind::RnfNoise { nf: 2 }.needs_discovery());
        assert!(ProtocolKind::EdHist { buckets: 4 }.needs_discovery());
    }
}
