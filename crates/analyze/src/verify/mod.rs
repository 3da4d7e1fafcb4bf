//! `tdsql-analyze::verify` — the whole-plan static verifier.
//!
//! The paper's security argument rests on three invariants. The runtime
//! enforces each with guards and the chaos suite samples each with seeded
//! sweeps; this module *proves* them over the compiled [`PhasePlan`] IR,
//! before any ciphertext moves, once [`shape`] has established that the
//! plan can run at all:
//!
//! * [`sizes`] — **size abstraction**: an abstract interpretation over every
//!   emission of the plan, computing per-phase plaintext-size intervals from
//!   the tuple-codec framing constants and proving each padded emission is a
//!   constant-size ciphertext envelope (or naming the phase and field that
//!   can leak length — the `PadTooSmall` class, caught statically);
//! * [`exposure`] — **exposure soundness**: the set of tag forms reachable
//!   in the plan (including the discovery sub-plan) must be a subset of the
//!   protocol's [`ExposureDeclaration`], with a lattice-typed counterexample
//!   trace when it is not;
//! * [`settle`] — **settle model checker**: a bounded, memoized DFS over the
//!   settle-ledger state machine exported by `tdsql_core::ssi`
//!   ([`SETTLE_TRANSITIONS`](tdsql_core::ssi::SETTLE_TRANSITIONS) ×
//!   [`WINDOW_GUARDS`](tdsql_core::ssi::WINDOW_GUARDS)), proving
//!   exactly-one-`Accepted` per work item and no double-count via
//!   `LateAfterReassign` across *every* delivery/reassign/close
//!   interleaving within the bound — the static counterpart of the chaos
//!   suite.
//!
//! [`report`] renders the verdicts as a stable, machine-readable
//! report per protocol (`results/verify/*.json`, regenerated and checked by
//! the `verify` bin and CI).
//!
//! ## Soundness caveats
//!
//! * The size pass is sound relative to its [`sizes::WidthModel`]: string
//!   values wider than the modelled maximum raise the computed upper bound
//!   above the pad and are *reported*, not missed — but a deployment that
//!   pads for wider strings must widen the model to match.
//! * The settle pass is bounded: it proves the invariant for every
//!   interleaving within [`settle::ModelConfig`]'s item/assignment/delivery
//!   budget. The ledger is lock-striped per assignment and per item with no
//!   cross-item coupling, so the small bound covers the interesting
//!   interactions (duplicate, reassign, late, close races).
//! * Unpadded emissions (partial-aggregate batches, result rows) are
//!   *declared* exemptions, not oversights: their sizes depend only on
//!   group counts the SSI already learns from partitioning — the report
//!   records them as `declared-variable` rather than `constant`.
//!
//! [`PhasePlan`]: tdsql_core::plan::PhasePlan
//! [`ExposureDeclaration`]: tdsql_core::leakage::ExposureDeclaration

pub mod exposure;
pub mod report;
pub mod settle;
pub mod sizes;

use tdsql_core::plan::PhasePlan;
use tdsql_core::protocol::ProtocolParams;
use tdsql_sql::ast::Query;

/// Stable lowercase phase names used across findings and reports.
pub(crate) fn phase_name(phase: tdsql_core::stats::Phase) -> &'static str {
    match phase {
        tdsql_core::stats::Phase::Discovery => "discovery",
        tdsql_core::stats::Phase::Collection => "collection",
        tdsql_core::stats::Phase::Aggregation => "aggregation",
        tdsql_core::stats::Phase::Filtering => "filtering",
    }
}

/// The shape check and the three pass results for one protocol, plus the
/// overall verdict.
#[derive(Debug, Clone)]
pub struct Verification {
    /// The compiled plan the passes ran over.
    pub plan: PhasePlan,
    /// Why the plan cannot execute (see [`shape`]); `None` when it can.
    pub shape: Option<String>,
    /// Pass 1: per-phase size intervals and the constant-size verdict.
    pub sizes: sizes::SizeReport,
    /// Pass 2: reachable tag forms vs. the declaration.
    pub exposure: exposure::ExposureReport,
    /// Pass 3: the settle-ledger model-checking result.
    pub settle: settle::SettleReport,
}

impl Verification {
    /// Is the plan executable, and did all three passes prove their
    /// invariant?
    pub fn verified(&self) -> bool {
        self.shape.is_none()
            && self.sizes.proven()
            && self.exposure.proven()
            && self.settle.proven()
    }
}

/// Refute a plan no runtime can execute: an aggregate query compiled
/// without a reduce step. Only Basic compiles that way, and its TDSs refuse
/// to collect for an aggregate query, so the run would fail at the first
/// contact; this names the failure before any ciphertext moves.
pub fn shape(plan: &PhasePlan) -> Option<String> {
    (plan.aggregate && plan.reduce.is_none()).then(|| {
        format!(
            "basic-aggregate: {} has no reduce step, so it cannot execute an \
             aggregate query; pick S_Agg, a noise protocol or ED_Hist",
            plan.kind.name()
        )
    })
}

/// Run the shape check and all three passes over one query + protocol
/// configuration.
///
/// The settle pass is plan-independent (it checks the ledger tables the
/// runtime itself executes) but is run per verification so every report
/// carries the full verdict.
pub fn verify(query: &Query, params: &ProtocolParams) -> Verification {
    verify_plan(&PhasePlan::compile(query, params), query)
}

/// Verify an already-compiled plan (the entry point the negative tests use
/// with hand-mutated plans).
pub fn verify_plan(plan: &PhasePlan, query: &Query) -> Verification {
    Verification {
        plan: plan.clone(),
        shape: shape(plan),
        sizes: sizes::check_plan(plan, query, &sizes::WidthModel::default()),
        exposure: exposure::check_plan(plan, query),
        settle: settle::check_ledger(&settle::ModelConfig::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_core::protocol::ProtocolKind;
    use tdsql_sql::parser::parse_query;

    fn agg_query() -> Query {
        parse_query("SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district").unwrap()
    }

    #[test]
    fn shape_refutes_basic_aggregates() {
        let basic = ProtocolParams::new(ProtocolKind::Basic);
        let v = verify(&agg_query(), &basic);
        let finding = v.shape.as_deref().expect("Basic cannot aggregate");
        assert!(finding.starts_with("basic-aggregate:"), "{finding}");
        assert!(!v.verified());
        // The other passes still run and still hold: only the shape fails.
        assert!(v.sizes.proven() && v.exposure.proven() && v.settle.proven());

        // The same protocol runs a Select-From-Where query.
        let sfw = parse_query("SELECT pid FROM health WHERE age > 80").unwrap();
        assert_eq!(shape(&PhasePlan::compile(&sfw, &basic)), None);
    }
}
