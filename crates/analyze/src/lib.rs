//! # tdsql-analyze — static leakage analysis for query plans
//!
//! The protocols of the paper are each defined by what they *refuse* to show
//! the untrusted SSI. This crate makes that refusal checkable before a
//! single ciphertext moves:
//!
//! * [`verify`] judges the compiled [`tdsql_core::plan::PhasePlan`] — the
//!   same IR every runtime interprets — and is the only thing that does: the
//!   plan's shape is executable, every padded emission is constant-size,
//!   every reachable tag form is declared, and the settle ledger accepts
//!   each work item exactly once;
//! * [`profile`] diffs a runtime SSI observation log against the same
//!   declaration and reports each undeclared tag form as the
//!   [`verify::exposure::ExposureTrace`] the static pass would have given;
//! * [`lint`] is the source-level companion (`srclint` binary): panic
//!   freedom in protocol hot paths, constant-time MAC comparison, no Debug
//!   on raw keys, no RNG in deterministic primitives.
//!
//! The contract is stated once, in
//! [`tdsql_core::leakage::ExposureDeclaration`]: one declaration, one proof
//! over the plan, and the runtime log checked against the same declaration
//! (here by [`profile`], inside the SSI by its debug assertions).

pub mod lattice;
pub mod lint;
pub mod profile;
pub mod verify;

use tdsql_core::protocol::ProtocolParams;
use tdsql_sql::ast::Query;

/// [`tdsql_core::explain::explain`] plus the static verifier's verdict:
/// renders the execution plan, then one line per [`verify`] pass and the
/// overall verdict. The check never blocks — the caller decides what to do
/// with a refuted plan — but the rendered text makes it impossible to miss.
pub fn explain_checked(query: &Query, params: &ProtocolParams) -> String {
    let mut out = tdsql_core::explain::explain(query, params);
    let v = verify::verify(query, params);
    out.push_str("static verification:\n");
    out.push_str(&format!(
        "  shape:      {}\n",
        v.shape.as_deref().unwrap_or("executable")
    ));
    out.push_str(&format!(
        "  sizes:      {}\n",
        if v.sizes.proven() {
            "constant-size ciphertext envelopes (padded phases)".to_string()
        } else {
            v.sizes.findings[0].render()
        }
    ));
    out.push_str(&format!(
        "  exposure:   {}\n",
        if v.exposure.proven() {
            "reachable tag forms ⊆ declaration".to_string()
        } else {
            v.exposure.violations[0].render()
        }
    ));
    out.push_str(&format!(
        "  settlement: {}\n",
        if v.settle.proven() {
            format!("exactly-once over {} explored states", v.settle.states)
        } else {
            "VIOLATED — see verify report".to_string()
        }
    ));
    out.push_str(&format!(
        "  verdict:    {}\n",
        if v.verified() { "verified" } else { "REFUTED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_core::protocol::ProtocolKind;
    use tdsql_sql::parser::parse_query;

    fn agg_query() -> Query {
        parse_query("SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district SIZE 100")
            .unwrap()
    }

    #[test]
    fn explain_checked_reports_clean_plans() {
        let text = explain_checked(&agg_query(), &ProtocolParams::new(ProtocolKind::SAgg));
        assert!(text.contains("shape:      executable"), "{text}");
        assert!(text.contains("verdict:    verified"), "{text}");
    }

    #[test]
    fn explain_checked_reports_violations() {
        let text = explain_checked(&agg_query(), &ProtocolParams::new(ProtocolKind::Basic));
        assert!(text.contains("shape:      basic-aggregate"), "{text}");
        assert!(text.contains("verdict:    REFUTED"), "{text}");
    }

    #[test]
    fn explain_checked_keeps_advisories_non_fatal() {
        // The discovery sub-query is announced by the rendered plan; it is
        // part of the protocol, not a finding.
        let text = explain_checked(&agg_query(), &ProtocolParams::new(ProtocolKind::CNoise));
        assert!(text.contains("via k2-sealed S_Agg sub-query"), "{text}");
        assert!(text.contains("verdict:    verified"), "{text}");
    }
}
