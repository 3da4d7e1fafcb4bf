//! Negative verification tests: seed each class of defect the static
//! verifier exists to catch and assert the counterexample is precise —
//! naming the offending phase, tag form or ledger transition — and stable,
//! mirroring the golden negative snapshots in `leakage_profiles.rs`.
//!
//! Three defect classes, one per pass:
//!
//! * a **mis-padded plan** (pad smaller than the provable plaintext upper
//!   bound) must produce a `pad-too-small` finding naming the phase and the
//!   widest field;
//! * an **undeclared tag form** (a plan mutated to emit Det tags under
//!   S_Agg's nDet-only declaration) must produce a lattice-typed trace
//!   naming the phase, the form, its leakage label and the plan origin;
//! * a **ledger mutation that double-accepts** (the `(Issued, Done)` row
//!   flipped to `Accepted`+merge) must produce an interleaving trace ending
//!   in an "accepted twice" violation naming that transition.

use tdsql_analyze::verify::settle::{check_tables, ModelConfig};
use tdsql_analyze::verify::sizes::Bound;
use tdsql_analyze::verify::{report, verify, verify_plan};
use tdsql_core::leakage::TagForm;
use tdsql_core::plan::{PhasePlan, TagPolicy};
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::ssi::{
    ItemState, SettleTransition, SettleVerdict, SlotState, SETTLE_TRANSITIONS, WINDOW_GUARDS,
};
use tdsql_core::stats::Phase;
use tdsql_sql::parser::parse_query;

const AGG_SQL: &str = "SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district";

#[test]
fn mis_padded_plan_names_the_phase_and_field() {
    let query = parse_query(AGG_SQL).unwrap();
    let mut params = ProtocolParams::new(ProtocolKind::SAgg);
    params.pad = 16;
    let v = verify(&query, &params);

    assert!(!v.sizes.proven());
    assert!(!v.verified());
    let f = &v.sizes.findings[0];
    assert_eq!(f.phase, Phase::Collection);
    assert_eq!(f.pad, 16);
    assert!(
        matches!(f.needed, Bound::Finite(n) if n > 16),
        "needed must exceed the pad: {:?}",
        f.needed
    );
    let line = f.render();
    assert!(line.starts_with("pad-too-small [collection]:"), "{line}");
    assert!(line.contains("> pad 16"), "{line}");
    // The widest contributor is named, so the fix is obvious.
    assert!(
        line.contains("group key") || line.contains("aggregate inputs"),
        "{line}"
    );

    // The machine-readable report carries the same counterexample.
    let r = report::render(&v, AGG_SQL);
    assert!(r.contains("\"verdict\": \"REFUTED\""), "{r}");
    assert!(r.contains("\"verdict\": \"length-leak\""), "{r}");
    assert!(r.contains("\"wire\": \"LEAKY\""), "{r}");
    assert!(r.contains("pad-too-small [collection]"), "{r}");
}

#[test]
fn undeclared_tag_form_yields_a_lattice_typed_trace() {
    let query = parse_query(AGG_SQL).unwrap();
    let params = ProtocolParams::new(ProtocolKind::SAgg);
    let mut plan = PhasePlan::compile(&query, &params);
    // S_Agg's whole point is nDet-only collection; leak Det grouping tags.
    plan.collect.tag_policy = TagPolicy::DetPerGroup;
    let v = verify_plan(&plan, &query);

    assert!(!v.exposure.proven());
    assert!(!v.verified());
    let t = &v.exposure.violations[0];
    assert_eq!(t.phase, Phase::Collection);
    assert_eq!(t.form, TagForm::Det);
    assert_eq!(t.origin, "collect.tag_policy");
    assert_eq!(t.declared, vec![TagForm::None]);
    let line = t.render();
    assert!(
        line.starts_with("undeclared-exposure [collection]:"),
        "{line}"
    );
    assert!(line.contains("emits Det tags"), "{line}");
    assert!(line.contains("(label Det_Enc)"), "{line}");
    assert!(line.contains("declaration allows [None]"), "{line}");

    let r = report::render(&v, AGG_SQL);
    assert!(r.contains("\"verdict\": \"REFUTED\""), "{r}");
    assert!(r.contains("\"verdict\": \"undeclared-exposure\""), "{r}");
    assert!(r.contains("undeclared-exposure [collection]"), "{r}");
}

/// Mutate one row of the exported transition table and return the copy.
fn mutated_table(
    pre: (SlotState, ItemState),
    patch: impl Fn(&mut SettleTransition),
) -> Vec<SettleTransition> {
    let mut rows: Vec<SettleTransition> = SETTLE_TRANSITIONS.to_vec();
    let row = rows
        .iter_mut()
        .find(|t| (t.slot, t.item) == pre)
        .expect("row exists");
    patch(row);
    rows
}

#[test]
fn double_accepting_ledger_yields_an_interleaving_trace() {
    // A late delivery on a reassigned (already-done) item must not merge;
    // flipping that row to Accepted is the classic double-count bug.
    let rows = mutated_table((SlotState::Issued, ItemState::Done), |t| {
        t.verdict = SettleVerdict::Accepted;
        t.merges = true;
    });
    let report = check_tables(&ModelConfig::default(), &rows, WINDOW_GUARDS);

    assert!(!report.proven());
    let cx = report
        .violation
        .clone()
        .expect("model checker finds the violation");
    assert!(cx.violation.contains("accepted twice"), "{}", cx.violation);
    assert!(cx.violation.contains("(Issued, Done)"), "{}", cx.violation);
    assert!(
        !cx.trace.is_empty(),
        "counterexample must carry the interleaving"
    );

    // Splice the refuted pass into a report: the rendered JSON names the
    // violated invariant and carries the trace.
    let query = parse_query(AGG_SQL).unwrap();
    let params = ProtocolParams::new(ProtocolKind::SAgg);
    let mut v = verify(&query, &params);
    v.settle = report;
    assert!(!v.verified());
    let r = tdsql_analyze::verify::report::render(&v, AGG_SQL);
    assert!(r.contains("\"verdict\": \"violated\""), "{r}");
    assert!(r.contains("\"counterexample\""), "{r}");
    assert!(r.contains("accepted twice"), "{r}");
}

#[test]
fn merging_non_accepted_verdict_is_refuted() {
    // merges == (verdict == Accepted) is itself checked: a row that merges
    // on LateAfterReassign is caught even before a double-accept manifests.
    let rows = mutated_table((SlotState::Issued, ItemState::Done), |t| {
        t.merges = true;
    });
    let report = check_tables(&ModelConfig::default(), &rows, WINDOW_GUARDS);
    assert!(!report.proven());
    let cx = report.violation.expect("violation found");
    assert!(
        cx.violation.contains("LateAfterReassign"),
        "{}",
        cx.violation
    );
}

#[test]
fn the_unmutated_tables_still_prove_exactly_once() {
    // Guard the guards: the negative tests above prove the checker *can*
    // refute; this proves the shipped tables don't trip it.
    let report = check_tables(&ModelConfig::default(), SETTLE_TRANSITIONS, WINDOW_GUARDS);
    assert!(report.proven(), "{:?}", report.violation);
    assert!(report.unreachable_confirmed);
}
