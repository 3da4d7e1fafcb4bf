//! Pass 2 — exposure soundness.
//!
//! The SSI's runtime receive paths debug-assert that every observed tag form
//! was declared for the posting protocol. This pass makes that guard fully
//! static: every tag form reachable in the compiled plan — the collection
//! tag policy, the reduce retag mode, the always-untagged finalize, and the
//! whole discovery sub-plan (an S_Agg run of its own) — must be a subset of
//! the protocol's [`ExposureDeclaration`]. A form outside the declaration
//! yields a lattice-typed counterexample trace: which plan field produces
//! the tag, what [`Leakage`] label it crosses the trust boundary with, and
//! the path it travels to the SSI.

use tdsql_core::leakage::{ExposureDeclaration, TagForm};
use tdsql_core::plan::PhasePlan;
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::stats::Phase;
use tdsql_core::tds::ResultDest;
use tdsql_sql::ast::Query;

use super::phase_name;
use crate::lattice::Leakage;

/// One reachable (phase, form) pair and whether the declaration covers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckedExposure {
    /// The phase the form appears in.
    pub phase: Phase,
    /// The reachable tag form.
    pub form: TagForm,
    /// Which plan field produces it.
    pub origin: &'static str,
    /// Is the form declared for the phase?
    pub declared: bool,
}

/// A counterexample: an undeclared tag form, with its lattice label and the
/// path it takes to the SSI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExposureTrace {
    /// The offending phase.
    pub phase: Phase,
    /// The undeclared form.
    pub form: TagForm,
    /// The leakage label the form hands the SSI ([`Leakage::NDetEnc`] for
    /// `TagForm::None`, which exposes nothing beyond the payload).
    pub label: Leakage,
    /// The plan field that produces the tag.
    pub origin: &'static str,
    /// What the declaration allows for the phase instead.
    pub declared: Vec<TagForm>,
}

impl ExposureTrace {
    /// Stable one-line rendering (golden negative snapshots match this).
    pub fn render(&self) -> String {
        format!(
            "undeclared-exposure [{}]: {} emits {:?} tags (label {}) via \
             sealed upload -> SSI stored-tuple tag -> partitioning; \
             declaration allows {:?}",
            phase_name(self.phase),
            self.origin,
            self.form,
            self.label.name(),
            self.declared
        )
    }
}

/// The pass result for one plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExposureReport {
    /// Every reachable (phase, form) pair, in plan order — the sub-plan's
    /// pairs included when the protocol runs discovery.
    pub checked: Vec<CheckedExposure>,
    /// Counterexample traces for undeclared forms (empty when proven).
    pub violations: Vec<ExposureTrace>,
}

impl ExposureReport {
    /// Is every reachable form declared?
    pub fn proven(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The lattice label a tag form hands the SSI. Every form is at least a
/// keyed hash: no tag carries a grouping value in cleartext.
pub fn form_label(form: TagForm) -> Leakage {
    match form {
        TagForm::None => Leakage::NDetEnc,
        TagForm::Det => Leakage::DetEnc,
        TagForm::Bucket => Leakage::KeyedHash,
    }
}

/// The plan field producing the tag of a phase.
fn origin_of(phase: Phase) -> &'static str {
    match phase {
        Phase::Discovery => "discovery sub-plan",
        Phase::Collection => "collect.tag_policy",
        Phase::Aggregation => "reduce.retag",
        Phase::Filtering => "finalize",
    }
}

fn check_forms(
    decl: &ExposureDeclaration,
    forms: &[(Phase, TagForm)],
    origin_override: Option<&'static str>,
    checked: &mut Vec<CheckedExposure>,
    violations: &mut Vec<ExposureTrace>,
) {
    for (phase, form) in forms {
        let origin = origin_override.unwrap_or_else(|| origin_of(*phase));
        let declared = decl.allows(*phase, *form);
        checked.push(CheckedExposure {
            phase: *phase,
            form: *form,
            origin,
            declared,
        });
        if !declared {
            violations.push(ExposureTrace {
                phase: *phase,
                form: *form,
                label: form_label(*form),
                origin,
                declared: decl.allowed(*phase).to_vec(),
            });
        }
    }
}

/// Run the pass over one compiled plan.
///
/// The discovery sub-plan — when the protocol bootstraps from the domain —
/// is compiled here exactly as the runtime compiles it (an S_Agg plan with
/// results sealed for TDSs under `k2`) and checked against the *S_Agg*
/// declaration, because discovery tuples travel under the sub-query's own
/// S_Agg envelope.
pub fn check_plan(plan: &PhasePlan, query: &Query) -> ExposureReport {
    let mut checked = Vec::new();
    let mut violations = Vec::new();

    let decl = ExposureDeclaration::for_protocol(plan.kind);
    check_forms(
        &decl,
        &plan.exposed_forms(),
        None,
        &mut checked,
        &mut violations,
    );

    if plan.discovery.is_some() {
        let sub = PhasePlan::compile(query, &ProtocolParams::new(ProtocolKind::SAgg))
            .with_dest(ResultDest::Tds);
        let sub_decl = ExposureDeclaration::for_protocol(ProtocolKind::SAgg);
        check_forms(
            &sub_decl,
            &sub.exposed_forms(),
            Some("discovery sub-plan (k2-sealed S_Agg)"),
            &mut checked,
            &mut violations,
        );
    }

    ExposureReport {
        checked,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_core::plan::TagPolicy;
    use tdsql_sql::parser::parse_query;

    fn agg_query() -> Query {
        parse_query("SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district").unwrap()
    }

    #[test]
    fn compiled_plans_prove_subset_for_all_protocols() {
        for kind in [
            ProtocolKind::Basic,
            ProtocolKind::SAgg,
            ProtocolKind::RnfNoise { nf: 2 },
            ProtocolKind::CNoise,
            ProtocolKind::EdHist { buckets: 4 },
        ] {
            let query = if kind == ProtocolKind::Basic {
                parse_query("SELECT pid FROM health WHERE age > 80").unwrap()
            } else {
                agg_query()
            };
            let plan = PhasePlan::compile(&query, &ProtocolParams::new(kind));
            let report = check_plan(&plan, &query);
            assert!(report.proven(), "{}: {:?}", kind.name(), report.violations);
            assert!(report.checked.iter().all(|c| c.declared));
        }
    }

    #[test]
    fn discovery_protocols_check_the_sub_plan_too() {
        let query = agg_query();
        let plan = PhasePlan::compile(&query, &ProtocolParams::new(ProtocolKind::CNoise));
        let report = check_plan(&plan, &query);
        assert!(report
            .checked
            .iter()
            .any(|c| c.origin.contains("discovery sub-plan")));
    }

    #[test]
    fn undeclared_tag_yields_a_lattice_typed_trace() {
        let query = agg_query();
        let mut plan = PhasePlan::compile(&query, &ProtocolParams::new(ProtocolKind::SAgg));
        plan.collect.tag_policy = TagPolicy::DetPerGroup;
        let report = check_plan(&plan, &query);
        assert!(!report.proven());
        let t = &report.violations[0];
        assert_eq!(t.phase, Phase::Collection);
        assert_eq!(t.form, TagForm::Det);
        assert_eq!(t.label, Leakage::DetEnc);
        assert_eq!(t.origin, "collect.tag_policy");
        assert_eq!(t.declared, vec![TagForm::None]);
        assert!(
            t.render().contains("Det_Enc") && t.render().contains("collect.tag_policy"),
            "{}",
            t.render()
        );
    }

    #[test]
    fn no_tag_form_crosses_below_a_keyed_hash() {
        // A grouping attribute reaches the SSI only through a tag, and every
        // form a tag can take protects at least as well as a bucket hash.
        for form in [TagForm::None, TagForm::Det, TagForm::Bucket] {
            assert!(form_label(form) >= Leakage::KeyedHash, "{form:?}");
        }
    }

    #[test]
    fn the_envelope_has_exactly_the_reviewed_cleartext_fields() {
        // Exhaustive on purpose, with no `..`: a new envelope field fails to
        // compile here until someone decides what it shows the SSI.
        let tdsql_core::message::QueryEnvelope {
            query_id: _,   // SSI-assigned routing id
            enc_query: _,  // nDet_Enc_k1(SQL), opaque to the SSI
            credential: _, // authority-signed, checked by each TDS
            size: _,       // the SIZE bound, evaluated by the SSI
            protocol: _,   // the public execution recipe
            target: _,     // querybox routing
        };
    }
}
