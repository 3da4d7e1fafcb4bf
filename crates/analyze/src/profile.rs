//! Declared-versus-observed leakage profiles.
//!
//! The static side of the contract is the [`ExposureDeclaration`]; the
//! runtime side is the SSI's observation log. This module reduces a log to
//! the per-phase set of tag forms actually seen for one query and diffs it
//! against the declaration — the golden leakage-profile tests run exactly
//! this for all five protocols. A runtime finding is the same
//! [`ExposureTrace`] the static exposure pass produces for a plan.

use std::collections::{BTreeMap, BTreeSet};

use tdsql_core::leakage::{ExposureDeclaration, TagForm};
use tdsql_core::message::Observation;
use tdsql_core::protocol::ProtocolKind;
use tdsql_core::stats::Phase;

use crate::verify::exposure::{form_label, ExposureTrace};

/// The tag forms a query's observations actually contained, per phase.
pub fn observed_profile(
    observations: &[Observation],
    query_id: u64,
) -> BTreeMap<Phase, BTreeSet<TagForm>> {
    let mut profile: BTreeMap<Phase, BTreeSet<TagForm>> = BTreeMap::new();
    for obs in observations {
        if obs.query_id == query_id {
            profile
                .entry(obs.phase)
                .or_default()
                .insert(TagForm::of(&obs.tag));
        }
    }
    profile
}

/// Diff a query's observed profile against the protocol's declaration.
/// Returns one trace per undeclared (phase, form) pair; an empty vector
/// means the runtime exposed exactly what the declaration allows (or less).
pub fn verify_observations(
    kind: ProtocolKind,
    observations: &[Observation],
    query_id: u64,
) -> Vec<ExposureTrace> {
    let decl = ExposureDeclaration::for_protocol(kind);
    let mut out = Vec::new();
    for (phase, forms) in observed_profile(observations, query_id) {
        for form in forms {
            if !decl.allows(phase, form) {
                out.push(ExposureTrace {
                    phase,
                    form,
                    label: form_label(form),
                    origin: "SSI observation log",
                    declared: decl.allowed(phase).to_vec(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_core::bytes::Bytes;
    use tdsql_core::message::{GroupTag, StoredTuple};

    fn obs(query_id: u64, phase: Phase, tag: GroupTag) -> Observation {
        Observation::of(
            query_id,
            phase,
            &StoredTuple {
                tag,
                blob: Bytes::from_static(b"blob"),
            },
        )
    }

    #[test]
    fn declared_exposure_passes() {
        let log = vec![
            obs(7, Phase::Collection, GroupTag::Bucket([1; 8])),
            obs(
                7,
                Phase::Aggregation,
                GroupTag::Det(tdsql_core::bytes::Bytes::from(vec![2])),
            ),
            obs(7, Phase::Filtering, GroupTag::None),
        ];
        let traces = verify_observations(ProtocolKind::EdHist { buckets: 4 }, &log, 7);
        assert!(traces.is_empty(), "{traces:?}");
    }

    #[test]
    fn undeclared_tag_is_reported() {
        let log = vec![obs(
            3,
            Phase::Collection,
            GroupTag::Det(tdsql_core::bytes::Bytes::from(vec![9])),
        )];
        let traces = verify_observations(ProtocolKind::SAgg, &log, 3);
        assert_eq!(traces.len(), 1);
        assert_eq!(
            (traces[0].phase, traces[0].form),
            (Phase::Collection, TagForm::Det)
        );
        assert_eq!(traces[0].declared, vec![TagForm::None]);
        assert!(traces[0]
            .render()
            .starts_with("undeclared-exposure [collection]: SSI observation log"));
    }

    #[test]
    fn other_queries_are_ignored() {
        let log = vec![obs(
            1,
            Phase::Collection,
            GroupTag::Det(tdsql_core::bytes::Bytes::from(vec![9])),
        )];
        assert!(verify_observations(ProtocolKind::SAgg, &log, 2).is_empty());
    }

    #[test]
    fn profile_collects_per_phase() {
        let log = vec![
            obs(1, Phase::Collection, GroupTag::Bucket([0; 8])),
            obs(1, Phase::Collection, GroupTag::Bucket([1; 8])),
            obs(
                1,
                Phase::Aggregation,
                GroupTag::Det(tdsql_core::bytes::Bytes::from(vec![1])),
            ),
        ];
        let p = observed_profile(&log, 1);
        assert_eq!(p[&Phase::Collection], BTreeSet::from([TagForm::Bucket]));
        assert_eq!(p[&Phase::Aggregation], BTreeSet::from([TagForm::Det]));
        assert!(!p.contains_key(&Phase::Filtering));
    }
}
