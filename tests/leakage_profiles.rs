//! Golden leakage profiles: for every protocol, the tag forms the SSI
//! *actually observes* at runtime must equal what the static verifier and
//! the [`ExposureDeclaration`] say it may observe — no more (a leak), and
//! for the golden assertions no less (a test that stopped exercising a
//! phase would otherwise rot silently). Both sides report an undeclared
//! form as the same `ExposureTrace`.
//!
//! [`ExposureDeclaration`]: tdsql_core::leakage::ExposureDeclaration

use std::collections::{BTreeMap, BTreeSet};

use tdsql_analyze::lattice::Leakage;
use tdsql_analyze::profile::{observed_profile, verify_observations};
use tdsql_analyze::verify::{verify, verify_plan};
use tdsql_core::access::AccessPolicy;
use tdsql_core::leakage::TagForm;
use tdsql_core::plan::{PhasePlan, TagPolicy};
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::runtime::{SimBuilder, SimWorld};
use tdsql_core::stats::Phase;
use tdsql_core::workload::{smart_meters, Skew, SmartMeterConfig};
use tdsql_crypto::credential::Role;
use tdsql_sql::parser::parse_query;

const AGG_SQL: &str = "SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district";
const SFW_SQL: &str = "SELECT c.district FROM consumer c WHERE c.accomodation = 'detached house'";

fn run(kind: ProtocolKind, sql: &str, seed: u64) -> SimWorld {
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 30,
        districts: 4,
        skew: Skew::Zipf(1.2),
        readings_per_tds: 1,
        ..Default::default()
    });
    let mut world = SimBuilder::new()
        .seed(seed)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let query = parse_query(sql).unwrap();
    world
        .run_query(&querier, &query, ProtocolParams::new(kind))
        .unwrap();
    world
}

/// The id of the target query (discovery sub-queries post earlier ids).
fn target_query(world: &SimWorld) -> u64 {
    world
        .ssi
        .observations()
        .iter()
        .map(|o| o.query_id)
        .filter(|&q| q != u64::MAX)
        .max()
        .unwrap()
}

/// Every query in the log (including discovery sub-queries, excluding the
/// `u64::MAX` pseudo-id of cache uploads) must match its posted protocol's
/// declaration.
fn assert_whole_log_declared(world: &SimWorld) {
    let qids: BTreeSet<u64> = world
        .ssi
        .observations()
        .iter()
        .map(|o| o.query_id)
        .filter(|&q| q != u64::MAX)
        .collect();
    for qid in qids {
        let kind = world.ssi.envelope(qid).unwrap().protocol;
        let traces = verify_observations(kind, &world.ssi.observations(), qid);
        assert!(
            traces.is_empty(),
            "query {qid} under {}: {traces:?}",
            kind.name()
        );
    }
}

fn golden(world: &SimWorld, expect: &[(Phase, TagForm)]) {
    let qid = target_query(world);
    let mut want: BTreeMap<Phase, BTreeSet<TagForm>> = BTreeMap::new();
    for (phase, form) in expect {
        want.entry(*phase).or_default().insert(*form);
    }
    let got = observed_profile(&world.ssi.observations(), qid);
    assert_eq!(got, want, "observed profile differs from golden profile");
}

fn assert_verified(kind: ProtocolKind, sql: &str) {
    let query = parse_query(sql).unwrap();
    let v = verify(&query, &ProtocolParams::new(kind));
    assert!(v.verified(), "{} plan must verify: {v:?}", kind.name());
}

#[test]
fn basic_profile() {
    let world = run(ProtocolKind::Basic, SFW_SQL, 11);
    golden(
        &world,
        &[
            (Phase::Collection, TagForm::None),
            (Phase::Filtering, TagForm::None),
        ],
    );
    assert_whole_log_declared(&world);
    assert_verified(ProtocolKind::Basic, SFW_SQL);
}

#[test]
fn s_agg_profile() {
    let world = run(ProtocolKind::SAgg, AGG_SQL, 12);
    golden(
        &world,
        &[
            (Phase::Collection, TagForm::None),
            (Phase::Aggregation, TagForm::None),
            (Phase::Filtering, TagForm::None),
        ],
    );
    assert_whole_log_declared(&world);
    assert_verified(ProtocolKind::SAgg, AGG_SQL);
}

#[test]
fn rnf_noise_profile() {
    let kind = ProtocolKind::RnfNoise { nf: 2 };
    let world = run(kind, AGG_SQL, 13);
    golden(
        &world,
        &[
            (Phase::Collection, TagForm::Det),
            (Phase::Aggregation, TagForm::Det),
            (Phase::Filtering, TagForm::None),
        ],
    );
    assert_whole_log_declared(&world);
    assert_verified(kind, AGG_SQL);
}

#[test]
fn c_noise_profile() {
    let world = run(ProtocolKind::CNoise, AGG_SQL, 14);
    golden(
        &world,
        &[
            (Phase::Collection, TagForm::Det),
            (Phase::Aggregation, TagForm::Det),
            (Phase::Filtering, TagForm::None),
        ],
    );
    assert_whole_log_declared(&world);
    assert_verified(ProtocolKind::CNoise, AGG_SQL);
}

#[test]
fn ed_hist_profile() {
    let kind = ProtocolKind::EdHist { buckets: 3 };
    let world = run(kind, AGG_SQL, 15);
    golden(
        &world,
        &[
            (Phase::Collection, TagForm::Bucket),
            (Phase::Aggregation, TagForm::Det),
            (Phase::Filtering, TagForm::None),
        ],
    );
    assert_whole_log_declared(&world);
    assert_verified(kind, AGG_SQL);
}

/// A mislabeled plan — an S_Agg driver that tags collection tuples with
/// `Det_Enc(A_G)` — must be refuted by the static verifier, and the same
/// leak planted in an observation log must be rejected by the runtime diff.
#[test]
fn mislabeled_plan_and_log_are_rejected() {
    let query = parse_query(AGG_SQL).unwrap();
    let params = ProtocolParams::new(ProtocolKind::SAgg);

    // Static side: mutate the compiled plan.
    let mut plan = PhasePlan::compile(&query, &params);
    plan.collect.tag_policy = TagPolicy::DetPerGroup;
    let v = verify_plan(&plan, &query);
    assert!(!v.verified());
    let t = &v.exposure.violations[0];
    assert_eq!(
        (t.phase, t.form, t.label),
        (Phase::Collection, TagForm::Det, Leakage::DetEnc)
    );
    assert_eq!(t.declared, vec![TagForm::None]);

    // Runtime side: plant the same leak in a real S_Agg log.
    let world = run(ProtocolKind::SAgg, AGG_SQL, 16);
    let qid = target_query(&world);
    let mut log = world.ssi.observations().clone();
    let mut leaked = log[0].clone();
    leaked.query_id = qid;
    leaked.phase = Phase::Collection;
    leaked.tag =
        tdsql_core::message::GroupTag::Det(tdsql_core::bytes::Bytes::from(vec![0xde, 0xad]));
    log.push(leaked);
    let traces = verify_observations(ProtocolKind::SAgg, &log, qid);
    assert_eq!(traces.len(), 1, "{traces:?}");
    assert_eq!(
        (traces[0].phase, traces[0].form, traces[0].label),
        (Phase::Collection, TagForm::Det, Leakage::DetEnc)
    );
    assert_eq!(traces[0].origin, "SSI observation log");
}

/// `explain_checked` renders a verified verdict for every protocol that can
/// run the aggregate query.
#[test]
fn explain_checked_clean_for_all_protocols() {
    let query = parse_query(AGG_SQL).unwrap();
    for kind in [
        ProtocolKind::SAgg,
        ProtocolKind::RnfNoise { nf: 2 },
        ProtocolKind::CNoise,
        ProtocolKind::EdHist { buckets: 4 },
    ] {
        let text = tdsql_analyze::explain_checked(&query, &ProtocolParams::new(kind));
        assert!(text.contains("static verification:"), "{text}");
        assert!(
            text.contains("verdict:    verified"),
            "{}: {text}",
            kind.name()
        );
    }
}
