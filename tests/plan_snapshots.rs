//! Golden snapshots of the compiled [`PhasePlan`] for every protocol.
//!
//! The plan is the single dataflow contract shared by the driver and the
//! static leakage analyzer. A
//! change in these renderings means every interpreter's behavior changed —
//! which is sometimes intended, but never silently: update the snapshot in
//! the same commit as the compiler change, and say why.

use tdsql_core::explain::explain;
use tdsql_core::plan::PhasePlan;
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_sql::ast::Query;
use tdsql_sql::parser::parse_query;

fn agg_query() -> Query {
    parse_query(
        "SELECT c.district, AVG(p.cons) FROM power p, consumer c \
         WHERE c.cid = p.cid GROUP BY c.district",
    )
    .unwrap()
}

fn rendered(query: &Query, kind: ProtocolKind) -> String {
    PhasePlan::compile(query, &ProtocolParams::new(kind))
        .render()
        .join("\n")
}

#[test]
fn basic_plan_snapshot() {
    let query = parse_query("SELECT pid FROM health WHERE age > 80").unwrap();
    assert_eq!(
        rendered(&query, ProtocolKind::Basic),
        "collect:   tag=none pad=64\n\
         finalize:  filter rows via random(256) -> querier (k1)"
    );
}

#[test]
fn s_agg_plan_snapshot() {
    assert_eq!(
        rendered(&agg_query(), ProtocolKind::SAgg),
        "collect:   tag=none pad=64\n\
         reduce:    random(256) then random(4) [retag=none] until single batch\n\
         finalize:  finalize groups via whole -> querier (k1)"
    );
}

#[test]
fn rnf_noise_plan_snapshot() {
    assert_eq!(
        rendered(&agg_query(), ProtocolKind::RnfNoise { nf: 10 }),
        "discovery: grouping domain via k2-sealed S_Agg sub-query\n\
         collect:   tag=det pad=64\n\
         reduce:    by-tag(256) then by-tag(4) [retag=det] until tag singletons\n\
         finalize:  finalize groups via chunked(256) -> querier (k1)"
    );
}

#[test]
fn c_noise_plan_snapshot() {
    assert_eq!(
        rendered(&agg_query(), ProtocolKind::CNoise),
        "discovery: grouping domain via k2-sealed S_Agg sub-query\n\
         collect:   tag=det pad=64\n\
         reduce:    by-tag(256) then by-tag(4) [retag=det] until tag singletons\n\
         finalize:  finalize groups via chunked(256) -> querier (k1)"
    );
}

#[test]
fn ed_hist_plan_snapshot() {
    assert_eq!(
        rendered(&agg_query(), ProtocolKind::EdHist { buckets: 8 }),
        "discovery: distribution histogram (8 buckets) via k2-sealed S_Agg sub-query\n\
         collect:   tag=bucket pad=64\n\
         reduce:    by-tag(256) then by-tag(4) [retag=det] until tag singletons\n\
         finalize:  finalize groups via chunked(256) -> querier (k1)"
    );
}

#[test]
fn explain_embeds_the_rendered_plan() {
    // `explain` must show the very same plan the runtimes execute.
    for kind in [
        ProtocolKind::SAgg,
        ProtocolKind::CNoise,
        ProtocolKind::EdHist { buckets: 4 },
    ] {
        let params = ProtocolParams::new(kind);
        let text = explain(&agg_query(), &params);
        assert!(text.contains("plan:\n"), "{text}");
        for step in PhasePlan::compile(&agg_query(), &params).render() {
            assert!(
                text.contains(&format!("  {step}\n")),
                "explain for {} lost plan line {step:?}:\n{text}",
                kind.name()
            );
        }
    }
}

#[test]
fn plan_parameters_follow_params() {
    let mut params = ProtocolParams::new(ProtocolKind::SAgg);
    params.pad = 128;
    params.chunk = 32;
    params.alpha = 8;
    assert_eq!(
        PhasePlan::compile(&agg_query(), &params)
            .render()
            .join("\n"),
        "collect:   tag=none pad=128\n\
         reduce:    random(32) then random(8) [retag=none] until single batch\n\
         finalize:  finalize groups via whole -> querier (k1)"
    );
}
