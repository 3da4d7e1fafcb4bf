//! Ablations of the design choices DESIGN.md calls out:
//!
//! * the S_Agg reduction factor α (the paper derives α_op ≈ 3.6),
//! * ED_Hist running with a **stale** histogram (the discovery snapshot is
//!   refreshed "from time to time", not per query),
//! * amortised discovery via `SimWorld::prepare_params`.

mod common;

use common::assert_rows_eq;
use tdsql_core::access::AccessPolicy;
use tdsql_core::histogram::Histogram;
use tdsql_core::message::GroupTag;
use tdsql_core::protocol::{discovery, ProtocolKind, ProtocolParams};
use tdsql_core::runtime::SimBuilder;
use tdsql_core::stats::Phase;
use tdsql_core::workload::{smart_meters, Skew, SmartMeterConfig};
use tdsql_crypto::credential::Role;
use tdsql_sql::engine::execute;
use tdsql_sql::parser::parse_query;
use tdsql_sql::value::{GroupKey, Value};

const SQL: &str = "SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district";

#[test]
fn alpha_sweep_changes_rounds_not_results() {
    // Larger α ⇒ fewer iterations but bigger partitions; the result never
    // changes. (The model's optimum balances the two; the functional
    // simulator exposes the iteration count.)
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 120,
        districts: 4,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;
    let mut steps_by_alpha = Vec::new();
    for alpha in [2usize, 4, 16] {
        let mut world = SimBuilder::new()
            .seed(700)
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("q", "supplier");
        let mut params = ProtocolParams::new(ProtocolKind::SAgg);
        params.chunk = 8;
        params.alpha = alpha;
        let rows = world.run_query(&querier, &query, params).unwrap();
        assert_rows_eq(rows, expected.clone(), &format!("alpha={alpha}"));
        steps_by_alpha.push((alpha, world.stats.phase(Phase::Aggregation).steps));
    }
    assert!(
        steps_by_alpha[0].1 > steps_by_alpha[2].1,
        "α=2 must iterate more than α=16: {steps_by_alpha:?}"
    );
}

#[test]
fn stale_histogram_stays_correct_but_leaks_skew() {
    // Build a histogram from a *uniform* snapshot, then run over data that
    // has since become heavily skewed: correctness is untouched (bucket
    // assignment only routes tuples), but the observed bucket distribution
    // is no longer flat — quantifying why the paper refreshes discovery.
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 150,
        districts: 6,
        skew: Skew::Zipf(1.4),
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;

    // Stale snapshot: pretend every district once had equal counts.
    let stale_dist: Vec<(GroupKey, u64)> = (0..6)
        .map(|d| {
            (
                GroupKey::from_values(&[Value::Str(format!("district-{d:04}"))]),
                25u64,
            )
        })
        .collect();
    let stale_hist = Histogram::build(&stale_dist, 3);

    let run = |hist: Histogram, seed: u64| {
        let mut world = SimBuilder::new()
            .seed(seed)
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("q", "supplier");
        let mut params = ProtocolParams::new(ProtocolKind::EdHist { buckets: 3 });
        params.histogram = Some(hist.into());
        let rows = world.run_query(&querier, &query, params).unwrap();
        let mut counts = std::collections::BTreeMap::new();
        for obs in &world.ssi.observations() {
            if obs.phase == Phase::Collection {
                if let GroupTag::Bucket(_) = obs.tag {
                    *counts.entry(obs.tag.clone()).or_insert(0u64) += 1;
                }
            }
        }
        let max = *counts.values().max().unwrap() as f64;
        let min = *counts.values().min().unwrap() as f64;
        (rows, max / min)
    };

    let (stale_rows, stale_skew) = run(stale_hist, 701);
    assert_rows_eq(stale_rows, expected.clone(), "stale histogram");

    // Fresh snapshot for comparison.
    let fresh_dist = {
        let mut world = SimBuilder::new()
            .seed(702)
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        discovery::discover_distribution(&mut world, &query).unwrap()
    };
    let (fresh_rows, fresh_skew) = run(Histogram::build(&fresh_dist, 3), 703);
    assert_rows_eq(fresh_rows, expected, "fresh histogram");

    assert!(
        stale_skew > fresh_skew,
        "staleness must cost uniformity: stale {stale_skew:.2} vs fresh {fresh_skew:.2}"
    );
}

#[test]
fn prepared_params_amortise_discovery() {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 60,
        districts: 4,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;
    let mut world = SimBuilder::new()
        .seed(704)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("q", "supplier");

    // One discovery, three queries.
    let params = world
        .prepare_params(&query, ProtocolKind::EdHist { buckets: 2 })
        .unwrap();
    assert!(params.histogram.is_some());
    let observations_after_discovery = world.ssi.observations_len();
    for _ in 0..3 {
        let rows = world.run_query(&querier, &query, params.clone()).unwrap();
        assert_rows_eq(rows, expected.clone(), "prepared params");
    }
    // No further discovery traffic: the only new query ids belong to the
    // three target queries (one collection round each + aggregation), and
    // the histogram was reused verbatim.
    let new_ids: std::collections::BTreeSet<u64> = world
        .ssi
        .observations()
        .iter()
        .skip(observations_after_discovery)
        .map(|o| o.query_id)
        .collect();
    assert_eq!(new_ids.len(), 3, "three queries, zero extra discoveries");
}
