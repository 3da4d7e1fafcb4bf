//! Concurrent multi-query execution: the admission scheduler, the
//! cross-query batching pool and the shared discovery cache must never
//! change what a query computes.
//!
//! The contract is byte-identity: a query run inside a mixed workload
//! (same driver seed, same fault plan) must decrypt to exactly the rows
//! its solo run produces, bit for bit with zero tolerance — in-process,
//! under chaos fault plans, and over the loopback `tdsql-net` backend
//! where cross-query batches travel as `multi_step` frames.
//!
//! Two artifacts of sharing one SSI are canonicalized away, and only
//! these two:
//!
//! * row order of unordered queries — result-slot order tracks the
//!   SSI-assigned query id (necessarily different when queries share an
//!   SSI), not the computation, so rows are sorted before comparison;
//! * float aggregates — the per-item step seed folds the query id in,
//!   which permutes the partial-aggregate merge order and with it the
//!   last ulp of a float SUM/AVG (the same inherent-to-distributed-
//!   summation caveat every other suite tolerates). The identity
//!   workload therefore aggregates with COUNT (exactly representable at
//!   any merge order) and asserts *zero-tolerance* equality; float
//!   aggregates are covered by an oracle check with the repo-standard
//!   ulp tolerance in a separate test.

mod common;

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use common::{assert_rows_eq, sorted};
use tdsql_core::connectivity::{Connectivity, FaultPlan};
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::ssi::Ssi;
use tdsql_core::workload::SmartMeterConfig;
use tdsql_core::{
    run_mixed, DiscoveryCache, DriverConfig, MixedOptions, MixedQuery, SchedConfig, ServiceDriver,
};
use tdsql_net::deploy::Deployment;
use tdsql_net::{serve_pool, serve_ssi, RemoteSsi, RemoteTdsPool};
use tdsql_obs::Obs;
use tdsql_sql::engine::execute;
use tdsql_sql::parser::parse_query;
use tdsql_sql::Value;

/// COUNT-only aggregation: every value is exactly representable, so any
/// partial-aggregate merge order yields the same bytes — the query the
/// zero-tolerance identity assertions run.
const COUNT_SQL: &str = "SELECT c.district, COUNT(*) FROM power p, consumer c \
                         WHERE c.cid = p.cid GROUP BY c.district";
/// Float aggregation: last-ulp sensitive to merge order; oracle-checked
/// with the repo-standard tolerance, never bit-compared across runs.
const AGG_SQL: &str = "SELECT c.district, COUNT(*), SUM(p.cons) FROM power p, consumer c \
                       WHERE c.cid = p.cid GROUP BY c.district";
const SFW_SQL: &str = "SELECT p.cid, p.cons FROM power p WHERE p.cons >= 0";

fn deployment() -> Deployment {
    Deployment {
        meters: SmartMeterConfig {
            n_tds: 20,
            districts: 3,
            readings_per_tds: 2,
            ..SmartMeterConfig::default()
        },
        ..Deployment::default()
    }
}

/// The workload the identity tests run: every protocol appears at least
/// once, querier identities cycle so the per-querier quota engages, and
/// arrivals are staggered so admissions genuinely interleave.
fn workload(dep: &Deployment, n: usize) -> Vec<MixedQuery> {
    let kinds = [
        (ProtocolKind::SAgg, COUNT_SQL),
        (ProtocolKind::Basic, SFW_SQL),
        (ProtocolKind::EdHist { buckets: 2 }, COUNT_SQL),
        (ProtocolKind::RnfNoise { nf: 2 }, COUNT_SQL),
        (ProtocolKind::CNoise, COUNT_SQL),
    ];
    (0..n)
        .map(|i| {
            let (kind, sql) = kinds[i % kinds.len()];
            let mut params = ProtocolParams::new(kind);
            params.chunk = 4;
            params.alpha = 2;
            MixedQuery {
                querier: dep.make_querier(&format!("energy-co-{}", i % 3), &dep.role),
                query: parse_query(sql).expect("parse"),
                params,
                seed: 0x3_10ed ^ (i as u64).wrapping_mul(0x9e37_79b9),
                arrival_ms: (i as u64 % 4) * 3,
            }
        })
        .collect()
}

/// Solo baseline for one workload entry: a fresh SSI, a fresh provision
/// of the same deployment, the direct (unbatched) pool, and the same
/// per-query driver config the mixed run used.
fn solo_run(
    dep: &Deployment,
    base: &DriverConfig,
    q: &MixedQuery,
) -> Result<Vec<Vec<Value>>, tdsql_core::ProtocolError> {
    let ssi = Ssi::new();
    let (pool, _oracle) = dep.provision();
    let system = dep.system_querier();
    let obs = Arc::new(Obs::new(b"solo-baseline"));
    let config = DriverConfig {
        seed: q.seed,
        ..base.clone()
    };
    let mut driver = ServiceDriver::new(&ssi, &pool, obs, config)?;
    driver.run_query(&q.querier, Some(&system), &q.query, q.params.clone())
}

/// Mixed options for the identity tests: scheduler and batching fully
/// engaged, the shared discovery cache off. A cache hit skips the
/// discovery sub-query, which legitimately advances the driver RNG
/// differently from a solo run — identity is asserted with the cache
/// held in the solo-equivalent state (empty); cache correctness has its
/// own test below.
fn identity_options() -> MixedOptions {
    MixedOptions {
        discovery_ttl_ms: 0,
        ..MixedOptions::default()
    }
}

#[test]
fn mixed_queries_are_byte_identical_to_solo_runs() {
    let dep = deployment();
    let ssi = Ssi::new();
    let (pool, _oracle) = dep.provision();
    let (_p, oracle) = dep.provision();
    let system = dep.system_querier();
    let obs = Arc::new(Obs::new(b"mixed-identity"));
    let base = DriverConfig::default();
    let queries = workload(&dep, 10);

    let report = run_mixed(
        &ssi,
        &pool,
        &obs,
        Some(&system),
        &base,
        &identity_options(),
        &queries,
    );

    assert_eq!(report.outcomes.len(), queries.len());
    assert_eq!(
        report.sched.counter("ssi.sched.admitted"),
        queries.len() as u64,
        "every query must be admitted"
    );
    for (i, (q, outcome)) in queries.iter().zip(report.outcomes.iter()).enumerate() {
        let label = format!("query {i} ({})", q.params.kind.name());
        let mixed = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{label}: mixed run failed: {e}"));
        let solo = solo_run(&dep, &base, q).unwrap_or_else(|e| panic!("{label}: solo failed: {e}"));
        // Exact equality on canonicalized rows: every value — float bits
        // included — must match the solo run with zero tolerance.
        assert_eq!(
            sorted(mixed.rows.clone()),
            sorted(solo),
            "{label}: mixed vs solo drift"
        );
        let expected = execute(&oracle, &q.query).expect("oracle").rows;
        assert_rows_eq(mixed.rows.clone(), expected, &label);
    }
}

/// Float aggregates under concurrency: bit-compare is off the table (the
/// qid-folded step seed permutes merge order, see module docs), so the
/// contract is the same one every other suite holds float SUM/AVG to —
/// oracle equality within the distributed-summation ulp tolerance.
#[test]
fn mixed_float_aggregates_stay_oracle_correct() {
    let dep = deployment();
    let ssi = Ssi::new();
    let (pool, _oracle) = dep.provision();
    let (_p, oracle) = dep.provision();
    let system = dep.system_querier();
    let obs = Arc::new(Obs::new(b"mixed-float"));
    let base = DriverConfig::default();
    let kinds = [
        ProtocolKind::SAgg,
        ProtocolKind::EdHist { buckets: 2 },
        ProtocolKind::CNoise,
        ProtocolKind::SAgg,
        ProtocolKind::RnfNoise { nf: 2 },
        ProtocolKind::EdHist { buckets: 2 },
    ];
    let queries: Vec<MixedQuery> = kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let mut params = ProtocolParams::new(*kind);
            params.chunk = 4;
            params.alpha = 2;
            MixedQuery {
                querier: dep.make_querier(&format!("energy-co-{}", i % 3), &dep.role),
                query: parse_query(AGG_SQL).expect("parse"),
                params,
                seed: 0xf10a7 + i as u64,
                arrival_ms: (i as u64 % 3) * 2,
            }
        })
        .collect();
    let report = run_mixed(
        &ssi,
        &pool,
        &obs,
        Some(&system),
        &base,
        &identity_options(),
        &queries,
    );
    let expected = execute(&oracle, &queries[0].query).expect("oracle").rows;
    for (i, (q, outcome)) in queries.iter().zip(report.outcomes.iter()).enumerate() {
        let label = format!("float query {i} ({})", q.params.kind.name());
        let mixed = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{label}: failed: {e}"));
        assert_rows_eq(mixed.rows.clone(), expected.clone(), &label);
    }
}

#[test]
fn mixed_queries_stay_byte_identical_under_chaos() {
    let dep = deployment();
    for case in [1u64, 9] {
        let faults = FaultPlan::seeded(case)
            .with_loss(0.15)
            .with_duplication(0.2)
            .with_late(0.15)
            .with_reorder(0.3)
            .with_corruption(0.1);
        let base = DriverConfig {
            connectivity: Connectivity::always_on().with_faults(faults),
            retry_budget: 24,
            ..DriverConfig::default()
        };
        let ssi = Ssi::new();
        let (pool, _oracle) = dep.provision();
        let system = dep.system_querier();
        let obs = Arc::new(Obs::new(b"mixed-chaos"));
        let queries = workload(&dep, 8);

        let report = run_mixed(
            &ssi,
            &pool,
            &obs,
            Some(&system),
            &base,
            &identity_options(),
            &queries,
        );

        for (i, (q, outcome)) in queries.iter().zip(report.outcomes.iter()).enumerate() {
            let label = format!("chaos case {case}, query {i} ({})", q.params.kind.name());
            let solo = solo_run(&dep, &base, q);
            match (outcome, solo) {
                (Ok(mixed), Ok(solo)) => {
                    assert_eq!(
                        sorted(mixed.rows.clone()),
                        sorted(solo),
                        "{label}: mixed vs solo drift under chaos"
                    );
                }
                (Err(me), Err(se)) => {
                    assert_eq!(me.to_string(), se.to_string(), "{label}: abort drift");
                }
                (m, s) => panic!("{label}: outcome drift: mixed {m:?} vs solo {s:?}"),
            }
        }
    }
}

/// Spawn a fresh SSI server on an ephemeral loopback port.
fn spawn_ssi() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let obs = Arc::new(Obs::new(b"mixed-net-ssi"));
    thread::spawn(move || serve_ssi(listener, Arc::new(Ssi::new()), obs));
    addr
}

/// Spawn a pool server hosting the deployment's population.
fn spawn_pool(deployment: &Deployment) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let (pool, _oracle) = deployment.provision();
    let obs = Arc::new(Obs::new(b"mixed-net-pool"));
    thread::spawn(move || serve_pool(listener, Arc::new(pool), obs));
    addr
}

#[test]
fn mixed_over_loopback_net_is_byte_identical_to_solo() {
    let dep = deployment();
    let ssi_addr = spawn_ssi();
    let pool_addr = spawn_pool(&dep);
    let obs = Arc::new(Obs::new(b"mixed-net-driver"));
    let ssi = RemoteSsi::connect(ssi_addr.to_string(), Arc::clone(&obs));
    let pool = RemoteTdsPool::connect(pool_addr.to_string(), Arc::clone(&obs)).expect("roster");
    let system = dep.system_querier();
    let base = DriverConfig::default();
    let queries = workload(&dep, 6);

    // Cross-query batches formed by the BatchingPool travel the wire as
    // single multi_step frames here — the tag-3/tag-5 codec path under
    // real concurrency.
    let report = run_mixed(
        &ssi,
        &pool,
        &obs,
        Some(&system),
        &base,
        &identity_options(),
        &queries,
    );

    for (i, (q, outcome)) in queries.iter().zip(report.outcomes.iter()).enumerate() {
        let label = format!("net query {i} ({})", q.params.kind.name());
        let mixed = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{label}: mixed net run failed: {e}"));
        let solo = solo_run(&dep, &base, q).unwrap_or_else(|e| panic!("{label}: solo failed: {e}"));
        assert_eq!(
            sorted(mixed.rows.clone()),
            sorted(solo),
            "{label}: loopback mixed vs solo drift"
        );
    }
}

#[test]
fn shared_discovery_cache_serves_hits_without_changing_results() {
    let dep = deployment();
    let (_p, oracle) = dep.provision();
    let system = dep.system_querier();
    let cache = Arc::new(DiscoveryCache::new(Duration::from_secs(60)));
    let query = parse_query(AGG_SQL).expect("parse");
    let expected = execute(&oracle, &query).expect("oracle").rows;

    // Two drivers, same grouping domain, shared cache: the first run
    // misses and populates, the second hits — and still answers right.
    for (run, seed) in [(0u64, 0xcac4e_1u64), (1, 0xcac4e_2)] {
        let ssi = Ssi::new();
        let (pool, _oracle) = dep.provision();
        let obs = Arc::new(Obs::new(b"cache-driver"));
        let config = DriverConfig {
            seed,
            discovery_cache: Some(Arc::clone(&cache)),
            ..DriverConfig::default()
        };
        let mut driver = ServiceDriver::new(&ssi, &pool, obs, config).expect("driver");
        let querier = dep.make_querier("energy-co", &dep.role);
        let mut params = ProtocolParams::new(ProtocolKind::EdHist { buckets: 2 });
        params.chunk = 4;
        let rows = driver
            .run_query(&querier, Some(&system), &query, params)
            .expect("cached run");
        assert_rows_eq(rows, expected.clone(), &format!("cache run {run}"));
    }
    let metrics = cache.metrics();
    assert_eq!(
        metrics.counter("ssi.sched.discovery.miss"),
        1,
        "first run misses"
    );
    assert!(
        metrics.counter("ssi.sched.discovery.hit") >= 1,
        "second run must hit the shared cache"
    );
}

#[test]
fn admission_backpressure_rejects_with_typed_error() {
    let dep = deployment();
    let ssi = Ssi::new();
    let (pool, _oracle) = dep.provision();
    let system = dep.system_querier();
    let obs = Arc::new(Obs::new(b"mixed-backpressure"));
    let base = DriverConfig::default();
    // One live slot, a one-deep queue, and four simultaneous arrivals
    // from the same querier: at least one must be turned away with the
    // typed rejection, and every rejection must surface as exactly one
    // failed outcome.
    let opts = MixedOptions {
        sched: SchedConfig {
            max_live: 1,
            per_querier: 1,
            queue_cap: 1,
        },
        discovery_ttl_ms: 0,
        ..MixedOptions::default()
    };
    let queries: Vec<MixedQuery> = (0..4)
        .map(|i| MixedQuery {
            querier: dep.make_querier("energy-co", &dep.role),
            query: parse_query(SFW_SQL).expect("parse"),
            params: ProtocolParams::new(ProtocolKind::Basic),
            seed: 0xbac4 + i as u64,
            arrival_ms: 0,
        })
        .collect();
    let report = run_mixed(&ssi, &pool, &obs, Some(&system), &base, &opts, &queries);

    let rejected = report.sched.counter("ssi.sched.rejected");
    assert!(rejected >= 1, "queue of 1 cannot absorb 3 waiters");
    let errors: Vec<&tdsql_core::ProtocolError> = report
        .outcomes
        .iter()
        .filter_map(|o| o.as_ref().err())
        .collect();
    assert_eq!(
        errors.len() as u64,
        rejected,
        "every rejection is one failed outcome"
    );
    for e in errors {
        assert!(
            matches!(e, tdsql_core::ProtocolError::AdmissionRejected { .. }),
            "rejection must carry the typed admission error, got: {e}"
        );
    }
    // The admitted queries still answered correctly.
    for outcome in report.outcomes.iter().filter_map(|o| o.as_ref().ok()) {
        assert!(!outcome.rows.is_empty(), "admitted query lost its rows");
    }
}

/// The batch window is an upper bound, not a wait: with every admitted
/// driver enrolled in the batching pool, a leader flushes as soon as no
/// other driver can still join its batch. A one-second window would cost
/// a second per step if leaders waited it out.
#[test]
fn batch_window_is_a_cap_not_a_wait() {
    let dep = deployment();
    let ssi = Ssi::new();
    let (pool, _oracle) = dep.provision();
    let system = dep.system_querier();
    let obs = Arc::new(Obs::new(b"mixed-work-conserving"));
    let base = DriverConfig::default();
    let queries = workload(&dep, 2);
    let opts = MixedOptions {
        batch_window_ms: 1_000,
        ..identity_options()
    };

    let report = run_mixed(&ssi, &pool, &obs, Some(&system), &base, &opts, &queries);

    for (i, (q, outcome)) in queries.iter().zip(report.outcomes.iter()).enumerate() {
        let label = format!("query {i} ({})", q.params.kind.name());
        let mixed = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{label}: mixed run failed: {e}"));
        let solo = solo_run(&dep, &base, q).unwrap_or_else(|e| panic!("{label}: solo failed: {e}"));
        assert_eq!(sorted(mixed.rows.clone()), sorted(solo), "{label}: drift");
    }
    assert!(
        report.wall_ms < 1_000,
        "leaders waited out the window: {} ms",
        report.wall_ms
    );
}
