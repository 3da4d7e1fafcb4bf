//! Population edges of partition dispatch.
//!
//! These contracts were first pinned on the threaded runtime's worker pool;
//! the file keeps its name and now pins them on the one interpreter of a
//! plan, [`ServiceDriver`], and its in-process [`LocalTdsPool`]: a
//! population smaller than the partition count drops no work, and a
//! population of nobody is a typed error up front, never a remainder by zero.

mod common;

use std::sync::Arc;

use common::assert_rows_eq;
use tdsql_core::access::AccessPolicy;
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::runtime::SimBuilder;
use tdsql_core::service::TdsPool;
use tdsql_core::ssi::Ssi;
use tdsql_core::stats::Phase;
use tdsql_core::workload::{smart_meters, SmartMeterConfig};
use tdsql_core::{DriverConfig, LocalTdsPool, ProtocolError, ServiceDriver};
use tdsql_crypto::credential::Role;
use tdsql_obs::Obs;
use tdsql_sql::engine::execute;
use tdsql_sql::parser::parse_query;

fn is_empty_population(e: &ProtocolError) -> bool {
    matches!(e, ProtocolError::Protocol(m) if m == "empty TDS population")
}

/// A world or pool with no TDS is refused up front with a typed error, by
/// the facade and by a hand-built driver alike: no protocol can answer over
/// nobody, and the cleartext oracle's `[[0]]` is not what an empty
/// collection would produce.
#[test]
fn empty_population_rejected() {
    let query = parse_query("SELECT COUNT(*) FROM health").unwrap();
    for kind in [ProtocolKind::SAgg, ProtocolKind::CNoise] {
        let mut world = SimBuilder::new()
            .seed(602)
            .build(Vec::new(), AccessPolicy::allow_all(Role::new("r")));
        let querier = world.make_querier("q", "r");
        let err = world
            .run_query(&querier, &query, ProtocolParams::new(kind))
            .unwrap_err();
        assert!(is_empty_population(&err), "{}: {err}", kind.name());
    }

    let ssi = Ssi::new();
    let pool = LocalTdsPool::new(Arc::new(Vec::new()));
    let obs = Arc::new(Obs::new(b"empty-population"));
    let err = ServiceDriver::new(&ssi, &pool, obs, DriverConfig::default()).unwrap_err();
    assert!(is_empty_population(&err), "hand-built driver: {err}");
}

#[test]
fn parallel_partitions_clamps_workers_and_rejects_an_empty_population() {
    let sql = "SELECT c.district, COUNT(*), SUM(p.cons) FROM power p, consumer c \
               WHERE c.cid = p.cid GROUP BY c.district";
    let query = parse_query(sql).unwrap();

    // Fewer TDSs than partitions, down to one: every partition is still
    // stepped (the population takes them a round at a time), so nothing is
    // dropped and the rows are the oracle's.
    for n_tds in [1, 2, 5] {
        let (dbs, oracle) = smart_meters(&SmartMeterConfig {
            n_tds,
            districts: 2,
            readings_per_tds: 6,
            ..Default::default()
        });
        let expected = execute(&oracle, &query).unwrap().rows;
        let mut world = SimBuilder::new()
            .seed(615)
            .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("energy-co", "supplier");
        let mut params = ProtocolParams::new(ProtocolKind::SAgg);
        params.chunk = 2;
        let rows = world.run_query(&querier, &query, params).unwrap();
        assert_rows_eq(rows, expected, &format!("{n_tds} TDSs"));

        let aggregation = world.stats.phase(Phase::Aggregation);
        assert!(
            aggregation.per_tds.len() <= n_tds,
            "{n_tds} TDSs: work only lands on the population"
        );
        if n_tds == 1 {
            assert!(
                aggregation.steps > 1,
                "one TDS drains several partitions, one per round"
            );
        }
    }

    // No TDS to step on is a typed error at the pool as at the driver.
    let pool = LocalTdsPool::new(Arc::new(Vec::new()));
    assert_eq!(pool.len().unwrap(), 0);
    assert!(pool.is_empty().unwrap());
    let err = pool.open_rows(&[]).unwrap_err();
    assert!(is_empty_population(&err), "pool: {err}");
    let ssi = Ssi::new();
    let obs = Arc::new(Obs::new(b"empty-partitions"));
    let err = ServiceDriver::new(&ssi, &pool, obs, DriverConfig::default()).unwrap_err();
    assert!(is_empty_population(&err), "driver: {err}");
}
