//! `SimWorld` is a facade over [`ServiceDriver`], not a second interpreter.
//!
//! Differential check: a query run through `SimWorld::run_query` and the
//! same query run through a hand-built `ServiceDriver` over an identically
//! provisioned `Ssi` + `LocalTdsPool` with the same seed are the same
//! program — same rows in the same order, same statistics, same number of
//! SSI observations — on every protocol, healthy and under a fault plan.
//! And the facade keeps what a bare driver does not: a round clock and an
//! RNG that advance across queries on one world.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use common::assert_rows_eq;
use tdsql_core::access::AccessPolicy;
use tdsql_core::connectivity::{Connectivity, FaultPlan};
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::runtime::SimBuilder;
use tdsql_core::stats::{FaultStats, Phase, RunStats, TdsWork};
use tdsql_core::tds::SYSTEM_ROLE;
use tdsql_core::workload::{smart_meters, SmartMeterConfig};
use tdsql_core::{DriverConfig, LocalTdsPool, ServiceDriver};
use tdsql_crypto::credential::Role;
use tdsql_sql::engine::{execute, Database};
use tdsql_sql::parser::parse_query;

const SQL: &str = "SELECT c.district, COUNT(*), SUM(p.cons) FROM power p, consumer c \
                   WHERE c.cid = p.cid GROUP BY c.district";
const SFW_SQL: &str = "SELECT p.cid, p.cons FROM power p WHERE p.cons >= 0";

fn population() -> (Vec<Database>, Database) {
    smart_meters(&SmartMeterConfig {
        n_tds: 20,
        districts: 3,
        readings_per_tds: 2,
        ..Default::default()
    })
}

fn policy() -> AccessPolicy {
    AccessPolicy::allow_all(Role::new("supplier"))
}

/// Everything the cost model and the fault tests read off a run, per phase.
type PhaseDigest = (u64, BTreeMap<u64, TdsWork>, u64, u64, u64, Vec<u64>);

fn digest(stats: &RunStats) -> (u64, FaultStats, bool, u64, Vec<PhaseDigest>) {
    let phases = [
        Phase::Discovery,
        Phase::Collection,
        Phase::Aggregation,
        Phase::Filtering,
    ]
    .into_iter()
    .map(|phase| {
        let p = stats.phase(phase);
        (
            p.steps,
            p.per_tds,
            p.ssi_tuples_stored,
            p.ssi_bytes_stored,
            p.partitions_reassigned,
            p.critical_path_bytes,
        )
    })
    .collect();
    (
        stats.rounds,
        stats.faults,
        stats.partial,
        stats.load_bytes(),
        phases,
    )
}

#[test]
fn facade_and_hand_built_driver_are_the_same_program() {
    let (dbs, oracle) = population();
    let protocols = [
        (ProtocolKind::Basic, SFW_SQL),
        (ProtocolKind::SAgg, SQL),
        (ProtocolKind::RnfNoise { nf: 2 }, SQL),
        (ProtocolKind::CNoise, SQL),
        (ProtocolKind::EdHist { buckets: 2 }, SQL),
    ];
    for (n, (kind, sql)) in protocols.into_iter().enumerate() {
        let chaos = FaultPlan::seeded(0xfac0 + n as u64)
            .with_loss(0.15)
            .with_duplication(0.2)
            .with_late(0.15)
            .with_reorder(0.5)
            .with_corruption(0.15);
        for (net, connectivity) in [
            ("always-on", Connectivity::always_on()),
            ("chaos", Connectivity::fraction(0.3).with_faults(chaos)),
        ] {
            let label = format!("{} / {net}", kind.name());
            let seed = 0xfacade ^ n as u64;
            let builder = SimBuilder::new().seed(seed).connectivity(connectivity);
            let query = parse_query(sql).unwrap();
            let mut params = ProtocolParams::new(kind);
            params.chunk = 4;
            params.alpha = 2;

            let mut world = builder.clone().build(dbs.clone(), policy());
            let querier = world.make_querier("energy-co", "supplier");
            let facade = world.run_query(&querier, &query, params.clone());

            // The twin world only provisions: its parts are driven by hand.
            let mut twin = builder.build(dbs.clone(), policy());
            let querier = twin.make_querier("energy-co", "supplier");
            let system = twin.make_querier("system", SYSTEM_ROLE);
            let pool = LocalTdsPool::new(Arc::new(std::mem::take(&mut twin.tdss)));
            let config = DriverConfig {
                connectivity,
                seed,
                default_max_rounds: twin.default_max_rounds,
                retry_budget: twin.retry_budget,
                discovery_cache: None,
            };
            let mut driver =
                ServiceDriver::new(&twin.ssi, &pool, Arc::clone(&twin.obs), config).unwrap();
            let by_hand = driver.run_query(&querier, Some(&system), &query, params);

            assert_eq!(facade, by_hand, "{label}: rows, in order");
            assert_eq!(digest(&world.stats), digest(&driver.stats), "{label}");
            assert_eq!(world.round, driver.round, "{label}: round clock");
            assert_eq!(
                world.ssi.observations_len(),
                twin.ssi.observations_len(),
                "{label}: SSI observations"
            );
            assert_eq!(
                world.obs.export_jsonl(),
                twin.obs.export_jsonl(),
                "{label}: one event vocabulary, one trace"
            );

            // Neither comparison is vacuous.
            let expected = execute(&oracle, &query).unwrap().rows;
            assert_rows_eq(facade.expect(&label), expected, &label);
            assert_eq!(world.stats.faults.total() > 0, net == "chaos", "{label}");
        }
    }
}

#[test]
fn one_world_keeps_its_clock_across_queries() {
    let (dbs, oracle) = population();
    let query = parse_query(SQL).unwrap();
    let params = ProtocolParams::new(ProtocolKind::SAgg);
    let expected = execute(&oracle, &query).unwrap().rows;

    // How many rounds one query takes on this world (runs are seeded).
    let one_query = {
        let mut probe = SimBuilder::new().seed(77).build(dbs.clone(), policy());
        let querier = probe.make_querier("energy-co", "supplier");
        probe.run_query(&querier, &query, params.clone()).unwrap();
        probe.round
    };
    assert!(one_query > 0);

    // A credential good for exactly that long: valid at every step of the
    // first query, expired from the first step of the second — which only a
    // world whose clock survives from one query to the next can notice.
    let mut world = SimBuilder::new().seed(77).build(dbs, policy());
    let expiring = world.make_querier_expiring("energy-co", "supplier", one_query);
    let rows = world.run_query(&expiring, &query, params.clone()).unwrap();
    assert_rows_eq(rows, expected, "credential still valid");
    assert_eq!(world.round, one_query);

    let rows = world.run_query(&expiring, &query, params).unwrap();
    assert!(rows.is_empty(), "expired credential sees only dummies");
    assert!(world.round > one_query, "the clock keeps advancing");
    assert_eq!(world.stats.rounds, world.round - one_query, "per-run stats");
}
