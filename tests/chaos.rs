//! Chaos sweep: randomized (but fully seeded) fault plans thrown at every
//! protocol through the one driver, in process (the `SimWorld` facade) and
//! over loopback TCP. The contract under chaos is binary — either
//! the run completes and the result is *exactly* the oracle's, or it fails
//! with a clean typed error ([`ProtocolError::QueryAborted`]). Silent
//! corruption, hangs and panics are the bugs this sweep exists to catch.
//!
//! The sweep is a plain seeded loop (no property-testing framework: the
//! build is hermetic). `TDSQL_CHAOS_SEED` offsets the seed space so CI can
//! run disjoint slices of it.

mod common;

use common::assert_rows_eq;
use tdsql_core::access::AccessPolicy;
use tdsql_core::connectivity::{Connectivity, FaultPlan};
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::runtime::SimBuilder;
use tdsql_core::workload::{smart_meters, SmartMeterConfig};
use tdsql_core::ProtocolError;
use tdsql_crypto::credential::Role;
use tdsql_sql::engine::execute;
use tdsql_sql::parser::parse_query;

const SQL: &str = "SELECT c.district, COUNT(*), SUM(p.cons) FROM power p, consumer c \
                   WHERE c.cid = p.cid GROUP BY c.district";
const SFW_SQL: &str = "SELECT p.cid, p.cons FROM power p WHERE p.cons >= 0";

fn protocols() -> Vec<(ProtocolKind, &'static str)> {
    vec![
        (ProtocolKind::Basic, SFW_SQL),
        (ProtocolKind::SAgg, SQL),
        (ProtocolKind::RnfNoise { nf: 2 }, SQL),
        (ProtocolKind::CNoise, SQL),
        (ProtocolKind::EdHist { buckets: 2 }, SQL),
    ]
}

/// Seed offset from the environment so a CI matrix can cover disjoint
/// slices of the seed space (`TDSQL_CHAOS_SEED=0,1,2,...`).
fn chaos_base() -> u64 {
    std::env::var("TDSQL_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Deterministic rate in `[0, max)` derived from (seed, salt) — the sweep's
/// own dice, independent of the fault plan's.
fn rate(seed: u64, salt: u64, max: f64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 29;
    (x >> 11) as f64 / (1u64 << 53) as f64 * max
}

/// A fault plan with every knob drawn from the case seed. Rates are kept
/// moderate so most runs complete; the ones that don't must abort cleanly.
fn random_plan(case: u64) -> FaultPlan {
    FaultPlan::seeded(case)
        .with_loss(rate(case, 1, 0.35))
        .with_duplication(rate(case, 2, 0.4))
        .with_late(rate(case, 3, 0.3))
        .with_reorder(rate(case, 4, 0.6))
        .with_corruption(rate(case, 5, 0.25))
}

/// The only acceptable failure under chaos: a typed abort.
fn assert_clean_error(err: &ProtocolError, label: &str) {
    assert!(
        matches!(err, ProtocolError::QueryAborted { .. }),
        "{label}: chaos may abort but never fail dirty: {err}"
    );
}

#[test]
fn chaos_round_runtime_result_or_clean_error() {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 20,
        districts: 3,
        readings_per_tds: 2,
        ..Default::default()
    });
    let base = chaos_base();
    for i in 0..10u64 {
        let case = base.wrapping_mul(1000) + i;
        let (kind, sql) = protocols()[(i as usize) % protocols().len()];
        let query = parse_query(sql).unwrap();
        let expected = execute(&oracle, &query).unwrap().rows;
        let mut world = SimBuilder::new()
            .seed(0xc4a05 ^ case)
            .retry_budget(24)
            .connectivity(Connectivity::always_on().with_faults(random_plan(case)))
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("energy-co", "supplier");
        let mut params = ProtocolParams::new(kind);
        params.chunk = 4;
        params.alpha = 2;
        let label = format!("round chaos case {case} ({})", kind.name());
        match world.run_query(&querier, &query, params) {
            Ok(rows) => {
                assert!(!world.stats.partial, "{label}: unbounded run is complete");
                assert_rows_eq(rows, expected, &label);
            }
            Err(err) => assert_clean_error(&err, &label),
        }
    }
}

#[test]
fn chaos_size_bounded_runs_never_abort() {
    // With a SIZE bound the degrade path replaces the abort path: every
    // case must come back Ok — complete or partial, never QueryAborted.
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 12,
        districts: 2,
        readings_per_tds: 1,
        ..Default::default()
    });
    let sql = "SELECT c.district, COUNT(*) FROM power p, consumer c \
               WHERE c.cid = p.cid GROUP BY c.district SIZE 8 ROUNDS";
    let query = parse_query(sql).unwrap();
    let base = chaos_base();
    for i in 0..6u64 {
        let case = base.wrapping_mul(1000) + 900 + i;
        let faults = FaultPlan::seeded(case).with_loss(0.3 + rate(case, 7, 0.6));
        let mut world = SimBuilder::new()
            .seed(0x517e ^ case)
            .retry_budget(4)
            .connectivity(Connectivity::always_on().with_faults(faults))
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("energy-co", "supplier");
        let rows = world
            .run_query(&querier, &query, ProtocolParams::new(ProtocolKind::SAgg))
            .unwrap_or_else(|e| panic!("SIZE-bounded chaos case {case} must not abort: {e}"));
        for row in &rows {
            if let tdsql_sql::value::Value::Int(n) = row[1] {
                assert!((1..=12).contains(&n), "case {case}: count {n} out of range");
            }
        }
    }
}

/// The loopback TCP backend under the same chaos sweep: for each case the
/// remote driver (spawned `serve_ssi`/`serve_pool` on ephemeral loopback
/// ports) must be **byte-identical** to the in-process service driver with
/// the same seeds — same rows in the same order, or the same clean abort.
/// The wire adds transport, never behavior.
#[test]
fn chaos_loopback_backend_byte_identical_to_inprocess() {
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::thread;
    use tdsql_core::ssi::Ssi;
    use tdsql_core::{DriverConfig, ServiceDriver};
    use tdsql_net::deploy::Deployment;
    use tdsql_net::{serve_pool, serve_ssi, RemoteSsi, RemoteTdsPool};
    use tdsql_obs::Obs;

    let dep = Deployment {
        meters: SmartMeterConfig {
            n_tds: 20,
            districts: 3,
            readings_per_tds: 1,
            ..Default::default()
        },
        ..Deployment::default()
    };
    let (_pool, oracle) = dep.provision();
    let base = chaos_base();
    for i in 0..6u64 {
        let case = base.wrapping_mul(1000) + 250 + i;
        let (kind, sql) = protocols()[(i as usize) % protocols().len()];
        let query = parse_query(sql).unwrap();
        let expected = execute(&oracle, &query).unwrap().rows;
        let config = DriverConfig {
            connectivity: Connectivity::always_on().with_faults(random_plan(case)),
            seed: 0xc4a05 ^ case,
            retry_budget: 24,
            ..DriverConfig::default()
        };
        let querier = dep.make_querier("energy-co", "supplier");
        let system = dep.system_querier();
        let mut params = ProtocolParams::new(kind);
        params.chunk = 4;
        params.alpha = 2;
        let label = format!("loopback chaos case {case} ({})", kind.name());

        // Remote: fresh servers per case so both backends allocate the
        // same query ids (ids feed the per-step seeds).
        let ssi_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ssi_addr = ssi_listener.local_addr().unwrap();
        let server_ssi = Arc::new(Ssi::new());
        let server_obs = Arc::new(Obs::new(b"chaos-ssi"));
        thread::spawn(move || serve_ssi(ssi_listener, server_ssi, server_obs));
        let pool_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool_addr = pool_listener.local_addr().unwrap();
        let (server_pool, _) = dep.provision();
        let server_obs = Arc::new(Obs::new(b"chaos-pool"));
        thread::spawn(move || serve_pool(pool_listener, Arc::new(server_pool), server_obs));

        let obs = Arc::new(Obs::new(b"chaos-remote"));
        let ssi = RemoteSsi::connect(ssi_addr.to_string(), Arc::clone(&obs));
        let pool = RemoteTdsPool::connect(pool_addr.to_string(), Arc::clone(&obs)).unwrap();
        let mut driver = ServiceDriver::new(&ssi, &pool, obs, config.clone()).unwrap();
        let remote = driver.run_query(&querier, Some(&system), &query, params.clone());

        // In-process reference with identical config.
        let local_ssi = Ssi::new();
        let (local_pool, _) = dep.provision();
        let obs = Arc::new(Obs::new(b"chaos-local"));
        let mut driver = ServiceDriver::new(&local_ssi, &local_pool, obs, config).unwrap();
        let local = driver.run_query(&querier, Some(&system), &query, params);

        match (remote, local) {
            (Ok(r), Ok(l)) => {
                assert_eq!(r, l, "{label}: remote vs in-process drift");
                assert_rows_eq(r, expected, &label);
            }
            (Err(re), Err(le)) => {
                assert_clean_error(&re, &label);
                assert_eq!(re.to_string(), le.to_string(), "{label}: abort drift");
            }
            (r, l) => panic!("{label}: outcome drift: remote {r:?} vs local {l:?}"),
        }
    }
}

/// The deadline/backoff path under chaos: servers armed with an
/// aggressive 50 ms socket deadline keep cutting connections the moment
/// they idle, so the run constantly exercises the client's bounded
/// reconnect + seeded backoff machinery on top of the simulated fault
/// plan. The contract is unchanged: byte-identical to the in-process
/// driver (reconnects are absorbed below the driver seam; only the
/// simulated faults may shape the outcome).
#[test]
fn chaos_aggressive_deadline_backend_byte_identical_to_inprocess() {
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;
    use tdsql_core::ssi::Ssi;
    use tdsql_core::{DriverConfig, ServiceDriver};
    use tdsql_net::deploy::Deployment;
    use tdsql_net::{serve_pool_with, serve_ssi_with, RemoteSsi, RemoteTdsPool, ServeOptions};
    use tdsql_obs::Obs;

    let dep = Deployment {
        meters: SmartMeterConfig {
            n_tds: 16,
            districts: 3,
            readings_per_tds: 1,
            ..Default::default()
        },
        ..Deployment::default()
    };
    let (_pool, oracle) = dep.provision();
    let opts = ServeOptions {
        timeout: Some(Duration::from_millis(50)),
        stop: None,
    };
    let base = chaos_base();
    for i in 0..3u64 {
        let case = base.wrapping_mul(1000) + 350 + i;
        let (kind, sql) = protocols()[(i as usize) % protocols().len()];
        let query = parse_query(sql).unwrap();
        let expected = execute(&oracle, &query).unwrap().rows;
        let config = DriverConfig {
            connectivity: Connectivity::always_on().with_faults(random_plan(case)),
            seed: 0xdea41 ^ case,
            retry_budget: 24,
            ..DriverConfig::default()
        };
        let querier = dep.make_querier("energy-co", "supplier");
        let system = dep.system_querier();
        let mut params = ProtocolParams::new(kind);
        params.chunk = 4;
        params.alpha = 2;
        let label = format!("deadline chaos case {case} ({})", kind.name());

        let ssi_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ssi_addr = ssi_listener.local_addr().unwrap();
        let server_ssi = Arc::new(Ssi::new());
        let server_obs = Arc::new(Obs::new(b"deadline-ssi"));
        thread::spawn(move || serve_ssi_with(ssi_listener, server_ssi, server_obs, opts));
        let pool_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool_addr = pool_listener.local_addr().unwrap();
        let (server_pool, _) = dep.provision();
        let server_obs = Arc::new(Obs::new(b"deadline-pool"));
        thread::spawn(move || {
            serve_pool_with(pool_listener, Arc::new(server_pool), server_obs, opts)
        });

        let obs = Arc::new(Obs::new(b"deadline-remote"));
        let ssi = RemoteSsi::connect(ssi_addr.to_string(), Arc::clone(&obs));
        let pool = RemoteTdsPool::connect(pool_addr.to_string(), Arc::clone(&obs)).unwrap();
        let mut driver = ServiceDriver::new(&ssi, &pool, obs, config.clone()).unwrap();
        let remote = driver.run_query(&querier, Some(&system), &query, params.clone());

        let local_ssi = Ssi::new();
        let (local_pool, _) = dep.provision();
        let obs = Arc::new(Obs::new(b"deadline-local"));
        let mut driver = ServiceDriver::new(&local_ssi, &local_pool, obs, config).unwrap();
        let local = driver.run_query(&querier, Some(&system), &query, params);

        match (remote, local) {
            (Ok(r), Ok(l)) => {
                assert_eq!(r, l, "{label}: remote vs in-process drift");
                assert_rows_eq(r, expected, &label);
            }
            (Err(re), Err(le)) => {
                assert_clean_error(&re, &label);
                assert_eq!(re.to_string(), le.to_string(), "{label}: abort drift");
            }
            (r, l) => panic!("{label}: outcome drift: remote {r:?} vs local {l:?}"),
        }
    }
}
