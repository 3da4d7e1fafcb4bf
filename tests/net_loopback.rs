//! Loopback TCP backend: the `tdsql-net` servers and clients driving the
//! same compiled plans as the in-process runtimes, over real sockets.
//!
//! The contract is byte-identical results: for every protocol, a query
//! driven through spawned `serve_ssi`/`serve_pool` loops on ephemeral
//! loopback ports must decrypt to exactly the rows the in-process
//! [`ServiceDriver`] produces with the same seeds — and both must match
//! the round runtime and the cleartext oracle. The wire may add
//! transport faults, never result drift.

mod common;

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread;

use common::assert_rows_eq;
use tdsql_core::connectivity::{Connectivity, FaultPlan};
use tdsql_core::message::QueryTarget;
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::runtime::SimBuilder;
use tdsql_core::ssi::Ssi;
use tdsql_core::workload::SmartMeterConfig;
use tdsql_core::{DriverConfig, ProtocolError, ServiceDriver};
use tdsql_net::deploy::Deployment;
use tdsql_net::{serve_pool, serve_ssi, RemoteSsi, RemoteTdsPool};
use tdsql_obs::Obs;
use tdsql_sql::engine::execute;
use tdsql_sql::parser::parse_query;
use tdsql_sql::Value;

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

fn deployment() -> Deployment {
    deployment_of(20)
}

fn deployment_of(n_tds: usize) -> Deployment {
    Deployment {
        meters: SmartMeterConfig {
            n_tds,
            districts: 3,
            readings_per_tds: 2,
            ..SmartMeterConfig::default()
        },
        ..Deployment::default()
    }
}

/// Spawn a fresh SSI server on an ephemeral loopback port.
fn spawn_ssi() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let obs = Arc::new(Obs::new(b"loopback-ssi"));
    let mut ssi = Ssi::new();
    ssi.attach_obs(Arc::clone(&obs));
    thread::spawn(move || serve_ssi(listener, Arc::new(ssi), obs));
    addr
}

/// Spawn a pool server hosting the deployment's population.
fn spawn_pool(deployment: &Deployment) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let (pool, _oracle) = deployment.provision();
    let obs = Arc::new(Obs::new(b"loopback-pool"));
    thread::spawn(move || serve_pool(listener, Arc::new(pool), obs));
    addr
}

/// Run one query through the remote backend (fresh servers) and through
/// the in-process service driver, with identical configs.
fn run_both(
    dep: &Deployment,
    kind: ProtocolKind,
    sql: &str,
    config: &DriverConfig,
    target: QueryTarget,
) -> (
    Result<Vec<Vec<Value>>, ProtocolError>,
    Result<Vec<Vec<Value>>, ProtocolError>,
) {
    let query = parse_query(sql).expect("parse");
    let querier = dep.make_querier("energy-co", &dep.role);
    let system = dep.system_querier();
    let mut params = ProtocolParams::new(kind);
    params.chunk = 4;
    params.alpha = 2;

    // Remote: spawned servers on loopback sockets.
    let ssi_addr = spawn_ssi();
    let pool_addr = spawn_pool(dep);
    let obs = Arc::new(Obs::new(b"loopback-driver"));
    let ssi = RemoteSsi::connect(ssi_addr.to_string(), Arc::clone(&obs));
    let pool = RemoteTdsPool::connect(pool_addr.to_string(), Arc::clone(&obs)).expect("roster");
    let mut driver = ServiceDriver::new(&ssi, &pool, obs, config.clone()).expect("remote driver");
    let remote = driver.run_query_targeted(
        &querier,
        Some(&system),
        &query,
        params.clone(),
        target.clone(),
    );

    // In-process: same traits, no sockets.
    let ssi = {
        let mut s = Ssi::new();
        s.attach_obs(Arc::new(Obs::new(b"inproc-ssi")));
        s
    };
    let (pool, _oracle) = dep.provision();
    let obs = Arc::new(Obs::new(b"inproc-driver"));
    let mut driver = ServiceDriver::new(&ssi, &pool, obs, config.clone()).expect("local driver");
    let local = driver.run_query_targeted(&querier, Some(&system), &query, params, target);

    (remote, local)
}

#[test]
fn loopback_matches_oracle_and_inprocess_for_all_protocols() {
    let dep = deployment();
    let (_pool, oracle) = dep.provision();
    for (kind, sql) in protocols() {
        let query = parse_query(sql).expect("parse");
        let expected = execute(&oracle, &query).expect("oracle").rows;
        let config = DriverConfig {
            seed: 0x10a,
            ..DriverConfig::default()
        };
        let label = format!("loopback {}", kind.name());
        let (remote, local) = run_both(&dep, kind, sql, &config, QueryTarget::Crowd);
        let remote = remote.unwrap_or_else(|e| panic!("{label}: remote failed: {e}"));
        let local = local.unwrap_or_else(|e| panic!("{label}: local failed: {e}"));
        // Byte-identical across the transport: same seeds, same rows, same
        // order — not merely set-equal.
        assert_eq!(remote, local, "{label}: remote vs in-process drift");
        assert_rows_eq(remote, expected, &label);
    }
}

/// Above the driver's pipelining threshold, several workers step TDSs
/// through one `RemoteTdsPool` connection at once, serialised by its
/// mutex: the rows must still match the in-process run byte for byte.
#[test]
fn loopback_s_agg_over_1200_tdss_is_byte_identical_to_inprocess() {
    let dep = deployment_of(1_200);
    let (_pool, oracle) = dep.provision();
    let expected = execute(&oracle, &parse_query(SQL).expect("parse"))
        .expect("oracle")
        .rows;
    let config = DriverConfig {
        seed: 0x4b0,
        ..DriverConfig::default()
    };
    let (remote, local) = run_both(&dep, ProtocolKind::SAgg, SQL, &config, QueryTarget::Crowd);
    let remote = remote.expect("remote");
    assert_eq!(remote, local.expect("local"), "remote vs in-process drift");
    assert_rows_eq(remote, expected, "loopback S_Agg @ 1200");
}

#[test]
fn loopback_matches_round_runtime() {
    let dep = deployment();
    let (dbs, oracle) = tdsql_core::workload::smart_meters(&dep.meters);
    let query = parse_query(SQL).expect("parse");
    let expected = execute(&oracle, &query).expect("oracle").rows;

    // Round runtime, same workload.
    let mut world = SimBuilder::new().seed(7).build(
        dbs,
        tdsql_core::access::AccessPolicy::allow_all(tdsql_crypto::credential::Role::new(
            "supplier",
        )),
    );
    let round_querier = world.make_querier("energy-co", "supplier");
    let mut params = ProtocolParams::new(ProtocolKind::SAgg);
    params.chunk = 4;
    params.alpha = 2;
    let round_rows = world
        .run_query(&round_querier, &query, params)
        .expect("round runtime");
    assert_rows_eq(round_rows.clone(), expected.clone(), "round vs oracle");

    let config = DriverConfig {
        seed: 7,
        ..DriverConfig::default()
    };
    let (remote, _) = run_both(&dep, ProtocolKind::SAgg, SQL, &config, QueryTarget::Crowd);
    assert_rows_eq(
        remote.expect("loopback"),
        round_rows,
        "loopback vs round runtime",
    );
}

#[test]
fn loopback_personal_querybox_targeting() {
    let dep = deployment();
    let (_pool, oracle) = dep.provision();
    let query = parse_query(SFW_SQL).expect("parse");
    let all = execute(&oracle, &query).expect("oracle").rows;
    // Target three queryboxes: only their readings come back.
    let target = QueryTarget::Tds(vec![2, 5, 11]);
    let expected: Vec<Vec<Value>> = all
        .into_iter()
        .filter(|row| matches!(row[0], Value::Int(cid) if [2, 5, 11].contains(&cid)))
        .collect();
    let config = DriverConfig {
        seed: 0x7b0,
        ..DriverConfig::default()
    };
    let (remote, local) = run_both(&dep, ProtocolKind::Basic, SFW_SQL, &config, target);
    let remote = remote.expect("remote targeted");
    let local = local.expect("local targeted");
    assert_eq!(remote, local, "targeted: remote vs in-process drift");
    assert_rows_eq(remote, expected, "targeted loopback");
}

#[test]
fn loopback_under_chaos_is_byte_identical_to_inprocess() {
    let dep = deployment();
    let (_pool, oracle) = dep.provision();
    // A non-zero chaos seed with every fault class active: the wire
    // backend must behave exactly like the in-process driver — same
    // result rows or the same clean abort.
    for case in [1u64, 9] {
        let faults = FaultPlan::seeded(case)
            .with_loss(0.15)
            .with_duplication(0.2)
            .with_late(0.15)
            .with_reorder(0.3)
            .with_corruption(0.1);
        let config = DriverConfig {
            connectivity: Connectivity::always_on().with_faults(faults),
            seed: 0xc4a05 ^ case,
            retry_budget: 24,
            ..DriverConfig::default()
        };
        for (kind, sql) in [protocols()[1].clone(), protocols()[4].clone()] {
            let label = format!("chaos case {case} ({})", kind.name());
            let query = parse_query(sql).expect("parse");
            let expected = execute(&oracle, &query).expect("oracle").rows;
            let (remote, local) = run_both(&dep, kind, sql, &config, QueryTarget::Crowd);
            match (remote, local) {
                (Ok(r), Ok(l)) => {
                    assert_eq!(r, l, "{label}: remote vs in-process drift under chaos");
                    assert_rows_eq(r, expected, &label);
                }
                (Err(re), Err(le)) => {
                    assert!(
                        matches!(re, ProtocolError::QueryAborted { .. }),
                        "{label}: dirty remote abort: {re}"
                    );
                    assert_eq!(re.to_string(), le.to_string(), "{label}: abort drift");
                }
                (r, l) => panic!("{label}: outcome drift: remote {r:?} vs local {l:?}"),
            }
        }
    }
}

#[test]
fn dead_pool_port_is_a_clean_transport_error() {
    // Nothing listens here: grab a port and drop the listener.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr")
    };
    let obs = Arc::new(Obs::new(b"dead-port"));
    let err = match RemoteTdsPool::connect(addr.to_string(), obs) {
        Err(e) => e,
        Ok(_) => panic!("connect to a dead port must fail"),
    };
    assert!(
        tdsql_core::service::is_transport_error(&err),
        "expected transport error, got {err:?}"
    );
}

/// Slowloris regression: a peer that sends 2 of the 4 length-prefix bytes
/// and then stalls must not pin a server connection thread. With a socket
/// deadline armed, the read trips a typed transport error, the thread
/// frees within the deadline, and the server keeps answering real
/// clients.
#[test]
fn slowloris_peer_cannot_pin_a_server_thread() {
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};
    use tdsql_net::{serve_ssi_with, ServeOptions};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let obs = Arc::new(Obs::new(b"slowloris-ssi"));
    let ssi = Arc::new(Ssi::new());
    let opts = ServeOptions {
        timeout: Some(Duration::from_millis(200)),
        stop: None,
    };
    {
        let (ssi, obs) = (Arc::clone(&ssi), Arc::clone(&obs));
        thread::spawn(move || serve_ssi_with(listener, ssi, obs, opts));
    }

    // The slowloris: half a frame header, then silence.
    let started = Instant::now();
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.write_all(&[0x00, 0x00]).expect("half a header");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    // The server must cut the stalled connection at its deadline: our
    // next read observes EOF (or a reset), never a hang.
    let mut buf = [0u8; 1];
    let n = s.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server must close the stalled connection");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stalled connection held past the deadline: {:?}",
        started.elapsed()
    );

    // The freed server still answers real clients.
    let obs = Arc::new(Obs::new(b"post-slowloris"));
    let client = RemoteSsi::connect(addr.to_string(), obs);
    let dep = deployment();
    let querier = dep.make_querier("energy-co", &dep.role);
    let query = parse_query(SFW_SQL).expect("parse");
    use tdsql_crypto::rng::SeedableRng;
    let mut rng = tdsql_crypto::rng::StdRng::seed_from_u64(5);
    let env = querier.make_envelope(&query, ProtocolKind::Basic, &mut rng);
    let qid = tdsql_core::service::SsiService::post_query(&client, env).expect("post");
    assert!(tdsql_core::service::SsiService::envelope(&client, qid).is_ok());
}

/// A dead backend is a *typed* exhaustion, not an endless retry loop: the
/// client must give up after its bounded reconnect budget with
/// `BackendUnavailable`, and the attempt accounting must surface in
/// `NetStats`.
#[test]
fn dead_backend_exhausts_reconnects_with_typed_error() {
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr")
    };
    let obs = Arc::new(Obs::new(b"dead-ssi"));
    let ssi = RemoteSsi::connect(addr.to_string(), obs);
    let err = tdsql_core::service::SsiService::results(&ssi, 0).expect_err("dead port");
    match err {
        ProtocolError::BackendUnavailable { peer, attempts } => {
            assert_eq!(peer, "ssi");
            assert!(attempts >= 2, "at least one reconnect before giving up");
        }
        other => panic!("expected BackendUnavailable, got {other:?}"),
    }
    let stats = ssi.stats();
    assert_eq!(stats.calls, 1);
    assert!(stats.attempts >= 2, "attempts: {stats:?}");
    assert_eq!(stats.backend_unavailable, 1, "{stats:?}");
}

#[test]
fn ssi_server_survives_abrupt_disconnects_and_garbage() {
    use std::io::Write;

    let addr = spawn_ssi();
    // A client that connects and immediately drops.
    drop(std::net::TcpStream::connect(addr).expect("connect"));
    // A client that writes garbage (not even a full frame header).
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.write_all(&[0xff]).expect("write");
    drop(s);
    // A client that sends a hostile length prefix.
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.write_all(&u32::MAX.to_be_bytes()).expect("write");
    drop(s);

    // The server is still healthy: a real query id allocation works.
    let obs = Arc::new(Obs::new(b"post-garbage"));
    let ssi = RemoteSsi::connect(addr.to_string(), obs);
    let dep = deployment();
    let querier = dep.make_querier("energy-co", &dep.role);
    let query = parse_query(SFW_SQL).expect("parse");
    use tdsql_crypto::rng::SeedableRng;
    let mut rng = tdsql_crypto::rng::StdRng::seed_from_u64(3);
    let env = querier.make_envelope(&query, ProtocolKind::Basic, &mut rng);
    let qid = tdsql_core::service::SsiService::post_query(&ssi, env).expect("post");
    let envelope = tdsql_core::service::SsiService::envelope(&ssi, qid).expect("download");
    assert_eq!(envelope.query_id, qid);
}

/// A querier keyed to the wrong epoch is the query's own error, not a
/// corrupted delivery: it crosses the wire as the `Crypto` it is, and the
/// driver stops at the first TDS instead of burning the retry budget on
/// every one of them.
#[test]
fn stale_epoch_querier_is_a_typed_crypto_error_across_the_wire() {
    use tdsql_core::stats::Phase;

    let dep = deployment();
    let stale = common::querier_at_epoch(
        &dep.master_seed,
        &dep.authority_secret,
        "energy-co",
        &dep.role,
        1,
    );
    let obs = Arc::new(Obs::new(b"stale-epoch"));
    let ssi = RemoteSsi::connect(spawn_ssi().to_string(), Arc::clone(&obs));
    let pool =
        RemoteTdsPool::connect(spawn_pool(&dep).to_string(), Arc::clone(&obs)).expect("roster");
    let mut driver =
        ServiceDriver::new(&ssi, &pool, obs, DriverConfig::default()).expect("remote driver");
    let err = driver
        .run_query(
            &stale,
            None,
            &parse_query(SQL).expect("parse"),
            ProtocolParams::new(ProtocolKind::SAgg),
        )
        .unwrap_err();
    assert!(matches!(err, ProtocolError::Crypto(_)), "{err:?}");
    assert_eq!(driver.stats.faults.total(), 0, "nothing was absorbed");
    let collection = driver.stats.phase(Phase::Collection);
    assert_eq!(collection.steps, 1, "stopped in its first round");
    assert_eq!(collection.partitions_reassigned, 0, "and never retried");
    assert_eq!(collection.participating_tds(), 0);
}
