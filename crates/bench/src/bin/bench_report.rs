//! Wall-clock benchmark report for the five protocols on the threaded
//! runtime.
//!
//! ```sh
//! cargo run --release -p tdsql-bench --bin bench_report            # write BENCH_4.json
//! cargo run --release -p tdsql-bench --bin bench_report -- --check BENCH_4.json
//! cargo run --release -p tdsql-bench --bin bench_report -- --throughput   # write BENCH_7.json
//! cargo run --release -p tdsql-bench --bin bench_report -- --throughput --determinism full
//! cargo run --release -p tdsql-bench --bin bench_report -- --check-throughput BENCH_7.json
//! cargo run --release -p tdsql-bench --bin bench_report -- --check-throughput BENCH_7.json --floor
//! cargo run --release -p tdsql-bench --bin bench_report -- --throughput-smoke
//! cargo run --release -p tdsql-bench --bin bench_report -- --net     # write BENCH_6.json
//! cargo run --release -p tdsql-bench --bin bench_report -- --check-net BENCH_6.json
//! cargo run --release -p tdsql-bench --bin bench_report -- --mixed   # write BENCH_8.json
//! cargo run --release -p tdsql-bench --bin bench_report -- --check-mixed BENCH_8.json
//! ```
//!
//! Sweeps the TDS population for every protocol and writes `BENCH_4.json`
//! at the repo root with one row per (protocol, n_tds):
//!
//! ```json
//! {"schema":"tdsql-bench-report/v1","seed":4,"workers":8,"rows":[
//!   {"protocol":"s_agg","n_tds":80,"wall_ms":12.3,"load_bytes":51234,
//!    "tuples":160,"faults_absorbed":7}, ...]}
//! ```
//!
//! Every run injects a light, seeded fault plan so `faults_absorbed`
//! demonstrates the at-least-once machinery under load; the result rows are
//! still checked against the cleartext oracle before a row is emitted.
//! `--check <file>` validates an existing report against the schema (used
//! by CI after regenerating the artifact).
//!
//! ## Throughput mode (`--throughput` → `BENCH_7.json`)
//!
//! Scales the population to {1k, 10k, 100k, 1M} TDSs on the *healthy* path
//! (no fault plan — this measures the sharded hot path, not the retry
//! machinery). All five protocols run at 1k and 10k; at 100k and 1M the
//! sweep keeps the two aggregation workhorses, S_Agg and ED_Hist. Each
//! row reports the *minimum* wall-clock over `runs` measured repetitions
//! (the first run of a freshly built world is dominated by first-touch
//! page faults, not steady-state crypto/arena cost), the per-phase
//! `threaded.<phase>.wall_us` histogram (count/sum/max), the hot-path
//! counters `aes_blocks_batched` / `arena_bytes` proving the batched
//! keystream and arena collection paths actually carried the run, and two
//! regression tripwires:
//!
//! * `key_schedules_delta` — AES key schedules expanded *during the run*
//!   must be O(key rings), never O(tuples): the per-ring `CipherContext`
//!   cache is what makes million-TDS collections affordable;
//! * `determinism` — how byte-determinism was verified for this row:
//!   `full` (8-worker sealed result blobs byte-identical to a 1-worker
//!   reference over the whole population; default at ≤10k), `sampled`
//!   (same comparison over a seeded contiguous 10k-TDS window of the
//!   population; default above 10k), or `off` (skipped; such rows are
//!   rejected by `--check-throughput`). Override the default with
//!   `--determinism full|sampled|off`.
//!
//! Queries are single-table on purpose: the nested-loop join would add an
//! O(N²) term that swamps the runtime costs this report tracks.
//! `--throughput-smoke` runs one small row (S_Agg @ 1k) with every check
//! enabled and writes nothing — the CI-sized canary.
//! `--check-throughput BENCH_7.json` validates the committed artifact's
//! schema; adding `--floor` also reruns S_Agg @ 10k live and fails if it
//! regresses more than 30% below the committed row's tuples/second.
//!
//! ## Loopback network mode (`--net` → `BENCH_6.json`)
//!
//! Same row schema as `BENCH_4`, but every (protocol, n_tds) point runs
//! through the `tdsql-net` framed TCP backend: fresh `serve_ssi` /
//! `serve_pool` loops on ephemeral loopback ports, `RemoteSsi` /
//! `RemoteTdsPool` clients, and the same light fault plan absorbed by the
//! retry machinery over the real transport. `load_bytes` counts frame
//! bytes on the wire (headers included, both connections) instead of
//! simulated upload volume, so the column doubles as a wire-overhead
//! measurement. Rows are oracle-checked before emission, exactly like the
//! in-process report.
//!
//! ## Mixed mode (`--mixed` → `BENCH_8.json`)
//!
//! Concurrent multi-query rows: N ∈ {1, 4, 16} queries with seeded
//! open-loop arrivals run through [`tdsql_core::run_mixed`] over one
//! shared in-process deployment — the admission scheduler, the
//! cross-query batching pool and the shared discovery cache all engaged.
//! Each row reports p50/p99 arrival-to-result latency, aggregate result
//! tuples per second, and the shared-layer counters
//! (`ssi.sched.admitted/queued/rejected`, `pool.batch.flushes`). Every
//! query's rows are oracle-checked before the row is emitted.
//! `--check-mixed BENCH_8.json` validates the committed artifact.

use std::fmt::Write as _;
use std::time::Instant;

use tdsql_core::access::AccessPolicy;
use tdsql_core::connectivity::FaultPlan;
use tdsql_core::plan::PhasePlan;
use tdsql_core::protocol::ProtocolKind;
use tdsql_core::runtime::threaded::{
    prepare_params_threaded, prepare_params_threaded_faulty, run_plan_threaded,
    run_threaded_faulty, FaultConfig,
};
use tdsql_core::runtime::SimBuilder;
use tdsql_core::tds::SYSTEM_ROLE;
use tdsql_core::workload::{smart_meters, SmartMeterConfig};
use tdsql_crypto::credential::Role;
use tdsql_sql::engine::execute;
use tdsql_sql::parser::parse_query;
use tdsql_sql::value::Value;

/// Schema identifier; bump on any change to the row layout.
const SCHEMA: &str = "tdsql-bench-report/v1";
/// Keys every row must carry, in emission order.
const ROW_KEYS: [&str; 6] = [
    "protocol",
    "n_tds",
    "wall_ms",
    "load_bytes",
    "tuples",
    "faults_absorbed",
];
const SEED: u64 = 4;
const WORKERS: usize = 8;
const N_SWEEP: [usize; 3] = [40, 80, 120];

struct Row {
    protocol: &'static str,
    n_tds: usize,
    wall_ms: f64,
    load_bytes: u64,
    tuples: u64,
    faults_absorbed: u64,
}

fn protocols() -> Vec<(&'static str, ProtocolKind)> {
    vec![
        ("basic", ProtocolKind::Basic),
        ("s_agg", ProtocolKind::SAgg),
        ("rnf_noise", ProtocolKind::RnfNoise { nf: 3 }),
        ("c_noise", ProtocolKind::CNoise),
        ("ed_hist", ProtocolKind::EdHist { buckets: 4 }),
    ]
}

fn fault_config() -> FaultConfig {
    FaultConfig {
        faults: FaultPlan::seeded(SEED)
            .with_loss(0.05)
            .with_duplication(0.05)
            .with_late(0.03)
            .with_corruption(0.03),
        retry_budget: 64,
        degrade: false,
    }
}

fn bench_one(name: &'static str, kind: ProtocolKind, n_tds: usize) -> Row {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds,
        districts: 4,
        readings_per_tds: 1,
        ..Default::default()
    });
    let world = SimBuilder::new()
        .seed(SEED)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let system = world.make_querier("system", SYSTEM_ROLE);
    let sql = match kind {
        // Basic has no aggregation phase: it benches the select-and-filter
        // dataflow the paper uses it for.
        ProtocolKind::Basic => "SELECT c.cid FROM consumer c WHERE c.accomodation = 'flat'",
        _ => {
            "SELECT c.district, COUNT(*), AVG(p.cons) FROM power p, consumer c \
             WHERE c.cid = p.cid GROUP BY c.district"
        }
    };
    let query = parse_query(sql).expect("bench query parses");
    let expected = execute(&oracle, &query).expect("oracle").rows;
    let cfg = fault_config();

    // Discovery (where the protocol needs it) runs under the same fault
    // plan; its absorbed faults count toward the row.
    let (params, dreport) =
        prepare_params_threaded_faulty(&world.tdss, &system, &query, kind, WORKERS, &cfg)
            .expect("discovery");

    let start = Instant::now();
    let (mut rows, report) =
        run_threaded_faulty(&world.tdss, &querier, &query, &params, WORKERS, &cfg)
            .expect("protocol run");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    // The report is only worth publishing if the faulty run still computed
    // the right answer. Floats compare with tolerance: the parallel reduce
    // merges partial aggregates in worker order, which perturbs the last
    // ulp of AVG relative to the sequential oracle.
    let mut want = expected.clone();
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    want.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    assert_eq!(rows.len(), want.len(), "{name}/{n_tds}: row count");
    for (got, exp) in rows.iter().zip(want.iter()) {
        assert_eq!(got.len(), exp.len(), "{name}/{n_tds}: arity");
        for (g, e) in got.iter().zip(exp.iter()) {
            match (g, e) {
                (Value::Float(x), Value::Float(y)) => {
                    let scale = y.abs().max(1.0);
                    assert!((x - y).abs() / scale < 1e-9, "{name}/{n_tds}: {x} vs {y}");
                }
                _ => assert_eq!(g, e, "{name}/{n_tds}: faulty run diverged from oracle"),
            }
        }
    }

    if std::env::var("TDSQL_METRICS").is_ok_and(|v| !v.is_empty()) {
        eprintln!("--- {name}/{n_tds} metrics ---");
        eprintln!("{}", report.metrics.render());
    }

    let load_bytes = report
        .metrics
        .counters()
        .filter(|(k, _)| k.ends_with(".bytes"))
        .map(|(_, v)| v)
        .sum();
    let tuples = report.metrics.counter("threaded.collection.tuples");
    Row {
        protocol: name,
        n_tds,
        wall_ms,
        load_bytes,
        tuples,
        faults_absorbed: report.faults.total() + dreport.faults.total(),
    }
}

fn render_report(rows: &[Row], seed: u64) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{SCHEMA}\",\"seed\":{seed},\"workers\":{WORKERS},\"rows\":["
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"protocol\":\"{}\",\"n_tds\":{},\"wall_ms\":{:.3},\"load_bytes\":{},\"tuples\":{},\"faults_absorbed\":{}}}",
            r.protocol, r.n_tds, r.wall_ms, r.load_bytes, r.tuples, r.faults_absorbed
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Structural schema validation without a JSON parser: the header must
/// match, every row object must carry every key, and the row count must be
/// exactly protocols × sweep points.
fn check(content: &str) -> std::result::Result<(), String> {
    let header = format!("{{\"schema\":\"{SCHEMA}\"");
    if !content.starts_with(&header) {
        return Err(format!("missing or wrong schema header (want {SCHEMA})"));
    }
    if !content.contains("\"rows\":[") {
        return Err("missing rows array".into());
    }
    let row_count = content.matches("{\"protocol\":").count();
    let want = protocols().len() * N_SWEEP.len();
    if row_count != want {
        return Err(format!("expected {want} rows, found {row_count}"));
    }
    for key in ROW_KEYS {
        let occurrences = content.matches(&format!("\"{key}\":")).count();
        if occurrences != row_count {
            return Err(format!(
                "key {key} appears {occurrences} times, expected {row_count}"
            ));
        }
    }
    for name in protocols().iter().map(|(n, _)| *n) {
        if !content.contains(&format!("\"protocol\":\"{name}\"")) {
            return Err(format!("protocol {name} missing from report"));
        }
    }
    Ok(())
}

// --- loopback network mode (BENCH_6.json) --------------------------------

/// Seed for the network sweep (also the obs trace key material).
const NET_SEED: u64 = 6;
/// Population sweep for the loopback rows: small enough that the
/// per-request round trips dominate, which is what this report measures.
const NET_SWEEP: [usize; 3] = [40, 80, 120];

/// One loopback row: spawn fresh `serve_ssi`/`serve_pool` loops on
/// ephemeral loopback ports, drive the query through the remote service
/// driver, and report wall clock plus frame-level byte accounting from the
/// client connections. Same row schema as [`check`] (BENCH_4), so the same
/// validator covers both artifacts; `load_bytes` here means bytes on the
/// wire rather than simulated upload volume.
fn net_one(name: &'static str, kind: ProtocolKind, n_tds: usize) -> Row {
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::thread;
    use tdsql_core::connectivity::Connectivity;
    use tdsql_core::protocol::ProtocolParams;
    use tdsql_core::ssi::Ssi;
    use tdsql_core::stats::Phase;
    use tdsql_core::{DriverConfig, ServiceDriver};
    use tdsql_net::deploy::Deployment;
    use tdsql_net::{serve_pool, serve_ssi, RemoteSsi, RemoteTdsPool};
    use tdsql_obs::Obs;

    let dep = Deployment {
        meters: SmartMeterConfig {
            n_tds,
            districts: 4,
            readings_per_tds: 1,
            ..Default::default()
        },
        ..Deployment::default()
    };
    let (server_pool, oracle) = dep.provision();

    let ssi_listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let ssi_addr = ssi_listener.local_addr().expect("ssi addr");
    let server_obs = Arc::new(Obs::new(&NET_SEED.to_be_bytes()));
    thread::spawn(move || serve_ssi(ssi_listener, Arc::new(Ssi::new()), server_obs));
    let pool_listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let pool_addr = pool_listener.local_addr().expect("pool addr");
    let server_obs = Arc::new(Obs::new(&NET_SEED.to_be_bytes()));
    thread::spawn(move || serve_pool(pool_listener, Arc::new(server_pool), server_obs));

    let obs = Arc::new(Obs::new(&NET_SEED.to_be_bytes()));
    let ssi = RemoteSsi::connect(ssi_addr.to_string(), Arc::clone(&obs));
    let pool =
        RemoteTdsPool::connect(pool_addr.to_string(), Arc::clone(&obs)).expect("pool roster");

    // Same light fault plan as the BENCH_4 rows: the at-least-once
    // machinery must absorb faults over the real transport too.
    let config = DriverConfig {
        connectivity: Connectivity::always_on().with_faults(fault_config().faults),
        seed: NET_SEED,
        retry_budget: 64,
        ..DriverConfig::default()
    };
    let mut driver = ServiceDriver::new(&ssi, &pool, obs, config).expect("driver");

    let querier = dep.make_querier("energy-co", "supplier");
    let system = dep.system_querier();
    let sql = match kind {
        ProtocolKind::Basic => "SELECT c.cid FROM consumer c WHERE c.accomodation = 'flat'",
        _ => {
            "SELECT c.district, COUNT(*), AVG(p.cons) FROM power p, consumer c \
             WHERE c.cid = p.cid GROUP BY c.district"
        }
    };
    let query = parse_query(sql).expect("bench query parses");
    let expected = execute(&oracle, &query).expect("oracle").rows;

    let start = Instant::now();
    let mut rows = driver
        .run_query(&querier, Some(&system), &query, ProtocolParams::new(kind))
        .expect("loopback run");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    // Oracle check before the row is emitted (float tolerance as in
    // bench_one: merge order perturbs the last ulp of AVG).
    let mut want = expected;
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    want.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    assert_eq!(rows.len(), want.len(), "{name}/{n_tds}: row count");
    for (got, exp) in rows.iter().zip(want.iter()) {
        for (g, e) in got.iter().zip(exp.iter()) {
            match (g, e) {
                (Value::Float(x), Value::Float(y)) => {
                    let scale = y.abs().max(1.0);
                    assert!((x - y).abs() / scale < 1e-9, "{name}/{n_tds}: {x} vs {y}");
                }
                _ => assert_eq!(g, e, "{name}/{n_tds}: loopback run diverged from oracle"),
            }
        }
    }

    Row {
        protocol: name,
        n_tds,
        wall_ms,
        load_bytes: ssi.stats().bytes_total() + pool.stats().bytes_total(),
        tuples: driver.stats.phase(Phase::Collection).total_tuples(),
        faults_absorbed: driver.stats.faults.total(),
    }
}

fn run_net() {
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>6} {:>10} {:>11} {:>7} {:>16}",
        "protocol", "n_tds", "wall_ms", "load_bytes", "tuples", "faults_absorbed"
    );
    for n_tds in NET_SWEEP {
        for (name, kind) in protocols() {
            let row = net_one(name, kind, n_tds);
            println!(
                "{:<10} {:>6} {:>10.3} {:>11} {:>7} {:>16}",
                row.protocol,
                row.n_tds,
                row.wall_ms,
                row.load_bytes,
                row.tuples,
                row.faults_absorbed
            );
            rows.push(row);
        }
    }
    let report = render_report(&rows, NET_SEED);
    check(&report).expect("freshly rendered report must satisfy its own schema");
    let dest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_6.json");
    std::fs::write(&dest, &report).expect("write BENCH_6.json");
    println!("\nwrote {}", dest.display());
}

// --- mixed mode (BENCH_8.json) ------------------------------------------

/// Schema identifier of the mixed-workload report; bump on row-layout
/// changes.
const MIXED_SCHEMA: &str = "tdsql-bench-mixed/v1";
/// Seed for the mixed sweep (per-query seeds and arrival offsets derive
/// from it).
const MIXED_SEED: u64 = 8;
/// Concurrency sweep: rows at 1 (solo baseline), 4 and 16 in-flight
/// queries.
const MIXED_SWEEP: [usize; 3] = [1, 4, 16];
/// Arrival offsets are seeded-uniform in `[0, MIXED_ARRIVAL_SPREAD_MS)`:
/// open-loop, so queueing under quota pressure shows up in the latency
/// percentiles rather than being serialized away.
const MIXED_ARRIVAL_SPREAD_MS: u64 = 20;
/// Distinct querier identities the sweep cycles through, so the
/// per-querier admission quota is actually exercised at N = 16.
const MIXED_QUERIERS: usize = 4;
/// Keys every mixed row must carry, in emission order.
const MIXED_ROW_KEYS: [&str; 10] = [
    "n_queries",
    "wall_ms",
    "p50_ms",
    "p99_ms",
    "tuples",
    "tuples_per_sec",
    "admitted",
    "queued",
    "rejected",
    "batch_flushes",
];

struct MixedRow {
    n_queries: usize,
    wall_ms: u64,
    p50_ms: u64,
    p99_ms: u64,
    tuples: u64,
    tuples_per_sec: f64,
    admitted: u64,
    queued: u64,
    rejected: u64,
    batch_flushes: u64,
}

/// splitmix64: seeds per-query RNG streams and arrival offsets from
/// [`MIXED_SEED`] without an RNG object.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nearest-rank percentile over an already sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One mixed row: N concurrent queries (protocols cycled, querier
/// identities cycled over [`MIXED_QUERIERS`] ids, seeded arrivals) through
/// `run_mixed` over a fresh shared deployment. Every query's rows are
/// checked against the cleartext oracle before the row is emitted.
fn mixed_one(n_queries: usize) -> MixedRow {
    use std::sync::Arc;
    use tdsql_core::protocol::ProtocolParams;
    use tdsql_core::ssi::Ssi;
    use tdsql_core::{run_mixed, DriverConfig, MixedOptions, MixedQuery};
    use tdsql_net::deploy::Deployment;
    use tdsql_obs::Obs;

    let dep = Deployment {
        meters: SmartMeterConfig {
            n_tds: 60,
            districts: 4,
            readings_per_tds: 1,
            ..Default::default()
        },
        ..Deployment::default()
    };
    let (pool, oracle) = dep.provision();
    let ssi = Ssi::new();
    let obs = Arc::new(Obs::new(&MIXED_SEED.to_be_bytes()));
    let system = dep.system_querier();

    let kinds = protocols();
    let mut queries = Vec::with_capacity(n_queries);
    let mut expected = Vec::with_capacity(n_queries);
    for i in 0..n_queries {
        // Cycle starts at S_Agg so the N = 1 solo baseline is an
        // aggregation row (Basic's selective filter can legitimately
        // return zero tuples at this population).
        let (_, kind) = kinds[(i + 1) % kinds.len()];
        let sql = match kind {
            ProtocolKind::Basic => "SELECT c.cid FROM consumer c WHERE c.accomodation = 'flat'",
            _ => {
                "SELECT c.district, COUNT(*), AVG(p.cons) FROM power p, consumer c \
                 WHERE c.cid = p.cid GROUP BY c.district"
            }
        };
        let query = parse_query(sql).expect("bench query parses");
        expected.push(execute(&oracle, &query).expect("oracle").rows);
        queries.push(MixedQuery {
            querier: dep.make_querier(&format!("energy-co-{}", i % MIXED_QUERIERS), "supplier"),
            query,
            params: ProtocolParams::new(kind),
            seed: splitmix64(MIXED_SEED ^ (i as u64).wrapping_mul(2) ^ 1),
            arrival_ms: splitmix64(MIXED_SEED ^ (i as u64).wrapping_mul(2))
                % MIXED_ARRIVAL_SPREAD_MS,
        });
    }

    let base = DriverConfig::default();
    let report = run_mixed(
        &ssi,
        &pool,
        &obs,
        Some(&system),
        &base,
        &MixedOptions::default(),
        &queries,
    );

    let mut latencies = Vec::with_capacity(n_queries);
    let mut tuples = 0u64;
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let outcome = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("mixed/{n_queries} query {i} failed: {e}"));
        let mut rows = outcome.rows.clone();
        let mut want = expected[i].clone();
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        want.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(
            rows.len(),
            want.len(),
            "mixed/{n_queries} query {i}: row count"
        );
        for (got, exp) in rows.iter().zip(want.iter()) {
            for (g, e) in got.iter().zip(exp.iter()) {
                match (g, e) {
                    (Value::Float(x), Value::Float(y)) => {
                        let scale = y.abs().max(1.0);
                        assert!(
                            (x - y).abs() / scale < 1e-9,
                            "mixed/{n_queries} query {i}: {x} vs {y}"
                        );
                    }
                    _ => assert_eq!(g, e, "mixed/{n_queries} query {i}: diverged from oracle"),
                }
            }
        }
        latencies.push(outcome.latency_ms);
        tuples += outcome.tuples;
    }
    latencies.sort_unstable();

    let wall_s = (report.wall_ms.max(1) as f64) / 1e3;
    MixedRow {
        n_queries,
        wall_ms: report.wall_ms,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        tuples,
        tuples_per_sec: tuples as f64 / wall_s,
        admitted: report.sched.counter("ssi.sched.admitted"),
        queued: report.sched.counter("ssi.sched.queued"),
        rejected: report.sched.counter("ssi.sched.rejected"),
        batch_flushes: report.batch.counter("pool.batch.flushes"),
    }
}

fn render_mixed(rows: &[MixedRow]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{MIXED_SCHEMA}\",\"seed\":{MIXED_SEED},\"rows\":["
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"n_queries\":{},\"wall_ms\":{},\"p50_ms\":{},\"p99_ms\":{},\"tuples\":{},\"tuples_per_sec\":{:.3},\"admitted\":{},\"queued\":{},\"rejected\":{},\"batch_flushes\":{}}}",
            r.n_queries,
            r.wall_ms,
            r.p50_ms,
            r.p99_ms,
            r.tuples,
            r.tuples_per_sec,
            r.admitted,
            r.queued,
            r.rejected,
            r.batch_flushes
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Structural validation of a mixed report, same no-parser idiom as
/// [`check`]: header, one row per sweep point, every key on every row.
fn check_mixed(content: &str) -> std::result::Result<(), String> {
    let header = format!("{{\"schema\":\"{MIXED_SCHEMA}\"");
    if !content.starts_with(&header) {
        return Err(format!(
            "missing or wrong schema header (want {MIXED_SCHEMA})"
        ));
    }
    if !content.contains("\"rows\":[") {
        return Err("missing rows array".into());
    }
    let row_count = content.matches("{\"n_queries\":").count();
    if row_count != MIXED_SWEEP.len() {
        return Err(format!(
            "expected {} rows, found {row_count}",
            MIXED_SWEEP.len()
        ));
    }
    for key in MIXED_ROW_KEYS {
        let occurrences = content.matches(&format!("\"{key}\":")).count();
        if occurrences != row_count {
            return Err(format!(
                "key {key} appears {occurrences} times, expected {row_count}"
            ));
        }
    }
    for n in MIXED_SWEEP {
        if !content.contains(&format!("{{\"n_queries\":{n},")) {
            return Err(format!("sweep point n_queries={n} missing from report"));
        }
    }
    Ok(())
}

fn run_mixed_report() {
    let mut rows = Vec::new();
    println!(
        "{:<9} {:>8} {:>7} {:>7} {:>7} {:>13} {:>9} {:>7} {:>9} {:>13}",
        "n_queries",
        "wall_ms",
        "p50_ms",
        "p99_ms",
        "tuples",
        "tuples_per_sec",
        "admitted",
        "queued",
        "rejected",
        "batch_flushes"
    );
    for n in MIXED_SWEEP {
        let row = mixed_one(n);
        println!(
            "{:<9} {:>8} {:>7} {:>7} {:>7} {:>13.1} {:>9} {:>7} {:>9} {:>13}",
            row.n_queries,
            row.wall_ms,
            row.p50_ms,
            row.p99_ms,
            row.tuples,
            row.tuples_per_sec,
            row.admitted,
            row.queued,
            row.rejected,
            row.batch_flushes
        );
        rows.push(row);
    }
    let report = render_mixed(&rows);
    check_mixed(&report).expect("freshly rendered report must satisfy its own schema");
    let dest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_8.json");
    std::fs::write(&dest, &report).expect("write BENCH_8.json");
    println!("\nwrote {}", dest.display());
}

// --- throughput mode (BENCH_7.json) -------------------------------------

/// Schema identifier of the current throughput report; bump on row-layout
/// changes.
const THROUGHPUT_SCHEMA: &str = "tdsql-bench-throughput/v2";
const THROUGHPUT_SEED: u64 = 5;
const THROUGHPUT_WORKERS: usize = 8;
const THROUGHPUT_SWEEP: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];
/// Above this population the default determinism mode drops from `full`
/// (1-worker reference over the whole population) to `sampled`, and the
/// protocol sweep trims to the aggregation workhorses.
const DETERMINISM_CAP: usize = 10_000;
/// Wall-clock is the minimum over this many measured runs per row. The
/// first run at large populations is dominated by first-touch page faults
/// on freshly built worlds; the minimum reports steady-state throughput.
const THROUGHPUT_RUNS: usize = 2;
/// Key schedules a single run may expand: O(rings), with headroom. A
/// per-tuple or per-TDS rebuild blows straight through this at n ≥ 1k.
const MAX_RUN_KEY_SCHEDULES: u64 = 64;
/// `--check-throughput --floor`: the live 10k S_Agg run may be at most
/// this much slower than the committed row before the check fails.
const FLOOR_REGRESSION: f64 = 0.30;
/// Keys every throughput row must carry, in emission order.
const THROUGHPUT_ROW_KEYS: [&str; 11] = [
    "protocol",
    "n_tds",
    "wall_ms",
    "runs",
    "tuples",
    "tuples_per_sec",
    "results",
    "determinism",
    "key_schedules_delta",
    "aes_blocks_batched",
    "arena_bytes",
];
/// How a throughput row's byte-determinism was verified.
///
/// `full` reruns the whole population with 1 worker and asserts the result
/// blobs equal the sharded run's, byte for byte. `sampled` does the same
/// 8-worker-vs-1-worker byte comparison over a seeded contiguous window of
/// [`DETERMINISM_CAP`] TDSs — full fidelity on a sub-population, ~1% of the
/// cost at 1M (whole-population identity at small N plus per-item RNG
/// seeding make scheduler-dependence at large N a window-visible bug).
/// `off` skips the check; [`check_throughput`] rejects rows recorded `off`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DeterminismMode {
    Full,
    Sampled,
    Off,
}

impl DeterminismMode {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(Self::Full),
            "sampled" => Some(Self::Sampled),
            "off" => Some(Self::Off),
            _ => None,
        }
    }

    fn default_for(n_tds: usize) -> Self {
        if n_tds <= DETERMINISM_CAP {
            Self::Full
        } else {
            Self::Sampled
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::Sampled => "sampled",
            Self::Off => "off",
        }
    }
}

/// Per-phase wall-clock digest lifted from `threaded.<phase>.wall_us`.
struct PhaseWall {
    phase: &'static str,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

struct ThroughputRow {
    protocol: &'static str,
    n_tds: usize,
    wall_ms: f64,
    runs: usize,
    tuples: u64,
    tuples_per_sec: f64,
    results: u64,
    determinism: DeterminismMode,
    key_schedules_delta: u64,
    aes_blocks_batched: u64,
    arena_bytes: u64,
    phases: Vec<PhaseWall>,
}

/// Above 10k only the aggregation workhorses run: a full five-protocol
/// sweep at that scale buys no extra signal for several more minutes of CI
/// time.
fn throughput_protocols(n_tds: usize) -> Vec<(&'static str, ProtocolKind)> {
    if n_tds > DETERMINISM_CAP {
        vec![
            ("s_agg", ProtocolKind::SAgg),
            ("ed_hist", ProtocolKind::EdHist { buckets: 4 }),
        ]
    } else {
        protocols()
    }
}

fn throughput_one(
    name: &'static str,
    kind: ProtocolKind,
    n_tds: usize,
    determinism: DeterminismMode,
) -> ThroughputRow {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds,
        districts: 8,
        readings_per_tds: 1,
        ..Default::default()
    });
    let world = SimBuilder::new()
        .seed(THROUGHPUT_SEED)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let system = world.make_querier("system", SYSTEM_ROLE);
    // Single-table queries: the join's O(N²) nested loop is not what this
    // report measures.
    let sql = match kind {
        ProtocolKind::Basic => "SELECT c.cid FROM consumer c WHERE c.accomodation = 'apartment'",
        _ => "SELECT c.district, COUNT(*), AVG(c.cid) FROM consumer c GROUP BY c.district",
    };
    let query = parse_query(sql).expect("throughput query parses");
    let expected = execute(&oracle, &query).expect("oracle").rows;

    let params = prepare_params_threaded(&world.tdss, &system, &query, kind, THROUGHPUT_WORKERS)
        .expect("discovery");

    // Determinism tripwire: the sharded sealed blobs must be byte-identical
    // to a 1-worker reference of the same seed. `full` compares over the
    // whole population; `sampled` over a seeded contiguous window of
    // DETERMINISM_CAP TDSs (the per-item RNG makes any scheduler-dependence
    // a window-visible bug, and small-N rows in the same sweep already pin
    // whole-population identity).
    let det_slice: Option<&[_]> = match determinism {
        DeterminismMode::Full => Some(&world.tdss[..]),
        DeterminismMode::Sampled => {
            let len = DETERMINISM_CAP.min(n_tds);
            // Seeded window offset: splitmix64 of (seed, n_tds) — fixed per
            // sweep point, independent of wall clock.
            let mut x = THROUGHPUT_SEED
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(n_tds as u64);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            let off = (x % (n_tds - len + 1) as u64) as usize;
            Some(&world.tdss[off..off + len])
        }
        DeterminismMode::Off => None,
    };
    if let Some(tdss) = det_slice {
        let plan = PhasePlan::compile(&query, &params);
        let sharded = run_plan_threaded(tdss, &querier, &query, &params, &plan, THROUGHPUT_WORKERS)
            .expect("sharded run");
        let reference =
            run_plan_threaded(tdss, &querier, &query, &params, &plan, 1).expect("reference run");
        assert_eq!(
            sharded,
            reference,
            "{name}/{n_tds}: sharded blobs differ from the 1-worker reference \
             ({} determinism over {} TDSs)",
            determinism.as_str(),
            tdss.len(),
        );
    }

    // Best-of-N measured runs, each with the key-schedule tripwire armed
    // and its result rows oracle-checked. Hot-path counters come from the
    // first repetition; the runs are deterministic, so every repetition
    // batches the same blocks and seals the same bytes.
    let mut best = None;
    let mut aes_blocks_batched = 0;
    let mut arena_bytes = 0;
    let mut key_schedules = 0;
    for rep in 0..THROUGHPUT_RUNS {
        let blocks_before = tdsql_crypto::aes::aes_blocks_batched();
        let arena_before = tdsql_core::arena::arena_bytes_sealed();
        let schedules_before = tdsql_crypto::key_schedules_built();
        let start = Instant::now();
        let (mut rows, report) = run_threaded_faulty(
            &world.tdss,
            &querier,
            &query,
            &params,
            THROUGHPUT_WORKERS,
            &FaultConfig::default(),
        )
        .expect("throughput run");
        let wall = start.elapsed();
        let key_schedules_delta = tdsql_crypto::key_schedules_built() - schedules_before;
        assert!(
            key_schedules_delta <= MAX_RUN_KEY_SCHEDULES,
            "{name}/{n_tds}: {key_schedules_delta} AES key schedules expanded during \
             one run — the per-ring CipherContext cache has regressed to per-call"
        );
        if rep == 0 {
            aes_blocks_batched = tdsql_crypto::aes::aes_blocks_batched() - blocks_before;
            arena_bytes = tdsql_core::arena::arena_bytes_sealed() - arena_before;
            key_schedules = key_schedules_delta;
        }

        // Oracle check (same float tolerance rationale as bench_one).
        let mut want = expected.clone();
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        want.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(rows.len(), want.len(), "{name}/{n_tds}: row count");
        for (got, exp) in rows.iter().zip(want.iter()) {
            for (g, e) in got.iter().zip(exp.iter()) {
                match (g, e) {
                    (Value::Float(x), Value::Float(y)) => {
                        let scale = y.abs().max(1.0);
                        assert!((x - y).abs() / scale < 1e-9, "{name}/{n_tds}: {x} vs {y}");
                    }
                    _ => assert_eq!(g, e, "{name}/{n_tds}: run diverged from oracle"),
                }
            }
        }
        if best.as_ref().map_or(true, |(w, _)| wall < *w) {
            best = Some((wall, report));
        }
    }
    let (wall, report) = best.expect("at least one measured run");

    let tuples = report.metrics.counter("threaded.collection.tuples");
    let phases = ["collection", "aggregation", "filtering"]
        .iter()
        .filter_map(|phase| {
            report
                .metrics
                .histogram(&format!("threaded.{phase}.wall_us"))
                .map(|h| PhaseWall {
                    phase,
                    count: h.count,
                    sum_us: h.sum,
                    max_us: h.max,
                })
        })
        .collect();
    ThroughputRow {
        protocol: name,
        n_tds,
        wall_ms: wall.as_secs_f64() * 1e3,
        runs: THROUGHPUT_RUNS,
        tuples,
        tuples_per_sec: tuples as f64 / wall.as_secs_f64().max(1e-9),
        results: report.metrics.counter("threaded.filtering.results"),
        determinism,
        key_schedules_delta: key_schedules,
        aes_blocks_batched,
        arena_bytes,
        phases,
    }
}

fn render_throughput(rows: &[ThroughputRow]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{THROUGHPUT_SCHEMA}\",\"seed\":{THROUGHPUT_SEED},\
         \"workers\":{THROUGHPUT_WORKERS},\"rows\":["
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"protocol\":\"{}\",\"n_tds\":{},\"wall_ms\":{:.3},\"runs\":{},\"tuples\":{},\
             \"tuples_per_sec\":{:.1},\"results\":{},\"determinism\":\"{}\",\
             \"key_schedules_delta\":{},\"aes_blocks_batched\":{},\"arena_bytes\":{},\"phases\":[",
            r.protocol,
            r.n_tds,
            r.wall_ms,
            r.runs,
            r.tuples,
            r.tuples_per_sec,
            r.results,
            r.determinism.as_str(),
            r.key_schedules_delta,
            r.aes_blocks_batched,
            r.arena_bytes,
        );
        for (j, p) in r.phases.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"phase\":\"{}\",\"wall_us_count\":{},\"wall_us_sum\":{},\"wall_us_max\":{}}}",
                p.phase, p.count, p.sum_us, p.max_us
            );
        }
        out.push_str("]}");
    }
    out.push_str("\n]}\n");
    out
}

/// Structural schema validation for the throughput report, mirroring
/// [`check`]: header, row count, per-row keys, the full sweep present, and
/// no row with determinism verification switched off.
fn check_throughput(content: &str) -> std::result::Result<(), String> {
    let header = format!("{{\"schema\":\"{THROUGHPUT_SCHEMA}\"");
    if !content.starts_with(&header) {
        return Err(format!(
            "missing or wrong schema header (want {THROUGHPUT_SCHEMA})"
        ));
    }
    if !content.contains("\"rows\":[") {
        return Err("missing rows array".into());
    }
    let row_count = content.matches("{\"protocol\":").count();
    let want: usize = THROUGHPUT_SWEEP
        .iter()
        .map(|&n| throughput_protocols(n).len())
        .sum();
    if row_count != want {
        return Err(format!("expected {want} rows, found {row_count}"));
    }
    for key in THROUGHPUT_ROW_KEYS {
        let occurrences = content.matches(&format!("\"{key}\":")).count();
        if occurrences != row_count {
            return Err(format!(
                "key {key} appears {occurrences} times, expected {row_count}"
            ));
        }
    }
    for name in protocols().iter().map(|(n, _)| *n) {
        if !content.contains(&format!("\"protocol\":\"{name}\"")) {
            return Err(format!("protocol {name} missing from report"));
        }
    }
    for n in THROUGHPUT_SWEEP {
        if !content.contains(&format!("\"n_tds\":{n}")) {
            return Err(format!("sweep point n_tds={n} missing from report"));
        }
    }
    if content.contains("\"determinism\":\"off\"") {
        return Err("rows with determinism verification off are not publishable".into());
    }
    let verified = content.matches("\"determinism\":\"full\"").count()
        + content.matches("\"determinism\":\"sampled\"").count();
    if verified != row_count {
        return Err(format!(
            "{verified} of {row_count} rows carry a verified determinism mode"
        ));
    }
    if !content.contains("\"phase\":\"collection\"") {
        return Err("no per-phase wall-us digests present".into());
    }
    Ok(())
}

/// Extract `tuples_per_sec` from the committed row matching (protocol,
/// n_tds). Keeps the dependency-free hand-rolled JSON discipline of the
/// rest of this binary: rows are emitted one per line by
/// [`render_throughput`], so a line-oriented scan is exact.
fn committed_tuples_per_sec(content: &str, protocol: &str, n_tds: usize) -> Option<f64> {
    let marker = format!("\"protocol\":\"{protocol}\",\"n_tds\":{n_tds},");
    let line = content.lines().find(|l| l.contains(&marker))?;
    let field = "\"tuples_per_sec\":";
    let at = line.find(field)? + field.len();
    let rest = &line[at..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

fn print_throughput_row(r: &ThroughputRow) {
    println!(
        "{:<10} {:>8} {:>11.3} {:>4} {:>8} {:>14.1} {:>8} {:>8} {:>9} {:>12} {:>11}",
        r.protocol,
        r.n_tds,
        r.wall_ms,
        r.runs,
        r.tuples,
        r.tuples_per_sec,
        r.results,
        r.determinism.as_str(),
        r.key_schedules_delta,
        r.aes_blocks_batched,
        r.arena_bytes,
    );
}

fn print_throughput_header() {
    println!(
        "{:<10} {:>8} {:>11} {:>4} {:>8} {:>14} {:>8} {:>8} {:>9} {:>12} {:>11}",
        "protocol",
        "n_tds",
        "wall_ms",
        "runs",
        "tuples",
        "tuples_per_sec",
        "results",
        "det",
        "key_sched",
        "aes_blocks",
        "arena_bytes"
    );
}

fn run_throughput(smoke: bool, mode_override: Option<DeterminismMode>) {
    print_throughput_header();
    if smoke {
        // One small row with every tripwire armed; writes nothing.
        let mode = mode_override.unwrap_or_else(|| DeterminismMode::default_for(1_000));
        let row = throughput_one("s_agg", ProtocolKind::SAgg, 1_000, mode);
        print_throughput_row(&row);
        println!("\nthroughput smoke ok");
        return;
    }
    let mut rows = Vec::new();
    for n_tds in THROUGHPUT_SWEEP {
        let mode = mode_override.unwrap_or_else(|| DeterminismMode::default_for(n_tds));
        for (name, kind) in throughput_protocols(n_tds) {
            let row = throughput_one(name, kind, n_tds, mode);
            print_throughput_row(&row);
            rows.push(row);
        }
    }
    let report = render_throughput(&rows);
    if mode_override != Some(DeterminismMode::Off) {
        check_throughput(&report).expect("freshly rendered report must satisfy its own schema");
    } else {
        eprintln!("warning: determinism off — this report will not pass --check-throughput");
    }
    let dest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_7.json");
    std::fs::write(&dest, &report).expect("write BENCH_7.json");
    println!("\nwrote {}", dest.display());
}

/// `--check-throughput <path> --floor`: rerun S_Agg @ 10k live and compare
/// against the committed row. A regression beyond [`FLOOR_REGRESSION`]
/// means the batched-AES / arena hot path has been knocked out from under
/// the collection phase, not just scheduler noise: the live number is a
/// best-of-[`THROUGHPUT_RUNS`] minimum on the same sweep point.
fn run_floor_check(content: &str) {
    let committed = committed_tuples_per_sec(content, "s_agg", 10_000)
        .expect("committed report has no s_agg/10k row to check the floor against");
    let row = throughput_one(
        "s_agg",
        ProtocolKind::SAgg,
        10_000,
        DeterminismMode::default_for(10_000),
    );
    let floor = committed * (1.0 - FLOOR_REGRESSION);
    println!(
        "floor: live s_agg/10k {:.0} tuples/s vs committed {:.0} (floor {:.0})",
        row.tuples_per_sec, committed, floor
    );
    if row.tuples_per_sec < floor {
        eprintln!(
            "throughput floor violated: live {:.0} < {:.0} ({}% below committed {:.0})",
            row.tuples_per_sec,
            floor,
            (FLOOR_REGRESSION * 100.0) as u32,
            committed
        );
        std::process::exit(1);
    }
    println!("floor ok");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--net") => return run_net(),
        Some("--check-net") => {
            // BENCH_6 rows share BENCH_4's schema; only the artifact (and
            // the meaning of load_bytes: wire bytes, not upload volume)
            // differs, so the same validator applies.
            let path = args.get(1).map(String::as_str).unwrap_or("BENCH_6.json");
            let content =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            match check(&content) {
                Ok(()) => {
                    println!("{path}: schema ok");
                    return;
                }
                Err(why) => {
                    eprintln!("{path}: schema violation: {why}");
                    std::process::exit(1);
                }
            }
        }
        Some("--mixed") => return run_mixed_report(),
        Some("--check-mixed") => {
            let path = args.get(1).map(String::as_str).unwrap_or("BENCH_8.json");
            let content =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            match check_mixed(&content) {
                Ok(()) => {
                    println!("{path}: schema ok");
                    return;
                }
                Err(why) => {
                    eprintln!("{path}: schema violation: {why}");
                    std::process::exit(1);
                }
            }
        }
        Some(cmd @ ("--throughput" | "--throughput-smoke")) => {
            let mode = match args.iter().position(|a| a == "--determinism") {
                Some(i) => {
                    let value = args.get(i + 1).map(String::as_str).unwrap_or("");
                    Some(DeterminismMode::parse(value).unwrap_or_else(|| {
                        eprintln!("--determinism wants full|sampled|off, got {value:?}");
                        std::process::exit(2);
                    }))
                }
                None => None,
            };
            return run_throughput(cmd == "--throughput-smoke", mode);
        }
        Some("--check-throughput") => {
            let path = args
                .iter()
                .skip(1)
                .find(|a| !a.starts_with("--"))
                .map(String::as_str)
                .unwrap_or("BENCH_7.json");
            let content =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            match check_throughput(&content) {
                Ok(()) => println!("{path}: schema ok"),
                Err(why) => {
                    eprintln!("{path}: schema violation: {why}");
                    std::process::exit(1);
                }
            }
            if args.iter().any(|a| a == "--floor") {
                run_floor_check(&content);
            }
            return;
        }
        _ => {}
    }
    if args.first().map(String::as_str) == Some("--check") {
        let path = args.get(1).map(String::as_str).unwrap_or("BENCH_4.json");
        let content =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        match check(&content) {
            Ok(()) => {
                println!("{path}: schema ok");
                return;
            }
            Err(why) => {
                eprintln!("{path}: schema violation: {why}");
                std::process::exit(1);
            }
        }
    }

    let mut rows = Vec::new();
    println!(
        "{:<10} {:>6} {:>10} {:>11} {:>7} {:>16}",
        "protocol", "n_tds", "wall_ms", "load_bytes", "tuples", "faults_absorbed"
    );
    for n_tds in N_SWEEP {
        for (name, kind) in protocols() {
            let row = bench_one(name, kind, n_tds);
            println!(
                "{:<10} {:>6} {:>10.3} {:>11} {:>7} {:>16}",
                row.protocol,
                row.n_tds,
                row.wall_ms,
                row.load_bytes,
                row.tuples,
                row.faults_absorbed
            );
            rows.push(row);
        }
    }

    let report = render_report(&rows, SEED);
    check(&report).expect("freshly rendered report must satisfy its own schema");
    // The repo root, resolved from the crate's manifest directory so the
    // artifact lands in the same place regardless of the invocation cwd.
    let dest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_4.json");
    std::fs::write(&dest, &report).expect("write BENCH_4.json");
    println!("\nwrote {}", dest.display());
}
