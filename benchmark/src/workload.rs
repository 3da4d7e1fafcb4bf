//! The five workloads: what each provisions, how one query (or one wave of
//! two) runs through the public seam, and how a phase of queries is timed.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use tdsql_core::querier::Querier;
use tdsql_core::runtime::service::{DriverConfig, ServiceDriver};
use tdsql_core::service::{LocalTdsPool, SsiService, TdsPool};
use tdsql_core::ssi::journal::{JournalConfig, SyncPolicy};
use tdsql_core::ssi::Ssi;
use tdsql_core::workload::SmartMeterConfig;
use tdsql_core::{run_mixed, MixedOptions, MixedQuery, ProtocolKind, ProtocolParams};
use tdsql_net::deploy::Deployment;
use tdsql_net::{serve_pool, serve_ssi, NetStats, RemoteSsi, RemoteTdsPool};
use tdsql_obs::Obs;
use tdsql_sql::ast::Query;
use tdsql_sql::engine::execute;
use tdsql_sql::parser::parse_query;
use tdsql_sql::value::Value;

use crate::reference::RefTask;
use crate::trace::{SsiProbe, Tracing};

/// The aggregate query of every workload: one tuple per TDS, 8 groups.
pub const AGG_SQL: &str = "SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district";
/// The Select-From-Where query of the mixed workload's Basic waves.
const BASIC_SQL: &str = "SELECT c.cid FROM consumer c WHERE c.accomodation = 'apartment'";
const DISTRICTS: usize = 8;
/// Second query of a mixed wave arrives uniformly in `0..ARRIVAL_SPREAD_MS`.
const ARRIVAL_SPREAD_MS: u64 = 32;

/// Where the SSI and the pool live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// In-process `Ssi` + `LocalTdsPool`.
    InProcess,
    /// The same, with the SSI recovered from (and appending to) a journal.
    Journaled,
    /// `serve_ssi` + `serve_pool` threads behind `RemoteSsi`/`RemoteTdsPool`.
    Loopback,
}

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// One query at a time through a solo `ServiceDriver`.
    Solo(ProtocolKind),
    /// Waves of two concurrent queries through one `run_mixed` call each.
    MixedWaves,
}

/// Protocols the mixed waves cycle through; both queries of a wave use
/// the same one, so a cycle holds five equally weighted latency classes
/// and the median falls inside the middle class, not between two.
pub const WAVE_CYCLE: [(&str, ProtocolKind); 5] = [
    ("s_agg", ProtocolKind::SAgg),
    ("basic", ProtocolKind::Basic),
    ("rnf_noise", ProtocolKind::RnfNoise { nf: 3 }),
    ("c_noise", ProtocolKind::CNoise),
    ("ed_hist", ProtocolKind::EdHist { buckets: 4 }),
];

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub backend: Backend,
    pub n_tds: usize,
    /// Queries (waves) of every set-up's warm-up; part of `setup_s`.
    pub warmup: usize,
    /// Least number of timed queries (waves) of a run, and the one after
    /// which `peak_rss_mib` is read: the SSI keeps its observation log by
    /// design, so memory grows with the queries served, and read at exit a
    /// time-boxed run would charge a faster program with more of it.
    pub timed: usize,
    /// Are the workload's times the box's to stretch? Then they are
    /// reported divided by how much slower than on a calm box the reference
    /// task ran beside them (`reference::speed_factor`). True of the four
    /// solo workloads, which keep one CPU busy; a mixed wave waits on
    /// batch-window timers for 98 % of its time and does not follow the box.
    pub cpu_bound: bool,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "inproc_sagg_10k",
        why: "S_Agg over 10 000 in-process TDSs: TDS-side work (tds, crypto, sql, codec) is most of the wall, ssi and driver the rest; net, journal and batch do nothing",
        shape: Shape::Solo(ProtocolKind::SAgg),
        backend: Backend::InProcess,
        n_tds: 10_000,
        warmup: 25,
        timed: 60,
        cpu_bound: true,
    },
    Spec {
        name: "inproc_cnoise_2k",
        why: "C_Noise over 2 000 in-process TDSs: Det tags, 8x fake tuples, a discovery sub-query and tag partitioning; a gain bought on the nDet path at this path's expense shows here",
        shape: Shape::Solo(ProtocolKind::CNoise),
        backend: Backend::InProcess,
        n_tds: 2_000,
        warmup: 34,
        timed: 80,
        cpu_bound: true,
    },
    Spec {
        name: "journal_sagg_10k",
        why: "Exact twin of inproc_sagg_10k with the SSI journaled, so the difference between the two is the journal's cost: writes beside reads for the ssi layer",
        shape: Shape::Solo(ProtocolKind::SAgg),
        backend: Backend::Journaled,
        n_tds: 10_000,
        warmup: 15,
        timed: 40,
        cpu_bound: true,
    },
    Spec {
        name: "loopback_sagg_1k",
        why: "S_Agg over 1 000 TDSs through serve_ssi/serve_pool on 127.0.0.1: thousands of blocking round trips and little compute, so frame, wire, client and server do almost all the work",
        shape: Shape::Solo(ProtocolKind::SAgg),
        backend: Backend::Loopback,
        n_tds: 1_000,
        warmup: 20,
        timed: 40,
        cpu_bound: true,
    },
    Spec {
        name: "mixed_inproc_100",
        why: "Waves of 2 concurrent queries through run_mixed over 100 TDSs, cycling five protocols: batch-window wait dominates, so sched, batch and mixed are what is measured",
        shape: Shape::MixedWaves,
        backend: Backend::InProcess,
        n_tds: 100,
        warmup: 6,
        timed: 15,
        cpu_bound: false,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// splitmix64 of `seed` advanced by `stream`: population seed, per-query
/// driver seeds and arrival offsets all derive from `--seed` through it.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Rows in canonical order, for comparison with the oracle.
fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by_cached_key(|r| format!("{r:?}"));
    rows
}

/// Do `got` and the oracle's `want` (already canonical) agree? Floats at
/// 1e-9 relative: merge order perturbs the last ulp of an average.
pub fn rows_match(got: &[Vec<Value>], want: &[Vec<Value>]) -> bool {
    let got = canonical(got.to_vec());
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len()
                && g.iter().zip(w).all(|(g, w)| match (g, w) {
                    (Value::Float(x), Value::Float(y)) => (x - y).abs() / y.abs().max(1.0) < 1e-9,
                    _ => g == w,
                })
        })
}

/// One query with its protocol and the oracle's answer.
struct Case {
    label: &'static str,
    query: Query,
    params: ProtocolParams,
    expected: Vec<Vec<Value>>,
}

impl Case {
    /// Why `rows` counts as a failed query, if it does.
    fn check(&self, rows: &tdsql_core::Result<Vec<Vec<Value>>>) -> Result<(), String> {
        match rows {
            Ok(rows) if rows_match(rows, &self.expected) => Ok(()),
            Ok(_) => Err("rows differ from the oracle".into()),
            Err(e) => Err(e.to_string()),
        }
    }
}

enum Services {
    Local { ssi: Ssi, pool: LocalTdsPool },
    Remote { ssi: RemoteSsi, pool: RemoteTdsPool },
}

/// Free bytes of the filesystem `dir` is on, as `df` reports them.
fn free_bytes(dir: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let kib: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// Where journal files live: `/dev/shm` when it has 2 GiB free, else the
/// system's temporary directory. On tmpfs what is timed is the program's
/// cost; on a shared disk it is the host's flush latency.
pub fn journal_dir() -> PathBuf {
    let shm = Path::new("/dev/shm");
    match free_bytes(shm) {
        Some(free) if free >= 2 << 30 => shm.to_path_buf(),
        _ => std::env::temp_dir(),
    }
}

/// A journal file of this process; removed when dropped.
pub struct JournalFile(pub PathBuf);

impl JournalFile {
    pub fn new(dir: &Path, stem: &str) -> Self {
        let path = dir.join(format!("tdsql-bench-{stem}-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Self(path)
    }
}

impl Drop for JournalFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One provisioned deployment, ready to serve queries.
pub struct World {
    dep: Deployment,
    services: Services,
    cases: Vec<Case>,
    obs: Arc<Obs>,
    journal: Option<JournalFile>,
    seed: u64,
    /// The solo workloads' querier, and the one discovery posts as.
    querier: Querier,
    system: Querier,
    reference: RefTask,
}

impl World {
    /// Provision the population and the oracle, open the journal or bind
    /// and connect the loopback servers.
    pub fn build(spec: &Spec, seed: u64) -> Result<World, String> {
        let dep = Deployment {
            meters: SmartMeterConfig {
                n_tds: spec.n_tds,
                districts: DISTRICTS,
                readings_per_tds: 1,
                seed: mix(seed, 0),
                ..SmartMeterConfig::default()
            },
            ..Deployment::default()
        };
        let (pool, oracle) = dep.provision();
        let case = |label, sql: &str, kind| -> Result<Case, String> {
            let query = parse_query(sql).map_err(|e| format!("{sql}: {e}"))?;
            let expected = execute(&oracle, &query)
                .map_err(|e| format!("oracle: {e}"))?
                .rows;
            Ok(Case {
                label,
                query,
                params: ProtocolParams::new(kind),
                expected: canonical(expected),
            })
        };
        let cases = match spec.shape {
            Shape::Solo(kind) => vec![case("solo", AGG_SQL, kind)?],
            Shape::MixedWaves => WAVE_CYCLE
                .iter()
                .map(|&(label, kind)| {
                    let sql = if kind == ProtocolKind::Basic {
                        BASIC_SQL
                    } else {
                        AGG_SQL
                    };
                    case(label, sql, kind)
                })
                .collect::<Result<_, _>>()?,
        };
        let obs = Arc::new(Obs::new(&seed.to_be_bytes()));
        let mut journal = None;
        let services = match spec.backend {
            Backend::InProcess => Services::Local {
                ssi: Ssi::new(),
                pool,
            },
            Backend::Journaled => {
                let file = JournalFile::new(&journal_dir(), spec.name);
                let ssi = Ssi::recover(JournalConfig {
                    path: file.0.clone(),
                    sync: SyncPolicy::EveryN(64),
                    snapshot_every: 4096,
                })
                .map_err(|e| format!("journal: {e}"))?;
                journal = Some(file);
                Services::Local { ssi, pool }
            }
            Backend::Loopback => {
                let bind = || TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"));
                let addr = |l: &TcpListener| {
                    l.local_addr()
                        .map(|a| a.to_string())
                        .map_err(|e| format!("local addr: {e}"))
                };
                let (ssi_listener, pool_listener) = (bind()?, bind()?);
                let (ssi_addr, pool_addr) = (addr(&ssi_listener)?, addr(&pool_listener)?);
                // Detached on purpose: without a stop flag the serve loops
                // block in accept() and cost nothing until the process
                // exits; with one they would poll every 5 ms on the one
                // CPU this workload is pinned to.
                let server_obs = Arc::clone(&obs);
                std::thread::spawn(move || {
                    serve_ssi(ssi_listener, Arc::new(Ssi::new()), server_obs)
                });
                let server_obs = Arc::clone(&obs);
                std::thread::spawn(move || serve_pool(pool_listener, Arc::new(pool), server_obs));
                Services::Remote {
                    ssi: RemoteSsi::connect(ssi_addr, Arc::clone(&obs)),
                    pool: RemoteTdsPool::connect(pool_addr, Arc::clone(&obs))
                        .map_err(|e| format!("pool roster: {e}"))?,
                }
            }
        };
        Ok(World {
            querier: dep.make_querier("energy-co", &dep.role),
            system: dep.system_querier(),
            reference: RefTask::new(),
            dep,
            services,
            cases,
            obs,
            journal,
            seed,
        })
    }

    pub fn ssi(&self) -> &dyn SsiService {
        match &self.services {
            Services::Local { ssi, .. } => ssi,
            Services::Remote { ssi, .. } => ssi,
        }
    }

    pub fn pool(&self) -> &dyn TdsPool {
        match &self.services {
            Services::Local { pool, .. } => pool,
            Services::Remote { pool, .. } => pool,
        }
    }

    /// Client-side connection counters, SSI and pool summed.
    pub fn net_stats(&self) -> Option<NetStats> {
        match &self.services {
            Services::Local { .. } => None,
            Services::Remote { ssi, pool } => {
                let (a, b) = (ssi.stats(), pool.stats());
                Some(NetStats {
                    calls: a.calls + b.calls,
                    attempts: a.attempts + b.attempts,
                    reconnects: a.reconnects + b.reconnects,
                    backend_unavailable: a.backend_unavailable + b.backend_unavailable,
                    bytes_sent: a.bytes_sent + b.bytes_sent,
                    bytes_received: a.bytes_received + b.bytes_received,
                })
            }
        }
    }

    /// Size of the journal file, if the SSI keeps one.
    pub fn journal_len(&self) -> Option<u64> {
        let file = self.journal.as_ref()?;
        std::fs::metadata(&file.0).ok().map(|m| m.len())
    }
}

/// What one phase of queries measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Queries (waves) run; a wave holds two queries.
    pub units: u64,
    pub queries: u64,
    pub failed: u64,
    /// Arrival-to-rows latency of every query that returned rows.
    pub latency_ms: Vec<f64>,
    /// The same, by wave protocol (mixed only).
    pub latency_by_label: Vec<(&'static str, Vec<f64>)>,
    /// Wall time of each `run_mixed` call (mixed only).
    pub wave_ms: Vec<f64>,
    /// Microseconds the reference task took after each query (wave).
    pub ref_us: Vec<f64>,
    /// Wall time of the phase, the reference task's own time taken out.
    pub wall_s: f64,
    /// Tuples the SSI collected (discovery sub-queries included).
    pub collected: u64,
    /// `VmHWM` in KiB when the phase's `at_least`-th query ended.
    pub rss_kib: u64,
    /// Per-query driver statistics, summed (solo only).
    pub load_bytes: u64,
    pub rounds: u64,
    pub participating: u64,
    /// `run_mixed` shared-layer counters, summed over waves.
    pub sched: [u64; 3],
    pub batch_flushes: u64,
    pub batch_parts: u64,
}

impl Phase {
    /// Seconds the reference task took during the phase.
    pub fn reference_s(&self) -> f64 {
        self.ref_us.iter().sum::<f64>() / 1e6
    }
}

/// Run queries `first..`, closed loop, until `at_least` of them are done
/// *and* `seconds` have passed: the count makes a run's memory reading
/// comparable, the time makes it long enough to measure. A mixed phase
/// that runs past its count finishes its cycle of waves, so the timed
/// latency classes stay equally weighted. The next query starts when the previous
/// one has been checked against the oracle and purged; both are outside
/// each query's latency and inside the wall. The reference task runs after
/// the purge, outside both.
pub fn run_phase<'a>(
    world: &'a World,
    spec: &Spec,
    first: u64,
    at_least: usize,
    seconds: f64,
    probe: &SsiProbe<'a>,
    tracing: Option<&Tracing<'a>>,
) -> Result<Phase, String> {
    let mut phase = Phase {
        latency_by_label: WAVE_CYCLE.iter().map(|&(l, _)| (l, Vec::new())).collect(),
        ..Phase::default()
    };
    let pool: &dyn TdsPool = match tracing {
        Some(t) => t.pool,
        None => world.pool(),
    };
    let collected_before = probe.collected.get();
    let begun = Instant::now();
    loop {
        let cycle_open = matches!(spec.shape, Shape::MixedWaves)
            && phase.units > at_least as u64
            && !phase.units.is_multiple_of(WAVE_CYCLE.len() as u64);
        if phase.units >= at_least as u64 && begun.elapsed().as_secs_f64() >= seconds && !cycle_open
        {
            break;
        }
        let ordinal = first + phase.units;
        let span = tracing.map(|t| {
            let sampled = phase.units.is_multiple_of(t.sample_every);
            (t.rec, t.rec.begin_query(ordinal, sampled))
        });
        match spec.shape {
            Shape::Solo(_) => {
                let case = &world.cases[0];
                let posted = Instant::now();
                let config = DriverConfig {
                    seed: mix(world.seed, 1 + ordinal),
                    ..DriverConfig::default()
                };
                let mut driver = ServiceDriver::new(probe, pool, Arc::clone(&world.obs), config)
                    .map_err(|e| format!("driver: {e}"))?;
                let rows = driver.run_query(
                    &world.querier,
                    Some(&world.system),
                    &case.query,
                    case.params.clone(),
                );
                let ms = posted.elapsed().as_secs_f64() * 1e3;
                if let Some((rec, start)) = span {
                    rec.end_query("driver.query", start);
                }
                phase.queries += 1;
                match case.check(&rows) {
                    Ok(()) => {
                        phase.latency_ms.push(ms);
                        phase.load_bytes += driver.stats.load_bytes();
                        phase.rounds += driver.round;
                        phase.participating += driver.stats.participating_tds() as u64;
                    }
                    Err(why) => {
                        eprintln!("query {ordinal}: {why}");
                        phase.failed += 1;
                    }
                }
            }
            Shape::MixedWaves => {
                let slot = (ordinal % WAVE_CYCLE.len() as u64) as usize;
                let case = &world.cases[slot];
                let queries: Vec<MixedQuery> = (0..2u64)
                    .map(|k| MixedQuery {
                        querier: world
                            .dep
                            .make_querier(&format!("energy-co-{k}"), &world.dep.role),
                        query: case.query.clone(),
                        params: case.params.clone(),
                        seed: mix(world.seed, 1 + 4 * ordinal + k),
                        arrival_ms: k * (mix(world.seed, 3 + 4 * ordinal) % ARRIVAL_SPREAD_MS),
                    })
                    .collect();
                let wave = Instant::now();
                let report = run_mixed(
                    probe,
                    pool,
                    &world.obs,
                    Some(&world.system),
                    &DriverConfig::default(),
                    &MixedOptions::default(),
                    &queries,
                );
                phase.wave_ms.push(wave.elapsed().as_secs_f64() * 1e3);
                if let Some((rec, start)) = span {
                    rec.end_query("mixed.wave", start);
                }
                for (name, slot) in ["admitted", "queued", "rejected"]
                    .iter()
                    .zip(&mut phase.sched)
                {
                    *slot += report.sched.counter(&format!("ssi.sched.{name}"));
                }
                phase.batch_flushes += report.batch.counter("pool.batch.flushes");
                phase.batch_parts += report.batch.counter("pool.batch.parts");
                for outcome in report.outcomes {
                    phase.queries += 1;
                    let (ms, rows) = match outcome {
                        Ok(o) => (o.latency_ms as f64, Ok(o.rows)),
                        Err(e) => (0.0, Err(e)),
                    };
                    match case.check(&rows) {
                        Ok(()) => {
                            phase.latency_ms.push(ms);
                            phase.latency_by_label[slot].1.push(ms);
                        }
                        Err(why) => {
                            eprintln!("wave {ordinal} ({}): {why}", case.label);
                            phase.failed += 1;
                        }
                    }
                }
            }
        }
        probe
            .purge_posted()
            .map_err(|e| format!("purge after query {ordinal}: {e}"))?;
        phase.units += 1;
        if phase.units == at_least as u64 {
            phase.rss_kib = peak_rss_kib()?;
        }
        phase.ref_us.push(world.reference.run());
    }
    phase.wall_s = begun.elapsed().as_secs_f64() - phase.reference_s();
    phase.collected = probe.collected.get() - collected_before;
    Ok(phase)
}

/// `VmHWM` of this process, in KiB.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads_streams() {
        assert_eq!(mix(13, 0), mix(13, 0));
        assert_ne!(mix(13, 0), mix(13, 1));
        assert_ne!(mix(13, 0), mix(14, 0));
    }

    #[test]
    fn rows_match_sorts_and_tolerates_the_last_ulp() {
        let want = canonical(vec![
            vec![Value::Str("a".into()), Value::Float(1.0)],
            vec![Value::Str("b".into()), Value::Int(2)],
        ]);
        let got = vec![
            vec![Value::Str("b".into()), Value::Int(2)],
            vec![Value::Str("a".into()), Value::Float(1.0 + 1e-12)],
        ];
        assert!(rows_match(&got, &want));
        assert!(!rows_match(
            &[vec![Value::Str("a".into()), Value::Float(1.1)]],
            &want
        ));
        assert!(!rows_match(&[], &want));
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(spec(w.name).map(|s| s.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            // The memory reading is taken when the `timed`-th query ends.
            assert!(w.warmup > 0 && w.timed > 0, "{}", w.name);
        }
        assert!(spec("nope").is_none());
    }
}
