//! Multi-query execution: N concurrent queryboxes over one shared
//! SSI + TDS-pool deployment.
//!
//! Each query gets its own [`ServiceDriver`] (own seed, own round clock,
//! own retry budgets — the single-query execution path is untouched), but
//! all drivers share:
//!
//! * the admission [`Scheduler`] — per-querier quotas, fair round-robin
//!   dispatch, typed rejection under backpressure;
//! * a [`BatchingPool`] over the real pool — concurrent same-index TDS
//!   steps coalesce into [`crate::service::TdsPool::multi_step`] contacts;
//!   every admitted driver enrolls, so a leader never waits for a batch
//!   nobody can still join;
//! * optionally a [`DiscoveryCache`] — one discovery run feeds every
//!   query over the same grouping domain until the TTL expires.
//!
//! Arrivals are open-loop: each query declares an `arrival_ms` offset
//! from the start of the run and is launched at that time regardless of
//! how the others are doing, so the measured latencies include queueing
//! under load — the quantity `bench_report --mixed` reports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tdsql_obs::{Field, MetricsSet, Obs};
use tdsql_sql::ast::Query;
use tdsql_sql::value::Value;

use crate::error::{ProtocolError, Result};
use crate::protocol::ProtocolParams;
use crate::querier::Querier;
use crate::runtime::backoff;
use crate::runtime::batch::BatchingPool;
use crate::runtime::service::{DriverConfig, ServiceDriver};
use crate::service::{SsiService, TdsPool};
use crate::ssi::sched::{DiscoveryCache, SchedConfig, Scheduler};

/// One query in a mixed workload.
pub struct MixedQuery {
    /// The issuing querier (identity drives the admission quota).
    pub querier: Querier,
    /// The query itself.
    pub query: Query,
    /// Protocol parameters.
    pub params: ProtocolParams,
    /// Per-query driver seed: a solo run with this seed is the
    /// byte-identity baseline for this query's rows.
    pub seed: u64,
    /// Open-loop arrival offset from the start of the run.
    pub arrival_ms: u64,
}

/// What one query produced, with its end-to-end latency (admission wait
/// included — arrival to rows).
#[derive(Debug)]
pub struct MixedOutcome {
    /// Decrypted result rows.
    pub rows: Vec<Vec<Value>>,
    /// Arrival-to-result wall time.
    pub latency_ms: u64,
    /// Result tuple count (numerator of aggregate tuples/s).
    pub tuples: u64,
}

/// The whole run: per-query outcomes in input order plus shared-layer
/// metric snapshots.
#[derive(Debug)]
pub struct MixedReport {
    /// One entry per input query, same order.
    pub outcomes: Vec<Result<MixedOutcome>>,
    /// First arrival to last completion.
    pub wall_ms: u64,
    /// Admission counters (`ssi.sched.*`).
    pub sched: MetricsSet,
    /// Cross-query batching counters (`pool.batch.*`).
    pub batch: MetricsSet,
}

/// Shared-layer knobs for a mixed run.
#[derive(Debug, Clone)]
pub struct MixedOptions {
    /// Admission policy.
    pub sched: SchedConfig,
    /// Upper bound on a leader's wait for batch-mates (0 disables
    /// cross-query batching). A leader flushes sooner once every other
    /// admitted driver is blocked in the pool.
    pub batch_window_ms: u64,
    /// Parts per batch cap.
    pub max_batch: usize,
    /// Discovery-cache TTL (0 disables the shared cache).
    pub discovery_ttl_ms: u64,
}

impl Default for MixedOptions {
    fn default() -> Self {
        Self {
            sched: SchedConfig::default(),
            batch_window_ms: 2,
            max_batch: 16,
            discovery_ttl_ms: 60_000,
        }
    }
}

fn elapsed_ms(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Run `queries` concurrently against one shared deployment. `base`
/// supplies everything but the per-query seed (connectivity/fault plan,
/// retry budget, round cap); its `discovery_cache` is replaced by the
/// run-shared cache when `opts.discovery_ttl_ms > 0`.
pub fn run_mixed(
    ssi: &dyn SsiService,
    pool: &dyn TdsPool,
    obs: &Arc<Obs>,
    system: Option<&Querier>,
    base: &DriverConfig,
    opts: &MixedOptions,
    queries: &[MixedQuery],
) -> MixedReport {
    let sched = Scheduler::new(opts.sched.clone());
    let cache = if opts.discovery_ttl_ms > 0 {
        Some(Arc::new(DiscoveryCache::new(Duration::from_millis(
            opts.discovery_ttl_ms,
        ))))
    } else {
        None
    };
    let batching = BatchingPool::new(
        pool,
        Duration::from_millis(opts.batch_window_ms),
        opts.max_batch,
    );
    let start = Instant::now();
    let mut outcomes: Vec<Result<MixedOutcome>> = Vec::with_capacity(queries.len());

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(queries.len());
        for q in queries {
            let sched = &sched;
            let cache = cache.clone();
            let batching = &batching;
            let obs = Arc::clone(obs);
            handles.push(s.spawn(move || -> Result<MixedOutcome> {
                if q.arrival_ms > 0 {
                    backoff::sleep_ms(q.arrival_ms);
                }
                let arrived = Instant::now();
                // Admission: blocks under quota pressure, rejects with a
                // typed error once this querier's queue is full.
                let _permit = sched.admit(&q.querier.id)?;
                // Enrolled until this worker returns (or unwinds): batch
                // leaders wait for this driver only while it lives.
                let _member = batching.member();
                let config = DriverConfig {
                    seed: q.seed,
                    discovery_cache: cache,
                    ..base.clone()
                };
                let mut driver = ServiceDriver::new(ssi, batching, obs, config)?;
                let rows = driver.run_query(&q.querier, system, &q.query, q.params.clone())?;
                Ok(MixedOutcome {
                    latency_ms: elapsed_ms(arrived),
                    tuples: rows.len() as u64,
                    rows,
                })
            }));
        }
        for h in handles {
            outcomes.push(
                h.join().unwrap_or_else(|_| {
                    Err(ProtocolError::Protocol("mixed worker panicked".into()))
                }),
            );
        }
    });

    let wall_ms = elapsed_ms(start);
    let report = MixedReport {
        outcomes,
        wall_ms,
        sched: sched.metrics(),
        batch: batching.metrics(),
    };
    obs.event(
        "mixed.run.done",
        None,
        vec![
            Field::u64("queries", queries.len() as u64),
            Field::u64("wall_ms", wall_ms),
            Field::u64("admitted", report.sched.counter("ssi.sched.admitted")),
            Field::u64("queued", report.sched.counter("ssi.sched.queued")),
            Field::u64("rejected", report.sched.counter("ssi.sched.rejected")),
            Field::u64("batch_flushes", report.batch.counter("pool.batch.flushes")),
        ],
    );
    report
}
