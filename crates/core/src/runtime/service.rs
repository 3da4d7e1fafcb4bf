//! The plan interpreter.
//!
//! [`ServiceDriver`] executes a compiled [`PhasePlan`] against *any*
//! implementation of the [`SsiService`] + [`TdsPool`] seam — the in-process
//! [`crate::ssi::Ssi`]/[`crate::service::LocalTdsPool`] pair (which is how
//! [`crate::runtime::SimWorld`] runs every query), or the framed TCP
//! clients from `tdsql-net`. It is the only place the protocol engine of
//! §3–§4 is written down: time advances in connectivity-sampled rounds,
//! delivery is at-least-once under the SSI settle ledger, every work item
//! carries a retry budget with round-based backoff, and a SIZE-bounded
//! query degrades to a partial result where an unbounded one aborts — so
//! the five protocols and the chaos harness run the same in a simulation
//! and over a real wire.
//!
//! Every TDS contact — a collection answer, a reduce or a finalize step —
//! takes one path in two legs: the download leg ([`Contact::download`])
//! steps the TDS, and the settle leg ([`ServiceDriver::settle_contact`])
//! delivers its upload under a fresh assignment and settles it on the
//! SSI's ledger. The collection loop (one work item per TDS) and the
//! partition loop (one per partition) differ only in which item they
//! attempt next and in what they do with an attempt that settled nothing.
//!
//! # Threads
//!
//! A round's first contact runs both legs inline, so a query every TDS
//! rejects fails there having allocated one work item. When the round has
//! at least [`PIPELINE_MIN_CONTACTS`] contacts, the driver thread then
//! plans the rest in dispatch order — retry budgets charged, work items
//! allocated, dropouts drawn — and their download legs run on scoped worker
//! threads, one per available CPU, while the driver thread settles the
//! results in dispatch order ([`ServiceDriver::pipelined`]). Workers call
//! nothing but [`TdsPool::step`]: every SSI call, RNG draw, statistic and
//! fault leg stays on the driver thread, in the order a driver stepping
//! every TDS inline would take them, so the output is byte-identical at
//! any worker count. Smaller rounds, and every round of a collection under
//! a SIZE tuple bound (which asks the SSI before each TDS), step inline. A
//! round that fails in its settle leg has already planned the contacts
//! behind the failing one.
//!
//! Two fault sources compose here:
//!
//! * the seeded [`crate::connectivity::FaultPlan`] injects loss,
//!   duplication, late delivery, reordering and corruption at fixed
//!   (phase, item, attempt) coordinates, whatever the backend;
//! * *real* transport failures surface as
//!   [`crate::service::is_transport_error`] errors from the remote
//!   implementations, and are folded into the same taxonomy: a failed TDS
//!   step counts as a reassignment, a failed delivery as a lost upload.
//!   Both consume a delivery attempt, so a dead server terminates in
//!   [`ProtocolError::QueryAborted`] instead of hanging.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use tdsql_obs::{Field, Obs};

use tdsql_crypto::rng::seq::SliceRandom;
use tdsql_crypto::rng::{SeedableRng, StdRng};
use tdsql_sql::ast::Query;
use tdsql_sql::value::{GroupKey, Value};

use crate::bytes::Bytes;
use crate::connectivity::{Connectivity, FaultPlan};
use crate::error::{ProtocolError, Result};
use crate::message::{
    AssignmentId, DeliveryOutcome, GroupTag, QueryEnvelope, QueryTarget, StoredTuple,
};
use crate::partition::{random_partitions, tag_partitions};
use crate::plan::{FinalizeOp, FinalizePartitioning, Partitioning, PhasePlan, ReduceSpec, Until};
use crate::protocol::{discovery, ProtocolKind, ProtocolParams};
use crate::querier::Querier;
use crate::runtime::backoff::BackoffPolicy;
use crate::service::{is_transport_error, SsiService, StepResult, TdsPool, TdsStep};
use crate::ssi::sched::DiscoveryCache;
use crate::stats::{Phase, RunStats, TdsWork};
use crate::tds::ResultDest;

/// Rounds a "late" delivery spends in flight before the SSI finally sees it.
const LATE_DELAY: u64 = 3;

/// A round whose contacts number at least this many steps its TDSs on
/// worker threads ([`ServiceDriver::pipelined`]); a smaller one steps each
/// TDS inline, just before its settle.
const PIPELINE_MIN_CONTACTS: usize = 512;

/// Contacts a worker steps before it hands their results to the settler.
const PIPELINE_CHUNK: usize = 256;

/// Worker threads of a pipelined round: the machine's parallelism, read
/// once per process rather than per driver or per round.
fn pipeline_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Round-based backoff after a failed delivery attempt: 2, 4, 8, 16, then
/// 16 rounds between retries of the same work item.
fn backoff(attempt: u32) -> u64 {
    1u64 << attempt.min(4)
}

/// Driver configuration (the knobs [`crate::runtime::SimBuilder`] exposes).
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Connectivity / fault model.
    pub connectivity: Connectivity,
    /// RNG seed for the whole run (connectivity sampling, shuffles, and
    /// the per-step seeds handed to the pool).
    pub seed: u64,
    /// Cap on collection rounds when the query has no SIZE duration bound.
    pub default_max_rounds: u64,
    /// Delivery attempts per work item before abandon (SIZE-bounded) or
    /// abort (unbounded).
    pub retry_budget: u32,
    /// Shared discovery-distribution cache ([`DiscoveryCache`]), `None`
    /// to rediscover per run. Skipping the discovery sub-query on a hit
    /// advances this driver's RNG differently from a cache-cold run, so
    /// byte-identity comparisons must hold the cache state fixed too.
    pub discovery_cache: Option<Arc<DiscoveryCache>>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            connectivity: Connectivity::always_on(),
            seed: 0,
            default_max_rounds: 1_000,
            retry_budget: 64,
            discovery_cache: None,
        }
    }
}

/// One partition awaiting processing, with its at-least-once bookkeeping.
struct WorkItem {
    item: u64,
    partition: Vec<StoredTuple>,
    attempts: u32,
    not_before: u64,
}

impl WorkItem {
    /// This item's current attempt, stepped by TDS `tds`.
    fn contact(&self, tds: usize, step: TdsStep, seed: u64) -> Contact<'_> {
        Contact {
            tds,
            item: self.item,
            attempt: self.attempts,
            step,
            inputs: &self.partition,
            seed,
        }
    }
}

/// A posted query, as every phase of its run needs it.
struct Posted<'q> {
    qid: u64,
    env: &'q QueryEnvelope,
    params: &'q ProtocolParams,
}

/// One attempt at one work item: TDS `tds` runs `step` over `inputs`,
/// its randomness drawn from `seed` ([`ServiceDriver::step_seed`]).
struct Contact<'i> {
    tds: usize,
    item: u64,
    attempt: u32,
    step: TdsStep,
    inputs: &'i [StoredTuple],
    seed: u64,
}

impl Contact<'_> {
    /// The download leg of a contact: the TDS steps over the envelope (a
    /// collect step) or its partition (any other), one bit of either
    /// flipped when the fault plan corrupts this download. It reads only
    /// the pool and its arguments, so a worker thread may run it.
    fn download(
        &self,
        pool: &dyn TdsPool,
        q: &Posted<'_>,
        faults: &FaultPlan,
        phase: Phase,
        round: u64,
    ) -> Result<StepResult> {
        let (item, attempt) = (self.item, self.attempt);
        let mut env = Cow::Borrowed(q.env);
        let mut inputs = Cow::Borrowed(self.inputs);
        if faults.corrupt_download(phase, item, attempt) {
            if self.step == TdsStep::Collect {
                let bad = faults.corrupt_blob(&env.enc_query, phase, item, attempt);
                env.to_mut().enc_query = bad;
            } else if let Some(first) = inputs.to_mut().first_mut() {
                first.blob = faults.corrupt_blob(&first.blob, phase, item, attempt);
            }
        }
        let (tds, step, seed) = (self.tds, self.step, self.seed);
        pool.step(tds, &env, q.params, round, step, &inputs, seed)
    }
}

/// What a step uploads, named by the SSI method that settles it.
#[derive(Clone)]
enum Upload {
    Collection(Vec<StoredTuple>),
    Working(Vec<StoredTuple>),
    Results(Vec<Bytes>),
}

impl Upload {
    fn of(step: TdsStep, output: StepResult) -> Result<Self> {
        Ok(match (step, output) {
            (TdsStep::Collect, StepResult::Working(ts)) => Self::Collection(ts),
            (TdsStep::Collect, StepResult::Results(_)) => {
                return Err(ProtocolError::Protocol(
                    "collect step returned result rows".into(),
                ))
            }
            (_, StepResult::Working(ts)) => Self::Working(ts),
            (_, StepResult::Results(rs)) => Self::Results(rs),
        })
    }

    fn len(&self) -> u64 {
        match self {
            Self::Collection(ts) | Self::Working(ts) => ts.len() as u64,
            Self::Results(rs) => rs.len() as u64,
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            Self::Collection(ts) | Self::Working(ts) => {
                ts.iter().map(|t| t.blob.len() as u64).sum()
            }
            Self::Results(rs) => rs.iter().map(|b| b.len() as u64).sum(),
        }
    }
}

/// An upload the fault plan delayed: from the SSI's clock it timed out,
/// but the bytes are still in flight and land at `deliver_at`.
struct LateUpload {
    tds: usize,
    assignment: AssignmentId,
    upload: Upload,
    deliver_at: u64,
}

/// Drives queries end-to-end over the [`SsiService`] + [`TdsPool`] seam.
pub struct ServiceDriver<'a> {
    ssi: &'a dyn SsiService,
    pool: &'a dyn TdsPool,
    /// The run's trace collector. Network-path telemetry routes through
    /// here — never through a raw console sink.
    pub obs: Arc<Obs>,
    /// Connectivity and fault model.
    pub connectivity: Connectivity,
    /// The run's RNG (connectivity sampling, partition shuffles).
    pub rng: StdRng,
    /// Statistics of the most recent [`ServiceDriver::run_query`].
    pub stats: RunStats,
    /// Global round clock.
    pub round: u64,
    /// Collection-round cap when SIZE has no duration bound.
    pub default_max_rounds: u64,
    /// Delivery attempts per work item.
    pub retry_budget: u32,
    in_discovery: bool,
    seed: u64,
    tds_ids: Vec<u64>,
    discovery_cache: Option<Arc<DiscoveryCache>>,
}

impl<'a> ServiceDriver<'a> {
    /// Connect a driver to an SSI and a TDS pool. Fetches the population
    /// ids once (two round-trips on a remote pool). A pool with no TDS is
    /// refused: no query over it has anyone to collect from or to run a
    /// reduction, so every answer would be vacuous or fail later.
    pub fn new(
        ssi: &'a dyn SsiService,
        pool: &'a dyn TdsPool,
        obs: Arc<Obs>,
        config: DriverConfig,
    ) -> Result<Self> {
        let tds_ids = pool.tds_ids()?;
        if tds_ids.is_empty() {
            return Err(ProtocolError::Protocol("empty TDS population".into()));
        }
        Ok(Self {
            ssi,
            pool,
            obs,
            connectivity: config.connectivity,
            rng: StdRng::seed_from_u64(config.seed),
            stats: RunStats::new(),
            round: 0,
            default_max_rounds: config.default_max_rounds,
            retry_budget: config.retry_budget,
            in_discovery: false,
            seed: config.seed,
            tds_ids,
            discovery_cache: config.discovery_cache,
        })
    }

    /// Population size.
    pub fn population(&self) -> usize {
        self.tds_ids.len()
    }

    /// Run an idempotent control-plane call (post, envelope fetch, size
    /// check, window close, result download, ledger queries), retrying
    /// transport failures with seeded-jitter backoff — the schedule is long
    /// enough (~2 s worst case) to ride out a server crash/restart cycle.
    ///
    /// Posts are safe to retry because the service surface dedupes them by
    /// envelope-ciphertext digest ([`crate::ssi::Ssi::post_query_durable`]):
    /// a retry
    /// whose first attempt executed server-side but lost its response lands
    /// on the same query id instead of leaking an orphaned duplicate.
    ///
    /// In-process backends never return transport errors, so simulated
    /// chaos runs take the zero-retry path and stay byte-identical.
    /// `take_working`/`restore_working` move state and are **not**
    /// idempotent; they are never routed through here — a transport
    /// failure there surfaces to the caller.
    fn control<T>(&self, f: impl Fn(&dyn SsiService) -> Result<T>) -> Result<T> {
        let policy = BackoffPolicy {
            base_ms: 25,
            cap_ms: 500,
            max_attempts: 8,
            seed: self.seed,
        };
        let mut attempt = 0u32;
        loop {
            match f(self.ssi) {
                Err(e) if is_transport_error(&e) && attempt + 1 < policy.max_attempts => {
                    self.obs.event(
                        "service.control.retry",
                        Some(self.round),
                        vec![
                            Field::u64("attempt", u64::from(attempt) + 1),
                            Field::str("error", e.to_string()),
                        ],
                    );
                    policy.sleep(attempt);
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Run a query end to end and return the decrypted result rows.
    /// `system` is the querier the discovery sub-protocol posts as, when
    /// the protocol needs discovery and `params` lacks the domain data.
    pub fn run_query(
        &mut self,
        querier: &Querier,
        system: Option<&Querier>,
        query: &Query,
        params: ProtocolParams,
    ) -> Result<Vec<Vec<Value>>> {
        self.run_query_targeted(querier, system, query, params, QueryTarget::Crowd)
    }

    /// Run a query posted to personal queryboxes (only the targeted TDSs
    /// answer); untargeted queries use [`ServiceDriver::run_query`].
    pub fn run_query_targeted(
        &mut self,
        querier: &Querier,
        system: Option<&Querier>,
        query: &Query,
        mut params: ProtocolParams,
        target: QueryTarget,
    ) -> Result<Vec<Vec<Value>>> {
        self.stats = RunStats::new();
        self.ensure_discovery(system, query, &mut params)?;
        let blobs = self.run_to_blobs(querier, query, &params, target)?;
        let mut rows = querier.decrypt_results(&blobs)?;
        tdsql_sql::order::apply_order_limit(query, &mut rows)?;
        Ok(rows)
    }

    /// Prepare protocol parameters for a query, running the discovery
    /// sub-protocol now if the kind needs it. Useful to amortise discovery
    /// across many queries over the same grouping attributes — the paper's
    /// "done only once and refreshed from time to time".
    pub fn prepare_params(
        &mut self,
        system: Option<&Querier>,
        query: &Query,
        kind: ProtocolKind,
    ) -> Result<ProtocolParams> {
        let mut params = ProtocolParams::new(kind);
        self.ensure_discovery(system, query, &mut params)?;
        Ok(params)
    }

    /// Fill in the discovery-derived parameters the compiled plan needs, if
    /// `params` does not already carry them.
    fn ensure_discovery(
        &mut self,
        system: Option<&Querier>,
        target_query: &Query,
        params: &mut ProtocolParams,
    ) -> Result<()> {
        let Some(need) = PhasePlan::compile(target_query, params).discovery else {
            return Ok(());
        };
        if discovery::satisfied(need, params) {
            return Ok(());
        }
        let system = system.ok_or_else(|| {
            ProtocolError::Protocol(
                "protocol needs discovery but no system querier was provided".into(),
            )
        })?;
        // Shared-cache fast path: another driver (or an earlier query of
        // this one) already ran this exact discovery. The distribution a
        // querier holds after discovery is precisely what the cache
        // stores, so a hit changes no exposure — only transport volume.
        let cache_key = self
            .discovery_cache
            .as_ref()
            .map(|_| DiscoveryCache::key(&discovery::discovery_query(target_query), need));
        if let (Some(cache), Some(key)) = (&self.discovery_cache, &cache_key) {
            if let Some(distribution) = cache.get(key) {
                self.obs.event(
                    "service.discovery.cache_hit",
                    Some(self.round),
                    vec![Field::str("protocol", params.kind.name())],
                );
                discovery::apply_distribution(need, distribution, params);
                return Ok(());
            }
        }
        let distribution = self.discover_distribution(system, target_query)?;
        if let (Some(cache), Some(key)) = (&self.discovery_cache, cache_key) {
            cache.put(key, distribution.clone());
        }
        discovery::apply_distribution(need, distribution, params);
        Ok(())
    }

    /// Run the discovery sub-protocol for `target_query`'s grouping
    /// attributes and return their distribution (key → true count): an
    /// S_Agg sub-query posted as `system`, whose results stay `k2`-sealed
    /// inside the TDS trust domain. Everything done on the sub-query's
    /// behalf — stats, fault coordinates, abort errors — is attributed to
    /// [`Phase::Discovery`], so chaos schedules reach discovery traffic and
    /// the cost model sees its load.
    pub fn discover_distribution(
        &mut self,
        system: &Querier,
        target_query: &Query,
    ) -> Result<Vec<(GroupKey, u64)>> {
        let query = discovery::discovery_query(target_query);
        let dparams = ProtocolParams::new(ProtocolKind::SAgg);
        let plan = PhasePlan::compile(&query, &dparams).with_dest(ResultDest::Tds);
        let envelope = system.make_envelope(&query, dparams.kind, &mut self.rng);
        let qid = self.control(|ssi| ssi.post_query(envelope.clone()))?;
        let env = self.control(|ssi| ssi.envelope(qid))?;
        self.in_discovery = true;
        let q = Posted {
            qid,
            env: &env,
            params: &dparams,
        };
        let run = self.run_phases(&q, &plan);
        self.in_discovery = false;
        run?;
        let blobs = self.control(|ssi| ssi.results(qid))?;
        let rows = self.pool.open_rows(&blobs)?;
        discovery::distribution_from_rows(rows, target_query.group_by.len())
    }

    /// Run a query and leave the encrypted results with the SSI; returns
    /// the downloaded result blobs.
    fn run_to_blobs(
        &mut self,
        querier: &Querier,
        query: &Query,
        params: &ProtocolParams,
        target: QueryTarget,
    ) -> Result<Vec<Bytes>> {
        let plan = PhasePlan::compile(query, params);
        let envelope = querier.make_envelope_targeted(query, params.kind, target, &mut self.rng);
        let qid = self.control(|ssi| ssi.post_query(envelope.clone()))?;
        let env = self.control(|ssi| ssi.envelope(qid))?;
        self.obs.event(
            "service.query.run",
            Some(self.round),
            vec![
                Field::u64("query", qid),
                Field::str("protocol", params.kind.name()),
                Field::bool("discovery", self.in_discovery),
                Field::sensitive("sql", self.obs.redactor(), format!("{query:?}").as_bytes()),
            ],
        );
        let q = Posted {
            qid,
            env: &env,
            params,
        };
        self.run_phases(&q, &plan)?;
        self.control(|ssi| ssi.results(qid))
    }

    /// The phase a step is attributed to: itself normally, or
    /// [`Phase::Discovery`] while the discovery sub-protocol drives.
    fn effective_phase(&self, phase: Phase) -> Phase {
        if self.in_discovery {
            Phase::Discovery
        } else {
            phase
        }
    }

    /// Per-step RNG seed: a splitmix-style hash of the run seed and the
    /// step coordinates, so pool-side randomness is reproducible and two
    /// delivery attempts of the same item draw *different* nonces (a
    /// replayed attempt must not be byte-identical — the SSI dedups by
    /// assignment, not by ciphertext).
    fn step_seed(&self, qid: u64, phase: Phase, item: u64, attempt: u32) -> u64 {
        let mut x = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(qid.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add((phase as u64).wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add(item.wrapping_mul(0xff51_afd7_ed55_8ccd))
            .wrapping_add(u64::from(attempt));
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Partition a working set as the plan prescribes.
    fn partition_working(
        &mut self,
        working: Vec<StoredTuple>,
        how: Partitioning,
    ) -> Vec<Vec<StoredTuple>> {
        match how {
            Partitioning::Random { chunk } => random_partitions(working, chunk, &mut self.rng),
            Partitioning::ByTag { chunk } => tag_partitions(working, chunk)
                .into_iter()
                .map(|(_, tuples)| tuples)
                .collect(),
        }
    }

    /// Run `f` as phase `phase` and add its wall-clock time to the run's
    /// [`RunStats::phase_wall`]: one clock read on each side of a whole
    /// phase, none per contact.
    fn timed<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let start = Instant::now();
        let out = f(self);
        self.stats.record_phase_wall(phase, start.elapsed());
        out
    }

    /// Run a posted query's phases: collection, then the post-collection
    /// steps of the compiled plan — reduce (iterative or per-tag) and
    /// finalize — each one timed as a whole. This is the whole protocol
    /// dispatch — there is no per-protocol driver.
    fn run_phases(&mut self, q: &Posted<'_>, plan: &PhasePlan) -> Result<()> {
        let col = self.effective_phase(Phase::Collection);
        let agg = self.effective_phase(Phase::Aggregation);
        let fil = self.effective_phase(Phase::Filtering);
        self.timed(col, |d| d.run_collection(q))?;
        if let Some(reduce) = plan.reduce {
            if !self.timed(agg, |d| d.run_reduce(q, agg, reduce))? {
                return Ok(());
            }
        }
        self.timed(fil, |d| d.run_finalize(q, fil, plan))
    }

    /// Reduce the working set until the plan's stopping rule holds.
    /// `false` when collection left nothing to reduce, and so nothing to
    /// finalize either.
    fn run_reduce(&mut self, q: &Posted<'_>, agg: Phase, reduce: ReduceSpec) -> Result<bool> {
        let qid = q.qid;
        let working = self.ssi.take_working(qid)?;
        if working.is_empty() {
            return Ok(false);
        }
        let partitions = self.partition_working(working, reduce.first);
        self.process_partitions(
            q,
            agg,
            partitions,
            TdsStep::ReduceInputs {
                retag: reduce.retag,
            },
        )?;

        match reduce.until {
            Until::SingleBatch => loop {
                let working = self.ssi.take_working(qid)?;
                if working.len() <= 1 {
                    self.ssi.restore_working(qid, agg, working)?;
                    break;
                }
                let partitions = self.partition_working(working, reduce.again);
                self.process_partitions(
                    q,
                    agg,
                    partitions,
                    TdsStep::ReducePartials {
                        retag: reduce.retag,
                    },
                )?;
            },
            Until::TagSingletons => loop {
                let working = self.ssi.take_working(qid)?;
                let mut per_tag: BTreeMap<GroupTag, usize> = BTreeMap::new();
                for t in &working {
                    *per_tag.entry(t.tag.clone()).or_default() += 1;
                }
                if per_tag.values().all(|&n| n <= 1) {
                    self.ssi.restore_working(qid, agg, working)?;
                    break;
                }
                let mut pass_through: Vec<StoredTuple> = Vec::new();
                let mut to_reduce: Vec<StoredTuple> = Vec::new();
                for t in working {
                    if per_tag[&t.tag] <= 1 {
                        pass_through.push(t);
                    } else {
                        to_reduce.push(t);
                    }
                }
                self.ssi.restore_working(qid, agg, pass_through)?;
                let partitions = self.partition_working(to_reduce, reduce.again);
                self.process_partitions(
                    q,
                    agg,
                    partitions,
                    TdsStep::ReducePartials {
                        retag: reduce.retag,
                    },
                )?;
            },
        }
        Ok(true)
    }

    /// Finalize the working set: filter its rows or finalize its groups.
    fn run_finalize(&mut self, q: &Posted<'_>, fil: Phase, plan: &PhasePlan) -> Result<()> {
        let working = self.ssi.take_working(q.qid)?;
        if working.is_empty() {
            return Ok(());
        }
        let partitions = match plan.finalize.partitioning {
            FinalizePartitioning::Whole => vec![working],
            FinalizePartitioning::Chunked { chunk } => {
                working.chunks(chunk).map(|c| c.to_vec()).collect()
            }
            FinalizePartitioning::Random { chunk } => {
                random_partitions(working, chunk, &mut self.rng)
            }
        };
        let step = match plan.finalize.op {
            FinalizeOp::FilterRows => TdsStep::FilterPlain,
            FinalizeOp::FinalizeGroups => TdsStep::FinalizeGroups {
                dest: plan.finalize.dest,
            },
        };
        self.process_partitions(q, fil, partitions, step)
    }

    /// Has the SIZE tuple bound been reached? The SSI's answer is constant
    /// `false` for an envelope without one, and the driver holds that
    /// envelope, so an unbounded query never asks. A bounded one asks before
    /// every TDS: the cut-off must land on the TDS that crosses the bound.
    fn size_tuples_reached(&self, q: &Posted<'_>) -> Result<bool> {
        if q.env.size.max_tuples.is_none() {
            return Ok(false);
        }
        self.control(|ssi| ssi.size_tuples_reached(q.qid))
    }

    /// Collection phase: rounds of connected TDSs answering until SIZE is
    /// reached, every targeted TDS contributed, or the round budget is
    /// exhausted.
    ///
    /// Each targeted TDS's contribution is one work item, allocated at its
    /// first contact and carried to the SSI by [`ServiceDriver::contact`];
    /// a TDS whose attempt settled nothing answers again at its next
    /// connection. If the round bound expires before every targeted TDS
    /// answered, the query finalizes over the tuples collected so far and
    /// the run is flagged partial.
    fn run_collection(&mut self, q: &Posted<'_>) -> Result<()> {
        let (qid, env) = (q.qid, q.env);
        let phase = self.effective_phase(Phase::Collection);
        let max_rounds = env
            .size
            .max_rounds
            .unwrap_or(self.default_max_rounds)
            .max(1);
        let n = self.tds_ids.len();
        let mut contributed: Vec<bool> = self
            .tds_ids
            .iter()
            .map(|&id| !env.target.includes(id))
            .collect();
        let mut item_of: Vec<Option<u64>> = vec![None; n];
        let mut attempts: Vec<u32> = vec![0; n];
        let mut late: Vec<LateUpload> = Vec::new();
        let mut rounds = 0u64;
        'outer: while rounds < max_rounds
            && !self.size_tuples_reached(q)?
            && contributed.iter().any(|c| !c)
        {
            rounds += 1;
            self.round += 1;
            self.stats.record_step(phase);
            for tds in self.flush_late(qid, phase, &mut late, false)? {
                contributed[tds] = true;
            }
            let mut busiest = 0u64;
            let connected = self.connectivity.sample_connected(n, &mut self.rng);
            // A SIZE tuple bound is asked before every TDS, so a collection
            // under one steps inline, as does a small round.
            let pipelining = env.size.max_tuples.is_none()
                && connected
                    .iter()
                    .filter(|&&i| !contributed[i] && env.target.includes(self.tds_ids[i]))
                    .count()
                    >= PIPELINE_MIN_CONTACTS;
            let mut planned: Vec<Contact<'_>> = Vec::new();
            let mut stepped_inline = false;
            let mut halted = None;
            for i in connected {
                if contributed[i] || !env.target.includes(self.tds_ids[i]) {
                    continue;
                }
                if self.size_tuples_reached(q)? {
                    break 'outer;
                }
                let contact =
                    match self.collect_contact(q, phase, i, &mut attempts[i], &mut item_of[i]) {
                        Ok(Some(contact)) => contact,
                        Ok(None) => {
                            contributed[i] = true;
                            continue;
                        }
                        Err(e) => {
                            halted = Some(e);
                            break;
                        }
                    };
                // The round's first contact steps inline, before the rest is
                // planned: a query every TDS rejects fails here, having
                // allocated one work item.
                if pipelining && stepped_inline {
                    planned.push(contact);
                    continue;
                }
                stepped_inline = true;
                // Any settlement but a closed window means the SSI holds
                // this TDS's contribution — a `Duplicate` is typically a
                // pre-crash delivery that was accepted and journaled but
                // whose response was lost. Marking it keeps the loop from
                // re-sending a settled item forever.
                if let Some(outcome) = self.contact(q, phase, contact, &mut late, &mut busiest)? {
                    contributed[i] |= outcome != DeliveryOutcome::WindowClosed;
                }
            }
            if !planned.is_empty() {
                let outcomes = self.pipelined(q, phase, &planned, &mut late, &mut busiest)?;
                for (c, outcome) in planned.iter().zip(outcomes) {
                    if let Some(outcome) = outcome {
                        contributed[c.tds] |= outcome != DeliveryOutcome::WindowClosed;
                    }
                }
            }
            if let Some(e) = halted {
                return Err(e);
            }
            self.stats.record_step_critical(phase, busiest);
        }
        for tds in self.flush_late(qid, phase, &mut late, true)? {
            contributed[tds] = true;
        }
        self.stats.rounds += rounds;
        if !self.size_tuples_reached(q)? && contributed.iter().any(|c| !c) {
            self.stats.partial = true;
        }
        self.obs.event(
            "service.phase.done",
            Some(self.round),
            vec![
                Field::u64("query", qid),
                Field::str("phase", phase.to_string()),
                Field::u64("rounds", rounds),
                Field::u64("faults_absorbed", self.stats.faults.total()),
                Field::bool("partial", self.stats.partial),
            ],
        );
        self.control(|ssi| ssi.close_collection(qid))
    }

    /// Process a batch of partitions with the connected population, one
    /// work item per partition. A partition whose attempt settled nothing
    /// — its TDS dropped out mid-step (SSI timeout + resend), or
    /// [`ServiceDriver::contact`] lost it — is re-queued with round-based
    /// backoff, and the fault plan may reorder a round's dispatch.
    fn process_partitions(
        &mut self,
        q: &Posted<'_>,
        phase: Phase,
        partitions: Vec<Vec<StoredTuple>>,
        step: TdsStep,
    ) -> Result<()> {
        let qid = q.qid;
        let n_partitions = partitions.len() as u64;
        let mut queue: VecDeque<WorkItem> = VecDeque::with_capacity(partitions.len());
        for partition in partitions {
            let item = self.control(|ssi| ssi.new_item(qid))?;
            queue.push_back(WorkItem {
                item,
                partition,
                attempts: 0,
                not_before: 0,
            });
        }
        let mut late: Vec<LateUpload> = Vec::new();
        let mut spins = 0u64;
        let spin_cap = 100_000;
        while !queue.is_empty() {
            spins += 1;
            if spins > spin_cap {
                return Err(ProtocolError::NoProgress {
                    phase: "partition processing",
                });
            }
            self.round += 1;
            self.stats.record_step(phase);
            self.stats.rounds += 1;
            if !self.flush_late(qid, phase, &mut late, false)?.is_empty() {
                let mut remaining = VecDeque::with_capacity(queue.len());
                for w in queue.drain(..) {
                    if !self.control(|ssi| ssi.item_done(qid, w.item))? {
                        remaining.push_back(w);
                    }
                }
                queue = remaining;
                if queue.is_empty() {
                    break;
                }
            }
            let mut dispatchable: Vec<WorkItem> = Vec::new();
            let mut waiting: VecDeque<WorkItem> = VecDeque::new();
            for w in queue.drain(..) {
                if w.not_before <= self.round {
                    dispatchable.push(w);
                } else {
                    waiting.push_back(w);
                }
            }
            queue = waiting;
            if dispatchable.len() > 1 && self.connectivity.faults.reorder_round(phase, self.round) {
                dispatchable.shuffle(&mut self.rng);
            }
            let mut ready: VecDeque<WorkItem> = dispatchable.into();
            let mut busiest = 0u64;
            let connected = self
                .connectivity
                .sample_connected(self.tds_ids.len(), &mut self.rng);
            let pipelining = connected.len().min(ready.len()) >= PIPELINE_MIN_CONTACTS;
            // Items planned past the round's first contact, each with the
            // TDS that steps it (`None`: it dropped out).
            let mut planned: Vec<(WorkItem, Option<usize>)> = Vec::new();
            let mut stepped_inline = false;
            let mut halted = None;
            for i in connected {
                let Some(mut w) = ready.pop_front() else {
                    break;
                };
                match self.charge(phase, q.env, &mut w.attempts) {
                    Ok(true) => {}
                    Ok(false) => continue,
                    Err(e) => {
                        halted = Some(e);
                        break;
                    }
                }
                let tds = if self.connectivity.drops(&mut self.rng) {
                    self.stats.record_reassignment(phase);
                    None
                } else {
                    Some(i)
                };
                if pipelining && stepped_inline {
                    planned.push((w, tds));
                    continue;
                }
                let settled = match tds {
                    Some(i) => {
                        stepped_inline = true;
                        let seed = self.step_seed(qid, phase, w.item, w.attempts);
                        self.contact(q, phase, w.contact(i, step, seed), &mut late, &mut busiest)?
                    }
                    None => None,
                };
                if settled.is_none() {
                    w.not_before = self.round + backoff(w.attempts);
                    queue.push_back(w);
                }
            }
            if !planned.is_empty() {
                let contacts: Vec<Contact<'_>> = planned
                    .iter()
                    .filter_map(|(w, tds)| {
                        let i = (*tds)?;
                        Some(w.contact(i, step, self.step_seed(qid, phase, w.item, w.attempts)))
                    })
                    .collect();
                let mut outcomes = self
                    .pipelined(q, phase, &contacts, &mut late, &mut busiest)?
                    .into_iter();
                for (mut w, tds) in planned {
                    if tds.and_then(|_| outcomes.next().flatten()).is_none() {
                        w.not_before = self.round + backoff(w.attempts);
                        queue.push_back(w);
                    }
                }
            }
            if let Some(e) = halted {
                return Err(e);
            }
            while let Some(w) = ready.pop_back() {
                queue.push_front(w);
            }
            self.stats.record_step_critical(phase, busiest);
        }
        self.flush_late(qid, phase, &mut late, true)?;
        self.obs.event(
            "service.phase.done",
            Some(self.round),
            vec![
                Field::u64("query", qid),
                Field::str("phase", phase.to_string()),
                Field::u64("partitions", n_partitions),
                Field::u64("faults_absorbed", self.stats.faults.total()),
            ],
        );
        Ok(())
    }

    /// Plan TDS `i`'s collect contact: charge its attempt and allocate its
    /// work item at its first contact. `None` when the retry budget is spent
    /// and the item abandoned.
    fn collect_contact(
        &mut self,
        q: &Posted<'_>,
        phase: Phase,
        i: usize,
        attempts: &mut u32,
        item_of: &mut Option<u64>,
    ) -> Result<Option<Contact<'static>>> {
        if !self.charge(phase, q.env, attempts)? {
            return Ok(None);
        }
        let item = match *item_of {
            Some(item) => item,
            None => *item_of.insert(self.control(|ssi| ssi.new_item(q.qid))?),
        };
        Ok(Some(Contact {
            tds: i,
            item,
            attempt: *attempts,
            step: TdsStep::Collect,
            inputs: &[],
            seed: self.step_seed(q.qid, phase, item, *attempts),
        }))
    }

    /// Spend one delivery attempt of a work item. Exhausting the retry
    /// budget raises [`ProtocolError::QueryAborted`] on an unbounded query
    /// and abandons the item (`Ok(false)`, partial result) on a
    /// SIZE-bounded one.
    fn charge(&mut self, phase: Phase, env: &QueryEnvelope, attempts: &mut u32) -> Result<bool> {
        if *attempts < self.retry_budget {
            *attempts += 1;
            return Ok(true);
        }
        if env.size.max_tuples.is_none() && env.size.max_rounds.is_none() {
            return Err(ProtocolError::QueryAborted {
                phase,
                retries: *attempts,
            });
        }
        self.stats.faults.items_abandoned += 1;
        self.stats.partial = true;
        Ok(false)
    }

    /// One contact, the driver's whole at-least-once path: TDS `c.tds`
    /// steps attempt `c.attempt` of work item `c.item` ([`Contact::download`]),
    /// and [`ServiceDriver::settle_contact`] delivers its upload. Returns
    /// the settlement, or `None` when nothing reached the SSI and the
    /// attempt is spent.
    fn contact(
        &mut self,
        q: &Posted<'_>,
        phase: Phase,
        c: Contact<'_>,
        late: &mut Vec<LateUpload>,
        busiest: &mut u64,
    ) -> Result<Option<DeliveryOutcome>> {
        let stepped = c.download(self.pool, q, &self.connectivity.faults, phase, self.round);
        self.settle_contact(q, phase, &c, stepped, late, busiest)
    }

    /// Step `contacts` on worker threads, and settle each on this thread in
    /// dispatch order: the outcomes come back in that order too.
    ///
    /// Workers claim chunks of [`PIPELINE_CHUNK`] contacts in order from a
    /// shared counter, so a worker on a CPU the host is slowing claims fewer
    /// of them. A worker takes a slot before each claim and the settler
    /// frees one per chunk it settles, so at most two chunks per worker are
    /// stepped and not yet settled; a chunk that arrives ahead of its turn
    /// waits in `ahead`. Workers call nothing but [`Contact::download`]:
    /// every SSI call, statistic and fault leg stays with the settler, so
    /// the run is the one a driver stepping inline would produce, at any
    /// worker count.
    fn pipelined(
        &mut self,
        q: &Posted<'_>,
        phase: Phase,
        contacts: &[Contact<'_>],
        late: &mut Vec<LateUpload>,
        busiest: &mut u64,
    ) -> Result<Vec<Option<DeliveryOutcome>>> {
        let (pool, faults, round) = (self.pool, self.connectivity.faults, self.round);
        let workers = pipeline_workers().min(contacts.len().div_ceil(PIPELINE_CHUNK));
        let claimed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (take_slot, free_slot) = sync_channel::<()>(2 * workers);
            let (results, arrived) = sync_channel::<(usize, Vec<Result<StepResult>>)>(2 * workers);
            for _ in 0..workers {
                let (take_slot, results, claimed) = (take_slot.clone(), results.clone(), &claimed);
                // A closed channel means the settler stopped on an error:
                // nothing more will be settled.
                scope.spawn(move || {
                    while take_slot.send(()).is_ok() {
                        let k = claimed.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = contacts.chunks(PIPELINE_CHUNK).nth(k) else {
                            return;
                        };
                        let stepped = chunk
                            .iter()
                            .map(|c| c.download(pool, q, &faults, phase, round))
                            .collect();
                        if results.send((k, stepped)).is_err() {
                            return;
                        }
                    }
                });
            }
            drop((take_slot, results));
            let mut ahead = BTreeMap::new();
            let mut outcomes = Vec::with_capacity(contacts.len());
            for (k, chunk) in contacts.chunks(PIPELINE_CHUNK).enumerate() {
                let stepped = loop {
                    if let Some(stepped) = ahead.remove(&k) {
                        break stepped;
                    }
                    // Only a panicked worker leaves a claimed chunk unsent;
                    // the scope re-raises that panic once this closure
                    // returns.
                    let (j, stepped) = arrived
                        .recv()
                        .map_err(|_| ProtocolError::Protocol("a pipeline worker stopped".into()))?;
                    ahead.insert(j, stepped);
                };
                // Chunk `k` was claimed under a slot, so one is waiting.
                let _ = free_slot.recv();
                for (c, stepped) in chunk.iter().zip(stepped) {
                    outcomes.push(self.settle_contact(q, phase, c, stepped, late, busiest)?);
                }
            }
            Ok(outcomes)
        })
    }

    /// The settle leg of a contact, on the driver thread: count the step,
    /// then deliver its upload under a fresh assignment and settle it on
    /// the SSI's ledger.
    ///
    /// The connectivity's [`crate::connectivity::FaultPlan`] strikes at
    /// fixed (phase, item, attempt) coordinates: a corrupted download fails
    /// authenticated decryption at the TDS (the SSI re-sends its pristine
    /// copy next time), and an upload may be lost, delivered rounds late
    /// (into `late`, settled by [`ServiceDriver::flush_late`]) or
    /// duplicated (the ledger drops the copy). A real transport failure of
    /// the step counts as a reassignment, of the delivery as a lost upload,
    /// and of a duplicated copy as a dropped duplicate.
    /// `busiest` keeps the round's largest per-TDS byte volume.
    fn settle_contact(
        &mut self,
        q: &Posted<'_>,
        phase: Phase,
        c: &Contact<'_>,
        stepped: Result<StepResult>,
        late: &mut Vec<LateUpload>,
        busiest: &mut u64,
    ) -> Result<Option<DeliveryOutcome>> {
        let Posted { qid, env, .. } = *q;
        let faults = self.connectivity.faults;
        let (item, attempt) = (c.item, c.attempt);
        let round = self.round;
        let corrupted = faults.corrupt_download(phase, item, attempt);
        // A failed step is absorbed — the attempt spent, the item retried —
        // when the RPC failed in transport, or when the TDS rejected the very
        // download the fault plan corrupted. Any other rejection is the
        // query's own error (a querier keyed to a stale epoch, a malformed
        // envelope): every TDS would reject every retry the same way.
        let upload = match stepped {
            Ok(output) => Upload::of(c.step, output)?,
            Err(ProtocolError::Crypto(_) | ProtocolError::Codec(_)) if corrupted => {
                self.stats.faults.corrupt_rejected += 1;
                self.stats.record_reassignment(phase);
                return Ok(None);
            }
            Err(e) if is_transport_error(&e) => {
                self.stats.record_reassignment(phase);
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        // A collect step is charged for the tuples it emits, any other
        // step for the partition it reads.
        let bytes_up = upload.bytes();
        let work = if c.step == TdsStep::Collect {
            TdsWork {
                bytes_down: env.enc_query.len() as u64,
                bytes_up,
                tuples: upload.len(),
                crypto_blocks: bytes_up / 16,
            }
        } else {
            let bytes_down: u64 = c.inputs.iter().map(|t| t.blob.len() as u64).sum();
            TdsWork {
                bytes_down,
                bytes_up,
                tuples: c.inputs.len() as u64,
                crypto_blocks: (bytes_down + bytes_up) / 16,
            }
        };
        self.stats.record(phase, self.tds_ids[c.tds], work);
        *busiest = (*busiest).max(work.bytes_down + bytes_up);
        // Upload leg.
        if faults.lose_upload(phase, item, attempt) {
            self.stats.faults.lost_uploads += 1;
            return Ok(None);
        }
        let assignment = match self.ssi.begin_assignment(qid, item) {
            Ok(a) => a,
            Err(e) if is_transport_error(&e) => {
                self.stats.faults.lost_uploads += 1;
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        if faults.deliver_late(phase, item, attempt) {
            late.push(LateUpload {
                tds: c.tds,
                assignment,
                upload,
                deliver_at: round + LATE_DELAY,
            });
            return Ok(None);
        }
        let copy = faults
            .duplicate_upload(phase, item, attempt)
            .then(|| upload.clone());
        let settled = self.settle(qid, phase, assignment, upload)?;
        if let (Some(_), Some(copy)) = (settled, copy) {
            // The original settled, so the copy is dropped either way: by
            // the ledger, or in flight, where nothing re-sends it.
            if self.deliver(qid, phase, assignment, copy)?.is_none() {
                self.stats.faults.duplicates_dropped += 1;
            }
        }
        Ok(settled)
    }

    /// Deliver an upload under its assignment and count what the SSI's
    /// ledger made of it. `None` when a transport failure dropped it in
    /// flight — a lost upload; the owning work item retries under a fresh
    /// assignment.
    fn settle(
        &mut self,
        qid: u64,
        phase: Phase,
        assignment: AssignmentId,
        upload: Upload,
    ) -> Result<Option<DeliveryOutcome>> {
        let settled = self.deliver(qid, phase, assignment, upload)?;
        if settled.is_none() {
            self.stats.faults.lost_uploads += 1;
        }
        Ok(settled)
    }

    /// [`ServiceDriver::settle`] without its verdict on a transport
    /// failure: `None` when the upload was dropped in flight, and the
    /// caller says what that loss was.
    fn deliver(
        &mut self,
        qid: u64,
        phase: Phase,
        assignment: AssignmentId,
        upload: Upload,
    ) -> Result<Option<DeliveryOutcome>> {
        let (n, bytes) = (upload.len(), upload.bytes());
        let delivered = match upload {
            Upload::Collection(ts) => self.ssi.receive_collection(qid, assignment, ts),
            Upload::Working(ts) => self.ssi.receive_working(qid, assignment, phase, ts),
            Upload::Results(rs) => self.ssi.receive_results(qid, assignment, rs),
        };
        let outcome = match delivered {
            Ok(outcome) => outcome,
            Err(e) if is_transport_error(&e) => return Ok(None),
            Err(e) => return Err(e),
        };
        let faults = &mut self.stats.faults;
        match outcome {
            DeliveryOutcome::Accepted => self.stats.record_ssi_store(phase, n, bytes),
            DeliveryOutcome::Duplicate => faults.duplicates_dropped += 1,
            DeliveryOutcome::LateAfterReassign => faults.late_after_reassign += 1,
            DeliveryOutcome::WindowClosed => {}
        }
        Ok(Some(outcome))
    }

    /// Settle the delayed uploads whose flight time elapsed (all of them
    /// when `force`). Returns the TDSs whose late upload was accepted.
    fn flush_late(
        &mut self,
        qid: u64,
        phase: Phase,
        late: &mut Vec<LateUpload>,
        force: bool,
    ) -> Result<Vec<usize>> {
        let round = self.round;
        let (due, rest): (Vec<_>, Vec<_>) = std::mem::take(late)
            .into_iter()
            .partition(|entry| force || entry.deliver_at <= round);
        *late = rest;
        let mut accepted = Vec::new();
        for entry in due {
            if self.settle(qid, phase, entry.assignment, entry.upload)?
                == Some(DeliveryOutcome::Accepted)
            {
                accepted.push(entry.tds);
            }
        }
        Ok(accepted)
    }
}

impl std::fmt::Debug for ServiceDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ServiceDriver {{ population: {}, round: {}, connectivity: {:?} }}",
            self.tds_ids.len(),
            self.round,
            self.connectivity
        )
    }
}
