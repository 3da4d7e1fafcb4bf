//! The sequential plan interpreter.
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

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use tdsql_obs::{Field, Obs};

use tdsql_crypto::rng::seq::SliceRandom;
use tdsql_crypto::rng::{SeedableRng, StdRng};
use tdsql_sql::ast::Query;
use tdsql_sql::value::{GroupKey, Value};

use crate::bytes::Bytes;
use crate::connectivity::Connectivity;
use crate::error::{ProtocolError, Result};
use crate::message::{
    AssignmentId, DeliveryOutcome, GroupTag, QueryEnvelope, QueryTarget, StoredTuple,
};
use crate::partition::{random_partitions, tag_partitions};
use crate::plan::{FinalizeOp, FinalizePartitioning, Partitioning, PhasePlan, Until};
use crate::protocol::{discovery, ProtocolKind, ProtocolParams};
use crate::querier::Querier;
use crate::runtime::backoff::BackoffPolicy;
use crate::service::{is_transport_error, SsiService, StepResult, TdsPool, TdsStep};
use crate::ssi::sched::DiscoveryCache;
use crate::stats::{Phase, RunStats, TdsWork};
use crate::tds::ResultDest;

/// Rounds a "late" delivery spends in flight before the SSI finally sees it.
const LATE_DELAY: u64 = 3;

/// Round-based backoff after a failed delivery attempt: 2, 4, 8, 16, then
/// 16 rounds between retries of the same work item.
fn backoff(attempt: u32) -> u64 {
    1u64 << attempt.min(4)
}

/// Is a failed TDS step absorbed — the attempt consumed and the item
/// retried — rather than fatal? A transport failure always is. An
/// authenticated-decryption or decode rejection is only where the fault
/// plan corrupted this very delivery: anywhere else it is the query's own
/// error (a querier keyed to a stale epoch, a malformed envelope) and every
/// TDS would reject every retry the same way.
fn step_failure_absorbed(err: &ProtocolError, corrupted: bool) -> bool {
    is_transport_error(err)
        || (corrupted && matches!(err, ProtocolError::Crypto(_) | ProtocolError::Codec(_)))
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

/// An upload the fault plan delayed: from the SSI's clock it timed out,
/// but the bytes are still in flight and land at `deliver_at`.
struct LateUpload {
    assignment: AssignmentId,
    output: StepResult,
    bytes_up: u64,
    deliver_at: u64,
}

/// A collection upload the fault plan delayed.
struct LateCollection {
    pool_index: usize,
    assignment: AssignmentId,
    tuples: Vec<StoredTuple>,
    bytes_up: u64,
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
    /// ids once (two round-trips on a remote pool).
    pub fn new(
        ssi: &'a dyn SsiService,
        pool: &'a dyn TdsPool,
        obs: Arc<Obs>,
        config: DriverConfig,
    ) -> Result<Self> {
        let tds_ids = pool.tds_ids()?;
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
        let run = self
            .run_collection(qid, &env, &dparams)
            .and_then(|()| self.execute_plan(qid, &env, &dparams, &plan));
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
        self.run_collection(qid, &env, params)?;
        self.execute_plan(qid, &env, params, &plan)?;
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

    /// Interpret the post-collection steps of the compiled plan: reduce
    /// (iterative or per-tag) then finalize. This is the whole protocol
    /// dispatch — there is no per-protocol driver.
    fn execute_plan(
        &mut self,
        qid: u64,
        env: &QueryEnvelope,
        params: &ProtocolParams,
        plan: &PhasePlan,
    ) -> Result<()> {
        let agg = self.effective_phase(Phase::Aggregation);
        let fil = self.effective_phase(Phase::Filtering);
        if let Some(reduce) = plan.reduce {
            let working = self.ssi.take_working(qid)?;
            if working.is_empty() {
                return Ok(());
            }
            let partitions = self.partition_working(working, reduce.first);
            self.process_partitions(
                qid,
                agg,
                env,
                params,
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
                        qid,
                        agg,
                        env,
                        params,
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
                        qid,
                        agg,
                        env,
                        params,
                        partitions,
                        TdsStep::ReducePartials {
                            retag: reduce.retag,
                        },
                    )?;
                },
            }
        }

        let working = self.ssi.take_working(qid)?;
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
        self.process_partitions(qid, fil, env, params, partitions, step)
    }

    /// Has the SIZE tuple bound been reached? The SSI's answer is constant
    /// `false` for an envelope without one, and the driver holds that
    /// envelope, so an unbounded query never asks. A bounded one asks before
    /// every TDS: the cut-off must land on the TDS that crosses the bound.
    fn size_tuples_reached(&self, qid: u64, env: &QueryEnvelope) -> Result<bool> {
        if env.size.max_tuples.is_none() {
            return Ok(false);
        }
        self.control(|ssi| ssi.size_tuples_reached(qid))
    }

    /// Collection phase: rounds of connected TDSs answering until SIZE is
    /// reached, every targeted TDS contributed, or the round budget is
    /// exhausted.
    ///
    /// Transport is at-least-once under the connectivity's
    /// [`crate::connectivity::FaultPlan`]: an upload may be lost (retried at
    /// the TDS's next connection), duplicated (deduplicated by the SSI's
    /// assignment ledger), delivered rounds late, or the downloaded envelope
    /// corrupted (authenticated decryption fails at the TDS and the SSI
    /// re-sends); real transport failures fold into the same taxonomy. Each
    /// TDS's contribution is one work item with a retry budget; exhausting
    /// it aborts an unbounded query and degrades a SIZE-bounded one to a
    /// partial result. If the round bound expires before every targeted TDS
    /// answered, the query finalizes over the tuples collected so far and
    /// the run is flagged partial.
    fn run_collection(
        &mut self,
        qid: u64,
        env: &QueryEnvelope,
        params: &ProtocolParams,
    ) -> Result<()> {
        let phase = self.effective_phase(Phase::Collection);
        let faults = self.connectivity.faults;
        let budget = self.retry_budget;
        let size_bounded = env.size.max_tuples.is_some() || env.size.max_rounds.is_some();
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
        let mut stash: Vec<LateCollection> = Vec::new();
        let mut rounds = 0u64;
        'outer: while rounds < max_rounds
            && !self.size_tuples_reached(qid, env)?
            && contributed.iter().any(|c| !c)
        {
            rounds += 1;
            self.round += 1;
            self.stats.record_step(phase);
            self.flush_collection_stash(qid, &mut stash, &mut contributed, false)?;
            let mut round_max_bytes = 0u64;
            let connected = self.connectivity.sample_connected(n, &mut self.rng);
            for i in connected {
                if contributed[i] || !env.target.includes(self.tds_ids[i]) {
                    continue;
                }
                if self.size_tuples_reached(qid, env)? {
                    break 'outer;
                }
                if attempts[i] >= budget {
                    if size_bounded {
                        self.stats.faults.items_abandoned += 1;
                        self.stats.partial = true;
                        contributed[i] = true;
                        continue;
                    }
                    return Err(ProtocolError::QueryAborted {
                        phase,
                        retries: attempts[i],
                    });
                }
                attempts[i] += 1;
                let attempt = attempts[i];
                let item = match item_of[i] {
                    Some(it) => it,
                    None => {
                        let it = self.control(|ssi| ssi.new_item(qid))?;
                        item_of[i] = Some(it);
                        it
                    }
                };
                let rng_seed = self.step_seed(qid, phase, item, attempt);
                // Download leg: a corrupted envelope fails authenticated
                // decryption at the TDS; the SSI re-sends next connection.
                // A transport failure of the step RPC is handled the same
                // way — the attempt is consumed and the TDS retries later.
                let corrupted = faults.corrupt_download(phase, item, attempt);
                let stepped = if corrupted {
                    let mut bad = env.clone();
                    bad.enc_query = faults.corrupt_blob(&env.enc_query, phase, item, attempt);
                    self.pool
                        .step(i, &bad, params, self.round, TdsStep::Collect, &[], rng_seed)
                } else {
                    self.pool
                        .step(i, env, params, self.round, TdsStep::Collect, &[], rng_seed)
                };
                let tuples = match stepped {
                    Ok(StepResult::Working(ts)) => ts,
                    Ok(StepResult::Results(_)) => {
                        return Err(ProtocolError::Protocol(
                            "collect step returned result rows".into(),
                        ))
                    }
                    Err(e) if step_failure_absorbed(&e, corrupted) => {
                        self.stats.faults.corrupt_rejected += 1;
                        self.stats.record_reassignment(phase);
                        continue;
                    }
                    Err(other) => return Err(other),
                };
                let bytes_up: u64 = tuples.iter().map(|t| t.blob.len() as u64).sum();
                let n_tuples = tuples.len() as u64;
                self.stats.record(
                    phase,
                    self.tds_ids[i],
                    TdsWork {
                        bytes_down: env.enc_query.len() as u64,
                        bytes_up,
                        tuples: n_tuples,
                        crypto_blocks: bytes_up / 16,
                    },
                );
                round_max_bytes = round_max_bytes.max(env.enc_query.len() as u64 + bytes_up);
                // Upload leg.
                if faults.lose_upload(phase, item, attempt) {
                    self.stats.faults.lost_uploads += 1;
                    continue;
                }
                let assignment = match self.ssi.begin_assignment(qid, item) {
                    Ok(a) => a,
                    Err(e) if is_transport_error(&e) => {
                        self.stats.faults.lost_uploads += 1;
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                if faults.deliver_late(phase, item, attempt) {
                    stash.push(LateCollection {
                        pool_index: i,
                        assignment,
                        tuples,
                        bytes_up,
                        deliver_at: self.round + LATE_DELAY,
                    });
                    continue;
                }
                let duplicate = if faults.duplicate_upload(phase, item, attempt) {
                    Some(tuples.clone())
                } else {
                    None
                };
                match self.ssi.receive_collection(qid, assignment, tuples) {
                    Ok(DeliveryOutcome::Accepted) => {
                        self.stats.record_ssi_store(phase, n_tuples, bytes_up);
                        contributed[i] = true;
                    }
                    // Both rejections mean the item is already done on the
                    // SSI — typically a pre-crash delivery that was accepted
                    // and journaled but whose response was lost. Marking the
                    // contribution here keeps the loop from re-sending a
                    // settled item forever. (Under simulated fault plans
                    // these arms are unreachable with `contributed[i]`
                    // false, so chaos runs are unaffected.)
                    Ok(DeliveryOutcome::Duplicate) => {
                        self.stats.faults.duplicates_dropped += 1;
                        contributed[i] = true;
                    }
                    Ok(DeliveryOutcome::LateAfterReassign) => {
                        self.stats.faults.late_after_reassign += 1;
                        contributed[i] = true;
                    }
                    Ok(DeliveryOutcome::WindowClosed) => {}
                    Err(e) if is_transport_error(&e) => {
                        self.stats.faults.lost_uploads += 1;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
                if let Some(copy) = duplicate {
                    if self.ssi.receive_collection(qid, assignment, copy)?
                        == DeliveryOutcome::Duplicate
                    {
                        self.stats.faults.duplicates_dropped += 1;
                    }
                }
            }
            self.stats.record_step_critical(phase, round_max_bytes);
        }
        self.flush_collection_stash(qid, &mut stash, &mut contributed, true)?;
        self.stats.rounds += rounds;
        if !self.size_tuples_reached(qid, env)? && contributed.iter().any(|c| !c) {
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

    /// Deliver stashed late collection uploads whose flight time elapsed
    /// (all of them when `force`), marking accepted contributors.
    fn flush_collection_stash(
        &mut self,
        qid: u64,
        stash: &mut Vec<LateCollection>,
        contributed: &mut [bool],
        force: bool,
    ) -> Result<()> {
        let phase = self.effective_phase(Phase::Collection);
        let mut rest = Vec::new();
        for entry in stash.drain(..) {
            if !force && entry.deliver_at > self.round {
                rest.push(entry);
                continue;
            }
            let n = entry.tuples.len() as u64;
            match self
                .ssi
                .receive_collection(qid, entry.assignment, entry.tuples)
            {
                Ok(DeliveryOutcome::Accepted) => {
                    self.stats.record_ssi_store(phase, n, entry.bytes_up);
                    contributed[entry.pool_index] = true;
                }
                Ok(DeliveryOutcome::Duplicate) => self.stats.faults.duplicates_dropped += 1,
                Ok(DeliveryOutcome::LateAfterReassign) => {
                    self.stats.faults.late_after_reassign += 1;
                }
                Ok(DeliveryOutcome::WindowClosed) => {}
                // A transport failure drops the in-flight copy — the same
                // fate as a lost upload; the owning work item retries.
                Err(e) if is_transport_error(&e) => self.stats.faults.lost_uploads += 1,
                Err(e) => return Err(e),
            }
        }
        *stash = rest;
        Ok(())
    }

    /// Process a batch of partitions with the connected population.
    /// Dropouts re-queue the partition (SSI timeout + resend), and the
    /// connectivity's [`crate::connectivity::FaultPlan`] additionally injects
    /// upload loss, duplication, late delivery after reassignment, dispatch
    /// reordering and payload corruption. Every work item carries a retry
    /// budget with round-based backoff: exhausting it raises
    /// [`ProtocolError::QueryAborted`] on an unbounded query and abandons the
    /// item (partial result) on a SIZE-bounded one.
    fn process_partitions(
        &mut self,
        qid: u64,
        phase: Phase,
        env: &QueryEnvelope,
        params: &ProtocolParams,
        partitions: Vec<Vec<StoredTuple>>,
        step: TdsStep,
    ) -> Result<()> {
        let faults = self.connectivity.faults;
        let budget = self.retry_budget;
        let size_bounded = env.size.max_tuples.is_some() || env.size.max_rounds.is_some();
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
        let mut stash: Vec<LateUpload> = Vec::new();
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
            if self.flush_late_uploads(qid, phase, &mut stash, false)? {
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
            if dispatchable.len() > 1 && faults.reorder_round(phase, self.round) {
                dispatchable.shuffle(&mut self.rng);
            }
            let mut ready: VecDeque<WorkItem> = dispatchable.into();
            let mut round_max_bytes = 0u64;
            let connected = self
                .connectivity
                .sample_connected(self.tds_ids.len(), &mut self.rng);
            for i in connected {
                let Some(mut w) = ready.pop_front() else {
                    break;
                };
                if w.attempts >= budget {
                    if size_bounded {
                        self.stats.faults.items_abandoned += 1;
                        self.stats.partial = true;
                        continue;
                    }
                    return Err(ProtocolError::QueryAborted {
                        phase,
                        retries: w.attempts,
                    });
                }
                w.attempts += 1;
                let attempt = w.attempts;
                if self.connectivity.drops(&mut self.rng) {
                    self.stats.record_reassignment(phase);
                    w.not_before = self.round + backoff(attempt);
                    queue.push_back(w);
                    continue;
                }
                let bytes_down: u64 = w.partition.iter().map(|t| t.blob.len() as u64).sum();
                let tuples_in = w.partition.len() as u64;
                let rng_seed = self.step_seed(qid, phase, w.item, attempt);
                // Download leg: injected corruption flips one ciphertext
                // bit (authenticated decryption rejects, the SSI re-sends
                // its pristine copy); a transport failure of the RPC takes
                // the same retry path.
                let corrupted = faults.corrupt_download(phase, w.item, attempt);
                let stepped = if corrupted {
                    let mut delivered = w.partition.clone();
                    if let Some(first) = delivered.first_mut() {
                        first.blob = faults.corrupt_blob(&first.blob, phase, w.item, attempt);
                    }
                    self.pool
                        .step(i, env, params, self.round, step, &delivered, rng_seed)
                } else {
                    self.pool
                        .step(i, env, params, self.round, step, &w.partition, rng_seed)
                };
                let output = match stepped {
                    Ok(o) => o,
                    Err(e) if step_failure_absorbed(&e, corrupted) => {
                        self.stats.faults.corrupt_rejected += 1;
                        self.stats.record_reassignment(phase);
                        w.not_before = self.round + backoff(attempt);
                        queue.push_back(w);
                        continue;
                    }
                    Err(other) => return Err(other),
                };
                let bytes_up = match &output {
                    StepResult::Working(ts) => ts.iter().map(|t| t.blob.len() as u64).sum(),
                    StepResult::Results(rs) => rs.iter().map(|b| b.len() as u64).sum(),
                };
                self.stats.record(
                    phase,
                    self.tds_ids[i],
                    TdsWork {
                        bytes_down,
                        bytes_up,
                        tuples: tuples_in,
                        crypto_blocks: (bytes_down + bytes_up) / 16,
                    },
                );
                round_max_bytes = round_max_bytes.max(bytes_down + bytes_up);
                // Upload leg.
                if faults.lose_upload(phase, w.item, attempt) {
                    self.stats.faults.lost_uploads += 1;
                    w.not_before = self.round + backoff(attempt);
                    queue.push_back(w);
                    continue;
                }
                let assignment = match self.ssi.begin_assignment(qid, w.item) {
                    Ok(a) => a,
                    Err(e) if is_transport_error(&e) => {
                        self.stats.faults.lost_uploads += 1;
                        w.not_before = self.round + backoff(attempt);
                        queue.push_back(w);
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                if faults.deliver_late(phase, w.item, attempt) {
                    stash.push(LateUpload {
                        assignment,
                        output,
                        bytes_up,
                        deliver_at: self.round + LATE_DELAY,
                    });
                    w.not_before = self.round + backoff(attempt);
                    queue.push_back(w);
                    continue;
                }
                let duplicate = if faults.duplicate_upload(phase, w.item, attempt) {
                    Some(output.clone())
                } else {
                    None
                };
                match self.deliver_upload(qid, phase, assignment, output, bytes_up) {
                    Ok(DeliveryOutcome::Accepted) => {}
                    Ok(DeliveryOutcome::Duplicate) => self.stats.faults.duplicates_dropped += 1,
                    Ok(DeliveryOutcome::LateAfterReassign) => {
                        self.stats.faults.late_after_reassign += 1;
                    }
                    Ok(DeliveryOutcome::WindowClosed) => {}
                    Err(e) if is_transport_error(&e) => {
                        self.stats.faults.lost_uploads += 1;
                        w.not_before = self.round + backoff(attempt);
                        queue.push_back(w);
                        continue;
                    }
                    Err(e) => return Err(e),
                }
                if let Some(copy) = duplicate {
                    if self.deliver_upload(qid, phase, assignment, copy, bytes_up)?
                        == DeliveryOutcome::Duplicate
                    {
                        self.stats.faults.duplicates_dropped += 1;
                    }
                }
            }
            while let Some(w) = ready.pop_back() {
                queue.push_front(w);
            }
            self.stats.record_step_critical(phase, round_max_bytes);
        }
        self.flush_late_uploads(qid, phase, &mut stash, true)?;
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

    /// Deliver one upload (working tuples or result rows) under its
    /// assignment, recording SSI storage on acceptance.
    fn deliver_upload(
        &mut self,
        qid: u64,
        phase: Phase,
        assignment: AssignmentId,
        output: StepResult,
        bytes_up: u64,
    ) -> Result<DeliveryOutcome> {
        Ok(match output {
            StepResult::Working(ts) => {
                let n = ts.len() as u64;
                let outcome = self.ssi.receive_working(qid, assignment, phase, ts)?;
                if outcome == DeliveryOutcome::Accepted {
                    self.stats.record_ssi_store(phase, n, bytes_up);
                }
                outcome
            }
            StepResult::Results(rs) => {
                let n = rs.len() as u64;
                let outcome = self.ssi.receive_results(qid, assignment, rs)?;
                if outcome == DeliveryOutcome::Accepted {
                    self.stats.record_ssi_store(phase, n, bytes_up);
                }
                outcome
            }
        })
    }

    /// Deliver stashed late uploads whose flight time elapsed (all of them
    /// when `force`). Returns whether any delivery was accepted.
    fn flush_late_uploads(
        &mut self,
        qid: u64,
        phase: Phase,
        stash: &mut Vec<LateUpload>,
        force: bool,
    ) -> Result<bool> {
        let mut accepted = false;
        let mut rest = Vec::new();
        for entry in stash.drain(..) {
            if !force && entry.deliver_at > self.round {
                rest.push(entry);
                continue;
            }
            match self.deliver_upload(qid, phase, entry.assignment, entry.output, entry.bytes_up) {
                Ok(DeliveryOutcome::Accepted) => accepted = true,
                Ok(DeliveryOutcome::Duplicate) => self.stats.faults.duplicates_dropped += 1,
                Ok(DeliveryOutcome::LateAfterReassign) => {
                    self.stats.faults.late_after_reassign += 1;
                }
                Ok(DeliveryOutcome::WindowClosed) => {}
                // The in-flight copy dies with the connection — a lost
                // upload; the owning work item retries under a fresh
                // assignment.
                Err(e) if is_transport_error(&e) => self.stats.faults.lost_uploads += 1,
                Err(e) => return Err(e),
            }
        }
        *stash = rest;
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
