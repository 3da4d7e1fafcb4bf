//! Concurrent runtime: every TDS works on its own thread.
//!
//! The round-based runtime is deterministic but sequential. This runtime
//! interprets the same compiled [`PhasePlan`]s with real parallelism, and
//! scales to 100k-TDS populations by keeping the hot path shard-local:
//!
//! * work items live in **per-worker queue shards** ([`ShardedQueue`]) —
//!   a worker pops from its home shard and steals from neighbours only
//!   when its shard runs dry, so queue locks are uncontended in steady
//!   state (the old design funnelled every pop through one global mutex);
//! * deliveries settle through the SSI's own lock-striped
//!   [`SettleLedger`], one per run — two deliveries for different work
//!   items settle on different stripes and never serialize;
//! * worker outputs, fault counters, held-back uploads and abandoned items
//!   stay **thread-local** ([`WorkerLocal`]) until the phase ends, then
//!   merge once, sorted by work-item id.
//!
//! Determinism: every work item draws its randomness from a private RNG
//! seeded by `(phase seed, item, attempt)` — never from a per-worker
//! stream — and the merged output order is the item order. A run's bytes
//! are therefore identical for any worker count and any thread schedule,
//! including under an active [`FaultPlan`] (which item survives which
//! attempt is a function of the plan, not the scheduler). Verified in
//! `tests/threaded_runtime.rs` and `tests/chaos.rs`.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use tdsql_crypto::rng::{SeedableRng, StdRng};
use tdsql_obs::MetricsSet;

use crate::bytes::Bytes;

use tdsql_sql::ast::Query;
use tdsql_sql::value::Value;

use crate::arena::TupleArena;
use crate::connectivity::FaultPlan;
use crate::error::{ProtocolError, Result};
use crate::message::{AssignmentId, GroupTag, StoredTuple};
use crate::partition::{random_partitions, tag_partitions};
use crate::plan::{
    DiscoveryNeed, FinalizeOp, FinalizePartitioning, Partitioning, PhasePlan, Until,
};
use crate::protocol::{discovery, ProtocolKind, ProtocolParams};
use crate::querier::Querier;
use crate::ssi::{SettleLedger, SettleVerdict};
use crate::stats::{FaultStats, Phase};
use crate::tds::{QueryOpenCache, ResultDest, Tds};

/// One worker step's output: either more working-set tuples (reduction
/// phases) or sealed result blobs (finalization).
pub enum WorkerOutput {
    /// Tuples that go back into the working set for the next plan step.
    Working(Vec<StoredTuple>),
    /// Sealed result blobs headed for the plan's result destination.
    Results(Vec<Bytes>),
}

/// Lock a mutex, recovering the data on poison: a panicking worker thread
/// must not turn into a second panic on the coordinating thread (the first
/// error is already captured via `first_err`).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Build the RNG for one `(seed, item, attempt)` coordinate.
///
/// Work-item randomness must not come from per-worker RNG streams: which
/// worker processes which item depends on the thread schedule, and a
/// schedule-dependent nonce makes run bytes irreproducible. Seeding per
/// (item, attempt) instead makes every sealed blob a pure function of the
/// phase seed and the fault plan. The splitmix64 finalizer decorrelates
/// the low-entropy inputs (items are sequential integers).
fn item_rng(seed: u64, item: u64, attempt: u32) -> StdRng {
    let mut x = seed
        ^ item.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ u64::from(attempt).wrapping_mul(0xd134_2543_de82_ef95);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    StdRng::seed_from_u64(x)
}

/// First error across the worker pool, with a cheap cancellation flag so
/// the hot path never takes the mutex just to learn nothing has failed.
struct FirstError {
    hit: AtomicBool,
    slot: Mutex<Option<ProtocolError>>,
}

impl FirstError {
    fn new() -> Self {
        Self {
            hit: AtomicBool::new(false),
            slot: Mutex::new(None),
        }
    }

    fn set(&self, e: ProtocolError) {
        lock(&self.slot).get_or_insert(e);
        self.hit.store(true, Ordering::Release);
    }

    fn is_set(&self) -> bool {
        self.hit.load(Ordering::Acquire)
    }

    fn take(&self) -> Option<ProtocolError> {
        lock(&self.slot).take()
    }
}

/// Convert a caught panic payload into a protocol error.
fn panic_to_error(payload: Box<dyn std::any::Any + Send>) -> ProtocolError {
    let what = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    ProtocolError::Protocol(format!("worker panicked: {what}"))
}

/// One unit of work: a partition plus its stable item id (fault decisions
/// and output ordering key off it) and how many times it has been tried.
struct FWorkItem {
    item: u64,
    partition: Vec<StoredTuple>,
    attempts: u32,
}

/// Per-worker sharded work queue with steal-on-empty.
///
/// Partitions are dealt to shards in contiguous chunks so a worker's home
/// shard holds a consecutive item range. A worker pops from its home shard
/// and scans the other shards only when home is empty; re-queued items
/// (fault path) go to `item % n_shards`, spreading retries instead of
/// piling them on one lock. `in_flight` counts popped-but-unresolved items
/// so fault-path workers know an empty scan may not mean the phase is over
/// (a peer could still re-queue what it holds).
struct ShardedQueue {
    shards: Vec<Mutex<VecDeque<FWorkItem>>>,
    in_flight: AtomicUsize,
}

impl ShardedQueue {
    fn deal(items: Vec<FWorkItem>, n_shards: usize) -> Self {
        let n_shards = n_shards.max(1);
        let chunk = items.len().div_ceil(n_shards).max(1);
        let mut shards: Vec<VecDeque<FWorkItem>> = (0..n_shards).map(|_| VecDeque::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            shards[(i / chunk).min(n_shards - 1)].push_back(item);
        }
        Self {
            shards: shards.into_iter().map(Mutex::new).collect(),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// One scan over all shards starting at `home`. Marks the popped item
    /// in-flight while the shard lock is still held, so a concurrent empty
    /// scan cannot observe "no items anywhere, nothing in flight".
    fn try_pop(&self, home: usize) -> Option<FWorkItem> {
        let n = self.shards.len();
        for i in 0..n {
            let mut shard = lock(&self.shards[(home + i) % n]);
            if let Some(w) = shard.pop_front() {
                self.in_flight.fetch_add(1, Ordering::SeqCst);
                return Some(w);
            }
        }
        None
    }

    /// Pop for the fault path: spins (with yields) while peers hold items
    /// that may yet be re-queued. Returns `None` only when every shard is
    /// empty and nothing is in flight.
    fn pop_or_wait(&self, home: usize) -> Option<FWorkItem> {
        loop {
            // Read in-flight BEFORE scanning: re-queues push to the shard
            // before decrementing, so "0 in flight, then an empty scan"
            // proves no item can appear later.
            let quiescent = self.in_flight.load(Ordering::SeqCst) == 0;
            if let Some(w) = self.try_pop(home) {
                return Some(w);
            }
            if quiescent {
                return None;
            }
            std::thread::yield_now();
        }
    }

    /// Put a popped item back (fault path: lost upload, corrupt download,
    /// late delivery). Push precedes the in-flight decrement — see
    /// [`Self::pop_or_wait`].
    fn requeue(&self, fw: FWorkItem) {
        let shard = (fw.item as usize) % self.shards.len();
        lock(&self.shards[shard]).push_back(fw);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Mark a popped item resolved (settled, abandoned, or errored).
    fn resolve(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Fault-injection knobs for the threaded runtime.
///
/// `faults` supplies the deterministic per-(phase, item, attempt) decisions;
/// `retry_budget` bounds how many times one work item may be attempted
/// before the run gives up; `degrade` selects what "giving up" means:
/// abandon the item and flag the run partial (SIZE-bounded semantics), or
/// abort with [`ProtocolError::QueryAborted`].
///
/// Message *reorder* has no dedicated knob here: thread scheduling already
/// delivers uploads in nondeterministic order, which is exactly the fault
/// the sequential driver has to synthesise. (Output bytes still don't depend on
/// that order — deliveries are merged by work-item id at the phase end.)
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Deterministic fault plan (loss / duplication / late / corruption).
    pub faults: FaultPlan,
    /// Max attempts per work item before the budget is exhausted.
    pub retry_budget: u32,
    /// On budget exhaustion: abandon the item (partial result) instead of
    /// aborting the query.
    pub degrade: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            faults: FaultPlan::none(),
            retry_budget: 64,
            degrade: false,
        }
    }
}

/// What a faulty threaded run observed besides its outputs.
#[derive(Debug, Clone, Default)]
pub struct ThreadedRunReport {
    /// Fault/dedup counters, absorbed across all phases.
    pub faults: FaultStats,
    /// True when at least one work item was abandoned after its retry
    /// budget ran out (only possible with [`FaultConfig::degrade`]).
    pub partial: bool,
    /// Per-phase wall-clock histograms (`threaded.<phase>.wall_us`) and
    /// work counters. Wall time lives here — in metrics — and never in trace
    /// events, which must stay deterministic.
    pub metrics: MetricsSet,
}

/// The [`SettleLedger`] assignment id of one `(item, attempt)`: an attempt
/// number is unique per item here, so the pair is the assignment.
fn assignment_id(item: u64, attempt: u32) -> AssignmentId {
    AssignmentId((item << 32) | u64::from(attempt))
}

/// What one worker accumulates during a phase, merged once at the phase
/// end ([`finish_phase`]) — nothing here is shared while the phase runs.
#[derive(Default)]
struct WorkerLocal {
    /// Accepted deliveries, keyed by work item.
    accepted: Vec<(u64, WorkerOutput)>,
    /// Uploads held back by the network, delivered at the end of the phase.
    stash: Vec<(u64, u32, WorkerOutput)>,
    /// Items whose retry budget ran out under `degrade`.
    abandoned: BTreeSet<u64>,
    /// Fault counters for this phase.
    stats: FaultStats,
}

/// How one delivery attempt ended, for the loop that made it.
enum Attempt {
    /// The item needs no further attempt: it settled, or was abandoned.
    Resolved,
    /// The attempt was absorbed by the fault plan; try the item again.
    Retry,
    /// The run fails with this error.
    Fatal(ProtocolError),
}

/// One at-least-once delivery attempt, `attempt` (1-based) for `item`, with
/// the fault plan's dice rolled on both legs in transport order: the
/// download may be corrupted (`run` is told, the TDS rejects it — MAC or
/// decrypt failure — and the item is retried), the upload may be lost
/// (retried), held back until the end of the phase (stashed *and* retried,
/// modelling an SSI timeout plus eventual delivery), or duplicated (the
/// second settle must come back `Duplicate`). An attempt past the retry
/// budget abandons the item (`degrade`) or aborts the query.
fn faulty_attempt(
    cfg: &FaultConfig,
    phase: Phase,
    item: u64,
    attempt: u32,
    ledger: &SettleLedger,
    local: &mut WorkerLocal,
    run: impl FnOnce(bool) -> Result<WorkerOutput>,
) -> Attempt {
    if attempt > cfg.retry_budget {
        if !cfg.degrade {
            return Attempt::Fatal(ProtocolError::QueryAborted {
                phase,
                retries: attempt - 1,
            });
        }
        local.stats.items_abandoned += 1;
        local.abandoned.insert(item);
        return Attempt::Resolved;
    }
    let assignment = assignment_id(item, attempt);
    ledger.issue(assignment, item);

    // Download leg.
    let corrupted = cfg.faults.corrupt_download(phase, item, attempt);
    let output = match run(corrupted) {
        Err(ProtocolError::Crypto(_) | ProtocolError::Codec(_)) if corrupted => {
            // Tamper detected exactly as designed: reject the delivery and
            // have the SSI re-send the work.
            local.stats.corrupt_rejected += 1;
            return Attempt::Retry;
        }
        Err(e) => return Attempt::Fatal(e),
        Ok(output) => output,
    };

    // Upload leg.
    if cfg.faults.lose_upload(phase, item, attempt) {
        local.stats.lost_uploads += 1;
        return Attempt::Retry;
    }
    if cfg.faults.deliver_late(phase, item, attempt) {
        // The SSI times out and re-sends; the upload arrives eventually
        // (flushed at the end of the phase).
        local.stash.push((item, attempt, output));
        return Attempt::Retry;
    }
    match ledger.settle(assignment) {
        SettleVerdict::Accepted => {
            // The network may replay the same assignment; the ledger must
            // drop the second copy.
            if cfg.faults.duplicate_upload(phase, item, attempt)
                && ledger.settle(assignment) == SettleVerdict::Duplicate
            {
                local.stats.duplicates_dropped += 1;
            }
            local.accepted.push((item, output));
        }
        SettleVerdict::Duplicate => local.stats.duplicates_dropped += 1,
        SettleVerdict::LateAfterReassign => local.stats.late_after_reassign += 1,
        SettleVerdict::WindowClosed | SettleVerdict::RejectInvalid => {}
    }
    Attempt::Resolved
}

/// Close a phase: merge the workers' local state, deliver everything the
/// network held back — in (item, attempt) order so the flush is
/// schedule-independent — and fold the counters into `report`. An accepted
/// late delivery completes its item, even one that was already abandoned
/// (the at-least-once contract holds past the budget).
fn finish_phase(
    locals: Vec<WorkerLocal>,
    ledger: &SettleLedger,
    report: &mut ThreadedRunReport,
) -> Vec<(u64, WorkerOutput)> {
    let mut merged = WorkerLocal::default();
    for local in locals {
        merged.accepted.extend(local.accepted);
        merged.stash.extend(local.stash);
        merged.abandoned.extend(local.abandoned);
        merged.stats.absorb(&local.stats);
    }
    merged
        .stash
        .sort_by_key(|(item, attempt, _)| (*item, *attempt));
    for (item, attempt, output) in merged.stash {
        match ledger.settle(assignment_id(item, attempt)) {
            SettleVerdict::Accepted => {
                if merged.abandoned.remove(&item) {
                    merged.stats.items_abandoned -= 1;
                }
                merged.accepted.push((item, output));
            }
            SettleVerdict::Duplicate => merged.stats.duplicates_dropped += 1,
            SettleVerdict::LateAfterReassign => merged.stats.late_after_reassign += 1,
            SettleVerdict::WindowClosed | SettleVerdict::RejectInvalid => {}
        }
    }
    report.faults.absorb(&merged.stats);
    report.partial |= !merged.abandoned.is_empty();
    merged.accepted
}

/// Merge per-worker `(item, output)` lists into the phase's working set and
/// result blobs. Sorting by item id is what makes the merged order — and
/// therefore everything downstream (partitioning, nonces, result bytes) —
/// independent of worker count and thread schedule.
fn merge_outputs(mut accepted: Vec<(u64, WorkerOutput)>) -> (Vec<StoredTuple>, Vec<Bytes>) {
    accepted.sort_by_key(|(item, _)| *item);
    let mut working = Vec::new();
    let mut results = Vec::new();
    for (_, output) in accepted {
        match output {
            WorkerOutput::Working(ts) => working.extend(ts),
            WorkerOutput::Results(rs) => results.extend(rs),
        }
    }
    (working, results)
}

/// Fan a set of partitions out to `n_workers` threads (clamped to
/// `1..=tdss.len()`; an empty population is an error); each partition is
/// processed by some TDS via `work`. Returns the merged outputs, ordered by
/// partition index regardless of scheduling.
///
/// A worker that returns an error or panics stops pulling; the remaining
/// workers keep draining the queue, and the first failure is reported after
/// all of them finish (a panic is converted to [`ProtocolError::Protocol`]
/// rather than propagated, so one crashing TDS cannot take the whole
/// runtime down with it).
pub fn parallel_partitions<F>(
    tdss: &[Tds],
    n_workers: usize,
    seed: u64,
    partitions: Vec<Vec<StoredTuple>>,
    work: F,
) -> Result<(Vec<StoredTuple>, Vec<Bytes>)>
where
    F: Fn(&Tds, &[StoredTuple], &mut StdRng) -> Result<WorkerOutput> + Sync,
{
    if tdss.is_empty() {
        return Err(ProtocolError::Protocol("empty TDS population".into()));
    }
    let n_workers = n_workers.clamp(1, tdss.len());
    let items: Vec<FWorkItem> = partitions
        .into_iter()
        .enumerate()
        .map(|(i, partition)| FWorkItem {
            item: i as u64,
            partition,
            attempts: 0,
        })
        .collect();
    let queue = ShardedQueue::deal(items, n_workers);
    let first_err = FirstError::new();

    let accepted = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let queue = &queue;
            let first_err = &first_err;
            let work = &work;
            let tds = &tdss[w % tdss.len()];
            handles.push(scope.spawn(move || {
                let mut local: Vec<(u64, WorkerOutput)> = Vec::new();
                while let Some(fw) = queue.try_pop(w) {
                    queue.resolve();
                    if first_err.is_set() {
                        // A peer already failed; drain quietly.
                        continue;
                    }
                    let mut rng = item_rng(seed, fw.item, 1);
                    let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        work(tds, &fw.partition, &mut rng)
                    }))
                    .unwrap_or_else(|payload| Err(panic_to_error(payload)));
                    match step {
                        Ok(output) => local.push((fw.item, output)),
                        Err(e) => first_err.set(e),
                    }
                }
                local
            }));
        }
        let mut accepted = Vec::new();
        for h in handles {
            if let Ok(local) = h.join() {
                accepted.extend(local);
            }
        }
        accepted
    });
    if let Some(e) = first_err.take() {
        return Err(e);
    }
    Ok(merge_outputs(accepted))
}

/// [`parallel_partitions`] with at-least-once delivery faults injected on
/// both legs of every worker step ([`faulty_attempt`]). A retried item is
/// re-queued — the threaded analogue of the sequential driver's backoff.
/// Item ids come from the run's `ledger`, so successive phases (and waves
/// within one phase) never share fault coordinates.
#[allow(clippy::too_many_arguments)]
fn parallel_partitions_faulty<F>(
    tdss: &[Tds],
    n_workers: usize,
    seed: u64,
    phase: Phase,
    cfg: &FaultConfig,
    ledger: &SettleLedger,
    report: &mut ThreadedRunReport,
    partitions: Vec<Vec<StoredTuple>>,
    work: F,
) -> Result<(Vec<StoredTuple>, Vec<Bytes>)>
where
    F: Fn(&Tds, &[StoredTuple], &mut StdRng) -> Result<WorkerOutput> + Sync,
{
    if !cfg.faults.is_active() {
        // Healthy path: identical behaviour (and cost) to the plain fan-out,
        // which numbers its items from 0 and needs no ledger.
        return parallel_partitions(tdss, n_workers, seed, partitions, work);
    }

    let items: Vec<FWorkItem> = partitions
        .into_iter()
        .map(|partition| FWorkItem {
            item: ledger.new_item(),
            partition,
            attempts: 0,
        })
        .collect();
    let queue = ShardedQueue::deal(items, n_workers);
    let first_err = FirstError::new();

    let locals = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let queue = &queue;
            let first_err = &first_err;
            let work = &work;
            let tds = &tdss[w % tdss.len()];
            handles.push(scope.spawn(move || {
                let mut local = WorkerLocal::default();
                while let Some(mut fw) = queue.pop_or_wait(w) {
                    if first_err.is_set() {
                        // A peer already failed; resolve and drain quietly.
                        queue.resolve();
                        continue;
                    }
                    fw.attempts += 1;
                    let (item, attempt) = (fw.item, fw.attempts);
                    let run = |corrupted: bool| {
                        let mut rng = item_rng(seed, item, attempt);
                        // The partition the TDS sees may be corrupt.
                        let corrupted_copy = corrupted.then(|| {
                            let mut copy = fw.partition.clone();
                            if let Some(first) = copy.first_mut() {
                                first.blob =
                                    cfg.faults.corrupt_blob(&first.blob, phase, item, attempt);
                            }
                            copy
                        });
                        let input: &[StoredTuple] =
                            corrupted_copy.as_deref().unwrap_or(&fw.partition);
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            work(tds, input, &mut rng)
                        }))
                        .unwrap_or_else(|payload| Err(panic_to_error(payload)))
                    };
                    match faulty_attempt(cfg, phase, item, attempt, ledger, &mut local, run) {
                        Attempt::Resolved => queue.resolve(),
                        Attempt::Retry => queue.requeue(fw),
                        Attempt::Fatal(e) => {
                            first_err.set(e);
                            queue.resolve();
                        }
                    }
                }
                local
            }));
        }
        handles
            .into_iter()
            .filter_map(|h| h.join().ok())
            .collect::<Vec<_>>()
    });
    if let Some(e) = first_err.take() {
        return Err(e);
    }
    Ok(merge_outputs(finish_phase(locals, ledger, report)))
}

/// Partition the working set as a plan step prescribes (threaded flavour:
/// randomness comes from the coordinator's `seed_rng`, matching the round
/// runtime's use of the world RNG).
fn partition_threaded(
    working: Vec<StoredTuple>,
    how: Partitioning,
    seed_rng: &mut StdRng,
) -> Vec<Vec<StoredTuple>> {
    match how {
        Partitioning::Random { chunk } => random_partitions(working, chunk, seed_rng),
        Partitioning::ByTag { chunk } => tag_partitions(working, chunk)
            .into_iter()
            .map(|(_, t)| t)
            .collect(),
    }
}

/// Interpret a compiled [`PhasePlan`] with `n_workers` concurrent TDS
/// workers and return the sealed result blobs (sealed for the plan's
/// [`FinalizeSpec::dest`](crate::plan::FinalizeSpec)).
///
/// This is the threaded analogue of `SimWorld::execute_plan` plus the
/// collection phase; [`run_threaded`] wraps it for querier-destined results.
pub fn run_plan_threaded(
    tdss: &[Tds],
    querier: &Querier,
    query: &Query,
    params: &ProtocolParams,
    plan: &PhasePlan,
    n_workers: usize,
) -> Result<Vec<Bytes>> {
    let (blobs, _) = run_plan_threaded_with(
        tdss,
        querier,
        query,
        params,
        plan,
        n_workers,
        &FaultConfig::default(),
    )?;
    Ok(blobs)
}

/// [`run_plan_threaded`] with fault injection: same interpreter, but every
/// phase's deliveries go through the at-least-once/dedup machinery, and the
/// run comes back with a [`ThreadedRunReport`].
pub fn run_plan_threaded_with(
    tdss: &[Tds],
    querier: &Querier,
    query: &Query,
    params: &ProtocolParams,
    plan: &PhasePlan,
    n_workers: usize,
    cfg: &FaultConfig,
) -> Result<(Vec<Bytes>, ThreadedRunReport)> {
    run_plan_threaded_impl(tdss, querier, query, params, plan, n_workers, cfg, false)
}

/// Collection-phase seed, mixed with (item, attempt) per contribution.
const COLLECTION_SEED: u64 = 0x5eed;

/// Ciphertext bytes a collection worker buffers in its [`TupleArena`]
/// before flushing to one shared allocation. Large enough to amortize the
/// flush copy over hundreds of tuples, small enough that peak memory stays
/// bounded at `n_workers * ~1 MiB` even for 10^6-TDS populations.
const ARENA_FLUSH_BYTES: usize = 1 << 20;

/// Flush a worker's arena: everything sealed since the last flush becomes
/// ONE `(first item id, Working(batch))` entry in `local`, tuples in seal
/// order. Sound because healthy-path items are processed in id order within
/// a worker and worker chunks are disjoint contiguous id ranges — after
/// [`merge_outputs`] sorts by the batch's first id, the concatenation is
/// byte-identical to one entry per item, for any worker count.
fn flush_arena(
    arena: &mut TupleArena,
    first_item: &mut Option<u64>,
    local: &mut Vec<(u64, WorkerOutput)>,
    flushed_bytes: &AtomicU64,
) {
    if let Some(id) = first_item.take() {
        flushed_bytes.fetch_add(arena.sealed_bytes() as u64, Ordering::Relaxed);
        local.push((id, WorkerOutput::Working(arena.drain_flat())));
    }
}

/// The shared interpreter behind [`run_plan_threaded_with`]. With
/// `as_discovery` every phase is attributed to [`Phase::Discovery`] — in
/// fault coordinates, abort errors and the report — so a chaos schedule
/// reaches the discovery sub-protocol's traffic with its own dice.
#[allow(clippy::too_many_arguments)]
fn run_plan_threaded_impl(
    tdss: &[Tds],
    querier: &Querier,
    query: &Query,
    params: &ProtocolParams,
    plan: &PhasePlan,
    n_workers: usize,
    cfg: &FaultConfig,
    as_discovery: bool,
) -> Result<(Vec<Bytes>, ThreadedRunReport)> {
    let col_phase = if as_discovery {
        Phase::Discovery
    } else {
        Phase::Collection
    };
    let agg_phase = if as_discovery {
        Phase::Discovery
    } else {
        Phase::Aggregation
    };
    let fin_phase = if as_discovery {
        Phase::Discovery
    } else {
        Phase::Filtering
    };
    if tdss.is_empty() {
        return Err(ProtocolError::Protocol("empty TDS population".into()));
    }
    let n_workers = n_workers.clamp(1, tdss.len());
    let mut seed_rng = StdRng::seed_from_u64(0xc0ffee);
    let envelope = querier.make_envelope(query, params.kind, &mut seed_rng);
    let mut report = ThreadedRunReport::default();
    // One ledger for the whole run: work item ids are global across phases,
    // so no two fault decisions ever share a (phase, item, attempt)
    // coordinate with different meanings. Only faulty runs touch it.
    let ledger = SettleLedger::new();

    // --- Collection phase: every TDS contributes concurrently. -----------
    // A TDS's contribution can only come from that TDS, so retries stay
    // pinned to the worker holding it rather than going through the shared
    // queue: each worker loops locally until the delivery settles or the
    // retry budget runs out. Contributions are merged in TDS order, and
    // each (TDS, attempt) seals with its own RNG, so the collected working
    // set is byte-identical for any worker count.
    let phase_clock = std::time::Instant::now();
    let faults_active = cfg.faults.is_active();
    let first_err = FirstError::new();
    // One open cache for the whole run: the envelope's k1 decrypt + parse +
    // plan compilation happen once, not once per TDS. Per-TDS trust checks
    // (credential verify, policy) still run on every open — see
    // [`Tds::open_query_cached`].
    let open_cache = QueryOpenCache::new();
    // One shared copy of the protocol parameters for the whole run: opening
    // a context per TDS then costs an `Arc` bump, not a deep clone of the
    // discovery data (noise domain / histogram).
    let shared_params = std::sync::Arc::new(params.clone());
    let arena_flushed = AtomicU64::new(0);
    let chunk_size = tdss.len().div_ceil(n_workers);
    // TDS `i` contributes work item `i`: the first ids of the fresh ledger.
    if faults_active {
        for _ in tdss {
            ledger.new_item();
        }
    }
    let locals = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_workers);
        for (w, chunk) in tdss.chunks(chunk_size).enumerate() {
            let ledger = &ledger;
            let first_err = &first_err;
            let envelope = &envelope;
            let open_cache = &open_cache;
            let shared_params = &shared_params;
            let arena_flushed = &arena_flushed;
            handles.push(scope.spawn(move || {
                let mut local = WorkerLocal::default();
                // Healthy-path sealing buffer: tuples from many TDSs land in
                // one contiguous arena, flushed as zero-copy views past
                // ARENA_FLUSH_BYTES. The faulty path keeps per-item Vecs —
                // retries and late stashes need independently-owned blobs.
                let mut arena = if faults_active {
                    TupleArena::new()
                } else {
                    TupleArena::with_capacity(ARENA_FLUSH_BYTES)
                };
                let mut arena_first: Option<u64> = None;
                for (k, tds) in chunk.iter().enumerate() {
                    let item = (w * chunk_size + k) as u64;
                    if !faults_active {
                        // Healthy fast path: no fault legs, no ledger locks —
                        // collection scales with zero shared-state traffic.
                        if first_err.is_set() {
                            return local;
                        }
                        let mut rng = item_rng(COLLECTION_SEED, item, 1);
                        let step = (|| -> Result<()> {
                            let ctx = tds.open_query_cached(
                                envelope,
                                std::sync::Arc::clone(shared_params),
                                0,
                                open_cache,
                            )?;
                            arena.begin_item();
                            if let Err(e) = tds.collect_into(&ctx, &mut rng, &mut arena) {
                                arena.abort_item();
                                return Err(e);
                            }
                            Ok(())
                        })();
                        match step {
                            Ok(()) => {
                                arena_first.get_or_insert(item);
                                if arena.sealed_bytes() >= ARENA_FLUSH_BYTES {
                                    flush_arena(
                                        &mut arena,
                                        &mut arena_first,
                                        &mut local.accepted,
                                        arena_flushed,
                                    );
                                }
                            }
                            Err(e) => {
                                first_err.set(e);
                                return local;
                            }
                        }
                        continue;
                    }
                    // A TDS's contribution can only come from that TDS, so
                    // a retry is the next turn of this loop, not a re-queue.
                    let mut attempt: u32 = 0;
                    loop {
                        if first_err.is_set() {
                            return local;
                        }
                        attempt += 1;
                        let run = |corrupted: bool| {
                            let mut rng = item_rng(COLLECTION_SEED, item, attempt);
                            // The query envelope itself may arrive corrupted
                            // — `open_query` then fails to authenticate.
                            let ctx = if corrupted {
                                let mut bad = envelope.clone();
                                bad.enc_query = cfg.faults.corrupt_blob(
                                    &envelope.enc_query,
                                    col_phase,
                                    item,
                                    attempt,
                                );
                                tds.open_query(&bad, params.clone(), 0)?
                            } else {
                                tds.open_query(envelope, params.clone(), 0)?
                            };
                            Ok(WorkerOutput::Working(tds.collect(&ctx, &mut rng)?))
                        };
                        match faulty_attempt(cfg, col_phase, item, attempt, ledger, &mut local, run)
                        {
                            Attempt::Resolved => break,
                            Attempt::Retry => {}
                            Attempt::Fatal(e) => {
                                first_err.set(e);
                                return local;
                            }
                        }
                    }
                }
                flush_arena(
                    &mut arena,
                    &mut arena_first,
                    &mut local.accepted,
                    arena_flushed,
                );
                local
            }));
        }
        handles
            .into_iter()
            .filter_map(|h| h.join().ok())
            .collect::<Vec<_>>()
    });
    if let Some(e) = first_err.take() {
        return Err(e);
    }
    // Stashed (late) collection uploads are delivered before the window
    // closes.
    let (mut working, _) = merge_outputs(finish_phase(locals, &ledger, &mut report));
    report.metrics.observe(
        &format!("threaded.{col_phase}.wall_us"),
        phase_clock.elapsed().as_micros() as u64,
    );
    report.metrics.inc(
        &format!("threaded.{col_phase}.tuples"),
        working.len() as u64,
    );
    report.metrics.inc(
        &format!("threaded.{col_phase}.bytes"),
        working.iter().map(|t| t.blob.len() as u64).sum(),
    );
    report.metrics.inc(
        &format!("threaded.{col_phase}.arena_bytes"),
        arena_flushed.load(Ordering::Relaxed),
    );

    let open = |tds: &Tds| -> Result<crate::tds::QueryContext> {
        tds.open_query_cached(
            &envelope,
            std::sync::Arc::clone(&shared_params),
            0,
            &open_cache,
        )
    };

    // --- Reduction: interpret the plan's reduce spec, if any. -------------
    let phase_clock = std::time::Instant::now();
    if let Some(reduce) = &plan.reduce {
        let retag = reduce.retag;
        let first_seed = match reduce.until {
            Until::SingleBatch => 0xfeed,
            Until::TagSingletons => 0x7a65,
        };
        let partitions = partition_threaded(working, reduce.first, &mut seed_rng);
        let (next, _) = parallel_partitions_faulty(
            tdss,
            n_workers,
            first_seed,
            agg_phase,
            cfg,
            &ledger,
            &mut report,
            partitions,
            |tds, p, rng| {
                let ctx = open(tds)?;
                Ok(WorkerOutput::Working(
                    tds.reduce_inputs(&ctx, p, retag, rng)?,
                ))
            },
        )?;
        working = next;

        match reduce.until {
            // Iterative random partitioning down to one partial batch.
            Until::SingleBatch => {
                while working.len() > 1 {
                    let partitions = partition_threaded(working, reduce.again, &mut seed_rng);
                    let (next, _) = parallel_partitions_faulty(
                        tdss,
                        n_workers,
                        0xfeed,
                        agg_phase,
                        cfg,
                        &ledger,
                        &mut report,
                        partitions,
                        |tds, p, rng| {
                            let ctx = open(tds)?;
                            Ok(WorkerOutput::Working(
                                tds.reduce_partials(&ctx, p, retag, rng)?,
                            ))
                        },
                    )?;
                    working = next;
                }
            }
            // Merge per tag until every tag holds a single partial.
            Until::TagSingletons => loop {
                let mut per_tag: std::collections::BTreeMap<GroupTag, usize> =
                    std::collections::BTreeMap::new();
                for t in &working {
                    *per_tag.entry(t.tag.clone()).or_default() += 1;
                }
                if per_tag.values().all(|&n| n <= 1) {
                    break;
                }
                let (pass, reduce_set): (Vec<StoredTuple>, Vec<StoredTuple>) =
                    working.into_iter().partition(|t| per_tag[&t.tag] <= 1);
                let partitions = partition_threaded(reduce_set, reduce.again, &mut seed_rng);
                let (mut reduced, _) = parallel_partitions_faulty(
                    tdss,
                    n_workers,
                    0x5e9,
                    agg_phase,
                    cfg,
                    &ledger,
                    &mut report,
                    partitions,
                    |tds, p, rng| {
                        let ctx = open(tds)?;
                        Ok(WorkerOutput::Working(
                            tds.reduce_partials(&ctx, p, retag, rng)?,
                        ))
                    },
                )?;
                reduced.extend(pass);
                working = reduced;
            },
        }
        report.metrics.observe(
            &format!("threaded.{agg_phase}.wall_us"),
            phase_clock.elapsed().as_micros() as u64,
        );
    }

    // --- Finalization: produce sealed results for the plan's dest. --------
    let phase_clock = std::time::Instant::now();
    if working.is_empty() {
        return Ok((Vec::new(), report));
    }
    let partitions = match plan.finalize.partitioning {
        FinalizePartitioning::Whole => vec![working],
        FinalizePartitioning::Chunked { chunk } => {
            working.chunks(chunk).map(|c| c.to_vec()).collect()
        }
        FinalizePartitioning::Random { chunk } => random_partitions(working, chunk, &mut seed_rng),
    };
    let op = plan.finalize.op;
    let dest = plan.finalize.dest;
    let seed = match op {
        FinalizeOp::FilterRows => 0xf117e4,
        FinalizeOp::FinalizeGroups => 0xf17e,
    };
    let (_, results) = parallel_partitions_faulty(
        tdss,
        n_workers,
        seed,
        fin_phase,
        cfg,
        &ledger,
        &mut report,
        partitions,
        |tds, p, rng| {
            let ctx = open(tds)?;
            let blobs = match op {
                FinalizeOp::FilterRows => tds.filter_plain(&ctx, p, rng)?,
                FinalizeOp::FinalizeGroups => tds.finalize_groups(&ctx, p, dest, rng)?,
            };
            Ok(WorkerOutput::Results(blobs))
        },
    )?;
    report.metrics.observe(
        &format!("threaded.{fin_phase}.wall_us"),
        phase_clock.elapsed().as_micros() as u64,
    );
    report.metrics.inc(
        &format!("threaded.{fin_phase}.results"),
        results.len() as u64,
    );
    report.metrics.inc(
        &format!("threaded.{fin_phase}.bytes"),
        results.iter().map(|b| b.len() as u64).sum(),
    );
    Ok((results, report))
}

/// Run a query through any protocol with `n_workers` concurrent TDS workers.
///
/// Protocols that need discovery (`C_Noise`, `Rnf_Noise`, `ED_Hist`) must
/// receive pre-filled `params` — from [`prepare_params_threaded`],
/// [`crate::runtime::SimWorld::prepare_params`], or a declared
/// domain/histogram; this entry point does not bootstrap discovery itself.
pub fn run_threaded(
    tdss: &[Tds],
    querier: &Querier,
    query: &Query,
    params: &ProtocolParams,
    n_workers: usize,
) -> Result<Vec<Vec<Value>>> {
    let (rows, _) = run_threaded_faulty(
        tdss,
        querier,
        query,
        params,
        n_workers,
        &FaultConfig::default(),
    )?;
    Ok(rows)
}

/// [`run_threaded`] under a fault plan: injects loss / duplication / late
/// delivery / corruption per `cfg` and reports what the dedup machinery
/// absorbed alongside the rows.
pub fn run_threaded_faulty(
    tdss: &[Tds],
    querier: &Querier,
    query: &Query,
    params: &ProtocolParams,
    n_workers: usize,
    cfg: &FaultConfig,
) -> Result<(Vec<Vec<Value>>, ThreadedRunReport)> {
    if tdss.is_empty() {
        return Err(ProtocolError::Protocol("empty TDS population".into()));
    }
    let plan = PhasePlan::compile(query, params);
    if let Some(need) = plan.discovery {
        if !discovery::satisfied(need, params) {
            return Err(ProtocolError::Unsupported(match need {
                DiscoveryNeed::Domain => {
                    "threaded noise protocols need a pre-discovered domain".into()
                }
                DiscoveryNeed::Histogram { .. } => {
                    "threaded ED_Hist needs a pre-discovered histogram".into()
                }
            }));
        }
    }
    let (blobs, report) =
        run_plan_threaded_with(tdss, querier, query, params, &plan, n_workers, cfg)?;
    let mut rows = querier.decrypt_results(&blobs)?;
    tdsql_sql::order::apply_order_limit(query, &mut rows)?;
    Ok((rows, report))
}

/// Bootstrap discovery-derived parameters on the threaded runtime itself:
/// the discovery sub-protocol (an S_Agg plan with results sealed for the
/// TDSs) runs with `n_workers` concurrent workers, then the discovered
/// distribution fills in whatever the target protocol needs.
///
/// `system_querier` must hold the system role so every TDS contributes its
/// tuples to the discovery aggregation.
pub fn prepare_params_threaded(
    tdss: &[Tds],
    system_querier: &Querier,
    query: &Query,
    kind: ProtocolKind,
    n_workers: usize,
) -> Result<ProtocolParams> {
    let (params, _) = prepare_params_threaded_faulty(
        tdss,
        system_querier,
        query,
        kind,
        n_workers,
        &FaultConfig::default(),
    )?;
    Ok(params)
}

/// [`prepare_params_threaded`] under a fault plan: the discovery
/// sub-protocol's messages roll [`Phase::Discovery`] fault dice (loss,
/// duplication, late delivery, corruption per `cfg`) and go through the same
/// at-least-once/dedup machinery as every other phase. Returns the filled
/// params together with the report of what the discovery run absorbed.
pub fn prepare_params_threaded_faulty(
    tdss: &[Tds],
    system_querier: &Querier,
    query: &Query,
    kind: ProtocolKind,
    n_workers: usize,
    cfg: &FaultConfig,
) -> Result<(ProtocolParams, ThreadedRunReport)> {
    let mut params = ProtocolParams::new(kind);
    let Some(need) = PhasePlan::compile(query, &params).discovery else {
        return Ok((params, ThreadedRunReport::default()));
    };
    if discovery::satisfied(need, &params) {
        return Ok((params, ThreadedRunReport::default()));
    }
    let dquery = discovery::discovery_query(query);
    let dparams = ProtocolParams::new(ProtocolKind::SAgg);
    let dplan = PhasePlan::compile(&dquery, &dparams).with_dest(ResultDest::Tds);
    let (blobs, report) = run_plan_threaded_impl(
        tdss,
        system_querier,
        &dquery,
        &dparams,
        &dplan,
        n_workers,
        cfg,
        true,
    )?;
    let opener = tdss
        .first()
        .ok_or_else(|| ProtocolError::Protocol("empty TDS population".into()))?;
    let rows = opener.open_k2_rows(&blobs)?;
    let distribution = discovery::distribution_from_rows(rows, dquery.group_by.len())?;
    discovery::apply_distribution(need, distribution, &mut params);
    Ok((params, report))
}

/// Backwards-compatible alias for the S_Agg-only entry point.
pub fn run_s_agg_threaded(
    tdss: &[Tds],
    querier: &Querier,
    query: &Query,
    params: &ProtocolParams,
    n_workers: usize,
) -> Result<Vec<Vec<Value>>> {
    run_threaded(tdss, querier, query, params, n_workers)
}
