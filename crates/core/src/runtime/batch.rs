//! Cross-query batching of TDS contact.
//!
//! With many drivers live at once, every driver independently dials the
//! same TDS pool with single-step requests. [`BatchingPool`] sits between
//! them and the pool: concurrent [`TdsPool::step`] calls that target the
//! same pool index are parked for a short *collection window* and shipped
//! upstream as one [`TdsPool::multi_step`] call — over `tdsql-net` that is
//! one wire frame instead of N.
//!
//! Correctness is untouched by construction: each part carries its own
//! envelope, params and `rng_seed`, the pool executes the parts
//! independently inside the TDS trust domain, and each caller gets back
//! exactly the result of *its* part (a protocol failure in one part never
//! leaks into a batch-mate — only a transport-level failure of the whole
//! contact is shared, and the drivers already absorb those as retries).
//!
//! The leader/follower shape: the first caller for an index becomes the
//! batch leader, waits for followers, then issues the upstream call and
//! distributes results. Followers block on the condvar until their slot is
//! filled. A window of zero disables parking entirely — calls pass
//! straight through.
//!
//! The wait is work-conserving. Drivers enroll for their whole query with
//! [`BatchingPool::member`], and a leader flushes as soon as its batch is
//! full, the window (an upper bound, never a target) expires, or every
//! other enrolled driver is itself blocked in the pool — nobody is left
//! who could still join. The rule reads driver counts and the clock only,
//! never a tuple, tag or size. A pool nobody enrolls in waits out the
//! window exactly as before.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tdsql_obs::MetricsSet;
use tdsql_sql::value::Value;

use crate::bytes::Bytes;
use crate::error::{ProtocolError, Result};
use crate::message::{QueryEnvelope, StoredTuple};
use crate::protocol::ProtocolParams;
use crate::service::{MultiStepPart, StepResult, TdsPool, TdsStep};

/// Recover a poisoned mutex (batch state is consistent between mutations).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A batch being collected for one pool index.
struct Forming {
    epoch: u64,
    parts: Vec<MultiStepPart>,
}

/// Shared batching state: forming batches per index, finished result sets
/// per (index, epoch) awaiting pickup by their callers, and the two driver
/// counts the leaders' flush rule reads.
struct Shared {
    forming: BTreeMap<usize, Forming>,
    done: BTreeMap<(usize, u64), Vec<Option<Result<StepResult>>>>,
    next_epoch: u64,
    /// Drivers holding a live [`Member`].
    members: usize,
    /// Callers blocked in the pool: leaders in their pre-flush wait,
    /// followers awaiting their slot, callers waiting for a full batch to
    /// clear.
    waiting: usize,
}

/// A driver's enrollment in a [`BatchingPool`], from
/// [`BatchingPool::member`]. Dropping it (on success, error or unwind)
/// tells waiting leaders one fewer driver can still join their batch.
#[must_use = "the driver is enrolled only while the guard lives"]
pub struct Member<'a, 'p> {
    pool: &'a BatchingPool<'p>,
}

impl Drop for Member<'_, '_> {
    fn drop(&mut self) {
        lock(&self.pool.shared).members -= 1;
        self.pool.cv.notify_all();
    }
}

/// A [`TdsPool`] decorator that merges concurrent same-index steps into
/// [`TdsPool::multi_step`] batches.
pub struct BatchingPool<'p> {
    inner: &'p dyn TdsPool,
    window: Duration,
    max_batch: usize,
    shared: Mutex<Shared>,
    cv: Condvar,
    metrics: Mutex<MetricsSet>,
}

impl<'p> BatchingPool<'p> {
    /// Wrap `inner`, parking same-index steps at most `window` to form
    /// batches of at most `max_batch` parts. `window == 0` passes calls
    /// through unbatched.
    pub fn new(inner: &'p dyn TdsPool, window: Duration, max_batch: usize) -> Self {
        Self {
            inner,
            window,
            max_batch: max_batch.max(1),
            shared: Mutex::new(Shared {
                forming: BTreeMap::new(),
                done: BTreeMap::new(),
                next_epoch: 0,
                members: 0,
                waiting: 0,
            }),
            cv: Condvar::new(),
            metrics: Mutex::new(MetricsSet::new()),
        }
    }

    /// Enroll one driver for the lifetime of the returned guard. While any
    /// driver is enrolled, a leader stops waiting once every other one is
    /// blocked in the pool. Either every caller enrolls or none does: an
    /// un-enrolled caller blocked in the pool would count as an enrolled
    /// one and flush a batch early (never late).
    pub fn member(&self) -> Member<'_, 'p> {
        lock(&self.shared).members += 1;
        Member { pool: self }
    }

    /// One condvar wait (bounded by `timeout`, if given), counted in
    /// `waiting`. The caller is counted and the leaders notified on its
    /// first wait only, so waiters re-checking after a wake-up cannot wake
    /// each other in a loop; [`Self::unpark`] uncounts it.
    fn park<'g>(
        &self,
        mut sh: MutexGuard<'g, Shared>,
        parked: &mut bool,
        timeout: Option<Duration>,
    ) -> MutexGuard<'g, Shared> {
        if !*parked {
            *parked = true;
            sh.waiting += 1;
            self.cv.notify_all();
        }
        match timeout {
            Some(t) => {
                self.cv
                    .wait_timeout(sh, t)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
            None => self.cv.wait(sh).unwrap_or_else(PoisonError::into_inner),
        }
    }

    fn unpark(sh: &mut Shared, parked: bool) {
        if parked {
            sh.waiting -= 1;
        }
    }

    /// Snapshot the batching counters (`pool.batch.flushes`,
    /// `pool.batch.parts`) and the `pool.batch.size` histogram.
    pub fn metrics(&self) -> MetricsSet {
        lock(&self.metrics).clone()
    }

    /// Pull this caller's slot out of a finished batch, dropping the
    /// result set once every slot was claimed.
    fn take_slot(
        sh: &mut Shared,
        index: usize,
        epoch: u64,
        slot: usize,
    ) -> Option<Result<StepResult>> {
        let results = sh.done.get_mut(&(index, epoch))?;
        let mine = results.get_mut(slot)?.take();
        if mine.is_some() && results.iter().all(|r| r.is_none()) {
            sh.done.remove(&(index, epoch));
        }
        mine
    }

    /// Lead one batch: wait until it is full, the window expires or no
    /// other enrolled driver can still join, flush upstream, distribute,
    /// return our own slot-0 result.
    fn lead(&self, index: usize, epoch: u64) -> Result<StepResult> {
        let mut sh = lock(&self.shared);
        let deadline = Instant::now() + self.window;
        let mut parked = false;
        loop {
            let full = sh
                .forming
                .get(&index)
                .is_some_and(|f| f.epoch == epoch && f.parts.len() >= self.max_batch);
            // Every other enrolled driver is blocked in the pool (once
            // parked, `waiting` counts this leader too).
            let nobody_can_join = sh.members > 0 && sh.waiting + usize::from(!parked) >= sh.members;
            let now = Instant::now();
            if full || nobody_can_join || now >= deadline {
                break;
            }
            sh = self.park(sh, &mut parked, Some(deadline - now));
        }
        Self::unpark(&mut sh, parked);
        let Some(batch) = sh.forming.remove(&index) else {
            return Err(ProtocolError::Protocol(
                "batching pool: forming batch vanished under its leader".into(),
            ));
        };
        drop(sh);
        let n = batch.parts.len();
        if n >= self.max_batch {
            // Callers waiting for this full batch to clear may lead the
            // next one while ours is upstream.
            self.cv.notify_all();
        }

        let outcome = self.inner.multi_step(index, &batch.parts);
        {
            let mut m = lock(&self.metrics);
            m.inc("pool.batch.flushes", 1);
            m.inc("pool.batch.parts", n as u64);
            m.observe("pool.batch.size", n as u64);
        }
        let mut results: Vec<Option<Result<StepResult>>> = match outcome {
            Ok(per_part) => per_part.into_iter().map(Some).collect(),
            // Whole-batch failure (transport): every caller sees it and
            // retries under its own budget, same as a lost single step.
            Err(e) => (0..n).map(|_| Some(Err(e.clone()))).collect(),
        };
        // An upstream that answers with the wrong arity is a codec-level
        // fault; no caller may silently miss its result.
        if results.len() != n {
            results = (0..n)
                .map(|_| {
                    Some(Err(ProtocolError::Codec(format!(
                        "multi_step arity mismatch: {got} results for {n} parts",
                        got = results.len()
                    ))))
                })
                .collect();
        }

        let mut sh = lock(&self.shared);
        sh.done.insert((index, epoch), results);
        let mine = Self::take_slot(&mut sh, index, epoch, 0);
        drop(sh);
        self.cv.notify_all();
        mine.unwrap_or_else(|| {
            Err(ProtocolError::Protocol(
                "batching pool: leader slot already claimed".into(),
            ))
        })
    }

    /// Follow a batch: block until the leader fills our slot.
    fn follow(&self, index: usize, epoch: u64, slot: usize) -> Result<StepResult> {
        let mut sh = lock(&self.shared);
        let mut parked = false;
        loop {
            if let Some(r) = Self::take_slot(&mut sh, index, epoch, slot) {
                Self::unpark(&mut sh, parked);
                return r;
            }
            sh = self.park(sh, &mut parked, None);
        }
    }
}

impl TdsPool for BatchingPool<'_> {
    fn len(&self) -> Result<usize> {
        self.inner.len()
    }

    fn tds_ids(&self) -> Result<Vec<u64>> {
        self.inner.tds_ids()
    }

    fn step(
        &self,
        index: usize,
        env: &QueryEnvelope,
        params: &ProtocolParams,
        now_round: u64,
        step: TdsStep,
        partition: &[StoredTuple],
        rng_seed: u64,
    ) -> Result<StepResult> {
        if self.window.is_zero() {
            return self
                .inner
                .step(index, env, params, now_round, step, partition, rng_seed);
        }
        let part = MultiStepPart {
            env: env.clone(),
            params: params.clone(),
            now_round,
            step,
            partition: partition.to_vec(),
            rng_seed,
        };
        let mut sh = lock(&self.shared);
        let mut parked = false;
        loop {
            match sh.forming.get_mut(&index) {
                Some(f) if f.parts.len() < self.max_batch => {
                    let epoch = f.epoch;
                    let slot = f.parts.len();
                    f.parts.push(part);
                    Self::unpark(&mut sh, parked);
                    drop(sh);
                    // Wake the leader so a now-full batch flushes early.
                    self.cv.notify_all();
                    return self.follow(index, epoch, slot);
                }
                Some(_) => {
                    // A full batch is awaiting its leader's flush; wait
                    // for the slot to clear rather than clobbering it.
                    sh = self.park(sh, &mut parked, None);
                }
                None => {
                    // No batch forming: start a new one and lead it.
                    Self::unpark(&mut sh, parked);
                    let epoch = sh.next_epoch;
                    sh.next_epoch += 1;
                    sh.forming.insert(
                        index,
                        Forming {
                            epoch,
                            parts: vec![part],
                        },
                    );
                    drop(sh);
                    return self.lead(index, epoch);
                }
            }
        }
    }

    fn open_rows(&self, blobs: &[Bytes]) -> Result<Vec<Vec<Value>>> {
        self.inner.open_rows(blobs)
    }

    fn multi_step(&self, index: usize, parts: &[MultiStepPart]) -> Result<Vec<Result<StepResult>>> {
        // Already a batch: pass through, never re-park.
        self.inner.multi_step(index, parts)
    }
}

impl std::fmt::Debug for BatchingPool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BatchingPool {{ window: {:?}, max_batch: {} }}",
            self.window, self.max_batch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    /// A fake pool that records multi_step batch sizes and answers each
    /// part with a Working set carrying its rng_seed, so callers can
    /// verify they got *their own* result back.
    struct Probe {
        batches: Mutex<Vec<usize>>,
        calls: AtomicUsize,
    }

    impl Probe {
        fn new() -> Self {
            Self {
                batches: Mutex::new(Vec::new()),
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl TdsPool for Probe {
        fn len(&self) -> Result<usize> {
            Ok(1)
        }
        fn tds_ids(&self) -> Result<Vec<u64>> {
            Ok(vec![7])
        }
        fn step(
            &self,
            _index: usize,
            _env: &QueryEnvelope,
            _params: &ProtocolParams,
            _now_round: u64,
            _step: TdsStep,
            _partition: &[StoredTuple],
            rng_seed: u64,
        ) -> Result<StepResult> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if rng_seed == u64::MAX {
                return Err(ProtocolError::AccessDenied);
            }
            Ok(StepResult::Results(vec![Bytes::from(
                rng_seed.to_be_bytes().to_vec(),
            )]))
        }
        fn open_rows(&self, _blobs: &[Bytes]) -> Result<Vec<Vec<Value>>> {
            Ok(Vec::new())
        }
        fn multi_step(
            &self,
            index: usize,
            parts: &[MultiStepPart],
        ) -> Result<Vec<Result<StepResult>>> {
            self.batches.lock().unwrap().push(parts.len());
            Ok(parts
                .iter()
                .map(|p| {
                    self.step(
                        index,
                        &p.env,
                        &p.params,
                        p.now_round,
                        p.step,
                        &p.partition,
                        p.rng_seed,
                    )
                })
                .collect())
        }
    }

    fn sample_env() -> QueryEnvelope {
        use crate::message::QueryTarget;
        use crate::protocol::ProtocolKind;
        use tdsql_crypto::credential::CredentialSigner;
        use tdsql_crypto::credential::Role;
        use tdsql_sql::ast::SizeClause;
        QueryEnvelope {
            query_id: 1,
            enc_query: Bytes::from(vec![1, 2, 3]),
            credential: CredentialSigner::new(b"a").issue("q", Role::new("r"), u64::MAX),
            size: SizeClause {
                max_tuples: None,
                max_rounds: None,
            },
            protocol: ProtocolKind::Basic,
            target: QueryTarget::Crowd,
        }
    }

    #[test]
    fn concurrent_same_index_steps_coalesce_and_route_results_correctly() {
        let probe = Probe::new();
        let pool = BatchingPool::new(&probe, Duration::from_millis(40), 8);
        let env = sample_env();
        let params = ProtocolParams::new(crate::protocol::ProtocolKind::Basic);
        thread::scope(|s| {
            let mut handles = Vec::new();
            for seed in 0..6u64 {
                let pool = &pool;
                let env = &env;
                let params = &params;
                handles.push(s.spawn(move || {
                    let r = pool
                        .step(0, env, params, 0, TdsStep::Collect, &[], seed)
                        .unwrap();
                    match r {
                        StepResult::Results(bs) => {
                            assert_eq!(bs[0].as_ref(), seed.to_be_bytes());
                        }
                        other => panic!("wrong shape: {other:?}"),
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });
        let batches = probe.batches.lock().unwrap().clone();
        let total: usize = batches.iter().sum();
        assert_eq!(total, 6, "every part executed exactly once: {batches:?}");
        assert!(
            batches.iter().any(|&b| b > 1),
            "no cross-caller batch ever formed: {batches:?}"
        );
        assert_eq!(pool.metrics().counter("pool.batch.parts"), 6);
    }

    #[test]
    fn per_part_failure_stays_with_its_caller() {
        let probe = Probe::new();
        let pool = BatchingPool::new(&probe, Duration::from_millis(40), 8);
        let env = sample_env();
        let params = ProtocolParams::new(crate::protocol::ProtocolKind::Basic);
        thread::scope(|s| {
            let ok = s.spawn(|| pool.step(0, &env, &params, 0, TdsStep::Collect, &[], 5));
            let bad = s.spawn(|| pool.step(0, &env, &params, 0, TdsStep::Collect, &[], u64::MAX));
            assert!(ok.join().unwrap().is_ok());
            assert!(matches!(
                bad.join().unwrap(),
                Err(ProtocolError::AccessDenied)
            ));
        });
    }

    #[test]
    fn zero_window_passes_straight_through() {
        let probe = Probe::new();
        let pool = BatchingPool::new(&probe, Duration::from_millis(0), 8);
        let env = sample_env();
        let params = ProtocolParams::new(crate::protocol::ProtocolKind::Basic);
        pool.step(0, &env, &params, 0, TdsStep::Collect, &[], 1)
            .unwrap();
        assert!(probe.batches.lock().unwrap().is_empty(), "no batch formed");
        assert_eq!(pool.metrics().counter("pool.batch.flushes"), 0);
    }

    #[test]
    fn full_batch_flushes_before_window() {
        let probe = Probe::new();
        // Max batch 2 with a long window: fullness, not the deadline, must
        // trigger the flush for the test to finish quickly.
        let pool = BatchingPool::new(&probe, Duration::from_millis(5_000), 2);
        let env = sample_env();
        let params = ProtocolParams::new(crate::protocol::ProtocolKind::Basic);
        let t0 = Instant::now();
        thread::scope(|s| {
            let a = s.spawn(|| pool.step(0, &env, &params, 0, TdsStep::Collect, &[], 1));
            let b = s.spawn(|| pool.step(0, &env, &params, 0, TdsStep::Collect, &[], 2));
            assert!(a.join().unwrap().is_ok());
            assert!(b.join().unwrap().is_ok());
        });
        assert!(
            t0.elapsed() < Duration::from_millis(4_000),
            "flush waited for the window despite a full batch"
        );
    }

    /// Block until `n` callers are parked in `pool`.
    fn await_waiting(pool: &BatchingPool<'_>, n: usize) {
        let t0 = Instant::now();
        while lock(&pool.shared).waiting < n {
            assert!(t0.elapsed() < Duration::from_secs(5), "caller never parked");
            crate::runtime::backoff::sleep_ms(1);
        }
    }

    #[test]
    fn leader_flushes_once_every_other_member_is_blocked_in_the_pool() {
        let probe = Probe::new();
        let pool = &BatchingPool::new(&probe, Duration::from_millis(5_000), 8);
        let (env, params) = (
            &sample_env(),
            &ProtocolParams::new(crate::protocol::ProtocolKind::Basic),
        );
        let (a, b) = (pool.member(), pool.member());
        let t0 = Instant::now();
        thread::scope(|s| {
            let parked = s.spawn(move || {
                let r = pool.step(1, env, params, 0, TdsStep::Collect, &[], 1);
                drop(a);
                r
            });
            await_waiting(pool, 1);
            // The only other member is parked at index 1: nobody can join
            // index 0, so this step flushes alone while index 1 waits on.
            assert!(pool
                .step(0, env, params, 0, TdsStep::Collect, &[], 2)
                .is_ok());
            assert_eq!(*probe.batches.lock().unwrap(), vec![1]);
            drop(b);
            assert!(parked.join().unwrap().is_ok());
        });
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "waited out the window"
        );
    }

    #[test]
    fn leader_waits_for_a_running_member_and_batches_with_it() {
        let probe = Probe::new();
        let pool = &BatchingPool::new(&probe, Duration::from_millis(5_000), 8);
        let (env, params) = (
            &sample_env(),
            &ProtocolParams::new(crate::protocol::ProtocolKind::Basic),
        );
        let (a, b) = (pool.member(), pool.member());
        let t0 = Instant::now();
        thread::scope(|s| {
            let leader = s.spawn(move || {
                let r = pool.step(0, env, params, 0, TdsStep::Collect, &[], 1);
                drop(a);
                r
            });
            await_waiting(pool, 1);
            // The batch-mate is busy elsewhere and may still join.
            crate::runtime::backoff::sleep_ms(20);
            assert!(probe.batches.lock().unwrap().is_empty(), "flushed early");
            assert!(pool
                .step(0, env, params, 0, TdsStep::Collect, &[], 2)
                .is_ok());
            drop(b);
            assert!(leader.join().unwrap().is_ok());
        });
        assert_eq!(*probe.batches.lock().unwrap(), vec![2]);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "waited out the window"
        );
    }

    #[test]
    fn leader_flushes_when_the_last_other_member_leaves() {
        let probe = Probe::new();
        let pool = &BatchingPool::new(&probe, Duration::from_millis(5_000), 8);
        let (env, params) = (
            &sample_env(),
            &ProtocolParams::new(crate::protocol::ProtocolKind::Basic),
        );
        let (a, idle) = (pool.member(), pool.member());
        thread::scope(|s| {
            let leader = s.spawn(move || {
                let r = pool.step(0, env, params, 0, TdsStep::Collect, &[], 1);
                drop(a);
                r
            });
            await_waiting(pool, 1);
            crate::runtime::backoff::sleep_ms(20);
            assert!(probe.batches.lock().unwrap().is_empty(), "flushed early");
            let left = Instant::now();
            drop(idle);
            assert!(leader.join().unwrap().is_ok());
            assert!(
                left.elapsed() < Duration::from_secs(1),
                "waited out the window"
            );
        });
    }
}
