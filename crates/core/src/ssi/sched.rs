//! Multi-query admission scheduler and shared discovery cache.
//!
//! The SSI ledger itself (lock-striped, journaled) already tolerates many
//! live queries; what it does *not* do is decide which queries get to be
//! live. This module adds that policy layer, querier-side of the trust
//! boundary:
//!
//! * [`Scheduler`] — bounded admission with per-querier quotas. A querybox
//!   asks for a [`Permit`] before posting; over-quota arrivals park in a
//!   per-querier FIFO and are dispatched **fair round-robin across
//!   queriers** as permits free up, so one chatty energy supplier cannot
//!   starve a health-agency query. A querier whose own queue is full gets
//!   a typed rejection immediately — backpressure, not unbounded memory.
//! * [`DiscoveryCache`] — TTL-bounded cache of discovery distributions
//!   (the `SELECT A_G, COUNT(*) ... GROUP BY A_G` sub-protocol results).
//!   The paper runs discovery "once per domain, refreshed from time to
//!   time"; with many concurrent queries over the same tables the cache
//!   is what makes that sharing real. It lives **inside the querier trust
//!   domain** (the parsed distribution a querier would hold anyway —
//!   never on the SSI), so caching changes no exposure.
//!
//! Everything here is metricated through [`tdsql_obs::MetricsSet`]:
//! `ssi.sched.admitted` / `ssi.sched.queued` / `ssi.sched.rejected`
//! counters and a `ssi.sched.queue_depth` histogram for the scheduler,
//! hit/miss/expired counters for the cache.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use tdsql_crypto::sha256::Sha256;
use tdsql_obs::MetricsSet;
use tdsql_sql::ast::Query;
use tdsql_sql::value::GroupKey;

use crate::error::{ProtocolError, Result};
use crate::plan::DiscoveryNeed;

/// Recover a poisoned mutex: scheduler state is a counter/queue structure
/// that is consistent between mutations, so a panicking peer thread never
/// leaves it half-updated.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Admission policy knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Total queries live at once across all queriers.
    pub max_live: usize,
    /// Live-query quota per querier identity.
    pub per_querier: usize,
    /// Waiters a single querier may park before further arrivals are
    /// rejected with a typed error (bounded backpressure).
    pub queue_cap: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            max_live: 8,
            per_querier: 2,
            queue_cap: 16,
        }
    }
}

/// Mutable scheduler state, all under one mutex.
struct SchedState {
    /// Queries currently holding a permit.
    total_live: usize,
    /// Live count per querier identity.
    live: BTreeMap<String, usize>,
    /// Parked arrivals per querier, FIFO.
    waiting: BTreeMap<String, VecDeque<u64>>,
    /// Round-robin order over queriers that have waiters.
    rr: VecDeque<String>,
    /// Tickets promoted to "granted" but not yet claimed by their waiter.
    granted: BTreeSet<u64>,
    next_ticket: u64,
}

/// Bounded, fair admission for concurrent queryboxes.
pub struct Scheduler {
    config: SchedConfig,
    state: Mutex<SchedState>,
    cv: Condvar,
    metrics: Mutex<MetricsSet>,
}

/// A granted admission slot. Dropping it releases the slot and dispatches
/// the next waiter round-robin.
pub struct Permit<'a> {
    sched: &'a Scheduler,
    querier: String,
}

impl Scheduler {
    /// Build a scheduler with the given policy.
    pub fn new(config: SchedConfig) -> Self {
        Self {
            config,
            state: Mutex::new(SchedState {
                total_live: 0,
                live: BTreeMap::new(),
                waiting: BTreeMap::new(),
                rr: VecDeque::new(),
                granted: BTreeSet::new(),
                next_ticket: 0,
            }),
            cv: Condvar::new(),
            metrics: Mutex::new(MetricsSet::new()),
        }
    }

    /// Request admission for one query by `querier_id`. Returns a
    /// [`Permit`] immediately when capacity allows and nobody is waiting;
    /// otherwise parks FIFO behind the querier's earlier arrivals and
    /// blocks until dispatched. A querier whose queue is at
    /// [`SchedConfig::queue_cap`] is rejected with
    /// [`ProtocolError::AdmissionRejected`] instead of parking — callers
    /// surface that as backpressure.
    pub fn admit(&self, querier_id: &str) -> Result<Permit<'_>> {
        let mut st = lock(&self.state);
        let under_global = st.total_live < self.config.max_live;
        let under_quota = st.live.get(querier_id).copied().unwrap_or(0) < self.config.per_querier;
        // Immediate grant only when nobody at all is parked: capacity that
        // frees while others wait belongs to the round-robin dispatcher,
        // not to whoever races the lock first.
        if st.rr.is_empty() && under_global && under_quota {
            st.total_live += 1;
            *st.live.entry(querier_id.to_string()).or_insert(0) += 1;
            lock(&self.metrics).inc("ssi.sched.admitted", 1);
            return Ok(self.permit(querier_id));
        }

        let mine = st.waiting.get(querier_id).map_or(0, |q| q.len());
        if mine >= self.config.queue_cap {
            lock(&self.metrics).inc("ssi.sched.rejected", 1);
            return Err(ProtocolError::AdmissionRejected {
                querier: querier_id.to_string(),
                waiting: mine,
                cap: self.config.queue_cap,
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        if !st.waiting.contains_key(querier_id) {
            st.rr.push_back(querier_id.to_string());
        }
        st.waiting
            .entry(querier_id.to_string())
            .or_default()
            .push_back(ticket);
        {
            let depth: usize = st.waiting.values().map(|q| q.len()).sum();
            let mut m = lock(&self.metrics);
            m.inc("ssi.sched.queued", 1);
            m.observe("ssi.sched.queue_depth", depth as u64);
        }
        // Our own arrival may be dispatchable right away (e.g. capacity is
        // free but the rr queue was non-empty when we checked).
        self.promote(&mut st);
        loop {
            if st.granted.remove(&ticket) {
                return Ok(self.permit(querier_id));
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Dispatch parked tickets round-robin while capacity allows. Called
    /// with the state lock held; wakes waiters afterwards.
    fn promote(&self, st: &mut SchedState) {
        let mut dispatched = 0u64;
        while st.total_live < self.config.max_live {
            // One full rr sweep looking for a querier under its quota.
            let mut found = None;
            for _ in 0..st.rr.len() {
                let Some(q) = st.rr.pop_front() else { break };
                let live = st.live.get(&q).copied().unwrap_or(0);
                let has_waiter = st.waiting.get(&q).is_some_and(|w| !w.is_empty());
                if has_waiter && live < self.config.per_querier {
                    found = Some(q);
                    break;
                }
                // Over quota (or drained): keep its queue but move on.
                if has_waiter {
                    st.rr.push_back(q);
                } else {
                    st.waiting.remove(&q);
                }
            }
            let Some(q) = found else { break };
            let ticket = st.waiting.get_mut(&q).and_then(|w| w.pop_front());
            let Some(ticket) = ticket else { break };
            st.granted.insert(ticket);
            st.total_live += 1;
            *st.live.entry(q.clone()).or_insert(0) += 1;
            dispatched += 1;
            if st.waiting.get(&q).is_some_and(|w| !w.is_empty()) {
                st.rr.push_back(q); // fairness: back of the rotation
            } else {
                st.waiting.remove(&q);
            }
        }
        if dispatched > 0 {
            lock(&self.metrics).inc("ssi.sched.admitted", dispatched);
            self.cv.notify_all();
        }
    }

    fn permit(&self, querier_id: &str) -> Permit<'_> {
        Permit {
            sched: self,
            querier: querier_id.to_string(),
        }
    }

    /// Queries currently holding a permit.
    pub fn live(&self) -> usize {
        lock(&self.state).total_live
    }

    /// Snapshot the admission counters and queue-depth histogram.
    pub fn metrics(&self) -> MetricsSet {
        lock(&self.metrics).clone()
    }
}

impl std::fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Permit {{ querier: {} }}", self.querier)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.sched.state);
        st.total_live = st.total_live.saturating_sub(1);
        if let Some(n) = st.live.get_mut(&self.querier) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                st.live.remove(&self.querier);
            }
        }
        self.sched.promote(&mut st);
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.state);
        write!(
            f,
            "Scheduler {{ live: {}, waiting: {} }}",
            st.total_live,
            st.waiting.values().map(|q| q.len()).sum::<usize>()
        )
    }
}

/// One cached discovery distribution.
struct CacheEntry {
    stored_at: Instant,
    distribution: Vec<(GroupKey, u64)>,
}

/// TTL-bounded cache of discovery distributions, shared across concurrent
/// drivers. Keyed by the canonical discovery query *and* the need shape,
/// so a domain lookup and an 8-bucket histogram over the same tables are
/// distinct entries.
pub struct DiscoveryCache {
    ttl: Duration,
    entries: Mutex<BTreeMap<[u8; 32], CacheEntry>>,
    metrics: Mutex<MetricsSet>,
}

impl DiscoveryCache {
    /// Build a cache whose entries expire `ttl` after insertion.
    pub fn new(ttl: Duration) -> Self {
        Self {
            ttl,
            entries: Mutex::new(BTreeMap::new()),
            metrics: Mutex::new(MetricsSet::new()),
        }
    }

    /// Cache key for a discovery run: the canonical sub-query text plus
    /// the need discriminant (bucket count included — two histogram
    /// resolutions never share an entry).
    pub fn key(discovery_query: &Query, need: DiscoveryNeed) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(format!("{discovery_query:?}").as_bytes());
        match need {
            DiscoveryNeed::Domain => h.update(&[0]),
            DiscoveryNeed::Histogram { buckets } => {
                h.update(&[1]);
                h.update(&u64::from(buckets).to_be_bytes());
            }
        }
        h.finalize()
    }

    /// Look up a live entry. Expired entries are evicted on the way.
    pub fn get(&self, key: &[u8; 32]) -> Option<Vec<(GroupKey, u64)>> {
        let mut entries = lock(&self.entries);
        match entries.get(key) {
            Some(e) if e.stored_at.elapsed() <= self.ttl => {
                let dist = e.distribution.clone();
                lock(&self.metrics).inc("ssi.sched.discovery.hit", 1);
                Some(dist)
            }
            Some(_) => {
                entries.remove(key);
                lock(&self.metrics).inc("ssi.sched.discovery.expired", 1);
                None
            }
            None => {
                lock(&self.metrics).inc("ssi.sched.discovery.miss", 1);
                None
            }
        }
    }

    /// Store a freshly discovered distribution.
    pub fn put(&self, key: [u8; 32], distribution: Vec<(GroupKey, u64)>) {
        lock(&self.entries).insert(
            key,
            CacheEntry {
                stored_at: Instant::now(),
                distribution,
            },
        );
    }

    /// Drop every entry (domain changed under us; next queries re-discover).
    pub fn invalidate_all(&self) {
        lock(&self.entries).clear();
    }

    /// Live (non-expired-at-last-touch) entry count.
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// No entries cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the hit/miss/expired counters.
    pub fn metrics(&self) -> MetricsSet {
        lock(&self.metrics).clone()
    }
}

impl std::fmt::Debug for DiscoveryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DiscoveryCache {{ entries: {}, ttl: {:?} }}",
            self.len(),
            self.ttl
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn immediate_admission_under_quota() {
        let s = Scheduler::new(SchedConfig::default());
        let a = s.admit("alice").unwrap();
        let b = s.admit("bob").unwrap();
        assert_eq!(s.live(), 2);
        drop(a);
        drop(b);
        assert_eq!(s.live(), 0);
        assert_eq!(s.metrics().counter("ssi.sched.admitted"), 2);
        assert_eq!(s.metrics().counter("ssi.sched.queued"), 0);
    }

    #[test]
    fn per_querier_quota_parks_and_releases_in_fifo_order() {
        let s = Arc::new(Scheduler::new(SchedConfig {
            max_live: 8,
            per_querier: 1,
            queue_cap: 8,
        }));
        let first = s.admit("alice").unwrap();
        let s2 = Arc::clone(&s);
        let waiter = thread::spawn(move || {
            let p = s2.admit("alice").unwrap();
            drop(p);
        });
        // The waiter must be parked, not admitted.
        while s.metrics().counter("ssi.sched.queued") == 0 {
            thread::yield_now();
        }
        assert_eq!(s.live(), 1);
        drop(first);
        waiter.join().unwrap();
        assert_eq!(s.live(), 0);
        assert_eq!(s.metrics().counter("ssi.sched.admitted"), 2);
    }

    #[test]
    fn queue_cap_rejects_with_typed_error() {
        let s = Scheduler::new(SchedConfig {
            max_live: 1,
            per_querier: 1,
            queue_cap: 0,
        });
        let _held = s.admit("alice").unwrap();
        let err = s.admit("alice").unwrap_err();
        assert!(
            matches!(
                &err,
                ProtocolError::AdmissionRejected { querier, waiting: 0, cap: 0 } if querier == "alice"
            ),
            "{err}"
        );
        assert_eq!(s.metrics().counter("ssi.sched.rejected"), 1);
    }

    #[test]
    fn round_robin_interleaves_queriers() {
        // Capacity 1; alice parks two waiters before bob parks one. With
        // plain FIFO bob would go last; round-robin must interleave him
        // between alice's two.
        let s = Arc::new(Scheduler::new(SchedConfig {
            max_live: 1,
            per_querier: 1,
            queue_cap: 8,
        }));
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = s.admit("seed").unwrap();

        // Park alice, alice, bob — in that order, deterministically: each
        // spawn waits until the previous arrival is counted as queued.
        let mut handles = Vec::new();
        for (i, who) in ["alice", "alice", "bob"].into_iter().enumerate() {
            let s2 = Arc::clone(&s);
            let order2 = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                let p = s2.admit(who).unwrap();
                order2.lock().unwrap().push(who.to_string());
                drop(p);
            }));
            while s.metrics().counter("ssi.sched.queued") < (i as u64) + 1 {
                thread::yield_now();
            }
        }
        drop(gate);
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().unwrap().clone();
        assert_eq!(order.len(), 3);
        // bob must not run last: round-robin alternates a-b-a.
        assert_eq!(order[1], "bob", "round-robin order was {order:?}");
    }

    #[test]
    fn many_threads_never_exceed_caps() {
        let s = Arc::new(Scheduler::new(SchedConfig {
            max_live: 3,
            per_querier: 2,
            queue_cap: 64,
        }));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..24 {
            let s2 = Arc::clone(&s);
            let peak2 = Arc::clone(&peak);
            let who = format!("querier-{}", i % 4);
            handles.push(thread::spawn(move || {
                let _p = s2.admit(&who).unwrap();
                let live = s2.live();
                peak2.fetch_max(live, Ordering::SeqCst);
                assert!(live <= 3, "cap exceeded: {live}");
                thread::yield_now();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.live(), 0);
        assert!(peak.load(Ordering::SeqCst) >= 1);
        assert_eq!(s.metrics().counter("ssi.sched.admitted"), 24);
    }

    #[test]
    fn discovery_cache_hits_expire_and_invalidate() {
        use tdsql_sql::parser::parse_query;
        let cache = DiscoveryCache::new(Duration::from_secs(3600));
        let q = parse_query("SELECT d, COUNT(*) FROM power GROUP BY d").unwrap();
        let key = DiscoveryCache::key(&q, DiscoveryNeed::Domain);
        let key_hist = DiscoveryCache::key(&q, DiscoveryNeed::Histogram { buckets: 4 });
        assert_ne!(key, key_hist, "need shape must be part of the key");

        assert!(cache.get(&key).is_none());
        cache.put(key, vec![(GroupKey(vec![1]), 10)]);
        assert_eq!(cache.get(&key).unwrap(), vec![(GroupKey(vec![1]), 10)]);
        assert_eq!(cache.metrics().counter("ssi.sched.discovery.hit"), 1);
        assert_eq!(cache.metrics().counter("ssi.sched.discovery.miss"), 1);

        cache.invalidate_all();
        assert!(cache.get(&key).is_none());

        // Zero TTL: everything is already expired on first read.
        let dead = DiscoveryCache::new(Duration::from_millis(0));
        dead.put(key, vec![(GroupKey(vec![2]), 5)]);
        std::thread::yield_now();
        crate::runtime::backoff::sleep_ms(2);
        assert!(dead.get(&key).is_none());
        assert_eq!(dead.metrics().counter("ssi.sched.discovery.expired"), 1);
    }
}
