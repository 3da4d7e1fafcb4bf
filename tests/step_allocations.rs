//! Allocation guard on the TDS step path.
//!
//! One test, alone in its binary, because the counting allocator below is
//! process-wide. It counts the heap allocations of warm
//! [`LocalTdsPool::step`] calls — the envelope already parsed into the
//! pool's open cache — and holds each kind of step to an upper bound. The
//! paper's cost model multiplies one TDS step by the population, so an
//! allocation added to this path is paid once per TDS per query.
//!
//! An allocation is a call to `alloc`, `alloc_zeroed` or `realloc`: a
//! growing `Vec` costs one per growth, which is exactly what the bounds are
//! meant to catch. The bounds hold in debug and release builds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tdsql_core::histogram::Histogram;
use tdsql_core::message::{QueryEnvelope, StoredTuple};
use tdsql_core::tds::RetagMode;
use tdsql_core::workload::SmartMeterConfig;
use tdsql_core::{LocalTdsPool, ProtocolKind, ProtocolParams, StepResult, TdsPool, TdsStep};
use tdsql_crypto::rng::{SeedableRng, StdRng};
use tdsql_net::deploy::Deployment;
use tdsql_sql::engine::{execute, Database};
use tdsql_sql::parser::parse_query;
use tdsql_sql::value::{GroupKey, Value};

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its own arguments to `System`, so the
// caller's guarantees are passed on unchanged and `System`'s hold for the
// result; counting touches only atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f`, and its result. The result is dropped after
/// the count closes: freeing is not allocating.
fn count<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::Relaxed), out)
}

const AGG: &str = "SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district";
const DISTRICTS: usize = 8;
const N_TDS: usize = 64;

/// One query posted to a pool, with the discovery payload filled in from
/// the oracle so every protocol can be stepped without a discovery run.
struct Posted<'a> {
    pool: &'a LocalTdsPool,
    env: QueryEnvelope,
    params: ProtocolParams,
}

impl Posted<'_> {
    fn new<'a>(
        pool: &'a LocalTdsPool,
        dep: &Deployment,
        oracle: &Database,
        kind: ProtocolKind,
    ) -> Posted<'a> {
        let dist: Vec<(GroupKey, u64)> = execute(oracle, &parse_query(AGG).unwrap())
            .unwrap()
            .rows
            .into_iter()
            .map(|row| match (&row[0], &row[1]) {
                (district, Value::Int(n)) => (
                    GroupKey::from_values(std::slice::from_ref(district)),
                    *n as u64,
                ),
                other => panic!("unexpected oracle row {other:?}"),
            })
            .collect();
        assert_eq!(dist.len(), DISTRICTS);
        let mut params = ProtocolParams::new(kind);
        params.noise_domain = dist.iter().map(|(k, _)| k.clone()).collect();
        params.histogram = Some(Arc::new(Histogram::build(&dist, 4)));
        let env = dep.make_querier("energy-co", &dep.role).make_envelope(
            &parse_query(AGG).unwrap(),
            kind,
            &mut StdRng::seed_from_u64(17),
        );
        let posted = Posted { pool, env, params };
        // Warm the pool's open cache: the guard is about steps, not parses.
        posted.step(0, TdsStep::Collect, &[]);
        posted
    }

    fn step(&self, index: usize, step: TdsStep, partition: &[StoredTuple]) -> Vec<StoredTuple> {
        match self
            .pool
            .step(
                index,
                &self.env,
                &self.params,
                0,
                step,
                partition,
                99 + index as u64,
            )
            .expect("step")
        {
            StepResult::Working(tuples) => tuples,
            StepResult::Results(_) => panic!("{step:?} returned result rows"),
        }
    }

    /// Collect on every TDS: the tuples of all of them, and the most
    /// allocations any one collect made.
    fn collect_all(&self, tuples_each: usize) -> (Vec<StoredTuple>, u64) {
        let mut all = Vec::new();
        let mut most = 0;
        for i in 0..N_TDS {
            let (n, tuples) = count(|| self.step(i, TdsStep::Collect, &[]));
            assert_eq!(tuples.len(), tuples_each, "TDS {i}");
            most = most.max(n);
            all.extend(tuples);
        }
        (all, most)
    }

    /// Allocations of one `ReduceInputs` over the first 64 collected tuples
    /// (for C_Noise, eight TDSs' true tuples and fakes together).
    fn reduce(&self, collected: &[StoredTuple], retag: RetagMode) -> u64 {
        let partition = &collected[..64];
        let (n, out) = count(|| self.step(1, TdsStep::ReduceInputs { retag }, partition));
        assert!(!out.is_empty());
        n
    }
}

/// Upper bounds on the allocations of one warm step. Tighten one when the
/// step path allocates less; never loosen one to admit an allocation.
const BOUNDS: [(&str, u64); 6] = [
    ("S_Agg collect", 11),
    ("ED_Hist collect", 11),
    ("C_Noise collect (8 tuples)", 15),
    ("Rnf_Noise collect (4 tuples)", 13),
    ("S_Agg ReduceInputs (64 tuples)", 30),
    ("C_Noise ReduceInputs (64 tuples)", 29),
];

#[test]
fn warm_steps_stay_within_their_allocation_bounds() {
    let dep = Deployment {
        meters: SmartMeterConfig {
            n_tds: N_TDS,
            districts: DISTRICTS,
            readings_per_tds: 1,
            ..SmartMeterConfig::default()
        },
        ..Deployment::default()
    };
    let (pool, oracle) = dep.provision();
    let mut seen = BTreeMap::new();

    let s_agg = Posted::new(&pool, &dep, &oracle, ProtocolKind::SAgg);
    let (collected, n) = s_agg.collect_all(1);
    seen.insert("S_Agg collect", n);
    seen.insert(
        "S_Agg ReduceInputs (64 tuples)",
        s_agg.reduce(&collected, RetagMode::None),
    );

    let ed_hist = Posted::new(&pool, &dep, &oracle, ProtocolKind::EdHist { buckets: 4 });
    seen.insert("ED_Hist collect", ed_hist.collect_all(1).1);

    let c_noise = Posted::new(&pool, &dep, &oracle, ProtocolKind::CNoise);
    let (collected, n) = c_noise.collect_all(DISTRICTS);
    seen.insert("C_Noise collect (8 tuples)", n);
    seen.insert(
        "C_Noise ReduceInputs (64 tuples)",
        c_noise.reduce(&collected, RetagMode::DetPerGroup),
    );

    let rnf = Posted::new(&pool, &dep, &oracle, ProtocolKind::RnfNoise { nf: 3 });
    seen.insert("Rnf_Noise collect (4 tuples)", rnf.collect_all(4).1);

    let over: Vec<String> = BOUNDS
        .iter()
        .filter(|(step, bound)| seen[step] > *bound)
        .map(|(step, bound)| format!("{step}: {} allocations > {bound}", seen[step]))
        .collect();
    assert!(
        over.is_empty(),
        "over bound: {over:#?}\nall counts: {seen:#?}"
    );
}
