//! Query-invariant work hoisted out of the step path changes no output.
//!
//! [`LocalTdsPool`] opens each posted envelope through a fixed-capacity
//! cache, and [`ServiceDriver`] asks the SSI for the SIZE tuple bound only
//! when the query has one. Both are pure savings: every blob a step returns
//! is byte-identical warm, cold or evicted, and a SIZE-bounded collection is
//! cut off on the same TDS as before.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{assert_rows_eq, querier_at_epoch};
use tdsql_core::bytes::Bytes;
use tdsql_core::histogram::Histogram;
use tdsql_core::message::{AssignmentId, DeliveryOutcome, QueryEnvelope, StoredTuple};
use tdsql_core::ssi::Ssi;
use tdsql_core::stats::Phase;
use tdsql_core::tds::{QueryOpenCache, ResultDest, RetagMode};
use tdsql_core::workload::SmartMeterConfig;
use tdsql_core::{
    DriverConfig, LocalTdsPool, MultiStepPart, ProtocolError, ProtocolKind, ProtocolParams, Result,
    ServiceDriver, SsiService, StepResult, TdsPool, TdsStep,
};
use tdsql_crypto::rng::{SeedableRng, StdRng};
use tdsql_net::deploy::Deployment;
use tdsql_obs::Obs;
use tdsql_sql::engine::{execute, Database};
use tdsql_sql::parser::parse_query;
use tdsql_sql::value::{GroupKey, Value};

const SFW: &str = "SELECT c.cid FROM consumer c WHERE c.accomodation = 'apartment'";
const AGG: &str = "SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district";
const N_TDS: usize = 12;

fn deployment() -> Deployment {
    Deployment {
        meters: SmartMeterConfig {
            n_tds: N_TDS,
            districts: 3,
            readings_per_tds: 1,
            ..SmartMeterConfig::default()
        },
        ..Deployment::default()
    }
}

/// Parameters with the discovery payload filled from the oracle, so the
/// noise and histogram protocols can be stepped without a discovery run.
fn params_for(kind: ProtocolKind, oracle: &Database) -> ProtocolParams {
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
    let mut params = ProtocolParams::new(kind);
    params.noise_domain = dist.iter().map(|(k, _)| k.clone()).collect();
    params.histogram = Some(Arc::new(Histogram::build(&dist, 2)));
    params
}

fn envelope(dep: &Deployment, sql: &str, kind: ProtocolKind, nonce_seed: u64) -> QueryEnvelope {
    dep.make_querier("energy-co", &dep.role).make_envelope(
        &parse_query(sql).unwrap(),
        kind,
        &mut StdRng::seed_from_u64(nonce_seed),
    )
}

/// The bytes of a step result, tags included.
fn transcript(result: StepResult) -> Vec<Vec<u8>> {
    match result {
        StepResult::Working(tuples) => tuples
            .into_iter()
            .map(|t| {
                format!("{:?}|", t.tag)
                    .into_bytes()
                    .into_iter()
                    .chain(t.blob.to_vec())
                    .collect()
            })
            .collect(),
        StepResult::Results(rows) => rows.into_iter().map(|b| b.to_vec()).collect(),
    }
}

/// One query's envelope and parameters, stepped on a pool that stays warm.
struct Case<'a> {
    dep: &'a Deployment,
    warm: &'a LocalTdsPool,
    env: QueryEnvelope,
    params: ProtocolParams,
}

impl Case<'_> {
    /// One step on the warm pool, checked against the same step on a pool
    /// built for the occasion; returns the (identical) output.
    fn step(
        &self,
        index: usize,
        step: TdsStep,
        partition: &[StoredTuple],
        rng_seed: u64,
    ) -> StepResult {
        let (cold, _) = self.dep.provision();
        let run = |pool: &LocalTdsPool| {
            pool.step(index, &self.env, &self.params, 0, step, partition, rng_seed)
                .unwrap()
        };
        let on_warm = run(self.warm);
        assert_eq!(
            transcript(on_warm.clone()),
            transcript(run(&cold)),
            "{} {step:?} on TDS {index}",
            self.params.kind.name()
        );
        on_warm
    }
}

fn working(result: StepResult) -> Vec<StoredTuple> {
    match result {
        StepResult::Working(tuples) => tuples,
        StepResult::Results(_) => panic!("expected working tuples"),
    }
}

#[test]
fn warm_steps_are_byte_identical_to_cold_for_every_protocol_and_step() {
    let dep = deployment();
    let (warm, oracle) = dep.provision();
    let cases = [
        (ProtocolKind::Basic, SFW),
        (ProtocolKind::SAgg, AGG),
        (ProtocolKind::RnfNoise { nf: 2 }, AGG),
        (ProtocolKind::CNoise, AGG),
        (ProtocolKind::EdHist { buckets: 2 }, AGG),
    ];
    for (n, (kind, sql)) in cases.into_iter().enumerate() {
        let case = Case {
            dep: &dep,
            warm: &warm,
            env: envelope(&dep, sql, kind, 40 + n as u64),
            params: params_for(kind, &oracle),
        };
        // Twice over the population: the second pass is warm on `warm` from
        // its first step on.
        let mut collected = Vec::new();
        for pass in 0..2u64 {
            for i in 0..N_TDS {
                let out = case.step(i, TdsStep::Collect, &[], pass * 100 + i as u64);
                if pass == 0 {
                    collected.extend(working(out));
                }
            }
        }
        if kind == ProtocolKind::Basic {
            case.step(3, TdsStep::FilterPlain, &collected, 900);
            continue;
        }
        for retag in [RetagMode::None, RetagMode::DetPerGroup] {
            let mut partials = Vec::new();
            for (j, chunk) in collected.chunks(5).enumerate() {
                let out = case.step(j, TdsStep::ReduceInputs { retag }, chunk, 300);
                partials.extend(working(out));
            }
            let merged = working(case.step(5, TdsStep::ReducePartials { retag }, &partials, 400));
            for dest in [ResultDest::Querier, ResultDest::Tds] {
                case.step(7, TdsStep::FinalizeGroups { dest }, &merged, 500);
            }
        }
    }
}

#[test]
fn eviction_is_invisible() {
    let dep = deployment();
    let (pool, _) = dep.provision();
    let params = ProtocolParams::new(ProtocolKind::SAgg);
    // One envelope more than the cache holds, visited round-robin: under
    // LRU every open of every round is a miss that evicts a live entry.
    let parts: Vec<MultiStepPart> = (0..=QueryOpenCache::CAPACITY as u64)
        .map(|k| MultiStepPart {
            env: envelope(&dep, AGG, ProtocolKind::SAgg, 7_000 + k),
            params: params.clone(),
            now_round: 0,
            step: TdsStep::Collect,
            partition: Vec::new(),
            rng_seed: k,
        })
        .collect();
    for index in 0..3 {
        let thrashed = pool.multi_step(index, &parts).unwrap();
        for (part, got) in parts.iter().zip(thrashed) {
            let (cold, _) = dep.provision();
            let want = cold
                .step(index, &part.env, &params, 0, part.step, &[], part.rng_seed)
                .unwrap();
            assert_eq!(transcript(got.unwrap()), transcript(want));
        }
    }
}

/// Counts `size_tuples_reached`, `new_item` and `begin_assignment`;
/// forwards everything.
#[derive(Default)]
struct CountingSsi {
    inner: Ssi,
    size_polls: AtomicU64,
    new_items: AtomicU64,
    assignments: AtomicU64,
}

impl SsiService for CountingSsi {
    fn post_query(&self, envelope: QueryEnvelope) -> Result<u64> {
        SsiService::post_query(&self.inner, envelope)
    }
    fn envelope(&self, query_id: u64) -> Result<QueryEnvelope> {
        SsiService::envelope(&self.inner, query_id)
    }
    fn new_item(&self, query_id: u64) -> Result<u64> {
        self.new_items.fetch_add(1, Ordering::Relaxed);
        SsiService::new_item(&self.inner, query_id)
    }
    fn begin_assignment(&self, query_id: u64, item: u64) -> Result<AssignmentId> {
        self.assignments.fetch_add(1, Ordering::Relaxed);
        SsiService::begin_assignment(&self.inner, query_id, item)
    }
    fn item_done(&self, query_id: u64, item: u64) -> Result<bool> {
        SsiService::item_done(&self.inner, query_id, item)
    }
    fn receive_collection(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome> {
        SsiService::receive_collection(&self.inner, query_id, assignment, tuples)
    }
    fn collection_count(&self, query_id: u64) -> Result<usize> {
        SsiService::collection_count(&self.inner, query_id)
    }
    fn size_tuples_reached(&self, query_id: u64) -> Result<bool> {
        self.size_polls.fetch_add(1, Ordering::Relaxed);
        SsiService::size_tuples_reached(&self.inner, query_id)
    }
    fn close_collection(&self, query_id: u64) -> Result<()> {
        SsiService::close_collection(&self.inner, query_id)
    }
    fn take_working(&self, query_id: u64) -> Result<Vec<StoredTuple>> {
        SsiService::take_working(&self.inner, query_id)
    }
    fn restore_working(&self, query_id: u64, phase: Phase, tuples: Vec<StoredTuple>) -> Result<()> {
        SsiService::restore_working(&self.inner, query_id, phase, tuples)
    }
    fn receive_working(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        phase: Phase,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome> {
        SsiService::receive_working(&self.inner, query_id, assignment, phase, tuples)
    }
    fn receive_results(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        rows: Vec<Bytes>,
    ) -> Result<DeliveryOutcome> {
        SsiService::receive_results(&self.inner, query_id, assignment, rows)
    }
    fn results(&self, query_id: u64) -> Result<Vec<Bytes>> {
        SsiService::results(&self.inner, query_id)
    }
    fn purge_query(&self, query_id: u64) -> Result<()> {
        SsiService::purge_query(&self.inner, query_id)
    }
}

/// Run `sql` as S_Agg over the 12-TDS deployment; returns the rows, the
/// number of SIZE polls the SSI served, and the driver for its stats.
fn run_counting(sql: &str) -> (Vec<Vec<Value>>, u64, tdsql_core::stats::RunStats) {
    let dep = deployment();
    let (pool, _) = dep.provision();
    let ssi = CountingSsi::default();
    let config = DriverConfig {
        seed: 0x512e,
        ..DriverConfig::default()
    };
    let obs = Arc::new(Obs::new(b"size-polls"));
    let mut driver = ServiceDriver::new(&ssi, &pool, obs, config).unwrap();
    let rows = driver
        .run_query(
            &dep.make_querier("energy-co", &dep.role),
            None,
            &parse_query(sql).unwrap(),
            ProtocolParams::new(ProtocolKind::SAgg),
        )
        .unwrap();
    let polls = ssi.size_polls.load(Ordering::Relaxed);
    (rows, polls, driver.stats.clone())
}

#[test]
fn size_is_polled_per_tds_only_when_the_query_bounds_tuples() {
    let (_, oracle) = deployment().provision();

    // No SIZE clause, or a bound in rounds only: the SSI's answer is a
    // constant the driver already knows.
    for sql in [AGG.to_string(), format!("{AGG} SIZE 3 ROUNDS")] {
        let (rows, polls, stats) = run_counting(&sql);
        assert_eq!(polls, 0, "{sql}");
        assert_eq!(stats.phase(Phase::Collection).participating_tds(), N_TDS);
        let expected = execute(&oracle, &parse_query(AGG).unwrap()).unwrap().rows;
        assert_rows_eq(rows, expected, &sql);
    }

    // SIZE 5 TUPLES, one tuple per TDS: five TDSs are contacted, each after a
    // poll that said "not yet"; the sixth poll cuts the round off. One poll
    // opens the round and one follows it — exactly the calls, the cut-off
    // TDS and the statistics of a driver that polls unconditionally.
    let (rows, polls, stats) = run_counting(&format!("{AGG} SIZE 5 TUPLES"));
    let collection = stats.phase(Phase::Collection);
    assert_eq!(collection.participating_tds(), 5);
    assert_eq!(polls, 5 + 3);
    assert_eq!(collection.ssi_tuples_stored, 5);
    assert_eq!(collection.steps, 1);
    assert_eq!(
        stats.rounds,
        1 + 2,
        "one collection round, reduce, finalize"
    );
    assert!(!stats.partial, "SIZE reached is a complete answer");
    assert_eq!(stats.faults.total(), 0);
    let counted: i64 = rows
        .iter()
        .map(|r| match r[1] {
            Value::Int(n) => n,
            ref other => panic!("COUNT(*) is not an integer: {other:?}"),
        })
        .sum();
    assert_eq!(
        counted, 5,
        "the result covers exactly the five contributors"
    );
}

#[test]
fn a_stale_epoch_querier_fails_typed_at_its_first_contact() {
    // No fault plan, so nothing was corrupted in transit: a TDS that cannot
    // authenticate the envelope is reporting the query's own error, and
    // every other TDS — and every retry — would report it again.
    let dep = deployment();
    let (pool, _) = dep.provision();
    let ssi = CountingSsi::default();
    let obs = Arc::new(Obs::new(b"stale-epoch"));
    let mut driver = ServiceDriver::new(&ssi, &pool, obs, DriverConfig::default()).unwrap();
    let stale = querier_at_epoch(
        &dep.master_seed,
        &dep.authority_secret,
        "energy-co",
        &dep.role,
        1,
    );
    let err = driver
        .run_query(
            &stale,
            None,
            &parse_query(AGG).unwrap(),
            ProtocolParams::new(ProtocolKind::SAgg),
        )
        .unwrap_err();
    assert!(matches!(err, ProtocolError::Crypto(_)), "{err}");
    assert_eq!(driver.stats.faults.corrupt_rejected, 0);
    assert_eq!(driver.stats.faults.total(), 0);
    assert_eq!(ssi.new_items.load(Ordering::Relaxed), 1, "one contact");
    assert_eq!(ssi.assignments.load(Ordering::Relaxed), 0, "no delivery");
}
