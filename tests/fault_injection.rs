//! Fault injection: TDSs dropping out mid-partition must never change the
//! result — the SSI re-sends the partition after a timeout (the paper's
//! correctness argument in Section 3.2). The [`FaultPlan`] widens the model
//! to the full at-least-once taxonomy: lost, duplicated, late, reordered and
//! corrupted deliveries, all absorbed by the SSI's assignment-dedup ledger
//! without changing any result.

mod common;

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use common::assert_rows_eq;
use tdsql_core::access::AccessPolicy;
use tdsql_core::bytes::Bytes;
use tdsql_core::connectivity::{Connectivity, FaultPlan};
use tdsql_core::message::{AssignmentId, DeliveryOutcome, QueryEnvelope, StoredTuple};
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::runtime::SimBuilder;
use tdsql_core::service::{transport_error, SsiService, StepResult, TdsPool, TdsStep};
use tdsql_core::ssi::Ssi;
use tdsql_core::stats::Phase;
use tdsql_core::workload::{smart_meters, SmartMeterConfig};
use tdsql_core::{DriverConfig, LocalTdsPool, ServiceDriver};
use tdsql_crypto::credential::Role;
use tdsql_sql::engine::execute;
use tdsql_sql::parser::parse_query;
use tdsql_sql::value::Value;

const SQL: &str = "SELECT c.district, AVG(p.cons), COUNT(*) FROM power p, consumer c \
                   WHERE c.cid = p.cid GROUP BY c.district";

/// A Select-From-Where query for the Basic protocol (no aggregation).
const SFW_SQL: &str = "SELECT p.cid, p.cons FROM power p WHERE p.cons >= 0";

/// All five protocols with the query each can run.
fn all_protocols() -> Vec<(ProtocolKind, &'static str)> {
    vec![
        (ProtocolKind::Basic, SFW_SQL),
        (ProtocolKind::SAgg, SQL),
        (ProtocolKind::RnfNoise { nf: 2 }, SQL),
        (ProtocolKind::CNoise, SQL),
        (ProtocolKind::EdHist { buckets: 2 }, SQL),
    ]
}

#[test]
fn dropouts_do_not_corrupt_results() {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 35,
        districts: 4,
        readings_per_tds: 2,
        ..Default::default()
    });

    for (kind, sql) in all_protocols() {
        let query = parse_query(sql).unwrap();
        let expected = execute(&oracle, &query).unwrap().rows;
        let mut world = SimBuilder::new()
            .seed(300)
            .connectivity(Connectivity::always_on().with_dropout(0.3))
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("energy-co", "supplier");
        // Small partitions → many assignments → dropouts are certain to hit.
        let mut params = ProtocolParams::new(kind);
        params.chunk = 4;
        params.alpha = 2;
        let rows = world.run_query(&querier, &query, params).unwrap();
        assert_rows_eq(rows, expected.clone(), &kind.name());
        let reassigned: u64 = Phase::ALL
            .iter()
            .map(|&p| world.stats.phase(p).partitions_reassigned)
            .sum();
        assert!(
            reassigned > 0,
            "{}: 30% dropout must trigger re-sends",
            kind.name()
        );
    }
}

#[test]
fn heavy_dropout_still_terminates() {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 15,
        districts: 3,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;
    let mut world = SimBuilder::new()
        .seed(301)
        .connectivity(Connectivity::always_on().with_dropout(0.7))
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let rows = world
        .run_query(&querier, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .unwrap();
    assert_rows_eq(rows, expected, "70% dropout");
}

#[test]
fn dropout_plus_partial_connectivity() {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 30,
        districts: 3,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;
    let mut world = SimBuilder::new()
        .seed(302)
        .connectivity(Connectivity::fraction(0.3).with_dropout(0.2))
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let rows = world
        .run_query(
            &querier,
            &query,
            ProtocolParams::new(ProtocolKind::EdHist { buckets: 3 }),
        )
        .unwrap();
    assert_rows_eq(rows, expected, "30% connected + 20% dropout");
    assert!(
        world.stats.rounds > 3,
        "constrained world takes multiple rounds"
    );
}

#[test]
fn total_dropout_fails_loudly_not_forever() {
    // Every TDS dies on every partition: the retry budget must terminate the
    // query with a typed abort instead of spinning.
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 5,
        districts: 2,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let mut world = SimBuilder::new()
        .seed(303)
        .connectivity(Connectivity::always_on().with_dropout(1.0))
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let err = world
        .run_query(&querier, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .unwrap_err();
    assert!(
        matches!(
            err,
            tdsql_core::ProtocolError::QueryAborted {
                phase: Phase::Aggregation,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn duplication_and_late_delivery_preserve_results() {
    // At-least-once transport on every phase of every protocol: duplicated
    // and late deliveries must be absorbed by the dedup ledger with the
    // result staying exactly equal to the oracle.
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 25,
        districts: 3,
        readings_per_tds: 2,
        ..Default::default()
    });

    for (kind, sql) in all_protocols() {
        let query = parse_query(sql).unwrap();
        let expected = execute(&oracle, &query).unwrap().rows;
        let faults = FaultPlan::seeded(42)
            .with_duplication(0.4)
            .with_late(0.3)
            .with_loss(0.2);
        let mut world = SimBuilder::new()
            .seed(310)
            .connectivity(Connectivity::always_on().with_faults(faults))
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("energy-co", "supplier");
        let mut params = ProtocolParams::new(kind);
        params.chunk = 4;
        params.alpha = 2;
        let rows = world.run_query(&querier, &query, params).unwrap();
        assert_rows_eq(rows, expected.clone(), &kind.name());
        assert!(
            world.stats.faults.duplicates_dropped > 0,
            "{}: 40% duplication must hit the dedup ledger (faults: {:?})",
            kind.name(),
            world.stats.faults
        );
        assert!(
            !world.stats.partial,
            "{}: nothing was abandoned, the result is complete",
            kind.name()
        );
    }
}

#[test]
fn corrupted_payloads_are_rejected_and_resent() {
    // Bit flips in transit: the TDS's authenticated decryption rejects the
    // payload, the SSI re-sends from its pristine copy, the result is exact.
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 20,
        districts: 3,
        readings_per_tds: 2,
        ..Default::default()
    });

    for (kind, sql) in all_protocols() {
        let query = parse_query(sql).unwrap();
        let expected = execute(&oracle, &query).unwrap().rows;
        let faults = FaultPlan::seeded(7).with_corruption(0.3);
        let mut world = SimBuilder::new()
            .seed(311)
            .connectivity(Connectivity::always_on().with_faults(faults))
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("energy-co", "supplier");
        let mut params = ProtocolParams::new(kind);
        params.chunk = 4;
        params.alpha = 2;
        let rows = world.run_query(&querier, &query, params).unwrap();
        assert_rows_eq(rows, expected.clone(), &kind.name());
        assert!(
            world.stats.faults.corrupt_rejected > 0,
            "{}: 30% corruption must trip the integrity checks (faults: {:?})",
            kind.name(),
            world.stats.faults
        );
    }
}

#[test]
fn reordering_preserves_results() {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 20,
        districts: 3,
        readings_per_tds: 2,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;
    let faults = FaultPlan::seeded(19).with_reorder(0.8).with_late(0.2);
    let mut world = SimBuilder::new()
        .seed(312)
        .connectivity(Connectivity::always_on().with_faults(faults))
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let mut params = ProtocolParams::new(ProtocolKind::SAgg);
    params.chunk = 4;
    let rows = world.run_query(&querier, &query, params).unwrap();
    assert_rows_eq(rows, expected, "S_Agg under reordering");
}

#[test]
fn retry_exhaustion_aborts_with_typed_error() {
    // Certain loss on every upload: an unbounded query must terminate in
    // QueryAborted once the retry budget is gone — not hang, not NoProgress.
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 5,
        districts: 2,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let mut builder = SimBuilder::new()
        .seed(313)
        .retry_budget(6)
        .connectivity(Connectivity::always_on().with_faults(FaultPlan::seeded(1).with_loss(1.0)));
    builder.default_max_rounds = 10_000;
    let mut world = builder.build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let err = world
        .run_query(&querier, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .unwrap_err();
    match err {
        tdsql_core::ProtocolError::QueryAborted { phase, retries } => {
            assert_eq!(phase, Phase::Collection, "loss hits collection first");
            assert_eq!(retries, 6, "budget consumed exactly");
        }
        other => panic!("expected QueryAborted, got {other}"),
    }
}

#[test]
fn size_bounded_query_degrades_to_partial_result() {
    // A SIZE-bounded query under heavy loss: the collection window closes
    // before every TDS contributed, and the runtime finalizes over what
    // arrived instead of aborting — flagging the result partial.
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 12,
        districts: 2,
        readings_per_tds: 1,
        ..Default::default()
    });
    let sql = "SELECT c.district, COUNT(*) FROM power p, consumer c \
               WHERE c.cid = p.cid GROUP BY c.district SIZE 6 ROUNDS";
    let query = parse_query(sql).unwrap();
    let mut world = SimBuilder::new()
        .seed(314)
        .retry_budget(3)
        .connectivity(Connectivity::always_on().with_faults(FaultPlan::seeded(2).with_loss(0.8)))
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let rows = world
        .run_query(&querier, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .expect("SIZE-bounded query degrades instead of aborting");
    assert!(
        world.stats.partial,
        "80% loss in a 6-round window must leave contributions missing"
    );
    // Whatever arrived still aggregates correctly: counts are positive and
    // no larger than the full population's.
    for row in &rows {
        if let tdsql_sql::value::Value::Int(n) = row[1] {
            assert!((1..=12).contains(&n), "partial count in range, got {n}");
        }
    }
}

#[test]
fn discovery_phase_faults_are_retried_within_budget() {
    // Loss and corruption hitting the discovery sub-protocol itself: the
    // round runtime must retry within the budget, count the absorbed faults
    // under Phase::Discovery, and still produce complete protocol parameters
    // so the main query matches the oracle exactly.
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 20,
        districts: 3,
        readings_per_tds: 2,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;

    for kind in [ProtocolKind::CNoise, ProtocolKind::EdHist { buckets: 3 }] {
        let faults = FaultPlan::seeded(77).with_loss(0.3).with_corruption(0.3);
        let mut world = SimBuilder::new()
            .seed(320)
            .connectivity(Connectivity::always_on().with_faults(faults))
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let params = world.prepare_params(&query, kind).unwrap();

        // Nothing but discovery has run yet: every fault recorded so far was
        // injected into — and absorbed by — the discovery phase.
        assert!(
            world.stats.faults.lost_uploads > 0,
            "{}: 30% loss must hit discovery uploads (faults: {:?})",
            kind.name(),
            world.stats.faults
        );
        assert!(
            world.stats.faults.corrupt_rejected > 0,
            "{}: 30% corruption must trip discovery integrity checks (faults: {:?})",
            kind.name(),
            world.stats.faults
        );
        assert!(
            world.stats.phase(Phase::Discovery).steps > 0,
            "{}: discovery work must be attributed to Phase::Discovery",
            kind.name()
        );
        match kind {
            ProtocolKind::CNoise => assert!(
                !params.noise_domain.is_empty(),
                "faulty discovery still yields the noise domain"
            ),
            ProtocolKind::EdHist { .. } => assert!(
                params.histogram.is_some(),
                "faulty discovery still yields the histogram"
            ),
            _ => unreachable!(),
        }

        let querier = world.make_querier("energy-co", "supplier");
        let rows = world.run_query(&querier, &query, params).unwrap();
        assert_rows_eq(rows, expected.clone(), &kind.name());
    }
}

#[test]
fn deterministic_replay_with_same_seed() {
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 20,
        districts: 4,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let run = |seed: u64| {
        let mut world = SimBuilder::new()
            .seed(seed)
            .connectivity(Connectivity::fraction(0.5).with_dropout(0.1))
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("energy-co", "supplier");
        let rows = world
            .run_query(&querier, &query, ProtocolParams::new(ProtocolKind::SAgg))
            .unwrap();
        (rows, world.stats.rounds, world.ssi.observations_len())
    };
    let a = run(55);
    let b = run(55);
    assert_eq!(a.1, b.1, "rounds must replay identically");
    assert_eq!(a.2, b.2, "observation counts must replay identically");
    assert_rows_eq(a.0, b.0, "replayed rows");
}

/// Forwards to `inner`, except that every `every`-th step fails the way a
/// dropped connection does.
struct FlakyPool {
    inner: LocalTdsPool,
    every: u64,
    calls: AtomicU64,
    failed: AtomicU64,
}

impl TdsPool for FlakyPool {
    fn len(&self) -> tdsql_core::Result<usize> {
        self.inner.len()
    }

    fn tds_ids(&self) -> tdsql_core::Result<Vec<u64>> {
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
    ) -> tdsql_core::Result<StepResult> {
        if (self.calls.fetch_add(1, Ordering::SeqCst) + 1) % self.every == 0 {
            self.failed.fetch_add(1, Ordering::SeqCst);
            return Err(transport_error("connection reset by peer"));
        }
        self.inner
            .step(index, env, params, now_round, step, partition, rng_seed)
    }

    fn open_rows(&self, blobs: &[Bytes]) -> tdsql_core::Result<Vec<Vec<Value>>> {
        self.inner.open_rows(blobs)
    }
}

#[test]
fn a_step_lost_in_transport_is_a_reassignment_not_a_corrupt_rejection() {
    // No fault plan: every failure is the pool's transport. Each one costs
    // its item an attempt and a reassignment, and none of them is a
    // corrupted download the TDS rejected.
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 20,
        districts: 3,
        readings_per_tds: 2,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let mut world = SimBuilder::new()
        .seed(315)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let pool = FlakyPool {
        inner: LocalTdsPool::new(Arc::new(std::mem::take(&mut world.tdss))),
        every: 5,
        calls: AtomicU64::new(0),
        failed: AtomicU64::new(0),
    };
    let mut driver = ServiceDriver::new(
        &world.ssi,
        &pool,
        Arc::clone(&world.obs),
        DriverConfig::default(),
    )
    .unwrap();
    let mut params = ProtocolParams::new(ProtocolKind::SAgg);
    params.chunk = 4;
    let rows = driver.run_query(&querier, None, &query, params).unwrap();
    assert_rows_eq(rows, execute(&oracle, &query).unwrap().rows, "S_Agg");

    let failed = pool.failed.load(Ordering::SeqCst);
    let reassigned: u64 = Phase::ALL
        .iter()
        .map(|&p| driver.stats.phase(p).partitions_reassigned)
        .sum();
    assert!(failed > 0);
    assert_eq!(reassigned, failed, "one reassignment per failed step");
    assert_eq!(
        driver.stats.faults.corrupt_rejected, 0,
        "nothing was corrupted"
    );
}

/// Forwards to `inner`, except that the second delivery under any one
/// assignment fails the way a dropped connection does.
#[derive(Default)]
struct SecondDeliveryLost {
    inner: Ssi,
    delivered: Mutex<BTreeSet<AssignmentId>>,
    lost: AtomicU64,
}

impl SecondDeliveryLost {
    /// Forward a delivery, unless `assignment` already delivered once.
    fn deliver(
        &self,
        assignment: AssignmentId,
        forward: impl FnOnce() -> tdsql_core::Result<DeliveryOutcome>,
    ) -> tdsql_core::Result<DeliveryOutcome> {
        if !self.delivered.lock().unwrap().insert(assignment) {
            self.lost.fetch_add(1, Ordering::SeqCst);
            return Err(transport_error("connection reset by peer"));
        }
        forward()
    }
}

impl SsiService for SecondDeliveryLost {
    fn post_query(&self, envelope: QueryEnvelope) -> tdsql_core::Result<u64> {
        SsiService::post_query(&self.inner, envelope)
    }
    fn envelope(&self, query_id: u64) -> tdsql_core::Result<QueryEnvelope> {
        SsiService::envelope(&self.inner, query_id)
    }
    fn new_item(&self, query_id: u64) -> tdsql_core::Result<u64> {
        SsiService::new_item(&self.inner, query_id)
    }
    fn begin_assignment(&self, query_id: u64, item: u64) -> tdsql_core::Result<AssignmentId> {
        SsiService::begin_assignment(&self.inner, query_id, item)
    }
    fn item_done(&self, query_id: u64, item: u64) -> tdsql_core::Result<bool> {
        SsiService::item_done(&self.inner, query_id, item)
    }
    fn receive_collection(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        tuples: Vec<StoredTuple>,
    ) -> tdsql_core::Result<DeliveryOutcome> {
        self.deliver(assignment, || {
            SsiService::receive_collection(&self.inner, query_id, assignment, tuples)
        })
    }
    fn collection_count(&self, query_id: u64) -> tdsql_core::Result<usize> {
        SsiService::collection_count(&self.inner, query_id)
    }
    fn size_tuples_reached(&self, query_id: u64) -> tdsql_core::Result<bool> {
        SsiService::size_tuples_reached(&self.inner, query_id)
    }
    fn close_collection(&self, query_id: u64) -> tdsql_core::Result<()> {
        SsiService::close_collection(&self.inner, query_id)
    }
    fn take_working(&self, query_id: u64) -> tdsql_core::Result<Vec<StoredTuple>> {
        SsiService::take_working(&self.inner, query_id)
    }
    fn restore_working(
        &self,
        query_id: u64,
        phase: Phase,
        tuples: Vec<StoredTuple>,
    ) -> tdsql_core::Result<()> {
        SsiService::restore_working(&self.inner, query_id, phase, tuples)
    }
    fn receive_working(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        phase: Phase,
        tuples: Vec<StoredTuple>,
    ) -> tdsql_core::Result<DeliveryOutcome> {
        self.deliver(assignment, || {
            SsiService::receive_working(&self.inner, query_id, assignment, phase, tuples)
        })
    }
    fn receive_results(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        rows: Vec<Bytes>,
    ) -> tdsql_core::Result<DeliveryOutcome> {
        self.deliver(assignment, || {
            SsiService::receive_results(&self.inner, query_id, assignment, rows)
        })
    }
    fn results(&self, query_id: u64) -> tdsql_core::Result<Vec<Bytes>> {
        SsiService::results(&self.inner, query_id)
    }
    fn purge_query(&self, query_id: u64) -> tdsql_core::Result<()> {
        SsiService::purge_query(&self.inner, query_id)
    }
}

#[test]
fn a_duplicate_lost_in_transport_is_a_dropped_duplicate_not_a_lost_upload() {
    // Every upload is duplicated, and every copy dies on the wire after its
    // original settled. Nothing re-sends a copy, so no upload was lost:
    // each copy is a duplicate the run dropped.
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 20,
        districts: 3,
        readings_per_tds: 2,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let mut world = SimBuilder::new()
        .seed(316)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let pool = LocalTdsPool::new(Arc::new(std::mem::take(&mut world.tdss)));
    let ssi = SecondDeliveryLost::default();
    let config = DriverConfig {
        connectivity: Connectivity::always_on()
            .with_faults(FaultPlan::seeded(316).with_duplication(1.0)),
        ..DriverConfig::default()
    };
    let mut driver = ServiceDriver::new(&ssi, &pool, Arc::clone(&world.obs), config).unwrap();
    let mut params = ProtocolParams::new(ProtocolKind::SAgg);
    params.chunk = 4;
    let rows = driver.run_query(&querier, None, &query, params).unwrap();
    assert_rows_eq(rows, execute(&oracle, &query).unwrap().rows, "S_Agg");

    let copies_lost = ssi.lost.load(Ordering::SeqCst);
    assert!(copies_lost > 0, "every settled upload was duplicated");
    assert_eq!(driver.stats.faults.lost_uploads, 0, "no original was lost");
    assert_eq!(
        driver.stats.faults.duplicates_dropped, copies_lost,
        "one dropped duplicate per copy lost in flight"
    );
    assert!(!driver.stats.partial);
}
