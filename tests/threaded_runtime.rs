//! The concurrent runtime must produce exactly what the deterministic
//! round-based runtime (and thus the oracle) produces.

mod common;

use common::assert_rows_eq;
use tdsql_core::access::AccessPolicy;
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::runtime::threaded::run_s_agg_threaded;
use tdsql_core::runtime::SimBuilder;
use tdsql_core::workload::{smart_meters, SmartMeterConfig};
use tdsql_crypto::credential::Role;
use tdsql_sql::engine::execute;
use tdsql_sql::parser::parse_query;

#[test]
fn threaded_s_agg_matches_oracle() {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 60,
        districts: 5,
        readings_per_tds: 2,
        ..Default::default()
    });
    let query = parse_query(
        "SELECT c.district, AVG(p.cons), COUNT(*) FROM power p, consumer c \
         WHERE c.cid = p.cid GROUP BY c.district",
    )
    .unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;

    let world = SimBuilder::new()
        .seed(600)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    for workers in [1, 2, 8] {
        let rows = run_s_agg_threaded(
            &world.tdss,
            &querier,
            &query,
            &ProtocolParams::new(ProtocolKind::SAgg),
            workers,
        )
        .unwrap();
        assert_rows_eq(rows, expected.clone(), &format!("{workers} workers"));
    }
}

#[test]
fn threaded_global_aggregate() {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 40,
        districts: 3,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query("SELECT COUNT(*), SUM(p.cons) FROM power p").unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;
    let world = SimBuilder::new()
        .seed(601)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let rows = run_s_agg_threaded(
        &world.tdss,
        &querier,
        &query,
        &ProtocolParams::new(ProtocolKind::SAgg),
        4,
    )
    .unwrap();
    assert_rows_eq(rows, expected, "threaded global aggregate");
}

#[test]
fn threaded_all_protocols_match_oracle() {
    use tdsql_core::runtime::threaded::run_threaded;
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 80,
        districts: 4,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query(
        "SELECT c.district, COUNT(*), AVG(p.cons) FROM power p, consumer c \
         WHERE c.cid = p.cid GROUP BY c.district",
    )
    .unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;
    let mut world = SimBuilder::new()
        .seed(610)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    for kind in [
        ProtocolKind::SAgg,
        ProtocolKind::RnfNoise { nf: 3 },
        ProtocolKind::CNoise,
        ProtocolKind::EdHist { buckets: 2 },
    ] {
        // Discovery runs once in the round runtime; the threaded runtime
        // consumes the prepared parameters.
        let params = world.prepare_params(&query, kind).unwrap();
        let rows = run_threaded(&world.tdss, &querier, &query, &params, 6).unwrap();
        assert_rows_eq(rows, expected.clone(), &format!("threaded {}", kind.name()));
    }
}

#[test]
fn threaded_basic_protocol() {
    use tdsql_core::runtime::threaded::run_threaded;
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 50,
        districts: 3,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query("SELECT c.cid FROM consumer c WHERE c.accomodation = 'detached house'")
        .unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;
    let world = SimBuilder::new()
        .seed(611)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let rows = run_threaded(
        &world.tdss,
        &querier,
        &query,
        &ProtocolParams::new(ProtocolKind::Basic),
        4,
    )
    .unwrap();
    assert_rows_eq(rows, expected, "threaded basic");
}

#[test]
fn threaded_discovery_protocols_require_prepared_params() {
    use tdsql_core::runtime::threaded::run_threaded;
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 10,
        districts: 2,
        ..Default::default()
    });
    let world = SimBuilder::new()
        .seed(612)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("q", "supplier");
    let query =
        parse_query("SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district").unwrap();
    for kind in [ProtocolKind::CNoise, ProtocolKind::EdHist { buckets: 2 }] {
        let err =
            run_threaded(&world.tdss, &querier, &query, &ProtocolParams::new(kind), 4).unwrap_err();
        assert!(
            matches!(err, tdsql_core::ProtocolError::Unsupported(_)),
            "{err}"
        );
    }
}

#[test]
fn threaded_discovery_protocols_end_to_end() {
    // Discovery itself runs on the threaded runtime here — no round-based
    // machinery anywhere in the pipeline, including the discovery
    // sub-protocol (an S_Agg plan with k2-sealed results).
    use tdsql_core::runtime::threaded::run_threaded;
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 60,
        districts: 4,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query(
        "SELECT c.district, COUNT(*), SUM(p.cons) FROM power p, consumer c \
         WHERE c.cid = p.cid GROUP BY c.district",
    )
    .unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;
    let world = SimBuilder::new()
        .seed(613)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    for kind in [ProtocolKind::CNoise, ProtocolKind::EdHist { buckets: 3 }] {
        let params = world.prepare_params_threaded(&query, kind, 4).unwrap();
        match kind {
            ProtocolKind::CNoise => assert!(!params.noise_domain.is_empty()),
            ProtocolKind::EdHist { .. } => assert!(params.histogram.is_some()),
            _ => unreachable!(),
        }
        let rows = run_threaded(&world.tdss, &querier, &query, &params, 6).unwrap();
        assert_rows_eq(
            rows,
            expected.clone(),
            &format!("fully threaded {}", kind.name()),
        );
    }
}

#[test]
fn worker_panic_is_contained_and_reported() {
    // A panicking worker must not poison the queue for the others: the
    // remaining partitions are still drained and the panic surfaces as the
    // first error, not as a crash of the coordinating thread.
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tdsql_core::message::{GroupTag, StoredTuple};
    use tdsql_core::runtime::threaded::{parallel_partitions, WorkerOutput};

    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 8,
        districts: 2,
        ..Default::default()
    });
    let world = SimBuilder::new()
        .seed(614)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));

    const POISON: &[u8] = b"poison-pill";
    let partitions: Vec<Vec<StoredTuple>> = (0..8)
        .map(|i| {
            let blob: Vec<u8> = if i == 3 { POISON.to_vec() } else { vec![i] };
            vec![StoredTuple {
                tag: GroupTag::None,
                blob: blob.into(),
            }]
        })
        .collect();

    let processed = AtomicUsize::new(0);
    let err = parallel_partitions(&world.tdss, 4, 0xdead, partitions, |_tds, p, _rng| {
        if p[0].blob.as_ref() == POISON {
            panic!("injected worker failure");
        }
        processed.fetch_add(1, Ordering::SeqCst);
        Ok(WorkerOutput::Working(Vec::new()))
    })
    .unwrap_err();

    assert!(
        err.to_string().contains("panicked"),
        "panic must be reported as an error: {err}"
    );
    assert!(
        err.to_string().contains("injected worker failure"),
        "panic payload must be preserved: {err}"
    );
    assert_eq!(
        processed.load(Ordering::SeqCst),
        7,
        "all other partitions must still be drained"
    );
}

#[test]
fn empty_population_rejected() {
    let world = SimBuilder::new()
        .seed(602)
        .build(Vec::new(), AccessPolicy::allow_all(Role::new("r")));
    let querier = world.make_querier("q", "r");
    let query = parse_query("SELECT COUNT(*) FROM health").unwrap();
    assert!(run_s_agg_threaded(
        &world.tdss,
        &querier,
        &query,
        &ProtocolParams::new(ProtocolKind::SAgg),
        4
    )
    .is_err());
}

#[test]
fn parallel_partitions_clamps_workers_and_rejects_an_empty_population() {
    use tdsql_core::message::{GroupTag, StoredTuple};
    use tdsql_core::runtime::threaded::{parallel_partitions, WorkerOutput};
    use tdsql_core::ProtocolError;

    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 3,
        districts: 2,
        ..Default::default()
    });
    let world = SimBuilder::new()
        .seed(615)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let partitions = || -> Vec<Vec<StoredTuple>> {
        (0..4u8)
            .map(|i| {
                vec![StoredTuple {
                    tag: GroupTag::None,
                    blob: vec![i].into(),
                }]
            })
            .collect()
    };
    let echo = |_tds: &_, p: &[StoredTuple], _rng: &mut _| Ok(WorkerOutput::Working(p.to_vec()));

    // Zero workers is one worker, not zero work: nothing is dropped, and
    // the outputs come back in partition order.
    for n_workers in [0, 1, 64] {
        let (working, results) =
            parallel_partitions(&world.tdss, n_workers, 7, partitions(), echo).unwrap();
        let blobs: Vec<&[u8]> = working.iter().map(|t| t.blob.as_ref()).collect();
        assert_eq!(blobs, [[0u8], [1], [2], [3]], "{n_workers} workers");
        assert!(results.is_empty());
    }

    // No TDS to run on is a typed error, not a remainder by zero.
    for n_workers in [0, 1, 4] {
        assert!(matches!(
            parallel_partitions(&[], n_workers, 7, partitions(), echo),
            Err(ProtocolError::Protocol(_))
        ));
    }
}
