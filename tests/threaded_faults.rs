//! Fault injection on the threaded runtime: the at-least-once/dedup
//! machinery must hold under real thread interleaving, not just the
//! deterministic round scheduler.

mod common;

use common::assert_rows_eq;
use tdsql_core::access::AccessPolicy;
use tdsql_core::connectivity::FaultPlan;
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::runtime::threaded::{run_threaded_faulty, FaultConfig};
use tdsql_core::runtime::SimBuilder;
use tdsql_core::stats::Phase;
use tdsql_core::workload::{smart_meters, SmartMeterConfig};
use tdsql_core::ProtocolError;
use tdsql_crypto::credential::Role;
use tdsql_sql::engine::execute;
use tdsql_sql::parser::parse_query;

const SQL: &str = "SELECT c.district, COUNT(*), SUM(p.cons) FROM power p, consumer c \
                   WHERE c.cid = p.cid GROUP BY c.district";
const SFW_SQL: &str = "SELECT p.cid, p.cons FROM power p WHERE p.cons >= 0";

/// Every protocol paired with a query it supports (Basic is SFW-only).
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
fn threaded_duplication_and_late_delivery_preserve_results() {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 60,
        districts: 4,
        readings_per_tds: 1,
        ..Default::default()
    });
    for (kind, sql) in all_protocols() {
        let query = parse_query(sql).unwrap();
        let expected = execute(&oracle, &query).unwrap().rows;
        let mut world = SimBuilder::new()
            .seed(620)
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("energy-co", "supplier");
        let params = world.prepare_params(&query, kind).unwrap();
        let cfg = FaultConfig {
            faults: FaultPlan::seeded(42)
                .with_duplication(0.4)
                .with_late(0.3)
                .with_loss(0.2),
            ..Default::default()
        };
        let (rows, report) =
            run_threaded_faulty(&world.tdss, &querier, &query, &params, 6, &cfg).unwrap();
        assert_rows_eq(rows, expected, &format!("threaded faulty {}", kind.name()));
        assert!(
            report.faults.duplicates_dropped > 0,
            "{}: duplicate uploads must be observed and dropped: {:?}",
            kind.name(),
            report.faults
        );
        assert!(!report.partial, "{}: nothing was abandoned", kind.name());
    }
}

#[test]
fn threaded_corrupted_payloads_are_rejected_and_resent() {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 50,
        districts: 3,
        readings_per_tds: 1,
        ..Default::default()
    });
    for (kind, sql) in all_protocols() {
        let query = parse_query(sql).unwrap();
        let expected = execute(&oracle, &query).unwrap().rows;
        let mut world = SimBuilder::new()
            .seed(621)
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("energy-co", "supplier");
        let params = world.prepare_params(&query, kind).unwrap();
        let cfg = FaultConfig {
            faults: FaultPlan::seeded(7).with_corruption(0.3),
            ..Default::default()
        };
        let (rows, report) =
            run_threaded_faulty(&world.tdss, &querier, &query, &params, 4, &cfg).unwrap();
        assert_rows_eq(rows, expected, &format!("threaded corrupt {}", kind.name()));
        assert!(
            report.faults.corrupt_rejected > 0,
            "{}: tampered payloads must be rejected: {:?}",
            kind.name(),
            report.faults
        );
    }
}

#[test]
fn threaded_retry_exhaustion_aborts_with_typed_error() {
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 20,
        districts: 2,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let world = SimBuilder::new()
        .seed(622)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let cfg = FaultConfig {
        faults: FaultPlan::seeded(9).with_loss(1.0),
        retry_budget: 5,
        degrade: false,
    };
    let err = run_threaded_faulty(
        &world.tdss,
        &querier,
        &query,
        &ProtocolParams::new(ProtocolKind::SAgg),
        4,
        &cfg,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            ProtocolError::QueryAborted {
                phase: Phase::Collection,
                retries: 5
            }
        ),
        "total loss must exhaust the budget in collection: {err}"
    );
}

#[test]
fn threaded_degraded_run_abandons_items_and_flags_partial() {
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 20,
        districts: 2,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let world = SimBuilder::new()
        .seed(623)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let cfg = FaultConfig {
        faults: FaultPlan::seeded(9).with_loss(1.0),
        retry_budget: 4,
        degrade: true,
    };
    let (rows, report) = run_threaded_faulty(
        &world.tdss,
        &querier,
        &query,
        &ProtocolParams::new(ProtocolKind::SAgg),
        4,
        &cfg,
    )
    .unwrap();
    assert!(
        report.partial,
        "all contributions lost: run must be partial"
    );
    assert!(
        report.faults.items_abandoned > 0,
        "exhausted items must be counted: {:?}",
        report.faults
    );
    assert!(rows.is_empty(), "no tuples survived total loss");
}

#[test]
fn threaded_inactive_fault_plan_is_identity() {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 30,
        districts: 3,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;
    let world = SimBuilder::new()
        .seed(624)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let (rows, report) = run_threaded_faulty(
        &world.tdss,
        &querier,
        &query,
        &ProtocolParams::new(ProtocolKind::SAgg),
        4,
        &FaultConfig::default(),
    )
    .unwrap();
    assert_rows_eq(rows, expected, "no faults");
    assert_eq!(report.faults.total(), 0, "no fault counters without faults");
    assert!(!report.partial);
}

/// Decrypted result rows — order included — must be identical for any
/// worker count, healthy or faulty: outputs merge in work-item order, not
/// in upload-arrival order.
#[test]
fn threaded_rows_identical_across_worker_counts() {
    let (dbs, oracle) = smart_meters(&SmartMeterConfig {
        n_tds: 48,
        districts: 4,
        readings_per_tds: 1,
        ..Default::default()
    });
    let faulty = FaultConfig {
        faults: FaultPlan::seeded(99)
            .with_loss(0.15)
            .with_duplication(0.25)
            .with_late(0.15)
            .with_corruption(0.1),
        ..Default::default()
    };
    for cfg in [FaultConfig::default(), faulty] {
        for (kind, sql) in all_protocols() {
            let query = parse_query(sql).unwrap();
            let expected = execute(&oracle, &query).unwrap().rows;
            let mut world = SimBuilder::new()
                .seed(630)
                .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
            let querier = world.make_querier("energy-co", "supplier");
            let params = world.prepare_params(&query, kind).unwrap();
            let label = format!(
                "{} ({})",
                kind.name(),
                if cfg.faults.is_active() {
                    "faulty"
                } else {
                    "healthy"
                }
            );
            let (ref_rows, ref_report) =
                run_threaded_faulty(&world.tdss, &querier, &query, &params, 1, &cfg)
                    .unwrap_or_else(|e| panic!("{label}: reference run failed: {e}"));
            assert_rows_eq(ref_rows.clone(), expected, &label);
            for w in [2usize, 5, 8] {
                let (rows, report) =
                    run_threaded_faulty(&world.tdss, &querier, &query, &params, w, &cfg)
                        .unwrap_or_else(|e| panic!("{label}: {w} workers failed: {e}"));
                assert_eq!(
                    rows, ref_rows,
                    "{label}: {w}-worker rows (incl. order) differ from 1-worker reference"
                );
                assert_eq!(
                    report.faults, ref_report.faults,
                    "{label}: fault counters must not depend on the worker count"
                );
                assert_eq!(
                    report.partial, ref_report.partial,
                    "{label}: the partial flag must not depend on the worker count"
                );
            }
        }
    }
}
