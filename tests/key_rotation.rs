//! Key-epoch rotation: the paper's footnote-7 mitigation, end to end.
//!
//! Rotating re-derives `k1`/`k2`/the bucket-hash key on every TDS. Stale
//! queriers stop working (their `k1` no longer opens anything), and — the
//! point of rotating — an adversary who compromises a TDS *after* the
//! rotation cannot open traffic archived *before* it.

mod common;

use std::sync::Arc;

use common::assert_rows_eq;
use tdsql_core::access::AccessPolicy;
use tdsql_core::adversary::{archive, Adversary};
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::runtime::SimBuilder;
use tdsql_core::ssi::{JournalConfig, Ssi};
use tdsql_core::workload::{health_survey, HealthConfig};
use tdsql_crypto::credential::Role;
use tdsql_sql::engine::execute;
use tdsql_sql::parser::parse_query;

const SQL: &str = "SELECT city, COUNT(*) FROM health GROUP BY city";

#[test]
fn rotation_reprovisions_the_population() {
    let (dbs, oracle) = health_survey(&HealthConfig {
        n_tds: 20,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;

    let mut world = SimBuilder::new()
        .seed(800)
        .build(dbs, AccessPolicy::allow_all(Role::new("physician")));
    assert_eq!(world.epoch(), 0);

    // Epoch 0 works.
    let q0 = world.make_querier("agency", "physician");
    let rows = world
        .run_query(&q0, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .unwrap();
    assert_rows_eq(rows, expected.clone(), "epoch 0");

    // Rotate: the stale querier's queries are unreadable by the TDSs.
    assert_eq!(world.rotate_keys(), 1);
    let err = world
        .run_query(&q0, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .unwrap_err();
    assert!(matches!(err, tdsql_core::ProtocolError::Crypto(_)), "{err}");

    // A freshly provisioned querier works again.
    let q1 = world.make_querier("agency", "physician");
    let rows = world
        .run_query(&q1, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .unwrap();
    assert_rows_eq(rows, expected, "epoch 1");
}

#[test]
fn rotation_contains_a_later_compromise() {
    let (dbs, _) = health_survey(&HealthConfig {
        n_tds: 15,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let mut world = SimBuilder::new()
        .seed(801)
        .build(dbs, AccessPolicy::allow_all(Role::new("physician")));
    // An archiving SSI is a journaled one: the journal holds every
    // accepted intermediate ciphertext.
    let journal = JournalConfig::new(
        std::env::temp_dir().join(format!("tdsql-rotation-{}.journal", std::process::id())),
    );
    let _ = std::fs::remove_file(&journal.path);
    world.ssi = Ssi::recover(journal.clone()).unwrap();
    world.ssi.attach_obs(Arc::clone(&world.obs));

    // Epoch-0 traffic.
    let q0 = world.make_querier("agency", "physician");
    world
        .run_query(&q0, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .unwrap();
    let epoch0_blobs = archive(&journal).unwrap().len();
    assert!(epoch0_blobs > 0);
    let ring0 = world.ring().clone();

    world.rotate_keys();

    // Epoch-1 traffic.
    let q1 = world.make_querier("agency", "physician");
    world
        .run_query(&q1, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .unwrap();
    let all_blobs = archive(&journal).unwrap();
    assert!(all_blobs.len() > epoch0_blobs);

    // An adversary with the *current* (epoch-1) ring opens only the
    // post-rotation slice of the archive.
    let adv1 = Adversary::with_ring(world.ring());
    let report = adv1.replay(&all_blobs);
    assert_eq!(
        report.opened,
        all_blobs.len() - epoch0_blobs,
        "pre-rotation stays sealed"
    );

    // And the epoch-0 ring opens only the pre-rotation slice.
    let adv0 = Adversary::with_ring(&ring0);
    let report = adv0.replay(&all_blobs);
    assert_eq!(report.opened, epoch0_blobs, "post-rotation stays sealed");
    let _ = std::fs::remove_file(&journal.path);
}
