//! Deterministic perf guard: a query's envelope is decrypted once per pool.
//!
//! One test, alone in its binary, because the `tdsql_crypto` AES block
//! counter is process-global. Under a healthy run every ciphertext of an
//! S_Agg query is sealed exactly once and opened exactly once — tuples and
//! partial batches by TDSs, result rows by a TDS and the querier, the
//! envelope by the querier and *the pool* — so the counter's delta over a
//! query is twice the blocks of everything the SSI saw. A pool that opens
//! the envelope per step instead adds one envelope decrypt per TDS contact
//! and fails this equality without a stopwatch.

use std::collections::BTreeMap;
use std::sync::Arc;

use tdsql_core::connectivity::FaultPlan;
use tdsql_core::ssi::Ssi;
use tdsql_core::stats::Phase;
use tdsql_core::tds::QueryOpenCache;
use tdsql_core::workload::SmartMeterConfig;
use tdsql_core::{
    DriverConfig, ProtocolError, ProtocolKind, ProtocolParams, ServiceDriver, StepResult, TdsPool,
    TdsStep,
};
use tdsql_crypto::aes::aes_blocks_batched;
use tdsql_net::deploy::Deployment;
use tdsql_obs::Obs;
use tdsql_sql::parser::parse_query;

const N_TDS: usize = 200;

/// AES blocks one nDet seal or open of a `len`-byte ciphertext costs: CTR
/// keystream over the body, the nonce and tag excluded.
fn blocks(len: usize) -> u64 {
    (len - tdsql_crypto::ndet::OVERHEAD).div_ceil(16) as u64
}

#[test]
fn s_agg_over_200_tdss_decrypts_its_envelope_once() {
    let dep = Deployment {
        meters: SmartMeterConfig {
            n_tds: N_TDS,
            districts: 8,
            readings_per_tds: 1,
            ..SmartMeterConfig::default()
        },
        ..Deployment::default()
    };
    let (pool, _) = dep.provision();
    let ssi = Ssi::new();
    let query = parse_query("SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district")
        .expect("parse");
    let params = ProtocolParams::new(ProtocolKind::SAgg);
    let obs = Arc::new(Obs::new(b"open-once"));
    let mut driver = ServiceDriver::new(&ssi, &pool, obs, DriverConfig::default()).expect("driver");

    let before = aes_blocks_batched();
    let rows = driver
        .run_query(
            &dep.make_querier("energy-co", &dep.role),
            None,
            &query,
            params.clone(),
        )
        .expect("query");
    let spent = aes_blocks_batched() - before;

    assert_eq!(rows.len(), 8);
    assert_eq!(
        driver.stats.phase(Phase::Collection).participating_tds(),
        N_TDS
    );
    let seen = ssi.observations();
    let qid = seen.first().expect("the SSI saw the collection").query_id;
    let env = ssi.envelope(qid).expect("envelope");
    // By digest: the SSI logs the final batch again when the driver parks it
    // back between reduce and finalize.
    let distinct: BTreeMap<[u8; 16], usize> =
        seen.iter().map(|o| (o.blob_digest, o.blob_len)).collect();
    let sealed_and_opened: u64 = distinct.values().map(|&len| blocks(len)).sum();
    assert_eq!(
        spent,
        2 * sealed_and_opened + 2 * blocks(env.enc_query.len()),
        "every ciphertext sealed once and opened once, the envelope included"
    );

    // Failed opens are neither cached nor allowed to evict: after more
    // rejected envelopes than the cache has room for, a step on the pristine
    // one still costs its output and nothing else.
    let collect_cost = || {
        let before = aes_blocks_batched();
        let out = pool
            .step(0, &env, &params, 0, TdsStep::Collect, &[], 1)
            .expect("pristine envelope");
        let StepResult::Working(tuples) = out else {
            panic!("collect returned result rows");
        };
        let sealed: u64 = tuples.iter().map(|t| blocks(t.blob.len())).sum();
        (aes_blocks_batched() - before, sealed)
    };
    let (cost, sealed) = collect_cost();
    assert_eq!(cost, sealed, "warm: no envelope decrypt");
    let faults = FaultPlan::seeded(9).with_corruption(1.0);
    for k in 0..=QueryOpenCache::CAPACITY as u64 {
        let mut bad = env.clone();
        bad.enc_query = faults.corrupt_blob(&env.enc_query, Phase::Collection, k, 1);
        assert!(matches!(
            pool.step(0, &bad, &params, 0, TdsStep::Collect, &[], 1),
            Err(ProtocolError::Crypto(_))
        ));
    }
    let (cost, sealed) = collect_cost();
    assert_eq!(cost, sealed, "still warm after a cache's worth of failures");
}
