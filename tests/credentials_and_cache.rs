//! Credential lifetimes, the k2-sealed histogram, and the pool-side
//! query-open cache, end to end.
//!
//! The second half pins what the open cache ([`QueryOpenCache`], owned by
//! [`LocalTdsPool`]) may never do: turn a warm entry into a trust decision.
//! Credential expiry, the per-TDS access policy, the key epoch and envelope
//! authentication are all re-decided on every step.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use common::assert_rows_eq;
use tdsql_core::access::AccessPolicy;
use tdsql_core::bytes::Bytes;
use tdsql_core::connectivity::{Connectivity, FaultPlan};
use tdsql_core::histogram::Histogram;
use tdsql_core::message::{GroupTag, QueryEnvelope, StoredTuple};
use tdsql_core::protocol::{discovery, ProtocolKind, ProtocolParams};
use tdsql_core::querier::Querier;
use tdsql_core::runtime::SimBuilder;
use tdsql_core::ssi::Ssi;
use tdsql_core::stats::Phase;
use tdsql_core::tds::{CipherContext, QueryOpenCache, RetagMode, Tds};
use tdsql_core::tuple_codec::AggInput;
use tdsql_core::workload::{health_survey, smart_meters, HealthConfig, SmartMeterConfig};
use tdsql_core::{
    DriverConfig, LocalTdsPool, ProtocolError, ServiceDriver, StepResult, TdsPool, TdsStep,
};
use tdsql_crypto::credential::{CredentialSigner, Role};
use tdsql_crypto::rng::{SeedableRng, StdRng};
use tdsql_crypto::{DetCipher, KeyRing, NDetCipher};
use tdsql_obs::Obs;
use tdsql_sql::engine::{execute, Database};
use tdsql_sql::parser::parse_query;
use tdsql_sql::value::{GroupKey, Value};

const SQL: &str = "SELECT city, COUNT(*) FROM health GROUP BY city";

#[test]
fn expired_credentials_yield_dummies_only() {
    let (dbs, oracle) = health_survey(&HealthConfig {
        n_tds: 15,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let expected = execute(&oracle, &query).unwrap().rows;

    let mut world = SimBuilder::new()
        .seed(840)
        .build(dbs, AccessPolicy::allow_all(Role::new("physician")));

    // A credential that expires immediately: by the time any TDS opens the
    // query the round clock has advanced past it.
    let stale = world.make_querier_expiring("agency", "physician", 0);
    let rows = world
        .run_query(&stale, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .unwrap();
    assert!(rows.is_empty(), "expired credential sees only dummies");

    // A long-lived credential works.
    let fresh = world.make_querier_expiring("agency", "physician", u64::MAX);
    let rows = world
        .run_query(&fresh, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .unwrap();
    assert_rows_eq(rows, expected, "valid credential");
}

#[test]
fn sealed_histogram_opens_on_another_tds() {
    // The discovered distribution is sealed under k2 by one TDS and any
    // other TDS can open it — what lets the "refreshed from time to time"
    // histogram travel through untrusted storage.
    let (dbs, _) = health_survey(&HealthConfig {
        n_tds: 20,
        ..Default::default()
    });
    let query = parse_query(SQL).unwrap();
    let mut world = SimBuilder::new()
        .seed(841)
        .build(dbs, AccessPolicy::allow_all(Role::new("physician")));

    let dist = discovery::discover_distribution(&mut world, &query).unwrap();
    let hist = Histogram::build(&dist, 2);

    // TDS 0 seals it into an opaque blob.
    let mut rng = tdsql_crypto::rng::SeedableRng::seed_from_u64(1);
    let sealed = world.tdss[0].seal_histogram(&hist, &mut rng);
    assert!(
        !sealed.windows(4).any(|w| w == b"city" || w == b"Memp"),
        "sealed histogram must not leak group names"
    );

    // TDS 7 opens it.
    let opened = world.tdss[7].open_histogram(&sealed).unwrap();
    assert_eq!(opened, hist);

    // And the opened histogram drives a correct ED_Hist run.
    let querier = world.make_querier("agency", "physician");
    let mut params = ProtocolParams::new(ProtocolKind::EdHist { buckets: 2 });
    params.histogram = Some(opened.into());
    let rows = world.run_query(&querier, &query, params).unwrap();
    let (_, oracle) = health_survey(&HealthConfig {
        n_tds: 20,
        ..Default::default()
    });
    assert_rows_eq(
        rows,
        execute(&oracle, &query).unwrap().rows,
        "sealed histogram run",
    );
}

// -- The pool's query-open cache cannot weaken a trust decision --------------

const METER_SQL: &str = "SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district";
const AUTHORITY: &[u8] = b"cache-test-authority";

fn meter_dbs(n_tds: usize) -> (Vec<Database>, Database) {
    smart_meters(&SmartMeterConfig {
        n_tds,
        districts: 3,
        readings_per_tds: 1,
        ..SmartMeterConfig::default()
    })
}

/// Smart-meter TDSs on one shared cipher context of `ring` (the sharing the
/// cache keys on), TDS `i` under `policies[i]`.
fn tdss_with(ring: &KeyRing, policies: &[AccessPolicy]) -> Vec<Tds> {
    let (dbs, _) = meter_dbs(policies.len());
    let ciphers = CipherContext::shared(ring);
    let key = CredentialSigner::new(AUTHORITY).verification_key();
    dbs.into_iter()
        .zip(policies)
        .enumerate()
        .map(|(i, (db, policy))| {
            Tds::with_ciphers(i as u64, Arc::clone(&ciphers), key, db, policy.clone())
        })
        .collect()
}

/// A supplier's S_Agg envelope for [`METER_SQL`], credential valid through
/// round `expires`.
fn supplier_envelope(ring: &KeyRing, expires: u64) -> QueryEnvelope {
    let credential = CredentialSigner::new(AUTHORITY).issue("energy-co", supplier(), expires);
    Querier::new("energy-co", &ring.k1, credential).make_envelope(
        &parse_query(METER_SQL).unwrap(),
        ProtocolKind::SAgg,
        &mut StdRng::seed_from_u64(0xe17),
    )
}

fn supplier() -> Role {
    Role::new("supplier")
}

fn collect(
    pool: &LocalTdsPool,
    index: usize,
    env: &QueryEnvelope,
    now_round: u64,
) -> Result<Vec<StoredTuple>, ProtocolError> {
    let params = ProtocolParams::new(ProtocolKind::SAgg);
    match pool.step(index, env, &params, now_round, TdsStep::Collect, &[], 7)? {
        StepResult::Working(tuples) => Ok(tuples),
        StepResult::Results(_) => panic!("collect returned result rows"),
    }
}

/// Did the TDS answer with its data (true) or with dummies only (false)?
/// Opens the tuples under `k2`, as the next TDS in the protocol would.
fn answered(ring: &KeyRing, tuples: &[StoredTuple]) -> bool {
    let k2 = NDetCipher::new(&ring.k2);
    tuples.iter().any(|t| {
        !AggInput::decode(&k2.decrypt(&t.blob).unwrap())
            .unwrap()
            .fake
    })
}

#[test]
fn warm_entry_does_not_outlive_the_credential() {
    let ring = KeyRing::derive(b"cache-ring");
    let pool = LocalTdsPool::new(Arc::new(tdss_with(
        &ring,
        &[
            AccessPolicy::allow_all(supplier()),
            AccessPolicy::allow_all(supplier()),
        ],
    )));
    let env = supplier_envelope(&ring, 5);
    // Round 5: valid. The first step fills the cache, the second hits it.
    assert!(answered(&ring, &collect(&pool, 0, &env, 5).unwrap()));
    assert!(answered(&ring, &collect(&pool, 1, &env, 5).unwrap()));
    // Round 6: the entry is warm, the credential is not.
    assert!(!answered(&ring, &collect(&pool, 0, &env, 6).unwrap()));
    assert!(!answered(&ring, &collect(&pool, 1, &env, 6).unwrap()));
    // And expiry is a function of the round, not a sticky state.
    assert!(answered(&ring, &collect(&pool, 0, &env, 5).unwrap()));
}

#[test]
fn tdss_sharing_the_cache_keep_their_own_policy() {
    let ring = KeyRing::derive(b"cache-ring");
    let pool = LocalTdsPool::new(Arc::new(tdss_with(
        &ring,
        &[
            AccessPolicy::allow_all(supplier()),
            AccessPolicy::deny_all(),
            AccessPolicy::allow_all(Role::new("physician")),
        ],
    )));
    let env = supplier_envelope(&ring, u64::MAX);
    for _ in 0..2 {
        assert!(answered(&ring, &collect(&pool, 0, &env, 0).unwrap()));
        assert!(!answered(&ring, &collect(&pool, 1, &env, 0).unwrap()));
        assert!(!answered(&ring, &collect(&pool, 2, &env, 0).unwrap()));
    }
}

#[test]
fn rekey_misses_the_old_ciphertext() {
    // A pool's population is immutable, so an epoch rotation is exercised on
    // the TDSs directly, sharing one cache the way a pool's steps do.
    let old = KeyRing::derive(b"epoch-0");
    let new = KeyRing::derive(b"epoch-1");
    let policies = vec![AccessPolicy::allow_all(supplier()); 3];
    let mut tdss = tdss_with(&old, &policies);
    let cache = QueryOpenCache::new();
    let params = Arc::new(ProtocolParams::new(ProtocolKind::SAgg));
    let open =
        |tds: &Tds, env: &QueryEnvelope| tds.open_query_cached(env, Arc::clone(&params), 0, &cache);
    let old_env = supplier_envelope(&old, u64::MAX);
    for tds in &tdss {
        assert!(open(tds, &old_env).unwrap().authorized);
    }
    tdss[0].rekey(&new);
    tdss[1].rekey_shared(CipherContext::shared(&new));
    // Rotated TDSs no longer open the old ciphertext, warm entry or not …
    for tds in &tdss[..2] {
        assert!(matches!(open(tds, &old_env), Err(ProtocolError::Crypto(_))));
    }
    // … the one still on the old epoch does, and the new epoch's envelope
    // opens only where the new keys are.
    assert!(open(&tdss[2], &old_env).unwrap().authorized);
    let new_env = supplier_envelope(&new, u64::MAX);
    assert!(open(&tdss[0], &new_env).unwrap().authorized);
    assert!(open(&tdss[1], &new_env).unwrap().authorized);
    assert!(matches!(
        open(&tdss[2], &new_env),
        Err(ProtocolError::Crypto(_))
    ));
}

#[test]
fn corrupted_envelope_fails_every_time_and_leaves_the_entry_intact() {
    let ring = KeyRing::derive(b"cache-ring");
    let pool = LocalTdsPool::new(Arc::new(tdss_with(
        &ring,
        &[AccessPolicy::allow_all(supplier())],
    )));
    let env = supplier_envelope(&ring, u64::MAX);
    let pristine = collect(&pool, 0, &env, 0).unwrap();
    // The driver's `corrupt_download` leg: one flipped ciphertext bit.
    let faults = FaultPlan::seeded(1).with_corruption(1.0);
    for attempt in 1..=3 {
        let mut bad = env.clone();
        bad.enc_query = faults.corrupt_blob(&env.enc_query, Phase::Collection, 0, attempt);
        assert_ne!(bad.enc_query, env.enc_query);
        for _ in 0..2 {
            assert!(matches!(
                collect(&pool, 0, &bad, 0),
                Err(ProtocolError::Crypto(_))
            ));
        }
    }
    assert_eq!(collect(&pool, 0, &env, 0).unwrap(), pristine);
}

#[test]
fn chaos_rejects_as_many_corruptions_warm_as_cold() {
    let ring = KeyRing::derive(b"cache-ring");
    let policies = vec![AccessPolicy::allow_all(supplier()); 24];
    let (_, oracle) = meter_dbs(policies.len());
    let query = parse_query(METER_SQL).unwrap();
    let credential = CredentialSigner::new(AUTHORITY).issue("energy-co", supplier(), u64::MAX);
    let querier = Querier::new("energy-co", &ring.k1, credential);
    let config = DriverConfig {
        seed: 0xc4a05,
        connectivity: Connectivity::always_on()
            .with_faults(FaultPlan::seeded(2).with_corruption(0.25)),
        ..DriverConfig::default()
    };
    // Same seed, same envelope ciphertext: the second run over `shared`
    // opens it warm, the run over a fresh pool opens it cold.
    let shared = LocalTdsPool::new(Arc::new(tdss_with(&ring, &policies)));
    let fresh = LocalTdsPool::new(Arc::new(tdss_with(&ring, &policies)));
    let mut rejected = Vec::new();
    for pool in [&shared, &shared, &fresh] {
        let ssi = Ssi::new();
        let obs = Arc::new(Obs::new(b"cache-chaos"));
        let mut driver = ServiceDriver::new(&ssi, pool, obs, config.clone()).unwrap();
        let mut params = ProtocolParams::new(ProtocolKind::SAgg);
        params.chunk = 4;
        let rows = driver.run_query(&querier, None, &query, params).unwrap();
        assert_rows_eq(rows, execute(&oracle, &query).unwrap().rows, "chaos run");
        rejected.push(driver.stats.faults.corrupt_rejected);
    }
    assert!(rejected[0] > 0, "the plan must inject corruption");
    assert_eq!(rejected, vec![rejected[0]; 3]);
}

// -- The open cache's noise-domain tags are a cache, not a tag scheme --------

/// A supplier's C_Noise envelope for [`METER_SQL`].
fn c_noise_envelope(ring: &KeyRing) -> QueryEnvelope {
    let credential = CredentialSigner::new(AUTHORITY).issue("energy-co", supplier(), u64::MAX);
    Querier::new("energy-co", &ring.k1, credential).make_envelope(
        &parse_query(METER_SQL).unwrap(),
        ProtocolKind::CNoise,
        &mut StdRng::seed_from_u64(0xc0),
    )
}

/// The districts `db` holds, keyed as the discovery returns them.
fn districts(db: &Database) -> Vec<GroupKey> {
    execute(db, &parse_query(METER_SQL).unwrap())
        .unwrap()
        .rows
        .iter()
        .map(|row| GroupKey::from_values(&row[..1]))
        .collect()
}

/// A district no TDS holds: only fakes ever carry it.
fn nowhere() -> GroupKey {
    GroupKey::from_values(&[Value::Str("district-nowhere".into())])
}

fn c_noise_params(domain: &[GroupKey]) -> ProtocolParams {
    let mut params = ProtocolParams::new(ProtocolKind::CNoise);
    params.noise_domain = domain.into();
    params
}

fn c_noise_collect(
    pool: &LocalTdsPool,
    index: usize,
    env: &QueryEnvelope,
    params: &ProtocolParams,
) -> Vec<StoredTuple> {
    match pool
        .step(index, env, params, 0, TdsStep::Collect, &[], 11)
        .unwrap()
    {
        StepResult::Working(tuples) => tuples,
        StepResult::Results(_) => panic!("collect returned result rows"),
    }
}

/// Each tuple's key (opened under `k2`, as a reducer would) and its tag,
/// which every C_Noise tuple carries.
fn keyed_tags(ring: &KeyRing, tuples: &[StoredTuple]) -> BTreeMap<GroupKey, Bytes> {
    let k2 = NDetCipher::new(&ring.k2);
    tuples
        .iter()
        .map(|t| {
            let key = AggInput::decode(&k2.decrypt(&t.blob).unwrap()).unwrap().key;
            match &t.tag {
                GroupTag::Det(tag) => (key, tag.clone()),
                other => panic!("C_Noise tuple tagged {other:?}"),
            }
        })
        .collect()
}

/// Every tag is `Det_Enc_k2(key)`, and one tuple per key of `expect`.
fn assert_det_tags(ring: &KeyRing, tags: &BTreeMap<GroupKey, Bytes>, expect: &[GroupKey]) {
    let det = DetCipher::new(&ring.k2);
    for (key, tag) in tags {
        assert_eq!(&tag[..], &det.encrypt(&key.0)[..], "tag of {key:?}");
    }
    let keys: BTreeSet<&GroupKey> = expect.iter().collect();
    assert_eq!(tags.keys().collect::<BTreeSet<_>>(), keys);
}

#[test]
fn memoized_domain_tags_are_det_enc_under_the_ring() {
    let ring = KeyRing::derive(b"tag-ring");
    let tdss = tdss_with(&ring, &vec![AccessPolicy::allow_all(supplier()); 3]);
    let (_, oracle) = meter_dbs(3);
    let mut domain = districts(&oracle);
    domain.push(nowhere());
    let pool = LocalTdsPool::new(Arc::new(tdss));
    let env = c_noise_envelope(&ring);
    let params = c_noise_params(&domain);
    // Every TDS sends each domain value once, true or fake, and every tag
    // is the memo's own bytes: the first TDS's, shared by the others.
    let mut first: BTreeMap<GroupKey, Bytes> = BTreeMap::new();
    for index in 0..3 {
        let tags = keyed_tags(&ring, &c_noise_collect(&pool, index, &env, &params));
        assert_det_tags(&ring, &tags, &domain);
        for (key, tag) in tags {
            let shared = first.entry(key).or_insert_with(|| tag.clone());
            assert_eq!(
                shared.as_ptr(),
                tag.as_ptr(),
                "TDS {index} derived its own tag"
            );
        }
    }
}

#[test]
fn one_envelope_gets_each_domains_tags_and_a_wire_copy_reuses_them() {
    let ring = KeyRing::derive(b"tag-ring");
    let tdss = tdss_with(&ring, &vec![AccessPolicy::allow_all(supplier()); 3]);
    let held: Vec<GroupKey> = tdss.iter().map(|t| districts(t.db())[0].clone()).collect();
    let (_, oracle) = meter_dbs(3);
    let mut wide = districts(&oracle);
    wide.push(nowhere());
    let narrow = vec![nowhere(), GroupKey::from_values(&[Value::Int(7)])];
    let pool = LocalTdsPool::new(Arc::new(tdss));
    let env = c_noise_envelope(&ring);
    let with_held = |domain: &[GroupKey], index: usize| {
        let mut keys = domain.to_vec();
        keys.push(held[index].clone());
        keys
    };

    let wide_params = c_noise_params(&wide);
    let before = keyed_tags(&ring, &c_noise_collect(&pool, 0, &env, &wide_params));
    assert_det_tags(&ring, &before, &wide);
    // Params decoded off the wire: equal domain, fresh `Arc`. The memo is
    // reused, so the tags are the same allocations.
    let wire_params = c_noise_params(&wide);
    let wire = keyed_tags(&ring, &c_noise_collect(&pool, 1, &env, &wire_params));
    for (key, tag) in &wire {
        assert_eq!(tag.as_ptr(), before[key].as_ptr(), "{key:?} derived again");
    }
    // The same envelope with another domain gets that domain's tags, from
    // a memo derived for that domain and shared again …
    let narrow_params = c_noise_params(&narrow);
    let first = keyed_tags(&ring, &c_noise_collect(&pool, 2, &env, &narrow_params));
    assert_det_tags(&ring, &first, &with_held(&narrow, 2));
    let second = keyed_tags(&ring, &c_noise_collect(&pool, 1, &env, &narrow_params));
    assert_det_tags(&ring, &second, &with_held(&narrow, 1));
    for key in &narrow {
        assert_eq!(
            first[key].as_ptr(),
            second[key].as_ptr(),
            "{key:?} derived again"
        );
    }
    // … and the first domain's come back right after it.
    let again = keyed_tags(&ring, &c_noise_collect(&pool, 0, &env, &wide_params));
    assert_det_tags(&ring, &again, &wide);
}

#[test]
fn a_held_key_outside_the_domain_is_tagged_as_without_the_cache() {
    let ring = KeyRing::derive(b"tag-ring");
    let tdss = tdss_with(&ring, &vec![AccessPolicy::allow_all(supplier()); 3]);
    let missed = districts(tdss[0].db())[0].clone();
    let (_, oracle) = meter_dbs(3);
    let mut domain: Vec<GroupKey> = districts(&oracle)
        .into_iter()
        .filter(|k| *k != missed)
        .collect();
    domain.push(nowhere());
    let params = Arc::new(c_noise_params(&domain));
    let env = c_noise_envelope(&ring);
    let cache = QueryOpenCache::new();
    let det = DetCipher::new(&ring.k2);

    let mut cached_all = Vec::new();
    let mut plain_all = Vec::new();
    for tds in &tdss {
        let cached = tds
            .open_query_cached(&env, Arc::clone(&params), 0, &cache)
            .unwrap();
        let plain = tds.open_query(&env, (*params).clone(), 0).unwrap();
        let seed = 40 + tds.id;
        let from_cache = tds
            .collect(&cached, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let uncached = tds
            .collect(&plain, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        assert_eq!(from_cache, uncached, "TDS {} collect", tds.id);
        cached_all.extend(from_cache);
        plain_all.extend(uncached);
    }
    let tags = keyed_tags(&ring, &cached_all[..domain.len() + 1]);
    assert_eq!(&tags[&missed][..], &det.encrypt(&missed.0)[..]);

    // The reduce step retags per group, the missed key among them.
    let cached = tdss[1]
        .open_query_cached(&env, Arc::clone(&params), 0, &cache)
        .unwrap();
    let plain = tdss[1].open_query(&env, (*params).clone(), 0).unwrap();
    let reduce = |ctx, partition: &[StoredTuple]| {
        tdss[1]
            .reduce_inputs(
                ctx,
                partition,
                RetagMode::DetPerGroup,
                &mut StdRng::seed_from_u64(5),
            )
            .unwrap()
    };
    let from_cache = reduce(&cached, &cached_all);
    assert_eq!(from_cache, reduce(&plain, &plain_all));
    let missed_tag = GroupTag::Det(Bytes::from(det.encrypt(&missed.0)));
    assert!(from_cache.iter().any(|t| t.tag == missed_tag));
}
