//! Security properties asserted on the SSI's observation log — what an
//! honest-but-curious server actually gets to see during each protocol.

mod common;

use std::collections::BTreeMap;

use tdsql_core::access::AccessPolicy;
use tdsql_core::leakage::TagForm;
use tdsql_core::message::GroupTag;
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::runtime::{SimBuilder, SimWorld};
use tdsql_core::stats::Phase;
use tdsql_core::workload::{smart_meters, Skew, SmartMeterConfig};
use tdsql_crypto::credential::Role;
use tdsql_sql::parser::parse_query;

const SQL: &str = "SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district";

fn skewed_world(seed: u64) -> Vec<tdsql_sql::engine::Database> {
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 120,
        districts: 6,
        skew: Skew::Zipf(1.3),
        readings_per_tds: 1,
        ..Default::default()
    });
    let _ = seed;
    dbs
}

fn run(kind: ProtocolKind, seed: u64) -> SimWorld {
    let mut world = SimBuilder::new().seed(seed).build(
        skewed_world(seed),
        AccessPolicy::allow_all(Role::new("supplier")),
    );
    let querier = world.make_querier("energy-co", "supplier");
    let query = parse_query(SQL).unwrap();
    world
        .run_query(&querier, &query, ProtocolParams::new(kind))
        .unwrap();
    world
}

/// Tag frequencies observed during the collection phase of the *target*
/// query (the last one posted — discovery sub-queries come first).
fn collection_tag_counts(world: &SimWorld) -> BTreeMap<GroupTag, u64> {
    let target = world
        .ssi
        .observations()
        .iter()
        .map(|o| o.query_id)
        .max()
        .unwrap_or(0);
    let mut counts = BTreeMap::new();
    for obs in &world.ssi.observations() {
        if obs.phase == Phase::Collection && obs.query_id == target {
            *counts.entry(obs.tag.clone()).or_default() += 1;
        }
    }
    counts
}

fn skew_ratio(counts: &BTreeMap<GroupTag, u64>) -> f64 {
    let max = *counts.values().max().unwrap() as f64;
    let min = *counts.values().min().unwrap() as f64;
    max / min.max(1.0)
}

#[test]
fn s_agg_reveals_no_tags_and_no_repeats() {
    let world = run(ProtocolKind::SAgg, 200);
    let mut digests = std::collections::HashSet::new();
    let mut n_collection = 0;
    for obs in &world.ssi.observations() {
        assert_eq!(obs.tag, GroupTag::None, "S_Agg must not tag anything");
        if obs.phase == Phase::Collection {
            n_collection += 1;
            assert!(
                digests.insert(obs.blob_digest),
                "two identical ciphertexts would enable frequency counting"
            );
        }
    }
    assert!(n_collection >= 120, "every TDS contributed");
}

#[test]
fn collection_payloads_are_size_uniform() {
    // Dummy/fake tuples are indistinguishable by size.
    for kind in [
        ProtocolKind::SAgg,
        ProtocolKind::RnfNoise { nf: 3 },
        ProtocolKind::CNoise,
        ProtocolKind::EdHist { buckets: 3 },
    ] {
        let world = run(kind, 201);
        let target = world
            .ssi
            .observations()
            .iter()
            .map(|o| o.query_id)
            .max()
            .unwrap();
        let sizes: std::collections::BTreeSet<usize> = world
            .ssi
            .observations()
            .iter()
            .filter(|o| o.phase == Phase::Collection && o.query_id == target)
            .map(|o| o.blob_len)
            .collect();
        assert_eq!(
            sizes.len(),
            1,
            "{}: collection sizes {sizes:?}",
            kind.name()
        );
    }
}

#[test]
fn raised_pad_keeps_long_group_values_uniform() {
    // Group values longer than the default pad would make true tuples
    // oversized relative to dummies; raising `pad` restores uniformity.
    use tdsql_sql::engine::Database;
    use tdsql_sql::schema::{Column, TableSchema};
    use tdsql_sql::value::{DataType, Value};
    let schema = TableSchema::new(
        "t",
        vec![
            Column::new("label", DataType::Str),
            Column::new("v", DataType::Int),
        ],
    );
    let dbs: Vec<Database> = (0..30)
        .map(|i| {
            let mut db = Database::new();
            db.create_table(schema.clone());
            // 80-byte labels exceed the default 64-byte pad.
            db.insert(
                "t",
                vec![
                    Value::Str(format!("group-{}-{}", i % 3, "x".repeat(80))),
                    Value::Int(i),
                ],
            )
            .unwrap();
            db
        })
        .collect();
    let mut world = SimBuilder::new()
        .seed(209)
        .build(dbs, AccessPolicy::allow_all(Role::new("r")));
    let querier = world.make_querier("q", "r");
    let query = parse_query("SELECT label, COUNT(*) FROM t GROUP BY label").unwrap();
    let mut params = ProtocolParams::new(ProtocolKind::SAgg);
    params.pad = 256;
    world.run_query(&querier, &query, params).unwrap();
    let sizes: std::collections::BTreeSet<usize> = world
        .ssi
        .observations()
        .iter()
        .filter(|o| o.phase == Phase::Collection)
        .map(|o| o.blob_len)
        .collect();
    assert_eq!(sizes.len(), 1, "raised pad restores uniformity: {sizes:?}");
}

#[test]
fn det_without_noise_exposes_the_distribution() {
    // Ablation: Rnf_Noise with nf = 0 degenerates to bare Det_Enc; the SSI
    // sees the true (skewed) group distribution. This is the leak the noise
    // protocols exist to fix.
    let world = run(ProtocolKind::RnfNoise { nf: 0 }, 202);
    let counts = collection_tag_counts(&world);
    assert!(counts.len() >= 5, "one Det tag per district");
    assert!(
        skew_ratio(&counts) > 3.0,
        "Zipf skew should be visible: {counts:?}"
    );
}

#[test]
fn heavy_noise_flattens_the_distribution() {
    let bare = run(ProtocolKind::RnfNoise { nf: 0 }, 203);
    let noisy = run(ProtocolKind::RnfNoise { nf: 20 }, 203);
    let bare_skew = skew_ratio(&collection_tag_counts(&bare));
    let noisy_skew = skew_ratio(&collection_tag_counts(&noisy));
    assert!(
        noisy_skew < bare_skew / 2.0,
        "noise must hide the skew: bare {bare_skew:.2} vs noisy {noisy_skew:.2}"
    );
}

#[test]
fn c_noise_is_flat_by_construction() {
    let world = run(ProtocolKind::CNoise, 204);
    let counts = collection_tag_counts(&world);
    // Every TDS sends exactly one tuple per domain value → perfectly flat.
    let values: std::collections::BTreeSet<u64> = counts.values().copied().collect();
    assert_eq!(
        values.len(),
        1,
        "C_Noise tag counts must be identical: {counts:?}"
    );
}

#[test]
fn ed_hist_bucket_tags_are_near_uniform() {
    let world = run(ProtocolKind::EdHist { buckets: 3 }, 205);
    let counts = collection_tag_counts(&world);
    assert!(
        counts.len() <= 3 + 1,
        "at most `buckets` distinct tags (+dummy)"
    );
    // The flattening is bounded by the Zipf head (one district can exceed
    // the equi-depth target on its own), so assert a *relative* improvement
    // over the bare-Det view rather than perfect uniformity.
    let bare = run(ProtocolKind::RnfNoise { nf: 0 }, 205);
    let true_skew = skew_ratio(&collection_tag_counts(&bare));
    let bucket_skew = skew_ratio(&counts);
    assert!(
        bucket_skew < true_skew * 0.8,
        "buckets must flatten the skew: {bucket_skew:.2} vs true {true_skew:.2} ({counts:?})"
    );
    for tag in counts.keys() {
        assert!(
            matches!(tag, GroupTag::Bucket(_)),
            "ED_Hist tags are bucket hashes"
        );
    }
}

#[test]
fn observed_blobs_never_contain_plaintext_markers() {
    // Defense in depth: the observation digests/lengths are all the SSI
    // keeps, but also check the stored blob bytes of a fresh run for the
    // district strings (they are inside nDet ciphertexts, so a match would
    // mean a catastrophic encryption bug).
    let mut world = SimBuilder::new().seed(206).build(
        skewed_world(206),
        AccessPolicy::allow_all(Role::new("supplier")),
    );
    let querier = world.make_querier("energy-co", "supplier");
    let query = parse_query(SQL).unwrap();
    // Post + collect manually so the working set stays inspectable.
    world
        .run_query(&querier, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .unwrap();
    let needle = b"district-";
    for obs in &world.ssi.observations() {
        // Observations only carry digests; lengths must not leak either:
        // every collection payload has the same padded size (checked above).
        let _ = obs;
    }
    // Envelope ciphertext must not contain the SQL keyword bytes.
    let env = world.ssi.envelope(0).unwrap();
    let blob = &env.enc_query;
    assert!(
        !blob.windows(needle.len()).any(|w| w == needle),
        "query ciphertext leaked plaintext"
    );
    assert!(
        !blob.windows(6).any(|w| w == b"SELECT"),
        "query ciphertext leaked SQL"
    );
}

#[test]
fn querier_and_ssi_collusion_gains_nothing_beyond_result() {
    // Even holding k1 (the querier's key), the colluder cannot open any
    // intermediate tuple: they are all under k2.
    let mut world = SimBuilder::new().seed(207).build(
        skewed_world(207),
        AccessPolicy::allow_all(Role::new("supplier")),
    );
    let querier = world.make_querier("energy-co", "supplier");
    let query = parse_query(SQL).unwrap();
    world
        .run_query(&querier, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .unwrap();
    let k1 = tdsql_crypto::NDetCipher::new(&world.ring().k1);
    // Replay: re-run collection to capture fresh collection tuples.
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 3,
        districts: 2,
        ..Default::default()
    });
    let world2 = SimBuilder::new()
        .seed(208)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier2 = world2.make_querier("energy-co", "supplier");
    let env = querier2.make_envelope(
        &query,
        ProtocolKind::SAgg,
        &mut tdsql_crypto::rng::SeedableRng::seed_from_u64(1),
    );
    let ctx = world2.tdss[0]
        .open_query(&env, ProtocolParams::new(ProtocolKind::SAgg), 0)
        .unwrap();
    let mut rng = tdsql_crypto::rng::SeedableRng::seed_from_u64(2);
    let tuples = world2.tdss[0].collect(&ctx, &mut rng).unwrap();
    for t in tuples {
        assert!(k1.decrypt(&t.blob).is_err(), "k1 must not open k2 material");
    }
}

#[test]
fn heterogeneous_policies_partition_the_population() {
    // Half the consumers opted out (their policy denies the supplier):
    // they still answer — with dummies — and the aggregate covers only the
    // opt-ins, without the SSI or the querier learning who is who.
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 20,
        districts: 2,
        readings_per_tds: 1,
        ..Default::default()
    });
    let n = dbs.len();
    let policies: Vec<AccessPolicy> = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                AccessPolicy::allow_all(Role::new("supplier"))
            } else {
                AccessPolicy::deny_all()
            }
        })
        .collect();
    let mut world = SimBuilder::new()
        .seed(832)
        .build_with_policies(dbs, policies);
    let querier = world.make_querier("energy-co", "supplier");
    let query = parse_query("SELECT COUNT(*) FROM consumer").unwrap();
    let rows = world
        .run_query(&querier, &query, ProtocolParams::new(ProtocolKind::SAgg))
        .unwrap();
    assert_eq!(
        rows,
        vec![vec![tdsql_sql::value::Value::Int((n / 2) as i64)]]
    );
    // Everyone participated in collection regardless of policy.
    assert_eq!(
        world.stats.phase(Phase::Collection).participating_tds(),
        n,
        "opt-outs are indistinguishable at the SSI"
    );
}

// -- View equality (Arasu & Kaushik, arXiv 1312.4012) ------------------------
//
// Two populations share every public parameter (TDS count, districts,
// readings per TDS, skew) and differ in their contents. Under one world
// seed the SSI's view of the target query must be the same for both, up
// to what the protocol declares: a difference the SSI can see is a
// difference it can learn the contents from.
//
// R1000_Noise is not asserted: its aggregation phase partitions by Det tag,
// so its partial count follows the per-tag collection counts (60 vs 58 for
// the grouped COUNT(*) under uniform skew) — which its declared Det tags
// already expose.

const VIEW_SQLS: [&str; 2] = [
    SQL,
    "SELECT c.district, SUM(p.cons) FROM power p, consumer c \
     WHERE c.cid = p.cid GROUP BY c.district",
];
const VIEW_WORLD_SEED: u64 = 210;
/// Generator seeds of the two populations.
const VIEW_DATA_SEEDS: [u64; 2] = [7, 8];

fn view_world(kind: ProtocolKind, skew: Skew, data_seed: u64, sql: &str) -> SimWorld {
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 40,
        districts: 4,
        skew,
        readings_per_tds: 2,
        seed: data_seed,
        ..Default::default()
    });
    let mut world = SimBuilder::new()
        .seed(VIEW_WORLD_SEED)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    world
        .run_query(
            &querier,
            &parse_query(sql).unwrap(),
            ProtocolParams::new(kind),
        )
        .unwrap();
    world
}

/// The target query's observations, in arrival order.
fn target_observations(world: &SimWorld) -> Vec<tdsql_core::message::Observation> {
    let log = world.ssi.observations();
    let target = log.iter().map(|o| o.query_id).max().unwrap();
    log.into_iter().filter(|o| o.query_id == target).collect()
}

/// The public shape of the target query's view: per phase, the sequence of
/// (tag form, ciphertext length).
fn shape_view(world: &SimWorld) -> BTreeMap<Phase, Vec<(TagForm, usize)>> {
    let mut view: BTreeMap<Phase, Vec<(TagForm, usize)>> = BTreeMap::new();
    for o in target_observations(world) {
        view.entry(o.phase)
            .or_default()
            .push((TagForm::of(&o.tag), o.blob_len));
    }
    view
}

/// Which observations of the target query carry equal tags: each tag is
/// replaced by the index of its first occurrence.
fn tag_pattern(world: &SimWorld) -> Vec<(Phase, usize)> {
    let mut seen: Vec<GroupTag> = Vec::new();
    target_observations(world)
        .into_iter()
        .map(|o| {
            let index = seen.iter().position(|t| *t == o.tag).unwrap_or_else(|| {
                seen.push(o.tag.clone());
                seen.len() - 1
            });
            (o.phase, index)
        })
        .collect()
}

/// The target query's collection tag frequencies, as a sorted multiset.
fn tag_frequencies(world: &SimWorld) -> Vec<u64> {
    let mut counts: Vec<u64> = collection_tag_counts(world).into_values().collect();
    counts.sort_unstable();
    counts
}

/// Run `kind` on both populations for every skew and query.
fn view_pairs(kind: ProtocolKind) -> Vec<(String, SimWorld, SimWorld)> {
    let mut pairs = Vec::new();
    for skew in [Skew::Uniform, Skew::Zipf(1.3)] {
        for sql in VIEW_SQLS {
            let [a, b] = VIEW_DATA_SEEDS.map(|seed| view_world(kind, skew, seed, sql));
            pairs.push((format!("{} {skew:?} `{sql}`", kind.name()), a, b));
        }
    }
    pairs
}

#[test]
fn views_are_equal_across_populations_of_one_shape() {
    for kind in [
        ProtocolKind::SAgg,
        ProtocolKind::CNoise,
        ProtocolKind::RnfNoise { nf: 2 },
        ProtocolKind::EdHist { buckets: 2 },
    ] {
        for (case, a, b) in view_pairs(kind) {
            let view = shape_view(&a);
            assert!(view.contains_key(&Phase::Collection), "{case}: no view");
            assert_eq!(view, shape_view(&b), "{case}: views differ");
        }
    }
}

#[test]
fn declared_tag_structure_is_equal_across_populations() {
    // S_Agg shows no tags, so which observations share one is fixed too.
    for (case, a, b) in view_pairs(ProtocolKind::SAgg) {
        assert_eq!(tag_pattern(&a), tag_pattern(&b), "{case}");
    }
    // C_Noise sends one tuple per district from every TDS that holds one
    // row: flat counts, whatever the contents. (The join query is left
    // out: a TDS with two readings sends two tuples under its own tag and
    // one fake under each other tag, so the counts read 40 plus the
    // district sizes — see ROADMAP's C_Noise item.)
    for skew in [Skew::Uniform, Skew::Zipf(1.3)] {
        for seed in VIEW_DATA_SEEDS {
            let world = view_world(ProtocolKind::CNoise, skew, seed, SQL);
            assert_eq!(tag_frequencies(&world), vec![40; 4], "{skew:?} seed {seed}");
        }
    }
}

#[test]
fn bare_det_view_differs_across_populations() {
    // Negative control: the nf = 0 ablation tags every tuple with its
    // district, so the frequency multiset is the contents' histogram.
    let [a, b] = VIEW_DATA_SEEDS
        .map(|seed| view_world(ProtocolKind::RnfNoise { nf: 0 }, Skew::Zipf(1.3), seed, SQL));
    let (fa, fb) = (tag_frequencies(&a), tag_frequencies(&b));
    assert_eq!(fa.iter().sum::<u64>(), 40);
    assert_ne!(fa, fb, "bare Det tags must expose the contents");
    assert_eq!((fa, fb), (vec![4, 4, 7, 25], vec![4, 6, 8, 22]));
}
