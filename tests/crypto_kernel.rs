//! Property tests for the batched crypto kernel and the arena collection
//! path.
//!
//! Two families of invariants:
//!
//! * the fast paths are *transparent* — `encrypt_into`/`seal_into`-style
//!   arena variants produce byte-identical output to the allocating
//!   originals, and the hardware (AES-NI) block cipher produces
//!   byte-identical output to the portable software implementation,
//!   including across every 32/64/96-bit counter-carry boundary the CTR
//!   rewrite now propagates;
//! * the sharded runtime built on top of them stays schedule-independent —
//!   chaos seeds 0–3 produce byte-identical sealed blobs at 1 and 8
//!   workers.

use tdsql_core::access::AccessPolicy;
use tdsql_core::arena::TupleArena;
use tdsql_core::protocol::ProtocolKind;
use tdsql_core::runtime::SimBuilder;
use tdsql_core::workload::{smart_meters, SmartMeterConfig};
use tdsql_crypto::aes::{aes_backend, Aes128, AesBackend, BLOCK_SIZE};
use tdsql_crypto::rng::{SeedableRng, StdRng};
use tdsql_crypto::{ctr, DetCipher, KeyRing, NDetCipher};
use tdsql_sql::parser::parse_query;

/// Message lengths exercising every path split: empty, sub-block, exact
/// block ±1, a multi-stripe buffer, and a 1 MiB body (many stripes).
const LENS: [usize; 7] = [0, 1, 15, 16, 17, 4096, 1 << 20];

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

#[test]
fn ndet_encrypt_into_matches_encrypt_across_lengths() {
    let ring = KeyRing::derive(b"kernel-prop");
    let cipher = NDetCipher::new(&ring.k2);
    for (i, &len) in LENS.iter().enumerate() {
        let plain = pattern(len, i as u8);
        let mut rng_a = StdRng::seed_from_u64(1000 + i as u64);
        let mut rng_b = rng_a.clone();
        let vec_path = cipher.encrypt(&mut rng_a, &plain);
        // `encrypt_into` appends (arena semantics): bytes already in the
        // buffer must survive untouched, the suffix must match the Vec path.
        let mut arena_path = vec![0xAA; 7];
        cipher.encrypt_into(&mut rng_b, &plain, &mut arena_path);
        assert_eq!(&arena_path[..7], &[0xAA; 7], "len {len}: prefix clobbered");
        assert_eq!(vec_path, arena_path[7..], "len {len}");
        assert_eq!(
            cipher.decrypt(&arena_path[7..]).unwrap(),
            plain,
            "len {len}"
        );
    }
}

#[test]
fn det_encrypt_into_matches_encrypt_across_lengths() {
    let ring = KeyRing::derive(b"kernel-prop");
    let cipher = DetCipher::new(&ring.k2);
    for (i, &len) in LENS.iter().enumerate() {
        let plain = pattern(len, 0x40 ^ i as u8);
        let vec_path = cipher.encrypt(&plain);
        let mut arena_path = vec![0x55; 3];
        cipher.encrypt_into(&plain, &mut arena_path);
        assert_eq!(&arena_path[..3], &[0x55; 3], "len {len}: prefix clobbered");
        assert_eq!(vec_path, arena_path[3..], "len {len}");
        assert_eq!(
            cipher.decrypt(&arena_path[3..]).unwrap(),
            plain,
            "len {len}"
        );
    }
}

#[test]
fn batched_blocks_match_software_backend() {
    let aes = Aes128::new(b"kernel-prop-key!");
    // Lengths that cover partial stripes, full stripes, and the 8-lane
    // AES-NI inner loop's remainder handling (1..=9, 31..=33 blocks).
    for nblocks in (1..=9).chain(31..=33).chain([128]) {
        let mut hw = pattern(nblocks * BLOCK_SIZE, 0x7f);
        let mut soft = hw.clone();
        aes.encrypt_blocks(&mut hw);
        aes.encrypt_blocks_soft(&mut soft);
        assert_eq!(
            hw,
            soft,
            "dispatch backend {} diverges from software at {nblocks} blocks",
            aes_backend()
        );
    }
}

/// Per-block software CTR reference: block *i* XORs with
/// `E_soft(iv + i mod 2^128)`, big-endian. [`ctr::apply_keystream`] (striped,
/// possibly hardware) must agree byte for byte, whatever carries the counter
/// walk crosses.
fn reference_keystream(aes: &Aes128, iv: &[u8; BLOCK_SIZE], data: &mut [u8]) {
    let base = u128::from_be_bytes(*iv);
    for (i, chunk) in data.chunks_mut(BLOCK_SIZE).enumerate() {
        let mut block = base.wrapping_add(i as u128).to_be_bytes();
        let mut one = block;
        aes.encrypt_blocks_soft(&mut one);
        block.copy_from_slice(&one);
        for (b, k) in chunk.iter_mut().zip(block.iter()) {
            *b ^= k;
        }
    }
}

#[test]
fn keystream_matches_blockwise_reference_at_carry_boundaries() {
    let aes = Aes128::new(b"carry-prop-key!!");
    // IVs placed so the 100-block message walks the counter across every
    // word-carry boundary: low-32 wrap, low-64 wrap, low-96 wrap, full
    // 128-bit wrap, plus an unremarkable midrange base.
    let bases: [u128; 5] = [
        0x0102_0304_0506_0708_0000_0000_ffff_fffd,
        0x0102_0304_0506_0708_ffff_ffff_ffff_fffd,
        0x0102_0304_ffff_ffff_ffff_ffff_ffff_fffd,
        u128::MAX - 2,
        0x0123_4567_89ab_cdef_0011_2233_4455_6677,
    ];
    for (i, base) in bases.into_iter().enumerate() {
        let iv = base.to_be_bytes();
        // 100 blocks + a ragged 7-byte tail.
        let mut got = pattern(100 * BLOCK_SIZE + 7, i as u8);
        let mut want = got.clone();
        ctr::apply_keystream(&aes, &iv, &mut got);
        reference_keystream(&aes, &iv, &mut want);
        assert_eq!(got, want, "carry case {i} (iv base {base:#034x})");
    }
}

#[test]
fn hardware_backend_is_detected_or_forced_off() {
    // Informational pin: under TDSQL_SOFT_CRYPTO the dispatch must report
    // Software; otherwise whatever CPUID found. Either way the equivalence
    // tests above already proved the dispatch target's bytes.
    let forced = std::env::var_os("TDSQL_SOFT_CRYPTO").is_some_and(|v| !v.is_empty() && v != "0");
    if forced {
        assert_eq!(aes_backend(), AesBackend::Software);
    }
}

/// The arena collection path (shared buffer, batched flush) must be
/// byte-identical to the allocating `collect` path for all five protocols,
/// given the same per-item RNG state.
#[test]
fn collect_into_arena_matches_collect_for_all_protocols() {
    const SFW: &str = "SELECT c.cid FROM consumer c WHERE c.accomodation = 'apartment'";
    const AGG: &str = "SELECT c.district, COUNT(*), AVG(c.cid) FROM consumer c GROUP BY c.district";
    let cases = [
        (ProtocolKind::Basic, SFW),
        (ProtocolKind::SAgg, AGG),
        (ProtocolKind::RnfNoise { nf: 2 }, AGG),
        (ProtocolKind::CNoise, AGG),
        (ProtocolKind::EdHist { buckets: 2 }, AGG),
    ];
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 12,
        districts: 3,
        readings_per_tds: 1,
        ..Default::default()
    });
    for (kind, sql) in cases {
        let query = parse_query(sql).unwrap();
        let mut world = SimBuilder::new()
            .seed(0xa3e7a)
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("energy-co", "supplier");
        let params = world.prepare_params(&query, kind).unwrap();
        let mut env_rng = StdRng::seed_from_u64(42);
        let envelope = querier.make_envelope(&query, params.kind, &mut env_rng);

        let mut arena = TupleArena::with_capacity(1 << 12);
        let mut flat = Vec::new();
        let mut nested = Vec::new();
        for (i, tds) in world.tdss.iter().enumerate() {
            let ctx = tds.open_query(&envelope, params.clone(), 0).unwrap();
            let mut rng_a = StdRng::seed_from_u64(0x9000 + i as u64);
            let mut rng_b = rng_a.clone();
            nested.extend(tds.collect(&ctx, &mut rng_a).unwrap());
            arena.begin_item();
            tds.collect_into(&ctx, &mut rng_b, &mut arena).unwrap();
            // Flush mid-population to cover multi-batch draining too.
            if i == 5 {
                flat.extend(arena.drain_flat());
            }
        }
        flat.extend(arena.drain_flat());
        assert_eq!(
            nested.len(),
            flat.len(),
            "{}: tuple counts diverge",
            kind.name()
        );
        for (a, b) in nested.iter().zip(flat.iter()) {
            assert_eq!(a.tag, b.tag, "{}: group tags diverge", kind.name());
            assert_eq!(
                a.blob.as_ref(),
                b.blob.as_ref(),
                "{}: sealed bytes diverge",
                kind.name()
            );
        }
    }
}

use tdsql_core::connectivity::FaultPlan;
use tdsql_core::plan::PhasePlan;
use tdsql_core::runtime::threaded::{run_plan_threaded_with, FaultConfig};
use tdsql_crypto::credential::Role;

/// Chaos seeds 0–3: sealed result blobs must be byte-identical at 1 and 8
/// workers even with faults injected — the arena flush batching must not
/// introduce any worker-count-dependent ordering.
#[test]
fn chaos_seeds_byte_identical_across_worker_counts() {
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds: 20,
        districts: 3,
        readings_per_tds: 1,
        ..Default::default()
    });
    let query =
        parse_query("SELECT c.district, COUNT(*), AVG(c.cid) FROM consumer c GROUP BY c.district")
            .unwrap();
    for case in 0u64..4 {
        let mut world = SimBuilder::new()
            .seed(0xbeef ^ case)
            .build(dbs.clone(), AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("energy-co", "supplier");
        let params = world.prepare_params(&query, ProtocolKind::SAgg).unwrap();
        let plan = PhasePlan::compile(&query, &params);
        let cfg = FaultConfig {
            faults: FaultPlan::seeded(case)
                .with_loss(0.05)
                .with_duplication(0.05),
            retry_budget: 24,
            degrade: false,
        };
        let reference =
            run_plan_threaded_with(&world.tdss, &querier, &query, &params, &plan, 1, &cfg);
        let sharded =
            run_plan_threaded_with(&world.tdss, &querier, &query, &params, &plan, 8, &cfg);
        match (reference, sharded) {
            (Ok((ref_blobs, _)), Ok((blobs, _))) => assert_eq!(
                blobs, ref_blobs,
                "chaos seed {case}: 8-worker blobs differ from the 1-worker reference"
            ),
            (Err(_), Err(_)) => {}
            (r, s) => panic!(
                "chaos seed {case}: abort decision is worker-count dependent \
                 (1w ok={}, 8w ok={})",
                r.is_ok(),
                s.is_ok()
            ),
        }
    }
}
