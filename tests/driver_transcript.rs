//! The driver's transcript is pinned, fault leg by fault leg.
//!
//! Each case runs one query through `SimWorld` and folds everything the run
//! leaves behind into one FNV-1a digest: the rows (or the error), the full
//! per-phase `RunStats` with every fault counter, the round clock, the
//! SSI's observation log (tag, length and ciphertext digest of every stored
//! tuple, so a changed item id, attempt number or delivery order shows up
//! as different nonces) and the exported trace. The digests were recorded
//! from a known-good build; a refactor of the at-least-once path must
//! reproduce every one of them. A change that moves one on purpose prints
//! the new value in the failure message.

use tdsql_core::access::AccessPolicy;
use tdsql_core::connectivity::{Connectivity, FaultPlan};
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_core::runtime::SimBuilder;
use tdsql_core::stats::{FaultStats, Phase};
use tdsql_core::workload::{smart_meters, SmartMeterConfig};
use tdsql_crypto::credential::Role;
use tdsql_sql::parser::parse_query;

const SQL: &str = "SELECT c.district, COUNT(*), SUM(p.cons) FROM power p, consumer c \
                   WHERE c.cid = p.cid GROUP BY c.district";
const SFW_SQL: &str = "SELECT p.cid, p.cons FROM power p WHERE p.cons >= 0";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What a case is checked on: the digest, plus enough to show the case
/// reaches the leg it is named for.
struct Run {
    digest: u64,
    faults: FaultStats,
    reassigned: u64,
    error: Option<String>,
    partial: bool,
}

/// Run `sql` under `kind` on a seeded 20-TDS world and digest the run.
fn transcript(kind: ProtocolKind, sql: &str, connectivity: Connectivity, budget: u32) -> Run {
    transcript_at(20, 4, kind, sql, connectivity, budget)
}

/// [`transcript`] over `n_tds` TDSs, partitioned `chunk` tuples at a time.
fn transcript_at(
    n_tds: usize,
    chunk: usize,
    kind: ProtocolKind,
    sql: &str,
    connectivity: Connectivity,
    budget: u32,
) -> Run {
    let (dbs, _) = smart_meters(&SmartMeterConfig {
        n_tds,
        districts: 3,
        readings_per_tds: 2,
        ..Default::default()
    });
    let mut world = SimBuilder::new()
        .seed(0x7a5c)
        .retry_budget(budget)
        .connectivity(connectivity)
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
    let querier = world.make_querier("energy-co", "supplier");
    let mut params = ProtocolParams::new(kind);
    params.chunk = chunk;
    params.alpha = 2;
    let outcome = world
        .run_query(&querier, &parse_query(sql).unwrap(), params)
        .map_err(|e| e.to_string());
    let stats = &world.stats;
    let phases: Vec<_> = Phase::ALL
        .iter()
        .map(|&p| format!("{:?}", stats.phase(p)))
        .collect();
    let text = format!(
        "{outcome:?}\n{phases:?}\n{:?} {} {} {}\n{:?}\n{}",
        stats.faults,
        stats.rounds,
        stats.partial,
        world.round,
        world.ssi.observations(),
        world.obs.export_jsonl(),
    );
    Run {
        digest: fnv1a(text.as_bytes()),
        faults: stats.faults,
        reassigned: Phase::ALL
            .iter()
            .map(|&p| stats.phase(p).partitions_reassigned)
            .sum(),
        error: outcome.err(),
        partial: stats.partial,
    }
}

fn protocols() -> [(ProtocolKind, &'static str); 5] {
    [
        (ProtocolKind::Basic, SFW_SQL),
        (ProtocolKind::SAgg, SQL),
        (ProtocolKind::RnfNoise { nf: 2 }, SQL),
        (ProtocolKind::CNoise, SQL),
        (ProtocolKind::EdHist { buckets: 2 }, SQL),
    ]
}

fn every_fault(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_loss(0.2)
        .with_duplication(0.25)
        .with_late(0.2)
        .with_reorder(0.5)
        .with_corruption(0.15)
}

fn drift(label: &str, run: &Run, pinned: u64) -> Option<String> {
    (run.digest != pinned).then(|| {
        format!(
            "{label}: transcript {:#018x}, pinned {pinned:#018x}",
            run.digest
        )
    })
}

#[test]
fn healthy_and_faulty_transcripts_are_pinned() {
    let pinned: [(u64, u64); 5] = [
        (0x8fc2_be2e_7e6e_8cfc, 0xde92_cf36_102c_9792),
        (0x3355_c17a_6af5_254b, 0xa086_8846_b7ee_96c9),
        (0xda89_5651_b690_072c, 0x573e_59ec_dd5e_99ab),
        (0x5f94_6dd6_c7d4_12a8, 0x5dcd_e498_ace7_3b49),
        (0x2a98_5418_0545_6175, 0x6cdf_f755_53a2_b28e),
    ];
    let mut drifted = Vec::new();
    let mut absorbed = FaultStats::default();
    for (n, ((kind, sql), (healthy, faulty))) in protocols().into_iter().zip(pinned).enumerate() {
        let run = transcript(kind, sql, Connectivity::always_on(), 64);
        assert_eq!(run.faults.total() + run.reassigned, 0, "{}", kind.name());
        drifted.extend(drift(&format!("{} healthy", kind.name()), &run, healthy));

        let chaos = Connectivity::fraction(0.3)
            .with_dropout(0.2)
            .with_faults(every_fault(0x5eed + n as u64));
        let run = transcript(kind, sql, chaos, 24);
        assert!(
            run.error.is_none() && !run.partial,
            "{}: completes",
            kind.name()
        );
        assert!(run.reassigned > 0, "{}: dropouts reached", kind.name());
        absorbed.absorb(&run.faults);
        drifted.extend(drift(&format!("{} faulty", kind.name()), &run, faulty));
    }
    // Every absorbing leg of the contact is exercised somewhere.
    assert!(absorbed.duplicates_dropped > 0, "{absorbed:?}");
    assert!(absorbed.corrupt_rejected > 0, "{absorbed:?}");
    assert!(absorbed.late_after_reassign > 0, "{absorbed:?}");
    assert!(absorbed.lost_uploads > 0, "{absorbed:?}");
    assert!(drifted.is_empty(), "{drifted:#?}");
}

#[test]
fn abandon_and_abort_transcripts_are_pinned() {
    let lossy = Connectivity::always_on().with_faults(every_fault(0xab).with_loss(0.7));
    let bounded = format!("{SQL} SIZE 8 ROUNDS");
    let sfw_bounded = format!("{SFW_SQL} SIZE 8 ROUNDS");
    let tuple_bounded = format!("{SQL} SIZE 12");
    let (s_agg, c_noise) = (ProtocolKind::SAgg, ProtocolKind::CNoise);
    let (basic, r2_noise) = (ProtocolKind::Basic, ProtocolKind::RnfNoise { nf: 2 });
    // (label, protocol, query, retry budget, expect an abort)
    let cases = [
        ("S_Agg SIZE-bounded", s_agg, bounded.as_str(), 3, false),
        ("Basic SIZE-bounded", basic, sfw_bounded.as_str(), 3, false),
        (
            "S_Agg tuple-bounded",
            s_agg,
            tuple_bounded.as_str(),
            24,
            false,
        ),
        ("S_Agg unbounded", s_agg, SQL, 2, true),
        ("C_Noise unbounded", c_noise, SQL, 2, true),
        // The discovery sub-query carries no SIZE bound, so it aborts.
        ("R2_Noise discovery", r2_noise, bounded.as_str(), 3, true),
    ];
    let pinned: [u64; 6] = [
        0x0e09_4529_f97a_ffdb,
        0x7c3e_bd8d_31f6_93d1,
        0x9911_b0a4_21bd_8e53,
        0xb658_6aec_347b_8210,
        0xd598_cfcc_a637_8ea0,
        0xee66_d45c_f525_1c55,
    ];
    let mut drifted = Vec::new();
    for ((label, kind, sql, budget, aborts), pinned) in cases.into_iter().zip(pinned) {
        let run = transcript(kind, sql, lossy, budget);
        assert_eq!(run.error.is_some(), aborts, "{label}: {:?}", run.error);
        if !aborts && budget < 24 {
            assert!(run.faults.items_abandoned > 0 && run.partial, "{label}");
        }
        drifted.extend(drift(label, &run, pinned));
    }
    assert!(drifted.is_empty(), "{drifted:#?}");
}

/// The same pins at 1 200 TDSs, where a round's contacts outnumber the
/// driver's pipelining threshold: collection always, and with `chunk = 2`
/// the first reduce round too. The digests were recorded with a driver that
/// ran every step on its own thread, so the pipelined driver must
/// reproduce them at any worker count.
#[test]
fn transcripts_above_the_pipelining_threshold_are_pinned() {
    let pinned: [(u64, u64); 5] = [
        (0x76da_581c_78c0_9bc6, 0xc343_744f_f7ca_d409),
        (0xd039_4ca4_a41f_ee4a, 0xd33d_23dc_fa0f_0e1e),
        (0x0f28_f9f6_8fa3_ab4f, 0x82ba_6f32_3d31_7c00),
        (0xed1b_a191_5e90_acdc, 0x28cb_6057_dd09_b305),
        (0x3243_9b5c_50fa_e069, 0x9f41_d75a_b549_5f05),
    ];
    let mut drifted = Vec::new();
    for (n, ((kind, sql), (healthy, faulty))) in protocols().into_iter().zip(pinned).enumerate() {
        let run = transcript_at(1_200, 2, kind, sql, Connectivity::always_on(), 64);
        assert_eq!(run.faults.total() + run.reassigned, 0, "{}", kind.name());
        drifted.extend(drift(&format!("{} healthy", kind.name()), &run, healthy));

        let chaos = Connectivity::fraction(0.6)
            .with_dropout(0.2)
            .with_faults(every_fault(0x1200 + n as u64));
        let run = transcript_at(1_200, 2, kind, sql, chaos, 24);
        assert!(
            run.error.is_none() && !run.partial,
            "{}: completes",
            kind.name()
        );
        assert!(
            run.faults.total() > 0 && run.reassigned > 0,
            "{}",
            kind.name()
        );
        drifted.extend(drift(&format!("{} faulty", kind.name()), &run, faulty));
    }
    assert!(drifted.is_empty(), "{drifted:#?}");
}
