//! Golden verify-report tests: the static verifier's machine-readable
//! reports for all five protocols must (a) prove all three invariants and
//! (b) byte-match the committed goldens under `results/verify/`.
//!
//! This is the same contract `cargo run -p tdsql-analyze --bin verify --
//! --check` enforces in CI, embedded in the test suite so a drifted report
//! fails `cargo test` too, over the binary's own case table,
//! [`report::CASES`].

use std::path::PathBuf;

use tdsql_analyze::verify::{report, verify};
use tdsql_core::protocol::ProtocolParams;
use tdsql_sql::parser::parse_query;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
        .join("verify")
}

#[test]
fn all_five_protocols_verify() {
    for (slug, kind, sql) in report::CASES {
        let query = parse_query(sql).expect(sql);
        let v = verify(&query, &ProtocolParams::new(kind));
        assert!(v.sizes.proven(), "{slug}: size pass refuted");
        assert!(v.exposure.proven(), "{slug}: exposure pass refuted");
        assert!(v.settle.proven(), "{slug}: settlement pass refuted");
        assert!(v.verified(), "{slug}: verdict must be verified");
    }
}

#[test]
fn reports_match_committed_goldens() {
    for (slug, kind, sql) in report::CASES {
        let query = parse_query(sql).expect(sql);
        let rendered = report::render(&verify(&query, &ProtocolParams::new(kind)), sql);
        let path = golden_dir().join(format!("{slug}.json"));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert_eq!(
            committed, rendered,
            "{slug}: committed report drifted — regenerate with \
             `cargo run -p tdsql-analyze --bin verify`"
        );
    }
}

#[test]
fn reports_carry_the_proof_obligations() {
    // Spot-check the report contents the paper's invariants hinge on, so a
    // regeneration cannot silently weaken what the goldens attest.
    for (slug, kind, sql) in report::CASES {
        let query = parse_query(sql).expect(sql);
        let r = report::render(&verify(&query, &ProtocolParams::new(kind)), sql);
        assert!(r.contains("\"schema\": \"tdsql-verify/v1\""), "{slug}");
        assert!(r.contains("\"verdict\": \"verified\""), "{slug}");
        assert!(r.contains("\"shape\": \"executable\""), "{slug}");
        // Default pad 64 + nDet envelope overhead 32: every padded phase
        // proves a constant 96-byte wire size.
        assert!(r.contains("\"wire\": \"constant(96)\""), "{slug}:\n{r}");
        assert!(r.contains("\"verdict\": \"exactly-once\""), "{slug}");
        assert!(r.contains("\"unreachable_confirmed\": true"), "{slug}");
        assert!(!r.contains("LEAKY"), "{slug}");
    }
}

#[test]
fn explain_embeds_the_verifier_verdict() {
    for (_, kind, sql) in report::CASES {
        let query = parse_query(sql).unwrap();
        let text = tdsql_analyze::explain_checked(&query, &ProtocolParams::new(kind));
        assert!(text.contains("static verification:"), "{text}");
        assert!(text.contains("verdict:    verified"), "{text}");
    }
}
