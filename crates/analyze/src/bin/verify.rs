//! `verify` — run the static verifier (shape check + three passes) over
//! every protocol and write (or check) the golden machine-readable reports.
//!
//! ```text
//! verify [ROOT]            regenerate ROOT/results/verify/*.json
//! verify --check [ROOT]    re-run and diff against the committed reports;
//!                          exit 1 on any mismatch or unproven invariant
//! ```
//!
//! One report per protocol, over the representative queries of
//! [`report::CASES`] with default [`ProtocolParams`]. Reports are
//! byte-stable, so `--check` is a plain string comparison — CI runs it the
//! way it runs `bench_report --check`.

use std::path::PathBuf;
use std::process::ExitCode;

use tdsql_analyze::verify::{report, verify};
use tdsql_core::protocol::ProtocolParams;
use tdsql_sql::parser::parse_query;

/// First line where the two texts differ, for a readable `--check` failure.
fn first_diff(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!("line {}: committed {w:?} vs regenerated {g:?}", i + 1);
        }
    }
    format!(
        "line counts differ: committed {} vs regenerated {}",
        want.lines().count(),
        got.lines().count()
    )
}

fn main() -> ExitCode {
    let mut check = false;
    let mut root = PathBuf::from(".");
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            root = PathBuf::from(arg);
        }
    }
    let dir = root.join("results").join("verify");

    let mut failures = 0usize;
    for (slug, kind, sql) in report::CASES {
        let query = match parse_query(sql) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("verify: {slug}: query parse failed: {e}");
                failures += 1;
                continue;
            }
        };
        let verification = verify(&query, &ProtocolParams::new(kind));
        let rendered = report::render(&verification, sql);
        let path = dir.join(format!("{slug}.json"));

        if !verification.verified() {
            eprintln!(
                "verify: {}: invariants NOT proven (see {})",
                kind.name(),
                path.display()
            );
            failures += 1;
        }

        if check {
            match std::fs::read_to_string(&path) {
                Ok(committed) if committed == rendered => {
                    eprintln!("verify: {}: ok ({})", kind.name(), path.display());
                }
                Ok(committed) => {
                    eprintln!(
                        "verify: {}: report drifted — {}\n  regenerate with: \
                         cargo run -p tdsql-analyze --bin verify",
                        kind.name(),
                        first_diff(&committed, &rendered)
                    );
                    failures += 1;
                }
                Err(e) => {
                    eprintln!(
                        "verify: {}: cannot read {}: {e}",
                        kind.name(),
                        path.display()
                    );
                    failures += 1;
                }
            }
        } else {
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("verify: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            if let Err(e) = std::fs::write(&path, &rendered) {
                eprintln!("verify: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("verify: {}: wrote {}", kind.name(), path.display());
        }
    }

    if failures > 0 {
        eprintln!("verify: {failures} failure(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
