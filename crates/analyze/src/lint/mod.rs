//! `srclint` — a token-aware privacy lint over the workspace sources.
//!
//! The protocols' security rests on a handful of source-level disciplines
//! that ordinary testing does not enforce. The lint lexes every workspace
//! source ([`tokens`]) into a comment- and literal-masked view plus a token
//! stream, and runs a registry of rules ([`rules`]) over both:
//!
//! * `no-panic-path` — no `unwrap()`, `expect()`, `panic!`, `unreachable!`,
//!   `todo!` or `unimplemented!` in protocol hot paths
//!   (`core/src/protocol/`, `core/src/runtime/`, `plan.rs`, `tds.rs`,
//!   `ssi.rs`): a panicking TDS drops out of a round and the SSI observes
//!   the failure pattern; hot paths must return typed [`ProtocolError`]s
//!   instead;
//! * `ct-compare` — no `==`/`!=` on MAC, digest or signature values
//!   anywhere in the workspace: verification must go through the
//!   constant-time `tdsql_crypto::hmac::ct_eq`;
//! * `no-debug-keys` — no `#[derive(Debug)]` on crypto structs holding raw
//!   key bytes: a derived `Debug` prints key material into logs (redact by
//!   hand, as `SymKey` does);
//! * `no-nondet-rng` — no RNG use inside the deterministic crypto
//!   primitives (`det.rs`, `bucket_hash.rs`, `kdf.rs`, `sha256.rs`,
//!   `hmac.rs`, `aes.rs`, `ctr.rs`): determinism there is a correctness
//!   *and* a security contract (equal plaintexts must produce equal tags);
//! * `no-raw-print` — no `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!`
//!   inside `core/src/` or `bench/src/`: a raw console sink bypasses the
//!   redaction layer, so any formatted value — Public or Sensitive — can
//!   leak. Telemetry must route through `tdsql-obs`, whose field types make
//!   Sensitive plaintext unrepresentable. The bench *binaries* print their
//!   reports to stdout by design and are suppressed via `srclint.allow`;
//! * `no-global-mutex-vec` — no `Mutex<Vec<…>>` inside
//!   `core/src/runtime/`: a single mutex-guarded output vector funnels
//!   every concurrent driver or worker through one lock;
//! * `no-narrowing-cast` — no `as u8`/`as u16`/`as u32` on length-like
//!   expressions: a wrapped counter produces a decodable-but-wrong wire
//!   payload (`ProtocolError::CounterOverflow` is the typed alternative);
//!   audited casts carry a reviewed `srclint.allow` entry citing the bound;
//! * `no-undeclared-obs-field` — public `Field` constructors must not be
//!   fed raw-buffer identifiers, and `Field::sensitive` must visibly pass
//!   a redactor: the redaction boundary is only worth what its call sites
//!   respect;
//! * `no-raw-socket-write` — no raw `write()`/`write_all()`/`flush()` in
//!   `net/src/` outside `frame.rs`: the frame codec is the single
//!   sanctioned socket I/O path, where `MAX_FRAME` bounds-checking,
//!   transport-typed errors and byte accounting live — an unframed write
//!   ships unaccounted bytes to the honest-but-curious SSI.
//!
//! Because rules run over the masked/tokenized view, a forbidden token
//! inside a comment, doc comment, string or char literal never fires — and
//! word-exact rules distinguish `mac` (flagged) from `macro_like` (not)
//! while still catching `expected_mac`.
//!
//! Findings can be suppressed through a checked-in allowlist (`srclint.allow`
//! at the workspace root): one finding per line, `rule path-fragment
//! line-fragment`, `#` comments allowed. Test modules (`#[cfg(test)]`) are
//! skipped entirely.
//!
//! [`ProtocolError`]: tdsql_core::error::ProtocolError

pub mod rules;
pub mod tokens;

use rules::FileCtx;
use tokens::Token;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub text: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.text
        )
    }
}

/// The checked-in suppression list.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String, String)>,
}

impl Allowlist {
    /// Parse the `srclint.allow` format: `rule path-fragment line-fragment`
    /// per line, `#` comments and blank lines ignored. The line fragment is
    /// the remainder of the line and may contain spaces.
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            if let (Some(rule), Some(path), Some(frag)) = (parts.next(), parts.next(), parts.next())
            {
                entries.push((rule.to_string(), path.to_string(), frag.trim().to_string()));
            }
        }
        Self { entries }
    }

    /// Is this finding suppressed?
    pub fn permits(&self, finding: &Finding) -> bool {
        self.entries.iter().any(|(rule, path, frag)| {
            rule == finding.rule
                && finding.file.contains(path.as_str())
                && finding.text.contains(frag.as_str())
        })
    }
}

/// Mark which lines belong to `#[cfg(test)]` modules (skipped by every
/// rule). Runs over the *masked* lines, so braces inside strings, chars or
/// comments cannot corrupt the depth count. Brace counting starts at the
/// `mod` line that follows the attribute.
fn test_block_mask(lines: &[String]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim() == "#[cfg(test)]" {
            // Find the mod line (attributes may stack).
            let mut j = i + 1;
            while j < lines.len() && lines[j].trim().starts_with("#[") {
                j += 1;
            }
            if j < lines.len() && lines[j].trim_start().starts_with("mod ") {
                let mut depth = 0i32;
                let mut entered = false;
                let mut k = j;
                while k < lines.len() {
                    mask[k] = true;
                    depth += lines[k].matches('{').count() as i32;
                    depth -= lines[k].matches('}').count() as i32;
                    entered |= lines[k].contains('{');
                    // `mod tests;` (out-of-line module): nothing to mask.
                    if !entered && lines[k].contains(';') {
                        k += 1;
                        break;
                    }
                    k += 1;
                    if entered && depth <= 0 {
                        break;
                    }
                }
                mask[i] = true;
                i = k;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Lint one source file with every registered rule. `rel_path` is the
/// workspace-relative path (used for rule scoping and reporting).
pub fn lint_file(rel_path: &str, source: &str) -> Vec<Finding> {
    let scan = tokens::scan(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut code_lines: Vec<String> = scan.masked.lines().map(str::to_string).collect();
    // Masking preserves newlines 1:1, but guard the invariant anyway.
    code_lines.resize(raw_lines.len(), String::new());
    let mut line_tokens: Vec<Vec<Token>> = vec![Vec::new(); raw_lines.len()];
    for t in scan.tokens {
        if t.line < line_tokens.len() {
            line_tokens[t.line].push(t);
        }
    }
    let in_test = test_block_mask(&code_lines);
    let ctx = FileCtx {
        path: rel_path,
        raw_lines,
        code_lines,
        line_tokens,
        in_test,
    };
    let mut findings = Vec::new();
    for rule in rules::registry() {
        rule.check(&ctx, &mut findings);
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panics_flagged_only_in_hot_paths() {
        let src = "fn f() {\n    x.unwrap();\n}\n";
        assert_eq!(
            lint_file("crates/core/src/protocol/discovery.rs", src).len(),
            1
        );
        assert_eq!(lint_file("crates/core/src/plan.rs", src).len(), 1);
        assert_eq!(lint_file("crates/core/src/tds.rs", src).len(), 1);
        assert!(lint_file("crates/core/src/workload.rs", src).is_empty());
        assert!(lint_file("crates/sql/src/parser.rs", src).is_empty());
    }

    #[test]
    fn test_modules_are_skipped() {
        let src =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() {\n        x.unwrap();\n    }\n}\n";
        assert!(lint_file("crates/core/src/ssi.rs", src).is_empty());
    }

    #[test]
    fn comments_are_skipped() {
        let src = "// call .unwrap() here would panic!(\nfn f() {}\n";
        assert!(lint_file("crates/core/src/tds.rs", src).is_empty());
        // Block comments too — the old lexical scanner could not do this.
        let block = "/* spanning\n   x.unwrap();\n */\nfn f() {}\n";
        assert!(lint_file("crates/core/src/tds.rs", block).is_empty());
    }

    #[test]
    fn non_ct_mac_compare_flagged() {
        let src = "fn v(mac: &[u8], other: &[u8]) -> bool {\n    mac == other\n}\n";
        let f = lint_file("crates/crypto/src/hmac.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ct-compare");
        let ct = "fn v(mac: &[u8], other: &[u8]) -> bool {\n    ct_eq(mac, other)\n}\n";
        assert!(lint_file("crates/crypto/src/hmac.rs", ct).is_empty());
    }

    #[test]
    fn macro_word_does_not_trip_mac_rule() {
        let src = "fn f() {\n    let macro_like = a == b;\n}\n";
        assert!(lint_file("crates/crypto/src/keys.rs", src).is_empty());
    }

    #[test]
    fn debug_derive_on_raw_key_bytes_flagged() {
        let src = "#[derive(Debug, Clone)]\npub struct Leaky {\n    key_bytes: [u8; 16],\n}\n";
        let f = lint_file("crates/crypto/src/keys.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-debug-keys");
        // SymKey-style: Debug derived but fields are a redacting type.
        let ok = "#[derive(Debug, Clone)]\npub struct Ring {\n    k1: SymKey,\n}\n";
        assert!(lint_file("crates/crypto/src/keys.rs", ok).is_empty());
    }

    #[test]
    fn rng_in_deterministic_primitive_flagged() {
        let src = "fn f(rng: &mut StdRng) {}\n";
        let f = lint_file("crates/crypto/src/det.rs", src);
        assert_eq!(f[0].rule, "no-nondet-rng");
        // ndet is *supposed* to draw randomness.
        assert!(lint_file("crates/crypto/src/ndet.rs", src).is_empty());
    }

    #[test]
    fn raw_prints_flagged_in_core_and_bench() {
        let src = "fn f() {\n    println!(\"tuple: {blob:?}\");\n}\n";
        let f = lint_file("crates/core/src/ssi.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-raw-print");
        let f = lint_file("crates/bench/src/simtime.rs", src);
        assert_eq!(f.len(), 1);
        // Out of scope: the analyzer's own CLI output and the obs console
        // sink (which only ever sees already-redacted fields).
        assert!(lint_file("crates/analyze/src/bin/srclint.rs", src).is_empty());
        assert!(lint_file("crates/obs/src/trace.rs", src).is_empty());
    }

    #[test]
    fn debug_macro_flagged_but_comments_spared() {
        let src = "fn f() {\n    dbg!(&working);\n}\n";
        let f = lint_file("crates/core/src/runtime/mixed.rs", src);
        assert!(f.iter().any(|x| x.rule == "no-raw-print"));
        let doc = "/// Use println! for nothing here.\nfn f() {}\n";
        assert!(lint_file("crates/core/src/plan.rs", doc).is_empty());
    }

    #[test]
    fn mutex_vec_flagged_only_in_runtime() {
        let src = "struct S {\n    collected: Mutex<Vec<StoredTuple>>,\n}\n";
        let f = lint_file("crates/core/src/runtime/mixed.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-global-mutex-vec");
        // Out of scope: the SSI's striped per-query state is allowed.
        assert!(lint_file("crates/core/src/ssi.rs", src).is_empty());
        // Sharded work queues are the sanctioned alternative.
        let queue = "struct Q {\n    shards: Vec<Mutex<VecDeque<WorkItem>>>,\n}\n";
        assert!(lint_file("crates/core/src/runtime/mixed.rs", queue).is_empty());
    }

    #[test]
    fn allowlist_suppresses_matching_findings() {
        let allow = Allowlist::parse("# comment\nno-panic-path core/src/tds.rs x.unwrap()\n");
        let f = Finding {
            rule: "no-panic-path",
            file: "crates/core/src/tds.rs".into(),
            line: 2,
            text: "x.unwrap();".into(),
        };
        assert!(allow.permits(&f));
        let other = Finding {
            rule: "no-panic-path",
            file: "crates/core/src/ssi.rs".into(),
            line: 2,
            text: "x.unwrap();".into(),
        };
        assert!(!allow.permits(&other));
    }

    #[test]
    fn every_rule_has_a_unique_name_and_description() {
        let rules = rules::registry();
        assert_eq!(rules.len(), 10);
        let mut names: Vec<_> = rules.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "duplicate rule name");
        assert!(rules.iter().all(|r| !r.description().is_empty()));
    }
}
