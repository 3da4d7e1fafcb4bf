//! The lint rule registry.
//!
//! Each rule is a [`LintRule`] implementation over a [`FileCtx`] — the
//! masked source, the token stream and the test-module mask produced by
//! [`super::tokens`]. Rules are registered in [`registry`]; the `srclint`
//! binary prints the catalogue from the same list, so a rule cannot exist
//! without being documented.

use super::tokens::{Token, TokenKind};
use super::Finding;

/// Everything a rule may inspect about one source file.
pub struct FileCtx<'a> {
    /// Workspace-relative path (used for rule scoping and reporting).
    pub path: &'a str,
    /// Raw source lines (findings report these, so allowlist fragments
    /// match what the author wrote).
    pub raw_lines: Vec<&'a str>,
    /// Masked source lines: comments blanked, literal contents blanked.
    pub code_lines: Vec<String>,
    /// Tokens of each line.
    pub line_tokens: Vec<Vec<Token>>,
    /// True for lines inside `#[cfg(test)]` modules (skipped by all rules).
    pub in_test: Vec<bool>,
}

impl FileCtx<'_> {
    /// Non-test source lines: (0-based index, masked text, tokens).
    pub fn code(&self) -> impl Iterator<Item = (usize, &str, &[Token])> {
        self.code_lines
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.in_test[*i])
            .map(|(i, l)| (i, l.as_str(), self.line_tokens[i].as_slice()))
    }

    /// Build a finding for line `idx` (0-based), reporting the raw text.
    pub fn finding(&self, rule: &'static str, idx: usize) -> Finding {
        Finding {
            rule,
            file: self.path.to_string(),
            line: idx + 1,
            text: self.raw_lines.get(idx).map_or("", |l| l.trim()).to_string(),
        }
    }
}

/// One lint rule: a name (stable, used in `srclint.allow`), a one-line
/// description for the catalogue, and a check over one file.
pub trait LintRule {
    /// Stable rule id, e.g. `no-panic-path`.
    fn name(&self) -> &'static str;
    /// One-line description for `srclint --rules`.
    fn description(&self) -> &'static str;
    /// Append findings for this file.
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>);
}

/// All rules, in catalogue order.
pub fn registry() -> Vec<Box<dyn LintRule>> {
    vec![
        Box::new(NoPanicPath),
        Box::new(CtCompare),
        Box::new(NoDebugKeys),
        Box::new(NoNondetRng),
        Box::new(NoRawPrint),
        Box::new(NoGlobalMutexVec),
        Box::new(NoNarrowingCast),
        Box::new(NoUndeclaredObsField),
        Box::new(NoRawSocketWrite),
        Box::new(NoBareSleep),
    ]
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

fn is_hot_path(path: &str) -> bool {
    path.contains("core/src/protocol/")
        || path.contains("core/src/runtime/")
        || path.ends_with("core/src/plan.rs")
        || path.ends_with("core/src/tds.rs")
        // Both the historical single-file layout (core/src/ssi.rs) and the
        // module directory it grew into (core/src/ssi/mod.rs, journal.rs).
        || path.contains("core/src/ssi")
}

fn is_crypto(path: &str) -> bool {
    path.contains("crypto/src/")
}

const DETERMINISTIC_CRYPTO: &[&str] = &[
    "det.rs",
    "bucket_hash.rs",
    "kdf.rs",
    "sha256.rs",
    "hmac.rs",
    "aes.rs",
    "ctr.rs",
];

fn is_deterministic_crypto(path: &str) -> bool {
    is_crypto(path)
        && DETERMINISTIC_CRYPTO
            .iter()
            .any(|f| path.ends_with(&format!("crypto/src/{f}")))
}

/// Paths where raw console output is forbidden: everything a protocol value
/// flows through. `tdsql-obs` is the only sanctioned sink there.
fn is_print_scope(path: &str) -> bool {
    path.contains("core/src/") || path.contains("bench/src/")
}

/// Paths where a shared `Mutex<Vec<…>>` accumulator is forbidden: the
/// driver and the multi-query runner, whose scalability depends on local
/// output buffers and sharded structures.
fn is_runtime_scope(path: &str) -> bool {
    path.contains("core/src/runtime/")
}

/// The network layer outside the frame codec. `frame.rs` is the single
/// module allowed to touch a socket directly; everything else in
/// `net/src/` must go through it.
fn is_net_nonframe(path: &str) -> bool {
    path.contains("net/src/") && !path.ends_with("net/src/frame.rs")
}

/// Lowercased `_`-separated sub-words of an identifier, plus the whole
/// identifier itself: `expected_mac` → {expected, mac, expected_mac}. This
/// is what lets rules match `mac` in `expected_mac` without tripping on
/// `macro_like` (whose sub-words are `macro` and `like`).
fn subwords(ident: &str) -> Vec<String> {
    let lower = ident.to_ascii_lowercase();
    let mut out: Vec<String> = lower.split('_').map(str::to_string).collect();
    out.push(lower);
    out.retain(|w| !w.is_empty());
    out
}

fn ident_matches(tok: &Token, words: &[&str]) -> bool {
    tok.kind == TokenKind::Ident
        && subwords(&tok.text)
            .iter()
            .any(|w| words.contains(&w.as_str()))
}

// ---------------------------------------------------------------------------
// no-panic-path
// ---------------------------------------------------------------------------

/// No `unwrap()`, `expect()`, `panic!`, `unreachable!`, `todo!` or
/// `unimplemented!` in protocol hot paths: a panicking TDS drops out of a
/// round and the SSI observes the failure pattern; hot paths must return
/// typed `ProtocolError`s instead.
struct NoPanicPath;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

impl LintRule for NoPanicPath {
    fn name(&self) -> &'static str {
        "no-panic-path"
    }
    fn description(&self) -> &'static str {
        "no unwrap/expect/panic in protocol hot paths \
         (core/src/protocol, core/src/runtime, plan.rs, tds.rs, ssi/)"
    }
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if !is_hot_path(ctx.path) {
            return;
        }
        for (idx, _, toks) in ctx.code() {
            let hit = toks.windows(2).any(|w| {
                let (a, b) = (&w[0], &w[1]);
                a.kind == TokenKind::Ident
                    && ((PANIC_MACROS.contains(&a.text.as_str())
                        && b.kind == TokenKind::Punct
                        && b.text == "!")
                        || (PANIC_METHODS.contains(&a.text.as_str())
                            && b.kind == TokenKind::Punct
                            && b.text == "("))
            });
            if hit {
                out.push(ctx.finding(self.name(), idx));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ct-compare
// ---------------------------------------------------------------------------

/// No `==`/`!=` on MAC, digest or signature values — anywhere in the
/// workspace, not just `crypto/src/`: verification must go through the
/// constant-time `tdsql_crypto::hmac::ct_eq`. A variable-time comparison
/// outside the crypto crate (an SSI-side credential check, a bench
/// validator) leaks the same timing signal the crypto-side rule exists to
/// prevent.
struct CtCompare;

const COMPARE_SENSITIVE: &[&str] = &["mac", "hmac", "digest", "signature"];

impl LintRule for CtCompare {
    fn name(&self) -> &'static str {
        "ct-compare"
    }
    fn description(&self) -> &'static str {
        "MAC/digest/signature comparison must use ct_eq (workspace-wide)"
    }
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        for (idx, _, toks) in ctx.code() {
            let has_cmp = toks
                .iter()
                .any(|t| t.kind == TokenKind::Punct && (t.text == "==" || t.text == "!="));
            if !has_cmp {
                continue;
            }
            if toks
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text == "ct_eq")
            {
                continue;
            }
            if toks.iter().any(|t| ident_matches(t, COMPARE_SENSITIVE)) {
                out.push(ctx.finding(self.name(), idx));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-debug-keys
// ---------------------------------------------------------------------------

/// No `#[derive(Debug)]` on crypto structs holding raw key bytes: a derived
/// `Debug` prints key material into logs (redact by hand, as `SymKey`
/// does).
struct NoDebugKeys;

impl LintRule for NoDebugKeys {
    fn name(&self) -> &'static str {
        "no-debug-keys"
    }
    fn description(&self) -> &'static str {
        "no derived Debug on structs holding raw key bytes (crypto/src)"
    }
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if !is_crypto(ctx.path) {
            return;
        }
        for (idx, line, toks) in ctx.code() {
            let derives_debug = line.contains("derive(")
                && toks
                    .iter()
                    .any(|t| t.kind == TokenKind::Ident && t.text == "Debug");
            if !derives_debug {
                continue;
            }
            // Scan the struct body that follows for raw key-byte fields.
            let mut body_depth = 0i32;
            let mut leaky = false;
            for k in (idx + 1)..ctx.code_lines.len().min(idx + 40) {
                let l = &ctx.code_lines[k];
                body_depth += l.matches('{').count() as i32;
                let key_field = ctx.line_tokens[k].iter().any(|t| {
                    t.kind == TokenKind::Ident && t.text.to_ascii_lowercase().contains("key")
                });
                if key_field && (l.contains("[u8") || l.contains("Vec<u8>")) {
                    leaky = true;
                }
                body_depth -= l.matches('}').count() as i32;
                if body_depth <= 0 && l.contains('}') {
                    break;
                }
            }
            if leaky {
                out.push(ctx.finding(self.name(), idx));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-nondet-rng
// ---------------------------------------------------------------------------

/// No RNG use inside the deterministic crypto primitives: determinism there
/// is a correctness *and* a security contract (equal plaintexts must
/// produce equal tags).
struct NoNondetRng;

impl LintRule for NoNondetRng {
    fn name(&self) -> &'static str {
        "no-nondet-rng"
    }
    fn description(&self) -> &'static str {
        "no RNG inside deterministic crypto primitives \
         (det, bucket_hash, kdf, sha256, hmac, aes, ctr)"
    }
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if !is_deterministic_crypto(ctx.path) {
            return;
        }
        for (idx, _, toks) in ctx.code() {
            let hit = toks.iter().any(|t| {
                if t.kind != TokenKind::Ident {
                    return false;
                }
                let w = t.text.to_ascii_lowercase();
                w.contains("rng") || w == "random" || w == "gen_range"
            });
            if hit {
                out.push(ctx.finding(self.name(), idx));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-raw-print
// ---------------------------------------------------------------------------

/// No `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` inside `core/src` or
/// `bench/src`: a raw console sink bypasses the redaction layer, so any
/// formatted value — Public or Sensitive — can leak. Telemetry must route
/// through `tdsql-obs`, whose field types make Sensitive plaintext
/// unrepresentable. The bench *binaries* print their reports to stdout by
/// design and are suppressed via `srclint.allow`.
struct NoRawPrint;

const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

impl LintRule for NoRawPrint {
    fn name(&self) -> &'static str {
        "no-raw-print"
    }
    fn description(&self) -> &'static str {
        "no println/eprintln/print/eprint/dbg in core/src or bench/src — \
         telemetry goes through tdsql-obs (bench bins allowlisted)"
    }
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if !is_print_scope(ctx.path) {
            return;
        }
        for (idx, _, toks) in ctx.code() {
            let hit = toks.windows(2).any(|w| {
                w[0].kind == TokenKind::Ident
                    && PRINT_MACROS.contains(&w[0].text.as_str())
                    && w[1].kind == TokenKind::Punct
                    && w[1].text == "!"
            });
            if hit {
                out.push(ctx.finding(self.name(), idx));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-global-mutex-vec
// ---------------------------------------------------------------------------

/// No `Mutex<Vec<…>>` inside `core/src/runtime/`: a single mutex-guarded
/// output vector funnels every concurrent driver or worker through one lock,
/// and its contention grows with the population. Keep outputs local (merged
/// once) or behind sharded structures; per-shard `Mutex<VecDeque<…>>`
/// queues are fine and deliberately not matched (the pattern requires the
/// `<` right after `Vec`).
struct NoGlobalMutexVec;

impl LintRule for NoGlobalMutexVec {
    fn name(&self) -> &'static str {
        "no-global-mutex-vec"
    }
    fn description(&self) -> &'static str {
        "no Mutex<Vec<..>> accumulators in core/src/runtime — keep outputs \
         worker-local or sharded (Mutex<VecDeque> queues are fine)"
    }
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if !is_runtime_scope(ctx.path) {
            return;
        }
        for (idx, line, _) in ctx.code() {
            if line.contains("Mutex<Vec<") {
                out.push(ctx.finding(self.name(), idx));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-narrowing-cast
// ---------------------------------------------------------------------------

/// No `as u8`/`as u16`/`as u32` on length-like expressions (identifiers
/// containing `len`, `count`, `size` or `entries` feeding the cast): a
/// narrowing cast on a length silently wraps — 65 536 values wrap a `u16`
/// counter to 0 and produce a *decodable-but-wrong* payload, the exact bug
/// class `ProtocolError::CounterOverflow` exists for. Counters crossing a
/// wire format must go through checked conversion (`u32::try_from(..)`),
/// or carry a reviewed `srclint.allow` entry citing the bound that makes
/// the cast safe.
struct NoNarrowingCast;

const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32"];
const LENGTH_WORDS: &[&str] = &["len", "count", "size", "entries"];
/// Walking back from the `as`, stop at tokens that end the cast operand:
/// a new statement, argument, binding or closure head.
const OPERAND_STOPS: &[&str] = &[",", ";", "=", "|", "{", "}", "&&", "||"];
/// How far back an operand is searched (tokens, same line).
const OPERAND_WINDOW: usize = 8;

impl LintRule for NoNarrowingCast {
    fn name(&self) -> &'static str {
        "no-narrowing-cast"
    }
    fn description(&self) -> &'static str {
        "no `as u8/u16/u32` on length expressions — use try_from or a \
         reviewed srclint.allow entry citing the bound"
    }
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        for (idx, _, toks) in ctx.code() {
            for i in 0..toks.len() {
                let is_cast = toks[i].kind == TokenKind::Ident
                    && toks[i].text == "as"
                    && toks.get(i + 1).is_some_and(|t| {
                        t.kind == TokenKind::Ident && NARROW_TARGETS.contains(&t.text.as_str())
                    });
                if !is_cast {
                    continue;
                }
                let mut hit = false;
                let mut j = i;
                while j > 0 && i - j < OPERAND_WINDOW {
                    j -= 1;
                    let t = &toks[j];
                    if t.kind == TokenKind::Punct && OPERAND_STOPS.contains(&t.text.as_str()) {
                        break;
                    }
                    if ident_matches(t, LENGTH_WORDS) {
                        hit = true;
                        break;
                    }
                }
                if hit {
                    out.push(ctx.finding(self.name(), idx));
                    break; // one finding per line
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-undeclared-obs-field
// ---------------------------------------------------------------------------

/// Obs field discipline at construction sites: the *public* constructors
/// (`Field::str`/`u64`/`i64`/`bool`) must not be fed identifiers that name
/// raw sensitive buffers (`plaintext`, `secret`, `blob`, `payload`,
/// `ciphertext`, `material`) — those belong in `Field::sensitive` — and
/// every `Field::sensitive` call must visibly pass a redactor, so the
/// digest happens before the value reaches a collector. The type system
/// enforces the redactor parameter; the lint catches the laundering
/// pattern where sensitive bytes are stringified first and smuggled
/// through a public constructor.
struct NoUndeclaredObsField;

const PUBLIC_CTORS: &[&str] = &["str", "u64", "i64", "bool"];
const RAW_BUFFER_WORDS: &[&str] = &[
    "plaintext",
    "secret",
    "blob",
    "payload",
    "ciphertext",
    "material",
];

impl LintRule for NoUndeclaredObsField {
    fn name(&self) -> &'static str {
        "no-undeclared-obs-field"
    }
    fn description(&self) -> &'static str {
        "public Field ctors must not take raw-buffer identifiers; \
         Field::sensitive must visibly pass a redactor"
    }
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        for (idx, _, toks) in ctx.code() {
            for i in 0..toks.len() {
                let is_field_ctor = toks[i].kind == TokenKind::Ident
                    && toks[i].text == "Field"
                    && toks.get(i + 1).is_some_and(|t| t.text == "::")
                    && toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident);
                if !is_field_ctor {
                    continue;
                }
                let ctor = toks[i + 2].text.as_str();
                let rest = &toks[i + 3..];
                let bad = if PUBLIC_CTORS.contains(&ctor) {
                    rest.iter().any(|t| ident_matches(t, RAW_BUFFER_WORDS))
                } else if ctor == "sensitive" {
                    !rest.iter().any(|t| {
                        t.kind == TokenKind::Ident
                            && t.text.to_ascii_lowercase().contains("redactor")
                    })
                } else {
                    false
                };
                if bad {
                    out.push(ctx.finding(self.name(), idx));
                    break; // one finding per line
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-raw-socket-write
// ---------------------------------------------------------------------------

/// No raw `write()`/`write_all()`/`flush()` calls in the network layer
/// outside `frame.rs`: the frame codec is the single sanctioned socket I/O
/// path — it is where `MAX_FRAME` bounds-checking, transport-typed errors
/// and the obs layer's byte accounting live. A raw socket write anywhere
/// else (client, server, binaries) can ship unframed — hence unredacted
/// and unaccounted — bytes to the honest-but-curious SSI. Payloads must go
/// through `write_frame`; `write!` into strings is fine (the `!` fences it
/// off from the call pattern this rule matches).
struct NoRawSocketWrite;

const RAW_SOCKET_METHODS: &[&str] = &["write", "write_all", "flush"];

impl LintRule for NoRawSocketWrite {
    fn name(&self) -> &'static str {
        "no-raw-socket-write"
    }
    fn description(&self) -> &'static str {
        "no raw write/write_all/flush in net/src outside frame.rs — \
         socket I/O goes through the frame codec (write_frame)"
    }
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if !is_net_nonframe(ctx.path) {
            return;
        }
        for (idx, _, toks) in ctx.code() {
            let hit = toks.windows(2).any(|w| {
                w[0].kind == TokenKind::Ident
                    && RAW_SOCKET_METHODS.contains(&w[0].text.as_str())
                    && w[1].kind == TokenKind::Punct
                    && w[1].text == "("
            });
            if hit {
                out.push(ctx.finding(self.name(), idx));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-bare-sleep
// ---------------------------------------------------------------------------

/// No bare `std::thread::sleep` outside the sanctioned backoff module
/// (`core/src/runtime/backoff.rs`): an un-audited sleep is an unbounded,
/// un-seeded delay — it makes chaos runs non-reproducible (the jitter is
/// not derived from the seed) and deadlines meaningless (nothing bounds
/// it). Every wait must go through `runtime::backoff` (`BackoffPolicy`
/// for retry schedules, `sleep_ms` for poll ticks), where delays are
/// seeded, capped and lint-visible.
struct NoBareSleep;

/// The single module allowed to call `std::thread::sleep`.
fn is_sanctioned_sleeper(path: &str) -> bool {
    path.ends_with("core/src/runtime/backoff.rs")
}

impl LintRule for NoBareSleep {
    fn name(&self) -> &'static str {
        "no-bare-sleep"
    }
    fn description(&self) -> &'static str {
        "no bare std::thread::sleep outside runtime/backoff.rs — delays \
         must be seeded, capped and deadline-aware (use BackoffPolicy or \
         backoff::sleep_ms)"
    }
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if is_sanctioned_sleeper(ctx.path) {
            return;
        }
        for (idx, _, toks) in ctx.code() {
            let hit = toks.windows(3).any(|w| {
                w[0].kind == TokenKind::Ident
                    && w[0].text == "thread"
                    && w[1].kind == TokenKind::Punct
                    && w[1].text == "::"
                    && w[2].kind == TokenKind::Ident
                    && w[2].text == "sleep"
            });
            if hit {
                out.push(ctx.finding(self.name(), idx));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::lint_file;

    #[test]
    fn narrowing_cast_on_length_flagged() {
        let src = "fn f(s: &[u8], out: &mut Vec<u8>) {\n    \
                   out.extend_from_slice(&(s.len() as u32).to_be_bytes());\n}\n";
        let f = lint_file("crates/sql/src/value.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-narrowing-cast");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn widening_and_non_length_casts_pass() {
        // u64 is not narrowing; `i` is not a length; a closure head (`|`)
        // fences the operand off from a length-word further left.
        let widen = "let n = s.len() as u64;\n";
        assert!(lint_file("crates/sql/src/value.rs", widen).is_empty());
        let counter = "let ctr = base.wrapping_add(i as u32);\n";
        assert!(lint_file("crates/crypto/src/lib.rs", counter).is_empty());
        let fenced = "let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();\n";
        assert!(lint_file("crates/crypto/src/lib.rs", fenced).is_empty());
        let modexpr = "let b = (h % self.n_buckets as u64) as u32;\n";
        assert!(lint_file("crates/core/src/histogram.rs", modexpr).is_empty());
    }

    #[test]
    fn ct_compare_applies_workspace_wide() {
        let src = "fn v(mac: &[u8], other: &[u8]) -> bool {\n    mac == other\n}\n";
        let f = lint_file("crates/core/src/ssi.rs", src);
        assert!(f.iter().any(|x| x.rule == "ct-compare"), "{f:?}");
        // Sub-word matching: `expected_mac` is a MAC.
        let sub = "let ok = expected_mac != got;\n";
        assert_eq!(
            lint_file("crates/bench/src/lib.rs", sub)[0].rule,
            "ct-compare"
        );
        // ct_eq on the same line is the sanctioned fix.
        let ok = "let ok = ct_eq(&expected_mac, &got) == true;\n";
        assert!(lint_file("crates/bench/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn forbidden_tokens_in_strings_do_not_fire() {
        // A purely lexical scanner flags all three of these.
        let src = "fn f() {\n    let s = \"call .unwrap() or panic!( now\";\n    \
                   let r = r#\"println!(secret)\"#;\n    let c = '=';\n}\n";
        assert!(lint_file("crates/core/src/plan.rs", src).is_empty());
    }

    #[test]
    fn public_obs_ctor_with_raw_buffer_ident_flagged() {
        let src = "fn f() {\n    let f = Field::str(\"sql\", plaintext_sql);\n}\n";
        let f = lint_file("crates/core/src/ssi.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-undeclared-obs-field");
        // Public values are fine through public ctors.
        let ok = "fn f() {\n    let f = Field::u64(\"bytes\", bytes);\n    \
                  let g = Field::str(\"phase\", phase.to_string());\n}\n";
        assert!(lint_file("crates/core/src/ssi.rs", ok).is_empty());
    }

    #[test]
    fn raw_socket_write_flagged_outside_frame_codec() {
        let src = "fn f(stream: &mut TcpStream, buf: &[u8]) {\n    \
                   stream.write_all(buf).unwrap();\n}\n";
        let f = lint_file("crates/net/src/client.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-raw-socket-write");
        assert_eq!(f[0].line, 2);
        let partial = "fn f(s: &mut TcpStream) {\n    let n = s.write(b\"x\").unwrap();\n}\n";
        assert_eq!(
            lint_file("crates/net/src/server.rs", partial)[0].rule,
            "no-raw-socket-write"
        );
        let flush = "fn f(s: &mut TcpStream) {\n    s.flush().unwrap();\n}\n";
        assert_eq!(
            lint_file("crates/net/src/bin/querier.rs", flush)[0].rule,
            "no-raw-socket-write"
        );
    }

    #[test]
    fn frame_codec_and_framed_writes_are_sanctioned() {
        // frame.rs is the single module allowed to touch the socket.
        let src = "fn f(s: &mut TcpStream, buf: &[u8]) {\n    s.write_all(buf).ok();\n}\n";
        assert!(lint_file("crates/net/src/frame.rs", src).is_empty());
        // write_frame is one identifier, not `write` + `(`.
        let framed = "fn f(s: &mut TcpStream, p: &[u8]) -> Result<()> {\n    \
                      write_frame(s, p)\n}\n";
        assert!(lint_file("crates/net/src/client.rs", framed).is_empty());
        // fmt's write! macro (the `!` fences it off) and other crates are
        // out of scope.
        let fmt = "fn f(out: &mut String) {\n    let _ = write!(out, \"x\");\n}\n";
        assert!(lint_file("crates/net/src/wire.rs", fmt).is_empty());
        assert!(lint_file("crates/obs/src/trace.rs", src).is_empty());
    }

    #[test]
    fn bare_sleep_flagged_outside_backoff_module() {
        let src = "fn f() {\n    std::thread::sleep(std::time::Duration::from_millis(50));\n}\n";
        let f = lint_file("crates/net/src/server.rs", src);
        assert!(f.iter().any(|x| x.rule == "no-bare-sleep"), "{f:?}");
        let short = "fn f() {\n    thread::sleep(d);\n}\n";
        assert!(lint_file("crates/core/src/workload.rs", short)
            .iter()
            .any(|x| x.rule == "no-bare-sleep"));
        // The sanctioned backoff module is exempt.
        let sanctioned = "pub fn sleep_ms(ms: u64) {\n    \
                          std::thread::sleep(Duration::from_millis(ms));\n}\n";
        assert!(lint_file("crates/core/src/runtime/backoff.rs", sanctioned).is_empty());
        // `thread::spawn` and other thread:: items are not sleeps.
        let spawn = "fn f() {\n    thread::spawn(|| {});\n}\n";
        assert!(lint_file("crates/net/src/server.rs", spawn).is_empty());
    }

    #[test]
    fn ssi_module_directory_is_a_hot_path() {
        // The ledger grew from core/src/ssi.rs into core/src/ssi/ — both
        // the module root and its submodules stay panic-free zones.
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        for path in [
            "crates/core/src/ssi.rs",
            "crates/core/src/ssi/mod.rs",
            "crates/core/src/ssi/journal.rs",
        ] {
            let f = lint_file(path, src);
            assert!(f.iter().any(|x| x.rule == "no-panic-path"), "{path}: {f:?}");
        }
    }

    #[test]
    fn sensitive_field_must_pass_a_redactor() {
        let bad = "fn f() {\n    let f = Field::sensitive(\"tag\", digestish, data);\n}\n";
        let f = lint_file("crates/core/src/ssi.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-undeclared-obs-field");
        let ok = "fn f() {\n    let f = Field::sensitive(\"tag\", obs.redactor(), data);\n}\n";
        assert!(lint_file("crates/core/src/ssi.rs", ok).is_empty());
    }
}
