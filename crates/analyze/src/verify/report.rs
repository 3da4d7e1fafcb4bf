//! Stable machine-readable verification reports.
//!
//! One JSON document per protocol (`results/verify/<protocol>.json`),
//! hand-rendered with fixed key order and no timestamps so regeneration is
//! byte-identical — the committed goldens are snapshot-tested exactly like
//! the plan snapshots, and CI re-runs the verifier with `--check`.
//!
//! Schema `tdsql-verify/v1`:
//!
//! ```json
//! {
//!   "schema": "tdsql-verify/v1",
//!   "protocol": "S_Agg",
//!   "query": "SELECT ...",
//!   "plan": ["collect: ...", ...],
//!   "shape": "executable",
//!   "sizes": { "verdict": "constant-size", "phases": [...] },
//!   "exposure": { "verdict": "subset-of-declaration", "checked": [...] },
//!   "settlement": { "verdict": "exactly-once", ... },
//!   "verdict": "verified"
//! }
//! ```
//!
//! `shape` is `"executable"`, or the [`super::shape`] finding that refutes
//! the plan.

use tdsql_core::leakage::TagForm;
use tdsql_core::plan::EmissionCodec;
use tdsql_core::protocol::ProtocolKind;

use super::sizes::{Bound, WireVerdict};
use super::{phase_name, Verification};

const AGG_SQL: &str = "SELECT c.district, AVG(p.cons) FROM power p, consumer c \
                       WHERE c.cid = p.cid GROUP BY c.district";
const SFW_SQL: &str = "SELECT pid FROM health WHERE age > 80";

/// The golden reports, as `(file slug, protocol, query)`: the
/// representative queries the plan snapshots use (an SFW query for Basic,
/// a GROUP BY aggregate for the rest), each run with default
/// `ProtocolParams`. The `verify` bin writes `results/verify/<slug>.json`
/// from this table and the golden tests compare against it.
pub const CASES: [(&str, ProtocolKind, &str); 5] = [
    ("basic", ProtocolKind::Basic, SFW_SQL),
    ("s_agg", ProtocolKind::SAgg, AGG_SQL),
    ("rnf_noise", ProtocolKind::RnfNoise { nf: 10 }, AGG_SQL),
    ("c_noise", ProtocolKind::CNoise, AGG_SQL),
    ("ed_hist", ProtocolKind::EdHist { buckets: 8 }, AGG_SQL),
];

/// Minimal JSON string escaping (the report emits only ASCII content).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn form_name(form: TagForm) -> &'static str {
    match form {
        TagForm::None => "none",
        TagForm::Det => "det",
        TagForm::Bucket => "bucket",
    }
}

fn codec_name(codec: EmissionCodec) -> &'static str {
    match codec {
        EmissionCodec::PlainTuple => "PlainTuple",
        EmissionCodec::AggInput => "AggInput",
        EmissionCodec::PartialBatch => "PartialAggBatch",
        EmissionCodec::ResultRow => "ResultRow",
    }
}

/// Render one verification as the stable `tdsql-verify/v1` JSON document.
pub fn render(verification: &Verification, query_text: &str) -> String {
    let v = verification;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"tdsql-verify/v1\",\n");
    out.push_str(&format!(
        "  \"protocol\": \"{}\",\n",
        esc(&v.plan.kind.name())
    ));
    out.push_str(&format!("  \"query\": \"{}\",\n", esc(query_text)));

    out.push_str("  \"plan\": [\n");
    let rendered = v.plan.render();
    for (i, line) in rendered.iter().enumerate() {
        let comma = if i + 1 < rendered.len() { "," } else { "" };
        out.push_str(&format!("    \"{}\"{comma}\n", esc(line)));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"shape\": \"{}\",\n",
        esc(v.shape.as_deref().unwrap_or("executable"))
    ));

    // Pass 1 — sizes.
    out.push_str("  \"sizes\": {\n");
    out.push_str(&format!(
        "    \"verdict\": \"{}\",\n",
        if v.sizes.proven() {
            "constant-size"
        } else {
            "length-leak"
        }
    ));
    out.push_str(&format!(
        "    \"width_model\": {{ \"max_str_content\": {} }},\n",
        v.sizes.model.max_str_content
    ));
    out.push_str("    \"phases\": [\n");
    for (i, ps) in v.sizes.phases.iter().enumerate() {
        let comma = if i + 1 < v.sizes.phases.len() {
            ","
        } else {
            ""
        };
        let pad = match ps.pad {
            Some(p) => p.to_string(),
            None => "null".into(),
        };
        let wire = match &ps.wire {
            WireVerdict::Constant(n) => format!("\"constant({n})\""),
            WireVerdict::DeclaredVariable(_) => "\"declared-variable\"".into(),
            WireVerdict::Leaky => "\"LEAKY\"".into(),
        };
        let hi = match ps.plaintext.hi {
            Bound::Finite(n) => n.to_string(),
            Bound::Unbounded => "\"unbounded\"".into(),
        };
        out.push_str(&format!(
            "      {{ \"phase\": \"{}\", \"codec\": \"{}\", \"plaintext_lo\": {}, \
             \"plaintext_hi\": {}, \"pad\": {}, \"wire\": {} }}{comma}\n",
            phase_name(ps.phase),
            codec_name(ps.codec),
            ps.plaintext.lo,
            hi,
            pad,
            wire
        ));
    }
    out.push_str("    ],\n");
    out.push_str("    \"findings\": [\n");
    for (i, f) in v.sizes.findings.iter().enumerate() {
        let comma = if i + 1 < v.sizes.findings.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!("      \"{}\"{comma}\n", esc(&f.render())));
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");

    // Pass 2 — exposure.
    out.push_str("  \"exposure\": {\n");
    out.push_str(&format!(
        "    \"verdict\": \"{}\",\n",
        if v.exposure.proven() {
            "subset-of-declaration"
        } else {
            "undeclared-exposure"
        }
    ));
    out.push_str("    \"checked\": [\n");
    for (i, c) in v.exposure.checked.iter().enumerate() {
        let comma = if i + 1 < v.exposure.checked.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "      {{ \"phase\": \"{}\", \"form\": \"{}\", \"origin\": \"{}\", \
             \"declared\": {} }}{comma}\n",
            phase_name(c.phase),
            form_name(c.form),
            esc(c.origin),
            c.declared
        ));
    }
    out.push_str("    ],\n");
    out.push_str("    \"violations\": [\n");
    for (i, t) in v.exposure.violations.iter().enumerate() {
        let comma = if i + 1 < v.exposure.violations.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!("      \"{}\"{comma}\n", esc(&t.render())));
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");

    // Pass 3 — settlement.
    out.push_str("  \"settlement\": {\n");
    out.push_str(&format!(
        "    \"verdict\": \"{}\",\n",
        if v.settle.proven() {
            "exactly-once"
        } else {
            "violated"
        }
    ));
    out.push_str(&format!(
        "    \"config\": {{ \"items\": {}, \"assignments_per_item\": {}, \
         \"deliveries_per_assignment\": {}, \"with_close\": {} }},\n",
        v.settle.config.items,
        v.settle.config.assignments_per_item,
        v.settle.config.deliveries_per_assignment,
        v.settle.config.with_close
    ));
    out.push_str(&format!("    \"states\": {},\n", v.settle.states));
    out.push_str(&format!(
        "    \"covered_rows\": [{}],\n",
        v.settle
            .covered
            .iter()
            .map(|(s, i)| format!("\"{s:?}/{i:?}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "    \"unreachable_confirmed\": {}",
        v.settle.unreachable_confirmed
    ));
    match &v.settle.violation {
        None => out.push('\n'),
        Some(cx) => {
            out.push_str(",\n    \"counterexample\": {\n");
            out.push_str("      \"trace\": [\n");
            for (i, line) in cx.trace.iter().enumerate() {
                let comma = if i + 1 < cx.trace.len() { "," } else { "" };
                out.push_str(&format!("        \"{}\"{comma}\n", esc(line)));
            }
            out.push_str("      ],\n");
            out.push_str(&format!(
                "      \"violation\": \"{}\"\n",
                esc(&cx.violation)
            ));
            out.push_str("    }\n");
        }
    }
    out.push_str("  },\n");

    out.push_str(&format!(
        "  \"verdict\": \"{}\"\n",
        if v.verified() { "verified" } else { "REFUTED" }
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
    use tdsql_sql::parser::parse_query;

    #[test]
    fn report_is_deterministic_and_verified_for_s_agg() {
        let sql = "SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district";
        let query = parse_query(sql).unwrap();
        let params = ProtocolParams::new(ProtocolKind::SAgg);
        let a = render(&super::super::verify(&query, &params), sql);
        let b = render(&super::super::verify(&query, &params), sql);
        assert_eq!(a, b, "report must be byte-stable");
        assert!(a.contains("\"verdict\": \"verified\""), "{a}");
        assert!(a.contains("\"schema\": \"tdsql-verify/v1\""));
        assert!(a.contains("\"wire\": \"constant(96)\""), "{a}");
    }

    #[test]
    fn refuted_report_carries_the_findings() {
        let sql = "SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district";
        let query = parse_query(sql).unwrap();
        let mut params = ProtocolParams::new(ProtocolKind::SAgg);
        params.pad = 8;
        let report = render(&super::super::verify(&query, &params), sql);
        assert!(report.contains("\"verdict\": \"REFUTED\""), "{report}");
        assert!(report.contains("pad-too-small [collection]"), "{report}");
        assert!(report.contains("\"wire\": \"LEAKY\""), "{report}");
    }
}
