//! EXPLAIN for distributed privacy: a human-readable account of how a query
//! will execute under a protocol and — crucially — **what the SSI will see**.
//!
//! A downstream integrator choosing between protocols needs exactly the
//! trade-off table of Section 6.4; `explain` renders it for one concrete
//! query so the choice can be reviewed (or logged for compliance) before a
//! single ciphertext moves.

use tdsql_sql::ast::Query;

use crate::plan::PhasePlan;
use crate::protocol::{ProtocolKind, ProtocolParams};

/// Render the execution plan and leakage profile of `query` under `params`.
pub fn explain(query: &Query, params: &ProtocolParams) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!("protocol: {}", params.kind.name()));
    line(format!("query: {query}"));
    let aggregate = query.is_aggregate();
    line(format!(
        "class: {}",
        if aggregate {
            "aggregate (Group By framework)"
        } else {
            "Select-From-Where"
        }
    ));

    // The SIZE window decides what happens when deliveries keep failing:
    // degrade to a flagged-partial result, or abort with a typed error.
    match &query.size {
        Some(size) => {
            let mut bounds = Vec::new();
            if let Some(n) = size.max_tuples {
                bounds.push(format!("{n} tuples"));
            }
            if let Some(r) = size.max_rounds {
                bounds.push(format!("{r} rounds"));
            }
            line(format!("size window: {}", bounds.join(", ")));
            line(
                "  on expiry the query finalizes over the tuples collected so far \
                 and the result is flagged partial (never aborted)"
                    .into(),
            );
        }
        None => {
            line(
                "size window: unbounded — exhausting the delivery retry budget \
                 aborts the query (QueryAborted)"
                    .into(),
            );
        }
    }

    // The compiled plan — the exact step sequence every runtime interprets.
    line("plan:".into());
    for step in PhasePlan::compile(query, params).render() {
        line(format!("  {step}"));
    }

    line("phases:".into());
    line("  1. collection — each connected TDS evaluates WHERE locally and".into());
    line("     uploads nDet_Enc(k2) tuples; dummies hide empty results and".into());
    line("     access denials; payloads padded to one size".into());
    match params.kind {
        ProtocolKind::Basic => {
            line("  2. filtering — TDSs drop dummies and re-seal rows under k1".into());
        }
        ProtocolKind::SAgg => {
            line(format!(
                "  2. aggregation — iterative random partitions ({} tuples, then α = {} \
                 batches per partition) until one batch remains",
                params.chunk, params.alpha
            ));
            line("  3. filtering — HAVING + projection on the final batch, sealed k1".into());
        }
        ProtocolKind::RnfNoise { nf } => {
            line(format!(
                "  2. aggregation — SSI groups by Det_Enc(A_G) tags; TDSs drop the \
                 {nf} fakes per true tuple, then merge per group"
            ));
            line("  3. filtering — HAVING + projection per group, sealed k1".into());
        }
        ProtocolKind::CNoise => {
            line(format!(
                "  2. aggregation — SSI groups by Det_Enc(A_G) tags; each TDS added \
                 one fake per unheld domain value ({} known)",
                params.noise_domain.len()
            ));
            line("  3. filtering — HAVING + projection per group, sealed k1".into());
        }
        ProtocolKind::EdHist { buckets } => {
            let (known, factor) = params
                .histogram
                .as_ref()
                .map(|h| (h.known_groups(), h.collision_factor()))
                .unwrap_or((0, 0.0));
            line(format!(
                "  2. aggregation — per-bucket partials ({buckets} equi-depth buckets, \
                 {known} known groups, collision factor h ≈ {factor:.1}), then per-group merge"
            ));
            line("  3. filtering — HAVING + projection per group, sealed k1".into());
        }
    }

    line("SSI observes:".into());
    line("  - the SIZE clause and the protocol recipe (by design)".into());
    line("  - ciphertext counts and one uniform payload size".into());
    match params.kind {
        ProtocolKind::Basic | ProtocolKind::SAgg => {
            line("  - no tags: unlinkable nDet ciphertexts only (exposure floor Π 1/N_j)".into());
        }
        ProtocolKind::RnfNoise { nf } => {
            line(format!(
                "  - Det_Enc(A_G) tag frequencies, blurred by {nf} fakes/tuple \
                 (small nf leaves the distribution partly exposed — see Fig. 8)"
            ));
        }
        ProtocolKind::CNoise => {
            line("  - Det_Enc(A_G) tags with a flat-by-construction frequency profile".into());
        }
        ProtocolKind::EdHist { .. } => {
            line("  - near-uniform h(bucketId) tags carrying no domain ordering".into());
        }
    }
    if params.kind.needs_discovery() && params.noise_domain.is_empty() && params.histogram.is_none()
    {
        line("note: a distribution-discovery sub-query (S_Agg, k2-sealed) runs first".into());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_sql::parser::parse_query;

    fn q() -> Query {
        parse_query(
            "SELECT c.district, AVG(p.cons) FROM power p, consumer c \
             WHERE c.cid = p.cid GROUP BY c.district SIZE 1000",
        )
        .unwrap()
    }

    #[test]
    fn s_agg_plan_mentions_iterations_and_floor() {
        let text = explain(&q(), &ProtocolParams::new(ProtocolKind::SAgg));
        assert!(text.contains("iterative random partitions"));
        assert!(text.contains("exposure floor"));
        assert!(!text.contains("discovery"), "S_Agg needs none");
    }

    #[test]
    fn ed_hist_plan_reports_collision_factor() {
        let mut params = ProtocolParams::new(ProtocolKind::EdHist { buckets: 4 });
        let dist: Vec<_> = (0..12)
            .map(|i| {
                (
                    tdsql_sql::value::GroupKey::from_values(&[tdsql_sql::value::Value::Int(i)]),
                    3u64,
                )
            })
            .collect();
        params.histogram = Some(crate::histogram::Histogram::build(&dist, 4).into());
        let text = explain(&q(), &params);
        assert!(text.contains("4 equi-depth buckets"));
        assert!(text.contains("h ≈ 3.0"), "{text}");
        assert!(text.contains("near-uniform h(bucketId)"));
    }

    #[test]
    fn discovery_note_appears_when_needed() {
        let text = explain(&q(), &ProtocolParams::new(ProtocolKind::CNoise));
        assert!(text.contains("discovery sub-query"));
        let text = explain(&q(), &ProtocolParams::new(ProtocolKind::RnfNoise { nf: 2 }));
        assert!(text.contains("blurred by 2 fakes"));
    }

    #[test]
    fn size_window_explains_partial_result_semantics() {
        // SIZE-bounded: the window and the degrade rule are spelled out.
        let text = explain(&q(), &ProtocolParams::new(ProtocolKind::SAgg));
        assert!(text.contains("size window: 1000 tuples"), "{text}");
        assert!(text.contains("flagged partial"), "{text}");
        // Unbounded: exhaustion aborts instead.
        let unbounded = parse_query(
            "SELECT c.district, AVG(p.cons) FROM power p, consumer c \
             WHERE c.cid = p.cid GROUP BY c.district",
        )
        .unwrap();
        let text = explain(&unbounded, &ProtocolParams::new(ProtocolKind::SAgg));
        assert!(text.contains("size window: unbounded"), "{text}");
        assert!(text.contains("QueryAborted"), "{text}");
    }

    #[test]
    fn basic_plan_for_sfw() {
        let sfw = parse_query("SELECT pid FROM health WHERE age > 80").unwrap();
        let text = explain(&sfw, &ProtocolParams::new(ProtocolKind::Basic));
        assert!(text.contains("Select-From-Where"));
        assert!(text.contains("drop dummies"));
    }
}
