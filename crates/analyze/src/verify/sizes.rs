//! Pass 1 — size abstraction.
//!
//! An abstract interpretation over every emission of a compiled
//! [`PhasePlan`]: each phase's plaintext size is abstracted to an interval
//! computed from the tuple-codec framing constants
//! ([`tdsql_core::tuple_codec::framing`]) and a [`WidthModel`] for value
//! widths. A padded emission is **proven constant-size** when its upper
//! bound fits the pad — every payload then travels as exactly
//! `pad + nDet overhead` ciphertext bytes, so the SSI learns nothing from
//! lengths. An upper bound above the pad is the `PadTooSmall` leak class
//! caught before any run, reported with the phase and the widest field.
//!
//! Unpadded emissions (partial-aggregate batches, result rows) are declared
//! exemptions: their sizes are functions of group counts the SSI already
//! learns from partitioning, never of any tuple's content.

use tdsql_core::plan::{EmissionCodec, EmissionSpec, PhasePlan};
use tdsql_core::stats::Phase;
use tdsql_core::tuple_codec::framing;
use tdsql_sql::ast::{Expr, Query, SelectItem};

use super::phase_name;

/// An abstract byte count: finite, or unbounded within the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// At most this many bytes.
    Finite(usize),
    /// No bound derivable from the plan (content- or population-dependent).
    Unbounded,
}

impl Bound {
    /// Does the bound provably fit under `pad`?
    pub fn fits(self, pad: usize) -> bool {
        matches!(self, Bound::Finite(n) if n <= pad)
    }

    /// Render for findings and reports.
    pub fn render(self) -> String {
        match self {
            Bound::Finite(n) => n.to_string(),
            Bound::Unbounded => "unbounded".into(),
        }
    }
}

/// The plaintext-size interval of one emission, pre-encryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeInterval {
    /// Smallest encodable payload (a dummy, or an empty frame).
    pub lo: usize,
    /// Largest payload reachable under the width model.
    pub hi: Bound,
}

/// Value-width assumptions the abstraction is sound relative to.
///
/// Fixed-width values (`Int`, `Float`, `Bool`, `Null`) have exact canonical
/// widths; strings are unbounded in the codec, so the model carries the
/// widest string *content* the deployment promises. A value wider than the
/// model makes the computed upper bound exceed the pad and the pass report
/// it — widening the model must go hand in hand with widening the pad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthModel {
    /// Maximum UTF-8 content bytes of any string value (grouping values
    /// like district names are the usual widest case).
    pub max_str_content: usize,
}

impl Default for WidthModel {
    fn default() -> Self {
        // Covers the workload generators' longest category strings
        // ("detached house" = 14 bytes) with headroom for district names,
        // and — deliberately — keeps a one-grouping-column aggregate frame
        // (7 + 2 × 25 = 57 B) inside the default 64-byte pad. A deployment
        // promising wider strings must raise the pad with the model.
        Self {
            max_str_content: 20,
        }
    }
}

impl WidthModel {
    /// Widest canonical encoding of a single value under this model.
    pub fn max_value_width(&self) -> usize {
        framing::VALUE_MAX_FIXED.max(framing::VALUE_STR_HEADER + self.max_str_content)
    }
}

/// A statically caught length leak: the emission of `phase` can need more
/// bytes than its pad, so an oversized payload would be refused at runtime
/// (`PadTooSmall`) — or, in a runtime without that guard, travel unpadded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeFinding {
    /// The offending phase.
    pub phase: Phase,
    /// The widest contributor to the overflow (the field to shrink, or the
    /// reason to raise the pad).
    pub field: String,
    /// Bytes the emission can need.
    pub needed: Bound,
    /// The declared pad it must fit.
    pub pad: usize,
}

impl SizeFinding {
    /// Stable one-line rendering (golden negative snapshots match this).
    pub fn render(&self) -> String {
        format!(
            "pad-too-small [{}]: {} can need {} bytes > pad {}",
            phase_name(self.phase),
            self.field,
            self.needed.render(),
            self.pad
        )
    }
}

/// What one emission puts on the wire, as proven by the pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireVerdict {
    /// Every payload is exactly this many ciphertext bytes.
    Constant(usize),
    /// Size varies, by declaration (the reason is recorded).
    DeclaredVariable(&'static str),
    /// The pad cannot be proven to cover the plaintext interval.
    Leaky,
}

/// The per-emission result of the pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSize {
    /// Which phase.
    pub phase: Phase,
    /// Wire framing of the phase's payloads.
    pub codec: EmissionCodec,
    /// Abstract plaintext interval.
    pub plaintext: SizeInterval,
    /// Declared pad, if the emission is padded.
    pub pad: Option<usize>,
    /// What the SSI observes.
    pub wire: WireVerdict,
}

/// The pass result for one plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeReport {
    /// Width assumptions the verdicts are relative to.
    pub model: WidthModel,
    /// One entry per plan emission, in phase order.
    pub phases: Vec<PhaseSize>,
    /// Every length leak found (empty when proven).
    pub findings: Vec<SizeFinding>,
}

impl SizeReport {
    /// Is every padded emission proven constant-size?
    pub fn proven(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Count the aggregate slots of a query (inputs per [`EmissionCodec::AggInput`]
/// frame, states per partial-batch entry).
fn agg_slots(query: &Query) -> usize {
    fn count(expr: &Expr) -> usize {
        match expr {
            Expr::Aggregate(_) => 1,
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
                count(expr)
            }
            Expr::Binary { left, right, .. } => count(left) + count(right),
            Expr::Between {
                expr, low, high, ..
            } => count(expr) + count(low) + count(high),
            Expr::InList { expr, list, .. } => count(expr) + list.iter().map(count).sum::<usize>(),
            Expr::Column(_) | Expr::Literal(_) => 0,
        }
    }
    let mut n = 0;
    for item in &query.select {
        if let SelectItem::Expr { expr, .. } = item {
            n += count(expr);
        }
    }
    if let Some(h) = &query.having {
        n += count(h);
    }
    n.max(1)
}

/// Interval of one emission under the model.
fn interval(spec: &EmissionSpec, query: &Query, model: &WidthModel) -> (SizeInterval, String) {
    let vw = model.max_value_width();
    let key_width = query.group_by.len() * vw;
    match spec.codec {
        EmissionCodec::PlainTuple => {
            let values = query.select.len().max(1);
            let hi = framing::PLAIN_TUPLE_HEADER + values * vw;
            (
                SizeInterval {
                    lo: framing::PLAIN_TUPLE_DUMMY,
                    hi: Bound::Finite(hi),
                },
                format!("row values ({values} columns × ≤{vw}B)"),
            )
        }
        EmissionCodec::AggInput => {
            let slots = agg_slots(query);
            let inputs = slots * vw;
            let hi = framing::AGG_INPUT_HEADER + key_width + inputs;
            let field = if key_width >= inputs {
                format!("group key ({} columns × ≤{vw}B)", query.group_by.len())
            } else {
                format!("aggregate inputs ({slots} slots × ≤{vw}B)")
            };
            (
                SizeInterval {
                    lo: framing::AGG_INPUT_HEADER,
                    hi: Bound::Finite(hi),
                },
                field,
            )
        }
        EmissionCodec::PartialBatch => {
            // Entries per batch are bounded by the partition size, but
            // distinct-set accumulator states grow with the data — the
            // plaintext is unbounded in the model, and deliberately so:
            // batch size is a function of group count, not tuple content.
            (
                SizeInterval {
                    lo: framing::BATCH_HEADER,
                    hi: Bound::Unbounded,
                },
                "partial-aggregate batch".into(),
            )
        }
        EmissionCodec::ResultRow => {
            let values = query.select.len().max(1);
            let hi = framing::RESULT_ROW_HEADER + values * vw;
            (
                SizeInterval {
                    lo: framing::RESULT_ROW_HEADER,
                    hi: Bound::Finite(hi),
                },
                format!("result row ({values} columns × ≤{vw}B)"),
            )
        }
    }
}

/// Run the pass over one compiled plan. Each emission's pad comes from the
/// plan itself ([`EmissionSpec::pad`]).
pub fn check_plan(plan: &PhasePlan, query: &Query, model: &WidthModel) -> SizeReport {
    let mut phases = Vec::new();
    let mut findings = Vec::new();
    for spec in plan.emissions() {
        let (plaintext, field) = interval(&spec, query, model);
        let wire = match spec.pad {
            Some(pad) => {
                if plaintext.hi.fits(pad) {
                    // Padded to `pad` plaintext bytes, then nDet-sealed:
                    // every ciphertext is exactly pad + overhead bytes.
                    WireVerdict::Constant(pad + tdsql_crypto::ndet::OVERHEAD)
                } else {
                    findings.push(SizeFinding {
                        phase: spec.phase,
                        field: field.clone(),
                        needed: plaintext.hi,
                        pad,
                    });
                    WireVerdict::Leaky
                }
            }
            None => WireVerdict::DeclaredVariable(match spec.codec {
                EmissionCodec::PartialBatch => {
                    "batch size is a declared function of the partition's \
                     group count (SSI already learns counts from partitioning)"
                }
                _ => "per-row size; row count is the declared result cardinality",
            }),
        };
        phases.push(PhaseSize {
            phase: spec.phase,
            codec: spec.codec,
            plaintext,
            pad: spec.pad,
            wire,
        });
    }
    SizeReport {
        model: *model,
        phases,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
    use tdsql_sql::parser::parse_query;

    fn agg_query() -> Query {
        parse_query("SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district").unwrap()
    }

    #[test]
    fn default_pads_prove_constant_size_for_all_protocols() {
        for kind in [
            ProtocolKind::Basic,
            ProtocolKind::SAgg,
            ProtocolKind::RnfNoise { nf: 2 },
            ProtocolKind::CNoise,
            ProtocolKind::EdHist { buckets: 4 },
        ] {
            let query = if kind == ProtocolKind::Basic {
                parse_query("SELECT pid FROM health WHERE age > 80").unwrap()
            } else {
                agg_query()
            };
            let params = ProtocolParams::new(kind);
            let plan = PhasePlan::compile(&query, &params);
            let report = check_plan(&plan, &query, &WidthModel::default());
            assert!(report.proven(), "{}: {:?}", kind.name(), report.findings);
            for ps in &report.phases {
                if ps.pad.is_some() {
                    assert_eq!(
                        ps.wire,
                        WireVerdict::Constant(64 + tdsql_crypto::ndet::OVERHEAD),
                        "{}: {:?}",
                        kind.name(),
                        ps.phase
                    );
                }
            }
        }
    }

    #[test]
    fn undersized_pad_names_the_phase_and_field() {
        let query = agg_query();
        let mut params = ProtocolParams::new(ProtocolKind::SAgg);
        params.pad = 16;
        let plan = PhasePlan::compile(&query, &params);
        let report = check_plan(&plan, &query, &WidthModel::default());
        assert!(!report.proven());
        let f = &report.findings[0];
        assert_eq!(f.phase, Phase::Collection);
        assert_eq!(f.pad, 16);
        assert!(
            f.render().starts_with("pad-too-small [collection]:"),
            "{}",
            f.render()
        );
    }

    #[test]
    fn wide_strings_raise_the_bound_above_the_pad() {
        // The same plan proven under the default model fails under a model
        // promising 200-byte strings — the soundness caveat made visible.
        let query = agg_query();
        let params = ProtocolParams::new(ProtocolKind::CNoise);
        let plan = PhasePlan::compile(&query, &params);
        let wide = WidthModel {
            max_str_content: 200,
        };
        let report = check_plan(&plan, &query, &wide);
        assert!(!report.proven());
        assert!(report
            .findings
            .iter()
            .any(|f| f.field.contains("group key")));
    }

    #[test]
    fn unpadded_emissions_are_declared_not_leaky() {
        let query = agg_query();
        let params = ProtocolParams::new(ProtocolKind::SAgg);
        let plan = PhasePlan::compile(&query, &params);
        let report = check_plan(&plan, &query, &WidthModel::default());
        for ps in report.phases {
            match ps.pad {
                Some(_) => assert!(matches!(ps.wire, WireVerdict::Constant(_))),
                None => assert!(matches!(ps.wire, WireVerdict::DeclaredVariable(_))),
            }
        }
    }
}
