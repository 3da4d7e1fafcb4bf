//! The protocol-agnostic execution plan — **one compiler, many interpreters**.
//!
//! The paper's four protocols (Basic, S_Agg, Rnf/C_Noise, ED_Hist) all share
//! one dataflow shape: *collect* sealed tuples from the TDS population,
//! *reduce* them (iteratively or per tag) and *finalize* the survivors into
//! sealed result rows. What distinguishes the protocols is a handful of
//! choices along that shape: which tag travels on collection tuples, how the
//! SSI partitions the working set, when reduction terminates, and where the
//! finalized rows are sealed to.
//!
//! [`PhasePlan::compile`] makes those choices explicit: it maps a query +
//! [`ProtocolParams`] to a small IR of steps that every backend interprets —
//! the sequential driver (`runtime::service`, in a simulated world or over
//! the wire), the concurrent runtime (`runtime::threaded`) and the
//! virtual-time DES bench
//! (`tdsql-bench::des`). The static analyzer (`tdsql-analyze`) lowers its
//! leakage labels from the same compiled plan, and the plan cross-checks
//! itself against the protocol's [`ExposureDeclaration`], so the artifact
//! that executes is the artifact that is audited.

use crate::leakage::{ExposureDeclaration, TagForm};
use crate::protocol::{ProtocolKind, ProtocolParams};
use crate::stats::Phase;
use crate::tds::{ResultDest, RetagMode};
use tdsql_sql::ast::Query;

/// Which cleartext tag collection tuples carry — the only partitioning
/// information the SSI ever gets, and therefore the protocol's whole
/// collection-phase exposure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagPolicy {
    /// Unlinkable `nDet` ciphertexts only (Basic, S_Agg).
    None,
    /// `Det_Enc(A_G)` per-group tags, hidden under fakes (noise protocols).
    DetPerGroup,
    /// Keyed bucket hashes `h(bucketId)` (ED_Hist).
    Bucket,
}

impl TagPolicy {
    /// The [`TagForm`] tuples sealed under this policy show the SSI.
    pub fn form(self) -> TagForm {
        match self {
            TagPolicy::None => TagForm::None,
            TagPolicy::DetPerGroup => TagForm::Det,
            TagPolicy::Bucket => TagForm::Bucket,
        }
    }
}

/// What the discovery pre-phase must produce before collection can start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoveryNeed {
    /// The grouping-attribute domain (C_Noise, Rnf_Noise fake sampling).
    Domain,
    /// The grouping-value distribution, flattened into equi-depth buckets.
    Histogram {
        /// Buckets to build from the discovered distribution.
        buckets: u32,
    },
}

/// The collection step: every reachable TDS evaluates the query locally and
/// uploads sealed, padded tuples under this tag policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectSpec {
    /// Tag attached to each sealed tuple.
    pub tag_policy: TagPolicy,
    /// Uniform payload size; encoding fails (instead of leaking) beyond it.
    pub pad: usize,
}

/// How the SSI splits the working set into partitions for TDS consumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Shuffle, then chunk — the SSI learns nothing from placement.
    Random {
        /// Maximum tuples per partition.
        chunk: usize,
    },
    /// Group equal tags together, then chunk each group — per-group
    /// parallelism bought with the tag exposure declared at collection.
    ByTag {
        /// Maximum tuples per partition.
        chunk: usize,
    },
}

/// When the iterative reduce phase stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Until {
    /// One batch remains in total (S_Agg's serial tail).
    SingleBatch,
    /// Every tag holds at most one batch (tag protocols stay parallel).
    TagSingletons,
}

/// The reduce step: a first wave over raw collection tuples, then iterated
/// waves over partial batches until the termination condition holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceSpec {
    /// Partitioning of the first wave (raw collection tuples, `chunk`-sized).
    pub first: Partitioning,
    /// Partitioning of every later wave (partial batches, α-sized).
    pub again: Partitioning,
    /// Tagging of reduce outputs.
    pub retag: RetagMode,
    /// Termination condition.
    pub until: Until,
}

impl ReduceSpec {
    /// The [`TagForm`] reduce outputs show the SSI.
    pub fn retag_form(&self) -> TagForm {
        match self.retag {
            RetagMode::None => TagForm::None,
            RetagMode::DetPerGroup => TagForm::Det,
        }
    }
}

/// What the finalize step does to each surviving tuple batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalizeOp {
    /// Drop dummies and re-seal plain rows (Basic).
    FilterRows,
    /// HAVING + projection over per-group partials (aggregate protocols).
    FinalizeGroups,
}

/// How the finalize step partitions the surviving working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalizePartitioning {
    /// One partition holding everything (S_Agg: a single final batch).
    Whole,
    /// Sequential chunks (tag protocols: one singleton batch per group).
    Chunked {
        /// Maximum tuples per partition.
        chunk: usize,
    },
    /// Shuffle + chunk (Basic: placement must stay uninformative).
    Random {
        /// Maximum tuples per partition.
        chunk: usize,
    },
}

/// The finalize step: seal results for `dest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinalizeSpec {
    /// Row-level operation.
    pub op: FinalizeOp,
    /// Who can open the results (`k1` querier, or `k2` for discovery).
    pub dest: ResultDest,
    /// Partitioning of the final working set.
    pub partitioning: FinalizePartitioning,
}

/// The wire format one phase's emissions are framed with (see
/// [`tuple_codec`](crate::tuple_codec) for the encoders and
/// [`tuple_codec::framing`](crate::tuple_codec::framing) for the header
/// arithmetic the static size verifier uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmissionCodec {
    /// `PlainTuple` framing: kind byte + row values, padded.
    PlainTuple,
    /// `AggInput` framing: fake flag + group key + input values, padded.
    AggInput,
    /// `PartialAggBatch` framing: per-group partial states, unpadded
    /// (ciphertext count is declared, contents are `nDet`-sealed).
    PartialBatch,
    /// `ResultRow` framing: finalized row values, unpadded.
    ResultRow,
}

/// One phase's emission contract: which codec frames the plaintext, whether
/// a uniform pad hides its length, and which tag travels in the clear.
///
/// This is the plan-level input to the static size-abstraction pass
/// (`tdsql-analyze::verify::sizes`): every emission with `pad: Some(_)`
/// must provably fit its pad for all reachable plaintexts, and every
/// emission with `pad: None` must be declared size-exempt (batch shapes
/// whose counts the SSI already learns from partitioning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmissionSpec {
    /// The phase whose uploads this describes.
    pub phase: Phase,
    /// Wire framing of the sealed plaintext.
    pub codec: EmissionCodec,
    /// Uniform plaintext pad (pre-encryption), if this emission is padded.
    pub pad: Option<usize>,
    /// The cleartext tag form accompanying each sealed blob.
    pub tag: TagForm,
}

/// The delivery contract one phase imposes on plan interpreters running
/// over at-least-once transport (see
/// [`PhasePlan::idempotence_requirements`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdempotenceRequirement {
    /// The phase the contract applies to.
    pub phase: Phase,
    /// Re-running the phase's computation on the same work item is
    /// harmless: the SSI may re-send a timed-out partition freely.
    pub replayable_compute: bool,
    /// Merging the same *output* twice changes the result: the SSI must
    /// settle each work item exactly once (assignment-id dedup).
    pub dedup_required: bool,
    /// One-line justification.
    pub why: &'static str,
}

/// A compiled, protocol-agnostic execution plan. Every backend interprets
/// this structure instead of dispatching on [`ProtocolKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhasePlan {
    /// Protocol the plan was compiled from (kept for envelopes/declarations).
    pub kind: ProtocolKind,
    /// Whether the query runs the Group By framework.
    pub aggregate: bool,
    /// Discovery pre-phase, when the protocol bootstraps from the domain.
    pub discovery: Option<DiscoveryNeed>,
    /// The collection step.
    pub collect: CollectSpec,
    /// The reduce step; `None` for Basic (collection feeds finalize directly).
    pub reduce: Option<ReduceSpec>,
    /// The finalize step.
    pub finalize: FinalizeSpec,
}

impl PhasePlan {
    /// Compile a query + protocol parameters into the execution plan. The
    /// mapping is total: every `ProtocolKind` has exactly one plan shape,
    /// and the compiled plan is debug-asserted against the protocol's
    /// [`ExposureDeclaration`].
    pub fn compile(query: &Query, params: &ProtocolParams) -> PhasePlan {
        let chunk = params.chunk.max(1);
        let alpha = params.alpha.max(2);
        let (tag_policy, discovery, reduce, finalize) = match params.kind {
            ProtocolKind::Basic => (
                TagPolicy::None,
                None,
                None,
                FinalizeSpec {
                    op: FinalizeOp::FilterRows,
                    dest: ResultDest::Querier,
                    partitioning: FinalizePartitioning::Random { chunk },
                },
            ),
            ProtocolKind::SAgg => (
                TagPolicy::None,
                None,
                Some(ReduceSpec {
                    first: Partitioning::Random { chunk },
                    again: Partitioning::Random { chunk: alpha },
                    retag: RetagMode::None,
                    until: Until::SingleBatch,
                }),
                FinalizeSpec {
                    op: FinalizeOp::FinalizeGroups,
                    dest: ResultDest::Querier,
                    partitioning: FinalizePartitioning::Whole,
                },
            ),
            ProtocolKind::RnfNoise { .. } | ProtocolKind::CNoise => (
                TagPolicy::DetPerGroup,
                Some(DiscoveryNeed::Domain),
                Some(ReduceSpec {
                    first: Partitioning::ByTag { chunk },
                    again: Partitioning::ByTag { chunk: alpha },
                    retag: RetagMode::DetPerGroup,
                    until: Until::TagSingletons,
                }),
                FinalizeSpec {
                    op: FinalizeOp::FinalizeGroups,
                    dest: ResultDest::Querier,
                    partitioning: FinalizePartitioning::Chunked { chunk },
                },
            ),
            ProtocolKind::EdHist { buckets } => (
                TagPolicy::Bucket,
                Some(DiscoveryNeed::Histogram { buckets }),
                Some(ReduceSpec {
                    first: Partitioning::ByTag { chunk },
                    again: Partitioning::ByTag { chunk: alpha },
                    retag: RetagMode::DetPerGroup,
                    until: Until::TagSingletons,
                }),
                FinalizeSpec {
                    op: FinalizeOp::FinalizeGroups,
                    dest: ResultDest::Querier,
                    partitioning: FinalizePartitioning::Chunked { chunk },
                },
            ),
        };
        let plan = PhasePlan {
            kind: params.kind,
            aggregate: query.is_aggregate(),
            discovery,
            collect: CollectSpec {
                tag_policy,
                pad: params.pad,
            },
            reduce,
            finalize,
        };
        debug_assert!(
            plan.undeclared_exposures().is_empty(),
            "compiled plan exposes undeclared tag forms: {:?}",
            plan.undeclared_exposures()
        );
        plan
    }

    /// Redirect the finalize step (the discovery sub-protocol seals for
    /// TDSs instead of the querier).
    pub fn with_dest(mut self, dest: ResultDest) -> PhasePlan {
        self.finalize.dest = dest;
        self
    }

    /// Every (phase, tag form) pair the plan will show the SSI.
    pub fn exposed_forms(&self) -> Vec<(Phase, TagForm)> {
        let mut out = vec![(Phase::Collection, self.collect.tag_policy.form())];
        if let Some(reduce) = &self.reduce {
            out.push((Phase::Aggregation, reduce.retag_form()));
        }
        out.push((Phase::Filtering, TagForm::None));
        out
    }

    /// Every emission the plan's phases put on the wire, in phase order.
    ///
    /// The discovery pre-phase runs an S_Agg sub-protocol, so its uploads
    /// are padded `AggInput` frames under the same pad; collection uploads
    /// are `AggInput` (aggregate queries) or `PlainTuple` (SFW) frames,
    /// padded; reduce outputs are `PartialAggBatch` frames whose size is a
    /// declared function of the partition's group count, not of any tuple's
    /// content; finalize outputs are `ResultRow` frames sealed per row.
    pub fn emissions(&self) -> Vec<EmissionSpec> {
        let mut out = Vec::new();
        if self.discovery.is_some() {
            out.push(EmissionSpec {
                phase: Phase::Discovery,
                codec: EmissionCodec::AggInput,
                pad: Some(self.collect.pad),
                tag: TagForm::None,
            });
        }
        out.push(EmissionSpec {
            phase: Phase::Collection,
            codec: if self.aggregate {
                EmissionCodec::AggInput
            } else {
                EmissionCodec::PlainTuple
            },
            pad: Some(self.collect.pad),
            tag: self.collect.tag_policy.form(),
        });
        if let Some(reduce) = &self.reduce {
            out.push(EmissionSpec {
                phase: Phase::Aggregation,
                codec: EmissionCodec::PartialBatch,
                pad: None,
                tag: reduce.retag_form(),
            });
        }
        out.push(EmissionSpec {
            phase: Phase::Filtering,
            codec: EmissionCodec::ResultRow,
            pad: None,
            tag: TagForm::None,
        });
        out
    }

    /// Cross-check the plan against the protocol's [`ExposureDeclaration`]:
    /// returns every (phase, form) the plan exposes but the declaration does
    /// not allow. Empty for every plan [`PhasePlan::compile`] produces; a
    /// hand-mutated (mislabeled) plan reports its leaks here.
    pub fn undeclared_exposures(&self) -> Vec<(Phase, TagForm)> {
        let decl = ExposureDeclaration::for_protocol(self.kind);
        self.exposed_forms()
            .into_iter()
            .filter(|(phase, form)| !decl.allows(*phase, *form))
            .collect()
    }

    /// The delivery contract each phase of this plan imposes on an
    /// interpreter running over at-least-once transport.
    ///
    /// Every interpreter (round, threaded, DES) must honour these: the
    /// transport may re-send, duplicate, delay or corrupt any message, so
    /// the contract splits into what may be repeated freely and what must
    /// be deduplicated. Workers are pure functions of their input
    /// partition (plus an RNG that only affects ciphertext freshness), so
    /// *compute* is always replayable; *outputs* are additive contributions
    /// (tuples, partial aggregates, result rows), so *settlement* must be
    /// exactly-once — the SSI's assignment-id ledger enforces it.
    pub fn idempotence_requirements(&self) -> Vec<IdempotenceRequirement> {
        let mut out = Vec::new();
        if self.discovery.is_some() {
            out.push(IdempotenceRequirement {
                phase: Phase::Discovery,
                replayable_compute: true,
                dedup_required: true,
                why: "the discovery sub-query is an S_Agg run; duplicated \
                      deliveries skew the discovered distribution",
            });
        }
        out.push(IdempotenceRequirement {
            phase: Phase::Collection,
            replayable_compute: true,
            dedup_required: true,
            why: "a TDS contribution merged twice double-counts its tuples",
        });
        if self.reduce.is_some() {
            out.push(IdempotenceRequirement {
                phase: Phase::Aggregation,
                replayable_compute: true,
                dedup_required: true,
                why: "partial aggregates are additive; a duplicated batch double-counts",
            });
        }
        out.push(IdempotenceRequirement {
            phase: Phase::Filtering,
            replayable_compute: true,
            dedup_required: true,
            why: "a duplicated finalize batch emits duplicate result rows",
        });
        out
    }

    /// Render the plan as stable, line-oriented text (used by `explain` and
    /// the golden plan-snapshot tests).
    pub fn render(&self) -> Vec<String> {
        fn part(p: Partitioning) -> String {
            match p {
                Partitioning::Random { chunk } => format!("random({chunk})"),
                Partitioning::ByTag { chunk } => format!("by-tag({chunk})"),
            }
        }
        let mut out = Vec::new();
        match self.discovery {
            Some(DiscoveryNeed::Domain) => out.push(
                "discovery: grouping domain via k2-sealed S_Agg sub-query".to_string(),
            ),
            Some(DiscoveryNeed::Histogram { buckets }) => out.push(format!(
                "discovery: distribution histogram ({buckets} buckets) via k2-sealed S_Agg sub-query"
            )),
            None => {}
        }
        let tag = match self.collect.tag_policy {
            TagPolicy::None => "none",
            TagPolicy::DetPerGroup => "det",
            TagPolicy::Bucket => "bucket",
        };
        out.push(format!("collect:   tag={tag} pad={}", self.collect.pad));
        if let Some(r) = &self.reduce {
            let retag = match r.retag {
                RetagMode::None => "none",
                RetagMode::DetPerGroup => "det",
            };
            let until = match r.until {
                Until::SingleBatch => "single batch",
                Until::TagSingletons => "tag singletons",
            };
            out.push(format!(
                "reduce:    {} then {} [retag={retag}] until {until}",
                part(r.first),
                part(r.again)
            ));
        }
        let op = match self.finalize.op {
            FinalizeOp::FilterRows => "filter rows",
            FinalizeOp::FinalizeGroups => "finalize groups",
        };
        let dest = match self.finalize.dest {
            ResultDest::Querier => "querier (k1)",
            ResultDest::Tds => "tds (k2)",
        };
        let fpart = match self.finalize.partitioning {
            FinalizePartitioning::Whole => "whole".to_string(),
            FinalizePartitioning::Chunked { chunk } => format!("chunked({chunk})"),
            FinalizePartitioning::Random { chunk } => format!("random({chunk})"),
        };
        out.push(format!("finalize:  {op} via {fpart} -> {dest}"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_sql::parser::parse_query;

    fn agg_query() -> Query {
        parse_query("SELECT district, COUNT(*) FROM consumer GROUP BY district").unwrap()
    }

    fn sfw_query() -> Query {
        parse_query("SELECT cid FROM consumer WHERE cons > 1").unwrap()
    }

    const ALL_KINDS: [ProtocolKind; 5] = [
        ProtocolKind::Basic,
        ProtocolKind::SAgg,
        ProtocolKind::RnfNoise { nf: 2 },
        ProtocolKind::CNoise,
        ProtocolKind::EdHist { buckets: 4 },
    ];

    #[test]
    fn compiled_plans_match_their_declarations() {
        for kind in ALL_KINDS {
            let query = if kind == ProtocolKind::Basic {
                sfw_query()
            } else {
                agg_query()
            };
            let plan = PhasePlan::compile(&query, &ProtocolParams::new(kind));
            assert!(
                plan.undeclared_exposures().is_empty(),
                "{}: {:?}",
                kind.name(),
                plan.undeclared_exposures()
            );
        }
    }

    #[test]
    fn basic_has_no_reduce_and_no_discovery() {
        let plan = PhasePlan::compile(&sfw_query(), &ProtocolParams::new(ProtocolKind::Basic));
        assert!(plan.reduce.is_none());
        assert!(plan.discovery.is_none());
        assert_eq!(plan.finalize.op, FinalizeOp::FilterRows);
        assert!(matches!(
            plan.finalize.partitioning,
            FinalizePartitioning::Random { chunk: 256 }
        ));
    }

    #[test]
    fn s_agg_reduces_randomly_to_a_single_batch() {
        let plan = PhasePlan::compile(&agg_query(), &ProtocolParams::new(ProtocolKind::SAgg));
        let reduce = plan.reduce.unwrap();
        assert_eq!(reduce.first, Partitioning::Random { chunk: 256 });
        assert_eq!(reduce.again, Partitioning::Random { chunk: 4 });
        assert_eq!(reduce.until, Until::SingleBatch);
        assert_eq!(reduce.retag, RetagMode::None);
        assert_eq!(plan.finalize.partitioning, FinalizePartitioning::Whole);
        assert_eq!(plan.collect.tag_policy, TagPolicy::None);
    }

    #[test]
    fn tag_protocols_reduce_per_tag_to_singletons() {
        for kind in [
            ProtocolKind::RnfNoise { nf: 3 },
            ProtocolKind::CNoise,
            ProtocolKind::EdHist { buckets: 4 },
        ] {
            let plan = PhasePlan::compile(&agg_query(), &ProtocolParams::new(kind));
            let reduce = plan.reduce.unwrap();
            assert_eq!(reduce.first, Partitioning::ByTag { chunk: 256 });
            assert_eq!(reduce.again, Partitioning::ByTag { chunk: 4 });
            assert_eq!(reduce.until, Until::TagSingletons);
            assert_eq!(reduce.retag, RetagMode::DetPerGroup);
            assert!(plan.discovery.is_some(), "{}", kind.name());
        }
    }

    #[test]
    fn ed_hist_buckets_at_collection_det_at_reduce() {
        let plan = PhasePlan::compile(
            &agg_query(),
            &ProtocolParams::new(ProtocolKind::EdHist { buckets: 7 }),
        );
        assert_eq!(plan.collect.tag_policy, TagPolicy::Bucket);
        assert_eq!(plan.reduce.unwrap().retag_form(), TagForm::Det);
        assert_eq!(
            plan.discovery,
            Some(DiscoveryNeed::Histogram { buckets: 7 })
        );
    }

    #[test]
    fn alpha_and_chunk_are_clamped() {
        let mut params = ProtocolParams::new(ProtocolKind::SAgg);
        params.chunk = 0;
        params.alpha = 0;
        let plan = PhasePlan::compile(&agg_query(), &params);
        let reduce = plan.reduce.unwrap();
        assert_eq!(reduce.first, Partitioning::Random { chunk: 1 });
        assert_eq!(reduce.again, Partitioning::Random { chunk: 2 });
    }

    #[test]
    fn mislabeled_plan_reports_undeclared_exposure() {
        let mut plan = PhasePlan::compile(&agg_query(), &ProtocolParams::new(ProtocolKind::SAgg));
        plan.collect.tag_policy = TagPolicy::DetPerGroup;
        assert_eq!(
            plan.undeclared_exposures(),
            vec![(Phase::Collection, TagForm::Det)]
        );
    }

    #[test]
    fn with_dest_redirects_finalize_only() {
        let plan = PhasePlan::compile(&agg_query(), &ProtocolParams::new(ProtocolKind::SAgg))
            .with_dest(ResultDest::Tds);
        assert_eq!(plan.finalize.dest, ResultDest::Tds);
        assert_eq!(plan.finalize.op, FinalizeOp::FinalizeGroups);
    }

    #[test]
    fn every_phase_requires_exactly_once_settlement() {
        for kind in ALL_KINDS {
            let query = if kind == ProtocolKind::Basic {
                sfw_query()
            } else {
                agg_query()
            };
            let plan = PhasePlan::compile(&query, &ProtocolParams::new(kind));
            let reqs = plan.idempotence_requirements();
            let phases: Vec<Phase> = reqs.iter().map(|r| r.phase).collect();
            let mut expected = Vec::new();
            if plan.discovery.is_some() {
                expected.push(Phase::Discovery);
            }
            expected.push(Phase::Collection);
            if plan.reduce.is_some() {
                expected.push(Phase::Aggregation);
            }
            expected.push(Phase::Filtering);
            assert_eq!(phases, expected, "{}", kind.name());
            for r in reqs {
                assert!(
                    r.replayable_compute,
                    "{}: {:?} compute replays",
                    kind.name(),
                    r.phase
                );
                assert!(
                    r.dedup_required,
                    "{}: {:?} outputs must dedup",
                    kind.name(),
                    r.phase
                );
            }
        }
    }

    #[test]
    fn emissions_track_phases_tags_and_pads() {
        for kind in ALL_KINDS {
            let query = if kind == ProtocolKind::Basic {
                sfw_query()
            } else {
                agg_query()
            };
            let plan = PhasePlan::compile(&query, &ProtocolParams::new(kind));
            let emissions = plan.emissions();
            // Phase order mirrors idempotence_requirements.
            let phases: Vec<Phase> = emissions.iter().map(|e| e.phase).collect();
            let contract: Vec<Phase> = plan
                .idempotence_requirements()
                .iter()
                .map(|r| r.phase)
                .collect();
            assert_eq!(phases, contract, "{}", kind.name());
            // Tags per phase mirror exposed_forms (discovery is an S_Agg
            // sub-run, always untagged).
            for e in &emissions {
                let want = match e.phase {
                    Phase::Discovery => TagForm::None,
                    _ => {
                        plan.exposed_forms()
                            .into_iter()
                            .find(|(p, _)| *p == e.phase)
                            .unwrap()
                            .1
                    }
                };
                assert_eq!(e.tag, want, "{}: {:?}", kind.name(), e.phase);
            }
            // Uploads that carry raw tuple content are padded; batch/row
            // shapes are the declared exemptions.
            for e in emissions {
                match e.codec {
                    EmissionCodec::PlainTuple | EmissionCodec::AggInput => {
                        assert_eq!(e.pad, Some(64), "{}: {:?}", kind.name(), e.phase)
                    }
                    EmissionCodec::PartialBatch | EmissionCodec::ResultRow => {
                        assert_eq!(e.pad, None, "{}: {:?}", kind.name(), e.phase)
                    }
                }
            }
        }
    }

    #[test]
    fn render_is_stable_per_protocol() {
        let text = PhasePlan::compile(&agg_query(), &ProtocolParams::new(ProtocolKind::SAgg))
            .render()
            .join("\n");
        assert!(text.contains("collect:   tag=none pad=64"), "{text}");
        assert!(text.contains("until single batch"), "{text}");
        let text = PhasePlan::compile(
            &agg_query(),
            &ProtocolParams::new(ProtocolKind::EdHist { buckets: 3 }),
        )
        .render()
        .join("\n");
        assert!(
            text.contains("discovery: distribution histogram (3 buckets)"),
            "{text}"
        );
        assert!(text.contains("tag=bucket"), "{text}");
    }
}
