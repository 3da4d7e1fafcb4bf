//! Transport-agnostic service seam between the runtime driver, the SSI and
//! the TDS population.
//!
//! After compilation a query is executed by a *driver* (the
//! [`crate::runtime::service::ServiceDriver`]) that talks to two parties:
//!
//! * the untrusted SSI, through [`SsiService`] — post/download envelopes,
//!   the at-least-once settle ledger (items, assignments, delivery
//!   outcomes), the working set and the result area;
//! * the TDS population, through [`TdsPool`] — one [`TdsStep`] per
//!   protocol-phase unit of work, always on ciphertext envelopes.
//!
//! The in-process implementations ([`Ssi`] itself and [`LocalTdsPool`])
//! are what [`crate::runtime::SimWorld`] drives; `tdsql-net` implements
//! the same two traits over a length-prefixed framed TCP protocol, so the
//! `ssi-server` / `tds-pool` / `querier` binaries run the *same* compiled
//! [`crate::plan::PhasePlan`] with zero per-backend protocol forks.
//!
//! Transport failures are part of the design, not an afterthought: remote
//! implementations map every socket-level failure (connection reset, short
//! read, frame timeout) into [`ProtocolError::Transport`], recognised by
//! [`is_transport_error`]. The driver
//! treats those exactly like fault-plan events — a failed TDS step becomes
//! a reassignment, a failed delivery a lost upload — so retry budgets,
//! dedup and [`ProtocolError::QueryAborted`] cover the real network for
//! free.

use std::ops::Deref;
use std::sync::Arc;

use tdsql_crypto::rng::{SeedableRng, StdRng};
use tdsql_sql::value::Value;

use crate::bytes::Bytes;
use crate::error::{ProtocolError, Result};
use crate::message::{AssignmentId, DeliveryOutcome, QueryEnvelope, StoredTuple};
use crate::protocol::ProtocolParams;
use crate::ssi::Ssi;
use crate::stats::Phase;
use crate::tds::{QueryOpenCache, ResultDest, RetagMode, Tds};

/// One unit of TDS work, as dispatched by the driver. This is the entire
/// per-phase vocabulary of the compiled plan: collection, the two reduce
/// flavours, and the two finalize flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TdsStep {
    /// Collection (steps 2–5): decrypt the envelope, evaluate locally,
    /// upload padded/dummied tuples. The partition input is empty.
    Collect,
    /// First aggregation wave: reduce raw collection tuples.
    ReduceInputs {
        /// Output tagging mode from the plan's reduce spec.
        retag: RetagMode,
    },
    /// Later aggregation waves: merge partial-aggregation batches.
    ReducePartials {
        /// Output tagging mode from the plan's reduce spec.
        retag: RetagMode,
    },
    /// Basic protocol finalize: drop dummies, re-encrypt rows under `k1`.
    FilterPlain,
    /// Aggregate finalize: HAVING + projection, sealed for `dest`.
    FinalizeGroups {
        /// Destination keying of the final rows.
        dest: ResultDest,
    },
}

/// What a [`TdsStep`] produced: intermediates for the SSI working set, or
/// final sealed rows for the result area.
#[derive(Debug, Clone)]
pub enum StepResult {
    /// Encrypted intermediate tuples (collection and reduce steps).
    Working(Vec<StoredTuple>),
    /// Final sealed result rows (finalize steps).
    Results(Vec<Bytes>),
}

/// The full argument set of [`TdsPool::step`] minus the pool index: one
/// part of a [`TdsPool::multi_step`] call.
///
/// No runtime builds these. The type stays only because the benchmark
/// workspace's `TracedPool` overrides [`TdsPool::multi_step`], and goes
/// with that method when the benchmark is re-based.
#[derive(Debug, Clone)]
pub struct MultiStepPart {
    /// The posted envelope of the part's query.
    pub env: QueryEnvelope,
    /// Protocol parameters of the part's query.
    pub params: ProtocolParams,
    /// The issuing driver's round clock (credential expiry checks).
    pub now_round: u64,
    /// The step to execute.
    pub step: TdsStep,
    /// Input partition (empty for collection).
    pub partition: Vec<StoredTuple>,
    /// Seed for the step's TDS-side randomness.
    pub rng_seed: u64,
}

/// Build the typed error a remote implementation reports when the
/// transport itself fails.
pub fn transport_error(what: impl std::fmt::Display) -> ProtocolError {
    ProtocolError::Transport(what.to_string())
}

/// Is this error a transport failure (connection reset, short read, frame
/// timeout, backend unreachable through the bounded reconnect policy)
/// rather than a protocol-level rejection? The driver maps these onto the
/// fault taxonomy: a failed step is retried under the work item's budget
/// instead of aborting the query.
pub fn is_transport_error(err: &ProtocolError) -> bool {
    matches!(
        err,
        ProtocolError::Transport(_) | ProtocolError::BackendUnavailable { .. }
    )
}

/// The SSI as the driver sees it: envelope board, settle ledger, working
/// set and result area. Every method returns [`Result`] so a remote
/// implementation can surface transport failures; the in-process [`Ssi`]
/// never fails on the infallible subset.
///
/// Method semantics are exactly those of the corresponding [`Ssi`]
/// methods — the trait exists so the *wire* can stand in for the struct.
pub trait SsiService: Send + Sync {
    /// Post a query envelope; returns the SSI-assigned query id.
    fn post_query(&self, envelope: QueryEnvelope) -> Result<u64>;
    /// Download the posted envelope.
    fn envelope(&self, query_id: u64) -> Result<QueryEnvelope>;
    /// Allocate a work item in the settle ledger.
    fn new_item(&self, query_id: u64) -> Result<u64>;
    /// Begin a delivery attempt for a work item.
    fn begin_assignment(&self, query_id: u64, item: u64) -> Result<AssignmentId>;
    /// Has this work item already been completed by some assignment?
    fn item_done(&self, query_id: u64, item: u64) -> Result<bool>;
    /// Deliver a collection contribution under an assignment.
    fn receive_collection(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome>;
    /// Number of collected tuples parked on the SSI.
    fn collection_count(&self, query_id: u64) -> Result<usize>;
    /// Has the SIZE tuple bound been reached?
    fn size_tuples_reached(&self, query_id: u64) -> Result<bool>;
    /// Close the collection window.
    fn close_collection(&self, query_id: u64) -> Result<()>;
    /// Drain the working set for partitioning.
    fn take_working(&self, query_id: u64) -> Result<Vec<StoredTuple>>;
    /// Put tuples back into the working set without a delivery (driver
    /// bookkeeping: final batches and pass-through singletons).
    fn restore_working(&self, query_id: u64, phase: Phase, tuples: Vec<StoredTuple>) -> Result<()>;
    /// Deliver intermediate tuples under an assignment.
    fn receive_working(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        phase: Phase,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome>;
    /// Deliver final sealed rows under an assignment.
    fn receive_results(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        rows: Vec<Bytes>,
    ) -> Result<DeliveryOutcome>;
    /// Download the final result blobs.
    fn results(&self, query_id: u64) -> Result<Vec<Bytes>>;
    /// Drop all server-side state of a query.
    fn purge_query(&self, query_id: u64) -> Result<()>;
}

impl SsiService for Ssi {
    fn post_query(&self, envelope: QueryEnvelope) -> Result<u64> {
        Ssi::post_query_durable(self, envelope)
    }
    fn envelope(&self, query_id: u64) -> Result<QueryEnvelope> {
        Ssi::envelope(self, query_id)
    }
    fn new_item(&self, query_id: u64) -> Result<u64> {
        Ssi::new_item(self, query_id)
    }
    fn begin_assignment(&self, query_id: u64, item: u64) -> Result<AssignmentId> {
        Ssi::begin_assignment(self, query_id, item)
    }
    fn item_done(&self, query_id: u64, item: u64) -> Result<bool> {
        Ssi::item_done(self, query_id, item)
    }
    fn receive_collection(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome> {
        Ssi::receive_collection(self, query_id, assignment, tuples)
    }
    fn collection_count(&self, query_id: u64) -> Result<usize> {
        Ssi::collection_count(self, query_id)
    }
    fn size_tuples_reached(&self, query_id: u64) -> Result<bool> {
        Ssi::size_tuples_reached(self, query_id)
    }
    fn close_collection(&self, query_id: u64) -> Result<()> {
        Ssi::close_collection(self, query_id)
    }
    fn take_working(&self, query_id: u64) -> Result<Vec<StoredTuple>> {
        Ssi::take_working(self, query_id)
    }
    fn restore_working(&self, query_id: u64, phase: Phase, tuples: Vec<StoredTuple>) -> Result<()> {
        Ssi::restore_working(self, query_id, phase, tuples)
    }
    fn receive_working(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        phase: Phase,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome> {
        Ssi::receive_working(self, query_id, assignment, phase, tuples)
    }
    fn receive_results(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        rows: Vec<Bytes>,
    ) -> Result<DeliveryOutcome> {
        Ssi::receive_results(self, query_id, assignment, rows)
    }
    fn results(&self, query_id: u64) -> Result<Vec<Bytes>> {
        Ssi::results(self, query_id)
    }
    fn purge_query(&self, query_id: u64) -> Result<()> {
        Ssi::purge_query(self, query_id)
    }
}

/// The TDS population as the driver sees it: an indexed pool of trusted
/// parties, each able to execute any [`TdsStep`] against a posted envelope.
///
/// Per-step randomness (nDet nonces, dummy placement, fake generation) is
/// derived pool-side from the driver-chosen `rng_seed`, so a run is exactly
/// reproducible whether the pool lives in-process or behind a socket.
pub trait TdsPool: Send + Sync {
    /// Population size.
    fn len(&self) -> Result<usize>;
    /// Is the pool empty? (Required by the len/is_empty lint pairing;
    /// a deployment always has a population.)
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
    /// Burn-time TDS ids, indexed by pool position (personal-querybox
    /// routing matches [`crate::message::QueryTarget`] against these).
    fn tds_ids(&self) -> Result<Vec<u64>>;
    /// Execute one protocol step on TDS `index`. `now_round` is the
    /// driver's round clock (credential expiry checks); `partition` is
    /// empty for [`TdsStep::Collect`].
    fn step(
        &self,
        index: usize,
        env: &QueryEnvelope,
        params: &ProtocolParams,
        now_round: u64,
        step: TdsStep,
        partition: &[StoredTuple],
        rng_seed: u64,
    ) -> Result<StepResult>;
    /// Open `k2`-sealed result rows inside the TDS trust domain (discovery
    /// distributions never leave it un-sealed; the driver only ever sees
    /// the parsed distribution applied to its protocol params).
    fn open_rows(&self, blobs: &[Bytes]) -> Result<Vec<Vec<Value>>>;

    /// Execute several steps on TDS `index`, one [`TdsPool::step`] per
    /// part, each with its own result.
    ///
    /// No runtime calls this. It stays only because the benchmark
    /// workspace's `TracedPool` overrides it, and goes when the benchmark
    /// is re-based.
    fn multi_step(&self, index: usize, parts: &[MultiStepPart]) -> Result<Vec<Result<StepResult>>> {
        Ok(parts
            .iter()
            .map(|p| {
                self.step(
                    index,
                    &p.env,
                    &p.params,
                    p.now_round,
                    p.step,
                    &p.partition,
                    p.rng_seed,
                )
            })
            .collect())
    }
}

/// The in-process pool: a population of [`Tds`] instances, as provisioned
/// by [`crate::runtime::SimBuilder`] or the workload generators. `P` is how
/// the population is held — shared (`Arc<Vec<Tds>>`, the default: served
/// pools, deployments) or borrowed for one call (`&Vec<Tds>`, how
/// [`crate::runtime::SimWorld`] lends its own).
///
/// The pool owns the [`QueryOpenCache`] its steps open envelopes through, so
/// the decrypt + parse + plan of a posted query happens once per pool — not
/// once per TDS per step — whether the pool is driven in process or served
/// by `tds-pool`. Credential and access-policy checks still run per step.
pub struct LocalTdsPool<P = Arc<Vec<Tds>>> {
    tdss: P,
    open_cache: QueryOpenCache,
}

impl<P: Deref<Target = Vec<Tds>>> LocalTdsPool<P> {
    /// Wrap a provisioned population.
    pub fn new(tdss: P) -> Self {
        Self {
            tdss,
            open_cache: QueryOpenCache::new(),
        }
    }

    /// The underlying population (direct TDS access for kernels and tests).
    pub fn tdss(&self) -> &[Tds] {
        &self.tdss
    }

    fn tds(&self, index: usize) -> Result<&Tds> {
        self.tdss.get(index).ok_or_else(|| {
            ProtocolError::Protocol(format!("TDS index {index} out of population bounds"))
        })
    }
}

impl<P: Deref<Target = Vec<Tds>> + Send + Sync> TdsPool for LocalTdsPool<P> {
    fn len(&self) -> Result<usize> {
        Ok(self.tdss.len())
    }

    fn tds_ids(&self) -> Result<Vec<u64>> {
        Ok(self.tdss.iter().map(|t| t.id).collect())
    }

    fn step(
        &self,
        index: usize,
        env: &QueryEnvelope,
        params: &ProtocolParams,
        now_round: u64,
        step: TdsStep,
        partition: &[StoredTuple],
        rng_seed: u64,
    ) -> Result<StepResult> {
        let tds = self.tds(index)?;
        let ctx =
            tds.open_query_cached(env, Arc::new(params.clone()), now_round, &self.open_cache)?;
        let mut rng = StdRng::seed_from_u64(rng_seed);
        Ok(match step {
            TdsStep::Collect => StepResult::Working(tds.collect(&ctx, &mut rng)?),
            TdsStep::ReduceInputs { retag } => {
                StepResult::Working(tds.reduce_inputs(&ctx, partition, retag, &mut rng)?)
            }
            TdsStep::ReducePartials { retag } => {
                StepResult::Working(tds.reduce_partials(&ctx, partition, retag, &mut rng)?)
            }
            TdsStep::FilterPlain => {
                StepResult::Results(tds.filter_plain(&ctx, partition, &mut rng)?)
            }
            TdsStep::FinalizeGroups { dest } => {
                StepResult::Results(tds.finalize_groups(&ctx, partition, dest, &mut rng)?)
            }
        })
    }

    fn open_rows(&self, blobs: &[Bytes]) -> Result<Vec<Vec<Value>>> {
        let opener = self
            .tdss
            .first()
            .ok_or_else(|| ProtocolError::Protocol("empty TDS population".into()))?;
        opener.open_k2_rows(blobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_errors_are_recognised() {
        let e = transport_error("connection reset by peer");
        assert!(is_transport_error(&e));
        match &e {
            ProtocolError::Transport(s) => assert!(s.contains("connection reset")),
            other => panic!("wrong variant: {other:?}"),
        }
        // The class is the variant, never the message: a codec error that
        // merely *says* "transport:" is not retryable.
        assert!(!is_transport_error(&ProtocolError::Codec(
            "transport: unexpected end".into()
        )));
        assert!(!is_transport_error(&ProtocolError::AccessDenied));
        // The terminal reconnect-exhaustion form is a transport error too:
        // the driver folds it into the same reassignment/lost-upload paths.
        assert!(is_transport_error(&ProtocolError::BackendUnavailable {
            peer: "tds-pool",
            attempts: 4,
        }));
        assert!(!is_transport_error(&ProtocolError::JournalCorrupt {
            offset: 12,
            what: "checksum mismatch".into(),
        }));
    }
}
