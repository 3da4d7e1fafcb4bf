//! The Supporting Server Infrastructure — powerful, highly available,
//! **untrusted**.
//!
//! The SSI manages queryboxes, stores encrypted intermediate results and
//! evaluates the cleartext SIZE clause. It is honest-but-curious: it follows
//! the protocol faithfully but records everything it can see in an
//! observation log, which the security tests and the exposure analysis mine
//! for leaks. By construction this type holds only ciphertexts ([`bytes::Bytes`]
//! blobs) and tags — there is no code path by which it could decrypt.
//!
//! Concurrency: every delivery method takes `&self`. Per-query state lives
//! behind an [`Arc`] handle pulled from a briefly read-locked registry, and
//! inside a query the exactly-once bookkeeping is one lock-striped
//! [`SettleLedger`] ([`ledger`] — the transition tables, the striping and
//! the argument for both live there), so concurrent deliveries serialize
//! only when they genuinely race on the same item or assignment.
//!
//! With a settle journal attached the picture changes deliberately: every
//! mutating method enters the journal critical section *before* its
//! in-memory mutation and holds it through the record append ([`Ssi::seq`]),
//! so the journal's record order is exactly the mutation order and replay
//! can hold the strict lifecycle checks it does. Durability serializes
//! writers anyway (one append-only file), so the striping win is reserved
//! for the journal-less in-process deployments that actually profit from it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use tdsql_crypto::sha256::Sha256;
use tdsql_obs::{Field, Obs};

use crate::bytes::Bytes;

use crate::error::{ProtocolError, Result};
use crate::leakage::{ExposureDeclaration, TagForm};
use crate::message::{
    AssignmentId, DeliveryOutcome, GroupTag, Observation, QueryEnvelope, StoredTuple,
};
use crate::protocol::ProtocolKind;
use crate::stats::Phase;

pub mod journal;
pub mod ledger;
pub mod sched;

pub use journal::{Journal, JournalConfig, JournalRecord, SyncPolicy};
pub use ledger::{
    settle_transition, window_guard, GuardAction, ItemState, LedgerState, PhaseClass, SettleLedger,
    SettleTransition, SettleVerdict, SlotState, WindowGuard, WindowState, SETTLE_TRANSITIONS,
    WINDOW_GUARDS,
};
pub use sched::{DiscoveryCache, Permit, SchedConfig, Scheduler};

/// Lock a mutex, recovering the data on poison: a panicking delivery thread
/// must not poison the server for everyone else.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A held journal sequencing section (see [`Ssi::seq`]): `Some` guard when
/// a journal is attached, `None` — and zero cost — when not.
type Seq<'a> = Option<MutexGuard<'a, journal::Journal>>;

/// Work-item ids are reserved in the journal a block at a time: one
/// `ItemAllocated` record, naming the block's last id, covers this many
/// [`Ssi::new_item`] calls. Blocks are aligned to multiples of it.
const ITEM_BLOCK: u64 = 64;

/// Debug-mode leak tripwire: every tag form the SSI observes must appear in
/// the posting protocol's [`ExposureDeclaration`]. A failure here means a
/// plan interpreter showed the SSI partitioning information the static
/// analyzer never declared — a leak, caught at the exact receive call.
/// Compiled out of release builds (the SSI is untrusted; the check protects
/// the TDS-side plan execution during development, not the server).
fn debug_check_declared(envelope: &QueryEnvelope, phase: Phase, upload: &Upload) {
    if cfg!(debug_assertions) {
        let decl = ExposureDeclaration::for_protocol(envelope.protocol);
        for (tag, _) in upload.parts() {
            let form = TagForm::of(tag);
            debug_assert!(
                decl.allows(phase, form),
                "undeclared exposure: protocol {} showed the SSI a {:?} tag \
                 during {:?} (declared: {:?}) — query {}",
                envelope.protocol.name(),
                form,
                phase,
                decl.allowed(phase),
                envelope.query_id,
            );
        }
    }
}

/// Per-query server-side state, shared by `Arc` so deliveries to different
/// queries never hold the registry lock while they work.
#[derive(Debug)]
struct QueryHandle {
    /// Immutable after posting.
    envelope: QueryEnvelope,
    /// Covering Result of the collection phase.
    collection: Mutex<Vec<StoredTuple>>,
    /// Working set of the aggregation phase.
    working: Mutex<Vec<StoredTuple>>,
    /// Final `k1`-encrypted rows awaiting the querier.
    results: Mutex<Vec<Bytes>>,
    collection_closed: AtomicBool,
    /// Work items, assignments and who settled what.
    ledger: SettleLedger,
    /// Item ids below this are reserved in the journal (see
    /// [`Ssi::new_item`]); unused when no journal is attached. Touched only
    /// inside the sequencing section or by single-threaded replay, whose
    /// mutex orders it, so `Relaxed` suffices.
    reserved: AtomicU64,
}

impl QueryHandle {
    fn new(envelope: QueryEnvelope) -> Self {
        Self {
            envelope,
            collection: Mutex::new(Vec::new()),
            working: Mutex::new(Vec::new()),
            results: Mutex::new(Vec::new()),
            collection_closed: AtomicBool::new(false),
            ledger: SettleLedger::new(),
            reserved: AtomicU64::new(0),
        }
    }

    fn window(&self) -> WindowState {
        if self.collection_closed.load(Ordering::Acquire) {
            WindowState::Closed
        } else {
            WindowState::Open
        }
    }
}

/// What a delivery carries: tagged intermediate tuples (collection,
/// aggregation) or sealed, untagged result rows (filtering).
enum Upload {
    Tuples(Vec<StoredTuple>),
    Rows(Vec<Bytes>),
}

impl Upload {
    /// Everything the SSI can see of the payload: each ciphertext with the
    /// tag it travelled under (result rows travel untagged).
    fn parts(&self) -> impl Iterator<Item = (&GroupTag, &Bytes)> {
        let (tuples, rows): (&[StoredTuple], &[Bytes]) = match self {
            Upload::Tuples(tuples) => (tuples, &[]),
            Upload::Rows(rows) => (&[], rows),
        };
        tuples
            .iter()
            .map(|t| (&t.tag, &t.blob))
            .chain(rows.iter().map(|blob| (&GroupTag::None, blob)))
    }
}

/// A [`SettleVerdict`] as the service surface reports it: the four
/// [`DeliveryOutcome`]s, or the typed refusal naming `refused`.
fn outcome_of(
    query_id: u64,
    verdict: SettleVerdict,
    refused: &'static str,
) -> Result<DeliveryOutcome> {
    match verdict {
        SettleVerdict::Accepted => Ok(DeliveryOutcome::Accepted),
        SettleVerdict::Duplicate => Ok(DeliveryOutcome::Duplicate),
        SettleVerdict::LateAfterReassign => Ok(DeliveryOutcome::LateAfterReassign),
        SettleVerdict::WindowClosed => Ok(DeliveryOutcome::WindowClosed),
        SettleVerdict::RejectInvalid => Err(ProtocolError::InvalidTransition {
            query_id,
            what: refused,
        }),
    }
}

/// The untrusted supporting server.
#[derive(Debug, Default)]
pub struct Ssi {
    next_query_id: AtomicU64,
    next_assignment_id: AtomicU64,
    queries: RwLock<BTreeMap<u64, Arc<QueryHandle>>>,
    /// Everything the SSI has observed, in arrival order.
    observations: Mutex<Vec<Observation>>,
    /// Trace collector, if the runtime attached one. Everything the SSI
    /// emits through it is bounded by the posting protocol's
    /// [`ExposureDeclaration`]: tag *forms* are public only when declared,
    /// tag payloads appear only as keyed digests.
    obs: Option<Arc<Obs>>,
    /// Durable settle journal, when one is attached (see [`Ssi::recover`]).
    /// `None` for in-process deployments — journaling is opt-in durability
    /// for the server binaries, not a cost every simulation pays. The mutex
    /// doubles as the **sequencing lock**: mutating methods hold it across
    /// mutation + append so journal order equals mutation order.
    journal: Option<Mutex<journal::Journal>>,
    /// Idempotency index for posts: [`posted_key`] (posting querier's
    /// identity + envelope ciphertext) → live query id, spanning the
    /// query's **collection window** only. A
    /// byte-identical re-post while the window is open is the *same* post
    /// retried (a response lost on the wire, possibly across a server
    /// restart) and [`Ssi::post_query_durable`] returns the
    /// already-assigned id instead of leaking an orphaned duplicate query.
    /// The entry is dropped at `close_collection` (and on purge): the
    /// retry race cannot outlive the window — the querier needs the id to
    /// reach the close — and a byte-identical envelope posted *later*
    /// (deterministic-seed runs reuse nonces) is a genuinely new query.
    posted_index: Mutex<BTreeMap<[u8; 32], u64>>,
}

/// Idempotency-index key for a posted envelope: SHA-256 over the posting
/// querier's identity *and* the envelope ciphertext. Hashing the
/// ciphertext alone would merge two **different** queriers posting
/// byte-identical envelopes — deterministic-seed runs reuse nonces, so
/// identical `enc_query` bytes across queriers are legitimate — and the
/// second querier would silently be handed the first one's query id. The
/// identity is length-prefixed so `("ab", "c…")` can never collide with
/// `("a", "bc…")`.
fn posted_key(envelope: &QueryEnvelope) -> [u8; 32] {
    let querier = envelope.credential.querier_id.as_bytes();
    let mut h = Sha256::new();
    h.update(&(querier.len() as u64).to_be_bytes());
    h.update(querier);
    h.update(&envelope.enc_query);
    h.finalize()
}

impl Ssi {
    /// Fresh server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a trace collector; from here on, accepted deliveries emit
    /// `ssi.observe` events through it.
    pub fn attach_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(obs);
    }

    /// Snapshot of the observation log, in arrival order. (A snapshot, not a
    /// borrow: the log is behind a lock so concurrent deliveries can append.)
    pub fn observations(&self) -> Vec<Observation> {
        lock(&self.observations).clone()
    }

    /// Number of entries in the observation log.
    pub fn observations_len(&self) -> usize {
        lock(&self.observations).len()
    }

    /// Emit one `ssi.observe` event summarizing an accepted delivery batch,
    /// projected from the [`Observation`]s `deliver` logs for it. `rows`
    /// marks a batch of sealed result rows.
    ///
    /// The exposure cross-check happens here: an observed tag form is named
    /// in the trace only when the posting protocol's [`ExposureDeclaration`]
    /// already allows the SSI to see that form in this phase — anything else
    /// is reported as `undeclared` (the debug tripwire has already fired by
    /// then). Tag payloads never appear in clear: they are folded into a
    /// single keyed digest, so the trace reveals at most what the SSI's own
    /// observation log already holds.
    fn trace_observe(
        &self,
        query_id: u64,
        phase: Phase,
        protocol: ProtocolKind,
        observed: &[Observation],
        rows: bool,
    ) {
        let Some(obs) = &self.obs else { return };
        let decl = ExposureDeclaration::for_protocol(protocol);
        let mut forms: Vec<&'static str> = Vec::new();
        let mut undeclared = false;
        let mut tagged = false;
        let mut tag_material: Vec<u8> = Vec::new();
        for o in observed {
            let form = TagForm::of(&o.tag);
            if decl.allows(phase, form) {
                let name = match form {
                    TagForm::None => "none",
                    TagForm::Det => "det",
                    TagForm::Bucket => "bucket",
                };
                if !forms.contains(&name) {
                    forms.push(name);
                }
            } else {
                undeclared = true;
            }
            match &o.tag {
                GroupTag::None => tag_material.push(0),
                GroupTag::Det(v) => {
                    tagged = true;
                    tag_material.push(1);
                    tag_material.extend_from_slice(v);
                }
                GroupTag::Bucket(b) => {
                    tagged = true;
                    tag_material.push(2);
                    tag_material.extend_from_slice(b);
                }
            }
        }
        forms.sort_unstable();
        if undeclared {
            forms.push("undeclared");
        }
        if forms.is_empty() && rows {
            // Sealed rows are untagged by type, even when there are none.
            forms.push("none");
        }
        let bytes: u64 = observed.iter().map(|o| o.blob_len as u64).sum();
        let mut fields = vec![
            Field::u64("query", query_id),
            Field::str("phase", phase.to_string()),
            Field::u64("tuples", observed.len() as u64),
            Field::u64("bytes", bytes),
            Field::str("forms", forms.join(",")),
        ];
        if tagged {
            fields.push(Field::sensitive("tags", obs.redactor(), &tag_material));
        }
        obs.event("ssi.observe", None, fields);
    }

    /// Post a query to the global querybox (step 1). Returns the query id.
    ///
    /// Infallible by contract, and not idempotent: every runtime posts
    /// through [`Ssi::post_query_durable`] (the [`crate::service::SsiService`]
    /// surface), and only this module's unit tests use this path. With a
    /// journal attached, an append failure degrades durability but not
    /// availability: the query proceeds in memory and the failure is
    /// reported through the obs channel.
    pub fn post_query(&self, envelope: QueryEnvelope) -> u64 {
        let mut seq = self.seq();
        self.post_locked(&mut seq, envelope).0
    }

    /// Post a query, failing if the settle journal could not record it.
    /// The in-memory posting still happened when this errors; the network
    /// server reports the error and the querier re-posts under a fresh id.
    ///
    /// This path (the [`crate::service::SsiService`] surface, i.e. what the
    /// network server dispatches) is **idempotent across the collection
    /// window**: a byte-identical envelope whose earlier post already
    /// succeeded — a retry after the response was lost on the wire,
    /// possibly across a crash/restart — returns the already-assigned
    /// query id instead of creating an orphaned duplicate, until that
    /// query's window closes. After the close the same bytes are a new
    /// query: the retry race cannot outlive the window, but a
    /// deterministic-seed run legitimately reuses an envelope verbatim.
    pub fn post_query_durable(&self, envelope: QueryEnvelope) -> Result<u64> {
        let digest = posted_key(&envelope);
        let mut seq = self.seq();
        if let Some(&id) = lock(&self.posted_index).get(&digest) {
            // Already posted (and, with a journal, already recorded): the
            // retry is answered from the index with no new state.
            return Ok(id);
        }
        let (id, durable) = self.post_locked(&mut seq, envelope);
        durable.map(|()| id)
    }

    /// Assign an id, register the handle + idempotency index entry, and
    /// journal the post — all inside the caller's sequencing section.
    fn post_locked(&self, seq: &mut Seq<'_>, mut envelope: QueryEnvelope) -> (u64, Result<()>) {
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        envelope.query_id = id;
        if let Some(obs) = &self.obs {
            // The query text reaches the SSI only as a k1 ciphertext, but the
            // trace still digests it: a sink must not learn which (encrypted)
            // query blob maps to which trace lines across deployments.
            obs.event(
                "ssi.query_posted",
                None,
                vec![
                    Field::u64("query", id),
                    Field::str("protocol", envelope.protocol.name()),
                    Field::sensitive("enc_query", obs.redactor(), &envelope.enc_query),
                ],
            );
        }
        let for_journal = seq.is_some().then(|| envelope.clone());
        lock(&self.posted_index).insert(posted_key(&envelope), id);
        self.queries
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, Arc::new(QueryHandle::new(envelope)));
        let durable = match for_journal {
            Some(envelope) => {
                self.append_seq(seq, || journal::JournalRecord::QueryPosted { envelope })
            }
            None => Ok(()),
        };
        (id, durable)
    }

    fn handle(&self, query_id: u64) -> Result<Arc<QueryHandle>> {
        self.queries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&query_id)
            .cloned()
            .ok_or(ProtocolError::UnknownQuery { query_id })
    }

    // -- at-least-once delivery bookkeeping ---------------------------------

    /// Allocate a fresh work-item id for a query (a partition to process, or
    /// one TDS's collection contribution). Item ids never repeat within a
    /// query, so a wave-2 partition can never collide with a completed
    /// wave-1 item in the dedup ledger.
    ///
    /// With a journal attached, ids are reserved a block of [`ITEM_BLOCK`]
    /// at a time: only an id past the reservation journals an
    /// `ItemAllocated` record, which takes the whole aligned block holding
    /// it. Replay reads that record as "ids up to the block's last are
    /// taken", so a recovered SSI resumes at the next block and never
    /// re-issues an id. A reservation whose append failed is not counted,
    /// and the next call retries it.
    pub fn new_item(&self, query_id: u64) -> Result<u64> {
        let st = self.handle(query_id)?;
        let mut seq = self.seq();
        let item = st.ledger.new_item();
        if seq.is_some() && item >= st.reserved.load(Ordering::Relaxed) {
            let last = item / ITEM_BLOCK * ITEM_BLOCK + (ITEM_BLOCK - 1);
            // Raised before the append, so a snapshot cut behind the
            // record already carries the reservation.
            let before = st.reserved.swap(last.saturating_add(1), Ordering::Relaxed);
            let appended = self.append_seq(&mut seq, || journal::JournalRecord::ItemAllocated {
                query_id,
                item: last,
            });
            if appended.is_err() {
                st.reserved.store(before, Ordering::Relaxed);
            }
            appended?;
        }
        Ok(item)
    }

    /// Register one delivery attempt for a work item and return its unique
    /// [`AssignmentId`]. Every upload must quote the assignment it answers;
    /// re-sent work gets a fresh assignment for the same item.
    pub fn begin_assignment(&self, query_id: u64, item: u64) -> Result<AssignmentId> {
        let st = self.handle(query_id)?;
        let mut seq = self.seq();
        // Checked before an id is drawn: a refused request consumes none.
        if !st.ledger.allocated(item) {
            return Err(ProtocolError::InvalidTransition {
                query_id,
                what: "assignment for a work item the SSI never allocated",
            });
        }
        let id = self.next_assignment_id.fetch_add(1, Ordering::Relaxed);
        st.ledger.issue(AssignmentId(id), item);
        self.append_seq(&mut seq, || journal::JournalRecord::AssignmentIssued {
            query_id,
            assignment: id,
            item,
        })?;
        Ok(AssignmentId(id))
    }

    /// Has this work item already been completed by some delivery?
    pub fn item_done(&self, query_id: u64, item: u64) -> Result<bool> {
        Ok(self.handle(query_id)?.ledger.item_done(item))
    }

    /// The posted envelope — what connecting TDSs download (step 2).
    pub fn envelope(&self, query_id: u64) -> Result<QueryEnvelope> {
        Ok(self.handle(query_id)?.envelope.clone())
    }

    /// The one delivery body behind the four public receive methods.
    ///
    /// In order: hash the upload into its [`Observation`]s, enter the
    /// sequencing section, consult [`window_guard`] for the receive path's
    /// `class`, trip the debug exposure check, settle under `assignment` —
    /// and only on [`SettleVerdict::Accepted`] trace, merge, log and
    /// journal. The sequencing section spans guard + settle + merge +
    /// append, so a concurrent `close_collection` or `take_working` cannot
    /// slot its record between this delivery's window check and its
    /// `…Accepted` record (see [`Ssi::seq`]).
    ///
    /// `assignment: None` is [`Ssi::restore_working`]: SSI-internal data
    /// movement that never crossed the faulty transport, so neither the
    /// window guard nor the ledger is consulted and the tuples always merge.
    fn deliver(
        &self,
        query_id: u64,
        assignment: Option<AssignmentId>,
        phase: Phase,
        class: PhaseClass,
        upload: Upload,
    ) -> Result<DeliveryOutcome> {
        // Hashed before the sequencing section, not inside it.
        let observed: Vec<Observation> = upload
            .parts()
            .map(|(tag, blob)| Observation::of_parts(query_id, phase, tag, blob))
            .collect();
        let st = self.handle(query_id)?;
        let mut seq = self.seq();
        // An unassigned delivery (`restore_working`) passes the guard and
        // the ledger untouched.
        let guard = match assignment {
            Some(_) => window_guard(class, st.window()),
            None => GuardAction::Proceed,
        };
        if let GuardAction::Stop(verdict) = guard {
            // Collection uploads after SIZE closed the window drop (the
            // paper's stream semantics); aggregation/filtering uploads
            // before it closed are refused.
            return outcome_of(
                query_id,
                verdict,
                "aggregation/filtering delivery while the collection window is open",
            );
        }
        debug_check_declared(&st.envelope, phase, &upload);
        let verdict = assignment.map_or(SettleVerdict::Accepted, |a| st.ledger.settle(a));
        if verdict != SettleVerdict::Accepted {
            return outcome_of(
                query_id,
                verdict,
                "delivery under an assignment the SSI never issued",
            );
        }
        let rows = matches!(upload, Upload::Rows(_));
        self.trace_observe(query_id, phase, st.envelope.protocol, &observed, rows);
        // Merges clone (Arc bumps); the originals go to the journal record.
        let record = match (upload, assignment, class) {
            (Upload::Tuples(tuples), Some(a), PhaseClass::Collection) => {
                lock(&st.collection).extend(tuples.iter().cloned());
                journal::JournalRecord::CollectionAccepted {
                    query_id,
                    assignment: a.0,
                    tuples,
                }
            }
            (Upload::Tuples(tuples), Some(a), PhaseClass::PostCollection) => {
                lock(&st.working).extend(tuples.iter().cloned());
                journal::JournalRecord::WorkingAccepted {
                    query_id,
                    assignment: a.0,
                    phase,
                    tuples,
                }
            }
            (Upload::Tuples(tuples), None, _) => {
                lock(&st.working).extend(tuples.iter().cloned());
                journal::JournalRecord::WorkingRestored {
                    query_id,
                    phase,
                    tuples,
                }
            }
            (Upload::Rows(rows), Some(a), _) => {
                lock(&st.results).extend(rows.iter().cloned());
                journal::JournalRecord::ResultsAccepted {
                    query_id,
                    assignment: a.0,
                    rows,
                }
            }
            (Upload::Rows(_), None, _) => {
                return Err(ProtocolError::Protocol(
                    "result rows are only delivered under an assignment".into(),
                ))
            }
        };
        // Logged after the merge, not before: which of the two growing
        // vectors reallocates first moves the process's peak RSS.
        lock(&self.observations).extend(observed);
        self.append_seq(&mut seq, || record)?;
        Ok(DeliveryOutcome::Accepted)
    }

    /// Receive collection-phase tuples from a TDS (step 4 / 4'), delivered
    /// under an assignment. Duplicated and late deliveries are deduplicated —
    /// at-least-once transport must never double-count a contribution.
    pub fn receive_collection(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome> {
        self.deliver(
            query_id,
            Some(assignment),
            Phase::Collection,
            PhaseClass::Collection,
            Upload::Tuples(tuples),
        )
    }

    /// Number of tuples collected so far (what the SIZE clause sees).
    pub fn collection_count(&self, query_id: u64) -> Result<usize> {
        let st = self.handle(query_id)?;
        let n = lock(&st.collection).len();
        Ok(n)
    }

    /// Evaluate the SIZE tuple bound (the round bound is the runtime's job).
    pub fn size_tuples_reached(&self, query_id: u64) -> Result<bool> {
        let st = self.handle(query_id)?;
        match st.envelope.size.max_tuples {
            Some(max) => Ok(lock(&st.collection).len() as u64 >= max),
            None => Ok(false),
        }
    }

    /// Close the collection window and move the Covering Result into the
    /// working set for the aggregation/filtering phases. Idempotent: a
    /// retried close (a response lost on the wire, or a replayed journal
    /// record) must not wipe the working set the first close populated.
    pub fn close_collection(&self, query_id: u64) -> Result<()> {
        let st = self.handle(query_id)?;
        let mut seq = self.seq();
        if st.collection_closed.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        let collected = std::mem::take(&mut *lock(&st.collection));
        *lock(&st.working) = collected;
        // The post-dedupe window is the collection window: a lost-response
        // re-post always lands before the close (the querier needs the id
        // to get this far), and a byte-identical envelope posted *after*
        // the close — deterministic-seed runs reuse nonces — is a new
        // query, not a retry. Conflating it with this one would hand the
        // new querier a closed window.
        self.forget_posted(&st.envelope, query_id);
        self.append_seq(&mut seq, || journal::JournalRecord::CollectionClosed {
            query_id,
        })?;
        Ok(())
    }

    /// Has the collection window been closed?
    pub fn collection_closed(&self, query_id: u64) -> Result<bool> {
        Ok(self
            .handle(query_id)?
            .collection_closed
            .load(Ordering::Acquire))
    }

    /// Take the whole working set (the plan interpreter partitions it and
    /// hands the partitions to connected TDSs).
    pub fn take_working(&self, query_id: u64) -> Result<Vec<StoredTuple>> {
        let st = self.handle(query_id)?;
        let mut seq = self.seq();
        let mut working = std::mem::take(&mut *lock(&st.working));
        if let Err(e) = self.append_seq(&mut seq, || journal::JournalRecord::WorkingTaken {
            query_id,
        }) {
            // Un-take on journal failure so the tuples are not lost with
            // the error return. Splice them back in front of the current
            // set rather than overwriting it — the sequencing lock already
            // excludes concurrent merges, but the restore must not depend
            // on that to be lossless.
            let mut now = lock(&st.working);
            working.append(&mut now);
            *now = working;
            return Err(e);
        }
        Ok(working)
    }

    /// Store tuples back into the working set (step 8: partial aggregations
    /// coming back from TDSs), delivered under an assignment. Deduplicates
    /// duplicate and late-after-reassignment deliveries: a partial aggregate
    /// entering the working set twice would double-count, so only the first
    /// completed delivery per work item is merged.
    pub fn receive_working(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        phase: Phase,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome> {
        self.deliver(
            query_id,
            Some(assignment),
            phase,
            PhaseClass::PostCollection,
            Upload::Tuples(tuples),
        )
    }

    /// Re-park tuples into the working set **without** delivery semantics —
    /// the runtime moving pass-through singletons or the final batch back
    /// between plan steps. This is SSI-internal data movement, not an upload
    /// crossing the faulty transport, so no assignment and no dedup apply.
    pub fn restore_working(
        &self,
        query_id: u64,
        phase: Phase,
        tuples: Vec<StoredTuple>,
    ) -> Result<()> {
        self.deliver(
            query_id,
            None,
            phase,
            PhaseClass::PostCollection,
            Upload::Tuples(tuples),
        )
        .map(|_| ())
    }

    /// Current working-set size.
    pub fn working_len(&self, query_id: u64) -> Result<usize> {
        let st = self.handle(query_id)?;
        let n = lock(&st.working).len();
        Ok(n)
    }

    /// Receive final `k1`-encrypted rows (step 12) and concatenate them into
    /// the result area, delivered under an assignment. Deduplicated like any
    /// other upload: a duplicated filtering delivery would repeat result rows
    /// to the querier.
    pub fn receive_results(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        rows: Vec<Bytes>,
    ) -> Result<DeliveryOutcome> {
        self.deliver(
            query_id,
            Some(assignment),
            Phase::Filtering,
            PhaseClass::PostCollection,
            Upload::Rows(rows),
        )
    }

    /// Deliver the concatenated result to the querier (step 13). `Bytes`
    /// blobs are Arc-backed, so the snapshot is refcount bumps, not copies.
    pub fn results(&self, query_id: u64) -> Result<Vec<Bytes>> {
        let st = self.handle(query_id)?;
        let rows = lock(&st.results).clone();
        Ok(rows)
    }

    /// Drop all server-side state for a finished query, reclaiming storage.
    /// (The observation log — what the SSI "remembers" — is deliberately
    /// retained: forgetting is not a security mechanism.)
    pub fn purge_query(&self, query_id: u64) -> Result<()> {
        let mut seq = self.seq();
        let purged = self
            .queries
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&query_id)
            .ok_or(ProtocolError::UnknownQuery { query_id })?;
        self.forget_posted(&purged.envelope, query_id);
        self.append_seq(&mut seq, || journal::JournalRecord::QueryPurged {
            query_id,
        })?;
        Ok(())
    }

    /// Drop a purged query's idempotency-index entry, unless a later post
    /// of an identical envelope already claimed the digest.
    fn forget_posted(&self, envelope: &QueryEnvelope, query_id: u64) {
        let digest = posted_key(envelope);
        let mut index = lock(&self.posted_index);
        if index.get(&digest) == Some(&query_id) {
            index.remove(&digest);
        }
    }

    /// Number of queries with live server-side state.
    pub fn live_queries(&self) -> usize {
        self.queries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    // -- durability ---------------------------------------------------------

    /// Enter the journal **sequencing section**, if a journal is attached
    /// (`None` — a free no-op — otherwise, so journal-less deployments pay
    /// nothing).
    ///
    /// Ordering invariant: every mutating method acquires this guard
    /// *before* its in-memory mutation and holds it until [`Ssi::append_seq`]
    /// has written its record, so the journal's record order is exactly the
    /// mutation order. Without this, a delivery that settled before
    /// `close_collection` could append its `CollectionAccepted` record
    /// *after* the `CollectionClosed` one (or after a snapshot cut with
    /// `closed = true`), and replay's lifecycle checks would refuse a
    /// journal a perfectly legal concurrent run produced. It also makes the
    /// snapshot cut inside `append_seq` a consistent point: the snapshot
    /// contains precisely the effects of the records before it.
    ///
    /// Locking order is journal mutex → state locks (registry, stripes,
    /// tuple areas), everywhere — no path acquires the journal mutex while
    /// holding a state lock, so the two orders never interleave.
    fn seq(&self) -> Seq<'_> {
        self.journal.as_ref().map(|jm| lock(jm))
    }

    /// Append one record through the held sequencing guard (no-op when no
    /// journal is attached), cutting a snapshot when the configured cadence
    /// says one is due. On append failure the in-memory mutation stands
    /// (exactly-once still holds; durability is degraded) and the error is
    /// both returned and reported through the obs channel as
    /// `ssi.journal.error`.
    fn append_seq(
        &self,
        seq: &mut Seq<'_>,
        record: impl FnOnce() -> journal::JournalRecord,
    ) -> Result<()> {
        let Some(j) = seq.as_deref_mut() else {
            return Ok(());
        };
        let appended = j.append(&record()).and_then(|()| {
            if j.snapshot_due() {
                let state = self.snapshot_state();
                j.append_snapshot(state)
            } else {
                Ok(())
            }
        });
        if let Err(e) = &appended {
            if let Some(obs) = &self.obs {
                obs.event(
                    "ssi.journal.error",
                    None,
                    vec![Field::str("error", e.to_string())],
                );
            }
        }
        appended
    }

    /// Is a settle journal attached?
    pub fn journaled(&self) -> bool {
        self.journal.is_some()
    }

    /// Flush any batched journal appends to stable storage (shutdown drain).
    pub fn sync_journal(&self) -> Result<()> {
        match &self.journal {
            Some(jm) => lock(jm).sync_now(),
            None => Ok(()),
        }
    }

    /// Capture the full durable state for a snapshot record.
    fn snapshot_state(&self) -> journal::SnapshotState {
        let queries = self.queries.read().unwrap_or_else(PoisonError::into_inner);
        let mut snaps = Vec::with_capacity(queries.len());
        for st in queries.values() {
            let ledger = st.ledger.state();
            snaps.push(journal::QuerySnapshot {
                envelope: st.envelope.clone(),
                closed: st.collection_closed.load(Ordering::Acquire),
                // The reservation, not the next id: a recovered SSI must
                // not re-issue an id of the current block.
                next_item: ledger.next_item.max(st.reserved.load(Ordering::Relaxed)),
                collection: lock(&st.collection).clone(),
                working: lock(&st.working).clone(),
                results: lock(&st.results).clone(),
                assignments: ledger.assignments,
                items_done: ledger.items_done,
            });
        }
        journal::SnapshotState {
            next_query_id: self.next_query_id.load(Ordering::Relaxed),
            next_assignment_id: self.next_assignment_id.load(Ordering::Relaxed),
            queries: snaps,
        }
    }

    /// Open (or create) a settle journal and reconstruct the SSI from it.
    ///
    /// Replay drives the *real* ledger: every journaled settle is re-run
    /// through [`SettleLedger::settle`] and its verdict is model-checked
    /// against [`SETTLE_TRANSITIONS`] — a journal whose records would
    /// double-`Accepted` an item is rejected as
    /// [`ProtocolError::JournalCorrupt`], never merged twice. Replay
    /// restarts from the last snapshot record, if any. The observation log
    /// is telemetry, not ledger state, and is not reconstructed.
    pub fn recover(config: journal::JournalConfig) -> Result<Ssi> {
        let (journal, records) = journal::Journal::open(&config)?;
        let mut ssi = Ssi::new();
        let start = records
            .iter()
            .rposition(|(_, r)| matches!(r, journal::JournalRecord::Snapshot { .. }))
            .unwrap_or(0);
        for (offset, record) in records.into_iter().skip(start) {
            ssi.apply_record(offset, record)?;
        }
        ssi.journal = Some(Mutex::new(journal));
        Ok(ssi)
    }

    /// Replay one journal record onto in-memory state. `offset` is the
    /// record's byte offset in the journal file, quoted by corruption
    /// errors.
    fn apply_record(&mut self, offset: u64, record: journal::JournalRecord) -> Result<()> {
        use journal::JournalRecord as R;
        let corrupt = |what: &'static str| ProtocolError::JournalCorrupt {
            offset,
            what: what.to_string(),
        };
        match record {
            R::QueryPosted { envelope } => {
                let id = envelope.query_id;
                self.next_query_id.fetch_max(id + 1, Ordering::Relaxed);
                lock(&self.posted_index).insert(posted_key(&envelope), id);
                let replaced = self
                    .queries
                    .write()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(id, Arc::new(QueryHandle::new(envelope)));
                if replaced.is_some() {
                    return Err(corrupt("query posted twice"));
                }
            }
            R::ItemAllocated { query_id, item } => {
                let st = self
                    .handle(query_id)
                    .map_err(|_| corrupt("item allocated for an unknown query"))?;
                st.ledger.note_allocated(item);
                st.reserved
                    .fetch_max(item.saturating_add(1), Ordering::Relaxed);
            }
            R::AssignmentIssued {
                query_id,
                assignment,
                item,
            } => {
                let st = self
                    .handle(query_id)
                    .map_err(|_| corrupt("assignment issued for an unknown query"))?;
                if !st.ledger.allocated(item) {
                    return Err(corrupt("assignment for a work item never allocated"));
                }
                self.next_assignment_id
                    .fetch_max(assignment + 1, Ordering::Relaxed);
                if !st.ledger.issue(AssignmentId(assignment), item) {
                    return Err(corrupt("assignment issued twice"));
                }
            }
            R::CollectionAccepted {
                query_id,
                assignment,
                tuples,
            } => {
                let st = self
                    .handle(query_id)
                    .map_err(|_| corrupt("collection delivery for an unknown query"))?;
                if st.collection_closed.load(Ordering::Acquire) {
                    return Err(corrupt("accepted collection after the window closed"));
                }
                if self.replay_settle(&st.ledger, offset, assignment)? {
                    lock(&st.collection).extend(tuples);
                }
            }
            R::CollectionClosed { query_id } => {
                let st = self
                    .handle(query_id)
                    .map_err(|_| corrupt("window close for an unknown query"))?;
                if !st.collection_closed.swap(true, Ordering::AcqRel) {
                    let collected = std::mem::take(&mut *lock(&st.collection));
                    *lock(&st.working) = collected;
                }
                // Mirror the live path: the post-dedupe window ends here.
                self.forget_posted(&st.envelope, query_id);
            }
            R::WorkingTaken { query_id } => {
                let st = self
                    .handle(query_id)
                    .map_err(|_| corrupt("working-set take for an unknown query"))?;
                lock(&st.working).clear();
            }
            R::WorkingRestored {
                query_id,
                phase: _,
                tuples,
            } => {
                let st = self
                    .handle(query_id)
                    .map_err(|_| corrupt("working-set restore for an unknown query"))?;
                lock(&st.working).extend(tuples);
            }
            R::WorkingAccepted {
                query_id,
                assignment,
                phase: _,
                tuples,
            } => {
                let st = self
                    .handle(query_id)
                    .map_err(|_| corrupt("aggregation delivery for an unknown query"))?;
                if !st.collection_closed.load(Ordering::Acquire) {
                    return Err(corrupt("accepted aggregation before the window closed"));
                }
                if self.replay_settle(&st.ledger, offset, assignment)? {
                    lock(&st.working).extend(tuples);
                }
            }
            R::ResultsAccepted {
                query_id,
                assignment,
                rows,
            } => {
                let st = self
                    .handle(query_id)
                    .map_err(|_| corrupt("filtering delivery for an unknown query"))?;
                if !st.collection_closed.load(Ordering::Acquire) {
                    return Err(corrupt("accepted results before the window closed"));
                }
                if self.replay_settle(&st.ledger, offset, assignment)? {
                    lock(&st.results).extend(rows);
                }
            }
            R::QueryPurged { query_id } => {
                let removed = self
                    .queries
                    .write()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&query_id);
                match removed {
                    Some(purged) => self.forget_posted(&purged.envelope, query_id),
                    None => return Err(corrupt("purge of an unknown query")),
                }
            }
            R::Snapshot { state } => self.apply_snapshot(offset, state)?,
        }
        Ok(())
    }

    /// Re-run a journaled `Accepted` settle through the live ledger, model-
    /// checking the verdict against [`SETTLE_TRANSITIONS`]. Returns whether
    /// the payload merges: `true` for `Accepted`; `false` for `Duplicate`,
    /// the idempotent skip (unreachable for journals written under the
    /// sequencing lock, but tolerated defensively — re-applying a record a
    /// snapshot already contains must never double-merge). Any other
    /// verdict means the journal claims an acceptance the transition table
    /// forbids — a double-settle — and recovery refuses.
    fn replay_settle(&self, ledger: &SettleLedger, offset: u64, assignment: u64) -> Result<bool> {
        let corrupt = |what: &'static str| ProtocolError::JournalCorrupt {
            offset,
            what: what.to_string(),
        };
        let aid = AssignmentId(assignment);
        // Classify the pre-state abstractly...
        let Some((slot, item)) = ledger.pre_state(aid) else {
            return Err(corrupt("accepted settle under an unissued assignment"));
        };
        let expected = settle_transition(slot, item).verdict;
        // ...then drive the real ledger and cross-check the two.
        let verdict = ledger.settle(aid);
        if verdict != expected {
            return Err(corrupt(
                "replayed settle diverged from the transition table",
            ));
        }
        match verdict {
            SettleVerdict::Accepted => Ok(true),
            SettleVerdict::Duplicate => Ok(false),
            SettleVerdict::LateAfterReassign => Err(corrupt(
                "journaled acceptance would double-settle its work item",
            )),
            _ => Err(corrupt("journaled acceptance replayed as a rejection")),
        }
    }

    /// Restore the full durable state from a snapshot record, replacing
    /// whatever the replay built so far.
    fn apply_snapshot(&mut self, offset: u64, state: journal::SnapshotState) -> Result<()> {
        let corrupt = |what: &'static str| ProtocolError::JournalCorrupt {
            offset,
            what: what.to_string(),
        };
        self.next_query_id
            .store(state.next_query_id, Ordering::Relaxed);
        self.next_assignment_id
            .store(state.next_assignment_id, Ordering::Relaxed);
        let mut map = BTreeMap::new();
        let mut index = BTreeMap::new();
        for q in state.queries {
            let id = q.envelope.query_id;
            // The dedupe index only spans the collection window (see
            // `close_collection`): closed queries are not re-indexed.
            if !q.closed {
                index.insert(posted_key(&q.envelope), id);
            }
            let ledger = SettleLedger::from_state(LedgerState {
                next_item: q.next_item,
                assignments: q.assignments,
                items_done: q.items_done,
            })
            .map_err(corrupt)?;
            let st = QueryHandle {
                ledger,
                reserved: AtomicU64::new(q.next_item),
                ..QueryHandle::new(q.envelope)
            };
            st.collection_closed.store(q.closed, Ordering::Release);
            *lock(&st.collection) = q.collection;
            *lock(&st.working) = q.working;
            *lock(&st.results) = q.results;
            if map.insert(id, Arc::new(st)).is_some() {
                return Err(corrupt("snapshot repeats a query"));
            }
        }
        *self.queries.write().unwrap_or_else(PoisonError::into_inner) = map;
        *lock(&self.posted_index) = index;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::GroupTag;
    use crate::protocol::ProtocolKind;
    use tdsql_crypto::credential::{CredentialSigner, Role};
    use tdsql_sql::ast::SizeClause;

    fn envelope() -> QueryEnvelope {
        let signer = CredentialSigner::new(b"authority");
        QueryEnvelope {
            query_id: 0,
            enc_query: Bytes::from_static(b"opaque"),
            credential: signer.issue("q", Role::new("r"), u64::MAX),
            size: SizeClause {
                max_tuples: Some(2),
                max_rounds: None,
            },
            protocol: ProtocolKind::SAgg,
            target: crate::message::QueryTarget::Crowd,
        }
    }

    fn tuple(b: u8) -> StoredTuple {
        StoredTuple {
            tag: GroupTag::None,
            blob: Bytes::copy_from_slice(&[b; 4]),
        }
    }

    /// Collect one tuple batch over a fresh item + assignment.
    fn collect(ssi: &Ssi, qid: u64, tuples: Vec<StoredTuple>) -> DeliveryOutcome {
        let item = ssi.new_item(qid).unwrap();
        let a = ssi.begin_assignment(qid, item).unwrap();
        ssi.receive_collection(qid, a, tuples).unwrap()
    }

    #[test]
    fn lifecycle() {
        let ssi = Ssi::new();
        let qid = ssi.post_query(envelope());
        assert_eq!(ssi.envelope(qid).unwrap().query_id, qid);
        assert!(!ssi.size_tuples_reached(qid).unwrap());

        assert_eq!(
            collect(&ssi, qid, vec![tuple(1)]),
            DeliveryOutcome::Accepted
        );
        assert!(!ssi.size_tuples_reached(qid).unwrap());
        assert_eq!(
            collect(&ssi, qid, vec![tuple(2)]),
            DeliveryOutcome::Accepted
        );
        assert!(ssi.size_tuples_reached(qid).unwrap());

        ssi.close_collection(qid).unwrap();
        assert!(ssi.collection_closed(qid).unwrap());
        // Late tuples dropped.
        assert_eq!(
            collect(&ssi, qid, vec![tuple(3)]),
            DeliveryOutcome::WindowClosed
        );
        assert_eq!(ssi.collection_count(qid).unwrap(), 0);
        assert_eq!(ssi.working_len(qid).unwrap(), 2);

        let working = ssi.take_working(qid).unwrap();
        assert_eq!(working.len(), 2);
        assert_eq!(ssi.working_len(qid).unwrap(), 0);

        let item = ssi.new_item(qid).unwrap();
        let a = ssi.begin_assignment(qid, item).unwrap();
        assert_eq!(
            ssi.receive_results(qid, a, vec![Bytes::from_static(b"row")])
                .unwrap(),
            DeliveryOutcome::Accepted
        );
        assert_eq!(ssi.results(qid).unwrap().len(), 1);
        // Observations: two collection tuples (the late one was dropped
        // before being observed) plus one result row.
        assert_eq!(ssi.observations().len(), 3);
    }

    /// The transition tables are exhaustive and positionally indexed.
    #[test]
    fn transition_tables_are_exhaustive() {
        let slots = [SlotState::Unissued, SlotState::Issued, SlotState::Settled];
        let items = [ItemState::Pending, ItemState::Done];
        assert_eq!(SETTLE_TRANSITIONS.len(), slots.len() * items.len());
        for slot in slots {
            for item in items {
                let t = settle_transition(slot, item);
                assert_eq!((t.slot, t.item), (slot, item), "row order drifted");
                // Merging happens exactly on acceptance — the invariant the
                // model checker leans on.
                assert_eq!(t.merges, t.verdict == SettleVerdict::Accepted);
            }
        }
        let classes = [PhaseClass::Collection, PhaseClass::PostCollection];
        let windows = [WindowState::Open, WindowState::Closed];
        assert_eq!(WINDOW_GUARDS.len(), classes.len() * windows.len());
        for class in classes {
            for window in windows {
                let g = WINDOW_GUARDS
                    .iter()
                    .find(|g| g.class == class && g.window == window)
                    .unwrap();
                assert_eq!(window_guard(class, window), g.action, "row order drifted");
            }
        }
    }

    /// The public receive methods, as inputs to the table-driven test.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Input {
        Collection,
        Working,
        Results,
        /// `restore_working`: no assignment.
        Restore,
    }

    /// Drive the real ledger through every reachable row of
    /// [`SETTLE_TRANSITIONS`] × [`WINDOW_GUARDS`], through every public
    /// receive method of the guard's class, and assert the runtime's
    /// verdict and post-state match the table — the single exhaustive
    /// replacement for the old hand-written duplicate/late/lifecycle
    /// assertions, and the link that keeps the static model checker
    /// (`tdsql-analyze::verify::settle`) honest about the runtime.
    /// `restore_working` rides along as one more post-collection input: it
    /// carries no assignment, so whatever the window and the ledger say it
    /// merges, and it moves neither.
    #[test]
    fn settle_matches_transition_table() {
        for guard in WINDOW_GUARDS {
            let inputs: &[Input] = match guard.class {
                PhaseClass::Collection => &[Input::Collection],
                PhaseClass::PostCollection => &[Input::Working, Input::Results, Input::Restore],
            };
            for (&input, t) in inputs
                .iter()
                .flat_map(|i| SETTLE_TRANSITIONS.iter().map(move |t| (i, t)))
            {
                if !t.reachable {
                    continue; // proven unreachable by the model checker
                }
                // Build a fresh query in the demanded pre-state.
                let ssi = Ssi::new();
                let qid = ssi.post_query(envelope());
                let item = ssi.new_item(qid).unwrap();
                let assignment = match t.slot {
                    SlotState::Unissued => AssignmentId(u64::MAX),
                    SlotState::Issued | SlotState::Settled => {
                        ssi.begin_assignment(qid, item).unwrap()
                    }
                };
                if t.item == ItemState::Done || t.slot == SlotState::Settled {
                    // Complete the item (via this assignment for Settled,
                    // via a sibling assignment for Issued×Done).
                    let done_under = if t.slot == SlotState::Settled {
                        assignment
                    } else {
                        ssi.begin_assignment(qid, item).unwrap()
                    };
                    assert_eq!(
                        ssi.receive_collection(qid, done_under, vec![tuple(9)])
                            .unwrap(),
                        DeliveryOutcome::Accepted
                    );
                }
                if guard.window == WindowState::Closed {
                    ssi.close_collection(qid).unwrap();
                }
                let merged_before = ssi.collection_count(qid).unwrap()
                    + ssi.working_len(qid).unwrap()
                    + ssi.results(qid).unwrap().len();

                // Deliver through the receive path under test.
                let got = match input {
                    Input::Collection => ssi.receive_collection(qid, assignment, vec![tuple(1)]),
                    Input::Working => {
                        ssi.receive_working(qid, assignment, Phase::Aggregation, vec![tuple(1)])
                    }
                    Input::Results => {
                        ssi.receive_results(qid, assignment, vec![Bytes::from_static(b"row")])
                    }
                    Input::Restore => ssi
                        .restore_working(qid, Phase::Aggregation, vec![tuple(1)])
                        .map(|()| DeliveryOutcome::Accepted),
                };

                // Expected verdict: the guard short-circuits, else the core;
                // an unassigned restore consults neither.
                let consulted = match (input, guard.action) {
                    (Input::Restore, _) => None,
                    (_, action) => Some(action),
                };
                let want = match consulted {
                    None => SettleVerdict::Accepted,
                    Some(GuardAction::Stop(v)) => v,
                    Some(GuardAction::Proceed) => t.verdict,
                };
                let label = format!(
                    "{input:?} {:?}/{:?} × {:?}/{:?}",
                    guard.class, guard.window, t.slot, t.item
                );
                match (want, got) {
                    (SettleVerdict::Accepted, Ok(DeliveryOutcome::Accepted))
                    | (SettleVerdict::Duplicate, Ok(DeliveryOutcome::Duplicate))
                    | (SettleVerdict::LateAfterReassign, Ok(DeliveryOutcome::LateAfterReassign))
                    | (SettleVerdict::WindowClosed, Ok(DeliveryOutcome::WindowClosed)) => {}
                    (
                        SettleVerdict::RejectInvalid,
                        Err(ProtocolError::InvalidTransition { .. }),
                    ) => {}
                    (want, got) => panic!("{label}: wanted {want:?}, got {got:?}"),
                }

                // Post-state: merged exactly when the table says so …
                let merged_after = ssi.collection_count(qid).unwrap()
                    + ssi.working_len(qid).unwrap()
                    + ssi.results(qid).unwrap().len();
                let expect_merge = want == SettleVerdict::Accepted;
                assert_eq!(
                    merged_after - merged_before,
                    usize::from(expect_merge),
                    "{label}: merge count"
                );
                // … and the item is done exactly when the table's post-state
                // (or the untouched pre-state, for guard stops and restores)
                // says so.
                let item_after = match consulted {
                    Some(GuardAction::Proceed) => t.item_after,
                    Some(GuardAction::Stop(_)) | None => t.item,
                };
                assert_eq!(
                    ssi.item_done(qid, item).unwrap(),
                    item_after == ItemState::Done,
                    "{label}: item post-state"
                );
            }
        }
    }

    /// The striped ledger under real contention: many threads race the same
    /// assignments and items concurrently. Exactly one delivery per item may
    /// come back Accepted; every other delivery must be classified Duplicate
    /// (same assignment re-settled) or LateAfterReassign (different
    /// assignment, item already done) — never double-merged, never lost.
    #[test]
    fn concurrent_settles_accept_exactly_once_per_item() {
        const N_ITEMS: usize = 96;
        const ASSIGNMENTS_PER_ITEM: usize = 3;
        const N_THREADS: usize = 8;

        let ssi = Ssi::new();
        let qid = ssi.post_query(envelope());
        let mut assignments = Vec::new();
        for _ in 0..N_ITEMS {
            let item = ssi.new_item(qid).unwrap();
            for _ in 0..ASSIGNMENTS_PER_ITEM {
                assignments.push((item, ssi.begin_assignment(qid, item).unwrap()));
            }
        }

        // Every thread tries to deliver under every assignment.
        let per_thread: Vec<Vec<DeliveryOutcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N_THREADS)
                .map(|t| {
                    let ssi = &ssi;
                    let assignments = &assignments;
                    scope.spawn(move || {
                        let mut outcomes = Vec::with_capacity(assignments.len());
                        // Stagger start points so threads collide on
                        // different stripes over time.
                        let n = assignments.len();
                        for i in 0..n {
                            let (_, a) = assignments[(t * n / N_THREADS + i) % n];
                            outcomes.push(ssi.receive_collection(qid, a, vec![tuple(1)]).unwrap());
                        }
                        outcomes
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(_) => panic!("stress thread panicked"),
                })
                .collect()
        });

        let accepted: usize = per_thread
            .iter()
            .flatten()
            .filter(|&&o| o == DeliveryOutcome::Accepted)
            .count();
        let total: usize = per_thread.iter().map(|v| v.len()).sum();
        assert_eq!(accepted, N_ITEMS, "exactly one Accepted per work item");
        assert_eq!(total, N_THREADS * N_ITEMS * ASSIGNMENTS_PER_ITEM);
        // Exactly one contribution per item was merged and observed.
        assert_eq!(ssi.collection_count(qid).unwrap(), N_ITEMS);
        assert_eq!(ssi.observations().len(), N_ITEMS);
        for (item, _) in &assignments {
            assert!(ssi.item_done(qid, *item).unwrap());
        }
    }

    #[test]
    fn deliveries_respect_the_query_lifecycle() {
        let ssi = Ssi::new();
        let qid = ssi.post_query(envelope());
        let item = ssi.new_item(qid).unwrap();
        let a = ssi.begin_assignment(qid, item).unwrap();
        // Aggregation/filtering uploads before the collection window closes
        // violate the lifecycle.
        assert!(matches!(
            ssi.receive_working(qid, a, Phase::Aggregation, vec![tuple(1)]),
            Err(ProtocolError::InvalidTransition { .. })
        ));
        assert!(matches!(
            ssi.receive_results(qid, a, vec![Bytes::from_static(b"r")]),
            Err(ProtocolError::InvalidTransition { .. })
        ));
        // An assignment for an item the SSI never allocated is rejected.
        assert!(matches!(
            ssi.begin_assignment(qid, 99),
            Err(ProtocolError::InvalidTransition { .. })
        ));
        // A delivery under an assignment the SSI never issued is rejected.
        assert!(matches!(
            ssi.receive_collection(qid, AssignmentId(u64::MAX), vec![tuple(1)]),
            Err(ProtocolError::InvalidTransition { .. })
        ));
        // The well-formed delivery still goes through.
        assert_eq!(
            ssi.receive_collection(qid, a, vec![tuple(1)]).unwrap(),
            DeliveryOutcome::Accepted
        );
    }

    #[test]
    fn unknown_query_rejected() {
        let ssi = Ssi::new();
        assert!(matches!(
            ssi.envelope(42),
            Err(ProtocolError::UnknownQuery { query_id: 42 })
        ));
        assert!(matches!(
            ssi.results(42),
            Err(ProtocolError::UnknownQuery { query_id: 42 })
        ));
        assert!(matches!(
            ssi.new_item(42),
            Err(ProtocolError::UnknownQuery { query_id: 42 })
        ));
        assert!(matches!(
            ssi.receive_collection(42, AssignmentId(0), vec![tuple(1)]),
            Err(ProtocolError::UnknownQuery { query_id: 42 })
        ));
    }

    #[test]
    fn purge_reclaims_state_but_keeps_observations() {
        let ssi = Ssi::new();
        let qid = ssi.post_query(envelope());
        collect(&ssi, qid, vec![tuple(1)]);
        let observed = ssi.observations().len();
        assert_eq!(ssi.live_queries(), 1);
        ssi.purge_query(qid).unwrap();
        assert_eq!(ssi.live_queries(), 0);
        assert!(ssi.envelope(qid).is_err());
        assert_eq!(
            ssi.observations().len(),
            observed,
            "the SSI does not forget"
        );
        // A purged query's id is typed-unknown from then on.
        assert!(matches!(
            ssi.purge_query(qid),
            Err(ProtocolError::UnknownQuery { .. })
        ));
        assert!(matches!(
            ssi.receive_collection(qid, AssignmentId(0), vec![tuple(2)]),
            Err(ProtocolError::UnknownQuery { .. })
        ));
    }

    #[test]
    fn ids_are_unique() {
        let ssi = Ssi::new();
        let a = ssi.post_query(envelope());
        let b = ssi.post_query(envelope());
        assert_ne!(a, b);
    }

    // -- durability / crash recovery ---------------------------------------

    use std::path::PathBuf;

    /// A per-process-unique journal path in the system temp dir, removed
    /// before use so each test starts from an empty file.
    fn tmp_journal(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tdsql-journal-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// Drive a journaled SSI through a full lifecycle and return the query
    /// id (2 collection batches, window close, one result row).
    fn journaled_lifecycle(ssi: &Ssi) -> u64 {
        let qid = ssi.post_query_durable(envelope()).unwrap();
        assert_eq!(collect(ssi, qid, vec![tuple(1)]), DeliveryOutcome::Accepted);
        assert_eq!(collect(ssi, qid, vec![tuple(2)]), DeliveryOutcome::Accepted);
        ssi.close_collection(qid).unwrap();
        let item = ssi.new_item(qid).unwrap();
        let a = ssi.begin_assignment(qid, item).unwrap();
        assert_eq!(
            ssi.receive_results(qid, a, vec![Bytes::from_static(b"row")])
                .unwrap(),
            DeliveryOutcome::Accepted
        );
        qid
    }

    /// Assert a recovered SSI carries the state `journaled_lifecycle` left.
    fn assert_lifecycle_state(ssi: &Ssi, qid: u64) {
        assert_eq!(ssi.envelope(qid).unwrap().query_id, qid);
        assert!(ssi.collection_closed(qid).unwrap());
        assert_eq!(ssi.working_len(qid).unwrap(), 2);
        assert_eq!(ssi.results(qid).unwrap().len(), 1);
    }

    #[test]
    fn journal_roundtrip_recovers_full_lifecycle() {
        let path = tmp_journal("roundtrip");
        let qid = {
            let ssi = Ssi::recover(JournalConfig::new(&path)).unwrap();
            assert!(ssi.journaled());
            journaled_lifecycle(&ssi)
        };
        let ssi = Ssi::recover(JournalConfig::new(&path)).unwrap();
        assert_lifecycle_state(&ssi, qid);
        // Counters continue past recovery: no id reuse.
        let qid2 = ssi.post_query(envelope());
        assert!(qid2 > qid);
        // The settle ledger survived: re-settling a done item under a fresh
        // assignment is late-after-reassign, not a second acceptance.
        let late = ssi.begin_assignment(qid, 0).unwrap();
        assert_eq!(
            ssi.receive_results(qid, late, vec![Bytes::from_static(b"dup")])
                .unwrap(),
            DeliveryOutcome::LateAfterReassign
        );
        assert_eq!(ssi.results(qid).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_snapshots_bound_replay_and_preserve_state() {
        let path = tmp_journal("snapshot");
        let mut config = JournalConfig::new(&path);
        config.snapshot_every = 3;
        let qid = {
            let ssi = Ssi::recover(config.clone()).unwrap();
            journaled_lifecycle(&ssi)
        };
        // Recover (replay starts at the last snapshot), mutate, recover
        // again: state carries across both hops.
        let ssi = Ssi::recover(config.clone()).unwrap();
        assert_lifecycle_state(&ssi, qid);
        let item = ssi.new_item(qid).unwrap();
        let a = ssi.begin_assignment(qid, item).unwrap();
        assert_eq!(
            ssi.receive_results(qid, a, vec![Bytes::from_static(b"row2")])
                .unwrap(),
            DeliveryOutcome::Accepted
        );
        drop(ssi);
        let ssi = Ssi::recover(config).unwrap();
        assert_eq!(ssi.results(qid).unwrap().len(), 2);
        assert_eq!(ssi.working_len(qid).unwrap(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_torn_tail_recovery_is_clean_at_every_truncation_offset() {
        let path = tmp_journal("torn-full");
        let qid = {
            let ssi = Ssi::recover(JournalConfig::new(&path)).unwrap();
            journaled_lifecycle(&ssi)
        };
        let full = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let torn = tmp_journal("torn-prefix");
        let mut last_results = 0;
        for cut in 0..=full.len() {
            std::fs::write(&torn, &full[..cut]).unwrap();
            // Every truncation is a possible crash point: recovery must be
            // clean (a torn tail is not corruption) and monotone — a longer
            // prefix never recovers *less* accepted state, and the result
            // area never exceeds what the full journal carries (which would
            // mean a double-accepted replay).
            let ssi = Ssi::recover(JournalConfig::new(&torn)).unwrap();
            let results = match ssi.results(qid) {
                Ok(rows) => rows.len(),
                Err(ProtocolError::UnknownQuery { .. }) => 0,
                Err(e) => panic!("unexpected recovery state: {e}"),
            };
            assert!(results >= last_results, "recovery lost state at cut {cut}");
            assert!(results <= 1, "double-accepted replay at cut {cut}");
            last_results = results;
        }
        assert_eq!(last_results, 1);
        let _ = std::fs::remove_file(&torn);
    }

    #[test]
    fn journal_interior_corruption_is_a_typed_error() {
        let path = tmp_journal("corrupt");
        {
            let ssi = Ssi::recover(JournalConfig::new(&path)).unwrap();
            journaled_lifecycle(&ssi);
        }
        let mut raw = std::fs::read(&path).unwrap();
        // Flip one payload byte of the first record (magic is 8 bytes, the
        // length prefix 4): the frame stays complete, so this must surface
        // as a checksum mismatch, not a torn tail.
        raw[14] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
        match Ssi::recover(JournalConfig::new(&path)) {
            Err(ProtocolError::JournalCorrupt { offset, .. }) => assert_eq!(offset, 8),
            other => panic!("expected JournalCorrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_replay_refuses_a_double_accept() {
        // Hand-craft a journal whose records claim two acceptances for the
        // same work item under different assignments. The replay must
        // refuse it (the transition table says the second is
        // late-after-reassign, never a merge).
        let path = tmp_journal("double-accept");
        {
            let (mut j, records) = Journal::open(&JournalConfig::new(&path)).unwrap();
            assert!(records.is_empty());
            let mut env = envelope();
            env.query_id = 0;
            j.append(&JournalRecord::QueryPosted { envelope: env })
                .unwrap();
            j.append(&JournalRecord::ItemAllocated {
                query_id: 0,
                item: 0,
            })
            .unwrap();
            for assignment in [0u64, 1] {
                j.append(&JournalRecord::AssignmentIssued {
                    query_id: 0,
                    assignment,
                    item: 0,
                })
                .unwrap();
                j.append(&JournalRecord::CollectionAccepted {
                    query_id: 0,
                    assignment,
                    tuples: vec![tuple(9)],
                })
                .unwrap();
            }
        }
        match Ssi::recover(JournalConfig::new(&path)) {
            Err(ProtocolError::JournalCorrupt { what, .. }) => {
                assert!(what.contains("double-settle"), "unexpected reason: {what}")
            }
            other => panic!("expected JournalCorrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Journal order must equal mutation order even when deliveries race
    /// `close_collection`: before the sequencing lock, a delivery that
    /// settled Accepted just before the close could append its
    /// `CollectionAccepted` record *after* `CollectionClosed` (or after a
    /// snapshot cut with `closed = true`), and recovery would refuse a
    /// journal a legal concurrent run produced. Recovery must always
    /// succeed and reproduce the live state exactly.
    #[test]
    fn journaled_close_race_recovers_exact_live_state() {
        const DELIVERIES: usize = 24;
        const THREADS: usize = 3;
        for round in 0..6 {
            let path = tmp_journal(&format!("close-race-{round}"));
            let mut config = JournalConfig::new(&path);
            config.snapshot_every = 3; // cut snapshots amid the race too
            let (qid, live_working, live_closed) = {
                let ssi = Ssi::recover(config.clone()).unwrap();
                let qid = ssi.post_query_durable(envelope()).unwrap();
                let mut assignments = Vec::new();
                for _ in 0..DELIVERIES {
                    let item = ssi.new_item(qid).unwrap();
                    assignments.push(ssi.begin_assignment(qid, item).unwrap());
                }
                std::thread::scope(|scope| {
                    for chunk in assignments.chunks(DELIVERIES / THREADS) {
                        let ssi = &ssi;
                        scope.spawn(move || {
                            for &a in chunk {
                                ssi.receive_collection(qid, a, vec![tuple(1)]).unwrap();
                            }
                        });
                    }
                    let ssi = &ssi;
                    scope.spawn(move || ssi.close_collection(qid).unwrap());
                });
                assert_eq!(ssi.collection_count(qid).unwrap(), 0);
                (
                    qid,
                    ssi.working_len(qid).unwrap(),
                    ssi.collection_closed(qid).unwrap(),
                )
            };
            let recovered = Ssi::recover(config).unwrap();
            assert_eq!(recovered.collection_closed(qid).unwrap(), live_closed);
            assert_eq!(recovered.collection_count(qid).unwrap(), 0);
            assert_eq!(
                recovered.working_len(qid).unwrap(),
                live_working,
                "round {round}: recovered working set diverged from live"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Same property for the aggregation side: `WorkingAccepted` records
    /// racing `WorkingTaken`/`WorkingRestored` must replay to exactly the
    /// live working set — a record landing on the wrong side of the take
    /// would silently recover a diverged set.
    #[test]
    fn journaled_take_race_recovers_exact_live_state() {
        const DELIVERIES: usize = 18;
        const THREADS: usize = 3;
        for round in 0..6 {
            let path = tmp_journal(&format!("take-race-{round}"));
            let mut config = JournalConfig::new(&path);
            config.snapshot_every = 4;
            let (qid, live_working) = {
                let ssi = Ssi::recover(config.clone()).unwrap();
                let qid = ssi.post_query_durable(envelope()).unwrap();
                ssi.close_collection(qid).unwrap();
                std::thread::scope(|scope| {
                    for _ in 0..THREADS {
                        let ssi = &ssi;
                        scope.spawn(move || {
                            for _ in 0..DELIVERIES / THREADS {
                                let item = ssi.new_item(qid).unwrap();
                                let a = ssi.begin_assignment(qid, item).unwrap();
                                ssi.receive_working(qid, a, Phase::Aggregation, vec![tuple(1)])
                                    .unwrap();
                            }
                        });
                    }
                    let ssi = &ssi;
                    scope.spawn(move || {
                        for _ in 0..4 {
                            let taken = ssi.take_working(qid).unwrap();
                            ssi.restore_working(qid, Phase::Aggregation, taken).unwrap();
                        }
                    });
                });
                (qid, ssi.working_len(qid).unwrap())
            };
            let recovered = Ssi::recover(config).unwrap();
            assert_eq!(
                recovered.working_len(qid).unwrap(),
                live_working,
                "round {round}: recovered working set diverged from live"
            );
            assert_eq!(live_working, DELIVERIES);
            let _ = std::fs::remove_file(&path);
        }
    }

    /// The service-surface post path dedupes byte-identical envelopes, so
    /// the driver's control-plane retry of a post whose response was lost
    /// (even across a crash/restart) cannot leak an orphaned duplicate
    /// query — and a purge releases the slot again.
    #[test]
    fn durable_posts_are_idempotent_by_envelope() {
        let path = tmp_journal("idem-post");
        let qid = {
            let ssi = Ssi::recover(JournalConfig::new(&path)).unwrap();
            let first = ssi.post_query_durable(envelope()).unwrap();
            // The retry lands on the same query.
            assert_eq!(ssi.post_query_durable(envelope()).unwrap(), first);
            assert_eq!(ssi.live_queries(), 1);
            first
        };
        // The index survives recovery: a re-post that straddled the crash
        // still lands on the same query id.
        let ssi = Ssi::recover(JournalConfig::new(&path)).unwrap();
        assert_eq!(ssi.post_query_durable(envelope()).unwrap(), qid);
        assert_eq!(ssi.live_queries(), 1);
        // A different envelope is a different query.
        let mut other = envelope();
        other.enc_query = Bytes::from_static(b"another ciphertext");
        let qid2 = ssi.post_query_durable(other).unwrap();
        assert_ne!(qid2, qid);
        // Purging frees the digest: a later identical post is a fresh query.
        ssi.purge_query(qid).unwrap();
        let qid3 = ssi.post_query_durable(envelope()).unwrap();
        assert_ne!(qid3, qid);
        // The dedupe spans the collection window only: after the close the
        // same bytes are a new query (deterministic-seed runs reuse
        // envelopes verbatim), not a conflated retry handed a closed
        // window — and that boundary also survives recovery.
        ssi.close_collection(qid3).unwrap();
        let qid4 = ssi.post_query_durable(envelope()).unwrap();
        assert_ne!(qid4, qid3);
        ssi.close_collection(qid4).unwrap();
        drop(ssi);
        let ssi = Ssi::recover(JournalConfig::new(&path)).unwrap();
        assert_ne!(ssi.post_query_durable(envelope()).unwrap(), qid4);
        let _ = std::fs::remove_file(&path);
    }

    /// Two *different* queriers posting byte-identical envelopes
    /// (deterministic-seed runs reuse nonces, so identical ciphertext
    /// across queriers is legitimate) must get two distinct queries: the
    /// idempotency index keys by (querier identity, ciphertext digest),
    /// never by ciphertext alone — keying on the ciphertext would hand
    /// the second querier the first one's query id.
    #[test]
    fn identical_envelopes_from_different_queriers_are_distinct_queries() {
        let path = tmp_journal("cross-querier");
        let signer = CredentialSigner::new(b"authority");
        let mut alice = envelope();
        alice.credential = signer.issue("alice", Role::new("r"), u64::MAX);
        let mut bob = envelope();
        bob.credential = signer.issue("bob", Role::new("r"), u64::MAX);
        assert_eq!(
            alice.enc_query, bob.enc_query,
            "envelopes byte-identical by construction"
        );
        let (a, b) = {
            let ssi = Ssi::recover(JournalConfig::new(&path)).unwrap();
            let a = ssi.post_query_durable(alice.clone()).unwrap();
            let b = ssi.post_query_durable(bob.clone()).unwrap();
            assert_ne!(a, b, "cross-querier merge: bob was handed alice's query");
            // Each querier's own retry still dedupes onto its own query.
            assert_eq!(ssi.post_query_durable(alice.clone()).unwrap(), a);
            assert_eq!(ssi.post_query_durable(bob.clone()).unwrap(), b);
            assert_eq!(ssi.live_queries(), 2);
            (a, b)
        };
        // The keying survives recovery: both index entries are rebuilt
        // from the journal with their querier identities intact.
        let ssi = Ssi::recover(JournalConfig::new(&path)).unwrap();
        assert_eq!(ssi.post_query_durable(alice).unwrap(), a);
        assert_eq!(ssi.post_query_durable(bob).unwrap(), b);
        assert_eq!(ssi.live_queries(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn close_collection_is_idempotent() {
        let ssi = Ssi::new();
        let qid = ssi.post_query(envelope());
        assert_eq!(
            collect(&ssi, qid, vec![tuple(1)]),
            DeliveryOutcome::Accepted
        );
        ssi.close_collection(qid).unwrap();
        assert_eq!(ssi.working_len(qid).unwrap(), 1);
        // A retried close (lost response on the wire) must not wipe the
        // working set.
        ssi.close_collection(qid).unwrap();
        assert_eq!(ssi.working_len(qid).unwrap(), 1);
    }

    // -- work-item reservation ----------------------------------------------

    /// Is `item` allocated in the recovered ledger of `qid`?
    fn allocated(ssi: &Ssi, qid: u64, item: u64) -> bool {
        ssi.handle(qid).unwrap().ledger.allocated(item)
    }

    #[test]
    fn journal_item_ids_are_never_reused_across_recovery() {
        // 0: replay reads the two block reservations; 3: the last record is
        // a snapshot cut inside the second block.
        for snapshot_every in [0, 3] {
            let path = tmp_journal(&format!("reserve-{snapshot_every}"));
            let mut config = JournalConfig::new(&path);
            config.snapshot_every = snapshot_every;
            let qid = {
                let ssi = Ssi::recover(config.clone()).unwrap();
                let qid = ssi.post_query_durable(envelope()).unwrap();
                for want in 0..70 {
                    assert_eq!(ssi.new_item(qid).unwrap(), want);
                }
                qid
            };
            let (_, records) = Journal::open(&config).unwrap();
            let reservations = records
                .iter()
                .filter(|(_, r)| matches!(r, JournalRecord::ItemAllocated { .. }))
                .count();
            assert_eq!(reservations, 2, "one record per block of 64 ids");
            if snapshot_every > 0 {
                match records.last() {
                    Some((_, JournalRecord::Snapshot { state })) => {
                        assert_eq!(state.queries[0].next_item, 128, "the reservation");
                    }
                    other => panic!("expected a closing snapshot, got {other:?}"),
                }
            }
            let ssi = Ssi::recover(config.clone()).unwrap();
            assert!((0..70).all(|item| allocated(&ssi, qid, item)));
            let next = ssi.new_item(qid).unwrap();
            assert!(
                next >= 128,
                "snapshot_every {snapshot_every}: id {next} reused"
            );
            // An id issued before the crash still takes assignments.
            ssi.begin_assignment(qid, 69).unwrap();
            drop(ssi);
            // The new block's reservation survives a second recovery too.
            let ssi = Ssi::recover(config).unwrap();
            assert!(allocated(&ssi, qid, next));
            assert!(ssi.new_item(qid).unwrap() >= 192);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn journal_replays_an_assignment_inside_a_reserved_block() {
        let path = tmp_journal("reserved-block");
        {
            let (mut j, _) = Journal::open(&JournalConfig::new(&path)).unwrap();
            j.append(&JournalRecord::QueryPosted {
                envelope: envelope(),
            })
            .unwrap();
            j.append(&JournalRecord::ItemAllocated {
                query_id: 0,
                item: 63,
            })
            .unwrap();
            j.append(&JournalRecord::AssignmentIssued {
                query_id: 0,
                assignment: 0,
                item: 10,
            })
            .unwrap();
            j.append(&JournalRecord::CollectionAccepted {
                query_id: 0,
                assignment: 0,
                tuples: vec![tuple(1)],
            })
            .unwrap();
        }
        let ssi = Ssi::recover(JournalConfig::new(&path)).unwrap();
        assert!(ssi.item_done(0, 10).unwrap());
        assert_eq!(ssi.collection_count(0).unwrap(), 1);
        assert_eq!(ssi.new_item(0).unwrap(), 64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_with_one_record_per_item_still_recovers_and_extends() {
        // Journals written before block reservation carry one
        // `ItemAllocated` per id. Recovering one mid-block must reserve
        // the rest of that block before handing out its next id.
        let path = tmp_journal("per-item");
        {
            let (mut j, _) = Journal::open(&JournalConfig::new(&path)).unwrap();
            j.append(&JournalRecord::QueryPosted {
                envelope: envelope(),
            })
            .unwrap();
            for item in 0..70 {
                j.append(&JournalRecord::ItemAllocated { query_id: 0, item })
                    .unwrap();
            }
        }
        let item = {
            let ssi = Ssi::recover(JournalConfig::new(&path)).unwrap();
            let item = ssi.new_item(0).unwrap();
            assert_eq!(item, 70);
            ssi.begin_assignment(0, item).unwrap();
            item
        };
        let ssi = Ssi::recover(JournalConfig::new(&path)).unwrap();
        assert!(allocated(&ssi, 0, item));
        assert_eq!(ssi.new_item(0).unwrap(), 128);
        let _ = std::fs::remove_file(&path);
    }

    /// The record mix of an S_Agg-shaped collection stream: one block
    /// reservation per 64 items, and snapshots that never outweigh the
    /// records between them by more than one snapshot.
    #[test]
    fn journal_record_mix_of_a_collection_stream() {
        const ITEMS: u64 = 1_000;
        let path = tmp_journal("record-mix");
        let config = JournalConfig {
            path: path.clone(),
            sync: SyncPolicy::EveryN(64),
            snapshot_every: 64,
        };
        {
            let ssi = Ssi::recover(config.clone()).unwrap();
            let qid = ssi.post_query_durable(envelope()).unwrap();
            for i in 0..ITEMS {
                assert_eq!(
                    collect(&ssi, qid, vec![tuple(i as u8)]),
                    DeliveryOutcome::Accepted
                );
            }
        }
        let file_len = std::fs::metadata(&path).unwrap().len();
        let (_, records) = Journal::open(&config).unwrap();
        let ends = records.iter().skip(1).map(|(offset, _)| *offset);
        let (mut reservations, mut snapshots) = (0, Vec::new());
        let mut others = 0;
        for ((offset, record), end) in records.iter().zip(ends.chain([file_len])) {
            let len = end - offset;
            match record {
                JournalRecord::ItemAllocated { .. } => {
                    reservations += 1;
                    others += len;
                }
                JournalRecord::Snapshot { .. } => snapshots.push(len),
                _ => others += len,
            }
        }
        assert_eq!(reservations, ITEMS.div_ceil(ITEM_BLOCK));
        assert!(snapshots.len() > 1, "the stream must cut snapshots");
        let largest = snapshots.iter().max().copied().unwrap_or(0);
        let total: u64 = snapshots.iter().sum();
        assert!(
            total <= others + largest,
            "snapshots {total} B against {others} B of records (largest {largest} B)"
        );
        let _ = std::fs::remove_file(&path);
    }
}
