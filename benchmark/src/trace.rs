//! Outside-in tracing: decorators around the two public traits of the
//! service seam ([`SsiService`], [`TdsPool`]) that time every call, keep
//! sums and counts for all queries, and record spans for sampled ones.
//! Nothing inside the program is instrumented; a layer's self time is its
//! span minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use tdsql_core::bytes::Bytes;
use tdsql_core::message::{AssignmentId, DeliveryOutcome, QueryEnvelope, StoredTuple};
use tdsql_core::service::{MultiStepPart, SsiService, StepResult, TdsPool, TdsStep};
use tdsql_core::stats::Phase;
use tdsql_core::{ProtocolParams, Result};
use tdsql_sql::value::Value;

use crate::json;
use crate::stats::{Count, Tally};

/// One timed interval. `parent == 0` marks a root (one per sampled query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Ordinal of the query (or wave) the span belongs to.
    pub query: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Length of the union of `intervals`, each clipped to `start..end`.
/// Children of a concurrent parent overlap, so their durations cannot
/// simply be added.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// A span's self time: its duration minus what its children cover.
pub fn self_ns(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    let duration = span.end_ns.saturating_sub(span.start_ns);
    duration - covered_ns(span.start_ns, span.end_ns, children)
}

/// In-memory span store shared by the decorators. Spans are kept only
/// while a sampled query is open; timing itself never depends on it.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Root span id of the open sampled query, 0 when none is open.
    root: AtomicU64,
    query: AtomicU64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            root: AtomicU64::new(0),
            query: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Open query `query`; its calls are recorded as spans when `sampled`.
    /// Returns the start time to hand back to [`Recorder::end_query`].
    pub fn begin_query(&self, query: u64, sampled: bool) -> u64 {
        let root = if sampled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        self.query.store(query, Ordering::Relaxed);
        // Release/Acquire with `child`: a worker that sees the root also
        // sees the query ordinal stored before it.
        self.root.store(root, Ordering::Release);
        self.now_ns()
    }

    /// Close the open query, recording its root span if it was sampled.
    pub fn end_query(&self, name: &'static str, start_ns: u64) {
        let end_ns = self.now_ns();
        let root = self.root.swap(0, Ordering::AcqRel);
        if root != 0 {
            self.push(Span {
                id: root,
                parent: 0,
                query: self.query.load(Ordering::Relaxed),
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Record one call made on behalf of the open query, if it is sampled.
    pub fn child(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let root = self.root.load(Ordering::Acquire);
        if root != 0 {
            self.push(Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent: root,
                query: self.query.load(Ordering::Relaxed),
                name,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// How a traced phase records: where, and how densely.
pub struct Tracing<'a> {
    pub rec: &'a Recorder,
    /// The pool the driver is handed in place of the bare one.
    pub pool: &'a TracedPool<'a>,
    /// Spans are kept for every `sample_every`-th query; sums and counts
    /// for all of them.
    pub sample_every: u64,
}

/// Durations in microseconds of the spans whose name starts with `prefix`.
pub fn durations_us(spans: &[Span], prefix: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
        .collect()
}

/// The trace file: one JSON object per span, each with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = String::new();
    for s in spans {
        let own = self_ns(
            s,
            children.get_mut(&s.id).map_or(&mut [], Vec::as_mut_slice),
        );
        let parent = if s.parent == 0 {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"query\": {}, \"name\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
            s.id,
            s.query,
            json::string(s.name),
            s.start_ns,
            s.end_ns,
        );
    }
    out
}

/// The SSI as the harness hands it to the driver. Always in place: it
/// remembers the ids `post_query` returned (discovery sub-queries
/// included) so the harness can purge them, and counts collected tuples.
/// With a [`Recorder`] it also times every call by class.
pub struct SsiProbe<'a> {
    inner: &'a dyn SsiService,
    rec: Option<&'a Recorder>,
    posted: Mutex<Vec<u64>>,
    /// Tuples delivered by `receive_collection`.
    pub collected: Count,
    /// `new_item` / `begin_assignment` / `item_done`.
    pub ledger: Tally,
    /// `receive_collection` / `receive_working` / `receive_results`.
    pub receive: Tally,
    /// `take_working` / `restore_working`.
    pub working: Tally,
    /// Everything else the driver calls.
    pub control: Tally,
    /// `purge_query`, which only the harness calls.
    pub purge: Tally,
    pub errors: Count,
}

impl<'a> SsiProbe<'a> {
    pub fn new(inner: &'a dyn SsiService, rec: Option<&'a Recorder>) -> Self {
        Self {
            inner,
            rec,
            posted: Mutex::new(Vec::new()),
            collected: Count::default(),
            ledger: Tally::default(),
            receive: Tally::default(),
            working: Tally::default(),
            control: Tally::default(),
            purge: Tally::default(),
            errors: Count::default(),
        }
    }

    /// Purge every query posted since the last call.
    pub fn purge_posted(&self) -> Result<()> {
        let ids = std::mem::take(&mut *self.posted.lock().unwrap_or_else(PoisonError::into_inner));
        ids.into_iter().try_for_each(|id| self.purge_query(id))
    }

    /// Calls and time of everything the driver called (purge excluded).
    pub fn driver_calls(&self) -> (u64, u64) {
        let all = [&self.ledger, &self.receive, &self.working, &self.control];
        (
            all.iter().map(|t| t.calls()).sum(),
            all.iter().map(|t| t.ns()).sum(),
        )
    }

    fn call<T>(
        &self,
        tally: &Tally,
        name: &'static str,
        f: impl FnOnce(&dyn SsiService) -> Result<T>,
    ) -> Result<T> {
        let Some(rec) = self.rec else {
            return f(self.inner);
        };
        let start = rec.now_ns();
        let out = f(self.inner);
        let end = rec.now_ns();
        tally.add(end - start);
        if out.is_err() {
            self.errors.add(1);
        }
        rec.child(name, start, end);
        out
    }
}

impl SsiService for SsiProbe<'_> {
    fn post_query(&self, envelope: QueryEnvelope) -> Result<u64> {
        let id = self.call(&self.control, "ssi.post_query", |s| s.post_query(envelope))?;
        self.posted
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(id);
        Ok(id)
    }
    fn envelope(&self, query_id: u64) -> Result<QueryEnvelope> {
        self.call(&self.control, "ssi.envelope", |s| s.envelope(query_id))
    }
    fn new_item(&self, query_id: u64) -> Result<u64> {
        self.call(&self.ledger, "ssi.new_item", |s| s.new_item(query_id))
    }
    fn begin_assignment(&self, query_id: u64, item: u64) -> Result<AssignmentId> {
        self.call(&self.ledger, "ssi.begin_assignment", |s| {
            s.begin_assignment(query_id, item)
        })
    }
    fn item_done(&self, query_id: u64, item: u64) -> Result<bool> {
        self.call(&self.ledger, "ssi.item_done", |s| {
            s.item_done(query_id, item)
        })
    }
    fn receive_collection(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome> {
        self.collected.add(tuples.len() as u64);
        self.call(&self.receive, "ssi.receive_collection", |s| {
            s.receive_collection(query_id, assignment, tuples)
        })
    }
    fn collection_count(&self, query_id: u64) -> Result<usize> {
        self.call(&self.control, "ssi.collection_count", |s| {
            s.collection_count(query_id)
        })
    }
    fn size_tuples_reached(&self, query_id: u64) -> Result<bool> {
        self.call(&self.control, "ssi.size_tuples_reached", |s| {
            s.size_tuples_reached(query_id)
        })
    }
    fn close_collection(&self, query_id: u64) -> Result<()> {
        self.call(&self.control, "ssi.close_collection", |s| {
            s.close_collection(query_id)
        })
    }
    fn take_working(&self, query_id: u64) -> Result<Vec<StoredTuple>> {
        self.call(&self.working, "ssi.take_working", |s| {
            s.take_working(query_id)
        })
    }
    fn restore_working(&self, query_id: u64, phase: Phase, tuples: Vec<StoredTuple>) -> Result<()> {
        self.call(&self.working, "ssi.restore_working", |s| {
            s.restore_working(query_id, phase, tuples)
        })
    }
    fn receive_working(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        phase: Phase,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome> {
        self.call(&self.receive, "ssi.receive_working", |s| {
            s.receive_working(query_id, assignment, phase, tuples)
        })
    }
    fn receive_results(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        rows: Vec<Bytes>,
    ) -> Result<DeliveryOutcome> {
        self.call(&self.receive, "ssi.receive_results", |s| {
            s.receive_results(query_id, assignment, rows)
        })
    }
    fn results(&self, query_id: u64) -> Result<Vec<Bytes>> {
        self.call(&self.control, "ssi.results", |s| s.results(query_id))
    }
    fn purge_query(&self, query_id: u64) -> Result<()> {
        self.call(&self.purge, "ssi.purge_query", |s| s.purge_query(query_id))
    }
}

/// The TDS pool of a traced run: times every contact by [`TdsStep`]
/// variant. Untraced runs hand the driver the bare pool.
pub struct TracedPool<'a> {
    inner: &'a dyn TdsPool,
    rec: &'a Recorder,
    pub collect: Tally,
    pub reduce: Tally,
    pub finalize: Tally,
    /// Tuples and result rows the steps returned.
    pub tuples_out: Count,
    pub errors: Count,
}

impl<'a> TracedPool<'a> {
    pub fn new(inner: &'a dyn TdsPool, rec: &'a Recorder) -> Self {
        Self {
            inner,
            rec,
            collect: Tally::default(),
            reduce: Tally::default(),
            finalize: Tally::default(),
            tuples_out: Count::default(),
            errors: Count::default(),
        }
    }

    /// Calls and time over all step variants.
    pub fn calls(&self) -> (u64, u64) {
        let all = [&self.collect, &self.reduce, &self.finalize];
        (
            all.iter().map(|t| t.calls()).sum(),
            all.iter().map(|t| t.ns()).sum(),
        )
    }

    fn class(&self, step: TdsStep) -> (&Tally, &'static str) {
        match step {
            TdsStep::Collect => (&self.collect, "tds.collect"),
            TdsStep::ReduceInputs { .. } | TdsStep::ReducePartials { .. } => {
                (&self.reduce, "tds.reduce")
            }
            TdsStep::FilterPlain | TdsStep::FinalizeGroups { .. } => {
                (&self.finalize, "tds.finalize")
            }
        }
    }

    fn account(&self, out: &Result<StepResult>) {
        match out {
            Ok(StepResult::Working(t)) => self.tuples_out.add(t.len() as u64),
            Ok(StepResult::Results(r)) => self.tuples_out.add(r.len() as u64),
            Err(_) => self.errors.add(1),
        }
    }
}

impl TdsPool for TracedPool<'_> {
    fn len(&self) -> Result<usize> {
        self.inner.len()
    }
    fn tds_ids(&self) -> Result<Vec<u64>> {
        self.inner.tds_ids()
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
        let (tally, name) = self.class(step);
        let start = self.rec.now_ns();
        let out = self
            .inner
            .step(index, env, params, now_round, step, partition, rng_seed);
        let end = self.rec.now_ns();
        tally.add(end - start);
        self.account(&out);
        self.rec.child(name, start, end);
        out
    }
    fn open_rows(&self, blobs: &[Bytes]) -> Result<Vec<Vec<Value>>> {
        self.inner.open_rows(blobs)
    }
    /// One batched contact stays one call on the inner pool (one frame on
    /// a remote pool); its time is split equally among its parts' classes.
    fn multi_step(&self, index: usize, parts: &[MultiStepPart]) -> Result<Vec<Result<StepResult>>> {
        let start = self.rec.now_ns();
        let out = self.inner.multi_step(index, parts);
        let end = self.rec.now_ns();
        let share = (end - start) / (parts.len().max(1) as u64);
        for p in parts {
            self.class(p.step).0.add(share);
        }
        match &out {
            Ok(results) => results.iter().for_each(|r| self.account(r)),
            Err(_) => self.errors.add(1),
        }
        self.rec.child("tds.multi_step", start, end);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let root = span(1, 0, 100, 200);
        assert_eq!(self_ns(&root, &mut []), 100);
        assert_eq!(self_ns(&root, &mut [(110, 120), (150, 190)]), 50);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let root = span(1, 0, 0, 100);
        // 10..40 and 30..60 overlap: the union 10..60 is 50, not 60.
        assert_eq!(self_ns(&root, &mut [(30, 60), (10, 40)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_ns(&root, &mut [(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let root = span(1, 0, 100, 200);
        assert_eq!(self_ns(&root, &mut [(50, 120), (190, 250)]), 70);
        assert_eq!(self_ns(&root, &mut [(0, 300)]), 0);
        assert_eq!(self_ns(&root, &mut [(0, 50), (250, 300)]), 100);
    }

    #[test]
    fn recorder_keeps_spans_of_sampled_queries_only() {
        let rec = Recorder::new();
        let t = rec.begin_query(7, false);
        rec.child("ssi.new_item", 1, 2);
        rec.end_query("driver.query", t);
        assert!(rec.spans().is_empty());

        let t = rec.begin_query(8, true);
        rec.child("ssi.new_item", t, t + 1);
        rec.end_query("driver.query", t);
        rec.child("late", 0, 1);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.parent == 0).expect("root span");
        assert_eq!((root.name, root.query), ("driver.query", 8));
        let child = spans.iter().find(|s| s.parent != 0).expect("child span");
        assert_eq!((child.parent, child.query), (root.id, 8));
    }

    #[test]
    fn jsonl_carries_self_time_per_span() {
        let mut root = span(1, 0, 0, 100);
        root.name = "driver.query";
        let text = to_jsonl(&[root, span(2, 1, 10, 30), span(3, 1, 20, 60)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"id\": 1, \"parent\": null, \"query\": 0, \"name\": \"driver.query\", \
             \"start_ns\": 0, \"end_ns\": 100, \"self_ns\": 50}"
        );
        assert!(lines[1].contains("\"parent\": 1") && lines[1].contains("\"self_ns\": 20"));
        assert_eq!(durations_us(&[span(9, 1, 0, 2500)], "t"), vec![2.5]);
    }
}
