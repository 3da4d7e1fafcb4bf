//! Remote implementations of the service traits: [`RemoteSsi`] and
//! [`RemoteTdsPool`] speak the framed TCP wire protocol to `ssi-server`
//! and `tds-pool` processes.
//!
//! Failure model: every socket-level failure surfaces as a
//! [`transport_error`], which the [`ServiceDriver`] folds into the fault
//! taxonomy (reassignment for a failed step, lost upload for a failed
//! delivery). The connection layer retries each call on a fresh
//! connection with seeded-jitter backoff, up to a hard per-call attempt
//! cap; exhausting the cap is a typed
//! [`ProtocolError::BackendUnavailable`], so "the peer is down" is
//! distinguishable from a transient hiccup. Retrying is safe even for
//! deliveries because the SSI's settle ledger makes them at-least-once
//! with exactly-once settlement: a request that executed but whose
//! response was lost settles as a [`DeliveryOutcome::Duplicate`], never
//! as double effect.
//!
//! [`ServiceDriver`]: tdsql_core::runtime::service::ServiceDriver
//! [`DeliveryOutcome::Duplicate`]: tdsql_core::message::DeliveryOutcome

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tdsql_core::bytes::Bytes;
use tdsql_core::error::{ProtocolError, Result};
use tdsql_core::message::{AssignmentId, DeliveryOutcome, QueryEnvelope, StoredTuple};
use tdsql_core::protocol::ProtocolParams;
use tdsql_core::runtime::backoff::BackoffPolicy;
use tdsql_core::service::{
    is_transport_error, transport_error, SsiService, StepResult, TdsPool, TdsStep,
};
use tdsql_core::stats::Phase;
use tdsql_obs::{Field, Obs};
use tdsql_sql::value::Value;

use crate::frame::{read_frame, write_frame, HEADER_LEN};
use crate::wire::{PoolRequest, PoolResponse, SsiRequest, SsiResponse};

/// A decoded response of the wrong shape for the request that was sent.
fn unexpected(what: &'static str) -> ProtocolError {
    ProtocolError::Codec(format!("unexpected wire response for {what}"))
}

/// Aggregate connection counters (frame-level accounting, headers
/// included). Snapshot via [`RemoteSsi::stats`] / [`RemoteTdsPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Calls issued (each may take several wire attempts).
    pub calls: u64,
    /// Wire attempts across all calls (`attempts - calls` = retries).
    pub attempts: u64,
    /// Reconnections after a transport failure.
    pub reconnects: u64,
    /// Calls that exhausted the attempt cap and surfaced as
    /// [`ProtocolError::BackendUnavailable`].
    pub backend_unavailable: u64,
    /// Bytes written to the socket.
    pub bytes_sent: u64,
    /// Bytes read from the socket.
    pub bytes_received: u64,
}

impl NetStats {
    /// Total bytes moved in either direction.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// One lazily-connected, auto-reconnecting client connection with byte
/// accounting. All telemetry goes through the shared [`Obs`]; the
/// connection never logs request contents, only counters.
struct Conn {
    addr: String,
    peer: &'static str,
    stream: Mutex<Option<TcpStream>>,
    obs: Arc<Obs>,
    backoff: BackoffPolicy,
    calls: AtomicU64,
    attempts: AtomicU64,
    reconnects: AtomicU64,
    backend_unavailable: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
}

/// Stable jitter seed per peer name, so the two clients of one process
/// de-sync their retry schedules without any configuration.
fn peer_seed(peer: &str) -> u64 {
    peer.bytes().fold(0x9e37_79b9_7f4a_7c15u64, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(u64::from(b))
    })
}

/// Connect if needed, then run one framed request/response exchange on
/// the cached stream.
fn exchange(guard: &mut Option<TcpStream>, addr: &str, request: &[u8]) -> Result<Vec<u8>> {
    if guard.is_none() {
        let stream = TcpStream::connect(addr).map_err(transport_error)?;
        // Request/response framing: Nagle's algorithm only adds
        // latency here.
        stream.set_nodelay(true).map_err(transport_error)?;
        *guard = Some(stream);
    }
    match guard.as_mut() {
        Some(stream) => write_frame(stream, request).and_then(|()| read_frame(stream)),
        None => Err(transport_error("connection vanished")),
    }
}

impl Conn {
    fn new(addr: impl Into<String>, peer: &'static str, obs: Arc<Obs>) -> Self {
        Conn {
            addr: addr.into(),
            peer,
            stream: Mutex::new(None),
            obs,
            backoff: BackoffPolicy {
                base_ms: 25,
                cap_ms: 100,
                max_attempts: 4,
                seed: peer_seed(peer),
            },
            calls: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            backend_unavailable: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
        }
    }

    /// One request/response exchange. A transport failure drops the stale
    /// connection and retries on a fresh one with seeded-jitter backoff,
    /// up to the policy's hard per-call attempt cap; exhaustion surfaces
    /// as a typed [`ProtocolError::BackendUnavailable`] (and one
    /// `net.client.backend_unavailable` obs event), so a dead peer can
    /// never loop a caller forever.
    fn call(&self, request: &[u8]) -> Result<Vec<u8>> {
        let mut guard = self
            .stream
            .lock()
            .map_err(|_| transport_error("client connection lock poisoned"))?;
        self.calls.fetch_add(1, Ordering::Relaxed);
        let mut attempt: u32 = 0;
        loop {
            self.attempts.fetch_add(1, Ordering::Relaxed);
            match exchange(&mut *guard, &self.addr, request) {
                Ok(response) => {
                    self.bytes_sent
                        .fetch_add((request.len() + HEADER_LEN) as u64, Ordering::Relaxed);
                    self.bytes_received
                        .fetch_add((response.len() + HEADER_LEN) as u64, Ordering::Relaxed);
                    return Ok(response);
                }
                Err(e) if is_transport_error(&e) => {
                    // Stale, reset or dead connection: drop it; the next
                    // iteration reconnects from scratch.
                    *guard = None;
                    self.reconnects.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                    if attempt >= self.backoff.max_attempts {
                        self.backend_unavailable.fetch_add(1, Ordering::Relaxed);
                        self.obs.event(
                            "net.client.backend_unavailable",
                            None,
                            vec![
                                Field::str("peer", self.peer),
                                Field::u64("attempts", u64::from(attempt)),
                                Field::str("error", e.to_string()),
                            ],
                        );
                        return Err(ProtocolError::BackendUnavailable {
                            peer: self.peer,
                            attempts: attempt,
                        });
                    }
                    self.obs.event(
                        "net.client.reconnect",
                        None,
                        vec![
                            Field::str("peer", self.peer),
                            Field::u64("attempt", u64::from(attempt)),
                        ],
                    );
                    self.backoff.sleep(attempt - 1);
                }
                Err(e) => {
                    // Non-transport failure (e.g. a codec error decoding a
                    // response mid-stream): the stream may still hold
                    // unread bytes of the failed exchange, so reusing it
                    // would desynchronize every later call on this
                    // connection — its requests would read the stale
                    // response. Drop the stream; the next call reconnects.
                    *guard = None;
                    return Err(e);
                }
            }
        }
    }

    fn stats(&self) -> NetStats {
        NetStats {
            calls: self.calls.load(Ordering::Relaxed),
            attempts: self.attempts.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            backend_unavailable: self.backend_unavailable.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
        }
    }

    /// Emit the connection's aggregate counters as one obs event.
    fn emit_stats(&self) {
        self.obs.event(
            "net.client.stats",
            None,
            vec![
                Field::str("peer", self.peer),
                Field::u64("calls", self.calls.load(Ordering::Relaxed)),
                Field::u64("attempts", self.attempts.load(Ordering::Relaxed)),
                Field::u64("reconnects", self.reconnects.load(Ordering::Relaxed)),
                Field::u64(
                    "backend_unavailable",
                    self.backend_unavailable.load(Ordering::Relaxed),
                ),
                Field::u64("bytes_sent", self.bytes_sent.load(Ordering::Relaxed)),
                Field::u64(
                    "bytes_received",
                    self.bytes_received.load(Ordering::Relaxed),
                ),
            ],
        );
    }
}

/// [`SsiService`] over the wire: each method is one framed request to an
/// `ssi-server` process.
pub struct RemoteSsi {
    conn: Conn,
}

impl RemoteSsi {
    /// Create a client for the SSI at `addr` (`host:port`). Connects
    /// lazily on the first call.
    pub fn connect(addr: impl Into<String>, obs: Arc<Obs>) -> Self {
        RemoteSsi {
            conn: Conn::new(addr, "ssi", obs),
        }
    }

    /// Emit the connection's aggregate byte/call counters to the obs log.
    pub fn emit_stats(&self) {
        self.conn.emit_stats();
    }

    /// Snapshot the connection counters.
    pub fn stats(&self) -> NetStats {
        self.conn.stats()
    }

    fn call(&self, req: &SsiRequest) -> Result<SsiResponse> {
        let wire = req.encode()?;
        let response = self.conn.call(&wire)?;
        match SsiResponse::decode(&response)? {
            SsiResponse::Err(e) => Err(e),
            ok => Ok(ok),
        }
    }
}

impl SsiService for RemoteSsi {
    fn post_query(&self, envelope: QueryEnvelope) -> Result<u64> {
        match self.call(&SsiRequest::PostQuery(envelope))? {
            SsiResponse::Id(id) => Ok(id),
            _ => Err(unexpected("post_query")),
        }
    }

    fn envelope(&self, query_id: u64) -> Result<QueryEnvelope> {
        match self.call(&SsiRequest::Envelope(query_id))? {
            SsiResponse::Envelope(e) => Ok(e),
            _ => Err(unexpected("envelope")),
        }
    }

    fn new_item(&self, query_id: u64) -> Result<u64> {
        match self.call(&SsiRequest::NewItem(query_id))? {
            SsiResponse::Id(id) => Ok(id),
            _ => Err(unexpected("new_item")),
        }
    }

    fn begin_assignment(&self, query_id: u64, item: u64) -> Result<AssignmentId> {
        match self.call(&SsiRequest::BeginAssignment(query_id, item))? {
            SsiResponse::Id(id) => Ok(AssignmentId(id)),
            _ => Err(unexpected("begin_assignment")),
        }
    }

    fn item_done(&self, query_id: u64, item: u64) -> Result<bool> {
        match self.call(&SsiRequest::ItemDone(query_id, item))? {
            SsiResponse::Flag(b) => Ok(b),
            _ => Err(unexpected("item_done")),
        }
    }

    fn receive_collection(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome> {
        match self.call(&SsiRequest::ReceiveCollection {
            query_id,
            assignment,
            tuples,
        })? {
            SsiResponse::Outcome(o) => Ok(o),
            _ => Err(unexpected("receive_collection")),
        }
    }

    fn collection_count(&self, query_id: u64) -> Result<usize> {
        match self.call(&SsiRequest::CollectionCount(query_id))? {
            SsiResponse::Count(n) => usize::try_from(n).map_err(|_| unexpected("collection_count")),
            _ => Err(unexpected("collection_count")),
        }
    }

    fn size_tuples_reached(&self, query_id: u64) -> Result<bool> {
        match self.call(&SsiRequest::SizeTuplesReached(query_id))? {
            SsiResponse::Flag(b) => Ok(b),
            _ => Err(unexpected("size_tuples_reached")),
        }
    }

    fn close_collection(&self, query_id: u64) -> Result<()> {
        match self.call(&SsiRequest::CloseCollection(query_id))? {
            SsiResponse::Unit => Ok(()),
            _ => Err(unexpected("close_collection")),
        }
    }

    fn take_working(&self, query_id: u64) -> Result<Vec<StoredTuple>> {
        match self.call(&SsiRequest::TakeWorking(query_id))? {
            SsiResponse::Tuples(ts) => Ok(ts),
            _ => Err(unexpected("take_working")),
        }
    }

    fn restore_working(&self, query_id: u64, phase: Phase, tuples: Vec<StoredTuple>) -> Result<()> {
        match self.call(&SsiRequest::RestoreWorking {
            query_id,
            phase,
            tuples,
        })? {
            SsiResponse::Unit => Ok(()),
            _ => Err(unexpected("restore_working")),
        }
    }

    fn receive_working(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        phase: Phase,
        tuples: Vec<StoredTuple>,
    ) -> Result<DeliveryOutcome> {
        match self.call(&SsiRequest::ReceiveWorking {
            query_id,
            assignment,
            phase,
            tuples,
        })? {
            SsiResponse::Outcome(o) => Ok(o),
            _ => Err(unexpected("receive_working")),
        }
    }

    fn receive_results(
        &self,
        query_id: u64,
        assignment: AssignmentId,
        rows: Vec<Bytes>,
    ) -> Result<DeliveryOutcome> {
        match self.call(&SsiRequest::ReceiveResults {
            query_id,
            assignment,
            rows,
        })? {
            SsiResponse::Outcome(o) => Ok(o),
            _ => Err(unexpected("receive_results")),
        }
    }

    fn results(&self, query_id: u64) -> Result<Vec<Bytes>> {
        match self.call(&SsiRequest::Results(query_id))? {
            SsiResponse::Blobs(bs) => Ok(bs),
            _ => Err(unexpected("results")),
        }
    }

    fn purge_query(&self, query_id: u64) -> Result<()> {
        match self.call(&SsiRequest::PurgeQuery(query_id))? {
            SsiResponse::Unit => Ok(()),
            _ => Err(unexpected("purge_query")),
        }
    }
}

/// [`TdsPool`] over the wire: each step is one framed request to a
/// `tds-pool` process hosting the population.
pub struct RemoteTdsPool {
    conn: Conn,
    ids: Vec<u64>,
}

impl RemoteTdsPool {
    /// Connect to the pool at `addr` and fetch the population roster. The
    /// roster is immutable for the life of a deployment, so it is cached
    /// client-side; steps and row-openings go over the wire.
    pub fn connect(addr: impl Into<String>, obs: Arc<Obs>) -> Result<Self> {
        let conn = Conn::new(addr, "tds-pool", obs);
        let pool = RemoteTdsPool {
            conn,
            ids: Vec::new(),
        };
        let ids = match pool.call(&PoolRequest::TdsIds)? {
            PoolResponse::Ids(ids) => ids,
            _ => return Err(unexpected("tds_ids")),
        };
        Ok(RemoteTdsPool { ids, ..pool })
    }

    /// Emit the connection's aggregate byte/call counters to the obs log.
    pub fn emit_stats(&self) {
        self.conn.emit_stats();
    }

    /// Snapshot the connection counters.
    pub fn stats(&self) -> NetStats {
        self.conn.stats()
    }

    fn call(&self, req: &PoolRequest) -> Result<PoolResponse> {
        let wire = req.encode()?;
        let response = self.conn.call(&wire)?;
        match PoolResponse::decode(&response)? {
            PoolResponse::Err(e) => Err(e),
            ok => Ok(ok),
        }
    }
}

impl TdsPool for RemoteTdsPool {
    fn len(&self) -> Result<usize> {
        Ok(self.ids.len())
    }

    fn tds_ids(&self) -> Result<Vec<u64>> {
        Ok(self.ids.clone())
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
        let index = u32::try_from(index).map_err(|_| ProtocolError::LengthOverflow {
            what: "wire pool index",
            len: index,
            max: u32::MAX as usize,
        })?;
        match self.call(&PoolRequest::Step {
            index,
            env: env.clone(),
            params: params.clone(),
            now_round,
            step,
            partition: partition.to_vec(),
            rng_seed,
        })? {
            PoolResponse::Working(ts) => Ok(StepResult::Working(ts)),
            PoolResponse::Results(bs) => Ok(StepResult::Results(bs)),
            _ => Err(unexpected("step")),
        }
    }

    fn open_rows(&self, blobs: &[Bytes]) -> Result<Vec<Vec<Value>>> {
        match self.call(&PoolRequest::OpenRows(blobs.to_vec()))? {
            PoolResponse::Rows(rows) => Ok(rows),
            _ => Err(unexpected("open_rows")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;
    use tdsql_core::ssi::Ssi;

    /// Two threads hammering one shared client must each read the
    /// response to *their own* request: the per-call critical section in
    /// [`Conn::call`] holds the stream across write+read, so frames can
    /// never interleave and responses can never cross threads. Each
    /// thread asks for a distinct unknown query id and must get back a
    /// typed error carrying exactly that id — a crossed response would
    /// surface as the other thread's id.
    #[test]
    fn concurrent_calls_on_one_client_never_cross_responses() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr");
        let obs = Arc::new(Obs::new(b"client-race"));
        let server_obs = Arc::clone(&obs);
        thread::spawn(move || crate::server::serve_ssi(listener, Arc::new(Ssi::new()), server_obs));

        let ssi = Arc::new(RemoteSsi::connect(addr.to_string(), obs));
        let mut handles = Vec::new();
        for qid in [111u64, 222, 333, 444] {
            let ssi = Arc::clone(&ssi);
            handles.push(thread::spawn(move || {
                for _ in 0..200 {
                    match ssi.envelope(qid) {
                        Err(ProtocolError::UnknownQuery { query_id }) => {
                            assert_eq!(query_id, qid, "response crossed to another thread's call")
                        }
                        other => panic!("want UnknownQuery({qid}), got {other:?}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("hammer thread");
        }
        // One cached connection served every call: no reconnects means no
        // transport-level desync was ever detected either.
        let stats = ssi.stats();
        assert_eq!(stats.calls, 800);
        assert_eq!(stats.reconnects, 0);
    }
}
