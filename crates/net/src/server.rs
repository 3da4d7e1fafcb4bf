//! Server loops for the two service processes.
//!
//! Each server owns one in-process implementation of its service trait
//! ([`Ssi`] for `ssi-server`, [`LocalTdsPool`] for `tds-pool`) and exposes
//! it over the framed TCP protocol: accept loop, one thread per
//! connection, one request/response frame pair per round trip, until the
//! peer closes the connection.
//!
//! Privacy posture matches the obs layer's: servers log connection-level
//! counters (requests, bytes) and typed request names only — never
//! envelope contents, tuples or rows. All socket writes go through the
//! frame codec (enforced by the `no-raw-socket-write` srclint rule).
//!
//! Robustness posture ([`ServeOptions`]): every accepted socket carries a
//! read/write deadline, so a peer that stalls mid-frame (the classic
//! slowloris: two of four length-prefix bytes, then silence) frees its
//! connection thread with a typed transport error instead of pinning it
//! forever; and an optional stop flag turns SIGTERM into a graceful
//! drain — stop accepting, let in-flight connections finish within one
//! deadline, then return from the serve call.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use tdsql_core::error::Result;
use tdsql_core::runtime::backoff::sleep_ms;
use tdsql_core::service::{LocalTdsPool, SsiService, StepResult, TdsPool};
use tdsql_core::ssi::Ssi;
use tdsql_obs::{Field, Obs};

use crate::frame::{read_frame, write_frame, HEADER_LEN};
use crate::wire::{PoolRequest, PoolResponse, SsiRequest, SsiResponse};

/// Milliseconds between accept polls while a stop flag is armed, and the
/// drain loop's poll interval.
const ACCEPT_POLL_MS: u64 = 5;

/// Default per-socket read/write deadline when `TDSQL_NET_TIMEOUT_MS` is
/// unset.
const DEFAULT_TIMEOUT_MS: u64 = 5000;

/// Deadline/drain configuration for the serve loops.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Per-socket read/write deadline. A connection that stalls mid-frame
    /// frees its thread with a typed transport error within this bound;
    /// `None` disables deadlines (a stalled peer then pins its thread —
    /// only sensible in tests).
    pub timeout: Option<Duration>,
    /// Cooperative stop flag. When it flips true the accept loop stops
    /// accepting, in-flight connections get one deadline's worth of time
    /// to finish, and the serve call returns. `None` = serve until the
    /// listener fails.
    pub stop: Option<&'static AtomicBool>,
}

impl Default for ServeOptions {
    /// Fixed [`DEFAULT_TIMEOUT_MS`] deadline, no stop flag. The
    /// environment is deliberately *not* consulted here: an infallible
    /// `Default` cannot reject a malformed `TDSQL_NET_TIMEOUT_MS`, and a
    /// silent fallback turns a typo like `5s` into an invisible
    /// 5000 ms-vs-intended surprise. Processes that honor the knob go
    /// through [`ServeOptions::from_env`] at startup, where a bad value
    /// is a typed error.
    fn default() -> Self {
        ServeOptions {
            timeout: Some(Duration::from_millis(DEFAULT_TIMEOUT_MS)),
            stop: None,
        }
    }
}

impl ServeOptions {
    /// Build options from the environment: the deadline comes from
    /// `TDSQL_NET_TIMEOUT_MS` (milliseconds; `0` disables, unset means
    /// [`DEFAULT_TIMEOUT_MS`]); no stop flag. A value that is present but
    /// not a valid `u64` — `5s`, `5.0`, an empty string — is a startup
    /// error naming the variable and the offending value, never a silent
    /// fallback.
    pub fn from_env() -> std::result::Result<Self, String> {
        let timeout = match std::env::var("TDSQL_NET_TIMEOUT_MS") {
            Err(std::env::VarError::NotPresent) => Some(Duration::from_millis(DEFAULT_TIMEOUT_MS)),
            Err(std::env::VarError::NotUnicode(_)) => {
                return Err("TDSQL_NET_TIMEOUT_MS: value is not valid UTF-8".into())
            }
            Ok(raw) => match raw.trim().parse::<u64>() {
                Ok(0) => None,
                Ok(ms) => Some(Duration::from_millis(ms)),
                Err(_) => {
                    return Err(format!(
                        "TDSQL_NET_TIMEOUT_MS: cannot parse {raw:?} as milliseconds \
                         (want a non-negative integer; 0 disables the deadline)"
                    ))
                }
            },
        };
        Ok(ServeOptions {
            timeout,
            stop: None,
        })
    }
}

/// Execute one decoded SSI request against the in-process ledger. All
/// outcomes (including typed protocol errors) become responses; nothing
/// here can fail except by producing an [`SsiResponse::Err`].
fn dispatch_ssi(req: SsiRequest, ssi: &Ssi) -> SsiResponse {
    fn wrap<T>(r: Result<T>, ok: impl FnOnce(T) -> SsiResponse) -> SsiResponse {
        match r {
            Ok(v) => ok(v),
            Err(e) => SsiResponse::Err(e),
        }
    }
    match req {
        SsiRequest::PostQuery(env) => wrap(SsiService::post_query(ssi, env), SsiResponse::Id),
        SsiRequest::Envelope(qid) => wrap(ssi.envelope(qid), SsiResponse::Envelope),
        SsiRequest::NewItem(qid) => wrap(ssi.new_item(qid), SsiResponse::Id),
        SsiRequest::BeginAssignment(qid, item) => {
            wrap(ssi.begin_assignment(qid, item), |a| SsiResponse::Id(a.0))
        }
        SsiRequest::ItemDone(qid, item) => wrap(ssi.item_done(qid, item), SsiResponse::Flag),
        SsiRequest::ReceiveCollection {
            query_id,
            assignment,
            tuples,
        } => wrap(
            ssi.receive_collection(query_id, assignment, tuples),
            SsiResponse::Outcome,
        ),
        SsiRequest::CollectionCount(qid) => {
            wrap(ssi.collection_count(qid), |n| SsiResponse::Count(n as u64))
        }
        SsiRequest::SizeTuplesReached(qid) => wrap(ssi.size_tuples_reached(qid), SsiResponse::Flag),
        SsiRequest::CloseCollection(qid) => wrap(ssi.close_collection(qid), |()| SsiResponse::Unit),
        SsiRequest::TakeWorking(qid) => wrap(ssi.take_working(qid), SsiResponse::Tuples),
        SsiRequest::RestoreWorking {
            query_id,
            phase,
            tuples,
        } => wrap(ssi.restore_working(query_id, phase, tuples), |()| {
            SsiResponse::Unit
        }),
        SsiRequest::ReceiveWorking {
            query_id,
            assignment,
            phase,
            tuples,
        } => wrap(
            ssi.receive_working(query_id, assignment, phase, tuples),
            SsiResponse::Outcome,
        ),
        SsiRequest::ReceiveResults {
            query_id,
            assignment,
            rows,
        } => wrap(
            ssi.receive_results(query_id, assignment, rows),
            SsiResponse::Outcome,
        ),
        SsiRequest::Results(qid) => wrap(ssi.results(qid), SsiResponse::Blobs),
        SsiRequest::PurgeQuery(qid) => wrap(ssi.purge_query(qid), |()| SsiResponse::Unit),
    }
}

/// Execute one decoded pool request against the in-process population.
fn dispatch_pool(req: PoolRequest, pool: &LocalTdsPool) -> PoolResponse {
    match req {
        PoolRequest::TdsIds => match pool.tds_ids() {
            Ok(ids) => PoolResponse::Ids(ids),
            Err(e) => PoolResponse::Err(e),
        },
        PoolRequest::Step {
            index,
            env,
            params,
            now_round,
            step,
            partition,
            rng_seed,
        } => match pool.step(
            index as usize,
            &env,
            &params,
            now_round,
            step,
            &partition,
            rng_seed,
        ) {
            Ok(StepResult::Working(ts)) => PoolResponse::Working(ts),
            Ok(StepResult::Results(bs)) => PoolResponse::Results(bs),
            Err(e) => PoolResponse::Err(e),
        },
        PoolRequest::OpenRows(blobs) => match pool.open_rows(&blobs) {
            Ok(rows) => PoolResponse::Rows(rows),
            Err(e) => PoolResponse::Err(e),
        },
    }
}

/// Per-connection frame loop, generic over the request/response pair.
/// Returns when the peer closes the connection or the transport fails;
/// emits one `net.conn.closed` obs event with aggregate counters.
fn serve_conn<Req, Resp>(
    mut stream: TcpStream,
    peer: &'static str,
    obs: &Obs,
    stop: Option<&AtomicBool>,
    decode: impl Fn(&[u8]) -> Result<Req>,
    dispatch: impl Fn(Req) -> Resp,
    encode_err: impl Fn(tdsql_core::error::ProtocolError) -> Resp,
    encode: impl Fn(&Resp) -> Result<Vec<u8>>,
) {
    let mut requests: u64 = 0;
    let mut bytes_received: u64 = 0;
    let mut bytes_sent: u64 = 0;
    let mut close_cause = String::from("drain");
    loop {
        if stop.is_some_and(|s| s.load(Ordering::Acquire)) {
            break;
        }
        // EOF at a frame boundary is the normal end of a session; any
        // other failure — a reset, or a stalled peer tripping the socket
        // deadline — is a typed transport error that also just ends the
        // connection (the client retries on a fresh one and the driver
        // absorbs the fault). Either way this thread frees: a slowloris
        // peer holding a half-sent header cannot pin it past the deadline.
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(e) => {
                close_cause = e.to_string();
                break;
            }
        };
        requests += 1;
        bytes_received += (frame.len() + HEADER_LEN) as u64;
        // A malformed frame gets a typed error response — the connection
        // survives, mirroring how corrupted uploads are rejected-but-
        // retryable in the fault plan.
        let response = match decode(&frame) {
            Ok(req) => dispatch(req),
            Err(e) => encode_err(e),
        };
        let wire = match encode(&response) {
            Ok(w) => w,
            Err(e) => {
                close_cause = e.to_string();
                break;
            }
        };
        bytes_sent += (wire.len() + HEADER_LEN) as u64;
        if let Err(e) = write_frame(&mut stream, &wire) {
            close_cause = e.to_string();
            break;
        }
    }
    obs.event(
        "net.conn.closed",
        None,
        vec![
            Field::str("peer", peer),
            Field::u64("requests", requests),
            Field::u64("bytes_received", bytes_received),
            Field::u64("bytes_sent", bytes_sent),
            Field::str("cause", close_cause),
        ],
    );
}

/// Accept loop shared by both servers: one thread per connection, run
/// until the listener fails or the stop flag flips. With a stop flag the
/// listener polls nonblockingly (so the flag is observed within
/// [`ACCEPT_POLL_MS`]); without one it blocks, exactly as before
/// deadlines existed. On stop, in-flight connections get one deadline's
/// worth of time to finish before the loop returns (the drain).
fn accept_loop(
    listener: TcpListener,
    peer: &'static str,
    obs: Arc<Obs>,
    opts: ServeOptions,
    handle: impl Fn(TcpStream, Arc<Obs>) + Clone + Send + 'static,
) {
    let active = Arc::new(AtomicU64::new(0));
    if opts.stop.is_some() && listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        if opts.stop.is_some_and(|s| s.load(Ordering::Acquire)) {
            break;
        }
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                sleep_ms(ACCEPT_POLL_MS);
                continue;
            }
            Err(_) => break,
        };
        // Request/response framing: disable Nagle to keep round trips flat.
        let _ = stream.set_nodelay(true);
        // On BSD-derived platforms accepted sockets inherit the listener's
        // O_NONBLOCK (set above when a stop flag is present), which would
        // turn every read into an instant WouldBlock and defeat the
        // read/write deadlines below. Force blocking mode per socket.
        let _ = stream.set_nonblocking(false);
        if let Some(t) = opts.timeout {
            // The accepted socket inherits the deadline; failures fall
            // back to blocking I/O, which only loses the slowloris bound.
            let _ = stream.set_read_timeout(Some(t));
            let _ = stream.set_write_timeout(Some(t));
        }
        obs.event("net.conn.accepted", None, vec![Field::str("peer", peer)]);
        let obs = Arc::clone(&obs);
        let handle = handle.clone();
        let active = Arc::clone(&active);
        active.fetch_add(1, Ordering::AcqRel);
        thread::spawn(move || {
            handle(stream, obs);
            active.fetch_sub(1, Ordering::AcqRel);
        });
    }
    // Drain: no new connections; wait (bounded by one deadline plus poll
    // slack) for connection threads to notice the stop flag or trip their
    // socket deadline.
    drop(listener);
    let drain_ms = opts
        .timeout
        .and_then(|t| u64::try_from(t.as_millis()).ok())
        .unwrap_or(5000)
        .saturating_add(500);
    let mut waited = 0u64;
    while active.load(Ordering::Acquire) > 0 && waited < drain_ms {
        sleep_ms(ACCEPT_POLL_MS);
        waited += ACCEPT_POLL_MS;
    }
}

/// Serve the SSI ledger on `listener` with explicit [`ServeOptions`].
/// Spawns one thread per accepted connection; returns after the listener
/// fails or the options' stop flag flips and the drain completes.
pub fn serve_ssi_with(listener: TcpListener, ssi: Arc<Ssi>, obs: Arc<Obs>, opts: ServeOptions) {
    let stop = opts.stop;
    accept_loop(listener, "ssi", obs, opts, move |stream, obs| {
        let ssi = Arc::clone(&ssi);
        serve_conn(
            stream,
            "ssi",
            &obs,
            stop,
            SsiRequest::decode,
            |req| dispatch_ssi(req, &ssi),
            SsiResponse::Err,
            SsiResponse::encode,
        );
    });
}

/// Serve the SSI ledger with default options (fixed 5 s deadline, no
/// stop flag, environment ignored). Call from a dedicated thread (a test
/// helper; the `ssi-server` binary goes through
/// [`ServeOptions::from_env`] instead so a malformed knob is a startup
/// error).
pub fn serve_ssi(listener: TcpListener, ssi: Arc<Ssi>, obs: Arc<Obs>) {
    serve_ssi_with(listener, ssi, obs, ServeOptions::default());
}

/// Serve a TDS population on `listener` with explicit [`ServeOptions`].
/// Same threading and drain model as [`serve_ssi_with`].
pub fn serve_pool_with(
    listener: TcpListener,
    pool: Arc<LocalTdsPool>,
    obs: Arc<Obs>,
    opts: ServeOptions,
) {
    let stop = opts.stop;
    accept_loop(listener, "tds-pool", obs, opts, move |stream, obs| {
        let pool = Arc::clone(&pool);
        serve_conn(
            stream,
            "tds-pool",
            &obs,
            stop,
            PoolRequest::decode,
            |req| dispatch_pool(req, &pool),
            PoolResponse::Err,
            PoolResponse::encode,
        );
    });
}

/// Serve a TDS population with default options. Same threading model as
/// [`serve_ssi`].
pub fn serve_pool(listener: TcpListener, pool: Arc<LocalTdsPool>, obs: Arc<Obs>) {
    serve_pool_with(listener, pool, obs, ServeOptions::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All `from_env` cases in one test: env vars are process-global, so
    /// the set/unset sequence must not race a parallel test.
    #[test]
    fn serve_options_from_env_parses_or_rejects() {
        const KEY: &str = "TDSQL_NET_TIMEOUT_MS";
        std::env::remove_var(KEY);
        let opts = ServeOptions::from_env().expect("unset is the default");
        assert_eq!(
            opts.timeout,
            Some(Duration::from_millis(DEFAULT_TIMEOUT_MS))
        );

        std::env::set_var(KEY, "250");
        let opts = ServeOptions::from_env().expect("integer parses");
        assert_eq!(opts.timeout, Some(Duration::from_millis(250)));

        std::env::set_var(KEY, "0");
        let opts = ServeOptions::from_env().expect("zero disables");
        assert_eq!(opts.timeout, None);

        for bad in ["5s", "5.0", "", "  ", "-1", "five"] {
            std::env::set_var(KEY, bad);
            let err = ServeOptions::from_env()
                .expect_err("malformed value must be a typed startup error");
            assert!(err.contains(KEY), "error names the variable: {err}");
        }
        std::env::remove_var(KEY);
    }
}
