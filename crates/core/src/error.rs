//! Protocol error type.

use tdsql_crypto::CryptoError;
use tdsql_sql::SqlError;

use crate::stats::Phase;

/// Errors surfaced while running a distributed querying protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// Cryptographic failure (tampering, wrong key, truncation).
    Crypto(CryptoError),
    /// SQL failure (parse, type, evaluation).
    Sql(SqlError),
    /// Wire payload could not be decoded.
    Codec(String),
    /// A protocol invariant was violated (bug or misbehaving participant).
    Protocol(String),
    /// No TDS ever connected to make progress.
    NoProgress {
        /// The phase that starved.
        phase: &'static str,
    },
    /// The query was rejected by access control on every contacted TDS.
    /// (The querier only observes dummy results; this error is produced by
    /// the *querier* when the final result contains nothing but dummies and
    /// the caller asked for strict reporting.)
    AccessDenied,
    /// The requested protocol cannot run this query (e.g. S_Agg on a
    /// non-aggregate query).
    Unsupported(String),
    /// An encoded payload exceeds the query's pad length. Sending it
    /// unpadded would make it distinguishable by size, so encoding refuses.
    PadTooSmall {
        /// Bytes the payload actually needs.
        needed: usize,
        /// The configured pad length it must fit in.
        pad: usize,
    },
    /// An encoded collection's length exceeds its wire-format counter width.
    /// Encoding refuses instead of truncating the count silently (a wrapped
    /// `as u16`/`as u32` cast would produce a decodable-but-wrong payload).
    LengthOverflow {
        /// Which counter overflowed (e.g. "PlainTuple values").
        what: &'static str,
        /// The actual length.
        len: usize,
        /// The maximum the wire format can carry.
        max: usize,
    },
    /// A work item exhausted its retry budget: the query terminates loudly
    /// instead of re-sending the partition forever. (SIZE-bounded queries
    /// degrade to a partial result instead of raising this.)
    QueryAborted {
        /// Phase whose work item could not be completed.
        phase: Phase,
        /// Delivery attempts consumed before giving up.
        retries: u32,
    },
    /// The transport itself failed (connection reset, short read, frame
    /// timeout) — not a protocol-level rejection. The driver retries these
    /// under the work item's budget
    /// ([`crate::service::is_transport_error`]).
    Transport(String),
    /// A remote backend stayed unreachable through the client's bounded
    /// reconnect policy. This is the terminal form of a transport failure:
    /// individual resets surface as [`ProtocolError::Transport`] and are
    /// retried, but once the attempt cap is hit the client stops dialing
    /// and reports this instead of looping against a dead port forever.
    BackendUnavailable {
        /// Which peer ("ssi" or "tds-pool") could not be reached.
        peer: &'static str,
        /// Connection attempts consumed before giving up.
        attempts: u32,
    },
    /// The settle journal failed an integrity check during recovery: a
    /// checksum mismatch, an impossible record, or a replay whose settle
    /// verdict contradicts the transition table. A *torn tail* (partial
    /// final record from a crash mid-append) is NOT this error — torn
    /// tails are truncated silently; corruption in the interior is.
    JournalCorrupt {
        /// Byte offset of the offending record in the journal file.
        offset: u64,
        /// What failed.
        what: String,
    },
    /// The admission scheduler refused to park another query for this
    /// querier: its wait queue is at [`crate::ssi::SchedConfig::queue_cap`].
    /// Backpressure, not a transport failure: nothing retries it
    /// ([`crate::service::is_transport_error`] is false).
    AdmissionRejected {
        /// The querier whose queue is full.
        querier: String,
        /// Queries it already has parked.
        waiting: usize,
        /// The configured per-querier queue cap.
        cap: usize,
    },
    /// A delivery (or state query) addressed a query id with no live
    /// server-side state — never posted, or already purged.
    UnknownQuery {
        /// The unknown query id.
        query_id: u64,
    },
    /// A delivery that violates the query's lifecycle on the SSI (e.g.
    /// aggregation output while the collection window is still open, or a
    /// delivery under an assignment the SSI never issued).
    InvalidTransition {
        /// Query whose lifecycle was violated.
        query_id: u64,
        /// What went wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Crypto(e) => write!(f, "crypto: {e}"),
            ProtocolError::Sql(e) => write!(f, "sql: {e}"),
            ProtocolError::Codec(m) => write!(f, "codec: {m}"),
            ProtocolError::Protocol(m) => write!(f, "protocol: {m}"),
            ProtocolError::NoProgress { phase } => {
                write!(f, "no connected TDS made progress during {phase}")
            }
            ProtocolError::AccessDenied => write!(f, "access denied by all contacted TDSs"),
            ProtocolError::Unsupported(m) => write!(f, "unsupported: {m}"),
            ProtocolError::PadTooSmall { needed, pad } => write!(
                f,
                "payload needs {needed} bytes but pad is {pad}: raise `pad` to keep sizes uniform"
            ),
            ProtocolError::LengthOverflow { what, len, max } => write!(
                f,
                "{what} has {len} elements but the wire counter carries at most {max}: \
                 refusing to truncate"
            ),
            ProtocolError::QueryAborted { phase, retries } => write!(
                f,
                "query aborted: a {phase}-phase work item exhausted its retry budget \
                 after {retries} delivery attempts"
            ),
            ProtocolError::Transport(m) => write!(f, "transport: {m}"),
            ProtocolError::BackendUnavailable { peer, attempts } => write!(
                f,
                "backend {peer} unavailable after {attempts} connection attempts"
            ),
            ProtocolError::JournalCorrupt { offset, what } => {
                write!(f, "settle journal corrupt at byte {offset}: {what}")
            }
            ProtocolError::AdmissionRejected {
                querier,
                waiting,
                cap,
            } => write!(
                f,
                "protocol: scheduler: admission queue full for querier {querier} \
                 ({waiting} waiting, cap {cap})"
            ),
            ProtocolError::UnknownQuery { query_id } => {
                write!(
                    f,
                    "no live state for query {query_id} (never posted or purged)"
                )
            }
            ProtocolError::InvalidTransition { query_id, what } => {
                write!(
                    f,
                    "invalid lifecycle transition for query {query_id}: {what}"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<CryptoError> for ProtocolError {
    fn from(e: CryptoError) -> Self {
        ProtocolError::Crypto(e)
    }
}

impl From<SqlError> for ProtocolError {
    fn from(e: SqlError) -> Self {
        ProtocolError::Sql(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ProtocolError>;
