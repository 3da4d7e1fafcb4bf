//! Wire message codecs for the SSI and TDS-pool protocols.
//!
//! The messages are framed here; the bytes of everything inside them —
//! integers, blobs, envelope, credential, tuples, tags, phase, protocol
//! kind — come from [`tdsql_core::codec`], the one codec the settle journal
//! also writes with: explicit length prefixes, checked counter widths (a
//! too-long vector is a typed [`ProtocolError::LengthOverflow`], never a
//! silently wrapped counter), and bounds-checked reads (a truncated message
//! is a typed `Codec("unexpected end …")`). Ciphertext blobs cross the wire
//! as the exact byte strings the `tuple_codec` envelopes produced — the
//! codec frames them, it never looks inside.
//!
//! Error transport preserves the [`ProtocolError`] *variant class* — the
//! driver's retry decisions (`Transport`/`BackendUnavailable` always, a
//! `Crypto`/`Codec` rejection where the fault plan injected corruption)
//! read the same remotely as locally — though the three `&'static str` payloads
//! (`NoProgress.phase`, `LengthOverflow.what`, `InvalidTransition.what`)
//! cannot carry arbitrary remote strings and decode to a fixed `"remote"`
//! marker instead.

use tdsql_core::bytes::Bytes;
use tdsql_core::codec::{
    bad, expect_consumed, put_blob, put_blobs, put_bool, put_envelope, put_kind, put_phase,
    put_str, put_tuples, put_u32, put_u64, put_u64s, put_u8, put_vec, take_blob, take_blobs,
    take_bool, take_envelope, take_kind, take_phase, take_str, take_tuples, take_u32, take_u64,
    take_u64s, take_u8, take_vec,
};
use tdsql_core::error::{ProtocolError, Result};
use tdsql_core::histogram::Histogram;
use tdsql_core::message::{AssignmentId, DeliveryOutcome, QueryEnvelope, StoredTuple};
use tdsql_core::protocol::ProtocolParams;
use tdsql_core::service::{MultiStepPart, StepResult, TdsStep};
use tdsql_core::stats::Phase;
use tdsql_core::tds::{ResultDest, RetagMode};
use tdsql_crypto::CryptoError;
use tdsql_sql::error::SqlError;
use tdsql_sql::value::{GroupKey, Value};

fn take_usize(buf: &[u8], pos: &mut usize) -> Result<usize> {
    usize::try_from(take_u64(buf, pos)?).map_err(|_| bad("usize out of range"))
}

// ---------------------------------------------------------------------------
// Domain types
// ---------------------------------------------------------------------------

fn put_values(out: &mut Vec<u8>, row: &[Value]) -> Result<()> {
    put_vec(out, "wire value row", row, |out, v| {
        v.canonical_bytes(out);
        Ok(())
    })
}

fn take_values(buf: &[u8], pos: &mut usize) -> Result<Vec<Value>> {
    take_vec(buf, pos, |buf, pos| Ok(Value::decode_canonical(buf, pos)?))
}

pub(crate) fn put_rows(out: &mut Vec<u8>, rows: &[Vec<Value>]) -> Result<()> {
    put_vec(out, "wire rows", rows, |out, row| put_values(out, row))
}

pub(crate) fn take_rows(buf: &[u8], pos: &mut usize) -> Result<Vec<Vec<Value>>> {
    take_vec(buf, pos, take_values)
}

pub(crate) fn put_params(out: &mut Vec<u8>, p: &ProtocolParams) -> Result<()> {
    put_kind(out, p.kind);
    put_u64(out, p.pad as u64);
    put_u64(out, p.chunk as u64);
    put_u64(out, p.alpha as u64);
    put_vec(out, "wire noise domain", &p.noise_domain, |out, k| {
        put_blob(out, "wire group key", &k.0)
    })?;
    match &p.histogram {
        None => put_u8(out, 0),
        Some(h) => {
            put_u8(out, 1);
            put_blob(out, "wire histogram", &h.encode())?;
        }
    }
    Ok(())
}

pub(crate) fn take_params(buf: &[u8], pos: &mut usize) -> Result<ProtocolParams> {
    let kind = take_kind(buf, pos)?;
    let pad = take_usize(buf, pos)?;
    let chunk = take_usize(buf, pos)?;
    let alpha = take_usize(buf, pos)?;
    let noise_domain = take_vec(buf, pos, |buf, pos| take_blob(buf, pos).map(GroupKey))?.into();
    let histogram = match take_u8(buf, pos)? {
        0 => None,
        1 => {
            let enc = take_blob(buf, pos)?;
            Some(
                Histogram::decode(&enc)
                    .ok_or_else(|| bad("histogram"))?
                    .into(),
            )
        }
        _ => return Err(bad("histogram flag")),
    };
    Ok(ProtocolParams {
        kind,
        pad,
        chunk,
        alpha,
        noise_domain,
        histogram,
    })
}

fn put_retag(out: &mut Vec<u8>, r: RetagMode) {
    put_u8(
        out,
        match r {
            RetagMode::None => 0,
            RetagMode::DetPerGroup => 1,
        },
    );
}

fn take_retag(buf: &[u8], pos: &mut usize) -> Result<RetagMode> {
    Ok(match take_u8(buf, pos)? {
        0 => RetagMode::None,
        1 => RetagMode::DetPerGroup,
        _ => return Err(bad("retag mode")),
    })
}

fn put_dest(out: &mut Vec<u8>, d: ResultDest) {
    put_u8(
        out,
        match d {
            ResultDest::Querier => 0,
            ResultDest::Tds => 1,
        },
    );
}

fn take_dest(buf: &[u8], pos: &mut usize) -> Result<ResultDest> {
    Ok(match take_u8(buf, pos)? {
        0 => ResultDest::Querier,
        1 => ResultDest::Tds,
        _ => return Err(bad("result dest")),
    })
}

pub(crate) fn put_step(out: &mut Vec<u8>, s: TdsStep) {
    match s {
        TdsStep::Collect => put_u8(out, 0),
        TdsStep::ReduceInputs { retag } => {
            put_u8(out, 1);
            put_retag(out, retag);
        }
        TdsStep::ReducePartials { retag } => {
            put_u8(out, 2);
            put_retag(out, retag);
        }
        TdsStep::FilterPlain => put_u8(out, 3),
        TdsStep::FinalizeGroups { dest } => {
            put_u8(out, 4);
            put_dest(out, dest);
        }
    }
}

pub(crate) fn take_step(buf: &[u8], pos: &mut usize) -> Result<TdsStep> {
    Ok(match take_u8(buf, pos)? {
        0 => TdsStep::Collect,
        1 => TdsStep::ReduceInputs {
            retag: take_retag(buf, pos)?,
        },
        2 => TdsStep::ReducePartials {
            retag: take_retag(buf, pos)?,
        },
        3 => TdsStep::FilterPlain,
        4 => TdsStep::FinalizeGroups {
            dest: take_dest(buf, pos)?,
        },
        _ => return Err(bad("tds step")),
    })
}

fn put_outcome(out: &mut Vec<u8>, o: DeliveryOutcome) {
    put_u8(
        out,
        match o {
            DeliveryOutcome::Accepted => 0,
            DeliveryOutcome::Duplicate => 1,
            DeliveryOutcome::LateAfterReassign => 2,
            DeliveryOutcome::WindowClosed => 3,
        },
    );
}

fn take_outcome(buf: &[u8], pos: &mut usize) -> Result<DeliveryOutcome> {
    Ok(match take_u8(buf, pos)? {
        0 => DeliveryOutcome::Accepted,
        1 => DeliveryOutcome::Duplicate,
        2 => DeliveryOutcome::LateAfterReassign,
        3 => DeliveryOutcome::WindowClosed,
        _ => return Err(bad("delivery outcome")),
    })
}

// ---------------------------------------------------------------------------
// Error transport
// ---------------------------------------------------------------------------

/// Encode a [`ProtocolError`] for the response wire.
pub(crate) fn put_error(out: &mut Vec<u8>, e: &ProtocolError) -> Result<()> {
    match e {
        ProtocolError::Crypto(c) => {
            put_u8(out, 0);
            match c {
                CryptoError::Truncated { need, got } => {
                    put_u8(out, 0);
                    put_u64(out, *need as u64);
                    put_u64(out, *got as u64);
                }
                CryptoError::TagMismatch => put_u8(out, 1),
                CryptoError::BadCredential => put_u8(out, 2),
            }
        }
        ProtocolError::Sql(s) => {
            put_u8(out, 1);
            put_str(out, "wire error detail", &s.to_string())?;
        }
        ProtocolError::Codec(s) => {
            put_u8(out, 2);
            put_str(out, "wire error detail", s)?;
        }
        ProtocolError::Protocol(s) => {
            put_u8(out, 3);
            put_str(out, "wire error detail", s)?;
        }
        ProtocolError::NoProgress { phase } => {
            put_u8(out, 4);
            put_str(out, "wire error detail", phase)?;
        }
        ProtocolError::AccessDenied => put_u8(out, 5),
        ProtocolError::Unsupported(s) => {
            put_u8(out, 6);
            put_str(out, "wire error detail", s)?;
        }
        ProtocolError::PadTooSmall { needed, pad } => {
            put_u8(out, 7);
            put_u64(out, *needed as u64);
            put_u64(out, *pad as u64);
        }
        ProtocolError::LengthOverflow { what, len, max } => {
            put_u8(out, 8);
            put_str(out, "wire error detail", what)?;
            put_u64(out, *len as u64);
            put_u64(out, *max as u64);
        }
        ProtocolError::QueryAborted { phase, retries } => {
            put_u8(out, 9);
            put_phase(out, *phase);
            put_u32(out, *retries);
        }
        ProtocolError::UnknownQuery { query_id } => {
            put_u8(out, 10);
            put_u64(out, *query_id);
        }
        ProtocolError::InvalidTransition { query_id, what } => {
            put_u8(out, 11);
            put_u64(out, *query_id);
            put_str(out, "wire error detail", what)?;
        }
        ProtocolError::BackendUnavailable { peer, attempts } => {
            put_u8(out, 12);
            put_str(out, "wire error detail", peer)?;
            put_u32(out, *attempts);
        }
        ProtocolError::JournalCorrupt { offset, what } => {
            put_u8(out, 13);
            put_u64(out, *offset);
            put_str(out, "wire error detail", what)?;
        }
        ProtocolError::Transport(s) => {
            put_u8(out, 14);
            put_str(out, "wire error detail", s)?;
        }
        ProtocolError::AdmissionRejected {
            querier,
            waiting,
            cap,
        } => {
            put_u8(out, 15);
            put_str(out, "wire error detail", querier)?;
            put_u64(out, *waiting as u64);
            put_u64(out, *cap as u64);
        }
    }
    Ok(())
}

/// Decode a transported [`ProtocolError`]. `&'static str` payloads decode
/// to the fixed `"remote"` marker (the class, which drives retry
/// semantics, is preserved exactly).
pub(crate) fn take_error(buf: &[u8], pos: &mut usize) -> Result<ProtocolError> {
    Ok(match take_u8(buf, pos)? {
        0 => ProtocolError::Crypto(match take_u8(buf, pos)? {
            0 => CryptoError::Truncated {
                need: take_usize(buf, pos)?,
                got: take_usize(buf, pos)?,
            },
            1 => CryptoError::TagMismatch,
            2 => CryptoError::BadCredential,
            _ => return Err(bad("crypto error kind")),
        }),
        1 => ProtocolError::Sql(SqlError::Parse {
            message: take_str(buf, pos)?,
        }),
        2 => ProtocolError::Codec(take_str(buf, pos)?),
        3 => ProtocolError::Protocol(take_str(buf, pos)?),
        4 => {
            let _detail = take_str(buf, pos)?;
            ProtocolError::NoProgress { phase: "remote" }
        }
        5 => ProtocolError::AccessDenied,
        6 => ProtocolError::Unsupported(take_str(buf, pos)?),
        7 => ProtocolError::PadTooSmall {
            needed: take_usize(buf, pos)?,
            pad: take_usize(buf, pos)?,
        },
        8 => {
            let _what = take_str(buf, pos)?;
            ProtocolError::LengthOverflow {
                what: "remote",
                len: take_usize(buf, pos)?,
                max: take_usize(buf, pos)?,
            }
        }
        9 => ProtocolError::QueryAborted {
            phase: take_phase(buf, pos)?,
            retries: take_u32(buf, pos)?,
        },
        10 => ProtocolError::UnknownQuery {
            query_id: take_u64(buf, pos)?,
        },
        11 => {
            let query_id = take_u64(buf, pos)?;
            let _what = take_str(buf, pos)?;
            ProtocolError::InvalidTransition {
                query_id,
                what: "remote",
            }
        }
        12 => {
            let _peer = take_str(buf, pos)?;
            ProtocolError::BackendUnavailable {
                peer: "remote",
                attempts: take_u32(buf, pos)?,
            }
        }
        13 => ProtocolError::JournalCorrupt {
            offset: take_u64(buf, pos)?,
            what: take_str(buf, pos)?,
        },
        14 => ProtocolError::Transport(take_str(buf, pos)?),
        15 => ProtocolError::AdmissionRejected {
            querier: take_str(buf, pos)?,
            waiting: take_usize(buf, pos)?,
            cap: take_usize(buf, pos)?,
        },
        _ => return Err(bad("error kind")),
    })
}

// ---------------------------------------------------------------------------
// SSI protocol messages
// ---------------------------------------------------------------------------

/// One request on the SSI wire.
#[derive(Debug, Clone)]
pub enum SsiRequest {
    /// Post an envelope; the SSI assigns the query id.
    PostQuery(QueryEnvelope),
    /// Download the posted envelope.
    Envelope(u64),
    /// Allocate a work item.
    NewItem(u64),
    /// Begin a delivery attempt.
    BeginAssignment(u64, u64),
    /// Has the item completed?
    ItemDone(u64, u64),
    /// Deliver a collection contribution.
    ReceiveCollection {
        /// Query id.
        query_id: u64,
        /// Delivery assignment.
        assignment: AssignmentId,
        /// The contribution.
        tuples: Vec<StoredTuple>,
    },
    /// Number of collected tuples.
    CollectionCount(u64),
    /// Has the SIZE tuple bound been reached?
    SizeTuplesReached(u64),
    /// Close the collection window.
    CloseCollection(u64),
    /// Drain the working set.
    TakeWorking(u64),
    /// Restore tuples into the working set (driver bookkeeping).
    RestoreWorking {
        /// Query id.
        query_id: u64,
        /// Phase attribution for the SSI's observation log.
        phase: Phase,
        /// The tuples to restore.
        tuples: Vec<StoredTuple>,
    },
    /// Deliver intermediate tuples.
    ReceiveWorking {
        /// Query id.
        query_id: u64,
        /// Delivery assignment.
        assignment: AssignmentId,
        /// Phase attribution.
        phase: Phase,
        /// The tuples.
        tuples: Vec<StoredTuple>,
    },
    /// Deliver final sealed rows.
    ReceiveResults {
        /// Query id.
        query_id: u64,
        /// Delivery assignment.
        assignment: AssignmentId,
        /// The sealed rows.
        rows: Vec<Bytes>,
    },
    /// Download the final result blobs.
    Results(u64),
    /// Drop all state of a query.
    PurgeQuery(u64),
}

impl SsiRequest {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            SsiRequest::PostQuery(env) => {
                put_u8(&mut out, 0);
                put_envelope(&mut out, env)?;
            }
            SsiRequest::Envelope(qid) => {
                put_u8(&mut out, 1);
                put_u64(&mut out, *qid);
            }
            SsiRequest::NewItem(qid) => {
                put_u8(&mut out, 2);
                put_u64(&mut out, *qid);
            }
            SsiRequest::BeginAssignment(qid, item) => {
                put_u8(&mut out, 3);
                put_u64(&mut out, *qid);
                put_u64(&mut out, *item);
            }
            SsiRequest::ItemDone(qid, item) => {
                put_u8(&mut out, 4);
                put_u64(&mut out, *qid);
                put_u64(&mut out, *item);
            }
            SsiRequest::ReceiveCollection {
                query_id,
                assignment,
                tuples,
            } => {
                put_u8(&mut out, 5);
                put_u64(&mut out, *query_id);
                put_u64(&mut out, assignment.0);
                put_tuples(&mut out, tuples)?;
            }
            SsiRequest::CollectionCount(qid) => {
                put_u8(&mut out, 6);
                put_u64(&mut out, *qid);
            }
            SsiRequest::SizeTuplesReached(qid) => {
                put_u8(&mut out, 7);
                put_u64(&mut out, *qid);
            }
            SsiRequest::CloseCollection(qid) => {
                put_u8(&mut out, 8);
                put_u64(&mut out, *qid);
            }
            SsiRequest::TakeWorking(qid) => {
                put_u8(&mut out, 9);
                put_u64(&mut out, *qid);
            }
            SsiRequest::RestoreWorking {
                query_id,
                phase,
                tuples,
            } => {
                put_u8(&mut out, 10);
                put_u64(&mut out, *query_id);
                put_phase(&mut out, *phase);
                put_tuples(&mut out, tuples)?;
            }
            SsiRequest::ReceiveWorking {
                query_id,
                assignment,
                phase,
                tuples,
            } => {
                put_u8(&mut out, 11);
                put_u64(&mut out, *query_id);
                put_u64(&mut out, assignment.0);
                put_phase(&mut out, *phase);
                put_tuples(&mut out, tuples)?;
            }
            SsiRequest::ReceiveResults {
                query_id,
                assignment,
                rows,
            } => {
                put_u8(&mut out, 12);
                put_u64(&mut out, *query_id);
                put_u64(&mut out, assignment.0);
                put_blobs(&mut out, rows)?;
            }
            SsiRequest::Results(qid) => {
                put_u8(&mut out, 13);
                put_u64(&mut out, *qid);
            }
            SsiRequest::PurgeQuery(qid) => {
                put_u8(&mut out, 14);
                put_u64(&mut out, *qid);
            }
        }
        Ok(out)
    }

    /// Decode from a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let pos = &mut 0;
        let req = match take_u8(buf, pos)? {
            0 => SsiRequest::PostQuery(take_envelope(buf, pos)?),
            1 => SsiRequest::Envelope(take_u64(buf, pos)?),
            2 => SsiRequest::NewItem(take_u64(buf, pos)?),
            3 => SsiRequest::BeginAssignment(take_u64(buf, pos)?, take_u64(buf, pos)?),
            4 => SsiRequest::ItemDone(take_u64(buf, pos)?, take_u64(buf, pos)?),
            5 => SsiRequest::ReceiveCollection {
                query_id: take_u64(buf, pos)?,
                assignment: AssignmentId(take_u64(buf, pos)?),
                tuples: take_tuples(buf, pos)?,
            },
            6 => SsiRequest::CollectionCount(take_u64(buf, pos)?),
            7 => SsiRequest::SizeTuplesReached(take_u64(buf, pos)?),
            8 => SsiRequest::CloseCollection(take_u64(buf, pos)?),
            9 => SsiRequest::TakeWorking(take_u64(buf, pos)?),
            10 => SsiRequest::RestoreWorking {
                query_id: take_u64(buf, pos)?,
                phase: take_phase(buf, pos)?,
                tuples: take_tuples(buf, pos)?,
            },
            11 => SsiRequest::ReceiveWorking {
                query_id: take_u64(buf, pos)?,
                assignment: AssignmentId(take_u64(buf, pos)?),
                phase: take_phase(buf, pos)?,
                tuples: take_tuples(buf, pos)?,
            },
            12 => SsiRequest::ReceiveResults {
                query_id: take_u64(buf, pos)?,
                assignment: AssignmentId(take_u64(buf, pos)?),
                rows: take_blobs(buf, pos)?,
            },
            13 => SsiRequest::Results(take_u64(buf, pos)?),
            14 => SsiRequest::PurgeQuery(take_u64(buf, pos)?),
            _ => return Err(bad("ssi request kind")),
        };
        expect_consumed(buf, *pos)?;
        Ok(req)
    }

    /// Short request name for obs counters (no payload data).
    pub fn name(&self) -> &'static str {
        match self {
            SsiRequest::PostQuery(_) => "post_query",
            SsiRequest::Envelope(_) => "envelope",
            SsiRequest::NewItem(_) => "new_item",
            SsiRequest::BeginAssignment(..) => "begin_assignment",
            SsiRequest::ItemDone(..) => "item_done",
            SsiRequest::ReceiveCollection { .. } => "receive_collection",
            SsiRequest::CollectionCount(_) => "collection_count",
            SsiRequest::SizeTuplesReached(_) => "size_tuples_reached",
            SsiRequest::CloseCollection(_) => "close_collection",
            SsiRequest::TakeWorking(_) => "take_working",
            SsiRequest::RestoreWorking { .. } => "restore_working",
            SsiRequest::ReceiveWorking { .. } => "receive_working",
            SsiRequest::ReceiveResults { .. } => "receive_results",
            SsiRequest::Results(_) => "results",
            SsiRequest::PurgeQuery(_) => "purge_query",
        }
    }
}

/// One response on the SSI wire.
#[derive(Debug, Clone)]
pub enum SsiResponse {
    /// An id (query id, work item or assignment).
    Id(u64),
    /// A downloaded envelope.
    Envelope(QueryEnvelope),
    /// A boolean state answer.
    Flag(bool),
    /// A delivery outcome.
    Outcome(DeliveryOutcome),
    /// A count.
    Count(u64),
    /// Success with no payload.
    Unit,
    /// Working tuples.
    Tuples(Vec<StoredTuple>),
    /// Result blobs.
    Blobs(Vec<Bytes>),
    /// The operation failed with a protocol error.
    Err(ProtocolError),
}

impl SsiResponse {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            SsiResponse::Id(v) => {
                put_u8(&mut out, 0);
                put_u64(&mut out, *v);
            }
            SsiResponse::Envelope(e) => {
                put_u8(&mut out, 1);
                put_envelope(&mut out, e)?;
            }
            SsiResponse::Flag(b) => {
                put_u8(&mut out, 2);
                put_bool(&mut out, *b);
            }
            SsiResponse::Outcome(o) => {
                put_u8(&mut out, 3);
                put_outcome(&mut out, *o);
            }
            SsiResponse::Count(v) => {
                put_u8(&mut out, 4);
                put_u64(&mut out, *v);
            }
            SsiResponse::Unit => put_u8(&mut out, 5),
            SsiResponse::Tuples(ts) => {
                put_u8(&mut out, 6);
                put_tuples(&mut out, ts)?;
            }
            SsiResponse::Blobs(bs) => {
                put_u8(&mut out, 7);
                put_blobs(&mut out, bs)?;
            }
            SsiResponse::Err(e) => {
                put_u8(&mut out, 8);
                put_error(&mut out, e)?;
            }
        }
        Ok(out)
    }

    /// Decode from a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let pos = &mut 0;
        let resp = match take_u8(buf, pos)? {
            0 => SsiResponse::Id(take_u64(buf, pos)?),
            1 => SsiResponse::Envelope(take_envelope(buf, pos)?),
            2 => SsiResponse::Flag(take_bool(buf, pos)?),
            3 => SsiResponse::Outcome(take_outcome(buf, pos)?),
            4 => SsiResponse::Count(take_u64(buf, pos)?),
            5 => SsiResponse::Unit,
            6 => SsiResponse::Tuples(take_tuples(buf, pos)?),
            7 => SsiResponse::Blobs(take_blobs(buf, pos)?),
            8 => SsiResponse::Err(take_error(buf, pos)?),
            _ => return Err(bad("ssi response kind")),
        };
        expect_consumed(buf, *pos)?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// TDS-pool protocol messages
// ---------------------------------------------------------------------------

/// One request on the TDS-pool wire.
#[derive(Debug, Clone)]
pub enum PoolRequest {
    /// Burn-time ids of the population.
    TdsIds,
    /// Execute one protocol step on one TDS.
    Step {
        /// Pool index of the TDS.
        index: u32,
        /// The posted envelope (ciphertext; the pool decrypts inside the
        /// trust domain).
        env: QueryEnvelope,
        /// Protocol parameters (public recipe + discovery artifacts,
        /// conceptually `k2`-distributed).
        params: ProtocolParams,
        /// Driver round clock (credential expiry checks).
        now_round: u64,
        /// The step to execute.
        step: TdsStep,
        /// Input partition (empty for collection).
        partition: Vec<StoredTuple>,
        /// Seed for the step's TDS-side randomness.
        rng_seed: u64,
    },
    /// Open `k2`-sealed rows inside the trust domain (discovery).
    OpenRows(Vec<Bytes>),
    /// Execute several queries' steps on one TDS in a single contact
    /// (cross-query batching; one frame instead of one per query).
    MultiStep {
        /// Pool index of the TDS.
        index: u32,
        /// One entry per batched query, each with its own envelope,
        /// params and step randomness.
        parts: Vec<MultiStepPart>,
    },
}

/// Encode one [`MultiStepPart`] — the [`PoolRequest::Step`] body minus
/// the shared pool index.
fn put_multi_part(out: &mut Vec<u8>, part: &MultiStepPart) -> Result<()> {
    put_envelope(out, &part.env)?;
    put_params(out, &part.params)?;
    put_u64(out, part.now_round);
    put_step(out, part.step);
    put_tuples(out, &part.partition)?;
    put_u64(out, part.rng_seed);
    Ok(())
}

fn take_multi_part(buf: &[u8], pos: &mut usize) -> Result<MultiStepPart> {
    Ok(MultiStepPart {
        env: take_envelope(buf, pos)?,
        params: take_params(buf, pos)?,
        now_round: take_u64(buf, pos)?,
        step: take_step(buf, pos)?,
        partition: take_tuples(buf, pos)?,
        rng_seed: take_u64(buf, pos)?,
    })
}

impl PoolRequest {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            PoolRequest::TdsIds => put_u8(&mut out, 0),
            PoolRequest::Step {
                index,
                env,
                params,
                now_round,
                step,
                partition,
                rng_seed,
            } => {
                put_u8(&mut out, 1);
                put_u32(&mut out, *index);
                put_envelope(&mut out, env)?;
                put_params(&mut out, params)?;
                put_u64(&mut out, *now_round);
                put_step(&mut out, *step);
                put_tuples(&mut out, partition)?;
                put_u64(&mut out, *rng_seed);
            }
            PoolRequest::OpenRows(blobs) => {
                put_u8(&mut out, 2);
                put_blobs(&mut out, blobs)?;
            }
            PoolRequest::MultiStep { index, parts } => {
                put_u8(&mut out, 3);
                put_u32(&mut out, *index);
                put_vec(&mut out, "wire multi-step parts", parts, put_multi_part)?;
            }
        }
        Ok(out)
    }

    /// Decode from a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let pos = &mut 0;
        let req = match take_u8(buf, pos)? {
            0 => PoolRequest::TdsIds,
            1 => PoolRequest::Step {
                index: take_u32(buf, pos)?,
                env: take_envelope(buf, pos)?,
                params: take_params(buf, pos)?,
                now_round: take_u64(buf, pos)?,
                step: take_step(buf, pos)?,
                partition: take_tuples(buf, pos)?,
                rng_seed: take_u64(buf, pos)?,
            },
            2 => PoolRequest::OpenRows(take_blobs(buf, pos)?),
            3 => PoolRequest::MultiStep {
                index: take_u32(buf, pos)?,
                parts: take_vec(buf, pos, take_multi_part)?,
            },
            _ => return Err(bad("pool request kind")),
        };
        expect_consumed(buf, *pos)?;
        Ok(req)
    }

    /// Short request name for obs counters.
    pub fn name(&self) -> &'static str {
        match self {
            PoolRequest::TdsIds => "tds_ids",
            PoolRequest::Step { .. } => "step",
            PoolRequest::OpenRows(_) => "open_rows",
            PoolRequest::MultiStep { .. } => "multi_step",
        }
    }
}

/// One response on the TDS-pool wire.
#[derive(Debug, Clone)]
pub enum PoolResponse {
    /// Population ids.
    Ids(Vec<u64>),
    /// Step output: intermediate tuples.
    Working(Vec<StoredTuple>),
    /// Step output: sealed result rows.
    Results(Vec<Bytes>),
    /// Opened cleartext rows (discovery; stays inside the trust domain —
    /// the pool only answers this for `k2`-sealed blobs it can decrypt).
    Rows(Vec<Vec<Value>>),
    /// The operation failed with a protocol error.
    Err(ProtocolError),
    /// Per-part outcomes of a [`PoolRequest::MultiStep`]: one entry per
    /// part, in order — a part-level failure travels inside its slot so
    /// it never contaminates batch-mates.
    Multi(Vec<std::result::Result<StepResult, ProtocolError>>),
}

impl PoolResponse {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            PoolResponse::Ids(ids) => {
                put_u8(&mut out, 0);
                put_u64s(&mut out, "wire pool ids", ids)?;
            }
            PoolResponse::Working(ts) => {
                put_u8(&mut out, 1);
                put_tuples(&mut out, ts)?;
            }
            PoolResponse::Results(bs) => {
                put_u8(&mut out, 2);
                put_blobs(&mut out, bs)?;
            }
            PoolResponse::Rows(rows) => {
                put_u8(&mut out, 3);
                put_rows(&mut out, rows)?;
            }
            PoolResponse::Err(e) => {
                put_u8(&mut out, 4);
                put_error(&mut out, e)?;
            }
            PoolResponse::Multi(results) => {
                put_u8(&mut out, 5);
                put_vec(
                    &mut out,
                    "wire multi-step results",
                    results,
                    |out, r| match r {
                        Ok(StepResult::Working(ts)) => {
                            put_u8(out, 0);
                            put_tuples(out, ts)
                        }
                        Ok(StepResult::Results(bs)) => {
                            put_u8(out, 1);
                            put_blobs(out, bs)
                        }
                        Err(e) => {
                            put_u8(out, 2);
                            put_error(out, e)
                        }
                    },
                )?;
            }
        }
        Ok(out)
    }

    /// Decode from a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let pos = &mut 0;
        let resp = match take_u8(buf, pos)? {
            0 => PoolResponse::Ids(take_u64s(buf, pos)?),
            1 => PoolResponse::Working(take_tuples(buf, pos)?),
            2 => PoolResponse::Results(take_blobs(buf, pos)?),
            3 => PoolResponse::Rows(take_rows(buf, pos)?),
            4 => PoolResponse::Err(take_error(buf, pos)?),
            5 => PoolResponse::Multi(take_vec(buf, pos, |buf, pos| {
                Ok(match take_u8(buf, pos)? {
                    0 => Ok(StepResult::Working(take_tuples(buf, pos)?)),
                    1 => Ok(StepResult::Results(take_blobs(buf, pos)?)),
                    2 => Err(take_error(buf, pos)?),
                    _ => return Err(bad("multi-step result kind")),
                })
            })?),
            _ => return Err(bad("pool response kind")),
        };
        expect_consumed(buf, *pos)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_core::message::{GroupTag, QueryTarget};
    use tdsql_core::protocol::ProtocolKind;
    use tdsql_crypto::credential::{Credential, CredentialSigner, Role};
    use tdsql_sql::ast::SizeClause;

    fn sample_envelope() -> QueryEnvelope {
        let signer = CredentialSigner::new(b"authority");
        QueryEnvelope {
            query_id: 7,
            enc_query: Bytes::from(vec![1, 2, 3, 4, 5]),
            credential: signer.issue("energy-co", Role::new("supplier"), 1000),
            size: SizeClause {
                max_tuples: Some(100),
                max_rounds: None,
            },
            protocol: ProtocolKind::EdHist { buckets: 4 },
            target: QueryTarget::Tds(vec![3, 5, 8]),
        }
    }

    #[test]
    fn envelope_round_trips_and_credential_still_verifies() {
        let env = sample_envelope();
        let mut out = Vec::new();
        put_envelope(&mut out, &env).unwrap();
        let got = take_envelope(&out, &mut 0).unwrap();
        assert_eq!(got.query_id, 7);
        assert_eq!(got.enc_query, env.enc_query);
        assert_eq!(got.size.max_tuples, Some(100));
        assert_eq!(got.protocol, ProtocolKind::EdHist { buckets: 4 });
        assert_eq!(got.target, QueryTarget::Tds(vec![3, 5, 8]));
        // The signature survived byte-for-byte.
        let signer = CredentialSigner::new(b"authority");
        assert!(got
            .credential
            .verify(&signer.verification_key(), 50)
            .is_ok());
        assert_eq!(got.credential, env.credential);
    }

    /// One format, held by a test instead of by a comment: the journal
    /// record of a posted query and the frame that posted it carry the
    /// same envelope bytes, because both call `codec::put_envelope`.
    #[test]
    fn journal_record_and_wire_frame_carry_the_same_envelope_bytes() {
        use tdsql_core::ssi::{Journal, JournalConfig, JournalRecord};

        let env = sample_envelope();
        let path = std::env::temp_dir().join(format!(
            "tdsql-net-one-codec-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, records) = Journal::open(&JournalConfig::new(&path)).unwrap();
            assert!(records.is_empty());
            journal
                .append(&JournalRecord::QueryPosted {
                    envelope: env.clone(),
                })
                .unwrap();
        }
        let file = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        // file := magic[8] len:u32be payload[len] checksum[8]
        let len = u32::from_be_bytes(file[8..12].try_into().unwrap()) as usize;
        assert_eq!(file.len(), 8 + 4 + len + 8, "exactly one record");
        let payload = &file[12..12 + len];

        let frame = SsiRequest::PostQuery(env.clone()).encode().unwrap();
        let mut envelope = Vec::new();
        put_envelope(&mut envelope, &env).unwrap();
        // Each is one kind byte, then the envelope.
        assert_eq!(&payload[1..], envelope);
        assert_eq!(&frame[1..], envelope);
    }

    #[test]
    fn tampered_credential_fails_verification_after_transport() {
        let env = sample_envelope();
        let mut forged = env.credential.clone();
        forged = Credential::from_parts(
            forged.querier_id.clone(),
            Role::new("admin"),
            forged.expires_at_round,
            forged.signature(),
        );
        let signer = CredentialSigner::new(b"authority");
        assert!(forged.verify(&signer.verification_key(), 0).is_err());
    }

    #[test]
    fn params_round_trip_with_domain_and_histogram() {
        let mut p = ProtocolParams::new(ProtocolKind::CNoise);
        p.pad = 96;
        p.chunk = 17;
        p.alpha = 3;
        p.noise_domain = vec![GroupKey(vec![1, 2]), GroupKey(vec![9])].into();
        p.histogram =
            Some(Histogram::build(&[(GroupKey(vec![1]), 4), (GroupKey(vec![2]), 6)], 2).into());
        let mut out = Vec::new();
        put_params(&mut out, &p).unwrap();
        let got = take_params(&out, &mut 0).unwrap();
        assert_eq!(got.kind, ProtocolKind::CNoise);
        assert_eq!(got.pad, 96);
        assert_eq!(got.chunk, 17);
        assert_eq!(got.alpha, 3);
        assert_eq!(got.noise_domain, p.noise_domain);
        let h = got.histogram.unwrap();
        assert_eq!(h.n_buckets(), 2);
        assert_eq!(
            h.bucket_of(&GroupKey(vec![1])),
            p.histogram.as_ref().unwrap().bucket_of(&GroupKey(vec![1]))
        );
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            SsiRequest::PostQuery(sample_envelope()),
            SsiRequest::BeginAssignment(3, 9),
            SsiRequest::ReceiveWorking {
                query_id: 1,
                assignment: AssignmentId(42),
                phase: Phase::Aggregation,
                tuples: vec![StoredTuple {
                    tag: GroupTag::Bucket([7; 8]),
                    blob: Bytes::from(vec![1, 2, 3]),
                }],
            },
            SsiRequest::Results(11),
        ];
        for req in reqs {
            let wire = req.encode().unwrap();
            let got = SsiRequest::decode(&wire).unwrap();
            assert_eq!(got.encode().unwrap(), wire, "{}", req.name());
        }
    }

    #[test]
    fn responses_round_trip_including_errors() {
        let resps = vec![
            SsiResponse::Id(5),
            SsiResponse::Outcome(DeliveryOutcome::LateAfterReassign),
            SsiResponse::Tuples(vec![StoredTuple {
                tag: GroupTag::Det(Bytes::from(vec![4, 4])),
                blob: Bytes::from(vec![9; 16]),
            }]),
            SsiResponse::Err(ProtocolError::QueryAborted {
                phase: Phase::Collection,
                retries: 24,
            }),
            SsiResponse::Err(ProtocolError::Crypto(CryptoError::TagMismatch)),
            SsiResponse::Err(ProtocolError::UnknownQuery { query_id: 3 }),
        ];
        for resp in resps {
            let wire = resp.encode().unwrap();
            let got = SsiResponse::decode(&wire).unwrap();
            assert_eq!(got.encode().unwrap(), wire);
        }
    }

    #[test]
    fn error_classes_survive_transport() {
        // The Crypto / Codec / Transport classes drive the driver's retry
        // decisions; the wire must carry them variant for variant.
        for err in [
            ProtocolError::Crypto(CryptoError::TagMismatch),
            ProtocolError::Codec("garbled".into()),
            ProtocolError::Transport("connection reset by peer".into()),
            ProtocolError::AccessDenied,
            ProtocolError::AdmissionRejected {
                querier: "energy-co".into(),
                waiting: 4,
                cap: 4,
            },
        ] {
            let mut out = Vec::new();
            put_error(&mut out, &err).unwrap();
            let got = take_error(&out, &mut 0).unwrap();
            assert_eq!(got, err);
            assert_eq!(
                tdsql_core::service::is_transport_error(&got),
                matches!(err, ProtocolError::Transport(_)),
                "{err:?} -> {got:?}"
            );
        }
        // Reconnect exhaustion stays a transport error across the hop,
        // and the journal-corruption class survives with its payload.
        let mut out = Vec::new();
        put_error(
            &mut out,
            &ProtocolError::BackendUnavailable {
                peer: "tds-pool",
                attempts: 5,
            },
        )
        .unwrap();
        let got = take_error(&out, &mut 0).unwrap();
        assert!(tdsql_core::service::is_transport_error(&got), "{got:?}");
        assert!(matches!(
            got,
            ProtocolError::BackendUnavailable { attempts: 5, .. }
        ));
        let mut out = Vec::new();
        put_error(
            &mut out,
            &ProtocolError::JournalCorrupt {
                offset: 96,
                what: "checksum mismatch".into(),
            },
        )
        .unwrap();
        match take_error(&out, &mut 0).unwrap() {
            ProtocolError::JournalCorrupt { offset: 96, what } => {
                assert_eq!(what, "checksum mismatch");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn pool_step_round_trips() {
        let req = PoolRequest::Step {
            index: 4,
            env: sample_envelope(),
            params: ProtocolParams::new(ProtocolKind::SAgg),
            now_round: 12,
            step: TdsStep::FinalizeGroups {
                dest: ResultDest::Tds,
            },
            partition: vec![StoredTuple {
                tag: GroupTag::None,
                blob: Bytes::from(vec![8; 96]),
            }],
            rng_seed: 0xdead_beef,
        };
        let wire = req.encode().unwrap();
        let got = PoolRequest::decode(&wire).unwrap();
        assert_eq!(got.encode().unwrap(), wire);
        let resp = PoolResponse::Rows(vec![vec![Value::Int(3), Value::Str("a".into())]]);
        let wire = resp.encode().unwrap();
        let got = PoolResponse::decode(&wire).unwrap();
        assert_eq!(got.encode().unwrap(), wire);
    }

    #[test]
    fn pool_multi_step_round_trips() {
        let part = |seed: u64| MultiStepPart {
            env: sample_envelope(),
            params: ProtocolParams::new(ProtocolKind::Basic),
            now_round: 5,
            step: TdsStep::Collect,
            partition: Vec::new(),
            rng_seed: seed,
        };
        let req = PoolRequest::MultiStep {
            index: 2,
            parts: vec![part(11), part(22), part(33)],
        };
        let wire = req.encode().unwrap();
        let got = PoolRequest::decode(&wire).unwrap();
        assert_eq!(got.name(), "multi_step");
        assert_eq!(got.encode().unwrap(), wire);
        match got {
            PoolRequest::MultiStep { index, parts } => {
                assert_eq!(index, 2);
                assert_eq!(parts.len(), 3);
                assert_eq!(parts[1].rng_seed, 22);
            }
            other => panic!("wrong request: {}", other.name()),
        }

        // Per-part results mix all three shapes; errors stay in-slot.
        let resp = PoolResponse::Multi(vec![
            Ok(StepResult::Working(vec![StoredTuple {
                tag: GroupTag::None,
                blob: Bytes::from(vec![3; 48]),
            }])),
            Err(ProtocolError::AccessDenied),
            Ok(StepResult::Results(vec![Bytes::from(vec![9; 16])])),
        ]);
        let wire = resp.encode().unwrap();
        let got = PoolResponse::decode(&wire).unwrap();
        assert_eq!(got.encode().unwrap(), wire);
        match got {
            PoolResponse::Multi(results) => {
                assert_eq!(results.len(), 3);
                assert!(matches!(results[0], Ok(StepResult::Working(_))));
                assert!(matches!(results[1], Err(ProtocolError::AccessDenied)));
                assert!(matches!(results[2], Ok(StepResult::Results(_))));
            }
            other => panic!("wrong response: {other:?}"),
        }

        // Truncation of the multi-step frames fails typed, never panics.
        let wire = req.encode().unwrap();
        for cut in 0..wire.len() {
            assert!(PoolRequest::decode(&wire[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut wire = SsiRequest::Envelope(3).encode().unwrap();
        wire.push(0);
        assert!(SsiRequest::decode(&wire).is_err());
        let mut wire = PoolRequest::MultiStep {
            index: 0,
            parts: Vec::new(),
        }
        .encode()
        .unwrap();
        wire.push(0);
        assert!(PoolRequest::decode(&wire).is_err());
    }

    #[test]
    fn fault_plan_corrupted_messages_never_panic() {
        use tdsql_core::connectivity::FaultPlan;

        // The fault plan's corruption leg, applied to whole wire messages:
        // decode must yield a typed error or some valid message, never a
        // panic. Both directions of both protocols are swept.
        let plan = FaultPlan::seeded(23).with_corruption(1.0);
        let messages = vec![
            SsiRequest::PostQuery(sample_envelope()).encode().unwrap(),
            SsiResponse::Tuples(vec![StoredTuple {
                tag: GroupTag::Det(Bytes::from(vec![1, 2, 3])),
                blob: Bytes::from(vec![7; 64]),
            }])
            .encode()
            .unwrap(),
            PoolRequest::Step {
                index: 0,
                env: sample_envelope(),
                params: ProtocolParams::new(ProtocolKind::CNoise),
                now_round: 3,
                step: TdsStep::Collect,
                partition: vec![],
                rng_seed: 9,
            }
            .encode()
            .unwrap(),
            PoolResponse::Rows(vec![vec![Value::Int(1), Value::Float(2.5)]])
                .encode()
                .unwrap(),
        ];
        for (m, wire) in messages.into_iter().enumerate() {
            for item in 0..32u64 {
                let corrupted =
                    plan.corrupt_blob(&Bytes::from(wire.clone()), Phase::Aggregation, item, 0);
                let as_ssi_req = SsiRequest::decode(&corrupted);
                let as_ssi_resp = SsiResponse::decode(&corrupted);
                let as_pool_req = PoolRequest::decode(&corrupted);
                let as_pool_resp = PoolResponse::decode(&corrupted);
                for err in [
                    as_ssi_req.err(),
                    as_ssi_resp.err(),
                    as_pool_req.err(),
                    as_pool_resp.err(),
                ]
                .into_iter()
                .flatten()
                {
                    assert!(
                        matches!(err, ProtocolError::Codec(_) | ProtocolError::Sql(_)),
                        "message {m} corruption {item}: unexpected error class: {err:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_and_corrupted_messages_fail_typed() {
        let wire = SsiRequest::PostQuery(sample_envelope()).encode().unwrap();
        // Every strict prefix must fail with a typed Codec error, never
        // panic or mis-decode.
        for cut in 0..wire.len() {
            match SsiRequest::decode(&wire[..cut]) {
                Err(ProtocolError::Codec(_)) => {}
                Ok(req) => panic!("prefix of len {cut} decoded as {}", req.name()),
                Err(other) => panic!("prefix of len {cut}: unexpected {other:?}"),
            }
        }
    }
}
