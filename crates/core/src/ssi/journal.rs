//! The durable settle journal — crash recovery for the SSI.
//!
//! Every state transition the wire can cause on the [`super::Ssi`] is
//! appended here as one length-prefixed, checksummed record, fsynced per
//! the [`SyncPolicy`]. After a crash, [`super::Ssi::recover`] replays the
//! journal through the *real* settle ledger ([`super::SettleLedger::settle`]),
//! with every replayed verdict model-checked against
//! [`super::SETTLE_TRANSITIONS`] — so the exactly-one-`Accepted` invariant
//! PR 6's verifier proves statically survives process death, not just
//! packet loss.
//!
//! ## Record format
//!
//! ```text
//! file   := MAGIC record*
//! MAGIC  := "TDSQLJL1" (8 bytes)
//! record := len:u32be  payload:[u8; len]  checksum:[u8; 8]
//! ```
//!
//! `checksum` is the first 8 bytes of SHA-256 over `payload` (integrity
//! against torn/bit-rotted storage, not authentication — the journal sits
//! inside the SSI's own trust domain). `len` is bounds-checked against
//! [`MAX_RECORD`] *before* any allocation, reusing the `tdsql-net` frame
//! discipline. A payload is one kind byte and then fields written by
//! [`crate::codec`] — the functions the network wire uses, so an envelope
//! or a tuple batch is the same bytes in a journal record as in a frame,
//! and a decoder bound argued there holds here.
//!
//! ## Torn tails vs. corruption
//!
//! Appends are sequential, so a crash mid-append leaves a strict *prefix*
//! of the intended bytes. Replay therefore distinguishes:
//!
//! * **torn tail** — the file ends inside a record's header, payload or
//!   checksum: the partial record is silently truncated and recovery is
//!   clean (its settle was never acknowledged, so the client re-drives it);
//! * **interior corruption** — a complete record whose checksum or decoding
//!   fails, or a replay whose settle verdict contradicts the transition
//!   table: recovery stops with a typed
//!   [`ProtocolError::JournalCorrupt`], never a panic.
//!
//! ## What is journaled
//!
//! Only *accepted* settles are recorded: rejected deliveries (duplicates,
//! late-after-reassign, window-closed drops) mutate no durable-relevant
//! state. One documented consequence: a delivery spanning a crash may be
//! re-classified — what would have been `Duplicate` pre-crash can come
//! back `LateAfterReassign` post-recovery, because the unsettled slot died
//! with the process while the item's `Done` bit was journaled. Both
//! verdicts are non-merging, so exactly-once settlement holds either way.
//! The SSI's observation log is telemetry, not ledger state, and is
//! deliberately not journaled. The accepted ciphertexts, however, are all
//! here: [`crate::adversary::archive`] reads them back as the traffic an
//! archiving SSI would hold.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use tdsql_crypto::sha256::Sha256;

use crate::bytes::Bytes;
use crate::codec::{
    bad, expect_consumed, len_u32, put_blobs, put_bool, put_envelope, put_phase, put_tuples,
    put_u32, put_u64, put_u64s, put_u8, put_vec, take_blobs, take_bool, take_envelope, take_phase,
    take_tuples, take_u64, take_u64s, take_u8, take_vec,
};
use crate::error::{ProtocolError, Result};
use crate::message::{QueryEnvelope, StoredTuple};
use crate::stats::Phase;

/// File magic: 8 bytes, versioned. A file shorter than this is treated as
/// a torn initial write (re-initialized); a full-length mismatch is
/// corruption.
const MAGIC: &[u8; 8] = b"TDSQLJL1";

/// Upper bound on one record's payload — same 16 MiB discipline as the
/// network frame codec, checked before any allocation.
pub const MAX_RECORD: usize = 1 << 24;

/// Truncated-SHA-256 checksum width appended to every record.
const CHECKSUM_LEN: usize = 8;

/// Bytes of framing around a payload (length prefix + checksum).
const RECORD_OVERHEAD: usize = 4 + CHECKSUM_LEN;

/// When the journal calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every append: an acknowledged settle is durable
    /// before the response leaves the server. The default.
    Always,
    /// `fsync` every N appends (batched). Cheaper, but up to N-1
    /// acknowledged records can be lost on a crash — in particular a lost
    /// `ItemAllocated` could let a restarted SSI re-issue an item id whose
    /// previous incarnation a client still quotes. Use only when the
    /// deployment tolerates that window.
    EveryN(u64),
}

/// How to open (or create) a journal.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Journal file path; created if missing.
    pub path: PathBuf,
    /// Fsync batching policy.
    pub sync: SyncPolicy,
    /// Append a full-state snapshot every this many records (0 = never).
    /// Replay restarts from the last snapshot, bounding recovery time for
    /// long-lived servers.
    pub snapshot_every: u64,
}

impl JournalConfig {
    /// Default configuration for a path: sync on every append, no
    /// periodic snapshots.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            sync: SyncPolicy::Always,
            snapshot_every: 0,
        }
    }
}

/// One durable record. Variants mirror the mutating half of the
/// [`crate::service::SsiService`] surface plus the periodic snapshot.
#[derive(Debug, Clone)]
pub enum JournalRecord {
    /// `post_query`: the envelope, with its assigned query id.
    QueryPosted {
        /// The posted envelope (query id already assigned).
        envelope: QueryEnvelope,
    },
    /// `new_item`: a work item was allocated.
    ItemAllocated {
        /// Owning query.
        query_id: u64,
        /// The allocated item id.
        item: u64,
    },
    /// `begin_assignment`: a delivery attempt was registered.
    AssignmentIssued {
        /// Owning query.
        query_id: u64,
        /// The issued assignment id.
        assignment: u64,
        /// The work item it covers.
        item: u64,
    },
    /// `receive_collection` settled `Accepted`.
    CollectionAccepted {
        /// Owning query.
        query_id: u64,
        /// Assignment the delivery quoted.
        assignment: u64,
        /// The merged tuples.
        tuples: Vec<StoredTuple>,
    },
    /// `close_collection`: the window closed, collection moved to working.
    CollectionClosed {
        /// Owning query.
        query_id: u64,
    },
    /// `take_working`: the working set was drained for partitioning.
    WorkingTaken {
        /// Owning query.
        query_id: u64,
    },
    /// `restore_working`: tuples re-parked without delivery semantics.
    WorkingRestored {
        /// Owning query.
        query_id: u64,
        /// Phase attribution of the restored tuples.
        phase: Phase,
        /// The restored tuples.
        tuples: Vec<StoredTuple>,
    },
    /// `receive_working` settled `Accepted`.
    WorkingAccepted {
        /// Owning query.
        query_id: u64,
        /// Assignment the delivery quoted.
        assignment: u64,
        /// Phase attribution of the delivery.
        phase: Phase,
        /// The merged tuples.
        tuples: Vec<StoredTuple>,
    },
    /// `receive_results` settled `Accepted`.
    ResultsAccepted {
        /// Owning query.
        query_id: u64,
        /// Assignment the delivery quoted.
        assignment: u64,
        /// The merged result rows.
        rows: Vec<Bytes>,
    },
    /// `purge_query`: all live state of the query was dropped.
    QueryPurged {
        /// The purged query.
        query_id: u64,
    },
    /// Periodic full-state snapshot; replay restarts here.
    Snapshot {
        /// The complete durable state at snapshot time.
        state: SnapshotState,
    },
}

/// Full durable state of one query, as captured by a snapshot record.
#[derive(Debug, Clone)]
pub struct QuerySnapshot {
    /// The posted envelope.
    pub envelope: QueryEnvelope,
    /// Has the collection window closed?
    pub closed: bool,
    /// Next work-item id to hand out.
    pub next_item: u64,
    /// Parked collection tuples.
    pub collection: Vec<StoredTuple>,
    /// Parked working-set tuples.
    pub working: Vec<StoredTuple>,
    /// Parked result rows.
    pub results: Vec<Bytes>,
    /// Issued assignments: (assignment id, item id, settled).
    pub assignments: Vec<(u64, u64, bool)>,
    /// Completed work items.
    pub items_done: Vec<u64>,
}

/// Full durable SSI state, as captured by a snapshot record.
#[derive(Debug, Clone)]
pub struct SnapshotState {
    /// Next query id to assign.
    pub next_query_id: u64,
    /// Next assignment id to assign.
    pub next_assignment_id: u64,
    /// Every live query, in id order.
    pub queries: Vec<QuerySnapshot>,
}

impl QuerySnapshot {
    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        put_envelope(out, &self.envelope)?;
        put_bool(out, self.closed);
        put_u64(out, self.next_item);
        put_tuples(out, &self.collection)?;
        put_tuples(out, &self.working)?;
        put_blobs(out, &self.results)?;
        put_vec(
            out,
            "journal snapshot assignments",
            &self.assignments,
            |out, (assignment, item, settled)| {
                put_u64(out, *assignment);
                put_u64(out, *item);
                put_bool(out, *settled);
                Ok(())
            },
        )?;
        put_u64s(out, "journal snapshot items", &self.items_done)
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<QuerySnapshot> {
        Ok(QuerySnapshot {
            envelope: take_envelope(buf, pos)?,
            closed: take_bool(buf, pos)?,
            next_item: take_u64(buf, pos)?,
            collection: take_tuples(buf, pos)?,
            working: take_tuples(buf, pos)?,
            results: take_blobs(buf, pos)?,
            assignments: take_vec(buf, pos, |buf, pos| {
                Ok((
                    take_u64(buf, pos)?,
                    take_u64(buf, pos)?,
                    take_bool(buf, pos)?,
                ))
            })?,
            items_done: take_u64s(buf, pos)?,
        })
    }
}

impl JournalRecord {
    /// Encode to a payload (no framing).
    fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            JournalRecord::QueryPosted { envelope } => {
                put_u8(&mut out, 0);
                put_envelope(&mut out, envelope)?;
            }
            JournalRecord::ItemAllocated { query_id, item } => {
                put_u8(&mut out, 1);
                put_u64(&mut out, *query_id);
                put_u64(&mut out, *item);
            }
            JournalRecord::AssignmentIssued {
                query_id,
                assignment,
                item,
            } => {
                put_u8(&mut out, 2);
                put_u64(&mut out, *query_id);
                put_u64(&mut out, *assignment);
                put_u64(&mut out, *item);
            }
            JournalRecord::CollectionAccepted {
                query_id,
                assignment,
                tuples,
            } => {
                put_u8(&mut out, 3);
                put_u64(&mut out, *query_id);
                put_u64(&mut out, *assignment);
                put_tuples(&mut out, tuples)?;
            }
            JournalRecord::CollectionClosed { query_id } => {
                put_u8(&mut out, 4);
                put_u64(&mut out, *query_id);
            }
            JournalRecord::WorkingTaken { query_id } => {
                put_u8(&mut out, 5);
                put_u64(&mut out, *query_id);
            }
            JournalRecord::WorkingRestored {
                query_id,
                phase,
                tuples,
            } => {
                put_u8(&mut out, 6);
                put_u64(&mut out, *query_id);
                put_phase(&mut out, *phase);
                put_tuples(&mut out, tuples)?;
            }
            JournalRecord::WorkingAccepted {
                query_id,
                assignment,
                phase,
                tuples,
            } => {
                put_u8(&mut out, 7);
                put_u64(&mut out, *query_id);
                put_u64(&mut out, *assignment);
                put_phase(&mut out, *phase);
                put_tuples(&mut out, tuples)?;
            }
            JournalRecord::ResultsAccepted {
                query_id,
                assignment,
                rows,
            } => {
                put_u8(&mut out, 8);
                put_u64(&mut out, *query_id);
                put_u64(&mut out, *assignment);
                put_blobs(&mut out, rows)?;
            }
            JournalRecord::QueryPurged { query_id } => {
                put_u8(&mut out, 9);
                put_u64(&mut out, *query_id);
            }
            JournalRecord::Snapshot { state } => {
                put_u8(&mut out, 10);
                put_u64(&mut out, state.next_query_id);
                put_u64(&mut out, state.next_assignment_id);
                put_vec(
                    &mut out,
                    "journal snapshot queries",
                    &state.queries,
                    |out, q| q.encode(out),
                )?;
            }
        }
        if out.len() > MAX_RECORD {
            return Err(ProtocolError::LengthOverflow {
                what: "journal record",
                len: out.len(),
                max: MAX_RECORD,
            });
        }
        Ok(out)
    }

    /// Decode a payload. The record must consume the whole payload —
    /// trailing bytes are corruption, as on the wire.
    fn decode(buf: &[u8]) -> Result<JournalRecord> {
        let mut pos = 0usize;
        let rec = match take_u8(buf, &mut pos)? {
            0 => JournalRecord::QueryPosted {
                envelope: take_envelope(buf, &mut pos)?,
            },
            1 => JournalRecord::ItemAllocated {
                query_id: take_u64(buf, &mut pos)?,
                item: take_u64(buf, &mut pos)?,
            },
            2 => JournalRecord::AssignmentIssued {
                query_id: take_u64(buf, &mut pos)?,
                assignment: take_u64(buf, &mut pos)?,
                item: take_u64(buf, &mut pos)?,
            },
            3 => JournalRecord::CollectionAccepted {
                query_id: take_u64(buf, &mut pos)?,
                assignment: take_u64(buf, &mut pos)?,
                tuples: take_tuples(buf, &mut pos)?,
            },
            4 => JournalRecord::CollectionClosed {
                query_id: take_u64(buf, &mut pos)?,
            },
            5 => JournalRecord::WorkingTaken {
                query_id: take_u64(buf, &mut pos)?,
            },
            6 => JournalRecord::WorkingRestored {
                query_id: take_u64(buf, &mut pos)?,
                phase: take_phase(buf, &mut pos)?,
                tuples: take_tuples(buf, &mut pos)?,
            },
            7 => JournalRecord::WorkingAccepted {
                query_id: take_u64(buf, &mut pos)?,
                assignment: take_u64(buf, &mut pos)?,
                phase: take_phase(buf, &mut pos)?,
                tuples: take_tuples(buf, &mut pos)?,
            },
            8 => JournalRecord::ResultsAccepted {
                query_id: take_u64(buf, &mut pos)?,
                assignment: take_u64(buf, &mut pos)?,
                rows: take_blobs(buf, &mut pos)?,
            },
            9 => JournalRecord::QueryPurged {
                query_id: take_u64(buf, &mut pos)?,
            },
            10 => {
                let next_query_id = take_u64(buf, &mut pos)?;
                let next_assignment_id = take_u64(buf, &mut pos)?;
                let queries = take_vec(buf, &mut pos, QuerySnapshot::decode)?;
                JournalRecord::Snapshot {
                    state: SnapshotState {
                        next_query_id,
                        next_assignment_id,
                        queries,
                    },
                }
            }
            _ => return Err(bad("record kind")),
        };
        expect_consumed(buf, pos)?;
        Ok(rec)
    }
}

// ---------------------------------------------------------------------------
// The journal file
// ---------------------------------------------------------------------------

fn io_err(what: &str, e: &std::io::Error) -> ProtocolError {
    ProtocolError::Protocol(format!("journal {what}: {e}"))
}

fn corrupt(offset: u64, what: impl Into<String>) -> ProtocolError {
    ProtocolError::JournalCorrupt {
        offset,
        what: what.into(),
    }
}

/// An open, append-positioned journal file.
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
    sync: SyncPolicy,
    snapshot_every: u64,
    appended_since_sync: u64,
    records_since_snapshot: u64,
}

impl Journal {
    /// Open (creating if missing) and replay a journal: returns the
    /// append-ready journal plus every valid record with its file offset,
    /// in append order. A torn tail is truncated in place; interior
    /// corruption is a typed [`ProtocolError::JournalCorrupt`].
    pub fn open(config: &JournalConfig) -> Result<(Journal, Vec<(u64, JournalRecord)>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .open(&config.path)
            .map_err(|e| io_err("open", &e))?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw).map_err(|e| io_err("read", &e))?;

        let mut records = Vec::new();
        let mut valid_len = MAGIC.len();
        if raw.len() < MAGIC.len() {
            // Torn initial write (or a fresh file): re-initialize.
            file.set_len(0).map_err(|e| io_err("truncate", &e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| io_err("seek", &e))?;
            file.write_all(MAGIC)
                .map_err(|e| io_err("write magic", &e))?;
            file.sync_data().map_err(|e| io_err("sync", &e))?;
        } else {
            if &raw[..MAGIC.len()] != MAGIC {
                return Err(corrupt(0, "bad journal magic"));
            }
            let mut pos = MAGIC.len();
            loop {
                let Some(header) = raw.get(pos..pos + 4) else {
                    break; // torn header (or clean end of file)
                };
                let mut len_bytes = [0u8; 4];
                len_bytes.copy_from_slice(header);
                let len = u32::from_be_bytes(len_bytes) as usize;
                if len > MAX_RECORD {
                    return Err(corrupt(pos as u64, "record length out of bounds"));
                }
                let payload_start = pos + 4;
                let Some(payload) = raw.get(payload_start..payload_start + len) else {
                    break; // torn payload
                };
                let sum_start = payload_start + len;
                let Some(stored_sum) = raw.get(sum_start..sum_start + CHECKSUM_LEN) else {
                    break; // torn checksum
                };
                let full = Sha256::digest(payload);
                if stored_sum != &full[..CHECKSUM_LEN] {
                    return Err(corrupt(pos as u64, "record checksum mismatch"));
                }
                let rec = JournalRecord::decode(payload).map_err(|e| {
                    let what = match e {
                        ProtocolError::Codec(msg) => msg,
                        other => other.to_string(),
                    };
                    corrupt(pos as u64, what)
                })?;
                records.push((pos as u64, rec));
                pos = sum_start + CHECKSUM_LEN;
                valid_len = pos;
            }
            if valid_len < raw.len() {
                // Truncate the torn tail so the next append starts clean.
                file.set_len(valid_len as u64)
                    .map_err(|e| io_err("truncate", &e))?;
            }
            file.seek(SeekFrom::Start(valid_len as u64))
                .map_err(|e| io_err("seek", &e))?;
        }

        Ok((
            Journal {
                file,
                sync: config.sync,
                snapshot_every: config.snapshot_every,
                appended_since_sync: 0,
                records_since_snapshot: 0,
            },
            records,
        ))
    }

    /// Append one record (framed, checksummed), syncing per policy.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<()> {
        let payload = rec.encode()?;
        let mut buf = Vec::with_capacity(payload.len() + RECORD_OVERHEAD);
        // `encode` bounds payloads by MAX_RECORD, so the u32 conversion
        // cannot fail; go through the checked path anyway.
        put_u32(&mut buf, len_u32("journal record", payload.len())?);
        buf.extend_from_slice(&payload);
        let full = Sha256::digest(&payload);
        buf.extend_from_slice(&full[..CHECKSUM_LEN]);
        self.file
            .write_all(&buf)
            .map_err(|e| io_err("append", &e))?;
        self.appended_since_sync += 1;
        self.records_since_snapshot += 1;
        match self.sync {
            SyncPolicy::Always => self.sync_now()?,
            SyncPolicy::EveryN(n) => {
                if self.appended_since_sync >= n.max(1) {
                    self.sync_now()?;
                }
            }
        }
        Ok(())
    }

    /// Force pending appends to stable storage.
    pub fn sync_now(&mut self) -> Result<()> {
        self.file.sync_data().map_err(|e| io_err("sync", &e))?;
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Is a periodic snapshot due under the configured cadence?
    pub fn snapshot_due(&self) -> bool {
        self.snapshot_every > 0 && self.records_since_snapshot >= self.snapshot_every
    }

    /// Append a snapshot record (always synced) and reset the cadence.
    pub fn append_snapshot(&mut self, state: SnapshotState) -> Result<()> {
        self.append(&JournalRecord::Snapshot { state })?;
        self.sync_now()?;
        self.records_since_snapshot = 0;
        Ok(())
    }
}
