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
//! and a decoder bound argued there holds here. Each record is framed in
//! one append buffer the journal reuses and leaves in a single `write_all`,
//! so it is in the kernel before its call returns under every
//! [`SyncPolicy`].
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
//! Work-item ids are *reserved* rather than recorded one by one: an
//! `ItemAllocated` record names the last id of an aligned block of 64, and
//! [`super::Ssi::new_item`] writes one only when it opens a new block. A
//! snapshot's `next_item` is that reservation, so a recovered SSI resumes
//! at the next block and never re-issues an id.
//!
//! The SSI's observation log is telemetry, not ledger state, and is
//! deliberately not journaled. The accepted ciphertexts, however, are all
//! here: [`crate::adversary::archive`] reads them back as the traffic an
//! archiving SSI would hold.
//!
//! ## Snapshots
//!
//! A snapshot is due when `snapshot_every` records *and* at least the last
//! snapshot's own size in bytes have been appended since it. So all
//! snapshots together weigh at most the records between them plus one
//! snapshot, and the records replay re-runs after the last snapshot stay
//! within max(`snapshot_every` records, one snapshot's size in bytes).
//! Reopening a journal resumes this cadence from the file. Snapshots bound
//! *replay* only: [`Journal::open`] still reads and checksums the whole
//! file.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use tdsql_crypto::sha256::Sha256;

use crate::bytes::Bytes;
use crate::codec::{
    bad, expect_consumed, len_u32, put_blobs, put_bool, put_envelope, put_phase, put_tuples,
    put_u64, put_u64s, put_u8, put_vec, take_blobs, take_bool, take_envelope, take_phase,
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
    /// `fsync` every N appends (batched). Every record still reaches the
    /// kernel before its call returns, so killing the process loses
    /// nothing; a machine crash can lose up to N-1 acknowledged records.
    /// In particular a lost `ItemAllocated` is a lost *block reservation*:
    /// a restarted SSI could re-issue any of its 64 item ids while a
    /// client still quotes the previous incarnation. Use only when the
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
    /// Append a full-state snapshot once at least this many records
    /// (0 = never) *and* at least the last snapshot's size in bytes have
    /// been appended since it. Replay restarts from the last snapshot,
    /// bounding replay for long-lived servers; opening the journal still
    /// reads the whole file.
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
    /// `new_item` reserved a block of work-item ids.
    ItemAllocated {
        /// Owning query.
        query_id: u64,
        /// The block's last id: ids up to and including it are taken.
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
    /// The work-item reservation: ids below it are taken, issued or not.
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
    /// Append the payload (no framing) to `out`.
    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        match self {
            JournalRecord::QueryPosted { envelope } => {
                put_u8(out, 0);
                put_envelope(out, envelope)?;
            }
            JournalRecord::ItemAllocated { query_id, item } => {
                put_u8(out, 1);
                put_u64(out, *query_id);
                put_u64(out, *item);
            }
            JournalRecord::AssignmentIssued {
                query_id,
                assignment,
                item,
            } => {
                put_u8(out, 2);
                put_u64(out, *query_id);
                put_u64(out, *assignment);
                put_u64(out, *item);
            }
            JournalRecord::CollectionAccepted {
                query_id,
                assignment,
                tuples,
            } => {
                put_u8(out, 3);
                put_u64(out, *query_id);
                put_u64(out, *assignment);
                put_tuples(out, tuples)?;
            }
            JournalRecord::CollectionClosed { query_id } => {
                put_u8(out, 4);
                put_u64(out, *query_id);
            }
            JournalRecord::WorkingTaken { query_id } => {
                put_u8(out, 5);
                put_u64(out, *query_id);
            }
            JournalRecord::WorkingRestored {
                query_id,
                phase,
                tuples,
            } => {
                put_u8(out, 6);
                put_u64(out, *query_id);
                put_phase(out, *phase);
                put_tuples(out, tuples)?;
            }
            JournalRecord::WorkingAccepted {
                query_id,
                assignment,
                phase,
                tuples,
            } => {
                put_u8(out, 7);
                put_u64(out, *query_id);
                put_u64(out, *assignment);
                put_phase(out, *phase);
                put_tuples(out, tuples)?;
            }
            JournalRecord::ResultsAccepted {
                query_id,
                assignment,
                rows,
            } => {
                put_u8(out, 8);
                put_u64(out, *query_id);
                put_u64(out, *assignment);
                put_blobs(out, rows)?;
            }
            JournalRecord::QueryPurged { query_id } => {
                put_u8(out, 9);
                put_u64(out, *query_id);
            }
            JournalRecord::Snapshot { state } => {
                put_u8(out, 10);
                put_u64(out, state.next_query_id);
                put_u64(out, state.next_assignment_id);
                put_vec(out, "journal snapshot queries", &state.queries, |out, q| {
                    q.encode(out)
                })?;
            }
        }
        Ok(())
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

/// Where the journal stands since its last snapshot record: what
/// [`Journal::snapshot_due`] weighs.
#[derive(Debug, Default)]
struct Cadence {
    /// Records appended since the last snapshot.
    records: u64,
    /// Framed bytes appended since the last snapshot.
    bytes: u64,
    /// Framed size of the last snapshot (0 before the first).
    last_snapshot: u64,
}

impl Cadence {
    /// Advance past one record of `len` framed bytes: a snapshot restarts
    /// the count, anything else adds to it.
    fn count(&mut self, len: usize, rec: &JournalRecord) {
        if matches!(rec, JournalRecord::Snapshot { .. }) {
            *self = Cadence {
                last_snapshot: len as u64,
                ..Cadence::default()
            };
        } else {
            self.records += 1;
            self.bytes += len as u64;
        }
    }
}

/// An open, append-positioned journal file.
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
    sync: SyncPolicy,
    snapshot_every: u64,
    appended_since_sync: u64,
    cadence: Cadence,
    /// The one append buffer, reused by every record up to the next
    /// snapshot: each is framed here and leaves in a single `write_all`.
    buf: Vec<u8>,
}

impl Journal {
    /// Open (creating if missing) and replay a journal: returns the
    /// append-ready journal plus every valid record with its file offset,
    /// in append order. A torn tail is truncated in place; interior
    /// corruption is a typed [`ProtocolError::JournalCorrupt`]. The
    /// snapshot cadence resumes from the file: the records and bytes after
    /// its last snapshot count towards the next one.
    pub fn open(config: &JournalConfig) -> Result<(Journal, Vec<(u64, JournalRecord)>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .open(&config.path)
            .map_err(|e| io_err("open", &e))?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw).map_err(|e| io_err("read", &e))?;

        let mut cadence = Cadence::default();
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
                cadence.count(len + RECORD_OVERHEAD, &rec);
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
                cadence,
                buf: Vec::new(),
            },
            records,
        ))
    }

    /// Append one record (framed, checksummed), syncing per policy. The
    /// record is encoded straight into the reused append buffer behind a
    /// 4-byte length slot, which is filled in once the payload's size is
    /// known; the whole frame then goes out in one `write_all`.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<()> {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 4]);
        rec.encode(&mut self.buf)?;
        let len = self.buf.len() - 4;
        if len > MAX_RECORD {
            return Err(ProtocolError::LengthOverflow {
                what: "journal record",
                len,
                max: MAX_RECORD,
            });
        }
        // Bounded by MAX_RECORD above, so the u32 conversion cannot fail;
        // go through the checked path anyway.
        let len_be = len_u32("journal record", len)?.to_be_bytes();
        self.buf[..4].copy_from_slice(&len_be);
        let full = Sha256::digest(&self.buf[4..]);
        self.buf.extend_from_slice(&full[..CHECKSUM_LEN]);
        self.file
            .write_all(&self.buf)
            .map_err(|e| io_err("append", &e))?;
        self.cadence.count(self.buf.len(), rec);
        self.appended_since_sync += 1;
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

    /// Is a periodic snapshot due? Only once `snapshot_every` records *and*
    /// at least the last snapshot's size in bytes have been appended since
    /// it, so snapshots never outweigh the records they let replay skip.
    pub fn snapshot_due(&self) -> bool {
        let c = &self.cadence;
        self.snapshot_every > 0 && c.records >= self.snapshot_every && c.bytes >= c.last_snapshot
    }

    /// Append a snapshot record (always synced), restarting the cadence.
    pub fn append_snapshot(&mut self, state: SnapshotState) -> Result<()> {
        let appended = self.append(&JournalRecord::Snapshot { state });
        // A snapshot is the largest record by far: release its buffer
        // rather than hold that much memory until the next one.
        self.buf = Vec::new();
        appended?;
        self.sync_now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A journal config on a per-process-unique path, removed before use.
    fn config(name: &str, snapshot_every: u64) -> JournalConfig {
        let mut path = std::env::temp_dir();
        path.push(format!("tdsql-jcadence-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        JournalConfig {
            path,
            sync: SyncPolicy::Always,
            snapshot_every,
        }
    }

    /// 21 framed bytes.
    const PURGE: JournalRecord = JournalRecord::QueryPurged { query_id: 7 };

    /// 33 framed bytes.
    fn empty_snapshot() -> SnapshotState {
        SnapshotState {
            next_query_id: 0,
            next_assignment_id: 0,
            queries: Vec::new(),
        }
    }

    #[test]
    fn reopening_resumes_the_snapshot_cadence() {
        let config = config("resume", 4);
        {
            let (mut j, _) = Journal::open(&config).unwrap();
            j.append_snapshot(empty_snapshot()).unwrap();
            // k = 2 records after the last snapshot.
            j.append(&PURGE).unwrap();
            j.append(&PURGE).unwrap();
        }
        let (mut j, records) = Journal::open(&config).unwrap();
        assert_eq!(records.len(), 3);
        assert!(!j.snapshot_due());
        j.append(&PURGE).unwrap();
        assert!(!j.snapshot_due(), "3 of 4 records since the snapshot");
        // snapshot_every - k = 2 records after reopening, 84 bytes >= 33.
        j.append(&PURGE).unwrap();
        assert!(j.snapshot_due(), "the cadence restarted at the reopen");
        let _ = std::fs::remove_file(&config.path);
    }

    #[test]
    fn a_snapshot_waits_for_its_own_size_in_records() {
        let config = config("bytes", 1);
        let (mut j, _) = Journal::open(&config).unwrap();
        // Before any snapshot only the record count applies.
        j.append(&PURGE).unwrap();
        assert!(j.snapshot_due());
        j.append_snapshot(empty_snapshot()).unwrap();
        // One record (21 bytes) past a 33-byte snapshot: the count is met,
        // the bytes are not.
        j.append(&PURGE).unwrap();
        assert!(!j.snapshot_due());
        j.append(&PURGE).unwrap();
        assert!(j.snapshot_due(), "42 bytes since a 33-byte snapshot");
        let _ = std::fs::remove_file(&config.path);
    }

    #[test]
    fn append_frames_match_the_documented_format() {
        let config = config("frame", 0);
        {
            let (mut j, _) = Journal::open(&config).unwrap();
            // A large record, then a small one: the reused buffer must not
            // carry bytes over from the first.
            j.append_snapshot(empty_snapshot()).unwrap();
            j.append(&PURGE).unwrap();
        }
        let raw = std::fs::read(&config.path).unwrap();
        assert_eq!(raw.len(), MAGIC.len() + 33 + 21);
        let purge = &raw[MAGIC.len() + 33..];
        assert_eq!(purge[..4], 9u32.to_be_bytes());
        assert_eq!(purge[4], 9, "QueryPurged kind byte");
        assert_eq!(purge[5..13], 7u64.to_be_bytes());
        assert_eq!(purge[13..], Sha256::digest(&purge[4..13])[..CHECKSUM_LEN]);
        let _ = std::fs::remove_file(&config.path);
    }
}
