//! Arena collection buffers: seal one step's tuples into one shared
//! allocation.
//!
//! A TDS's collection step seals its contribution — one tuple for S_Agg,
//! one per domain value for C_Noise — and hands each blob to the SSI. Sealed
//! one `Vec` at a time, every tuple would pay for a plaintext `Vec`, a
//! ciphertext `Vec` and the `Arc<[u8]>` copy behind [`Bytes`]. A
//! [`TupleArena`] pays for none of them per tuple: tuples are encoded into
//! one scratch buffer, encrypted *appending* into one contiguous ciphertext
//! buffer, and handed out as zero-copy [`Bytes`] views of a single shared
//! allocation.
//!
//! [`Tds::collect`](crate::tds::Tds::collect) builds one arena per step,
//! sized up front by [`TupleArena::for_item`] for the tuples it is about to
//! seal, and drains it with [`TupleArena::drain_item`]. Nothing outlives the
//! step: no plaintext stays behind in a buffer kept for the next one.
//! The multi-item API ([`TupleArena::begin_item`], [`TupleArena::drain`])
//! seals several work items into one flush.
//!
//! Determinism is untouched: the arena changes where bytes land, never which
//! bytes are drawn — a blob sealed through the arena is byte-identical to
//! one sealed through the `Vec` path under the same RNG state.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use tdsql_crypto::rng::StdRng;
use tdsql_crypto::NDetCipher;

use crate::bytes::Bytes;
use crate::message::{GroupTag, StoredTuple};

/// Global count of ciphertext bytes sealed through arena flushes.
///
/// The bench report records this next to `aes_blocks_batched` to prove the
/// hot path actually runs through the arena (a silent fallback to the
/// per-tuple `Vec` path would be correct but slow).
static ARENA_BYTES_SEALED: AtomicU64 = AtomicU64::new(0);

/// How many ciphertext bytes have been flushed out of arenas, process-wide.
pub fn arena_bytes_sealed() -> u64 {
    ARENA_BYTES_SEALED.load(Ordering::Relaxed)
}

/// A collection buffer sealing the tuples of one or more work items into
/// one contiguous allocation.
///
/// Usage per work item: [`begin_item`](Self::begin_item), then for each
/// tuple encode its plaintext into [`scratch`](Self::scratch) and call
/// [`seal`](Self::seal); finally [`drain`](Self::drain) converts everything
/// sealed so far into per-item `Vec<StoredTuple>`s sharing one allocation.
#[derive(Default)]
pub struct TupleArena {
    /// Plaintext staging for the tuple currently being encoded.
    scratch: Vec<u8>,
    /// Contiguous ciphertext of every sealed-but-not-drained tuple.
    buf: Vec<u8>,
    /// Tag and `buf` range of each sealed tuple, in seal order.
    pending: Vec<(GroupTag, Range<usize>)>,
    /// Start of each begun item: (index into `pending`, offset into `buf`).
    items: Vec<(usize, usize)>,
}

impl TupleArena {
    /// Fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena for one work item of `tuples` tuples with `pad`-byte
    /// plaintexts, the item already begun: sealing them grows no buffer.
    pub fn for_item(tuples: usize, pad: usize) -> Self {
        let mut arena = Self {
            scratch: Vec::with_capacity(pad),
            buf: Vec::with_capacity(tuples * (pad + tdsql_crypto::ndet::OVERHEAD)),
            pending: Vec::with_capacity(tuples),
            items: Vec::with_capacity(1),
        };
        arena.begin_item();
        arena
    }

    /// Mark the start of a new work item; subsequent seals belong to it.
    pub fn begin_item(&mut self) {
        self.items.push((self.pending.len(), self.buf.len()));
    }

    /// Clear and return the plaintext scratch buffer: encode one tuple into
    /// it, then call [`seal`](Self::seal).
    pub fn scratch(&mut self) -> &mut Vec<u8> {
        self.scratch.clear();
        &mut self.scratch
    }

    /// Encrypt the current scratch contents under `cipher`, appending the
    /// ciphertext to the arena and recording it under `tag`.
    ///
    /// # Panics
    /// Debug-asserts that an item is open (see [`begin_item`](Self::begin_item)).
    pub fn seal(&mut self, cipher: &NDetCipher, tag: GroupTag, rng: &mut StdRng) {
        debug_assert!(!self.items.is_empty(), "seal before begin_item");
        let start = self.buf.len();
        cipher.encrypt_into(rng, &self.scratch, &mut self.buf);
        self.pending.push((tag, start..self.buf.len()));
    }

    /// Flush: one shared allocation for everything sealed so far, returned
    /// as per-item tuple lists (in [`begin_item`](Self::begin_item) order)
    /// whose blobs are zero-copy views of it. The arena keeps its buffer
    /// capacity for reuse.
    pub fn drain(&mut self) -> Vec<Vec<StoredTuple>> {
        let shared = self.flush();
        let n = self.pending.len();
        let mut out = Vec::with_capacity(self.items.len());
        let mut pending = self.pending.drain(..);
        for i in 0..self.items.len() {
            let start = self.items[i].0;
            let end = self.items.get(i + 1).map(|&(s, _)| s).unwrap_or(n);
            let tuples: Vec<StoredTuple> = pending
                .by_ref()
                .take(end - start)
                .map(|(tag, range)| StoredTuple {
                    tag,
                    blob: shared.slice(range),
                })
                .collect();
            out.push(tuples);
        }
        drop(pending);
        self.items.clear();
        out
    }

    /// [`drain`](Self::drain) for an arena holding one item: its tuples,
    /// without the per-item list around them.
    pub fn drain_item(&mut self) -> Vec<StoredTuple> {
        debug_assert!(self.items.len() <= 1, "drain_item on a multi-item arena");
        let shared = self.flush();
        self.items.clear();
        self.pending
            .drain(..)
            .map(|(tag, range)| StoredTuple {
                tag,
                blob: shared.slice(range),
            })
            .collect()
    }

    /// Copy the sealed ciphertext into the one allocation the drained blobs
    /// share, and empty the buffer.
    fn flush(&mut self) -> Bytes {
        ARENA_BYTES_SEALED.fetch_add(self.buf.len() as u64, Ordering::Relaxed);
        let shared = Bytes::copy_from_slice(&self.buf);
        self.buf.clear();
        shared
    }
}

impl std::fmt::Debug for TupleArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TupleArena {{ items: {}, tuples: {}, bytes: {} }}",
            self.items.len(),
            self.pending.len(),
            self.buf.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_crypto::rng::SeedableRng;
    use tdsql_crypto::{KeyRing, NDetCipher};

    fn cipher() -> NDetCipher {
        NDetCipher::new(&KeyRing::derive(b"arena-test").k2)
    }

    #[test]
    fn drain_matches_vec_path_bytes() {
        let c = cipher();
        let mut arena = TupleArena::new();
        let mut arena_rng = StdRng::seed_from_u64(7);
        let mut vec_rng = StdRng::seed_from_u64(7);

        let payloads: [&[u8]; 3] = [b"alpha-tuple", b"beta", b"gamma-tuple-longer"];
        arena.begin_item();
        for p in &payloads[..2] {
            arena.scratch().extend_from_slice(p);
            arena.seal(&c, GroupTag::None, &mut arena_rng);
        }
        arena.begin_item();
        arena.scratch().extend_from_slice(payloads[2]);
        arena.seal(&c, GroupTag::None, &mut arena_rng);

        let items = arena.drain();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].len(), 2);
        assert_eq!(items[1].len(), 1);

        for (tuple, payload) in items.iter().flatten().zip(payloads) {
            let expect = c.encrypt(&mut vec_rng, payload);
            assert_eq!(tuple.blob.as_ref(), &expect[..], "arena == Vec path");
        }
        // All blobs of one drain share a single backing allocation.
        let base = items[0][0].blob.as_ref().as_ptr();
        let second = items[0][1].blob.as_ref().as_ptr();
        assert_eq!(second as usize - base as usize, items[0][0].blob.len());
    }

    #[test]
    fn drain_resets_and_arena_is_reusable() {
        let c = cipher();
        let mut arena = TupleArena::new();
        let mut rng = StdRng::seed_from_u64(2);
        for round in 0..3u8 {
            arena.begin_item();
            arena.scratch().extend_from_slice(&[round; 10]);
            arena.seal(&c, GroupTag::None, &mut rng);
            let items = arena.drain();
            assert_eq!(items.len(), 1);
            assert_eq!(c.decrypt(&items[0][0].blob).unwrap(), vec![round; 10]);
            assert!(arena.drain().is_empty(), "a drain leaves nothing behind");
        }
    }

    #[test]
    fn a_presized_item_seals_without_growing_and_drains_like_drain() {
        let c = cipher();
        let pad = 40;
        let mut presized = TupleArena::for_item(3, pad);
        let mut grown = TupleArena::new();
        grown.begin_item();
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        let capacity = presized.buf.capacity();
        for i in 0..3u8 {
            for (arena, rng) in [(&mut presized, &mut rng_a), (&mut grown, &mut rng_b)] {
                arena.scratch().resize(pad, i);
                arena.seal(&c, GroupTag::Bucket([i; 8]), rng);
            }
        }
        assert_eq!(presized.buf.capacity(), capacity, "no buffer grew");
        let one = presized.drain_item();
        let expect = grown.drain().pop().unwrap();
        assert_eq!(one.len(), 3);
        for (a, b) in one.iter().zip(&expect) {
            assert_eq!(a.tag, b.tag);
            assert_eq!(a.blob, b.blob);
        }
        assert!(
            presized.drain_item().is_empty(),
            "a drain leaves nothing behind"
        );
    }

    #[test]
    fn empty_items_drain_to_empty_lists() {
        let mut arena = TupleArena::new();
        arena.begin_item();
        arena.begin_item();
        let items = arena.drain();
        assert_eq!(items.len(), 2);
        assert!(items.iter().all(Vec::is_empty));
    }

    #[test]
    fn sealed_bytes_counter_advances() {
        let c = cipher();
        let before = arena_bytes_sealed();
        let mut arena = TupleArena::new();
        let mut rng = StdRng::seed_from_u64(3);
        arena.begin_item();
        arena.scratch().extend_from_slice(&[0u8; 64]);
        arena.seal(&c, GroupTag::None, &mut rng);
        let sealed: u64 = arena.drain()[0].iter().map(|t| t.blob.len() as u64).sum();
        assert!(arena_bytes_sealed() >= before + sealed);
    }
}
