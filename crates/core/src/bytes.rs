//! A minimal cheaply-clonable immutable byte buffer.
//!
//! The protocol dataflow clones ciphertext blobs freely (the SSI's working
//! sets and settle-journal records all hold copies). The external
//! `bytes` crate provided this; the hermetic build replaces it with an
//! `Arc<[u8]>` wrapper exposing the small API subset the workspace uses.
//! Clones are reference-count bumps, never byte copies, and [`Bytes::slice`]
//! is a zero-copy view into the shared storage — which is what lets the
//! arena collection path seal a TDS's whole contribution into one
//! allocation and hand out per-tuple windows of it.

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer (possibly a sub-view).
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    len: usize,
}

impl Bytes {
    /// Wrap a static byte string (allocates once; the `'static` bound keeps
    /// the signature compatible with `bytes::Bytes::from_static`).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from_arc(Arc::from(bytes))
    }

    /// Copy a slice into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from_arc(Arc::from(data))
    }

    /// Wrap an already-shared buffer without copying, to carve it into
    /// per-tuple views with [`Self::slice`].
    pub fn from_arc(data: Arc<[u8]>) -> Self {
        let len = data.len();
        Self {
            data,
            start: 0,
            len,
        }
    }

    /// Zero-copy view of the given subrange: shares storage with `self`.
    ///
    /// # Panics
    /// If the range is out of bounds of this view.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {}..{} out of bounds of view len {}",
            range.start,
            range.end,
            self.len
        );
        Self {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            len: range.end - range.start,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::from_arc(Arc::from(&[][..]))
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self::from_arc(Arc::from(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::from_arc(Arc::from(v))
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.start + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

// Equality, ordering and hashing see only the visible window, so a sliced
// view compares equal to an owned copy of the same bytes — two blobs sealed
// through the arena and the Vec path are interchangeable everywhere.

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Blobs are ciphertext; print length + a short prefix, not contents.
        write!(f, "Bytes(len={})", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        let c = Bytes::from_static(b"xyz");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 3);
        assert_eq!(&a[..2], &[1, 2]);
        assert_eq!(c.as_ref(), b"xyz");
    }

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![9; 1024]);
        let b = a.clone();
        assert!(std::ptr::eq(a.as_ref().as_ptr(), b.as_ref().as_ptr()));
    }

    #[test]
    fn slice_is_zero_copy_view() {
        let a = Bytes::from((0u8..64).collect::<Vec<u8>>());
        let view = a.slice(10..20);
        assert_eq!(view.len(), 10);
        assert_eq!(view.as_ref(), &(10u8..20).collect::<Vec<u8>>()[..]);
        // Same backing storage, offset window.
        assert!(std::ptr::eq(
            view.as_ref().as_ptr(),
            a.as_ref()[10..].as_ptr()
        ));
        // A view of a view composes offsets.
        let inner = view.slice(2..5);
        assert_eq!(inner.as_ref(), &[12, 13, 14]);
    }

    #[test]
    fn sliced_view_equals_owned_copy() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = Bytes::from(vec![7u8; 40]);
        let view = a.slice(8..24);
        let owned = Bytes::from(vec![7u8; 16]);
        assert_eq!(view, owned);
        assert_eq!(view.cmp(&owned), std::cmp::Ordering::Equal);
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        view.hash(&mut h1);
        owned.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_rejects_out_of_bounds() {
        let a = Bytes::from(vec![1, 2, 3]);
        let _ = a.slice(1..5);
    }

    #[test]
    fn debug_hides_contents() {
        let a = Bytes::from_static(b"secret-ciphertext");
        assert_eq!(format!("{a:?}"), "Bytes(len=17)");
    }
}
