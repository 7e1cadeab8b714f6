//! Offline stand-in for the crates.io `bytes` crate.
//!
//! The build environment has no registry access, so this workspace vendors
//! the slice of the `bytes` API that `rpcv-wire`'s `Blob` uses: a
//! cheaply-clonable, immutable, reference-counted byte buffer, built from a
//! vector or a slice and read as a slice.  Swapping the real crate back in
//! requires no source changes in the workspace.
//!
//! Two allocation properties matter to the simulator's hot send path and
//! are pinned by tests:
//!
//! * `Bytes::from(vec)` takes ownership of the vector's allocation — no
//!   copy.  (The previous representation was `Arc<[u8]>`, where
//!   `From<Vec<u8>>` must re-allocate to prepend the refcount header,
//!   copying every sealed frame once.)
//! * `Bytes::new()` / `Bytes::default()` are free: empty buffers share a
//!   static slice instead of allocating a fresh Arc header each
//!   (`Blob::default` and empty-payload frames hit this constantly).

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    /// Borrowed static storage (the shared empty).
    Static(&'static [u8]),
    /// Shared ownership of a heap vector; keeps the vector's allocation.
    Shared(Arc<Vec<u8>>),
}

/// Immutable, reference-counted byte buffer. `clone` is O(1).
#[derive(Clone)]
pub struct Bytes(Repr);

impl Bytes {
    /// Empty buffer — a shared static, never an allocation.
    pub fn new() -> Self {
        Bytes(Repr::Static(&[]))
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(v) => v,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of the vector's allocation — no copy.
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        Bytes(Repr::Shared(Arc::new(v)))
    }
}

// Equality is content-based: a `Static` and a `Shared` holding equal bytes
// are indistinguishable.
impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(32) {
            if (0x20..0x7f).contains(&b) {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 32 {
            write!(f, "… len={}", self.len())?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_clone_share() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(Bytes::copy_from_slice(&[1, 2, 3]), b);
    }

    #[test]
    fn empty_is_static_not_allocated() {
        // `Bytes::new`, `default`, and empty conversions all share the
        // static empty representation.
        for b in
            [Bytes::new(), Bytes::default(), Bytes::from(Vec::new()), Bytes::copy_from_slice(&[])]
        {
            assert!(matches!(b.0, Repr::Static(s) if s.is_empty()));
        }
    }

    #[test]
    fn from_vec_keeps_allocation() {
        let v = vec![7u8; 64];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "From<Vec> must not copy");
    }
}
