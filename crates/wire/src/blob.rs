//! [`Blob`]: real or modelled payload bytes.
//!
//! The RPC-V evaluation sweeps RPC parameter/result sizes from a few bytes
//! to 100 MB (Fig. 4) and runs thousands of tasks through coordinators
//! (Figs. 9–11).  Moving real buffers of that size through a discrete-event
//! simulation would dominate run time without changing any measured
//! quantity, because the simulator charges *modelled* transfer and disk
//! costs by byte count.  `Blob` therefore has two representations:
//!
//! * `Inline` — real bytes (used by the threaded runtime and by services
//!   that actually compute);
//! * `Synthetic` — `{ len, seed }`, a deterministic virtual payload that can
//!   be materialized on demand into the same bytes everywhere.

use bytes::Bytes;

use crate::codec::{Reader, WireDecode, WireEncode, WireWrite, Writer};
use crate::digest::{mix64, Crc64};
use crate::error::WireError;

/// Payload carried by RPC calls, results and archives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Blob {
    /// Real bytes.
    Inline(Bytes),
    /// Modelled payload: `len` deterministic bytes derived from `seed`.
    Synthetic {
        /// Payload length in bytes.
        len: u64,
        /// Generator seed; equal seeds + lengths produce equal bytes.
        seed: u64,
    },
}

impl Default for Blob {
    fn default() -> Self {
        Blob::Inline(Bytes::new())
    }
}

impl Blob {
    /// Empty inline blob.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Inline blob from owned bytes.
    pub fn from_vec(v: Vec<u8>) -> Self {
        Blob::Inline(Bytes::from(v))
    }

    /// Inline blob copying a slice.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Blob::Inline(Bytes::copy_from_slice(s))
    }

    /// Synthetic blob of `len` bytes derived from `seed`.
    pub fn synthetic(len: u64, seed: u64) -> Self {
        Blob::Synthetic { len, seed }
    }

    /// Payload length in bytes (O(1) for both representations).
    pub fn len(&self) -> u64 {
        match self {
            Blob::Inline(b) => b.len() as u64,
            Blob::Synthetic { len, .. } => *len,
        }
    }

    /// True when the payload is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produces the real bytes.
    ///
    /// `Inline` is a cheap refcount clone; `Synthetic` generates its
    /// deterministic stream (O(len)).
    pub fn materialize(&self) -> Bytes {
        match self {
            Blob::Inline(b) => b.clone(),
            Blob::Synthetic { len, seed } => {
                let mut w = Writer::with_capacity(*len as usize);
                w.put_synthetic(*len, *seed);
                Bytes::from(w.into_vec())
            }
        }
    }

    /// CRC-64 of the (possibly generated) content.
    ///
    /// Streaming for synthetic blobs: O(len) time, O(1) memory.  Two blobs
    /// with equal content have equal fingerprints regardless of
    /// representation.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Blob::Inline(b) => {
                let mut c = Crc64::new();
                c.update(b);
                c.finish()
            }
            Blob::Synthetic { len, seed } => {
                struct CrcSink(Crc64);
                impl WireWrite for CrcSink {
                    fn put_raw(&mut self, bytes: &[u8]) {
                        self.0.update(bytes);
                    }
                }
                let mut sink = CrcSink(Crc64::new());
                sink.put_synthetic(*len, *seed);
                sink.0.finish()
            }
        }
    }

    /// Content equality across representations (O(len)).
    pub fn content_eq(&self, other: &Blob) -> bool {
        self.len() == other.len() && self.fingerprint() == other.fingerprint()
    }

    /// Derives a child blob seed, e.g. for per-task result payloads.
    pub fn derive_seed(parent_seed: u64, salt: u64) -> u64 {
        mix64(parent_seed ^ mix64(salt))
    }
}

const TAG_INLINE: u8 = 0;
const TAG_SYNTHETIC: u8 = 1;

impl WireEncode for Blob {
    /// Wire form preserves the representation: synthetic blobs travel as
    /// `{len, seed}` (9–21 bytes) rather than as generated content.  Both
    /// simulator and threaded runtime therefore agree on wire sizes being
    /// the *modelled* payload size, which a synthetic blob reports to the
    /// writer ([`WireWrite::modelled`]) beside its frame bytes; the frame
    /// itself stays cheap.
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        match self {
            Blob::Inline(b) => {
                w.put_u8(TAG_INLINE);
                w.put_bytes(b);
            }
            Blob::Synthetic { len, seed } => {
                w.put_u8(TAG_SYNTHETIC);
                w.put_uvarint(*len);
                w.put_uvarint(*seed);
                w.modelled(*len);
            }
        }
    }
}

impl WireDecode for Blob {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            TAG_INLINE => Ok(Blob::copy_from_slice(r.get_bytes()?)),
            TAG_SYNTHETIC => {
                let len = r.get_uvarint()?;
                let seed = r.get_uvarint()?;
                Ok(Blob::Synthetic { len, seed })
            }
            tag => Err(WireError::InvalidTag { ty: "Blob", tag: tag as u64 }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};

    #[test]
    fn inline_roundtrip() {
        let b = Blob::from_vec(vec![1, 2, 3, 4]);
        let back: Blob = from_bytes(&to_bytes(&b)).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn synthetic_roundtrip_preserves_representation() {
        let b = Blob::synthetic(1 << 30, 42); // 1 GiB, never generated
        let bytes = to_bytes(&b);
        assert!(bytes.len() < 32, "synthetic frame must stay tiny, got {}", bytes.len());
        let back: Blob = from_bytes(&bytes).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn materialize_matches_fingerprint() {
        let b = Blob::synthetic(10_000, 7);
        let real = Blob::Inline(b.materialize());
        assert_eq!(real.len(), b.len());
        assert_eq!(real.fingerprint(), b.fingerprint());
        assert!(real.content_eq(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Blob::synthetic(1000, 1);
        let b = Blob::synthetic(1000, 2);
        assert!(!a.content_eq(&b));
    }

    #[test]
    fn empty_blob() {
        let b = Blob::empty();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.fingerprint(), 0); // CRC-64/XZ of empty input
        let back: Blob = from_bytes(&to_bytes(&b)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn encoded_len_is_exact_for_both_forms() {
        for b in [Blob::from_vec(vec![9; 333]), Blob::synthetic(5_000_000, 3), Blob::empty()] {
            // For the inline form encode() really produces the bytes, so
            // compare against them.  For synthetic, encoded form is tiny.
            assert_eq!(to_bytes(&b).len() as u64, b.encoded_len());
            // Only the synthetic form stands for bytes it does not carry.
            let stood_for = if matches!(b, Blob::Synthetic { .. }) { b.len() } else { 0 };
            assert_eq!(b.transfer_len(), b.encoded_len() + stood_for);
        }
    }

    #[test]
    fn derive_seed_spreads() {
        let s = Blob::derive_seed(123, 0);
        let t = Blob::derive_seed(123, 1);
        assert_ne!(s, t);
        assert_ne!(s, 123);
    }

    #[test]
    fn materialize_inline_is_cheap_clone() {
        let b = Blob::from_vec(vec![5; 64]);
        let m = b.materialize();
        assert_eq!(&m[..], &[5; 64][..]);
    }
}
