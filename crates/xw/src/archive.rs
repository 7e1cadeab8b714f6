//! Result archives: named entries packed into a single integrity-checked
//! frame.
//!
//! "When the execution terminates, the server builds an archive of new or
//! modified files (including application outputs) and sends it to the
//! coordinator" (§4.2).  Archives double as the server's message log, so
//! their framing must detect corruption: the frame ends with a CRC-64 over
//! everything before it.

use rpcv_wire::{from_bytes, open_frame, seal_frame, to_bytes, wire_record, Blob, WireError};

/// One file inside an archive.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveEntry {
    /// File path relative to the job's working directory.
    pub path: String,
    /// File contents.
    pub data: Blob,
}

wire_record!(ArchiveEntry { path, data });

/// An ordered set of output files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Archive {
    /// Entries in creation order.
    pub entries: Vec<ArchiveEntry>,
}

impl Archive {
    /// Empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a file.
    pub fn push(&mut self, path: impl Into<String>, data: Blob) {
        self.entries.push(ArchiveEntry { path: path.into(), data });
    }

    /// Sum of content sizes (what transfer and storage cost models charge).
    pub fn content_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.data.len()).sum()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no files are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Packs the archive into a checksummed frame (the shared
    /// [`seal_frame`] layout, so archives and checkpoints verify the same
    /// way).
    pub fn pack(&self) -> Vec<u8> {
        seal_frame(to_bytes(&self.entries))
    }

    /// Unpacks and verifies a frame produced by [`Archive::pack`].
    pub fn unpack(frame: &[u8]) -> Result<Archive, WireError> {
        Ok(Archive { entries: from_bytes(open_frame(frame)?)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Archive {
        let mut a = Archive::new();
        a.push("stdout.txt", Blob::from_vec(b"hello".to_vec()));
        a.push("out/result.bin", Blob::synthetic(4096, 11));
        a
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let a = sample();
        let frame = a.pack();
        let back = Archive::unpack(&frame).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.content_bytes(), 5 + 4096);
        assert_eq!(back.len(), 2);
        // Golden bytes: a field swapped in both directions still round-trips.
        assert_eq!((frame.len(), rpcv_wire::crc64(&frame)), (46, 0xb66a_7365_4282_cac0));
    }

    #[test]
    fn corruption_detected() {
        let a = sample();
        let mut frame = a.pack();
        let mid = frame.len() / 2;
        frame[mid] ^= 0xff;
        assert!(matches!(Archive::unpack(&frame), Err(WireError::DigestMismatch { .. })));
    }

    #[test]
    fn truncated_frame_rejected() {
        assert!(matches!(Archive::unpack(&[1, 2, 3]), Err(WireError::UnexpectedEof { .. })));
    }

    #[test]
    fn tampered_crc_rejected() {
        let a = sample();
        let mut frame = a.pack();
        let n = frame.len();
        frame[n - 1] ^= 0x01;
        assert!(Archive::unpack(&frame).is_err());
    }

    #[test]
    fn empty_archive_roundtrips() {
        let a = Archive::new();
        assert!(a.is_empty());
        let back = Archive::unpack(&a.pack()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.content_bytes(), 0);
    }
}
