//! State snapshots: the sealed bootstrap frame for joining replicas.
//!
//! Retention ([`CoordinatorDb::prune_retired`]) removes the change-index
//! rows of delivered jobs, so `delta_since(base)` is only complete for
//! `base >= delta_floor()`.  A joining or badly lagged coordinator whose
//! base fell below the floor bootstraps from `{snapshot, tail from
//! snapshot.version}` instead: the snapshot is the sender's complete
//! *live* row set (exactly `delta_since(0)`, which post-retention holds
//! one row per live table entry) plus the per-client retired watermarks
//! that summarize everything pruned.
//!
//! The frame crosses the wire chunked inside `Msg::SnapshotChunk` and is
//! CRC-64 sealed end to end with the shared [`seal_frame`] discipline —
//! a flipped bit anywhere in any chunk surfaces as a typed
//! [`WireError::DigestMismatch`] at [`Snapshot::open`], never as a
//! silently wrong replica state.
//!
//! [`CoordinatorDb::prune_retired`]: crate::CoordinatorDb::prune_retired

use rpcv_wire::{from_bytes, open_frame, seal_frame, to_bytes, wire_record, WireError};
use rpcv_xw::{ClientKey, CoordId};

use crate::delta::DeltaRow;

/// A complete, versioned image of one coordinator's live state.
///
/// Produced by [`CoordinatorDb::snapshot`], applied by
/// [`CoordinatorDb::apply_snapshot`]; the receiver acknowledges
/// `version` and tails the regular delta feed from there.
///
/// [`CoordinatorDb::snapshot`]: crate::CoordinatorDb::snapshot
/// [`CoordinatorDb::apply_snapshot`]: crate::CoordinatorDb::apply_snapshot
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Sender.
    pub from: CoordId,
    /// Sender's change-index version at capture: the tail-from point.
    pub version: u64,
    /// Per-client retired watermarks: every seq `1..=w` was delivered
    /// (client durably collected the result) and its rows pruned.  The
    /// receiver treats these as collected knowledge without ever holding
    /// a row for them.
    pub retired: Vec<(ClientKey, u64)>,
    /// Every live row, in the sender's version order (a job row precedes
    /// the task/collected/ckpt rows that reference it) — the same typed
    /// rows a delta carries.
    pub rows: Vec<DeltaRow>,
}

impl Snapshot {
    /// True when the image carries no rows and no retired knowledge.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.retired.is_empty()
    }

    /// Number of live rows carried.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Encodes and seals the image: `body ‖ crc64(body)`, ready to be
    /// chunked onto the wire.
    pub fn seal(&self) -> Vec<u8> {
        seal_frame(to_bytes(self))
    }

    /// Verifies and decodes a frame produced by [`Self::seal`].  Any
    /// corruption — in the body or the digest tail — is a typed error.
    pub fn open(frame: &[u8]) -> Result<Snapshot, WireError> {
        from_bytes(open_frame(frame)?)
    }
}

wire_record!(Snapshot { from, version, retired, rows });

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_wire::{Blob, WireEncode};
    use rpcv_xw::{JobKey, JobSpec};

    fn snap() -> Snapshot {
        let client = ClientKey::new(1, 1);
        Snapshot {
            from: CoordId(2),
            version: 41,
            retired: vec![(client, 7), (ClientKey::new(2, 1), 3)],
            rows: vec![
                DeltaRow::Job(JobSpec::new(
                    JobKey::new(client, 8),
                    "svc",
                    Blob::synthetic(4096, 3),
                )),
                DeltaRow::Mark { client, mark: 8 },
                DeltaRow::Collected { job: JobKey::new(client, 8) },
                DeltaRow::Ckpt {
                    job: JobKey::new(client, 8),
                    unit_hw: 5,
                    blob: Blob::synthetic(1000, 9),
                },
            ],
        }
    }

    #[test]
    fn seal_open_roundtrip() {
        let s = snap();
        let back = Snapshot::open(&s.seal()).unwrap();
        assert_eq!(back, s);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let mut frame = snap().seal();
        let mid = frame.len() / 2;
        frame[mid] ^= 0x40;
        assert!(matches!(Snapshot::open(&frame), Err(WireError::DigestMismatch { .. })));
    }

    #[test]
    fn truncation_rejected() {
        let frame = snap().seal();
        assert!(Snapshot::open(&frame[..frame.len() - 1]).is_err());
        assert!(Snapshot::open(&frame[..4]).is_err());
    }

    #[test]
    fn transfer_charges_synthetic_payloads() {
        let s = snap();
        // Golden bytes: a field swapped in both directions still round-trips.
        // The charge is the 51 B frame + 4096 B params + 1000 B ckpt state.
        let bytes = to_bytes(&s);
        assert_eq!(
            (bytes.len(), rpcv_wire::crc64(&bytes), s.transfer_len()),
            (51, 0xff2d_fdcb_2eaa_f4b3, 5147)
        );
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let s = Snapshot { from: CoordId(1), version: 0, ..Default::default() };
        assert!(s.is_empty());
        assert_eq!(Snapshot::open(&s.seal()).unwrap(), s);
    }
}
