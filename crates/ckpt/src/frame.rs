//! The checkpoint wire frame.
//!
//! A server ships each checkpoint to its coordinator as a self-describing,
//! CRC-64-verified blob: identity (job, task instance, attempt), the unit
//! high-water mark it certifies, the declared total, and the opaque state
//! the successor needs to resume.  Desktop-grid nodes are weakly
//! controlled and the blob crosses the Internet, so the digest is not
//! optional — a frame that fails [`CheckpointFrame::verify`] is rejected
//! with the typed [`rpcv_wire::WireError::DigestMismatch`], never silently
//! dropped (the coordinator counts rejections).

use rpcv_wire::varint::uvarint_len;
use rpcv_wire::{to_bytes, verify_digest, wire_record, Blob, WireError};
use rpcv_xw::{JobKey, TaskId};

/// One checkpoint as shipped server → coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFrame {
    /// The job whose progress this certifies (resume points are per job:
    /// any successor instance of it may use them).
    pub job: JobKey,
    /// The instance that produced the snapshot (observability).
    pub task: TaskId,
    /// That instance's attempt number.
    pub attempt: u32,
    /// Units completed and durable: a resumed execution starts here.
    pub unit_hw: u32,
    /// The task's declared total, so a receiver can sanity-bound `unit_hw`.
    pub units_total: u32,
    /// Opaque resume state (modelled or real bytes).
    pub blob: Blob,
    /// CRC-64 over the encoded body (everything above) — computed by
    /// [`CheckpointFrame::seal`], checked by [`CheckpointFrame::verify`]
    /// through the shared `rpcv_wire` digest helper.
    pub digest: u64,
}

impl CheckpointFrame {
    /// Builds a frame and seals it with the body digest.
    pub fn seal(
        job: JobKey,
        task: TaskId,
        attempt: u32,
        unit_hw: u32,
        units_total: u32,
        blob: Blob,
    ) -> Self {
        let mut f = CheckpointFrame { job, task, attempt, unit_hw, units_total, blob, digest: 0 };
        f.digest = rpcv_wire::crc64(&f.body());
        f
    }

    /// The canonical body encoding: the frame minus its trailing digest
    /// field (the one thing the digest cannot cover).
    fn body(&self) -> Vec<u8> {
        let mut bytes = to_bytes(self);
        bytes.truncate(bytes.len() - uvarint_len(self.digest));
        bytes
    }

    /// Re-derives the body digest and compares it to the declared one —
    /// the receiver-side integrity gate, built on the shared
    /// [`rpcv_wire::verify_digest`] helper (same discipline as result
    /// archives).  Also rejects a high-water mark past the declared total
    /// (a frame that passed CRC but lies about progress).
    pub fn verify(&self) -> Result<(), WireError> {
        verify_digest(&self.body(), self.digest)?;
        if self.unit_hw > self.units_total {
            return Err(WireError::LengthOverflow {
                len: self.unit_hw as u64,
                max: self.units_total as u64,
            });
        }
        Ok(())
    }
}

wire_record!(CheckpointFrame { job, task, attempt, unit_hw, units_total, blob, digest });

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_wire::{from_bytes, WireEncode};
    use rpcv_xw::{ClientKey, CoordId};

    fn frame() -> CheckpointFrame {
        CheckpointFrame::seal(
            JobKey::new(ClientKey::new(1, 1), 7),
            TaskId::compose(CoordId(2), 9),
            1,
            24,
            60,
            Blob::synthetic(4096, 42),
        )
    }

    #[test]
    fn sealed_frame_verifies_and_roundtrips() {
        let f = frame();
        assert!(f.verify().is_ok());
        let back: CheckpointFrame = from_bytes(&to_bytes(&f)).unwrap();
        assert_eq!(back, f);
        assert!(back.verify().is_ok());
    }

    #[test]
    fn tampered_progress_is_a_typed_error() {
        let mut f = frame();
        f.unit_hw = 59; // claim more progress than was sealed
        assert!(matches!(f.verify(), Err(WireError::DigestMismatch { .. })));
    }

    #[test]
    fn tampered_blob_is_detected() {
        let mut f = frame();
        f.blob = Blob::synthetic(4096, 43);
        assert!(matches!(f.verify(), Err(WireError::DigestMismatch { .. })));
    }

    #[test]
    fn overclaimed_high_water_mark_rejected() {
        // Seal with hw > total: the CRC is internally consistent, so only
        // the range check can catch the lie.
        let f = CheckpointFrame::seal(
            JobKey::new(ClientKey::new(1, 1), 1),
            TaskId::compose(CoordId(1), 1),
            0,
            61,
            60,
            Blob::empty(),
        );
        assert!(matches!(f.verify(), Err(WireError::LengthOverflow { len: 61, max: 60 })));
    }

    #[test]
    fn transfer_charges_synthetic_state() {
        let f = frame();
        // Golden bytes: a field swapped in both directions still round-trips.
        // The charge is the 27 B frame + the 4096 B of modelled state.
        let bytes = to_bytes(&f);
        assert_eq!(
            (bytes.len(), rpcv_wire::crc64(&bytes), f.transfer_len()),
            (27, 0x2e7f_59dd_968c_6d34, 4123)
        );
    }
}
