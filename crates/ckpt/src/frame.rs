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

use rpcv_wire::{
    verify_digest, Blob, Reader, SizeWriter, WireDecode, WireEncode, WireError, WireWrite, Writer,
};
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
        f.digest = f.body_digest();
        f
    }

    /// CRC-64 over the canonical body encoding (the digest field excluded).
    fn body_digest(&self) -> u64 {
        let mut w = Writer::new();
        self.encode_body(&mut w);
        rpcv_wire::crc64(w.as_slice())
    }

    fn encode_body<W: WireWrite + ?Sized>(&self, w: &mut W) {
        self.job.encode(w);
        self.task.encode(w);
        w.put_uvarint(self.attempt as u64);
        w.put_uvarint(self.unit_hw as u64);
        w.put_uvarint(self.units_total as u64);
        self.blob.encode(w);
    }

    /// Re-derives the body digest and compares it to the declared one —
    /// the receiver-side integrity gate, built on the shared
    /// [`rpcv_wire::verify_digest`] helper (same discipline as result
    /// archives).  Also rejects a high-water mark past the declared total
    /// (a frame that passed CRC but lies about progress).
    pub fn verify(&self) -> Result<(), WireError> {
        let mut w = Writer::new();
        self.encode_body(&mut w);
        verify_digest(w.as_slice(), self.digest)?;
        if self.unit_hw > self.units_total {
            return Err(WireError::LengthOverflow {
                len: self.unit_hw as u64,
                max: self.units_total as u64,
            });
        }
        Ok(())
    }

    /// Modelled transfer size: frame bytes plus the synthetic-blob payload
    /// (the network must charge the full state size even when the blob is
    /// modelled).
    pub fn transfer_bytes(&self) -> u64 {
        let mut w = SizeWriter::default();
        self.encode(&mut w);
        let extra = if self.blob.is_synthetic() { self.blob.len() } else { 0 };
        w.len() + extra
    }
}

impl WireEncode for CheckpointFrame {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        self.encode_body(w);
        w.put_uvarint(self.digest);
    }
}

impl WireDecode for CheckpointFrame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CheckpointFrame {
            job: JobKey::decode(r)?,
            task: TaskId::decode(r)?,
            attempt: u32::decode(r)?,
            unit_hw: u32::decode(r)?,
            units_total: u32::decode(r)?,
            blob: Blob::decode(r)?,
            digest: r.get_uvarint()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_wire::{from_bytes, to_bytes};
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
        assert!(f.transfer_bytes() >= 4096, "modelled state must be charged");
        assert!(to_bytes(&f).len() < 64, "the frame itself stays small");
        // Golden bytes: a field swapped in both directions still round-trips.
        let bytes = to_bytes(&f);
        assert_eq!(
            (bytes.len(), rpcv_wire::crc64(&bytes), f.transfer_bytes()),
            (27, 0x2e7f_59dd_968c_6d34, 4123)
        );
    }
}
