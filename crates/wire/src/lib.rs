//! # rpcv-wire — binary marshalling substrate
//!
//! The RPC-V paper (§2.1) considers the "classical data transmission" mode
//! where "arguments/result are marshaled into a serialization format".  This
//! crate is that serialization format, built from scratch so the whole
//! marshalling path is part of the system under study (no `serde`).
//!
//! Contents:
//!
//! * [`varint`] — unsigned LEB128 and zig-zag signed varints;
//! * [`codec`] — [`WireWrite`]/[`Reader`] primitives and the
//!   [`WireEncode`]/[`WireDecode`] traits with implementations for the
//!   standard types used by the protocol;
//! * [`blob`] — [`Blob`], a payload that is either real bytes (`Inline`) or a
//!   *modelled* payload (`Synthetic { len, seed }`).  Synthetic blobs let the
//!   discrete-event simulator move 100 MB RPC parameters (Fig. 4 of the
//!   paper sweeps parameter sizes up to 100 MB) without allocating them,
//!   while still being materializable to deterministic bytes for the real
//!   threaded runtime;
//! * [`record`] — [`wire_record!`] and [`wire_enum!`]: one field list per
//!   record, both codec directions derived from it;
//! * [`digest`] — CRC-64 (ECMA/XZ polynomial) and the splitmix64 mixer used
//!   for deterministic seed derivation;
//! * [`frame`] — digest-sealed frames: the shared CRC-64 verification
//!   helper used by result archives and task checkpoints alike.
//!
//! ## Example
//!
//! ```
//! use rpcv_wire::{from_bytes, to_bytes, wire_record, Blob, WireEncode};
//!
//! #[derive(Debug, PartialEq)]
//! struct Call { seq: u64, service: String, params: Blob }
//!
//! // The field list, in wire order, is the format — in both directions.
//! wire_record!(Call { seq, service, params });
//!
//! let call = Call { seq: 7, service: "netsim/eval".into(), params: Blob::synthetic(1 << 20, 3) };
//! let bytes = to_bytes(&call);
//! assert_eq!(from_bytes::<Call>(&bytes).unwrap(), call);
//! // The frame is a few bytes; the transfer is charged the payload it stands for.
//! assert_eq!(call.encoded_len(), bytes.len() as u64);
//! assert_eq!(call.transfer_len(), bytes.len() as u64 + (1 << 20));
//! ```

#![warn(missing_docs)]

pub mod blob;
pub mod codec;
pub mod digest;
pub mod error;
pub mod frame;
pub mod record;
pub mod varint;

pub use blob::Blob;
pub use codec::{
    from_bytes, to_bytes, Reader, SizeWriter, WireDecode, WireEncode, WireWrite, Writer,
};
pub use digest::{crc64, mix64, Crc64};
pub use error::WireError;
pub use frame::{open_frame, seal_frame, verify_digest};
