//! LEB128 unsigned varints and zig-zag signed varints.
//!
//! Varints keep the control parts of RPC-V messages small: the protocol is
//! connection-less (paper §2.2) and heartbeat-style messages are exchanged
//! constantly, so fixed 8-byte integers would dominate small frames.

use crate::error::WireError;

/// Maximum encoded size of a 64-bit varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Encodes `v` in LEB128 (7 bits per byte, MSB = continuation) into a
/// stack array; returns the buffer and encoded length.
#[inline]
pub fn encode_uvarint(mut v: u64) -> ([u8; MAX_VARINT_LEN], usize) {
    let mut buf = [0u8; MAX_VARINT_LEN];
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = byte;
            return (buf, n + 1);
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
}

/// Number of bytes [`encode_uvarint`] produces for `v`.
#[inline]
pub fn uvarint_len(v: u64) -> usize {
    // 1 + floor(bits/7); bits==0 still takes one byte.
    let bits = 64 - v.leading_zeros() as usize;
    std::cmp::max(1, bits.div_ceil(7))
}

/// Decodes a LEB128 varint from the front of `buf`.
///
/// Returns the value and the number of bytes consumed.
pub fn read_uvarint(buf: &[u8]) -> Result<(u64, usize), WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(WireError::VarintOverflow);
        }
        let payload = (byte & 0x7f) as u64;
        // The 10th byte may only contribute the final bit of a 64-bit value.
        if shift == 63 && payload > 1 {
            return Err(WireError::VarintOverflow);
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(WireError::UnexpectedEof { needed: buf.len() + 1, have: buf.len() })
}

/// Zig-zag maps signed integers to unsigned so small magnitudes stay short.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The growable-buffer LEB128 encoder: the reference
    /// [`encode_uvarint`] is held to.
    fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    #[test]
    fn roundtrip_edges() {
        for v in [0u64, 1, 0x7f, 0x80, 0x3fff, 0x4000, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            assert_eq!(buf.len(), uvarint_len(v), "len mismatch for {v}");
            let (back, used) = read_uvarint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn stack_encode_matches_vec_encode() {
        for v in [0u64, 1, 0x7f, 0x80, 0x3fff, 0x4000, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let (arr, n) = encode_uvarint(v);
            assert_eq!(&arr[..n], buf.as_slice(), "v={v}");
        }
    }

    #[test]
    fn rejects_overlong() {
        // Eleven continuation bytes can never be a valid 64-bit varint.
        let buf = [0x80u8; 11];
        assert_eq!(read_uvarint(&buf), Err(WireError::VarintOverflow));
    }

    #[test]
    fn rejects_overflow_in_tenth_byte() {
        // 9 continuation bytes then a tenth byte with more than the last bit.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x02);
        assert_eq!(read_uvarint(&buf), Err(WireError::VarintOverflow));
    }

    #[test]
    fn truncated_is_eof() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, u64::MAX);
        buf.pop();
        assert!(matches!(read_uvarint(&buf), Err(WireError::UnexpectedEof { .. })));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123456789, 123456789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes must encode to small values.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn uvarint_len_matches_actual_for_all_boundaries() {
        for bits in 0..64 {
            for v in [1u64 << bits, (1u64 << bits) - 1, (1u64 << bits) + 1] {
                let mut buf = Vec::new();
                write_uvarint(&mut buf, v);
                assert_eq!(buf.len(), uvarint_len(v), "v={v}");
            }
        }
    }
}
