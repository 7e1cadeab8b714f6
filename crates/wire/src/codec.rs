//! Encoding/decoding primitives and the [`WireEncode`]/[`WireDecode`] traits.

use crate::error::WireError;
use crate::varint;

/// Sanity cap on any length prefix (strings, byte arrays, sequences).
///
/// Real RPC-V payloads go through [`crate::Blob`] which is exempt from this
/// cap (Fig. 4 sweeps parameters up to 100 MB and beyond); control-plane
/// collections larger than this indicate corruption.
pub const MAX_SEQ_LEN: u64 = 64 * 1024 * 1024;

/// Destination of an encoding pass.
///
/// Two implementations exist: [`Writer`] produces real bytes, and
/// [`SizeWriter`] only counts them.  The discrete-event simulator uses the
/// latter to obtain exact wire sizes of messages carrying multi-megabyte
/// synthetic payloads without generating them.
pub trait WireWrite {
    /// Appends raw bytes.
    fn put_raw(&mut self, bytes: &[u8]);

    /// Appends `len` deterministically generated bytes seeded by `seed`.
    ///
    /// The default implementation really generates them (in chunks);
    /// [`SizeWriter`] overrides it to merely count.
    fn put_synthetic(&mut self, len: u64, seed: u64) {
        let mut remaining = len;
        // Pre-mix the seed so adjacent seeds produce unrelated streams
        // (`| 1` alone would make seeds 2k and 2k+1 collide), and keep the
        // low bit set so the xorshift state is never zero.
        let mut state = (seed ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9) | 1;
        let mut chunk = [0u8; 8192];
        while remaining > 0 {
            let n = remaining.min(chunk.len() as u64) as usize;
            let mut i = 0;
            while i < n {
                // xorshift64* stream
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let word = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                let bytes = word.to_le_bytes();
                let take = (n - i).min(8);
                chunk[i..i + take].copy_from_slice(&bytes[..take]);
                i += take;
            }
            self.put_raw(&chunk[..n]);
            remaining -= n as u64;
        }
    }

    /// Notes that the frame stands for `len` payload bytes it does not
    /// carry (a synthetic [`crate::Blob`]).  Only a meter cares:
    /// [`SizeWriter`] accumulates them, every other writer ignores them.
    fn modelled(&mut self, _len: u64) {}

    /// Appends a single byte.
    fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    /// Appends an unsigned LEB128 varint (allocation-free: stack-encoded).
    fn put_uvarint(&mut self, v: u64) {
        let (buf, n) = varint::encode_uvarint(v);
        self.put_raw(&buf[..n]);
    }

    /// Appends a zig-zag signed varint.
    fn put_ivarint(&mut self, v: i64) {
        self.put_uvarint(varint::zigzag(v));
    }

    /// Appends an IEEE-754 double as 8 little-endian bytes.
    fn put_f64(&mut self, v: f64) {
        self.put_raw(&v.to_bits().to_le_bytes());
    }

    /// Appends a boolean as one byte (0/1).
    fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    fn put_str(&mut self, s: &str) {
        self.put_uvarint(s.len() as u64);
        self.put_raw(s.as_bytes());
    }

    /// Appends a length-prefixed byte array.
    fn put_bytes(&mut self, b: &[u8]) {
        self.put_uvarint(b.len() as u64);
        self.put_raw(b);
    }
}

/// Buffer-backed encoder producing real bytes.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer { buf: Vec::with_capacity(cap) }
    }

    /// Bytes produced so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow of the bytes produced so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

impl WireWrite for Writer {
    fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Counting encoder: measures the encoded size without producing bytes,
/// and — in the same pass — the modelled payload the frame stands for.
#[derive(Debug, Default, Clone, Copy)]
pub struct SizeWriter {
    n: u64,
    modelled: u64,
}

impl SizeWriter {
    /// Fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes that would have been produced.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True if nothing was counted.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Payload bytes the counted frame stands for without carrying them
    /// (the sum of every [`WireWrite::modelled`] note).
    pub fn modelled_len(&self) -> u64 {
        self.modelled
    }
}

impl WireWrite for SizeWriter {
    fn put_raw(&mut self, bytes: &[u8]) {
        self.n += bytes.len() as u64;
    }

    fn put_synthetic(&mut self, len: u64, _seed: u64) {
        self.n += len; // the whole point: O(1) for modelled payloads
    }

    fn modelled(&mut self, len: u64) {
        self.modelled += len;
    }

    fn put_uvarint(&mut self, v: u64) {
        self.n += varint::uvarint_len(v) as u64;
    }
}

/// Borrowing decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails with [`WireError::TrailingBytes`] unless fully consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes { remaining: self.remaining() })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { needed: n, have: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads an unsigned varint.
    pub fn get_uvarint(&mut self) -> Result<u64, WireError> {
        let (v, used) = varint::read_uvarint(&self.buf[self.pos..])?;
        self.pos += used;
        Ok(v)
    }

    /// Reads a zig-zag signed varint.
    pub fn get_ivarint(&mut self) -> Result<i64, WireError> {
        Ok(varint::unzigzag(self.get_uvarint()?))
    }

    /// Reads an IEEE-754 double.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    /// Reads a boolean; any value other than 0/1 is an [`WireError::InvalidTag`].
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag { ty: "bool", tag: tag as u64 }),
        }
    }

    /// Reads a length-prefixed byte slice (borrowed from the input).
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_uvarint()?;
        if len > MAX_SEQ_LEN {
            return Err(WireError::LengthOverflow { len, max: MAX_SEQ_LEN });
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string slice.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads a length-prefixed owned `String`.
    pub fn get_string(&mut self) -> Result<String, WireError> {
        Ok(self.get_str()?.to_owned())
    }

    /// Reads a sequence length prefix, validating it against [`MAX_SEQ_LEN`].
    pub fn get_seq_len(&mut self) -> Result<usize, WireError> {
        let len = self.get_uvarint()?;
        if len > MAX_SEQ_LEN {
            return Err(WireError::LengthOverflow { len, max: MAX_SEQ_LEN });
        }
        Ok(len as usize)
    }
}

/// Types that can marshal themselves onto a [`WireWrite`].
pub trait WireEncode {
    /// Writes the value.
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W);

    /// Exact number of bytes [`Self::encode`] produces.
    ///
    /// The default implementation runs `encode` against a [`SizeWriter`];
    /// thanks to `put_synthetic` this is O(structure) even for modelled
    /// multi-megabyte payloads.
    fn encoded_len(&self) -> u64 {
        let mut s = SizeWriter::new();
        self.encode(&mut s);
        s.len()
    }

    /// Bytes a transfer of this value is charged: the frame plus the
    /// modelled payloads it stands for (synthetic blobs travel as a few
    /// bytes, but the network moves their full length).  One counting
    /// pass yields both terms, so no record keeps a second walk over its
    /// blobs that could disagree with its encoder.
    fn transfer_len(&self) -> u64 {
        let mut s = SizeWriter::new();
        self.encode(&mut s);
        s.len() + s.modelled_len()
    }
}

/// Types that can unmarshal themselves from a [`Reader`].
pub trait WireDecode: Sized {
    /// Reads the value.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes `v` into a fresh byte vector.
pub fn to_bytes<T: WireEncode + ?Sized>(v: &T) -> Vec<u8> {
    let mut w = Writer::new();
    v.encode(&mut w);
    w.into_vec()
}

/// Decodes a `T` from `buf`, requiring full consumption.
pub fn from_bytes<T: WireDecode>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(buf);
    let v = T::decode(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

// --- blanket / standard implementations -----------------------------------

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl WireEncode for $t {
            fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
                w.put_uvarint(*self as u64);
            }
        }
        impl WireDecode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let v = r.get_uvarint()?;
                <$t>::try_from(v).map_err(|_| WireError::LengthOverflow {
                    len: v,
                    max: <$t>::MAX as u64,
                })
            }
        }
    )*};
}
impl_uint!(u8, u32, u64);

impl WireEncode for i64 {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_ivarint(*self);
    }
}
impl WireDecode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_ivarint()
    }
}

impl WireEncode for bool {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_bool(*self);
    }
}
impl WireDecode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_bool()
    }
}

impl WireEncode for f64 {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_f64(*self);
    }
}
impl WireDecode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_f64()
    }
}

impl WireEncode for String {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_str(self);
    }
}
impl WireDecode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_string()
    }
}

impl WireEncode for str {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_str(self);
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_uvarint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
}
impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_seq_len()?;
        // Defensive preallocation: cap the upfront reservation so a corrupt
        // length prefix cannot OOM before element decoding fails naturally.
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}
impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::InvalidTag { ty: "Option", tag: tag as u64 }),
        }
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        self.0.encode(w);
        self.1.encode(w);
    }
}
impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(bytes.len() as u64, v.encoded_len(), "encoded_len mismatch");
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(-1i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let bytes = to_bytes(&f64::NAN);
        let back: f64 = from_bytes(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip((1u8, String::from("x")));
        roundtrip(vec![Some((1u64, String::from("a"))), None]);
    }

    #[test]
    fn narrowing_decode_fails() {
        let bytes = to_bytes(&300u64);
        assert!(matches!(from_bytes::<u8>(&bytes), Err(WireError::LengthOverflow { .. })));
    }

    #[test]
    fn invalid_bool_tag() {
        assert!(matches!(from_bytes::<bool>(&[7]), Err(WireError::InvalidTag { .. })));
    }

    #[test]
    fn invalid_option_tag() {
        assert!(matches!(from_bytes::<Option<u8>>(&[9]), Err(WireError::InvalidTag { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&5u8);
        bytes.push(0);
        assert!(matches!(from_bytes::<u8>(&bytes), Err(WireError::TrailingBytes { .. })));
    }

    #[test]
    fn corrupt_seq_len_rejected_without_oom() {
        // Declared length of u64::MAX must fail fast.
        let mut w = Writer::new();
        w.put_uvarint(u64::MAX);
        assert!(matches!(
            from_bytes::<Vec<u8>>(&w.into_vec()),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        assert_eq!(from_bytes::<String>(&w.into_vec()), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn size_writer_counts_synthetic_without_generating() {
        let mut s = SizeWriter::new();
        s.put_synthetic(100 * 1024 * 1024 * 1024, 42); // 100 GiB — must be O(1)
        assert_eq!(s.len(), 100 * 1024 * 1024 * 1024);
    }

    #[test]
    fn writer_and_size_writer_agree_on_synthetic() {
        let mut w = Writer::new();
        w.put_synthetic(10_000, 7);
        let mut s = SizeWriter::new();
        s.put_synthetic(10_000, 7);
        assert_eq!(w.len() as u64, s.len());
    }

    #[test]
    fn synthetic_stream_is_deterministic() {
        let mut a = Writer::new();
        a.put_synthetic(5000, 99);
        let mut b = Writer::new();
        b.put_synthetic(5000, 99);
        assert_eq!(a.as_slice(), b.as_slice());
        let mut c = Writer::new();
        c.put_synthetic(5000, 100);
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn reader_expect_end() {
        let bytes = to_bytes(&7u8);
        let mut r = Reader::new(&bytes);
        let _ = r.get_u8().unwrap();
        assert!(r.expect_end().is_ok());
    }
}
