//! Fixed-bucket log2 latency histograms over virtual time.
//!
//! Everything in this repo is deterministic, so the histogram is too: buckets
//! are powers of two over nanoseconds, recording is pure integer arithmetic,
//! and two same-seed runs produce byte-identical encodings on any machine.

use rpcv_simnet::{SimDuration, SimTime};
use rpcv_wire::{Reader, WireDecode, WireEncode, WireError, WireWrite};

/// Number of log2 buckets: bucket `b` covers values whose bit length is `b`
/// (bucket 0 holds exactly the value 0, bucket 64 tops out at `u64::MAX`).
pub const BUCKETS: usize = 65;

/// A deterministic log2 histogram over virtual-time nanoseconds.
///
/// `record` takes a [`SimTime`] (an absolute virtual instant, e.g. a job's
/// completion time) and `record_gap` a [`SimDuration`] (an edge-to-edge
/// latency); both fold the underlying nanosecond count into the bucket whose
/// index is the value's bit length.  Quantiles are resolved to the bucket's
/// lower bound, which keeps them integral and byte-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0 }
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `b` in nanoseconds.
    pub fn bucket_floor(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Records a raw nanosecond value.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.buckets[Self::bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(nanos);
    }

    /// Records an absolute virtual instant (its nanosecond offset from t=0).
    pub fn record(&mut self, at: SimTime) {
        self.record_nanos(at.0);
    }

    /// Records an edge-to-edge virtual-time gap.
    pub fn record_gap(&mut self, gap: SimDuration) {
        self.record_nanos(gap.0);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all recorded nanosecond values.
    pub fn sum_nanos(&self) -> u64 {
        self.sum
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Occupancy of bucket `b` (0 when out of range).
    pub fn bucket(&self, b: usize) -> u64 {
        self.buckets.get(b).copied().unwrap_or(0)
    }

    /// Deterministic quantile in nanoseconds, resolved to the lower bound of
    /// the bucket holding the rank-`ceil(q·count)` sample.  Returns 0 on an
    /// empty histogram.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return Self::bucket_floor(b);
            }
        }
        Self::bucket_floor(BUCKETS - 1)
    }

    /// Median, in nanoseconds (bucket lower bound).
    pub fn p50_nanos(&self) -> u64 {
        self.quantile_nanos(0.50)
    }

    /// 99th percentile, in nanoseconds (bucket lower bound).
    pub fn p99_nanos(&self) -> u64 {
        self.quantile_nanos(0.99)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Non-zero buckets as `(index, occupancy)` pairs, ascending by index.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(b, &n)| (b, n))
    }
}

impl WireEncode for Histogram {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_uvarint(self.count);
        w.put_uvarint(self.sum);
        let nz = self.nonzero().count() as u64;
        w.put_uvarint(nz);
        for (b, n) in self.nonzero() {
            w.put_u8(b as u8);
            w.put_uvarint(n);
        }
    }
}

impl WireDecode for Histogram {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = r.get_uvarint()?;
        let sum = r.get_uvarint()?;
        let nz = r.get_seq_len()?;
        if nz > BUCKETS {
            return Err(WireError::LengthOverflow { len: nz as u64, max: BUCKETS as u64 });
        }
        let mut h = Histogram { buckets: [0; BUCKETS], count, sum };
        let mut prev: Option<u8> = None;
        let mut total = 0u64;
        for _ in 0..nz {
            let b = r.get_u8()?;
            if b as usize >= BUCKETS || prev.is_some_and(|p| b <= p) {
                return Err(WireError::InvalidTag { ty: "Histogram bucket", tag: b as u64 });
            }
            let n = r.get_uvarint()?;
            if n == 0 {
                return Err(WireError::InvalidTag { ty: "Histogram occupancy", tag: 0 });
            }
            h.buckets[b as usize] = n;
            total = total.saturating_add(n);
            prev = Some(b);
        }
        if total != count {
            return Err(WireError::InvalidTag { ty: "Histogram count", tag: count });
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_wire::{from_bytes, to_bytes};

    #[test]
    fn buckets_are_log2() {
        let mut h = Histogram::new();
        h.record_nanos(0);
        h.record_nanos(1);
        h.record_nanos(2);
        h.record_nanos(3);
        h.record_nanos(1024);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 2);
        assert_eq!(h.bucket(11), 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_nanos(), 1030);
    }

    #[test]
    fn quantiles_resolve_to_bucket_floors() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record_gap(SimDuration::from_millis(1)); // 1e6 ns → bucket 20
        }
        h.record_gap(SimDuration::from_secs(10)); // 1e10 ns → bucket 34
        assert_eq!(h.p50_nanos(), Histogram::bucket_floor(20));
        assert_eq!(h.p99_nanos(), Histogram::bucket_floor(20));
        assert_eq!(h.quantile_nanos(1.0), Histogram::bucket_floor(34));
        assert!(Histogram::new().p99_nanos() == 0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimTime::from_millis(5));
        b.record(SimTime::from_millis(7));
        b.record_nanos(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_nanos(), 12_000_000);
    }

    #[test]
    fn wire_roundtrip_is_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 1 << 40, u64::MAX] {
            h.record_nanos(v);
        }
        let bytes = to_bytes(&h);
        let back: Histogram = from_bytes(&bytes).unwrap();
        assert_eq!(back, h);
        assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn decode_rejects_malformed_buckets() {
        // duplicate / out-of-order bucket indexes must not decode
        let mut h = Histogram::new();
        h.record_nanos(3);
        h.record_nanos(300);
        let mut bytes = to_bytes(&h);
        // locate the two bucket index bytes and swap them out of order
        let n = bytes.len();
        bytes.swap(n - 4, n - 2);
        assert!(from_bytes::<Histogram>(&bytes).is_err());
    }
}
