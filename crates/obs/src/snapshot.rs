//! The telemetry bag: filled by name, published as bytes.
//!
//! A [`TelemetrySnapshot`] holds counters, gauges and [`Histogram`]s keyed
//! by dotted names (`coord.reexecutions`, `db.pending`,
//! `span.submit_to_collect`, …) in `BTreeMap`s, so every traversal — the
//! stable JSON for humans and tooling, the wire codec plus a CRC-64 seal
//! for `Msg::StatusReply` frames — is byte-stable: two same-seed runs
//! produce byte-identical snapshots.  Actors keep their typed metrics
//! structs and pour them in on demand ([`TelemetrySnapshot::add_counters`]
//! over the struct's `counters()`); nothing in the hot path allocates or
//! hashes a string.

use std::collections::BTreeMap;

use rpcv_wire::{
    from_bytes, open_frame, seal_frame, to_bytes, Reader, WireDecode, WireEncode, WireError,
    WireWrite,
};

use crate::hist::Histogram;

/// A deterministic bag of named counters, gauges and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Latency histograms by name.
    pub hists: BTreeMap<String, Histogram>,
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl TelemetrySnapshot {
    /// Empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to counter `name` (creating it at zero).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += v;
        } else {
            self.counters.insert(name.to_owned(), v);
        }
    }

    /// Adds every `(field, value)` of a typed counter struct's `counters()`
    /// as `"{prefix}.{field}"`: one actor's export on a fresh bag, the
    /// fleet-wide sum when poured from many.
    pub fn add_counters<'a>(
        &mut self,
        prefix: &str,
        counters: impl IntoIterator<Item = (&'a str, u64)>,
    ) {
        for (field, v) in counters {
            self.add_counter(&format!("{prefix}.{field}"), v);
        }
    }

    /// Sets gauge `name` to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &str, v: i64) {
        self.gauges.insert(name.to_owned(), v);
    }

    /// The histogram registered under `name`, created empty on first use.
    pub fn hist_mut(&mut self, name: &str) -> &mut Histogram {
        self.hists.entry(name.to_owned()).or_default()
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// The histogram under `name`, if any.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Folds every entry of `other` into this bag: counters add, gauges
    /// take `other`'s value, histograms merge (how per-coordinator
    /// snapshots aggregate into a shard- or grid-wide view).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (k, v) in &other.counters {
            self.add_counter(k, *v);
        }
        for (k, v) in &other.gauges {
            self.set_gauge(k, *v);
        }
        for (k, h) in &other.hists {
            self.hist_mut(k).merge(h);
        }
    }

    /// Stable JSON rendering: keys sorted, integers only, no whitespace
    /// dependence on platform.  Histograms render their count, sum and
    /// deterministic p50/p99 (nanoseconds) plus the non-zero buckets as
    /// `[index, occupancy]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_str(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_str(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_str(&mut out, k);
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"buckets\": [",
                h.count(),
                h.sum_nanos(),
                h.p50_nanos(),
                h.p99_nanos()
            ));
            for (j, (b, n)) in h.nonzero().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{b}, {n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Encodes and seals the snapshot into a CRC-64 framed byte vector
    /// (the payload of a `Msg::StatusReply`).
    pub fn seal(&self) -> Vec<u8> {
        seal_frame(to_bytes(self))
    }

    /// Verifies the CRC-64 seal and decodes a snapshot from `frame`.
    pub fn open(frame: &[u8]) -> Result<TelemetrySnapshot, WireError> {
        from_bytes(open_frame(frame)?)
    }
}

fn encode_section<V: WireEncode, W: WireWrite + ?Sized>(section: &BTreeMap<String, V>, w: &mut W) {
    w.put_uvarint(section.len() as u64);
    for (k, v) in section {
        w.put_str(k);
        v.encode(w);
    }
}

/// Strict on purpose: keys must arrive strictly ascending.  A plain
/// `insert` would silently canonicalise an unsorted or duplicate key and
/// break `to_bytes(from_bytes(b)) == b`.
fn decode_section<V: WireDecode>(r: &mut Reader<'_>) -> Result<BTreeMap<String, V>, WireError> {
    let mut section = BTreeMap::new();
    for _ in 0..r.get_seq_len()? {
        let k = r.get_string()?;
        if section.last_key_value().is_some_and(|(last, _)| *last >= k) {
            return Err(WireError::InvalidTag { ty: "TelemetrySnapshot order", tag: 0 });
        }
        section.insert(k, V::decode(r)?);
    }
    Ok(section)
}

impl WireEncode for TelemetrySnapshot {
    fn encode<W: WireWrite + ?Sized>(&self, w: &mut W) {
        encode_section(&self.counters, w);
        encode_section(&self.gauges, w);
        encode_section(&self.hists, w);
    }
}

impl WireDecode for TelemetrySnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TelemetrySnapshot {
            counters: decode_section(r)?,
            gauges: decode_section(r)?,
            hists: decode_section(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_simnet::SimDuration;

    fn sample() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new();
        snap.add_counter("coord.reexecutions", 3);
        snap.add_counter("db.jobs", 41);
        snap.set_gauge("db.pending", 5);
        snap.hist_mut("span.submit_to_collect").record_gap(SimDuration::from_millis(120));
        snap.hist_mut("span.submit_to_collect").record_gap(SimDuration::from_millis(340));
        snap
    }

    #[test]
    fn counters_add_and_gauges_overwrite() {
        let mut snap = TelemetrySnapshot::new();
        snap.add_counter("a.x", 2);
        snap.add_counters("a", [("x", 3), ("y", 1)]);
        snap.set_gauge("a.g", -4);
        snap.set_gauge("a.g", 9);
        assert_eq!((snap.counter("a.x"), snap.counter("a.y")), (5, 1));
        assert_eq!(snap.gauge("a.g"), Some(9));
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn merge_combines_all_kinds() {
        let mut a = TelemetrySnapshot::new();
        let mut b = TelemetrySnapshot::new();
        a.add_counter("n", 1);
        b.add_counter("n", 2);
        b.hist_mut("h").record_gap(SimDuration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.hist("h").unwrap().count(), 1);
    }

    #[test]
    fn json_is_stable_and_sorted() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"coord.reexecutions\": 3"));
        assert!(a.find("coord.reexecutions").unwrap() < a.find("db.jobs").unwrap());
        assert!(a.contains("\"p50_ns\""));
    }

    #[test]
    fn wire_roundtrip_and_seal() {
        let snap = sample();
        let bytes = to_bytes(&snap);
        let back: TelemetrySnapshot = from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);

        let sealed = snap.seal();
        let opened = TelemetrySnapshot::open(&sealed).unwrap();
        assert_eq!(opened, snap);
    }

    #[test]
    fn every_byte_flip_of_a_sealed_snapshot_is_rejected() {
        let sealed = sample().seal();
        for i in 0..sealed.len() {
            for bit in 0..8 {
                let mut m = sealed.clone();
                m[i] ^= 1 << bit;
                assert!(TelemetrySnapshot::open(&m).is_err(), "byte {i} bit {bit} mutant decoded");
            }
        }
    }

    #[test]
    fn decode_rejects_unsorted_keys() {
        // Hand-rolled sections: what the map-backed encoder never writes.
        fn section<V: WireEncode + Clone>(entries: &[(&str, V)]) -> Vec<u8> {
            let raw: Vec<(String, V)> =
                entries.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect();
            to_bytes(&raw)
        }
        let h = Histogram::new();
        let (c0, g0, h0) = (section::<u64>(&[]), section::<i64>(&[]), section::<Histogram>(&[]));
        let accepted = [
            [
                section(&[("a", 1u64), ("b", 2)]),
                section(&[("a", -1i64), ("b", 2)]),
                section(&[("a", h.clone()), ("b", h.clone())]),
            ]
            .concat(),
            [c0.clone(), g0.clone(), h0.clone()].concat(),
            to_bytes(&sample()),
        ];
        for bytes in &accepted {
            let snap: TelemetrySnapshot = from_bytes(bytes).expect("ascending keys decode");
            assert_eq!(&to_bytes(&snap), bytes, "every accepted frame re-encodes identically");
        }
        for (x, y) in [("b", "a"), ("a", "a")] {
            let refused = [
                [section(&[(x, 1u64), (y, 2)]), g0.clone(), h0.clone()].concat(),
                [c0.clone(), section(&[(x, 1i64), (y, 2)]), h0.clone()].concat(),
                [c0.clone(), g0.clone(), section(&[(x, h.clone()), (y, h.clone())])].concat(),
            ];
            for (i, bytes) in refused.iter().enumerate() {
                assert!(
                    from_bytes::<TelemetrySnapshot>(bytes).is_err(),
                    "keys {x:?} then {y:?} in section {i} must be refused"
                );
            }
        }
    }
}
