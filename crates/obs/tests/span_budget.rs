//! The span book's memory gate: heap bytes a [`SpanBook`] holds per span.
//!
//! A coordinator keeps a span for every job it ever registered or
//! replicated, so a span's bytes are paid once per lifetime job.  This
//! test fills a book under a counting global allocator and holds the live
//! bytes per span (blocks allocated, minus blocks freed, plus every
//! `realloc`'s size delta — requested sizes, not the allocator's size
//! classes) under ceilings.  The book is deterministic, so the readings
//! repeat exactly on any machine.
//!
//! - *Dense:* 4 clients × 10 000 spans of six marks, the primary's shape.
//!   Measured 109 B per span when pinned (one window slot — the span and
//!   its key — plus a word per mark); the ceiling is that + 10 %.  The
//!   ordered map of spans with doubling mark vectors before it read 265.
//! - *Sparse:* one mark on every third seq, the shape a replica holds
//!   (`ReplArchives` stamps `ArchiveStored` only), where a window pays
//!   for its vacant slots.  Measured 192 B per span; the ceiling is the
//!   ordered map's 201, so the window layout may not cost a sparse book
//!   more than the map did.
//!
//! One test only: the counter is per-thread, so both cases run on one.

use rpcv_obs::{SpanBook, SpanEdge};
use rpcv_simnet::SimTime;
use rpcv_xw::{ClientKey, JobKey};

#[path = "../../../tests/support/meter.rs"]
mod meter;

#[global_allocator]
static ALLOCATOR: meter::Meter = meter::Meter;

const MAX_DENSE_BYTES_PER_SPAN: f64 = 120.0;
const MAX_SPARSE_BYTES_PER_SPAN: f64 = 201.0;

const CLIENTS: u64 = 4;

/// Live bytes per span of the book `fill` writes.
fn bytes_per_span(fill: impl FnOnce(&mut SpanBook)) -> f64 {
    meter::start();
    let mut book = SpanBook::new();
    fill(&mut book);
    meter::stop();
    meter::live() as f64 / book.len() as f64
}

/// Client `c`'s job `seq`.
fn key(c: u64, seq: u64) -> JobKey {
    JobKey::new(ClientKey::new(c, 1), seq)
}

#[test]
fn span_book_bytes_per_span_stay_within_budget() {
    let six = [
        SpanEdge::Submitted,
        SpanEdge::Dispatched,
        SpanEdge::FirstUnit,
        SpanEdge::Finished,
        SpanEdge::ArchiveStored,
        SpanEdge::Collected,
    ];
    let dense = bytes_per_span(|book| {
        for seq in 1..=10_000 {
            for c in 1..=CLIENTS {
                for (i, &edge) in six.iter().enumerate() {
                    book.mark(key(c, seq), edge, SimTime::from_millis(seq * 10 + i as u64));
                }
            }
        }
        assert_eq!(book.len() as u64, CLIENTS * 10_000);
    });
    let sparse = bytes_per_span(|book| {
        for seq in (3..=30_000).step_by(3) {
            for c in 1..=CLIENTS {
                book.mark(key(c, seq), SpanEdge::ArchiveStored, SimTime::from_millis(seq));
            }
        }
        assert_eq!(book.len() as u64, CLIENTS * 10_000);
    });
    println!("span budget: {dense:.0} B per dense span, {sparse:.0} B per sparse span");
    assert!(
        dense <= MAX_DENSE_BYTES_PER_SPAN,
        "{dense:.0} live bytes per six-mark span exceeds the {MAX_DENSE_BYTES_PER_SPAN} budget"
    );
    assert!(
        sparse <= MAX_SPARSE_BYTES_PER_SPAN,
        "{sparse:.0} live bytes per one-mark span exceeds the {MAX_SPARSE_BYTES_PER_SPAN} budget"
    );
}
