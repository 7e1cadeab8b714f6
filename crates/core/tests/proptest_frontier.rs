//! Property test for the client's pull frontier: the due-time index must
//! produce exactly the request windows the walk-everything definition
//! does.

use proptest::prelude::*;
use rpcv_core::frontier::{PullFrontier, RetryPolicy};
use rpcv_simnet::{SimDuration, SimTime};

proptest! {
    /// Index/scan equivalence: under arbitrary interleavings of catalog
    /// deltas (new seqs, re-announcements with a *changed* size,
    /// removals), result ingests, epoch resets and clock advances, every
    /// pull's indexed window equals the retained walk element for element
    /// — including the 64-entry cap and the byte budget (sizes reach
    /// 8 MB, so five entries exhaust 32 MB), and however long entries sat
    /// in backoff (up to the capped 2^5 horizon).
    #[test]
    fn pull_frontier_matches_scan(
        ops in proptest::collection::vec((0u8..10, 1u64..200, 0u64..5, 0u64..40_000), 1..120),
    ) {
        // Two-second base, 1 MB/s: an 8 MB entry adds 32 s to its horizon.
        let policy = RetryPolicy { base: SimDuration::from_secs(2), bw: 1e6 };
        let size_of = |class: u64| [0u64, 100, 50_000, 1_000_000, 8_000_000][class as usize];
        let mut f = PullFrontier::new();
        let mut now = SimTime::from_secs(1);
        for (action, seq, class, ms) in ops {
            match action {
                // Catalog delta: a burst of consecutive seqs (bursts are
                // what push a window past the 64-cap), re-announced seqs
                // picking up whatever size this op drew.
                0..=2 => {
                    for s in seq..seq + 1 + ms % 90 {
                        f.announce(s, size_of(class), policy);
                    }
                }
                // Removal (catalog GC) or ingest (result arrived).
                3 => f.remove(seq),
                4 => {
                    for s in seq..seq + ms % 70 {
                        f.remove(s);
                    }
                }
                // Coordinator epoch change: all requests void.
                5 => {
                    if ms % 4 == 0 {
                        f.forget_requests();
                    }
                }
                // Clock advance: from sub-horizon steps to past the cap...
                6 => now += SimDuration::from_millis(ms * (1 + class * class)),
                // ...or by exactly a zero-byte entry's horizon, landing on
                // the boundary (due means *strictly* past it).
                7 => now += policy.base * (2 << class),
                // Pull.
                _ => {
                    let expect = f.window_scan(now, policy);
                    let got = f.window(now, policy);
                    prop_assert_eq!(&got, &expect);
                    prop_assert!(got.len() <= 64);
                    prop_assert!(got.iter().all(|&s| f.contains(s)));
                    // What was just requested is in backoff for both.
                    prop_assert!(f.window_scan(now, policy).iter().all(|s| !got.contains(s)));
                }
            }
        }
        // Final drain: pull at ever later instants until every outstanding
        // entry was requested again — indexed and scan agree at each.
        for _ in 0..8 {
            now += SimDuration::from_secs(100);
            let expect = f.window_scan(now, policy);
            prop_assert_eq!(f.window(now, policy), expect);
        }
    }
}
