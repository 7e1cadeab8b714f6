//! Property test for the client's observation columns: the seq-window
//! columns behind `ClientMetrics::submissions` and `results_received` must
//! read exactly as the ordered maps they replaced, which live here as the
//! reference.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rpcv_core::client::{Receipts, Submissions, SubmitTiming};
use rpcv_simnet::SimTime;

proptest! {
    /// Column/map equivalence: under arbitrary interleavings of recorded
    /// submissions (re-recorded seqs included, as a client whose log lost
    /// a seq to a crash records it again), interaction ends (on recorded
    /// and unrecorded seqs, at instants from zero to the far end of
    /// virtual time) and result arrivals, every `get`, the ascending
    /// iteration and `len` agree after every op.  Seqs are mostly dense,
    /// with a far one now and then (a chunk of its own).
    #[test]
    fn client_columns_match_ordered_maps(
        ops in proptest::collection::vec((0u8..4, 0u64..80, any::<u64>()), 1..160),
    ) {
        let mut subs = Submissions::default();
        let mut subs_ref: BTreeMap<u64, SubmitTiming> = BTreeMap::new();
        let mut recv = Receipts::default();
        let mut recv_ref: BTreeMap<u64, SimTime> = BTreeMap::new();
        for (action, seq, raw) in ops {
            let seq = if raw % 23 == 0 { seq + (raw >> 40) } else { seq };
            // Mostly plausible instants, sometimes the last one a column
            // can hold.
            let at = if raw % 17 == 0 { SimTime(u64::MAX - 2) } else { SimTime(raw >> 20) };
            match action {
                0 => {
                    let t = SubmitTiming { requested_at: at, interaction_end: None };
                    prop_assert_eq!(subs.insert(seq, t), subs_ref.insert(seq, t));
                }
                1 => {
                    subs.end_interaction(seq, at);
                    if let Some(t) = subs_ref.get_mut(&seq) {
                        t.interaction_end = Some(at);
                    }
                }
                2 => prop_assert_eq!(recv.insert(seq, at), recv_ref.insert(seq, at)),
                _ => {
                    prop_assert_eq!(subs.get(&seq), subs_ref.get(&seq).copied());
                    prop_assert_eq!(recv.get(&seq), recv_ref.get(&seq));
                }
            }
            prop_assert_eq!(subs.len(), subs_ref.len());
            prop_assert_eq!(recv.len(), recv_ref.len());
            prop_assert!(subs.iter().eq(subs_ref.iter().map(|(&s, &t)| (s, t))));
            prop_assert!(subs.values().eq(subs_ref.values().copied()));
            prop_assert!(recv.iter().eq(recv_ref.iter()));
            prop_assert!(recv.keys().eq(recv_ref.keys()));
        }
    }
}
