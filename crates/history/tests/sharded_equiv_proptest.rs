//! Differential property test: the sharded [`History`] is observably
//! equivalent to the retired flat layout ([`FlatHistory`], the executable
//! specification) under random insert/purge interleavings — the same
//! pattern as the waiting-list differential of the indexed-drain rewrite.
//!
//! Every operation's return value and every observable (`range`,
//! `advance_stability`, `stable_frontier`, `len`, `len_for`,
//! `highest_seq`, `payload_bytes`, `contains`, `get`) must agree, except
//! `PurgeReport::segments_freed`, which only the segmented layout has.
//!
//! Beyond the mixed interleaving, three cases aim at the layout's edges:
//! out-of-order saves (binary-search inserts ahead of and between live
//! segments), far-ahead sequence numbers up to 2^62 (forged or corrupted
//! frames), and repeated purge-to-empty-then-save cycles (the steady
//! state of a lightly loaded group, where every round drains each origin).

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use proptest::TestCaseError;
use urcgc_history::{FlatHistory, History, StableVector, SEGMENT_SPAN};
use urcgc_types::{DataMsg, Mid, ProcessId, Round, NO_SEQ};

/// Group width of every case.
const N: usize = 3;

/// The far end of the sequence space the far-ahead case reaches.
const FAR: u64 = 1 << 62;

fn msg(p: u16, s: u64) -> Arc<DataMsg> {
    Arc::new(DataMsg {
        mid: Mid::new(ProcessId(p), s),
        deps: vec![],
        round: Round(0),
        // Distinct payload sizes so byte accounting divergence shows up.
        payload: Bytes::from(vec![0u8; (s % 17) as usize]),
    })
}

#[derive(Clone, Debug)]
enum Op {
    /// Save (origin, seq).
    Save(u16, u64),
    /// Advance the whole stability vector.
    Advance(Vec<u64>),
    /// Probe a recovery range (origin, after, upto).
    Range(u16, u64, u64),
}

fn op_strategy(n: u16, max_seq: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n, 1..max_seq + 1).prop_map(|(p, s)| Op::Save(p, s)),
        (0..n, 1..max_seq + 1).prop_map(|(p, s)| Op::Save(p, s.saturating_mul(2))),
        prop::collection::vec(0..max_seq + 1, n as usize).prop_map(Op::Advance),
        (0..n + 1, 0..max_seq + 1, 0..max_seq + 1).prop_map(|(p, a, u)| Op::Range(p, a, u)),
    ]
}

/// A sequence number near the start, just around 2^62, or anywhere up to
/// it — so one case mixes ordinary traffic with far-ahead forgeries.
fn far_seq() -> impl Strategy<Value = u64> {
    prop_oneof![
        1..4 * SEGMENT_SPAN,
        FAR - 2 * SEGMENT_SPAN..FAR + 2 * SEGMENT_SPAN,
        1..FAR + 1,
    ]
}

fn far_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..N as u16, far_seq()).prop_map(|(p, s)| Op::Save(p, s)),
        prop::collection::vec(prop_oneof![0..4 * SEGMENT_SPAN, far_seq()], N).prop_map(Op::Advance),
        (0..N as u16 + 1, far_seq(), far_seq()).prop_map(|(p, a, u)| Op::Range(p, a, u)),
    ]
}

/// Applies `op` to both tables and requires the same answer.
fn apply(op: Op, sharded: &mut History, flat: &mut FlatHistory) -> Result<(), TestCaseError> {
    match op {
        Op::Save(p, s) => {
            let m = msg(p, s);
            prop_assert_eq!(
                sharded.save(Arc::clone(&m)),
                flat.save(m),
                "save(p{}#{})",
                p,
                s
            );
        }
        Op::Advance(stable) => {
            let a = sharded.advance_stability(&StableVector::new(&stable));
            let b = flat.advance_stability(&StableVector::new(&stable));
            prop_assert_eq!(a.messages, b.messages);
            prop_assert_eq!(a.bytes, b.bytes);
            prop_assert_eq!(a.origins_advanced, b.origins_advanced);
        }
        Op::Range(p, after, upto) => {
            let a = sharded.range(ProcessId(p), after, upto);
            let b = flat.range(ProcessId(p), after, upto);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert!(Arc::ptr_eq(x, y) || x.mid == y.mid);
                prop_assert_eq!(x.mid, y.mid);
            }
        }
    }
    Ok(())
}

/// Every cheap observable agrees.
fn observables_agree(sharded: &History, flat: &FlatHistory) -> Result<(), TestCaseError> {
    prop_assert_eq!(sharded.len(), flat.len());
    prop_assert_eq!(sharded.is_empty(), flat.is_empty());
    prop_assert_eq!(sharded.payload_bytes(), flat.payload_bytes());
    for q in 0..N as u16 {
        let q = ProcessId(q);
        prop_assert_eq!(sharded.stable_frontier(q), flat.stable_frontier(q));
        prop_assert_eq!(sharded.len_for(q), flat.len_for(q));
        prop_assert_eq!(sharded.highest_seq(q), flat.highest_seq(q));
    }
    // Out-of-group probes share the same shape too.
    let out = ProcessId(9);
    prop_assert_eq!(sharded.stable_frontier(out), NO_SEQ);
    prop_assert_eq!(sharded.len_for(out), 0);
    Ok(())
}

/// Full-table sweep: identical contents, element by element.
fn contents_agree(sharded: &History, flat: &FlatHistory) -> Result<(), TestCaseError> {
    for q in 0..N as u16 {
        let a = sharded.range(ProcessId(q), NO_SEQ, u64::MAX);
        let b = flat.range(ProcessId(q), NO_SEQ, u64::MAX);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!(Arc::ptr_eq(x, y));
            prop_assert!(sharded.contains(x.mid) && flat.contains(y.mid));
            prop_assert!(sharded.get(x.mid).is_some());
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn sharded_table_matches_flat_specification(
        ops in prop::collection::vec(op_strategy(N as u16, 3 * SEGMENT_SPAN + 7), 1..120)
    ) {
        let mut sharded = History::new(N);
        let mut flat = FlatHistory::new(N);
        for op in ops {
            apply(op, &mut sharded, &mut flat)?;
            observables_agree(&sharded, &flat)?;
        }
        contents_agree(&sharded, &flat)?;
    }

    /// Saves arrive out of order across many segments: first the
    /// odd-indexed segments' messages in ascending order, then the rest
    /// newest-first, then a strided scramble of everything (duplicates).
    /// Nearly every even-indexed segment is inserted between or ahead of
    /// live ones rather than appended; purges interleave.
    #[test]
    fn out_of_order_saves_match_flat_specification(
        seqs in prop::collection::vec((0..N as u16, 1..8 * SEGMENT_SPAN), 1..150),
        stride in 1usize..7,
        advances in prop::collection::vec(prop::collection::vec(0..8 * SEGMENT_SPAN, N), 0..4),
    ) {
        let odd = |s: u64| ((s - 1) / SEGMENT_SPAN) % 2 == 1;
        let mut order = seqs;
        order.sort_by_key(|&(p, s)| {
            if odd(s) {
                (0, s, p)
            } else {
                (1, u64::MAX - s, p)
            }
        });
        let scrambled: Vec<(u16, u64)> = (0..stride)
            .flat_map(|k| order.iter().skip(k).step_by(stride).copied())
            .collect();
        let mut sharded = History::new(N);
        let mut flat = FlatHistory::new(N);
        let mut advances = advances.into_iter();
        for (i, (p, s)) in order.into_iter().chain(scrambled).enumerate() {
            apply(Op::Save(p, s), &mut sharded, &mut flat)?;
            if i % 40 == 39 {
                if let Some(stable) = advances.next() {
                    apply(Op::Advance(stable), &mut sharded, &mut flat)?;
                }
            }
            observables_agree(&sharded, &flat)?;
        }
        contents_agree(&sharded, &flat)?;
    }

    /// Sequence numbers and frontiers up to 2^62: each far-ahead save
    /// costs one segment, and every observable still agrees.
    #[test]
    fn far_ahead_seqs_match_flat_specification(
        ops in prop::collection::vec(far_op_strategy(), 1..80)
    ) {
        let mut sharded = History::new(N);
        let mut flat = FlatHistory::new(N);
        for op in ops {
            apply(op, &mut sharded, &mut flat)?;
            observables_agree(&sharded, &flat)?;
            prop_assert!(sharded.segments_live() <= sharded.len(), "a segment per live message at most");
        }
        contents_agree(&sharded, &flat)?;
    }

    /// Save a batch above every frontier, purge each origin to its highest
    /// saved sequence (the table drains to empty), repeat: no segment
    /// outlives a full purge, and the next batch saves cleanly.
    #[test]
    fn purge_to_empty_then_save_cycles_match_flat_specification(
        batches in prop::collection::vec(
            prop::collection::vec((0..N as u16, 1..2 * SEGMENT_SPAN), 1..40),
            1..12,
        )
    ) {
        let mut sharded = History::new(N);
        let mut flat = FlatHistory::new(N);
        for batch in batches {
            let mut top: Vec<u64> = (0..N as u16)
                .map(|q| flat.stable_frontier(ProcessId(q)))
                .collect();
            for (p, off) in batch {
                let s = flat.stable_frontier(ProcessId(p)) + off;
                top[p as usize] = top[p as usize].max(s);
                apply(Op::Save(p, s), &mut sharded, &mut flat)?;
                observables_agree(&sharded, &flat)?;
            }
            contents_agree(&sharded, &flat)?;
            apply(Op::Advance(top), &mut sharded, &mut flat)?;
            observables_agree(&sharded, &flat)?;
            prop_assert!(sharded.is_empty());
            prop_assert_eq!(sharded.segments_live(), 0);
        }
    }
}
