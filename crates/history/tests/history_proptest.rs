//! Property tests for history management: purge/save invariants and
//! monotonicity of the coordinator's stability computation.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use urcgc_history::{History, StabilityMatrix, StableVector};
use urcgc_types::{DataMsg, Decision, Mid, ProcessId, Round, Subrun, NO_SEQ};

/// `advance_stability` for a single origin of a width-3 table.
fn purge_one(h: &mut History, p: u16, upto: u64) -> usize {
    let mut stable = [NO_SEQ; 3];
    stable[p as usize] = upto;
    h.advance_stability(&StableVector::new(&stable)).messages
}

fn msg(p: u16, s: u64) -> Arc<DataMsg> {
    Arc::new(DataMsg {
        mid: Mid::new(ProcessId(p), s),
        deps: vec![],
        round: Round(0),
        payload: Bytes::new(),
    })
}

proptest! {
    /// Interleaved saves and purges: the history never resurrects a purged
    /// message, never double-counts, and its length always equals the live
    /// message population.
    #[test]
    fn save_purge_interleaving_is_consistent(
        ops in prop::collection::vec(
            prop_oneof![
                (0u16..3, 1u64..30).prop_map(|(p, s)| (false, p, s)), // save
                (0u16..3, 0u64..30).prop_map(|(p, s)| (true, p, s)),  // purge
            ],
            1..80,
        )
    ) {
        let n = 3;
        let mut h = History::new(n);
        // Reference model: live set + purge frontier per origin.
        let mut live: std::collections::HashSet<Mid> = Default::default();
        let mut frontier = [NO_SEQ; 3];
        for (is_purge, p, s) in ops {
            if is_purge {
                let dropped = purge_one(&mut h, p, s);
                let expect: Vec<Mid> = live
                    .iter()
                    .filter(|m| m.origin == ProcessId(p) && m.seq <= s)
                    .copied()
                    .collect();
                prop_assert_eq!(dropped, expect.len());
                for m in expect {
                    live.remove(&m);
                }
                frontier[p as usize] = frontier[p as usize].max(s);
            } else {
                let stored = h.save(msg(p, s));
                let expect = s > frontier[p as usize]
                    && !live.contains(&Mid::new(ProcessId(p), s));
                prop_assert_eq!(stored, expect, "save(p{}#{})", p, s);
                if expect {
                    live.insert(Mid::new(ProcessId(p), s));
                }
            }
            prop_assert_eq!(h.len(), live.len());
            for q in 0..3u16 {
                prop_assert_eq!(h.stable_frontier(ProcessId(q)), frontier[q as usize]);
            }
        }
        // Ranges only ever return live messages in order.
        for q in 0..3u16 {
            let r = h.range(ProcessId(q), 0, u64::MAX);
            let mut seqs: Vec<u64> = r.iter().map(|m| m.mid.seq).collect();
            let sorted = {
                let mut s2 = seqs.clone();
                s2.sort();
                s2
            };
            prop_assert_eq!(&seqs, &sorted);
            seqs.dedup();
            prop_assert_eq!(seqs.len(), h.len_for(ProcessId(q)));
        }
    }

    /// The stability value a coordinator computes never exceeds any
    /// contributor's reported frontier, and with full contribution it
    /// equals the exact minimum.
    #[test]
    fn stability_is_the_min_over_contributors(
        frontiers in prop::collection::vec(
            prop::collection::vec(0u64..50, 4),
            4,
        )
    ) {
        let n = 4;
        let prev = Arc::new(Decision::genesis(n));
        let mut m = StabilityMatrix::new(n);
        for (i, f) in frontiers.iter().enumerate() {
            m.record(ProcessId::from_index(i), f.clone(), vec![NO_SEQ; n], &prev);
        }
        let d = m.compute(Subrun(1), ProcessId(0), 3, &prev);
        prop_assert!(d.full_group);
        for q in 0..n {
            let exact = frontiers.iter().map(|f| f[q]).min().unwrap();
            prop_assert_eq!(d.stable[q], exact);
            for f in &frontiers {
                prop_assert!(d.stable[q] <= f[q]);
            }
        }
    }

    /// Splitting contributors across two subruns computes a stability value
    /// that is ≤ the single-subrun value (staleness is conservative), and
    /// still covers everyone (full_group on the second decision).
    #[test]
    fn split_contribution_is_conservative(
        frontiers in prop::collection::vec(prop::collection::vec(1u64..50, 4), 4),
        at in 1usize..4,
    ) {
        let n = 4;
        let genesis = Arc::new(Decision::genesis(n));
        // One-shot computation.
        let mut all = StabilityMatrix::new(n);
        for (i, f) in frontiers.iter().enumerate() {
            all.record(ProcessId::from_index(i), f.clone(), vec![NO_SEQ; n], &genesis);
        }
        let one_shot = all.compute(Subrun(1), ProcessId(0), 9, &genesis);

        // Two-subrun computation with the same (stale) frontiers.
        let mut m1 = StabilityMatrix::new(n);
        for (i, f) in frontiers.iter().enumerate().take(at) {
            m1.record(ProcessId::from_index(i), f.clone(), vec![NO_SEQ; n], &genesis);
        }
        let d1 = Arc::new(m1.compute(Subrun(1), ProcessId(0), 9, &genesis));
        let mut m2 = StabilityMatrix::new(n);
        for (i, f) in frontiers.iter().enumerate().skip(at) {
            m2.record(ProcessId::from_index(i), f.clone(), vec![NO_SEQ; n], &d1);
        }
        // Also re-record one early contributor so the coordinator itself is
        // covered (as in the real protocol every member sends each subrun).
        m2.record(ProcessId::from_index(0), frontiers[0].clone(), vec![NO_SEQ; n], &d1);
        let d2 = m2.compute(Subrun(2), ProcessId(1), 9, &d1);
        prop_assert!(d2.full_group, "coverage incomplete: {:?}", d2.covered);
        for q in 0..n {
            prop_assert!(d2.stable[q] <= one_shot.stable[q] || d2.stable[q] == one_shot.stable[q]);
            prop_assert_eq!(d2.stable[q], one_shot.stable[q], "same inputs, same min");
        }
    }
}
