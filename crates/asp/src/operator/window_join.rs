//! Sliding-window admission for the band join — the default mapping
//! target for conjunction, sequence, and iteration (paper Table 1).
//!
//! Both inputs are discretized into the same (possibly overlapping)
//! aligned panes `[k·s, k·s + W)` (Section 3.1.2), and every pair
//! satisfying θ that shares a pane is a (partial) match, once per shared
//! pane. Overlapping windows produce duplicate matches by design — the
//! semantic equivalence of Section 4 is modulo duplicates.
//!
//! **The pane rule is a pair test.** Take a pair with working timestamps
//! `mn ≤ mx`. It shares an aligned pane exactly when
//! `s0 = first_window_start(mx) ≤ mn` (the epoch clamp included), and it
//! lives in `(mn − s0)/slide + 1` panes. Both facts are known when the
//! later element arrives, so a sliding join is an
//! [`IntervalJoinOp`](crate::operator::IntervalJoinOp) over the band
//! `(−W, W)` — which every pane-sharing pair lies in — whose candidates
//! must also pass this test. It emits on arrival and the watermark only
//! evicts; the output multiset is identical to rescanning every pane when
//! the watermark closes it, as Flink's window join does.
//!
//! An [`Emission`] mode says whether a found pair is emitted once per
//! containing pane (the paper's raw output, [`Emission::PerPane`]) or once
//! ([`Emission::Once`] — for joins whose consumer would discard the
//! byte-identical pane copies anyway).

use crate::time::Timestamp;
use crate::window::SlidingWindows;

/// How many copies of a qualifying pair a sliding join emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Emission {
    /// One copy per aligned pane containing the pair — the raw sliding
    /// window semantics (duplicates by design).
    #[default]
    PerPane,
    /// Each qualifying pair exactly once. A pair's pane copies are
    /// byte-identical, so no consumer can tell which of them it got.
    Once,
}

/// The pane rule of a sliding join (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Panes {
    pub windows: SlidingWindows,
    pub emission: Emission,
}

impl Panes {
    /// Copies to emit for a pair with working timestamps `a` and `b`: 0
    /// when the two share no aligned pane, else the pane count (or 1
    /// under [`Emission::Once`]).
    #[inline]
    pub fn copies(&self, a: Timestamp, b: Timestamp) -> u64 {
        let (mn, mx) = if a <= b { (a, b) } else { (b, a) };
        let s0 = self.windows.first_window_start(mx);
        if s0 > mn {
            return 0;
        }
        match self.emission {
            Emission::Once => 1,
            Emission::PerPane => {
                ((mn.millis() - s0.millis()) / self.windows.slide.millis() + 1) as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::testutil::tup;
    use crate::operator::{
        cross_join, IntervalBounds, IntervalJoinOp, JoinPredicate, Operator, VecCollector,
    };
    use crate::time::Duration;
    use crate::tuple::{TsRule, Tuple};
    use std::sync::Arc;

    fn seq_theta() -> JoinPredicate {
        Arc::new(|l: &Tuple, r: &Tuple| l.ts_end() < r.ts_begin())
    }

    fn run(op: &mut IntervalJoinOp, feed: Vec<(usize, Tuple)>) -> Vec<Tuple> {
        let mut col = VecCollector::default();
        let mut wm = Timestamp::MIN;
        for (port, t) in feed {
            wm = wm.max(t.ts);
            op.process(port, t, &mut col).unwrap();
            op.on_watermark(wm, &mut col).unwrap();
        }
        op.on_finish(&mut col).unwrap();
        col.out
    }

    /// Brute force over every aligned pane: how many panes hold both.
    fn shared_panes(windows: SlidingWindows, a: Timestamp, b: Timestamp) -> u64 {
        let (mn, mx) = (a.min(b), a.max(b));
        windows.assign(mn).filter(|wid| mx < wid.end).count() as u64
    }

    #[test]
    fn pane_rule_matches_brute_force_at_the_boundaries() {
        // Epoch clamp (ts < W), a slide that does not divide W, and pairs
        // exactly W and W − 1 apart on both sides of an alignment.
        for (w, s) in [(4, 3), (4, 1), (4, 4), (5, 2), (10, 3)] {
            let windows = SlidingWindows::new(Duration(w), Duration(s));
            let per_pane = Panes {
                windows,
                emission: Emission::PerPane,
            };
            let once = Panes {
                emission: Emission::Once,
                ..per_pane
            };
            for a in 0..3 * w {
                for d in 0..=w {
                    let (ta, tb) = (Timestamp(a), Timestamp(a + d));
                    let want = shared_panes(windows, ta, tb);
                    assert_eq!(per_pane.copies(ta, tb), want, "W={w} s={s} a={a} d={d}");
                    assert_eq!(per_pane.copies(tb, ta), want, "argument order");
                    assert_eq!(once.copies(ta, tb), want.min(1));
                }
            }
        }
        let windows = SlidingWindows::new(Duration(4), Duration(3));
        let p = Panes {
            windows,
            emission: Emission::PerPane,
        };
        // W − 1 apart straddling the alignment at 6: [3,7) holds both.
        assert_eq!(p.copies(Timestamp(3), Timestamp(6)), 1);
        // W − 1 apart from an alignment: [6,10) holds both.
        assert_eq!(p.copies(Timestamp(6), Timestamp(9)), 1);
        // W − 1 apart, no aligned start in (mx − W, mn]: no shared pane.
        assert_eq!(p.copies(Timestamp(4), Timestamp(7)), 0);
        // Exactly W apart: never.
        assert_eq!(p.copies(Timestamp(3), Timestamp(7)), 0);
        // Epoch clamp: before W, the first pane starts at 0.
        assert_eq!(p.copies(Timestamp(0), Timestamp(2)), 1);
        assert_eq!(
            p.copies(Timestamp(-1), Timestamp(1)),
            0,
            "no pane starts before the epoch"
        );
    }

    #[test]
    fn tumbling_cross_join_pairs_within_window_only() {
        let mut op = IntervalJoinOp::sliding(
            "⋈",
            SlidingWindows::tumbling(Duration::from_minutes(10)),
            cross_join(),
            TsRule::Max,
        );
        // a,b in [0,10); c in [10,20): only (a-left, b-right) pairs.
        let out = run(
            &mut op,
            vec![
                (0, tup(0, 0, 1, 1.0)),
                (1, tup(1, 0, 2, 2.0)),
                (1, tup(1, 0, 12, 3.0)),
                (0, tup(0, 0, 15, 4.0)),
            ],
        );
        // Window 1: 1 left × 1 right = 1. Window 2: 1 × 1 = 1.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn theta_predicate_enforces_sequence_order() {
        let mut op = IntervalJoinOp::sliding(
            "⋈θ",
            SlidingWindows::tumbling(Duration::from_minutes(10)),
            seq_theta(),
            TsRule::Max,
        );
        let out = run(
            &mut op,
            vec![
                (1, tup(1, 0, 1, 2.0)), // right first: (left@3, right@1) must NOT match
                (0, tup(0, 0, 3, 1.0)),
                (1, tup(1, 0, 5, 3.0)), // (left@3, right@5) matches
            ],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].events[0].ts, Timestamp::from_minutes(3));
        assert_eq!(out[0].events[1].ts, Timestamp::from_minutes(5));
        assert_eq!(out[0].ts, Timestamp::from_minutes(5), "TsRule::Max");
    }

    #[test]
    fn sliding_windows_emit_duplicates_for_overlap() {
        // W=4, s=2 → a pair 1 minute apart co-occurs in 2 windows → 2 copies.
        let mut op = IntervalJoinOp::sliding(
            "⋈",
            SlidingWindows::new(Duration::from_minutes(4), Duration::from_minutes(2)),
            cross_join(),
            TsRule::Max,
        );
        let out = run(
            &mut op,
            vec![(0, tup(0, 0, 4, 1.0)), (1, tup(1, 0, 5, 2.0))],
        );
        assert_eq!(out.len(), 2, "overlapping windows duplicate the match");
        assert_eq!(out[0].match_key(), out[1].match_key());
    }

    #[test]
    fn duplicate_emissions_share_the_events_allocation() {
        // The pane-multiplicity path must not deep-copy the composite:
        // every copy's constituent list is the same Arc allocation.
        let mut op = IntervalJoinOp::sliding(
            "⋈",
            SlidingWindows::new(Duration::from_minutes(6), Duration::from_minutes(2)),
            cross_join(),
            TsRule::Max,
        );
        let out = run(
            &mut op,
            vec![(0, tup(0, 0, 4, 1.0)), (1, tup(1, 0, 5, 2.0))],
        );
        assert_eq!(out.len(), 3, "pair lives in 3 overlapping panes");
        assert!(
            out.iter().all(|t| Arc::ptr_eq(&t.events, &out[0].events)),
            "pane copies must share one events allocation (refcount bumps)"
        );
    }

    /// Mixed-key, two-sided feed over overlapping panes (W=6, s=2) with
    /// equal timestamps across the sides, so both probes find pairs.
    fn overlap_feed() -> Vec<(usize, Tuple)> {
        (0..30)
            .map(|i| {
                let port = (i % 2) as usize;
                (
                    port,
                    tup(port as u16, (i % 3) as u32, (i / 3) as i64, i as f64),
                )
            })
            .collect()
    }

    const OVERLAP_W: Duration = Duration::from_minutes(6);

    fn overlap_op(theta: JoinPredicate) -> IntervalJoinOp {
        let windows = SlidingWindows::new(OVERLAP_W, Duration::from_minutes(2));
        IntervalJoinOp::sliding("⋈", windows, theta, TsRule::Min)
    }

    #[test]
    fn emit_once_is_the_distinct_set_of_per_pane_output() {
        let per_pane = run(&mut overlap_op(cross_join()), overlap_feed());
        let once = run(
            &mut overlap_op(cross_join()).with_emission(Emission::Once),
            overlap_feed(),
        );
        let mut distinct = multiset(&per_pane);
        distinct.dedup();
        assert!(per_pane.len() > distinct.len(), "feed must overlap panes");
        assert_eq!(multiset(&once), distinct, "each pair exactly once");
    }

    #[test]
    fn one_sided_probe_matches_both_sided_when_theta_implies_the_order() {
        // θ: l.ts < r.ts → the band (0, W) finds every qualifying pair.
        let lt: JoinPredicate = Arc::new(|l: &Tuple, r: &Tuple| l.ts < r.ts);
        let both = run(&mut overlap_op(lt.clone()), overlap_feed());
        let one = run(
            &mut overlap_op(lt).with_bounds(IntervalBounds::seq(OVERLAP_W)),
            overlap_feed(),
        );
        assert!(!both.is_empty());
        assert_eq!(multiset(&one), multiset(&both));
        // θ: r.ts < l.ts → the mirror band (−W, 1 ms) does.
        let gt: JoinPredicate = Arc::new(|l: &Tuple, r: &Tuple| r.ts < l.ts);
        let both = run(&mut overlap_op(gt.clone()), overlap_feed());
        let one = run(
            &mut overlap_op(gt).with_bounds(IntervalBounds::seq_mirror(OVERLAP_W)),
            overlap_feed(),
        );
        assert!(!both.is_empty());
        assert_eq!(multiset(&one), multiset(&both));
    }

    #[test]
    fn each_probe_direction_finds_only_its_half() {
        // Under a cross join the two one-sided bands partition the pairs
        // by which side is younger; together they are the full output.
        let both = run(&mut overlap_op(cross_join()), overlap_feed());
        let right_later = run(
            &mut overlap_op(cross_join()).with_bounds(IntervalBounds::seq(OVERLAP_W)),
            overlap_feed(),
        );
        let right_not_later = run(
            &mut overlap_op(cross_join()).with_bounds(IntervalBounds::seq_mirror(OVERLAP_W)),
            overlap_feed(),
        );
        assert!(right_later.iter().all(|t| t.events[0].ts < t.events[1].ts));
        assert!(right_not_later
            .iter()
            .all(|t| t.events[1].ts <= t.events[0].ts));
        let mut union = right_later;
        union.extend(right_not_later);
        assert_eq!(multiset(&union), multiset(&both));
    }

    #[test]
    fn equi_join_pairs_only_matching_keys() {
        let mut op = IntervalJoinOp::sliding(
            "⋈=",
            SlidingWindows::tumbling(Duration::from_minutes(10)),
            cross_join(),
            TsRule::Max,
        );
        let out = run(
            &mut op,
            vec![
                (0, tup(0, 1, 1, 1.0)), // key 1
                (0, tup(0, 2, 2, 2.0)), // key 2
                (1, tup(1, 1, 3, 3.0)), // key 1 → joins only the first
            ],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].events[0].id, 1);
    }

    #[test]
    fn state_is_released_after_firing() {
        // The pair is emitted when its later element arrives; the
        // watermark only releases state no future tuple can pair with.
        let mut op = IntervalJoinOp::sliding(
            "⋈",
            SlidingWindows::tumbling(Duration::from_minutes(5)),
            cross_join(),
            TsRule::Max,
        );
        let mut col = VecCollector::default();
        op.process(0, tup(0, 0, 1, 1.0), &mut col).unwrap();
        op.process(1, tup(1, 0, 2, 2.0), &mut col).unwrap();
        assert_eq!(col.out.len(), 1, "emitted on arrival");
        op.on_watermark(Timestamp::from_minutes(5), &mut col)
            .unwrap();
        assert!(op.state_bytes() > 0, "both still inside the (−W, W) band");
        op.on_watermark(Timestamp::from_minutes(7), &mut col)
            .unwrap();
        assert_eq!(op.state_bytes(), 0, "W behind the watermark: evicted");
        assert_eq!(col.out.len(), 1);
    }

    #[test]
    fn keyed_state_reports_high_water_marks() {
        let mut op = IntervalJoinOp::sliding(
            "⋈",
            SlidingWindows::tumbling(Duration::from_minutes(5)),
            cross_join(),
            TsRule::Max,
        );
        let mut col = VecCollector::default();
        for (i, key) in [1u32, 2, 1, 3].iter().enumerate() {
            op.process(0, tup(0, *key, i as i64, 1.0), &mut col)
                .unwrap();
        }
        op.process(1, tup(1, 1, 1, 2.0), &mut col).unwrap();
        let ks = op.keyed_state().expect("joins report keyed state");
        assert_eq!(ks.left_keys, 3);
        assert_eq!(ks.right_keys, 1);
        assert_eq!(ks.max_run_len, 2, "key 1 holds two lefts");
        // Peaks survive eviction.
        op.on_watermark(Timestamp::from_minutes(10), &mut col)
            .unwrap();
        assert_eq!(op.state_bytes(), 0);
        assert_eq!(op.keyed_state().expect("keyed").left_keys, 3);
    }

    #[test]
    fn memory_limit_aborts_run() {
        let mut op = IntervalJoinOp::sliding(
            "⋈",
            SlidingWindows::new(Duration::from_minutes(15), Duration::from_minutes(1)),
            cross_join(),
            TsRule::Max,
        )
        .with_memory_limit(512);
        let mut col = VecCollector::default();
        let mut failed = false;
        for i in 0..100 {
            if op.process(0, tup(0, 0, i, 1.0), &mut col).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "state must exceed a 512-byte budget");
    }

    #[test]
    fn windows_fire_in_order_and_only_once() {
        let mut op = IntervalJoinOp::sliding(
            "⋈",
            SlidingWindows::tumbling(Duration::from_minutes(2)),
            cross_join(),
            TsRule::Max,
        );
        let mut col = VecCollector::default();
        for m in 0..10 {
            op.process(0, tup(0, 0, m, m as f64), &mut col).unwrap();
            op.process(1, tup(1, 0, m, m as f64), &mut col).unwrap();
        }
        op.on_finish(&mut col).unwrap();
        // Each 2-minute window holds 2 lefts × 2 rights = 4 pairs; 5 windows.
        assert_eq!(col.out.len(), 20);
    }

    #[test]
    fn sparse_streams_skip_empty_windows() {
        // Events 10 000 minutes apart: nothing between them costs work.
        let mut op = IntervalJoinOp::sliding(
            "⋈",
            SlidingWindows::new(Duration::from_minutes(5), Duration::from_minutes(1)),
            cross_join(),
            TsRule::Max,
        );
        let mut col = VecCollector::default();
        for m in [0i64, 10_000, 20_000] {
            op.process(0, tup(0, 0, m, 1.0), &mut col).unwrap();
            op.process(1, tup(1, 0, m, 2.0), &mut col).unwrap();
            op.on_watermark(Timestamp::from_minutes(m), &mut col)
                .unwrap();
        }
        op.on_finish(&mut col).unwrap();
        // The pairs at minutes 10 000 and 20 000 appear in 5 overlapping
        // windows each; the pair at minute 0 only in [0, 5) (window starts
        // are clamped at the epoch).
        assert_eq!(col.out.len(), 11);
    }

    #[test]
    fn matches_reference_per_window_semantics() {
        // Cross-check against a brute-force per-window enumeration.
        let windows = SlidingWindows::new(Duration::from_minutes(4), Duration::from_minutes(2));
        let mut op = IntervalJoinOp::sliding("⋈", windows, cross_join(), TsRule::Max);
        let feed: Vec<(usize, Tuple)> = (0..12)
            .map(|m| ((m % 2) as usize, tup((m % 2) as u16, 0, m, m as f64)))
            .collect();
        let got = run(&mut op, feed.clone());
        // Brute force: for every aligned window, pair all lefts × rights.
        let mut want = 0usize;
        for start in (0..24).step_by(2) {
            let in_win = |t: &Tuple| {
                t.ts >= Timestamp::from_minutes(start) && t.ts < Timestamp::from_minutes(start + 4)
            };
            let l = feed.iter().filter(|(p, t)| *p == 0 && in_win(t)).count();
            let r = feed.iter().filter(|(p, t)| *p == 1 && in_win(t)).count();
            want += l * r;
        }
        assert_eq!(got.len(), want);
    }

    #[test]
    fn multi_key_interleaving_matches_reference() {
        // Several keys interleaved on both sides: the key-partitioned
        // layout must reproduce the per-key brute force (key equality +
        // window co-residency), including pane multiplicities.
        let windows = SlidingWindows::new(Duration::from_minutes(6), Duration::from_minutes(2));
        let mut op = IntervalJoinOp::sliding("⋈", windows, cross_join(), TsRule::Max);
        let feed: Vec<(usize, Tuple)> = (0..24)
            .map(|i| {
                let port = (i % 2) as usize;
                let key = (i % 5) as u32;
                // Monotone ts (the operator contract: nothing arrives
                // behind the watermark), keys cycling out of phase with
                // the ports so every key appears on both sides.
                (port, tup(port as u16, key, (i / 2) as i64, i as f64))
            })
            .collect();
        let got = run(&mut op, feed.clone());
        let mut want = 0usize;
        for start in (0..36).step_by(2) {
            let in_win = |t: &Tuple| {
                t.ts >= Timestamp::from_minutes(start) && t.ts < Timestamp::from_minutes(start + 6)
            };
            for (lp, l) in &feed {
                if *lp != 0 || !in_win(l) {
                    continue;
                }
                want += feed
                    .iter()
                    .filter(|(rp, r)| *rp == 1 && in_win(r) && r.key == l.key)
                    .count();
            }
        }
        assert_eq!(got.len(), want);
    }

    /// Canonical row: key, working ts, constituent (etype, id, ts) list.
    type CanonRow = (u64, i64, Vec<(u16, u32, i64)>);

    /// Canonical form for order-insensitive output comparison.
    fn multiset(out: &[Tuple]) -> Vec<CanonRow> {
        let mut v: Vec<_> = out
            .iter()
            .map(|t| {
                (
                    t.key,
                    t.ts.millis(),
                    t.events
                        .iter()
                        .map(|e| (e.etype.0, e.id, e.ts.millis()))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn mid_stream_migration_matches_single_instance_run() {
        // Emulate the runtime's migration protocol at operator level: two
        // instances share a keyed stream; at an aligned watermark one
        // key's state is extracted from A and absorbed into B, and the
        // key's remaining tuples are delivered to B. The union of both
        // instances' outputs must equal a single-instance run exactly —
        // the state handoff may neither lose nor duplicate pairs.
        let windows = SlidingWindows::new(Duration::from_minutes(10), Duration::from_minutes(5));
        let fresh = || IntervalJoinOp::sliding("⋈", windows, cross_join(), TsRule::Max);
        // Two keys, both sides, spanning several overlapping panes; the
        // cut at minute 12 lands mid-pane so open windows cross it.
        let feed: Vec<(usize, Tuple)> = vec![
            (0, tup(0, 1, 1, 1.0)),
            (1, tup(1, 2, 2, 2.0)),
            (1, tup(1, 1, 4, 3.0)),
            (0, tup(0, 2, 6, 4.0)),
            (0, tup(0, 1, 8, 5.0)),
            (1, tup(1, 2, 9, 6.0)),
            (1, tup(1, 1, 11, 7.0)),
            // ---- migration of key 2 happens at wm = minute 12 ----
            (0, tup(0, 2, 13, 8.0)),
            (1, tup(1, 1, 14, 9.0)),
            (1, tup(1, 2, 16, 10.0)),
            (0, tup(0, 1, 18, 11.0)),
            (0, tup(0, 2, 21, 12.0)),
        ];
        let cut = Timestamp::from_minutes(12);

        let mut reference = fresh();
        let mut ref_col = VecCollector::default();
        for (port, t) in &feed {
            let wm = t.ts;
            reference.process(*port, t.clone(), &mut ref_col).unwrap();
            reference.on_watermark(wm, &mut ref_col).unwrap();
        }
        reference.on_finish(&mut ref_col).unwrap();

        let mut a = fresh();
        let mut b = fresh();
        let mut a_col = VecCollector::default();
        let mut b_col = VecCollector::default();
        let mut migrated = false;
        for (port, t) in &feed {
            let wm = t.ts;
            if !migrated && wm >= cut {
                // Both instances sit at the same merged clock (the
                // runtime's marker alignment): hand key 2 across.
                a.on_watermark(cut, &mut a_col).unwrap();
                b.on_watermark(cut, &mut b_col).unwrap();
                let h = a.extract_shard(&|k| k == 2).expect("supported");
                b.absorb_shard(h).unwrap();
                migrated = true;
            }
            let dst = if migrated && t.key == 2 {
                (&mut b, &mut b_col)
            } else {
                (&mut a, &mut a_col)
            };
            dst.0.process(*port, t.clone(), dst.1).unwrap();
            a.on_watermark(wm, &mut a_col).unwrap();
            b.on_watermark(wm, &mut b_col).unwrap();
        }
        a.on_finish(&mut a_col).unwrap();
        b.on_finish(&mut b_col).unwrap();

        let mut combined = a_col.out;
        combined.extend(b_col.out);
        assert_eq!(
            multiset(&combined),
            multiset(&ref_col.out),
            "migrated run must emit exactly the single-instance pairs"
        );
        assert!(!combined.is_empty(), "scenario must actually produce pairs");
    }

    #[test]
    fn extract_unsupported_key_set_is_empty_not_lossy() {
        // Extracting a predicate that matches nothing hands off empty
        // sides and leaves the source's state intact.
        let windows = SlidingWindows::tumbling(Duration::from_minutes(10));
        let mut op = IntervalJoinOp::sliding("⋈", windows, cross_join(), TsRule::Max);
        let mut col = VecCollector::default();
        op.process(0, tup(0, 1, 1, 1.0), &mut col).unwrap();
        let before = op.state_bytes();
        let h = op.extract_shard(&|_| false).expect("supported");
        assert_eq!(op.state_bytes(), before, "no keys matched: state intact");
        let mut other = IntervalJoinOp::sliding("⋈", windows, cross_join(), TsRule::Max);
        other.absorb_shard(h).unwrap();
        assert_eq!(other.state_bytes(), 0);
        op.process(1, tup(1, 1, 2, 2.0), &mut col).unwrap();
        assert_eq!(col.out.len(), 1, "pair still fires on the source");
    }
}
