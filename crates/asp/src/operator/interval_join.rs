//! Band join — the one binary temporal join operator.
//!
//! A join pairs a left and a right tuple whose working timestamps satisfy
//! `r.ts − l.ts ∈ (lower, upper)` ([`IntervalBounds`], both ends
//! exclusive) and θ. Each pair is found exactly once, when its later
//! element arrives, by a range scan of the opposite side's key run inside
//! the band; the watermark only evicts. Two of the paper's mappings lower
//! to it:
//!
//! * **Interval join** — optimization O1 (Section 4.3.1): each left `e1`
//!   opens the content-based window `(e1.ts + lower, e1.ts + upper)`,
//!   `(0, W)` for a sequence and `(−W, W)` for a conjunction.
//!   Duplicate-free, with no slide parameter.
//! * **Sliding-window join** — the Table 1 default: band `(−W, W)` (or its
//!   half θ implies), and a candidate must also share an aligned pane
//!   (the pane rule, see [`crate::operator::Emission`]).

use crate::error::OpError;
use crate::operator::keyed_side::KeyedSide;
use crate::operator::window_join::Panes;
use crate::operator::{Collector, Emission, JoinPredicate, KeyedStateStats, Operator};
use crate::time::{Duration, Timestamp};
use crate::tuple::{TsRule, Tuple};
use crate::window::SlidingWindows;

/// The band `r.ts − l.ts ∈ (lower, upper)` a join pairs within.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalBounds {
    /// Lower bound, exclusive: `e2.ts > e1.ts + lower`.
    pub lower: Duration,
    /// Upper bound, exclusive: `e2.ts < e1.ts + upper`.
    pub upper: Duration,
}

impl IntervalBounds {
    /// The widest distance between a newly arrived event and the buffered
    /// partner it can pair with — how far behind the input watermark an
    /// emitted composite's min-timestamp can lie.
    pub fn span(&self) -> Duration {
        Duration(self.upper.millis().max(-self.lower.millis()).max(0))
    }

    /// Sequence / iteration / negated-sequence bounds `(0, W)`:
    /// `l.ts < r.ts < l.ts + W`.
    pub fn seq(w: Duration) -> Self {
        IntervalBounds {
            lower: Duration::ZERO,
            upper: w,
        }
    }

    /// The mirror of [`IntervalBounds::seq`], equal timestamps included:
    /// `(−W, 1 ms)`, i.e. `l.ts − W < r.ts ≤ l.ts`.
    pub fn seq_mirror(w: Duration) -> Self {
        IntervalBounds {
            lower: w.neg(),
            upper: Duration(1),
        }
    }

    /// Conjunction bounds `(-W, +W)`.
    pub fn conjunction(w: Duration) -> Self {
        IntervalBounds {
            lower: w.neg(),
            upper: w,
        }
    }

    /// Whether `right_ts − left_ts` lies inside the band.
    #[inline]
    pub fn contains(&self, left_ts: Timestamp, right_ts: Timestamp) -> bool {
        // Saturating: timestamps near the i64 extremes must not overflow.
        right_ts > left_ts.saturating_add(self.lower)
            && right_ts < left_ts.saturating_add(self.upper)
    }
}

/// The two-input band join operator (see the module docs). Each side
/// buffers in a key-partitioned `KeyedSide`, so an arriving tuple probes
/// only its own key's ts-ordered run on the opposite side.
pub struct IntervalJoinOp {
    name: String,
    bounds: IntervalBounds,
    /// The pane rule of a sliding-window join; `None` for an interval join.
    panes: Option<Panes>,
    theta: JoinPredicate,
    ts_rule: TsRule,
    left: KeyedSide,
    right: KeyedSide,
    seq: u64,
    memory_limit: Option<usize>,
}

impl IntervalJoinOp {
    /// An interval join emitting pairs with `r.ts − l.ts` inside `bounds`
    /// and satisfying `theta`; output timestamps follow `ts_rule`.
    pub fn new(
        name: impl Into<String>,
        bounds: IntervalBounds,
        theta: JoinPredicate,
        ts_rule: TsRule,
    ) -> Self {
        IntervalJoinOp {
            name: name.into(),
            bounds,
            panes: None,
            theta,
            ts_rule,
            left: KeyedSide::default(),
            right: KeyedSide::default(),
            seq: 0,
            memory_limit: None,
        }
    }

    /// A sliding-window join over `windows`: every pair satisfying `theta`
    /// is emitted once per aligned pane containing both (the paper's raw
    /// output; see [`IntervalJoinOp::with_emission`]). The band is
    /// `(−W, W)`, which every pane-sharing pair lies in.
    pub fn sliding(
        name: impl Into<String>,
        windows: SlidingWindows,
        theta: JoinPredicate,
        ts_rule: TsRule,
    ) -> Self {
        let band = IntervalBounds::conjunction(windows.size);
        let emission = Emission::PerPane;
        IntervalJoinOp {
            panes: Some(Panes { windows, emission }),
            ..IntervalJoinOp::new(name, band, theta, ts_rule)
        }
    }

    /// Emit each qualifying pair once per shared pane (the default) or
    /// once. An interval join emits each pair once regardless.
    pub fn with_emission(mut self, emission: Emission) -> Self {
        if let Some(panes) = &mut self.panes {
            panes.emission = emission;
        }
        self
    }

    /// Narrow the band. On a sliding join this is only sound when θ
    /// rejects every pane-sharing pair outside `bounds` — e.g.
    /// [`IntervalBounds::seq`] when θ implies `l.ts < r.ts`.
    pub fn with_bounds(mut self, bounds: IntervalBounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Install a state budget (bytes).
    pub fn with_memory_limit(mut self, bytes: usize) -> Self {
        self.memory_limit = Some(bytes);
        self
    }

    fn check_limit(&self) -> Result<(), OpError> {
        if let Some(limit) = self.memory_limit {
            let used = self.left.bytes() + self.right.bytes();
            if used > limit {
                return Err(OpError::MemoryExhausted {
                    operator: self.name.clone(),
                    state_bytes: used,
                    limit_bytes: limit,
                });
            }
        }
        Ok(())
    }
}

impl Operator for IntervalJoinOp {
    fn process(
        &mut self,
        input: usize,
        tuple: Tuple,
        out: &mut dyn Collector,
    ) -> Result<(), OpError> {
        debug_assert!(input < 2, "a join has two ports");
        self.seq += 1;
        let is_left = input == 0;
        // The partners' exclusive ts range: a left e1 probes rights in
        // (e1.ts + lower, e1.ts + upper), a right e2 probes lefts in
        // (e2.ts − upper, e2.ts − lower).
        let (partners, lo, hi) = if is_left {
            (&self.right, self.bounds.lower, self.bounds.upper)
        } else {
            (&self.left, self.bounds.upper.neg(), self.bounds.lower.neg())
        };
        let (lo, hi) = (tuple.ts.saturating_add(lo), tuple.ts.saturating_add(hi));
        if let Some(run) = partners.run(tuple.key) {
            for ((pts, _), partner) in run.range((lo, u64::MAX)..) {
                if *pts >= hi {
                    break;
                }
                let (l, r) = if is_left {
                    (&tuple, partner)
                } else {
                    (partner, &tuple)
                };
                // The pane rule runs for sliding joins only.
                let copies = self.panes.as_ref().map_or(1, |p| p.copies(l.ts, r.ts));
                if copies == 0 || !(self.theta)(l, r) {
                    continue;
                }
                // One `join` allocates the constituent list; `Tuple::events`
                // is an `Arc`, so each extra pane copy is a refcount bump.
                let j = l.join(r, self.ts_rule);
                for _ in 1..copies {
                    out.emit(j.clone());
                }
                out.emit(j);
            }
        }
        let side = if is_left {
            &mut self.left
        } else {
            &mut self.right
        };
        side.insert(self.seq, tuple);
        self.check_limit()
    }

    fn on_watermark(
        &mut self,
        wm: Timestamp,
        _out: &mut dyn Collector,
    ) -> Result<Timestamp, OpError> {
        // A left l is dead once no future right (ts ≥ wm) can satisfy
        // r.ts < l.ts + upper  ⇔  l.ts ≤ wm - upper.
        self.left.evict_before(
            wm.saturating_sub(self.bounds.upper)
                .saturating_add(Duration(1)),
        );
        // A right r is dead once no future left (ts ≥ wm) can satisfy
        // r.ts > l.ts + lower  ⇔  r.ts ≤ wm + lower.
        self.right.evict_before(
            wm.saturating_add(self.bounds.lower)
                .saturating_add(Duration(1)),
        );
        // Watermark contract: a future arrival at ts ≥ wm may pair with a
        // buffered partner up to `span` older, and the composite can carry
        // that older timestamp — hold the forwarded watermark back.
        Ok(wm
            .saturating_sub(self.bounds.span())
            .saturating_add(Duration(1)))
    }

    fn on_finish(&mut self, _out: &mut dyn Collector) -> Result<(), OpError> {
        // Emission is eager; nothing pends at end of stream.
        self.left.evict_before(Timestamp::MAX);
        self.right.evict_before(Timestamp::MAX);
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        self.left.bytes() + self.right.bytes()
    }

    fn keyed_state(&self) -> Option<KeyedStateStats> {
        Some(KeyedStateStats {
            left_keys: self.left.peak_keys(),
            right_keys: self.right.peak_keys(),
            max_run_len: self.left.peak_run().max(self.right.peak_run()),
        })
    }

    fn shard_handoff_supported(&self) -> bool {
        true
    }

    fn extract_shard(
        &mut self,
        part: &dyn Fn(u64) -> bool,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        Some(Box::new(IntervalJoinHandoff {
            left: self.left.extract_keys(part),
            right: self.right.extract_keys(part),
        }))
    }

    /// Merge a sibling's extracted slot state. The join emits each pair
    /// eagerly when its *later* side arrives and keeps no firing cursor,
    /// so — with the runtime aligning the handoff at a common merged
    /// watermark — the buffered runs *are* the whole state: every pair
    /// completed before the marker was emitted by the source, and every
    /// pair completing after it probes the absorbed runs on the target.
    /// The pane rule is a test on the pair alone, so sliding joins need
    /// nothing more. Eviction horizons depend only on the shared clock, so
    /// both instances hold the same retention window and the runs compose
    /// verbatim, without loss or duplication.
    fn absorb_shard(&mut self, state: Box<dyn std::any::Any + Send>) -> Result<(), OpError> {
        let h = state
            .downcast::<IntervalJoinHandoff>()
            .map_err(|_| OpError::Failed {
                operator: self.name.clone(),
                reason: "shard handoff payload is not IntervalJoinHandoff state".to_string(),
            })?;
        self.left.absorb(h.left, &mut self.seq);
        self.right.absorb(h.right, &mut self.seq);
        self.check_limit()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A slot's extracted [`IntervalJoinOp`] state in flight between shard
/// instances: both sides' tuples for the migrated keys in arrival order.
/// No cursors travel — emission is eager, so the runs are the whole state.
struct IntervalJoinHandoff {
    left: Vec<Tuple>,
    right: Vec<Tuple>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::testutil::tup;
    use crate::operator::{cross_join, VecCollector};

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

    #[test]
    fn seq_bounds_are_strict() {
        let w = Duration::from_minutes(4);
        let b = IntervalBounds::seq(w);
        let t0 = Timestamp::from_minutes(10);
        assert!(!b.contains(t0, t0), "equal ts excluded (strict order)");
        assert!(b.contains(t0, t0 + Duration(1)));
        assert!(b.contains(t0, t0 + Duration(4 * 60_000 - 1)));
        assert!(!b.contains(t0, t0 + w), "exactly W apart excluded");
    }

    #[test]
    fn conjunction_bounds_are_symmetric() {
        let b = IntervalBounds::conjunction(Duration::from_minutes(4));
        let t0 = Timestamp::from_minutes(10);
        assert!(b.contains(t0, t0), "|diff|=0 < W included");
        assert!(b.contains(t0, t0 - Duration::from_minutes(3)));
        assert!(b.contains(t0, t0 + Duration::from_minutes(3)));
        assert!(!b.contains(t0, t0 - Duration::from_minutes(4)));
        assert!(!b.contains(t0, t0 + Duration::from_minutes(4)));
    }

    #[test]
    fn emits_each_pair_exactly_once() {
        // Unlike the sliding-window join, no duplicates regardless of W/s.
        let mut op = IntervalJoinOp::new(
            "i⋈",
            IntervalBounds::seq(Duration::from_minutes(15)),
            cross_join(),
            TsRule::Max,
        );
        let out = run(
            &mut op,
            vec![
                (0, tup(0, 0, 1, 1.0)),
                (1, tup(1, 0, 2, 2.0)),
                (1, tup(1, 0, 3, 3.0)),
            ],
        );
        assert_eq!(out.len(), 2);
        let mut keys: Vec<_> = out.iter().map(|t| t.match_key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 2, "all matches distinct");
    }

    #[test]
    fn out_of_order_across_ports_still_joins() {
        // Right arrives before left: the pair is found on left arrival.
        let mut op = IntervalJoinOp::new(
            "i⋈",
            IntervalBounds::conjunction(Duration::from_minutes(10)),
            cross_join(),
            TsRule::Max,
        );
        let mut col = VecCollector::default();
        op.process(1, tup(1, 0, 5, 2.0), &mut col).unwrap();
        op.process(0, tup(0, 0, 3, 1.0), &mut col).unwrap();
        assert_eq!(col.out.len(), 1);
    }

    #[test]
    fn keyed_join_respects_partitions() {
        let mut op = IntervalJoinOp::new(
            "i⋈",
            IntervalBounds::seq(Duration::from_minutes(15)),
            cross_join(),
            TsRule::Max,
        );
        let out = run(
            &mut op,
            vec![
                (0, tup(0, 1, 1, 1.0)),
                (0, tup(0, 2, 1, 1.5)),
                (1, tup(1, 1, 2, 2.0)),
            ],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].events[0].id, 1);
    }

    #[test]
    fn watermark_evicts_expired_state() {
        let w = Duration::from_minutes(4);
        let mut op = IntervalJoinOp::new("i⋈", IntervalBounds::seq(w), cross_join(), TsRule::Max);
        let mut col = VecCollector::default();
        op.process(0, tup(0, 0, 1, 1.0), &mut col).unwrap();
        op.process(1, tup(1, 0, 2, 2.0), &mut col).unwrap();
        assert!(op.state_bytes() > 0);
        // wm = 10min: left@1 dead (1+4 ≤ 10); right@2 dead (2 ≤ 10+0).
        op.on_watermark(Timestamp::from_minutes(10), &mut col)
            .unwrap();
        assert_eq!(op.state_bytes(), 0);
    }

    #[test]
    fn eviction_never_loses_matches() {
        // Feed in ts order with per-tuple watermarks; every in-range pair
        // must still be found despite aggressive eviction.
        let w = Duration::from_minutes(3);
        let mut op = IntervalJoinOp::new("i⋈", IntervalBounds::seq(w), cross_join(), TsRule::Max);
        let mut feed = Vec::new();
        for m in 0..20 {
            feed.push((0usize, tup(0, 0, m, m as f64)));
            feed.push((1usize, tup(1, 0, m, m as f64)));
        }
        let out = run(&mut op, feed);
        // Expected pairs: (l@i, r@j) with i < j < i+3 → j ∈ {i+1, i+2}.
        let expected: usize = (0..20).map(|i| ((i + 1)..20.min(i + 3)).count()).sum();
        assert_eq!(out.len(), expected);
    }

    #[test]
    fn keyed_state_tracks_runs_per_side() {
        let mut op = IntervalJoinOp::new(
            "i⋈",
            IntervalBounds::seq(Duration::from_minutes(15)),
            cross_join(),
            TsRule::Max,
        );
        let mut col = VecCollector::default();
        for (i, key) in [1u32, 2, 2, 2].iter().enumerate() {
            op.process(0, tup(0, *key, i as i64, 1.0), &mut col)
                .unwrap();
        }
        op.process(1, tup(1, 9, 1, 2.0), &mut col).unwrap();
        let ks = op.keyed_state().expect("joins report keyed state");
        assert_eq!(ks.left_keys, 2);
        assert_eq!(ks.right_keys, 1);
        assert_eq!(ks.max_run_len, 3, "key 2 holds three lefts");
        // Peaks are high-water marks: they survive full eviction.
        op.on_finish(&mut col).unwrap();
        assert_eq!(op.state_bytes(), 0);
        assert_eq!(op.keyed_state().expect("keyed").max_run_len, 3);
    }

    #[allow(clippy::type_complexity)]
    fn multiset(out: &[Tuple]) -> Vec<(u64, i64, Vec<(u16, u32, i64)>)> {
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
        // Emulate the runtime's migration protocol at operator level, the
        // same drill as `window_join::mid_stream_migration_...`: two
        // instances share a keyed stream; at an aligned watermark one
        // key's state is extracted from A and absorbed into B, and the
        // key's remaining tuples are delivered to B. The union of both
        // instances' outputs must equal a single-instance run exactly.
        let bounds = IntervalBounds::conjunction(Duration::from_minutes(4));
        let fresh = || IntervalJoinOp::new("i⋈", bounds, cross_join(), TsRule::Max);
        // Two keys, both sides; the cut at minute 12 lands while key 2
        // still buffers a left (ts 11) whose partner (ts 13) arrives after
        // the handoff — that pair can only come from the absorbed state.
        let feed: Vec<(usize, Tuple)> = vec![
            (0, tup(0, 1, 1, 1.0)),
            (1, tup(1, 1, 3, 2.0)),
            (1, tup(1, 2, 5, 3.0)),
            (0, tup(0, 2, 7, 4.0)),
            (0, tup(0, 1, 9, 5.0)),
            (0, tup(0, 2, 11, 6.0)),
            // ---- migration of key 2 happens at wm = minute 12 ----
            (1, tup(1, 1, 12, 7.0)),
            (1, tup(1, 2, 13, 8.0)),
            (0, tup(0, 2, 15, 9.0)),
            (1, tup(1, 1, 16, 10.0)),
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
        assert!(
            combined.len() >= 4,
            "scenario must produce pairs before, across, and after the cut"
        );
    }

    #[test]
    fn extract_empty_key_set_is_not_lossy() {
        // Extracting a predicate that matches nothing hands off empty
        // runs and leaves the source's state intact.
        let mut op = IntervalJoinOp::new(
            "i⋈",
            IntervalBounds::seq(Duration::from_minutes(10)),
            cross_join(),
            TsRule::Max,
        );
        let mut col = VecCollector::default();
        op.process(0, tup(0, 1, 1, 1.0), &mut col).unwrap();
        let before = op.state_bytes();
        let h = op.extract_shard(&|_| false).expect("supported");
        assert_eq!(op.state_bytes(), before, "no keys matched: state intact");
        let mut other = IntervalJoinOp::new(
            "i⋈",
            IntervalBounds::seq(Duration::from_minutes(10)),
            cross_join(),
            TsRule::Max,
        );
        other.absorb_shard(h).unwrap();
        assert_eq!(other.state_bytes(), 0);
        op.process(1, tup(1, 1, 2, 2.0), &mut col).unwrap();
        assert_eq!(col.out.len(), 1, "pair still fires on the source");
    }

    #[test]
    fn memory_limit_enforced() {
        let mut op = IntervalJoinOp::new(
            "i⋈",
            IntervalBounds::seq(Duration::from_minutes(100)),
            cross_join(),
            TsRule::Max,
        )
        .with_memory_limit(256);
        let mut col = VecCollector::default();
        let mut failed = false;
        for m in 0..50 {
            if op.process(0, tup(0, 0, m, 1.0), &mut col).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed);
    }
}
