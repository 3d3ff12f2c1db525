//! Sliding-window join — the default mapping target for conjunction,
//! sequence, and iteration (paper Table 1).
//!
//! Both inputs are discretized into the same (possibly overlapping)
//! substreams `T_k` (Section 3.1.2); when the watermark passes a window's
//! end, the buffered sides are joined pairwise under the θ predicate and
//! every qualifying pair is emitted as a (partial) match. Overlapping
//! windows produce duplicate matches by design — the semantic equivalence
//! of Section 4 is modulo duplicates.
//!
//! Each tuple is buffered **once** per side in a key-partitioned
//! `KeyedSide`; window evaluation is *incremental* across overlapping
//! panes. When the watermark completes pane `[s, s+W)`, only the
//! slide-delta band `[s+W−slide, s+W)` of each buffer — the tuples no
//! earlier pane has probed — is joined against the other side's pane
//! range; a qualifying pair is found exactly once, in the first pane
//! containing both elements, and is emitted with the multiplicity of all
//! `(min_ts − s)/slide + 1` panes that contain it. The output multiset is
//! identical to rescanning every pane in full, but each tuple is probed
//! O(1) times instead of `W/slide` times (90 for the paper's ITER⁴
//! workload).
//!
//! Pairing is per *key* within the window: with the O3 equi-join
//! optimization the key is the matching attribute (sensor id) and the
//! join parallelizes; without it, a preceding uniform-key map degenerates
//! the operator to one global partition (Section 4.3.3). The key equality
//! is *structural*: a band tuple probes only its own key's ts-ordered run
//! on the opposite side, so per-pane work is O(band × matches-per-key)
//! instead of O(band × pane) — with K distinct keys the old global range
//! scan wasted ~K× of its probe work filtering `l.key == r.key` pair by
//! pair. Band scans iterate the sides' global `(ts, seq)` arrival index,
//! so the emission order is identical to the pre-partitioned layout. The
//! θ predicate (e.g. the sequence's `e1.ts < e2.ts`) is evaluated on top.
//!
//! Two plan-level properties trim the remaining work. An [`Emission`] mode
//! says whether a found pair is emitted once per containing pane (the
//! paper's raw output, [`Emission::PerPane`]) or once ([`Emission::Once`]
//! — for joins whose consumer would discard the byte-identical pane
//! copies anyway). A [`Probe`] direction lets a join whose θ implies an
//! order between the two sides' working timestamps skip the band probe
//! that can only find pairs θ rejects.

use crate::error::OpError;
use crate::operator::keyed_side::KeyedSide;
use crate::operator::{Collector, JoinPredicate, KeyedStateStats, Operator};
use crate::time::{Duration, Timestamp};
use crate::tuple::{TsRule, Tuple};
use crate::window::SlidingWindows;

/// How many copies of a qualifying pair a [`WindowJoinOp`] emits.
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

/// Which of a pane firing's two band probes a [`WindowJoinOp`] runs.
///
/// The left-band probe finds the pairs with `r.ts ≤ l.ts`, the right-band
/// probe those with `r.ts > l.ts` (working timestamps). When θ provably
/// rejects every pair of one kind, the probe that finds them is wasted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Probe {
    /// Probe from both bands (always correct).
    #[default]
    Both,
    /// θ implies `l.ts < r.ts`: only the right-band probe can qualify.
    LeftFirst,
    /// θ implies `r.ts < l.ts`: only the left-band probe can qualify.
    RightFirst,
}

/// The two-input sliding-window join operator.
pub struct WindowJoinOp {
    name: String,
    windows: SlidingWindows,
    theta: JoinPredicate,
    ts_rule: TsRule,
    emission: Emission,
    probe: Probe,
    left: KeyedSide,
    right: KeyedSide,
    seq: u64,
    /// Start of the next window to evaluate (aligned to the slide).
    next_fire: Timestamp,
    /// Exclusive upper bound of the buffer region already probed by a fired
    /// pane. Tuples below it were matched when *their* first pane fired, so
    /// later overlapping panes only probe the delta band above it.
    probed_hi: Timestamp,
    /// Optional hard cap on buffered state; exceeding it aborts the run.
    memory_limit: Option<usize>,
    emitted: u64,
}

impl WindowJoinOp {
    /// A sliding-window join over `windows`: per window, emit all pairs
    /// satisfying `theta`; output timestamps follow `ts_rule`.
    pub fn new(
        name: impl Into<String>,
        windows: SlidingWindows,
        theta: JoinPredicate,
        ts_rule: TsRule,
    ) -> Self {
        WindowJoinOp {
            name: name.into(),
            windows,
            theta,
            ts_rule,
            emission: Emission::PerPane,
            probe: Probe::Both,
            left: KeyedSide::default(),
            right: KeyedSide::default(),
            seq: 0,
            next_fire: Timestamp(0),
            probed_hi: Timestamp(0),
            memory_limit: None,
            emitted: 0,
        }
    }

    /// Emit each qualifying pair once per pane (the default) or once.
    pub fn with_emission(mut self, emission: Emission) -> Self {
        self.emission = emission;
        self
    }

    /// Restrict pane firings to one band probe. Only sound when θ
    /// rejects every pair the skipped probe would find (see [`Probe`]).
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Install a state budget (bytes); the run fails with
    /// [`OpError::MemoryExhausted`] when exceeded.
    pub fn with_memory_limit(mut self, bytes: usize) -> Self {
        self.memory_limit = Some(bytes);
        self
    }

    /// Matches emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn fire(&mut self, upto: Timestamp, out: &mut dyn Collector) {
        let w = Duration(self.windows.size.millis());
        let slide = Duration(self.windows.slide.millis());
        loop {
            // Jump over stretches with no buffered data.
            let earliest = match (self.left.earliest(), self.right.earliest()) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            let min_start = self.windows.first_window_start(earliest);
            if self.next_fire < min_start {
                self.next_fire = min_start;
            }
            let start = self.next_fire;
            // Window [start, start+W) is complete once wm ≥ start+W.
            if start.saturating_add(w) > upto {
                break;
            }
            let end = start.saturating_add(w);
            // Incremental pane evaluation: probe only the band the previous
            // panes have not seen. Every pair whose younger element is below
            // the band was found — with full multiplicity — when the first
            // pane containing both fired, so rescanning it here would only
            // duplicate output.
            let band_lo = self.probed_hi.max(start);
            {
                let theta = &self.theta;
                let ts_rule = self.ts_rule;
                let slide_ms = slide.millis();
                let per_pane = self.emission == Emission::PerPane;
                let mut emitted = 0u64;
                // A pair is found exactly once: by its band-resident left
                // against rights at `ts ≤ l.ts` (inclusive), or by its
                // band-resident right against strictly older lefts — the
                // two probes partition the pairs by which side is younger.
                // `start` is the first aligned pane containing the pair, so
                // it lives in `(min_ts − start)/slide + 1` panes total; all
                // copies are emitted here and later panes skip the pair.
                let mut pair = |l: &Tuple, r: &Tuple, emitted: &mut u64| {
                    // Key equality is structural: both tuples come from the
                    // same key's runs.
                    debug_assert_eq!(l.key, r.key);
                    if theta(l, r) {
                        let copies = if per_pane {
                            let mn = l.ts.min(r.ts);
                            ((mn.millis() - start.millis()).div_euclid(slide_ms) + 1) as u64
                        } else {
                            1
                        };
                        // One `join` allocates the composite's constituent
                        // list; `Tuple::events` is an `Arc`, so each extra
                        // pane copy is a refcount bump, not a heap copy.
                        let j = l.join(r, ts_rule);
                        for _ in 1..copies {
                            out.emit(j.clone());
                        }
                        out.emit(j);
                        *emitted += copies;
                    }
                };
                if self.probe != Probe::LeftFirst {
                    for l in self.left.band(band_lo, end) {
                        if let Some(rights) = self.right.run(l.key) {
                            for (_, r) in rights.range((start, 0)..=(l.ts, u64::MAX)) {
                                pair(l, r, &mut emitted);
                            }
                        }
                    }
                }
                if self.probe != Probe::RightFirst {
                    for r in self.right.band(band_lo, end) {
                        if let Some(lefts) = self.left.run(r.key) {
                            for (_, l) in lefts.range((start, 0)..(r.ts, 0)) {
                                pair(l, r, &mut emitted);
                            }
                        }
                    }
                }
                self.emitted += emitted;
            }
            self.probed_hi = self.probed_hi.max(end);
            // Tuples below the next window start can never appear again.
            self.next_fire = start.saturating_add(slide);
            self.left.evict_before(self.next_fire);
            self.right.evict_before(self.next_fire);
        }
    }

    fn check_limit(&mut self) -> Result<(), OpError> {
        let used = self.left.bytes() + self.right.bytes();
        if let Some(limit) = self.memory_limit {
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

impl Operator for WindowJoinOp {
    fn process(
        &mut self,
        input: usize,
        tuple: Tuple,
        _out: &mut dyn Collector,
    ) -> Result<(), OpError> {
        debug_assert!(input < 2, "window join has two ports");
        self.seq += 1;
        if input == 0 {
            self.left.insert(self.seq, tuple);
        } else {
            self.right.insert(self.seq, tuple);
        }
        self.check_limit()
    }

    fn on_watermark(
        &mut self,
        wm: Timestamp,
        out: &mut dyn Collector,
    ) -> Result<Timestamp, OpError> {
        self.fire(wm, out);
        // Watermark contract: all *future* emissions carry ts ≥ the
        // forwarded watermark. A window firing at some later wm' > wm has
        // start > wm − W, and emitted composites carry ts ≥ start under
        // every TsRule, so hold the forwarded watermark back by W.
        Ok(wm
            .saturating_sub(Duration(self.windows.size.millis()))
            .saturating_add(Duration(1)))
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
        Some(Box::new(WindowJoinHandoff {
            left: self.left.extract_keys(part),
            right: self.right.extract_keys(part),
            next_fire: self.next_fire,
            probed_hi: self.probed_hi,
        }))
    }

    /// Merge a sibling's extracted slot state. Both instances have fired
    /// every window ending at or below the same merged watermark `W` when
    /// the runtime aligns the handoff, so the cursors compose:
    ///
    /// * `next_fire` takes the **min** — the source may have advanced
    ///   further only past windows *it* had no data for, and re-walking a
    ///   window is free of duplicates because its band floor (`probed_hi`)
    ///   already covers every pair emitted there;
    /// * `probed_hi` takes the **max** — a row the source holds below the
    ///   target's probe floor cannot exist: every window ending ≤ `W` that
    ///   contains it fired on the source too, which would have pushed the
    ///   source's own floor past the row (and symmetrically for the
    ///   target's rows against the source's floor). So raising the floor
    ///   to the max never skips an unemitted pair.
    fn absorb_shard(&mut self, state: Box<dyn std::any::Any + Send>) -> Result<(), OpError> {
        let h = state
            .downcast::<WindowJoinHandoff>()
            .map_err(|_| OpError::Failed {
                operator: self.name.clone(),
                reason: "shard handoff payload is not WindowJoinHandoff state".to_string(),
            })?;
        self.next_fire = self.next_fire.min(h.next_fire);
        self.probed_hi = self.probed_hi.max(h.probed_hi);
        self.left.absorb(h.left, &mut self.seq);
        self.right.absorb(h.right, &mut self.seq);
        self.check_limit()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A slot's extracted [`WindowJoinOp`] state in flight between shard
/// instances: both sides' tuples for the migrated keys in arrival order,
/// plus the source's firing cursors.
struct WindowJoinHandoff {
    left: Vec<Tuple>,
    right: Vec<Tuple>,
    next_fire: Timestamp,
    probed_hi: Timestamp,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::testutil::tup;
    use crate::operator::{cross_join, VecCollector};
    use crate::time::Duration;
    use std::sync::Arc;

    fn seq_theta() -> JoinPredicate {
        Arc::new(|l: &Tuple, r: &Tuple| l.ts_end() < r.ts_begin())
    }

    fn run(op: &mut WindowJoinOp, feed: Vec<(usize, Tuple)>) -> Vec<Tuple> {
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
    fn tumbling_cross_join_pairs_within_window_only() {
        let mut op = WindowJoinOp::new(
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
        let mut op = WindowJoinOp::new(
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
        let mut op = WindowJoinOp::new(
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
        let mut op = WindowJoinOp::new(
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

    fn overlap_op(theta: JoinPredicate) -> WindowJoinOp {
        let windows = SlidingWindows::new(Duration::from_minutes(6), Duration::from_minutes(2));
        WindowJoinOp::new("⋈", windows, theta, TsRule::Min)
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
        // θ: l.ts < r.ts → only the right-band probe can qualify.
        let lt: JoinPredicate = Arc::new(|l: &Tuple, r: &Tuple| l.ts < r.ts);
        let both = run(&mut overlap_op(lt.clone()), overlap_feed());
        let one = run(
            &mut overlap_op(lt).with_probe(Probe::LeftFirst),
            overlap_feed(),
        );
        assert!(!both.is_empty());
        assert_eq!(multiset(&one), multiset(&both));
        // θ: r.ts < l.ts → only the left-band probe can qualify.
        let gt: JoinPredicate = Arc::new(|l: &Tuple, r: &Tuple| r.ts < l.ts);
        let both = run(&mut overlap_op(gt.clone()), overlap_feed());
        let one = run(
            &mut overlap_op(gt).with_probe(Probe::RightFirst),
            overlap_feed(),
        );
        assert!(!both.is_empty());
        assert_eq!(multiset(&one), multiset(&both));
    }

    #[test]
    fn each_probe_direction_finds_only_its_half() {
        // Under a cross join the two one-sided modes partition the pairs
        // by which side is younger; together they are the full output.
        let both = run(&mut overlap_op(cross_join()), overlap_feed());
        let right_band = run(
            &mut overlap_op(cross_join()).with_probe(Probe::LeftFirst),
            overlap_feed(),
        );
        let left_band = run(
            &mut overlap_op(cross_join()).with_probe(Probe::RightFirst),
            overlap_feed(),
        );
        assert!(right_band.iter().all(|t| t.events[0].ts < t.events[1].ts));
        assert!(left_band.iter().all(|t| t.events[1].ts <= t.events[0].ts));
        let mut union = right_band;
        union.extend(left_band);
        assert_eq!(multiset(&union), multiset(&both));
    }

    #[test]
    fn equi_join_pairs_only_matching_keys() {
        let mut op = WindowJoinOp::new(
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
        let mut op = WindowJoinOp::new(
            "⋈",
            SlidingWindows::tumbling(Duration::from_minutes(5)),
            cross_join(),
            TsRule::Max,
        );
        let mut col = VecCollector::default();
        op.process(0, tup(0, 0, 1, 1.0), &mut col).unwrap();
        op.process(1, tup(1, 0, 2, 2.0), &mut col).unwrap();
        assert!(op.state_bytes() > 0);
        op.on_watermark(Timestamp::from_minutes(5), &mut col)
            .unwrap();
        assert_eq!(op.state_bytes(), 0, "fired windows are evicted");
        assert_eq!(col.out.len(), 1);
    }

    #[test]
    fn keyed_state_reports_high_water_marks() {
        let mut op = WindowJoinOp::new(
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
        let mut op = WindowJoinOp::new(
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
        let mut op = WindowJoinOp::new(
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
        assert_eq!(op.emitted(), 20);
    }

    #[test]
    fn sparse_streams_skip_empty_windows() {
        // Events 10 000 minutes apart: the fire loop must jump, not crawl.
        let mut op = WindowJoinOp::new(
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
        let mut op = WindowJoinOp::new("⋈", windows, cross_join(), TsRule::Max);
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
        let mut op = WindowJoinOp::new("⋈", windows, cross_join(), TsRule::Max);
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
        let fresh = || WindowJoinOp::new("⋈", windows, cross_join(), TsRule::Max);
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
        let mut op = WindowJoinOp::new("⋈", windows, cross_join(), TsRule::Max);
        let mut col = VecCollector::default();
        op.process(0, tup(0, 1, 1, 1.0), &mut col).unwrap();
        op.process(1, tup(1, 1, 2, 2.0), &mut col).unwrap();
        let before = op.state_bytes();
        let h = op.extract_shard(&|_| false).expect("supported");
        assert_eq!(op.state_bytes(), before, "no keys matched: state intact");
        let mut other = WindowJoinOp::new("⋈", windows, cross_join(), TsRule::Max);
        other.absorb_shard(h).unwrap();
        assert_eq!(other.state_bytes(), 0);
        op.on_finish(&mut col).unwrap();
        assert_eq!(col.out.len(), 1, "pair still fires on the source");
    }
}
