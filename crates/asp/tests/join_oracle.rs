//! Property-based equivalence of the key-partitioned joins against naive
//! reference oracles.
//!
//! The band join buffers its sides in hash-partitioned, ts-ordered per-key
//! runs and finds each pair when its later element arrives; a sliding join
//! admits a candidate by the pane rule instead of rescanning panes when
//! the watermark closes them. These are pure layout/scheduling
//! optimizations: the output *multiset* must be identical to the textbook
//! evaluation. The oracles
//! here do it the slow, obviously-correct way — enumerate every
//! left × right pair, re-derive window membership (with pane multiplicity)
//! or interval containment from scratch — and the property compares full
//! sorted multisets of match keys, so lost duplicates, extra duplicates,
//! cross-key leaks, and premature eviction all fail.
//!
//! Random dimensions: key cardinality (including the uniform-key K = 1
//! degenerate case of Section 4.3.3), timestamp distribution, window
//! size × slide, interval bound shape (sequence / conjunction), θ, and
//! watermark cadence (`wm_every` — the per-batch punctuation analog, which
//! varies how aggressively state is evicted mid-stream), and cross-port
//! arrival skew: between two watermarks tuples may arrive in any order, so
//! a right can arrive before older lefts.
//!
//! The sliding join's two plan-level modes are held to the same oracle:
//! emit-once output must be the distinct set of both the per-pane output
//! and the naive reference, and a one-sided band must reproduce the
//! two-sided `(−W, W)` output whenever θ implies the order it relies on.

#![allow(clippy::unwrap_used)]

use asp::event::{Event, EventType};
use asp::operator::{
    cross_join, Collector, Emission, IntervalBounds, IntervalJoinOp, JoinPredicate, Operator,
};
use asp::time::{Duration, Timestamp};
use asp::tuple::{MatchKey, TsRule, Tuple};
use asp::window::SlidingWindows;
use proptest::prelude::*;
use std::sync::Arc;

/// (port, key, minute, value) — one join input.
type Item = (usize, u32, i64, u32);

#[derive(Default)]
struct Sink {
    out: Vec<Tuple>,
}

impl Collector for Sink {
    fn emit(&mut self, t: Tuple) {
        self.out.push(t);
    }
}

fn tuple_of(key: u32, minute: i64, value: u32, port: usize) -> Tuple {
    let mut t = Tuple::from_event(Event::new(
        EventType(port as u16),
        key,
        Timestamp::from_minutes(minute),
        value as f64,
    ));
    t.key = key as u64;
    t
}

/// Drive an operator the way the runtime does: tuples in timestamp order
/// (the runtime drops late tuples before they reach an operator), with a
/// punctuated watermark every `wm_every` tuples and a final flush.
fn run_op(op: &mut dyn Operator, items: &[Item], wm_every: usize) -> Vec<MatchKey> {
    run_op_skewed(op, items, wm_every, false)
}

/// [`run_op`], optionally with arrival skew: each batch of `wm_every`
/// tuples between two watermarks arrives newest first. Nothing is late —
/// every tuple is at or after the last watermark — but later tuples, on
/// either port, overtake older ones.
fn run_op_skewed(
    op: &mut dyn Operator,
    items: &[Item],
    wm_every: usize,
    skew: bool,
) -> Vec<MatchKey> {
    let mut sorted = items.to_vec();
    sorted.sort_by_key(|&(_, _, m, _)| m);
    let mut sink = Sink::default();
    for batch in sorted.chunks(wm_every) {
        let mut arrival = batch.to_vec();
        if skew {
            arrival.reverse();
        }
        for &(port, key, minute, value) in &arrival {
            op.process(port, tuple_of(key, minute, value, port), &mut sink)
                .unwrap();
        }
        if batch.len() == wm_every {
            let (_, _, newest, _) = batch[batch.len() - 1];
            op.on_watermark(Timestamp::from_minutes(newest), &mut sink)
                .unwrap();
        }
    }
    op.on_finish(&mut sink).unwrap();
    let mut keys: Vec<MatchKey> = sink.out.iter().map(Tuple::match_key).collect();
    keys.sort();
    keys
}

fn theta_of(use_seq: bool) -> JoinPredicate {
    if use_seq {
        Arc::new(|l: &Tuple, r: &Tuple| l.ts_end() < r.ts_begin())
    } else {
        cross_join()
    }
}

/// Naive sliding-window reference: every left × right pair, same key, θ —
/// emitted once per aligned pane `[k·s, k·s + W)` containing both.
fn window_reference(items: &[Item], windows: SlidingWindows, use_seq: bool) -> Vec<MatchKey> {
    window_reference_with(items, windows, &theta_of(use_seq), Emission::PerPane)
}

/// The naive reference under either emission mode: [`Emission::Once`]
/// emits each qualifying *pair* once (byte-identical inputs still make
/// distinct pairs, so this is not the distinct set of match keys).
fn window_reference_with(
    items: &[Item],
    windows: SlidingWindows,
    theta: &JoinPredicate,
    emission: Emission,
) -> Vec<MatchKey> {
    let lefts: Vec<Tuple> = items
        .iter()
        .filter(|i| i.0 == 0)
        .map(|&(p, k, m, v)| tuple_of(k, m, v, p))
        .collect();
    let rights: Vec<Tuple> = items
        .iter()
        .filter(|i| i.0 == 1)
        .map(|&(p, k, m, v)| tuple_of(k, m, v, p))
        .collect();
    let mut keys = Vec::new();
    for l in &lefts {
        for r in &rights {
            if l.key != r.key || !theta(l, r) {
                continue;
            }
            let (mn, mx) = (l.ts.min(r.ts), l.ts.max(r.ts));
            // Panes containing both = panes assigned to the earlier element
            // whose end also covers the later one.
            let mut panes = windows.assign(mn).filter(|wid| mx < wid.end).count();
            if emission == Emission::Once {
                panes = panes.min(1);
            }
            let key = l.join(r, TsRule::Max).match_key();
            keys.extend(std::iter::repeat(key).take(panes));
        }
    }
    keys.sort();
    keys
}

/// Naive interval reference: every left × right pair, same key, θ, with
/// `r.ts − l.ts` strictly inside the bounds — exactly once (the interval
/// join is duplicate-free by construction).
fn interval_reference(items: &[Item], bounds: IntervalBounds, use_seq: bool) -> Vec<MatchKey> {
    let theta = theta_of(use_seq);
    let mut keys = Vec::new();
    for &(lp, lk, lm, lv) in items.iter().filter(|i| i.0 == 0) {
        for &(rp, rk, rm, rv) in items.iter().filter(|i| i.0 == 1) {
            let (l, r) = (tuple_of(lk, lm, lv, lp), tuple_of(rk, rm, rv, rp));
            if l.key != r.key || !theta(&l, &r) {
                continue;
            }
            if bounds.contains(l.ts, r.ts) {
                keys.push(l.join(&r, TsRule::Max).match_key());
            }
        }
    }
    keys.sort();
    keys
}

/// θ implying an order between the sides' working timestamps, with the
/// one-sided band it licenses: `l < r` (a sequence) or `r < l` (a
/// reordered sequence).
fn ordered_theta(left_first: bool, w: Duration) -> (JoinPredicate, IntervalBounds) {
    if left_first {
        (
            Arc::new(|l: &Tuple, r: &Tuple| l.ts_end() < r.ts_begin()),
            IntervalBounds::seq(w),
        )
    } else {
        (
            Arc::new(|l: &Tuple, r: &Tuple| r.ts_end() < l.ts_begin()),
            IntervalBounds::seq_mirror(w),
        )
    }
}

fn emission_of(once: bool) -> Emission {
    if once {
        Emission::Once
    } else {
        Emission::PerPane
    }
}

fn distinct(keys: &[MatchKey]) -> Vec<MatchKey> {
    let mut keys = keys.to_vec();
    keys.dedup();
    keys
}

/// Key cardinality 1..=5: K = 1 forces every tuple into one run (the
/// uniform-key degenerate case); larger K exercises cross-key isolation.
fn arb_items(max_key: u32) -> impl Strategy<Value = Vec<Item>> {
    proptest::collection::vec((0usize..2, 0..max_key, 0i64..40, 0u32..50), 4..70)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        ..ProptestConfig::default()
    })]

    #[test]
    fn window_join_matches_rescanning_reference(
        max_key in 1u32..=5,
        items in arb_items(5),
        w_min in 1i64..=6,
        slide_div in 1i64..=4,
        use_seq in any::<bool>(),
        once in any::<bool>(),
        wm_every in 1usize..=8,
    ) {
        let items: Vec<Item> =
            items.into_iter().map(|(p, k, m, v)| (p, k % max_key, m, v)).collect();
        let slide = Duration::from_minutes((w_min / slide_div).max(1));
        let windows = SlidingWindows::new(Duration::from_minutes(w_min), slide);
        let emission = emission_of(once);
        let mut op = IntervalJoinOp::sliding("⋈", windows, theta_of(use_seq), TsRule::Max)
            .with_emission(emission);
        let got = run_op(&mut op, &items, wm_every);
        let want = window_reference_with(&items, windows, &theta_of(use_seq), emission);
        prop_assert_eq!(got, want);
        prop_assert_eq!(op.state_bytes(), 0, "full eviction after finish");
    }

    #[test]
    fn arrival_skew_inside_the_watermark_matches_reference(
        max_key in 1u32..=5,
        items in arb_items(5),
        w_min in 1i64..=6,
        slide_div in 1i64..=4,
        use_seq in any::<bool>(),
        once in any::<bool>(),
        wm_every in 1usize..=8,
    ) {
        // Pane-end firing saw every pane complete; arrival probing must
        // also find the pairs whose right overtook older lefts.
        let items: Vec<Item> =
            items.into_iter().map(|(p, k, m, v)| (p, k % max_key, m, v)).collect();
        let w = Duration::from_minutes(w_min);
        let slide = Duration::from_minutes((w_min / slide_div).max(1));
        let windows = SlidingWindows::new(w, slide);
        let emission = emission_of(once);
        let mut sliding = IntervalJoinOp::sliding("⋈", windows, theta_of(use_seq), TsRule::Max)
            .with_emission(emission);
        prop_assert_eq!(
            run_op_skewed(&mut sliding, &items, wm_every, true),
            window_reference_with(&items, windows, &theta_of(use_seq), emission)
        );
        let bounds = IntervalBounds::conjunction(w);
        let mut interval = IntervalJoinOp::new("i⋈", bounds, theta_of(use_seq), TsRule::Max);
        prop_assert_eq!(
            run_op_skewed(&mut interval, &items, wm_every, true),
            interval_reference(&items, bounds, use_seq)
        );
    }

    #[test]
    fn interval_join_matches_pairwise_reference(
        max_key in 1u32..=5,
        items in arb_items(5),
        w_min in 1i64..=6,
        conjunction in any::<bool>(),
        use_seq in any::<bool>(),
        wm_every in 1usize..=8,
    ) {
        let items: Vec<Item> =
            items.into_iter().map(|(p, k, m, v)| (p, k % max_key, m, v)).collect();
        let w = Duration::from_minutes(w_min);
        let bounds = if conjunction {
            IntervalBounds::conjunction(w)
        } else {
            IntervalBounds::seq(w)
        };
        let mut op = IntervalJoinOp::new("i⋈", bounds, theta_of(use_seq), TsRule::Max);
        let got = run_op(&mut op, &items, wm_every);
        let want = interval_reference(&items, bounds, use_seq);
        prop_assert_eq!(got, want);
        prop_assert_eq!(op.state_bytes(), 0, "full eviction after finish");
    }

    #[test]
    fn emit_once_is_the_distinct_set_of_per_pane_and_reference(
        max_key in 1u32..=5,
        items in arb_items(5),
        w_min in 1i64..=6,
        slide_div in 1i64..=4,
        use_seq in any::<bool>(),
        wm_every in 1usize..=8,
    ) {
        let items: Vec<Item> =
            items.into_iter().map(|(p, k, m, v)| (p, k % max_key, m, v)).collect();
        let slide = Duration::from_minutes((w_min / slide_div).max(1));
        let windows = SlidingWindows::new(Duration::from_minutes(w_min), slide);
        let mut per_pane = IntervalJoinOp::sliding("⋈", windows, theta_of(use_seq), TsRule::Min);
        let mut once = IntervalJoinOp::sliding("⋈", windows, theta_of(use_seq), TsRule::Min)
            .with_emission(Emission::Once);
        let got = run_op(&mut once, &items, wm_every);
        let multi = run_op(&mut per_pane, &items, wm_every);
        prop_assert_eq!(distinct(&got), distinct(&multi));
        prop_assert_eq!(
            distinct(&got),
            distinct(&window_reference(&items, windows, use_seq))
        );
        let theta = theta_of(use_seq);
        prop_assert_eq!(got, window_reference_with(&items, windows, &theta, Emission::Once));
        prop_assert_eq!(once.state_bytes(), 0, "full eviction after finish");
    }

    #[test]
    fn one_sided_probe_matches_two_sided_when_theta_implies_order(
        max_key in 1u32..=5,
        items in arb_items(5),
        w_min in 1i64..=6,
        slide_div in 1i64..=4,
        left_first in any::<bool>(),
        once in any::<bool>(),
        wm_every in 1usize..=8,
    ) {
        let items: Vec<Item> =
            items.into_iter().map(|(p, k, m, v)| (p, k % max_key, m, v)).collect();
        let w = Duration::from_minutes(w_min);
        let slide = Duration::from_minutes((w_min / slide_div).max(1));
        let windows = SlidingWindows::new(w, slide);
        let emission = emission_of(once);
        let (theta, band) = ordered_theta(left_first, w);
        let mut both = IntervalJoinOp::sliding("⋈", windows, theta.clone(), TsRule::Min)
            .with_emission(emission);
        let mut one = IntervalJoinOp::sliding("⋈", windows, theta.clone(), TsRule::Min)
            .with_emission(emission)
            .with_bounds(band);
        let got = run_op(&mut one, &items, wm_every);
        prop_assert_eq!(&got, &run_op(&mut both, &items, wm_every));
        prop_assert_eq!(got, window_reference_with(&items, windows, &theta, emission));
        prop_assert_eq!(one.state_bytes(), 0, "full eviction after finish");
    }
}
