//! Batching must be invisible: the sink's tuple multiset is identical for
//! every `batch_size` and with operator chaining on or off.
//!
//! One pipeline per Section-5 join flavor — window join, interval join
//! (SEQ), and negation (NSEQ's next-occurrence UDF) — each executed across
//! `batch_size ∈ {1, 7, 64, 1024}` × chaining {on, off}. The 1024 case
//! exceeds the total event count, so the End/idle flush paths (not the
//! size trigger) deliver everything. CI runs this suite with
//! `--features invariant-checks` as well, so the flush protocol is also
//! validated against the emission-floor and watermark-regression asserts.

#![allow(clippy::unwrap_used)] // test code

use std::sync::Arc;

use asp::event::{Event, EventType};
use asp::graph::{Exchange, GraphBuilder, SinkId};
use asp::operator::{
    cross_join, FilterOp, IntervalBounds, IntervalJoinOp, NextOccurrenceOp, UnaryPredicate,
};
use asp::runtime::{Executor, ExecutorConfig};
use asp::time::{Duration, Timestamp};
use asp::tuple::{MatchKey, TsRule, Tuple};
use asp::window::SlidingWindows;

const BATCH_SIZES: [usize; 4] = [1, 7, 64, 1024];

fn events(etype: u16, ids: &[u32], minutes: std::ops::Range<i64>) -> Vec<Event> {
    let mut out = Vec::new();
    for m in minutes {
        for &id in ids {
            out.push(Event::new(
                EventType(etype),
                id,
                Timestamp::from_minutes(m),
                (m as f64) + id as f64 / 100.0,
            ));
        }
    }
    out
}

fn sorted_keys(tuples: &[Tuple]) -> Vec<MatchKey> {
    let mut keys: Vec<MatchKey> = tuples.iter().map(Tuple::match_key).collect();
    keys.sort();
    keys
}

/// Run `build` under every (batch_size, chaining) combination and assert
/// the sorted match-key multiset never changes.
fn assert_batch_invariant(name: &str, build: impl Fn() -> (GraphBuilder, SinkId)) {
    let run = |batch_size: usize, chaining: bool| {
        let (g, sink) = build();
        let cfg = ExecutorConfig {
            batch_size,
            operator_chaining: chaining,
            ..ExecutorConfig::default()
        };
        let mut report = Executor::new(cfg).run(g).unwrap();
        sorted_keys(&report.take_sink(sink))
    };
    let reference = run(BATCH_SIZES[0], true);
    assert!(
        !reference.is_empty(),
        "{name}: pipeline produced no matches"
    );
    for chaining in [true, false] {
        for batch_size in BATCH_SIZES {
            let got = run(batch_size, chaining);
            assert_eq!(
                got, reference,
                "{name}: result diverged at batch_size={batch_size}, chaining={chaining}"
            );
        }
    }
}

/// Sliding window join (paper Section 4.1, SEQ-as-join): overlapping panes,
/// keyed parallelism 2, so hash routes with multiple senders are exercised.
#[test]
fn window_join_multiset_is_batch_invariant() {
    assert_batch_invariant("window-join", || {
        let mut g = GraphBuilder::new();
        let a = g.source("a", events(0, &[1, 2, 3], 0..40), 1);
        let b = g.source("b", events(1, &[1, 2, 3], 0..40), 1);
        let j = g.binary(
            a,
            b,
            Exchange::Hash,
            2,
            Box::new(|_| {
                Box::new(IntervalJoinOp::sliding(
                    "⋈w",
                    SlidingWindows::new(Duration::from_minutes(6), Duration::from_minutes(2)),
                    cross_join(),
                    TsRule::Max,
                ))
            }),
        );
        let sink = g.sink(j, Exchange::Hash);
        (g, sink)
    });
}

/// Interval join with SEQ bounds (`0 < r.ts − l.ts ≤ W`), fed through a
/// filter so chaining has something to fuse.
#[test]
fn interval_join_multiset_is_batch_invariant() {
    assert_batch_invariant("interval-join", || {
        let mut g = GraphBuilder::new();
        let a = g.source("a", events(0, &[1, 2], 0..50), 1);
        let fa = g.unary(
            a,
            Exchange::Forward,
            1,
            Box::new(|_| {
                Box::new(FilterOp::new(
                    "σ",
                    Arc::new(|t: &Tuple| t.events[0].value < 45.0),
                ))
            }),
        );
        let b = g.source("b", events(1, &[1, 2], 0..50), 1);
        let j = g.binary(
            fa,
            b,
            Exchange::Hash,
            2,
            Box::new(|_| {
                Box::new(IntervalJoinOp::new(
                    "⋈i",
                    IntervalBounds::seq(Duration::from_minutes(4)),
                    cross_join(),
                    TsRule::Right,
                ))
            }),
        );
        let sink = g.sink(j, Exchange::Hash);
        (g, sink)
    });
}

/// Negation via the NSEQ next-occurrence UDF: triggers every minute,
/// markers every 7th minute; a trigger survives iff no marker lands within
/// the 5-minute window after it.
#[test]
fn negation_multiset_is_batch_invariant() {
    assert_batch_invariant("negation", || {
        let mut g = GraphBuilder::new();
        let triggers = g.source("t", events(0, &[1], 0..60), 1);
        let markers: Vec<Event> = events(1, &[1], 0..60)
            .into_iter()
            .filter(|e| e.ts.millis() % (7 * asp::time::MINUTE_MS) == 0)
            .collect();
        let msrc = g.source("m", markers, 1);
        let is_trigger: UnaryPredicate = Arc::new(|t: &Tuple| t.events[0].etype == EventType(0));
        let is_marker: UnaryPredicate = Arc::new(|t: &Tuple| t.events[0].etype == EventType(1));
        let n = g.nary(
            &[(triggers, Exchange::Rebalance), (msrc, Exchange::Rebalance)],
            1,
            Box::new(move |_| {
                Box::new(NextOccurrenceOp::new(
                    "nextOcc",
                    is_trigger.clone(),
                    is_marker.clone(),
                    Duration::from_minutes(5),
                ))
            }),
        );
        let sink = g.sink(n, Exchange::Forward);
        (g, sink)
    });
}
