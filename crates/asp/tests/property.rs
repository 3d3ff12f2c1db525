//! Property-based tests of the individual operators against brute-force
//! reference semantics.

#![allow(clippy::unwrap_used)] // test code

use std::sync::Arc;

use asp::event::{Event, EventType};
use asp::operator::{
    cross_join, DedupOp, IntervalBounds, IntervalJoinOp, Operator, VecCollector, WindowAggregateOp,
};
use asp::time::{Duration, Timestamp, MINUTE_MS};
use asp::tuple::{MatchKey, TsRule, Tuple};
use asp::window::SlidingWindows;
use proptest::prelude::*;

fn ev(side: u16, id: u32, minute: i64, v: u32) -> Event {
    Event::new(
        EventType(side),
        id,
        Timestamp::from_minutes(minute),
        v as f64,
    )
}

fn arb_side_events(side: u16) -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec((0u32..3, 0i64..30, 0u32..100), 0..25).prop_map(move |v| {
        let mut out: Vec<Event> = v
            .into_iter()
            .map(|(id, m, val)| ev(side, id, m, val))
            .collect();
        out.sort_by_key(|e| e.ts);
        out
    })
}

/// Drive a two-input operator with ts-merged feeds and per-event
/// watermarks; returns emissions.
fn drive_two(op: &mut dyn Operator, left: &[Event], right: &[Event]) -> Vec<Tuple> {
    let mut feed: Vec<(usize, Event)> = left
        .iter()
        .map(|e| (0usize, *e))
        .chain(right.iter().map(|e| (1usize, *e)))
        .collect();
    feed.sort_by_key(|(_, e)| e.ts);
    let mut col = VecCollector::default();
    let mut wm = Timestamp::MIN;
    for (port, e) in feed {
        wm = wm.max(e.ts);
        op.process(port, Tuple::from_event(e), &mut col).unwrap();
        op.on_watermark(wm, &mut col).unwrap();
    }
    op.on_finish(&mut col).unwrap();
    col.out
}

fn keys_of(tuples: &[Tuple]) -> Vec<MatchKey> {
    let mut k: Vec<MatchKey> = tuples.iter().map(Tuple::match_key).collect();
    k.sort();
    k
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Sliding-window join ≡ brute-force per-window enumeration (with
    /// duplicates), for random streams, windows, and slides.
    #[test]
    fn window_join_matches_brute_force(
        left in arb_side_events(0),
        right in arb_side_events(1),
        w_min in 1i64..8,
        s_min in 1i64..4,
    ) {
        prop_assume!(s_min <= w_min);
        let windows = SlidingWindows::new(
            Duration::from_minutes(w_min),
            Duration::from_minutes(s_min),
        );
        let mut op = IntervalJoinOp::sliding("⋈", windows, cross_join(), TsRule::Max);
        let got = keys_of(&drive_two(&mut op, &left, &right));

        // Brute force over all aligned windows intersecting the data.
        let mut want: Vec<MatchKey> = Vec::new();
        let horizon = 40 * MINUTE_MS;
        let mut start = 0;
        while start < horizon {
            let in_win = |e: &Event| {
                e.ts.millis() >= start && e.ts.millis() < start + w_min * MINUTE_MS
            };
            for l in left.iter().filter(|e| in_win(e)) {
                for r in right.iter().filter(|e| in_win(e)) {
                    if l.id == r.id {
                        want.push(MatchKey(vec![*l, *r]));
                    }
                }
            }
            start += s_min * MINUTE_MS;
        }
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// Interval join ≡ its bounds definition, duplicate-free.
    #[test]
    fn interval_join_matches_definition(
        left in arb_side_events(0),
        right in arb_side_events(1),
        w_min in 1i64..8,
        conjunction in any::<bool>(),
    ) {
        let w = Duration::from_minutes(w_min);
        let bounds = if conjunction {
            IntervalBounds::conjunction(w)
        } else {
            IntervalBounds::seq(w)
        };
        let mut op = IntervalJoinOp::new("i⋈", bounds, cross_join(), TsRule::Min);
        let got = keys_of(&drive_two(&mut op, &left, &right));

        let lower = if conjunction { -w.millis() } else { 0 };
        let mut want: Vec<MatchKey> = Vec::new();
        for l in &left {
            for r in &right {
                let d = (r.ts - l.ts).millis();
                if l.id == r.id && d > lower && d < w.millis() {
                    want.push(MatchKey(vec![*l, *r]));
                }
            }
        }
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// Count aggregation ≡ brute-force per-window counts.
    #[test]
    fn aggregate_count_matches_brute_force(
        events in arb_side_events(0),
        w_min in 1i64..8,
        m in 1u64..5,
    ) {
        let windows = SlidingWindows::new(
            Duration::from_minutes(w_min),
            Duration::from_minutes(1),
        );
        let mut op = WindowAggregateOp::count_at_least("γ", windows, m);
        let mut col = VecCollector::default();
        for e in &events {
            let wm = e.ts;
            op.process(0, Tuple::from_event(*e), &mut col).unwrap();
            op.on_watermark(wm, &mut col).unwrap();
        }
        op.on_finish(&mut col).unwrap();

        // Brute force: per (aligned window, key), count; emit if ≥ m.
        let mut want = 0usize;
        for start_min in 0..40 {
            let start = start_min * MINUTE_MS;
            for id in 0..3u32 {
                let count = events
                    .iter()
                    .filter(|e| {
                        e.id == id
                            && e.ts.millis() >= start
                            && e.ts.millis() < start + w_min * MINUTE_MS
                    })
                    .count() as u64;
                if count >= m {
                    want += 1;
                }
            }
        }
        prop_assert_eq!(col.out.len(), want);
        for t in &col.out {
            prop_assert!(t.agg.unwrap() >= m as f64);
        }
    }

    /// Dedup emits exactly the distinct match keys of its input when all
    /// duplicates fall within the horizon.
    #[test]
    fn dedup_emits_distinct_keys(
        events in arb_side_events(0),
        copies in 1usize..4,
    ) {
        let mut op = DedupOp::new("δ", Duration::from_minutes(60));
        let mut col = VecCollector::default();
        for _ in 0..copies {
            for e in &events {
                op.process(0, Tuple::from_event(*e), &mut col).unwrap();
            }
        }
        op.on_finish(&mut col).unwrap();
        let mut distinct: Vec<MatchKey> = events.iter().map(|e| MatchKey(vec![*e])).collect();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(keys_of(&col.out), distinct);
    }

    /// Chaining operators ≡ applying them sequentially.
    #[test]
    fn chained_equals_sequential(events in arb_side_events(0), threshold in 0.0f64..100.0) {
        use asp::operator::{FilterOp, MapOp};
        use asp::runtime::ChainedOperator;
        let filt = || -> Box<dyn Operator> {
            let t = threshold;
            Box::new(FilterOp::new("σ", Arc::new(move |tp: &Tuple| tp.events[0].value <= t)))
        };
        let map = || -> Box<dyn Operator> {
            Box::new(MapOp::new(
                "Π",
                Arc::new(|mut t: Tuple| {
                    t.key = 9;
                    t
                }),
            ))
        };
        // Chained.
        let mut chain = ChainedOperator::new(vec![filt(), map()]);
        let mut got = VecCollector::default();
        for e in &events {
            chain.process(0, Tuple::from_event(*e), &mut got).unwrap();
        }
        chain.on_finish(&mut got).unwrap();
        // Sequential.
        let (mut f, mut m) = (filt(), map());
        let mut mid = VecCollector::default();
        for e in &events {
            f.process(0, Tuple::from_event(*e), &mut mid).unwrap();
        }
        let mut want = VecCollector::default();
        for t in mid.out {
            m.process(0, t, &mut want).unwrap();
        }
        prop_assert_eq!(got.out.len(), want.out.len());
        prop_assert!(got.out.iter().all(|t| t.key == 9));
    }
}

// ---------------------------------------------------------------------------
// Graph-validator properties: random well-formed graphs pass validation, and
// single structural mutations are flagged with the expected `G` code.
// ---------------------------------------------------------------------------

mod validator {
    use super::*;
    use asp::graph::{Exchange, GraphBuilder, NodeId};
    use asp::validate::{validate, Code};

    /// A pure-data description of a linear pipeline (proptest strategies
    /// need `Clone + Debug`, which `GraphBuilder` itself cannot be).
    #[derive(Debug, Clone)]
    struct ChainSpec {
        src_parallelism: usize,
        /// Per operator stage: (parallelism, prefer `Forward` exchange).
        /// `Forward` is only used when legal (equal parallelism upstream).
        stages: Vec<(usize, bool)>,
    }

    fn arb_chain() -> impl Strategy<Value = ChainSpec> {
        (
            1usize..4,
            proptest::collection::vec((1usize..4, any::<bool>()), 1..5),
        )
            .prop_map(|(src_parallelism, stages)| ChainSpec {
                src_parallelism,
                stages,
            })
    }

    /// Build the described graph. Returns the builder and the operator
    /// `NodeId`s in stage order (the source is node 0; edge `i` connects
    /// stage `i-1` to stage `i`; the last edge feeds the sink).
    fn build(spec: &ChainSpec) -> (GraphBuilder, Vec<NodeId>) {
        let mut g = GraphBuilder::new();
        let events = vec![Event::new(EventType(0), 1, Timestamp::from_minutes(0), 1.0)];
        let mut prev = g.source("src", events, spec.src_parallelism);
        let mut prev_par = spec.src_parallelism;
        let mut ops = Vec::new();
        for &(par, forward) in &spec.stages {
            let exchange = if forward && par == prev_par {
                Exchange::Forward
            } else {
                Exchange::Rebalance
            };
            prev = g.unary(
                prev,
                exchange,
                par,
                Box::new(|_| Box::new(asp::operator::MapOp::new("id", Arc::new(|t| t)))),
            );
            ops.push(prev);
            prev_par = par;
        }
        g.sink(prev, Exchange::Rebalance);
        (g, ops)
    }

    fn codes(g: &GraphBuilder) -> Vec<Code> {
        match validate(g) {
            Ok(()) => Vec::new(),
            Err(diags) => diags.iter().map(|d| d.code).collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Every graph the generator can produce is well formed.
        #[test]
        fn random_chain_graphs_pass_validation(spec in arb_chain()) {
            let (g, _) = build(&spec);
            prop_assert!(validate(&g).is_ok());
        }

        /// Dropping any edge leaves its destination without an input: G011.
        #[test]
        fn dropped_edge_is_flagged(spec in arb_chain(), pick in 0usize..64) {
            let (mut g, _) = build(&spec);
            let idx = pick % g.edge_count();
            g.drop_edge(idx);
            prop_assert!(codes(&g).contains(&Code::NoInputs));
        }

        /// Zeroing any node's parallelism: G007.
        #[test]
        fn zero_parallelism_is_flagged(spec in arb_chain(), pick in 0usize..64) {
            let (mut g, ops) = build(&spec);
            let node = ops[pick % ops.len()];
            g.set_parallelism(node, 0);
            prop_assert!(codes(&g).contains(&Code::ZeroParallelism));
        }

        /// Bumping the parallelism of a `Forward`-fed stage: G005.
        #[test]
        fn forward_mismatch_is_flagged(spec in arb_chain(), pick in 0usize..64) {
            // Force at least one legal Forward edge into the chain.
            let mut spec = spec;
            spec.stages.insert(0, (spec.src_parallelism, true));
            let (mut g, ops) = build(&spec);
            let _ = pick;
            g.set_parallelism(ops[0], spec.src_parallelism + 1);
            prop_assert!(codes(&g).contains(&Code::ForwardParallelismMismatch));
        }

        /// Duplicating any edge duplicates a destination port: G004.
        #[test]
        fn duplicated_port_is_flagged(spec in arb_chain(), pick in 0usize..64) {
            let (mut g, _) = build(&spec);
            let idx = pick % g.edge_count();
            g.duplicate_edge(idx);
            prop_assert!(codes(&g).contains(&Code::PortGapOrDuplicate));
        }
    }
}
