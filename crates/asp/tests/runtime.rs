//! End-to-end tests of the threaded dataflow runtime: watermark merging,
//! keyed parallelism, backpressure, failure propagation, and metrics.

#![allow(clippy::unwrap_used)] // test code

use std::sync::Arc;

use asp::event::{Event, EventType};
use asp::graph::{Exchange, GraphBuilder};
use asp::operator::{cross_join, FilterOp, IntervalJoinOp, MapOp, UnionOp};
use asp::runtime::{key_partition, Executor, ExecutorConfig};
use asp::time::{Duration, Timestamp};
use asp::tuple::{MatchKey, TsRule, Tuple};
use asp::window::SlidingWindows;

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

#[test]
fn filter_pipeline_end_to_end() {
    let mut g = GraphBuilder::new();
    let src = g.source("s", events(0, &[1], 0..100), 1);
    let f = g.unary(
        src,
        Exchange::Forward,
        1,
        Box::new(|_| {
            Box::new(FilterOp::new(
                "σ",
                Arc::new(|t: &Tuple| t.events[0].value >= 50.0),
            ))
        }),
    );
    let sink = g.sink(f, Exchange::Forward);
    let report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
    assert_eq!(report.sink_count(sink), 50);
    assert_eq!(report.source_events, 100);
    assert!(report.throughput() > 0.0);
}

#[test]
fn union_merges_sources_with_aligned_watermarks() {
    let mut g = GraphBuilder::new();
    let a = g.source("a", events(0, &[1], 0..50), 1);
    let b = g.source("b", events(1, &[2], 0..50), 1);
    let u = g.nary(
        &[(a, Exchange::Forward), (b, Exchange::Forward)],
        1,
        Box::new(|_| Box::new(UnionOp::new("∪", 2))),
    );
    let sink = g.sink(u, Exchange::Forward);
    let report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
    assert_eq!(report.sink_count(sink), 100);
}

/// A tumbling join over two sources must produce exactly the cross product
/// per window, regardless of thread interleaving.
#[test]
fn window_join_pipeline_is_deterministic() {
    let run = || {
        let mut g = GraphBuilder::new();
        let a = g.source("a", events(0, &[1], 0..40), 1);
        let b = g.source("b", events(1, &[1], 0..40), 1);
        let j = g.binary(
            a,
            b,
            Exchange::Hash,
            1,
            Box::new(|_| {
                Box::new(IntervalJoinOp::sliding(
                    "⋈",
                    SlidingWindows::tumbling(Duration::from_minutes(10)),
                    cross_join(),
                    TsRule::Max,
                ))
            }),
        );
        let sink = g.sink(j, Exchange::Forward);
        let mut report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
        sorted_keys(&report.take_sink(sink))
    };
    let first = run();
    // 4 windows × 10 × 10 pairs.
    assert_eq!(first.len(), 400);
    for _ in 0..3 {
        assert_eq!(run(), first, "same matches on every run");
    }
}

/// Keyed parallel execution must produce exactly the same matches as the
/// single-slot execution (co-partitioning correctness).
#[test]
fn keyed_parallelism_preserves_semantics() {
    let ids: Vec<u32> = (0..16).collect();
    let run = |par: usize| {
        let mut g = GraphBuilder::new();
        let a = g.source("a", events(0, &ids, 0..30), 1);
        let b = g.source("b", events(1, &ids, 0..30), 1);
        let j = g.binary(
            a,
            b,
            Exchange::Hash,
            par,
            Box::new(|_| {
                Box::new(IntervalJoinOp::sliding(
                    "⋈=",
                    SlidingWindows::tumbling(Duration::from_minutes(5)),
                    cross_join(),
                    TsRule::Max,
                ))
            }),
        );
        let sink = g.sink(j, Exchange::Hash);
        let mut report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
        sorted_keys(&report.take_sink(sink))
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.len(), 16 * 6 * 25, "16 keys × 6 windows × 5×5 pairs");
    assert_eq!(serial, parallel);
}

#[test]
fn rebalance_distributes_and_preserves_count() {
    let mut g = GraphBuilder::new();
    let src = g.source("s", events(0, &[1, 2, 3], 0..100), 1);
    let m = g.unary(
        src,
        Exchange::Rebalance,
        4,
        Box::new(|_| Box::new(MapOp::new("id", Arc::new(|t| t)))),
    );
    let sink = g.sink(m, Exchange::Rebalance);
    let report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
    assert_eq!(report.sink_count(sink), 300);
    let map_node = report.nodes.iter().find(|n| n.name == "op1").unwrap();
    assert_eq!(map_node.records_in, 300);
    assert_eq!(map_node.records_out, 300);
}

#[test]
fn memory_limit_failure_aborts_pipeline() {
    let mut g = GraphBuilder::new();
    let a = g.source("a", events(0, &[1], 0..2000), 1);
    let b = g.source("b", events(1, &[1], 0..2000), 1);
    let j = g.binary(
        a,
        b,
        Exchange::Hash,
        1,
        Box::new(|_| {
            Box::new(
                IntervalJoinOp::sliding(
                    "⋈",
                    SlidingWindows::new(Duration::from_minutes(100), Duration::from_minutes(1)),
                    cross_join(),
                    TsRule::Max,
                )
                .with_memory_limit(64 * 1024),
            )
        }),
    );
    let _sink = g.counting_sink(j, Exchange::Forward);
    let err = Executor::new(ExecutorConfig::default()).run(g).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("exhausted memory"), "got: {msg}");
}

#[test]
fn rate_limited_source_paces_emission() {
    use asp::graph::SourceConfig;
    let evs = events(0, &[1], 0..200);
    let mut g = GraphBuilder::new();
    let src = g.source_with("paced", SourceConfig::new(evs).with_rate(2000.0), 1);
    let sink = g.sink(src, Exchange::Forward);
    let report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
    assert_eq!(report.sink_count(sink), 200);
    // 200 events at 2000/s ≥ 100 ms.
    assert!(
        report.duration.as_millis() >= 95,
        "run finished too fast: {:?}",
        report.duration
    );
    // Throughput reflects pacing, not machine speed.
    assert!(report.throughput() < 3000.0);
}

#[test]
fn latency_is_measured_at_sink() {
    let mut g = GraphBuilder::new();
    let src = g.source("s", events(0, &[1], 0..500), 1);
    let sink = g.sink(src, Exchange::Forward);
    let cfg = ExecutorConfig {
        latency_stride: 1,
        ..Default::default()
    };
    let report = Executor::new(cfg).run(g).unwrap();
    let lat = report.latency(sink);
    assert!(lat.samples > 0);
    assert!(lat.p50_ms <= lat.p99_ms);
    assert!(lat.max_ms < 10_000.0, "latency sane: {:?}", lat);
}

#[test]
fn resource_sampling_produces_series() {
    let mut g = GraphBuilder::new();
    let evs = events(0, &[1], 0..2000);
    use asp::graph::SourceConfig;
    let src = g.source_with("s", SourceConfig::new(evs).with_rate(10_000.0), 1);
    let j = g.binary(
        src,
        src,
        Exchange::Hash,
        1,
        Box::new(|_| {
            Box::new(IntervalJoinOp::sliding(
                "⋈",
                SlidingWindows::tumbling(Duration::from_minutes(50)),
                cross_join(),
                TsRule::Max,
            ))
        }),
    );
    let _sink = g.counting_sink(j, Exchange::Forward);
    let cfg = ExecutorConfig {
        sample_interval: Some(std::time::Duration::from_millis(10)),
        ..Default::default()
    };
    let report = Executor::new(cfg).run(g).unwrap();
    assert!(!report.samples.is_empty(), "sampler collected data");
    assert!(report.peak_state_bytes() > 0, "join buffered state");
}

#[test]
fn key_partition_is_balanced_for_sequential_keys() {
    for p in [2usize, 4, 8, 16] {
        let mut counts = vec![0usize; p];
        for k in 0..128u64 {
            counts[key_partition(k, p)] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(
            max <= min.max(1) * 4,
            "partitioning too skewed for p={p}: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0), "empty partition for p={p}");
    }
}

#[test]
fn invalid_graphs_are_rejected() {
    // No sink.
    let mut g = GraphBuilder::new();
    let _src = g.source("s", events(0, &[1], 0..1), 1);
    assert!(Executor::new(ExecutorConfig::default()).run(g).is_err());

    // Forward with unequal parallelism.
    let mut g = GraphBuilder::new();
    let src = g.source("s", events(0, &[1], 0..1), 1);
    let f = g.unary(
        src,
        Exchange::Forward,
        3,
        Box::new(|_| Box::new(MapOp::new("id", Arc::new(|t| t)))),
    );
    let _ = g.sink(f, Exchange::Rebalance);
    assert!(Executor::new(ExecutorConfig::default()).run(g).is_err());
}

#[test]
fn parallel_sources_preserve_all_events() {
    let mut g = GraphBuilder::new();
    let src = g.source("s", events(0, &[1], 0..1000), 4);
    let sink = g.sink(src, Exchange::Rebalance);
    let report = Executor::new(ExecutorConfig::default()).run(g).unwrap();
    assert_eq!(report.sink_count(sink), 1000);
    assert_eq!(report.source_events, 1000);
}

/// Operator chaining is a pure optimization: fused and unfused executions
/// of the same graph must produce identical match sets.
#[test]
fn chaining_does_not_change_results() {
    let build = || {
        let mut g = GraphBuilder::new();
        let a = g.source("a", events(0, &[1, 2], 0..60), 1);
        let fa = g.unary(
            a,
            Exchange::Forward,
            1,
            Box::new(|_| {
                Box::new(FilterOp::new(
                    "σ",
                    Arc::new(|t: &Tuple| t.events[0].value < 40.0),
                ))
            }),
        );
        let b = g.source("b", events(1, &[1, 2], 0..60), 1);
        let j = g.binary(
            fa,
            b,
            Exchange::Hash,
            1,
            Box::new(|_| {
                Box::new(IntervalJoinOp::sliding(
                    "⋈",
                    SlidingWindows::new(Duration::from_minutes(5), Duration::from_minutes(1)),
                    cross_join(),
                    TsRule::Max,
                ))
            }),
        );
        let m = g.unary(
            j,
            Exchange::Forward,
            1,
            Box::new(|_| Box::new(MapOp::ts_to_max("Π"))),
        );
        let sink = g.sink(m, Exchange::Forward);
        (g, sink)
    };
    let run = |chaining: bool| {
        let (g, sink) = build();
        let cfg = ExecutorConfig {
            operator_chaining: chaining,
            ..Default::default()
        };
        let mut report = Executor::new(cfg).run(g).unwrap();
        sorted_keys(&report.take_sink(sink))
    };
    let fused = run(true);
    let unfused = run(false);
    assert!(!fused.is_empty());
    assert_eq!(fused, unfused);
}

/// A panicking operator must surface as a pipeline error, not a hang.
#[test]
fn worker_panic_is_reported() {
    struct Bomb;
    impl asp::operator::Operator for Bomb {
        fn process(
            &mut self,
            _input: usize,
            _tuple: Tuple,
            _out: &mut dyn asp::operator::Collector,
        ) -> Result<(), asp::OpError> {
            panic!("boom");
        }
        fn name(&self) -> &str {
            "bomb"
        }
    }
    let mut g = GraphBuilder::new();
    let src = g.source("s", events(0, &[1], 0..10), 1);
    // Rebalance prevents fusing the bomb into the source thread, so the
    // panic travels the worker-join path.
    let b = g.unary(src, Exchange::Rebalance, 2, Box::new(|_| Box::new(Bomb)));
    let _sink = g.counting_sink(b, Exchange::Rebalance);
    let err = Executor::new(ExecutorConfig::default()).run(g).unwrap_err();
    assert!(err.to_string().contains("panic"), "{err}");
}
