//! Criterion micro-benchmarks of the individual dataflow operators and the
//! NFA engine — the per-operator costs behind the end-to-end numbers.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use asp::event::{Event, EventType};
use asp::operator::{
    cross_join, Collector, IntervalBounds, IntervalJoinOp, Operator, WindowAggregateOp,
};
use asp::time::{Duration, Timestamp};
use asp::tuple::{TsRule, Tuple};
use asp::window::SlidingWindows;
use cep::{Nfa, NfaEngine, SelectionPolicy};
use sea::pattern::{builders, WindowSpec};

const Q: EventType = EventType(0);
const V: EventType = EventType(1);

struct NullCollector(u64);

impl Collector for NullCollector {
    fn emit(&mut self, t: Tuple) {
        self.0 += 1;
        black_box(&t);
    }
}

fn stream(n: usize, sensors: u32, seed: u64) -> Vec<Event> {
    // Cheap deterministic pseudo-stream: one event per sensor per minute.
    let mut out = Vec::with_capacity(n);
    let mut x = seed | 1;
    for i in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let minute = (i as u32 / sensors) as i64;
        out.push(Event::new(
            if i % 2 == 0 { Q } else { V },
            (i as u32) % sensors,
            Timestamp::from_minutes(minute),
            (x >> 33) as f64 / (1u64 << 31) as f64 * 100.0,
        ));
    }
    out
}

fn bench_window_joins(c: &mut Criterion) {
    let mut g = c.benchmark_group("window_join");
    let n = 20_000usize;
    g.throughput(Throughput::Elements(n as u64));
    for w_min in [5i64, 15] {
        g.bench_with_input(BenchmarkId::new("sliding", w_min), &w_min, |b, &w_min| {
            let events = stream(n, 4, 1);
            b.iter(|| {
                let mut op = IntervalJoinOp::sliding(
                    "⋈",
                    SlidingWindows::new(Duration::from_minutes(w_min), Duration::from_minutes(1)),
                    cross_join(),
                    TsRule::Min,
                );
                let mut col = NullCollector(0);
                for e in &events {
                    let port = (e.etype == V) as usize;
                    op.process(port, Tuple::from_event(*e), &mut col).unwrap();
                    op.on_watermark(e.ts, &mut col).unwrap();
                }
                op.on_finish(&mut col).unwrap();
                col.0
            })
        });
        g.bench_with_input(BenchmarkId::new("interval", w_min), &w_min, |b, &w_min| {
            let events = stream(n, 4, 1);
            b.iter(|| {
                let mut op = IntervalJoinOp::new(
                    "i⋈",
                    IntervalBounds::seq(Duration::from_minutes(w_min)),
                    cross_join(),
                    TsRule::Min,
                );
                let mut col = NullCollector(0);
                for e in &events {
                    let port = (e.etype == V) as usize;
                    op.process(port, Tuple::from_event(*e), &mut col).unwrap();
                    op.on_watermark(e.ts, &mut col).unwrap();
                }
                op.on_finish(&mut col).unwrap();
                col.0
            })
        });
    }
    g.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    let mut g = c.benchmark_group("aggregate");
    let n = 50_000usize;
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("count_at_least", |b| {
        let events = stream(n, 4, 2);
        b.iter(|| {
            let mut op = WindowAggregateOp::count_at_least(
                "γ",
                SlidingWindows::new(Duration::from_minutes(15), Duration::from_minutes(1)),
                4,
            );
            let mut col = NullCollector(0);
            for e in &events {
                op.process(0, Tuple::from_event(*e), &mut col).unwrap();
                op.on_watermark(e.ts, &mut col).unwrap();
            }
            op.on_finish(&mut col).unwrap();
            col.0
        })
    });
    g.finish();
}

fn bench_nfa(c: &mut Criterion) {
    let mut g = c.benchmark_group("nfa_engine");
    let n = 20_000usize;
    g.throughput(Throughput::Elements(n as u64));
    for policy in [
        SelectionPolicy::SkipTillAnyMatch,
        SelectionPolicy::SkipTillNextMatch,
        SelectionPolicy::StrictContiguity,
    ] {
        g.bench_with_input(
            BenchmarkId::new("seq2", format!("{policy}")),
            &policy,
            |b, &policy| {
                let pattern = builders::seq(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(15), vec![]);
                let nfa = Nfa::compile(&pattern).unwrap();
                let events = stream(n, 4, 3);
                b.iter(|| {
                    let mut engine = NfaEngine::new(nfa.clone(), policy);
                    let mut out = Vec::new();
                    let mut last = Timestamp::MIN;
                    for e in &events {
                        engine.process(e, &mut out);
                        if e.ts > last {
                            engine.prune(e.ts);
                            last = e.ts;
                        }
                        out.clear();
                    }
                    engine.matches_emitted()
                })
            },
        );
    }
    g.finish();
}

fn bench_window_assignment(c: &mut Criterion) {
    let mut g = c.benchmark_group("window_assign");
    let w = SlidingWindows::new(Duration::from_minutes(15), Duration::from_minutes(1));
    g.bench_function("assign_15_1", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for m in 0..1000 {
                for wid in w.assign(Timestamp::from_minutes(m)) {
                    acc = acc.wrapping_add(wid.start.millis());
                }
            }
            acc
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_window_joins, bench_aggregate, bench_nfa, bench_window_assignment
}
criterion_main!(benches);
