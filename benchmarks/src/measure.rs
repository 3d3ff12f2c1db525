//! The measured phases of one workload: correctness slice, saturated
//! throughput reps, the paced latency run, and the traced reps.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use asp::runtime::{Executor, NodeStats, RunReport};
use asp::tuple::MatchKey;
use asp::Event;
use serde::Value;

use crate::pipeline::{executor_config, inputs, setup, Built, Inputs, RunKind};
use crate::stats::{median, supported_percentile, weighted_median};
use crate::trace::{self_times, ThreadCpu, ThreadSampler, Tracer};
use crate::workloads::{Engine, Workload, DEFAULT_SEED};

/// Operations attempted and failed, with a line per failure.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ops {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

fn run(
    w: &Workload,
    built: Built,
    kind: RunKind,
) -> Result<(RunReport, Vec<asp::graph::SinkId>, f64), String> {
    let t0 = Instant::now();
    let report = Executor::new(executor_config(w, kind))
        .run(built.graph)
        .map_err(|e| e.to_string())?;
    Ok((report, built.sinks, t0.elapsed().as_secs_f64()))
}

/// Which of `n` patterns the correctness slice checks: spread over the
/// catalog so shapes, windows, and shared and own thresholds all occur.
fn sampled(n: usize, k: usize) -> Vec<usize> {
    (0..k.min(n)).map(|j| j * 63 % n).collect()
}

/// The reference match set of `pattern` over `events`, sorted. A pattern
/// whose matches never span sensors is evaluated per sensor: the oracle
/// enumerates every window exhaustively.
fn reference(w: &Workload, pattern: &sea::Pattern, events: &[Event]) -> Vec<MatchKey> {
    let mut out: Vec<MatchKey> = if w.same_sensor {
        (0..w.sensors)
            .flat_map(|id| {
                let own: Vec<Event> = events.iter().filter(|e| e.id == id).copied().collect();
                sea::oracle::evaluate(pattern, &own)
            })
            .map(MatchKey)
            .collect()
    } else {
        sea::oracle::evaluate(pattern, events)
            .into_iter()
            .map(MatchKey)
            .collect()
    };
    out.sort();
    out
}

/// Run the first `verify_minutes` of the workload with collecting sinks
/// and compare each checked pattern's deduplicated matches with the
/// reference evaluator. Every reference detection is one operation
/// (failed if missing); every spurious detection is one failed operation.
pub fn verify(w: &Workload, seed: u64, texts: &[String], ops: &mut Ops) -> Result<Value, String> {
    let t0 = Instant::now();
    let inp = inputs(w, seed, w.verify_minutes);
    let picked: Vec<String> = sampled(texts.len(), w.verify_patterns)
        .into_iter()
        .map(|i| texts[i].clone())
        .collect();
    let built = setup(
        w,
        &picked,
        &inp.sources,
        RunKind::Verify,
        &mut Tracer::new(w.name, false),
    )?;
    let patterns = built.patterns.clone();
    let (mut report, sinks, _) = run(w, built, RunKind::Verify)?;
    let merged: Vec<Event> = inp.sources.values().flatten().copied().collect();
    let (mut expected, mut missing, mut spurious) = (0u64, 0u64, 0u64);
    for (pattern, sink) in patterns.iter().zip(&sinks) {
        let got = cep2asp::dedup_sorted(&report.take_sink(*sink));
        let want = reference(w, pattern, &merged);
        // Both sides are sorted and free of duplicates.
        expected += want.len() as u64;
        missing += want
            .iter()
            .filter(|k| got.binary_search(k).is_err())
            .count() as u64;
        spurious += got
            .iter()
            .filter(|k| want.binary_search(k).is_err())
            .count() as u64;
    }
    ops.attempted += expected + spurious;
    ops.failed += missing + spurious;
    if missing + spurious > 0 {
        ops.notes.push(format!(
            "correctness slice: {missing} reference detections missing, {spurious} spurious"
        ));
    }
    Ok(Value::Object(vec![
        ("events".into(), Value::UInt(inp.events)),
        ("patterns".into(), Value::UInt(patterns.len() as u64)),
        ("reference_detections".into(), Value::UInt(expected)),
        ("missing".into(), Value::UInt(missing)),
        ("spurious".into(), Value::UInt(spurious)),
        ("seconds".into(), Value::Float(t0.elapsed().as_secs_f64())),
    ]))
}

/// One saturated rep: a set-up and a run to completion.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Process CPU seconds spent during the run.
    pub cpu_s: f64,
    /// Peak resident set over this rep's set-up and run: the rep input,
    /// the builder's copy of it, the engine's state and queues, and what
    /// the allocator kept of earlier reps.
    pub peak_rss_mib: f64,
    pub eps: f64,
    pub sink_count: u64,
    /// Detection latencies the sinks kept (every 16th, or all when paced).
    pub latency_samples: usize,
    /// Self time per span name of this rep's set-up (traced mode only).
    pub setup_layers: BTreeMap<&'static str, f64>,
    pub share: Option<(usize, usize, usize, usize)>,
}

fn one_rep(
    w: &Workload,
    texts: &[String],
    inp: &Inputs,
    kind: RunKind,
    tracer: &mut Tracer,
) -> Result<(Rep, RunReport), String> {
    let mark = tracer.mark();
    crate::stats::reset_peak_rss();
    let t0 = Instant::now();
    let built = setup(w, texts, &inp.sources, kind, tracer)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_layers = self_times(tracer.since(mark), mark);
    let share = built.share.as_ref().map(|s| {
        (
            s.nodes_lowered,
            s.nodes_total,
            s.scans_lowered,
            s.scans_total,
        )
    });
    let cpu0 = crate::stats::cpu_seconds();
    let (report, sinks, wall_s) = tracer.scope("asp.run", |_| run(w, built, kind))?;
    let rep = Rep {
        setup_s,
        wall_s,
        cpu_s: crate::stats::cpu_seconds() - cpu0,
        peak_rss_mib: crate::stats::peak_rss_mib(),
        eps: inp.events as f64 / wall_s,
        sink_count: sinks.iter().map(|s| report.sink_count(*s)).sum(),
        latency_samples: sinks.iter().map(|s| report.latency(*s).samples).sum(),
        setup_layers,
        share,
    };
    Ok((rep, report))
}

/// Saturated reps over the rep input until `budget_s` of run time is
/// spent, at least 3 and at most 25. A rep that errors, or whose raw sink count
/// differs from the first rep's or (default seed) from the pin, fails.
pub fn saturated_reps(
    w: &Workload,
    seed: u64,
    texts: &[String],
    inp: &Inputs,
    budget_s: f64,
    ops: &mut Ops,
    tracer: &mut Tracer,
) -> Vec<Rep> {
    let mut reps: Vec<Rep> = Vec::new();
    let mut spent = 0.0;
    while (spent < budget_s || reps.len() < 3) && reps.len() < 25 {
        match one_rep(w, texts, inp, RunKind::Saturated, tracer) {
            Ok((rep, _)) => {
                spent += rep.wall_s;
                let first = reps.first().map_or(rep.sink_count, |r| r.sink_count);
                let pinned = seed != DEFAULT_SEED || rep.sink_count == w.pin_sink_count;
                ops.record(rep.sink_count == first && pinned, || {
                    format!(
                        "rep {}: sink count {} (first rep {first}, pin {})",
                        reps.len(),
                        rep.sink_count,
                        w.pin_sink_count
                    )
                });
                reps.push(rep);
            }
            Err(e) => {
                ops.record(false, || format!("rep {}: {e}", reps.len()));
                // A failing set-up or run fails the same way every time.
                break;
            }
        }
    }
    reps
}

/// Detection latency of a paced run, pooled over the job's sinks. A job
/// with one sink reports that sink's percentiles; with many sinks, the
/// sample-weighted median of the per-sink percentiles (the run report
/// keeps raw samples private).
pub struct Paced {
    pub detail: Value,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

/// The engine's open schedule at the workload's fixed rate for `seconds`.
/// One operation: it fails if the sources fell behind their schedule by
/// more than 2 % of its length, or if there are too few detections to
/// read a 99th percentile from.
pub fn paced_run(
    w: &Workload,
    seed: u64,
    texts: &[String],
    seconds: f64,
    ops: &mut Ops,
) -> Result<Paced, String> {
    let rate = w.paced_eps / w.types.len() as f64;
    let kind = RunKind::Paced(rate);
    let inp = inputs(w, seed, w.paced_minutes(seconds));
    let built = setup(
        w,
        texts,
        &inp.sources,
        kind,
        &mut Tracer::new(w.name, false),
    )?;
    let (report, sinks, wall_s) = run(w, built, kind)?;
    // The same job over no input: what starting and joining its task
    // threads costs, which is not the generator running late.
    let idle = setup(
        w,
        texts,
        &inputs(w, seed, 0).sources,
        kind,
        &mut Tracer::new(w.name, false),
    )?;
    let (_, _, startup_s) = run(w, idle, kind)?;
    let ideal_s = inp.per_stream as f64 / rate;
    let source_lag_s = wall_s - startup_s - ideal_s;
    let stats: Vec<_> = sinks.iter().map(|s| report.latency(*s)).collect();
    let samples: usize = stats.iter().map(|s| s.samples).sum();
    let pool = |f: fn(&asp::runtime::LatencyStats) -> f64| {
        weighted_median(&stats.iter().map(|s| (f(s), s.samples)).collect::<Vec<_>>())
    };
    let (p50_ms, p99_ms) = (pool(|s| s.p50_ms), pool(|s| s.p99_ms));
    let sustained = source_lag_s <= 0.02 * ideal_s;
    // Pooling uses every sink's samples, so the support rule counts all.
    let tail_ok = supported_percentile(samples).is_some_and(|p| p >= 99.0);
    ops.record(sustained && tail_ok, || {
        format!("paced run: source lag {source_lag_s:.3} s of {ideal_s:.3} s, {samples} latency samples")
    });
    let detail = Value::Object(vec![
        ("paced_eps".into(), Value::Float(w.paced_eps)),
        ("rate_per_source".into(), Value::Float(rate)),
        ("events".into(), Value::UInt(inp.events)),
        ("ideal_s".into(), Value::Float(ideal_s)),
        ("wall_s".into(), Value::Float(wall_s)),
        ("startup_s".into(), Value::Float(startup_s)),
        ("source_lag_s".into(), Value::Float(source_lag_s)),
        ("sinks".into(), Value::UInt(sinks.len() as u64)),
        ("latency_samples".into(), Value::UInt(samples as u64)),
        (
            "supported_percentile".into(),
            supported_percentile(samples).map_or(Value::Null, Value::Float),
        ),
        ("detect_p50_ms".into(), Value::Float(p50_ms)),
        ("detect_p99_ms".into(), Value::Float(p99_ms)),
        (
            "detect_max_ms".into(),
            Value::Float(stats.iter().map(|s| s.max_ms).fold(0.0, f64::max)),
        ),
    ]);
    Ok(Paced {
        detail,
        p50_ms,
        p99_ms,
    })
}

/// The layers of a run, as this repository's modules name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Layer {
    Source,
    Stateless,
    Stateful,
    Nfa,
    Sink,
}

/// The layer a graph node's own task belongs to. Lowering names only
/// sources (`src:<type>`) and sinks (`sink<n>`); an operator task is
/// stateful if it ever held state (⋈, γ, δ, next-occurrence and whatever
/// is chained behind them), stateless otherwise (σ, Π, ∪). In the NFA
/// pipeline the one operator task is the union with the NFA chained on.
fn layer_of(w: &Workload, node: &NodeStats) -> Layer {
    if node.name.starts_with("src:") {
        Layer::Source
    } else if node.name.starts_with("sink") {
        Layer::Sink
    } else if w.engine == Engine::Nfa {
        Layer::Nfa
    } else if node.peak_state_bytes > 0 || node.keyed_max_run > 0 {
        Layer::Stateful
    } else {
        Layer::Stateless
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Per-layer metrics of one traced run, from the run report's node
/// statistics and the sampled CPU time of the engine's task threads.
fn layer_metrics(
    w: &Workload,
    report: &RunReport,
    rep: &Rep,
    threads: &[ThreadCpu],
) -> (BTreeMap<String, f64>, String) {
    let run_s = rep.wall_s;
    let layers: HashMap<&str, Layer> = report
        .nodes
        .iter()
        .map(|n| (n.name.as_str(), layer_of(w, n)))
        .collect();
    let mut cpu_s: BTreeMap<Layer, f64> = BTreeMap::new();
    let mut cpu_wait_s = 0.0;
    // CPU the process spent during the run that no sample accounts for:
    // what task threads did after their last sample, and all of what a
    // task shorter-lived than the sampling interval did.
    let mut unattributed_s = rep.cpu_s;
    for t in threads {
        // Task threads are named `<node>#<instance>`, cut to 15 bytes.
        let node = t.comm.split('#').next().unwrap_or_default();
        let Some(&layer) = layers.get(node) else {
            if t.comm == crate::trace::SAMPLER_COMM {
                unattributed_s -= t.run_ns as f64 * 1e-9;
            }
            continue; // the benchmark's own threads
        };
        *cpu_s.entry(layer).or_default() += t.run_ns as f64 * 1e-9;
        unattributed_s -= t.run_ns as f64 * 1e-9;
        cpu_wait_s += t.wait_ns as f64 * 1e-9;
    }
    let of = |layer: Layer| report.nodes.iter().filter(move |n| layer_of(w, n) == layer);
    let sum = |layer: Layer, f: fn(&NodeStats) -> u64| of(layer).map(f).sum::<u64>() as f64;
    let busy = |layer: Layer| cpu_s.get(&layer).copied().unwrap_or(0.0);
    // Stateless operators chained onto a source run on the source's thread;
    // the report attributes the time of their calls to the source node.
    let chained_s = sum(Layer::Source, |n| n.proc_latency.sum_ns) * 1e-9;
    let chained_in: f64 = of(Layer::Source)
        .filter(|n| n.proc_latency.count > 0)
        .map(|n| n.records_out as f64)
        .sum();
    let batches: f64 = report.nodes.iter().map(|n| n.batches_out as f64).sum();
    let received: f64 = report
        .nodes
        .iter()
        .filter(|n| layer_of(w, n) != Layer::Source)
        .map(|n| n.records_in as f64)
        .sum();
    let batch_size = executor_config(w, RunKind::Traced).batch_size as f64;
    let blocked = |n: &NodeStats| n.backpressure_ns;

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("asp.run_s", run_s);
    put("asp.cpu_s", rep.cpu_s);
    put("asp.cpu_wait_s", cpu_wait_s);
    put("asp.cpu_unattributed_s", unattributed_s.max(0.0));
    put(
        "asp.source.records_out",
        sum(Layer::Source, |n| n.records_out),
    );
    put(
        "asp.source.busy_s",
        (busy(Layer::Source) - chained_s).max(0.0),
    );
    put("asp.source.blocked_s", sum(Layer::Source, blocked) * 1e-9);
    put(
        "asp.stateless.records_in",
        chained_in + sum(Layer::Stateless, |n| n.records_in),
    );
    put("asp.stateless.busy_s", chained_s + busy(Layer::Stateless));
    put("asp.exchange.batches", batches);
    put(
        "asp.exchange.batch_efficiency",
        if batches > 0.0 {
            received / batches / batch_size
        } else {
            0.0
        },
    );
    put(
        "asp.exchange.queue_peak",
        report
            .nodes
            .iter()
            .map(|n| n.queue_depth_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    put(
        "asp.exchange.blocked_s",
        report.nodes.iter().map(blocked).sum::<u64>() as f64 * 1e-9,
    );
    for (layer, prefix) in [(Layer::Stateful, "asp.stateful"), (Layer::Nfa, "cep.nfa")] {
        put(
            &format!("{prefix}.records_in"),
            sum(layer, |n| n.records_in),
        );
        put(
            &format!("{prefix}.records_out"),
            sum(layer, |n| n.records_out),
        );
        put(&format!("{prefix}.busy_s"), busy(layer));
        put(
            &format!("{prefix}.peak_state_mib"),
            sum(layer, |n| n.peak_state_bytes as u64) / MIB,
        );
    }
    put(
        "asp.stateful.keyed_max_run",
        of(Layer::Stateful)
            .map(|n| n.keyed_max_run)
            .max()
            .unwrap_or(0) as f64,
    );
    put(
        "asp.stateful.late_dropped",
        report.nodes.iter().map(|n| n.late_dropped).sum::<u64>() as f64,
    );
    put("asp.sink.matches", rep.sink_count as f64);
    put("asp.sink.latency_samples", rep.latency_samples as f64);
    put("asp.sink.busy_s", busy(Layer::Sink));

    // The bottleneck is the layer busy while the layers before it are
    // blocked. Sources blocked for under 5 % of the run are not held back
    // by anything: then the source task itself is the bottleneck, and the
    // larger of its two parts (reading, chained stateless work) is named.
    let sources = of(Layer::Source).count().max(1) as f64;
    let source_blocked_share = m["asp.source.blocked_s"] / (sources * run_s);
    let candidates: &[&str] = if source_blocked_share < 0.05 {
        &["asp.source", "asp.stateless"]
    } else {
        &["asp.stateless", "asp.stateful", "cep.nfa", "asp.sink"]
    };
    let bottleneck = candidates
        .iter()
        .max_by(|a, b| m[&format!("{a}.busy_s")].total_cmp(&m[&format!("{b}.busy_s")]))
        .map_or(String::new(), |s| s.to_string());
    (m, bottleneck)
}

/// What the traced reps found.
pub struct Traced {
    /// Per-layer metrics: the median over traced reps of each.
    pub layers: BTreeMap<String, f64>,
    pub bottleneck: String,
    /// Each layer's share of the summed busy time.
    pub busy_share: BTreeMap<String, f64>,
    pub reps: usize,
}

/// Traced saturated reps for `budget_s` (at least one): per-call latency
/// sampling and resource samples on in the engine, the thread sampler on
/// in the benchmark. `untraced` are this process's untraced reps: their
/// median wall is the base of `trace_overhead`, and their set-ups (spans
/// were on) add to the front-end layers' samples.
pub fn traced_reps(
    w: &Workload,
    texts: &[String],
    inp: &Inputs,
    budget_s: f64,
    untraced: &[Rep],
    ops: &mut Ops,
    tracer: &mut Tracer,
) -> Traced {
    let mut per_rep: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut setups: Vec<BTreeMap<&'static str, f64>> =
        untraced.iter().map(|r| r.setup_layers.clone()).collect();
    let mut share = untraced.first().and_then(|r| r.share);
    let mut bottleneck = String::new();
    let mut spent = 0.0;
    while spent < budget_s || per_rep.is_empty() {
        let sampler = ThreadSampler::start(Duration::from_millis(10));
        let outcome = one_rep(w, texts, inp, RunKind::Traced, tracer);
        let threads = sampler.finish();
        let expected = untraced.first().map(|r| r.sink_count);
        match outcome {
            Ok((rep, report)) => {
                spent += rep.wall_s;
                ops.record(expected.is_none_or(|c| c == rep.sink_count), || {
                    format!(
                        "traced rep: sink count {} differs from the untraced reps'",
                        rep.sink_count
                    )
                });
                let (mut m, b) = layer_metrics(w, &report, &rep, &threads);
                m.insert(
                    "trace_overhead".into(),
                    rep.wall_s / median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>())
                        - 1.0,
                );
                bottleneck = b;
                share = share.or(rep.share);
                setups.push(rep.setup_layers);
                per_rep.push(m);
            }
            Err(e) => {
                ops.record(false, || format!("traced rep: {e}"));
                break;
            }
        }
    }
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    if let Some(first) = per_rep.first() {
        for key in first.keys() {
            let values: Vec<f64> = per_rep.iter().map(|m| m[key]).collect();
            layers.insert(key.clone(), median(&values));
        }
    }
    for name in [
        "sea.parse",
        "cep2asp.translate",
        "cep2asp.typecheck",
        "cep2asp.lower",
        "cep.build",
    ] {
        let values: Vec<f64> = setups
            .iter()
            .map(|s| s.get(name).copied().unwrap_or(0.0))
            .collect();
        layers.insert(format!("{name}_s"), median(&values));
    }
    let (nodes_lowered, nodes_total, scans_lowered, scans_total) = share.unwrap_or((0, 0, 0, 0));
    for (k, v) in [
        ("cep2asp.nodes_lowered", nodes_lowered),
        ("cep2asp.nodes_total", nodes_total),
        ("cep2asp.scans_lowered", scans_lowered),
        ("cep2asp.scans_total", scans_total),
    ] {
        layers.insert(k.into(), v as f64);
    }
    layers.insert("cpu_s".into(), crate::stats::cpu_seconds());
    let busy_keys: Vec<&String> = layers.keys().filter(|k| k.ends_with(".busy_s")).collect();
    let total: f64 = busy_keys.iter().map(|k| layers[*k]).sum();
    let busy_share = busy_keys
        .iter()
        .map(|k| {
            (
                k.trim_end_matches(".busy_s").to_string(),
                layers[*k] / total.max(1e-12),
            )
        })
        .collect();
    Traced {
        layers,
        bottleneck,
        busy_share,
        reps: per_rep.len(),
    }
}
