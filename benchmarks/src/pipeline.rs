//! From pattern text to a runnable graph, through the layers' public
//! functions only, with a span around each call; and the hermetic
//! configuration every run uses.
//!
//! Configurations are written out field by field: `..Default::default()`
//! would read `ASP_DATA_PLANE`/`ASP_SHARDS` from the environment and pick
//! up whatever a later change makes the default.

use std::collections::HashMap;
use std::time::Duration as StdDuration;

use asp::event::{Event, EventType, TypeRegistry};
use asp::graph::{GraphBuilder, SinkId};
use asp::runtime::ExecutorConfig;
use cep::{AfterMatchSkip, BaselineConfig, SelectionPolicy};
use cep2asp::{LogicalPlan, PhysicalConfig, ShareReport};
use sea::Pattern;
use serde::Value;

use crate::gen::Dataset;
use crate::trace::Tracer;
use crate::workloads::{Engine, Workload};

/// What a run is for; decides the few configuration values that differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunKind {
    /// Full-speed backpressured sources (closed loop), count-only sinks.
    Saturated,
    /// The same with per-call processing-latency sampling and resource
    /// samples on: the traced run.
    Traced,
    /// Sources on the engine's open schedule at this many events per
    /// second per source; every detection's latency is kept.
    Paced(f64),
    /// Collecting sinks, for the correctness slice.
    Verify,
}

pub fn executor_config(w: &Workload, kind: RunKind) -> ExecutorConfig {
    ExecutorConfig {
        channel_capacity: w.channel_capacity,
        sample_interval: (kind == RunKind::Traced).then_some(StdDuration::from_millis(50)),
        latency_stride: if matches!(kind, RunKind::Paced(_)) {
            1
        } else {
            16
        },
        operator_chaining: true,
        drop_late: true,
        batch_size: 64,
        idle_flush: StdDuration::from_millis(5),
        proc_latency_every: if kind == RunKind::Traced { 1 } else { 32 },
        progress_interval: None,
        event_log_capacity: 256,
        columnar: true,
        shards: None,
        rebalance_interval: None,
        env_errors: Vec::new(),
    }
}

fn source_rate(kind: RunKind) -> Option<f64> {
    match kind {
        RunKind::Paced(rate) => Some(rate),
        _ => None,
    }
}

pub fn physical_config(w: &Workload, kind: RunKind) -> PhysicalConfig {
    PhysicalConfig {
        parallelism: 1,
        shards: None,
        memory_limit: None,
        source_rate: source_rate(kind),
        watermark_every: 256,
        watermark_lag: asp::Duration::from_millis(w.delay_ms),
        collect_output: kind == RunKind::Verify,
        dedup_output: false,
        schema_conformance: false,
    }
}

pub fn baseline_config(w: &Workload, kind: RunKind) -> BaselineConfig {
    BaselineConfig {
        parallelism: 1,
        keyed: true,
        policy: SelectionPolicy::SkipTillAnyMatch,
        after_match: AfterMatchSkip::NoSkip,
        memory_limit: None,
        source_rate: source_rate(kind),
        watermark_every: 256,
        watermark_lag: asp::Duration::from_millis(w.delay_ms),
        collect_output: kind == RunKind::Verify,
    }
}

/// Every configuration value of a run kind, for `results.json`.
pub fn config_json(w: &Workload, kind: RunKind) -> Value {
    let e = executor_config(w, kind);
    let opt_ms =
        |d: Option<StdDuration>| d.map_or(Value::Null, |d| Value::UInt(d.as_millis() as u64));
    let opt_f = |r: Option<f64>| r.map_or(Value::Null, Value::Float);
    let executor = Value::Object(vec![
        (
            "channel_capacity".into(),
            Value::UInt(e.channel_capacity as u64),
        ),
        ("sample_interval_ms".into(), opt_ms(e.sample_interval)),
        (
            "latency_stride".into(),
            Value::UInt(e.latency_stride as u64),
        ),
        ("operator_chaining".into(), Value::Bool(e.operator_chaining)),
        ("drop_late".into(), Value::Bool(e.drop_late)),
        ("batch_size".into(), Value::UInt(e.batch_size as u64)),
        (
            "idle_flush_ms".into(),
            Value::UInt(e.idle_flush.as_millis() as u64),
        ),
        (
            "proc_latency_every".into(),
            Value::UInt(e.proc_latency_every as u64),
        ),
        ("progress_interval_ms".into(), opt_ms(e.progress_interval)),
        (
            "event_log_capacity".into(),
            Value::UInt(e.event_log_capacity as u64),
        ),
        ("columnar".into(), Value::Bool(e.columnar)),
        ("shards".into(), Value::Null),
        ("rebalance_interval_ms".into(), opt_ms(e.rebalance_interval)),
    ]);
    let build = match w.engine {
        Engine::Nfa => {
            let b = baseline_config(w, kind);
            Value::Object(vec![
                ("parallelism".into(), Value::UInt(b.parallelism as u64)),
                ("keyed".into(), Value::Bool(b.keyed)),
                ("policy".into(), Value::Str(format!("{:?}", b.policy))),
                (
                    "after_match".into(),
                    Value::Str(format!("{:?}", b.after_match)),
                ),
                ("memory_limit".into(), Value::Null),
                ("source_rate".into(), opt_f(b.source_rate)),
                (
                    "watermark_every".into(),
                    Value::UInt(b.watermark_every as u64),
                ),
                (
                    "watermark_lag_ms".into(),
                    Value::Int(b.watermark_lag.millis()),
                ),
                ("collect_output".into(), Value::Bool(b.collect_output)),
            ])
        }
        Engine::Mapped { .. } | Engine::MultiShared => {
            let p = physical_config(w, kind);
            let m = w.engine.mapper_options();
            Value::Object(vec![
                ("interval_join".into(), Value::Bool(m.interval_join)),
                (
                    "aggregate_iteration".into(),
                    Value::Bool(m.aggregate_iteration),
                ),
                ("partition_by_key".into(), Value::Bool(m.partition_by_key)),
                (
                    "join_order".into(),
                    Value::Str(format!("{:?}", m.join_order)),
                ),
                ("share".into(), Value::Bool(w.engine == Engine::MultiShared)),
                ("parallelism".into(), Value::UInt(p.parallelism as u64)),
                ("shards".into(), Value::Null),
                ("memory_limit".into(), Value::Null),
                ("source_rate".into(), opt_f(p.source_rate)),
                (
                    "watermark_every".into(),
                    Value::UInt(p.watermark_every as u64),
                ),
                (
                    "watermark_lag_ms".into(),
                    Value::Int(p.watermark_lag.millis()),
                ),
                ("collect_output".into(), Value::Bool(p.collect_output)),
                ("dedup_output".into(), Value::Bool(p.dedup_output)),
                (
                    "schema_conformance".into(),
                    Value::Bool(p.schema_conformance),
                ),
            ])
        }
    };
    Value::Object(vec![("executor".into(), executor), ("build".into(), build)])
}

/// A workload's generated input: one stream per event type.
pub struct Inputs {
    pub sources: HashMap<EventType, Vec<Event>>,
    pub digest: u64,
    /// Distinct dataset events: what throughput divides by.
    pub events: u64,
    /// Events of one stream: what a paced source replays.
    pub per_stream: u64,
}

/// Event-type ids follow the order of `w.types`.
fn registry(w: &Workload) -> TypeRegistry {
    let mut types = TypeRegistry::new();
    for name in w.types {
        types.intern(name);
    }
    types
}

pub fn inputs(w: &Workload, seed: u64, minutes: i64) -> Inputs {
    let reg = registry(w);
    let types: Vec<EventType> = reg.iter().map(|(t, _)| t).collect();
    let mut data = Dataset::generate(seed, &types, w.sensors, minutes);
    if w.delay_ms > 0 {
        data.delay_bounded(seed, w.delay_ms);
    }
    Inputs {
        digest: data.digest(),
        events: data.len() as u64,
        per_stream: minutes as u64 * u64::from(w.sensors),
        sources: data.streams.into_iter().collect(),
    }
}

/// A graph ready for `Executor::run`, and what the front end made of it.
pub struct Built {
    pub graph: GraphBuilder,
    /// One sink per pattern, in pattern order.
    pub sinks: Vec<SinkId>,
    pub patterns: Vec<Pattern>,
    /// What sharing merged (multi-pattern workloads).
    pub share: Option<ShareReport>,
}

/// Pattern text → runnable graph: parse, translate, typecheck, lower, with
/// input registration. This is what `setup_s` times.
pub fn setup(
    w: &Workload,
    texts: &[String],
    sources: &HashMap<EventType, Vec<Event>>,
    kind: RunKind,
    tracer: &mut Tracer,
) -> Result<Built, String> {
    tracer.scope("setup", |tracer| {
        let mut types = registry(w);
        let mut patterns = Vec::with_capacity(texts.len());
        for text in texts {
            let p = tracer
                .scope("sea.parse", |_| sea::parser::parse(text, &mut types))
                .map_err(|e| format!("{e} in `{text}`"))?;
            patterns.push(p);
        }
        if types.len() != w.types.len() {
            return Err("a pattern names an event type the workload does not generate".into());
        }
        if w.engine == Engine::Nfa {
            let cfg = baseline_config(w, kind);
            let (graph, sink) = tracer
                .scope("cep.build", |_| {
                    cep::build_baseline(&patterns[0], sources, &cfg)
                })
                .map_err(|e| e.to_string())?;
            return Ok(Built {
                graph,
                sinks: vec![sink],
                patterns,
                share: None,
            });
        }
        let opts = w.engine.mapper_options();
        let mut plans: Vec<LogicalPlan> = Vec::with_capacity(patterns.len());
        for p in &patterns {
            let plan = tracer
                .scope("cep2asp.translate", |_| cep2asp::translate(p, &opts))
                .map_err(|e| e.to_string())?;
            let checked = tracer.scope("cep2asp.typecheck", |_| cep2asp::typecheck(&plan));
            if !checked.is_clean() {
                return Err(format!("plan failed typecheck: {}", checked.render()));
            }
            plans.push(plan);
        }
        let cfg = physical_config(w, kind);
        tracer.scope("cep2asp.lower", |_| {
            if w.engine == Engine::MultiShared {
                let catalog = cep2asp::shared_catalog(sources);
                let names: Vec<String> = (0..plans.len()).map(|i| format!("v{i}")).collect();
                let named: Vec<(&str, &LogicalPlan)> =
                    names.iter().map(String::as_str).zip(&plans).collect();
                let built = cep2asp::build_multi_pipeline(&named, &catalog, &cfg, true)
                    .map_err(|e| e.to_string())?;
                Ok(Built {
                    graph: built.graph,
                    sinks: built.sinks,
                    patterns,
                    share: Some(built.share),
                })
            } else {
                let (graph, sink) =
                    cep2asp::build_pipeline(&plans[0], sources, &cfg).map_err(|e| e.to_string())?;
                Ok(Built {
                    graph,
                    sinks: vec![sink],
                    patterns,
                    share: None,
                })
            }
        })
    })
}
