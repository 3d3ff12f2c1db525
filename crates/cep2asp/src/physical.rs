//! Physical planning: logical plan → executable `asp` dataflow graph.
//!
//! Each plan node becomes one or more dataflow operators: scans share one
//! source per event type and add their pushed-down filter; global joins
//! get the uniform-key map of Section 4.2.1 (single partition); O3 joins
//! hash-partition by sensor id across `parallelism` task slots. A final
//! projection re-orders each match's constituents into pattern-position
//! order and re-defines the event time to the match maximum (the
//! complete-match rule of Section 4.2.2).
//!
//! Sliding joins get two plan properties at lowering: an emission role
//! (a join feeding another join emits each pair once, see
//! `input_emission`; every other sliding join keeps the paper's
//! per-pane duplicates) and the band an arriving tuple probes (see
//! `probe_of`). The θ condition is compiled once into accessors at
//! resolved constituent positions (`join_theta`), so evaluating a
//! candidate pair allocates nothing.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use asp::event::{Attr, Event, EventType};
use asp::graph::{Exchange, GraphBuilder, NodeId, SinkId, SinkMode, SourceConfig};
use asp::operator::{
    Cmp, DedupOp, Emission, FilterOp, FilterSpec, IntervalBounds, IntervalJoinOp, JoinPredicate,
    MapOp, NextOccurrenceOp, Operator, UnaryPredicate, UnionOp, WindowAggregateOp,
};
use asp::time::{Duration, Timestamp};
use asp::tuple::{TsRule, Tuple};
use asp::window::SlidingWindows;

use sea::pattern::Leaf;
use sea::predicate::{CmpOp, Expr, Predicate, VarId};

use crate::plan::{JoinWindowing, LogicalPlan, Partitioning, PlanNode};
use crate::share::{canonical_key, canonical_key_as, input_emission, share_summary, ShareReport};
use crate::typecheck::{self, KeyProvenance, ShardSafety, TypedNode};

/// Pre-`Arc`ed per-type source streams shared across the patterns of a
/// multi-pattern job: registering a stream with N scans costs N refcount
/// bumps, never N copies.
pub type SourceCatalog = HashMap<EventType, Arc<Vec<Event>>>;

/// Physical execution knobs.
#[derive(Debug, Clone)]
pub struct PhysicalConfig {
    /// Task slots for keyed (O3) stateful operators.
    pub parallelism: usize,
    /// Shard count for keyed stateful operators whose placement is safe to
    /// shard (the typechecker's [`ShardSafety::ShardableByKey`] verdict).
    /// `Some(n)` lowers those nodes as shared-nothing shard groups of `n`
    /// instances behind a runtime slot table, making their hot keys
    /// eligible for adaptive migration; `None` keeps plain hash-mod
    /// placement at [`PhysicalConfig::parallelism`]. The runtime's
    /// `ExecutorConfig::shards` (`ASP_SHARDS`) can still override the
    /// count of every sharded node at execution time.
    pub shards: Option<usize>,
    /// Per-stateful-operator state budget in bytes (None = unlimited).
    pub memory_limit: Option<usize>,
    /// Source pacing in events/second per source instance (None = as fast
    /// as backpressure allows).
    pub source_rate: Option<f64>,
    /// Punctuated watermark interval (events).
    pub watermark_every: usize,
    /// Bounded out-of-orderness tolerated in the source streams:
    /// watermarks assert `max seen ts − lag`. Zero for in-order inputs.
    pub watermark_lag: asp::time::Duration,
    /// Collect matched tuples at the sink (tests/examples) or count only
    /// (benchmarks).
    pub collect_output: bool,
    /// Suppress the duplicate detections that overlapping sliding windows
    /// produce (Section 3.1.4 notes duplicates are irrelevant for
    /// idempotent actions but must otherwise be handled — this handles
    /// them). Interval-join plans are duplicate-free already.
    pub dedup_output: bool,
    /// Runtime schema-conformance mode: typecheck the plan before
    /// building (rejecting defective plans) and splice a stateless
    /// assertion operator after every plan node that panics if a tuple
    /// crossing the edge violates the inferred schema or key — the
    /// falsifiability hook for `cep2asp::typecheck`. Defaults to on when
    /// the crate is built with the `schema-conformance` feature.
    pub schema_conformance: bool,
}

impl Default for PhysicalConfig {
    fn default() -> Self {
        PhysicalConfig {
            parallelism: 1,
            shards: None,
            memory_limit: None,
            source_rate: None,
            watermark_every: 256,
            watermark_lag: asp::time::Duration::ZERO,
            collect_output: true,
            dedup_output: false,
            schema_conformance: cfg!(feature = "schema-conformance"),
        }
    }
}

/// Physical planning errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The plan scans a type with no registered source stream.
    MissingSource(EventType),
    /// Schema-conformance mode rejected the plan before building
    /// (rendered `S`-code diagnostics from `cep2asp::typecheck`).
    SchemaRejected(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingSource(t) => write!(f, "no source stream registered for {t}"),
            BuildError::SchemaRejected(msg) => {
                write!(f, "plan rejected by schema typecheck: {msg}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Build a runnable dataflow graph from a logical plan.
///
/// `sources` maps each scanned event type to its (ts-sorted) stream.
pub fn build_pipeline(
    plan: &LogicalPlan,
    sources: &HashMap<EventType, Vec<Event>>,
    cfg: &PhysicalConfig,
) -> Result<(GraphBuilder, SinkId), BuildError> {
    let typed = if cfg.schema_conformance {
        let res = typecheck::typecheck(plan);
        if !res.is_clean() {
            let msgs: Vec<String> = res.diagnostics.iter().map(|d| d.to_string()).collect();
            return Err(BuildError::SchemaRejected(msgs.join("; ")));
        }
        Some(res.root)
    } else {
        None
    };
    let mut b = Builder {
        g: GraphBuilder::new(),
        sources: SourceLookup::Plain(sources),
        cfg,
        positions: plan.positions,
        source_cfgs: HashMap::new(),
        expected_source_events: 0,
        share: None,
    };
    let sink = b.lower_to_sink(plan, typed.as_ref())?;
    Ok((b.g, sink))
}

/// A multi-pattern physical build: one dataflow graph serving every
/// plan's sink, with structurally equal subtrees lowered once (see
/// [`crate::share`]).
pub struct MultiBuild {
    /// The combined graph — many sinks, shared interior nodes.
    pub graph: GraphBuilder,
    /// One sink per plan, in submission order.
    pub sinks: Vec<SinkId>,
    /// What was merged, plus the source-volume prediction
    /// ([`ShareReport::expected_source_events`]) the share oracle checks
    /// against the run report.
    pub share: ShareReport,
}

/// Lower a batch of plans into one graph. With `share` on, structurally
/// equal subtrees (by [`canonical_key`]) are interned and lowered once —
/// the shared node's output fans out to every consumer's remainder
/// pipeline; each pattern always keeps its own sink. With `share` off,
/// the N pipelines are fully independent (the isolated-splice baseline).
pub fn build_multi_pipeline(
    plans: &[(&str, &LogicalPlan)],
    sources: &SourceCatalog,
    cfg: &PhysicalConfig,
    share: bool,
) -> Result<MultiBuild, BuildError> {
    let mut b = Builder {
        g: GraphBuilder::new(),
        sources: SourceLookup::Shared(sources),
        cfg,
        positions: 0,
        source_cfgs: HashMap::new(),
        expected_source_events: 0,
        share: share.then(ShareCache::default),
    };
    let mut sinks = Vec::with_capacity(plans.len());
    for (_, plan) in plans {
        let typed = if cfg.schema_conformance {
            let res = typecheck::typecheck(plan);
            if !res.is_clean() {
                let msgs: Vec<String> = res.diagnostics.iter().map(|d| d.to_string()).collect();
                return Err(BuildError::SchemaRejected(msgs.join("; ")));
            }
            Some(res.root)
        } else {
            None
        };
        b.positions = plan.positions;
        // A new source config per pattern would be redundant but harmless;
        // per-type memoization already spans patterns via `source_cfgs`.
        sinks.push(b.lower_to_sink(plan, typed.as_ref())?);
    }
    // The report's structural half comes from the same canonical keys the
    // builder's cache used, so the static summary *is* the cache census;
    // only the source volume needs the physical build.
    let mut report = if share {
        share_summary(plans.iter().copied())
    } else {
        let mut r = share_summary(plans.iter().copied());
        // Isolated baseline: nothing merged.
        r.nodes_lowered = r.nodes_total;
        r.scans_lowered = r.scans_total;
        r.shared.clear();
        r
    };
    report.expected_source_events = b.expected_source_events;
    Ok(MultiBuild {
        graph: b.g,
        sinks,
        share: report,
    })
}

#[derive(Clone, Copy)]
struct Built {
    id: NodeId,
    parallelism: usize,
}

/// Where the builder resolves scanned streams from.
enum SourceLookup<'a> {
    /// A borrowed plain map (single-pattern builds): each stream is
    /// `Arc`ed on first use — one copy per event type, as before.
    Plain(&'a HashMap<EventType, Vec<Event>>),
    /// A pre-`Arc`ed catalog shared across patterns: no copying at all.
    Shared(&'a SourceCatalog),
}

impl SourceLookup<'_> {
    fn get(&self, etype: EventType) -> Option<Arc<Vec<Event>>> {
        match self {
            SourceLookup::Plain(m) => m.get(&etype).map(|v| Arc::new(v.clone())),
            SourceLookup::Shared(m) => m.get(&etype).cloned(),
        }
    }
}

/// The sharing pass's lowering caches: canonical key → built node.
#[derive(Default)]
struct ShareCache {
    /// Plan-node cache (checked/filled by [`Builder::node`]).
    nodes: HashMap<String, Built>,
    /// Wrapper operators that are not plan nodes themselves — the
    /// per-pattern projection/dedup tails — keyed by a decorated
    /// canonical key so they can be shared without being counted as plan
    /// nodes.
    aux: HashMap<String, Built>,
}

struct Builder<'a> {
    g: GraphBuilder,
    sources: SourceLookup<'a>,
    cfg: &'a PhysicalConfig,
    positions: usize,
    /// Shared per-type event arrays; each scan gets its *own* source node
    /// over the shared array (like reading the same input as separate
    /// DataStreams), so the scan's filter chains into the source task.
    source_cfgs: HashMap<EventType, SourceConfig>,
    /// Events the created source nodes will replay in total (Σ of stream
    /// length over every source node) — the multi-pattern share oracle's
    /// prediction for `RunReport::source_events`.
    expected_source_events: u64,
    /// `Some` while lowering a shared multi-pattern batch: structurally
    /// equal subtrees resolve to the already-built node.
    share: Option<ShareCache>,
}

impl<'a> Builder<'a> {
    /// Shard-group size for a keyed stateful node, when sharding is both
    /// configured ([`PhysicalConfig::shards`]) and safe. With the
    /// typechecker on, placement is gated on its
    /// [`ShardSafety::ShardableByKey`] verdict — a node the analysis
    /// cannot prove key-local keeps plain hash-mod placement. Without the
    /// typechecker the plan's own `ByKey` partitioning claim is trusted,
    /// exactly as hash-mod lowering already trusts it.
    fn shard_par(&self, typed: Option<&TypedNode>) -> Option<usize> {
        let n = self.cfg.shards?;
        match typed {
            Some(t) if t.safety != ShardSafety::ShardableByKey => None,
            _ => Some(n),
        }
    }

    fn source(&mut self, etype: EventType) -> Result<NodeId, BuildError> {
        let cfg = match self.source_cfgs.get(&etype) {
            Some(cfg) => cfg.clone(),
            None => {
                let events = self
                    .sources
                    .get(etype)
                    .ok_or(BuildError::MissingSource(etype))?;
                let mut sc = SourceConfig::from_shared(events)
                    .with_watermark_every(self.cfg.watermark_every)
                    .with_watermark_lag(self.cfg.watermark_lag);
                if let Some(rate) = self.cfg.source_rate {
                    sc = sc.with_rate(rate);
                }
                self.source_cfgs.insert(etype, sc.clone());
                sc
            }
        };
        self.expected_source_events += cfg.events.len() as u64;
        Ok(self.g.source_with(format!("src:{etype}"), cfg, 1))
    }

    /// Lower `n` under the emission role its consumer gives it (see
    /// `input_emission`); in conformance mode (`typed` present) splice
    /// the edge assertion operator onto its output.
    ///
    /// Under a shared multi-pattern build this is also the interning
    /// point: a subtree whose [`canonical_key_as`] was lowered before (by
    /// this or an earlier pattern) resolves to the existing node, and
    /// its output edge fans out to the new consumer. The role is part of
    /// the key, so a sliding join that is one pattern's root and another
    /// pattern's intermediate lowers twice. The conformance assertion is
    /// part of the cached chain — the specs it checks are invariant under
    /// the variable renaming canonicalization quotients out, so one
    /// asserted edge serves every consumer.
    fn node(
        &mut self,
        n: &PlanNode,
        typed: Option<&TypedNode>,
        emission: Emission,
    ) -> Result<Built, BuildError> {
        let key = self.share.as_ref().map(|_| canonical_key_as(n, emission));
        if let (Some(k), Some(share)) = (key.as_deref(), self.share.as_ref()) {
            if let Some(b) = share.nodes.get(k) {
                return Ok(*b);
            }
        }
        let built = self.node_inner(n, typed, emission)?;
        let built = match typed {
            Some(t) => self.conformance(built, t),
            None => built,
        };
        if let (Some(k), Some(share)) = (key, self.share.as_mut()) {
            share.nodes.insert(k, built);
        }
        Ok(built)
    }

    /// Look up / fill the wrapper-operator cache (shared builds only;
    /// otherwise just runs `build`).
    fn cached_aux(&mut self, key: Option<String>, build: impl FnOnce(&mut Self) -> Built) -> Built {
        if let (Some(k), Some(share)) = (key.as_deref(), self.share.as_ref()) {
            if let Some(b) = share.aux.get(k) {
                return *b;
            }
        }
        let built = build(self);
        if let (Some(k), Some(share)) = (key, self.share.as_mut()) {
            share.aux.insert(k, built);
        }
        built
    }

    /// The per-pattern tail shared by both build entry points: final
    /// position-order projection (except union/aggregate roots, which
    /// handle it internally), optional output dedup, and the sink. The
    /// projection and dedup participate in sharing (two identical plans
    /// differ only in their sinks); the sink never does.
    fn lower_to_sink(
        &mut self,
        plan: &LogicalPlan,
        typed: Option<&TypedNode>,
    ) -> Result<SinkId, BuildError> {
        let root = self.node(&plan.root, typed, Emission::PerPane)?;
        let root_key = self.share.as_ref().map(|_| canonical_key(&plan.root));
        let mut root = match &plan.root {
            // Union children were already projected; everything else gets
            // the final position-order projection here.
            PlanNode::Union { .. } | PlanNode::Aggregate { .. } => root,
            _ => {
                let layout = plan.root.layout();
                self.cached_aux(root_key.as_ref().map(|k| format!("Π({k})")), |b| {
                    b.project(root, layout)
                })
            }
        };
        if self.cfg.dedup_output {
            let horizon = asp::time::Duration(2 * plan_window_ms(&plan.root));
            root = self.cached_aux(
                root_key.map(|k| format!("δout{}({k})", horizon.millis())),
                |b| {
                    let id = b.g.unary(
                        root.id,
                        Exchange::Rebalance,
                        1,
                        Box::new(move |_| Box::new(DedupOp::new("δ:output", horizon))),
                    );
                    Built { id, parallelism: 1 }
                },
            );
        }
        let sink_mode = if self.cfg.collect_output {
            SinkMode::Collect
        } else {
            SinkMode::CountOnly
        };
        Ok(self
            .g
            .sink_with_mode(root.id, Exchange::Rebalance, sink_mode))
    }

    fn node_inner(
        &mut self,
        n: &PlanNode,
        typed: Option<&TypedNode>,
        emission: Emission,
    ) -> Result<Built, BuildError> {
        let child = |i: usize| typed.and_then(|t| t.children.get(i));
        let child_role = input_emission(n);
        match n {
            PlanNode::Scan {
                etype,
                type_name,
                leaf,
                var,
                predicates,
            } => {
                let src = self.source(*etype)?;
                let name = format!("σ:{type_name}[e{}]", var + 1);
                // Prefer the declarative (vectorizable) form; fall back to
                // the closure when a residual predicate doesn't fit it.
                let id = match scan_spec(leaf, *var, predicates) {
                    Some(spec) => self.g.unary(
                        src,
                        Exchange::Forward,
                        1,
                        Box::new(move |_| {
                            Box::new(FilterOp::with_spec(name.clone(), spec.clone()))
                        }),
                    ),
                    None => {
                        let pred = scan_predicate(leaf, *var, predicates, self.positions);
                        self.g.unary(
                            src,
                            Exchange::Forward,
                            1,
                            Box::new(move |_| Box::new(FilterOp::new(name.clone(), pred.clone()))),
                        )
                    }
                };
                Ok(Built { id, parallelism: 1 })
            }

            PlanNode::Join {
                left,
                right,
                windowing,
                partitioning,
                order_pairs,
                predicates,
                span_ms,
                ats_check,
                key_pair,
            } => {
                let ll = left.layout();
                let rl = right.layout();
                let band = match *windowing {
                    JoinWindowing::Sliding { size, .. } => probe_of(left, right, order_pairs, size),
                    JoinWindowing::Interval { lower, upper } => IntervalBounds { lower, upper },
                };
                let l = self.node(left, child(0), child_role)?;
                let r = self.node(right, child(1), child_role)?;
                let shard_par = match partitioning {
                    Partitioning::ByKey => self.shard_par(typed),
                    Partitioning::Global => None,
                };
                let (l, r, par) = match partitioning {
                    Partitioning::ByKey => {
                        // Co-partitioning: re-key each side on its equi-
                        // class variable's sensor id (an input produced by
                        // a *global* sub-join carries the uniform key).
                        let (kl, kr) = key_pair.expect("ByKey join has a key pair");
                        let l = self.rekey(l, &ll, kl);
                        let r = self.rekey(r, &rl, kr);
                        (l, r, shard_par.unwrap_or(self.cfg.parallelism))
                    }
                    Partitioning::Global => {
                        // Uniform key → single partition (Section 4.2.1).
                        (self.uniform_key(l), self.uniform_key(r), 1)
                    }
                };
                let theta = join_theta(JoinThetaSpec {
                    left_layout: ll,
                    right_layout: rl,
                    order_pairs: order_pairs.clone(),
                    predicates: predicates.clone(),
                    span_ms: *span_ms,
                    ats_check: *ats_check,
                });
                let windowing = *windowing;
                let limit = self.cfg.memory_limit;
                let name = format!("⋈{windowing}");
                let factory: Box<dyn Fn(usize) -> Box<dyn Operator> + Send> = Box::new(move |_| {
                    let mut op = match windowing {
                        JoinWindowing::Sliding { size, slide } => IntervalJoinOp::sliding(
                            name.clone(),
                            SlidingWindows::new(size, slide),
                            theta.clone(),
                            TsRule::Min,
                        )
                        .with_emission(emission)
                        .with_bounds(band),
                        JoinWindowing::Interval { .. } => {
                            IntervalJoinOp::new(name.clone(), band, theta.clone(), TsRule::Min)
                        }
                    };
                    if let Some(l) = limit {
                        op = op.with_memory_limit(l);
                    }
                    Box::new(op)
                });
                let id = self.g.nary(
                    &[(l.id, Exchange::Hash), (r.id, Exchange::Hash)],
                    par,
                    factory,
                );
                if shard_par.is_some() && par > 1 {
                    self.g.shard_node(id);
                }
                Ok(Built {
                    id,
                    parallelism: par,
                })
            }

            PlanNode::Union { inputs } => {
                let mut built = Vec::with_capacity(inputs.len());
                for (ix, i) in inputs.iter().enumerate() {
                    let b = self.node(i, child(ix), child_role)?;
                    // Project each branch before the union so matches are in
                    // canonical position order regardless of branch shape.
                    let b = match i {
                        PlanNode::Aggregate { .. } => b,
                        _ => self.project(b, i.layout()),
                    };
                    built.push(b);
                }
                let ports = built.len();
                let edges: Vec<(NodeId, Exchange)> =
                    built.iter().map(|b| (b.id, Exchange::Rebalance)).collect();
                let id = self.g.nary(
                    &edges,
                    1,
                    Box::new(move |_| Box::new(UnionOp::new("∪", ports))),
                );
                Ok(Built { id, parallelism: 1 })
            }

            PlanNode::Aggregate {
                input,
                m,
                window,
                partitioning,
            } => {
                let inp = self.node(input, child(0), child_role)?;
                let shard_par = match partitioning {
                    Partitioning::ByKey => self.shard_par(typed),
                    Partitioning::Global => None,
                };
                let (inp, par) = match partitioning {
                    Partitioning::ByKey => (inp, shard_par.unwrap_or(self.cfg.parallelism)),
                    Partitioning::Global => (self.uniform_key(inp), 1),
                };
                let m = *m;
                let windows = SlidingWindows::new(window.size, window.slide);
                let id = self.g.unary(
                    inp.id,
                    Exchange::Hash,
                    par,
                    Box::new(move |_| {
                        Box::new(WindowAggregateOp::count_at_least(
                            format!("γcount≥{m}"),
                            windows,
                            m,
                        ))
                    }),
                );
                if shard_par.is_some() && par > 1 {
                    self.g.shard_node(id);
                }
                Ok(Built {
                    id,
                    parallelism: par,
                })
            }

            PlanNode::NextOccurrence { trigger, marker, w } => {
                let t = self.node(trigger, child(0), child_role)?;
                // Physical marker scan: source + the absent leaf's filters.
                let src = self.source(marker.etype)?;
                let mspec = leaf_spec(marker);
                let mname = format!("σ:¬{}", marker.type_name);
                let mfil = self.g.unary(
                    src,
                    Exchange::Forward,
                    1,
                    Box::new(move |_| Box::new(FilterOp::with_spec(mname.clone(), mspec.clone()))),
                );
                let trigger_type = trigger_type_of(trigger);
                let marker_type = marker.etype;
                let w = *w;
                let is_trigger: UnaryPredicate =
                    Arc::new(move |t: &Tuple| t.events[0].etype == trigger_type);
                let is_marker: UnaryPredicate =
                    Arc::new(move |t: &Tuple| t.events[0].etype == marker_type);
                let id = self.g.nary(
                    &[(t.id, Exchange::Rebalance), (mfil, Exchange::Rebalance)],
                    1,
                    Box::new(move |_| {
                        Box::new(NextOccurrenceOp::new(
                            "nextOcc",
                            is_trigger.clone(),
                            is_marker.clone(),
                            w,
                        ))
                    }),
                );
                Ok(Built { id, parallelism: 1 })
            }

            PlanNode::Project { input, layout } => {
                let inp = self.node(input, child(0), child_role)?;
                let in_layout = input.layout();
                // Output position i takes the input position holding
                // layout[i]; the typechecker guarantees a permutation
                // (S004), the length guard below keeps a defective plan
                // from panicking in release builds.
                let perm: Vec<usize> = layout
                    .iter()
                    .filter_map(|v| in_layout.iter().position(|x| x == v))
                    .collect();
                let arity = in_layout.len();
                let par = inp.parallelism;
                let id = self.g.unary(
                    inp.id,
                    Exchange::Forward,
                    par,
                    Box::new(move |_| {
                        let perm = perm.clone();
                        Box::new(MapOp::new(
                            "Π:layout",
                            Arc::new(move |mut t: Tuple| {
                                if perm.len() == arity && t.events.len() == arity {
                                    t.set_events(perm.iter().map(|&i| t.events[i]).collect());
                                }
                                t
                            }),
                        ))
                    }),
                );
                Ok(Built {
                    id,
                    parallelism: par,
                })
            }
        }
    }

    /// Schema-conformance assertion: a stateless pass-through operator on
    /// the node's output edge that panics (surfacing as a worker panic in
    /// the run report) if a tuple does not match any inferred variant, or
    /// carries an annotation or partition key the schema forbids.
    fn conformance(&mut self, input: Built, typed: &TypedNode) -> Built {
        let specs: Vec<(Vec<EventType>, bool, bool, Option<usize>)> = typed
            .schema
            .variants
            .iter()
            .map(|v| {
                let etypes: Vec<EventType> = v.columns.iter().map(|c| c.etype).collect();
                let key_idx = match typed.schema.key {
                    KeyProvenance::SensorId(kv) => v.columns.iter().position(|c| c.var == kv),
                    _ => None,
                };
                (etypes, v.ats, v.agg, key_idx)
            })
            .collect();
        let key = typed.schema.key;
        let label = typed.label.clone();
        let par = input.parallelism;
        let id = self.g.unary(
            input.id,
            Exchange::Forward,
            par,
            Box::new(move |_| {
                let specs = specs.clone();
                let label = label.clone();
                Box::new(MapOp::new(
                    format!("✓schema:{label}"),
                    Arc::new(move |t: Tuple| {
                        check_conformance(&t, &specs, key, &label);
                        t
                    }),
                ))
            }),
        );
        Built {
            id,
            parallelism: par,
        }
    }

    /// Set the partition key to the sensor id of the constituent bound at
    /// pattern position `var`.
    fn rekey(&mut self, input: Built, layout: &[VarId], var: VarId) -> Built {
        let Some(idx) = layout.iter().position(|v| *v == var) else {
            return input;
        };
        let id = self.g.unary(
            input.id,
            Exchange::Forward,
            input.parallelism,
            Box::new(move |_| {
                Box::new(MapOp::key_by_event_id(
                    format!("Π:key←e{}.id", var + 1),
                    idx,
                ))
            }),
        );
        Built {
            id,
            parallelism: input.parallelism,
        }
    }

    fn uniform_key(&mut self, input: Built) -> Built {
        let id = self.g.unary(
            input.id,
            Exchange::Rebalance,
            1,
            Box::new(|_| Box::new(MapOp::uniform_key("Π:key←0", 0))),
        );
        Built { id, parallelism: 1 }
    }

    /// Final projection: order constituents by pattern position and apply
    /// the complete-match timestamp rule (max).
    fn project(&mut self, input: Built, layout: Vec<VarId>) -> Built {
        let id = self.g.unary(
            input.id,
            Exchange::Rebalance,
            1,
            Box::new(move |_| {
                let layout = layout.clone();
                Box::new(MapOp::new(
                    "Π:order,ts←max",
                    Arc::new(move |mut t: Tuple| {
                        if t.events.len() == layout.len() {
                            let mut order: Vec<usize> = (0..layout.len()).collect();
                            order.sort_by_key(|&i| layout[i]);
                            if order.windows(2).any(|w| w[0] > w[1]) {
                                t.set_events(order.iter().map(|&i| t.events[i]).collect());
                            }
                        }
                        t.ts = t.ts_end();
                        t
                    }),
                ))
            }),
        );
        Built { id, parallelism: 1 }
    }
}

/// Assert one tuple against the inferred edge schema; panics with the
/// node label on violation (schema-conformance mode only).
fn check_conformance(
    t: &Tuple,
    specs: &[(Vec<EventType>, bool, bool, Option<usize>)],
    key: KeyProvenance,
    label: &str,
) {
    let matched = specs.iter().find(|(etypes, ats, agg, _)| {
        etypes.len() == t.events.len()
            && etypes
                .iter()
                .zip(t.events.iter())
                .all(|(e, ev)| *e == ev.etype)
            && *ats == t.ats.is_some()
            && *agg == t.agg.is_some()
    });
    let Some((_, _, _, key_idx)) = matched else {
        panic!(
            "schema conformance violated at `{label}`: tuple with {} event(s) \
             (ats={}, agg={}) matches no inferred variant",
            t.events.len(),
            t.ats.is_some(),
            t.agg.is_some()
        );
    };
    match key {
        KeyProvenance::SensorId(kv) => {
            if let Some(idx) = key_idx {
                let want = t.events[*idx].id as asp::tuple::Key;
                assert!(
                    t.key == want,
                    "key conformance violated at `{label}`: key {} ≠ id(e{}) = {want}",
                    t.key,
                    kv + 1
                );
            }
        }
        KeyProvenance::Uniform => assert!(
            t.key == 0,
            "key conformance violated at `{label}`: uniform edge carries key {}",
            t.key
        ),
        KeyProvenance::Mixed => {}
    }
}

/// The largest window span in the plan (bounds how long a duplicate can
/// recur).
fn plan_window_ms(plan: &PlanNode) -> i64 {
    match plan {
        PlanNode::Scan { .. } => 0,
        PlanNode::Join {
            left,
            right,
            span_ms,
            ..
        } => (*span_ms)
            .max(plan_window_ms(left))
            .max(plan_window_ms(right)),
        PlanNode::Union { inputs } => inputs.iter().map(plan_window_ms).max().unwrap_or(0),
        PlanNode::Aggregate { input, window, .. } => {
            window.size.millis().max(plan_window_ms(input))
        }
        PlanNode::NextOccurrence { trigger, w, .. } => w.millis().max(plan_window_ms(trigger)),
        PlanNode::Project { input, .. } => plan_window_ms(input),
    }
}

fn trigger_type_of(plan: &PlanNode) -> EventType {
    match plan {
        PlanNode::Scan { etype, .. } => *etype,
        PlanNode::Join { left, .. } => trigger_type_of(left),
        PlanNode::Union { inputs } => trigger_type_of(&inputs[0]),
        PlanNode::Aggregate { input, .. } => trigger_type_of(input),
        PlanNode::NextOccurrence { trigger, .. } => trigger_type_of(trigger),
        // A projection reorders constituents: the first *output* position
        // is layout[0], so resolve that variable's scan type.
        PlanNode::Project { input, layout } => layout
            .first()
            .and_then(|first| {
                input.scans().iter().find_map(|s| match s {
                    PlanNode::Scan { etype, var, .. } if var == first => Some(*etype),
                    _ => None,
                })
            })
            .unwrap_or_else(|| trigger_type_of(input)),
    }
}

/// Compile a scan's leaf filters + residual predicates into a tuple filter.
fn scan_predicate(
    leaf: &Leaf,
    var: VarId,
    predicates: &[Predicate],
    positions: usize,
) -> UnaryPredicate {
    let leaf = leaf.clone();
    let preds = predicates.to_vec();
    let size = positions.max(var + 1);
    Arc::new(move |t: &Tuple| {
        let e = &t.events[0];
        if !leaf.accepts(e) {
            return false;
        }
        if preds.is_empty() {
            return true;
        }
        let mut binding: Vec<Option<Event>> = vec![None; size];
        binding[var] = Some(*e);
        preds.iter().all(|p| p.eval_sparse(&binding))
    })
}

/// `sea::predicate::CmpOp` → `asp::operator::Cmp` (1:1 by construction).
fn cmp_of(op: CmpOp) -> Cmp {
    match op {
        CmpOp::Lt => Cmp::Lt,
        CmpOp::Le => Cmp::Le,
        CmpOp::Gt => Cmp::Gt,
        CmpOp::Ge => Cmp::Ge,
        CmpOp::Eq => Cmp::Eq,
        CmpOp::Ne => Cmp::Ne,
    }
}

/// A declarative filter from a bare leaf (used for the NSEQ marker scan):
/// the leaf's type gate plus its local thresholds, which are exactly
/// [`FilterSpec`] clauses.
fn leaf_spec(leaf: &Leaf) -> FilterSpec {
    let mut spec = FilterSpec::for_etype(leaf.etype);
    for f in &leaf.filters {
        spec = spec.clause(f.attr, cmp_of(f.op), f.value);
    }
    spec
}

/// Try to express a scan's leaf filters + residual predicates as a
/// declarative [`FilterSpec`] so the σ runs vectorized on the columnar
/// plane. Returns `None` when any predicate needs the closure path.
///
/// With only `var` bound at the scan, `eval_sparse` makes a predicate
/// vacuously true unless every variable it references is `var`; the
/// remaining shapes are `var.attr ⋈ const` (kept, flipped if the constant
/// is on the left) and same-event attribute comparisons or constant-only
/// predicates, which don't fit the spec and force the fallback.
fn scan_spec(leaf: &Leaf, var: VarId, predicates: &[Predicate]) -> Option<FilterSpec> {
    let mut spec = leaf_spec(leaf);
    for p in predicates {
        match (&p.lhs, &p.rhs) {
            (Expr::Var(v, a), Expr::Const(c)) if *v == var => {
                spec = spec.clause(*a, cmp_of(p.op), *c);
            }
            // `c ⋈ e.a` ⇔ `e.a ⋈⁻¹ c` (mirror the comparison).
            (Expr::Const(c), Expr::Var(v, a)) if *v == var => {
                let flipped = match p.op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    CmpOp::Eq => CmpOp::Eq,
                    CmpOp::Ne => CmpOp::Ne,
                };
                spec = spec.clause(*a, cmp_of(flipped), *c);
            }
            // References an unbound variable: vacuous at the scan.
            (Expr::Var(v, _), Expr::Const(_)) | (Expr::Const(_), Expr::Var(v, _)) if *v != var => {
                continue;
            }
            (Expr::Var(l, _), Expr::Var(r, _)) if *l != var || *r != var => continue,
            // Same-event attr-vs-attr or const-vs-const: closure path.
            _ => return None,
        }
    }
    Some(spec)
}

struct JoinThetaSpec {
    left_layout: Vec<VarId>,
    right_layout: Vec<VarId>,
    order_pairs: Vec<(VarId, VarId)>,
    predicates: Vec<Predicate>,
    span_ms: i64,
    ats_check: Option<VarId>,
}

/// Compile the join condition: window-span guard + newly-checkable order
/// pairs + newly-bound predicates + the NSEQ `ats` selection.
///
/// Every variable is resolved here, once, to its constituent position in
/// the left or right input ([`Slot`]); evaluating a pair reads
/// `l.events`/`r.events` at those positions and allocates nothing. A
/// condition on a variable neither layout binds is vacuous and dropped,
/// as is one whose position is missing from a shorter tuple at run time
/// (the sparse-binding semantics of `Predicate::eval_sparse`). The `ats`
/// selection is the exception: without its variable it rejects.
fn join_theta(spec: JoinThetaSpec) -> JoinPredicate {
    let JoinThetaSpec {
        left_layout,
        right_layout,
        order_pairs,
        predicates,
        span_ms,
        ats_check,
    } = spec;
    let slot = |v: VarId| {
        left_layout
            .iter()
            .position(|x| *x == v)
            .map(Slot::L)
            .or_else(|| right_layout.iter().position(|x| *x == v).map(Slot::R))
    };
    let order: Vec<(Slot, Slot)> = order_pairs
        .iter()
        .filter_map(|(a, b)| Some((slot(*a)?, slot(*b)?)))
        .collect();
    let operand = |e: &Expr| match e {
        Expr::Var(v, a) => slot(*v).map(|s| Operand::Attr(s, *a)),
        Expr::Const(c) => Some(Operand::Const(*c)),
    };
    let preds: Vec<(Operand, CmpOp, Operand)> = predicates
        .iter()
        .filter_map(|p| Some((operand(&p.lhs)?, p.op, operand(&p.rhs)?)))
        .collect();
    let ats = match ats_check {
        None => None,
        Some(v) => match slot(v) {
            Some(s) => Some(s),
            None => return Arc::new(|_: &Tuple, _: &Tuple| false),
        },
    };
    Arc::new(move |l: &Tuple, r: &Tuple| {
        // Window constraint over the full candidate match: the pairwise
        // |ts_i − ts_j| < W requirement of the data model.
        let begin = l.ts_begin().min(r.ts_begin());
        let end = l.ts_end().max(r.ts_end());
        if (end - begin).millis() >= span_ms {
            return false;
        }
        for (a, b) in &order {
            if let (Some(ea), Some(eb)) = (a.get(l, r), b.get(l, r)) {
                if ea.ts >= eb.ts {
                    return false;
                }
            }
        }
        for (lhs, op, rhs) in &preds {
            if let (Some(x), Some(y)) = (lhs.eval(l, r), rhs.eval(l, r)) {
                if !op.apply(x, y) {
                    return false;
                }
            }
        }
        if let Some(s) = ats {
            let (Some(ats), Some(last)) = (l.ats.or(r.ats), s.get(l, r)) else {
                return false;
            };
            // σ_{ats ≥ e_v.ts}: no negated event in the open interval
            // (e1.ts, e_v.ts) — see the NextOccurrence docs for why `≥`
            // (not `>`) is the exact rewrite of Eq. 14.
            if ats < last.ts {
                return false;
            }
        }
        true
    })
}

/// A pattern variable's constituent position in a candidate join pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    L(usize),
    R(usize),
}

impl Slot {
    #[inline]
    fn get<'t>(self, l: &'t Tuple, r: &'t Tuple) -> Option<&'t Event> {
        match self {
            Slot::L(i) => l.events.get(i),
            Slot::R(i) => r.events.get(i),
        }
    }
}

/// A compiled predicate operand.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Attr(Slot, Attr),
    Const(f64),
}

impl Operand {
    #[inline]
    fn eval(self, l: &Tuple, r: &Tuple) -> Option<f64> {
        match self {
            Operand::Attr(s, a) => s.get(l, r).map(|e| e.attr(a)),
            Operand::Const(c) => Some(c),
        }
    }
}

/// Whether a node's output tuples carry the minimum of their constituents'
/// timestamps as working timestamp: scans (one event), joins (lowered
/// with `TsRule::Min`) over such inputs, and layout projections of them.
/// Anything else is conservatively `false`.
fn ts_is_min(n: &PlanNode) -> bool {
    match n {
        PlanNode::Scan { .. } => true,
        PlanNode::Join { left, right, .. } => ts_is_min(left) && ts_is_min(right),
        PlanNode::Project { input, .. } => ts_is_min(input),
        PlanNode::Union { .. } | PlanNode::Aggregate { .. } | PlanNode::NextOccurrence { .. } => {
            false
        }
    }
}

/// The band `r.ts − l.ts ∈ (lower, upper)` an arriving tuple of a
/// sliding join over `left ⋈ right` with window size `w` probes.
///
/// Every pane-sharing pair lies in `(−W, W)`. If every right variable is
/// ordered after some left variable by the join's own order pairs (θ
/// enforces them strictly), each right constituent is younger than the
/// oldest left one; when both working timestamps are constituent minima
/// ([`ts_is_min`]) θ therefore implies `l.ts < r.ts`, and the band narrows
/// to `(0, W)` ([`IntervalBounds::seq`]). The mirror case narrows it to
/// `r.ts ≤ l.ts` ([`IntervalBounds::seq_mirror`]).
fn probe_of(
    left: &PlanNode,
    right: &PlanNode,
    order_pairs: &[(VarId, VarId)],
    w: Duration,
) -> IntervalBounds {
    if !ts_is_min(left) || !ts_is_min(right) {
        return IntervalBounds::conjunction(w);
    }
    let (ll, rl) = (left.layout(), right.layout());
    let each_after_some = |later: &[VarId], earlier: &[VarId]| {
        !later.is_empty()
            && later.iter().all(|v| {
                order_pairs
                    .iter()
                    .any(|(a, b)| b == v && earlier.contains(a))
            })
    };
    if each_after_some(&rl, &ll) {
        IntervalBounds::seq(w)
    } else if each_after_some(&ll, &rl) {
        IntervalBounds::seq_mirror(w)
    } else {
        IntervalBounds::conjunction(w)
    }
}

/// The timestamp at which a projected match is considered detected.
pub fn detection_ts(t: &Tuple) -> Timestamp {
    t.ts_end()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::{translate, MapperOptions};
    use sea::pattern::{builders, WindowSpec};

    use sea::pattern::Pattern;
    use sea::predicate::Predicate;
    const Q: EventType = EventType(0);
    const V: EventType = EventType(1);

    fn ev(t: EventType, id: u32, min: i64, v: f64) -> Event {
        Event::new(t, id, Timestamp::from_minutes(min), v)
    }

    #[test]
    fn missing_source_is_reported() {
        let p = builders::seq(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(4), vec![]);
        let plan = translate(&p, &MapperOptions::plain()).unwrap();
        let sources = HashMap::from([(Q, vec![ev(Q, 1, 0, 1.0)])]);
        match build_pipeline(&plan, &sources, &PhysicalConfig::default()) {
            Err(e) => assert_eq!(e, BuildError::MissingSource(V)),
            Ok(_) => panic!("expected missing-source error"),
        }
    }

    #[test]
    fn theta_span_guard_rejects_wide_matches() {
        let theta = join_theta(JoinThetaSpec {
            left_layout: vec![0],
            right_layout: vec![1],
            order_pairs: vec![(0, 1)],
            predicates: vec![],
            span_ms: 4 * asp::time::MINUTE_MS,
            ats_check: None,
        });
        let a = Tuple::from_event(ev(Q, 1, 0, 1.0));
        let near = Tuple::from_event(ev(V, 1, 3, 2.0));
        let far = Tuple::from_event(ev(V, 1, 4, 2.0));
        let before = Tuple::from_event(ev(V, 1, 0, 2.0));
        assert!(theta(&a, &near));
        assert!(!theta(&a, &far), "exactly W apart rejected");
        assert!(!theta(&a, &before), "order pair enforced (equal ts)");
    }

    #[test]
    fn theta_ats_check() {
        let theta = join_theta(JoinThetaSpec {
            left_layout: vec![0],
            right_layout: vec![1],
            order_pairs: vec![(0, 1)],
            predicates: vec![],
            span_ms: 10 * asp::time::MINUTE_MS,
            ats_check: Some(1),
        });
        let mut l = Tuple::from_event(ev(Q, 1, 0, 1.0));
        let r = Tuple::from_event(ev(V, 1, 5, 2.0));
        l.ats = Some(Timestamp::from_minutes(7));
        assert!(theta(&l, &r), "marker after e3 → match survives");
        l.ats = Some(Timestamp::from_minutes(5));
        assert!(theta(&l, &r), "marker AT e3.ts → open interval, survives");
        l.ats = Some(Timestamp::from_minutes(3));
        assert!(!theta(&l, &r), "marker strictly inside → negated");
        l.ats = None;
        assert!(!theta(&l, &r), "missing annotation rejects");
    }

    /// SEQ3 with same-id keys under O3: two keyed sliding joins, the
    /// lower one intermediate.
    fn seq3_o3() -> (Pattern, LogicalPlan, HashMap<EventType, Vec<Event>>) {
        const PM: EventType = EventType(2);
        let p = builders::seq(
            &[(Q, "Q"), (V, "V"), (PM, "PM")],
            WindowSpec::minutes(4),
            vec![Predicate::same_id(0, 1), Predicate::same_id(1, 2)],
        );
        let plan = translate(&p, &MapperOptions::o3()).unwrap();
        let mut events = Vec::new();
        for m in 0..40i64 {
            for id in 0..3u32 {
                for (i, t) in [Q, V, PM].into_iter().enumerate() {
                    // Thin, id- and type-dependent traffic so pairs straddle
                    // panes unevenly.
                    if (m + id as i64 + i as i64) % (2 + i as i64) != 0 {
                        events.push(ev(t, id, m, (m * 7 + id as i64) as f64));
                    }
                }
            }
        }
        (p, plan, crate::exec::split_by_type(&events))
    }

    #[test]
    fn seq3_o3_lowers_without_intermediate_dedup_and_keeps_raw_count() {
        let (p, plan, sources) = seq3_o3();
        let phys = PhysicalConfig {
            schema_conformance: false,
            ..PhysicalConfig::default()
        };
        let (g, _) = build_pipeline(&plan, &sources, &phys).unwrap();
        let run = crate::exec::run_pattern(
            &p,
            &MapperOptions::o3(),
            &sources,
            &phys,
            &asp::runtime::ExecutorConfig::default(),
        )
        .unwrap();
        // Before emit-once intermediates the same plan lowered to 15 nodes
        // (a hash-exchanged `δ:intermediate` behind the lower join) and
        // sank these exact counts: the root keeps its pane multiplicity.
        assert_eq!(g.node_count(), 14, "one node fewer per intermediate join");
        assert_eq!(run.raw_count(), 111);
        assert_eq!(run.dedup_matches().len(), 74);
    }

    #[test]
    fn probe_direction_follows_the_order_pairs() {
        let (_, plan, _) = seq3_o3();
        let scan = |v: VarId| -> PlanNode {
            plan.root
                .scans()
                .into_iter()
                .find(|s| matches!(s, PlanNode::Scan { var, .. } if *var == v))
                .cloned()
                .unwrap()
        };
        let (a, b, c) = (scan(0), scan(1), scan(2));
        let w = Duration::from_minutes(4);
        let both = IntervalBounds::conjunction(w);
        assert_eq!(probe_of(&a, &b, &[(0, 1)], w), IntervalBounds::seq(w));
        assert_eq!(
            probe_of(&b, &a, &[(0, 1)], w),
            IntervalBounds::seq_mirror(w)
        );
        assert_eq!(probe_of(&a, &b, &[], w), both, "AND: no order");
        let Some(PlanNode::Join { left, right, .. }) = find_join(&plan.root, 2) else {
            panic!("SEQ3 has a join over all three variables");
        };
        // Every join of a SEQ carries the cross-side pairs: one direction.
        assert_ne!(probe_of(left, right, &[(0, 2), (1, 2), (0, 1)], w), both);
        // A projection keeps its input's working timestamp.
        let pb = PlanNode::Project {
            input: Box::new(b.clone()),
            layout: vec![1],
        };
        assert_eq!(probe_of(&a, &pb, &[(0, 1)], w), IntervalBounds::seq(w));
        let union = PlanNode::Union {
            inputs: vec![b.clone(), c.clone()],
        };
        assert_eq!(
            probe_of(&a, &union, &[(0, 1), (0, 2)], w),
            both,
            "a union's working ts is not a constituent minimum"
        );
    }

    /// The first join (pre-order) whose layout spans `n + 1` variables.
    fn find_join(n: &PlanNode, top: VarId) -> Option<&PlanNode> {
        match n {
            PlanNode::Join { left, right, .. } => {
                if n.layout().len() == top + 1 {
                    Some(n)
                } else {
                    find_join(left, top).or_else(|| find_join(right, top))
                }
            }
            PlanNode::Project { input, .. } => find_join(input, top),
            _ => None,
        }
    }

    #[test]
    fn theta_resolves_predicates_and_treats_unbound_vars_as_vacuous() {
        use asp::event::Attr;
        let theta = join_theta(JoinThetaSpec {
            left_layout: vec![0],
            right_layout: vec![2],
            order_pairs: vec![(0, 2), (1, 2)],
            predicates: vec![
                Predicate::cross(0, Attr::Value, CmpOp::Le, 2, Attr::Value),
                // Var 1 is bound by neither side: vacuous.
                Predicate::cross(1, Attr::Value, CmpOp::Gt, 2, Attr::Value),
            ],
            span_ms: 10 * asp::time::MINUTE_MS,
            ats_check: None,
        });
        let l = Tuple::from_event(ev(Q, 1, 0, 1.0));
        assert!(theta(&l, &Tuple::from_event(ev(V, 1, 2, 5.0))));
        assert!(
            !theta(&l, &Tuple::from_event(ev(V, 1, 2, 0.5))),
            "e1 ≤ e3 fails"
        );
        assert!(!theta(&l, &Tuple::from_event(ev(V, 1, 0, 5.0))), "order");
        // An `ats` check on a variable neither side binds always rejects.
        let never = join_theta(JoinThetaSpec {
            left_layout: vec![0],
            right_layout: vec![2],
            order_pairs: vec![],
            predicates: vec![],
            span_ms: 10 * asp::time::MINUTE_MS,
            ats_check: Some(1),
        });
        let mut annotated = l.clone();
        annotated.ats = Some(Timestamp::from_minutes(9));
        assert!(!never(&annotated, &Tuple::from_event(ev(V, 1, 2, 5.0))));
    }
}
