//! Static cost & state-bound analysis over logical plans.
//!
//! [`analyze`] propagates per-node **output-rate**, **per-window
//! cardinality**, and **worst-case state** estimates bottom-up from
//! [`Annotations`] (source rates, selectivities, per-window peaks — either
//! pattern-derived defaults or measured from streams), and emits
//! `A`-coded diagnostics for the plan shapes the paper's evaluation shows
//! degenerating (Sections 5.2.1–5.2.4): state super-linear in the window
//! size, join output amplification, Kleene/skip-till-any combinatorial
//! growth, unpartitionable global joins, and sliding-window duplication.
//!
//! | code | pathology |
//! |------|-----------|
//! | A001 | worst-case state super-linear in the window size `W` |
//! | A002 | join output rate exceeds its combined input rate by a factor |
//! | A003 | per-window worst-case cardinality is combinatorial |
//! | A004 | global (unpartitioned) join above the parallelism rate limit |
//! | A005 | sliding-window duplication factor `⌈W/s⌉` at or above limit |
//! | A006 | aggregate count threshold unreachable (can never fire) |
//!
//! Three consumers close the loop: the `plan-explain` driver renders the
//! estimates as an `EXPLAIN` tree ([`crate::explain`]), the optimizer
//! orders joins by the same cost formulas
//! ([`crate::optimizer::auto_options`]), and [`runtime_bounds`] turns
//! measured streams into hard [`StaticBounds`] that
//! `asp::runtime::RunReport::check_bounds` verifies against the observed
//! telemetry after every debug-mode run (see `crate::exec::run_pattern`) —
//! a cost model that is wrong by more than its stated margins fails CI.

use std::collections::HashMap;
use std::fmt;

use asp::event::{Event, EventType};
use asp::obs::StaticBounds;
use asp::tuple::Tuple;
use asp::validate::Severity;

use sea::annotations::{max_interval_count, Annotations};
use sea::pattern::{Pattern, WindowSpec};

use crate::diag::{Diag, DiagCode};
use crate::physical::PhysicalConfig;
use crate::plan::{JoinWindowing, LogicalPlan, Partitioning, PlanNode};

/// Thresholds for the pathology diagnostics (all configurable so the
/// severity of "pathological" can track the deployment's capacity).
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// A002: flag a join whose estimated output rate exceeds this factor
    /// times its combined input rate.
    pub amplification_factor: f64,
    /// A003: flag a node whose worst-case per-window cardinality exceeds
    /// this count.
    pub combinatorial_limit: f64,
    /// A004: flag a global (unpartitioned) join whose combined input rate
    /// exceeds this many tuples/minute.
    pub global_rate_limit: f64,
    /// A005: flag a sliding join whose duplication factor `⌈W/s⌉` reaches
    /// this value.
    pub duplication_limit: f64,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            amplification_factor: 4.0,
            combinatorial_limit: 10_000.0,
            global_rate_limit: 600.0,
            duplication_limit: 8.0,
        }
    }
}

/// Stable identifier of a plan pathology detected by [`analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalyzeCode {
    /// A001: a node's worst-case state grows super-linearly with the
    /// window size (stacked window-dependent inputs, paper §5.2.2).
    StateSuperLinear,
    /// A002: a join's output rate exceeds its combined input rate by more
    /// than the configured amplification factor (§5.2.1 selectivity
    /// collapse).
    JoinAmplification,
    /// A003: worst-case per-window cardinality is combinatorial
    /// (Kleene/skip-till-any self-join chains, §5.2.2).
    CombinatorialState,
    /// A004: a global join above the rate limit — no parallelization
    /// potential (the Cartesian-product workaround of §4.2.1 / §5.2.3).
    GlobalHighRateJoin,
    /// A005: sliding-window duplication factor `⌈W/s⌉` at or above the
    /// limit; the O1 interval rewrite removes it (§4.3.1).
    WindowDuplication,
    /// A006: an aggregate whose count threshold exceeds the worst-case
    /// per-window input — the plan can never emit.
    DeadAggregate,
}

impl AnalyzeCode {
    /// Every analyzer code, for doc-sync tests and exhaustive rendering.
    pub const ALL: &'static [AnalyzeCode] = &[
        AnalyzeCode::StateSuperLinear,
        AnalyzeCode::JoinAmplification,
        AnalyzeCode::CombinatorialState,
        AnalyzeCode::GlobalHighRateJoin,
        AnalyzeCode::WindowDuplication,
        AnalyzeCode::DeadAggregate,
    ];

    /// The stable `Axxx` string for this code.
    pub fn as_str(&self) -> &'static str {
        match self {
            AnalyzeCode::StateSuperLinear => "A001",
            AnalyzeCode::JoinAmplification => "A002",
            AnalyzeCode::CombinatorialState => "A003",
            AnalyzeCode::GlobalHighRateJoin => "A004",
            AnalyzeCode::WindowDuplication => "A005",
            AnalyzeCode::DeadAggregate => "A006",
        }
    }
}

impl fmt::Display for AnalyzeCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl DiagCode for AnalyzeCode {
    fn as_str(&self) -> &'static str {
        AnalyzeCode::as_str(self)
    }
}

/// One detected pathology, anchored at a plan node. All analyzer findings
/// are warnings (the plan runs, expensively); the shared [`Diag`] carrier
/// keeps rendering uniform with the G/P/S families.
pub type AnalyzeDiagnostic = Diag<AnalyzeCode>;

/// Per-node estimates propagated bottom-up by [`analyze`].
#[derive(Debug, Clone)]
pub struct NodeEstimate {
    /// Expected emission rate, tuples/minute (sliding joins include the
    /// duplicate detections of overlapping windows).
    pub out_rate: f64,
    /// Expected matches among one window instance's content.
    pub per_window: f64,
    /// Worst-case matches per window (combinatorial; predicates ignored —
    /// they only reduce). This is the soundness bound the proptests hold
    /// against the oracle.
    pub window_bound: f64,
    /// Expected retained tuples (steady state).
    pub state_tuples: f64,
    /// Worst-case retained bytes under the annotations' per-window peaks.
    pub state_bytes: f64,
    /// Constituent events per output tuple.
    pub arity: usize,
    /// Polynomial degree of the per-window cardinality in the window size
    /// `W` (a scan is degree 1: `n = rate × W`).
    pub card_degree: u32,
    /// Polynomial degree of the worst-case state in `W`; degree ≥ 2 is
    /// the A001 pathology.
    pub state_degree: u32,
}

/// One analyzed plan node: label, estimates, children.
#[derive(Debug, Clone)]
pub struct AnalyzedNode {
    /// Rendered operator label (mirrors the plan's `EXPLAIN` line).
    pub label: String,
    /// The bottom-up estimates for this node.
    pub estimate: NodeEstimate,
    /// Analyzed children, in plan order.
    pub children: Vec<AnalyzedNode>,
}

/// The result of analyzing a plan: the estimate tree plus diagnostics.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Root of the per-node estimate tree (parallel to the plan tree).
    pub root: AnalyzedNode,
    /// Detected pathologies, in plan walk order.
    pub diagnostics: Vec<AnalyzeDiagnostic>,
    /// Sum of worst-case state bytes across all nodes.
    pub total_state_bytes: f64,
}

/// Conservative per-tuple state cost: the tuple header, the constituent
/// event storage with 2× capacity headroom, plus a map/ordering-structure
/// entry allowance.
pub fn tuple_state_bytes(arity: usize) -> f64 {
    (std::mem::size_of::<Tuple>() + 2 * arity.max(1) * std::mem::size_of::<Event>() + 64) as f64
}

/// Analyze a plan bottom-up under the given annotations.
pub fn analyze(plan: &LogicalPlan, ann: &Annotations, cfg: &AnalyzeConfig) -> Analysis {
    let mut diagnostics = Vec::new();
    let root = analyze_node(&plan.root, plan.window, ann, cfg, &mut diagnostics);
    let total_state_bytes = sum_state(&root);
    Analysis {
        root,
        diagnostics,
        total_state_bytes,
    }
}

fn sum_state(n: &AnalyzedNode) -> f64 {
    n.estimate.state_bytes + n.children.iter().map(sum_state).sum::<f64>()
}

fn analyze_node(
    node: &PlanNode,
    w: WindowSpec,
    ann: &Annotations,
    cfg: &AnalyzeConfig,
    diags: &mut Vec<AnalyzeDiagnostic>,
) -> AnalyzedNode {
    let w_min = w.size_minutes();
    match node {
        PlanNode::Scan {
            type_name,
            leaf,
            var,
            ..
        } => {
            let rate = ann.rate(leaf.etype) * ann.selectivity(*var);
            AnalyzedNode {
                label: format!("Scan {type_name} [e{}]", var + 1),
                estimate: NodeEstimate {
                    out_rate: rate,
                    per_window: rate * w_min,
                    window_bound: ann.max_per_window(leaf.etype),
                    state_tuples: 0.0,
                    state_bytes: 0.0,
                    arity: 1,
                    card_degree: 1,
                    state_degree: 0,
                },
                children: Vec::new(),
            }
        }
        PlanNode::Join {
            left,
            right,
            windowing,
            partitioning,
            order_pairs,
            predicates,
            ..
        } => {
            let l = analyze_node(left, w, ann, cfg, diags);
            let r = analyze_node(right, w, ann, cfg, diags);
            let label = format!("Join {windowing} [{partitioning}]");
            let le = &l.estimate;
            let re = &r.estimate;

            // Ordering constraints halve the candidate space each; an
            // interval join with a non-negative lower bound already
            // encodes the primary SEQ order, so one pair comes for free.
            let implied = match windowing {
                JoinWindowing::Interval { lower, .. }
                    if lower.millis() >= 0 && !order_pairs.is_empty() =>
                {
                    1
                }
                _ => 0,
            };
            let sel = ann.cross_selectivity.powi(predicates.len() as i32)
                * 0.5f64.powi((order_pairs.len() - implied) as i32);

            let (out_rate, per_window, state_tuples) = match windowing {
                JoinWindowing::Sliding { size, slide } => {
                    let per_window = le.per_window * re.per_window * sel;
                    let slide_min = slide.millis().max(1) as f64 / 60_000.0;
                    let retention_min = (size.millis() + slide.millis()) as f64 / 60_000.0;
                    (
                        per_window / slide_min,
                        per_window,
                        (le.out_rate + re.out_rate) * retention_min,
                    )
                }
                JoinWindowing::Interval { lower, upper } => {
                    let reach_min = (upper.millis() - lower.millis()).max(0) as f64 / 60_000.0;
                    let out_rate = le.out_rate * re.out_rate * reach_min * sel;
                    let per_window = le.per_window
                        * re.per_window
                        * (reach_min / w_min.max(1e-9)).min(1.0)
                        * sel;
                    let l_hold = upper.millis().max(0) as f64 / 60_000.0;
                    let r_hold = (-lower.millis()).max(0) as f64 / 60_000.0;
                    (
                        out_rate,
                        per_window,
                        le.out_rate * l_hold + re.out_rate * r_hold,
                    )
                }
            };
            let window_bound = le.window_bound * re.window_bound;
            // Worst case both sides hold ~two windows' worth of peak input.
            let state_bytes = 2.0
                * (le.window_bound * tuple_state_bytes(le.arity)
                    + re.window_bound * tuple_state_bytes(re.arity));
            let card_degree = le.card_degree + re.card_degree;
            let state_degree = le
                .state_degree
                .max(re.state_degree)
                .max(le.card_degree)
                .max(re.card_degree);

            if state_degree >= 2 {
                diags.push(AnalyzeDiagnostic {
                    code: AnalyzeCode::StateSuperLinear,
                    severity: Severity::Warning,
                    node: label.clone(),
                    message: format!(
                        "retained input grows ~W^{state_degree} with the window size \
                         (worst case {} at the annotated peaks); reorder or pre-filter \
                         the window-dependent side",
                        human_bytes(state_bytes)
                    ),
                });
            }
            let in_rate = le.out_rate + re.out_rate;
            if in_rate > 0.0 && out_rate > cfg.amplification_factor * in_rate {
                diags.push(AnalyzeDiagnostic {
                    code: AnalyzeCode::JoinAmplification,
                    severity: Severity::Warning,
                    node: label.clone(),
                    message: format!(
                        "estimated output {out_rate:.1}/min exceeds {:.0}× the combined \
                         input rate {in_rate:.1}/min; tighten predicates or join the \
                         rarer streams first",
                        cfg.amplification_factor
                    ),
                });
            }
            if window_bound > cfg.combinatorial_limit {
                diags.push(AnalyzeDiagnostic {
                    code: AnalyzeCode::CombinatorialState,
                    severity: Severity::Warning,
                    node: label.clone(),
                    message: format!(
                        "worst-case per-window cardinality {window_bound:.0} exceeds \
                         {:.0} (skip-till-any combinatorial growth)",
                        cfg.combinatorial_limit
                    ),
                });
            }
            if matches!(partitioning, Partitioning::Global) && in_rate > cfg.global_rate_limit {
                diags.push(AnalyzeDiagnostic {
                    code: AnalyzeCode::GlobalHighRateJoin,
                    severity: Severity::Warning,
                    node: label.clone(),
                    message: format!(
                        "global join at {in_rate:.0} tuples/min has no parallelization \
                         potential; provide an equi-key (O3) if the pattern allows"
                    ),
                });
            }
            if let JoinWindowing::Sliding { size, slide } = windowing {
                let dup = WindowSpec {
                    size: *size,
                    slide: *slide,
                }
                .duplication_factor();
                if dup >= cfg.duplication_limit {
                    diags.push(AnalyzeDiagnostic {
                        code: AnalyzeCode::WindowDuplication,
                        severity: Severity::Warning,
                        node: label.clone(),
                        message: format!(
                            "each match is re-emitted in up to ⌈W/s⌉ = {dup:.0} \
                             overlapping windows; the O1 interval rewrite is \
                             duplicate-free"
                        ),
                    });
                }
            }

            AnalyzedNode {
                label,
                estimate: NodeEstimate {
                    out_rate,
                    per_window,
                    window_bound,
                    state_tuples,
                    state_bytes,
                    arity: le.arity + re.arity,
                    card_degree,
                    state_degree,
                },
                children: vec![l, r],
            }
        }
        PlanNode::Union { inputs } => {
            let children: Vec<AnalyzedNode> = inputs
                .iter()
                .map(|i| analyze_node(i, w, ann, cfg, diags))
                .collect();
            let est = NodeEstimate {
                out_rate: children.iter().map(|c| c.estimate.out_rate).sum(),
                per_window: children.iter().map(|c| c.estimate.per_window).sum(),
                window_bound: children.iter().map(|c| c.estimate.window_bound).sum(),
                state_tuples: 0.0,
                state_bytes: 0.0,
                arity: children.iter().map(|c| c.estimate.arity).max().unwrap_or(1),
                card_degree: children
                    .iter()
                    .map(|c| c.estimate.card_degree)
                    .max()
                    .unwrap_or(0),
                state_degree: children
                    .iter()
                    .map(|c| c.estimate.state_degree)
                    .max()
                    .unwrap_or(0),
            };
            AnalyzedNode {
                label: "Union".to_string(),
                estimate: est,
                children,
            }
        }
        PlanNode::Aggregate {
            input,
            m,
            window,
            partitioning,
        } => {
            let c = analyze_node(input, w, ann, cfg, diags);
            let label = format!("Aggregate count ≥ {m} [{partitioning}]");
            let ce = &c.estimate;
            let keys = match partitioning {
                Partitioning::ByKey => ann.key_fanout.max(1.0),
                Partitioning::Global => 1.0,
            };
            let lambda = ce.per_window;
            let qualify = ((lambda / keys) / (*m as f64).max(1.0)).min(1.0);
            let per_window = (keys * qualify).min(lambda.max(keys.min(1.0)));
            let dup = window.duplication_factor();
            let window_bound = if ce.window_bound < *m as f64 {
                0.0
            } else {
                match partitioning {
                    Partitioning::ByKey => keys.min(ce.window_bound),
                    Partitioning::Global => 1.0,
                }
            };
            if ce.window_bound < *m as f64 {
                diags.push(AnalyzeDiagnostic {
                    code: AnalyzeCode::DeadAggregate,
                    severity: Severity::Warning,
                    node: label.clone(),
                    message: format!(
                        "count threshold {m} exceeds the worst-case per-window input \
                         {:.0}; the aggregate can never fire",
                        ce.window_bound
                    ),
                });
            }
            // One accumulator per open (pane, key); worst case every
            // per-window input is a distinct key.
            let state_bytes = dup * ce.window_bound.max(keys) * 512.0;
            AnalyzedNode {
                label,
                estimate: NodeEstimate {
                    out_rate: per_window * window.windows_per_minute(),
                    per_window,
                    window_bound,
                    state_tuples: dup * keys,
                    state_bytes,
                    arity: 1,
                    card_degree: 0,
                    state_degree: ce.card_degree.max(ce.state_degree).max(1),
                },
                children: vec![c],
            }
        }
        PlanNode::NextOccurrence {
            trigger,
            marker,
            w: hold,
        } => {
            let c = analyze_node(trigger, w, ann, cfg, diags);
            let label = format!("NextOccurrence(¬{})", marker.type_name);
            let ce = &c.estimate;
            let hold_min = hold.millis().max(0) as f64 / 60_000.0;
            let marker_rate = ann.rate(marker.etype);
            let state_bytes = 2.0
                * (ce.window_bound * tuple_state_bytes(ce.arity)
                    + ann.max_per_window(marker.etype) * 48.0);
            AnalyzedNode {
                label,
                estimate: NodeEstimate {
                    out_rate: ce.out_rate,
                    per_window: ce.per_window,
                    window_bound: ce.window_bound,
                    state_tuples: (ce.out_rate + marker_rate) * hold_min,
                    state_bytes,
                    arity: ce.arity,
                    card_degree: ce.card_degree,
                    state_degree: ce.state_degree.max(ce.card_degree).max(1),
                },
                children: vec![c],
            }
        }
        PlanNode::Project { input, layout } => {
            // A pure stateless reorder: every estimate passes through.
            let c = analyze_node(input, w, ann, cfg, diags);
            let cols: Vec<String> = layout.iter().map(|v| format!("e{}", v + 1)).collect();
            AnalyzedNode {
                label: format!("Project [{}]", cols.join(", ")),
                estimate: NodeEstimate {
                    state_tuples: 0.0,
                    state_bytes: 0.0,
                    ..c.estimate.clone()
                },
                children: vec![c],
            }
        }
    }
}

/// Render a byte count compactly (`1.5 KiB`, `3.2 MiB`, …).
pub fn human_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1} GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

// ---------------------------------------------------------------------------
// Hard runtime bounds from concrete streams (the falsifiability loop)
// ---------------------------------------------------------------------------

/// Fixed state allowance added once per run: operator scratch, per-window
/// bookkeeping, and watermark-skew slack the per-tuple terms don't model.
const STATE_ALLOWANCE_BYTES: f64 = 64.0 * 1024.0;

/// Compute hard per-run bounds — total sink emissions and total peak
/// operator state — for executing `plan` over exactly these streams.
///
/// Unlike the [`analyze`] estimates (expectations under annotations),
/// these are worst-case counts over the *actual* events: every emitted
/// match spans `< W` (the span guard), sliding joins re-emit at most
/// `⌈W/s⌉` times per containing window, and each operator retains at most
/// ~two windows' worth of peak input (a documented 2× margin absorbs
/// watermark/batch skew). `RunReport::check_bounds` compares them against
/// the observed telemetry; a violation falsifies the cost model.
pub fn runtime_bounds(
    plan: &LogicalPlan,
    _pattern: &Pattern,
    sources: &HashMap<EventType, Vec<Event>>,
    phys: &PhysicalConfig,
) -> StaticBounds {
    let mut ts_by_type: HashMap<EventType, Vec<i64>> = HashMap::new();
    let mut ts_by_id: HashMap<EventType, HashMap<u32, Vec<i64>>> = HashMap::new();
    for (t, evs) in sources {
        let mut ts: Vec<i64> = evs.iter().map(|e| e.ts.millis()).collect();
        ts.sort_unstable();
        ts_by_type.insert(*t, ts);
        let per_id = ts_by_id.entry(*t).or_default();
        for e in evs {
            per_id.entry(e.id).or_default().push(e.ts.millis());
        }
        for ts in per_id.values_mut() {
            ts.sort_unstable();
        }
    }
    let w_ms = plan.window.size.millis().max(1);
    let s_ms = plan.window.slide.millis().max(1);
    let ctx = BoundCtx {
        ts: &ts_by_type,
        ts_by_id: &ts_by_id,
        w_ms,
        s_ms,
    };
    let mut sink = total_bound(&plan.root, &ctx);
    if phys.dedup_output {
        // Output dedup only ever reduces emissions; the state term below
        // accounts for its table.
        sink = sink.min(f64::MAX);
    }
    let mut state = STATE_ALLOWANCE_BYTES;
    state_bound(&plan.root, &ctx, &mut state);
    if phys.dedup_output {
        let arity = plan.root.layout().len().max(1);
        state += total_bound(&plan.root, &ctx) * dedup_entry_bytes(arity);
    }
    StaticBounds {
        max_sink_tuples: Some(ceil_u64(sink)),
        max_total_state_bytes: Some(ceil_u64(state)),
        max_keyed_run: Some(ceil_u64(keyed_run_bound(&plan.root, &ctx))),
        origin: "cep2asp::analyze::runtime_bounds".to_string(),
    }
}

fn ceil_u64(x: f64) -> u64 {
    if x >= u64::MAX as f64 {
        u64::MAX
    } else {
        x.max(0.0).ceil() as u64
    }
}

struct BoundCtx<'a> {
    ts: &'a HashMap<EventType, Vec<i64>>,
    /// Timestamps split by producer id within each type — the granularity
    /// of O3 key partitioning ([`keyed_run_bound`]).
    ts_by_id: &'a HashMap<EventType, HashMap<u32, Vec<i64>>>,
    w_ms: i64,
    s_ms: i64,
}

impl BoundCtx<'_> {
    fn count(&self, t: EventType) -> f64 {
        self.ts.get(&t).map_or(0.0, |v| v.len() as f64)
    }

    /// Events of `t` strictly inside `(center − W, center + W)` — where
    /// every other constituent of a match anchored at `center` must lie
    /// (the span guard enforces `span < W`).
    fn near(&self, t: EventType, center: i64) -> f64 {
        let Some(ts) = self.ts.get(&t) else {
            return 0.0;
        };
        let lo = ts.partition_point(|x| *x <= center - self.w_ms);
        let hi = ts.partition_point(|x| *x < center + self.w_ms);
        (hi - lo) as f64
    }

    /// Peak events of the given types in any interval of ~two windows —
    /// bounds what one operator side can retain at once.
    fn peak_two_windows(&self, types: &[EventType]) -> f64 {
        let mut merged: Vec<i64> = Vec::new();
        for t in types {
            if let Some(ts) = self.ts.get(t) {
                merged.extend_from_slice(ts);
            }
        }
        merged.sort_unstable();
        max_interval_count(&merged, 2 * self.w_ms + self.s_ms) as f64
    }

    /// Total events of type `t` carrying the most frequent producer id —
    /// the hard ceiling on one key's run under O3 partitioning.
    fn max_count_per_id(&self, t: EventType) -> f64 {
        self.ts_by_id.get(&t).map_or(0.0, |per_id| {
            per_id
                .values()
                .map(|ts| ts.len() as f64)
                .fold(0.0, f64::max)
        })
    }
}

fn dedup_entry_bytes(arity: usize) -> f64 {
    (64 + arity * std::mem::size_of::<Event>()) as f64
}

/// Product of the sliding duplication factors of every sliding join in the
/// subtree — the worst-case re-emission multiplicity of one distinct match.
fn dup_product(node: &PlanNode) -> f64 {
    match node {
        PlanNode::Scan { .. } => 1.0,
        PlanNode::Join {
            left,
            right,
            windowing,
            ..
        } => {
            let own = match windowing {
                JoinWindowing::Sliding { size, slide } => WindowSpec {
                    size: *size,
                    slide: *slide,
                }
                .duplication_factor(),
                JoinWindowing::Interval { .. } => 1.0,
            };
            own * dup_product(left) * dup_product(right)
        }
        PlanNode::Union { inputs } => inputs.iter().map(dup_product).fold(1.0, f64::max),
        PlanNode::Aggregate { input, .. } => dup_product(input),
        PlanNode::NextOccurrence { trigger, .. } => dup_product(trigger),
        PlanNode::Project { input, .. } => dup_product(input),
    }
}

/// Does the subtree consist only of scans, joins, and next-occurrence
/// nodes (the shapes the anchor formula covers)?
fn anchorable(node: &PlanNode) -> bool {
    match node {
        PlanNode::Scan { .. } => true,
        PlanNode::Join { left, right, .. } => anchorable(left) && anchorable(right),
        PlanNode::NextOccurrence { trigger, .. } => anchorable(trigger),
        PlanNode::Project { input, .. } => anchorable(input),
        PlanNode::Union { .. } | PlanNode::Aggregate { .. } => false,
    }
}

/// Upper bound on total tuples the node emits over the whole run.
fn total_bound(node: &PlanNode, ctx: &BoundCtx<'_>) -> f64 {
    match node {
        PlanNode::Scan { etype, .. } => ctx.count(*etype),
        PlanNode::Union { inputs } => inputs.iter().map(|i| total_bound(i, ctx)).sum(),
        PlanNode::Aggregate { input, window, .. } => {
            // ≤ one emission per (window, key) with ≥ 1 qualifying input:
            // Σ_w keys_w ≤ Σ_w inputs_w = total_inputs × ⌈W/s⌉.
            total_bound(input, ctx) * window.duplication_factor()
        }
        PlanNode::NextOccurrence { trigger, .. } => total_bound(trigger, ctx),
        PlanNode::Project { input, .. } => total_bound(input, ctx),
        PlanNode::Join { left, right, .. } => {
            if anchorable(node) {
                anchor_bound(node, ctx) * dup_product(node)
            } else {
                // Exotic shape (union/aggregate under a join): loose but
                // sound product of child totals.
                total_bound(left, ctx) * total_bound(right, ctx) * dup_product(node)
            }
        }
    }
}

/// Distinct-combination bound for a pure join subtree: anchor on each
/// event of the rarest scanned type; all other constituents must fall
/// strictly within `±W` of it.
fn anchor_bound(node: &PlanNode, ctx: &BoundCtx<'_>) -> f64 {
    let scans = node.scans();
    let mut types: Vec<EventType> = Vec::new();
    for s in &scans {
        if let PlanNode::Scan { etype, .. } = s {
            types.push(*etype);
        }
    }
    if types.is_empty() {
        return 0.0;
    }
    let anchor = types
        .iter()
        .enumerate()
        .min_by(|a, b| ctx.count(*a.1).total_cmp(&ctx.count(*b.1)))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let Some(anchor_ts) = ctx.ts.get(&types[anchor]) else {
        return 0.0;
    };
    let mut total = 0.0;
    for &e in anchor_ts {
        let mut combos = 1.0;
        for (i, t) in types.iter().enumerate() {
            if i == anchor {
                continue;
            }
            combos *= ctx.near(*t, e);
        }
        total += combos;
    }
    total
}

/// Upper bound on tuples a downstream operator can hold from this input
/// at once. Scans retain at most ~two windows' worth of raw events before
/// eviction; anything deeper (a sub-join's pair stream, an aggregate's
/// qualifier stream) is bounded by its total emissions over the whole run
/// — loose, but sound for arbitrary rates and watermark skew.
fn retained_bound(node: &PlanNode, ctx: &BoundCtx<'_>) -> f64 {
    match node {
        PlanNode::Scan { etype, .. } => ctx.peak_two_windows(&[*etype]),
        PlanNode::Union { inputs } => inputs.iter().map(|i| retained_bound(i, ctx)).sum(),
        PlanNode::Project { input, .. } => retained_bound(input, ctx),
        _ => total_bound(node, ctx),
    }
}

/// Upper bound on the longest per-key run (`asp`'s `KeyedSide`: the tuples
/// buffered under one partition key on one side of one join instance) any
/// join in the subtree can build.
///
/// A [`Partitioning::ByKey`] join over a raw scan is re-keyed on the event
/// id (O3), so one run holds only one producer's events and is ceiled by
/// the busiest id's total count; a [`Partitioning::Global`] join runs
/// under a single uniform key, so the run *is* the whole side. Deeper
/// inputs (sub-joins, unions) carry keys this model doesn't track and are
/// ceiled by their total emissions.
///
/// Unlike the byte model, no windowed ("~two panes' worth") tightening is
/// applied: eviction only runs on watermarks, and the merged watermark of
/// a binary join is the *minimum* over its input channels — with
/// cross-source startup skew one side can buffer its entire stream before
/// the other channel's first punctuation arrives, so any timing-based run
/// bound is falsified by small inputs. Only the count ceilings are hard.
fn keyed_run_bound(node: &PlanNode, ctx: &BoundCtx<'_>) -> f64 {
    match node {
        PlanNode::Scan { .. } => 0.0,
        PlanNode::Union { inputs } => inputs
            .iter()
            .map(|i| keyed_run_bound(i, ctx))
            .fold(0.0, f64::max),
        PlanNode::Aggregate { input, .. } => keyed_run_bound(input, ctx),
        PlanNode::NextOccurrence { trigger, .. } => keyed_run_bound(trigger, ctx),
        PlanNode::Project { input, .. } => keyed_run_bound(input, ctx),
        PlanNode::Join {
            left,
            right,
            partitioning,
            ..
        } => {
            let mut worst = 0.0f64;
            for side in [left.as_ref(), right.as_ref()] {
                let run = match (partitioning, side) {
                    (Partitioning::ByKey, PlanNode::Scan { etype, .. }) => {
                        ctx.max_count_per_id(*etype)
                    }
                    (Partitioning::Global, PlanNode::Scan { etype, .. }) => ctx.count(*etype),
                    _ => total_bound(side, ctx),
                };
                worst = worst.max(run).max(keyed_run_bound(side, ctx));
            }
            worst
        }
    }
}

/// Accumulate the worst-case peak state (bytes) of every stateful operator
/// the physical planner derives from this subtree.
fn state_bound(node: &PlanNode, ctx: &BoundCtx<'_>, acc: &mut f64) {
    match node {
        PlanNode::Scan { .. } => {}
        PlanNode::Project { input, .. } => state_bound(input, ctx, acc),
        PlanNode::Union { inputs } => inputs.iter().for_each(|i| state_bound(i, ctx, acc)),
        PlanNode::Join { left, right, .. } => {
            for side in [left.as_ref(), right.as_ref()] {
                let arity = side.layout().len().max(1);
                // 2× margin over the retained-input peak absorbs
                // watermark and batch skew.
                *acc += 2.0 * retained_bound(side, ctx) * tuple_state_bytes(arity);
                state_bound(side, ctx, acc);
            }
            // Per-open-window bookkeeping.
            *acc += dup_product(node) * 256.0;
        }
        PlanNode::Aggregate { input, window, .. } => {
            // One accumulator per open (pane, key); keys ≤ inputs.
            *acc += window.duplication_factor() * retained_bound(input, ctx) * 512.0;
            state_bound(input, ctx, acc);
        }
        PlanNode::NextOccurrence {
            trigger, marker, ..
        } => {
            let arity = trigger.layout().len().max(1);
            *acc += 2.0
                * (retained_bound(trigger, ctx) * tuple_state_bytes(arity)
                    + ctx.peak_two_windows(&[marker.etype]) * 48.0);
            state_bound(trigger, ctx, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::{translate, MapperOptions};
    use asp::event::Attr;
    use asp::time::Timestamp;
    use sea::pattern::{builders, WindowSpec};
    use sea::predicate::{CmpOp, Predicate};

    const Q: EventType = EventType(0);
    const V: EventType = EventType(1);
    const PM: EventType = EventType(2);

    fn codes(d: &[AnalyzeDiagnostic]) -> Vec<AnalyzeCode> {
        d.iter().map(|x| x.code).collect()
    }

    fn seqn(n: usize, w: i64) -> Pattern {
        let types = [(Q, "Q"), (V, "V"), (PM, "PM"), (EventType(3), "T3")];
        builders::seq(&types[..n], WindowSpec::minutes(w), vec![])
    }

    #[test]
    fn scan_estimates_fold_rate_and_selectivity() {
        let p = builders::seq(
            &[(Q, "Q"), (V, "V")],
            WindowSpec::minutes(4),
            vec![Predicate::threshold(0, Attr::Value, CmpOp::Le, 50.0)],
        );
        let plan = translate(&p, &MapperOptions::o1()).expect("plan");
        let ann = Annotations::for_pattern(&p).with_rate(Q, 10.0);
        let a = analyze(&plan, &ann, &AnalyzeConfig::default());
        let scan_q = &a.root.children[0];
        assert!(scan_q.label.contains("Scan Q"), "{}", scan_q.label);
        // rate 10 × default 0.5 selectivity (one threshold term).
        assert!((scan_q.estimate.out_rate - 5.0).abs() < 1e-9);
        assert!((scan_q.estimate.per_window - 20.0).abs() < 1e-9);
    }

    #[test]
    fn binary_join_state_is_linear_no_a001() {
        let p = seqn(2, 5);
        let plan = translate(&p, &MapperOptions::o1()).expect("plan");
        let ann = Annotations::for_pattern(&p);
        let a = analyze(&plan, &ann, &AnalyzeConfig::default());
        assert_eq!(a.root.estimate.state_degree, 1);
        assert!(!codes(&a.diagnostics).contains(&AnalyzeCode::StateSuperLinear));
    }

    #[test]
    fn stacked_joins_trip_a001_super_linear_state() {
        let p = seqn(3, 5);
        let plan = translate(&p, &MapperOptions::o1()).expect("plan");
        let ann = Annotations::for_pattern(&p);
        let a = analyze(&plan, &ann, &AnalyzeConfig::default());
        assert!(
            codes(&a.diagnostics).contains(&AnalyzeCode::StateSuperLinear),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn high_rates_trip_a002_amplification() {
        let p = seqn(2, 5);
        let plan = translate(&p, &MapperOptions::o1()).expect("plan");
        let ann = Annotations::for_pattern(&p)
            .with_rate(Q, 100.0)
            .with_rate(V, 100.0);
        let a = analyze(&plan, &ann, &AnalyzeConfig::default());
        // 100 × 100 × 5 = 50 000/min out vs 200/min in.
        assert!(
            codes(&a.diagnostics).contains(&AnalyzeCode::JoinAmplification),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn kleene_chain_trips_a003_combinatorial() {
        let p = builders::iter(V, "V", 4, WindowSpec::minutes(5), vec![]);
        let plan = translate(&p, &MapperOptions::plain()).expect("plan");
        let ann = Annotations::for_pattern(&p).with_rate(V, 60.0);
        let a = analyze(&plan, &ann, &AnalyzeConfig::default());
        assert!(
            codes(&a.diagnostics).contains(&AnalyzeCode::CombinatorialState),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn sliding_mapping_trips_a005_duplication() {
        let p = seqn(2, 10); // slide 1min → dup factor 10
        let plan = translate(&p, &MapperOptions::plain()).expect("plan");
        let ann = Annotations::for_pattern(&p);
        let a = analyze(&plan, &ann, &AnalyzeConfig::default());
        assert!(
            codes(&a.diagnostics).contains(&AnalyzeCode::WindowDuplication),
            "{:?}",
            a.diagnostics
        );
        // The O1 plan is duplicate-free: no A005.
        let plan = translate(&p, &MapperOptions::o1()).expect("plan");
        let a = analyze(&plan, &ann, &AnalyzeConfig::default());
        assert!(!codes(&a.diagnostics).contains(&AnalyzeCode::WindowDuplication));
    }

    #[test]
    fn unreachable_aggregate_trips_a006() {
        let p = builders::kleene_plus(V, "V", 50, WindowSpec::minutes(4));
        let plan = translate(&p, &MapperOptions::o2()).expect("plan");
        // Peak 2 × 1/min × 4min = 8 < 50.
        let ann = Annotations::for_pattern(&p);
        let a = analyze(&plan, &ann, &AnalyzeConfig::default());
        assert!(
            codes(&a.diagnostics).contains(&AnalyzeCode::DeadAggregate),
            "{:?}",
            a.diagnostics
        );
        assert_eq!(a.root.estimate.window_bound, 0.0);
    }

    #[test]
    fn runtime_bounds_cover_a_concrete_run() {
        let p = seqn(2, 4);
        let plan = translate(&p, &MapperOptions::o1()).expect("plan");
        let mut sources: HashMap<EventType, Vec<Event>> = HashMap::new();
        for t in [Q, V] {
            sources.insert(
                t,
                (0..30)
                    .map(|i| Event::new(t, 1, Timestamp(i * 60_000), 10.0))
                    .collect(),
            );
        }
        let b = runtime_bounds(&plan, &p, &sources, &PhysicalConfig::default());
        let sink = b.max_sink_tuples.expect("sink bound");
        // Each Q pairs with V's strictly within ±4min: at most 7 each →
        // bound ≥ actual matches (3 per Q interiorly) and finite.
        assert!(sink >= 30 * 3, "sink bound {sink}");
        assert!(
            sink <= 30 * 8,
            "sink bound should stay near 7/anchor, got {sink}"
        );
        assert!(b.max_total_state_bytes.expect("state") > 0);
    }

    #[test]
    fn codes_render_stably() {
        let strs: Vec<&str> = AnalyzeCode::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(strs, ["A001", "A002", "A003", "A004", "A005", "A006"]);
    }
}
