//! Shared-subplan optimization for multi-pattern jobs (multi-query
//! optimization, the capability the paper's Section 6 lists among those
//! serial CEP engines lack).
//!
//! Given a batch of translated [`LogicalPlan`]s, structurally equal
//! subtrees are interned into a DAG and lowered **once**, with the
//! runtime's fan-out edges feeding every consumer's remainder pipeline
//! and per-pattern sink. The interning key is a *canonical render* of the
//! whole subtree ([`canonical_key`]):
//!
//! * Pattern positions ([`VarId`]s) are rebased to their **rank** among
//!   the subtree's distinct variables (sorted ascending). The rebase is
//!   order-preserving, which is exactly what behavioral identity needs:
//!   every position-sensitive physical artifact — layout permutations,
//!   the final projection's sort by layout value, order pairs, key
//!   pairs — depends only on the *relative* order of the variables, so
//!   two subtrees with equal rank-rebased renders lower to operators
//!   that are behaviorally identical under variable renaming.
//! * Scans render their type, leaf filters, and the *effective* residual
//!   predicates (those whose variables are all the scan's own — a
//!   predicate referencing a foreign variable is vacuous at the scan
//!   under `eval_sparse`, in both the vectorized and the closure path,
//!   so it cannot distinguish two scans).
//! * Window/interval parameters render in milliseconds, float constants
//!   by their exact bit pattern (`f64::to_bits`), so `0.1 + 0.2`-style
//!   near-misses never merge.
//!
//! * A sliding join's **emission role** is part of its key: a sliding
//!   join that directly feeds another join emits each pair once, one
//!   that feeds anything else emits every pane copy (`input_emission`),
//!   and the two are different operators. A sliding join that is one
//!   pattern's root and another's intermediate is therefore lowered twice;
//!   everything below it is still shared.
//!
//! What is **never** shared: sinks (one per pattern, by construction),
//! and anything downstream of the first structural difference — sharing
//! is bottom-up, a differing parent keeps its own operators even when
//! both children are shared. Per-consumer attribution of the shared
//! nodes lives in [`ShareReport::shared`]; the runtime's `NodeStats`
//! keep one entry per *physical* node, and the report maps each back to
//! the patterns it serves.

use std::collections::HashMap;
use std::fmt::Write as _;

use asp::operator::Emission;

use sea::pattern::Leaf;
use sea::predicate::{Expr, Predicate, VarId};

use crate::plan::{JoinWindowing, LogicalPlan, PlanNode};

/// Render `n` to its canonical structural key: equal keys ⟹ the physical
/// lowerings are behaviorally identical modulo variable renaming (see
/// the module docs for the argument).
pub fn canonical_key(n: &PlanNode) -> String {
    canonical_key_as(n, Emission::PerPane)
}

/// [`canonical_key`] of `n` lowered under the emission role `emission`
/// (which only distinguishes sliding joins; see `input_emission`).
pub fn canonical_key_as(n: &PlanNode, emission: Emission) -> String {
    let ranks = rank_map(n);
    let mut out = String::new();
    render(n, &ranks, emission, &mut out);
    out
}

/// The emission role `parent` gives its inputs: a join's direct inputs
/// emit each pair once (the pane copies of a sliding join are byte-
/// identical, so the join above would only recompute them), every other
/// consumer sees the per-pane output. Only sliding joins act on it.
pub(crate) fn input_emission(parent: &PlanNode) -> Emission {
    match parent {
        PlanNode::Join { .. } => Emission::Once,
        _ => Emission::PerPane,
    }
}

/// Whether `n` is a sliding join lowered to emit each pair once.
fn emits_once(n: &PlanNode, emission: Emission) -> bool {
    emission == Emission::Once
        && matches!(
            n,
            PlanNode::Join {
                windowing: JoinWindowing::Sliding { .. },
                ..
            }
        )
}

/// Order-preserving variable rebase: each distinct [`VarId`] of the
/// subtree maps to its rank among them, sorted ascending.
fn rank_map(n: &PlanNode) -> HashMap<VarId, usize> {
    let mut vars: Vec<VarId> = n
        .scans()
        .iter()
        .filter_map(|s| match s {
            PlanNode::Scan { var, .. } => Some(*var),
            _ => None,
        })
        .collect();
    vars.sort_unstable();
    vars.dedup();
    vars.into_iter().enumerate().map(|(i, v)| (v, i)).collect()
}

fn rank(v: VarId, ranks: &HashMap<VarId, usize>) -> usize {
    // A variable outside the subtree cannot occur in the rendered parts
    // (effective scan predicates and join conditions are fully bound);
    // fall back to an impossible rank rather than panic on a defective
    // plan — the typechecker owns rejecting those.
    ranks.get(&v).copied().unwrap_or(usize::MAX)
}

fn render_expr(e: &Expr, ranks: &HashMap<VarId, usize>, out: &mut String) {
    match e {
        Expr::Var(v, a) => {
            let _ = write!(out, "v{}.{a:?}", rank(*v, ranks));
        }
        Expr::Const(c) => {
            let _ = write!(out, "c{:016x}", c.to_bits());
        }
    }
}

fn render_pred(p: &Predicate, ranks: &HashMap<VarId, usize>, out: &mut String) {
    render_expr(&p.lhs, ranks, out);
    let _ = write!(out, "{:?}", p.op);
    render_expr(&p.rhs, ranks, out);
}

fn render_leaf(leaf: &Leaf, out: &mut String) {
    let _ = write!(out, "t{}", leaf.etype.0);
    for f in &leaf.filters {
        let _ = write!(out, ";f{:?}{:?}{:016x}", f.attr, f.op, f.value.to_bits());
    }
}

fn render(n: &PlanNode, ranks: &HashMap<VarId, usize>, emission: Emission, out: &mut String) {
    let role = input_emission(n);
    match n {
        PlanNode::Scan {
            etype,
            leaf,
            var,
            predicates,
            ..
        } => {
            let _ = write!(out, "S(t{};v{};", etype.0, rank(*var, ranks));
            render_leaf(leaf, out);
            for p in predicates {
                // Only predicates fully bound at the scan filter anything
                // (foreign-variable references are vacuous here).
                if p.vars().iter().all(|v| *v == *var) {
                    out.push(';');
                    render_pred(p, ranks, out);
                }
            }
            out.push(')');
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
            let _ = write!(out, "J(");
            match windowing {
                JoinWindowing::Sliding { size, slide } => {
                    let _ = write!(out, "wS{},{}", size.millis(), slide.millis());
                }
                JoinWindowing::Interval { lower, upper } => {
                    let _ = write!(out, "wI{},{}", lower.millis(), upper.millis());
                }
            }
            if emits_once(n, emission) {
                out.push_str(";once");
            }
            let _ = write!(out, ";p{partitioning:?};s{span_ms}");
            if let Some(v) = ats_check {
                let _ = write!(out, ";a{}", rank(*v, ranks));
            }
            if let Some((kl, kr)) = key_pair {
                let _ = write!(out, ";k{},{}", rank(*kl, ranks), rank(*kr, ranks));
            }
            out.push_str(";o[");
            for (a, b) in order_pairs {
                let _ = write!(out, "{}<{};", rank(*a, ranks), rank(*b, ranks));
            }
            out.push_str("];q[");
            for p in predicates {
                render_pred(p, ranks, out);
                out.push(';');
            }
            out.push_str("];L");
            render(left, ranks, role, out);
            out.push_str(";R");
            render(right, ranks, role, out);
            out.push(')');
        }
        PlanNode::Union { inputs } => {
            let _ = write!(out, "U({}", inputs.len());
            for i in inputs {
                // The physical union projects each branch to its own
                // layout first; the rebased layout is part of each
                // branch's key so equal renders imply equal projections.
                out.push_str(";[");
                for v in i.layout() {
                    let _ = write!(out, "{},", rank(v, ranks));
                }
                out.push(']');
                render(i, ranks, role, out);
            }
            out.push(')');
        }
        PlanNode::Aggregate {
            input,
            m,
            window,
            partitioning,
        } => {
            let _ = write!(
                out,
                "A(m{m};w{},{};p{partitioning:?};I",
                window.size.millis(),
                window.slide.millis()
            );
            render(input, ranks, role, out);
            out.push(')');
        }
        PlanNode::NextOccurrence { trigger, marker, w } => {
            let _ = write!(out, "N(w{};M:", w.millis());
            render_leaf(marker, out);
            out.push_str(";T");
            render(trigger, ranks, role, out);
            out.push(')');
        }
        PlanNode::Project { input, layout } => {
            out.push_str("P([");
            for v in layout {
                let _ = write!(out, "{},", rank(*v, ranks));
            }
            out.push_str("];I");
            render(input, ranks, role, out);
            out.push(')');
        }
    }
}

/// One interned subtree of the shared DAG with the patterns it serves —
/// the per-consumer attribution for the single physical `NodeStats`
/// entry the shared operators produce.
#[derive(Debug, Clone)]
pub struct SharedNode {
    /// Human-readable operator label (the node's `EXPLAIN` head line,
    /// rendered from the first consumer's plan).
    pub label: String,
    /// Pattern names consuming this subtree, in submission order.
    pub consumers: Vec<String>,
}

/// What the sharing pass merged across a batch of plans.
#[derive(Debug, Clone, Default)]
pub struct ShareReport {
    /// Patterns in the batch.
    pub patterns: usize,
    /// Logical plan nodes across all patterns before sharing.
    pub nodes_total: usize,
    /// Distinct subtrees actually lowered (plan nodes after sharing).
    pub nodes_lowered: usize,
    /// Scan nodes across all patterns before sharing.
    pub scans_total: usize,
    /// Distinct scans actually lowered.
    pub scans_lowered: usize,
    /// Events the lowered sources will replay in total — Σ over created
    /// source nodes of their stream length. Physical builds fill this
    /// in; it is the oracle's prediction for `RunReport::source_events`.
    pub expected_source_events: u64,
    /// Every distinct lowered subtree keyed by canonical key, with its
    /// consumer patterns. Subtrees nested under a shared parent are
    /// attributed to the patterns that interned the parent.
    pub shared: HashMap<String, SharedNode>,
}

impl ShareReport {
    /// Plan nodes the sharing pass eliminated.
    pub fn nodes_saved(&self) -> usize {
        self.nodes_total.saturating_sub(self.nodes_lowered)
    }

    /// Source scans the sharing pass eliminated.
    pub fn scans_saved(&self) -> usize {
        self.scans_total.saturating_sub(self.scans_lowered)
    }

    /// Consumer count of the subtree with canonical key `key` (0 when
    /// the key was never interned).
    pub fn consumers_of(&self, key: &str) -> usize {
        self.shared.get(key).map_or(0, |s| s.consumers.len())
    }

    /// The sharing summary block of the `--multi` EXPLAIN report.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "-- sharing: {} patterns | nodes {} → {} (saved {}) | scans {} → {} (saved {})",
            self.patterns,
            self.nodes_total,
            self.nodes_lowered,
            self.nodes_saved(),
            self.scans_total,
            self.scans_lowered,
            self.scans_saved(),
        );
        let mut multi: Vec<&SharedNode> = self
            .shared
            .values()
            .filter(|s| s.consumers.len() > 1)
            .collect();
        multi.sort_by(|a, b| {
            b.consumers
                .len()
                .cmp(&a.consumers.len())
                .then_with(|| a.label.cmp(&b.label))
                .then_with(|| a.consumers.cmp(&b.consumers))
        });
        if multi.is_empty() {
            out.push_str("-- shared subtrees: none\n");
        } else {
            let _ = writeln!(out, "-- shared subtrees ({}):", multi.len());
            for s in multi.iter().take(20) {
                let _ = writeln!(
                    out,
                    "   ×{} {}  [{}]",
                    s.consumers.len(),
                    s.label,
                    abbrev_list(&s.consumers, 6)
                );
            }
            if multi.len() > 20 {
                let _ = writeln!(out, "   … {} more", multi.len() - 20);
            }
        }
        out
    }
}

fn abbrev_list(items: &[String], max: usize) -> String {
    if items.len() <= max {
        items.join(", ")
    } else {
        format!("{}, … +{}", items[..max].join(", "), items.len() - max)
    }
}

/// The head line of a node's `EXPLAIN` rendering (its own label, without
/// children), marked when the node is a sliding join lowered emit-once.
fn node_line(n: &PlanNode, emission: Emission) -> String {
    let line = n.explain().lines().next().unwrap_or_default().to_string();
    if emits_once(n, emission) {
        format!("{line} [emit-once]")
    } else {
        line
    }
}

/// Statically intern a batch of plans and report what a shared lowering
/// merges — the pure-analysis twin of the physical builder's cache, used
/// by `plan-explain --multi`. (`expected_source_events` stays 0 here: it
/// needs the actual stream lengths, which only a physical build sees.)
pub fn share_summary<'a>(
    plans: impl IntoIterator<Item = (&'a str, &'a LogicalPlan)>,
) -> ShareReport {
    let mut report = ShareReport::default();
    for (name, plan) in plans {
        report.patterns += 1;
        intern_subtree(&plan.root, Emission::PerPane, name, &mut report);
    }
    report.nodes_lowered = report.shared.len();
    report.scans_lowered = report.shared.keys().filter(|k| k.starts_with("S(")).count();
    report
}

fn intern_subtree(n: &PlanNode, emission: Emission, consumer: &str, report: &mut ShareReport) {
    report.nodes_total += 1;
    if matches!(n, PlanNode::Scan { .. }) {
        report.scans_total += 1;
    }
    let key = canonical_key_as(n, emission);
    let entry = report.shared.entry(key).or_insert_with(|| SharedNode {
        label: node_line(n, emission),
        consumers: Vec::new(),
    });
    if entry.consumers.last().map(String::as_str) != Some(consumer)
        && !entry.consumers.iter().any(|c| c == consumer)
    {
        entry.consumers.push(consumer.to_string());
    }
    let role = input_emission(n);
    match n {
        PlanNode::Scan { .. } => {}
        PlanNode::Join { left, right, .. } => {
            intern_subtree(left, role, consumer, report);
            intern_subtree(right, role, consumer, report);
        }
        PlanNode::Union { inputs } => {
            for i in inputs {
                intern_subtree(i, role, consumer, report);
            }
        }
        PlanNode::Aggregate { input, .. } => intern_subtree(input, role, consumer, report),
        PlanNode::NextOccurrence { trigger, .. } => intern_subtree(trigger, role, consumer, report),
        PlanNode::Project { input, .. } => intern_subtree(input, role, consumer, report),
    }
}

/// Render the shared DAG of a plan batch: each pattern's tree with a
/// `×k` consumer count per node, plans that are fully shared with an
/// earlier pattern collapsed to one line, and the sharing summary block
/// last. This is the `plan-explain --multi` / CI `PLAN_MULTI` artifact.
pub fn render_multi<'a>(
    plans: impl IntoIterator<Item = (&'a str, &'a LogicalPlan)> + Clone,
) -> String {
    let report = share_summary(plans.clone());
    let mut out = format!(
        "MULTI-PATTERN SHARED PLAN — {} patterns\n\n",
        report.patterns
    );
    let mut seen_roots: HashMap<String, String> = HashMap::new();
    for (name, plan) in plans {
        let root_key = canonical_key(&plan.root);
        if let Some(first) = seen_roots.get(&root_key) {
            let _ = writeln!(
                out,
                "== {name}  (plan identical to `{first}` — fully shared)\n"
            );
            continue;
        }
        seen_roots.insert(root_key, name.to_string());
        let _ = writeln!(out, "== {name} [{}]", plan.mapping);
        render_dag_node(&plan.root, Emission::PerPane, &report, 0, &mut out);
        out.push('\n');
    }
    out.push_str(&report.render_summary());
    out
}

fn render_dag_node(
    n: &PlanNode,
    emission: Emission,
    report: &ShareReport,
    depth: usize,
    out: &mut String,
) {
    let consumers = report.consumers_of(&canonical_key_as(n, emission));
    let _ = writeln!(
        out,
        "{:indent$}{line}  ×{consumers}",
        "",
        indent = depth * 2,
        line = node_line(n, emission),
    );
    let role = input_emission(n);
    let mut child = |c: &PlanNode| render_dag_node(c, role, report, depth + 1, out);
    match n {
        PlanNode::Scan { .. } => {}
        PlanNode::Join { left, right, .. } => {
            child(left);
            child(right);
        }
        PlanNode::Union { inputs } => inputs.iter().for_each(child),
        PlanNode::Aggregate { input, .. } => child(input),
        PlanNode::NextOccurrence { trigger, .. } => child(trigger),
        PlanNode::Project { input, .. } => child(input),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::{translate, MapperOptions};
    use asp::event::{Attr, EventType};
    use sea::pattern::{builders, WindowSpec};
    use sea::predicate::{CmpOp, Predicate};

    const Q: EventType = EventType(0);
    const V: EventType = EventType(1);
    const P: EventType = EventType(2);

    fn seq2(a: EventType, b: EventType, w: i64, preds: Vec<Predicate>) -> LogicalPlan {
        let p = builders::seq(&[(a, "A"), (b, "B")], WindowSpec::minutes(w), preds);
        translate(&p, &MapperOptions::o1()).expect("translate")
    }

    #[test]
    fn identical_plans_share_one_key() {
        let a = seq2(Q, V, 4, vec![]);
        let b = seq2(Q, V, 4, vec![]);
        assert_eq!(canonical_key(&a.root), canonical_key(&b.root));
    }

    #[test]
    fn differing_window_or_type_or_threshold_splits_keys() {
        let base = seq2(Q, V, 4, vec![]);
        let window = seq2(Q, V, 5, vec![]);
        let etype = seq2(Q, P, 4, vec![]);
        let pred = seq2(
            Q,
            V,
            4,
            vec![Predicate::threshold(0, Attr::Value, CmpOp::Le, 50.0)],
        );
        let key = canonical_key(&base.root);
        assert_ne!(key, canonical_key(&window.root));
        assert_ne!(key, canonical_key(&etype.root));
        assert_ne!(key, canonical_key(&pred.root));
        // Near-equal float thresholds stay distinct (bit-exact compare).
        let pred2 = seq2(
            Q,
            V,
            4,
            vec![Predicate::threshold(
                0,
                Attr::Value,
                CmpOp::Le,
                50.0 + 1e-12,
            )],
        );
        assert_ne!(canonical_key(&pred.root), canonical_key(&pred2.root));
    }

    #[test]
    fn var_rebase_shares_across_positions() {
        // The V scan binds position 1 in `qv` and position 0 in `vq`:
        // rank-rebasing makes the two V-scan subtrees share one key.
        let qv = seq2(Q, V, 4, vec![]);
        let vq = seq2(V, Q, 4, vec![]);
        let scan_key = |plan: &LogicalPlan, t: EventType| {
            plan.root
                .scans()
                .iter()
                .find_map(|s| match s {
                    PlanNode::Scan { etype, .. } if *etype == t => Some(canonical_key(s)),
                    _ => None,
                })
                .expect("scan present")
        };
        assert_eq!(scan_key(&qv, V), scan_key(&vq, V));
        assert_eq!(scan_key(&qv, Q), scan_key(&vq, Q));
        // But the joins differ (order pairs flip).
        assert_ne!(canonical_key(&qv.root), canonical_key(&vq.root));
    }

    #[test]
    fn foreign_var_predicates_do_not_split_scan_keys() {
        // A cross predicate is vacuous at the scan; the scan keys of a
        // plan with and without it must match.
        let plain = seq2(Q, V, 4, vec![]);
        let cross = seq2(Q, V, 4, vec![Predicate::same_id(0, 1)]);
        let scan_keys = |p: &LogicalPlan| -> Vec<String> {
            p.root.scans().iter().map(|s| canonical_key(s)).collect()
        };
        assert_eq!(scan_keys(&plain), scan_keys(&cross));
    }

    #[test]
    fn summary_counts_sharing() {
        let a = seq2(Q, V, 4, vec![]);
        let b = seq2(Q, V, 4, vec![]);
        let c = seq2(Q, V, 6, vec![]);
        let named = [("a", &a), ("b", &b), ("c", &c)];
        let report = share_summary(named.iter().map(|(n, p)| (*n, *p)));
        assert_eq!(report.patterns, 3);
        // Plans a and b are identical; c shares both scans (same leafs)
        // but keeps its own join.
        assert_eq!(report.scans_total, 6);
        assert_eq!(report.scans_lowered, 2);
        assert!(report.nodes_lowered < report.nodes_total, "{report:?}");
        let root_consumers = report.consumers_of(&canonical_key(&a.root));
        assert_eq!(root_consumers, 2, "a and b share the whole plan");
        let text = render_multi(named.iter().map(|(n, p)| (*n, *p)));
        assert!(text.contains("identical to `a`"), "{text}");
        assert!(text.contains("-- sharing: 3 patterns"), "{text}");
        assert!(text.contains("×2"), "{text}");
    }
}
