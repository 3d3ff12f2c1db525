//! Operator chaining (task fusion).
//!
//! Like Flink's operator chaining, linear stretches of the graph whose
//! edges never re-partition data are fused into a single task: the
//! upstream operator calls the downstream one directly instead of routing
//! every record through a channel. For pipelines built by the CEP mapping
//! this removes the per-record messaging cost of the scan → filter →
//! key-assignment prefixes, which otherwise dominates at low selectivities
//! — exactly the "pipeline parallelism + operator fusion" advantage the
//! paper attributes to ASP engines.
//!
//! An edge is fusible when it cannot change the partitioning of data:
//! either a `Forward` edge between equal-parallelism nodes, or any edge
//! between two single-instance nodes; additionally both endpoints must
//! have no other fan-in/fan-out and the downstream node must be an
//! operator (sinks keep their own thread for metrics isolation).

use crate::columnar::ColumnarBatch;
use crate::error::OpError;
use crate::graph::{Edge, Exchange, GraphBuilder, NodeId, NodeKind, OperatorFactory};
use crate::operator::{BatchSupport, Collector, KeyedStateStats, Operator, VecCollector};
use crate::time::Timestamp;
use crate::tuple::Tuple;

/// Several operators executed as one task; records flow between stages by
/// direct function calls with reusable scratch buffers.
pub struct ChainedOperator {
    name: String,
    ops: Vec<Box<dyn Operator>>,
    scratch_a: Vec<Tuple>,
    scratch_b: Vec<Tuple>,
}

impl ChainedOperator {
    /// Fuse `ops` into one operator that runs them back to back on the
    /// same task (no channels in between). Must not be empty.
    pub fn new(ops: Vec<Box<dyn Operator>>) -> Self {
        assert!(!ops.is_empty());
        let name = ops
            .iter()
            .map(|o| o.name().to_string())
            .collect::<Vec<_>>()
            .join(" → ");
        ChainedOperator {
            name,
            ops,
            scratch_a: Vec::new(),
            scratch_b: Vec::new(),
        }
    }

    /// Push tuples resting in `scratch_a` through stages `from..`, leaving
    /// final emissions in the provided collector.
    fn flow(&mut self, from: usize, port: usize, out: &mut dyn Collector) -> Result<(), OpError> {
        let mut stage_port = port;
        for i in from..self.ops.len() {
            if self.scratch_a.is_empty() {
                return Ok(());
            }
            let mut next = VecCollector {
                out: std::mem::take(&mut self.scratch_b),
            };
            for t in self.scratch_a.drain(..) {
                self.ops[i].process(stage_port, t, &mut next)?;
            }
            // Recycle the drained input as the next stage's output buffer —
            // the steady state allocates nothing per record.
            self.scratch_b = std::mem::take(&mut self.scratch_a);
            self.scratch_a = next.out;
            stage_port = 0;
        }
        for t in self.scratch_a.drain(..) {
            out.emit(t);
        }
        Ok(())
    }
}

impl Operator for ChainedOperator {
    fn process(
        &mut self,
        input: usize,
        tuple: Tuple,
        out: &mut dyn Collector,
    ) -> Result<(), OpError> {
        self.scratch_a.clear();
        self.scratch_a.push(tuple);
        self.flow(0, input, out)
    }

    fn on_watermark(
        &mut self,
        wm: Timestamp,
        out: &mut dyn Collector,
    ) -> Result<Timestamp, OpError> {
        // Cascade: stage i's watermark emissions must reach stage i+1
        // before stage i+1 observes the (possibly held-back) watermark.
        let mut carry: Vec<Tuple> = Vec::new();
        let mut cur_wm = wm;
        for i in 0..self.ops.len() {
            let mut buf = VecCollector::default();
            for t in carry.drain(..) {
                self.ops[i].process(0, t, &mut buf)?;
            }
            let fwd = self.ops[i].on_watermark(cur_wm, &mut buf)?;
            cur_wm = fwd.min(cur_wm);
            carry = buf.out;
        }
        for t in carry {
            out.emit(t);
        }
        Ok(cur_wm)
    }

    fn on_finish(&mut self, out: &mut dyn Collector) -> Result<(), OpError> {
        let mut carry: Vec<Tuple> = Vec::new();
        for i in 0..self.ops.len() {
            let mut buf = VecCollector::default();
            for t in carry.drain(..) {
                self.ops[i].process(0, t, &mut buf)?;
            }
            self.ops[i].on_finish(&mut buf)?;
            carry = buf.out;
        }
        for t in carry {
            out.emit(t);
        }
        Ok(())
    }

    fn batch_support(&self) -> BatchSupport {
        // The chain is columnar iff every member is: one row-only stage
        // forces the whole task onto the row shim (the harness cannot
        // switch representations mid-chain without a channel boundary).
        if self
            .ops
            .iter()
            .all(|o| o.batch_support() == BatchSupport::Columnar)
        {
            BatchSupport::Columnar
        } else {
            BatchSupport::Row
        }
    }

    fn process_columnar(&mut self, input: usize, batch: &mut ColumnarBatch) -> Result<(), OpError> {
        // Stateless columnar stages are 1-in/1-out over the same batch, so
        // fusion is literally sequential kernel application.
        let mut stage_port = input;
        for op in &mut self.ops {
            if batch.selected_len() == 0 {
                return Ok(());
            }
            op.process_columnar(stage_port, batch)?;
            stage_port = 0;
        }
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        self.ops.iter().map(|o| o.state_bytes()).sum()
    }

    fn keyed_state(&self) -> Option<KeyedStateStats> {
        // Merge over the fused members: key counts add (distinct operators
        // hold distinct buffers), run lengths take the chain-wide max.
        let mut acc: Option<KeyedStateStats> = None;
        for ks in self.ops.iter().filter_map(|o| o.keyed_state()) {
            let a = acc.get_or_insert_with(KeyedStateStats::default);
            a.left_keys += ks.left_keys;
            a.right_keys += ks.right_keys;
            a.max_run_len = a.max_run_len.max(ks.max_run_len);
        }
        acc
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Rewrite the graph, fusing maximal chains. Returns the fused graph;
/// sink ids are preserved.
pub(crate) fn fuse_chains(graph: GraphBuilder) -> GraphBuilder {
    let n = graph.nodes.len();
    let mut fan_out = vec![0usize; n];
    let mut fan_in = vec![0usize; n];
    for e in &graph.edges {
        fan_out[e.src.0] += 1;
        fan_in[e.dst.0] += 1;
    }

    // succ[i] = node that i fuses into (follows).
    let mut succ: Vec<Option<usize>> = vec![None; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    for e in &graph.edges {
        let (s, d) = (e.src.0, e.dst.0);
        if fan_out[s] != 1 || fan_in[d] != 1 {
            continue;
        }
        let ps = graph.nodes[s].parallelism;
        let pd = graph.nodes[d].parallelism;
        let fusible_exchange = match e.exchange {
            Exchange::Forward => ps == pd,
            Exchange::Hash | Exchange::Rebalance => ps == 1 && pd == 1,
        };
        if !fusible_exchange {
            continue;
        }
        // Sharded nodes keep their own task: shard routing and state
        // handoff operate on whole node instances, which fusing into a
        // neighbour's thread would silently undo.
        if graph.nodes[s].sharded || graph.nodes[d].sharded {
            continue;
        }
        if !matches!(graph.nodes[d].kind, NodeKind::Operator(_)) {
            continue; // sinks are not fused
        }
        if !matches!(
            graph.nodes[s].kind,
            NodeKind::Operator(_) | NodeKind::Source { .. }
        ) {
            continue;
        }
        succ[s] = Some(d);
        pred[d] = Some(s);
    }

    // Chain heads: nodes with no fused predecessor; members follow succ.
    let mut new_of_old: Vec<Option<NodeId>> = vec![None; n];
    let mut out = GraphBuilder::new();
    out.sink_count = graph.sink_count;
    out.sink_modes = graph.sink_modes.clone();

    let mut old_nodes: Vec<Option<crate::graph::Node>> =
        graph.nodes.into_iter().map(Some).collect();

    for head in 0..n {
        if pred[head].is_some() {
            continue; // absorbed into an earlier chain
        }
        // Collect the chain members.
        let mut members = vec![head];
        let mut cur = head;
        while let Some(next) = succ[cur] {
            members.push(next);
            cur = next;
        }
        let head_node = old_nodes[head].take().expect("node unused");
        let name = head_node.name.clone();
        let parallelism = head_node.parallelism;
        let sharded = head_node.sharded;
        let new_id = match head_node.kind {
            NodeKind::Source { cfg, mut chain } => {
                for &m in &members[1..] {
                    let node = old_nodes[m].take().expect("member unused");
                    if let NodeKind::Operator(f) = node.kind {
                        chain.push(f);
                    }
                }
                out.nodes.push(crate::graph::Node {
                    name,
                    parallelism,
                    kind: NodeKind::Source { cfg, chain },
                    sharded,
                });
                NodeId(out.nodes.len() - 1)
            }
            NodeKind::Operator(f) => {
                let mut factories = vec![f];
                for &m in &members[1..] {
                    let node = old_nodes[m].take().expect("member unused");
                    if let NodeKind::Operator(ff) = node.kind {
                        factories.push(ff);
                    }
                }
                let kind = if factories.len() == 1 {
                    NodeKind::Operator(factories.pop().expect("one factory"))
                } else {
                    NodeKind::Operator(Box::new(move |i| {
                        Box::new(ChainedOperator::new(
                            factories.iter().map(|f| f(i)).collect(),
                        ))
                    }))
                };
                out.nodes.push(crate::graph::Node {
                    name,
                    parallelism,
                    kind,
                    sharded,
                });
                NodeId(out.nodes.len() - 1)
            }
            NodeKind::Sink(sid) => {
                out.nodes.push(crate::graph::Node {
                    name,
                    parallelism,
                    kind: NodeKind::Sink(sid),
                    sharded,
                });
                NodeId(out.nodes.len() - 1)
            }
        };
        for &m in &members {
            new_of_old[m] = Some(new_id);
        }
    }

    // Rewire surviving edges: internal chain edges disappear; the chain
    // tail's outgoing edge now originates from the fused node.
    for e in &graph.edges {
        let (s, d) = (e.src.0, e.dst.0);
        if succ[s] == Some(d) {
            continue; // fused away
        }
        let src = new_of_old[s].expect("mapped");
        let dst = new_of_old[d].expect("mapped");
        out.edges.push(Edge {
            src,
            dst,
            port: e.port,
            exchange: e.exchange,
        });
    }
    out
}

/// A factory helper used by tests: wrap existing factories into a chain.
pub fn chain_factories(factories: Vec<OperatorFactory>) -> OperatorFactory {
    Box::new(move |i| {
        Box::new(ChainedOperator::new(
            factories.iter().map(|f| f(i)).collect(),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventType};
    use crate::operator::{FilterOp, MapOp};
    use std::sync::Arc;

    fn tup(m: i64, v: f64) -> Tuple {
        Tuple::from_event(Event::new(EventType(0), 1, Timestamp::from_minutes(m), v))
    }

    #[test]
    fn chained_stages_compose_like_sequential_ops() {
        let mut chain = ChainedOperator::new(vec![
            Box::new(FilterOp::new(
                "σ",
                Arc::new(|t: &Tuple| t.events[0].value > 2.0),
            )),
            Box::new(MapOp::new(
                "Π",
                Arc::new(|mut t: Tuple| {
                    t.key = 42;
                    t
                }),
            )),
        ]);
        let mut out = VecCollector::default();
        for v in [1.0, 3.0, 5.0] {
            chain.process(0, tup(0, v), &mut out).unwrap();
        }
        assert_eq!(out.out.len(), 2);
        assert!(out.out.iter().all(|t| t.key == 42));
        assert_eq!(chain.name(), "σ → Π");
    }

    #[test]
    fn watermark_cascades_through_stateful_stage() {
        use crate::operator::{cross_join, IntervalJoinOp};
        use crate::tuple::TsRule;
        use crate::window::SlidingWindows;
        // filter → window-join-as-self-input is nonsensical; instead test
        // join → map: the join emits when the pair completes, the map
        // must see the emission, and the watermark only sets the hold-back.
        let join = IntervalJoinOp::sliding(
            "⋈",
            SlidingWindows::tumbling(crate::time::Duration::from_minutes(5)),
            cross_join(),
            TsRule::Max,
        );
        let mut chain = ChainedOperator::new(vec![
            Box::new(join),
            Box::new(MapOp::new(
                "Π",
                Arc::new(|mut t: Tuple| {
                    t.key = 7;
                    t
                }),
            )),
        ]);
        let mut out = VecCollector::default();
        chain.process(0, tup(1, 1.0), &mut out).unwrap();
        assert!(out.out.is_empty());
        chain.process(1, tup(2, 2.0), &mut out).unwrap();
        assert_eq!(out.out.len(), 1, "completing arrival emits through the map");
        assert_eq!(out.out[0].key, 7);
        let fwd = chain
            .on_watermark(Timestamp::from_minutes(5), &mut out)
            .unwrap();
        // The join holds its forwarded watermark back by W (= 5 min).
        assert_eq!(fwd, Timestamp(1));
        assert_eq!(out.out.len(), 1, "the watermark emits nothing");
    }

    #[test]
    fn finish_flushes_every_stage() {
        use crate::operator::{cross_join, IntervalJoinOp};
        use crate::tuple::TsRule;
        use crate::window::SlidingWindows;
        let join = IntervalJoinOp::sliding(
            "⋈",
            SlidingWindows::tumbling(crate::time::Duration::from_minutes(5)),
            cross_join(),
            TsRule::Max,
        );
        let mut chain = ChainedOperator::new(vec![Box::new(join)]);
        let mut out = VecCollector::default();
        chain.process(0, tup(1, 1.0), &mut out).unwrap();
        chain.process(1, tup(2, 2.0), &mut out).unwrap();
        chain.on_finish(&mut out).unwrap();
        assert_eq!(out.out.len(), 1);
        assert_eq!(chain.state_bytes(), 0);
    }

    #[test]
    fn fuse_collapses_linear_prefixes() {
        let mut g = GraphBuilder::new();
        let src = g.source("s", vec![Event::new(EventType(0), 1, Timestamp(0), 1.0)], 1);
        let f1 = g.unary(
            src,
            Exchange::Forward,
            1,
            Box::new(|_| Box::new(FilterOp::new("σ1", crate::operator::always_true()))),
        );
        let f2 = g.unary(
            f1,
            Exchange::Forward,
            1,
            Box::new(|_| Box::new(FilterOp::new("σ2", crate::operator::always_true()))),
        );
        let _sink = g.sink(f2, Exchange::Forward);
        let fused = fuse_chains(g);
        // source(+2 chained ops) and the sink remain.
        assert_eq!(fused.nodes.len(), 2);
        assert_eq!(fused.edges.len(), 1);
        match &fused.nodes[0].kind {
            NodeKind::Source { chain, .. } => assert_eq!(chain.len(), 2),
            other => panic!(
                "expected fused source, got {:?}",
                std::mem::discriminant(other)
            ),
        }
    }

    #[test]
    fn fan_out_prevents_fusion() {
        let mut g = GraphBuilder::new();
        let src = g.source("s", vec![Event::new(EventType(0), 1, Timestamp(0), 1.0)], 1);
        // Two consumers of the same source → no fusion of either edge.
        let f1 = g.unary(
            src,
            Exchange::Forward,
            1,
            Box::new(|_| Box::new(FilterOp::new("σ1", crate::operator::always_true()))),
        );
        let f2 = g.unary(
            src,
            Exchange::Forward,
            1,
            Box::new(|_| Box::new(FilterOp::new("σ2", crate::operator::always_true()))),
        );
        let _s1 = g.sink(f1, Exchange::Forward);
        let _s2 = g.sink(f2, Exchange::Forward);
        let fused = fuse_chains(g);
        assert_eq!(fused.nodes.len(), 5, "nothing fused across the fan-out");
    }

    #[test]
    fn keyed_exchange_with_parallelism_is_not_fused() {
        let mut g = GraphBuilder::new();
        let src = g.source("s", vec![Event::new(EventType(0), 1, Timestamp(0), 1.0)], 1);
        let f1 = g.unary(
            src,
            Exchange::Hash,
            4,
            Box::new(|_| Box::new(FilterOp::new("σ", crate::operator::always_true()))),
        );
        let _sink = g.sink(f1, Exchange::Rebalance);
        let fused = fuse_chains(g);
        assert_eq!(fused.nodes.len(), 3, "hash repartitioning blocks fusion");
    }
}
