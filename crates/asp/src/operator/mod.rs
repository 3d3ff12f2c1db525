//! The dataflow operator abstraction and the built-in operator library.
//!
//! Operators are single-threaded state machines driven by the runtime
//! harness: tuples arrive via [`Operator::process`], event time advances via
//! [`Operator::on_watermark`] (the harness has already merged watermarks
//! across input channels, so operators see one monotone clock), and
//! [`Operator::on_finish`] flushes remaining state at end of stream.
//!
//! Stateful operators report their buffered footprint through
//! [`Operator::state_bytes`]; the runtime samples it for the resource-usage
//! experiments (paper Figure 5) and enforces optional per-operator memory
//! budgets (the FlinkCEP failure mode of Section 5.2.3).

mod aggregate;
mod dedup;
mod filter;
mod interval_join;
mod keyed_side;
mod map;
mod next_occurrence;
mod union;
mod window_join;
mod window_udf;

pub use aggregate::{AggFn, WindowAggregateOp};
pub use dedup::DedupOp;
pub use filter::{Cmp, FilterOp, FilterSpec};
pub use interval_join::{IntervalBounds, IntervalJoinOp};
pub use map::{MapKind, MapOp};
pub use next_occurrence::NextOccurrenceOp;
pub use union::UnionOp;
pub use window_join::Emission;
pub use window_udf::WindowUdfOp;

use std::sync::Arc;

use crate::columnar::ColumnarBatch;
use crate::error::OpError;
use crate::time::Timestamp;
use crate::tuple::Tuple;

/// How an operator participates in the columnar batch path.
///
/// `Row` operators receive materialized [`Tuple`]s one at a time through
/// [`Operator::process`] — the runtime converts columnar batches at their
/// input boundary (the "row shim"). `Columnar` operators additionally
/// implement [`Operator::process_columnar`] and are driven batch-at-a-time
/// on the columnar data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSupport {
    /// Per-tuple processing only; the harness materializes rows.
    Row,
    /// Vectorized batch-in/batch-out processing over [`ColumnarBatch`]es.
    Columnar,
}

/// Receives an operator's output tuples; the runtime implementation routes
/// them to downstream channels.
pub trait Collector {
    /// Hand one output tuple downstream.
    fn emit(&mut self, tuple: Tuple);
}

/// A `Collector` backed by a plain vector, for unit tests and direct
/// (single-threaded) plan evaluation.
#[derive(Debug, Default)]
pub struct VecCollector {
    /// Everything emitted so far, in emission order.
    pub out: Vec<Tuple>,
}

impl Collector for VecCollector {
    fn emit(&mut self, tuple: Tuple) {
        self.out.push(tuple);
    }
}

/// A dataflow operator instance.
///
/// `input` identifies the logical input port (0 for unary operators; binary
/// joins use 0 = left / 1 = right). Implementations must be `Send` so the
/// runtime can move each instance onto its worker thread.
pub trait Operator: Send {
    /// Process one tuple from input port `input`.
    fn process(
        &mut self,
        input: usize,
        tuple: Tuple,
        out: &mut dyn Collector,
    ) -> Result<(), OpError>;

    /// Whether this operator runs on the columnar data plane. Defaults to
    /// [`BatchSupport::Row`]: the harness materializes tuples at the input
    /// boundary and per-tuple [`Operator::process`] semantics apply.
    fn batch_support(&self) -> BatchSupport {
        BatchSupport::Row
    }

    /// Vectorized batch-in/batch-out processing: mutate `batch` in place —
    /// narrow its selection vector (filters), rewrite selected rows (maps),
    /// or count them (union) — and the harness forwards the surviving
    /// selection downstream. Only invoked when [`Operator::batch_support`]
    /// returns [`BatchSupport::Columnar`]; the default rejects the payload,
    /// which the runtime reports as the `G016` diagnostic
    /// ([`crate::validate::Code::ColumnarPayloadMismatch`]).
    fn process_columnar(&mut self, input: usize, batch: &mut ColumnarBatch) -> Result<(), OpError> {
        let _ = (input, batch);
        Err(OpError::ColumnarUnsupported {
            operator: self.name().to_string(),
            detail: "process_columnar not implemented".to_string(),
        })
    }

    /// Event time advanced to `wm`: fire windows, evict state, emit results.
    /// All tuples with `ts < wm` on every port have been delivered.
    ///
    /// Returns the watermark to forward downstream. Operators that retain
    /// tuples past the watermark (e.g. the NSEQ next-occurrence rewrite,
    /// which holds each trigger event for up to `W`) must hold the forwarded
    /// watermark back accordingly so their late emissions are not late for
    /// downstream windows; everything else returns `wm` unchanged.
    fn on_watermark(
        &mut self,
        wm: Timestamp,
        out: &mut dyn Collector,
    ) -> Result<Timestamp, OpError> {
        let _ = out;
        Ok(wm)
    }

    /// All inputs are exhausted; flush any remaining state.
    fn on_finish(&mut self, out: &mut dyn Collector) -> Result<(), OpError> {
        // Default: a final watermark at +inf fires everything.
        self.on_watermark(Timestamp::MAX, out).map(|_| ())
    }

    /// Current buffered state footprint in bytes (0 for stateless ops).
    fn state_bytes(&self) -> usize {
        0
    }

    /// High-water marks of key-partitioned state, for operators that shard
    /// their buffers by partition key (the binary temporal joins). `None`
    /// for operators without keyed state. The runtime samples this
    /// alongside [`Operator::state_bytes`] and exports it as per-node
    /// gauges; `cep2asp`'s cost model bounds the reported run length.
    fn keyed_state(&self) -> Option<KeyedStateStats> {
        None
    }

    /// Whether this operator can hand keyed state off between shard
    /// instances while the pipeline runs
    /// ([`Operator::extract_shard`]/[`Operator::absorb_shard`]). Defaults
    /// to `false`: a sharded node whose operator cannot hand off still runs
    /// sharded, but its key placement is fixed for the whole run (the
    /// rebalancer never migrates its slots).
    fn shard_handoff_supported(&self) -> bool {
        false
    }

    /// Remove and return all keyed state whose partition key satisfies
    /// `part`, as an opaque payload for the target shard's
    /// [`Operator::absorb_shard`]. Called by the runtime on the *source*
    /// shard of a slot migration once the slot's inputs are drained (so
    /// the extracted state can no longer grow). Returns `None` when the
    /// operator does not support handoff — the runtime never asks unless
    /// [`Operator::shard_handoff_supported`] said yes.
    fn extract_shard(
        &mut self,
        part: &dyn Fn(u64) -> bool,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        let _ = part;
        None
    }

    /// Merge a payload produced by a sibling instance's
    /// [`Operator::extract_shard`] into this instance's state. Both sides
    /// observe the same merged event-time clock at handoff (the runtime's
    /// marker alignment guarantees it), so implementations must compose
    /// window/firing cursors without losing or duplicating results.
    fn absorb_shard(&mut self, state: Box<dyn std::any::Any + Send>) -> Result<(), OpError> {
        let _ = state;
        Err(OpError::Failed {
            operator: self.name().to_string(),
            reason: "operator does not support shard state handoff".to_string(),
        })
    }

    /// Human-readable operator name for plans, metrics, and errors.
    fn name(&self) -> &str;
}

/// High-water marks of a key-partitioned operator's state layout (peaks
/// over the operator's lifetime, not instantaneous gauges — peaks make the
/// numbers deterministic under any sampling cadence).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyedStateStats {
    /// Peak distinct partition keys resident on the left side.
    pub left_keys: usize,
    /// Peak distinct partition keys resident on the right side.
    pub right_keys: usize,
    /// Longest per-key ts-ordered run observed on either side.
    pub max_run_len: usize,
}

/// Shared, clonable predicate over a single tuple (σ in the paper).
pub type UnaryPredicate = Arc<dyn Fn(&Tuple) -> bool + Send + Sync>;

/// Shared, clonable predicate over a candidate join pair (θ in the paper).
pub type JoinPredicate = Arc<dyn Fn(&Tuple, &Tuple) -> bool + Send + Sync>;

/// Shared, clonable tuple transformation (Π / map in the paper).
pub type MapFn = Arc<dyn Fn(Tuple) -> Tuple + Send + Sync>;

/// Shared window UDF: receives the full (ts-sorted) window content and may
/// emit any number of output tuples.
pub type WindowFn =
    Arc<dyn Fn(&crate::window::WindowId, &mut Vec<Tuple>, &mut dyn Collector) + Send + Sync>;

/// Convenience: a predicate that accepts everything.
pub fn always_true() -> UnaryPredicate {
    Arc::new(|_| true)
}

/// Convenience: a join predicate that accepts every pair (cross join).
pub fn cross_join() -> JoinPredicate {
    Arc::new(|_, _| true)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::event::{Event, EventType};

    /// Build a primitive tuple: type `t`, sensor `id`, minute `m`, value `v`.
    pub fn tup(t: u16, id: u32, m: i64, v: f64) -> Tuple {
        Tuple::from_event(Event::new(EventType(t), id, Timestamp::from_minutes(m), v))
    }

    /// Drive an operator over a ts-ordered single-input stream and return
    /// everything it emits (watermark after every tuple + final flush).
    pub fn drive(op: &mut dyn Operator, inputs: Vec<(usize, Tuple)>) -> Vec<Tuple> {
        let mut col = VecCollector::default();
        for (port, t) in inputs {
            let wm = t.ts;
            op.process(port, t, &mut col).expect("process");
            op.on_watermark(wm, &mut col).expect("watermark");
        }
        op.on_finish(&mut col).expect("finish");
        col.out
    }
}
