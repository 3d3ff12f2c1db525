//! The threaded dataflow runtime.
//!
//! Every graph node becomes `parallelism` *instances* ("task slots"), each
//! running on its own OS thread; every edge becomes one bounded channel per
//! destination instance. Bounded channels give genuine backpressure: when a
//! stateful operator cannot keep up, its senders block, the stall cascades
//! to the sources, and measured throughput is the *maximum sustainable
//! throughput* in the sense of Karimov et al. — the paper's primary metric.
//!
//! ## Watermark protocol
//!
//! Sources emit punctuated watermarks (their streams are in ts order).
//! Each instance harness tracks the last watermark per (input port,
//! upstream channel) and advances its operator's event-time clock to the
//! minimum across all channels — so operators downstream of a union or a
//! join see one monotone clock regardless of thread interleaving, which is
//! what makes results run-to-run deterministic (modulo output order).
//! Operator emissions triggered by a watermark are sent *before* the
//! watermark itself is forwarded, preserving the "no late data" invariant
//! down the pipeline.
//!
//! Watermarks are released by a *soft flush*: destinations whose batch
//! buffer is empty receive the watermark immediately, while a destination
//! with a partially filled buffer has the watermark recorded as *owed at
//! the current buffered position*; the buffer is later flushed in segments
//! split at every owed position, so each deferred watermark is delivered
//! exactly between the rows emitted before and after it. Deferring a
//! watermark is always safe (it is a lower-bound promise), and the deferral
//! keeps punctuation from truncating per-destination micro-batches — under
//! hash fan-out, batches stay near `batch_size` instead of being sliced at
//! every punctuation. Because owed watermarks are positional, a channel's
//! tuple/watermark interleaving is a pure function of emission order:
//! wall-clock flush timing changes message granularity, never relative
//! order, so per-channel late-drop decisions are run-to-run deterministic.
//! A *hard flush* (idle timeout, end of stream, or the `idle_flush`
//! deadline under sustained load) sends every partial buffer and settles
//! all owed watermarks, bounding how long either can sit.
//!
//! ## Data planes
//!
//! With [`ExecutorConfig::columnar`] (the default), tuple data travels as
//! struct-of-arrays [`ColumnarBatch`]es: sources push events straight into
//! typed columns (no per-event heap allocation), operators declaring
//! [`BatchSupport::Columnar`] are driven batch-at-a-time through
//! [`Operator::process_columnar`], and row-format [`Tuple`]s are
//! materialized only at the input boundary of row-only (stateful)
//! operators and collecting sinks. Batches on the wire are always dense —
//! selection vectors produced by vectorized filters are compacted at route
//! flush.

mod chain;
mod metrics;
pub(crate) mod shard;

pub use crate::graph::SinkMode;
pub use crate::obs::{BoundViolation, EventLog, Level, LogEvent, StaticBounds};
pub use chain::{chain_factories, ChainedOperator};
pub use metrics::{LatencyStats, NodeStats, ResourceSample};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use serde::{Serialize, Value};

use crate::columnar::ColumnarBatch;
use crate::error::{OpError, PipelineError};
use crate::event::Event;
use crate::graph::{Exchange, GraphBuilder, NodeId, NodeKind, SinkId, SourceConfig};
use crate::obs::LatencyHistogram;
use crate::operator::{BatchSupport, Collector, Operator};
use crate::time::Timestamp;
use crate::tuple::Tuple;

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Per-inbox channel capacity (backpressure buffer).
    pub channel_capacity: usize,
    /// If set, sample aggregate operator state + process CPU at this
    /// interval (drives the Figure 5 resource series).
    pub sample_interval: Option<StdDuration>,
    /// Keep only every `latency_stride`-th latency observation.
    pub latency_stride: usize,
    /// Fuse linear non-repartitioning stretches of the graph into single
    /// tasks (Flink-style operator chaining). On by default; disable to
    /// measure the unfused pipeline.
    pub operator_chaining: bool,
    /// Drop tuples that arrive behind their input channel's watermark
    /// (late data). With correctly configured source watermark lag nothing
    /// is ever late; this is the Flink-style safety net that keeps
    /// event-time operators from observing time regressions. The decision
    /// is per arriving channel rather than against the merged minimum, so
    /// it is deterministic under union/join thread interleaving (a channel
    /// watermark is always ≥ the merged one, so nothing the merged clock
    /// would drop survives). Dropped tuples are counted in
    /// [`NodeStats::late_dropped`].
    pub drop_late: bool,
    /// Maximum tuples accumulated per (edge, destination instance) before
    /// the pending micro-batch is sent as one channel message. `1` restores
    /// per-tuple messaging; larger values amortize channel synchronization
    /// over `batch_size` tuples on every hop. Must be ≥ 1 (0 is rejected as
    /// diagnostic `G015` before any thread is spawned).
    pub batch_size: usize,
    /// Upper bound on how long a partially filled batch may sit in a task's
    /// output buffer while the task is idle. Idle operators flush on this
    /// cadence, and rate-limited sources flush at least this often, so
    /// low-rate streams keep low latency regardless of `batch_size`.
    pub idle_flush: StdDuration,
    /// Record the wall time of every `proc_latency_every`-th
    /// `Operator::process` call into the node's lock-free latency
    /// histogram ([`NodeStats::proc_latency`]). `0` disables processing-
    /// latency sampling entirely (no clock reads on the tuple path).
    pub proc_latency_every: usize,
    /// If set, a background reporter thread emits an aggregate progress
    /// event (records in/out, state bytes, inbox depth) into the run's
    /// [`EventLog`] at this interval. `None` (the default) disables the
    /// reporter.
    pub progress_interval: Option<StdDuration>,
    /// Ring capacity of the structured [`EventLog`] exported in
    /// [`RunReport::events`]. When full, the oldest events are displaced;
    /// `0` disables event retention.
    pub event_log_capacity: usize,
    /// Run tuple data on the columnar (struct-of-arrays) plane: sources
    /// build [`ColumnarBatch`]es without materializing row tuples,
    /// operators declaring [`BatchSupport::Columnar`] run vectorized, and
    /// rows are materialized only at stateful-operator and collecting-sink
    /// boundaries. Defaults to `true`; setting the `ASP_DATA_PLANE=row`
    /// environment variable flips the default to the row plane (the CI
    /// matrix exercises both; any other value is refused as diagnostic
    /// `G017`). With `batch_size == 1` the columnar plane degenerates to
    /// per-tuple batch bookkeeping — a measured regression — so the
    /// executor falls back to the row plane for that configuration.
    pub columnar: bool,
    /// Shard count for keyed operators marked [`GraphBuilder::shard_node`]:
    /// each such node fans out into this many shared-nothing workers, each
    /// owning a hash range of keys. `None` (the default) keeps sharded
    /// nodes single-instance. Settable via the `ASP_SHARDS` environment
    /// variable (an integer ≥ 1; anything else is refused as `G017`).
    pub shards: Option<usize>,
    /// Adaptive shard rebalancing cadence: a background thread samples the
    /// per-slot traffic gauges of every sharded node at this interval and
    /// migrates the hottest slot off any shard carrying more than 1.5× the
    /// mean load (drain → handoff → redirect, preserving per-key order and
    /// watermark correctness — see the `shard` module docs). `None`
    /// disables migration entirely: sharded nodes keep their initial
    /// round-robin slot placement for the whole run (static sharding).
    /// Operators without live-handoff support are never migrated
    /// regardless.
    pub rebalance_interval: Option<StdDuration>,
    /// Parse failures from environment overrides (`ASP_DATA_PLANE`,
    /// `ASP_SHARDS`) captured at [`Default::default`] time — `Default`
    /// cannot return `Result`, so [`Executor::run`] refuses the run with
    /// diagnostic `G017` if any are present rather than silently running
    /// with a misread knob. Always empty for explicitly built configs.
    pub env_errors: Vec<String>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        // Environment overrides parse strictly: a typo like
        // `ASP_DATA_PLANE=rows` used to silently select the columnar plane
        // (`v != "row"`); now every unrecognized value is captured here and
        // surfaced as diagnostic `G017` when the executor runs.
        let mut env_errors = Vec::new();
        let columnar = match std::env::var("ASP_DATA_PLANE") {
            Err(_) => true,
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "row" => false,
                "columnar" => true,
                _ => {
                    env_errors.push(format!(
                        "ASP_DATA_PLANE=`{v}` is not a data plane; expected `row` or `columnar`"
                    ));
                    true
                }
            },
        };
        let shards = match std::env::var("ASP_SHARDS") {
            Err(_) => None,
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => {
                    env_errors.push(format!(
                        "ASP_SHARDS=`{v}` is not a shard count; expected an integer ≥ 1"
                    ));
                    None
                }
            },
        };
        ExecutorConfig {
            channel_capacity: 1024,
            sample_interval: None,
            latency_stride: 16,
            operator_chaining: true,
            drop_late: true,
            batch_size: 64,
            idle_flush: StdDuration::from_millis(5),
            proc_latency_every: 32,
            progress_interval: None,
            event_log_capacity: 256,
            columnar,
            shards,
            rebalance_interval: Some(StdDuration::from_millis(50)),
            env_errors,
        }
    }
}

enum Message {
    Tuple(Tuple),
    /// A micro-batch: consecutive tuples for one destination, sent as one
    /// channel message. Order within the batch is emission order.
    Batch(Vec<Tuple>),
    /// A columnar micro-batch (always dense on the wire; receivers never
    /// see a selection vector). Used exclusively on the columnar plane.
    Columnar(ColumnarBatch),
    /// A dense columnar micro-batch broadcast to several destinations at
    /// once without per-route payload copies — the fan-out path under
    /// shared subplans, where one operator's output feeds many consumer
    /// pipelines. Operators take ownership on receipt (`Arc::try_unwrap`,
    /// cloning only while the batch is still referenced elsewhere); sinks
    /// read it in place.
    Shared(Arc<ColumnarBatch>),
    Watermark(Timestamp),
    /// Shard-migration cut-over marker: everything before it on this
    /// channel was routed under the previous slot table, everything after
    /// under the new one. Broadcast by each sender to *every* destination
    /// instance of the sharded node when it observes a new plan version.
    ShardMarker {
        /// The plan version the sender cut over to.
        version: u64,
    },
    /// A migrated slot's extracted operator state, sent from the source
    /// shard instance directly to the target instance's inbox.
    ShardHandoff(Box<shard::HandoffPayload>),
    End,
}

/// Envelopes drained from the inbox per blocking receive before the
/// collector is flushed — bounds how long a coalesced watermark can be
/// deferred under sustained load.
const DRAIN_LIMIT: usize = 128;

struct Envelope {
    port: u16,
    chan: u16,
    msg: Message,
}

/// Deterministic key → instance mapping shared by every hash exchange
/// (co-partitioning guarantee).
#[inline]
pub fn key_partition(key: u64, parallelism: usize) -> usize {
    if parallelism <= 1 {
        return 0;
    }
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 17) % parallelism as u64) as usize
}

/// One outgoing edge of one instance, with a pending micro-batch per
/// destination instance.
struct Route {
    exchange: Exchange,
    port: u16,
    chan: u16,
    senders: Vec<Sender<Envelope>>,
    rr: usize,
    /// Pre-resolved destination for exchanges whose target never varies
    /// (`Forward`, or any exchange with a single destination instance) —
    /// the dispatch match is decided once at wiring time, not per tuple.
    fixed: Option<usize>,
    /// Pending tuples per destination instance, flushed at `batch_size`
    /// (row plane; unused on the columnar plane).
    bufs: Vec<Vec<Tuple>>,
    /// Pending columnar rows per destination instance (columnar plane;
    /// unused on the row plane). Built by column pushes, so always dense.
    cbufs: Vec<ColumnarBatch>,
    /// Watermarks promised to a destination but deferred because its batch
    /// buffer was non-empty at soft-flush time, queued with the number of
    /// buffered rows each must ride *behind*. Flushing emits the buffer in
    /// segments split at every owed position — `rows[..p0], wm0,
    /// rows[p0..p1], wm1, …`, remainder last (see [`Route::flush_buf`]) —
    /// so the channel-relative order of tuples and watermarks is a pure
    /// function of emission order, never of wall-clock flush timing.
    /// Positions are strictly increasing within the queue; watermarks
    /// landing at the same position coalesce to their maximum.
    wm_owed: Vec<VecDeque<(usize, Timestamp)>>,
    /// First operator-grade failure hit while building a pending columnar
    /// batch (composite side-table overflow from a checked `u32` index
    /// conversion). The harness harvests it via
    /// [`ChannelCollector::take_op_error`] and reports it as `G016` instead
    /// of silently truncating indices.
    op_error: Option<OpError>,
    /// Sharded destination: routing goes through the cached slot table
    /// instead of [`key_partition`]. `None` for ordinary routes.
    shard: Option<RouteShard>,
    /// Channel messages sent (batches count once), for [`NodeStats`].
    batches: u64,
}

/// Sender-side state of a route into a sharded node.
struct RouteShard {
    plan: Arc<shard::ShardPlan>,
    /// Local copy of the slot → shard table, refreshed only when a new
    /// plan version is observed — the steady-state tuple path reads a
    /// plain array, never a shared atomic.
    cached_slots: Vec<u32>,
    /// Plan version `cached_slots` corresponds to.
    seen_version: u64,
    /// While a migration this sender has cut over to is still in flight,
    /// watermark emission on this route is frozen (stashed here, released
    /// on completion) so source and target shard observe identical
    /// per-channel clocks when they align on the markers.
    frozen_wm: Option<Timestamp>,
    frozen: bool,
    /// Tuples routed per slot since the last publish to the plan's shared
    /// traffic gauges (published on hard flush).
    traffic: Box<[u64; shard::SHARD_SLOTS]>,
}

impl Route {
    fn new(
        exchange: Exchange,
        port: u16,
        chan: u16,
        instance: usize,
        senders: Vec<Sender<Envelope>>,
        plan: Option<Arc<shard::ShardPlan>>,
    ) -> Self {
        let fixed = match exchange {
            Exchange::Forward => Some(instance % senders.len()),
            Exchange::Hash | Exchange::Rebalance if senders.len() == 1 => Some(0),
            Exchange::Hash | Exchange::Rebalance => None,
        };
        // A single-instance "sharded" node routes like any other
        // single-destination edge; the plan only matters with ≥ 2 shards.
        let shard = match plan {
            Some(plan) if senders.len() > 1 => Some(RouteShard {
                cached_slots: plan.snapshot_slots(),
                seen_version: plan.version(),
                plan,
                frozen_wm: None,
                frozen: false,
                traffic: Box::new([0; shard::SHARD_SLOTS]),
            }),
            _ => None,
        };
        let bufs = senders.iter().map(|_| Vec::new()).collect();
        let cbufs = senders.iter().map(|_| ColumnarBatch::default()).collect();
        let wm_owed = senders.iter().map(|_| VecDeque::new()).collect();
        Route {
            exchange,
            port,
            chan,
            senders,
            rr: instance,
            fixed,
            bufs,
            cbufs,
            wm_owed,
            op_error: None,
            shard,
            batches: 0,
        }
    }

    /// Resolve the destination instance for a record with partition `key`.
    #[inline]
    fn pick_dest(&mut self, key: u64) -> usize {
        if let Some(rs) = &mut self.shard {
            let slot = shard::slot_of(key);
            rs.traffic[slot] += 1;
            return rs.cached_slots[slot] as usize;
        }
        match self.fixed {
            Some(i) => i,
            None => match self.exchange {
                Exchange::Hash => key_partition(key, self.senders.len()),
                Exchange::Rebalance => {
                    self.rr = (self.rr + 1) % self.senders.len();
                    self.rr
                }
                // Forward always resolves to `fixed`.
                Exchange::Forward => unreachable!("forward routes are pre-resolved"),
            },
        }
    }

    /// Sharded-route version check, called on every buffering/flush entry
    /// point. On observing a new plan version: flush everything routed
    /// under the old table, broadcast the cut-over marker to every
    /// destination, refresh the cached table, and freeze watermark
    /// emission until the migration completes (channel FIFO then gives
    /// every receiver the identical pre-marker watermark prefix). Also
    /// thaws: once the plan reports the observed version completed, the
    /// stashed watermark is released through the normal soft path.
    #[inline]
    fn observe_shard(
        &mut self,
        batch_size: usize,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        let Some(rs) = &self.shard else {
            return Ok(());
        };
        let (frozen, seen, version) = (rs.frozen, rs.seen_version, rs.plan.version());
        if !frozen && version == seen {
            return Ok(());
        }
        self.observe_shard_cold(batch_size, abort, blocked_ns)
    }

    #[cold]
    fn observe_shard_cold(
        &mut self,
        batch_size: usize,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        // Thaw first: a completed migration releases the stashed watermark
        // before any new version is cut over to.
        let thawed = {
            let rs = self.shard.as_mut().expect("cold path requires shard");
            if rs.frozen && rs.plan.completed() >= rs.seen_version {
                rs.frozen = false;
                rs.frozen_wm.take()
            } else {
                None
            }
        };
        if let Some(wm) = thawed {
            self.soft_watermark_raw(wm, abort, blocked_ns)?;
        }
        let rs = self.shard.as_ref().expect("cold path requires shard");
        let version = rs.plan.version();
        if version == rs.seen_version || rs.frozen {
            // Nothing new, or still frozen on the in-flight version (a new
            // version cannot be published until the current completes).
            return Ok(());
        }
        // Everything buffered so far was routed under the old table: it
        // must precede the marker on every channel.
        self.flush_all(batch_size, abort, blocked_ns)?;
        for idx in 0..self.senders.len() {
            self.send(idx, Message::ShardMarker { version }, abort, blocked_ns)?;
        }
        let rs = self.shard.as_mut().expect("cold path requires shard");
        rs.cached_slots = rs.plan.snapshot_slots();
        rs.seen_version = version;
        rs.frozen = true;
        Ok(())
    }

    /// Publish locally accumulated per-slot traffic to the shared plan
    /// gauges (piggybacks on the hard-flush cadence).
    fn publish_traffic(&mut self) {
        if let Some(rs) = &mut self.shard {
            if rs.traffic.iter().any(|&n| n > 0) {
                rs.plan.add_traffic(&rs.traffic);
                *rs.traffic = [0; shard::SHARD_SLOTS];
            }
        }
    }

    fn send(
        &self,
        idx: usize,
        msg: Message,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        let mut env = Envelope {
            port: self.port,
            chan: self.chan,
            msg,
        };
        // Fast path: an uncontended send pays no clock read. Only a full
        // inbox (genuine backpressure) falls through to the timed loop.
        match self.senders[idx].send_timeout(env, StdDuration::ZERO) {
            Ok(()) => return Ok(()),
            Err(crossbeam::channel::SendTimeoutError::Disconnected(_)) => return Err(()),
            Err(crossbeam::channel::SendTimeoutError::Timeout(e)) => env = e,
        }
        let blocked_since = Instant::now();
        let result = loop {
            match self.senders[idx].send_timeout(env, StdDuration::from_millis(20)) {
                Ok(()) => break Ok(()),
                Err(crossbeam::channel::SendTimeoutError::Timeout(e)) => {
                    if abort.load(Ordering::Relaxed) {
                        break Err(());
                    }
                    env = e;
                }
                Err(crossbeam::channel::SendTimeoutError::Disconnected(_)) => break Err(()),
            }
        };
        blocked_ns.fetch_add(blocked_since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    /// Append `t` to the destination's pending row batch, flushing it when
    /// it reaches `batch_size`.
    fn buffer_tuple(
        &mut self,
        t: Tuple,
        batch_size: usize,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        self.observe_shard(batch_size, abort, blocked_ns)?;
        let idx = self.pick_dest(t.key);
        let buf = &mut self.bufs[idx];
        if buf.capacity() == 0 {
            buf.reserve_exact(batch_size);
        }
        buf.push(t);
        if buf.len() >= batch_size {
            self.flush_buf(idx, batch_size, abort, blocked_ns)
        } else {
            Ok(())
        }
    }

    /// Decompose `t` into the destination's pending columnar batch,
    /// flushing it when it reaches `batch_size` (columnar plane).
    fn buffer_tuple_columnar(
        &mut self,
        t: Tuple,
        batch_size: usize,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        self.observe_shard(batch_size, abort, blocked_ns)?;
        let idx = self.pick_dest(t.key);
        if let Err(e) = self.cbufs[idx].push_tuple(t) {
            self.op_error.get_or_insert(e);
            return Err(());
        }
        if self.cbufs[idx].len() >= batch_size {
            self.flush_buf(idx, batch_size, abort, blocked_ns)
        } else {
            Ok(())
        }
    }

    /// Append a primitive event straight into the destination's pending
    /// columnar batch — the zero-allocation source fast path.
    fn buffer_event(
        &mut self,
        e: Event,
        wall: u64,
        batch_size: usize,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        self.observe_shard(batch_size, abort, blocked_ns)?;
        // Primitive events partition by sensor id (`Tuple::from_event`
        // assigns `key = id`), so routing agrees with the row plane.
        let idx = self.pick_dest(e.id as u64);
        self.cbufs[idx].push_event(e, wall);
        if self.cbufs[idx].len() >= batch_size {
            self.flush_buf(idx, batch_size, abort, blocked_ns)
        } else {
            Ok(())
        }
    }

    /// Gather-append every selected row of `src` into the destinations'
    /// pending columnar batches (reads `src` by reference: multi-route
    /// fan-out needs no clone; composites transfer by refcount bump).
    fn append_batch(
        &mut self,
        src: &ColumnarBatch,
        batch_size: usize,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        self.observe_shard(batch_size, abort, blocked_ns)?;
        if self.shard.is_some() {
            return self.append_batch_sharded(src, batch_size, abort, blocked_ns);
        }
        let one = |this: &mut Self, i: usize| -> Result<(), ()> {
            let idx = this.pick_dest(src.key[i]);
            if let Err(e) = this.cbufs[idx].push_row_from(src, i) {
                this.op_error.get_or_insert(e);
                return Err(());
            }
            if this.cbufs[idx].len() >= batch_size {
                this.flush_buf(idx, batch_size, abort, blocked_ns)
            } else {
                Ok(())
            }
        };
        match &src.sel {
            None => {
                for i in 0..src.len() {
                    one(self, i)?;
                }
            }
            Some(sel) => {
                for &i in sel {
                    one(self, i as usize)?;
                }
            }
        }
        Ok(())
    }

    /// Columnar fan-out into a sharded node: split the batch into one
    /// selection vector per destination shard (slot-table routing) and
    /// gather-append each column-wise — the batch is never re-materialized
    /// row by row.
    fn append_batch_sharded(
        &mut self,
        src: &ColumnarBatch,
        batch_size: usize,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        let mut sels: Vec<Vec<u32>> = vec![Vec::new(); self.senders.len()];
        {
            let rs = self.shard.as_mut().expect("sharded append requires shard");
            let mut route_one = |i: usize| {
                let slot = shard::slot_of(src.key[i]);
                rs.traffic[slot] += 1;
                sels[rs.cached_slots[slot] as usize].push(i as u32);
            };
            match &src.sel {
                None => {
                    for i in 0..src.len() {
                        route_one(i);
                    }
                }
                Some(sel) => {
                    for &i in sel {
                        route_one(i as usize);
                    }
                }
            }
        }
        for (idx, sel) in sels.iter().enumerate() {
            if sel.is_empty() {
                continue;
            }
            if let Err(e) = self.cbufs[idx].extend_gather(src, sel) {
                self.op_error.get_or_insert(e);
                return Err(());
            }
            if self.cbufs[idx].len() >= batch_size {
                self.flush_buf(idx, batch_size, abort, blocked_ns)?;
            }
        }
        Ok(())
    }

    /// Soft-deliver a watermark: destinations with an empty batch buffer
    /// get it immediately; the rest record it as owed *at the current
    /// buffered position* so it rides out exactly between the rows emitted
    /// before and after it, instead of truncating the batch. Either way
    /// the watermark lands at the same point of the channel's
    /// tuple/watermark sequence — wall-clock flush timing can change
    /// message granularity, never relative order.
    fn soft_watermark(
        &mut self,
        wm: Timestamp,
        batch_size: usize,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        self.observe_shard(batch_size, abort, blocked_ns)?;
        if self.stash_if_frozen(wm) {
            return Ok(());
        }
        self.soft_watermark_raw(wm, abort, blocked_ns)
    }

    /// While a shard migration this route has cut over to is in flight,
    /// watermarks are stashed (coalescing to their max) instead of sent —
    /// released by [`Route::observe_shard`] once the migration completes.
    /// Returns whether the watermark was stashed.
    fn stash_if_frozen(&mut self, wm: Timestamp) -> bool {
        match &mut self.shard {
            Some(rs) if rs.frozen => {
                rs.frozen_wm = Some(rs.frozen_wm.map_or(wm, |p| p.max(wm)));
                true
            }
            _ => false,
        }
    }

    fn soft_watermark_raw(
        &mut self,
        wm: Timestamp,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        let mut ok = Ok(());
        for idx in 0..self.senders.len() {
            let pos = self.bufs[idx].len() + self.cbufs[idx].len();
            if pos == 0 {
                if self
                    .send(idx, Message::Watermark(wm), abort, blocked_ns)
                    .is_err()
                {
                    ok = Err(());
                }
            } else {
                // Watermarks owed at the same position coalesce to their
                // max (they are monotone per task, so this keeps the last).
                match self.wm_owed[idx].back_mut() {
                    Some((p, w)) if *p == pos => *w = (*w).max(wm),
                    _ => self.wm_owed[idx].push_back((pos, wm)),
                }
            }
        }
        ok
    }

    /// Send the destination's pending rows in segments split at every owed
    /// watermark position — `rows[..p0], wm0, rows[p0..p1], wm1, …`,
    /// remainder last — so a flush reproduces the emission-order
    /// interleaving of tuples and watermarks exactly.
    fn flush_buf(
        &mut self,
        idx: usize,
        batch_size: usize,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        while let Some((pos, wm)) = self.wm_owed[idx].pop_front() {
            self.send_rows(idx, pos, batch_size, abort, blocked_ns)?;
            for later in self.wm_owed[idx].iter_mut() {
                later.0 -= pos;
            }
            self.send(idx, Message::Watermark(wm), abort, blocked_ns)?;
        }
        self.send_rows(idx, usize::MAX, batch_size, abort, blocked_ns)
    }

    /// Send up to `take` of the destination's pending rows (row or
    /// columnar plane) as one message, keeping the rest buffered.
    fn send_rows(
        &mut self,
        idx: usize,
        take: usize,
        batch_size: usize,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        let msg = if !self.bufs[idx].is_empty() {
            let buf = &mut self.bufs[idx];
            let head = if take >= buf.len() {
                std::mem::replace(buf, Vec::with_capacity(batch_size))
            } else {
                let tail = buf.split_off(take);
                std::mem::replace(buf, tail)
            };
            match head.len() {
                0 => None,
                1 => Some(Message::Tuple(
                    head.into_iter().next().expect("len checked"),
                )),
                _ => Some(Message::Batch(head)),
            }
        } else {
            let cbuf = &mut self.cbufs[idx];
            if cbuf.is_empty() || take == 0 {
                None
            } else {
                debug_assert!(cbuf.is_dense(), "route buffers are built dense");
                let head = if take >= cbuf.len() {
                    std::mem::replace(cbuf, ColumnarBatch::with_capacity(batch_size))
                } else {
                    cbuf.take_prefix(take)
                };
                Some(Message::Columnar(head))
            }
        };
        if let Some(msg) = msg {
            self.batches += 1;
            self.send(idx, msg, abort, blocked_ns)?;
        }
        Ok(())
    }

    fn flush_all(
        &mut self,
        batch_size: usize,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        let mut ok = Ok(());
        for idx in 0..self.bufs.len() {
            if self.flush_buf(idx, batch_size, abort, blocked_ns).is_err() {
                ok = Err(());
            }
        }
        ok
    }

    fn broadcast(
        &self,
        msg_of: impl Fn() -> Message,
        abort: &AtomicBool,
        blocked_ns: &AtomicU64,
    ) -> Result<(), ()> {
        for idx in 0..self.senders.len() {
            self.send(idx, msg_of(), abort, blocked_ns)?;
        }
        Ok(())
    }
}

/// Routes an operator's emissions to all outgoing edges, micro-batching
/// tuples per destination and coalescing watermarks between flushes.
struct ChannelCollector {
    routes: Vec<Route>,
    batch_size: usize,
    /// Which data plane this task's emissions travel on. On the columnar
    /// plane every tuple-carrying message is [`Message::Columnar`]; on the
    /// row plane, [`Message::Tuple`]/[`Message::Batch`]. Never mixed.
    columnar: bool,
    abort: Arc<AtomicBool>,
    /// The owning instance's shared counters; the collector charges
    /// blocked-on-send time (backpressure) to
    /// [`InstanceStats::backpressure_ns`].
    istats: Arc<InstanceStats>,
    out_count: u64,
    failed: bool,
    /// Highest watermark accepted for broadcast but not yet sent. Deferring
    /// a watermark is always safe — it is a *lower bound* promise, and
    /// delaying it only delays downstream firing — whereas sending it ahead
    /// of buffered tuples would not be. [`ChannelCollector::flush`] sends
    /// every pending batch first, then this coalesced watermark, so the
    /// tuples a watermark covers always precede it on every channel.
    pending_wm: Option<Timestamp>,
    /// The watermark contract floor: the highest watermark this task has
    /// broadcast downstream. Every later emission must carry `ts ≥ floor`.
    #[cfg(feature = "invariant-checks")]
    wm_floor: Timestamp,
    /// Sources are exempt from the emission-floor check: with an
    /// under-estimated `watermark_lag` they legitimately emit late tuples,
    /// and downstream `drop_late` is the documented degradation path.
    #[cfg(feature = "invariant-checks")]
    enforce_emit_floor: bool,
}

impl ChannelCollector {
    /// Record `wm` for broadcast at the next [`flush`](Self::flush). Repeated
    /// calls between flushes coalesce into one watermark message per channel.
    fn broadcast_watermark(&mut self, wm: Timestamp) {
        #[cfg(feature = "invariant-checks")]
        {
            assert!(
                wm >= self.wm_floor,
                "invariant violation: task broadcast watermark {wm:?} behind its own previous watermark {:?}",
                self.wm_floor
            );
            self.wm_floor = wm;
        }
        self.pending_wm = Some(self.pending_wm.map_or(wm, |p| p.max(wm)));
    }

    /// Soft flush: release the coalesced pending watermark without
    /// truncating partially filled batch buffers. Destinations with an
    /// empty buffer get the watermark immediately; for the rest it is
    /// recorded as *owed* and sent right behind that destination's next
    /// batch, so micro-batches keep forming across punctuation (the
    /// hash-fan-out batch-efficiency fix). Owed watermarks are bounded by
    /// the callers' periodic [`flush_hard`](Self::flush_hard).
    fn flush(&mut self) {
        let Self {
            routes,
            batch_size,
            abort,
            istats,
            failed,
            pending_wm,
            ..
        } = self;
        let abort: &AtomicBool = abort;
        let blocked_ns = &istats.backpressure_ns;
        if let Some(wm) = pending_wm.take() {
            for r in routes.iter_mut() {
                if r.soft_watermark(wm, *batch_size, abort, blocked_ns)
                    .is_err()
                {
                    *failed = true;
                }
            }
        }
    }

    /// Hard flush: send every pending batch (settling owed watermarks
    /// behind each), then broadcast the coalesced pending watermark.
    fn flush_hard(&mut self) {
        let Self {
            routes,
            batch_size,
            abort,
            istats,
            failed,
            pending_wm,
            ..
        } = self;
        let abort: &AtomicBool = abort;
        let blocked_ns = &istats.backpressure_ns;
        for r in routes.iter_mut() {
            // The hard flush doubles as the idle-path shard observation
            // point: even a task with nothing to send cuts over to a new
            // slot table (and broadcasts its marker) within `idle_flush`.
            if r.observe_shard(*batch_size, abort, blocked_ns).is_err() {
                *failed = true;
            }
            if r.flush_all(*batch_size, abort, blocked_ns).is_err() {
                *failed = true;
            }
            r.publish_traffic();
        }
        if let Some(wm) = pending_wm.take() {
            for r in routes.iter_mut() {
                // Watermarks stay frozen on routes with an in-flight
                // migration (released at completion); everywhere else the
                // hard flush broadcasts them directly.
                if r.stash_if_frozen(wm) {
                    continue;
                }
                if r.broadcast(|| Message::Watermark(wm), abort, blocked_ns)
                    .is_err()
                {
                    *failed = true;
                }
            }
        }
    }

    /// Flush everything, then tell every downstream channel the stream is
    /// over.
    fn broadcast_end(&mut self) {
        self.flush_hard();
        for r in &self.routes {
            if r.broadcast(|| Message::End, &self.abort, &self.istats.backpressure_ns)
                .is_err()
            {
                self.failed = true;
            }
        }
    }

    /// Source fast path: append a primitive event to every route's pending
    /// columnar batch without materializing a row tuple (no heap traffic).
    /// Falls back to [`Collector::emit`] on the row plane.
    fn emit_event(&mut self, e: Event, wall: u64) {
        if !self.columnar {
            self.emit(Tuple::from_event_wall(e, wall));
            return;
        }
        self.out_count += 1;
        let Self {
            routes,
            batch_size,
            abort,
            istats,
            failed,
            ..
        } = self;
        let abort: &AtomicBool = abort;
        let blocked_ns = &istats.backpressure_ns;
        for r in routes.iter_mut() {
            if r.buffer_event(e, wall, *batch_size, abort, blocked_ns)
                .is_err()
            {
                *failed = true;
            }
        }
    }

    /// Route a processed columnar batch downstream (columnar plane). A
    /// dense, full batch bound for a single pre-resolved destination with
    /// an empty pending buffer moves onto the wire without copying a row;
    /// everything else gather-appends the selected rows into the
    /// destinations' pending batches.
    fn forward_batch(&mut self, mut batch: ColumnarBatch) {
        #[cfg(feature = "invariant-checks")]
        if self.enforce_emit_floor {
            if let Some(min) = batch.min_ts() {
                assert!(
                    min >= self.wm_floor,
                    "invariant violation: task emitted batch with min ts {min:?} behind its own broadcast watermark {:?}",
                    self.wm_floor
                );
            }
        }
        let selected = batch.selected_len();
        if selected == 0 {
            return;
        }
        self.out_count += selected as u64;
        let Self {
            routes,
            batch_size,
            abort,
            istats,
            failed,
            ..
        } = self;
        let abort: &AtomicBool = abort;
        let blocked_ns = &istats.backpressure_ns;
        let n = routes.len();
        if n == 0 {
            return;
        }
        // Shared fan-out: a full batch bound for ≥ 2 pre-resolved,
        // unsharded destinations goes out once as an `Arc` instead of
        // being gather-copied into every route's pending buffer — the
        // multi-consumer analogue of the single-route zero-copy path
        // below. Each route first settles its pending rows and owed
        // watermarks via `flush_buf`, so the channel-relative order of
        // tuples and watermarks stays a pure function of emission order.
        if n >= 2
            && selected >= *batch_size
            && routes
                .iter()
                .all(|r| r.fixed.is_some() && r.shard.is_none())
        {
            if let Err(e) = batch.compact() {
                routes[0].op_error.get_or_insert(e);
                *failed = true;
                return;
            }
            let shared = Arc::new(batch);
            for r in routes.iter_mut() {
                let idx = r.fixed.expect("eligibility checked above");
                if r.flush_buf(idx, *batch_size, abort, blocked_ns).is_err() {
                    *failed = true;
                    continue;
                }
                r.batches += 1;
                if r.send(idx, Message::Shared(shared.clone()), abort, blocked_ns)
                    .is_err()
                {
                    *failed = true;
                }
            }
            return;
        }
        for r in routes.iter_mut().take(n - 1) {
            if r.append_batch(&batch, *batch_size, abort, blocked_ns)
                .is_err()
            {
                *failed = true;
            }
        }
        let last = &mut routes[n - 1];
        if let Some(idx) = last.fixed {
            // The zero-copy path requires an empty owed-watermark queue:
            // owed watermarks are positional, and rows sent around them
            // must go through the segment-splitting `flush_buf`.
            if last.cbufs[idx].is_empty() && last.wm_owed[idx].is_empty() {
                if let Err(e) = batch.compact() {
                    last.op_error.get_or_insert(e);
                    *failed = true;
                    return;
                }
                if batch.len() >= *batch_size {
                    last.batches += 1;
                    if last
                        .send(idx, Message::Columnar(batch), abort, blocked_ns)
                        .is_err()
                    {
                        *failed = true;
                    }
                } else {
                    // Short batch: it *becomes* the pending buffer.
                    last.cbufs[idx] = batch;
                }
                return;
            }
        }
        if last
            .append_batch(&batch, *batch_size, abort, blocked_ns)
            .is_err()
        {
            *failed = true;
        }
    }

    /// Channel messages carrying tuples sent so far (a batch counts once).
    fn messages_sent(&self) -> u64 {
        self.routes.iter().map(|r| r.batches).sum()
    }

    /// First operator-grade failure recorded by any route (composite
    /// side-table overflow); the harness reports it via `record_op_error`.
    fn take_op_error(&mut self) -> Option<OpError> {
        self.routes.iter_mut().find_map(|r| r.op_error.take())
    }
}

impl Collector for ChannelCollector {
    fn emit(&mut self, tuple: Tuple) {
        // Watermark contract: once a task has told downstream "no tuples
        // below W", it must never emit one (operators hold watermarks back
        // by their band span to guarantee this — see IntervalJoinOp).
        #[cfg(feature = "invariant-checks")]
        assert!(
            !self.enforce_emit_floor || tuple.ts >= self.wm_floor,
            "invariant violation: task emitted tuple at {:?} behind its own broadcast watermark {:?}",
            tuple.ts,
            self.wm_floor
        );
        self.out_count += 1;
        // Borrow-split so the per-tuple path touches no `Arc` refcount.
        let Self {
            routes,
            batch_size,
            columnar,
            abort,
            istats,
            failed,
            ..
        } = self;
        let abort: &AtomicBool = abort;
        let blocked_ns = &istats.backpressure_ns;
        let n = routes.len();
        if n == 0 {
            return;
        }
        // Clone for all but the last route; move into the last. On the
        // columnar plane the tuple is decomposed into the routes' pending
        // column batches instead of buffered as a row.
        if *columnar {
            for r in routes.iter_mut().take(n - 1) {
                if r.buffer_tuple_columnar(tuple.clone(), *batch_size, abort, blocked_ns)
                    .is_err()
                {
                    *failed = true;
                }
            }
            if routes[n - 1]
                .buffer_tuple_columnar(tuple, *batch_size, abort, blocked_ns)
                .is_err()
            {
                *failed = true;
            }
            return;
        }
        for r in routes.iter_mut().take(n - 1) {
            if r.buffer_tuple(tuple.clone(), *batch_size, abort, blocked_ns)
                .is_err()
            {
                *failed = true;
            }
        }
        if routes[n - 1]
            .buffer_tuple(tuple, *batch_size, abort, blocked_ns)
            .is_err()
        {
            *failed = true;
        }
    }
}

/// Per-instance shared counters and gauges the report (and the sampler /
/// progress threads) aggregate. All fields use relaxed atomics: counters
/// are independent and the final report is assembled only after the worker
/// threads are joined, which is the synchronization edge; mid-run samples
/// tolerate approximation.
struct InstanceStats {
    records_in: AtomicU64,
    records_out: AtomicU64,
    batches_out: AtomicU64,
    late_dropped: AtomicU64,
    state_bytes: AtomicUsize,
    peak_state: AtomicUsize,
    /// Keyed-state high-water marks reported by the instance's operator
    /// ([`Operator::keyed_state`]): peak resident keys per side and the
    /// longest per-key run. 0 for operators without keyed state.
    keyed_left_keys: AtomicUsize,
    keyed_right_keys: AtomicUsize,
    keyed_max_run: AtomicUsize,
    /// Nanoseconds spent blocked sending into full downstream inboxes.
    backpressure_ns: AtomicU64,
    /// Last sampled inbox depth (queued channel messages), and its peak.
    queue_depth: AtomicUsize,
    queue_depth_peak: AtomicUsize,
    /// Gauge: newest event ts seen minus merged watermark, ms, and peak.
    watermark_lag_ms: AtomicI64,
    watermark_lag_peak_ms: AtomicI64,
    /// Strided `Operator::process` wall-time observations.
    proc_hist: LatencyHistogram,
}

impl InstanceStats {
    fn new() -> Arc<Self> {
        Arc::new(InstanceStats {
            records_in: AtomicU64::new(0),
            records_out: AtomicU64::new(0),
            batches_out: AtomicU64::new(0),
            late_dropped: AtomicU64::new(0),
            state_bytes: AtomicUsize::new(0),
            peak_state: AtomicUsize::new(0),
            keyed_left_keys: AtomicUsize::new(0),
            keyed_right_keys: AtomicUsize::new(0),
            keyed_max_run: AtomicUsize::new(0),
            backpressure_ns: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            queue_depth_peak: AtomicUsize::new(0),
            watermark_lag_ms: AtomicI64::new(0),
            watermark_lag_peak_ms: AtomicI64::new(0),
            proc_hist: LatencyHistogram::default(),
        })
    }

    fn set_state(&self, bytes: usize) {
        self.state_bytes.store(bytes, Ordering::Relaxed);
        self.peak_state.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Record an operator's keyed-state high-water marks. The values are
    /// lifetime peaks, so a single observation at teardown is exact;
    /// `fetch_max` keeps earlier observations monotone regardless.
    fn set_keyed(&self, keyed: Option<crate::operator::KeyedStateStats>) {
        if let Some(ks) = keyed {
            self.keyed_left_keys
                .fetch_max(ks.left_keys, Ordering::Relaxed);
            self.keyed_right_keys
                .fetch_max(ks.right_keys, Ordering::Relaxed);
            self.keyed_max_run
                .fetch_max(ks.max_run_len, Ordering::Relaxed);
        }
    }

    /// Record the inbox depth gauge (and its peak).
    fn note_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record how far the merged event-time clock trails the newest event
    /// timestamp this instance has seen. Skipped until both ends of the
    /// interval are meaningful (at least one tuple, a finite watermark).
    fn note_watermark_lag(&self, max_ts_seen: Timestamp, wm: Timestamp) {
        if max_ts_seen > Timestamp::MIN && wm < Timestamp::MAX {
            let lag = max_ts_seen.millis().saturating_sub(wm.millis()).max(0);
            self.watermark_lag_ms.store(lag, Ordering::Relaxed);
            self.watermark_lag_peak_ms.fetch_max(lag, Ordering::Relaxed);
        }
    }
}

struct SinkShared {
    mode: SinkMode,
    tuples: Mutex<Vec<Tuple>>,
    count: AtomicU64,
    latencies_ns: Mutex<Vec<u64>>,
    stride: usize,
}

/// Collected results of one pipeline run.
#[derive(Debug)]
pub struct RunReport {
    /// Wall-clock duration of the whole run.
    pub duration: StdDuration,
    /// Total events emitted by all sources.
    pub source_events: u64,
    /// Per-node statistics in graph order.
    pub nodes: Vec<NodeStats>,
    /// Resource samples (if sampling was enabled).
    pub samples: Vec<ResourceSample>,
    /// Structured events retained by the run's [`EventLog`], oldest first.
    pub events: Vec<LogEvent>,
    /// Events displaced from the ring (emitted but not retained).
    pub events_displaced: u64,
    sinks: Vec<SinkResult>,
}

#[derive(Debug)]
struct SinkResult {
    tuples: Vec<Tuple>,
    count: u64,
    latencies_ns: Vec<u64>,
}

impl RunReport {
    /// Tuples collected by a sink (empty in [`SinkMode::CountOnly`]).
    pub fn sink(&self, id: SinkId) -> &[Tuple] {
        &self.sinks[id.0].tuples
    }

    /// Move a sink's tuples out of the report.
    pub fn take_sink(&mut self, id: SinkId) -> Vec<Tuple> {
        std::mem::take(&mut self.sinks[id.0].tuples)
    }

    /// Number of tuples that reached the sink (works in both modes).
    pub fn sink_count(&self, id: SinkId) -> u64 {
        self.sinks[id.0].count
    }

    /// Source-side throughput in events/second — the sustainable-throughput
    /// metric (sources are backpressured by the pipeline).
    pub fn throughput(&self) -> f64 {
        self.source_events as f64 / self.duration.as_secs_f64().max(1e-9)
    }

    /// Detection latency statistics at a sink.
    pub fn latency(&self, id: SinkId) -> LatencyStats {
        LatencyStats::from_ns(&self.sinks[id.0].latencies_ns)
    }

    /// Peak total operator state across the run (max over samples, or max
    /// of per-node peaks when sampling is off).
    pub fn peak_state_bytes(&self) -> usize {
        let from_samples = self
            .samples
            .iter()
            .map(|s| s.state_bytes)
            .max()
            .unwrap_or(0);
        let from_nodes: usize = self.nodes.iter().map(|n| n.peak_state_bytes).sum();
        from_samples.max(from_nodes)
    }

    /// Check the run's observed telemetry against statically derived
    /// [`StaticBounds`] and return every violated limit.
    ///
    /// Sink tuples are the summed delivered counts across all sinks; state
    /// is the summed per-node peak (each node's peak is individually below
    /// its static bound, so the sums compare soundly without mapping plan
    /// nodes to physical operators). An empty result means the cost model
    /// survived contact with this run.
    pub fn check_bounds(&self, bounds: &StaticBounds) -> Vec<BoundViolation> {
        let mut violations = Vec::new();
        if let Some(limit) = bounds.max_sink_tuples {
            let actual: u64 = self.sinks.iter().map(|s| s.count).sum();
            if actual > limit {
                violations.push(BoundViolation {
                    quantity: "sink_tuples",
                    actual,
                    bound: limit,
                    origin: bounds.origin.clone(),
                });
            }
        }
        if let Some(limit) = bounds.max_total_state_bytes {
            let actual: u64 = self.nodes.iter().map(|n| n.peak_state_bytes as u64).sum();
            if actual > limit {
                violations.push(BoundViolation {
                    quantity: "state_bytes",
                    actual,
                    bound: limit,
                    origin: bounds.origin.clone(),
                });
            }
        }
        if let Some(limit) = bounds.max_keyed_run {
            // Runs are per key per instance, so the max over nodes is the
            // right observable (never summed).
            let actual: u64 = self
                .nodes
                .iter()
                .map(|n| n.keyed_max_run as u64)
                .max()
                .unwrap_or(0);
            if actual > limit {
                violations.push(BoundViolation {
                    quantity: "keyed_run_len",
                    actual,
                    bound: limit,
                    origin: bounds.origin.clone(),
                });
            }
        }
        violations
    }

    /// Export the full telemetry of the run as a pretty-printed JSON
    /// document: per-node counters and latency histograms, watermark-lag /
    /// queue-depth / backpressure gauges, the resource-sample series, sink
    /// latency summaries, and the structured event log.
    ///
    /// Per-node derived quantities (`avg_batch`, histogram quantile bucket
    /// bounds) are materialized alongside the raw fields so consumers need
    /// no histogram arithmetic.
    pub fn to_json(&self) -> String {
        let nodes: Vec<Value> = self
            .nodes
            .iter()
            .map(|n| {
                let mut v = n.to_value();
                if let Value::Object(pairs) = &mut v {
                    pairs.push(("avg_batch".into(), Value::Float(n.avg_batch())));
                    pairs.push((
                        "proc_latency_mean_us".into(),
                        Value::Float(n.proc_latency.mean_us()),
                    ));
                    for (name, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                        pairs.push((
                            format!("proc_latency_{name}_le_ns"),
                            Value::UInt(n.proc_latency.quantile_le_ns(q)),
                        ));
                    }
                }
                v
            })
            .collect();
        let sinks: Vec<Value> = self
            .sinks
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("count".into(), Value::UInt(s.count)),
                    (
                        "latency".into(),
                        LatencyStats::from_ns(&s.latencies_ns).to_value(),
                    ),
                ])
            })
            .collect();
        let root = Value::Object(vec![
            ("schema_version".into(), Value::UInt(1)),
            (
                "duration_ms".into(),
                Value::Float(self.duration.as_secs_f64() * 1e3),
            ),
            ("source_events".into(), Value::UInt(self.source_events)),
            ("throughput_eps".into(), Value::Float(self.throughput())),
            (
                "peak_state_bytes".into(),
                Value::UInt(self.peak_state_bytes() as u64),
            ),
            ("nodes".into(), Value::Array(nodes)),
            ("samples".into(), self.samples.to_value()),
            ("sinks".into(), Value::Array(sinks)),
            ("events".into(), self.events.to_value()),
            (
                "events_displaced".into(),
                Value::UInt(self.events_displaced),
            ),
        ]);
        // The vendored writer is infallible for trees built from finite
        // numbers; fall back to an empty document rather than unwrap.
        serde_json::to_string_pretty(&root).unwrap_or_else(|_| String::from("{}"))
    }
}

/// Executes a [`GraphBuilder`] graph to completion.
pub struct Executor {
    cfg: ExecutorConfig,
}

impl Executor {
    /// An executor with the given runtime knobs.
    pub fn new(cfg: ExecutorConfig) -> Self {
        Executor { cfg }
    }

    /// Run the graph to end-of-stream and aggregate a [`RunReport`].
    ///
    /// The graph is statically validated first ([`crate::validate`]); a
    /// malformed graph is refused with [`PipelineError::Validation`] listing
    /// every defect before any thread is spawned.
    pub fn run(&self, graph: GraphBuilder) -> Result<RunReport, PipelineError> {
        if !self.cfg.env_errors.is_empty() {
            return Err(PipelineError::Validation(
                self.cfg
                    .env_errors
                    .iter()
                    .map(|msg| {
                        crate::validate::Diagnostic::error(
                            crate::validate::Code::InvalidEnvConfig,
                            None,
                            msg.clone(),
                        )
                    })
                    .collect(),
            ));
        }
        // Apply the shard-count override to sharded nodes *before* static
        // validation, so a mismatch introduced by the override (e.g. a
        // Forward edge into a re-parallelized node, G005) is refused with
        // the same diagnostics as a hand-built graph.
        let mut graph = graph;
        if let Some(shards) = self.cfg.shards {
            for node in graph.nodes.iter_mut() {
                if node.sharded {
                    node.parallelism = shards;
                }
            }
        }
        crate::validate::validate(&graph).map_err(PipelineError::Validation)?;
        if self.cfg.batch_size == 0 {
            return Err(PipelineError::Validation(vec![
                crate::validate::Diagnostic::error(
                    crate::validate::Code::InvalidBatchSize,
                    None,
                    "ExecutorConfig::batch_size must be ≥ 1 (a zero-sized batch would never flush)",
                ),
            ]));
        }
        let graph = if self.cfg.operator_chaining {
            chain::fuse_chains(graph)
        } else {
            graph
        };
        let n_nodes = graph.nodes.len();
        let n_instances: usize = graph.nodes.iter().map(|n| n.parallelism).sum();
        // With `batch_size == 1` every columnar message carries one row and
        // pays full batch bookkeeping — a documented regression against the
        // row plane — so single-tuple batching runs on the row plane.
        let columnar = self.cfg.columnar && self.cfg.batch_size > 1;
        let abort = Arc::new(AtomicBool::new(false));
        let first_error: Arc<Mutex<Option<PipelineError>>> = Arc::new(Mutex::new(None));
        let epoch = Instant::now();
        let log = Arc::new(EventLog::new(self.cfg.event_log_capacity));
        log.emit(
            Level::Info,
            "executor",
            format!(
                "run started: {n_nodes} nodes, {n_instances} instances, batch_size={}, chaining={}, plane={}",
                self.cfg.batch_size,
                self.cfg.operator_chaining,
                if columnar { "columnar" } else { "row" }
            ),
        );

        // Inboxes: one bounded channel per instance.
        let mut inbox_tx: Vec<Vec<Sender<Envelope>>> = Vec::with_capacity(n_nodes);
        let mut inbox_rx: Vec<Vec<Option<Receiver<Envelope>>>> = Vec::with_capacity(n_nodes);
        for node in &graph.nodes {
            let mut txs = Vec::with_capacity(node.parallelism);
            let mut rxs = Vec::with_capacity(node.parallelism);
            for _ in 0..node.parallelism {
                let (tx, rx) = bounded(self.cfg.channel_capacity);
                txs.push(tx);
                rxs.push(Some(rx));
            }
            inbox_tx.push(txs);
            inbox_rx.push(rxs);
        }

        // Routes: per node, the template of its outgoing edges.
        // route_templates[n] = Vec<(dst, port, exchange)>.
        let mut route_templates: Vec<Vec<(NodeId, usize, Exchange)>> = vec![Vec::new(); n_nodes];
        for e in &graph.edges {
            route_templates[e.src.0].push((e.dst, e.port, e.exchange));
        }

        // Input channel layout per node: (port, upstream parallelism).
        let input_layout: Vec<Vec<(usize, usize, bool)>> = (0..n_nodes)
            .map(|i| graph.input_channels(NodeId(i)))
            .collect();

        // One shard plan per sharded node with ≥ 2 instances: the shared
        // slot table its upstream routes consult and the rebalancer flips.
        let shard_plans: Vec<Option<Arc<shard::ShardPlan>>> = graph
            .nodes
            .iter()
            .map(|n| (n.sharded && n.parallelism > 1).then(|| shard::ShardPlan::new(n.parallelism)))
            .collect();

        // Shared stats + sinks.
        let stats: Vec<Vec<Arc<InstanceStats>>> = graph
            .nodes
            .iter()
            .map(|n| (0..n.parallelism).map(|_| InstanceStats::new()).collect())
            .collect();
        let mut sink_shared: Vec<Arc<SinkShared>> = Vec::new();
        for node in &graph.nodes {
            if let NodeKind::Sink(sid) = node.kind {
                sink_shared.push(Arc::new(SinkShared {
                    mode: graph.sink_modes[sid.0],
                    tuples: Mutex::new(Vec::new()),
                    count: AtomicU64::new(0),
                    latencies_ns: Mutex::new(Vec::new()),
                    stride: self.cfg.latency_stride.max(1),
                }));
            }
        }

        let source_events = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));

        // Sampler thread.
        let sampler_handle = self.cfg.sample_interval.map(|interval| {
            let flat_stats: Vec<Arc<InstanceStats>> = stats.iter().flatten().cloned().collect();
            let done = done.clone();
            std::thread::spawn(move || metrics::sample_loop(interval, flat_stats, done))
        });

        // Progress reporter thread (emits into the event log).
        let progress_handle = self.cfg.progress_interval.map(|interval| {
            let flat_stats: Vec<Arc<InstanceStats>> = stats.iter().flatten().cloned().collect();
            let done = done.clone();
            let log = log.clone();
            let sources = source_events.clone();
            std::thread::spawn(move || {
                metrics::progress_loop(interval, flat_stats, sources, log, done)
            })
        });

        // Adaptive rebalancer: one thread watching every shard plan's
        // traffic histogram, publishing at most one migration per plan at
        // a time. `rebalance_interval: None` keeps placement static.
        let active_plans: Vec<Arc<shard::ShardPlan>> =
            shard_plans.iter().flatten().cloned().collect();
        let rebalancer_handle = match (self.cfg.rebalance_interval, active_plans.is_empty()) {
            (Some(interval), false) => {
                let done = done.clone();
                let log = log.clone();
                Some(std::thread::spawn(move || {
                    shard::rebalance_loop(active_plans, interval, done, log)
                }))
            }
            _ => None,
        };

        let mut handles = Vec::new();
        let mut graph = graph;
        for (nid, node) in graph.nodes.iter_mut().enumerate() {
            let parallelism = node.parallelism;
            for instance in 0..parallelism {
                // Build this instance's routes.
                let routes: Vec<Route> = route_templates[nid]
                    .iter()
                    .map(|(dst, port, exchange)| {
                        Route::new(
                            *exchange,
                            *port as u16,
                            instance as u16,
                            instance,
                            inbox_tx[dst.0].clone(),
                            shard_plans[dst.0].clone(),
                        )
                    })
                    .collect();
                let istats = stats[nid][instance].clone();
                let collector = ChannelCollector {
                    routes,
                    batch_size: self.cfg.batch_size,
                    columnar,
                    abort: abort.clone(),
                    istats: istats.clone(),
                    out_count: 0,
                    failed: false,
                    pending_wm: None,
                    #[cfg(feature = "invariant-checks")]
                    wm_floor: Timestamp::MIN,
                    #[cfg(feature = "invariant-checks")]
                    enforce_emit_floor: !matches!(node.kind, NodeKind::Source { .. }),
                };
                let abort = abort.clone();
                let first_error = first_error.clone();
                let log = log.clone();
                let proc_every = self.cfg.proc_latency_every as u64;
                let name = node.name.clone();

                let handle = match &mut node.kind {
                    NodeKind::Source { cfg, chain } => {
                        let cfg = cfg.clone();
                        let chained: Option<Box<dyn Operator>> = if chain.is_empty() {
                            None
                        } else {
                            Some(Box::new(chain::ChainedOperator::new(
                                chain.iter().map(|f| f(instance)).collect(),
                            )))
                        };
                        let counter = source_events.clone();
                        let first_error = first_error.clone();
                        let idle_flush = self.cfg.idle_flush;
                        std::thread::Builder::new()
                            .name(format!("{name}#{instance}"))
                            .spawn(move || {
                                run_source(
                                    cfg,
                                    chained,
                                    instance,
                                    parallelism,
                                    collector,
                                    counter,
                                    istats,
                                    abort,
                                    first_error,
                                    epoch,
                                    idle_flush,
                                    proc_every,
                                    log,
                                )
                            })
                            .expect("spawn source")
                    }
                    NodeKind::Operator(factory) => {
                        let op = factory(instance);
                        let rx = inbox_rx[nid][instance].take().expect("rx unused");
                        let layout = input_layout[nid].clone();
                        let drop_late = self.cfg.drop_late;
                        let idle_flush = self.cfg.idle_flush;
                        let shard_ctx = shard_plans[nid].as_ref().map(|plan| {
                            if instance == 0 {
                                // Migrations move row-plane keyed state; an
                                // operator on the vectorized path never sees
                                // the per-tuple stash hook, so keep its
                                // placement static.
                                plan.set_migratable(
                                    op.shard_handoff_supported()
                                        && op.batch_support() == BatchSupport::Row,
                                );
                            }
                            ShardCtx::new(plan.clone(), instance, inbox_tx[nid].clone())
                        });
                        std::thread::Builder::new()
                            .name(format!("{name}#{instance}"))
                            .spawn(move || {
                                run_operator(
                                    op,
                                    rx,
                                    layout,
                                    collector,
                                    istats,
                                    abort,
                                    first_error,
                                    drop_late,
                                    idle_flush,
                                    proc_every,
                                    shard_ctx,
                                    log,
                                )
                            })
                            .expect("spawn operator")
                    }
                    NodeKind::Sink(sid) => {
                        let shared = sink_shared[sid.0].clone();
                        let rx = inbox_rx[nid][instance].take().expect("rx unused");
                        let layout = input_layout[nid].clone();
                        std::thread::Builder::new()
                            .name(format!("{name}#{instance}"))
                            .spawn(move || run_sink(shared, rx, layout, istats, abort, epoch))
                            .expect("spawn sink")
                    }
                };
                handles.push(handle);
            }
        }

        // Drop our copies of the senders so disconnects propagate.
        drop(inbox_tx);

        let mut panic_msg = None;
        for h in handles {
            if let Err(p) = h.join() {
                abort.store(true, Ordering::Relaxed);
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                panic_msg.get_or_insert(msg);
            }
        }
        done.store(true, Ordering::Relaxed);
        if let Some(h) = rebalancer_handle {
            let _ = h.join();
        }
        let samples = sampler_handle
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if let Some(h) = progress_handle {
            let _ = h.join();
        }
        let duration = epoch.elapsed();

        if let Some(err) = first_error.lock().take() {
            log.emit(Level::Error, "executor", format!("run aborted: {err}"));
            return Err(err);
        }
        if let Some(msg) = panic_msg {
            log.emit(Level::Error, "executor", format!("worker panicked: {msg}"));
            return Err(PipelineError::WorkerPanic(msg));
        }
        log.emit(
            Level::Info,
            "executor",
            format!(
                "run finished: {} source events in {:.1} ms",
                source_events.load(Ordering::Relaxed),
                duration.as_secs_f64() * 1e3
            ),
        );

        // Aggregate per-node stats.
        let nodes = graph
            .nodes
            .iter()
            .enumerate()
            .map(|(nid, node)| NodeStats {
                name: node.name.clone(),
                parallelism: node.parallelism,
                records_in: stats[nid]
                    .iter()
                    .map(|s| s.records_in.load(Ordering::Relaxed))
                    .sum(),
                records_out: stats[nid]
                    .iter()
                    .map(|s| s.records_out.load(Ordering::Relaxed))
                    .sum(),
                batches_out: stats[nid]
                    .iter()
                    .map(|s| s.batches_out.load(Ordering::Relaxed))
                    .sum(),
                late_dropped: stats[nid]
                    .iter()
                    .map(|s| s.late_dropped.load(Ordering::Relaxed))
                    .sum(),
                peak_state_bytes: stats[nid]
                    .iter()
                    .map(|s| s.peak_state.load(Ordering::Relaxed))
                    .sum(),
                keyed_left_keys: stats[nid]
                    .iter()
                    .map(|s| s.keyed_left_keys.load(Ordering::Relaxed))
                    .sum(),
                keyed_right_keys: stats[nid]
                    .iter()
                    .map(|s| s.keyed_right_keys.load(Ordering::Relaxed))
                    .sum(),
                keyed_max_run: stats[nid]
                    .iter()
                    .map(|s| s.keyed_max_run.load(Ordering::Relaxed))
                    .max()
                    .unwrap_or(0),
                shard_migrations: shard_plans[nid].as_ref().map_or(0, |p| p.migrations_done()),
                proc_latency: stats[nid].iter().fold(
                    crate::obs::HistogramSummary::default(),
                    |mut acc, s| {
                        acc.merge(&s.proc_hist.summary());
                        acc
                    },
                ),
                watermark_lag_ms: stats[nid]
                    .iter()
                    .map(|s| s.watermark_lag_ms.load(Ordering::Relaxed))
                    .max()
                    .unwrap_or(0),
                watermark_lag_peak_ms: stats[nid]
                    .iter()
                    .map(|s| s.watermark_lag_peak_ms.load(Ordering::Relaxed))
                    .max()
                    .unwrap_or(0),
                queue_depth: stats[nid]
                    .iter()
                    .map(|s| s.queue_depth.load(Ordering::Relaxed))
                    .sum(),
                queue_depth_peak: stats[nid]
                    .iter()
                    .map(|s| s.queue_depth_peak.load(Ordering::Relaxed))
                    .max()
                    .unwrap_or(0),
                backpressure_ns: stats[nid]
                    .iter()
                    .map(|s| s.backpressure_ns.load(Ordering::Relaxed))
                    .sum(),
            })
            .collect();

        // All workers are joined, so each sink's Arc should be uniquely
        // held here. If one is not, the run's bookkeeping is broken —
        // report it as an error instead of panicking out of the embedder.
        let mut sinks = Vec::with_capacity(sink_shared.len());
        for (i, s) in sink_shared.into_iter().enumerate() {
            let count = s.count.load(Ordering::Relaxed);
            match Arc::try_unwrap(s) {
                Ok(s) => sinks.push(SinkResult {
                    tuples: s.tuples.into_inner(),
                    count,
                    latencies_ns: s.latencies_ns.into_inner(),
                }),
                Err(_) => {
                    let msg = format!("sink {i} result still shared after all workers joined");
                    log.emit(Level::Error, "executor", &msg);
                    return Err(PipelineError::Internal(msg));
                }
            }
        }

        Ok(RunReport {
            duration,
            source_events: source_events.load(Ordering::Relaxed),
            nodes,
            samples,
            events: log.snapshot(),
            events_displaced: log.displaced(),
            sinks,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn run_source(
    cfg: SourceConfig,
    mut chained: Option<Box<dyn Operator>>,
    instance: usize,
    parallelism: usize,
    mut collector: ChannelCollector,
    counter: Arc<AtomicU64>,
    istats: Arc<InstanceStats>,
    abort: Arc<AtomicBool>,
    first_error: Arc<Mutex<Option<PipelineError>>>,
    epoch: Instant,
    idle_flush: StdDuration,
    proc_every: u64,
    log: Arc<EventLog>,
) {
    let mut last_ts = Timestamp::MIN;
    let mut forwarded_wm = Timestamp::MIN;
    let mut emitted: u64 = 0;
    let lag = cfg.watermark_lag;
    let pace = cfg
        .rate
        .map(|r| StdDuration::from_secs_f64(1.0 / r.max(1e-9)));
    let start = Instant::now();
    // Rate-limited sources check the idle-flush deadline per event so a
    // partial batch never outlives `idle_flush`; saturating sources fill
    // batches in microseconds and flush at every punctuation instead.
    let mut last_flush = start;
    // Columnar plane: events stream straight into column batches. With a
    // columnar-capable chained operator they are staged per `batch_size`
    // and driven through `process_columnar`; without a chain they go
    // directly into the routes' pending batches (`emit_event`). A row-only
    // chain keeps the per-tuple path (its emissions are still re-batched
    // columnar by the collector).
    let columnar = collector.columnar;
    let columnar_chain = chained
        .as_ref()
        .is_some_and(|op| op.batch_support() == BatchSupport::Columnar);
    let bs = collector.batch_size;
    let mut staging = if columnar && columnar_chain {
        ColumnarBatch::with_capacity(bs)
    } else {
        ColumnarBatch::default()
    };
    'ingest: for (i, ev) in cfg.events.iter().enumerate() {
        if parallelism > 1 && i % parallelism != instance {
            continue;
        }
        if abort.load(Ordering::Relaxed) {
            break;
        }
        if let Some(p) = pace {
            let target = start + p.mul_f64(emitted as f64);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
        }
        let wall = epoch.elapsed().as_nanos() as u64;
        last_ts = last_ts.max(ev.ts);
        match &mut chained {
            Some(op) if columnar && columnar_chain => {
                staging.push_event(*ev, wall);
                if staging.len() >= bs {
                    // One strided observation per batch call: the cost of
                    // two clock reads amortizes over `bs` events.
                    let t0 = (proc_every != 0).then(Instant::now);
                    if let Err(e) = op.process_columnar(0, &mut staging) {
                        record_op_error(op.name(), e, &abort, &first_error, &log);
                        break 'ingest;
                    }
                    if let Some(t0) = t0 {
                        istats.proc_hist.record(t0.elapsed().as_nanos() as u64);
                    }
                    collector.forward_batch(std::mem::replace(
                        &mut staging,
                        ColumnarBatch::with_capacity(bs),
                    ));
                }
            }
            // Chained operators run inline on the source task; their
            // processing latency is attributed to the source node.
            Some(op) => {
                let t = Tuple::from_event_wall(*ev, wall);
                let t0 = (proc_every != 0 && emitted % proc_every == 0).then(Instant::now);
                if let Err(e) = op.process(0, t, &mut collector) {
                    record_op_error(op.name(), e, &abort, &first_error, &log);
                    break 'ingest;
                }
                if let Some(t0) = t0 {
                    istats.proc_hist.record(t0.elapsed().as_nanos() as u64);
                }
            }
            None if columnar => collector.emit_event(*ev, wall),
            None => collector.emit(Tuple::from_event_wall(*ev, wall)),
        }
        emitted += 1;
        if emitted as usize % cfg.watermark_every == 0 {
            // Stage boundary: rows covered by the upcoming watermark must
            // reach the routes' buffers before the watermark is recorded.
            if !staging.is_empty() {
                if let Some(op) = &mut chained {
                    if let Err(e) = op.process_columnar(0, &mut staging) {
                        record_op_error(op.name(), e, &abort, &first_error, &log);
                        break 'ingest;
                    }
                }
                collector.forward_batch(std::mem::replace(
                    &mut staging,
                    ColumnarBatch::with_capacity(bs),
                ));
            }
            let wm = last_ts.saturating_sub(lag);
            match &mut chained {
                Some(op) => match op.on_watermark(wm, &mut collector) {
                    Ok(fwd) => {
                        let fwd = fwd.min(wm);
                        if fwd > forwarded_wm {
                            forwarded_wm = fwd;
                            collector.broadcast_watermark(fwd);
                        }
                    }
                    Err(e) => {
                        record_op_error(op.name(), e, &abort, &first_error, &log);
                        break 'ingest;
                    }
                },
                None => {
                    if wm > forwarded_wm {
                        forwarded_wm = wm;
                        collector.broadcast_watermark(wm);
                    }
                }
            }
            // Punctuation releases the watermark softly (it rides behind
            // full batches); the idle_flush deadline bounds how long an
            // owed watermark or partial batch can sit under sustained load.
            collector.flush();
            if last_flush.elapsed() >= idle_flush {
                collector.flush_hard();
                last_flush = Instant::now();
            }
            istats.set_state(chained.as_ref().map_or(0, |op| op.state_bytes()));
        } else if pace.is_some() && last_flush.elapsed() >= idle_flush {
            collector.flush_hard();
            last_flush = Instant::now();
        }
        if collector.failed {
            break;
        }
    }
    // Drain staged rows through the chain before the final watermark.
    if !staging.is_empty() && !abort.load(Ordering::Relaxed) {
        if let Some(op) = &mut chained {
            match op.process_columnar(0, &mut staging) {
                Ok(()) => collector.forward_batch(staging),
                Err(e) => record_op_error(op.name(), e, &abort, &first_error, &log),
            }
        }
    }
    match &mut chained {
        Some(op) => {
            if last_ts > Timestamp::MIN {
                if let Ok(fwd) = op.on_watermark(last_ts, &mut collector) {
                    let fwd = fwd.min(last_ts);
                    if fwd > forwarded_wm {
                        collector.broadcast_watermark(fwd);
                    }
                }
            }
            if let Err(e) = op.on_finish(&mut collector) {
                record_op_error(op.name(), e, &abort, &first_error, &log);
            }
            istats.set_state(op.state_bytes());
            istats.set_keyed(op.keyed_state());
        }
        None => {
            if last_ts > Timestamp::MIN {
                collector.broadcast_watermark(last_ts);
            }
        }
    }
    if let Some(e) = collector.take_op_error() {
        let name = chained.as_ref().map_or("source", |op| op.name());
        record_op_error(name, e, &abort, &first_error, &log);
    }
    collector.broadcast_end();
    counter.fetch_add(emitted, Ordering::Relaxed);
    istats.records_out.fetch_add(emitted, Ordering::Relaxed);
    istats
        .batches_out
        .fetch_add(collector.messages_sent(), Ordering::Relaxed);
    log.emit(
        Level::Debug,
        std::thread::current().name().unwrap_or("source"),
        format!("end of stream: {emitted} events ingested"),
    );
}

/// Per-(port, channel) watermark table used to merge watermarks.
struct WatermarkTable {
    /// wm[port][chan]
    wm: Vec<Vec<Timestamp>>,
    ended: Vec<Vec<bool>>,
    live: usize,
}

impl WatermarkTable {
    fn new(layout: &[(usize, usize, bool)]) -> Self {
        let mut wm = Vec::new();
        let mut ended = Vec::new();
        let mut live = 0;
        for (_port, chans, _exempt) in layout {
            wm.push(vec![Timestamp::MIN; *chans]);
            ended.push(vec![false; *chans]);
            live += *chans;
        }
        WatermarkTable { wm, ended, live }
    }

    fn update(&mut self, port: usize, chan: usize, ts: Timestamp) {
        // Punctuated watermarks are strictly increasing per sender, and
        // each (port, chan) cell has exactly one sender instance — so a
        // regression or a post-End watermark means a runtime bug upstream.
        #[cfg(feature = "invariant-checks")]
        {
            assert!(
                !self.ended[port][chan],
                "invariant violation: watermark {ts:?} on (port {port}, chan {chan}) after End"
            );
            assert!(
                ts >= self.wm[port][chan],
                "invariant violation: watermark regressed on (port {port}, chan {chan}): {ts:?} < {:?}",
                self.wm[port][chan]
            );
        }
        let cell = &mut self.wm[port][chan];
        if ts > *cell {
            *cell = ts;
        }
    }

    fn end(&mut self, port: usize, chan: usize) {
        if !self.ended[port][chan] {
            self.ended[port][chan] = true;
            self.wm[port][chan] = Timestamp::MAX;
            self.live -= 1;
        }
    }

    fn all_ended(&self) -> bool {
        self.live == 0
    }

    /// Last watermark seen on one specific input channel (used for the
    /// deterministic per-channel late-drop decision).
    fn channel_wm(&self, port: usize, chan: usize) -> Timestamp {
        self.wm[port][chan]
    }

    fn min(&self) -> Timestamp {
        self.wm
            .iter()
            .flat_map(|v| v.iter())
            .copied()
            .min()
            .unwrap_or(Timestamp::MAX)
    }
}

/// Receiver-side shard-migration state of one sharded-node instance.
///
/// Tracks the in-flight migration's cut-over markers across input
/// channels, stashes post-marker tuples for a slot migrating *to* this
/// instance, parks an early-arriving handoff, and defers End-driven clock
/// promotions while a migration is tracked (see [`shard`] module docs for
/// why the deferral keeps the extract/absorb clocks identical).
struct ShardCtx {
    plan: Arc<shard::ShardPlan>,
    /// This instance's shard index.
    me: usize,
    /// Sibling instances' inboxes, for sending the handoff payload.
    siblings: Vec<Sender<Envelope>>,
    /// The migration being tracked, with the input channels whose marker
    /// (or End) is still outstanding.
    pending: Option<PendingMigration>,
    /// Post-marker tuples for the inbound slot, in arrival order (their
    /// late-drop verdicts were already decided at arrival).
    stash: Vec<(usize, Tuple)>,
    /// Handoff that arrived before this instance's markers completed.
    parked: Option<Box<shard::HandoffPayload>>,
    /// `End`s received while tracking; their watermark-table promotion is
    /// applied when the migration resolves, so the merged clock at
    /// extract/absorb is the same pure function of pre-marker watermarks
    /// on every instance.
    deferred_ends: Vec<(usize, usize)>,
}

struct PendingMigration {
    mig: shard::Migration,
    need: std::collections::HashSet<(usize, usize)>,
}

impl ShardCtx {
    fn new(plan: Arc<shard::ShardPlan>, me: usize, siblings: Vec<Sender<Envelope>>) -> Self {
        ShardCtx {
            plan,
            me,
            siblings,
            pending: None,
            stash: Vec::new(),
            parked: None,
            deferred_ends: Vec::new(),
        }
    }

    /// Start tracking migration `version` at its first evidence (marker or
    /// handoff). The need-set is every input channel still live — each
    /// must deliver the marker (or its `End`) before the migration can
    /// act on this instance.
    fn begin_tracking(&mut self, version: u64, table: &WatermarkTable) {
        if self.pending.is_some() || version <= self.plan.completed() {
            return;
        }
        let Some(mig) = self.plan.migration() else {
            return;
        };
        if mig.version != version {
            return;
        }
        let mut need = std::collections::HashSet::new();
        for (port, chans) in table.ended.iter().enumerate() {
            for (chan, ended) in chans.iter().enumerate() {
                if !ended {
                    need.insert((port, chan));
                }
            }
        }
        self.pending = Some(PendingMigration { mig, need });
    }

    /// A marker (version `Some`) or `End` (version `None`) arrived on
    /// (port, chan): the channel can contribute nothing more to the
    /// pre-cut-over prefix.
    fn note_channel(&mut self, version: Option<u64>, port: usize, chan: usize) {
        if let Some(p) = &mut self.pending {
            if version.map_or(true, |v| v == p.mig.version) {
                p.need.remove(&(port, chan));
            }
        }
    }

    fn markers_complete(&self) -> bool {
        self.pending.as_ref().is_some_and(|p| p.need.is_empty())
    }

    /// Whether a post-cut-over tuple with this key belongs to a slot still
    /// in flight *to* this instance (stash until the handoff is absorbed).
    fn should_stash(&self, key: u64) -> bool {
        self.pending
            .as_ref()
            .is_some_and(|p| p.mig.to == self.me && shard::slot_of(key) == p.mig.slot)
    }
}

/// Blocking send of a shard handoff to a sibling instance's inbox, with
/// the same abort-aware backpressure loop as [`Route::send`].
fn send_handoff(tx: &Sender<Envelope>, mut env: Envelope, abort: &AtomicBool) -> Result<(), ()> {
    loop {
        match tx.send_timeout(env, StdDuration::from_millis(20)) {
            Ok(()) => return Ok(()),
            Err(crossbeam::channel::SendTimeoutError::Timeout(e)) => {
                if abort.load(Ordering::Relaxed) {
                    return Err(());
                }
                env = e;
            }
            Err(crossbeam::channel::SendTimeoutError::Disconnected(_)) => return Err(()),
        }
    }
}

/// Drive the tracked migration forward after a marker/`End`/handoff event.
///
/// When this instance's markers are complete: the migration *source*
/// extracts the slot's operator state and sends it to the target's inbox;
/// the *target* absorbs a parked handoff (or keeps waiting for it),
/// replays its stash in arrival order, and acknowledges completion;
/// bystanders just stop tracking. On resolution the deferred `End`s are
/// promoted and the operator fires at the recomputed merged clock.
#[allow(clippy::too_many_arguments)]
fn shard_progress(
    ctx: &mut ShardCtx,
    op: &mut dyn Operator,
    table: &mut WatermarkTable,
    collector: &mut ChannelCollector,
    current_wm: &mut Timestamp,
    forwarded: &mut Timestamp,
    istats: &InstanceStats,
    max_ts: Timestamp,
    abort: &AtomicBool,
    first_error: &Mutex<Option<PipelineError>>,
    log: &EventLog,
) -> Step {
    if !ctx.markers_complete() {
        return Step::Continue;
    }
    let Some(p) = ctx.pending.take() else {
        return Step::Continue;
    };
    let mig = p.mig;
    if mig.from == ctx.me {
        let slot = mig.slot;
        let Some(state) = op.extract_shard(&move |key| shard::slot_of(key) == slot) else {
            // Unreachable when `set_migratable` gating is correct: the
            // rebalancer only migrates operators that declared support.
            let e = OpError::Failed {
                operator: op.name().to_string(),
                reason: "operator was migrated but does not implement extract_shard".to_string(),
            };
            record_op_error(op.name(), e, abort, first_error, log);
            return Step::Error;
        };
        let payload = Box::new(shard::HandoffPayload {
            version: mig.version,
            slot,
            state,
        });
        let env = Envelope {
            port: 0,
            chan: 0,
            msg: Message::ShardHandoff(payload),
        };
        if send_handoff(&ctx.siblings[mig.to], env, abort).is_err() {
            return Step::Error;
        }
        log.emit(
            Level::Debug,
            std::thread::current().name().unwrap_or("operator"),
            format!("handed slot {} off to shard {}", mig.slot, mig.to),
        );
    } else if mig.to == ctx.me {
        let Some(h) = ctx.parked.take() else {
            // Markers are complete but the state is still in flight: keep
            // draining (and keep deferring Ends) until it arrives.
            ctx.pending = Some(p);
            return Step::Continue;
        };
        debug_assert_eq!(h.version, mig.version, "handoff/migration version mismatch");
        debug_assert_eq!(h.slot, mig.slot, "handoff/migration slot mismatch");
        if let Err(e) = op.absorb_shard(h.state) {
            record_op_error(op.name(), e, abort, first_error, log);
            return Step::Error;
        }
        let stash = std::mem::take(&mut ctx.stash);
        for (port, t) in stash {
            if let Err(e) = op.process(port, t, collector) {
                record_op_error(op.name(), e, abort, first_error, log);
                return Step::Error;
            }
        }
        ctx.plan.complete(mig.version);
        log.emit(
            Level::Debug,
            std::thread::current().name().unwrap_or("operator"),
            format!("absorbed slot {} from shard {}", mig.slot, mig.from),
        );
    }
    // Resolution (all roles): promote the Ends deferred during tracking,
    // then fire at whatever the merged clock becomes.
    for (port, chan) in ctx.deferred_ends.drain(..) {
        table.end(port, chan);
    }
    let m = table.min();
    if !table.all_ended() && m > *current_wm && m < Timestamp::MAX {
        *current_wm = m;
        istats.note_watermark_lag(max_ts, m);
        match op.on_watermark(m, collector) {
            Ok(f) => {
                let f = f.min(m);
                if f > *forwarded {
                    *forwarded = f;
                    collector.broadcast_watermark(f);
                }
            }
            Err(e) => {
                record_op_error(op.name(), e, abort, first_error, log);
                return Step::Error;
            }
        }
    }
    if table.all_ended() {
        if let Err(e) = op.on_finish(collector) {
            record_op_error(op.name(), e, abort, first_error, log);
        }
        return Step::Finished;
    }
    Step::Continue
}

fn record_op_error(
    name: &str,
    e: OpError,
    abort: &AtomicBool,
    first_error: &Mutex<Option<PipelineError>>,
    log: &EventLog,
) {
    log.emit(Level::Error, name, format!("operator error: {e}"));
    abort.store(true, Ordering::Relaxed);
    // An operator that declared columnar support but rejected its payload
    // is a contract violation, not a data error: surface it as diagnostic
    // G016 so it reads like the other plan/config defects.
    let err = match e {
        OpError::ColumnarUnsupported { .. } => {
            PipelineError::Validation(vec![crate::validate::Diagnostic::error(
                crate::validate::Code::ColumnarPayloadMismatch,
                None,
                format!("{e}"),
            )])
        }
        e => PipelineError::Operator(e),
    };
    first_error.lock().get_or_insert(err);
}

/// Outcome of handling one envelope in an instance harness.
enum Step {
    /// Keep draining the inbox.
    Continue,
    /// Every input channel ended and `on_finish` ran — exit cleanly.
    Finished,
    /// The operator errored (already recorded) — abort the run.
    Error,
}

#[allow(clippy::too_many_arguments)]
fn run_operator(
    mut op: Box<dyn Operator>,
    rx: Receiver<Envelope>,
    layout: Vec<(usize, usize, bool)>,
    mut collector: ChannelCollector,
    istats: Arc<InstanceStats>,
    abort: Arc<AtomicBool>,
    first_error: Arc<Mutex<Option<PipelineError>>>,
    drop_late: bool,
    idle_flush: StdDuration,
    proc_every: u64,
    shard: Option<ShardCtx>,
    log: Arc<EventLog>,
) {
    let mut shard = shard;
    let mut table = WatermarkTable::new(&layout);
    let mut current_wm = Timestamp::MIN;
    let mut forwarded = Timestamp::MIN;
    let mut records_in: u64 = 0;
    let mut late: u64 = 0;
    // Newest event timestamp this instance has seen; the distance to the
    // merged watermark is the watermark-lag gauge.
    let mut max_ts = Timestamp::MIN;
    // Handle one envelope; tuple batches are processed back-to-back
    // without touching the channel again.
    let mut handle = |env: Envelope, collector: &mut ChannelCollector| -> Step {
        // A shared fan-out batch becomes an owned columnar batch at the
        // operator boundary: free when this consumer holds the last
        // reference, one clone while sibling consumers still read it.
        let env = match env {
            Envelope {
                port,
                chan,
                msg: Message::Shared(b),
            } => Envelope {
                port,
                chan,
                msg: Message::Columnar(Arc::try_unwrap(b).unwrap_or_else(|b| (*b).clone())),
            },
            env => env,
        };
        let port = env.port as usize;
        // Late tuples are judged against the *arriving channel's* watermark,
        // not the merged minimum: the merged clock's momentary value depends
        // on cross-channel thread interleaving at unions/joins, while the
        // per-channel clock is a pure function of that channel's contents —
        // so which tuples drop is run-to-run deterministic. The channel
        // watermark is ≥ the merged watermark, so everything the merged
        // clock would have dropped still drops, and survivors still satisfy
        // the emission-floor contract (they are ≥ channel wm ≥ merged wm).
        let wm_now = table.channel_wm(port, env.chan as usize);
        let one_tuple = |t: Tuple,
                         op: &mut dyn Operator,
                         collector: &mut ChannelCollector,
                         shard: &mut Option<ShardCtx>,
                         records_in: &mut u64,
                         late: &mut u64,
                         max_ts: &mut Timestamp|
         -> Step {
            *records_in += 1;
            if t.ts > *max_ts {
                *max_ts = t.ts;
            }
            if drop_late && t.ts < wm_now {
                *late += 1;
                return Step::Continue;
            }
            // A post-cut-over tuple for a slot whose state is still in
            // flight to this instance: hold it (in arrival order) until
            // the handoff is absorbed. The late-drop verdict above was
            // final — stashed tuples are replayed without re-judging.
            if let Some(ctx) = shard.as_mut() {
                if ctx.should_stash(t.key) {
                    ctx.stash.push((port, t));
                    return Step::Continue;
                }
            }
            // Strided processing-latency sampling: every `proc_every`-th
            // tuple pays two clock reads; the rest pay nothing.
            let t0 = (proc_every != 0 && *records_in % proc_every == 0).then(Instant::now);
            if let Err(e) = op.process(port, t, collector) {
                record_op_error(op.name(), e, &abort, &first_error, &log);
                return Step::Error;
            }
            if let Some(t0) = t0 {
                istats.proc_hist.record(t0.elapsed().as_nanos() as u64);
            }
            if *records_in % 64 == 0 {
                istats.set_state(op.state_bytes());
            }
            Step::Continue
        };
        match env.msg {
            Message::Tuple(t) => {
                return one_tuple(
                    t,
                    &mut *op,
                    collector,
                    &mut shard,
                    &mut records_in,
                    &mut late,
                    &mut max_ts,
                );
            }
            Message::Batch(ts) => {
                for t in ts {
                    if let Step::Error = one_tuple(
                        t,
                        &mut *op,
                        collector,
                        &mut shard,
                        &mut records_in,
                        &mut late,
                        &mut max_ts,
                    ) {
                        return Step::Error;
                    }
                }
            }
            Message::Columnar(mut b) => {
                debug_assert!(b.is_dense(), "wire batches are dense");
                if op.batch_support() == BatchSupport::Columnar {
                    // Vectorized path: account, late-drop, and process the
                    // whole batch without materializing a row.
                    records_in += b.len() as u64;
                    if let Some(m) = b.max_ts() {
                        if m > max_ts {
                            max_ts = m;
                        }
                    }
                    if drop_late {
                        late += b.drop_late(wm_now);
                    }
                    if b.selected_len() > 0 {
                        // One strided observation per batch call; the two
                        // clock reads amortize over the batch.
                        let t0 = (proc_every != 0).then(Instant::now);
                        if let Err(e) = op.process_columnar(port, &mut b) {
                            record_op_error(op.name(), e, &abort, &first_error, &log);
                            return Step::Error;
                        }
                        if let Some(t0) = t0 {
                            istats.proc_hist.record(t0.elapsed().as_nanos() as u64);
                        }
                        collector.forward_batch(b);
                    }
                    istats.set_state(op.state_bytes());
                } else {
                    // Row shim: materialize each row at the input boundary
                    // of a row-only (stateful) operator.
                    for i in 0..b.len() {
                        if let Step::Error = one_tuple(
                            b.tuple_at(i),
                            &mut *op,
                            collector,
                            &mut shard,
                            &mut records_in,
                            &mut late,
                            &mut max_ts,
                        ) {
                            return Step::Error;
                        }
                    }
                }
            }
            // Rewritten to `Columnar` at the top of `handle`.
            Message::Shared(_) => unreachable!("shared batches are unwrapped on entry"),
            Message::Watermark(ts) => {
                table.update(env.port as usize, env.chan as usize, ts);
                let m = table.min();
                if m > current_wm {
                    current_wm = m;
                    istats.note_watermark_lag(max_ts, m);
                    match op.on_watermark(m, collector) {
                        Ok(f) => {
                            let f = f.min(m);
                            if f > forwarded {
                                forwarded = f;
                                collector.broadcast_watermark(f);
                            }
                        }
                        Err(e) => {
                            record_op_error(op.name(), e, &abort, &first_error, &log);
                            return Step::Error;
                        }
                    }
                    istats.set_state(op.state_bytes());
                }
            }
            Message::ShardMarker { version } => {
                if let Some(ctx) = shard.as_mut() {
                    ctx.begin_tracking(version, &table);
                    ctx.note_channel(Some(version), port, env.chan as usize);
                    return shard_progress(
                        ctx,
                        &mut *op,
                        &mut table,
                        collector,
                        &mut current_wm,
                        &mut forwarded,
                        &istats,
                        max_ts,
                        &abort,
                        &first_error,
                        &log,
                    );
                }
                debug_assert!(false, "shard marker delivered to an unsharded node");
            }
            Message::ShardHandoff(payload) => {
                if let Some(ctx) = shard.as_mut() {
                    ctx.begin_tracking(payload.version, &table);
                    ctx.parked = Some(payload);
                    return shard_progress(
                        ctx,
                        &mut *op,
                        &mut table,
                        collector,
                        &mut current_wm,
                        &mut forwarded,
                        &istats,
                        max_ts,
                        &abort,
                        &first_error,
                        &log,
                    );
                }
                debug_assert!(false, "shard handoff delivered to an unsharded node");
            }
            Message::End => {
                if let Some(ctx) = shard.as_mut() {
                    if ctx.pending.is_some() {
                        // Defer the clock promotion while a migration is
                        // tracked (it still satisfies an outstanding
                        // marker); the table is promoted at resolution so
                        // the extract/absorb clocks stay aligned.
                        ctx.deferred_ends.push((port, env.chan as usize));
                        ctx.note_channel(None, port, env.chan as usize);
                        return shard_progress(
                            ctx,
                            &mut *op,
                            &mut table,
                            collector,
                            &mut current_wm,
                            &mut forwarded,
                            &istats,
                            max_ts,
                            &abort,
                            &first_error,
                            &log,
                        );
                    }
                }
                table.end(env.port as usize, env.chan as usize);
                // An ended channel no longer holds the clock back.
                let m = table.min();
                if !table.all_ended() && m > current_wm && m < Timestamp::MAX {
                    current_wm = m;
                    istats.note_watermark_lag(max_ts, m);
                    match op.on_watermark(m, collector) {
                        Ok(f) => {
                            let f = f.min(m);
                            if f > forwarded {
                                forwarded = f;
                                collector.broadcast_watermark(f);
                            }
                        }
                        Err(e) => {
                            record_op_error(op.name(), e, &abort, &first_error, &log);
                            return Step::Error;
                        }
                    }
                }
                if table.all_ended() {
                    if let Err(e) = op.on_finish(collector) {
                        record_op_error(op.name(), e, &abort, &first_error, &log);
                    }
                    return Step::Finished;
                }
            }
        }
        Step::Continue
    };
    let mut last_hard = Instant::now();
    loop {
        if abort.load(Ordering::Relaxed) {
            break;
        }
        let env = match rx.recv_timeout(idle_flush) {
            Ok(env) => env,
            Err(RecvTimeoutError::Timeout) => {
                // Idle: release any partial batches + pending/owed
                // watermarks so low-rate streams keep low latency.
                collector.flush_hard();
                last_hard = Instant::now();
                if collector.failed {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut step = handle(env, &mut collector);
        // Drain whatever else is already queued (bounded, so a coalesced
        // watermark is never deferred for long under sustained load), then
        // flush once for the whole round.
        let mut drained = 1usize;
        while matches!(step, Step::Continue) && drained < DRAIN_LIMIT {
            match rx.try_recv() {
                Ok(env) => {
                    drained += 1;
                    step = handle(env, &mut collector);
                }
                Err(_) => break,
            }
        }
        // Soft flush per round keeps watermarks moving on empty channels;
        // the idle_flush deadline bounds owed watermarks and partial
        // batches when the task is busy but its output trickles.
        collector.flush();
        if last_hard.elapsed() >= idle_flush {
            collector.flush_hard();
            last_hard = Instant::now();
        }
        // One inbox-depth observation per scheduling round (up to
        // DRAIN_LIMIT envelopes), so the gauge costs one channel-lock
        // acquisition per round, not per message.
        istats.note_queue_depth(rx.len());
        if !matches!(step, Step::Continue) || collector.failed {
            break;
        }
    }
    if let Some(e) = collector.take_op_error() {
        record_op_error(op.name(), e, &abort, &first_error, &log);
    }
    collector.broadcast_end();
    istats.note_queue_depth(rx.len());
    istats.records_in.fetch_add(records_in, Ordering::Relaxed);
    istats.late_dropped.fetch_add(late, Ordering::Relaxed);
    istats
        .records_out
        .fetch_add(collector.out_count, Ordering::Relaxed);
    istats
        .batches_out
        .fetch_add(collector.messages_sent(), Ordering::Relaxed);
    istats.set_state(op.state_bytes());
    istats.set_keyed(op.keyed_state());
    log.emit(
        Level::Debug,
        std::thread::current().name().unwrap_or("operator"),
        format!(
            "finished: {records_in} in, {} out, {late} late-dropped",
            collector.out_count
        ),
    );
}

fn run_sink(
    shared: Arc<SinkShared>,
    rx: Receiver<Envelope>,
    layout: Vec<(usize, usize, bool)>,
    istats: Arc<InstanceStats>,
    abort: Arc<AtomicBool>,
    epoch: Instant,
) {
    let mut table = WatermarkTable::new(&layout);
    let mut sink_wm = Timestamp::MIN;
    let mut n: u64 = 0;
    let sink_one = |t: Tuple, n: &mut u64, sink_wm: Timestamp, enforce_floor: bool| {
        *n += 1;
        // Sink-side event-time monotonicity: a tuple behind the merged
        // watermark means some upstream task emitted late data the
        // watermark protocol had already sealed off. Ports fed straight
        // by a source task are exempt (`enforce_floor == false`): sources
        // — including chains fused into them — legitimately emit behind
        // their own watermark when `watermark_lag` under-estimates
        // disorder, and only the next *operator* task applies
        // `drop_late`; a sink wired directly after one has no such
        // shield by design.
        #[cfg(feature = "invariant-checks")]
        assert!(
            !enforce_floor || t.ts >= sink_wm,
            "invariant violation: sink received tuple at {:?} behind merged watermark {sink_wm:?}",
            t.ts
        );
        #[cfg(not(feature = "invariant-checks"))]
        let _ = (sink_wm, enforce_floor);
        shared.count.fetch_add(1, Ordering::Relaxed);
        if t.wall > 0 && *n % shared.stride as u64 == 0 {
            let now = epoch.elapsed().as_nanos() as u64;
            shared.latencies_ns.lock().push(now.saturating_sub(t.wall));
        }
        if shared.mode == SinkMode::Collect {
            shared.tuples.lock().push(t);
        }
    };
    // Column-path delivery: one atomic add per batch; rows are
    // materialized only in Collect mode. Reads the batch by reference so
    // shared fan-out batches are consumed without a clone.
    let sink_batch = |b: &ColumnarBatch, n: &mut u64, sink_wm: Timestamp, enforce_floor: bool| {
        #[cfg(not(feature = "invariant-checks"))]
        let _ = (sink_wm, enforce_floor);
        shared.count.fetch_add(b.len() as u64, Ordering::Relaxed);
        for i in 0..b.len() {
            *n += 1;
            #[cfg(feature = "invariant-checks")]
            assert!(
                !enforce_floor || b.ts[i] >= sink_wm,
                "invariant violation: sink received tuple at {:?} behind merged watermark {sink_wm:?}",
                b.ts[i]
            );
            if b.wall[i] > 0 && *n % shared.stride as u64 == 0 {
                let now = epoch.elapsed().as_nanos() as u64;
                shared
                    .latencies_ns
                    .lock()
                    .push(now.saturating_sub(b.wall[i]));
            }
            if shared.mode == SinkMode::Collect {
                shared.tuples.lock().push(b.tuple_at(i));
            }
        }
    };
    let mut rounds: u64 = 0;
    loop {
        if abort.load(Ordering::Relaxed) {
            break;
        }
        let env = match rx.recv_timeout(StdDuration::from_millis(20)) {
            Ok(env) => env,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // Strided inbox-depth observation: one channel-lock acquisition
        // per 64 envelopes keeps the gauge off the per-message path.
        rounds += 1;
        if rounds % 64 == 0 {
            istats.note_queue_depth(rx.len());
        }
        // The emission-floor contract only binds operator tasks; a port
        // whose upstream is a source task may carry late tuples (see
        // `sink_one`).
        let enforce_floor = !layout[env.port as usize].2;
        match env.msg {
            Message::Tuple(t) => sink_one(t, &mut n, sink_wm, enforce_floor),
            Message::Batch(ts) => {
                for t in ts {
                    sink_one(t, &mut n, sink_wm, enforce_floor);
                }
            }
            Message::Columnar(b) => sink_batch(&b, &mut n, sink_wm, enforce_floor),
            Message::Shared(b) => sink_batch(&b, &mut n, sink_wm, enforce_floor),
            Message::Watermark(ts) => {
                table.update(env.port as usize, env.chan as usize, ts);
                let m = table.min();
                if m > sink_wm {
                    sink_wm = m;
                }
            }
            // Shard protocol traffic never reaches sinks (sinks are not
            // sharded); tolerate it rather than crash a teardown race.
            Message::ShardMarker { .. } | Message::ShardHandoff(_) => {}
            Message::End => {
                table.end(env.port as usize, env.chan as usize);
                if table.all_ended() {
                    break;
                }
            }
        }
    }
    istats.note_queue_depth(rx.len());
    istats.records_in.fetch_add(n, Ordering::Relaxed);
}
