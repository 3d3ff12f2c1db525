//! The virtual world: an explicit-state model of the shard-migration
//! protocol that reuses the *real* [`ShardPlan`] and the *real*
//! [`Operator`] implementations, replacing only threads and channels with
//! explicitly scheduled transitions.
//!
//! Fidelity notes (what maps to what in `asp::runtime`):
//!
//! * A **sender** models one upstream source pipeline's `Route` to the
//!   sharded node: cached slot table, `seen_version`, watermark freeze and
//!   the frozen-watermark stash (`RouteShard`). Every sender act first runs
//!   the shard observation (`observe_shard_cold`) exactly like the real
//!   buffering/flush path — thaw first, then marker broadcast + freeze on a
//!   new version. Batching is modeled at batch size 1.
//! * An **instance** models one shard worker: the per-(port, channel)
//!   watermark table, merged-clock firing, per-channel late-drop, and the
//!   receiver-side migration state (`ShardCtx`): marker need-set, stash,
//!   parked handoff, deferred Ends.
//! * A **queue** models one sender→instance mpsc lane (FIFO), plus one
//!   extra lane per instance for sibling handoff payloads.
//! * **Publish** drives the real [`ShardPlan::begin_migration`] with a
//!   scripted migration instead of the traffic heuristics, so the sim
//!   checks the protocol, not the rebalancing policy.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::event::{Event, EventType};
use crate::operator::{cross_join, IntervalBounds, IntervalJoinOp, Operator, VecCollector};
use crate::runtime::shard::{slot_of, ShardPlan};
use crate::time::{Duration, Timestamp};
use crate::tuple::{TsRule, Tuple};
use crate::window::SlidingWindows;

/// One scripted action of a sender (an upstream source pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderAct {
    /// Emit a keyed tuple with the given event-time (minutes).
    Tuple {
        /// Partition key (also the event id).
        key: u64,
        /// Event time, in minutes.
        ts_min: i64,
    },
    /// Emit a punctuation watermark (minutes). Must be non-decreasing per
    /// sender, and no later tuple of the same sender may carry a smaller
    /// timestamp (the validated no-late-input regime in which shard-count
    /// invariance is exact — see `tests/shard_oracle.rs`).
    Watermark {
        /// Watermark position, in minutes.
        ts_min: i64,
    },
    /// End of stream; must be each script's final act.
    End,
}

/// Which stateful operator the sharded node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpSpec {
    /// Keyed sliding-window join (tumbling when `slide == size`).
    WindowJoin {
        /// Window size in minutes.
        size_min: i64,
        /// Window slide in minutes.
        slide_min: i64,
    },
    /// Keyed interval join with symmetric (conjunction) bounds.
    IntervalJoin {
        /// Half-width of the symmetric interval, in minutes.
        span_min: i64,
    },
}

impl OpSpec {
    fn build(&self) -> Box<dyn Operator> {
        match *self {
            OpSpec::WindowJoin {
                size_min,
                slide_min,
            } => Box::new(IntervalJoinOp::sliding(
                "⋈",
                SlidingWindows::new(
                    Duration::from_minutes(size_min),
                    Duration::from_minutes(slide_min),
                ),
                cross_join(),
                TsRule::Max,
            )),
            OpSpec::IntervalJoin { span_min } => Box::new(IntervalJoinOp::new(
                "i⋈",
                IntervalBounds::conjunction(Duration::from_minutes(span_min)),
                cross_join(),
                TsRule::Max,
            )),
        }
    }
}

/// One scripted migration, published in order by the `Publish` transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationSpec {
    /// The key whose slot moves (the whole slot migrates, as in the real
    /// rebalancer).
    pub key: u64,
    /// Destination instance.
    pub to: usize,
}

/// Deliberately seeded protocol bugs, for validating that the explorer
/// actually catches interleaving-dependent defects (and for nothing else —
/// the real runtime has no such flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedBug {
    /// The migration target drops its stash instead of replaying it after
    /// absorbing the handoff: post-cut-over tuples for the in-flight slot
    /// are silently lost on schedules where any were stashed.
    SkipStashReplay,
    /// `End`s promote the watermark table immediately even while a
    /// migration is tracked, instead of deferring to resolution: the
    /// extract/absorb clocks can diverge and the instance can finish with
    /// the migration still in flight.
    EagerEndPromotion,
}

/// A small, bounded scenario for the explorer.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Name used in reports and replay files.
    pub name: String,
    /// Shard instance count of the modeled node (2–4).
    pub instances: usize,
    /// The stateful operator under test.
    pub op: OpSpec,
    /// One script per input port (exactly 2: the join's left and right).
    pub senders: Vec<Vec<SenderAct>>,
    /// Scripted migrations, published serially by `Publish` transitions.
    pub migrations: Vec<MigrationSpec>,
    /// Optional seeded protocol bug (test-only).
    pub seed_bug: Option<SeedBug>,
}

impl SimConfig {
    /// Number of input ports (= sender count; one channel per port).
    pub fn ports(&self) -> usize {
        self.senders.len()
    }

    /// Check the scenario is well-formed for exact shard-count invariance:
    /// small bounds, terminated scripts, per-sender monotone watermarks,
    /// and no late input (every tuple at or above its sender's running
    /// watermark — freezes then only *delay* lateness verdicts, never flip
    /// one, so the single-instance oracle is schedule-invariant).
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=4).contains(&self.instances) {
            return Err(format!("instances must be 2–4, got {}", self.instances));
        }
        if self.senders.len() != 2 {
            return Err(format!(
                "exactly 2 sender scripts required (join ports), got {}",
                self.senders.len()
            ));
        }
        let mut tuples = 0usize;
        for (s, script) in self.senders.iter().enumerate() {
            if script.last() != Some(&SenderAct::End) {
                return Err(format!("sender {s}: script must end with End"));
            }
            let mut wm = i64::MIN;
            for (k, act) in script.iter().enumerate() {
                match *act {
                    SenderAct::End if k + 1 != script.len() => {
                        return Err(format!("sender {s}: End before end of script"));
                    }
                    SenderAct::End => {}
                    SenderAct::Watermark { ts_min } => {
                        if ts_min < wm {
                            return Err(format!("sender {s}: watermark regresses at act {k}"));
                        }
                        wm = ts_min;
                    }
                    SenderAct::Tuple { key, ts_min } => {
                        if ts_min < wm {
                            return Err(format!(
                                "sender {s}: late tuple at act {k} (ts {ts_min}m < wm {wm}m)"
                            ));
                        }
                        if key > u64::from(u32::MAX) {
                            return Err(format!("sender {s}: key {key} exceeds u32 id space"));
                        }
                        tuples += 1;
                    }
                }
            }
        }
        if tuples > 8 {
            return Err(format!(
                "at most 8 tuples keep the state space bounded, got {tuples}"
            ));
        }
        if self.migrations.len() > 2 {
            return Err(format!(
                "at most 2 migrations, got {}",
                self.migrations.len()
            ));
        }
        // Replay the scripted publishes against the initial round-robin
        // placement: each must actually change its slot's owner.
        let mut owner: Vec<usize> = (0..crate::runtime::shard::SHARD_SLOTS)
            .map(|s| s % self.instances)
            .collect();
        for (k, m) in self.migrations.iter().enumerate() {
            if m.to >= self.instances {
                return Err(format!("migration {k}: target {} out of range", m.to));
            }
            let slot = slot_of(m.key);
            if owner[slot] == m.to {
                return Err(format!(
                    "migration {k}: key {} already owned by instance {}",
                    m.key, m.to
                ));
            }
            owner[slot] = m.to;
        }
        Ok(())
    }
}

/// One step of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Transition {
    /// Sender `s` executes its next scripted act (observing the shard
    /// table first, like the real buffering path).
    Sender(usize),
    /// Instance `instance` receives the head message of `lane` (lanes
    /// `0..ports` are the per-sender channels; lane `ports` is the sibling
    /// handoff lane).
    Deliver {
        /// Receiving shard instance.
        instance: usize,
        /// Input lane (see above).
        lane: usize,
    },
    /// The rebalancer publishes the next scripted migration.
    Publish,
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Transition::Sender(s) => write!(f, "S{s}"),
            Transition::Deliver { instance, lane } => write!(f, "D{instance}.{lane}"),
            Transition::Publish => write!(f, "P"),
        }
    }
}

/// A sink row canonicalized for multiset comparison: key, working
/// timestamp, and the constituent events.
pub type CanonRow = (u64, i64, Vec<(u16, u32, i64)>);

/// One in-flight message (the sim's `Message` mirror; handoffs carry the
/// source's op-log hash so state deduplication stays sound).
enum Msg {
    Tuple(Tuple),
    Wm(Timestamp),
    Marker(u64),
    Handoff {
        version: u64,
        slot: usize,
        state: Box<dyn std::any::Any + Send>,
        src_oplog: u64,
    },
    End,
}

/// Sender-side route state (mirror of `RouteShard`).
struct SenderState {
    script: VecDeque<SenderAct>,
    cached_slots: Vec<u32>,
    seen_version: u64,
    frozen: bool,
    frozen_wm: Option<Timestamp>,
    ended: bool,
}

/// Receiver-side instance state (mirror of one shard worker's
/// `WatermarkTable` + `ShardCtx` + operator harness locals).
struct Inst {
    op: Box<dyn Operator>,
    /// wm\[port\] (single channel per port).
    wm: Vec<Timestamp>,
    ended: Vec<bool>,
    current_wm: Timestamp,
    forwarded: Timestamp,
    pending: Option<(crate::runtime::shard::Migration, BTreeSet<(usize, usize)>)>,
    stash: Vec<(usize, Tuple)>,
    parked: Option<(u64, usize, Box<dyn std::any::Any + Send>, u64)>,
    deferred_ends: Vec<(usize, usize)>,
    finished: bool,
    late: u64,
    /// Rolling hash over every state-mutating interaction with `op` (and
    /// the stash): two worlds with equal op-logs hold equal operator
    /// state, which is what makes state-hash merging sound without
    /// cloneable operators.
    oplog: u64,
}

impl Inst {
    fn live(&self) -> usize {
        self.ended.iter().filter(|e| !**e).count()
    }

    fn table_min(&self) -> Timestamp {
        self.wm.iter().copied().min().unwrap_or(Timestamp::MAX)
    }

    fn markers_complete(&self) -> bool {
        self.pending
            .as_ref()
            .is_some_and(|(_, need)| need.is_empty())
    }

    fn should_stash(&self, me: usize, key: u64) -> bool {
        self.pending
            .as_ref()
            .is_some_and(|(m, _)| m.to == me && slot_of(key) == m.slot)
    }

    fn log(&mut self, tag: u64, a: u64, b: u64, c: u64) {
        let mut h = DefaultHasher::new();
        (self.oplog, tag, a, b, c).hash(&mut h);
        self.oplog = h.finish();
    }
}

/// The complete explicit state of one scheduled run.
pub struct World {
    cfg: Arc<SimConfig>,
    plan: Arc<ShardPlan>,
    instances: usize,
    senders: Vec<SenderState>,
    /// queues\[instance\]\[lane\]; lane `ports` is the handoff lane.
    queues: Vec<Vec<VecDeque<Msg>>>,
    insts: Vec<Inst>,
    published: usize,
    sink: Vec<CanonRow>,
    trace: String,
}

impl World {
    /// Fresh world. `single` builds the 1-instance oracle twin (same
    /// scripts, no migrations).
    pub fn new(cfg: Arc<SimConfig>, single: bool) -> Self {
        let instances = if single { 1 } else { cfg.instances };
        let ports = cfg.ports();
        let plan = ShardPlan::new(instances);
        plan.set_migratable(true);
        let slots = plan.snapshot_slots();
        World {
            senders: cfg
                .senders
                .iter()
                .map(|script| SenderState {
                    script: script.iter().copied().collect(),
                    cached_slots: slots.clone(),
                    seen_version: 0,
                    frozen: false,
                    frozen_wm: None,
                    ended: false,
                })
                .collect(),
            queues: (0..instances)
                .map(|_| (0..=ports).map(|_| VecDeque::new()).collect())
                .collect(),
            insts: (0..instances)
                .map(|_| Inst {
                    op: cfg.op.build(),
                    wm: vec![Timestamp::MIN; ports],
                    ended: vec![false; ports],
                    current_wm: Timestamp::MIN,
                    forwarded: Timestamp::MIN,
                    pending: None,
                    stash: Vec::new(),
                    parked: None,
                    deferred_ends: Vec::new(),
                    finished: false,
                    late: 0,
                    oplog: 0,
                })
                .collect(),
            published: 0,
            sink: Vec::new(),
            trace: String::new(),
            instances,
            plan,
            cfg,
        }
    }

    /// The run's human-readable event log (deterministic per schedule; the
    /// replay round-trip asserts byte identity).
    pub fn trace(&self) -> &str {
        &self.trace
    }

    /// Sink rows so far, canonicalized and sorted (multiset semantics).
    pub fn sink_sorted(&self) -> Vec<CanonRow> {
        let mut v = self.sink.clone();
        v.sort();
        v
    }

    /// Enabled transitions in deterministic order: senders, then deliveries
    /// (instance-major, lane ascending), then publish.
    ///
    /// `Publish` is enabled only while the plan is idle (the real
    /// serialization gate) *and* some sender is still live — a published
    /// migration is then guaranteed to resolve, because every remaining
    /// sender act (including `End`) observes the new version first.
    pub fn enabled(&self) -> Vec<Transition> {
        let mut out = Vec::new();
        for (s, st) in self.senders.iter().enumerate() {
            if !st.script.is_empty() {
                out.push(Transition::Sender(s));
            }
        }
        for (i, lanes) in self.queues.iter().enumerate() {
            for (lane, q) in lanes.iter().enumerate() {
                if !q.is_empty() {
                    out.push(Transition::Deliver { instance: i, lane });
                }
            }
        }
        if self.published < self.cfg.migrations.len()
            && self.plan.completed() == self.plan.version()
            && self.senders.iter().any(|s| !s.ended)
        {
            out.push(Transition::Publish);
        }
        out
    }

    /// Whether the run is complete: every script consumed, every queue
    /// drained, every instance finished.
    pub fn done(&self) -> bool {
        self.senders.iter().all(|s| s.script.is_empty())
            && self.queues.iter().flatten().all(|q| q.is_empty())
            && self.insts.iter().all(|i| i.finished)
    }

    /// Execute one transition. `Err` is a protocol-invariant violation (or
    /// a corrupt replay schedule); the world must be discarded afterwards.
    pub fn step(&mut self, t: Transition) -> Result<(), String> {
        match t {
            Transition::Sender(s) => self.sender_step(s),
            Transition::Deliver { instance, lane } => self.deliver(instance, lane),
            Transition::Publish => self.publish(),
        }
    }

    fn tr(&mut self, line: String) {
        self.trace.push_str(&line);
        self.trace.push('\n');
    }

    /// Mirror of the sender-side `observe_shard_cold`: thaw first (release
    /// the withheld watermark), then on a new version flush + broadcast
    /// markers + refresh the cached table + freeze.
    fn observe_shard(&mut self, s: usize) {
        if self.senders[s].frozen && self.plan.completed() >= self.senders[s].seen_version {
            self.senders[s].frozen = false;
            if let Some(wm) = self.senders[s].frozen_wm.take() {
                self.tr(format!("S{s} thaw: releases wm={}m", wm.millis() / 60_000));
                self.broadcast_wm(s, wm);
            } else {
                self.tr(format!("S{s} thaw"));
            }
        }
        let v = self.plan.version();
        if v != self.senders[s].seen_version && !self.senders[s].frozen {
            for i in 0..self.instances {
                self.queues[i][s].push_back(Msg::Marker(v));
            }
            self.senders[s].cached_slots = self.plan.snapshot_slots();
            self.senders[s].seen_version = v;
            self.senders[s].frozen = true;
            self.tr(format!(
                "S{s} observes v{v}: markers broadcast, route frozen"
            ));
        }
    }

    fn broadcast_wm(&mut self, s: usize, wm: Timestamp) {
        for i in 0..self.instances {
            self.queues[i][s].push_back(Msg::Wm(wm));
        }
    }

    fn sender_step(&mut self, s: usize) -> Result<(), String> {
        let Some(act) = self.senders[s].script.pop_front() else {
            return Err(format!("schedule step S{s}: script exhausted"));
        };
        self.observe_shard(s);
        match act {
            SenderAct::Tuple { key, ts_min } => {
                let ts = Timestamp::from_minutes(ts_min);
                let dest = self.senders[s].cached_slots[slot_of(key)] as usize;
                #[allow(clippy::cast_possible_truncation)]
                let e = Event::new(EventType(s as u16), key as u32, ts, ts_min as f64);
                self.queues[dest][s].push_back(Msg::Tuple(Tuple::from_event(e)));
                self.tr(format!("S{s} tuple key={key} ts={ts_min}m -> i{dest}"));
            }
            SenderAct::Watermark { ts_min } => {
                let ts = Timestamp::from_minutes(ts_min);
                if self.senders[s].frozen {
                    let cur = self.senders[s].frozen_wm;
                    self.senders[s].frozen_wm = Some(cur.map_or(ts, |p| p.max(ts)));
                    self.tr(format!("S{s} wm={ts_min}m stashed (route frozen)"));
                } else {
                    self.broadcast_wm(s, ts);
                    self.tr(format!("S{s} wm={ts_min}m"));
                }
            }
            SenderAct::End => {
                for i in 0..self.instances {
                    self.queues[i][s].push_back(Msg::End);
                }
                self.senders[s].ended = true;
                self.tr(format!("S{s} end"));
            }
        }
        Ok(())
    }

    fn publish(&mut self) -> Result<(), String> {
        let Some(spec) = self.cfg.migrations.get(self.published).copied() else {
            return Err("schedule step P: no migration left to publish".to_string());
        };
        let slot = slot_of(spec.key);
        if !self.plan.begin_migration(slot, spec.to) {
            return Err("schedule step P: publish refused (migration in flight)".to_string());
        }
        self.published += 1;
        let m = self
            .plan
            .migration()
            .ok_or("published migration missing from registry")?;
        self.tr(format!(
            "P v{} slot {} : i{} -> i{}",
            m.version, m.slot, m.from, m.to
        ));
        Ok(())
    }

    /// Append the collector's emissions to the global sink; returns count.
    fn drain(&mut self, col: VecCollector) -> usize {
        let n = col.out.len();
        for t in col.out {
            self.sink.push((
                t.key,
                t.ts.millis(),
                t.events
                    .iter()
                    .map(|e| (e.etype.0, e.id, e.ts.millis()))
                    .collect(),
            ));
        }
        n
    }

    fn deliver(&mut self, i: usize, lane: usize) -> Result<(), String> {
        let Some(msg) = self.queues[i][lane].pop_front() else {
            return Err(format!("schedule step D{i}.{lane}: lane empty"));
        };
        if self.insts[i].finished {
            return Err(format!(
                "protocol violation: message delivered to finished instance i{i}"
            ));
        }
        let bug = self.cfg.seed_bug;
        match msg {
            Msg::Tuple(t) => {
                let inst = &mut self.insts[i];
                if t.ts < inst.wm[lane] {
                    // Validated configs have no late input in any schedule;
                    // a late verdict here is itself a protocol divergence.
                    inst.late += 1;
                    return Err(format!(
                        "protocol violation: tuple key={} ts={}m late on i{i} port {lane}",
                        t.key,
                        t.ts.millis() / 60_000
                    ));
                }
                if inst.should_stash(i, t.key) {
                    inst.log(1, lane as u64, t.key, t.ts.millis() as u64);
                    let line = format!(
                        "D{i}.{lane} tuple key={} ts={}m stashed",
                        t.key,
                        t.ts.millis() / 60_000
                    );
                    inst.stash.push((lane, t));
                    self.tr(line);
                    return Ok(());
                }
                inst.log(2, lane as u64, t.key, t.ts.millis() as u64);
                let (key, ts) = (t.key, t.ts.millis() / 60_000);
                let mut col = VecCollector::default();
                self.insts[i]
                    .op
                    .process(lane, t, &mut col)
                    .map_err(|e| format!("operator error on i{i}: {e}"))?;
                let n = self.drain(col);
                self.tr(format!("D{i}.{lane} tuple key={key} ts={ts}m +{n}"));
            }
            Msg::Wm(ts) => {
                let inst = &mut self.insts[i];
                if inst.ended[lane] {
                    return Err(format!(
                        "protocol violation: watermark after End on i{i} port {lane}"
                    ));
                }
                if ts < inst.wm[lane] {
                    return Err(format!(
                        "protocol violation: channel watermark regressed on i{i} port {lane} \
                         ({}m < {}m)",
                        ts.millis() / 60_000,
                        inst.wm[lane].millis() / 60_000
                    ));
                }
                inst.wm[lane] = ts;
                let n = self.promote_clock(i)?;
                self.tr(format!("D{i}.{lane} wm={}m +{n}", ts.millis() / 60_000));
            }
            Msg::Marker(v) => {
                self.begin_tracking(i, v);
                if let Some((m, need)) = &mut self.insts[i].pending {
                    if m.version == v {
                        need.remove(&(lane, 0));
                    }
                }
                self.tr(format!("D{i}.{lane} marker v{v}"));
                self.shard_progress(i)?;
            }
            Msg::Handoff {
                version,
                slot,
                state,
                src_oplog,
            } => {
                self.begin_tracking(i, version);
                self.insts[i].parked = Some((version, slot, state, src_oplog));
                self.tr(format!("D{i}.{lane} handoff v{version} slot {slot} parked"));
                self.shard_progress(i)?;
            }
            Msg::End => {
                let eager = bug == Some(SeedBug::EagerEndPromotion);
                if self.insts[i].pending.is_some() && !eager {
                    self.insts[i].deferred_ends.push((lane, 0));
                    if let Some((_, need)) = &mut self.insts[i].pending {
                        need.remove(&(lane, 0));
                    }
                    self.tr(format!("D{i}.{lane} end deferred (migration tracked)"));
                    self.shard_progress(i)?;
                } else {
                    if eager && self.insts[i].pending.is_some() {
                        // Seeded bug: satisfy the marker need-set but
                        // promote the table immediately anyway.
                        if let Some((_, need)) = &mut self.insts[i].pending {
                            need.remove(&(lane, 0));
                        }
                    }
                    let inst = &mut self.insts[i];
                    if !inst.ended[lane] {
                        inst.ended[lane] = true;
                        inst.wm[lane] = Timestamp::MAX;
                    }
                    let n = self.finish_or_promote(i)?;
                    self.tr(format!("D{i}.{lane} end +{n}"));
                    if eager {
                        self.shard_progress(i)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Mirror of `ShardCtx::begin_tracking`.
    fn begin_tracking(&mut self, i: usize, version: u64) {
        if self.insts[i].pending.is_some() || version <= self.plan.completed() {
            return;
        }
        let Some(mig) = self.plan.migration() else {
            return;
        };
        if mig.version != version {
            return;
        }
        let need: BTreeSet<(usize, usize)> = self.insts[i]
            .ended
            .iter()
            .enumerate()
            .filter(|(_, ended)| !**ended)
            .map(|(port, _)| (port, 0))
            .collect();
        self.insts[i].pending = Some((mig, need));
    }

    /// Merged-clock promotion after a watermark update (mirror of the
    /// `Message::Watermark` arm). Returns emitted-row count.
    fn promote_clock(&mut self, i: usize) -> Result<usize, String> {
        let m = self.insts[i].table_min();
        if m > self.insts[i].current_wm {
            self.insts[i].current_wm = m;
            self.insts[i].log(3, m.millis() as u64, 0, 0);
            let mut col = VecCollector::default();
            let f = self.insts[i]
                .op
                .on_watermark(m, &mut col)
                .map_err(|e| format!("operator error on i{i}: {e}"))?
                .min(m);
            if f > self.insts[i].forwarded {
                self.insts[i].forwarded = f;
            }
            return Ok(self.drain(col));
        }
        Ok(0)
    }

    /// End-path clock promotion + finish (mirror of the `Message::End`
    /// arm's tail). Returns emitted-row count.
    fn finish_or_promote(&mut self, i: usize) -> Result<usize, String> {
        let mut n = 0;
        let m = self.insts[i].table_min();
        let all_ended = self.insts[i].live() == 0;
        if !all_ended && m > self.insts[i].current_wm && m < Timestamp::MAX {
            self.insts[i].current_wm = m;
            self.insts[i].log(3, m.millis() as u64, 0, 0);
            let mut col = VecCollector::default();
            let f = self.insts[i]
                .op
                .on_watermark(m, &mut col)
                .map_err(|e| format!("operator error on i{i}: {e}"))?
                .min(m);
            if f > self.insts[i].forwarded {
                self.insts[i].forwarded = f;
            }
            n += self.drain(col);
        }
        if all_ended {
            self.insts[i].log(4, 0, 0, 0);
            let mut col = VecCollector::default();
            self.insts[i]
                .op
                .on_finish(&mut col)
                .map_err(|e| format!("operator error on i{i}: {e}"))?;
            n += self.drain(col);
            self.insts[i].finished = true;
        }
        Ok(n)
    }

    /// Mirror of `shard_progress`: drive the tracked migration forward
    /// after a marker/End/handoff event.
    fn shard_progress(&mut self, i: usize) -> Result<(), String> {
        if !self.insts[i].markers_complete() {
            return Ok(());
        }
        let Some((mig, need)) = self.insts[i].pending.take() else {
            return Ok(());
        };
        if mig.from == i {
            let slot = mig.slot;
            let Some(state) = self.insts[i].op.extract_shard(&move |k| slot_of(k) == slot) else {
                return Err(format!(
                    "protocol violation: i{i} migrated but operator lacks extract_shard"
                ));
            };
            self.insts[i].log(5, mig.version, slot as u64, 0);
            let src_oplog = self.insts[i].oplog;
            let ports = self.cfg.ports();
            self.queues[mig.to][ports].push_back(Msg::Handoff {
                version: mig.version,
                slot,
                state,
                src_oplog,
            });
            self.tr(format!(
                "i{i} extracts slot {} -> handoff to i{}",
                slot, mig.to
            ));
        } else if mig.to == i {
            let Some((version, slot, state, src_oplog)) = self.insts[i].parked.take() else {
                // Markers complete but the state is still in flight: keep
                // tracking (and keep deferring Ends) until it arrives.
                self.insts[i].pending = Some((mig, need));
                return Ok(());
            };
            if version != mig.version || slot != mig.slot {
                return Err(format!(
                    "protocol violation: handoff v{version}/slot {slot} mismatches \
                     migration v{}/slot {}",
                    mig.version, mig.slot
                ));
            }
            self.insts[i]
                .op
                .absorb_shard(state)
                .map_err(|e| format!("operator error on i{i}: {e}"))?;
            self.insts[i].log(6, version, slot as u64, src_oplog);
            let stash = std::mem::take(&mut self.insts[i].stash);
            let replayed = stash.len();
            if self.cfg.seed_bug == Some(SeedBug::SkipStashReplay) {
                self.tr(format!(
                    "i{i} absorbs slot {slot} [BUG: drops {replayed} stashed]"
                ));
            } else {
                let mut n = 0;
                for (port, t) in stash {
                    self.insts[i].log(2, port as u64, t.key, t.ts.millis() as u64);
                    let mut col = VecCollector::default();
                    self.insts[i]
                        .op
                        .process(port, t, &mut col)
                        .map_err(|e| format!("operator error on i{i}: {e}"))?;
                    n += self.drain(col);
                }
                self.tr(format!(
                    "i{i} absorbs slot {slot}, replays {replayed} stashed +{n}"
                ));
            }
            self.plan.complete(mig.version);
            self.tr(format!("i{i} completes v{}", mig.version));
        } else {
            self.tr(format!("i{i} stops tracking v{} (bystander)", mig.version));
        }
        // Resolution (all roles): promote deferred Ends, fire at the
        // recomputed merged clock.
        let deferred = std::mem::take(&mut self.insts[i].deferred_ends);
        for (port, _) in deferred {
            let inst = &mut self.insts[i];
            if !inst.ended[port] {
                inst.ended[port] = true;
                inst.wm[port] = Timestamp::MAX;
            }
        }
        let n = self.finish_or_promote(i)?;
        if n > 0 {
            self.tr(format!("i{i} fires at resolution +{n}"));
        }
        Ok(())
    }

    /// Protocol invariants at a completed run, vs. the single-shard oracle.
    pub fn final_check(&self, oracle: &[CanonRow]) -> Result<(), String> {
        for (i, inst) in self.insts.iter().enumerate() {
            if !inst.stash.is_empty() {
                return Err(format!(
                    "stash not drained: {} tuple(s) left on i{i}",
                    inst.stash.len()
                ));
            }
            if inst.parked.is_some() {
                return Err(format!("handoff never absorbed on i{i}"));
            }
            if inst.pending.is_some() {
                return Err(format!("migration still tracked on i{i} at end of run"));
            }
            if !inst.deferred_ends.is_empty() {
                return Err(format!("deferred Ends never promoted on i{i}"));
            }
            if inst.late > 0 {
                return Err(format!(
                    "{} late drop(s) on i{i} (oracle has none)",
                    inst.late
                ));
            }
        }
        if self.plan.completed() != self.plan.version() {
            return Err(format!(
                "placement versions did not converge (completed {} != version {})",
                self.plan.completed(),
                self.plan.version()
            ));
        }
        let got = self.sink_sorted();
        if got != oracle {
            return Err(format!(
                "sink diverges from single-shard oracle: got {} row(s), expected {}",
                got.len(),
                oracle.len()
            ));
        }
        Ok(())
    }

    /// Hash of the complete observable state (operator state represented
    /// by per-instance op-log hashes). Two worlds with equal hashes have
    /// equal futures and equal final-check outcomes, so the explorer can
    /// merge them.
    pub fn state_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for s in &self.senders {
            (
                s.script.len(),
                s.seen_version,
                s.frozen,
                s.frozen_wm.map(|t| t.millis()),
                s.ended,
            )
                .hash(&mut h);
        }
        for lanes in &self.queues {
            for q in lanes {
                q.len().hash(&mut h);
                for m in q {
                    match m {
                        Msg::Tuple(t) => (0u8, t.key, t.ts.millis()).hash(&mut h),
                        Msg::Wm(ts) => (1u8, ts.millis()).hash(&mut h),
                        Msg::Marker(v) => (2u8, *v).hash(&mut h),
                        Msg::Handoff {
                            version,
                            slot,
                            src_oplog,
                            ..
                        } => (3u8, *version, *slot, *src_oplog).hash(&mut h),
                        Msg::End => 4u8.hash(&mut h),
                    }
                }
            }
        }
        (
            self.plan.version(),
            self.plan.completed(),
            self.plan.snapshot_slots(),
            self.published,
        )
            .hash(&mut h);
        for inst in &self.insts {
            (
                inst.wm.iter().map(|t| t.millis()).collect::<Vec<_>>(),
                &inst.ended,
                inst.current_wm.millis(),
                inst.forwarded.millis(),
                inst.finished,
                inst.late,
                inst.oplog,
            )
                .hash(&mut h);
            match &inst.pending {
                None => 0u8.hash(&mut h),
                Some((m, need)) => {
                    (1u8, m.version, m.slot, m.from, m.to).hash(&mut h);
                    for pc in need {
                        pc.hash(&mut h);
                    }
                }
            }
            inst.stash.len().hash(&mut h);
            for (port, t) in &inst.stash {
                (port, t.key, t.ts.millis()).hash(&mut h);
            }
            match &inst.parked {
                None => 0u8.hash(&mut h),
                Some((v, slot, _, src)) => (1u8, v, slot, src).hash(&mut h),
            }
            inst.deferred_ends.hash(&mut h);
        }
        h.finish()
    }

    /// Conservative independence of two enabled transitions *in this
    /// state* (for sleep-set pruning): both must commute at the state
    /// level. Only claimed when the plan is idle, neither is `Publish`,
    /// deliveries land on distinct migration-free instances with plain
    /// message heads, and senders are cold (no thaw/marker side effects).
    pub fn independent(&self, a: Transition, b: Transition) -> bool {
        if self.plan.completed() != self.plan.version() {
            return false;
        }
        let plain = |t: Transition| -> bool {
            match t {
                Transition::Publish => false,
                Transition::Sender(s) => {
                    let st = &self.senders[s];
                    !st.frozen && st.seen_version == self.plan.version()
                }
                Transition::Deliver { instance, lane } => {
                    lane < self.cfg.ports()
                        && self.insts[instance].pending.is_none()
                        && matches!(
                            self.queues[instance][lane].front(),
                            Some(Msg::Tuple(_) | Msg::Wm(_) | Msg::End)
                        )
                }
            }
        };
        if !plain(a) || !plain(b) {
            return false;
        }
        match (a, b) {
            (
                Transition::Deliver { instance: i1, .. },
                Transition::Deliver { instance: i2, .. },
            ) => i1 != i2,
            // Sender×Sender push to disjoint lanes; Sender×Deliver is a
            // tail-push against a head-pop of a non-empty queue.
            _ => a != b,
        }
    }
}

/// Run the 1-instance oracle twin under a canonical schedule (drain
/// deliveries first, then advance the lowest-index live sender) and return
/// its sorted sink. In the validated no-late-input regime this multiset is
/// schedule-invariant, so any deterministic schedule defines the reference.
pub fn oracle_sink(cfg: &Arc<SimConfig>) -> Result<Vec<CanonRow>, String> {
    let mut w = World::new(Arc::clone(cfg), true);
    loop {
        let enabled = w.enabled();
        let Some(t) = enabled
            .iter()
            .find(|t| matches!(t, Transition::Deliver { .. }))
            .or_else(|| enabled.first())
            .copied()
        else {
            break;
        };
        w.step(t)?;
    }
    if !w.done() {
        return Err("oracle run did not complete".to_string());
    }
    Ok(w.sink_sorted())
}
