//! Shared-nothing key sharding with adaptive hot-slot rebalancing.
//!
//! A node marked [`crate::graph::GraphBuilder::shard_node`] runs as `N`
//! *shard workers*: ordinary operator instances that each own a disjoint
//! set of key *slots*. Keys hash into [`SHARD_SLOTS`] fixed slots
//! ([`slot_of`]), and a shared [`ShardPlan`] maps each slot to its owning
//! shard instance. Senders route through a cached copy of that table, so
//! the steady-state tuple path costs one array index more than plain hash
//! partitioning.
//!
//! ## Migration protocol
//!
//! The rebalancer moves one slot at a time, drain → handoff → redirect:
//!
//! 1. **Publish.** The rebalancer records the [`Migration`] in the plan's
//!    registry, flips the slot's table entry to the target shard, and bumps
//!    `version` (registry strictly before version, so an observer of the
//!    new version always finds the migration).
//! 2. **Drain + cut over.** Each sender observes the new version at its
//!    next buffering/flush call, flushes everything routed under the *old*
//!    table, broadcasts [`super::Message::ShardMarker`] to every
//!    destination instance, refreshes its cached table, and **freezes
//!    watermark emission** on that route until the migration completes
//!    (deferring a watermark is always safe — it is a lower-bound
//!    promise). Channel FIFO then gives every receiver the same per-channel
//!    prefix of tuples *and watermarks* up to the marker, and nothing
//!    after it.
//! 3. **Handoff.** When the source shard has seen the marker (or `End`) on
//!    every live input channel, its per-key state for the slot can no
//!    longer grow: it extracts the slot's operator state
//!    ([`crate::operator::Operator::extract_shard`]) and sends it to the
//!    target instance's inbox as [`super::Message::ShardHandoff`].
//! 4. **Absorb + redirect.** The target stashes post-marker tuples for the
//!    in-flight slot (their late-drop verdicts are decided at arrival, so
//!    replay order equals arrival order), and absorbs the handoff only
//!    once *it* has seen the marker on every live channel too. At that
//!    point both sides have identical per-channel watermark tables — the
//!    frozen pre-marker values — hence identical merged clocks, so the
//!    handoff composes without loss or duplication (see
//!    `IntervalJoinOp::absorb_shard`: the join keeps no firing cursor, so
//!    its buffered runs are its whole state).
//!    It then replays the stash in arrival order and marks the migration
//!    `completed`, which unfreezes the senders' watermarks.
//!
//! Migrations are fully serialized per plan (`completed == version` gates
//! the next one), and a slot maps to exactly one shard at every version,
//! so per-key delivery stays in order end to end.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use parking_lot::Mutex;

/// Number of fixed key slots per sharded node. Keys hash into slots and
/// slots map to shards, so the rebalancer moves key *groups* with a bounded
/// table instead of tracking individual keys. 64 slots keeps the table in
/// one cache line per shard while still splitting hot shards meaningfully
/// for realistic shard counts (≤ 16).
pub const SHARD_SLOTS: usize = 64;

/// Fewest routed tuples a rebalance tick must have observed before it acts
/// — avoids thrashing on startup noise.
const MIN_TICK_TRAFFIC: u64 = 1024;

/// A shard must carry more than this multiple of the mean load before the
/// rebalancer migrates its hottest slot away.
const HOT_FACTOR: f64 = 1.5;

/// Deterministic key → slot mapping (same multiply-shift family as
/// [`super::key_partition`], so slot spread matches the plain hash
/// exchange's key spread).
#[inline]
pub fn slot_of(key: u64) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 17) % SHARD_SLOTS as u64) as usize
}

/// One in-flight slot migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Plan version this migration was published under.
    pub version: u64,
    /// The slot being moved.
    pub slot: usize,
    /// Shard instance giving the slot up.
    pub from: usize,
    /// Shard instance taking the slot over.
    pub to: usize,
}

/// Shared routing state of one sharded node: the slot → shard table, the
/// migration registry, and per-slot traffic gauges feeding the rebalancer.
#[derive(Debug)]
pub struct ShardPlan {
    /// Shard (instance) count of the node.
    pub shards: usize,
    /// slot → owning shard instance. Readers snapshot this into a plain
    /// array once per observed version; it changes only at a version bump.
    slots: Vec<AtomicU32>,
    /// Bumped once per published migration. Senders compare against their
    /// last observed value on the buffering path.
    version: AtomicU64,
    /// Highest version whose migration has been fully absorbed. Migrations
    /// are serialized: the rebalancer publishes version `v+1` only when
    /// `completed == version == v`.
    completed: AtomicU64,
    /// In-flight migration, present from publish until absorb.
    registry: Mutex<Option<Migration>>,
    /// Tuples routed per slot since the last rebalance tick (reset on
    /// read). Senders accumulate locally and publish on flush, so the
    /// tuple path stays free of shared-atomic traffic.
    traffic: Vec<AtomicU64>,
    /// Whether this node's operator supports live state handoff
    /// ([`crate::operator::Operator::shard_handoff_supported`]). Set once
    /// at spawn; statically sharded nodes whose operator cannot hand off
    /// simply never migrate.
    migratable: AtomicBool,
    /// Completed migrations, for [`super::NodeStats::shard_migrations`].
    migrations_done: AtomicU64,
}

impl ShardPlan {
    /// A fresh plan with slots dealt round-robin over `shards`.
    pub fn new(shards: usize) -> Arc<Self> {
        Arc::new(ShardPlan {
            shards,
            slots: (0..SHARD_SLOTS)
                .map(|i| AtomicU32::new((i % shards) as u32))
                .collect(),
            version: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            registry: Mutex::new(None),
            traffic: (0..SHARD_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            migratable: AtomicBool::new(false),
            migrations_done: AtomicU64::new(0),
        })
    }

    /// Current table version (senders poll this on the buffering path).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Highest fully absorbed version.
    #[inline]
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }

    /// Completed migrations so far.
    pub fn migrations_done(&self) -> u64 {
        self.migrations_done.load(Ordering::Relaxed)
    }

    /// Declare whether the node's operator supports live handoff.
    pub fn set_migratable(&self, yes: bool) {
        self.migratable.store(yes, Ordering::Relaxed);
    }

    /// Copy the slot table into a plain array for cached routing.
    pub fn snapshot_slots(&self) -> Vec<u32> {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .collect()
    }

    /// The in-flight migration, if any.
    pub fn migration(&self) -> Option<Migration> {
        *self.registry.lock()
    }

    /// Publish per-slot traffic accumulated by a sender.
    pub fn add_traffic(&self, counts: &[u64; SHARD_SLOTS]) {
        for (slot, &n) in counts.iter().enumerate() {
            if n > 0 {
                self.traffic[slot].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Publish a migration: registry first, then the slot flip, then the
    /// version bump (release) — an observer of the new version is
    /// guaranteed to see both the registry entry and the new table.
    ///
    /// Returns `false` (publishing nothing) when a migration is still in
    /// flight or `to` already owns the slot. Serialization is enforced
    /// *here*, under the registry lock, not just by the rebalancer's
    /// courtesy check: a superseding publish mid-drain would strand frozen
    /// senders forever (`completed` could never catch up to the overwritten
    /// version) and leak the target's stash for the first migration.
    #[must_use]
    pub fn begin_migration(&self, slot: usize, to: usize) -> bool {
        let mut registry = self.registry.lock();
        let version = self.version.load(Ordering::Acquire);
        if registry.is_some() || self.completed.load(Ordering::Acquire) != version {
            return false;
        }
        let from = self.slots[slot].load(Ordering::Acquire) as usize;
        if from == to {
            return false;
        }
        let version = version + 1;
        *registry = Some(Migration {
            version,
            slot,
            from,
            to,
        });
        self.slots[slot].store(to as u32, Ordering::Release);
        self.version.store(version, Ordering::Release);
        true
    }

    /// Target-side acknowledgement that version `v`'s handoff is absorbed;
    /// unfreezes sender watermarks and re-arms the rebalancer.
    ///
    /// Only the entry published under `v` may clear the registry, and
    /// `completed` advances monotonically — a stale or duplicate
    /// acknowledgement must neither destroy a newer in-flight migration's
    /// registry entry nor regress the absorbed horizon.
    pub fn complete(&self, v: u64) {
        let mut registry = self.registry.lock();
        if registry.is_some_and(|m| m.version == v) {
            *registry = None;
        }
        if self.completed.fetch_max(v, Ordering::AcqRel) < v {
            self.migrations_done.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One rebalancer decision: if the hottest shard carries more than
    /// [`HOT_FACTOR`] × the mean load and owns more than one slot, move its
    /// hottest slot to the least-loaded shard. Returns the published
    /// migration, if any.
    fn rebalance_tick(&self) -> Option<Migration> {
        if !self.migratable.load(Ordering::Relaxed) || self.shards < 2 {
            return None;
        }
        // Serialize: never publish while a migration is still in flight.
        if self.completed() != self.version() {
            return None;
        }
        let counts: Vec<u64> = self
            .traffic
            .iter()
            .map(|c| c.swap(0, Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total < MIN_TICK_TRAFFIC {
            return None;
        }
        let slots = self.snapshot_slots();
        let mut load = vec![0u64; self.shards];
        let mut owned = vec![0usize; self.shards];
        for (slot, &n) in counts.iter().enumerate() {
            load[slots[slot] as usize] += n;
            owned[slots[slot] as usize] += 1;
        }
        let hot = (0..self.shards).max_by_key(|&s| load[s])?;
        let cold = (0..self.shards).min_by_key(|&s| load[s])?;
        let mean = total as f64 / self.shards as f64;
        if (load[hot] as f64) <= HOT_FACTOR * mean || owned[hot] < 2 || hot == cold {
            return None;
        }
        // Hottest slot owned by the hot shard — but never one that alone
        // wouldn't improve the balance.
        let slot = (0..SHARD_SLOTS)
            .filter(|&s| slots[s] as usize == hot)
            .max_by_key(|&s| counts[s])?;
        if counts[slot] == 0 || load[cold] + counts[slot] >= load[hot] {
            return None;
        }
        if !self.begin_migration(slot, cold) {
            return None;
        }
        self.migration()
    }
}

/// A slot's extracted operator state in flight from source to target shard.
pub struct HandoffPayload {
    /// Plan version of the migration this payload belongs to.
    pub version: u64,
    /// The migrated slot.
    pub slot: usize,
    /// Opaque operator state ([`crate::operator::Operator::extract_shard`]).
    pub state: Box<dyn std::any::Any + Send>,
}

/// Background rebalancer: wakes every `interval`, gives each plan one
/// [`ShardPlan::rebalance_tick`], and exits when `done` flips.
pub fn rebalance_loop(
    plans: Vec<Arc<ShardPlan>>,
    interval: StdDuration,
    done: Arc<AtomicBool>,
    log: Arc<crate::obs::EventLog>,
) {
    while !done.load(Ordering::Relaxed) {
        std::thread::sleep(interval);
        for plan in &plans {
            if let Some(m) = plan.rebalance_tick() {
                log.emit(
                    crate::obs::Level::Info,
                    "rebalancer",
                    format!(
                        "migrating slot {} from shard {} to shard {} (version {})",
                        m.slot, m.from, m.to, m.version
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_cover_all_shards_initially() {
        let plan = ShardPlan::new(3);
        let slots = plan.snapshot_slots();
        for s in 0..3u32 {
            assert!(slots.contains(&s));
        }
        assert!(slots.iter().all(|&s| s < 3));
    }

    #[test]
    fn migration_publish_orders_registry_before_version() {
        let plan = ShardPlan::new(2);
        let slot = (0..SHARD_SLOTS)
            .find(|&s| plan.snapshot_slots()[s] == 0)
            .expect("shard 0 owns slots");
        assert!(plan.begin_migration(slot, 1));
        assert_eq!(plan.version(), 1);
        let m = plan.migration().expect("registry populated");
        assert_eq!((m.slot, m.from, m.to, m.version), (slot, 0, 1, 1));
        assert_eq!(plan.snapshot_slots()[slot], 1);
        plan.complete(1);
        assert_eq!(plan.completed(), 1);
        assert_eq!(plan.migration(), None);
        assert_eq!(plan.migrations_done(), 1);
    }

    #[test]
    fn rebalance_moves_hot_slot_to_cold_shard() {
        let plan = ShardPlan::new(2);
        plan.set_migratable(true);
        // All traffic on one slot of shard 0 → that slot must move to 1.
        let hot_slot = (0..SHARD_SLOTS)
            .find(|&s| plan.snapshot_slots()[s] == 0)
            .expect("shard 0 owns slots");
        let mut counts = [0u64; SHARD_SLOTS];
        counts[hot_slot] = MIN_TICK_TRAFFIC;
        // A little background load elsewhere on shard 0 keeps `owned ≥ 2`
        // meaningful without changing the hottest slot.
        let other = (0..SHARD_SLOTS)
            .find(|&s| s != hot_slot && plan.snapshot_slots()[s] == 0)
            .expect("shard 0 owns ≥ 2 slots");
        counts[other] = 1;
        plan.add_traffic(&counts);
        let m = plan.rebalance_tick().expect("hot slot migrates");
        assert_eq!((m.slot, m.from, m.to), (hot_slot, 0, 1));
        // In-flight migration blocks the next tick.
        plan.add_traffic(&counts);
        assert_eq!(plan.rebalance_tick(), None);
        plan.complete(m.version);
        assert_eq!(plan.completed(), plan.version());
    }

    #[test]
    fn rebalance_ignores_noise_and_balanced_load() {
        let plan = ShardPlan::new(2);
        plan.set_migratable(true);
        // Below the traffic floor: no action.
        let mut counts = [0u64; SHARD_SLOTS];
        counts[0] = MIN_TICK_TRAFFIC / 2;
        plan.add_traffic(&counts);
        assert_eq!(plan.rebalance_tick(), None);
        // Perfectly balanced load: no action.
        let counts = [MIN_TICK_TRAFFIC; SHARD_SLOTS];
        plan.add_traffic(&counts);
        assert_eq!(plan.rebalance_tick(), None);
    }

    #[test]
    fn superseding_publish_is_refused_mid_flight() {
        let plan = ShardPlan::new(2);
        let owned_by_0: Vec<usize> = (0..SHARD_SLOTS)
            .filter(|&s| plan.snapshot_slots()[s] == 0)
            .collect();
        assert!(plan.begin_migration(owned_by_0[0], 1));
        // A second publish while v1 is still draining must be refused — it
        // would orphan v1's frozen senders and in-flight stash.
        assert!(!plan.begin_migration(owned_by_0[1], 1));
        assert_eq!(plan.version(), 1);
        let m = plan.migration().expect("v1 registry entry intact");
        assert_eq!((m.version, m.slot), (1, owned_by_0[0]));
        // Migrating a slot onto its current owner is likewise a no-op.
        plan.complete(1);
        assert!(!plan.begin_migration(owned_by_0[0], 1));
        assert_eq!(plan.version(), 1);
        // Once v1 is absorbed, the next publish proceeds.
        assert!(plan.begin_migration(owned_by_0[1], 1));
        assert_eq!(plan.version(), 2);
    }

    #[test]
    fn stale_complete_does_not_clear_newer_registry() {
        let plan = ShardPlan::new(2);
        let owned_by_0: Vec<usize> = (0..SHARD_SLOTS)
            .filter(|&s| plan.snapshot_slots()[s] == 0)
            .collect();
        assert!(plan.begin_migration(owned_by_0[0], 1));
        plan.complete(1);
        assert!(plan.begin_migration(owned_by_0[1], 1));
        // A duplicate acknowledgement of v1 arrives after v2 published: it
        // must neither clear v2's registry entry nor regress `completed`,
        // and must not double-count the migration.
        plan.complete(1);
        let m = plan.migration().expect("v2 registry entry intact");
        assert_eq!(m.version, 2);
        assert_eq!(plan.completed(), 1);
        assert_eq!(plan.migrations_done(), 1);
        plan.complete(2);
        assert_eq!(plan.completed(), 2);
        assert_eq!(plan.migrations_done(), 2);
        assert_eq!(plan.migration(), None);
    }
}
