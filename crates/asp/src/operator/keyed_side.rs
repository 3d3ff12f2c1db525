//! Shared key-partitioned buffer layout for the band join.
//!
//! [`IntervalJoinOp`](crate::operator::IntervalJoinOp) buffers each side as
//! a [`KeyedSide`]: a hash map from partition key to a ts-ordered *run*
//! (`BTreeMap<(ts, seq), Tuple>`), so an arriving tuple range-scans only
//! its own key's run on the opposite side — O(matches-per-key) per probe
//! instead of O(band). A second, global `(ts, seq) → key` **arrival
//! index** makes eviction a range operation: one `split_off` on the index
//! yields the evicted entries, and only the *touched* keys' runs are then
//! split — near O(evicted), never a per-tuple `remove` walk over every
//! key. The index also orders a shard handoff's extracted tuples.
//!
//! Byte accounting charges [`Tuple::mem_bytes`] per buffered tuple, same
//! as the old layout; the ~24-byte index entry rides inside the static
//! cost model's per-tuple map-entry allowance (see
//! `cep2asp::analyze::tuple_state_bytes`). The side also tracks two
//! high-water marks — peak resident keys and longest run — surfaced
//! through [`Operator::keyed_state`](crate::operator::Operator::keyed_state)
//! and bounded by the analyzer's `max_keyed_run`.

use std::collections::{BTreeMap, HashMap};

use crate::time::Timestamp;
use crate::tuple::{Key, Tuple};

/// One key's ts-ordered run. The `u64` is the operator-local arrival
/// sequence number, which makes entries unique and keeps iteration
/// deterministic for equal timestamps.
pub(crate) type Run = BTreeMap<(Timestamp, u64), Tuple>;

/// One join side, key-partitioned (see module docs).
#[derive(Default)]
pub(crate) struct KeyedSide {
    by_key: HashMap<Key, Run>,
    /// Global `(ts, seq) → key` arrival index over every buffered tuple.
    order: BTreeMap<(Timestamp, u64), Key>,
    bytes: usize,
    peak_keys: usize,
    peak_run: usize,
}

impl KeyedSide {
    /// Buffer a tuple under its partition key.
    pub fn insert(&mut self, seq: u64, t: Tuple) {
        self.bytes += t.mem_bytes();
        let key = t.key;
        self.order.insert((t.ts, seq), key);
        let run = self.by_key.entry(key).or_default();
        run.insert((t.ts, seq), t);
        self.peak_run = self.peak_run.max(run.len());
        self.peak_keys = self.peak_keys.max(self.by_key.len());
    }

    /// Buffered footprint in bytes ([`Tuple::mem_bytes`] per tuple).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// High-water mark of distinct resident keys.
    pub fn peak_keys(&self) -> usize {
        self.peak_keys
    }

    /// High-water mark of any single key's run length.
    pub fn peak_run(&self) -> usize {
        self.peak_run
    }

    /// The ts-ordered run buffered for `key`, if any.
    pub fn run(&self, key: Key) -> Option<&Run> {
        self.by_key.get(&key)
    }

    /// Remove and return every buffered tuple whose key satisfies `part`,
    /// in global `(ts, seq)` arrival order — the shard-migration extract
    /// half. Byte and index accounting shrink accordingly; lifetime peaks
    /// are left untouched (they are high-water marks).
    pub fn extract_keys(&mut self, part: &dyn Fn(Key) -> bool) -> Vec<Tuple> {
        let keys: Vec<Key> = self.by_key.keys().copied().filter(|&k| part(k)).collect();
        let mut entries: Vec<((Timestamp, u64), Tuple)> = Vec::new();
        for key in keys {
            let Some(run) = self.by_key.remove(&key) else {
                continue;
            };
            for (entry, t) in run {
                self.bytes = self.bytes.saturating_sub(t.mem_bytes());
                self.order.remove(&entry);
                entries.push((entry, t));
            }
        }
        entries.sort_by_key(|(entry, _)| *entry);
        entries.into_iter().map(|(_, t)| t).collect()
    }

    /// Re-insert tuples extracted from a sibling instance, assigning fresh
    /// local sequence numbers from `seq` (sequence numbers only tie-break
    /// equal timestamps, so renumbering in the given arrival order
    /// preserves deterministic iteration). The absorb half of a shard
    /// migration.
    pub fn absorb(&mut self, tuples: Vec<Tuple>, seq: &mut u64) {
        for t in tuples {
            *seq += 1;
            self.insert(*seq, t);
        }
    }

    /// Evict every tuple with `ts < cutoff`.
    ///
    /// One `split_off` on the arrival index identifies the evicted range;
    /// only the keys that actually lost tuples have their runs split. The
    /// cost is O(evicted + touched-keys × log) — amortized near
    /// O(evicted) — instead of one `BTreeMap::remove` per tuple.
    pub fn evict_before(&mut self, cutoff: Timestamp) {
        match self.order.first_key_value() {
            Some((&(ts, _), _)) if ts < cutoff => {}
            _ => return,
        }
        let keep = self.order.split_off(&(cutoff, 0));
        let dead = std::mem::replace(&mut self.order, keep);
        let mut keys: Vec<Key> = dead.into_values().collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let Some(run) = self.by_key.get_mut(&key) else {
                debug_assert!(false, "index entry without a run");
                continue;
            };
            // After split_off, `run` holds the dead prefix (< cutoff) and
            // `kept` the survivors.
            let kept = run.split_off(&(cutoff, 0));
            for t in run.values() {
                self.bytes = self.bytes.saturating_sub(t.mem_bytes());
            }
            if kept.is_empty() {
                self.by_key.remove(&key);
            } else {
                *run = kept;
            }
        }
        // Full eviction must return the byte gauge to exactly 0 — any
        // residue is an accounting leak.
        debug_assert!(
            !self.order.is_empty() || (self.bytes == 0 && self.by_key.is_empty()),
            "eviction leaked accounting: bytes={}, keys={}",
            self.bytes,
            self.by_key.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventType};

    fn tup(key: u64, m: i64) -> Tuple {
        let mut t = Tuple::from_event(Event::new(
            EventType(0),
            key as u32,
            Timestamp::from_minutes(m),
            1.0,
        ));
        t.key = key;
        t
    }

    #[test]
    fn extract_keys_preserves_global_arrival_order_across_keys() {
        let mut side = KeyedSide::default();
        for (seq, (key, m)) in [(7u64, 3i64), (1, 1), (7, 2), (2, 1), (3, 0)]
            .iter()
            .enumerate()
        {
            side.insert(seq as u64, tup(*key, *m));
        }
        let got: Vec<(u64, i64)> = side
            .extract_keys(&|k| k != 3)
            .iter()
            .map(|t| (t.key, t.ts.millis() / 60_000))
            .collect();
        // (ts, seq) order, interleaving keys exactly as they arrived.
        assert_eq!(got, vec![(1, 1), (2, 1), (7, 2), (7, 3)]);
        assert_eq!(side.bytes(), tup(3, 0).mem_bytes(), "key 3 stays");
    }

    #[test]
    fn eviction_drops_runs_and_returns_bytes_to_zero() {
        let mut side = KeyedSide::default();
        for m in 0i64..10 {
            side.insert(m as u64, tup((m % 3) as u64, m));
        }
        assert!(side.bytes() > 0);
        assert_eq!(side.peak_keys(), 3);
        side.evict_before(Timestamp::from_minutes(5));
        let live: Vec<Timestamp> = (0..3)
            .flat_map(|k| {
                side.run(k)
                    .into_iter()
                    .flat_map(|r| r.keys().map(|(ts, _)| *ts))
            })
            .collect();
        assert_eq!(live.len(), 5);
        assert!(live.iter().all(|ts| *ts >= Timestamp::from_minutes(5)));
        side.evict_before(Timestamp::MAX);
        assert_eq!(side.bytes(), 0, "full eviction zeroes the byte gauge");
        assert!((0..3).all(|k| side.run(k).is_none()));
        assert_eq!(side.peak_run(), 4, "peaks survive eviction");
    }

    #[test]
    fn eviction_is_idempotent_and_skips_clean_sides() {
        let mut side = KeyedSide::default();
        side.insert(0, tup(1, 10));
        side.evict_before(Timestamp::from_minutes(5)); // nothing below
        assert_eq!(side.bytes(), tup(1, 10).mem_bytes());
        side.evict_before(Timestamp::from_minutes(11));
        side.evict_before(Timestamp::from_minutes(11));
        assert_eq!(side.bytes(), 0);
    }
}
