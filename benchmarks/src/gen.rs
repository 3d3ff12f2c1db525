//! The benchmark's own seeded input generator.
//!
//! Every stream has the same shape: `sensors` sensors each report one event
//! per minute per event type, minute-aligned, with a uniform value in
//! `[0, 100)`. All types therefore cover the same event-time span per wall
//! second under one per-source rate, so a paced run keeps the sources'
//! event-time clocks together and no join waits on a straggling input.
//!
//! The generator owns its random numbers (SplitMix64) so that a change to
//! the repository's vendored `rand` cannot silently change the traffic.

use asp::event::{Event, EventType};
use asp::time::{Timestamp, MINUTE_MS};

/// SplitMix64: a full-period 64-bit generator with a one-word state.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One generated input: a ts-ordered (or boundedly disordered) stream per
/// event type, in the order the types were requested.
pub struct Dataset {
    pub streams: Vec<(EventType, Vec<Event>)>,
}

impl Dataset {
    /// Generate `minutes` minutes of traffic for each of `types`.
    pub fn generate(seed: u64, types: &[EventType], sensors: u32, minutes: i64) -> Dataset {
        let streams = types
            .iter()
            .map(|&etype| {
                // One generator per type, so a type's values do not depend
                // on which other types a workload reads.
                let mut rng = SplitMix64::new(
                    seed ^ (u64::from(etype.0) + 1).wrapping_mul(0xA24B_AED4_963E_E407),
                );
                let mut events = Vec::with_capacity(minutes as usize * sensors as usize);
                for m in 0..minutes {
                    for id in 0..sensors {
                        events.push(Event::new(
                            etype,
                            id,
                            Timestamp(m * MINUTE_MS),
                            rng.next_f64() * 100.0,
                        ));
                    }
                }
                (etype, events)
            })
            .collect();
        Dataset { streams }
    }

    /// Reorder every stream so that arrival order deviates from timestamp
    /// order by at most `delay_ms`: each event is delayed by a uniform
    /// amount in `[0, delay_ms]` and the stream is re-sorted by delayed
    /// time. An event can then arrive behind a newer one only if the two
    /// are at most `delay_ms` apart, so a source whose watermark lag is
    /// `delay_ms` never declares any of them late.
    pub fn delay_bounded(&mut self, seed: u64, delay_ms: i64) {
        for (etype, events) in &mut self.streams {
            let mut rng = SplitMix64::new(
                seed ^ (u64::from(etype.0) + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93),
            );
            let mut keyed: Vec<(i64, Event)> = events
                .iter()
                .map(|e| {
                    let jitter = (rng.next_f64() * (delay_ms + 1) as f64) as i64;
                    (e.ts.millis() + jitter.min(delay_ms), *e)
                })
                .collect();
            keyed.sort_by_key(|(arrival, _)| *arrival);
            *events = keyed.into_iter().map(|(_, e)| e).collect();
        }
    }

    /// Total events over all streams.
    pub fn len(&self) -> usize {
        self.streams.iter().map(|(_, v)| v.len()).sum()
    }

    /// FNV-1a taken a 64-bit word at a time (one xor and multiply per
    /// field) over every event, streams in order: the pin that shows when
    /// a change to the generator changed the traffic.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |word: u64| h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        for (_, events) in &self.streams {
            for e in events {
                eat(u64::from(e.etype.0));
                eat(u64::from(e.id));
                eat(e.ts.millis() as u64);
                eat(e.value.to_bits());
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TYPES: [EventType; 2] = [EventType(0), EventType(1)];

    #[test]
    fn same_seed_same_traffic_other_seed_other_traffic() {
        let a = Dataset::generate(7, &TYPES, 4, 50);
        let b = Dataset::generate(7, &TYPES, 4, 50);
        let c = Dataset::generate(8, &TYPES, 4, 50);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.streams[1].1, b.streams[1].1);
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.len(), 2 * 4 * 50);
    }

    #[test]
    fn a_type_does_not_depend_on_the_others() {
        let both = Dataset::generate(3, &TYPES, 2, 20);
        let alone = Dataset::generate(3, &TYPES[1..], 2, 20);
        assert_eq!(both.streams[1].1, alone.streams[0].1);
    }

    #[test]
    fn values_are_uniform_percentages() {
        let d = Dataset::generate(1, &TYPES[..1], 8, 2000);
        let v: Vec<f64> = d.streams[0].1.iter().map(|e| e.value).collect();
        assert!(v.iter().all(|x| (0.0..100.0).contains(x)));
        let low = v.iter().filter(|x| **x < 1.0).count() as f64 / v.len() as f64;
        assert!((0.005..0.015).contains(&low), "≈1 % below 1.0, got {low}");
    }

    #[test]
    fn delay_is_bounded_and_deterministic() {
        let delay = 2 * MINUTE_MS;
        let mut a = Dataset::generate(5, &TYPES, 16, 200);
        let sorted_digest = a.digest();
        a.delay_bounded(5, delay);
        let mut b = Dataset::generate(5, &TYPES, 16, 200);
        b.delay_bounded(5, delay);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), sorted_digest, "the reorder moved something");
        for (_, events) in &a.streams {
            let mut newest = i64::MIN;
            for e in events {
                newest = newest.max(e.ts.millis());
                assert!(newest - e.ts.millis() <= delay, "arrived too far behind");
            }
        }
    }
}
