//! The five workloads: pattern text, traffic shape, engine, and the pins
//! that keep all of it fixed between commits.
//!
//! Sizes, `paced_eps` and pins were set on the commit that introduced the
//! benchmark and are part of the benchmark's definition: a later change
//! that claims a gain may not edit them.

use cep2asp::MapperOptions;

/// How a workload's patterns are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One pattern through `cep2asp` (FASP), with the given optimizations.
    Mapped {
        interval_join: bool,
        partition_by_key: bool,
    },
    /// One pattern through `cep::build_baseline` (FCEP), keyed by sensor.
    Nfa,
    /// Many patterns through `cep2asp::build_multi_pipeline`, sharing on,
    /// every pattern mapped with O1.
    MultiShared,
}

impl Engine {
    pub fn mapper_options(self) -> MapperOptions {
        let (interval_join, partition_by_key) = match self {
            Engine::Mapped {
                interval_join,
                partition_by_key,
            } => (interval_join, partition_by_key),
            Engine::MultiShared => (true, false),
            Engine::Nfa => (false, false),
        };
        MapperOptions {
            interval_join,
            aggregate_iteration: false,
            partition_by_key,
            join_order: cep2asp::JoinOrder::Textual,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Event-type names, in generation order.
    pub types: &'static [&'static str],
    /// Sensors per type; each reports once per minute.
    pub sensors: u32,
    /// Stream length of one throughput rep, in minutes.
    pub rep_minutes: i64,
    /// Stream length of the correctness slice, in minutes.
    pub verify_minutes: i64,
    /// Bounded arrival delay (and watermark lag) in ms; 0 = in order.
    pub delay_ms: i64,
    /// Rate of the paced run in distinct dataset events per second, about
    /// half the sustainable throughput measured when the benchmark was
    /// introduced. Fixed: never re-tuned to a faster or slower engine.
    pub paced_eps: f64,
    pub engine: Engine,
    /// Slots per channel. The engine's default is 1024. The 1000-pattern
    /// job has thousands of channels and runs them at 64, as the
    /// repository's own multi-pattern scenario does
    /// (`bench::multi::multi_exec`): at 1024 its saturated wall varies by
    /// 17 % from rep to rep, at 64 by 6 %.
    pub channel_capacity: usize,
    /// Every match binds events of one sensor, so the reference evaluator
    /// may be run per sensor (it enumerates a window exhaustively).
    pub same_sensor: bool,
    /// How many of the patterns the correctness slice checks.
    pub verify_patterns: usize,
    pub patterns: fn() -> Vec<String>,
    /// Digest of the rep input and raw sink count of a rep for
    /// [`DEFAULT_SEED`]; checked only under that seed.
    pub pin_digest: u64,
    pub pin_sink_count: u64,
}

pub const DEFAULT_SEED: u64 = 1;

impl Workload {
    /// Distinct dataset events per stream-minute.
    pub fn events_per_minute(&self) -> u64 {
        self.types.len() as u64 * u64::from(self.sensors)
    }

    /// Stream length of a paced run of `seconds`, in minutes.
    pub fn paced_minutes(&self, seconds: f64) -> i64 {
        ((self.paced_eps * seconds / self.events_per_minute() as f64).ceil() as i64).max(1)
    }
}

const SEQ3: &str = "PATTERN SEQ(Q a, V b, PM10 c) \
     WHERE a.id == b.id AND b.id == c.id \
     AND a.value <= b.value AND b.value <= c.value AND c.value <= 60 \
     WITHIN 6 MINUTES";

fn seq2_scan() -> Vec<String> {
    vec!["PATTERN SEQ(Q a, V b) WHERE a.value <= 1 AND b.value >= 99 WITHIN 15 MINUTES".into()]
}

fn seq3() -> Vec<String> {
    vec![SEQ3.into()]
}

/// 1000 overlapping variants: SEQ/AND × the six type pairs × two windows
/// × three shared left thresholds; every eighth variant has a threshold
/// of its own, so its scan and join are lowered for it alone while its
/// right-hand scan is still shared.
fn multi1000() -> Vec<String> {
    const TYPES: [&str; 4] = ["Q", "V", "PM10", "PM25"];
    const SHARED_THRESHOLDS: [f64; 3] = [5.0, 10.0, 15.0];
    const WINDOWS: [u32; 2] = [2, 4];
    let pairs: Vec<(usize, usize)> = (0..TYPES.len())
        .flat_map(|a| (a + 1..TYPES.len()).map(move |b| (a, b)))
        .collect();
    let grid = 2 * pairs.len() * WINDOWS.len();
    (0..1000)
        .map(|i| {
            let shape = i % grid;
            let op = if shape % 2 == 1 { "AND" } else { "SEQ" };
            let (a, b) = pairs[(shape / 2) % pairs.len()];
            let w = WINDOWS[(shape / (2 * pairs.len())) % WINDOWS.len()];
            let c = if i % 8 == 7 {
                5.0 + i as f64 * 0.001
            } else {
                SHARED_THRESHOLDS[(i / grid) % SHARED_THRESHOLDS.len()]
            };
            format!(
                "PATTERN {op}({} a, {} b) WHERE a.value <= {c} AND b.value >= 92 \
                 AND a.id == b.id WITHIN {w} MINUTES",
                TYPES[a], TYPES[b]
            )
        })
        .collect()
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "seq2_scan",
        why: "1 % leaf filters on an unkeyed SEQ: source, filter chain and exchange do nearly all the work",
        types: &["Q", "V"],
        sensors: 4,
        rep_minutes: 2_000_000,
        verify_minutes: 2_500,
        delay_ms: 0,
        paced_eps: 2_000_000.0,
        engine: Engine::Mapped {
            interval_join: false,
            partition_by_key: false,
        },
        channel_capacity: 1024,
        same_sensor: false,
        verify_patterns: 1,
        patterns: seq2_scan,
        pin_digest: 0xEBC5_A474_0B5D_F486,
        pin_sink_count: 336_466,
    },
    Workload {
        name: "seq3_keyed",
        why: "predicates decidable only at the join keep keyed sliding-window join state the dominant cost",
        types: &["Q", "V", "PM10"],
        sensors: 64,
        rep_minutes: 4_000,
        verify_minutes: 104,
        delay_ms: 0,
        paced_eps: 150_000.0,
        engine: Engine::Mapped {
            interval_join: false,
            partition_by_key: true,
        },
        channel_capacity: 1024,
        same_sensor: true,
        verify_patterns: 1,
        patterns: seq3,
        pin_digest: 0xE1B9_381E_3114_54C9,
        pin_sink_count: 185_620,
    },
    Workload {
        name: "seq3_keyed_o1_late",
        why: "same pattern as interval joins over boundedly late input: the only workload on the out-of-order path",
        types: &["Q", "V", "PM10"],
        sensors: 64,
        rep_minutes: 4_000,
        verify_minutes: 104,
        delay_ms: 2 * 60_000,
        paced_eps: 150_000.0,
        engine: Engine::Mapped {
            interval_join: true,
            partition_by_key: true,
        },
        channel_capacity: 1024,
        same_sensor: true,
        verify_patterns: 1,
        patterns: seq3,
        pin_digest: 0xCAA4_76E2_C028_2A79,
        pin_sink_count: 92_846,
    },
    Workload {
        name: "seq3_keyed_fcep",
        why: "same pattern and input through the NFA operator: the paper's FASP/FCEP ratio, and the cep crate alone",
        types: &["Q", "V", "PM10"],
        sensors: 64,
        rep_minutes: 4_000,
        verify_minutes: 104,
        delay_ms: 0,
        paced_eps: 150_000.0,
        engine: Engine::Nfa,
        channel_capacity: 1024,
        same_sensor: true,
        verify_patterns: 1,
        patterns: seq3,
        pin_digest: 0xE1B9_381E_3114_54C9,
        pin_sink_count: 92_846,
    },
    Workload {
        name: "multi1000_shared",
        why: "1000 overlapping patterns parsed from text into one shared DAG: front-end cost and Arc-broadcast fan-out",
        types: &["Q", "V", "PM10", "PM25"],
        sensors: 4,
        rep_minutes: 6_000,
        verify_minutes: 1_250,
        delay_ms: 0,
        paced_eps: 3_000.0,
        engine: Engine::MultiShared,
        channel_capacity: 64,
        same_sensor: true,
        verify_patterns: 16,
        patterns: multi1000,
        pin_digest: 0x6E5C_BD1D_EBCB_7209,
        pin_sink_count: 625_332,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_catalog_overlaps_but_not_totally() {
        let texts = multi1000();
        assert_eq!(texts.len(), 1000);
        let distinct: std::collections::HashSet<&String> = texts.iter().collect();
        // 24 shapes × 3 shared thresholds, plus 125 variants of their own.
        assert!(
            distinct.len() >= 125 && distinct.len() <= 72 + 125,
            "{}",
            distinct.len()
        );
    }

    #[test]
    fn names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(w.why.len() <= 200);
        }
    }
}
