//! Deterministic virtual scheduler + bounded model checker for the shard
//! migration protocol (see `asp::runtime::shard` for the protocol itself).
//!
//! The runtime's oracles (`tests/shard_oracle.rs`) *sample* thread
//! interleavings; this module *enumerates* them. Small scenarios — 2–3
//! shard instances, ≤ 8 events, 1–2 migrations — are modeled as an
//! explicit state machine whose transitions are the protocol's actual
//! units of concurrency: a sender executing its next act (observing the
//! placement table first, exactly like the real buffering path), an
//! instance receiving the head of one FIFO lane, and the rebalancer
//! publishing a scripted migration through the *real* `ShardPlan`
//! (`begin_migration`/`complete`), against the *real* [`Operator`]
//! implementations (`IntervalJoinOp`, sliding and interval).
//!
//! [`explore`] walks every schedule depth-first with sleep-set (DPOR-lite)
//! pruning and state-hash deduplication under a time cap, asserting on
//! every complete schedule:
//!
//! * the sink multiset equals a single-shard oracle (no tuple lost or
//!   duplicated),
//! * per-channel watermarks never regress across freeze/thaw and no input
//!   ever turns late (monotonicity),
//! * stashes fully drain, handoffs are absorbed, deferred `End`s resolve
//!   at the merged clock,
//! * the placement table converges (`completed == version`).
//!
//! A failing schedule serializes to a replay file
//! ([`Schedule::render_regression`]) that re-runs the exact interleaving
//! with a byte-identical trace. Seeded bugs ([`SeedBug`]) exist to prove
//! the checker catches interleaving-dependent defects; the real runtime
//! has no such flags.
//!
//! Run it locally: `cargo run --release -p bench --bin sim-explore`.
//!
//! [`Operator`]: crate::operator::Operator

mod explore;
mod model;
mod replay;

pub use explore::{explore, run_schedule, ExploreOpts, ExploreReport, Violation};
pub use model::{
    oracle_sink, CanonRow, MigrationSpec, OpSpec, SeedBug, SenderAct, SimConfig, Transition, World,
};
pub use replay::Schedule;

use crate::runtime::shard::slot_of;

/// Smallest key (≥ 1) whose slot the initial round-robin placement deals
/// to `owner`, excluding keys whose slot collides with one in `taken`.
fn key_owned_by(instances: usize, owner: usize, taken: &[u64]) -> u64 {
    (1u64..)
        .find(|&k| {
            slot_of(k) % instances == owner && taken.iter().all(|&t| slot_of(t) != slot_of(k))
        })
        .unwrap_or(1)
}

/// 2 instances, 2 keys, 1 migration: the canonical tumbling window-join
/// scenario (two pairs, one key's slot migrating mid-stream).
pub fn config_small_window_join(seed_bug: Option<SeedBug>) -> SimConfig {
    let a = key_owned_by(2, 0, &[]);
    let b = key_owned_by(2, 1, &[a]);
    SimConfig {
        name: "small-window-join".to_string(),
        instances: 2,
        op: OpSpec::WindowJoin {
            size_min: 10,
            slide_min: 10,
        },
        senders: vec![
            vec![
                SenderAct::Tuple { key: a, ts_min: 1 },
                SenderAct::Watermark { ts_min: 2 },
                SenderAct::Tuple { key: b, ts_min: 3 },
                SenderAct::Watermark { ts_min: 12 },
                SenderAct::End,
            ],
            vec![
                SenderAct::Tuple { key: a, ts_min: 2 },
                SenderAct::Tuple { key: b, ts_min: 4 },
                SenderAct::Watermark { ts_min: 12 },
                SenderAct::End,
            ],
        ],
        migrations: vec![MigrationSpec { key: a, to: 1 }],
        seed_bug,
    }
}

/// 2 instances, 1 key, 1 migration racing the streams' `End`s: most
/// schedules resolve the migration via deferred-`End` promotion rather
/// than markers.
pub fn config_end_race(seed_bug: Option<SeedBug>) -> SimConfig {
    let a = key_owned_by(2, 0, &[]);
    SimConfig {
        name: "end-race".to_string(),
        instances: 2,
        op: OpSpec::WindowJoin {
            size_min: 10,
            slide_min: 10,
        },
        senders: vec![
            vec![
                SenderAct::Tuple { key: a, ts_min: 1 },
                SenderAct::Watermark { ts_min: 2 },
                SenderAct::End,
            ],
            vec![SenderAct::Tuple { key: a, ts_min: 2 }, SenderAct::End],
        ],
        migrations: vec![MigrationSpec { key: a, to: 1 }],
        seed_bug,
    }
}

/// 2 instances, interval join (the second stateful operator with live
/// handoff), 1 migration.
pub fn config_interval_join(seed_bug: Option<SeedBug>) -> SimConfig {
    let a = key_owned_by(2, 0, &[]);
    SimConfig {
        name: "interval-join".to_string(),
        instances: 2,
        op: OpSpec::IntervalJoin { span_min: 4 },
        senders: vec![
            vec![
                SenderAct::Tuple { key: a, ts_min: 1 },
                SenderAct::Tuple { key: a, ts_min: 6 },
                SenderAct::Watermark { ts_min: 7 },
                SenderAct::End,
            ],
            vec![
                SenderAct::Tuple { key: a, ts_min: 3 },
                SenderAct::Watermark { ts_min: 5 },
                SenderAct::Tuple { key: a, ts_min: 8 },
                SenderAct::End,
            ],
        ],
        migrations: vec![MigrationSpec { key: a, to: 1 }],
        seed_bug,
    }
}

/// 2 instances, 2 serialized migrations in opposite directions — the
/// scheduler-driven regression for the supersession fix in
/// `ShardPlan::begin_migration`/`complete`: the second publish is only
/// enabled once the first migration fully resolves, and stale completions
/// cannot clear the newer registry entry.
pub fn config_two_migrations(seed_bug: Option<SeedBug>) -> SimConfig {
    let a = key_owned_by(2, 0, &[]);
    let b = key_owned_by(2, 1, &[a]);
    SimConfig {
        name: "two-migrations".to_string(),
        instances: 2,
        op: OpSpec::WindowJoin {
            size_min: 10,
            slide_min: 10,
        },
        senders: vec![
            vec![
                SenderAct::Tuple { key: a, ts_min: 1 },
                SenderAct::Watermark { ts_min: 2 },
                SenderAct::Tuple { key: b, ts_min: 3 },
                SenderAct::End,
            ],
            vec![SenderAct::Tuple { key: b, ts_min: 2 }, SenderAct::End],
        ],
        migrations: vec![
            MigrationSpec { key: a, to: 1 },
            MigrationSpec { key: b, to: 0 },
        ],
        seed_bug,
    }
}

/// Every named config, for the CI matrix and `sim-explore --all`.
pub fn all_configs() -> Vec<SimConfig> {
    vec![
        config_small_window_join(None),
        config_end_race(None),
        config_interval_join(None),
        config_two_migrations(None),
    ]
}

/// Look a named config up (the `sim-explore` CLI surface).
pub fn config_by_name(name: &str, seed_bug: Option<SeedBug>) -> Option<SimConfig> {
    match name {
        "small-window-join" => Some(config_small_window_join(seed_bug)),
        "end-race" => Some(config_end_race(seed_bug)),
        "interval-join" => Some(config_interval_join(seed_bug)),
        "two-migrations" => Some(config_two_migrations(seed_bug)),
        _ => None,
    }
}
