//! Out-of-order stream handling: with bounded-out-of-orderness watermarks
//! (paper Section 2, time model — event time is exactly what makes ASP
//! robust to disorder), both engines must produce the same matches on a
//! disordered arrival sequence as on the sorted stream.

use std::collections::HashMap;

use asp::event::{Attr, Event, EventType};
use asp::runtime::{Executor, ExecutorConfig};
use asp::time::Duration;
use asp::tuple::MatchKey;
use cep::BaselineConfig;
use cep2asp::exec::{dedup_sorted, run_pattern};
use cep2asp::{MapperOptions, PhysicalConfig};
use sea::pattern::{builders, Leaf, Pattern, WindowSpec};
use sea::predicate::{CmpOp, Predicate};
use workloads::{generate_qnv, QnvConfig, ValueModel, Workload, PM10, Q, V};

const DELAY_MIN: i64 = 5;

fn disordered(seed: u64) -> (Workload, Workload) {
    let mut w = generate_qnv(&QnvConfig {
        sensors: 3,
        minutes: 60,
        seed,
        value_model: ValueModel::Uniform,
    });
    w.merge(workloads::generate_aq(&workloads::AqConfig {
        sensors: 3,
        minutes: 60,
        seed,
        value_model: ValueModel::Uniform,
        id_offset: 0,
    }));
    let shuffled = w
        .clone()
        .with_disorder(DELAY_MIN * asp::time::MINUTE_MS, seed ^ 7);
    (w, shuffled)
}

fn oracle(p: &Pattern, w: &Workload) -> Vec<MatchKey> {
    sea::oracle::evaluate(p, &w.merged())
        .into_iter()
        .map(MatchKey)
        .collect()
}

fn fasp_disordered(
    p: &Pattern,
    opts: &MapperOptions,
    sources: &HashMap<EventType, Vec<Event>>,
    lag_min: i64,
) -> Vec<MatchKey> {
    let phys = PhysicalConfig {
        watermark_lag: Duration::from_minutes(lag_min),
        watermark_every: 16, // frequent watermarks stress the lag logic
        ..Default::default()
    };
    run_pattern(p, opts, sources, &phys, &ExecutorConfig::default())
        .expect("mapped run")
        .dedup_matches()
}

fn fcep_disordered(
    p: &Pattern,
    sources: &HashMap<EventType, Vec<Event>>,
    lag_min: i64,
) -> Vec<MatchKey> {
    let cfg = BaselineConfig {
        watermark_lag: Duration::from_minutes(lag_min),
        watermark_every: 16,
        ..Default::default()
    };
    let (g, sink) = cep::build_baseline(p, sources, &cfg).expect("baseline");
    let mut report = Executor::new(ExecutorConfig::default())
        .run(g)
        .expect("run");
    dedup_sorted(&report.take_sink(sink))
}

#[test]
fn seq_is_disorder_tolerant_with_sufficient_lag() {
    let (sorted, shuffled) = disordered(11);
    let p = builders::seq(
        &[(Q, "Q"), (V, "V")],
        WindowSpec::minutes(6),
        vec![Predicate::cross(0, Attr::Value, CmpOp::Le, 1, Attr::Value)],
    );
    let want = oracle(&p, &sorted);
    assert!(!want.is_empty());
    for (name, opts) in [
        ("plain", MapperOptions::plain()),
        ("O1", MapperOptions::o1()),
    ] {
        let got = fasp_disordered(&p, &opts, &shuffled.streams, DELAY_MIN);
        assert_eq!(got, want, "FASP {name} under disorder");
    }
    let got = fcep_disordered(&p, &shuffled.streams, DELAY_MIN);
    assert_eq!(got, want, "FCEP under disorder");
}

#[test]
fn nseq_is_disorder_tolerant() {
    let (sorted, shuffled) = disordered(13);
    let p = builders::nseq(
        (Q, "Q"),
        Leaf::new(PM10, "PM10", "n").with_filter(Attr::Value, CmpOp::Gt, 40.0),
        (V, "V"),
        WindowSpec::minutes(6),
        vec![],
    );
    let want = oracle(&p, &sorted);
    assert!(!want.is_empty());
    let got = fasp_disordered(&p, &MapperOptions::o1(), &shuffled.streams, DELAY_MIN);
    assert_eq!(got, want, "FASP NSEQ under disorder");
    let got = fcep_disordered(&p, &shuffled.streams, DELAY_MIN);
    assert_eq!(got, want, "FCEP NSEQ under disorder");
}

#[test]
fn iter_is_disorder_tolerant() {
    let (sorted, shuffled) = disordered(17);
    let p = builders::iter(
        V,
        "V",
        2,
        WindowSpec::minutes(4),
        vec![Predicate::cross(0, Attr::Value, CmpOp::Lt, 1, Attr::Value)],
    );
    let want = oracle(&p, &sorted);
    assert!(!want.is_empty());
    let got = fasp_disordered(&p, &MapperOptions::plain(), &shuffled.streams, DELAY_MIN);
    assert_eq!(got, want);
}

/// Insufficient lag loses (only) the straggling matches: the run still
/// completes, never crashes, and drops are visible in the node stats.
#[test]
fn insufficient_lag_drops_late_events_gracefully() {
    let (sorted, shuffled) = disordered(19);
    let p = builders::seq(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(6), vec![]);
    let want = oracle(&p, &sorted);
    let phys = PhysicalConfig {
        watermark_lag: Duration::ZERO, // pretend the stream were in order
        watermark_every: 16,
        ..Default::default()
    };
    let run = run_pattern(
        &p,
        &MapperOptions::o1(),
        &shuffled.streams,
        &phys,
        &ExecutorConfig::default(),
    )
    .expect("run completes despite late data");
    let got = run.dedup_matches();
    assert!(got.len() <= want.len(), "never invents matches");
    assert!(
        got.len() < want.len(),
        "five-minute disorder with zero lag must lose something"
    );
    for m in &got {
        assert!(want.contains(m), "every found match is genuine");
    }
    let dropped: u64 = run.report.nodes.iter().map(|n| n.late_dropped).sum();
    assert!(dropped > 0, "late drops are accounted");
}

/// The late-drop safety net can be disabled; ts-order-insensitive
/// operators (interval joins probe both directions) then still find
/// everything even with zero lag.
#[test]
fn interval_join_without_drop_late_recovers_stragglers() {
    let (sorted, shuffled) = disordered(23);
    let p = builders::and(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(6), vec![]);
    let want = oracle(&p, &sorted);
    let phys = PhysicalConfig {
        watermark_lag: Duration::ZERO,
        ..Default::default()
    };
    let exec = ExecutorConfig {
        drop_late: false,
        ..Default::default()
    };
    let run = run_pattern(&p, &MapperOptions::o1(), &shuffled.streams, &phys, &exec).expect("run");
    // The interval join buffers by bounds, not firing order, so stragglers
    // within the (un-asserted) disorder still pair up — as long as
    // eviction hasn't passed them. With disorder ≤ 5 min ≪ W = 6 min this
    // holds for the conjunction's symmetric bounds.
    assert_eq!(run.dedup_matches(), want);
}

/// A late burst: every event of minutes [10, 20) arrives only after its
/// stream has reached minute 40, far beyond a two-minute
/// `watermark_lag`. Under SEQ3 with arrival-driven keyed sliding joins
/// (O3) and with interval joins (O1) alike, exactly the burst is counted
/// in `late_dropped`, and the matches are the oracle's on the survivors.
#[test]
fn late_burst_beyond_lag_is_counted_and_survivors_match_the_oracle() {
    let (sorted, _) = disordered(29);
    let p = builders::seq(
        &[(Q, "Q"), (V, "V"), (PM10, "PM10")],
        WindowSpec::minutes(4),
        vec![Predicate::same_id(0, 1), Predicate::same_id(1, 2)],
    );
    let minute = |e: &Event| e.ts.millis() / asp::time::MINUTE_MS;
    let in_burst = |e: &Event| (10..20).contains(&minute(e));
    let mut survivors = sorted.clone();
    let mut streams = HashMap::new();
    let mut burst = 0usize;
    for (t, events) in &sorted.streams {
        let (late, rest): (Vec<Event>, Vec<Event>) = events.iter().partition(|e| in_burst(e));
        if [Q, V, PM10].contains(t) {
            burst += late.len();
        }
        let cut = rest.partition_point(|e| minute(e) < 40);
        let mut arrival = rest[..cut].to_vec();
        arrival.extend(late);
        arrival.extend_from_slice(&rest[cut..]);
        streams.insert(*t, arrival);
        survivors.streams.insert(*t, rest);
    }
    let want = oracle(&p, &survivors);
    assert!(burst > 0 && !want.is_empty());
    assert_ne!(want, oracle(&p, &sorted), "the burst carries matches");
    let phys = PhysicalConfig {
        watermark_lag: Duration::from_minutes(2),
        watermark_every: 1,
        ..Default::default()
    };
    for (name, opts) in [("O3", MapperOptions::o3()), ("O1", MapperOptions::o1())] {
        let run = run_pattern(&p, &opts, &streams, &phys, &ExecutorConfig::default())
            .expect("run completes despite the burst");
        let dropped: u64 = run.report.nodes.iter().map(|n| n.late_dropped).sum();
        assert_eq!(dropped, burst as u64, "{name}: every burst event, once");
        assert_eq!(run.dedup_matches(), want, "{name}: oracle on survivors");
    }
}
