//! Semantic oracle for the shared-subplan optimizer: random batches of
//! 2–8 patterns run through [`cep2asp::run_patterns_with`] — which interns
//! structurally equal subtrees into one DAG and fans shared results out to
//! every consumer — must produce, for **every** pattern in the batch,
//! exactly the deduplicated matches of that pattern's solo run. The solo
//! run never sees the sharing pass, so any divergence is a sharing bug by
//! construction: a canonical key that merged two behaviorally different
//! subtrees, a fan-out edge that dropped or duplicated a consumer, or
//! stats/watermark plumbing that leaked between patterns.
//!
//! The grid multiplies random pattern batches by both data planes
//! (columnar and row) and micro-batch sizes {1, 64}, because the `Arc`ed
//! broadcast fast path only engages on the columnar plane at full batches
//! — the other cells pin the fallback paths. Each case also checks the
//! accounting contract: the number of source events the runtime actually
//! ingested equals the DAG's static prediction
//! ([`cep2asp::ShareReport::expected_source_events`]), i.e. merged scans
//! really were lowered once.

#![allow(clippy::unwrap_used)] // test code

use asp::event::{Attr, Event, EventType};
use asp::operator::Emission;
use asp::runtime::ExecutorConfig;
use asp::time::Timestamp;
use cep2asp::exec::{run_pattern, split_by_type};
use cep2asp::{
    run_patterns_with, shared_catalog, MapperOptions, MultiOptions, PatternJob, PhysicalConfig,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sea::pattern::{builders, Pattern, WindowSpec};
use sea::predicate::{CmpOp, Predicate};

/// One generatable pattern: shape, adjacent type pair, window, and
/// optional predicates drawn from small sets so batches overlap heavily
/// (the regime the sharing pass exists for).
#[derive(Debug, Clone)]
struct PatSpec {
    /// false = SEQ, true = AND.
    and: bool,
    /// First leaf type (0..3); second is the next type mod 3.
    first: u16,
    window_minutes: i64,
    /// Optional value threshold on the first leaf: (Le?, constant).
    threshold: Option<(bool, u32)>,
    /// Equi-join on ids (enables O3 keying for AND shapes).
    same_id: bool,
}

impl PatSpec {
    fn build(&self) -> (Pattern, MapperOptions) {
        let a = EventType(self.first);
        let b = EventType((self.first + 1) % 3);
        let mut preds = Vec::new();
        if let Some((le, c)) = self.threshold {
            let op = if le { CmpOp::Le } else { CmpOp::Ge };
            preds.push(Predicate::threshold(0, Attr::Value, op, c as f64));
        }
        if self.same_id {
            preds.push(Predicate::same_id(0, 1));
        }
        let window = WindowSpec::minutes(self.window_minutes);
        let leaves = [(a, "A"), (b, "B")];
        let (pattern, opts) = if self.and {
            let opts = if self.same_id {
                MapperOptions::o1().and_o3()
            } else {
                MapperOptions::o1()
            };
            (builders::and(&leaves, window, preds), opts)
        } else {
            (builders::seq(&leaves, window, preds), MapperOptions::o1())
        };
        (pattern, opts)
    }
}

fn arb_pat() -> impl Strategy<Value = PatSpec> {
    (
        any::<bool>(),
        0u16..3,
        2i64..7,
        prop_oneof![
            Just(None),
            (any::<bool>(), prop_oneof![Just(30u32), Just(50), Just(70)]).prop_map(Some),
        ],
        any::<bool>(),
    )
        .prop_map(|(and, first, window_minutes, threshold, same_id)| PatSpec {
            and,
            first,
            window_minutes,
            threshold,
            same_id,
        })
}

fn arb_event() -> impl Strategy<Value = Event> {
    (0u16..3, 0u32..3, 0i64..45, 0u32..100).prop_map(|(t, id, minute, v)| {
        Event::new(EventType(t), id, Timestamp::from_minutes(minute), v as f64)
    })
}

#[derive(Debug, Clone)]
struct Case {
    pats: Vec<PatSpec>,
    events: Vec<Event>,
    columnar: bool,
    batch_size: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(arb_pat(), 2..9),
        proptest::collection::vec(arb_event(), 30..120),
        any::<bool>(),
        prop_oneof![Just(1usize), Just(64)],
    )
        .prop_map(|(pats, events, columnar, batch_size)| Case {
            pats,
            events,
            columnar,
            batch_size,
        })
}

fn check_case(case: &Case) -> Result<(), TestCaseError> {
    let sources = split_by_type(&case.events);
    let built: Vec<(Pattern, MapperOptions)> = case.pats.iter().map(PatSpec::build).collect();
    let jobs: Vec<PatternJob> = built
        .iter()
        .enumerate()
        .map(|(i, (p, o))| PatternJob::new(format!("p{i}"), p.clone(), o.clone()))
        .collect();
    let exec = ExecutorConfig {
        columnar: case.columnar,
        batch_size: case.batch_size,
        ..ExecutorConfig::default()
    };
    let phys = PhysicalConfig::default();
    let multi = run_patterns_with(
        &jobs,
        &shared_catalog(&sources),
        &phys,
        &exec,
        &MultiOptions::default(),
    )
    .expect("multi run succeeds");

    // Accounting: the runtime ingested exactly what the shared DAG's
    // lowered scans predict — no scan ran twice, none was skipped.
    prop_assert_eq!(
        multi.report.source_events,
        multi.share.expected_source_events,
        "source volume must match the DAG prediction: {:?}",
        multi.share
    );

    // Semantics: each pattern's canonical matches equal its solo run.
    for (i, (pattern, opts)) in built.iter().enumerate() {
        let solo = run_pattern(pattern, opts, &sources, &phys, &exec).expect("solo run succeeds");
        prop_assert_eq!(
            multi.dedup_matches(&format!("p{i}")),
            solo.dedup_matches(),
            "pattern p{} diverged under sharing ({:?})",
            i,
            case.pats[i]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// THE sharing oracle: every pattern of a random shared batch agrees
    /// with its solo run, on both data planes at batch sizes {1, 64}.
    #[test]
    fn shared_batches_agree_with_solo_runs(case in arb_case()) {
        check_case(&case)?;
    }
}

/// Deterministic sharing × sharding pin: two keyed (O3) patterns whose
/// scans and join merge, lowered with shard groups — the merged DAG must
/// still honor the typechecker's per-node shard-safety verdicts, and a
/// third non-identical pattern keeps partial overlap in play.
#[test]
fn sharing_composes_with_sharded_keyed_joins() {
    let events: Vec<Event> = (0..60i64)
        .flat_map(|m| {
            (0..3u32).flat_map(move |id| {
                [
                    Event::new(
                        EventType(0),
                        id,
                        Timestamp::from_minutes(m),
                        ((m * 11 + id as i64) % 100) as f64,
                    ),
                    Event::new(
                        EventType(1),
                        id,
                        Timestamp::from_minutes(m),
                        ((m * 17 + id as i64) % 100) as f64,
                    ),
                ]
            })
        })
        .collect();
    let sources = split_by_type(&events);
    let keyed = builders::and(
        &[(EventType(0), "A"), (EventType(1), "B")],
        WindowSpec::minutes(4),
        vec![Predicate::same_id(0, 1)],
    );
    let wider = builders::and(
        &[(EventType(0), "A"), (EventType(1), "B")],
        WindowSpec::minutes(6),
        vec![Predicate::same_id(0, 1)],
    );
    let opts = MapperOptions::o1().and_o3();
    let jobs = vec![
        PatternJob::new("k1", keyed.clone(), opts.clone()),
        PatternJob::new("k2", keyed.clone(), opts.clone()),
        PatternJob::new("wide", wider.clone(), opts.clone()),
    ];
    let phys = PhysicalConfig {
        shards: Some(2),
        ..PhysicalConfig::default()
    };
    let exec = ExecutorConfig::default();
    let multi = run_patterns_with(
        &jobs,
        &shared_catalog(&sources),
        &phys,
        &exec,
        &MultiOptions::default(),
    )
    .expect("sharded multi run succeeds");

    // k1/k2 are identical: their whole pipeline (scans + keyed join)
    // interns to one subtree; "wide" shares the scans only.
    assert!(multi.share.scans_saved() >= 3, "{:?}", multi.share);
    assert_eq!(
        multi.report.source_events,
        multi.share.expected_source_events
    );
    assert_eq!(multi.dedup_matches("k1"), multi.dedup_matches("k2"));
    for (name, pattern) in [("k1", &keyed), ("wide", &wider)] {
        let solo = run_pattern(pattern, &opts, &sources, &phys, &exec).unwrap();
        assert_eq!(
            multi.dedup_matches(name),
            solo.dedup_matches(),
            "{name} diverged under sharing+sharding"
        );
        assert!(
            !multi.dedup_matches(name).is_empty(),
            "{name} found matches"
        );
    }
}

/// Deterministic emission-role pin: the same keyed sliding sub-join
/// `A ⋈ B` is the *root* of one pattern (it keeps every pane copy) and an
/// *intermediate* of another (it feeds `⋈ C` and emits each pair once).
/// The two roles are different operators, so the role is part of the
/// canonical key: the static share census must count both joins, the
/// physical build must lower both, and each pattern's raw and distinct
/// output must equal its solo run.
#[test]
fn sliding_subjoin_as_root_and_as_intermediate_lowers_once_per_role() {
    let (a, b, c) = (EventType(0), EventType(1), EventType(2));
    let events: Vec<Event> = (0..40i64)
        .flat_map(|m| {
            (0..3u32).flat_map(move |id| {
                [a, b, c]
                    .into_iter()
                    .enumerate()
                    .filter(move |(i, _)| (m + id as i64 + *i as i64) % 3 != 0)
                    .map(move |(i, t)| {
                        Event::new(t, id, Timestamp::from_minutes(m), (m * 7 + i as i64) as f64)
                    })
            })
        })
        .collect();
    let sources = split_by_type(&events);
    let window = WindowSpec::minutes(4);
    let pair = builders::seq(
        &[(a, "A"), (b, "B")],
        window,
        vec![Predicate::same_id(0, 1)],
    );
    let triple = builders::seq(
        &[(a, "A"), (b, "B"), (c, "C")],
        window,
        vec![Predicate::same_id(0, 1), Predicate::same_id(1, 2)],
    );
    let opts = MapperOptions::o3();

    // The keys differ only by the role.
    let pair_plan = cep2asp::translate(&pair, &opts).unwrap();
    let triple_plan = cep2asp::translate(&triple, &opts).unwrap();
    let cep2asp::PlanNode::Join { left: sub, .. } = &triple_plan.root else {
        panic!("SEQ3 in textual order is (A ⋈ B) ⋈ C");
    };
    assert_eq!(
        cep2asp::canonical_key_as(&pair_plan.root, Emission::Once),
        cep2asp::canonical_key_as(sub, Emission::Once)
    );
    assert_ne!(
        cep2asp::canonical_key(&pair_plan.root),
        cep2asp::canonical_key_as(sub, Emission::Once)
    );

    let jobs = vec![
        PatternJob::new("pair", pair.clone(), opts.clone()),
        PatternJob::new("triple", triple.clone(), opts.clone()),
    ];
    let phys = PhysicalConfig::default();
    let exec = ExecutorConfig::default();
    let multi = run_patterns_with(
        &jobs,
        &shared_catalog(&sources),
        &phys,
        &exec,
        &MultiOptions::default(),
    )
    .unwrap();

    // Census: A ⋈ B twice (one per role) plus the triple's root join, and
    // exactly those three stateful operators were built — all joins (the
    // only operators reporting keyed state), no intermediate dedup.
    let join_keys = multi
        .share
        .shared
        .keys()
        .filter(|k| k.starts_with("J("))
        .count();
    let stateful: Vec<_> = multi
        .report
        .nodes
        .iter()
        .filter(|n| n.peak_state_bytes > 0)
        .collect();
    assert_eq!(join_keys, 3, "{:?}", multi.share);
    assert_eq!(stateful.len(), join_keys);
    assert!(stateful.iter().all(|n| n.keyed_left_keys > 0));
    assert_eq!(multi.share.scans_lowered, 3, "A and B scans shared");
    assert_eq!(
        multi.report.source_events,
        multi.share.expected_source_events
    );

    for (name, pattern) in [("pair", &pair), ("triple", &triple)] {
        let solo = run_pattern(pattern, &opts, &sources, &phys, &exec).unwrap();
        assert!(!solo.dedup_matches().is_empty(), "{name} found matches");
        assert_eq!(multi.dedup_matches(name), solo.dedup_matches(), "{name}");
        assert_eq!(multi.raw_count(name), solo.raw_count(), "{name} raw count");
    }
    // The root keeps its pane copies: W = 4 min, slide 1 min.
    assert!(multi.raw_count("pair") > multi.dedup_matches("pair").len() as u64);
}
