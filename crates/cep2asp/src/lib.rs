//! # cep2asp — the CEP-to-ASP operator mapping
//!
//! The primary contribution of *Bridging the Gap: Complex Event Processing
//! on Stream Processing Systems* (Ziehn, Grulich, Zeuch, Markl — EDBT
//! 2024): a general mapping that translates CEP patterns (Simple Event
//! Algebra) into analytical-stream-processing query plans, decomposing the
//! pattern workload into multiple dataflow operators instead of one
//! monolithic NFA operator.
//!
//! * [`mod@translate`] — pattern → logical plan (Table 1), with the three
//!   optimizations O1 (interval joins), O2 (aggregation for iterations),
//!   and O3 (equi-join key partitioning), plus join-order hints and
//!   disjunction distribution;
//! * [`plan`] — the logical plan model with `EXPLAIN` output;
//! * [`physical`] — logical plan → threaded `asp` dataflow pipeline;
//! * [`exec`] — pattern-in/matches-out convenience and the canonical
//!   deduplicated match view for semantic-equivalence testing.
//!
//! ```
//! use asp::event::{Event, EventType};
//! use asp::time::Timestamp;
//! use cep2asp::exec::{run_pattern_simple, split_by_type};
//! use cep2asp::translate::MapperOptions;
//! use sea::pattern::{builders, WindowSpec};
//!
//! const Q: EventType = EventType(0);
//! const V: EventType = EventType(1);
//! let pattern = builders::seq(&[(Q, "Q"), (V, "V")], WindowSpec::minutes(4), vec![]);
//! let events = vec![
//!     Event::new(Q, 1, Timestamp::from_minutes(0), 10.0),
//!     Event::new(V, 1, Timestamp::from_minutes(2), 80.0),
//! ];
//! let run = run_pattern_simple(&pattern, &MapperOptions::plain(), &split_by_type(&events))
//!     .unwrap();
//! assert_eq!(run.dedup_matches().len(), 1);
//! ```

// Unit tests may unwrap freely; production code must not (workspace lint).
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod analyze;
pub mod diag;
pub mod exec;
pub mod explain;
pub mod kleene_udf;
pub mod lint;
pub mod migrate;
pub mod multi;
pub mod optimizer;
pub mod physical;
pub mod plan;
pub mod share;
pub mod sql;
pub mod translate;
pub mod typecheck;

pub use analyze::{
    analyze, runtime_bounds, Analysis, AnalyzeCode, AnalyzeConfig, AnalyzeDiagnostic, AnalyzedNode,
    NodeEstimate,
};
pub use diag::{Diag, DiagCode};
pub use exec::{
    dedup_sorted, run_pattern, run_pattern_simple, split_by_type, ExecError, MappedRun,
};
pub use explain::{explain_analyzed, render_analysis, render_analysis_typed};
pub use lint::{lint_plan, LintCode, LintDiagnostic};
pub use migrate::{
    migration_json, migration_safety, MigrateCode, MigrateConfig, MigrateDiagnostic,
};
pub use multi::{
    run_patterns, run_patterns_with, shared_catalog, MultiOptions, MultiRun, PatternJob,
};
pub use optimizer::{
    annotations_from_stats, auto_options, auto_options_with, explain_with_stats, OrderingStrategy,
    StreamStats,
};
pub use physical::{
    build_multi_pipeline, build_pipeline, BuildError, MultiBuild, PhysicalConfig, SourceCatalog,
};
pub use plan::{JoinWindowing, LogicalPlan, Partitioning, PlanNode};
pub use share::{
    canonical_key, canonical_key_as, render_multi, share_summary, ShareReport, SharedNode,
};
pub use sql::to_query_text;
pub use translate::{translate, JoinOrder, MapperOptions, TranslateError};
pub use typecheck::{
    typecheck, typecheck_with, Column, EdgeSchema, KeyProvenance, RowSchema, ShardSafety, TypeCode,
    TypeDiagnostic, TypecheckResult, TypedNode,
};
