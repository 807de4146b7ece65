#![forbid(unsafe_code)]
//! The F-IVM incremental view maintenance engine.
//!
//! This crate is the paper's primary contribution: maintenance of batches of
//! aggregates over project-join queries under inserts and deletes, by
//! materializing a tree of views whose payloads live in an
//! application-specific ring and propagating deltas along leaf-to-root paths.
//!
//! The typical flow is:
//!
//! ```
//! use fivm_core::apps;
//! use fivm_query::{VariableOrder, ViewTree, EliminationHeuristic};
//! use fivm_relation::tuple;
//! use fivm_common::Value;
//!
//! // SELECT SUM(1) FROM R(A, B) NATURAL JOIN S(A, C, D)
//! let spec = fivm_query::spec::figure1_query(false);
//! let order = VariableOrder::heuristic(&spec, EliminationHeuristic::MinDegree).unwrap();
//! let tree = ViewTree::new(spec, order).unwrap();
//! let mut engine = apps::count_engine(tree).unwrap();
//!
//! engine.apply_rows(0, vec![(tuple([Value::int(1), Value::int(10)]), 1)]).unwrap();
//! engine.apply_rows(1, vec![(tuple([Value::int(1), Value::int(7), Value::int(8)]), 1)]).unwrap();
//! assert_eq!(engine.result(), 1);
//!
//! // Deletes are inserts with negative multiplicity.
//! engine.apply_rows(0, vec![(tuple([Value::int(1), Value::int(10)]), -1)]).unwrap();
//! assert_eq!(engine.result(), 0);
//! ```
//!
//! Modules:
//!
//! * [`dag`] — the one propagation driver: a shared maintenance DAG of any
//!   number of registered queries (node pool, `register` / `unregister`
//!   with backfill, the leaf-to-root pass, stats, per-query snapshots).
//! * [`engine`] — [`Engine`], the single-query handle on that driver, and
//!   the work counters.
//! * [`plan`] — compilation of view-tree nodes into static probe/index
//!   plans.
//! * [`view`] — materialized views with planned secondary indexes.
//! * [`delta`] — the level-local delta accumulator the kernel upserts into
//!   (dense entries in arrival order, O(delta) teardown, hand-off by swap).
//! * [`kernel`] — the delta-propagation kernel (grouping, probing, lift
//!   application) the driver runs at every level.
//! * [`apps`] — preconfigured engines for the paper's applications (count,
//!   COVAR, mixed COVAR, mutual information, factorized evaluation).
//! * [`error`] — typed [`EngineError`] for the public maintenance and
//!   snapshot surface.

pub mod apps;
pub mod dag;
pub mod delta;
pub mod engine;
pub mod error;
pub mod kernel;
pub mod plan;
pub mod view;

pub use apps::{AggregateLayout, BinSpec};
pub use dag::DagEngine;
pub use engine::{Engine, EngineStats, UpdateOutcome};
pub use error::{EngineError, EngineResult};
pub use view::MaterializedView;
