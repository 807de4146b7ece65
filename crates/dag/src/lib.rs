#![forbid(unsafe_code)]
//! # fivm-dag — fleets of queries over shared DAGs
//!
//! Real deployments maintain fleets of queries over the same feeds — and
//! the F-IVM view trees of related queries (same variable order, different
//! group-bys or aggregates over overlapping relation sets) share large
//! structural prefixes. The propagation driver, [`DagEngine`] (defined in
//! `fivm_core::dag` and re-exported here; `fivm_core::Engine` is the same
//! driver hosting one query), folds N registered queries into one shared
//! DAG so a common prefix is materialized and maintained **once** per
//! update pass, fanning its delta out to every query above it. This crate
//! adds the fleet-level front ends:
//!
//! - [`QueryRegistry`] — the multi-ring front door: COUNT / COVAR /
//!   gen-COVAR + MI / relational queries register under one roof, each
//!   ring group backed by its own `DagEngine`.
//! - [`DurableRegistry`] — a registry behind `fivm_cdc`'s durable spine:
//!   validated, write-ahead batches in a segmented changelog, recoverable
//!   by replaying the log once over a re-registered registry. The log,
//!   its framing and the replay loop all live in `fivm_cdc`; this crate
//!   only implements `fivm_cdc::Maintained` for the registry.
//!
//! Node identity, sharing limits and statistics semantics are specified
//! in the "DAG contract" section of ROADMAP.md.

pub mod durable;
pub mod error;
pub mod registry;

pub use durable::DurableRegistry;
pub use error::{DagError, DagResult};
pub use fivm_core::DagEngine;
pub use registry::{QueryId, QueryKind, QueryRegistry};
