#![forbid(unsafe_code)]
//! # F-IVM — learning over fast-evolving relational data
//!
//! A Rust reproduction of *F-IVM: Learning over Fast-Evolving Relational
//! Data* (SIGMOD 2020): incremental maintenance of analytics — count
//! aggregates, COVAR matrices for ridge regression, mutual-information
//! matrices for model selection and Chow-Liu trees — over natural-join
//! queries under inserts and deletes.
//!
//! This facade crate re-exports the workspace crates under one roof:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`common`] | `fivm-common` | values, hashing, errors |
//! | [`ring`] | `fivm-ring` | the ring abstraction (incl. in-place `mul_into`/`fma_scaled`) and the concrete rings |
//! | [`relation`] | `fivm-relation` | schemas, tuples, keyed relations, databases, updates |
//! | [`query`] | `fivm-query` | query specs, variable orders, view trees, M3 rendering |
//! | [`core`] | `fivm-core` | the maintenance engine (batched, allocation-free hot path) and per-application constructors |
//! | [`ml`] | `fivm-ml` | regression, mutual information, model selection, Chow-Liu trees |
//! | [`data`] | `fivm-data` | Figure-1 toy data, Retailer/Favorita generators, update streams |
//! | [`baselines`] | `fivm-baselines` | naive re-evaluation, join maintenance, unshared aggregates |
//! | [`shard`] | `fivm-shard` | partition-aware sharded maintenance (N engines on worker threads, ring-merged results) |
//! | [`cdc`] | `fivm-cdc` | durability: write-ahead changelog, engine snapshots, crash recovery by replay |
//! | [`dag`] | `fivm-dag` | multi-query maintenance DAG: shared view-tree prefixes, one propagation pass, runtime register/unregister |
//!
//! Two crates are not re-exported: `fivm-bench` (the paper walkthrough
//! binaries, `profile_hotpath` and the Criterion ablations against
//! `fivm-baselines`) and the offline dependency shims under
//! `crates/shims/` (see `crates/shims/README.md`).  Performance is
//! measured by the standalone `benchmark/` package (`fivm-e2e`).
//!
//! ## Performance model
//!
//! Updates are applied in batches: each batch is grouped by key into one
//! delta entry per distinct key, and the delta is propagated along a single
//! leaf-to-root path using the in-place ring operations
//! ([`ring::Ring::mul_into`], [`ring::Ring::fma_scaled`]) and per-level
//! buffers that persist across updates — the dense-payload hot path
//! performs no heap allocation (see `crates/ring/tests/alloc_fma.rs` and
//! the "performance notes" section of `ROADMAP.md` for the exact API
//! contract).
//!
//! ## Quickstart
//!
//! ```
//! use fivm::core::apps;
//! use fivm::data::{figure1_database, figure1_tree};
//! use fivm::relation::{tuple, Update};
//! use fivm::common::Value;
//!
//! // COUNT(*) over R(A,B) ⋈ S(A,C,D), maintained under updates.
//! let mut engine = apps::count_engine(figure1_tree(false)).unwrap();
//! engine.load_database(&figure1_database()).unwrap();
//! assert_eq!(engine.result(), 3);
//!
//! engine.apply_update(&Update::inserts(
//!     "R",
//!     vec![tuple([Value::int(1), Value::int(5)])],
//! )).unwrap();
//! assert_eq!(engine.result(), 5);
//! ```
//!
//! See the `examples/` directory for the regression, model-selection and
//! Chow-Liu walkthroughs, and `crates/bench` for the experiment harnesses
//! that regenerate the paper's figures.

pub use fivm_baselines as baselines;
pub use fivm_cdc as cdc;
pub use fivm_common as common;
pub use fivm_core as core;
pub use fivm_dag as dag;
pub use fivm_data as data;
pub use fivm_ml as ml;
pub use fivm_query as query;
pub use fivm_relation as relation;
pub use fivm_ring as ring;
pub use fivm_shard as shard;
