#![forbid(unsafe_code)]
//! Partition-aware sharded maintenance: N independent [`fivm_core::Engine`]s
//! on worker threads behind one [`ShardedEngine`] facade.
//!
//! # How the split works
//!
//! A [`ShardPlan`] picks one *partition variable* `P` from the query
//! (preferring the variable-order root — see
//! [`fivm_query::PartitionPlan::choose`]) and classifies every relation:
//!
//! * **hash-routed** — the schema contains `P`; each row goes to the shard
//!   `route_hash(row[P]) mod N`,
//! * **broadcast** — the schema does not contain `P`; rows are replicated
//!   to every shard.
//!
//! Each shard owns a full engine: its own views, scratch and — per the
//! hash-once key contract (ROADMAP.md) — its own `Dict`.  Encoded keys and
//! precomputed hashes never cross shard boundaries; only raw [`Tuple`] rows
//! travel over the channels, and results are decoded at the output
//! boundary per shard before merging.
//!
//! # Why the merge is ring addition
//!
//! Every full join assignment binds `P` to exactly one value, and every
//! relation row contributing to it either carries that value (hash-routed,
//! present in exactly the owning shard) or is broadcast (present in all).
//! So the assignments materialize in exactly one shard each: per-shard
//! results are disjoint partial sums, and by distributivity of ring `*`
//! over `+` the global result is their ring sum.  Group-by outputs are the
//! per-key instance of the same fact — shards whose keys contain `P` emit
//! disjoint key sets and the merge is a disjoint union; otherwise
//! [`fivm_relation::Relation::union_add`] sums the colliding payloads,
//! which is the same ring addition per key.
//!
//! # When sharding stops paying
//!
//! Sharding splits only the work of *hash-routed* relations.  A broadcast
//! relation costs every shard the full update: with `B` of the update
//! volume hitting broadcast relations and `N` shards, the ideal speedup
//! degrades from `N` to `1 / (B + (1 − B)/N)` (Amdahl with the broadcast
//! fraction as the serial part, *plus* N−1 redundant copies of it).  The
//! snowflake/star workloads here route their fact table — which dominates
//! update volume — so `B ≈ 0` and scaling is governed by cores and by
//! routing overhead; but a workload updating mostly dimension tables that
//! miss the partition variable replicates nearly all its work `N` times
//! and is better served by a single engine.
//! Per-shard state also shrinks only for routed relations: broadcast views
//! are replicated N times in memory.
//!
//! # Fault containment
//!
//! A panic inside a shard engine is caught on the worker thread and
//! surfaces as [`ShardError::WorkerPanicked`] on the coordinating thread;
//! a worker that dies without replying surfaces as
//! [`ShardError::Disconnected`].  Either poisons the engine: the
//! surviving workers are shut down cleanly (shutdown + join, no leaked
//! threads) and later operations return [`ShardError::Poisoned`].  See
//! [`ShardedEngine`] and [`error`].
//!
//! [`Tuple`]: fivm_relation::Tuple

pub mod apps;
pub mod engine;
pub mod error;
pub mod plan;

mod worker;

pub use engine::ShardedEngine;
pub use error::{ShardError, ShardResult};
pub use plan::{route_hash, ShardPlan};
