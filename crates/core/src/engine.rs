//! The single-query maintenance handle.
//!
//! An [`Engine`] materializes every view of one query's view tree (plus
//! one leaf view per base relation) with payloads from an application ring
//! `R` and keeps them consistent under inserts and deletes.  It is a thin
//! handle over the one propagation driver, [`DagEngine`], hosting exactly
//! that query: grouping, leaf-to-root propagation, the hash-once and
//! scratch contracts, statistics and snapshots are the driver's (see
//! [`crate::dag`]); the handle maps the query's relation ids and tree node
//! ids to DAG nodes once, at construction.
//!
//! The engine is completely generic in the ring; the applications in
//! [`crate::apps`] merely pick a ring and a set of lifts.

use crate::dag::{DagEngine, QueryState};
use crate::error::{EngineError, EngineResult};
use fivm_common::{FivmError, RelId, Result};
use fivm_query::ViewTree;
use fivm_relation::{Database, Relation, Tuple, Update};
use fivm_ring::{LiftFn, PersistRing, Ring, RingCtx};

/// Counters describing the work performed by the engine so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of update batches applied.
    pub updates_applied: usize,
    /// Number of input rows across all update batches.
    pub rows_applied: usize,
    /// Number of delta entries pushed into views (all levels).
    pub delta_entries: usize,
    /// Number of ring additions (`add_assign` and the add half of
    /// `fma_scaled`) performed on the maintenance path.
    pub ring_adds: usize,
    /// Number of ring multiplications (`mul`, `mul_into`, and the multiply
    /// half of `fma_scaled`) performed on the maintenance path.
    pub ring_muls: usize,
    /// Number of sibling-view probe lookups requested during delta
    /// propagation (primary-map and secondary-index probes; memo-served
    /// repeats count too, so the number reflects algorithmic probe volume,
    /// not cache luck).
    pub probes: usize,
    /// Probes that found a matching entry/bucket.
    pub probe_hits: usize,
    /// Table rehash events (growth or tombstone compaction) across all
    /// view tables.  Rehashing re-buckets entries from their *stored*
    /// hashes — keys are never re-hashed, so this counts bucket moves, not
    /// extra key hashing.
    pub rehashes: usize,
    /// Rehash events inside *ring payloads* materialized in views (the
    /// relational rings keep hash tables of their own; see the ring-key
    /// contract in ROADMAP.md).  Steady state must stay at 0, exactly like
    /// `rehashes`.
    pub ring_rehashes: usize,
    /// Deferred secondary-index builds: indexes are registered at plan
    /// time but only built (one slab scan) when the active update pattern
    /// first probes them; until then they cost no per-row upkeep.
    pub deferred_index_builds: usize,
    /// Heap bytes of all materialized view storage: primary maps,
    /// secondary indexes, slot slabs and ring-payload interiors
    /// (`MaterializedView::table_bytes` summed over the views).  Unlike
    /// the other fields this is a **gauge** (current footprint), not a
    /// monotone counter: [`EngineStats::delta_since`] carries the later
    /// snapshot's footprint through unchanged (a difference of a value
    /// that can shrink is meaningless, and every consumer wants the
    /// resident footprint), and [`EngineStats::merge`] sums the
    /// per-shard footprints.
    pub table_bytes: usize,
    /// Heap bytes of the propagation scratch kept between updates: delta
    /// buffers, columnar level buffers and the payload pool's vector
    /// ([`crate::kernel::PropagationScratch::allocated_bytes`]).  A **gauge** like
    /// `table_bytes` (carried through by `delta_since`, summed by
    /// `merge`), and O(1) to read.  After any update it is at most
    /// `SCRATCH_KEEP_BYTES` plus the pool vector, whatever the size of
    /// the largest batch applied (see the memory contract in ROADMAP.md).
    pub scratch_bytes: usize,
}

impl EngineStats {
    /// The work performed since an earlier snapshot (field-wise
    /// difference) — useful for excluding initial load from measurements.
    pub fn delta_since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            updates_applied: self.updates_applied - earlier.updates_applied,
            rows_applied: self.rows_applied - earlier.rows_applied,
            delta_entries: self.delta_entries - earlier.delta_entries,
            ring_adds: self.ring_adds - earlier.ring_adds,
            ring_muls: self.ring_muls - earlier.ring_muls,
            probes: self.probes - earlier.probes,
            probe_hits: self.probe_hits - earlier.probe_hits,
            rehashes: self.rehashes - earlier.rehashes,
            ring_rehashes: self.ring_rehashes - earlier.ring_rehashes,
            deferred_index_builds: self.deferred_index_builds - earlier.deferred_index_builds,
            table_bytes: self.table_bytes,
            scratch_bytes: self.scratch_bytes,
        }
    }

    /// Combines the counters of two engines (field-wise sum) — the
    /// aggregate view of a sharded deployment, where every counter is the
    /// total work performed across all shards.  For broadcast relations,
    /// `rows_applied` counts every per-shard application of a row, so the
    /// sum reflects work, not distinct input rows.
    pub fn merge(&self, other: &EngineStats) -> EngineStats {
        EngineStats {
            updates_applied: self.updates_applied + other.updates_applied,
            rows_applied: self.rows_applied + other.rows_applied,
            delta_entries: self.delta_entries + other.delta_entries,
            ring_adds: self.ring_adds + other.ring_adds,
            ring_muls: self.ring_muls + other.ring_muls,
            probes: self.probes + other.probes,
            probe_hits: self.probe_hits + other.probe_hits,
            rehashes: self.rehashes + other.rehashes,
            ring_rehashes: self.ring_rehashes + other.ring_rehashes,
            deferred_index_builds: self.deferred_index_builds + other.deferred_index_builds,
            table_bytes: self.table_bytes + other.table_bytes,
            scratch_bytes: self.scratch_bytes + other.scratch_bytes,
        }
    }
}

/// Result of applying one update batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Rows in the input batch.
    pub input_rows: usize,
    /// Delta entries written across all views on the maintenance path.
    pub delta_entries: usize,
}

impl UpdateOutcome {
    /// Combines the outcomes of the same batch applied by several engines
    /// (field-wise sum).  A sharded deployment partitions a hash-routed
    /// batch across shards, so summed `input_rows` equals the original
    /// batch size; for broadcast batches each shard processes every row and
    /// the sum counts per-shard applications.
    pub fn merge(&self, other: &UpdateOutcome) -> UpdateOutcome {
        UpdateOutcome {
            input_rows: self.input_rows + other.input_rows,
            delta_entries: self.delta_entries + other.delta_entries,
        }
    }
}

/// The F-IVM engine for a fixed query, view tree and ring: a handle on a
/// [`DagEngine`] hosting that one query.
pub struct Engine<R: Ring> {
    dag: DagEngine<R>,
    /// The query's id in `dag`.
    query: usize,
    /// The DAG leaf of each relation, by relation id.
    leaves: Vec<usize>,
}

impl<R: Ring> Engine<R> {
    /// Builds an engine from a view tree and one lift per query variable.
    ///
    /// `lifts[v]` is the attribute function `g_v`; pass
    /// [`LiftFn::identity`] for join keys.
    pub fn new(tree: ViewTree, lifts: Vec<LiftFn<R>>) -> Result<Self> {
        Self::new_with_ctx(tree, lifts, RingCtx::new())
    }

    /// Builds an engine from a view tree, lifts and the [`RingCtx`] the
    /// lifts were built against, so lifts and engine share one dictionary.
    ///
    /// Lift sets that encode ring-interior keys (the relational rings)
    /// **must** be constructed this way — the encoded values the engine
    /// hands to lifts on the hot path are only meaningful under the
    /// engine's own dictionary.  [`crate::apps`] threads the context
    /// correctly for every shipped application.  Each engine owns its
    /// views and its [`fivm_common::Dict`]: encoded keys never cross
    /// engines (see the hash-once contract in ROADMAP.md).
    pub fn new_with_ctx(tree: ViewTree, lifts: Vec<LiftFn<R>>, ctx: RingCtx) -> Result<Self> {
        let mut dag = DagEngine::new_with_ctx(ctx);
        let query = dag.register(tree, lifts, None).map_err(|e| match e {
            EngineError::Query(e) => e,
            // An empty DAG without backfill raises query errors only.
            e => FivmError::InvalidQuery(e.to_string()),
        })?;
        let st = dag.state(query);
        let leaves = st.views[st.tree.len()..].to_vec();
        Ok(Engine { dag, query, leaves })
    }

    fn state(&self) -> &QueryState {
        self.dag.state(self.query)
    }

    /// The query's view tree.
    pub fn tree(&self) -> &ViewTree {
        &self.state().tree
    }

    /// The engine's ring context (the shared dictionary handle).  Cloning
    /// the handle is how output boundaries — ML consumers decoding
    /// relational payload entries, result merging — reach the dictionary.
    pub fn ctx(&self) -> &RingCtx {
        self.dag.ctx()
    }

    /// Work counters (see [`DagEngine::stats`]).  `table_bytes` covers the
    /// materialized views (the state that must stay resident); the
    /// propagation scratch is reported beside it as `scratch_bytes`.
    pub fn stats(&self) -> EngineStats {
        self.dag.stats()
    }

    /// The materialized view of a view-tree node (`node_id < tree().len()`)
    /// or of relation `r`'s leaf (`node_id = tree().len() + r`), as a
    /// relation (an output boundary: keys are decoded through the
    /// dictionary).
    pub fn view_relation(&self, node_id: usize) -> Relation<R> {
        self.dag.view_relation(self.state().views[node_id])
    }

    /// Number of keys stored across all materialized views.
    pub fn total_view_entries(&self) -> usize {
        self.dag.entries_of(self.state())
    }

    /// The query result for queries without group-by variables: the product
    /// of the root views' payloads (each keyed by the empty tuple).
    pub fn result(&self) -> R {
        self.dag.result_of(self.state())
    }

    /// The query result as a relation over the free variables (general form;
    /// equals a singleton over the empty key when there is no group-by).
    pub fn result_relation(&self) -> Relation<R> {
        self.dag.relation_of(self.state())
    }

    /// Binds a relation of the query to the column layout of a source table:
    /// each relation variable is matched to the table column with the same
    /// name.  Rows of subsequent updates to this relation are expected in the
    /// table's layout.
    pub fn bind_table(&mut self, rel: RelId, schema: &fivm_relation::Schema) -> EngineResult<()> {
        let leaf = self.leaf(rel)?;
        self.dag.bind_leaf(leaf, schema)
    }

    /// Loads an initial database: every table whose name matches a query
    /// relation is bound by column name and its rows are applied as inserts.
    pub fn load_database(&mut self, db: &Database) -> EngineResult<()> {
        self.dag.load_database(db)
    }

    /// Applies an update batch addressed by table name.
    ///
    /// Works by reference: rows are encoded straight into the grouped
    /// leaf delta without cloning whole tuples first.
    pub fn apply_update(&mut self, update: &Update) -> EngineResult<UpdateOutcome> {
        self.dag.apply_update(update)
    }

    /// Whether [`Engine::apply_update`] would accept `update` (see
    /// [`DagEngine::check_update`]); mutates nothing.
    pub fn check_update(&self, update: &Update) -> EngineResult<()> {
        self.dag.check_update(update)
    }

    /// Applies a batch of `(row, multiplicity)` changes to a relation.
    ///
    /// Rows are in the bound table layout if [`Engine::bind_table`] was
    /// called for this relation, otherwise they must list exactly the
    /// relation's query variables in declaration order.
    ///
    /// The whole batch is grouped by key before propagation, so the
    /// per-level work is bounded by the number of *distinct* keys, not the
    /// number of input rows.
    pub fn apply_rows<I>(&mut self, rel: RelId, rows: I) -> EngineResult<UpdateOutcome>
    where
        I: IntoIterator<Item = (Tuple, i64)>,
    {
        let leaf = self.leaf(rel)?;
        self.dag.apply_leaf(leaf, rows)
    }

    /// The DAG leaf of a relation — a typed error for ids outside the
    /// query.
    fn leaf(&self, rel: RelId) -> EngineResult<usize> {
        self.leaves.get(rel).copied().ok_or_else(|| {
            EngineError::State(format!(
                "relation id {rel} is out of range (query has {} relations)",
                self.leaves.len()
            ))
        })
    }
}

/// Snapshot save/restore, available for rings that implement
/// [`PersistRing`] (the shipped payload rings); the format is the
/// driver's per-query state ([`DagEngine::save_state`]).
impl<R: PersistRing> Engine<R> {
    /// Serializes the engine's complete materialized state (see
    /// [`DagEngine::save_state`]).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.dag.save_of(self.state(), out)
    }

    /// Restores state saved by [`Engine::save_state`] into this engine,
    /// which must be **freshly constructed** (empty views) with the same
    /// plan, ring and lifts as the engine that was saved (see
    /// [`DagEngine::load_state`]).
    pub fn load_state(&mut self, bytes: &[u8]) -> EngineResult<()> {
        self.dag.load_state(self.query, bytes)
    }
}

/// Send audit: a sharded deployment constructs engines on the coordinating
/// thread and moves them onto workers, and the CDC service front end
/// (`fivm-cdc`) and the durable registry move engines and DAGs onto other
/// threads the same way, so `Engine<R>` — and the [`DagEngine`] it wraps —
/// must be `Send` for every ring.  This never runs — it exists because its
/// body only *typechecks* while every component (views, dictionary,
/// scratch, lifts) stays `Send`; adding a non-`Send` field breaks the build
/// here instead of in the shard or cdc crate.
#[allow(dead_code)]
fn engine_is_send<R: Ring>() {
    fn assert_send<T: Send>() {}
    assert_send::<Engine<R>>();
}

impl<R: Ring> std::fmt::Debug for Engine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").field("dag", &self.dag).finish()
    }
}
