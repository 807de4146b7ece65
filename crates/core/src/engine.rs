//! The F-IVM maintenance engine.
//!
//! An [`Engine`] materializes every view of a view tree (plus one leaf view
//! per base relation) with payloads from an application ring `R`, and keeps
//! them consistent under inserts and deletes:
//!
//! 1. An update batch to relation `K` is **grouped by key** into one delta
//!    entry per distinct key (payload = `1` scaled by the summed signed
//!    multiplicity) — rows that cancel inside the batch never propagate.
//! 2. The delta is propagated along the leaf-to-root maintenance path.  At
//!    each view `V@X`, the delta of the updating child is joined against the
//!    *materialized* sibling views (using the probes fixed by the
//!    [`ExecutionPlan`]), multiplied by the lift `g_X`, marginalized over
//!    `X`, applied to `V@X`, and handed to the parent as its child delta.
//! 3. Views on other branches are untouched — this is the core of F-IVM's
//!    efficiency.
//!
//! The hot path is allocation- and *memory*-conscious.  Keys are
//! dictionary-encoded once, at ingestion, into flat-word
//! [`EncodedKey`]s (strings interned in the engine's [`Dict`]) and decoded
//! only at output boundaries.  Every key is **hashed at most once per
//! propagation level**: the grouped leaf delta and the per-level delta
//! accumulator ([`crate::delta::DeltaTable`]) and every view table
//! (`RawTable`) are keyed by precomputed hashes, and a level's delta
//! carries its hashes along when it is applied to the view and handed to
//! the parent — a buffer swap, so a call costs in proportion to the delta
//! it carries, not to the largest batch the engine ever saw.  Probe keys are gathered out of an
//! encoded assignment by plain word copies, a per-level memo short-circuits
//! repeated probes of the same (skewed) key, partial products along a probe
//! chain are computed with [`Ring::mul_into`] into per-depth scratch
//! buffers, and contributions are accumulated with [`Ring::fma_scaled`].
//! Zero payloads are erased after each level.
//!
//! The engine is completely generic in the ring; the applications in
//! [`crate::apps`] merely pick a ring and a set of lifts.

use crate::error::{EngineError, EngineResult};
use crate::kernel::{direct_level, finish_level, group_row, probe_level, PropagationScratch};
use crate::plan::{ExecutionPlan, ProbeKind};
use crate::view::MaterializedView;
use fivm_common::{wire, EncodedKey, FivmError, RelId, Result, WireReader};
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
    /// ([`PropagationScratch::allocated_bytes`]).  A **gauge** like
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

/// The F-IVM engine for a fixed query, view tree and ring.
pub struct Engine<R: Ring> {
    plan: ExecutionPlan,
    lifts: Vec<LiftFn<R>>,
    views: Vec<MaterializedView<R>>,
    /// The shared handle to the per-engine string dictionary: every key the
    /// engine stores or probes is encoded through it (interning at
    /// ingestion, decoding at output boundaries), and lifts of relational
    /// rings built against the same context encode their ring-interior
    /// keys through the very same dictionary (the ring-key contract).
    ctx: RingCtx,
    /// Per-relation column bindings: for each relation variable, the column
    /// of the source table it is read from.  Set by [`Engine::bind_table`] /
    /// [`Engine::load_database`]; identity if never bound.
    bindings: Vec<Option<Vec<usize>>>,
    scratch: PropagationScratch<R>,
    stats: EngineStats,
}

impl<R: Ring> Engine<R> {
    /// Builds an engine from a view tree and one lift per query variable.
    ///
    /// `lifts[v]` is the attribute function `g_v`; pass
    /// [`LiftFn::identity`] for join keys.
    pub fn new(tree: ViewTree, lifts: Vec<LiftFn<R>>) -> Result<Self> {
        let plan = ExecutionPlan::compile(tree)?;
        Self::with_plan(plan, lifts)
    }

    /// Builds an engine from a view tree, lifts and the [`RingCtx`] the
    /// lifts were built against, so lifts and engine share one dictionary.
    ///
    /// Lift sets that encode ring-interior keys (the relational rings)
    /// **must** be constructed this way — the encoded values the engine
    /// hands to lifts on the hot path are only meaningful under the
    /// engine's own dictionary.  [`crate::apps`] threads the context
    /// correctly for every shipped application.
    pub fn new_with_ctx(tree: ViewTree, lifts: Vec<LiftFn<R>>, ctx: RingCtx) -> Result<Self> {
        let plan = ExecutionPlan::compile(tree)?;
        Self::with_plan_ctx(plan, lifts, ctx)
    }

    /// Builds an engine from an already compiled plan.
    ///
    /// A sharded deployment constructs N identical engines; compiling the
    /// view tree once and cloning the plan avoids redoing the probe/index
    /// planning per shard.  Each engine still owns fresh (empty) views and
    /// its own [`Dict`] — encoded keys must never cross engines (see the
    /// hash-once contract in ROADMAP.md).
    pub fn with_plan(plan: ExecutionPlan, lifts: Vec<LiftFn<R>>) -> Result<Self> {
        Self::with_plan_ctx(plan, lifts, RingCtx::new())
    }

    /// [`Engine::with_plan`] with an explicit ring context (see
    /// [`Engine::new_with_ctx`]).
    pub fn with_plan_ctx(plan: ExecutionPlan, lifts: Vec<LiftFn<R>>, ctx: RingCtx) -> Result<Self> {
        if lifts.len() != plan.tree().spec().num_vars() {
            return Err(FivmError::InvalidQuery(format!(
                "expected {} lifts (one per variable), got {}",
                plan.tree().spec().num_vars(),
                lifts.len()
            )));
        }
        let mut views = Vec::with_capacity(plan.num_views());
        for np in plan.node_plans() {
            views.push(MaterializedView::new(np.key_vars.clone()));
        }
        for lp in plan.leaf_plans() {
            views.push(MaterializedView::new(lp.vars.clone()));
        }
        // Register the planned secondary indexes, in plan order so the ids
        // used by `ProbeKind::Index` line up.
        for (view_idx, reqs) in plan.index_requirements().iter().enumerate() {
            for positions in reqs {
                views[view_idx].ensure_index(positions.clone());
            }
        }
        let max_probe_depth = plan
            .node_plans()
            .iter()
            .flat_map(|np| np.delta_plans.iter())
            .map(|dp| dp.steps.len())
            .max()
            .unwrap_or(0);
        let max_local_vars = plan
            .node_plans()
            .iter()
            .map(|np| np.local_vars.len())
            .max()
            .unwrap_or(0);
        let num_rels = plan.leaf_plans().len();
        let pool_enabled = lifts.iter().any(|l| !l.is_identity());
        Ok(Engine {
            plan,
            lifts,
            views,
            ctx,
            bindings: vec![None; num_rels],
            scratch: PropagationScratch::new(max_probe_depth, max_local_vars, pool_enabled),
            stats: EngineStats::default(),
        })
    }

    /// The compiled plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The query's view tree.
    pub fn tree(&self) -> &ViewTree {
        self.plan.tree()
    }

    /// The engine's ring context (the shared dictionary handle).  Cloning
    /// the handle is how output boundaries — ML consumers decoding
    /// relational payload entries, result merging — reach the dictionary.
    pub fn ctx(&self) -> &RingCtx {
        &self.ctx
    }

    /// Work counters.  `rehashes`, `ring_rehashes` and `table_bytes` are
    /// read live from the view tables; the other counters accumulate on
    /// the maintenance path.  `table_bytes` covers the materialized views
    /// (the state that must stay resident); the propagation scratch is
    /// reported beside it as `scratch_bytes`.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats;
        stats.rehashes = self
            .views
            .iter()
            .map(|v| v.rehashes())
            .sum::<u64>() as usize;
        stats.ring_rehashes = self
            .views
            .iter()
            .map(MaterializedView::payload_rehashes)
            .sum::<u64>() as usize;
        stats.table_bytes = self
            .views
            .iter()
            .map(MaterializedView::table_bytes)
            .sum::<usize>();
        stats.scratch_bytes = self.scratch.allocated_bytes();
        stats
    }

    /// The materialized view of a view-tree node, as a relation (an output
    /// boundary: keys are decoded through the dictionary).
    pub fn view_relation(&self, node_id: usize) -> Relation<R> {
        self.ctx.with_dict(|dict| self.views[node_id].to_relation(dict))
    }

    /// Number of keys stored across all materialized views.
    pub fn total_view_entries(&self) -> usize {
        self.views.iter().map(MaterializedView::len).sum()
    }

    /// The query result for queries without group-by variables: the product
    /// of the root views' payloads (each keyed by the empty tuple).
    pub fn result(&self) -> R {
        let empty = EncodedKey::empty();
        let hash = empty.fx_hash();
        let mut acc = R::one();
        for &root in self.plan.tree().roots() {
            match self.views[root].get_encoded(hash, &empty) {
                Some(p) => acc = acc.mul(p),
                None => return R::zero(),
            }
        }
        acc
    }

    /// The query result as a relation over the free variables (general form;
    /// equals a singleton over the empty key when there is no group-by).
    pub fn result_relation(&self) -> Relation<R> {
        let roots = self.plan.tree().roots();
        let mut acc: Option<Relation<R>> = None;
        for &root in roots {
            let rel = self
                .ctx
                .with_dict(|dict| self.views[root].to_relation(dict));
            acc = Some(match acc {
                None => rel,
                Some(prev) => prev.natural_join(&rel),
            });
        }
        acc.unwrap_or_else(|| {
            let mut r = Relation::new(Vec::new());
            r.add(Vec::new().into_boxed_slice(), R::one());
            r
        })
    }

    /// Binds a relation of the query to the column layout of a source table:
    /// each relation variable is matched to the table column with the same
    /// name.  Rows of subsequent updates to this relation are expected in the
    /// table's layout.
    pub fn bind_table(&mut self, rel: RelId, schema: &fivm_relation::Schema) -> EngineResult<()> {
        let spec = self.plan.tree().spec();
        self.check_rel(rel)?;
        let def = spec.relation(rel);
        let mut cols = Vec::with_capacity(def.vars.len());
        for &v in &def.vars {
            let name = spec.var_name(v);
            let col = schema.position(name).ok_or_else(|| {
                FivmError::InvalidUpdate(format!(
                    "table bound to relation `{}` has no column `{name}`",
                    def.name
                ))
            })?;
            cols.push(col);
        }
        self.bindings[rel] = Some(cols);
        Ok(())
    }

    /// Loads an initial database: every table whose name matches a query
    /// relation is bound by column name and its rows are applied as inserts.
    pub fn load_database(&mut self, db: &Database) -> EngineResult<()> {
        let spec = self.plan.tree().spec().clone();
        for rel in 0..spec.num_relations() {
            let name = &spec.relation(rel).name;
            let table = db.table(name).ok_or_else(|| {
                FivmError::InvalidUpdate(format!("database has no table named `{name}`"))
            })?;
            self.bind_table(rel, &table.schema)?;
            self.apply_rows(rel, table.rows.iter().cloned())?;
        }
        Ok(())
    }

    /// Applies an update batch addressed by table name.
    ///
    /// Works by reference: rows are encoded straight into the grouped
    /// leaf delta without cloning whole tuples first.
    pub fn apply_update(&mut self, update: &Update) -> EngineResult<UpdateOutcome> {
        let rel = self
            .plan
            .tree()
            .spec()
            .relation_id(&update.table)
            .ok_or_else(|| {
                FivmError::InvalidUpdate(format!(
                    "update targets unknown relation `{}`",
                    update.table
                ))
            })?;
        let arity = self.plan.leaf_plans()[rel].vars.len();
        let one = R::one();
        let mut input_rows = 0usize;
        {
            // One dictionary lock per batch; `group_row` performs no ring
            // or lift calls that could re-enter the context (ring ops are
            // dictionary-free by contract).
            let mut dict = self.ctx.lock();
            for (row, mult) in &update.rows {
                input_rows += 1;
                group_row(
                    &mut self.scratch.next,
                    &mut dict,
                    &mut self.stats,
                    &one,
                    self.bindings[rel].as_deref(),
                    arity,
                    row,
                    *mult,
                )?;
            }
        }
        Ok(self.propagate_grouped(rel, input_rows))
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
        self.check_rel(rel)?;
        let arity = self.plan.leaf_plans()[rel].vars.len();
        let one = R::one();
        let mut input_rows = 0usize;
        {
            let mut dict = self.ctx.lock();
            for (row, mult) in rows {
                input_rows += 1;
                group_row(
                    &mut self.scratch.next,
                    &mut dict,
                    &mut self.stats,
                    &one,
                    self.bindings[rel].as_deref(),
                    arity,
                    &row,
                    mult,
                )?;
            }
        }
        Ok(self.propagate_grouped(rel, input_rows))
    }

    /// Rejects relation ids outside the compiled query — the typed form of
    /// what used to be an index panic on the public surface.
    fn check_rel(&self, rel: RelId) -> EngineResult<()> {
        let n = self.plan.leaf_plans().len();
        if rel >= n {
            return Err(EngineError::State(format!(
                "relation id {rel} is out of range (query has {n} relations)"
            )));
        }
        Ok(())
    }

    /// Shared tail of every update path: propagates the grouped leaf delta
    /// waiting in `scratch.next`, then trims the scratch so what the batch
    /// leaves allocated is bounded by `SCRATCH_KEEP_BYTES`, not by the
    /// batch.
    fn propagate_grouped(&mut self, rel: RelId, input_rows: usize) -> UpdateOutcome {
        let outcome = self.propagate_to_root(rel, input_rows);
        self.scratch.trim();
        outcome
    }

    /// Erases cancelled keys from the grouped leaf delta, applies it to the
    /// leaf view and propagates level by level to the root.  Hashes travel
    /// with the delta: a key is hashed when it is first built and never
    /// again.
    fn propagate_to_root(&mut self, rel: RelId, input_rows: usize) -> UpdateOutcome {
        let leaf = &self.plan.leaf_plans()[rel];
        let leaf_view_idx = leaf.view_idx;
        let leaf_parent = leaf.parent;

        let mut outcome = UpdateOutcome {
            input_rows,
            delta_entries: 0,
        };
        self.stats.updates_applied += 1;
        self.stats.rows_applied += input_rows;

        // Apply to the leaf view and start the leaf-to-root walk.
        let scratch = &mut self.scratch;
        finish_level(&mut scratch.next, &mut scratch.current);
        if scratch.current.is_empty() {
            return outcome;
        }
        for (hash, key, payload) in scratch.current.iter() {
            if self.views[leaf_view_idx].add_encoded(*hash, key, payload) {
                self.stats.ring_adds += 1;
            }
        }
        outcome.delta_entries += scratch.current.len();

        // Propagate along the maintenance path.
        let (mut node_id, mut child_pos) = leaf_parent;
        loop {
            // Deferred secondary indexes: build the ones this level is
            // about to probe (a no-op bool check once built).  Mutable
            // view access must happen before the immutable probing pass.
            for si in 0..self.plan.node_plans()[node_id].delta_plans[child_pos].steps.len() {
                let step = &self.plan.node_plans()[node_id].delta_plans[child_pos].steps[si];
                if let ProbeKind::Index(idx) = &step.probe {
                    let (sibling, idx) = (step.sibling_view, *idx);
                    if self.views[sibling].ensure_index_built(idx) {
                        self.stats.deferred_index_builds += 1;
                    }
                }
            }

            let np = &self.plan.node_plans()[node_id];
            let dp = &np.delta_plans[child_pos];
            let lift = &self.lifts[np.var];
            let produced = &mut self.scratch.next;
            debug_assert!(produced.is_empty(), "scratch delta not handed over");

            if let Some(direct) = &dp.direct {
                // Probe-free level: the output key is a plain projection of
                // the delta key — no assignment scatter, no probes.  The
                // kernel picks the scalar or columnar path by input size.
                direct_level(
                    direct,
                    lift,
                    &self.ctx,
                    &self.scratch.current,
                    produced,
                    &mut self.scratch.columns,
                    &mut self.scratch.pool,
                    &mut self.stats,
                );
            } else {
                // Probe level: the kernel scatters, probes the sibling
                // views and accumulates — scalar per-row walk or columnar
                // run fusion, by input size and step kinds.
                probe_level(
                    &self.views,
                    &self.ctx,
                    dp,
                    lift,
                    &self.scratch.current,
                    produced,
                    &mut self.scratch.columns,
                    &mut self.scratch.memo,
                    &mut self.scratch.assignment,
                    &mut self.scratch.partials,
                    &mut self.scratch.pool,
                    self.scratch.pool_enabled,
                    &mut self.stats,
                );
            }

            // Recycle the previous level's payloads, then take the delta
            // just produced (zero payloads erased) as the new `current`.
            self.scratch.recycle_current();
            let scratch = &mut self.scratch;
            finish_level(&mut scratch.next, &mut scratch.current);
            let current = &scratch.current;
            outcome.delta_entries += current.len();
            for (hash, key, payload) in current.iter() {
                if self.views[node_id].add_encoded(*hash, key, payload) {
                    self.stats.ring_adds += 1;
                }
            }
            if current.is_empty() {
                break;
            }
            match self.plan.node_plans()[node_id].parent {
                Some((parent, pos)) => {
                    node_id = parent;
                    child_pos = pos;
                }
                None => break,
            }
        }
        self.scratch.recycle_current();

        self.stats.delta_entries += outcome.delta_entries;
        outcome
    }
}

/// Version of the engine-state wire format written by [`Engine::save_state`].
const STATE_VERSION: u32 = 1;

/// Snapshot save/restore, available for rings that implement
/// [`PersistRing`] (the shipped payload rings).  The byte body produced
/// here carries **no framing or checksums** — `fivm_cdc::snapshot` wraps it
/// in length + CRC framing before it touches disk; this layer only defines
/// what the state *is*.
impl<R: PersistRing> Engine<R> {
    /// Serializes the engine's complete materialized state: a plan
    /// fingerprint (ring tag, per-view key variables, lift count), the
    /// dictionary (strings in id order, so every encoded word in the state
    /// stays valid on restore), and every view's live entries as
    /// `(stored hash, encoded key, ring payload)`.
    ///
    /// Not serialized: the plan itself and the lifts (code, reconstructed
    /// by building the engine the same way), table bindings (the recovery
    /// flow re-binds via [`Engine::bind_table`] / `load_database`-style
    /// schema information it already owns), accumulated [`EngineStats`]
    /// counters (work counters restart from zero; the live gauges —
    /// `rehashes`, `ring_rehashes`, `table_bytes` — are recomputed from the
    /// restored tables), and secondary-index bucket maps (restored views
    /// keep their indexes *deferred* and rebuild them on first probe,
    /// exactly like a cold engine).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        wire::put_u32(out, STATE_VERSION);
        wire::put_str(out, R::RING_TAG);
        wire::put_u32(out, self.views.len() as u32);
        for view in &self.views {
            wire::put_u32(out, view.key_vars().len() as u32);
            for &v in view.key_vars() {
                wire::put_u32(out, v as u32);
            }
        }
        wire::put_u32(out, self.lifts.len() as u32);
        self.ctx.with_dict(|dict| wire::put_dict(out, dict));
        for view in &self.views {
            wire::put_u64(out, view.len() as u64);
            for (hash, key, payload) in view.iter_hashed() {
                wire::put_u64(out, hash);
                wire::put_encoded_key(out, key);
                payload.encode(out);
            }
        }
    }

    /// Restores state saved by [`Engine::save_state`] into this engine,
    /// which must be **freshly constructed** (empty views) with the same
    /// plan, ring and lifts as the engine that was saved.
    ///
    /// The restore is rehash-free: each view's primary map is pre-sized
    /// ([`MaterializedView::reserve_restore`]) and entries are re-bucketed
    /// from their stored hashes, so after the call `rehashes` and
    /// `ring_rehashes` read 0 — the hash-once contract survives the
    /// restart.  Fingerprint mismatches return [`EngineError::State`];
    /// truncated or corrupt bytes return [`EngineError::Corrupt`] with the
    /// engine left in an unspecified but memory-safe state (a recovery
    /// driver discards the engine on error).
    pub fn load_state(&mut self, bytes: &[u8]) -> EngineResult<()> {
        if self.total_view_entries() != 0 {
            return Err(EngineError::State(
                "load_state requires a freshly constructed (empty) engine".into(),
            ));
        }
        let r = &mut WireReader::new(bytes);
        let version = r.u32()?;
        if version != STATE_VERSION {
            return Err(EngineError::State(format!(
                "unsupported engine state version {version} (expected {STATE_VERSION})"
            )));
        }
        let tag = r.str()?;
        if tag != R::RING_TAG {
            return Err(EngineError::State(format!(
                "snapshot was taken with ring `{tag}`, engine uses `{}`",
                R::RING_TAG
            )));
        }
        let num_views = r.u32()? as usize;
        if num_views != self.views.len() {
            return Err(EngineError::State(format!(
                "snapshot has {num_views} views, engine plan has {}",
                self.views.len()
            )));
        }
        for view in &self.views {
            let arity = r.u32()? as usize;
            if arity != view.key_vars().len() {
                return Err(EngineError::State("view key arity mismatch".into()));
            }
            for &v in view.key_vars() {
                if r.u32()? as usize != v {
                    return Err(EngineError::State("view key variables mismatch".into()));
                }
            }
        }
        let num_lifts = r.u32()? as usize;
        if num_lifts != self.lifts.len() {
            return Err(EngineError::State("lift count mismatch".into()));
        }
        // Dictionary first: every encoded word decoded below is only
        // meaningful under it.  Replacing (rather than merging) is correct
        // because the target engine is empty and its lifts were built
        // against the same construction path as the saved engine's.
        let dict = wire::read_dict(r)?;
        self.ctx.with_dict_mut(|d| *d = dict);
        for view in &mut self.views {
            let len = r.u64()? as usize;
            if len > bytes.len() {
                return Err(EngineError::Corrupt("view entry count out of range".into()));
            }
            view.reserve_restore(len);
            for _ in 0..len {
                let hash = r.u64()?;
                let key = wire::read_encoded_key(r)?;
                if hash != key.fx_hash() {
                    return Err(EngineError::Corrupt(
                        "stored view-key hash does not match its key".into(),
                    ));
                }
                let payload = R::decode(r)?;
                if payload.is_zero() {
                    return Err(EngineError::Corrupt(
                        "snapshot contains a zero payload".into(),
                    ));
                }
                view.add_encoded(hash, &key, &payload);
            }
        }
        if !r.is_empty() {
            return Err(EngineError::Corrupt(
                "trailing bytes after engine state".into(),
            ));
        }
        Ok(())
    }
}

/// Send audit: a sharded deployment constructs engines on the coordinating
/// thread and moves them onto workers, and the CDC service front end
/// (`fivm-cdc`) moves the engine onto its commit thread the same way, so
/// `Engine<R>` must be `Send` for every ring.  This never runs — it exists
/// because its body only *typechecks* while every engine component (views,
/// dictionary, scratch, lifts) stays `Send`; adding a non-`Send` field
/// breaks the build here instead of in the shard or cdc crate.
#[allow(dead_code)]
fn engine_is_send<R: Ring>() {
    fn assert_send<T: Send>() {}
    assert_send::<Engine<R>>();
}

impl<R: Ring> std::fmt::Debug for Engine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("views", &self.views.len())
            .field("stats", &self.stats)
            .finish()
    }
}
