//! The sharded engine: routing, dispatch and result merging.

use crate::error::{ShardError, ShardResult};
use crate::plan::ShardPlan;
use crate::worker::{Cmd, Worker};
use fivm_common::{Dict, FivmError, RelId, Result};
use fivm_core::{Engine, EngineError, EngineStats, UpdateOutcome};
use fivm_query::{QuerySpec, RelationRouting, ViewTree};
use fivm_relation::{Database, Relation, Schema, Tuple, Update};
use fivm_ring::{LiftFn, Ring, RingCtx};

/// N independent engines on worker threads behind the single-engine
/// surface: [`apply_update`](ShardedEngine::apply_update) /
/// [`apply_rows`](ShardedEngine::apply_rows) /
/// [`result`](ShardedEngine::result) / [`stats`](ShardedEngine::stats).
///
/// Rows of hash-routed relations are partitioned by the partition
/// variable's value; broadcast relations are replicated (see the crate
/// docs for the correctness argument and the scaling limits).  Every
/// operation runs in lockstep: each worker receives one command per batch
/// — possibly with an empty slice — and the coordinator blocks until all
/// replies arrive, so a returned [`UpdateOutcome`] reflects the fully
/// applied batch exactly like the single engine's.
///
/// Semantics notes versus a single [`Engine`]:
///
/// * `apply_*` returns `input_rows` as the size of the *caller's* batch
///   (broadcast batches are processed once per shard, but that is work
///   accounting, visible via [`stats`](ShardedEngine::stats), not input
///   accounting);
/// * scalar results merge by ring addition, relation results by
///   [`Relation::union_add`];
/// * a malformed batch (row arity, unknown relation) is rejected by the
///   coordinator *before dispatch*, so — as in the single engine — a
///   failed batch mutates no state on any shard.  (Routing a hash-routed
///   batch slices it per shard; without the up-front check, a bad row
///   would fail only its own shard while sibling shards committed their
///   slices.)
///
/// Fault containment: a worker that panics (or dies without replying)
/// surfaces as a typed [`ShardError`] instead of aborting the coordinating
/// thread.  Worker death **poisons** the engine — a panicked shard may
/// hold half-updated views, so the coordinator shuts every surviving
/// worker down cleanly (shutdown command + join) and every subsequent
/// operation returns [`ShardError::Poisoned`].  Ordinary validation
/// errors ([`ShardError::Engine`]) do *not* poison: lockstep dispatch
/// keeps all shards consistent and the engine stays usable.
pub struct ShardedEngine<R: Ring> {
    plan: ShardPlan,
    spec: QuerySpec,
    workers: Vec<Worker<R>>,
    /// The coordinator's ring context: the dictionary per-shard result
    /// partials are rekeyed into before they are merged.  Each shard owns
    /// its *own* context/dictionary (the ring-key contract: encoded ring
    /// keys never cross engines un-rekeyed); rings without dictionary-local
    /// data skip the rekey entirely (`Ring::needs_rekey`).
    ctx: RingCtx,
    /// Per relation: the column of the *currently bound* row layout that
    /// carries the partition variable (`None` for broadcast relations).
    /// Defaults to the relation's query-schema position; updated by
    /// [`ShardedEngine::bind_table`].
    route_cols: Vec<Option<usize>>,
    /// Per relation: the row-shape requirement of the current layout,
    /// mirroring the validation `Engine::apply_rows` performs per row.
    /// The coordinator applies it before dispatch so that a batch either
    /// reaches every shard or none.
    row_checks: Vec<RowCheck>,
}

/// Row-shape requirement of one relation under its current binding.
#[derive(Clone, Copy, Debug)]
enum RowCheck {
    /// Unbound layout: rows list exactly the relation's query variables.
    Exact(usize),
    /// Bound layout: rows must cover every bound column.
    Min(usize),
}

impl RowCheck {
    #[inline]
    fn ok(self, len: usize) -> bool {
        match self {
            RowCheck::Exact(n) => len == n,
            RowCheck::Min(n) => len >= n,
        }
    }
}

impl<R: Ring> ShardedEngine<R> {
    /// Builds a sharded engine, choosing the partition variable
    /// automatically (see [`ShardPlan::new`]).
    ///
    /// Each of the N per-shard engines is built from the same view tree
    /// ([`Engine::new_with_ctx`]) and owns disjoint state.  The lifts are cloned to every shard, so this constructor is for
    /// **context-free** lift sets only (count, plain COVAR, any lift that
    /// never touches a [`RingCtx`]).  Relational-ring lifts encode keys
    /// through the dictionary they were built against, which must be the
    /// dictionary of the engine they feed — build those per shard with
    /// [`ShardedEngine::with_lift_factory`] instead (as
    /// [`crate::apps`] does); pairing externally-built relational lifts
    /// with this constructor silently mixes two dictionaries.
    pub fn new(tree: ViewTree, lifts: Vec<LiftFn<R>>, num_shards: usize) -> Result<Self> {
        Self::with_lift_factory(tree, move |_| Ok(lifts.clone()), num_shards)
    }

    /// Builds a sharded engine whose lifts are constructed **per shard**
    /// against that shard's own [`RingCtx`].  Lift sets that encode
    /// ring-interior keys (the relational rings: generalized COVAR, MI,
    /// factorized evaluation) must use this constructor so every shard's
    /// lifts share the dictionary of the engine they feed —
    /// [`crate::apps`] wires the shipped applications.
    pub fn with_lift_factory<F>(tree: ViewTree, lift_factory: F, num_shards: usize) -> Result<Self>
    where
        F: Fn(&RingCtx) -> Result<Vec<LiftFn<R>>>,
    {
        let plan = ShardPlan::new(&tree, num_shards)?;
        let spec = tree.spec().clone();
        let workers = (0..plan.num_shards())
            .map(|shard| {
                // One context (and therefore one dictionary) per shard.
                let ctx = RingCtx::new();
                let lifts = lift_factory(&ctx)?;
                let engine = Engine::new_with_ctx(tree.clone(), lifts, ctx)?;
                Ok(Worker::spawn(shard, engine))
            })
            .collect::<Result<Vec<_>>>()?;
        let route_cols = (0..spec.num_relations())
            .map(|rel| match plan.routing(rel) {
                RelationRouting::Hashed { col } => Some(col),
                RelationRouting::Broadcast => None,
            })
            .collect();
        let row_checks = (0..spec.num_relations())
            .map(|rel| RowCheck::Exact(spec.relation(rel).vars.len()))
            .collect();
        Ok(ShardedEngine {
            plan,
            spec,
            workers,
            ctx: RingCtx::new(),
            route_cols,
            row_checks,
        })
    }

    /// The coordinator's ring context: merged results (from
    /// [`ShardedEngine::result`] / [`ShardedEngine::result_relation`]) are
    /// encoded under this context's dictionary; decode relational payload
    /// entries through it.
    pub fn ctx(&self) -> &RingCtx {
        &self.ctx
    }

    /// The sharding decision this engine runs under.
    pub fn shard_plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.workers.len()
    }

    /// The query specification.
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// Poisons the engine on fatal (worker-death) errors: dropping the
    /// worker handles sends every surviving shard a shutdown command and
    /// joins its thread, so no worker threads leak.  Non-fatal errors pass
    /// through untouched.
    fn poison(&mut self, e: ShardError) -> ShardError {
        if e.is_fatal() {
            self.workers.clear();
        }
        e
    }

    /// Rejects every operation after the engine was poisoned.
    fn ensure_live(&self) -> ShardResult<()> {
        if self.workers.is_empty() {
            return Err(ShardError::Poisoned);
        }
        Ok(())
    }

    /// Binds a relation to a table layout on every shard (mirrors
    /// [`Engine::bind_table`]) and re-resolves the routing column of
    /// hash-routed relations against the new layout.
    pub fn bind_table(&mut self, rel: RelId, schema: &Schema) -> ShardResult<()> {
        self.ensure_live()?;
        self.bind_table_inner(rel, schema)
            .map_err(|e| self.poison(e))
    }

    fn bind_table_inner(&mut self, rel: RelId, schema: &Schema) -> ShardResult<()> {
        for w in &self.workers {
            w.send(Cmd::Bind {
                rel,
                schema: schema.clone(),
            })?;
        }
        let mut first_err: Option<EngineError> = None;
        for w in &self.workers {
            if let Err(e) = w.recv_bound()? {
                first_err.get_or_insert(e);
            }
        }
        if let Some(e) = first_err {
            return Err(e.into());
        }
        if let RelationRouting::Hashed { .. } = self.plan.routing(rel) {
            let name = self.spec.var_name(self.plan.partition_var());
            let col = schema.position(name).ok_or_else(|| {
                FivmError::InvalidUpdate(format!(
                    "table bound to relation `{}` has no column `{name}` to route by",
                    self.spec.relation(rel).name
                ))
            })?;
            self.route_cols[rel] = Some(col);
        }
        // The bind succeeded on every shard, so every relation variable has
        // a column; rows must now cover the deepest bound column.
        let max_col = self.spec.relation(rel).vars.iter().map(|&v| {
            schema
                .position(self.spec.var_name(v))
                .expect("worker binds succeeded, so every variable has a column")
        });
        self.row_checks[rel] = RowCheck::Min(max_col.max().map_or(0, |c| c + 1));
        Ok(())
    }

    /// Rejects a batch whose rows do not fit the relation's current layout
    /// — before anything is dispatched, so a failed batch mutates no shard.
    fn check_row(&self, rel: RelId, row: &Tuple) -> Result<()> {
        if self.row_checks[rel].ok(row.len()) {
            return Ok(());
        }
        Err(FivmError::InvalidUpdate(match self.row_checks[rel] {
            RowCheck::Exact(arity) => format!(
                "row arity {} does not match relation arity {arity}",
                row.len()
            ),
            RowCheck::Min(min) => format!(
                "row has {} columns but column {} was bound",
                row.len(),
                min - 1
            ),
        }))
    }

    /// Loads an initial database, binding and routing every table exactly
    /// like [`Engine::load_database`] does for a single engine.
    pub fn load_database(&mut self, db: &Database) -> ShardResult<()> {
        for rel in 0..self.spec.num_relations() {
            let name = self.spec.relation(rel).name.clone();
            let table = db.table(&name).ok_or_else(|| {
                FivmError::InvalidUpdate(format!("database has no table named `{name}`"))
            })?;
            self.bind_table(rel, &table.schema)?;
            self.apply_batch(rel, &table.rows)?;
        }
        Ok(())
    }

    /// Applies an update batch addressed by table name.
    pub fn apply_update(&mut self, update: &Update) -> ShardResult<UpdateOutcome> {
        let rel = self.spec.relation_id(&update.table).ok_or_else(|| {
            FivmError::InvalidUpdate(format!(
                "update targets unknown relation `{}`",
                update.table
            ))
        })?;
        self.apply_batch(rel, &update.rows)
    }

    /// Applies a batch of `(row, multiplicity)` changes to a relation;
    /// rows follow the bound table layout (or the relation's query schema
    /// if never bound), exactly as in [`Engine::apply_rows`].
    pub fn apply_rows<I>(&mut self, rel: RelId, rows: I) -> ShardResult<UpdateOutcome>
    where
        I: IntoIterator<Item = (Tuple, i64)>,
    {
        self.ensure_live()?;
        if rel >= self.spec.num_relations() {
            return Err(FivmError::InvalidUpdate(format!(
                "relation id {rel} is out of range"
            ))
            .into());
        }
        match self.route_cols[rel] {
            None => {
                // Broadcast owned rows: clone for all shards but the last,
                // which takes the caller's batch by move.
                let rows: Vec<(Tuple, i64)> = rows.into_iter().collect();
                for (row, mult) in &rows {
                    if *mult != 0 {
                        self.check_row(rel, row)?;
                    }
                }
                let input_rows = rows.len();
                let mut batches: Vec<Vec<(Tuple, i64)>> =
                    (1..self.workers.len()).map(|_| rows.clone()).collect();
                batches.push(rows);
                self.dispatch(rel, batches, input_rows)
            }
            Some(col) => {
                // Hash-routed owned rows move straight into their shard's
                // batch without cloning.  Validation happens here, before
                // anything is dispatched.
                let n = self.workers.len();
                let mut batches: Vec<Vec<(Tuple, i64)>> = (0..n).map(|_| Vec::new()).collect();
                let mut input_rows = 0usize;
                for (row, mult) in rows {
                    input_rows += 1;
                    // Zero-multiplicity rows are no-ops the single engine
                    // accepts without validating; skip them symmetrically.
                    if mult == 0 {
                        continue;
                    }
                    self.check_row(rel, &row)?;
                    let shard = self.shard_of_row(col, &row);
                    batches[shard].push((row, mult));
                }
                self.dispatch(rel, batches, input_rows)
            }
        }
    }

    /// Routes a borrowed batch (cloning rows into the per-shard slices or
    /// replicating them for broadcast relations) and dispatches it.  Rows
    /// are validated up front so a malformed batch reaches no shard.
    fn apply_batch(&mut self, rel: RelId, rows: &[(Tuple, i64)]) -> ShardResult<UpdateOutcome> {
        self.ensure_live()?;
        // Zero-multiplicity rows are no-ops the single engine accepts
        // without validating; treat them symmetrically here.
        for (row, mult) in rows {
            if *mult != 0 {
                self.check_row(rel, row)?;
            }
        }
        let n = self.workers.len();
        let batches: Vec<Vec<(Tuple, i64)>> = match self.route_cols[rel] {
            None => (0..n).map(|_| rows.to_vec()).collect(),
            Some(col) => {
                let mut batches: Vec<Vec<(Tuple, i64)>> = (0..n).map(|_| Vec::new()).collect();
                for (row, mult) in rows {
                    if *mult == 0 {
                        continue;
                    }
                    batches[self.shard_of_row(col, row)].push((row.clone(), *mult));
                }
                batches
            }
        };
        self.dispatch(rel, batches, rows.len())
    }

    /// The shard owning a (validated) row of a hash-routed relation.
    #[inline]
    fn shard_of_row(&self, col: usize, row: &Tuple) -> usize {
        self.plan.shard_of(&row[col])
    }

    /// Sends one (possibly empty) batch per shard and merges the outcomes.
    fn dispatch(
        &mut self,
        rel: RelId,
        batches: Vec<Vec<(Tuple, i64)>>,
        input_rows: usize,
    ) -> ShardResult<UpdateOutcome> {
        self.dispatch_inner(rel, batches, input_rows)
            .map_err(|e| self.poison(e))
    }

    fn dispatch_inner(
        &self,
        rel: RelId,
        batches: Vec<Vec<(Tuple, i64)>>,
        input_rows: usize,
    ) -> ShardResult<UpdateOutcome> {
        for (w, rows) in self.workers.iter().zip(batches) {
            w.send(Cmd::Apply { rel, rows })?;
        }
        let mut merged = UpdateOutcome::default();
        let mut first_err: Option<EngineError> = None;
        for w in &self.workers {
            match w.recv_outcome()? {
                Ok(o) => merged = merged.merge(&o),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e.into());
        }
        Ok(UpdateOutcome {
            input_rows,
            delta_entries: merged.delta_entries,
        })
    }

    /// The query result for queries without group-by variables: the ring
    /// sum of the shard partials (each the product of that shard's root
    /// views).
    ///
    /// Takes `&mut self` (like every read below): a worker failure
    /// discovered here poisons the engine and shuts the surviving shards
    /// down, which mutates the worker set.
    pub fn result(&mut self) -> ShardResult<R> {
        self.ensure_live()?;
        self.result_inner().map_err(|e| self.poison(e))
    }

    fn result_inner(&self) -> ShardResult<R> {
        for w in &self.workers {
            w.send(Cmd::Result)?;
        }
        let mut acc = R::zero();
        for w in &self.workers {
            let (partial, dict) = w.recv_result()?;
            match dict {
                // Rekey the shard's dictionary-local words into the
                // coordinator's dictionary before ring-adding.
                Some(src) => {
                    let rekeyed = self.ctx.with_dict_mut(|dst| partial.rekey(&src, dst));
                    acc.add_assign(&rekeyed);
                }
                None => acc.add_assign(&partial),
            }
        }
        Ok(acc)
    }

    /// The query result as a relation over the free variables: the
    /// payload-wise union ([`Relation::union_add`]) of the shard partials.
    pub fn result_relation(&mut self) -> ShardResult<Relation<R>> {
        self.ensure_live()?;
        self.result_relation_inner().map_err(|e| self.poison(e))
    }

    fn result_relation_inner(&self) -> ShardResult<Relation<R>> {
        for w in &self.workers {
            w.send(Cmd::ResultRelation)?;
        }
        let mut acc: Option<Relation<R>> = None;
        for w in &self.workers {
            let (partial, dict) = w.recv_relation()?;
            let partial = match dict {
                Some(src) => self.ctx.with_dict_mut(|dst| rekey_relation(&partial, &src, dst)),
                None => partial,
            };
            match &mut acc {
                None => acc = Some(partial),
                Some(a) => a.union_add(&partial),
            }
        }
        Ok(acc.expect("a sharded engine has at least one shard"))
    }

    /// Work counters summed across shards ([`EngineStats::merge`]).
    pub fn stats(&mut self) -> ShardResult<EngineStats> {
        Ok(self
            .shard_stats()?
            .iter()
            .fold(EngineStats::default(), |acc, s| acc.merge(s)))
    }

    /// Per-shard work counters, indexed by shard id.
    pub fn shard_stats(&mut self) -> ShardResult<Vec<EngineStats>> {
        self.ensure_live()?;
        self.shard_stats_inner().map_err(|e| self.poison(e))
    }

    fn shard_stats_inner(&self) -> ShardResult<Vec<EngineStats>> {
        for w in &self.workers {
            w.send(Cmd::Stats)?;
        }
        self.workers.iter().map(Worker::recv_stats).collect()
    }

    /// Number of keys stored across all shards' materialized views
    /// (broadcast relations count once per shard).
    pub fn total_view_entries(&mut self) -> ShardResult<usize> {
        self.ensure_live()?;
        self.total_view_entries_inner().map_err(|e| self.poison(e))
    }

    fn total_view_entries_inner(&self) -> ShardResult<usize> {
        for w in &self.workers {
            w.send(Cmd::ViewEntries)?;
        }
        self.workers.iter().map(|w| w.recv_view_entries()).sum()
    }
}

/// Rekeys every payload of a relation from `src`'s dictionary into `dst`'s
/// (relation *keys* are already decoded `Value`s and pass through).
fn rekey_relation<R: Ring>(rel: &Relation<R>, src: &Dict, dst: &mut Dict) -> Relation<R> {
    Relation::from_entries(
        rel.vars().to_vec(),
        rel.iter().map(|(k, p)| (k.clone(), p.rekey(src, dst))),
    )
}

impl<R: Ring> std::fmt::Debug for ShardedEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.workers.len())
            .field("partition_var", &self.spec.var_name(self.plan.partition_var()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_core::apps;
    use fivm_data::figure1::figure1_tree;
    use fivm_common::Value;
    use fivm_relation::tuple;

    fn t(vals: &[i64]) -> Tuple {
        tuple(vals.iter().map(|&v| Value::int(v)))
    }

    #[test]
    fn sharded_count_matches_single_engine() {
        let tree = figure1_tree(false);
        let lifts = apps::count_lifts(tree.spec());
        let mut single = Engine::new(tree.clone(), lifts.clone()).unwrap();
        let mut sharded = ShardedEngine::new(tree, lifts, 3).unwrap();

        let r_rows: Vec<(Tuple, i64)> = (0..20).map(|i| (t(&[i % 7, i]), 1)).collect();
        let s_rows: Vec<(Tuple, i64)> = (0..30).map(|i| (t(&[i % 7, i % 5, i]), 1)).collect();
        single.apply_rows(0, r_rows.clone()).unwrap();
        single.apply_rows(1, s_rows.clone()).unwrap();
        let o1 = sharded.apply_rows(0, r_rows).unwrap();
        sharded.apply_rows(1, s_rows).unwrap();

        assert_eq!(o1.input_rows, 20);
        assert_eq!(sharded.result().unwrap(), single.result());
        assert!(single.result() > 0);

        // Deletes ride the same path.
        single.apply_rows(0, vec![(t(&[1, 1]), -1)]).unwrap();
        sharded.apply_rows(0, vec![(t(&[1, 1]), -1)]).unwrap();
        assert_eq!(sharded.result().unwrap(), single.result());
    }

    #[test]
    fn one_shard_behaves_like_the_single_engine() {
        let tree = figure1_tree(false);
        let lifts = apps::count_lifts(tree.spec());
        let mut single = Engine::new(tree.clone(), lifts.clone()).unwrap();
        let mut sharded = ShardedEngine::new(tree, lifts, 1).unwrap();
        let rows: Vec<(Tuple, i64)> = (0..10).map(|i| (t(&[i, i]), 1)).collect();
        let a = single.apply_rows(0, rows.clone()).unwrap();
        let b = sharded.apply_rows(0, rows).unwrap();
        assert_eq!(a, b);
        assert_eq!(sharded.stats().unwrap().delta_entries, single.stats().delta_entries);
    }

    #[test]
    fn unknown_table_and_bad_arity_are_rejected() {
        let tree = figure1_tree(false);
        let lifts = apps::count_lifts(tree.spec());
        let mut sharded = ShardedEngine::new(tree, lifts, 2).unwrap();
        let err = sharded
            .apply_update(&Update::inserts("Nope", vec![t(&[1, 2])]))
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_update");
        // A row arity mismatch is caught before dispatch; the engine stays
        // usable for the next batch.
        let err = sharded.apply_rows(0, vec![(t(&[1]), 1)]).unwrap_err();
        assert_eq!(err.kind(), "invalid_update");
        sharded.apply_rows(0, vec![(t(&[1, 2]), 1)]).unwrap();
        assert_eq!(sharded.result().unwrap(), 0);
        // Zero-multiplicity rows are accepted unvalidated, exactly like
        // `Engine::apply_rows` (which skips them before any arity check).
        let o = sharded
            .apply_rows(0, vec![(t(&[9]), 0), (t(&[2, 2]), 1)])
            .unwrap();
        assert_eq!(o.input_rows, 2);
    }

    #[test]
    fn malformed_batches_are_rejected_atomically_across_shards() {
        // A batch mixing valid rows (routed to one shard) with a malformed
        // row (routed to another) must mutate NO shard — exactly like the
        // single engine's whole-batch rejection.
        let tree = figure1_tree(false);
        let lifts = apps::count_lifts(tree.spec());
        let mut sharded = ShardedEngine::new(tree, lifts, 4).unwrap();
        sharded.apply_rows(0, vec![(t(&[1, 2]), 1)]).unwrap();
        let entries_before = sharded.total_view_entries().unwrap();
        let stats_before = sharded.stats().unwrap();

        let mixed: Vec<(Tuple, i64)> = (0..8)
            .map(|i| (t(&[i, i]), 1))
            .chain([(t(&[9]), 1)]) // wrong arity
            .collect();
        let err = sharded.apply_rows(0, mixed).unwrap_err();
        assert_eq!(err.kind(), "invalid_update");
        assert_eq!(
            sharded.total_view_entries().unwrap(),
            entries_before,
            "a rejected batch must not commit any shard's slice"
        );
        assert_eq!(sharded.stats().unwrap().rows_applied, stats_before.rows_applied);
    }

    #[test]
    fn worker_panic_is_contained_and_poisons_the_engine() {
        use fivm_ring::LiftFn;
        let tree = figure1_tree(false);
        let spec = tree.spec().clone();
        let b = spec.var_id("B").unwrap();
        let mut lifts = apps::count_lifts(&spec);
        // A lift that panics on a sentinel value injects an engine panic on
        // exactly the shard the poisoned row routes to.
        lifts[b] = LiftFn::new("panic_on_666", |v: &fivm_common::Value| {
            if v.as_i64() == Some(666) {
                panic!("injected lift failure");
            }
            1i64
        });
        let mut sharded = ShardedEngine::new(tree, lifts, 2).unwrap();
        sharded.apply_rows(0, vec![(t(&[1, 2]), 1)]).unwrap();

        // The panicking batch returns a typed error on the coordinating
        // thread instead of aborting or hanging it.
        let err = sharded.apply_rows(0, vec![(t(&[1, 666]), 1)]).unwrap_err();
        assert_eq!(err.kind(), "worker_panicked");
        assert!(err.to_string().contains("injected lift failure"));

        // The engine is poisoned: surviving workers were shut down and
        // every subsequent operation reports it (no expects, no deadlock).
        let err = sharded.apply_rows(0, vec![(t(&[1, 2]), 1)]).unwrap_err();
        assert_eq!(err.kind(), "poisoned");
        assert_eq!(sharded.result().unwrap_err().kind(), "poisoned");
        assert_eq!(sharded.stats().unwrap_err().kind(), "poisoned");
        // Dropping the poisoned engine joins cleanly (checked implicitly:
        // the test would hang here if shutdown were broken).
    }

    #[test]
    fn stats_sum_across_shards() {
        let tree = figure1_tree(false);
        let lifts = apps::count_lifts(tree.spec());
        let mut sharded = ShardedEngine::new(tree, lifts, 4).unwrap();
        let rows: Vec<(Tuple, i64)> = (0..40).map(|i| (t(&[i, i]), 1)).collect();
        sharded.apply_rows(0, rows).unwrap();
        let per_shard = sharded.shard_stats().unwrap();
        assert_eq!(per_shard.len(), 4);
        let merged = sharded.stats().unwrap();
        assert_eq!(
            merged.rows_applied,
            per_shard.iter().map(|s| s.rows_applied).sum::<usize>()
        );
        // Hash-routed batch: every input row lands on exactly one shard.
        assert_eq!(merged.rows_applied, 40);
        // Every shard saw exactly one batch.
        assert!(per_shard.iter().all(|s| s.updates_applied == 1));
        assert!(sharded.total_view_entries().unwrap() > 0);
        // The byte gauge sums shard footprints, and every shard that holds
        // keys reports a non-zero footprint.
        assert_eq!(
            merged.table_bytes,
            per_shard.iter().map(|s| s.table_bytes).sum::<usize>()
        );
        assert!(per_shard.iter().all(|s| s.table_bytes > 0));
    }
}
