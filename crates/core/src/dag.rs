//! The propagation driver: one shared maintenance DAG for one ring type.
//!
//! A [`DagEngine`] materializes the views of any number of registered
//! queries in one node pool, unifying structurally equal sub-plans: every
//! view-tree node is identified by its recursive [`NodeFingerprint`]
//! (labeled with the lift names, so equal structure under different
//! aggregates never unifies) and every base-relation leaf by its
//! [`RelationFingerprint`].  Registering a query walks its tree bottom-up,
//! reusing any node whose fingerprint already exists and creating the rest
//! — so two queries whose trees share a prefix share those materialized
//! views, maintained **once** per propagation pass.  It is the only driver
//! of [`crate::kernel`]: [`crate::Engine`] is a handle on a `DagEngine`
//! hosting one query.
//!
//! ## One pass, fan-out at divergence
//!
//! An update batch is **grouped by key** at every leaf of its relation
//! (one delta entry per distinct key; rows that cancel inside the batch
//! never propagate), then propagates *up the DAG*: each affected node joins
//! its affected child's delta against the *materialized* sibling views
//! (the probes fixed by its [`DeltaPlan`]), applies its lift, marginalizes,
//! updates its own view and hands the result to **all** of its parents.
//! Views off the affected path are untouched.  Because fingerprints are
//! recursive and a relation is attached once per query, the affected
//! subgraph is an out-tree rooted at the leaf: every affected node has one
//! affected child, so it is visited once however many queries sit above
//! it.  A delta stays in the pass's arena until its last parent has read
//! it; the arena, the fan-out queue and the delta buffers live in
//! [`PropagationScratch`], so a warm pass allocates nothing of its own,
//! and every key is hashed once and carries its hash (hash-once contract).
//!
//! ## Runtime register / unregister
//!
//! [`DagEngine::register`] works against a live DAG: new leaves are
//! populated from a caller-supplied backfill database (required once
//! updates have flowed) and new inner nodes are evaluated from their
//! children's *materialized* state — child 0's full view is fed through
//! the node's delta plan as one big delta — so no stream replay is needed.
//! [`DagEngine::unregister`] decrements per-node refcounts and retires
//! nodes that hit zero (views dropped, ids recycled), leaving shared
//! survivors untouched.

use crate::delta::DeltaEntry;
use crate::engine::{EngineStats, UpdateOutcome};
use crate::error::{EngineError, EngineResult};
use crate::kernel::{check_row, direct_level, group_row, probe_level, PropagationScratch};
use crate::plan::{child_infos, compile_delta_plan, DeltaPlan, ProbeKind};
use crate::view::MaterializedView;
use fivm_common::{wire, EncodedKey, FivmError, FxHashMap, VarId, WireReader};
use fivm_query::fingerprint::{
    relation_fingerprint, tree_fingerprints_labeled, NodeFingerprint, RelationFingerprint,
};
use fivm_query::{ChildRef, ViewTree};
use fivm_relation::{Database, Relation, Schema, Tuple, Update};
use fivm_ring::{LiftFn, PersistRing, Ring, RingCtx};
use std::borrow::Borrow;
use std::collections::HashMap;

/// Identity of a DAG node: the canonical form of the sub-plan it
/// materializes.  Two queries registering equal keys share one node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum DagKey {
    /// An inner view node (labeled recursive structural fingerprint).
    Inner(NodeFingerprint),
    /// A base-relation leaf.
    Leaf(RelationFingerprint),
}

/// What a DAG node does when a delta reaches it.
enum NodeBody<R: Ring> {
    /// A base-relation leaf: updates addressed to `table` enter here.
    Leaf {
        table: String,
        /// Column variable names in schema order (for binding to a source
        /// table's layout by name).
        col_names: Vec<String>,
        /// Source-table column of each relation variable, once bound.
        binding: Option<Vec<usize>>,
    },
    /// An inner view: joins the affected child's delta against the sibling
    /// views, applies the lift and marginalizes.
    Inner {
        lift: LiftFn<R>,
        /// Child DAG node ids, in the registering query's child order.
        children: Vec<usize>,
        /// One delta plan per child position (probe steps reference DAG
        /// node ids via `DeltaStep::sibling_view`).
        delta_plans: Vec<DeltaPlan>,
    },
}

/// One node of the shared DAG.
struct DagNode<R: Ring> {
    /// Number of registered queries whose plan contains this node.
    refs: usize,
    /// `(parent node id, this node's position among the parent's
    /// children)` — the fan-out edges a produced delta follows.
    parents: Vec<(usize, usize)>,
    body: NodeBody<R>,
}

/// The live node in `nodes[id]`.  Liveness is a refcount invariant: every
/// id handed out by `register` stays live until its last `unregister`, so
/// a dead slot here is engine corruption, not a caller error — panicking
/// in this private helper (not on the public surface) is the contract.
/// Free functions rather than methods so call sites borrow only the
/// `nodes` field, leaving `views`/`scratch`/`stats` free.
fn live_node<R: Ring>(nodes: &[Option<DagNode<R>>], id: usize) -> &DagNode<R> {
    nodes[id].as_ref().expect("node id points at a live slot")
}

fn live_node_mut<R: Ring>(nodes: &mut [Option<DagNode<R>>], id: usize) -> &mut DagNode<R> {
    nodes[id].as_mut().expect("node id points at a live slot")
}

/// A registered query by id — typed error for unknown or retired ids.
fn lookup(queries: &[Option<QueryState>], query: usize) -> EngineResult<&QueryState> {
    queries
        .get(query)
        .and_then(|q| q.as_ref())
        .ok_or_else(|| EngineError::State(format!("unknown query id {query}")))
}

/// Per-registered-query bookkeeping.
pub(crate) struct QueryState {
    pub(crate) tree: ViewTree,
    /// The DAG id of every view the query reads, in **tree order**: view-
    /// tree node `i` at `i`, relation `r`'s leaf at `tree.len() + r`.
    /// Ancestors precede descendants, so this order also retires parents
    /// before children.
    pub(crate) views: Vec<usize>,
}

/// The key variables of the view at tree-order position `i`, in the
/// query's own variable numbering.
fn key_vars_of(tree: &ViewTree, i: usize) -> &[VarId] {
    match i.checked_sub(tree.len()) {
        None => &tree.node(i).key_vars,
        Some(r) => &tree.spec().relation(r).vars,
    }
}

/// Stores `value` in a recycled slot of `slots` (or a new one) and returns
/// its index.
fn store<T>(slots: &mut Vec<Option<T>>, free: &mut Vec<usize>, value: T) -> usize {
    match free.pop() {
        Some(i) => {
            slots[i] = Some(value);
            i
        }
        None => {
            slots.push(Some(value));
            slots.len() - 1
        }
    }
}

/// The distinct DAG ids of a query's views, in tree order.
fn distinct(views: &[usize], num_nodes: usize) -> Vec<usize> {
    let mut seen = vec![false; num_nodes];
    views
        .iter()
        .copied()
        .filter(|&id| !std::mem::replace(&mut seen[id], true))
        .collect()
}

/// The shared multi-query maintenance DAG for ring `R` (see module docs).
pub struct DagEngine<R: Ring> {
    ctx: RingCtx,
    /// Node pool; retired slots are `None` and reused.
    nodes: Vec<Option<DagNode<R>>>,
    /// Materialized view of each node (parallel to `nodes`; retired slots
    /// hold an empty view so their bytes are released).
    views: Vec<MaterializedView<R>>,
    by_key: HashMap<DagKey, usize>,
    /// Live leaves by table name — maintained by `register`/`unregister`,
    /// so routing an update never scans the node pool.
    tables: FxHashMap<String, Vec<usize>>,
    free_ids: Vec<usize>,
    queries: Vec<Option<QueryState>>,
    free_queries: Vec<usize>,
    scratch: PropagationScratch<R>,
    stats: EngineStats,
    /// Whether any data has flowed (load, update or restore) — after which
    /// new leaves require a backfill database.
    touched: bool,
}

impl<R: Ring> DagEngine<R> {
    /// An empty DAG with a fresh dictionary.
    pub fn new() -> Self {
        Self::new_with_ctx(RingCtx::new())
    }

    /// An empty DAG over an explicit ring context.  Lift sets that encode
    /// ring-interior keys (the relational rings) must be built against this
    /// context — the encoded values the driver hands to lifts on the hot
    /// path are only meaningful under its own dictionary (one dictionary
    /// per DAG is the ring-key contract).
    pub fn new_with_ctx(ctx: RingCtx) -> Self {
        DagEngine {
            ctx,
            nodes: Vec::new(),
            views: Vec::new(),
            by_key: HashMap::new(),
            tables: FxHashMap::default(),
            free_ids: Vec::new(),
            queries: Vec::new(),
            free_queries: Vec::new(),
            scratch: PropagationScratch::default(),
            stats: EngineStats::default(),
            touched: false,
        }
    }

    /// The DAG's ring context (shared dictionary handle).
    pub fn ctx(&self) -> &RingCtx {
        &self.ctx
    }

    /// Number of live (non-retired) DAG nodes.
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Number of registered queries.
    pub fn live_queries(&self) -> usize {
        self.queries.iter().filter(|q| q.is_some()).count()
    }

    /// Whether any live leaf accepts updates addressed to `table`.
    pub fn has_table(&self, table: &str) -> bool {
        self.tables.contains_key(table)
    }

    /// The reference count of a DAG node, `None` if the id is retired or
    /// out of range (introspection for the churn suite).
    pub fn node_refcount(&self, id: usize) -> Option<usize> {
        self.nodes.get(id).and_then(|n| n.as_ref()).map(|n| n.refs)
    }

    /// The distinct DAG node ids a registered query owns a reference on.
    pub fn query_nodes(&self, query: usize) -> EngineResult<Vec<usize>> {
        Ok(distinct(
            &lookup(&self.queries, query)?.views,
            self.nodes.len(),
        ))
    }

    /// Work counters.  `rehashes`, `ring_rehashes` and `table_bytes` are
    /// read live from the view tables and `scratch_bytes` from the
    /// propagation scratch; the other counters accumulate on the
    /// maintenance path and cover work on *shared* levels once per pass,
    /// however many queries consume them (see the DAG contract in
    /// ROADMAP.md for how to read them).
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats;
        stats.rehashes = self.views.iter().map(|v| v.rehashes()).sum::<u64>() as usize;
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

    /// The state of a query a handle holds the id of.  Handle ids are live
    /// for the handle's lifetime (it never unregisters), so a miss is
    /// engine corruption — see `live_node` for why this may panic.
    pub(crate) fn state(&self, query: usize) -> &QueryState {
        self.queries[query]
            .as_ref()
            .expect("a handle's query stays registered")
    }

    fn alloc_node(&mut self, view: MaterializedView<R>, body: NodeBody<R>) -> usize {
        let node = DagNode {
            refs: 0,
            parents: Vec::new(),
            body,
        };
        let id = store(&mut self.nodes, &mut self.free_ids, node);
        match self.views.get_mut(id) {
            Some(slot) => *slot = view,
            None => self.views.push(view),
        }
        id
    }

    /// Registers a query (its view tree plus one lift per variable, built
    /// against [`DagEngine::ctx`] where the ring requires it) and returns
    /// its query id.
    ///
    /// Nodes whose fingerprints already exist in the DAG are shared; new
    /// nodes are created and — on a DAG that already holds data —
    /// *backfilled* from materialized state: new leaves load from
    /// `backfill` (required once updates have flowed; the database must
    /// contain the new relations' full history), and new inner nodes are
    /// evaluated from their children's views with no stream replay.  An
    /// invalid registration leaves the DAG untouched.
    pub fn register(
        &mut self,
        tree: ViewTree,
        lifts: Vec<LiftFn<R>>,
        backfill: Option<&Database>,
    ) -> EngineResult<usize> {
        let spec = tree.spec();
        if lifts.len() != spec.num_vars() {
            return Err(FivmError::InvalidQuery(format!(
                "expected {} lifts (one per variable), got {}",
                spec.num_vars(),
                lifts.len()
            ))
            .into());
        }
        // Validate before touching shared state: a dry run compiles every
        // delta plan over tree-order view numbers, registering no index.
        // The compilation below (same covers, same local variables) cannot
        // fail where this one passed.
        let tree_view = |c: &ChildRef| match c {
            ChildRef::View(v) => *v,
            ChildRef::Relation(r) => tree.len() + r,
        };
        for node in tree.nodes() {
            let children = child_infos(&tree, node, tree_view);
            for j in 0..children.len() {
                compile_delta_plan(node, &children, j, &mut |_, _| 0)?;
            }
        }

        // Pre-flight the backfill discipline for new leaves.
        for r in 0..spec.num_relations() {
            if self
                .by_key
                .contains_key(&DagKey::Leaf(relation_fingerprint(spec, r)))
            {
                continue;
            }
            let def = spec.relation(r);
            match backfill {
                None if self.touched => {
                    return Err(EngineError::State(format!(
                        "registering new relation `{}` on a DAG with applied data \
                         requires a backfill database",
                        def.name
                    )));
                }
                Some(db) => {
                    let table = db.table(&def.name).ok_or_else(|| {
                        EngineError::State(format!(
                            "backfill database has no table named `{}`",
                            def.name
                        ))
                    })?;
                    for &v in &def.vars {
                        let name = spec.var_name(v);
                        if table.schema.position(name).is_none() {
                            return Err(EngineError::State(format!(
                                "backfill table `{}` has no column `{name}`",
                                def.name
                            )));
                        }
                    }
                }
                None => {}
            }
        }

        let fps = tree_fingerprints_labeled(&tree, &|v| lifts[v].name().to_string());
        // Leaves: get-or-create.  View keys use this query's VarIds — the
        // compiled plans are position-only, so sharing across queries with
        // different VarId numberings is sound.
        let mut created: Vec<usize> = Vec::new();
        let mut views = vec![usize::MAX; tree.len() + spec.num_relations()];
        for r in 0..spec.num_relations() {
            let key = DagKey::Leaf(relation_fingerprint(spec, r));
            views[tree.len() + r] = match self.by_key.get(&key) {
                Some(&id) => id,
                None => {
                    let def = spec.relation(r);
                    let body = NodeBody::Leaf {
                        table: def.name.clone(),
                        col_names: def
                            .vars
                            .iter()
                            .map(|&v| spec.var_name(v).to_string())
                            .collect(),
                        binding: None,
                    };
                    let id = self.alloc_node(MaterializedView::new(def.vars.clone()), body);
                    self.by_key.insert(key, id);
                    self.tables.entry(def.name.clone()).or_default().push(id);
                    created.push(id);
                    id
                }
            };
        }

        // Inner nodes bottom-up: children exist (larger tree indices) when
        // their parent is assembled.
        let mut max_depth = 0usize;
        let mut max_locals = 0usize;
        for idx in tree.bottom_up() {
            let vnode = tree.node(idx);
            let key = DagKey::Inner(fps[idx].clone());
            views[idx] = match self.by_key.get(&key) {
                Some(&id) => {
                    // Fingerprint hit: the DAG contract's "equal names ⟺
                    // equal behavior" leap.  Debug builds verify the
                    // checkable part — the unified node's lift must have
                    // the same behavior shape as the one this query
                    // supplied (backstops the lift-name-dup lint rule).
                    #[cfg(debug_assertions)]
                    if let NodeBody::Inner { lift, .. } = &live_node(&self.nodes, id).body {
                        debug_assert!(
                            lift.same_behavior_shape(&lifts[vnode.var]),
                            "DAG fingerprint unified lift `{}` with `{}`, but their \
                             checkable shapes (identity flag / fma channel set) differ",
                            lifts[vnode.var].name(),
                            lift.name(),
                        );
                    }
                    id
                }
                None => {
                    let children_info = child_infos(&tree, vnode, |c| views[tree_view(c)]);
                    let mut delta_plans = Vec::with_capacity(children_info.len());
                    for j in 0..children_info.len() {
                        // Secondary indexes register directly on the shared
                        // sibling views; `ensure_index` dedupes identical
                        // column lists and stays deferred until first probed.
                        let shared = &mut self.views;
                        let dp =
                            compile_delta_plan(vnode, &children_info, j, &mut |sibling, cols| {
                                shared[sibling].ensure_index(cols)
                            })?;
                        max_depth = max_depth.max(dp.steps.len());
                        delta_plans.push(dp);
                    }
                    max_locals = max_locals.max(vnode.local_vars.len());
                    let body = NodeBody::Inner {
                        lift: lifts[vnode.var].clone(),
                        children: children_info.iter().map(|c| c.view_idx).collect(),
                        delta_plans,
                    };
                    let id = self.alloc_node(MaterializedView::new(vnode.key_vars.clone()), body);
                    for (pos, c) in children_info.iter().enumerate() {
                        live_node_mut(&mut self.nodes, c.view_idx)
                            .parents
                            .push((id, pos));
                    }
                    self.by_key.insert(key, id);
                    created.push(id);
                    id
                }
            };
        }

        // Take one reference per distinct node.
        for id in distinct(&views, self.nodes.len()) {
            live_node_mut(&mut self.nodes, id).refs += 1;
        }

        // Grow the shared scratch to the new plan's depth/width.
        let pool_enabled = lifts.iter().any(|l| !l.is_identity());
        self.scratch.grow(max_depth, max_locals, pool_enabled);

        // Backfill new leaves from the database (no propagation: a new
        // leaf's parents are all new inner nodes, evaluated next).
        if let Some(db) = backfill {
            for &id in &created {
                let NodeBody::Leaf { table, .. } = &live_node(&self.nodes, id).body else {
                    continue;
                };
                // Pre-flighted at the top of `register`.
                let Some(table) = db.table(table) else {
                    continue;
                };
                self.bind_leaf(id, &table.schema)?;
                self.group_rows(id, &table.rows)?;
                let buf = self.take_produced(None);
                self.apply_to_view(id, &buf);
                self.scratch.recycle_buffer(buf);
            }
        }

        // Evaluate new inner nodes bottom-up from their children's
        // materialized state: child 0's full view fed through the node's
        // delta plan is exactly the view definition.  (Nothing to evaluate
        // — and no index to build — while child 0 is empty.)
        for &id in &created {
            let NodeBody::Inner {
                lift,
                children,
                delta_plans,
            } = &live_node(&self.nodes, id).body
            else {
                continue;
            };
            let child0 = children[0];
            if self.views[child0].is_empty() {
                continue;
            }
            build_probed_indexes(&mut self.views, &mut self.stats, &delta_plans[0]);
            let mut input = self.scratch.spare.pop().unwrap_or_default();
            for (hash, key, payload) in self.views[child0].iter_hashed() {
                input.push((hash, key.clone(), payload.clone()));
            }
            produce_level(
                &self.views,
                &self.ctx,
                &delta_plans[0],
                lift,
                &input,
                &mut self.scratch,
                &mut self.stats,
            );
            let out = self.take_produced(None);
            self.apply_to_view(id, &out);
            self.scratch.recycle_buffer(input);
            self.scratch.recycle_buffer(out);
        }
        // A backfill is a load-sized pass like any other.
        self.scratch.trim();

        let state = QueryState { tree, views };
        Ok(store(&mut self.queries, &mut self.free_queries, state))
    }

    /// Unregisters a query: drops one reference from every node it owns
    /// and retires nodes whose refcount reaches zero — views are replaced
    /// by empty ones (releasing their `table_bytes`), fan-out edges into
    /// the retired node are removed from surviving children, and slot ids
    /// are recycled.  Shared survivors are untouched.
    pub fn unregister(&mut self, query: usize) -> EngineResult<()> {
        let state = self
            .queries
            .get_mut(query)
            .and_then(Option::take)
            .ok_or_else(|| EngineError::State(format!("unknown query id {query}")))?;
        self.free_queries.push(query);
        // Tree order retires parents before children, so a retired parent
        // unlinks itself from still-live children.
        for id in distinct(&state.views, self.nodes.len()) {
            let node = live_node_mut(&mut self.nodes, id);
            node.refs -= 1;
            if node.refs > 0 {
                continue;
            }
            let Some(node) = self.nodes[id].take() else {
                unreachable!("slot checked live just above")
            };
            self.by_key.retain(|_, v| *v != id);
            match &node.body {
                NodeBody::Inner { children, .. } => {
                    for &c in children {
                        if let Some(child) = self.nodes[c].as_mut() {
                            child.parents.retain(|&(p, _)| p != id);
                        }
                    }
                }
                NodeBody::Leaf { table, .. } => {
                    if let Some(leaves) = self.tables.get_mut(table) {
                        leaves.retain(|&l| l != id);
                        if leaves.is_empty() {
                            self.tables.remove(table);
                        }
                    }
                }
            }
            self.views[id] = MaterializedView::new(Vec::new());
            self.free_ids.push(id);
        }
        Ok(())
    }

    /// Binds a leaf to the column layout of a source table: each relation
    /// variable is matched to the table column with the same name.
    pub(crate) fn bind_leaf(&mut self, leaf: usize, schema: &Schema) -> EngineResult<()> {
        let NodeBody::Leaf {
            table,
            col_names,
            binding,
        } = &mut live_node_mut(&mut self.nodes, leaf).body
        else {
            unreachable!("bind_leaf is only called on leaves")
        };
        let cols = col_names
            .iter()
            .map(|n| {
                schema.position(n).ok_or_else(|| {
                    FivmError::InvalidUpdate(format!(
                        "table bound to relation `{table}` has no column `{n}`"
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        *binding = Some(cols);
        Ok(())
    }

    /// Loads an initial database: every live leaf binds to the table with
    /// its relation's name (by column name) and the table's rows propagate
    /// as inserts through the whole DAG.
    pub fn load_database(&mut self, db: &Database) -> EngineResult<()> {
        for leaf in 0..self.nodes.len() {
            let Some(DagNode {
                body: NodeBody::Leaf { table, .. },
                ..
            }) = &self.nodes[leaf]
            else {
                continue;
            };
            let table = db.table(table).ok_or_else(|| {
                FivmError::InvalidUpdate(format!("database has no table named `{table}`"))
            })?;
            self.bind_leaf(leaf, &table.schema)?;
            self.apply_leaf(leaf, &table.rows)?;
        }
        self.touched = true;
        Ok(())
    }

    /// Applies an update batch addressed by table name — **one** pass over
    /// the DAG per matching leaf, fanning out to every query above it.
    pub fn apply_update(&mut self, update: &Update) -> EngineResult<UpdateOutcome> {
        let name = update.table.as_str();
        let leaves = self.tables.get(name).map_or(0, Vec::len);
        if leaves == 0 {
            return Err(FivmError::InvalidUpdate(format!(
                "update targets unknown relation `{name}`"
            ))
            .into());
        }
        let mut outcome = UpdateOutcome::default();
        for i in 0..leaves {
            let leaf = self.tables[name][i];
            outcome = outcome.merge(&self.apply_leaf(leaf, &update.rows)?);
        }
        Ok(outcome)
    }

    /// Whether [`DagEngine::apply_update`] would accept `update`, decided
    /// without touching any state: the table feeds a live leaf, and every
    /// row with a non-zero multiplicity has the shape each of that table's
    /// leaves requires ([`check_row`]).  `apply_update` fails exactly when
    /// this does — a write-ahead log calls it before appending, so it never
    /// holds a batch the state would refuse on replay.
    pub fn check_update(&self, update: &Update) -> EngineResult<()> {
        let name = update.table.as_str();
        let Some(leaves) = self.tables.get(name) else {
            return Err(FivmError::InvalidUpdate(format!(
                "update targets unknown relation `{name}`"
            ))
            .into());
        };
        for &leaf in leaves {
            if let NodeBody::Leaf {
                col_names, binding, ..
            } = &live_node(&self.nodes, leaf).body
            {
                for (row, mult) in &update.rows {
                    if *mult != 0 {
                        check_row(binding.as_deref(), col_names.len(), row)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies `(row, multiplicity)` changes entering at one leaf: the
    /// rows are grouped by key, the grouped delta propagates up the DAG,
    /// and the scratch is trimmed so what the batch leaves allocated is
    /// bounded by `SCRATCH_KEEP_BYTES`, not by the batch.
    pub(crate) fn apply_leaf<T: Borrow<(Tuple, i64)>>(
        &mut self,
        leaf: usize,
        rows: impl IntoIterator<Item = T>,
    ) -> EngineResult<UpdateOutcome> {
        let input_rows = self.group_rows(leaf, rows)?;
        self.touched = true;
        let outcome = self.propagate(leaf, input_rows);
        self.scratch.trim();
        Ok(outcome)
    }

    /// Groups rows entering at `leaf` into `scratch.next`, encoding them
    /// through the leaf's binding; returns the number of input rows.
    fn group_rows<T: Borrow<(Tuple, i64)>>(
        &mut self,
        leaf: usize,
        rows: impl IntoIterator<Item = T>,
    ) -> EngineResult<usize> {
        let NodeBody::Leaf {
            col_names, binding, ..
        } = &live_node(&self.nodes, leaf).body
        else {
            unreachable!("rows only enter at leaves")
        };
        let one = R::one();
        let mut input_rows = 0usize;
        // One dictionary lock per batch; `group_row` performs no ring or
        // lift calls that could re-enter the context (ring ops are
        // dictionary-free by contract).
        let mut dict = self.ctx.lock();
        for row in rows {
            let (row, mult) = row.borrow();
            input_rows += 1;
            group_row(
                &mut self.scratch.next,
                &mut dict,
                &mut self.stats,
                &one,
                binding.as_deref(),
                col_names.len(),
                row,
                *mult,
            )?;
        }
        Ok(input_rows)
    }

    /// The pass itself (see module docs for why the affected subgraph is
    /// an out-tree and each node is visited once): applies the grouped
    /// delta waiting in `scratch.next` to the leaf view, then propagates it
    /// breadth-first up every fan-out edge.
    fn propagate(&mut self, leaf: usize, input_rows: usize) -> UpdateOutcome {
        self.stats.updates_applied += 1;
        self.stats.rows_applied += input_rows;
        let mut outcome = UpdateOutcome {
            input_rows,
            delta_entries: 0,
        };
        // The arena and the queue are scratch buffers lent to this pass
        // (taking a `Vec` out allocates nothing).  `queue` entries are
        // `(node, child position, arena index of the child's delta)`; a
        // delta's edges are queued together, so they are read back to back.
        let mut arena = std::mem::take(&mut self.scratch.arena);
        let mut queue = std::mem::take(&mut self.scratch.queue);
        // The emptied buffer the next finished level is swapped into: the
        // buffer of the delta last consumed, so along a chain two buffers
        // alternate and a warm pass allocates nothing.
        let mut free: Option<Vec<DeltaEntry<R>>> = None;
        let mut head = 0;
        let mut node = leaf;
        loop {
            // `node`'s delta is waiting in `scratch.next`: apply it to the
            // node's view, then hand it to every parent (the arena keeps it
            // alive until the last of them has read it).
            let mut out = self.take_produced(free.take());
            self.apply_to_view(node, &out);
            outcome.delta_entries += out.len();
            let parents = &live_node(&self.nodes, node).parents;
            if out.is_empty() || parents.is_empty() {
                self.scratch.clear_buffer(&mut out);
                free = Some(out);
            } else {
                for &(p, pos) in parents {
                    queue.push((p, pos, arena.len()));
                }
                arena.push(out);
            }

            let Some(&(parent, child_pos, delta)) = queue.get(head) else {
                break;
            };
            head += 1;
            node = parent;
            let NodeBody::Inner {
                lift, delta_plans, ..
            } = &live_node(&self.nodes, node).body
            else {
                unreachable!("leaves have no children")
            };
            let dp = &delta_plans[child_pos];
            // Deferred indexes this level probes are built first (mutable
            // view phase), then the level is produced (views immutable).
            build_probed_indexes(&mut self.views, &mut self.stats, dp);
            produce_level(
                &self.views,
                &self.ctx,
                dp,
                lift,
                &arena[delta],
                &mut self.scratch,
                &mut self.stats,
            );
            if queue.get(head).is_none_or(|&(_, _, d)| d != delta) {
                // That was the delta's last reader.
                let mut done = std::mem::take(&mut arena[delta]);
                self.scratch.clear_buffer(&mut done);
                if let Some(extra) = free.replace(done) {
                    self.scratch.recycle_buffer(extra);
                }
            }
        }
        if let Some(buf) = free {
            self.scratch.recycle_buffer(buf);
        }
        // Every arena slot was taken by its last reader.
        arena.clear();
        queue.clear();
        self.scratch.arena = arena;
        self.scratch.queue = queue;
        self.stats.delta_entries += outcome.delta_entries;
        outcome
    }

    /// Adds a level's delta into a node's view.
    fn apply_to_view(&mut self, id: usize, delta: &[DeltaEntry<R>]) {
        for (hash, key, payload) in delta {
            if self.views[id].add_encoded(*hash, key, payload) {
                self.stats.ring_adds += 1;
            }
        }
    }

    /// Ends the level accumulated in `scratch.next`: keys whose payloads
    /// cancelled to zero are dropped and the rest — hashes and first-arrival
    /// order intact — are returned in `empty` (or a spare buffer), by swap
    /// whatever the delta's size.
    fn take_produced(&mut self, empty: Option<Vec<DeltaEntry<R>>>) -> Vec<DeltaEntry<R>> {
        let mut out = empty.unwrap_or_else(|| self.scratch.spare.pop().unwrap_or_default());
        self.scratch.next.finish_into(&mut out, |p| !p.is_zero());
        out
    }

    /// A query's result for queries without group-by variables: the
    /// product of its root views' payloads at the empty key.
    pub fn result(&self, query: usize) -> EngineResult<R> {
        Ok(self.result_of(lookup(&self.queries, query)?))
    }

    pub(crate) fn result_of(&self, st: &QueryState) -> R {
        let empty = EncodedKey::empty();
        let hash = empty.fx_hash();
        let mut acc = R::one();
        for &root in st.tree.roots() {
            match self.views[st.views[root]].get_encoded(hash, &empty) {
                Some(p) => acc = acc.mul(p),
                None => return R::zero(),
            }
        }
        acc
    }

    /// A query's result as a relation over its free variables (general
    /// form; a singleton over the empty key without group-by).  Keys are
    /// decoded through the DAG's dictionary in the query's own variable
    /// numbering.
    pub fn result_relation(&self, query: usize) -> EngineResult<Relation<R>> {
        Ok(self.relation_of(lookup(&self.queries, query)?))
    }

    pub(crate) fn relation_of(&self, st: &QueryState) -> Relation<R> {
        self.roots_of(st)
            .into_iter()
            .reduce(|acc, rel| acc.natural_join(&rel))
            .unwrap_or_else(|| {
                let mut r = Relation::new(Vec::new());
                r.add(Vec::new().into_boxed_slice(), R::one());
                r
            })
    }

    /// The materialized views of a query's roots, as relations (useful for
    /// inspecting shared sinks in tests).
    pub fn root_relations(&self, query: usize) -> EngineResult<Vec<Relation<R>>> {
        Ok(self.roots_of(lookup(&self.queries, query)?))
    }

    fn roots_of(&self, st: &QueryState) -> Vec<Relation<R>> {
        st.tree
            .roots()
            .iter()
            .map(|&root| {
                let view = &self.views[st.views[root]];
                self.ctx.with_dict(|dict| {
                    Relation::from_entries(
                        st.tree.node(root).key_vars.clone(),
                        view.iter().map(|(k, p)| (dict.decode_key(k), p.clone())),
                    )
                })
            })
            .collect()
    }

    /// One materialized view by DAG id, as a relation (an output boundary:
    /// keys are decoded through the dictionary).
    pub(crate) fn view_relation(&self, id: usize) -> Relation<R> {
        self.ctx.with_dict(|dict| self.views[id].to_relation(dict))
    }

    /// Number of keys stored across a query's views.
    pub(crate) fn entries_of(&self, st: &QueryState) -> usize {
        st.views.iter().map(|&id| self.views[id].len()).sum()
    }
}

/// Version of the engine-state wire format written by
/// [`DagEngine::save_state`].
const STATE_VERSION: u32 = 1;

/// Snapshot save/restore of one query, available for rings that implement
/// [`PersistRing`] (the shipped payload rings).  The byte body produced
/// here carries **no framing or checksums** — `fivm_cdc::snapshot` wraps it
/// in length + CRC framing before it touches disk; this layer only defines
/// what the state *is*.
impl<R: PersistRing> DagEngine<R> {
    /// Serializes a query's complete materialized state: a plan
    /// fingerprint (ring tag, per-view key variables in tree order, lift
    /// count), the dictionary (strings in id order, so every encoded word
    /// in the state stays valid on restore), and every view's live entries
    /// as `(stored hash, encoded key, ring payload)`, views in the query's
    /// tree order (nodes, then one leaf per relation).
    ///
    /// Not serialized: the plan itself and the lifts (code, reconstructed
    /// by registering the query the same way), table bindings (the
    /// recovery flow re-binds from schema information it already owns),
    /// accumulated [`EngineStats`] counters (work counters restart from
    /// zero; the live gauges are recomputed from the restored tables), and
    /// secondary-index bucket maps (restored views keep their indexes
    /// *deferred* and rebuild them on first probe, exactly like a cold
    /// engine).
    pub fn save_state(&self, query: usize, out: &mut Vec<u8>) -> EngineResult<()> {
        self.save_of(lookup(&self.queries, query)?, out);
        Ok(())
    }

    pub(crate) fn save_of(&self, st: &QueryState, out: &mut Vec<u8>) {
        wire::put_u32(out, STATE_VERSION);
        wire::put_str(out, R::RING_TAG);
        wire::put_u32(out, st.views.len() as u32);
        for i in 0..st.views.len() {
            let vars = key_vars_of(&st.tree, i);
            wire::put_u32(out, vars.len() as u32);
            for &v in vars {
                wire::put_u32(out, v as u32);
            }
        }
        wire::put_u32(out, st.tree.spec().num_vars() as u32);
        self.ctx.with_dict(|dict| wire::put_dict(out, dict));
        for &id in &st.views {
            let view = &self.views[id];
            wire::put_u64(out, view.len() as u64);
            for (hash, key, payload) in view.iter_hashed() {
                wire::put_u64(out, hash);
                wire::put_encoded_key(out, key);
                payload.encode(out);
            }
        }
    }

    /// Restores state saved by [`DagEngine::save_state`] for `query`, which
    /// must be the only query of a DAG that holds no data yet (its lifts
    /// and plan built the same way as the saved query's).
    ///
    /// The restore is rehash-free: each view's primary map is pre-sized
    /// ([`MaterializedView::reserve_restore`]) and entries are re-bucketed
    /// from their stored hashes, so after the call `rehashes` and
    /// `ring_rehashes` read 0 — the hash-once contract survives the
    /// restart.  Fingerprint mismatches return [`EngineError::State`];
    /// truncated or corrupt bytes return [`EngineError::Corrupt`] with the
    /// DAG left in an unspecified but memory-safe state (a recovery driver
    /// discards it on error).
    pub fn load_state(&mut self, query: usize, bytes: &[u8]) -> EngineResult<()> {
        let st = lookup(&self.queries, query)?;
        if self.live_queries() != 1 || self.views.iter().any(|v| !v.is_empty()) {
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
        if num_views != st.views.len() {
            return Err(EngineError::State(format!(
                "snapshot has {num_views} views, engine plan has {}",
                st.views.len()
            )));
        }
        for i in 0..num_views {
            let vars = key_vars_of(&st.tree, i);
            if r.u32()? as usize != vars.len() {
                return Err(EngineError::State("view key arity mismatch".into()));
            }
            for &v in vars {
                if r.u32()? as usize != v {
                    return Err(EngineError::State("view key variables mismatch".into()));
                }
            }
        }
        if r.u32()? as usize != st.tree.spec().num_vars() {
            return Err(EngineError::State("lift count mismatch".into()));
        }
        // Dictionary first: every encoded word decoded below is only
        // meaningful under it.  Replacing (rather than merging) is correct
        // because the DAG is empty and its lifts were built against the
        // same construction path as the saved query's.
        let dict = wire::read_dict(r)?;
        self.ctx.with_dict_mut(|d| *d = dict);
        for &id in &st.views {
            let view = &mut self.views[id];
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
        self.touched = true;
        Ok(())
    }
}

impl<R: Ring> Default for DagEngine<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Ring> std::fmt::Debug for DagEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DagEngine")
            .field("live_nodes", &self.live_nodes())
            .field("live_queries", &self.live_queries())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Builds the deferred secondary indexes a delta plan is about to probe
/// (a no-op bool check once built).  Mutable view access must happen
/// before the immutable probing pass.
fn build_probed_indexes<R: Ring>(
    views: &mut [MaterializedView<R>],
    stats: &mut EngineStats,
    dp: &DeltaPlan,
) {
    for step in &dp.steps {
        if let ProbeKind::Index(i) = step.probe {
            if views[step.sibling_view].ensure_index_built(i) {
                stats.deferred_index_builds += 1;
            }
        }
    }
}

/// Runs one propagation level: joins `input` (the affected child's delta)
/// against the sibling views per `dp`, applies `lift`, marginalizes and
/// leaves the produced delta in `scratch.next`.
fn produce_level<R: Ring>(
    views: &[MaterializedView<R>],
    ctx: &RingCtx,
    dp: &DeltaPlan,
    lift: &LiftFn<R>,
    input: &[DeltaEntry<R>],
    scratch: &mut PropagationScratch<R>,
    stats: &mut EngineStats,
) {
    debug_assert!(scratch.next.is_empty(), "scratch delta not handed over");
    if let Some(direct) = &dp.direct {
        // Probe-free level: the output key is a plain projection of the
        // delta key — no assignment scatter, no probes.  The kernel picks
        // the scalar or columnar path by input size.
        direct_level(
            direct,
            lift,
            ctx,
            input,
            &mut scratch.next,
            &mut scratch.columns,
            &mut scratch.pool,
            stats,
        );
    } else {
        // Probe level: the kernel scatters, probes the sibling views and
        // accumulates — scalar per-row walk or columnar run fusion, by
        // input size and step kinds.
        probe_level(
            views,
            ctx,
            dp,
            lift,
            input,
            &mut scratch.next,
            &mut scratch.columns,
            &mut scratch.memo,
            &mut scratch.assignment,
            &mut scratch.partials,
            &mut scratch.pool,
            scratch.pool_enabled,
            stats,
        );
    }
}
