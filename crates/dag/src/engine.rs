//! The shared maintenance DAG for one ring type.
//!
//! A [`DagEngine`] materializes the views of *many* registered queries in
//! one node pool, unifying structurally equal sub-plans: every view-tree
//! node is identified by its recursive [`NodeFingerprint`] (labeled with
//! the lift names, so equal structure under different aggregates never
//! unifies) and every base-relation leaf by its [`RelationFingerprint`].
//! Registering a query walks its tree bottom-up, reusing any node whose
//! fingerprint already exists and creating the rest — so two queries whose
//! trees share a prefix share those materialized views, maintained **once**
//! per propagation pass.
//!
//! ## One pass, fan-out at divergence
//!
//! An update batch enters at the (single) leaf node of the updated
//! relation and propagates *up the DAG*: each affected node consumes the
//! delta produced by its affected child, joins it against its other
//! (unaffected) sibling views, applies its lift, updates its own view and
//! hands the produced delta to **all** of its parents.  Because node
//! fingerprints are recursive and a relation is attached exactly once per
//! query, the affected subgraph of a pass is an out-tree rooted at the
//! leaf — every affected node has exactly one affected child, so each node
//! is visited once and a shared prefix is maintained once no matter how
//! many queries sit above it.  Per-node deltas are kept in an arena for
//! the duration of the pass so a delta consumed by several parents is
//! computed once.
//!
//! The propagation itself is [`fivm_core::kernel`] — the same grouping,
//! probing and lift-application code the single-tree engine runs, which is
//! why the differential suite can demand bit-identical results.
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

use crate::error::{DagError, DagResult};
use fivm_common::{EncodedKey, FivmError, VarId};
use fivm_core::delta::DeltaEntry;
use fivm_core::kernel::{direct_level, finish_level, group_row, probe_level, PropagationScratch};
use fivm_core::plan::{compile_delta_plan, ChildInfo, DeltaPlan, ExecutionPlan, ProbeKind};
use fivm_core::{EngineStats, MaterializedView, UpdateOutcome};
use fivm_query::fingerprint::{
    relation_fingerprint, tree_fingerprints_labeled, NodeFingerprint, RelationFingerprint,
};
use fivm_query::{ChildRef, QuerySpec, ViewTree};
use fivm_relation::{Database, Relation, Update};
use fivm_ring::{LiftFn, Ring, RingCtx};
use std::collections::{HashMap, VecDeque};

/// Identity of a DAG node: the canonical form of the sub-plan it
/// materializes.  Two queries registering equal keys share one node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum DagKey {
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
    key: DagKey,
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

/// Per-registered-query bookkeeping.
struct QueryState {
    #[allow(dead_code)]
    spec: QuerySpec,
    /// DAG ids of the query's root views (its result sinks).
    roots: Vec<usize>,
    /// Each root view's key variables, in this query's own `VarId`s.
    root_key_vars: Vec<Vec<VarId>>,
    /// Every DAG node the query owns a reference on, in creation order
    /// (leaves first, then inner nodes bottom-up).  Reverse order retires
    /// parents before children.
    nodes: Vec<usize>,
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
    free_ids: Vec<usize>,
    queries: Vec<Option<QueryState>>,
    free_queries: Vec<usize>,
    /// Shared kernel scratch; its `spare` list holds the recycled
    /// per-pass delta buffers (capacity reuse only).
    scratch: PropagationScratch<R>,
    stats: EngineStats,
    /// Whether any data has flowed (load or update) — after which new
    /// leaves require a backfill database.
    touched: bool,
}

impl<R: Ring> DagEngine<R> {
    /// An empty DAG with a fresh dictionary.
    pub fn new() -> Self {
        Self::new_with_ctx(RingCtx::new())
    }

    /// An empty DAG over an explicit ring context.  Lift sets that encode
    /// ring-interior keys (the relational rings) must be built against this
    /// context, exactly as for `Engine::new_with_ctx` — one dictionary per
    /// DAG is the ring-key contract.
    pub fn new_with_ctx(ctx: RingCtx) -> Self {
        DagEngine {
            ctx,
            nodes: Vec::new(),
            views: Vec::new(),
            by_key: HashMap::new(),
            free_ids: Vec::new(),
            queries: Vec::new(),
            free_queries: Vec::new(),
            scratch: PropagationScratch::new(0, 0, false),
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
        self.nodes.iter().flatten().any(|n| match &n.body {
            NodeBody::Leaf { table: t, .. } => t == table,
            _ => false,
        })
    }

    /// The reference count of a DAG node, `None` if the id is retired or
    /// out of range (introspection for the churn suite).
    pub fn node_refcount(&self, id: usize) -> Option<usize> {
        self.nodes.get(id).and_then(|n| n.as_ref()).map(|n| n.refs)
    }

    /// The DAG node ids owned by a registered query, in creation order.
    pub fn query_nodes(&self, query: usize) -> DagResult<Vec<usize>> {
        Ok(self.query(query)?.nodes.clone())
    }

    /// Work counters.  Like the single-tree engine, `rehashes`,
    /// `ring_rehashes` and `table_bytes` are live gauges over the view
    /// tables and `scratch_bytes` one over the propagation scratch; the
    /// accumulating counters cover work on *shared* levels
    /// once per pass, however many queries consume them (see the DAG
    /// contract in ROADMAP.md for how to read them).
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

    fn query(&self, query: usize) -> DagResult<&QueryState> {
        self.queries
            .get(query)
            .and_then(|q| q.as_ref())
            .ok_or_else(|| DagError::State(format!("unknown query id {query}")))
    }

    fn alloc_node(
        &mut self,
        key: DagKey,
        view: MaterializedView<R>,
        body: NodeBody<R>,
    ) -> usize {
        let node = DagNode {
            key,
            refs: 0,
            parents: Vec::new(),
            body,
        };
        match self.free_ids.pop() {
            Some(id) => {
                self.nodes[id] = Some(node);
                self.views[id] = view;
                id
            }
            None => {
                self.nodes.push(Some(node));
                self.views.push(view);
                self.nodes.len() - 1
            }
        }
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
    /// evaluated from their children's views with no stream replay.
    pub fn register(
        &mut self,
        tree: ViewTree,
        lifts: Vec<LiftFn<R>>,
        backfill: Option<&Database>,
    ) -> DagResult<usize> {
        let spec = tree.spec().clone();
        if lifts.len() != spec.num_vars() {
            return Err(FivmError::InvalidQuery(format!(
                "expected {} lifts (one per variable), got {}",
                spec.num_vars(),
                lifts.len()
            ))
            .into());
        }
        // Validate the tree compiles before touching shared state: the
        // per-node compilation below cannot fail if this passes (same
        // covers, same local variables).
        ExecutionPlan::compile(tree.clone())?;

        let fps = tree_fingerprints_labeled(&tree, &|v| lifts[v].name().to_string());

        // Pre-flight the backfill discipline for new leaves.
        for r in 0..spec.num_relations() {
            let key = DagKey::Leaf(relation_fingerprint(&spec, r));
            if self.by_key.contains_key(&key) {
                continue;
            }
            let def = spec.relation(r);
            match backfill {
                None if self.touched => {
                    return Err(DagError::State(format!(
                        "registering new relation `{}` on a DAG with applied data \
                         requires a backfill database",
                        def.name
                    )));
                }
                Some(db) => {
                    let table = db.table(&def.name).ok_or_else(|| {
                        DagError::State(format!(
                            "backfill database has no table named `{}`",
                            def.name
                        ))
                    })?;
                    for &v in &def.vars {
                        let name = spec.var_name(v);
                        if table.schema.position(name).is_none() {
                            return Err(DagError::State(format!(
                                "backfill table `{}` has no column `{name}`",
                                def.name
                            )));
                        }
                    }
                }
                None => {}
            }
        }

        // Leaves: get-or-create.  View keys use this query's VarIds — the
        // compiled plans are position-only, so sharing across queries with
        // different VarId numberings is sound.
        let mut created: Vec<usize> = Vec::new();
        let mut owned: Vec<usize> = Vec::new();
        let mut leaf_id: Vec<usize> = Vec::with_capacity(spec.num_relations());
        for r in 0..spec.num_relations() {
            let key = DagKey::Leaf(relation_fingerprint(&spec, r));
            let id = match self.by_key.get(&key) {
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
                    let id =
                        self.alloc_node(key.clone(), MaterializedView::new(def.vars.clone()), body);
                    self.by_key.insert(key, id);
                    created.push(id);
                    id
                }
            };
            leaf_id.push(id);
            owned.push(id);
        }

        // Inner nodes bottom-up: children exist (larger tree indices) when
        // their parent is assembled.
        let mut max_depth = 0usize;
        let mut max_locals = 0usize;
        let mut node_id_of: Vec<usize> = vec![usize::MAX; tree.len()];
        for idx in tree.bottom_up() {
            let vnode = tree.node(idx);
            let key = DagKey::Inner(fps[idx].clone());
            let id = match self.by_key.get(&key) {
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
                    let children_info: Vec<ChildInfo> = vnode
                        .children
                        .iter()
                        .map(|c| match c {
                            ChildRef::View(v) => ChildInfo {
                                view_idx: node_id_of[*v],
                                cover: tree.node(*v).key_vars.clone(),
                            },
                            ChildRef::Relation(r) => ChildInfo {
                                view_idx: leaf_id[*r],
                                cover: spec.relation(*r).vars.clone(),
                            },
                        })
                        .collect();
                    let mut delta_plans = Vec::with_capacity(children_info.len());
                    for j in 0..children_info.len() {
                        // Secondary indexes register directly on the shared
                        // sibling views; `ensure_index` dedupes identical
                        // column lists and stays deferred until first probed.
                        let views = &mut self.views;
                        let dp = compile_delta_plan(
                            vnode.id,
                            vnode.var,
                            &vnode.key_vars,
                            &vnode.local_vars,
                            &children_info,
                            j,
                            &mut |sibling_view, probe_cols| {
                                views[sibling_view].ensure_index(probe_cols)
                            },
                        )?;
                        max_depth = max_depth.max(dp.steps.len());
                        delta_plans.push(dp);
                    }
                    max_locals = max_locals.max(vnode.local_vars.len());
                    let children: Vec<usize> =
                        children_info.iter().map(|c| c.view_idx).collect();
                    let body = NodeBody::Inner {
                        lift: lifts[vnode.var].clone(),
                        children: children.clone(),
                        delta_plans,
                    };
                    let id = self.alloc_node(
                        key.clone(),
                        MaterializedView::new(vnode.key_vars.clone()),
                        body,
                    );
                    self.by_key.insert(key, id);
                    for (pos, &c) in children.iter().enumerate() {
                        live_node_mut(&mut self.nodes, c).parents.push((id, pos));
                    }
                    created.push(id);
                    id
                }
            };
            node_id_of[idx] = id;
            owned.push(id);
        }

        // Take one reference per distinct node.
        let mut seen = vec![false; self.nodes.len()];
        owned.retain(|&id| !std::mem::replace(&mut seen[id], true));
        for &id in &owned {
            live_node_mut(&mut self.nodes, id).refs += 1;
        }

        // Grow the shared scratch to the new plan's depth/width.
        let pool_enabled = lifts.iter().any(|l| !l.is_identity());
        self.scratch.grow(max_depth, max_locals, pool_enabled);

        // Backfill new leaves from the database (no propagation: a new
        // leaf's parents are all new inner nodes, evaluated next).
        if let Some(db) = backfill {
            for &id in &created {
                let Some(node) = self.nodes[id].as_mut() else {
                    continue;
                };
                let NodeBody::Leaf {
                    table,
                    col_names,
                    binding,
                } = &mut node.body
                else {
                    continue;
                };
                // Pre-flighted at the top of `register`, so these misses
                // are unreachable; typed errors keep the public surface
                // panic-free anyway.
                let Some(table) = db.table(table) else {
                    return Err(DagError::State(format!(
                        "backfill table `{table}` disappeared between pre-flight and bind"
                    )));
                };
                let cols: Vec<usize> = col_names
                    .iter()
                    .map(|n| {
                        table.schema.position(n).ok_or_else(|| {
                            DagError::State(format!(
                                "backfill column `{n}` disappeared between pre-flight and bind"
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                *binding = Some(cols.clone());
                let one = R::one();
                {
                    let mut dict = self.ctx.lock();
                    for (row, mult) in &table.rows {
                        group_row(
                            &mut self.scratch.next,
                            &mut dict,
                            &mut self.stats,
                            &one,
                            Some(&cols),
                            cols.len(),
                            row,
                            *mult,
                        )?;
                    }
                }
                let buf = self.take_produced();
                for (hash, key, payload) in buf.iter() {
                    if self.views[id].add_encoded(*hash, key, payload) {
                        self.stats.ring_adds += 1;
                    }
                }
                self.scratch.recycle_buffer(buf);
            }
        }

        // Evaluate new inner nodes bottom-up from their children's
        // materialized state: child 0's full view fed through the node's
        // delta plan is exactly the view definition.
        for &id in &created {
            let Some(node) = self.nodes[id].as_ref() else {
                continue;
            };
            let NodeBody::Inner {
                children,
                delta_plans,
                ..
            } = &node.body
            else {
                continue;
            };
            let child0 = children[0];
            let index_builds: Vec<(usize, usize)> = delta_plans[0]
                .steps
                .iter()
                .filter_map(|s| match s.probe {
                    ProbeKind::Index(i) => Some((s.sibling_view, i)),
                    ProbeKind::Primary => None,
                })
                .collect();
            for (sibling, i) in index_builds {
                if self.views[sibling].ensure_index_built(i) {
                    self.stats.deferred_index_builds += 1;
                }
            }
            let mut input = self.scratch.spare.pop().unwrap_or_default();
            for (hash, key, payload) in self.views[child0].iter_hashed() {
                input.push((hash, key.clone(), payload.clone()));
            }
            {
                let node = live_node(&self.nodes, id);
                let NodeBody::Inner {
                    lift, delta_plans, ..
                } = &node.body
                else {
                    unreachable!("checked above")
                };
                produce_level(
                    &self.views,
                    &self.ctx,
                    &delta_plans[0],
                    lift,
                    &input,
                    &mut self.scratch,
                    &mut self.stats,
                );
            }
            let out = self.take_produced();
            for (hash, key, payload) in out.iter() {
                if self.views[id].add_encoded(*hash, key, payload) {
                    self.stats.ring_adds += 1;
                }
            }
            self.scratch.recycle_buffer(input);
            self.scratch.recycle_buffer(out);
        }
        // A backfill is a load-sized pass like any other.
        self.scratch.trim();

        let roots: Vec<usize> = tree.roots().iter().map(|&r| node_id_of[r]).collect();
        let root_key_vars: Vec<Vec<VarId>> = tree
            .roots()
            .iter()
            .map(|&r| tree.node(r).key_vars.clone())
            .collect();
        let state = QueryState {
            spec,
            roots,
            root_key_vars,
            nodes: owned,
        };
        let qid = match self.free_queries.pop() {
            Some(q) => {
                self.queries[q] = Some(state);
                q
            }
            None => {
                self.queries.push(Some(state));
                self.queries.len() - 1
            }
        };
        Ok(qid)
    }

    /// Unregisters a query: drops one reference from every node it owns
    /// and retires nodes whose refcount reaches zero — views are replaced
    /// by empty ones (releasing their `table_bytes`), fan-out edges into
    /// the retired node are removed from surviving children, and slot ids
    /// are recycled.  Shared survivors are untouched.
    pub fn unregister(&mut self, query: usize) -> DagResult<()> {
        let state = self
            .queries
            .get_mut(query)
            .and_then(Option::take)
            .ok_or_else(|| DagError::State(format!("unknown query id {query}")))?;
        self.free_queries.push(query);
        for &id in &state.nodes {
            live_node_mut(&mut self.nodes, id).refs -= 1;
        }
        // Reverse creation order = parents before children, so a retired
        // parent unlinks itself from still-live children.
        for &id in state.nodes.iter().rev() {
            if live_node(&self.nodes, id).refs > 0 {
                continue;
            }
            let Some(node) = self.nodes[id].take() else {
                unreachable!("slot checked live just above")
            };
            self.by_key.remove(&node.key);
            if let NodeBody::Inner { children, .. } = &node.body {
                for &c in children {
                    if let Some(child) = self.nodes[c].as_mut() {
                        child.parents.retain(|&(p, _)| p != id);
                    }
                }
            }
            self.views[id] = MaterializedView::new(Vec::new());
            self.free_ids.push(id);
        }
        Ok(())
    }

    /// Loads an initial database: every live leaf binds to the table with
    /// its relation's name (by column name) and the table's rows propagate
    /// as inserts through the whole DAG.
    pub fn load_database(&mut self, db: &Database) -> DagResult<()> {
        let leaves: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.as_ref().map(|n| &n.body), Some(NodeBody::Leaf { .. })))
            .map(|(i, _)| i)
            .collect();
        for leaf in leaves {
            let (table_name, col_names) = match &live_node(&self.nodes, leaf).body {
                NodeBody::Leaf {
                    table, col_names, ..
                } => (table.clone(), col_names.clone()),
                NodeBody::Inner { .. } => unreachable!("filtered to leaves"),
            };
            let table = db.table(&table_name).ok_or_else(|| {
                FivmError::InvalidUpdate(format!("database has no table named `{table_name}`"))
            })?;
            let cols = col_names
                .iter()
                .map(|n| {
                    table.schema.position(n).ok_or_else(|| {
                        FivmError::InvalidUpdate(format!(
                            "table bound to relation `{table_name}` has no column `{n}`"
                        ))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            match &mut live_node_mut(&mut self.nodes, leaf).body {
                NodeBody::Leaf { binding, .. } => *binding = Some(cols.clone()),
                NodeBody::Inner { .. } => unreachable!("filtered to leaves"),
            }
            let one = R::one();
            let mut input_rows = 0usize;
            {
                let mut dict = self.ctx.lock();
                for (row, mult) in &table.rows {
                    input_rows += 1;
                    group_row(
                        &mut self.scratch.next,
                        &mut dict,
                        &mut self.stats,
                        &one,
                        Some(&cols),
                        cols.len(),
                        row,
                        *mult,
                    )?;
                }
            }
            self.propagate_from_leaf(leaf, input_rows);
        }
        self.touched = true;
        Ok(())
    }

    /// Applies an update batch addressed by table name — **one** pass over
    /// the DAG per matching leaf, fanning out to every query above it.
    pub fn apply_update(&mut self, update: &Update) -> DagResult<UpdateOutcome> {
        let leaves: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| match n.as_ref().map(|n| &n.body) {
                Some(NodeBody::Leaf { table, .. }) => *table == update.table,
                _ => false,
            })
            .map(|(i, _)| i)
            .collect();
        if leaves.is_empty() {
            return Err(FivmError::InvalidUpdate(format!(
                "update targets unknown relation `{}`",
                update.table
            ))
            .into());
        }
        let mut outcome = UpdateOutcome::default();
        for leaf in leaves {
            let (binding, arity) = match &live_node(&self.nodes, leaf).body {
                NodeBody::Leaf {
                    binding, col_names, ..
                } => (binding.clone(), col_names.len()),
                NodeBody::Inner { .. } => unreachable!("filtered to leaves"),
            };
            let one = R::one();
            let mut input_rows = 0usize;
            {
                let mut dict = self.ctx.lock();
                for (row, mult) in &update.rows {
                    input_rows += 1;
                    group_row(
                        &mut self.scratch.next,
                        &mut dict,
                        &mut self.stats,
                        &one,
                        binding.as_deref(),
                        arity,
                        row,
                        *mult,
                    )?;
                }
            }
            outcome = outcome.merge(&self.propagate_from_leaf(leaf, input_rows));
        }
        self.touched = true;
        Ok(outcome)
    }

    /// Propagates the grouped delta waiting in `scratch.next` from a leaf
    /// up the DAG, then trims the scratch so what the batch leaves
    /// allocated is bounded by `SCRATCH_KEEP_BYTES`, not by the batch.
    fn propagate_from_leaf(&mut self, leaf: usize, input_rows: usize) -> UpdateOutcome {
        let outcome = self.propagate_up(leaf, input_rows);
        self.scratch.trim();
        outcome
    }

    /// The pass itself (see module docs for why the affected subgraph is
    /// an out-tree and each node is visited once).
    fn propagate_up(&mut self, leaf: usize, input_rows: usize) -> UpdateOutcome {
        self.stats.updates_applied += 1;
        self.stats.rows_applied += input_rows;
        let mut outcome = UpdateOutcome {
            input_rows,
            delta_entries: 0,
        };

        // The leaf delta: apply to the leaf view, then fan out.
        let buf = self.take_produced();
        if buf.is_empty() {
            self.scratch.recycle_buffer(buf);
            return outcome;
        }
        let mut arena: Vec<Vec<DeltaEntry<R>>> = Vec::new();
        for (hash, key, payload) in buf.iter() {
            if self.views[leaf].add_encoded(*hash, key, payload) {
                self.stats.ring_adds += 1;
            }
        }
        outcome.delta_entries += buf.len();
        arena.push(buf);
        let mut queue: VecDeque<(usize, usize, usize)> = live_node(&self.nodes, leaf)
            .parents
            .iter()
            .map(|&(p, pos)| (p, pos, 0))
            .collect();

        while let Some((node_id, child_pos, delta_idx)) = queue.pop_front() {
            // Build the deferred indexes this level probes (mutable view
            // phase, before the immutable probing pass).
            let index_builds: Vec<(usize, usize)> = {
                let NodeBody::Inner { delta_plans, .. } = &live_node(&self.nodes, node_id).body
                else {
                    unreachable!("leaves have no children")
                };
                delta_plans[child_pos]
                    .steps
                    .iter()
                    .filter_map(|s| match s.probe {
                        ProbeKind::Index(i) => Some((s.sibling_view, i)),
                        ProbeKind::Primary => None,
                    })
                    .collect()
            };
            for (sibling, i) in index_builds {
                if self.views[sibling].ensure_index_built(i) {
                    self.stats.deferred_index_builds += 1;
                }
            }

            // Produce this level's delta (views immutable).
            {
                let NodeBody::Inner {
                    lift, delta_plans, ..
                } = &live_node(&self.nodes, node_id).body
                else {
                    unreachable!("leaves have no children")
                };
                produce_level(
                    &self.views,
                    &self.ctx,
                    &delta_plans[child_pos],
                    lift,
                    &arena[delta_idx],
                    &mut self.scratch,
                    &mut self.stats,
                );
            }

            // Apply to the node's own view, then hand the delta to every
            // parent (the arena keeps it alive for all of them).
            let out = self.take_produced();
            for (hash, key, payload) in out.iter() {
                if self.views[node_id].add_encoded(*hash, key, payload) {
                    self.stats.ring_adds += 1;
                }
            }
            outcome.delta_entries += out.len();
            if out.is_empty() {
                self.scratch.recycle_buffer(out);
                continue;
            }
            let out_idx = arena.len();
            arena.push(out);
            for &(p, pos) in &live_node(&self.nodes, node_id).parents {
                queue.push_back((p, pos, out_idx));
            }
        }

        for buf in arena {
            self.scratch.recycle_buffer(buf);
        }
        self.stats.delta_entries += outcome.delta_entries;
        outcome
    }

    /// Ends the level accumulated in `scratch.next` and returns its delta
    /// (zero payloads erased, first-arrival order) in a spare buffer — a
    /// swap, whatever the delta's size.
    fn take_produced(&mut self) -> Vec<DeltaEntry<R>> {
        let mut out = self.scratch.spare.pop().unwrap_or_default();
        finish_level(&mut self.scratch.next, &mut out);
        out
    }

    /// A query's result for queries without group-by variables: the
    /// product of its root views' payloads at the empty key.
    pub fn result(&self, query: usize) -> DagResult<R> {
        let state = self.query(query)?;
        let empty = EncodedKey::empty();
        let hash = empty.fx_hash();
        let mut acc = R::one();
        for &root in &state.roots {
            match self.views[root].get_encoded(hash, &empty) {
                Some(p) => acc = acc.mul(p),
                None => return Ok(R::zero()),
            }
        }
        Ok(acc)
    }

    /// A query's result as a relation over its free variables (general
    /// form; a singleton over the empty key without group-by).  Keys are
    /// decoded through the DAG's dictionary in the query's own variable
    /// numbering.
    pub fn result_relation(&self, query: usize) -> DagResult<Relation<R>> {
        let state = self.query(query)?;
        let mut acc: Option<Relation<R>> = None;
        for (i, &root) in state.roots.iter().enumerate() {
            let key_vars = state.root_key_vars[i].clone();
            let view = &self.views[root];
            let rel = self.ctx.with_dict(|dict| {
                Relation::from_entries(
                    key_vars,
                    view.iter().map(|(k, p)| (dict.decode_key(k), p.clone())),
                )
            });
            acc = Some(match acc {
                None => rel,
                Some(prev) => prev.natural_join(&rel),
            });
        }
        Ok(acc.unwrap_or_else(|| {
            let mut r = Relation::new(Vec::new());
            r.add(Vec::new().into_boxed_slice(), R::one());
            r
        }))
    }

    /// The materialized view of a query's root, as a relation (useful for
    /// inspecting shared sinks in tests).
    pub fn root_relations(&self, query: usize) -> DagResult<Vec<Relation<R>>> {
        let state = self.query(query)?;
        Ok(state
            .roots
            .iter()
            .enumerate()
            .map(|(i, &root)| {
                let key_vars = state.root_key_vars[i].clone();
                let view = &self.views[root];
                self.ctx.with_dict(|dict| {
                    Relation::from_entries(
                        key_vars,
                        view.iter().map(|(k, p)| (dict.decode_key(k), p.clone())),
                    )
                })
            })
            .collect())
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

/// Runs one propagation level: joins `input` (the affected child's delta)
/// against the sibling views per `dp`, applies `lift`, marginalizes and
/// leaves the produced delta in `scratch.next`.  This is the body of the
/// single-tree engine's per-level loop, expressed over the kernel.
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

/// Send audit (mirrors the engine's): the durable registry moves the DAG
/// across threads, so it must stay `Send`.
#[allow(dead_code)]
fn dag_is_send<R: Ring>() {
    fn assert_send<T: Send>() {}
    assert_send::<DagEngine<R>>();
}
