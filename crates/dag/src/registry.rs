//! The multi-ring front door over per-ring [`DagEngine`]s.
//!
//! Rust's type system does not admit one heterogeneous node pool — a
//! `MaterializedView<R>` payload type is fixed per engine — so the
//! registry runs **one shared DAG per ring type**: COUNT queries share
//! the `i64` DAG, COVAR queries the `Cofactor` DAG, gen-COVAR and MI
//! queries the `GenCofactor` DAG, relational queries the `RelValue` DAG.
//! Prefix sharing happens freely *within* a ring group (MI and gen-COVAR
//! land in the same group, so their keyed delta streams unify wherever
//! the lift names match); across ring types, only the input batch is
//! shared. This is a documented deviation from full cross-ring sharing —
//! see the DAG contract in ROADMAP.md.

use crate::error::{DagError, DagResult};
use fivm_core::apps::{count_lifts, covar_lifts, gen_covar_lifts, mi_lifts, relational_lifts};
use fivm_core::{BinSpec, DagEngine, EngineStats, UpdateOutcome};
use fivm_query::ViewTree;
use fivm_relation::{Database, Relation, Update};
use fivm_ring::{Cofactor, GenCofactor, RelValue, RingCtx};
use std::collections::HashMap;
use fivm_common::VarId;

/// Which aggregate family a registered query computes — selects the ring
/// group and the per-variable lift set.
#[derive(Clone, Debug)]
pub enum QueryKind {
    /// `COUNT` / `SUM(1)` over the group-by keys (ring `i64`).
    Count,
    /// Continuous covariance matrix (ring `Cofactor`).
    Covar,
    /// Generalized covariance over mixed continuous/categorical features
    /// (ring `GenCofactor`).
    GenCovar,
    /// Mutual information via binned marginals (ring `GenCofactor`;
    /// continuous variables discretized by the supplied binnings).
    Mi(HashMap<VarId, BinSpec>),
    /// Full relational result (ring `RelValue`).
    Relational,
}

/// Opaque handle to a registered query, valid until `unregister`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryId(pub usize);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Group {
    Count,
    Covar,
    Gen,
    Relational,
}

impl Group {
    fn name(self) -> &'static str {
        match self {
            Group::Count => "count",
            Group::Covar => "covar",
            Group::Gen => "gen-cofactor",
            Group::Relational => "relational",
        }
    }
}

/// A fleet of maintained queries over shared DAGs, one per ring type.
pub struct QueryRegistry {
    count: DagEngine<i64>,
    covar: DagEngine<Cofactor>,
    gen: DagEngine<GenCofactor>,
    relational: DagEngine<RelValue>,
    /// Registry slot → (ring group, group-local query id).
    slots: Vec<Option<(Group, usize)>>,
    free_slots: Vec<usize>,
}

impl QueryRegistry {
    /// An empty registry (each ring group gets its own dictionary).
    pub fn new() -> Self {
        QueryRegistry {
            count: DagEngine::new(),
            covar: DagEngine::new(),
            gen: DagEngine::new(),
            relational: DagEngine::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
        }
    }

    /// Sharded-engine parity gate: a registry over sharded engines is a
    /// deliberately unwired combination — the DAG's shared-prefix pass
    /// assumes one address space per ring group.  `shards <= 1` degrades
    /// to the plain registry; anything larger is a typed `Unsupported`
    /// error (see the DAG contract in ROADMAP.md).
    pub fn sharded(shards: usize) -> DagResult<Self> {
        if shards <= 1 {
            Ok(Self::new())
        } else {
            Err(DagError::Unsupported(format!(
                "QueryRegistry over sharded engines ({shards} shards) is not wired: \
                 the shared-prefix propagation pass assumes a single address space \
                 per ring group; run one registry per shard and merge sinks instead"
            )))
        }
    }

    /// The ring context of the group `kind` maps to — relational lifts or
    /// binnings that encode values must use this dictionary.
    pub fn ctx_for(&self, kind: &QueryKind) -> &RingCtx {
        match group_of(kind) {
            Group::Count => self.count.ctx(),
            Group::Covar => self.covar.ctx(),
            Group::Gen => self.gen.ctx(),
            Group::Relational => self.relational.ctx(),
        }
    }

    /// Registers a query under `kind`, building its lift set from the
    /// query spec against the group's ring context. `backfill` is required
    /// when the query introduces relations new to its group after data has
    /// flowed (same discipline as [`DagEngine::register`]).
    pub fn register(
        &mut self,
        tree: ViewTree,
        kind: QueryKind,
        backfill: Option<&Database>,
    ) -> DagResult<QueryId> {
        let spec = tree.spec().clone();
        let (group, inner) = match &kind {
            QueryKind::Count => {
                let lifts = count_lifts(&spec);
                (Group::Count, self.count.register(tree, lifts, backfill)?)
            }
            QueryKind::Covar => {
                let lifts = covar_lifts(&spec)?;
                (Group::Covar, self.covar.register(tree, lifts, backfill)?)
            }
            QueryKind::GenCovar => {
                let lifts = gen_covar_lifts(&spec, self.gen.ctx());
                (Group::Gen, self.gen.register(tree, lifts, backfill)?)
            }
            QueryKind::Mi(binnings) => {
                let lifts = mi_lifts(&spec, binnings, self.gen.ctx())?;
                (Group::Gen, self.gen.register(tree, lifts, backfill)?)
            }
            QueryKind::Relational => {
                let lifts = relational_lifts(&spec, self.relational.ctx());
                (
                    Group::Relational,
                    self.relational.register(tree, lifts, backfill)?,
                )
            }
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s] = Some((group, inner));
                s
            }
            None => {
                self.slots.push(Some((group, inner)));
                self.slots.len() - 1
            }
        };
        Ok(QueryId(slot))
    }

    /// Unregisters a query, retiring DAG nodes no other registered query
    /// references.
    pub fn unregister(&mut self, id: QueryId) -> DagResult<()> {
        let (group, inner) = self.resolve(id)?;
        match group {
            Group::Count => self.count.unregister(inner)?,
            Group::Covar => self.covar.unregister(inner)?,
            Group::Gen => self.gen.unregister(inner)?,
            Group::Relational => self.relational.unregister(inner)?,
        }
        self.slots[id.0] = None;
        self.free_slots.push(id.0);
        Ok(())
    }

    /// Loads an initial database into every ring group that has live
    /// leaves (groups with no registered queries are skipped).
    pub fn load_database(&mut self, db: &Database) -> DagResult<()> {
        if self.count.live_nodes() > 0 {
            self.count.load_database(db)?;
        }
        if self.covar.live_nodes() > 0 {
            self.covar.load_database(db)?;
        }
        if self.gen.live_nodes() > 0 {
            self.gen.load_database(db)?;
        }
        if self.relational.live_nodes() > 0 {
            self.relational.load_database(db)?;
        }
        Ok(())
    }

    /// Applies one update batch across **all** ring groups maintaining the
    /// updated relation — each group runs one propagation pass, however
    /// many of its queries consume the relation. Errors if no registered
    /// query reads the table.
    pub fn apply_update(&mut self, update: &Update) -> DagResult<UpdateOutcome> {
        let t = update.table.as_str();
        let mut outcome: Option<UpdateOutcome> = None;
        let mut merge = |o: UpdateOutcome| outcome = Some(outcome.unwrap_or_default().merge(&o));
        if self.count.has_table(t) {
            merge(self.count.apply_update(update)?);
        }
        if self.covar.has_table(t) {
            merge(self.covar.apply_update(update)?);
        }
        if self.gen.has_table(t) {
            merge(self.gen.apply_update(update)?);
        }
        if self.relational.has_table(t) {
            merge(self.relational.apply_update(update)?);
        }
        outcome.ok_or_else(|| unmaintained(t))
    }

    /// Whether [`QueryRegistry::apply_update`] would accept `update`,
    /// decided without touching any state: some ring group maintains the
    /// table, and every group that does accepts the rows
    /// ([`DagEngine::check_update`]) — so a batch never reaches one group
    /// and fails in the next.
    pub fn check_update(&self, update: &Update) -> DagResult<()> {
        let t = update.table.as_str();
        let checks = [
            self.count.has_table(t).then(|| self.count.check_update(update)),
            self.covar.has_table(t).then(|| self.covar.check_update(update)),
            self.gen.has_table(t).then(|| self.gen.check_update(update)),
            self.relational.has_table(t).then(|| self.relational.check_update(update)),
        ];
        let mut hit = false;
        for check in checks.into_iter().flatten() {
            check?;
            hit = true;
        }
        if hit {
            Ok(())
        } else {
            Err(unmaintained(t))
        }
    }

    fn resolve(&self, id: QueryId) -> DagResult<(Group, usize)> {
        self.slots
            .get(id.0)
            .and_then(|s| *s)
            .ok_or_else(|| DagError::State(format!("unknown registry query id {}", id.0)))
    }

    fn expect_group(&self, id: QueryId, want: Group) -> DagResult<usize> {
        let (group, inner) = self.resolve(id)?;
        if group != want {
            return Err(DagError::State(format!(
                "query {} is in the {} group, not {}",
                id.0,
                group.name(),
                want.name()
            )));
        }
        Ok(inner)
    }

    /// Scalar COUNT result of a `QueryKind::Count` query without group-by.
    pub fn count_result(&self, id: QueryId) -> DagResult<i64> {
        let inner = self.expect_group(id, Group::Count)?;
        Ok(self.count.result(inner)?)
    }

    /// Grouped COUNT result of a `QueryKind::Count` query.
    pub fn count_result_relation(&self, id: QueryId) -> DagResult<Relation<i64>> {
        let inner = self.expect_group(id, Group::Count)?;
        Ok(self.count.result_relation(inner)?)
    }

    /// Scalar cofactor result of a `QueryKind::Covar` query.
    pub fn covar_result(&self, id: QueryId) -> DagResult<Cofactor> {
        let inner = self.expect_group(id, Group::Covar)?;
        Ok(self.covar.result(inner)?)
    }

    /// Grouped cofactor result of a `QueryKind::Covar` query.
    pub fn covar_result_relation(&self, id: QueryId) -> DagResult<Relation<Cofactor>> {
        let inner = self.expect_group(id, Group::Covar)?;
        Ok(self.covar.result_relation(inner)?)
    }

    /// Scalar generalized-cofactor result of a `GenCovar` or `Mi` query.
    pub fn gen_result(&self, id: QueryId) -> DagResult<GenCofactor> {
        let inner = self.expect_group(id, Group::Gen)?;
        Ok(self.gen.result(inner)?)
    }

    /// Grouped generalized-cofactor result of a `GenCovar` or `Mi` query.
    pub fn gen_result_relation(&self, id: QueryId) -> DagResult<Relation<GenCofactor>> {
        let inner = self.expect_group(id, Group::Gen)?;
        Ok(self.gen.result_relation(inner)?)
    }

    /// Relational result of a `QueryKind::Relational` query.
    pub fn relational_result(&self, id: QueryId) -> DagResult<Relation<RelValue>> {
        let inner = self.expect_group(id, Group::Relational)?;
        Ok(self.relational.result_relation(inner)?)
    }

    /// Live DAG nodes across all ring groups.
    pub fn total_live_nodes(&self) -> usize {
        self.count.live_nodes()
            + self.covar.live_nodes()
            + self.gen.live_nodes()
            + self.relational.live_nodes()
    }

    /// Registered queries across all ring groups.
    pub fn live_queries(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Merged work counters across all ring groups.
    pub fn stats(&self) -> EngineStats {
        self.count
            .stats()
            .merge(&self.covar.stats())
            .merge(&self.gen.stats())
            .merge(&self.relational.stats())
    }

    /// The COUNT-group DAG (introspection for tests/benches).
    pub fn count_dag(&self) -> &DagEngine<i64> {
        &self.count
    }

    /// The COVAR-group DAG.
    pub fn covar_dag(&self) -> &DagEngine<Cofactor> {
        &self.covar
    }

    /// The gen-cofactor-group DAG (gen-COVAR + MI).
    pub fn gen_dag(&self) -> &DagEngine<GenCofactor> {
        &self.gen
    }

    /// The relational-group DAG.
    pub fn relational_dag(&self) -> &DagEngine<RelValue> {
        &self.relational
    }

    /// The group-local DAG query id behind a registry handle (for
    /// node-level introspection via the group DAG accessors).
    pub fn dag_query_id(&self, id: QueryId) -> DagResult<usize> {
        Ok(self.resolve(id)?.1)
    }
}

impl std::fmt::Debug for QueryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryRegistry")
            .field("live_queries", &self.live_queries())
            .field("live_nodes", &self.total_live_nodes())
            .finish()
    }
}

impl Default for QueryRegistry {
    fn default() -> Self {
        Self::new()
    }
}

fn unmaintained(table: &str) -> DagError {
    DagError::State(format!("no registered query maintains relation `{table}`"))
}

fn group_of(kind: &QueryKind) -> Group {
    match kind {
        QueryKind::Count => Group::Count,
        QueryKind::Covar => Group::Covar,
        QueryKind::GenCovar | QueryKind::Mi(_) => Group::Gen,
        QueryKind::Relational => Group::Relational,
    }
}
