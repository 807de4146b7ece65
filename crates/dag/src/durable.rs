//! A [`QueryRegistry`] behind `fivm_cdc`'s durable spine
//! ([`fivm_cdc::Durable`]): batches are validated across the ring groups,
//! journaled to a segmented changelog, then applied. Registrations are
//! metadata, not journaled: recovery re-registers the fleet, loads the
//! initial database and replays the log once through the shared pass.

use crate::error::{DagError, DagResult};
use crate::registry::QueryRegistry;
use fivm_cdc::{Durable, Maintained};
use fivm_core::UpdateOutcome;
use fivm_relation::{Database, Update};
use std::path::Path;

impl Maintained for QueryRegistry {
    type Error = DagError;

    fn load_database(&mut self, db: &Database) -> DagResult<()> {
        QueryRegistry::load_database(self, db)
    }

    fn check_update(&self, update: &Update) -> DagResult<()> {
        QueryRegistry::check_update(self, update)
    }

    fn apply_update(&mut self, update: &Update) -> DagResult<UpdateOutcome> {
        QueryRegistry::apply_update(self, update)
    }
}

/// A query registry whose input stream is journaled in a durable directory.
pub struct DurableRegistry(Durable<QueryRegistry>);

impl DurableRegistry {
    /// Starts a fresh durable registry in `dir` (see
    /// [`fivm_cdc::Durable::create`]); only updates applied through this
    /// handle are journaled.
    pub fn create(registry: QueryRegistry, dir: impl AsRef<Path>) -> DagResult<Self> {
        Durable::create(registry, dir).map(DurableRegistry)
    }

    /// [`DurableRegistry::create`] with an explicit segment-rotation
    /// threshold in bytes.
    pub fn create_with(
        registry: QueryRegistry,
        dir: impl AsRef<Path>,
        max_segment_bytes: u64,
    ) -> DagResult<Self> {
        Durable::create_with(registry, dir, max_segment_bytes).map(DurableRegistry)
    }

    /// Recovers after a crash: `registry` carries the lost instance's
    /// registrations and `db` its initial database; the changelog in `dir`
    /// is replayed once, then reopened for appending.
    pub fn recover(registry: QueryRegistry, db: &Database, dir: impl AsRef<Path>) -> DagResult<Self> {
        let (durable, _report) = Durable::recover_by_replay(registry, db, dir)?;
        Ok(DurableRegistry(durable))
    }

    /// Validates, journals (append + fsync), then applies one batch; a
    /// refused batch is never journaled.
    pub fn apply_update(&mut self, update: &Update) -> DagResult<UpdateOutcome> {
        self.0.apply_update(update)
    }

    /// Sequence number of the last journaled batch applied to the fleet.
    pub fn applied_seq(&self) -> u64 {
        self.0.applied_seq()
    }

    /// The wrapped registry (result accessors, stats, introspection).
    pub fn registry(&self) -> &QueryRegistry {
        self.0.state()
    }

    /// Consumes the handle, returning the in-memory registry.
    pub fn into_registry(self) -> QueryRegistry {
        self.0.into_state()
    }
}
