//! The durable spine: the one write-ahead path every front end shares.
//!
//! [`Durable<M>`] puts a [`SegmentedLog`] in front of any [`Maintained`]
//! state and owns each durable step once: creating the directory,
//! **validate-then-append** (a batch the state would refuse is never
//! logged; per batch, or a group under one fsync), applying logged
//! batches, recovery (snapshot or base load, tail replay across segments
//! — [`crate::recover`] — then reopening the log with its continuity
//! check), and, for engines, snapshot + segment retirement.
//! [`DurableEngine`] is the spine over an [`Engine`], [`crate::CdcService`]
//! drives one from its commit thread, and `fivm_dag::DurableRegistry` is
//! the spine over a query registry (full-replay recovery).

use crate::changelog::SyncFaults;
use crate::error::{CdcError, CdcResult};
use crate::recover::{recover_state, restore_snapshot, RecoveryReport};
use crate::segment::{SegmentedLog, DEFAULT_SEGMENT_BYTES};
use crate::snapshot::write_snapshot;
use crate::SNAPSHOT_FILE;
use fivm_core::{Engine, UpdateOutcome};
use fivm_relation::{Database, Update};
use fivm_ring::{PersistRing, Ring};
use std::path::{Path, PathBuf};

/// State maintained behind the write-ahead log.  `check_update` must accept
/// exactly the batches `apply_update` accepts, without mutating anything:
/// it runs before the append, so a refused batch never reaches the log,
/// where every later recovery would trip over it.
pub trait Maintained {
    /// The state's error type; the log's own failures convert into it.
    type Error: From<CdcError>;

    /// Loads the base database (not logged: recovery reloads it).
    fn load_database(&mut self, db: &Database) -> Result<(), Self::Error>;

    /// Whether `apply_update` would accept `update`; mutates nothing.
    fn check_update(&self, update: &Update) -> Result<(), Self::Error>;

    /// Applies one batch.
    fn apply_update(&mut self, update: &Update) -> Result<UpdateOutcome, Self::Error>;
}

impl<R: Ring> Maintained for Engine<R> {
    type Error = CdcError;

    fn load_database(&mut self, db: &Database) -> CdcResult<()> {
        Ok(Engine::load_database(self, db)?)
    }

    fn check_update(&self, update: &Update) -> CdcResult<()> {
        Ok(Engine::check_update(self, update)?)
    }

    fn apply_update(&mut self, update: &Update) -> CdcResult<UpdateOutcome> {
        Ok(Engine::apply_update(self, update)?)
    }
}

/// A [`Maintained`] state behind a write-ahead changelog: validate, append
/// and fsync, *then* apply; a crash between fsync and apply is converged by
/// replay.
pub struct Durable<M: Maintained> {
    state: M,
    log: SegmentedLog,
    dir: PathBuf,
    /// Sequence number of the last batch applied to `state`.
    applied_seq: u64,
}

/// The spine over one query's [`Engine`], with on-demand snapshots; sealed
/// segments are retired only when asked ([`Durable::retire_segments`]).
pub type DurableEngine<R> = Durable<Engine<R>>;

impl<M: Maintained> Durable<M> {
    /// Wraps `state`, starting a fresh changelog in `dir` (created if
    /// missing; previous segments and snapshot files are deleted).  Only
    /// updates applied *through* the wrapper are logged.
    pub fn create(state: M, dir: impl AsRef<Path>) -> Result<Self, M::Error> {
        Self::create_with(state, dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`Durable::create`] with an explicit segment-rotation threshold in
    /// bytes.
    pub fn create_with(
        state: M,
        dir: impl AsRef<Path>,
        max_segment_bytes: u64,
    ) -> Result<Self, M::Error> {
        let dir = dir.as_ref().to_path_buf();
        let log = SegmentedLog::create(&dir, max_segment_bytes)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        remove_if_exists(&snapshot_path)?;
        remove_if_exists(&snapshot_path.with_extension("tmp"))?;
        Ok(Durable { state, log, dir, applied_seq: 0 })
    }

    /// Recovers by full replay into `state`, freshly built like the lost
    /// one: `db` is loaded, the whole changelog in `dir` replayed once and
    /// reopened for appending.
    pub fn recover_by_replay(
        state: M,
        db: &Database,
        dir: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), M::Error> {
        Self::reopen(state, db, dir.as_ref(), DEFAULT_SEGMENT_BYTES, |_| Ok(None))
    }

    /// The one recovery path: [`recover_state`] (`restore` restores a
    /// snapshot, or returns `None` to load `db`), then the log is reopened
    /// for appending — a torn or corrupt active tail truncated, so the next
    /// append continues the durable sequence.
    fn reopen(
        mut state: M,
        db: &Database,
        dir: &Path,
        max_segment_bytes: u64,
        restore: impl FnOnce(&mut M) -> Result<Option<u64>, M::Error>,
    ) -> Result<(Self, RecoveryReport), M::Error> {
        let report = recover_state(&mut state, db, dir, restore)?;
        let log = SegmentedLog::open_append(dir, max_segment_bytes, report.last_seq + 1)?;
        if log.next_seq() <= report.last_seq {
            return Err(CdcError::Corrupt(format!(
                "changelog continues at seq {} but recovery reached seq {}: the log lost \
                 durable batches a snapshot still covers",
                log.next_seq(),
                report.last_seq
            ))
            .into());
        }
        let dir = dir.to_path_buf();
        let applied_seq = report.last_seq;
        Ok((Durable { state, log, dir, applied_seq }, report))
    }

    /// Loads the base database.  Not logged: recovery reloads it (or
    /// restores a snapshot that includes it).
    pub fn load_database(&mut self, db: &Database) -> Result<(), M::Error> {
        self.state.load_database(db)
    }

    /// Write-ahead apply of one batch: validated, appended and fsynced,
    /// then applied.  A batch the state refuses is not logged.
    pub fn apply_update(&mut self, update: &Update) -> Result<UpdateOutcome, M::Error> {
        if let (_, Some(refused)) = self.log_group([update])? {
            return Err(refused);
        }
        self.apply_logged(update)
    }

    /// Validates and appends the batches of `group` in order, stopping at
    /// the first one the state refuses; one fsync then covers everything
    /// appended.  Returns how many were logged — a prefix of the group,
    /// still to be applied with [`Durable::apply_logged`] — and the
    /// refusal, if any.  An append or fsync failure is an `Err` after which
    /// the log refuses all work (see [`crate::ChangelogWriter`]).
    pub(crate) fn log_group<'a>(
        &mut self,
        group: impl IntoIterator<Item = &'a Update>,
    ) -> Result<(usize, Option<M::Error>), M::Error> {
        let mut logged = 0;
        let mut refused = None;
        for update in group {
            if let Err(e) = self.state.check_update(update) {
                refused = Some(e);
                break;
            }
            self.log.append_unsynced(update)?;
            logged += 1;
        }
        if logged > 0 {
            self.log.sync()?;
        }
        Ok((logged, refused))
    }

    /// Applies the next logged batch, `update`.
    pub(crate) fn apply_logged(&mut self, update: &Update) -> Result<UpdateOutcome, M::Error> {
        let outcome = self.state.apply_update(update)?;
        self.applied_seq += 1;
        Ok(outcome)
    }

    /// Sequence number of the last batch applied to the state.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Total changelog bytes on disk across every segment.
    pub fn changelog_bytes(&self) -> u64 {
        self.log.total_bytes()
    }

    /// The maintained state.  There is no mutable access: a change that
    /// bypassed the log would diverge from what recovery rebuilds.
    pub fn state(&self) -> &M {
        &self.state
    }

    /// Consumes the wrapper, returning the state.
    pub fn into_state(self) -> M {
        self.state
    }

    /// Arms the changelog's fsync fault injector (the service's hook).
    pub(crate) fn set_sync_faults(&mut self, faults: SyncFaults) {
        self.log.set_sync_faults(faults);
    }
}

impl<R: PersistRing> Durable<Engine<R>> {
    /// Recovers from the durable artifacts in `dir` into a freshly built
    /// engine (same plan, ring and lifts as the lost one) and reopens the
    /// changelog.  The snapshot is restored when there is one; a stray
    /// `snapshot.fvsn.tmp` from a crashed save is garbage and deleted.  See
    /// [`crate::recover::recover`] for the bit-identity argument.
    pub fn recover(
        engine: Engine<R>,
        db: &Database,
        dir: impl AsRef<Path>,
    ) -> CdcResult<(Self, RecoveryReport)> {
        Self::recover_at(engine, db, dir.as_ref(), DEFAULT_SEGMENT_BYTES)
    }

    /// [`Durable::recover`] with the rotation threshold of the reopened log.
    pub(crate) fn recover_at(
        engine: Engine<R>,
        db: &Database,
        dir: &Path,
        max_segment_bytes: u64,
    ) -> CdcResult<(Self, RecoveryReport)> {
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        remove_if_exists(&snapshot_path.with_extension("tmp"))?;
        Self::reopen(engine, db, dir, max_segment_bytes, |engine| {
            let restore = || restore_snapshot(engine, db, &snapshot_path);
            snapshot_path.exists().then(restore).transpose()
        })
    }

    /// Writes an atomic snapshot of the current state, tagged with the last
    /// applied sequence number (returned).
    pub fn snapshot(&mut self) -> CdcResult<u64> {
        write_snapshot(self.dir.join(SNAPSHOT_FILE), self.applied_seq, &self.state)?;
        Ok(self.applied_seq)
    }

    /// Deletes sealed changelog segments entirely covered by a snapshot at
    /// `snapshot_seq` (see [`SegmentedLog::retire`]); returns how many were
    /// deleted.
    pub fn retire_segments(&mut self, snapshot_seq: u64) -> CdcResult<usize> {
        self.log.retire(snapshot_seq)
    }
}

pub(crate) fn remove_if_exists(path: &Path) -> CdcResult<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}
