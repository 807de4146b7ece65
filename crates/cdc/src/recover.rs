//! Crash recovery: latest valid snapshot + segmented changelog replay.
//!
//! The recovered engine is **bit-identical** to an uninterrupted engine
//! that applied the same durable prefix, because every piece of the
//! pipeline preserves exact state:
//!
//! * the snapshot stores ring payloads as raw bits and the dictionary's
//!   strings in id order, so restore reproduces the exact views and the
//!   exact encoded words ([`fivm_core::Engine::load_state`]);
//! * replayed batches carry decoded rows and flow through the state's
//!   `apply_update` ([`crate::Maintained`]) — the same code path, in the
//!   same batch and row order, as live ingestion;
//! * a torn or corrupt tail in the **active** (newest) changelog segment
//!   marks where durability ended; the batches before it are applied, the
//!   bytes after it are treated as never written.  Damage in a *sealed*
//!   segment is a loud [`CdcError::Corrupt`] instead — those bytes were
//!   fully synced at rotation, so the damage is bit rot, and silently
//!   skipping it would drop acknowledged batches (see [`crate::segment`]).
//!
//! The changelog is a **directory** of size-bounded segments; replay
//! walks them in sequence order, enforcing exact sequence continuity
//! across segment boundaries, and a gap between the snapshot and the
//! oldest retained segment (a snapshot older than retirement assumed) is
//! an error, not a silent skip.
//!
//! What is *not* identical: work counters ([`fivm_core::EngineStats`])
//! restart from the snapshot point, and `rehashes` / `ring_rehashes` are
//! 0 right after a restore (pre-sized tables, stored hashes) — which is
//! the hash-once contract carrying over a restart, not a divergence.

use crate::durable::Maintained;
use crate::error::{CdcError, CdcResult};
use crate::framing::LogEnd;
use crate::segment::read_log_dir;
use crate::snapshot::load_snapshot;
use fivm_core::Engine;
use fivm_relation::Database;
use fivm_ring::PersistRing;
use std::path::Path;

/// What a recovery did, for logging and assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number restored from the snapshot (`None` = no snapshot;
    /// the base database was re-loaded and the full changelog replayed).
    pub snapshot_seq: Option<u64>,
    /// Batches replayed from the changelog tail.
    pub replayed_batches: usize,
    /// Rows those batches carried.
    pub replayed_rows: usize,
    /// Highest sequence number applied into the engine (0 = none).
    pub last_seq: u64,
    /// How the changelog scan ended; [`LogEnd::Clean`] unless the active
    /// segment has a torn or corrupt tail (whose suffix was skipped as
    /// never-durable).
    pub log_end: LogEnd,
    /// Changelog segment files scanned.
    pub segments_scanned: usize,
}

/// Rebuilds engine state into `engine`, which must be freshly constructed
/// with the same plan, ring and lifts as the engine that wrote the files.
///
/// `log_dir` is the durable directory holding the changelog segments
/// (`changelog-<seq>.fvcl`).  With a snapshot: base-table layouts are
/// re-bound from `db`'s schemas, the snapshot state is restored, and
/// changelog batches with `seq` greater than the snapshot's are replayed.
/// Without one: `db` is loaded from scratch (binding included) and the
/// whole changelog is replayed — so recovery works from any prefix of the
/// durable artifacts, including "log only".
///
/// Fails with [`CdcError::Corrupt`] when the retained segments cannot
/// reach the snapshot: the oldest segment starts past `snapshot_seq + 1`
/// (its predecessors were retired against a *newer* snapshot than the one
/// supplied), or there is no snapshot and the log does not start at 1.
///
/// `db` must be the same base database the original engine loaded; its
/// *rows* are only read in the no-snapshot path, but its schemas define
/// the row layout replayed batches are interpreted under in both paths.
pub fn recover<R: PersistRing>(
    engine: &mut Engine<R>,
    db: &Database,
    snapshot: Option<&Path>,
    log_dir: &Path,
) -> CdcResult<RecoveryReport> {
    recover_state(engine, db, log_dir, |engine| {
        snapshot.map(|path| restore_snapshot(engine, db, path)).transpose()
    })
}

/// Restores the snapshot at `path` into a freshly built engine, re-binding
/// base-table layouts from `db`'s schemas first (bindings are not part of
/// the snapshot — [`Engine::save_state`]); returns the snapshot's seq.
pub(crate) fn restore_snapshot<R: PersistRing>(
    engine: &mut Engine<R>,
    db: &Database,
    path: &Path,
) -> CdcResult<u64> {
    let spec = engine.tree().spec().clone();
    for rel in 0..spec.num_relations() {
        let name = &spec.relation(rel).name;
        let table = db.table(name).ok_or_else(|| {
            CdcError::Corrupt(format!("recovery database has no table named `{name}`"))
        })?;
        engine.bind_table(rel, &table.schema)?;
    }
    load_snapshot(path, engine)
}

/// The replay loop every recovery runs: `restore` restores a snapshot into
/// `state` and returns its sequence number (`None` loads `db` instead),
/// then every logged batch past that point is applied through the live
/// `apply_update` path, in sequence order, across segment boundaries.
pub(crate) fn recover_state<M: Maintained>(
    state: &mut M,
    db: &Database,
    log_dir: &Path,
    restore: impl FnOnce(&mut M) -> Result<Option<u64>, M::Error>,
) -> Result<RecoveryReport, M::Error> {
    let scan = read_log_dir(log_dir)?;
    let snapshot_seq = restore(state)?;
    if snapshot_seq.is_none() {
        state.load_database(db)?;
    }
    let from = snapshot_seq.unwrap_or(0);
    if let Some(oldest) = scan.oldest_seq {
        if oldest > from + 1 {
            return Err(CdcError::Corrupt(format!(
                "changelog starts at seq {oldest} but the supplied snapshot covers only \
                 through seq {from}: the intervening segments were retired against a \
                 newer snapshot — recover with that snapshot instead"
            ))
            .into());
        }
    }
    let mut report = RecoveryReport {
        snapshot_seq,
        replayed_batches: 0,
        replayed_rows: 0,
        last_seq: from,
        log_end: scan.end,
        segments_scanned: scan.segments,
    };
    for batch in scan.batches.iter().filter(|b| b.seq > from) {
        state.apply_update(&batch.to_update())?;
        report.replayed_batches += 1;
        report.replayed_rows += batch.ops.len();
        report.last_seq = batch.seq;
    }
    Ok(report)
}
