#![forbid(unsafe_code)]
//! Durability and fault tolerance for the F-IVM engine: CDC changelog
//! ingestion, engine snapshots, crash recovery by replay, and a bounded
//! ingest service with group commit.
//!
//! The maintenance engine ([`fivm_core::Engine`]) is an in-memory
//! structure; this crate makes its state survive restarts and crashes
//! with three artifacts, all hand-rolled binary formats (the build
//! environment is offline — even the CRC is in-tree, [`crc`]):
//!
//! * **Changelog** ([`changelog`], [`segment`]) — an append-only sequence
//!   of row-level change batches (insert / delete / update ops over
//!   decoded values), one checksummed record per batch, stored as
//!   size-bounded **segment** files (`changelog-<seq>.fvcl`) that rotate
//!   as they fill and are retired once a snapshot covers them.
//!   Write-ahead: a batch is validated against the engine, then synced to
//!   the log, then applied — a batch the engine would refuse is never
//!   logged, so replay can always apply what the log holds.
//! * **Snapshot** ([`snapshot`]) — a point-in-time serialization of the
//!   engine (dictionary, every view's `(hash, key, payload)` entries)
//!   tagged with the changelog sequence number it includes; written
//!   atomically via temp-file + rename.
//! * **Recovery** ([`recover`]) — load the snapshot (or the base
//!   database when there is none), then replay the changelog tail across
//!   segment boundaries.  The result is **bit-identical** to an engine
//!   that applied the same durable prefix without interruption; the
//!   fault-injection suite in `tests/` proves it under torn tails,
//!   flipped bytes, and crashes at every batch/snapshot/rotation/
//!   retirement boundary.
//!
//! Partial failures are detectable, not silent: every record is framed
//! `[len][crc32][payload]` ([`framing`]), so a crash mid-append leaves a
//! [`LogEnd::TornTail`] and damaged bytes a [`LogEnd::Corrupt`] — both end
//! the durable prefix — while damage in a *sealed* segment fails loudly
//! ([`segment`]).  What survives a restart bit for bit, and why, is
//! argued in [`recover`] and in ROADMAP.md's "durability contract".
//!
//! One spine sits on these primitives ([`durable`]): [`Durable<M>`] puts
//! the segmented log in front of any [`Maintained`] state and owns
//! directory creation, validate-then-append (a batch the state would
//! refuse is never logged), apply, recovery with its log reopen, and
//! snapshot + retirement.  The front ends are handles on it:
//!
//! * [`DurableEngine`] — the spine over an [`fivm_core::Engine`]: one fsync
//!   per batch, snapshots on demand.  The per-batch-durability baseline
//!   the benches compare group commit against.
//! * [`CdcService`] ([`service`]) — the deployable shape: a bounded
//!   ingest queue with an explicit [`BackpressurePolicy`], and a commit
//!   thread that drives a `DurableEngine` with **group commit** (many
//!   batches per fsync), snapshots by batch count, and segment retirement
//!   — disk stays bounded under an infinite churn stream.
//! * `fivm_dag::DurableRegistry` — the spine over a multi-query registry,
//!   recovered by full replay.

pub mod changelog;
pub mod crc;
pub mod durable;
pub mod error;
pub mod fault;
pub mod framing;
pub mod recover;
pub mod segment;
pub mod service;
pub mod snapshot;

pub use changelog::{read_changelog, CdcBatch, CdcOp, ChangelogWriter, SyncFaults};
pub use durable::{Durable, DurableEngine, Maintained};
pub use error::{CdcError, CdcResult};
pub use framing::LogEnd;
pub use recover::{recover, RecoveryReport};
pub use segment::{list_segments, read_log_dir, segment_file_name, SegmentedLog};
pub use service::{
    BackpressurePolicy, CdcService, CommitGate, ServiceConfig, ServiceShutdown, ServiceStats,
};
pub use snapshot::{load_snapshot, read_snapshot, write_snapshot};

/// File name of the snapshot inside a durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.fvsn";
