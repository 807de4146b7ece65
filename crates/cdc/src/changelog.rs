//! The CDC changelog: an append-only file of row-level change batches.
//!
//! Each record is one [`CdcBatch`] — a monotonically increasing sequence
//! number, a target table, and row operations ([`CdcOp`]): inserts,
//! deletes, and updates (an update is a delete of the old row plus an
//! insert of the new one, per the engine's delete-as-negative-insert
//! model).  Rows travel as **decoded** [`Value`]s, never as
//! dictionary-encoded words: on replay they re-encode through the
//! recovering engine's own dictionary exactly like live ingestion, which
//! is what keeps replayed state bit-identical to an uninterrupted run
//! (see the ring-key contract in ROADMAP.md).
//!
//! Durability unit: one batch = one framed record
//! ([`crate::framing`]), so a crash can only lose whole *suffixes* of
//! batches — a torn tail never splits a batch into a half-applied state.

use crate::error::{CdcError, CdcResult};
use crate::framing::{self, LogEnd};
use fivm_common::{wire, WireReader, WireResult};
use fivm_relation::{Tuple, Update};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Shared fsync-fault injector: each pending count > 0 makes the next
/// [`ChangelogWriter::sync`] fail (and poison the writer) instead of
/// reaching the disk.  Lives in the library — like [`crate::fault`] — so
/// integration tests and the service-level fault suite can arm it through
/// [`crate::ServiceConfig`].
pub type SyncFaults = Arc<AtomicU32>;

/// Changelog file magic.
pub const CHANGELOG_MAGIC: &[u8; 4] = b"FVCL";

/// Changelog format version.
pub const CHANGELOG_VERSION: u32 = 1;

/// One row-level change operation.
#[derive(Debug, Clone, PartialEq)]
pub enum CdcOp {
    /// Insert `count` copies of `row`.
    Insert { row: Tuple, count: u32 },
    /// Delete `count` copies of `row`.
    Delete { row: Tuple, count: u32 },
    /// Replace `old` with `new` (delete + insert under one op).
    Update { old: Tuple, new: Tuple },
}

/// One durable change batch: the changelog's record type.
#[derive(Debug, Clone, PartialEq)]
pub struct CdcBatch {
    /// Monotonic batch sequence number; recovery replays batches with
    /// `seq` greater than the snapshot's.
    pub seq: u64,
    /// The base table the batch addresses (by name, like
    /// [`Update::table`]).
    pub table: String,
    /// Row operations, applied in order.
    pub ops: Vec<CdcOp>,
}

impl CdcBatch {
    /// Converts an engine [`Update`] into a batch: positive multiplicities
    /// become inserts, negative ones deletes.  Zero-multiplicity rows are
    /// no-ops to the engine and are not logged.
    pub fn from_update(seq: u64, update: &Update) -> CdcBatch {
        let ops = update
            .rows
            .iter()
            .filter(|(_, m)| *m != 0)
            .map(|(row, m)| {
                if *m > 0 {
                    CdcOp::Insert { row: row.clone(), count: *m as u32 }
                } else {
                    CdcOp::Delete { row: row.clone(), count: m.unsigned_abs() as u32 }
                }
            })
            .collect();
        CdcBatch {
            seq,
            table: update.table.clone(),
            ops,
        }
    }

    /// Lowers the batch back to `(row, multiplicity)` pairs in op order —
    /// the exact shape live ingestion feeds the engine, so replay
    /// preserves the delta-accumulation order of the original run.
    pub fn to_rows(&self) -> Vec<(Tuple, i64)> {
        let mut rows = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            match op {
                CdcOp::Insert { row, count } => rows.push((row.clone(), *count as i64)),
                CdcOp::Delete { row, count } => rows.push((row.clone(), -(*count as i64))),
                CdcOp::Update { old, new } => {
                    rows.push((old.clone(), -1));
                    rows.push((new.clone(), 1));
                }
            }
        }
        rows
    }

    /// The batch as an [`Update`] addressed to its table.
    pub fn to_update(&self) -> Update {
        Update::with_multiplicities(self.table.clone(), self.to_rows())
    }

    /// Serializes the batch into a record payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.seq);
        wire::put_str(out, &self.table);
        wire::put_u32(out, self.ops.len() as u32);
        for op in &self.ops {
            match op {
                CdcOp::Insert { row, count } => {
                    wire::put_u8(out, 0);
                    put_tuple(out, row);
                    wire::put_u32(out, *count);
                }
                CdcOp::Delete { row, count } => {
                    wire::put_u8(out, 1);
                    put_tuple(out, row);
                    wire::put_u32(out, *count);
                }
                CdcOp::Update { old, new } => {
                    wire::put_u8(out, 2);
                    put_tuple(out, old);
                    put_tuple(out, new);
                }
            }
        }
    }

    /// Decodes one record payload written by [`CdcBatch::encode`].
    pub fn decode(r: &mut WireReader<'_>) -> WireResult<CdcBatch> {
        let seq = r.u64()?;
        let table = r.str()?.to_string();
        let nops = r.u32()? as usize;
        if nops > r.remaining() {
            return Err(fivm_common::WireError::Malformed("op count out of range"));
        }
        let mut ops = Vec::with_capacity(nops);
        for _ in 0..nops {
            ops.push(match r.u8()? {
                0 => CdcOp::Insert { row: read_tuple(r)?, count: r.u32()? },
                1 => CdcOp::Delete { row: read_tuple(r)?, count: r.u32()? },
                2 => CdcOp::Update { old: read_tuple(r)?, new: read_tuple(r)? },
                _ => return Err(fivm_common::WireError::Malformed("CDC op tag out of range")),
            });
        }
        Ok(CdcBatch { seq, table, ops })
    }
}

/// Writes one row as `arity` + decoded values.
fn put_tuple(out: &mut Vec<u8>, row: &Tuple) {
    wire::put_u32(out, row.len() as u32);
    for v in row.iter() {
        wire::put_value(out, v);
    }
}

/// Reads a row written by [`put_tuple`].
fn read_tuple(r: &mut WireReader<'_>) -> WireResult<Tuple> {
    let arity = r.u32()? as usize;
    if arity > r.remaining() {
        return Err(fivm_common::WireError::Malformed("row arity out of range"));
    }
    let mut vals = Vec::with_capacity(arity);
    for _ in 0..arity {
        vals.push(wire::read_value(r)?);
    }
    Ok(vals.into_boxed_slice())
}

/// Appends framed [`CdcBatch`] records to a changelog file.
///
/// One write discipline: [`ChangelogWriter::append_unsynced`] writes
/// records, and [`ChangelogWriter::sync`] makes everything written so far
/// durable — once per batch or once per group of batches (group commit
/// amortizes the `fsync`).  Nothing appended is durable (and nothing may
/// be acknowledged) until the `sync` returns `Ok`.
///
/// **Poisoning.**  After *any* append or sync failure the writer enters a
/// poisoned state and refuses all further work with
/// [`CdcError::Poisoned`].  This is load-bearing for the write-ahead
/// guarantee: after a failed `fsync` the kernel may have dropped the dirty
/// pages, so retrying the sync could report success without the earlier
/// bytes ever reaching disk — the only safe continuation is recovery from
/// the on-disk prefix.
pub struct ChangelogWriter {
    file: File,
    next_seq: u64,
    /// File length in bytes (header + every appended record, synced or
    /// not) — segment rotation decisions read this instead of stat-ing.
    len: u64,
    /// Set on the first append/sync failure; never cleared.
    poisoned: bool,
    sync_faults: Option<SyncFaults>,
}

impl ChangelogWriter {
    /// Creates a fresh changelog (truncating any previous file) whose first
    /// batch will carry `first_seq` — 1 for a new log, or the next sequence
    /// number for a rotated *segment* continuing an existing one.
    pub fn create_at(path: impl AsRef<Path>, first_seq: u64) -> CdcResult<ChangelogWriter> {
        assert!(first_seq >= 1, "changelog sequence numbers start at 1");
        let mut file = File::create(path)?;
        let mut header = Vec::with_capacity(framing::HEADER_LEN);
        framing::put_header(&mut header, CHANGELOG_MAGIC, CHANGELOG_VERSION);
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(ChangelogWriter {
            file,
            next_seq: first_seq,
            len: framing::HEADER_LEN as u64,
            poisoned: false,
            sync_faults: None,
        })
    }

    /// Reopens an existing changelog for appending, continuing after the
    /// last durable batch.  The valid prefix determines the next sequence
    /// number — `base_seq`, the number the file was created to carry, when
    /// it holds no valid record (rotation crashed before the first
    /// append).  A torn or corrupt tail from an earlier crash is truncated
    /// back to the valid prefix first, so the file never accretes garbage
    /// between valid records.
    pub fn open_append_at(path: impl AsRef<Path>, base_seq: u64) -> CdcResult<ChangelogWriter> {
        let path = path.as_ref();
        let (batches, end) = read_changelog(path)?;
        let next_seq = batches.last().map_or(base_seq, |b| b.seq + 1);
        let valid_len = match end {
            LogEnd::Clean => None,
            LogEnd::TornTail { valid_len } | LogEnd::Corrupt { valid_len } => Some(valid_len),
        };
        let file = OpenOptions::new().write(true).open(path)?;
        if let Some(len) = valid_len {
            file.set_len(len as u64)?;
        }
        let mut w = ChangelogWriter {
            file,
            next_seq,
            len: 0,
            poisoned: false,
            sync_faults: None,
        };
        use std::io::Seek;
        w.len = w.file.seek(std::io::SeekFrom::End(0))?;
        Ok(w)
    }

    /// The sequence number the next appended batch will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// File length in bytes (header plus every appended record).
    pub fn file_len(&self) -> u64 {
        self.len
    }

    /// Whether an earlier append/sync failure poisoned this writer.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Arms the fsync fault injector: while `faults` holds a non-zero
    /// count, each [`ChangelogWriter::sync`] decrements it and fails
    /// (poisoning the writer) instead of syncing.
    pub fn set_sync_faults(&mut self, faults: SyncFaults) {
        self.sync_faults = Some(faults);
    }

    fn check_poisoned(&self) -> CdcResult<()> {
        if self.poisoned {
            return Err(CdcError::Poisoned(
                "changelog writer refused: an earlier append or fsync failed".into(),
            ));
        }
        Ok(())
    }

    /// Appends one batch *without* syncing.  The batch is **not durable**
    /// until a later [`ChangelogWriter::sync`] returns `Ok` — group commit
    /// amortizes that sync over many appends, and the caller must not
    /// acknowledge any of them before it.
    pub fn append_unsynced(&mut self, batch: &CdcBatch) -> CdcResult<()> {
        self.check_poisoned()?;
        assert_eq!(
            batch.seq, self.next_seq,
            "changelog batches must be appended in sequence"
        );
        let mut payload = Vec::new();
        batch.encode(&mut payload);
        let mut framed = Vec::with_capacity(payload.len() + framing::RECORD_OVERHEAD);
        framing::put_record(&mut framed, &payload)?;
        if let Err(e) = self.file.write_all(&framed) {
            self.poisoned = true;
            return Err(e.into());
        }
        self.len += framed.len() as u64;
        self.next_seq += 1;
        Ok(())
    }

    /// Syncs every appended record to disk.  On `Ok`, everything appended
    /// so far is durable; on `Err`, the writer is poisoned — whether the
    /// pending bytes reached the disk is unknowable, so no batch appended
    /// since the last successful sync may be acknowledged, ever.
    pub fn sync(&mut self) -> CdcResult<()> {
        self.check_poisoned()?;
        if let Some(faults) = &self.sync_faults {
            if faults
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                self.poisoned = true;
                return Err(CdcError::Io(std::io::Error::other(
                    "injected fsync failure (sync fault hook)",
                )));
            }
        }
        if let Err(e) = self.file.sync_data() {
            self.poisoned = true;
            return Err(e.into());
        }
        Ok(())
    }
}

/// Reads a changelog: every batch of the valid prefix, plus how the scan
/// ended (a torn or corrupt tail is data for the caller, not an error —
/// the batches after the damage point were never durable).
///
/// Fails only on I/O errors, a damaged *header*, or a record that passes
/// its checksum yet does not decode (a writer bug, not a crash artifact).
pub fn read_changelog(path: impl AsRef<Path>) -> CdcResult<(Vec<CdcBatch>, LogEnd)> {
    let bytes = std::fs::read(path)?;
    let start = framing::check_header(&bytes, CHANGELOG_MAGIC, CHANGELOG_VERSION)?;
    let (payloads, end) = framing::scan_records(&bytes, start);
    let mut batches = Vec::with_capacity(payloads.len());
    let mut prev_seq = 0u64;
    for p in payloads {
        let mut r = WireReader::new(p);
        let batch = CdcBatch::decode(&mut r)?;
        if !r.is_empty() {
            return Err(CdcError::Corrupt("trailing bytes in changelog record".into()));
        }
        if batch.seq <= prev_seq {
            return Err(CdcError::Corrupt(format!(
                "changelog sequence went backwards: {} after {prev_seq}",
                batch.seq
            )));
        }
        prev_seq = batch.seq;
        batches.push(batch);
    }
    Ok((batches, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_common::Value;
    use fivm_relation::tuple;

    fn row(vals: &[i64]) -> Tuple {
        tuple(vals.iter().map(|&v| Value::int(v)))
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fivm_cdc_changelog_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Appends `update` as the writer's next batch and syncs it; returns
    /// its sequence number.
    fn append(w: &mut ChangelogWriter, update: &Update) -> CdcResult<u64> {
        let seq = w.next_seq();
        w.append_unsynced(&CdcBatch::from_update(seq, update))?;
        w.sync()?;
        Ok(seq)
    }

    #[test]
    fn batches_round_trip_through_a_file() {
        let dir = tempdir("roundtrip");
        let path = dir.join("log");
        let mut w = ChangelogWriter::create_at(&path, 1).unwrap();
        let u1 = Update::inserts("Inventory", vec![row(&[1, 2]), row(&[3, 4])]);
        let u2 = Update::with_multiplicities("Inventory", vec![(row(&[1, 2]), -1)]);
        assert_eq!(append(&mut w, &u1).unwrap(), 1);
        assert_eq!(append(&mut w, &u2).unwrap(), 2);
        let mixed = CdcBatch {
            seq: 3,
            table: "Item".into(),
            ops: vec![
                CdcOp::Update { old: row(&[7, 8]), new: row(&[7, 9]) },
                CdcOp::Insert { row: row(&[10, 11]), count: 3 },
            ],
        };
        w.append_unsynced(&mixed).unwrap();
        w.sync().unwrap();

        let (batches, end) = read_changelog(&path).unwrap();
        assert!(end.is_clean());
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].to_update().table, u1.table);
        assert_eq!(batches[0].to_update().rows, u1.rows);
        assert_eq!(batches[1].to_update().rows, u2.rows);
        assert_eq!(batches[2], mixed);
        assert_eq!(
            batches[2].to_rows(),
            vec![(row(&[7, 8]), -1), (row(&[7, 9]), 1), (row(&[10, 11]), 3)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_continues_the_sequence_and_drops_torn_tails() {
        let dir = tempdir("reopen");
        let path = dir.join("log");
        let mut w = ChangelogWriter::create_at(&path, 1).unwrap();
        append(&mut w, &Update::inserts("T", vec![row(&[1])])).unwrap();
        append(&mut w, &Update::inserts("T", vec![row(&[2])])).unwrap();
        drop(w);

        // Tear the tail: cut 3 bytes off the second record.
        let len = std::fs::metadata(&path).unwrap().len();
        crate::fault::truncate_tail(&path, 3).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len - 3);

        let mut w = ChangelogWriter::open_append_at(&path, 1).unwrap();
        assert_eq!(w.next_seq(), 2, "torn batch 2 was never durable");
        append(&mut w, &Update::inserts("T", vec![row(&[3])])).unwrap();
        let (batches, end) = read_changelog(&path).unwrap();
        assert!(end.is_clean(), "reopen truncated the torn bytes");
        assert_eq!(batches.iter().map(|b| b.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(batches[1].to_rows(), vec![(row(&[3]), 1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_fsync_poisons_the_writer_for_good() {
        let dir = tempdir("poison");
        let path = dir.join("log");
        let mut w = ChangelogWriter::create_at(&path, 1).unwrap();
        append(&mut w, &Update::inserts("T", vec![row(&[1])])).unwrap();

        // Arm one injected fsync failure: the append's write lands in the
        // file, the sync fails, the batch must never be acknowledged.
        let faults: SyncFaults = Arc::new(AtomicU32::new(1));
        w.set_sync_faults(Arc::clone(&faults));
        let err = append(&mut w, &Update::inserts("T", vec![row(&[2])])).unwrap_err();
        assert_eq!(err.kind(), "io", "{err}");
        assert!(w.is_poisoned());
        assert_eq!(faults.load(Ordering::SeqCst), 0, "one fault consumed");

        // The hook is spent, a retry *could* sync — but the writer must
        // refuse: after a failed fsync the earlier bytes' durability is
        // unknowable, and a silent retry would forge the write-ahead ack.
        let err = append(&mut w, &Update::inserts("T", vec![row(&[3])])).unwrap_err();
        assert_eq!(err.kind(), "poisoned", "{err}");
        let err = w.sync().unwrap_err();
        assert_eq!(err.kind(), "poisoned", "{err}");
        drop(w);

        // Reopening recovers the durable prefix: batch 1 for sure; batch 2
        // may or may not have reached the disk (its sync failed), but the
        // log is structurally valid either way and the sequence continues.
        let w = ChangelogWriter::open_append_at(&path, 1).unwrap();
        assert!(w.next_seq() == 2 || w.next_seq() == 3);
        let (batches, _) = read_changelog(&path).unwrap();
        assert_eq!(batches[0].to_rows(), vec![(row(&[1]), 1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_appends_are_invisible_until_sync() {
        let dir = tempdir("group");
        let path = dir.join("log");
        let mut w = ChangelogWriter::create_at(&path, 1).unwrap();
        let before = w.file_len();
        w.append_unsynced(&CdcBatch::from_update(1, &Update::inserts("T", vec![row(&[1])])))
            .unwrap();
        w.append_unsynced(&CdcBatch::from_update(2, &Update::inserts("T", vec![row(&[2])])))
            .unwrap();
        assert!(w.file_len() > before);
        w.sync().unwrap();
        assert_eq!(w.next_seq(), 3);
        let (batches, end) = read_changelog(&path).unwrap();
        assert!(end.is_clean());
        assert_eq!(batches.len(), 2);
        assert_eq!(
            w.file_len(),
            std::fs::metadata(&path).unwrap().len(),
            "writer length tracking matches the file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_multiplicity_rows_are_not_logged() {
        let u = Update::with_multiplicities("T", vec![(row(&[1]), 0), (row(&[2]), 2)]);
        let b = CdcBatch::from_update(5, &u);
        assert_eq!(b.ops.len(), 1);
        assert_eq!(b.to_rows(), vec![(row(&[2]), 2)]);
    }
}
