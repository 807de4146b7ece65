//! Changelog segment rotation and retirement: the single `changelog.fvcl`
//! becomes a sequence of size-bounded segment files, so the log can grow
//! forever in *sequence* while staying bounded on *disk*.
//!
//! Naming invariant: a segment file is named
//! `changelog-<first_seq:016>.fvcl`, where `<first_seq>` is the sequence
//! number its first batch carries (or will carry, for a freshly rotated
//! segment that is still empty).  Sorting file names therefore sorts
//! segments by sequence, and a segment's *coverage* is `[first_seq,
//! next_segment.first_seq)` — readable from the directory listing alone,
//! without opening any file.
//!
//! Durability asymmetry between segments:
//!
//! * The **active** (newest) segment is the only one an appender writes,
//!   so torn or corrupt tails there are crash artifacts — *data* marking
//!   where durability ended, exactly like the single-file changelog.  A
//!   segment whose header never finished (crash mid-rotation) is the
//!   degenerate case: torn at offset 0, zero batches durable.
//! * **Sealed** segments (every earlier one) were fully synced before the
//!   log rotated past them, so damage there is bit rot, not a crash
//!   artifact.  Scanning fails loudly ([`CdcError::Corrupt`]) instead of
//!   silently skipping a gap: batches after a mid-chain hole must never
//!   replay, and dropping them silently would un-ack durable data.
//!
//! Retirement invariant: a sealed segment may be deleted once every
//! sequence number it covers is `<=` the newest snapshot's — recovery will
//! never need to replay it again.  Deletion goes oldest-first, so a crash
//! mid-retirement leaves a contiguous suffix of segments (a prefix of the
//! deletions), never a hole.  The active segment is never retired.

use crate::changelog::{read_changelog, CdcBatch, ChangelogWriter, SyncFaults};
use crate::error::{CdcError, CdcResult};
use crate::framing::{self, LogEnd};
use fivm_relation::Update;
use std::path::{Path, PathBuf};

/// Prefix of every changelog segment file name.
pub const SEGMENT_PREFIX: &str = "changelog-";

/// Suffix of every changelog segment file name.
pub const SEGMENT_SUFFIX: &str = ".fvcl";

/// Default rotation threshold for [`SegmentedLog::create`] callers that do
/// not choose one (64 MiB — large enough that small deployments behave
/// like the old single-file log).
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 << 20;

/// File name of the segment whose first batch carries `first_seq`.
pub fn segment_file_name(first_seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{first_seq:016}{SEGMENT_SUFFIX}")
}

/// Parses a segment file name back to its `first_seq`; `None` for any
/// file that is not a changelog segment (snapshots share the directory).
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix(SEGMENT_PREFIX)?.strip_suffix(SEGMENT_SUFFIX)?;
    if digits.len() != 16 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One segment as seen in a directory listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Sequence number of the segment's first batch (from the file name).
    pub first_seq: u64,
    /// Full path of the segment file.
    pub path: PathBuf,
    /// Current file size in bytes.
    pub bytes: u64,
}

/// Lists the changelog segments in `dir`, sorted by `first_seq`.  Files
/// that do not match the segment naming pattern are ignored.
pub fn list_segments(dir: impl AsRef<Path>) -> CdcResult<Vec<SegmentInfo>> {
    let dir = dir.as_ref();
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(first_seq) = parse_segment_name(name) else { continue };
        out.push(SegmentInfo {
            first_seq,
            path: entry.path(),
            bytes: entry.metadata()?.len(),
        });
    }
    out.sort_by_key(|s| s.first_seq);
    for pair in out.windows(2) {
        if pair[0].first_seq == pair[1].first_seq {
            return Err(CdcError::Corrupt(format!(
                "two changelog segments claim first_seq {}",
                pair[0].first_seq
            )));
        }
    }
    Ok(out)
}

/// Result of scanning a whole segment directory.
#[derive(Debug)]
pub struct LogScan {
    /// Every batch of the durable prefix, in sequence order, across all
    /// segments.
    pub batches: Vec<CdcBatch>,
    /// How the prefix ended: damage in the *active* (newest) segment shows
    /// up here, exactly like the single-file scan; sealed-segment damage
    /// is an error instead.
    pub end: LogEnd,
    /// Number of segment files scanned.
    pub segments: usize,
    /// `first_seq` of the oldest segment on disk (`None` when the
    /// directory holds no segments) — recovery uses it to detect a gap
    /// between a snapshot and the retained log.
    pub oldest_seq: Option<u64>,
}

/// Reads every changelog segment in `dir` in sequence order, enforcing
/// the naming and continuity invariants:
///
/// * a segment's first batch carries exactly the file name's `first_seq`;
/// * sequence numbers are contiguous across segment boundaries;
/// * sealed segments end clean (damage there is [`CdcError::Corrupt`]);
/// * the active segment may end torn/corrupt ([`LogScan::end`] reports
///   it), including the rotation-crash artifact of a segment too short to
///   hold its header (treated as torn at offset 0, zero batches).
pub fn read_log_dir(dir: impl AsRef<Path>) -> CdcResult<LogScan> {
    let segments = list_segments(dir)?;
    let mut batches: Vec<CdcBatch> = Vec::new();
    let mut end = LogEnd::Clean;
    let last = segments.len().wrapping_sub(1);
    for (i, seg) in segments.iter().enumerate() {
        let is_active = i == last;
        if is_active && seg.bytes < framing::HEADER_LEN as u64 {
            // Crash mid-rotation: the header never finished, nothing in
            // this segment was ever durable.
            end = LogEnd::TornTail { valid_len: 0 };
            break;
        }
        let (seg_batches, seg_end) = read_changelog(&seg.path)?;
        if !seg_end.is_clean() && !is_active {
            return Err(CdcError::Corrupt(format!(
                "sealed changelog segment {} is damaged ({seg_end:?}): sealed segments \
                 were fully synced at rotation, so this is bit rot, not a crash artifact",
                seg.path.display()
            )));
        }
        match seg_batches.first() {
            Some(first) => {
                if first.seq != seg.first_seq {
                    return Err(CdcError::Corrupt(format!(
                        "segment {} is named for seq {} but starts at seq {}",
                        seg.path.display(),
                        seg.first_seq,
                        first.seq
                    )));
                }
                if let Some(prev) = batches.last() {
                    if first.seq != prev.seq + 1 {
                        return Err(CdcError::Corrupt(format!(
                            "changelog sequence gap across segments: {} then {}",
                            prev.seq, first.seq
                        )));
                    }
                }
            }
            None => {
                if !is_active {
                    return Err(CdcError::Corrupt(format!(
                        "sealed changelog segment {} holds no batches (only the \
                         newest segment may be empty)",
                        seg.path.display()
                    )));
                }
            }
        }
        batches.extend(seg_batches);
        end = seg_end;
    }
    Ok(LogScan {
        batches,
        end,
        segments: segments.len(),
        oldest_seq: segments.first().map(|s| s.first_seq),
    })
}

/// A size-bounded sequence of changelog segments behind the
/// [`ChangelogWriter`] interface: appends go to the newest (*active*)
/// segment, rotation seals it and opens the next, and retirement deletes
/// sealed segments a snapshot has made obsolete.
pub struct SegmentedLog {
    dir: PathBuf,
    active: ChangelogWriter,
    active_first_seq: u64,
    /// Sealed segments still on disk, oldest first.
    sealed: Vec<SegmentInfo>,
    max_segment_bytes: u64,
    sync_faults: Option<SyncFaults>,
    /// Set when a rotation failed partway; the log can no longer promise
    /// where appended bytes live, so it refuses further work.
    poisoned: bool,
}

impl SegmentedLog {
    /// Starts a fresh segmented changelog in `dir`, deleting any previous
    /// segments there.  The first segment is named for sequence 1.
    pub fn create(dir: impl AsRef<Path>, max_segment_bytes: u64) -> CdcResult<SegmentedLog> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        for seg in list_segments(&dir)? {
            std::fs::remove_file(&seg.path)?;
        }
        let active = ChangelogWriter::create_at(dir.join(segment_file_name(1)), 1)?;
        Ok(SegmentedLog {
            dir,
            active,
            active_first_seq: 1,
            sealed: Vec::new(),
            max_segment_bytes,
            sync_faults: None,
            poisoned: false,
        })
    }

    /// Reopens an existing segmented changelog for appending.  The active
    /// segment's torn/corrupt tail (if any) is truncated back to the valid
    /// prefix — or the whole segment recreated, when a rotation crash left
    /// it without a complete header — so appends continue the durable
    /// sequence.  With no segments on disk (a fresh directory, or one
    /// holding only a snapshot), a new segment is created named for
    /// `fallback_first_seq` — the sequence number after the recovered
    /// snapshot's.
    pub(crate) fn open_append(
        dir: impl AsRef<Path>,
        max_segment_bytes: u64,
        fallback_first_seq: u64,
    ) -> CdcResult<SegmentedLog> {
        let dir = dir.as_ref().to_path_buf();
        let mut segments = list_segments(&dir)?;
        let (active, active_first_seq) = match segments.pop() {
            None => {
                let first = fallback_first_seq.max(1);
                (
                    ChangelogWriter::create_at(dir.join(segment_file_name(first)), first)?,
                    first,
                )
            }
            Some(tail) => {
                // Sealed segments must be intact before we agree to extend
                // the chain (same loud-failure rule as `read_log_dir`).
                for seg in &segments {
                    let (_, end) = read_changelog(&seg.path)?;
                    if !end.is_clean() {
                        return Err(CdcError::Corrupt(format!(
                            "sealed changelog segment {} is damaged ({end:?})",
                            seg.path.display()
                        )));
                    }
                }
                let writer = if tail.bytes < framing::HEADER_LEN as u64 {
                    // Rotation crashed before the header finished: nothing
                    // in the file was durable; start it over.
                    ChangelogWriter::create_at(&tail.path, tail.first_seq)?
                } else {
                    ChangelogWriter::open_append_at(&tail.path, tail.first_seq)?
                };
                (writer, tail.first_seq)
            }
        };
        Ok(SegmentedLog {
            dir,
            active,
            active_first_seq,
            sealed: segments,
            max_segment_bytes,
            sync_faults: None,
            poisoned: false,
        })
    }

    /// The sequence number the next appended batch will carry.
    pub fn next_seq(&self) -> u64 {
        self.active.next_seq()
    }

    /// Number of segment files on disk (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Total bytes across every segment on disk — the gauge the
    /// bounded-disk guarantee is asserted on.
    pub fn total_bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum::<u64>() + self.active.file_len()
    }

    /// Arms the fsync fault injector on the active segment and every
    /// segment rotated to later.
    pub fn set_sync_faults(&mut self, faults: SyncFaults) {
        self.active.set_sync_faults(faults.clone());
        self.sync_faults = Some(faults);
    }

    /// Appends one update *without* syncing (group commit; see
    /// [`ChangelogWriter::append_unsynced`]) and returns its sequence
    /// number.  Rotates to a new segment first when the active one has
    /// reached the size bound — the sealed segment is synced as part of
    /// rotation, so nothing already appended loses durability ordering.
    pub fn append_unsynced(&mut self, update: &Update) -> CdcResult<u64> {
        if self.poisoned {
            return Err(CdcError::Poisoned(
                "segmented changelog refused: an earlier rotation failed".into(),
            ));
        }
        self.maybe_rotate()?;
        let seq = self.active.next_seq();
        let batch = CdcBatch::from_update(seq, update);
        self.active.append_unsynced(&batch)?;
        Ok(seq)
    }

    /// Syncs the active segment: everything appended so far is durable
    /// once this returns `Ok` (earlier segments were synced when sealed).
    pub fn sync(&mut self) -> CdcResult<()> {
        self.active.sync()
    }

    /// Seals the active segment and opens the next when the size bound is
    /// reached.  An empty segment never rotates (rotation would name the
    /// successor identically).
    fn maybe_rotate(&mut self) -> CdcResult<()> {
        if self.active.file_len() < self.max_segment_bytes
            || self.active.next_seq() == self.active_first_seq
        {
            return Ok(());
        }
        // Seal: the old segment's bytes must be durable before any append
        // goes to the successor, or a crash could lose a middle segment's
        // tail while a later segment holds data.
        self.active.sync()?;
        let next_seq = self.active.next_seq();
        let sealed_path = self.dir.join(segment_file_name(self.active_first_seq));
        let new_path = self.dir.join(segment_file_name(next_seq));
        let mut writer = match ChangelogWriter::create_at(&new_path, next_seq) {
            Ok(w) => w,
            Err(e) => {
                // The old segment is intact, but this log's view of the
                // chain is not trustworthy anymore; refuse further appends
                // and let recovery re-establish it.
                self.poisoned = true;
                return Err(e);
            }
        };
        if let Some(faults) = &self.sync_faults {
            writer.set_sync_faults(faults.clone());
        }
        let sealed_bytes = std::mem::replace(&mut self.active, writer).file_len();
        self.sealed.push(SegmentInfo {
            first_seq: self.active_first_seq,
            path: sealed_path,
            bytes: sealed_bytes,
        });
        self.active_first_seq = next_seq;
        Ok(())
    }

    /// Retires (deletes) sealed segments whose every sequence number is
    /// `<= snapshot_seq` — recovery restores the snapshot and never
    /// replays them again.  Coverage is read off the successor's name: a
    /// sealed segment covers `[first_seq, successor.first_seq)`.  Deletion
    /// goes oldest-first so a crash mid-retirement leaves a contiguous
    /// chain.  Returns how many segments were deleted.
    pub fn retire(&mut self, snapshot_seq: u64) -> CdcResult<usize> {
        let mut retired = 0;
        while let Some(seg) = self.sealed.first() {
            let successor_first = self
                .sealed
                .get(1)
                .map_or(self.active_first_seq, |s| s.first_seq);
            // Highest seq this segment can hold is successor_first - 1.
            if successor_first > snapshot_seq + 1 {
                break;
            }
            std::fs::remove_file(&seg.path)?;
            self.sealed.remove(0);
            retired += 1;
        }
        Ok(retired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fivm_common::Value;
    use fivm_relation::tuple;

    fn row(v: i64) -> fivm_relation::Tuple {
        tuple([Value::int(v)])
    }

    fn update(v: i64) -> Update {
        Update::inserts("T", vec![row(v)])
    }

    /// Appends `update(v)` durably (append + sync); returns its seq.
    fn append(log: &mut SegmentedLog, v: i64) -> u64 {
        let seq = log.append_unsynced(&update(v)).unwrap();
        log.sync().unwrap();
        seq
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fivm_cdc_segment_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn names_round_trip_and_reject_non_segments() {
        assert_eq!(segment_file_name(1), "changelog-0000000000000001.fvcl");
        assert_eq!(parse_segment_name(&segment_file_name(42)), Some(42));
        assert_eq!(
            parse_segment_name(&segment_file_name(9_999_999_999_999_999)),
            Some(9_999_999_999_999_999)
        );
        assert_eq!(parse_segment_name("changelog.fvcl"), None);
        assert_eq!(parse_segment_name("snapshot.fvsn"), None);
        assert_eq!(parse_segment_name("changelog-abc.fvcl"), None);
        assert_eq!(parse_segment_name("changelog-1.fvcl"), None, "unpadded");
    }

    #[test]
    fn rotation_seals_by_size_and_readers_cross_boundaries() {
        let dir = tempdir("rotate");
        // Tiny bound: every batch lands in its own segment after the first.
        let mut log = SegmentedLog::create(&dir, 1).unwrap();
        for v in 1..=5 {
            assert_eq!(append(&mut log, v), v as u64);
        }
        assert_eq!(log.segment_count(), 5);
        let scan = read_log_dir(&dir).unwrap();
        assert!(scan.end.is_clean());
        assert_eq!(scan.segments, 5);
        assert_eq!(
            scan.batches.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        assert_eq!(scan.oldest_seq, Some(1));

        // Reopen continues the sequence in the tail segment.
        drop(log);
        let mut log = SegmentedLog::open_append(&dir, 1, 1).unwrap();
        assert_eq!(log.next_seq(), 6);
        append(&mut log, 6);
        let scan = read_log_dir(&dir).unwrap();
        assert_eq!(scan.batches.len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retirement_deletes_snapshot_covered_segments_oldest_first() {
        let dir = tempdir("retire");
        let mut log = SegmentedLog::create(&dir, 1).unwrap();
        for v in 1..=6 {
            append(&mut log, v);
        }
        assert_eq!(log.segment_count(), 6);
        let total_before = log.total_bytes();

        // Snapshot at seq 3: segments covering 1..=3 go; segment starting
        // at 4 must stay (it covers seq 4 > 3).
        assert_eq!(log.retire(3).unwrap(), 3);
        assert_eq!(log.segment_count(), 3);
        assert!(log.total_bytes() < total_before);
        let scan = read_log_dir(&dir).unwrap();
        assert_eq!(scan.oldest_seq, Some(4));
        assert_eq!(
            scan.batches.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );

        // Retiring at the newest seq never touches the active segment.
        assert_eq!(log.retire(100).unwrap(), 2);
        assert_eq!(log.segment_count(), 1);
        assert_eq!(log.next_seq(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_tail_segment_is_a_valid_crash_state() {
        let dir = tempdir("empty_tail");
        let mut log = SegmentedLog::create(&dir, 1).unwrap();
        for v in 1..=3 {
            append(&mut log, v);
        }
        drop(log);
        // Simulate: rotation created the next segment (header only), crash
        // before its first append.
        ChangelogWriter::create_at(dir.join(segment_file_name(4)), 4).unwrap();
        let scan = read_log_dir(&dir).unwrap();
        assert!(scan.end.is_clean());
        assert_eq!(scan.batches.len(), 3);

        let mut log = SegmentedLog::open_append(&dir, 1, 1).unwrap();
        assert_eq!(log.next_seq(), 4, "empty tail segment names its own base seq");
        append(&mut log, 4);
        let scan = read_log_dir(&dir).unwrap();
        assert_eq!(scan.batches.last().unwrap().seq, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_header_tail_segment_is_torn_at_zero() {
        let dir = tempdir("torn_header");
        let mut log = SegmentedLog::create(&dir, 1).unwrap();
        append(&mut log, 1);
        drop(log);
        // Crash mid-rotation: the successor file exists with 3 header bytes.
        std::fs::write(dir.join(segment_file_name(2)), [0x46, 0x56, 0x43]).unwrap();
        let scan = read_log_dir(&dir).unwrap();
        assert_eq!(scan.end, LogEnd::TornTail { valid_len: 0 });
        assert_eq!(scan.batches.len(), 1);

        // Reopen recreates the torn segment and continues at seq 2.
        let mut log = SegmentedLog::open_append(&dir, 1, 1).unwrap();
        assert_eq!(log.next_seq(), 2);
        append(&mut log, 2);
        let scan = read_log_dir(&dir).unwrap();
        assert!(scan.end.is_clean());
        assert_eq!(scan.batches.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_segment_damage_fails_loudly() {
        let dir = tempdir("sealed_damage");
        let mut log = SegmentedLog::create(&dir, 1).unwrap();
        for v in 1..=3 {
            append(&mut log, v);
        }
        drop(log);
        // Damage the *middle* segment: bit rot on a sealed file.
        crate::fault::flip_byte(dir.join(segment_file_name(2)), 12, 0x40).unwrap();
        let err = read_log_dir(&dir).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        assert!(err.to_string().contains("sealed"), "{err}");
        let err = SegmentedLog::open_append(&dir, 1, 1).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_segment_sequence_gaps_are_corruption() {
        let dir = tempdir("gap");
        let mut log = SegmentedLog::create(&dir, 1).unwrap();
        for v in 1..=4 {
            append(&mut log, v);
        }
        drop(log);
        // Delete a middle segment: the listing still sorts, but the chain
        // has a hole.
        std::fs::remove_file(dir.join(segment_file_name(2))).unwrap();
        let err = read_log_dir(&dir).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        assert!(err.to_string().contains("gap"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
