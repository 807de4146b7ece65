//! Engine snapshots: one atomic, checksummed file per save point.
//!
//! A snapshot file is the framing header plus a **single** framed record
//! whose payload is `u64 seq` followed by the engine-state bytes from
//! [`fivm_core::Engine::save_state`] (plan fingerprint, dictionary, and
//! every view's `(hash, key, payload)` entries).  `seq` is the changelog
//! sequence number the state includes; recovery replays batches with
//! greater sequence numbers on top.
//!
//! Atomicity: the file is written to a `.tmp` sibling, synced, and then
//! renamed over the target.  A crash mid-save leaves either the previous
//! snapshot intact or a stray `.tmp` — never a half-written file under
//! the snapshot's name.  Together with the record checksum (which catches
//! damage *after* a completed rename) a reader can always classify a
//! snapshot as usable or not.

use crate::error::{CdcError, CdcResult};
use crate::framing;
use fivm_common::wire;
use fivm_core::Engine;
use fivm_ring::PersistRing;
use std::io::Write;
use std::path::Path;

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"FVSN";

/// Snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Serializes `engine` (which has applied the changelog through `seq`)
/// into the snapshot wire form.  Fails with [`CdcError::RecordTooLarge`]
/// when the state does not fit one record.
pub fn encode_snapshot<R: PersistRing>(seq: u64, engine: &Engine<R>) -> CdcResult<Vec<u8>> {
    let mut payload = Vec::new();
    wire::put_u64(&mut payload, seq);
    engine.save_state(&mut payload);
    let mut out = Vec::with_capacity(payload.len() + framing::HEADER_LEN + framing::RECORD_OVERHEAD);
    framing::put_header(&mut out, SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
    framing::put_record(&mut out, &payload)?;
    Ok(out)
}

/// Writes a snapshot atomically: temp file, sync, rename.
pub fn write_snapshot<R: PersistRing>(
    path: impl AsRef<Path>,
    seq: u64,
    engine: &Engine<R>,
) -> CdcResult<()> {
    let path = path.as_ref();
    let bytes = encode_snapshot(seq, engine)?;
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and validates a snapshot file, returning its sequence number and
/// the raw engine-state bytes.  Unlike a changelog tail, *any* damage to a
/// snapshot is an error — a snapshot is written atomically, so a torn or
/// corrupt one was either tampered with or hit bit rot, and recovery
/// should fall back to an older snapshot or a full replay.
pub fn read_snapshot(path: impl AsRef<Path>) -> CdcResult<(u64, Vec<u8>)> {
    let bytes = std::fs::read(path)?;
    let start = framing::check_header(&bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
    let (payloads, end) = framing::scan_records(&bytes, start);
    if !end.is_clean() || payloads.len() != 1 {
        return Err(CdcError::Corrupt(format!(
            "snapshot must be exactly one intact record (found {} records, end {end:?})",
            payloads.len()
        )));
    }
    let payload = payloads[0];
    let mut r = fivm_common::WireReader::new(payload);
    let seq = r.u64()?;
    let state_start = payload.len() - r.remaining();
    Ok((seq, payload[state_start..].to_vec()))
}

/// Restores a snapshot into `engine` (freshly constructed, same plan and
/// ring — see [`Engine::load_state`]) and returns the sequence number the
/// restored state includes.
pub fn load_snapshot<R: PersistRing>(
    path: impl AsRef<Path>,
    engine: &mut Engine<R>,
) -> CdcResult<u64> {
    let (seq, state) = read_snapshot(path)?;
    engine.load_state(&state)?;
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_files_validate_their_single_record() {
        // Hand-build a malformed snapshot: two records.
        let mut bytes = Vec::new();
        framing::put_header(&mut bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        framing::put_record(&mut bytes, &[1, 2, 3]).unwrap();
        framing::put_record(&mut bytes, &[4]).unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fivm_cdc_snap_two_{}", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_snapshot_is_an_io_error() {
        let err = read_snapshot("/nonexistent/fivm/snapshot").unwrap_err();
        assert_eq!(err.kind(), "io");
    }
}
