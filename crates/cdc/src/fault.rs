//! Fault injection for the recovery test suite: file-level damage of the
//! kinds a crash or failing disk actually produces.
//!
//! These helpers mutate durable files in place so tests can assert the
//! reader-side classification (torn tail vs. corrupt record vs. clean)
//! and the recovery outcome under each.  They live in the library — not
//! the test tree — so the benchmark (`benchmark/src/service.rs`) and
//! downstream crates can reuse them.

use crate::error::CdcResult;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Current length of a durable file in bytes.
pub fn file_len(path: impl AsRef<Path>) -> CdcResult<u64> {
    Ok(std::fs::metadata(path)?.len())
}

/// Simulates a crash mid-write (short write / torn append): cuts `bytes`
/// off the end of the file.
pub fn truncate_tail(path: impl AsRef<Path>, bytes: u64) -> CdcResult<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    let len = file.metadata()?.len();
    file.set_len(len.saturating_sub(bytes))?;
    file.sync_data()?;
    Ok(())
}

/// Truncates the file to exactly `len` bytes (crash at a chosen offset).
pub fn truncate_to(path: impl AsRef<Path>, len: u64) -> CdcResult<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_data()?;
    Ok(())
}

/// Simulates bit rot / a buggy writer: XORs `mask` into the byte at
/// `offset` (from the start of the file; `mask` must be non-zero so the
/// byte actually changes).
pub fn flip_byte(path: impl AsRef<Path>, offset: u64, mask: u8) -> CdcResult<()> {
    assert_ne!(mask, 0, "a zero mask would leave the file unchanged");
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(&mut byte)?;
    byte[0] ^= mask;
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(&byte)?;
    file.sync_data()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injectors_mutate_files_as_described() {
        let path = std::env::temp_dir().join(format!("fivm_cdc_fault_{}", std::process::id()));
        std::fs::write(&path, [0u8, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        assert_eq!(file_len(&path).unwrap(), 8);
        truncate_tail(&path, 3).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![0, 1, 2, 3, 4]);
        flip_byte(&path, 1, 0xFF).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![0, 0xFE, 2, 3, 4]);
        truncate_to(&path, 2).unwrap();
        assert_eq!(file_len(&path).unwrap(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
