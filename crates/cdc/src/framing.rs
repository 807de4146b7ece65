//! Checksummed record framing shared by the changelog and snapshot files.
//!
//! A durable file is a fixed header followed by zero or more records:
//!
//! ```text
//! [magic: 4 bytes][version: u32 LE]            -- header
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]   -- per record
//! ```
//!
//! The framing is what makes partial failures *detectable* instead of
//! silent:
//!
//! * a **torn tail** (crash mid-append, short write) leaves the final
//!   record with fewer than `len` payload bytes — or a cut-off length
//!   field itself — and scanning reports [`LogEnd::TornTail`] at the
//!   offset where the valid prefix ends;
//! * a **corrupt record** (bit rot, seek bug, flipped checksum byte)
//!   fails its CRC and scanning reports [`LogEnd::Corrupt`].
//!
//! Both cases end the valid prefix; everything before it is intact by
//! checksum.  Recovery treats the records after the prefix as
//! never-durable — exactly the contract an appending writer provides,
//! since records become durable in order.

use crate::crc::crc32;
use crate::error::{CdcError, CdcResult};

/// Bytes every record costs on top of its payload.
pub const RECORD_OVERHEAD: usize = 8;

/// Header length: magic + version.
pub const HEADER_LEN: usize = 8;

/// Caps a single record's payload (64 MiB).  A length field beyond the cap
/// is treated as corruption rather than an allocation request.
pub const MAX_RECORD_LEN: usize = 64 << 20;

/// How a scan over a file's records ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogEnd {
    /// The file ends exactly on a record boundary.
    Clean,
    /// The file ends inside a record (crash mid-append / short write).
    /// `valid_len` is the byte offset where the intact prefix ends.
    TornTail { valid_len: usize },
    /// A record failed its checksum (or declared an impossible length).
    /// `valid_len` is the byte offset where the intact prefix ends.
    Corrupt { valid_len: usize },
}

impl LogEnd {
    /// Whether every byte of the file was part of a valid record.
    pub fn is_clean(&self) -> bool {
        matches!(self, LogEnd::Clean)
    }
}

/// Little-endian `u32` at `pos`; the caller has already length-checked
/// the slice, so indexing (never a panicking `try_into().expect`) reads
/// the four bytes directly.
#[inline]
fn read_u32_le(bytes: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
}

/// Appends the file header for `magic`/`version` to `out`.
pub fn put_header(out: &mut Vec<u8>, magic: &[u8; 4], version: u32) {
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
}

/// Validates a file's header, returning the offset of the first record.
pub fn check_header(bytes: &[u8], magic: &[u8; 4], version: u32) -> CdcResult<usize> {
    if bytes.len() < HEADER_LEN {
        return Err(CdcError::Corrupt(format!(
            "file is {} bytes, shorter than its {HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if &bytes[..4] != magic {
        return Err(CdcError::Corrupt(format!(
            "bad magic {:02x?} (expected {:02x?})",
            &bytes[..4],
            magic
        )));
    }
    let got = read_u32_le(bytes, 4);
    if got != version {
        return Err(CdcError::Corrupt(format!(
            "unsupported format version {got} (expected {version})"
        )));
    }
    Ok(HEADER_LEN)
}

/// Appends one framed record (`len`, `crc`, payload) to `out`, or leaves
/// `out` untouched and reports [`CdcError::RecordTooLarge`] when the
/// payload is over [`MAX_RECORD_LEN`].
pub fn put_record(out: &mut Vec<u8>, payload: &[u8]) -> CdcResult<()> {
    if payload.len() > MAX_RECORD_LEN {
        return Err(CdcError::RecordTooLarge {
            len: payload.len(),
            max: MAX_RECORD_LEN,
        });
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Scans the framed records starting at `offset`, returning every payload
/// of the valid prefix and how the scan ended.  Never fails: damage is
/// reported through [`LogEnd`], because a torn or corrupt *tail* is an
/// expected crash outcome, not an unreadable file.
pub fn scan_records(bytes: &[u8], offset: usize) -> (Vec<&[u8]>, LogEnd) {
    let mut records = Vec::new();
    let mut pos = offset;
    loop {
        if pos == bytes.len() {
            return (records, LogEnd::Clean);
        }
        if bytes.len() - pos < RECORD_OVERHEAD {
            return (records, LogEnd::TornTail { valid_len: pos });
        }
        let len = read_u32_le(bytes, pos) as usize;
        let crc = read_u32_le(bytes, pos + 4);
        if len > MAX_RECORD_LEN {
            return (records, LogEnd::Corrupt { valid_len: pos });
        }
        let body_start = pos + RECORD_OVERHEAD;
        if bytes.len() - body_start < len {
            return (records, LogEnd::TornTail { valid_len: pos });
        }
        let payload = &bytes[body_start..body_start + len];
        if crc32(payload) != crc {
            return (records, LogEnd::Corrupt { valid_len: pos });
        }
        records.push(payload);
        pos = body_start + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 4] = b"TST1";

    fn file_with(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        put_header(&mut out, MAGIC, 1);
        for p in payloads {
            put_record(&mut out, p).unwrap();
        }
        out
    }

    #[test]
    fn round_trips_records() {
        let f = file_with(&[b"alpha", b"", b"gamma rays"]);
        let start = check_header(&f, MAGIC, 1).unwrap();
        let (records, end) = scan_records(&f, start);
        assert_eq!(records, vec![b"alpha".as_slice(), b"", b"gamma rays"]);
        assert!(end.is_clean());
    }

    #[test]
    fn header_is_validated() {
        let f = file_with(&[]);
        assert!(check_header(&f, b"XXXX", 1).is_err());
        assert!(check_header(&f, MAGIC, 2).is_err());
        assert!(check_header(&f[..5], MAGIC, 1).is_err());
        assert_eq!(check_header(&f, MAGIC, 1).unwrap(), HEADER_LEN);
    }

    #[test]
    fn torn_tails_end_the_valid_prefix() {
        let full = file_with(&[b"first", b"second"]);
        // Cut anywhere inside the second record: first survives.
        let second_start = HEADER_LEN + RECORD_OVERHEAD + 5;
        for cut in second_start + 1..full.len() {
            let (records, end) = scan_records(&full[..cut], HEADER_LEN);
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert_eq!(end, LogEnd::TornTail { valid_len: second_start });
        }
    }

    #[test]
    fn corruption_is_detected_and_stops_the_scan() {
        let mut f = file_with(&[b"first", b"second", b"third"]);
        // Flip one payload byte of the second record.
        let idx = HEADER_LEN + RECORD_OVERHEAD + 5 + RECORD_OVERHEAD + 2;
        f[idx] ^= 0x10;
        let (records, end) = scan_records(&f, HEADER_LEN);
        assert_eq!(records, vec![b"first".as_slice()]);
        assert!(matches!(end, LogEnd::Corrupt { .. }));

        // Flip a checksum byte instead: same verdict.
        let mut f = file_with(&[b"first", b"second"]);
        let crc_idx = HEADER_LEN + RECORD_OVERHEAD + 5 + 4;
        f[crc_idx] ^= 0x01;
        let (records, end) = scan_records(&f, HEADER_LEN);
        assert_eq!(records.len(), 1);
        assert!(matches!(end, LogEnd::Corrupt { .. }));
    }

    #[test]
    fn absurd_length_field_is_corruption_not_allocation() {
        let mut f = file_with(&[]);
        f.extend_from_slice(&u32::MAX.to_le_bytes());
        f.extend_from_slice(&[0u8; 4]);
        let (records, end) = scan_records(&f, HEADER_LEN);
        assert!(records.is_empty());
        assert!(matches!(end, LogEnd::Corrupt { .. }));
    }

    #[test]
    fn over_cap_payload_is_refused_and_nothing_is_written() {
        let mut out = file_with(&[b"kept"]);
        let before = out.clone();
        let err = put_record(&mut out, &vec![0u8; MAX_RECORD_LEN + 1]).unwrap_err();
        assert!(matches!(
            err,
            CdcError::RecordTooLarge { len, max }
                if len == MAX_RECORD_LEN + 1 && max == MAX_RECORD_LEN
        ));
        assert_eq!(out, before);
    }
}
