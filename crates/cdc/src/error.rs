//! Typed durability errors: [`CdcError`] and the [`CdcResult`] alias.

use fivm_common::WireError;
use fivm_core::EngineError;
use std::fmt;

/// Result alias using [`CdcError`].
pub type CdcResult<T> = std::result::Result<T, CdcError>;

/// Errors raised by the durability layer.
#[derive(Debug)]
pub enum CdcError {
    /// An operating-system I/O failure (open, read, write, rename).
    Io(std::io::Error),
    /// A file failed structural validation *before* its checksummed
    /// records: wrong magic, unsupported format version, or a header too
    /// short to be a log/snapshot at all.  Distinct from a torn tail,
    /// which is a clean end-of-log, not an error.
    Corrupt(String),
    /// A record's payload is `len` bytes, over the `max` a framed record
    /// may carry ([`MAX_RECORD_LEN`](crate::framing::MAX_RECORD_LEN)) —
    /// readers treat a longer length field as corruption, so writing one
    /// would produce a file no recovery accepts.  Nothing was written.
    RecordTooLarge { len: usize, max: usize },
    /// The engine rejected restored or replayed state.
    Engine(EngineError),
    /// A bounded ingest queue refused a batch: the queue was full and the
    /// backpressure policy was [`Reject`](crate::BackpressurePolicy::Reject),
    /// or a [`Block`](crate::BackpressurePolicy::Block) deadline expired
    /// while the queue stayed full.  `queued` is the queue depth at
    /// refusal.  Retryable by design — the batch was *not* enqueued and
    /// nothing was lost.
    Backpressure { queued: usize },
    /// The durability pipeline hit an unrecoverable failure earlier (a
    /// failed append or `fsync`, or an engine error mid-apply) and now
    /// refuses all further work: an acknowledged batch must be on disk,
    /// and after a failed sync the writer cannot claim that again.  The
    /// string is the original failure.  Recover from the durable artifacts
    /// to resume — the acked prefix is intact.
    Poisoned(String),
    /// The service was asked to shut down; no further batches are
    /// accepted (queued batches still drain durably).
    Shutdown,
}

impl CdcError {
    /// Short machine-readable category name.
    pub fn kind(&self) -> &'static str {
        match self {
            CdcError::Io(_) => "io",
            CdcError::Corrupt(_) => "corrupt",
            CdcError::RecordTooLarge { .. } => "record-too-large",
            CdcError::Engine(e) => e.kind(),
            CdcError::Backpressure { .. } => "backpressure",
            CdcError::Poisoned(_) => "poisoned",
            CdcError::Shutdown => "shutdown",
        }
    }
}

impl fmt::Display for CdcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdcError::Io(e) => write!(f, "durability I/O error: {e}"),
            CdcError::Corrupt(msg) => write!(f, "corrupt durable file: {msg}"),
            CdcError::RecordTooLarge { len, max } => {
                write!(f, "record payload of {len} bytes exceeds the {max}-byte record cap")
            }
            CdcError::Engine(e) => e.fmt(f),
            CdcError::Backpressure { queued } => {
                write!(f, "ingest queue full ({queued} batches queued): backpressure")
            }
            CdcError::Poisoned(msg) => {
                write!(f, "durability pipeline poisoned by earlier failure: {msg}")
            }
            CdcError::Shutdown => write!(f, "CDC service is shutting down"),
        }
    }
}

impl std::error::Error for CdcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CdcError::Io(e) => Some(e),
            CdcError::Engine(e) => Some(e),
            CdcError::Corrupt(_)
            | CdcError::RecordTooLarge { .. }
            | CdcError::Backpressure { .. }
            | CdcError::Poisoned(_)
            | CdcError::Shutdown => None,
        }
    }
}

impl From<std::io::Error> for CdcError {
    fn from(e: std::io::Error) -> Self {
        CdcError::Io(e)
    }
}

impl From<EngineError> for CdcError {
    fn from(e: EngineError) -> Self {
        CdcError::Engine(e)
    }
}

impl From<WireError> for CdcError {
    fn from(e: WireError) -> Self {
        CdcError::Corrupt(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_sources() {
        use std::error::Error;
        let io = CdcError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert_eq!(io.kind(), "io");
        assert!(io.source().is_some());
        let c = CdcError::from(WireError::Truncated);
        assert_eq!(c.kind(), "corrupt");
        let e = CdcError::from(EngineError::State("plan mismatch".into()));
        assert_eq!(e.kind(), "state");
        assert!(e.to_string().contains("plan mismatch"));
    }
}
