//! Typed errors for the multi-query DAG surface.

use fivm_cdc::CdcError;
use fivm_common::FivmError;
use fivm_core::EngineError;
use std::fmt;

/// `Result` alias for the DAG surface.
pub type DagResult<T> = std::result::Result<T, DagError>;

/// An error raised by the multi-query DAG.
#[derive(Debug)]
pub enum DagError {
    /// A query-level error (invalid spec, variable order, update shape).
    Query(FivmError),
    /// A durability-layer error from the changelog (durable registry only).
    Cdc(CdcError),
    /// A registry-level invariant violation: unknown query id, ring
    /// mismatch on a typed result accessor, backfill without a database on
    /// a loaded DAG, and similar.
    State(String),
    /// A combination this crate deliberately does not wire (e.g. a registry
    /// over sharded engines) — see the DAG contract in ROADMAP.md.
    Unsupported(String),
}

impl DagError {
    /// A stable machine-readable kind, mirroring `FivmError::kind` /
    /// `ShardError::kind` so tests and telemetry can dispatch without
    /// string-matching display text.
    pub fn kind(&self) -> &'static str {
        match self {
            DagError::Query(e) => e.kind(),
            DagError::Cdc(_) => "cdc",
            DagError::State(_) => "state",
            DagError::Unsupported(_) => "unsupported",
        }
    }
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Query(e) => write!(f, "{e}"),
            DagError::Cdc(e) => write!(f, "changelog error: {e}"),
            DagError::State(msg) => write!(f, "registry state error: {msg}"),
            DagError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for DagError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DagError::Query(e) => Some(e),
            DagError::Cdc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FivmError> for DagError {
    fn from(e: FivmError) -> Self {
        DagError::Query(e)
    }
}

impl From<EngineError> for DagError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Query(e) => DagError::Query(e),
            EngineError::State(msg) => DagError::State(msg),
            EngineError::Corrupt(msg) => DagError::State(format!("corrupt state: {msg}")),
        }
    }
}

impl From<CdcError> for DagError {
    fn from(e: CdcError) -> Self {
        DagError::Cdc(e)
    }
}
