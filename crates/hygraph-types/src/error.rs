//! Workspace-wide error type.

use crate::ids::{EdgeId, SeriesId, SubgraphId, VertexId};
use crate::time::Timestamp;
use std::fmt;

/// Result alias used across the HyGraph workspace.
pub type Result<T> = std::result::Result<T, HyGraphError>;

/// Errors produced by HyGraph operations.
#[derive(Clone, Debug, PartialEq)]
pub enum HyGraphError {
    /// Referenced vertex does not exist.
    VertexNotFound(VertexId),
    /// Referenced edge does not exist.
    EdgeNotFound(EdgeId),
    /// Referenced subgraph does not exist.
    SubgraphNotFound(SubgraphId),
    /// Referenced time series does not exist.
    SeriesNotFound(SeriesId),
    /// A time-series operation was applied to an element of the wrong kind
    /// (e.g. asking for δ(v) of a property-graph vertex).
    KindMismatch {
        /// What the operation expected ("ts vertex", "pg edge", ...).
        expected: &'static str,
        /// What it got.
        got: &'static str,
    },
    /// Chronological-integrity violation in a time series (R2): an
    /// observation at `at` is not strictly after the series' last
    /// timestamp `last` under append-only insertion.
    OutOfOrder {
        /// The offending timestamp.
        at: Timestamp,
        /// The series' current last timestamp.
        last: Timestamp,
    },
    /// A duplicate timestamp was inserted where uniqueness is required.
    DuplicateTimestamp(Timestamp),
    /// Arity mismatch for multivariate series operations.
    ArityMismatch {
        /// Expected number of variables.
        expected: usize,
        /// Provided number of variables.
        got: usize,
    },
    /// An operation needed a non-empty input.
    EmptyInput(&'static str),
    /// Invalid argument with a human-readable reason.
    InvalidArgument(String),
    /// Temporal-integrity violation in the graph (R2).
    TemporalIntegrity(String),
    /// Query parse error with position information.
    Parse {
        /// Byte offset in the query text.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// Query plan/execution error.
    Query(String),
    /// Operating-system I/O failure (message form of `std::io::Error`,
    /// kept `Clone`/`PartialEq` like the rest of the enum).
    Io(String),
    /// The serving layer refused the request without executing it:
    /// admission queue full (backpressure), deadline exceeded, or the
    /// server is shutting down. Retryable by the client.
    Unavailable(String),
    /// Malformed persistent data: a checkpoint or WAL frame whose bytes
    /// fail structural validation (bad tag, truncated run, CRC mismatch).
    Corrupt {
        /// Byte offset inside the payload being decoded.
        offset: usize,
        /// What failed to decode.
        message: String,
    },
    /// A stored artifact (WAL segment, checkpoint, time-series codec
    /// stream) is well-formed but written in a format version this
    /// build does not read. The data is intact and was left untouched;
    /// the message names the artifact and the version found.
    UnsupportedFormat(String),
}

impl HyGraphError {
    /// Shorthand for an [`HyGraphError::InvalidArgument`].
    pub fn invalid(msg: impl Into<String>) -> Self {
        HyGraphError::InvalidArgument(msg.into())
    }

    /// Shorthand for a [`HyGraphError::Query`] error.
    pub fn query(msg: impl Into<String>) -> Self {
        HyGraphError::Query(msg.into())
    }

    /// Wraps a `std::io::Error` (or any displayable I/O failure).
    pub fn io(err: impl std::fmt::Display) -> Self {
        HyGraphError::Io(err.to_string())
    }

    /// Shorthand for an [`HyGraphError::Unavailable`] rejection.
    pub fn unavailable(msg: impl Into<String>) -> Self {
        HyGraphError::Unavailable(msg.into())
    }

    /// Shorthand for a [`HyGraphError::Corrupt`] error at offset 0.
    pub fn corrupt(msg: impl Into<String>) -> Self {
        HyGraphError::Corrupt {
            offset: 0,
            message: msg.into(),
        }
    }
}

impl From<std::io::Error> for HyGraphError {
    fn from(err: std::io::Error) -> Self {
        HyGraphError::Io(err.to_string())
    }
}

impl fmt::Display for HyGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HyGraphError::VertexNotFound(v) => write!(f, "vertex {v} not found"),
            HyGraphError::EdgeNotFound(e) => write!(f, "edge {e} not found"),
            HyGraphError::SubgraphNotFound(s) => write!(f, "subgraph {s} not found"),
            HyGraphError::SeriesNotFound(t) => write!(f, "time series {t} not found"),
            HyGraphError::KindMismatch { expected, got } => {
                write!(f, "element kind mismatch: expected {expected}, got {got}")
            }
            HyGraphError::OutOfOrder { at, last } => write!(
                f,
                "out-of-order append at {at} (series last timestamp is {last})"
            ),
            HyGraphError::DuplicateTimestamp(t) => write!(f, "duplicate timestamp {t}"),
            HyGraphError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "arity mismatch: expected {expected} variables, got {got}"
                )
            }
            HyGraphError::EmptyInput(what) => write!(f, "empty input: {what}"),
            HyGraphError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            HyGraphError::TemporalIntegrity(m) => write!(f, "temporal integrity violation: {m}"),
            HyGraphError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            HyGraphError::Query(m) => write!(f, "query error: {m}"),
            HyGraphError::Io(m) => write!(f, "io error: {m}"),
            HyGraphError::Unavailable(m) => write!(f, "unavailable: {m}"),
            HyGraphError::Corrupt { offset, message } => {
                write!(f, "corrupt data at byte {offset}: {message}")
            }
            HyGraphError::UnsupportedFormat(m) => write!(f, "unsupported format version: {m}"),
        }
    }
}

impl std::error::Error for HyGraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            HyGraphError::VertexNotFound(VertexId::new(3)).to_string(),
            "vertex v3 not found"
        );
        assert_eq!(
            HyGraphError::OutOfOrder {
                at: Timestamp::from_millis(5),
                last: Timestamp::from_millis(9)
            }
            .to_string(),
            "out-of-order append at t5 (series last timestamp is t9)"
        );
        assert_eq!(
            HyGraphError::Parse {
                offset: 4,
                message: "unexpected token".into()
            }
            .to_string(),
            "parse error at byte 4: unexpected token"
        );
    }

    #[test]
    fn helpers() {
        assert!(matches!(
            HyGraphError::invalid("bad"),
            HyGraphError::InvalidArgument(_)
        ));
        assert!(matches!(HyGraphError::query("bad"), HyGraphError::Query(_)));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&HyGraphError::EmptyInput("series"));
    }
}
