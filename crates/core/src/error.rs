//! Error type of the Omega query processor.

use std::fmt;
use std::time::Duration;

use omega_regex::RegexParseError;

/// Errors raised while parsing or evaluating a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OmegaError {
    /// The query text could not be parsed.
    Parse {
        /// Byte offset of the error in the query text (best effort).
        position: usize,
        /// Human-readable description.
        message: String,
    },
    /// A regular expression inside the query could not be parsed.
    Regex(RegexParseError),
    /// A constant in the query does not name any node of the data graph.
    UnknownConstant(String),
    /// A head variable does not occur in any conjunct.
    UnboundHeadVariable(String),
    /// The query has no conjuncts.
    EmptyQuery,
    /// The evaluator exceeded its configured memory budget (the analogue of
    /// the paper's out-of-memory failures on YAGO queries 4 and 5).
    ResourceExhausted {
        /// Number of live tuples when the budget was hit.
        tuples: usize,
    },
    /// The request's wall-clock deadline passed before evaluation finished.
    ///
    /// Raised by the evaluator loops when a deadline is set through
    /// [`crate::service::ExecOptions`]; answers produced before the deadline
    /// have already been yielded by the stream.
    DeadlineExceeded,
    /// The client abandoned the execution. The engine never raises this
    /// itself — dropping an [`crate::service::Answers`] stream is how an
    /// execution is cancelled — but a server reports a client's `Cancel`
    /// with it, so it has a place on the wire.
    Cancelled,
    /// The engine refused to admit the execution: the database-wide
    /// resource governor found the shared pools saturated (too many
    /// concurrent executions, no admission tokens, or no free tuple
    /// capacity). The caller should back off for at least `retry_after`
    /// before retrying; [`crate::service::ExecOptions::with_on_overload`]
    /// selects how the service reacts instead of surfacing this error.
    Overloaded {
        /// Suggested client backoff before the next attempt.
        retry_after: Duration,
    },
    /// A mutation batch could not be applied to the live graph. The graph
    /// is unchanged — `apply` publishes all of a batch or none of it — so
    /// the caller may safely retry the same batch.
    MutationFailed {
        /// Human-readable description of the failure.
        message: String,
    },
    /// The database has degraded to read-only mode: its write-ahead log can
    /// no longer persist mutations (disk full, I/O error), so acknowledging
    /// a write would lie about durability. Reads and queries continue to be
    /// served; writes fail with this variant until an operator repairs the
    /// log and restarts (recovery replays every acknowledged record).
    ReadOnly {
        /// Human-readable description of why durability degraded.
        message: String,
    },
    /// An engine invariant was violated at runtime, or a write-ahead log or
    /// its checkpoint could not be opened. Never a user error; surfaced as a
    /// typed value so a server in front of the engine degrades to a failed
    /// request instead of a crashed process.
    Internal {
        /// Human-readable description of the violated invariant.
        message: String,
    },
}

impl fmt::Display for OmegaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmegaError::Parse { position, message } => {
                write!(f, "query parse error at offset {position}: {message}")
            }
            OmegaError::Regex(err) => write!(f, "{err}"),
            OmegaError::UnknownConstant(c) => {
                write!(f, "constant {c:?} does not name a node in the data graph")
            }
            OmegaError::UnboundHeadVariable(v) => {
                write!(f, "head variable ?{v} does not occur in the query body")
            }
            OmegaError::EmptyQuery => write!(f, "query has no conjuncts"),
            OmegaError::ResourceExhausted { tuples } => write!(
                f,
                "evaluation exceeded the configured memory budget ({tuples} live tuples)"
            ),
            OmegaError::DeadlineExceeded => {
                write!(f, "evaluation exceeded the request deadline")
            }
            OmegaError::Cancelled => {
                write!(f, "evaluation was cancelled")
            }
            OmegaError::Overloaded { retry_after } => {
                write!(f, "engine overloaded; retry after {:?}", retry_after)
            }
            OmegaError::MutationFailed { message } => {
                write!(f, "mutation batch failed to apply: {message}")
            }
            OmegaError::ReadOnly { message } => {
                write!(f, "database is read-only (durability degraded): {message}")
            }
            OmegaError::Internal { message } => {
                write!(f, "internal engine error: {message}")
            }
        }
    }
}

impl std::error::Error for OmegaError {}

impl From<RegexParseError> for OmegaError {
    fn from(err: RegexParseError) -> Self {
        OmegaError::Regex(err)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, OmegaError>;
