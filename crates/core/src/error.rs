//! Shared error type for the whole workspace.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the bitemporal engines, generators and query layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A named table does not exist.
    UnknownTable(String),
    /// A named column does not exist in the referenced schema.
    UnknownColumn(String),
    /// A table with this name already exists.
    TableExists(String),
    /// A DML statement referenced a key that has no visible version.
    KeyNotFound(String),
    /// An operation received a value of the wrong [`crate::DataType`].
    TypeMismatch {
        /// What the schema or operator required.
        expected: String,
        /// What was actually supplied.
        found: String,
    },
    /// A period with `start >= end` (empty or inverted) where a non-empty
    /// period is required.
    EmptyPeriod(String),
    /// A temporal feature is not supported by the engine under test
    /// (e.g. native application time on System C, paper §2.6).
    Unsupported(String),
    /// Archive (de)serialization failure.
    Archive(String),
    /// A morsel worker panicked; the scan was contained and aborted.
    WorkerPanicked {
        /// Index of the morsel whose worker panicked.
        morsel: u64,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// First-committer-wins validation failed: another transaction that
    /// committed after this one's snapshot was pinned wrote an overlapping
    /// key range. The transaction's buffered writes were discarded; the
    /// caller decides whether to re-run the transaction's body against a
    /// fresh snapshot; re-driving the same buffered writes would conflict
    /// again.
    Conflict(String),
    /// Catch-all for invalid arguments.
    Invalid(String),
    /// An engine-internal invariant was violated (a bug, not bad input).
    /// Surfaced as an error instead of a panic so a broken engine cannot
    /// take the whole benchmark run down with it.
    Internal(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownTable(t) => write!(f, "unknown table: {t}"),
            Error::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            Error::TableExists(t) => write!(f, "table already exists: {t}"),
            Error::KeyNotFound(k) => write!(f, "key not found: {k}"),
            Error::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            Error::EmptyPeriod(p) => write!(f, "empty or inverted period: {p}"),
            Error::Unsupported(m) => write!(f, "unsupported temporal feature: {m}"),
            Error::Archive(m) => write!(f, "archive error: {m}"),
            Error::WorkerPanicked { morsel, message } => {
                write!(f, "worker panicked on morsel {morsel}: {message}")
            }
            Error::Conflict(m) => write!(f, "write-write conflict: {m}"),
            Error::Invalid(m) => write!(f, "invalid argument: {m}"),
            Error::Internal(m) => write!(f, "internal invariant violated: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Archive(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = Error::TypeMismatch {
            expected: "Int".into(),
            found: "Str".into(),
        };
        assert_eq!(e.to_string(), "type mismatch: expected Int, found Str");
        assert_eq!(
            Error::UnknownTable("orders".into()).to_string(),
            "unknown table: orders"
        );
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert_eq!(e, Error::Archive("gone".into()), "the io message is kept");
    }
}
