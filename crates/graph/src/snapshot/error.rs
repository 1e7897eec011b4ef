//! Typed errors for the snapshot subsystem.

use std::fmt;

use crate::bytes::DecodeError;
use crate::snapshot::format::SectionId;

/// Errors raised while writing, opening or decoding a snapshot image.
///
/// Every way a snapshot file can be unusable maps to a distinct variant, so
/// callers (and tests) can tell a truncated download from a bit flip from a
/// file written by a newer engine — none of them panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// An IO error occurred while reading or writing the image.
    Io(String),
    /// The file does not start with the snapshot magic — it is not a
    /// snapshot at all (or the first bytes were destroyed).
    BadMagic {
        /// The bytes actually found where the magic should be.
        found: [u8; 8],
    },
    /// The file is a snapshot but its format version is not supported by
    /// this build.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The file stores multi-byte integers in a byte order this host cannot
    /// map zero-copy (snapshots are little-endian).
    ForeignEndianness,
    /// The file is shorter than its own header or section table claims.
    Truncated {
        /// Bytes the header/section table requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A section's stored checksum does not match its bytes.
    ChecksumMismatch {
        /// The corrupted section.
        section: SectionId,
    },
    /// A required section is missing from the image.
    MissingSection {
        /// The absent section.
        section: SectionId,
    },
    /// The section table or a section payload is structurally invalid
    /// (impossible counts, misaligned offsets, inconsistent lengths).
    Malformed {
        /// Human-readable description.
        message: String,
    },
}

impl SnapshotError {
    /// Convenience constructor for [`SnapshotError::Malformed`].
    pub fn malformed(message: impl Into<String>) -> SnapshotError {
        SnapshotError::Malformed {
            message: message.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot io error: {msg}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not a snapshot file (magic bytes {found:02x?})")
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads version {supported})"
            ),
            SnapshotError::ForeignEndianness => {
                write!(f, "snapshot byte order does not match this host")
            }
            SnapshotError::Truncated { expected, actual } => write!(
                f,
                "snapshot is truncated: needs {expected} bytes, file has {actual}"
            ),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "required section {section} is missing")
            }
            SnapshotError::Malformed { message } => write!(f, "malformed snapshot: {message}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(err: std::io::Error) -> Self {
        SnapshotError::Io(err.to_string())
    }
}

/// A section payload that does not decode is malformed, whether its bytes
/// end mid-structure or hold a bad value: the file-level
/// [`SnapshotError::Truncated`] is for a file shorter than its own table.
impl From<DecodeError> for SnapshotError {
    fn from(err: DecodeError) -> Self {
        SnapshotError::malformed(err.to_string())
    }
}
