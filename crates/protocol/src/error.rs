//! Typed protocol and wire errors.
//!
//! Two layers, mirroring the snapshot format's split between *container*
//! corruption and *content* semantics:
//!
//! * [`ProtocolError`] — the byte stream itself is unusable: truncated
//!   frame, bad magic, unsupported version, oversized length prefix,
//!   malformed field encodings. Raised by the frame decoder; never carried
//!   over the wire (there is no usable wire to carry it on).
//! * [`WireError`] — a request failed but the connection is fine. Carried
//!   inside a [`crate::Frame::Fail`] frame; every [`OmegaError`] variant
//!   maps losslessly into (and back out of) its `Engine` arm.

use std::fmt;
use std::time::Duration;

use omega_core::bytes::DecodeError;
use omega_core::OmegaError;

/// Corruption of the byte stream: the frame layer could not produce a
/// well-formed frame. Decoding never panics; every malformation maps to one
/// of these variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The handshake's leading magic bytes are not [`crate::MAGIC`] — the
    /// peer is not speaking the omega wire protocol at all.
    BadMagic {
        /// The eight bytes actually received.
        found: [u8; 8],
    },
    /// The peer requested a protocol version this implementation does not
    /// speak.
    UnsupportedVersion {
        /// Version requested in the handshake.
        requested: u32,
        /// Highest version this implementation supports.
        supported: u32,
    },
    /// The stream ended (or the buffer ran out) in the middle of a frame.
    Truncated,
    /// A frame's length prefix exceeds [`crate::MAX_FRAME_LEN`]; treated as
    /// corruption rather than allocated on faith.
    Oversized {
        /// The declared payload length.
        len: u32,
        /// The configured ceiling.
        max: u32,
    },
    /// The frame tag byte does not name any known frame type.
    UnknownTag(u8),
    /// A field inside the frame body is malformed (bad enum discriminant,
    /// non-boolean bool, trailing bytes, invalid UTF-8, …).
    Malformed(&'static str),
    /// The underlying transport failed (message keeps the error printable,
    /// clonable and comparable).
    Io(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic { found } => {
                write!(f, "bad protocol magic {found:?}")
            }
            ProtocolError::UnsupportedVersion {
                requested,
                supported,
            } => write!(
                f,
                "unsupported protocol version {requested} (this side speaks up to {supported})"
            ),
            ProtocolError::Truncated => write!(f, "truncated frame"),
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte ceiling")
            }
            ProtocolError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            ProtocolError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtocolError::Io(message) => write!(f, "transport error: {message}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<DecodeError> for ProtocolError {
    fn from(err: DecodeError) -> Self {
        match err {
            DecodeError::Truncated => ProtocolError::Truncated,
            DecodeError::Malformed(what) => ProtocolError::Malformed(what),
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(err: std::io::Error) -> Self {
        ProtocolError::Io(err.to_string())
    }
}

/// A request-level failure carried over a healthy connection inside a
/// [`crate::Frame::Fail`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The engine rejected or aborted the request. Round-trips every
    /// [`OmegaError`] variant losslessly, including
    /// [`OmegaError::Overloaded`]'s `retry_after` and the positions and
    /// messages of parse errors.
    Engine(OmegaError),
    /// The client referenced a prepared-statement id this connection never
    /// prepared (or already closed).
    UnknownStatement(u64),
    /// The handshake versions do not overlap; the server reports both sides
    /// before closing the connection.
    VersionSkew {
        /// Version the client asked for.
        client: u32,
        /// Version the server speaks.
        server: u32,
    },
    /// The peer sent a frame that decodes but makes no sense in the current
    /// connection state (e.g. `Fetch` with no stream in flight).
    Malformed(String),
    /// The server is draining for shutdown and accepts no new work.
    Shutdown,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Engine(err) => write!(f, "{err}"),
            WireError::UnknownStatement(id) => {
                write!(f, "unknown prepared statement id {id}")
            }
            WireError::VersionSkew { client, server } => {
                write!(
                    f,
                    "protocol version skew: client speaks {client}, server speaks {server}"
                )
            }
            WireError::Malformed(message) => write!(f, "malformed request: {message}"),
            WireError::Shutdown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<OmegaError> for WireError {
    fn from(err: OmegaError) -> Self {
        WireError::Engine(err)
    }
}

/// `Overloaded { retry_after }`, the wire error clients should back off on.
impl WireError {
    /// The backoff hint when this error is a typed overload rejection.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            WireError::Engine(OmegaError::Overloaded { retry_after }) => Some(*retry_after),
            _ => None,
        }
    }
}
