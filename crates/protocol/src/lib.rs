//! # omega-protocol
//!
//! The wire protocol of the Omega serving layer: a versioned,
//! length-prefixed binary frame format connecting `omega-client` to
//! `omega-server`, carrying the full [`omega_core`] service surface —
//! prepared statements, per-request [`omega_core::ExecOptions`], streamed
//! ranked [`omega_core::Answer`]s with their [`omega_core::EvalStats`], and
//! every [`omega_core::OmegaError`] variant mapped losslessly to a typed
//! wire error.
//!
//! ## Design
//!
//! * **Versioned handshake** — the first frame on every connection is
//!   [`Frame::Hello`], opening with the 8-byte [`MAGIC`] and the client's
//!   protocol version, exactly like the `OMEGSNAP` snapshot header guards
//!   image files. A non-protocol peer fails with
//!   [`ProtocolError::BadMagic`]; any version but [`PROTOCOL_VERSION`] —
//!   older or newer, the `Answers` layout differs between them — fails
//!   with [`ProtocolError::UnsupportedVersion`]. Never a panic.
//! * **Length-prefixed frames** — `u32` length, tag byte, body; lengths
//!   above [`MAX_FRAME_LEN`] are corruption, not allocations. A frame
//!   leaves in one `write` and [`FrameReader`] reads ahead, so frames that
//!   arrive together cost one `read`.
//! * **Streaming with credits** — answers flow in [`Frame::Answers`]
//!   batches only while the client has granted credits
//!   ([`Frame::Execute`]'s initial window plus [`Frame::Fetch`] top-ups),
//!   so a slow client never forces the server to buffer unboundedly.
//! * **Answers as a table** — an `Answers` body names the head variables
//!   once, lists each distinct node label once, and then carries every
//!   answer as a distance plus one label-table index per variable:
//!
//!   ```text
//!   u32 columns │ columns × str
//!   u32 labels  │ labels × str
//!   u32 rows    │ rows × { u32 distance, columns × u32 label index }
//!   ```
//!
//!   The server fills it straight from the engine's id rows
//!   ([`RowFrame`]) — a label is looked up once per frame, not once per
//!   answer — and the decoder reads the header once per frame, in place,
//!   before materialising [`omega_core::Answer`]s from the rows. An index
//!   outside the label table is [`ProtocolError::Malformed`].
//! * **Flush policy** — a full batch is written as soon as it is encoded,
//!   so the first answers reach the client while the rest are still being
//!   computed; the stream's last batch shares its `write` with the
//!   terminal `Finished` (or `Fail`) frame. A reply of 100 answers at the
//!   default batch size is three frames in two writes.
//! * **Deadline propagation** — [`omega_core::ExecOptions`] serialises with
//!   its `timeout`/`deadline` folded into one remaining wall-clock budget,
//!   re-anchored server-side at execution start; budgets, distance
//!   ceilings and overload policies ride along unchanged.
//!
//! The codec has no dependency on sockets: [`Frame::encode`] /
//! [`Frame::decode`] work on byte slices, [`write_frame`] /
//! [`FrameReader`] adapt any `Write` / `Read` transport.
//!
//! ## Modules
//!
//! * [`frame`] — the frame enum, its tags, length-prefixed framing and the
//!   buffered [`FrameReader`].
//! * [`codec`] — engine values (answers, statistics, options, errors) ⇄
//!   frame bodies.
//! * [`error`] — [`ProtocolError`] and [`WireError`].
//! * [`transport`] — unix-socket and TCP streams behind one [`Transport`].
//!
//! Every field goes through [`omega_core::bytes`], the one bounds-checked
//! little-endian `Reader` / `Writer` the WAL, the snapshot container and
//! the ontology section are encoded with too: the same integer, string,
//! boolean and option shapes on every surface. A decode error becomes a
//! [`ProtocolError`] (`Truncated` or `Malformed`).

pub mod codec;
pub mod error;
pub mod frame;
pub mod transport;

pub use error::{ProtocolError, WireError};
pub use frame::{write_frame, FinishReason, Frame, FrameReader, Poll, RowFrame, StatementRef};
pub use transport::Transport;

/// Protocol magic, the first bytes of every handshake — the serving-layer
/// sibling of the snapshot format's `OMEGSNAP`.
pub const MAGIC: [u8; 8] = *b"OMEGWIRE";

/// The protocol version this crate speaks, and the only one it accepts:
/// version 2 replaced version 1's per-answer `Answers` layout with the
/// table layout, version 3 added `cursor_blocks` to the `EvalStats` block
/// of `Finished`, version 4 dropped the three parallel-conjunct fields of
/// `ExecOptions`, the worker-panic counter of `EvalStats` and the live
/// worker gauge of the stats reply, version 5 added `raised_keys` to the
/// `EvalStats` block, version 6 dropped the four Section 4.3 and ablation
/// toggles of `ExecOptions` (distance-aware, disjunction, batch size,
/// final-tuple priority), version 7 dropped `restarts` from the
/// `EvalStats` block, version 8 dropped the cost-guidance override of
/// `ExecOptions` (every request runs cost-guided), and version 9 sends
/// `ExecOptions`' overload policy as a plain byte (it is no longer an
/// override) and lays the stats reply out flat, with no length-prefixed
/// extension block, so an older peer would misread a batch, a request, a
/// finish or a stats reply. Version 10 retires the stats request and its
/// reply (tags `0x07` and `0x86` are unassigned): the `Metrics` exposition
/// is the daemon's only status report.
pub const PROTOCOL_VERSION: u32 = 10;

/// Ceiling on a frame's declared payload length (16 MiB). A prefix above
/// this is treated as stream corruption ([`ProtocolError::Oversized`])
/// instead of being allocated.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Default answer-batch size for [`Frame::Answers`] frames.
pub const DEFAULT_BATCH: usize = 64;

/// Default initial credit window granted by [`Frame::Execute`].
pub const DEFAULT_CREDITS: u32 = 256;

/// Version of the metrics exposition text format carried by
/// [`Frame::MetricsReply`]. Independent of [`PROTOCOL_VERSION`], so the
/// exposition can evolve without a handshake break.
pub const METRICS_EXPOSITION_VERSION: u32 = 1;
