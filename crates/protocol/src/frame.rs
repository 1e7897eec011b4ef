//! The frame layer: every message either side can send, its binary
//! encoding, and the buffered reader that re-assembles frames from a byte
//! stream without ever blocking away partial data.
//!
//! ## Wire layout
//!
//! ```text
//! ┌───────────────┬───────────┬──────────────────────┐
//! │ length  (u32) │ tag  (u8) │ body (length-1 bytes)│
//! └───────────────┴───────────┴──────────────────────┘
//! ```
//!
//! The length prefix counts the tag byte plus the body and is bounded by
//! [`crate::MAX_FRAME_LEN`]; a larger prefix is treated as corruption
//! ([`ProtocolError::Oversized`]) rather than allocated on faith. The
//! handshake frame additionally opens with the 8-byte [`crate::MAGIC`], the
//! same pattern as the `OMEGSNAP` snapshot header, so a peer that is not
//! speaking this protocol at all fails with [`ProtocolError::BadMagic`]
//! instead of a confusing tag error.
//!
//! Prefix and payload always travel together: [`write_frame`] issues one
//! `write` per frame, [`Frame::append_to`] and [`RowFrame::append_to`] queue
//! whole frames in a caller-owned buffer so several can share one `write`,
//! and [`FrameReader`] reads ahead — every frame one `read` delivered is
//! decoded from the buffer without touching the transport again.

use std::io::{ErrorKind, Read, Result as IoResult, Write};

use omega_core::bytes::{Reader, Writer};
use omega_core::{Answer, EvalStats, ExecOptions, FxHashMap, NodeId, QueryProfile};

use crate::codec::{
    put_answer_table, put_answers, put_exec_options, put_profile, put_stats, put_wire_error,
    take_answers, take_exec_options, take_profile, take_stats, take_wire_error,
};
use crate::error::{ProtocolError, WireError};
use crate::transport::Transport;
use crate::{MAGIC, MAX_FRAME_LEN, PROTOCOL_VERSION};

/// How the client names the statement an `Execute` frame runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatementRef {
    /// A statement id returned by a `Prepared` frame on this connection.
    Id(u64),
    /// Ad-hoc query text: the server prepares (through its LRU cache) and
    /// executes in one round trip, without entering the connection's
    /// statement table.
    Text(String),
}

/// Why a `Finished` frame ended the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// The stream ran to completion: limit reached or answers exhausted
    /// (including graceful degradation inside the engine, which is recorded
    /// in the accompanying [`EvalStats`]).
    Complete,
    /// The server drained the stream early because it is shutting down; the
    /// answers already delivered are a correct rank-order prefix.
    Drained,
}

/// One protocol message. Client→server frames come first, server→client
/// frames second; the tag byte namespaces them together.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    // ---- client → server -------------------------------------------------
    /// Connection opener: magic + the protocol version the client speaks.
    /// Must be the first frame on every connection; any version other than
    /// [`PROTOCOL_VERSION`] — older or newer — is refused.
    Hello {
        /// Client's protocol version.
        version: u32,
    },
    /// Compile `text` into the connection's statement table.
    Prepare {
        /// Query text.
        text: String,
    },
    /// Execute a statement with per-request options and an initial answer
    /// credit window (the server never buffers more un-acknowledged answers
    /// than the client has granted).
    Execute {
        /// The statement to run.
        statement: StatementRef,
        /// Per-request execution options.
        options: ExecOptions,
        /// Initial flow-control window, in answers.
        credits: u32,
    },
    /// Grant more answer credits to the in-flight stream.
    Fetch {
        /// Additional credits, in answers.
        credits: u32,
    },
    /// Abandon the in-flight stream; the server cancels the execution and
    /// replies with a terminal `Finished`/`Fail` frame.
    Cancel,
    /// Drop a prepared statement from the connection's table.
    Close {
        /// Statement id to drop.
        id: u64,
    },
    /// Request the server's full metrics exposition (counters, gauges,
    /// latency histograms) as versioned text.
    Metrics,
    /// Ask the daemon to drain and exit.
    Shutdown,
    /// Apply a batch of edge mutations atomically: the server publishes all
    /// of the batch as one new storage epoch, or none of it. In-flight
    /// answer streams (on any connection) keep reading the epoch they
    /// started on.
    Mutate {
        /// Edges to add, as `(tail, label, head)` node/edge-label triples.
        adds: Vec<(String, String, String)>,
        /// Edges to remove, same shape.
        removes: Vec<(String, String, String)>,
    },

    // ---- server → client -------------------------------------------------
    /// Handshake accepted.
    HelloOk {
        /// Protocol version the connection will speak.
        version: u32,
        /// Server software identifier (informational).
        server: String,
    },
    /// A statement was prepared.
    Prepared {
        /// Connection-scoped statement id.
        id: u64,
        /// Number of conjuncts in the compiled query.
        conjuncts: u32,
        /// Head variables, in projection order.
        head: Vec<String>,
    },
    /// A batch of ranked answers, in stream order.
    Answers {
        /// The batch; never empty on the wire.
        answers: Vec<Answer>,
    },
    /// Terminal frame of a successful stream.
    Finished {
        /// Evaluator statistics for the execution.
        stats: EvalStats,
        /// Whether the stream completed or was drained by shutdown.
        reason: FinishReason,
        /// Per-phase timings, present iff the request set
        /// [`ExecOptions::with_profile`].
        profile: Option<QueryProfile>,
    },
    /// Terminal frame of a failed request.
    Fail {
        /// The typed failure.
        error: WireError,
    },
    /// Reply to `Metrics`.
    MetricsReply {
        /// Version of the exposition text format (independent of the
        /// protocol version, so the format can evolve without a handshake
        /// break).
        version: u32,
        /// The rendered exposition, one `name{labels} value` line per
        /// series.
        text: String,
    },
    /// Reply to `Close`.
    Closed,
    /// Reply to `Shutdown`: the server has stopped accepting work and will
    /// exit once in-flight streams finish draining.
    ShutdownOk,
    /// Reply to `Mutate`: the batch was applied and published.
    MutateOk {
        /// Storage epoch serving after the batch.
        epoch: u64,
        /// Edges actually added (duplicates of existing edges excluded).
        added: u64,
        /// Edges actually removed (unknown edges excluded).
        removed: u64,
    },
}

// Frame tags. Client requests are 0x01.., server replies 0x81.. so a
// misdirected frame fails loudly as an unknown tag. 0x07 and 0x86 (the
// retired stats request and its reply) are unassigned.
const TAG_HELLO: u8 = 0x01;
const TAG_PREPARE: u8 = 0x02;
const TAG_EXECUTE: u8 = 0x03;
const TAG_FETCH: u8 = 0x04;
const TAG_CANCEL: u8 = 0x05;
const TAG_CLOSE: u8 = 0x06;
const TAG_SHUTDOWN: u8 = 0x08;
const TAG_MUTATE: u8 = 0x09;
const TAG_METRICS: u8 = 0x0a;
const TAG_HELLO_OK: u8 = 0x81;
const TAG_PREPARED: u8 = 0x82;
const TAG_ANSWERS: u8 = 0x83;
const TAG_FINISHED: u8 = 0x84;
const TAG_FAIL: u8 = 0x85;
const TAG_CLOSED: u8 = 0x87;
const TAG_SHUTDOWN_OK: u8 = 0x88;
const TAG_MUTATE_OK: u8 = 0x89;
const TAG_METRICS_REPLY: u8 = 0x8a;

impl Frame {
    /// Encodes the frame payload: tag byte plus body (the length prefix is
    /// added by [`Frame::append_to`] / [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_inner()
    }

    /// Appends the frame to `out` as it travels — length prefix, then
    /// payload — and returns the bytes appended. `out` keeps what it held:
    /// frames queued in one buffer leave in one `write`.
    pub fn append_to(&self, out: &mut Vec<u8>) -> Result<usize, ProtocolError> {
        framed(out, |w| self.encode_into(w))
    }

    fn encode_into(&self, w: &mut Writer) {
        match self {
            Frame::Hello { version } => {
                w.put_u8(TAG_HELLO);
                w.put_bytes(&MAGIC);
                w.put_u32(*version);
            }
            Frame::Prepare { text } => {
                w.put_u8(TAG_PREPARE);
                w.put_str(text);
            }
            Frame::Execute {
                statement,
                options,
                credits,
            } => {
                w.put_u8(TAG_EXECUTE);
                match statement {
                    StatementRef::Id(id) => {
                        w.put_u8(0);
                        w.put_u64(*id);
                    }
                    StatementRef::Text(text) => {
                        w.put_u8(1);
                        w.put_str(text);
                    }
                }
                put_exec_options(w, options);
                w.put_u32(*credits);
            }
            Frame::Fetch { credits } => {
                w.put_u8(TAG_FETCH);
                w.put_u32(*credits);
            }
            Frame::Cancel => w.put_u8(TAG_CANCEL),
            Frame::Close { id } => {
                w.put_u8(TAG_CLOSE);
                w.put_u64(*id);
            }
            Frame::Metrics => w.put_u8(TAG_METRICS),
            Frame::Shutdown => w.put_u8(TAG_SHUTDOWN),
            Frame::Mutate { adds, removes } => {
                w.put_u8(TAG_MUTATE);
                for batch in [adds, removes] {
                    w.put_u32(batch.len() as u32);
                    for (tail, label, head) in batch {
                        w.put_str(tail);
                        w.put_str(label);
                        w.put_str(head);
                    }
                }
            }
            Frame::HelloOk { version, server } => {
                w.put_u8(TAG_HELLO_OK);
                w.put_u32(*version);
                w.put_str(server);
            }
            Frame::Prepared {
                id,
                conjuncts,
                head,
            } => {
                w.put_u8(TAG_PREPARED);
                w.put_u64(*id);
                w.put_u32(*conjuncts);
                w.put_u32(head.len() as u32);
                for var in head {
                    w.put_str(var);
                }
            }
            Frame::Answers { answers } => {
                w.put_u8(TAG_ANSWERS);
                put_answers(w, answers);
            }
            Frame::Finished {
                stats,
                reason,
                profile,
            } => {
                w.put_u8(TAG_FINISHED);
                put_stats(w, stats);
                w.put_u8(match reason {
                    FinishReason::Complete => 0,
                    FinishReason::Drained => 1,
                });
                w.put_opt(profile.as_ref(), put_profile);
            }
            Frame::Fail { error } => {
                w.put_u8(TAG_FAIL);
                put_wire_error(w, error);
            }
            Frame::MetricsReply { version, text } => {
                w.put_u8(TAG_METRICS_REPLY);
                w.put_u32(*version);
                w.put_str(text);
            }
            Frame::Closed => w.put_u8(TAG_CLOSED),
            Frame::ShutdownOk => w.put_u8(TAG_SHUTDOWN_OK),
            Frame::MutateOk {
                epoch,
                added,
                removed,
            } => {
                w.put_u8(TAG_MUTATE_OK);
                w.put_u64(*epoch);
                w.put_u64(*added);
                w.put_u64(*removed);
            }
        }
    }

    /// Decodes a frame payload (tag byte plus body). Corruption surfaces as
    /// a typed [`ProtocolError`]; decoding never panics.
    pub fn decode(payload: &[u8]) -> Result<Frame, ProtocolError> {
        let mut r = Reader::new(payload);
        let tag = r.take_u8()?;
        let frame = match tag {
            TAG_HELLO => {
                let found = r.take_array()?;
                if found != MAGIC {
                    return Err(ProtocolError::BadMagic { found });
                }
                let version = r.take_u32()?;
                if version != PROTOCOL_VERSION {
                    return Err(ProtocolError::UnsupportedVersion {
                        requested: version,
                        supported: PROTOCOL_VERSION,
                    });
                }
                Frame::Hello { version }
            }
            TAG_PREPARE => Frame::Prepare {
                text: r.take_str()?,
            },
            TAG_EXECUTE => {
                let statement = match r.take_u8()? {
                    0 => StatementRef::Id(r.take_u64()?),
                    1 => StatementRef::Text(r.take_str()?),
                    _ => return Err(ProtocolError::Malformed("unknown statement reference")),
                };
                let options = take_exec_options(&mut r)?;
                let credits = r.take_u32()?;
                Frame::Execute {
                    statement,
                    options,
                    credits,
                }
            }
            TAG_FETCH => Frame::Fetch {
                credits: r.take_u32()?,
            },
            TAG_CANCEL => Frame::Cancel,
            TAG_CLOSE => Frame::Close { id: r.take_u64()? },
            TAG_METRICS => Frame::Metrics,
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_MUTATE => {
                let mut batches = [Vec::new(), Vec::new()];
                for batch in &mut batches {
                    let count = r.take_u32()?;
                    for _ in 0..count {
                        batch.push((r.take_str()?, r.take_str()?, r.take_str()?));
                    }
                }
                let [adds, removes] = batches;
                Frame::Mutate { adds, removes }
            }
            TAG_HELLO_OK => Frame::HelloOk {
                version: r.take_u32()?,
                server: r.take_str()?,
            },
            TAG_PREPARED => {
                let id = r.take_u64()?;
                let conjuncts = r.take_u32()?;
                let count = r.take_u32()?;
                let mut head = Vec::new();
                for _ in 0..count {
                    head.push(r.take_str()?);
                }
                Frame::Prepared {
                    id,
                    conjuncts,
                    head,
                }
            }
            TAG_ANSWERS => Frame::Answers {
                answers: take_answers(&mut r)?,
            },
            TAG_FINISHED => {
                let stats = take_stats(&mut r)?;
                let reason = match r.take_u8()? {
                    0 => FinishReason::Complete,
                    1 => FinishReason::Drained,
                    _ => return Err(ProtocolError::Malformed("unknown finish reason")),
                };
                let profile = r.take_opt(take_profile)?;
                Frame::Finished {
                    stats,
                    reason,
                    profile,
                }
            }
            TAG_FAIL => Frame::Fail {
                error: take_wire_error(&mut r)?,
            },
            TAG_METRICS_REPLY => Frame::MetricsReply {
                version: r.take_u32()?,
                text: r.take_str()?,
            },
            TAG_CLOSED => Frame::Closed,
            TAG_SHUTDOWN_OK => Frame::ShutdownOk,
            TAG_MUTATE_OK => Frame::MutateOk {
                epoch: r.take_u64()?,
                added: r.take_u64()?,
                removed: r.take_u64()?,
            },
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        r.expect_end()?;
        Ok(frame)
    }
}

/// Appends one length-prefixed frame to `out`: reserves the prefix, lets
/// `payload` write tag and body, then patches the length in. An oversized
/// payload is rolled back, leaving `out` as it was.
fn framed(out: &mut Vec<u8>, payload: impl FnOnce(&mut Writer)) -> Result<usize, ProtocolError> {
    let start = out.len();
    let mut w = Writer::over(std::mem::take(out));
    w.put_u32(0);
    payload(&mut w);
    *out = w.into_inner();
    let len = out.len() - start - 4;
    if len as u64 > u64::from(MAX_FRAME_LEN) {
        out.truncate(start);
        return Err(ProtocolError::Oversized {
            len: u32::try_from(len).unwrap_or(u32::MAX),
            max: MAX_FRAME_LEN,
        });
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(4 + len)
}

/// Writes one length-prefixed frame to `w` with a single `write` (and
/// flushes it, so a frame is either fully on the wire or an error). Returns
/// the total bytes written — prefix plus payload — for byte-level
/// accounting.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<usize, ProtocolError> {
    let mut wire = Vec::new();
    let written = frame.append_to(&mut wire)?;
    w.write_all(&wire)?;
    w.flush()?;
    Ok(written)
}

/// Builds [`Frame::Answers`] frames straight from rows of node ids — no
/// [`Answer`], map or per-frame buffer in between. Rows accumulate with
/// their ids already translated to indexes into the frame's label table (an
/// id met twice is written once); [`RowFrame::append_to`] resolves each
/// distinct id to its label exactly once, as it writes the table, and
/// empties the builder for the next batch. All storage is reused.
#[derive(Debug, Default)]
pub struct RowFrame {
    distances: Vec<u32>,
    /// Row-major label-table indexes.
    cells: Vec<u32>,
    /// The label table, as ids, in order of first appearance.
    ids: Vec<NodeId>,
    index: FxHashMap<NodeId, u32>,
}

impl RowFrame {
    /// An empty builder.
    pub fn new() -> RowFrame {
        RowFrame::default()
    }

    /// Rows accumulated since the last [`RowFrame::append_to`].
    pub fn rows(&self) -> usize {
        self.distances.len()
    }

    /// Adds one answer: an id per head column, and its distance. Every row
    /// of a frame must have the width of the `columns` it is written with.
    pub fn push(&mut self, row: &[NodeId], distance: u32) {
        self.distances.push(distance);
        for &id in row {
            let next = self.ids.len() as u32;
            let cell = *self.index.entry(id).or_insert(next);
            if cell == next {
                self.ids.push(id);
            }
            self.cells.push(cell);
        }
    }

    /// Appends the accumulated rows to `out` as one length-prefixed
    /// `Answers` frame under the head `columns`, resolving ids through
    /// `label`, and returns the bytes appended. The builder is empty
    /// afterwards, whether or not the frame fit [`MAX_FRAME_LEN`].
    pub fn append_to<'g>(
        &mut self,
        out: &mut Vec<u8>,
        columns: &[String],
        label: impl Fn(NodeId) -> &'g str,
    ) -> Result<usize, ProtocolError> {
        debug_assert_eq!(self.cells.len(), self.distances.len() * columns.len());
        let written = framed(out, |w| {
            w.put_u8(TAG_ANSWERS);
            put_answer_table(
                w,
                columns.iter().map(String::as_str),
                self.ids.iter().map(|&id| label(id)),
                self.distances.iter().copied(),
                &self.cells,
            );
        });
        self.distances.clear();
        self.cells.clear();
        self.ids.clear();
        self.index.clear();
        written
    }
}

/// What one [`FrameReader::poll`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Poll {
    /// A complete frame.
    Frame(Frame),
    /// The peer closed the stream cleanly, at a frame boundary.
    Eof,
    /// The read timed out (or would block) before a full frame arrived; the
    /// partial bytes are retained and the next call resumes exactly where
    /// this one stopped.
    Pending,
}

/// Smallest receive buffer: one `read` takes in whatever the peer has sent,
/// up to this much (more once a larger frame has grown the buffer).
const READ_AHEAD: usize = 8 * 1024;

/// Incremental frame re-assembler over any [`Read`].
///
/// The reader reads ahead: each `read` asks for as much as its buffer
/// holds, and every complete frame in the buffer is decoded in place before
/// the transport is touched again — a peer that sent three frames in one
/// chunk costs one `read`, not six.
///
/// The transport may be in blocking mode (a client waiting for its answer)
/// or carry a read timeout (a server polling its drain flag between
/// frames): partial frames stay in the buffer, so a timeout mid-frame never
/// corrupts the stream — the next [`FrameReader::poll`] resumes with the
/// bytes already received.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    /// Receive buffer; `buf[head..tail]` is read but not yet decoded. It
    /// grows by doubling only when a frame in progress has filled it, so its
    /// size follows the bytes actually received, never a declared length.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    /// Total bytes taken from the transport, including length prefixes and
    /// bytes read ahead of the frame being decoded.
    bytes_read: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a transport.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            head: 0,
            tail: 0,
            bytes_read: 0,
        }
    }

    /// The wrapped transport.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Total bytes taken from the transport so far (prefixes included):
    /// exactly what crossed the socket, decoded yet or not.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Reads until a full frame, EOF or a transport timeout.
    pub fn poll(&mut self) -> Result<Poll, ProtocolError> {
        self.poll_with(|inner, buf| inner.read(buf))
    }

    /// [`FrameReader::poll`] over the given way of reading the transport.
    fn poll_with(
        &mut self,
        mut read: impl FnMut(&mut R, &mut [u8]) -> IoResult<usize>,
    ) -> Result<Poll, ProtocolError> {
        loop {
            if let Some(frame) = self.take_buffered()? {
                return Ok(Poll::Frame(frame));
            }
            self.make_room();
            match read(&mut self.inner, &mut self.buf[self.tail..]) {
                // Clean close only at a frame boundary; anything mid prefix
                // or mid payload is a truncated frame.
                Ok(0) if self.head == self.tail => return Ok(Poll::Eof),
                Ok(0) => return Err(ProtocolError::Truncated),
                Ok(n) => {
                    self.tail += n;
                    self.bytes_read += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(Poll::Pending);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Decodes the frame at the front of the buffer, if all of it is there.
    fn take_buffered(&mut self) -> Result<Option<Frame>, ProtocolError> {
        let pending = &self.buf[self.head..self.tail];
        let Some(prefix) = pending.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix);
        if len > MAX_FRAME_LEN {
            return Err(ProtocolError::Oversized {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        if len == 0 {
            return Err(ProtocolError::Malformed("empty frame (no tag byte)"));
        }
        let Some(payload) = pending.get(4..4 + len as usize) else {
            return Ok(None);
        };
        let frame = Frame::decode(payload)?;
        self.head += 4 + len as usize;
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        }
        Ok(Some(frame))
    }

    /// Makes the buffer's tail writable: pending bytes move to the front,
    /// and a buffer they already fill doubles.
    fn make_room(&mut self) {
        if self.tail < self.buf.len() {
            return;
        }
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        } else {
            let grown = (self.buf.len() * 2).max(READ_AHEAD);
            self.buf.resize(grown, 0);
        }
    }

    /// Blocking convenience: polls until a frame or EOF (treats `Pending`
    /// as "keep waiting", so only meaningful on transports without a read
    /// timeout — clients, mainly).
    pub fn read_frame(&mut self) -> Result<Option<Frame>, ProtocolError> {
        loop {
            match self.poll()? {
                Poll::Frame(frame) => return Ok(Some(frame)),
                Poll::Eof => return Ok(None),
                Poll::Pending => continue,
            }
        }
    }
}

impl FrameReader<Transport> {
    /// [`FrameReader::poll`] without waiting: a frame already buffered costs
    /// no system call, and otherwise the socket is asked once, non-blocking
    /// ([`Transport::try_read`]) — `Pending` when it has nothing. The
    /// socket's blocking mode, which the writing half shares, is untouched.
    pub fn try_poll(&mut self) -> Result<Poll, ProtocolError> {
        self.poll_with(|inner, buf| inner.try_read(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let mut reader = FrameReader::new(&wire[..]);
        let back = reader.read_frame().unwrap().expect("one frame");
        assert_eq!(back, frame);
        assert_eq!(reader.read_frame().unwrap(), None, "clean EOF after");
    }

    #[test]
    fn hello_and_control_frames_round_trip() {
        round_trip(Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        round_trip(Frame::Cancel);
        round_trip(Frame::Metrics);
        round_trip(Frame::Shutdown);
        round_trip(Frame::Closed);
        round_trip(Frame::ShutdownOk);
        round_trip(Frame::Fetch { credits: 512 });
        round_trip(Frame::Close { id: 3 });
    }

    #[test]
    fn mutate_frames_round_trip() {
        round_trip(Frame::Mutate {
            adds: vec![
                ("alice".into(), "knows".into(), "eve".into()),
                ("eve".into(), "worksAt".into(), "acme".into()),
            ],
            removes: vec![("alice".into(), "knows".into(), "bob".into())],
        });
        round_trip(Frame::Mutate {
            adds: Vec::new(),
            removes: Vec::new(),
        });
        round_trip(Frame::MutateOk {
            epoch: 7,
            added: 2,
            removed: 1,
        });
    }

    #[test]
    fn execute_frame_round_trips_options() {
        round_trip(Frame::Execute {
            statement: StatementRef::Text("(?X) <- (a, p, ?X)".into()),
            options: ExecOptions::new().with_limit(10).with_max_distance(2),
            credits: 64,
        });
    }

    #[test]
    fn metrics_reply_round_trips_exposition_text() {
        round_trip(Frame::MetricsReply {
            version: 1,
            text: "# omega-obs exposition v1\nrequests_total{kind=\"exec\"} 42\n".into(),
        });
        round_trip(Frame::MetricsReply {
            version: 1,
            text: String::new(),
        });
    }

    #[test]
    fn finished_round_trips_with_and_without_profile() {
        round_trip(Frame::Finished {
            stats: EvalStats::default(),
            reason: FinishReason::Complete,
            profile: None,
        });
        let mut profile = QueryProfile::new();
        profile.push("parse", 1_200);
        profile.push("compile", 84_000);
        profile.push("conjunct_0", 3_000_000);
        profile.push("rank_join", 250_000);
        profile.push("total", 3_500_000);
        round_trip(Frame::Finished {
            stats: EvalStats::default(),
            reason: FinishReason::Drained,
            profile: Some(profile),
        });
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut payload = Frame::Hello { version: 1 }.encode();
        payload[1..9].copy_from_slice(b"OMEGSNAP"); // right family, wrong magic
        assert!(matches!(
            Frame::decode(&payload),
            Err(ProtocolError::BadMagic { found }) if &found == b"OMEGSNAP"
        ));
    }

    #[test]
    fn version_skew_is_typed_for_older_and_newer_peers() {
        // Version 1 lays `Answers` out differently: letting it through would
        // garble every batch, so it is refused like a future version.
        for version in [0, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
            let mut w = Writer::new();
            w.put_u8(0x01);
            w.put_bytes(&MAGIC);
            w.put_u32(version);
            assert_eq!(
                Frame::decode(&w.into_inner()),
                Err(ProtocolError::UnsupportedVersion {
                    requested: version,
                    supported: PROTOCOL_VERSION,
                })
            );
        }
    }

    /// A transport that counts the calls made on it. Reads hand over
    /// everything that has "arrived", like a socket would.
    #[derive(Default)]
    struct Counted {
        wire: Vec<u8>,
        taken: usize,
        reads: usize,
        writes: usize,
    }

    impl Write for Counted {
        fn write(&mut self, buf: &[u8]) -> IoResult<usize> {
            self.writes += 1;
            self.wire.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> IoResult<()> {
            Ok(())
        }
    }

    impl Read for Counted {
        fn read(&mut self, buf: &mut [u8]) -> IoResult<usize> {
            self.reads += 1;
            let n = buf.len().min(self.wire.len() - self.taken);
            buf[..n].copy_from_slice(&self.wire[self.taken..self.taken + n]);
            self.taken += n;
            Ok(n)
        }
    }

    fn sample_answers(count: u32) -> Vec<Answer> {
        (0..count)
            .map(|i| Answer {
                bindings: [
                    ("X".to_owned(), format!("node {}", i % 7)),
                    ("Y".to_owned(), format!("node {i}")),
                ]
                .into(),
                distance: i / 3,
            })
            .collect()
    }

    #[test]
    fn a_frame_is_one_write_and_a_chunk_of_frames_is_one_read() {
        let mut transport = Counted::default();
        let frames = [
            Frame::Answers {
                answers: sample_answers(64),
            },
            Frame::Answers {
                answers: sample_answers(36),
            },
            Frame::Finished {
                stats: EvalStats::default(),
                reason: FinishReason::Complete,
                profile: None,
            },
        ];
        let mut sent = 0;
        for (i, frame) in frames.iter().enumerate() {
            sent += write_frame(&mut transport, frame).unwrap();
            assert_eq!(transport.writes, i + 1, "prefix and payload share a write");
        }
        assert_eq!(sent, transport.wire.len());

        // All three frames are waiting: one read takes them in, the other
        // two decode from the buffer.
        let mut reader = FrameReader::new(transport);
        for frame in &frames {
            assert_eq!(reader.read_frame().unwrap().as_ref(), Some(frame));
            assert_eq!(reader.get_ref().reads, 1);
        }
        assert_eq!(
            reader.bytes_read(),
            sent as u64,
            "read-ahead bytes are counted"
        );
        assert_eq!(reader.read_frame().unwrap(), None);
        assert_eq!(reader.get_ref().reads, 2, "the second read is the EOF");
    }

    #[test]
    fn frames_larger_than_the_read_ahead_buffer_reassemble() {
        let big = Frame::MetricsReply {
            version: 1,
            text: "x".repeat(5 * READ_AHEAD),
        };
        let mut wire = Vec::new();
        Frame::Metrics.append_to(&mut wire).unwrap();
        big.append_to(&mut wire).unwrap();
        Frame::Cancel.append_to(&mut wire).unwrap();
        let mut reader = FrameReader::new(&wire[..]);
        assert_eq!(reader.read_frame().unwrap(), Some(Frame::Metrics));
        assert_eq!(reader.read_frame().unwrap(), Some(big));
        assert_eq!(reader.read_frame().unwrap(), Some(Frame::Cancel));
        assert_eq!(reader.read_frame().unwrap(), None);
        assert_eq!(reader.bytes_read(), wire.len() as u64);
    }

    #[test]
    fn row_frames_decode_to_the_answers_they_stand_for() {
        // Ids 0..=99 are labelled "node <id>"; the head repeats a variable.
        let labels: Vec<String> = (0..100).map(|i| format!("node {i}")).collect();
        let columns = ["Y".to_owned(), "X".to_owned(), "Y".to_owned()];
        let mut rows = RowFrame::new();
        let mut expected = Vec::new();
        for i in 0..40u32 {
            let (x, y) = (NodeId(i % 7), NodeId(99 - i));
            rows.push(&[y, x, y], i / 3);
            expected.push(Answer {
                bindings: [
                    ("X".to_owned(), labels[x.index()].clone()),
                    ("Y".to_owned(), labels[y.index()].clone()),
                ]
                .into(),
                distance: i / 3,
            });
        }
        assert_eq!(rows.rows(), 40);
        let mut wire = vec![0xAA]; // bytes already queued stay untouched
        let written = rows
            .append_to(&mut wire, &columns, |id| &labels[id.index()])
            .unwrap();
        assert_eq!(rows.rows(), 0, "the builder is reusable");
        assert_eq!(wire.len(), 1 + written);
        let mut reader = FrameReader::new(&wire[1..]);
        assert_eq!(
            reader.read_frame().unwrap(),
            Some(Frame::Answers { answers: expected })
        );
        // A label bound by six rows travels once; a head variable once per
        // column it names.
        let body = String::from_utf8_lossy(&wire);
        assert_eq!(body.matches("node 3").count(), 1);
        assert_eq!(body.matches('Y').count(), 2);
    }

    #[test]
    fn truncated_stream_is_typed_not_a_panic() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Metrics).unwrap();
        for cut in 1..wire.len() {
            let mut reader = FrameReader::new(&wire[..cut]);
            assert_eq!(
                reader.read_frame().unwrap_err(),
                ProtocolError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unassigned_tags_are_typed_unknown_tags() {
        const ASSIGNED: [u8; 18] = [
            TAG_HELLO,
            TAG_PREPARE,
            TAG_EXECUTE,
            TAG_FETCH,
            TAG_CANCEL,
            TAG_CLOSE,
            TAG_SHUTDOWN,
            TAG_MUTATE,
            TAG_METRICS,
            TAG_HELLO_OK,
            TAG_PREPARED,
            TAG_ANSWERS,
            TAG_FINISHED,
            TAG_FAIL,
            TAG_CLOSED,
            TAG_SHUTDOWN_OK,
            TAG_MUTATE_OK,
            TAG_METRICS_REPLY,
        ];
        for tag in 0..=u8::MAX {
            // A bare tag, then the same tag over a body of junk: neither may
            // panic, and an unassigned tag is refused before its body is read.
            for payload in [vec![tag], vec![tag, 0xff, 0xff, 0xff, 0xff, 0x00]] {
                let decoded = Frame::decode(&payload);
                if ASSIGNED.contains(&tag) {
                    assert_ne!(decoded, Err(ProtocolError::UnknownTag(tag)));
                } else {
                    assert_eq!(decoded, Err(ProtocolError::UnknownTag(tag)));
                }
            }
        }
        // The retired stats request and reply tags stay unassigned.
        for retired in [0x07, 0x86] {
            assert!(!ASSIGNED.contains(&retired));
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let wire = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut reader = FrameReader::new(&wire[..]);
        assert!(matches!(
            reader.read_frame().unwrap_err(),
            ProtocolError::Oversized { .. }
        ));
    }

    #[test]
    fn empty_frame_is_malformed() {
        let wire = 0u32.to_le_bytes();
        let mut reader = FrameReader::new(&wire[..]);
        assert!(matches!(
            reader.read_frame().unwrap_err(),
            ProtocolError::Malformed(_)
        ));
    }

    #[test]
    fn back_to_back_frames_reassemble() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Metrics).unwrap();
        write_frame(&mut wire, &Frame::Cancel).unwrap();
        let mut reader = FrameReader::new(&wire[..]);
        assert_eq!(reader.read_frame().unwrap(), Some(Frame::Metrics));
        assert_eq!(reader.read_frame().unwrap(), Some(Frame::Cancel));
        assert_eq!(reader.read_frame().unwrap(), None);
    }
}
