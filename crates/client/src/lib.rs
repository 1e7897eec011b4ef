//! # omega-client
//!
//! Blocking client library for the Omega serving layer: connect over a unix
//! or TCP socket, prepare statements, execute queries with full
//! [`omega_core::ExecOptions`], and stream ranked answers with client-driven
//! backpressure (credit top-ups).
//!
//! ```no_run
//! use omega_client::Connection;
//! use omega_core::ExecOptions;
//!
//! let mut conn = Connection::connect_unix("/tmp/omega.sock").unwrap();
//! let mut stream = conn
//!     .execute_text("(?X) <- (Work Episode, type-, ?X)", &ExecOptions::new().with_limit(10))
//!     .unwrap();
//! while let Some(answer) = stream.next_answer().unwrap() {
//!     println!("{} {:?}", answer.distance, answer.get("X"));
//! }
//! ```

use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use omega_core::{Answer, EvalStats, ExecOptions, MutationReport, QueryProfile};
use omega_protocol::{
    write_frame, FinishReason, Frame, FrameReader, ProtocolError, StatementRef, Transport,
    WireError, DEFAULT_CREDITS, PROTOCOL_VERSION,
};

/// A metrics exposition fetched from the server: versioned text, one
/// `name{labels} value` line per series (the `omega_obs::Registry`
/// exposition format; `omega_obs::find_value` parses individual series out
/// of `text`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Exposition text format version
    /// ([`omega_protocol::METRICS_EXPOSITION_VERSION`] at the server).
    pub version: u32,
    /// The rendered exposition.
    pub text: String,
}

/// Everything that can go wrong on the client side of a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Transport or framing failure (connection unusable afterwards).
    Protocol(ProtocolError),
    /// A typed failure reported by the server (connection stays usable).
    Remote(WireError),
    /// The server sent a frame that makes no sense in the current state.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol failure: {e}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::Unexpected(what) => write!(f, "unexpected server frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

impl ClientError {
    /// The engine error carried by a `Remote` failure, if any.
    pub fn engine_error(&self) -> Option<&omega_core::OmegaError> {
        match self {
            ClientError::Remote(WireError::Engine(e)) => Some(e),
            _ => None,
        }
    }

    /// The server's suggested backoff, when this failure is an
    /// `Overloaded { retry_after }` rejection.
    pub fn retry_after(&self) -> Option<Duration> {
        match self.engine_error() {
            Some(omega_core::OmegaError::Overloaded { retry_after }) => Some(*retry_after),
            _ => None,
        }
    }
}

pub type Result<T> = std::result::Result<T, ClientError>;

/// A server-side prepared statement, scoped to the connection that made it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// Connection-scoped statement id.
    pub id: u64,
    /// Number of conjuncts in the compiled query body.
    pub conjuncts: u32,
    /// Head (distinguished) variables, in projection order.
    pub head: Vec<String>,
}

/// A batch of edge mutations, applied atomically server-side by
/// [`Connection::mutate`]: the server publishes all of it as one new
/// storage epoch, or none of it. The client-side mirror of
/// [`omega_core::MutationBatch`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Mutation {
    adds: Vec<(String, String, String)>,
    removes: Vec<(String, String, String)>,
}

impl Mutation {
    /// An empty batch.
    pub fn new() -> Mutation {
        Mutation::default()
    }

    /// Queues adding the edge `tail --label--> head` (unknown node or edge
    /// labels are created).
    pub fn add(&mut self, tail: &str, label: &str, head: &str) -> &mut Self {
        self.adds.push((tail.into(), label.into(), head.into()));
        self
    }

    /// Queues removing the edge `tail --label--> head` (removing an edge
    /// the graph does not have is a no-op).
    pub fn remove(&mut self, tail: &str, label: &str, head: &str) -> &mut Self {
        self.removes.push((tail.into(), label.into(), head.into()));
        self
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty()
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.adds.len() + self.removes.len()
    }
}

/// A blocking protocol connection.
pub struct Connection {
    writer: Transport,
    reader: FrameReader<Transport>,
    server: String,
    version: u32,
    /// Credit window for executions started on this connection.
    window: u32,
}

impl Connection {
    /// Connects over a unix-domain socket and performs the handshake.
    pub fn connect_unix<P: AsRef<Path>>(path: P) -> Result<Connection> {
        let stream = UnixStream::connect(path).map_err(ProtocolError::from)?;
        Connection::establish(Transport::Unix(stream))
    }

    /// Connects over TCP (with `TCP_NODELAY`) and performs the handshake.
    pub fn connect_tcp<A: ToSocketAddrs>(addr: A) -> Result<Connection> {
        let stream = TcpStream::connect(addr).map_err(ProtocolError::from)?;
        let _ = stream.set_nodelay(true);
        Connection::establish(Transport::Tcp(stream))
    }

    fn establish(transport: Transport) -> Result<Connection> {
        let reader_half = transport.try_clone().map_err(ProtocolError::from)?;
        let mut conn = Connection {
            writer: transport,
            reader: FrameReader::new(reader_half),
            server: String::new(),
            version: PROTOCOL_VERSION,
            window: DEFAULT_CREDITS,
        };
        conn.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match conn.recv()? {
            Frame::HelloOk { version, server } => {
                conn.version = version;
                conn.server = server;
                Ok(conn)
            }
            Frame::Fail { error } => Err(ClientError::Remote(error)),
            _ => Err(ClientError::Unexpected("handshake reply")),
        }
    }

    /// The server's software identifier from the handshake.
    pub fn server(&self) -> &str {
        &self.server
    }

    /// The negotiated protocol version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Sets the credit window granted to subsequent executions (how many
    /// answers the server may send ahead of consumption).
    pub fn set_window(&mut self, window: u32) {
        self.window = window.max(1);
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        write_frame(&mut self.writer, frame)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame> {
        match self.reader.read_frame()? {
            Some(frame) => Ok(frame),
            // EOF while awaiting a reply: the server went away.
            None => Err(ClientError::Protocol(ProtocolError::Io(
                "connection closed by server".into(),
            ))),
        }
    }

    /// Prepares `text` server-side, returning the statement handle.
    pub fn prepare(&mut self, text: &str) -> Result<Statement> {
        self.send(&Frame::Prepare { text: text.into() })?;
        match self.recv()? {
            Frame::Prepared {
                id,
                conjuncts,
                head,
            } => Ok(Statement {
                id,
                conjuncts,
                head,
            }),
            Frame::Fail { error } => Err(ClientError::Remote(error)),
            _ => Err(ClientError::Unexpected("prepare reply")),
        }
    }

    /// Closes a prepared statement.
    pub fn close(&mut self, id: u64) -> Result<()> {
        self.send(&Frame::Close { id })?;
        match self.recv()? {
            Frame::Closed => Ok(()),
            Frame::Fail { error } => Err(ClientError::Remote(error)),
            _ => Err(ClientError::Unexpected("close reply")),
        }
    }

    /// Fetches the server's full metrics exposition (counters, gauges and
    /// latency histograms from every layer that registered into the
    /// database's registry) — the daemon's one status report.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot> {
        self.send(&Frame::Metrics)?;
        match self.recv()? {
            Frame::MetricsReply { version, text } => Ok(MetricsSnapshot { version, text }),
            Frame::Fail { error } => Err(ClientError::Remote(error)),
            _ => Err(ClientError::Unexpected("metrics reply")),
        }
    }

    /// Applies a mutation batch atomically server-side. On success every
    /// operation landed as one new storage epoch; in-flight answer streams
    /// (on any connection) keep the epoch they started on, and statements
    /// prepared afterwards see the change.
    pub fn mutate(&mut self, mutation: &Mutation) -> Result<MutationReport> {
        self.send(&Frame::Mutate {
            adds: mutation.adds.clone(),
            removes: mutation.removes.clone(),
        })?;
        match self.recv()? {
            Frame::MutateOk {
                epoch,
                added,
                removed,
            } => Ok(MutationReport {
                epoch,
                added,
                removed,
            }),
            Frame::Fail { error } => Err(ClientError::Remote(error)),
            _ => Err(ClientError::Unexpected("mutate reply")),
        }
    }

    /// Asks the daemon to drain and shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<()> {
        self.send(&Frame::Shutdown)?;
        match self.recv()? {
            Frame::ShutdownOk => Ok(()),
            Frame::Fail { error } => Err(ClientError::Remote(error)),
            _ => Err(ClientError::Unexpected("shutdown reply")),
        }
    }

    /// Starts an execution of query `text` (prepared server-side through the
    /// shared plan cache).
    pub fn execute_text(&mut self, text: &str, options: &ExecOptions) -> Result<AnswerStream<'_>> {
        self.execute(StatementRef::Text(text.into()), options)
    }

    /// Starts an execution of a prepared statement.
    pub fn execute_prepared(
        &mut self,
        statement: &Statement,
        options: &ExecOptions,
    ) -> Result<AnswerStream<'_>> {
        self.execute(StatementRef::Id(statement.id), options)
    }

    /// Starts an execution; answers stream back under the connection's
    /// credit window.
    pub fn execute(
        &mut self,
        statement: StatementRef,
        options: &ExecOptions,
    ) -> Result<AnswerStream<'_>> {
        let window = self.window;
        self.send(&Frame::Execute {
            statement,
            options: options.clone(),
            credits: window,
        })?;
        Ok(AnswerStream {
            conn: self,
            window,
            outstanding: window,
            batch: Vec::new().into_iter(),
            finished: None,
            failed: false,
        })
    }

    /// Convenience: executes `text` and collects every answer plus the final
    /// statistics — the remote analogue of [`omega_core::Database::execute`].
    pub fn run(&mut self, text: &str, options: &ExecOptions) -> Result<(Vec<Answer>, EvalStats)> {
        let mut stream = self.execute_text(text, options)?;
        let mut answers = Vec::new();
        while let Some(answer) = stream.next_answer()? {
            answers.push(answer);
        }
        let stats = stream.stats().unwrap_or_default();
        Ok((answers, stats))
    }
}

/// A streaming result set: pulls `Answers` batches off the wire, granting
/// credit top-ups as the local buffer drains, until the terminal `Finished`
/// or `Fail` frame. Each answer is handed out as the frame decoded it: a
/// row of label indexes sharing the frame's label table, never copied.
///
/// Dropping the stream before exhaustion sends `Cancel` and drains to the
/// terminal frame, so the connection is immediately reusable and the
/// server-side execution stops.
pub struct AnswerStream<'a> {
    conn: &'a mut Connection,
    window: u32,
    /// Credits the server may still spend (granted minus received).
    outstanding: u32,
    /// The answers of the last `Answers` frame not yet handed out.
    batch: std::vec::IntoIter<Answer>,
    finished: Option<Finished>,
    failed: bool,
}

/// The contents of the terminal `Finished` frame.
struct Finished {
    stats: EvalStats,
    reason: FinishReason,
    profile: Option<QueryProfile>,
}

impl AnswerStream<'_> {
    /// The next ranked answer, or `None` after the stream finished.
    pub fn next_answer(&mut self) -> Result<Option<Answer>> {
        loop {
            if let Some(answer) = self.batch.next() {
                return Ok(Some(answer));
            }
            if self.finished.is_some() {
                return Ok(None);
            }
            if self.failed {
                // A failed stream yields nothing further.
                return Ok(None);
            }
            // Top up the window before blocking so the server never stalls
            // waiting for credits the client is about to grant anyway.
            if self.outstanding < self.window.div_ceil(2) {
                let grant = self.window - self.outstanding;
                self.conn.send(&Frame::Fetch { credits: grant })?;
                self.outstanding += grant;
            }
            match self.conn.recv()? {
                Frame::Answers { answers } => {
                    self.outstanding = self
                        .outstanding
                        .saturating_sub(u32::try_from(answers.len()).unwrap_or(u32::MAX));
                    self.batch = answers.into_iter();
                }
                Frame::Finished {
                    stats,
                    reason,
                    profile,
                } => {
                    self.finished = Some(Finished {
                        stats,
                        reason,
                        profile,
                    });
                }
                Frame::Fail { error } => {
                    self.failed = true;
                    return Err(ClientError::Remote(error));
                }
                _ => {
                    self.failed = true;
                    return Err(ClientError::Unexpected("answer stream frame"));
                }
            }
        }
    }

    /// Final evaluator statistics (present once the stream finished).
    pub fn stats(&self) -> Option<EvalStats> {
        self.finished.as_ref().map(|f| f.stats)
    }

    /// How the stream ended (`Complete`, or `Drained` by server shutdown).
    pub fn finish_reason(&self) -> Option<FinishReason> {
        self.finished.as_ref().map(|f| f.reason)
    }

    /// The server-side per-phase timing breakdown. Present once the stream
    /// finished *and* the request asked for one via
    /// [`omega_core::ExecOptions::with_profile`].
    pub fn profile(&self) -> Option<&QueryProfile> {
        self.finished.as_ref().and_then(|f| f.profile.as_ref())
    }

    /// Cancels the execution and waits for the server's acknowledgement
    /// (the terminal frame). The connection is reusable afterwards.
    pub fn cancel(mut self) -> Result<()> {
        self.abort()
    }

    /// Sends `Cancel` (if the stream is still live) and drains to the
    /// terminal frame.
    fn abort(&mut self) -> Result<()> {
        if self.finished.is_some() || self.failed {
            return Ok(());
        }
        self.failed = true;
        self.conn.send(&Frame::Cancel)?;
        loop {
            match self.conn.recv()? {
                Frame::Answers { .. } => {}
                Frame::Finished {
                    stats,
                    reason,
                    profile,
                } => {
                    self.finished = Some(Finished {
                        stats,
                        reason,
                        profile,
                    });
                    return Ok(());
                }
                Frame::Fail { .. } => return Ok(()),
                _ => return Err(ClientError::Unexpected("cancel reply")),
            }
        }
    }
}

impl Drop for AnswerStream<'_> {
    fn drop(&mut self) {
        // Best effort: an abandoned stream must not leave answer frames in
        // flight on a connection that will be reused.
        let _ = self.abort();
    }
}
