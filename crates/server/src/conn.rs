//! The per-connection protocol state machine: handshake, request dispatch,
//! credit-driven answer streaming, cancellation and drain.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use omega_core::{ExecOptions, OmegaError, PreparedQuery, QueryProfile};
use omega_protocol::{
    FinishReason, Frame, FrameReader, Poll, ProtocolError, RowFrame, StatementRef, Transport,
    WireError, METRICS_EXPOSITION_VERSION, PROTOCOL_VERSION,
};

use crate::{CounterGuard, Shared};

/// Why the connection thread is ending. Either way the socket just closes;
/// the split only exists so call sites read correctly.
enum Hangup {
    /// The peer disconnected or the transport failed.
    Gone,
    /// The server is draining and this connection is (now) idle.
    Drained,
}

type ConnResult<T> = Result<T, Hangup>;

/// A control frame observed while a stream is in flight.
enum Control {
    /// Nothing pending.
    None,
    /// The client granted more answer credits.
    Fetch(u32),
    /// The client abandoned the stream.
    Cancel,
    /// A frame that has no business arriving mid-stream.
    Unexpected,
}

/// How a stream ended (the terminal frame is chosen from this).
enum Outcome {
    /// Ran to completion: limit reached or answers exhausted.
    Complete,
    /// Cut short at a batch boundary by server drain.
    Drained,
    /// The client sent `Cancel`.
    Cancelled,
    /// The evaluator failed with a typed error.
    Failed(OmegaError),
    /// The client broke protocol mid-stream.
    Abuse,
}

/// Entry point of a connection thread.
pub(crate) fn connection(shared: Arc<Shared>, transport: Transport) {
    let _open = CounterGuard::enter(&shared.metrics.connections_open);
    // The only reasons `serve` ends are peer disconnect and server drain;
    // both are handled by closing the socket, which happens on drop.
    let _ = serve(&shared, transport);
}

fn serve(shared: &Arc<Shared>, transport: Transport) -> ConnResult<()> {
    // Reads poll at the drain interval; writes are bounded so a client that
    // stops reading cannot pin this thread (or the drain) forever.
    let _ = transport.set_read_timeout(Some(shared.config.poll_interval));
    let _ = transport.set_write_timeout(shared.config.write_timeout);
    let reader_half = transport.try_clone().map_err(|_| Hangup::Gone)?;
    let mut conn = Conn {
        shared,
        reader: FrameReader::new(reader_half),
        writer: transport,
        out: Vec::new(),
        rows: RowFrame::new(),
        statements: HashMap::new(),
        next_id: 1,
        bytes_in_seen: 0,
    };
    conn.handshake()?;
    loop {
        match conn.next_request()? {
            Some(frame) => {
                let kind = frame_kind(&frame);
                let started = Instant::now();
                conn.dispatch(frame)?;
                shared.metrics.frame_ns(kind).observe(started.elapsed());
            }
            None => return Ok(()),
        }
    }
}

/// The label under which a request lands in the per-frame latency
/// histogram.
fn frame_kind(frame: &Frame) -> &'static str {
    match frame {
        Frame::Prepare { .. } => "prepare",
        Frame::Execute { .. } => "execute",
        Frame::Metrics => "metrics",
        Frame::Mutate { .. } => "mutate",
        Frame::Close { .. } => "close",
        Frame::Shutdown => "shutdown",
        _ => "other",
    }
}

/// FNV-1a over the debug rendering of the request options: a stable,
/// dependency-free digest that lets slow-query lines be grouped by
/// execution configuration without reprinting the whole struct.
fn options_digest(options: &ExecOptions) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in format!("{options:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Minimal JSON string escaping for the slow-query log line.
fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Conn<'a> {
    shared: &'a Arc<Shared>,
    reader: FrameReader<Transport>,
    writer: Transport,
    /// Frames encoded but not yet written. Every reply is encoded into this
    /// one buffer and leaves in one `write`; it is empty between requests.
    out: Vec<u8>,
    /// The `Answers` batch being filled from the stream's id rows.
    rows: RowFrame,
    /// Connection-scoped statement table. The values are clones out of the
    /// database's shared LRU cache, so identical text prepared on two
    /// connections shares one compiled plan.
    statements: HashMap<u64, PreparedQuery>,
    next_id: u64,
    /// Reader byte total already credited to the `bytes_in` counter.
    bytes_in_seen: u64,
}

impl Drop for Conn<'_> {
    fn drop(&mut self) {
        // Return this connection's statement-table contribution.
        self.shared
            .metrics
            .statements_open
            .sub(self.statements.len() as i64);
    }
}

impl Conn<'_> {
    /// Queues `frame` behind whatever is already encoded and writes it all.
    fn send(&mut self, frame: &Frame) -> ConnResult<()> {
        frame.append_to(&mut self.out).map_err(|_| Hangup::Gone)?;
        self.flush()
    }

    /// Writes the queued frames with one `write` and counts the bytes.
    fn flush(&mut self) -> ConnResult<()> {
        let written = self.writer.write_all(&self.out);
        let len = self.out.len() as u64;
        self.out.clear();
        written.map_err(|_| Hangup::Gone)?;
        self.shared.metrics.bytes_out.add(len);
        self.shared.metrics.writes.inc();
        Ok(())
    }

    /// Credits reader bytes consumed since the last call to the `bytes_in`
    /// counter (called after every poll, so partial frames count too).
    fn note_read_bytes(&mut self) {
        let total = self.reader.bytes_read();
        self.shared.metrics.bytes_in.add(total - self.bytes_in_seen);
        self.bytes_in_seen = total;
    }

    /// Sends a typed failure and counts it.
    fn send_fail(&mut self, error: WireError) -> ConnResult<()> {
        self.shared.metrics.rejected.inc();
        self.send(&Frame::Fail { error })
    }

    /// First frame must be a well-formed `Hello`; version skew and foreign
    /// magic are reported as typed failures before the socket closes.
    fn handshake(&mut self) -> ConnResult<()> {
        loop {
            let polled = self.reader.poll();
            self.note_read_bytes();
            match polled {
                Ok(Poll::Frame(Frame::Hello { .. })) => {
                    let server = self.shared.config.server_name.clone();
                    return self.send(&Frame::HelloOk {
                        version: PROTOCOL_VERSION,
                        server,
                    });
                }
                Ok(Poll::Frame(_)) => {
                    let _ = self.send_fail(WireError::Malformed(
                        "connection must open with a Hello handshake".into(),
                    ));
                    return Err(Hangup::Gone);
                }
                Ok(Poll::Pending) => {
                    if self.shared.draining() {
                        return Err(Hangup::Drained);
                    }
                }
                Ok(Poll::Eof) => return Err(Hangup::Gone),
                Err(ProtocolError::UnsupportedVersion {
                    requested,
                    supported,
                }) => {
                    let _ = self.send_fail(WireError::VersionSkew {
                        client: requested,
                        server: supported,
                    });
                    return Err(Hangup::Gone);
                }
                Err(err) => {
                    // Includes BadMagic: the peer is not speaking this
                    // protocol; report best-effort and hang up.
                    let _ = self.send_fail(WireError::Malformed(err.to_string()));
                    return Err(Hangup::Gone);
                }
            }
        }
    }

    /// Waits for the next request frame; `None` is a clean client
    /// disconnect. During drain an idle connection closes instead of
    /// waiting.
    fn next_request(&mut self) -> ConnResult<Option<Frame>> {
        loop {
            let polled = self.reader.poll();
            self.note_read_bytes();
            match polled {
                Ok(Poll::Frame(frame)) => return Ok(Some(frame)),
                Ok(Poll::Eof) => return Ok(None),
                Ok(Poll::Pending) => {
                    if self.shared.draining() {
                        return Err(Hangup::Drained);
                    }
                }
                Err(err) => {
                    let _ = self.send_fail(WireError::Malformed(err.to_string()));
                    return Err(Hangup::Gone);
                }
            }
        }
    }

    fn dispatch(&mut self, frame: Frame) -> ConnResult<()> {
        match frame {
            Frame::Prepare { text } => self.prepare(text),
            Frame::Execute {
                statement,
                options,
                credits,
            } => self.execute(statement, options, credits),
            Frame::Close { id } => {
                if self.statements.remove(&id).is_some() {
                    self.shared.metrics.statements_open.sub(1);
                    self.send(&Frame::Closed)
                } else {
                    self.send_fail(WireError::UnknownStatement(id))
                }
            }
            Frame::Metrics => {
                let text = self.shared.metrics_text();
                self.send(&Frame::MetricsReply {
                    version: METRICS_EXPOSITION_VERSION,
                    text,
                })
            }
            Frame::Mutate { adds, removes } => self.mutate(adds, removes),
            Frame::Shutdown => {
                self.shared.drain.store(true, Ordering::SeqCst);
                self.send(&Frame::ShutdownOk)
            }
            // A Fetch or Cancel can legitimately arrive after the stream it
            // belongs to ended: the client grants credits (or aborts) while
            // the terminal frame is still in flight towards it. Stale flow
            // control is dropped silently — replying would desynchronise
            // the next request/reply exchange.
            Frame::Fetch { .. } | Frame::Cancel => Ok(()),
            Frame::Hello { .. } => {
                self.send_fail(WireError::Malformed("duplicate handshake".into()))
            }
            // A server→client frame arriving at the server is protocol
            // abuse; hang up after reporting.
            _ => {
                let _ = self.send_fail(WireError::Malformed(
                    "server-to-client frame sent by client".into(),
                ));
                Err(Hangup::Gone)
            }
        }
    }

    fn prepare(&mut self, text: String) -> ConnResult<()> {
        if self.shared.draining() {
            return self.send_fail(WireError::Shutdown);
        }
        match self.shared.db.prepare(&text) {
            Ok(prepared) => {
                let id = self.next_id;
                self.next_id += 1;
                let conjuncts = prepared.query().conjuncts.len() as u32;
                let head = prepared.query().head.clone();
                self.statements.insert(id, prepared);
                self.shared.metrics.statements_open.add(1);
                self.send(&Frame::Prepared {
                    id,
                    conjuncts,
                    head,
                })
            }
            Err(err) => self.send_fail(WireError::Engine(err)),
        }
    }

    /// Applies one mutation batch atomically against the shared database.
    /// In-flight streams — on this connection and every other — keep their
    /// pinned epoch; only statements prepared afterwards see the change.
    fn mutate(
        &mut self,
        adds: Vec<(String, String, String)>,
        removes: Vec<(String, String, String)>,
    ) -> ConnResult<()> {
        if self.shared.draining() {
            return self.send_fail(WireError::Shutdown);
        }
        let mut batch = self.shared.db.begin_mutation();
        for (tail, label, head) in &adds {
            batch.add(tail, label, head);
        }
        for (tail, label, head) in &removes {
            batch.remove(tail, label, head);
        }
        match self.shared.db.apply(&batch) {
            Ok(report) => {
                self.maybe_compact();
                self.send(&Frame::MutateOk {
                    epoch: report.epoch,
                    added: report.added,
                    removed: report.removed,
                })
            }
            Err(err) => self.send_fail(WireError::Engine(err)),
        }
    }

    /// Kicks off a background compaction when the delta overlay has grown
    /// past the configured threshold. At most one compactor runs at a time;
    /// it swaps in a fresh frozen CSR without blocking readers or writers.
    fn maybe_compact(&self) {
        let threshold = self.shared.config.compact_threshold;
        if threshold == 0 || self.shared.db.graph().overlay_edges() < threshold as u64 {
            return;
        }
        if self.shared.compacting.swap(true, Ordering::SeqCst) {
            return;
        }
        let shared = Arc::clone(self.shared);
        std::thread::spawn(move || {
            shared.db.compact();
            shared.compacting.store(false, Ordering::SeqCst);
        });
    }

    fn execute(
        &mut self,
        statement: StatementRef,
        options: ExecOptions,
        credits: u32,
    ) -> ConnResult<()> {
        if self.shared.draining() {
            return self.send_fail(WireError::Shutdown);
        }
        let prepared = match statement {
            StatementRef::Id(id) => match self.statements.get(&id) {
                Some(prepared) => prepared.clone(),
                None => return self.send_fail(WireError::UnknownStatement(id)),
            },
            StatementRef::Text(text) => match self.shared.db.prepare(&text) {
                Ok(prepared) => prepared,
                Err(err) => return self.send_fail(WireError::Engine(err)),
            },
        };
        self.stream(prepared, options, credits)
    }

    /// Runs one execution, streaming ranked answers in credit-bounded
    /// batches encoded straight from the engine's id rows. A batch that
    /// fills is written at once — the first answers reach the client while
    /// the rest are computed — and the last batch waits the few microseconds
    /// for the terminal frame, so the two share a `write`. Returns when the
    /// terminal frame (`Finished` or `Fail`) is on the wire — or with a
    /// hangup, which drops the [`omega_core::Answers`] stream and thereby
    /// cancels the execution (cancellation on disconnect).
    fn stream(
        &mut self,
        prepared: PreparedQuery,
        request: ExecOptions,
        credits: u32,
    ) -> ConnResult<()> {
        let _in_flight = CounterGuard::enter(&self.shared.metrics.streams_in_flight);
        let started = Instant::now();
        let mut stream = prepared.answers(&request);
        let mut credits = u64::from(credits);
        let batch_cap = self.shared.config.batch.max(1) as u64;
        let mut first_batch = true;
        let outcome = loop {
            if self.shared.draining() {
                break Outcome::Drained;
            }
            // Opportunistic, non-blocking control poll between batches:
            // `Cancel` and `Fetch` top-ups can arrive while answers still
            // flow. Nothing can have been sent in reply to answers before
            // the first batch is out, so that one is not delayed by it.
            if !first_batch {
                match self.try_control()? {
                    Control::None => {}
                    Control::Fetch(extra) => {
                        credits = credits.saturating_add(u64::from(extra));
                        continue;
                    }
                    Control::Cancel => break Outcome::Cancelled,
                    Control::Unexpected => break Outcome::Abuse,
                }
            }
            if credits == 0 {
                // Out of credits: block (at the poll interval) until the
                // client grants more, cancels, or disconnects.
                match self.wait_control()? {
                    Control::None => continue,
                    Control::Fetch(extra) => {
                        credits = credits.saturating_add(u64::from(extra));
                    }
                    Control::Cancel => break Outcome::Cancelled,
                    Control::Unexpected => break Outcome::Abuse,
                }
                continue;
            }
            let room = credits.min(batch_cap);
            let mut ended = None;
            while (self.rows.rows() as u64) < room {
                match stream.next_row() {
                    Ok(Some((row, distance))) => self.rows.push(row, distance),
                    Ok(None) => {
                        ended = Some(Outcome::Complete);
                        break;
                    }
                    Err(err) => {
                        ended = Some(Outcome::Failed(err));
                        break;
                    }
                }
            }
            let batch = self.rows.rows() as u64;
            if batch > 0 {
                credits -= batch;
                self.shared.metrics.answers_streamed.add(batch);
                self.rows
                    .append_to(&mut self.out, stream.columns(), |id| stream.label(id))
                    .map_err(|_| Hangup::Gone)?;
            }
            if let Some(outcome) = ended {
                // The tail batch stays queued for the terminal frame.
                break outcome;
            }
            self.flush()?;
            first_batch = false;
        };
        let stats = stream.stats();
        let profile = stream.take_profile();
        // Drop before the terminal frame: returns every governor resource,
        // so a client observing `Finished`
        // observes the gauges already settled.
        drop(stream);
        if matches!(outcome, Outcome::Drained) {
            self.shared.metrics.drained.inc();
        }
        self.log_slow_query(&prepared, &request, &outcome, started, &stats, &profile);
        match outcome {
            Outcome::Complete => self.send(&Frame::Finished {
                stats,
                reason: FinishReason::Complete,
                profile,
            }),
            Outcome::Drained => {
                // The answers already sent are a correct rank-order prefix;
                // tell the client so, then let the request loop close the
                // (now idle, draining) connection.
                self.send(&Frame::Finished {
                    stats,
                    reason: FinishReason::Drained,
                    profile,
                })
            }
            Outcome::Cancelled => self.send_fail(WireError::Engine(OmegaError::Cancelled)),
            Outcome::Failed(err) => self.send_fail(WireError::Engine(err)),
            Outcome::Abuse => {
                let _ = self.send_fail(WireError::Malformed(
                    "unexpected frame while a stream was in flight".into(),
                ));
                Err(Hangup::Gone)
            }
        }
    }

    /// Emits the structured slow-query line when the execution crossed the
    /// configured threshold. One stderr line, fixed prefix, hand-rolled
    /// JSON — greppable and machine-parseable without a logging stack.
    fn log_slow_query(
        &self,
        prepared: &PreparedQuery,
        request: &ExecOptions,
        outcome: &Outcome,
        started: Instant,
        stats: &omega_core::EvalStats,
        profile: &Option<QueryProfile>,
    ) {
        let Some(threshold) = self.shared.config.slow_query_ms else {
            return;
        };
        let elapsed_ms = started.elapsed().as_millis() as u64;
        if elapsed_ms < threshold {
            return;
        }
        let reason = match outcome {
            Outcome::Complete => "complete",
            Outcome::Drained => "drained",
            Outcome::Cancelled => "cancelled",
            Outcome::Failed(_) => "failed",
            Outcome::Abuse => "abuse",
        };
        let profile_json = match profile {
            Some(profile) => {
                let phases: Vec<String> = profile
                    .phases()
                    .iter()
                    .map(|p| format!("\"{}\":{}", json_escape(&p.name), p.nanos))
                    .collect();
                format!(",\"profile\":{{{}}}", phases.join(","))
            }
            None => String::new(),
        };
        eprintln!(
            "omega-server: slow-query {{\"elapsed_ms\":{},\"query\":\"{}\",\"epoch\":{},\
             \"options_digest\":\"{:016x}\",\"answers\":{},\"degraded\":{},\"reason\":\"{}\"{}}}",
            elapsed_ms,
            json_escape(&prepared.query().to_string()),
            prepared.epoch(),
            options_digest(request),
            stats.answers,
            stats.degraded,
            reason,
            profile_json,
        );
    }

    /// Non-blocking control poll: at most one `recv`, none when a frame is
    /// already buffered; partial frames are retained by the reader.
    fn try_control(&mut self) -> ConnResult<Control> {
        let polled = self.reader.try_poll();
        self.control_from(polled)
    }

    /// Blocking control wait at the read-timeout (poll) interval, so the
    /// drain flag is re-checked by the caller between ticks.
    fn wait_control(&mut self) -> ConnResult<Control> {
        let polled = self.reader.poll();
        self.control_from(polled)
    }

    fn control_from(&mut self, polled: Result<Poll, ProtocolError>) -> ConnResult<Control> {
        self.note_read_bytes();
        match polled {
            Ok(Poll::Frame(Frame::Fetch { credits })) => Ok(Control::Fetch(credits)),
            Ok(Poll::Frame(Frame::Cancel)) => Ok(Control::Cancel),
            Ok(Poll::Frame(Frame::Metrics)) => {
                // Metrics are safe (and useful) mid-stream: a monitoring
                // client can watch the gauges move, and scrapers are not
                // blocked by a long stream on the same connection.
                let text = self.shared.metrics_text();
                self.send(&Frame::MetricsReply {
                    version: METRICS_EXPOSITION_VERSION,
                    text,
                })?;
                Ok(Control::None)
            }
            Ok(Poll::Frame(_)) => Ok(Control::Unexpected),
            Ok(Poll::Pending) => Ok(Control::None),
            // Disconnect mid-stream: the caller drops the answer stream,
            // which cancels the execution.
            Ok(Poll::Eof) => Err(Hangup::Gone),
            Err(_) => Err(Hangup::Gone),
        }
    }
}
