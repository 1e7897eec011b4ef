//! # omega-server
//!
//! The Omega serving daemon: a thread-per-connection accept loop over unix
//! and TCP sockets, speaking [`omega_protocol`] frames against one shared
//! [`Database`].
//!
//! ## Architecture
//!
//! * **Accept loops** — one thread per listener, polling a non-blocking
//!   socket so the drain flag is observed within one poll interval. Each
//!   accepted connection gets its own thread over the `Send + Sync`
//!   [`Database`] handle.
//! * **Admission at the edge** — every execution passes through the
//!   database-wide [`omega_core::ResourceGovernor`] (token bucket,
//!   concurrency ceiling, shared tuple pool); a rejection surfaces to the
//!   client as the typed `Overloaded { retry_after }` wire error.
//! * **Prepared statements** — each connection keeps an id → statement
//!   table; the entries are [`omega_core::PreparedQuery`] clones obtained
//!   through the database's LRU cache, so two connections preparing the
//!   same text share one compiled plan.
//! * **Credit-driven streaming** — answers flow in batches only while the
//!   client has granted credits; a stalled client stalls only its own
//!   execution (which keeps holding exactly the governor resources the
//!   gauges show), never the daemon. Batches are encoded straight from the
//!   engine's id rows into one per-connection buffer; a full batch leaves at
//!   once, the last one together with the terminal frame.
//! * **Cancellation on disconnect** — an execution only runs while its
//!   connection thread pulls the server-side [`omega_core::Answers`]
//!   stream, so a `Cancel` frame or a vanished client ends it by dropping
//!   that stream.
//! * **Graceful drain** — [`ServerHandle::shutdown`] (or a client `Shutdown`
//!   frame) stops the accept loops, ends in-flight streams at their next
//!   batch boundary with `Finished { reason: Drained }` (the answers already
//!   sent are a correct rank-order prefix), closes idle connections, and
//!   [`Server::run`] returns once every connection thread has exited — with
//!   all governor gauges back at zero.

mod conn;

use std::io::Result as IoResult;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use omega_core::Database;
use omega_obs::{Counter as MetricCounter, Gauge, Histogram, Registry};
use omega_protocol::Transport;

/// Tunables of the serving loop. The defaults suit both tests and the
/// daemon binary.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Informational software identifier sent in the handshake reply.
    pub server_name: String,
    /// How often blocked waits (accept, idle read, credit wait) re-check
    /// the drain flag. Bounds shutdown latency from below.
    pub poll_interval: Duration,
    /// Write timeout per frame; a client that stops reading for longer is
    /// treated as gone and its execution cancelled.
    pub write_timeout: Option<Duration>,
    /// Maximum answers per `Answers` frame.
    pub batch: usize,
    /// Overlay size (in live delta edges) above which a successful `Mutate`
    /// triggers a background compaction of the graph into a fresh frozen
    /// CSR. Compaction never blocks readers or writers of the serving
    /// epoch; `0` disables the trigger.
    pub compact_threshold: usize,
    /// When set, executions slower than this many milliseconds are logged
    /// to stderr as one structured slow-query line (query text, epoch,
    /// options digest, answer count and — when requested — the per-phase
    /// profile). `Some(0)` logs every execution; `None` disables the log.
    pub slow_query_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            server_name: format!("omega-server/{}", env!("CARGO_PKG_VERSION")),
            poll_interval: Duration::from_millis(25),
            write_timeout: Some(Duration::from_secs(10)),
            batch: omega_protocol::DEFAULT_BATCH,
            compact_threshold: 8192,
            slow_query_ms: None,
        }
    }
}

/// The frame kinds the per-frame request-latency histogram distinguishes;
/// anything else (stale flow control, abuse) lands in `"other"`.
const FRAME_KINDS: [&str; 7] = [
    "prepare", "execute", "metrics", "mutate", "close", "shutdown", "other",
];

/// The daemon's handles into the database's shared metrics [`Registry`],
/// the one place its status lives: request-latency histograms per frame
/// kind, wire byte counters, connection / stream / statement counters and
/// gauges, and point-in-time gauges refreshed at scrape (drain flag, uptime,
/// the governor's live occupancy and the prepared-cache size). A `Metrics`
/// frame renders it all; sheds and core degrades are counted once, by the
/// engine's own `omega_govern_sheds_total` and `omega_core_degraded_total`.
pub(crate) struct ServerMetrics {
    pub(crate) bytes_in: Arc<MetricCounter>,
    pub(crate) bytes_out: Arc<MetricCounter>,
    /// Flushes of a connection's output buffer — one `write` each, unless
    /// the socket takes it in parts: with `bytes_out`, how well replies
    /// coalesce.
    pub(crate) writes: Arc<MetricCounter>,
    pub(crate) connections_total: Arc<MetricCounter>,
    pub(crate) connections_open: Arc<Gauge>,
    pub(crate) streams_in_flight: Arc<Gauge>,
    pub(crate) statements_open: Arc<Gauge>,
    pub(crate) answers_streamed: Arc<MetricCounter>,
    /// Streams cut short at a batch boundary by server drain.
    pub(crate) drained: Arc<MetricCounter>,
    pub(crate) rejected: Arc<MetricCounter>,
    draining: Arc<Gauge>,
    uptime_secs: Arc<Gauge>,
    live_tuples: Arc<Gauge>,
    join_buffer_entries: Arc<Gauge>,
    executions: Arc<Gauge>,
    prepared_cache_entries: Arc<Gauge>,
    frames: Vec<(&'static str, Arc<Histogram>)>,
}

impl ServerMetrics {
    fn new(registry: &Registry) -> ServerMetrics {
        ServerMetrics {
            bytes_in: registry.counter("omega_server_bytes_in_total", &[]),
            bytes_out: registry.counter("omega_server_bytes_out_total", &[]),
            writes: registry.counter("omega_server_writes_total", &[]),
            connections_total: registry.counter("omega_server_connections_total", &[]),
            connections_open: registry.gauge("omega_server_connections_open", &[]),
            streams_in_flight: registry.gauge("omega_server_streams_in_flight", &[]),
            statements_open: registry.gauge("omega_server_statements_open", &[]),
            answers_streamed: registry.counter("omega_server_answers_streamed_total", &[]),
            drained: registry.counter("omega_server_drained_total", &[]),
            rejected: registry.counter("omega_server_rejected_total", &[]),
            draining: registry.gauge("omega_server_draining", &[]),
            uptime_secs: registry.gauge("omega_server_uptime_secs", &[]),
            live_tuples: registry.gauge("omega_govern_live_tuples", &[]),
            join_buffer_entries: registry.gauge("omega_govern_join_buffer_entries", &[]),
            executions: registry.gauge("omega_govern_executions", &[]),
            prepared_cache_entries: registry.gauge("omega_core_prepared_cache_entries", &[]),
            frames: FRAME_KINDS
                .iter()
                .map(|kind| {
                    (
                        *kind,
                        registry.histogram("omega_server_frame_ns", &[("frame", kind)]),
                    )
                })
                .collect(),
        }
    }

    /// The request-latency histogram for `kind` (falling back to `other`).
    pub(crate) fn frame_ns(&self, kind: &str) -> &Arc<Histogram> {
        self.frames
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, h)| h)
            .unwrap_or(&self.frames[FRAME_KINDS.len() - 1].1)
    }
}

/// State shared by the accept loops, every connection thread and every
/// [`ServerHandle`].
pub(crate) struct Shared {
    pub(crate) db: Database,
    pub(crate) config: ServerConfig,
    pub(crate) drain: AtomicBool,
    pub(crate) metrics: ServerMetrics,
    pub(crate) started: Instant,
    /// Set while a background compaction thread is running, so overlapping
    /// `Mutate` bursts trigger at most one compactor at a time.
    pub(crate) compacting: AtomicBool,
}

impl Shared {
    pub(crate) fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }

    /// Renders the full metrics exposition, refreshing the point-in-time
    /// gauges first so a scrape always sees current values.
    pub(crate) fn metrics_text(&self) -> String {
        let m = &self.metrics;
        m.draining.set(self.draining() as i64);
        m.uptime_secs.set(self.started.elapsed().as_secs() as i64);
        let gauges = self.db.governor().gauges();
        m.live_tuples.set(gauges.live_tuples as i64);
        m.join_buffer_entries.set(gauges.join_buffer_entries as i64);
        m.executions.set(gauges.executions as i64);
        m.prepared_cache_entries
            .set(self.db.prepared_cache_len() as i64);
        self.db.metrics().expose()
    }
}

/// A cloneable control handle: trigger the drain and read the exposition
/// from outside the serving threads (tests, signal handlers, monitoring).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Flips the drain flag: accept loops stop, in-flight streams end at
    /// their next batch boundary with `Finished { reason: Drained }`, idle
    /// connections close. Idempotent.
    pub fn shutdown(&self) {
        self.shared.drain.store(true, Ordering::SeqCst);
    }

    /// Whether the drain flag is set.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// The full metrics exposition, as served to `Metrics` frames.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// One accept attempt; `None` when no connection is pending.
    fn try_accept(&self) -> Option<Transport> {
        match self {
            Listener::Unix(l) => match l.accept() {
                Ok((stream, _)) => Some(Transport::Unix(stream)),
                Err(_) => None,
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => {
                    // Frames are small and latency-sensitive; never Nagle.
                    let _ = stream.set_nodelay(true);
                    Some(Transport::Tcp(stream))
                }
                Err(_) => None,
            },
        }
    }
}

/// The daemon: listeners, accept threads and connection threads over one
/// shared [`Database`].
pub struct Server {
    shared: Arc<Shared>,
    accepts: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    unix_paths: Vec<PathBuf>,
}

impl Server {
    /// A server over `db` with default [`ServerConfig`].
    pub fn new(db: Database) -> Server {
        Server::with_config(db, ServerConfig::default())
    }

    /// A server over `db` with explicit tunables.
    pub fn with_config(db: Database, config: ServerConfig) -> Server {
        let metrics = ServerMetrics::new(db.metrics());
        Server {
            shared: Arc::new(Shared {
                db,
                config,
                drain: AtomicBool::new(false),
                metrics,
                started: Instant::now(),
                compacting: AtomicBool::new(false),
            }),
            accepts: Vec::new(),
            conns: Arc::new(Mutex::new(Vec::new())),
            unix_paths: Vec::new(),
        }
    }

    /// A control handle, cloneable into other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Binds a unix-domain listener at `path` (removing a stale socket file
    /// from a previous run) and starts its accept loop.
    ///
    /// A socket file with a live listener behind it — another daemon, or a
    /// second listener of this one — is never removed: the bind fails with
    /// `AddrInUse` instead. Only a stale file (nothing accepts on it) from
    /// a crashed previous run is cleaned up.
    pub fn listen_unix<P: AsRef<Path>>(&mut self, path: P) -> IoResult<()> {
        use std::os::unix::fs::FileTypeExt;
        let path = path.as_ref();
        // A bind over a stale socket file fails with AddrInUse even when no
        // process listens, so the file must be removed first — but blindly
        // removing would silently hijack the address of a *live* daemon.
        // Probe-connect to tell the two apart.
        if let Ok(meta) = std::fs::symlink_metadata(path) {
            if !meta.file_type().is_socket() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("{} exists and is not a socket", path.display()),
                ));
            }
            if std::os::unix::net::UnixStream::connect(path).is_ok() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("{} is in use by a live server", path.display()),
                ));
            }
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        self.unix_paths.push(path.to_path_buf());
        self.spawn_accept(Listener::Unix(listener));
        Ok(())
    }

    /// Binds a TCP listener and starts its accept loop; returns the bound
    /// address (useful with port `0`).
    pub fn listen_tcp<A: ToSocketAddrs>(&mut self, addr: A) -> IoResult<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        self.spawn_accept(Listener::Tcp(listener));
        Ok(local)
    }

    fn spawn_accept(&mut self, listener: Listener) {
        let shared = Arc::clone(&self.shared);
        let conns = Arc::clone(&self.conns);
        self.accepts.push(std::thread::spawn(move || {
            accept_loop(listener, shared, conns);
        }));
    }

    /// Serves until drained: blocks while the accept loops run, then joins
    /// every connection thread. Returns only after the last in-flight
    /// stream has finished or been drained — at which point all governor
    /// gauges are back at zero. Unix socket files are removed on the way
    /// out.
    pub fn run(self) {
        for accept in self.accepts {
            let _ = accept.join();
        }
        loop {
            let handle = self.conns.lock().unwrap_or_else(|e| e.into_inner()).pop();
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
        for path in &self.unix_paths {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    while !shared.draining() {
        match listener.try_accept() {
            Some(transport) => {
                shared.metrics.connections_total.inc();
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || {
                    conn::connection(conn_shared, transport);
                });
                let mut guard = conns.lock().unwrap_or_else(|e| e.into_inner());
                // Reap finished threads so a long-running daemon's handle
                // list tracks open connections, not historical ones.
                guard.retain(|h| !h.is_finished());
                guard.push(handle);
            }
            None => std::thread::sleep(shared.config.poll_interval),
        }
    }
}

/// Increments a gauge for the guard's lifetime (connection and stream
/// gauges stay exact even on panicking paths).
pub(crate) struct CounterGuard<'a>(&'a Gauge);

impl<'a> CounterGuard<'a> {
    pub(crate) fn enter(gauge: &'a Gauge) -> CounterGuard<'a> {
        gauge.add(1);
        CounterGuard(gauge)
    }
}

impl Drop for CounterGuard<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}
