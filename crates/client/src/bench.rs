//! The serving-layer load generator: closed- and open-loop driving of an
//! `omega-server` daemon over concurrent connections, with per-query latency
//! percentiles (p50/p99/p999). Backs the `omega-client bench` subcommand.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use omega_core::{ExecOptions, OmegaError};
use omega_obs::Histogram;
use omega_protocol::{ProtocolError, WireError};

use crate::{ClientError, Connection, Result, RetryPolicy};

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// Unix-domain socket path.
    Unix(PathBuf),
    /// TCP address (`host:port`).
    Tcp(String),
}

impl Endpoint {
    /// Opens a fresh connection to the endpoint.
    pub fn connect(&self) -> Result<Connection> {
        match self {
            Endpoint::Unix(path) => Connection::connect_unix(path),
            Endpoint::Tcp(addr) => Connection::connect_tcp(addr.as_str()),
        }
    }
}

/// Arrival discipline of the generated load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Closed loop: each connection fires its next request the moment the
    /// previous one completes (latency = service time under self-induced
    /// load).
    Closed,
    /// Open loop at the given aggregate arrival rate (requests/second):
    /// arrivals are scheduled on a fixed grid regardless of completions, and
    /// latency is measured from the *scheduled* arrival, so queueing delay —
    /// the coordinated-omission blind spot of closed loops — is charged to
    /// the server.
    Open(f64),
}

/// One load-generation run.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Query text every request executes.
    pub query: String,
    /// Per-request execution options (deadline/limit/policy travel on the
    /// wire like any client's would).
    pub options: ExecOptions,
    /// Concurrent connections (one OS thread each).
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Arrival discipline.
    pub mode: LoadMode,
    /// Retry transient failures (`Overloaded` rejections, broken pipes)
    /// with capped jittered backoff instead of counting them immediately.
    /// `None` preserves the fail-fast accounting.
    pub retry: Option<RetryPolicy>,
}

/// Aggregate result of a load run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Requests issued.
    pub issued: u64,
    /// Requests that streamed to a `Finished { Complete }`.
    pub completed: u64,
    /// Requests ended early by server drain (`Finished { Drained }`).
    pub drained: u64,
    /// Requests rejected with `Overloaded { retry_after }`.
    pub overloaded: u64,
    /// Requests failed with any other typed error.
    pub failed: u64,
    /// Completed requests whose evaluation degraded under pressure.
    pub degraded: u64,
    /// Completed requests whose result set was truncated (tuple budget or
    /// pool exhaustion under the `Degrade` policy).
    pub truncated: u64,
    /// Total answers received.
    pub answers: u64,
    /// Backoff-and-retry cycles performed (0 without a [`RetryPolicy`]).
    pub retries: u64,
    /// Latency percentiles over completed requests.
    pub p50: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// 99.9th percentile.
    pub p999: Duration,
    /// Slowest completed request.
    pub max: Duration,
    /// Wall-clock of the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Completed requests per second over the run's wall-clock.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.elapsed.as_secs_f64()
        }
    }
}

struct WorkerOutcome {
    /// Per-worker latency shard; merged additively into the run's histogram
    /// (the shards-merge property of [`Histogram`]).
    latencies: Histogram,
    report: LoadReport,
}

/// Runs the load described by `spec` against `endpoint`.
///
/// Every worker thread opens its own connection; a connection-level failure
/// reconnects once per request before counting the request as failed.
pub fn run_load(endpoint: &Endpoint, spec: &LoadSpec) -> Result<LoadReport> {
    let connections = spec.connections.max(1);
    let total = spec.requests as u64;
    let next = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(connections);
        for _ in 0..connections {
            let next = Arc::clone(&next);
            handles.push(scope.spawn(move || worker(endpoint, spec, total, next, start)));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outcome) => outcome,
                Err(_) => WorkerOutcome {
                    latencies: Histogram::new(),
                    report: LoadReport::default(),
                },
            })
            .collect()
    });

    let latencies = Histogram::new();
    let mut report = LoadReport::default();
    for outcome in outcomes {
        latencies.merge_from(&outcome.latencies);
        report.issued += outcome.report.issued;
        report.completed += outcome.report.completed;
        report.drained += outcome.report.drained;
        report.overloaded += outcome.report.overloaded;
        report.failed += outcome.report.failed;
        report.degraded += outcome.report.degraded;
        report.truncated += outcome.report.truncated;
        report.answers += outcome.report.answers;
        report.retries += outcome.report.retries;
    }
    let snapshot = latencies.snapshot();
    report.p50 = Duration::from_nanos(snapshot.p50());
    report.p99 = Duration::from_nanos(snapshot.p99());
    report.p999 = Duration::from_nanos(snapshot.p999());
    report.max = Duration::from_nanos(snapshot.max());
    report.elapsed = start.elapsed();
    Ok(report)
}

fn worker(
    endpoint: &Endpoint,
    spec: &LoadSpec,
    total: u64,
    next: Arc<AtomicU64>,
    start: Instant,
) -> WorkerOutcome {
    let mut conn = endpoint.connect().ok();
    let mut out = WorkerOutcome {
        latencies: Histogram::new(),
        report: LoadReport::default(),
    };
    loop {
        let seq = next.fetch_add(1, Ordering::SeqCst);
        if seq >= total {
            break;
        }
        // Under the open-loop discipline request `seq` arrives at a fixed
        // point on the schedule; the latency clock starts there even if the
        // worker (or server) is running behind.
        let arrival = match spec.mode {
            LoadMode::Closed => Instant::now(),
            LoadMode::Open(rate) => {
                let at = start + Duration::from_secs_f64(seq as f64 / rate.max(1e-9));
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                at
            }
        };
        out.report.issued += 1;
        // Per-request jitter stream: fold the request sequence number into
        // the policy seed so concurrent workers decorrelate.
        let retry = spec.retry.map(|p| p.with_seed(p.seed ^ seq));
        let mut attempt = 0u32;
        let success = loop {
            if conn.is_none() {
                conn = endpoint.connect().ok();
            }
            let err = match conn.as_mut() {
                Some(active) => match active.run(&spec.query, &spec.options) {
                    Ok(ok) => break Some(ok),
                    Err(err) => {
                        if !matches!(err, ClientError::Remote(_)) {
                            // Transport/protocol failures poison the
                            // connection; typed failures leave it usable.
                            conn = None;
                        }
                        err
                    }
                },
                None => ClientError::Protocol(ProtocolError::Io("connect failed".into())),
            };
            match retry.and_then(|p| p.backoff(&err, attempt)) {
                Some(backoff) => {
                    out.report.retries += 1;
                    if backoff.reconnect {
                        conn = None;
                    }
                    std::thread::sleep(backoff.delay);
                    attempt += 1;
                }
                None => {
                    match err {
                        ClientError::Remote(WireError::Engine(OmegaError::Overloaded {
                            ..
                        })) => out.report.overloaded += 1,
                        _ => out.report.failed += 1,
                    }
                    break None;
                }
            }
        };
        if let Some((answers, stats)) = success {
            out.report.completed += 1;
            out.report.answers += answers.len() as u64;
            if stats.degraded {
                out.report.degraded += 1;
            }
            if stats.truncation.is_some() {
                out.report.truncated += 1;
            }
            // Retried requests are charged from their scheduled arrival, so
            // backoff time counts against latency — no coordinated omission.
            out.latencies.observe(arrival.elapsed());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_track_exact_ranks_within_bucket_error() {
        // The load generator's percentiles come from the shared log-scale
        // histogram; against an exact sort-based rank they may only be off
        // by one bucket width (≤ 1/8 relative).
        let hist = Histogram::new();
        for us in 1..=1000u64 {
            hist.observe(Duration::from_micros(us));
        }
        let snapshot = hist.snapshot();
        for (got, exact_us) in [
            (snapshot.p50(), 500u64),
            (snapshot.p99(), 990),
            (snapshot.p999(), 999),
        ] {
            let exact = exact_us * 1_000;
            assert!(
                got >= exact && got <= exact + exact / 8 + 1,
                "histogram gave {got}ns for exact {exact}ns"
            );
        }
        assert_eq!(Histogram::new().snapshot().p50(), 0, "empty is zero");
    }

    #[test]
    fn throughput_is_completed_over_elapsed() {
        let report = LoadReport {
            completed: 100,
            elapsed: Duration::from_secs(2),
            ..LoadReport::default()
        };
        assert!((report.throughput() - 50.0).abs() < 1e-9);
    }
}
