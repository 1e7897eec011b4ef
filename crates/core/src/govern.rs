//! Engine-wide resource governance: shared pools, admission control and
//! gauges.
//!
//! Per-query budgets (`max_tuples`, deadlines) bound a *single* execution,
//! but a database handle is shared by arbitrarily many concurrent sessions —
//! nothing stopped fifty well-behaved queries from collectively holding
//! fifty budgets' worth of live tuples. The [`ResourceGovernor`] closes that
//! gap: one instance is owned by every clone of a
//! [`crate::Database`] and accounts, *globally*:
//!
//! * **live tuples** — evaluators reserve their queue + visited-set
//!   occupancy from a shared pool in chunks, with bounded-backoff
//!   acquisition; an exhausted pool trips the same
//!   [`crate::OmegaError::ResourceExhausted`] path as a per-query budget
//!   (and therefore degrades gracefully under
//!   [`crate::service::OverloadPolicy::Degrade`]),
//! * **rank-join buffer entries** — the service layer mirrors each
//!   execution's buffered join state into a gauge,
//! * **concurrent executions** — a token-bucket admission gate hands out
//!   one [`ExecutionPermit`] per execution and rejects new work with
//!   [`crate::OmegaError::Overloaded`] (carrying a `retry_after` hint) when
//!   the concurrency ceiling is reached or the bucket is dry.
//!
//! All accounting is RAII: permits and reservations release on drop, so the
//! gauges return to zero when the last answer stream of an execution is
//! dropped — even when it failed, was cancelled, or panicked. The default
//! configuration is fully open (no limits), so a database built without
//! explicit governance behaves exactly as before.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use omega_obs::{Counter, Registry};

use crate::error::{OmegaError, Result};

/// Tuples acquired from the shared pool per reservation round-trip.
/// Chunking keeps the atomic pool counter off the per-tuple hot path: an
/// evaluator touches the pool once per `RESERVE_CHUNK` tuples of growth.
pub(crate) const RESERVE_CHUNK: usize = 1024;

/// How long one failed pool acquisition backs off before re-probing.
const ACQUIRE_POLL: Duration = Duration::from_micros(200);

/// Limits and admission parameters of a [`ResourceGovernor`].
///
/// Every field defaults to "unlimited", so `GovernorConfig::default()`
/// governs nothing — construction via [`crate::Database::new`] is
/// behaviour-preserving.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorConfig {
    /// Total live tuples (queues + visited sets) across all concurrent
    /// executions. `None` = unlimited.
    pub max_live_tuples: Option<usize>,
    /// Maximum concurrently admitted executions. `None` = unlimited.
    pub max_concurrent: Option<usize>,
    /// Admission token bucket: `(rate per second, burst capacity)`. Each
    /// admission consumes one token; tokens refill continuously at `rate`
    /// up to `burst`. `None` = no rate limit.
    pub admission_rate: Option<(f64, usize)>,
    /// Backoff hint returned inside [`OmegaError::Overloaded`] rejections.
    pub retry_after: Duration,
    /// Upper bound on how long one pool reservation may back off before
    /// giving up with `ResourceExhausted`. Keeps a saturated pool from
    /// turning into an unbounded stall.
    pub acquire_timeout: Duration,
}

impl Default for GovernorConfig {
    fn default() -> GovernorConfig {
        GovernorConfig {
            max_live_tuples: None,
            max_concurrent: None,
            admission_rate: None,
            retry_after: Duration::from_millis(25),
            acquire_timeout: Duration::from_millis(50),
        }
    }
}

impl GovernorConfig {
    /// Caps the shared live-tuple pool.
    pub fn with_max_live_tuples(mut self, max: usize) -> Self {
        self.max_live_tuples = Some(max);
        self
    }

    /// Caps concurrently admitted executions.
    pub fn with_max_concurrent(mut self, max: usize) -> Self {
        self.max_concurrent = Some(max);
        self
    }

    /// Installs an admission token bucket (`rate` tokens/second, `burst`
    /// capacity).
    pub fn with_admission_rate(mut self, rate: f64, burst: usize) -> Self {
        self.admission_rate = Some((rate, burst));
        self
    }

    /// Sets the backoff hint carried by overload rejections.
    pub fn with_retry_after(mut self, retry_after: Duration) -> Self {
        self.retry_after = retry_after;
        self
    }

    /// Bounds pool-acquisition backoff.
    pub fn with_acquire_timeout(mut self, timeout: Duration) -> Self {
        self.acquire_timeout = timeout;
        self
    }
}

/// Continuous-refill token bucket for admission pacing.
#[derive(Debug)]
struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    fn new(rate: f64, burst: usize) -> TokenBucket {
        TokenBucket {
            rate: rate.max(0.0),
            burst: burst.max(1) as f64,
            tokens: burst.max(1) as f64,
            last_refill: Instant::now(),
        }
    }

    /// Takes one token if available; otherwise reports how long until one
    /// refills.
    fn try_take(&mut self, now: Instant) -> std::result::Result<(), Duration> {
        let elapsed = now.saturating_duration_since(self.last_refill);
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate).min(self.burst);
        self.last_refill = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else if self.rate > 0.0 {
            Err(Duration::from_secs_f64((1.0 - self.tokens) / self.rate))
        } else {
            Err(Duration::MAX)
        }
    }
}

/// Point-in-time snapshot of the governor's gauges, for tests and the bench
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovernorGauges {
    /// Tuples currently reserved from the shared pool (chunk granularity).
    pub live_tuples: usize,
    /// Rank-join buffer entries currently held by live executions.
    pub join_buffer_entries: usize,
    /// Executions currently admitted (permits outstanding).
    pub executions: usize,
    /// Executions rejected with `Overloaded` since construction (read from
    /// the `omega_govern_rejected_total` counter).
    pub rejected: u64,
}

/// Registry handles for the governor's admission counters
/// (`omega_govern_{admitted,rejected,sheds,retries}_total`).
#[derive(Debug)]
struct GovernorMetrics {
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    sheds: Arc<Counter>,
    retries: Arc<Counter>,
}

/// The engine-wide accountant. One per [`crate::Database`] family: clones
/// and [`crate::Database::reconfigured`] views share it, so *every* session
/// against the same storage draws from the same pools.
#[derive(Debug)]
pub struct ResourceGovernor {
    config: GovernorConfig,
    live_tuples: AtomicUsize,
    join_buffer_entries: AtomicUsize,
    executions: AtomicUsize,
    bucket: Option<Mutex<TokenBucket>>,
    metrics: GovernorMetrics,
}

impl ResourceGovernor {
    /// Builds a governor from `config`, counting its admissions, rejections,
    /// sheds and retries in `registry`.
    pub fn new(config: GovernorConfig, registry: &Registry) -> Arc<ResourceGovernor> {
        let bucket = config
            .admission_rate
            .map(|(rate, burst)| Mutex::new(TokenBucket::new(rate, burst)));
        Arc::new(ResourceGovernor {
            config,
            live_tuples: AtomicUsize::new(0),
            join_buffer_entries: AtomicUsize::new(0),
            executions: AtomicUsize::new(0),
            bucket,
            metrics: GovernorMetrics {
                admitted: registry.counter("omega_govern_admitted_total", &[]),
                rejected: registry.counter("omega_govern_rejected_total", &[]),
                sheds: registry.counter("omega_govern_sheds_total", &[]),
                retries: registry.counter("omega_govern_retries_total", &[]),
            },
        })
    }

    /// Records one shed (load rejected after admission, query-level) and, if
    /// the service retried it, the retry.
    pub(crate) fn note_shed(&self, retried: bool) {
        self.metrics.sheds.inc();
        if retried {
            self.metrics.retries.inc();
        }
    }

    /// The configuration this governor enforces.
    pub fn config(&self) -> &GovernorConfig {
        &self.config
    }

    /// Current gauge values.
    pub fn gauges(&self) -> GovernorGauges {
        GovernorGauges {
            live_tuples: self.live_tuples.load(Ordering::SeqCst),
            join_buffer_entries: self.join_buffer_entries.load(Ordering::SeqCst),
            executions: self.executions.load(Ordering::SeqCst),
            rejected: self.metrics.rejected.get(),
        }
    }

    /// Admits one execution, or rejects it with
    /// [`OmegaError::Overloaded`] when the concurrency ceiling is reached,
    /// the admission bucket is dry, or the tuple pool is already saturated.
    pub fn admit(self: &Arc<Self>) -> Result<ExecutionPermit> {
        // Token bucket first: a dry bucket rejects regardless of how many
        // slots are free (it paces the *rate* of new work).
        if let Some(bucket) = &self.bucket {
            let mut bucket = bucket.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(wait) = bucket.try_take(Instant::now()) {
                drop(bucket);
                return Err(self.reject(wait));
            }
        }
        // A pool already at capacity cannot feed another evaluator: reject
        // at admission instead of letting the execution start and
        // immediately exhaust.
        if let Some(max) = self.config.max_live_tuples {
            if self.live_tuples.load(Ordering::SeqCst) >= max {
                return Err(self.reject(self.config.retry_after));
            }
        }
        if let Some(max) = self.config.max_concurrent {
            // Optimistic CAS loop so the gauge never overshoots the ceiling.
            let mut current = self.executions.load(Ordering::SeqCst);
            loop {
                if current >= max {
                    return Err(self.reject(self.config.retry_after));
                }
                match self.executions.compare_exchange(
                    current,
                    current + 1,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => break,
                    Err(seen) => current = seen,
                }
            }
        } else {
            self.executions.fetch_add(1, Ordering::SeqCst);
        }
        self.metrics.admitted.inc();
        Ok(ExecutionPermit {
            governor: Arc::clone(self),
        })
    }

    fn reject(&self, wait: Duration) -> OmegaError {
        self.metrics.rejected.inc();
        OmegaError::Overloaded {
            retry_after: wait
                .max(self.config.retry_after)
                .min(Duration::from_secs(5)),
        }
    }

    /// Attempts to move `amount` tuples from the shared pool into a
    /// reservation, backing off (bounded by `acquire_timeout`) while the
    /// pool is full. `false` means the pool stayed saturated for the whole
    /// backoff window.
    fn acquire_tuples(&self, amount: usize) -> bool {
        let Some(max) = self.config.max_live_tuples else {
            // Unlimited: account the gauge, never refuse.
            self.live_tuples.fetch_add(amount, Ordering::SeqCst);
            return true;
        };
        // A wait too long for the clock to represent is unbounded.
        let deadline = Instant::now().checked_add(self.config.acquire_timeout);
        loop {
            let mut current = self.live_tuples.load(Ordering::SeqCst);
            loop {
                if current.saturating_add(amount) > max {
                    break;
                }
                match self.live_tuples.compare_exchange(
                    current,
                    current + amount,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => return true,
                    Err(seen) => current = seen,
                }
            }
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                return false;
            }
            std::thread::sleep(ACQUIRE_POLL);
        }
    }

    fn release_tuples(&self, amount: usize) {
        self.live_tuples.fetch_sub(amount, Ordering::SeqCst);
    }

    /// Opens a fresh per-evaluator tuple reservation against this governor.
    pub(crate) fn reservation(self: &Arc<Self>) -> TupleReservation {
        TupleReservation {
            governor: Arc::clone(self),
            held: 0,
        }
    }

    /// Adjusts the rank-join buffer gauge by a signed delta.
    pub(crate) fn adjust_join_buffer(&self, delta: isize) {
        if delta >= 0 {
            self.join_buffer_entries
                .fetch_add(delta as usize, Ordering::SeqCst);
        } else {
            self.join_buffer_entries
                .fetch_sub(delta.unsigned_abs(), Ordering::SeqCst);
        }
    }
}

/// RAII admission permit: one concurrent-execution slot, returned on drop.
#[derive(Debug)]
pub struct ExecutionPermit {
    governor: Arc<ResourceGovernor>,
}

impl Drop for ExecutionPermit {
    fn drop(&mut self) {
        self.governor.executions.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One evaluator's chunked claim on the shared tuple pool.
///
/// The evaluator tracks its exact live-tuple count locally and calls
/// [`TupleReservation::covers`] on the budget-check cadence; the reservation
/// grows in [`RESERVE_CHUNK`] steps (each step one bounded-backoff pool
/// acquisition) and releases everything on drop — including when the
/// evaluator is abandoned mid-query by a cancellation, error or panic.
#[derive(Debug)]
pub(crate) struct TupleReservation {
    governor: Arc<ResourceGovernor>,
    held: usize,
}

impl TupleReservation {
    /// Grows the reservation until it covers `live` tuples. `false` means
    /// the shared pool could not satisfy the claim within its backoff
    /// window — the caller should treat this exactly like a tripped
    /// per-query budget.
    pub(crate) fn covers(&mut self, live: usize) -> bool {
        while self.held < live {
            let want = RESERVE_CHUNK.max(live - self.held);
            if !self.governor.acquire_tuples(want) {
                return false;
            }
            self.held += want;
        }
        true
    }
}

impl Drop for TupleReservation {
    fn drop(&mut self) {
        if self.held > 0 {
            self.governor.release_tuples(self.held);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor(config: GovernorConfig) -> Arc<ResourceGovernor> {
        ResourceGovernor::new(config, &Registry::new())
    }

    #[test]
    fn unlimited_governor_admits_everything() {
        let gov = governor(GovernorConfig::default());
        let permits: Vec<_> = (0..64).map(|_| gov.admit().unwrap()).collect();
        assert_eq!(gov.gauges().executions, 64);
        drop(permits);
        assert_eq!(gov.gauges().executions, 0);
        assert_eq!(gov.gauges().rejected, 0);
    }

    #[test]
    fn concurrency_ceiling_rejects_with_retry_hint() {
        let gov = governor(
            GovernorConfig::default()
                .with_max_concurrent(2)
                .with_retry_after(Duration::from_millis(7)),
        );
        let a = gov.admit().unwrap();
        let _b = gov.admit().unwrap();
        let err = gov.admit().unwrap_err();
        match err {
            OmegaError::Overloaded { retry_after } => {
                assert!(retry_after >= Duration::from_millis(7));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(gov.gauges().rejected, 1);
        // Releasing a permit reopens the gate.
        drop(a);
        let _c = gov.admit().unwrap();
    }

    #[test]
    fn token_bucket_paces_admissions() {
        // Burst 2, refill effectively never (rate ~0): two admissions pass,
        // the third is rejected even though concurrency is unlimited.
        let gov = governor(GovernorConfig::default().with_admission_rate(0.0001, 2));
        let _a = gov.admit().unwrap();
        let _b = gov.admit().unwrap();
        assert!(matches!(gov.admit(), Err(OmegaError::Overloaded { .. })));
    }

    #[test]
    fn tuple_pool_reserves_in_chunks_and_releases_on_drop() {
        let gov = governor(
            GovernorConfig::default()
                .with_max_live_tuples(3 * RESERVE_CHUNK)
                .with_acquire_timeout(Duration::from_millis(1)),
        );
        let mut r1 = gov.reservation();
        assert!(r1.covers(10), "tiny claim takes one chunk");
        assert_eq!(gov.gauges().live_tuples, RESERVE_CHUNK);
        assert!(r1.covers(RESERVE_CHUNK), "already covered: no growth");
        assert_eq!(gov.gauges().live_tuples, RESERVE_CHUNK);

        let mut r2 = gov.reservation();
        assert!(r2.covers(2 * RESERVE_CHUNK), "pool has room for two more");
        assert_eq!(gov.gauges().live_tuples, 3 * RESERVE_CHUNK);

        // The pool is now exactly full: any further growth fails after the
        // bounded backoff…
        assert!(!r1.covers(RESERVE_CHUNK + 1));
        // …and dropping a reservation returns its whole claim.
        drop(r2);
        assert_eq!(gov.gauges().live_tuples, RESERVE_CHUNK);
        assert!(r1.covers(RESERVE_CHUNK + 1), "freed capacity is reusable");
        drop(r1);
        assert_eq!(gov.gauges().live_tuples, 0);
    }

    #[test]
    fn saturated_pool_rejects_at_admission() {
        let gov = governor(
            GovernorConfig::default()
                .with_max_live_tuples(RESERVE_CHUNK)
                .with_acquire_timeout(Duration::from_millis(1)),
        );
        let mut r = gov.reservation();
        assert!(r.covers(1));
        assert!(matches!(gov.admit(), Err(OmegaError::Overloaded { .. })));
        drop(r);
        assert!(gov.admit().is_ok());
    }

    #[test]
    fn join_buffer_gauge_tracks_deltas() {
        let gov = governor(GovernorConfig::default());
        gov.adjust_join_buffer(5);
        gov.adjust_join_buffer(3);
        assert_eq!(gov.gauges().join_buffer_entries, 8);
        gov.adjust_join_buffer(-8);
        assert_eq!(gov.gauges().join_buffer_entries, 0);
    }
}
