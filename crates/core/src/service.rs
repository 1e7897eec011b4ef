//! The service-oriented query API: [`Database`], [`PreparedQuery`],
//! [`ExecOptions`] and [`Answers`].
//!
//! The paper frames Omega as an interactive service answering flexible
//! queries incrementally; this module is the concurrency-ready surface for
//! that framing:
//!
//! * [`Database`] — a cheaply clonable, `Send + Sync` handle over the frozen
//!   graph and ontology. Clone it into as many threads as you like; every
//!   clone shares the same CSR arrays and the same prepared-statement cache.
//! * [`PreparedQuery`] — a query parsed, validated and compiled once
//!   (position NFA, APPROX/RELAX augmentation, conjunct plans)
//!   and executable any number of times, from any thread, without
//!   recompilation. [`Database::prepare`] keeps an LRU cache of prepared
//!   queries keyed by query text.
//! * [`ExecOptions`] — per-request execution control: answer limit,
//!   wall-clock deadline, distance ceiling, tuple budget, overload policy
//!   and profiling. Requests never mutate engine state, so
//!   concurrent requests with different options are safe by construction.
//! * [`Answers`] — a streaming `Iterator<Item = Result<Answer>>` over the
//!   ranked answer sequence, carrying [`EvalStats`](crate::EvalStats) and enforcing the
//!   request's limit, deadline and distance ceiling.
//!
//! ## Live mutation and epochs
//!
//! The graph is frozen on construction, but not sealed: the database serves
//! a sequence of immutable storage *epochs*. [`Database::begin_mutation`]
//! collects edge additions/removals into a [`MutationBatch`];
//! [`Database::apply`] publishes the whole batch atomically as a new epoch
//! that layers the changes as a delta overlay over the *shared* base CSR —
//! the frozen arrays are never dropped or rebuilt on the write path.
//! Consistency is by pinning, not locking:
//!
//! * [`Database::graph`] returns a [`GraphRef`] pinning the current epoch;
//! * a [`PreparedQuery`] pins the epoch it was compiled against, so its
//!   executions — including [`Answers`] streams already in flight when a
//!   mutation lands — read one consistent graph and return bit-identical
//!   answers and statistics regardless of concurrent writes;
//! * the prepared-statement cache tags entries with their epoch: a stale
//!   entry is recompiled (fresh label statistics, seed estimates and accept
//!   bounds), never silently reused. Concurrent misses on the same text
//!   compile once; the other callers wait for the result.
//!
//! [`Database::compact`] folds the accumulated overlay into a fresh frozen
//! CSR off the read path and publishes it as the next epoch — readers are
//! never blocked, and answer semantics are unchanged. Run it periodically
//! under sustained writes to keep per-read overlay checks cheap.
//!
//! ## Snapshot persistence
//!
//! Within an epoch the graph is immutable, so build it once:
//! [`Database::save_snapshot`] compacts any live overlay, then serialises
//! the frozen CSR graph, the string dictionaries and the ontology (with its
//! closure tables) into a single versioned, checksummed image, and
//! [`Database::open_snapshot`] / [`Database::open_snapshot_with`]
//! memory-map it back with zero-copy array views — answers, order and
//! statistics are bit-identical to a rebuilt database, while open time is
//! page-cache warm-up instead of a re-ingest. Corrupt images fail with a
//! typed [`SnapshotError`].
//!
//! ## Example
//!
//! ```
//! use omega_core::{Database, ExecOptions};
//! use omega_graph::GraphStore;
//! use omega_ontology::Ontology;
//!
//! let mut graph = GraphStore::new();
//! graph.add_triple("alice", "knows", "bob");
//! graph.add_triple("bob", "knows", "carol");
//! let db = Database::new(graph, Ontology::new());
//!
//! // One-shot execution…
//! let answers = db
//!     .execute("(?X) <- (alice, knows+, ?X)", &ExecOptions::new())
//!     .unwrap();
//! assert_eq!(answers.len(), 2);
//!
//! // …or prepare once and stream, with per-request control.
//! let prepared = db.prepare("(?X) <- (alice, knows+, ?X)").unwrap();
//! let request = ExecOptions::new().with_limit(1);
//! let first: Vec<_> = prepared.answers(&request).collect();
//! assert_eq!(first.len(), 1);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use omega_graph::snapshot::{SnapshotReader, SnapshotWriter};
use omega_graph::wal::{Wal, WalConfig, WalFailure, CHECKPOINT_FILE};
use omega_graph::{GraphDelta, GraphStore, SnapshotError};
use omega_obs::{
    Counter as MetricCounter, Gauge as MetricGauge, Histogram as MetricHistogram, Registry,
};
use omega_ontology::Ontology;

use crate::answer::Answer;
use crate::error::{OmegaError, Result};
use crate::eval::fault::{fire as fault_fire, FaultPoint};
use crate::eval::plan::{compile_conjunct, ConjunctPlan, SeedSpec};
use crate::eval::EvalOptions;
use crate::govern::{GovernorConfig, ResourceGovernor};
use crate::query::ast::{Query, Term};
use crate::query::parser::parse_query;

pub use crate::eval::options::{ExecOptions, OverloadPolicy};
pub use crate::exec::{Answers, InputRole};

/// Default capacity of the per-database prepared-statement LRU cache.
const PREPARED_CACHE_CAPACITY: usize = 128;

/// Nanoseconds elapsed since `started`, saturated into a `u64` (580 years —
/// only profile arithmetic, never control flow, consumes these).
pub(crate) fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One *epoch* of the storage a database serves queries against: an
/// immutable graph view (frozen CSR, possibly layered with a delta overlay)
/// plus the shared ontology, tagged with the epoch counter it belongs to.
///
/// A `GraphData` is never mutated after construction. Mutations
/// ([`Database::apply`]) and compactions ([`Database::compact`]) build a
/// *new* `GraphData` with a bumped epoch and swap it in as the current one;
/// every in-flight execution, prepared statement and [`GraphRef`] keeps its
/// own `Arc` to the epoch it started on, so concurrent readers observe one
/// consistent graph for their whole lifetime.
pub(crate) struct GraphData {
    pub(crate) graph: GraphStore,
    pub(crate) ontology: Arc<Ontology>,
    pub(crate) epoch: u64,
}

/// The mutable slot holding the current storage epoch, shared by every
/// clone and reconfigured view of one [`Database`].
struct StorageSlot {
    /// The epoch currently served to new readers. Readers take the lock
    /// only long enough to clone the `Arc`; the graph behind it is
    /// immutable.
    current: RwLock<Arc<GraphData>>,
    /// Serialises writers ([`Database::apply`], [`Database::compact`],
    /// [`Database::save_snapshot`]). Held across the whole
    /// read-derive-publish cycle so concurrent writers cannot lose each
    /// other's updates; readers are never blocked by it.
    write_lock: Mutex<()>,
    /// Write-ahead log attached by the durable constructors; `None` runs
    /// the storage fully in-memory (the pre-durability behaviour). Lives in
    /// the slot — not the handle — so every clone and reconfigured view of
    /// one database logs through the same file.
    wal: Mutex<Option<Wal>>,
    /// Set when a WAL append fails: the storage stops accepting writes
    /// instead of lying about durability. Reads continue unaffected.
    read_only: AtomicBool,
}

impl StorageSlot {
    fn load(&self) -> Arc<GraphData> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    fn store(&self, next: Arc<GraphData>) {
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = next;
    }
}

/// Registry handles for the engine's own counters and the execution-latency
/// histogram. One per [`Database`] family (clones and reconfigured views
/// share it), resolved once at construction so the hot path records through
/// pre-fetched `Arc`s without ever touching the registry lock.
pub(crate) struct CoreMetrics {
    registry: Arc<Registry>,
    prepares: Arc<MetricCounter>,
    prepare_cache_hits: Arc<MetricCounter>,
    pub(crate) executions: Arc<MetricCounter>,
    pub(crate) degrades: Arc<MetricCounter>,
    mutations: Arc<MetricCounter>,
    compactions: Arc<MetricCounter>,
    pub(crate) exec_ns: Arc<MetricHistogram>,
    wal_appends: Arc<MetricCounter>,
    wal_bytes: Arc<MetricCounter>,
    wal_append_failures: Arc<MetricCounter>,
    wal_rotations: Arc<MetricCounter>,
    wal_recovered_records: Arc<MetricCounter>,
    wal_truncated_bytes: Arc<MetricCounter>,
    wal_sync_ns: Arc<MetricHistogram>,
    read_only: Arc<MetricGauge>,
    /// Sequence number of the last WAL record appended (0 when none).
    /// Written under the WAL lock; like every gauge it is a relaxed store,
    /// which is enough because the value publishes no other data.
    wal_seq: Arc<MetricGauge>,
    /// Highest epoch known to be on stable storage (0 without a WAL), set
    /// under the same lock.
    durable_epoch: Arc<MetricGauge>,
    // Storage health: what the write path costs and what it has piled up.
    apply_ns: Arc<MetricHistogram>,
    compact_ns: Arc<MetricHistogram>,
    overlay_edges: Arc<MetricGauge>,
    epoch: Arc<MetricGauge>,
    wal_bytes_since_checkpoint: Arc<MetricGauge>,
}

impl CoreMetrics {
    fn new(registry: Arc<Registry>) -> Arc<CoreMetrics> {
        Arc::new(CoreMetrics {
            prepares: registry.counter("omega_core_prepares_total", &[]),
            prepare_cache_hits: registry.counter("omega_core_prepare_cache_hits_total", &[]),
            executions: registry.counter("omega_core_executions_total", &[]),
            degrades: registry.counter("omega_core_degraded_total", &[]),
            mutations: registry.counter("omega_core_mutations_total", &[]),
            compactions: registry.counter("omega_core_compactions_total", &[]),
            exec_ns: registry.histogram("omega_core_execution_ns", &[]),
            wal_appends: registry.counter("omega_core_wal_appends_total", &[]),
            wal_bytes: registry.counter("omega_core_wal_bytes_total", &[]),
            wal_append_failures: registry.counter("omega_core_wal_append_failures_total", &[]),
            wal_rotations: registry.counter("omega_core_wal_rotations_total", &[]),
            wal_recovered_records: registry.counter("omega_core_wal_recovered_records_total", &[]),
            wal_truncated_bytes: registry.counter("omega_core_wal_truncated_bytes_total", &[]),
            wal_sync_ns: registry.histogram("omega_core_wal_sync_ns", &[]),
            read_only: registry.gauge("omega_core_read_only", &[]),
            wal_seq: registry.gauge("omega_core_wal_seq", &[]),
            durable_epoch: registry.gauge("omega_core_durable_epoch", &[]),
            apply_ns: registry.histogram("omega_core_apply_ns", &[]),
            compact_ns: registry.histogram("omega_core_compact_ns", &[]),
            overlay_edges: registry.gauge("omega_core_overlay_edges", &[]),
            epoch: registry.gauge("omega_core_epoch", &[]),
            wal_bytes_since_checkpoint: registry
                .gauge("omega_core_wal_bytes_since_checkpoint", &[]),
            registry,
        })
    }
}

struct DbInner {
    storage: Arc<StorageSlot>,
    /// The ontology, shared across every epoch (mutations touch edges, not
    /// the class/property hierarchies).
    ontology: Arc<Ontology>,
    options: EvalOptions,
    cache: Mutex<PreparedCache>,
    /// Signalled whenever a prepare finishes (or fails) compiling a cache
    /// entry, waking threads parked on its in-flight marker.
    cache_ready: Condvar,
    /// Number of plan compilations performed by [`Database::prepare`] cache
    /// misses (stampeded or stale entries each count once).
    compilations: AtomicU64,
    /// The database-wide resource governor: every execution against this
    /// storage — from any clone or reconfigured view — is admitted by it and
    /// draws its live tuples from its shared pool.
    govern: Arc<ResourceGovernor>,
    /// The metrics registry and the engine's pre-registered handles into it.
    metrics: Arc<CoreMetrics>,
}

/// A shared, thread-safe handle over one graph + ontology.
///
/// Cloning is an `Arc` bump: hand clones to other threads and serve queries
/// from all of them concurrently. The graph is frozen into its CSR
/// representation on construction and never mutated afterwards.
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl Database {
    /// Creates a database with default [`EvalOptions`].
    pub fn new(graph: GraphStore, ontology: Ontology) -> Database {
        Database::with_options(graph, ontology, EvalOptions::default())
    }

    /// Creates a database whose prepared plans compile from `options`.
    ///
    /// The [`EvalOptions`] fix the query *semantics* (edit/relaxation
    /// costs, inference) and the evaluation refinements for the database's
    /// whole life; the limits of each execution come from its
    /// [`ExecOptions`] alone.
    pub fn with_options(graph: GraphStore, ontology: Ontology, options: EvalOptions) -> Database {
        Database::with_governor(graph, ontology, options, GovernorConfig::default())
    }

    /// Creates a database whose executions are admitted and budgeted by a
    /// [`ResourceGovernor`] built from `config`.
    ///
    /// The governor is database-wide: concurrent executions from any clone
    /// of this handle (or any [`Database::reconfigured`] view) share one
    /// live-tuple pool, one admission gate and one concurrency ceiling.
    pub fn with_governor(
        mut graph: GraphStore,
        ontology: Ontology,
        options: EvalOptions,
        config: GovernorConfig,
    ) -> Database {
        graph.freeze();
        let ontology = Arc::new(ontology);
        let registry = Arc::new(Registry::new());
        let govern = ResourceGovernor::new(config, &registry);
        Database {
            inner: Arc::new(DbInner {
                storage: Arc::new(StorageSlot {
                    current: RwLock::new(Arc::new(GraphData {
                        graph,
                        ontology: Arc::clone(&ontology),
                        epoch: 0,
                    })),
                    write_lock: Mutex::new(()),
                    wal: Mutex::new(None),
                    read_only: AtomicBool::new(false),
                }),
                ontology,
                options,
                cache: Mutex::new(PreparedCache::new(PREPARED_CACHE_CAPACITY)),
                cache_ready: Condvar::new(),
                compilations: AtomicU64::new(0),
                govern,
                metrics: CoreMetrics::new(registry),
            }),
        }
    }

    /// A new handle over the *same* graph and ontology with different
    /// [`EvalOptions`] and a fresh prepared-statement cache. The storage is shared,
    /// not copied.
    pub fn reconfigured(&self, options: EvalOptions) -> Database {
        Database {
            inner: Arc::new(DbInner {
                storage: Arc::clone(&self.inner.storage),
                ontology: Arc::clone(&self.inner.ontology),
                options,
                cache: Mutex::new(PreparedCache::new(PREPARED_CACHE_CAPACITY)),
                cache_ready: Condvar::new(),
                compilations: AtomicU64::new(0),
                govern: Arc::clone(&self.inner.govern),
                metrics: Arc::clone(&self.inner.metrics),
            }),
        }
    }

    /// The metrics registry every subsystem of this database family reports
    /// into: engine counters, execution-latency histogram, governor
    /// admission counters — and whatever a host layer (the `omega-server`
    /// daemon) registers on top. Render it with
    /// [`omega_obs::Registry::expose`].
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.inner.metrics.registry
    }

    /// The database-wide resource governor: inspect its gauges, or hold the
    /// `Arc` to watch saturation from a monitoring thread.
    pub fn governor(&self) -> &Arc<ResourceGovernor> {
        &self.inner.govern
    }

    /// The data graph of the *current* epoch.
    ///
    /// The returned [`GraphRef`] pins that epoch: it stays valid — and keeps
    /// answering identically — however many mutations or compactions land
    /// after the call. Re-call `graph()` to observe them.
    pub fn graph(&self) -> GraphRef {
        GraphRef { data: self.data() }
    }

    /// The ontology (shared across all epochs).
    pub fn ontology(&self) -> &Ontology {
        &self.inner.ontology
    }

    /// The current storage epoch. Starts at 0; every applied mutation batch
    /// and every effective compaction bumps it by one.
    pub fn epoch(&self) -> u64 {
        self.data().epoch
    }

    /// The evaluation options prepared queries compile against.
    pub fn options(&self) -> &EvalOptions {
        &self.inner.options
    }

    /// The current storage epoch (graph + ontology), pinned.
    pub(crate) fn data(&self) -> Arc<GraphData> {
        self.inner.storage.load()
    }

    /// Makes `next` the epoch new readers see (one pointer store; the
    /// caller is the only writer) and points the storage gauges at it.
    fn publish(&self, next: Arc<GraphData>) {
        let metrics = &self.inner.metrics;
        metrics.epoch.set(next.epoch as i64);
        metrics.overlay_edges.set(next.graph.overlay_edges() as i64);
        self.inner.storage.store(next);
    }

    /// Parses, validates and compiles `text` into a [`PreparedQuery`],
    /// consulting the prepared-statement cache first.
    ///
    /// Cache entries are tagged with the storage epoch they were compiled
    /// against: an entry from an older epoch is recompiled, never silently
    /// reused, because compile-time artefacts (seed estimates, accept lower
    /// bounds, label statistics) may no longer describe the mutated graph.
    /// Concurrent misses on the same text are stampede-proof — exactly one
    /// caller compiles while the others wait for its result.
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery> {
        self.inner.metrics.prepares.inc();
        // Pin the epoch before touching the cache so the compiled plans and
        // the tag always describe the same graph.
        let data = self.data();
        let epoch = data.epoch;
        {
            // The cache critical sections never panic, but a poisoned lock
            // must not take the whole database down with it: recover the
            // guard.
            let mut cache = self.inner.cache.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                match cache.probe(text, epoch) {
                    CacheProbe::Hit(prepared) => {
                        self.inner.metrics.prepare_cache_hits.inc();
                        return Ok(prepared);
                    }
                    CacheProbe::Busy => {
                        // Another thread is compiling this text (for this or
                        // an older epoch): wait for it, then re-probe. A
                        // stale or failed result turns into a miss below.
                        cache = self
                            .inner
                            .cache_ready
                            .wait(cache)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                    CacheProbe::Miss => break,
                }
            }
            cache.begin_build(text.to_owned());
        }
        // Compile outside the lock; the in-flight marker keeps concurrent
        // callers parked instead of duplicating this work.
        self.inner.compilations.fetch_add(1, Ordering::Relaxed);
        let parse_started = Instant::now();
        let result = parse_query(text).and_then(|query| {
            let parse_ns = elapsed_ns(parse_started);
            self.prepare_against(query, &data, parse_ns)
        });
        {
            let mut cache = self.inner.cache.lock().unwrap_or_else(|e| e.into_inner());
            match &result {
                Ok(prepared) => cache.finish_build(text, epoch, prepared.clone()),
                // Errors are not `Clone`, so waiters retry the compilation
                // themselves instead of sharing this failure.
                Err(_) => cache.abort_build(text),
            }
        }
        self.inner.cache_ready.notify_all();
        result
    }

    /// Parses and compiles `text` without touching the cache.
    pub fn prepare_uncached(&self, text: &str) -> Result<PreparedQuery> {
        self.inner.metrics.prepares.inc();
        let parse_started = Instant::now();
        let query = parse_query(text)?;
        let parse_ns = elapsed_ns(parse_started);
        let data = self.data();
        self.prepare_against(query, &data, parse_ns)
    }

    /// Compiles `query` against a pinned storage epoch, recording the time
    /// spent (plus the caller's measured parse time) for query profiles.
    /// The epoch's label statistics and node summary are built first, on
    /// the epoch's first compile only: they are the index's, not the
    /// statement's, so the recorded compile time leaves them out.
    fn prepare_against(
        &self,
        query: Query,
        data: &Arc<GraphData>,
        parse_ns: u64,
    ) -> Result<PreparedQuery> {
        data.graph.label_stats();
        data.graph.summary();
        let compile_started = Instant::now();
        let mut inner = compile_prepared(query, &data.graph, &data.ontology, &self.inner.options)?;
        inner.parse_ns = parse_ns;
        inner.compile_ns = elapsed_ns(compile_started);
        Ok(PreparedQuery {
            data: Arc::clone(data),
            govern: Arc::clone(&self.inner.govern),
            metrics: Arc::clone(&self.inner.metrics),
            inner: Arc::new(inner),
        })
    }

    /// How many plan compilations [`Database::prepare`] has performed on
    /// this handle (i.e. cache misses, including stale-epoch recompiles).
    pub fn prepared_compilations(&self) -> u64 {
        self.inner.compilations.load(Ordering::Relaxed)
    }

    /// Prepares (with caching) and executes `text` under `request`,
    /// collecting the answers.
    pub fn execute(&self, text: &str, request: &ExecOptions) -> Result<Vec<Answer>> {
        self.prepare(text)?.execute(request)
    }

    /// Number of entries currently in the prepared-statement cache.
    pub fn prepared_cache_len(&self) -> usize {
        self.inner
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    // ------------------------------------------------------------------
    // Live mutation
    // ------------------------------------------------------------------

    /// Starts collecting a batch of edge mutations.
    ///
    /// The batch is a plain value — build it up with [`MutationBatch::add`]
    /// / [`MutationBatch::remove`] and hand it to [`Database::apply`], which
    /// publishes the whole batch atomically as one new epoch. Nothing is
    /// visible to queries until `apply` returns.
    pub fn begin_mutation(&self) -> MutationBatch {
        MutationBatch::new()
    }

    /// Applies `batch` to the current graph, publishing a new storage epoch.
    ///
    /// The frozen CSR of the current epoch is **never dropped or rebuilt**,
    /// and nothing of the graph is copied: the new epoch shares the base
    /// arrays, both dictionaries and every untouched part of the overlay
    /// with the old one. Applying costs `O(batch · log nodes)` (the overlay
    /// paths the batch touches) plus `O(labels)` (its counters), and the
    /// first `prepare` afterwards derives the epoch's label statistics in
    /// `O(labels)`. [`Database::compact`] is the `O(graph)` step — one
    /// merging pass over the CSR arrays — and crash recovery is `O(log)`:
    /// the recovered records fold into one overlay that is published once.
    /// In-flight executions and [`PreparedQuery`] handles keep reading the
    /// epoch they pinned; only queries prepared after `apply` returns see
    /// the mutation. Writers are serialised; an empty batch is a no-op that
    /// reports the current epoch without bumping it.
    ///
    /// When a write-ahead log is attached (the durable constructors), the
    /// batch is appended to the log **before** the epoch pointer swap
    /// publishes it — with `FsyncPolicy::Always` a successful return means
    /// the record is on stable storage. If the append fails, the storage
    /// degrades to read-only ([`OmegaError::ReadOnly`]): reads keep being
    /// served, but no write is acknowledged that recovery could not replay.
    pub fn apply(&self, batch: &MutationBatch) -> Result<MutationReport> {
        let _writer = self
            .inner
            .storage
            .write_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let cur = self.data();
        if batch.is_empty() {
            return Ok(MutationReport {
                epoch: cur.epoch,
                added: 0,
                removed: 0,
            });
        }
        if self.inner.storage.read_only.load(Ordering::Acquire) {
            return Err(OmegaError::ReadOnly {
                message: "write-ahead log degraded; repair the log directory and restart".into(),
            });
        }
        if fault_fire(FaultPoint::MutationApply) {
            return Err(OmegaError::MutationFailed {
                message: "injected mutation-apply fault".into(),
            });
        }
        let started = Instant::now();
        let (graph, report) =
            cur.graph
                .with_delta(&batch.delta)
                .map_err(|e| OmegaError::MutationFailed {
                    message: e.to_string(),
                })?;
        let epoch = cur.epoch + 1;
        self.log_batch(batch, epoch)?;
        self.publish(Arc::new(GraphData {
            graph,
            ontology: Arc::clone(&cur.ontology),
            epoch,
        }));
        self.inner.metrics.mutations.inc();
        self.inner.metrics.apply_ns.record(elapsed_ns(started));
        Ok(MutationReport {
            epoch,
            added: report.added,
            removed: report.removed,
        })
    }

    /// Appends `batch` to the write-ahead log (when one is attached) as the
    /// record for `epoch`. Must run before the epoch is published. On
    /// failure the storage flips to read-only and the error names the cause;
    /// the epoch is never published, so the caller observes all-or-nothing.
    fn log_batch(&self, batch: &MutationBatch, epoch: u64) -> Result<()> {
        let mut slot = self
            .inner
            .storage
            .wal
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let Some(wal) = slot.as_mut() else {
            return Ok(());
        };
        if fault_fire(FaultPoint::WalAppend) {
            wal.inject_failure(Some(WalFailure::TornRecord));
        } else if fault_fire(FaultPoint::WalSync) {
            wal.inject_failure(Some(WalFailure::SyncFailure));
        }
        match wal.append(epoch, batch.delta.adds(), batch.delta.removes()) {
            Ok(out) => {
                let metrics = &self.inner.metrics;
                metrics.wal_seq.set(out.seq as i64);
                metrics.wal_appends.inc();
                metrics.wal_bytes.add(out.bytes);
                let logged = wal.record_bytes() as i64;
                metrics.wal_bytes_since_checkpoint.set(logged);
                if out.synced {
                    metrics.wal_sync_ns.record(out.sync_ns);
                    metrics.durable_epoch.set(epoch as i64);
                }
                Ok(())
            }
            Err(err) => {
                self.inner.storage.read_only.store(true, Ordering::Release);
                self.inner.metrics.wal_append_failures.inc();
                self.inner.metrics.read_only.set(1);
                Err(OmegaError::ReadOnly {
                    message: format!("write-ahead log append failed: {err}"),
                })
            }
        }
    }

    /// Merges the accumulated delta overlay back into a fresh frozen CSR,
    /// publishing the result as a new epoch, and returns the epoch serving
    /// afterwards.
    ///
    /// Readers are never blocked: the merge (`O(graph)`, mostly block
    /// copies) builds new arrays beside the ones being read, and the swap
    /// is one pointer store. When the current epoch carries no overlay this
    /// is a no-op (the epoch is not bumped).
    /// Run it periodically — e.g. from a background thread once
    /// [`omega_graph::GraphStore::overlay_edges`] crosses a threshold — to
    /// keep read amplification bounded under sustained writes.
    /// With a write-ahead log attached, an effective compaction also
    /// rotates the log: the compacted state is checkpointed into the WAL
    /// directory and the log emptied, so recovery replays from a short log
    /// instead of the full mutation history (incremental snapshots).
    pub fn compact(&self) -> u64 {
        let guard = self
            .inner
            .storage
            .write_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let next = self.compact_locked(&guard);
        self.rotate_wal_locked(&next, &guard);
        next.epoch
    }

    /// Compaction body; requires the writer lock to be held.
    fn compact_locked(&self, _writer: &MutexGuard<'_, ()>) -> Arc<GraphData> {
        let cur = self.data();
        if !cur.graph.has_overlay() {
            return cur;
        }
        let started = Instant::now();
        let next = Arc::new(GraphData {
            graph: cur.graph.compacted(),
            ontology: Arc::clone(&cur.ontology),
            epoch: cur.epoch + 1,
        });
        self.publish(Arc::clone(&next));
        self.inner.metrics.compactions.inc();
        self.inner.metrics.compact_ns.record(elapsed_ns(started));
        next
    }

    // ------------------------------------------------------------------
    // Snapshot persistence
    // ------------------------------------------------------------------

    /// Serialises the frozen graph and the ontology into a single snapshot
    /// image at `path` (written atomically via a temp file).
    ///
    /// The image holds every CSR offset/neighbour array, the node and
    /// edge-label dictionaries, and the ontology hierarchies with their
    /// closure tables, in the versioned checksummed container documented
    /// in [`omega_graph::snapshot`]. Build once, then have every later
    /// process [`Database::open_snapshot`] the file in milliseconds instead
    /// of re-ingesting and re-freezing the graph.
    ///
    /// A live delta overlay is compacted first (the image format carries
    /// pure CSR arrays only); the writer lock is held across compaction and
    /// serialisation, so the image is a consistent epoch with no mutations
    /// interleaved.
    pub fn save_snapshot<P: AsRef<std::path::Path>>(
        &self,
        path: P,
    ) -> std::result::Result<(), SnapshotError> {
        let guard = self
            .inner
            .storage
            .write_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let data = self.compact_locked(&guard);
        let mut writer = SnapshotWriter::new();
        omega_graph::snapshot::write_graph_sections(&data.graph, &mut writer)?;
        omega_ontology::snapshot::write_ontology_section(&data.ontology, &mut writer)?;
        writer.write_to(path.as_ref())?;
        // The image now holds everything the log held; rotate so the
        // snapshot+log pair stays minimal.
        self.rotate_wal_locked(&data, &guard);
        Ok(())
    }

    /// Checkpoints `data` into the WAL directory and empties the log.
    /// Requires the writer lock (no mutation can interleave) and compacted
    /// data (the image format carries pure CSR arrays only).
    ///
    /// Failures are deliberately *not* surfaced: a skipped rotation leaves
    /// the full log in place, so recovery still replays every acknowledged
    /// record — rotation is a log-length optimisation, never a durability
    /// event. Even the checkpoint-written-but-truncate-failed window is
    /// safe: replaying a log over the checkpoint built from its own records
    /// is a no-op (adds of present edges and removes of absent edges are
    /// both idempotent, and order is preserved).
    fn rotate_wal_locked(&self, data: &GraphData, _writer: &MutexGuard<'_, ()>) {
        let mut slot = self
            .inner
            .storage
            .wal
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let Some(wal) = slot.as_mut() else { return };
        if wal.is_empty() {
            return;
        }
        let mut writer = SnapshotWriter::new();
        let written = omega_graph::snapshot::write_graph_sections(&data.graph, &mut writer)
            .and_then(|()| {
                omega_ontology::snapshot::write_ontology_section(&data.ontology, &mut writer)
            })
            .and_then(|()| writer.write_to(&wal.checkpoint_path()));
        if written.is_ok() && wal.rotate().is_ok() {
            self.inner.metrics.wal_rotations.inc();
            self.inner.metrics.wal_bytes_since_checkpoint.set(0);
        }
    }

    /// Opens a snapshot image with default [`EvalOptions`].
    ///
    /// See [`Database::open_snapshot_with`].
    pub fn open_snapshot<P: AsRef<std::path::Path>>(
        path: P,
    ) -> std::result::Result<Database, SnapshotError> {
        Database::open_snapshot_with(path, EvalOptions::default())
    }

    /// Opens a snapshot image written by [`Database::save_snapshot`],
    /// memory-mapping the CSR arrays in place.
    ///
    /// The database answers queries **bit-identically** to one rebuilt from
    /// the original graph and ontology — same answers, same order, same
    /// [`EvalStats`](crate::EvalStats) — but opening costs page-cache warm-up plus the node
    /// hash-index rebuild rather than a full ingest. The mapping is held
    /// alive by the database's shared inner `Arc`, so clones, prepared
    /// queries and streamed answers all keep it valid; dropping the last
    /// handle unmaps the file.
    ///
    /// Corruption never panics: a wrong magic, an unsupported format
    /// version, a truncated file or a failed section checksum each surface
    /// as the corresponding typed [`SnapshotError`].
    pub fn open_snapshot_with<P: AsRef<std::path::Path>>(
        path: P,
        options: EvalOptions,
    ) -> std::result::Result<Database, SnapshotError> {
        Database::open_snapshot_with_governor(path, options, GovernorConfig::default())
    }

    /// [`Database::open_snapshot_with`] plus an explicit [`GovernorConfig`],
    /// for serving deployments that open an image *and* bound admission.
    pub fn open_snapshot_with_governor<P: AsRef<std::path::Path>>(
        path: P,
        options: EvalOptions,
        config: GovernorConfig,
    ) -> std::result::Result<Database, SnapshotError> {
        if fault_fire(FaultPoint::SnapshotRead) {
            return Err(SnapshotError::Io("injected snapshot read fault".into()));
        }
        let reader = SnapshotReader::open(path.as_ref())?;
        let graph = omega_graph::snapshot::read_graph(&reader)?;
        let ontology = omega_ontology::snapshot::read_ontology_section(&reader)?;
        // `with_governor` freezes the graph, which is a no-op here: it
        // arrives with its (mapped) CSR, and the ontology with its closure
        // tables.
        Ok(Database::with_governor(graph, ontology, options, config))
    }

    // ------------------------------------------------------------------
    // Durability: write-ahead log + crash recovery
    // ------------------------------------------------------------------

    /// [`Database::with_governor`] plus an attached write-ahead log: every
    /// applied batch is logged before it is published, and opening the same
    /// WAL directory after a crash replays every acknowledged mutation.
    ///
    /// When the directory holds a rotation checkpoint (written by
    /// [`Database::compact`] / [`Database::save_snapshot`]), the checkpoint
    /// — not the passed `graph`/`ontology` — is the recovery base: the log
    /// was truncated against it, so replaying over anything else would lose
    /// the pre-checkpoint mutations. A fresh directory uses the passed data.
    pub fn with_governor_durable(
        graph: GraphStore,
        ontology: Ontology,
        options: EvalOptions,
        config: GovernorConfig,
        wal: &WalConfig,
    ) -> Result<(Database, RecoveryReport)> {
        let checkpoint = wal.dir.join(CHECKPOINT_FILE);
        let (db, from_checkpoint) = if checkpoint.exists() {
            let db = Database::open_snapshot_with_governor(&checkpoint, options, config).map_err(
                |e| OmegaError::Internal {
                    message: format!("wal checkpoint unreadable: {e}"),
                },
            )?;
            (db, true)
        } else {
            (
                Database::with_governor(graph, ontology, options, config),
                false,
            )
        };
        let mut report = db.attach_wal(wal)?;
        report.from_checkpoint = from_checkpoint;
        Ok((db, report))
    }

    /// [`Database::open_snapshot_with_governor`] plus an attached
    /// write-ahead log; see [`Database::with_governor_durable`] for the
    /// recovery-base rules (a rotation checkpoint in the WAL directory
    /// supersedes the snapshot at `path`).
    pub fn open_snapshot_durable<P: AsRef<std::path::Path>>(
        path: P,
        options: EvalOptions,
        config: GovernorConfig,
        wal: &WalConfig,
    ) -> Result<(Database, RecoveryReport)> {
        let checkpoint = wal.dir.join(CHECKPOINT_FILE);
        let (base, from_checkpoint) = if checkpoint.exists() {
            (checkpoint.as_path(), true)
        } else {
            (path.as_ref(), false)
        };
        let db = Database::open_snapshot_with_governor(base, options, config).map_err(|e| {
            OmegaError::Internal {
                message: format!("snapshot open failed: {e}"),
            }
        })?;
        let mut report = db.attach_wal(wal)?;
        report.from_checkpoint = from_checkpoint;
        Ok((db, report))
    }

    /// Opens the log under `config`, folds the acknowledged prefix into this
    /// database, then arms the slot so subsequent applies append. Runs
    /// inside the durable constructors, before the handle is shared.
    ///
    /// Recovery is not a client write: every record folds into one overlay
    /// over the current epoch, published once with the epoch advanced by the
    /// record count (so the next append's epoch follows the last record's,
    /// as if each had been applied on its own). It passes no fault-injection
    /// point and counts as recovered records, not as mutations.
    fn attach_wal(&self, config: &WalConfig) -> Result<RecoveryReport> {
        let (wal, recovery) = Wal::open(config).map_err(|e| OmegaError::Internal {
            message: format!("wal open failed: {e}"),
        })?;
        let records = recovery.records.len() as u64;
        if records > 0 {
            let cur = self.data();
            let mut graph = cur.graph.clone();
            for record in recovery.records {
                graph
                    .apply_delta(&record.into_delta())
                    .map_err(|e| OmegaError::Internal {
                        message: format!("wal replay failed: {e}"),
                    })?;
            }
            self.publish(Arc::new(GraphData {
                graph,
                ontology: Arc::clone(&cur.ontology),
                epoch: cur.epoch + records,
            }));
        }
        let metrics = &self.inner.metrics;
        metrics.wal_recovered_records.add(records);
        metrics.wal_truncated_bytes.add(recovery.truncated_bytes);
        let logged = wal.record_bytes() as i64;
        metrics.wal_bytes_since_checkpoint.set(logged);
        let report = RecoveryReport {
            records,
            truncated_bytes: recovery.truncated_bytes,
            from_checkpoint: recovery.has_checkpoint,
        };
        metrics.wal_seq.set(wal.next_seq().saturating_sub(1) as i64);
        // Everything replayed came off stable storage.
        metrics.durable_epoch.set(self.epoch() as i64);
        *self
            .inner
            .storage
            .wal
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(wal);
        Ok(report)
    }

    /// Whether a write-ahead log is attached to this storage.
    pub fn wal_attached(&self) -> bool {
        self.inner
            .storage
            .wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Sequence number of the last write-ahead-log record appended (0 when
    /// none, or when no WAL is attached).
    pub fn wal_seq(&self) -> u64 {
        self.inner.metrics.wal_seq.get() as u64
    }

    /// Highest epoch known to be on stable storage. 0 without a WAL; lags
    /// [`Database::epoch`] under `every-N-ms` / `never` fsync policies,
    /// tracks it exactly under `always`.
    pub fn durable_epoch(&self) -> u64 {
        self.inner.metrics.durable_epoch.get() as u64
    }

    /// Whether the storage has degraded to read-only mode (a WAL append
    /// failed). Reads are unaffected; writes fail with
    /// [`OmegaError::ReadOnly`] until the log is repaired and the process
    /// restarted.
    pub fn read_only(&self) -> bool {
        self.inner.storage.read_only.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("nodes", &self.graph().node_count())
            .field("edges", &self.graph().edge_count())
            .field("prepared", &self.prepared_cache_len())
            .finish()
    }
}

/// An owned view of one storage epoch's data graph.
///
/// Returned by [`Database::graph`]; dereferences to the underlying
/// [`GraphStore`]. Holding a `GraphRef` pins the epoch it was taken from:
/// mutations and compactions applied afterwards publish *new* epochs and
/// never touch this one, so every read through the same `GraphRef` is
/// consistent — and the reference stays valid indefinitely.
pub struct GraphRef {
    data: Arc<GraphData>,
}

impl GraphRef {
    /// The storage epoch this view pins.
    pub fn epoch(&self) -> u64 {
        self.data.epoch
    }
}

impl std::ops::Deref for GraphRef {
    type Target = GraphStore;

    fn deref(&self) -> &GraphStore {
        &self.data.graph
    }
}

impl AsRef<GraphStore> for GraphRef {
    fn as_ref(&self) -> &GraphStore {
        &self.data.graph
    }
}

impl std::fmt::Debug for GraphRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphRef")
            .field("epoch", &self.data.epoch)
            .field("nodes", &self.data.graph.node_count())
            .field("edges", &self.data.graph.edge_count())
            .finish()
    }
}

/// A batch of edge additions and removals, applied atomically by
/// [`Database::apply`].
///
/// Additions may reference nodes that do not exist yet (they are created
/// with the given labels); removals of edges the graph does not contain are
/// no-ops. Within one batch, additions apply before removals.
#[derive(Debug, Clone, Default)]
pub struct MutationBatch {
    delta: GraphDelta,
}

impl MutationBatch {
    /// An empty batch (see also [`Database::begin_mutation`]).
    pub fn new() -> MutationBatch {
        MutationBatch::default()
    }

    /// Queues the addition of edge `tail -[label]-> head`.
    pub fn add(&mut self, tail: &str, label: &str, head: &str) -> &mut Self {
        self.delta.add(tail, label, head);
        self
    }

    /// Queues the removal of edge `tail -[label]-> head`.
    pub fn remove(&mut self, tail: &str, label: &str, head: &str) -> &mut Self {
        self.delta.remove(tail, label, head);
        self
    }

    /// Whether the batch queues no mutations.
    pub fn is_empty(&self) -> bool {
        self.delta.is_empty()
    }

    /// Number of queued mutations (additions plus removals).
    pub fn len(&self) -> usize {
        self.delta.len()
    }
}

/// What [`Database::apply`] did: the epoch now serving and the number of
/// edges actually added/removed (duplicates and unknown removals are
/// excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationReport {
    /// The storage epoch serving after the batch (unchanged for an empty
    /// batch).
    pub epoch: u64,
    /// Edges actually added.
    pub added: u64,
    /// Edges actually removed.
    pub removed: u64,
}

/// What crash recovery found when a durable constructor opened a WAL
/// directory (see [`Database::with_governor_durable`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Write-ahead-log records replayed into the graph.
    pub records: u64,
    /// Bytes of torn/corrupt log tail discarded (0 after a clean shutdown).
    pub truncated_bytes: u64,
    /// Whether the recovery base was a rotation checkpoint rather than the
    /// caller-supplied graph or snapshot.
    pub from_checkpoint: bool,
}

/// One prepared-statement cache slot.
enum CacheSlot {
    /// A compiled statement, tagged with the epoch it was compiled against.
    Ready { epoch: u64, prepared: PreparedQuery },
    /// A compilation in flight on some thread; concurrent `prepare` calls
    /// for the same text park on the database's condvar instead of
    /// duplicating the work.
    Building,
}

/// What a cache probe found (see [`Database::prepare`]).
enum CacheProbe {
    Hit(PreparedQuery),
    Busy,
    Miss,
}

/// Least-recently-used map from query text to its prepared form. The entry
/// vector keeps most-recently-used entries at the back; capacity is small,
/// so the linear scan is cheaper than a hash + recency list would be.
struct PreparedCache {
    capacity: usize,
    entries: Vec<(String, CacheSlot)>,
}

impl PreparedCache {
    fn new(capacity: usize) -> PreparedCache {
        PreparedCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    /// Looks `text` up for `epoch`. A ready entry from an older epoch is
    /// dropped and reported as a miss — its plans were compiled against a
    /// graph that no longer serves, so reusing them could return wrong
    /// answers or mis-ordered streams.
    fn probe(&mut self, text: &str, epoch: u64) -> CacheProbe {
        let Some(pos) = self.entries.iter().position(|(t, _)| t == text) else {
            return CacheProbe::Miss;
        };
        match &self.entries[pos].1 {
            CacheSlot::Ready { epoch: e, prepared } if *e == epoch => {
                let hit = prepared.clone();
                self.entries[pos..].rotate_left(1);
                CacheProbe::Hit(hit)
            }
            CacheSlot::Ready { .. } => {
                self.entries.remove(pos);
                CacheProbe::Miss
            }
            CacheSlot::Building => CacheProbe::Busy,
        }
    }

    /// Marks `text` as being compiled by the calling thread.
    fn begin_build(&mut self, text: String) {
        self.entries.push((text, CacheSlot::Building));
    }

    /// Publishes the compiled statement for `text`, replacing its in-flight
    /// marker (or inserting fresh if the marker was evicted meanwhile).
    fn finish_build(&mut self, text: &str, epoch: u64, prepared: PreparedQuery) {
        let slot = CacheSlot::Ready { epoch, prepared };
        // The marker is at or near the back: `begin_build` pushed it there.
        match self.entries.iter().rposition(|(t, _)| t == text) {
            Some(pos) => {
                self.entries[pos].1 = slot;
                self.entries[pos..].rotate_left(1);
            }
            None => self.entries.push((text.to_owned(), slot)),
        }
        if self.entries.len() > self.capacity {
            // Evict the least-recently-used *ready* entry; in-flight markers
            // are owned by their builder and must survive until it finishes.
            if let Some(pos) = self
                .entries
                .iter()
                .position(|(_, slot)| matches!(slot, CacheSlot::Ready { .. }))
            {
                self.entries.remove(pos);
            }
        }
    }

    /// Drops the in-flight marker for `text` after a failed compilation.
    fn abort_build(&mut self, text: &str) {
        if let Some(pos) = self
            .entries
            .iter()
            .rposition(|(t, slot)| t == text && matches!(slot, CacheSlot::Building))
        {
            self.entries.remove(pos);
        }
    }
}

/// Variable → slot resolution for one conjunct evaluation order, fixed at
/// prepare so executions never touch variable names. Slots are numbered in
/// order of first occurrence along `order`.
pub(crate) struct Layout {
    /// Conjunct indices in evaluation order.
    pub(crate) order: Vec<usize>,
    /// `(subject slot, object slot)` per conjunct, by position in `order`
    /// (`None` for a constant).
    pub(crate) endpoints: Vec<(Option<usize>, Option<usize>)>,
    /// Per position in `order`, the earlier position a join input depends
    /// on: the last that binds its subject variable, when its plan can
    /// start from that variable (neither reversed nor constant-seeded). The
    /// last, not the first: of M3's spokes `(?E, prereq, ?P)` and `(?E,
    /// next, ?N)` the second then evaluates only the `?E`s the first
    /// answered for (L4All L3 top-100: 926 tuples added where seeding both
    /// from the driver added 1,340).
    pub(crate) sources: Vec<Option<usize>>,
    pub(crate) slot_count: usize,
    /// Slot of each head column, in projection order.
    pub(crate) head_slots: Vec<usize>,
    /// Whether the head projects every slot. Projection-level deduplication
    /// can then never consume a join answer, so a request's limit bounds the
    /// join answers needed (top-k threshold pushdown).
    pub(crate) head_covers_slots: bool,
}

impl Layout {
    fn new<'q>(query: &'q Query, order: Vec<usize>, plans: &[Arc<ConjunctPlan>]) -> Result<Layout> {
        let mut slots: Vec<&'q str> = Vec::new();
        let mut slot_of = |term: &'q Term| {
            let name = term.as_variable()?;
            Some(slots.iter().position(|s| *s == name).unwrap_or_else(|| {
                slots.push(name);
                slots.len() - 1
            }))
        };
        let endpoints = order
            .iter()
            .map(|&i| {
                let conjunct = &query.conjuncts[i];
                (slot_of(&conjunct.subject), slot_of(&conjunct.object))
            })
            .collect::<Vec<_>>();
        let sources = order
            .iter()
            .zip(&endpoints)
            .enumerate()
            .map(|(p, (&i, &(subject, _)))| {
                let plan = &plans[i];
                let seedable = !plan.reversed && !matches!(plan.seeds, SeedSpec::Fixed(_));
                let binds = |&(s, o): &(Option<usize>, Option<usize>)| s == subject || o == subject;
                let source = endpoints[..p].iter().rposition(binds);
                source.filter(|_| seedable && subject.is_some())
            })
            .collect();
        let head_slots = query
            .head
            .iter()
            .map(|var| {
                slots
                    .iter()
                    .position(|s| s == var)
                    .ok_or_else(|| OmegaError::UnboundHeadVariable(var.clone()))
            })
            .collect::<Result<Vec<usize>>>()?;
        let head_covers_slots = (0..slots.len()).all(|slot| head_slots.contains(&slot));
        Ok(Layout {
            order,
            endpoints,
            sources,
            slot_count: slots.len(),
            head_slots,
            head_covers_slots,
        })
    }
}

/// The compile-once state shared by every execution of a prepared query.
pub(crate) struct PreparedInner {
    pub(crate) query: Query,
    /// One compiled plan per conjunct, in the query's syntactic order.
    pub(crate) conjuncts: Vec<Arc<ConjunctPlan>>,
    /// Slot layout in evaluation order — most selective conjunct first, by
    /// the compile-time seed-cardinality estimate; ties keep the query's
    /// order. The first conjunct drives the join, and a later one whose
    /// subject an earlier one binds evaluates only the values that one
    /// yields (`Layout::sources`): with the sparse stream in front, the big
    /// ones never start from a node no row can use. Answer *sets* are
    /// order-independent.
    pub(crate) layout: Layout,
    /// Time [`Database::prepare`] spent parsing the query text, reported in
    /// the `parse` phase of every execution's [`QueryProfile`].
    pub(crate) parse_ns: u64,
    /// Time spent compiling the conjunct plans (the `compile` profile
    /// phase).
    pub(crate) compile_ns: u64,
}

/// Parses nothing, validates `query` and compiles every conjunct.
fn compile_prepared(
    query: Query,
    graph: &GraphStore,
    ontology: &Ontology,
    options: &EvalOptions,
) -> Result<PreparedInner> {
    query.validate()?;
    let conjuncts = query
        .conjuncts
        .iter()
        .map(|conjunct| compile_conjunct(conjunct, graph, ontology, options).map(Arc::new))
        .collect::<Result<Vec<_>>>()?;
    // Stable sort: equal estimates keep the query's syntactic order.
    let mut order: Vec<usize> = (0..conjuncts.len()).collect();
    order.sort_by_key(|&i| conjuncts[i].estimated_seed_count);
    Ok(PreparedInner {
        layout: Layout::new(&query, order, &conjuncts)?,
        query,
        conjuncts,
        parse_ns: 0,
        compile_ns: 0,
    })
}

/// A query compiled once and executable many times, from many threads.
///
/// `PreparedQuery` is `Send + Sync` and cheap to clone: it shares the
/// pinned epoch's graph and the compiled plans through `Arc`s. The
/// database's [`EvalOptions`] live on in the plans; each
/// [`PreparedQuery::answers`] call takes its limits from its own
/// [`ExecOptions`] and builds fresh evaluator state, so concurrent
/// executions never interfere.
#[derive(Clone)]
pub struct PreparedQuery {
    data: Arc<GraphData>,
    govern: Arc<ResourceGovernor>,
    metrics: Arc<CoreMetrics>,
    inner: Arc<PreparedInner>,
}

impl PreparedQuery {
    /// The parsed query this statement was compiled from.
    pub fn query(&self) -> &Query {
        &self.inner.query
    }

    /// Streams the ranked answers for one execution under `request`.
    pub fn answers(&self, request: &ExecOptions) -> Answers<'_> {
        self.answers_from(request, false)
    }

    /// [`PreparedQuery::answers`] with even a single-conjunct plan routed
    /// through the ranked join: the reference the bypass is held against.
    #[cfg(test)]
    fn answers_via_join(&self, request: &ExecOptions) -> Answers<'_> {
        self.answers_from(request, true)
    }

    fn answers_from(&self, request: &ExecOptions, via_join: bool) -> Answers<'_> {
        self.inner
            .answers(&self.data, &self.govern, &self.metrics, request, via_join)
    }

    /// Executes under `request` and collects the answers.
    pub fn execute(&self, request: &ExecOptions) -> Result<Vec<Answer>> {
        self.answers(request).collect_up_to(None)
    }

    /// Whether `self` and `other` share the same compiled plans (i.e. one
    /// came from the other through the prepared-statement cache or `clone`).
    pub fn shares_plans_with(&self, other: &PreparedQuery) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The storage epoch this statement was compiled against and is pinned
    /// to: every execution reads that epoch's graph, regardless of
    /// mutations applied since.
    pub fn epoch(&self) -> u64 {
        self.data.epoch
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("conjuncts", &self.inner.conjuncts.len())
            .field("head", &self.inner.query.head)
            .finish()
    }
}

// `Database`, `PreparedQuery` and the request/stream types are the shared
// service surface: hold the compiler to it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<ExecOptions>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalStats;
    use omega_graph::NodeId;
    use std::time::Duration;

    fn db() -> Database {
        let mut g = GraphStore::new();
        g.add_triple("alice", "knows", "bob");
        g.add_triple("bob", "knows", "carol");
        g.add_triple("carol", "knows", "dave");
        g.add_triple("alice", "worksAt", "acme");
        g.add_triple("bob", "worksAt", "initech");
        g.add_triple("acme", "locatedIn", "UK");
        g.add_triple("initech", "locatedIn", "US");
        g.add_triple("alice", "type", "Student");
        g.add_triple("bob", "type", "Person");
        let mut o = Ontology::new();
        let student = g.node_by_label("Student").unwrap();
        let person = g.node_by_label("Person").unwrap();
        o.add_subclass(student, person).unwrap();
        Database::new(g, o)
    }

    #[test]
    fn database_executes_like_the_engine() {
        let db = db();
        let answers = db
            .execute("(?X) <- (alice, knows+, ?X)", &ExecOptions::new())
            .unwrap();
        assert_eq!(answers.len(), 3);
        assert!(answers.iter().all(|a| a.distance == 0));
    }

    #[test]
    fn multi_conjunct_join_projects_and_deduplicates() {
        let db = db();
        let joined = db
            .execute(
                "(?X, ?C) <- (?X, knows, ?Y), (?Y, worksAt.locatedIn, ?C)",
                &ExecOptions::new(),
            )
            .unwrap();
        // alice knows bob, bob works at initech in US.
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].get("X"), Some("alice"));
        assert_eq!(joined[0].get("C"), Some("US"));
        assert_eq!(joined[0].get("Y"), None, "Y is projected away");
        // Projecting only ?X: alice and bob each contribute one answer.
        let projected = db
            .execute("(?X) <- (?X, worksAt.locatedIn, ?Y)", &ExecOptions::new())
            .unwrap();
        assert_eq!(projected.len(), 2);
    }

    #[test]
    fn parse_and_plan_errors_surface() {
        let db = db();
        assert!(db.execute("not a query", &ExecOptions::new()).is_err());
        let unknown_constant = "(?X) <- (ghost, knows, ?X)";
        assert!(db.execute(unknown_constant, &ExecOptions::new()).is_err());
    }

    #[test]
    fn profile_records_every_phase_when_requested() {
        let db = db();
        // A joined plan and a bypassed single-conjunct one: both report the
        // same phase list.
        for (text, conjuncts) in [
            ("(?X, ?W) <- (?X, knows, ?Y), (?Y, worksAt, ?W)", 2),
            ("(?X, ?Y) <- (?X, knows+, ?Y)", 1),
        ] {
            let prepared = db.prepare(text).unwrap();
            let mut answers = prepared.answers(&ExecOptions::new().with_profile(true));
            assert!(answers.profile().is_none(), "not available mid-stream");
            let collected = answers.collect_up_to(None).unwrap();
            assert!(!collected.is_empty());
            let profile = answers.profile().expect("requested profile");
            let phase = |name: &str| {
                profile
                    .get(name)
                    .unwrap_or_else(|| panic!("{text}: missing phase {name}"))
            };
            assert!(phase("parse") > 0, "cache-missed prepare timed the parse");
            assert!(phase("compile") > 0);
            // The execution phases partition `total`, with or without a join
            // behind them.
            let conjunct_ns: u64 = (0..conjuncts)
                .map(|i| phase(&format!("conjunct_{i}")))
                .sum();
            assert_eq!(
                conjunct_ns + phase("rank_join") + phase("streaming"),
                phase("total"),
                "{text}"
            );
            if conjuncts == 1 {
                assert_eq!(phase("rank_join"), 0, "a bypassed plan has no join to time");
            }
        }
    }

    #[test]
    fn profile_is_absent_by_default() {
        let db = db();
        let prepared = db.prepare("(?X) <- (alice, knows, ?X)").unwrap();
        let mut answers = prepared.answers(&ExecOptions::new());
        answers.collect_up_to(None).unwrap();
        assert!(answers.profile().is_none());
    }

    #[test]
    fn registry_counts_prepares_executions_and_cache_hits() {
        let db = db();
        db.prepare("(?X) <- (alice, knows, ?X)").unwrap();
        db.prepare("(?X) <- (alice, knows, ?X)").unwrap();
        db.execute("(?X) <- (alice, knows, ?X)", &ExecOptions::new())
            .unwrap();
        let text = db.metrics().expose();
        let get = |series: &str| omega_obs::find_value(&text, series).unwrap_or(-1.0);
        assert_eq!(get("omega_core_prepares_total"), 3.0);
        assert_eq!(get("omega_core_prepare_cache_hits_total"), 2.0);
        assert_eq!(get("omega_core_executions_total"), 1.0);
        assert_eq!(get("omega_core_execution_ns_count"), 1.0);
        assert_eq!(get("omega_govern_admitted_total"), 1.0);
    }

    #[test]
    fn registry_counts_mutations_and_compactions() {
        let db = db();
        let mut batch = db.begin_mutation();
        batch.add("dave", "knows", "erin");
        db.apply(&batch).unwrap();
        let series =
            |series: &str| omega_obs::find_value(&db.metrics().expose(), series).unwrap_or(-1.0);
        // The storage gauges follow the published epoch.
        assert_eq!(series("omega_core_epoch"), 1.0);
        assert_eq!(series("omega_core_overlay_edges"), 1.0);
        db.compact();
        db.compact(); // no overlay: must not count
        assert_eq!(series("omega_core_mutations_total"), 1.0);
        assert_eq!(series("omega_core_compactions_total"), 1.0);
        assert_eq!(series("omega_core_epoch"), 2.0);
        assert_eq!(series("omega_core_overlay_edges"), 0.0);
        assert_eq!(series("omega_core_apply_ns_count"), 1.0);
        assert_eq!(series("omega_core_compact_ns_count"), 1.0);
        // No log attached: nothing has accumulated since a checkpoint.
        assert_eq!(series("omega_core_wal_bytes_since_checkpoint"), 0.0);
    }

    #[test]
    fn prepare_hits_the_cache() {
        let db = db();
        let first = db.prepare("(?X) <- (alice, knows, ?X)").unwrap();
        let second = db.prepare("(?X) <- (alice, knows, ?X)").unwrap();
        assert!(first.shares_plans_with(&second));
        assert_eq!(db.prepared_cache_len(), 1);
        let uncached = db.prepare_uncached("(?X) <- (alice, knows, ?X)").unwrap();
        assert!(!first.shares_plans_with(&uncached));
    }

    #[test]
    fn lru_cache_evicts_oldest() {
        let mut cache = PreparedCache::new(2);
        let db = db();
        let p = db.prepare_uncached("(?X) <- (alice, knows, ?X)").unwrap();
        cache.finish_build("a", 0, p.clone());
        cache.finish_build("b", 0, p.clone());
        // Refresh "a": now "b" is oldest.
        assert!(matches!(cache.probe("a", 0), CacheProbe::Hit(_)));
        cache.finish_build("c", 0, p.clone());
        assert!(matches!(cache.probe("b", 0), CacheProbe::Miss));
        assert!(matches!(cache.probe("a", 0), CacheProbe::Hit(_)));
        assert!(matches!(cache.probe("c", 0), CacheProbe::Hit(_)));
    }

    #[test]
    fn stale_epoch_entries_miss_and_building_slots_survive_eviction() {
        let mut cache = PreparedCache::new(2);
        let db = db();
        let p = db.prepare_uncached("(?X) <- (alice, knows, ?X)").unwrap();
        cache.finish_build("a", 0, p.clone());
        // A later epoch sees the entry as a miss and drops it.
        assert!(matches!(cache.probe("a", 1), CacheProbe::Miss));
        assert!(matches!(cache.probe("a", 1), CacheProbe::Miss));
        // In-flight markers report busy and are never evicted by capacity.
        cache.begin_build("x".into());
        cache.begin_build("y".into());
        cache.finish_build("b", 1, p.clone());
        assert!(matches!(cache.probe("x", 1), CacheProbe::Busy));
        assert!(matches!(cache.probe("y", 1), CacheProbe::Busy));
        cache.abort_build("x");
        assert!(matches!(cache.probe("x", 1), CacheProbe::Miss));
    }

    #[test]
    fn prepared_query_executes_repeatedly() {
        let db = db();
        let prepared = db
            .prepare("(?X) <- APPROX (alice, worksAt.worksAt, ?X)")
            .unwrap();
        let first = prepared.execute(&ExecOptions::new()).unwrap();
        let second = prepared.execute(&ExecOptions::new()).unwrap();
        assert!(!first.is_empty());
        assert_eq!(first, second);
    }

    #[test]
    fn limit_and_iterator_agree() {
        let db = db();
        let prepared = db.prepare("(?X) <- (alice, knows+, ?X)").unwrap();
        let collected: Result<Vec<_>> = prepared
            .answers(&ExecOptions::new().with_limit(2))
            .collect();
        assert_eq!(collected.unwrap().len(), 2);
    }

    #[test]
    fn zero_timeout_deadline_fires() {
        let db = db();
        let prepared = db.prepare("(?X, ?Y) <- APPROX (?X, knows+, ?Y)").unwrap();
        let request = ExecOptions::new().with_timeout(Duration::ZERO);
        let mut answers = prepared.answers(&request);
        assert!(matches!(
            answers.next_answer(),
            Err(OmegaError::DeadlineExceeded)
        ));
        // The stream is fused after the error.
        assert!(answers.next().is_none());
    }

    #[test]
    fn absolute_deadline_in_the_past_fires() {
        let db = db();
        let request = ExecOptions::new().with_deadline(Instant::now());
        let err = db
            .execute("(?X) <- APPROX (alice, knows.knows, ?X)", &request)
            .unwrap_err();
        assert!(matches!(err, OmegaError::DeadlineExceeded));
    }

    #[test]
    fn a_timeout_past_the_clock_sets_no_deadline() {
        let db = db();
        let text = "(?X) <- APPROX (alice, knows.knows, ?X)";
        let request = ExecOptions::new().with_timeout(Duration::MAX);
        let unlimited = db.execute(text, &ExecOptions::new()).unwrap();
        assert_eq!(db.execute(text, &request).unwrap(), unlimited);
    }

    #[test]
    fn max_distance_truncates_the_stream() {
        let db = db();
        let prepared = db
            .prepare("(?X) <- APPROX (alice, worksAt.worksAt, ?X)")
            .unwrap();
        let all = prepared.execute(&ExecOptions::new()).unwrap();
        assert!(all.iter().any(|a| a.distance > 1));
        let capped = prepared
            .execute(&ExecOptions::new().with_max_distance(1))
            .unwrap();
        assert!(capped.iter().all(|a| a.distance <= 1));
        let expected = all.iter().filter(|a| a.distance <= 1).count();
        assert_eq!(capped.len(), expected);
    }

    #[test]
    fn reconfigured_shares_storage() {
        let db = db();
        let relaxed = db.reconfigured(EvalOptions::default().with_batch_size(10));
        assert_eq!(relaxed.options().batch_size, 10);
        assert!(std::ptr::eq(&*db.graph(), &*relaxed.graph()));
        // Mutations through one handle are visible through the other.
        let mut batch = db.begin_mutation();
        batch.add("alice", "knows", "eve");
        db.apply(&batch).unwrap();
        assert_eq!(relaxed.epoch(), db.epoch());
        assert!(std::ptr::eq(&*db.graph(), &*relaxed.graph()));
    }

    #[test]
    fn concurrent_clones_answer_identically() {
        let db = db();
        let prepared = db
            .prepare("(?X) <- APPROX (alice, worksAt.worksAt, ?X)")
            .unwrap();
        let reference = prepared.execute(&ExecOptions::new()).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let prepared = prepared.clone();
                let reference = reference.clone();
                scope.spawn(move || {
                    let got = prepared.execute(&ExecOptions::new()).unwrap();
                    assert_eq!(got, reference);
                });
            }
        });
    }

    #[test]
    fn max_tuples_override_aborts() {
        let db = db();
        let err = db
            .execute(
                "(?X, ?Y) <- APPROX (?X, knows+, ?Y)",
                &ExecOptions::new().with_max_tuples(3),
            )
            .unwrap_err();
        assert!(matches!(err, OmegaError::ResourceExhausted { .. }));
    }

    fn governed_db(config: GovernorConfig) -> Database {
        let mut g = GraphStore::new();
        g.add_triple("alice", "knows", "bob");
        g.add_triple("bob", "knows", "carol");
        g.add_triple("carol", "knows", "dave");
        g.add_triple("alice", "worksAt", "acme");
        g.add_triple("bob", "worksAt", "initech");
        g.add_triple("acme", "locatedIn", "UK");
        g.add_triple("initech", "locatedIn", "US");
        Database::with_governor(g, Ontology::new(), EvalOptions::default(), config)
    }

    #[test]
    fn governed_admission_rejects_with_typed_overloaded() {
        let db = governed_db(
            GovernorConfig::default()
                .with_max_concurrent(1)
                .with_retry_after(Duration::from_millis(7)),
        );
        let held = db.governor().admit().unwrap();
        let err = db
            .execute("(?X) <- (alice, knows+, ?X)", &ExecOptions::new())
            .unwrap_err();
        assert!(
            matches!(err, OmegaError::Overloaded { retry_after } if retry_after >= Duration::from_millis(7))
        );
        assert_eq!(db.governor().gauges().rejected, 1);
        drop(held);
        // The slot freed: the same query now runs.
        let answers = db
            .execute("(?X) <- (alice, knows+, ?X)", &ExecOptions::new())
            .unwrap();
        assert_eq!(answers.len(), 3);
    }

    #[test]
    fn degrade_returns_bit_identical_prefix() {
        let db = db();
        let text = "(?X, ?Y) <- APPROX (?X, knows+, ?Y)";
        let full = db.execute(text, &ExecOptions::new()).unwrap();
        assert!(!full.is_empty());
        // Fail (the default) aborts under the same budget…
        let capped = ExecOptions::new().with_max_tuples(3);
        assert!(db.execute(text, &capped).is_err());
        // …Degrade instead ends the stream cleanly with the proven prefix.
        let prepared = db.prepare(text).unwrap();
        let mut stream =
            prepared.answers(&capped.clone().with_on_overload(OverloadPolicy::Degrade));
        let partial = stream.collect_up_to(None).unwrap();
        let stats = stream.stats();
        assert!(stats.degraded, "degraded flag must be set");
        assert!(stats.truncation.is_some(), "truncation reason must be set");
        assert!(partial.len() < full.len());
        assert_eq!(
            partial[..],
            full[..partial.len()],
            "prefix must be bit-identical"
        );
    }

    #[test]
    fn shed_retries_once_then_surfaces_overload() {
        let db = governed_db(
            GovernorConfig::default()
                .with_max_concurrent(1)
                .with_retry_after(Duration::from_millis(1)),
        );
        let held = db.governor().admit().unwrap();
        // The slot stays taken: the shed retry also fails, so the typed
        // error surfaces — but exactly one shed attempt was made.
        let prepared = db.prepare("(?X) <- (alice, knows, ?X)").unwrap();
        let request = ExecOptions::new()
            .with_max_tuples(64)
            .with_on_overload(OverloadPolicy::Shed);
        let mut stream = prepared.answers(&request);
        assert!(matches!(
            stream.next_answer(),
            Err(OmegaError::Overloaded { .. })
        ));
        assert_eq!(stream.stats().sheds, 1);
        assert_eq!(db.governor().gauges().rejected, 2);
        drop(held);
        // With the slot free the shed path is never taken.
        let mut stream = prepared.answers(&request);
        let answers = stream.collect_up_to(None).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(stream.stats().sheds, 0);
    }

    #[test]
    fn shed_succeeds_when_the_slot_frees_during_backoff() {
        let db = governed_db(
            GovernorConfig::default()
                .with_max_concurrent(1)
                .with_retry_after(Duration::from_millis(250)),
        );
        let held = db.governor().admit().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                drop(held);
            });
            let prepared = db.prepare("(?X) <- (alice, knows+, ?X)").unwrap();
            let mut stream =
                prepared.answers(&ExecOptions::new().with_on_overload(OverloadPolicy::Shed));
            let answers = stream.collect_up_to(None).unwrap();
            assert_eq!(answers.len(), 3, "shed retry must run the query");
            assert_eq!(stream.stats().sheds, 1);
        });
    }

    #[test]
    fn gauges_return_to_zero_after_execution() {
        let db = governed_db(
            GovernorConfig::default()
                .with_max_live_tuples(1 << 16)
                .with_max_concurrent(4),
        );
        // A joined plan buffers its inputs; a bypassed single-conjunct plan
        // has no join to buffer in.
        for (text, buffers) in [
            ("(?X, ?W) <- (?X, knows, ?Y), (?Y, worksAt, ?W)", true),
            ("(?X, ?Y) <- (?X, knows+, ?Y)", false),
        ] {
            let prepared = db.prepare(text).unwrap();
            {
                let mut stream = prepared.answers(&ExecOptions::new());
                assert!(stream.next_row().unwrap().is_some());
                let during = db.governor().gauges();
                assert_eq!(during.executions, 1);
                assert!(during.live_tuples > 0, "reservations drawn mid-query");
                assert_eq!(during.join_buffer_entries > 0, buffers, "{text}");
                // Abandon the stream mid-flight: Drop must return everything.
            }
            let after = db.governor().gauges();
            assert_eq!(after.executions, 0);
            assert_eq!(after.live_tuples, 0);
            assert_eq!(after.join_buffer_entries, 0);
        }
    }

    #[test]
    fn mutations_publish_new_epochs_and_pin_readers() {
        let db = db();
        assert_eq!(db.epoch(), 0);
        let text = "(?X) <- (alice, knows+, ?X)";
        let pinned = db.prepare(text).unwrap();
        assert_eq!(pinned.epoch(), 0);
        let before = pinned.execute(&ExecOptions::new()).unwrap();
        assert_eq!(before.len(), 3);

        let mut batch = db.begin_mutation();
        batch
            .add("dave", "knows", "eve")
            .remove("carol", "knows", "dave");
        let report = db.apply(&batch).unwrap();
        assert_eq!(
            report,
            MutationReport {
                epoch: 1,
                added: 1,
                removed: 1
            }
        );
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.graph().epoch(), 1);

        // The statement pinned to epoch 0 answers exactly as before…
        assert_eq!(pinned.execute(&ExecOptions::new()).unwrap(), before);
        // …while a fresh prepare sees the mutated graph: carol→dave is
        // gone, so dave (and the new eve) are unreachable from alice.
        let fresh = db.prepare(text).unwrap();
        assert_eq!(fresh.epoch(), 1);
        assert!(!pinned.shares_plans_with(&fresh));
        let after = fresh.execute(&ExecOptions::new()).unwrap();
        let bound: Vec<&str> = after.iter().filter_map(|a| a.get("X")).collect();
        assert_eq!(bound, ["bob", "carol"]);

        // An empty batch is a no-op that does not bump the epoch.
        let noop = db.apply(&db.begin_mutation()).unwrap();
        assert_eq!(noop.epoch, 1);
        assert_eq!((noop.added, noop.removed), (0, 0));
    }

    #[test]
    fn stale_plans_are_recompiled_not_reused_after_mutation() {
        let db = db();
        let text = "(?X) <- (alice, knows+, ?X)";

        // Warm the cache at epoch 0 and confirm it actually serves hits.
        let stale = db.prepare(text).unwrap();
        assert!(stale.shares_plans_with(&db.prepare(text).unwrap()));
        assert_eq!(db.prepared_cache_len(), 1);

        // A mutation publishes epoch 1; the cached plan must NOT be reused,
        // or queries would silently answer against the wrong graph.
        let mut batch = db.begin_mutation();
        batch.add("dave", "knows", "erin");
        assert_eq!(db.apply(&batch).unwrap().epoch, 1);
        let fresh = db.prepare(text).unwrap();
        assert!(!stale.shares_plans_with(&fresh));
        assert_eq!((stale.epoch(), fresh.epoch()), (0, 1));
        // The recompiled plan replaces the stale entry rather than growing
        // the cache, and subsequent prepares hit it again.
        assert_eq!(db.prepared_cache_len(), 1);
        assert!(fresh.shares_plans_with(&db.prepare(text).unwrap()));

        // The answers prove which graph each plan reads: the stale handle
        // stays pinned to epoch 0, the fresh one sees the new edge.
        let bound = |p: &PreparedQuery| -> Vec<String> {
            let mut xs: Vec<String> = p
                .execute(&ExecOptions::new())
                .unwrap()
                .iter()
                .filter_map(|a| a.get("X").map(str::to_owned))
                .collect();
            xs.sort();
            xs
        };
        assert_eq!(bound(&stale), ["bob", "carol", "dave"]);
        assert_eq!(bound(&fresh), ["bob", "carol", "dave", "erin"]);

        // Compaction is also a new epoch: plans compiled against the
        // overlay graph are invalidated, but the answers are unchanged.
        assert_eq!(db.compact(), 2);
        let compacted = db.prepare(text).unwrap();
        assert!(!fresh.shares_plans_with(&compacted));
        assert_eq!(compacted.epoch(), 2);
        assert_eq!(bound(&compacted), bound(&fresh));
    }

    #[test]
    fn mid_stream_mutations_leave_answers_and_stats_bit_identical() {
        let db = db();
        let text = "(?X, ?Y) <- APPROX (?X, knows+, ?Y)";
        let prepared = db.prepare(text).unwrap();
        let mut reference_stream = prepared.answers(&ExecOptions::new());
        let reference = reference_stream.collect_up_to(None).unwrap();
        let reference_stats = reference_stream.stats();
        assert!(reference.len() > 1);

        let mut stream = prepared.answers(&ExecOptions::new());
        let first = stream.next_answer().unwrap().unwrap();
        // A mutation lands while the stream is mid-flight…
        let mut batch = db.begin_mutation();
        batch
            .add("zed", "knows", "alice")
            .remove("alice", "knows", "bob");
        db.apply(&batch).unwrap();
        // …and the pinned stream neither sees it nor changes its stats.
        let mut got = vec![first];
        got.extend(stream.collect_up_to(None).unwrap());
        assert_eq!(got, reference);
        assert_eq!(stream.stats(), reference_stats);
    }

    #[test]
    fn concurrent_prepare_misses_compile_once() {
        let db = db();
        let text = "(?X) <- APPROX (alice, knows.knows, ?X)";
        let barrier = std::sync::Barrier::new(8);
        let prepared: Vec<PreparedQuery> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        db.prepare(text).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in &prepared[1..] {
            assert!(
                prepared[0].shares_plans_with(p),
                "stampeded misses must share one compilation"
            );
        }
        assert_eq!(db.prepared_compilations(), 1);
        assert_eq!(db.prepared_cache_len(), 1);
    }

    #[test]
    fn compact_folds_the_overlay_without_changing_answers() {
        let db = db();
        let text = "(?X) <- (alice, knows+, ?X)";
        let mut batch = db.begin_mutation();
        batch.add("dave", "knows", "eve");
        db.apply(&batch).unwrap();
        assert!(db.graph().has_overlay());
        let overlaid = db
            .prepare(text)
            .unwrap()
            .execute(&ExecOptions::new())
            .unwrap();
        assert_eq!(overlaid.len(), 4);

        assert_eq!(db.compact(), 2);
        assert!(!db.graph().has_overlay());
        let compacted = db
            .prepare(text)
            .unwrap()
            .execute(&ExecOptions::new())
            .unwrap();
        assert_eq!(compacted, overlaid);
        // Compacting an overlay-free epoch is a no-op.
        assert_eq!(db.compact(), 2);
    }

    #[test]
    fn save_snapshot_compacts_a_live_overlay_first() {
        let db = db();
        let mut batch = db.begin_mutation();
        batch
            .add("dave", "knows", "eve")
            .remove("alice", "worksAt", "acme");
        db.apply(&batch).unwrap();
        assert!(db.graph().has_overlay());

        let path = std::env::temp_dir().join(format!(
            "omega-service-snapshot-compact-{}.omega",
            std::process::id()
        ));
        db.save_snapshot(&path).unwrap();
        assert!(!db.graph().has_overlay(), "saving folds the overlay");

        let reopened = Database::open_snapshot(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let text = "(?X) <- (alice, knows+, ?X)";
        assert_eq!(
            reopened
                .prepare(text)
                .unwrap()
                .execute(&ExecOptions::new())
                .unwrap(),
            db.prepare(text)
                .unwrap()
                .execute(&ExecOptions::new())
                .unwrap()
        );
    }

    #[test]
    fn a_pool_wait_past_the_clock_is_unbounded() {
        let db = governed_db(
            GovernorConfig::default()
                .with_max_live_tuples(1 << 20)
                .with_acquire_timeout(Duration::MAX),
        );
        let text = "(?X) <- APPROX (alice, knows.knows, ?X)";
        let answers = db.execute(text, &ExecOptions::new()).unwrap();
        assert!(!answers.is_empty());
        assert_eq!(db.governor().gauges().live_tuples, 0);
    }

    #[test]
    fn reconfigured_shares_the_governor() {
        let db = governed_db(GovernorConfig::default().with_max_concurrent(2));
        let view = db.reconfigured(EvalOptions::default().with_batch_size(10));
        assert!(Arc::ptr_eq(db.governor(), view.governor()));
    }

    /// The single-conjunct bypass against the same plan forced through the
    /// ranked join, on random graphs.
    mod bypass {
        use super::*;
        use proptest::prelude::*;

        const LABELS: [&str; 4] = ["p", "q", "r", "type"];

        /// One statement per shape the bypass must get right.
        const QUERIES: [&str; 7] = [
            // One variable at both ends.
            "(?X) <- (?X, (p|q)+, ?X)",
            // Constant subject, constant object.
            "(?Y) <- (n0, p.(q|r)*, ?Y)",
            "(?X) <- (?X, (p|r)+.type, C1)",
            // A projection that drops a variable: rows repeat and must be
            // deduplicated, keeping the cheapest.
            "(?X) <- (?X, p.q-|r, ?Y)",
            "(?Y) <- (?X, type, ?Y)",
            // Head variables repeated and reordered.
            "(?Y, ?X, ?Y) <- (?X, p*.q, ?Y)",
            "(?X, ?Y) <- (?X, type.type-, ?Y)",
        ];

        fn database(triples: &[(u8, usize, u8)]) -> Database {
            let mut g = GraphStore::new();
            // The constants the statements name always exist.
            g.add_triple("n0", "p", "n1");
            g.add_triple("n1", "type", "C1");
            for &(s, p, o) in triples {
                if LABELS[p] == "type" {
                    g.add_triple(&format!("n{s}"), "type", &format!("C{}", o % 3));
                } else {
                    g.add_triple(&format!("n{s}"), LABELS[p], &format!("n{o}"));
                }
            }
            let mut o = Ontology::new();
            let root = g.add_node("CRoot");
            for c in 0..3 {
                if let Some(class) = g.node_by_label(&format!("C{c}")) {
                    let _ = o.add_subclass(class, root);
                }
            }
            if let (Some(p), Some(q)) = (g.label_id("p"), g.label_id("q")) {
                let super_p = g.intern_label("super_p");
                let _ = o.add_subproperty(p, super_p);
                let _ = o.add_subproperty(q, super_p);
            }
            Database::new(g, o)
        }

        /// Drains a stream through `next_row`: rows, distances, final stats.
        fn drain(mut stream: Answers<'_>) -> (Vec<(Vec<NodeId>, u32)>, EvalStats) {
            let width = stream.columns().len();
            let mut rows = Vec::new();
            while let Some((row, distance)) = stream.next_row().unwrap() {
                assert_eq!(row.len(), width);
                rows.push((row.to_vec(), distance));
            }
            (rows, stream.stats())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn bypass_equals_the_forced_join(
                triples in prop::collection::vec((0u8..10, 0usize..LABELS.len(), 0u8..10), 1..50),
                query in 0usize..QUERIES.len(),
                operator in 0usize..3,
                limit in 0usize..40,
                toggles in 0usize..2,
            ) {
                let mut db = database(&triples);
                if toggles == 1 {
                    db = db.reconfigured(EvalOptions { cost_guided: false, ..db.options().clone() });
                }
                let text = QUERIES[query].replacen("<- (", ["<- (", "<- APPROX (", "<- RELAX ("][operator], 1);
                let prepared = db.prepare(&text).unwrap();
                let mut request = ExecOptions::new();
                // A third of the cases run unlimited.
                if limit % 3 != 0 {
                    request = request.with_limit(limit);
                }
                let (rows, stats) = drain(prepared.answers(&request));
                let (joined_rows, joined_stats) = drain(prepared.answers_via_join(&request));
                prop_assert_eq!(&rows, &joined_rows, "{}", text);
                prop_assert_eq!(stats, joined_stats, "{}", text);
                // Rows are distinct and ranked.
                let distinct: std::collections::HashSet<_> = rows.iter().map(|(row, _)| row).collect();
                prop_assert_eq!(distinct.len(), rows.len());
                prop_assert!(rows.windows(2).all(|w| w[0].1 <= w[1].1));
                // The materialiser is the row path plus labels.
                let answers = prepared.execute(&request).unwrap();
                prop_assert_eq!(answers.len(), rows.len());
                for (answer, (row, distance)) in answers.iter().zip(&rows) {
                    prop_assert_eq!(answer.distance, *distance);
                    for (var, id) in prepared.query().head.iter().zip(row) {
                        prop_assert_eq!(answer.get(var), Some(db.graph().node_label(*id)));
                    }
                }
            }
        }
    }
}
