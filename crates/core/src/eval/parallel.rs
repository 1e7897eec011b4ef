//! Parallel conjunct evaluation: one worker thread per conjunct, feeding the
//! ranked join through a bounded channel.
//!
//! Multi-conjunct queries rank-join per-conjunct answer streams that are
//! completely independent of each other: each conjunct evaluator only reads
//! the shared frozen [`GraphStore`] and its own compiled plan. This module
//! moves those evaluators onto worker threads so the streams are *produced*
//! concurrently while the join *consumes* them by its one pull rule —
//! [`ParallelStream`] implements [`AnswerStream`] by receiving from the
//! worker's channel, so the join cannot tell it from the same evaluator run
//! inline and unhinted, except by wall-clock time. (It keeps the default
//! `prefer_seeds`, which declines: a worker running ahead of the join cannot
//! take seed hints at a deterministic point of its stream. Sequential
//! evaluation does take them, so it orders ties its own way; see
//! [`crate::eval::rank_join`].) Of such a stream:
//!
//! * answers arrive in the same per-stream order (the channel is FIFO and
//!   the worker runs the identical deterministic evaluator),
//! * errors (`ResourceExhausted`, `DeadlineExceeded`, …) travel in-stream at
//!   the position they occur at in the worker's evaluator,
//! * statistics are mirrored into a shared snapshot after every pull, so
//!   [`AnswerStream::stats`] reflects the worker's progress and, once the
//!   stream is drained, equals the sequential counters exactly.
//!
//! Lifecycle discipline is strict because answer streams are lazy iterators
//! handed to callers: every worker polls the execution's shared
//! [`CancelToken`] (and the wall-clock deadline) both inside the evaluator
//! loop — every 64 tuples — and while blocked on a full channel, and
//! [`ParallelStream`] cancels the token and **joins** its worker on drop.
//! Dropping an [`crate::service::Answers`] mid-stream therefore reclaims
//! every thread promptly; [`live_parallel_workers`] exposes the global
//! worker gauge the concurrency tests assert leak-freedom with.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use omega_graph::GraphStore;
use omega_ontology::Ontology;

use crate::answer::ConjunctAnswer;
use crate::error::{OmegaError, Result};
use crate::eval::cancel::CancelToken;
use crate::eval::conjunct::ConjunctEvaluator;
use crate::eval::disjunction::DisjunctionEvaluator;
use crate::eval::distance_aware::DistanceAwareEvaluator;
use crate::eval::fault::{fire as fault_fire, FaultPoint};
use crate::eval::options::EvalOptions;
use crate::eval::plan::ConjunctPlan;
use crate::eval::stats::EvalStats;
use crate::eval::AnswerStream;
use crate::service::GraphData;

/// How long a worker blocked on a full channel sleeps between cancellation
/// polls. This bounds how far past a cancellation/deadline a blocked worker
/// can live.
const SEND_POLL: Duration = Duration::from_micros(200);

/// A conjunct evaluation job dispatched to the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A small shared thread pool amortising worker-thread spawns across
/// executions.
///
/// The pool is deliberately *non-queueing*: `execute` either
/// hands the job to an idle pooled thread or spawns a fresh thread for it,
/// never parks it behind other jobs. Queueing would deadlock the rank join —
/// a queued conjunct's consumer can be blocked waiting on it while the jobs
/// ahead of it are themselves blocked on their full channels, which only
/// this same consumer drains. Threads re-enter the idle list when their job
/// finishes (up to `max_idle`), so steady-state executions reuse threads
/// instead of spawning.
pub struct WorkerPool {
    max_idle: usize,
    idle: Mutex<Vec<SyncSender<Job>>>,
}

impl WorkerPool {
    /// Creates a pool keeping at most `max_idle` threads parked between
    /// executions.
    pub fn new(max_idle: usize) -> Arc<WorkerPool> {
        Arc::new(WorkerPool {
            max_idle,
            idle: Mutex::new(Vec::new()),
        })
    }

    /// A pool sized for conjunct fan-out: at least 4 parked threads, more on
    /// wider machines.
    pub fn with_default_size() -> Arc<WorkerPool> {
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        WorkerPool::new(parallelism.max(4))
    }

    /// Runs `job` on an idle pooled thread if one is available, otherwise on
    /// a freshly spawned thread (which joins the idle list afterwards).
    /// `Err` is only possible when a fresh spawn fails.
    fn execute(self: &Arc<Self>, job: Job) -> std::io::Result<()> {
        let mut job = job;
        loop {
            let worker = self.idle.lock().unwrap_or_else(|e| e.into_inner()).pop();
            let Some(worker) = worker else {
                return self.spawn_thread(job);
            };
            // A send can only fail if the thread died (e.g. a panicking
            // job); take the next idle thread or spawn.
            match worker.send(job) {
                Ok(()) => return Ok(()),
                Err(std::sync::mpsc::SendError(back)) => job = back,
            }
        }
    }

    fn spawn_thread(self: &Arc<Self>, job: Job) -> std::io::Result<()> {
        let pool = Arc::downgrade(self);
        std::thread::Builder::new()
            .name("omega-conjunct".to_owned())
            .spawn(move || {
                let mut job = job;
                loop {
                    job();
                    // Re-enter the idle list (unless the pool is gone or
                    // already full), then park until the next job. The
                    // rendezvous sender is *moved* into the idle list: when
                    // the pool (and with it the list) is dropped, the recv
                    // below disconnects and the parked thread exits instead
                    // of leaking.
                    let Some(pool) = pool.upgrade() else { return };
                    let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(0);
                    {
                        let mut idle = pool.idle.lock().unwrap_or_else(|e| e.into_inner());
                        if idle.len() >= pool.max_idle {
                            return;
                        }
                        idle.push(tx);
                    }
                    drop(pool); // don't keep the pool alive while parked
                    match rx.recv() {
                        Ok(next) => job = next,
                        Err(_) => return,
                    }
                }
            })
            .map(drop)
    }
}

/// Gauge of currently live conjunct worker threads (process-wide).
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Number of conjunct worker threads currently alive in this process.
///
/// Because [`ParallelStream`] joins its worker on drop, this returns to its
/// previous value as soon as every outstanding answer stream has been
/// dropped — the concurrency test suite uses it as a thread-leak detector.
pub fn live_parallel_workers() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

/// Drop guard bumping [`LIVE_WORKERS`] for the lifetime of a worker body,
/// balanced even when the evaluator panics.
struct WorkerGuard;

impl WorkerGuard {
    fn new() -> WorkerGuard {
        LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
        WorkerGuard
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The recipe for one conjunct's evaluator, chosen on the caller's thread
/// (so plan compilation and caching behave identically in both modes) and
/// materialised either inline or inside a worker. Cloning is `Arc` bumps.
#[derive(Clone)]
pub(crate) enum StreamPlan {
    /// Plain ranked evaluation ([`ConjunctEvaluator`]).
    Plain(Arc<ConjunctPlan>),
    /// Escalating-ψ distance-aware driver ([`DistanceAwareEvaluator`]).
    DistanceAware(Arc<ConjunctPlan>),
    /// Decomposed top-level alternation ([`DisjunctionEvaluator`]).
    Disjunction(Vec<Arc<ConjunctPlan>>),
}

impl StreamPlan {
    /// Builds the evaluator this plan describes, borrowing `graph` and
    /// `ontology` for the stream's lifetime.
    pub(crate) fn materialize<'a>(
        self,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        options: Arc<EvalOptions>,
    ) -> Box<dyn AnswerStream + 'a> {
        match self {
            StreamPlan::Plain(plan) => {
                Box::new(ConjunctEvaluator::new(plan, graph, ontology, options, None))
            }
            StreamPlan::DistanceAware(plan) => {
                Box::new(DistanceAwareEvaluator::new(plan, graph, ontology, options))
            }
            StreamPlan::Disjunction(branches) => Box::new(DisjunctionEvaluator::from_plans(
                branches, graph, ontology, options,
            )),
        }
    }
}

/// One message on the worker channel: an answer, end-of-stream, or the
/// error that terminated evaluation.
type Item = Result<Option<ConjunctAnswer>>;

/// An [`AnswerStream`] produced on a dedicated worker thread.
///
/// The consumer side is single-threaded and order-preserving: `next_answer`
/// is a channel receive, so the stream is indistinguishable from running the
/// same evaluator inline, unhinted (modulo wall-clock). The worker is
/// cancelled and joined on drop.
pub struct ParallelStream {
    /// `Some` until drop, which disconnects the channel *before* awaiting
    /// the worker so a blocked send can never outlive the stream.
    rx: Option<Receiver<Item>>,
    stats: Arc<Mutex<EvalStats>>,
    cancel: CancelToken,
    deadline: Option<Instant>,
    /// Completion signal: the worker job sends its (possibly panicked)
    /// outcome here as its very last action.
    completion: Receiver<std::thread::Result<()>>,
    joined: bool,
    done: bool,
}

impl ParallelStream {
    /// Dispatches a worker evaluating `plan` over `data` to the pool and
    /// returns the consuming stream. On dispatch failure (fresh thread spawn
    /// failed with no idle pooled thread) the plan is handed back so the
    /// caller can fall back to inline evaluation.
    pub(crate) fn spawn(
        plan: StreamPlan,
        data: Arc<GraphData>,
        options: Arc<EvalOptions>,
        pool: &Arc<WorkerPool>,
    ) -> std::result::Result<ParallelStream, StreamPlan> {
        // Injected spawn failure: the dispatch reports the same outcome a
        // genuine thread-spawn error would, and the caller falls back to
        // inline evaluation — the query still completes.
        if fault_fire(FaultPoint::WorkerSpawn) {
            return Err(plan);
        }
        let capacity = options.parallel_channel_capacity.max(1);
        let (tx, rx) = std::sync::mpsc::sync_channel::<Item>(capacity);
        let (completion_tx, completion) = std::sync::mpsc::channel();
        let stats = Arc::new(Mutex::new(EvalStats::default()));
        let cancel = options.cancel.clone().unwrap_or_default();
        let deadline = options.deadline;
        let shared_stats = Arc::clone(&stats);
        let worker_options = Arc::clone(&options);
        // The job gets a clone of the plan (cheap `Arc` bumps) because a
        // failed dispatch consumes it; the original is handed back for the
        // inline fallback.
        let worker_plan = plan.clone();
        let job: Job = Box::new(move || {
            // Contain a panicking evaluator: pooled threads survive it, and
            // the payload reaches the consumer through the completion
            // channel instead of killing an unrelated thread.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                worker_body(worker_plan, data, worker_options, tx, shared_stats)
            }));
            let _ = completion_tx.send(result);
        });
        match pool.execute(job) {
            Ok(()) => Ok(ParallelStream {
                rx: Some(rx),
                stats,
                cancel,
                deadline,
                completion,
                joined: false,
                done: false,
            }),
            Err(_) => Err(plan),
        }
    }

    /// Awaits the worker job's completion. A worker panic is converted into
    /// a typed [`OmegaError::Internal`] (and counted in
    /// [`EvalStats::worker_panics`]) instead of being re-raised: the
    /// consumer's thread may be a server request handler, and a violated
    /// evaluator invariant should fail one request, not the process.
    fn join_worker(&mut self) -> Option<OmegaError> {
        if self.joined {
            return None;
        }
        self.joined = true;
        match self.completion.recv() {
            Ok(Err(payload)) => {
                self.stats
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .worker_panics += 1;
                Some(OmegaError::Internal {
                    message: format!(
                        "conjunct worker panicked: {}",
                        panic_message(payload.as_ref())
                    ),
                })
            }
            _ => None,
        }
    }
}

/// Best-effort extraction of a panic payload's message (the standard library
/// panics with `&str` or `String` payloads).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

impl AnswerStream for ParallelStream {
    fn next_answer(&mut self) -> Result<Option<ConjunctAnswer>> {
        if self.done {
            return Ok(None);
        }
        // The receiver lives until drop; `done` guards the post-drop state.
        let Some(rx) = self.rx.as_ref() else {
            return Ok(None);
        };
        match rx.recv() {
            Ok(Ok(Some(answer))) => Ok(Some(answer)),
            Ok(Ok(None)) => {
                self.done = true;
                match self.join_worker() {
                    Some(e) => Err(e),
                    None => Ok(None),
                }
            }
            Ok(Err(e)) => {
                self.done = true;
                self.join_worker();
                Err(e)
            }
            // The worker exited without a terminal message: it panicked
            // (surfaced as a typed `Internal` error by join_worker) or it
            // bailed out of a blocked send on cancellation/deadline. Report
            // the cause the consumer can act on rather than a bare hang-up.
            Err(_) => {
                self.done = true;
                if let Some(e) = self.join_worker() {
                    return Err(e);
                }
                if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    Err(OmegaError::DeadlineExceeded)
                } else {
                    Err(OmegaError::Cancelled)
                }
            }
        }
    }

    fn stats(&self) -> EvalStats {
        *self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for ParallelStream {
    fn drop(&mut self) {
        // Cancelling the shared token ends the whole execution, which is the
        // only situation in which a join input is dropped. The worker
        // observes the token within its check interval whether it is mid-
        // traversal or blocked on the full channel; awaiting its completion
        // here is what guarantees no worker outlives its answer stream.
        self.cancel.cancel();
        // Disconnect the channel before waiting: a worker blocked in a full
        // send then exits on `Disconnected` even if it somehow holds a
        // token that is not the shared one (defence in depth — the service
        // layer always installs the shared token).
        self.rx = None;
        // A panic here cannot be raised (panicking inside drop would abort
        // the process), but join_worker still records it in the shared
        // stats, so an execution abandoned mid-stream does not silently
        // lose the fact that a worker died.
        let _ = self.join_worker();
    }
}

/// The worker loop: drive the evaluator, mirror its stats, push each result
/// into the bounded channel, stop on a terminal item or cancellation.
fn worker_body(
    plan: StreamPlan,
    data: Arc<GraphData>,
    options: Arc<EvalOptions>,
    tx: SyncSender<Item>,
    stats: Arc<Mutex<EvalStats>>,
) {
    let _guard = WorkerGuard::new();
    let mut stream = plan.materialize(&data.graph, &data.ontology, Arc::clone(&options));
    loop {
        let item = stream.next_answer();
        *stats.lock().unwrap_or_else(|e| e.into_inner()) = stream.stats();
        let terminal = !matches!(item, Ok(Some(_)));
        if !blocking_send(&tx, item, &options) || terminal {
            break;
        }
    }
}

/// Sends one item, polling the cancellation token and deadline while the
/// channel is full. Returns `false` when the send was abandoned (receiver
/// gone, execution cancelled, or deadline passed).
fn blocking_send(tx: &SyncSender<Item>, item: Item, options: &EvalOptions) -> bool {
    let mut item = item;
    loop {
        // Injected channel failure: the worker abandons the send exactly as
        // if the receiver had disconnected; the consumer observes a typed
        // cancellation/deadline error, never a hang.
        if fault_fire(FaultPoint::ChannelSend) {
            return false;
        }
        match tx.try_send(item) {
            Ok(()) => return true,
            Err(TrySendError::Disconnected(_)) => return false,
            Err(TrySendError::Full(back)) => {
                if options
                    .cancel
                    .as_ref()
                    .is_some_and(CancelToken::is_cancelled)
                {
                    return false;
                }
                if options.deadline.is_some_and(|d| Instant::now() >= d) {
                    return false;
                }
                item = back;
                std::thread::sleep(SEND_POLL);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::plan::compile_conjunct;
    use crate::query::parser::parse_query;

    fn data() -> Arc<GraphData> {
        let mut g = GraphStore::new();
        g.add_triple("alice", "knows", "bob");
        g.add_triple("bob", "knows", "carol");
        g.add_triple("carol", "knows", "dave");
        g.add_triple("alice", "worksAt", "acme");
        g.add_triple("bob", "worksAt", "acme");
        g.freeze();
        Arc::new(GraphData {
            graph: g,
            ontology: Arc::new(Ontology::new()),
            epoch: 0,
        })
    }

    fn plan_for(data: &GraphData, query: &str, options: &EvalOptions) -> Arc<ConjunctPlan> {
        let q = parse_query(query).unwrap();
        Arc::new(compile_conjunct(&q.conjuncts[0], &data.graph, &data.ontology, options).unwrap())
    }

    fn drain(stream: &mut dyn AnswerStream) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::new();
        while let Some(a) = stream.next_answer().unwrap() {
            out.push((a.x.0, a.y.0, a.distance));
        }
        out
    }

    #[test]
    fn parallel_stream_matches_inline_evaluation_and_stats() {
        let data = data();
        for query in [
            "(?X, ?Y) <- (?X, knows+, ?Y)",
            "(?X) <- APPROX (alice, knows.knows, ?X)",
        ] {
            // One token per execution, as the service layer guarantees —
            // dropping a stream cancels its execution's token.
            let options = Arc::new(EvalOptions::default().with_cancel_token(CancelToken::new()));
            let plan = plan_for(&data, query, &options);
            let mut inline = StreamPlan::Plain(Arc::clone(&plan)).materialize(
                &data.graph,
                &data.ontology,
                Arc::clone(&options),
            );
            let expected = drain(inline.as_mut());
            let expected_stats = inline.stats();

            let pool = WorkerPool::with_default_size();
            let mut parallel = ParallelStream::spawn(
                StreamPlan::Plain(plan),
                Arc::clone(&data),
                Arc::clone(&options),
                &pool,
            )
            .ok()
            .expect("worker spawns");
            assert_eq!(
                drain(&mut parallel),
                expected,
                "answers diverge for {query}"
            );
            assert_eq!(
                parallel.stats(),
                expected_stats,
                "stats diverge for {query}"
            );
        }
    }

    #[test]
    fn dropping_the_stream_reclaims_the_worker() {
        let data = data();
        // Capacity 1 so the worker is parked on a full channel when dropped.
        let options = Arc::new(
            EvalOptions::default()
                .with_parallel_channel_capacity(1)
                .with_cancel_token(CancelToken::new()),
        );
        let plan = plan_for(&data, "(?X, ?Y) <- APPROX (?X, knows+, ?Y)", &options);
        // A test-local pool gives an interference-free observable: the
        // thread only parks in *this* pool's idle list after its job ends.
        // (The global `live_parallel_workers` gauge is asserted on in
        // tests/concurrency.rs, which serialises its tests; sibling unit
        // tests here may legitimately be running workers concurrently.)
        let pool = WorkerPool::new(2);
        let mut stream =
            ParallelStream::spawn(StreamPlan::Plain(plan), Arc::clone(&data), options, &pool)
                .ok()
                .expect("worker spawns");
        // Consume one answer, then abandon the stream mid-flight. Drop
        // blocks until the worker's job has completed.
        assert!(stream.next_answer().unwrap().is_some());
        drop(stream);
        // The reclaimed thread re-registers as idle shortly after.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.idle.lock().unwrap().is_empty() {
            assert!(
                Instant::now() < deadline,
                "worker never returned to the pool after stream drop"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn pool_parks_and_reuses_threads() {
        let data = data();
        let pool = WorkerPool::new(2);
        for _ in 0..3 {
            let options = Arc::new(EvalOptions::default().with_cancel_token(CancelToken::new()));
            let plan = plan_for(&data, "(?X) <- (alice, knows, ?X)", &options);
            let mut stream =
                ParallelStream::spawn(StreamPlan::Plain(plan), Arc::clone(&data), options, &pool)
                    .ok()
                    .expect("worker spawns");
            while stream.next_answer().unwrap().is_some() {}
        }
        // The job's completion signal precedes re-registration, so give the
        // thread a moment to park itself.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let idle = pool.idle.lock().unwrap().len();
            if idle >= 1 {
                assert!(idle <= 2, "idle list respects max_idle");
                break;
            }
            assert!(Instant::now() < deadline, "worker thread never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn worker_panic_surfaces_as_typed_internal_error() {
        // Reproduce the exact wiring of a panicked worker job: the payload
        // reaches the completion channel, the answer channel disconnects
        // with no terminal message.
        let (tx, rx) = std::sync::mpsc::sync_channel::<Item>(1);
        let (completion_tx, completion) = std::sync::mpsc::channel();
        let stats = Arc::new(Mutex::new(EvalStats::default()));
        let handle = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(|| {
                drop(tx); // unwinding drops the sender in the real job too
                panic!("visited-set invariant violated");
            });
            let _ = completion_tx.send(result);
        });
        let mut stream = ParallelStream {
            rx: Some(rx),
            stats: Arc::clone(&stats),
            cancel: CancelToken::new(),
            deadline: None,
            completion,
            joined: false,
            done: false,
        };
        match stream.next_answer() {
            Err(OmegaError::Internal { message }) => {
                assert!(
                    message.contains("visited-set invariant violated"),
                    "panic payload must reach the error: {message}"
                );
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        assert_eq!(stream.stats().worker_panics, 1, "panic is counted");
        assert!(
            stream.next_answer().unwrap().is_none(),
            "errored stream is fused, not poisoned"
        );
        handle.join().unwrap();
    }

    #[test]
    fn exhausted_stream_is_fused() {
        let data = data();
        let options = Arc::new(EvalOptions::default().with_cancel_token(CancelToken::new()));
        let plan = plan_for(&data, "(?X) <- (alice, knows, ?X)", &options);
        let pool = WorkerPool::with_default_size();
        let mut stream =
            ParallelStream::spawn(StreamPlan::Plain(plan), Arc::clone(&data), options, &pool)
                .ok()
                .expect("worker spawns");
        while stream.next_answer().unwrap().is_some() {}
        assert!(stream.next_answer().unwrap().is_none(), "stream is fused");
    }
}
