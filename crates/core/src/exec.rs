//! One execution of a prepared statement: stream construction
//! (`PreparedInner::answers`, one [`ConjunctEvaluator`] per conjunct) and
//! [`Answers`], the handle that pulls ranked candidates from a bypassed
//! conjunct stream or the rank join, projects them onto the head,
//! deduplicates, and enforces limit, deadline and distance ceiling. Public
//! items are re-exported from `service`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use omega_graph::{FxHashSet, GraphStore, NodeId};
use omega_obs::QueryProfile;
use omega_ontology::Ontology;

use crate::answer::{Answer, AnswerBatch};
use crate::error::{OmegaError, Result};
use crate::eval::rank_join::{JoinInput, RankJoin};
use crate::eval::{
    AnswerStream, ConjunctEvaluator, ConjunctPlan, EvalStats, ExecOptions, OverloadPolicy,
};
use crate::govern::{ExecutionPermit, ResourceGovernor};
use crate::service::{elapsed_ns, CoreMetrics, GraphData, PreparedInner};

/// [`AnswerStream`] adaptor accumulating the wall-clock time spent inside
/// one conjunct's `next_answer` calls, for the per-conjunct profile phases.
/// Only constructed when the request asked for a profile.
struct TimedStream<'a> {
    inner: Box<dyn AnswerStream + 'a>,
    nanos: Arc<AtomicU64>,
}

impl AnswerStream for TimedStream<'_> {
    fn next_answer(&mut self) -> Result<Option<crate::answer::ConjunctAnswer>> {
        let started = Instant::now();
        let out = self.inner.next_answer();
        self.nanos.fetch_add(elapsed_ns(started), Ordering::Relaxed);
        out
    }

    fn next_answer_until(&mut self, ceiling: u32) -> Result<Option<crate::answer::ConjunctAnswer>> {
        let started = Instant::now();
        let out = self.inner.next_answer_until(ceiling);
        self.nanos.fetch_add(elapsed_ns(started), Ordering::Relaxed);
        out
    }

    /// Forwarded, or a profiled dependent would evaluate nothing: not the
    /// execution it is there to time.
    fn seed(&mut self, node: NodeId) {
        self.inner.seed(node);
    }

    fn floor(&mut self, seeded: bool) -> Option<u32> {
        self.inner.floor(seeded)
    }

    fn stats(&self) -> EvalStats {
        self.inner.stats()
    }
}

/// In-flight profile accumulators for one execution; folded into a
/// [`QueryProfile`] when the stream finishes.
struct ProfileState {
    parse_ns: u64,
    compile_ns: u64,
    /// `(original conjunct index, time inside its next_answer calls)`.
    conjuncts: Vec<(usize, Arc<AtomicU64>)>,
    /// Time inside the stream's candidate pulls (includes the conjunct time
    /// above — the pull drives the conjunct streams).
    join_ns: u64,
}

impl PreparedInner {
    /// Builds the ranked answer stream for one execution. Every conjunct
    /// evaluates on the caller's thread, pulled by the ranked join.
    ///
    /// A single-conjunct plan reads its rows straight off the conjunct
    /// stream, which is already ranked; `via_join` routes it through the
    /// ranked join regardless (the reference path the bypass is tested
    /// against).
    pub(crate) fn answers<'a>(
        self: &Arc<Self>,
        data: &'a Arc<GraphData>,
        govern: &Arc<ResourceGovernor>,
        metrics: &Arc<CoreMetrics>,
        request: &ExecOptions,
        via_join: bool,
    ) -> Answers<'a> {
        let started = Instant::now();
        // The timeout folds into the deadline once, so that the stream and
        // every evaluator stop at the same instant.
        let mut limits = request.clone();
        (limits.deadline, limits.timeout) = (request.deadline_from_now(), None);
        // Admission: the governor gates every execution before any evaluator
        // state is built. Under `Shed` a rejected request backs off once,
        // halves its tuple budget and retries; otherwise the typed
        // `Overloaded` error is deferred to the stream's first pull
        // (`answers` is infallible by signature).
        let mut sheds = 0u64;
        let permit = loop {
            match govern.admit() {
                Ok(permit) => break permit,
                Err(err) => {
                    if limits.on_overload == OverloadPolicy::Shed && sheds == 0 {
                        sheds = 1;
                        govern.note_shed(true);
                        if let OmegaError::Overloaded { retry_after } = err {
                            std::thread::sleep(retry_after);
                        }
                        if let Some(max) = limits.max_tuples {
                            limits.max_tuples = Some((max / 2).max(1));
                        }
                        continue;
                    }
                    return Answers::rejected(Arc::clone(self), data, err, sheds);
                }
            }
        };
        metrics.executions.inc();
        let mut profile_state = limits.profile.then(|| {
            Box::new(ProfileState {
                parse_ns: self.parse_ns,
                compile_ns: self.compile_ns,
                conjuncts: Vec::with_capacity(self.conjuncts.len()),
                join_ns: 0,
            })
        });
        let graph = &data.graph;
        let ontology = &data.ontology;
        let layout = &self.layout;
        let bypass = self.conjuncts.len() == 1 && !via_join;
        let mut streams = layout
            .order
            .iter()
            .zip(&layout.sources)
            .map(|(&i, source)| {
                let plan = &self.conjuncts[i];
                let stream =
                    conjunct_stream(plan, graph, ontology, &limits, govern, source.is_some());
                // Profiling wraps each conjunct stream in a timing adaptor,
                // keyed by the query's syntactic conjunct index so phases
                // read stably however the estimate order shuffled them. On a
                // bypassed plan the pull *is* the conjunct: one timer, not two.
                match profile_state.as_mut() {
                    Some(state) if !bypass => {
                        let nanos = Arc::new(AtomicU64::new(0));
                        state.conjuncts.push((i, Arc::clone(&nanos)));
                        Box::new(TimedStream {
                            inner: stream,
                            nanos,
                        })
                    }
                    _ => stream,
                }
            });
        let source = match (streams.next(), bypass) {
            (Some(stream), true) => Source::Single { stream, answers: 0 },
            (first, _) => {
                let inputs = first
                    .into_iter()
                    .chain(streams)
                    .zip(layout.endpoints.iter().zip(&layout.sources))
                    .map(|(stream, (&(subject, object), &source))| {
                        JoinInput::new(stream, subject, object, source)
                    })
                    .collect();
                let mut join = RankJoin::new(inputs, layout.slot_count);
                // Top-k threshold pushdown: streams provably past the k-th
                // distance stop being pulled.
                if layout.head_covers_slots {
                    join.set_limit(limits.limit);
                }
                Source::Join(join)
            }
        };
        Answers {
            data,
            prepared: Arc::clone(self),
            source,
            batch: None,
            row: Vec::with_capacity(layout.head_slots.len()),
            emitted: RowSet::new(layout.head_slots.len(), limits.limit),
            limit: limits.limit,
            yielded: 0,
            max_distance: limits.max_distance,
            deadline: limits.deadline,
            finished: false,
            pending: None,
            permit: Some(permit),
            govern: Some(Arc::clone(govern)),
            buffered: 0,
            sheds,
            started,
            metrics: Some(Arc::clone(metrics)),
            profile: profile_state,
            profile_out: None,
        }
    }
}

/// Builds one evaluator of an execution, a join's dependent input if
/// `dependent`. A function of its own: built inline in
/// `PreparedInner::answers`, the same work measured 12–17 % slower on
/// `embed-flex` (2-CPU Xeon; code placement, not extra work).
fn conjunct_stream<'a>(
    plan: &Arc<ConjunctPlan>,
    graph: &'a GraphStore,
    ontology: &'a Ontology,
    limits: &ExecOptions,
    govern: &Arc<ResourceGovernor>,
    dependent: bool,
) -> Box<dyn AnswerStream + 'a> {
    let plan = Arc::clone(plan);
    Box::new(if dependent {
        ConjunctEvaluator::dependent(plan, graph, ontology, limits, Some(govern))
    } else {
        ConjunctEvaluator::new(plan, graph, ontology, limits, Some(govern))
    })
}

/// What part a conjunct plays in its execution's rank join
/// (`crate::eval::rank_join`, "Driver and dependents").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputRole {
    /// The first conjunct in evaluation order.
    Driver,
    /// Seeded only by the values an earlier conjunct binds its subject to.
    Dependent,
    /// Any other: it seeds from its own candidates.
    Independent,
}

/// Where an execution's ranked candidates come from. One per execution,
/// held in place for the stream's whole life, so the join is not boxed.
#[allow(clippy::large_enum_variant)]
enum Source<'a> {
    /// Exactly one conjunct: its stream is already ranked, so candidates are
    /// read straight off it. Conjunct streams never repeat an `(x, y)`, so
    /// every answer pulled is distinct; `answers` counts as the join would.
    Single {
        stream: Box<dyn AnswerStream + 'a>,
        answers: u64,
    },
    /// Several conjuncts, combined by the ranked join.
    Join(RankJoin<'a>),
}

/// Projection-level deduplication, keyed on the packed id tuple: rows of up
/// to four columns pack into one `u128`, so remembering a row allocates
/// nothing beyond the set's own amortised growth. Wider heads box the row.
enum RowSet {
    Packed(FxHashSet<u128>),
    Wide(FxHashSet<Box<[NodeId]>>),
}

impl RowSet {
    /// A set for rows of `columns` ids, sized up front for a request that
    /// asked for at most `limit` of them.
    fn new(columns: usize, limit: Option<usize>) -> RowSet {
        let rows = limit.unwrap_or(0).min(1 << 12);
        let hasher = Default::default;
        if columns <= 4 {
            RowSet::Packed(FxHashSet::with_capacity_and_hasher(rows, hasher()))
        } else {
            RowSet::Wide(FxHashSet::with_capacity_and_hasher(rows, hasher()))
        }
    }

    /// Remembers `row`; `false` when it was already present.
    fn insert(&mut self, row: &[NodeId]) -> bool {
        match self {
            RowSet::Packed(set) => {
                set.insert(row.iter().fold(0, |key, id| key << 32 | u128::from(id.0)))
            }
            RowSet::Wide(set) => !set.contains(row) && set.insert(row.into()),
        }
    }
}

/// A streaming handle over one execution's ranked answers.
///
/// Yields answers in non-decreasing total-distance order, enforcing the
/// request's limit, distance ceiling and deadline. An answer is a row of
/// [`NodeId`]s against [`Answers::columns`]: [`Answers::next_row`] lends the
/// row as it is, [`Answers::next_answer`] (and the
/// `Iterator<Item = Result<Answer>>` impl) copies it into an [`Answer`] that
/// reads its labels from the stream's pinned epoch.
/// After an error or exhaustion the stream is fused. Dropping it mid-flight
/// ends the execution: nothing evaluates except inside a pull.
pub struct Answers<'a> {
    /// The pinned epoch the rows' ids belong to.
    data: &'a Arc<GraphData>,
    /// The statement: head columns and slot layout, resolved at prepare.
    prepared: Arc<PreparedInner>,
    source: Source<'a>,
    /// What every [`Answer`] of the stream shares: built by the first
    /// `next_answer`, so a stream read by `next_row` alone never builds it.
    batch: Option<AnswerBatch>,
    /// The current row: one id per head column. Lent out by `next_row`.
    row: Vec<NodeId>,
    /// Rows already yielded.
    emitted: RowSet,
    limit: Option<usize>,
    yielded: usize,
    max_distance: Option<u32>,
    deadline: Option<Instant>,
    finished: bool,
    /// Admission failure deferred to the first pull (the constructor is
    /// infallible by signature).
    pending: Option<OmegaError>,
    /// Concurrency-slot permit; released when the stream finishes or drops.
    permit: Option<ExecutionPermit>,
    /// Governor whose join-buffer gauge mirrors this stream's buffered
    /// entries (`None` for rejected streams that never ran).
    govern: Option<Arc<ResourceGovernor>>,
    /// Last buffered-entry count pushed into the governor's gauge.
    buffered: usize,
    /// Shed retries performed at admission, surfaced through
    /// [`Answers::stats`].
    sheds: u64,
    /// When this execution started (admission included), for the
    /// execution-latency histogram and the profile's `total` phase.
    started: Instant,
    /// Engine metric handles; `take()`n when the stream ends so the
    /// execution histogram records each stream exactly once. `None` for
    /// rejected streams (the governor already counted those).
    metrics: Option<Arc<CoreMetrics>>,
    /// Live profile accumulators (requests with
    /// [`crate::service::ExecOptions::with_profile`] only).
    profile: Option<Box<ProfileState>>,
    /// The folded per-phase breakdown, available via [`Answers::profile`]
    /// once the stream has finished.
    profile_out: Option<QueryProfile>,
}

impl<'a> Answers<'a> {
    /// An inert stream standing in for an execution the governor rejected:
    /// its first pull returns the admission error, then it is fused.
    fn rejected(
        prepared: Arc<PreparedInner>,
        data: &'a Arc<GraphData>,
        err: OmegaError,
        sheds: u64,
    ) -> Answers<'a> {
        Answers {
            data,
            prepared,
            source: Source::Join(RankJoin::new(Vec::new(), 0)),
            batch: None,
            row: Vec::new(),
            emitted: RowSet::new(0, None),
            limit: None,
            yielded: 0,
            max_distance: None,
            deadline: None,
            finished: false,
            pending: Some(err),
            permit: None,
            govern: None,
            buffered: 0,
            sheds,
            started: Instant::now(),
            metrics: None,
            profile: None,
            profile_out: None,
        }
    }

    /// Marks the stream finished and returns the execution's governor
    /// resources (permit, gauge contribution). Also what `Drop` does, so it
    /// must stay idempotent.
    fn finish(&mut self) {
        self.finished = true;
        self.sync_buffer_gauge(true);
        self.permit = None;
        self.observe_end();
    }

    /// Folds the execution into the metrics registry (latency histogram,
    /// degrade counter) and the profile accumulators into the final
    /// [`QueryProfile`]. Idempotent via `take()`; also runs from `Drop` so
    /// abandoned streams are still counted.
    fn observe_end(&mut self) {
        let total_ns = elapsed_ns(self.started);
        if let Some(metrics) = self.metrics.take() {
            metrics.exec_ns.record(total_ns);
            if self.source_stats().degraded {
                metrics.degrades.inc();
            }
        }
        if let Some(state) = self.profile.take() {
            let mut profile = QueryProfile::new();
            profile.push("parse", state.parse_ns);
            profile.push("compile", state.compile_ns);
            let mut conjunct_ns = 0u64;
            for (index, nanos) in &state.conjuncts {
                let ns = nanos.load(Ordering::Relaxed);
                conjunct_ns = conjunct_ns.saturating_add(ns);
                profile.push(format!("conjunct_{index}"), ns);
            }
            if let Source::Single { .. } = self.source {
                // No join ran: the pulls were the one conjunct's.
                conjunct_ns = state.join_ns;
                profile.push("conjunct_0", conjunct_ns);
            }
            // The pull drives the conjunct streams, so the join's own cost
            // is what remains after their time is taken out; streaming is
            // the dedup/consumer share of the total.
            profile.push("rank_join", state.join_ns.saturating_sub(conjunct_ns));
            profile.push("streaming", total_ns.saturating_sub(state.join_ns));
            profile.push("total", total_ns);
            self.profile_out = Some(profile);
        }
    }

    /// The per-phase timing breakdown of this execution. `Some` only after
    /// the stream has finished (drained, limited, or failed) *and* the
    /// request asked for one via [`crate::service::ExecOptions::with_profile`].
    pub fn profile(&self) -> Option<&QueryProfile> {
        self.profile_out.as_ref()
    }

    /// Takes the per-phase profile, forcing end-of-execution accounting if
    /// the stream is still open. For stream teardown (a server drained or
    /// cancelled mid-flight still wants the phases that ran); a stream that
    /// has had its profile taken no longer records anything on further use.
    pub fn take_profile(&mut self) -> Option<QueryProfile> {
        self.observe_end();
        self.profile_out.take()
    }

    /// Mirrors the rank join's buffered-entry count into the governor's
    /// gauge as a delta; `drain` pushes this stream's contribution back to
    /// zero when it ends. A bypassed single-conjunct plan buffers nothing.
    fn sync_buffer_gauge(&mut self, drain: bool) {
        let Some(govern) = &self.govern else { return };
        let now = match &self.source {
            Source::Join(join) if !drain => join.buffered_entries(),
            _ => 0,
        };
        if now != self.buffered {
            govern.adjust_join_buffer(now as isize - self.buffered as isize);
            self.buffered = now;
        }
    }

    /// The head variable names (without the leading `?`) that the ids of a
    /// row bind, in projection order. A repeated head variable repeats here.
    pub fn columns(&self) -> &[String] {
        &self.prepared.query.head
    }

    /// The label of a node id taken from a row of this stream.
    pub fn label(&self, id: NodeId) -> &'a str {
        self.data.graph.node_label(id)
    }

    /// Pulls the next ranked candidate and projects it onto `self.row`;
    /// returns its distance.
    fn pull(&mut self) -> Result<Option<u32>> {
        let layout = &self.prepared.layout;
        self.row.clear();
        match &mut self.source {
            Source::Single { stream, answers } => {
                let Some(answer) = stream.next_answer()? else {
                    return Ok(None);
                };
                *answers += 1;
                // A slot that is not the subject's is the object's; for
                // `(?X, R, ?X)` both endpoints agree by construction.
                let (subject, _) = layout.endpoints[0];
                let cells = layout.head_slots.iter().map(|&slot| {
                    if subject == Some(slot) {
                        answer.x
                    } else {
                        answer.y
                    }
                });
                self.row.extend(cells);
                Ok(Some(answer.distance))
            }
            Source::Join(join) => {
                let Some((slots, distance)) = join.next_row()? else {
                    return Ok(None);
                };
                // The join only emits rows with every slot bound.
                let cells = layout.head_slots.iter().map(|&slot| slots[slot]);
                self.row.extend(cells);
                Ok(Some(distance))
            }
        }
    }

    /// The next answer as a row of node ids — one per entry of
    /// [`Answers::columns`], in that order — and its distance; `Ok(None)`
    /// when the stream is exhausted (or the limit/distance ceiling has been
    /// reached).
    ///
    /// The row is lent from a buffer inside the stream that the next call
    /// overwrites, and it holds the stream's mutable borrow for as long as it
    /// is alive: copy the ids out before touching the stream again — to pull
    /// the next row, or to resolve ids through [`Answers::label`]. The ids
    /// themselves (and the labels they resolve to) stay valid for the
    /// statement's pinned graph epoch, however far the stream has moved on.
    /// Nothing is allocated per row beyond the deduplication set's amortised
    /// growth.
    pub fn next_row(&mut self) -> Result<Option<(&[NodeId], u32)>> {
        if self.finished {
            return Ok(None);
        }
        if let Some(err) = self.pending.take() {
            self.finish();
            return Err(err);
        }
        if self.limit.is_some_and(|l| self.yielded >= l) {
            self.finish();
            return Ok(None);
        }
        // The per-tuple deadline checks live in the conjunct evaluators;
        // this top-level check guarantees an already-expired deadline fails
        // before any evaluation happens at all.
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.finish();
                return Err(OmegaError::DeadlineExceeded);
            }
        }
        loop {
            // Timing the pull is the only profiling cost on the answer
            // loop, and only paid when a profile was requested.
            let started = self.profile.is_some().then(Instant::now);
            let pulled = self.pull();
            if let (Some(state), Some(started)) = (self.profile.as_mut(), started) {
                state.join_ns = state.join_ns.saturating_add(elapsed_ns(started));
            }
            let next = match pulled {
                Ok(next) => next,
                Err(e) => {
                    self.finish();
                    return Err(e);
                }
            };
            self.sync_buffer_gauge(false);
            let Some(distance) = next else {
                self.finish();
                return Ok(None);
            };
            if self.max_distance.is_some_and(|max| distance > max) {
                // Total distances are non-decreasing: nothing later can
                // come back under the ceiling.
                self.finish();
                return Ok(None);
            }
            if self.emitted.insert(&self.row) {
                self.yielded += 1;
                return Ok(Some((&self.row, distance)));
            }
        }
    }

    /// The next answer, `Ok(None)` when the stream is exhausted (or the
    /// limit/distance ceiling has been reached). The answer is the row's ids
    /// and one shared handle on the stream's schema and pinned epoch: its
    /// labels are read when its bindings are, and it keeps the epoch alive.
    pub fn next_answer(&mut self) -> Result<Option<Answer>> {
        let Some((_, distance)) = self.next_row()? else {
            return Ok(None);
        };
        let batch = self.batch.get_or_insert_with(|| {
            AnswerBatch::epoch(&self.prepared.query.head, Arc::clone(self.data))
        });
        Ok(Some(batch.row(&self.row, |id| id.0, distance)))
    }

    /// Collects up to `limit` further answers (all remaining when `None`),
    /// on top of any stream-level limit.
    pub fn collect_up_to(&mut self, limit: Option<usize>) -> Result<Vec<Answer>> {
        let mut out = Vec::new();
        while limit.is_none_or(|l| out.len() < l) {
            let Some(answer) = self.next_answer()? else {
                break;
            };
            out.push(answer);
        }
        Ok(out)
    }

    /// Evaluator and join statistics, without the admission-time sheds.
    fn source_stats(&self) -> EvalStats {
        match &self.source {
            Source::Single { stream, answers } => {
                let mut stats = stream.stats();
                stats.answers += answers;
                stats
            }
            Source::Join(join) => join.stats(),
        }
    }

    /// Each conjunct's own statistics so far, in evaluation order: its
    /// index in the query, its part in the join — a single conjunct drives —
    /// and its evaluator's counters (the join's rows are not among them).
    pub fn conjunct_stats(&self) -> Vec<(usize, InputRole, EvalStats)> {
        let layout = &self.prepared.layout;
        let stats: Vec<EvalStats> = match &self.source {
            Source::Single { stream, .. } => vec![stream.stats()],
            Source::Join(join) => join.input_stats().collect(),
        };
        let role = |p: usize| match (p, layout.sources[p]) {
            (0, _) => InputRole::Driver,
            (_, Some(_)) => InputRole::Dependent,
            (_, None) => InputRole::Independent,
        };
        let conjuncts = layout.order.iter().enumerate();
        conjuncts
            .zip(stats)
            .map(|((p, &i), stats)| (i, role(p), stats))
            .collect()
    }

    /// Evaluation statistics accumulated so far across all conjuncts,
    /// including shed retries performed at admission.
    pub fn stats(&self) -> EvalStats {
        let mut stats = self.source_stats();
        stats.sheds += self.sheds;
        stats
    }
}

impl Iterator for Answers<'_> {
    type Item = Result<Answer>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_answer().transpose()
    }
}

impl Drop for Answers<'_> {
    fn drop(&mut self) {
        // Abandoning the stream mid-flight returns the execution's governor
        // resources and still lands it in the latency histogram.
        self.finish();
    }
}
