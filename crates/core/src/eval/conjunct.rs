//! The single-conjunct ranked evaluator — the paper's `GetNext` procedure
//! over the lazily constructed weighted product automaton `H_R`.
//!
//! ## Seeds as a cursor
//!
//! Section 3.3 releases initial nodes into `D_R` in batches, each only once
//! `D_R` holds no distance-0 tuple. The evaluator queues the
//! [`InitialNodeFeed`] as one tuple for that, a [`TupleKind::Seeds`] cursor
//! in the initial state at distance 0, through the ordinary `push`: at the
//! least key a seed can enter at (`h(initial)`, or one more when no class of
//! the graph's summary is tight for it). A dead initial state or a
//! `max_distance` below that key prunes it once, for every seed.
//! Popping it re-queues it *first*, at the key it popped at, while the feed
//! has seeds left, then pushes the feed's next `batch_size` seeds above it
//! as visits. Nothing is keyed below the
//! seeds (keys are consistent), and `D_R` is LIFO within a key, so the
//! cursor pops again exactly when no other work at or below its key is
//! left: when the paper's condition holds.
//!
//! A rank join's *dependent* input ([`ConjunctEvaluator::dependent`]) has
//! no seeds but those the join hands it ([`AnswerStream::seed`]). Its
//! cursor waits outside `D_R` until the first one arrives, and goes back
//! in at its key whenever a seed arrives after the feed ran dry: below the
//! key `D_R` has reached, which `DrQueue::push` allows. Its answers are
//! therefore in non-decreasing distance per seed, not across seeds; the
//! join bounds them by [`AnswerStream::floor`].
//!
//! ## Successors as cursors
//!
//! Successors get the same treatment one level down. When
//! one same-label run of `Succ` reaches more than [`BLOCK`] neighbours (a
//! class hub's instances behind `type-`, or a wildcard edit at a hub), the
//! run is copied once into the evaluator's arena and each of its transitions
//! enters `D_R` as one *cursor* tuple ([`TupleKind::Cursor`]) at the least
//! key of its members (see "Keys from the summary"). Popping a cursor
//! re-queues it at the key it popped at *first*, then handles its next
//! block of members as a set: each member keyed there and not visited yet
//! is inserted into `visited` and expanded right there, *in place*; the
//! members keyed higher go back in as one cursor at their key; what the
//! in-place visits still owe goes in once per block, over one arena copy of
//! them — their deferred edits as a [`TupleKind::DeferredRun`] at `g +
//! defer_delta(q)`, their pending answers as a [`TupleKind::FinalRun`] at
//! `g + final_weight(q)`, which checks each member's final annotation and
//! `answers_R` as it pops.
//!
//! *Why in place is sound.* The members visited in place share one state,
//! one distance and the key the cursor popped at: queued, LIFO would have
//! popped them next, one after another, everything they queued in between
//! lying at that key or above. A twin of a member at a smaller distance
//! would have a smaller key, so it has popped already: the visit is the
//! cheapest. The runs sit at their members' own keys and ranks: every
//! stream emits the same `(x, y, distance)` multiset in non-decreasing
//! distance, and only tie order within a distance moves.
//!
//! To the tuple budget a queued run is one live `D_R` entry, and every arena
//! entry one more, until the last queued run is read out and the arena is
//! cleared. A wide run copied for `k` transitions is held once, where eager
//! expansion queued it `k` times, and a block's members once more, where
//! they queued two tuples each: the budget trips no later than it did then.
//!
//! ## Keys from the summary
//!
//! A hub's run can hold thousands of nodes at which the automaton cannot
//! continue at cost 0 (the instances of a class without the query's next
//! label), and an edit can reach thousands of nodes from which no cheap
//! path leads on: keyed at `g + h(q)`, each of them would be visited and
//! expanded to no effect before the key could advance. So a tuple is keyed
//! by its node as well as its state, through the graph's node summary
//! ([`omega_graph::NodeSummary`]) and the plan's
//! [`omega_automata::SignatureBound`]: a visit of `n` in `q` at distance `g`
//! goes in at
//!
//! `g + h(q) + [class(n) ∉ tight[q]]`
//!
//! and not at all when `class(n) ∉ live[q]` (`pruned_dead`). `tight[q]` holds
//! the classes from which the summary reaches acceptance at cost `h(q)`
//! along tight steps, `live[q]` those from which it reaches it at all;
//! `raised_keys` counts the tuples keyed above `g + h(q)`.
//!
//! *Admissible:* a cost-`h(q)` path from `(n, q)` to acceptance takes tight
//! steps only, and every real path maps to an abstract one, so `class(n) ∈
//! tight[q]` when there is one; costs are integers, so any other path costs
//! at least `h(q) + 1`. *Consistent:* a tight step into a tight `(n', q')`
//! leaves a tight `(n, q)`, and every other step already pays `h(q) + 1`.
//! Keys are therefore a function of `g` and `(node, state)` and never fall
//! along a derivation, so the first pop of a `(start, node, state)` is its
//! cheapest, which is the one the visited set keeps.
//!
//! A cursor goes in at `g + h(q)` plus the least offset over the classes its
//! run holds (read only when `q` has a class that is not tight, and only up
//! to a member that is), so a run with no tight member waits a key higher
//! as a whole. A deferred placeholder is
//! floored at the key its visits popped at, which none of their successors
//! undercuts. A pending answer needs no floor: a final weight of `h(q)`
//! makes every class tight for `q`, and any other weight is at least one
//! more.

use std::sync::Arc;
use std::time::Instant;

use omega_graph::{GraphStore, NodeId, NodeSummary};
use omega_ontology::Ontology;

use crate::answer::ConjunctAnswer;
use crate::error::{OmegaError, Result};
use crate::eval::dr::DrQueue;
use crate::eval::fault::{fire as fault_fire, FaultPoint};
use crate::eval::initial::InitialNodeFeed;
use crate::eval::options::{EvalOptions, ExecOptions, OverloadPolicy};
use crate::eval::plan::ConjunctPlan;
use crate::eval::stats::{EvalStats, TruncationReason};
use crate::eval::succ::{succ, CostFilter, SuccTransition, Successors, WideRun, BLOCK, RUN_END};
use crate::eval::tuple::{Tuple, TupleKind};
use crate::eval::visited::{PairSet, VisitedSet};
use crate::eval::AnswerStream;
use crate::govern::{ResourceGovernor, TupleReservation};

/// Ranked, incremental evaluation of one compiled conjunct.
///
/// Answers are produced in non-decreasing distance order. The evaluator is a
/// pull-based iterator: nothing beyond what is needed for the next answer is
/// computed, and a seed cursor in `D_R` releases the initial nodes a batch
/// at a time, each once the work at the seeds' key has run out (Section
/// 3.3 / 3.4 of the paper; see "Seeds as a cursor").
///
/// ## Cost guidance
///
/// The queue is keyed by `f = g + h'` where `h'` is the plan's admissible
/// accept lower bound for the tuple's state and node
/// ([`ConjunctPlan::bound`], see "Keys from the summary"); tuples whose
/// state or node class is dead, or whose `f` provably exceeds the distance
/// ceiling, are pruned; and each tuple's positive-cost successors (wildcard
/// edits, relaxations) are *deferred*: the fresh pop expands only the 0-cost
/// skeleton, and a placeholder re-queued at `g + defer_delta[state]`
/// materialises the rest only once the cursor reaches the first key at which
/// any of them could matter, so a top-`k` run never pays for the flexible
/// frontier beyond the `k`-th distance. A plan compiled with
/// [`EvalOptions::cost_guided`] off carries the trivial bound `h ≡ 0`, the
/// paper's plain distance order, and runs here the same way: the two bounds
/// emit the same answers per distance, in non-decreasing distance, and
/// differ only in tie order within a distance and in work (see the module
/// tests and `tests/prop_end_to_end.rs`).
pub struct ConjunctEvaluator<'a> {
    graph: &'a GraphStore,
    /// The graph's node summary, whose classes the plan's bound is over.
    summary: &'a NodeSummary,
    ontology: &'a Ontology,
    /// The compiled plan, shared with the prepared query instead of cloned
    /// per run.
    plan: Arc<ConjunctPlan>,
    /// The request's distance ceiling, copied out of its [`ExecOptions`] so
    /// that `push` reads a field of its own (`None` = unbounded).
    max_distance: Option<u32>,
    /// Loop counter used to pace the wall-clock deadline checks.
    ticks: u64,
    dr: DrQueue,
    /// Packed-key / dense-bitmap membership over `(start, node, state)`.
    visited: VisitedSet,
    /// The paper's `answers_R`, keyed on the raw `(v, n)` pair.
    answers_seen: PairSet,
    /// Deduplication of *emitted* answers on their normalised bindings
    /// (relevant when RELAX seeds several class ancestors for one constant).
    emitted: PairSet,
    feed: InitialNodeFeed,
    /// `Succ`'s output buffers, reused by every expansion, and the arena the
    /// queued runs read their members from.
    successors: Successors,
    /// Runs (cursors and the three kinds of block run) queued in `D_R`; the
    /// arena is cleared whenever none is.
    cursors: usize,
    /// This evaluator's chunked claim on the database-wide tuple pool (when
    /// it runs under a governor); releases on drop.
    reservation: Option<TupleReservation>,
    /// Why the most recent budget trip happened, captured at the trip site
    /// so the degrade wrapper can record it.
    trip_reason: Option<TruncationReason>,
    /// Set once graceful degradation has ended this stream: every further
    /// `get_next` returns `Ok(None)` instead of resuming the traversal.
    degraded: bool,
    stats: EvalStats,
    /// The request's other limits, copied out of it too: the live-tuple
    /// budget, the deadline and what a tripped budget does. Declared last:
    /// beside `max_distance` they made Q8 and Q9 APPROX ~8 % slower in
    /// process (2-CPU Xeon; field layout, not extra work).
    max_tuples: Option<usize>,
    deadline: Option<Instant>,
    on_overload: OverloadPolicy,
    /// The key the seed cursor enters `D_R` at; `None` when a dead initial
    /// state or the distance ceiling pruned it.
    seed_key: Option<u32>,
}

impl<'a> ConjunctEvaluator<'a> {
    /// Creates an evaluator for `plan` under the limits of `request`
    /// (distance ceiling, tuple budget, deadline, overload policy), drawing
    /// its live tuples from `govern`'s shared pool when there is one.
    pub fn new(
        plan: Arc<ConjunctPlan>,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        request: &ExecOptions,
        govern: Option<&Arc<ResourceGovernor>>,
    ) -> ConjunctEvaluator<'a> {
        Self::build(plan, graph, ontology, request, govern, false)
    }

    /// The same, for a rank join's dependent input: it seeds only the
    /// subject values handed to [`AnswerStream::seed`] (see "Seeds as a
    /// cursor").
    pub fn dependent(
        plan: Arc<ConjunctPlan>,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        request: &ExecOptions,
        govern: Option<&Arc<ResourceGovernor>>,
    ) -> ConjunctEvaluator<'a> {
        Self::build(plan, graph, ontology, request, govern, true)
    }

    fn build(
        plan: Arc<ConjunctPlan>,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        request: &ExecOptions,
        govern: Option<&Arc<ResourceGovernor>>,
        dependent: bool,
    ) -> ConjunctEvaluator<'a> {
        let feed = InitialNodeFeed::new(&plan, graph, ontology, plan.batch_size, dependent);
        let dr = DrQueue::new(plan.prioritize_final);
        let visited = VisitedSet::new(graph.node_count(), plan.nfa.state_count(), &plan.seeds);
        let mut evaluator = ConjunctEvaluator {
            graph,
            summary: graph.summary(),
            ontology,
            plan,
            max_distance: request.max_distance,
            max_tuples: request.max_tuples,
            deadline: request.deadline_from_now(),
            on_overload: request.on_overload,
            ticks: 0,
            dr,
            visited,
            answers_seen: PairSet::new(),
            emitted: PairSet::new(),
            feed,
            successors: Successors::default(),
            cursors: 0,
            reservation: govern.map(ResourceGovernor::reservation),
            trip_reason: None,
            degraded: false,
            stats: EvalStats::default(),
            seed_key: None,
        };
        evaluator.seed_key = evaluator.push(evaluator.seed_cursor(), evaluator.summary.all());
        if dependent && evaluator.seed_key.is_some() {
            // Nothing is handed yet: the cursor waits for the first seed.
            evaluator.dr.pop();
        }
        evaluator
    }

    /// The tuple that stands for the feed in `D_R`.
    fn seed_cursor(&self) -> Tuple {
        Tuple {
            kind: TupleKind::Seeds,
            ..Tuple::seed(NodeId(0), self.plan.nfa.initial(), 0)
        }
    }

    /// The compiled plan driving this evaluator.
    pub fn plan(&self) -> &ConjunctPlan {
        &self.plan
    }

    /// Counts and enqueues a traversal or final tuple.
    fn add_tuple(&mut self, tuple: Tuple) -> Result<()> {
        let classes = 1 << self.summary.class_of(tuple.node);
        if self.push(tuple, classes).is_none() {
            return Ok(());
        }
        self.stats.tuples_added += 1;
        self.check_budget()
    }

    /// Pushes `tuple` into `D_R` at its key — `g`, plus for a tuple of the
    /// traversal the plan's bound for its state and `classes`, the summary
    /// classes of the node or run it stands for — unless a dead state or
    /// class or the distance ceiling prunes it; the key it went in at. A
    /// run stands for members in one state at one distance, so it is
    /// pruned exactly when each of them would be.
    fn push(&mut self, tuple: Tuple, classes: u64) -> Option<u32> {
        let mut key = tuple.distance;
        if !tuple.is_final() {
            // A dead state or class can never reach acceptance on this
            // graph: the tuple is dropped outright (it is *not*
            // `suppressed` — no higher ceiling can ever recover an answer
            // from it).
            let Some(bound) = self.plan.bound(tuple.state, classes) else {
                self.stats.pruned_dead += 1;
                return None;
            };
            self.stats.raised_keys += u64::from(bound > self.plan.bounds.get(tuple.state));
            key = key.saturating_add(bound);
        }
        self.enqueue(tuple, key).then_some(key)
    }

    /// Pushes `tuple` into `D_R` at `key` unless the distance ceiling
    /// prunes it; whether it went in.
    fn enqueue(&mut self, tuple: Tuple, key: u32) -> bool {
        if let Some(max) = self.max_distance {
            if tuple.distance > max {
                self.stats.suppressed += 1;
                return false;
            }
            // Admissible bound pruning: every answer derived from this
            // tuple has final distance ≥ its key, so beyond the ceiling it
            // cannot contribute (but might under a higher one — hence also
            // `suppressed`).
            if key > max {
                self.stats.suppressed += 1;
                self.stats.pruned_bound += 1;
                return false;
            }
        }
        self.dr.push(tuple, key);
        true
    }

    /// Enqueues a placeholder of `kind` — [`TupleKind::Deferred`] or
    /// [`TupleKind::DeferredRun`] — for the positive-cost expansion of the
    /// visits `visits` stands for, keyed at the first point any of their
    /// successors could matter, and not below `floor`, the key the visits
    /// popped at. Whether it went in: every deferred successor has `g + h`
    /// at least that key, so `enqueue` prunes it past the ceiling.
    fn add_deferred(&mut self, visits: Tuple, kind: TupleKind, floor: u32) -> Result<bool> {
        let delta = self.plan.defer_delta(visits.state);
        if delta == u32::MAX {
            return Ok(false); // no live positive-cost transitions
        }
        let key = visits.distance.saturating_add(delta).max(floor);
        if !self.enqueue(Tuple { kind, ..visits }, key) {
            return Ok(false);
        }
        self.check_budget()?;
        Ok(true)
    }

    fn check_budget(&mut self) -> Result<()> {
        let live = self.dr.len() + self.visited.len() + self.successors.arena.len();
        if fault_fire(FaultPoint::BudgetAcquire) {
            self.trip_reason = Some(TruncationReason::PoolExhausted);
            return Err(OmegaError::ResourceExhausted { tuples: live });
        }
        if let Some(max) = self.max_tuples {
            if live > max {
                self.trip_reason = Some(TruncationReason::TupleBudget);
                return Err(OmegaError::ResourceExhausted { tuples: live });
            }
        }
        if let Some(reservation) = &mut self.reservation {
            // Grow this evaluator's claim on the shared pool to cover its
            // live occupancy; a refusal (pool saturated beyond the bounded
            // backoff) trips exactly like an exceeded per-query budget.
            if !reservation.covers(live) {
                self.trip_reason = Some(TruncationReason::PoolExhausted);
                return Err(OmegaError::ResourceExhausted { tuples: live });
            }
        }
        Ok(())
    }

    /// A seed cursor popped at `key`: re-queued there first while the feed
    /// has seeds, then the feed's next batch goes in above it (see "Seeds
    /// as a cursor").
    fn release_seeds(&mut self, cursor: Tuple, key: u32) -> Result<()> {
        if self.feed.has_more() {
            self.dr.push(cursor, key);
        }
        // Moved out for the batch so that `add_tuple` can borrow `self`.
        let mut feed = std::mem::take(&mut self.feed);
        let released = feed
            .release(|node, distance| self.add_tuple(Tuple::seed(node, cursor.state, distance)));
        self.feed = feed;
        released
    }

    /// Whether the final-state annotation accepts `node` (the constant-object
    /// constraint and the `(?X, R, ?X)` same-variable constraint).
    fn final_annotation_matches(&self, tuple: &Tuple) -> bool {
        if let Some(required) = self.plan.final_constraint {
            if tuple.node != required {
                return false;
            }
        }
        if self.plan.require_equal_endpoints && tuple.node != tuple.start {
            return false;
        }
        true
    }

    /// Normalises a final tuple into a [`ConjunctAnswer`], deduplicating on
    /// the normalised bindings. Returns `None` for duplicates.
    fn make_answer(&mut self, tuple: Tuple) -> Option<ConjunctAnswer> {
        let (mut x, mut y) = if self.plan.reversed {
            (tuple.node, tuple.start)
        } else {
            (tuple.start, tuple.node)
        };
        // Constants keep their original binding even when evaluation started
        // from a relaxed ancestor class.
        if self.plan.subject.as_constant().is_some() {
            if let Some(node) = self.plan.subject_node {
                x = node;
            }
        }
        if self.plan.object.as_constant().is_some() {
            if let Some(node) = self.plan.object_node {
                y = node;
            }
        }
        if !self.emitted.insert(x, y) {
            return None;
        }
        Some(ConjunctAnswer {
            x,
            y,
            distance: tuple.distance,
        })
    }

    /// The paper's `GetNext`: the next answer in non-decreasing distance
    /// order, or `Ok(None)` when evaluation is complete.
    ///
    /// Under [`OverloadPolicy::Degrade`] / [`OverloadPolicy::Shed`], a
    /// tripped resource budget (per-query `max_tuples` or the governor's
    /// shared pool) ends the stream cleanly instead of erroring: every
    /// answer already emitted has rank strictly below the evaluation
    /// frontier, so the yielded set is bit-identical to a prefix of the
    /// uncapped run. The truncation is recorded in the stats (`degraded`,
    /// `truncation`).
    pub fn get_next(&mut self) -> Result<Option<ConjunctAnswer>> {
        if self.degraded {
            return Ok(None);
        }
        match self.get_next_inner() {
            Err(OmegaError::ResourceExhausted { .. })
                if self.on_overload != OverloadPolicy::Fail =>
            {
                self.degraded = true;
                self.stats.degraded = true;
                self.stats.truncation = Some(
                    self.trip_reason
                        .take()
                        .unwrap_or(TruncationReason::TupleBudget),
                );
                Ok(None)
            }
            other => other,
        }
    }

    fn get_next_inner(&mut self) -> Result<Option<ConjunctAnswer>> {
        loop {
            // Deadline check, paced to one clock read per 64 tuples; the
            // first iteration always checks so a 0-ms deadline fails fast.
            if self.ticks & 63 == 0 {
                if let Some(deadline) = self.deadline {
                    // The fault hook models a clock jumping past the
                    // deadline (NTP step, VM pause): the evaluator must
                    // treat it exactly like a genuinely expired deadline.
                    if Instant::now() >= deadline || fault_fire(FaultPoint::DeadlineClock) {
                        return Err(OmegaError::DeadlineExceeded);
                    }
                }
            }
            self.ticks = self.ticks.wrapping_add(1);
            if self.cursors == 0 {
                // Nothing queued reads the arena any more.
                self.successors.arena.clear();
            }
            let Some((tuple, key)) = self.dr.pop() else {
                return Ok(None);
            };
            match tuple.kind {
                // The next batch of initial nodes (lines 15–17).
                TupleKind::Seeds => self.release_seeds(tuple, key)?,
                // Not a tuple of the traversal: it makes some visits.
                TupleKind::Cursor => self.next_block(tuple, key)?,
                TupleKind::Final | TupleKind::FinalRun => {
                    self.stats.tuples_processed += 1;
                    if let Some(answer) = self.next_pending(tuple, key) {
                        self.stats.answers += 1;
                        return Ok(Some(answer));
                    }
                }
                TupleKind::Deferred | TupleKind::DeferredRun => {
                    self.stats.tuples_processed += 1;
                    self.expand_deferred(tuple)?;
                }
                TupleKind::Visit => {
                    self.stats.tuples_processed += 1;
                    if !self.visited.insert(tuple.start, tuple.node, tuple.state.0) {
                        continue;
                    }
                    // Fresh pop: only the 0-cost skeleton successors enter
                    // the queue now; everything with positive cost is
                    // represented by one deferred placeholder until the
                    // cursor needs it.
                    self.expand(tuple, &[tuple.node], CostFilter::ZeroOnly)?;
                    self.add_deferred(tuple, TupleKind::Deferred, key)?;
                    // Enqueue a pending answer when the state is final
                    // (lines 12–13).
                    if let Some(weight) = self.plan.nfa.final_weight(tuple.state) {
                        if self.final_annotation_matches(&tuple)
                            && !self.answers_seen.contains(tuple.start, tuple.node)
                        {
                            self.add_tuple(Tuple {
                                kind: TupleKind::Final,
                                distance: tuple.distance + weight,
                                ..tuple
                            })?;
                        }
                    }
                }
            }
        }
    }

    /// A pending answer popped at `key`, or a [`TupleKind::FinalRun`]'s
    /// next: its first member the final annotation and `answers_R` admit
    /// with a new answer. The rest of the run is re-queued at `key` first.
    fn next_pending(&mut self, tuple: Tuple, key: u32) -> Option<ConjunctAnswer> {
        if tuple.kind == TupleKind::Final {
            // Annotation checked when it was queued.
            let new = self.answers_seen.insert(tuple.start, tuple.node);
            return new.then(|| self.make_answer(tuple)).flatten();
        }
        let mut at = tuple.node.index();
        while self.successors.arena[at] != RUN_END {
            let member = Tuple {
                node: self.successors.arena[at],
                kind: TupleKind::Final,
                ..tuple
            };
            at += 1;
            if self.final_annotation_matches(&member)
                && self.answers_seen.insert(member.start, member.node)
            {
                if let Some(answer) = self.make_answer(member) {
                    let mut rest = tuple;
                    rest.node = NodeId(at as u32);
                    self.dr.push(rest, key);
                    return Some(answer);
                }
            }
        }
        self.cursors -= 1;
        None
    }

    /// A popped deferred placeholder, or the members of a
    /// [`TupleKind::DeferredRun`]: the postponed positive-cost expansion of
    /// visits already made — the cursor has reached the first key at which
    /// any of their wildcard / edit / relaxation successors can matter. No
    /// visited insert and no pending answer: the visits did both.
    fn expand_deferred(&mut self, tuple: Tuple) -> Result<()> {
        if tuple.kind == TupleKind::Deferred {
            self.stats.deferred_expansions += 1;
            return self.expand(tuple, &[tuple.node], CostFilter::PositiveOnly);
        }
        self.cursors -= 1;
        // Copied out: the expansion may append to the arena.
        let run = &self.successors.arena[tuple.node.index()..];
        let len = run.iter().position(|&m| m == RUN_END).unwrap_or(0);
        let mut members = [RUN_END; BLOCK];
        members[..len].copy_from_slice(&run[..len]);
        self.stats.deferred_expansions += len as u64;
        self.expand(tuple, &members[..len], CostFilter::PositiveOnly)
    }

    /// Expands `nodes`, each visited in `run`'s state at `run`'s distance
    /// from `run`'s start, through the product automaton (lines 10–11 of
    /// the paper's `GetNext`), pushing the successors `filter` admits:
    /// narrow runs one tuple per neighbour, wide runs one cursor per
    /// transition.
    fn expand(&mut self, run: Tuple, nodes: &[NodeId], filter: CostFilter) -> Result<()> {
        succ(
            self.graph,
            self.ontology,
            self.plan.inference,
            &self.plan.nfa,
            &self.plan.expansion,
            run.state,
            nodes,
            filter,
            &mut self.successors,
            &mut self.stats,
        );
        // The step and run buffers are moved out for the duration of the
        // push loop so that `add_tuple` can borrow `self` mutably; their
        // capacity is kept, and the arena stays where the budget counts it.
        let steps = std::mem::take(&mut self.successors.steps);
        let wide = std::mem::take(&mut self.successors.wide);
        let pushed = self.push_successors(&run, &steps, &wide);
        self.successors.steps = steps;
        self.successors.wide = wide;
        pushed
    }

    /// Queues `succ`'s output for visits from `tuple`'s start at its
    /// distance: each step as a visit, each wide run as a cursor.
    fn push_successors(
        &mut self,
        tuple: &Tuple,
        steps: &[SuccTransition],
        wide: &[WideRun],
    ) -> Result<()> {
        if !wide.is_empty() {
            self.check_arena()?;
        }
        for t in steps {
            if !self.visited.contains(tuple.start, t.node, t.state.0) {
                self.add_tuple(Tuple {
                    start: tuple.start,
                    node: t.node,
                    state: t.state,
                    distance: tuple.distance + t.cost,
                    kind: TupleKind::Visit,
                })?;
            }
        }
        // The last run read, how far, and its members' classes so far: a
        // run's transitions are adjacent.
        let mut read = (RUN_END.0, 0, 0);
        for w in wide {
            // Queued where the run's first visits would be; `tuples_added`
            // counts them only as blocks visit them.
            let tight = self.plan.signature.tight(w.state);
            let classes = if tight == self.summary.all() {
                tight
            } else {
                if read.0 != w.at {
                    read = (w.at, w.at as usize, 0);
                }
                self.read_classes(&mut read, tight)
            };
            let cursor = Tuple {
                start: tuple.start,
                node: NodeId(w.at),
                state: w.state,
                distance: tuple.distance + w.cost,
                kind: TupleKind::Cursor,
            };
            if self.push(cursor, classes).is_some() {
                self.cursors += 1;
                self.check_budget()?;
            }
        }
        Ok(())
    }

    /// Reads a run's members on from arena position `read.1`, adding their
    /// summary classes to `read.2`, until one of them is in `tight` or the
    /// run ends: enough to key a cursor at its members' least key.
    fn read_classes(&self, read: &mut (u32, usize, u64), tight: u64) -> u64 {
        let arena = &self.successors.arena;
        while read.2 & tight == 0 && arena[read.1] != RUN_END {
            read.2 |= 1 << self.summary.class_of(arena[read.1]);
            read.1 += 1;
        }
        read.2
    }

    /// Trips as an exceeded budget does once the arena's length no longer
    /// fits the `u32` position a run holds, before one is queued.
    fn check_arena(&mut self) -> Result<()> {
        let arena = self.successors.arena.len();
        if arena > RUN_END.index() {
            self.trip_reason = Some(TruncationReason::TupleBudget);
            return Err(OmegaError::ResourceExhausted { tuples: arena });
        }
        Ok(())
    }

    /// Copies `members` into the arena, closed by [`RUN_END`]: the position
    /// a run over them holds.
    fn copy_run(&mut self, members: &[NodeId]) -> Result<NodeId> {
        self.check_arena()?;
        let arena = &mut self.successors.arena;
        let at = NodeId(arena.len() as u32);
        arena.extend_from_slice(members);
        arena.push(RUN_END);
        Ok(at)
    }

    /// A cursor popped at `key`: its next [`BLOCK`] members, handled as a
    /// set (see "Successors as cursors") after the rest of its run is
    /// re-queued at `key`. Members keyed at `key` and not visited yet are
    /// visited in place, members keyed higher go back in as one cursor at
    /// their key, and dead ones are dropped.
    fn next_block(&mut self, run: Tuple, key: u32) -> Result<()> {
        self.stats.cursor_blocks += 1;
        let at = run.node.index();
        let members = &self.successors.arena[at..];
        let len = members
            .iter()
            .take(BLOCK)
            .position(|&m| m == RUN_END)
            .unwrap_or(BLOCK);
        // `members[len]` exists: the end marker stopped the block, or a full
        // block lies before it. `at + len` is below the arena's length, which
        // fits a `u32`.
        if members[len] != RUN_END {
            let rest = Tuple {
                node: NodeId((at + len) as u32),
                ..run
            };
            self.dr.push(rest, key);
        } else {
            self.cursors -= 1;
        }
        // The run's key before its members' classes add their one.
        let least = run.distance.saturating_add(self.plan.bounds.get(run.state));
        let mut fresh = [RUN_END; BLOCK];
        let mut later = [RUN_END; BLOCK];
        let (mut fresh_len, mut later_len) = (0, 0);
        for i in at..at + len {
            let node = self.successors.arena[i];
            let classes = 1 << self.summary.class_of(node);
            match self.plan.signature.offset(run.state, classes) {
                Some(offset) if least.saturating_add(offset) <= key => {
                    if self.visited.insert(run.start, node, run.state.0) {
                        fresh[fresh_len] = node;
                        fresh_len += 1;
                    }
                }
                _ if self.visited.contains(run.start, node, run.state.0) => {}
                Some(_) => {
                    later[later_len] = node;
                    later_len += 1;
                }
                None => self.stats.pruned_dead += 1,
            }
        }
        let fresh = &fresh[..fresh_len];
        self.stats.tuples_added += fresh_len as u64;
        self.stats.tuples_processed += fresh_len as u64;
        self.expand(run, fresh, CostFilter::ZeroOnly)?;
        self.queue_owed(run, fresh, key)?;
        if later_len > 0 {
            // Members not tight where the block is: one key higher.
            self.stats.raised_keys += later_len as u64;
            let later = Tuple {
                node: self.copy_run(&later[..later_len])?,
                ..run
            };
            if self.enqueue(later, least.saturating_add(1)) {
                self.cursors += 1;
            }
            self.check_budget()?;
        }
        Ok(())
    }

    /// Queues what the `members` of `run` visited in place at `key` still
    /// owe, over one arena copy: a [`TupleKind::DeferredRun`] (not below
    /// `key`) and a [`TupleKind::FinalRun`].
    fn queue_owed(&mut self, run: Tuple, members: &[NodeId], key: u32) -> Result<()> {
        let defers = self.plan.defer_delta(run.state) != u32::MAX;
        let weight = self.plan.nfa.final_weight(run.state);
        if members.is_empty() || (!defers && weight.is_none()) {
            return Ok(());
        }
        let owed = Tuple {
            node: self.copy_run(members)?,
            ..run
        };
        if defers && self.add_deferred(owed, TupleKind::DeferredRun, key)? {
            self.cursors += 1;
        }
        if let Some(weight) = weight {
            let pending = Tuple {
                kind: TupleKind::FinalRun,
                distance: owed.distance + weight,
                ..owed
            };
            if self.push(pending, 0).is_some() {
                self.cursors += 1;
                self.stats.tuples_added += 1;
            }
        }
        self.check_budget()
    }
}

impl AnswerStream for ConjunctEvaluator<'_> {
    fn next_answer(&mut self) -> Result<Option<ConjunctAnswer>> {
        self.get_next()
    }

    /// `get_next` with `D_R` capped at `ceiling`: popping stops where the
    /// least key would move past it, so a dependent pulled at its least
    /// key never expands the work of the keys above.
    fn next_answer_until(&mut self, ceiling: u32) -> Result<Option<ConjunctAnswer>> {
        self.dr.ceiling = ceiling;
        let next = self.get_next();
        self.dr.ceiling = u32::MAX;
        next
    }

    /// A dependent's feed takes `node` if it is a candidate not handed
    /// before, and the seed cursor goes back into `D_R` if the feed had run
    /// dry. An independent evaluator ignores it.
    fn seed(&mut self, node: NodeId) {
        let idle = !self.feed.has_more();
        self.feed.hand(node);
        if let Some(key) = self.seed_key.filter(|_| idle && self.feed.has_more()) {
            self.dr.push(self.seed_cursor(), key);
        }
    }

    /// `D_R`'s least key — keys are admissible, so no answer still to come
    /// is cheaper — and, when `seeded`, the key a seed handed later enters
    /// at. Nothing once a tripped budget has ended the stream.
    fn floor(&mut self, seeded: bool) -> Option<u32> {
        if self.degraded {
            return None;
        }
        let queued = self.dr.least_key();
        match (queued, self.seed_key.filter(|_| seeded)) {
            (Some(q), Some(s)) => Some(q.min(s)),
            (q, s) => q.or(s),
        }
    }

    fn stats(&self) -> EvalStats {
        self.stats
    }
}

/// Compiles a conjunct and returns its plain evaluator in one call: no
/// limits, no governor.
pub fn evaluate_conjunct<'a>(
    conjunct: &crate::query::ast::Conjunct,
    graph: &'a GraphStore,
    ontology: &'a Ontology,
    options: &EvalOptions,
) -> Result<ConjunctEvaluator<'a>> {
    let plan = crate::eval::plan::compile_conjunct(conjunct, graph, ontology, options)?;
    Ok(ConjunctEvaluator::new(
        Arc::new(plan),
        graph,
        ontology,
        &ExecOptions::new(),
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ast::QueryMode;
    use crate::query::parser::parse_query;

    /// A small social/typed graph exercising forward and reverse traversal,
    /// type edges and a two-level ontology.
    fn setup() -> (GraphStore, Ontology) {
        let mut g = GraphStore::new();
        g.add_triple("alice", "knows", "bob");
        g.add_triple("bob", "knows", "carol");
        g.add_triple("carol", "knows", "dave");
        g.add_triple("alice", "worksAt", "acme");
        g.add_triple("bob", "worksAt", "acme");
        g.add_triple("alice", "type", "Student");
        g.add_triple("bob", "type", "Person");
        g.add_triple("carol", "type", "Student");
        let mut o = Ontology::new();
        let student = g.node_by_label("Student").unwrap();
        let person = g.node_by_label("Person").unwrap();
        o.add_subclass(student, person).unwrap();
        let knows = g.label_id("knows").unwrap();
        let related = g.intern_label("related");
        o.add_subproperty(knows, related).unwrap();
        (g, o)
    }

    fn run(query: &str, graph: &GraphStore, ontology: &Ontology) -> Vec<ConjunctAnswer> {
        run_with(query, graph, ontology, &EvalOptions::default())
    }

    fn run_with(
        query: &str,
        graph: &GraphStore,
        ontology: &Ontology,
        options: &EvalOptions,
    ) -> Vec<ConjunctAnswer> {
        let q = parse_query(query).unwrap();
        let mut eval = evaluate_conjunct(&q.conjuncts[0], graph, ontology, options).unwrap();
        eval.collect(None).unwrap()
    }

    /// The evaluator of `conjunct`, compiled under `options`, under the
    /// limits of `request`.
    fn evaluate_under<'a>(
        conjunct: &crate::query::ast::Conjunct,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        options: &EvalOptions,
        request: &ExecOptions,
    ) -> ConjunctEvaluator<'a> {
        let plan = crate::eval::plan::compile_conjunct(conjunct, graph, ontology, options).unwrap();
        ConjunctEvaluator::new(Arc::new(plan), graph, ontology, request, None)
    }

    fn labels(graph: &GraphStore, answers: &[ConjunctAnswer]) -> Vec<(String, String, u32)> {
        answers
            .iter()
            .map(|a| {
                (
                    graph.node_label(a.x).to_owned(),
                    graph.node_label(a.y).to_owned(),
                    a.distance,
                )
            })
            .collect()
    }

    #[test]
    fn exact_constant_to_variable() {
        let (g, o) = setup();
        let answers = run("(?X) <- (alice, knows, ?X)", &g, &o);
        assert_eq!(
            labels(&g, &answers),
            vec![("alice".into(), "bob".into(), 0)]
        );
    }

    #[test]
    fn exact_path_expression() {
        let (g, o) = setup();
        let answers = run("(?X) <- (alice, knows.knows, ?X)", &g, &o);
        assert_eq!(
            labels(&g, &answers),
            vec![("alice".into(), "carol".into(), 0)]
        );
    }

    #[test]
    fn exact_transitive_closure() {
        let (g, o) = setup();
        let answers = run("(?X) <- (alice, knows+, ?X)", &g, &o);
        let ys: Vec<String> = answers.iter().map(|a| g.node_label(a.y).into()).collect();
        assert_eq!(ys.len(), 3);
        assert!(ys.contains(&"bob".to_owned()));
        assert!(ys.contains(&"carol".to_owned()));
        assert!(ys.contains(&"dave".to_owned()));
        assert!(answers.iter().all(|a| a.distance == 0));
    }

    #[test]
    fn reverse_traversal() {
        let (g, o) = setup();
        let answers = run("(?X) <- (acme, worksAt-, ?X)", &g, &o);
        let ys: Vec<String> = answers.iter().map(|a| g.node_label(a.y).into()).collect();
        assert_eq!(ys.len(), 2);
        assert!(ys.contains(&"alice".to_owned()) && ys.contains(&"bob".to_owned()));
    }

    #[test]
    fn constant_object_is_reversed_and_bindings_unswapped() {
        let (g, o) = setup();
        let answers = run("(?X) <- (?X, knows, carol)", &g, &o);
        assert_eq!(
            labels(&g, &answers),
            vec![("bob".into(), "carol".into(), 0)]
        );
    }

    #[test]
    fn both_constants_check_reachability() {
        let (g, o) = setup();
        let hit = run(
            "(?X) <- (alice, knows+, ?X), (alice, knows.knows, carol)",
            &g,
            &o,
        );
        assert!(!hit.is_empty());
        let q = parse_query("(?X) <- (alice, knows+, ?X), (alice, knows, dave)").unwrap();
        let mut eval = evaluate_conjunct(&q.conjuncts[1], &g, &o, &EvalOptions::default()).unwrap();
        assert!(eval.collect(None).unwrap().is_empty());
    }

    #[test]
    fn variable_variable_conjunct() {
        let (g, o) = setup();
        let answers = run("(?X, ?Y) <- (?X, worksAt, ?Y)", &g, &o);
        assert_eq!(answers.len(), 2);
        assert!(answers
            .iter()
            .all(|a| g.node_label(a.y) == "acme" && a.distance == 0));
    }

    #[test]
    fn variable_variable_with_star_includes_identity_pairs() {
        let (g, o) = setup();
        let answers = run("(?X, ?Y) <- (?X, knows*, ?Y)", &g, &o);
        // every node pairs with itself (9 nodes) plus the 6 proper knows-paths
        let identity = answers.iter().filter(|a| a.x == a.y).count();
        assert_eq!(identity, g.node_count());
        let proper = answers.iter().filter(|a| a.x != a.y).count();
        assert_eq!(proper, 6); // alice->{bob,carol,dave}, bob->{carol,dave}, carol->dave
    }

    #[test]
    fn same_variable_requires_cycles() {
        let (g, o) = setup();
        // no knows-cycles in the graph
        let answers = run("(?X) <- (?X, knows+, ?X)", &g, &o);
        assert!(answers.is_empty());
        // add a cycle and try again
        let mut g2 = g.clone();
        g2.add_triple("dave", "knows", "alice");
        let answers = run("(?X) <- (?X, knows+, ?X)", &g2, &o);
        assert_eq!(answers.len(), 4, "every node on the cycle loops to itself");
        assert!(answers.iter().all(|a| a.x == a.y));
    }

    #[test]
    fn answers_arrive_in_nondecreasing_distance() {
        let (g, o) = setup();
        let answers = run("(?X) <- APPROX (alice, knows.knows, ?X)", &g, &o);
        let distances: Vec<u32> = answers.iter().map(|a| a.distance).collect();
        let mut sorted = distances.clone();
        sorted.sort_unstable();
        assert_eq!(distances, sorted);
        assert!(!answers.is_empty());
    }

    #[test]
    fn approx_finds_answers_where_exact_finds_none() {
        let (g, o) = setup();
        // `knows` spelled with the wrong direction: no exact answers, but
        // APPROX recovers carol's acquaintances via substitution at cost 1.
        let exact = run("(?X) <- (carol, knows-.knows-, ?X)", &g, &o);
        assert_eq!(exact.len(), 1); // only alice via the genuinely reversed path
        let approx = run("(?X) <- APPROX (carol, knows-.knows-, ?X)", &g, &o);
        assert!(approx.len() > exact.len());
        assert_eq!(approx[0].distance, 0, "exact answers come first");
        assert!(approx
            .iter()
            .skip(1)
            .all(|a| a.distance >= approx[0].distance));
    }

    #[test]
    fn approx_distance_reflects_number_of_edits() {
        let (g, o) = setup();
        // alice --knows--> bob: matching `worksAt.worksAt` against it needs
        // one substitution and one deletion.
        let answers = run("(?X) <- APPROX (alice, worksAt.worksAt.type, ?X)", &g, &o);
        let to_student = answers
            .iter()
            .find(|a| g.node_label(a.y) == "Student")
            .expect("Student reachable via type after two edits");
        assert!(to_student.distance >= 1);
    }

    #[test]
    fn relax_class_constant_climbs_the_hierarchy() {
        let (g, o) = setup();
        // Exactly: only alice and carol are typed Student.
        let exact = run("(?X) <- (Student, type-, ?X)", &g, &o);
        assert_eq!(exact.len(), 2);
        // RELAX Person: direct Person instances at distance 0, Students by
        // inference at distance 0, nothing else.
        let relax_person = run("(?X) <- RELAX (Person, type-, ?X)", &g, &o);
        assert_eq!(relax_person.len(), 3);
        // RELAX Student: Students at 0, then Person instances at distance 1
        // (one step up the class hierarchy).
        let relax_student = run("(?X) <- RELAX (Student, type-, ?X)", &g, &o);
        assert_eq!(relax_student.len(), 3);
        let bob = relax_student
            .iter()
            .find(|a| g.node_label(a.y) == "bob")
            .unwrap();
        assert_eq!(bob.distance, 1);
        assert_eq!(relax_student.iter().filter(|a| a.distance == 0).count(), 2);
    }

    #[test]
    fn relax_superproperty_matches_subproperty_edges() {
        let (g, o) = setup();
        // `related` has no edges of its own; under RELAX its subproperty
        // `knows` matches by inference at distance 0.
        let exact = run("(?X) <- (alice, related, ?X)", &g, &o);
        assert!(exact.is_empty());
        let relaxed = run("(?X) <- RELAX (alice, related, ?X)", &g, &o);
        assert_eq!(
            labels(&g, &relaxed),
            vec![("alice".into(), "bob".into(), 0)]
        );
    }

    #[test]
    fn relax_subproperty_reaches_superproperty_at_cost_beta() {
        let (mut g, o) = setup();
        // add an edge labelled `related` (the superproperty) directly
        g.add_triple("alice", "related", "eve");
        let relaxed = run("(?X) <- RELAX (alice, knows, ?X)", &g, &o);
        let eve = relaxed.iter().find(|a| g.node_label(a.y) == "eve").unwrap();
        assert_eq!(eve.distance, 1, "reached via the superproperty at cost β");
        let bob = relaxed.iter().find(|a| g.node_label(a.y) == "bob").unwrap();
        assert_eq!(bob.distance, 0);
    }

    #[test]
    fn resource_budget_aborts_evaluation() {
        let (g, o) = setup();
        let request = ExecOptions::new().with_max_tuples(3);
        let q = parse_query("(?X, ?Y) <- APPROX (?X, knows+, ?Y)").unwrap();
        let mut eval = evaluate_under(&q.conjuncts[0], &g, &o, &EvalOptions::default(), &request);
        let mut result = Ok(None);
        for _ in 0..1000 {
            result = eval.get_next();
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(result, Err(OmegaError::ResourceExhausted { .. })));
    }

    #[test]
    fn deadline_in_the_past_aborts_immediately() {
        let (g, o) = setup();
        let request = ExecOptions::new().with_deadline(Instant::now());
        let q = parse_query("(?X, ?Y) <- APPROX (?X, knows+, ?Y)").unwrap();
        let mut eval = evaluate_under(&q.conjuncts[0], &g, &o, &EvalOptions::default(), &request);
        assert!(matches!(eval.get_next(), Err(OmegaError::DeadlineExceeded)));
    }

    #[test]
    fn far_deadline_does_not_disturb_evaluation() {
        let (g, o) = setup();
        let deadline = Instant::now() + std::time::Duration::from_secs(3600);
        let request = ExecOptions::new().with_deadline(deadline);
        let q = parse_query("(?X) <- APPROX (alice, knows.knows, ?X)").unwrap();
        let mut eval = evaluate_under(&q.conjuncts[0], &g, &o, &EvalOptions::default(), &request);
        let with = eval.collect(None).unwrap();
        let without = run("(?X) <- APPROX (alice, knows.knows, ?X)", &g, &o);
        assert_eq!(with.len(), without.len());
    }

    #[test]
    fn max_distance_caps_answer_distances() {
        let (g, o) = setup();
        let query = "(?X) <- APPROX (alice, worksAt.worksAt, ?X)";
        let unbounded = run(query, &g, &o);
        assert!(unbounded.iter().any(|a| a.distance > 1));
        let q = parse_query(query).unwrap();
        for max in [0, 1] {
            let request = ExecOptions::new().with_max_distance(max);
            let options = EvalOptions::default();
            let mut eval = evaluate_under(&q.conjuncts[0], &g, &o, &options, &request);
            let bounded = eval.collect(None).unwrap();
            assert!(bounded.iter().all(|a| a.distance <= max));
            let expected: Vec<_> = unbounded.iter().filter(|a| a.distance <= max).collect();
            assert_eq!(bounded.len(), expected.len());
            assert!(
                eval.stats().suppressed > 0,
                "some tuples lie beyond the ceiling {max}"
            );
        }
    }

    #[test]
    fn batch_size_one_still_finds_all_answers() {
        let (g, o) = setup();
        let key = |answers: &[ConjunctAnswer]| {
            let mut v: Vec<_> = answers.iter().map(|a| (a.x, a.y, a.distance)).collect();
            v.sort_unstable();
            v
        };
        for query in [
            "(?X, ?Y) <- (?X, knows+, ?Y)",
            "(?X, ?Y) <- APPROX (?X, (knows.knows)|(worksAt.type), ?Y)",
        ] {
            let default_answers = run(query, &g, &o);
            let small_batches = run_with(query, &g, &o, &EvalOptions::default().with_batch_size(1));
            assert_eq!(key(&default_answers), key(&small_batches), "{query}");
        }
    }

    #[test]
    fn final_prioritisation_off_is_still_correct() {
        let (g, o) = setup();
        let with = run("(?X) <- APPROX (alice, knows.knows, ?X)", &g, &o);
        let without = run_with(
            "(?X) <- APPROX (alice, knows.knows, ?X)",
            &g,
            &o,
            &EvalOptions::default().without_final_prioritization(),
        );
        let key = |answers: &[ConjunctAnswer]| {
            let mut v: Vec<_> = answers.iter().map(|a| (a.x, a.y, a.distance)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(&with), key(&without));
    }

    #[test]
    fn stats_are_populated() {
        let (g, o) = setup();
        let q = parse_query("(?X) <- (alice, knows+, ?X)").unwrap();
        let mut eval = evaluate_conjunct(&q.conjuncts[0], &g, &o, &EvalOptions::default()).unwrap();
        let _ = eval.collect(None).unwrap();
        let stats = eval.stats();
        assert!(stats.tuples_added > 0);
        assert!(stats.tuples_processed > 0);
        assert!(stats.succ_calls > 0);
        assert_eq!(stats.answers, 3);
    }

    #[test]
    fn dead_states_kill_ghost_label_queries_outright() {
        let (g, o) = setup();
        // `ghost` labels no edge: the exact automaton's every state is dead
        // against this graph, so cost-guided evaluation prunes the seeds
        // before any expansion.
        let q = parse_query("(?X) <- (alice, knows.ghost.knows, ?X)").unwrap();
        let options = EvalOptions::default().with_cost_guided(true);
        let mut eval = evaluate_conjunct(&q.conjuncts[0], &g, &o, &options).unwrap();
        assert!(eval.collect(None).unwrap().is_empty());
        let guided = eval.stats();
        assert!(guided.pruned_dead > 0, "seeds must be pruned as dead");
        assert_eq!(guided.succ_calls, 0, "no expansion may ever run");

        let unguided_opts = EvalOptions::default().with_cost_guided(false);
        let mut unguided = evaluate_conjunct(&q.conjuncts[0], &g, &o, &unguided_opts).unwrap();
        assert!(
            unguided.collect(None).unwrap().is_empty(),
            "pruning must not change the (empty) answer set"
        );
        assert!(
            unguided.stats().succ_calls > 0,
            "the ablation pays the walk"
        );
    }

    #[test]
    fn bound_pruning_counts_against_the_distance_ceiling() {
        let (g, o) = setup();
        // APPROX of a ghost label: every accepting run needs ≥ 1 edit, so
        // h[initial] ≥ 1 and a ceiling of 0 prunes the seeds by `g + h`
        // before any of them is expanded.
        let q = parse_query("(?X) <- APPROX (alice, ghost, ?X)").unwrap();
        let options = EvalOptions::default().with_cost_guided(true);
        let request = ExecOptions::new().with_max_distance(0);
        let mut eval = evaluate_under(&q.conjuncts[0], &g, &o, &options, &request);
        assert!(eval.collect(None).unwrap().is_empty());
        let stats = eval.stats();
        assert!(stats.pruned_bound > 0, "g + h must exceed the ceiling");
        assert!(
            stats.suppressed >= stats.pruned_bound,
            "bound-pruned tuples also count as suppressed (a higher ceiling could admit them)"
        );
        // Without the ceiling the same query has answers at distance 1.
        let unbounded = run_with(
            "(?X) <- APPROX (alice, ghost, ?X)",
            &g,
            &o,
            &EvalOptions::default().with_cost_guided(true),
        );
        assert!(!unbounded.is_empty());
        assert!(unbounded.iter().all(|a| a.distance >= 1));
    }

    /// Both bounds defer the same edits; the oracles in `tests/` are the
    /// independent check on the distances deferral yields.
    #[test]
    fn deferral_under_the_bound_matches_the_zero_bound_and_reports_its_work() {
        let (g, o) = setup();
        let key = |answers: &[ConjunctAnswer]| {
            let mut v: Vec<_> = answers.iter().map(|a| (a.x, a.y, a.distance)).collect();
            v.sort_unstable();
            v
        };
        // The RELAX query relaxes at the seed side only (`type` has no
        // superproperty here), so its automaton carries no positive-cost
        // transition and legitimately never defers.
        for (query, defers) in [
            ("(?X) <- APPROX (alice, knows.knows, ?X)", true),
            ("(?X, ?Y) <- APPROX (?X, worksAt, ?Y)", true),
            ("(?X) <- RELAX (Student, type-, ?X)", false),
        ] {
            let q = parse_query(query).unwrap();
            let guided_opts = EvalOptions::default().with_cost_guided(true);
            let mut guided = evaluate_conjunct(&q.conjuncts[0], &g, &o, &guided_opts).unwrap();
            let guided_answers = guided.collect(None).unwrap();
            let zero_opts = EvalOptions::default().with_cost_guided(false);
            let mut zero = evaluate_conjunct(&q.conjuncts[0], &g, &o, &zero_opts).unwrap();
            let zero_answers = zero.collect(None).unwrap();
            assert_eq!(
                key(&guided_answers),
                key(&zero_answers),
                "the bound changed answers for {query}"
            );
            for (bound, eval) in [("guided", &guided), ("h ≡ 0", &zero)] {
                assert_eq!(
                    eval.stats().deferred_expansions > 0,
                    defers,
                    "unexpected deferral profile for {query} under {bound}"
                );
            }
            assert!(zero.plan().bounds.dead_states() == 0 && zero.stats().pruned_dead == 0);
        }
    }

    #[test]
    fn seed_batching_stays_lazy_when_the_initial_bound_is_positive() {
        // `ghost` labels no edge, so under APPROX every accepting run needs
        // ≥ 1 edit and h(initial) = 1: seeds enter the queue at key 1, not
        // 0. The seed cursor waits at that key, so it pops again only once
        // the work there is done — a release paced on key 0 alone would
        // let a batch in on *every* loop iteration and flood the whole feed
        // in before the first answer.
        let mut g = GraphStore::new();
        for i in 0..500 {
            g.add_triple(&format!("n{i}"), "p", &format!("m{i}"));
        }
        let o = Ontology::new();
        let q = parse_query("(?X, ?Y) <- APPROX (?X, ghost, ?Y)").unwrap();
        let options = EvalOptions::default().with_cost_guided(true);
        let mut eval = evaluate_conjunct(&q.conjuncts[0], &g, &o, &options).unwrap();
        let first = eval
            .get_next()
            .unwrap()
            .expect("substitution answers exist");
        assert_eq!(first.distance, 1);
        let added = eval.stats().tuples_added;
        assert!(
            added <= 150,
            "one batch (100 seeds) plus its expansions should suffice for \
             the first answer, got {added} tuples added"
        );
    }

    /// `a -p-> b -q-> c` beside `a -p-> Hub`, a class with 5,000 instances:
    /// under APPROX, `(a, p.q, ?X)` substitutes `q` at `Hub` by a wildcard
    /// that reaches every instance at distance 1.
    fn hub_graph() -> (GraphStore, Ontology) {
        let mut g = GraphStore::new();
        g.add_triple("a", "p", "b");
        g.add_triple("b", "q", "c");
        g.add_triple("a", "p", "Hub");
        for i in 0..5_000 {
            g.add_triple(&format!("i{i}"), "type", "Hub");
        }
        g.freeze();
        (g, Ontology::new())
    }

    const HUB_QUERY: &str = "(?X) <- APPROX (a, p.q, ?X)";

    #[test]
    fn a_deferred_wildcard_reads_a_hub_a_block_at_a_time() {
        let (g, o) = hub_graph();
        let q = parse_query(HUB_QUERY).unwrap();
        let options = EvalOptions::default().with_cost_guided(true);
        let mut eval = evaluate_conjunct(&q.conjuncts[0], &g, &o, &options).unwrap();
        let top = eval.collect(Some(10)).unwrap();
        assert_eq!(top.len(), 10);
        assert_eq!(top[0].distance, 0, "c is the exact answer");
        assert!(top[1..].iter().all(|a| a.distance == 1));
        let stats = eval.stats();
        assert!(stats.cursor_blocks > 0, "the hub's run must be a cursor");
        // Eagerly, each of the wildcard's transitions would have queued all
        // 5,000 instances.
        assert!(
            stats.tuples_added <= 1_000,
            "a top-10 read {} tuples",
            stats.tuples_added
        );
    }

    /// Drains `query` on `g` under the plan's bound and under `h ≡ 0`: both
    /// emit one `(x, y, distance)` set in non-decreasing distance, and only
    /// the bound raises keys. The set, sorted, and the guided run's stats.
    fn drain_both(
        query: &str,
        g: &GraphStore,
        options: EvalOptions,
    ) -> (Vec<(NodeId, NodeId, u32)>, EvalStats) {
        let q = parse_query(query).unwrap();
        let o = Ontology::new();
        let [guided, zero] = [true, false].map(|on| {
            let options = options.clone().with_cost_guided(on);
            let mut eval = evaluate_conjunct(&q.conjuncts[0], g, &o, &options).unwrap();
            let answers = eval.collect(None).unwrap();
            assert!(answers.windows(2).all(|w| w[0].distance <= w[1].distance));
            let mut v: Vec<_> = answers.iter().map(|a| (a.x, a.y, a.distance)).collect();
            v.sort_unstable();
            (v, eval.stats())
        });
        assert_eq!(guided.0, zero.0, "{query}");
        assert_eq!(zero.1.raised_keys, 0, "{query}");
        guided
    }

    #[test]
    fn draining_the_hub_answers_as_the_unguided_drain_does() {
        let (g, _) = hub_graph();
        let (answers, stats) = drain_both(HUB_QUERY, &g, EvalOptions::default());
        assert!(answers.len() > 5_000, "every instance is an answer");
        assert!(stats.cursor_blocks > 0);
    }

    /// `Class`, a class with 5,000 instances that have no `q` edge, then
    /// 20 that have one (to their own `t{i}`): the run a cursor releases
    /// starts with the 5,000.
    fn hub_lacking_the_next_label() -> (GraphStore, Ontology) {
        let mut g = GraphStore::new();
        for i in 0..5_000 {
            g.add_triple(&format!("i{i}"), "type", "Class");
        }
        for i in 0..20 {
            g.add_triple(&format!("j{i}"), "type", "Class");
            g.add_triple(&format!("j{i}"), "q", &format!("t{i}"));
        }
        g.freeze();
        (g, Ontology::new())
    }

    const LACKING_QUERY: &str = "(?X) <- APPROX (Class, type-.q, ?X)";

    #[test]
    fn hub_members_without_the_next_label_are_keyed_a_key_higher() {
        let (g, o) = hub_lacking_the_next_label();
        let q = parse_query(LACKING_QUERY).unwrap();
        let options = EvalOptions::default().with_cost_guided(true);
        let mut eval = evaluate_conjunct(&q.conjuncts[0], &g, &o, &options).unwrap();
        let top = eval.collect(Some(10)).unwrap();
        assert_eq!(top.len(), 10);
        assert!(top.iter().all(|a| a.distance == 0), "the t{{i}} are exact");
        let stats = eval.stats();
        // Keyed at their state's bound, every instance without `q` would
        // pop, expand and find nothing before the exact answers could. Their
        // class is not tight after `type-`, so the blocks that release them
        // put them back in a key higher, unvisited.
        assert!(
            stats.tuples_processed <= 100,
            "a top-10 processed {} tuples",
            stats.tuples_processed
        );
        assert!(stats.cursor_blocks >= 5_000 / BLOCK as u64, "{stats}");
        assert!(stats.raised_keys >= 5_000, "{stats}");
        // Reading a member's class is not a neighbour lookup.
        assert!(stats.neighbour_lookups <= 100, "{stats}");
    }

    #[test]
    fn draining_a_hub_keyed_a_key_higher_answers_as_the_unguided_drain_does() {
        let (g, _) = hub_lacking_the_next_label();
        let (answers, stats) = drain_both(LACKING_QUERY, &g, EvalOptions::default());
        assert!(answers.len() > 5_000, "every instance is an answer");
        assert!(stats.raised_keys > 0);
    }

    #[test]
    fn a_visit_keyed_a_key_higher_pops_before_a_costlier_twin() {
        // `s` reaches `m0 … m99` over `h`, a cursor's run. Only `m99` has an
        // `x` edge, so the others go back in a key higher, at 1, from the
        // blocks that release them; `m99`, visited in place at key 0,
        // re-reaches `m0` over `y` by a deferred insertion edit at distance
        // 1, keyed 2 by `m0`'s class. Were the twin keyed by its state
        // alone, at 1, and popped first, `m0` would be visited one edit too
        // dear and `w0` (`h.z`, one substitution from `h.x`) answered at 2.
        let mut g = GraphStore::new();
        for i in 0..100 {
            g.add_triple("s", "h", &format!("m{i}"));
            g.add_triple(&format!("m{i}"), "z", &format!("w{i}"));
        }
        g.add_triple("m99", "x", "t");
        g.add_triple("m99", "y", "m0");
        g.freeze();
        let (answers, stats) =
            drain_both("(?Y) <- APPROX (s, h.x, ?Y)", &g, EvalOptions::default());
        let w0 = g.node_by_label("w0").unwrap();
        assert!(answers.iter().any(|&(_, y, d)| (y, d) == (w0, 1)));
        assert!(stats.raised_keys > 0);
    }

    #[test]
    fn a_key_is_raised_by_one_when_edits_cost_more_than_one() {
        // With insertions, deletions and substitutions at 3 and inversions
        // at 1, the cheapest way on from `m0` after `h` costs 3: `x` cannot
        // fire at `m0`. But `m0` is also reached at distance 1 by inverting
        // `h` along `m0 -h-> s`, keyed 2. Keyed at 3, the visit at distance
        // 0 would pop after that twin, and `w0` would be answered at 4
        // instead of 3; its class raises it by one key, to 1.
        let mut g = GraphStore::new();
        for i in 0..100 {
            g.add_triple("s", "h", &format!("m{i}"));
            g.add_triple(&format!("m{i}"), "z", &format!("w{i}"));
        }
        g.add_triple("m99", "x", "t");
        g.add_triple("m0", "h", "s");
        g.freeze();
        let options = EvalOptions {
            approx: omega_automata::ApproxConfig {
                inversion: Some(1),
                ..omega_automata::ApproxConfig::uniform(3)
            },
            ..EvalOptions::default()
        };
        let (answers, stats) = drain_both("(?Y) <- APPROX (s, h.x, ?Y)", &g, options);
        let w0 = g.node_by_label("w0").unwrap();
        assert!(answers.iter().any(|&(_, y, d)| (y, d) == (w0, 3)));
        assert!(stats.raised_keys > 0);
    }

    /// Drains `query`'s last conjunct, asserting that a cursor read a wide
    /// run.
    fn drain_through_a_cursor(
        query: &str,
        g: &GraphStore,
        options: &EvalOptions,
        request: &ExecOptions,
    ) -> (Vec<ConjunctAnswer>, EvalStats) {
        let q = parse_query(query).unwrap();
        let o = Ontology::new();
        let conjunct = q.conjuncts.last().unwrap();
        let mut eval = evaluate_under(conjunct, g, &o, options, request);
        let answers = eval.collect(None).unwrap();
        assert!(eval.stats().cursor_blocks > 0, "{query}: no cursor block");
        (answers, eval.stats())
    }

    #[test]
    fn a_final_run_honours_a_constant_object_and_equal_endpoints() {
        // `hub` reaches 200 members over `p`, `hub` itself among them, so
        // the members' pending answers are final runs wider than a block.
        // `m150` has as many `p` edges in as `hub` has out, so a doubly
        // constant conjunct keeps the forward direction.
        let mut g = GraphStore::new();
        for i in 0..200 {
            g.add_triple("hub", "p", &format!("m{i}"));
            g.add_triple(&format!("z{i}"), "p", "m150");
        }
        g.add_triple("hub", "p", "hub");
        g.freeze();
        let node = |name: &str| g.node_by_label(name).unwrap();
        for cost_guided in [true, false] {
            let options = EvalOptions::default().with_cost_guided(cost_guided);
            let drain = |query| drain_through_a_cursor(query, &g, &options, &ExecOptions::new());
            let (answers, _) = drain("(?X) <- (?X, p, ?X), (hub, p, m150)");
            let pairs: Vec<_> = answers.iter().map(|a| (a.x, a.y, a.distance)).collect();
            assert_eq!(pairs, [(node("hub"), node("m150"), 0)]);
            let (answers, _) = drain("(?X) <- (?X, p, ?X)");
            let pairs: Vec<_> = answers.iter().map(|a| (a.x, a.y, a.distance)).collect();
            assert_eq!(pairs, [(node("hub"), node("hub"), 0)]);
        }
    }

    #[test]
    fn a_distance_ceiling_prunes_one_placeholder_per_run() {
        // `s` reaches 100 members over `h`: two blocks, visited in place at
        // distance 0 and key 0. Under a ceiling of 0 each block's deferred run (key
        // 1) is pruned once, beside the seed's own deferred tuple (key 1)
        // and pending answer (distance 1, deleting `h`); one pruning per
        // member would read 100 more.
        let mut g = GraphStore::new();
        for i in 0..100 {
            g.add_triple("s", "h", &format!("m{i}"));
        }
        g.freeze();
        let options = EvalOptions::default().with_cost_guided(true);
        let request = ExecOptions::new().with_max_distance(0);
        let (answers, stats) =
            drain_through_a_cursor("(?Y) <- APPROX (s, h, ?Y)", &g, &options, &request);
        assert_eq!(answers.len(), 100);
        assert!(answers.iter().all(|a| a.distance == 0));
        assert_eq!(stats.cursor_blocks, 2);
        assert_eq!(stats.pruned_bound, 1 + stats.cursor_blocks, "{stats}");
        assert_eq!(stats.suppressed, stats.pruned_bound + 1, "{stats}");
    }

    #[test]
    fn a_tuple_budget_trips_inside_runs_and_degrades_to_a_prefix() {
        let (g, o) = hub_graph();
        let q = parse_query(HUB_QUERY).unwrap();
        let run = |options: &EvalOptions, request: &ExecOptions| {
            let mut eval = evaluate_under(&q.conjuncts[0], &g, &o, options, request);
            let answers = eval.collect(None);
            (answers, eval.stats())
        };
        for cost_guided in [true, false] {
            let options = EvalOptions::default().with_cost_guided(cost_guided);
            let (full, _) = run(&options, &ExecOptions::new());
            let full = full.unwrap();
            let capped = ExecOptions::new().with_max_tuples(8_000);
            let (tripped, _) = run(&options, &capped);
            assert!(
                matches!(tripped, Err(OmegaError::ResourceExhausted { .. })),
                "cost_guided {cost_guided}: the budget did not trip"
            );
            let (prefix, stats) = run(&options, &capped.with_on_overload(OverloadPolicy::Degrade));
            let prefix = prefix.unwrap();
            assert!(stats.degraded && stats.cursor_blocks > 0, "{stats}");
            assert_eq!(stats.truncation, Some(TruncationReason::TupleBudget));
            assert!(!prefix.is_empty() && prefix.len() < full.len());
            assert_eq!(prefix, full[..prefix.len()], "cost_guided {cost_guided}");
        }
    }

    #[test]
    fn with_mode_round_trip_matches_direct_queries() {
        let (g, o) = setup();
        let q = parse_query("(?X) <- (alice, knows, ?X)").unwrap();
        let approx_q = q.with_mode(QueryMode::Approx);
        assert_eq!(approx_q.conjuncts[0].mode, QueryMode::Approx);
        let direct = run("(?X) <- APPROX (alice, knows, ?X)", &g, &o);
        let mut eval =
            evaluate_conjunct(&approx_q.conjuncts[0], &g, &o, &EvalOptions::default()).unwrap();
        let via_mode = eval.collect(None).unwrap();
        assert_eq!(direct.len(), via_mode.len());
    }
}
