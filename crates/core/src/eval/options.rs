//! The two options tables, one per lifetime: [`EvalOptions`], what a plan
//! compiles from (edit/relaxation costs and the Section 3.3 refinements),
//! and [`ExecOptions`], the limits of one execution.

use std::time::{Duration, Instant};

use omega_automata::{ApproxConfig, RelaxConfig};

/// What the engine does when a resource budget trips — at admission
/// (governor rejects the execution) or mid-query (the request's
/// `max_tuples` tripped, or the shared tuple pool could not satisfy a
/// reservation). Chosen per request: [`ExecOptions::on_overload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Surface the typed error ([`crate::OmegaError::Overloaded`] at
    /// admission, [`crate::OmegaError::ResourceExhausted`] mid-query) and
    /// discard in-flight work. The default.
    #[default]
    Fail,
    /// Graceful degradation: a mid-query trip finishes the stream cleanly
    /// with the answers already proven complete — every emitted rank is
    /// strictly below the evaluation frontier, so the yielded set is
    /// bit-identical to a prefix of the uncapped run — and records
    /// `degraded: true` plus a [`crate::eval::TruncationReason`] in the
    /// stats. Admission rejections still fail (there is nothing to
    /// degrade before any work has run).
    Degrade,
    /// Load shedding: an admission rejection backs off for the governor's
    /// `retry_after` hint, halves the request's live-tuple budget, and
    /// retries admission once; mid-query trips degrade as under
    /// [`OverloadPolicy::Degrade`]. Each shed retry is counted in
    /// [`crate::EvalStats::sheds`].
    Shed,
}

/// What a plan compiles from, held by a database for its whole life.
///
/// The defaults are the paper's study configuration: unit edit and
/// relaxation costs, final-tuple priority on, initial nodes in batches of
/// 100. `compile_conjunct` copies what the evaluator needs into the
/// [`crate::eval::ConjunctPlan`], so no evaluator reads this table; the
/// limits of one run are [`ExecOptions`]. The Section 4.3 optimisations
/// are drivers the paper's ablations (`omega-bench`) build around a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOptions {
    /// Edit-operation costs for APPROX conjuncts.
    pub approx: ApproxConfig,
    /// Relaxation costs for RELAX conjuncts.
    pub relax: RelaxConfig,
    /// Whether RELAX conjuncts match under RDFS inference (subproperty /
    /// subclass closure) in addition to the relaxation transitions.
    pub inference: bool,
    /// Cost guidance: compile each plan's admissible accept lower bound, by
    /// which the evaluator keys the tuple queue at `f = g + h`, prunes
    /// tuples that cannot beat the distance ceiling and skips dead states.
    /// Off, `compile_conjunct` gives the plan the trivial bound `h ≡ 0` and
    /// the same evaluator pops by distance alone. Answers keep their
    /// distance order and per-distance sets exactly; only work (and tie
    /// order within one distance) changes. On by default; an ablation
    /// switch like `batch_size`, with no request override (the
    /// `opt-guidance` study and reference tests turn it off).
    pub cost_guided: bool,
    /// Number of initial nodes each pop of the seed cursor releases into
    /// `D_R` (the paper's coroutine batching, default 100): the block size
    /// of the one cursor that releases a conjunct's seeds.
    pub batch_size: usize,
    /// Whether final tuples are removed before non-final tuples at the same
    /// distance (the paper found this both faster and necessary for some
    /// queries to complete).
    pub prioritize_final: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            approx: ApproxConfig::default(),
            relax: RelaxConfig::default(),
            inference: true,
            cost_guided: true,
            batch_size: 100,
            prioritize_final: true,
        }
    }
}

impl EvalOptions {
    /// Sets the initial-node batch size.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Disables the final-tuple prioritisation (for ablation benchmarks).
    pub fn without_final_prioritization(mut self) -> Self {
        self.prioritize_final = false;
        self
    }

    /// Compiles plans with the accept bound (A* ordering, bound and
    /// dead-state pruning) or with the trivial one — for ablation
    /// benchmarks.
    pub fn with_cost_guided(mut self, on: bool) -> Self {
        self.cost_guided = on;
        self
    }
}

/// The limits of one execution: a builder carried alongside the query, so
/// concurrent requests against one [`crate::Database`] can each bring their
/// own limit, deadline and budgets without touching shared state.
///
/// This is the only table of per-execution limits: nothing is inherited
/// from the database, and a default request runs unlimited with
/// [`OverloadPolicy::Fail`]. A hand-built
/// [`crate::eval::ConjunctEvaluator`] takes one too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Maximum number of answers to return (`None` = all).
    pub limit: Option<usize>,
    /// Wall-clock budget measured from the start of execution. A timeout
    /// too long for the clock to represent sets no deadline.
    pub timeout: Option<Duration>,
    /// Absolute wall-clock deadline; the tighter of `timeout` and `deadline`
    /// wins when both are set. Evaluation past it fails with
    /// [`crate::OmegaError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// Hard ceiling on answer distance: tuples beyond it are suppressed.
    /// The evaluator's one distance ceiling.
    pub max_distance: Option<u32>,
    /// Maximum number of live tuples (`D_R`, the visited set and the
    /// successor arena) per conjunct before evaluation trips with
    /// `ResourceExhausted`. `None` means unlimited. This models the paper's
    /// out-of-memory failures deterministically.
    pub max_tuples: Option<usize>,
    /// What happens when a resource budget trips mid-query or the governor
    /// rejects the execution at admission (see [`OverloadPolicy`]).
    pub on_overload: OverloadPolicy,
    /// Record a per-phase [`QueryProfile`](crate::QueryProfile) for this
    /// execution (read it with [`crate::Answers::profile`] after the stream
    /// finishes). Off by default: the unprofiled path pays a single branch
    /// per answer pull.
    pub profile: bool,
}

impl ExecOptions {
    /// A request with no limit, no deadline and no budget.
    pub fn new() -> ExecOptions {
        ExecOptions::default()
    }

    /// Returns at most `limit` answers.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Aborts evaluation [`crate::OmegaError::DeadlineExceeded`] once
    /// `timeout` has elapsed from the start of execution.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Aborts evaluation at the absolute instant `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Ignores answers (and prunes exploration) beyond distance `max`.
    pub fn with_max_distance(mut self, max: u32) -> Self {
        self.max_distance = Some(max);
        self
    }

    /// Sets the live-tuple budget.
    pub fn with_max_tuples(mut self, max: usize) -> Self {
        self.max_tuples = Some(max);
        self
    }

    /// Has no effect: conjuncts always evaluate on the caller's thread.
    /// Kept only because `benchmark/src/workloads/mod.rs` calls it; it goes
    /// once that call does.
    #[doc(hidden)]
    pub fn with_parallel_conjuncts(self, _: bool) -> Self {
        self
    }

    /// Has no effect: every request runs cost-guided (the trivial bound is
    /// the plan-level ablation [`EvalOptions::cost_guided`]). Kept only
    /// because `benchmark/src/workloads/mod.rs` calls it; it goes once that
    /// call does.
    #[doc(hidden)]
    pub fn with_cost_guided(self, _: bool) -> Self {
        self
    }

    /// Selects what happens under resource pressure: fail with a typed
    /// error (default), degrade to the already-proven answer prefix, or
    /// shed load (shrink budgets, back off, retry admission once).
    pub fn with_on_overload(mut self, policy: OverloadPolicy) -> Self {
        self.on_overload = policy;
        self
    }

    /// Records a per-phase timing profile for this execution, retrievable
    /// via [`crate::Answers::profile`] once the stream has finished.
    pub fn with_profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// The deadline of an execution that starts now: the tighter of
    /// `deadline` and now plus `timeout`. The clock is read only when a
    /// timeout is set, and one the clock cannot represent is no deadline.
    pub(crate) fn deadline_from_now(&self) -> Option<Instant> {
        let from_timeout = self.timeout.and_then(|t| Instant::now().checked_add(t));
        self.deadline.into_iter().chain(from_timeout).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let o = EvalOptions::default();
        assert_eq!(o.approx, ApproxConfig::default());
        assert_eq!(o.approx.insertion, 1);
        assert_eq!(o.relax.beta, 1);
        assert_eq!(o.batch_size, 100);
        assert!(o.prioritize_final);
        assert!(o.cost_guided);
        let request = ExecOptions::new();
        assert_eq!(request.max_tuples, None);
        assert_eq!(request.on_overload, OverloadPolicy::Fail);
    }

    #[test]
    fn builder_methods() {
        let o = EvalOptions::default()
            .with_batch_size(0)
            .without_final_prioritization();
        assert_eq!(o.batch_size, 1, "batch size is clamped to at least 1");
        assert!(!o.prioritize_final);
        assert_eq!(ExecOptions::new().with_max_tuples(10).max_tuples, Some(10));
    }
}
