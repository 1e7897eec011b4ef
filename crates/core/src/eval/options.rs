//! Evaluation options: edit/relaxation costs, the Section 3.3 evaluation
//! refinements and resource limits.

use std::time::Instant;

use omega_automata::{ApproxConfig, RelaxConfig};

use crate::govern::GovernorHandle;

/// What the engine does when a resource budget trips — at admission
/// (governor rejects the execution) or mid-query (per-query `max_tuples`
/// tripped, or the shared tuple pool could not satisfy a reservation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Surface the typed error ([`crate::OmegaError::Overloaded`] at
    /// admission, [`crate::OmegaError::ResourceExhausted`] mid-query) and
    /// discard in-flight work. The default, and the only pre-governor
    /// behaviour.
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

/// Options controlling query evaluation.
///
/// The defaults correspond to the configuration used throughout the paper's
/// performance study: unit edit and relaxation costs, final-tuple
/// prioritisation on and initial nodes fed in batches of 100. The two
/// Section 4.3 optimisations are not options: they are drivers the paper's
/// ablations (`omega-bench`) build around a compiled plan, each of its runs
/// an evaluator under its own `max_distance`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOptions {
    /// Edit-operation costs for APPROX conjuncts.
    pub approx: ApproxConfig,
    /// Relaxation costs for RELAX conjuncts.
    pub relax: RelaxConfig,
    /// Whether RELAX conjuncts match under RDFS inference (subproperty /
    /// subclass closure) in addition to the relaxation transitions.
    pub inference: bool,
    /// Number of initial nodes each pop of the seed cursor releases into
    /// `D_R` (the paper's coroutine batching, default 100): the block size
    /// of the one cursor that releases a conjunct's seeds.
    pub batch_size: usize,
    /// Whether final tuples are removed before non-final tuples at the same
    /// distance (the paper found this both faster and necessary for some
    /// queries to complete).
    pub prioritize_final: bool,
    /// Maximum number of live tuples (`D_R`, the visited set and the
    /// successor arena) before the evaluator aborts with `ResourceExhausted`. `None` means unlimited.
    /// This models the paper's out-of-memory failures deterministically.
    pub max_tuples: Option<usize>,
    /// Hard ceiling on answer distance: tuples beyond it are suppressed. The
    /// evaluator's one distance ceiling. Normally set per request through
    /// [`crate::service::ExecOptions::with_max_distance`].
    pub max_distance: Option<u32>,
    /// Wall-clock deadline enforced inside the evaluator loops; evaluation
    /// past it fails with [`crate::OmegaError::DeadlineExceeded`]. Normally
    /// set per request through [`crate::service::ExecOptions`].
    pub deadline: Option<Instant>,
    /// Cost guidance: compile each plan's admissible accept lower bound, by
    /// which the evaluator keys the tuple queue at `f = g + h`, prunes
    /// tuples that cannot beat the distance ceiling and skips dead states.
    /// Off, `compile_conjunct` (its only reader) gives the plan the trivial
    /// bound `h ≡ 0` and the same evaluator pops by distance alone. Answers
    /// keep their distance order and per-distance sets exactly; only work
    /// (and tie order within one distance) changes. On by default; an
    /// ablation switch like `batch_size`, with no request override (the
    /// `opt-guidance` study and reference tests turn it off).
    pub cost_guided: bool,
    /// Reaction to tripped resource budgets (see [`OverloadPolicy`]).
    pub on_overload: OverloadPolicy,
    /// Handle to the database-wide [`crate::ResourceGovernor`], installed by
    /// the service layer. Evaluators draw their live-tuple occupancy from
    /// the governor's shared pool through it; `None` (the default for
    /// hand-built evaluators) accounts nothing globally.
    pub govern: Option<GovernorHandle>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            approx: ApproxConfig::default(),
            relax: RelaxConfig::default(),
            inference: true,
            batch_size: 100,
            prioritize_final: true,
            max_tuples: None,
            max_distance: None,
            deadline: None,
            cost_guided: true,
            on_overload: OverloadPolicy::default(),
            govern: None,
        }
    }
}

impl EvalOptions {
    /// Sets the live-tuple budget.
    pub fn with_max_tuples(mut self, max: Option<usize>) -> Self {
        self.max_tuples = max;
        self
    }

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

    /// Sets the hard answer-distance ceiling.
    pub fn with_max_distance(mut self, max: Option<u32>) -> Self {
        self.max_distance = max;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Compiles plans with the accept bound (A* ordering, bound and
    /// dead-state pruning) or with the trivial one — for ablation
    /// benchmarks.
    pub fn with_cost_guided(mut self, on: bool) -> Self {
        self.cost_guided = on;
        self
    }

    /// Selects the overload reaction policy.
    pub fn with_on_overload(mut self, policy: OverloadPolicy) -> Self {
        self.on_overload = policy;
        self
    }

    /// Installs the database-wide governor handle.
    pub fn with_governor(mut self, handle: GovernorHandle) -> Self {
        self.govern = Some(handle);
        self
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
        assert_eq!(o.max_tuples, None);
        assert_eq!(o.on_overload, OverloadPolicy::Fail);
        assert!(o.govern.is_none());
    }

    #[test]
    fn builder_methods() {
        let o = EvalOptions::default()
            .with_max_tuples(Some(10))
            .with_batch_size(0)
            .without_final_prioritization();
        assert_eq!(o.max_tuples, Some(10));
        assert_eq!(o.batch_size, 1, "batch size is clamped to at least 1");
        assert!(!o.prioritize_final);
    }
}
