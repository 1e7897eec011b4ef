//! The ranked, incremental evaluator — the paper's `Open` / `GetNext` /
//! `Succ` procedures — and the multi-conjunct ranked join. The Section 4.3
//! drivers and the product-automaton BFS baseline, which the paper's
//! comparisons build around a compiled plan, live in `omega-bench`.

pub mod conjunct;
pub mod dr;
pub mod fault;
pub mod initial;
pub mod options;
pub mod plan;
pub mod rank_join;
pub mod stats;
pub mod succ;
pub mod tuple;
pub mod visited;

pub use conjunct::{evaluate_conjunct, ConjunctEvaluator};
pub use options::{EvalOptions, ExecOptions, OverloadPolicy};
pub use plan::{compile_conjunct, ConjunctPlan, SeedSpec};
pub use rank_join::RankJoin;
pub use stats::{EvalStats, TruncationReason};

use omega_graph::NodeId;

use crate::answer::ConjunctAnswer;
use crate::error::Result;

/// A stream of conjunct answers in non-decreasing distance order.
///
/// Implemented by the evaluator ([`ConjunctEvaluator`]), which is what every
/// query execution and the ranked join run, and by the drivers the paper's
/// ablations build around it (in `omega-bench`). Only the evaluator takes the
/// join's seed hints.
pub trait AnswerStream {
    /// Produces the next answer, or `Ok(None)` when the stream is exhausted.
    fn next_answer(&mut self) -> Result<Option<ConjunctAnswer>>;

    /// A hint from the ranked join: its other inputs have bound this
    /// conjunct's *subject* variable to `nodes`, so answers starting at one of
    /// them are the ones it can combine first. A stream may use it to choose
    /// among answers of equal distance — never to change which answers it
    /// emits at which distance — or ignore it. Returns whether a later hint
    /// could still make a difference; after a `false` the join sends no more.
    /// The default declines.
    fn prefer_seeds(&mut self, _nodes: &mut dyn Iterator<Item = NodeId>) -> bool {
        false
    }

    /// Evaluation statistics accumulated so far.
    fn stats(&self) -> EvalStats;

    /// Pulls up to `limit` further answers (all remaining when `None`).
    fn collect(&mut self, limit: Option<usize>) -> Result<Vec<ConjunctAnswer>> {
        let mut out = Vec::new();
        while limit.is_none_or(|l| out.len() < l) {
            let Some(answer) = self.next_answer()? else {
                break;
            };
            out.push(answer);
        }
        Ok(out)
    }
}
