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

/// A stream of conjunct answers in non-decreasing distance order — per
/// seed, for a rank join's dependent input.
///
/// Implemented by the evaluator ([`ConjunctEvaluator`]), which is what every
/// query execution and the ranked join run, and by the drivers the paper's
/// ablations build around it (in `omega-bench`). Only the evaluator can be a
/// dependent input of the join ([`rank_join`], "Driver and dependents").
pub trait AnswerStream {
    /// Produces the next answer, or `Ok(None)` when the stream is exhausted
    /// — a dependent one until it is handed another seed.
    fn next_answer(&mut self) -> Result<Option<ConjunctAnswer>>;

    /// The next answer, as [`AnswerStream::next_answer`], but a stream may
    /// stop short with `Ok(None)` once it holds nothing it could emit at
    /// `ceiling` or below — the least key it holds, as the join's pull of a
    /// dependent input passes it — without being exhausted. The default
    /// does not stop short.
    fn next_answer_until(&mut self, _ceiling: u32) -> Result<Option<ConjunctAnswer>> {
        self.next_answer()
    }

    /// Hands a dependent stream one more value of its subject variable,
    /// bound by an earlier input of the join: the stream answers for the
    /// values it is handed and for no others, each value once however
    /// often it is handed. The default ignores it.
    fn seed(&mut self, _node: NodeId) {}

    /// A lower bound on the distance of every answer still to come — of
    /// those the work the stream holds can yield, and when `seeded` also of
    /// those a seed handed later can — or `None` when none can come. The
    /// default knows no more than that distances are not negative.
    fn floor(&mut self, _seeded: bool) -> Option<u32> {
        Some(0)
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
