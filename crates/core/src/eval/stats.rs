//! Evaluation statistics, used by tests and by the ablation benchmarks.

use std::ops::AddAssign;

/// Why a degraded stream stopped early. Recorded in
/// [`EvalStats::truncation`] when graceful degradation cuts an evaluation
/// short, so consumers can tell a complete answer set from a truncated one
/// — and why it was truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// The per-query live-tuple budget (`max_tuples`) tripped.
    TupleBudget,
    /// The shared governor tuple pool could not satisfy a reservation
    /// within its bounded backoff.
    PoolExhausted,
}

impl TruncationReason {
    /// Stable lower-case name, used by the benchmark report.
    pub fn name(self) -> &'static str {
        match self {
            TruncationReason::TupleBudget => "tuple_budget",
            TruncationReason::PoolExhausted => "pool_exhausted",
        }
    }
}

/// Counters accumulated during evaluation of a conjunct or query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Tuples added to the distance dictionary `D_R`: a visit however it
    /// goes in (on its own, or in place from a cursor block), and a pending
    /// answer or run of them; never a cursor or a deferred placeholder.
    pub tuples_added: u64,
    /// Tuples removed from `D_R` and processed by `GetNext`; a visit a
    /// cursor block makes in place counts here too.
    pub tuples_processed: u64,
    /// Calls to the `Succ` function.
    pub succ_calls: u64,
    /// Neighbour-list lookups against the graph store. Reading a node's
    /// summary class, behind `raised_keys`, is not a lookup and is not
    /// counted here.
    pub neighbour_lookups: u64,
    /// Answers emitted.
    pub answers: u64,
    /// Tuples suppressed because their distance or their key `g + h`
    /// exceeded the distance ceiling `max_distance`; non-zero means
    /// a higher ceiling could admit more answers.
    pub suppressed: u64,
    /// Tuples (or transitions) dropped because their automaton state can
    /// never reach acceptance against this graph (none under `h ≡ 0`).
    pub pruned_dead: u64,
    /// Tuples dropped because `g + h` — the accumulated distance plus the
    /// admissible per-state accept lower bound — provably exceeded the
    /// distance ceiling (also counted in `suppressed`, since a higher
    /// ceiling could admit them).
    pub pruned_bound: u64,
    /// Deferred positive-cost expansions performed: tuples whose wildcard /
    /// edit / relaxation successors were materialised only once the distance
    /// cursor reached them.
    pub deferred_expansions: u64,
    /// Blocks of a wide run's neighbours handled by popping its cursor:
    /// each is at most [`crate::eval::succ::BLOCK`] visits.
    pub cursor_blocks: u64,
    /// Tuples the node summary keyed one above `g + h(state)`, because no
    /// node they stand for has a class that reaches acceptance at cost
    /// `h(state)` in the summary: visits and cursors as they are queued,
    /// and the members a cursor block puts back a key higher (none under
    /// `h ≡ 0`; see "Keys from the summary" in `crate::eval::conjunct`).
    pub raised_keys: u64,
    /// Shed retries performed: executions that were re-admitted with shrunk
    /// budgets after an initial overload rejection
    /// (`OverloadPolicy::Shed`).
    pub sheds: u64,
    /// Whether the answer stream was truncated by graceful degradation:
    /// a resource budget tripped mid-query and, under
    /// `OverloadPolicy::Degrade`, the stream finished cleanly with the
    /// answers proven complete instead of failing. The answers yielded are
    /// exactly the uncapped run's prefix (per conjunct); ranks at or beyond
    /// the recorded frontier may be missing.
    pub degraded: bool,
    /// Why the stream was truncated, when `degraded` is set.
    pub truncation: Option<TruncationReason>,
}

impl AddAssign for EvalStats {
    fn add_assign(&mut self, rhs: EvalStats) {
        self.tuples_added += rhs.tuples_added;
        self.tuples_processed += rhs.tuples_processed;
        self.succ_calls += rhs.succ_calls;
        self.neighbour_lookups += rhs.neighbour_lookups;
        self.answers += rhs.answers;
        self.suppressed += rhs.suppressed;
        self.pruned_dead += rhs.pruned_dead;
        self.pruned_bound += rhs.pruned_bound;
        self.deferred_expansions += rhs.deferred_expansions;
        self.cursor_blocks += rhs.cursor_blocks;
        self.raised_keys += rhs.raised_keys;
        self.sheds += rhs.sheds;
        self.degraded |= rhs.degraded;
        self.truncation = self.truncation.or(rhs.truncation);
    }
}

impl std::fmt::Display for EvalStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "added={} processed={} succ={} lookups={} answers={} suppressed={} pruned_dead={} \
             pruned_bound={} deferred={} cursor_blocks={} raised_keys={} sheds={} degraded={}",
            self.tuples_added,
            self.tuples_processed,
            self.succ_calls,
            self.neighbour_lookups,
            self.answers,
            self.suppressed,
            self.pruned_dead,
            self.pruned_bound,
            self.deferred_expansions,
            self.cursor_blocks,
            self.raised_keys,
            self.sheds,
            self.degraded
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = EvalStats {
            tuples_added: 1,
            tuples_processed: 2,
            succ_calls: 3,
            neighbour_lookups: 4,
            answers: 5,
            suppressed: 6,
            pruned_dead: 8,
            pruned_bound: 9,
            deferred_expansions: 10,
            cursor_blocks: 13,
            raised_keys: 11,
            sheds: 12,
            degraded: false,
            truncation: None,
        };
        a += a;
        assert_eq!(a.tuples_added, 2);
        assert_eq!(a.suppressed, 12);
        assert_eq!(a.pruned_dead, 16);
        assert_eq!(a.pruned_bound, 18);
        assert_eq!(a.deferred_expansions, 20);
        assert_eq!(a.cursor_blocks, 26);
        assert_eq!(a.raised_keys, 22);
        assert_eq!(a.sheds, 24);
        assert!(!a.degraded);
        assert!(a.to_string().contains("answers=10"));
        assert!(a.to_string().contains("pruned_dead=16"));
        assert!(a.to_string().contains("cursor_blocks=26"));
        assert!(a.to_string().contains("raised_keys=22"));
    }

    #[test]
    fn degradation_markers_merge_sticky() {
        let mut clean = EvalStats::default();
        let degraded = EvalStats {
            degraded: true,
            truncation: Some(TruncationReason::TupleBudget),
            ..EvalStats::default()
        };
        clean += degraded;
        assert!(clean.degraded, "degradation is sticky under merge");
        assert_eq!(clean.truncation, Some(TruncationReason::TupleBudget));
        // Merging a clean run into a degraded one keeps the first reason.
        let mut merged = degraded;
        merged += EvalStats {
            truncation: Some(TruncationReason::PoolExhausted),
            ..EvalStats::default()
        };
        assert_eq!(merged.truncation, Some(TruncationReason::TupleBudget));
        assert!(merged.to_string().contains("degraded=true"));
    }
}
