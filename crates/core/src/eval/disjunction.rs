//! Replacing alternation by disjunction (Section 4.3, second optimisation).
//!
//! A conjunct whose regular expression is a top-level alternation
//! `R1 | R2 | …` is evaluated as a set of sub-conjuncts, one per branch.
//! All branches are evaluated at cost ceiling 0 first (in syntactic order);
//! the number of answers each branch produced decides the order in which the
//! branches are evaluated at the next ceiling: the branch with the *fewest*
//! answers so far goes first, because it is the one most likely to need
//! flexible matching to contribute anything — and if the cheaper branches
//! already satisfied the user's `LIMIT`, the expensive ones are never touched
//! at the higher cost at all.

use std::collections::VecDeque;
use std::sync::Arc;

use omega_graph::GraphStore;
use omega_ontology::Ontology;

use crate::answer::ConjunctAnswer;
use crate::error::Result;
use crate::eval::conjunct::ConjunctEvaluator;
use crate::eval::options::EvalOptions;
use crate::eval::plan::{compile_conjunct, ConjunctPlan};
use crate::eval::stats::EvalStats;
use crate::eval::visited::PairSet;
use crate::eval::{AnswerStream, MAX_PSI_STEPS};
use crate::query::ast::Conjunct;
use omega_automata::decompose_alternation;

/// One branch of the decomposed alternation.
struct Branch {
    plan: Arc<ConjunctPlan>,
    /// Answers contributed during the previous ψ level (the paper's
    /// `n_{kφ,i}`), used to order branches at the next level.
    answers_last_level: usize,
    /// Whether the previous run at this branch suppressed any tuple (i.e.
    /// whether a higher ceiling could still yield more).
    may_have_more: bool,
}

/// Adaptive per-branch evaluation of a top-level alternation.
///
/// Branches are evaluated lazily: within a ψ-level the next branch is only
/// touched once the answers already produced have been consumed, so a caller
/// that stops after its top-k never pays for the expensive branches at the
/// higher cost levels — which is precisely where the paper's speed-up on
/// YAGO query 9 comes from.
///
/// Declines the rank join's seed hints (the default
/// [`AnswerStream::prefer_seeds`]): it drains one branch after another,
/// level by level, each with a fresh evaluator, and a hint would have to be
/// replayed to every one of them.
pub struct DisjunctionEvaluator<'a> {
    graph: &'a GraphStore,
    ontology: &'a Ontology,
    options: Arc<EvalOptions>,
    branches: Vec<Branch>,
    phi: u32,
    psi: u32,
    steps: u32,
    started: bool,
    /// Branch indices still to be evaluated at the current ψ-level, in
    /// adaptive order (front first).
    level_queue: VecDeque<usize>,
    /// The branch currently being drained (index and its live evaluator).
    current: Option<(usize, ConjunctEvaluator<'a>)>,
    emitted: PairSet,
    stats: EvalStats,
    exhausted: bool,
}

impl<'a> DisjunctionEvaluator<'a> {
    /// Attempts to build the decomposed evaluator for `conjunct`; returns
    /// `Ok(None)` when the conjunct's regular expression is not a top-level
    /// alternation (the optimisation does not apply).
    pub fn try_new(
        conjunct: &Conjunct,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        options: Arc<EvalOptions>,
    ) -> Result<Option<DisjunctionEvaluator<'a>>> {
        let Some(plans) = compile_branches(conjunct, graph, ontology, &options)? else {
            return Ok(None);
        };
        Ok(Some(DisjunctionEvaluator::from_plans(
            plans, graph, ontology, options,
        )))
    }

    /// Builds the evaluator from already compiled branch plans (see
    /// [`compile_branches`]), so repeated runs compile the branches once.
    pub fn from_plans(
        plans: Vec<Arc<ConjunctPlan>>,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        options: Arc<EvalOptions>,
    ) -> DisjunctionEvaluator<'a> {
        debug_assert!(!plans.is_empty());
        let phi = plans.iter().map(|p| p.phi).min().unwrap_or(1);
        let branches = plans
            .into_iter()
            .map(|plan| Branch {
                plan,
                answers_last_level: 0,
                may_have_more: true,
            })
            .collect();
        DisjunctionEvaluator {
            graph,
            ontology,
            options,
            branches,
            phi: phi.max(1),
            psi: 0,
            steps: 0,
            started: false,
            level_queue: VecDeque::new(),
            current: None,
            emitted: PairSet::new(),
            stats: EvalStats::default(),
            exhausted: false,
        }
    }

    /// Number of branches the alternation was split into.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// The current cost ceiling.
    pub fn psi(&self) -> u32 {
        self.psi
    }

    /// Number of ψ-levels started after the first.
    pub fn restarts(&self) -> u32 {
        self.steps
    }

    /// Advances to the next ψ-level, placing its branches (in adaptive
    /// order) on the level queue. Returns `false` when no further level can
    /// produce answers.
    fn advance_level(&mut self) -> bool {
        if self.started {
            if self.steps >= MAX_PSI_STEPS
                || self.branches.iter().all(|b| !b.may_have_more)
                || self.options.max_distance.is_some_and(|max| self.psi >= max)
            {
                return false;
            }
            self.psi += self.phi;
            self.steps += 1;
        }
        self.started = true;
        // Adaptive order: fewest answers at the previous level first; the
        // first (distance-0) level keeps the syntactic order.
        let mut order: Vec<usize> = (0..self.branches.len()).collect();
        if self.psi > 0 {
            order.sort_by_key(|&i| self.branches[i].answers_last_level);
        }
        self.level_queue = order.into();
        true
    }
}

impl AnswerStream for DisjunctionEvaluator<'_> {
    /// The next answer. Within a ψ-level, answers are produced branch by
    /// branch (cheapest-looking branch first) and pulled lazily from the
    /// branch's evaluator — a caller that stops early never pays for the
    /// remaining branches at that level. Across levels, answers are in
    /// non-decreasing distance order.
    fn next_answer(&mut self) -> Result<Option<ConjunctAnswer>> {
        loop {
            // Drain the branch currently being evaluated.
            if let Some((idx, mut evaluator)) = self.current.take() {
                match evaluator.get_next()? {
                    Some(answer) => {
                        let fresh = self.emitted.insert(answer.x, answer.y);
                        self.current = Some((idx, evaluator));
                        if fresh {
                            self.branches[idx].answers_last_level += 1;
                            self.stats.answers += 1;
                            return Ok(Some(answer));
                        }
                        continue;
                    }
                    None => {
                        self.branches[idx].may_have_more = evaluator.suppressed() > 0;
                        self.stats += evaluator.stats();
                        // A branch that ended by graceful degradation makes
                        // the whole disjunction degraded: later branches (or
                        // levels) could emit ranks beyond this branch's
                        // truncated frontier, so the stream stops here to
                        // keep every emitted answer inside the proven prefix.
                        if self.stats.degraded {
                            self.exhausted = true;
                            return Ok(None);
                        }
                        continue;
                    }
                }
            }
            if self.exhausted {
                return Ok(None);
            }
            // Start the next branch of the current level, if any.
            if let Some(idx) = self.level_queue.pop_front() {
                self.branches[idx].answers_last_level = 0;
                let evaluator = ConjunctEvaluator::new(
                    Arc::clone(&self.branches[idx].plan),
                    self.graph,
                    self.ontology,
                    Arc::clone(&self.options),
                    Some(self.psi),
                );
                self.current = Some((idx, evaluator));
                continue;
            }
            if !self.advance_level() {
                self.exhausted = true;
            }
        }
    }

    fn stats(&self) -> EvalStats {
        self.stats
    }
}

/// Compiles one plan per branch of a top-level alternation, or `Ok(None)`
/// when the conjunct's regular expression is not an alternation. Used by
/// [`DisjunctionEvaluator::try_new`], and by callers that compile the
/// branches once for [`DisjunctionEvaluator::from_plans`] to reuse.
pub fn compile_branches(
    conjunct: &Conjunct,
    graph: &GraphStore,
    ontology: &Ontology,
    options: &EvalOptions,
) -> Result<Option<Vec<Arc<ConjunctPlan>>>> {
    let Some(parts) = decompose_alternation(&conjunct.regex) else {
        return Ok(None);
    };
    let mut plans = Vec::with_capacity(parts.len());
    for part in parts {
        let sub = Conjunct {
            regex: part,
            ..conjunct.clone()
        };
        plans.push(Arc::new(compile_conjunct(&sub, graph, ontology, options)?));
    }
    Ok(Some(plans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parser::parse_query;

    fn setup() -> (GraphStore, Ontology) {
        let mut g = GraphStore::new();
        // branch 1: UK -livesIn-> nobody (needs approximation)
        // branch 2: UK <-locatedIn- college -gradFrom-> … (plenty of exact answers)
        g.add_triple("college", "locatedIn", "UK");
        g.add_triple("alice", "gradFrom", "college");
        g.add_triple("bob", "gradFrom", "college");
        g.add_triple("carol", "livesIn", "UK");
        g.add_triple("UK", "hasCurrency", "pound");
        (g, Ontology::new())
    }

    fn query() -> &'static str {
        "(?X) <- APPROX (UK, (livesIn-.hasCurrency)|(locatedIn-.gradFrom-), ?X)"
    }

    #[test]
    fn decomposes_only_top_level_alternations() {
        let (g, o) = setup();
        let q = parse_query(query()).unwrap();
        let d = DisjunctionEvaluator::try_new(
            &q.conjuncts[0],
            &g,
            &o,
            Arc::new(EvalOptions::default()),
        )
        .unwrap()
        .unwrap();
        assert_eq!(d.branch_count(), 2);

        let q = parse_query("(?X) <- APPROX (UK, locatedIn-.gradFrom-, ?X)").unwrap();
        assert!(DisjunctionEvaluator::try_new(
            &q.conjuncts[0],
            &g,
            &o,
            Arc::new(EvalOptions::default())
        )
        .unwrap()
        .is_none());
    }

    #[test]
    fn produces_same_answer_set_as_plain_evaluation() {
        let (g, o) = setup();
        let q = parse_query(query()).unwrap();
        let options = EvalOptions::default();
        let mut plain =
            crate::eval::conjunct::evaluate_conjunct(&q.conjuncts[0], &g, &o, &options).unwrap();
        let mut expected: Vec<_> = plain
            .collect(None)
            .unwrap()
            .iter()
            .map(|a| (a.x, a.y, a.distance))
            .collect();
        expected.sort_unstable();
        let mut decomposed =
            DisjunctionEvaluator::try_new(&q.conjuncts[0], &g, &o, Arc::new(options.clone()))
                .unwrap()
                .unwrap();
        let mut got: Vec<_> = decomposed
            .collect(None)
            .unwrap()
            .iter()
            .map(|a| (a.x, a.y, a.distance))
            .collect();
        got.sort_unstable();
        assert_eq!(expected, got);
    }

    #[test]
    fn answers_are_sorted_and_deduplicated() {
        let (g, o) = setup();
        let q = parse_query(query()).unwrap();
        let mut decomposed = DisjunctionEvaluator::try_new(
            &q.conjuncts[0],
            &g,
            &o,
            Arc::new(EvalOptions::default()),
        )
        .unwrap()
        .unwrap();
        let answers = decomposed.collect(None).unwrap();
        let distances: Vec<u32> = answers.iter().map(|a| a.distance).collect();
        let mut sorted = distances.clone();
        sorted.sort_unstable();
        assert_eq!(distances, sorted);
        let mut pairs: Vec<_> = answers.iter().map(|a| (a.x, a.y)).collect();
        let before = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), before, "answers must be distinct");
    }

    #[test]
    fn limit_zero_answers_costs_one_level_only() {
        let (g, o) = setup();
        let q = parse_query(query()).unwrap();
        let mut decomposed = DisjunctionEvaluator::try_new(
            &q.conjuncts[0],
            &g,
            &o,
            Arc::new(EvalOptions::default()),
        )
        .unwrap()
        .unwrap();
        // The exact (distance-0) answers from branch 2 satisfy the limit, so
        // ψ never escalates.
        let answers = decomposed.collect(Some(2)).unwrap();
        assert_eq!(answers.len(), 2);
        assert_eq!(decomposed.psi(), 0);
        assert_eq!(decomposed.restarts(), 0);
    }
}
