//! A plain product-automaton BFS evaluator for *exact* queries.
//!
//! The paper compares its exact-query performance against "other
//! automaton-based approaches" (e.g. [Koschmieder & Leser, SSDBM 2012]); this
//! module provides that baseline: a textbook evaluation of the product of the
//! query NFA with the data graph, breadth-first, with none of Omega's ranked
//! machinery (no distance dictionary, no final-tuple prioritisation, no
//! batched seeding, no incremental answers). It doubles as a correctness
//! oracle for the ranked evaluator in tests.

use std::collections::{HashSet, VecDeque};

use omega_core::eval::initial::InitialNodeFeed;
use omega_core::eval::succ::{succ, CostFilter, Successors};
use omega_core::eval::{compile_conjunct, ConjunctPlan};
use omega_core::{Conjunct, ConjunctAnswer, EvalOptions, EvalStats, NodeId, Result};
use omega_graph::GraphStore;
use omega_ontology::Ontology;

/// Exhaustive BFS evaluation of one conjunct (exact semantics only: an
/// APPROX/RELAX automaton's cost-0 transitions are followed, its edits
/// never, and answers are not ranked but returned in an arbitrary order).
pub struct BaselineEvaluator<'a> {
    graph: &'a GraphStore,
    ontology: &'a Ontology,
    plan: ConjunctPlan,
    stats: EvalStats,
}

impl<'a> BaselineEvaluator<'a> {
    /// Compiles `conjunct` without cost guidance (no state is dead, no
    /// bound computed) and prepares the baseline evaluator.
    pub fn new(
        conjunct: &Conjunct,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        options: &EvalOptions,
    ) -> Result<BaselineEvaluator<'a>> {
        let unguided = EvalOptions {
            cost_guided: false,
            ..options.clone()
        };
        let plan = compile_conjunct(conjunct, graph, ontology, &unguided)?;
        Ok(BaselineEvaluator {
            graph,
            ontology,
            plan,
            stats: EvalStats::default(),
        })
    }

    /// The compiled plan.
    pub fn plan(&self) -> &ConjunctPlan {
        &self.plan
    }

    /// Evaluation statistics (populated after [`BaselineEvaluator::run`]).
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Runs the BFS to completion and returns all distinct answers at
    /// distance 0 (exact answers). Flexible-operator transitions are ignored
    /// by construction: only cost-0 transitions are expanded.
    pub fn run(&mut self) -> Vec<ConjunctAnswer> {
        let mut answers = Vec::new();
        let mut emitted: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut visited = HashSet::new();
        let mut queue = VecDeque::new();

        // The plan's seeds at distance 0, all at once: the constant (not its
        // RELAX ancestors), every node, or those matching an initial label.
        let initial = self.plan.nfa.initial();
        let mut feed =
            InitialNodeFeed::new(&self.plan, self.graph, self.ontology, usize::MAX, false);
        // One release of `usize::MAX` drains the feed; the closure never fails.
        let _ = feed.release(|seed, distance| {
            if distance == 0 && visited.insert((seed, seed, initial)) {
                queue.push_back((seed, seed, initial));
            }
            Ok(())
        });
        let mut successors = Successors::default();
        while let Some((start, node, state)) = queue.pop_front() {
            self.stats.tuples_processed += 1;
            if self.plan.nfa.final_weight(state) == Some(0) && self.accepts(start, node) {
                let (x, y) = if self.plan.reversed {
                    (node, start)
                } else {
                    (start, node)
                };
                if emitted.insert((x, y)) {
                    answers.push(ConjunctAnswer { x, y, distance: 0 });
                    self.stats.answers += 1;
                }
            }
            // Every cost-0 transition, dead targets included: the plan has
            // the trivial bound, so the textbook product knows nothing of
            // the accept bounds.
            succ(
                self.graph,
                self.ontology,
                self.plan.inference,
                &self.plan.nfa,
                &self.plan.expansion,
                state,
                &[node],
                CostFilter::ZeroOnly,
                &mut successors,
                &mut self.stats,
            );
            for t in successors.transitions() {
                if visited.insert((start, t.node, t.state)) {
                    queue.push_back((start, t.node, t.state));
                }
            }
            // Wide runs are consumed at once here: nothing reads them later.
            successors.arena.clear();
        }
        answers
    }

    fn accepts(&self, start: NodeId, node: NodeId) -> bool {
        if let Some(required) = self.plan.final_constraint {
            if node != required {
                return false;
            }
        }
        if self.plan.require_equal_endpoints && node != start {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::eval::evaluate_conjunct;
    use omega_core::{parse_query, AnswerStream};

    fn setup() -> (GraphStore, Ontology) {
        let mut g = GraphStore::new();
        g.add_triple("a", "p", "b");
        g.add_triple("b", "p", "c");
        g.add_triple("c", "q", "d");
        g.add_triple("a", "q", "d");
        g.add_triple("d", "p", "a");
        (g, Ontology::new())
    }

    type Pairs = Vec<(NodeId, NodeId)>;

    fn both(query: &str) -> (Pairs, Pairs) {
        let (g, o) = setup();
        let q = parse_query(query).unwrap();
        let options = EvalOptions::default();
        let mut baseline = BaselineEvaluator::new(&q.conjuncts[0], &g, &o, &options).unwrap();
        let mut base: Vec<_> = baseline.run().iter().map(|a| (a.x, a.y)).collect();
        base.sort_unstable();
        let mut ranked_eval = evaluate_conjunct(&q.conjuncts[0], &g, &o, &options).unwrap();
        let mut ranked: Vec<_> = ranked_eval
            .collect(None)
            .unwrap()
            .iter()
            .filter(|a| a.distance == 0)
            .map(|a| (a.x, a.y))
            .collect();
        ranked.sort_unstable();
        (base, ranked)
    }

    #[test]
    fn baseline_agrees_with_ranked_on_exact_queries() {
        for query in [
            "(?X) <- (a, p.p, ?X)",
            "(?X) <- (a, p+, ?X)",
            "(?X) <- (a, p*.q, ?X)",
            "(?X, ?Y) <- (?X, p.q, ?Y)",
            "(?X, ?Y) <- (?X, p|q, ?Y)",
            "(?X) <- (?X, p, c)",
            "(?X) <- (?X, p+, ?X)",
        ] {
            let (base, ranked) = both(query);
            assert_eq!(base, ranked, "baseline mismatch for {query}");
        }
    }

    #[test]
    fn baseline_counts_stats() {
        let (g, o) = setup();
        let q = parse_query("(?X) <- (a, p+, ?X)").unwrap();
        let mut baseline =
            BaselineEvaluator::new(&q.conjuncts[0], &g, &o, &EvalOptions::default()).unwrap();
        let answers = baseline.run();
        assert!(!answers.is_empty());
        assert!(baseline.stats().tuples_processed > 0);
        assert_eq!(baseline.stats().answers as usize, answers.len());
    }
}
