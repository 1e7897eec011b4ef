//! Distance-aware retrieval (Section 4.3, first optimisation).
//!
//! APPROX/RELAX evaluation normally explores transitions of any cost, even
//! when the user only ever asks for the first few answers and those are all
//! available at cost 0. Distance-aware retrieval sets a ceiling ψ (initially
//! 0): no tuple costing more than ψ is added to `D_R`. Only when more answers
//! are requested is ψ escalated by φ — the smallest edit/relaxation cost —
//! and evaluation restarted from scratch (the restart is the price the paper
//! accepts; it notes the scheme is not suitable when high-cost answers are
//! wanted).

use std::sync::Arc;

use omega_graph::GraphStore;
use omega_ontology::Ontology;

use crate::answer::ConjunctAnswer;
use crate::error::Result;
use crate::eval::conjunct::ConjunctEvaluator;
use crate::eval::options::EvalOptions;
use crate::eval::plan::ConjunctPlan;
use crate::eval::stats::EvalStats;
use crate::eval::visited::PairSet;
use crate::eval::{AnswerStream, MAX_PSI_STEPS};

/// Escalating-ψ driver around [`ConjunctEvaluator`].
///
/// Declines the rank join's seed hints (the default
/// [`AnswerStream::prefer_seeds`]): every ψ level restarts a fresh evaluator,
/// which would have to be told again what the last one was.
pub struct DistanceAwareEvaluator<'a> {
    graph: &'a GraphStore,
    ontology: &'a Ontology,
    options: Arc<EvalOptions>,
    plan: Arc<ConjunctPlan>,
    current: ConjunctEvaluator<'a>,
    psi: u32,
    steps: u32,
    emitted: PairSet,
    finished_stats: EvalStats,
    exhausted: bool,
}

impl<'a> DistanceAwareEvaluator<'a> {
    /// Creates the driver with ψ = 0. Plan and options are shared (`Arc`),
    /// so restarts clone a pointer instead of the automaton.
    pub fn new(
        plan: Arc<ConjunctPlan>,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        options: Arc<EvalOptions>,
    ) -> DistanceAwareEvaluator<'a> {
        let current = ConjunctEvaluator::new(
            Arc::clone(&plan),
            graph,
            ontology,
            Arc::clone(&options),
            Some(0),
        );
        DistanceAwareEvaluator {
            graph,
            ontology,
            options,
            plan,
            current,
            psi: 0,
            steps: 0,
            emitted: PairSet::new(),
            finished_stats: EvalStats::default(),
            exhausted: false,
        }
    }

    /// The current ceiling ψ.
    pub fn psi(&self) -> u32 {
        self.psi
    }

    /// Number of evaluations restarted at a higher ceiling so far.
    pub fn restarts(&self) -> u32 {
        self.steps
    }

    fn escalate(&mut self) -> bool {
        // Nothing was suppressed: the bounded run was already complete, so a
        // higher ceiling cannot produce new answers.
        if self.current.suppressed() == 0 || self.steps >= MAX_PSI_STEPS {
            return false;
        }
        // The bounded run ended by graceful degradation, not completion: a
        // restart at a higher ceiling would re-walk the same saturated
        // frontier (and could emit answers beyond the proven prefix), so
        // the degraded stream is final.
        if self.current.stats().degraded {
            return false;
        }
        // The request's distance ceiling is the hard limit: once ψ has
        // reached it, everything beyond is out of scope by definition.
        if self.options.max_distance.is_some_and(|max| self.psi >= max) {
            return false;
        }
        self.finished_stats += self.current.stats();
        self.psi += self.plan.phi;
        self.steps += 1;
        self.current = ConjunctEvaluator::new(
            Arc::clone(&self.plan),
            self.graph,
            self.ontology,
            Arc::clone(&self.options),
            Some(self.psi),
        );
        true
    }
}

impl AnswerStream for DistanceAwareEvaluator<'_> {
    /// The next answer in non-decreasing distance order.
    fn next_answer(&mut self) -> Result<Option<ConjunctAnswer>> {
        if self.exhausted {
            return Ok(None);
        }
        loop {
            match self.current.get_next()? {
                Some(answer) => {
                    // Answers below the previous ceiling re-appear after each
                    // restart; emit each combination only once.
                    if self.emitted.insert(answer.x, answer.y) {
                        return Ok(Some(answer));
                    }
                }
                None => {
                    if !self.escalate() {
                        self.exhausted = true;
                        return Ok(None);
                    }
                }
            }
        }
    }

    fn stats(&self) -> EvalStats {
        let mut stats = self.finished_stats;
        stats += self.current.stats();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::plan::compile_conjunct;
    use crate::query::parser::parse_query;

    fn setup() -> (GraphStore, Ontology) {
        let mut g = GraphStore::new();
        // a chain plus a typed branch so APPROX has work to do at distance > 0
        g.add_triple("a", "p", "b");
        g.add_triple("b", "p", "c");
        g.add_triple("c", "r", "d");
        g.add_triple("a", "q", "e");
        g.add_triple("e", "q", "f");
        (g, Ontology::new())
    }

    fn build<'a>(
        query: &str,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        options: &EvalOptions,
    ) -> DistanceAwareEvaluator<'a> {
        let q = parse_query(query).unwrap();
        let plan = compile_conjunct(&q.conjuncts[0], graph, ontology, options).unwrap();
        DistanceAwareEvaluator::new(Arc::new(plan), graph, ontology, Arc::new(options.clone()))
    }

    #[test]
    fn produces_same_answers_as_plain_evaluation() {
        let (g, o) = setup();
        let options = EvalOptions::default();
        for query in [
            "(?X) <- APPROX (a, p.p, ?X)",
            "(?X) <- APPROX (a, p.r, ?X)",
            "(?X) <- APPROX (a, q.q, ?X)",
            "(?X, ?Y) <- APPROX (?X, p.p, ?Y)",
            "(?X) <- APPROX (a, (p.r)|(q.q), ?X)",
        ] {
            let q = parse_query(query).unwrap();
            let mut plain =
                crate::eval::conjunct::evaluate_conjunct(&q.conjuncts[0], &g, &o, &options)
                    .unwrap();
            let mut plain_answers = plain.collect(None).unwrap();
            let mut aware = build(query, &g, &o, &options);
            let mut aware_answers = aware.collect(None).unwrap();
            let key = |v: &mut Vec<ConjunctAnswer>| {
                v.sort_by_key(|a| (a.x, a.y, a.distance));
                v.iter().map(|a| (a.x, a.y, a.distance)).collect::<Vec<_>>()
            };
            assert_eq!(
                key(&mut plain_answers),
                key(&mut aware_answers),
                "distance-aware answers differ for {query}"
            );
        }
    }

    #[test]
    fn answers_remain_sorted_by_distance() {
        let (g, o) = setup();
        let mut aware = build(
            "(?X) <- APPROX (a, p.p, ?X)",
            &g,
            &o,
            &EvalOptions::default(),
        );
        let answers = aware.collect(None).unwrap();
        let distances: Vec<u32> = answers.iter().map(|a| a.distance).collect();
        let mut sorted = distances.clone();
        sorted.sort_unstable();
        assert_eq!(distances, sorted);
    }

    #[test]
    fn stops_early_when_only_exact_answers_are_requested() {
        let (g, o) = setup();
        let mut aware = build(
            "(?X) <- APPROX (a, p.p, ?X)",
            &g,
            &o,
            &EvalOptions::default(),
        );
        let first = aware.next_answer().unwrap().unwrap();
        assert_eq!(first.distance, 0);
        assert_eq!(
            aware.psi(),
            0,
            "ψ must not escalate while distance-0 answers suffice"
        );
    }

    #[test]
    fn escalation_counts_restarts() {
        let (g, o) = setup();
        let mut aware = build(
            "(?X) <- APPROX (a, p.r, ?X)",
            &g,
            &o,
            &EvalOptions::default(),
        );
        let _ = aware.collect(None).unwrap();
        assert!(aware.restarts() > 0);
        assert!(aware.psi() > 0);
    }

    #[test]
    fn max_distance_stops_escalation() {
        let (g, o) = setup();
        // Without a ceiling this query escalates (see escalation_counts_restarts);
        // with max_distance = 0 it must stay at ψ = 0 and only return exact answers.
        let options = EvalOptions::default().with_max_distance(Some(0));
        let mut aware = build("(?X) <- APPROX (a, p.r, ?X)", &g, &o, &options);
        let answers = aware.collect(None).unwrap();
        assert!(answers.iter().all(|a| a.distance == 0));
        assert_eq!(aware.psi(), 0);
        assert_eq!(aware.restarts(), 0);
    }

    #[test]
    fn exact_conjuncts_never_escalate() {
        let (g, o) = setup();
        let mut aware = build("(?X) <- (a, p.p, ?X)", &g, &o, &EvalOptions::default());
        let answers = aware.collect(None).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(aware.psi(), 0);
        assert_eq!(aware.restarts(), 0);
    }
}
