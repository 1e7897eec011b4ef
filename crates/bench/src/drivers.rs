//! The paper's two Section 4.3 query-execution optimisations, as drivers
//! around the engine's one evaluator ([`ConjunctEvaluator`]).
//!
//! Both evaluate under a cost ceiling ψ and raise it by φ — the smallest
//! edit or relaxation cost — when more answers are wanted. Each ψ level is a
//! fresh evaluator whose [`ExecOptions::max_distance`] is ψ, capped at the
//! request's own ceiling; a non-zero `suppressed` count in its statistics is
//! the sign that a higher level could still produce more. No query execution
//! runs them: the `opt-distance` / `opt-disjunction` ablations time them
//! against the plain evaluator.
//!
//! ## Distance-aware retrieval
//!
//! APPROX/RELAX evaluation normally explores transitions of any cost, even
//! when the user only ever asks for the first few answers and those are all
//! available at cost 0. Distance-aware retrieval sets a ceiling ψ (initially
//! 0): no tuple costing more than ψ is added to `D_R`. Only when more answers
//! are requested is ψ escalated by φ and evaluation restarted from scratch
//! (the restart is the price the paper accepts; it notes the scheme is not
//! suitable when high-cost answers are wanted).
//!
//! ## Replacing alternation by disjunction
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

use omega_core::eval::visited::PairSet;
use omega_core::eval::{compile_conjunct, ConjunctPlan};
use omega_core::{
    AnswerStream, Conjunct, ConjunctAnswer, ConjunctEvaluator, EvalOptions, EvalStats, ExecOptions,
    QueryMode, Result,
};
use omega_graph::GraphStore;
use omega_ontology::Ontology;

/// How many times the two drivers raise their cost ceiling ψ by φ before
/// they stop: answers costlier than `MAX_PSI_STEPS · φ` are out of their
/// reach.
pub const MAX_PSI_STEPS: u32 = 16;

/// The escalation step φ of `plan` under `options`: the smallest cost of an
/// edit (APPROX) or relaxation (RELAX) step, and 1 when no flexible operator
/// applies, so escalation terminates.
fn phi(plan: &ConjunctPlan, options: &EvalOptions) -> u32 {
    match plan.mode {
        QueryMode::Exact => 1,
        QueryMode::Approx => options.approx.min_cost().max(1),
        QueryMode::Relax => options.relax.min_cost().max(1),
    }
}

/// The limits of the ψ level: the request's, with `max_distance` the
/// tighter of ψ and the request's own ceiling (a timeout restarts with each
/// level's evaluator).
fn at_level(request: &ExecOptions, psi: u32) -> ExecOptions {
    ExecOptions {
        max_distance: Some(request.max_distance.map_or(psi, |max| psi.min(max))),
        ..*request
    }
}

/// Escalating-ψ driver around [`ConjunctEvaluator`].
///
/// Cannot be a rank join's dependent input (it keeps the default
/// [`AnswerStream::seed`]): every ψ level restarts a fresh evaluator, which
/// would have to be handed again what the last one was.
pub struct DistanceAwareEvaluator<'a> {
    graph: &'a GraphStore,
    ontology: &'a Ontology,
    /// The request's limits; each level runs under [`at_level`] of them.
    request: ExecOptions,
    plan: Arc<ConjunctPlan>,
    current: ConjunctEvaluator<'a>,
    phi: u32,
    psi: u32,
    steps: u32,
    emitted: PairSet,
    finished_stats: EvalStats,
    exhausted: bool,
}

impl<'a> DistanceAwareEvaluator<'a> {
    /// Creates the driver with ψ = 0 for `plan`, compiled under `options`
    /// (whose costs give φ), under the limits of `request`. The plan is
    /// shared (`Arc`), so restarts clone a pointer instead of the automaton.
    pub fn new(
        plan: Arc<ConjunctPlan>,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        options: &EvalOptions,
        request: &ExecOptions,
    ) -> DistanceAwareEvaluator<'a> {
        let level = at_level(request, 0);
        let current = ConjunctEvaluator::new(Arc::clone(&plan), graph, ontology, &level, None);
        DistanceAwareEvaluator {
            graph,
            ontology,
            phi: phi(&plan, options),
            request: request.clone(),
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
        if self.current.stats().suppressed == 0 || self.steps >= MAX_PSI_STEPS {
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
        if self.request.max_distance.is_some_and(|max| self.psi >= max) {
            return false;
        }
        self.finished_stats += self.current.stats();
        self.psi += self.phi;
        self.steps += 1;
        self.current = ConjunctEvaluator::new(
            Arc::clone(&self.plan),
            self.graph,
            self.ontology,
            &at_level(&self.request, self.psi),
            None,
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
/// Cannot be a rank join's dependent input (it keeps the default
/// [`AnswerStream::seed`]): it drains one branch after another, level by
/// level, each with a fresh evaluator, and every seed would have to be
/// replayed to each of them.
pub struct DisjunctionEvaluator<'a> {
    graph: &'a GraphStore,
    ontology: &'a Ontology,
    /// The request's limits; each level runs under [`at_level`] of them.
    request: ExecOptions,
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
    /// Attempts to build the decomposed evaluator for `conjunct`, compiled
    /// under `options`, under the limits of `request`; returns `Ok(None)`
    /// when the conjunct's regular expression is not a top-level
    /// alternation (the optimisation does not apply).
    pub fn try_new(
        conjunct: &Conjunct,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        options: &EvalOptions,
        request: &ExecOptions,
    ) -> Result<Option<DisjunctionEvaluator<'a>>> {
        let Some(plans) = compile_branches(conjunct, graph, ontology, options)? else {
            return Ok(None);
        };
        Ok(Some(DisjunctionEvaluator::from_plans(
            plans, graph, ontology, options, request,
        )))
    }

    /// Builds the evaluator from already compiled branch plans (see
    /// [`compile_branches`]), so repeated runs compile the branches once.
    pub fn from_plans(
        plans: Vec<Arc<ConjunctPlan>>,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        options: &EvalOptions,
        request: &ExecOptions,
    ) -> DisjunctionEvaluator<'a> {
        debug_assert!(!plans.is_empty());
        let phi = plans.iter().map(|p| phi(p, options)).min().unwrap_or(1);
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
            request: request.clone(),
            branches,
            phi,
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
                || self.request.max_distance.is_some_and(|max| self.psi >= max)
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
                        self.branches[idx].may_have_more = evaluator.stats().suppressed > 0;
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
                    &at_level(&self.request, self.psi),
                    None,
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
    let parts = conjunct.regex.top_level_branches();
    if parts.len() < 2 {
        return Ok(None);
    }
    let mut plans = Vec::with_capacity(parts.len());
    for part in parts {
        let sub = Conjunct {
            regex: part.clone(),
            ..conjunct.clone()
        };
        plans.push(Arc::new(compile_conjunct(&sub, graph, ontology, options)?));
    }
    Ok(Some(plans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::eval::evaluate_conjunct;
    use omega_core::parse_query;

    /// A chain plus a typed branch, so APPROX has work to do at distance > 0.
    fn chain() -> (GraphStore, Ontology) {
        let mut g = GraphStore::new();
        g.add_triple("a", "p", "b");
        g.add_triple("b", "p", "c");
        g.add_triple("c", "r", "d");
        g.add_triple("a", "q", "e");
        g.add_triple("e", "q", "f");
        (g, Ontology::new())
    }

    fn aware<'a>(
        query: &str,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
        request: &ExecOptions,
    ) -> DistanceAwareEvaluator<'a> {
        let q = parse_query(query).unwrap();
        let options = EvalOptions::default();
        let plan = compile_conjunct(&q.conjuncts[0], graph, ontology, &options).unwrap();
        DistanceAwareEvaluator::new(Arc::new(plan), graph, ontology, &options, request)
    }

    #[test]
    fn phi_is_the_smallest_flexible_cost_and_one_without_one() {
        let (g, o) = chain();
        let plan = |query: &str, options: &EvalOptions| {
            let q = parse_query(query).unwrap();
            compile_conjunct(&q.conjuncts[0], &g, &o, options).unwrap()
        };
        let unit = EvalOptions::default();
        assert_eq!(phi(&plan("(?X) <- (a, p, ?X)", &unit), &unit), 1);
        let nullable = plan("(?X, ?Y) <- APPROX (?X, p*, ?Y)", &unit);
        assert_eq!(phi(&nullable, &unit), 1);
        let mut costly = EvalOptions::default();
        costly.approx.insertion = 2;
        costly.approx.deletion = 3;
        costly.approx.substitution = 2;
        assert_eq!(phi(&plan("(?X) <- APPROX (a, p, ?X)", &costly), &costly), 2);
        assert_eq!(phi(&plan("(?X) <- (a, p, ?X)", &costly), &costly), 1);
    }

    #[test]
    fn distance_aware_produces_same_answers_as_plain_evaluation() {
        let (g, o) = chain();
        let options = EvalOptions::default();
        for query in [
            "(?X) <- APPROX (a, p.p, ?X)",
            "(?X) <- APPROX (a, p.r, ?X)",
            "(?X) <- APPROX (a, q.q, ?X)",
            "(?X, ?Y) <- APPROX (?X, p.p, ?Y)",
            "(?X) <- APPROX (a, (p.r)|(q.q), ?X)",
        ] {
            let q = parse_query(query).unwrap();
            let mut plain = evaluate_conjunct(&q.conjuncts[0], &g, &o, &options).unwrap();
            let mut plain_answers = plain.collect(None).unwrap();
            let mut aware = aware(query, &g, &o, &ExecOptions::new());
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
    fn distance_aware_answers_remain_sorted_by_distance() {
        let (g, o) = chain();
        let mut aware = aware("(?X) <- APPROX (a, p.p, ?X)", &g, &o, &ExecOptions::new());
        let answers = aware.collect(None).unwrap();
        let distances: Vec<u32> = answers.iter().map(|a| a.distance).collect();
        let mut sorted = distances.clone();
        sorted.sort_unstable();
        assert_eq!(distances, sorted);
    }

    #[test]
    fn stops_early_when_only_exact_answers_are_requested() {
        let (g, o) = chain();
        let mut aware = aware("(?X) <- APPROX (a, p.p, ?X)", &g, &o, &ExecOptions::new());
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
        let (g, o) = chain();
        let mut aware = aware("(?X) <- APPROX (a, p.r, ?X)", &g, &o, &ExecOptions::new());
        let _ = aware.collect(None).unwrap();
        assert!(aware.restarts() > 0);
        assert!(aware.psi() > 0);
    }

    #[test]
    fn max_distance_stops_escalation() {
        let (g, o) = chain();
        // Without a ceiling this query escalates (see escalation_counts_restarts);
        // with max_distance = 0 it must stay at ψ = 0 and only return exact answers.
        let request = ExecOptions::new().with_max_distance(0);
        let mut aware = aware("(?X) <- APPROX (a, p.r, ?X)", &g, &o, &request);
        let answers = aware.collect(None).unwrap();
        assert!(answers.iter().all(|a| a.distance == 0));
        assert_eq!(aware.psi(), 0);
        assert_eq!(aware.restarts(), 0);
    }

    #[test]
    fn exact_conjuncts_never_escalate() {
        let (g, o) = chain();
        let mut aware = aware("(?X) <- (a, p.p, ?X)", &g, &o, &ExecOptions::new());
        let answers = aware.collect(None).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(aware.psi(), 0);
        assert_eq!(aware.restarts(), 0);
    }

    fn branchy() -> (GraphStore, Ontology) {
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

    const ALTERNATION: &str =
        "(?X) <- APPROX (UK, (livesIn-.hasCurrency)|(locatedIn-.gradFrom-), ?X)";

    fn disjunction<'a>(
        query: &str,
        graph: &'a GraphStore,
        ontology: &'a Ontology,
    ) -> Option<DisjunctionEvaluator<'a>> {
        let q = parse_query(query).unwrap();
        let (options, request) = (EvalOptions::default(), ExecOptions::new());
        DisjunctionEvaluator::try_new(&q.conjuncts[0], graph, ontology, &options, &request).unwrap()
    }

    #[test]
    fn decomposes_only_top_level_alternations() {
        let (g, o) = branchy();
        assert_eq!(disjunction(ALTERNATION, &g, &o).unwrap().branch_count(), 2);
        let three = "(?X) <- APPROX (UK, livesIn-|locatedIn-.gradFrom-|hasCurrency*, ?X)";
        assert_eq!(disjunction(three, &g, &o).unwrap().branch_count(), 3);
        for query in [
            "(?X) <- APPROX (UK, locatedIn-.gradFrom-, ?X)",
            "(?X) <- APPROX (UK, (livesIn-|locatedIn-).gradFrom-, ?X)",
            "(?X) <- APPROX (UK, (livesIn-|locatedIn-)*, ?X)",
        ] {
            assert!(disjunction(query, &g, &o).is_none(), "{query}");
        }
    }

    #[test]
    fn disjunction_produces_same_answer_set_as_plain_evaluation() {
        let (g, o) = branchy();
        let q = parse_query(ALTERNATION).unwrap();
        let options = EvalOptions::default();
        let mut plain = evaluate_conjunct(&q.conjuncts[0], &g, &o, &options).unwrap();
        let mut expected: Vec<_> = plain
            .collect(None)
            .unwrap()
            .iter()
            .map(|a| (a.x, a.y, a.distance))
            .collect();
        expected.sort_unstable();
        let mut decomposed = disjunction(ALTERNATION, &g, &o).unwrap();
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
    fn disjunction_answers_are_sorted_and_deduplicated() {
        let (g, o) = branchy();
        let mut decomposed = disjunction(ALTERNATION, &g, &o).unwrap();
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
        let (g, o) = branchy();
        let mut decomposed = disjunction(ALTERNATION, &g, &o).unwrap();
        // The exact (distance-0) answers from branch 2 satisfy the limit, so
        // ψ never escalates.
        let answers = decomposed.collect(Some(2)).unwrap();
        assert_eq!(answers.len(), 2);
        assert_eq!(decomposed.psi(), 0);
        assert_eq!(decomposed.restarts(), 0);
    }
}
