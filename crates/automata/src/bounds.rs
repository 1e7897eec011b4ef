//! Per-state accept lower bounds: the admissible heuristic behind
//! cost-guided (A*) evaluation.
//!
//! For every state `s` of a [`WeightedNfa`], [`MinCostToAccept`]
//! records the minimum total transition weight of any path from `s` to an
//! accepting state, including the accepting state's final weight. It is
//! computed once per compiled plan by a reverse Dijkstra over the automaton
//! — node count and transition count are tiny compared to the data graph,
//! so the cost is noise next to building the automaton.
//!
//! ## Admissibility
//!
//! Evaluation explores the weighted product of the automaton with the data
//! graph: a traversal tuple `(v, n, s)` at accumulated distance `g` can only
//! become an answer by following product transitions whose automaton
//! projections form a path from `s` to some accepting state `f`, paying that
//! path's transition costs plus `weight(f)`. The graph can *restrict* which
//! automaton paths are realisable — it can never add paths or lower their
//! cost — so the final distance of **any** answer derived from the tuple is
//! at least `g + h(s)`, where `h = MinCostToAccept`. The bound therefore
//! never excludes or delays an answer: popping tuples in `f = g + h` order
//! still yields answers in non-decreasing final distance, and a tuple with
//! `g + h(s) > ψ` can be dropped without losing any answer of distance `≤ ψ`.
//!
//! ## Consistency
//!
//! `h` is a shortest-path distance, so `h(s) ≤ cost(t) + h(target(t))` for
//! every live transition `t` out of `s` and `h(s) ≤ weight(s)` for final
//! `s`. Consequently `f = g + h` is non-decreasing along any derivation,
//! which is what lets the evaluator use a monotone bucket queue keyed on `f`
//! without re-expansion.
//!
//! ## Graph-aware liveness
//!
//! Both flexible operators only *add* transitions to the 0-cost position
//! automaton, so over the bare automaton `h ≡ 0`. The bound starts to bite
//! when it is computed against what the data graph can actually fire:
//! [`MinCostToAccept::compute_with`] takes a liveness predicate and treats
//! transitions whose label can never match any edge of the graph (unresolved
//! symbols, labels with zero edges, `type`-constraints on classes with no
//! instances) as absent. States that then cannot reach acceptance at all are
//! **dead** (`h = `[`MinCostToAccept::DEAD`]) and whole traversal branches
//! into them are pruned before they ever touch the CSR.
//!
//! The predicate must *under*-approximate impossibility: it may report a
//! transition live that never fires on this graph (costing only missed
//! pruning), but must never report one dead that can fire (which would
//! break admissibility).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::label::TransitionLabel;
use crate::nfa::{StateId, WeightedNfa};

/// Per-state minimum remaining weight to reach acceptance.
///
/// See the module documentation for the admissibility and consistency
/// arguments. Build one with [`MinCostToAccept::compute`] (every label
/// assumed fireable) or
/// [`MinCostToAccept::compute_with`] (graph-aware liveness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinCostToAccept {
    h: Vec<u32>,
}

impl MinCostToAccept {
    /// The bound of a state that cannot reach any accepting state: such
    /// states can never contribute an answer and are pruned outright.
    pub const DEAD: u32 = u32::MAX;

    /// Computes the bounds assuming every transition can fire.
    pub fn compute(nfa: &WeightedNfa) -> MinCostToAccept {
        MinCostToAccept::compute_with(nfa, |_| true)
    }

    /// Computes the bounds with a graph-aware liveness predicate: a
    /// transition whose label `live` rejects is treated as absent. The
    /// predicate must only reject labels that can never match an edge of
    /// the graph the automaton will run against.
    pub fn compute_with(
        nfa: &WeightedNfa,
        mut live: impl FnMut(&TransitionLabel) -> bool,
    ) -> MinCostToAccept {
        let n = nfa.state_count();
        // Reverse adjacency over live transitions, flat: the `(cost, from)`
        // pairs entering state `s` are `incoming[starts[s]..starts[s + 1]]`
        // once the counting sort below has placed them.
        let live: Vec<_> = nfa
            .transitions()
            .iter()
            .filter(|t| live(&t.label))
            .collect();
        let mut starts = vec![0usize; n + 2];
        for t in &live {
            starts[t.to.index() + 2] += 1;
        }
        for s in 2..n + 2 {
            starts[s] += starts[s - 1];
        }
        let mut incoming = vec![(0, StateId(0)); live.len()];
        for t in live {
            let slot = &mut starts[t.to.index() + 1];
            incoming[*slot] = (t.cost, t.from);
            *slot += 1;
        }
        let mut h = vec![MinCostToAccept::DEAD; n];
        // Multi-source Dijkstra seeded at the accepting states with their
        // final weights (the cost still owed when stopping there).
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for (state, weight) in nfa.finals() {
            if weight < h[state.index()] {
                h[state.index()] = weight;
                heap.push(Reverse((weight, state.0)));
            }
        }
        while let Some(Reverse((d, s))) = heap.pop() {
            if d > h[s as usize] {
                continue; // stale entry
            }
            for &(cost, from) in &incoming[starts[s as usize]..starts[s as usize + 1]] {
                let next = d.saturating_add(cost);
                if next < h[from.index()] {
                    h[from.index()] = next;
                    heap.push(Reverse((next, from.0)));
                }
            }
        }
        MinCostToAccept { h }
    }

    /// The lower bound of `state`, or [`MinCostToAccept::DEAD`] when no
    /// accepting state is reachable.
    #[inline]
    pub fn get(&self, state: StateId) -> u32 {
        self.h[state.index()]
    }

    /// Whether `state` can never reach acceptance.
    #[inline]
    pub fn is_dead(&self, state: StateId) -> bool {
        self.h[state.index()] == MinCostToAccept::DEAD
    }

    /// Number of states covered.
    pub fn len(&self) -> usize {
        self.h.len()
    }

    /// Whether the automaton had no states (never the case for a
    /// constructed NFA, which always has its initial state).
    pub fn is_empty(&self) -> bool {
        self.h.is_empty()
    }

    /// Number of dead states.
    pub fn dead_states(&self) -> usize {
        self.h
            .iter()
            .filter(|&&v| v == MinCostToAccept::DEAD)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(name: &str) -> TransitionLabel {
        TransitionLabel::symbol(None, false, name)
    }

    /// s0 --a/0--> s1 --b/2--> s2(final, weight 3)
    fn chain() -> (WeightedNfa, StateId, StateId, StateId) {
        let mut nfa = WeightedNfa::new();
        let s0 = nfa.initial();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.add_transition(s0, sym("a"), 0, s1);
        nfa.add_transition(s1, sym("b"), 2, s2);
        nfa.add_final(s2, 3);
        nfa.freeze();
        (nfa, s0, s1, s2)
    }

    #[test]
    fn chain_accumulates_costs_and_final_weight() {
        let (nfa, s0, s1, s2) = chain();
        let h = MinCostToAccept::compute(&nfa);
        assert_eq!(h.get(s2), 3);
        assert_eq!(h.get(s1), 5);
        assert_eq!(h.get(s0), 5);
        assert_eq!(h.dead_states(), 0);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
    }

    #[test]
    fn unreachable_acceptance_is_dead() {
        let mut nfa = WeightedNfa::new();
        let s0 = nfa.initial();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.add_transition(s0, sym("a"), 0, s1);
        // s2 dangles with no path to the final state.
        nfa.add_transition(s2, sym("b"), 0, s2);
        nfa.add_final(s1, 0);
        nfa.freeze();
        let h = MinCostToAccept::compute(&nfa);
        assert_eq!(h.get(s0), 0);
        assert!(h.is_dead(s2));
        assert_eq!(h.dead_states(), 1);
    }

    #[test]
    fn cheapest_of_parallel_paths_wins() {
        let mut nfa = WeightedNfa::new();
        let s0 = nfa.initial();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.add_transition(s0, sym("cheap"), 1, s2);
        nfa.add_transition(s0, sym("a"), 0, s1);
        nfa.add_transition(s1, sym("b"), 5, s2);
        nfa.add_final(s2, 0);
        nfa.freeze();
        let h = MinCostToAccept::compute(&nfa);
        assert_eq!(h.get(s0), 1, "the direct cost-1 edge beats 0 + 5");
        assert_eq!(h.get(s1), 5);
    }

    #[test]
    fn final_state_with_cheaper_outgoing_path_uses_it() {
        // A final state with a large weight but a cheap path to another
        // final state takes the path.
        let mut nfa = WeightedNfa::new();
        let s0 = nfa.initial();
        let s1 = nfa.add_state();
        nfa.add_final(s0, 9);
        nfa.add_transition(s0, sym("a"), 1, s1);
        nfa.add_final(s1, 0);
        nfa.freeze();
        let h = MinCostToAccept::compute(&nfa);
        assert_eq!(h.get(s0), 1);
    }

    #[test]
    fn liveness_predicate_kills_paths() {
        let (nfa, s0, s1, s2) = chain();
        // `b` can never fire: only s2 itself still accepts.
        let h = MinCostToAccept::compute_with(&nfa, |l| l.to_string() != "b");
        assert_eq!(h.get(s2), 3);
        assert!(h.is_dead(s1));
        assert!(h.is_dead(s0));
        assert_eq!(h.dead_states(), 2);
    }

    #[test]
    fn consistency_holds_on_flexible_automata() {
        use crate::approx::{approximate, ApproxConfig};
        use crate::position::build_nfa;
        use crate::resolver::MapResolver;
        use omega_regex::parse;

        let resolver = MapResolver::new();
        for expr in ["a.b", "a*|b.c", "a-.b+", "(a.b)|(c.d.a)"] {
            let base = build_nfa(&parse(expr).unwrap(), &resolver);
            let approx = approximate(&base, &ApproxConfig::default());
            for nfa in [base, approx] {
                let h = MinCostToAccept::compute(&nfa);
                for t in nfa.transitions() {
                    let (hs, ht) = (h.get(t.from), h.get(t.to));
                    if ht != MinCostToAccept::DEAD {
                        assert!(
                            hs <= t.cost.saturating_add(ht),
                            "consistency violated on {expr}: h({:?})={hs} > {} + h({:?})={ht}",
                            t.from,
                            t.cost,
                            t.to
                        );
                    }
                }
                for (state, weight) in nfa.finals() {
                    assert!(h.get(state) <= weight);
                }
                // Position automata are co-accessible at cost 0, so with
                // every label live the bound must be identically zero.
                assert_eq!(h.dead_states(), 0);
            }
        }
    }
}
