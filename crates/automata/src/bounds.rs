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
//!
//! ## Past one edge: node classes
//!
//! `h` sees the graph one label at a time. [`SignatureBound`] sees whole
//! paths, in an image of the graph: the data graph's nodes fall into at
//! most 64 classes (by the layers they have edges in, see
//! `omega_graph::summary`), and an abstract edge links two classes wherever
//! a real edge links two of their nodes. Per state `q` it keeps two class
//! sets, one `u64` each: `tight[q]`, the classes from which the image
//! reaches acceptance using only *tight* steps (`cost + h(to) = h(q)`, and
//! acceptance only at a final weight of `h(q)`), and `live[q]`, those from
//! which it reaches acceptance at all. A node `n` of class `c` in state `q`
//! is bounded by `h(q)` when `c ∈ tight[q]`, by `h(q) + 1` when `c ∈ live[q]`
//! only, and is dead otherwise.
//!
//! *Admissible:* a real path of cost `h(q)` from `(n, q)` takes tight steps
//! only (each step's `h` is a lower bound of the rest), and each of its
//! edges maps to an abstract one, so `class(n) ∈ tight[q]`; costs are
//! integers, so any other path costs at least `h(q) + 1`.
//! *Consistent:* a tight step into a tight `(q', n')` leaves a tight
//! `(q, n)` (its edge is abstract), and every other step already pays
//! `h(q) + 1`; so the bound never falls by more than a step's cost.

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

    /// The trivial bound: 0 for every state of `nfa`, none dead. Keyed by
    /// it, a queue pops by distance alone (the paper's plain order).
    pub fn zero(nfa: &WeightedNfa) -> MinCostToAccept {
        MinCostToAccept {
            h: vec![0; nfa.state_count()],
        }
    }

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

/// Per-state sets of node classes, one `u64` each, from which acceptance
/// is reachable in an abstract image of the data graph: at cost `h` along
/// tight steps (`tight`), and at all (`live`). See "Past one edge" in the
/// module documentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureBound {
    /// `masks[2 q]` is `tight[q]`, `masks[2 q + 1]` is `live[q]`.
    masks: Vec<u64>,
}

impl SignatureBound {
    /// The least fixpoint of both sets over `nfa`'s transitions, from the
    /// final states (every class of `all`), given `h` and `fires(label,
    /// to)`: the classes from which a step over `label` reaches a node of a
    /// class in the non-empty set `to`. `fires` may over-approximate (a
    /// wildcard may answer `all`) but must cover every real step.
    pub fn compute(
        nfa: &WeightedNfa,
        h: &MinCostToAccept,
        all: u64,
        mut fires: impl FnMut(&TransitionLabel, u64) -> u64,
    ) -> SignatureBound {
        let mut masks = vec![0u64; 2 * nfa.state_count()];
        for (state, weight) in nfa.finals() {
            let q = 2 * state.index();
            masks[q + 1] = all;
            if weight == h.get(state) {
                masks[q] = all;
            }
        }
        // Transitions are grouped by source state in state order, and the
        // sets flow backwards: walking them in reverse settles most
        // automata in one pass. A later pass re-reads a transition only
        // when its target's sets grew since it was read (in the last pass,
        // `grew`, or in this one, `grown`): one bit per state, states 64
        // apart sharing one, which only re-reads more.
        let bit = |state: StateId| 1u64 << (state.index() % 64);
        let mut grew = u64::MAX;
        while grew != 0 {
            let mut grown = 0;
            for t in nfa.transitions().iter().rev() {
                let to_h = h.get(t.to);
                if (grew | grown) & bit(t.to) == 0 || to_h == MinCostToAccept::DEAD {
                    continue;
                }
                let (from, to) = (2 * t.from.index(), 2 * t.to.index());
                let tight = t.cost.saturating_add(to_h) == h.get(t.from);
                let [tight_to, live_to] = [masks[to], masks[to + 1]];
                // A tight step whose target is as tight as it is live
                // fires once for both sets.
                let live = if live_to == 0 || masks[from + 1] == all {
                    0
                } else {
                    fires(&t.label, live_to)
                };
                let tight = match tight && tight_to != 0 && masks[from] != all {
                    false => 0,
                    true if tight_to == live_to && live != 0 => live,
                    true => fires(&t.label, tight_to),
                };
                if (tight & !masks[from]) | (live & !masks[from + 1]) != 0 {
                    masks[from] |= tight;
                    masks[from + 1] |= live | tight;
                    grown |= bit(t.from);
                }
            }
            grew = grown;
        }
        SignatureBound { masks }
    }

    /// The trivial sets: every class of `all` tight and live in every
    /// state of `nfa`, so no class adds to `h` or is dead.
    pub fn everywhere(nfa: &WeightedNfa, all: u64) -> SignatureBound {
        SignatureBound {
            masks: vec![all; 2 * nfa.state_count()],
        }
    }

    /// The classes of `state` bounded by `h(state)`.
    #[inline]
    pub fn tight(&self, state: StateId) -> u64 {
        self.masks[2 * state.index()]
    }

    /// The classes of `state` that can reach acceptance at all.
    #[inline]
    pub fn live(&self, state: StateId) -> u64 {
        self.masks[2 * state.index() + 1]
    }

    /// What a node of one of `classes` adds to `h(state)` in `state`: 0 if
    /// one of them is tight, 1 if one is live, `None` if all are dead. For
    /// a set of nodes, the least over its members.
    #[inline]
    pub fn offset(&self, state: StateId, classes: u64) -> Option<u32> {
        let q = 2 * state.index();
        if classes & self.masks[q] != 0 {
            Some(0)
        } else if classes & self.masks[q + 1] != 0 {
            Some(1)
        } else {
            None
        }
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

    /// Two classes: 0 has an `a` edge into class 1, 1 has a `b` edge into
    /// class 0. A wildcard fires from every class.
    fn two_class_fires(label: &TransitionLabel, to: u64) -> u64 {
        match label.to_string().as_str() {
            "a" => u64::from(to & 0b10 != 0),
            "b" => u64::from(to & 0b01 != 0) << 1,
            _ => 0b11,
        }
    }

    #[test]
    fn tight_classes_follow_abstract_paths_at_cost_h() {
        // s0 --a/0--> s1 --b/0--> s2 (final 0), and s1 --*/1--> s2.
        let mut nfa = WeightedNfa::new();
        let s0 = nfa.initial();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.add_transition(s0, sym("a"), 0, s1);
        nfa.add_transition(s1, sym("b"), 0, s2);
        nfa.add_transition(s1, TransitionLabel::Any, 1, s2);
        nfa.add_final(s2, 0);
        nfa.freeze();
        let h = MinCostToAccept::compute(&nfa);
        let bound = SignatureBound::compute(&nfa, &h, 0b11, two_class_fires);
        assert_eq!(bound.tight(s2), 0b11);
        // Only class 1 has a `b` edge: class 0 needs the wildcard, at 1.
        assert_eq!(bound.tight(s1), 0b10);
        assert_eq!(bound.live(s1), 0b11);
        assert_eq!(bound.offset(s1, 0b01), Some(1));
        assert_eq!(bound.offset(s1, 0b11), Some(0));
        // `a` reaches class 1 from class 0 only; nothing fires `a` from 1.
        assert_eq!(bound.tight(s0), 0b01);
        assert_eq!(bound.live(s0), 0b01);
        assert_eq!(bound.offset(s0, 0b10), None);
        for s in [s0, s1, s2] {
            assert_eq!(bound.tight(s) & !bound.live(s), 0);
        }
    }

    #[test]
    fn a_costlier_final_weight_is_live_but_not_tight() {
        // s0 final at weight 2, or s0 --a/0--> s1 (final 0): h(s0) = 0.
        let mut nfa = WeightedNfa::new();
        let s0 = nfa.initial();
        let s1 = nfa.add_state();
        nfa.add_transition(s0, sym("a"), 0, s1);
        nfa.add_final(s0, 2);
        nfa.add_final(s1, 0);
        nfa.freeze();
        let h = MinCostToAccept::compute(&nfa);
        let bound = SignatureBound::compute(&nfa, &h, 0b11, two_class_fires);
        assert_eq!(bound.tight(s0), 0b01);
        assert_eq!(bound.live(s0), 0b11);
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
