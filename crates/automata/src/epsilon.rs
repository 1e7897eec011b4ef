//! Weighted ε-removal.
//!
//! The Thompson construction contributes zero-cost ε-transitions, and a
//! compile removes them once, before APPROX or RELAX augments the automaton
//! (neither adds an ε). Removal takes weighted ε-transitions too, as a
//! hand-built automaton may have them. The evaluator requires an ε-free
//! automaton; removal follows the weighted-automata
//! construction the paper cites (Droste, Kuich & Vogler, *Handbook of
//! Weighted Automata*): every state gains direct copies of the transitions
//! reachable through its ε-closure (with the closure cost added), and a
//! state whose ε-closure reaches a final state becomes final itself with the
//! closure cost added to the final weight — this is how final states end up
//! carrying a positive `weight(s)`.
//!
//! Only the states the result keeps are worked on. A walk from the initial
//! state over the input's per-state slices
//! ([`WeightedNfa::transitions_from`]) finds them first — the initial state
//! and every target of an edge-consuming transition; the interior states of
//! Thompson fragments are neither — which fixes the result's numbering. Each
//! kept state then gets one closure (a dense distance array, reset through a
//! touched list and shared by all of them), its transitions are deduplicated
//! by sorting that state's own short list, and they go straight into the
//! result. Nothing is pruned afterwards.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::label::TransitionLabel;
use crate::nfa::{StateId, WeightedNfa};

/// Returns an equivalent automaton without ε-transitions.
///
/// Equivalence is in the weighted sense: every word keeps the same minimum
/// acceptance cost (see `crate::simulate::min_accept_cost`). States that no
/// edge-consuming transition reaches are dropped; the initial state becomes
/// state 0 and the others keep their relative order.
pub fn remove_epsilons(nfa: &WeightedNfa) -> WeightedNfa {
    if !nfa.is_frozen() {
        // Hand-built automata need not have been frozen by their maker.
        let mut copy = nfa.clone();
        copy.freeze();
        return remove_epsilons(&copy);
    }
    let states = nfa.state_count();
    // The result keeps the initial state and every target of an
    // edge-consuming transition that can be reached from it.
    let mut kept = vec![false; states];
    let mut seen = vec![false; states];
    let mut stack = Vec::with_capacity(states);
    kept[nfa.initial().index()] = true;
    seen[nfa.initial().index()] = true;
    stack.push(nfa.initial());
    while let Some(state) = stack.pop() {
        for t in nfa.transitions_from(state) {
            kept[t.to.index()] |= t.label.consumes_edge();
            if !std::mem::replace(&mut seen[t.to.index()], true) {
                stack.push(t.to);
            }
        }
    }
    // The initial state first, the rest by ascending original id.
    let mut renumbered = vec![StateId(0); states];
    let mut out = WeightedNfa::with_capacity(states, nfa.transition_count());
    for state in nfa.states() {
        if kept[state.index()] && state != nfa.initial() {
            renumbered[state.index()] = out.add_state();
        }
    }
    let mut closure = Closure::new(nfa);
    for state in nfa.states().filter(|s| kept[s.index()]) {
        let from = renumbered[state.index()];
        if let Some(weight) = closure.row_of(state) {
            out.add_final(from, weight);
        }
        for &(label, cost, to) in &closure.row {
            out.push_unchecked(from, label.clone(), cost, renumbered[to.index()]);
        }
    }
    out.freeze();
    out
}

/// Visits the labels that leave the initial state once ε-transitions are
/// removed, one per `(label, target)` pair: what
/// `remove_epsilons(nfa).initial_labels()` yields, from the initial state's
/// closure alone. `nfa` must be frozen, as [`crate::build_nfa`]'s output is.
pub fn first_labels(nfa: &WeightedNfa, mut visit: impl FnMut(&TransitionLabel)) {
    let mut closure = Closure::new(nfa);
    closure.row_of(nfa.initial());
    closure.row.iter().for_each(|&(label, ..)| visit(label));
}

/// The weighted ε-closure of one state at a time. The arrays are sized once
/// per automaton and reused from state to state.
struct Closure<'a> {
    nfa: &'a WeightedNfa,
    /// Minimum ε-cost from the current state, `None` outside its closure.
    dist: Vec<Option<u32>>,
    /// The states `dist` is set for.
    touched: Vec<StateId>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// The current state's transitions in the ε-free automaton.
    row: Vec<(&'a TransitionLabel, u32, StateId)>,
}

impl<'a> Closure<'a> {
    fn new(nfa: &'a WeightedNfa) -> Self {
        let states = nfa.state_count();
        Closure {
            nfa,
            dist: vec![None; states],
            touched: Vec::with_capacity(states),
            heap: BinaryHeap::with_capacity(states),
            row: Vec::with_capacity(nfa.transition_count()),
        }
    }

    /// Computes what `state` becomes: returns its final weight (the cheapest
    /// way to reach a final state via ε) and leaves in `self.row` the
    /// edge-consuming transitions reachable through its closure, closure
    /// cost added, one per `(label, target)` at the minimum cost.
    fn row_of(&mut self, state: StateId) -> Option<u32> {
        for s in self.touched.drain(..) {
            self.dist[s.index()] = None;
        }
        self.row.clear();
        let mut final_weight: Option<u32> = None;
        self.dist[state.index()] = Some(0);
        self.touched.push(state);
        self.heap.push(Reverse((0, state.0)));
        while let Some(Reverse((cost, raw))) = self.heap.pop() {
            let via = StateId(raw);
            if self.dist[via.index()] != Some(cost) {
                continue; // stale entry
            }
            if let Some(weight) = self.nfa.final_weight(via) {
                let total = cost.saturating_add(weight);
                final_weight = Some(final_weight.map_or(total, |w| w.min(total)));
            }
            for t in self.nfa.transitions_from(via) {
                let total = cost.saturating_add(t.cost);
                if !t.label.is_epsilon() {
                    self.row.push((&t.label, total, t.to));
                    continue;
                }
                let seen = &mut self.dist[t.to.index()];
                if seen.is_none_or(|d| total < d) {
                    if seen.is_none() {
                        self.touched.push(t.to);
                    }
                    *seen = Some(total);
                    self.heap.push(Reverse((total, t.to.0)));
                }
            }
        }
        // Cheapest copy of each `(label, target)` first, then drop the rest.
        self.row
            .sort_unstable_by(|a, b| (a.0, a.2, a.1).cmp(&(b.0, b.2, b.1)));
        self.row
            .dedup_by(|later, kept| later.0 == kept.0 && later.2 == kept.2);
        final_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::TransitionLabel;
    use crate::resolver::MapResolver;
    use crate::simulate::min_accept_cost;
    use crate::thompson::build_nfa;
    use omega_regex::{parse, Symbol};

    fn sym(name: &str) -> TransitionLabel {
        TransitionLabel::symbol(None, false, name)
    }

    fn w(names: &[&str]) -> Vec<Symbol> {
        names.iter().map(|&n| Symbol::forward(n)).collect()
    }

    #[test]
    fn removes_all_epsilons() {
        let resolver = MapResolver::new();
        for expr in ["a*", "a.b|c", "(a|b)*.c", "a+.b*", "()"] {
            let nfa = build_nfa(&parse(expr).unwrap(), &resolver);
            let cleaned = remove_epsilons(&nfa);
            assert!(!cleaned.has_epsilon_transitions(), "{expr} kept ε");
        }
    }

    #[test]
    fn preserves_language_of_regex_nfas() {
        let resolver = MapResolver::new();
        let words: Vec<Vec<Symbol>> = vec![
            vec![],
            w(&["a"]),
            w(&["b"]),
            w(&["c"]),
            w(&["a", "b"]),
            w(&["a", "a", "b"]),
            w(&["a", "b", "c"]),
            w(&["c", "c"]),
        ];
        for expr in ["a*", "a.b|c", "(a|b)*.c", "a+.b*", "()", "a.b.c", "(a.b)+"] {
            let nfa = build_nfa(&parse(expr).unwrap(), &resolver);
            let cleaned = remove_epsilons(&nfa);
            for word in &words {
                assert_eq!(
                    min_accept_cost(&nfa, word),
                    min_accept_cost(&cleaned, word),
                    "language changed for {expr} on {word:?}"
                );
            }
        }
    }

    #[test]
    fn weighted_epsilon_becomes_final_weight() {
        // s0 --a/0--> s1 --ε/2--> s2(final,0): after removal s1 must be final
        // with weight 2.
        let mut nfa = WeightedNfa::new();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.add_transition(nfa.initial(), sym("a"), 0, s1);
        nfa.add_transition(s1, TransitionLabel::Epsilon, 2, s2);
        nfa.add_final(s2, 0);
        nfa.freeze();
        let cleaned = remove_epsilons(&nfa);
        assert!(!cleaned.has_epsilon_transitions());
        assert_eq!(min_accept_cost(&cleaned, &w(&["a"])), Some(2));
        // some state carries the positive weight
        assert!(cleaned.finals().any(|(_, w)| w == 2));
    }

    #[test]
    fn weighted_epsilon_chains_accumulate() {
        // ε/1 . a/0 . ε/3 accepted word "a" must cost 4 before and after.
        let mut nfa = WeightedNfa::new();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        let s3 = nfa.add_state();
        nfa.add_transition(nfa.initial(), TransitionLabel::Epsilon, 1, s1);
        nfa.add_transition(s1, sym("a"), 0, s2);
        nfa.add_transition(s2, TransitionLabel::Epsilon, 3, s3);
        nfa.add_final(s3, 0);
        nfa.freeze();
        let cleaned = remove_epsilons(&nfa);
        assert_eq!(min_accept_cost(&nfa, &w(&["a"])), Some(4));
        assert_eq!(min_accept_cost(&cleaned, &w(&["a"])), Some(4));
    }

    /// Hand-built automata reach `remove_epsilons` without a `freeze` call.
    #[test]
    fn accepts_an_unfrozen_input() {
        let mut nfa = WeightedNfa::new();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.add_transition(nfa.initial(), TransitionLabel::Epsilon, 1, s1);
        nfa.add_transition(s1, sym("a"), 0, s2);
        nfa.add_transition(s2, TransitionLabel::Epsilon, 3, s1);
        nfa.add_final(s2, 0);
        assert!(!nfa.is_frozen());
        let cleaned = remove_epsilons(&nfa);
        assert!(!cleaned.has_epsilon_transitions());
        for word in [w(&[]), w(&["a"]), w(&["a", "a"]), w(&["b"])] {
            assert_eq!(
                min_accept_cost(&nfa, &word),
                min_accept_cost(&cleaned, &word)
            );
        }
        assert_eq!(min_accept_cost(&cleaned, &w(&["a", "a"])), Some(4));
    }

    /// Two compiles of one expression give the same automaton down to the
    /// raw transition order and the printed form.
    #[test]
    fn compiles_are_reproducible() {
        use crate::approx::{approximate, ApproxConfig};
        let resolver = MapResolver::new();
        let compile = || {
            let base = build_nfa(&parse("(a|b|c)+.(a|d)").unwrap(), &resolver);
            approximate(&remove_epsilons(&base), &ApproxConfig::default())
        };
        let first = compile();
        for _ in 0..8 {
            let again = compile();
            assert_eq!(first.transitions(), again.transitions());
            assert_eq!(first.to_string(), again.to_string());
        }
    }

    #[test]
    fn first_labels_are_the_cleaned_initial_labels() {
        let resolver = MapResolver::new();
        for expr in ["a.b|a.c", "(a|b)*.c", "a+.b*", "()", "a-.(b|c)"] {
            let nfa = build_nfa(&parse(expr).unwrap(), &resolver);
            let mut expected: Vec<_> = remove_epsilons(&nfa).initial_labels().cloned().collect();
            let mut first = Vec::new();
            first_labels(&nfa, |label| first.push(label.clone()));
            expected.sort();
            first.sort();
            assert_eq!(first, expected, "{expr}");
        }
    }

    #[test]
    fn prunes_unreachable_states() {
        let resolver = MapResolver::new();
        let nfa = build_nfa(&parse("(a|b).c*").unwrap(), &resolver);
        let cleaned = remove_epsilons(&nfa);
        // Every state of the cleaned automaton must be reachable from the
        // initial state.
        let mut reachable = vec![false; cleaned.state_count()];
        reachable[cleaned.initial().index()] = true;
        let mut stack = vec![cleaned.initial()];
        while let Some(s) = stack.pop() {
            for t in cleaned.transitions().iter().filter(|t| t.from == s) {
                if !reachable[t.to.index()] {
                    reachable[t.to.index()] = true;
                    stack.push(t.to);
                }
            }
        }
        assert!(reachable.iter().all(|&r| r));
        assert!(cleaned.state_count() <= nfa.state_count());
    }
}
