//! Word-level simulation of weighted NFAs.
//!
//! The evaluator never simulates words — it traverses the product of the
//! automaton with the data graph. Word simulation exists as a specification
//! and test oracle: it defines the weighted language of an automaton
//! (minimum cost to accept a word) and is used by unit and property tests to
//! check that the position construction, reversal and the APPROX/RELAX
//! augmentations do what they claim. Every transition consumes one symbol of
//! the word.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use omega_regex::Symbol;

use crate::nfa::{StateId, WeightedNfa};

/// The minimum total cost at which `nfa` accepts `word`, or `None` if the
/// word is not accepted at any cost.
///
/// Runs a Dijkstra search over `(state, position)` pairs, so it handles
/// weighted transitions, final weights and cycles.
pub fn min_accept_cost(nfa: &WeightedNfa, word: &[Symbol]) -> Option<u32> {
    let mut dist: HashMap<(StateId, usize), u32> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u32, u32, usize)>> = BinaryHeap::new();
    dist.insert((nfa.initial(), 0), 0);
    heap.push(Reverse((0, nfa.initial().0, 0)));
    let mut best: Option<u32> = None;

    while let Some(Reverse((cost, state_raw, pos))) = heap.pop() {
        let state = StateId(state_raw);
        if dist.get(&(state, pos)).copied().unwrap_or(u32::MAX) < cost {
            continue;
        }
        if pos == word.len() {
            if let Some(weight) = nfa.final_weight(state) {
                let total = cost.saturating_add(weight);
                best = Some(best.map_or(total, |b| b.min(total)));
            }
        }
        let Some(symbol) = word.get(pos) else {
            continue;
        };
        for t in nfa.transitions().iter().filter(|t| t.from == state) {
            if !t.label.matches_symbol(symbol) {
                continue;
            }
            let next_cost = cost.saturating_add(t.cost);
            let key = (t.to, pos + 1);
            if next_cost < dist.get(&key).copied().unwrap_or(u32::MAX) {
                dist.insert(key, next_cost);
                heap.push(Reverse((next_cost, t.to.0, pos + 1)));
            }
        }
    }
    best
}

/// Whether `nfa` accepts `word` at cost 0.
pub fn accepts(nfa: &WeightedNfa, word: &[Symbol]) -> bool {
    min_accept_cost(nfa, word) == Some(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::TransitionLabel;

    fn sym(name: &str) -> TransitionLabel {
        TransitionLabel::symbol(None, false, name)
    }

    fn w(names: &[&str]) -> Vec<Symbol> {
        names.iter().map(|&n| Symbol::forward(n)).collect()
    }

    #[test]
    fn weighted_acceptance() {
        // s0 --a/0--> s1 --b/2--> s2(final, weight 1)
        let mut nfa = WeightedNfa::new();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.add_transition(nfa.initial(), sym("a"), 0, s1);
        nfa.add_transition(s1, sym("b"), 2, s2);
        nfa.add_final(s2, 1);
        nfa.freeze();
        assert_eq!(min_accept_cost(&nfa, &w(&["a", "b"])), Some(3));
        assert_eq!(min_accept_cost(&nfa, &w(&["a"])), None);
        assert!(!accepts(&nfa, &w(&["a", "b"])));
    }

    #[test]
    fn picks_cheapest_of_parallel_paths() {
        let mut nfa = WeightedNfa::new();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.add_transition(nfa.initial(), sym("a"), 5, s2);
        nfa.add_transition(nfa.initial(), sym("a"), 1, s1);
        nfa.add_transition(s1, sym("b"), 0, s2);
        nfa.add_transition(s2, sym("b"), 0, s2);
        nfa.add_final(s2, 0);
        nfa.freeze();
        assert_eq!(min_accept_cost(&nfa, &w(&["a", "b"])), Some(1));
    }

    #[test]
    fn wildcard_any_matches_both_directions() {
        let mut nfa = WeightedNfa::new();
        let s1 = nfa.add_state();
        nfa.add_transition(nfa.initial(), TransitionLabel::Any, 1, s1);
        nfa.add_final(s1, 0);
        nfa.freeze();
        assert_eq!(min_accept_cost(&nfa, &[Symbol::inverse("zzz")]), Some(1));
        assert_eq!(min_accept_cost(&nfa, &[Symbol::forward("zzz")]), Some(1));
    }
}
