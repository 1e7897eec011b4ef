//! Two stages this crate shipped before they were rewritten, verbatim.
//!
//! * The ε-removal before the one-pass rewrite: a closure per state of the
//!   input, a copy of every transition through it, then a prune of what the
//!   initial state cannot reach. `epsilon_removal_matches_its_predecessor`
//!   compares against it.
//! * The APPROX augmentation before it closed its own deletions: every edit
//!   as a transition of the input, deletions as weighted ε-transitions left
//!   for ε-removal. `approximate_matches_its_predecessor` compares against
//!   the two composed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use omega_automata::{ApproxConfig, StateId, TransitionLabel, WeightedNfa};

/// Builds the APPROX automaton `A_R` from `M_R`.
///
/// The input may contain ε-transitions (it usually comes straight from the
/// Thompson construction); the output generally does too, so callers run
/// [`crate::remove_epsilons`] afterwards.
pub fn approximate(nfa: &WeightedNfa, config: &ApproxConfig) -> WeightedNfa {
    let mut out = nfa.clone();

    // Deletion, substitution and inversion apply to every edge-consuming
    // transition of the original automaton.
    for t in nfa.transitions().iter().filter(|t| t.label.consumes_edge()) {
        out.add_transition(
            t.from,
            TransitionLabel::Epsilon,
            t.cost.saturating_add(config.deletion),
            t.to,
        );
        out.add_transition(
            t.from,
            TransitionLabel::Any,
            t.cost.saturating_add(config.substitution),
            t.to,
        );
        if let Some(inversion) = config.inversion {
            out.add_transition(
                t.from,
                t.label.flipped(),
                t.cost.saturating_add(inversion),
                t.to,
            );
        }
    }
    // Insertion: a wildcard self-loop on every state.
    for state in nfa.states() {
        out.add_transition(state, TransitionLabel::Any, config.insertion, state);
    }
    out.freeze();
    out
}

/// Returns an equivalent automaton without ε-transitions.
///
/// Equivalence is in the weighted sense: every word keeps the same minimum
/// acceptance cost (see `crate::simulate::min_accept_cost`).
pub fn remove_epsilons(nfa: &WeightedNfa) -> WeightedNfa {
    let mut out = WeightedNfa::new();
    // Mirror the state set (state ids are preserved).
    for _ in 1..nfa.state_count() {
        out.add_state();
    }
    out.set_initial(nfa.initial());

    for state in nfa.states() {
        let closure = epsilon_closure(nfa, state);
        // Final weight: the cheapest way to reach a final state via ε.
        let mut final_weight: Option<u32> = None;
        for (&target, &cost) in &closure {
            if let Some(w) = nfa.final_weight(target) {
                let total = cost + w;
                final_weight = Some(final_weight.map_or(total, |fw| fw.min(total)));
            }
        }
        if let Some(w) = final_weight {
            out.add_final(state, w);
        }
        // Copy non-ε transitions reachable through the closure.
        for (&via, &closure_cost) in &closure {
            for t in nfa.transitions().iter().filter(|t| t.from == via) {
                if t.label.is_epsilon() {
                    continue;
                }
                out.add_transition(state, t.label.clone(), closure_cost + t.cost, t.to);
            }
        }
    }
    out.freeze();
    prune_unreachable(&out)
}

/// Minimum ε-cost from `state` to every state reachable by ε-transitions
/// (including `state` itself at cost 0).
fn epsilon_closure(nfa: &WeightedNfa, state: StateId) -> HashMap<StateId, u32> {
    let mut dist: HashMap<StateId, u32> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    dist.insert(state, 0);
    heap.push(Reverse((0, state.0)));
    while let Some(Reverse((cost, raw))) = heap.pop() {
        let current = StateId(raw);
        if dist.get(&current).copied().unwrap_or(u32::MAX) < cost {
            continue;
        }
        for t in nfa
            .transitions()
            .iter()
            .filter(|t| t.from == current && t.label.is_epsilon())
        {
            let next = cost + t.cost;
            if next < dist.get(&t.to).copied().unwrap_or(u32::MAX) {
                dist.insert(t.to, next);
                heap.push(Reverse((next, t.to.0)));
            }
        }
    }
    dist
}

/// Drops states unreachable from the initial state, compacting ids.
/// ε-removal leaves the interior states of Thompson fragments dangling;
/// pruning keeps the automata the evaluator sees small.
fn prune_unreachable(nfa: &WeightedNfa) -> WeightedNfa {
    let mut reachable = vec![false; nfa.state_count()];
    let mut stack = vec![nfa.initial()];
    reachable[nfa.initial().index()] = true;
    while let Some(s) = stack.pop() {
        for t in nfa.transitions().iter().filter(|t| t.from == s) {
            if !reachable[t.to.index()] {
                reachable[t.to.index()] = true;
                stack.push(t.to);
            }
        }
    }
    let mut mapping: HashMap<StateId, StateId> = HashMap::new();
    let mut out = WeightedNfa::new();
    // The initial state of `out` exists already; map it first.
    mapping.insert(nfa.initial(), out.initial());
    for state in nfa.states() {
        if reachable[state.index()] && state != nfa.initial() {
            mapping.insert(state, out.add_state());
        }
    }
    for (state, weight) in nfa.finals() {
        if let Some(&mapped) = mapping.get(&state) {
            out.add_final(mapped, weight);
        }
    }
    for t in nfa.transitions() {
        if let (Some(&from), Some(&to)) = (mapping.get(&t.from), mapping.get(&t.to)) {
            out.add_transition(from, t.label.clone(), t.cost, to);
        }
    }
    out.freeze();
    out
}
