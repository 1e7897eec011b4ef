//! Three stages this crate shipped before they were rewritten or deleted,
//! verbatim apart from the ε-edge type below, which the crate no longer has.
//!
//! * The Thompson construction, whose ε-removal [`crate::build_nfa`]'s
//!   position automaton replaced. `build_nfa_matches_epsilon_removed_thompson`
//!   compares against the two composed.
//! * The ε-removal before the one-pass rewrite: a closure per state of the
//!   input, a copy of every transition through it, then a prune of what the
//!   initial state cannot reach. Its additions saturate, as the crate's
//!   did, so edits at 2³¹ compose.
//! * The APPROX augmentation before it closed its own deletions: every edit
//!   as a transition of the input, deletions as weighted ε-transitions left
//!   for ε-removal. `approximate_matches_its_predecessor` compares against
//!   the two composed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use omega_automata::{ApproxConfig, LabelResolver, StateId, TransitionLabel, WeightedNfa};
use omega_regex::RpqRegex;

/// A transition label of the automata here: ε or an edge-consuming label.
#[derive(PartialEq)]
pub enum Edge {
    /// ε — consumes no edge.
    Epsilon,
    /// A label of the crate's automata.
    Label(TransitionLabel),
}

/// A weighted NFA that may carry ε-transitions: states `0..finals.len()`,
/// initial state 0.
pub struct EpsilonNfa {
    finals: Vec<Option<u32>>,
    transitions: Vec<(StateId, Edge, u32, StateId)>,
}

impl EpsilonNfa {
    fn new() -> Self {
        EpsilonNfa {
            finals: vec![None],
            transitions: Vec::new(),
        }
    }

    /// `nfa`, state for state and transition for transition.
    fn from_automaton(nfa: &WeightedNfa) -> Self {
        assert_eq!(nfa.initial(), StateId(0));
        EpsilonNfa {
            finals: nfa.states().map(|s| nfa.final_weight(s)).collect(),
            transitions: nfa
                .transitions()
                .iter()
                .map(|t| (t.from, Edge::Label(t.label.clone()), t.cost, t.to))
                .collect(),
        }
    }

    fn initial(&self) -> StateId {
        StateId(0)
    }

    fn add_state(&mut self) -> StateId {
        self.finals.push(None);
        StateId(self.finals.len() as u32 - 1)
    }

    fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.finals.len() as u32).map(StateId)
    }

    fn add_final(&mut self, state: StateId, weight: u32) {
        let slot = &mut self.finals[state.index()];
        *slot = Some(slot.map_or(weight, |w| w.min(weight)));
    }

    /// Adds a transition; a duplicate `(from, label, to)` keeps the minimum
    /// cost.
    fn add_transition(&mut self, from: StateId, label: Edge, cost: u32, to: StateId) {
        match self
            .transitions
            .iter_mut()
            .find(|t| t.0 == from && t.1 == label && t.3 == to)
        {
            Some(existing) => existing.2 = existing.2.min(cost),
            None => self.transitions.push((from, label, cost, to)),
        }
    }
}

/// Builds the NFA `M_R` recognising the language of `regex`.
///
/// The returned automaton has a single initial state, a single final state of
/// weight 0, and may contain ε-transitions; callers typically follow up with
/// [`remove_epsilons`].
pub fn thompson<R: LabelResolver>(regex: &RpqRegex, resolver: &R) -> EpsilonNfa {
    let mut nfa = EpsilonNfa::new();
    let start = nfa.initial();
    let end = build_fragment(regex, resolver, &mut nfa, start);
    nfa.add_final(end, 0);
    nfa
}

/// Recursively builds the fragment for `regex` starting at `start`, returning
/// the fragment's accepting state.
fn build_fragment<R: LabelResolver>(
    regex: &RpqRegex,
    resolver: &R,
    nfa: &mut EpsilonNfa,
    start: StateId,
) -> StateId {
    match regex {
        RpqRegex::Epsilon => {
            let end = nfa.add_state();
            nfa.add_transition(start, Edge::Epsilon, 0, end);
            end
        }
        RpqRegex::Label(sym) => {
            let end = nfa.add_state();
            let label = TransitionLabel::Symbol {
                label: resolver.resolve_label(&sym.label),
                inverse: sym.inverse,
                name: sym.label.as_str().into(),
            };
            nfa.add_transition(start, Edge::Label(label), 0, end);
            end
        }
        RpqRegex::Wildcard => {
            let end = nfa.add_state();
            nfa.add_transition(start, Edge::Label(TransitionLabel::AnyForward), 0, end);
            end
        }
        RpqRegex::Concat(a, b) => {
            let mid = build_fragment(a, resolver, nfa, start);
            build_fragment(b, resolver, nfa, mid)
        }
        RpqRegex::Alt(a, b) => {
            // Branch entry states so the two branches cannot interfere.
            let start_a = nfa.add_state();
            let start_b = nfa.add_state();
            nfa.add_transition(start, Edge::Epsilon, 0, start_a);
            nfa.add_transition(start, Edge::Epsilon, 0, start_b);
            let end_a = build_fragment(a, resolver, nfa, start_a);
            let end_b = build_fragment(b, resolver, nfa, start_b);
            let end = nfa.add_state();
            nfa.add_transition(end_a, Edge::Epsilon, 0, end);
            nfa.add_transition(end_b, Edge::Epsilon, 0, end);
            end
        }
        RpqRegex::Star(a) => {
            let loop_entry = nfa.add_state();
            let end = nfa.add_state();
            nfa.add_transition(start, Edge::Epsilon, 0, loop_entry);
            nfa.add_transition(start, Edge::Epsilon, 0, end);
            let loop_exit = build_fragment(a, resolver, nfa, loop_entry);
            nfa.add_transition(loop_exit, Edge::Epsilon, 0, loop_entry);
            nfa.add_transition(loop_exit, Edge::Epsilon, 0, end);
            end
        }
        RpqRegex::Plus(a) => {
            let loop_entry = nfa.add_state();
            let end = nfa.add_state();
            nfa.add_transition(start, Edge::Epsilon, 0, loop_entry);
            let loop_exit = build_fragment(a, resolver, nfa, loop_entry);
            nfa.add_transition(loop_exit, Edge::Epsilon, 0, loop_entry);
            nfa.add_transition(loop_exit, Edge::Epsilon, 0, end);
            end
        }
    }
}

/// Builds the APPROX automaton `A_R` from `M_R`.
///
/// The output has ε-transitions (the deletions), so callers run
/// [`remove_epsilons`] afterwards.
pub fn approximate(nfa: &WeightedNfa, config: &ApproxConfig) -> EpsilonNfa {
    let mut out = EpsilonNfa::from_automaton(nfa);

    // Deletion, substitution and inversion apply to every edge-consuming
    // transition of the original automaton.
    for t in nfa.transitions() {
        out.add_transition(
            t.from,
            Edge::Epsilon,
            t.cost.saturating_add(config.deletion),
            t.to,
        );
        out.add_transition(
            t.from,
            Edge::Label(TransitionLabel::Any),
            t.cost.saturating_add(config.substitution),
            t.to,
        );
        if let Some(inversion) = config.inversion {
            out.add_transition(
                t.from,
                Edge::Label(t.label.flipped()),
                t.cost.saturating_add(inversion),
                t.to,
            );
        }
    }
    // Insertion: a wildcard self-loop on every state.
    for state in nfa.states() {
        out.add_transition(
            state,
            Edge::Label(TransitionLabel::Any),
            config.insertion,
            state,
        );
    }
    out
}

/// Returns an equivalent automaton without ε-transitions.
///
/// Equivalence is in the weighted sense: every word keeps the same minimum
/// acceptance cost (see `omega_automata::simulate::min_accept_cost`).
pub fn remove_epsilons(nfa: &EpsilonNfa) -> WeightedNfa {
    let mut out = WeightedNfa::new();
    // Mirror the state set (state ids are preserved).
    for _ in 1..nfa.finals.len() {
        out.add_state();
    }
    out.set_initial(nfa.initial());

    for state in nfa.states() {
        let closure = epsilon_closure(nfa, state);
        // Final weight: the cheapest way to reach a final state via ε.
        let mut final_weight: Option<u32> = None;
        for (&target, &cost) in &closure {
            if let Some(w) = nfa.finals[target.index()] {
                let total = cost.saturating_add(w);
                final_weight = Some(final_weight.map_or(total, |fw| fw.min(total)));
            }
        }
        if let Some(w) = final_weight {
            out.add_final(state, w);
        }
        // Copy non-ε transitions reachable through the closure.
        for (&via, &closure_cost) in &closure {
            for (_, label, cost, to) in nfa.transitions.iter().filter(|t| t.0 == via) {
                let Edge::Label(label) = label else {
                    continue;
                };
                out.add_transition(
                    state,
                    label.clone(),
                    closure_cost.saturating_add(*cost),
                    *to,
                );
            }
        }
    }
    out.freeze();
    prune_unreachable(&out)
}

/// Minimum ε-cost from `state` to every state reachable by ε-transitions
/// (including `state` itself at cost 0). A state reached only at the
/// saturated cost `u32::MAX` is in the closure.
fn epsilon_closure(nfa: &EpsilonNfa, state: StateId) -> HashMap<StateId, u32> {
    let mut dist: HashMap<StateId, u32> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    dist.insert(state, 0);
    heap.push(Reverse((0, state.0)));
    while let Some(Reverse((cost, raw))) = heap.pop() {
        let current = StateId(raw);
        if dist.get(&current).copied().unwrap_or(u32::MAX) < cost {
            continue;
        }
        for (_, _, step, to) in nfa
            .transitions
            .iter()
            .filter(|t| t.0 == current && t.1 == Edge::Epsilon)
        {
            let next = cost.saturating_add(*step);
            if dist.get(to).is_none_or(|&d| next < d) {
                dist.insert(*to, next);
                heap.push(Reverse((next, to.0)));
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
