//! The weighted NFA representation. Every transition consumes a graph edge:
//! the automata are ε-free from construction on (see [`crate::position`]).

use std::fmt;

use crate::label::TransitionLabel;

/// Identifier of an automaton state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// Index form, for vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One weighted transition `(from, label, cost, to)` — the representation
/// described in Section 3.3 of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Source state.
    pub from: StateId,
    /// Transition label.
    pub label: TransitionLabel,
    /// Non-negative cost (0 for exact transitions, the edit/relaxation cost
    /// otherwise).
    pub cost: u32,
    /// Target state.
    pub to: StateId,
}

/// Marks the end of a per-state transition chain.
const NONE: u32 = u32::MAX;

/// A weighted NFA: states, a single initial state, weighted final states and
/// weighted labelled transitions.
///
/// Final-state weights arise only from APPROX deletion runs: a state from
/// which skipping query symbols reaches a final state becomes final at the
/// deletions' cost. Every other final state has weight 0.
///
/// The layout is flat: one transition vector, which [`WeightedNfa::freeze`]
/// groups by source state and sorts, plus three `u32` vectors indexing it.
#[derive(Debug, Clone)]
pub struct WeightedNfa {
    initial: StateId,
    /// Final weight per state (`None` when the state is not final); its
    /// length is the state count.
    finals: Vec<Option<u32>>,
    /// While frozen: grouped by source state, each group sorted by
    /// `(label, cost, to)`.
    transitions: Vec<Transition>,
    /// While frozen, state `s` owns `transitions[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    /// Per-state chains through `transitions`, kept current as transitions
    /// arrive, so a duplicate is looked for among the source state's own
    /// transitions only: `last_out[s]` is the newest transition leaving `s`
    /// and `prev_out[i]` the one that left the same state before `i`.
    last_out: Vec<u32>,
    prev_out: Vec<u32>,
    frozen: bool,
}

impl WeightedNfa {
    /// Creates an automaton with a single (initial) state and no transitions.
    pub fn new() -> Self {
        WeightedNfa::with_capacity(1, 0)
    }

    /// [`WeightedNfa::new`] with room for `states` states and `transitions`
    /// transitions, for a producer that knows (a bound on) what it builds.
    pub(crate) fn with_capacity(states: usize, transitions: usize) -> Self {
        let mut nfa = WeightedNfa {
            initial: StateId(0),
            finals: Vec::with_capacity(states),
            transitions: Vec::with_capacity(transitions),
            offsets: Vec::with_capacity(states + 1),
            last_out: Vec::with_capacity(states),
            prev_out: Vec::with_capacity(transitions),
            frozen: true,
        };
        nfa.offsets.push(0);
        nfa.add_state();
        nfa
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(self.finals.len() as u32);
        self.finals.push(None);
        self.last_out.push(NONE);
        // The new state owns the empty slice at the end.
        self.offsets.push(self.transitions.len() as u32);
        id
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.finals.len()
    }

    /// Iterates over all state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.finals.len() as u32).map(StateId)
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Sets the initial state.
    pub fn set_initial(&mut self, state: StateId) {
        debug_assert!(state.index() < self.state_count());
        self.initial = state;
    }

    /// Marks `state` final with the given weight, keeping the minimum weight
    /// if it was already final.
    pub fn add_final(&mut self, state: StateId, weight: u32) {
        let slot = &mut self.finals[state.index()];
        *slot = Some(slot.map_or(weight, |w| w.min(weight)));
    }

    /// Whether `state` is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals[state.index()].is_some()
    }

    /// The weight of final state `state` (the paper's `weight(s)`), or `None`
    /// if it is not final.
    #[inline]
    pub fn final_weight(&self, state: StateId) -> Option<u32> {
        self.finals[state.index()]
    }

    /// Iterates over `(state, weight)` for all final states, in state order.
    pub fn finals(&self) -> impl Iterator<Item = (StateId, u32)> + '_ {
        self.finals
            .iter()
            .enumerate()
            .filter_map(|(s, w)| w.map(|w| (StateId(s as u32), w)))
    }

    /// Adds a transition. Duplicate `(from, label, to)` triples keep the
    /// minimum cost.
    pub fn add_transition(
        &mut self,
        from: StateId,
        label: TransitionLabel,
        cost: u32,
        to: StateId,
    ) {
        let mut i = self.last_out[from.index()];
        while i != NONE {
            let existing = &mut self.transitions[i as usize];
            if existing.to == to && existing.label == label {
                if cost < existing.cost {
                    existing.cost = cost;
                    self.frozen = false;
                }
                return;
            }
            i = self.prev_out[i as usize];
        }
        debug_assert!(from.index() < self.state_count() && to.index() < self.state_count());
        let last = &mut self.last_out[from.index()];
        self.prev_out.push(*last);
        *last = self.transitions.len() as u32;
        self.transitions.push(Transition {
            from,
            label,
            cost,
            to,
        });
        self.frozen = false;
    }

    /// All transitions: in insertion order while the automaton is being
    /// built, grouped by source state and sorted by `(label, cost, to)` once
    /// frozen.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Groups the transitions by source state and sorts each state's by label
    /// so that identical labels are consecutive (the property the paper's
    /// `Succ` relies on to avoid repeated neighbour lookups). The resulting
    /// order is canonical: it does not depend on the order of insertion.
    pub fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        self.transitions.sort_unstable_by(|a, b| {
            (a.from, &a.label, a.cost, a.to).cmp(&(b.from, &b.label, b.cost, b.to))
        });
        self.offsets.clear();
        self.last_out.fill(NONE);
        for (i, t) in self.transitions.iter().enumerate() {
            let from = t.from.index();
            // Every state up to `from` that has no slice yet starts here.
            self.offsets
                .resize(self.offsets.len().max(from + 1), i as u32);
            self.prev_out[i] = std::mem::replace(&mut self.last_out[from], i as u32);
        }
        self.offsets
            .resize(self.finals.len() + 1, self.transitions.len() as u32);
        self.frozen = true;
    }

    /// The outgoing transitions of `state`, sorted by label — the paper's
    /// `NextStates(s)`.
    ///
    /// # Panics
    /// Panics if transitions were added after the last [`WeightedNfa::freeze`]
    /// call; evaluators must freeze the automaton once construction is done.
    #[inline]
    pub fn transitions_from(&self, state: StateId) -> &[Transition] {
        assert!(
            self.frozen,
            "WeightedNfa::freeze must be called after construction"
        );
        let s = state.index();
        &self.transitions[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Labels on transitions leaving the initial state (used by the `Open`
    /// procedure to seed evaluation for `(?X, R, ?Y)` conjuncts).
    pub fn initial_labels(&self) -> impl Iterator<Item = &TransitionLabel> + '_ {
        // Frozen, the initial state's slice is all there is to look at.
        let candidates = if self.frozen {
            self.transitions_from(self.initial)
        } else {
            &self.transitions
        };
        candidates
            .iter()
            .filter(|t| t.from == self.initial)
            .map(|t| &t.label)
    }
}

impl Default for WeightedNfa {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for WeightedNfa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "NFA: {} states, {} transitions, initial {}",
            self.state_count(),
            self.transitions.len(),
            self.initial
        )?;
        for t in &self.transitions {
            writeln!(f, "  {} --{}/{}--> {}", t.from, t.label, t.cost, t.to)?;
        }
        for (s, w) in self.finals() {
            writeln!(f, "  final {s} (weight {w})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(name: &str) -> TransitionLabel {
        TransitionLabel::symbol(None, false, name)
    }

    #[test]
    fn new_automaton_has_one_state() {
        let nfa = WeightedNfa::new();
        assert_eq!(nfa.state_count(), 1);
        assert_eq!(nfa.initial(), StateId(0));
        assert!(!nfa.is_final(StateId(0)));
    }

    #[test]
    fn add_states_and_transitions() {
        let mut nfa = WeightedNfa::new();
        let s1 = nfa.add_state();
        nfa.add_transition(nfa.initial(), sym("a"), 0, s1);
        nfa.add_final(s1, 0);
        nfa.freeze();
        assert_eq!(nfa.transition_count(), 1);
        assert_eq!(nfa.transitions_from(nfa.initial()).len(), 1);
        assert!(nfa.transitions_from(s1).is_empty());
        assert!(nfa.is_final(s1));
        assert_eq!(nfa.final_weight(s1), Some(0));
    }

    #[test]
    fn duplicate_transitions_keep_min_cost() {
        let mut nfa = WeightedNfa::new();
        let s1 = nfa.add_state();
        nfa.add_transition(nfa.initial(), sym("a"), 5, s1);
        nfa.add_transition(nfa.initial(), sym("a"), 2, s1);
        nfa.add_transition(nfa.initial(), sym("a"), 9, s1);
        assert_eq!(nfa.transition_count(), 1);
        assert_eq!(nfa.transitions()[0].cost, 2);
    }

    #[test]
    fn duplicate_finals_keep_min_weight() {
        let mut nfa = WeightedNfa::new();
        nfa.add_final(StateId(0), 3);
        nfa.add_final(StateId(0), 1);
        nfa.add_final(StateId(0), 7);
        assert_eq!(nfa.final_weight(StateId(0)), Some(1));
    }

    #[test]
    fn transitions_from_groups_identical_labels() {
        let mut nfa = WeightedNfa::new();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.add_transition(nfa.initial(), sym("b"), 0, s1);
        nfa.add_transition(nfa.initial(), sym("a"), 0, s1);
        nfa.add_transition(nfa.initial(), sym("b"), 0, s2);
        nfa.add_transition(nfa.initial(), sym("a"), 0, s2);
        nfa.freeze();
        let labels: Vec<String> = nfa
            .transitions_from(nfa.initial())
            .iter()
            .map(|t| t.label.to_string())
            .collect();
        assert_eq!(labels, vec!["a", "a", "b", "b"]);
    }

    #[test]
    #[should_panic(expected = "freeze")]
    fn unfrozen_access_panics() {
        let mut nfa = WeightedNfa::new();
        let s1 = nfa.add_state();
        nfa.add_transition(nfa.initial(), sym("a"), 0, s1);
        let _ = nfa.transitions_from(nfa.initial());
    }

    #[test]
    fn initial_labels() {
        let mut nfa = WeightedNfa::new();
        let s1 = nfa.add_state();
        nfa.add_transition(s1, sym("b"), 0, s1);
        nfa.add_transition(nfa.initial(), sym("a"), 0, s1);
        // Unfrozen and frozen alike.
        assert_eq!(nfa.initial_labels().count(), 1);
        nfa.freeze();
        assert_eq!(nfa.initial_labels().collect::<Vec<_>>(), [&sym("a")]);
    }
}
