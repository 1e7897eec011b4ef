//! # omega-automata
//!
//! Weighted non-deterministic finite automata (NFAs) over edge-label
//! alphabets, as used by the Omega query processor (Section 3.3 of the
//! paper):
//!
//! * [`position::build_nfa`] constructs the weighted NFA `M_R` for a regular
//!   expression `R`: the position (Glushkov) automaton, ε-free, all weights 0,
//! * [`approx::approximate`] augments `M_R` into `A_R` with edit-operation
//!   transitions (insertion/deletion/substitution, optionally inversion),
//!   representing insertions/substitutions compactly with the wildcard `*`
//!   label and closing deletion runs itself, so its final states may carry a
//!   positive weight,
//! * [`relax::relax`] augments `M_R` into `M_R^K` with ontology-driven
//!   relaxation transitions (superproperty steps at cost β, property →
//!   `type`-edge-to-domain/range at cost γ).
//!
//! No stage makes or takes an ε-transition.
//!
//! A [`WeightedNfa`] is flat: one transition vector plus `u32` index vectors.
//! While it is built, a chain per source state finds a duplicate
//! `(from, label, to)` without scanning the automaton; freezing groups the
//! transitions by source state and sorts each group by `(label, cost, to)`,
//! after which [`WeightedNfa::transitions_from`] (the paper's `NextStates`,
//! the only thing the evaluator's hot path asks for) is a slice and the
//! transition order is canonical. Label names are shared, so the copies the
//! stages make of each other's transitions never allocate. Every stage is
//! linear in the automaton it produces, up to the sort.

pub mod approx;
pub mod bounds;
pub mod label;
pub mod nfa;
pub mod position;
pub mod relax;
pub mod resolver;
pub mod simulate;

pub use approx::{approximate, ApproxConfig};
pub use bounds::{MinCostToAccept, SignatureBound};
pub use label::TransitionLabel;
pub use nfa::{StateId, Transition, WeightedNfa};
pub use position::build_nfa;
pub use relax::{relax, RelaxConfig};
pub use resolver::{LabelResolver, MapResolver};

/// The automaton itself: [`build_nfa`] makes no ε-transition, so there is
/// nothing left to remove. Only the yardstick's compile probe
/// (`benchmark/src/probes.rs`) calls it, for its `automata.epsilon_us` row;
/// ROADMAP item 1 deletes both, with the `with_parallel_conjuncts` and
/// `with_cost_guided` no-ops.
#[doc(hidden)]
pub fn remove_epsilons(nfa: &WeightedNfa) -> WeightedNfa {
    nfa.clone()
}
