//! APPROX: edit-distance augmentation of a query automaton.
//!
//! Following [Hurtado, Poulovassilis & Wood, ESWC 2009] and Section 3.3 of
//! the paper, the automaton `A_R` is obtained from an automaton of `L(R)` by
//! adding, for a user-configurable cost each:
//!
//! * **insertion** — an extra edge may be traversed at any point without
//!   consuming a query symbol: a wildcard `*` self-loop on every state,
//! * **deletion** — a query symbol may be skipped: a run of `k` skipped
//!   symbols costs `k` deletions, and it is closed here rather than written
//!   as ε-transitions — a state gains a direct copy of every transition
//!   leaving the end of each of its deletion runs, and becomes final where
//!   one ends in a final state,
//! * **substitution** — a query symbol may be matched by any edge label in
//!   either direction: a wildcard `*` transition parallel to every symbol
//!   transition,
//! * **inversion** (optional) — a query symbol may be matched by the same
//!   label traversed in the opposite direction.
//!
//! Edit distance to `L(R)` is a property of the language, not of the
//! automaton it is read from [Grahne & Thomo, AMAI 2006], so the edits go on
//! the small position automaton of `R`.
//!
//! The paper represents the "one transition per label in `Σ ∪ {type}` and
//! their reversals" explosion compactly with the single wildcard label `*`;
//! [`crate::TransitionLabel::Any`] is that wildcard.

use crate::label::TransitionLabel;
use crate::nfa::WeightedNfa;

/// Costs of the edit operations applied by APPROX.
///
/// The paper's experiments use cost 1 for insertion, deletion and
/// substitution and do not enable inversion as a separate operation
/// (substitution by `*` already covers flipping a label's direction at the
/// same cost); [`ApproxConfig::default`] mirrors that setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxConfig {
    /// Cost of traversing an extra, unmatched edge.
    pub insertion: u32,
    /// Cost of skipping a query symbol.
    pub deletion: u32,
    /// Cost of matching a query symbol with an arbitrary edge label.
    pub substitution: u32,
    /// Optional cheaper cost for matching a query symbol with the *same*
    /// label traversed in the opposite direction.
    pub inversion: Option<u32>,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            insertion: 1,
            deletion: 1,
            substitution: 1,
            inversion: None,
        }
    }
}

impl ApproxConfig {
    /// Uniform cost `c` for insertion, deletion and substitution.
    pub fn uniform(c: u32) -> Self {
        ApproxConfig {
            insertion: c,
            deletion: c,
            substitution: c,
            inversion: None,
        }
    }

    /// The smallest cost of any enabled edit operation — the paper's φ, the
    /// step by which the distance-aware optimisation escalates its cost
    /// bound ψ.
    pub fn min_cost(&self) -> u32 {
        let mut m = self.insertion.min(self.deletion).min(self.substitution);
        if let Some(inv) = self.inversion {
            m = m.min(inv);
        }
        m
    }
}

/// Builds the APPROX automaton `A_R` from an exact automaton `M_R` (every
/// transition of cost 0, frozen, as [`crate::build_nfa`] makes it), in one
/// stage that keeps its numbering.
///
/// From each state `s` a breadth-first walk
/// over the input's transitions finds every state `t` a deletion run reaches,
/// at `hops × deletion`; `s` then gets, at that cost added, each transition
/// leaving `t`, its substitution and inversion, the insertion loop on `t`,
/// and `t`'s final weight. One transition per `(label, target)` is kept, at
/// the minimum cost: the automaton weighted ε-removal would make of the
/// deletions as ε-transitions.
pub fn approximate(nfa: &WeightedNfa, config: &ApproxConfig) -> WeightedNfa {
    // Room for four transitions per input transition and two per state: the
    // YAGO study's APPROX automata have about 3.6 per input transition, and
    // a larger one grows as it is built.
    let mut out = WeightedNfa::with_capacity(
        nfa.state_count(),
        4 * nfa.transition_count() + 2 * nfa.state_count(),
    );
    for _ in 1..nfa.state_count() {
        out.add_state();
    }
    out.set_initial(nfa.initial());
    // Hops from the current state, `u32::MAX` outside its deletion runs; the
    // walk's queue lists the states to reset.
    let mut hops = vec![u32::MAX; nfa.state_count()];
    let mut queue = Vec::with_capacity(nfa.state_count());
    for s in nfa.states() {
        hops[s.index()] = 0;
        queue.push(s);
        let mut head = 0;
        while let Some(&t) = queue.get(head) {
            head += 1;
            let reached = hops[t.index()];
            let run = reached.saturating_mul(config.deletion);
            if let Some(weight) = nfa.final_weight(t) {
                out.add_final(s, run.saturating_add(weight));
            }
            out.add_transition(
                s,
                TransitionLabel::Any,
                run.saturating_add(config.insertion),
                t,
            );
            for edge in nfa.transitions_from(t) {
                debug_assert_eq!(edge.cost, 0, "approximate takes an exact automaton");
                out.add_transition(s, edge.label.clone(), run, edge.to);
                out.add_transition(
                    s,
                    TransitionLabel::Any,
                    run.saturating_add(config.substitution),
                    edge.to,
                );
                if let Some(inversion) = config.inversion {
                    out.add_transition(
                        s,
                        edge.label.flipped(),
                        run.saturating_add(inversion),
                        edge.to,
                    );
                }
                if hops[edge.to.index()] == u32::MAX {
                    hops[edge.to.index()] = reached + 1;
                    queue.push(edge.to);
                }
            }
        }
        for t in queue.drain(..) {
            hops[t.index()] = u32::MAX;
        }
    }
    out.freeze();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::position::build_nfa;
    use crate::resolver::MapResolver;
    use crate::simulate::min_accept_cost;
    use omega_regex::{parse, Symbol};

    fn approx_nfa(expr: &str, config: &ApproxConfig) -> WeightedNfa {
        let resolver = MapResolver::new();
        approximate(&build_nfa(&parse(expr).unwrap(), &resolver), config)
    }

    fn w(specs: &[(&str, bool)]) -> Vec<Symbol> {
        specs
            .iter()
            .map(|&(l, inv)| Symbol {
                label: l.to_owned(),
                inverse: inv,
            })
            .collect()
    }

    /// Two compiles of one expression give the same automaton down to the
    /// raw transition order and the printed form.
    #[test]
    fn compiles_are_reproducible() {
        let compile = || approx_nfa("(a|b|c)+.(a|d)", &ApproxConfig::default());
        let first = compile();
        for _ in 0..8 {
            let again = compile();
            assert_eq!(first.transitions(), again.transitions());
            assert_eq!(first.to_string(), again.to_string());
        }
    }

    /// A deletion run that reaches a final state through a loop makes its
    /// start final at the run's cost.
    #[test]
    fn deletion_runs_end_in_final_weights() {
        let a = approx_nfa("a*.b.c", &ApproxConfig::uniform(2));
        assert_eq!(a.final_weight(a.initial()), Some(4));
        assert_eq!(
            min_accept_cost(&a, &w(&[("a", false), ("a", false)])),
            Some(4)
        );
    }

    #[test]
    fn exact_words_stay_at_cost_zero() {
        let a = approx_nfa("a.b", &ApproxConfig::default());
        assert_eq!(
            min_accept_cost(&a, &w(&[("a", false), ("b", false)])),
            Some(0)
        );
    }

    #[test]
    fn substitution_costs_one() {
        let a = approx_nfa("a.b", &ApproxConfig::default());
        // 'z' substituted for 'a'
        assert_eq!(
            min_accept_cost(&a, &w(&[("z", false), ("b", false)])),
            Some(1)
        );
        // the paper's running example: gradFrom substituted by gradFrom-
        let q = approx_nfa("isLocatedIn-.gradFrom", &ApproxConfig::default());
        assert_eq!(
            min_accept_cost(&q, &w(&[("isLocatedIn", true), ("gradFrom", true)])),
            Some(1)
        );
    }

    #[test]
    fn deletion_costs_one() {
        let a = approx_nfa("a.b", &ApproxConfig::default());
        assert_eq!(min_accept_cost(&a, &w(&[("a", false)])), Some(1));
        assert_eq!(min_accept_cost(&a, &[]), Some(2));
    }

    #[test]
    fn insertion_costs_one() {
        let a = approx_nfa("a.b", &ApproxConfig::default());
        assert_eq!(
            min_accept_cost(&a, &w(&[("a", false), ("x", false), ("b", false)])),
            Some(1)
        );
        assert_eq!(
            min_accept_cost(&a, &w(&[("x", true), ("a", false), ("b", false)])),
            Some(1)
        );
    }

    #[test]
    fn edit_distance_accumulates() {
        let a = approx_nfa("a.b.c", &ApproxConfig::default());
        // delete 'a', substitute 'c' -> distance 2
        assert_eq!(
            min_accept_cost(&a, &w(&[("b", false), ("z", false)])),
            Some(2)
        );
        // completely unrelated word of same length -> one substitution each
        assert_eq!(
            min_accept_cost(&a, &w(&[("x", false), ("y", false), ("z", false)])),
            Some(3)
        );
    }

    #[test]
    fn custom_costs_are_respected() {
        let config = ApproxConfig {
            insertion: 5,
            deletion: 2,
            substitution: 3,
            inversion: None,
        };
        let a = approx_nfa("a.b", &config);
        assert_eq!(min_accept_cost(&a, &w(&[("a", false)])), Some(2)); // deletion
        assert_eq!(
            min_accept_cost(&a, &w(&[("z", false), ("b", false)])),
            Some(3)
        ); // subst
        assert_eq!(
            min_accept_cost(&a, &w(&[("a", false), ("q", false), ("b", false)])),
            Some(5)
        ); // insertion
        assert_eq!(config.min_cost(), 2);
    }

    #[test]
    fn inversion_can_be_cheaper_than_substitution() {
        let config = ApproxConfig {
            insertion: 10,
            deletion: 10,
            substitution: 10,
            inversion: Some(1),
        };
        let a = approx_nfa("a", &config);
        assert_eq!(min_accept_cost(&a, &w(&[("a", true)])), Some(1));
        // a different label still needs a full substitution
        assert_eq!(min_accept_cost(&a, &w(&[("b", false)])), Some(10));
    }

    /// Edit costs near `u32::MAX` saturate: two deletions at 2³¹ each must
    /// not wrap round to a free empty word.
    #[test]
    fn huge_costs_saturate() {
        let a = approx_nfa("a.b", &ApproxConfig::uniform(1 << 31));
        assert_eq!(min_accept_cost(&a, &[]), Some(u32::MAX));
        assert_eq!(min_accept_cost(&a, &w(&[("a", false)])), Some(1 << 31));
        assert_eq!(
            min_accept_cost(&a, &w(&[("a", false), ("b", false)])),
            Some(0)
        );
    }

    #[test]
    fn never_rejects_entirely() {
        // With all three edit operations any word is accepted at *some* cost.
        let a = approx_nfa("a.b", &ApproxConfig::default());
        for word in [
            w(&[]),
            w(&[("q", false)]),
            w(&[("q", true), ("r", false), ("s", true), ("t", false)]),
        ] {
            assert!(min_accept_cost(&a, &word).is_some());
        }
    }

    #[test]
    fn approximation_never_increases_cost_of_any_word() {
        let resolver = MapResolver::new();
        let exprs = ["a.b", "a*|b.c", "a-.b+"];
        let words = [
            w(&[]),
            w(&[("a", false)]),
            w(&[("a", false), ("b", false)]),
            w(&[("b", false), ("c", false)]),
            w(&[("a", true), ("b", false)]),
        ];
        for expr in exprs {
            let exact = build_nfa(&parse(expr).unwrap(), &resolver);
            let approx = approx_nfa(expr, &ApproxConfig::default());
            for word in &words {
                let exact_cost = min_accept_cost(&exact, word);
                let approx_cost = min_accept_cost(&approx, word);
                assert!(approx_cost.is_some());
                if let Some(e) = exact_cost {
                    assert!(approx_cost.unwrap() <= e);
                }
            }
        }
    }
}
