//! Thompson-style construction of the weighted NFA `M_R` for a regular
//! expression `R`. All transitions produced here have cost 0; positive costs
//! only appear after APPROX/RELAX augmentation.

use omega_regex::RpqRegex;

use crate::label::TransitionLabel;
use crate::nfa::{StateId, WeightedNfa};
use crate::resolver::LabelResolver;

/// Builds the NFA `M_R` recognising the language of `regex`.
///
/// The returned automaton has a single initial state, a single final state of
/// weight 0, and may contain ε-transitions; callers typically follow up with
/// [`crate::remove_epsilons`] and then [`crate::approximate`] /
/// [`crate::relax()`].
pub fn build_nfa<R: LabelResolver>(regex: &RpqRegex, resolver: &R) -> WeightedNfa {
    // No node of the expression adds more than three states or four
    // transitions.
    let nodes = regex.size();
    let mut nfa = WeightedNfa::with_capacity(1 + 3 * nodes, 4 * nodes);
    let start = nfa.initial();
    let end = build_fragment(regex, resolver, &mut nfa, start);
    nfa.add_final(end, 0);
    nfa.freeze();
    nfa
}

/// Recursively builds the fragment for `regex` starting at `start`, returning
/// the fragment's accepting state.
fn build_fragment<R: LabelResolver>(
    regex: &RpqRegex,
    resolver: &R,
    nfa: &mut WeightedNfa,
    start: StateId,
) -> StateId {
    match regex {
        RpqRegex::Epsilon => {
            let end = nfa.add_state();
            nfa.add_transition(start, TransitionLabel::Epsilon, 0, end);
            end
        }
        RpqRegex::Label(sym) => {
            let end = nfa.add_state();
            let label = TransitionLabel::Symbol {
                label: resolver.resolve_label(&sym.label),
                inverse: sym.inverse,
                name: sym.label.as_str().into(),
            };
            nfa.add_transition(start, label, 0, end);
            end
        }
        RpqRegex::Wildcard => {
            let end = nfa.add_state();
            nfa.add_transition(start, TransitionLabel::AnyForward, 0, end);
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
            nfa.add_transition(start, TransitionLabel::Epsilon, 0, start_a);
            nfa.add_transition(start, TransitionLabel::Epsilon, 0, start_b);
            let end_a = build_fragment(a, resolver, nfa, start_a);
            let end_b = build_fragment(b, resolver, nfa, start_b);
            let end = nfa.add_state();
            nfa.add_transition(end_a, TransitionLabel::Epsilon, 0, end);
            nfa.add_transition(end_b, TransitionLabel::Epsilon, 0, end);
            end
        }
        RpqRegex::Star(a) => {
            let loop_entry = nfa.add_state();
            let end = nfa.add_state();
            nfa.add_transition(start, TransitionLabel::Epsilon, 0, loop_entry);
            nfa.add_transition(start, TransitionLabel::Epsilon, 0, end);
            let loop_exit = build_fragment(a, resolver, nfa, loop_entry);
            nfa.add_transition(loop_exit, TransitionLabel::Epsilon, 0, loop_entry);
            nfa.add_transition(loop_exit, TransitionLabel::Epsilon, 0, end);
            end
        }
        RpqRegex::Plus(a) => {
            let loop_entry = nfa.add_state();
            let end = nfa.add_state();
            nfa.add_transition(start, TransitionLabel::Epsilon, 0, loop_entry);
            let loop_exit = build_fragment(a, resolver, nfa, loop_entry);
            nfa.add_transition(loop_exit, TransitionLabel::Epsilon, 0, loop_entry);
            nfa.add_transition(loop_exit, TransitionLabel::Epsilon, 0, end);
            end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::MapResolver;
    use crate::simulate::accepts;
    use omega_regex::{parse, Symbol};

    fn word(specs: &[(&str, bool)]) -> Vec<Symbol> {
        specs
            .iter()
            .map(|&(l, inv)| Symbol {
                label: l.to_owned(),
                inverse: inv,
            })
            .collect()
    }

    fn nfa_for(expr: &str) -> WeightedNfa {
        let mut resolver = MapResolver::new();
        for label in parse(expr).unwrap().alphabet() {
            resolver.add_label(&label);
        }
        build_nfa(&parse(expr).unwrap(), &resolver)
    }

    #[test]
    fn single_label() {
        let nfa = nfa_for("a");
        assert!(accepts(&nfa, &word(&[("a", false)])));
        assert!(!accepts(&nfa, &word(&[("a", true)])));
        assert!(!accepts(&nfa, &[]));
    }

    #[test]
    fn concatenation_and_alternation() {
        let nfa = nfa_for("a.b|c");
        assert!(accepts(&nfa, &word(&[("a", false), ("b", false)])));
        assert!(accepts(&nfa, &word(&[("c", false)])));
        assert!(!accepts(&nfa, &word(&[("a", false), ("c", false)])));
    }

    #[test]
    fn star_plus_and_epsilon() {
        let star = nfa_for("a*");
        assert!(accepts(&star, &[]));
        assert!(accepts(&star, &word(&[("a", false), ("a", false)])));
        let plus = nfa_for("a+");
        assert!(!accepts(&plus, &[]));
        assert!(accepts(&plus, &word(&[("a", false)])));
        let eps = nfa_for("()");
        assert!(accepts(&eps, &[]));
        assert!(!accepts(&eps, &word(&[("a", false)])));
    }

    #[test]
    fn inverse_labels_and_wildcard() {
        let nfa = nfa_for("isLocatedIn-.gradFrom");
        assert!(accepts(
            &nfa,
            &word(&[("isLocatedIn", true), ("gradFrom", false)])
        ));
        assert!(!accepts(
            &nfa,
            &word(&[("isLocatedIn", false), ("gradFrom", false)])
        ));
        let wild = nfa_for("_.b");
        assert!(accepts(&wild, &word(&[("zzz", false), ("b", false)])));
        assert!(!accepts(&wild, &word(&[("zzz", true), ("b", false)])));
    }

    #[test]
    fn unresolved_labels_still_build() {
        let resolver = MapResolver::new();
        let nfa = build_nfa(&parse("ghost").unwrap(), &resolver);
        // Word-level simulation matches by name, so the language is intact…
        assert!(accepts(&nfa, &word(&[("ghost", false)])));
        // …but the transition carries no resolved LabelId.
        let has_unresolved = nfa.transitions().iter().any(|t| {
            matches!(
                &t.label,
                TransitionLabel::Symbol { label: None, name, .. } if &**name == "ghost"
            )
        });
        assert!(has_unresolved);
    }

    /// NFA acceptance agrees with the naive regex oracle on the paper's
    /// query expressions over a small set of words.
    #[test]
    fn agrees_with_oracle_on_paper_queries() {
        let exprs = [
            "type-",
            "type-.qualif-",
            "type-.job-",
            "job.type",
            "next+",
            "prereq+",
            "next+|(prereq+.next)",
            "type.prereq+",
            "prereq*.next+.prereq",
            "type-.job-.next",
            "level-.qualif-.prereq",
            "bornIn-.marriedTo.hasChild",
            "hasChild.gradFrom.gradFrom-.hasWonPrize",
            "(livesIn-.hasCurrency)|(locatedIn-.gradFrom)",
        ];
        let labels = [
            "type",
            "qualif",
            "job",
            "next",
            "prereq",
            "level",
            "bornIn",
            "marriedTo",
            "hasChild",
            "gradFrom",
            "hasWonPrize",
            "livesIn",
            "hasCurrency",
            "locatedIn",
        ];
        let mut resolver = MapResolver::new();
        for l in labels {
            resolver.add_label(l);
        }
        // A deterministic bag of short words over the label set.
        let mut words: Vec<Vec<Symbol>> = vec![vec![]];
        for (i, &a) in labels.iter().enumerate() {
            words.push(word(&[(a, i % 2 == 0)]));
            for (j, &b) in labels.iter().enumerate() {
                if (i + j) % 3 == 0 {
                    words.push(word(&[(a, i % 2 == 1), (b, j % 2 == 0)]));
                }
            }
        }
        words.push(word(&[("next", false), ("next", false), ("prereq", false)]));
        words.push(word(&[
            ("prereq", false),
            ("next", false),
            ("prereq", false),
        ]));
        for expr in exprs {
            let regex = parse(expr).unwrap();
            let nfa = build_nfa(&regex, &resolver);
            for w in &words {
                assert_eq!(
                    accepts(&nfa, w),
                    omega_regex::oracle::matches(&regex, w),
                    "mismatch for {expr} on {w:?}"
                );
            }
        }
    }

    /// The Section 4.3 disjunction driver evaluates a top-level alternation
    /// branch by branch: the branches' automata together accept exactly
    /// the words the whole expression's automaton does.
    #[test]
    fn union_of_branch_languages_equals_original() {
        let resolver = MapResolver::new();
        let r = parse("a.b|c|d.e*").unwrap();
        let parts = r.top_level_branches();
        assert_eq!(parts.len(), 3);
        let whole = build_nfa(&r, &resolver);
        let part_nfas: Vec<_> = parts.iter().map(|p| build_nfa(p, &resolver)).collect();
        let words: Vec<Vec<Symbol>> = vec![
            vec![],
            vec![Symbol::forward("a"), Symbol::forward("b")],
            vec![Symbol::forward("c")],
            vec![Symbol::forward("d")],
            vec![
                Symbol::forward("d"),
                Symbol::forward("e"),
                Symbol::forward("e"),
            ],
            vec![Symbol::forward("a")],
        ];
        for w in &words {
            let whole_accepts = accepts(&whole, w);
            let any_part = part_nfas.iter().any(|n| accepts(n, w));
            assert_eq!(whole_accepts, any_part, "mismatch on {w:?}");
        }
    }
}
