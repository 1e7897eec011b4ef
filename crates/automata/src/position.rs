//! The position (Glushkov) automaton `M_R` of a regular expression `R`
//! [Glushkov 1961; Berry & Sethi, TCS 1986].
//!
//! Each occurrence of a symbol in `R` (a label or the wildcard `_`) is a
//! *position*. Positions are numbered left to right from 1, and the
//! automaton has one state per position plus the initial state 0. Every
//! transition has cost 0 and carries the symbol of the position it enters:
//! one from the initial state to each position of `first(R)`, and one from
//! each position `p` to each position of `follow(p)`. The positions of
//! `last(R)` are final at weight 0, and so is the initial state when `R` is
//! nullable. The automaton has no ε-transition. It is the automaton weighted
//! ε-removal makes of the Thompson automaton of `R`, whose other states are
//! entered only by ε-transitions.
//!
//! One post-order walk computes nullable, first and last bottom up. The sets
//! of the subexpressions in progress sit on one shared stack, each one's
//! first set under its last set. A concatenation links `last(a)` to
//! `first(b)` and a closure links `last(a)` to `first(a)` before the node
//! rearranges its operands' sets into its own, in place.
//! [`WeightedNfa::add_transition`] merges a repeated link, such as the loop
//! `(a*)*` closes twice.

use omega_regex::RpqRegex;

use crate::label::TransitionLabel;
use crate::nfa::{StateId, WeightedNfa};
use crate::resolver::LabelResolver;

/// Builds the position automaton `M_R` recognising the language of `regex`.
///
/// Every transition and final weight is 0; [`crate::approximate`] and
/// [`crate::relax()`] augment the result.
pub fn build_nfa<R: LabelResolver>(regex: &RpqRegex, resolver: &R) -> WeightedNfa {
    // An expression has at most one position per node, and a position is on
    // the set stack at most twice: in a first and in a last set. The
    // transitions grow as they need to.
    let nodes = regex.size();
    let mut builder = Builder {
        nfa: WeightedNfa::with_capacity(1 + nodes, 2 * nodes),
        labels: Vec::with_capacity(nodes),
        sets: Vec::with_capacity(2 * nodes),
        resolver,
    };
    let root = builder.visit(regex);
    let initial = builder.nfa.initial();
    link(
        &mut builder.nfa,
        &builder.labels,
        &[initial],
        &builder.sets[..root.first],
    );
    if root.nullable {
        builder.nfa.add_final(initial, 0);
    }
    for &p in &builder.sets[root.first..] {
        builder.nfa.add_final(p, 0);
    }
    builder.nfa.freeze();
    builder.nfa
}

struct Builder<'r, R> {
    nfa: WeightedNfa,
    /// The symbol of position `p` at `p - 1`.
    labels: Vec<TransitionLabel>,
    /// The first and last sets of the subexpressions in progress.
    sets: Vec<StateId>,
    resolver: &'r R,
}

/// What [`Builder::visit`] leaves on top of the set stack: `first` positions,
/// then `last` positions.
#[derive(Clone, Copy)]
struct Sets {
    nullable: bool,
    first: usize,
    last: usize,
}

impl<R: LabelResolver> Builder<'_, R> {
    fn visit(&mut self, regex: &RpqRegex) -> Sets {
        match regex {
            RpqRegex::Epsilon => Sets {
                nullable: true,
                first: 0,
                last: 0,
            },
            RpqRegex::Label(sym) => self.position(TransitionLabel::Symbol {
                label: self.resolver.resolve_label(&sym.label),
                inverse: sym.inverse,
                name: sym.label.as_str().into(),
            }),
            RpqRegex::Wildcard => self.position(TransitionLabel::AnyForward),
            RpqRegex::Concat(a, b) => {
                let a = self.visit(a);
                let b = self.visit(b);
                // [first(a) last(a) first(b) last(b)]
                let last_a = self.sets.len() - b.first - b.last - a.last;
                let first_b = last_a + a.last;
                link(
                    &mut self.nfa,
                    &self.labels,
                    &self.sets[last_a..first_b],
                    &self.sets[first_b..first_b + b.first],
                );
                let mut first = a.first;
                if a.nullable {
                    // [first(a) first(b) last(a) last(b)]
                    self.sets[last_a..first_b + b.first].rotate_left(a.last);
                    first += b.first;
                } else {
                    // [first(a) last(a) last(b)]
                    self.sets.drain(first_b..first_b + b.first);
                }
                let mut last = b.last;
                if b.nullable {
                    last += a.last;
                } else {
                    // last(a) starts after first(b) if that stayed.
                    let start = last_a + first - a.first;
                    self.sets.drain(start..start + a.last);
                }
                Sets {
                    nullable: a.nullable && b.nullable,
                    first,
                    last,
                }
            }
            RpqRegex::Alt(a, b) => {
                let a = self.visit(a);
                let b = self.visit(b);
                // [first(a) last(a) first(b) last(b)] → [first(a) first(b)
                // last(a) last(b)]
                let last_a = self.sets.len() - b.first - b.last - a.last;
                self.sets[last_a..last_a + a.last + b.first].rotate_left(a.last);
                Sets {
                    nullable: a.nullable || b.nullable,
                    first: a.first + b.first,
                    last: a.last + b.last,
                }
            }
            RpqRegex::Star(a) => Sets {
                nullable: true,
                ..self.closure(a)
            },
            RpqRegex::Plus(a) => self.closure(a),
        }
    }

    /// A fresh position for `label`: its own first and last set.
    fn position(&mut self, label: TransitionLabel) -> Sets {
        let p = self.nfa.add_state();
        self.labels.push(label);
        self.sets.extend([p, p]);
        Sets {
            nullable: false,
            first: 1,
            last: 1,
        }
    }

    /// `a` with `last(a)` linked back to `first(a)`.
    fn closure(&mut self, a: &RpqRegex) -> Sets {
        let a = self.visit(a);
        let last = self.sets.len() - a.last;
        link(
            &mut self.nfa,
            &self.labels,
            &self.sets[last..],
            &self.sets[last - a.first..last],
        );
        a
    }
}

/// Adds a transition from each of `from` into each position of `to`.
fn link(nfa: &mut WeightedNfa, labels: &[TransitionLabel], from: &[StateId], to: &[StateId]) {
    for &p in from {
        for &q in to {
            nfa.add_transition(p, labels[q.index() - 1].clone(), 0, q);
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

    /// `a.(b|c)*`: positions 1, 2, 3 for `a`, `b`, `c`; `first` is `{1}`,
    /// `last` is `{1, 2, 3}`, and `b` and `c` follow `a` and each other.
    #[test]
    fn positions_are_the_states_numbered_left_to_right() {
        let nfa = nfa_for("a.(b|c)*");
        let links: Vec<_> = nfa
            .transitions()
            .iter()
            .map(|t| (t.from.0, t.label.to_string(), t.cost, t.to.0))
            .collect();
        let expected = [
            (0, "a", 0, 1),
            (1, "b", 0, 2),
            (1, "c", 0, 3),
            (2, "b", 0, 2),
            (2, "c", 0, 3),
            (3, "b", 0, 2),
            (3, "c", 0, 3),
        ];
        assert_eq!(
            links,
            expected.map(|(from, label, cost, to)| (from, label.to_owned(), cost, to))
        );
        assert_eq!(
            nfa.finals().collect::<Vec<_>>(),
            [1, 2, 3].map(|p| (StateId(p), 0))
        );
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
