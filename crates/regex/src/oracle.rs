//! A naive, obviously-correct matcher for RPQ regular expressions.
//!
//! This is *not* used by the query evaluator — it exists as a test oracle:
//! the automata crate checks that NFA construction and reversal preserve
//! the language by comparing word membership against this matcher.

use std::collections::BTreeSet;

use crate::ast::{RpqRegex, Symbol};

/// Whether `word` (a sequence of traversal symbols) is in the language of
/// `regex`.
pub fn matches(regex: &RpqRegex, word: &[Symbol]) -> bool {
    end_positions(regex, word, 0).contains(&word.len())
}

/// The set of positions `j` such that `regex` matches `word[start..j]`.
fn end_positions(regex: &RpqRegex, word: &[Symbol], start: usize) -> BTreeSet<usize> {
    match regex {
        RpqRegex::Epsilon => [start].into_iter().collect(),
        RpqRegex::Label(sym) => {
            if word.get(start) == Some(sym) {
                [start + 1].into_iter().collect()
            } else {
                BTreeSet::new()
            }
        }
        RpqRegex::Wildcard => {
            // `_` is the disjunction of all labels, traversed forwards.
            match word.get(start) {
                Some(sym) if !sym.inverse => [start + 1].into_iter().collect(),
                _ => BTreeSet::new(),
            }
        }
        RpqRegex::Concat(a, b) => {
            let mut out = BTreeSet::new();
            for mid in end_positions(a, word, start) {
                out.extend(end_positions(b, word, mid));
            }
            out
        }
        RpqRegex::Alt(a, b) => {
            let mut out = end_positions(a, word, start);
            out.extend(end_positions(b, word, start));
            out
        }
        RpqRegex::Star(a) => {
            let mut out: BTreeSet<usize> = [start].into_iter().collect();
            loop {
                let mut new = BTreeSet::new();
                for &pos in &out {
                    for next in end_positions(a, word, pos) {
                        if !out.contains(&next) {
                            new.insert(next);
                        }
                    }
                }
                if new.is_empty() {
                    return out;
                }
                out.extend(new);
            }
        }
        RpqRegex::Plus(a) => {
            let star = RpqRegex::Star(a.clone());
            let mut out = BTreeSet::new();
            for mid in end_positions(a, word, start) {
                out.extend(end_positions(&star, word, mid));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn word(specs: &[(&str, bool)]) -> Vec<Symbol> {
        specs
            .iter()
            .map(|&(l, inv)| Symbol {
                label: l.to_owned(),
                inverse: inv,
            })
            .collect()
    }

    #[test]
    fn label_and_inverse() {
        let r = parse("a").unwrap();
        assert!(matches(&r, &word(&[("a", false)])));
        assert!(!matches(&r, &word(&[("a", true)])));
        assert!(!matches(&r, &word(&[("b", false)])));
        assert!(!matches(&r, &[]));
        let r = parse("a-").unwrap();
        assert!(matches(&r, &word(&[("a", true)])));
        assert!(!matches(&r, &word(&[("a", false)])));
    }

    #[test]
    fn concatenation_and_alternation() {
        let r = parse("a.b|c").unwrap();
        assert!(matches(&r, &word(&[("a", false), ("b", false)])));
        assert!(matches(&r, &word(&[("c", false)])));
        assert!(!matches(&r, &word(&[("a", false)])));
    }

    #[test]
    fn star_and_plus() {
        let star = parse("a*").unwrap();
        assert!(matches(&star, &[]));
        assert!(matches(&star, &word(&[("a", false); 5])));
        assert!(!matches(&star, &word(&[("a", false), ("b", false)])));
        let plus = parse("a+").unwrap();
        assert!(!matches(&plus, &[]));
        assert!(matches(&plus, &word(&[("a", false); 3])));
    }

    #[test]
    fn wildcard_matches_any_forward_label() {
        let r = parse("_.b").unwrap();
        assert!(matches(&r, &word(&[("anything", false), ("b", false)])));
        assert!(!matches(&r, &word(&[("anything", true), ("b", false)])));
    }

    #[test]
    fn epsilon_matches_only_empty() {
        let r = parse("()").unwrap();
        assert!(matches(&r, &[]));
        assert!(!matches(&r, &word(&[("a", false)])));
    }

    #[test]
    fn paper_query_shape() {
        // prereq*.next+.prereq
        let r = parse("prereq*.next+.prereq").unwrap();
        assert!(matches(&r, &word(&[("next", false), ("prereq", false)])));
        assert!(matches(
            &r,
            &word(&[
                ("prereq", false),
                ("prereq", false),
                ("next", false),
                ("next", false),
                ("prereq", false)
            ])
        ));
        assert!(!matches(&r, &word(&[("prereq", false), ("prereq", false)])));
    }

    #[test]
    fn reversal_agrees_with_reversed_words() {
        let r = parse("a.b-.c*").unwrap();
        let rev = r.reverse();
        let w = word(&[("a", false), ("b", true), ("c", false), ("c", false)]);
        let mut rev_word: Vec<Symbol> = w.iter().map(Symbol::flipped).collect();
        rev_word.reverse();
        assert!(matches(&r, &w));
        assert!(matches(&rev, &rev_word));
    }
}
