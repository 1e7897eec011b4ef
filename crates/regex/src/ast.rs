//! Abstract syntax tree for RPQ regular expressions.

use std::collections::BTreeSet;
use std::fmt;

/// One symbol of a path word: an edge label together with the traversal
/// direction (`inverse = true` means the edge is traversed target→source).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol {
    /// The edge label.
    pub label: String,
    /// Whether the edge is traversed in the reverse direction (`a-`).
    pub inverse: bool,
}

impl Symbol {
    /// Forward traversal of `label`.
    pub fn forward(label: impl Into<String>) -> Symbol {
        Symbol {
            label: label.into(),
            inverse: false,
        }
    }

    /// Reverse traversal of `label`.
    pub fn inverse(label: impl Into<String>) -> Symbol {
        Symbol {
            label: label.into(),
            inverse: true,
        }
    }

    /// The same label traversed in the opposite direction.
    pub fn flipped(&self) -> Symbol {
        Symbol {
            label: self.label.clone(),
            inverse: !self.inverse,
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.label, if self.inverse { "-" } else { "" })
    }
}

/// A regular path query expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RpqRegex {
    /// The empty word ε.
    Epsilon,
    /// A single edge label, possibly traversed in reverse (`a` or `a-`).
    Label(Symbol),
    /// `_` — matches any single edge label (forward traversal).
    Wildcard,
    /// Concatenation `R1 . R2`.
    Concat(Box<RpqRegex>, Box<RpqRegex>),
    /// Alternation `R1 | R2`.
    Alt(Box<RpqRegex>, Box<RpqRegex>),
    /// Kleene star `R*`.
    Star(Box<RpqRegex>),
    /// One-or-more `R+`.
    Plus(Box<RpqRegex>),
}

impl RpqRegex {
    /// A forward label atom.
    pub fn label(name: impl Into<String>) -> RpqRegex {
        RpqRegex::Label(Symbol::forward(name))
    }

    /// A reverse label atom (`a-`).
    pub fn inverse_label(name: impl Into<String>) -> RpqRegex {
        RpqRegex::Label(Symbol::inverse(name))
    }

    /// Concatenation of the given expressions (ε if empty).
    pub fn concat_all(parts: impl IntoIterator<Item = RpqRegex>) -> RpqRegex {
        let mut iter = parts.into_iter();
        let first = match iter.next() {
            Some(p) => p,
            None => return RpqRegex::Epsilon,
        };
        iter.fold(first, |acc, p| RpqRegex::Concat(Box::new(acc), Box::new(p)))
    }

    /// Alternation of the given expressions.
    ///
    /// # Panics
    /// Panics if `parts` is empty.
    pub fn alt_all(parts: impl IntoIterator<Item = RpqRegex>) -> RpqRegex {
        let mut iter = parts.into_iter();
        // The panic is this constructor's documented contract (an empty
        // alternation has no regex representation), not a runtime failure.
        #[allow(clippy::expect_used)]
        let first = iter.next().expect("alt_all requires at least one branch");
        iter.fold(first, |acc, p| RpqRegex::Alt(Box::new(acc), Box::new(p)))
    }

    /// The reversal `R-` of this expression: `w` matches `R` iff the reversed
    /// word (with every symbol flipped) matches `R-`.
    ///
    /// Used to transform a conjunct `(?X, R, C)` into `(C, R-, ?X)`
    /// (Case 2 of the paper's `Open` procedure).
    pub fn reverse(&self) -> RpqRegex {
        match self {
            RpqRegex::Epsilon => RpqRegex::Epsilon,
            RpqRegex::Label(sym) => RpqRegex::Label(sym.flipped()),
            // `_` matches any forward label; its reversal matches any
            // reverse-traversed label. We keep `_` symmetric here (it denotes
            // "any constant"), matching the paper's usage where `_` only
            // appears at the top level of simple queries.
            RpqRegex::Wildcard => RpqRegex::Wildcard,
            RpqRegex::Concat(a, b) => {
                RpqRegex::Concat(Box::new(b.reverse()), Box::new(a.reverse()))
            }
            RpqRegex::Alt(a, b) => RpqRegex::Alt(Box::new(a.reverse()), Box::new(b.reverse())),
            RpqRegex::Star(a) => RpqRegex::Star(Box::new(a.reverse())),
            RpqRegex::Plus(a) => RpqRegex::Plus(Box::new(a.reverse())),
        }
    }

    /// All edge-label names mentioned in the expression (ignoring direction).
    pub fn alphabet(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_labels(&mut out);
        out
    }

    fn collect_labels(&self, out: &mut BTreeSet<String>) {
        match self {
            RpqRegex::Epsilon | RpqRegex::Wildcard => {}
            RpqRegex::Label(sym) => {
                out.insert(sym.label.clone());
            }
            RpqRegex::Concat(a, b) | RpqRegex::Alt(a, b) => {
                a.collect_labels(out);
                b.collect_labels(out);
            }
            RpqRegex::Star(a) | RpqRegex::Plus(a) => a.collect_labels(out),
        }
    }

    /// Whether the expression can match the empty word.
    pub fn is_nullable(&self) -> bool {
        match self {
            RpqRegex::Epsilon | RpqRegex::Star(_) => true,
            RpqRegex::Label(_) | RpqRegex::Wildcard => false,
            RpqRegex::Concat(a, b) => a.is_nullable() && b.is_nullable(),
            RpqRegex::Alt(a, b) => a.is_nullable() || b.is_nullable(),
            RpqRegex::Plus(a) => a.is_nullable(),
        }
    }

    /// The branches of a top-level alternation, flattened.
    ///
    /// `a|b|c` yields `[a, b, c]`; a non-alternation yields a single-element
    /// vector. Used by the "replacing alternation by disjunction" optimisation
    /// (Section 4.3 of the paper).
    pub fn top_level_branches(&self) -> Vec<&RpqRegex> {
        match self {
            RpqRegex::Alt(a, b) => {
                let mut out = a.top_level_branches();
                out.extend(b.top_level_branches());
                out
            }
            other => vec![other],
        }
    }

    /// Number of AST nodes (a rough size measure used by tests/benches).
    pub fn size(&self) -> usize {
        match self {
            RpqRegex::Epsilon | RpqRegex::Label(_) | RpqRegex::Wildcard => 1,
            RpqRegex::Concat(a, b) | RpqRegex::Alt(a, b) => 1 + a.size() + b.size(),
            RpqRegex::Star(a) | RpqRegex::Plus(a) => 1 + a.size(),
        }
    }

    fn precedence(&self) -> u8 {
        match self {
            RpqRegex::Alt(..) => 0,
            RpqRegex::Concat(..) => 1,
            RpqRegex::Star(_) | RpqRegex::Plus(_) => 2,
            RpqRegex::Epsilon | RpqRegex::Label(_) | RpqRegex::Wildcard => 3,
        }
    }

    fn fmt_with_parens(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        let prec = self.precedence();
        let needs_parens = prec < parent_prec;
        if needs_parens {
            write!(f, "(")?;
        }
        match self {
            RpqRegex::Epsilon => write!(f, "()")?,
            RpqRegex::Label(sym) => write!(f, "{sym}")?,
            RpqRegex::Wildcard => write!(f, "_")?,
            RpqRegex::Concat(a, b) => {
                a.fmt_with_parens(f, 1)?;
                write!(f, ".")?;
                b.fmt_with_parens(f, 1)?;
            }
            RpqRegex::Alt(a, b) => {
                a.fmt_with_parens(f, 0)?;
                write!(f, "|")?;
                b.fmt_with_parens(f, 0)?;
            }
            RpqRegex::Star(a) => {
                a.fmt_with_parens(f, 3)?;
                write!(f, "*")?;
            }
            RpqRegex::Plus(a) => {
                a.fmt_with_parens(f, 3)?;
                write!(f, "+")?;
            }
        }
        if needs_parens {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for RpqRegex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with_parens(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_display_and_flip() {
        assert_eq!(Symbol::forward("knows").to_string(), "knows");
        assert_eq!(Symbol::inverse("knows").to_string(), "knows-");
        assert_eq!(Symbol::forward("a").flipped(), Symbol::inverse("a"));
    }

    #[test]
    fn concat_all_and_alt_all() {
        let r = RpqRegex::concat_all([RpqRegex::label("a"), RpqRegex::label("b")]);
        assert_eq!(r.to_string(), "a.b");
        assert_eq!(RpqRegex::concat_all([]), RpqRegex::Epsilon);
        let r = RpqRegex::alt_all([
            RpqRegex::label("a"),
            RpqRegex::label("b"),
            RpqRegex::label("c"),
        ]);
        assert_eq!(r.to_string(), "a|b|c");
    }

    #[test]
    fn reverse_of_concat_swaps_and_flips() {
        let r = RpqRegex::concat_all([
            RpqRegex::inverse_label("isLocatedIn"),
            RpqRegex::label("gradFrom"),
        ]);
        assert_eq!(r.reverse().to_string(), "gradFrom-.isLocatedIn");
        // reversal is an involution
        assert_eq!(r.reverse().reverse(), r);
    }

    #[test]
    fn nullability() {
        assert!(RpqRegex::Epsilon.is_nullable());
        assert!(!RpqRegex::label("a").is_nullable());
        assert!(RpqRegex::Star(Box::new(RpqRegex::label("a"))).is_nullable());
        assert!(!RpqRegex::Plus(Box::new(RpqRegex::label("a"))).is_nullable());
        assert!(RpqRegex::Plus(Box::new(RpqRegex::Epsilon)).is_nullable());
    }

    #[test]
    fn alphabet_collects_labels() {
        let r = RpqRegex::concat_all([
            RpqRegex::label("a"),
            RpqRegex::Alt(
                Box::new(RpqRegex::inverse_label("b")),
                Box::new(RpqRegex::Wildcard),
            ),
        ]);
        let alpha: Vec<_> = r.alphabet().into_iter().collect();
        assert_eq!(alpha, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn top_level_branches_flatten() {
        let r = RpqRegex::alt_all([
            RpqRegex::label("a"),
            RpqRegex::label("b"),
            RpqRegex::label("c"),
        ]);
        assert_eq!(r.top_level_branches().len(), 3);
        assert_eq!(RpqRegex::label("a").top_level_branches().len(), 1);
        let branches = |text: &str| -> Vec<String> {
            let r = crate::parse(text).unwrap();
            r.top_level_branches()
                .iter()
                .map(|b| b.to_string())
                .collect()
        };
        assert_eq!(
            branches("(livesIn-.hasCurrency)|(locatedIn-.gradFrom)"),
            ["livesIn-.hasCurrency", "locatedIn-.gradFrom"]
        );
        assert_eq!(branches("a|b.c|d*"), ["a", "b.c", "d*"]);
        // Alternations below the top level are not split.
        for text in ["a.b", "(a|b).c", "(a|b)*"] {
            assert_eq!(branches(text), [text]);
        }
    }

    #[test]
    fn display_inserts_necessary_parentheses() {
        let r = RpqRegex::Concat(
            Box::new(RpqRegex::Alt(
                Box::new(RpqRegex::label("a")),
                Box::new(RpqRegex::label("b")),
            )),
            Box::new(RpqRegex::label("c")),
        );
        assert_eq!(r.to_string(), "(a|b).c");
        let r = RpqRegex::Star(Box::new(RpqRegex::Concat(
            Box::new(RpqRegex::label("a")),
            Box::new(RpqRegex::label("b")),
        )));
        assert_eq!(r.to_string(), "(a.b)*");
    }

    #[test]
    fn size_counts_nodes() {
        let r = RpqRegex::Concat(
            Box::new(RpqRegex::label("a")),
            Box::new(RpqRegex::Star(Box::new(RpqRegex::label("b")))),
        );
        assert_eq!(r.size(), 4);
    }
}
