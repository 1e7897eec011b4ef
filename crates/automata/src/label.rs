//! Transition labels of weighted NFAs. Each one consumes a graph edge: no
//! automaton here has an ε-transition.

use std::fmt;
use std::sync::Arc;

use omega_graph::{LabelId, NodeId};
use omega_regex::Symbol;

/// The label carried by an NFA transition.
///
/// Unlike a textbook NFA over a flat alphabet, Omega's automata need a few
/// structured label forms:
///
/// * [`TransitionLabel::Symbol`] — a concrete edge label traversed forwards
///   or backwards. If the label does not occur in the data graph the
///   resolved id is `None` and the transition can never match an edge (it is
///   still kept so that APPROX edits apply to it).
/// * [`TransitionLabel::AnyForward`] — the query wildcard `_` (any label,
///   forward traversal).
/// * [`TransitionLabel::Any`] — the APPROX wildcard `*`: any label traversed
///   in either direction. The paper introduces it so that the insertion and
///   substitution edit operations do not require one transition per label in
///   `Σ ∪ {type}` and their reversals.
/// * [`TransitionLabel::TypeTo`] — a `type` edge whose target must be the
///   given class node; produced by RELAX rule (ii) (replace a property edge
///   by a `type` edge to the property's domain/range class).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TransitionLabel {
    /// A concrete edge label, possibly traversed in reverse.
    Symbol {
        /// Resolved edge label (None if the label does not exist in the graph).
        label: Option<LabelId>,
        /// Whether the edge is traversed target→source.
        inverse: bool,
        /// The label's name, kept for display and word-level matching;
        /// shared, so copying a label never allocates.
        name: Arc<str>,
    },
    /// `_` — any edge label, forward traversal.
    AnyForward,
    /// `*` — any edge label, either traversal direction (APPROX wildcard).
    Any,
    /// A `type` edge whose target must be the given class node (RELAX rule ii).
    TypeTo {
        /// The required target class node.
        class: NodeId,
        /// The class node's name, kept for display.
        name: Arc<str>,
    },
}

impl TransitionLabel {
    /// Builds a [`TransitionLabel::Symbol`].
    pub fn symbol(label: Option<LabelId>, inverse: bool, name: impl Into<Arc<str>>) -> Self {
        TransitionLabel::Symbol {
            label,
            inverse,
            name: name.into(),
        }
    }

    /// The same label with the traversal direction flipped (used by the
    /// inversion edit operation).
    pub fn flipped(&self) -> TransitionLabel {
        match self {
            TransitionLabel::Symbol {
                label,
                inverse,
                name,
            } => TransitionLabel::Symbol {
                label: *label,
                inverse: !inverse,
                name: name.clone(),
            },
            // `Any` is direction-symmetric; `_` flips to "any label backwards",
            // which we conservatively widen to `Any`.
            TransitionLabel::AnyForward => TransitionLabel::Any,
            other => other.clone(),
        }
    }

    /// Whether this label can match the word symbol `sym` (a label name plus
    /// direction). This is the *word-level* matching used by tests and the
    /// simulation oracle; graph-level matching (which also needs subproperty
    /// inference and class targets) lives in the evaluator.
    pub fn matches_symbol(&self, sym: &Symbol) -> bool {
        match self {
            TransitionLabel::Symbol { inverse, name, .. } => {
                **name == *sym.label && *inverse == sym.inverse
            }
            TransitionLabel::AnyForward => !sym.inverse,
            TransitionLabel::Any => true,
            TransitionLabel::TypeTo { .. } => sym.label == "type" && !sym.inverse,
        }
    }
}

impl fmt::Display for TransitionLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionLabel::Symbol { name, inverse, .. } => {
                write!(f, "{name}{}", if *inverse { "-" } else { "" })
            }
            TransitionLabel::AnyForward => write!(f, "_"),
            TransitionLabel::Any => write!(f, "*"),
            TransitionLabel::TypeTo { name, .. } => write!(f, "type→{name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_matching_respects_direction() {
        let fwd = TransitionLabel::symbol(Some(LabelId(0)), false, "knows");
        let back = fwd.flipped();
        assert!(fwd.matches_symbol(&Symbol::forward("knows")));
        assert!(!fwd.matches_symbol(&Symbol::inverse("knows")));
        assert!(back.matches_symbol(&Symbol::inverse("knows")));
        assert!(!fwd.matches_symbol(&Symbol::forward("likes")));
    }

    #[test]
    fn wildcards() {
        assert!(TransitionLabel::Any.matches_symbol(&Symbol::inverse("x")));
        assert!(TransitionLabel::AnyForward.matches_symbol(&Symbol::forward("x")));
        assert!(!TransitionLabel::AnyForward.matches_symbol(&Symbol::inverse("x")));
        assert_eq!(TransitionLabel::AnyForward.flipped(), TransitionLabel::Any);
    }

    #[test]
    fn type_to_matches_type_symbol_at_word_level() {
        let t = TransitionLabel::TypeTo {
            class: NodeId(3),
            name: "Person".into(),
        };
        assert!(t.matches_symbol(&Symbol::forward("type")));
        assert!(!t.matches_symbol(&Symbol::forward("knows")));
        assert_eq!(t.flipped(), t);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            TransitionLabel::symbol(None, true, "knows").to_string(),
            "knows-"
        );
        assert_eq!(TransitionLabel::Any.to_string(), "*");
    }
}
