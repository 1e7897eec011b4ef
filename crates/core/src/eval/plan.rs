//! Conjunct compilation — the automaton-building half of the paper's `Open`
//! procedure.
//!
//! Compiling a conjunct `(X, R, Y)` produces a [`ConjunctPlan`]:
//!
//! 1. the weighted NFA for `R` is built (the position automaton, which has
//!    no ε-transition) and augmented for APPROX or RELAX if the conjunct is
//!    prefixed by one of them;
//! 2. a conjunct `(?X, R, C)` is transformed into `(C, R-, ?X)` by reversing
//!    the regular expression, so that evaluation always starts from a
//!    constant when one is available (Case 2 of `Open`);
//! 3. the seed specification records where evaluation starts: a constant
//!    node (plus its class ancestors under RELAX), or the nodes selected by
//!    the initial transitions' labels for `(?X, R, ?Y)` conjuncts.
//!
//! The plan is independent of evaluation state, so a prepared statement (and
//! the paper's Section 4.3 drivers, in `omega-bench`) can run it several
//! times without paying the compilation cost again.

use omega_automata::{
    approximate, build_nfa, relax, MinCostToAccept, SignatureBound, StateId, TransitionLabel,
    WeightedNfa,
};
use omega_graph::{Direction, GraphStore, NodeBitmap, NodeId};
use omega_ontology::Ontology;

use crate::error::{OmegaError, Result};
use crate::eval::options::EvalOptions;
use crate::eval::succ::ExpansionTable;
use crate::query::ast::{Conjunct, QueryMode, Term};

/// Where a conjunct's evaluation starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedSpec {
    /// Start from fixed nodes, each with an initial distance (the constant
    /// itself at 0 and, under RELAX, its class ancestors at `k·β`).
    Fixed(Vec<(NodeId, u32)>),
    /// Start from every node of the graph: the initial state is final, so
    /// every node is an answer `(n, n)` at its final weight.
    AllNodes,
    /// Start from the nodes that have at least one edge matching one of the
    /// automaton's initial-transition labels.
    MatchingInitial,
}

/// A compiled conjunct, ready for (repeated) evaluation.
#[derive(Debug, Clone)]
pub struct ConjunctPlan {
    /// Evaluation mode of the conjunct.
    pub mode: QueryMode,
    /// The original subject term.
    pub subject: Term,
    /// The original object term.
    pub object: Term,
    /// Whether the conjunct was reversed (`(?X, R, C)` → `(C, R-, ?X)`), in
    /// which case emitted answers swap their endpoints back.
    pub reversed: bool,
    /// The weighted automaton, augmented for the conjunct's mode.
    pub nfa: WeightedNfa,
    /// Seed specification.
    pub seeds: SeedSpec,
    /// If the (possibly reversed) conjunct also has a constant object, the
    /// node answers must end at.
    pub final_constraint: Option<NodeId>,
    /// Whether subject and object are the same variable, so answers must be
    /// node pairs `(n, n)`.
    pub require_equal_endpoints: bool,
    /// The node the subject constant names, used to normalise answer
    /// bindings when RELAX starts from class ancestors.
    pub subject_node: Option<NodeId>,
    /// The node the object constant names.
    pub object_node: Option<NodeId>,
    /// Whether RDFS inference applies when matching transitions (RELAX only).
    pub inference: bool,
    /// Initial nodes each pop of the seed cursor releases,
    /// [`EvalOptions::batch_size`].
    pub batch_size: usize,
    /// Whether final tuples pop before non-final ones at the same key,
    /// [`EvalOptions::prioritize_final`].
    pub prioritize_final: bool,
    /// Admissible per-state accept lower bounds `h`, computed against what
    /// the data graph can actually fire (labels with zero edges are treated
    /// as absent); 0 everywhere, none dead, without
    /// [`EvalOptions::cost_guided`]. The evaluator orders the tuple queue by
    /// `f = g + h[state]`, prunes tuples with `g + h` beyond the distance
    /// ceiling, and never expands into dead states.
    pub bounds: MinCostToAccept,
    /// The node classes of the graph's summary each state is tight or live
    /// for: a node whose class is not tight for its state is keyed one
    /// above `g + h`, and one whose class is not live is dead (see
    /// [`ConjunctPlan::bound`]). Every class is both without cost guidance.
    pub signature: SignatureBound,
    /// Per-state deferral offsets: the minimum of `cost + h[target]` over
    /// the state's live positive-cost transitions (`u32::MAX` when it has
    /// none). A tuple's positive-cost expansion is postponed to key
    /// `g + defer_delta[state]` — the earliest key at which any of those
    /// successors could matter.
    defer_delta: Vec<u32>,
    /// Every state's transitions grouped by label, dead targets marked:
    /// the one table `Succ` expands from.
    pub expansion: ExpansionTable,
    /// Estimated number of seed nodes this conjunct's evaluation starts
    /// from, read off the frozen label statistics. The rank join orders its
    /// input streams by this estimate (most selective first).
    pub estimated_seed_count: u64,
}

impl ConjunctPlan {
    /// Variables bound by this conjunct in `(subject, object)` order.
    pub fn variables(&self) -> Vec<&str> {
        [&self.subject, &self.object]
            .into_iter()
            .filter_map(Term::as_variable)
            .collect()
    }

    /// The bound of a node of one of the summary classes `classes` in
    /// `state`: `h(state)`, one more when none of them is tight for
    /// `state`, `None` when the state is dead or none of them is live. For
    /// a set of nodes, the least bound of its members.
    #[inline]
    pub fn bound(&self, state: StateId, classes: u64) -> Option<u32> {
        let h = self.bounds.get(state);
        if h == MinCostToAccept::DEAD {
            return None;
        }
        let offset = self.signature.offset(state, classes)?;
        Some(h.saturating_add(offset))
    }

    /// The deferral offset of `state`: the smallest `cost + h[target]` over
    /// its live positive-cost transitions, or `u32::MAX` when deferred
    /// expansion can never produce anything from this state.
    #[inline]
    pub fn defer_delta(&self, state: StateId) -> u32 {
        self.defer_delta[state.index()]
    }
}

/// Compiles `conjunct` against the data graph and ontology.
pub fn compile_conjunct(
    conjunct: &Conjunct,
    graph: &GraphStore,
    ontology: &Ontology,
    options: &EvalOptions,
) -> Result<ConjunctPlan> {
    // Case analysis on which ends are constants (Cases 1–3 of `Open`).
    let subject_const = conjunct.subject.as_constant();
    let object_const = conjunct.object.as_constant();

    let resolve = |name: &str| -> Result<NodeId> {
        graph
            .node_by_label(name)
            .ok_or_else(|| OmegaError::UnknownConstant(name.to_owned()))
    };
    let subject_node = subject_const.map(&resolve).transpose()?;
    let object_node = object_const.map(&resolve).transpose()?;

    let (reversed, base) = match (subject_node, object_node) {
        // (?X, R, C): evaluate (C, R-, ?X).
        (None, Some(_)) => (true, build_nfa(&conjunct.regex.reverse(), graph)),
        // (C1, R, C2): both directions are available — pick the one whose
        // start constant has the smaller first-hop fan-out (ties keep the
        // forward direction, the historical behaviour). RELAX is excluded
        // because its seed-side class relaxation is tied to the start
        // constant.
        (Some(subject), Some(object)) if conjunct.mode != QueryMode::Relax => {
            let forward = build_nfa(&conjunct.regex, graph);
            let backward = build_nfa(&conjunct.regex.reverse(), graph);
            if first_hop_fanout(&backward, object, graph)
                < first_hop_fanout(&forward, subject, graph)
            {
                (true, backward)
            } else {
                (false, forward)
            }
        }
        _ => (false, build_nfa(&conjunct.regex, graph)),
    };

    let nfa = match conjunct.mode {
        QueryMode::Exact => base,
        QueryMode::Approx => approximate(&base, &options.approx),
        QueryMode::Relax => relax(&base, ontology, &options.relax, graph),
    };

    // Seeds: the start constant (after reversal this is the object constant
    // when only the object was constant), or label-guided seeding.
    let start_node = if reversed { object_node } else { subject_node };
    let seeds = match start_node {
        Some(node) => {
            let mut fixed = vec![(node, 0)];
            if conjunct.mode == QueryMode::Relax && ontology.is_class(node) {
                // Rule (i) for classes: also start from every superclass, at
                // β per step up the hierarchy; nearer (more specific) classes
                // first, as `GetAncestors` prescribes.
                for &(ancestor, dist) in ontology.superclasses(node) {
                    fixed.push((ancestor, dist * options.relax.beta));
                }
            }
            SeedSpec::Fixed(fixed)
        }
        None if nfa.final_weight(nfa.initial()).is_some() => SeedSpec::AllNodes,
        None => SeedSpec::MatchingInitial,
    };

    // A constant at the non-start end becomes a final-state constraint.
    let final_constraint = if reversed { subject_node } else { object_node };
    // When both ends are constants evaluation starts from the subject and the
    // object constrains the final state; `final_constraint` handles that. If
    // both ends are the *same variable*, answers must loop back to the start.
    let require_equal_endpoints = match (&conjunct.subject, &conjunct.object) {
        (Term::Variable(a), Term::Variable(b)) => a == b,
        _ => false,
    };

    // Graph-aware accept lower bounds: a transition whose label can never
    // match an edge of *this* graph is treated as absent, so states whose
    // remaining path depends on such labels become dead (or acquire a
    // positive bound through the edit/relaxation detours around them). The
    // predicate under-approximates impossibility — an existing label still
    // counts as live even if no edge of it is reachable — which is exactly
    // what admissibility requires.
    let inference = conjunct.mode == QueryMode::Relax && options.inference;
    let type_label = graph.type_label();
    let label_stats = graph.label_stats();
    let live = |label: &TransitionLabel| -> bool {
        match label {
            TransitionLabel::Symbol { label: None, .. } => false,
            TransitionLabel::Symbol { label: Some(l), .. } => {
                label_stats.has_edges(*l)
                    || (inference
                        && ontology
                            .subproperties_or_self(l)
                            .iter()
                            .any(|p| label_stats.has_edges(*p)))
            }
            TransitionLabel::AnyForward | TransitionLabel::Any => graph.edge_count() > 0,
            TransitionLabel::TypeTo { class, .. } => {
                let has_instances = |c: NodeId| {
                    graph
                        .neighbors_iter(c, type_label, Direction::Incoming)
                        .next()
                        .is_some()
                };
                has_instances(*class)
                    || (inference
                        && ontology
                            .subclasses_or_self(class)
                            .iter()
                            .any(|&c| has_instances(c)))
            }
        }
    };
    // Cost guidance is plan data: without it the bound is the trivial one,
    // `h ≡ 0` with every class tight, and `D_R` pops by distance alone.
    let summary = graph.summary();
    let (bounds, signature) = if options.cost_guided {
        let bounds = MinCostToAccept::compute_with(&nfa, &live);
        // The same bound past one edge, in the graph's summary: a symbol
        // steps between the classes its layer links; a wildcard, a `TypeTo`
        // and a symbol matched under inference may step from any class.
        let signature =
            SignatureBound::compute(&nfa, &bounds, summary.all(), |label, to| match label {
                TransitionLabel::Symbol { label: None, .. } => 0,
                TransitionLabel::Symbol {
                    label: Some(l),
                    inverse,
                    ..
                } if !inference => {
                    let dir = if *inverse {
                        Direction::Incoming
                    } else {
                        Direction::Outgoing
                    };
                    summary.sources(*l, dir, to)
                }
                _ => summary.all(),
            });
        (bounds, signature)
    } else {
        let everywhere = SignatureBound::everywhere(&nfa, summary.all());
        (MinCostToAccept::zero(&nfa), everywhere)
    };
    let defer_delta: Vec<u32> = nfa
        .states()
        .map(|s| {
            nfa.transitions_from(s)
                .iter()
                .filter(|t| t.cost > 0 && live(&t.label))
                .filter_map(|t| {
                    let h = bounds.get(t.to);
                    (h != MinCostToAccept::DEAD).then(|| t.cost.saturating_add(h))
                })
                .min()
                .unwrap_or(u32::MAX)
        })
        .collect();
    let expansion = ExpansionTable::compile(&nfa, &bounds);

    // Seed-cardinality estimate for the rank join's stream ordering.
    let estimated_seed_count = match &seeds {
        SeedSpec::Fixed(fixed) => fixed.len() as u64,
        SeedSpec::AllNodes => graph.node_count() as u64,
        SeedSpec::MatchingInitial => nfa
            .initial_labels()
            .map(|label| match label {
                TransitionLabel::Symbol { label: None, .. } => 0,
                TransitionLabel::Symbol {
                    label: Some(l),
                    inverse,
                    ..
                } => {
                    let entry = label_stats.entry(*l);
                    if *inverse {
                        entry.distinct_heads
                    } else {
                        entry.distinct_tails
                    }
                }
                TransitionLabel::AnyForward | TransitionLabel::Any => graph.node_count() as u64,
                TransitionLabel::TypeTo { class, .. } => graph
                    .neighbors_iter(*class, type_label, Direction::Incoming)
                    .count() as u64,
            })
            .sum(),
    };

    Ok(ConjunctPlan {
        mode: conjunct.mode,
        subject: conjunct.subject.clone(),
        object: conjunct.object.clone(),
        reversed,
        nfa,
        seeds,
        final_constraint,
        require_equal_endpoints,
        subject_node,
        object_node,
        inference,
        batch_size: options.batch_size,
        prioritize_final: options.prioritize_final,
        bounds,
        signature,
        defer_delta,
        expansion,
        estimated_seed_count,
    })
}

/// Number of edges leaving `node` that the initial transitions of `base`
/// (the position automaton of a conjunct's expression) could match — the
/// cost of the first expansion step when evaluation seeds at `node`. Used to
/// pick the cheaper direction for doubly-constant conjuncts; the estimate
/// deliberately uses the unaugmented automaton (the exact matches are where
/// answers concentrate).
fn first_hop_fanout(base: &WeightedNfa, node: NodeId, graph: &GraphStore) -> u64 {
    base.initial_labels()
        .map(|label| match label {
            TransitionLabel::Symbol { label: None, .. } => 0,
            TransitionLabel::Symbol {
                label: Some(l),
                inverse,
                ..
            } => {
                let dir = if *inverse {
                    Direction::Incoming
                } else {
                    Direction::Outgoing
                };
                graph.neighbors_iter(node, *l, dir).count() as u64
            }
            TransitionLabel::AnyForward => graph.out_degree(node, None) as u64,
            TransitionLabel::Any => graph.degree(node) as u64,
            TransitionLabel::TypeTo { .. } => graph
                .neighbors_iter(node, graph.type_label(), Direction::Outgoing)
                .count() as u64,
        })
        .sum()
}

/// The node sets selected by an initial transition label, used both for
/// seeding `(?X, R, ?Y)` conjuncts and by tests: for symbols and wildcards a
/// copy of one occupancy bitmap, or an OR of copies (`GraphStore::tails` /
/// `heads` / `nodes_with_any_edge`), never a scan of the graph.
pub(crate) fn seed_nodes_for_label(
    graph: &GraphStore,
    ontology: &Ontology,
    inference: bool,
    label: &TransitionLabel,
) -> NodeBitmap {
    match label {
        TransitionLabel::Symbol { label: None, .. } => NodeBitmap::new(),
        TransitionLabel::Symbol {
            label: Some(l),
            inverse,
            ..
        } => {
            let labels = if inference {
                ontology.subproperties_or_self(l)
            } else {
                std::slice::from_ref(l)
            };
            let endpoints = |l| {
                if *inverse {
                    graph.heads(l)
                } else {
                    graph.tails(l)
                }
            };
            let mut set = union(labels.iter().map(|&l| endpoints(l)));
            // Under `sc` inference an inverse `type` traversal can also start
            // from superclasses whose only instances are inferred.
            if inference && *l == graph.type_label() && *inverse {
                let declared: Vec<_> = set.iter().collect();
                for class in declared {
                    for &(sup, _) in ontology.superclasses(class) {
                        set.insert(sup);
                    }
                }
            }
            set
        }
        TransitionLabel::AnyForward => union(graph.labels().map(|(l, _)| graph.tails(l))),
        TransitionLabel::Any => graph.nodes_with_any_edge(),
        TransitionLabel::TypeTo { class, .. } => {
            let classes = if inference {
                ontology.subclasses_or_self(class)
            } else {
                std::slice::from_ref(class)
            };
            let mut set = NodeBitmap::new();
            for &c in classes {
                set.extend(graph.neighbors_iter(
                    c,
                    graph.type_label(),
                    omega_graph::Direction::Incoming,
                ));
            }
            set
        }
    }
}

/// The union of `sets`: the first moved, the rest ORed into it.
pub(crate) fn union(sets: impl IntoIterator<Item = NodeBitmap>) -> NodeBitmap {
    let mut sets = sets.into_iter();
    let mut out = sets.next().unwrap_or_default();
    sets.for_each(|set| out.union_with(&set));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parser::parse_query;

    fn tiny_graph() -> (GraphStore, Ontology) {
        let mut g = GraphStore::new();
        g.add_triple("a", "knows", "b");
        g.add_triple("b", "knows", "c");
        g.add_triple("a", "type", "Person");
        g.add_triple("b", "type", "Student");
        let mut o = Ontology::new();
        let student = g.node_by_label("Student").unwrap();
        let person = g.node_by_label("Person").unwrap();
        o.add_subclass(student, person).unwrap();
        (g, o)
    }

    fn plan_for(query: &str) -> ConjunctPlan {
        let (g, o) = tiny_graph();
        let q = parse_query(query).unwrap();
        compile_conjunct(&q.conjuncts[0], &g, &o, &EvalOptions::default()).unwrap()
    }

    #[test]
    fn constant_subject_seeds_from_constant() {
        let plan = plan_for("(?X) <- (a, knows, ?X)");
        assert!(!plan.reversed);
        match &plan.seeds {
            SeedSpec::Fixed(seeds) => assert_eq!(seeds.len(), 1),
            other => panic!("unexpected seeds {other:?}"),
        }
        assert_eq!(plan.final_constraint, None);
        assert_eq!(plan.variables(), ["X"]);
    }

    #[test]
    fn constant_object_reverses_the_regex() {
        let plan = plan_for("(?X) <- (?X, knows, c)");
        assert!(plan.reversed);
        let labels: Vec<String> = plan.nfa.initial_labels().map(|l| l.to_string()).collect();
        assert_eq!(labels, ["knows-"]);
        match &plan.seeds {
            SeedSpec::Fixed(seeds) => {
                let (g, _) = tiny_graph();
                assert_eq!(seeds[0].0, g.node_by_label("c").unwrap());
            }
            other => panic!("unexpected seeds {other:?}"),
        }
    }

    #[test]
    fn both_constants_set_final_constraint() {
        let plan = plan_for("(?X) <- (a, knows, ?X), (a, knows, b)");
        // the first conjunct is used above; compile the second explicitly:
        let (g, o) = tiny_graph();
        let q = parse_query("(?X) <- (a, knows.knows, ?X), (a, knows, b)").unwrap();
        let plan2 = compile_conjunct(&q.conjuncts[1], &g, &o, &EvalOptions::default()).unwrap();
        assert_eq!(plan2.final_constraint, g.node_by_label("b"));
        assert!(plan.final_constraint.is_none());
    }

    /// A doubly-constant conjunct starts from the end with the smaller
    /// first-hop fan-out, read off the position automaton's initial
    /// transitions.
    #[test]
    fn both_constants_start_from_the_narrower_end() {
        let mut g = GraphStore::new();
        for fan in ["f1", "f2", "f3", "f4"] {
            g.add_triple("hub", "knows", fan);
        }
        g.add_triple("f1", "likes", "leaf");
        let o = Ontology::new();
        let options = EvalOptions::default();
        let compile = |text: &str| {
            let q = parse_query(text).unwrap();
            compile_conjunct(&q.conjuncts[0], &g, &o, &options).unwrap()
        };
        // hub has four `knows` edges out, leaf one `likes` edge in.
        let plan = compile("(?X) <- (hub, knows.likes, leaf), (hub, knows, ?X)");
        assert!(plan.reversed);
        assert_eq!(plan.final_constraint, g.node_by_label("hub"));
        let labels: Vec<String> = plan.nfa.initial_labels().map(|l| l.to_string()).collect();
        assert_eq!(labels, ["likes-"]);
        // The other way round the forward direction is the narrow one; a tie
        // keeps it too.
        assert!(!compile("(?X) <- (leaf, likes-.knows-, hub), (hub, knows, ?X)").reversed);
        assert!(!compile("(?X) <- (f1, likes, leaf), (hub, knows, ?X)").reversed);
    }

    #[test]
    fn var_var_conjunct_uses_matching_initial() {
        let plan = plan_for("(?X, ?Y) <- (?X, knows, ?Y)");
        assert_eq!(plan.seeds, SeedSpec::MatchingInitial);
        assert!(!plan.require_equal_endpoints);
    }

    #[test]
    fn nullable_regex_seeds_all_nodes_as_final() {
        let plan = plan_for("(?X, ?Y) <- (?X, knows*, ?Y)");
        assert_eq!(plan.seeds, SeedSpec::AllNodes);
        assert_eq!(plan.nfa.final_weight(plan.nfa.initial()), Some(0));
    }

    #[test]
    fn approx_of_nullable_regex_keeps_zero_weight_finality() {
        let plan = plan_for("(?X, ?Y) <- APPROX (?X, knows*, ?Y)");
        assert_eq!(plan.seeds, SeedSpec::AllNodes);
        assert_eq!(plan.nfa.final_weight(plan.nfa.initial()), Some(0));
    }

    #[test]
    fn same_variable_requires_equal_endpoints() {
        let plan = plan_for("(?X) <- (?X, knows.knows, ?X)");
        assert!(plan.require_equal_endpoints);
    }

    #[test]
    fn relax_class_constant_seeds_ancestors() {
        let plan = plan_for("(?X) <- RELAX (Student, type-, ?X)");
        match &plan.seeds {
            SeedSpec::Fixed(seeds) => {
                assert_eq!(seeds.len(), 2, "Student itself plus Person");
                assert_eq!(seeds[0].1, 0);
                assert_eq!(seeds[1].1, 1, "one β step up the hierarchy");
            }
            other => panic!("unexpected seeds {other:?}"),
        }
    }

    #[test]
    fn unknown_constant_is_an_error() {
        let (g, o) = tiny_graph();
        let q = parse_query("(?X) <- (Nowhere, knows, ?X)").unwrap();
        let err = compile_conjunct(&q.conjuncts[0], &g, &o, &EvalOptions::default()).unwrap_err();
        assert!(matches!(err, OmegaError::UnknownConstant(_)));
    }

    #[test]
    fn approx_automaton_has_wildcards() {
        let plan = plan_for("(?X) <- APPROX (a, knows.knows, ?X)");
        assert!(plan
            .nfa
            .transitions()
            .iter()
            .any(|t| matches!(t.label, TransitionLabel::Any)));
    }

    #[test]
    fn seed_nodes_for_label_selects_by_direction() {
        let (g, o) = tiny_graph();
        let knows = g.label_id("knows").unwrap();
        let fwd = seed_nodes_for_label(
            &g,
            &o,
            false,
            &TransitionLabel::symbol(Some(knows), false, "knows"),
        );
        assert_eq!(fwd.len(), 2); // a and b have outgoing `knows`
        let back = seed_nodes_for_label(
            &g,
            &o,
            false,
            &TransitionLabel::symbol(Some(knows), true, "knows"),
        );
        assert_eq!(back.len(), 2); // b and c have incoming `knows`
        let any = seed_nodes_for_label(&g, &o, false, &TransitionLabel::Any);
        assert_eq!(any.len(), g.nodes_with_any_edge().len());
    }

    #[test]
    fn seed_nodes_for_type_to_respects_inference() {
        let (g, o) = tiny_graph();
        let person = g.node_by_label("Person").unwrap();
        let strict = seed_nodes_for_label(
            &g,
            &o,
            false,
            &TransitionLabel::TypeTo {
                class: person,
                name: "Person".into(),
            },
        );
        assert_eq!(strict.len(), 1); // only `a` is directly typed Person
        let inferred = seed_nodes_for_label(
            &g,
            &o,
            true,
            &TransitionLabel::TypeTo {
                class: person,
                name: "Person".into(),
            },
        );
        assert_eq!(inferred.len(), 2); // `b` is a Student ⊑ Person
    }
}
