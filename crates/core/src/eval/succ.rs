//! The `Succ` function: automaton-guided neighbour expansion.
//!
//! Given a node `(s, n)` of the (lazily constructed) weighted product
//! automaton `H_R`, `Succ` returns its outgoing transitions: for each
//! automaton transition leaving `s`, the graph neighbours of `n` reachable
//! over edges that match the transition's label. The automaton therefore
//! guides which adjacency lists are ever touched, and consecutive transitions
//! carrying the same label reuse a single neighbour lookup (the paper's
//! `prevlabel` refinement).
//!
//! This is the hottest code in the engine, so it is written to avoid heap
//! allocation entirely on the common path: [`neighbours_by_edge`] returns a
//! borrowed `&[NodeId]` — for plain symbol transitions that is the graph's
//! own (CSR) adjacency slice, and for ε / unresolved symbols a shared empty
//! slice; only wildcard / inference / `TypeTo` labels compute into a
//! caller-provided buffer that is reused across calls. [`succ`] likewise
//! appends into a reusable output vector instead of returning a fresh one.

use omega_automata::{MinCostToAccept, StateId, TransitionLabel, WeightedNfa};
use omega_graph::{Direction, GraphStore, LabelId, NodeId};
use omega_ontology::Ontology;

use crate::eval::stats::EvalStats;

/// Which transition costs an expansion materialises.
///
/// Cost-guided evaluation splits each tuple's expansion in two: the 0-cost
/// skeleton successors are produced when the tuple pops, and the
/// positive-cost successors (wildcard edits, relaxations) only when a
/// deferred placeholder re-pops at the key where they can first matter —
/// so a label whose transitions are all filtered out never even pays its
/// neighbour lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostFilter {
    /// Every transition (plain, non-guided evaluation).
    All,
    /// Only cost-0 transitions (the fresh pop of a cost-guided tuple).
    ZeroOnly,
    /// Only positive-cost transitions (the deferred re-expansion).
    PositiveOnly,
}

impl CostFilter {
    #[inline]
    fn admits(self, cost: u32) -> bool {
        match self {
            CostFilter::All => true,
            CostFilter::ZeroOnly => cost == 0,
            CostFilter::PositiveOnly => cost > 0,
        }
    }
}

/// The empty neighbour set, returned without touching the heap for
/// transitions that can never match an edge (ε and unresolved symbols).
const EMPTY: &[NodeId] = &[];

/// One product-automaton transition produced by [`succ`]: reach graph node
/// `node` in automaton state `state` at additional cost `cost`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuccTransition {
    /// Additional distance incurred by the step.
    pub cost: u32,
    /// Target automaton state.
    pub state: StateId,
    /// Target graph node.
    pub node: NodeId,
}

/// Reusable buffers for [`succ`].
///
/// One instance lives in each evaluator; after the first few calls the
/// buffers stop growing and every expansion is allocation-free.
#[derive(Debug, Default)]
pub struct SuccScratch {
    /// Computed neighbour sets (wildcards, inference, `TypeTo`).
    neighbours: Vec<NodeId>,
    /// `(cost, state)` pairs of the current same-label transition run.
    run: Vec<(u32, StateId)>,
}

impl SuccScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> SuccScratch {
        SuccScratch::default()
    }
}

/// The neighbours of `node` reachable over edges matching `label`
/// (the paper's `NeighboursByEdge`).
///
/// Returns a slice borrowed either from the graph's adjacency (symbol
/// transitions: zero copies, zero allocations) or from `buf` (labels whose
/// neighbour set must be computed; the buffer is cleared and refilled).
///
/// Under RDFS inference (`inference = true`, RELAX conjuncts) a property
/// label also matches edges labelled by any of its sub-properties, and a
/// `TypeTo(c)` constraint accepts `type` edges into any subclass of `c`
/// (the step then lands on `c` itself, the class the relaxed query names).
pub fn neighbours_by_edge<'a>(
    graph: &'a GraphStore,
    ontology: &Ontology,
    inference: bool,
    node: NodeId,
    label: &TransitionLabel,
    buf: &'a mut Vec<NodeId>,
    stats: &mut EvalStats,
) -> &'a [NodeId] {
    stats.neighbour_lookups += 1;
    match label {
        TransitionLabel::Epsilon => EMPTY,
        TransitionLabel::Symbol { label: None, .. } => EMPTY,
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
            if inference && *l == graph.type_label() {
                // RDFS `sc` inference on type edges: an instance of a class
                // is also an instance of every superclass. On a frozen
                // ontology the class closures are interned slices, so this
                // path performs no allocation beyond the shared buffer.
                buf.clear();
                if *inverse {
                    // Instances of `node` (a class) and of all its subclasses.
                    let fallback;
                    let classes: &[NodeId] = if ontology.is_frozen() {
                        // Unknown class: no subclasses, just the node itself.
                        ontology
                            .interned_subclasses_or_self(node)
                            .unwrap_or(std::slice::from_ref(&node))
                    } else {
                        fallback = ontology.subclasses_or_self(node);
                        &fallback
                    };
                    for &class in classes {
                        for m in graph.neighbors_iter(class, *l, Direction::Incoming) {
                            if !buf.contains(&m) {
                                buf.push(m);
                            }
                        }
                    }
                } else {
                    // The node's declared classes plus all their superclasses.
                    buf.extend(graph.neighbors_iter(node, *l, Direction::Outgoing));
                    let declared = buf.len();
                    let frozen = ontology.is_frozen();
                    for i in 0..declared {
                        let class = buf[i];
                        if frozen {
                            // Unknown class: no superclasses to add.
                            for &(sup, _) in ontology.interned_superclasses(class).unwrap_or(&[]) {
                                if !buf.contains(&sup) {
                                    buf.push(sup);
                                }
                            }
                        } else {
                            for (sup, _) in ontology.superclasses(class) {
                                if !buf.contains(&sup) {
                                    buf.push(sup);
                                }
                            }
                        }
                    }
                }
                buf
            } else if inference {
                // RDFS `sp` inference: `l` also matches edges labelled by
                // any of its sub-properties. On a frozen ontology the
                // closure is an interned slice — no `Vec` per expansion
                // (the ROADMAP's "zero-allocation RELAX inference" item);
                // an unknown property's closure is just the property.
                let fallback;
                let labels: &[LabelId] = if ontology.is_frozen() {
                    ontology
                        .interned_subproperties_or_self(*l)
                        .unwrap_or(std::slice::from_ref(l))
                } else {
                    fallback = ontology.subproperties_or_self(*l);
                    &fallback
                };
                if let [only] = labels {
                    // No sub-properties: serve the graph's slice directly
                    // (`neighbors_into` only copies when a delta overlay
                    // actually touches this slice).
                    return graph.neighbors_into(node, *only, dir, buf);
                }
                buf.clear();
                for &l in labels {
                    for m in graph.neighbors_iter(node, l, dir) {
                        if !buf.contains(&m) {
                            buf.push(m);
                        }
                    }
                }
                buf
            } else {
                graph.neighbors_into(node, *l, dir, buf)
            }
        }
        TransitionLabel::AnyForward => {
            buf.clear();
            buf.extend(
                graph
                    .neighbors_any_iter(node, Direction::Outgoing)
                    .map(|(_, n)| n),
            );
            buf.sort_unstable();
            buf.dedup();
            buf
        }
        TransitionLabel::Any => {
            buf.clear();
            buf.extend(
                graph
                    .neighbors_any_iter(node, Direction::Outgoing)
                    .chain(graph.neighbors_any_iter(node, Direction::Incoming))
                    .map(|(_, n)| n),
            );
            buf.sort_unstable();
            buf.dedup();
            buf
        }
        TransitionLabel::TypeTo { class, .. } => {
            let type_label = graph.type_label();
            let mut targets = graph.neighbors_iter(node, type_label, Direction::Outgoing);
            let hit = if inference {
                targets.any(|t| t == *class || ontology.is_superclass_of(*class, t))
            } else {
                targets.any(|t| t == *class)
            };
            if hit {
                buf.clear();
                buf.push(*class);
                buf
            } else {
                EMPTY
            }
        }
    }
}

/// The paper's `Succ(s, n)`: the product-automaton transitions leaving
/// `(s, n)` that `filter` admits, appended to `out` (cleared first).
///
/// Consecutive automaton transitions with the same label (the automaton keeps
/// its transitions label-sorted) share one `neighbours_by_edge` call, and the
/// caller's `out` / `scratch` buffers are reused so the steady state performs
/// no allocation. When `bounds` is supplied (cost-guided evaluation),
/// transitions into dead automaton states — states that can never reach
/// acceptance against this graph — are dropped before any adjacency is
/// touched, and a label whose entire run is filtered out skips its
/// neighbour lookup altogether.
#[allow(clippy::too_many_arguments)]
pub fn succ(
    graph: &GraphStore,
    ontology: &Ontology,
    inference: bool,
    nfa: &WeightedNfa,
    state: StateId,
    node: NodeId,
    filter: CostFilter,
    bounds: Option<&MinCostToAccept>,
    out: &mut Vec<SuccTransition>,
    scratch: &mut SuccScratch,
    stats: &mut EvalStats,
) {
    stats.succ_calls += 1;
    out.clear();
    let SuccScratch { neighbours, run } = scratch;
    let mut transitions = nfa.transitions_from(state).iter().peekable();
    while let Some(first) = transitions.next() {
        // Gather the admitted run of transitions sharing `first.label`.
        run.clear();
        for t in std::iter::once(first).chain(std::iter::from_fn(|| {
            transitions.next_if(|next| next.label == first.label)
        })) {
            if !filter.admits(t.cost) {
                continue;
            }
            if bounds.is_some_and(|b| b.is_dead(t.to)) {
                stats.pruned_dead += 1;
                continue;
            }
            run.push((t.cost, t.to));
        }
        if run.is_empty() {
            continue;
        }
        let reached = neighbours_by_edge(
            graph,
            ontology,
            inference,
            node,
            &first.label,
            &mut *neighbours,
            stats,
        );
        for &(cost, to) in run.iter() {
            for &m in reached {
                out.push(SuccTransition {
                    cost,
                    state: to,
                    node: m,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_automata::build_nfa;
    use omega_regex::parse;

    fn setup() -> (GraphStore, Ontology) {
        let mut g = GraphStore::new();
        g.add_triple("a", "knows", "b");
        g.add_triple("a", "likes", "c");
        g.add_triple("c", "knows", "a");
        g.add_triple("a", "type", "Student");
        let mut o = Ontology::new();
        let related = g.intern_label("related");
        let knows = g.label_id("knows").unwrap();
        o.add_subproperty(knows, related).unwrap();
        let student = g.node_by_label("Student").unwrap();
        let person = g.add_node("Person");
        o.add_subclass(student, person).unwrap();
        (g, o)
    }

    fn lookup(
        graph: &GraphStore,
        ontology: &Ontology,
        inference: bool,
        node: NodeId,
        label: &TransitionLabel,
        stats: &mut EvalStats,
    ) -> Vec<NodeId> {
        let mut buf = Vec::new();
        neighbours_by_edge(graph, ontology, inference, node, label, &mut buf, stats).to_vec()
    }

    fn run_succ(
        graph: &GraphStore,
        ontology: &Ontology,
        nfa: &WeightedNfa,
        state: StateId,
        node: NodeId,
        stats: &mut EvalStats,
    ) -> Vec<SuccTransition> {
        let mut out = Vec::new();
        let mut scratch = SuccScratch::new();
        succ(
            graph,
            ontology,
            false,
            nfa,
            state,
            node,
            CostFilter::All,
            None,
            &mut out,
            &mut scratch,
            stats,
        );
        out
    }

    #[test]
    fn symbol_labels_respect_direction() {
        let (g, o) = setup();
        let mut stats = EvalStats::default();
        let a = g.node_by_label("a").unwrap();
        let knows = g.label_id("knows").unwrap();
        let fwd = lookup(
            &g,
            &o,
            false,
            a,
            &TransitionLabel::symbol(Some(knows), false, "knows"),
            &mut stats,
        );
        assert_eq!(fwd, vec![g.node_by_label("b").unwrap()]);
        let back = lookup(
            &g,
            &o,
            false,
            a,
            &TransitionLabel::symbol(Some(knows), true, "knows"),
            &mut stats,
        );
        assert_eq!(back, vec![g.node_by_label("c").unwrap()]);
        assert_eq!(stats.neighbour_lookups, 2);
    }

    #[test]
    fn symbol_lookup_bypasses_the_scratch_buffer() {
        // The returned slice for a plain symbol must alias the graph's own
        // adjacency storage, not the scratch buffer.
        let (g, o) = setup();
        let mut stats = EvalStats::default();
        let a = g.node_by_label("a").unwrap();
        let knows = g.label_id("knows").unwrap();
        let mut buf = vec![NodeId(999)]; // sentinel: must not be touched
        let fwd = neighbours_by_edge(
            &g,
            &o,
            false,
            a,
            &TransitionLabel::symbol(Some(knows), false, "knows"),
            &mut buf,
            &mut stats,
        );
        assert_eq!(fwd, g.neighbors(a, knows, Direction::Outgoing));
        assert_eq!(buf, vec![NodeId(999)], "scratch must be untouched");
    }

    #[test]
    fn unresolved_symbols_match_nothing() {
        let (g, o) = setup();
        let mut stats = EvalStats::default();
        let a = g.node_by_label("a").unwrap();
        let out = lookup(
            &g,
            &o,
            false,
            a,
            &TransitionLabel::symbol(None, false, "ghost"),
            &mut stats,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn wildcard_any_covers_both_directions() {
        let (g, o) = setup();
        let mut stats = EvalStats::default();
        let a = g.node_by_label("a").unwrap();
        let all = lookup(&g, &o, false, a, &TransitionLabel::Any, &mut stats);
        // b (knows), c (likes out, knows in), Student (type)
        assert_eq!(all.len(), 3);
        let fwd = lookup(&g, &o, false, a, &TransitionLabel::AnyForward, &mut stats);
        assert_eq!(fwd.len(), 3); // b, c, Student — all outgoing
        let c = g.node_by_label("c").unwrap();
        let c_fwd = lookup(&g, &o, false, c, &TransitionLabel::AnyForward, &mut stats);
        assert_eq!(c_fwd, vec![a]);
    }

    #[test]
    fn inference_expands_subproperties() {
        let (g, o) = setup();
        let mut stats = EvalStats::default();
        let a = g.node_by_label("a").unwrap();
        let related = g.label_id("related").unwrap();
        let strict = lookup(
            &g,
            &o,
            false,
            a,
            &TransitionLabel::symbol(Some(related), false, "related"),
            &mut stats,
        );
        assert!(strict.is_empty(), "no edge is labelled `related` directly");
        let inferred = lookup(
            &g,
            &o,
            true,
            a,
            &TransitionLabel::symbol(Some(related), false, "related"),
            &mut stats,
        );
        assert_eq!(inferred, vec![g.node_by_label("b").unwrap()]);
    }

    #[test]
    fn frozen_ontology_inference_matches_unfrozen() {
        // The interned-closure fast paths must return exactly what the
        // allocating BFS paths return, for every inference label shape.
        let (g, o) = setup();
        let mut frozen = o.clone();
        frozen.freeze();
        let related = g.label_id("related").unwrap();
        let knows = g.label_id("knows").unwrap();
        let type_l = g.type_label();
        let person = g.node_by_label("Person").unwrap();
        let student = g.node_by_label("Student").unwrap();
        let labels = [
            TransitionLabel::symbol(Some(related), false, "related"),
            TransitionLabel::symbol(Some(related), true, "related"),
            TransitionLabel::symbol(Some(knows), false, "knows"),
            TransitionLabel::symbol(Some(type_l), false, "type"),
            TransitionLabel::symbol(Some(type_l), true, "type"),
            TransitionLabel::TypeTo {
                class: person,
                name: "Person".into(),
            },
            TransitionLabel::TypeTo {
                class: student,
                name: "Student".into(),
            },
        ];
        let mut stats = EvalStats::default();
        for node in g.node_ids() {
            for label in &labels {
                assert_eq!(
                    lookup(&g, &o, true, node, label, &mut stats),
                    lookup(&g, &frozen, true, node, label, &mut stats),
                    "divergence at node {node} label {label:?}"
                );
            }
        }
    }

    #[test]
    fn type_to_lands_on_the_named_class() {
        let (g, o) = setup();
        let mut stats = EvalStats::default();
        let a = g.node_by_label("a").unwrap();
        let student = g.node_by_label("Student").unwrap();
        let person = g.node_by_label("Person").unwrap();
        let strict = lookup(
            &g,
            &o,
            false,
            a,
            &TransitionLabel::TypeTo {
                class: person,
                name: "Person".into(),
            },
            &mut stats,
        );
        assert!(strict.is_empty(), "a is typed Student, not Person");
        let inferred = lookup(
            &g,
            &o,
            true,
            a,
            &TransitionLabel::TypeTo {
                class: person,
                name: "Person".into(),
            },
            &mut stats,
        );
        assert_eq!(inferred, vec![person], "lands on Person, not Student");
        let direct = lookup(
            &g,
            &o,
            false,
            a,
            &TransitionLabel::TypeTo {
                class: student,
                name: "Student".into(),
            },
            &mut stats,
        );
        assert_eq!(direct, vec![student]);
    }

    #[test]
    fn succ_follows_automaton_transitions() {
        let (g, o) = setup();
        let mut stats = EvalStats::default();
        let nfa = omega_automata::remove_epsilons(&build_nfa(&parse("knows|likes").unwrap(), &g));
        let a = g.node_by_label("a").unwrap();
        let out = run_succ(&g, &o, &nfa, nfa.initial(), a, &mut stats);
        let nodes: std::collections::HashSet<_> = out.iter().map(|t| t.node).collect();
        assert!(nodes.contains(&g.node_by_label("b").unwrap()));
        assert!(nodes.contains(&g.node_by_label("c").unwrap()));
        assert_eq!(stats.succ_calls, 1);
        assert!(out.iter().all(|t| t.cost == 0));
    }

    #[test]
    fn succ_reuses_lookups_for_identical_labels() {
        let (g, o) = setup();
        let mut stats = EvalStats::default();
        // knows.x | knows.y produces two `knows` transitions from the initial
        // state (to different states); one lookup must serve both.
        let nfa = omega_automata::remove_epsilons(&build_nfa(
            &parse("(knows.likes)|(knows.type)").unwrap(),
            &g,
        ));
        let a = g.node_by_label("a").unwrap();
        let initial_knows_transitions = nfa
            .transitions_from(nfa.initial())
            .iter()
            .filter(|t| t.label.to_string() == "knows")
            .count();
        assert!(initial_knows_transitions >= 2);
        let _ = run_succ(&g, &o, &nfa, nfa.initial(), a, &mut stats);
        assert_eq!(
            stats.neighbour_lookups, 1,
            "consecutive identical labels must share a neighbour lookup"
        );
    }

    #[test]
    fn succ_output_buffer_is_cleared_between_calls() {
        let (g, o) = setup();
        let mut stats = EvalStats::default();
        let nfa = omega_automata::remove_epsilons(&build_nfa(&parse("knows").unwrap(), &g));
        let a = g.node_by_label("a").unwrap();
        let mut out = Vec::new();
        let mut scratch = SuccScratch::new();
        succ(
            &g,
            &o,
            false,
            &nfa,
            nfa.initial(),
            a,
            CostFilter::All,
            None,
            &mut out,
            &mut scratch,
            &mut stats,
        );
        let first = out.clone();
        succ(
            &g,
            &o,
            false,
            &nfa,
            nfa.initial(),
            a,
            CostFilter::All,
            None,
            &mut out,
            &mut scratch,
            &mut stats,
        );
        assert_eq!(out, first, "stale entries must not accumulate");
    }

    #[test]
    fn cost_filter_splits_expansions_without_losing_any() {
        use omega_automata::{approximate, ApproxConfig};
        let (g, o) = setup();
        let nfa = omega_automata::remove_epsilons(&approximate(
            &build_nfa(&parse("knows").unwrap(), &g),
            &ApproxConfig::default(),
        ));
        let a = g.node_by_label("a").unwrap();
        let mut scratch = SuccScratch::new();
        let mut run = |filter: CostFilter, stats: &mut EvalStats| {
            let mut out = Vec::new();
            succ(
                &g,
                &o,
                false,
                &nfa,
                nfa.initial(),
                a,
                filter,
                None,
                &mut out,
                &mut scratch,
                stats,
            );
            out
        };
        let mut stats = EvalStats::default();
        let mut all = run(CostFilter::All, &mut stats);
        let all_lookups = stats.neighbour_lookups;
        let mut stats = EvalStats::default();
        let zero = run(CostFilter::ZeroOnly, &mut stats);
        assert!(
            stats.neighbour_lookups < all_lookups,
            "a zero-only expansion must skip the wildcard lookups entirely"
        );
        let mut stats = EvalStats::default();
        let positive = run(CostFilter::PositiveOnly, &mut stats);
        assert!(zero.iter().all(|t| t.cost == 0));
        assert!(positive.iter().all(|t| t.cost > 0));
        let mut split: Vec<_> = zero.into_iter().chain(positive).collect();
        let key = |t: &SuccTransition| (t.cost, t.state, t.node);
        split.sort_by_key(key);
        all.sort_by_key(key);
        assert_eq!(split, all, "the two phases must partition the expansion");
    }

    #[test]
    fn dead_states_are_pruned_before_the_lookup() {
        use omega_automata::MinCostToAccept;
        let (g, o) = setup();
        let nfa = omega_automata::remove_epsilons(&build_nfa(&parse("knows.ghost").unwrap(), &g));
        let a = g.node_by_label("a").unwrap();
        // `ghost` resolves to no graph label, so the post-`knows` state is
        // dead under a graph-aware liveness predicate.
        let bounds = MinCostToAccept::compute_with(&nfa, |l| {
            !matches!(l, TransitionLabel::Symbol { label: None, .. })
        });
        let mut out = Vec::new();
        let mut scratch = SuccScratch::new();
        let mut stats = EvalStats::default();
        succ(
            &g,
            &o,
            false,
            &nfa,
            nfa.initial(),
            a,
            CostFilter::All,
            Some(&bounds),
            &mut out,
            &mut scratch,
            &mut stats,
        );
        assert!(out.is_empty(), "the only successor lands in a dead state");
        assert!(stats.pruned_dead > 0);
        assert_eq!(
            stats.neighbour_lookups, 0,
            "the adjacency must never be touched for a fully dead run"
        );
    }
}
