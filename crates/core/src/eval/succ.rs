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
//! Which transitions share a lookup does not depend on `n`: the plan's
//! [`ExpansionTable`] groups them once, and [`succ`] walks its groups.
//!
//! This is the hottest code in the engine, so it is written to avoid heap
//! allocation entirely on the common path: [`neighbours_by_edge`] returns a
//! borrowed `&[NodeId]` — for plain symbol transitions that is the graph's
//! own (CSR) adjacency slice, and for ε / unresolved symbols a shared empty
//! slice; only wildcard / inference / `TypeTo` labels compute into a
//! caller-provided buffer that is reused across calls. [`succ`] likewise
//! appends into reusable output vectors instead of returning fresh ones.
//!
//! A run that reaches more than [`BLOCK`] neighbours — a class hub's
//! instances behind a `type-` or a wildcard — is not spelled out per
//! neighbour: its slice is copied once into the caller's arena and reported
//! as one [`WideRun`] per transition, which the evaluator turns into a
//! cursor that releases the neighbours a block at a time.

use omega_automata::{MinCostToAccept, StateId, Transition, TransitionLabel, WeightedNfa};
use omega_graph::{Direction, GraphStore, NodeId};
use omega_ontology::Ontology;

use crate::eval::stats::EvalStats;

/// Which transition costs an expansion materialises.
///
/// The evaluator splits each tuple's expansion in two: the 0-cost skeleton
/// successors are produced when the tuple pops, and the positive-cost
/// successors (wildcard edits, relaxations) only when a deferred
/// placeholder re-pops at the key where they can first matter — so a label
/// whose transitions are all filtered out never even pays its neighbour
/// lookup. Both filters also drop the transitions into the states the
/// plan's [`ExpansionTable`] marks dead (`pruned_dead`); a plan compiled
/// without cost guidance marks none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostFilter {
    /// Only cost-0 transitions (the fresh pop of a tuple).
    ZeroOnly,
    /// Only positive-cost transitions (the deferred re-expansion).
    PositiveOnly,
}

/// One group of a state's transitions sharing a label:
/// `transitions_from(state)[first..end]`, cost-0 ones before `zero_end` (the
/// automaton sorts each state's transitions by label, then cost).
#[derive(Debug, Clone, Copy)]
struct Group {
    first: u32,
    zero_end: u32,
    end: u32,
    /// How many of its cost-0 and of its positive-cost transitions lead
    /// into dead states.
    dead: [u32; 2],
}

/// Every state's transitions grouped by label, with their dead targets
/// marked: what [`succ`] walks, compiled once per plan.
#[derive(Debug, Clone, Default)]
pub struct ExpansionTable {
    /// The groups of `state` are `groups[index[state] .. index[state + 1]]`.
    index: Vec<u32>,
    groups: Vec<Group>,
    /// Whether each state can never reach acceptance against this graph.
    dead: Vec<bool>,
}

impl ExpansionTable {
    /// Groups `nfa`'s transitions by label and marks the states `bounds`
    /// calls dead.
    pub fn compile(nfa: &WeightedNfa, bounds: &MinCostToAccept) -> ExpansionTable {
        let mut table = ExpansionTable {
            index: Vec::with_capacity(nfa.state_count() + 1),
            groups: Vec::with_capacity(nfa.transition_count()),
            dead: nfa.states().map(|s| bounds.is_dead(s)).collect(),
        };
        let dead = |ts: &[Transition]| ts.iter().filter(|t| bounds.is_dead(t.to)).count() as u32;
        table.index.push(0);
        for state in nfa.states() {
            let transitions = nfa.transitions_from(state);
            let mut first = 0;
            for run in transitions.chunk_by(|a, b| a.label == b.label) {
                debug_assert!(run.is_sorted_by_key(|t| t.cost));
                let zero = run.partition_point(|t| t.cost == 0);
                table.groups.push(Group {
                    first,
                    zero_end: first + zero as u32,
                    end: first + run.len() as u32,
                    dead: [dead(&run[..zero]), dead(&run[zero..])],
                });
                first += run.len() as u32;
            }
            table.index.push(table.groups.len() as u32);
        }
        table
    }

    /// The groups out of `state`.
    #[inline]
    fn groups(&self, state: StateId) -> &[Group] {
        let at = state.index();
        &self.groups[self.index[at] as usize..self.index[at + 1] as usize]
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

/// Neighbours per block: a same-label run reaching more than this many
/// neighbours becomes [`WideRun`]s, and a cursor releases this many at a time.
pub const BLOCK: usize = 64;

/// Ends every wide run in [`Successors::arena`], so a cursor needs only its
/// position. Never a node: ids are dense from 0 and stay far below it.
pub const RUN_END: NodeId = NodeId(u32::MAX);

/// One automaton transition whose same-label run reached more than
/// [`BLOCK`] neighbours: every neighbour from `Successors::arena[at]` up to
/// the next [`RUN_END`], in state `state`, at additional cost `cost`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideRun {
    /// Additional distance incurred by the step.
    pub cost: u32,
    /// Target automaton state.
    pub state: StateId,
    /// Arena position of the run's first neighbour.
    pub at: u32,
}

/// What [`succ`] produces, in buffers its caller reuses: after the first
/// few calls they stop growing and every expansion is allocation-free.
#[derive(Debug, Default)]
pub struct Successors {
    /// One entry per transition and neighbour of every run of at most
    /// [`BLOCK`] neighbours; cleared by each call.
    pub steps: Vec<SuccTransition>,
    /// One entry per transition of every wider run; cleared by each call.
    pub wide: Vec<WideRun>,
    /// The wide runs' neighbours, each run copied once and closed by
    /// [`RUN_END`]. [`succ`] only appends to it, because the evaluator's
    /// cursors read it long after the call that filled it; the caller
    /// clears it once nothing does, and keeps its length within `u32`.
    pub arena: Vec<NodeId>,
    /// Computed neighbour sets (wildcards, inference, `TypeTo`).
    neighbours: Vec<NodeId>,
}

impl Successors {
    /// Every transition of the last call, wide runs spelled out.
    pub fn transitions(&self) -> impl Iterator<Item = SuccTransition> + '_ {
        let wide = self.wide.iter().flat_map(|w| {
            self.arena[w.at as usize..]
                .iter()
                .take_while(|&&node| node != RUN_END)
                .map(move |&node| SuccTransition {
                    cost: w.cost,
                    state: w.state,
                    node,
                })
        });
        self.steps.iter().copied().chain(wide)
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
                // is also an instance of every superclass. The class closures
                // are the ontology's slices, so this path performs no
                // allocation beyond the shared buffer. The union is sorted
                // and deduplicated only when it can hold a duplicate, i.e.
                // when more than one class contributes.
                buf.clear();
                if *inverse {
                    // Instances of `node` (a class) and of all its subclasses.
                    let contributors = extend_counting(
                        buf,
                        ontology
                            .subclasses_or_self(&node)
                            .iter()
                            .map(|&class| graph.neighbors_iter(class, *l, Direction::Incoming)),
                    );
                    if contributors > 1 {
                        // A node typed with two of these classes.
                        buf.sort_unstable();
                        buf.dedup();
                    }
                } else {
                    // The node's declared classes plus all their superclasses.
                    buf.extend(graph.neighbors_iter(node, *l, Direction::Outgoing));
                    let declared = buf.len();
                    for i in 0..declared {
                        let class = buf[i];
                        buf.extend(ontology.superclasses(class).iter().map(|&(sup, _)| sup));
                    }
                    if declared > 1 {
                        // Two declared classes can share a superclass, or one
                        // can be the other's.
                        buf.sort_unstable();
                        buf.dedup();
                    }
                }
                buf
            } else if inference {
                // RDFS `sp` inference: `l` also matches edges labelled by
                // any of its sub-properties. The closure is the ontology's
                // slice, no `Vec` per expansion; an unknown property's
                // closure is just the property.
                let labels = ontology.subproperties_or_self(l);
                if let [only] = labels {
                    // No sub-properties: serve the graph's slice directly
                    // (`neighbors_into` only copies when a delta overlay
                    // actually touches this slice).
                    return graph.neighbors_into(node, *only, dir, buf);
                }
                buf.clear();
                let contributors = extend_counting(
                    buf,
                    labels.iter().map(|&l| graph.neighbors_iter(node, l, dir)),
                );
                if contributors > 1 {
                    // Two sub-properties can link the same pair.
                    buf.sort_unstable();
                    buf.dedup();
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

/// Appends every part to `buf`; how many parts were non-empty.
fn extend_counting<I: Iterator<Item = NodeId>>(
    buf: &mut Vec<NodeId>,
    parts: impl Iterator<Item = I>,
) -> usize {
    let mut contributors = 0;
    for part in parts {
        let before = buf.len();
        buf.extend(part);
        contributors += usize::from(buf.len() > before);
    }
    contributors
}

/// The paper's `Succ(s, n)` for every `n` of `nodes` at once: the
/// product-automaton transitions leaving each `(s, n)` that `filter`
/// admits, into `out` (`steps` and `wide` cleared first; `arena` only
/// appended to). A popped tuple passes its one node; a cursor block, the
/// members it visits.
///
/// The transitions `filter` admits from each of `table`'s groups for `s`
/// share one `neighbours_by_edge` call per node, and `out`'s buffers are
/// reused so the steady state performs no allocation. A group whose lookup reaches more
/// than [`BLOCK`] neighbours copies them once into `out.arena` and yields
/// one [`WideRun`] per transition instead of one step per transition and
/// neighbour. A group whose admitted transitions all lead into dead states
/// skips its neighbour lookups altogether.
#[allow(clippy::too_many_arguments)]
pub fn succ(
    graph: &GraphStore,
    ontology: &Ontology,
    inference: bool,
    nfa: &WeightedNfa,
    table: &ExpansionTable,
    state: StateId,
    nodes: &[NodeId],
    filter: CostFilter,
    out: &mut Successors,
    stats: &mut EvalStats,
) {
    stats.succ_calls += nodes.len() as u64;
    let Successors {
        steps,
        wide,
        arena,
        neighbours,
    } = out;
    steps.clear();
    wide.clear();
    let transitions = nfa.transitions_from(state);
    for group in table.groups(state) {
        let (from, to, dead) = match filter {
            CostFilter::ZeroOnly => (group.first, group.zero_end, group.dead[0]),
            CostFilter::PositiveOnly => (group.zero_end, group.end, group.dead[1]),
        };
        stats.pruned_dead += u64::from(dead) * nodes.len() as u64;
        let run = &transitions[from as usize..to as usize];
        if run.len() == dead as usize {
            continue; // nothing admitted, or only transitions into dead states
        }
        let live = |t: &&Transition| dead == 0 || !table.dead[t.to.index()];
        for &node in nodes {
            let reached = neighbours_by_edge(
                graph,
                ontology,
                inference,
                node,
                &run[0].label,
                neighbours,
                stats,
            );
            if reached.len() > BLOCK {
                debug_assert!(!reached.contains(&RUN_END));
                let at = arena.len() as u32;
                arena.extend_from_slice(reached);
                arena.push(RUN_END);
                wide.extend(run.iter().filter(live).map(|t| WideRun {
                    cost: t.cost,
                    state: t.to,
                    at,
                }));
                continue;
            }
            for t in run.iter().filter(live) {
                for &m in reached {
                    steps.push(SuccTransition {
                        cost: t.cost,
                        state: t.to,
                        node: m,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_automata::build_nfa;
    use omega_graph::LabelId;
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

    /// `nfa`'s table, with the bounds of a graph that fires every label.
    fn table(nfa: &WeightedNfa) -> ExpansionTable {
        ExpansionTable::compile(nfa, &MinCostToAccept::compute(nfa))
    }

    fn run_succ(
        graph: &GraphStore,
        ontology: &Ontology,
        nfa: &WeightedNfa,
        state: StateId,
        node: NodeId,
        stats: &mut EvalStats,
    ) -> Vec<SuccTransition> {
        let mut out = Successors::default();
        succ(
            graph,
            ontology,
            false,
            nfa,
            &table(nfa),
            state,
            &[node],
            CostFilter::ZeroOnly,
            &mut out,
            stats,
        );
        out.transitions().collect()
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
        assert!(fwd
            .iter()
            .copied()
            .eq(g.neighbors_iter(a, knows, Direction::Outgoing)));
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
    fn inferred_unions_hold_each_node_once() {
        // Student and Employee are both Persons, and ann is both: the
        // inferred `type-` of Person meets her twice, her inferred `type`
        // meets Person twice, and `likes` and `knows` (both sub-properties
        // of `related`) both link ann to bob.
        let mut g = GraphStore::new();
        for (s, p, o) in [
            ("ann", "type", "Student"),
            ("ann", "type", "Employee"),
            ("bob", "type", "Student"),
            ("cat", "type", "Employee"),
            ("dan", "type", "Person"),
            ("ann", "knows", "bob"),
            ("ann", "likes", "bob"),
            ("ann", "likes", "cat"),
        ] {
            g.add_triple(s, p, o);
        }
        let related = g.intern_label("related");
        let node = |name: &str| g.node_by_label(name).unwrap();
        let mut o = Ontology::new();
        o.add_subclass(node("Student"), node("Person")).unwrap();
        o.add_subclass(node("Employee"), node("Person")).unwrap();
        for sub in ["knows", "likes"] {
            o.add_subproperty(g.label_id(sub).unwrap(), related)
                .unwrap();
        }
        let type_l = g.type_label();
        // The naive union: each contributing class's or property's
        // neighbours, collected into a set.
        let naive = |parts: &[(NodeId, LabelId, Direction)]| {
            let mut set: Vec<NodeId> = parts
                .iter()
                .flat_map(|&(n, l, dir)| g.neighbors_iter(n, l, dir))
                .collect();
            set.sort_unstable();
            set.dedup();
            set
        };
        let incoming_type = |class: &str| (node(class), type_l, Direction::Incoming);
        let cases = [
            (
                node("Person"),
                TransitionLabel::symbol(Some(type_l), true, "type"),
                naive(&[
                    incoming_type("Person"),
                    incoming_type("Student"),
                    incoming_type("Employee"),
                ]),
            ),
            (
                node("ann"),
                TransitionLabel::symbol(Some(type_l), false, "type"),
                vec![node("Student"), node("Employee"), node("Person")],
            ),
            (
                node("ann"),
                TransitionLabel::symbol(Some(related), false, "related"),
                vec![node("bob"), node("cat")],
            ),
        ];
        let mut stats = EvalStats::default();
        for (from, label, expected) in &cases {
            let got = lookup(&g, &o, true, *from, label, &mut stats);
            let mut set = got.clone();
            set.sort_unstable();
            set.dedup();
            assert_eq!(set.len(), got.len(), "{label:?} repeats a node: {got:?}");
            let mut expected = expected.clone();
            expected.sort_unstable();
            assert_eq!(set, expected, "{label:?} from {from}");
        }
    }

    #[test]
    fn wide_runs_share_one_arena_copy() {
        let mut g = GraphStore::new();
        let count = 3 * BLOCK;
        for i in 0..count {
            g.add_triple("hub", "p", &format!("n{i}"));
        }
        let o = Ontology::new();
        // Two `p` transitions leave the initial state: one run, one lookup.
        let nfa = build_nfa(&parse("p|(p.p)").unwrap(), &g);
        let hub = g.node_by_label("hub").unwrap();
        let mut out = Successors::default();
        let mut stats = EvalStats::default();
        succ(
            &g,
            &o,
            false,
            &nfa,
            &table(&nfa),
            nfa.initial(),
            &[hub],
            CostFilter::ZeroOnly,
            &mut out,
            &mut stats,
        );
        assert!(out.steps.is_empty());
        assert_eq!(out.wide.len(), 2, "one wide run per transition");
        assert!(out.wide.iter().all(|w| w.at == 0), "sharing one copy");
        assert_eq!(out.arena.len(), count + 1, "the run and its end marker");
        assert_eq!(out.arena[count], RUN_END);
        assert_eq!(out.transitions().count(), 2 * count);
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
        let nfa = build_nfa(&parse("knows|likes").unwrap(), &g);
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
        let nfa = build_nfa(&parse("(knows.likes)|(knows.type)").unwrap(), &g);
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
        let nfa = build_nfa(&parse("knows").unwrap(), &g);
        let a = g.node_by_label("a").unwrap();
        let table = table(&nfa);
        let mut out = Successors::default();
        succ(
            &g,
            &o,
            false,
            &nfa,
            &table,
            nfa.initial(),
            &[a],
            CostFilter::ZeroOnly,
            &mut out,
            &mut stats,
        );
        let first = out.steps.clone();
        succ(
            &g,
            &o,
            false,
            &nfa,
            &table,
            nfa.initial(),
            &[a],
            CostFilter::ZeroOnly,
            &mut out,
            &mut stats,
        );
        assert_eq!(out.steps, first, "stale entries must not accumulate");
    }

    #[test]
    fn cost_filter_splits_expansions_without_losing_any() {
        use omega_automata::{approximate, ApproxConfig};
        let (g, o) = setup();
        let nfa = approximate(
            &build_nfa(&parse("knows").unwrap(), &g),
            &ApproxConfig::default(),
        );
        let a = g.node_by_label("a").unwrap();
        let table = table(&nfa);
        let run = |filter: CostFilter, stats: &mut EvalStats| {
            let mut out = Successors::default();
            succ(
                &g,
                &o,
                false,
                &nfa,
                &table,
                nfa.initial(),
                &[a],
                filter,
                &mut out,
                stats,
            );
            out.transitions().collect::<Vec<_>>()
        };
        // Every transition out of the initial state, one lookup each.
        let transitions = nfa.transitions_from(nfa.initial());
        let mut all: Vec<_> = transitions
            .iter()
            .flat_map(|t| {
                let reached = lookup(&g, &o, false, a, &t.label, &mut EvalStats::default());
                reached.into_iter().map(|node| SuccTransition {
                    cost: t.cost,
                    state: t.to,
                    node,
                })
            })
            .collect();
        let labels = transitions.chunk_by(|x, y| x.label == y.label).count();
        let mut stats = EvalStats::default();
        let zero = run(CostFilter::ZeroOnly, &mut stats);
        assert!(
            (stats.neighbour_lookups as usize) < labels,
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
        let (g, o) = setup();
        let nfa = build_nfa(&parse("knows.ghost").unwrap(), &g);
        let a = g.node_by_label("a").unwrap();
        // `ghost` resolves to no graph label, so the post-`knows` state is
        // dead under a graph-aware liveness predicate.
        let bounds = MinCostToAccept::compute_with(&nfa, |l| {
            !matches!(l, TransitionLabel::Symbol { label: None, .. })
        });
        let table = ExpansionTable::compile(&nfa, &bounds);
        let mut out = Successors::default();
        let mut stats = EvalStats::default();
        succ(
            &g,
            &o,
            false,
            &nfa,
            &table,
            nfa.initial(),
            &[a],
            CostFilter::ZeroOnly,
            &mut out,
            &mut stats,
        );
        assert!(
            out.transitions().next().is_none(),
            "the only successor lands in a dead state"
        );
        assert!(stats.pruned_dead > 0);
        assert_eq!(
            stats.neighbour_lookups, 0,
            "the adjacency must never be touched for a fully dead run"
        );
        // A table compiled without cost guidance marks nothing dead, and
        // the same filter follows it.
        let table = ExpansionTable::compile(&nfa, &MinCostToAccept::zero(&nfa));
        let mut stats = EvalStats::default();
        succ(
            &g,
            &o,
            false,
            &nfa,
            &table,
            nfa.initial(),
            &[a],
            CostFilter::ZeroOnly,
            &mut out,
            &mut stats,
        );
        assert_eq!(out.transitions().count(), 1);
        assert_eq!(stats.pruned_dead, 0);
    }
}
