//! The evaluator's key, checked against the product it orders.
//!
//! Under cost guidance a tuple `(n, q)` at distance `g` is keyed at `g +
//! ConjunctPlan::bound(q, class(n))`: `h(q)`, one more when `n`'s summary
//! class is not tight for `q`, or no key at all (dead) when it is not live.
//! For a plan compiled against a random graph, this file computes the exact
//! cheapest cost from every `(n, q)` of the weighted product to acceptance
//! — a reverse Dijkstra over every product edge, spelled out one neighbour
//! lookup at a time — and checks that the bound is admissible (never above
//! that cost, and dead only where acceptance is unreachable), consistent
//! along every product edge (`bound(q, n) ≤ c + bound(q', n')`, and never
//! above a final weight), and that every state's tight classes are live.
//! The graphs are random, with classes, a small ontology and enough
//! signatures to give the summary several classes; each is checked frozen,
//! with a delta overlay that adds edges at old and new nodes, and
//! compacted. The automata are exact, APPROX at three cost settings and
//! RELAX with and without rule (ii), each also compiled without cost
//! guidance: that plan's trivial bound (`h ≡ 0`, every class tight) must
//! pass the same checks and key every live `(n, q)` at `g` exactly.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use omega_automata::{ApproxConfig, RelaxConfig, StateId};
use omega_core::eval::succ::neighbours_by_edge;
use omega_core::eval::{compile_conjunct, ConjunctPlan, EvalOptions, EvalStats};
use omega_core::query::parser::parse_query;
use omega_graph::{GraphDelta, GraphStore, NodeId};
use omega_ontology::Ontology;

/// xorshift64*: the same cases on every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }
}

const NODES: usize = 40;
const LABELS: [&str; 3] = ["p", "q", "r"];

/// A random graph over `NODES` nodes and three labels, with `type` edges
/// into four classes, and an ontology over them: `C0 ⊑ C1`, `C2 ⊑ C1`,
/// `p ⊑ r`, `dom(q) = C3`, `range(p) = C0`.
fn world(rng: &mut Rng) -> (GraphStore, Ontology) {
    let mut g = GraphStore::new();
    for i in 0..NODES {
        g.add_node(&format!("n{i}"));
    }
    for c in 0..4 {
        g.add_node(&format!("C{c}"));
    }
    for label in LABELS {
        g.intern_label(label);
    }
    for _ in 0..70 {
        let (s, l, t) = (rng.below(NODES), LABELS[rng.below(3)], rng.below(NODES));
        g.add_triple(&format!("n{s}"), l, &format!("n{t}"));
    }
    for _ in 0..20 {
        let (s, c) = (rng.below(NODES), rng.below(4));
        g.add_triple(&format!("n{s}"), "type", &format!("C{c}"));
    }
    g.freeze();
    let mut o = Ontology::new();
    let class = |c: &str| g.node_by_label(c).unwrap();
    let label = |l: &str| g.label_id(l).unwrap();
    o.add_subclass(class("C0"), class("C1")).unwrap();
    o.add_subclass(class("C2"), class("C1")).unwrap();
    o.add_subproperty(label("p"), label("r")).unwrap();
    o.set_domain(label("q"), class("C3"));
    o.set_range(label("p"), class("C0"));
    (g, o)
}

/// `g` with a batch that adds edges between old nodes and to and from new
/// ones, and deletes a few.
fn overlaid(g: &GraphStore, rng: &mut Rng) -> GraphStore {
    let mut delta = GraphDelta::new();
    for i in 0..12 {
        let node = |rng: &mut Rng| match rng.below(3) {
            0 => format!("new{}", i % 4),
            _ => format!("n{}", rng.below(NODES)),
        };
        let (s, l, t) = (node(rng), LABELS[rng.below(3)], node(rng));
        delta.add(&s, l, &t);
    }
    for e in g.edges().take(5) {
        delta.remove(
            g.node_label(e.source),
            g.label_name(e.label),
            g.node_label(e.target),
        );
    }
    g.with_delta(&delta).unwrap().0
}

/// A node `(n, q)` of the product.
type Pair = (NodeId, StateId);

/// A product edge: from `(n, q)` at a cost to `(m, p)`.
type ProductEdge = (Pair, u32, Pair);

/// The exact cheapest cost from every product node `(n, q)` to acceptance
/// (absent when there is none), and every product edge.
fn product(
    plan: &ConjunctPlan,
    g: &GraphStore,
    o: &Ontology,
) -> (HashMap<Pair, u32>, Vec<ProductEdge>) {
    let mut edges = Vec::new();
    let (mut buf, mut stats) = (Vec::new(), EvalStats::default());
    for n in g.node_ids() {
        for q in plan.nfa.states() {
            for t in plan.nfa.transitions_from(q) {
                let reached =
                    neighbours_by_edge(g, o, plan.inference, n, &t.label, &mut buf, &mut stats);
                edges.extend(reached.iter().map(|&m| ((n, q), t.cost, (m, t.to))));
            }
        }
    }
    let mut incoming: HashMap<Pair, Vec<(u32, Pair)>> = HashMap::new();
    for &(from, cost, to) in &edges {
        incoming.entry(to).or_default().push((cost, from));
    }
    let mut cost: HashMap<Pair, u32> = HashMap::new();
    let mut heap = BinaryHeap::new();
    for n in g.node_ids() {
        for (q, weight) in plan.nfa.finals() {
            heap.push(Reverse((weight, n, q)));
        }
    }
    while let Some(Reverse((d, n, q))) = heap.pop() {
        if cost.contains_key(&(n, q)) {
            continue;
        }
        cost.insert((n, q), d);
        for &(c, (m, p)) in incoming.get(&(n, q)).into_iter().flatten() {
            if !cost.contains_key(&(m, p)) {
                heap.push(Reverse((d + c, m, p)));
            }
        }
    }
    (cost, edges)
}

/// Checks the three properties; how many product nodes of a live state
/// the summary keyed one above `h`, and how many it called dead.
fn check(plan: &ConjunctPlan, g: &GraphStore, o: &Ontology, what: &str) -> [usize; 2] {
    let summary = g.summary();
    let mut seen = [0; 2];
    let bound = |n: NodeId, q: StateId| plan.bound(q, 1 << summary.class_of(n));
    for q in plan.nfa.states() {
        let (tight, live) = (plan.signature.tight(q), plan.signature.live(q));
        assert_eq!(tight & !live, 0, "{what}: tight ⊄ live at {q:?}");
    }
    let (cost, edges) = product(plan, g, o);
    for n in g.node_ids() {
        for q in plan.nfa.states() {
            if !plan.bounds.is_dead(q) {
                match bound(n, q) {
                    Some(b) => seen[0] += usize::from(b > plan.bounds.get(q)),
                    None => seen[1] += 1,
                }
            }
            match (bound(n, q), cost.get(&(n, q))) {
                (Some(b), Some(&c)) => {
                    assert!(b <= c, "{what}: bound {b} > cost {c} at {n:?} {q:?}")
                }
                (None, Some(&c)) => panic!("{what}: dead at {n:?} {q:?}, which accepts at {c}"),
                _ => {}
            }
            if let (Some(weight), Some(b)) = (plan.nfa.final_weight(q), bound(n, q)) {
                assert!(b <= weight, "{what}: bound {b} above final weight {weight}");
            }
        }
    }
    for ((n, q), c, (m, p)) in edges {
        if let Some(next) = bound(m, p) {
            let here = bound(n, q).unwrap_or_else(|| {
                panic!("{what}: dead at {n:?} {q:?}, with a live successor {m:?} {p:?}")
            });
            assert!(
                here <= c + next,
                "{what}: {here} at {n:?} {q:?} > {c} + {next} at {m:?} {p:?}"
            );
        }
    }
    seen
}

const SHAPES: [&str; 8] = [
    "p.q", "p*.q", "(p|q)+.r", "p-.q.r", "q.type", "p._", "(p.q)+", "r.q-.p",
];

#[test]
fn the_key_is_admissible_and_consistent_on_every_product_edge() {
    let mut rng = Rng(0x5eed_b0d5);
    let approx = [
        ApproxConfig::default(),
        ApproxConfig::uniform(2),
        ApproxConfig {
            insertion: 1,
            deletion: 2,
            substitution: 3,
            inversion: Some(1),
        },
    ];
    let relax = [
        RelaxConfig::default(),
        RelaxConfig {
            beta: 2,
            gamma: Some(1),
        },
    ];
    let mut seen = [0; 2];
    for round in 0..6 {
        let (base, o) = world(&mut rng);
        let epoch = overlaid(&base, &mut rng);
        let compact = epoch.compacted();
        for (stage, g) in [
            ("frozen", &base),
            ("overlaid", &epoch),
            ("compacted", &compact),
        ] {
            for shape in SHAPES {
                let mut cases: Vec<(String, EvalOptions)> = vec![(
                    format!("(?X, ?Y) <- (?X, {shape}, ?Y)"),
                    EvalOptions::default(),
                )];
                for config in &approx {
                    let options = EvalOptions {
                        approx: *config,
                        ..EvalOptions::default()
                    };
                    cases.push((format!("(?X, ?Y) <- APPROX (?X, {shape}, ?Y)"), options));
                }
                for config in &relax {
                    let options = EvalOptions {
                        relax: *config,
                        ..EvalOptions::default()
                    };
                    cases.push((
                        format!("(?X, ?Y) <- RELAX (?X, {shape}, ?Y)"),
                        options.clone(),
                    ));
                    cases.push((format!("(?X) <- RELAX (C0, type-.{shape}, ?X)"), options));
                }
                for (text, options) in cases {
                    let query = parse_query(&text).unwrap();
                    let plan = compile_conjunct(&query.conjuncts[0], g, &o, &options).unwrap();
                    let what = format!("round {round}, {stage}, {text}");
                    let [raised, dead] = check(&plan, g, &o, &what);
                    seen = [seen[0] + raised, seen[1] + dead];
                    let unguided = EvalOptions {
                        cost_guided: false,
                        ..options
                    };
                    let plan = compile_conjunct(&query.conjuncts[0], g, &o, &unguided).unwrap();
                    let what = format!("{what}, unguided");
                    assert_eq!(check(&plan, g, &o, &what), [0, 0], "{what}");
                    assert!(plan.nfa.states().all(|q| plan.bound(q, 1) == Some(0)));
                }
            }
        }
    }
    // The summary must have had something to say: keys above `h`, and
    // nodes of live states it could rule out.
    assert!(
        seen[0] > 0 && seen[1] > 0,
        "raised {}, dead {}",
        seen[0],
        seen[1]
    );
}
