//! An oracle for RELAX distances that owes nothing to the engine.
//!
//! RELAX (Section 2 of the paper) answers a query with the paths a relaxed
//! query word matches, ranked by what the relaxation cost. This file computes
//! those distances the slow way, from the ontology's raw `sc` (subclass),
//! `sp` (sub-property), `dom` and `range` lists, and compares them with what
//! the engine returns, up to distance 2, with cost guidance on and off. It
//! shares no code with `omega_automata`, `omega_ontology` or
//! `omega_core::eval`: hierarchies are walked by its own breadth-first
//! searches, paths are enumerated over its own adjacency lists, and a priced
//! word is checked against the query with `omega_regex::oracle::matches` (a
//! naive matcher over the AST).
//!
//! The semantics it spells out:
//! - *Inference.* A property symbol `p` matches an edge of `p` or of any
//!   sub-property of `p`. `type` leads from a node to each class it has and
//!   to every superclass of those; `type-` leads back.
//! - *Rule (i).* A property symbol may name a super-property `k` steps up
//!   instead, at `k·β`. A class constant also starts from each superclass
//!   `k` steps up, at `k·β`.
//! - *Rule (ii),* when enabled. A property symbol `p` may be a `type` step
//!   to `dom(p)` instead (to `range(p)` when followed backwards), at γ, or to
//!   a superclass of that class `k` steps up, at `γ + k·β`.
//!
//! A path's distance is the least that the symbols of one word of `L(R)`,
//! position by position, cost to price its steps.
//!
//! The graph has a layer wider than one batch of the evaluator's seeds, hung
//! off a hub over a sub-property, so that `(?X, R, ?Y)` queries release
//! inference-union seed sets over several batches.
//!
//! Multi-conjunct queries are checked one level up: random 2–3-conjunct
//! stars and chains, each conjunct exact or RELAX, and an anchored star
//! shaped like the paper's M3, against the nested-loop join of the
//! per-conjunct [`all_pairs`] maps, up to distance 1 — every row at its
//! least total distance, and under several limits `k` the oracle's `k`
//! smallest distances first.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use omega::automata::RelaxConfig;
use omega::regex::oracle::matches;
use omega::regex::{parse, RpqRegex, Symbol};
use omega::{Answer, Database, EvalOptions, ExecOptions, GraphStore, Ontology};

/// The distance ceiling compared.
const MAX_DISTANCE: u32 = 2;

/// Nodes in the wide layer: more than one batch of 100 seeds, and more than
/// two of the evaluator's 64-neighbour blocks.
const WIDE: usize = 2 * 64 + 5;

/// Node layers; edges only run from one layer to the next.
const DEPTH: usize = 4;

/// The properties. `type` is not one of them.
const PROPERTIES: [&str; 4] = ["p", "q", "r", "s"];

/// `sp`, sub-property → super-property: `q` is an inference union of `p`
/// and `s`, and `p` is two steps below `r`.
const SP: [(&str, &str); 3] = [("p", "q"), ("s", "q"), ("q", "r")];

/// `sc`, subclass → superclass: `D` has two parents, and `A` a chain of two
/// above it.
const SC: [(&str, &str); 5] = [
    ("A", "A1"),
    ("A1", "A2"),
    ("B", "B1"),
    ("D", "A"),
    ("D", "B"),
];

/// `dom`, property → class.
const DOM: [(&str, &str); 3] = [("p", "A"), ("q", "A1"), ("s", "B1")];

/// `range`, property → class.
const RANGE: [(&str, &str); 2] = [("p", "B"), ("q", "D")];

/// The classes instances are declared to have.
const TYPED: [&str; 4] = ["A", "B", "D", "A1"];

/// The class constants queried.
const CONSTANTS: [&str; 3] = ["A", "B", "D"];

/// Query shapes, each with the length of its longest word; `None` for a
/// closure, which the layers bound instead: `DEPTH − 1` edges and a
/// rule (ii) step.
const SHAPES: &[(&str, Option<usize>)] = &[
    ("p", Some(1)),
    ("q", Some(1)),
    ("p-", Some(1)),
    ("q-.s", Some(2)),
    ("p.q", Some(2)),
    ("(p|s).r", Some(2)),
    ("type", Some(1)),
    ("type-", Some(1)),
    ("type-.p", Some(2)),
    ("type.type-", Some(2)),
    ("q+", None),
    ("s*", None),
];

/// A tiny deterministic generator (xorshift64*), so the cases are the same
/// on every run and need nothing outside this file.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// The relaxation costs: β per hierarchy step, and γ when rule (ii) is on.
#[derive(Clone, Copy, Debug)]
struct Costs {
    beta: u32,
    gamma: Option<u32>,
}

/// One generated graph: every node's name, and labelled edges, `type`
/// edges included.
struct World {
    nodes: Vec<String>,
    triples: Vec<(String, String, String)>,
}

/// [`DEPTH`] layers of instances, the second [`WIDE`] and hung off one hub
/// over `p` or `s` (both under `q`); sparse random edges over every property
/// between neighbouring layers; and about two in five instances typed, some
/// twice. Classes have no edges but `type` edges in.
fn world(seed: u64) -> World {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let layers: Vec<Vec<String>> = (0..DEPTH)
        .map(|layer| {
            let width = if layer == 1 { WIDE } else { 2 + rng.below(2) };
            (0..width).map(|i| format!("n{layer}_{i}")).collect()
        })
        .collect();
    let mut triples = BTreeSet::new();
    let hub = ["p", "s"][(seed % 2) as usize];
    for target in &layers[1] {
        triples.insert((layers[0][0].clone(), hub.to_owned(), target.clone()));
    }
    for pair in layers.windows(2) {
        let percent = if pair[0].len() == WIDE || pair[1].len() == WIDE {
            2
        } else {
            50
        };
        for source in &pair[0] {
            for target in &pair[1] {
                if rng.chance(percent) {
                    let label = PROPERTIES[rng.below(PROPERTIES.len())];
                    triples.insert((source.clone(), label.to_owned(), target.clone()));
                }
            }
        }
    }
    for node in layers.iter().flatten() {
        for _ in 0..2 {
            if rng.chance(25) {
                let class = TYPED[rng.below(TYPED.len())];
                triples.insert((node.clone(), "type".to_owned(), class.to_owned()));
            }
        }
    }
    let classes: BTreeSet<&str> = SC.iter().flat_map(|&(a, b)| [a, b]).collect();
    let mut nodes: Vec<String> = layers.into_iter().flatten().collect();
    nodes.extend(classes.into_iter().map(str::to_owned));
    World {
        nodes,
        triples: triples.into_iter().collect(),
    }
}

/// `x` and everything above it over `pairs` (child → parent), each at its
/// fewest steps: breadth-first.
fn up(pairs: &[(&str, &str)], x: &str) -> BTreeMap<String, u32> {
    let mut seen = BTreeMap::from([(x.to_owned(), 0)]);
    let mut frontier = vec![x.to_owned()];
    let mut steps = 0;
    while !frontier.is_empty() {
        steps += 1;
        let mut next = Vec::new();
        for member in &frontier {
            for &(child, parent) in pairs {
                if child == member && !seen.contains_key(parent) {
                    seen.insert(parent.to_owned(), steps);
                    next.push(parent.to_owned());
                }
            }
        }
        frontier = next;
    }
    seen
}

/// `x` and everything below it over `pairs` (child → parent).
fn down(pairs: &[(&str, &str)], x: &str) -> BTreeSet<String> {
    let flipped: Vec<(&str, &str)> = pairs
        .iter()
        .map(|&(child, parent)| (parent, child))
        .collect();
    up(&flipped, x).into_keys().collect()
}

/// One step of a path through the graph as inference sees it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Step {
    /// Along an edge of a property; backwards when `true`.
    Edge(String, bool),
    /// From a node to a class it has: declared, or above a declared one.
    Type(String),
    /// From a class to a node that has it.
    TypeOf,
}

/// Each node's steps, with where each leads.
fn adjacency(world: &World) -> BTreeMap<String, BTreeSet<(Step, String)>> {
    let mut out: BTreeMap<String, BTreeSet<(Step, String)>> = BTreeMap::new();
    for (s, p, o) in &world.triples {
        if p == "type" {
            for class in up(&SC, o).into_keys() {
                let step = (Step::Type(class.clone()), class.clone());
                out.entry(s.clone()).or_default().insert(step);
                out.entry(class)
                    .or_default()
                    .insert((Step::TypeOf, s.clone()));
            }
        } else {
            let forward = (Step::Edge(p.clone(), false), o.clone());
            out.entry(s.clone()).or_default().insert(forward);
            let backward = (Step::Edge(p.clone(), true), s.clone());
            out.entry(o.clone()).or_default().insert(backward);
        }
    }
    out
}

/// What pricing `step` with the query symbol `symbol` costs, if it can.
fn price(symbol: &Symbol, step: &Step, costs: Costs) -> Option<u32> {
    let is_type = symbol.label == "type";
    match step {
        Step::TypeOf => (is_type && symbol.inverse).then_some(0),
        Step::Type(_) if is_type => (!symbol.inverse).then_some(0),
        Step::Edge(..) if is_type => None,
        Step::Edge(label, inverse) => {
            if *inverse != symbol.inverse {
                return None;
            }
            // Rule (i) names the symbol's property or one above it, and
            // inference matches that one's edges and its sub-properties'.
            up(&SP, &symbol.label)
                .into_iter()
                .filter(|(named, _)| down(&SP, named).contains(label))
                .map(|(_, steps)| steps * costs.beta)
                .min()
        }
        Step::Type(class) => {
            // Rule (ii): the domain, or the range backwards, or above it.
            let gamma = costs.gamma?;
            let declared = if symbol.inverse { &RANGE[..] } else { &DOM[..] };
            let &(_, from) = declared.iter().find(|(p, _)| *p == symbol.label)?;
            up(&SC, from)
                .get(class)
                .map(|steps| gamma + steps * costs.beta)
        }
    }
}

/// Every symbol of `regex`.
fn symbols(regex: &RpqRegex, out: &mut BTreeSet<Symbol>) {
    match regex {
        RpqRegex::Label(symbol) => {
            out.insert(symbol.clone());
        }
        RpqRegex::Concat(a, b) | RpqRegex::Alt(a, b) => {
            symbols(a, out);
            symbols(b, out);
        }
        RpqRegex::Star(a) | RpqRegex::Plus(a) => symbols(a, out),
        RpqRegex::Epsilon | RpqRegex::Wildcard => {}
    }
}

/// The cheapest way, at most [`MAX_DISTANCE`], to price the steps after
/// `prefix` with one symbol each so that the whole word is in `L(regex)`:
/// depth-first over `choices`, cut at `best`.
fn cheapest(
    regex: &RpqRegex,
    choices: &[Vec<(Symbol, u32)>],
    prefix: &mut Vec<Symbol>,
    spent: u32,
    best: &mut Option<u32>,
) {
    if spent > MAX_DISTANCE || best.is_some_and(|b| spent >= b) {
        return;
    }
    let Some(options) = choices.get(prefix.len()) else {
        if matches(regex, prefix) {
            *best = Some(spent);
        }
        return;
    };
    for (symbol, cost) in options {
        prefix.push(symbol.clone());
        cheapest(regex, choices, prefix, spent + cost, best);
        prefix.pop();
    }
}

/// The RELAX distances of one query, memoised per step and per step word.
struct Oracle<'a> {
    regex: &'a RpqRegex,
    costs: Costs,
    alphabet: Vec<Symbol>,
    prices: HashMap<Step, Vec<(Symbol, u32)>>,
    words: HashMap<Vec<Step>, Option<u32>>,
}

impl<'a> Oracle<'a> {
    fn new(regex: &'a RpqRegex, costs: Costs) -> Self {
        let mut alphabet = BTreeSet::new();
        symbols(regex, &mut alphabet);
        Oracle {
            regex,
            costs,
            alphabet: alphabet.into_iter().collect(),
            prices: HashMap::new(),
            words: HashMap::new(),
        }
    }

    /// The query symbols that can price `step`, each with its cost.
    fn prices(&mut self, step: &Step) -> &[(Symbol, u32)] {
        let (alphabet, costs) = (&self.alphabet, self.costs);
        self.prices.entry(step.clone()).or_insert_with(|| {
            alphabet
                .iter()
                .filter_map(|s| price(s, step, costs).map(|c| (s.clone(), c)))
                .collect()
        })
    }

    /// The sum of each step's cheapest price: a lower bound on the distance
    /// of every word that starts with `word`.
    fn floor(&mut self, word: &[Step]) -> Option<u32> {
        word.iter()
            .map(|step| self.prices(step).iter().map(|&(_, c)| c).min())
            .sum()
    }

    /// `word`'s distance, if at most [`MAX_DISTANCE`].
    fn distance(&mut self, word: &[Step]) -> Option<u32> {
        if let Some(&known) = self.words.get(word) {
            return known;
        }
        let choices: Vec<Vec<(Symbol, u32)>> =
            word.iter().map(|step| self.prices(step).to_vec()).collect();
        let mut best = None;
        cheapest(self.regex, &choices, &mut Vec::new(), 0, &mut best);
        self.words.insert(word.to_vec(), best);
        best
    }
}

/// `(x, y) → distance ≤ MAX_DISTANCE` from every node: every path of at
/// most `max_len` steps, grouped by step word, since paths that share one
/// share its distance.
fn all_pairs(
    world: &World,
    oracle: &mut Oracle<'_>,
    max_len: usize,
) -> BTreeMap<(String, String), u32> {
    let adjacency = adjacency(world);
    let mut best = BTreeMap::new();
    for start in &world.nodes {
        let mut level: BTreeMap<Vec<Step>, BTreeSet<&str>> =
            BTreeMap::from([(Vec::new(), BTreeSet::from([start.as_str()]))]);
        for length in 0..=max_len {
            let mut next: BTreeMap<Vec<Step>, BTreeSet<&str>> = BTreeMap::new();
            for (word, ends) in &level {
                if let Some(d) = oracle.distance(word) {
                    for end in ends {
                        let slot = best.entry((start.clone(), end.to_string())).or_insert(d);
                        *slot = (*slot).min(d);
                    }
                }
                if length == max_len {
                    continue;
                }
                for end in ends {
                    for (step, to) in adjacency.get(*end).into_iter().flatten() {
                        let mut extended = word.clone();
                        extended.push(step.clone());
                        if oracle.floor(&extended).is_some_and(|f| f <= MAX_DISTANCE) {
                            next.entry(extended).or_default().insert(to);
                        }
                    }
                }
            }
            level = next;
        }
    }
    best
}

/// `y → distance ≤ MAX_DISTANCE` for the class constant `class`: from the
/// class itself and from each superclass, at `k·β` for `k` steps up.
fn from_class(
    pairs: &BTreeMap<(String, String), u32>,
    class: &str,
    costs: Costs,
) -> BTreeMap<String, u32> {
    let mut out = BTreeMap::new();
    for (seed, steps) in up(&SC, class) {
        for ((x, y), d) in pairs {
            let total = steps * costs.beta + d;
            if *x == seed && total <= MAX_DISTANCE {
                let slot = out.entry(y.clone()).or_insert(total);
                *slot = (*slot).min(total);
            }
        }
    }
    out
}

/// The world as the engine takes it: a graph, an ontology built from the
/// raw lists, and `costs` and `batch_size` as the base options.
fn database(world: &World, costs: Costs, batch_size: usize) -> Database {
    let mut graph = GraphStore::new();
    for name in &world.nodes {
        graph.add_node(name);
    }
    for property in PROPERTIES {
        graph.intern_label(property);
    }
    for (s, p, o) in &world.triples {
        graph.add_triple(s, p, o);
    }
    let node = |name: &str| graph.node_by_label(name).unwrap();
    let label = |name: &str| graph.label_id(name).unwrap();
    let mut ontology = Ontology::new();
    for (child, parent) in SC {
        ontology.add_subclass(node(child), node(parent)).unwrap();
    }
    for (child, parent) in SP {
        ontology
            .add_subproperty(label(child), label(parent))
            .unwrap();
    }
    for (property, class) in DOM {
        ontology.set_domain(label(property), node(class));
    }
    for (property, class) in RANGE {
        ontology.set_range(label(property), node(class));
    }
    let relax = RelaxConfig::hierarchy_only(costs.beta);
    let options = EvalOptions {
        relax: costs
            .gamma
            .map_or(relax, |gamma| relax.with_domain_range(gamma)),
        batch_size,
        ..EvalOptions::default()
    };
    Database::with_options(graph, ontology, options)
}

/// Every answer the engine returns up to [`MAX_DISTANCE`]; asserts that
/// they come out in non-decreasing distance.
fn engine(db: &Database, text: &str) -> Vec<Answer> {
    let prepared = db.prepare(text).unwrap();
    let request = ExecOptions::new().with_max_distance(MAX_DISTANCE);
    let answers = prepared.answers(&request).collect_up_to(None).unwrap();
    if let Some(i) = (1..answers.len()).find(|&i| answers[i].distance < answers[i - 1].distance) {
        panic!(
            "{text}, cost_guided {}: answer {i} at distance {} follows one at {}",
            db.options().cost_guided,
            answers[i].distance,
            answers[i - 1].distance
        );
    }
    answers
}

/// `key(answer) → distance`, each key answered once.
fn distances<K: Ord + std::fmt::Debug>(
    answers: &[Answer],
    key: impl Fn(&Answer) -> K,
) -> BTreeMap<K, u32> {
    let mut out = BTreeMap::new();
    for a in answers {
        let previous = out.insert(key(a), a.distance);
        assert!(previous.is_none(), "{:?} answered twice", key(a));
    }
    out
}

/// Asserts `got == want`, naming only the keys on which they differ.
fn assert_same<K: Ord + std::fmt::Debug>(
    got: &BTreeMap<K, u32>,
    want: &BTreeMap<K, u32>,
    context: &str,
) {
    let keys: BTreeSet<&K> = got.keys().chain(want.keys()).collect();
    let diff: Vec<_> = keys
        .into_iter()
        .filter(|k| got.get(k) != want.get(k))
        .map(|k| (k, got.get(k), want.get(k)))
        .take(12)
        .collect();
    assert!(
        diff.is_empty(),
        "{context}: (key, engine, oracle) differ: {diff:?}"
    );
}

/// Every shape over `world`, from every node and from each class constant,
/// with cost guidance on and off; and some answer at each distance up to
/// the ceiling, so that no kind of step goes unpriced.
fn check(world: &World, costs: Costs, batch_size: usize) {
    let guided = database(world, costs, batch_size);
    let unguided = guided.reconfigured(EvalOptions {
        cost_guided: false,
        ..guided.options().clone()
    });
    let mut seen = BTreeSet::new();
    for &(text, bound) in SHAPES {
        let regex = parse(text).unwrap();
        let mut oracle = Oracle::new(&regex, costs);
        let pairs = all_pairs(world, &mut oracle, bound.unwrap_or(DEPTH));
        seen.extend(pairs.values().copied());
        for db in [&guided, &unguided] {
            let mode = format!("{costs:?}, cost_guided {}", db.options().cost_guided);
            let all = format!("(?X, ?Y) <- RELAX (?X, {text}, ?Y)");
            let got = distances(&engine(db, &all), |a| {
                (
                    a.get("X").unwrap().to_owned(),
                    a.get("Y").unwrap().to_owned(),
                )
            });
            assert_same(&got, &pairs, &format!("{all}, {mode}"));
            for class in CONSTANTS {
                let one = format!("(?Y) <- RELAX ({class}, {text}, ?Y)");
                let want = from_class(&pairs, class, costs);
                seen.extend(want.values().copied());
                let got = distances(&engine(db, &one), |a| a.get("Y").unwrap().to_owned());
                assert_same(&got, &want, &format!("{one}, {mode}"));
            }
        }
    }
    assert_eq!(seen, BTreeSet::from([0, 1, 2]), "{costs:?}");
}

#[test]
fn relax_distances_equal_the_oracle_under_rule_one() {
    // The paper's configuration: β = 1, no domain or range steps.
    check(
        &world(1),
        Costs {
            beta: 1,
            gamma: None,
        },
        100,
    );
}

#[test]
fn relax_distances_equal_the_oracle_with_domain_and_range_steps() {
    // Seeds a few at a time, so that each `(?X, R, ?Y)` seed cursor pops
    // many times.
    let costs = Costs {
        beta: 1,
        gamma: Some(1),
    };
    check(&world(2), costs, 7);
}

#[test]
fn relax_distances_equal_the_oracle_when_a_hierarchy_step_costs_two() {
    let costs = Costs {
        beta: 2,
        gamma: Some(1),
    };
    check(&world(3), costs, 100);
}

/// One conjunct of a join: `(subject, regex, object, RELAX)`, a term that
/// starts with `?` being a variable.
type Conjunct = (String, String, String, bool);

/// Regexes an exact conjunct is drawn from: over the two properties with no
/// sub-property and without `type`, where RELAX at distance 0 — inference
/// included — is exact matching, so the exact pairs are the oracle's at 0.
const EXACT_SHAPES: &[&str] = &["p", "p-", "s", "s-", "p.s", "p-.s", "s*"];

/// A join's reference rows grow past this many and it is drawn again: the
/// engine drains every one of them in debug builds.
const JOIN_ROWS: usize = 4_000;

/// Random 2–3-conjunct joins: stars on `?X` and chains `?X → ?Y → ?Z → ?W`,
/// each conjunct RELAX over a [`SHAPES`] regex or exact over an
/// [`EXACT_SHAPES`] one at random, with at least one RELAX; `count` of
/// them, from `seed`.
fn random_joins(seed: u64, count: usize) -> Vec<Vec<Conjunct>> {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let vars = ["?X", "?Y", "?Z", "?W"];
    (0..count)
        .map(|_| {
            let star = rng.chance(50);
            let n = 2 + rng.below(2);
            let mut relaxed: Vec<bool> = (0..n).map(|_| rng.chance(50)).collect();
            if relaxed.iter().all(|r| !r) {
                relaxed[rng.below(n)] = true;
            }
            relaxed
                .into_iter()
                .enumerate()
                .map(|(i, relax)| {
                    let regex = if relax {
                        SHAPES[rng.below(SHAPES.len())].0
                    } else {
                        EXACT_SHAPES[rng.below(EXACT_SHAPES.len())]
                    };
                    let (s, o) = if star {
                        (vars[0], vars[i + 1])
                    } else {
                        (vars[i], vars[i + 1])
                    };
                    (s.to_owned(), regex.to_owned(), o.to_owned(), relax)
                })
                .collect()
        })
        .collect()
}

/// The text of `join` with every variable in the head.
fn join_text(join: &[Conjunct]) -> (Vec<String>, String) {
    let mut head: Vec<String> = Vec::new();
    for (s, _, o, _) in join {
        for term in [s, o] {
            if let Some(var) = term.strip_prefix('?') {
                if !head.iter().any(|h| h == var) {
                    head.push(var.to_owned());
                }
            }
        }
    }
    let body: Vec<String> = join
        .iter()
        .map(|(s, r, o, relax)| {
            let operator = if *relax { "RELAX " } else { "" };
            format!("{operator}({s}, {r}, {o})")
        })
        .collect();
    let vars: Vec<String> = head.iter().map(|v| format!("?{v}")).collect();
    let text = format!("({}) <- {}", vars.join(", "), body.join(", "));
    (head, text)
}

/// The pairs one conjunct of a join admits, by subject: the oracle's, at 0
/// for an exact conjunct; from a RELAX class constant, [`from_class`]'s.
fn conjunct_pairs(
    (s, _, _, relax): &Conjunct,
    pairs: &BTreeMap<(String, String), u32>,
    costs: Costs,
) -> BTreeMap<String, Vec<(String, u32)>> {
    let mut out: BTreeMap<String, Vec<(String, u32)>> = BTreeMap::new();
    if *relax && !s.starts_with('?') {
        out.insert(s.clone(), from_class(pairs, s, costs).into_iter().collect());
        return out;
    }
    for ((x, y), &d) in pairs.iter().filter(|&(_, &d)| *relax || d == 0) {
        out.entry(x.clone()).or_default().push((y.clone(), d));
    }
    out
}

/// The nested-loop join of the conjuncts' pairs as `head values → least
/// total distance`, totals up to `cap`; `None` once a partial join
/// outgrows [`JOIN_ROWS`].
fn join_reference(
    join: &[Conjunct],
    pairs: &[BTreeMap<String, Vec<(String, u32)>>],
    head: &[String],
    cap: u32,
) -> Option<BTreeMap<Vec<String>, u32>> {
    let mut rows: Vec<(BTreeMap<&str, &str>, u32)> = vec![(BTreeMap::new(), 0)];
    for ((s, _, o, _), by_subject) in join.iter().zip(pairs) {
        let mut next = Vec::new();
        for (row, total) in &rows {
            let bound = match s.strip_prefix('?') {
                Some(_) => row.get(s.as_str()).copied(),
                None => Some(s.as_str()),
            };
            let subjects: Vec<_> = match bound {
                Some(x) => by_subject.get_key_value(x).into_iter().collect(),
                None => by_subject.iter().collect(),
            };
            for (x, ends) in subjects {
                for (y, d) in ends {
                    let total = total + d;
                    let mut merged = row.clone();
                    let fits = [(s, x), (o, y)].into_iter().all(|(term, value)| {
                        if !term.starts_with('?') {
                            return term == value;
                        }
                        *merged.entry(term.as_str()).or_insert(value.as_str()) == value.as_str()
                    });
                    if fits && total <= cap {
                        next.push((merged, total));
                    }
                }
            }
        }
        if next.len() > JOIN_ROWS {
            return None;
        }
        rows = next;
    }
    let mut out = BTreeMap::new();
    for (row, total) in rows {
        let key: Vec<String> = head
            .iter()
            .map(|v| row[format!("?{v}").as_str()].to_owned())
            .collect();
        let least = out.entry(key).or_insert(total);
        *least = (*least).min(total);
    }
    Some(out)
}

/// Random exact + RELAX joins over `world` (and the `extra` ones) against
/// the nested-loop join of the per-conjunct oracle, up to distance 1:
/// every row at its distance, in non-decreasing distance, with cost
/// guidance on and off; and under several limits `k`, `k` rows of the
/// oracle at its `k` smallest distances.
fn check_joins(world: &World, costs: Costs, batch_size: usize, seed: u64, extra: &[Vec<Conjunct>]) {
    let guided = database(world, costs, batch_size);
    let unguided = guided.reconfigured(EvalOptions {
        cost_guided: false,
        ..guided.options().clone()
    });
    let cap = 1;
    let bounds: HashMap<&str, Option<usize>> = SHAPES.iter().copied().collect();
    let mut oracles: HashMap<String, BTreeMap<(String, String), u32>> = HashMap::new();
    let (mut checked, mut rows_seen) = (0, 0);
    for join in extra.iter().cloned().chain(random_joins(seed, 16)) {
        for (_, text, _, _) in &join {
            if !oracles.contains_key(text) {
                let regex = parse(text).unwrap();
                let bound = bounds.get(text.as_str()).copied().flatten();
                let mut oracle = Oracle::new(&regex, costs);
                let pairs = all_pairs(world, &mut oracle, bound.unwrap_or(DEPTH));
                oracles.insert(text.clone(), pairs);
            }
        }
        let pairs: Vec<_> = join
            .iter()
            .map(|c| conjunct_pairs(c, &oracles[&c.1], costs))
            .collect();
        let (head, text) = join_text(&join);
        let Some(expected) = join_reference(&join, &pairs, &head, cap) else {
            continue;
        };
        checked += 1;
        rows_seen += expected.len();
        let mut ranked: Vec<u32> = expected.values().copied().collect();
        ranked.sort_unstable();
        let key = |a: &Answer| -> Vec<String> {
            head.iter().map(|v| a.get(v).unwrap().to_owned()).collect()
        };
        for db in [&guided, &unguided] {
            let mode = format!(
                "{text}, {costs:?}, cost_guided {}",
                db.options().cost_guided
            );
            let prepared = db.prepare(&text).unwrap();
            let request = ExecOptions::new().with_max_distance(cap);
            let answers = prepared.answers(&request).collect_up_to(None).unwrap();
            let got: Vec<u32> = answers.iter().map(|a| a.distance).collect();
            assert!(got.windows(2).all(|w| w[0] <= w[1]), "{mode}: {got:?}");
            assert_same(&distances(&answers, key), &expected, &mode);
            for k in [1, 4, 16, 64].into_iter().filter(|&k| k <= expected.len()) {
                let top = prepared
                    .answers(&request.clone().with_limit(k))
                    .collect_up_to(None)
                    .unwrap();
                let got: Vec<u32> = top.iter().map(|a| a.distance).collect();
                assert_eq!(got, ranked[..k], "{mode}, limit {k}");
                for a in &top {
                    assert_eq!(
                        expected.get(&key(a)),
                        Some(&a.distance),
                        "{mode}, limit {k}"
                    );
                }
            }
        }
    }
    assert!(checked >= 6, "only {checked} joins were small enough");
    assert!(rows_seen > 0, "every join was empty");
}

#[test]
fn relax_joins_equal_the_nested_loop_join_of_the_oracle() {
    // Seeds a few at a time, as in the domain-and-range test.
    let costs = Costs {
        beta: 1,
        gamma: Some(1),
    };
    let conjunct = |s: &str, r: &str, o: &str, relax: bool| -> Conjunct {
        (s.to_owned(), r.to_owned(), o.to_owned(), relax)
    };
    // Shaped like the paper's M3, `(class, type-, ?E), (?E, next, ?N),
    // (?E, prereq, ?P)`, with `D`'s instances (and, relaxed, `A`'s and
    // `B`'s) for the Work Episodes.
    let m3 = |spokes: bool| {
        vec![
            conjunct("D", "type-", "?E", true),
            conjunct("?E", "p", "?N", spokes),
            conjunct("?E", "s", "?P", spokes),
        ]
    };
    check_joins(&world(2), costs, 7, 2, &[m3(false), m3(true)]);
}
