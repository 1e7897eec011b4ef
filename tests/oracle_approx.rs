//! An oracle for APPROX distances that owes nothing to the engine.
//!
//! The paper's contribution is the distance an APPROX answer carries: the
//! cheapest edits that turn the label word of some path from `x` to `y`
//! into a word of `L(R)`, one cost per operation (`ApproxConfig`'s names,
//! which are the query's view): *insertion* — the path takes an extra edge
//! no query symbol matches; *deletion* — a query symbol is skipped;
//! *substitution* — a query symbol is matched by an edge of any label, in
//! either direction; and, when enabled, *inversion* — by the edge of its own
//! label the other way round, so that replacing a symbol by its own inverse
//! costs `min(substitution, inversion)`. This file computes that number the
//! slow way and compares it with what the engine returns, up to two edits
//! at the largest cost, with cost guidance on and off. It shares no code
//! with `omega_automata` or `omega_core::eval`: the words of `L(R)` are
//! generated from the AST by the regex's own semantics (each one checked
//! with `omega_regex::oracle::matches`, a naive matcher over the AST) and
//! shared as a prefix trie, and a cheapest-first search over `(node, trie
//! node)` — its own adjacency lists on one side, edits priced one by one
//! on the other — aligns every path with every such word at once. The
//! shapes include nullable and stacked closures, where a run of deletions
//! reaches a final state through a loop, and the wildcard `_`, a trie step
//! of its own that matches any label forwards.
//!
//! The graphs are layered DAGs over at most three labels, with one layer
//! wider than two of the evaluator's 64-neighbour blocks and a hub linked to
//! all of it, so that wide `Succ` runs become cursors: two random ones; one
//! built so that most of the wide layer lacks every label a query can
//! continue on after the hub, so that the cursors' blocks are keyed by what
//! may fire at each member (`EvalStats::raised_keys`); and one shaped like
//! the paper's Q8, a class whose instances only a wildcard edit reaches and
//! whose instances' classes lack the next label, so that whole blocks are
//! visited in place, owe one deferred and one final run each, or are
//! raised together. Each runs at unit costs; three run again at uniform
//! cost 2, at `{insertion 1, deletion 2, substitution 3}` and at uniform
//! cost 3 with inversion at 1 — the last with one back edge from a hub
//! member to the hub, so that an inverted step reaches a raised member a
//! key later than the hub does (a raise by more than one key would let it
//! claim the member first). Every stream is also checked to come out in
//! non-decreasing distance: a raise the occupancy probe should not have
//! made would emit an exact answer after an inexact one.
//!
//! Multi-conjunct queries are checked the same way one level up: random
//! 2–3-conjunct stars and chains, each conjunct exact or APPROX, and an
//! anchored star shaped like the paper's M3, against the nested-loop join
//! of the per-conjunct oracle maps (an exact conjunct keeps its distance-0
//! pairs), up to one edit — every row at its least total distance, and
//! under several limits `k` the oracle's `k` smallest distances first.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

use omega::automata::ApproxConfig;
use omega::core::EvalStats;
use omega::regex::oracle::matches;
use omega::regex::{parse, RpqRegex, Symbol};
use omega::{Answer, Database, EvalOptions, ExecOptions, GraphStore, Ontology};

/// Nodes in the wide layer: more than two blocks of 64.
const WIDE: usize = 2 * 64 + 5;

/// Node layers; edges only run from one layer to the next.
const DEPTH: usize = 4;

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

/// One generated case: layered node names and labelled edges.
struct Case {
    layers: Vec<Vec<String>>,
    triples: Vec<(String, String, String)>,
}

fn generate(seed: u64) -> Case {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let labels = ["p", "q", "r"];
    let label_count = 2 + rng.below(2);
    // The hub is a root for even seeds, one layer down for odd ones.
    let wide_layer = 1 + (seed % 2) as usize;
    let layers: Vec<Vec<String>> = (0..DEPTH)
        .map(|layer| {
            let width = if layer == wide_layer {
                WIDE
            } else {
                2 + rng.below(2)
            };
            (0..width).map(|i| format!("n{layer}_{i}")).collect()
        })
        .collect();
    let mut triples = BTreeSet::new();
    for pair in layers.windows(2) {
        let (from, to) = (&pair[0], &pair[1]);
        // The hub: one node linked to the whole next layer over one label.
        if to.len() == WIDE {
            let label = labels[rng.below(label_count)];
            for target in to {
                triples.insert((from[0].clone(), label.to_owned(), target.clone()));
            }
        }
        // Sparse random edges, so every other node has some fan-out too.
        let percent = if from.len() == WIDE || to.len() == WIDE {
            2
        } else {
            50
        };
        for source in from {
            for target in to {
                if rng.chance(percent) {
                    let label = labels[rng.below(label_count)];
                    triples.insert((source.clone(), label.to_owned(), target.clone()));
                }
            }
        }
    }
    Case {
        layers,
        triples: triples.into_iter().collect(),
    }
}

/// Query shapes over `a`, `b`, `c` (bound to labels per case) and the
/// wildcard `_`. The closures are forward-only, which bounds the words of
/// `L(R)` worth aligning (see [`Costs::longest_word`]). The nullable and
/// stacked closures are where a run of deletions reaches a final state
/// through a loop.
const SHAPES: &[&str] = &[
    "a", "a.b", "a-.b", "a.b-.c", "(a|b-).c", "a+", "a.b+", "a*.b", "(a|b)*.c", "(a.b)+", "a._",
];

/// The trie's symbol for the wildcard `_`, which no graph label spells. The
/// regex's own matcher reads it as what `_` matches, any forward label.
fn wildcard() -> Symbol {
    Symbol::forward("_")
}

/// One run's edit costs and the distance ceiling compared.
#[derive(Debug)]
struct Costs {
    config: ApproxConfig,
    /// Two edits at the largest cost.
    ceiling: u32,
}

impl Costs {
    fn new(config: ApproxConfig) -> Costs {
        let largest = config
            .insertion
            .max(config.deletion)
            .max(config.substitution);
        Costs {
            config,
            ceiling: 2 * largest,
        }
    }

    /// What aligning a path step labelled `step` with the query symbol
    /// `symbol` costs. The wildcard `_` is any label forwards, so flipped it
    /// is any label backwards: a backward step costs what an inversion does.
    fn align(&self, step: &Symbol, symbol: &Symbol) -> u32 {
        let ApproxConfig {
            substitution,
            inversion,
            ..
        } = self.config;
        let flipped = inversion.map_or(substitution, |inversion| inversion.min(substitution));
        if *symbol == wildcard() {
            if step.inverse {
                flipped
            } else {
                0
            }
        } else if step == symbol {
            0
        } else if step.label == symbol.label {
            flipped
        } else {
            substitution
        }
    }

    /// The longest word of a forward-only `L(R)` that can be within the
    /// ceiling of a path on a layered graph whose edges over `R`'s labels
    /// all run one layer down. Each step `R` matches as it stands goes one
    /// layer down, so a path with `i + r` other steps has at most `DEPTH −
    /// 1 + i + r` of them: `i` inserted, at `insertion` each, and `r` that
    /// replace a query symbol, at no less than the cheaper of substitution
    /// and inversion each. The word has those symbols, the `r` replaced ones
    /// and `d` skipped ones, at a deletion each. All of these share one
    /// ceiling, so `i + 2r + d` is at most the largest of what it allows
    /// each kind alone.
    fn longest_word(&self) -> usize {
        let ApproxConfig {
            insertion,
            deletion,
            substitution,
            inversion,
        } = self.config;
        let replaced = substitution.min(inversion.unwrap_or(u32::MAX));
        let ceiling = self.ceiling;
        let extra = (ceiling / insertion)
            .max(2 * ceiling / replaced)
            .max(ceiling / deletion);
        DEPTH - 1 + extra as usize
    }
}

/// The words of `L(regex)` of at most `max` symbols, by the semantics of
/// each operator.
fn language(regex: &RpqRegex, max: usize) -> BTreeSet<Vec<Symbol>> {
    let concat = |left: &BTreeSet<Vec<Symbol>>, right: &RpqRegex| {
        let mut out = BTreeSet::new();
        for u in left {
            for v in language(right, max - u.len()) {
                out.insert([u.as_slice(), &v].concat());
            }
        }
        out
    };
    match regex {
        RpqRegex::Epsilon => BTreeSet::from([Vec::new()]),
        RpqRegex::Label(symbol) if max > 0 => BTreeSet::from([vec![symbol.clone()]]),
        RpqRegex::Wildcard if max > 0 => BTreeSet::from([vec![wildcard()]]),
        RpqRegex::Label(_) | RpqRegex::Wildcard => BTreeSet::new(),
        RpqRegex::Alt(a, b) => &language(a, max) | &language(b, max),
        RpqRegex::Concat(a, b) => concat(&language(a, max), b),
        RpqRegex::Plus(a) => concat(&language(a, max), &RpqRegex::Star(a.clone())),
        RpqRegex::Star(a) => {
            // Iterate to the fixpoint: words only grow, up to `max`.
            let mut words = BTreeSet::from([Vec::new()]);
            loop {
                let more = &words | &concat(&words, a);
                if more.len() == words.len() {
                    return words;
                }
                words = more;
            }
        }
    }
}

/// The words of `L(R)` as a prefix trie: node 0 is the empty prefix.
struct Trie {
    children: Vec<Vec<(Symbol, usize)>>,
    /// Whether the prefix a node spells is a word of `L(R)`.
    word: Vec<bool>,
}

impl Trie {
    fn new(words: &BTreeSet<Vec<Symbol>>) -> Trie {
        let mut trie = Trie {
            children: vec![Vec::new()],
            word: vec![false],
        };
        for w in words {
            let mut at = 0;
            for symbol in w {
                at = match trie.children[at].iter().find(|(s, _)| s == symbol) {
                    Some(&(_, child)) => child,
                    None => {
                        trie.children.push(Vec::new());
                        trie.word.push(false);
                        let child = trie.children.len() - 1;
                        trie.children[at].push((symbol.clone(), child));
                        child
                    }
                };
            }
            trie.word[at] = true;
        }
        trie
    }
}

/// `(x, y) → distance` for every pair within the ceiling: from each start
/// `x`, a cheapest-first search over `(node, trie node)`, that is over a
/// path walked so far and the prefix of a word of `L(R)` it has been
/// aligned with. A step of the path is either an insertion (the prefix
/// stays) or aligned with the prefix's next symbol (`Costs::align`); a
/// deletion skips that symbol, extending the prefix where the path stands.
/// Where the prefix is a word of `L(R)`, the path's end is an answer.
fn oracle(case: &Case, regex: &RpqRegex, costs: &Costs) -> BTreeMap<(String, String), u32> {
    let words = language(regex, costs.longest_word());
    assert!(words.iter().all(|w| matches(regex, w)), "{regex:?}");
    let trie = Trie::new(&words);
    let nodes: Vec<&String> = case.layers.iter().flatten().collect();
    let index: HashMap<&String, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut steps: Vec<Vec<(Symbol, usize)>> = vec![Vec::new(); nodes.len()];
    for (s, p, o) in &case.triples {
        steps[index[s]].push((Symbol::forward(p), index[o]));
        steps[index[o]].push((Symbol::inverse(p), index[s]));
    }
    let ApproxConfig {
        insertion,
        deletion,
        ..
    } = costs.config;
    let mut best = BTreeMap::new();
    for (start, &x) in nodes.iter().enumerate() {
        // `settled[node * tries + trie node]`.
        let tries = trie.word.len();
        let mut settled = vec![false; nodes.len() * tries];
        let mut queue = BinaryHeap::from([Reverse((0, start, 0))]);
        while let Some(Reverse((d, node, at))) = queue.pop() {
            if std::mem::replace(&mut settled[node * tries + at], true) {
                continue;
            }
            if trie.word[at] {
                best.entry((x.clone(), nodes[node].clone())).or_insert(d);
            }
            let mut push = |cost: u32, to: usize, next: usize| {
                let d = d + cost;
                if d <= costs.ceiling && !settled[to * tries + next] {
                    queue.push(Reverse((d, to, next)));
                }
            };
            for &(_, next) in &trie.children[at] {
                push(deletion, node, next);
            }
            for (step, to) in &steps[node] {
                push(insertion, *to, at);
                for (symbol, next) in &trie.children[at] {
                    push(costs.align(step, symbol), *to, *next);
                }
            }
        }
    }
    best
}

/// The hub case: the wide layer hangs off `n0_0` over `p`. Of every sixteen
/// members two have an outgoing `q`, two an incoming `q` from the rest of
/// layer 0, one an outgoing and one an incoming `r`, and ten only the hub's
/// edge.
fn hub_case() -> Case {
    let widths = [3, WIDE, 3, 2];
    let layers: Vec<Vec<String>> = widths
        .iter()
        .enumerate()
        .map(|(layer, &width)| (0..width).map(|i| format!("n{layer}_{i}")).collect())
        .collect();
    let node = |layer: usize, i: usize| layers[layer][i % widths[layer]].clone();
    let mut triples = BTreeSet::new();
    let mut edge = |s: String, p: &str, o: String| {
        triples.insert((s, p.to_owned(), o));
    };
    for i in 0..WIDE {
        let (member, other) = (node(1, i), node(0, 1 + i / 16 % 2));
        edge(node(0, 0), "p", member.clone());
        match i % 16 {
            0 | 8 => edge(member, "q", node(2, i / 16)),
            4 | 12 => edge(other, "q", member),
            2 => edge(member, "r", node(2, i / 16)),
            10 => edge(other, "r", member),
            _ => {}
        }
    }
    for k in 0..3 {
        edge(node(2, k), "p", node(3, k));
    }
    edge(node(2, 0), "q", node(3, 1));
    edge(node(2, 1), "r", node(3, 0));
    Case {
        layers,
        triples: triples.into_iter().collect(),
    }
}

/// The hub case plus one back edge, `n1_1 -p-> n0_0`. The hub reaches its
/// member `n1_1` over `p` at no cost, and, reading the back edge as `p-`,
/// again at the cost of an inversion. `n1_1` has no label a query goes on
/// with, so its cursor block raises it: past one key, and the costlier
/// inverted visit would pop first and claim it.
fn hub_with_a_back_edge_case() -> Case {
    let mut case = hub_case();
    case.triples
        .push(("n1_1".to_owned(), "p".to_owned(), "n0_0".to_owned()));
    case
}

/// A class `n0_0` with [`WIDE`] instances over `p`, shaped like the paper's
/// L4All Q8 under APPROX, `(class, type.prereq+, ?X)` with `q` for `type`
/// and `r` for `prereq`: the class has no `q` edge, so only an insertion or
/// a substitution wildcard reaches its instances, a block at a time, at
/// distance 1. Each instance is typed (`q`) to one of three classes of
/// layer 2 that lack `r`; one in sixteen also has an `r` edge of its own,
/// and `r` continues from layer 2's last node.
fn typed_instances_case() -> Case {
    let widths = [2, WIDE, 4, 2];
    let layers: Vec<Vec<String>> = widths
        .iter()
        .enumerate()
        .map(|(layer, &width)| (0..width).map(|i| format!("n{layer}_{i}")).collect())
        .collect();
    let node = |layer: usize, i: usize| layers[layer][i].clone();
    let mut triples = BTreeSet::new();
    let mut edge = |s: String, p: &str, o: String| {
        triples.insert((s, p.to_owned(), o));
    };
    for i in 0..WIDE {
        edge(node(0, 0), "p", node(1, i));
        edge(node(1, i), "q", node(2, i % 3));
        if i % 16 == 5 {
            edge(node(1, i), "r", node(2, 3));
        }
    }
    edge(node(0, 1), "q", node(1, 0));
    edge(node(2, 0), "p", node(3, 0));
    edge(node(2, 3), "r", node(3, 1));
    Case {
        layers,
        triples: triples.into_iter().collect(),
    }
}

/// Every answer the engine returns up to `ceiling`, and its stats; asserts
/// that they come out in non-decreasing distance.
fn engine(db: &Database, text: &str, ceiling: u32) -> (Vec<Answer>, EvalStats) {
    let prepared = db.prepare(text).unwrap();
    let mut stream = prepared.answers(&ExecOptions::new().with_max_distance(ceiling));
    let answers = stream.collect_up_to(None).unwrap();
    if let Some(i) = (1..answers.len()).find(|&i| answers[i].distance < answers[i - 1].distance) {
        panic!(
            "{text}, cost_guided {}: answer {i} at distance {} follows one at {}",
            db.options().cost_guided,
            answers[i].distance,
            answers[i - 1].distance
        );
    }
    (answers, stream.stats())
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

#[test]
fn approx_distances_equal_the_oracle_with_a_root_hub() {
    let seed = 2;
    check(
        &generate(seed),
        &format!("seed {seed}"),
        ApproxConfig::default(),
        |i, k| i + k + 2,
    );
}

#[test]
fn approx_distances_equal_the_oracle_with_a_hub_one_layer_down() {
    let seed = 1;
    check(
        &generate(seed),
        &format!("seed {seed}"),
        ApproxConfig::default(),
        |i, k| i + k + 1,
    );
}

#[test]
fn approx_distances_equal_the_oracle_where_hub_members_mostly_lack_the_next_label() {
    // `a` is always the hub's label `p`, `b` is `q`, `c` is `r`.
    check(&hub_case(), "hub case", ApproxConfig::default(), |_, k| k);
}

#[test]
fn approx_distances_equal_the_oracle_where_an_insertion_reaches_typed_instances() {
    // `a` is `q` (the type edge), `b` is `r`, `c` is `p`: shape `a.b+` is Q8.
    check(
        &typed_instances_case(),
        "typed instances case",
        ApproxConfig::default(),
        |_, k| k + 1,
    );
}

#[test]
fn approx_distances_equal_the_oracle_when_every_edit_costs_two() {
    let seed = 2;
    let costs = ApproxConfig::uniform(2);
    check(&generate(seed), &format!("seed {seed}"), costs, |i, k| {
        i + k + 2
    });
}

#[test]
fn approx_distances_equal_the_oracle_when_insertion_deletion_and_substitution_cost_one_two_three() {
    let costs = ApproxConfig {
        insertion: 1,
        deletion: 2,
        substitution: 3,
        inversion: None,
    };
    check(
        &typed_instances_case(),
        "typed instances case",
        costs,
        |_, k| k + 1,
    );
}

#[test]
fn approx_distances_equal_the_oracle_when_an_inversion_costs_less_than_an_edit() {
    let costs = ApproxConfig {
        inversion: Some(1),
        ..ApproxConfig::uniform(3)
    };
    // `a` is `p`, `b` is `q`, `c` is `r`, except that the shapes with a
    // closure (from `a+` on) use only `q` and `r`, `a` and `c` being `q`:
    // `p` now has a back edge (see `Costs::longest_word`).
    check(
        &hub_with_a_back_edge_case(),
        "back edge case",
        costs,
        |i, k| if i >= 5 { 1 + k % 2 } else { k },
    );
}

/// Every shape over `case` at edit costs `config`, with its labels `a`,
/// `b`, `c` for shape `i` the present labels at `pick(i, 0..3)` (mod their
/// number), from every node and from the first root, with cost guidance on
/// and off.
fn check(case: &Case, name: &str, config: ApproxConfig, pick: impl Fn(usize, usize) -> usize) {
    let mut graph = GraphStore::new();
    // Nodes without edges too: every node pairs with itself at the cost of
    // deleting the shortest query word.
    for name in case.layers.iter().flatten() {
        graph.add_node(name);
    }
    for (s, p, o) in &case.triples {
        graph.add_triple(s, p, o);
    }
    let options = EvalOptions {
        approx: config,
        ..EvalOptions::default()
    };
    let guided = Database::with_options(graph, Ontology::new(), options.clone());
    let unguided = guided.reconfigured(EvalOptions {
        cost_guided: false,
        ..options
    });
    let costs = Costs::new(config);
    let labels: Vec<&str> = ["p", "q", "r"]
        .into_iter()
        .filter(|l| case.triples.iter().any(|(_, p, _)| p == l))
        .collect();
    let root = &case.layers[0][0];
    let (mut cursor_blocks, mut raised_keys) = (0, 0);
    for (i, &shape) in SHAPES.iter().enumerate() {
        let pick = |k: usize| labels[pick(i, k) % labels.len()];
        let text: String = shape
            .chars()
            .map(|c| match c {
                'a' => pick(0).to_owned(),
                'b' => pick(1).to_owned(),
                'c' => pick(2).to_owned(),
                other => other.to_string(),
            })
            .collect();
        let expected = oracle(case, &parse(&text).unwrap(), &costs);
        let from_root: BTreeMap<String, u32> = expected
            .iter()
            .filter(|((x, _), _)| x == root)
            .map(|((_, y), &d)| (y.clone(), d))
            .collect();
        for db in [&guided, &unguided] {
            let mode = format!("{costs:?}, cost_guided {}", db.options().cost_guided);
            let all = format!("(?X, ?Y) <- APPROX (?X, {text}, ?Y)");
            let (answers, stats) = engine(db, &all, costs.ceiling);
            cursor_blocks += stats.cursor_blocks;
            raised_keys += stats.raised_keys;
            let got = distances(&answers, |a| {
                (
                    a.get("X").unwrap().to_owned(),
                    a.get("Y").unwrap().to_owned(),
                )
            });
            assert_same(&got, &expected, &format!("{name}, {all}, {mode}"));
            // A constant subject seeds one node instead of every node.
            let one = format!("(?Y) <- APPROX ({root}, {text}, ?Y)");
            let (answers, stats) = engine(db, &one, costs.ceiling);
            raised_keys += stats.raised_keys;
            let got = distances(&answers, |a| a.get("Y").unwrap().to_owned());
            assert_same(&got, &from_root, &format!("{name}, {one}, {mode}"));
        }
    }
    assert!(cursor_blocks > 0, "no query read the hub through a cursor");
    assert!(raised_keys > 0, "no cursor release was raised");
}

/// One conjunct of a join: `(subject, regex, object, APPROX)`, a term that
/// starts with `?` being a variable.
type Conjunct = (String, String, String, bool);

/// A join's reference rows grow past this many and it is drawn again: the
/// engine drains every one of them in debug builds.
const JOIN_ROWS: usize = 4_000;

/// Random 2–3-conjunct joins over `labels`: stars on `?X` and chains
/// `?X → ?Y → ?Z → ?W`, each conjunct a [`SHAPES`] regex, exact or APPROX
/// at random with at least one APPROX; `count` of them, from `seed`.
fn random_joins(labels: &[&str], seed: u64, count: usize) -> Vec<Vec<Conjunct>> {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let vars = ["?X", "?Y", "?Z", "?W"];
    (0..count)
        .map(|_| {
            let star = rng.chance(50);
            let n = 2 + rng.below(2);
            let mut join: Vec<Conjunct> = (0..n)
                .map(|i| {
                    let shape = SHAPES[rng.below(SHAPES.len())];
                    let regex: String = shape
                        .chars()
                        .map(|c| match c {
                            'a' | 'b' | 'c' => labels[rng.below(labels.len())].to_owned(),
                            other => other.to_string(),
                        })
                        .collect();
                    let (s, o) = if star {
                        (vars[0], vars[i + 1])
                    } else {
                        (vars[i], vars[i + 1])
                    };
                    (s.to_owned(), regex, o.to_owned(), rng.chance(50))
                })
                .collect();
            if join.iter().all(|c| !c.3) {
                join[rng.below(n)].3 = true;
            }
            join
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
        .map(|(s, r, o, approx)| {
            let operator = if *approx { "APPROX " } else { "" };
            format!("{operator}({s}, {r}, {o})")
        })
        .collect();
    let vars: Vec<String> = head.iter().map(|v| format!("?{v}")).collect();
    let text = format!("({}) <- {}", vars.join(", "), body.join(", "));
    (head, text)
}

/// The nested-loop join of the conjuncts' oracle maps — an exact conjunct
/// keeps its distance-0 pairs — as `head values → least total distance`,
/// totals up to `cap`; `None` once a partial join outgrows [`JOIN_ROWS`].
fn join_reference(
    join: &[Conjunct],
    maps: &[&BTreeMap<(String, String), u32>],
    head: &[String],
    cap: u32,
) -> Option<BTreeMap<Vec<String>, u32>> {
    let mut rows: Vec<(BTreeMap<&str, &str>, u32)> = vec![(BTreeMap::new(), 0)];
    for ((s, _, o, approx), map) in join.iter().zip(maps) {
        let mut by_subject: BTreeMap<&str, Vec<(&String, &String, u32)>> = BTreeMap::new();
        for ((x, y), &d) in map.iter().filter(|&(_, &d)| *approx || d == 0) {
            by_subject.entry(x).or_default().push((x, y, d));
        }
        let mut next = Vec::new();
        for (row, total) in &rows {
            let bound = if s.starts_with('?') {
                row.get(s.as_str()).copied()
            } else {
                Some(s.as_str())
            };
            let pairs: Vec<_> = match bound {
                Some(x) => by_subject.get(x).into_iter().flatten().collect(),
                None => by_subject.values().flatten().collect(),
            };
            for &(x, y, d) in pairs {
                let total = total + d;
                if total > cap {
                    continue;
                }
                let mut merged = row.clone();
                let fits = [(s, x), (o, y)].into_iter().all(|(term, value)| {
                    if !term.starts_with('?') {
                        return term == value;
                    }
                    *merged.entry(term.as_str()).or_insert(value.as_str()) == value.as_str()
                });
                if fits {
                    next.push((merged, total));
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

/// Random exact + APPROX joins over `case` (and the `extra` ones) against
/// the nested-loop join of the per-conjunct oracle, up to one edit: every
/// row at its distance, in non-decreasing distance, with cost guidance on
/// and off; and under several limits `k`, `k` rows of the oracle at its
/// `k` smallest distances.
fn check_joins(case: &Case, name: &str, seed: u64, extra: &[Vec<Conjunct>]) {
    let mut graph = GraphStore::new();
    for name in case.layers.iter().flatten() {
        graph.add_node(name);
    }
    for (s, p, o) in &case.triples {
        graph.add_triple(s, p, o);
    }
    let guided = Database::new(graph, Ontology::new());
    let unguided = guided.reconfigured(EvalOptions {
        cost_guided: false,
        ..guided.options().clone()
    });
    let config = ApproxConfig::default();
    let cap = config
        .insertion
        .max(config.deletion)
        .max(config.substitution);
    let costs = Costs {
        config,
        ceiling: cap,
    };
    let labels: Vec<&str> = ["p", "q", "r"]
        .into_iter()
        .filter(|l| case.triples.iter().any(|(_, p, _)| p == l))
        .collect();
    let mut oracles: HashMap<String, BTreeMap<(String, String), u32>> = HashMap::new();
    let (mut checked, mut rows_seen) = (0, 0);
    let joins = extra.iter().cloned().chain(random_joins(&labels, seed, 16));
    for join in joins {
        for (_, regex, _, _) in &join {
            if !oracles.contains_key(regex) {
                let map = oracle(case, &parse(regex).unwrap(), &costs);
                oracles.insert(regex.clone(), map);
            }
        }
        let maps: Vec<_> = join.iter().map(|c| &oracles[&c.1]).collect();
        let (head, text) = join_text(&join);
        let Some(expected) = join_reference(&join, &maps, &head, cap) else {
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
            let mode = format!("{name}, {text}, cost_guided {}", db.options().cost_guided);
            let (answers, _) = engine(db, &text, cap);
            assert_same(&distances(&answers, key), &expected, &mode);
            for k in [1, 4, 16, 64].into_iter().filter(|&k| k <= expected.len()) {
                let prepared = db.prepare(&text).unwrap();
                let request = ExecOptions::new().with_max_distance(cap).with_limit(k);
                let top = prepared.answers(&request).collect_up_to(None).unwrap();
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
    assert!(
        checked >= 6,
        "{name}: only {checked} joins were small enough"
    );
    assert!(rows_seen > 0, "{name}: every join was empty");
}

#[test]
fn approx_joins_equal_the_nested_loop_join_of_the_oracle() {
    check_joins(&generate(2), "seed 2", 2, &[]);
}

#[test]
fn an_anchored_approx_star_equals_the_nested_loop_join_of_the_oracle() {
    // Shaped like the paper's M3, `(class, type-, ?E), (?E, next, ?N),
    // (?E, prereq, ?P)`: `q` is the type edge, `n2_0` a class of some 44 of
    // the wide layer's instances, and `r` the sparse spoke.
    let conjunct = |s: &str, r: &str, o: &str, approx: bool| -> Conjunct {
        (s.to_owned(), r.to_owned(), o.to_owned(), approx)
    };
    let m3 = |approx: bool| {
        vec![
            conjunct("n2_0", "q-", "?E", approx),
            conjunct("?E", "q", "?N", approx),
            conjunct("?E", "r", "?P", approx),
        ]
    };
    let mixed = vec![
        conjunct("n2_0", "q-", "?E", false),
        conjunct("?E", "q", "?N", true),
        conjunct("?E", "r+", "?P", false),
    ];
    check_joins(
        &typed_instances_case(),
        "typed instances case",
        3,
        &[m3(false), m3(true), mixed],
    );
}
