//! An oracle for APPROX distances that owes nothing to the engine.
//!
//! The paper's contribution is the distance an APPROX answer carries: the
//! fewest unit edits (insert, delete or substitute one symbol, either
//! direction — the costs `ApproxConfig::default()` documents) that turn the
//! label word of some path from `x` to `y` into a word of `L(R)`. This file
//! computes that number the slow way and compares it with what the engine
//! returns, up to distance 2, with cost guidance on and off. It shares no
//! code with `omega_automata` or `omega_core::eval`: paths are enumerated
//! over its own adjacency lists, and each path word's distance is found by
//! breadth-first search over edited words, each candidate checked with
//! `omega_regex::oracle::matches` (itself a naive matcher over the AST).
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
//! raised together. Every stream is also checked to come out in
//! non-decreasing distance: a raise the occupancy probe should not have
//! made would emit an exact answer after an inexact one.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use omega::core::EvalStats;
use omega::regex::oracle::matches;
use omega::regex::{parse, RpqRegex, Symbol};
use omega::{Answer, Database, ExecOptions, GraphStore, Ontology};

/// The distance ceiling compared.
const MAX_DISTANCE: u32 = 2;

/// Nodes in the wide layer: more than two blocks of 64.
const WIDE: usize = 2 * 64 + 5;

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
    let layers: Vec<Vec<String>> = (0..4)
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

/// Query shapes over `a`, `b`, `c` (bound to labels per case), with the
/// longest path word that can be within [`MAX_DISTANCE`] of `L(R)`:
/// `None` for the forward-only closures, bounded by the DAG instead.
const SHAPES: &[(&str, Option<usize>)] = &[
    ("a", Some(1)),
    ("a.b", Some(2)),
    ("a-.b", Some(2)),
    ("a.b-.c", Some(3)),
    ("(a|b-).c", Some(2)),
    ("a+", None),
    ("a.b+", None),
];

/// Every symbol of `regex`: the only symbols an edit that can help
/// introduces (one that `R` cannot match would have to be edited out again).
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

/// The fewest unit edits turning `word` into a word of `L(regex)`, if at
/// most [`MAX_DISTANCE`]: breadth-first over edited words.
fn edit_distance(regex: &RpqRegex, alphabet: &[Symbol], word: &[Symbol]) -> Option<u32> {
    if matches(regex, word) {
        return Some(0);
    }
    let mut seen: BTreeSet<Vec<Symbol>> = BTreeSet::from([word.to_vec()]);
    let mut frontier = vec![word.to_vec()];
    for distance in 1..=MAX_DISTANCE {
        let mut next = Vec::new();
        for w in &frontier {
            let mut edits = Vec::new();
            for i in 0..w.len() {
                let mut deleted = w.clone();
                deleted.remove(i);
                edits.push(deleted);
                for s in alphabet {
                    let mut substituted = w.clone();
                    substituted[i] = s.clone();
                    edits.push(substituted);
                }
            }
            for i in 0..=w.len() {
                for s in alphabet {
                    let mut inserted = w.clone();
                    inserted.insert(i, s.clone());
                    edits.push(inserted);
                }
            }
            for edited in edits {
                if seen.insert(edited.clone()) {
                    if matches(regex, &edited) {
                        return Some(distance);
                    }
                    next.push(edited);
                }
            }
        }
        frontier = next;
    }
    None
}

/// `(x, y) → min distance ≤ MAX_DISTANCE` for every start node: every path
/// word from each start, each with the nodes it can end at, up to `max_len`
/// symbols and at most [`MAX_DISTANCE`] symbols `R` cannot match.
fn oracle(
    case: &Case,
    regex: &RpqRegex,
    max_len: usize,
    memo: &mut HashMap<Vec<Symbol>, Option<u32>>,
) -> BTreeMap<(String, String), u32> {
    let mut alphabet = BTreeSet::new();
    symbols(regex, &mut alphabet);
    let alphabet: Vec<Symbol> = alphabet.into_iter().collect();
    let mut steps: BTreeMap<&str, Vec<(Symbol, &str)>> = BTreeMap::new();
    for (s, p, o) in &case.triples {
        steps.entry(s).or_default().push((Symbol::forward(p), o));
        steps.entry(o).or_default().push((Symbol::inverse(p), s));
    }
    let mut best = BTreeMap::new();
    for start in case.layers.iter().flatten() {
        // Words as keys, the nodes each one can end at as values: paths
        // sharing a word share its distance.
        let mut level: BTreeMap<Vec<Symbol>, BTreeSet<&str>> =
            BTreeMap::from([(Vec::new(), BTreeSet::from([start.as_str()]))]);
        for length in 0..=max_len {
            let mut next: BTreeMap<Vec<Symbol>, BTreeSet<&str>> = BTreeMap::new();
            for (word, ends) in &level {
                let d = *memo
                    .entry(word.clone())
                    .or_insert_with(|| edit_distance(regex, &alphabet, word));
                if let Some(d) = d {
                    for end in ends {
                        let slot = best.entry((start.clone(), end.to_string())).or_insert(d);
                        *slot = (*slot).min(d);
                    }
                }
                if length == max_len {
                    continue;
                }
                for end in ends {
                    for (symbol, to) in steps.get(end).into_iter().flatten() {
                        let mut extended = word.clone();
                        extended.push(symbol.clone());
                        let foreign = extended.iter().filter(|s| !alphabet.contains(s)).count();
                        if foreign as u32 <= MAX_DISTANCE {
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

/// Every answer the engine returns up to [`MAX_DISTANCE`], and its stats;
/// asserts that they come out in non-decreasing distance.
fn engine(db: &Database, text: &str, cost_guided: bool) -> (Vec<Answer>, EvalStats) {
    let prepared = db.prepare(text).unwrap();
    let request = ExecOptions::new()
        .with_max_distance(MAX_DISTANCE)
        .with_cost_guided(cost_guided);
    let mut stream = prepared.answers(&request);
    let answers = stream.collect_up_to(None).unwrap();
    if let Some(i) = (1..answers.len()).find(|&i| answers[i].distance < answers[i - 1].distance) {
        panic!(
            "{text}, cost_guided {cost_guided}: answer {i} at distance {} follows one at {}",
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
    check(&generate(seed), &format!("seed {seed}"), |i, k| i + k + 2);
}

#[test]
fn approx_distances_equal_the_oracle_with_a_hub_one_layer_down() {
    let seed = 1;
    check(&generate(seed), &format!("seed {seed}"), |i, k| i + k + 1);
}

#[test]
fn approx_distances_equal_the_oracle_where_hub_members_mostly_lack_the_next_label() {
    // `a` is always the hub's label `p`, `b` is `q`, `c` is `r`.
    check(&hub_case(), "hub case", |_, k| k);
}

#[test]
fn approx_distances_equal_the_oracle_where_an_insertion_reaches_typed_instances() {
    // `a` is `q` (the type edge), `b` is `r`, `c` is `p`: shape `a.b+` is Q8.
    check(&typed_instances_case(), "typed instances case", |_, k| {
        k + 1
    });
}

/// Every shape over `case`, with its labels `a`, `b`, `c` for shape `i` the
/// present labels at `pick(i, 0..3)` (mod their number), from every node and
/// from the first root, with cost guidance on and off.
fn check(case: &Case, name: &str, pick: impl Fn(usize, usize) -> usize) {
    let mut graph = GraphStore::new();
    // Nodes without edges too: every node pairs with itself at the cost of
    // deleting the shortest query word.
    for name in case.layers.iter().flatten() {
        graph.add_node(name);
    }
    for (s, p, o) in &case.triples {
        graph.add_triple(s, p, o);
    }
    let db = Database::new(graph, Ontology::new());
    let labels: Vec<&str> = ["p", "q", "r"]
        .into_iter()
        .filter(|l| case.triples.iter().any(|(_, p, _)| p == l))
        .collect();
    let root = &case.layers[0][0];
    let (mut cursor_blocks, mut raised_keys) = (0, 0);
    for (i, &(shape, bound)) in SHAPES.iter().enumerate() {
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
        let regex = parse(&text).unwrap();
        // Each edit changes a word's length by at most one. A forward-only
        // closure matches forward paths, at most depth − 1 long; each of the
        // ≤ 2 unmatched symbols can step back a layer, buying one more
        // forward step.
        let depth = case.layers.len();
        let max_len = bound.map_or(depth - 1 + 2 * MAX_DISTANCE as usize, |m| {
            m + MAX_DISTANCE as usize
        });
        let expected = oracle(case, &regex, max_len, &mut HashMap::new());
        let from_root: BTreeMap<String, u32> = expected
            .iter()
            .filter(|((x, _), _)| x == root)
            .map(|((_, y), &d)| (y.clone(), d))
            .collect();
        for cost_guided in [true, false] {
            let all = format!("(?X, ?Y) <- APPROX (?X, {text}, ?Y)");
            let (answers, stats) = engine(&db, &all, cost_guided);
            cursor_blocks += stats.cursor_blocks;
            raised_keys += stats.raised_keys;
            let got = distances(&answers, |a| {
                (
                    a.get("X").unwrap().to_owned(),
                    a.get("Y").unwrap().to_owned(),
                )
            });
            let context = format!("{name}, {all}, cost_guided {cost_guided}");
            assert_same(&got, &expected, &context);
            // A constant subject seeds one node instead of every node.
            let one = format!("(?Y) <- APPROX ({root}, {text}, ?Y)");
            let (answers, stats) = engine(&db, &one, cost_guided);
            raised_keys += stats.raised_keys;
            let got = distances(&answers, |a| a.get("Y").unwrap().to_owned());
            let context = format!("{name}, {one}, cost_guided {cost_guided}");
            assert_same(&got, &from_root, &context);
        }
    }
    assert!(cursor_blocks > 0, "no query read the hub through a cursor");
    assert!(raised_keys > 0, "no cursor release was raised");
}
