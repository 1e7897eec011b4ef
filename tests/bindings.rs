//! The `Bindings` contract. An answer's bindings are a row of its batch,
//! read through the stream's pinned epoch in process or through the frame's
//! label table on the client; either way they must read, compare, hash and
//! print exactly as the `BTreeMap<String, String>` built from the same row
//! by collecting `(column, label)` pairs, bound cells only, last column of a
//! repeated name winning.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use omega::core::{Answer, Bindings, Database, ExecOptions, UNBOUND};
use omega::graph::GraphStore;
use omega::ontology::Ontology;
use omega_core::bytes::Writer;
use omega_protocol::Frame;
use proptest::prelude::*;

type Map = BTreeMap<String, String>;

/// Names every `get` is also asked for, bound or not.
const PROBES: [&str; 5] = ["X", "?X", "E", "", "nope"];

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Holds each `answers[i]` to `maps[i]` — `iter`, `get`, `len`, `Debug`,
/// `Hash`, `Answer::get` — and every pair of answers to the same pair of
/// maps under `Eq` and `Ord`.
fn agree(answers: &[Answer], maps: &[Map]) {
    assert_eq!(answers.len(), maps.len());
    for (answer, map) in answers.iter().zip(maps) {
        let bindings = &answer.bindings;
        let pairs: Vec<(&str, &str)> = map.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        assert_eq!(bindings.iter().collect::<Vec<_>>(), pairs);
        assert_eq!(
            (bindings.len(), bindings.is_empty()),
            (map.len(), map.is_empty())
        );
        for name in map.keys().map(String::as_str).chain(PROBES) {
            assert_eq!(
                bindings.get(name),
                map.get(name).map(String::as_str),
                "get({name:?})"
            );
            let old = map.get(name.trim_start_matches('?')).map(String::as_str);
            assert_eq!(answer.get(name), old, "Answer::get({name:?})");
        }
        assert_eq!(format!("{bindings:?}"), format!("{map:?}"));
        assert_eq!(hash_of(bindings), hash_of(map));
    }
    for (a, map_a) in answers.iter().zip(maps) {
        for (b, map_b) in answers.iter().zip(maps) {
            assert_eq!(a.bindings.cmp(&b.bindings), map_a.cmp(map_b));
            assert_eq!(a.bindings == b.bindings, map_a == map_b);
        }
    }
}

/// `answers` sent through an `Answers` frame and decoded again.
fn over_the_wire(answers: &[Answer]) -> Vec<Answer> {
    let frame = Frame::Answers {
        answers: answers.to_vec(),
    };
    match Frame::decode(&frame.encode()).expect("a frame it encoded decodes") {
        Frame::Answers { answers } => answers,
        other => panic!("decoded {other:?}"),
    }
}

/// A graph of `p` edges between twelve nodes.
fn graph(edges: &[(u8, u8)]) -> Database {
    let mut g = GraphStore::new();
    for (s, o) in edges {
        g.add_triple(&format!("n{s}"), "p", &format!("n{o}"));
    }
    Database::new(g, Ontology::new())
}

/// Bodies whose variables the heads are drawn from: a one-conjunct APPROX
/// body (the bypassed stream) and a five-variable chain through the join,
/// whose heads are wide enough to box their cells.
const BODIES: [(&str, &[&str]); 2] = [
    ("APPROX (?X, p.p, ?E)", &["X", "E"]),
    (
        "(?A, p, ?B), (?B, p, ?C), (?C, p, ?D), (?D, p, ?E)",
        &["A", "B", "C", "D", "E"],
    ),
];

/// Candidate frame columns: plain, `?`-prefixed, empty and repeated names.
const COLUMNS: [&str; 7] = ["X", "?X", "Y", "", "E", "Zed", "?Y"];
/// Candidate labels, repeats and non-ASCII included.
const LABELS: [&str; 6] = ["a", "b", "ü", "", "a b", "a"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// From `next_answer`: a random head over the body's variables, repeats
    /// allowed, read against the maps `next_row` and `label` give for the
    /// same stream — and the same answers once more after a trip through an
    /// `Answers` frame, compared across the two sources.
    #[test]
    fn stream_answers_read_as_the_map_of_their_row(
        edges in prop::collection::vec((0u8..12, 0u8..12), 1..40),
        body in 0usize..BODIES.len(),
        head in prop::collection::vec(0usize..5, 1..7),
    ) {
        let (body, variables) = BODIES[body];
        let head: Vec<String> = head
            .iter()
            .map(|&i| format!("?{}", variables[i % variables.len()]))
            .collect();
        let text = format!("({}) <- {body}", head.join(", "));
        let db = graph(&edges);
        let prepared = db.prepare(&text).expect("the head names body variables");
        let request = ExecOptions::new().with_limit(40);

        let mut rows = prepared.answers(&request);
        let mut maps = Vec::new();
        while let Some((row, _)) = rows.next_row().expect("evaluates") {
            let ids = row.to_vec();
            let map: Map = rows
                .columns()
                .iter()
                .zip(ids)
                .map(|(var, id)| (var.clone(), rows.label(id).to_owned()))
                .collect();
            maps.push(map);
        }
        let answers = prepared.execute(&request).expect("evaluates");
        agree(&answers, &maps);

        let mut both = answers.clone();
        both.extend(over_the_wire(&answers));
        prop_assert_eq!(&both[answers.len()..], &answers[..]);
        agree(&both, &[maps.clone(), maps].concat());
    }

    /// From `Frame::decode`: random columns (repeated, `?`-prefixed, more
    /// than four distinct), a label table with repeats, and rows with
    /// unbound cells; and from the same pairs collected into `Bindings`.
    #[test]
    fn decoded_answers_read_as_the_map_of_their_row(
        columns in prop::collection::vec(0usize..COLUMNS.len(), 0..8),
        labels in prop::collection::vec(0usize..LABELS.len(), 0..6),
        rows in prop::collection::vec((prop::collection::vec(0u32..8, 8..9), 0u32..4), 0..6),
    ) {
        let columns: Vec<&str> = columns.iter().map(|&i| COLUMNS[i]).collect();
        let labels: Vec<&str> = labels.iter().map(|&i| LABELS[i]).collect();
        let rows: Vec<(Vec<u32>, u32)> = rows
            .iter()
            .map(|(cells, distance)| {
                let cells = cells[..columns.len()]
                    .iter()
                    .map(|&c| if (c as usize) < labels.len() { c } else { UNBOUND })
                    .collect();
                (cells, *distance)
            })
            .collect();

        let mut w = Writer::new();
        w.put_u8(Frame::Answers { answers: Vec::new() }.encode()[0]);
        w.put_u32(columns.len() as u32);
        columns.iter().for_each(|name| w.put_str(name));
        w.put_u32(labels.len() as u32);
        labels.iter().for_each(|label| w.put_str(label));
        w.put_u32(rows.len() as u32);
        let mut pairs = Vec::new();
        for (cells, distance) in &rows {
            w.put_u32(*distance);
            cells.iter().for_each(|&cell| w.put_u32(cell));
            let bound = columns.iter().zip(cells).filter(|(_, &cell)| cell != UNBOUND);
            pairs.push(bound.map(|(name, &cell)| (name.to_string(), labels[cell as usize].to_owned())).collect::<Vec<_>>());
        }
        let decoded = match Frame::decode(&w.into_inner()).expect("a well-formed frame") {
            Frame::Answers { answers } => answers,
            other => panic!("decoded {other:?}"),
        };
        let maps: Vec<Map> = pairs.iter().map(|p| p.iter().cloned().collect()).collect();
        agree(&decoded, &maps);

        let built: Vec<Answer> = pairs
            .into_iter()
            .zip(&rows)
            .map(|(p, (_, distance))| Answer { bindings: p.into_iter().collect::<Bindings>(), distance: *distance })
            .collect();
        prop_assert_eq!(&built, &decoded);
        let mut both = decoded.clone();
        both.extend(over_the_wire(&built));
        agree(&both, &[maps.clone(), maps].concat());
    }
}

/// An in-process answer holds the epoch it was read from: kept across an
/// `apply` that removes its edge, a `compact`, another `apply` and the
/// database's own drop, it still reads that epoch's labels — among them a
/// node the overlay created.
#[test]
fn an_answer_keeps_its_epoch_across_apply_and_compact() {
    let db = graph(&[(0, 1)]);
    let mut batch = db.begin_mutation();
    batch.add("n1", "p", "fresh");
    db.apply(&batch).expect("applies");
    let text = "(?X, ?Y) <- (?X, p, ?Y)";
    let kept = db.execute(text, &ExecOptions::new()).expect("evaluates");
    let read = |answers: &[Answer]| -> Vec<String> {
        let mut read: Vec<String> = answers.iter().map(|a| format!("{a}")).collect();
        read.sort();
        read
    };
    let expected = [
        "[?X=n0, ?Y=n1] @ distance 0",
        "[?X=n1, ?Y=fresh] @ distance 0",
    ];
    assert_eq!(read(&kept), expected);

    let mut batch = db.begin_mutation();
    batch.remove("n0", "p", "n1").remove("n1", "p", "fresh");
    db.apply(&batch).expect("applies");
    db.compact();
    let mut batch = db.begin_mutation();
    batch.add("n0", "p", "later");
    db.apply(&batch).expect("applies");
    let now = db.execute(text, &ExecOptions::new()).expect("evaluates");
    assert_eq!(read(&now), ["[?X=n0, ?Y=later] @ distance 0"]);
    drop((now, db));
    assert_eq!(read(&kept), expected);
    assert!(kept.iter().any(|a| a.get("Y") == Some("fresh")));
}
