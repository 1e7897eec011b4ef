//! Cross-crate property tests: on random small graphs, the ranked evaluator,
//! the BFS baseline and the optimised drivers must agree, the flexible
//! operators must behave monotonically, and the prepared/service API must be
//! indistinguishable from one-shot execution — including under concurrency.

use std::sync::Arc;

use omega::core::{parse_query, Bindings, Database, EvalOptions, ExecOptions};
use omega::graph::GraphStore;
use omega::ontology::Ontology;
use omega_bench::BaselineEvaluator;
use proptest::prelude::*;

const LABELS: [&str; 4] = ["p", "q", "r", "type"];

fn graph_strategy() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    prop::collection::vec((0u8..12, 0usize..LABELS.len(), 0u8..12), 1..60)
}

/// Maps one random op to the concrete triple `build` would insert: `type`
/// targets a small set of class nodes so RELAX has something to work with.
fn materialise(s: u8, p: usize, o: u8) -> (String, String, String) {
    if LABELS[p] == "type" {
        (format!("n{s}"), "type".to_owned(), format!("C{}", o % 3))
    } else {
        (format!("n{s}"), LABELS[p].to_owned(), format!("n{o}"))
    }
}

/// The shared ontology shape over whatever classes/properties `g` holds.
fn attach_ontology(g: &mut GraphStore) -> Ontology {
    let mut o = Ontology::new();
    let root = g.add_node("CRoot");
    for c in 0..3 {
        if let Some(class) = g.node_by_label(&format!("C{c}")) {
            let _ = o.add_subclass(class, root);
        }
    }
    if let (Some(p), Some(q)) = (g.label_id("p"), g.label_id("q")) {
        let super_p = g.intern_label("super_p");
        let _ = o.add_subproperty(p, super_p);
        let _ = o.add_subproperty(q, super_p);
    }
    o
}

fn build(triples: &[(u8, usize, u8)]) -> (GraphStore, Ontology) {
    let mut g = GraphStore::new();
    for (s, p, o) in triples {
        let (subject, label, object) = materialise(*s, *p, *o);
        g.add_triple(&subject, &label, &object);
    }
    let o = attach_ontology(&mut g);
    (g, o)
}

const QUERIES: [&str; 6] = [
    "(?X, ?Y) <- (?X, p.q, ?Y)",
    "(?X, ?Y) <- (?X, p+, ?Y)",
    "(?X, ?Y) <- (?X, (p|q).r, ?Y)",
    "(?X, ?Y) <- (?X, p*.q, ?Y)",
    "(?X, ?Y) <- (?X, q-.p, ?Y)",
    "(?X, ?Y) <- (?X, type.type-, ?Y)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The ranked evaluator's distance-0 answers equal the BFS baseline's
    /// answers on every query and random graph.
    #[test]
    fn ranked_matches_bfs_baseline(triples in graph_strategy(), qi in 0usize..QUERIES.len()) {
        let (g, o) = build(&triples);
        let query = parse_query(QUERIES[qi]).unwrap();
        let options = EvalOptions::default();
        let mut baseline = BaselineEvaluator::new(&query.conjuncts[0], &g, &o, &options).unwrap();
        let mut expected: Vec<_> = baseline.run().iter().map(|a| (a.x, a.y)).collect();
        expected.sort_unstable();
        expected.dedup();

        let db = Database::with_options(g.clone(), o.clone(), options);
        let prepared = db.prepare(QUERIES[qi]).unwrap();
        let mut stream_answers = Vec::new();
        for answer in prepared.answers(&ExecOptions::new()) {
            let a = answer.unwrap();
            if a.distance == 0 {
                let x = g.node_by_label(a.get("X").unwrap()).unwrap();
                let y = g.node_by_label(a.get("Y").unwrap()).unwrap();
                stream_answers.push((x, y));
            }
        }
        stream_answers.sort_unstable();
        stream_answers.dedup();
        prop_assert_eq!(expected, stream_answers);
    }

    /// APPROX answers are a superset of exact answers, arrive sorted by
    /// distance, and the exact ones sit at distance 0.
    #[test]
    fn approx_is_a_sorted_superset(triples in graph_strategy(), qi in 0usize..QUERIES.len()) {
        let (g, o) = build(&triples);
        let db = Database::new(g, o);
        let exact = db.execute(QUERIES[qi], &ExecOptions::new()).unwrap();
        let approx_text = QUERIES[qi].replacen("<- (", "<- APPROX (", 1);
        let approx = db
            .execute(&approx_text, &ExecOptions::new().with_limit(200))
            .unwrap();
        let distances: Vec<u32> = approx.iter().map(|a| a.distance).collect();
        let mut sorted = distances.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&distances, &sorted);
        let zero = approx.iter().filter(|a| a.distance == 0).count();
        prop_assert_eq!(zero, exact.len().min(200));
    }

    /// A prepared query executed twice sequentially — and concurrently from
    /// four threads sharing one `Database` — yields exactly the answers and
    /// distances (including their order) of a one-shot uncached compile on a
    /// second, freshly built `Database`.
    #[test]
    fn prepared_execution_matches_one_shot(triples in graph_strategy(), qi in 0usize..QUERIES.len(), flex in 0usize..2) {
        let (g, o) = build(&triples);
        let operator = ["APPROX ", "RELAX "][flex];
        let text = QUERIES[qi].replacen("<- (", &format!("<- {operator}("), 1);

        let reference: Vec<_> = Database::new(g.clone(), o.clone())
            .prepare_uncached(&text)
            .unwrap()
            .execute(&ExecOptions::new())
            .unwrap()
            .into_iter()
            .map(|a| (a.bindings, a.distance))
            .collect();

        let db = Database::new(g, o);
        let prepared = db.prepare(&text).unwrap();
        for _ in 0..2 {
            let got: Vec<_> = prepared
                .execute(&ExecOptions::new())
                .unwrap()
                .into_iter()
                .map(|a| (a.bindings, a.distance))
                .collect();
            prop_assert_eq!(&got, &reference);
        }

        let mut concurrent = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let db = db.clone();
                    let text = text.clone();
                    scope.spawn(move || {
                        // Each worker goes through the shared cache: all four
                        // end up executing the same compiled plans.
                        let prepared = db.prepare(&text).unwrap();
                        prepared.execute(&ExecOptions::new()).unwrap()
                    })
                })
                .collect();
            for handle in handles {
                concurrent.push(handle.join().unwrap());
            }
        });
        for answers in concurrent {
            let got: Vec<_> = answers
                .into_iter()
                .map(|a| (a.bindings, a.distance))
                .collect();
            prop_assert_eq!(&got, &reference);
        }
    }

    /// The frozen CSR backend is indistinguishable from the hash-map builder
    /// adjacency: identical neighbour slices at the storage layer, and
    /// identical answer sets *and distances* from the evaluator, for every
    /// query mode.
    #[test]
    fn csr_backend_matches_builder_adjacency(triples in graph_strategy(), qi in 0usize..QUERIES.len()) {
        use omega::core::{AnswerStream, ConjunctEvaluator};
        use omega::graph::Direction;

        let (builder_graph, o) = build(&triples);
        let mut frozen_graph = builder_graph.clone();
        frozen_graph.freeze();
        prop_assert!(frozen_graph.is_frozen());
        prop_assert!(!builder_graph.is_frozen());

        // Storage layer: every (node, label, direction) neighbour slice and
        // both mixed-label views must agree between the representations.
        for node in builder_graph.node_ids() {
            for (label, _) in builder_graph.labels() {
                for dir in [Direction::Outgoing, Direction::Incoming] {
                    prop_assert_eq!(
                        builder_graph.neighbors_iter(node, label, dir).collect::<Vec<_>>(),
                        frozen_graph.neighbors_iter(node, label, dir).collect::<Vec<_>>()
                    );
                }
            }
            for dir in [Direction::Outgoing, Direction::Incoming] {
                prop_assert_eq!(
                    builder_graph.neighbors_any_iter(node, dir).collect::<Vec<_>>(),
                    frozen_graph.neighbors_any_iter(node, dir).collect::<Vec<_>>()
                );
            }
        }
        for (label, _) in builder_graph.labels() {
            prop_assert_eq!(builder_graph.heads(label), frozen_graph.heads(label));
            prop_assert_eq!(builder_graph.tails(label), frozen_graph.tails(label));
        }

        // Evaluator layer: answer sets and distances agree in every mode.
        for operator in ["", "APPROX ", "RELAX "] {
            let text = QUERIES[qi].replacen("<- (", &format!("<- {operator}("), 1);
            let query = parse_query(&text).unwrap();
            let options = EvalOptions::default();
            let answers_on = |g: &omega::graph::GraphStore| {
                let plan = omega::core::eval::compile_conjunct(
                    &query.conjuncts[0],
                    g,
                    &o,
                    &options,
                )
                .unwrap();
                let mut eval =
                    ConjunctEvaluator::new(Arc::new(plan), g, &o, &ExecOptions::new(), None);
                let mut v: Vec<_> = eval
                    .collect(Some(500))
                    .unwrap()
                    .into_iter()
                    .map(|a| (a.x, a.y, a.distance))
                    .collect();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(
                answers_on(&builder_graph),
                answers_on(&frozen_graph),
                "CSR answers diverge for {}", text
            );
        }
    }

    /// Bound admissibility, end to end: cost-guided evaluation (A* `f = g+h`
    /// ordering, dead-state and `g+h` pruning, deferred expansion) and plain
    /// `g`-ordered evaluation (the ablation, set on the base options)
    /// produce the same answers at the same distances, in the same
    /// non-decreasing distance sequence rank by rank, with equal
    /// `EvalStats.answers` — on random graphs, in every operator mode.
    /// Order *within* one distance
    /// class is the only thing allowed to differ (both orderings emit each
    /// distance class completely before the next).
    #[test]
    fn cost_guided_matches_unguided(triples in graph_strategy(), qi in 0usize..QUERIES.len(), flex in 0usize..3) {
        let (g, o) = build(&triples);
        let db = Database::new(g, o);
        let unguided = unguided(&db);
        let operator = ["", "APPROX ", "RELAX "][flex];
        let text = QUERIES[qi].replacen("<- (", &format!("<- {operator}("), 1);
        // Flexible full drains are huge on some random graphs; a generous
        // limit keeps the test fast while still crossing several distance
        // classes.
        let cap = 300usize;
        let collect = |db: &Database| {
            let prepared = db.prepare(&text).unwrap();
            let mut stream = prepared.answers(&ExecOptions::new().with_limit(cap));
            let mut rows = Vec::new();
            for answer in stream.by_ref() {
                let a = answer.unwrap();
                rows.push((a.bindings, a.distance));
            }
            (rows, stream.stats())
        };
        let (on, on_stats) = collect(&db);
        let (off, off_stats) = collect(&unguided);

        // Identical distance sequence, rank by rank.
        let dist = |rows: &[(Bindings, u32)]| {
            rows.iter().map(|(_, d)| *d).collect::<Vec<_>>()
        };
        prop_assert_eq!(dist(&on), dist(&off), "distance ranks diverge for {}", text);
        // Identical answers per distance class (hence identical sorted
        // sequences); with a limit the last class may be truncated
        // differently, so compare the complete classes and containment of
        // the truncated one.
        let last_complete = if on.len() < cap { u32::MAX } else {
            on.last().map_or(u32::MAX, |(_, d)| d.saturating_sub(1))
        };
        let class_set = |rows: &[(Bindings, u32)], upto: u32| {
            let mut v: Vec<_> = rows.iter().filter(|(_, d)| *d <= upto).cloned().collect();
            v.sort();
            v
        };
        prop_assert_eq!(
            class_set(&on, last_complete),
            class_set(&off, last_complete),
            "per-distance answer sets diverge for {}", text
        );
        if on.len() < cap {
            // Fully drained: everything must agree, including the counters'
            // `answers` (the per-conjunct emission counts).
            prop_assert_eq!(on_stats.answers, off_stats.answers);
            prop_assert_eq!(class_set(&on, u32::MAX), class_set(&off, u32::MAX));
        }
    }

    /// A `LIMIT k` cost-guided run returns exactly a prefix-compatible
    /// selection of the unguided full drain: same length, same distance at
    /// every rank, every answer present in the full set at that distance.
    #[test]
    fn cost_guided_limited_prefixes_are_consistent(triples in graph_strategy(), qi in 0usize..QUERIES.len(), k in 1usize..8) {
        let (g, o) = build(&triples);
        let db = Database::new(g, o);
        let text = QUERIES[qi].replacen("<- (", "<- APPROX (", 1);
        let full: Vec<_> = unguided(&db)
            .prepare(&text)
            .unwrap()
            .execute(&ExecOptions::new().with_limit(500))
            .unwrap()
            .into_iter()
            .map(|a| (a.bindings, a.distance))
            .collect();
        let limited: Vec<_> = db
            .prepare(&text)
            .unwrap()
            .execute(&ExecOptions::new().with_limit(k))
            .unwrap()
            .into_iter()
            .map(|a| (a.bindings, a.distance))
            .collect();
        prop_assert_eq!(limited.len(), full.len().min(k));
        for (i, (bindings, d)) in limited.iter().enumerate() {
            prop_assert_eq!(*d, full[i].1, "rank-{} distance diverges for {}", i, text);
            prop_assert!(
                full.iter().any(|(b, fd)| b == bindings && fd == d),
                "limited answer missing from the full drain for {}", text
            );
        }
    }

    /// Interleaved freeze/mutate/query sequences: after every mutation
    /// batch the live database (frozen CSR + delta overlay) must be
    /// indistinguishable from a database rebuilt from scratch over the
    /// effective edge set — same `edge_count`, same node-index lookups,
    /// same answer sets — while statements prepared at earlier epochs keep
    /// answering bit-identically (answers *and* stats) from their pinned
    /// epoch. Compaction and the snapshot hydrate path (including mutating
    /// a snapshot-loaded store) preserve all of it.
    #[test]
    fn interleaved_mutations_match_a_rebuilt_graph_and_pin_epochs(
        triples in graph_strategy(),
        script in prop::collection::vec(
            prop::collection::vec(
                (any::<bool>(), 0u8..12, 0usize..LABELS.len(), 0u8..12),
                1..8,
            ),
            1..4,
        ),
        qi in 0usize..QUERIES.len(),
    ) {
        let (g, o) = build(&triples);
        let db = Database::new(g, o);
        let request = ExecOptions::new().with_limit(300);
        let approx_text = QUERIES[qi].replacen("<- (", "<- APPROX (", 1);

        // The model: the effective edge set, mutated in lockstep.
        let mut effective: std::collections::BTreeSet<(String, String, String)> = triples
            .iter()
            .map(|(s, p, o)| materialise(*s, *p, *o))
            .collect();

        let sorted_rows = |db: &Database, text: &str| {
            let mut v: Vec<_> = db
                .execute(text, &request)
                .unwrap()
                .into_iter()
                .map(|a| (a.bindings, a.distance))
                .collect();
            v.sort();
            v
        };
        let rebuilt = |set: &std::collections::BTreeSet<(String, String, String)>| {
            let mut g = GraphStore::new();
            for (s, l, t) in set {
                g.add_triple(s, l, t);
            }
            let o = attach_ontology(&mut g);
            Database::new(g, o)
        };
        let check_epoch = |db: &Database,
                           set: &std::collections::BTreeSet<(String, String, String)>| {
            prop_assert_eq!(db.graph().edge_count(), set.len(), "edge_count diverged at epoch {}", db.epoch());
            for (s, _, t) in set {
                prop_assert!(db.graph().node_by_label(s).is_some(), "lost node {}", s);
                prop_assert!(db.graph().node_by_label(t).is_some(), "lost node {}", t);
            }
            let reference = rebuilt(set);
            for text in [QUERIES[qi], approx_text.as_str()] {
                prop_assert_eq!(
                    sorted_rows(db, text),
                    sorted_rows(&reference, text),
                    "live overlay diverged from a rebuilt graph at epoch {} for {}", db.epoch(), text
                );
            }
        };
        // Pins one statement at the current epoch with its full output.
        let pin = |db: &Database| {
            let prepared = db.prepare(&approx_text).unwrap();
            let mut got = Vec::new();
            let stats;
            {
                let mut stream = prepared.answers(&request);
                for answer in stream.by_ref() {
                    got.push(answer.unwrap());
                }
                stats = stream.stats();
            }
            (prepared, got, stats)
        };

        check_epoch(&db, &effective);
        let mut pinned = vec![pin(&db)];
        for ops in &script {
            let mut batch = db.begin_mutation();
            for (is_add, s, p, o) in ops {
                let (subject, label, object) = materialise(*s, *p, *o);
                if *is_add {
                    batch.add(&subject, &label, &object);
                    effective.insert((subject, label, object));
                } else {
                    batch.remove(&subject, &label, &object);
                    effective.remove(&(subject, label, object));
                }
            }
            db.apply(&batch).unwrap();
            check_epoch(&db, &effective);
            pinned.push(pin(&db));
        }

        // Compaction folds the overlay without changing what is served.
        db.compact();
        check_epoch(&db, &effective);

        // Every pinned statement still answers bit-identically from its
        // epoch — mutations and compaction never reached it.
        for (prepared, expected, expected_stats) in &pinned {
            let mut stream = prepared.answers(&request);
            let mut again = Vec::new();
            for answer in stream.by_ref() {
                again.push(answer.unwrap());
            }
            prop_assert_eq!(&again, expected, "pinned statement drifted");
            prop_assert_eq!(&stream.stats(), expected_stats, "pinned stats drifted");
        }

        // The hydrate path: a snapshot of the live database reopens into an
        // equivalent store, which itself accepts further mutations.
        static SNAP: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "omega-prop-live-{}-{}.snap",
            std::process::id(),
            SNAP.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
        ));
        db.save_snapshot(&path).unwrap();
        let hydrated = Database::open_snapshot(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        check_epoch(&hydrated, &effective);
        let mut batch = hydrated.begin_mutation();
        let mut after = effective.clone();
        for (is_add, s, p, o) in &script[0] {
            let (subject, label, object) = materialise(*s, *p, *o);
            if *is_add {
                batch.add(&subject, &label, &object);
                after.insert((subject, label, object));
            } else {
                batch.remove(&subject, &label, &object);
                after.remove(&(subject, label, object));
            }
        }
        hydrated.apply(&batch).unwrap();
        check_epoch(&hydrated, &after);
    }

    /// The two Section 4.3 drivers, built around the compiled conjunct,
    /// return the answer multiset of the plain evaluator's full drain: the
    /// distance-aware driver on every APPROX query, the disjunction driver on
    /// the top-level alternation (the last query).
    #[test]
    fn optimised_drivers_agree_with_plain(triples in graph_strategy(), qi in 0usize..QUERIES.len() + 1) {
        use omega::core::eval::{compile_conjunct, evaluate_conjunct};
        use omega::core::AnswerStream;
        use omega_bench::{DisjunctionEvaluator, DistanceAwareEvaluator};
        let (g, o) = build(&triples);
        let exact = QUERIES.get(qi).copied().unwrap_or("(?X, ?Y) <- (?X, (p.q)|r, ?Y)");
        let approx_text = exact.replacen("<- (", "<- APPROX (", 1);
        let query = parse_query(&approx_text).unwrap();
        let conjunct = &query.conjuncts[0];
        let options = EvalOptions::default();
        let multiset = |stream: &mut dyn AnswerStream| {
            let mut v: Vec<_> = stream
                .collect(None)
                .unwrap()
                .iter()
                .map(|a| (a.x, a.y, a.distance))
                .collect();
            v.sort_unstable();
            v
        };
        let plain = multiset(&mut evaluate_conjunct(conjunct, &g, &o, &options).unwrap());
        let plan = Arc::new(compile_conjunct(conjunct, &g, &o, &options).unwrap());
        let request = ExecOptions::new();
        let mut aware = DistanceAwareEvaluator::new(plan, &g, &o, &options, &request);
        prop_assert_eq!(&plain, &multiset(&mut aware), "{}", approx_text);
        let arms = DisjunctionEvaluator::try_new(conjunct, &g, &o, &options, &request).unwrap();
        prop_assert_eq!(arms.is_some(), qi == QUERIES.len(), "{}", approx_text);
        if let Some(mut arms) = arms {
            prop_assert_eq!(&plain, &multiset(&mut arms), "{}", approx_text);
        }
    }
}

/// The full triple set a store currently serves (overlay-aware).
fn triple_set(g: &GraphStore) -> std::collections::BTreeSet<(String, String, String)> {
    g.edges()
        .map(|e| {
            (
                g.node_label(e.source).to_owned(),
                g.label_name(e.label).to_owned(),
                g.node_label(e.target).to_owned(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The crash-fault soak of the write-ahead log: on random graphs and
    /// mutation scripts, cut the log at EVERY byte offset inside the final
    /// record — and separately corrupt every byte of it — and recovery must
    /// yield exactly the acknowledged-prefix graph (all batches but the
    /// last), match a database rebuilt from scratch over that prefix, and
    /// never panic. A cut at the exact record boundary is the clean-crash
    /// case and recovers the full history.
    #[test]
    fn wal_recovers_the_acknowledged_prefix_at_every_torn_byte(
        triples in graph_strategy(),
        script in prop::collection::vec(
            prop::collection::vec(
                (any::<bool>(), 0u8..12, 0usize..LABELS.len(), 0u8..12),
                1..5,
            ),
            1..4,
        ),
    ) {
        use omega::core::{FsyncPolicy, GovernorConfig, WalConfig};
        use omega::graph::wal::WAL_FILE;

        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let fresh_dir = || {
            let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let dir = std::env::temp_dir().join(format!(
                "omega-prop-wal-{}-{n}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };
        let open_over = |dir: &std::path::PathBuf| {
            let (g, o) = build(&triples);
            Database::with_governor_durable(
                g,
                o,
                EvalOptions::default(),
                GovernorConfig::default(),
                &WalConfig::new(dir).with_fsync(FsyncPolicy::Never),
            )
            .expect("durable open must not fail on a damaged log")
        };

        // Write the history: one WAL record per batch, tracking the
        // effective edge set after each acknowledged prefix and the log
        // length at each record boundary.
        let dir = fresh_dir();
        let (db, _) = open_over(&dir);
        let mut effective = triple_set(&db.graph());
        let mut prefixes = vec![effective.clone()];
        let log_path = dir.join(WAL_FILE);
        let mut boundaries = vec![std::fs::metadata(&log_path).unwrap().len()];
        for ops in &script {
            let mut batch = db.begin_mutation();
            for (is_add, s, p, o) in ops {
                let (subject, label, object) = materialise(*s, *p, *o);
                if *is_add {
                    batch.add(&subject, &label, &object);
                    effective.insert((subject, label, object));
                } else {
                    batch.remove(&subject, &label, &object);
                    effective.remove(&(subject, label, object));
                }
            }
            db.apply(&batch).unwrap();
            prefixes.push(effective.clone());
            boundaries.push(std::fs::metadata(&log_path).unwrap().len());
        }
        drop(db);
        let log = std::fs::read(&log_path).unwrap();
        prop_assert_eq!(log.len() as u64, *boundaries.last().unwrap());
        let final_start = boundaries[boundaries.len() - 2] as usize;
        let acknowledged = &prefixes[prefixes.len() - 2];
        let records_before_final = (script.len() - 1) as u64;

        // One full evaluator-level check: the acknowledged prefix answers
        // like a rebuilt reference (the cheap per-offset check below is
        // edge-set equality, which the overlay tests tie to answers).
        {
            let crash_dir = fresh_dir();
            std::fs::create_dir_all(&crash_dir).unwrap();
            std::fs::write(crash_dir.join(WAL_FILE), &log[..final_start]).unwrap();
            let (recovered, report) = open_over(&crash_dir);
            prop_assert_eq!(report.records, records_before_final);
            prop_assert_eq!(report.truncated_bytes, 0, "boundary cut is clean");
            let reference = {
                let mut g = GraphStore::new();
                for (s, l, t) in acknowledged {
                    g.add_triple(s, l, t);
                }
                let o = attach_ontology(&mut g);
                Database::new(g, o)
            };
            let request = ExecOptions::new().with_limit(300);
            for text in [QUERIES[0], QUERIES[1]] {
                let rows = |db: &Database| {
                    let mut v: Vec<_> = db
                        .execute(text, &request)
                        .unwrap()
                        .into_iter()
                        .map(|a| (a.bindings, a.distance))
                        .collect();
                    v.sort();
                    v
                };
                prop_assert_eq!(rows(&recovered), rows(&reference));
            }
            let _ = std::fs::remove_dir_all(&crash_dir);
        }

        // Every torn-write length: log cut mid-final-record.
        for cut in final_start + 1..log.len() {
            let crash_dir = fresh_dir();
            std::fs::create_dir_all(&crash_dir).unwrap();
            std::fs::write(crash_dir.join(WAL_FILE), &log[..cut]).unwrap();
            let (recovered, report) = open_over(&crash_dir);
            prop_assert_eq!(
                report.records, records_before_final,
                "cut at {} of {} replayed the wrong prefix", cut, log.len()
            );
            prop_assert_eq!(
                report.truncated_bytes,
                (cut - final_start) as u64,
                "torn tail not fully truncated at cut {}", cut
            );
            prop_assert_eq!(
                triple_set(&recovered.graph()),
                acknowledged.clone(),
                "recovered graph diverged from the acknowledged prefix at cut {}", cut
            );
            let _ = std::fs::remove_dir_all(&crash_dir);
        }

        // Every corrupted byte: full-length log, one byte of the final
        // record inverted (header, body or checksum — all must be caught).
        for i in final_start..log.len() {
            let crash_dir = fresh_dir();
            std::fs::create_dir_all(&crash_dir).unwrap();
            let mut damaged = log.clone();
            damaged[i] ^= 0xff;
            std::fs::write(crash_dir.join(WAL_FILE), &damaged).unwrap();
            let (recovered, report) = open_over(&crash_dir);
            prop_assert_eq!(
                report.records, records_before_final,
                "corruption at byte {} replayed the wrong prefix", i
            );
            prop_assert!(
                report.truncated_bytes > 0,
                "corruption at byte {} was not detected", i
            );
            prop_assert_eq!(
                triple_set(&recovered.graph()),
                acknowledged.clone(),
                "recovered graph diverged after corrupting byte {}", i
            );
            let _ = std::fs::remove_dir_all(&crash_dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Multi-conjunct shapes as data, so each conjunct can also be run alone:
/// `(head variables, [(subject, regex, object)])`. Between them: a chain, a
/// projection that drops the join variable, a three-way star, two conjuncts
/// sharing only their object, a constant endpoint, and a same-variable
/// conjunct.
type JoinShape = (
    &'static [&'static str],
    &'static [(&'static str, &'static str, &'static str)],
);

const JOINS: [JoinShape; 6] = [
    (&["X", "Y"], &[("?X", "p", "?Y"), ("?Y", "q", "?Z")]),
    (&["X", "Z"], &[("?X", "p.q", "?Y"), ("?X", "r", "?Z")]),
    (
        &["X", "Y", "Z"],
        &[("?X", "p", "?Y"), ("?X", "q", "?Z"), ("?X", "r", "?W")],
    ),
    (
        &["X", "C"],
        &[
            ("?X", "type", "?C"),
            ("?Y", "type", "?C"),
            ("?X", "p", "?Z"),
        ],
    ),
    (&["Y", "Z"], &[("n1", "p|q", "?Y"), ("?Y", "(q.r)|r", "?Z")]),
    (&["X", "Y"], &[("?X", "p.q-", "?X"), ("?X", "q|r", "?Y")]),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A dependent evaluator answers for what it is handed and nothing
    /// else: fed a random interleaving of pulls and seeds — nodes that are no
    /// seed, nodes handed twice, nodes released long ago and ids past the
    /// graph included — it emits exactly the plain evaluator's `(x, y,
    /// distance)` answers whose `x` it was handed, ranked between hands;
    /// and the floor it reports never exceeds an answer still to come: of
    /// its queued work until the next hand, of any seed at all. Exact
    /// queries seed on the nodes matching an initial label, the nullable one
    /// and every APPROX on all nodes; batches of 1–4 seeds leave handed
    /// seeds queued across pulls.
    #[test]
    fn dependent_seeds_restrict_answers_and_change_nothing_else(
        triples in graph_strategy(),
        qi in 0usize..QUERIES.len() + 1,
        flex in 0usize..3,
        guided in 0usize..2,
        batch in 1usize..5,
        script in prop::collection::vec((prop::collection::vec(0u32..40, 0..4), 0usize..4), 0..12),
    ) {
        use omega::core::eval::{compile_conjunct, evaluate_conjunct, AnswerStream, ConjunctEvaluator};
        let (g, o) = build(&triples);
        let exact = QUERIES.get(qi).copied().unwrap_or("(?X, ?Y) <- (?X, p*, ?Y)");
        let operator = ["", "APPROX ", "RELAX "][flex];
        let text = exact.replacen("<- (", &format!("<- {operator}("), 1);
        let query = parse_query(&text).unwrap();
        let options = EvalOptions::default()
            .with_cost_guided(guided == 0)
            .with_batch_size(batch);
        let plan = Arc::new(compile_conjunct(&query.conjuncts[0], &g, &o, &options).unwrap());
        assert!(!plan.reversed, "every query here starts from its subject");
        let mut dependent = ConjunctEvaluator::dependent(plan, &g, &o, &ExecOptions::new(), None);

        let mut got = Vec::new();
        let mut handed = std::collections::BTreeSet::new();
        // `(answers so far, floor of the queued work, floor of any seed)`
        // after each hand, and where the next hand came.
        let mut floors: Vec<(usize, Option<u32>, Option<u32>, usize)> = Vec::new();
        for (hand, pulls) in &script {
            if let Some(last) = floors.last_mut() {
                *last = (last.0, last.1, last.2, got.len());
            }
            for &n in hand {
                dependent.seed(omega::NodeId(n));
                handed.insert(omega::NodeId(n));
            }
            floors.push((got.len(), dependent.floor(false), dependent.floor(true), usize::MAX));
            for _ in 0..*pulls {
                got.extend(dependent.next_answer().unwrap());
            }
        }
        got.extend(dependent.collect(None).unwrap());
        for &(at, queued, any, until) in &floors {
            let to_come = &got[at..];
            prop_assert!(to_come.iter().all(|a| any.is_some_and(|f| f <= a.distance)), "{}", text);
            let from_queue = &got[at..until.min(got.len())];
            prop_assert!(from_queue.iter().all(|a| queued.is_some_and(|f| f <= a.distance)), "{}", text);
            prop_assert!(from_queue.windows(2).all(|w| w[0].distance <= w[1].distance), "{}", text);
        }
        let mut got: Vec<_> = got.iter().map(|a| (a.distance, a.x, a.y)).collect();
        got.sort_unstable();

        let mut plain = evaluate_conjunct(&query.conjuncts[0], &g, &o, &options).unwrap();
        let mut expected: Vec<_> = plain
            .collect(None)
            .unwrap()
            .iter()
            .filter(|a| handed.contains(&a.x))
            .map(|a| (a.distance, a.x, a.y))
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected, "{}", text);
    }
}

/// The text of a query over `conjuncts` with `operator` on every one.
fn join_text(head: &[&str], conjuncts: &[(&str, &str, &str)], operator: &str) -> String {
    let head: Vec<String> = head.iter().map(|v| format!("?{v}")).collect();
    let body: Vec<String> = conjuncts
        .iter()
        .map(|(s, r, o)| format!("{operator} ({s}, {r}, {o})"))
        .collect();
    format!("({}) <- {}", head.join(", "), body.join(", "))
}

/// A view of `db` that evaluates every request unguided (plain
/// `g`-ordering): the ablation, set on the base options.
fn unguided(db: &Database) -> Database {
    db.reconfigured(EvalOptions {
        cost_guided: false,
        ..db.options().clone()
    })
}

/// Every `(row, distance)` of a stream, through `next_row`.
fn rows_of(mut stream: omega::core::Answers<'_>) -> Vec<(Vec<omega::core::NodeId>, u32)> {
    let mut rows = Vec::new();
    while let Some((row, distance)) = stream.next_row().unwrap() {
        rows.push((row.to_vec(), distance));
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Total-distance semantics, pinned without the rank join: each conjunct
    /// of a 2–3-conjunct query is drained alone (a single-conjunct plan
    /// bypasses the join), the streams are joined by nested loops right
    /// here, and the engine's answers up to a distance cap must be exactly
    /// that — the same `(row, distance)` multiset, in non-decreasing
    /// distance order — under exact, APPROX and RELAX everywhere, cost-guided
    /// or not.
    #[test]
    fn multi_conjunct_answers_equal_a_nested_loop_join_of_their_conjuncts(
        triples in graph_strategy(),
        shape in 0usize..JOINS.len(),
        flex in 0usize..3,
        cap in 0u32..3,
    ) {
        let (mut g, _) = build(&triples);
        g.add_node("n1");
        let o = attach_ontology(&mut g);
        let db = Database::new(g, o);
        let operator = ["", "APPROX", "RELAX"][flex];
        let (head, conjuncts) = JOINS[shape];
        let capped = ExecOptions::new().with_max_distance(cap);

        // The reference: bindings of the variables seen so far, extended one
        // conjunct at a time by every compatible answer of that conjunct.
        let mut partials: Vec<(Vec<(&str, omega::core::NodeId)>, u32)> = vec![(Vec::new(), 0)];
        for &(s, r, o) in conjuncts {
            let mut vars: Vec<&str> = [s, o].iter().filter_map(|t| t.strip_prefix('?')).collect();
            vars.dedup();
            let alone = db.prepare(&join_text(&vars, &[(s, r, o)], operator)).unwrap();
            let answers = rows_of(alone.answers(&capped));
            let mut next = Vec::new();
            for (bound, total) in &partials {
                for (row, distance) in &answers {
                    let fits = vars.iter().zip(row).all(|(var, id)| {
                        bound.iter().all(|(v, b)| v != var || b == id)
                    });
                    if fits && total + distance <= cap {
                        let mut merged = bound.clone();
                        merged.extend(vars.iter().copied().zip(row.iter().copied()));
                        next.push((merged, total + distance));
                    }
                }
            }
            partials = next;
        }
        // Projection keeps the cheapest combination per head row.
        let mut cheapest = std::collections::BTreeMap::new();
        for (bound, total) in &partials {
            let value = |var: &&str| bound.iter().find(|(v, _)| v == var).unwrap().1;
            let row: Vec<_> = head.iter().map(value).collect();
            let best = cheapest.entry(row).or_insert(*total);
            *best = (*best).min(*total);
        }
        let mut expected: Vec<(u32, Vec<_>)> = cheapest.into_iter().map(|(r, d)| (d, r)).collect();
        expected.sort();

        let text = join_text(head, conjuncts, operator);
        for db in [db.clone(), unguided(&db)] {
            let got = rows_of(db.prepare(&text).unwrap().answers(&capped));
            let context = format!("{text}, cost_guided {}", db.options().cost_guided);
            prop_assert!(got.windows(2).all(|w| w[0].1 <= w[1].1), "{}", context);
            let mut got: Vec<(u32, Vec<_>)> = got.into_iter().map(|(r, d)| (d, r)).collect();
            got.sort();
            prop_assert_eq!(&got, &expected, "{}", context);
        }
    }
}
