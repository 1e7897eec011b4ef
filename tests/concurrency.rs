//! The parallel-conjunct concurrency suite: equivalence, stress, cancellation
//! and stats-merging tests for evaluation behind the rank join.
//!
//! Parallel conjunct evaluation must *rank* as sequential evaluation does —
//! the same distance sequence, the same answers at every distance, the same
//! errors — whatever the worker scheduling. It need not break ties alike:
//! inline conjuncts take the join's seed hints, workers do not (see
//! `common::assert_same_ranking`). Two parallel runs of one statement do
//! agree answer for answer: the join consumes channel-fed streams whose
//! content and order do not depend on scheduling. These tests pin that:
//!
//! * property tests over random graphs and random multi-conjunct queries
//!   compare parallel runs with the sequential one rank by rank, and with
//!   each other bit for bit,
//! * an N-thread stress test hammers one `Database` with concurrent
//!   `PreparedQuery::answers` executions,
//! * deadline/drop tests assert workers blocked mid-traversal or on a full
//!   channel are reclaimed promptly, with no leaked workers (via the
//!   drop-guard gauge `live_parallel_workers`),
//! * a stats test asserts the merged `EvalStats` of parallel workers equals
//!   the sequential counters exactly on fully drained executions.
//!
//! Tests that assert on the global worker gauge serialise themselves with a
//! file-local lock so concurrent tests in this binary cannot skew the count.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use omega::core::{live_parallel_workers, Database, ExecOptions, OmegaError};
use omega::datagen::{generate_l4all, l4all_multi_conjunct_queries, L4AllConfig, QuerySpec};
use omega::graph::GraphStore;
use omega::ontology::Ontology;
use omega::Answer;
use proptest::prelude::*;

mod common;

/// Serialises the tests that assert on the process-wide worker gauge.
fn gauge_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Polls until the worker gauge drops back to `baseline` (it settles as
/// soon as every outstanding stream is dropped, because streams join their
/// workers on drop — the deadline is generous slack for scheduler noise).
fn assert_workers_settle(baseline: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let live = live_parallel_workers();
        if live <= baseline {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "leaked conjunct workers: {live} live, expected {baseline}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

const LABELS: [&str; 4] = ["p", "q", "r", "type"];

fn graph_strategy() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    prop::collection::vec((0u8..12, 0usize..LABELS.len(), 0u8..12), 1..60)
}

fn build(triples: &[(u8, usize, u8)]) -> (GraphStore, Ontology) {
    let mut g = GraphStore::new();
    for (s, p, o) in triples {
        if LABELS[*p] == "type" {
            g.add_triple(&format!("n{s}"), "type", &format!("C{}", o % 3));
        } else {
            g.add_triple(&format!("n{s}"), LABELS[*p], &format!("n{o}"));
        }
    }
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
    (g, o)
}

/// Multi-conjunct query templates: chains, stars and a class join, shaped so
/// every later conjunct shares a variable with an earlier one.
const MULTI_QUERIES: [&str; 6] = [
    "(?X, ?Y) <- (?X, p, ?Y), (?Y, q, ?Z)",
    "(?X, ?Z) <- (?X, p.q, ?Y), (?X, r, ?Z)",
    "(?X, ?Y, ?Z) <- (?X, p, ?Y), (?X, q, ?Z), (?X, r, ?W)",
    "(?X, ?Y) <- (?X, p+, ?Y), (?Y, q, ?Z), (?X, r, ?W)",
    "(?X, ?Y) <- (?X, p|q, ?Y), (?Y, (q.r)|r, ?Z)",
    "(?X, ?C) <- (?X, type, ?C), (?Y, type, ?C), (?X, p, ?Z)",
];

/// Applies `operator` to every conjunct of a template, through the same
/// rewrite the bench suite uses.
fn with_operator(template: &'static str, operator: &str) -> String {
    QuerySpec {
        id: "template",
        text: template,
        flexible_in_study: true,
    }
    .with_operator_everywhere(operator)
}

/// One execution's full output in emission order, or the terminating error.
fn collect(db: &Database, text: &str, request: &ExecOptions) -> Result<Vec<Answer>, OmegaError> {
    db.prepare(text)?.answers(request).collect()
}

/// Asserts that two executions under `limit` rank alike, or failed alike.
fn assert_same_outcome(
    got: &Result<Vec<Answer>, OmegaError>,
    reference: &Result<Vec<Answer>, OmegaError>,
    limit: Option<usize>,
    context: &str,
) {
    match (got, reference) {
        (Ok(got), Ok(reference)) => common::assert_same_ranking(got, reference, limit, context),
        _ => assert_eq!(got, reference, "{context}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel evaluation ranks as sequential evaluation does on random
    /// graphs, random multi-conjunct queries and every operator mode,
    /// including with a tiny channel; all-parallel runs agree bit for bit
    /// however small the channel. (A restricted worker budget leaves the
    /// other conjuncts inline and hinted: its ties are its own.)
    #[test]
    fn parallel_answers_equal_sequential(
        triples in graph_strategy(),
        qi in 0usize..MULTI_QUERIES.len(),
        flex in 0usize..3,
    ) {
        let _guard = gauge_lock();
        let (g, o) = build(&triples);
        let db = Database::new(g, o);
        let operator = ["", "APPROX", "RELAX"][flex];
        let text = with_operator(MULTI_QUERIES[qi], operator);
        let reference = collect(&db, &text, &ExecOptions::new().with_parallel_conjuncts(false));
        let parallel = ExecOptions::new().with_parallel_conjuncts(true);
        let requests = [
            parallel.clone(),
            parallel.clone().with_parallel_channel_capacity(1),
            parallel.with_parallel_workers(1),
        ];
        let runs: Vec<_> = requests.iter().map(|r| collect(&db, &text, r)).collect();
        for (got, request) in runs.iter().zip(&requests) {
            let context = format!("{text} with {request:?}");
            assert_same_outcome(got, &reference, None, &context);
        }
        prop_assert_eq!(&runs[1], &runs[0], "channel capacity showed on {}", text);
    }

    /// Limits interact alike with both modes: the first `k` parallel answers
    /// carry the first `k` sequential distances, and every distance the
    /// limit did not cut into holds the same answers.
    #[test]
    fn limited_prefixes_agree(
        triples in graph_strategy(),
        qi in 0usize..MULTI_QUERIES.len(),
        limit in 1usize..8,
    ) {
        let _guard = gauge_lock();
        let (g, o) = build(&triples);
        let db = Database::new(g, o);
        let text = with_operator(MULTI_QUERIES[qi], "APPROX");
        let seq = collect(
            &db,
            &text,
            &ExecOptions::new().with_parallel_conjuncts(false).with_limit(limit),
        );
        let par = collect(
            &db,
            &text,
            &ExecOptions::new().with_parallel_conjuncts(true).with_limit(limit),
        );
        assert_same_outcome(&par, &seq, Some(limit), &text);
    }
}

/// N threads hammer one shared `Database` with concurrent parallel
/// executions of every multi-conjunct query; every execution must rank as the
/// sequential reference does and equal the parallel one, and no worker may
/// leak once all streams are done.
#[test]
fn stress_concurrent_prepared_answers_on_one_database() {
    let _guard = gauge_lock();
    const THREADS: usize = 8;
    const ITERS: usize = 3;

    let data = generate_l4all(&L4AllConfig::tiny());
    let db = Database::new(data.graph, data.ontology);
    let baseline = live_parallel_workers();

    let seq = ExecOptions::new()
        .with_parallel_conjuncts(false)
        .with_limit(50);
    let par = ExecOptions::new()
        .with_parallel_conjuncts(true)
        .with_limit(50);
    let mut cases = Vec::new();
    for spec in l4all_multi_conjunct_queries() {
        for operator in ["", "APPROX"] {
            let text = spec.with_operator_everywhere(operator);
            let reference = collect(&db, &text, &par).unwrap();
            let sequential = collect(&db, &text, &seq).unwrap();
            common::assert_same_ranking(&reference, &sequential, Some(50), &text);
            cases.push((text, reference));
        }
    }

    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let db = db.clone();
            let par = par.clone();
            let cases = &cases;
            scope.spawn(move || {
                for i in 0..ITERS {
                    // Stagger the case order per thread so different queries
                    // overlap in time.
                    for (case, (text, reference)) in cases
                        .iter()
                        .enumerate()
                        .cycle()
                        .skip(worker + i)
                        .take(cases.len())
                    {
                        let got = collect(&db, text, &par).unwrap();
                        assert_eq!(
                            &got, reference,
                            "worker {worker} iteration {i} diverged on case {case}: {text}"
                        );
                    }
                }
            });
        }
    });
    assert_workers_settle(baseline);
}

/// A zero timeout fails with `DeadlineExceeded` in parallel mode exactly as
/// sequentially, and the cancelled workers are reclaimed.
#[test]
fn parallel_deadline_exceeded_and_workers_reclaimed() {
    let _guard = gauge_lock();
    let data = generate_l4all(&L4AllConfig::tiny());
    let db = Database::new(data.graph, data.ontology);
    let baseline = live_parallel_workers();
    let text = l4all_multi_conjunct_queries()[1].with_operator_everywhere("APPROX");
    let request = ExecOptions::new()
        .with_parallel_conjuncts(true)
        .with_timeout(Duration::ZERO);
    let err = db.execute(&text, &request).unwrap_err();
    assert!(matches!(err, OmegaError::DeadlineExceeded));
    assert_workers_settle(baseline);
}

/// A worker parked on a *full* channel (capacity 1, consumer not pulling)
/// must observe the wall-clock deadline inside its blocked-send loop and
/// exit on its own — before the stream is dropped or polled again.
#[test]
fn worker_blocked_on_full_channel_observes_deadline() {
    let _guard = gauge_lock();
    let data = generate_l4all(&L4AllConfig::tiny());
    let db = Database::new(data.graph, data.ontology);
    let baseline = live_parallel_workers();
    let text = l4all_multi_conjunct_queries()[0].with_operator_everywhere("APPROX");
    let prepared = db.prepare(&text).unwrap();
    let timeout = Duration::from_millis(50);
    let request = ExecOptions::new()
        .with_parallel_conjuncts(true)
        .with_parallel_channel_capacity(1)
        .with_timeout(timeout);
    let mut answers = prepared.answers(&request);
    // Do not consume: the workers fill their 1-slot channels and block.
    // Wait until the deadline has certainly passed (the gauge alone cannot
    // distinguish "workers exited" from "workers not started yet"), then
    // require that every blocked worker observed it and exited without any
    // help from the consumer side.
    std::thread::sleep(timeout + Duration::from_millis(20));
    assert_workers_settle(baseline);
    // The stream itself then reports the deadline.
    assert!(matches!(
        answers.next_answer(),
        Err(OmegaError::DeadlineExceeded)
    ));
}

/// Dropping an answer stream mid-flight cancels workers blocked on a full
/// channel or deep in a traversal; the drop joins them, so the gauge is
/// settled immediately afterwards.
#[test]
fn dropping_stream_mid_flight_reclaims_workers() {
    let _guard = gauge_lock();
    let data = generate_l4all(&L4AllConfig::tiny());
    let db = Database::new(data.graph, data.ontology);
    let baseline = live_parallel_workers();
    let text = l4all_multi_conjunct_queries()[3].with_operator_everywhere("APPROX");
    let prepared = db.prepare(&text).unwrap();
    for capacity in [1, 1024] {
        let request = ExecOptions::new()
            .with_parallel_conjuncts(true)
            .with_parallel_channel_capacity(capacity);
        let mut answers = prepared.answers(&request);
        assert!(answers.next_answer().unwrap().is_some(), "stream produces");
        drop(answers);
        assert_eq!(
            live_parallel_workers(),
            baseline,
            "drop must join every worker (capacity {capacity})"
        );
    }
}

/// Merged `EvalStats` from parallel workers equal the sequential counters
/// exactly on fully drained executions, whatever the worker budget — the
/// only case where the comparison is well-defined: eager workers
/// legitimately overshoot a limited (or early-cancelled) consumer. Seed hints
/// do not show in them: a hint moves a seed's release, every seed is still
/// released once, and what one seed's traversal adds and visits does not
/// depend on the seeds around it. A bespoke small graph keeps full flexible
/// drains affordable in debug builds; the distance-aware case checks the
/// escalation (`restarts`) counter merges correctly too.
#[test]
fn parallel_stats_merge_equals_sequential() {
    let _guard = gauge_lock();
    let mut g = GraphStore::new();
    g.add_triple("alice", "knows", "bob");
    g.add_triple("bob", "knows", "carol");
    g.add_triple("carol", "knows", "dave");
    g.add_triple("alice", "worksAt", "acme");
    g.add_triple("bob", "worksAt", "acme");
    g.add_triple("alice", "type", "Student");
    g.add_triple("bob", "type", "Person");
    let mut o = Ontology::new();
    let student = g.node_by_label("Student").unwrap();
    let person = g.node_by_label("Person").unwrap();
    o.add_subclass(student, person).unwrap();
    let knows = g.label_id("knows").unwrap();
    let related = g.intern_label("related");
    o.add_subproperty(knows, related).unwrap();
    let db = Database::new(g, o);

    let cases = [
        (
            "exact",
            "(?X, ?Z) <- (?X, knows, ?Y), (?Y, knows, ?Z)",
            false,
        ),
        (
            "approx",
            "(?X, ?Z) <- APPROX (?X, knows, ?Y), APPROX (?Y, worksAt, ?Z)",
            false,
        ),
        (
            "relax",
            "(?X, ?Y) <- RELAX (?X, related, ?Y), (?X, worksAt, ?Z)",
            false,
        ),
        (
            "distance-aware",
            "(?X, ?Z) <- APPROX (?X, knows.knows, ?Y), APPROX (?Y, worksAt, ?Z)",
            true,
        ),
    ];
    for (name, text, distance_aware) in cases {
        let prepared = db.prepare(text).unwrap();
        let stats_of = |parallel: bool, workers: usize| {
            let request = ExecOptions::new()
                .with_parallel_conjuncts(parallel)
                .with_parallel_workers(workers)
                .with_distance_aware(distance_aware);
            let mut stream = prepared.answers(&request);
            let drained = stream.collect_up_to(None).unwrap();
            (drained.len(), stream.stats())
        };
        let (seq_count, seq_stats) = stats_of(false, 0);
        for workers in [0, 1] {
            let (par_count, par_stats) = stats_of(true, workers);
            assert_eq!(seq_count, par_count, "{name}: answer counts differ");
            assert_eq!(
                seq_stats, par_stats,
                "{name}: merged EvalStats of {workers} workers drifted from sequential"
            );
        }
        if distance_aware {
            assert!(
                seq_stats.restarts > 0,
                "distance-aware case must exercise the escalation counter"
            );
        }
    }
}

/// Per-request parallelism composes with the other toggles: the optimised
/// drivers behind workers still rank as they do inline. (The §4.3 drivers
/// decline seed hints, a conjunct without an alternation to decompose runs
/// the plain evaluator and takes them: tie order may differ.)
#[test]
fn parallel_composes_with_optimisation_toggles() {
    let _guard = gauge_lock();
    let data = generate_l4all(&L4AllConfig::tiny());
    let db = Database::new(data.graph, data.ontology);
    for spec in l4all_multi_conjunct_queries() {
        let text = spec.with_operator_everywhere("APPROX");
        for toggles in [
            ExecOptions::new().with_distance_aware(true).with_limit(40),
            ExecOptions::new()
                .with_disjunction_decomposition(true)
                .with_limit(40),
            ExecOptions::new()
                .with_distance_aware(true)
                .with_batch_size(1)
                .with_limit(40),
        ] {
            let seq = collect(&db, &text, &toggles.clone().with_parallel_conjuncts(false));
            let par = collect(&db, &text, &toggles.clone().with_parallel_conjuncts(true));
            let context = format!("{}: {toggles:?} under parallelism", spec.id);
            assert_same_outcome(&par, &seq, Some(40), &context);
        }
    }
}
