//! End-to-end integration tests spanning all crates: data generation →
//! database construction → query preparation → ranked evaluation → answers.
//!
//! The suite drives the service API (`Database` / `PreparedQuery` /
//! `ExecOptions`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use omega::core::eval::{compile_conjunct, evaluate_conjunct};
use omega::core::{parse_query, AnswerStream, Database, EvalOptions, ExecOptions, OmegaError};
use omega::datagen::{
    generate_l4all, generate_yago, l4all_multi_conjunct_queries, l4all_queries, yago_queries,
    L4AllConfig, L4AllScale, YagoConfig,
};
use omega_bench::{DisjunctionEvaluator, DistanceAwareEvaluator};

fn l4all_db() -> Database {
    let data = generate_l4all(&L4AllConfig::tiny());
    Database::new(data.graph, data.ontology)
}

fn yago_db() -> Database {
    let data = generate_yago(&YagoConfig::tiny());
    Database::new(data.graph, data.ontology)
}

/// The tuple budget of the YAGO runs.
const YAGO_BUDGET: usize = 500_000;

#[test]
fn every_l4all_query_parses_and_runs_in_all_modes() {
    let db = l4all_db();
    for spec in l4all_queries() {
        for operator in ["", "APPROX", "RELAX"] {
            let text = spec.with_operator(operator);
            let mut request = ExecOptions::new();
            if !operator.is_empty() {
                request = request.with_limit(20);
            }
            let answers = db
                .execute(&text, &request)
                .unwrap_or_else(|e| panic!("{} {} failed: {e}", spec.id, operator));
            // Answers must be sorted by distance.
            let distances: Vec<u32> = answers.iter().map(|a| a.distance).collect();
            let mut sorted = distances.clone();
            sorted.sort_unstable();
            assert_eq!(distances, sorted, "{} {} not sorted", spec.id, operator);
        }
    }
}

#[test]
fn every_yago_query_parses_and_runs_in_all_modes() {
    let db = yago_db();
    for spec in yago_queries() {
        for operator in ["", "APPROX", "RELAX"] {
            let text = spec.with_operator(operator);
            let mut request = ExecOptions::new().with_max_tuples(YAGO_BUDGET);
            if !operator.is_empty() {
                request = request.with_limit(20);
            }
            match db.execute(&text, &request) {
                Ok(answers) => {
                    let distances: Vec<u32> = answers.iter().map(|a| a.distance).collect();
                    let mut sorted = distances.clone();
                    sorted.sort_unstable();
                    assert_eq!(distances, sorted);
                }
                // The paper's Q4/Q5 APPROX runs exhaust memory; that is an
                // accepted outcome here too.
                Err(OmegaError::ResourceExhausted { .. }) => {}
                Err(other) => panic!("{} {} failed: {other}", spec.id, operator),
            }
        }
    }
}

#[test]
fn approx_and_relax_only_add_answers() {
    let db = l4all_db();
    let top100 = ExecOptions::new().with_limit(100);
    for spec in l4all_queries() {
        if !spec.flexible_in_study {
            continue;
        }
        let exact = db.execute(spec.text, &top100).unwrap();
        let approx = db.execute(&spec.with_operator("APPROX"), &top100).unwrap();
        let relax = db.execute(&spec.with_operator("RELAX"), &top100).unwrap();
        assert!(
            approx.len() >= exact.len().min(100),
            "{}: APPROX returned fewer answers than exact",
            spec.id
        );
        assert!(
            relax.len() >= exact.len().min(100),
            "{}: RELAX returned fewer answers than exact",
            spec.id
        );
        // The distance-0 APPROX answers are exactly the exact answers (both
        // runs were capped at 100 and answers arrive in distance order).
        let approx_zero = approx.iter().filter(|a| a.distance == 0).count();
        assert_eq!(approx_zero, exact.len().min(100), "{}", spec.id);
    }
}

#[test]
fn optimisations_preserve_top_k_answer_multisets() {
    // The Section 4.3 drivers are built around the compiled conjunct, as the
    // paper's ablations run them, and each must emit exactly the plain
    // evaluator's full drain (order-insensitive).
    let data = generate_l4all(&L4AllConfig::tiny());
    let (graph, ontology) = (&data.graph, &data.ontology);
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
    for spec in l4all_queries() {
        if !spec.flexible_in_study {
            continue;
        }
        for operator in ["APPROX", "RELAX"] {
            let text = spec.with_operator(operator);
            let query = parse_query(&text).unwrap();
            let conjunct = &query.conjuncts[0];
            let plain =
                multiset(&mut evaluate_conjunct(conjunct, graph, ontology, &options).unwrap());
            let plan = Arc::new(compile_conjunct(conjunct, graph, ontology, &options).unwrap());
            let request = ExecOptions::new();
            let mut aware = DistanceAwareEvaluator::new(plan, graph, ontology, &options, &request);
            assert_eq!(
                plain,
                multiset(&mut aware),
                "{} {} distance-aware",
                spec.id,
                operator
            );
            if operator == "APPROX" {
                let arms =
                    DisjunctionEvaluator::try_new(conjunct, graph, ontology, &options, &request)
                        .unwrap();
                if let Some(mut arms) = arms {
                    assert_eq!(
                        plain,
                        multiset(&mut arms),
                        "{} {} disjunction",
                        spec.id,
                        operator
                    );
                }
            }
        }
    }
}

#[test]
fn yago_figure10_shape_holds() {
    // The qualitative shape of Figure 10 on the synthetic YAGO graph:
    // Q3/Q9 have no exact answers but APPROX recovers plenty.
    let db = yago_db();
    let queries = yago_queries();
    let q3 = &queries[2];
    let q9 = &queries[8];
    let budgeted = ExecOptions::new().with_max_tuples(YAGO_BUDGET);
    for spec in [q3, q9] {
        let exact = db.execute(spec.text, &budgeted).unwrap();
        assert!(exact.is_empty(), "{} should have no exact answers", spec.id);
        let approx = db
            .execute(
                &spec.with_operator("APPROX"),
                &budgeted.clone().with_limit(50),
            )
            .unwrap();
        assert!(
            !approx.is_empty(),
            "{} APPROX should recover answers",
            spec.id
        );
        assert!(approx.iter().all(|a| a.distance >= 1));
    }
}

#[test]
fn multi_conjunct_queries_join_across_conjuncts() {
    let db = l4all_db();
    let answers = db
        .execute(
            "(?E, ?N) <- (Work Episode, type-, ?E), (?E, next, ?N)",
            &ExecOptions::new(),
        )
        .unwrap();
    // every answer's ?E must indeed be a work episode with a successor
    assert!(!answers.is_empty());
    for a in &answers {
        assert!(a.get("E").is_some() && a.get("N").is_some());
        assert_eq!(a.distance, 0);
    }
    // joining with an unsatisfiable conjunct yields nothing
    let none = db
        .execute(
            "(?E) <- (Work Episode, type-, ?E), (?E, qualif.level.level, ?Z)",
            &ExecOptions::new(),
        )
        .unwrap();
    assert!(none.is_empty());
}

/// One execution: the statement, its `(row, distance)`s, its work counters.
type Execution = (String, Vec<(Vec<u32>, u32)>, omega::core::EvalStats);

fn l4all_l2_db() -> Database {
    let data = generate_l4all(&L4AllConfig::at_scale(L4AllScale::L2));
    Database::new(data.graph, data.ontology)
}

/// The paper's M2 and M3 on L4All L2 (18k nodes), pinned like the yardstick's
/// requests: every row and every work counter of an execution, profiled or
/// not.
fn m2_m3_top_100(db: &Database, profile: bool) -> Vec<Execution> {
    let request = ExecOptions::new().with_limit(100).with_profile(profile);
    let mut out = Vec::new();
    for spec in &l4all_multi_conjunct_queries()[1..3] {
        for operator in ["", "APPROX"] {
            let text = spec.with_operator_everywhere(operator);
            let prepared = db.prepare(&text).unwrap();
            let mut stream = prepared.answers(&request);
            let mut rows = Vec::new();
            while let Some((row, distance)) = stream.next_row().unwrap() {
                rows.push((row.iter().map(|n| n.0).collect(), distance));
            }
            assert_eq!(stream.profile().is_some(), profile);
            out.push((text, rows, stream.stats()));
        }
    }
    out
}

/// The work gate on the rank join: a top-100 of M2 or M3 is found where the
/// conjunct streams meet — the driver's bindings followed depth-first
/// through the dependents they seed — within 20 conjunct answers per row. A
/// join that drains a tied stream before it touches the next one, or
/// conjuncts that each start from their own end of the node ids, pull the
/// streams whole: 9,282 to 13,280 answers on this graph, against 256 to 703.
/// Deterministic: `EvalStats::answers` counts conjunct answers
/// pulled plus rows emitted.
#[test]
fn multi_conjunct_top_k_pulls_a_bounded_number_of_conjunct_answers() {
    for (text, rows, stats) in m2_m3_top_100(&l4all_l2_db(), false) {
        assert_eq!(rows.len(), 100, "{text}");
        assert!(
            stats.answers <= 20 * 100,
            "{text}: {} conjunct answers and rows for a top-100",
            stats.answers
        );
    }
}

/// A profiled execution is the execution it times: the timing adaptor
/// around each conjunct stream passes the join's seeds and floor queries
/// through, so rows and work counters are those of the unprofiled run.
#[test]
fn profiling_changes_neither_rows_nor_work() {
    let db = l4all_l2_db();
    assert_eq!(m2_m3_top_100(&db, true), m2_m3_top_100(&db, false));
}

/// The acceptance scenario for the service API: one `Database` shared by
/// four worker threads answers prepared APPROX/RELAX queries concurrently,
/// with results identical to a single-threaded, uncached compile on a
/// second, freshly built `Database`.
#[test]
fn shared_database_matches_single_threaded_omega() {
    let data = generate_l4all(&L4AllConfig::tiny());
    let fresh = Database::new(data.graph.clone(), data.ontology.clone());
    let db = Database::new(data.graph, data.ontology);

    let mut cases = Vec::new();
    for spec in l4all_queries() {
        if !spec.flexible_in_study {
            continue;
        }
        for operator in ["APPROX", "RELAX"] {
            let text = spec.with_operator(operator);
            let reference: Vec<_> = fresh
                .prepare_uncached(&text)
                .unwrap()
                .execute(&ExecOptions::new().with_limit(50))
                .unwrap()
                .into_iter()
                .map(|a| (a.bindings, a.distance))
                .collect();
            cases.push((text, reference));
        }
    }
    assert!(cases.len() >= 8, "enough flexible queries to share around");

    std::thread::scope(|scope| {
        // Each worker executes every case through the shared cache, so the
        // same PreparedQuery instances run on all four threads at once.
        for worker in 0..4 {
            let db = db.clone();
            let cases = &cases;
            scope.spawn(move || {
                for (text, reference) in cases {
                    let prepared = db.prepare(text).unwrap();
                    let got: Vec<_> = prepared
                        .execute(&ExecOptions::new().with_limit(50))
                        .unwrap()
                        .into_iter()
                        .map(|a| (a.bindings, a.distance))
                        .collect();
                    assert_eq!(&got, reference, "worker {worker} diverged on {text}");
                }
            });
        }
    });
}

/// Eight threads hammer one shared `Database` with concurrent executions of
/// every multi-conjunct query, exact and APPROX, in staggered orders; every
/// execution must equal the single-threaded reference answer for answer.
#[test]
fn stress_concurrent_prepared_answers_on_one_database() {
    const THREADS: usize = 8;
    const ITERS: usize = 3;

    let db = l4all_db();
    let request = ExecOptions::new().with_limit(50);
    let mut cases = Vec::new();
    for spec in l4all_multi_conjunct_queries() {
        for operator in ["", "APPROX"] {
            let text = spec.with_operator_everywhere(operator);
            let reference = db.execute(&text, &request).unwrap();
            cases.push((text, reference));
        }
    }

    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let db = db.clone();
            let (cases, request) = (&cases, &request);
            scope.spawn(move || {
                for i in 0..ITERS {
                    // Stagger the case order per thread so different queries
                    // overlap in time.
                    for (text, reference) in cases.iter().cycle().skip(worker + i).take(cases.len())
                    {
                        let got = db.prepare(text).unwrap().execute(request).unwrap();
                        assert_eq!(
                            &got, reference,
                            "worker {worker} iteration {i} diverged on {text}"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn zero_deadline_aborts_instead_of_running_to_completion() {
    let db = l4all_db();
    let spec = &l4all_queries()[2];
    let text = spec.with_operator("APPROX");
    let started = Instant::now();
    let err = db
        .execute(&text, &ExecOptions::new().with_timeout(Duration::ZERO))
        .unwrap_err();
    assert!(matches!(err, OmegaError::DeadlineExceeded));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline must abort promptly"
    );
    // The same query without a deadline still works.
    assert!(db
        .execute(&text, &ExecOptions::new().with_limit(10))
        .is_ok());
}

#[test]
fn max_distance_matches_post_filtering() {
    let db = l4all_db();
    let spec = &l4all_queries()[2];
    let text = spec.with_operator("APPROX");
    let all = db.execute(&text, &ExecOptions::new()).unwrap();
    let capped = db
        .execute(&text, &ExecOptions::new().with_max_distance(1))
        .unwrap();
    let expected: Vec<_> = all.iter().filter(|a| a.distance <= 1).cloned().collect();
    assert_eq!(capped, expected);
}

#[test]
fn prepared_statement_cache_is_shared_between_clones() {
    let db = l4all_db();
    let clone = db.clone();
    let text = l4all_queries()[0].text;
    let first = db.prepare(text).unwrap();
    let second = clone.prepare(text).unwrap();
    assert!(first.shares_plans_with(&second));
    assert_eq!(db.prepared_cache_len(), 1);
}

#[test]
fn facade_reexports_are_usable() {
    // The facade crate exposes the pieces needed to build a database from
    // scratch without referencing the member crates directly.
    let mut graph = omega::GraphStore::new();
    graph.add_triple("a", "p", "b");
    let db = omega::Database::new(graph, omega::Ontology::new());
    let answers = db
        .execute("(?X) <- (a, p, ?X)", &omega::ExecOptions::new())
        .unwrap();
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].get("X"), Some("b"));
}
