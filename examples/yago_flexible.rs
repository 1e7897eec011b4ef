//! The YAGO case study: generate the YAGO-like graph, run the Figure 9
//! query set, and show how the Section 4.3 optimisations (distance-aware
//! retrieval, alternation→disjunction) change execution time for the
//! flexible queries.
//!
//! The optimisations are drivers, not request options: each conjunct is
//! compiled once, then timed under the plain ranked evaluator and under a
//! driver built around the same plan — the disjunction driver for an APPROX
//! top-level alternation, the distance-aware driver otherwise. The drivers
//! live in the experiment harness (`omega-bench`), not in the engine.
//!
//! ```text
//! cargo run --release --example yago_flexible [scale]
//! ```

use std::sync::Arc;
use std::time::Instant;

use omega::core::eval::compile_conjunct;
use omega::core::{
    parse_query, AnswerStream, ConjunctEvaluator, EvalOptions, ExecOptions, OmegaError,
};
use omega::datagen::{generate_yago, yago_queries, YagoConfig};
use omega_bench::{compile_branches, DisjunctionEvaluator, DistanceAwareEvaluator};

/// Fetches up to `limit` answers from `stream`: the answer count and the
/// elapsed milliseconds, or `None` when the memory budget ran out (the
/// paper's '?').
fn timed(mut stream: Box<dyn AnswerStream + '_>, limit: Option<usize>) -> Option<(usize, f64)> {
    let start = Instant::now();
    match stream.collect(limit) {
        Ok(answers) => Some((answers.len(), start.elapsed().as_secs_f64() * 1e3)),
        Err(OmegaError::ResourceExhausted { .. }) => None,
        Err(other) => panic!("query failed: {other}"),
    }
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    println!("generating YAGO-like graph at scale {scale}…");
    let data = generate_yago(&YagoConfig::scaled(scale));
    println!(
        "graph: {} nodes, {} edges\n",
        data.graph.node_count(),
        data.graph.edge_count()
    );
    let graph = &data.graph;
    let ontology = &data.ontology;

    // A memory budget turns the paper's out-of-memory failures into clean
    // errors (the '?' rows below).
    let options = EvalOptions::default();
    let request = ExecOptions::new().with_max_tuples(2_000_000);

    println!(
        "{:<5} {:<8} {:>9} {:>12} {:>14}  driver",
        "query", "mode", "answers", "plain (ms)", "optimised (ms)"
    );
    for spec in yago_queries() {
        for operator in ["", "APPROX", "RELAX"] {
            if !spec.flexible_in_study && !operator.is_empty() {
                continue;
            }
            let query = parse_query(&spec.with_operator(operator)).expect("query parses");
            let conjunct = &query.conjuncts[0];
            let plan = Arc::new(
                compile_conjunct(conjunct, graph, ontology, &options).expect("query compiles"),
            );
            let branches = match operator {
                "APPROX" => {
                    compile_branches(conjunct, graph, ontology, &options).expect("branches compile")
                }
                _ => None,
            };
            let limit = (!operator.is_empty()).then_some(100);
            let plain = ConjunctEvaluator::new(Arc::clone(&plan), graph, ontology, &request, None);
            let plain = timed(Box::new(plain), limit);
            let (driver, optimised): (_, Box<dyn AnswerStream>) = match branches {
                Some(branches) => (
                    "disjunction",
                    Box::new(DisjunctionEvaluator::from_plans(
                        branches, graph, ontology, &options, &request,
                    )),
                ),
                None => (
                    "distance-aware",
                    Box::new(DistanceAwareEvaluator::new(
                        plan, graph, ontology, &options, &request,
                    )),
                ),
            };
            let optimised = timed(optimised, limit);
            let cell =
                |run: Option<(usize, f64)>| run.map_or("?".into(), |(_, ms)| format!("{ms:.2}"));
            let mode = if operator.is_empty() {
                "exact"
            } else {
                operator
            };
            println!(
                "{:<5} {mode:<8} {:>9} {:>12} {:>14}  {driver}",
                spec.id,
                plain.map_or("?".into(), |(count, _)| count.to_string()),
                cell(plain),
                cell(optimised),
            );
        }
    }
}
