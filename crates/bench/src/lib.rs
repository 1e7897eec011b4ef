//! # omega-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Section 4) and the Section 3.3/4.3 ablations, plus the
//! `snapshot build|inspect` tooling. The Section 4 comparisons the engine
//! does not run itself live here: the two Section 4.3 drivers ([`drivers`])
//! and the product-automaton BFS baseline ([`baseline`]). Timing the
//! *system* (serving, writes, recovery, per-layer costs) is the job of the
//! yardstick in `benchmark/`.
//!
//! The `experiments` binary prints the figures as text tables:
//!
//! ```text
//! cargo run -p omega-bench --release --bin experiments -- all --quick
//! cargo run -p omega-bench --release --bin experiments -- fig5 --max-scale L1
//! ```
//!
//! Each figure has a corresponding function here returning the formatted
//! table, so integration tests can assert on the *shape* of the results
//! (which queries return zero exact answers, which explode under APPROX,
//! which optimisations help) without going through the binary.

// Harness, not engine: specs are compiled into the binary, so a panic here
// is a broken experiment definition surfacing at the first run — the
// engine-side lints (unwrap/expect denied) do not apply.
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod baseline;
pub mod drivers;

pub use baseline::BaselineEvaluator;
pub use drivers::{compile_branches, DisjunctionEvaluator, DistanceAwareEvaluator, MAX_PSI_STEPS};

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use omega_core::eval::compile_conjunct;
use omega_core::{
    AnswerStream, ConjunctEvaluator, Database, EvalOptions, EvalStats, ExecOptions, InputRole,
    OmegaError, PreparedQuery,
};
use omega_datagen::{
    generate_l4all, generate_yago, l4all_multi_conjunct_queries, l4all_queries, yago_queries,
    Dataset, L4AllConfig, L4AllScale, QuerySpec, YagoConfig,
};
use omega_graph::GraphStats;
use omega_obs::Histogram;
use omega_ontology::HierarchyStats;

/// Evaluation methodology constants from Section 4.1: flexible queries fetch
/// the top `TOP_K` answers in `BATCH` batches of ten.
pub const TOP_K: usize = 100;
/// Batch size used when fetching the top-K answers.
pub const BATCH: usize = 10;
/// Live-tuple budget used to reproduce the paper's out-of-memory failures
/// ("?" entries in Figure 10) deterministically.
pub const MEMORY_BUDGET: usize = 2_000_000;

/// Which L4All scales an experiment run covers, and how often each query is
/// sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Largest L4All scale to generate (inclusive).
    pub max_scale: L4AllScale,
    /// Scale factor of the YAGO-like graph.
    pub yago_scale: f64,
    /// Timed runs per query; the reported latency is the median (sub-ms
    /// rows spike 2–30x under single-shot timing). Counters and answers are
    /// deterministic across runs and come from the median run.
    pub samples: usize,
}

impl RunConfig {
    /// Quick configuration: L1–L2 and a small YAGO graph. Finishes in well
    /// under a minute on a laptop.
    pub fn quick() -> RunConfig {
        RunConfig {
            max_scale: L4AllScale::L2,
            yago_scale: 0.25,
            samples: 5,
        }
    }

    /// Full configuration: all four L4All scales and the default YAGO size.
    pub fn full() -> RunConfig {
        RunConfig {
            max_scale: L4AllScale::L4,
            yago_scale: 1.0,
            samples: 5,
        }
    }

    /// The L4All scales included in this configuration.
    pub fn scales(&self) -> Vec<L4AllScale> {
        L4AllScale::all()
            .into_iter()
            .take_while(|s| s.timelines() <= self.max_scale.timelines())
            .collect()
    }
}

/// The result of one timed query run.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Query identifier (paper numbering).
    pub id: String,
    /// Operator applied ("exact", "APPROX" or "RELAX"), or the [`Driver`]
    /// of an ablation arm.
    pub operator: String,
    /// Wall-clock time: the median over `samples` timed runs.
    pub elapsed: Duration,
    /// Number of timed runs the reported latency is the median of.
    pub samples: usize,
    /// Number of answers returned.
    pub answers: usize,
    /// Number of answers per non-zero distance.
    pub distances: BTreeMap<u32, usize>,
    /// Whether the run aborted on the memory budget (the paper's "?").
    pub exhausted: bool,
    /// Evaluator counters accumulated over the run.
    pub stats: EvalStats,
}

impl QueryRun {
    /// Formats the distance breakdown the way Figure 5 does:
    /// `1 (32) 2 (67)` means 32 answers at distance 1 and 67 at distance 2.
    pub fn distance_summary(&self) -> String {
        self.distances
            .iter()
            .filter(|(d, _)| **d > 0)
            .map(|(d, n)| format!("{d} ({n})"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Builds a shared database over a dataset with the evaluation options used
/// in the performance study (unit costs, batch size 100). Queries run
/// through the prepared-statement cache, so repeated runs of the same text
/// pay compilation once. The [`MEMORY_BUDGET`] is on the requests of the
/// runs ([`run_query`], [`run_all_operators`], [`run_arm`]).
pub fn engine_for(dataset: &Dataset, options: EvalOptions) -> Database {
    Database::with_options(dataset.graph.clone(), dataset.ontology.clone(), options)
}

/// The request of a study run: the [`MEMORY_BUDGET`], and the top
/// [`TOP_K`] answers of a flexible `operator` (an exact query drains).
fn study_request(operator: &str) -> ExecOptions {
    let request = ExecOptions::new().with_max_tuples(MEMORY_BUDGET);
    if operator.is_empty() {
        request
    } else {
        request.with_limit(TOP_K)
    }
}

/// Generates (and caches nothing — generation is deterministic and fast
/// relative to the large-query runtimes) the L4All dataset at `scale`.
pub fn l4all_dataset(scale: L4AllScale) -> Dataset {
    generate_l4all(&L4AllConfig::at_scale(scale))
}

/// Generates the YAGO-like dataset at the given scale factor.
pub fn yago_dataset(scale: f64) -> Dataset {
    generate_yago(&YagoConfig::scaled(scale))
}

/// Runs one query with the paper's methodology: exact queries run to
/// completion; APPROX/RELAX queries fetch the top-[`TOP_K`] answers in
/// batches of [`BATCH`]; both under the [`MEMORY_BUDGET`].
///
/// Evaluation drives the service API — `prepare` (cached) plus a streaming
/// [`omega_core::Answers`] handle — so the evaluator's counters are
/// available afterwards and repeated runs skip recompilation.
pub fn run_query(db: &Database, id: &str, operator: &str, text: &str) -> QueryRun {
    run_query_with(db, id, operator, text, &study_request(operator))
}

/// [`run_query`] repeated `samples` times, reporting the median run (by
/// latency). Evaluation is deterministic, so answers and counters agree
/// across the runs; only the wall clock varies.
pub fn run_query_sampled(
    db: &Database,
    id: &str,
    operator: &str,
    text: &str,
    request: &ExecOptions,
    samples: usize,
) -> QueryRun {
    median_run(samples, || run_query_with(db, id, operator, text, request))
}

/// Runs `run` `samples` times (at least once) and reports the median run
/// by latency, stamped with the sample count.
fn median_run(samples: usize, mut run: impl FnMut() -> QueryRun) -> QueryRun {
    let samples = samples.max(1);
    let mut runs: Vec<QueryRun> = (0..samples).map(|_| run()).collect();
    runs.sort_by_key(|r| r.elapsed);
    debug_assert!(
        runs.iter().all(|r| r.answers == runs[0].answers),
        "sampled runs of {} disagree on answer counts",
        runs[0].id
    );
    let mut median = runs.swap_remove(runs.len() / 2);
    median.samples = samples;
    median
}

/// [`run_query`] with an explicit request (limit, deadline, budgets, …).
/// Single-shot: `samples` is 1.
pub fn run_query_with(
    db: &Database,
    id: &str,
    operator: &str,
    text: &str,
    request: &ExecOptions,
) -> QueryRun {
    let start = Instant::now();
    let mut distances = BTreeMap::new();
    let mut exhausted = false;
    let mut answers = 0usize;

    let prepared = match db.prepare(text) {
        Ok(p) => p,
        Err(e) => panic!("query {id} failed: {e}"),
    };
    let mut stream = prepared.answers(request);
    loop {
        match stream.next_answer() {
            Ok(Some(a)) => {
                answers += 1;
                *distances.entry(a.distance).or_insert(0) += 1;
            }
            Ok(None) => break,
            Err(OmegaError::ResourceExhausted { .. }) => {
                exhausted = true;
                break;
            }
            Err(other) => panic!("query {id} failed: {other}"),
        }
    }
    let stats = stream.stats();
    QueryRun {
        id: id.to_owned(),
        operator: if operator.is_empty() {
            "exact".to_owned()
        } else {
            operator.to_owned()
        },
        elapsed: start.elapsed(),
        samples: 1,
        answers,
        distances,
        exhausted,
        stats,
    }
}

/// Runs the exact, APPROX and RELAX versions of a query, median-of-`samples`
/// each (exact queries drain fully; flexible ones fetch the top [`TOP_K`]).
pub fn run_all_operators(db: &Database, spec: &QuerySpec, samples: usize) -> Vec<QueryRun> {
    ["", "APPROX", "RELAX"]
        .iter()
        .map(|op| {
            let request = study_request(op);
            run_query_sampled(db, spec.id, op, &spec.with_operator(op), &request, samples)
        })
        .collect()
}

fn format_duration(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// A run's answer count, or the paper's "?" when it ran out of memory.
fn answers_cell(run: &QueryRun) -> String {
    if run.exhausted {
        "?".to_owned()
    } else {
        run.answers.to_string()
    }
}

/// A run's latency in ms, or the paper's "?" when it ran out of memory.
fn time_cell(run: &QueryRun) -> String {
    if run.exhausted {
        "?".to_owned()
    } else {
        format_duration(run.elapsed)
    }
}

/// The answer count two runs that must agree share, or a loud marker.
fn agreeing_answers(a: &QueryRun, b: &QueryRun) -> String {
    let (a, b) = (answers_cell(a), answers_cell(b));
    if a == b {
        a
    } else {
        format!("MISMATCH {a}≠{b}")
    }
}

// ----------------------------------------------------------------------
// Figure generators
// ----------------------------------------------------------------------

/// Figure 2: characteristics of the L4All class hierarchies.
pub fn figure2() -> String {
    let dataset = generate_l4all(&L4AllConfig {
        timelines: 1,
        ..L4AllConfig::default()
    });
    let stats = HierarchyStats::compute_all(&dataset.ontology, &dataset.graph);
    let mut out = String::from("Figure 2: class hierarchies of the L4All ontology\n");
    out.push_str(&format!(
        "{:<42} {:>5} {:>16} {:>8}\n",
        "Class hierarchy", "Depth", "Average fan-out", "Classes"
    ));
    for h in stats {
        out.push_str(&format!(
            "{:<42} {:>5} {:>16.2} {:>8}\n",
            h.root_label, h.depth, h.average_fanout, h.classes
        ));
    }
    out
}

/// Figure 3: node and edge counts of the L4All graphs.
pub fn figure3(config: &RunConfig) -> String {
    let mut out = String::from("Figure 3: characteristics of the L4All data graphs\n");
    out.push_str(&format!(
        "{:<6} {:>10} {:>10} {:>12}\n",
        "Graph", "Timelines", "Nodes", "Edges"
    ));
    for scale in config.scales() {
        let dataset = l4all_dataset(scale);
        let stats = GraphStats::compute(&dataset.graph);
        out.push_str(&format!(
            "{:<6} {:>10} {:>10} {:>12}\n",
            scale.name(),
            scale.timelines(),
            stats.nodes,
            stats.edges
        ));
    }
    out.push_str("(published: L1 2,691/19,856  L2 15,188/118,088  L3 68,544/558,972  L4 240,519/1,861,959)\n");
    out
}

/// The L4All queries the paper reports flexible results for in Figure 5.
pub fn figure5_query_ids() -> [&'static str; 6] {
    ["Q3", "Q8", "Q9", "Q10", "Q11", "Q12"]
}

/// Figures 5–8 share the same runs: every reported query, in all three
/// operator modes, on every scale. Returns one row per (scale, query, mode).
pub fn l4all_study(config: &RunConfig, options: &EvalOptions) -> Vec<(String, QueryRun)> {
    let ids = figure5_query_ids();
    let mut rows = Vec::new();
    for scale in config.scales() {
        let dataset = l4all_dataset(scale);
        let omega = engine_for(&dataset, options.clone());
        for spec in l4all_queries() {
            if !ids.contains(&spec.id) {
                continue;
            }
            for run in run_all_operators(&omega, &spec, config.samples) {
                rows.push((scale.name().to_owned(), run));
            }
        }
    }
    rows
}

/// Figure 5: number of answers (and their distance breakdown) per query and
/// data graph.
pub fn figure5(rows: &[(String, QueryRun)]) -> String {
    let mut out = String::from(
        "Figure 5: results per query and data graph (answers; non-zero-distance breakdown)\n",
    );
    out.push_str(&format!(
        "{:<5} {:<5} {:<8} {:>8}  {}\n",
        "Graph", "Query", "Mode", "Answers", "distance (count)"
    ));
    for (scale, run) in rows {
        out.push_str(&format!(
            "{:<5} {:<5} {:<8} {:>8}  {}\n",
            scale,
            run.id,
            run.operator,
            answers_cell(run),
            run.distance_summary()
        ));
    }
    out
}

/// Figures 6, 7, 8: execution times (ms) for exact / APPROX / RELAX L4All
/// queries.
pub fn figure_times(rows: &[(String, QueryRun)], operator: &str, figure: &str) -> String {
    let mut out = format!("{figure}: execution time (ms), {operator} queries\n");
    let mut scales: Vec<&str> = rows.iter().map(|(s, _)| s.as_str()).collect();
    scales.dedup();
    out.push_str(&format!("{:<6}", "Query"));
    for s in &scales {
        out.push_str(&format!(" {:>10}", s));
    }
    out.push('\n');
    for id in figure5_query_ids() {
        out.push_str(&format!("{id:<6}"));
        for scale in &scales {
            let cell = rows
                .iter()
                .find(|(s, run)| s == scale && run.id == id && run.operator == operator)
                .map(|(_, run)| time_cell(run))
                .unwrap_or_default();
            out.push_str(&format!(" {cell:>10}"));
        }
        out.push('\n');
    }
    out
}

/// The YAGO queries reported in Figures 10 and 11.
pub fn figure10_query_ids() -> [&'static str; 5] {
    ["Q2", "Q3", "Q4", "Q5", "Q9"]
}

/// Runs the YAGO study (Figures 10 and 11).
pub fn yago_study(config: &RunConfig, options: &EvalOptions) -> Vec<QueryRun> {
    let dataset = yago_dataset(config.yago_scale);
    let omega = engine_for(&dataset, options.clone());
    let mut rows = Vec::new();
    for spec in yago_queries() {
        if !figure10_query_ids().contains(&spec.id) {
            continue;
        }
        rows.extend(run_all_operators(&omega, &spec, config.samples));
    }
    rows
}

/// Figure 10: YAGO answer counts and distance breakdowns ("?" = memory
/// budget exhausted).
pub fn figure10(rows: &[QueryRun]) -> String {
    let mut out =
        String::from("Figure 10: YAGO query results (answers; non-zero-distance breakdown)\n");
    out.push_str(&format!(
        "{:<5} {:<8} {:>8}  {}\n",
        "Query", "Mode", "Answers", "distance (count)"
    ));
    for run in rows {
        out.push_str(&format!(
            "{:<5} {:<8} {:>8}  {}\n",
            run.id,
            run.operator,
            answers_cell(run),
            run.distance_summary()
        ));
    }
    out
}

/// Figure 11: YAGO execution times (ms).
pub fn figure11(rows: &[QueryRun]) -> String {
    let mut out = String::from("Figure 11: YAGO execution times (ms)\n");
    out.push_str(&format!(
        "{:<6} {:>10} {:>10} {:>10}\n",
        "Query", "exact", "APPROX", "RELAX"
    ));
    for id in figure10_query_ids() {
        let cell = |mode: &str| {
            rows.iter()
                .find(|r| r.id == id && r.operator == mode)
                .map(time_cell)
                .unwrap_or_default()
        };
        out.push_str(&format!(
            "{:<6} {:>10} {:>10} {:>10}\n",
            id,
            cell("exact"),
            cell("APPROX"),
            cell("RELAX")
        ));
    }
    out
}

/// How one arm of an ablation evaluates the case's conjunct.
#[derive(Debug, Clone, Copy)]
pub enum Driver {
    /// The plain ranked evaluator, the one every query execution runs.
    Plain,
    /// Section 4.3's distance-aware retrieval ([`DistanceAwareEvaluator`]).
    DistanceAware,
    /// Section 4.3's alternation replaced by disjunction
    /// ([`DisjunctionEvaluator`]); the case's regex must be a top-level
    /// alternation.
    Disjunction,
}

/// One arm of an ablation: the driver, and the options it evaluates under.
pub type Arm = (Driver, EvalOptions);

/// One row of the ablation table: its label (the `experiments` verb that
/// selects it, then the query), the dataset, the single-conjunct query text,
/// and the arm with the optimisation off, then on.
pub type AblationCase<'a> = (&'static str, &'a Dataset, String, Arm, Arm);

/// The paper's ablations: the two Section 4.3 query-execution optimisations
/// (distance-aware retrieval; alternation replaced by disjunction on YAGO
/// Q9, the paper's example) and the two Section 3.3 refinements (final
/// tuples dequeued first; initial nodes released in batches instead of all
/// at once); and cost guidance: the plan's accept bound (`h` and the node
/// classes) against the trivial bound `h ≡ 0` that `cost_guided: false`
/// compiles, the paper's plain distance order, run by the same evaluator
/// (edits deferred under both) on three flexible study queries.
pub fn ablation_cases<'a>(l4all: &'a Dataset, yago: &'a Dataset) -> Vec<AblationCase<'a>> {
    let (l, y) = (l4all_queries(), yago_queries());
    let apx = |spec: &QuerySpec| spec.with_operator("APPROX");
    let q5 = l[4].text.to_owned();
    let default = EvalOptions::default;
    let plain = || (Driver::Plain, default());
    let aware = || (Driver::DistanceAware, default());
    let arms = || (Driver::Disjunction, default());
    let mixed = || (Driver::Plain, default().without_final_prioritization());
    let unbatched = || (Driver::Plain, default().with_batch_size(usize::MAX));
    let unguided = || (Driver::Plain, default().with_cost_guided(false));
    let guidance = |label, data, text| (label, data, text, unguided(), plain());
    vec![
        ("opt-distance L4All Q3", l4all, apx(&l[2]), plain(), aware()),
        ("opt-distance L4All Q9", l4all, apx(&l[8]), plain(), aware()),
        ("opt-distance YAGO Q2", yago, apx(&y[1]), plain(), aware()),
        ("opt-distance YAGO Q3", yago, apx(&y[2]), plain(), aware()),
        ("opt-disjunction YAGO Q9", yago, apx(&y[8]), plain(), arms()),
        ("opt-final L4All Q9", l4all, apx(&l[8]), mixed(), plain()),
        ("opt-batching L4All Q5", l4all, q5, unbatched(), plain()),
        guidance("opt-guidance L4All Q9", l4all, apx(&l[8])),
        guidance("opt-guidance YAGO Q4", yago, apx(&y[3])),
        guidance("opt-guidance YAGO Q5", yago, apx(&y[4])),
    ]
}

/// Runs every case's top-[`TOP_K`] fetch with its optimisation off and on
/// (median of `samples`, see [`run_arm`]) and formats the off-vs-on table.
pub fn ablations(cases: &[AblationCase<'_>], samples: usize) -> String {
    let mut out =
        format!("Sections 3.3/4.3 and cost-guidance ablations: top-{TOP_K} time (ms), off vs on\n");
    out.push_str(&format!(
        "{:<26} {:>10} {:>10} {:>9} {:>9}\n",
        "Ablation", "off", "on", "speed-up", "answers"
    ));
    for (name, dataset, text, off, on) in cases {
        let [off, on] = [off, on].map(|arm| run_arm(name, dataset, text, arm, samples));
        out.push_str(&format!(
            "{:<26} {:>10} {:>10} {:>8.1}x {:>9}\n",
            name,
            format_duration(off.elapsed),
            format_duration(on.elapsed),
            off.elapsed.as_secs_f64() / on.elapsed.as_secs_f64().max(1e-9),
            agreeing_answers(&off, &on),
        ));
    }
    out
}

/// Times one ablation arm at evaluator level: the conjunct's plan (or, for
/// [`Driver::Disjunction`], its branch plans) is compiled once, outside the
/// timed region, and each of `samples` runs builds the arm's driver on it
/// and fetches the top [`TOP_K`] answers under the [`MEMORY_BUDGET`]; the
/// median run is reported.
pub fn run_arm(
    name: &str,
    dataset: &Dataset,
    text: &str,
    (driver, options): &Arm,
    samples: usize,
) -> QueryRun {
    // The frozen graph, the ontology and the budget of every table.
    let db = engine_for(dataset, options.clone());
    let (graph, ontology) = (&*db.graph(), db.ontology());
    let request = ExecOptions::new().with_max_tuples(MEMORY_BUDGET);
    let query = omega_core::parse_query(text).unwrap();
    let conjunct = &query.conjuncts[0];
    let plan = Arc::new(compile_conjunct(conjunct, graph, ontology, options).unwrap());
    let branches = match driver {
        Driver::Disjunction => compile_branches(conjunct, graph, ontology, options)
            .unwrap()
            .expect("the disjunction ablation needs a top-level alternation"),
        _ => Vec::new(),
    };
    let stream = || -> Box<dyn AnswerStream + '_> {
        let plan = Arc::clone(&plan);
        match driver {
            Driver::Plain => Box::new(ConjunctEvaluator::new(
                plan, graph, ontology, &request, None,
            )),
            Driver::DistanceAware => Box::new(DistanceAwareEvaluator::new(
                plan, graph, ontology, options, &request,
            )),
            Driver::Disjunction => Box::new(DisjunctionEvaluator::from_plans(
                branches.clone(),
                graph,
                ontology,
                options,
                &request,
            )),
        }
    };
    median_run(samples, || {
        let start = Instant::now();
        let mut stream = stream();
        let (answers, exhausted) = match stream.collect(Some(TOP_K)) {
            Ok(answers) => (answers, false),
            Err(OmegaError::ResourceExhausted { .. }) => (Vec::new(), true),
            Err(other) => panic!("ablation {name} failed: {other}"),
        };
        let elapsed = start.elapsed();
        let mut distances = BTreeMap::new();
        answers
            .iter()
            .for_each(|a| *distances.entry(a.distance).or_insert(0) += 1);
        QueryRun {
            id: name.to_owned(),
            operator: format!("{driver:?}"),
            elapsed,
            samples: 1,
            answers: answers.len(),
            distances,
            exhausted,
            stats: stream.stats(),
        }
    })
}

// ----------------------------------------------------------------------
// Per-statement work (the yardstick's in-process study mix)
// ----------------------------------------------------------------------

/// The nine statements of the yardstick's `embed-flex` workload, named: Q8
/// and Q9 APPROX, Q3 RELAX, Q3 and Q11 exact, and the multi-conjunct M2 and
/// M3 exact and APPROX.
pub fn work_statements() -> Vec<(String, String)> {
    let (q, m) = (l4all_queries(), l4all_multi_conjunct_queries());
    let mut out = vec![
        ("Q8 APPROX".to_owned(), q[7].with_operator("APPROX")),
        ("Q9 APPROX".to_owned(), q[8].with_operator("APPROX")),
        ("Q3 RELAX".to_owned(), q[2].with_operator("RELAX")),
        ("Q3".to_owned(), q[2].text.to_owned()),
        ("Q11".to_owned(), q[10].text.to_owned()),
    ];
    for spec in &m[1..3] {
        out.push((spec.id.to_owned(), spec.text.to_owned()));
        out.push((
            format!("{} APPROX", spec.id),
            spec.with_operator_everywhere("APPROX"),
        ));
    }
    out
}

/// How many answers the first-answer columns of [`work_table`] fetch.
pub const FIRST_K: usize = 10;

/// The evaluator counters of one top-`limit` fetch of `text` under cost
/// guidance, prepared once: deterministic, so a single run is the reading.
pub fn work_stats(db: &Database, text: &str, limit: usize) -> EvalStats {
    let request = ExecOptions::new().with_limit(limit);
    run_query_with(db, text, "", text, &request).stats
}

/// The counters of each conjunct of one top-`limit` fetch of `text`, in
/// evaluation order: its index in the query, its part in the rank join and
/// its evaluator's [`EvalStats`] (`answers` is what the join pulled).
pub fn work_inputs(db: &Database, text: &str, limit: usize) -> Vec<(usize, InputRole, EvalStats)> {
    let prepared = db.prepare(text).expect("a work statement compiles");
    let mut stream = prepared.answers(&ExecOptions::new().with_limit(limit));
    while stream
        .next_row()
        .expect("a work statement evaluates")
        .is_some()
    {}
    stream.conjunct_stats()
}

/// Where each [`work_statements`] statement spends its work on L4All at the
/// configured largest scale: the top-[`TOP_K`] fetch under cost guidance
/// (median of `samples` runs, prepared once) with its evaluator counters,
/// then the tuples added and processed and the `succ` calls of a
/// top-[`FIRST_K`] fetch, the first answers' cost; then, per input of each
/// multi-conjunct statement's rank join ([`work_inputs`]), the answers the
/// join pulled from it and the tuples it added and processed, at both
/// limits.
pub fn work_table(config: &RunConfig) -> String {
    let dataset = l4all_dataset(config.max_scale);
    let db = Database::new(dataset.graph, dataset.ontology);
    let request = ExecOptions::new().with_limit(TOP_K);
    let mut out = format!(
        "Work per statement: L4All {}, top-{TOP_K} (median of {}, ms) and top-{FIRST_K}\n",
        config.max_scale.name(),
        config.samples
    );
    out.push_str(&format!(
        "{:<10} {:>8} {:>7} {:>8} {:>9} {:>7} {:>8} {:>7} {:>7} {:>8} {:>8} {:>8}\n",
        "Statement",
        "ms",
        "answers",
        "added",
        "processed",
        "succ",
        "lookups",
        "blocks",
        "raised",
        format!("add@{FIRST_K}"),
        format!("proc@{FIRST_K}"),
        format!("succ@{FIRST_K}"),
    ));
    for (name, text) in work_statements() {
        let run = run_query_sampled(&db, &name, "", &text, &request, config.samples);
        let stats = &run.stats;
        let first = work_stats(&db, &text, FIRST_K);
        out.push_str(&format!(
            "{:<10} {:>8.3} {:>7} {:>8} {:>9} {:>7} {:>8} {:>7} {:>7} {:>8} {:>8} {:>8}\n",
            name,
            run.elapsed.as_secs_f64() * 1e3,
            answers_cell(&run),
            stats.tuples_added,
            stats.tuples_processed,
            stats.succ_calls,
            stats.neighbour_lookups,
            stats.cursor_blocks,
            stats.raised_keys,
            first.tuples_added,
            first.tuples_processed,
            first.succ_calls,
        ));
    }
    out.push_str(&format!(
        "Per join input: answers pulled, tuples added and processed at top-{FIRST_K} and top-{TOP_K}\n\
         {:<10} {:>5} {:<11} {:>6} {:>6} {:>7} {:>7} {:>6} {:>9}\n",
        "Statement", "input", "role", "pull@10", "add@10", "proc@10", "pulled", "added", "processed",
    ));
    for (name, text) in work_statements() {
        let (first, top) = (
            work_inputs(&db, &text, FIRST_K),
            work_inputs(&db, &text, TOP_K),
        );
        if top.len() < 2 {
            continue;
        }
        for ((index, role, at10), (_, _, at100)) in first.iter().zip(&top) {
            out.push_str(&format!(
                "{:<10} {:>5} {:<11} {:>6} {:>6} {:>7} {:>7} {:>6} {:>9}\n",
                name,
                format!("#{index}"),
                format!("{role:?}").to_lowercase(),
                at10.answers,
                at10.tuples_added,
                at10.tuples_processed,
                at100.answers,
                at100.tuples_added,
                at100.tuples_processed,
            ));
        }
    }
    out
}

// ----------------------------------------------------------------------
// Overload study (the resource governor under concurrent clients)
// ----------------------------------------------------------------------

/// One closed-loop overload run: a fixed number of concurrent clients
/// hammering a governed [`Database`] with the same flexible query, at one
/// overload policy and one saturation multiple of the shared tuple pool.
#[derive(Debug, Clone)]
pub struct OverloadRun {
    /// Overload policy the clients requested (`degrade` or `shed`).
    pub policy: String,
    /// Offered load relative to the pool (`1x`, `4x`, `16x`).
    pub saturation: String,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests that completed with answers (including degraded ones).
    pub completed: usize,
    /// Completed requests that finished degraded (budget tripped mid-query).
    pub degraded: usize,
    /// Shed events: governor rejections absorbed by backoff-and-retry,
    /// both the engine's own `Shed` retries and the clients' loop.
    pub sheds: u64,
    /// Requests abandoned after exhausting their retry budget.
    pub rejected: u64,
    /// Requests that failed with `ResourceExhausted` (pool pressure under
    /// the shrunken post-shed budgets).
    pub exhausted: usize,
    /// Median latency of completed requests (client view, retries included).
    pub p50: Duration,
    /// 99th-percentile latency of completed requests.
    pub p99: Duration,
}

/// Drains one governed request, returning its stats or the typed failure.
fn governed_request(
    prepared: &PreparedQuery,
    request: &ExecOptions,
) -> Result<EvalStats, OmegaError> {
    let mut stream = prepared.answers(request);
    loop {
        match stream.next_answer() {
            Ok(Some(_)) => {}
            Ok(None) => return Ok(stream.stats()),
            Err(e) => return Err(e),
        }
    }
}

/// The overload study: closed-loop concurrent clients against a governed
/// database whose shared tuple pool is sized to fit roughly four copies of
/// the study query, at offered loads of 1x/4x/16x that capacity, under both
/// graceful-degradation and load-shedding policies.
///
/// Clients are closed-loop (next request only after the previous one
/// finishes), the paper-methodology top-[`TOP_K`] APPROX fetch is the unit
/// of work, and a client that is rejected with `Overloaded` honours the
/// governor's `retry_after` hint up to three retries before counting the
/// request as rejected. Latencies are the client's view: retry backoff is
/// part of the measured request.
pub fn overload_study(config: &RunConfig) -> Vec<OverloadRun> {
    use omega_core::{GovernorConfig, OverloadPolicy};

    let scale = config.scales().first().copied().unwrap_or(L4AllScale::L1);
    let dataset = l4all_dataset(scale);
    let spec = l4all_queries()[8].clone(); // Q9, the flexible workhorse
    let text = spec.with_operator("APPROX");
    let request = ExecOptions::new().with_limit(TOP_K);

    // Probe the query's tuple appetite on an ungoverned engine, then size
    // the shared pool to about four concurrent copies of it.
    let probe_db = Database::new(dataset.graph.clone(), dataset.ontology.clone());
    let probe = run_query_with(&probe_db, spec.id, "APPROX", &text, &request);
    let appetite = (probe.stats.tuples_added as usize).max(1024);
    let pool = appetite * 4;
    let concurrency = 8usize;

    let mut rows = Vec::new();
    for (policy_name, policy) in [
        ("degrade", OverloadPolicy::Degrade),
        ("shed", OverloadPolicy::Shed),
    ] {
        for (saturation, clients) in [("1x", 4usize), ("4x", 16), ("16x", 64)] {
            let db = Database::with_governor(
                dataset.graph.clone(),
                dataset.ontology.clone(),
                EvalOptions::default(),
                GovernorConfig::default()
                    .with_max_live_tuples(pool)
                    .with_max_concurrent(concurrency)
                    .with_retry_after(Duration::from_millis(2)),
            );
            let client_request = request.clone().with_on_overload(policy);
            const ITERS: usize = 6;
            const ATTEMPTS: usize = 4;

            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::scope(|scope| {
                for _ in 0..clients {
                    let db = db.clone();
                    let tx = tx.clone();
                    let client_request = &client_request;
                    let text = &text;
                    scope.spawn(move || {
                        let prepared = db.prepare(text).expect("study query compiles");
                        let mut latencies = Vec::with_capacity(ITERS);
                        let (mut completed, mut degraded, mut exhausted) = (0usize, 0usize, 0usize);
                        let (mut sheds, mut rejected) = (0u64, 0u64);
                        for _ in 0..ITERS {
                            let start = Instant::now();
                            for attempt in 1..=ATTEMPTS {
                                match governed_request(&prepared, client_request) {
                                    Ok(stats) => {
                                        completed += 1;
                                        degraded += usize::from(stats.degraded);
                                        sheds += stats.sheds;
                                        latencies.push(start.elapsed());
                                        break;
                                    }
                                    Err(OmegaError::Overloaded { retry_after }) => {
                                        if attempt == ATTEMPTS {
                                            rejected += 1;
                                        } else {
                                            sheds += 1;
                                            std::thread::sleep(retry_after);
                                        }
                                    }
                                    Err(OmegaError::ResourceExhausted { .. }) => {
                                        exhausted += 1;
                                        break;
                                    }
                                    Err(other) => panic!("overload study request failed: {other}"),
                                }
                            }
                        }
                        tx.send((latencies, completed, degraded, exhausted, sheds, rejected))
                            .expect("study channel open");
                    });
                }
            });
            drop(tx);

            // Percentiles come from the shared log-scale histogram (the
            // same one the serving layer reports from),
            // so every suite's p50/p99 is computed the same way.
            let latencies = Histogram::new();
            let (mut completed, mut degraded, mut exhausted) = (0usize, 0usize, 0usize);
            let (mut sheds, mut rejected) = (0u64, 0u64);
            for (lat, c, d, e, s, r) in rx {
                for latency in lat {
                    latencies.observe(latency);
                }
                completed += c;
                degraded += d;
                exhausted += e;
                sheds += s;
                rejected += r;
            }
            let snap = latencies.snapshot();
            let gauges = db.governor().gauges();
            assert_eq!(
                (
                    gauges.live_tuples,
                    gauges.executions,
                    gauges.join_buffer_entries
                ),
                (0, 0, 0),
                "governor gauges must return to zero after the {policy_name}/{saturation} run"
            );
            rows.push(OverloadRun {
                policy: policy_name.to_owned(),
                saturation: saturation.to_owned(),
                clients,
                completed,
                degraded,
                sheds,
                rejected,
                exhausted,
                p50: Duration::from_nanos(snap.p50()),
                p99: Duration::from_nanos(snap.p99()),
            });
        }
    }
    rows
}

/// Formats the [`overload_study`] rows as a policy/saturation table.
pub fn overload_comparison(rows: &[OverloadRun]) -> String {
    let mut out =
        String::from("Overload: closed-loop clients vs the resource governor (latency in ms)\n");
    out.push_str(&format!(
        "{:<9} {:<5} {:>8} {:>10} {:>9} {:>7} {:>9} {:>10} {:>9} {:>9}\n",
        "Policy",
        "Load",
        "Clients",
        "Completed",
        "Degraded",
        "Sheds",
        "Rejected",
        "Exhausted",
        "p50",
        "p99"
    ));
    for run in rows {
        out.push_str(&format!(
            "{:<9} {:<5} {:>8} {:>10} {:>9} {:>7} {:>9} {:>10} {:>9} {:>9}\n",
            run.policy,
            run.saturation,
            run.clients,
            run.completed,
            run.degraded,
            run.sheds,
            run.rejected,
            run.exhausted,
            format_duration(run.p50),
            format_duration(run.p99),
        ));
    }
    out
}

/// The Section 4.1 claim that exact evaluation is competitive with plain
/// NFA-based approaches: Omega's ranked evaluator vs the BFS baseline on the
/// exact L4All queries.
pub fn baseline_comparison(config: &RunConfig) -> String {
    let mut out = String::from(
        "Baseline comparison: exact queries, ranked evaluator vs product-automaton BFS (ms)\n",
    );
    out.push_str(&format!(
        "{:<6} {:>10} {:>10} {:>10}\n",
        "Query", "ranked", "BFS", "answers"
    ));
    let scale = config.scales().last().copied().unwrap_or(L4AllScale::L1);
    let dataset = l4all_dataset(scale);
    let omega = engine_for(&dataset, EvalOptions::default());
    for spec in l4all_queries() {
        if !figure5_query_ids().contains(&spec.id) {
            continue;
        }
        let ranked = run_query(&omega, spec.id, "", spec.text);
        let query = omega_core::parse_query(spec.text).unwrap();
        let start = Instant::now();
        let mut bfs = BaselineEvaluator::new(
            &query.conjuncts[0],
            &dataset.graph,
            &dataset.ontology,
            &EvalOptions::default(),
        )
        .unwrap();
        let bfs_answers = bfs.run();
        let bfs_elapsed = start.elapsed();
        out.push_str(&format!(
            "{:<6} {:>10} {:>10} {:>10}\n",
            spec.id,
            format_duration(ranked.elapsed),
            format_duration(bfs_elapsed),
            format!("{}/{}", ranked.answers, bfs_answers.len()),
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Snapshot tooling (the `experiments -- snapshot` subcommand)
// ----------------------------------------------------------------------

/// Generates the named dataset (`l4all` or `yago`) at the configured scale,
/// builds a [`Database`] and saves its snapshot image to `out`. Returns a
/// human-readable summary.
pub fn snapshot_build(
    dataset: &str,
    config: &RunConfig,
    out: &std::path::Path,
) -> Result<String, String> {
    let data = match dataset {
        "l4all" => l4all_dataset(config.scales().last().copied().unwrap_or(L4AllScale::L1)),
        "yago" => yago_dataset(config.yago_scale),
        other => {
            return Err(format!(
                "unknown dataset {other:?} (expected l4all or yago)"
            ))
        }
    };
    let start = Instant::now();
    let db = Database::new(data.graph, data.ontology);
    let built = start.elapsed();
    let start = Instant::now();
    db.save_snapshot(out).map_err(|e| e.to_string())?;
    let saved = start.elapsed();
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "snapshot {}: {} nodes, {} edges, {} labels -> {} bytes (build {}ms, save {}ms)",
        out.display(),
        db.graph().node_count(),
        db.graph().edge_count(),
        db.graph().label_count(),
        bytes,
        built.as_millis(),
        saved.as_millis(),
    ))
}

/// Opens `path`, prints the container header and section table, and
/// verifies the image end-to-end by constructing a [`Database`] over it.
pub fn snapshot_inspect(path: &std::path::Path) -> Result<String, String> {
    use omega_graph::snapshot::{SectionId, SectionKind, SnapshotReader, FORMAT_VERSION};

    let reader = SnapshotReader::open(path).map_err(|e| e.to_string())?;
    let mut out = format!(
        "{}: format v{FORMAT_VERSION}, {} bytes, {} sections (all checksums verified)\n",
        path.display(),
        reader.file_len(),
        reader.sections().len(),
    );
    out.push_str(&format!(
        "{:<24} {:>12} {:>14} {:>18}\n",
        "section", "offset", "bytes", "fnv1a-64"
    ));
    for entry in reader.sections() {
        out.push_str(&format!(
            "{:<24} {:>12} {:>14} {:>#18x}\n",
            entry.id.to_string(),
            entry.offset,
            entry.len,
            entry.checksum
        ));
    }
    // The label-stats section is optional: images written before it existed
    // open fine and recompute the statistics lazily. A structurally wrong
    // section is reported here, not panicked on — `Database::open_snapshot`
    // below then rejects the image with its typed error.
    match reader.section(SectionId::plain(SectionKind::LabelStats)) {
        Some(section) => {
            let words = section.as_u64s().map_err(|e| e.to_string())?;
            let expected = words
                .first()
                .and_then(|&labels| labels.checked_mul(3))
                .and_then(|triples| triples.checked_add(1));
            if expected == Some(words.len() as u64) {
                let edges: u64 = words[1..].chunks_exact(3).map(|w| w[0]).sum();
                out.push_str(&format!(
                    "label stats: {} labels, {edges} edges (planner-ready)\n",
                    words[0]
                ));
            } else {
                out.push_str(&format!(
                    "label stats: malformed section ({} words)\n",
                    words.len()
                ));
            }
        }
        None => out.push_str("label stats: absent (pre-stats image; recomputed lazily on open)\n"),
    }
    drop(reader);
    let start = Instant::now();
    let db = Database::open_snapshot(path).map_err(|e| e.to_string())?;
    out.push_str(&format!(
        "opened as Database in {:.2}ms: {} nodes, {} edges, {} labels, {} classes, {} properties\n",
        start.elapsed().as_secs_f64() * 1e3,
        db.graph().node_count(),
        db.graph().edge_count(),
        db.graph().label_count(),
        db.ontology().class_count(),
        db.ontology().property_count(),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_build_and_inspect_round_trip() {
        let path = std::env::temp_dir().join(format!(
            "omega-bench-snapshot-{}.snapshot",
            std::process::id()
        ));
        let config = RunConfig {
            max_scale: L4AllScale::L1,
            yago_scale: 0.05,
            samples: 1,
        };
        let summary = snapshot_build("yago", &config, &path).unwrap();
        assert!(summary.contains("nodes"));
        let inspected = snapshot_inspect(&path).unwrap();
        assert!(inspected.contains("format v1"));
        assert!(inspected.contains("csr-offsets"));
        assert!(inspected.contains("ontology"));
        assert!(inspected.contains("opened as Database"));
        assert!(snapshot_build("nope", &config, &path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inspect_reports_a_malformed_stats_section_without_panicking() {
        use omega_graph::snapshot::{
            write_graph_sections_without_stats, SectionId, SectionKind, SnapshotWriter,
        };

        let dataset = yago_dataset(0.05);
        let db = omega_core::Database::new(dataset.graph.clone(), dataset.ontology.clone());
        let path = std::env::temp_dir().join(format!(
            "omega-bench-badstats-{}.snapshot",
            std::process::id()
        ));
        let mut writer = SnapshotWriter::new();
        write_graph_sections_without_stats(&db.graph(), &mut writer).unwrap();
        omega_ontology::snapshot::write_ontology_section(db.ontology(), &mut writer).unwrap();
        // An empty label-stats section: structurally valid container, bogus
        // payload. Inspect must degrade to a typed error, never panic.
        writer.add(SectionId::plain(SectionKind::LabelStats), Vec::new());
        writer.write_to(&path).unwrap();
        let err = snapshot_inspect(&path).unwrap_err();
        assert!(
            err.contains("label-stats"),
            "expected the typed malformed-section error, got: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_config_scales() {
        assert_eq!(RunConfig::quick().scales().len(), 2);
        assert_eq!(RunConfig::full().scales().len(), 4);
    }

    #[test]
    fn figure2_lists_all_five_hierarchies() {
        let fig = figure2();
        for name in [
            "Episode",
            "Subject",
            "Occupation",
            "Education Qualification Level",
            "Industry Sector",
        ] {
            assert!(fig.contains(name), "missing {name} in:\n{fig}");
        }
    }

    #[test]
    fn query_run_distance_summary_format() {
        let run = QueryRun {
            id: "Q9".into(),
            operator: "APPROX".into(),
            elapsed: Duration::from_millis(5),
            samples: 1,
            answers: 100,
            distances: [(0u32, 1usize), (1, 32), (2, 67)].into_iter().collect(),
            exhausted: false,
            stats: EvalStats::default(),
        };
        assert_eq!(run.distance_summary(), "1 (32) 2 (67)");
    }

    #[test]
    fn tiny_end_to_end_study() {
        // A minimal smoke test of the harness machinery on a tiny dataset:
        // exact vs APPROX vs RELAX on L4All Q10.
        let dataset = generate_l4all(&L4AllConfig::tiny());
        let omega = engine_for(&dataset, EvalOptions::default());
        let spec = l4all_queries()[9].clone();
        let runs = run_all_operators(&omega, &spec, 3);
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.samples == 3));
        let exact = &runs[0];
        let approx = &runs[1];
        let relax = &runs[2];
        assert!(approx.answers >= exact.answers);
        assert!(relax.answers >= exact.answers);
        assert!(!exact.exhausted);
    }

    /// Cost-guided pruning may only *complete* a study query the unguided
    /// run exhausts its memory budget on; it never changes or loses answers.
    #[test]
    fn cost_guided_pruning_keeps_every_study_answer_count() {
        let config = RunConfig {
            max_scale: L4AllScale::L1,
            yago_scale: 0.1,
            samples: 1,
        };
        let study = |guided: bool| -> Vec<QueryRun> {
            let options = EvalOptions::default().with_cost_guided(guided);
            let l4all = l4all_study(&config, &options);
            let yago = yago_study(&config, &options);
            l4all.into_iter().map(|(_, run)| run).chain(yago).collect()
        };
        let (guided, unguided) = (study(true), study(false));
        assert_eq!(guided.len(), (6 + 5) * 3, "every study query x 3 operators");
        assert_eq!(guided.len(), unguided.len());
        for (g, u) in guided.iter().zip(&unguided) {
            assert_eq!((&g.id, &g.operator), (&u.id, &u.operator));
            if u.exhausted {
                assert!(
                    g.answers >= u.answers,
                    "guided lost answers: {g:?} vs {u:?}"
                );
            } else {
                assert!(!g.exhausted, "only the guided run exhausted: {g:?}");
                assert_eq!(g.answers, u.answers, "{} {} diverged", g.id, g.operator);
            }
        }
    }

    #[test]
    fn work_table_has_one_row_per_statement() {
        let config = RunConfig {
            max_scale: L4AllScale::L1,
            yago_scale: 0.05,
            samples: 1,
        };
        let table = work_table(&config);
        let statements = work_statements();
        assert_eq!(statements.len(), 9);
        // The statement rows, then three per input row for each of the four
        // three-conjunct statements (M2, M3, exact and APPROX).
        let per_input = 4 * 3;
        assert_eq!(
            table.lines().count(),
            2 + statements.len() + 2 + per_input,
            "{table}"
        );
        for (name, _) in &statements {
            let rows = table
                .lines()
                .filter(|line| line.starts_with(&format!("{name:<10} ")))
                .count();
            let inputs = if name.starts_with('M') { 3 } else { 0 };
            assert_eq!(rows, 1 + inputs, "rows for {name}:\n{table}");
        }
        let roles = ["driver", "dependent", "independent"];
        let role_rows = table
            .lines()
            .filter(|line| roles.iter().any(|r| line.contains(&format!(" {r} "))))
            .count();
        assert_eq!(role_rows, per_input, "{table}");
    }

    #[test]
    fn ablation_table_has_one_agreeing_row_per_case() {
        let l4all = generate_l4all(&L4AllConfig::tiny());
        let yago = yago_dataset(0.05);
        let cases = ablation_cases(&l4all, &yago);
        for verb in [
            "opt-distance",
            "opt-disjunction",
            "opt-final",
            "opt-batching",
            "opt-guidance",
        ] {
            assert!(
                cases.iter().any(|c| c.0.starts_with(verb)),
                "no {verb} case"
            );
        }
        let table = ablations(&cases, 1);
        assert_eq!(table.lines().count(), 2 + cases.len(), "{table}");
        assert!(
            !table.contains("MISMATCH"),
            "an optimisation changed answers:\n{table}"
        );
    }
}
