//! The legacy `Omega` facade, now a thin shim over the service API
//! ([`crate::service::Database`] / [`crate::service::PreparedQuery`]).
//!
//! `Omega` predates the sessioned service surface: it owns its options
//! mutably (`options_mut`) and recompiles every query per call, so it cannot
//! be shared across threads or amortise compilation. New code should hold a
//! [`Database`] and prepare queries instead; `Omega` remains for source
//! compatibility and delegates all storage and evaluation to the same
//! machinery.

#![allow(deprecated)]

use std::sync::Arc;

use omega_graph::GraphStore;
use omega_ontology::Ontology;

use crate::answer::Answer;
use crate::error::Result;
use crate::eval::{EvalOptions, EvalStats};
use crate::query::ast::Query;
use crate::query::parser::parse_query;
use crate::service::{compile_prepared, Answers, Database, GraphData};

pub use crate::service::conjunct_variables;

/// The original single-owner query engine: a data graph, its ontology, and
/// engine-global evaluation options.
///
/// ```
/// use omega_core::Omega;
/// use omega_graph::GraphStore;
/// use omega_ontology::Ontology;
///
/// let mut graph = GraphStore::new();
/// graph.add_triple("alice", "knows", "bob");
/// graph.add_triple("bob", "knows", "carol");
/// let omega = Omega::new(graph, Ontology::new());
///
/// let answers = omega.execute("(?X) <- (alice, knows+, ?X)", None).unwrap();
/// assert_eq!(answers.len(), 2);
/// assert_eq!(answers[0].distance, 0);
/// ```
#[deprecated(
    since = "0.3.0",
    note = "use `Database` (shared, Send + Sync) with `PreparedQuery`/`ExecOptions` instead"
)]
pub struct Omega {
    db: Database,
    /// The storage epoch pinned at construction. `Omega` predates live
    /// mutation and hands out plain `&GraphStore` borrows, so it serves the
    /// epoch it was built on for its whole lifetime.
    data: std::sync::Arc<GraphData>,
    options: EvalOptions,
}

impl Omega {
    /// Creates an engine with default [`EvalOptions`].
    pub fn new(graph: GraphStore, ontology: Ontology) -> Omega {
        Omega::with_options(graph, ontology, EvalOptions::default())
    }

    /// Creates an engine with explicit options.
    ///
    /// The graph is frozen into its CSR representation here, exactly as
    /// [`Database::with_options`] does.
    pub fn with_options(graph: GraphStore, ontology: Ontology, options: EvalOptions) -> Omega {
        let db = Database::with_options(graph, ontology, options.clone());
        let data = db.data();
        Omega { db, data, options }
    }

    /// The data graph.
    pub fn graph(&self) -> &GraphStore {
        &self.data.graph
    }

    /// The ontology.
    pub fn ontology(&self) -> &Ontology {
        self.db.ontology()
    }

    /// The evaluation options.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// Mutable access to the evaluation options (e.g. to toggle the
    /// Section 4.3 optimisations between runs).
    ///
    /// This engine-global mutability is why `Omega` cannot be shared across
    /// threads; the service API replaces it with per-request
    /// [`crate::service::ExecOptions`].
    pub fn options_mut(&mut self) -> &mut EvalOptions {
        &mut self.options
    }

    /// Parses and executes a query, returning at most `limit` answers in
    /// non-decreasing distance order (all answers when `limit` is `None`).
    pub fn execute(&self, query_text: &str, limit: Option<usize>) -> Result<Vec<Answer>> {
        let query = parse_query(query_text)?;
        self.execute_query(&query, limit)
    }

    /// Executes an already parsed query.
    pub fn execute_query(&self, query: &Query, limit: Option<usize>) -> Result<Vec<Answer>> {
        let mut stream = self.stream(query)?;
        stream.collect(limit)
    }

    /// Prepares an incremental answer stream for `query`.
    ///
    /// Unlike [`Database::prepare`], the query is recompiled on every call
    /// against the engine's *current* options — the original semantics of
    /// this type, preserved for callers that mutate `options_mut` between
    /// runs.
    pub fn stream(&self, query: &Query) -> Result<QueryStream<'_>> {
        let prepared = Arc::new(compile_prepared(
            query,
            &self.data.graph,
            &self.data.ontology,
            &self.options,
        )?);
        Ok(QueryStream {
            inner: prepared.answers(
                &self.data,
                self.db.pool(),
                self.db.governor(),
                self.db.core_metrics(),
                self.options.clone(),
                None,
                false,
                false,
            ),
        })
    }
}

/// An incremental stream of [`Answer`]s for one query — the pre-service
/// streaming interface, now a wrapper over [`Answers`].
pub struct QueryStream<'a> {
    inner: Answers<'a>,
}

impl QueryStream<'_> {
    /// The next answer, or `Ok(None)` when the stream is exhausted.
    ///
    /// Not an `Iterator` because production is fallible (`Result`); use
    /// [`Answers`] for the iterator interface.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Answer>> {
        self.inner.next_answer()
    }

    /// Collects up to `limit` answers (all of them when `None`).
    pub fn collect(&mut self, limit: Option<usize>) -> Result<Vec<Answer>> {
        self.inner.collect_up_to(limit)
    }

    /// Evaluation statistics accumulated so far across all conjuncts.
    pub fn stats(&self) -> EvalStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn engine() -> Omega {
        let mut g = GraphStore::new();
        g.add_triple("alice", "knows", "bob");
        g.add_triple("bob", "knows", "carol");
        g.add_triple("carol", "knows", "dave");
        g.add_triple("alice", "worksAt", "acme");
        g.add_triple("bob", "worksAt", "initech");
        g.add_triple("acme", "locatedIn", "UK");
        g.add_triple("initech", "locatedIn", "US");
        g.add_triple("alice", "type", "Student");
        g.add_triple("bob", "type", "Person");
        let mut o = Ontology::new();
        let student = g.node_by_label("Student").unwrap();
        let person = g.node_by_label("Person").unwrap();
        o.add_subclass(student, person).unwrap();
        Omega::new(g, o)
    }

    #[test]
    fn single_conjunct_execution() {
        let omega = engine();
        let answers = omega.execute("(?X) <- (alice, knows+, ?X)", None).unwrap();
        assert_eq!(answers.len(), 3);
        assert!(answers.iter().all(|a| a.distance == 0));
        let bound: Vec<&str> = answers.iter().map(|a| a.get("X").unwrap()).collect();
        assert!(bound.contains(&"bob") && bound.contains(&"dave"));
    }

    #[test]
    fn limit_truncates_results() {
        let omega = engine();
        let answers = omega
            .execute("(?X) <- (alice, knows+, ?X)", Some(2))
            .unwrap();
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn multi_conjunct_join() {
        let omega = engine();
        let answers = omega
            .execute(
                "(?X, ?C) <- (?X, knows, ?Y), (?Y, worksAt.locatedIn, ?C)",
                None,
            )
            .unwrap();
        // alice knows bob, bob works at initech in US.
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].get("X"), Some("alice"));
        assert_eq!(answers[0].get("C"), Some("US"));
        assert_eq!(answers[0].get("Y"), None, "Y is projected away");
    }

    #[test]
    fn projection_deduplicates() {
        let omega = engine();
        // Project only ?X: alice and bob both work somewhere located
        // somewhere, each contributing exactly one projected answer.
        let answers = omega
            .execute("(?X) <- (?X, worksAt.locatedIn, ?Y)", None)
            .unwrap();
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn approx_query_through_engine() {
        let omega = engine();
        let exact = omega
            .execute("(?X) <- (alice, worksAt.worksAt, ?X)", None)
            .unwrap();
        assert!(exact.is_empty());
        let approx = omega
            .execute("(?X) <- APPROX (alice, worksAt.worksAt, ?X)", None)
            .unwrap();
        assert!(!approx.is_empty());
        assert!(approx.iter().all(|a| a.distance >= 1));
    }

    #[test]
    fn relax_query_through_engine() {
        let omega = engine();
        let answers = omega
            .execute("(?X) <- RELAX (Student, type-, ?X)", None)
            .unwrap();
        assert_eq!(answers.len(), 2);
        let alice = answers
            .iter()
            .find(|a| a.get("X") == Some("alice"))
            .unwrap();
        assert_eq!(alice.distance, 0);
        let bob = answers.iter().find(|a| a.get("X") == Some("bob")).unwrap();
        assert_eq!(bob.distance, 1);
    }

    #[test]
    fn optimisations_do_not_change_answer_sets() {
        let base = engine();
        let mut distance_aware = engine();
        distance_aware.options_mut().distance_aware = true;
        let mut decomposed = engine();
        decomposed.options_mut().disjunction_decomposition = true;

        for query in [
            "(?X) <- APPROX (alice, knows.knows, ?X)",
            "(?X) <- APPROX (alice, (knows.knows)|(worksAt.locatedIn), ?X)",
            "(?X) <- RELAX (Student, type-, ?X)",
        ] {
            let reference: Vec<_> = base
                .execute(query, None)
                .unwrap()
                .into_iter()
                .map(|a| (a.bindings, a.distance))
                .collect();
            for variant in [&distance_aware, &decomposed] {
                let got: Vec<_> = variant
                    .execute(query, None)
                    .unwrap()
                    .into_iter()
                    .map(|a| (a.bindings, a.distance))
                    .collect();
                let sort = |mut v: Vec<(BTreeMap<String, String>, u32)>| {
                    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    v
                };
                assert_eq!(
                    sort(reference.clone()),
                    sort(got),
                    "optimisation changed answers for {query}"
                );
            }
        }
    }

    #[test]
    fn options_mut_takes_effect_without_rebuilding() {
        let mut omega = engine();
        omega.options_mut().max_tuples = Some(3);
        let result = omega.execute("(?X, ?Y) <- APPROX (?X, knows+, ?Y)", None);
        assert!(matches!(
            result,
            Err(crate::error::OmegaError::ResourceExhausted { .. })
        ));
    }

    #[test]
    fn stream_reports_statistics() {
        let omega = engine();
        let query = parse_query("(?X) <- (alice, knows+, ?X)").unwrap();
        let mut stream = omega.stream(&query).unwrap();
        let _ = stream.collect(None).unwrap();
        assert!(stream.stats().tuples_processed > 0);
    }

    #[test]
    fn parse_errors_surface() {
        let omega = engine();
        assert!(omega.execute("not a query", None).is_err());
        assert!(omega.execute("(?X) <- (ghost, knows, ?X)", None).is_err());
    }

    #[test]
    fn conjunct_variables_helper() {
        let q = parse_query("(?X) <- (alice, knows, ?X)").unwrap();
        assert_eq!(conjunct_variables(&q.conjuncts[0]), vec!["X"]);
    }
}
