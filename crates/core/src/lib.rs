//! # omega-core
//!
//! The Omega query processor of *Implementing Flexible Operators for Regular
//! Path Queries* (Selmer, Poulovassilis & Wood, EDBT/ICDT Workshops 2015):
//! conjunctive regular path queries (CRPQs) over an edge-labelled graph and
//! an RDFS-style ontology, extended with two flexible operators —
//!
//! * **APPROX**: approximate matching of a conjunct's regular expression
//!   under edit distance (insertion / deletion / substitution of edge
//!   labels), and
//! * **RELAX**: ontology-driven relaxation (superclass / superproperty steps,
//!   property-to-`type`-edge rewriting) evaluated under RDFS inference —
//!
//! with answers returned **incrementally in non-decreasing order of
//! distance**.
//!
//! ## Quick start
//!
//! The service API is built around three pieces: a shared [`Database`]
//! handle, [`PreparedQuery`] statements compiled once and executed many
//! times, and per-request [`ExecOptions`]:
//!
//! ```
//! use omega_core::{Database, ExecOptions};
//! use omega_graph::GraphStore;
//! use omega_ontology::Ontology;
//!
//! let mut graph = GraphStore::new();
//! graph.add_triple("UK", "hasCapital", "London");
//! graph.add_triple("college", "locatedIn", "UK");
//! graph.add_triple("alice", "gradFrom", "college");
//!
//! // `Database` is Send + Sync and clones are Arc bumps: share one handle
//! // across however many threads serve queries.
//! let db = Database::new(graph, Ontology::new());
//!
//! // The user got the direction of `gradFrom` wrong — no exact answers…
//! let prepared = db.prepare("(?X) <- (UK, locatedIn-.gradFrom, ?X)").unwrap();
//! let exact = prepared.execute(&ExecOptions::new().with_limit(10)).unwrap();
//! assert!(exact.is_empty());
//!
//! // …but APPROX repairs the query (substituting `gradFrom-`) at distance 1.
//! // Prepared statements are cached by text, and every request brings its
//! // own limit / deadline / budgets.
//! let approx = db.prepare("(?X) <- APPROX (UK, locatedIn-.gradFrom, ?X)").unwrap();
//! let request = ExecOptions::new()
//!     .with_limit(10)
//!     .with_timeout(std::time::Duration::from_secs(5));
//! let answers = approx.execute(&request).unwrap();
//! let alice = answers.iter().find(|a| a.get("X") == Some("alice")).unwrap();
//! assert_eq!(alice.distance, 1);
//!
//! // Streaming: `Answers` is an Iterator over Result<Answer> that carries
//! // the evaluator's statistics.
//! let mut stream = approx.answers(&ExecOptions::new().with_limit(1));
//! assert!(stream.next().unwrap().is_ok());
//! assert!(stream.stats().tuples_processed > 0);
//! ```
//!
//! ## Architecture
//!
//! * [`query`] — the CRPQ model and its textual parser,
//! * [`eval::plan`] — conjunct compilation (automaton construction, APPROX /
//!   RELAX augmentation, conjunct reversal, seed selection: the paper's
//!   `Open`),
//! * [`eval::conjunct`] — the ranked evaluator (`GetNext` / `Succ`) over the
//!   lazily built weighted product automaton: the one evaluator every
//!   execution runs,
//! * [`eval::rank_join`] — the multi-conjunct ranked join,
//! * [`service`] — the shared [`Database`] / [`PreparedQuery`] /
//!   [`ExecOptions`] service surface (storage epochs, prepared cache),
//! * [`exec`] — one execution of a prepared statement: stream construction
//!   and the [`Answers`] handle.
//!
//! This crate is the paper's Section 3. The Section 4 comparisons — the two
//! Section 4.3 optimisations, as drivers around a compiled plan, and the
//! product-automaton BFS baseline — live in `omega-bench`, which runs them.

pub mod answer;
pub mod error;
pub mod eval;
pub mod exec;
pub mod govern;
pub mod query;
pub mod service;

pub use answer::{Answer, AnswerBatch, Bindings, ConjunctAnswer, UNBOUND};
pub use error::{OmegaError, Result};
pub use eval::{
    AnswerStream, ConjunctEvaluator, EvalOptions, EvalStats, RankJoin, TruncationReason,
};
pub use govern::{ExecutionPermit, GovernorConfig, GovernorGauges, ResourceGovernor};
/// The byte codec the serving layer's frames are encoded with.
pub use omega_graph::bytes;
pub use omega_graph::wal::{FsyncPolicy, WalConfig, WalError};
pub use omega_graph::SnapshotError;
/// What an [`Answers::next_row`] row is made of, and the id-keyed map its
/// consumers index rows with.
pub use omega_graph::{FxHashMap, NodeId};
pub use omega_obs::{ProfilePhase, QueryProfile, Registry as MetricsRegistry};
pub use query::{parse_query, Conjunct, Query, QueryMode, Term};
pub use service::{
    Answers, Database, ExecOptions, GraphRef, InputRole, MutationBatch, MutationReport,
    OverloadPolicy, PreparedQuery, RecoveryReport,
};
