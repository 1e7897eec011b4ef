//! # omega
//!
//! Facade crate for **Omega-RS**, a Rust reproduction of *Implementing
//! Flexible Operators for Regular Path Queries* (Selmer, Poulovassilis, Wood;
//! EDBT/ICDT Workshops 2015).
//!
//! The heavy lifting lives in the member crates; this crate simply re-exports
//! them so that applications can depend on a single crate:
//!
//! * [`graph`] — the graph store substrate (Sparksee substitute),
//! * [`ontology`] — the RDFS-subset ontology,
//! * [`regex`] — RPQ regular expressions,
//! * [`automata`] — weighted NFAs with APPROX/RELAX augmentation,
//! * [`core`] — the query language, ranked evaluator and the
//!   [`Database`] / [`PreparedQuery`] service API,
//! * [`datagen`] — the L4All and YAGO-like data generators used by the
//!   reproduction study.
//!
//! ## Quick start
//!
//! ```
//! use omega::{Database, ExecOptions, GraphStore, Ontology};
//!
//! let mut graph = GraphStore::new();
//! graph.add_triple("alice", "knows", "bob");
//! let db = Database::new(graph, Ontology::new());
//!
//! // Prepared once (and cached by text), executable from any thread.
//! let prepared = db.prepare("(?X) <- (alice, knows, ?X)").unwrap();
//! let answers = prepared.execute(&ExecOptions::new()).unwrap();
//! assert_eq!(answers[0].get("X"), Some("bob"));
//! ```
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use omega_automata as automata;
pub use omega_core as core;
pub use omega_datagen as datagen;
pub use omega_graph as graph;
pub use omega_ontology as ontology;
pub use omega_regex as regex;

pub use omega_core::{
    Answer, Answers, Database, EvalOptions, ExecOptions, PreparedQuery, QueryMode,
};
pub use omega_graph::{Direction, GraphStore, LabelId, NodeId};
pub use omega_ontology::Ontology;
