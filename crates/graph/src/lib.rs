//! # omega-graph
//!
//! An in-memory, labelled, directed multigraph store. It plays the role that
//! Sparksee plays in the Omega system of the paper *Implementing Flexible
//! Operators for Regular Path Queries* (EDBT 2015): the physical storage and
//! index layer that the query evaluator talks to.
//!
//! The store exposes the same access surface the paper relies on:
//!
//! * every node has a unique string label, indexed (`GraphStore::node_by_label`),
//! * edges are typed by an interned label (`LabelId`) and indexed per
//!   `(label, direction)` so that [`GraphStore::neighbors_iter`] is an
//!   indexed lookup (the paper's `Neighbors`),
//! * [`GraphStore::heads`] / [`GraphStore::tails`] return bitmap node sets
//!   — copies of one occupancy bitmap kept per `(label, direction)` —
//!   mirroring Sparksee's bitmap-vector indexes and supporting cheap set
//!   operations,
//! * [`GraphStore::summary`] divides the nodes into at most 64 classes by
//!   the `(label, direction)` layers they have edges in, and records which
//!   classes an edge of each layer links ([`summary::NodeSummary`]): a tiny
//!   image of the graph that the evaluator's bound searches,
//! * a generic "any label" adjacency supports the wildcard `*` transitions of
//!   APPROX automata (the paper's synthetic `edge` type).
//!
//! The distinguished edge label `type` (class membership) is always present
//! and can be obtained through [`GraphStore::type_label`].
//!
//! ## Lifecycle: loading, frozen, live
//!
//! A store is loaded through a mutable API ([`GraphStore::add_node`] /
//! [`GraphStore::add_edge`] / [`GraphStore::add_triple`]) and then — once
//! loading is complete — compiled by [`GraphStore::freeze`] into
//! compressed-sparse-row (CSR) indexes: per `(label, direction)`
//! offset/neighbour arrays, plus CSR layouts of the mixed-label `out_all` /
//! `in_all` views that serve the wildcard `*` transitions. A neighbour
//! lookup on a frozen store is two array reads into a borrowed `&[NodeId]`
//! run: no hashing, no allocation, and neighbour lists packed contiguously
//! for cache locality. The [`crate::csr`] module documents the
//! layout.
//!
//! There is one representation behind both stages: a frozen store is shared
//! parts only — node dictionary, label interner and CSR index, each behind
//! an `Arc` — plus an optional *delta overlay* of edges that are not in the
//! index ([`crate::overlay`]). While loading, the overlay holds every edge
//! and serves every read; `freeze` merges it into the index and drops it.
//! [`GraphStore::with_delta`] then derives new epochs of a frozen store in
//! time proportional to the batch, each sharing everything with its parent
//! but the overlay paths the batch touched, and
//! [`GraphStore::compacted`] merges index and overlay into a fresh index.
//! Adding an edge to a frozen store through the loading API thaws it back
//! to the loading stage.
//!
//! A frozen store can additionally be persisted as a single binary image and
//! re-opened with its CSR arrays and node dictionary memory-mapped in place
//! — see [`crate::snapshot`]. An opened store is an ordinary frozen store.
//!
//! ```
//! use omega_graph::{GraphStore, Direction};
//!
//! let mut g = GraphStore::new();
//! let alice = g.add_node("Alice");
//! let bob = g.add_node("Bob");
//! let knows = g.intern_label("knows");
//! g.add_edge(alice, knows, bob);
//!
//! assert!(g.neighbors_iter(alice, knows, Direction::Outgoing).eq([bob]));
//! assert_eq!(g.node_label(bob), "Bob");
//! ```

pub mod bitmap;
pub mod bytes;
pub mod csr;
mod dict;
pub mod error;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod interner;
pub mod io;
pub mod overlay;
pub mod snapshot;
pub mod stats;
pub mod summary;
mod trie;
pub mod wal;

pub use bitmap::NodeBitmap;
pub use error::GraphError;
pub use graph::{EdgeRef, GraphStore};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use ids::{Direction, LabelId, NodeId};
pub use interner::LabelInterner;
pub use overlay::{DeltaReport, GraphDelta};
pub use snapshot::SnapshotError;
pub use stats::{GraphStats, LabelEntry, LabelStats};
pub use summary::NodeSummary;
pub use wal::{
    FsyncPolicy, Wal, WalAppend, WalConfig, WalError, WalFailure, WalRecord, WalRecovery,
};
