//! # omega-ontology
//!
//! The RDFS-subset ontology `K = (V_K, E_K)` of the paper: subclass (`sc`)
//! and subproperty (`sp`) hierarchies together with property `domain` and
//! `range` declarations.
//!
//! The RELAX operator of Omega uses this ontology in two ways:
//!
//! 1. **Relaxation** — replacing a class/property by its immediate
//!    superclass/superproperty (cost β per step) and replacing a property by
//!    a `type` edge to its domain/range class (cost γ).
//! 2. **Inference** — a relaxed query is answered over the RDFS closure of
//!    the data graph, so a transition labelled `p` also matches edges whose
//!    label is a sub-property of `p`, and a class constraint also accepts its
//!    sub-classes.
//!
//! Classes are identified by the [`omega_graph::NodeId`] of their class node
//! in the data graph; properties are identified by their edge
//! [`omega_graph::LabelId`]. Keeping the ontology in the graph's id space
//! means the evaluator never needs string lookups on the hot path.
//!
//! Each hierarchy stores its direct relation, and its transitive closures
//! are a cache of that relation: flat per-member tables built on the first
//! read and dropped by the next mutation (or read from a snapshot image).
//! Every closure has one reader, which returns a borrowed slice, so the
//! evaluator, the compiler and the data generators read the same rows.

pub mod error;
pub mod hierarchy;
pub mod ontology;
pub mod snapshot;
pub mod stats;

pub use error::OntologyError;
pub use hierarchy::Hierarchy;
pub use ontology::Ontology;
pub use stats::HierarchyStats;
