//! Resolution of label names to graph identifiers, and of identifiers back
//! to names.
//!
//! Automaton construction happens at query-compilation time and needs to map
//! the label strings appearing in a regular expression to the data graph's
//! interned [`LabelId`]s (and, for RELAX, to name the [`NodeId`]s and labels
//! its transitions carry). Labels that do not occur in the graph resolve to `None`; the resulting
//! transitions can never match an edge but are still subject to APPROX edit
//! operations, exactly as in the paper (a mistyped label can be *substituted*
//! into a matching one).

use std::collections::HashMap;
use std::sync::Arc;

use omega_graph::{GraphStore, LabelId, NodeId};

/// Maps label names to graph identifiers, and identifiers to names.
pub trait LabelResolver {
    /// Resolves an edge-label name.
    fn resolve_label(&self, name: &str) -> Option<LabelId>;
    /// The display name of a node, used when annotating RELAX transitions.
    fn node_name(&self, node: NodeId) -> Arc<str>;
    /// The display name of an edge label, used when annotating RELAX
    /// transitions with superproperty labels.
    fn label_name(&self, label: LabelId) -> Arc<str>;
}

impl LabelResolver for GraphStore {
    fn resolve_label(&self, name: &str) -> Option<LabelId> {
        self.label_id(name)
    }

    fn node_name(&self, node: NodeId) -> Arc<str> {
        self.node_label(node).into()
    }

    fn label_name(&self, label: LabelId) -> Arc<str> {
        GraphStore::label_name(self, label).into()
    }
}

/// A map-backed resolver for unit tests that do not want to build a graph.
#[derive(Debug, Default, Clone)]
pub struct MapResolver {
    labels: HashMap<String, LabelId>,
    nodes: HashMap<String, NodeId>,
}

impl MapResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or reuses) a label mapping and returns its id.
    pub fn add_label(&mut self, name: &str) -> LabelId {
        let next = LabelId(self.labels.len() as u32);
        *self.labels.entry(name.to_owned()).or_insert(next)
    }

    /// Adds (or reuses) a node mapping and returns its id.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        let next = NodeId(self.nodes.len() as u32);
        *self.nodes.entry(name.to_owned()).or_insert(next)
    }
}

impl LabelResolver for MapResolver {
    fn resolve_label(&self, name: &str) -> Option<LabelId> {
        self.labels.get(name).copied()
    }

    fn node_name(&self, node: NodeId) -> Arc<str> {
        self.nodes
            .iter()
            .find(|(_, &id)| id == node)
            .map_or_else(|| format!("{node}"), |(name, _)| name.clone())
            .into()
    }

    fn label_name(&self, label: LabelId) -> Arc<str> {
        self.labels
            .iter()
            .find(|(_, &id)| id == label)
            .map_or_else(|| format!("{label:?}"), |(name, _)| name.clone())
            .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_store_resolver() {
        let mut g = GraphStore::new();
        g.add_triple("a", "knows", "b");
        assert_eq!(g.resolve_label("knows"), g.label_id("knows"));
        assert_eq!(g.resolve_label("missing"), None);
        assert_eq!(&*g.node_name(g.node_by_label("b").unwrap()), "b");
    }

    #[test]
    fn map_resolver_is_stable() {
        let mut r = MapResolver::new();
        let a = r.add_label("a");
        let a2 = r.add_label("a");
        assert_eq!(a, a2);
        let n = r.add_node("Person");
        assert_eq!(r.resolve_label("b"), None);
        assert_eq!(&*r.node_name(n), "Person");
    }
}
