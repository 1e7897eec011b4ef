//! The ontology proper: class and property hierarchies plus domain/range.

use std::collections::HashMap;

use omega_graph::{LabelId, NodeId};

use crate::error::OntologyError;
use crate::hierarchy::Hierarchy;

/// The RDFS-subset ontology `K` accompanying a data graph.
///
/// * classes are graph nodes (identified by [`NodeId`]),
/// * properties are edge labels (identified by [`LabelId`]),
/// * `sc` edges form the class hierarchy, `sp` edges the property hierarchy,
/// * `dom`/`range` map properties to class nodes.
///
/// The closures RELAX reads — superclasses and superproperties with their
/// distances, and the subclass / subproperty closures of RDFS inference —
/// are a cache of the two direct relations ([`Hierarchy`]): each is built on
/// its first read and dropped by the next mutation, so every reader returns
/// a borrowed slice.
#[derive(Debug, Clone, Default)]
pub struct Ontology {
    classes: Hierarchy<NodeId>,
    properties: Hierarchy<LabelId>,
    domain: HashMap<LabelId, NodeId>,
    range: HashMap<LabelId, NodeId>,
}

impl Ontology {
    /// Creates an empty ontology.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Declares `class` as a class node (with no super/subclasses yet).
    pub fn add_class(&mut self, class: NodeId) {
        self.classes.add_member(class);
    }

    /// Declares `property` as a property (with no super/subproperties yet).
    pub fn add_property(&mut self, property: LabelId) {
        self.properties.add_member(property);
    }

    /// Adds `child rdfs:subClassOf parent`.
    pub fn add_subclass(&mut self, child: NodeId, parent: NodeId) -> Result<(), OntologyError> {
        self.classes.add_edge(child, parent)
    }

    /// Adds `child rdfs:subPropertyOf parent`.
    pub fn add_subproperty(
        &mut self,
        child: LabelId,
        parent: LabelId,
    ) -> Result<(), OntologyError> {
        self.properties.add_edge(child, parent)
    }

    /// Declares `rdfs:domain(property) = class`.
    pub fn set_domain(&mut self, property: LabelId, class: NodeId) {
        self.properties.add_member(property);
        self.classes.add_member(class);
        self.domain.insert(property, class);
    }

    /// Declares `rdfs:range(property) = class`.
    pub fn set_range(&mut self, property: LabelId, class: NodeId) {
        self.properties.add_member(property);
        self.classes.add_member(class);
        self.range.insert(property, class);
    }

    // ------------------------------------------------------------------
    // Classes
    // ------------------------------------------------------------------

    /// Whether `node` is a known class node.
    pub fn is_class(&self, node: NodeId) -> bool {
        self.classes.contains(node)
    }

    /// Direct superclasses of `class`.
    pub fn direct_superclasses(&self, class: NodeId) -> &[NodeId] {
        self.classes.parents(class)
    }

    /// Direct subclasses of `class`.
    pub fn direct_subclasses(&self, class: NodeId) -> &[NodeId] {
        self.classes.children(class)
    }

    /// All proper superclasses of `class` with their distance, nearest
    /// (most specific) first — the paper's `GetAncestors`. An unknown class
    /// has none.
    pub fn superclasses(&self, class: NodeId) -> &[(NodeId, u32)] {
        self.classes.ancestors(class)
    }

    /// `class` plus all of its subclasses — what a class constraint accepts
    /// under RDFS inference. An unknown class's closure is just itself.
    pub fn subclasses_or_self<'a>(&'a self, class: &'a NodeId) -> &'a [NodeId] {
        self.classes.descendants_or_self(class)
    }

    /// Whether `sup` is a (proper) superclass of `sub`.
    pub fn is_superclass_of(&self, sup: NodeId, sub: NodeId) -> bool {
        self.classes.is_ancestor(sup, sub)
    }

    /// The class hierarchy (for statistics and generators).
    pub fn class_hierarchy(&self) -> &Hierarchy<NodeId> {
        &self.classes
    }

    // ------------------------------------------------------------------
    // Properties
    // ------------------------------------------------------------------

    /// Whether `label` is a known property.
    pub fn is_property(&self, label: LabelId) -> bool {
        self.properties.contains(label)
    }

    /// Direct superproperties of `property`.
    pub fn direct_superproperties(&self, property: LabelId) -> &[LabelId] {
        self.properties.parents(property)
    }

    /// Direct subproperties of `property`.
    pub fn direct_subproperties(&self, property: LabelId) -> &[LabelId] {
        self.properties.children(property)
    }

    /// All proper superproperties of `property` with their distance, nearest
    /// first. An unknown property has none.
    pub fn superproperties(&self, property: LabelId) -> &[(LabelId, u32)] {
        self.properties.ancestors(property)
    }

    /// `property` plus all of its subproperties — what a property label
    /// matches under RDFS inference. An unknown property's closure is just
    /// itself.
    pub fn subproperties_or_self<'a>(&'a self, property: &'a LabelId) -> &'a [LabelId] {
        self.properties.descendants_or_self(property)
    }

    /// The property hierarchy (for statistics and generators).
    pub fn property_hierarchy(&self) -> &Hierarchy<LabelId> {
        &self.properties
    }

    /// The declared domain class of `property`, if any.
    pub fn domain(&self, property: LabelId) -> Option<NodeId> {
        self.domain.get(&property).copied()
    }

    /// The declared range class of `property`, if any.
    pub fn range(&self, property: LabelId) -> Option<NodeId> {
        self.range.get(&property).copied()
    }

    /// Iterates over all `(property, domain class)` declarations
    /// (unordered).
    pub fn domains(&self) -> impl Iterator<Item = (LabelId, NodeId)> + '_ {
        self.domain.iter().map(|(&p, &c)| (p, c))
    }

    /// Iterates over all `(property, range class)` declarations (unordered).
    pub fn ranges(&self) -> impl Iterator<Item = (LabelId, NodeId)> + '_ {
        self.range.iter().map(|(&p, &c)| (p, c))
    }

    /// Number of declared classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of declared properties.
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }

    /// Reassembles an ontology from snapshot parts (hierarchies carrying
    /// their closure tables, plus the domain/range maps).
    pub(crate) fn from_snapshot_parts(
        classes: Hierarchy<NodeId>,
        properties: Hierarchy<LabelId>,
        domain: HashMap<LabelId, NodeId>,
        range: HashMap<LabelId, NodeId>,
    ) -> Ontology {
        Ontology {
            classes,
            properties,
            domain,
            range,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> NodeId {
        NodeId(n)
    }
    fn lid(n: u32) -> LabelId {
        LabelId(n)
    }

    fn sample() -> Ontology {
        // classes: Thing(0) <- Person(1) <- Student(2); Thing <- Place(3)
        // properties: related(0) <- knows(1) <- closeFriend(2)
        let mut o = Ontology::new();
        o.add_subclass(ids(1), ids(0)).unwrap();
        o.add_subclass(ids(2), ids(1)).unwrap();
        o.add_subclass(ids(3), ids(0)).unwrap();
        o.add_subproperty(lid(1), lid(0)).unwrap();
        o.add_subproperty(lid(2), lid(1)).unwrap();
        o.set_domain(lid(1), ids(1));
        o.set_range(lid(1), ids(1));
        o
    }

    #[test]
    fn superclasses_nearest_first() {
        let o = sample();
        assert_eq!(o.superclasses(ids(2)), [(ids(1), 1), (ids(0), 2)]);
        assert!(o.is_superclass_of(ids(0), ids(2)));
        assert!(!o.is_superclass_of(ids(2), ids(0)));
    }

    #[test]
    fn subclass_closure_for_inference() {
        let o = sample();
        let mut subs = o.subclasses_or_self(&ids(0)).to_vec();
        subs.sort();
        assert_eq!(subs, vec![ids(0), ids(1), ids(2), ids(3)]);
        assert_eq!(o.subclasses_or_self(&ids(2)), [ids(2)]);
    }

    #[test]
    fn property_hierarchy_and_domain_range() {
        let o = sample();
        assert_eq!(o.superproperties(lid(2)), [(lid(1), 1), (lid(0), 2)]);
        assert_eq!(o.direct_superproperties(lid(1)), &[lid(0)]);
        let mut subs = o.subproperties_or_self(&lid(0)).to_vec();
        subs.sort();
        assert_eq!(subs, vec![lid(0), lid(1), lid(2)]);
        assert_eq!(o.domain(lid(1)), Some(ids(1)));
        assert_eq!(o.range(lid(1)), Some(ids(1)));
        assert_eq!(o.domain(lid(0)), None);
    }

    #[test]
    fn class_and_property_membership() {
        let o = sample();
        assert!(o.is_class(ids(3)));
        assert!(!o.is_class(ids(42)));
        assert!(o.is_property(lid(2)));
        assert!(!o.is_property(lid(42)));
        assert_eq!(o.class_count(), 4);
        assert_eq!(o.property_count(), 3);
    }

    #[test]
    fn domain_range_iteration() {
        let o = sample();
        assert_eq!(o.domains().collect::<Vec<_>>(), vec![(lid(1), ids(1))]);
        assert_eq!(o.ranges().collect::<Vec<_>>(), vec![(lid(1), ids(1))]);
    }

    #[test]
    fn empty_ontology_defaults() {
        let o = Ontology::new();
        assert!(o.superclasses(ids(7)).is_empty());
        assert_eq!(o.subproperties_or_self(&lid(7)), [lid(7)]);
        assert!(!o.is_class(ids(7)));
    }
}
