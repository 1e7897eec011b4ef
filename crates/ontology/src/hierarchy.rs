//! A generic "is-a" hierarchy (a DAG), used for both the subclass and the
//! subproperty relations.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::OnceLock;

use omega_graph::FxHashMap;

use crate::error::OntologyError;

/// The transitive closures of a [`Hierarchy`]'s direct relation: one row per
/// member (in sorted member order) holding its descendants-or-self set and
/// its ancestors with distances, flattened into offset/data arrays so a
/// lookup returns a borrowed slice without allocating.
#[derive(Debug, Clone)]
pub(crate) struct Closures<T> {
    /// Member → row index.
    pub(crate) rows: FxHashMap<T, u32>,
    /// Row `r`'s descendants-or-self set is
    /// `closure_data[closure_offsets[r] .. closure_offsets[r + 1]]`: the
    /// member itself first, then its descendants in breadth-first order.
    pub(crate) closure_offsets: Vec<u32>,
    pub(crate) closure_data: Vec<T>,
    /// Row `r`'s proper ancestors with distances, nearest first.
    pub(crate) ancestor_offsets: Vec<u32>,
    pub(crate) ancestor_data: Vec<(T, u32)>,
}

impl<T: Copy + Eq + Hash + Ord + std::fmt::Debug> Closures<T> {
    /// Searches every member's closures in `hierarchy`'s direct relation.
    fn build(hierarchy: &Hierarchy<T>) -> Self {
        let sorted = hierarchy.sorted_members();
        let mut rows = FxHashMap::default();
        let mut closure_offsets = Vec::with_capacity(sorted.len() + 1);
        let mut closure_data = Vec::new();
        let mut ancestor_offsets = Vec::with_capacity(sorted.len() + 1);
        let mut ancestor_data = Vec::new();
        closure_offsets.push(0);
        ancestor_offsets.push(0);
        for (row, &member) in sorted.iter().enumerate() {
            rows.insert(member, row as u32);
            closure_data.push(member);
            let descendants = hierarchy.bfs(member, |h, m| h.children(m));
            closure_data.extend(descendants.into_iter().map(|(m, _)| m));
            closure_offsets.push(closure_data.len() as u32);
            ancestor_data.extend(hierarchy.bfs(member, |h, m| h.parents(m)));
            ancestor_offsets.push(ancestor_data.len() as u32);
        }
        Closures {
            rows,
            closure_offsets,
            closure_data,
            ancestor_offsets,
            ancestor_data,
        }
    }

    fn closure_row(&self, member: T) -> Option<&[T]> {
        let r = *self.rows.get(&member)? as usize;
        Some(
            &self.closure_data
                [self.closure_offsets[r] as usize..self.closure_offsets[r + 1] as usize],
        )
    }

    fn ancestor_row(&self, member: T) -> Option<&[(T, u32)]> {
        let r = *self.rows.get(&member)? as usize;
        Some(
            &self.ancestor_data
                [self.ancestor_offsets[r] as usize..self.ancestor_offsets[r + 1] as usize],
        )
    }
}

/// A directed acyclic "child → parent" hierarchy over ids of type `T`.
///
/// The hierarchy stores the *direct* relation. Its transitive closures —
/// each member's ancestors with the number of direct steps to them (the
/// relaxation distance), and its descendants-or-self set (what a label
/// expands to under RDFS inference) — are a cache of that relation: built
/// for every member on the first read, served as borrowed slices from then
/// on, and dropped by any mutation.
#[derive(Debug, Clone)]
pub struct Hierarchy<T> {
    parents: HashMap<T, Vec<T>>,
    children: HashMap<T, Vec<T>>,
    members: HashSet<T>,
    closures: OnceLock<Closures<T>>,
}

impl<T> Default for Hierarchy<T> {
    fn default() -> Self {
        Hierarchy {
            parents: HashMap::new(),
            children: HashMap::new(),
            members: HashSet::new(),
            closures: OnceLock::new(),
        }
    }
}

impl<T: Copy + Eq + Hash + Ord + std::fmt::Debug> Hierarchy<T> {
    /// Creates an empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `member` without any parent/child edges (a root until an
    /// edge is added).
    pub fn add_member(&mut self, member: T) {
        if self.members.insert(member) {
            self.closures = OnceLock::new();
        }
    }

    /// Adds the direct relation `child ⊑ parent`.
    ///
    /// Returns an error if this would introduce a cycle.
    pub fn add_edge(&mut self, child: T, parent: T) -> Result<(), OntologyError> {
        let ancestors = self.bfs(parent, |h, m| h.parents(m));
        if child == parent || ancestors.iter().any(|(a, _)| *a == child) {
            return Err(OntologyError::CycleDetected(format!("{child:?}")));
        }
        self.closures = OnceLock::new();
        self.members.insert(child);
        self.members.insert(parent);
        let parents = self.parents.entry(child).or_default();
        if !parents.contains(&parent) {
            parents.push(parent);
            self.children.entry(parent).or_default().push(child);
        }
        Ok(())
    }

    /// The closure tables, built on the first read.
    pub(crate) fn closures(&self) -> &Closures<T> {
        self.closures.get_or_init(|| Closures::build(self))
    }

    /// Members in sorted order — the row order of the closure tables.
    pub(crate) fn sorted_members(&self) -> Vec<T> {
        let mut sorted: Vec<T> = self.members.iter().copied().collect();
        sorted.sort();
        sorted
    }

    /// Rebuilds a hierarchy from its direct-relation maps and pre-computed
    /// closure tables (the snapshot load path). The caller — the snapshot
    /// decoder — has validated offsets and row counts; relation *content* is
    /// trusted from the checksummed image, so no cycle check is re-run.
    pub(crate) fn from_snapshot_parts(
        members: Vec<T>,
        parents: HashMap<T, Vec<T>>,
        children: HashMap<T, Vec<T>>,
        closures: Closures<T>,
    ) -> Hierarchy<T> {
        Hierarchy {
            parents,
            children,
            members: members.into_iter().collect(),
            closures: OnceLock::from(closures),
        }
    }

    /// Whether `member` is known to this hierarchy.
    pub fn contains(&self, member: T) -> bool {
        self.members.contains(&member)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the hierarchy has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterates over all members (unordered).
    pub fn members(&self) -> impl Iterator<Item = T> + '_ {
        self.members.iter().copied()
    }

    /// Direct parents of `member`.
    pub fn parents(&self, member: T) -> &[T] {
        self.parents.get(&member).map_or(&[][..], Vec::as_slice)
    }

    /// Direct children of `member`.
    pub fn children(&self, member: T) -> &[T] {
        self.children.get(&member).map_or(&[][..], Vec::as_slice)
    }

    /// All proper ancestors of `member` with their distance (number of direct
    /// steps), in breadth-first order, i.e. nearest (most specific) first.
    /// If several paths reach an ancestor the minimum distance is reported.
    /// An unknown member has none.
    pub fn ancestors(&self, member: T) -> &[(T, u32)] {
        self.closures().ancestor_row(member).unwrap_or(&[])
    }

    /// `member` together with all of its descendants (no distances), member
    /// first, then breadth-first — the set a label expands to under RDFS
    /// inference. An unknown member's closure is just itself, borrowed from
    /// `member`.
    pub fn descendants_or_self<'a>(&'a self, member: &'a T) -> &'a [T] {
        self.closures()
            .closure_row(*member)
            .unwrap_or(std::slice::from_ref(member))
    }

    /// Whether `ancestor` is a proper ancestor of `member`.
    pub fn is_ancestor(&self, ancestor: T, member: T) -> bool {
        self.ancestors(member).iter().any(|(a, _)| *a == ancestor)
    }

    /// Members with no parents.
    pub fn roots(&self) -> Vec<T> {
        let mut roots: Vec<T> = self
            .members
            .iter()
            .copied()
            .filter(|m| self.parents(*m).is_empty())
            .collect();
        roots.sort();
        roots
    }

    /// Members with no children.
    pub fn leaves(&self) -> Vec<T> {
        let mut leaves: Vec<T> = self
            .members
            .iter()
            .copied()
            .filter(|m| self.children(*m).is_empty())
            .collect();
        leaves.sort();
        leaves
    }

    /// Length of the longest child-chain below `member` (0 if it is a leaf).
    pub fn depth_below(&self, member: T) -> u32 {
        self.children(member)
            .iter()
            .map(|&c| 1 + self.depth_below(c))
            .max()
            .unwrap_or(0)
    }

    /// Average number of children over non-leaf members of the sub-hierarchy
    /// rooted at `member` (the paper's Figure 2 "average fan-out").
    pub fn average_fanout_below(&self, member: T) -> f64 {
        let mut non_leaves = 0usize;
        let mut child_edges = 0usize;
        let mut stack = vec![member];
        let mut seen = HashSet::new();
        while let Some(m) = stack.pop() {
            if !seen.insert(m) {
                continue;
            }
            let kids = self.children(m);
            if !kids.is_empty() {
                non_leaves += 1;
                child_edges += kids.len();
                stack.extend(kids.iter().copied());
            }
        }
        if non_leaves == 0 {
            0.0
        } else {
            child_edges as f64 / non_leaves as f64
        }
    }

    /// Number of members in the sub-hierarchy rooted at `member` (inclusive).
    pub fn size_below(&self, member: T) -> usize {
        self.descendants_or_self(&member).len()
    }

    /// The members reachable from `start` over `step`, each with its least
    /// number of steps, in breadth-first order (`start` itself excluded).
    fn bfs<'a, F>(&'a self, start: T, step: F) -> Vec<(T, u32)>
    where
        F: Fn(&'a Hierarchy<T>, T) -> &'a [T],
    {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        seen.insert(start);
        let mut queue = VecDeque::new();
        queue.push_back((start, 0u32));
        while let Some((m, d)) = queue.pop_front() {
            for &next in step(self, m) {
                if seen.insert(next) {
                    out.push((next, d + 1));
                    queue.push_back((next, d + 1));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds:        animal
    ///               /      \
    ///            mammal    bird
    ///            /    \
    ///          dog    cat
    fn sample() -> Hierarchy<u32> {
        let mut h = Hierarchy::new();
        h.add_edge(1, 0).unwrap(); // mammal -> animal
        h.add_edge(2, 0).unwrap(); // bird -> animal
        h.add_edge(3, 1).unwrap(); // dog -> mammal
        h.add_edge(4, 1).unwrap(); // cat -> mammal
        h
    }

    #[test]
    fn ancestors_with_distances() {
        let h = sample();
        assert_eq!(h.ancestors(3), [(1, 1), (0, 2)]);
        assert!(h.ancestors(0).is_empty());
    }

    #[test]
    fn descendants_or_self_member_first_then_breadth_first() {
        let h = sample();
        assert_eq!(h.descendants_or_self(&0), [0, 1, 2, 3, 4]);
        assert_eq!(h.descendants_or_self(&1), [1, 3, 4]);
        assert_eq!(h.descendants_or_self(&99), [99]);
    }

    #[test]
    fn cycles_are_rejected() {
        let mut h = sample();
        assert!(h.add_edge(0, 3).is_err()); // animal -> dog would close a cycle
        assert!(h.add_edge(0, 0).is_err()); // self-loop
    }

    #[test]
    fn roots_and_leaves() {
        let h = sample();
        assert_eq!(h.roots(), vec![0]);
        assert_eq!(h.leaves(), vec![2, 3, 4]);
    }

    #[test]
    fn depth_and_fanout() {
        let h = sample();
        assert_eq!(h.depth_below(0), 2);
        assert_eq!(h.depth_below(1), 1);
        assert_eq!(h.depth_below(3), 0);
        // non-leaves: animal (2 children), mammal (2 children) -> fanout 2.0
        assert!((h.average_fanout_below(0) - 2.0).abs() < 1e-9);
        assert_eq!(h.size_below(0), 5);
        assert_eq!(h.size_below(1), 3);
    }

    #[test]
    fn is_ancestor_and_membership() {
        let h = sample();
        assert!(h.is_ancestor(0, 3));
        assert!(h.is_ancestor(1, 4));
        assert!(!h.is_ancestor(3, 0));
        assert!(h.contains(4));
        assert!(!h.contains(99));
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn diamond_reports_minimum_distance() {
        // d -> b -> a, d -> c -> a, and also d -> a directly.
        let mut h = Hierarchy::new();
        h.add_edge(1, 0).unwrap();
        h.add_edge(2, 0).unwrap();
        h.add_edge(3, 1).unwrap();
        h.add_edge(3, 2).unwrap();
        h.add_edge(3, 0).unwrap();
        let anc = h.ancestors(3);
        assert!(anc.contains(&(0, 1)));
        assert_eq!(anc.len(), 3);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut h = Hierarchy::new();
        h.add_edge(1, 0).unwrap();
        h.add_edge(1, 0).unwrap();
        assert_eq!(h.parents(1), &[0]);
        assert_eq!(h.children(0), &[1]);
    }
}
