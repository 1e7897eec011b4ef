//! A generic "is-a" hierarchy (a DAG), used for both the subclass and the
//! subproperty relations.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;

use omega_graph::FxHashMap;

use crate::error::OntologyError;

/// Interned transitive closures of a frozen [`Hierarchy`]: one row per
/// member (in sorted member order) holding its descendants-or-self set and
/// its ancestors with distances, flattened into offset/data arrays so a
/// lookup returns a borrowed slice without allocating.
///
/// This is what the RDFS-inference hot path reads instead of re-running a
/// BFS (and heap-allocating its result) on every expansion.
#[derive(Debug, Clone)]
pub(crate) struct FrozenTables<T> {
    /// Member → row index.
    pub(crate) rows: FxHashMap<T, u32>,
    /// Row `r`'s descendants-or-self set is
    /// `closure_data[closure_offsets[r] .. closure_offsets[r + 1]]`
    /// (the member itself first, then BFS order — exactly the order
    /// [`Hierarchy::descendants_or_self`] produces).
    pub(crate) closure_offsets: Vec<u32>,
    pub(crate) closure_data: Vec<T>,
    /// Row `r`'s proper ancestors with distances, nearest first (the order
    /// [`Hierarchy::ancestors`] produces).
    pub(crate) ancestor_offsets: Vec<u32>,
    pub(crate) ancestor_data: Vec<(T, u32)>,
}

impl<T: Copy + Eq + Hash> FrozenTables<T> {
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
/// The hierarchy stores the *direct* relation; transitive closures are
/// computed on demand by breadth-first search and returned together with the
/// number of direct steps (the relaxation distance).
///
/// Like the graph store, a hierarchy can be *frozen* ([`Hierarchy::freeze`])
/// once construction is complete: the closures the evaluator needs under
/// RDFS inference are interned into flat arrays, and
/// [`Hierarchy::interned_descendants_or_self`] /
/// [`Hierarchy::interned_ancestors`] serve them as borrowed slices without
/// any per-query allocation. Mutation transparently drops the tables.
#[derive(Debug, Clone)]
pub struct Hierarchy<T> {
    parents: HashMap<T, Vec<T>>,
    children: HashMap<T, Vec<T>>,
    members: HashSet<T>,
    frozen: Option<FrozenTables<T>>,
}

impl<T> Default for Hierarchy<T> {
    fn default() -> Self {
        Hierarchy {
            parents: HashMap::new(),
            children: HashMap::new(),
            members: HashSet::new(),
            frozen: None,
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
            self.frozen = None;
        }
    }

    /// Adds the direct relation `child ⊑ parent`.
    ///
    /// Returns an error if this would introduce a cycle. Drops the interned
    /// closure tables, if any.
    pub fn add_edge(&mut self, child: T, parent: T) -> Result<(), OntologyError> {
        if child == parent || self.ancestors_bfs(parent).iter().any(|(a, _)| *a == child) {
            return Err(OntologyError::CycleDetected(format!("{child:?}")));
        }
        self.frozen = None;
        self.members.insert(child);
        self.members.insert(parent);
        let parents = self.parents.entry(child).or_default();
        if !parents.contains(&parent) {
            parents.push(parent);
            self.children.entry(parent).or_default().push(child);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Freezing: interned closures for the inference hot path
    // ------------------------------------------------------------------

    /// Interns the descendants-or-self and ancestor closures of every member
    /// into flat arrays. Idempotent; dropped again by any mutation.
    pub fn freeze(&mut self) {
        if self.frozen.is_some() {
            return;
        }
        let mut sorted: Vec<T> = self.members.iter().copied().collect();
        sorted.sort();
        let mut rows = FxHashMap::default();
        let mut closure_offsets = Vec::with_capacity(sorted.len() + 1);
        let mut closure_data = Vec::new();
        let mut ancestor_offsets = Vec::with_capacity(sorted.len() + 1);
        let mut ancestor_data = Vec::new();
        closure_offsets.push(0);
        ancestor_offsets.push(0);
        for (row, &member) in sorted.iter().enumerate() {
            rows.insert(member, row as u32);
            closure_data.extend(self.descendants_or_self_bfs(member));
            closure_offsets.push(closure_data.len() as u32);
            ancestor_data.extend(self.ancestors_bfs(member));
            ancestor_offsets.push(ancestor_data.len() as u32);
        }
        self.frozen = Some(FrozenTables {
            rows,
            closure_offsets,
            closure_data,
            ancestor_offsets,
            ancestor_data,
        });
    }

    /// Whether the interned closure tables are present and current.
    pub fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    /// The interned descendants-or-self closure of `member` (member first,
    /// then BFS order): `None` when the hierarchy is not frozen or `member`
    /// is unknown (an unknown member's closure is just itself).
    #[inline]
    pub fn interned_descendants_or_self(&self, member: T) -> Option<&[T]> {
        self.frozen.as_ref()?.closure_row(member)
    }

    /// The interned proper-ancestor closure of `member` with distances,
    /// nearest first: `None` when not frozen or `member` is unknown (an
    /// unknown member has no ancestors).
    #[inline]
    pub fn interned_ancestors(&self, member: T) -> Option<&[(T, u32)]> {
        self.frozen.as_ref()?.ancestor_row(member)
    }

    /// The interned tables (for snapshot serialisation).
    pub(crate) fn frozen_tables(&self) -> Option<&FrozenTables<T>> {
        self.frozen.as_ref()
    }

    /// Members in sorted order — the row order of the frozen tables.
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
        frozen: FrozenTables<T>,
    ) -> Hierarchy<T> {
        Hierarchy {
            parents,
            children,
            members: members.into_iter().collect(),
            frozen: Some(frozen),
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
    ///
    /// A frozen hierarchy answers with a copy of the interned row.
    pub fn ancestors(&self, member: T) -> Vec<(T, u32)> {
        match self.interned_ancestors(member) {
            Some(row) => row.to_vec(),
            None => self.ancestors_bfs(member),
        }
    }

    /// [`Hierarchy::ancestors`] from the direct relation alone: what
    /// [`Hierarchy::freeze`] interns and the cycle check trusts.
    fn ancestors_bfs(&self, member: T) -> Vec<(T, u32)> {
        self.closure(member, |h, m| h.parents(m))
    }

    /// All proper descendants of `member` with their distance, nearest first.
    pub fn descendants(&self, member: T) -> Vec<(T, u32)> {
        self.closure(member, |h, m| h.children(m))
    }

    /// `member` together with all of its descendants (no distances) — the
    /// set a label expands to under RDFS inference.
    ///
    /// A frozen hierarchy answers with a copy of the interned row.
    pub fn descendants_or_self(&self, member: T) -> Vec<T> {
        match self.interned_descendants_or_self(member) {
            Some(row) => row.to_vec(),
            None => self.descendants_or_self_bfs(member),
        }
    }

    /// [`Hierarchy::descendants_or_self`] from the direct relation alone.
    fn descendants_or_self_bfs(&self, member: T) -> Vec<T> {
        let mut out = vec![member];
        out.extend(self.descendants(member).into_iter().map(|(m, _)| m));
        out
    }

    /// Whether `ancestor` is a proper ancestor of `member`.
    ///
    /// Allocation-free on a frozen hierarchy (served from the interned
    /// ancestor table); falls back to an on-demand BFS otherwise.
    pub fn is_ancestor(&self, ancestor: T, member: T) -> bool {
        if let Some(tables) = &self.frozen {
            return tables
                .ancestor_row(member)
                .is_some_and(|row| row.iter().any(|(a, _)| *a == ancestor));
        }
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
        let mut seen = HashSet::new();
        let mut stack = vec![member];
        while let Some(m) = stack.pop() {
            if seen.insert(m) {
                stack.extend(self.children(m).iter().copied());
            }
        }
        seen.len()
    }

    fn closure<'a, F>(&'a self, start: T, step: F) -> Vec<(T, u32)>
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
        assert_eq!(h.ancestors(3), vec![(1, 1), (0, 2)]);
        assert_eq!(h.ancestors(0), vec![]);
    }

    #[test]
    fn descendants_with_distances() {
        let h = sample();
        let d = h.descendants(0);
        assert_eq!(d.len(), 4);
        assert!(d.contains(&(1, 1)));
        assert!(d.contains(&(3, 2)));
        assert_eq!(h.descendants_or_self(1), vec![1, 3, 4]);
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
    fn frozen_tables_match_on_demand_closures() {
        let mut h = sample();
        h.freeze();
        assert!(h.is_frozen());
        let on_demand = sample();
        for m in 0..5u32 {
            // The tables against the BFS they were interned from…
            assert_eq!(
                h.interned_descendants_or_self(m).unwrap(),
                &h.descendants_or_self_bfs(m)[..],
            );
            assert_eq!(h.interned_ancestors(m).unwrap(), &h.ancestors_bfs(m)[..]);
            // …and the public closures, which read the tables when frozen, against
            // a hierarchy that has none.
            assert_eq!(h.descendants_or_self(m), on_demand.descendants_or_self(m));
            assert_eq!(h.ancestors(m), on_demand.ancestors(m));
        }
        assert_eq!(h.ancestors(99), vec![]);
        assert_eq!(h.descendants_or_self(99), vec![99]);
        // Unknown members have no interned rows.
        assert!(h.interned_descendants_or_self(99).is_none());
        assert!(h.interned_ancestors(99).is_none());
        // is_ancestor agrees with the unfrozen answer.
        assert!(h.is_ancestor(0, 3));
        assert!(!h.is_ancestor(3, 0));
        assert!(!h.is_ancestor(0, 99));
    }

    #[test]
    fn mutation_drops_the_frozen_tables() {
        let mut h = sample();
        h.freeze();
        h.add_edge(5, 2).unwrap(); // penguin -> bird
        assert!(!h.is_frozen(), "adding an edge must invalidate");
        h.freeze();
        assert_eq!(
            h.interned_descendants_or_self(2).unwrap(),
            &h.descendants_or_self_bfs(2)[..]
        );
        assert_eq!(h.descendants_or_self(2), vec![2, 5]);
        // Adding a genuinely new member also invalidates…
        h.add_member(9);
        assert!(!h.is_frozen());
        h.freeze();
        // …but re-adding an existing one does not.
        h.add_member(9);
        assert!(h.is_frozen());
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
