//! The delta overlay: the edges of a [`crate::GraphStore`] that are not in
//! its frozen CSR index.
//!
//! A frozen store never loses its index to a mutation:
//! [`crate::GraphStore::with_delta`] derives a *new* store that shares the
//! base CSR and layers a `DeltaOverlay` on top — per node, the added edges
//! (per label and mixed, both directions), the deleted base edges, and the
//! nodes the delta created. The overlay is a persistent structure: epochs
//! of a chain share all of it but the paths a batch touched. Every
//! overlay-aware read runs the base CSR first and consults the overlay
//! afterwards, so the empty-overlay cost is a single `Option` discriminant
//! test on the hot path. A store that is still being loaded has no index
//! yet and keeps *every* edge here; freezing it is merging this overlay
//! into an empty index.
//!
//! ## Conservative deletes and admissibility
//!
//! The cost-guided evaluator (PR 5) orders expansion by `MinCostToAccept`
//! lower bounds derived from [`crate::LabelStats`]. Overlay stores keep the
//! per-label **edge counts exact** (base ± overlay counters), so
//! `LabelStats::has_edges` — the only statistic the live-predicate pruning
//! relies on for correctness — never reports a label dead while overlay
//! edges carry it. Deleted edges are handled *conservatively* everywhere
//! else: seed bitmaps ([`crate::GraphStore::heads`] / `tails`) and the
//! distinct-endpoint estimates keep nodes whose last edge was deleted.
//! Over-approximating the candidate set can only add work the automaton
//! then rejects; it can never raise a lower bound above the true cost, so
//! the A* ordering stays admissible while the overlay is live. Compaction
//! ([`crate::GraphStore::compacted`]) restores exact statistics.

use crate::graph::EdgeRef;
use crate::hash::hash_str;
use crate::ids::{Direction, LabelId, NodeId};
use crate::trie::Trie;

/// A batch of edge additions and removals expressed as string triples,
/// applied atomically by [`crate::GraphStore::with_delta`].
///
/// Additions create missing nodes and edge labels on the fly (the
/// [`crate::GraphStore::add_triple`] convention); removals of unknown
/// nodes, labels or edges are no-ops. Within one batch, operations apply
/// in order: all adds first, then all removes.
#[derive(Debug, Clone, Default)]
pub struct GraphDelta {
    pub(crate) adds: Vec<(String, String, String)>,
    pub(crate) removes: Vec<(String, String, String)>,
}

impl GraphDelta {
    /// An empty batch.
    pub fn new() -> GraphDelta {
        GraphDelta::default()
    }

    /// Queues the edge `source --label--> target` for addition.
    pub fn add(&mut self, source: &str, label: &str, target: &str) -> &mut Self {
        self.adds
            .push((source.to_owned(), label.to_owned(), target.to_owned()));
        self
    }

    /// Queues the edge `source --label--> target` for removal.
    pub fn remove(&mut self, source: &str, label: &str, target: &str) -> &mut Self {
        self.removes
            .push((source.to_owned(), label.to_owned(), target.to_owned()));
        self
    }

    /// Queued additions, in application order.
    pub fn adds(&self) -> &[(String, String, String)] {
        &self.adds
    }

    /// Queued removals, in application order.
    pub fn removes(&self) -> &[(String, String, String)] {
        &self.removes
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty()
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.adds.len() + self.removes.len()
    }
}

/// What one [`crate::GraphStore::with_delta`] application did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Edges that were actually added (not already present).
    pub added: u64,
    /// Edges that were actually removed (present before).
    pub removed: u64,
    /// Total overlay entries (added + deleted edges) after application —
    /// the compaction-pressure signal.
    pub overlay_edges: u64,
}

/// One node's overlay changes in one direction.
#[derive(Debug, Clone, Default)]
pub(crate) struct SideDelta {
    /// Overlay-added neighbours, one list per label, each in add order
    /// (removal swap-removes). A label's entry exists only while its list
    /// is non-empty.
    pub(crate) adds: Vec<(LabelId, Vec<NodeId>)>,
    /// The same edges as the mixed-label view sees them.
    pub(crate) adds_any: Vec<(LabelId, NodeId)>,
    /// Deleted base edges at this node as `(label, neighbour)`, sorted, so
    /// the read path filters a base run by binary search.
    pub(crate) dels: Vec<(LabelId, NodeId)>,
}

impl SideDelta {
    /// Overlay-added neighbours for `label`.
    #[inline]
    pub(crate) fn adds_for(&self, label: LabelId) -> &[NodeId] {
        self.adds
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(&[][..], |(_, list)| list)
    }

    /// Deleted base edges with `label`.
    #[inline]
    pub(crate) fn dels_for(&self, label: LabelId) -> &[(LabelId, NodeId)] {
        let from = self.dels.partition_point(|&(l, _)| l < label);
        let len = self.dels[from..].partition_point(|&(l, _)| l == label);
        &self.dels[from..from + len]
    }

    /// Appends `other` to `label`'s add list; `true` if the list is new.
    fn push_add(&mut self, label: LabelId, other: NodeId) -> bool {
        self.adds_any.push((label, other));
        match self.adds.iter_mut().find(|(l, _)| *l == label) {
            Some((_, list)) => {
                list.push(other);
                false
            }
            None => {
                self.adds.push((label, vec![other]));
                true
            }
        }
    }

    /// Drops the added edge to `other`; `true` if `label`'s list emptied.
    fn remove_add(&mut self, label: LabelId, other: NodeId) -> bool {
        if let Some(pos) = self.adds_any.iter().position(|&e| e == (label, other)) {
            self.adds_any.swap_remove(pos);
        }
        let Some(at) = self.adds.iter().position(|(l, _)| *l == label) else {
            return false;
        };
        let list = &mut self.adds[at].1;
        if let Some(pos) = list.iter().position(|&n| n == other) {
            list.swap_remove(pos);
        }
        let emptied = list.is_empty();
        if emptied {
            self.adds.swap_remove(at);
        }
        emptied
    }
}

/// Whether a base neighbour survives the sorted deletion list `dels`.
#[inline]
pub(crate) fn survives(dels: &[(LabelId, NodeId)], label: LabelId, other: NodeId) -> bool {
    dels.is_empty() || dels.binary_search(&(label, other)).is_err()
}

/// One node's overlay state: its label if the overlay created it, and its
/// edge changes as `[outgoing, incoming]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeDelta {
    created_as: Option<Box<str>>,
    sides: [SideDelta; 2],
}

/// Exact per-label overlay counters: with the base statistics cached beside
/// the CSR they make an epoch's [`crate::LabelStats`] an `O(labels)` sum.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LabelDelta {
    /// Overlay-added edges carrying the label.
    pub(crate) added: u64,
    /// Deleted base edges carrying the label.
    pub(crate) deleted: u64,
    /// Distinct sources / targets of the overlay-added edges.
    pub(crate) added_tails: u64,
    pub(crate) added_heads: u64,
}

/// Bits of a node label's hash that key [`DeltaOverlay::created_by_hash`].
const LABEL_HASH_BITS: u32 = 20;

fn label_hash(label: &str) -> u32 {
    (hash_str(label) >> (64 - LABEL_HASH_BITS)) as u32
}

/// Delta state layered over a frozen base CSR, structurally shared between
/// the epochs of a chain.
///
/// Per touched node it keeps the added edges (per label and in the
/// mixed-label view, both directions), the deleted base edges and — for a
/// node created after the freeze — its label, all in one persistent
/// [`Trie`] keyed by node id; a second trie finds created nodes by label
/// hash. Cloning the overlay is two `Arc` bumps plus the `O(labels)`
/// counters, and applying a batch unshares only the paths to the nodes the
/// batch touches or creates. One trie lookup hands the read path a node's
/// adds and deletions as borrowed slices.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaOverlay {
    /// Node count of the base store when the overlay chain started; the
    /// nodes the overlay creates take the ids from here on.
    base_nodes: usize,
    created: usize,
    /// Created nodes by [`label_hash`] of their label (a bucket per hash;
    /// the labels themselves sit in `nodes`).
    created_by_hash: Trie<Vec<NodeId>>,
    nodes: Trie<NodeDelta>,
    /// Per-label counters, indexed by label id (shorter than the label
    /// table when trailing labels are untouched).
    labels: Vec<LabelDelta>,
    added_total: u64,
    deleted_total: u64,
}

impl DeltaOverlay {
    pub(crate) fn new(base_nodes: usize) -> DeltaOverlay {
        DeltaOverlay {
            base_nodes,
            ..DeltaOverlay::default()
        }
    }

    /// Whether the overlay records no changes at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.added_total == 0 && self.deleted_total == 0 && self.created == 0
    }

    /// Added + deleted edge entries — the compaction-pressure signal.
    pub(crate) fn overlay_edges(&self) -> u64 {
        self.added_total + self.deleted_total
    }

    // ------------------------------------------------------------------
    // Nodes
    // ------------------------------------------------------------------

    /// Number of nodes the overlay created (ids `base_nodes..`).
    pub(crate) fn created_count(&self) -> usize {
        self.created
    }

    /// The label of `node` if the overlay created it.
    pub(crate) fn created_label(&self, node: NodeId) -> Option<&str> {
        self.nodes.get(node.0)?.created_as.as_deref()
    }

    /// Labels of the created nodes in id order.
    pub(crate) fn created_labels(&self) -> impl Iterator<Item = &str> {
        (self.base_nodes..self.base_nodes + self.created)
            .filter_map(|id| self.created_label(NodeId(id as u32)))
    }

    pub(crate) fn node_by_label(&self, label: &str) -> Option<NodeId> {
        let bucket = self.created_by_hash.get(label_hash(label))?;
        bucket
            .iter()
            .copied()
            .find(|&node| self.created_label(node) == Some(label))
    }

    /// Interns an overlay node, allocating the next id after the base.
    pub(crate) fn add_node(&mut self, label: &str) -> NodeId {
        if let Some(id) = self.node_by_label(label) {
            return id;
        }
        let id = NodeId((self.base_nodes + self.created) as u32);
        self.nodes.entry(id.0).created_as = Some(label.into());
        self.created_by_hash.entry(label_hash(label)).push(id);
        self.created += 1;
        id
    }

    // ------------------------------------------------------------------
    // Edge mutation
    // ------------------------------------------------------------------

    fn label_mut(&mut self, label: LabelId) -> &mut LabelDelta {
        if self.labels.len() <= label.index() {
            self.labels.resize(label.index() + 1, LabelDelta::default());
        }
        &mut self.labels[label.index()]
    }

    fn side_mut(&mut self, node: NodeId, dir: Direction) -> &mut SideDelta {
        &mut self.nodes.entry(node.0).sides[dir as usize]
    }

    /// Sets or clears the deletion mark of base edge `tail --label--> head`
    /// at both of its ends.
    fn mark_deleted(&mut self, tail: NodeId, label: LabelId, head: NodeId, deleted: bool) {
        for (node, dir, other) in [
            (tail, Direction::Outgoing, head),
            (head, Direction::Incoming, tail),
        ] {
            let dels = &mut self.side_mut(node, dir).dels;
            match (dels.binary_search(&(label, other)), deleted) {
                (Err(pos), true) => dels.insert(pos, (label, other)),
                (Ok(pos), false) => drop(dels.remove(pos)),
                _ => {}
            }
        }
        let counters = self.label_mut(label);
        if deleted {
            counters.deleted += 1;
            self.deleted_total += 1;
        } else {
            counters.deleted -= 1;
            self.deleted_total -= 1;
        }
    }

    /// Installs `node`'s complete lists in `dir` on a fresh overlay (a store
    /// thawing back to the loading stage): one list per label present and
    /// the same edges as the mixed-label view holds them.
    pub(crate) fn load_side(
        &mut self,
        node: NodeId,
        dir: Direction,
        adds: Vec<(LabelId, Vec<NodeId>)>,
        adds_any: Vec<(LabelId, NodeId)>,
    ) {
        if adds_any.is_empty() {
            return;
        }
        for (label, list) in &adds {
            let counters = self.label_mut(*label);
            match dir {
                Direction::Outgoing => {
                    counters.added += list.len() as u64;
                    counters.added_tails += 1;
                }
                Direction::Incoming => counters.added_heads += 1,
            }
        }
        if dir == Direction::Outgoing {
            self.added_total += adds_any.len() as u64;
        }
        let side = self.side_mut(node, dir);
        (side.adds, side.adds_any) = (adds, adds_any);
    }

    /// Records the addition of `tail --label--> head`; `base_has` says
    /// whether the base CSR already stores the edge. Re-adding a deleted
    /// base edge un-deletes it. Returns `true` if the edge is newly present.
    pub(crate) fn add_edge(
        &mut self,
        tail: NodeId,
        label: LabelId,
        head: NodeId,
        base_has: bool,
    ) -> bool {
        if self.is_deleted(tail, label, head) {
            self.mark_deleted(tail, label, head, false);
            return true;
        }
        if base_has
            || self
                .adds_for(tail, label, Direction::Outgoing)
                .contains(&head)
        {
            return false;
        }
        let new_tail = self
            .side_mut(tail, Direction::Outgoing)
            .push_add(label, head);
        let new_head = self
            .side_mut(head, Direction::Incoming)
            .push_add(label, tail);
        let counters = self.label_mut(label);
        counters.added += 1;
        counters.added_tails += u64::from(new_tail);
        counters.added_heads += u64::from(new_head);
        self.added_total += 1;
        true
    }

    /// Records the removal of `tail --label--> head`; `base_has` says
    /// whether the base CSR stores the edge. Removing an overlay-added edge
    /// drops it from the add lists; removing a base edge marks it deleted;
    /// removing a non-existent edge is a no-op. Returns `true` if the edge
    /// was present before.
    pub(crate) fn remove_edge(
        &mut self,
        tail: NodeId,
        label: LabelId,
        head: NodeId,
        base_has: bool,
    ) -> bool {
        if self
            .adds_for(tail, label, Direction::Outgoing)
            .contains(&head)
        {
            let lost_tail = self
                .side_mut(tail, Direction::Outgoing)
                .remove_add(label, head);
            let lost_head = self
                .side_mut(head, Direction::Incoming)
                .remove_add(label, tail);
            let counters = self.label_mut(label);
            counters.added -= 1;
            counters.added_tails -= u64::from(lost_tail);
            counters.added_heads -= u64::from(lost_head);
            self.added_total -= 1;
            return true;
        }
        if !base_has || self.is_deleted(tail, label, head) {
            return false;
        }
        self.mark_deleted(tail, label, head, true);
        true
    }

    // ------------------------------------------------------------------
    // Read surface
    // ------------------------------------------------------------------

    /// `node`'s changes in `dir`, if the overlay ever touched the node.
    #[inline]
    pub(crate) fn side(&self, node: NodeId, dir: Direction) -> Option<&SideDelta> {
        self.nodes
            .get(node.0)
            .map(|delta| &delta.sides[dir as usize])
    }

    /// Overlay-added neighbours of `node` for `label` in `dir`.
    #[inline]
    pub(crate) fn adds_for(&self, node: NodeId, label: LabelId, dir: Direction) -> &[NodeId] {
        self.side(node, dir)
            .map_or(&[][..], |side| side.adds_for(label))
    }

    /// Whether the canonical edge `tail --label--> head` is deleted.
    #[inline]
    pub(crate) fn is_deleted(&self, tail: NodeId, label: LabelId, head: NodeId) -> bool {
        self.side(tail, Direction::Outgoing)
            .is_some_and(|side| !survives(&side.dels, label, head))
    }

    /// The per-label counters (all-zero for labels the overlay never saw).
    #[inline]
    pub(crate) fn label(&self, label: LabelId) -> LabelDelta {
        self.labels.get(label.index()).copied().unwrap_or_default()
    }

    /// Nodes with at least one overlay-added `label` edge in `dir`:
    /// sources for `Outgoing`, targets for `Incoming`.
    pub(crate) fn added_endpoints(
        &self,
        label: LabelId,
        dir: Direction,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(move |(_, delta)| !delta.sides[dir as usize].adds_for(label).is_empty())
            .map(|(node, _)| NodeId(node))
    }

    /// Nodes with at least one overlay-added edge, in either direction.
    pub(crate) fn added_incident_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|(_, delta)| delta.sides.iter().any(|side| !side.adds_any.is_empty()))
            .map(|(node, _)| NodeId(node))
    }

    /// Every touched node's changes in `dir`, in ascending node-id order.
    pub(crate) fn sides(&self, dir: Direction) -> impl Iterator<Item = (NodeId, &SideDelta)> {
        self.nodes
            .iter()
            .map(move |(node, delta)| (NodeId(node), &delta.sides[dir as usize]))
    }

    /// Every overlay-added edge.
    pub(crate) fn added_edge_iter(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.sides(Direction::Outgoing).flat_map(|(source, side)| {
            side.adds_any.iter().map(move |&(label, target)| EdgeRef {
                source,
                label,
                target,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_then_remove_is_a_no_op() {
        let mut ov = DeltaOverlay::new(4);
        assert!(ov.add_edge(NodeId(0), LabelId(1), NodeId(2), false));
        assert!(!ov.add_edge(NodeId(0), LabelId(1), NodeId(2), false));
        assert_eq!(ov.label(LabelId(1)).added, 1);
        assert_eq!(ov.label(LabelId(1)).added_tails, 1);
        assert!(ov.remove_edge(NodeId(0), LabelId(1), NodeId(2), false));
        assert!(ov.is_empty());
        assert_eq!(ov.label(LabelId(1)).added, 0);
        assert_eq!(ov.label(LabelId(1)).added_heads, 0);
        assert!(ov
            .adds_for(NodeId(0), LabelId(1), Direction::Outgoing)
            .is_empty());
        let head = ov.side(NodeId(2), Direction::Incoming).unwrap();
        assert!(head.adds_any.is_empty());
    }

    #[test]
    fn delete_then_re_add_un_deletes() {
        let mut ov = DeltaOverlay::new(4);
        assert!(ov.remove_edge(NodeId(0), LabelId(1), NodeId(2), true));
        assert!(ov.is_deleted(NodeId(0), LabelId(1), NodeId(2)));
        fn dels(ov: &DeltaOverlay, node: NodeId, dir: Direction) -> &[(LabelId, NodeId)] {
            ov.side(node, dir).unwrap().dels_for(LabelId(1))
        }
        assert_eq!(
            dels(&ov, NodeId(0), Direction::Outgoing),
            [(LabelId(1), NodeId(2))]
        );
        assert_eq!(
            dels(&ov, NodeId(2), Direction::Incoming),
            [(LabelId(1), NodeId(0))]
        );
        assert_eq!(ov.label(LabelId(1)).deleted, 1);
        // Re-adding restores the base edge: no overlay add is recorded.
        assert!(ov.add_edge(NodeId(0), LabelId(1), NodeId(2), true));
        assert!(ov.is_empty());
        assert!(dels(&ov, NodeId(0), Direction::Outgoing).is_empty());
    }

    #[test]
    fn base_duplicates_and_unknown_removals_are_no_ops() {
        let mut ov = DeltaOverlay::new(4);
        assert!(!ov.add_edge(NodeId(0), LabelId(1), NodeId(2), true));
        assert!(!ov.remove_edge(NodeId(0), LabelId(1), NodeId(3), false));
        assert!(ov.is_empty());
    }

    #[test]
    fn overlay_nodes_continue_base_ids() {
        let mut ov = DeltaOverlay::new(10);
        let a = ov.add_node("new-a");
        let b = ov.add_node("new-b");
        assert_eq!(a, NodeId(10));
        assert_eq!(b, NodeId(11));
        assert_eq!(ov.add_node("new-a"), a);
        assert_eq!(ov.node_by_label("new-b"), Some(b));
        assert_eq!(ov.created_label(b), Some("new-b"));
        assert_eq!(ov.created_label(NodeId(3)), None);
        assert_eq!(ov.created_labels().collect::<Vec<_>>(), ["new-a", "new-b"]);
        assert_eq!(ov.created_count(), 2);
        // A clone taken now never sees later nodes.
        let before = ov.clone();
        ov.add_node("new-c");
        assert_eq!(before.node_by_label("new-c"), None);
        assert_eq!(before.created_count(), 2);
    }

    #[test]
    fn endpoint_counters_follow_the_add_lists() {
        let mut ov = DeltaOverlay::new(8);
        let (l, out) = (LabelId(2), Direction::Outgoing);
        ov.add_edge(NodeId(0), l, NodeId(1), false);
        ov.add_edge(NodeId(0), l, NodeId(2), false);
        ov.add_edge(NodeId(3), l, NodeId(2), false);
        let c = ov.label(l);
        assert_eq!((c.added, c.added_tails, c.added_heads), (3, 2, 2));
        assert_eq!(
            ov.added_endpoints(l, out).collect::<Vec<_>>(),
            [NodeId(0), NodeId(3)]
        );
        // Node 0 keeps one edge: still a tail; node 1 lost its only one.
        ov.remove_edge(NodeId(0), l, NodeId(1), false);
        let c = ov.label(l);
        assert_eq!((c.added, c.added_tails, c.added_heads), (2, 2, 1));
        ov.remove_edge(NodeId(0), l, NodeId(2), false);
        let c = ov.label(l);
        assert_eq!((c.added, c.added_tails, c.added_heads), (1, 1, 1));
        assert_eq!(ov.added_endpoints(l, out).collect::<Vec<_>>(), [NodeId(3)]);
        // Deleting a base edge moves no endpoint counter.
        ov.remove_edge(NodeId(4), l, NodeId(5), true);
        let c = ov.label(l);
        assert_eq!((c.deleted, c.added_tails, c.added_heads), (1, 1, 1));
    }
}
