//! The graph store itself.

use std::sync::{Arc, OnceLock};

use crate::bitmap::NodeBitmap;
use crate::csr::{CsrIndex, CsrLayer};
use crate::dict::{NodeDict, NodeLabels};
use crate::error::GraphError;
use crate::ids::{Direction, LabelId, NodeId};
use crate::interner::LabelInterner;
use crate::overlay::{survives, DeltaOverlay, DeltaReport, GraphDelta, SideDelta};
use crate::stats::{LabelEntry, LabelStats};
use crate::summary::NodeSummary;

/// The distinguished edge label connecting an entity instance to its class.
pub const TYPE_LABEL: &str = "type";

/// A borrowed view of one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// Source node.
    pub source: NodeId,
    /// Edge label.
    pub label: LabelId,
    /// Target node.
    pub target: NodeId,
}

/// An in-memory labelled directed multigraph with per-(label, direction)
/// adjacency indexes and a unique string label per node.
///
/// A store is nothing but shared parts: the node dictionary and the
/// edge-label interner, each behind an `Arc`, an optional frozen `CsrIndex`
/// behind another, and an optional `DeltaOverlay` of edges layered over the
/// index. It is in one of two lifecycle stages:
///
/// * **Loading.** No index yet: [`GraphStore::add_edge`] and friends write
///   every edge into the overlay, and every read is served from it.
/// * **Frozen.** [`GraphStore::freeze`] merges the overlay into packed CSR
///   arrays and drops it. A node's neighbours are then runs out of those
///   arrays — the layout the evaluator's hot path wants. A store opened
///   from a [`crate::snapshot`] image is exactly this, with the arrays and
///   the dictionary memory-mapped instead of on the heap.
///
/// ## Live mutation without unfreezing
///
/// [`GraphStore::with_delta`] derives a *new* frozen store from a frozen
/// one in time proportional to the batch: the derived store shares the
/// dictionaries and the base index with its parent and records the batch in
/// a `DeltaOverlay` that is itself structurally shared with the parent's —
/// added edges, deleted base edges, and any nodes the batch introduced (a
/// batch that introduces an edge label copies the small interner). The
/// overlay-aware reads ([`GraphStore::neighbors_iter`] /
/// [`GraphStore::neighbors_any_iter`] and all aggregate views) consult the
/// overlay after the base CSR run; [`GraphStore::compacted`] merges base and
/// overlay into a fresh index.
///
/// ## Endpoint sets
///
/// [`GraphStore::tails`], [`GraphStore::heads`] and
/// [`GraphStore::nodes_with_any_edge`] copy the index's occupancy bitmaps
/// (one per `(label, direction)` layer and per mixed view, built once per
/// index, see [`crate::csr`]) and OR in the overlay's added endpoints. On
/// an overlay-carrying store they are conservative: a node whose last edge
/// of a label the overlay deleted keeps its bit until compaction.
/// [`GraphStore::summary`] divides the nodes into classes by the layers
/// they have edges in, with the same one-index-many-epochs lifetime.
///
/// ## Mutating a frozen store in place
///
/// The loading API keeps working after a freeze: adding an edge to a frozen
/// (or overlaid, or snapshot-opened) store *thaws* it — every live edge
/// moves into one overlay and the index is dropped — and the next
/// [`GraphStore::freeze`] compiles it again. That is an `O(graph)` step; a
/// serving process mutates through [`GraphStore::with_delta`] instead.
///
/// This is the substrate the Omega evaluator traverses; see the crate-level
/// documentation for the correspondence with Sparksee.
#[derive(Debug, Clone)]
pub struct GraphStore {
    pub(crate) nodes: Arc<NodeDict>,
    pub(crate) labels: Arc<LabelInterner>,
    pub(crate) type_label: LabelId,
    pub(crate) edge_count: usize,
    /// The frozen CSR index, shared (not copied) between the epoch chain of
    /// stores [`GraphStore::with_delta`] derives. `None` while loading.
    pub(crate) csr: Option<Arc<CsrIndex>>,
    /// While loading, every edge; on a frozen store, the additions and
    /// deletions [`GraphStore::with_delta`] layered over the index. `None`
    /// on freshly frozen, compacted or opened stores, so the overlay-free
    /// read path pays one discriminant test. Deletions and overlay-created
    /// nodes exist only over an index.
    pub(crate) overlay: Option<DeltaOverlay>,
    /// This store's per-label cardinalities, built on first use: the
    /// index's own statistics plus the overlay's counters.
    pub(crate) label_stats: OnceLock<LabelStats>,
    /// The node summary of a store with an overlay (the index's own plus
    /// the overlay's added edges) or without an index, built on first use.
    pub(crate) summary: OnceLock<NodeSummary>,
}

impl Default for GraphStore {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphStore {
    /// Creates an empty graph. The `type` label is pre-interned.
    pub fn new() -> Self {
        let mut labels = LabelInterner::new();
        let type_label = labels.intern(TYPE_LABEL);
        GraphStore {
            nodes: Arc::new(NodeDict::new(NodeLabels::Owned {
                offsets: vec![0],
                bytes: String::new(),
            })),
            labels: Arc::new(labels),
            type_label,
            edge_count: 0,
            csr: None,
            overlay: None,
            label_stats: OnceLock::new(),
            summary: OnceLock::new(),
        }
    }

    // ------------------------------------------------------------------
    // Freezing and thawing
    // ------------------------------------------------------------------

    /// Compiles the loaded edges into the frozen CSR index — the overlay
    /// they were loaded into merges into packed arrays, every node's lists
    /// in insertion order, and is dropped.
    ///
    /// Idempotent; call it once loading is complete. All neighbourhood reads
    /// afterwards are served from packed offset/neighbour arrays.
    pub fn freeze(&mut self) {
        if self.csr.is_some() {
            return;
        }
        let loaded = self.overlay.take().unwrap_or_default();
        let csr = CsrIndex::default().merged(&loaded, self.nodes.len(), self.labels.len());
        self.csr = Some(Arc::new(csr));
        self.summary = OnceLock::new();
    }

    /// Whether the frozen CSR index is present and current.
    ///
    /// A store carrying a `DeltaOverlay` still counts as frozen: its base
    /// CSR keeps serving reads, with the overlay consulted afterwards.
    pub fn is_frozen(&self) -> bool {
        self.csr.is_some()
    }

    /// The overlay layered over the base CSR, if the store is frozen and
    /// carries one.
    fn delta(&self) -> Option<&DeltaOverlay> {
        self.overlay.as_ref().filter(|_| self.csr.is_some())
    }

    /// Whether the store carries a non-empty delta overlay over its base
    /// CSR (i.e. it was derived by [`GraphStore::with_delta`] and not yet
    /// compacted).
    pub fn has_overlay(&self) -> bool {
        self.delta().is_some_and(|ov| !ov.is_empty())
    }

    /// Total overlay entries (added + deleted edges) — the compaction
    /// pressure signal; `0` without an overlay.
    pub fn overlay_edges(&self) -> u64 {
        self.delta().map_or(0, DeltaOverlay::overlay_edges)
    }

    /// Takes a frozen store back to the loading stage: moves every live
    /// edge (base CSR and overlay, each slice in the order the reads return
    /// it) into one fresh overlay and overlay-created nodes into the
    /// dictionary, and drops the index. The one path by which the loading
    /// API ([`GraphStore::add_edge`] and friends) mutates a frozen store,
    /// whether it was built on the heap, derived by
    /// [`GraphStore::with_delta`] or opened from a snapshot. No-op on a
    /// store that is not frozen.
    fn thaw(&mut self) {
        if self.csr.is_none() {
            return;
        }
        let mut loaded = DeltaOverlay::new(self.node_count());
        for node in self.node_ids() {
            for dir in [Direction::Outgoing, Direction::Incoming] {
                let any: Vec<_> = self.neighbors_any_iter(node, dir).collect();
                let mut labels: Vec<_> = any.iter().map(|&(label, _)| label).collect();
                labels.sort_unstable();
                labels.dedup();
                let lists = labels
                    .into_iter()
                    .map(|label| (label, self.neighbors_iter(node, label, dir).collect()))
                    .collect();
                loaded.load_side(node, dir, lists, any);
            }
        }
        if let Some(overlay) = self.overlay.replace(loaded) {
            self.adopt_overlay_nodes(&overlay);
        }
        self.csr = None;
        self.label_stats = OnceLock::new();
        self.summary = OnceLock::new();
    }

    /// Appends the nodes `overlay` created to the dictionary, keeping their
    /// ids (copying the dictionary if another store shares it).
    fn adopt_overlay_nodes(&mut self, overlay: &DeltaOverlay) {
        if overlay.created_count() > 0 {
            let dict = Arc::make_mut(&mut self.nodes);
            for label in overlay.created_labels() {
                dict.push(label);
            }
        }
    }

    // ------------------------------------------------------------------
    // Delta overlay: mutation without unfreezing
    // ------------------------------------------------------------------

    /// Derives a new store with `delta` applied on top of this (frozen)
    /// store in `O(batch)`: the derived store shares the dictionaries and
    /// the base CSR with this one and records the changes in a
    /// `DeltaOverlay` structurally shared with (and layered on top of) any
    /// overlay this store already carries.
    ///
    /// Additions create missing nodes and edge labels like
    /// [`GraphStore::add_triple`]; removals of unknown edges are no-ops.
    /// All adds apply before all removes. `self` is untouched — readers
    /// holding it keep a bit-identical view, which is what the service
    /// layer's epoch pinning builds on.
    ///
    /// Fails with [`GraphError::NotFrozen`] when called on an unfrozen
    /// store (use the plain mutable API there).
    pub fn with_delta(&self, delta: &GraphDelta) -> Result<(GraphStore, DeltaReport), GraphError> {
        let mut next = self.clone();
        let report = next.apply_delta(delta)?;
        Ok((next, report))
    }

    /// [`GraphStore::with_delta`] in place, for a caller that owns the
    /// store and needs no view of it from before the batch: recovery folds
    /// a whole log into one overlay this way. Stores that share parts with
    /// this one are unaffected.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<DeltaReport, GraphError> {
        let csr = self.csr.clone().ok_or(GraphError::NotFrozen)?;
        // A summary that was read extends to the next epoch by this batch.
        let prior = self.built_summary().cloned();
        let mut added = Vec::new();
        let base_has = |s: NodeId, l: LabelId, t: NodeId| {
            csr.layer(l, true)
                .is_some_and(|layer| layer.run(s).contains(&t))
        };
        let mut overlay = self
            .overlay
            .take()
            .unwrap_or_else(|| DeltaOverlay::new(self.nodes.len()));
        let mut report = DeltaReport::default();
        for (source, label, target) in delta.adds() {
            let l = self.intern_label(label);
            let [s, t] = [source, target].map(|node| {
                let known = self.nodes.get(node);
                known.unwrap_or_else(|| overlay.add_node(node))
            });
            if overlay.add_edge(s, l, t, base_has(s, l, t)) {
                report.added += 1;
                self.edge_count += 1;
                if prior.is_some() {
                    added.push(EdgeRef {
                        source: s,
                        label: l,
                        target: t,
                    });
                }
            }
        }
        for (source, label, target) in delta.removes() {
            let resolve = |node: &str| self.nodes.get(node).or_else(|| overlay.node_by_label(node));
            let (Some(l), Some(s), Some(t)) =
                (self.label_id(label), resolve(source), resolve(target))
            else {
                continue;
            };
            if overlay.remove_edge(s, l, t, base_has(s, l, t)) {
                report.removed += 1;
                self.edge_count -= 1;
            }
        }
        report.overlay_edges = overlay.overlay_edges();
        self.overlay = Some(overlay);
        self.label_stats = OnceLock::new();
        self.summary = OnceLock::new();
        if let Some(prior) = prior {
            let _ = self
                .summary
                .set(prior.with_edges(added, self.label_count()));
        }
        Ok(report)
    }

    /// Returns a store with any delta overlay merged into a fresh frozen
    /// CSR (and no overlay). Overlay-free stores return a plain clone.
    ///
    /// This is the compaction step: each CSR array is merged with the
    /// overlay straight into a new array (`O(graph)`, mostly block copies),
    /// every slice in the order the live reads return it. `self` is
    /// untouched, so in-flight readers of the old epoch are never blocked
    /// or disturbed.
    pub fn compacted(&self) -> GraphStore {
        let mut merged = self.clone();
        if let Some(csr) = &self.csr {
            if let Some(overlay) = merged.overlay.take().filter(|ov| !ov.is_empty()) {
                let index = csr.merged(&overlay, self.node_count(), self.label_count());
                merged.csr = Some(Arc::new(index));
                merged.adopt_overlay_nodes(&overlay);
                merged.label_stats = OnceLock::new();
                merged.summary = OnceLock::new();
            }
        }
        merged
    }

    // ------------------------------------------------------------------
    // Labels
    // ------------------------------------------------------------------

    /// The id of the distinguished `type` label.
    pub fn type_label(&self) -> LabelId {
        self.type_label
    }

    /// Interns an edge label (copying the interner if another store shares
    /// it and the label is new).
    pub fn intern_label(&mut self, name: &str) -> LabelId {
        match self.labels.get(name) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.labels).intern(name),
        }
    }

    /// Looks up an existing edge label by name.
    pub fn label_id(&self, name: &str) -> Option<LabelId> {
        self.labels.get(name)
    }

    /// The string name of an edge label.
    pub fn label_name(&self, id: LabelId) -> &str {
        self.labels.name(id)
    }

    /// Number of distinct edge labels (including `type`).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Iterates over all edge labels in id order.
    pub fn labels(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.labels.iter()
    }

    // ------------------------------------------------------------------
    // Nodes
    // ------------------------------------------------------------------

    /// Adds a node with the given (unique) string label, or returns the
    /// existing node if one with this label is already present.
    ///
    /// On an overlay-carrying store this first thaws the store so node ids
    /// stay consistent; the epoch-pinned mutation path uses
    /// [`GraphStore::with_delta`] instead and never pays that cost.
    pub fn add_node(&mut self, label: &str) -> NodeId {
        if let Some(id) = self.node_by_label(label) {
            return id;
        }
        match self.delta().map(DeltaOverlay::is_empty) {
            Some(false) => self.thaw(),
            Some(true) => self.overlay = None,
            None => {}
        }
        Arc::make_mut(&mut self.nodes).push(label)
    }

    /// Adds a node, failing if a node with the same label already exists.
    pub fn try_add_node(&mut self, label: &str) -> Result<NodeId, GraphError> {
        if self.node_by_label(label).is_some() {
            return Err(GraphError::DuplicateNodeLabel(label.to_owned()));
        }
        Ok(self.add_node(label))
    }

    /// Looks up a node by its string label (the paper's indexed node
    /// attribute).
    ///
    /// The hash index over a dictionary is built on its first lookup
    /// (thread-safe; every store sharing the dictionary shares the index).
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.nodes
            .get(label)
            .or_else(|| self.overlay.as_ref().and_then(|ov| ov.node_by_label(label)))
    }

    /// The string label of `node`.
    ///
    /// # Panics
    /// Panics if `node` does not belong to this graph.
    pub fn node_label(&self, node: NodeId) -> &str {
        if node.index() < self.nodes.len() {
            return self.nodes.label(node.index());
        }
        match self.overlay.as_ref().and_then(|ov| ov.created_label(node)) {
            Some(label) => label,
            None => panic!(
                "node index {node} out of range for {} nodes",
                self.node_count()
            ),
        }
    }

    /// Whether `node` belongs to this graph.
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.node_count()
    }

    /// Number of nodes (base dictionary plus overlay-added nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len() + self.overlay.as_ref().map_or(0, DeltaOverlay::created_count)
    }

    /// Iterates over all node ids in increasing order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    // ------------------------------------------------------------------
    // Edges
    // ------------------------------------------------------------------

    /// Adds a directed edge `source --label--> target`. Parallel edges with
    /// the same label are deduplicated (the data model is a set of triples).
    ///
    /// Thaws a frozen store (see the type documentation) unless the edge is
    /// already present; returns `true` if the edge was new.
    pub fn add_edge(&mut self, source: NodeId, label: LabelId, target: NodeId) -> bool {
        debug_assert!(self.contains_node(source) && self.contains_node(target));
        debug_assert!(label.index() < self.labels.len());
        if self.csr.is_some() {
            if self.has_edge(source, label, target) {
                return false;
            }
            self.thaw();
        }
        let loaded = self
            .overlay
            .get_or_insert_with(|| DeltaOverlay::new(self.nodes.len()));
        if !loaded.add_edge(source, label, target, false) {
            return false;
        }
        self.label_stats = OnceLock::new();
        self.summary = OnceLock::new();
        self.edge_count += 1;
        true
    }

    /// Convenience: adds an edge between nodes given by string labels,
    /// creating nodes and the edge label as needed.
    pub fn add_triple(&mut self, source: &str, label: &str, target: &str) -> bool {
        let s = self.add_node(source);
        let l = self.intern_label(label);
        let t = self.add_node(target);
        self.add_edge(s, l, t)
    }

    /// Whether the edge `source --label--> target` exists (overlay-aware).
    pub fn has_edge(&self, source: NodeId, label: LabelId, target: NodeId) -> bool {
        self.neighbors_iter(source, label, Direction::Outgoing)
            .any(|other| other == target)
    }

    /// Total number of edges (overlay adds and deletes included).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of edges with a given label.
    ///
    /// **Exact** on overlay stores too (base ± exact overlay counters) —
    /// the planner's `has_edges` pruning predicate depends on this never
    /// under-reporting a live label.
    pub fn edge_count_for_label(&self, label: LabelId) -> usize {
        // Every labelled edge appears exactly once in its outgoing layer.
        let base = self.layer(label, true).map_or(0, CsrLayer::len);
        let delta = self.overlay.as_ref().map(|ov| ov.label(label));
        let delta = delta.unwrap_or_default();
        base + delta.added as usize - delta.deleted as usize
    }

    /// Iterates over every edge in the graph (overlay-aware: deleted base
    /// edges are skipped, overlay-added edges appended).
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        let overlay = self.overlay.as_ref();
        let csr_edges = self
            .csr
            .as_ref()
            .into_iter()
            .flat_map(|csr| {
                self.node_ids().flat_map(move |source| {
                    csr.out_all
                        .run(source)
                        .iter()
                        .map(move |&(label, target)| EdgeRef {
                            source,
                            label,
                            target,
                        })
                })
            })
            .filter(move |e| overlay.is_none_or(|ov| !ov.is_deleted(e.source, e.label, e.target)));
        let overlay_edges = overlay.into_iter().flat_map(DeltaOverlay::added_edge_iter);
        csr_edges.chain(overlay_edges)
    }

    // ------------------------------------------------------------------
    // Neighbourhood access (the Sparksee surface)
    // ------------------------------------------------------------------

    /// The base CSR layer for `label`, if the store is frozen and the label
    /// existed at freeze time.
    #[inline]
    fn layer(&self, label: LabelId, outgoing: bool) -> Option<&CsrLayer> {
        self.csr.as_ref()?.layer(label, outgoing)
    }

    /// `node`'s run in the base CSR layer (empty while loading).
    #[inline]
    fn base(&self, node: NodeId, label: LabelId, dir: Direction) -> &[NodeId] {
        self.layer(label, dir == Direction::Outgoing)
            .map_or(&[][..], |layer| layer.run(node))
    }

    /// `node`'s run in the base mixed-label view (empty while loading).
    #[inline]
    fn base_any(&self, node: NodeId, dir: Direction) -> &[(LabelId, NodeId)] {
        match (&self.csr, dir) {
            (Some(csr), Direction::Outgoing) => csr.out_all.run(node),
            (Some(csr), Direction::Incoming) => csr.in_all.run(node),
            (None, _) => &[],
        }
    }

    /// The overlay's changes at `node` in `dir`, if any.
    #[inline]
    fn overlay_side(&self, node: NodeId, dir: Direction) -> Option<&SideDelta> {
        self.overlay.as_ref().and_then(|ov| ov.side(node, dir))
    }

    /// Nodes connected to `node` by an edge labelled `label`, following the
    /// given direction — the paper's `Neighbors(n, t, dir)`: the base CSR
    /// run first (the node's list in the overlay while loading), minus edges
    /// the overlay deleted, plus edges the overlay added.
    ///
    /// Without an overlay (the common case) this costs one discriminant
    /// test over two array reads into the CSR index; with one, a single
    /// lookup of the node's changes, and the deletion filter is skipped
    /// entirely for `(label, node)` slices no deletion touches.
    #[inline]
    pub fn neighbors_iter(
        &self,
        node: NodeId,
        label: LabelId,
        dir: Direction,
    ) -> impl Iterator<Item = NodeId> + '_ {
        let (adds, dels) = self
            .overlay_side(node, dir)
            .map_or((&[][..], &[][..]), |side| {
                (side.adds_for(label), side.dels_for(label))
            });
        self.base(node, label, dir)
            .iter()
            .copied()
            .filter(move |&other| survives(dels, label, other))
            .chain(adds.iter().copied())
    }

    /// [`GraphStore::neighbors_iter`] materialised into a caller-provided
    /// buffer, for call sites that need a slice (binary search, rayon).
    /// Returns a stored slice directly — zero copies — whenever the live
    /// view of this `(label, node)` slice is all base or all overlay (as it
    /// always is while loading).
    #[inline]
    pub fn neighbors_into<'g>(
        &'g self,
        node: NodeId,
        label: LabelId,
        dir: Direction,
        buf: &'g mut Vec<NodeId>,
    ) -> &'g [NodeId] {
        let base = self.base(node, label, dir);
        let Some(side) = self.overlay_side(node, dir) else {
            return base;
        };
        let (adds, dels) = (side.adds_for(label), side.dels_for(label));
        if adds.is_empty() && dels.is_empty() {
            return base;
        }
        if base.is_empty() {
            return adds;
        }
        buf.clear();
        buf.extend(base.iter().filter(|&&other| survives(dels, label, other)));
        buf.extend_from_slice(adds);
        buf
    }

    /// Neighbours of `node` over *any* label (including `type`), in the given
    /// direction, with the connecting label — used by wildcard transitions:
    /// base entries minus overlay deletions, plus overlay additions.
    #[inline]
    pub fn neighbors_any_iter(
        &self,
        node: NodeId,
        dir: Direction,
    ) -> impl Iterator<Item = (LabelId, NodeId)> + '_ {
        let (adds, dels) = self
            .overlay_side(node, dir)
            .map_or((&[][..], &[][..]), |side| {
                (&side.adds_any[..], &side.dels[..])
            });
        self.base_any(node, dir)
            .iter()
            .copied()
            .filter(move |&(label, other)| survives(dels, label, other))
            .chain(adds.iter().copied())
    }

    /// Nodes with at least one base `label` edge in `dir` (sources for
    /// `Outgoing`, targets for `Incoming`) — a copy of the layer's
    /// occupancy bitmap — plus the overlay-added ones.
    fn endpoints(&self, label: LabelId, dir: Direction) -> NodeBitmap {
        let mut set = self
            .layer(label, dir == Direction::Outgoing)
            .map(|layer| layer.occupancy().clone())
            .unwrap_or_default();
        if let Some(ov) = &self.overlay {
            set.extend(ov.added_endpoints(label, dir));
        }
        set
    }

    /// The node summary of this store (see [`crate::summary`]): the
    /// index's own, built once per index and shared by every epoch over it,
    /// or — with an overlay — that plus the images of the overlay's added
    /// edges, built once per store: by [`GraphStore::apply_delta`] from the
    /// parent epoch's summary in `O(batch)` when that was built, else here
    /// in `O(overlay)`. A store without an index has one class.
    pub fn summary(&self) -> &NodeSummary {
        match &self.csr {
            Some(csr) if !self.has_overlay() => csr.summary(),
            csr => self.summary.get_or_init(|| {
                let labels = self.label_count();
                let base = csr.as_ref().map(|csr| csr.summary());
                let base = base.cloned().unwrap_or_else(|| NodeSummary::empty(labels));
                match &self.overlay {
                    Some(overlay) => base.with_edges(overlay.added_edge_iter(), labels),
                    None => base,
                }
            }),
        }
    }

    /// The summary [`GraphStore::summary`] returns, if it is built.
    fn built_summary(&self) -> Option<&NodeSummary> {
        match &self.csr {
            Some(csr) if !self.has_overlay() => csr.summary.get(),
            _ => self.summary.get(),
        }
    }

    /// All nodes that are the *target* of an edge labelled `label`
    /// (the paper's `Heads`).
    ///
    /// On an overlay store this is a conservative over-approximation:
    /// overlay-added heads are included, but nodes whose last `label` edge
    /// was deleted are kept. Seeding from a superset only adds candidates
    /// the automaton rejects — it cannot change answers or break the
    /// admissibility of cost lower bounds.
    pub fn heads(&self, label: LabelId) -> NodeBitmap {
        self.endpoints(label, Direction::Incoming)
    }

    /// All nodes that are the *source* of an edge labelled `label`
    /// (the paper's `Tails`). Conservative on overlay stores like
    /// [`GraphStore::heads`].
    pub fn tails(&self, label: LabelId) -> NodeBitmap {
        self.endpoints(label, Direction::Outgoing)
    }

    /// All nodes incident to at least one edge, in either direction: the
    /// mixed views' two occupancy bitmaps ORed. Conservative on overlay
    /// stores like [`GraphStore::heads`].
    pub fn nodes_with_any_edge(&self) -> NodeBitmap {
        let mut set = NodeBitmap::default();
        if let Some(csr) = &self.csr {
            set = csr.out_all.occupancy().clone();
            set.union_with(csr.in_all.occupancy());
        }
        if let Some(ov) = &self.overlay {
            set.extend(ov.added_incident_nodes());
        }
        set
    }

    /// Degree of `node` in `dir`, restricted to `label` or over all labels.
    fn degree_in(&self, node: NodeId, label: Option<LabelId>, dir: Direction) -> usize {
        let base = match label {
            Some(l) => self.base(node, l, dir).len(),
            None => self.base_any(node, dir).len(),
        };
        match (self.overlay_side(node, dir), label) {
            (None, _) => base,
            (Some(side), Some(l)) => base + side.adds_for(l).len() - side.dels_for(l).len(),
            (Some(side), None) => base + side.adds_any.len() - side.dels.len(),
        }
    }

    /// Out-degree of `node` restricted to `label`, or over all labels if
    /// `label` is `None` (exact, overlay-aware).
    pub fn out_degree(&self, node: NodeId, label: Option<LabelId>) -> usize {
        self.degree_in(node, label, Direction::Outgoing)
    }

    /// In-degree of `node` restricted to `label`, or over all labels if
    /// `label` is `None` (exact, overlay-aware).
    pub fn in_degree(&self, node: NodeId, label: Option<LabelId>) -> usize {
        self.degree_in(node, label, Direction::Incoming)
    }

    /// Total degree (in + out) of `node` over all labels.
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_degree(node, None) + self.in_degree(node, None)
    }

    // ------------------------------------------------------------------
    // Cardinality statistics
    // ------------------------------------------------------------------

    /// Per-label edge and distinct-endpoint counts, built on first use and
    /// cached, in `O(labels)`: the index's own statistics (scanned once per
    /// index — so once per freeze, compaction or snapshot image, whose
    /// stats section pre-populates them — and shared by every epoch over
    /// it) plus the overlay's per-label counters. Equal to
    /// [`LabelStats::compute`] on every store.
    pub fn label_stats(&self) -> &LabelStats {
        self.label_stats.get_or_init(|| {
            let entries = self.labels().map(|(label, _)| {
                let base = self.csr.as_ref().map(|csr| csr.stats().entry(label));
                let base = base.unwrap_or_default();
                let delta = self.overlay.as_ref().map(|ov| ov.label(label));
                let delta = delta.unwrap_or_default();
                // Base occupancy plus overlay-added endpoints (deletions
                // ignored, an upper estimate); edge counts exact.
                LabelEntry {
                    edges: base.edges + delta.added - delta.deleted,
                    distinct_tails: base.distinct_tails + delta.added_tails,
                    distinct_heads: base.distinct_heads + delta.added_heads,
                }
            });
            LabelStats::from_entries(entries.collect())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GraphStore {
        let mut g = GraphStore::new();
        g.add_triple("a", "knows", "b");
        g.add_triple("b", "knows", "c");
        g.add_triple("a", "likes", "c");
        g.add_triple("a", "type", "Person");
        g.add_triple("b", "type", "Person");
        g
    }

    /// Runs `check` against both the loading and the frozen stage.
    fn both_states(mut g: GraphStore, check: impl Fn(&GraphStore)) {
        assert!(!g.is_frozen());
        check(&g);
        g.freeze();
        assert!(g.is_frozen());
        check(&g);
    }

    /// `node`'s live run over `label` in `dir`.
    fn run(g: &GraphStore, node: NodeId, label: LabelId, dir: Direction) -> Vec<NodeId> {
        g.neighbors_iter(node, label, dir).collect()
    }

    #[test]
    fn nodes_are_unique_by_label() {
        let mut g = GraphStore::new();
        let a1 = g.add_node("a");
        let a2 = g.add_node("a");
        assert_eq!(a1, a2);
        assert_eq!(g.node_count(), 1);
        assert!(g.try_add_node("a").is_err());
        assert!(g.try_add_node("b").is_ok());
    }

    #[test]
    fn type_label_is_preinterned() {
        let g = GraphStore::new();
        assert_eq!(g.label_id("type"), Some(g.type_label()));
        assert_eq!(g.label_name(g.type_label()), "type");
    }

    #[test]
    fn edges_are_deduplicated() {
        let mut g = GraphStore::new();
        assert!(g.add_triple("a", "knows", "b"));
        assert!(!g.add_triple("a", "knows", "b"));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn neighbors_by_direction() {
        both_states(sample(), |g| {
            let a = g.node_by_label("a").unwrap();
            let b = g.node_by_label("b").unwrap();
            let c = g.node_by_label("c").unwrap();
            let knows = g.label_id("knows").unwrap();
            assert_eq!(run(g, a, knows, Direction::Outgoing), [b]);
            assert_eq!(run(g, b, knows, Direction::Incoming), [a]);
            assert_eq!(run(g, c, knows, Direction::Incoming), [b]);
            assert!(run(g, c, knows, Direction::Outgoing).is_empty());
        });
    }

    #[test]
    fn neighbors_any_covers_all_labels_and_type() {
        both_states(sample(), |g| {
            let a = g.node_by_label("a").unwrap();
            let out = g.neighbors_any_iter(a, Direction::Outgoing);
            assert_eq!(out.count(), 3); // knows->b, likes->c, type->Person
            let person = g.node_by_label("Person").unwrap();
            let incoming = g.neighbors_any_iter(person, Direction::Incoming);
            assert_eq!(incoming.count(), 2);
        });
    }

    #[test]
    fn heads_and_tails() {
        both_states(sample(), |g| {
            let knows = g.label_id("knows").unwrap();
            assert_eq!(g.heads(knows).len(), 2); // b, c
            assert_eq!(g.tails(knows).len(), 2); // a, b
        });
    }

    #[test]
    fn degrees() {
        both_states(sample(), |g| {
            let a = g.node_by_label("a").unwrap();
            let knows = g.label_id("knows").unwrap();
            assert_eq!(g.out_degree(a, None), 3);
            assert_eq!(g.out_degree(a, Some(knows)), 1);
            assert_eq!(g.in_degree(a, None), 0);
            assert_eq!(g.degree(a), 3);
        });
    }

    #[test]
    fn edge_iteration_and_counts() {
        both_states(sample(), |g| {
            assert_eq!(g.edges().count(), g.edge_count());
            let type_l = g.type_label();
            assert_eq!(g.edge_count_for_label(type_l), 2);
            assert!(g.has_edge(
                g.node_by_label("a").unwrap(),
                g.label_id("likes").unwrap(),
                g.node_by_label("c").unwrap()
            ));
        });
    }

    #[test]
    fn nodes_with_any_edge_excludes_isolated() {
        let mut g = sample();
        g.add_node("isolated");
        both_states(g, |g| {
            let incident = g.nodes_with_any_edge();
            assert!(!incident.contains(g.node_by_label("isolated").unwrap()));
            assert_eq!(incident.len(), g.node_count() - 1);
        });
    }

    #[test]
    fn freeze_is_idempotent_and_preserves_order() {
        let mut g = sample();
        let a = g.node_by_label("a").unwrap();
        let knows = g.label_id("knows").unwrap();
        let before = run(&g, a, knows, Direction::Outgoing);
        g.freeze();
        g.freeze();
        assert_eq!(run(&g, a, knows, Direction::Outgoing), before);
    }

    #[test]
    fn mutation_after_freeze_thaws_and_refreezes() {
        let mut g = sample();
        g.freeze();
        assert!(g.is_frozen());
        assert!(g.overlay.is_none(), "freeze merges the loaded edges away");
        // A duplicate changes nothing, so it does not thaw.
        assert!(!g.add_triple("a", "knows", "b"));
        assert!(g.is_frozen());
        g.add_triple("c", "knows", "d");
        assert!(!g.is_frozen(), "adding an edge must thaw the store");
        let (a, b) = (g.node_by_label("a").unwrap(), g.node_by_label("b").unwrap());
        let c = g.node_by_label("c").unwrap();
        let d = g.node_by_label("d").unwrap();
        let knows = g.label_id("knows").unwrap();
        // The thawed store holds the old edges and the new one.
        assert_eq!(run(&g, a, knows, Direction::Outgoing), [b]);
        assert_eq!(run(&g, c, knows, Direction::Outgoing), [d]);
        assert_eq!(g.edges().count(), g.edge_count());
        g.freeze();
        assert!(g.overlay.is_none());
        assert_eq!(run(&g, c, knows, Direction::Outgoing), [d]);
        assert_eq!(run(&g, a, knows, Direction::Outgoing), [b]);
    }

    #[test]
    fn with_delta_shares_everything_but_the_overlay() {
        let mut g = sample();
        g.freeze();
        let shares = |x: &GraphStore, y: &GraphStore| {
            (
                Arc::ptr_eq(&x.nodes, &y.nodes),
                Arc::ptr_eq(&x.labels, &y.labels),
                Arc::ptr_eq(x.csr.as_ref().unwrap(), y.csr.as_ref().unwrap()),
            )
        };
        // Known nodes and labels only: every part is the parent's.
        let (e1, _) = g
            .with_delta(
                GraphDelta::new()
                    .add("c", "knows", "a")
                    .remove("a", "likes", "c"),
            )
            .unwrap();
        assert_eq!(shares(&g, &e1), (true, true, true));
        // A new node lives in the overlay; the dictionary stays shared.
        let (e2, _) = e1
            .with_delta(GraphDelta::new().add("c", "knows", "d"))
            .unwrap();
        assert_eq!(shares(&e1, &e2), (true, true, true));
        // A new label copies the interner and nothing else.
        let (e3, _) = e2
            .with_delta(GraphDelta::new().add("a", "admires", "d"))
            .unwrap();
        assert_eq!(shares(&e2, &e3), (true, false, true));
        assert_eq!(e2.label_id("admires"), None);
        // Compaction builds a new index, extends the dictionary only for the
        // overlay's nodes, and leaves no overlay behind.
        let compact = e3.compacted();
        assert_eq!(shares(&e3, &compact), (false, true, false));
        assert_eq!(shares(&e1, &e1.compacted()), (true, true, false));
        assert!(compact.overlay.is_none());
        assert_eq!(compact.node_label(compact.node_by_label("d").unwrap()), "d");
    }

    /// The CSR arrays of a frozen store, layer by layer.
    fn csr_arrays(g: &GraphStore) -> Vec<(Vec<u32>, Vec<u32>)> {
        let csr = g.csr.as_ref().unwrap();
        let flat =
            |pairs: &[(LabelId, NodeId)]| pairs.iter().flat_map(|p| [p.0 .0, p.1 .0]).collect();
        let mut arrays: Vec<_> = csr
            .out
            .iter()
            .chain(&csr.inc)
            .map(|layer| {
                let targets = layer.items().iter().map(|n| n.0).collect();
                (layer.offsets().to_vec(), targets)
            })
            .collect();
        for mixed in [&csr.out_all, &csr.in_all] {
            arrays.push((mixed.offsets().to_vec(), flat(mixed.items())));
        }
        arrays
    }

    #[test]
    fn merge_compaction_equals_thaw_and_refreeze() {
        let mut g = sample();
        g.add_node("isolated");
        g.freeze();
        // Adds on old and new nodes and a new label, removals of base and of
        // overlay edges (whose swap-remove reorders the add lists), a
        // deletion that is undone, over three epochs.
        let (e1, _) = g
            .with_delta(
                GraphDelta::new()
                    .add("c", "knows", "d")
                    .add("c", "knows", "a")
                    .add("c", "likes", "e")
                    .add("c", "knows", "e")
                    .add("d", "admires", "a")
                    .remove("a", "knows", "b")
                    .remove("a", "type", "Person"),
            )
            .unwrap();
        let (e2, _) = e1
            .with_delta(
                GraphDelta::new()
                    .add("a", "type", "Person")
                    .add("e", "knows", "a")
                    .remove("c", "knows", "d")
                    .remove("b", "knows", "c"),
            )
            .unwrap();
        let (live, _) = e2
            .with_delta(
                GraphDelta::new()
                    .add("b", "knows", "c")
                    .add("f", "type", "Person"),
            )
            .unwrap();
        let merged = live.compacted();
        let mut refrozen = live.clone();
        refrozen.thaw();
        assert!(!refrozen.is_frozen() && !refrozen.has_overlay());
        refrozen.freeze();
        assert_eq!(csr_arrays(&merged), csr_arrays(&refrozen));
        assert_eq!(merged.label_stats(), refrozen.label_stats());
        assert_eq!(merged.label_stats(), &LabelStats::compute(&merged));
        // Identical arrays and dictionaries make identical images.
        let image = |g: &GraphStore, tag: &str| {
            let path = std::env::temp_dir().join(format!(
                "omega-graph-merge-{}-{tag}.snapshot",
                std::process::id()
            ));
            let mut w = crate::snapshot::SnapshotWriter::new();
            crate::snapshot::write_graph_sections(g, &mut w).unwrap();
            w.write_to(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        };
        assert_eq!(image(&merged, "merged"), image(&refrozen, "refrozen"));
        // And every live slice kept its order through the merge.
        for node in live.node_ids() {
            for dir in [Direction::Outgoing, Direction::Incoming] {
                assert!(live
                    .neighbors_any_iter(node, dir)
                    .eq(merged.neighbors_any_iter(node, dir)));
                for (label, _) in live.labels() {
                    assert!(live
                        .neighbors_iter(node, label, dir)
                        .eq(merged.neighbors_iter(node, label, dir)));
                }
            }
        }
    }

    /// All-direction merged views of `g` collected into sorted vectors.
    fn live_view(g: &GraphStore, node: &str, label: &str, dir: Direction) -> Vec<String> {
        let n = g.node_by_label(node).unwrap();
        let l = g.label_id(label).unwrap();
        let mut v: Vec<String> = g
            .neighbors_iter(n, l, dir)
            .map(|m| g.node_label(m).to_owned())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn with_delta_keeps_the_csr_and_layers_changes() {
        let mut g = sample();
        g.freeze();
        let mut delta = GraphDelta::new();
        delta.add("c", "knows", "d").add("a", "knows", "c");
        delta.remove("a", "knows", "b");
        let (live, report) = g.with_delta(&delta).unwrap();
        assert!(live.is_frozen(), "with_delta must never drop the CSR");
        assert!(live.has_overlay());
        assert_eq!(report.added, 2);
        assert_eq!(report.removed, 1);
        assert_eq!(report.overlay_edges, 3);
        // The source store is untouched (epoch pinning relies on this).
        assert!(!g.has_overlay());
        assert_eq!(live_view(&g, "a", "knows", Direction::Outgoing), ["b"]);
        // Merged views reflect the delta.
        assert_eq!(live_view(&live, "a", "knows", Direction::Outgoing), ["c"]);
        assert_eq!(live_view(&live, "c", "knows", Direction::Outgoing), ["d"]);
        assert_eq!(
            live_view(&live, "c", "knows", Direction::Incoming),
            ["a", "b"]
        );
        assert_eq!(live.edge_count(), g.edge_count() + 1);
        let knows = live.label_id("knows").unwrap();
        assert_eq!(live.edge_count_for_label(knows), 3);
        assert!(live.has_edge(
            live.node_by_label("c").unwrap(),
            knows,
            live.node_by_label("d").unwrap()
        ));
        assert!(!live.has_edge(
            live.node_by_label("a").unwrap(),
            knows,
            live.node_by_label("b").unwrap()
        ));
        // New node "d" resolves, counts, and labels correctly.
        let d = live.node_by_label("d").unwrap();
        assert_eq!(live.node_label(d), "d");
        assert!(live.contains_node(d));
        assert_eq!(live.node_count(), g.node_count() + 1);
        assert_eq!(live.node_ids().count(), live.node_count());
        // edges() agrees with edge_count.
        assert_eq!(live.edges().count(), live.edge_count());
    }

    #[test]
    fn compacted_store_matches_incremental_views() {
        let mut g = sample();
        g.freeze();
        let mut delta = GraphDelta::new();
        delta
            .add("c", "knows", "d")
            .add("d", "likes", "a")
            .remove("b", "knows", "c");
        let (live, _) = g.with_delta(&delta).unwrap();
        let compact = live.compacted();
        assert!(compact.is_frozen());
        assert!(!compact.has_overlay());
        assert_eq!(compact.edge_count(), live.edge_count());
        assert_eq!(compact.node_count(), live.node_count());
        for node in ["a", "b", "c", "d"] {
            for label in ["knows", "likes", "type"] {
                for dir in [Direction::Outgoing, Direction::Incoming] {
                    assert_eq!(
                        live_view(&compact, node, label, dir),
                        live_view(&live, node, label, dir),
                        "{node} {label} {dir:?}"
                    );
                }
            }
        }
        let knows = compact.label_id("knows").unwrap();
        assert_eq!(
            compact.edge_count_for_label(knows),
            live.edge_count_for_label(knows)
        );
        // Compaction makes the statistics exact again; the live estimates
        // may only over-approximate.
        let tails = |g: &GraphStore| g.label_stats().entry(knows).distinct_tails;
        assert!(tails(&live) >= tails(&compact));
    }

    #[test]
    fn overlay_chains_across_epochs_and_un_deletes() {
        let mut g = sample();
        g.freeze();
        let (e1, r1) = g
            .with_delta(GraphDelta::new().remove("a", "knows", "b"))
            .unwrap();
        assert_eq!(r1.removed, 1);
        // Re-adding the deleted base edge in a later epoch un-deletes it.
        let (e2, r2) = e1
            .with_delta(GraphDelta::new().add("a", "knows", "b"))
            .unwrap();
        assert_eq!(r2.added, 1);
        assert_eq!(r2.overlay_edges, 0, "delete + re-add cancels out");
        assert_eq!(live_view(&e2, "a", "knows", Direction::Outgoing), ["b"]);
        assert_eq!(e2.edge_count(), g.edge_count());
        // Each epoch keeps its own view.
        assert!(live_view(&e1, "a", "knows", Direction::Outgoing).is_empty());
        assert_eq!(live_view(&g, "a", "knows", Direction::Outgoing), ["b"]);
    }

    #[test]
    fn with_delta_duplicates_and_unknown_removals_are_no_ops() {
        let mut g = sample();
        g.freeze();
        let (live, report) = g
            .with_delta(
                GraphDelta::new()
                    .add("a", "knows", "b") // already in base
                    .remove("nope", "knows", "b") // unknown node
                    .remove("a", "missing", "b") // unknown label
                    .remove("a", "knows", "c"), // no such edge
            )
            .unwrap();
        assert_eq!(report.added, 0);
        assert_eq!(report.removed, 0);
        assert!(!live.has_overlay());
        assert_eq!(live.edge_count(), g.edge_count());
    }

    #[test]
    fn with_delta_requires_a_frozen_store() {
        let g = sample();
        assert!(matches!(
            g.with_delta(&GraphDelta::new()),
            Err(GraphError::NotFrozen)
        ));
    }

    #[test]
    fn legacy_mutation_on_an_overlay_store_folds_first() {
        let mut g = sample();
        g.freeze();
        let (mut live, _) = g
            .with_delta(
                GraphDelta::new()
                    .add("c", "knows", "d")
                    .remove("a", "likes", "c"),
            )
            .unwrap();
        // The loading API still works: the live view thaws into the maps.
        assert!(live.add_triple("d", "knows", "e"));
        assert!(!live.is_frozen(), "legacy add_edge thaws the store");
        assert!(!live.has_overlay());
        assert_eq!(live_view(&live, "c", "knows", Direction::Outgoing), ["d"]);
        assert_eq!(live_view(&live, "d", "knows", Direction::Outgoing), ["e"]);
        let likes = live.label_id("likes").unwrap();
        assert_eq!(live.edge_count_for_label(likes), 0);
        live.freeze();
        assert_eq!(live_view(&live, "d", "knows", Direction::Outgoing), ["e"]);
        assert_eq!(live.edges().count(), live.edge_count());
    }

    #[test]
    fn overlay_aware_aggregates() {
        let mut g = sample();
        g.freeze();
        let (live, _) = g
            .with_delta(
                GraphDelta::new()
                    .add("c", "knows", "d")
                    .remove("a", "knows", "b"),
            )
            .unwrap();
        let knows = live.label_id("knows").unwrap();
        let d = live.node_by_label("d").unwrap();
        let c = live.node_by_label("c").unwrap();
        let a = live.node_by_label("a").unwrap();
        // heads/tails include overlay additions (and conservatively keep
        // deleted endpoints).
        assert!(live.heads(knows).contains(d));
        assert!(live.tails(knows).contains(c));
        assert!(live.nodes_with_any_edge().contains(d));
        // Degrees are exact.
        assert_eq!(live.out_degree(a, Some(knows)), 0);
        assert_eq!(live.out_degree(c, Some(knows)), 1);
        assert_eq!(live.in_degree(d, None), 1);
        // neighbors_into merges (and borrows straight from the CSR when the
        // slice is untouched).
        let mut buf = Vec::new();
        assert_eq!(
            live.neighbors_into(c, knows, Direction::Outgoing, &mut buf),
            &[d]
        );
        let b = live.node_by_label("b").unwrap();
        let mut buf2 = Vec::new();
        assert_eq!(
            live.neighbors_into(b, knows, Direction::Outgoing, &mut buf2),
            run(&live, b, knows, Direction::Outgoing),
        );
        // label_stats over the live store keeps edge counts exact.
        assert_eq!(live.label_stats().entry(knows).edges, 2);
    }

    #[test]
    fn nodes_and_labels_added_after_freeze_read_as_empty() {
        let mut g = sample();
        g.freeze();
        let lonely = g.add_node("lonely");
        let fresh = g.intern_label("fresh");
        assert!(g.is_frozen(), "adding a node or label does not invalidate");
        assert!(run(&g, lonely, fresh, Direction::Outgoing).is_empty());
        assert!(g
            .neighbors_any_iter(lonely, Direction::Outgoing)
            .next()
            .is_none());
        let a = g.node_by_label("a").unwrap();
        assert!(run(&g, a, fresh, Direction::Outgoing).is_empty());
    }
}
