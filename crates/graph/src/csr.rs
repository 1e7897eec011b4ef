//! Frozen compressed-sparse-row (CSR) adjacency indexes.
//!
//! While a [`crate::GraphStore`] is loaded its edges sit in per-node lists
//! that are cheap to add to and deduplicate. Query evaluation never mutates
//! the graph, and its cost is dominated by `Neighbors(n, t, dir)` lookups —
//! so once loading is done the store can be *frozen*: every
//! `(label, direction)` adjacency is laid out as a classic CSR pair of
//! arrays (`offsets[n] .. offsets[n + 1]` indexes into a flat neighbour
//! array), and the mixed-label `out_all` / `in_all` views get the same
//! treatment with `(label, node)` entries. A frozen lookup is two array
//! reads and returns a borrowed slice — no hashing, no per-node `Vec`
//! headers, and neighbours of consecutive nodes are contiguous in memory.
//!
//! This mirrors what Sparksee's neighbour indexes give the paper's Omega
//! implementation: the storage layer serves adjacency as packed vectors
//! rather than pointer-chasing structures.
//!
//! ## Owned and mapped storage
//!
//! Each CSR array lives behind a small storage enum (`U32Store` /
//! `NodeStore` / `PairStore`): either an owned `Vec` built by a freeze or a
//! compaction, or a borrowed view over a memory-mapped snapshot file
//! ([`crate::snapshot`]). Lookups read through the enum with
//! one discriminant test and are otherwise identical, so the evaluator hot
//! paths never know (or care) whether the graph was built in process or
//! mapped from disk.
//!
//! ## Occupancy bitmaps
//!
//! Each run array also answers "which nodes have a non-empty run?" — the
//! paper's Sparksee `Tails` / `Heads` sets — with an occupancy
//! [`NodeBitmap`] (`CsrRuns::occupancy`). It is built on first use, a
//! word at a time from the offsets (one bit per node, 10 KB for 80k nodes),
//! and then lives in the `Arc`-shared index beside its statistics, so every
//! epoch layered over the index reads the same one. Seeding copies it
//! instead of scanning the offsets, the statistics' distinct-endpoint counts
//! are its popcounts, and the evaluator probes single bits to ask whether a
//! transition can fire at a node. The bitmap is exact for the arrays; a
//! store carrying a delta overlay ORs in the overlay's added endpoints and
//! keeps the bits of nodes whose last edge the overlay deleted, so what it
//! reports there is a superset of the live endpoints (see
//! [`crate::GraphStore::tails`]).

use std::sync::OnceLock;

use crate::bitmap::NodeBitmap;
use crate::ids::{Direction, LabelId, NodeId};
use crate::overlay::{survives, DeltaOverlay};
use crate::snapshot::error::SnapshotError;
use crate::snapshot::map::{pair_layout_is_label_first, MappedSlice};
use crate::stats::{LabelEntry, LabelStats};
use crate::summary::NodeSummary;

/// Array storage for one frozen CSR array: an owned `Vec<T>` or a
/// zero-copy view of a snapshot mapping, with the element pointer and
/// length cached at construction so [`ArrayStore::as_slice`] is exactly a
/// `(ptr, len)` load — no discriminant test, no pointer chase — and the
/// evaluator's adjacency lookups compile to the same code as before the
/// storage became dual-backed.
pub(crate) struct ArrayStore<T> {
    /// What keeps the elements alive; never touched on the read path.
    backing: ArrayBacking<T>,
    /// Cached element pointer into `backing`.
    ptr: *const T,
    /// Cached element count.
    len: usize,
}

enum ArrayBacking<T> {
    /// Heap array built by [`crate::GraphStore::freeze`] (or copied from a
    /// snapshot when zero-copy is unsound for `T`).
    Owned(Vec<T>),
    /// A snapshot mapping holding little-endian words. The `Arc` inside
    /// keeps the mapping alive; the mapped memory itself never moves, so
    /// the cached pointer stays valid for the life of the store.
    Mapped(MappedSlice),
}

// SAFETY: the store is immutable after construction and owns (or holds
// alive) the memory its cached pointer targets, so sending it is exactly as
// safe as sending the underlying Vec or mapping.
unsafe impl<T: Send> Send for ArrayStore<T> {}
// SAFETY: as for `Send`: a shared store only ever reads its elements, so
// sharing it is as safe as sharing a `&[T]`.
unsafe impl<T: Sync> Sync for ArrayStore<T> {}

impl<T> ArrayStore<T> {
    /// Wraps an owned, final (never mutated again) vector.
    pub(crate) fn owned(data: Vec<T>) -> ArrayStore<T> {
        let (ptr, len) = (data.as_ptr(), data.len());
        ArrayStore {
            backing: ArrayBacking::Owned(data),
            ptr,
            len,
        }
    }

    /// Wraps a mapped section as the `T`s one of [`MappedSlice`]'s checked
    /// typed views reads it as: the view validates length and alignment
    /// once, here, and never on a read. The view borrows the mapping, which
    /// stays put when `slice` moves into the store.
    pub(crate) fn mapped(
        slice: MappedSlice,
        view: fn(&MappedSlice) -> Result<&[T], SnapshotError>,
    ) -> Result<ArrayStore<T>, SnapshotError> {
        let items = view(&slice)?;
        let (ptr, len) = (items.as_ptr(), items.len());
        Ok(ArrayStore {
            backing: ArrayBacking::Mapped(slice),
            ptr,
            len,
        })
    }

    #[inline(always)]
    pub(crate) fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr`/`len` were derived at construction from a `&[T]`
        // over the backing's elements (a `Vec`, or a view of the mapping,
        // which moving the `MappedSlice` handle does not move), and the
        // backing is immutable and owned by `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Clone> Clone for ArrayStore<T> {
    fn clone(&self) -> Self {
        match &self.backing {
            // An owned clone gets a fresh allocation: re-derive the pointer.
            ArrayBacking::Owned(v) => ArrayStore::owned(v.clone()),
            // A mapped clone shares the same region: the pointer is stable.
            ArrayBacking::Mapped(m) => ArrayStore {
                backing: ArrayBacking::Mapped(m.clone()),
                ptr: self.ptr,
                len: self.len,
            },
        }
    }
}

impl<T> Default for ArrayStore<T> {
    fn default() -> Self {
        ArrayStore::owned(Vec::new())
    }
}

impl<T> std::fmt::Debug for ArrayStore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backing = match &self.backing {
            ArrayBacking::Owned(_) => "owned",
            ArrayBacking::Mapped(_) => "mapped",
        };
        f.debug_struct("ArrayStore")
            .field("len", &self.len)
            .field("backing", &backing)
            .finish()
    }
}

/// `u32` array storage.
pub(crate) type U32Store = ArrayStore<u32>;
/// [`NodeId`] array storage (`repr(transparent)` over `u32`).
pub(crate) type NodeStore = ArrayStore<NodeId>;
/// `(LabelId, NodeId)` array storage for the mixed-label views.
pub(crate) type PairStore = ArrayStore<(LabelId, NodeId)>;

impl ArrayStore<(LabelId, NodeId)> {
    /// Wraps a mapped section of interleaved `[label, node]` pairs, copying
    /// if the in-memory tuple layout of this build cannot alias the file
    /// layout (see [`pair_layout_is_label_first`]).
    pub(crate) fn mapped_pairs(slice: MappedSlice) -> Result<PairStore, SnapshotError> {
        let words = slice.as_u32s()?;
        if !words.len().is_multiple_of(2) {
            return Err(SnapshotError::malformed(
                "mixed-entry section holds an odd number of words",
            ));
        }
        if pair_layout_is_label_first() {
            // Safety: size/align/field order probed, length validated even.
            let ptr = words.as_ptr() as *const (LabelId, NodeId);
            let len = words.len() / 2;
            Ok(ArrayStore {
                backing: ArrayBacking::Mapped(slice),
                ptr,
                len,
            })
        } else {
            Ok(ArrayStore::owned(
                words
                    .chunks_exact(2)
                    .map(|p| (LabelId(p[0]), NodeId(p[1])))
                    .collect(),
            ))
        }
    }
}

/// One adjacency in CSR form: every node's run of items, concatenated in
/// node order.
#[derive(Debug, Clone)]
pub struct CsrRuns<T> {
    /// `offsets[n] .. offsets[n + 1]` bounds node `n`'s run; `node_count + 1`
    /// entries.
    offsets: U32Store,
    items: ArrayStore<T>,
    /// The nodes with a non-empty run, built on first use.
    occupied: OnceLock<NodeBitmap>,
}

/// A `(label, direction)` adjacency: runs of neighbours.
pub type CsrLayer = CsrRuns<NodeId>;
/// A mixed-label adjacency (`out_all` / `in_all`): runs of
/// `(label, neighbour)` entries.
pub type CsrMixed = CsrRuns<(LabelId, NodeId)>;

impl<T> Default for CsrRuns<T> {
    fn default() -> Self {
        CsrRuns::from_parts(ArrayStore::default(), ArrayStore::default())
    }
}

impl<T> CsrRuns<T> {
    /// Assembles the adjacency from (owned or mapped) parts; the caller has
    /// validated that the offsets are monotone and bounded by the item
    /// count.
    pub(crate) fn from_parts(offsets: U32Store, items: ArrayStore<T>) -> CsrRuns<T> {
        CsrRuns {
            offsets,
            items,
            occupied: OnceLock::new(),
        }
    }

    /// The offsets array.
    pub(crate) fn offsets(&self) -> &[u32] {
        self.offsets.as_slice()
    }

    /// Every run, concatenated.
    pub(crate) fn items(&self) -> &[T] {
        self.items.as_slice()
    }

    /// The run of `node` (empty for out-of-range nodes, which can exist
    /// when nodes were added after freezing).
    #[inline(always)]
    pub fn run(&self, node: NodeId) -> &[T] {
        let offsets = self.offsets.as_slice();
        let i = node.index();
        if i + 1 >= offsets.len() {
            return &[];
        }
        &self.items.as_slice()[offsets[i] as usize..offsets[i + 1] as usize]
    }

    /// The nodes with a non-empty run: built on first use, one 64-node word
    /// of offsets at a time, then shared by every reader of these arrays.
    pub(crate) fn occupancy(&self) -> &NodeBitmap {
        self.occupied.get_or_init(|| {
            let offsets = self.offsets.as_slice();
            let nodes = offsets.len().saturating_sub(1);
            let words = (0..nodes)
                .step_by(64)
                .map(|from| {
                    let bounds = &offsets[from..=(from + 64).min(nodes)];
                    bounds
                        .windows(2)
                        .enumerate()
                        .fold(0u64, |word, (bit, w)| word | u64::from(w[0] != w[1]) << bit)
                })
                .collect();
            NodeBitmap::from_words(words)
        })
    }

    /// Total number of stored items.
    pub fn len(&self) -> usize {
        self.items.as_slice().len()
    }

    /// Whether no node has a run.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One CSR `(offsets, items)` array pair being rewritten node by node, in
/// ascending node order: a rewritten node's run is given explicitly, the
/// untouched stretches between rewritten nodes are block-copied from the
/// base array.
struct RunMerge<'b, T> {
    base_offsets: &'b [u32],
    base_items: &'b [T],
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<'b, T: Copy> RunMerge<'b, T> {
    /// A merge producing `nodes + 1` offsets and exactly `items` items —
    /// exact capacities, so the arrays never grow and leave no abandoned
    /// halves between them for later allocations to fall into.
    fn new(base_offsets: &'b [u32], base_items: &'b [T], nodes: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        RunMerge {
            base_offsets,
            base_items,
            offsets,
            items: Vec::with_capacity(items),
        }
    }

    /// Nodes the base array stores a run for.
    fn base_nodes(&self) -> usize {
        self.base_offsets.len().saturating_sub(1)
    }

    /// Emits the unchanged runs of every node not yet emitted below `to`.
    fn copy_to(&mut self, to: usize) {
        let from = self.offsets.len() - 1;
        let stored = to.min(self.base_nodes());
        if from < stored {
            let (start, end) = (self.base_offsets[from], self.base_offsets[stored]);
            let at = self.items.len() as u32;
            self.items
                .extend_from_slice(&self.base_items[start as usize..end as usize]);
            let copied = &self.base_offsets[from + 1..=stored];
            self.offsets.extend(copied.iter().map(|o| o - start + at));
        }
        // Nodes past the base (created after it froze) have no base run.
        self.offsets.resize(to + 1, self.items.len() as u32);
    }

    /// Emits `node`'s run as its base run filtered by `keep`, then `adds`.
    fn rewrite(&mut self, node: usize, adds: &[T], keep: impl Fn(T) -> bool) {
        self.copy_to(node);
        if node < self.base_nodes() {
            let (start, end) = (self.base_offsets[node], self.base_offsets[node + 1]);
            let run = &self.base_items[start as usize..end as usize];
            self.items
                .extend(run.iter().copied().filter(|&item| keep(item)));
        }
        self.items.extend_from_slice(adds);
        self.offsets.push(self.items.len() as u32);
    }

    fn finish(mut self, node_count: usize) -> (U32Store, ArrayStore<T>) {
        self.copy_to(node_count);
        (
            ArrayStore::owned(self.offsets),
            ArrayStore::owned(self.items),
        )
    }
}

/// The full frozen index: one [`CsrLayer`] pair per label plus the two
/// mixed-label views, the per-label statistics of exactly these arrays
/// (computed once, on first use, or loaded from a snapshot's stats section)
/// and their node summary (built on first use).
#[derive(Debug, Clone, Default)]
pub struct CsrIndex {
    pub(crate) out: Vec<CsrLayer>,
    pub(crate) inc: Vec<CsrLayer>,
    pub(crate) out_all: CsrMixed,
    pub(crate) in_all: CsrMixed,
    pub(crate) stats: OnceLock<LabelStats>,
    pub(crate) summary: OnceLock<NodeSummary>,
}

impl CsrIndex {
    /// These arrays merged with `overlay` into a fresh index over
    /// `node_count` nodes and `label_count` labels: compaction, and — from
    /// the empty index, with the overlay a store's edges were loaded into —
    /// the freeze itself. One pass over the overlay's touched nodes per
    /// direction; each touched node's run becomes its base run minus
    /// deletions, then its overlay adds in add order (exactly the live read
    /// view), and everything between touched nodes is block-copied.
    pub(crate) fn merged(
        &self,
        overlay: &DeltaOverlay,
        node_count: usize,
        label_count: usize,
    ) -> CsrIndex {
        let empty = CsrLayer::default();
        let direction = |layers: &[CsrLayer], mixed: &CsrMixed, dir: Direction| {
            let mut total = 0;
            let mut per_label: Vec<_> = (0..label_count)
                .map(|l| {
                    let layer = layers.get(l).unwrap_or(&empty);
                    let delta = overlay.label(LabelId(l as u32));
                    let edges = layer.len() + delta.added as usize - delta.deleted as usize;
                    total += edges;
                    RunMerge::new(layer.offsets(), layer.items(), node_count, edges)
                })
                .collect();
            let mut any = RunMerge::new(mixed.offsets(), mixed.items(), node_count, total);
            for (node, side) in overlay.sides(dir) {
                let (node, dels) = (node.index(), &side.dels[..]);
                for (label, adds) in &side.adds {
                    let dels = side.dels_for(*label);
                    per_label[label.index()]
                        .rewrite(node, adds, |other| survives(dels, *label, other));
                }
                // Labels of which this node only lost edges.
                for lost in dels.chunk_by(|a, b| a.0 == b.0) {
                    let label = lost[0].0;
                    if side.adds_for(label).is_empty() {
                        per_label[label.index()]
                            .rewrite(node, &[], |other| survives(lost, label, other));
                    }
                }
                if !(side.adds_any.is_empty() && dels.is_empty()) {
                    any.rewrite(node, &side.adds_any, |(label, other)| {
                        survives(dels, label, other)
                    });
                }
            }
            let layers = per_label
                .into_iter()
                .map(|merge| {
                    let (offsets, targets) = merge.finish(node_count);
                    CsrLayer::from_parts(offsets, targets)
                })
                .collect();
            let (offsets, entries) = any.finish(node_count);
            (layers, CsrMixed::from_parts(offsets, entries))
        };
        let (out, out_all) = direction(&self.out, &self.out_all, Direction::Outgoing);
        let (inc, in_all) = direction(&self.inc, &self.in_all, Direction::Incoming);
        CsrIndex {
            out,
            inc,
            out_all,
            in_all,
            stats: OnceLock::new(),
            summary: OnceLock::new(),
        }
    }

    /// The per-label layer for `label` in the given direction, if the label
    /// existed at freeze time.
    #[inline]
    pub(crate) fn layer(&self, label: LabelId, outgoing: bool) -> Option<&CsrLayer> {
        if outgoing {
            self.out.get(label.index())
        } else {
            self.inc.get(label.index())
        }
    }

    /// Per-label statistics of these arrays, computed on first use (the
    /// distinct endpoints are the popcounts of the layers' occupancy
    /// bitmaps, so one `O(labels · nodes)` pass over the offsets builds
    /// both) and then shared by every epoch over this index.
    pub(crate) fn stats(&self) -> &LabelStats {
        self.stats.get_or_init(|| self.scan_stats())
    }

    /// The node summary of these arrays, built on first use and then
    /// shared by every epoch over this index.
    pub(crate) fn summary(&self) -> &NodeSummary {
        self.summary
            .get_or_init(|| NodeSummary::build(self, self.out.len()))
    }

    /// The statistics [`CsrIndex::stats`] caches, read off the occupancy
    /// bitmaps.
    pub(crate) fn scan_stats(&self) -> LabelStats {
        let layers = self.out.iter().zip(&self.inc);
        LabelStats::from_entries(
            layers
                .map(|(out, inc)| LabelEntry {
                    edges: out.len() as u64,
                    distinct_tails: out.occupancy().len() as u64,
                    distinct_heads: inc.occupancy().len() as u64,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An overlay holding `edges` as additions over nothing.
    fn loaded(edges: &[(u32, u32, u32)]) -> DeltaOverlay {
        let mut overlay = DeltaOverlay::new(0);
        for &(s, l, t) in edges {
            overlay.add_edge(NodeId(s), LabelId(l), NodeId(t), false);
        }
        overlay
    }

    #[test]
    fn freezing_lays_out_each_list_in_insertion_order() {
        let index = CsrIndex::default().merged(
            &loaded(&[(0, 1, 2), (0, 1, 1), (2, 1, 0), (1, 0, 2)]),
            4,
            2,
        );
        let layer = index.layer(LabelId(1), true).unwrap();
        assert_eq!(layer.run(NodeId(0)), &[NodeId(2), NodeId(1)]);
        assert_eq!(layer.run(NodeId(1)), &[] as &[NodeId]);
        assert_eq!(layer.run(NodeId(2)), &[NodeId(0)]);
        assert_eq!(layer.run(NodeId(3)), &[] as &[NodeId]);
        // Out-of-range nodes (added after freezing) are empty, not a panic.
        assert_eq!(layer.run(NodeId(100)), &[] as &[NodeId]);
        assert_eq!(layer.len(), 3);
        assert_eq!(layer.offsets(), [0, 2, 2, 3, 3]);
        let occupied: Vec<_> = layer.occupancy().iter().collect();
        assert_eq!(occupied, vec![NodeId(0), NodeId(2)]);
        let incoming = index.layer(LabelId(1), false).unwrap();
        assert_eq!(incoming.run(NodeId(0)), &[NodeId(2)]);
        assert_eq!(
            index.in_all.run(NodeId(2)),
            &[(LabelId(1), NodeId(0)), (LabelId(0), NodeId(1))]
        );
        assert!(index.out_all.run(NodeId(3)).is_empty());
        assert!(index.out_all.run(NodeId(9)).is_empty());
        assert_eq!(
            index.out_all.occupancy().iter().collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(index.stats().entry(LabelId(1)).distinct_tails, 2);
    }

    #[test]
    fn occupancy_reads_every_word_of_offsets() {
        // Runs at both edges of the first two words and on the last node of
        // a partial third word.
        let sources = [0, 63, 64, 127, 129];
        let edges: Vec<_> = sources.iter().map(|&s| (s, 0, 1)).collect();
        let index = CsrIndex::default().merged(&loaded(&edges), 130, 1);
        let out = index.layer(LabelId(0), true).unwrap();
        let occupied: Vec<u32> = out.occupancy().iter().map(|n| n.0).collect();
        assert_eq!(occupied, sources);
        assert_eq!(out.occupancy().len(), sources.len());
        let inc = index.layer(LabelId(0), false).unwrap();
        assert_eq!(inc.occupancy().iter().collect::<Vec<_>>(), [NodeId(1)]);
        assert!(CsrLayer::default().occupancy().is_empty());
    }

    #[test]
    fn merging_copies_untouched_runs_and_rewrites_touched_ones() {
        let base = CsrIndex::default().merged(
            &loaded(&[(0, 0, 1), (1, 0, 2), (1, 0, 3), (3, 0, 0)]),
            4,
            1,
        );
        // Over that base: delete 1→2, add 1→0 and an edge from a new node 5.
        let mut overlay = DeltaOverlay::new(4);
        overlay.remove_edge(NodeId(1), LabelId(0), NodeId(2), true);
        overlay.add_edge(NodeId(1), LabelId(0), NodeId(0), false);
        overlay.add_edge(NodeId(5), LabelId(0), NodeId(3), false);
        let merged = base.merged(&overlay, 6, 1);
        let out = merged.layer(LabelId(0), true).unwrap();
        assert_eq!(out.offsets(), [0, 1, 3, 3, 4, 4, 5]);
        assert_eq!(
            out.items(),
            [1, 3, 0, 0, 3].map(NodeId),
            "node 1 keeps 3, loses 2, gains 0; nodes 0 and 3 are copied; 5 is new"
        );
        let inc = merged.layer(LabelId(0), false).unwrap();
        assert_eq!(inc.run(NodeId(3)), &[NodeId(1), NodeId(5)]);
        assert_eq!(inc.run(NodeId(2)), &[] as &[NodeId]);
        assert_eq!(merged.out_all.run(NodeId(5)), &[(LabelId(0), NodeId(3))]);
    }
}
