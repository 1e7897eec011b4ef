//! Node summaries: the graph divided by what each node's edges look like.
//!
//! A node's *signature* is the set of `(label, direction)` layers it has
//! edges in. Nodes with one signature are one *class*, and the summary
//! records, per layer, which classes have an edge in that layer to which:
//! a homomorphic image of the graph, small enough that a compiled plan can
//! search it for every automaton state at once (the evaluator's bound, see
//! `omega_automata::SignatureBound`). The paper's graphs are regular: L4All
//! L3's 80,137 nodes fall into 22 signatures, YAGO 1.0's 12,054 into 156.
//!
//! There are at most [`MAX_CLASSES`] classes, so a set of them is one `u64`:
//! the 63 most populous signatures keep a class each, and the rest share the
//! last, the *catch-all*, which also takes every node created after the
//! summary was built. Any partition of the nodes gives a sound image,
//! because the abstract edges are read off real edges; the signatures make
//! it sharp, and the cap only merges rare ones.
//!
//! A frozen index builds its summary on first use — the signatures off the
//! layers' occupancy bitmaps, the abstract edges in one pass over the
//! outgoing runs — and keeps it beside the bitmaps and its statistics, so
//! every epoch over the index shares it. An epoch with a delta overlay adds
//! the images of added edges to a copy of the tables (the node classes stay
//! shared): those of its batch to its parent's summary when that was built,
//! `O(batch)`, or else those of the whole overlay to the base's,
//! `O(overlay)` — never a pass over the base graph. Deleted edges are
//! ignored, which leaves a superset of the live abstract edges and so a
//! sound image.

use std::sync::Arc;

use crate::csr::CsrIndex;
use crate::graph::EdgeRef;
use crate::hash::FxHashMap;
use crate::ids::{Direction, LabelId, NodeId};

/// The most classes a summary has: a set of them fits one `u64`.
pub const MAX_CLASSES: usize = 64;

/// Node classes and the abstract edges between them (see the module
/// documentation).
#[derive(Clone)]
pub struct NodeSummary {
    /// The class of each node the summary was built over.
    class: Arc<[u8]>,
    /// The class of every other node, and of the rarest signatures.
    catch_all: u8,
    /// `into[layer * classes + c]`: the classes with an edge in `layer` to
    /// a node of class `c`.
    into: Vec<u64>,
    /// `has[layer]`: the classes with an edge in `layer`.
    has: Vec<u64>,
}

impl std::fmt::Debug for NodeSummary {
    /// The shape, not the per-node classes.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeSummary")
            .field("nodes", &self.class.len())
            .field("classes", &self.classes())
            .field("layers", &self.has.len())
            .finish()
    }
}

/// The layer of `label` in `dir`: two per label, outgoing first.
#[inline]
fn layer(label: LabelId, dir: Direction) -> usize {
    label.index() * 2 + dir as usize
}

impl NodeSummary {
    /// The summary of a graph with no index: one class, no edges.
    pub(crate) fn empty(labels: usize) -> NodeSummary {
        NodeSummary {
            class: Arc::from(&[][..]),
            catch_all: 0,
            into: vec![0; 2 * labels],
            has: vec![0; 2 * labels],
        }
    }

    /// The summary of `csr`'s arrays, over its `labels` labels.
    pub(crate) fn build(csr: &CsrIndex, labels: usize) -> NodeSummary {
        let nodes = csr.out_all.offsets().len().saturating_sub(1);
        // Pass 1: every node's layer set, read off the layers' occupancy
        // bitmaps (the ones the label statistics count). A graph of more
        // than 64 labels folds its layers onto 128 bits: a coarser
        // partition, and as sound.
        let layers: Vec<(u128, &[u64])> = (csr.out.iter().zip(&csr.inc).enumerate())
            .flat_map(|(label, (out, inc))| {
                let label = LabelId(label as u32);
                [(Direction::Outgoing, out), (Direction::Incoming, inc)].map(|(dir, bits)| {
                    let bit = 1u128 << (layer(label, dir) % 128);
                    (bit, bits.occupancy().words())
                })
            })
            .collect();
        let mut signature = vec![0u128; nodes];
        // 64 nodes at a time, so that their signatures stay in cache.
        for (w, block) in signature.chunks_mut(64).enumerate() {
            for &(bit, words) in &layers {
                let mut word = words.get(w).copied().unwrap_or(0);
                while word != 0 {
                    block[word.trailing_zeros() as usize] |= bit;
                    word &= word - 1;
                }
            }
        }
        // Each signature's id in first-seen order, and its population.
        let mut ids: FxHashMap<(u64, u64), u32> = FxHashMap::default();
        let mut population: Vec<u32> = Vec::new();
        let mut last = None;
        let raw: Vec<u32> = signature
            .iter()
            .map(|&sig| {
                let id = match last {
                    Some((seen, id)) if seen == sig => id,
                    _ => *ids
                        .entry(((sig >> 64) as u64, sig as u64))
                        .or_insert_with(|| {
                            population.push(0);
                            population.len() as u32 - 1
                        }),
                };
                last = Some((sig, id));
                population[id as usize] += 1;
                id
            })
            .collect();
        // The most populous signatures keep a class each (ties by first
        // sight); the rest fall into the catch-all.
        let mut by_size: Vec<u32> = (0..population.len() as u32).collect();
        by_size.sort_by_key(|&id| std::cmp::Reverse(population[id as usize]));
        let catch_all = by_size.len().min(MAX_CLASSES - 1) as u8;
        let mut class_of_id = vec![catch_all; by_size.len()];
        for (rank, &id) in by_size.iter().take(catch_all as usize).enumerate() {
            class_of_id[id as usize] = rank as u8;
        }
        let class: Arc<[u8]> = raw.iter().map(|&id| class_of_id[id as usize]).collect();
        let mut summary = NodeSummary {
            class,
            catch_all,
            ..NodeSummary::empty(labels)
        };
        summary.into = vec![0; 2 * labels * summary.classes()];
        // Pass 2: per label and source node, the classes its run reaches.
        let class = Arc::clone(&summary.class);
        for (label, out) in csr.out.iter().enumerate() {
            let items = out.items();
            for (source, run) in out.offsets().windows(2).enumerate() {
                if run[0] == run[1] {
                    continue;
                }
                let targets = items[run[0] as usize..run[1] as usize]
                    .iter()
                    .fold(0, |targets, target| targets | 1 << class[target.index()]);
                let from = usize::from(class[source]);
                summary.add_edges(from, LabelId(label as u32), targets);
            }
        }
        summary
    }

    /// This summary with the images of `edges` added, over a store of
    /// `labels` labels.
    pub(crate) fn with_edges(
        &self,
        edges: impl IntoIterator<Item = EdgeRef>,
        labels: usize,
    ) -> NodeSummary {
        let mut summary = self.clone();
        let classes = summary.classes();
        summary.into.resize(2 * labels * classes, 0);
        summary.has.resize(2 * labels, 0);
        for edge in edges {
            let (from, to) = (summary.class_of(edge.source), summary.class_of(edge.target));
            summary.add_edges(from, edge.label, 1 << to);
        }
        summary
    }

    /// Records edges `from --label--> t` for every class `t` of `targets`,
    /// in their outgoing and their incoming layer.
    fn add_edges(&mut self, from: usize, label: LabelId, targets: u64) {
        let classes = self.classes();
        let out = layer(label, Direction::Outgoing);
        let (mut rest, bit) = (targets, 1 << from);
        while rest != 0 {
            self.into[out * classes + rest.trailing_zeros() as usize] |= bit;
            rest &= rest - 1;
        }
        self.has[out] |= bit;
        let inc = layer(label, Direction::Incoming);
        self.into[inc * classes + from] |= targets;
        self.has[inc] |= targets;
    }

    /// Number of classes, the catch-all included.
    #[inline]
    pub fn classes(&self) -> usize {
        self.catch_all as usize + 1
    }

    /// The set of every class.
    #[inline]
    pub fn all(&self) -> u64 {
        u64::MAX >> (MAX_CLASSES - self.classes())
    }

    /// The class of `node`: the catch-all for nodes the summary was not
    /// built over.
    #[inline]
    pub fn class_of(&self, node: NodeId) -> usize {
        usize::from(*self.class.get(node.index()).unwrap_or(&self.catch_all))
    }

    /// The classes with a `label` edge in `dir` to a node of a class in
    /// `targets`: where a step over that layer can start so as to land in
    /// `targets`. Every class for a label the summary has no layer for,
    /// which is what an unknown stands for.
    pub fn sources(&self, label: LabelId, dir: Direction, targets: u64) -> u64 {
        let layer = layer(label, dir);
        let Some(&has) = self.has.get(layer) else {
            return self.all();
        };
        // The classes an edge of the layer ends at are the sources of its
        // reverse layer: only those rows can hold anything.
        let ends = self.has[layer ^ 1];
        let mut rest = targets & ends;
        if rest == ends {
            return has;
        }
        let row = &self.into[layer * self.classes()..(layer + 1) * self.classes()];
        let mut sources = 0;
        while rest != 0 {
            sources |= row[rest.trailing_zeros() as usize];
            rest &= rest - 1;
        }
        sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphStore;

    #[test]
    fn nodes_with_one_layer_set_share_a_class() {
        let mut g = GraphStore::new();
        g.add_triple("a", "p", "x");
        g.add_triple("b", "p", "y");
        g.add_triple("c", "q", "x");
        g.freeze();
        let s = g.summary();
        let class = |n: &str| s.class_of(g.node_by_label(n).unwrap());
        assert_eq!(class("a"), class("b"));
        assert_ne!(class("a"), class("c"));
        // `x` has `p` and `q` in, `y` only `p`.
        assert_ne!(class("x"), class("y"));
        // Four signatures and the empty catch-all.
        assert_eq!(s.classes(), 5);
        let (p, q) = (g.label_id("p").unwrap(), g.label_id("q").unwrap());
        let bit = |n: &str| 1u64 << class(n);
        assert_eq!(s.sources(p, Direction::Outgoing, bit("x")), bit("a"));
        assert_eq!(s.sources(p, Direction::Outgoing, bit("y")), bit("a"));
        assert_eq!(s.sources(q, Direction::Incoming, bit("c")), bit("x"));
        assert_eq!(s.sources(q, Direction::Outgoing, bit("y")), 0);
        assert_eq!(s.sources(q, Direction::Outgoing, s.all()), bit("c"));
    }

    #[test]
    fn the_rarest_signatures_share_the_catch_all() {
        // 67 signatures: node `s{a}_{b}` has edges out over labels `l{a}`
        // and `l{b}` for each of the 66 pairs `a < b` of 12 labels, and
        // `sink` has them all in. `s0_1` is the most common.
        let mut g = GraphStore::new();
        let pairs: Vec<_> = (0..12)
            .flat_map(|a| (a + 1..12).map(move |b| (a, b)))
            .collect();
        for &(a, b) in &pairs {
            for l in [a, b] {
                g.add_triple(&format!("s{a}_{b}"), &format!("l{l}"), "sink");
            }
        }
        for i in 0..5 {
            g.add_triple(&format!("t{i}"), "l0", "sink");
            g.add_triple(&format!("t{i}"), "l1", "sink");
        }
        g.freeze();
        let s = g.summary();
        assert_eq!(s.classes(), MAX_CLASSES);
        assert_eq!(s.all(), u64::MAX);
        let class = |n: &str| s.class_of(g.node_by_label(n).unwrap());
        assert_eq!(class("s0_1"), 0, "the most populous signature comes first");
        assert_eq!(class("s0_1"), class("t4"));
        // The last four singletons to be seen were merged (`sink`, created
        // second, was not), and their edges kept.
        let merged: Vec<_> = pairs
            .iter()
            .filter(|(a, b)| class(&format!("s{a}_{b}")) == 63)
            .collect();
        assert_eq!(merged, [&(8, 11), &(9, 10), &(9, 11), &(10, 11)]);
        assert_ne!(class("sink"), 63);
        let l11 = g.label_id("l11").unwrap();
        let from_l11 = s.sources(l11, Direction::Outgoing, s.all());
        assert_eq!(from_l11 & 1 << 63, 1 << 63);
    }

    #[test]
    fn an_overlay_adds_its_edges_and_new_nodes_join_the_catch_all() {
        let mut g = GraphStore::new();
        g.add_triple("a", "p", "b");
        g.freeze();
        let mut delta = crate::GraphDelta::new();
        delta.add("b", "q", "new").add("new", "r", "a");
        let (next, _) = g.with_delta(&delta).unwrap();
        let s = next.summary();
        let new = next.node_by_label("new").unwrap();
        assert_eq!(s.class_of(new), s.classes() - 1);
        let bit = |n: &str| 1u64 << s.class_of(next.node_by_label(n).unwrap());
        let q = next.label_id("q").unwrap();
        let r = next.label_id("r").unwrap();
        assert_eq!(s.sources(q, Direction::Outgoing, bit("new")), bit("b"));
        assert_eq!(s.sources(r, Direction::Incoming, bit("new")), bit("a"));
        // The base epoch's summary is untouched.
        assert!(g.label_id("q").is_none());
        let p = g.label_id("p").unwrap();
        assert_eq!(
            g.summary()
                .sources(p, Direction::Outgoing, g.summary().all()),
            1 << g.summary().class_of(g.node_by_label("a").unwrap())
        );
    }
}
