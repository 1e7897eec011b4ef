//! Graph statistics: the frozen per-label cardinalities the planner reads
//! ([`LabelStats`]) and the human-facing summary used for the Figure 3
//! reproduction ([`GraphStats`]).

use std::collections::BTreeMap;

use crate::graph::GraphStore;
use crate::ids::{Direction, LabelId};

/// Cardinalities of one `(label)` slice of the graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelEntry {
    /// Number of edges carrying the label.
    pub edges: u64,
    /// Number of distinct source nodes (nodes with at least one outgoing
    /// edge of this label) — the cardinality of the paper's `Tails`.
    pub distinct_tails: u64,
    /// Number of distinct target nodes — the cardinality of `Heads`.
    pub distinct_heads: u64,
}

/// Per-label edge and distinct-endpoint counts. A frozen store reads them
/// off its CSR offset arrays once per index (`O(labels · nodes)` array
/// scans, cached beside the arrays) and every epoch layered on that index
/// adds its overlay's counters in `O(labels)`.
///
/// The planner uses these to decide which end of a doubly-constant conjunct
/// to evaluate from and how to order conjunct streams for the rank join;
/// they are also serialised into snapshot images (an optional section, so
/// pre-stats images still open and recompute lazily).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelStats {
    entries: Vec<LabelEntry>,
    total_edges: u64,
}

impl LabelStats {
    /// Computes the statistics for `graph` from scratch: the popcounts of
    /// each label's two occupancy bitmaps in the frozen index (none while
    /// loading) and one pass over the overlay's touched nodes, counting
    /// endpoints rather than trusting the overlay's counters. [`GraphStore::label_stats`]
    /// returns the same values in `O(labels)`; this is the reference it is
    /// tested against.
    pub fn compute(graph: &GraphStore) -> LabelStats {
        let base = graph.csr.as_ref().map(|csr| csr.scan_stats());
        let base = base.unwrap_or_default();
        let added = |label, dir| match &graph.overlay {
            Some(overlay) => overlay.added_endpoints(label, dir).count() as u64,
            None => 0,
        };
        let entries = graph.labels().map(|(label, _)| LabelEntry {
            edges: graph.edge_count_for_label(label) as u64,
            distinct_tails: base.entry(label).distinct_tails + added(label, Direction::Outgoing),
            distinct_heads: base.entry(label).distinct_heads + added(label, Direction::Incoming),
        });
        LabelStats::from_entries(entries.collect())
    }

    /// Reassembles the statistics from raw entries.
    pub(crate) fn from_entries(entries: Vec<LabelEntry>) -> LabelStats {
        let total_edges = entries.iter().map(|e| e.edges).sum();
        LabelStats {
            entries,
            total_edges,
        }
    }

    /// The entry for `label` (all-zero for labels unknown at compute time).
    #[inline]
    pub fn entry(&self, label: LabelId) -> LabelEntry {
        self.entries.get(label.index()).copied().unwrap_or_default()
    }

    /// Whether at least one edge carries `label`.
    #[inline]
    pub fn has_edges(&self, label: LabelId) -> bool {
        self.entry(label).edges > 0
    }

    /// Number of labels covered.
    pub fn label_count(&self) -> usize {
        self.entries.len()
    }

    /// Total edge count across all labels.
    pub fn total_edges(&self) -> u64 {
        self.total_edges
    }

    /// The raw per-label entries, in label-id order (serialisation).
    pub fn entries(&self) -> &[LabelEntry] {
        &self.entries
    }
}

/// Summary statistics of a [`GraphStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Total node count.
    pub nodes: usize,
    /// Total edge count.
    pub edges: usize,
    /// Number of distinct edge labels.
    pub labels: usize,
    /// Edge count per label name.
    pub edges_per_label: BTreeMap<String, usize>,
    /// Average total degree over all nodes.
    pub avg_degree: f64,
    /// Maximum total degree over all nodes.
    pub max_degree: usize,
}

impl GraphStats {
    /// Computes statistics for `graph`.
    ///
    /// Per-label counts come from the shared [`LabelStats`] (frozen CSR
    /// offsets when available) and the average degree is `2·edges / nodes`
    /// exactly (every edge contributes one outgoing and one incoming
    /// endpoint) — no per-node loop for either. Only the maximum degree
    /// still visits each node, reading the two mixed-view offset deltas
    /// on a frozen store.
    pub fn compute(graph: &GraphStore) -> GraphStats {
        let label_stats = graph.label_stats();
        let mut edges_per_label = BTreeMap::new();
        for (id, name) in graph.labels() {
            let count = label_stats.entry(id).edges as usize;
            if count > 0 {
                edges_per_label.insert(name.to_owned(), count);
            }
        }
        let nodes = graph.node_count();
        let edges = graph.edge_count();
        let max_degree = graph.node_ids().map(|n| graph.degree(n)).max().unwrap_or(0);
        GraphStats {
            nodes,
            edges,
            labels: graph.label_count(),
            edges_per_label,
            avg_degree: if nodes == 0 {
                0.0
            } else {
                2.0 * edges as f64 / nodes as f64
            },
            max_degree,
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "nodes={} edges={} labels={} avg_degree={:.2} max_degree={}",
            self.nodes, self.edges, self.labels, self.avg_degree, self.max_degree
        )?;
        for (label, count) in &self.edges_per_label {
            writeln!(f, "  {label}: {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GraphStore {
        let mut g = GraphStore::new();
        g.add_triple("a", "p", "b");
        g.add_triple("a", "p", "c");
        g.add_triple("b", "q", "c");
        g
    }

    #[test]
    fn stats_on_small_graph() {
        let g = sample();
        let stats = GraphStats::compute(&g);
        assert_eq!(stats.nodes, 3);
        assert_eq!(stats.edges, 3);
        assert_eq!(stats.edges_per_label["p"], 2);
        assert_eq!(stats.edges_per_label["q"], 1);
        assert!(!stats.edges_per_label.contains_key("type"));
        // total degree = 2 * edges
        assert!((stats.avg_degree - 2.0).abs() < 1e-9);
        assert_eq!(stats.max_degree, 2);
    }

    #[test]
    fn stats_on_empty_graph() {
        let g = GraphStore::new();
        let stats = GraphStats::compute(&g);
        assert_eq!(stats.nodes, 0);
        assert_eq!(stats.edges, 0);
        assert_eq!(stats.avg_degree, 0.0);
    }

    #[test]
    fn label_stats_count_edges_and_endpoints() {
        let g = sample();
        let stats = LabelStats::compute(&g);
        let p = g.label_id("p").unwrap();
        let q = g.label_id("q").unwrap();
        assert_eq!(stats.entry(p).edges, 2);
        assert_eq!(stats.entry(p).distinct_tails, 1); // only `a`
        assert_eq!(stats.entry(p).distinct_heads, 2); // b and c
        assert_eq!(stats.entry(q).edges, 1);
        assert!(stats.has_edges(p));
        assert!(!stats.has_edges(g.type_label()));
        assert_eq!(stats.total_edges(), 3);
        assert_eq!(stats.label_count(), g.label_count());
        // Out-of-range labels report zeroes, not a panic.
        assert_eq!(stats.entry(LabelId(99)).edges, 0);
    }

    #[test]
    fn frozen_and_builder_label_stats_agree() {
        let g = sample();
        let mut frozen = g.clone();
        frozen.freeze();
        assert_eq!(LabelStats::compute(&g), LabelStats::compute(&frozen));
    }

    #[test]
    fn cached_label_stats_invalidate_on_mutation() {
        let mut g = sample();
        g.freeze();
        let p = g.label_id("p").unwrap();
        assert_eq!(g.label_stats().entry(p).edges, 2);
        g.add_triple("c", "p", "a");
        assert_eq!(g.label_stats().entry(p).edges, 3);
    }
}
