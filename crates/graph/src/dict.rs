//! The node dictionary: label strings and the label → id index.

use std::sync::OnceLock;

use crate::csr::ArrayStore;
use crate::hash::{hash_str, FxHashMap};
use crate::ids::NodeId;
use crate::snapshot::map::MappedSlice;

/// The node label strings, concatenated: owned buffers, or zero-copy views
/// into a memory-mapped snapshot.
///
/// Both forms are a `u64[len + 1]` offsets array into one UTF-8 byte string
/// — two allocations however many nodes there are, so a loaded dictionary
/// pins no small blocks among the per-node lists that
/// [`crate::GraphStore::freeze`] frees wholesale, and opening an image
/// copies nothing. The loader validated a mapped table once (UTF-8,
/// monotone offsets on character boundaries), so lookups slice without
/// re-checking. The first node added to a mapped table copies it to the
/// owned form.
#[derive(Debug, Clone)]
pub(crate) enum NodeLabels {
    /// Heap buffers built through [`crate::GraphStore::add_node`].
    Owned {
        /// Byte offset of each label's end (`offsets[0] == 0`).
        offsets: Vec<u64>,
        bytes: String,
    },
    /// Offsets + bytes borrowed from a snapshot mapping.
    Mapped {
        /// `u64[len + 1]` byte offsets, cast once at open and validated
        /// monotone and on UTF-8 character boundaries.
        offsets: ArrayStore<u64>,
        /// Concatenated label strings, validated as UTF-8.
        bytes: MappedSlice,
    },
}

impl NodeLabels {
    fn parts(&self) -> (&[u64], &str) {
        match self {
            NodeLabels::Owned { offsets, bytes } => (offsets, bytes),
            NodeLabels::Mapped { offsets, bytes } => {
                // SAFETY: the loader validated the whole byte section as
                // UTF-8 before building this variant.
                (offsets.as_slice(), unsafe {
                    std::str::from_utf8_unchecked(bytes.bytes())
                })
            }
        }
    }

    fn push(&mut self, label: &str) {
        if let NodeLabels::Mapped { .. } = self {
            let (offsets, bytes) = self.parts();
            *self = NodeLabels::Owned {
                offsets: offsets.to_vec(),
                bytes: bytes.to_owned(),
            };
        }
        if let NodeLabels::Owned { offsets, bytes } = self {
            bytes.push_str(label);
            offsets.push(bytes.len() as u64);
        }
    }
}

/// The node dictionary: label strings plus the label → id hash index.
///
/// Shared (behind an `Arc`) by every store of an epoch chain; only a store
/// that adds a node to it copies it. The index is built on the first lookup
/// — opening a snapshot never pays for an index the workload might not use
/// — and kept current by [`NodeDict::push`] afterwards. It maps a label's
/// 64-bit hash to the node, comparing against the label table on a hit, so
/// it owns no strings either.
#[derive(Debug, Clone)]
pub(crate) struct NodeDict {
    labels: NodeLabels,
    index: OnceLock<LabelIndex>,
}

#[derive(Debug, Clone, Default)]
struct LabelIndex {
    by_hash: FxHashMap<u64, NodeId>,
    /// Nodes whose label hash an earlier node already holds in `by_hash`
    /// (a 64-bit collision, or a duplicate label in a foreign snapshot).
    collided: Vec<NodeId>,
}

impl NodeDict {
    pub(crate) fn new(labels: NodeLabels) -> NodeDict {
        NodeDict {
            labels,
            index: OnceLock::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.labels.parts().0.len() - 1
    }

    /// The label of node `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range (same contract as `Vec` indexing).
    pub(crate) fn label(&self, i: usize) -> &str {
        let (offsets, bytes) = self.labels.parts();
        &bytes[offsets[i] as usize..offsets[i + 1] as usize]
    }

    /// The labels in node-id order.
    pub(crate) fn labels(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(move |i| self.label(i))
    }

    fn index(&self) -> &LabelIndex {
        self.index.get_or_init(|| {
            let mut index = LabelIndex::default();
            index.by_hash.reserve(self.len());
            for (i, label) in self.labels().enumerate() {
                index.insert(label, NodeId(i as u32));
            }
            index
        })
    }

    /// Node labels are unique by construction for every store this crate
    /// writes; if a foreign snapshot nevertheless carries duplicates (its
    /// checksums intact but its writer buggy), the *lowest* node id wins —
    /// it is the one `by_hash` holds — so lookups stay deterministic.
    pub(crate) fn get(&self, label: &str) -> Option<NodeId> {
        let index = self.index();
        let first = index.by_hash.get(&hash_str(label))?;
        std::iter::once(first)
            .chain(&index.collided)
            .copied()
            .find(|node| self.label(node.index()) == label)
    }

    /// Appends a node whose label the caller found absent.
    pub(crate) fn push(&mut self, label: &str) -> NodeId {
        self.index();
        let id = NodeId(self.len() as u32);
        self.labels.push(label);
        if let Some(index) = self.index.get_mut() {
            index.insert(label, id);
        }
        id
    }
}

impl LabelIndex {
    fn insert(&mut self, label: &str, node: NodeId) {
        if *self.by_hash.entry(hash_str(label)).or_insert(node) != node {
            self.collided.push(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict(labels: &[&str]) -> NodeDict {
        let mut dict = NodeDict::new(NodeLabels::Owned {
            offsets: vec![0],
            bytes: String::new(),
        });
        for label in labels {
            dict.push(label);
        }
        dict
    }

    #[test]
    fn labels_round_trip_through_the_concatenated_table() {
        let d = dict(&["alice", "", "bob", "zoë"]);
        assert_eq!(d.len(), 4);
        assert_eq!(d.labels().collect::<Vec<_>>(), ["alice", "", "bob", "zoë"]);
        assert_eq!(d.get("bob"), Some(NodeId(2)));
        assert_eq!(d.get(""), Some(NodeId(1)));
        assert_eq!(d.get("zoë"), Some(NodeId(3)));
        assert_eq!(d.get("zo"), None);
        assert_eq!(d.get("alicebob"), None);
    }

    #[test]
    fn a_duplicate_label_resolves_to_the_lowest_id() {
        // What a buggy foreign snapshot could carry: the second "x" shares
        // the first one's hash slot and goes to the collision list.
        let d = dict(&["x", "y", "x"]);
        assert_eq!(d.get("x"), Some(NodeId(0)));
        assert_eq!(d.get("y"), Some(NodeId(1)));
        assert_eq!(d.index().collided, [NodeId(2)]);
        // An index built lazily over the finished table agrees.
        let rebuilt = NodeDict::new(d.labels.clone());
        assert_eq!(rebuilt.get("x"), Some(NodeId(0)));
    }

    #[test]
    fn a_clone_taken_before_a_push_does_not_see_it() {
        let mut d = dict(&["a"]);
        let before = d.clone();
        assert_eq!(d.push("b"), NodeId(1));
        assert_eq!(d.get("b"), Some(NodeId(1)));
        assert_eq!(before.get("b"), None);
        assert_eq!(before.len(), 1);
    }
}
