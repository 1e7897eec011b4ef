//! Serialising a frozen [`GraphStore`] into snapshot sections and
//! reassembling one — with memory-mapped CSR arrays — from an open reader.
//!
//! The writer emits, per graph:
//!
//! * a `meta` section (node / label / edge counts, the `type` label id),
//! * the node and edge-label string tables (offsets + concatenated bytes),
//! * one `(offsets, targets)` section pair per `(label, direction)` CSR
//!   layer, and one `(offsets, entries)` pair per mixed-label direction.
//!
//! The loader rebuilds the small edge-label dictionary, keeps the node
//! dictionary mapped (its hash index is built on the first lookup), and
//! wraps every CSR array in a borrowed storage enum over the mapping — the
//! bulk of the image is never copied. The result is an ordinary frozen
//! store: the same shared parts a heap-built store has after
//! [`GraphStore::freeze`], backed by the mapping. Offsets are validated
//! (monotone, bounded) before any slice can be built over them, so a
//! malformed file fails with a typed error instead of a panic at query time.

use crate::bytes::Writer;
use crate::csr::{ArrayStore, CsrIndex, CsrLayer, CsrMixed, NodeStore, PairStore, U32Store};
use std::sync::{Arc, OnceLock};

use crate::dict::{NodeDict, NodeLabels};
use crate::graph::{GraphStore, TYPE_LABEL};
use crate::ids::LabelId;
use crate::interner::LabelInterner;
use crate::snapshot::error::SnapshotError;
use crate::snapshot::format::{
    u32_payload, u64_payload, SectionId, SectionKind, SnapshotReader, SnapshotWriter,
};
use crate::snapshot::map::MappedSlice;

/// Number of `u64` words in the meta section.
const META_WORDS: usize = 4;

/// Adds every graph section of `store` to `writer`.
///
/// The store must be frozen: the CSR arrays *are* the image.
pub fn write_graph_sections(
    store: &GraphStore,
    writer: &mut SnapshotWriter,
) -> Result<(), SnapshotError> {
    write_graph_sections_with(store, writer, true)
}

/// [`write_graph_sections`] without the (optional) label-stats section —
/// the exact section set images carried before the statistics existed.
/// Exposed so compatibility tests can produce pre-stats fixtures.
pub fn write_graph_sections_without_stats(
    store: &GraphStore,
    writer: &mut SnapshotWriter,
) -> Result<(), SnapshotError> {
    write_graph_sections_with(store, writer, false)
}

fn write_graph_sections_with(
    store: &GraphStore,
    writer: &mut SnapshotWriter,
    include_label_stats: bool,
) -> Result<(), SnapshotError> {
    let csr = store.csr.as_ref().ok_or_else(|| {
        SnapshotError::malformed("graph must be frozen before it can be snapshotted")
    })?;
    if store.has_overlay() {
        return Err(SnapshotError::malformed(
            "graph carries an uncompacted delta overlay; compact before snapshotting",
        ));
    }

    writer.add(
        SectionId::plain(SectionKind::Meta),
        u64_payload([
            store.nodes.len() as u64,
            store.labels.len() as u64,
            store.edge_count as u64,
            store.type_label.0 as u64,
        ]),
    );

    let (node_offsets, node_bytes) = string_table(store.nodes.labels());
    writer.add(
        SectionId::plain(SectionKind::NodeLabelOffsets),
        u64_payload(node_offsets),
    );
    writer.add(SectionId::plain(SectionKind::NodeLabelBytes), node_bytes);

    let (label_offsets, label_bytes) = string_table(store.labels.iter().map(|(_, name)| name));
    writer.add(
        SectionId::plain(SectionKind::EdgeLabelOffsets),
        u64_payload(label_offsets),
    );
    writer.add(SectionId::plain(SectionKind::EdgeLabelBytes), label_bytes);

    for (label, (out_layer, in_layer)) in csr.out.iter().zip(&csr.inc).enumerate() {
        for (layer, incoming) in [(out_layer, false), (in_layer, true)] {
            writer.add(
                SectionId::csr(SectionKind::CsrOffsets, label as u32, incoming),
                u32_payload(layer.offsets().iter().copied()),
            );
            writer.add(
                SectionId::csr(SectionKind::CsrTargets, label as u32, incoming),
                u32_payload(layer.items().iter().map(|n| n.0)),
            );
        }
    }
    for (mixed, incoming) in [(&csr.out_all, false), (&csr.in_all, true)] {
        writer.add(
            SectionId {
                kind: SectionKind::MixedOffsets,
                param: incoming as u32,
            },
            u32_payload(mixed.offsets().iter().copied()),
        );
        let mut entries = Writer::with_capacity(mixed.len() * 8);
        for &(label, node) in mixed.items() {
            entries.put_u32(label.0);
            entries.put_u32(node.0);
        }
        writer.add(
            SectionId {
                kind: SectionKind::MixedEntries,
                param: incoming as u32,
            },
            entries.into_inner(),
        );
    }
    if include_label_stats {
        let stats = store.label_stats();
        let mut words: Vec<u64> = Vec::with_capacity(1 + stats.label_count() * 3);
        words.push(stats.label_count() as u64);
        for entry in stats.entries() {
            words.push(entry.edges);
            words.push(entry.distinct_tails);
            words.push(entry.distinct_heads);
        }
        writer.add(
            SectionId::plain(SectionKind::LabelStats),
            u64_payload(words),
        );
    }
    Ok(())
}

/// Reassembles a frozen [`GraphStore`] over the open snapshot `reader`.
///
/// CSR offset/target/entry arrays stay borrowed from the mapping (the
/// reader's `Arc` keeps it alive); string tables and the node hash index
/// are rebuilt in owned memory.
pub fn read_graph(reader: &SnapshotReader) -> Result<GraphStore, SnapshotError> {
    let meta = reader.require(SectionId::plain(SectionKind::Meta))?;
    let meta = meta.as_u64s()?;
    if meta.len() != META_WORDS {
        return Err(SnapshotError::malformed(format!(
            "meta section has {} words, expected {META_WORDS}",
            meta.len()
        )));
    }
    let node_count = usize_word(meta[0], "node count")?;
    let label_count = usize_word(meta[1], "label count")?;
    let edge_count = usize_word(meta[2], "edge count")?;
    let type_label = LabelId(u32::try_from(meta[3]).map_err(|_| {
        SnapshotError::malformed(format!("type label id {} out of range", meta[3]))
    })?);

    // The node dictionary stays mapped: offsets and bytes are validated
    // once here (monotone, character-boundary offsets, UTF-8) and then
    // served zero-copy. The hash index over it is built on the first
    // `node_by_label` call, not at open time.
    let node_labels = mapped_string_table(
        reader,
        SectionKind::NodeLabelOffsets,
        SectionKind::NodeLabelBytes,
        node_count,
    )?;
    let label_names = NodeDict::new(mapped_string_table(
        reader,
        SectionKind::EdgeLabelOffsets,
        SectionKind::EdgeLabelBytes,
        label_count,
    )?);

    let mut labels = LabelInterner::new();
    for name in label_names.labels() {
        labels.intern(name);
    }
    if labels.len() != label_count {
        return Err(SnapshotError::malformed(
            "edge label table contains duplicate names",
        ));
    }
    if labels.get(TYPE_LABEL) != Some(type_label) {
        return Err(SnapshotError::malformed(
            "meta type-label id disagrees with the label table",
        ));
    }

    let mut out = Vec::with_capacity(label_count);
    let mut inc = Vec::with_capacity(label_count);
    for label in 0..label_count as u32 {
        for incoming in [false, true] {
            let offsets =
                reader.require(SectionId::csr(SectionKind::CsrOffsets, label, incoming))?;
            let offsets = U32Store::mapped(offsets, MappedSlice::as_u32s)?;
            let targets =
                reader.require(SectionId::csr(SectionKind::CsrTargets, label, incoming))?;
            let targets = NodeStore::mapped(targets, MappedSlice::as_node_ids)?;
            validate_offsets(
                offsets.as_slice(),
                node_count,
                targets.as_slice().len(),
                "CSR layer",
            )?;
            for &t in targets.as_slice() {
                if t.index() >= node_count {
                    return Err(SnapshotError::malformed(format!(
                        "CSR target {t} out of range for {node_count} nodes"
                    )));
                }
            }
            let layer = CsrLayer::from_parts(offsets, targets);
            if incoming {
                inc.push(layer);
            } else {
                out.push(layer);
            }
        }
    }

    let mut mixed = Vec::with_capacity(2);
    for incoming in [false, true] {
        let id = |kind| SectionId {
            kind,
            param: incoming as u32,
        };
        let offsets = U32Store::mapped(
            reader.require(id(SectionKind::MixedOffsets))?,
            MappedSlice::as_u32s,
        )?;
        let entries = PairStore::mapped_pairs(reader.require(id(SectionKind::MixedEntries))?)?;
        validate_offsets(
            offsets.as_slice(),
            node_count,
            entries.as_slice().len(),
            "mixed view",
        )?;
        for &(label, node) in entries.as_slice() {
            if label.index() >= label_count || node.index() >= node_count {
                return Err(SnapshotError::malformed(format!(
                    "mixed entry ({label:?}, {node}) out of range"
                )));
            }
        }
        mixed.push(CsrMixed::from_parts(offsets, entries));
    }
    let (Some(in_all), Some(out_all)) = (mixed.pop(), mixed.pop()) else {
        return Err(SnapshotError::malformed("missing mixed CSR views"));
    };

    let total: usize = out.iter().map(CsrLayer::len).sum();
    if total != edge_count {
        return Err(SnapshotError::malformed(format!(
            "meta edge count {edge_count} disagrees with CSR total {total}"
        )));
    }

    // The label-stats section is optional: pre-stats images simply leave
    // the cache empty and the statistics are recomputed lazily on first use.
    let stats = OnceLock::new();
    if let Some(section) = reader.section(SectionId::plain(SectionKind::LabelStats)) {
        let _ = stats.set(read_label_stats(&section, label_count)?);
    }

    let csr = CsrIndex {
        out,
        inc,
        out_all,
        in_all,
        stats,
        summary: OnceLock::new(),
    };
    Ok(GraphStore {
        nodes: Arc::new(NodeDict::new(node_labels)),
        labels: Arc::new(labels),
        type_label,
        edge_count,
        csr: Some(Arc::new(csr)),
        overlay: None,
        label_stats: OnceLock::new(),
        summary: OnceLock::new(),
    })
}

/// Decodes a label-stats section: a label count followed by
/// `(edges, distinct_tails, distinct_heads)` word triples.
fn read_label_stats(
    section: &MappedSlice,
    label_count: usize,
) -> Result<crate::stats::LabelStats, SnapshotError> {
    let words = section.as_u64s()?;
    if words.len() != 1 + label_count * 3 || words[0] != label_count as u64 {
        return Err(SnapshotError::malformed(format!(
            "label-stats section has {} words for {} labels",
            words.len(),
            label_count
        )));
    }
    let entries = words[1..]
        .chunks_exact(3)
        .map(|w| crate::stats::LabelEntry {
            edges: w[0],
            distinct_tails: w[1],
            distinct_heads: w[2],
        })
        .collect();
    Ok(crate::stats::LabelStats::from_entries(entries))
}

fn usize_word(value: u64, what: &str) -> Result<usize, SnapshotError> {
    usize::try_from(value)
        .ok()
        .filter(|&v| v <= u32::MAX as usize)
        .ok_or_else(|| SnapshotError::malformed(format!("{what} {value} out of range")))
}

/// Builds `(offsets, bytes)` for a string table: `offsets[i] .. offsets[i+1]`
/// bounds string `i` in the concatenated UTF-8 bytes.
fn string_table<'a>(strings: impl Iterator<Item = &'a str>) -> (Vec<u64>, Vec<u8>) {
    let mut offsets = vec![0u64];
    let mut bytes = Vec::new();
    for s in strings {
        bytes.extend_from_slice(s.as_bytes());
        offsets.push(bytes.len() as u64);
    }
    (offsets, bytes)
}

/// Validates a string table's sections and wraps them as a zero-copy
/// [`NodeLabels::Mapped`] table: `count + 1` monotone offsets spanning the
/// byte section and landing on character boundaries of valid UTF-8.
fn mapped_string_table(
    reader: &SnapshotReader,
    offsets_kind: SectionKind,
    bytes_kind: SectionKind,
    count: usize,
) -> Result<NodeLabels, SnapshotError> {
    let offsets = ArrayStore::mapped(
        reader.require(SectionId::plain(offsets_kind))?,
        MappedSlice::as_u64s,
    )?;
    let bytes_slice = reader.require(SectionId::plain(bytes_kind))?;
    let (words, bytes) = (offsets.as_slice(), bytes_slice.bytes());
    if words.len() != count + 1 {
        return Err(SnapshotError::malformed(format!(
            "{offsets_kind} has {} entries, expected {}",
            words.len(),
            count + 1
        )));
    }
    if words.first() != Some(&0) || words.last() != Some(&(bytes.len() as u64)) {
        return Err(SnapshotError::malformed(format!(
            "{offsets_kind} does not span its byte section"
        )));
    }
    if words.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::malformed(format!(
            "{offsets_kind} is not monotone"
        )));
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|_| SnapshotError::malformed(format!("{bytes_kind} holds invalid UTF-8")))?;
    if words
        .iter()
        .any(|&off| !text.is_char_boundary(off as usize))
    {
        return Err(SnapshotError::malformed(format!(
            "{offsets_kind} splits a UTF-8 character"
        )));
    }
    Ok(NodeLabels::Mapped {
        offsets,
        bytes: bytes_slice,
    })
}

/// Checks a CSR offsets array: `node_count + 1` monotone entries spanning
/// exactly `data_len` items, so slicing with any adjacent pair is in-bounds.
fn validate_offsets(
    offsets: &[u32],
    node_count: usize,
    data_len: usize,
    what: &str,
) -> Result<(), SnapshotError> {
    if offsets.len() != node_count + 1 {
        return Err(SnapshotError::malformed(format!(
            "{what} offsets have {} entries, expected {}",
            offsets.len(),
            node_count + 1
        )));
    }
    if offsets.first() != Some(&0) || offsets.last() != Some(&(data_len as u32)) {
        return Err(SnapshotError::malformed(format!(
            "{what} offsets do not span their data section"
        )));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::malformed(format!(
            "{what} offsets are not monotone"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Direction;

    fn sample() -> GraphStore {
        let mut g = GraphStore::new();
        g.add_triple("alice", "knows", "bob");
        g.add_triple("bob", "knows", "carol");
        g.add_triple("alice", "likes", "carol");
        g.add_triple("alice", "type", "Person");
        g.freeze();
        g
    }

    fn roundtrip(g: &GraphStore, tag: &str) -> GraphStore {
        let path = std::env::temp_dir().join(format!(
            "omega-graph-image-{}-{tag}.snapshot",
            std::process::id()
        ));
        let mut w = SnapshotWriter::new();
        write_graph_sections(g, &mut w).unwrap();
        w.write_to(&path).unwrap();
        let r = SnapshotReader::open(&path).unwrap();
        let loaded = read_graph(&r).unwrap();
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn graph_roundtrips_through_an_image() {
        let g = sample();
        let loaded = roundtrip(&g, "basic");
        assert!(loaded.is_frozen());
        assert_eq!(loaded.node_count(), g.node_count());
        assert_eq!(loaded.edge_count(), g.edge_count());
        assert_eq!(loaded.label_count(), g.label_count());
        assert_eq!(loaded.type_label(), g.type_label());
        for node in g.node_ids() {
            assert_eq!(loaded.node_label(node), g.node_label(node));
            for (label, _) in g.labels() {
                for dir in [Direction::Outgoing, Direction::Incoming] {
                    assert!(loaded
                        .neighbors_iter(node, label, dir)
                        .eq(g.neighbors_iter(node, label, dir)));
                }
            }
            for dir in [Direction::Outgoing, Direction::Incoming] {
                assert!(loaded
                    .neighbors_any_iter(node, dir)
                    .eq(g.neighbors_any_iter(node, dir)));
            }
        }
        assert_eq!(
            loaded.node_by_label("alice"),
            g.node_by_label("alice"),
            "hash index must be rebuilt"
        );
        // Derived reads are served from the mapped CSR.
        assert_eq!(loaded.edges().count(), g.edge_count());
        assert_eq!(
            loaded.nodes_with_any_edge().len(),
            g.nodes_with_any_edge().len()
        );
        let knows = g.label_id("knows").unwrap();
        assert_eq!(
            loaded.edge_count_for_label(knows),
            g.edge_count_for_label(knows)
        );
    }

    #[test]
    fn loaded_store_thaws_on_mutation() {
        let g = sample();
        let mut loaded = roundtrip(&g, "thaw");
        // Adding an edge must keep all the old edges (the thaw) and behave
        // exactly like a never-snapshotted store.
        assert!(loaded.add_triple("carol", "knows", "dave"));
        assert!(!loaded.is_frozen());
        assert_eq!(loaded.edge_count(), g.edge_count() + 1);
        let knows = loaded.label_id("knows").unwrap();
        let alice = loaded.node_by_label("alice").unwrap();
        let bob = loaded.node_by_label("bob").unwrap();
        let knows_of_alice = |g: &GraphStore| {
            g.neighbors_iter(alice, knows, Direction::Outgoing)
                .collect::<Vec<_>>()
        };
        assert_eq!(knows_of_alice(&loaded), [bob]);
        loaded.freeze();
        assert_eq!(knows_of_alice(&loaded), [bob]);
        // Deduplication still works against thawed edges.
        assert!(!loaded.add_triple("alice", "knows", "bob"));
    }

    #[test]
    fn unfrozen_store_cannot_be_written() {
        let mut g = GraphStore::new();
        g.add_triple("a", "knows", "b");
        let mut w = SnapshotWriter::new();
        assert!(matches!(
            write_graph_sections(&g, &mut w),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let mut g = GraphStore::new();
        g.freeze();
        let loaded = roundtrip(&g, "empty");
        assert_eq!(loaded.node_count(), 0);
        assert_eq!(loaded.edge_count(), 0);
        assert_eq!(
            loaded.label_count(),
            1,
            "the `type` label is always interned"
        );
    }
}
