//! The ontology section of a snapshot image.
//!
//! The whole ontology — both hierarchies' direct relations, the
//! domain/range declarations, *and* their closure tables — is packed into
//! one checksummed `u32` section of the shared snapshot container
//! ([`omega_graph::snapshot`]). Serialising the closures means a loaded
//! ontology carries its tables from the first instruction: no reader
//! searches a closure after open.
//!
//! Layout (all little-endian `u32` words): a fixed header of counts, then
//! for each hierarchy (classes first, properties second) its sorted member
//! list, per-member parent and child lists, and the closure/ancestor
//! offset+data arrays in the same member order, followed by the sorted
//! domain and range pairs. It is decoded in one pass of an
//! [`omega_graph::bytes::Reader`] over the section's bytes.

use std::collections::HashMap;
use std::hash::Hash;

use omega_graph::bytes::Reader;
use omega_graph::snapshot::{
    u32_payload, SectionId, SectionKind, SnapshotError, SnapshotReader, SnapshotWriter,
};
use omega_graph::{LabelId, NodeId};

use crate::hierarchy::{Closures, Hierarchy};
use crate::ontology::Ontology;

/// Ids that serialise as one `u32` word.
trait Word: Copy + Eq + Hash + Ord + std::fmt::Debug {
    fn to_word(self) -> u32;
    fn from_word(word: u32) -> Self;
}

impl Word for NodeId {
    fn to_word(self) -> u32 {
        self.0
    }
    fn from_word(word: u32) -> Self {
        NodeId(word)
    }
}

impl Word for LabelId {
    fn to_word(self) -> u32 {
        self.0
    }
    fn from_word(word: u32) -> Self {
        LabelId(word)
    }
}

/// Adds the ontology section of `ontology` to `writer`, with the closure
/// tables of both hierarchies (built here if no reader has built them yet).
pub fn write_ontology_section(
    ontology: &Ontology,
    writer: &mut SnapshotWriter,
) -> Result<(), SnapshotError> {
    let mut words: Vec<u32> = Vec::new();
    encode_hierarchy(ontology.class_hierarchy(), &mut words);
    encode_hierarchy(ontology.property_hierarchy(), &mut words);
    encode_pairs(ontology.domains(), &mut words);
    encode_pairs(ontology.ranges(), &mut words);
    writer.add(SectionId::plain(SectionKind::Ontology), u32_payload(words));
    Ok(())
}

/// Decodes the ontology section of an open snapshot. The returned ontology
/// carries its closure tables straight from the image.
pub fn read_ontology_section(reader: &SnapshotReader) -> Result<Ontology, SnapshotError> {
    let section = reader.require(SectionId::plain(SectionKind::Ontology))?;
    let mut r = Reader::new(section.bytes());
    let classes: Hierarchy<NodeId> = decode_hierarchy(&mut r)?;
    let properties: Hierarchy<LabelId> = decode_hierarchy(&mut r)?;
    let domain = decode_pairs(&mut r)?;
    let range = decode_pairs(&mut r)?;
    r.expect_end()?;
    Ok(Ontology::from_snapshot_parts(
        classes, properties, domain, range,
    ))
}

/// Serialises one hierarchy: member list, direct relations, closure tables.
fn encode_hierarchy<T: Word>(hierarchy: &Hierarchy<T>, out: &mut Vec<u32>) {
    let tables = hierarchy.closures();
    let members = hierarchy.sorted_members();
    out.push(members.len() as u32);
    for &m in &members {
        out.push(m.to_word());
    }
    // Direct parent and child lists, in member-sorted order. Both lists are
    // written (children are derivable from parents but their *order* — which
    // tie-breaks BFS closures — is not), so a loaded hierarchy reproduces
    // the original's traversal orders exactly.
    for &m in &members {
        let parents = hierarchy.parents(m);
        out.push(parents.len() as u32);
        out.extend(parents.iter().map(|p| p.to_word()));
    }
    for &m in &members {
        let children = hierarchy.children(m);
        out.push(children.len() as u32);
        out.extend(children.iter().map(|c| c.to_word()));
    }
    // The closure tables, in the same member order as their rows.
    out.extend(tables.closure_offsets.iter().copied());
    out.extend(tables.closure_data.iter().map(|d| d.to_word()));
    out.extend(tables.ancestor_offsets.iter().copied());
    for &(a, dist) in &tables.ancestor_data {
        out.push(a.to_word());
        out.push(dist);
    }
}

fn decode_hierarchy<T: Word>(r: &mut Reader<'_>) -> Result<Hierarchy<T>, SnapshotError> {
    let count = r.take_u32()? as usize;
    let members: Vec<T> = r.take_u32s(count)?.map(T::from_word).collect();
    if members.windows(2).any(|w| w[0] >= w[1]) {
        return Err(SnapshotError::malformed(
            "hierarchy member list is not sorted and unique",
        ));
    }
    let member_set: std::collections::HashSet<T> = members.iter().copied().collect();
    let mut read_lists = |what: &str| -> Result<HashMap<T, Vec<T>>, SnapshotError> {
        let mut map = HashMap::new();
        for &m in &members {
            let len = r.take_u32()? as usize;
            let list: Vec<T> = r.take_u32s(len)?.map(T::from_word).collect();
            if let Some(stranger) = list.iter().find(|x| !member_set.contains(x)) {
                return Err(SnapshotError::malformed(format!(
                    "{what} list of {m:?} references unknown member {stranger:?}"
                )));
            }
            if !list.is_empty() {
                map.insert(m, list);
            }
        }
        Ok(map)
    };
    let parents = read_lists("parent")?;
    let children = read_lists("child")?;

    let closure_offsets: Vec<u32> = r.take_u32s(count + 1)?.collect();
    let closure_len = validate_offsets(&closure_offsets, "closure")?;
    let closure_data: Vec<T> = r.take_u32s(closure_len)?.map(T::from_word).collect();
    let ancestor_offsets: Vec<u32> = r.take_u32s(count + 1)?.collect();
    let ancestor_len = validate_offsets(&ancestor_offsets, "ancestor")?;
    let ancestor_data: Vec<(T, u32)> = r
        .take_u32_pairs(ancestor_len)?
        .map(|(a, dist)| (T::from_word(a), dist))
        .collect();

    let mut rows = omega_graph::FxHashMap::default();
    for (row, &m) in members.iter().enumerate() {
        rows.insert(m, row as u32);
    }
    Ok(Hierarchy::from_snapshot_parts(
        members,
        parents,
        children,
        Closures {
            rows,
            closure_offsets,
            closure_data,
            ancestor_offsets,
            ancestor_data,
        },
    ))
}

fn encode_pairs<A: Word, B: Word>(pairs: impl Iterator<Item = (A, B)>, out: &mut Vec<u32>) {
    let mut sorted: Vec<(A, B)> = pairs.collect();
    sorted.sort();
    out.push(sorted.len() as u32);
    for (a, b) in sorted {
        out.push(a.to_word());
        out.push(b.to_word());
    }
}

fn decode_pairs<A: Word, B: Word>(r: &mut Reader<'_>) -> Result<HashMap<A, B>, SnapshotError> {
    let count = r.take_u32()? as usize;
    Ok(r.take_u32_pairs(count)?
        .map(|(a, b)| (A::from_word(a), B::from_word(b)))
        .collect())
}

/// Checks a `count + 1` offsets array is monotone from 0 and returns its
/// final (total) length.
fn validate_offsets(offsets: &[u32], what: &str) -> Result<usize, SnapshotError> {
    if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::malformed(format!(
            "ontology {what} offsets are not monotone from zero"
        )));
    }
    Ok(*offsets.last().unwrap_or(&0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ontology {
        let mut o = Ontology::new();
        o.add_subclass(NodeId(2), NodeId(1)).unwrap();
        o.add_subclass(NodeId(1), NodeId(0)).unwrap();
        o.add_subclass(NodeId(3), NodeId(0)).unwrap();
        o.add_subproperty(LabelId(5), LabelId(4)).unwrap();
        o.add_subproperty(LabelId(6), LabelId(4)).unwrap();
        o.set_domain(LabelId(5), NodeId(1));
        o.set_range(LabelId(6), NodeId(3));
        o
    }

    fn roundtrip(o: &Ontology, tag: &str) -> Ontology {
        let path = std::env::temp_dir().join(format!(
            "omega-ontology-image-{}-{tag}.snapshot",
            std::process::id()
        ));
        let mut w = SnapshotWriter::new();
        write_ontology_section(o, &mut w).unwrap();
        w.write_to(&path).unwrap();
        let r = SnapshotReader::open(&path).unwrap();
        let loaded = read_ontology_section(&r).unwrap();
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn ontology_roundtrips_with_closures() {
        let o = sample();
        let loaded = roundtrip(&o, "basic");
        assert_eq!(loaded.class_count(), o.class_count());
        assert_eq!(loaded.property_count(), o.property_count());
        // A new member drops the closure tables, so the closures of `rebuilt`
        // are searched again in the loaded image's direct relations.
        let mut rebuilt = loaded.clone();
        rebuilt.add_class(NodeId(99));
        rebuilt.add_property(LabelId(99));
        for c in 0..4u32 {
            let c = NodeId(c);
            for image in [&loaded, &rebuilt] {
                assert_eq!(image.superclasses(c), o.superclasses(c));
                assert_eq!(image.subclasses_or_self(&c), o.subclasses_or_self(&c));
            }
        }
        for p in 4..7u32 {
            let p = LabelId(p);
            for image in [&loaded, &rebuilt] {
                assert_eq!(image.superproperties(p), o.superproperties(p));
                assert_eq!(image.subproperties_or_self(&p), o.subproperties_or_self(&p));
            }
            assert_eq!(loaded.domain(p), o.domain(p));
            assert_eq!(loaded.range(p), o.range(p));
        }
        // Direct relations (and their orders) survive too.
        assert_eq!(
            loaded.direct_subclasses(NodeId(0)),
            o.direct_subclasses(NodeId(0))
        );
        assert_eq!(
            loaded.direct_superproperties(LabelId(5)),
            o.direct_superproperties(LabelId(5))
        );
    }

    #[test]
    fn a_mutation_after_a_read_is_written() {
        let mut o = sample();
        assert_eq!(o.subclasses_or_self(&NodeId(3)), [NodeId(3)]);
        o.add_subclass(NodeId(9), NodeId(3)).unwrap();
        let loaded = roundtrip(&o, "mutated");
        assert!(loaded.is_class(NodeId(9)));
        assert_eq!(
            loaded.subclasses_or_self(&NodeId(3)),
            [NodeId(3), NodeId(9)]
        );
        assert_eq!(
            loaded.superclasses(NodeId(9)),
            [(NodeId(3), 1), (NodeId(0), 2)]
        );
    }

    #[test]
    fn empty_ontology_roundtrips() {
        let loaded = roundtrip(&Ontology::new(), "empty");
        assert_eq!(loaded.class_count(), 0);
        assert_eq!(loaded.property_count(), 0);
    }
}
