//! The ontology's closure readers against a naive fixpoint over random
//! DAGs: least distances by repeated relaxation of the direct relation, with
//! no breadth-first search and no closure table.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use omega_graph::snapshot::{SnapshotReader, SnapshotWriter};
use omega_graph::{LabelId, NodeId};
use omega_ontology::snapshot::{read_ontology_section, write_ontology_section};
use omega_ontology::Ontology;
use proptest::prelude::*;

/// Ids `0..MEMBERS` may be members; `MEMBERS..PROBE` never are.
const MEMBERS: u32 = 14;
const PROBE: u32 = 18;

/// An edge `(a, b)` with `a != b` is `max(a, b) ⊑ min(a, b)`, so every edge
/// list is acyclic.
fn edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..MEMBERS, 0..MEMBERS), 0..32)
}

fn oriented(edges: &[(u32, u32)]) -> impl Iterator<Item = (u32, u32)> + '_ {
    edges
        .iter()
        .filter(|(a, b)| a != b)
        .map(|&(a, b)| (a.max(b), a.min(b)))
}

/// `up[(x, y)]`: the least number of direct steps from `x` up to a proper
/// ancestor `y`, by relaxing `up[x, z] + up[z, y]` until nothing changes.
fn reference(edges: &[(u32, u32)]) -> BTreeMap<(u32, u32), u32> {
    let mut up: BTreeMap<(u32, u32), u32> = oriented(edges).map(|e| (e, 1)).collect();
    loop {
        let mut changed = false;
        let pairs: Vec<_> = up.iter().map(|(&k, &d)| (k, d)).collect();
        for &((x, z), d1) in &pairs {
            for &((z2, y), d2) in &pairs {
                if z2 == z {
                    let d = up.entry((x, y)).or_insert(u32::MAX);
                    if d1 + d2 < *d {
                        *d = d1 + d2;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return up;
        }
    }
}

/// One hierarchy's readers, in plain ids.
struct Readers<'a> {
    ancestors: Box<dyn Fn(u32) -> Vec<(u32, u32)> + 'a>,
    descendants_or_self: Box<dyn Fn(u32) -> Vec<u32> + 'a>,
    is_ancestor: Box<dyn Fn(u32, u32) -> bool + 'a>,
}

fn classes(o: &Ontology) -> Readers<'_> {
    Readers {
        ancestors: Box::new(|c| {
            let row = o.superclasses(NodeId(c));
            row.iter().map(|&(a, d)| (a.0, d)).collect()
        }),
        descendants_or_self: Box::new(|c| {
            let class = NodeId(c);
            o.subclasses_or_self(&class).iter().map(|d| d.0).collect()
        }),
        is_ancestor: Box::new(|a, c| o.is_superclass_of(NodeId(a), NodeId(c))),
    }
}

fn properties(o: &Ontology) -> Readers<'_> {
    let properties = o.property_hierarchy();
    Readers {
        ancestors: Box::new(|p| {
            let row = o.superproperties(LabelId(p));
            row.iter().map(|&(a, d)| (a.0, d)).collect()
        }),
        descendants_or_self: Box::new(|p| {
            let property = LabelId(p);
            let row = o.subproperties_or_self(&property);
            row.iter().map(|d| d.0).collect()
        }),
        is_ancestor: Box::new(move |a, p| properties.is_ancestor(LabelId(a), LabelId(p))),
    }
}

/// Every reader of one hierarchy against the reference, for every member
/// and for ids that are not members.
fn check(readers: &Readers<'_>, members: &BTreeSet<u32>, edges: &[(u32, u32)]) {
    let up = reference(edges);
    for x in 0..PROBE {
        let ancestors = (readers.ancestors)(x);
        let descendants = (readers.descendants_or_self)(x);
        if !members.contains(&x) {
            assert!(
                ancestors.is_empty(),
                "unknown {x} has ancestors {ancestors:?}"
            );
            assert_eq!(descendants, [x], "an unknown member's closure is itself");
            assert!((0..PROBE).all(|y| !(readers.is_ancestor)(y, x)));
            continue;
        }
        // Sets and least distances.
        let expected: BTreeMap<u32, u32> = up
            .iter()
            .filter(|((from, _), _)| *from == x)
            .map(|(&(_, y), &d)| (y, d))
            .collect();
        let got: BTreeMap<u32, u32> = ancestors.iter().copied().collect();
        assert_eq!(got.len(), ancestors.len(), "{x}: repeated ancestor");
        assert_eq!(got, expected, "{x}: ancestors");
        // Nearest first.
        assert!(
            ancestors.windows(2).all(|w| w[0].1 <= w[1].1),
            "{x}: ancestors not nearest first: {ancestors:?}"
        );
        for y in 0..PROBE {
            assert_eq!((readers.is_ancestor)(y, x), expected.contains_key(&y));
        }
        // The member first, then every descendant once, nearest first.
        assert_eq!(descendants.first(), Some(&x));
        let below: Vec<u32> = descendants[1..].to_vec();
        let expected: BTreeSet<u32> = up
            .keys()
            .filter(|(_, to)| *to == x)
            .map(|&(from, _)| from)
            .collect();
        assert_eq!(below.iter().copied().collect::<BTreeSet<_>>(), expected);
        assert_eq!(below.len(), expected.len(), "{x}: repeated descendant");
        assert!(
            below.windows(2).all(|w| up[&(w[0], x)] <= up[&(w[1], x)]),
            "{x}: descendants not breadth-first: {descendants:?}"
        );
    }
}

fn build(o: &mut Ontology, sc: &[(u32, u32)], sp: &[(u32, u32)]) {
    for (child, parent) in oriented(sc) {
        o.add_subclass(NodeId(child), NodeId(parent)).unwrap();
    }
    for (child, parent) in oriented(sp) {
        o.add_subproperty(LabelId(child), LabelId(parent)).unwrap();
    }
}

fn members(lone: &[u32], edges: &[(u32, u32)]) -> BTreeSet<u32> {
    let ends = oriented(edges).flat_map(|(a, b)| [a, b]);
    lone.iter().copied().chain(ends).collect()
}

/// Every row of both hierarchies, in reader order.
type Rows = Vec<(Vec<(u32, u32)>, Vec<u32>)>;

fn rows(o: &Ontology) -> (Rows, Rows) {
    let all = |r: Readers<'_>| {
        (0..PROBE)
            .map(|x| ((r.ancestors)(x), (r.descendants_or_self)(x)))
            .collect()
    };
    (all(classes(o)), all(properties(o)))
}

fn roundtrip(o: &Ontology) -> Ontology {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "omega-ontology-prop-{}-{}.snapshot",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let mut writer = SnapshotWriter::new();
    write_ontology_section(o, &mut writer).unwrap();
    writer.write_to(&path).unwrap();
    let loaded = read_ontology_section(&SnapshotReader::open(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    loaded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Each reader equals the fixpoint; a read, then a mutation, then a read
    /// sees the mutation; and every row survives a snapshot round trip.
    fn closures_equal_a_naive_fixpoint(
        sc in edges(),
        sp in edges(),
        lone in prop::collection::vec(0..MEMBERS, 0..4),
        split in 0usize..33,
    ) {
        let (sc_first, sc_rest) = sc.split_at(split.min(sc.len()));
        let (sp_first, sp_rest) = sp.split_at(split.min(sp.len()));
        let mut o = Ontology::new();
        build(&mut o, sc_first, sp_first);
        check(&classes(&o), &members(&[], sc_first), sc_first);
        check(&properties(&o), &members(&[], sp_first), sp_first);

        build(&mut o, sc_rest, sp_rest);
        for &m in &lone {
            o.add_class(NodeId(m));
            o.add_property(LabelId(m));
        }
        check(&classes(&o), &members(&lone, &sc), &sc);
        check(&properties(&o), &members(&lone, &sp), &sp);

        let loaded = roundtrip(&o);
        prop_assert_eq!(rows(&loaded), rows(&o));
    }
}
