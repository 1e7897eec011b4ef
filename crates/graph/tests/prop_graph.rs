//! Property-based tests for the graph store and its bitmap node sets.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use omega_graph::{
    Direction, GraphDelta, GraphStore, LabelEntry, LabelId, LabelStats, NodeBitmap, NodeId,
};
use proptest::prelude::*;

fn triple_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    // Small id space so that collisions (parallel edges, dedup) are exercised.
    prop::collection::vec((0u8..20, 0u8..5, 0u8..20), 0..200)
}

type Triple = (u8, u8, u8);

/// Everything a reader can see of one store, keyed by names (node and label
/// ids differ between an epoch chain and a rebuild): each live neighbour
/// slice in the order the store returns it, the edge set, the per-label
/// counts and the cached statistics.
#[derive(Debug, Clone, PartialEq)]
struct View {
    slices: BTreeMap<(String, String, bool), Vec<String>>,
    edges: BTreeSet<(String, String, String)>,
    label_edges: BTreeMap<String, usize>,
    stats: BTreeMap<String, LabelEntry>,
}

impl View {
    fn of(g: &GraphStore) -> View {
        let mut slices = BTreeMap::new();
        for node in g.node_ids() {
            for (dir, outgoing) in [(Direction::Outgoing, true), (Direction::Incoming, false)] {
                let name = |n| g.node_label(n).to_owned();
                for (label, label_name) in g.labels() {
                    let slice: Vec<_> = g.neighbors_iter(node, label, dir).map(name).collect();
                    if !slice.is_empty() {
                        slices.insert((name(node), label_name.to_owned(), outgoing), slice);
                    }
                }
                let any: Vec<_> = g
                    .neighbors_any_iter(node, dir)
                    .map(|(l, n)| format!("{} {}", g.label_name(l), name(n)))
                    .collect();
                if !any.is_empty() {
                    slices.insert((name(node), "*".to_owned(), outgoing), any);
                }
            }
        }
        let live_labels = || g.labels().filter(|&(l, _)| g.edge_count_for_label(l) > 0);
        View {
            slices,
            edges: g
                .edges()
                .map(|e| {
                    (
                        g.node_label(e.source).to_owned(),
                        g.label_name(e.label).to_owned(),
                        g.node_label(e.target).to_owned(),
                    )
                })
                .collect(),
            label_edges: live_labels()
                .map(|(l, name)| (name.to_owned(), g.edge_count_for_label(l)))
                .collect(),
            stats: live_labels()
                .map(|(l, name)| (name.to_owned(), g.label_stats().entry(l)))
                .collect(),
        }
    }

    /// The view with slice order forgotten (a rebuild inserts in its own).
    fn unordered(mut self) -> View {
        self.slices.values_mut().for_each(|slice| slice.sort());
        self
    }
}

fn rebuilt(triples: &BTreeSet<Triple>) -> GraphStore {
    let mut g = GraphStore::new();
    for (s, p, o) in triples {
        g.add_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
    }
    g.freeze();
    g
}

/// The documented statistics of an epoch whose base index holds `base` and
/// whose live edge set is `live`: exact edge counts; distinct endpoints are
/// the base's plus those of the overlay-added edges (`live − base`),
/// deletions ignored.
fn expected_stats(
    base: &BTreeSet<Triple>,
    live: &BTreeSet<Triple>,
) -> BTreeMap<String, LabelEntry> {
    let added: BTreeSet<Triple> = live.difference(base).copied().collect();
    let distinct = |set: &BTreeSet<Triple>, p: u8, end: fn(&Triple) -> u8| {
        let ends: BTreeSet<u8> = set.iter().filter(|t| t.1 == p).map(end).collect();
        ends.len() as u64
    };
    let labels: BTreeSet<u8> = live.iter().map(|t| t.1).collect();
    labels
        .into_iter()
        .map(|p| {
            let entry = LabelEntry {
                edges: live.iter().filter(|t| t.1 == p).count() as u64,
                distinct_tails: distinct(base, p, |t| t.0) + distinct(&added, p, |t| t.0),
                distinct_heads: distinct(base, p, |t| t.2) + distinct(&added, p, |t| t.2),
            };
            (format!("p{p}"), entry)
        })
        .collect()
}

/// The per-node scan the occupancy bitmaps replaced: nodes whose base run
/// over `label` (all labels when `None`) in `dir` is non-empty, plus those
/// an overlay-added edge leaves. `base` is the overlay-free store whose runs
/// are `g`'s base runs (`g` itself when it has no overlay); the live run is
/// `g`'s, and an overlay add is never a base edge.
fn scanned(
    g: &GraphStore,
    base: &GraphStore,
    label: Option<LabelId>,
    dir: Direction,
) -> BTreeSet<NodeId> {
    g.node_ids()
        .filter(|&n| match label {
            Some(l) => {
                let base: Vec<_> = base.neighbors_iter(n, l, dir).collect();
                !base.is_empty() || g.neighbors_iter(n, l, dir).any(|m| !base.contains(&m))
            }
            None => {
                let base: Vec<_> = base.neighbors_any_iter(n, dir).collect();
                !base.is_empty() || g.neighbors_any_iter(n, dir).any(|e| !base.contains(&e))
            }
        })
        .collect()
}

/// `tails` / `heads` / `nodes_with_any_edge` equal the per-node scan over
/// `g` and its `base` (see [`scanned`]), which covers every live edge.
fn check_endpoint_sets(g: &GraphStore, base: &GraphStore) {
    let set = |bitmap: NodeBitmap| bitmap.iter().collect::<BTreeSet<_>>();
    let mut incident = scanned(g, base, None, Direction::Outgoing);
    incident.extend(scanned(g, base, None, Direction::Incoming));
    prop_assert_eq!(set(g.nodes_with_any_edge()), incident);
    for (label, _) in g.labels() {
        for dir in [Direction::Outgoing, Direction::Incoming] {
            let got = set(match dir {
                Direction::Outgoing => g.tails(label),
                Direction::Incoming => g.heads(label),
            });
            prop_assert_eq!(&got, &scanned(g, base, Some(label), dir));
            for node in g.node_ids() {
                if g.neighbors_iter(node, label, dir).next().is_some() {
                    prop_assert!(got.contains(&node));
                }
            }
        }
    }
}

/// Every live edge `u --l--> v` is an abstract edge of `g`'s summary, in
/// both of its layers: `class(u)` steps over `l` forwards into `class(v)`,
/// and `class(v)` backwards into `class(u)`.
fn check_summary(g: &GraphStore) {
    let s = g.summary();
    prop_assert!(s.classes() <= omega_graph::summary::MAX_CLASSES);
    let bit = |node| 1u64 << s.class_of(node);
    for e in g.edges() {
        let (u, v) = (bit(e.source), bit(e.target));
        prop_assert!(s.sources(e.label, Direction::Outgoing, v) & u != 0, "{e:?}");
        prop_assert!(s.sources(e.label, Direction::Incoming, u) & v != 0, "{e:?}");
        prop_assert!(s.sources(e.label, Direction::Outgoing, s.all()) & u != 0);
    }
}

/// `g` written to a snapshot image and opened again (memory-mapped).
fn reopened(g: &GraphStore, tag: &str) -> GraphStore {
    use omega_graph::snapshot::{read_graph, write_graph_sections, SnapshotReader, SnapshotWriter};
    let path = std::env::temp_dir().join(format!(
        "omega-prop-graph-{}-{tag}.snapshot",
        std::process::id()
    ));
    let mut writer = SnapshotWriter::new();
    write_graph_sections(g, &mut writer).unwrap();
    writer.write_to(&path).unwrap();
    let opened = read_graph(&SnapshotReader::open(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    opened
}

proptest! {
    /// The node summary maps every live edge to an abstract edge on a
    /// frozen store of more signatures than classes (the cap merges the
    /// rarest), on every overlaid epoch (adds, deletes, nodes created after
    /// the freeze, new labels), after compaction and on a snapshot-opened
    /// store.
    #[test]
    fn the_summary_maps_every_live_edge_in_every_stage(
        base in prop::collection::vec((0u8..120, 0u8..8, 0u8..120), 150..300),
        script in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 0u8..130, 0u8..10, 0u8..130), 0..24),
            1..4,
        ),
    ) {
        let mut g = rebuilt(&base.iter().copied().collect());
        check_summary(&g);
        for batch in &script {
            let mut delta = GraphDelta::new();
            for &(add, s, p, o) in batch {
                let (s, p, o) = (format!("n{s}"), format!("p{p}"), format!("n{o}"));
                if add {
                    delta.add(&s, &p, &o);
                } else {
                    delta.remove(&s, &p, &o);
                }
            }
            g = g.with_delta(&delta).unwrap().0;
            check_summary(&g);
        }
        let compact = g.compacted();
        check_summary(&compact);
        check_summary(&reopened(&compact, "summary"));
        let mut thawed = compact.clone();
        thawed.add_triple("n0", "p0", "fresh");
        check_summary(&thawed);
    }

    /// The endpoint sets the occupancy bitmaps serve equal the per-node
    /// scan they replaced on a frozen store, on every overlaid epoch (adds
    /// and deletes, new nodes and labels), after compaction and on a
    /// snapshot-opened store.
    #[test]
    fn endpoint_bitmaps_equal_the_per_node_scan_in_every_stage(
        base in prop::collection::vec((0u8..70, 0u8..3, 0u8..70), 0..80),
        script in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 0u8..75, 0u8..4, 0u8..75), 0..16),
            1..4,
        ),
    ) {
        let frozen = rebuilt(&base.iter().copied().collect());
        check_endpoint_sets(&frozen, &frozen);
        let mut g = frozen.clone();
        for batch in &script {
            let mut delta = GraphDelta::new();
            for &(add, s, p, o) in batch {
                let (s, p, o) = (format!("n{s}"), format!("p{p}"), format!("n{o}"));
                if add {
                    delta.add(&s, &p, &o);
                } else {
                    delta.remove(&s, &p, &o);
                }
            }
            g = g.with_delta(&delta).unwrap().0;
            check_endpoint_sets(&g, &frozen);
        }
        let compact = g.compacted();
        check_endpoint_sets(&compact, &compact);
        let opened = reopened(&compact, "endpoints");
        check_endpoint_sets(&opened, &opened);
    }

    /// A chain of epochs derived by `with_delta` (adds, removes, re-adds,
    /// new nodes, new labels), compacted part-way, reads like a from-scratch
    /// rebuild of the same triples on every epoch; its incremental
    /// `label_stats()` equals the from-scratch `LabelStats::compute` and
    /// the documented semantics; and every epoch still held reads exactly
    /// as it did when it was derived once all the later applies and the
    /// compaction are done — structural sharing leaks nothing.
    #[test]
    fn epoch_chain_equals_rebuild_and_held_epochs_never_move(
        base in prop::collection::vec((0u8..12, 0u8..4, 0u8..12), 0..60),
        script in prop::collection::vec(
            prop::collection::vec((any::<bool>(), 0u8..16, 0u8..6, 0u8..16), 0..24),
            1..8,
        ),
        compact_after in 0usize..8,
    ) {
        let mut live: BTreeSet<Triple> = base.iter().copied().collect();
        let mut in_base = live.clone();
        let mut current = rebuilt(&live);
        let mut held = vec![(current.clone(), View::of(&current))];
        for (i, batch) in script.iter().enumerate() {
            let mut delta = GraphDelta::new();
            let name = |n: &u8| format!("n{n}");
            for (add, s, p, o) in batch {
                if *add {
                    delta.add(&name(s), &format!("p{p}"), &name(o));
                } else {
                    delta.remove(&name(s), &format!("p{p}"), &name(o));
                }
            }
            // All adds apply before all removes.
            let before = live.len();
            live.extend(batch.iter().filter(|op| op.0).map(|&(_, s, p, o)| (s, p, o)));
            let added = live.len() - before;
            let before = live.len();
            for &(_, s, p, o) in batch.iter().filter(|op| !op.0) {
                live.remove(&(s, p, o));
            }
            let (next, report) = current.with_delta(&delta).unwrap();
            prop_assert_eq!((report.added, report.removed), (added as u64, (before - live.len()) as u64));
            current = next;
            if i == compact_after {
                held.push((current.clone(), View::of(&current)));
                current = current.compacted();
                prop_assert!(!current.has_overlay());
                in_base = live.clone();
            }
            let view = View::of(&current);
            prop_assert_eq!(current.edge_count(), live.len());
            prop_assert_eq!(current.label_stats(), &LabelStats::compute(&current));
            prop_assert_eq!(&view.stats, &expected_stats(&in_base, &live));
            let reference = View { stats: view.stats.clone(), ..View::of(&rebuilt(&live)) };
            prop_assert_eq!(view.clone().unordered(), reference.unordered());
            held.push((current.clone(), view));
        }
        let last = current.compacted();
        prop_assert_eq!(View::of(&last).unordered(), View::of(&rebuilt(&live)).unordered());
        for (epoch, view) in &held {
            prop_assert_eq!(&View::of(epoch), view);
            prop_assert_eq!(epoch.label_stats(), &LabelStats::compute(epoch));
        }
    }

    /// The store deduplicates triples: its edge count equals the number of
    /// distinct triples inserted.
    #[test]
    fn edge_count_matches_distinct_triples(triples in triple_strategy()) {
        let mut g = GraphStore::new();
        let mut distinct = BTreeSet::new();
        for (s, p, o) in &triples {
            g.add_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
            distinct.insert((*s, *p, *o));
        }
        prop_assert_eq!(g.edge_count(), distinct.len());
        prop_assert_eq!(g.edges().count(), distinct.len());
    }

    /// Outgoing and incoming adjacency are mirror images of each other.
    #[test]
    fn adjacency_is_symmetric(triples in triple_strategy()) {
        let mut g = GraphStore::new();
        for (s, p, o) in &triples {
            g.add_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
        }
        for edge in g.edges() {
            prop_assert!(g
                .neighbors_iter(edge.source, edge.label, Direction::Outgoing)
                .any(|n| n == edge.target));
            prop_assert!(g
                .neighbors_iter(edge.target, edge.label, Direction::Incoming)
                .any(|n| n == edge.source));
        }
    }

    /// `heads`/`tails` agree with a naive scan over all edges.
    #[test]
    fn heads_and_tails_agree_with_scan(triples in triple_strategy()) {
        let mut g = GraphStore::new();
        for (s, p, o) in &triples {
            g.add_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
        }
        for (label, _) in g.labels() {
            let expected_heads: HashSet<_> = g
                .edges()
                .filter(|e| e.label == label)
                .map(|e| e.target)
                .collect();
            let expected_tails: HashSet<_> = g
                .edges()
                .filter(|e| e.label == label)
                .map(|e| e.source)
                .collect();
            let heads: HashSet<_> = g.heads(label).iter().collect();
            let tails: HashSet<_> = g.tails(label).iter().collect();
            prop_assert_eq!(heads, expected_heads);
            prop_assert_eq!(tails, expected_tails);
        }
    }

    /// Triple-text round trip preserves the edge set.
    #[test]
    fn io_round_trip(triples in triple_strategy()) {
        let mut g = GraphStore::new();
        for (s, p, o) in &triples {
            g.add_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
        }
        let mut buf = Vec::new();
        omega_graph::io::write_triples(&g, &mut buf).unwrap();
        let g2 = omega_graph::io::read_triples(&buf[..]).unwrap();
        let as_strings = |g: &GraphStore| -> BTreeSet<(String, String, String)> {
            g.edges()
                .map(|e| {
                    (
                        g.node_label(e.source).to_owned(),
                        g.label_name(e.label).to_owned(),
                        g.node_label(e.target).to_owned(),
                    )
                })
                .collect()
        };
        prop_assert_eq!(as_strings(&g), as_strings(&g2));
    }

    /// Bitmap set algebra agrees with `HashSet` semantics.
    #[test]
    fn bitmap_matches_hashset(
        a in prop::collection::hash_set(0u32..500, 0..100),
        b in prop::collection::hash_set(0u32..500, 0..100),
    ) {
        let bm_a: NodeBitmap = a.iter().map(|&i| NodeId(i)).collect();
        let bm_b: NodeBitmap = b.iter().map(|&i| NodeId(i)).collect();
        let to_set = |bm: &NodeBitmap| bm.iter().map(|n| n.0).collect::<HashSet<_>>();
        prop_assert_eq!(to_set(&bm_a.union(&bm_b)), a.union(&b).copied().collect::<HashSet<_>>());
        prop_assert_eq!(
            to_set(&bm_a.intersection(&bm_b)),
            a.intersection(&b).copied().collect::<HashSet<_>>()
        );
        prop_assert_eq!(
            to_set(&bm_a.difference(&bm_b)),
            a.difference(&b).copied().collect::<HashSet<_>>()
        );
        prop_assert_eq!(bm_a.len(), a.len());
    }
}
