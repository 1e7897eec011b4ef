//! The L4All case study data (Section 4.1 of the paper).
//!
//! The data model is the one the paper describes: each user has a *timeline*
//! of episodes; an episode is
//!
//! * linked to its Episode category by a `type` edge,
//! * linked to the following episode by `next` and, where the earlier episode
//!   was a prerequisite, by `prereq`,
//! * linked to an occupational event by `job` (work episodes) or to an
//!   educational event by `qualif` (educational episodes); the event is in
//!   turn classified by a `type` edge into the Occupation or Subject
//!   hierarchy and carries a `sector` (Industry Sector) or `level`
//!   (Education Qualification Level) edge.
//!
//! The ontology reproduces Figure 2: five class hierarchies (Episode,
//! Subject, Occupation, Education Qualification Level, Industry Sector) with
//! the published depths and approximate fan-outs, and the single property
//! hierarchy `isEpisodeLink ⊒ {next, prereq}`.
//!
//! Scaling follows the paper: the 21 base timelines are duplicated, and each
//! duplicate reclassifies its episodes/events to *sibling* classes of the
//! original classes, so class-node degrees grow linearly with the number of
//! timelines. `type` edges are materialised up the class hierarchy
//! (transitive closure), as the paper's discussion of class-node degrees
//! implies.

// The generators below build fixed label sets and hand-written tree
// hierarchies: every lookup and hierarchy insert is infallible by
// construction, so a panic would flag a bug in this source file, never
// a runtime input.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use omega_graph::{GraphStore, NodeId};
use omega_ontology::Ontology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Dataset;

/// The four graph sizes of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L4AllScale {
    /// 143 timelines (≈2.7 K nodes).
    L1,
    /// 1,201 timelines (≈15 K nodes).
    L2,
    /// 5,221 timelines (≈69 K nodes).
    L3,
    /// 11,416 timelines (≈240 K nodes).
    L4,
}

impl L4AllScale {
    /// Number of timelines at this scale (as published in Section 4.1).
    pub fn timelines(self) -> usize {
        match self {
            L4AllScale::L1 => 143,
            L4AllScale::L2 => 1_201,
            L4AllScale::L3 => 5_221,
            L4AllScale::L4 => 11_416,
        }
    }

    /// The scale's name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            L4AllScale::L1 => "L1",
            L4AllScale::L2 => "L2",
            L4AllScale::L3 => "L3",
            L4AllScale::L4 => "L4",
        }
    }

    /// All four scales in increasing size order.
    pub fn all() -> [L4AllScale; 4] {
        [
            L4AllScale::L1,
            L4AllScale::L2,
            L4AllScale::L3,
            L4AllScale::L4,
        ]
    }
}

/// Configuration of the L4All generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L4AllConfig {
    /// Number of timelines to generate.
    pub timelines: usize,
    /// RNG seed (the generator is fully deterministic for a given seed).
    pub seed: u64,
    /// Materialise `type` edges to all superclasses (the paper's graphs do).
    pub materialize_type_closure: bool,
}

impl L4AllConfig {
    /// The configuration for one of the published scales.
    pub fn at_scale(scale: L4AllScale) -> L4AllConfig {
        L4AllConfig {
            timelines: scale.timelines(),
            ..L4AllConfig::default()
        }
    }

    /// A small configuration for unit tests and examples.
    pub fn tiny() -> L4AllConfig {
        L4AllConfig {
            timelines: 25,
            ..L4AllConfig::default()
        }
    }
}

impl Default for L4AllConfig {
    fn default() -> Self {
        L4AllConfig {
            timelines: 143,
            seed: 0x1_4a11,
            materialize_type_closure: true,
        }
    }
}

/// Number of base timelines (5 real + 16 realistic, per the paper).
const BASE_TIMELINES: usize = 21;

struct Hierarchies {
    episode_classes: Vec<NodeId>,
    /// leaf classes of the Episode hierarchy split into (work, educational)
    work_episode_leaves: Vec<NodeId>,
    edu_episode_leaves: Vec<NodeId>,
    subject_leaves: Vec<NodeId>,
    occupation_leaves: Vec<NodeId>,
    level_nodes: Vec<NodeId>,
    sector_nodes: Vec<NodeId>,
}

/// Generates the L4All dataset.
pub fn generate_l4all(config: &L4AllConfig) -> Dataset {
    let mut graph = GraphStore::new();
    let mut ontology = Ontology::new();
    let hierarchies = build_ontology(&mut graph, &mut ontology);

    // Pre-intern the edge labels used by timelines.
    for label in [
        "next",
        "prereq",
        "job",
        "qualif",
        "level",
        "sector",
        "isEpisodeLink",
    ] {
        graph.intern_label(label);
    }
    let next_l = graph.label_id("next").unwrap();
    let prereq_l = graph.label_id("prereq").unwrap();
    let link_l = graph.label_id("isEpisodeLink").unwrap();
    ontology.add_subproperty(next_l, link_l).expect("no cycle");
    ontology
        .add_subproperty(prereq_l, link_l)
        .expect("no cycle");
    // Domain/range declarations exist in the original ontology; they are not
    // used by the performance study but we declare them for completeness.
    let episode_root = hierarchies.episode_classes[0];
    ontology.set_domain(next_l, episode_root);
    ontology.set_range(next_l, episode_root);
    ontology.set_domain(prereq_l, episode_root);
    ontology.set_range(prereq_l, episode_root);

    // Base timeline templates.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let templates: Vec<TimelineTemplate> = (0..BASE_TIMELINES)
        .map(|i| TimelineTemplate::generate(i, &mut rng))
        .collect();

    for timeline_idx in 0..config.timelines {
        let template = &templates[timeline_idx % BASE_TIMELINES];
        let variant = timeline_idx / BASE_TIMELINES;
        instantiate_timeline(
            &mut graph,
            &ontology,
            &hierarchies,
            template,
            timeline_idx,
            variant,
            config.materialize_type_closure,
        );
    }

    // Generated datasets are read-only from here on: hand the engine the
    // frozen CSR representation up front.
    graph.freeze();
    Dataset { graph, ontology }
}

/// One episode of a timeline template.
#[derive(Debug, Clone)]
struct EpisodeTemplate {
    is_work: bool,
    /// Index into the leaf-class list of the relevant hierarchy; the variant
    /// offset rotates this among siblings when timelines are duplicated.
    episode_class: usize,
    event_class: usize,
    qualifier_class: usize,
    /// Whether this episode is a prerequisite of the next one.
    prereq_of_next: bool,
}

#[derive(Debug, Clone)]
struct TimelineTemplate {
    index: usize,
    episodes: Vec<EpisodeTemplate>,
}

impl TimelineTemplate {
    fn generate(index: usize, rng: &mut StdRng) -> TimelineTemplate {
        let length = rng.gen_range(4..=12);
        let episodes = (0..length)
            .map(|_| EpisodeTemplate {
                is_work: rng.gen_bool(0.55),
                episode_class: rng.gen_range(0..usize::MAX / 2),
                event_class: rng.gen_range(0..usize::MAX / 2),
                qualifier_class: rng.gen_range(0..usize::MAX / 2),
                prereq_of_next: rng.gen_bool(0.4),
            })
            .collect();
        TimelineTemplate { index, episodes }
    }
}

#[allow(clippy::too_many_arguments)]
fn instantiate_timeline(
    graph: &mut GraphStore,
    ontology: &Ontology,
    h: &Hierarchies,
    template: &TimelineTemplate,
    timeline_idx: usize,
    variant: usize,
    closure: bool,
) {
    let type_l = graph.type_label();
    let next_l = graph.label_id("next").unwrap();
    let prereq_l = graph.label_id("prereq").unwrap();
    let job_l = graph.label_id("job").unwrap();
    let qualif_l = graph.label_id("qualif").unwrap();
    let level_l = graph.label_id("level").unwrap();
    let sector_l = graph.label_id("sector").unwrap();

    let mut previous: Option<(NodeId, bool)> = None;
    for (ep_idx, episode) in template.episodes.iter().enumerate() {
        // Base timelines (variant 0) carry the names the paper's queries use
        // (e.g. "Alumni 4 Episode 1_1"); duplicates get a variant suffix.
        let episode_name = format!(
            "Alumni {} Episode {}_{}",
            template.index,
            ep_idx + 1,
            variant + 1
        );
        let node = graph.add_node(&episode_name);
        let _ = timeline_idx;

        // Episode classification, rotated to a sibling class per variant.
        let episode_leaves = if episode.is_work {
            &h.work_episode_leaves
        } else {
            &h.edu_episode_leaves
        };
        let episode_class =
            episode_leaves[(episode.episode_class + variant) % episode_leaves.len()];
        add_typed(graph, ontology, node, episode_class, type_l, closure);

        // Linked event and its classification.
        let event = graph.add_node(&format!("{episode_name} event"));
        if episode.is_work {
            graph.add_edge(node, job_l, event);
            let class =
                h.occupation_leaves[(episode.event_class + variant) % h.occupation_leaves.len()];
            add_typed(graph, ontology, event, class, type_l, closure);
            let sector = h.sector_nodes[(episode.qualifier_class + variant) % h.sector_nodes.len()];
            graph.add_edge(event, sector_l, sector);
        } else {
            graph.add_edge(node, qualif_l, event);
            let class = h.subject_leaves[(episode.event_class + variant) % h.subject_leaves.len()];
            add_typed(graph, ontology, event, class, type_l, closure);
            let level = h.level_nodes[(episode.qualifier_class + variant) % h.level_nodes.len()];
            graph.add_edge(event, level_l, level);
        }

        // Chain links.
        if let Some((prev, prev_prereq)) = previous {
            graph.add_edge(prev, next_l, node);
            if prev_prereq {
                graph.add_edge(prev, prereq_l, node);
            }
        }
        previous = Some((node, episode.prereq_of_next));
    }
}

fn add_typed(
    graph: &mut GraphStore,
    ontology: &Ontology,
    node: NodeId,
    class: NodeId,
    type_l: omega_graph::LabelId,
    closure: bool,
) {
    graph.add_edge(node, type_l, class);
    if closure {
        for &(ancestor, _) in ontology.superclasses(class) {
            graph.add_edge(node, type_l, ancestor);
        }
    }
}

/// Builds the Figure 2 class hierarchies and returns handles to the classes
/// the timeline generator classifies against.
fn build_ontology(graph: &mut GraphStore, ontology: &mut Ontology) -> Hierarchies {
    let add_class = |graph: &mut GraphStore, ontology: &mut Ontology, name: &str| {
        let node = graph.add_node(name);
        ontology.add_class(node);
        node
    };
    let subclass = |ontology: &mut Ontology, child: NodeId, parent: NodeId| {
        ontology
            .add_subclass(child, parent)
            .expect("hierarchies are trees");
    };

    // --- Episode: depth 2, average fan-out 2.67 -------------------------
    let episode = add_class(graph, ontology, "Episode");
    let work = add_class(graph, ontology, "Work Episode");
    let edu = add_class(graph, ontology, "Educational Episode");
    let personal = add_class(graph, ontology, "Personal Episode");
    for c in [work, edu, personal] {
        subclass(ontology, c, episode);
    }
    let work_leaves: Vec<NodeId> = ["Job Episode", "Voluntary Work Episode"]
        .iter()
        .map(|n| {
            let c = add_class(graph, ontology, n);
            subclass(ontology, c, work);
            c
        })
        .collect();
    let edu_leaves: Vec<NodeId> = ["College Episode", "University Episode", "School Episode"]
        .iter()
        .map(|n| {
            let c = add_class(graph, ontology, n);
            subclass(ontology, c, edu);
            c
        })
        .collect();

    // --- Subject: depth 2, average fan-out 8 -----------------------------
    let subject = add_class(graph, ontology, "Subject");
    let subject_areas = [
        "Mathematical and Computer Sciences",
        "Engineering",
        "Medicine and Dentistry",
        "Creative Arts and Design",
        "Business and Administrative Studies",
        "Languages",
        "Social Studies",
        "Education",
    ];
    let mut subject_leaves = Vec::new();
    for (i, area) in subject_areas.iter().enumerate() {
        let area_node = add_class(graph, ontology, area);
        subclass(ontology, area_node, subject);
        if i == 0 {
            // "Mathematical and Computer Sciences" has eight child subjects,
            // including the "Information Systems" class used by query Q2.
            for name in [
                "Information Systems",
                "Computer Science",
                "Software Engineering",
                "Artificial Intelligence",
                "Mathematics",
                "Statistics",
                "Operational Research",
                "Computing Foundations",
            ] {
                let leaf = add_class(graph, ontology, name);
                subclass(ontology, leaf, area_node);
                subject_leaves.push(leaf);
            }
        } else {
            subject_leaves.push(area_node);
        }
    }

    // --- Occupation: depth 4, average fan-out ≈ 4 -------------------------
    let occupation = add_class(graph, ontology, "Occupation");
    let major_groups = [
        "Professional Occupations",
        "Associate Professional Occupations",
        "Administrative Occupations",
        "Skilled Trades Occupations",
    ];
    let mut occupation_leaves = Vec::new();
    for (gi, group) in major_groups.iter().enumerate() {
        let group_node = add_class(graph, ontology, group);
        subclass(ontology, group_node, occupation);
        for si in 0..4 {
            let sub_name = format!("{group} Subgroup {si}");
            let sub_node = add_class(graph, ontology, &sub_name);
            subclass(ontology, sub_node, group_node);
            if gi == 0 && si == 0 {
                // Deepest branch: contains the occupations used by the query
                // set (Software Professionals, Librarians).
                for name in [
                    "Software Professionals",
                    "Librarians",
                    "Engineers",
                    "Scientists",
                ] {
                    let leaf = add_class(graph, ontology, name);
                    subclass(ontology, leaf, sub_node);
                    if name == "Software Professionals" {
                        for deep in ["Web Developers", "Systems Programmers"] {
                            let deep_node = add_class(graph, ontology, deep);
                            subclass(ontology, deep_node, leaf);
                            occupation_leaves.push(deep_node);
                        }
                    } else {
                        occupation_leaves.push(leaf);
                    }
                }
            } else {
                occupation_leaves.push(sub_node);
            }
        }
    }

    // --- Education Qualification Level: depth 2, fan-out ≈ 3.89 ----------
    let level_root = add_class(graph, ontology, "Education Qualification Level");
    let mut level_nodes = Vec::new();
    let level_groups = [
        "Entry Level",
        "Further Education Level",
        "Higher Education Level",
        "Postgraduate Level",
    ];
    for (gi, group) in level_groups.iter().enumerate() {
        let group_node = add_class(graph, ontology, group);
        subclass(ontology, group_node, level_root);
        let children: &[&str] = match gi {
            0 => &["Entry Certificate", "Basic Skills Award"],
            1 => &[
                "BTEC Introductory Diploma",
                "BTEC First Diploma",
                "GCSE",
                "A Level",
            ],
            2 => &[
                "Higher National Certificate",
                "Foundation Degree",
                "Bachelors Degree",
            ],
            _ => &["Masters Degree", "Doctorate"],
        };
        for name in children {
            let leaf = add_class(graph, ontology, name);
            subclass(ontology, leaf, group_node);
            level_nodes.push(leaf);
        }
    }

    // --- Industry Sector: depth 1, fan-out 21 ------------------------------
    let sector_root = add_class(graph, ontology, "Industry Sector");
    let mut sector_nodes = Vec::new();
    for i in 0..21 {
        let leaf = add_class(graph, ontology, &format!("Industry Sector {i:02}"));
        subclass(ontology, leaf, sector_root);
        sector_nodes.push(leaf);
    }

    Hierarchies {
        episode_classes: vec![episode, work, edu, personal],
        work_episode_leaves: work_leaves,
        edu_episode_leaves: edu_leaves,
        subject_leaves,
        occupation_leaves,
        level_nodes,
        sector_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_ontology::HierarchyStats;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_l4all(&L4AllConfig::tiny());
        let b = generate_l4all(&L4AllConfig::tiny());
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
    }

    #[test]
    fn hierarchies_match_figure_2_shape() {
        let data = generate_l4all(&L4AllConfig::tiny());
        let stats = HierarchyStats::compute_all(&data.ontology, &data.graph);
        let get = |name: &str| stats.iter().find(|s| s.root_label == name).unwrap();
        assert_eq!(get("Episode").depth, 2);
        assert_eq!(get("Subject").depth, 2);
        assert_eq!(get("Occupation").depth, 4);
        assert_eq!(get("Education Qualification Level").depth, 2);
        assert_eq!(get("Industry Sector").depth, 1);
        assert!((get("Industry Sector").average_fanout - 21.0).abs() < 1e-9);
        assert!((get("Episode").average_fanout - 2.66).abs() < 0.5);
        assert!((get("Subject").average_fanout - 8.0).abs() < 0.5);
        assert!((get("Occupation").average_fanout - 4.08).abs() < 1.0);
        assert!((get("Education Qualification Level").average_fanout - 3.89).abs() < 1.0);
    }

    #[test]
    fn query_constants_exist() {
        let data = generate_l4all(&L4AllConfig::tiny());
        for constant in [
            "Work Episode",
            "Information Systems",
            "Software Professionals",
            "Mathematical and Computer Sciences",
            "Alumni 4 Episode 1_1",
            "Librarians",
            "BTEC Introductory Diploma",
        ] {
            assert!(
                data.graph.node_by_label(constant).is_some(),
                "missing constant {constant}"
            );
        }
    }

    #[test]
    fn timelines_are_chained_and_classified() {
        let data = generate_l4all(&L4AllConfig::tiny());
        let g = &data.graph;
        let next = g.label_id("next").unwrap();
        let prereq = g.label_id("prereq").unwrap();
        assert!(g.edge_count_for_label(next) > 0);
        assert!(g.edge_count_for_label(prereq) > 0);
        assert!(g.edge_count_for_label(prereq) < g.edge_count_for_label(next));
        assert!(g.edge_count_for_label(g.type_label()) > 0);
        assert!(g.edge_count_for_label(g.label_id("job").unwrap()) > 0);
        assert!(g.edge_count_for_label(g.label_id("qualif").unwrap()) > 0);
    }

    #[test]
    fn class_degree_grows_with_timeline_count() {
        let small = generate_l4all(&L4AllConfig {
            timelines: 21,
            ..L4AllConfig::default()
        });
        let large = generate_l4all(&L4AllConfig {
            timelines: 84,
            ..L4AllConfig::default()
        });
        let degree = |d: &Dataset, label: &str| {
            let node = d.graph.node_by_label(label).unwrap();
            d.graph.degree(node)
        };
        assert!(degree(&large, "Work Episode") > degree(&small, "Work Episode"));
        // linear-ish growth: quadrupling the timelines roughly quadruples the
        // class degree
        let ratio = degree(&large, "Work Episode") as f64 / degree(&small, "Work Episode") as f64;
        assert!(ratio > 2.5 && ratio < 6.0, "ratio {ratio}");
    }

    #[test]
    fn scale_presets_have_increasing_sizes() {
        // only generate the two smallest scales in tests; L3/L4 are large.
        let l1 = generate_l4all(&L4AllConfig::at_scale(L4AllScale::L1));
        assert!(
            l1.graph.node_count() > 1_500 && l1.graph.node_count() < 6_000,
            "L1 node count {} should be within a factor of ~2 of the published 2,691",
            l1.graph.node_count()
        );
        assert!(
            l1.graph.edge_count() > 8_000 && l1.graph.edge_count() < 40_000,
            "L1 edge count {} should be within a factor of ~2 of the published 19,856",
            l1.graph.edge_count()
        );
        assert_eq!(L4AllScale::L2.timelines(), 1_201);
        assert_eq!(L4AllScale::all().len(), 4);
    }

    #[test]
    fn duplicated_timelines_use_sibling_classes() {
        let data = generate_l4all(&L4AllConfig {
            timelines: 42, // two variants of each base timeline
            ..L4AllConfig::default()
        });
        let g = &data.graph;
        // the two variants of base timeline 4's first episode exist
        let original = g.node_by_label("Alumni 4 Episode 1_1").unwrap();
        let duplicate = g.node_by_label("Alumni 4 Episode 1_2").unwrap();
        let type_l = g.type_label();
        let orig_classes: Vec<_> = g
            .neighbors_iter(original, type_l, omega_graph::Direction::Outgoing)
            .collect();
        let dup_classes: Vec<_> = g
            .neighbors_iter(duplicate, type_l, omega_graph::Direction::Outgoing)
            .collect();
        assert_ne!(
            orig_classes[0], dup_classes[0],
            "the duplicate is reclassified to a sibling"
        );
    }
}
