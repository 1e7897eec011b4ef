//! A YAGO-like knowledge graph (Section 4.2 of the paper).
//!
//! The paper imports the SIMPLETAX + CORE portions of YAGO (3.1 M nodes,
//! 17 M edges, 38 properties, one very wide and shallow class taxonomy, two
//! property hierarchies with 6 and 2 sub-properties). That extract is not
//! redistributable here, so this module generates a *schema-compatible*
//! synthetic graph instead:
//!
//! * the class taxonomy has depth 2 and a very large fan-out, with the
//!   `wordnet_*` classes the queries mention,
//! * 38 properties, including the two hierarchies
//!   `relationLocatedByObject ⊒ {gradFrom, happenedIn, participatedIn,
//!   isLocatedIn, livesIn, wasBornIn}` and `actsUpon ⊒ {actedIn, directed}`,
//!   with domains and ranges,
//! * entity populations (people, universities, cities, countries, events,
//!   prizes, films, clubs, airports, commodities) connected so that the nine
//!   queries of Figure 9 reproduce the qualitative behaviour of Figure 10:
//!   Q2/Q3/Q9 return nothing or almost nothing exactly but are rescued by
//!   APPROX/RELAX; Q4/Q5 generate huge APPROX intermediate-result sets (the
//!   paper's out-of-memory cases); Q7/Q8 return well over 100 exact answers.
//!
//! The default scale is laptop-sized; `YagoConfig::scale` grows every entity
//! population linearly for larger experiments.

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

/// Configuration of the YAGO-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct YagoConfig {
    /// Linear scale factor applied to every entity population.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Number of filler classes in the (wide, shallow) taxonomy.
    pub filler_classes: usize,
}

impl Default for YagoConfig {
    fn default() -> Self {
        YagoConfig {
            scale: 1.0,
            seed: 0x9a60,
            filler_classes: 200,
        }
    }
}

impl YagoConfig {
    /// A very small configuration for unit tests.
    pub fn tiny() -> YagoConfig {
        YagoConfig {
            scale: 0.05,
            filler_classes: 20,
            ..YagoConfig::default()
        }
    }

    /// A configuration scaled by `factor` relative to the default.
    pub fn scaled(factor: f64) -> YagoConfig {
        YagoConfig {
            scale: factor,
            ..YagoConfig::default()
        }
    }

    fn count(&self, base: usize) -> usize {
        ((base as f64) * self.scale).round().max(2.0) as usize
    }
}

/// The 38 properties of the YAGO extract (including `type`).
pub const YAGO_PROPERTIES: [&str; 37] = [
    "bornIn",
    "wasBornIn",
    "diedIn",
    "marriedTo",
    "married",
    "hasChild",
    "gradFrom",
    "hasWonPrize",
    "locatedIn",
    "isLocatedIn",
    "livesIn",
    "hasCurrency",
    "directed",
    "actedIn",
    "playsFor",
    "isConnectedTo",
    "imports",
    "exports",
    "happenedIn",
    "participatedIn",
    "hasCapital",
    "dealsWith",
    "owns",
    "created",
    "wrote",
    "produced",
    "influences",
    "isCitizenOf",
    "worksAt",
    "isLeaderOf",
    "hasOfficialLanguage",
    "hasAcademicAdvisor",
    "interestedIn",
    "knownFor",
    "hasArea",
    "relationLocatedByObject",
    "actsUpon",
];

/// Generates the YAGO-like dataset.
pub fn generate_yago(config: &YagoConfig) -> Dataset {
    let mut graph = GraphStore::new();
    let mut ontology = Ontology::new();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // ------------------------------------------------------------------
    // Properties and the two property hierarchies.
    // ------------------------------------------------------------------
    for name in YAGO_PROPERTIES {
        let label = graph.intern_label(name);
        ontology.add_property(label);
    }
    let label = |graph: &GraphStore, name: &str| graph.label_id(name).unwrap();
    let located_by = label(&graph, "relationLocatedByObject");
    for sub in [
        "gradFrom",
        "happenedIn",
        "participatedIn",
        "isLocatedIn",
        "livesIn",
        "wasBornIn",
    ] {
        ontology
            .add_subproperty(label(&graph, sub), located_by)
            .expect("property hierarchy is a tree");
    }
    let acts_upon = label(&graph, "actsUpon");
    for sub in ["actedIn", "directed"] {
        ontology
            .add_subproperty(label(&graph, sub), acts_upon)
            .expect("property hierarchy is a tree");
    }

    // ------------------------------------------------------------------
    // Class taxonomy: depth 2, very wide.
    // ------------------------------------------------------------------
    let root = graph.add_node("wordnet_entity");
    ontology.add_class(root);
    let class = |graph: &mut GraphStore, ontology: &mut Ontology, name: &str, parent: NodeId| {
        let node = graph.add_node(name);
        ontology.add_class(node);
        ontology
            .add_subclass(node, parent)
            .expect("taxonomy is a tree");
        node
    };
    let person_c = class(&mut graph, &mut ontology, "wordnet_person", root);
    let musician_c = class(&mut graph, &mut ontology, "wordnet_musician", person_c);
    let scientist_c = class(&mut graph, &mut ontology, "wordnet_scientist", person_c);
    let city_c = class(&mut graph, &mut ontology, "wordnet_city", root);
    let country_c = class(&mut graph, &mut ontology, "wordnet_country", root);
    let university_c = class(&mut graph, &mut ontology, "wordnet_university", root);
    let ziggurat_c = class(&mut graph, &mut ontology, "wordnet_ziggurat", root);
    let event_c = class(&mut graph, &mut ontology, "wordnet_event", root);
    let prize_c = class(&mut graph, &mut ontology, "wordnet_prize", root);
    let film_c = class(&mut graph, &mut ontology, "wordnet_film", root);
    let club_c = class(&mut graph, &mut ontology, "wordnet_football_club", root);
    let airport_c = class(&mut graph, &mut ontology, "wordnet_airport", root);
    let commodity_c = class(&mut graph, &mut ontology, "wordnet_commodity", root);
    for i in 0..config.filler_classes {
        class(
            &mut graph,
            &mut ontology,
            &format!("wordnet_filler_{i:04}"),
            root,
        );
    }

    // Domains and ranges (present in YAGO; only rule (ii) of RELAX uses them).
    ontology.set_domain(label(&graph, "gradFrom"), person_c);
    ontology.set_range(label(&graph, "gradFrom"), university_c);
    ontology.set_domain(label(&graph, "wasBornIn"), person_c);
    ontology.set_range(label(&graph, "wasBornIn"), city_c);
    ontology.set_domain(label(&graph, "livesIn"), person_c);
    ontology.set_range(label(&graph, "livesIn"), country_c);
    ontology.set_domain(label(&graph, "happenedIn"), event_c);
    ontology.set_range(label(&graph, "happenedIn"), city_c);
    ontology.set_domain(label(&graph, "actedIn"), person_c);
    ontology.set_range(label(&graph, "actedIn"), film_c);
    ontology.set_domain(label(&graph, "hasCurrency"), country_c);
    ontology.set_domain(label(&graph, "isLocatedIn"), university_c);
    ontology.set_range(label(&graph, "isLocatedIn"), country_c);

    // ------------------------------------------------------------------
    // Entity populations.
    // ------------------------------------------------------------------
    let type_l = graph.type_label();
    let n_countries = config.count(40);
    let n_cities = config.count(800);
    let n_universities = config.count(400);
    let n_people = config.count(8_000);
    let n_events = config.count(1_200);
    let n_prizes = config.count(60);
    let n_films = config.count(800);
    let n_clubs = config.count(120);
    let n_airports = config.count(300);
    let n_commodities = config.count(50);
    let n_ziggurats = config.count(40);

    let typed = |graph: &mut GraphStore, name: &str, class: NodeId| -> NodeId {
        let node = graph.add_node(name);
        graph.add_edge(node, type_l, class);
        node
    };

    // Countries. "UK" is the constant used by query Q9.
    let mut countries = Vec::with_capacity(n_countries);
    for i in 0..n_countries {
        let name = if i == 0 {
            "UK".to_owned()
        } else {
            format!("Country_{i:03}")
        };
        countries.push(typed(&mut graph, &name, country_c));
    }
    let currencies: Vec<NodeId> = (0..n_countries.min(30))
        .map(|i| graph.add_node(&format!("Currency_{i:02}")))
        .collect();
    let has_currency = label(&graph, "hasCurrency");
    let has_capital = label(&graph, "hasCapital");
    let deals_with = label(&graph, "dealsWith");
    for (i, &country) in countries.iter().enumerate() {
        graph.add_edge(country, has_currency, currencies[i % currencies.len()]);
        let partner = countries[(i + 1) % countries.len()];
        graph.add_edge(country, deals_with, partner);
    }

    // Cities; "Halle_Saxony-Anhalt" is the constant used by query Q1.
    let mut cities = Vec::with_capacity(n_cities);
    let located_in = label(&graph, "locatedIn");
    let is_located_in = label(&graph, "isLocatedIn");
    for i in 0..n_cities {
        let name = if i == 0 {
            "Halle_Saxony-Anhalt".to_owned()
        } else {
            format!("City_{i:05}")
        };
        let city = typed(&mut graph, &name, city_c);
        let country = countries[rng.gen_range(0..countries.len())];
        graph.add_edge(city, located_in, country);
        graph.add_edge(country, has_capital, cities.last().copied().unwrap_or(city));
        cities.push(city);
    }

    // Ziggurats: located in countries; nothing is located in a ziggurat, so
    // the exact version of Q3 returns nothing.
    for i in 0..n_ziggurats {
        let z = typed(&mut graph, &format!("Ziggurat_{i:03}"), ziggurat_c);
        graph.add_edge(z, located_in, countries[rng.gen_range(0..countries.len())]);
    }

    // Universities: located (isLocatedIn) in countries.
    let mut universities = Vec::with_capacity(n_universities);
    for i in 0..n_universities {
        let u = typed(&mut graph, &format!("University_{i:04}"), university_c);
        let country = countries[rng.gen_range(0..countries.len())];
        graph.add_edge(u, is_located_in, country);
        universities.push(u);
    }

    // Prizes, films, clubs, commodities, airports, events.
    let prizes: Vec<NodeId> = (0..n_prizes)
        .map(|i| typed(&mut graph, &format!("Prize_{i:03}"), prize_c))
        .collect();
    let films: Vec<NodeId> = (0..n_films)
        .map(|i| typed(&mut graph, &format!("Film_{i:04}"), film_c))
        .collect();
    let clubs: Vec<NodeId> = (0..n_clubs)
        .map(|i| typed(&mut graph, &format!("Club_{i:03}"), club_c))
        .collect();
    let commodities: Vec<NodeId> = (0..n_commodities)
        .map(|i| typed(&mut graph, &format!("Commodity_{i:02}"), commodity_c))
        .collect();
    let airports: Vec<NodeId> = (0..n_airports)
        .map(|i| typed(&mut graph, &format!("Airport_{i:03}"), airport_c))
        .collect();
    let events: Vec<NodeId> = (0..n_events)
        .map(|i| typed(&mut graph, &format!("Event_{i:04}"), event_c))
        .collect();

    // Airports are connected to each other (query Q5's isConnectedTo); the
    // exact version finds nothing because airports are never born anywhere.
    let is_connected_to = label(&graph, "isConnectedTo");
    for (i, &airport) in airports.iter().enumerate() {
        for hop in 1..=3 {
            graph.add_edge(
                airport,
                is_connected_to,
                airports[(i + hop) % airports.len()],
            );
        }
        // airports sit in cities via isLocatedIn (relevant for RELAX Q5)
        graph.add_edge(
            airport,
            is_located_in,
            cities[rng.gen_range(0..cities.len())],
        );
    }

    // Countries import/export commodities (query Q6).
    let imports = label(&graph, "imports");
    let exports = label(&graph, "exports");
    for (i, &country) in countries.iter().enumerate() {
        for k in 0..3 {
            graph.add_edge(country, imports, commodities[(i + k) % commodities.len()]);
            graph.add_edge(
                country,
                exports,
                commodities[(i + k + 5) % commodities.len()],
            );
        }
    }

    // Events happen in cities; people participate in events (query Q7).
    let happened_in = label(&graph, "happenedIn");
    for (i, &event) in events.iter().enumerate() {
        graph.add_edge(event, happened_in, cities[i % cities.len()]);
    }

    // People: the bulk of the graph.
    let was_born_in = label(&graph, "wasBornIn");
    let born_in = label(&graph, "bornIn");
    let married_to = label(&graph, "marriedTo");
    let married = label(&graph, "married");
    let has_child = label(&graph, "hasChild");
    let grad_from = label(&graph, "gradFrom");
    let has_won_prize = label(&graph, "hasWonPrize");
    let lives_in = label(&graph, "livesIn");
    let directed = label(&graph, "directed");
    let acted_in = label(&graph, "actedIn");
    let plays_for = label(&graph, "playsFor");
    let participated_in = label(&graph, "participatedIn");
    let is_citizen_of = label(&graph, "isCitizenOf");
    let works_at = label(&graph, "worksAt");

    let mut people = Vec::with_capacity(n_people);
    for i in 0..n_people {
        let name = match i {
            0 => "Li_Peng".to_owned(),
            1 => "Annie Haslam".to_owned(),
            _ => format!("Person_{i:06}"),
        };
        let class = match i % 10 {
            0..=6 => person_c,
            7 | 8 => musician_c,
            _ => scientist_c,
        };
        let person = typed(&mut graph, &name, class);
        people.push(person);
    }
    // Annie Haslam is (also) a musician so Q8's `type.type-` fans out over
    // the musician class.
    graph.add_edge(people[1], type_l, musician_c);

    for (i, &person) in people.iter().enumerate() {
        let city = cities[rng.gen_range(0..cities.len())];
        graph.add_edge(person, was_born_in, city);
        if i % 3 == 0 {
            graph.add_edge(person, born_in, city);
        }
        graph.add_edge(
            person,
            lives_in,
            countries[rng.gen_range(0..countries.len())],
        );
        graph.add_edge(
            person,
            is_citizen_of,
            countries[rng.gen_range(0..countries.len())],
        );
        // marriage: pair up neighbours; `married` is the sparser variant.
        if i % 2 == 0 && i + 1 < people.len() {
            graph.add_edge(person, married_to, people[i + 1]);
            graph.add_edge(people[i + 1], married_to, person);
            if i % 10 == 0 {
                graph.add_edge(person, married, people[i + 1]);
            }
        }
        // children: roughly half the population has one or two.
        if i % 2 == 0 {
            for k in 1..=(1 + (i % 2)) {
                let child = people[(i + 20 + k) % people.len()];
                graph.add_edge(person, has_child, child);
            }
        }
        // education: most people graduated from some university.
        if i % 4 != 3 {
            graph.add_edge(
                person,
                grad_from,
                universities[rng.gen_range(0..universities.len())],
            );
        }
        // prizes: sparse.
        if i % 37 == 0 {
            graph.add_edge(
                person,
                has_won_prize,
                prizes[rng.gen_range(0..prizes.len())],
            );
        }
        // films: a slice of the population acts, a few direct.
        if i % 9 == 0 {
            graph.add_edge(person, acted_in, films[rng.gen_range(0..films.len())]);
        }
        if i % 61 == 0 {
            graph.add_edge(person, directed, films[rng.gen_range(0..films.len())]);
        }
        // sport: a slice plays for clubs.
        if i % 23 == 0 {
            graph.add_edge(person, plays_for, clubs[rng.gen_range(0..clubs.len())]);
        }
        // events: plenty of participation so Q7 has > 100 exact answers.
        if i % 2 == 0 {
            graph.add_edge(
                person,
                participated_in,
                events[rng.gen_range(0..events.len())],
            );
        }
        if i % 13 == 0 {
            graph.add_edge(
                person,
                works_at,
                universities[rng.gen_range(0..universities.len())],
            );
        }
    }

    // Query Q2's seed pattern: Li_Peng has children who graduated from
    // universities that other (prize-winning) people also graduated from.
    let li_peng = people[0];
    let child_a = people[40];
    let child_b = people[41];
    graph.add_edge(li_peng, has_child, child_a);
    graph.add_edge(li_peng, has_child, child_b);
    graph.add_edge(child_a, grad_from, universities[0]);
    graph.add_edge(child_b, grad_from, universities[1]);
    let laureate_a = people[100];
    let laureate_b = people[101];
    graph.add_edge(laureate_a, grad_from, universities[0]);
    graph.add_edge(laureate_b, grad_from, universities[1]);
    graph.add_edge(laureate_a, has_won_prize, prizes[0]);
    graph.add_edge(laureate_b, has_won_prize, prizes[1 % prizes.len()]);

    // Query Q1's seed pattern: people born in Halle, married, with children.
    let halle = cities[0];
    let born_a = people[200];
    let born_b = people[201];
    graph.add_edge(born_a, born_in, halle);
    graph.add_edge(born_b, born_in, halle);
    graph.add_edge(born_a, married_to, people[202]);
    graph.add_edge(people[202], has_child, people[203]);
    graph.add_edge(born_b, married_to, people[204]);
    graph.add_edge(people[204], has_child, people[205]);

    // Query Q9: make sure the UK hosts universities with graduates, so the
    // APPROX/RELAX versions have at least 100 answers to find.
    let uk = countries[0];
    for (i, &u) in universities.iter().enumerate().take(universities.len() / 4) {
        graph.add_edge(u, is_located_in, uk);
        graph.add_edge(u, located_in, uk);
        let _ = i;
    }

    // Generated datasets are read-only from here on: hand the engine the
    // frozen CSR representation up front.
    graph.freeze();
    Dataset { graph, ontology }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_yago(&YagoConfig::tiny());
        let b = generate_yago(&YagoConfig::tiny());
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
    }

    #[test]
    fn schema_matches_the_paper() {
        let data = generate_yago(&YagoConfig::tiny());
        // 38 properties including `type`.
        assert_eq!(YAGO_PROPERTIES.len() + 1, 38);
        for p in YAGO_PROPERTIES {
            assert!(data.graph.label_id(p).is_some(), "missing property {p}");
        }
        // Two property hierarchies with 6 and 2 subproperties.
        let located_by = data.graph.label_id("relationLocatedByObject").unwrap();
        assert_eq!(data.ontology.direct_subproperties(located_by).len(), 6);
        let acts = data.graph.label_id("actsUpon").unwrap();
        assert_eq!(data.ontology.direct_subproperties(acts).len(), 2);
        // The taxonomy has depth 2 (root → person → musician).
        let root = data.graph.node_by_label("wordnet_entity").unwrap();
        assert_eq!(data.ontology.class_hierarchy().depth_below(root), 2);
    }

    #[test]
    fn query_constants_exist() {
        let data = generate_yago(&YagoConfig::tiny());
        for constant in [
            "Halle_Saxony-Anhalt",
            "Li_Peng",
            "wordnet_ziggurat",
            "wordnet_city",
            "Annie Haslam",
            "UK",
        ] {
            assert!(
                data.graph.node_by_label(constant).is_some(),
                "missing constant {constant}"
            );
        }
    }

    #[test]
    fn scaling_grows_the_graph_linearly() {
        let small = generate_yago(&YagoConfig::tiny());
        let larger = generate_yago(&YagoConfig {
            scale: 0.1,
            filler_classes: 20,
            ..YagoConfig::default()
        });
        assert!(larger.graph.node_count() > small.graph.node_count());
        let ratio = larger.graph.edge_count() as f64 / small.graph.edge_count() as f64;
        assert!(ratio > 1.4 && ratio < 3.0, "edge ratio {ratio}");
    }

    #[test]
    fn ziggurats_have_nothing_located_in_them() {
        let data = generate_yago(&YagoConfig::tiny());
        let g = &data.graph;
        let located_in = g.label_id("locatedIn").unwrap();
        let ziggurat_class = g.node_by_label("wordnet_ziggurat").unwrap();
        for z in g.neighbors_iter(
            ziggurat_class,
            g.type_label(),
            omega_graph::Direction::Incoming,
        ) {
            assert!(g
                .neighbors_iter(z, located_in, omega_graph::Direction::Incoming)
                .next()
                .is_none());
        }
    }

    #[test]
    fn nothing_graduates_from_a_country() {
        // Q9 must have zero exact answers: `gradFrom` never leaves a
        // university/country node.
        let data = generate_yago(&YagoConfig::tiny());
        let g = &data.graph;
        let grad_from = g.label_id("gradFrom").unwrap();
        let uk = g.node_by_label("UK").unwrap();
        let located_in = g.label_id("locatedIn").unwrap();
        for thing in g.neighbors_iter(uk, located_in, omega_graph::Direction::Incoming) {
            assert!(g
                .neighbors_iter(thing, grad_from, omega_graph::Direction::Outgoing)
                .next()
                .is_none());
        }
    }
}
