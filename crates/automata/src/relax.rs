//! RELAX: ontology-driven relaxation of a query automaton.
//!
//! Following [Poulovassilis & Wood, ISWC 2010] and Section 2 of the paper,
//! the automaton `M_R^K` is obtained from `M_R` using the ontology `K`:
//!
//! * **rule (i)** — a property label may be replaced by its immediate
//!   superproperty at cost β; the replacement cascades, so an ancestor at
//!   distance *k* in the subproperty hierarchy costs *k·β*. (The analogous
//!   rule for classes is applied to class *constants* by the evaluator's
//!   `Open` procedure via `GetAncestors`, since classes appear as nodes, not
//!   edge labels, in this data model.)
//! * **rule (ii)** — a property edge `(x, p, y)` may be replaced by a `type`
//!   edge from `x` to the class `dom(p)` at cost γ; when the property is
//!   traversed in reverse (`p-`), the range class is used instead. The
//!   produced [`TransitionLabel::TypeTo`] transitions may themselves be
//!   relaxed further up the class hierarchy at β per step.
//!
//! The paper's performance study enables only rule (i) at cost 1, which is
//! what [`RelaxConfig::default`] does; rule (ii) is available through
//! [`RelaxConfig::with_domain_range`].

use omega_graph::LabelId;
use omega_ontology::Ontology;

use crate::label::TransitionLabel;
use crate::nfa::WeightedNfa;
use crate::resolver::LabelResolver;

/// Costs of the relaxation operations applied by RELAX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelaxConfig {
    /// Cost β of one step up a class/property hierarchy.
    pub beta: u32,
    /// Cost γ of replacing a property edge by a `type` edge to its
    /// domain/range class; `None` disables rule (ii).
    pub gamma: Option<u32>,
}

impl Default for RelaxConfig {
    fn default() -> Self {
        RelaxConfig {
            beta: 1,
            gamma: None,
        }
    }
}

impl RelaxConfig {
    /// Rule (i) at cost `beta` only.
    pub fn hierarchy_only(beta: u32) -> Self {
        RelaxConfig { beta, gamma: None }
    }

    /// Enables rule (ii) at cost `gamma`.
    pub fn with_domain_range(mut self, gamma: u32) -> Self {
        self.gamma = Some(gamma);
        self
    }

    /// The smallest cost of any enabled relaxation operation — the step φ
    /// used by the distance-aware optimisation.
    pub fn min_cost(&self) -> u32 {
        match self.gamma {
            Some(g) => self.beta.min(g),
            None => self.beta,
        }
    }
}

/// Builds the RELAX automaton `M_R^K` from `M_R`, the ontology and the
/// relaxation costs: a copy of `M_R` with each property transition's
/// relaxations added beside it.
pub fn relax<R: LabelResolver>(
    nfa: &WeightedNfa,
    ontology: &Ontology,
    config: &RelaxConfig,
    resolver: &R,
) -> WeightedNfa {
    let mut out = nfa.clone();
    // A position automaton repeats a label on several states: each property
    // and direction that relaxes at all is relaxed once, and later
    // transitions over it copy what that gave (a compile allocates per label,
    // not per transition). One entry per relaxed label: `(property, inverse,
    // label, cost)`.
    let mut relaxed: Vec<(LabelId, bool, TransitionLabel, u32)> = Vec::new();
    for t in nfa.transitions() {
        let TransitionLabel::Symbol {
            label: Some(property),
            inverse,
            ..
        } = t.label
        else {
            continue;
        };
        if !ontology.is_property(property) {
            continue;
        }
        let step = (property, inverse);
        if !relaxed.iter().any(|r| (r.0, r.1) == step) {
            relax_step(property, inverse, ontology, config, resolver, &mut relaxed);
        }
        for (.., label, cost) in relaxed.iter().filter(|r| (r.0, r.1) == step) {
            out.add_transition(t.from, label.clone(), t.cost.saturating_add(*cost), t.to);
        }
    }
    out.freeze();
    out
}

/// Appends to `relaxed` what a `property` step (traversed in reverse when
/// `inverse`) may be relaxed to, each label with its cost.
fn relax_step<R: LabelResolver>(
    property: LabelId,
    inverse: bool,
    ontology: &Ontology,
    config: &RelaxConfig,
    resolver: &R,
    relaxed: &mut Vec<(LabelId, bool, TransitionLabel, u32)>,
) {
    let mut push = |label, cost| relaxed.push((property, inverse, label, cost));
    // Rule (i): superproperty steps, cascading with distance.
    for &(sup, dist) in ontology.superproperties(property) {
        let label = TransitionLabel::Symbol {
            label: Some(sup),
            inverse,
            name: resolver.label_name(sup),
        };
        push(label, dist.saturating_mul(config.beta));
    }
    // Rule (ii): replace the property edge by a `type` edge to its domain
    // (forward traversal) or range (reverse traversal) class.
    let class = if inverse {
        ontology.range(property)
    } else {
        ontology.domain(property)
    };
    if let (Some(gamma), Some(class)) = (config.gamma, class) {
        let type_to = |class| TransitionLabel::TypeTo {
            class,
            name: resolver.node_name(class),
        };
        push(type_to(class), gamma);
        for &(sup, dist) in ontology.superclasses(class) {
            let cost = gamma.saturating_add(dist.saturating_mul(config.beta));
            push(type_to(sup), cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::position::build_nfa;
    use crate::simulate::min_accept_cost;
    use omega_graph::GraphStore;
    use omega_regex::{parse, Symbol};

    /// Graph + ontology used by the RELAX tests:
    /// property hierarchy: gradFrom ⊑ relationLocatedByObject,
    ///                     happenedIn ⊑ relationLocatedByObject,
    /// domain(gradFrom) = Person, Person ⊑ Agent.
    fn setup() -> (GraphStore, Ontology) {
        let mut g = GraphStore::new();
        let grad = g.intern_label("gradFrom");
        let rel = g.intern_label("relationLocatedByObject");
        let happened = g.intern_label("happenedIn");
        let person = g.add_node("Person");
        let agent = g.add_node("Agent");
        let mut o = Ontology::new();
        o.add_subproperty(grad, rel).unwrap();
        o.add_subproperty(happened, rel).unwrap();
        o.add_subclass(person, agent).unwrap();
        o.set_domain(grad, person);
        (g, o)
    }

    #[test]
    fn rule_one_adds_superproperty_transition() {
        let (g, o) = setup();
        let nfa = build_nfa(&parse("gradFrom").unwrap(), &g);
        let relaxed = relax(&nfa, &o, &RelaxConfig::default(), &g);
        // exact label still costs 0
        assert_eq!(
            min_accept_cost(&relaxed, &[Symbol::forward("gradFrom")]),
            Some(0)
        );
        // the superproperty is matched at cost β = 1
        let rel_id = g.label_id("relationLocatedByObject").unwrap();
        let has = relaxed.transitions().iter().any(|t| {
            matches!(&t.label, TransitionLabel::Symbol { label: Some(l), .. } if *l == rel_id)
                && t.cost == 1
        });
        assert!(has);
    }

    #[test]
    fn rule_one_preserves_direction() {
        let (g, o) = setup();
        let nfa = build_nfa(&parse("gradFrom-").unwrap(), &g);
        let relaxed = relax(&nfa, &o, &RelaxConfig::default(), &g);
        let rel_id = g.label_id("relationLocatedByObject").unwrap();
        assert!(relaxed.transitions().iter().any(|t| matches!(
            &t.label,
            TransitionLabel::Symbol { label: Some(l), inverse: true, .. } if *l == rel_id
        )));
    }

    #[test]
    fn cascade_costs_scale_with_distance() {
        // a ⊑ b ⊑ c: relaxing a to c costs 2β.
        let mut g = GraphStore::new();
        let a = g.intern_label("a");
        let b = g.intern_label("b");
        let c = g.intern_label("c");
        let mut o = Ontology::new();
        o.add_subproperty(a, b).unwrap();
        o.add_subproperty(b, c).unwrap();
        let nfa = build_nfa(&parse("a").unwrap(), &g);
        let relaxed = relax(
            &nfa,
            &o,
            &RelaxConfig {
                beta: 2,
                gamma: None,
            },
            &g,
        );
        let cost_of = |label: omega_graph::LabelId| {
            relaxed
                .transitions()
                .iter()
                .find_map(|t| match &t.label {
                    TransitionLabel::Symbol { label: Some(l), .. } if *l == label => Some(t.cost),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(cost_of(b), 2);
        assert_eq!(cost_of(c), 4);
    }

    #[test]
    fn rule_two_adds_type_to_domain() {
        let (g, o) = setup();
        let nfa = build_nfa(&parse("gradFrom").unwrap(), &g);
        let config = RelaxConfig::default().with_domain_range(3);
        let relaxed = relax(&nfa, &o, &config, &g);
        let person = g.node_by_label("Person").unwrap();
        let agent = g.node_by_label("Agent").unwrap();
        let find = |class| {
            relaxed.transitions().iter().find_map(|t| match &t.label {
                TransitionLabel::TypeTo { class: c, .. } if *c == class => Some(t.cost),
                _ => None,
            })
        };
        assert_eq!(find(person), Some(3)); // γ
        assert_eq!(find(agent), Some(4)); // γ + β for the superclass step
    }

    #[test]
    fn rule_two_uses_range_for_inverse_traversal() {
        let mut g = GraphStore::new();
        let p = g.intern_label("p");
        let thing = g.add_node("Thing");
        let mut o = Ontology::new();
        o.add_property(p);
        o.set_range(p, thing);
        let nfa = build_nfa(&parse("p-").unwrap(), &g);
        let relaxed = relax(&nfa, &o, &RelaxConfig::default().with_domain_range(1), &g);
        assert!(relaxed.transitions().iter().any(|t| matches!(
            &t.label,
            TransitionLabel::TypeTo { class, .. } if *class == thing
        )));
        // forward traversal has no domain declared, so no TypeTo is added
        let nfa_fwd = build_nfa(&parse("p").unwrap(), &g);
        let relaxed_fwd = relax(
            &nfa_fwd,
            &o,
            &RelaxConfig::default().with_domain_range(1),
            &g,
        );
        assert!(!relaxed_fwd
            .transitions()
            .iter()
            .any(|t| matches!(&t.label, TransitionLabel::TypeTo { .. })));
    }

    #[test]
    fn non_property_labels_are_untouched() {
        let (g, o) = setup();
        let nfa = build_nfa(&parse("type-.unknownLabel").unwrap(), &g);
        let relaxed = relax(&nfa, &o, &RelaxConfig::default(), &g);
        assert_eq!(relaxed.transition_count(), nfa.transition_count());
    }

    #[test]
    fn relaxation_never_removes_exact_matches() {
        let (g, o) = setup();
        for expr in ["gradFrom", "gradFrom-.happenedIn", "gradFrom*"] {
            let nfa = build_nfa(&parse(expr).unwrap(), &g);
            let relaxed = relax(&nfa, &o, &RelaxConfig::default().with_domain_range(1), &g);
            let words = [
                vec![Symbol::forward("gradFrom")],
                vec![Symbol::inverse("gradFrom"), Symbol::forward("happenedIn")],
                vec![],
            ];
            for word in &words {
                if let Some(exact) = min_accept_cost(&nfa, word) {
                    assert_eq!(min_accept_cost(&relaxed, word), Some(exact));
                }
            }
        }
    }
}
