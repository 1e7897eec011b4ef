//! Property-based tests: NFA construction, ε-removal, regex reversal and the
//! APPROX/RELAX augmentations agree with reference semantics on randomly
//! generated regular expressions and words; ε-removal builds exactly the
//! automaton its predecessor built, and APPROX exactly the automaton its
//! predecessor built once ε-removed.

use omega_automata::simulate::{accepts, min_accept_cost};
use omega_automata::{
    approximate, build_nfa, relax, remove_epsilons, ApproxConfig, MapResolver, RelaxConfig,
    WeightedNfa,
};
use omega_graph::GraphStore;
use omega_ontology::Ontology;
use omega_regex::{oracle, RpqRegex, Symbol};
use proptest::prelude::*;

mod reference;

const LABELS: [&str; 4] = ["a", "b", "c", "d"];

fn arb_regex() -> impl Strategy<Value = RpqRegex> {
    let leaf = prop_oneof![
        Just(RpqRegex::Epsilon),
        (0usize..LABELS.len(), any::<bool>()).prop_map(|(i, inv)| {
            if inv {
                RpqRegex::inverse_label(LABELS[i])
            } else {
                RpqRegex::label(LABELS[i])
            }
        }),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RpqRegex::Concat(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RpqRegex::Alt(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| RpqRegex::Star(Box::new(a))),
            inner.prop_map(|a| RpqRegex::Plus(Box::new(a))),
        ]
    })
}

fn arb_word() -> impl Strategy<Value = Vec<Symbol>> {
    prop::collection::vec((0usize..LABELS.len(), any::<bool>()), 0..6).prop_map(|syms| {
        syms.into_iter()
            .map(|(i, inv)| Symbol {
                label: LABELS[i].to_owned(),
                inverse: inv,
            })
            .collect()
    })
}

fn resolver() -> MapResolver {
    let mut r = MapResolver::new();
    for l in LABELS {
        r.add_label(l);
    }
    r
}

/// A graph that knows [`LABELS`] and an ontology over them: `a ⊑ b ⊑ c`,
/// `dom(a) = Low ⊑ High`, `range(a) = dom(d) = High`.
fn relax_setup() -> (GraphStore, Ontology) {
    let mut g = GraphStore::new();
    let [a, b, c, d] = LABELS.map(|l| g.intern_label(l));
    let low = g.add_node("Low");
    let high = g.add_node("High");
    let mut o = Ontology::new();
    o.add_subproperty(a, b).unwrap();
    o.add_subproperty(b, c).unwrap();
    o.add_property(d);
    o.add_subclass(low, high).unwrap();
    o.set_domain(a, low);
    o.set_range(a, high);
    o.set_domain(d, high);
    (g, o)
}

/// `M_R` for `regex` and its four augmentations: APPROX at the default and
/// at non-uniform costs with inversion, RELAX rule (i) alone and with rule
/// (ii). APPROX is the predecessor's (`reference::approximate`), whose
/// deletion edits put positive-cost ε-cycles around nested stars for
/// ε-removal to close.
fn augmentations(regex: &RpqRegex) -> [WeightedNfa; 5] {
    let (g, o) = relax_setup();
    let base = build_nfa(regex, &g);
    let skewed = ApproxConfig {
        insertion: 3,
        deletion: 2,
        substitution: 5,
        inversion: Some(1),
    };
    let both_rules = RelaxConfig::hierarchy_only(2).with_domain_range(3);
    [
        reference::approximate(&base, &ApproxConfig::default()),
        reference::approximate(&base, &skewed),
        relax(&base, &o, &RelaxConfig::default(), &g),
        relax(&base, &o, &both_rules, &g),
        base,
    ]
}

/// Words over [`LABELS`] and `type`, short enough to enumerate.
fn short_words() -> Vec<Vec<Symbol>> {
    let alphabet: Vec<Symbol> = ["a", "b", "c", "d", "type"]
        .into_iter()
        .flat_map(|l| [Symbol::forward(l), Symbol::inverse(l)])
        .collect();
    let mut words = vec![vec![]];
    for x in &alphabet {
        words.push(vec![x.clone()]);
        for y in &alphabet {
            words.push(vec![x.clone(), y.clone()]);
        }
    }
    words
}

/// ε-removal keeps every word's cost on augmented automata whose deletion
/// edits close positive-cost ε-cycles (nested stars) or run beside an empty
/// branch.
#[test]
fn epsilon_removal_preserves_augmented_languages() {
    let words = short_words();
    for expr in ["((a*)*)*", "(a|()).b", "(a-|d)+.(b*)*", "()"] {
        let regex = omega_regex::parse(expr).unwrap();
        for nfa in augmentations(&regex) {
            let cleaned = remove_epsilons(&nfa);
            assert!(!cleaned.has_epsilon_transitions());
            for word in &words {
                assert_eq!(
                    min_accept_cost(&nfa, word),
                    min_accept_cost(&cleaned, word),
                    "{expr} on {word:?}"
                );
            }
        }
    }
}

/// `remove_epsilons` builds the automaton `reference::remove_epsilons` (its
/// predecessor, kept verbatim) builds: same numbering, finals and per-state
/// transition sequences. 512 expressions × 5 automata = 2,560 cases.
fn assert_same_automaton(new: &WeightedNfa, old: &WeightedNfa) {
    assert_eq!(new.state_count(), old.state_count());
    assert_eq!(new.initial(), old.initial());
    assert_eq!(
        new.finals().collect::<Vec<_>>(),
        old.finals().collect::<Vec<_>>()
    );
    for state in new.states() {
        assert_eq!(new.transitions_from(state), old.transitions_from(state));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn epsilon_removal_matches_its_predecessor(regex in arb_regex()) {
        for nfa in augmentations(&regex) {
            assert_same_automaton(&remove_epsilons(&nfa), &reference::remove_epsilons(&nfa));
        }
    }
}

/// The edit costs `approximate_matches_its_predecessor` runs: the default,
/// skewed, uniform 3 with inversion 1, and uniform 2³¹, where two edits
/// saturate.
fn approx_configs() -> [ApproxConfig; 4] {
    [
        ApproxConfig::default(),
        ApproxConfig {
            insertion: 3,
            deletion: 2,
            substitution: 5,
            inversion: Some(1),
        },
        ApproxConfig {
            inversion: Some(1),
            ..ApproxConfig::uniform(3)
        },
        ApproxConfig::uniform(1 << 31),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `approximate` on the ε-free `M_R` builds, in one stage and without an
    /// ε-transition, the automaton its predecessor's edits on the same input
    /// become once ε-removed. The reference ε-removal adds without
    /// saturating, so at 2³¹ per edit the predecessor's output goes through
    /// this crate's `remove_epsilons`, which
    /// `epsilon_removal_matches_its_predecessor` holds to the reference.
    #[test]
    fn approximate_matches_its_predecessor(regex in arb_regex()) {
        let base = remove_epsilons(&build_nfa(&regex, &resolver()));
        for config in approx_configs() {
            let new = approximate(&base, &config);
            prop_assert!(!new.has_epsilon_transitions());
            let old = reference::approximate(&base, &config);
            let old = if config.deletion < 1 << 31 {
                reference::remove_epsilons(&old)
            } else {
                remove_epsilons(&old)
            };
            assert_same_automaton(&new, &old);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// RELAX adds no ε-transitions, so relaxing the ε-free `M_R` gives what
    /// ε-removing the relaxed Thompson automaton gives: the same automaton,
    /// and so the same cost on every word.
    #[test]
    fn relax_commutes_with_epsilon_removal(regex in arb_regex(), word in arb_word()) {
        let (g, o) = relax_setup();
        let thompson = build_nfa(&regex, &g);
        let base = remove_epsilons(&thompson);
        for config in [RelaxConfig::default(), RelaxConfig::hierarchy_only(2).with_domain_range(3)] {
            let new = relax(&base, &o, &config, &g);
            let old = remove_epsilons(&relax(&thompson, &o, &config, &g));
            prop_assert!(!new.has_epsilon_transitions());
            prop_assert_eq!(min_accept_cost(&new, &word), min_accept_cost(&old, &word));
            assert_same_automaton(&new, &old);
        }
    }

    /// The Thompson NFA accepts exactly the words the naive oracle accepts.
    #[test]
    fn nfa_agrees_with_oracle(regex in arb_regex(), word in arb_word()) {
        let nfa = build_nfa(&regex, &resolver());
        prop_assert_eq!(accepts(&nfa, &word), oracle::matches(&regex, &word));
    }

    /// ε-removal preserves the weighted language, of `M_R` and of its APPROX
    /// and RELAX augmentations alike.
    #[test]
    fn epsilon_removal_preserves_language(regex in arb_regex(), word in arb_word()) {
        for nfa in augmentations(&regex) {
            let cleaned = remove_epsilons(&nfa);
            prop_assert!(!cleaned.has_epsilon_transitions());
            prop_assert_eq!(min_accept_cost(&nfa, &word), min_accept_cost(&cleaned, &word));
        }
    }

    /// Parsing the displayed form of an expression yields the same language.
    #[test]
    fn display_round_trip_preserves_language(regex in arb_regex(), word in arb_word()) {
        let reparsed = omega_regex::parse(&regex.to_string()).unwrap();
        prop_assert_eq!(
            oracle::matches(&regex, &word),
            oracle::matches(&reparsed, &word)
        );
    }

    /// The automaton of the reversed expression — how a conjunct `(?X, R, C)`
    /// is turned into `(C, R-, ?X)` — accepts exactly the reversed (and
    /// direction-flipped) words.
    #[test]
    fn reversal_matches_reversed_words(regex in arb_regex(), word in arb_word()) {
        let nfa = build_nfa(&regex, &resolver());
        let rev = remove_epsilons(&build_nfa(&regex.reverse(), &resolver()));
        let mut rev_word: Vec<Symbol> = word.iter().map(Symbol::flipped).collect();
        rev_word.reverse();
        prop_assert_eq!(min_accept_cost(&nfa, &word), min_accept_cost(&rev, &rev_word));
    }

    /// APPROX: every word is accepted at some finite cost, exact words stay
    /// at cost 0, and the cost never exceeds (|word| deletions of query
    /// symbols are not needed: inserting every word symbol and deleting the
    /// whole query) — we check the weaker, always-valid bound that the cost
    /// is at most |word| * insertion + (cost of accepting the empty word).
    #[test]
    fn approx_accepts_everything_with_bounded_cost(regex in arb_regex(), word in arb_word()) {
        let config = ApproxConfig::default();
        let nfa = build_nfa(&regex, &resolver());
        let approx = remove_epsilons(&approximate(&nfa, &config));
        let cost = min_accept_cost(&approx, &word);
        prop_assert!(cost.is_some());
        if oracle::matches(&regex, &word) {
            prop_assert_eq!(cost, Some(0));
        }
        let empty_cost = min_accept_cost(&approx, &[]).unwrap();
        let bound = empty_cost + word.len() as u32 * config.insertion;
        prop_assert!(cost.unwrap() <= bound, "cost {:?} exceeds bound {}", cost, bound);
    }

    /// The minimum acceptance cost of the APPROX automaton never exceeds the
    /// exact automaton's (approximation only adds cheaper alternatives).
    #[test]
    fn approx_cost_is_monotone(regex in arb_regex(), word in arb_word()) {
        let nfa = build_nfa(&regex, &resolver());
        let exact = remove_epsilons(&nfa);
        let approx = remove_epsilons(&approximate(&nfa, &ApproxConfig::default()));
        if let Some(exact_cost) = min_accept_cost(&exact, &word) {
            prop_assert!(min_accept_cost(&approx, &word).unwrap() <= exact_cost);
        }
    }
}
