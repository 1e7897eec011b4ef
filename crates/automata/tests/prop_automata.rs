//! Property-based tests: NFA construction, regex reversal and the APPROX
//! augmentation agree with reference semantics on randomly generated regular
//! expressions and words; `build_nfa` builds exactly the automaton ε-removal
//! made of the Thompson construction, and APPROX exactly the automaton its
//! predecessor built once ε-removed.

use omega_automata::simulate::{accepts, min_accept_cost};
use omega_automata::{approximate, build_nfa, ApproxConfig, MapResolver, WeightedNfa};
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

/// The new automaton is the old one: same state count, initial state, finals
/// and transitions, in order.
fn assert_same_automaton(new: &WeightedNfa, old: &WeightedNfa) {
    assert_eq!(new.state_count(), old.state_count());
    assert_eq!(new.initial(), old.initial());
    assert_eq!(
        new.finals().collect::<Vec<_>>(),
        old.finals().collect::<Vec<_>>()
    );
    assert_eq!(new.transitions(), old.transitions());
}

/// `build_nfa` of `regex` and of its reversal is the Thompson automaton
/// (`reference::thompson`) ε-removed by `reference::remove_epsilons`.
fn assert_position_automaton_of(regex: &RpqRegex) {
    for regex in [regex.clone(), regex.reverse()] {
        let old = reference::remove_epsilons(&reference::thompson(&regex, &resolver()));
        assert_same_automaton(&build_nfa(&regex, &resolver()), &old);
    }
}

/// Shapes that stack closures, repeat a label, nest empty words or use the
/// wildcard, which the generator below does not make.
#[test]
fn build_nfa_matches_epsilon_removed_thompson_on_hand_shapes() {
    for expr in [
        "()",
        "a",
        "a-",
        "_",
        "_.a-",
        "a.b.c",
        "a|b",
        "(a|a)*",
        "((a*)*)*",
        "(()|a)+",
        "(a|()).b",
        "(a.()).(().b)",
        "(a-|d)+.(b*)*",
        "a*.b*.c*",
        "(a+|b)*.c+",
        "(a.b)+|(c*.d)",
        "((a|b).c*)+.(_|d)",
        "(((a|b)+.c)*|d)+",
    ] {
        assert_position_automaton_of(&omega_regex::parse(expr).unwrap());
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

    /// `build_nfa` builds the automaton weighted ε-removal made of the
    /// Thompson automaton, bit for bit: numbering, finals and transition
    /// order.
    #[test]
    fn build_nfa_matches_epsilon_removed_thompson(regex in arb_regex()) {
        assert_position_automaton_of(&regex);
    }

    /// `approximate` on `M_R` builds, in one stage and without an
    /// ε-transition, the automaton its predecessor's edits on the same input
    /// become once ε-removed.
    #[test]
    fn approximate_matches_its_predecessor(regex in arb_regex()) {
        let base = build_nfa(&regex, &resolver());
        for config in approx_configs() {
            let old = reference::remove_epsilons(&reference::approximate(&base, &config));
            assert_same_automaton(&approximate(&base, &config), &old);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The position automaton accepts exactly the words the naive oracle accepts.
    #[test]
    fn nfa_agrees_with_oracle(regex in arb_regex(), word in arb_word()) {
        let nfa = build_nfa(&regex, &resolver());
        prop_assert_eq!(accepts(&nfa, &word), oracle::matches(&regex, &word));
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
        let rev = build_nfa(&regex.reverse(), &resolver());
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
        let approx = approximate(&nfa, &config);
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
        let exact = build_nfa(&regex, &resolver());
        let approx = approximate(&exact, &ApproxConfig::default());
        if let Some(exact_cost) = min_accept_cost(&exact, &word) {
            prop_assert!(min_accept_cost(&approx, &word).unwrap() <= exact_cost);
        }
    }
}
