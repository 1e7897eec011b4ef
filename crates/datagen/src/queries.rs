//! The query sets of Figure 4 (L4All) and Figure 9 (YAGO), in the textual
//! syntax accepted by `omega_core::parse_query`.

/// One query of a case-study query set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// The paper's identifier (`Q1` … `Q12`).
    pub id: &'static str,
    /// The query in Omega's textual syntax, in exact mode; APPROX/RELAX
    /// variants are produced with [`QuerySpec::with_operator`].
    pub text: &'static str,
    /// Whether the paper's performance study runs APPROX/RELAX variants of
    /// this query (queries with ample exact answers are exact-only).
    pub flexible_in_study: bool,
}

impl QuerySpec {
    /// The query text with the given operator (`"APPROX"` or `"RELAX"`)
    /// applied to its (single) conjunct; an empty operator returns the exact
    /// text.
    pub fn with_operator(&self, operator: &str) -> String {
        if operator.is_empty() {
            self.text.to_owned()
        } else {
            self.text.replacen("<- (", &format!("<- {operator} ("), 1)
        }
    }

    /// The query text with the operator applied to *every* conjunct (used by
    /// the multi-conjunct query sets); an empty operator returns the exact
    /// text.
    pub fn with_operator_everywhere(&self, operator: &str) -> String {
        if operator.is_empty() {
            self.text.to_owned()
        } else {
            // Conjuncts are parenthesised and comma-separated, so the first
            // starts after "<- " and every later one after "), ".
            self.text
                .replacen("<- (", &format!("<- {operator} ("), 1)
                .replace("), (", &format!("), {operator} ("))
        }
    }

    /// Number of conjuncts in the query body.
    pub fn conjunct_count(&self) -> usize {
        1 + self.text.matches("), (").count()
    }
}

/// The 12 L4All queries of Figure 4.
pub fn l4all_queries() -> Vec<QuerySpec> {
    vec![
        QuerySpec {
            id: "Q1",
            text: "(?X) <- (Work Episode, type-, ?X)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "Q2",
            text: "(?X) <- (Information Systems, type-.qualif-, ?X)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "Q3",
            text: "(?X) <- (Software Professionals, type-.job-, ?X)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "Q4",
            text: "(?X, ?Y) <- (?X, job.type, ?Y)",
            flexible_in_study: false,
        },
        QuerySpec {
            id: "Q5",
            text: "(?X, ?Y) <- (?X, next+, ?Y)",
            flexible_in_study: false,
        },
        QuerySpec {
            id: "Q6",
            text: "(?X, ?Y) <- (?X, prereq+, ?Y)",
            flexible_in_study: false,
        },
        QuerySpec {
            id: "Q7",
            text: "(?X, ?Y) <- (?X, next+|(prereq+.next), ?Y)",
            flexible_in_study: false,
        },
        QuerySpec {
            id: "Q8",
            text: "(?X) <- (Mathematical and Computer Sciences, type.prereq+, ?X)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "Q9",
            text: "(?X) <- (Alumni 4 Episode 1_1, prereq*.next+.prereq, ?X)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "Q10",
            text: "(?X) <- (Librarians, type-, ?X)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "Q11",
            text: "(?X) <- (Librarians, type-.job-.next, ?X)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "Q12",
            text: "(?X) <- (BTEC Introductory Diploma, level-.qualif-.prereq, ?X)",
            flexible_in_study: true,
        },
    ]
}

/// The 9 YAGO queries of Figure 9.
pub fn yago_queries() -> Vec<QuerySpec> {
    vec![
        QuerySpec {
            id: "Q1",
            text: "(?X) <- (Halle_Saxony-Anhalt, bornIn-.marriedTo.hasChild, ?X)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "Q2",
            text: "(?X) <- (Li_Peng, hasChild.gradFrom.gradFrom-.hasWonPrize, ?X)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "Q3",
            text: "(?X) <- (wordnet_ziggurat, type-.locatedIn-, ?X)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "Q4",
            text: "(?X, ?Y) <- (?X, directed.married.married+.playsFor, ?Y)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "Q5",
            text: "(?X, ?Y) <- (?X, isConnectedTo.wasBornIn, ?Y)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "Q6",
            text: "(?X, ?Y) <- (?X, imports.exports-, ?Y)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "Q7",
            text: "(?X) <- (wordnet_city, type-.happenedIn-.participatedIn-, ?X)",
            flexible_in_study: false,
        },
        QuerySpec {
            id: "Q8",
            text: "(?X) <- (Annie Haslam, type.type-.actedIn, ?X)",
            flexible_in_study: false,
        },
        QuerySpec {
            id: "Q9",
            text: "(?X) <- (UK, (livesIn-.hasCurrency)|(locatedIn-.gradFrom), ?X)",
            flexible_in_study: true,
        },
    ]
}

/// Multi-conjunct L4All queries used by the multi-conjunct study: star
/// and chain joins over episode timelines with two to four conjuncts per
/// query. Not part of the paper's query set (Figure 4 is single-conjunct
/// throughout); they exercise the ranked join on the same generated data.
///
/// The conjunct order matters to the rank join: the prepared statement
/// orders conjuncts by their seed estimates, the first drives, and a later
/// conjunct whose subject an earlier one binds evaluates only the values
/// that one yields, pulled depth-first — so the sets keep anchored/sparse
/// conjuncts first, give every later conjunct a variable shared with the
/// first, and put the one unbounded stream last.
pub fn l4all_multi_conjunct_queries() -> Vec<QuerySpec> {
    vec![
        QuerySpec {
            id: "M1",
            text: "(?E, ?N) <- (Work Episode, type-, ?E), (?E, next, ?N)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "M2",
            text: "(?E, ?J, ?N) <- (Work Episode, type-, ?E), (?E, job, ?J), (?E, next+, ?N)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "M3",
            text: "(?E, ?N, ?P) <- (Work Episode, type-, ?E), (?E, next, ?N), (?E, prereq, ?P)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "M4",
            text: "(?E, ?Q, ?N, ?P) <- (Educational Episode, type-, ?E), (?E, qualif, ?Q), \
                   (?E, next, ?N), (?E, prereq+, ?P)",
            flexible_in_study: true,
        },
    ]
}

/// Multi-conjunct YAGO queries for the multi-conjunct study: star and
/// path joins over the person-centric portion of the graph, shaped by the
/// same join-cost rules as [`l4all_multi_conjunct_queries`].
pub fn yago_multi_conjunct_queries() -> Vec<QuerySpec> {
    vec![
        QuerySpec {
            id: "YM1",
            text: "(?X, ?U) <- (?U, isLocatedIn, ?C), (?X, gradFrom, ?U)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "YM2",
            text: "(?X, ?P, ?U) <- (?X, hasWonPrize, ?W), (?X, marriedTo, ?P), (?X, gradFrom, ?U)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "YM3",
            text: "(?X, ?C, ?Y) <- (?X, wasBornIn, ?C), (?C, locatedIn, ?Y), (?X, livesIn, ?Z)",
            flexible_in_study: true,
        },
        QuerySpec {
            id: "YM4",
            text: "(?X, ?F, ?P, ?U) <- (?X, directed, ?F), (?X, marriedTo, ?P), \
                   (?X, gradFrom, ?U), (?X, livesIn, ?Z)",
            flexible_in_study: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_sets_have_the_published_sizes() {
        assert_eq!(l4all_queries().len(), 12);
        assert_eq!(yago_queries().len(), 9);
    }

    #[test]
    fn multi_conjunct_sets_have_two_to_four_conjuncts() {
        for spec in l4all_multi_conjunct_queries()
            .iter()
            .chain(yago_multi_conjunct_queries().iter())
        {
            let n = spec.conjunct_count();
            assert!((2..=4).contains(&n), "{} has {n} conjuncts", spec.id);
        }
    }

    #[test]
    fn operator_everywhere_rewrites_every_conjunct() {
        let spec = &l4all_multi_conjunct_queries()[1];
        let text = spec.with_operator_everywhere("APPROX");
        assert_eq!(text.matches("APPROX (").count(), spec.conjunct_count());
        assert_eq!(spec.with_operator_everywhere(""), spec.text);
    }

    #[test]
    fn operator_rewriting() {
        let q = &l4all_queries()[0];
        assert_eq!(q.with_operator(""), q.text);
        assert_eq!(
            q.with_operator("APPROX"),
            "(?X) <- APPROX (Work Episode, type-, ?X)"
        );
        assert_eq!(
            q.with_operator("RELAX"),
            "(?X) <- RELAX (Work Episode, type-, ?X)"
        );
    }

    #[test]
    fn ids_are_sequential() {
        for (i, q) in l4all_queries().iter().enumerate() {
            assert_eq!(q.id, format!("Q{}", i + 1));
        }
        for (i, q) in yago_queries().iter().enumerate() {
            assert_eq!(q.id, format!("Q{}", i + 1));
        }
    }
}
