//! Work counters as a regression gate.
//!
//! `EvalStats` counters repeat exactly from run to run, so a rise in them
//! is a change in what the evaluator does, seen without wall-time noise.
//! These tests pin the tuples added and processed by every statement of the
//! `embed-flex` mix ([`work_statements`]) on L4All L1, at the first answers
//! (top-[`FIRST_K`]) and at top-[`TOP_K`], as ceilings 5 % above the
//! readings below; Q8 APPROX's on L3, where a bound that sees only one
//! edge processed 9,997 tuples for its first 10 answers and 10,219 for its
//! first 100; and M3's on L3, where a join that pulled its inputs in turn
//! and hinted each with the others' bindings added 2,073 tuples (4,238
//! with APPROX). A fall needs no edit here; a rise needs a reason, and the
//! new readings, in this table.
//!
//! Measured (`experiments work --max-scale L1` prints the same columns; the
//! multi-conjunct rows since their inputs are dependents pulled
//! depth-first, the parenthesised ones before):
//!
//! ```text
//! statement   top-10 added processed   top-100 added processed
//! Q8 APPROX     67    76     132   231
//! Q9 APPROX     28    25     274   292
//! Q3 RELAX      86    31     513   450
//! Q3            83    31     187   187
//! Q11           58    42     103   103
//! M2            95    95     376   402    (150 153  725  800)
//! M2 APPROX    100    95     433   402    (172 153  867  800)
//! M3           126   151     926  1190    (608 580 2073 2329)
//! M3 APPROX    215   190    1844  1604    (541 217 4238 2496)
//! ```

use omega_bench::{l4all_dataset, work_statements, work_stats, FIRST_K, TOP_K};
use omega_core::Database;
use omega_datagen::L4AllScale;

/// `(statement, [added, processed] at top-10, [added, processed] at
/// top-100)` ceilings on L4All L1: the readings above plus 5 %, rounded up.
const L1_CEILINGS: [(&str, [u64; 2], [u64; 2]); 9] = [
    ("Q8 APPROX", [71, 80], [139, 243]),
    ("Q9 APPROX", [30, 27], [288, 307]),
    ("Q3 RELAX", [91, 33], [539, 473]),
    ("Q3", [88, 33], [197, 197]),
    ("Q11", [61, 45], [109, 109]),
    ("M2", [100, 100], [395, 423]),
    ("M2 APPROX", [105, 100], [455, 423]),
    ("M3", [133, 159], [973, 1250]),
    ("M3 APPROX", [226, 200], [1937, 1685]),
];

#[test]
fn every_work_statement_stays_within_its_counters_on_l1() {
    let data = l4all_dataset(L4AllScale::L1);
    let db = Database::new(data.graph, data.ontology);
    let statements = work_statements();
    assert_eq!(statements.len(), L1_CEILINGS.len());
    let mut over = Vec::new();
    for ((name, text), (pinned, first, top)) in statements.iter().zip(L1_CEILINGS) {
        assert_eq!(name, pinned, "the statement list changed");
        for (limit, ceiling) in [(FIRST_K, first), (TOP_K, top)] {
            let stats = work_stats(&db, text, limit);
            let read = [stats.tuples_added, stats.tuples_processed];
            if read[0] > ceiling[0] || read[1] > ceiling[1] {
                over.push(format!(
                    "{name} top-{limit}: added / processed {read:?}, ceilings {ceiling:?}"
                ));
            }
        }
    }
    assert!(over.is_empty(), "counters rose:\n{}", over.join("\n"));
}

#[test]
fn q8_approx_reaches_its_answers_without_the_class_instances_on_l3() {
    let data = l4all_dataset(L4AllScale::L3);
    let db = Database::new(data.graph, data.ontology);
    let (_, text) = work_statements()
        .into_iter()
        .find(|(name, _)| name == "Q8 APPROX")
        .expect("Q8 APPROX is a work statement");
    for (limit, ceiling) in [(FIRST_K, 150), (TOP_K, 500)] {
        let stats = work_stats(&db, &text, limit);
        assert!(
            stats.tuples_processed <= ceiling,
            "top-{limit} processed {} tuples, ceiling {ceiling}",
            stats.tuples_processed
        );
    }
}

/// M3 and M3 APPROX, top-[`TOP_K`], on L3 — what the yardstick runs: the
/// spokes evaluate only the Work Episodes the driver (and, for the second,
/// the first spoke) answered for, and no spoke expands the keys above the
/// one the join pulled it at. Ceilings 5 % above the readings (926 and
/// 1,844 tuples added); the join before dependents read 2,073 and 4,238.
#[test]
fn m3_spokes_evaluate_only_what_the_driver_binds_on_l3() {
    let data = l4all_dataset(L4AllScale::L3);
    let db = Database::new(data.graph, data.ontology);
    for (name, ceiling) in [("M3", 973), ("M3 APPROX", 1937)] {
        let (_, text) = work_statements()
            .into_iter()
            .find(|(statement, _)| statement == name)
            .expect("M3 is a work statement");
        let added = work_stats(&db, &text, TOP_K).tuples_added;
        assert!(
            added <= ceiling,
            "{name} top-{TOP_K} added {added} tuples, ceiling {ceiling}"
        );
    }
}
