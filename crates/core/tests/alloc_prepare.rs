//! Pins what compiling a statement costs in heap allocations.
//!
//! A test binary of its own, like `alloc_rows.rs`: the counting allocator
//! (`counting/mod.rs`) is process-global, and only one test may run under it.
//! One alternation-heavy shape of the yardstick's `adhoc-compile` workload
//! (YAGO) is compiled by [`Database::prepare_uncached`] as an exact, an
//! APPROX and a RELAX conjunct. What a compile may allocate is a fixed number
//! of vectors per stage, as the stages run: the parsed query; the position
//! automaton, with its builder's symbol list and set stack; the APPROX or
//! RELAX copy of it; the bounds and the node-class masks; the expansion
//! table and the plan. Add one
//! shared name per label of the expression. Copying a transition from stage
//! to stage allocates nothing.

use omega_core::Database;
use omega_datagen::{generate_yago, YagoConfig};

mod counting;
use counting::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(operator, allocations one prepare_uncached may make)`: 67, 78 and 77
/// as measured on this tree (6, 6 and 6 states; 18, 43 and 21 transitions),
/// plus a margin of 4. The RELAX compile made 88 while each ontology closure
/// it read was copied into a vector of its own; one vector fewer before each
/// plan held its node-class masks (`SignatureBound`). While a compile built the Thompson automaton and
/// ε-removed it, the tree made 77, 88 and 98; before the APPROX edits went
/// on the ε-free automaton, 77, 99 and 97 (6, 17 and 6 states; 18, 253 and
/// 21 transitions); before compiles shared label names, 150, 233 and 228.
/// The compile is deterministic, so an increase is a new allocation per
/// statement; one per transition would show as dozens on the APPROX text.
const PREPARE_ALLOCS: [(&str, u64); 3] = [("", 71), ("APPROX ", 82), ("RELAX ", 81)];

#[test]
fn a_compile_allocates_per_stage_not_per_transition() {
    let data = generate_yago(&YagoConfig::scaled(0.1));
    let db = Database::new(data.graph, data.ontology);
    let graph = db.graph();
    let married = graph.label_id("marriedTo").expect("YAGO has marriedTo");
    let anchor = graph
        .tails(married)
        .iter()
        .next()
        .expect("someone is married");
    // The index's label statistics are read off its occupancy bitmaps, one
    // per layer, its node summary is one pass over its runs, and the
    // ontology's closure tables are one search per member, each built on
    // first use and kept for every later compile: not a cost of the compile.
    graph.label_stats();
    graph.summary();
    db.ontology().superclasses(anchor);
    db.ontology().superproperties(married);
    let anchor = graph.node_label(anchor).to_owned();
    for (operator, bound) in PREPARE_ALLOCS {
        let text = format!(
            "(?X) <- {operator}({anchor}, (marriedTo|hasChild|influences)+.(gradFrom|worksAt), ?X)"
        );
        let before = allocations();
        let prepared = db.prepare_uncached(&text);
        let made = allocations() - before;
        prepared.expect("the statement compiles");
        assert!(
            made <= bound,
            "compiling {text:?} allocated {made} times, bound {bound}"
        );
    }
}
