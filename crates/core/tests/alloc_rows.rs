//! Pins what an answer costs on the row path, in heap allocations.
//!
//! A test binary of its own: the counting allocator is process-global, and
//! only one test may run under it. The paper's Q1 (L4All, top-100) is drained
//! through [`Answers::next_row`]; between the first pull and the last the
//! only allocations allowed are amortised growth of the evaluator's frontier
//! and visited sets — never anything per answer.
//! [`Answers::next_answer`] over the same stream may add only a per-stream
//! constant on top: an answer is the row's ids plus one shared handle on the
//! stream's schema and epoch, so it allocates nothing of its own.
//!
//! [`Answers::next_row`]: omega_core::Answers::next_row
//! [`Answers::next_answer`]: omega_core::Answers::next_answer

use omega_core::{Database, ExecOptions};
use omega_datagen::{generate_l4all, l4all_queries, L4AllConfig, L4AllScale};

mod counting;
use counting::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the 100 `next_row` calls of Q1's top-100 may make between
/// them, as measured on this tree: all of it the evaluator's queue, visited
/// and answer sets doubling as they fill (the projection-dedup set is sized
/// from the limit before the first pull). The run is deterministic — fixed
/// graph, fixed hasher — so any increase is a new allocation on the answer
/// path. One allocation per answer would be 100.
const ROW_PATH_ALLOCS_PER_100: u64 = 34;

/// What the 100 `next_answer` calls over the same stream may allocate on
/// top of `next_row`'s count: the stream's shared batch (its `Arc`, its
/// sorted names and the head's one name, the column-to-name map, and one
/// scratch list), built on the first answer — 4 as measured on this tree,
/// plus one of margin. A map of owned strings per answer would add 300.
const ANSWER_PATH_ALLOCS_PER_STREAM: u64 = 5;

#[test]
fn q1_top_100_rows_allocate_only_amortised_growth() {
    let data = generate_l4all(&L4AllConfig::at_scale(L4AllScale::L1));
    let db = Database::new(data.graph, data.ontology);
    let prepared = db.prepare(l4all_queries()[0].text).expect("Q1 compiles");
    let request = ExecOptions::new().with_limit(100);

    let mut stream = prepared.answers(&request);
    let before = allocations();
    let mut rows = 0u64;
    while let Some((row, _)) = stream.next_row().expect("Q1 evaluates") {
        assert_eq!(row.len(), 1);
        rows += 1;
    }
    let row_path = allocations() - before;
    assert_eq!(rows, 100, "L4All L1 holds at least 100 Q1 answers");
    assert!(
        row_path <= ROW_PATH_ALLOCS_PER_100,
        "next_row allocated {row_path} times over {rows} rows"
    );
    drop(stream);

    // An `Answer` is the row's ids and one shared handle on the stream's
    // schema and epoch: the stream pays for that handle once, on its first
    // answer, and nothing per answer.
    let mut answers = Vec::with_capacity(rows as usize);
    let mut stream = prepared.answers(&request);
    let before = allocations();
    while let Some(answer) = stream.next_answer().expect("Q1 evaluates") {
        answers.push(answer);
    }
    let materialised = allocations() - before;
    assert_eq!(answers.len() as u64, rows);
    assert!(
        materialised <= row_path + ANSWER_PATH_ALLOCS_PER_STREAM,
        "next_answer allocated {materialised} times, next_row {row_path}"
    );
}
