//! Pins what the rank join costs in heap traffic: buffering a conjunct
//! answer allocates nothing, and tearing a join down frees a handful of
//! vectors.
//!
//! A test binary of its own, like `alloc_rows.rs`: the counting allocator
//! (`counting/mod.rs`) is process-global, and only one test may run under it. The paper's
//! multi-conjunct M3 (L4All L1, top-100), exact and with APPROX on every
//! conjunct, is drained through [`Answers::next_row`]. The join buffers some
//! 470 to 600 conjunct answers to find those 100 rows (it follows the
//! driver's answers depth-first through the dependents they seed); between
//! the first pull and the last the only allocations allowed are amortised
//! doubling of a fixed number of vectors and maps — the inputs' buffers and
//! chain indexes, the join's arenas, the evaluators' frontiers and
//! handed-seed queues — never anything per buffered answer or per row.
//! Dropping the stream then frees those vectors and nothing else.
//!
//! The join this one replaced kept a `Vec<Option<NodeId>>` per buffered row,
//! its clone, and a `Vec<u32>` posting list per distinct value in up to
//! three hash maps: on these same two runs it allocated 9,111 and 11,149
//! times while pulling and its drop freed 4,871 and 5,955 blocks — and tens
//! of thousands of each per execution on L3, where the yardstick runs.
//!
//! [`Answers::next_row`]: omega_core::Answers::next_row

use omega_core::{Database, ExecOptions};
use omega_datagen::{generate_l4all, l4all_multi_conjunct_queries, L4AllConfig, L4AllScale};

mod counting;
use counting::{allocations, frees, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the 100 `next_row` calls of M3's top-100 may make between
/// them: 199 exact and 252 with APPROX everywhere when the join pulled its
/// inputs in turn, 145 and 185 since it pulls them depth-first (three
/// evaluators' sets and queues, three buffers, three chain indexes and the
/// join's arenas, each doubling as it fills). The run is
/// deterministic — fixed graph, fixed hasher, conjuncts evaluated on this
/// thread — so any increase is a new allocation on the join path: one per
/// buffered answer would add 1,200, one per row 100.
const JOIN_PATH_ALLOCS_PER_100: u64 = 252;

/// Dropping a drained M3 stream must free fewer blocks than this (measured:
/// 54 exact, 60 APPROX): the three conjunct evaluators' sets and queues, the
/// inputs' buffers and indexes, the join's arenas.
const JOIN_DROP_FREES: u64 = 70;

#[test]
fn m3_top_100_buffers_without_allocating_and_drops_in_a_handful_of_frees() {
    let data = generate_l4all(&L4AllConfig::at_scale(L4AllScale::L1));
    let db = Database::new(data.graph, data.ontology);
    let m3 = &l4all_multi_conjunct_queries()[2];
    assert_eq!(m3.id, "M3");
    let request = ExecOptions::new().with_limit(100);

    for text in [m3.text.to_owned(), m3.with_operator_everywhere("APPROX")] {
        let prepared = db.prepare(&text).expect("M3 compiles");
        let mut stream = prepared.answers(&request);
        let before = allocations();
        let mut rows = 0u64;
        while let Some((row, _)) = stream.next_row().expect("M3 evaluates") {
            assert_eq!(row.len(), 3);
            rows += 1;
        }
        let pulling = allocations() - before;
        assert_eq!(rows, 100, "L4All L1 holds at least 100 M3 answers");

        let before = frees();
        drop(stream);
        let dropping = frees() - before;
        assert!(
            pulling <= JOIN_PATH_ALLOCS_PER_100,
            "{text}: next_row allocated {pulling} times over {rows} rows"
        );
        assert!(
            dropping < JOIN_DROP_FREES,
            "{text}: dropping the stream freed {dropping} blocks"
        );
    }
}
