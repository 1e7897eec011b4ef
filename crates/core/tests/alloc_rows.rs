//! Pins what an answer costs on the row path, in heap allocations.
//!
//! A test binary of its own: the counting allocator is process-global, and
//! only one test may run under it. The paper's Q1 (L4All, top-100) is drained
//! through [`Answers::next_row`]; between the first pull and the last the
//! only allocations allowed are amortised growth of the evaluator's frontier
//! and visited sets — never anything per answer.
//! [`Answers::next_answer`] over the same stream is the contrast: a map and
//! two strings per answer on top.
//!
//! [`Answers::next_row`]: omega_core::Answers::next_row
//! [`Answers::next_answer`]: omega_core::Answers::next_answer

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use omega_core::{Database, ExecOptions};
use omega_datagen::{generate_l4all, l4all_queries, L4AllConfig, L4AllScale};

thread_local! {
    /// Allocations made by this thread (`alloc` and `realloc` calls).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread so the harness's own threads
/// cannot leak into the measurement.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell`, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations the 100 `next_row` calls of Q1's top-100 may make between
/// them, as measured on this tree: all of it the evaluator's queue, visited
/// and answer sets doubling as they fill (the projection-dedup set is sized
/// from the limit before the first pull). The run is deterministic — fixed
/// graph, fixed hasher — so any increase is a new allocation on the answer
/// path. One allocation per answer would be 100.
const ROW_PATH_ALLOCS_PER_100: u64 = 34;

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

    // The materialiser pays per answer: a map node and two strings each.
    let mut stream = prepared.answers(&request);
    let before = allocations();
    while stream.next_answer().expect("Q1 evaluates").is_some() {}
    let materialised = allocations() - before;
    assert!(
        materialised >= row_path + 3 * rows,
        "next_answer allocated {materialised} times, next_row {row_path}"
    );
}
