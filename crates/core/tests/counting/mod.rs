//! The counting allocator shared by the allocation-gate tests. Each of them
//! is a test binary of its own that installs it as `#[global_allocator]`:
//! it is process-global, so only one test may run under it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (`alloc` and `realloc` calls) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Blocks freed (`dealloc` calls) by this thread.
    static FREES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread so the harness's own threads
/// cannot leak into the measurement.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-local
// `Cell`s, so touching them neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.with(|n| n.set(n.get() + 1));
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

/// Allocations this thread has made so far.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Blocks this thread has freed so far.
#[allow(dead_code)] // `alloc_rows.rs` counts allocations only
pub fn frees() -> u64 {
    FREES.with(Cell::get)
}
