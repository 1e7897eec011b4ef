//! What the benchmark asks of the operating system so that a run measures the
//! program and not the machine's mood: where its threads run, and what the
//! allocator does with freed memory. Both are fixed here, the same for a
//! parent commit and a change.

extern "C" {
    // glibc: int sched_setaffinity(pid_t, size_t, const cpu_set_t *), where
    // cpu_set_t is 1024 bits; pid 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    // glibc: int mallopt(int param, int value); 1 on success.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pins the calling thread — and the threads it starts from now on, which
/// inherit the mask — to `cpu`. Returns whether the kernel accepted.
///
/// The whole benchmark process runs on one core. For the single-threaded
/// workloads that only stops migrations. For `serve-short` it decides what is
/// measured: a closed loop with one client alternates strictly between the
/// client thread and the server's connection thread, so two cores buy no
/// overlap, and with one core each every hand-off wakes an idle virtual CPU
/// through the hypervisor, quickly or slowly by the host's load, which put
/// whole runs of one binary at a 0.16 ms or a 0.22 ms median. On one core the
/// hand-off is a context switch and runs agree within a few percent.
pub fn pin_current_thread(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte buffer, the size glibc's
    // cpu_set_t has, and its length in bytes is what is passed; the call
    // reads it and touches no other memory of this process.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

// <malloc.h>
const M_TRIM_THRESHOLD: i32 = -1;
const M_TOP_PAD: i32 = -2;
const M_MMAP_THRESHOLD: i32 = -3;

/// Tells glibc's malloc to keep freed memory: never trim the heap back to
/// the kernel, grow it 64 MiB at a time, and serve blocks up to 32 MiB (the
/// most it allows) from the heap instead of a fresh mapping each.
///
/// With the defaults, an evaluation that frees a few MiB hands them back and
/// the next one faults every page in again; in this sandbox a page fault
/// costs microseconds, whether it happens depends on what ran just before,
/// and one query's latency came out 6 ms or 10 ms by that alone. An embedding
/// application serving queries back to back would set the same.
pub fn keep_freed_memory() -> bool {
    // SAFETY: `mallopt` takes two integers and adjusts allocator parameters
    // under the allocator's own lock; it is documented as callable at any
    // time, and this runs before any other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
            && mallopt(M_TOP_PAD, 64 << 20) == 1
            && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
    }
}
