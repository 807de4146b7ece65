//! A counting global allocator for allocation-freedom assertions, shared
//! by `#[path]` inclusion (one copy of the unsafe `GlobalAlloc` impl) by
//! `crates/core/tests/alloc_probe.rs`, `crates/ring/tests/alloc_fma.rs` and
//! `crates/bench/src/bin/profile_hotpath.rs`.  Including this module
//! installs the allocator for that binary.
//!
//! Counts are **per thread** and only taken while the thread is inside
//! [`allocations_during`]: the default test runner executes tests on
//! parallel threads, and a process-wide counter attributes their
//! allocations to whichever test happens to be measuring.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread is inside `allocations_during`.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations made by this thread while armed.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

/// Counts one allocation if the calling thread is armed.  The cells are
/// const-initialized and have no destructor, so touching them from inside
/// the allocator neither allocates nor outlives thread teardown.
#[inline]
fn note_allocation() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (`alloc` + `realloc` calls) made **by the calling
/// thread** while `f` runs.  Calls do not nest.
pub fn allocations_during(f: impl FnOnce()) -> u64 {
    /// Disarms on unwind too: with one test thread the runner reuses the
    /// thread after a failed test.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            ARMED.with(|a| a.set(false));
        }
    }
    assert!(
        !ARMED.with(|a| a.replace(true)),
        "allocations_during() does not nest"
    );
    let _disarm = Disarm;
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}
