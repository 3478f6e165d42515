//! Counting global allocator for the allocation-free proofs.
//!
//! Every allocation is charged to the thread that made it, so a
//! measurement sees only the code it runs — never a sibling test running
//! in parallel under the default test harness. The per-thread counter and
//! armed flag are `const`-initialised `thread_local!` cells with no
//! destructor, so the allocator never allocates on its own behalf.
//!
//! A test binary takes it in with
//!
//! ```ignore
//! #[path = "support/alloc_count.rs"]
//! mod alloc_count;
//! ```
//!
//! which also installs it as the binary's `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static LAST_SIZE: Cell<usize> = const { Cell::new(0) };
}

/// Books one allocation of `size` bytes if the calling thread is armed.
fn record(size: usize) {
    // `try_with`: a thread being torn down may allocate after its slots
    // are gone; nothing is being measured then.
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        let _ = LAST_SIZE.try_with(|s| s.set(size));
    }
}

struct ThreadCountingAlloc;

unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

/// What a measured closure allocated on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocs {
    /// Allocations plus reallocations.
    pub count: u64,
    /// Size in bytes of the last one (0 if none).
    pub last_size: usize,
}

/// Runs `f` and returns the heap allocations the calling thread made
/// while it ran. Allocations on other threads are not counted.
pub fn count_allocs(f: impl FnOnce()) -> Allocs {
    COUNT.with(|c| c.set(0));
    LAST_SIZE.with(|s| s.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    Allocs {
        count: COUNT.with(Cell::get),
        last_size: LAST_SIZE.with(Cell::get),
    }
}
