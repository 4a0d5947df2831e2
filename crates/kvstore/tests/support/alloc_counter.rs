//! A counting global allocator for test binaries: every `alloc`,
//! `alloc_zeroed` and `realloc` on the calling thread is tallied, with the
//! largest size asked for, so tests running in parallel do not see each
//! other's allocations. Include it with `#[path]`; it installs itself as
//! the binary's `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: an allocation during thread teardown goes uncounted.
    let _ = COUNT.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialized thread-locals that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one closure allocated on this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocs {
    /// Allocations and reallocations.
    pub count: u64,
    /// The largest size any of them asked for, in bytes.
    pub largest: usize,
}

/// Run `f` and report what it allocated on this thread.
pub fn allocs<R>(f: impl FnOnce() -> R) -> (Allocs, R) {
    let count = COUNT.with(Cell::get);
    LARGEST.with(|l| l.set(0));
    let out = f();
    let used = Allocs {
        count: COUNT.with(Cell::get) - count,
        largest: LARGEST.with(Cell::get),
    };
    (used, out)
}
