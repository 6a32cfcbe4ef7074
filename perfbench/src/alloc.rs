//! Counting global allocator: allocation count, live heap and its peak.
//!
//! Installed by the benchmark library for every binary and test that links
//! it, so `allocs_per_msg`, `peak_heap_bytes`, the per-span allocation
//! counts and the idle-group heap figure are measured, not modelled. A
//! reallocation counts as one allocation.
//!
//! The statistics are kept per thread: the benchmark drives the whole
//! deployment on one thread, and the self-tests, which run on parallel
//! threads, then do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator type; see the module docs.
pub struct CountingAlloc;

struct Stats {
    allocs: Cell<u64>,
    live: Cell<u64>,
    peak: Cell<u64>,
    paused: Cell<bool>,
}

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and works until the thread is gone.
    static STATS: Stats = const {
        Stats {
            allocs: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
            paused: Cell::new(false),
        }
    };
}

fn grow(bytes: usize) {
    let _ = STATS.try_with(|s| {
        if s.paused.get() {
            return;
        }
        s.allocs.set(s.allocs.get() + 1);
        let live = s.live.get() + bytes as u64;
        s.live.set(live);
        if live > s.peak.get() {
            s.peak.set(live);
        }
    });
}

fn shrink(bytes: usize) {
    let _ = STATS.try_with(|s| {
        if !s.paused.get() {
            // Memory another thread allocated can be freed here.
            s.live.set(s.live.get().saturating_sub(bytes as u64));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only a const-initialised thread-local and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations by this thread.
pub fn allocs() -> u64 {
    STATS.with(|s| s.allocs.get())
}

/// Bytes this thread currently holds.
pub fn live_bytes() -> u64 {
    STATS.with(|s| s.live.get())
}

/// Highest live heap of this thread since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    STATS.with(|s| s.peak.get())
}

/// Runs `f` with this thread's statistics paused. `f` must free everything
/// it allocates before returning, or never free it, or the live-heap
/// figure drifts.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    STATS.with(|s| s.paused.set(true));
    let r = f();
    STATS.with(|s| s.paused.set(false));
    r
}

/// Restarts peak tracking from the current live heap.
pub fn reset_peak() {
    STATS.with(|s| s.peak.set(s.live.get()));
}
