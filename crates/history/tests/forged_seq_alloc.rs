//! A forged far-ahead sequence number must cost the history O(1) heap.
//!
//! A corrupted or hostile data frame can carry any `seq` up to the wire
//! limit. The history allocates storage only for the segment a saved
//! sequence falls in, never for the gap behind it, so saving a seq near
//! 2^62 — and purging up to it — allocates a bounded, small amount
//! whatever the distance. A counting global allocator measures the
//! allocations each call makes on this thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use urcgc_history::{History, StableVector, SEGMENT_SPAN};
use urcgc_types::{DataMsg, Mid, ProcessId, Round};

/// Counts allocations and allocated bytes per thread, so the test
/// harness's other threads never pollute the measurement.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    ALLOCS.with(|a| a.set(a.get() + 1));
    BYTES.with(|b| b.set(b.get() + size));
}

// SAFETY: every method forwards to `System` unchanged and only updates
// thread-local counters, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: forwarded with the caller's pointer, layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations and bytes `f` makes on this thread.
fn measure<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let r = f();
    (ALLOCS.with(Cell::get) - a0, BYTES.with(Cell::get) - b0, r)
}

fn msg(p: u16, s: u64) -> Arc<DataMsg> {
    Arc::new(DataMsg {
        mid: Mid::new(ProcessId(p), s),
        deps: vec![],
        round: Round(0),
        payload: Bytes::from_static(b"forged"),
    })
}

/// Heap bytes of one segment's slot array.
const SEGMENT_BYTES: usize = SEGMENT_SPAN as usize * std::mem::size_of::<Option<Arc<DataMsg>>>();

#[test]
fn saving_a_seq_near_2_pow_62_allocates_one_segment() {
    let far = (1u64 << 62) - 3;
    let mut h = History::new(3);
    for s in 1..=5 {
        h.save(msg(0, s));
    }
    let forged = msg(0, far);
    let (allocs, bytes, saved) = measure(|| h.save(forged));
    assert!(saved);
    // The segment's slot array, plus at most one growth of the origin's
    // segment deque.
    assert!(allocs <= 2, "{allocs} allocations for one far-ahead save");
    assert!(
        bytes <= 2 * SEGMENT_BYTES,
        "{bytes} B for one far-ahead save"
    );
    assert_eq!(h.segments_live(), 2);
    assert_eq!(h.highest_seq(ProcessId(0)), far);

    // A forged seq on an origin with nothing stored, then a second one
    // right behind it (an out-of-order insert): one segment each.
    let (first, behind) = (msg(1, far), msg(1, far - 4 * SEGMENT_SPAN));
    let (allocs, _, _) = measure(|| h.save(first));
    assert!(allocs <= 2, "{allocs} allocations on an empty origin");
    let (allocs, _, _) = measure(|| h.save(behind));
    assert!(allocs <= 2, "{allocs} allocations for an insert behind it");
    assert_eq!(h.segments_live(), 4);
}

#[test]
fn purging_up_to_a_far_frontier_allocates_nothing() {
    let far = (1u64 << 62) + 7;
    let mut h = History::new(2);
    for s in [1, 2, SEGMENT_SPAN + 1, far - 1, far + 1] {
        h.save(msg(0, s));
    }
    let stable = [far, 0];
    let (allocs, _, report) = measure(|| h.advance_stability(&StableVector::new(&stable)));
    assert_eq!(allocs, 0, "purge allocated");
    assert_eq!(report.messages, 4);
    assert_eq!(h.len(), 1);
    assert_eq!(h.stable_frontier(ProcessId(0)), far);
}
