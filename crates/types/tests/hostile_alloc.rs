//! Decoding a frame whose length prefixes lie must not allocate ahead of
//! the bytes that are actually there.
//!
//! A ~20-byte frame can declare a vector of `MAX_VEC_LEN` (2^20) elements.
//! If the decoder reserved that capacity before checking the input, each
//! such datagram would cost megabytes of heap before failing. A counting
//! global allocator measures the peak heap that decoding each forged frame
//! adds, and the test holds it to a small multiple of the frame length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{BufMut, Bytes, BytesMut};
use urcgc_types::wire::MAX_VEC_LEN;
use urcgc_types::{crc32c, decode_pdu};

/// Counts live heap bytes and their peak, per thread, so the test
/// harness's other threads never pollute the measurement.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + size);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn note_free(size: usize) {
    LIVE.with(|l| l.set(l.get().saturating_sub(size)));
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
        note_free(layout.size());
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: forwarded with the caller's pointer, layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap bytes `decode_pdu(frame)` adds on this thread.
fn decode_peak(frame: &Bytes) -> usize {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let result = decode_pdu(frame);
    assert!(result.is_err(), "forged frame decoded: {result:?}");
    PEAK.with(Cell::get) - base
}

/// Seals `body` with a valid CRC-32C trailer, so decoding gets past the
/// integrity check to the length prefixes under test.
fn seal(mut body: BytesMut) -> Bytes {
    let sum = crc32c(&body);
    body.put_u32_le(sum);
    body.freeze()
}

/// A forged vector length, followed by `tail` filler bytes.
fn lie(buf: &mut BytesMut, tail: usize) {
    buf.put_u32_le(MAX_VEC_LEN as u32);
    buf.put_slice(&vec![1u8; tail]);
}

fn forged_frames() -> Vec<(&'static str, Bytes)> {
    let mut frames = Vec::new();
    for tail in [0, 9] {
        // Data: tag, mid (origin, seq), then deps.
        let mut b = BytesMut::new();
        b.put_u8(1);
        b.put_u16_le(0);
        b.put_u64_le(1);
        lie(&mut b, tail);
        frames.push(("Data.deps", seal(b)));

        // Request: tag, sender, subrun, then last_processed.
        let mut b = BytesMut::new();
        b.put_u8(2);
        b.put_u16_le(0);
        b.put_u64_le(0);
        lie(&mut b, tail);
        frames.push(("Request.last_processed", seal(b)));

        // Decision: tag, subrun, coordinator, full_group, then stable.
        let mut b = BytesMut::new();
        b.put_u8(3);
        b.put_u64_le(0);
        b.put_u16_le(0);
        b.put_u8(1);
        lie(&mut b, tail);
        frames.push(("Decision.stable", seal(b)));

        // RecoveryReply: tag, responder, origin, then messages.
        let mut b = BytesMut::new();
        b.put_u8(5);
        b.put_u16_le(0);
        b.put_u16_le(0);
        lie(&mut b, tail);
        frames.push(("RecoveryReply.messages", seal(b)));

        // RecoveryBatchRq: tag, requester, then wants.
        let mut b = BytesMut::new();
        b.put_u8(6);
        b.put_u16_le(0);
        lie(&mut b, tail);
        frames.push(("RecoveryBatchRq.wants", seal(b)));

        // RecoveryBatch: tag, responder, then runs.
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u16_le(0);
        lie(&mut b, tail);
        frames.push(("RecoveryBatch.runs", seal(b)));

        // RecoveryBatch nesting the lie one level down: one run whose
        // messages vector claims 2^20 entries.
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u16_le(0);
        b.put_u32_le(1);
        b.put_u16_le(0);
        lie(&mut b, tail);
        frames.push(("RecoveryBatch.runs[0].messages", seal(b)));
    }
    frames
}

#[test]
fn forged_length_prefixes_allocate_within_a_small_multiple_of_the_frame() {
    for (what, frame) in forged_frames() {
        let peak = decode_peak(&frame);
        assert!(
            peak <= 64 * frame.len(),
            "{what}: decoding a {} B frame peaked at {peak} B of heap",
            frame.len()
        );
    }
}
