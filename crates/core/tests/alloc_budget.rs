//! The engine's steady-state round is copy-free and allocation-light.
//!
//! A decision travels around the group twice per subrun: the coordinator
//! broadcasts it, and every member's next request carries it back to the
//! next coordinator. Both legs share one reference-counted allocation, so
//! neither copies the decision's n-wide vectors. This test drives a
//! fault-free 3-member group at full load, checks that sharing handle by
//! handle, and holds the allocations the engines make per engine-round to
//! a budget. Allocation counts are deterministic for a fixed schedule, so
//! the budget pins the gain: a change that brings back a per-round copy
//! fails here rather than only showing up as a slower benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use urcgc::{Engine, Output, ProcessStatus};
use urcgc_types::{Pdu, ProcessId, ProtocolConfig, Round};

/// Counts allocations per thread, so the test harness's other threads
/// never pollute the measurement.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` unchanged and only updates a
// thread-local counter, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: forwarded with the caller's pointer, layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const N: usize = 3;
/// Rounds run before measuring, so every buffer has reached its
/// steady-state capacity.
const WARMUP_ROUNDS: u64 = 64;
/// Rounds measured: a whole number of history segments' worth of traffic
/// per origin (one message per member per round, 64 per segment).
const MEASURED_ROUNDS: u64 = 128;
/// Allocations per engine-round at steady state, pinned from the
/// copy-free engine (measured: 7.047; 11.094 while requests and the
/// coordinator's own copy deep-copied the decision). What remains is
/// per-message state (the message, its deps, its broadcast PDU) and
/// per-subrun state (the request's vectors, the stability matrix and the
/// new decision).
const BUDGET_PER_ENGINE_ROUND: f64 = 7.05;

/// The group under test plus the allocations its engines made.
struct Group {
    engines: Vec<Engine>,
    payload: Bytes,
    allocs: u64,
}

impl Group {
    fn new() -> Self {
        let cfg = ProtocolConfig::new(N);
        Group {
            engines: (0..N)
                .map(|i| Engine::new(ProcessId::from_index(i), cfg.clone()))
                .collect(),
            payload: Bytes::from_static(b"steady"),
            allocs: 0,
        }
    }

    /// Runs `f` on engine `i`, counting only what the engine allocates.
    fn call<R>(&mut self, i: usize, f: impl FnOnce(&mut Engine) -> R) -> R {
        let before = ALLOCS.with(Cell::get);
        let r = f(&mut self.engines[i]);
        self.allocs += ALLOCS.with(Cell::get) - before;
        r
    }

    /// One round: every member submits, advances, and its output is routed
    /// to the peers (twice, so replies prompted in-round cross too).
    fn round(&mut self, r: u64) {
        for i in 0..N {
            let payload = self.payload.clone();
            self.call(i, |e| e.submit(payload, &[]).expect("submit"));
            self.call(i, |e| e.begin_round(Round(r)));
        }
        for _ in 0..2 {
            for i in 0..N {
                let out: Vec<Output> =
                    std::iter::from_fn(|| self.call(i, Engine::poll_output)).collect();
                for o in out {
                    self.route(i, o);
                }
            }
        }
    }

    fn route(&mut self, from: usize, o: Output) {
        let src = ProcessId::from_index(from);
        match o {
            Output::Send { to, pdu } => {
                if let Pdu::Request(req) = &*pdu {
                    // The request carries the sender's own decision handle.
                    assert!(Arc::ptr_eq(
                        &req.prev_decision,
                        self.engines[from].last_decision()
                    ));
                }
                self.call(to.index(), |e| e.on_pdu(src, *pdu));
            }
            Output::Broadcast { pdu } => {
                if let Pdu::Decision(d) = &*pdu {
                    // The coordinator adopted the very decision it sent.
                    assert!(Arc::ptr_eq(d, self.engines[from].last_decision()));
                }
                for to in (0..N).filter(|&to| to != from) {
                    let copy = Pdu::clone(&pdu);
                    self.call(to, |e| e.on_pdu(src, copy));
                }
            }
            _ => {}
        }
    }
}

#[test]
fn steady_state_round_shares_decisions_and_stays_within_alloc_budget() {
    let mut g = Group::new();
    for r in 0..WARMUP_ROUNDS {
        g.round(r);
    }
    g.allocs = 0;
    for r in WARMUP_ROUNDS..WARMUP_ROUNDS + MEASURED_ROUNDS {
        g.round(r);
    }
    for e in &g.engines {
        assert_eq!(e.status(), ProcessStatus::Active);
        assert_eq!(
            e.stats().processed,
            N as u64 * (WARMUP_ROUNDS + MEASURED_ROUNDS),
            "every submission reached every member"
        );
        assert!(e.stats().purged_messages > 0, "stability never cleaned");
    }
    let per_engine_round = g.allocs as f64 / (N as u64 * MEASURED_ROUNDS) as f64;
    println!("allocations per engine-round: {per_engine_round:.3}");
    assert!(
        per_engine_round <= BUDGET_PER_ENGINE_ROUND,
        "{per_engine_round:.3} allocations per engine-round, budget {BUDGET_PER_ENGINE_ROUND}"
    );
}
