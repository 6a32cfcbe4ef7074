//! End-to-end and per-layer benchmark of the urcgc stack.
//!
//! One process, one thread: a workload's members run on the round-based
//! simulated network (`urcgc-simnet`), with every frame passing through the
//! runtime's wire framing (`Fragmenter`/`Reassembler` at the runtime's
//! default MTU, on a simulated clock). The untraced run gives the
//! end-to-end metrics; the traced run splits time, bytes and allocations
//! across the layers by timing the benchmark's own calls into each layer's
//! public functions. See `README.md` for the metrics and the workloads.

mod alloc;
pub mod ledger;
mod member;
pub mod report;
pub mod run;
mod speed;
pub mod trace;
pub mod workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;
