#![warn(missing_docs)]

//! Adversarial schedule explorer for the urcgc protocol.
//!
//! The hand-written scenarios in `tests/failure_scenarios.rs` each pin one
//! interesting point of the fault space; this crate *searches* it. An
//! exploration run repeatedly:
//!
//! 1. **generates** a random [`CheckSpec`] — a fault-plan
//!    genome (crashes, omission rates, timed link cuts, targeted cuts
//!    around coordinator handoffs) plus a delivery-schedule perturbation
//!    ([`SchedSpec`], realized as a PCT-style
//!    [`Adversary`](urcgc_simnet::Adversary)) — all within the paper's
//!    failure model, so the protocol's guarantees must hold;
//! 2. **runs** it on the probed [`GroupHarness`](urcgc::sim::GroupHarness)
//!    and checks every round and the final report against the typed
//!    property [`oracle`]s: Uniform Atomicity, Uniform Ordering,
//!    stability-safety (no history entry purged before it is stable),
//!    frontier agreement, and termination;
//! 3. on violation, **shrinks** the spec to a locally-minimal
//!    counterexample ([`shrink`]) and serializes it as a replayable
//!    `urcgc-repro/1` JSON document ([`repro`]).
//!
//! The `checker` binary drives [`explore()`] with a run budget, an optional
//! wall-clock budget, and `--jobs` fan-out over the sweep job pool, and
//! emits a `urcgc-check/1` summary document.
//!
//! The [`cluster`] module restates the end-of-run oracles (quiescence,
//! uniform agreement, ordering) over *real-network* member reports, so the
//! `loopback-cluster` harness in `urcgc-runtime` gates multi-process UDP
//! runs on the same properties the explorer checks in-model.

pub mod cluster;
pub mod explore;
pub mod multigroup;
pub mod oracle;
pub mod repro;
pub mod run;
pub mod sched;
pub mod shrink;
pub mod spec;

pub use cluster::{check_cluster, check_genuineness, fnv1a_stream, NodeObservation};
pub use explore::{explore, ExploreOpts, ExploreOutcome};
pub use multigroup::{run_multigroup, MultigroupReport, MultigroupSpec, MULTIGROUP_SCHEMA};
pub use oracle::{OracleKind, Violation};
pub use run::{run_spec, RunResult};
pub use spec::{CheckSpec, PlanSpec, SchedSpec};
