#![warn(missing_docs)]

//! # urcgc — Uniform Reliable Causal Group Communication
//!
//! A faithful implementation of the algorithm of Aiello, Pagani & Rossi,
//! *Causal Ordering in Reliable Group Communications* (SIGCOMM 1993).
//!
//! The protocol solves the **URCGC problem** (Definition 3.2): application
//! messages carry explicit causal-dependency labels, and the algorithm
//! guarantees — under crash *and* send/receive-omission failures — that
//!
//! * **Uniform Atomicity**: a message processed by any active process is
//!   processed by all active processes in the group, or by none, within a
//!   bounded time;
//! * **Uniform Ordering**: causally related messages are processed in their
//!   causal order everywhere, while concurrent sequences proceed
//!   independently.
//!
//! Its distinguishing feature against CBCAST/Psync is that failure handling
//! is *embedded*: a rotating coordinator collects per-subrun requests and
//! circulates decisions that simultaneously settle message stability
//! (history cleaning), group composition (crash detection via `attempts`
//! counters) and recovery hints — normal message processing is never
//! suspended, no separate view-change/flush protocol exists.
//!
//! ## Architecture
//!
//! The protocol lives in [`Engine`], a **sans-I/O state machine**: you feed
//! it rounds ([`Engine::begin_round`]), decoded PDUs ([`Engine::on_pdu`] /
//! [`Engine::on_frame`]) and application submissions ([`Engine::submit`]),
//! and drain effects from [`Engine::poll_output`] — frames to transmit,
//! application deliveries, confirmations, status changes. The engine never
//! touches a socket or a clock, which makes it deterministic, directly
//! property-testable, and equally at home on the discrete-event simulator
//! ([`sim`]) and on real UDP sockets (`urcgc-runtime`).
//!
//! ## Quickstart
//!
//! ```
//! use bytes::Bytes;
//! use urcgc::sim::{GroupHarness, Workload};
//! use urcgc_types::ProtocolConfig;
//!
//! // Five processes, each multicasting 10 causally-chained messages.
//! let cfg = ProtocolConfig::new(5);
//! let mut harness = GroupHarness::builder(cfg)
//!     .workload(Workload::fixed_count(10, 16))
//!     .seed(7)
//!     .build();
//! let report = harness.run_to_completion(1_000);
//! assert!(report.all_processed_everything());
//! ```

pub mod clock;
pub mod engine;
pub mod groups;
pub mod node;
pub mod output;
pub mod sim;

pub use clock::{Clock, Deadlines, ManualClock, RoundPacer, WallClock};
pub use engine::Engine;
pub use node::{Node, NodeError, NodeGauges};
pub use output::{
    EngineGauges, EngineSnapshot, EngineStats, Output, ProcessStatus, StatusReason, SubmitError,
};

pub use urcgc_types::{
    CausalityMode, DataMsg, Decision, GroupId, Mid, Pdu, ProcessId, ProtocolConfig, Round, Subrun,
};
