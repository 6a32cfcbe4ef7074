//! Million-message soak harness over the calendar-queue simulator.
//!
//! The sweep binaries measure *protocol* quantities (delay, control
//! traffic, history size) on short runs; the soak measures *sustained
//! scheduler throughput* — millions of application messages pushed through
//! urcgc, CBCAST, and Psync at n ∈ {10, 50, 100} under a mixed fault plan
//! (background omissions, one slow sender, one mid-run crash). The lossy
//! parts apply to urcgc only — the baselines have no retransmission
//! layer, so they take the reliable-channel variant
//! ([`baseline_soak_faults`]) and measure sustained ordering throughput
//! rather than a permanently blocked buffer.
//!
//! Memory discipline: every per-message probe is disabled. The urcgc side
//! runs the simulator's own [`UrcgcNode`] with a `SoakProbe` (counters
//! and peak gauges only — no delivery log, no per-mid maps, no per-round
//! series); the baselines run with [`Load::unprobed`]; and the
//! simulator's byte timeline runs in windowed mode
//! ([`SimOptions::bytes_window`]), so resident state stays O(n + W) no
//! matter how many rounds the soak executes. Progress streams out one line
//! per window.

use std::time::Instant;

use urcgc::sim::{Probe, UrcgcNode, Workload};
use urcgc::{DataMsg, Engine, ProtocolConfig};
use urcgc_baselines::cbcast::Load;
use urcgc_baselines::{CbcastNode, PsyncNode};
use urcgc_metrics::Json;
use urcgc_overlay::OverlayConfig;
use urcgc_simnet::{FaultPlan, Node, SimNet, SimOptions};
use urcgc_types::{ProcessId, Round};

/// The soak's [`Probe`]: counters and peak gauges only — no per-mid maps,
/// no delivery log, no per-round series — so a soak member's resident
/// state stays O(1) however many messages it processes.
#[derive(Default)]
struct SoakProbe {
    /// Application messages processed here.
    delivered: u64,
    /// Peak history table length observed.
    peak_history: usize,
    /// Peak waiting-list length observed.
    peak_waiting: usize,
    /// Logical broadcasts this node originated (data + decision PDUs).
    broadcasts: u64,
    /// Wire copies those broadcasts cost at the origin: n−1 each under
    /// direct dissemination, ≤ degree under the overlay. The ratio is the
    /// origin fan-out the overlay exists to flatten.
    broadcast_copies: u64,
}

impl Probe for SoakProbe {
    fn delivered(&mut self, _msg: &DataMsg, _round: Round) {
        self.delivered += 1;
    }

    fn broadcast_copies(&mut self, copies: u64) {
        self.broadcasts += 1;
        self.broadcast_copies += copies;
    }

    fn on_round(&mut self, _round: Round, engine: &Engine) {
        // stats() refreshes the two peak gauges in O(1); gauges() would
        // also walk the per-origin purge-lag vector, which this per-round
        // hot path does not need.
        let s = engine.stats();
        self.peak_history = self.peak_history.max(s.history_len);
        self.peak_waiting = self.peak_waiting.max(s.waiting);
    }
}

/// Per-window soak sample (one per `window` rounds; bounded population).
#[derive(Clone, Copy, Debug)]
pub struct WindowSample {
    /// Last round covered by this window.
    pub end_round: u64,
    /// Frames delivered during the window.
    pub frames: u64,
    /// Application messages delivered (summed over nodes) in the window.
    pub app_delivered: u64,
    /// Wire bytes offered during the window.
    pub wire_bytes: u64,
    /// Bytes of frames encoded fresh during the window (unique frames).
    pub encoded_bytes: u64,
    /// Bytes put on the wire as refcount-shared clones of already-encoded
    /// frames (fan-out copies beyond the first) during the window.
    pub shared_bytes: u64,
    /// Bytes re-sent unchanged as overlay forwards during the window
    /// (0 when dissemination is direct n-unicast).
    pub relayed_bytes: u64,
    /// Max live history segments across nodes at the window boundary
    /// (gauge; 0 for baselines, which keep no segmented table).
    pub history_segments: usize,
    /// Max resident history payload bytes across nodes at the boundary.
    pub history_bytes: usize,
    /// Max purge lag (messages processed beyond the stable frontier)
    /// across nodes at the boundary.
    pub purge_lag: u64,
}

/// Outcome of one soak scenario.
pub struct SoakReport {
    /// Protocol label (`urcgc` | `cbcast` | `psync`).
    pub protocol: &'static str,
    /// Group size.
    pub n: usize,
    /// Per-process message budget.
    pub msgs_per_proc: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Messages generated (summed over nodes).
    pub submitted: u64,
    /// Application-level deliveries (summed over nodes).
    pub app_delivered: u64,
    /// Frames the simulator handed to nodes.
    pub frames: u64,
    /// Total wire bytes offered.
    pub wire_bytes: u64,
    /// Bytes encoded fresh over the run (unique frames, counted once).
    pub encoded_bytes: u64,
    /// Bytes offered as refcount-shared fan-out clones over the run.
    pub shared_bytes: u64,
    /// Bytes offered as overlay forwards (re-sent arrivals) over the run.
    pub relayed_bytes: u64,
    /// Per-process frames originated (unicasts plus first-hop broadcast
    /// copies), indexed by process.
    pub frames_sent: Vec<u64>,
    /// Per-process frames forwarded on behalf of another origin — the
    /// overlay relay load (all zeros under direct n-unicast).
    pub frames_relayed: Vec<u64>,
    /// Logical `data`/`decision` broadcasts originated, summed over nodes
    /// (0 for the baselines, which don't report the gauge).
    pub broadcasts: u64,
    /// Worst origin fan-out: max over processes of ⌈wire copies per
    /// logical broadcast⌉. Direct dissemination pins this at n−1; the
    /// overlay bounds it by the configured degree — the number the
    /// n = 1000 CI cell gates on.
    pub worst_broadcast_fanout: u64,
    /// Whether every alive node finished inside the round budget.
    pub completed: bool,
    /// Whether the run was cut short by the stall detector (no application
    /// deliveries for several consecutive windows — e.g. CBCAST blocked
    /// forever on a crashed member's vector-clock entries).
    pub stalled: bool,
    /// Wall-clock seconds for the run.
    pub wall_secs: f64,
    /// Peak history length across nodes (urcgc only; 0 for baselines).
    pub peak_history: usize,
    /// Peak waiting length across nodes (urcgc only; 0 for baselines).
    pub peak_waiting: usize,
    /// Peak live-segment gauge over all window boundaries (urcgc only).
    pub peak_segments: usize,
    /// Peak resident history payload bytes over all window boundaries.
    pub peak_history_bytes: usize,
    /// Worst purge lag over all window boundaries, in messages.
    pub max_purge_lag: u64,
    /// Windowed throughput trace (one sample per window).
    pub windows: Vec<WindowSample>,
}

impl SoakReport {
    /// Rounds per wall-clock second.
    pub fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.wall_secs.max(1e-9)
    }

    /// Frames per wall-clock second.
    pub fn frames_per_sec(&self) -> f64 {
        self.frames as f64 / self.wall_secs.max(1e-9)
    }

    /// One `urcgc-bench/1` bench entry for this scenario. The windowed
    /// trace is thinned to at most 16 samples to keep documents diffable.
    pub fn to_json(&self) -> Json {
        let step = self.windows.len().div_ceil(16).max(1);
        let trace: Vec<Json> = self
            .windows
            .iter()
            .step_by(step)
            .map(|w| {
                Json::obj()
                    .with("end_round", w.end_round)
                    .with("frames", w.frames)
                    .with("app_delivered", w.app_delivered)
                    .with("wire_bytes", w.wire_bytes)
                    .with("encoded_bytes", w.encoded_bytes)
                    .with("shared_bytes", w.shared_bytes)
                    .with("relayed_bytes", w.relayed_bytes)
                    .with("history_segments", w.history_segments)
                    .with("history_bytes", w.history_bytes)
                    .with("purge_lag", w.purge_lag)
            })
            .collect();
        Json::obj()
            .with("name", "soak")
            .with(
                "params",
                Json::obj()
                    .with("protocol", self.protocol)
                    .with("n", self.n)
                    .with("msgs_per_proc", self.msgs_per_proc),
            )
            .with(
                "metrics",
                Json::obj()
                    .with("rounds", self.rounds)
                    .with("submitted", self.submitted)
                    .with("app_delivered", self.app_delivered)
                    .with("frames", self.frames)
                    .with("wire_bytes", self.wire_bytes)
                    .with("encoded_bytes", self.encoded_bytes)
                    .with("shared_bytes", self.shared_bytes)
                    .with("relayed_bytes", self.relayed_bytes)
                    .with(
                        "max_frames_sent",
                        self.frames_sent.iter().copied().max().unwrap_or(0),
                    )
                    .with(
                        "max_frames_relayed",
                        self.frames_relayed.iter().copied().max().unwrap_or(0),
                    )
                    .with("broadcasts", self.broadcasts)
                    .with("worst_broadcast_fanout", self.worst_broadcast_fanout)
                    .with("completed", self.completed)
                    .with("stalled", self.stalled)
                    .with("wall_secs", self.wall_secs)
                    .with("rounds_per_sec", self.rounds_per_sec())
                    .with("frames_per_sec", self.frames_per_sec())
                    .with("peak_history", self.peak_history)
                    .with("peak_waiting", self.peak_waiting)
                    .with("peak_segments", self.peak_segments)
                    .with("peak_history_bytes", self.peak_history_bytes)
                    .with("max_purge_lag", self.max_purge_lag)
                    .with("windows", Json::Arr(trace)),
            )
    }
}

/// The full soak fault plan: background omissions at the paper's 1/500
/// rate, one slow sender (process 1, +2 rounds), and process `n-1`
/// crashing a third of the way through the expected run.
pub fn soak_faults(n: usize, msgs_per_proc: u64) -> FaultPlan {
    baseline_soak_faults().crash_at(ProcessId((n - 1) as u16), Round(msgs_per_proc.max(30) / 3))
}

/// The baseline variant: the slow sender only, over reliable channels.
/// The CBCAST and Psync models here have no retransmission layer — their
/// published forms sit on ISIS / negative-acknowledgement machinery that
/// is out of scope — so a single omitted frame (or a crashed member's
/// in-flight tail) leaves every later message from that sender
/// permanently blocked in each affected receiver's buffer, and the run
/// degenerates into an O(buffer²) rescan that can never quiesce. The
/// paper's protocol is the one that takes the full lossy plan; the
/// baselines measure sustained ordering throughput.
pub fn baseline_soak_faults() -> FaultPlan {
    FaultPlan::none().slow_sender(ProcessId(1), 2)
}

/// Scenario identity and budgets for one [`run_soak`] invocation.
pub struct SoakSpec {
    /// Protocol label (`urcgc` | `cbcast` | `psync`).
    pub protocol: &'static str,
    /// Group size.
    pub n: usize,
    /// Per-process message budget.
    pub msgs_per_proc: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Metric window, in rounds.
    pub window: u64,
    /// Round budget.
    pub max_rounds: u64,
    /// Whether to stream one progress line per window. Off when scenarios
    /// run concurrently on the job pool (interleaved lines from parallel
    /// cells would be nondeterministic noise); metrics are unaffected.
    pub progress: bool,
}

/// Drives `nodes` until every alive node reports done (or the spec's
/// round budget), in window-round chunks, streaming one progress line per
/// chunk. `app_delivered` extracts the per-node application delivery
/// counter; `peaks` the per-node (history, waiting) gauges; `residency`
/// the current (live segments, payload bytes, purge lag) triple, sampled
/// across nodes at every window boundary (baselines return zeros); and
/// `fanout` the (logical broadcasts, origin wire copies) pair per node
/// (baselines return zeros).
pub fn run_soak<N: Node>(
    spec: SoakSpec,
    nodes: Vec<N>,
    faults: FaultPlan,
    app_delivered: impl Fn(&N) -> u64,
    peaks: impl Fn(&N) -> (usize, usize),
    residency: impl Fn(&N) -> (usize, usize, u64),
    fanout: impl Fn(&N) -> (u64, u64),
) -> SoakReport {
    let SoakSpec {
        protocol,
        n,
        msgs_per_proc,
        seed,
        window,
        max_rounds,
        progress,
    } = spec;
    assert!(window > 0);
    let opts = SimOptions {
        seed,
        max_rounds,
        bytes_window: Some(window),
    };
    let mut net = SimNet::new(nodes, faults, opts);
    let started = Instant::now();
    let mut windows: Vec<WindowSample> = Vec::new();
    let (mut prev_frames, mut prev_app, mut prev_bytes) = (0u64, 0u64, 0u64);
    let (mut prev_encoded, mut prev_shared, mut prev_relayed) = (0u64, 0u64, 0u64);
    let mut idle_windows = 0u32;
    let mut stalled = false;
    while !net.all_done() && net.round().0 < max_rounds {
        // A protocol that cannot finish under the fault plan (CBCAST after
        // a member crash) would otherwise spin to the round limit; eight
        // dead windows is a conservative steady-state detector.
        if idle_windows >= 8 {
            stalled = true;
            if progress {
                println!("  {protocol:<6} n={n:<3} stalled: no deliveries for {idle_windows} windows, stopping");
            }
            break;
        }
        let chunk = window.min(max_rounds - net.round().0);
        net.run_rounds(chunk);
        let frames = net.stats().delivered;
        let app: u64 = net.nodes().iter().map(&app_delivered).sum();
        let bytes = net.stats().bytes_per_round.total();
        let (encoded, shared, relayed) = (
            net.stats().encoded_bytes,
            net.stats().shared_bytes,
            net.stats().relayed_bytes,
        );
        let (segs, res_bytes, lag) = net
            .nodes()
            .iter()
            .map(&residency)
            .fold((0, 0, 0), |(s, b, l), (ns, nb, nl)| {
                (s.max(ns), b.max(nb), l.max(nl))
            });
        let sample = WindowSample {
            end_round: net.round().0,
            frames: frames - prev_frames,
            app_delivered: app - prev_app,
            wire_bytes: bytes - prev_bytes,
            encoded_bytes: encoded - prev_encoded,
            shared_bytes: shared - prev_shared,
            relayed_bytes: relayed - prev_relayed,
            history_segments: segs,
            history_bytes: res_bytes,
            purge_lag: lag,
        };
        (prev_frames, prev_app, prev_bytes) = (frames, app, bytes);
        (prev_encoded, prev_shared, prev_relayed) = (encoded, shared, relayed);
        // A window is "idle" only when NOTHING moved — no application
        // deliveries AND no frames. Keying on deliveries alone misreads
        // warm-up as a stall once n is large: at n = 1000 the first
        // decision (and hence the first processed message) can lag the
        // first window by far more than 8 windows while the wire is
        // saturated with perfectly healthy traffic. A genuinely wedged
        // baseline (CBCAST blocked on a crashed member's vector-clock
        // entries) still trips this: once the senders' budgets drain,
        // frames stop too.
        idle_windows = if sample.app_delivered == 0 && sample.frames == 0 {
            idle_windows + 1
        } else {
            0
        };
        if progress {
            println!(
                "  {protocol:<6} n={n:<3} round {:>8}  +{:>8} frames  +{:>7} msgs  {:>10} B",
                sample.end_round, sample.frames, sample.app_delivered, sample.wire_bytes
            );
        }
        windows.push(sample);
    }
    let completed = net.all_done();
    let wall_secs = started.elapsed().as_secs_f64();
    let rounds = net.round().0;
    let wire_bytes = net.stats().bytes_per_round.total();
    let (encoded_bytes, shared_bytes, relayed_bytes) = (
        net.stats().encoded_bytes,
        net.stats().shared_bytes,
        net.stats().relayed_bytes,
    );
    let frames = net.stats().delivered;
    let frames_sent = net.stats().frames_sent.clone();
    let frames_relayed = net.stats().frames_relayed.clone();
    let (nodes, _) = net.into_parts();
    let app_total: u64 = nodes.iter().map(&app_delivered).sum();
    let (peak_history, peak_waiting) = nodes
        .iter()
        .map(&peaks)
        .fold((0, 0), |(h, w), (nh, nw)| (h.max(nh), w.max(nw)));
    let (broadcasts, worst_broadcast_fanout) = nodes
        .iter()
        .map(&fanout)
        .fold((0u64, 0u64), |(total, worst), (b, copies)| {
            (total + b, worst.max(copies.div_ceil(b.max(1))))
        });
    let (peak_segments, peak_history_bytes, max_purge_lag) =
        windows.iter().fold((0, 0, 0), |(s, b, l), w| {
            (
                s.max(w.history_segments),
                b.max(w.history_bytes),
                l.max(w.purge_lag),
            )
        });
    SoakReport {
        protocol,
        n,
        msgs_per_proc,
        rounds,
        submitted: msgs_per_proc * n as u64,
        app_delivered: app_total,
        frames,
        wire_bytes,
        encoded_bytes,
        shared_bytes,
        relayed_bytes,
        frames_sent,
        frames_relayed,
        broadcasts,
        worst_broadcast_fanout,
        completed,
        stalled,
        wall_secs,
        peak_history,
        peak_waiting,
        peak_segments,
        peak_history_bytes,
        max_purge_lag,
        windows,
    }
}

/// Which protocol a soak cell exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoakProtocol {
    /// The paper's protocol, under the full lossy plan.
    Urcgc,
    /// The paper's protocol with `data`/`decision` broadcasts routed over
    /// the degree-bounded overlay tree (control stays direct) — the
    /// configuration that breaks the n ≈ 100 barrier. Same lossy plan.
    UrcgcOverlay,
    /// CBCAST baseline, reliable-channel plan.
    Cbcast,
    /// Psync baseline, reliable-channel plan.
    Psync,
}

impl SoakProtocol {
    /// The classic three-protocol comparison grid (direct dissemination),
    /// in grid order — the overlay cell is its own profile, not part of
    /// the comparison rows, so existing soak documents keep their layout.
    pub const ALL: [SoakProtocol; 3] = [
        SoakProtocol::Urcgc,
        SoakProtocol::Cbcast,
        SoakProtocol::Psync,
    ];
}

/// Overlay degree used by the soak's overlay cells: fan-out 8 keeps the
/// n = 1000 tree at depth ⌈log₈ 1000⌉ = 4 while every process originates
/// ≤ 8 copies per logical broadcast (vs. 999 under direct n-unicast).
pub const OVERLAY_SOAK_DEGREE: usize = 8;

/// The overlay layout for a soak cell, derived from the cell seed so
/// reruns are bit-identical.
pub fn overlay_soak_config(seed: u64) -> OverlayConfig {
    OverlayConfig::tree(OVERLAY_SOAK_DEGREE, seed ^ 0xE701)
}

/// Runs one cell of the soak grid. `progress` streams per-window lines —
/// keep it off when cells run concurrently (the job pool). Per-cell seeds
/// and budgets are identical whatever `progress` (or the caller's job
/// count) is, so reports are deterministic cell by cell.
pub fn soak_cell(
    protocol: SoakProtocol,
    n: usize,
    msgs_per_proc: u64,
    seed: u64,
    window: u64,
    progress: bool,
) -> SoakReport {
    let max_rounds = msgs_per_proc * 8 + 4_000;
    match protocol {
        SoakProtocol::Urcgc | SoakProtocol::UrcgcOverlay => {
            let overlay =
                (protocol == SoakProtocol::UrcgcOverlay).then(|| overlay_soak_config(seed));
            let (label, cfg) = match overlay {
                None => ("urcgc", ProtocolConfig::new(n)),
                // K is sized up for multi-hop dissemination: until a
                // crashed relay is declared failed and the tree re-parents,
                // a process downstream of the corpse can miss several
                // consecutive decisions through no fault of its own
                // (PROTOCOL.md §8).
                Some(_) => ("urcgc+overlay", ProtocolConfig::new(n).with_k(6)),
            };
            let workload = Workload::fixed_count(msgs_per_proc, 32);
            let nodes: Vec<UrcgcNode<SoakProbe>> = (0..n)
                .map(|i| {
                    let node = UrcgcNode::with_probe(
                        ProcessId::from_index(i),
                        cfg.clone(),
                        workload.clone(),
                        seed,
                        SoakProbe::default(),
                    );
                    match &overlay {
                        Some(ov) => node.with_overlay(ov.clone()),
                        None => node,
                    }
                })
                .collect();
            run_soak(
                SoakSpec {
                    protocol: label,
                    n,
                    msgs_per_proc,
                    seed,
                    window,
                    max_rounds,
                    progress,
                },
                nodes,
                soak_faults(n, msgs_per_proc),
                |nd| nd.probe().delivered,
                |nd| (nd.probe().peak_history, nd.probe().peak_waiting),
                |nd| {
                    let g = nd.engine().gauges();
                    (g.history_segments, g.history_bytes, g.purge_lag)
                },
                |nd| (nd.probe().broadcasts, nd.probe().broadcast_copies),
            )
        }
        SoakProtocol::Cbcast => {
            let load = Load::fixed(msgs_per_proc, 32).unprobed();
            let nodes: Vec<CbcastNode> = (0..n)
                .map(|i| CbcastNode::new(ProcessId::from_index(i), n, 2, load))
                .collect();
            run_soak(
                SoakSpec {
                    protocol: "cbcast",
                    n,
                    msgs_per_proc,
                    seed,
                    window,
                    max_rounds,
                    progress,
                },
                nodes,
                baseline_soak_faults(),
                |nd| nd.delivered_count(),
                |_| (0, 0),
                |_| (0, 0, 0),
                |_| (0, 0),
            )
        }
        SoakProtocol::Psync => {
            let load = Load::fixed(msgs_per_proc, 32).unprobed();
            let nodes: Vec<PsyncNode> = (0..n)
                .map(|i| PsyncNode::new(ProcessId::from_index(i), n, 64, load))
                .collect();
            run_soak(
                SoakSpec {
                    protocol: "psync",
                    n,
                    msgs_per_proc,
                    seed,
                    window,
                    max_rounds,
                    progress,
                },
                nodes,
                baseline_soak_faults(),
                |nd| nd.delivered_count(),
                |_| (0, 0),
                |_| (0, 0, 0),
                |_| (0, 0),
            )
        }
    }
}

/// Soaks urcgc: n processes each submitting `msgs_per_proc` messages
/// back-to-back through real engines.
pub fn soak_urcgc(n: usize, msgs_per_proc: u64, seed: u64, window: u64) -> SoakReport {
    soak_cell(SoakProtocol::Urcgc, n, msgs_per_proc, seed, window, true)
}

/// Soaks CBCAST with probes off (counter-only nodes). Runs the
/// crash-free plan — see [`baseline_soak_faults`].
pub fn soak_cbcast(n: usize, msgs_per_proc: u64, seed: u64, window: u64) -> SoakReport {
    soak_cell(SoakProtocol::Cbcast, n, msgs_per_proc, seed, window, true)
}

/// Soaks Psync with probes off, on the crash-free plan
/// ([`baseline_soak_faults`]). Flow control deletes overflow, so the run
/// may end at the round limit with `completed = false` — expected: the
/// scenario measures scheduler throughput, not Psync completeness.
pub fn soak_psync(n: usize, msgs_per_proc: u64, seed: u64, window: u64) -> SoakReport {
    soak_cell(SoakProtocol::Psync, n, msgs_per_proc, seed, window, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use urcgc_simnet::NetCtx;

    #[test]
    fn urcgc_soak_smoke_completes_and_counts() {
        let r = soak_urcgc(5, 40, 7, 16);
        assert_eq!(r.submitted, 200);
        // The crashed node's in-flight tail can be lost; everyone else
        // processes everything (atomicity over the surviving group).
        assert!(r.app_delivered > 0, "no deliveries");
        assert!(r.rounds > 0 && r.frames > 0 && r.wire_bytes > 0);
        assert!(r.completed, "quiescence not reached in {} rounds", r.rounds);
        assert!(r.peak_history > 0);
        assert!(!r.windows.is_empty());
        let win_frames: u64 = r.windows.iter().map(|w| w.frames).sum();
        assert_eq!(win_frames, r.frames, "windowed trace must tile the run");
        // Encoded + shared + relayed partition the offered load; direct
        // dissemination forwards nothing, and broadcasts at n=5 mean most
        // offered bytes are refcount-shared clones.
        assert_eq!(
            r.encoded_bytes + r.shared_bytes + r.relayed_bytes,
            r.wire_bytes
        );
        assert_eq!(r.relayed_bytes, 0, "direct soak must not relay");
        assert!(r.frames_relayed.iter().all(|&f| f == 0));
        assert!(r.shared_bytes > r.encoded_bytes, "fan-out should dominate");
        let win_encoded: u64 = r.windows.iter().map(|w| w.encoded_bytes).sum();
        let win_shared: u64 = r.windows.iter().map(|w| w.shared_bytes).sum();
        let win_relayed: u64 = r.windows.iter().map(|w| w.relayed_bytes).sum();
        assert_eq!(win_encoded, r.encoded_bytes);
        assert_eq!(win_shared, r.shared_bytes);
        assert_eq!(win_relayed, r.relayed_bytes);
        // Residency gauges: a live run holds at least one segment mid-run,
        // payload bytes track it, and the report peaks tile the trace.
        assert!(r.peak_segments > 0, "no live segments observed");
        assert!(r.peak_history_bytes > 0);
        assert_eq!(
            r.peak_segments,
            r.windows.iter().map(|w| w.history_segments).max().unwrap()
        );
        assert_eq!(
            r.max_purge_lag,
            r.windows.iter().map(|w| w.purge_lag).max().unwrap()
        );
    }

    #[test]
    fn overlay_soak_cell_keeps_per_process_fanout_flat() {
        let n = 100;
        let msgs = 8;
        let r = soak_cell(SoakProtocol::UrcgcOverlay, n, msgs, 7, 64, false);
        assert_eq!(r.protocol, "urcgc+overlay");
        assert!(
            r.completed,
            "overlay soak did not quiesce in {} rounds",
            r.rounds
        );
        assert!(!r.stalled);
        assert!(r.app_delivered > 0);
        // The three-way byte partition tiles exactly, and forwards carry
        // real traffic.
        assert_eq!(
            r.encoded_bytes + r.shared_bytes + r.relayed_bytes,
            r.wire_bytes
        );
        assert!(r.relayed_bytes > 0, "overlay soak forwarded nothing");
        assert!(r.frames_relayed.iter().sum::<u64>() > 0);
        // Flat fan-out: a direct origin bursts n−1 copies per logical
        // broadcast; the overlay caps every origin at the configured
        // degree — ≥10x below n-unicast at this n.
        assert!(r.broadcasts > 0);
        assert!(
            r.worst_broadcast_fanout <= OVERLAY_SOAK_DEGREE as u64,
            "origin fan-out {} exceeds degree {}",
            r.worst_broadcast_fanout,
            OVERLAY_SOAK_DEGREE
        );
        assert!(r.worst_broadcast_fanout * 10 <= (n as u64 - 1));
        // The direct cell at the same n pins the fan-out at n−1.
        let direct = soak_cell(SoakProtocol::Urcgc, n, msgs, 7, 64, false);
        assert_eq!(direct.worst_broadcast_fanout, n as u64 - 1);
        assert_eq!(direct.relayed_bytes, 0);
        // History residency stays bounded (gauges flow through windows).
        assert!(r.peak_segments > 0 && r.peak_history_bytes > 0);
    }

    #[test]
    fn stall_detector_ignores_busy_warmup_windows() {
        // Regression for large-n warm-up: a node that chats every round
        // but delivers nothing until late must NOT be declared stalled,
        // even though >8 consecutive windows are delivery-free.
        struct SlowStarter {
            me: ProcessId,
            delivered: u64,
            done: bool,
        }
        impl Node for SlowStarter {
            fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>) {
                let peer = ProcessId::from_index((self.me.index() + 1) % net.n());
                net.send(peer, "chat", Bytes::from_static(b"warmup"));
                // First delivery lands after 20 windows of window=4.
                if round.0 >= 80 {
                    self.delivered += 1;
                }
                self.done = round.0 >= 90;
            }
            fn on_frame(&mut self, _from: ProcessId, _frame: Bytes, _net: &mut NetCtx<'_>) {}
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let nodes = vec![
            SlowStarter {
                me: ProcessId(0),
                delivered: 0,
                done: false,
            },
            SlowStarter {
                me: ProcessId(1),
                delivered: 0,
                done: false,
            },
        ];
        let r = run_soak(
            SoakSpec {
                protocol: "urcgc",
                n: 2,
                msgs_per_proc: 1,
                seed: 1,
                window: 4,
                max_rounds: 200,
                progress: false,
            },
            nodes,
            FaultPlan::none(),
            |nd| nd.delivered,
            |_| (0, 0),
            |_| (0, 0, 0),
            |_| (0, 0),
        );
        assert!(!r.stalled, "busy warm-up misreported as stall");
        assert!(r.completed);
        assert!(r.app_delivered > 0);
    }

    #[test]
    fn stall_detector_still_trips_on_dead_runs() {
        // A run where nothing moves at all — no frames, no deliveries —
        // must stop at the detector, well short of the round budget.
        struct DeadNode;
        impl Node for DeadNode {
            fn on_round(&mut self, _round: Round, _net: &mut NetCtx<'_>) {}
            fn on_frame(&mut self, _from: ProcessId, _frame: Bytes, _net: &mut NetCtx<'_>) {}
        }
        let r = run_soak(
            SoakSpec {
                protocol: "cbcast",
                n: 2,
                msgs_per_proc: 1,
                seed: 1,
                window: 4,
                max_rounds: 100_000,
                progress: false,
            },
            vec![DeadNode, DeadNode],
            FaultPlan::none(),
            |_| 0,
            |_| (0, 0),
            |_| (0, 0, 0),
            |_| (0, 0),
        );
        assert!(r.stalled, "dead run escaped the stall detector");
        assert!(!r.completed);
        assert!(r.rounds < 100, "detector fired too late: {}", r.rounds);
    }

    #[test]
    fn baseline_soaks_run_unprobed() {
        let c = soak_cbcast(5, 30, 7, 16);
        assert!(c.app_delivered > 0 && c.frames > 0);
        // Reliable channels: CBCAST's causal buffer drains completely.
        assert!(c.completed, "cbcast did not quiesce in {} rounds", c.rounds);
        let p = soak_psync(5, 30, 7, 16);
        assert!(p.app_delivered > 0 && p.frames > 0);
    }

    #[test]
    fn soak_report_renders_bench_entry() {
        let r = soak_urcgc(4, 20, 3, 8);
        let rendered = r.to_json().render_pretty();
        assert!(rendered.contains("\"name\": \"soak\""));
        assert!(rendered.contains("\"protocol\": \"urcgc\""));
        assert!(rendered.contains("rounds_per_sec"));
    }
}
