//! Discrete-event simulation driver: runs a group of [`Engine`]s over
//! [`urcgc_simnet`] and collects the measurements the paper's evaluation
//! reports (end-to-end delay, control traffic, history length).
//!
//! The driver is the reproduction of the authors' simulation testbed
//! (Section 6): synthetic offered load (a Bernoulli per-round generation
//! probability, or a fixed per-process message budget), fault plans from
//! [`urcgc_simnet::FaultPlan`], and per-round sampling of each process's
//! history length.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use urcgc_overlay::{Disseminator, OverlayConfig, RelayDisposition};
use urcgc_simnet::{Adversary, FaultPlan, NetCtx, Node, RunOutcome, SimNet, SimOptions, SimStats};
use urcgc_types::{DataMsg, FrameCache, Mid, ProcessId, ProtocolConfig, Round};

use crate::engine::Engine;
use crate::output::{Output, ProcessStatus};

/// How submissions choose their foreign causal dependencies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DepPolicy {
    /// Depend only on the process's own previous message (independent
    /// per-process sequences — maximum concurrency).
    OwnChain,
    /// Additionally depend on the most recently processed foreign message
    /// (point ii of Definition 3.1: reception → send), producing the
    /// cross-process causal webs the paper's applications generate.
    #[default]
    LatestForeign,
}

/// Synthetic offered load for one process.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Per-round probability of generating a message (1.0 = one per round,
    /// the paper's maximum service rate).
    pub gen_prob: f64,
    /// Total messages this process will generate.
    pub total: u64,
    /// Payload size in bytes.
    pub payload_size: usize,
    /// Foreign-dependency policy.
    pub deps: DepPolicy,
}

impl Workload {
    /// Back-to-back generation of `total` messages of `payload_size` bytes.
    pub fn fixed_count(total: u64, payload_size: usize) -> Self {
        Workload {
            gen_prob: 1.0,
            total,
            payload_size,
            deps: DepPolicy::default(),
        }
    }

    /// Bernoulli offered load: each round, generate with probability
    /// `gen_prob`, up to `total` messages.
    pub fn bernoulli(gen_prob: f64, total: u64, payload_size: usize) -> Self {
        assert!((0.0..=1.0).contains(&gen_prob), "probability out of range");
        Workload {
            gen_prob,
            total,
            payload_size,
            deps: DepPolicy::default(),
        }
    }

    /// No generation at all (pure receiver).
    pub fn silent() -> Self {
        Workload {
            gen_prob: 0.0,
            total: 0,
            payload_size: 0,
            deps: DepPolicy::default(),
        }
    }

    /// Overrides the dependency policy.
    pub fn with_deps(mut self, deps: DepPolicy) -> Self {
        self.deps = deps;
        self
    }
}

/// Observation hooks of a simulated member: what the harness records
/// about a run without touching it. Probes only read — the member's engine
/// calls, RNG draws and frames are the same whatever probe it carries.
/// Every hook defaults to a no-op.
pub trait Probe {
    /// This member generated `mid` in `round`.
    fn generated(&mut self, _mid: Mid, _round: Round) {}
    /// This member processed `msg` in `round`.
    fn delivered(&mut self, _msg: &DataMsg, _round: Round) {}
    /// Orphan destruction removed `mids` here.
    fn discarded(&mut self, _mids: &[Mid]) {}
    /// One logical `data`/`decision` broadcast left this member as
    /// `copies` first-hop wire copies (n−1 under direct n-unicast, at most
    /// the degree under an overlay).
    fn broadcast_copies(&mut self, _copies: u64) {}
    /// End of this member's round, after its outputs were sent.
    fn on_round(&mut self, _round: Round, _engine: &Engine) {}
}

/// The default [`Probe`] of [`GroupHarness`]: per-mid maps, the exact
/// processing order, and per-round history/waiting series — everything
/// [`GroupReport`] and the checker's oracles read.
#[derive(Default)]
pub struct RecordingProbe {
    /// mid → round at which *this* node processed it.
    deliveries: HashMap<Mid, Round>,
    /// Exact local processing order (the causal-order witness for tests).
    delivery_log: Vec<Mid>,
    /// Published dependency lists of every message processed here.
    deps_of: HashMap<Mid, Vec<Mid>>,
    /// mid → round at which this node *generated* it.
    generated: HashMap<Mid, Round>,
    /// Orphan-destruction victims observed here.
    discarded: Vec<Mid>,
    /// (round, history length) samples, one per round.
    history_series: Vec<(u64, usize)>,
    /// (round, waiting length) samples, one per round.
    waiting_series: Vec<(u64, usize)>,
}

impl Probe for RecordingProbe {
    fn generated(&mut self, mid: Mid, round: Round) {
        self.generated.insert(mid, round);
    }

    fn delivered(&mut self, msg: &DataMsg, round: Round) {
        self.deliveries.insert(msg.mid, round);
        self.delivery_log.push(msg.mid);
        self.deps_of.insert(msg.mid, msg.deps.clone());
    }

    fn discarded(&mut self, mids: &[Mid]) {
        self.discarded.extend_from_slice(mids);
    }

    fn on_round(&mut self, round: Round, engine: &Engine) {
        let g = engine.gauges();
        self.history_series.push((round.0, g.history_len));
        self.waiting_series.push((round.0, g.waiting_len));
    }
}

/// One simulated group member: engine + workload generator + probe `P`.
/// The only simnet member for urcgc: the sweeps, the checker and the soak
/// differ in the probe they give it, never in how it drives the engine.
pub struct UrcgcNode<P = RecordingProbe> {
    engine: Engine,
    workload: Workload,
    rng: ChaCha8Rng,
    submitted: u64,
    /// Most recently processed foreign message (for [`DepPolicy`]).
    latest_foreign: Option<Mid>,
    /// Frames that failed to decode (corruption casualties).
    undecodable: u64,
    /// Reused encode arena: one allocation per outgoing frame, shared
    /// across every destination of a broadcast.
    frames: FrameCache,
    /// Optional overlay relay layer. `None` (the default) keeps the
    /// paper's direct n-unicast broadcast path, bit for bit.
    overlay: Option<Disseminator>,
    probe: P,
}

impl UrcgcNode {
    /// Builds the node for process `me` with the [`RecordingProbe`].
    pub fn new(me: ProcessId, cfg: ProtocolConfig, workload: Workload, seed: u64) -> Self {
        Self::with_probe(me, cfg, workload, seed, RecordingProbe::default())
    }

    /// Per-mid local processing rounds.
    pub fn deliveries(&self) -> &HashMap<Mid, Round> {
        &self.probe.deliveries
    }

    /// The exact order in which this node processed messages.
    pub fn delivery_log(&self) -> &[Mid] {
        &self.probe.delivery_log
    }

    /// The published dependency list of a message processed here.
    pub fn deps_of(&self, mid: Mid) -> Option<&[Mid]> {
        self.probe.deps_of.get(&mid).map(Vec::as_slice)
    }

    /// Per-mid generation rounds (own messages only).
    pub fn generated(&self) -> &HashMap<Mid, Round> {
        &self.probe.generated
    }

    /// Orphan-destruction victims observed by this node.
    pub fn discarded(&self) -> &[Mid] {
        &self.probe.discarded
    }

    /// Per-round history-length samples.
    pub fn history_series(&self) -> &[(u64, usize)] {
        &self.probe.history_series
    }

    /// Per-round waiting-list samples.
    pub fn waiting_series(&self) -> &[(u64, usize)] {
        &self.probe.waiting_series
    }
}

impl<P: Probe> UrcgcNode<P> {
    /// Builds the node for process `me`, observed by `probe`. The workload
    /// RNG is seeded from `seed` and `me` alone, so every probe sees the
    /// same run.
    pub fn with_probe(
        me: ProcessId,
        cfg: ProtocolConfig,
        workload: Workload,
        seed: u64,
        probe: P,
    ) -> Self {
        UrcgcNode {
            engine: Engine::new(me, cfg),
            workload,
            rng: ChaCha8Rng::seed_from_u64(
                seed ^ (0x9E37_79B9_7F4A_7C15u64).wrapping_mul(me.0 as u64 + 1),
            ),
            submitted: 0,
            latest_foreign: None,
            undecodable: 0,
            frames: FrameCache::new(),
            overlay: None,
            probe,
        }
    }

    /// Routes this node's `data`/`decision` broadcasts over the overlay
    /// instead of direct n-unicast (control traffic stays direct). Every
    /// group member must be given the same config.
    pub fn with_overlay(mut self, cfg: OverlayConfig) -> Self {
        let n = self.engine.config().n;
        self.overlay = Some(Disseminator::new(self.engine.me(), n, cfg));
        self
    }

    /// The overlay relay layer, if enabled.
    pub fn overlay(&self) -> Option<&Disseminator> {
        self.overlay.as_ref()
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The probe observing this node.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Messages this node has generated so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Frames dropped because they failed to decode (corruption).
    pub fn undecodable(&self) -> u64 {
        self.undecodable
    }

    /// Whether the node has generated its whole budget and owes nothing
    /// more ([`Engine::workload_quiescent`]).
    pub fn is_quiescent(&self) -> bool {
        self.engine
            .workload_quiescent(self.submitted, self.workload.total)
    }

    fn maybe_generate(&mut self, round: Round) {
        if !self.engine.status().is_active() || self.submitted >= self.workload.total {
            return;
        }
        if self.workload.gen_prob < 1.0 && !self.rng.gen_bool(self.workload.gen_prob) {
            return;
        }
        let deps: Vec<Mid> = match self.workload.deps {
            DepPolicy::OwnChain => vec![],
            DepPolicy::LatestForeign => self.latest_foreign.into_iter().collect(),
        };
        let payload = Bytes::from(vec![0u8; self.workload.payload_size]);
        if let Ok(mid) = self.engine.submit(payload, &deps) {
            self.submitted += 1;
            self.probe.generated(mid, round);
        }
    }

    /// Drains engine effects into the network and the probe.
    fn flush(&mut self, net: &mut NetCtx<'_>) {
        let me = self.engine.me();
        while let Some(out) = self.engine.poll_output() {
            match out {
                Output::Send { to, pdu } => {
                    net.send(to, pdu.kind().label(), self.frames.encode(&pdu));
                }
                Output::Broadcast { pdu } => {
                    let kind = pdu.kind().label();
                    let inner = self.frames.encode(&pdu);
                    match self.overlay.as_mut() {
                        Some(ov) => {
                            ov.sync_view(self.engine.view().flags());
                            let (envelope, targets) = ov.broadcast(&inner);
                            self.probe.broadcast_copies(targets.len() as u64);
                            for (i, to) in targets.into_iter().enumerate() {
                                if i == 0 {
                                    net.send(to, kind, envelope.clone());
                                } else {
                                    net.send_shared(to, kind, envelope.clone());
                                }
                            }
                        }
                        None => {
                            self.probe
                                .broadcast_copies(self.engine.config().n as u64 - 1);
                            net.broadcast(kind, inner);
                        }
                    }
                }
                Output::Deliver { msg } => {
                    self.probe.delivered(&msg, net.round());
                    if msg.mid.origin != me {
                        self.latest_foreign = Some(msg.mid);
                    }
                }
                Output::Confirm { .. } => {}
                Output::Discarded { mids } => self.probe.discarded(&mids),
                Output::StatusChanged { .. } => {}
            }
        }
    }

    /// Handles an arriving overlay envelope: forward-once to this node's
    /// children of the origin's tree, then unwrap and feed the engine.
    fn on_relay_frame(&mut self, frame: &Bytes, net: &mut NetCtx<'_>) {
        let disposition = {
            let ov = self.overlay.as_mut().expect("relay frame without overlay");
            ov.sync_view(self.engine.view().flags());
            ov.on_frame(frame)
        };
        match disposition {
            RelayDisposition::Deliver {
                origin,
                inner,
                forward,
                envelope,
            } => {
                for to in forward {
                    net.send_relayed(to, "relay", envelope.clone());
                }
                if self.engine.on_frame(origin, &inner).is_err() {
                    self.undecodable += 1;
                }
            }
            RelayDisposition::Duplicate => {}
            RelayDisposition::Undecodable => self.undecodable += 1,
        }
    }
}

impl<P: Probe> Node for UrcgcNode<P> {
    fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>) {
        self.maybe_generate(round);
        self.engine.begin_round(round);
        self.flush(net);
        self.probe.on_round(round, &self.engine);
    }

    fn on_frame(&mut self, from: ProcessId, frame: Bytes, net: &mut NetCtx<'_>) {
        // Corrupted frames (FaultPlan::corruption_rate) fail to decode and
        // are dropped — in-flight corruption degenerates to an omission,
        // which the protocol already recovers from.
        if self.overlay.is_some() && urcgc_overlay::is_relay_frame(&frame) {
            self.on_relay_frame(&frame, net);
        } else if self.engine.on_frame(from, &frame).is_err() {
            self.undecodable += 1;
        }
        self.flush(net);
    }

    fn is_done(&self) -> bool {
        self.is_quiescent()
    }
}

/// Consecutive all-quiescent rounds a urcgc harness runs before it stops:
/// long enough for in-flight frames and two more decision subruns to
/// settle (stability, cleaning and gap detection lag behind the last data
/// message by up to a subrun each).
pub const SETTLE_ROUNDS: u64 = 8;

/// Builder for [`GroupHarness`].
pub struct GroupHarnessBuilder {
    cfg: ProtocolConfig,
    workload: Workload,
    faults: FaultPlan,
    seed: u64,
    max_rounds: u64,
    adversary: Option<Box<dyn Adversary>>,
    overlay: Option<OverlayConfig>,
}

impl GroupHarnessBuilder {
    /// Sets every process's workload.
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = w;
        self
    }

    /// Sets the fault plan.
    pub fn faults(mut self, f: FaultPlan) -> Self {
        self.faults = f;
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the hard round limit.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Installs a delivery-schedule adversary (see
    /// [`urcgc_simnet::Adversary`]); the default is none, which leaves the
    /// engine schedule untouched.
    pub fn adversary(mut self, adv: Box<dyn Adversary>) -> Self {
        self.adversary = Some(adv);
        self
    }

    /// Routes every member's `data`/`decision` broadcasts over a shared
    /// overlay (see [`urcgc_overlay`]); the default is `None`, the paper's
    /// direct n-unicast.
    pub fn overlay(mut self, cfg: OverlayConfig) -> Self {
        self.overlay = Some(cfg);
        self
    }

    /// Builds the harness.
    pub fn build(self) -> GroupHarness {
        let n = self.cfg.n;
        let nodes: Vec<UrcgcNode> = (0..n)
            .map(|i| {
                let node = UrcgcNode::new(
                    ProcessId::from_index(i),
                    self.cfg.clone(),
                    self.workload.clone(),
                    self.seed,
                );
                match &self.overlay {
                    Some(ov) => node.with_overlay(ov.clone()),
                    None => node,
                }
            })
            .collect();
        let mut net = SimNet::new(
            nodes,
            self.faults,
            SimOptions {
                max_rounds: self.max_rounds,
                seed: self.seed,
                ..SimOptions::default()
            },
        );
        if let Some(adv) = self.adversary {
            net.set_adversary(adv);
        }
        GroupHarness { net }
    }
}

/// A full simulated group plus measurement extraction.
pub struct GroupHarness {
    net: SimNet<UrcgcNode>,
}

impl GroupHarness {
    /// Starts building a harness over `cfg`.
    pub fn builder(cfg: ProtocolConfig) -> GroupHarnessBuilder {
        GroupHarnessBuilder {
            cfg,
            workload: Workload::silent(),
            faults: FaultPlan::none(),
            seed: 1,
            max_rounds: 100_000,
            adversary: None,
            overlay: None,
        }
    }

    /// Direct access to the underlying network.
    pub fn net(&self) -> &SimNet<UrcgcNode> {
        &self.net
    }

    /// Steps one round.
    pub fn step(&mut self) {
        self.net.step();
    }

    /// Runs until every surviving node is quiescent (budget generated, no
    /// waiting backlog) for [`SETTLE_ROUNDS`] rounds in a row, or until
    /// `max_rounds`. Returns the collected report.
    pub fn run_to_completion(&mut self, max_rounds: u64) -> GroupReport {
        let mut quiescent_streak = 0u64;
        let mut rounds = 0u64;
        while rounds < max_rounds {
            self.net.step();
            rounds += 1;
            if self.net.all_done() {
                quiescent_streak += 1;
                if quiescent_streak >= SETTLE_ROUNDS {
                    break;
                }
            } else {
                quiescent_streak = 0;
            }
        }
        self.report(rounds)
    }

    /// Runs exactly `rounds` rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        self.net.run_rounds(rounds);
    }

    /// Builds the report as of now.
    pub fn report(&self, rounds: u64) -> GroupReport {
        let nodes = self.net.nodes();
        let n = nodes.len();
        let alive: Vec<bool> = (0..n)
            .map(|i| {
                let p = ProcessId::from_index(i);
                !self.net.is_crashed(p) && nodes[i].engine().status().is_active()
            })
            .collect();

        // Per-mid generation round (from its origin). BTreeMap: the loop
        // below must visit mids in a deterministic order — delay samples
        // (and their float-summed mean) would otherwise vary run to run
        // with HashMap's per-instance hash seed.
        let mut generated: BTreeMap<Mid, Round> = BTreeMap::new();
        for node in nodes {
            generated.extend(node.generated().iter().map(|(&m, &r)| (m, r)));
        }

        // Per-mid delays: processed-by-all-alive time minus generation time.
        // Classify each generated message against the surviving group:
        // processed by all (atomicity's "all of them"), by none (the
        // permitted "none of them" branch — e.g. a message lost together
        // with its crashed origin), or by a strict subset (an atomicity
        // violation if it persists at quiescence).
        let mut delays = urcgc_metrics::DelayStats::new();
        let mut fully_processed = 0u64;
        let mut unprocessed = 0u64;
        let mut partially_processed = 0u64;
        for (&mid, &gen_round) in &generated {
            let mut max_round = 0u64;
            let mut holders = 0usize;
            let mut survivors = 0usize;
            for (i, node) in nodes.iter().enumerate() {
                if !alive[i] {
                    continue;
                }
                survivors += 1;
                if let Some(r) = node.deliveries().get(&mid) {
                    holders += 1;
                    max_round = max_round.max(r.0);
                }
            }
            if survivors > 0 && holders == survivors {
                fully_processed += 1;
                let delta = max_round.saturating_sub(gen_round.0).max(1);
                delays.record(urcgc_simnet::rounds_to_rtd(delta));
            } else if holders == 0 {
                unprocessed += 1;
            } else {
                partially_processed += 1;
            }
        }

        GroupReport {
            rounds,
            quiesced: self.net.all_done(),
            alive,
            generated_total: generated.len() as u64,
            fully_processed,
            unprocessed,
            partially_processed,
            delays,
            stats: self.net.stats().clone(),
            statuses: nodes.iter().map(|nd| nd.engine().status()).collect(),
            flow_blocked_rounds: nodes
                .iter()
                .map(|nd| nd.engine().stats().flow_blocked_rounds)
                .sum(),
            history_series: nodes
                .iter()
                .map(|nd| nd.history_series().to_vec())
                .collect(),
            waiting_series: nodes
                .iter()
                .map(|nd| nd.waiting_series().to_vec())
                .collect(),
            last_processed: nodes
                .iter()
                .map(|nd| {
                    (0..n)
                        .map(|q| nd.engine().last_processed(ProcessId::from_index(q)))
                        .collect()
                })
                .collect(),
            discarded: nodes.iter().map(|nd| nd.discarded().to_vec()).collect(),
        }
    }
}

/// Measurements extracted from a finished run.
#[derive(Clone, Debug)]
pub struct GroupReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Whether the run ended because every surviving node quiesced
    /// (`false` means it hit the round limit with work still outstanding —
    /// the checker's stall oracle keys off this).
    pub quiesced: bool,
    /// Which processes survived (not crashed, not left/suicided).
    pub alive: Vec<bool>,
    /// Messages generated group-wide.
    pub generated_total: u64,
    /// Messages processed by *every* surviving process.
    pub fully_processed: u64,
    /// Messages processed by *no* surviving process (the "none of them"
    /// branch of uniform atomicity — typically messages lost together with
    /// their crashed origin).
    pub unprocessed: u64,
    /// Messages processed by a strict subset of the survivors — an
    /// atomicity violation if non-zero at quiescence.
    pub partially_processed: u64,
    /// End-to-end delays in rtd, one sample per fully processed message
    /// (generation → processed by the whole surviving group).
    pub delays: urcgc_metrics::DelayStats,
    /// Engine-level traffic/fault counters.
    pub stats: SimStats,
    /// Final status per process.
    pub statuses: Vec<ProcessStatus>,
    /// Group-wide total of rounds in which flow control suppressed a
    /// pending generation (Figure 6 b's cost metric).
    pub flow_blocked_rounds: u64,
    /// Per-process (round, history length) samples.
    pub history_series: Vec<Vec<(u64, usize)>>,
    /// Per-process (round, waiting length) samples.
    pub waiting_series: Vec<Vec<(u64, usize)>>,
    /// Per-process final `last_processed` vectors.
    pub last_processed: Vec<Vec<u64>>,
    /// Per-process orphan-destruction victims.
    pub discarded: Vec<Vec<Mid>>,
}

impl GroupReport {
    /// Uniform-atomicity check: every message that was generated was
    /// processed by every surviving process (no failures ⇒ must hold; with
    /// failures, holds for all non-discarded messages).
    pub fn all_processed_everything(&self) -> bool {
        self.fully_processed == self.generated_total
    }

    /// Uniform atomicity in its exact form (Definition 3.2): every message
    /// was processed either by all surviving processes or by none of them.
    /// Messages lost with a crashed origin fall in the "none" branch and do
    /// not violate atomicity.
    pub fn atomicity_holds(&self) -> bool {
        self.partially_processed == 0
    }

    /// Uniform-agreement check on frontiers: all surviving processes ended
    /// with identical `last_processed` vectors.
    pub fn frontiers_agree(&self) -> bool {
        let mut iter = self
            .alive
            .iter()
            .zip(&self.last_processed)
            .filter(|(a, _)| **a)
            .map(|(_, v)| v);
        let Some(first) = iter.next() else {
            return true;
        };
        iter.all(|v| v == first)
    }

    /// Duration in rtd units.
    pub fn rtd(&self) -> f64 {
        urcgc_simnet::rounds_to_rtd(self.rounds)
    }

    /// Maximum history length observed anywhere.
    pub fn max_history(&self) -> usize {
        self.history_series
            .iter()
            .flatten()
            .map(|&(_, l)| l)
            .max()
            .unwrap_or(0)
    }

    /// Maximum waiting-list length observed anywhere.
    pub fn max_waiting(&self) -> usize {
        self.waiting_series
            .iter()
            .flatten()
            .map(|&(_, l)| l)
            .max()
            .unwrap_or(0)
    }
}

/// A run outcome plus report, for callers that need both.
pub struct CompletedRun {
    /// Why the engine stopped.
    pub outcome: RunOutcome,
    /// The measurements.
    pub report: GroupReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_process_group_reaches_atomic_agreement() {
        let cfg = ProtocolConfig::new(5);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(10, 16))
            .seed(7)
            .build();
        let report = h.run_to_completion(1_000);
        assert_eq!(report.generated_total, 50);
        assert!(report.all_processed_everything());
        assert!(report.frontiers_agree());
        assert!(report.statuses.iter().all(|s| s.is_active()));
    }

    #[test]
    fn reliable_delay_floor_is_half_rtd() {
        let cfg = ProtocolConfig::new(4);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(5, 8).with_deps(DepPolicy::OwnChain))
            .seed(3)
            .build();
        let report = h.run_to_completion(500);
        assert!(report.all_processed_everything());
        // "under reliable system conditions D ≥ 1/2 rtd"
        assert!(report.delays.min().unwrap() >= 0.5);
        assert!(report.delays.mean().unwrap() < 2.0, "no recovery stalls");
    }

    #[test]
    fn histories_are_cleaned_under_reliable_conditions() {
        let cfg = ProtocolConfig::new(5);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(20, 8))
            .seed(11)
            .build();
        let report = h.run_to_completion(2_000);
        // Section 6 bounds the failure-free history at ~2n for the paper's
        // per-subrun generation; at our maximum service rate (one message
        // per *round* per process) the send→stable→purge pipeline is ~4
        // rounds deep, so the steady-state bound is ~4n.
        assert!(
            report.max_history() <= 4 * 5,
            "max history {} exceeds ~4n",
            report.max_history()
        );
        // After the run the histories have been purged to (near) empty.
        let final_lens: Vec<usize> = report
            .history_series
            .iter()
            .map(|s| s.last().map(|&(_, l)| l).unwrap_or(0))
            .collect();
        assert!(final_lens.iter().all(|&l| l <= 5), "{final_lens:?}");
    }

    #[test]
    fn omission_failures_are_recovered() {
        let cfg = ProtocolConfig::new(5);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(20, 8))
            .faults(FaultPlan::none().omission_rate(1.0 / 100.0))
            .seed(13)
            .build();
        let report = h.run_to_completion(4_000);
        assert!(
            report.all_processed_everything(),
            "fully {}/{} (statuses {:?})",
            report.fully_processed,
            report.generated_total,
            report.statuses
        );
        assert!(report.frontiers_agree());
    }

    #[test]
    fn crash_of_member_is_detected_and_group_continues() {
        let cfg = ProtocolConfig::new(5).with_k(2);
        // p4 crashes at round 6 (mid-run).
        let faults = FaultPlan::none().crash_at(ProcessId(4), Round(6));
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(15, 8))
            .faults(faults)
            .seed(17)
            .build();
        let report = h.run_to_completion(2_000);
        assert!(!report.alive[4]);
        // Survivors agree and processed all *surviving* messages.
        assert!(report.frontiers_agree());
        assert!(report.statuses[..4].iter().all(|s| s.is_active()));
        // The group view converged on p4's crash.
        // (Check through the last decision of p0's engine.)
        let d = h.net().node(ProcessId(0)).engine().last_decision();
        assert!(!d.process_state[4]);
    }

    #[test]
    fn coordinator_crash_defers_decision_one_subrun() {
        let cfg = ProtocolConfig::new(5).with_k(3);
        // The coordinator of subrun 1 (p1) crashes right before its
        // decision broadcast.
        let faults = FaultPlan::none().consecutive_coordinator_crashes(1, 1, 5);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(10, 8))
            .faults(faults)
            .seed(19)
            .build();
        let report = h.run_to_completion(2_000);
        assert!(report.frontiers_agree());
        assert!(report.statuses[0].is_active());
        // Processing was NOT suspended: delays stay flat (the urcgc
        // headline property, Figure 4 under crash conditions).
        assert!(report.delays.mean().unwrap() < 3.0);
    }

    #[test]
    fn report_distinguishes_quiescence_from_round_limit() {
        let cfg = ProtocolConfig::new(4);
        let mut h = GroupHarness::builder(cfg.clone())
            .workload(Workload::fixed_count(5, 8))
            .seed(23)
            .build();
        let done = h.run_to_completion(1_000);
        assert!(done.quiesced);
        // Same run cut off after 3 rounds: the budget cannot be finished.
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(5, 8))
            .seed(23)
            .build();
        let cut = h.run_to_completion(3);
        assert!(!cut.quiesced);
        assert_eq!(cut.rounds, 3);
    }

    #[test]
    fn schedule_adversary_reaches_the_engines() {
        struct Reverser;
        impl Adversary for Reverser {
            fn reorder(
                &mut self,
                _round: Round,
                frames: &[urcgc_simnet::FrameView],
            ) -> Option<Vec<usize>> {
                Some((0..frames.len()).rev().collect())
            }
        }
        let cfg = ProtocolConfig::new(4);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(8, 8))
            .seed(29)
            .adversary(Box::new(Reverser))
            .build();
        let report = h.run_to_completion(2_000);
        // Reordering within a round is a legal asynchrony: the protocol
        // must still reach atomic agreement.
        assert!(report.quiesced);
        assert!(report.all_processed_everything());
        assert!(report.frontiers_agree());
    }

    #[test]
    #[cfg(feature = "checker-knobs")]
    fn broken_purge_knob_discards_unstable_history() {
        // With the deliberate purge-before-stability bug and a slow
        // receiver, some node must at some point have purged past another
        // node's processed frontier — exactly what the checker's stability
        // oracle looks for. Sample the invariant every round.
        let cfg = ProtocolConfig::new(5).with_broken_purge_before_stability();
        let faults = FaultPlan::none().slow_sender(ProcessId(1), 2);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(20, 8))
            .faults(faults)
            .seed(31)
            .build();
        let mut violated = false;
        for _ in 0..2_000 {
            h.step();
            let nodes = h.net().nodes();
            'scan: for holder in nodes {
                if !holder.engine().status().is_active() {
                    continue;
                }
                for peer in nodes {
                    if !peer.engine().status().is_active()
                        || !holder.engine().view().is_alive(peer.engine().me())
                    {
                        continue;
                    }
                    for q in 0..5 {
                        let q = ProcessId::from_index(q);
                        if holder.engine().history_purged_to(q) > peer.engine().last_processed(q) {
                            violated = true;
                            break 'scan;
                        }
                    }
                }
            }
            if violated {
                break;
            }
        }
        assert!(violated, "broken purge never outran a peer's frontier");
    }

    #[test]
    fn overlay_group_reaches_atomic_agreement_with_flat_fanout() {
        let n = 9;
        let cfg = ProtocolConfig::new(n);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(8, 16))
            .seed(41)
            .overlay(OverlayConfig::tree(2, 0xfeed))
            .build();
        let report = h.run_to_completion(4_000);
        assert!(report.quiesced);
        assert!(report.all_processed_everything());
        assert!(report.frontiers_agree());
        // Dissemination really went hop-by-hop: interior tree nodes forwarded
        // frames, and the relayed byte gauge is non-zero.
        let relayed: u64 = report.stats.frames_relayed.iter().sum();
        assert!(relayed > 0, "no forwards — overlay was bypassed");
        assert!(report.stats.relayed_bytes > 0);
        // Flat fan-out: no process originates more than degree copies per
        // logical broadcast, where direct n-unicast would send n−1 = 8.
        // Compare against a direct-unicast twin of the same run.
        let cfg = ProtocolConfig::new(n);
        let mut direct = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(8, 16))
            .seed(41)
            .build();
        let dreport = direct.run_to_completion(4_000);
        let overlay_origin: u64 = report.stats.frames_sent.iter().sum();
        let direct_origin: u64 = dreport.stats.frames_sent.iter().sum();
        assert!(
            overlay_origin * 2 < direct_origin,
            "overlay originated {overlay_origin} vs direct {direct_origin}"
        );
    }

    #[test]
    fn overlay_survives_relay_node_crash() {
        // A mid-tree relay crashes while traffic is in flight; re-parenting
        // plus the engine's recovery path must still reach atomic agreement
        // among the survivors. K must absorb the re-parenting window: until
        // the coordinator declares the relay failed, decisions keep routing
        // through the corpse, so a downstream process can miss several
        // consecutive decisions without being at fault (PROTOCOL.md §8).
        let n = 7;
        let cfg = ProtocolConfig::new(n).with_k(4);
        let faults = FaultPlan::none().crash_at(ProcessId(3), Round(10));
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(10, 16))
            .faults(faults)
            .seed(43)
            .overlay(OverlayConfig::tree(2, 0xbeef))
            .build();
        let report = h.run_to_completion(6_000);
        assert!(!report.alive[3]);
        assert!(report.frontiers_agree());
        assert!(report.atomicity_holds());
        assert!(
            report.statuses[..3].iter().all(|s| s.is_active())
                && report.statuses[4..].iter().all(|s| s.is_active()),
            "statuses {:?} quiesced={} fully={}/{}",
            report.statuses,
            report.quiesced,
            report.fully_processed,
            report.generated_total,
        );
    }

    #[test]
    fn gossip_overlay_reaches_agreement_via_recovery() {
        // Gossip coverage is probabilistic; the engine's recovery-from-
        // history fills whatever the rumor missed, so the end state is
        // still uniform agreement.
        let cfg = ProtocolConfig::new(8);
        let mut h = GroupHarness::builder(cfg)
            .workload(Workload::fixed_count(6, 16))
            .seed(47)
            .overlay(OverlayConfig::gossip(3, 0xabcd))
            .build();
        let report = h.run_to_completion(6_000);
        assert!(report.quiesced, "gossip run stalled");
        assert!(report.all_processed_everything());
        assert!(report.frontiers_agree());
    }

    #[test]
    fn overlay_runs_are_deterministic() {
        let run = |seed: u64| {
            let cfg = ProtocolConfig::new(6);
            let mut h = GroupHarness::builder(cfg)
                .workload(Workload::bernoulli(0.5, 8, 8))
                .faults(FaultPlan::none().omission_rate(0.01))
                .seed(seed)
                .overlay(OverlayConfig::tree(3, 99))
                .build();
            let r = h.run_to_completion(4_000);
            (
                r.rounds,
                r.generated_total,
                r.fully_processed,
                r.stats.frames_sent,
                r.stats.frames_relayed,
            )
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn deterministic_runs_with_same_seed() {
        let run = |seed: u64| {
            let cfg = ProtocolConfig::new(4);
            let mut h = GroupHarness::builder(cfg)
                .workload(Workload::bernoulli(0.5, 10, 8))
                .faults(FaultPlan::none().omission_rate(0.01))
                .seed(seed)
                .build();
            let r = h.run_to_completion(3_000);
            (r.rounds, r.generated_total, r.fully_processed)
        };
        assert_eq!(run(5), run(5));
    }
}
