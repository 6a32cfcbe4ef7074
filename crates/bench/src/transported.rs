//! urcgc over the §5 transport service: a simulator node that pipes every
//! engine frame through a [`TransportEntity`] with a configurable
//! resilience threshold `h`.
//!
//! This realizes the trade-off Section 5 describes: "If the value `h` is
//! high, then the packet loss at the subnetwork level are covered by the
//! retries of the transport protocol and the urcgc protocol only has to
//! cope with the processes failures. If `h` is low, or `h = 1`, the
//! network failures are associated with the group processes and the
//! protocol recovers them by accessing the history. … we only observe a
//! different location of the retransmission function."
//!
//! The `ablation_h` binary sweeps `h` and shows recovery-from-history
//! traffic draining away as the transport absorbs the losses.

use std::collections::HashMap;

use bytes::Bytes;
use urcgc::sim::{DepPolicy, Workload, SETTLE_ROUNDS};
use urcgc::{Engine, Output};
use urcgc_simnet::{FaultPlan, NetCtx, Node, SimNet, SimOptions};
use urcgc_transport::{TOutput, TransportConfig, TransportEntity};
use urcgc_types::{encode_pdu, Mid, ProcessId, ProtocolConfig, Round};

/// A group member whose urcgc frames travel through a transport entity.
pub struct TransportedNode {
    engine: Engine,
    transport: TransportEntity,
    /// Retransmission threshold `h` for broadcasts (1 ..= n−1).
    h: usize,
    workload: Workload,
    submitted: u64,
    latest_foreign: Option<Mid>,
    deliveries: HashMap<Mid, Round>,
    generated: HashMap<Mid, Round>,
    seed_counter: u64,
}

impl TransportedNode {
    /// Builds the node. `h` is clamped to the broadcast destination count.
    pub fn new(me: ProcessId, cfg: ProtocolConfig, h: usize, workload: Workload) -> Self {
        let n = cfg.n;
        TransportedNode {
            engine: Engine::new(me, cfg),
            transport: TransportEntity::new(
                me,
                TransportConfig {
                    mtu: 4096,
                    // One round-trip between retransmissions: with h = 1 the
                    // first ack usually lands before the first retry, so the
                    // transport genuinely stops caring about the remaining
                    // destinations and the urcgc layer's history recovery
                    // has to carry them — the §5 trade-off under test.
                    retx_interval: 4,
                    max_retries: 3,
                    batch_retransmissions: false,
                },
            ),
            h: h.clamp(1, n.saturating_sub(1).max(1)),
            workload,
            submitted: 0,
            latest_foreign: None,
            deliveries: HashMap::new(),
            generated: HashMap::new(),
            seed_counter: 0,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Local deliveries.
    pub fn deliveries(&self) -> &HashMap<Mid, Round> {
        &self.deliveries
    }

    /// Own generation rounds.
    pub fn generated(&self) -> &HashMap<Mid, Round> {
        &self.generated
    }

    fn flush_engine(&mut self, round: Round) {
        let me = self.engine.me();
        let n = self.engine.config().n;
        while let Some(out) = self.engine.poll_output() {
            match out {
                Output::Send { to, pdu } => {
                    let sdu = encode_pdu(&pdu);
                    self.transport.t_data_rq(&[to], 1, sdu);
                }
                Output::Broadcast { pdu } => {
                    let sdu = encode_pdu(&pdu);
                    let dests: Vec<ProcessId> = (0..n)
                        .map(ProcessId::from_index)
                        .filter(|&p| p != me)
                        .collect();
                    if !dests.is_empty() {
                        let h = self.h.min(dests.len());
                        self.transport.t_data_rq(&dests, h, sdu);
                    }
                }
                Output::Deliver { msg } => {
                    self.deliveries.insert(msg.mid, round);
                    if msg.mid.origin != me {
                        self.latest_foreign = Some(msg.mid);
                    }
                }
                _ => {}
            }
        }
    }

    fn flush_transport(&mut self, round: Round, net: &mut NetCtx<'_>) {
        while let Some(out) = self.transport.poll_output() {
            match out {
                TOutput::Send { to, frame } => net.send(to, "transport", frame),
                TOutput::Ind { from, data } => {
                    // Reassembled urcgc PDU from a peer.
                    if self.engine.on_frame(from, &data).is_ok() {
                        self.flush_engine(round);
                    }
                }
                TOutput::Confirm { .. } => {}
            }
        }
    }
}

impl Node for TransportedNode {
    fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>) {
        if self.submitted < self.workload.total && self.engine.status().is_active() {
            self.seed_counter += 1;
            let x = (self.engine.me().0 as u64 + 3)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.seed_counter.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            if u < self.workload.gen_prob {
                let deps: Vec<Mid> = match self.workload.deps {
                    DepPolicy::OwnChain => vec![],
                    DepPolicy::LatestForeign => self.latest_foreign.into_iter().collect(),
                };
                if let Ok(mid) = self
                    .engine
                    .submit(Bytes::from(vec![0u8; self.workload.payload_size]), &deps)
                {
                    self.submitted += 1;
                    self.generated.insert(mid, round);
                }
            }
        }
        self.engine.begin_round(round);
        self.flush_engine(round);
        self.transport.on_tick();
        self.flush_transport(round, net);
    }

    fn on_frame(&mut self, from: ProcessId, frame: Bytes, net: &mut NetCtx<'_>) {
        self.transport.on_frame(from, frame);
        let round = net.round();
        self.flush_transport(round, net);
    }

    fn is_done(&self) -> bool {
        // Note: per-subrun control transfers keep the transport busy
        // forever, so transport in-flight state is deliberately NOT part of
        // the quiescence condition; the harness checks global completeness
        // instead.
        !self.engine.status().is_active()
            || (self.submitted >= self.workload.total && self.engine.gauges().is_drained())
    }
}

/// Outcome of a transported run.
pub struct TransportedReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Fraction of generated messages processed by every member.
    pub completeness: f64,
    /// Total urcgc recovery requests issued (recovery from history).
    pub recovery_requests: u64,
    /// Total transport frames on the wire (includes retransmissions/acks).
    pub transport_frames: u64,
    /// Mean end-to-end delay (rtd) for fully processed messages.
    pub mean_delay: f64,
}

/// Runs an `n`-member transported group under `loss` with threshold `h`.
pub fn run_transported(
    n: usize,
    h: usize,
    loss: f64,
    msgs_per_proc: u64,
    seed: u64,
    max_rounds: u64,
) -> TransportedReport {
    let cfg = ProtocolConfig::new(n).with_k(3).with_f_allowance(2);
    let workload = Workload::fixed_count(msgs_per_proc, 16);
    let nodes: Vec<TransportedNode> = (0..n)
        .map(|i| TransportedNode::new(ProcessId::from_index(i), cfg.clone(), h, workload.clone()))
        .collect();
    let faults = FaultPlan::none().omission_rate(loss);
    let mut net = SimNet::new(
        nodes,
        faults,
        SimOptions {
            max_rounds,
            seed,
            ..SimOptions::default()
        },
    );
    let mut rounds = 0;
    let mut idle = 0;
    while rounds < max_rounds {
        net.step();
        rounds += 1;
        // Global completeness: every node delivered everything generated.
        let complete = net.all_done() && {
            let total: u64 = net
                .nodes()
                .iter()
                .map(|nd| nd.generated().len() as u64)
                .sum();
            net.nodes()
                .iter()
                .all(|nd| nd.deliveries().len() as u64 == total)
        };
        if complete {
            idle += 1;
            if idle >= SETTLE_ROUNDS {
                break;
            }
        } else {
            idle = 0;
        }
    }
    let mut generated: HashMap<Mid, Round> = HashMap::new();
    for node in net.nodes() {
        generated.extend(node.generated().iter().map(|(&m, &r)| (m, r)));
    }
    let mut delays = urcgc_metrics::DelayStats::new();
    let mut full = 0u64;
    for (&mid, &gen) in &generated {
        let mut max_round = 0u64;
        let all = net
            .nodes()
            .iter()
            .all(|nd| match nd.deliveries().get(&mid) {
                Some(r) => {
                    max_round = max_round.max(r.0);
                    true
                }
                None => false,
            });
        if all {
            full += 1;
            delays.record(urcgc_simnet::rounds_to_rtd(
                max_round.saturating_sub(gen.0).max(1),
            ));
        }
    }
    let recovery_requests = net
        .nodes()
        .iter()
        .map(|nd| nd.engine().stats().recovery_requests)
        .sum();
    TransportedReport {
        rounds,
        completeness: if generated.is_empty() {
            1.0
        } else {
            full as f64 / generated.len() as f64
        },
        recovery_requests,
        transport_frames: net.stats().traffic.get("transport").count,
        mean_delay: delays.mean().unwrap_or(f64::NAN),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transported_group_converges_without_loss() {
        let r = run_transported(4, 1, 0.0, 5, 1, 4_000);
        assert_eq!(r.completeness, 1.0);
        assert_eq!(r.recovery_requests, 0, "no loss ⇒ no history recovery");
    }

    #[test]
    fn transported_group_converges_under_loss_at_h1() {
        let r = run_transported(4, 1, 0.03, 8, 2, 20_000);
        assert_eq!(r.completeness, 1.0, "history recovery must heal h=1");
    }

    #[test]
    fn high_h_shifts_retransmission_into_transport() {
        let loss = 0.03;
        let low = run_transported(5, 1, loss, 10, 3, 30_000);
        let high = run_transported(5, 4, loss, 10, 3, 30_000);
        assert_eq!(low.completeness, 1.0);
        assert_eq!(high.completeness, 1.0);
        // With h = n−1 the transport retries absorb losses, so the urcgc
        // layer issues (weakly) fewer recovery requests.
        assert!(
            high.recovery_requests <= low.recovery_requests,
            "h=4 recoveries {} > h=1 recoveries {}",
            high.recovery_requests,
            low.recovery_requests
        );
    }
}
