//! Executable CBCAST baseline (ISIS; Birman, Schiper, Stephenson 1991).
//!
//! Causal multicast by **vector timestamps**: every message carries the
//! sender's vector clock; a receiver delays delivery until the timestamp is
//! the immediate causal successor of its own clock
//! ([`VectorClock::cbcast_deliverable`]). Acknowledgements piggyback on the
//! timestamps themselves; silent members emit a small stability message
//! once per subrun so acks keep flowing (this is the `n+1` / `4(n+1)`-byte
//! reliable-path control traffic of Table 1).
//!
//! Failure handling is where CBCAST and urcgc part ways: on suspecting a
//! member, ISIS runs a **blocking flush / view-change protocol** — no
//! message delivery until the new view is installed. We model the flush as
//! a delivery freeze of the published duration `K(5f+6)` rtd (Figure 5)
//! while metering its `K((f+1)(2n−3)+1)` control messages; a faithful
//! packet-level ISIS implementation is out of scope (the paper, too,
//! compares against the model).

use std::collections::HashMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use urcgc_causal::VectorClock;
use urcgc_simnet::{FaultPlan, NetCtx, Node, SimNet, SimOptions};
use urcgc_types::{ProcessId, Round};

use crate::analytic::CbcastCost;

/// Simple per-process workload: up to `total` messages, one attempt per
/// round with probability `gen_prob`.
#[derive(Clone, Copy, Debug)]
pub struct Load {
    /// Per-round generation probability.
    pub gen_prob: f64,
    /// Total messages to generate.
    pub total: u64,
    /// Payload size in bytes.
    pub payload_size: usize,
    /// Keep per-message probe maps (generation/delivery rounds) for delay
    /// measurement. Disable for long-horizon soak runs: probes grow one
    /// entry per message, which at millions of messages is the difference
    /// between bounded and unbounded memory.
    pub probe: bool,
}

impl Load {
    /// Back-to-back generation.
    pub fn fixed(total: u64, payload_size: usize) -> Self {
        Load {
            gen_prob: 1.0,
            total,
            payload_size,
            probe: true,
        }
    }

    /// Disables per-message probe maps (counters only — soak mode).
    pub fn unprobed(mut self) -> Self {
        self.probe = false;
        self
    }
}

/// A CBCAST message on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CbMsg {
    /// Originating process.
    pub sender: ProcessId,
    /// Vector timestamp (sender component already incremented).
    pub ts: Vec<u32>,
    /// Round of generation (measurement only).
    pub round: Round,
    /// Application payload (empty for stability messages).
    pub payload: Bytes,
}

impl CbMsg {
    /// Encodes with ISIS's compressed 4-byte timestamp entries — the
    /// `4(n+1)` bytes of Table 1 plus payload.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(2 + 8 + 4 * self.ts.len() + 4 + self.payload.len());
        b.put_u16_le(self.sender.0);
        b.put_u64_le(self.round.0);
        b.put_u16_le(self.ts.len() as u16);
        for &c in &self.ts {
            b.put_u32_le(c);
        }
        b.put_u32_le(self.payload.len() as u32);
        b.put_slice(&self.payload);
        b.freeze()
    }

    /// Decodes a frame produced by [`CbMsg::encode`].
    pub fn decode(mut frame: Bytes) -> Option<CbMsg> {
        if frame.remaining() < 12 {
            return None;
        }
        let sender = ProcessId(frame.get_u16_le());
        let round = Round(frame.get_u64_le());
        let len = frame.get_u16_le() as usize;
        if frame.remaining() < 4 * len + 4 {
            return None;
        }
        let ts = (0..len).map(|_| frame.get_u32_le()).collect();
        let plen = frame.get_u32_le() as usize;
        if frame.remaining() < plen {
            return None;
        }
        let payload = frame.split_to(plen);
        Some(CbMsg {
            sender,
            ts,
            round,
            payload,
        })
    }

    fn clock(&self) -> VectorClock {
        VectorClock::from_components(self.ts.iter().map(|&c| c as u64).collect())
    }
}

/// Flush state during a (modeled) view change.
#[derive(Clone, Debug)]
struct Flush {
    /// Delivery resumes at this round.
    until: Round,
    /// Members being removed by this flush.
    suspects: Vec<ProcessId>,
}

/// One CBCAST group member.
pub struct CbcastNode {
    me: ProcessId,
    n: usize,
    k: u32,
    /// Delivered-message clock.
    vc: VectorClock,
    /// Messages received but not yet causally deliverable.
    buffer: Vec<CbMsg>,
    load: Load,
    submitted: u64,
    seed_counter: u64,
    /// Submissions blocked by an in-progress flush, stamped with the round
    /// the application *wanted* to send (ISIS blocks generation during a
    /// view change; the stall is visible in end-to-end delay).
    blocked_sends: std::collections::VecDeque<Round>,
    /// Last round we heard anything from each member.
    last_heard: Vec<Round>,
    /// Members in the current view.
    view: Vec<bool>,
    /// Rounds of silence before suspecting a member.
    suspicion_rounds: u64,
    /// Active flush, if any.
    flush: Option<Flush>,
    /// Completed view changes (the running `f` for flush-duration modeling).
    view_changes: u32,
    /// mid ≙ (sender, seq) → local delivery round (probe; empty when
    /// `load.probe` is off).
    deliveries: HashMap<(ProcessId, u64), Round>,
    /// Own generation rounds (probe; empty when `load.probe` is off).
    generated: HashMap<(ProcessId, u64), Round>,
    /// Messages delivered here (always counted, probed or not).
    delivered_count: u64,
    /// Rounds spent with delivery frozen by a flush.
    pub frozen_rounds: u64,
}

impl CbcastNode {
    /// Builds member `me` of an `n`-process CBCAST group. `k` is the ISIS
    /// failure-detection bound used for flush-duration modeling.
    pub fn new(me: ProcessId, n: usize, k: u32, load: Load) -> Self {
        CbcastNode {
            me,
            n,
            k,
            vc: VectorClock::zero(n),
            buffer: Vec::new(),
            load,
            submitted: 0,
            seed_counter: 0,
            blocked_sends: std::collections::VecDeque::new(),
            last_heard: vec![Round(0); n],
            view: vec![true; n],
            suspicion_rounds: 2 * k as u64 + 2,
            flush: None,
            view_changes: 0,
            deliveries: HashMap::new(),
            generated: HashMap::new(),
            delivered_count: 0,
            frozen_rounds: 0,
        }
    }

    /// Per-(sender, seq) delivery rounds.
    pub fn deliveries(&self) -> &HashMap<(ProcessId, u64), Round> {
        &self.deliveries
    }

    /// Own generation rounds.
    pub fn generated(&self) -> &HashMap<(ProcessId, u64), Round> {
        &self.generated
    }

    /// Messages generated so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Messages delivered here (including own), counter-only.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Current delivered-message clock.
    pub fn clock(&self) -> &VectorClock {
        &self.vc
    }

    /// Number of completed view changes.
    pub fn view_changes(&self) -> u32 {
        self.view_changes
    }

    /// Undeliverable backlog size.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    fn record_delivery(&mut self, msg: &CbMsg, now: Round) {
        self.delivered_count += 1;
        if self.load.probe {
            let seq = msg.ts[msg.sender.index()] as u64;
            self.deliveries.insert((msg.sender, seq), now);
        }
        self.vc.merge(&msg.clock());
    }

    fn try_drain(&mut self, now: Round) {
        if self.flush.is_some() {
            return;
        }
        loop {
            let idx = self
                .buffer
                .iter()
                .position(|m| self.vc.cbcast_deliverable(&m.clock(), m.sender));
            match idx {
                Some(i) => {
                    let msg = self.buffer.swap_remove(i);
                    self.record_delivery(&msg, now);
                }
                None => return,
            }
        }
    }

    fn maybe_suspect(&mut self, now: Round, net: &mut NetCtx<'_>) {
        if self.flush.is_some() || now.0 < self.suspicion_rounds {
            return;
        }
        let suspects: Vec<ProcessId> = (0..self.n)
            .map(ProcessId::from_index)
            .filter(|&p| {
                p != self.me
                    && self.view[p.index()]
                    && now.0 - self.last_heard[p.index()].0 > self.suspicion_rounds
            })
            .collect();
        if suspects.is_empty() {
            return;
        }
        // Start the flush: delivery freezes for the published view-change
        // duration, and the flush-protocol control messages hit the wire.
        let cost = CbcastCost {
            n: self.n,
            k: self.k,
        };
        let f = (suspects.len() as u32).saturating_sub(1);
        let duration_rounds = cost.recovery_time_rtd(f) * urcgc_simnet::ROUNDS_PER_RTD;
        let msgs = cost.control_msgs_crash(f);
        let flush_frame = Bytes::from(vec![0u8; cost.flush_size() as usize]);
        // The flush traffic is spread over the group; we charge this node
        // its per-member share so group-wide accounting matches the model.
        let share = msgs.div_ceil(self.n as u64);
        for _ in 0..share {
            net.broadcast("cbcast-flush", flush_frame.clone());
        }
        self.flush = Some(Flush {
            until: Round(now.0 + duration_rounds),
            suspects,
        });
    }

    fn finish_flush_if_due(&mut self, now: Round) {
        let Some(flush) = &self.flush else { return };
        if now < flush.until {
            self.frozen_rounds += 1;
            return;
        }
        for &p in &flush.suspects {
            self.view[p.index()] = false;
            // Messages from evicted members that never became deliverable
            // are discarded with the old view.
            self.buffer.retain(|m| m.sender != p);
        }
        self.view_changes += 1;
        self.flush = None;
        self.try_drain(now);
    }
}

impl Node for CbcastNode {
    fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>) {
        self.finish_flush_if_due(round);
        self.maybe_suspect(round, net);

        // The application's generation process runs regardless of protocol
        // state; what a flush blocks is the *send* (ISIS suspends message
        // generation and processing during a view change), so intents queue
        // with their original round stamp.
        if (self.submitted + self.blocked_sends.len() as u64) < self.load.total {
            // Cheap deterministic Bernoulli draw (splitmix-style hash of
            // (member, attempt counter)).
            self.seed_counter += 1;
            let x = (self.me.0 as u64 + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.seed_counter.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            if u < self.load.gen_prob {
                self.blocked_sends.push_back(round);
            }
        }
        if self.flush.is_none() {
            if let Some(intent_round) = self.blocked_sends.pop_front() {
                self.vc.tick(self.me);
                let msg = CbMsg {
                    sender: self.me,
                    ts: self.vc.components().iter().map(|&c| c as u32).collect(),
                    round: intent_round,
                    payload: Bytes::from(vec![0u8; self.load.payload_size]),
                };
                self.submitted += 1;
                self.delivered_count += 1;
                if self.load.probe {
                    let seq = self.vc.get(self.me);
                    self.generated.insert((self.me, seq), intent_round);
                    self.deliveries.insert((self.me, seq), round);
                }
                net.broadcast("cbcast-data", msg.encode());
                return;
            }
        }
        // Nothing sent this round: emit the stability/ack message once per
        // subrun so piggyback acknowledgements keep flowing.
        if round.is_request_phase() {
            let stab = CbMsg {
                sender: self.me,
                ts: self.vc.components().iter().map(|&c| c as u32).collect(),
                round,
                payload: Bytes::new(),
            };
            net.broadcast("cbcast-stability", stab.encode());
        }
    }

    fn on_frame(&mut self, from: ProcessId, frame: Bytes, net: &mut NetCtx<'_>) {
        let now = net.round();
        self.last_heard[from.index()] = now;
        let Some(msg) = CbMsg::decode(frame) else {
            return;
        };
        if !self.view[msg.sender.index()] {
            return; // evicted member
        }
        if msg.payload.is_empty() {
            // Pure stability/ack message: nothing to deliver.
            return;
        }
        if self.flush.is_some() {
            self.buffer.push(msg);
            return;
        }
        if self.vc.cbcast_deliverable(&msg.clock(), msg.sender) {
            self.record_delivery(&msg, now);
            self.try_drain(now);
        } else {
            self.buffer.push(msg);
        }
    }

    fn is_done(&self) -> bool {
        self.submitted >= self.load.total
            && self.blocked_sends.is_empty()
            && self.buffer.is_empty()
            && self.flush.is_none()
    }
}

/// Runs a CBCAST group and reports measured delays.
pub struct CbcastReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Delays (rtd) for messages delivered by every surviving member.
    pub delays: urcgc_metrics::DelayStats,
    /// Engine counters (traffic by kind, drops, …).
    pub stats: urcgc_simnet::SimStats,
    /// Rounds each node spent frozen in flushes.
    pub frozen_rounds: Vec<u64>,
}

/// Convenience harness mirroring `urcgc::sim::GroupHarness` for CBCAST.
pub fn run_cbcast_group(
    n: usize,
    k: u32,
    load: Load,
    faults: FaultPlan,
    seed: u64,
    max_rounds: u64,
) -> CbcastReport {
    let nodes: Vec<CbcastNode> = (0..n)
        .map(|i| CbcastNode::new(ProcessId::from_index(i), n, k, load))
        .collect();
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
    let mut idle_streak = 0;
    while rounds < max_rounds {
        net.step();
        rounds += 1;
        if net.all_done() {
            idle_streak += 1;
            if idle_streak >= 4 {
                break;
            }
        } else {
            idle_streak = 0;
        }
    }

    let alive: Vec<bool> = (0..n)
        .map(|i| !net.is_crashed(ProcessId::from_index(i)))
        .collect();
    let mut generated: HashMap<(ProcessId, u64), Round> = HashMap::new();
    for node in net.nodes() {
        generated.extend(node.generated().iter().map(|(&k, &v)| (k, v)));
    }
    let mut delays = urcgc_metrics::DelayStats::new();
    for (&key, &gen) in &generated {
        let mut max_round = 0u64;
        let mut all = true;
        for (i, node) in net.nodes().iter().enumerate() {
            if !alive[i] {
                continue;
            }
            match node.deliveries().get(&key) {
                Some(r) => max_round = max_round.max(r.0),
                None => {
                    all = false;
                    break;
                }
            }
        }
        if all {
            let delta = max_round.saturating_sub(gen.0).max(1);
            delays.record(urcgc_simnet::rounds_to_rtd(delta));
        }
    }
    let frozen_rounds = net.nodes().iter().map(|nd| nd.frozen_rounds).collect();
    let stats = net.stats().clone();
    CbcastReport {
        rounds,
        delays,
        stats,
        frozen_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_roundtrip() {
        let m = CbMsg {
            sender: ProcessId(2),
            ts: vec![1, 0, 3],
            round: Round(9),
            payload: Bytes::from_static(b"pay"),
        };
        assert_eq!(CbMsg::decode(m.encode()), Some(m));
    }

    #[test]
    fn decode_rejects_truncation() {
        let m = CbMsg {
            sender: ProcessId(0),
            ts: vec![1, 1],
            round: Round(0),
            payload: Bytes::from_static(b"xy"),
        };
        let enc = m.encode();
        for cut in 0..enc.len() {
            let mut part = enc.clone();
            part.truncate(cut);
            assert_eq!(CbMsg::decode(part), None, "cut at {cut}");
        }
    }

    #[test]
    fn stability_message_size_matches_table1_shape() {
        // 4(n+1) bytes of timestamp for n = 15, plus our fixed header.
        let n = 15;
        let m = CbMsg {
            sender: ProcessId(0),
            ts: vec![0; n],
            round: Round(0),
            payload: Bytes::new(),
        };
        let frame = m.encode();
        // header: 2 (sender) + 8 (round) + 2 (len) + 4 (payload len) = 16
        assert_eq!(frame.len(), 16 + 4 * n);
    }

    #[test]
    fn reliable_group_delivers_everything_causally() {
        let report = run_cbcast_group(4, 3, Load::fixed(8, 8), FaultPlan::none(), 1, 500);
        assert_eq!(report.delays.count(), 4 * 8);
        assert!(report.delays.min().unwrap() >= 0.5);
        assert!(report.frozen_rounds.iter().all(|&f| f == 0));
    }

    #[test]
    fn crash_triggers_blocking_flush() {
        let faults = FaultPlan::none().crash_at(ProcessId(3), Round(4));
        let report = run_cbcast_group(4, 2, Load::fixed(30, 8), faults, 2, 4_000);
        // Survivors froze for the modeled view-change duration.
        assert!(
            report.frozen_rounds[..3].iter().all(|&f| f > 0),
            "frozen: {:?}",
            report.frozen_rounds
        );
        // Flush control traffic hit the wire.
        assert!(report.stats.traffic.get("cbcast-flush").count > 0);
    }
}
