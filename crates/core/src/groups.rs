//! Client-server and diffusion group structures (Section 3).
//!
//! The paper presents urcgc over *peer groups* but notes it "may apply to
//! client server groups, through a proper management of the reply
//! messages, and to diffusion groups, by multicasting messages to the full
//! set of server and client processes" (following Birman's group
//! taxonomy). This module supplies that management:
//!
//! * **client-server group** — a core of servers runs the urcgc protocol
//!   among themselves; clients submit requests to a *home server*, which
//!   injects them into the group and sends the reply once it has processed
//!   the resulting message (the client-side analogue of `urcgc.data.Conf`);
//! * **diffusion group** — additionally, every message a server processes
//!   is forwarded to all clients, so passive clients observe the same
//!   causally ordered stream the servers agree on.
//!
//! Process-id space: servers occupy `0..servers`, clients
//! `servers..servers+clients`. Only servers run [`Engine`]s; the engine's
//! group cardinality is the *server* count.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use urcgc_simnet::{FaultPlan, NetCtx, Node, SimNet, SimOptions};
use urcgc_types::wire::encode_pdu_into;
use urcgc_types::{
    decode_pdu, DataMsg, FrameCache, Mid, Pdu, ProcessId, ProtocolConfig, Round, WireDecode,
    WireEncode,
};

use crate::engine::Engine;
use crate::output::Output;
use crate::sim::SETTLE_ROUNDS;

/// Parameters of a client-server (or diffusion) deployment.
#[derive(Clone, Debug)]
pub struct ClientServerConfig {
    /// Number of servers (the urcgc group).
    pub servers: usize,
    /// Number of clients.
    pub clients: usize,
    /// Diffusion mode: forward every processed message to all clients.
    pub diffusion: bool,
    /// Requests each client issues (one per round until exhausted).
    pub requests_per_client: u64,
    /// Request payload size.
    pub payload_size: usize,
    /// urcgc parameters for the server core (its `n` must equal `servers`).
    pub protocol: ProtocolConfig,
}

impl ClientServerConfig {
    /// A deployment with `servers` servers and `clients` clients using the
    /// default protocol parameters.
    pub fn new(servers: usize, clients: usize) -> Self {
        ClientServerConfig {
            servers,
            clients,
            diffusion: false,
            requests_per_client: 5,
            payload_size: 16,
            protocol: ProtocolConfig::new(servers),
        }
    }

    /// Enables diffusion mode.
    pub fn with_diffusion(mut self) -> Self {
        self.diffusion = true;
        self
    }

    /// Sets the per-client request budget.
    pub fn with_requests(mut self, requests: u64) -> Self {
        self.requests_per_client = requests;
        self
    }

    /// Total simulated processes.
    pub fn total(&self) -> usize {
        self.servers + self.clients
    }

    /// The home server of a client (round-robin by client index).
    pub fn home_server(&self, client: ProcessId) -> ProcessId {
        debug_assert!(client.index() >= self.servers);
        ProcessId::from_index((client.index() - self.servers) % self.servers)
    }
}

/// Frames on the client-server wire. Server↔server traffic carries urcgc
/// PDUs; the remaining variants implement the reply/diffusion management.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CsFrame {
    /// Server ↔ server urcgc protocol traffic.
    Urcgc(Pdu),
    /// Client → home server: please multicast this payload.
    ClientRq {
        /// Client-local request identifier.
        req_id: u64,
        /// The payload to multicast.
        payload: Bytes,
    },
    /// Home server → client: your request was processed as `mid`.
    Reply {
        /// Echoed request identifier.
        req_id: u64,
        /// The mid the group processed it under.
        mid: Mid,
    },
    /// Server → client (diffusion groups): a processed message, shared
    /// with the server engine's history (encoded once per diffusion).
    Diffusion(Arc<DataMsg>),
}

const TAG_URCGC: u8 = 0x40;
const TAG_CLIENT_RQ: u8 = 0x41;
const TAG_REPLY: u8 = 0x42;
const TAG_DIFFUSION: u8 = 0x43;

impl CsFrame {
    /// Appends the encoding of the frame to `b`.
    ///
    /// The urcgc arm encodes the PDU *directly* into the buffer — no
    /// intermediate frame allocation and copy.
    pub fn encode_into(&self, b: &mut BytesMut) {
        match self {
            CsFrame::Urcgc(pdu) => {
                b.put_u8(TAG_URCGC);
                encode_pdu_into(pdu, b);
            }
            CsFrame::ClientRq { req_id, payload } => {
                b.put_u8(TAG_CLIENT_RQ);
                b.put_u64_le(*req_id);
                b.put_u32_le(payload.len() as u32);
                b.put_slice(payload);
            }
            CsFrame::Reply { req_id, mid } => {
                b.put_u8(TAG_REPLY);
                b.put_u64_le(*req_id);
                mid.encode(b);
            }
            CsFrame::Diffusion(msg) => {
                b.put_u8(TAG_DIFFUSION);
                msg.encode(b);
            }
        }
    }

    /// Encodes the frame into a fresh allocation. One-shot convenience;
    /// send paths on the server go through the node's [`FrameCache`].
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        self.encode_into(&mut b);
        b.freeze()
    }

    /// Decodes a frame; `None` on malformed input.
    pub fn decode(mut frame: Bytes) -> Option<CsFrame> {
        if frame.remaining() < 1 {
            return None;
        }
        match frame.get_u8() {
            TAG_URCGC => decode_pdu(&frame).ok().map(CsFrame::Urcgc),
            TAG_CLIENT_RQ => {
                if frame.remaining() < 12 {
                    return None;
                }
                let req_id = frame.get_u64_le();
                let len = frame.get_u32_le() as usize;
                if frame.remaining() < len {
                    return None;
                }
                Some(CsFrame::ClientRq {
                    req_id,
                    payload: frame.split_to(len),
                })
            }
            TAG_REPLY => {
                if frame.remaining() < 18 {
                    return None;
                }
                let req_id = frame.get_u64_le();
                let mid = Mid::decode(&mut frame).ok()?;
                Some(CsFrame::Reply { req_id, mid })
            }
            TAG_DIFFUSION => Arc::decode(&mut frame).ok().map(CsFrame::Diffusion),
            _ => None,
        }
    }
}

/// A server: an urcgc engine plus reply/diffusion management.
pub struct ServerNode {
    engine: Engine,
    cfg: ClientServerConfig,
    /// Submitted-on-behalf bookkeeping: mid → (client, req_id).
    on_behalf: HashMap<Mid, (ProcessId, u64)>,
    /// Requests already accepted, and the reply if already confirmed:
    /// (client, req_id) → Some(mid). Lets retried requests be answered
    /// idempotently instead of multicast twice.
    accepted: HashMap<(ProcessId, u64), Option<Mid>>,
    /// Processed mids, for inspection.
    processed: Vec<Mid>,
    /// Reused encode arena: one allocation per outgoing frame, shared
    /// across every destination of a core broadcast or diffusion.
    frames: FrameCache,
}

impl ServerNode {
    fn new(me: ProcessId, cfg: ClientServerConfig) -> Self {
        ServerNode {
            engine: Engine::new(me, cfg.protocol.clone()),
            cfg,
            on_behalf: HashMap::new(),
            accepted: HashMap::new(),
            processed: Vec::new(),
            frames: FrameCache::new(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Messages processed by this server, in causal order.
    pub fn processed(&self) -> &[Mid] {
        &self.processed
    }

    fn flush(&mut self, net: &mut NetCtx<'_>) {
        let servers = self.cfg.servers;
        while let Some(out) = self.engine.poll_output() {
            match out {
                Output::Send { to, pdu } => {
                    let label = pdu.kind().label();
                    let cs = CsFrame::Urcgc(*pdu);
                    let frame = self.frames.encode_with(|b| cs.encode_into(b));
                    net.send(to, label, frame);
                }
                Output::Broadcast { pdu } => {
                    // urcgc traffic goes to the *server* core only.
                    let me = self.engine.me();
                    let label = pdu.kind().label();
                    // Shallow clone: Pdu::Data holds an Arc, and the frame
                    // is encoded exactly once for the whole fan-out; every
                    // copy after the first is a refcount bump, counted as
                    // shared bytes.
                    let cs = CsFrame::Urcgc(Pdu::clone(&pdu));
                    let frame = self.frames.encode_with(|b| cs.encode_into(b));
                    let mut first = true;
                    for i in 0..servers {
                        let to = ProcessId::from_index(i);
                        if to != me {
                            if first {
                                net.send(to, label, frame.clone());
                                first = false;
                            } else {
                                net.send_shared(to, label, frame.clone());
                            }
                        }
                    }
                }
                Output::Deliver { msg } => {
                    self.processed.push(msg.mid);
                    if self.cfg.diffusion {
                        let cs = CsFrame::Diffusion(Arc::clone(&msg));
                        let frame = self.frames.encode_with(|b| cs.encode_into(b));
                        let mut first = true;
                        for c in 0..self.cfg.clients {
                            // Each client receives the diffusion from its
                            // home server only (one copy, not one per
                            // server).
                            let client = ProcessId::from_index(servers + c);
                            if self.cfg.home_server(client) == self.engine.me() {
                                if first {
                                    net.send(client, "diffusion", frame.clone());
                                    first = false;
                                } else {
                                    net.send_shared(client, "diffusion", frame.clone());
                                }
                            }
                        }
                    }
                }
                Output::Confirm { mid } => {
                    if let Some((client, req_id)) = self.on_behalf.remove(&mid) {
                        self.accepted.insert((client, req_id), Some(mid));
                        let frame = self
                            .frames
                            .encode_with(|b| CsFrame::Reply { req_id, mid }.encode_into(b));
                        net.send(client, "reply", frame);
                    }
                }
                Output::Discarded { .. } | Output::StatusChanged { .. } => {}
            }
        }
    }
}

/// A client: issues requests to its home server and records replies (and,
/// in diffusion mode, the observed message stream).
pub struct ClientNode {
    me: ProcessId,
    cfg: ClientServerConfig,
    next_req: u64,
    /// req_id → (issue round, last transmission round).
    outstanding: HashMap<u64, (Round, Round)>,
    /// (req_id, mid, rtt in rounds) for completed requests.
    completed: Vec<(u64, Mid, u64)>,
    /// Diffusion stream observed (mids in arrival order).
    observed: Vec<Mid>,
}

impl ClientNode {
    fn new(me: ProcessId, cfg: ClientServerConfig) -> Self {
        ClientNode {
            me,
            cfg,
            next_req: 0,
            outstanding: HashMap::new(),
            completed: Vec::new(),
            observed: Vec::new(),
        }
    }

    /// Completed requests: (req_id, assigned mid, round-trip in rounds).
    pub fn completed(&self) -> &[(u64, Mid, u64)] {
        &self.completed
    }

    /// Requests still awaiting replies.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// The diffusion stream observed by this client.
    pub fn observed(&self) -> &[Mid] {
        &self.observed
    }
}

/// A node in a client-server deployment.
pub enum CsNode {
    /// A member of the urcgc server core (boxed: it dwarfs the client).
    Server(Box<ServerNode>),
    /// A protocol-external client.
    Client(ClientNode),
}

impl CsNode {
    /// The server variant, if this is one.
    pub fn as_server(&self) -> Option<&ServerNode> {
        match self {
            CsNode::Server(s) => Some(s),
            CsNode::Client(_) => None,
        }
    }

    /// The client variant, if this is one.
    pub fn as_client(&self) -> Option<&ClientNode> {
        match self {
            CsNode::Server(_) => None,
            CsNode::Client(c) => Some(c),
        }
    }
}

impl Node for CsNode {
    fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>) {
        match self {
            CsNode::Server(s) => {
                s.engine.begin_round(round);
                s.flush(net);
            }
            CsNode::Client(c) => {
                if c.next_req < c.cfg.requests_per_client {
                    let req_id = c.next_req;
                    c.next_req += 1;
                    c.outstanding.insert(req_id, (round, round));
                    let frame = CsFrame::ClientRq {
                        req_id,
                        payload: Bytes::from(vec![0u8; c.cfg.payload_size]),
                    }
                    .encode();
                    net.send(c.cfg.home_server(c.me), "client-rq", frame);
                }
                // Reply management: retransmit requests that have gone
                // unanswered for a few subruns (the request or its reply
                // was lost; server-side submission is idempotent per
                // req_id only if the server never saw it — a duplicate
                // submit yields a second mid but the client keeps only the
                // first reply, so at-least-once semantics hold).
                let home = c.cfg.home_server(c.me);
                let mut retries: Vec<u64> = Vec::new();
                for (&req_id, &(_, last_tx)) in &c.outstanding {
                    if round.0 >= last_tx.0 + 8 {
                        retries.push(req_id);
                    }
                }
                for req_id in retries {
                    if let Some(entry) = c.outstanding.get_mut(&req_id) {
                        entry.1 = round;
                    }
                    let frame = CsFrame::ClientRq {
                        req_id,
                        payload: Bytes::from(vec![0u8; c.cfg.payload_size]),
                    }
                    .encode();
                    net.send(home, "client-rq-retry", frame);
                }
            }
        }
    }

    fn on_frame(&mut self, from: ProcessId, frame: Bytes, net: &mut NetCtx<'_>) {
        let Some(frame) = CsFrame::decode(frame) else {
            return;
        };
        match (self, frame) {
            (CsNode::Server(s), CsFrame::Urcgc(pdu)) => {
                s.engine.on_pdu(from, pdu);
                s.flush(net);
            }
            (CsNode::Server(s), CsFrame::ClientRq { req_id, payload }) => {
                match s.accepted.get(&(from, req_id)) {
                    Some(Some(mid)) => {
                        // Retry of an already-confirmed request: re-send
                        // the reply (the first one was lost).
                        let frame = CsFrame::Reply { req_id, mid: *mid }.encode();
                        net.send(from, "reply", frame);
                    }
                    Some(None) => {
                        // Already submitted, confirmation pending: drop the
                        // duplicate.
                    }
                    None => {
                        if let Ok(mid) = s.engine.submit(payload, &[]) {
                            s.on_behalf.insert(mid, (from, req_id));
                            s.accepted.insert((from, req_id), None);
                        }
                        // The broadcast happens at the next round boundary;
                        // the reply follows the Confirm.
                    }
                }
            }
            (CsNode::Client(c), CsFrame::Reply { req_id, mid }) => {
                if let Some((issued, _)) = c.outstanding.remove(&req_id) {
                    let rtt = net.round().0.saturating_sub(issued.0);
                    c.completed.push((req_id, mid, rtt));
                }
            }
            (CsNode::Client(c), CsFrame::Diffusion(msg)) => {
                c.observed.push(msg.mid);
            }
            _ => {}
        }
    }

    fn is_done(&self) -> bool {
        match self {
            CsNode::Server(s) => s.engine.gauges().is_drained(),
            CsNode::Client(c) => {
                c.next_req >= c.cfg.requests_per_client && c.outstanding.is_empty()
            }
        }
    }
}

/// Outcome of a client-server run.
pub struct CsReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Per-server processed logs (causal order).
    pub server_logs: Vec<Vec<Mid>>,
    /// Per-client completed requests (req_id, mid, rtt rounds).
    pub client_completed: Vec<Vec<(u64, Mid, u64)>>,
    /// Per-client diffusion streams.
    pub client_observed: Vec<Vec<Mid>>,
}

impl CsReport {
    /// Whether every server processed the same message sequence per origin
    /// (agreement inside the core).
    pub fn servers_agree(&self) -> bool {
        let mut sorted: Vec<Vec<Mid>> = self
            .server_logs
            .iter()
            .map(|log| {
                let mut v = log.clone();
                v.sort();
                v
            })
            .collect();
        sorted.dedup();
        sorted.len() <= 1
    }

    /// Total completed client requests.
    pub fn total_completed(&self) -> usize {
        self.client_completed.iter().map(Vec::len).sum()
    }
}

/// Runs a client-server (or diffusion) deployment to quiescence.
pub fn run_client_server(
    cfg: ClientServerConfig,
    faults: FaultPlan,
    seed: u64,
    max_rounds: u64,
) -> CsReport {
    assert_eq!(
        cfg.protocol.n, cfg.servers,
        "protocol cardinality must equal the server count"
    );
    let total = cfg.total();
    let nodes: Vec<CsNode> = (0..total)
        .map(|i| {
            let me = ProcessId::from_index(i);
            if i < cfg.servers {
                CsNode::Server(Box::new(ServerNode::new(me, cfg.clone())))
            } else {
                CsNode::Client(ClientNode::new(me, cfg.clone()))
            }
        })
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
    let mut idle = 0;
    while rounds < max_rounds {
        net.step();
        rounds += 1;
        if net.all_done() {
            idle += 1;
            if idle >= SETTLE_ROUNDS {
                break;
            }
        } else {
            idle = 0;
        }
    }
    let server_logs = net
        .nodes()
        .iter()
        .filter_map(|n| n.as_server())
        .map(|s| s.processed().to_vec())
        .collect();
    let client_completed = net
        .nodes()
        .iter()
        .filter_map(|n| n.as_client())
        .map(|c| c.completed().to_vec())
        .collect();
    let client_observed = net
        .nodes()
        .iter()
        .filter_map(|n| n.as_client())
        .map(|c| c.observed().to_vec())
        .collect();
    CsReport {
        rounds,
        server_logs,
        client_completed,
        client_observed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips() {
        let frames = [
            CsFrame::Urcgc(Pdu::data(DataMsg {
                mid: Mid::new(ProcessId(0), 1),
                deps: vec![],
                round: Round(0),
                payload: Bytes::from_static(b"x"),
            })),
            CsFrame::ClientRq {
                req_id: 9,
                payload: Bytes::from_static(b"req"),
            },
            CsFrame::Reply {
                req_id: 9,
                mid: Mid::new(ProcessId(1), 4),
            },
            CsFrame::Diffusion(Arc::new(DataMsg {
                mid: Mid::new(ProcessId(2), 2),
                deps: vec![Mid::new(ProcessId(2), 1)],
                round: Round(3),
                payload: Bytes::from_static(b"d"),
            })),
        ];
        for f in frames {
            assert_eq!(CsFrame::decode(f.encode()), Some(f));
        }
        assert_eq!(CsFrame::decode(Bytes::from_static(&[0x99])), None);
        assert_eq!(CsFrame::decode(Bytes::new()), None);
    }

    #[test]
    fn home_server_round_robins() {
        let cfg = ClientServerConfig::new(3, 5);
        assert_eq!(cfg.home_server(ProcessId(3)), ProcessId(0));
        assert_eq!(cfg.home_server(ProcessId(4)), ProcessId(1));
        assert_eq!(cfg.home_server(ProcessId(5)), ProcessId(2));
        assert_eq!(cfg.home_server(ProcessId(6)), ProcessId(0));
    }

    #[test]
    fn client_requests_are_processed_and_replied() {
        let cfg = ClientServerConfig::new(3, 4).with_requests(3);
        let report = run_client_server(cfg, FaultPlan::none(), 5, 2_000);
        assert_eq!(report.total_completed(), 4 * 3, "every request replied");
        assert!(report.servers_agree());
        // Every server processed all 12 client messages.
        for log in &report.server_logs {
            assert_eq!(log.len(), 12);
        }
        // Round trips are small (rq → submit → broadcast → confirm → reply).
        for c in &report.client_completed {
            for &(_, _, rtt) in c {
                assert!((2..=8).contains(&rtt), "rtt {rtt} out of range");
            }
        }
    }

    #[test]
    fn diffusion_clients_observe_the_agreed_stream() {
        let cfg = ClientServerConfig::new(3, 3)
            .with_requests(4)
            .with_diffusion();
        let report = run_client_server(cfg, FaultPlan::none(), 7, 2_000);
        assert!(report.servers_agree());
        let server_set: std::collections::HashSet<Mid> =
            report.server_logs[0].iter().copied().collect();
        for (i, obs) in report.client_observed.iter().enumerate() {
            let obs_set: std::collections::HashSet<Mid> = obs.iter().copied().collect();
            assert_eq!(obs_set, server_set, "client {i} saw a different stream");
            // The home server forwards in its processing (= causal) order.
            let mut per_origin: HashMap<ProcessId, Vec<u64>> = HashMap::new();
            for m in obs {
                per_origin.entry(m.origin).or_default().push(m.seq);
            }
            for (origin, seqs) in per_origin {
                let mut sorted = seqs.clone();
                sorted.sort();
                assert_eq!(seqs, sorted, "client {i} out of order for {origin}");
            }
        }
    }

    #[test]
    fn server_crash_is_survivable_for_clients_of_other_servers() {
        let mut cfg = ClientServerConfig::new(4, 4).with_requests(3);
        cfg.protocol = ProtocolConfig::new(4).with_k(2);
        // Server p3 crashes early; its client (p7) loses service, but the
        // other clients' requests all complete.
        let faults = FaultPlan::none().crash_at(ProcessId(3), Round(4));
        let report = run_client_server(cfg, faults, 11, 4_000);
        for (i, completed) in report.client_completed[..3].iter().enumerate() {
            assert_eq!(completed.len(), 3, "client {i} lost requests");
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use urcgc_simnet::FaultPlan;

    #[test]
    fn diffusion_survives_omissions() {
        let mut cfg = ClientServerConfig::new(3, 3)
            .with_requests(5)
            .with_diffusion();
        cfg.protocol = ProtocolConfig::new(3).with_k(3);
        let faults = FaultPlan::none().omission_rate(0.01);
        let report = run_client_server(cfg, faults, 13, 6_000);
        assert!(report.servers_agree());
        assert_eq!(report.total_completed(), 3 * 5, "all requests replied");
        // Diffusion is best-effort per home server (no client-side
        // recovery), so clients may miss a frame under loss — but the
        // server core itself must be complete and agreed.
        for log in &report.server_logs {
            assert_eq!(log.len(), 15);
        }
    }

    #[test]
    fn client_requests_retry_is_not_needed_for_duplicate_replies() {
        // A client never sees two replies for the same req_id (the server
        // keys replies by mid and removes the binding on first Confirm).
        let cfg = ClientServerConfig::new(2, 2).with_requests(6);
        let report = run_client_server(cfg, FaultPlan::none(), 17, 4_000);
        for completed in &report.client_completed {
            let mut ids: Vec<u64> = completed.iter().map(|&(id, _, _)| id).collect();
            let before = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), before, "duplicate replies observed");
        }
    }
}
