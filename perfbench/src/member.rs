//! One simulated deployment member: the program's layers wired the way the
//! runtime wires them, with every call into a layer wrapped in a span.
//!
//! Outbound, an engine output is encoded (`FrameCache::encode`, or
//! `Node::encode` with the group envelope), optionally wrapped by the
//! overlay (`Disseminator::broadcast`), split by `Fragmenter::split` at the
//! runtime's default MTU and handed to the simulated network datagram by
//! datagram. Inbound, datagrams pass `Reassembler::accept` on a simulated
//! clock, relay envelopes pass `Disseminator::on_frame` (and are forwarded),
//! and frames are decoded (`decode_pdu`) and fed to `Engine::on_pdu`, or
//! handed whole to `Node::on_frame`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use urcgc::{Engine, Node, Output};
use urcgc_overlay::{is_relay_frame, Disseminator, OverlayConfig, RelayDisposition};
use urcgc_runtime::{Fragmenter, NodeOptions, Reassembler};
use urcgc_simnet::NetCtx;
use urcgc_types::{decode_pdu, FrameCache, GroupId, Mid, Pdu, PduKind, ProcessId, Round};

use crate::ledger::Ledger;
use crate::trace::{Span, Tracer};
use crate::workload::{multigroup_schedule, Due, Rng, Spec, PAYLOAD};

/// State every member of an episode shares with the episode loop.
pub struct Shared {
    /// Span tracer (inert in untraced runs), shared by a run's episodes.
    pub tr: Rc<Tracer>,
    /// Delivery records and checks.
    pub ledger: RefCell<Ledger>,
}

/// Counters one member keeps about the traffic it handled.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Engine frames offered to the wire, one per destination.
    pub frames: u64,
    /// Frames split into datagrams.
    pub splits: u64,
    /// Datagrams those splits produced.
    pub fragments: u64,
    /// Splits that produced a single datagram.
    pub single: u64,
    /// Frames dropped because they failed to decode.
    pub undecodable: u64,
    /// Encoded bytes per PDU kind (data, request, decision, recovery).
    pub encoded: [u64; 4],
    /// Messages carried in recovery replies received.
    pub recovery_carried: u64,
    /// Most destinations of one overlay send.
    pub worst_fanout: u64,
    /// Frames of idle multigroup groups offered to the wire.
    pub idle_frames: u64,
    /// Most partial transfers buffered at once.
    pub peak_partials: u64,
    /// Overlay envelopes received (first sightings and duplicates).
    pub relay_frames: u64,
}

/// The protocol stack of a member. One per member, built once and never
/// moved in the hot path, so the size gap between variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Stack {
    /// A single-group member: one engine, its encode arena and optionally
    /// an overlay relay.
    Group {
        engine: Engine,
        frames: FrameCache,
        overlay: Option<Disseminator>,
        rng: Rng,
        latest_foreign: Option<Mid>,
    },
    /// A multigroup host: one `Node` hosting every group.
    Host {
        node: Node,
        schedule: Vec<Due>,
        next_due: usize,
        latest_foreign: Vec<Option<Mid>>,
        idle: Rc<Vec<bool>>,
    },
}

/// Where a frame goes.
enum Dest {
    /// One destination.
    One(ProcessId),
    /// Every other member.
    All,
    /// Overlay targets; `relayed` marks a forward of a received envelope.
    Overlay {
        targets: Vec<ProcessId>,
        relayed: bool,
    },
}

/// One member; implements the simulator's node interface.
pub struct Member {
    me: ProcessId,
    stack: Stack,
    frag: Fragmenter,
    reasm: Reassembler,
    round_len: Duration,
    gen_prob: f64,
    gen_rounds: u64,
    peers: usize,
    sh: Rc<Shared>,
    /// Traffic counters.
    pub counters: Counters,
}

impl Member {
    /// Builds member `me` of an episode of `spec` under `seed`. `idle`
    /// marks the multigroup groups that never send.
    pub fn new(spec: &Spec, seed: u64, me: usize, idle: &Rc<Vec<bool>>, sh: &Rc<Shared>) -> Member {
        let pid = ProcessId::from_index(me);
        let cfg = urcgc_types::ProtocolConfig::new(spec.members);
        let stack = if spec.groups == 1 {
            Stack::Group {
                engine: Engine::new(pid, cfg),
                frames: FrameCache::new(),
                overlay: spec
                    .overlay_degree
                    .map(|d| Disseminator::new(pid, spec.members, OverlayConfig::tree(d, seed))),
                rng: Rng::new(seed, me as u64),
                latest_foreign: None,
            }
        } else {
            let mut node = Node::new(pid);
            for g in 0..spec.groups as u32 {
                node.join(GroupId(g), cfg.clone())
                    .expect("each group is joined once");
            }
            Stack::Host {
                node,
                schedule: multigroup_schedule(spec, seed, me),
                next_due: 0,
                latest_foreign: vec![None; spec.groups],
                idle: Rc::clone(idle),
            }
        };
        let opts = NodeOptions::default();
        Member {
            me: pid,
            stack,
            frag: Fragmenter::new(pid, opts.mtu),
            reasm: Reassembler::new(opts.reassembly_ttl),
            round_len: opts.round_duration,
            gen_prob: spec.gen_prob,
            gen_rounds: spec.gen_rounds,
            peers: spec.members - 1,
            sh: Rc::clone(sh),
            counters: Counters::default(),
        }
    }

    /// The engine of `group` (the only engine of a single-group member).
    pub fn engine(&self, group: usize) -> &Engine {
        match &self.stack {
            Stack::Group { engine, .. } => engine,
            Stack::Host { node, .. } => node
                .engine(GroupId(group as u32))
                .expect("hosts join every group"),
        }
    }

    /// The overlay relay, if the member has one.
    pub fn overlay(&self) -> Option<&Disseminator> {
        match &self.stack {
            Stack::Group { overlay, .. } => overlay.as_ref(),
            Stack::Host { .. } => None,
        }
    }

    /// The multigroup host, if the member is one.
    pub fn node(&self) -> Option<&Node> {
        match &self.stack {
            Stack::Host { node, .. } => Some(node),
            Stack::Group { .. } => None,
        }
    }

    /// Mutable access to the multigroup host, if the member is one.
    pub fn node_mut(&mut self) -> Option<&mut Node> {
        match &mut self.stack {
            Stack::Host { node, .. } => Some(node),
            Stack::Group { .. } => None,
        }
    }

    /// Undecodable or inconsistent datagrams the reassembler dropped.
    pub fn malformed(&self) -> u64 {
        self.reasm.malformed()
    }

    /// Submits the messages due this round.
    fn generate(&mut self, round: u64) {
        let tr = &self.sh.tr;
        match &mut self.stack {
            Stack::Group {
                engine,
                rng,
                latest_foreign,
                ..
            } => {
                if round >= self.gen_rounds
                    || !engine.status().is_active()
                    || !rng.chance(self.gen_prob)
                {
                    return;
                }
                tr.enter(Span::Submit);
                let res = engine.submit(payload(), latest_foreign.as_slice());
                tr.exit(res.as_ref().ok().copied());
                if let Ok(mid) = res {
                    self.sh.ledger.borrow_mut().submitted(0, mid, round);
                }
            }
            Stack::Host {
                node,
                schedule,
                next_due,
                latest_foreign,
                ..
            } => {
                while let Some(&(at, g)) = schedule.get(*next_due) {
                    if at > round {
                        break;
                    }
                    *next_due += 1;
                    let deps = latest_foreign[g as usize].as_slice();
                    tr.enter(Span::NodeSubmit);
                    let res = node.submit(GroupId(g), payload(), deps);
                    tr.exit(res.as_ref().ok().copied());
                    if let Ok(mid) = res {
                        self.sh
                            .ledger
                            .borrow_mut()
                            .submitted(g as usize, mid, round);
                    }
                }
            }
        }
    }

    /// Splits `frame` and queues its datagrams to `dest`.
    fn send(&mut self, net: &mut NetCtx<'_>, dest: Dest, kind: &'static str, frame: &Bytes) {
        let datagrams = self.sh.tr.span(Span::Split, || self.frag.split(frame));
        let c = &mut self.counters;
        c.splits += 1;
        c.fragments += datagrams.len() as u64;
        if datagrams.len() == 1 {
            c.single += 1;
        }
        match dest {
            Dest::One(to) => {
                c.frames += 1;
                for d in datagrams {
                    net.send(to, kind, d);
                }
            }
            Dest::All => {
                c.frames += self.peers as u64;
                for d in datagrams {
                    net.broadcast(kind, d);
                }
            }
            Dest::Overlay { targets, relayed } => {
                c.frames += targets.len() as u64;
                c.worst_fanout = c.worst_fanout.max(targets.len() as u64);
                for d in &datagrams {
                    for (i, &to) in targets.iter().enumerate() {
                        if relayed {
                            net.send_relayed(to, kind, d.clone());
                        } else if i == 0 {
                            net.send(to, kind, d.clone());
                        } else {
                            net.send_shared(to, kind, d.clone());
                        }
                    }
                }
            }
        }
    }

    /// Drains the stack's outputs into the network and the ledger.
    fn flush(&mut self, net: &mut NetCtx<'_>) {
        let round = net.round().0;
        let sh = Rc::clone(&self.sh);
        let tr = &sh.tr;
        loop {
            let frames_before = self.counters.frames;
            let (group, out) = match &mut self.stack {
                Stack::Group { engine, .. } => {
                    tr.enter(Span::Poll);
                    let out = engine.poll_output();
                    tr.exit(out.as_ref().and_then(delivered_mid));
                    match out {
                        Some(out) => (0, out),
                        None => break,
                    }
                }
                Stack::Host { node, .. } => {
                    tr.enter(Span::NodePoll);
                    let out = node.poll_output();
                    tr.exit(out.as_ref().and_then(|(_, o)| delivered_mid(o)));
                    match out {
                        Some((g, out)) => (g.0 as usize, out),
                        None => break,
                    }
                }
            };
            match out {
                Output::Send { to, pdu } => {
                    let frame = self.encode(group, &pdu);
                    self.send(net, Dest::One(to), pdu.kind().label(), &frame);
                }
                Output::Broadcast { pdu } => {
                    let frame = self.encode(group, &pdu);
                    let kind = pdu.kind().label();
                    let relay = match &mut self.stack {
                        Stack::Group {
                            engine,
                            overlay: Some(ov),
                            ..
                        } => {
                            tr.span(Span::SyncView, || ov.sync_view(engine.view().flags()));
                            Some(tr.span(Span::Broadcast, || ov.broadcast(&frame)))
                        }
                        _ => None,
                    };
                    match relay {
                        Some((envelope, targets)) => self.send(
                            net,
                            Dest::Overlay {
                                targets,
                                relayed: false,
                            },
                            kind,
                            &envelope,
                        ),
                        None => self.send(net, Dest::All, kind, &frame),
                    }
                }
                Output::Deliver { msg } => {
                    sh.ledger
                        .borrow_mut()
                        .delivered(group, self.me.index(), &msg, round);
                    if msg.mid.origin != self.me {
                        match &mut self.stack {
                            Stack::Group { latest_foreign, .. } => *latest_foreign = Some(msg.mid),
                            Stack::Host { latest_foreign, .. } => {
                                latest_foreign[group] = Some(msg.mid)
                            }
                        }
                    }
                }
                Output::Discarded { .. }
                | Output::Confirm { .. }
                | Output::StatusChanged { .. } => {}
            }
            if let Stack::Host { idle, .. } = &self.stack {
                if idle[group] {
                    self.counters.idle_frames += self.counters.frames - frames_before;
                }
            }
        }
    }

    /// Encodes one PDU of `group` for the wire.
    fn encode(&mut self, group: usize, pdu: &Pdu) -> Bytes {
        let tr = &self.sh.tr;
        let frame = match &mut self.stack {
            Stack::Group { frames, .. } => {
                tr.enter(Span::Encode);
                let frame = frames.encode(pdu);
                tr.exit(data_mid(pdu));
                frame
            }
            Stack::Host { node, .. } => {
                tr.span(Span::NodeEncode, || node.encode(GroupId(group as u32), pdu))
            }
        };
        self.counters.encoded[kind_slot(pdu.kind())] += frame.len() as u64;
        frame
    }

    /// Decodes one engine frame from `from` and feeds it to the engine.
    fn on_engine_frame(&mut self, from: ProcessId, frame: &Bytes) {
        let tr = &self.sh.tr;
        let Stack::Group { engine, .. } = &mut self.stack else {
            unreachable!("engine frames reach single-group members only");
        };
        tr.enter(Span::Decode);
        let pdu = decode_pdu(frame);
        tr.exit(pdu.as_ref().ok().and_then(data_mid));
        let Ok(pdu) = pdu else {
            self.counters.undecodable += 1;
            return;
        };
        let span = match &pdu {
            Pdu::Data(_) => Span::OnData,
            Pdu::Request(_) => Span::OnRequest,
            Pdu::Decision(_) => Span::OnDecision,
            Pdu::RecoveryReply(r) => {
                self.counters.recovery_carried += r.messages.len() as u64;
                Span::OnRecovery
            }
            Pdu::RecoveryBatch(b) => {
                self.counters.recovery_carried +=
                    b.runs.iter().map(|r| r.messages.len() as u64).sum::<u64>();
                Span::OnRecovery
            }
            Pdu::RecoveryRq(_) | Pdu::RecoveryBatchRq(_) => Span::OnRecovery,
        };
        let mid = data_mid(&pdu);
        tr.enter(span);
        engine.on_pdu(from, pdu);
        tr.exit(mid);
    }

    /// Handles a complete frame that arrived from `from`.
    fn on_complete_frame(&mut self, from: ProcessId, frame: Bytes, net: &mut NetCtx<'_>) {
        let sh = Rc::clone(&self.sh);
        let tr = &sh.tr;
        match &mut self.stack {
            Stack::Host { node, .. } => {
                tr.span(Span::NodeOnFrame, || node.on_frame(from, &frame));
            }
            Stack::Group {
                engine,
                overlay: Some(ov),
                ..
            } if is_relay_frame(&frame) => {
                self.counters.relay_frames += 1;
                tr.span(Span::SyncView, || ov.sync_view(engine.view().flags()));
                match tr.span(Span::RelayFrame, || ov.on_frame(&frame)) {
                    RelayDisposition::Deliver {
                        origin,
                        inner,
                        forward,
                        envelope,
                    } => {
                        if !forward.is_empty() {
                            let dest = Dest::Overlay {
                                targets: forward,
                                relayed: true,
                            };
                            self.send(net, dest, "relay", &envelope);
                        }
                        self.on_engine_frame(origin, &inner);
                    }
                    RelayDisposition::Duplicate => {}
                    RelayDisposition::Undecodable => self.counters.undecodable += 1,
                }
            }
            Stack::Group { .. } => self.on_engine_frame(from, &frame),
        }
    }

    /// The simulated clock: rounds of the runtime's default length.
    fn now(&self, round: Round) -> Duration {
        self.round_len
            .saturating_mul(u32::try_from(round.0).unwrap_or(u32::MAX))
    }
}

impl urcgc_simnet::Node for Member {
    fn on_round(&mut self, round: Round, net: &mut NetCtx<'_>) {
        let sh = Rc::clone(&self.sh);
        let tr = &sh.tr;
        tr.set_member(self.me.0);
        tr.enter(Span::Driver);
        let now = self.now(round);
        tr.span(Span::Evict, || self.reasm.evict_expired(now));
        self.generate(round.0);
        match &mut self.stack {
            Stack::Group { engine, .. } => {
                let span = if round.is_request_phase() {
                    Span::BeginRequest
                } else {
                    Span::BeginDecide
                };
                tr.span(span, || engine.begin_round(round));
            }
            Stack::Host { node, .. } => tr.span(Span::NodeBeginRound, || node.begin_round(round)),
        }
        self.flush(net);
        tr.exit(None);
    }

    fn on_frame(&mut self, _from: ProcessId, datagram: Bytes, net: &mut NetCtx<'_>) {
        let sh = Rc::clone(&self.sh);
        let tr = &sh.tr;
        tr.set_member(self.me.0);
        tr.enter(Span::Driver);
        let now = self.now(net.round());
        let done = tr.span(Span::Accept, || self.reasm.accept(datagram, now));
        self.counters.peak_partials = self
            .counters
            .peak_partials
            .max(self.reasm.partials() as u64);
        if let Some((src, frame)) = done {
            self.on_complete_frame(src, frame, net);
            self.flush(net);
        }
        tr.exit(None);
    }
}

/// A message body: the same static bytes every time, so the benchmark's
/// own allocations stay out of the allocation counts.
fn payload() -> Bytes {
    static BODY: [u8; PAYLOAD] = [0; PAYLOAD];
    Bytes::from_static(&BODY)
}

/// The mid of a data PDU.
fn data_mid(pdu: &Pdu) -> Option<Mid> {
    match pdu {
        Pdu::Data(m) => Some(m.mid),
        _ => None,
    }
}

/// The mid of a delivery.
fn delivered_mid(out: &Output) -> Option<Mid> {
    match out {
        Output::Deliver { msg } => Some(msg.mid),
        _ => None,
    }
}

/// Slot of a PDU kind in [`Counters::encoded`].
fn kind_slot(kind: PduKind) -> usize {
    match kind {
        PduKind::Data => 0,
        PduKind::Request => 1,
        PduKind::Decision => 2,
        PduKind::RecoveryRq | PduKind::RecoveryReply => 3,
    }
}
