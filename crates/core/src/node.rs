//! The multi-group node façade: many [`Engine`]s behind one `GroupId`-keyed
//! surface.
//!
//! The paper's model is one process set running one group; every public API
//! in this workspace used to bake that in (`Engine::new(me, cfg)` with the
//! group implicit and global). The ROADMAP's scaling direction needs the
//! opposite shape: one OS process hosting 10^3–10^4 **shared-nothing**
//! groups, each a full URCGC instance with its own history, waiting list,
//! and rotating coordinator. [`Node`] is that pivot — it owns a
//! `BTreeMap<GroupId, Engine>` and redesigns the surface around the
//! explicit group key:
//!
//! * [`Node::submit`]`(group, payload, deps)` — submissions name their
//!   group;
//! * [`Node::poll_output`]` -> (GroupId, Output)` — effects come back
//!   tagged with the group that produced them;
//! * [`Node::on_frame`] — demultiplexes incoming group-tagged frames
//!   ([`urcgc_types::group`]) **before** PDU decode, so a frame addressed
//!   to a group this node does not host is dropped after a 9-byte header
//!   inspection. That is the node half of the *genuineness* property
//!   (only a message's destination groups take steps), and it is what the
//!   checker's genuineness oracle asserts over [`Node::foreign_frames`];
//! * [`Node::gauges`] — one read aggregating every hosted engine's
//!   [`EngineGauges`].
//!
//! [`Engine`] stays public as the single-group core — the simulator and
//! the digest-pinned sweep harnesses drive it directly — but the runtime,
//! the multigroup soak, and every future multi-group layer construct
//! engines only through this façade.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use urcgc_types::{decode_group, FrameCache, GroupId, Mid, Pdu, ProcessId, ProtocolConfig, Round};

use crate::engine::Engine;
use crate::output::{EngineGauges, Output, SubmitError};

/// Failures at the node surface (engine-level rejections are wrapped).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeError {
    /// The named group is not hosted by this node.
    UnknownGroup(GroupId),
    /// [`Node::join`] on a group this node already hosts.
    DuplicateGroup(GroupId),
    /// The hosted group's engine rejected the submission.
    Submit(SubmitError),
}

impl core::fmt::Display for NodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NodeError::UnknownGroup(g) => write!(f, "group {g} is not hosted here"),
            NodeError::DuplicateGroup(g) => write!(f, "group {g} is already hosted here"),
            NodeError::Submit(e) => write!(f, "submission rejected: {e}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<SubmitError> for NodeError {
    fn from(e: SubmitError) -> NodeError {
        NodeError::Submit(e)
    }
}

/// Aggregate gauges for one node — every hosted engine summed, plus the
/// node-level demux counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeGauges {
    /// Hosted groups.
    pub groups: usize,
    /// Per-field sums of every hosted engine's [`EngineGauges`].
    pub totals: EngineGauges,
    /// Frames dropped at demux because their destination group is not
    /// hosted here — each cost one header inspection and zero PDU decodes
    /// (the genuineness counter).
    pub foreign_frames: u64,
    /// Frames dropped because the group envelope or the inner frame failed
    /// to decode (corruption → omission).
    pub undecodable: u64,
}

/// One process hosting many shared-nothing URCGC groups — see the module
/// docs. All engines share this node's process id; group membership is
/// per-group via each group's [`ProtocolConfig`].
pub struct Node {
    me: ProcessId,
    groups: BTreeMap<GroupId, Engine>,
    frames: FrameCache,
    /// Groups whose engines may hold undrained outputs, oldest first.
    /// Duplicates are harmless: a stale entry drains to nothing.
    dirty: VecDeque<GroupId>,
    foreign_frames: u64,
    undecodable: u64,
}

impl Node {
    /// A node hosting no groups yet.
    pub fn new(me: ProcessId) -> Node {
        Node {
            me,
            groups: BTreeMap::new(),
            frames: FrameCache::new(),
            dirty: VecDeque::new(),
            foreign_frames: 0,
            undecodable: 0,
        }
    }

    /// Convenience: a node hosting exactly one group — the single-group
    /// deployment shape (the UDP runtime's default).
    ///
    /// # Panics
    /// Panics if `cfg` is invalid or `me` is outside the group (same
    /// contract as [`Engine::new`]).
    pub fn single(me: ProcessId, group: GroupId, cfg: ProtocolConfig) -> Node {
        let mut node = Node::new(me);
        node.join(group, cfg).expect("fresh node cannot collide");
        node
    }

    /// This node's process id (shared by every hosted engine).
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Starts hosting `group` with a fresh engine under `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg` is invalid or `me` is outside the group (same
    /// contract as [`Engine::new`]).
    pub fn join(&mut self, group: GroupId, cfg: ProtocolConfig) -> Result<(), NodeError> {
        if self.groups.contains_key(&group) {
            return Err(NodeError::DuplicateGroup(group));
        }
        self.groups.insert(group, Engine::new(self.me, cfg));
        Ok(())
    }

    /// Stops hosting `group`, dropping its engine and all its state.
    pub fn leave(&mut self, group: GroupId) -> Result<(), NodeError> {
        self.groups
            .remove(&group)
            .map(|_| ())
            .ok_or(NodeError::UnknownGroup(group))
    }

    /// Whether this node hosts `group`.
    pub fn hosts(&self, group: GroupId) -> bool {
        self.groups.contains_key(&group)
    }

    /// Hosted groups, ascending.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.groups.keys().copied()
    }

    /// Number of hosted groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Read access to one hosted engine (oracles, quiescence predicates).
    pub fn engine(&self, group: GroupId) -> Option<&Engine> {
        self.groups.get(&group)
    }

    /// `urcgc.data.Rq` into one hosted group; returns the assigned mid.
    pub fn submit(
        &mut self,
        group: GroupId,
        payload: Bytes,
        deps: &[Mid],
    ) -> Result<Mid, NodeError> {
        let engine = self
            .groups
            .get_mut(&group)
            .ok_or(NodeError::UnknownGroup(group))?;
        let mid = engine.submit(payload, deps)?;
        self.dirty.push_back(group);
        Ok(mid)
    }

    /// Advances every hosted group to `round`. Shared-nothing groups share
    /// nothing but the clock: one tick drives them all.
    pub fn begin_round(&mut self, round: Round) {
        for (&group, engine) in &mut self.groups {
            engine.begin_round(round);
            self.dirty.push_back(group);
        }
    }

    /// Demultiplexes one received group-tagged frame from peer `from`.
    ///
    /// Returns the destination group when the frame was accepted by that
    /// group's engine. A frame for a group this node does not host is
    /// dropped after the 9-byte header read — counted in
    /// [`Node::foreign_frames`], never decoded, never shown to any engine:
    /// the genuineness property, enforced structurally. Envelope or inner
    /// decode failures count as [`Node::undecodable`] (corruption
    /// degenerates to omission, which the protocol recovers from).
    pub fn on_frame(&mut self, from: ProcessId, frame: &Bytes) -> Option<GroupId> {
        let gf = match decode_group(frame) {
            Ok(gf) => gf,
            Err(_) => {
                self.undecodable += 1;
                return None;
            }
        };
        let Some(engine) = self.groups.get_mut(&gf.group) else {
            self.foreign_frames += 1;
            return None;
        };
        if engine.on_frame(from, &gf.inner).is_err() {
            self.undecodable += 1;
            return None;
        }
        self.dirty.push_back(gf.group);
        Some(gf.group)
    }

    /// Drains the next engine effect, tagged with the group that produced
    /// it. Groups drain in the order they were touched (round order within
    /// a tick, arrival order for frames), each to exhaustion.
    pub fn poll_output(&mut self) -> Option<(GroupId, Output)> {
        while let Some(group) = self.dirty.pop_front() {
            let Some(engine) = self.groups.get_mut(&group) else {
                continue; // left since it was marked
            };
            if let Some(out) = engine.poll_output() {
                // More may follow; keep the group at the front so it
                // drains fully before the next one starts.
                self.dirty.push_front(group);
                return Some((group, out));
            }
        }
        None
    }

    /// Encodes `pdu` as a group-tagged wire frame through the node's warm
    /// [`FrameCache`] — encoded once, clone per destination.
    pub fn encode(&mut self, group: GroupId, pdu: &Pdu) -> Bytes {
        self.frames.encode_group(group, pdu)
    }

    /// Aggregate gauges across every hosted engine, plus demux counters.
    pub fn gauges(&self) -> NodeGauges {
        let mut totals = EngineGauges::default();
        for engine in self.groups.values() {
            let g = engine.gauges();
            totals.history_len += g.history_len;
            totals.history_bytes += g.history_bytes;
            totals.history_segments += g.history_segments;
            totals.purge_lag += g.purge_lag;
            totals.waiting_len += g.waiting_len;
            totals.pending_len += g.pending_len;
        }
        NodeGauges {
            groups: self.groups.len(),
            totals,
            foreign_frames: self.foreign_frames,
            undecodable: self.undecodable,
        }
    }

    /// Per-group gauges, ascending by group (idle-group residency audits).
    pub fn group_gauges(&self) -> impl Iterator<Item = (GroupId, EngineGauges)> + '_ {
        self.groups.iter().map(|(&g, e)| (g, e.gauges()))
    }

    /// Frames dropped at demux for a non-hosted destination group (the
    /// genuineness counter; see [`Node::on_frame`]).
    pub fn foreign_frames(&self) -> u64 {
        self.foreign_frames
    }

    /// Frames dropped because the envelope or inner frame failed to decode.
    pub fn undecodable(&self) -> u64 {
        self.undecodable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GA: GroupId = GroupId(1);
    const GB: GroupId = GroupId(2);

    fn two_group_node(me: u16) -> Node {
        let mut node = Node::new(ProcessId(me));
        node.join(GA, ProtocolConfig::new(2)).unwrap();
        node.join(GB, ProtocolConfig::new(2)).unwrap();
        node
    }

    #[test]
    fn join_and_leave_manage_the_group_table() {
        let mut node = two_group_node(0);
        assert_eq!(node.group_count(), 2);
        assert!(node.hosts(GA) && node.hosts(GB));
        assert_eq!(
            node.join(GA, ProtocolConfig::new(2)),
            Err(NodeError::DuplicateGroup(GA))
        );
        node.leave(GA).unwrap();
        assert!(!node.hosts(GA));
        assert_eq!(node.leave(GA), Err(NodeError::UnknownGroup(GA)));
        assert_eq!(node.groups().collect::<Vec<_>>(), vec![GB]);
    }

    #[test]
    fn submit_requires_a_hosted_group() {
        let mut node = two_group_node(0);
        let err = node
            .submit(GroupId(99), Bytes::from_static(b"x"), &[])
            .unwrap_err();
        assert_eq!(err, NodeError::UnknownGroup(GroupId(99)));
        let mid = node.submit(GA, Bytes::from_static(b"x"), &[]).unwrap();
        assert_eq!(mid, Mid::new(ProcessId(0), 1));
        // Sequences are per group: the same node's first submission into
        // the other group draws seq 1 again.
        let mid_b = node.submit(GB, Bytes::from_static(b"y"), &[]).unwrap();
        assert_eq!(mid_b, Mid::new(ProcessId(0), 1));
    }

    #[test]
    fn outputs_come_back_group_tagged() {
        let mut node = two_group_node(0);
        node.submit(GA, Bytes::from_static(b"a"), &[]).unwrap();
        node.begin_round(Round(0));
        let mut saw_a_broadcast = false;
        while let Some((group, out)) = node.poll_output() {
            if let Output::Broadcast { pdu } = out {
                assert_eq!(group, GA, "only group A had a submission");
                assert!(matches!(&*pdu, Pdu::Data(_)));
                saw_a_broadcast = true;
            }
        }
        assert!(saw_a_broadcast);
    }

    /// The demux test of record: a frame addressed to group A must never
    /// reach group B's engine — and a frame for an unhosted group must be
    /// dropped before PDU decode, leaving a foreign-frame count behind.
    #[test]
    fn demux_never_crosses_groups() {
        // Peer node 1 produces a data broadcast in group A.
        let mut peer = two_group_node(1);
        peer.submit(GA, Bytes::from_static(b"hello A"), &[])
            .unwrap();
        peer.begin_round(Round(0));
        let mut wire: Option<Bytes> = None;
        while let Some((group, out)) = peer.poll_output() {
            if let Output::Broadcast { pdu } = out {
                if matches!(&*pdu, Pdu::Data(_)) {
                    wire = Some(peer.encode(group, &pdu));
                }
            }
        }
        let wire = wire.expect("peer broadcast a data frame");

        // Node 0 hosts A and B: the frame lands in A, and B's engine
        // observes nothing (its gauges stay zero).
        let mut node = two_group_node(0);
        assert_eq!(node.on_frame(ProcessId(1), &wire), Some(GA));
        let delivered: Vec<GroupId> = std::iter::from_fn(|| node.poll_output())
            .map(|(g, _)| g)
            .collect();
        assert!(delivered.iter().all(|&g| g == GA));
        assert_eq!(node.engine(GB).unwrap().gauges(), EngineGauges::default());
        assert_eq!(node.foreign_frames(), 0);

        // A node hosting only B drops the same frame at the header: the
        // genuineness counter ticks, no engine (and no PDU decode) runs.
        let mut only_b = Node::new(ProcessId(0));
        only_b.join(GB, ProtocolConfig::new(2)).unwrap();
        assert_eq!(only_b.on_frame(ProcessId(1), &wire), None);
        assert_eq!(only_b.foreign_frames(), 1);
        assert_eq!(only_b.undecodable(), 0);
        assert_eq!(only_b.engine(GB).unwrap().gauges(), EngineGauges::default());
    }

    #[test]
    fn corrupt_frames_count_as_undecodable() {
        let mut node = two_group_node(0);
        // Garbage that is not even an envelope.
        assert_eq!(
            node.on_frame(ProcessId(1), &Bytes::from_static(b"\x01garbage")),
            None
        );
        // A valid envelope around a corrupt inner frame.
        let enveloped = urcgc_types::encode_group(GA, b"not a pdu frame");
        assert_eq!(node.on_frame(ProcessId(1), &enveloped), None);
        assert_eq!(node.undecodable(), 2);
        assert_eq!(node.foreign_frames(), 0);
    }

    #[test]
    fn two_nodes_run_a_group_to_delivery_through_the_facade() {
        // A two-member group (A) plus an uninvolved group (B) on node 0:
        // drive rounds, ferry frames both ways, and require node 1 to
        // deliver node 0's message while B stays untouched.
        let mut n0 = two_group_node(0);
        let mut n1 = Node::single(ProcessId(1), GA, ProtocolConfig::new(2));
        n0.submit(GA, Bytes::from_static(b"payload"), &[]).unwrap();

        let mut delivered_at_1 = false;
        for r in 0..20u64 {
            n0.begin_round(Round(r));
            n1.begin_round(Round(r));
            // Drain both nodes alternately until neither has output,
            // ferrying every Send/Broadcast to the other node.
            loop {
                let mut progressed = false;
                while let Some((g, out)) = n0.poll_output() {
                    progressed = true;
                    match out {
                        Output::Send { pdu, .. } => {
                            let f = n0.encode(g, &pdu);
                            n1.on_frame(ProcessId(0), &f);
                        }
                        Output::Broadcast { pdu } => {
                            let f = n0.encode(g, &pdu);
                            n1.on_frame(ProcessId(0), &f);
                        }
                        _ => {}
                    }
                }
                while let Some((g, out)) = n1.poll_output() {
                    progressed = true;
                    match out {
                        Output::Send { pdu, .. } => {
                            let f = n1.encode(g, &pdu);
                            n0.on_frame(ProcessId(1), &f);
                        }
                        Output::Broadcast { pdu } => {
                            let f = n1.encode(g, &pdu);
                            n0.on_frame(ProcessId(1), &f);
                        }
                        Output::Deliver { msg } => {
                            assert_eq!(g, GA);
                            assert_eq!(msg.mid, Mid::new(ProcessId(0), 1));
                            delivered_at_1 = true;
                        }
                        _ => {}
                    }
                }
                if !progressed {
                    break;
                }
            }
            if delivered_at_1 {
                break;
            }
        }
        assert!(delivered_at_1, "group A never delivered through the façade");
        assert_eq!(n0.engine(GB).unwrap().gauges(), EngineGauges::default());
        assert_eq!(n0.foreign_frames() + n1.foreign_frames(), 0);
    }

    #[test]
    fn gauges_aggregate_across_groups() {
        let mut node = two_group_node(0);
        node.submit(GA, Bytes::from_static(b"a"), &[]).unwrap();
        node.submit(GB, Bytes::from_static(b"b"), &[]).unwrap();
        node.submit(GB, Bytes::from_static(b"c"), &[]).unwrap();
        let g = node.gauges();
        assert_eq!(g.groups, 2);
        assert_eq!(g.totals.pending_len, 3, "2 pending in B + 1 in A");
        let per: Vec<_> = node.group_gauges().collect();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].0, GA);
        assert_eq!(per[0].1.pending_len, 1);
        assert_eq!(per[1].1.pending_len, 2);
    }
}
