//! Episodes: each builds a deployment, runs it to completion on the
//! simulated network, and collects what the metrics are computed from.
//!
//! An episode ends when every submitted message has reached every member
//! still Active and has been purged from all their histories. A message of
//! an origin that crashed or left must reach every Active member or none.
//! If the round budget runs out first, what is missing counts as failed and
//! the checks fail.

use std::cell::RefCell;
use std::rc::Rc;

use urcgc::EngineStats;
use urcgc_simnet::{SimNet, SimOptions};
use urcgc_types::{GroupId, ProcessId};

use crate::alloc;
use crate::ledger::{Hist, Ledger, Settled};
use crate::member::{Counters, Member, Shared};
use crate::speed::{cpu_ns, probe, Meter};
use crate::trace::{Span, Tracer};
use crate::workload::{group_active, mix, Spec};

/// Setups timed before the episodes of a run, on top of each episode's
/// own, so the setup median rests on enough samples.
const SETUP_REPS: u64 = 100;

/// Gauge peaks over every member and round (sampled in traced runs only).
#[derive(Clone, Copy, Debug, Default)]
pub struct Peaks {
    /// History population of one member, in messages.
    pub history_msgs: u64,
    /// Payload bytes in one member's history.
    pub history_bytes: u64,
    /// Processing ahead of stability at one member, in messages.
    pub purge_lag: u64,
    /// Waiting-list population of one member.
    pub waiting: u64,
}

/// Everything one run measured, summed over its episodes.
#[derive(Default)]
pub struct Totals {
    /// Episodes run.
    pub episodes: u64,
    /// Every setup time measured, in CPU seconds, normalised to the
    /// reference speed (see [`crate::speed`]).
    pub setup_s: Vec<f64>,
    /// Wall seconds of the timed loops, as measured.
    pub wall_s: f64,
    /// Per episode, the machine's slowdown against the reference speed.
    pub slowdown: Vec<f64>,
    /// Per episode, messages completed per wall second, as measured.
    pub raw_rates: Vec<f64>,
    /// Per episode, messages completed per CPU second, normalised.
    pub episode_rates: Vec<f64>,
    /// Per episode, the CPU time of each of its `SimNet::step`s in round
    /// order, in ns, normalised.
    pub step_ns: Vec<Vec<f64>>,
    /// Rounds run.
    pub rounds: u64,
    /// How the messages ended.
    pub settled: Settled,
    /// Submit → delivery, per (message, receiving member), in rounds.
    pub latency: Hist,
    /// Submit → purged everywhere, per message, in rounds.
    pub cleaning: Hist,
    /// Check violations (the first few kept) and their count.
    pub violations: Vec<String>,
    /// Violations found.
    pub violation_count: u64,
    /// Datagrams offered to the wire and their bytes.
    pub datagrams: u64,
    /// Bytes of those datagrams, fragment headers included.
    pub wire_bytes: u64,
    /// Heap allocations during the timed loops.
    pub allocs: u64,
    /// Per episode, the peak live heap of its timed loop above the heap
    /// live before its setup (what the run accumulated earlier is left out).
    pub peak_heap: Vec<u64>,
    /// Member traffic counters, summed.
    pub counters: Counters,
    /// Engine counters, summed over members (and groups).
    pub engine: EngineStats,
    /// Gauge peaks.
    pub peaks: Peaks,
    /// Overlay envelopes forwarded and dropped as duplicates.
    pub forwarded: u64,
    /// Overlay envelopes dropped as duplicates.
    pub duplicates: u64,
    /// Datagrams lost to injected omissions.
    pub omitted: u64,
    /// Datagrams the reassemblers rejected.
    pub malformed: u64,
    /// Frames `Node` dropped for a group it does not host.
    pub foreign_frames: u64,
    /// Frames `Node` failed to decode.
    pub node_undecodable: u64,
    /// Idle groups times the rounds they ran, summed over episodes.
    pub idle_group_rounds: u64,
    /// Idle groups times the hosts hosting them, summed over episodes.
    pub idle_residencies: u64,
    /// Heap freed by leaving every idle group, summed over hosts.
    pub idle_heap: u64,
}

impl Totals {
    /// Messages submitted.
    pub fn submitted(&self) -> u64 {
        self.settled.submitted
    }

    /// Messages delivered to every member still Active.
    pub fn completed(&self) -> u64 {
        self.settled.complete + self.settled.kept_from_lost
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.violation_count == 0
    }
}

/// How many episodes fill a run of `seconds` on the reference machine.
/// Fixed per (workload, seconds), so the deterministic counts of a seed do
/// not depend on how fast the machine or the program is.
pub fn episodes_for(spec: &Spec, seconds: f64) -> u64 {
    ((seconds / spec.episode_s).round() as u64).max(1)
}

/// Runs `episodes` episodes of `spec` from `seed`, traced or not.
pub fn run(spec: &Spec, seed: u64, episodes: u64, tr: &Rc<Tracer>) -> Totals {
    let mut t = Totals::default();
    let inert = Rc::new(Tracer::new(false));
    let before = probe();
    let mut secs = Vec::new();
    for i in 0..SETUP_REPS {
        let (s, deployment) = setup(spec, mix(seed, u64::MAX - i), &inert);
        secs.push(s);
        drop(deployment);
    }
    let slowdown = ((before + probe()) / 2.0).powf(spec.speed_elasticity);
    t.setup_s.extend(secs.iter().map(|s| s / slowdown));
    for e in 0..episodes {
        episode(spec, mix(seed, e), tr, &mut t);
    }
    t
}

type Deployment = (SimNet<Member>, Rc<Shared>, Rc<Vec<bool>>);

/// Builds the deployment of one episode; returns the CPU seconds it took.
fn setup(spec: &Spec, seed: u64, tr: &Rc<Tracer>) -> (f64, Deployment) {
    let t0 = cpu_ns();
    let idle: Rc<Vec<bool>> = Rc::new(
        (0..spec.groups as u32)
            .map(|g| spec.groups > 1 && !group_active(spec, seed, g))
            .collect(),
    );
    let sh = Rc::new(Shared {
        tr: Rc::clone(tr),
        ledger: RefCell::new(Ledger::new(spec.groups, spec.members)),
    });
    let members: Vec<Member> = (0..spec.members)
        .map(|m| Member::new(spec, seed, m, &idle, &sh))
        .collect();
    let opts = SimOptions {
        max_rounds: spec.max_rounds(),
        seed: mix(seed, 0x5EED),
        bytes_window: Some(1 << 20),
    };
    let net = SimNet::new(members, spec.faults(), opts);
    ((cpu_ns() - t0) as f64 / 1e9, (net, sh, idle))
}

/// The members of one group that are Active at the end of the current
/// round, reused across rounds so bookkeeping does not allocate.
#[derive(Default)]
struct ActiveSet {
    members: Vec<usize>,
    flags: Vec<bool>,
}

impl ActiveSet {
    fn load(&mut self, net: &SimNet<Member>, group: usize) {
        self.members.clear();
        self.flags.clear();
        for m in 0..net.n() {
            let active = !net.is_crashed(ProcessId::from_index(m))
                && net.nodes()[m].engine(group).status().is_active();
            self.flags.push(active);
            if active {
                self.members.push(m);
            }
        }
    }
}

/// Advances purge accounting for every group at `round`; returns whether
/// every group is done (only evaluated once generation has ended).
fn bookkeep(
    spec: &Spec,
    net: &SimNet<Member>,
    sh: &Shared,
    round: u64,
    act: &mut ActiveSet,
) -> bool {
    let mut ledger = sh.ledger.borrow_mut();
    let mut done = round + 1 >= spec.gen_rounds;
    for g in 0..spec.groups {
        act.load(net, g);
        for o in 0..spec.members {
            if !ledger.unpurged(g, o, &act.members) {
                continue;
            }
            let q = ProcessId::from_index(o);
            let purged_to = act
                .members
                .iter()
                .map(|&m| net.nodes()[m].engine(g).history_purged_to(q))
                .min()
                .unwrap_or(0);
            ledger.purged(g, o, purged_to, round);
        }
        if done {
            done = ledger.group_done(g, &act.members, &act.flags);
        }
    }
    done
}

/// Samples gauge peaks over every member (traced runs only).
fn sample_peaks(net: &SimNet<Member>, peaks: &mut Peaks) {
    for m in net.nodes() {
        let g = match m.node() {
            Some(node) => node.gauges().totals,
            None => m.engine(0).gauges(),
        };
        peaks.history_msgs = peaks.history_msgs.max(g.history_len as u64);
        peaks.history_bytes = peaks.history_bytes.max(g.history_bytes as u64);
        peaks.purge_lag = peaks.purge_lag.max(g.purge_lag);
        peaks.waiting = peaks.waiting.max(g.waiting_len as u64);
    }
}

/// Runs one episode and folds it into `t`.
fn episode(spec: &Spec, seed: u64, tr: &Rc<Tracer>, t: &mut Totals) {
    let heap_before = alloc::live_bytes();
    let before = probe();
    let (setup_s, (mut net, sh, idle)) = setup(spec, seed, tr);
    let slowdown = ((before + probe()) / 2.0).powf(spec.speed_elasticity);
    t.setup_s.push(setup_s / slowdown);
    t.episodes += 1;

    let budget = spec.max_rounds();
    let mut act = ActiveSet::default();
    let mut completed = false;
    let mut rounds = 0;
    let mut meter = Meter::start(budget as usize, spec.speed_elasticity);
    alloc::reset_peak();
    let allocs_at_start = alloc::allocs();
    for round in 0..budget {
        tr.enter(Span::Driver);
        let s0 = cpu_ns();
        tr.span(Span::Step, || net.step());
        meter.step(cpu_ns() - s0);
        completed = bookkeep(spec, &net, &sh, round, &mut act);
        if tr.is_on() {
            sample_peaks(&net, &mut t.peaks);
        }
        tr.exit(None);
        rounds = round + 1;
        meter.tick(completed || rounds == budget);
        if completed {
            break;
        }
    }
    t.wall_s += meter.raw_s;
    t.allocs += alloc::allocs() - allocs_at_start;
    t.peak_heap
        .push(alloc::peak_bytes().saturating_sub(heap_before));
    t.rounds += rounds;

    let completed_before = t.completed();
    settle(spec, &net, &sh, completed, t);
    collect(spec, net, &idle, rounds, t);

    let done = (t.completed() - completed_before) as f64;
    t.slowdown.push(meter.slowdown());
    t.raw_rates.push(done / meter.raw_s);
    t.episode_rates.push(done / meter.norm_s);
    t.step_ns.push(std::mem::take(&mut meter.norm_steps));
}

/// Classifies the episode's messages and runs the end-of-episode checks.
fn settle(spec: &Spec, net: &SimNet<Member>, sh: &Shared, completed: bool, t: &mut Totals) {
    let mut ledger = sh.ledger.borrow_mut();
    if !completed {
        ledger.violation(format!(
            "round budget of {} exhausted before every message reached every Active member and was purged",
            spec.max_rounds()
        ));
    }
    let mut act = ActiveSet::default();
    for g in 0..spec.groups {
        act.load(net, g);
        let s = ledger.settle(g, &act.members, &act.flags, completed);
        t.settled.submitted += s.submitted;
        t.settled.complete += s.complete;
        t.settled.missing += s.missing;
        t.settled.kept_from_lost += s.kept_from_lost;
        t.settled.lost_with_origin += s.lost_with_origin;
    }
    let fault_free = spec.omission == 0.0 && spec.crash.is_none();
    let malformed: u64 = net.nodes().iter().map(Member::malformed).sum();
    let undecodable: u64 = net
        .nodes()
        .iter()
        .map(|m| m.counters.undecodable)
        .sum::<u64>()
        + net
            .nodes()
            .iter()
            .filter_map(Member::node)
            .map(|n| n.undecodable())
            .sum::<u64>();
    if fault_free && (malformed > 0 || undecodable > 0) {
        ledger.violation(format!(
            "fault-free run saw {malformed} malformed datagrams and {undecodable} undecodable frames"
        ));
    }
    let foreign: u64 = net
        .nodes()
        .iter()
        .filter_map(Member::node)
        .map(|n| n.foreign_frames())
        .sum();
    if foreign > 0 {
        ledger.violation(format!(
            "{foreign} frames reached a host not hosting their group"
        ));
    }
    t.malformed += malformed;
    t.foreign_frames += foreign;
    t.latency.merge(&ledger.latency);
    t.cleaning.merge(&ledger.cleaning);
    t.violation_count += ledger.violation_count;
    for v in &ledger.violations {
        if t.violations.len() < 8 {
            t.violations.push(v.clone());
        }
    }
}

/// Sums the members' counters, then measures idle-group residency by
/// leaving every idle group.
fn collect(spec: &Spec, net: SimNet<Member>, idle: &[bool], rounds: u64, t: &mut Totals) {
    let stats = net.stats();
    let traffic = stats.traffic.total();
    t.datagrams += traffic.count;
    t.wire_bytes += traffic.bytes;
    t.omitted += stats.send_omitted + stats.recv_omitted;
    for m in net.nodes() {
        let c = &m.counters;
        let s = &mut t.counters;
        s.frames += c.frames;
        s.splits += c.splits;
        s.fragments += c.fragments;
        s.single += c.single;
        s.undecodable += c.undecodable;
        for k in 0..4 {
            s.encoded[k] += c.encoded[k];
        }
        s.recovery_carried += c.recovery_carried;
        s.worst_fanout = s.worst_fanout.max(c.worst_fanout);
        s.idle_frames += c.idle_frames;
        s.peak_partials = s.peak_partials.max(c.peak_partials);
        s.relay_frames += c.relay_frames;
        if let Some(ov) = m.overlay() {
            t.forwarded += ov.forwarded();
            t.duplicates += ov.duplicates();
        }
        if let Some(node) = m.node() {
            t.node_undecodable += node.undecodable();
        }
        for g in 0..spec.groups {
            let e = m.engine(g).stats();
            let s = &mut t.engine;
            s.recovery_requests += e.recovery_requests;
            s.recovered += e.recovered;
            s.discarded += e.discarded;
            s.flow_blocked_rounds += e.flow_blocked_rounds;
            s.purged_messages += e.purged_messages;
        }
    }
    if spec.groups > 1 {
        let (mut nodes, _) = net.into_parts();
        let idle_ids: Vec<u32> = (0..spec.groups as u32)
            .filter(|&g| idle[g as usize])
            .collect();
        t.idle_group_rounds += idle_ids.len() as u64 * rounds;
        t.idle_residencies += (idle_ids.len() * nodes.len()) as u64;
        for m in &mut nodes {
            let node = m.node_mut().expect("multigroup members are hosts");
            let before = alloc::live_bytes();
            for &g in &idle_ids {
                node.leave(GroupId(g)).expect("idle groups are hosted");
            }
            t.idle_heap += before.saturating_sub(alloc::live_bytes());
        }
    }
}
