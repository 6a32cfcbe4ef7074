//! The four workloads and the seeded inputs they generate.
//!
//! Every workload uses 64-byte payloads, and every message depends on the
//! submitter's latest delivered foreign message. Generation is open loop in
//! simulated rounds: a message is submitted in the round it is due,
//! whatever the state of the group.

use urcgc_simnet::FaultPlan;
use urcgc_types::{ProcessId, Round};

/// Application payload size of every message.
pub const PAYLOAD: usize = 64;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One group of 10, direct n-unicast, no faults, one message per
    /// member per round.
    SteadyN10,
    /// One group of 20 at full load, 2 % omission, a slow sender and a
    /// crash.
    LossyN20,
    /// One group of 100 on a degree-8 tree overlay, 10 % load.
    OverlayN100,
    /// 1,000 groups of 3 on three `urcgc::Node` hosts, half of them idle.
    Multigroup1k,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SteadyN10,
        Workload::LossyN20,
        Workload::OverlayN100,
        Workload::Multigroup1k,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyN10 => "steady-n10",
            Workload::LossyN20 => "lossy-n20",
            Workload::OverlayN100 => "overlay-n100",
            Workload::Multigroup1k => "multigroup-1k",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size shape of one episode.
    pub fn spec(self) -> Spec {
        let base = Spec {
            workload: self,
            groups: 1,
            members: 10,
            overlay_degree: None,
            gen_prob: 1.0,
            gen_rounds: 0,
            msgs_per_group: 0,
            active_share: 0.0,
            omission: 0.0,
            slow: None,
            crash: None,
            drain_rounds: 600,
            episode_s: 1.0,
            speed_elasticity: 1.0,
        };
        match self {
            Workload::SteadyN10 => Spec {
                gen_rounds: 3_000,
                episode_s: 0.45,
                speed_elasticity: 1.3,
                ..base
            },
            Workload::LossyN20 => Spec {
                members: 20,
                gen_rounds: 750,
                omission: 0.02,
                slow: Some((1, 2)),
                crash: Some((19, 250)),
                episode_s: 0.6,
                speed_elasticity: 1.6,
                ..base
            },
            Workload::OverlayN100 => Spec {
                members: 100,
                overlay_degree: Some(8),
                gen_prob: 0.1,
                gen_rounds: 100,
                episode_s: 0.8,
                speed_elasticity: 1.2,
                ..base
            },
            Workload::Multigroup1k => Spec {
                groups: 1_000,
                members: 3,
                msgs_per_group: 8,
                active_share: 0.5,
                gen_rounds: START_SPREAD + 2 * 8,
                episode_s: 1.3,
                speed_elasticity: 1.7,
                ..base
            },
        }
    }
}

/// Active multigroup groups start within this many rounds of each other,
/// so their traffic overlaps rather than marching in lockstep.
const START_SPREAD: u64 = 64;

/// Shape of one episode of a workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The workload this shape belongs to.
    pub workload: Workload,
    /// Groups hosted (1 for the single-group workloads).
    pub groups: usize,
    /// Members per group; on `multigroup-1k` also the number of hosts.
    pub members: usize,
    /// Tree overlay degree, when data and decisions ride an overlay.
    pub overlay_degree: Option<usize>,
    /// Single-group: per-member, per-round submission probability.
    pub gen_prob: f64,
    /// Rounds during which messages are due.
    pub gen_rounds: u64,
    /// Multigroup: messages per active group.
    pub msgs_per_group: u64,
    /// Multigroup: share of groups that send.
    pub active_share: f64,
    /// Per-datagram omission probability (split over send and receive).
    pub omission: f64,
    /// Member whose frames arrive this many rounds late.
    pub slow: Option<(usize, u64)>,
    /// Member that crashes at this round.
    pub crash: Option<(usize, u64)>,
    /// Rounds allowed after generation ends for delivery and purge to
    /// finish; past them, what is missing counts as failed.
    pub drain_rounds: u64,
    /// Nominal wall seconds of one episode on the reference machine; sets
    /// how many episodes fill a run of a given length.
    pub episode_s: f64,
    /// How strongly this workload's speed follows the reference kernel's
    /// from run to run: timed figures are divided by the probed slowdown
    /// to this power. Fitted over thirty runs per workload; see
    /// `README.md`.
    pub speed_elasticity: f64,
}

impl Spec {
    /// A small version of the same shape, for self-tests.
    pub fn tiny(self) -> Spec {
        match self.workload {
            Workload::Multigroup1k => Spec { groups: 24, ..self },
            _ => Spec {
                gen_rounds: self.gen_rounds.min(60),
                crash: self.crash.map(|(p, _)| (p, 20)),
                ..self
            },
        }
    }

    /// Round budget of one episode.
    pub fn max_rounds(&self) -> u64 {
        self.gen_rounds + self.drain_rounds
    }

    /// The fault plan of an episode.
    pub fn faults(&self) -> FaultPlan {
        let mut plan = FaultPlan::none();
        if self.omission > 0.0 {
            plan = plan.omission_rate(self.omission);
        }
        if let Some((p, extra)) = self.slow {
            plan = plan.slow_sender(ProcessId::from_index(p), extra);
        }
        if let Some((p, round)) = self.crash {
            plan = plan.crash_at(ProcessId::from_index(p), Round(round));
        }
        plan
    }
}

/// splitmix64 of `a` keyed by `b`: the benchmark's one source of seeded
/// randomness.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a hash.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Sequential seeded draws.
#[derive(Clone, Debug)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A stream keyed by `seed` and `stream`.
    pub(crate) fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed, stream))
    }

    /// Next raw draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Bernoulli draw with probability `p`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        p >= 1.0 || unit(self.next_u64()) < p
    }
}

/// One multigroup submission: `(round, group)` for a given host.
pub(crate) type Due = (u64, u32);

/// The multigroup submission schedule of host `member`, sorted by round:
/// each active group (chosen from the seed) sends `msgs_per_group`
/// messages, one every two rounds (one per subrun) from a seeded start
/// round, round-robin over its members.
pub(crate) fn multigroup_schedule(spec: &Spec, seed: u64, member: usize) -> Vec<Due> {
    let mut due = Vec::new();
    for g in 0..spec.groups as u32 {
        if !group_active(spec, seed, g) {
            continue;
        }
        let start = mix(seed ^ 0xA5A5, u64::from(g)) % START_SPREAD;
        for i in 0..spec.msgs_per_group {
            if (i as usize) % spec.members == member {
                due.push((start + 2 * i, g));
            }
        }
    }
    due.sort_unstable();
    due
}

/// Whether multigroup group `g` sends, from the seed alone.
pub(crate) fn group_active(spec: &Spec, seed: u64, g: u32) -> bool {
    unit(mix(seed, u64::from(g))) < spec.active_share
}
