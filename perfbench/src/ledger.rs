//! Delivery bookkeeping and the output checks.
//!
//! Every submission and every delivery of every member is recorded here as
//! it happens. Deliveries are checked on the spot for per-origin FIFO, for
//! duplicates and for declared dependencies delivered first; uniform
//! atomicity and completeness are checked by [`Ledger::settle`] over the
//! members that are still Active. Latencies go into round histograms.

use std::sync::Arc;

use urcgc_types::{DataMsg, Mid};

/// Histogram of whole-round durations.
#[derive(Clone, Debug, Default)]
pub struct Hist {
    counts: Vec<u64>,
}

impl Hist {
    /// Records one sample.
    pub fn add(&mut self, rounds: u64) {
        let i = rounds as usize;
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The smallest value at or below which a share `q` of the samples lie
    /// (nearest rank), or 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.len();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (v, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return v as u64;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// One group's records.
struct GroupLog {
    /// `[origin][seq - 1]` → round the message was due.
    due: Vec<Vec<u64>>,
    /// `[member][origin]` → highest seq delivered (deliveries are FIFO).
    frontier: Vec<Vec<u64>>,
    /// `[origin]` → highest seq purged from every Active member's history.
    cleaned: Vec<u64>,
}

/// How an episode's messages ended, over the members that ended Active.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Settled {
    /// Messages submitted.
    pub submitted: u64,
    /// Messages from an Active origin delivered to every Active member.
    pub complete: u64,
    /// Messages from an Active origin missing at some Active member.
    pub missing: u64,
    /// Messages of an origin that crashed or left, delivered to every
    /// Active member.
    pub kept_from_lost: u64,
    /// Messages of an origin that crashed or left, delivered to no Active
    /// member (the protocol promises all or none for these).
    pub lost_with_origin: u64,
}

/// Delivery records of one episode; see the module docs.
pub struct Ledger {
    groups: Vec<GroupLog>,
    /// Submit → delivery, per (message, receiving member).
    pub latency: Hist,
    /// Submit → purged from every Active member's history, per message.
    pub cleaning: Hist,
    /// Check violations found so far (the first few are kept verbatim).
    pub violations: Vec<String>,
    /// Violations found so far.
    pub violation_count: u64,
}

const KEPT_VIOLATIONS: usize = 8;

impl Ledger {
    /// Records for `groups` groups of `members` members each.
    pub fn new(groups: usize, members: usize) -> Ledger {
        Ledger {
            groups: (0..groups)
                .map(|_| GroupLog {
                    due: vec![Vec::new(); members],
                    frontier: vec![vec![0; members]; members],
                    cleaned: vec![0; members],
                })
                .collect(),
            latency: Hist::default(),
            cleaning: Hist::default(),
            violations: Vec::new(),
            violation_count: 0,
        }
    }

    /// Notes a check failure.
    pub fn violation(&mut self, what: String) {
        self.violation_count += 1;
        if self.violations.len() < KEPT_VIOLATIONS {
            self.violations.push(what);
        }
    }

    /// Records an accepted submission of `mid`, due at `round`.
    pub fn submitted(&mut self, group: usize, mid: Mid, round: u64) {
        let due = &mut self.groups[group].due[mid.origin.index()];
        if mid.seq != due.len() as u64 + 1 {
            let expected = due.len() + 1;
            self.violation(format!(
                "group {group}: submit assigned {mid}, expected seq {expected}"
            ));
            return;
        }
        due.push(round);
    }

    /// Records and checks `member`'s delivery of `msg` at `round`.
    pub fn delivered(&mut self, group: usize, member: usize, msg: &Arc<DataMsg>, round: u64) {
        let log = &mut self.groups[group];
        let origin = msg.mid.origin.index();
        let seq = msg.mid.seq;
        let prev = log.frontier[member][origin];
        let unmet = msg
            .deps
            .iter()
            .find(|d| log.frontier[member][d.origin.index()] < d.seq)
            .copied();
        let due = (seq as usize)
            .checked_sub(1)
            .and_then(|i| log.due[origin].get(i))
            .copied();
        if seq > prev {
            log.frontier[member][origin] = seq;
        }
        if seq != prev + 1 {
            let what = if seq <= prev { "duplicate" } else { "gap" };
            self.violation(format!(
                "group {group} member {member}: {what} delivery of {} after seq {prev}",
                msg.mid
            ));
        }
        if let Some(dep) = unmet {
            self.violation(format!(
                "group {group} member {member}: {} delivered before its dependency {dep}",
                msg.mid
            ));
        }
        match due {
            Some(due) if origin != member => self.latency.add(round - due),
            Some(_) => {}
            None => self.violation(format!(
                "group {group} member {member}: delivered {} that was never submitted",
                msg.mid
            )),
        }
    }

    /// Whether every message of `group` that must reach the members in
    /// `active` has reached them, and every delivered message is purged
    /// everywhere. Messages of an Active origin must be delivered to every
    /// Active member; those of a lost origin must be held by every Active
    /// member or by none.
    pub fn group_done(&self, group: usize, active: &[usize], origin_active: &[bool]) -> bool {
        let log = &self.groups[group];
        (0..log.due.len()).all(|o| {
            let mut fr = active.iter().map(|&m| log.frontier[m][o]);
            let first = fr.next().unwrap_or(0);
            let delivered = if origin_active[o] {
                first == log.due[o].len() as u64 && fr.all(|f| f == first)
            } else {
                fr.all(|f| f == first)
            };
            delivered && log.cleaned[o] >= first
        })
    }

    /// Advances the purge accounting of `(group, origin)` to `purged_to`,
    /// the lowest history purge frontier among the Active members, at
    /// `round`.
    pub fn purged(&mut self, group: usize, origin: usize, purged_to: u64, round: u64) {
        let log = &mut self.groups[group];
        let due = &log.due[origin];
        let upto = purged_to.min(due.len() as u64);
        while log.cleaned[origin] < upto {
            let due_round = due[log.cleaned[origin] as usize];
            log.cleaned[origin] += 1;
            self.cleaning.add(round - due_round);
        }
    }

    /// Whether `(group, origin)` still has delivered messages that some
    /// Active member has not purged.
    pub fn unpurged(&self, group: usize, origin: usize, active: &[usize]) -> bool {
        let log = &self.groups[group];
        active
            .iter()
            .any(|&m| log.frontier[m][origin] > log.cleaned[origin])
    }

    /// Classifies every message of `group` over the Active members. When
    /// the episode `completed`, checks uniform atomicity: a message held by
    /// one Active member must be held by all of them.
    pub fn settle(
        &mut self,
        group: usize,
        active: &[usize],
        origin_active: &[bool],
        completed: bool,
    ) -> Settled {
        let mut out = Settled::default();
        let mut broken = Vec::new();
        let log = &self.groups[group];
        for (o, due) in log.due.iter().enumerate() {
            let n = due.len() as u64;
            out.submitted += n;
            let lo = active
                .iter()
                .map(|&m| log.frontier[m][o])
                .min()
                .unwrap_or(0);
            let hi = active
                .iter()
                .map(|&m| log.frontier[m][o])
                .max()
                .unwrap_or(0);
            if hi > lo {
                broken.push((o, lo, hi));
            }
            if origin_active[o] {
                out.complete += lo;
                out.missing += n - lo;
            } else {
                out.kept_from_lost += lo;
                out.lost_with_origin += n - hi;
            }
        }
        if completed {
            for (o, lo, hi) in broken {
                self.violation(format!(
                    "group {group}: origin {o} messages {}..={hi} reached some Active members but not all",
                    lo + 1
                ));
            }
        }
        out
    }
}
