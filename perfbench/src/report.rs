//! Metric computation and output: the human report and the result line.

use std::fmt::Write as _;

use crate::run::Totals;
use crate::trace::{Layer, Sample, Span, Tracer};

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `values`, or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per round of an episode, the median of that round's step time over the
/// episodes that ran it; rounds that fewer than half the episodes ran are
/// left out. The episodes of a workload share their round schedule, so a
/// round the protocol makes heavy stays heavy here, while a step the host
/// happened to slow down is outvoted by the same round of other episodes.
fn round_medians(episodes: &[Vec<f64>]) -> Vec<f64> {
    let rounds = episodes.iter().map(Vec::len).max().unwrap_or(0);
    let mut times = Vec::with_capacity(episodes.len());
    (0..rounds)
        .map_while(|r| {
            times.clear();
            times.extend(episodes.iter().filter_map(|e| e.get(r).copied()));
            (2 * times.len() >= episodes.len()).then(|| median(&times))
        })
        .collect()
}

/// Share of submitted messages missing at some Active member.
pub fn failed_share(t: &Totals) -> f64 {
    ratio(t.settled.missing as f64, t.submitted() as f64)
}

/// The end-to-end metrics of a run.
pub fn end_to_end(t: &Totals) -> Vec<Metric> {
    let msgs = t.submitted() as f64;
    let peaks: Vec<f64> = t.peak_heap.iter().map(|&b| b as f64).collect();
    let mut steps = round_medians(&t.step_ns);
    steps.sort_unstable_by(f64::total_cmp);
    let step_us = |q: f64| match steps.len() {
        0 => 0.0,
        n => steps[((q * n as f64).ceil() as usize).clamp(1, n) - 1] / 1e3,
    };
    vec![
        m("setup_s", median(&t.setup_s), "s"),
        m("msgs_per_s", median(&t.episode_rates), "msg/s"),
        m("round_us_p50", step_us(0.50), "us"),
        m("round_us_p99", step_us(0.99), "us"),
        m(
            "latency_rounds_p50",
            t.latency.quantile(0.50) as f64,
            "rounds",
        ),
        m(
            "latency_rounds_p99",
            t.latency.quantile(0.99) as f64,
            "rounds",
        ),
        m(
            "cleaning_rounds_p99",
            t.cleaning.quantile(0.99) as f64,
            "rounds",
        ),
        m("wire_bytes_per_msg", ratio(t.wire_bytes as f64, msgs), "B"),
        m(
            "frames_per_msg",
            ratio(t.counters.frames as f64, msgs),
            "frames",
        ),
        m("allocs_per_msg", ratio(t.allocs as f64, msgs), "allocs"),
        m("peak_heap_bytes", median(&peaks), "B"),
    ]
}

/// The per-layer metrics of a traced run `t` recorded by `tr`, with
/// `untraced` the untraced run of the same invocation.
pub fn per_layer(untraced: &Totals, t: &Totals, tr: &Tracer) -> Vec<Metric> {
    let wall_ns = t.wall_s * 1e9;
    let msgs = t.submitted() as f64;
    let per_call = |s: Span| {
        let a = tr.agg(s);
        ratio(a.self_ns as f64, a.calls as f64)
    };
    let calls = |s: Span| tr.agg(s).calls as f64;
    let allocs = |s: Span| {
        let a = tr.agg(s);
        ratio(a.self_allocs as f64, a.calls as f64)
    };
    let busy = |l: Layer| ratio(tr.layer_ns(l) as f64, wall_ns);
    let covered: u64 = Layer::ALL.iter().map(|&l| tr.layer_ns(l)).sum();
    let c = &t.counters;
    let e = &t.engine;
    vec![
        m("codec.encode.ns", per_call(Span::Encode), "ns"),
        m("codec.encode.calls", calls(Span::Encode), "count"),
        m("codec.encode.allocs", allocs(Span::Encode), "allocs"),
        m("codec.decode.ns", per_call(Span::Decode), "ns"),
        m("codec.decode.calls", calls(Span::Decode), "count"),
        m("codec.decode.allocs", allocs(Span::Decode), "allocs"),
        m(
            "codec.bytes.data",
            ratio(c.encoded[0] as f64, msgs),
            "B/msg",
        ),
        m(
            "codec.bytes.request",
            ratio(c.encoded[1] as f64, msgs),
            "B/msg",
        ),
        m(
            "codec.bytes.decision",
            ratio(c.encoded[2] as f64, msgs),
            "B/msg",
        ),
        m(
            "codec.bytes.recovery",
            ratio(c.encoded[3] as f64, msgs),
            "B/msg",
        ),
        m("codec.busy_share", busy(Layer::Codec), "ratio"),
        m("engine.submit.ns", per_call(Span::Submit), "ns"),
        m(
            "engine.begin_round.request.ns",
            per_call(Span::BeginRequest),
            "ns",
        ),
        m(
            "engine.begin_round.decide.ns",
            per_call(Span::BeginDecide),
            "ns",
        ),
        m("engine.on_pdu.data.ns", per_call(Span::OnData), "ns"),
        m("engine.on_pdu.data.calls", calls(Span::OnData), "count"),
        m("engine.on_pdu.request.ns", per_call(Span::OnRequest), "ns"),
        m(
            "engine.on_pdu.request.calls",
            calls(Span::OnRequest),
            "count",
        ),
        m(
            "engine.on_pdu.decision.ns",
            per_call(Span::OnDecision),
            "ns",
        ),
        m(
            "engine.on_pdu.decision.calls",
            calls(Span::OnDecision),
            "count",
        ),
        m(
            "engine.on_pdu.recovery.ns",
            per_call(Span::OnRecovery),
            "ns",
        ),
        m(
            "engine.on_pdu.recovery.calls",
            calls(Span::OnRecovery),
            "count",
        ),
        m("engine.poll_output.ns", per_call(Span::Poll), "ns"),
        m("engine.busy_share", busy(Layer::Engine), "ratio"),
        m(
            "engine.recovery_requests",
            e.recovery_requests as f64,
            "count",
        ),
        m("engine.recovered", e.recovered as f64, "count"),
        m(
            "recovery.useful_ratio",
            ratio(e.recovered as f64, c.recovery_carried as f64),
            "ratio",
        ),
        m("engine.discarded", e.discarded as f64, "count"),
        m(
            "engine.flow_blocked_rounds",
            e.flow_blocked_rounds as f64,
            "count",
        ),
        m("history.peak_msgs", t.peaks.history_msgs as f64, "msgs"),
        m("history.peak_bytes", t.peaks.history_bytes as f64, "B"),
        m("history.max_purge_lag", t.peaks.purge_lag as f64, "msgs"),
        m("history.purged_messages", e.purged_messages as f64, "count"),
        m("causal.peak_waiting", t.peaks.waiting as f64, "msgs"),
        m("overlay.broadcast.ns", per_call(Span::Broadcast), "ns"),
        m("overlay.on_frame.ns", per_call(Span::RelayFrame), "ns"),
        m("overlay.sync_view.ns", per_call(Span::SyncView), "ns"),
        m("overlay.forwarded", t.forwarded as f64, "count"),
        m(
            "overlay.duplicate_ratio",
            ratio(t.duplicates as f64, c.relay_frames as f64),
            "ratio",
        ),
        m("overlay.worst_fanout", c.worst_fanout as f64, "count"),
        m("overlay.busy_share", busy(Layer::Overlay), "ratio"),
        m("frag.split.ns", per_call(Span::Split), "ns"),
        m("frag.accept.ns", per_call(Span::Accept), "ns"),
        m(
            "frag.fragments_per_frame",
            ratio(c.fragments as f64, c.splits as f64),
            "ratio",
        ),
        m(
            "frag.single_share",
            ratio(c.single as f64, c.splits as f64),
            "ratio",
        ),
        m("frag.peak_partials", c.peak_partials as f64, "count"),
        m("frag.malformed", t.malformed as f64, "count"),
        m("frag.busy_share", busy(Layer::Frag), "ratio"),
        m("simnet.step_self.ns", per_call(Span::Step), "ns"),
        m(
            "simnet.frames_per_round",
            ratio(t.datagrams as f64, t.rounds as f64),
            "frames",
        ),
        m("simnet.omitted", t.omitted as f64, "count"),
        m("simnet.busy_share", busy(Layer::Simnet), "ratio"),
        m("node.begin_round.ns", per_call(Span::NodeBeginRound), "ns"),
        m("node.on_frame.ns", per_call(Span::NodeOnFrame), "ns"),
        m("node.poll_output.ns", per_call(Span::NodePoll), "ns"),
        m("node.encode.ns", per_call(Span::NodeEncode), "ns"),
        m("node.foreign_frames", t.foreign_frames as f64, "count"),
        m("node.undecodable", t.node_undecodable as f64, "count"),
        m(
            "node.idle_frames_per_group_round",
            ratio(c.idle_frames as f64, t.idle_group_rounds as f64),
            "frames",
        ),
        m(
            "node.heap_per_idle_group",
            ratio(t.idle_heap as f64, t.idle_residencies as f64),
            "B",
        ),
        m("node.busy_share", busy(Layer::Node), "ratio"),
        m("bench.driver.ns", per_call(Span::Driver), "ns"),
        m("bench.busy_share", busy(Layer::Bench), "ratio"),
        m(
            "trace.overhead",
            ratio(median(&t.episode_rates), median(&untraced.episode_rates)) - 1.0,
            "ratio",
        ),
        m("trace.coverage", ratio(covered as f64, wall_ns), "ratio"),
    ]
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = String::new();
    write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    )
    .expect("writing to a String cannot fail");
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name,
            json_number(x.value),
            x.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

/// A finite number as JSON (Rust's shortest round-trip form keeps every
/// digit); non-finite values, which JSON cannot hold, become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Side-by-side table of metrics from one or two runs.
pub fn table(title: &str, columns: &[&str], rows: &[Vec<Metric>]) -> String {
    let mut s = format!("{title}\n  {:<36} {:>8}", "metric", "unit");
    for c in columns {
        write!(s, " {c:>16}").expect("writing to a String cannot fail");
    }
    s.push('\n');
    for (i, first) in rows[0].iter().enumerate() {
        write!(s, "  {:<36} {:>8}", first.name, first.unit)
            .expect("writing to a String cannot fail");
        for r in rows {
            write!(s, " {:>16.4}", r[i].value).expect("writing to a String cannot fail");
        }
        s.push('\n');
    }
    s
}

/// The sampled spans as a JSON document, grouped by message.
pub fn samples_json(workload: &str, seed: u64, samples: &[Sample]) -> String {
    let mut v: Vec<&Sample> = samples.iter().collect();
    v.sort_by_key(|x| (x.mid.seq, x.start_ns));
    let mut s = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
    for (i, x) in v.iter().enumerate() {
        let sep = if i == 0 { "\n  " } else { ",\n  " };
        write!(
            s,
            "{sep}{{\"mid\": \"{}\", \"member\": {}, \"span\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            x.mid,
            x.member,
            x.span.name(),
            x.parent.map_or("", Span::name),
            x.start_ns,
            x.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("\n]}\n");
    s
}
