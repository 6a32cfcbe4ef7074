//! Self-tests of the benchmark at tiny sizes: the metric document, seed
//! determinism, the completion rule and the delivery checks.

use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use perfbench::ledger::Ledger;
use perfbench::report::{end_to_end, failed_share, per_layer, Metric};
use perfbench::run::{run, Totals};
use perfbench::trace::Tracer;
use perfbench::workload::{Spec, Workload};
use urcgc_types::{DataMsg, Mid, ProcessId, Round};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const README: &str = include_str!("../README.md");

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names_in(key: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array is closed")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_owned()
        })
        .collect()
}

fn run_tiny(w: Workload, seed: u64, tr: &Rc<Tracer>) -> Totals {
    run(&w.spec().tiny(), seed, 1, tr)
}

fn names(ms: &[Metric]) -> Vec<String> {
    ms.iter().map(|m| m.name.to_owned()).collect()
}

#[test]
fn every_workload_reports_every_documented_metric() {
    let e2e = names_in("end_to_end");
    let layers = names_in("per_layer");
    assert!(e2e.contains(&"setup_s".to_owned()));
    let workloads = names_in("workloads");
    for w in Workload::ALL {
        assert!(
            workloads.contains(&w.name().to_owned()),
            "{} not in BENCHMARK.json",
            w.name()
        );
        let plain = run_tiny(w, 3, &Rc::new(Tracer::new(false)));
        let tr = Rc::new(Tracer::new(true));
        let traced = run_tiny(w, 3, &tr);
        assert!(
            plain.correct() && traced.correct(),
            "{}: {:?}",
            w.name(),
            plain.violations
        );
        let got = end_to_end(&plain);
        assert_eq!(names(&got), e2e, "{}: end-to-end metric names", w.name());
        for m in &got {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        let got = per_layer(&plain, &traced, &tr);
        assert_eq!(names(&got), layers, "{}: per-layer metric names", w.name());
        assert!(got.iter().all(|m| m.value.is_finite()));
    }
    for name in e2e.iter().chain(&layers) {
        assert!(
            README.contains(&format!("`{name}`")),
            "README.md does not define {name}"
        );
    }
}

/// The counts a seed fixes: everything but wall-clock figures.
fn fingerprint(t: &Totals) -> Vec<u64> {
    let c = &t.counters;
    vec![
        t.rounds,
        t.submitted(),
        t.completed(),
        t.settled.missing,
        t.settled.lost_with_origin,
        t.latency.len(),
        t.latency.quantile(0.5),
        t.latency.quantile(0.99),
        t.cleaning.quantile(0.99),
        t.datagrams,
        t.wire_bytes,
        t.omitted,
        c.frames,
        c.fragments,
        c.encoded[0],
        c.encoded[1],
        c.encoded[2],
        c.encoded[3],
        t.engine.recovery_requests,
        t.engine.recovered,
        t.engine.purged_messages,
        t.forwarded,
        c.idle_frames,
    ]
}

#[test]
fn the_seed_fixes_the_counts_and_is_consumed() {
    for w in [
        Workload::LossyN20,
        Workload::OverlayN100,
        Workload::Multigroup1k,
    ] {
        let tr = Rc::new(Tracer::new(false));
        let a = fingerprint(&run_tiny(w, 7, &tr));
        let b = fingerprint(&run_tiny(w, 7, &tr));
        let c = fingerprint(&run_tiny(w, 8, &tr));
        assert_eq!(a, b, "{}: same seed, different counts", w.name());
        assert_ne!(a, c, "{}: the seed changed nothing", w.name());
    }
}

#[test]
fn a_truncated_round_budget_fails() {
    for w in Workload::ALL {
        let tiny = w.spec().tiny();
        let spec = Spec {
            gen_rounds: tiny.gen_rounds / 2,
            drain_rounds: 0,
            ..tiny
        };
        let t = run(&spec, 5, 1, &Rc::new(Tracer::new(false)));
        assert!(failed_share(&t) > 0.0, "{}: nothing missing", w.name());
        assert!(
            !t.correct(),
            "{}: checks passed on a truncated run",
            w.name()
        );
    }
}

fn msg(origin: usize, seq: u64, deps: &[Mid]) -> Arc<DataMsg> {
    Arc::new(DataMsg {
        mid: Mid {
            origin: ProcessId::from_index(origin),
            seq,
        },
        deps: deps.to_vec(),
        round: Round(0),
        payload: Bytes::new(),
    })
}

#[test]
fn the_ledger_flags_bad_deliveries() {
    let mut l = Ledger::new(1, 3);
    for seq in 1..=2 {
        l.submitted(0, msg(0, seq, &[]).mid, 0);
    }
    l.submitted(0, msg(1, 1, &[]).mid, 0);
    l.delivered(0, 2, &msg(0, 1, &[]), 1);
    assert_eq!(l.violation_count, 0);
    l.delivered(0, 2, &msg(0, 1, &[]), 2);
    assert_eq!(l.violation_count, 1, "duplicate");
    l.delivered(0, 1, &msg(0, 2, &[]), 2);
    assert_eq!(l.violation_count, 2, "FIFO gap");
    let dep = msg(0, 2, &[]).mid;
    l.delivered(0, 2, &msg(1, 1, &[dep]), 2);
    assert_eq!(l.violation_count, 3, "dependency delivered later");
    l.delivered(0, 0, &msg(2, 1, &[]), 2);
    assert_eq!(l.violation_count, 4, "never submitted");

    // Member 2 holds a message of the lost origin 1 and member 0 does not.
    let mut l = Ledger::new(1, 3);
    l.submitted(0, msg(1, 1, &[]).mid, 0);
    l.delivered(0, 2, &msg(1, 1, &[]), 1);
    let s = l.settle(0, &[0, 2], &[true, false, true], true);
    assert_eq!(s.lost_with_origin, 0);
    assert_eq!(l.violation_count, 1, "atomicity");
}
