//! End-to-end tests of the threaded UDP runtime: the same engine that
//! passed the simulator property tests, now over real sockets with real
//! concurrency, injected packet loss, and an address-rewriting lossy
//! proxy between members.

use std::collections::{HashMap, HashSet};
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use bytes::Bytes;
use urcgc_runtime::{
    spawn_member_on, AppEvent, GroupShutdown, LossyProxy, NodeOptions, ProcessHandle, ProxyOptions,
    UdpGroup,
};
use urcgc_types::{Mid, ProcessId, ProtocolConfig};

fn drain_until(handle: &mut ProcessHandle, expect: usize, secs: u64) -> Vec<Mid> {
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(secs);
    while got.len() < expect {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match handle.next_event(left) {
            Some(AppEvent::Delivered(msg)) => got.push(msg.mid),
            Some(_) => {}
            None => break,
        }
    }
    got
}

#[test]
fn five_member_group_with_concurrent_senders() {
    let cfg = ProtocolConfig::new(5);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 17).unwrap();

    // All five members submit concurrently (interleaved submissions).
    let mut expected = HashSet::new();
    for k in 0..4u8 {
        for m in 0..5usize {
            let mid = group
                .handle(m)
                .submit(Bytes::from(vec![k, m as u8]), vec![])
                .unwrap();
            expected.insert(mid);
        }
    }

    for m in 0..5 {
        let got = drain_until(group.handle(m), expected.len(), 15);
        let set: HashSet<Mid> = got.iter().copied().collect();
        assert_eq!(set, expected, "member {m} delivered a different set");
        // Per-origin sequence order (causal order projection).
        let mut per_origin: HashMap<u16, Vec<u64>> = HashMap::new();
        for mid in &got {
            per_origin.entry(mid.origin.0).or_default().push(mid.seq);
        }
        for (origin, seqs) in per_origin {
            let mut sorted = seqs.clone();
            sorted.sort();
            assert_eq!(seqs, sorted, "member {m}, origin {origin} out of order");
        }
    }
    group.shutdown();
}

#[test]
fn explicit_cross_member_dependency_respected_on_sockets() {
    let cfg = ProtocolConfig::new(3);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 23).unwrap();

    // p0 sends; p1 waits until it sees the message, then replies with an
    // explicit dependency on it.
    let first = group
        .handle(0)
        .submit(Bytes::from_static(b"question"), vec![])
        .unwrap();
    let got = drain_until(group.handle(1), 1, 10);
    assert_eq!(got, vec![first]);
    let reply = group
        .handle(1)
        .submit(Bytes::from_static(b"answer"), vec![first])
        .unwrap();

    // p2 must process question before answer.
    let order = drain_until(group.handle(2), 2, 10);
    assert_eq!(order, vec![first, reply]);
    group.shutdown();
}

#[test]
fn heavy_loss_converges_via_history_recovery() {
    // 25% receive loss at every member: most broadcasts lose at least one
    // destination, so convergence demonstrably depends on recovery.
    let cfg = ProtocolConfig::new(3).with_k(3).with_f_allowance(3);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.25, 31).unwrap();
    let mut expected = HashSet::new();
    for k in 0..8u8 {
        expected.insert(
            group
                .handle(0)
                .submit(Bytes::from(vec![k]), vec![])
                .unwrap(),
        );
    }
    for m in 1..3 {
        let got = drain_until(group.handle(m), expected.len(), 30);
        let set: HashSet<Mid> = got.iter().copied().collect();
        assert_eq!(set, expected, "member {m} failed to converge under loss");
    }
    group.shutdown();
}

#[test]
fn confirm_events_arrive_for_own_submissions() {
    let cfg = ProtocolConfig::new(2);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 37).unwrap();
    let mid = group
        .handle(0)
        .submit(Bytes::from_static(b"confirm me"), vec![])
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match group.handle(0).next_event(left) {
            Some(AppEvent::Confirmed(m)) => {
                assert_eq!(m, mid);
                break;
            }
            Some(_) => {}
            None => panic!("no Confirm within 5s"),
        }
    }
    group.shutdown();
}

#[test]
fn status_snapshot_and_stats_answer_over_the_command_channel() {
    let cfg = ProtocolConfig::new(3);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 41).unwrap();
    let mid = group
        .handle(1)
        .submit(Bytes::from_static(b"observable"), vec![])
        .unwrap();
    for m in 0..3 {
        assert_eq!(drain_until(group.handle(m), 1, 10), vec![mid]);
    }

    let status = group.handle(1).status().unwrap();
    assert!(
        status.is_active(),
        "member 1 should be active, got {status:?}"
    );

    let snap = group.handle(1).snapshot().unwrap();
    assert_eq!(snap.me, 1);
    assert_eq!(snap.status, "Active");
    assert_eq!(snap.frontier.len(), 3);
    assert_eq!(snap.frontier[1], 1, "own message is in the frontier");
    assert!(snap.alive.iter().all(|&a| a), "nobody crashed");

    let stats = group.handle(0).stats().unwrap();
    assert_eq!(stats.processed, 1);

    // The runtime's own counters moved too: rounds ticked, datagrams flowed.
    let net = group.handle(0).net_stats();
    assert!(net.rounds > 0, "round ticker never fired");
    assert!(net.datagrams_rx > 0, "no datagrams received");
    assert!(net.frames_rx > 0, "no frames reassembled");
    group.shutdown();
}

#[test]
fn killed_member_is_detected_by_survivors() {
    // K=2 keeps detection latency low; the dead member stops answering
    // mid-protocol (fail-stop, no goodbye).
    let cfg = ProtocolConfig::new(3).with_k(2);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 43).unwrap();
    let mid = group
        .handle(0)
        .submit(Bytes::from_static(b"warm-up"), vec![])
        .unwrap();
    for m in 0..3 {
        assert_eq!(drain_until(group.handle(m), 1, 10), vec![mid]);
    }

    group.handle(2).kill().unwrap();

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut detected = false;
    while Instant::now() < deadline && !detected {
        detected = group
            .handle(0)
            .with_engine(|e| !e.view().is_alive(ProcessId(2)))
            .unwrap_or(false);
        if !detected {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    assert!(detected, "survivors never declared the killed member dead");

    // The surviving pair still agrees on new traffic.
    let after = group
        .handle(1)
        .submit(Bytes::from_static(b"life goes on"), vec![])
        .unwrap();
    assert_eq!(drain_until(group.handle(0), 1, 15), vec![after]);
    group.shutdown();
}

#[test]
fn members_converge_through_an_address_rewriting_lossy_proxy() {
    // Every inter-member datagram crosses a relay that rewrites the source
    // address and drops/duplicates/delays traffic — sender identity must
    // come from the fragment header, and recovery must absorb the faults.
    let n = 3;
    let cfg = ProtocolConfig::new(n).with_k(3).with_f_allowance(3);
    let mut sockets = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..n {
        let s = UdpSocket::bind("127.0.0.1:0").unwrap();
        addrs.push(s.local_addr().unwrap());
        sockets.push(s);
    }
    let proxy = LossyProxy::spawn(
        &addrs,
        ProxyOptions {
            drop_p: 0.10,
            dup_p: 0.10,
            delay_p: 0.25,
            max_delay: Duration::from_millis(5),
            seed: 47,
        },
    )
    .unwrap();

    let mut handles = Vec::new();
    let mut shutdown = GroupShutdown::empty();
    for (i, sock) in sockets.into_iter().enumerate() {
        let peers: Vec<_> = (0..n)
            .map(|j| if j == i { addrs[j] } else { proxy.addrs()[j] })
            .collect();
        let opts = NodeOptions::default()
            .round_duration(Duration::from_millis(4))
            .mtu(200); // small MTU: force multi-fragment transfers through the proxy
        let (h, s) =
            spawn_member_on(sock, ProcessId::from_index(i), peers, cfg.clone(), opts).unwrap();
        handles.push(h);
        shutdown.merge(s);
    }

    let mut expected = HashSet::new();
    for k in 0..6u8 {
        // 512-byte payloads cannot fit one 200-byte datagram: every data
        // PDU crosses the proxy as a multi-fragment transfer.
        let payload = Bytes::from(vec![k; 512]);
        expected.insert(handles[(k % 3) as usize].submit(payload, vec![]).unwrap());
    }
    for (m, h) in handles.iter_mut().enumerate() {
        let got = drain_until(h, expected.len(), 30);
        let set: HashSet<Mid> = got.iter().copied().collect();
        assert_eq!(
            set, expected,
            "member {m} failed to converge behind the proxy"
        );
    }
    let stats = proxy.stats();
    assert!(stats.received > 0, "proxy saw no traffic");
    shutdown.shutdown();
    proxy.shutdown();
}

#[test]
fn quiescence_predicate_reports_group_wide_completion() {
    let cfg = ProtocolConfig::new(3);
    let mut group = UdpGroup::spawn(cfg, Duration::from_millis(4), 0.0, 53).unwrap();
    let budget = 5u64;
    let mut expected = HashSet::new();
    for k in 0..budget {
        expected.insert(
            group
                .handle(0)
                .submit(Bytes::from(vec![k as u8]), vec![])
                .unwrap(),
        );
    }
    for m in 0..3 {
        let got = drain_until(group.handle(m), expected.len(), 15);
        assert_eq!(got.len(), expected.len(), "member {m} incomplete");
    }

    // Deliveries alone are not quiescence: the predicate also wants the
    // recovery hints of the latest decision covered. Poll until it holds
    // at every member.
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut all = false;
    while Instant::now() < deadline && !all {
        all = (0..3).all(|m| {
            let submitted = if m == 0 { budget } else { 0 };
            group
                .handle(m)
                .with_engine(move |e| e.workload_quiescent(submitted, submitted))
                .unwrap_or(false)
        });
        if !all {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    assert!(all, "the group never reached workload quiescence");
    group.shutdown();
}
