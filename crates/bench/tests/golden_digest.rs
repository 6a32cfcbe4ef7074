//! Determinism golden test: the sweep binaries must reproduce their JSON
//! documents bit for bit, modulo the `wall_secs` timing field.
//!
//! The calendar-queue scheduler rebuild (PR 3) was required to preserve
//! delivery order and RNG draw alignment exactly; these digests pin that
//! guarantee so any future scheduler change that perturbs either is caught
//! in CI, not in a downstream figure. Two binaries cover the two run
//! shapes: `fig4_delay` (urcgc + both baselines under omission faults) and
//! `ablation_h` (recovery-depth sweep with crashes). Two soak cells, one
//! direct and one over the overlay tree, pin the soak's counters-only
//! member to the same engine calls, RNG draws and frames as the probed
//! one.
//!
//! If a digest mismatch is *intended* (a deliberate protocol or experiment
//! change), regenerate with the command printed in the failure message and
//! update the constant alongside a changelog note. Last re-pin: the
//! batching defaults flip (`batched_recovery` + `batch_retransmissions`
//! on by default) changed recovery frame populations under crash plans;
//! EXPERIMENTS.md records the before/after digests.

use std::fmt::Write as _;
use std::process::Command;

use urcgc_bench::soak::{soak_cell, SoakProtocol, SoakReport};
use urcgc_types::Fnv64;

/// FNV-1a 64 over the document with every line containing `"wall_secs"`
/// removed (the only field that varies run to run).
fn normalized_digest(doc: &str) -> u64 {
    let mut h = Fnv64::new();
    let mut first = true;
    for line in doc.split('\n').filter(|l| !l.contains("\"wall_secs\"")) {
        if !first {
            h.update(b"\n");
        }
        first = false;
        h.update(line.as_bytes());
    }
    h.finish()
}

fn run_and_digest(bin: &str, exe: &str) -> u64 {
    let out = std::env::temp_dir().join(format!("golden_{bin}_{}.json", std::process::id()));
    let status = Command::new(exe)
        .args(["--max-rounds", "60", "--replicates", "2", "--jobs", "2"])
        .args(["--json", out.to_str().unwrap()])
        .output()
        .unwrap_or_else(|e| panic!("launching {bin}: {e}"));
    assert!(
        status.status.success(),
        "{bin} exited with {:?}: {}",
        status.status,
        String::from_utf8_lossy(&status.stderr)
    );
    let doc = std::fs::read_to_string(&out).expect("sweep document written");
    let _ = std::fs::remove_file(&out);
    normalized_digest(&doc)
}

#[test]
fn fig4_delay_document_is_bit_stable() {
    let digest = run_and_digest("fig4_delay", env!("CARGO_BIN_EXE_fig4_delay"));
    assert_eq!(
        digest, 0xcff8_1a49_53c8_1ed1,
        "fig4_delay smoke document drifted; if intended, regenerate with \
         `fig4_delay --max-rounds 60 --replicates 2 --jobs 2 --json out.json` \
         and pin the new digest ({digest:#x})"
    );
}

#[test]
fn ablation_h_document_is_bit_stable() {
    let digest = run_and_digest("ablation_h", env!("CARGO_BIN_EXE_ablation_h"));
    assert_eq!(
        digest, 0x9cf9_cfdb_8208_4be6,
        "ablation_h smoke document drifted; if intended, regenerate with \
         `ablation_h --max-rounds 60 --replicates 2 --jobs 2 --json out.json` \
         and pin the new digest ({digest:#x})"
    );
}

/// Every deterministic field of a soak report, one per line: everything
/// except `wall_secs` and the per-second rates derived from it. Unlike
/// [`SoakReport::to_json`], the window trace and the per-process frame
/// vectors are kept whole.
fn soak_document(r: &SoakReport) -> String {
    let mut doc = String::new();
    let _ = writeln!(doc, "protocol {}", r.protocol);
    let _ = writeln!(doc, "n {} msgs_per_proc {}", r.n, r.msgs_per_proc);
    let _ = writeln!(doc, "rounds {} submitted {}", r.rounds, r.submitted);
    let _ = writeln!(doc, "app_delivered {} frames {}", r.app_delivered, r.frames);
    let _ = writeln!(
        doc,
        "wire_bytes {} encoded {} shared {} relayed {}",
        r.wire_bytes, r.encoded_bytes, r.shared_bytes, r.relayed_bytes
    );
    let _ = writeln!(doc, "frames_sent {:?}", r.frames_sent);
    let _ = writeln!(doc, "frames_relayed {:?}", r.frames_relayed);
    let _ = writeln!(
        doc,
        "broadcasts {} worst_fanout {}",
        r.broadcasts, r.worst_broadcast_fanout
    );
    let _ = writeln!(doc, "completed {} stalled {}", r.completed, r.stalled);
    let _ = writeln!(
        doc,
        "peaks history {} waiting {} segments {} bytes {} purge_lag {}",
        r.peak_history, r.peak_waiting, r.peak_segments, r.peak_history_bytes, r.max_purge_lag
    );
    for w in &r.windows {
        let _ = writeln!(doc, "{w:?}");
    }
    doc
}

#[test]
fn urcgc_soak_cell_is_bit_stable() {
    let r = soak_cell(SoakProtocol::Urcgc, 10, 40, 7, 16, false);
    let digest = normalized_digest(&soak_document(&r));
    assert_eq!(
        digest, 0x2f9a_f12c_14e6_7b72,
        "urcgc soak cell drifted; if intended, pin the new digest ({digest:#x})"
    );
}

#[test]
fn overlay_soak_cell_is_bit_stable() {
    let r = soak_cell(SoakProtocol::UrcgcOverlay, 20, 8, 7, 16, false);
    let digest = normalized_digest(&soak_document(&r));
    assert_eq!(
        digest, 0x619d_b936_a85f_1627,
        "urcgc+overlay soak cell drifted; if intended, pin the new digest ({digest:#x})"
    );
}

#[test]
fn digest_normalization_strips_only_wall_secs() {
    let a = "{\n  \"x\": 1,\n  \"wall_secs\": 0.5,\n  \"y\": 2\n}";
    let b = "{\n  \"x\": 1,\n  \"wall_secs\": 99.125,\n  \"y\": 2\n}";
    let c = "{\n  \"x\": 1,\n  \"wall_secs\": 0.5,\n  \"y\": 3\n}";
    assert_eq!(normalized_digest(a), normalized_digest(b));
    assert_ne!(normalized_digest(a), normalized_digest(c));
}
