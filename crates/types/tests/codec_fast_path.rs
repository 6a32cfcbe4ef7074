//! The codec's bulk vector paths and CRC-32C trailer, checked against an
//! element-by-element reference and against corruption.
//!
//! * The bulk `encode_slice`/`decode_vec` overrides must write exactly the
//!   bytes a per-element encoder writes, at every group size.
//! * Every single-bit flip of an n = 100 control frame must come back as an
//!   error, never as a different PDU.
//! * Pinned bodies for n = 3 keep the layout from drifting silently.

use bytes::{BufMut, Bytes, BytesMut};
use urcgc_types::{
    decode_pdu, encode_pdu, Decision, MaxProcessed, Pdu, ProcessId, RequestMsg, Subrun, WireEncode,
    WireError,
};

/// Small deterministic generator (splitmix64), so the test needs no RNG
/// crate and every run sees the same inputs.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value that is sometimes small, sometimes at the edges of `u64`.
    fn seq(&mut self) -> u64 {
        match self.next() % 4 {
            0 => 0,
            1 => u64::MAX - self.next() % 3,
            _ => self.next() % 10_000,
        }
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn pid(&mut self, n: usize) -> ProcessId {
        ProcessId((self.next() % n as u64) as u16)
    }
}

fn random_decision(g: &mut Gen, n: usize) -> Decision {
    Decision {
        subrun: Subrun(g.seq()),
        coordinator: g.pid(n),
        full_group: g.flag(),
        stable: (0..n).map(|_| g.seq()).collect(),
        attempts: (0..n).map(|_| g.next() as u32).collect(),
        process_state: (0..n).map(|_| g.flag()).collect(),
        max_processed: (0..n)
            .map(|_| MaxProcessed {
                holder: g.pid(n),
                seq: g.seq(),
            })
            .collect(),
        min_waiting: (0..n).map(|_| g.seq()).collect(),
        covered: (0..n).map(|_| g.flag()).collect(),
    }
}

fn random_request(g: &mut Gen, n: usize) -> RequestMsg {
    RequestMsg {
        sender: g.pid(n),
        subrun: Subrun(g.seq()),
        last_processed: (0..n).map(|_| g.seq()).collect(),
        waiting: (0..n).map(|_| g.seq()).collect(),
        prev_decision: random_decision(g, n).into(),
        forwarded: g.flag(),
    }
}

// --- The per-element reference encoder -----------------------------------

fn ref_u64s(v: &[u64], out: &mut Vec<u8>) {
    out.put_u32_le(v.len() as u32);
    for &x in v {
        out.put_u64_le(x);
    }
}

fn ref_bools(v: &[bool], out: &mut Vec<u8>) {
    out.put_u32_le(v.len() as u32);
    for &b in v {
        out.put_u8(b as u8);
    }
}

fn ref_decision(d: &Decision, out: &mut Vec<u8>) {
    out.put_u64_le(d.subrun.0);
    out.put_u16_le(d.coordinator.0);
    out.put_u8(d.full_group as u8);
    ref_u64s(&d.stable, out);
    out.put_u32_le(d.attempts.len() as u32);
    for &a in &d.attempts {
        out.put_u32_le(a);
    }
    ref_bools(&d.process_state, out);
    out.put_u32_le(d.max_processed.len() as u32);
    for m in &d.max_processed {
        out.put_u16_le(m.holder.0);
        out.put_u64_le(m.seq);
    }
    ref_u64s(&d.min_waiting, out);
    ref_bools(&d.covered, out);
}

/// The PDU body (tag included, trailer excluded), one element at a time.
fn reference_body(pdu: &Pdu) -> Vec<u8> {
    let mut out = Vec::new();
    match pdu {
        Pdu::Decision(d) => {
            out.put_u8(3);
            ref_decision(d, &mut out);
        }
        Pdu::Request(r) => {
            out.put_u8(2);
            out.put_u16_le(r.sender.0);
            out.put_u64_le(r.subrun.0);
            ref_u64s(&r.last_processed, &mut out);
            ref_u64s(&r.waiting, &mut out);
            ref_decision(&r.prev_decision, &mut out);
            out.put_u8(r.forwarded as u8);
        }
        other => panic!("no reference encoding for {other:?}"),
    }
    out
}

fn body(pdu: &Pdu) -> Vec<u8> {
    let mut buf = BytesMut::new();
    pdu.encode(&mut buf);
    buf.to_vec()
}

#[test]
fn bulk_hooks_match_the_per_element_reference() {
    let mut g = Gen(0x5EED);
    for n in [1, 3, 100, 1000] {
        for _ in 0..4 {
            for pdu in [
                Pdu::Decision(random_decision(&mut g, n).into()),
                Pdu::Request(random_request(&mut g, n)),
            ] {
                let bytes = body(&pdu);
                assert_eq!(bytes, reference_body(&pdu), "n = {n}");
                assert_eq!(bytes.len(), pdu.encoded_len(), "n = {n}");
                let frame = encode_pdu(&pdu);
                assert_eq!(&frame[..bytes.len()], &bytes[..]);
                assert_eq!(decode_pdu(&frame).expect("decodes"), pdu, "n = {n}");
            }
        }
    }
}

#[test]
fn every_single_bit_flip_of_an_n100_control_frame_is_rejected() {
    let mut g = Gen(100);
    for pdu in [
        Pdu::Request(random_request(&mut g, 100)),
        Pdu::Decision(random_decision(&mut g, 100).into()),
    ] {
        let frame = encode_pdu(&pdu);
        let mut raw = frame.to_vec();
        for bit in 0..raw.len() * 8 {
            raw[bit / 8] ^= 1 << (bit % 8);
            let got = decode_pdu(&Bytes::copy_from_slice(&raw));
            assert!(
                matches!(got, Err(WireError::ChecksumMismatch { .. })),
                "flip of bit {bit} in a {} B frame gave {got:?}",
                raw.len()
            );
            raw[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(raw, frame.to_vec());
    }
}

fn pinned_decision() -> Decision {
    Decision {
        subrun: Subrun(0x0102_0304_0506_0708),
        coordinator: ProcessId(2),
        full_group: true,
        stable: vec![0, 7, u64::MAX],
        attempts: vec![1, 0, 0xA0B0_C0D0],
        process_state: vec![true, false, true],
        max_processed: vec![
            MaxProcessed {
                holder: ProcessId(1),
                seq: 9,
            },
            MaxProcessed {
                holder: ProcessId(0x0201),
                seq: 0,
            },
            MaxProcessed {
                holder: ProcessId(2),
                seq: 0x1122_3344_5566_7788,
            },
        ],
        min_waiting: vec![5, 0, 3],
        covered: vec![false, true, true],
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn n3_bodies_match_their_pinned_bytes() {
    let decision = Pdu::Decision(pinned_decision().into());
    assert_eq!(hex(&body(&decision)), PINNED_DECISION);
    let request = Pdu::Request(RequestMsg {
        sender: ProcessId(1),
        subrun: Subrun(42),
        last_processed: vec![3, 0, 0xFFFF_FFFF_0000_0001],
        waiting: vec![0, 4, 0],
        prev_decision: pinned_decision().into(),
        forwarded: true,
    });
    assert_eq!(hex(&body(&request)), PINNED_REQUEST);
}

/// Body bytes (tag included, trailer excluded) of the n = 3 samples above,
/// one line per field.
const PINNED_DECISION: &str = concat!(
    // tag
    "03",
    // subrun
    "0807060504030201",
    // coordinator
    "0200",
    // full_group
    "01",
    // stable
    "0300000000000000000000000700000000000000ffffffffffffffff",
    // attempts
    "030000000100000000000000d0c0b0a0",
    // process_state
    "03000000010001",
    // max_processed
    "03000000010009000000000000000102000000000000000002008877665544332211",
    // min_waiting
    "03000000050000000000000000000000000000000300000000000000",
    // covered
    "03000000000101",
);

const PINNED_REQUEST: &str = concat!(
    // tag
    "02",
    // sender
    "0100",
    // subrun
    "2a00000000000000",
    // last_processed
    "030000000300000000000000000000000000000001000000ffffffff",
    // waiting
    "03000000000000000000000004000000000000000000000000000000",
    // prev_decision.subrun
    "0807060504030201",
    // prev_decision.coordinator
    "0200",
    // prev_decision.full_group
    "01",
    // prev_decision.stable
    "0300000000000000000000000700000000000000ffffffffffffffff",
    // prev_decision.attempts
    "030000000100000000000000d0c0b0a0",
    // prev_decision.process_state
    "03000000010001",
    // prev_decision.max_processed
    "03000000010009000000000000000102000000000000000002008877665544332211",
    // prev_decision.min_waiting
    "03000000050000000000000000000000000000000300000000000000",
    // prev_decision.covered
    "03000000000101",
    // forwarded
    "01",
);
