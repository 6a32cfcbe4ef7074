//! CRC-32C (Castagnoli) — the one wire checksum in the workspace.
//!
//! Frame trailers, the group-envelope header check and the relay-header
//! check all use it. CRC-32C is reflected, with polynomial `0x1EDC6F41`
//! (`0x82F63B78` bit-reversed), initial value and final XOR `0xFFFFFFFF`:
//! the iSCSI/ext4 checksum, whose check value over `"123456789"` is
//! `0xE3069283`.
//!
//! Two paths compute it, selected per call:
//!
//! * on x86-64 CPUs with SSE4.2, the `crc32` instruction, eight bytes per
//!   step;
//! * everywhere else, a portable slicing-by-8 table walk over tables built
//!   at compile time.
//!
//! Both produce identical values (a differential test pins this), so a
//! frame sealed on one machine verifies on any other.
//!
//! Why CRC-32C rather than a hash: under the paper's general-omission model
//! a corrupted datagram must degenerate to a lost one, so the trailer's job
//! is error *detection*. At the frame sizes urcgc sends (a request at
//! n = 1000 is ≈ 48 KB) CRC-32C has Hamming distance 4, so it detects every
//! error of up to three flipped bits, every odd number of flipped bits and
//! every burst of up to 32 bits; FNV-1a guarantees only errors confined to
//! one byte.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `TABLES[0]` is the classic byte table, and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Advances the raw (un-inverted) CRC register over `bytes` on the fastest
/// path this CPU supports.
fn update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `update_sse42` only requires SSE4.2, which the runtime
        // check on the line above has just confirmed this CPU supports.
        return unsafe { update_sse42(crc, bytes) };
    }
    update_portable(crc, bytes)
}

/// The hardware path: the SSE4.2 `crc32` instruction over eight bytes at a
/// time, then byte by byte over the tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, tail) = bytes.as_chunks::<8>();
    let mut wide = u64::from(crc);
    for word in words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(*word));
    }
    // The instruction leaves the 32-bit register zero-extended in `wide`.
    let mut crc = wide as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// The portable path: slicing-by-8 over eight bytes at a time, then the
/// byte table over the tail.
fn update_portable(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference: the definition, with no tables.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Deterministic test bytes (64-bit LCG), no RNG crate needed.
    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn matches_published_check_values() {
        // The CRC-32C catalogue check value, and the empty input.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 (iSCSI) appendix B.4 vectors: 32 zero bytes, 32 0xFF.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn portable_path_matches_the_bitwise_definition() {
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            let data = bytes(len, len as u64);
            assert_eq!(!update_portable(!0, &data), reference(&data), "len {len}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_path_matches_portable_at_every_length_and_offset() {
        if !std::arch::is_x86_feature_detected!("sse4.2") {
            eprintln!("no SSE4.2 on this CPU: only the portable path runs here");
            return;
        }
        let data = bytes(9000 + 8, 7);
        let mut seed = 11u64;
        let mut lengths: Vec<usize> = (0..=64).chain([4859, 8999, 9000]).collect();
        for _ in 0..200 {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            lengths.push((seed >> 33) as usize % 9001);
        }
        for len in lengths {
            for offset in 0..8 {
                let slice = &data[offset..offset + len];
                // With SSE4.2 present, `update` takes the hardware path.
                assert_eq!(
                    update(!0, slice),
                    update_portable(!0, slice),
                    "len {len} offset {offset}"
                );
            }
        }
    }
}
