//! The one FNV-1a implementation in the workspace.
//!
//! The cross-member order digests and the golden-document digests use
//! 64-bit FNV-1a: it is tiny, allocation-free and deterministic across
//! platforms, and those digest values are pinned, so the hash must never
//! change. Wire integrity checks use CRC-32C instead (see [`crate::crc`]).
//!
//! Standard parameters: offset basis `0xcbf29ce484222325`, prime
//! `0x100000001b3`.

/// 64-bit FNV-1a offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot 64-bit FNV-1a over `bytes` (document digests).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Streaming 64-bit FNV-1a hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV64_OFFSET)
    }

    /// Feeds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV64_PRIME);
        }
    }

    /// The current hash value (the hasher remains usable).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Published FNV-1a test vectors (draft-eastlake-fnv): the empty string
    // hashes to the offset basis, "a" and "foobar" to the values below.
    #[test]
    fn matches_published_vectors() {
        assert_eq!(fnv1a_64(b""), FNV64_OFFSET);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"split across several update calls";
        let mut h64 = Fnv64::new();
        for chunk in data.chunks(7) {
            h64.update(chunk);
        }
        assert_eq!(h64.finish(), fnv1a_64(data));
    }
}
