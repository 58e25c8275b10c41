//! FNV-1a hashing — the store's checksum and content-key primitive.
//!
//! FNV-1a is not cryptographic; it is used here as a fast,
//! dependency-free, byte-stable hash whose value never changes across
//! platforms or compiler versions. Record checksums guard against torn
//! writes and bit rot, not adversaries; content keys are 128 bits wide
//! so accidental collisions stay negligible even for million-record
//! campaign stores.

/// FNV-1a 64 offset basis.
const OFFSET_64: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const PRIME_64: u64 = 0x0000_0100_0000_01b3;
/// FNV-1a 128 offset basis.
const OFFSET_128: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128 prime.
const PRIME_128: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// FNV-1a 64 of one byte slice — the per-record checksum.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = OFFSET_64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME_64);
    }
    h
}

/// A streaming FNV-1a 128 hasher — the content-key builder. Keys are
/// assembled from heterogeneous material (strings, raw f64 bit
/// patterns, counters), so the hasher exposes typed `push_*` helpers
/// that all feed one canonical byte stream.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u128,
}

impl KeyHasher {
    /// A fresh hasher at the FNV-1a 128 offset basis.
    pub fn new() -> Self {
        KeyHasher { state: OFFSET_128 }
    }

    /// Feeds raw bytes.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(PRIME_128);
        }
    }

    /// Feeds a string, length-prefixed so `("ab", "c")` and
    /// `("a", "bc")` hash differently.
    pub fn push_str(&mut self, s: &str) {
        self.push_u64(s.len() as u64);
        self.push_bytes(s.as_bytes());
    }

    /// Feeds a `u64` in little-endian byte order.
    pub fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    /// Feeds an `f64` by exact bit pattern. Signed zeros are *not*
    /// collapsed: a key must distinguish every bit-distinct input the
    /// bit-exact codec round-trips.
    pub fn push_f64_bits(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// The 128-bit key accumulated so far.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_hasher_is_order_and_boundary_sensitive() {
        let mut a = KeyHasher::new();
        a.push_str("ab");
        a.push_str("c");
        let mut b = KeyHasher::new();
        b.push_str("a");
        b.push_str("bc");
        assert_ne!(a.finish(), b.finish());

        let mut c = KeyHasher::new();
        c.push_u64(1);
        c.push_u64(2);
        let mut d = KeyHasher::new();
        d.push_u64(2);
        d.push_u64(1);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn f64_keys_are_bit_exact() {
        let mut pos = KeyHasher::new();
        pos.push_f64_bits(0.0);
        let mut neg = KeyHasher::new();
        neg.push_f64_bits(-0.0);
        // The codec round-trips bit patterns, so the key must tell the
        // signed zeros apart even though they compare ==.
        assert_ne!(pos.finish(), neg.finish());
    }

    #[test]
    fn empty_hasher_is_the_offset_basis() {
        assert_eq!(KeyHasher::new().finish(), OFFSET_128);
        assert_eq!(KeyHasher::default().finish(), OFFSET_128);
    }
}
