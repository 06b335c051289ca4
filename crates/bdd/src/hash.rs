//! A small, fast, non-cryptographic hasher for the unique table and the
//! operation caches.
//!
//! The hot path of every BDD operation is one or two hash-map probes keyed by
//! 32-bit node ids; `SipHash` (std's default) costs more than the rest of the
//! operation combined. This is the well-known `fx` multiply-xor hash used by
//! rustc, implemented locally so the crate stays within the approved
//! dependency set.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc `fx` hash (64-bit variant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The `fx` hasher: a word-at-a-time multiply-xor mix.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only used for composite keys that fall outside the fixed-width fast
        // paths below; processes 8 bytes at a time.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for `FxHasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the fast `fx` hash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the fast `fx` hash.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_differently() {
        // Not a cryptographic guarantee, but the obvious small keys we use
        // (pairs of node ids) must not collide trivially.
        let mut seen = std::collections::HashSet::new();
        for a in 0u32..64 {
            for b in 0u32..64 {
                let mut h = FxHasher::default();
                h.write_u32(a);
                h.write_u32(b);
                assert!(seen.insert(h.finish()), "collision at ({a},{b})");
            }
        }
    }

    #[test]
    fn write_bytes_matches_padded_words() {
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3]);
        let mut h2 = FxHasher::default();
        h2.write_u64(u64::from_le_bytes([1, 2, 3, 0, 0, 0, 0, 0]));
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn hasher_is_deterministic() {
        let run = || {
            let mut h = FxHasher::default();
            h.write_u64(0xdead_beef);
            h.write_u32(42);
            h.finish()
        };
        assert_eq!(run(), run());
    }
}
