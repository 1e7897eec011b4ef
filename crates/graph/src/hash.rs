//! Fast, non-cryptographic hashing for the query hot path.
//!
//! The evaluator keys its visited/emitted sets and the builder's adjacency
//! maps by small dense integers (`NodeId`, packed `(state, node)` words).
//! `std`'s default SipHash is DoS-resistant but an order of magnitude slower
//! than needed for trusted in-process keys, so this module provides the
//! well-known Fx hash (the multiply-xor hash used by rustc), implemented
//! locally because the build environment has no registry access.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The Fx hash of a string, for indexes that key by hash and keep the
/// strings elsewhere (comparing on a hit).
pub(crate) fn hash_str(text: &str) -> u64 {
    let mut hasher = FxHasher::default();
    text.hash(&mut hasher);
    hasher.finish()
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc Fx hasher: one multiply and one rotate-xor per word.
#[derive(Debug, Clone, Copy, Default)]
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
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_and_sets_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(u64::MAX, "max");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&u64::MAX), Some(&"max"));
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
    }

    #[test]
    fn different_keys_hash_differently_mostly() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<FxHasher>::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..10_000 {
            seen.insert(build.hash_one(i));
        }
        assert_eq!(seen.len(), 10_000, "unexpected collisions on dense keys");
    }

    #[test]
    fn byte_stream_and_word_agree_on_alignment() {
        // Not required for correctness, just a sanity check that partial
        // chunks do not panic and produce stable values.
        let mut h = FxHasher::default();
        h.write(b"hello world");
        let a = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(b"hello world");
        assert_eq!(a, h2.finish());
    }
}
