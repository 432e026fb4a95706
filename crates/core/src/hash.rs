//! A small deterministic hasher for the maps on the archive-load path.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 under a per-map random
//! key: resistant to crafted keys, and several times the cost of one
//! multiply for the integer keys, row ids and short strings this suite
//! hashes. The maps that only ever hold values the suite made itself —
//! the generator's state and key pools, dbgen's string interner, System C's
//! dead set and dictionaries — use [`FxHasher`] instead: the word-at-a-time
//! multiply-rotate hash of Firefox and rustc, with a fixed seed, so the
//! same keys hash the same in every run and every map.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier: an odd 64-bit constant (rustc's), so the final multiply
/// is a bijection and sequential integer keys land in distinct buckets.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A deterministic, non-cryptographic hasher; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; every one starts from the same state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// The [`FxHasher`] hash of one value.
pub fn hash_one(value: impl std::hash::Hash) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Key;

    /// Fixed values: a change to the word loop or the seed moves every map
    /// on the load path, so it must show here first.
    #[test]
    fn pinned_values() {
        assert_eq!(hash_one(0u64), 0);
        assert_eq!(hash_one(1u64), SEED);
        assert_eq!(hash_one(7usize), 7u64.wrapping_mul(SEED));
        // A variant's discriminant 0 hashes to 0: `Key::Int(k)` is `k * SEED`.
        assert_eq!(hash_one(Key::Int(7)), 0x3a69_4c02_11ee_4a13);
        assert_eq!(hash_one(Key::Int2(1, 2)), 0x018c_e849_5e49_d19d);
        // A string is its bytes, eight to a word, then `str`'s 0xff marker.
        assert_eq!(hash_one("O"), 0x692e_8a8b_6c24_5337);
        assert_eq!(hash_one("Customer#000000001"), 0x1545_64d1_016c_d323);
    }

    #[test]
    fn sequential_keys_fill_distinct_buckets() {
        // The low bits of `k * SEED` are a permutation of `k`'s: 1 024
        // consecutive keys hit all 1 024 buckets of a 1 024-bucket table.
        let mut seen = [false; 1024];
        for k in 5_000u64..6_024 {
            seen[(hash_one(k) & 1023) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn maps_iterate_in_the_same_order_every_time() {
        let build = || -> FxHashMap<i64, usize> { (0..500).map(|k| (k * 7919, 0)).collect() };
        let a: Vec<i64> = build().into_keys().collect();
        let b: Vec<i64> = build().into_keys().collect();
        assert_eq!(a, b);
    }
}
