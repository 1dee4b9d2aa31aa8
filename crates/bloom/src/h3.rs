//! H3 universal hashing.
//!
//! The paper's filters use a single H3 hash function. H3 hashes an *n*-bit
//! key to an *m*-bit index by XOR-ing together, for every set key bit, a
//! fixed random *m*-bit row of a matrix. The matrix here is drawn from a
//! seeded [`SplitMix64`] stream so that simulations are reproducible.

use tw_types::splitmix::{SplitMix64, GAMMA};

/// An H3 hash function from 64-bit keys to indices in `[0, 1 << index_bits)`.
#[derive(Debug, Clone)]
pub struct H3Hash {
    rows: [u64; 64],
    mask: u64,
}

impl H3Hash {
    /// Creates an H3 hash producing `index_bits`-bit indices, with the random
    /// matrix derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is zero or greater than 32.
    pub fn new(index_bits: u32, seed: u64) -> Self {
        assert!(
            index_bits > 0 && index_bits <= 32,
            "index_bits must be 1..=32"
        );
        let mut stream = SplitMix64::new(seed.wrapping_add(GAMMA));
        H3Hash {
            rows: std::array::from_fn(|_| stream.next_u64()),
            mask: (1u64 << index_bits) - 1,
        }
    }

    /// Hashes a 64-bit key: the XOR of the matrix rows selected by the
    /// key's set bits, visited lowest first.
    #[inline]
    pub fn hash(&self, key: u64) -> usize {
        let mut acc = 0u64;
        let mut k = key;
        while k != 0 {
            acc ^= self.rows[k.trailing_zeros() as usize];
            k &= k - 1;
        }
        (acc & self.mask) as usize
    }

    /// The shift-and-branch loop `hash` replaced, kept as the reference the
    /// set-bit walk is tested against.
    #[cfg(test)]
    fn hash_reference(&self, key: u64) -> usize {
        let mut acc = 0u64;
        let mut k = key;
        let mut i = 0;
        while k != 0 {
            if k & 1 != 0 {
                acc ^= self.rows[i];
            }
            k >>= 1;
            i += 1;
        }
        (acc & self.mask) as usize
    }

    /// Number of distinct index values this hash can produce.
    pub fn range(&self) -> usize {
        (self.mask + 1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let h = H3Hash::new(9, 42);
        assert_eq!(h.range(), 512);
        for key in 0..1000u64 {
            let v = h.hash(key * 64);
            assert_eq!(v, h.hash(key * 64));
            assert!(v < 512);
        }
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a = H3Hash::new(9, 1);
        let b = H3Hash::new(9, 2);
        let differing = (0..256u64)
            .filter(|&k| a.hash(k * 64) != b.hash(k * 64))
            .count();
        assert!(differing > 128, "only {differing} of 256 keys differed");
    }

    #[test]
    fn distribution_covers_most_buckets() {
        let h = H3Hash::new(9, 7);
        let buckets: HashSet<usize> = (0..4096u64).map(|k| h.hash(k * 64)).collect();
        assert!(
            buckets.len() > 400,
            "poor spread: {} buckets",
            buckets.len()
        );
    }

    #[test]
    fn zero_key_hashes_to_zero() {
        // XOR of no rows: H3 maps the all-zero key to index 0 by construction.
        let h = H3Hash::new(9, 3);
        assert_eq!(h.hash(0), 0);
    }

    #[test]
    fn default_seed_indices_are_pinned() {
        // Taken at the parent of the set-bit rewrite: a moved index would
        // move which lines DBypFull bypasses the L2 for.
        let h = H3Hash::new(9, 0xB10F);
        for (key, index) in [
            (0x40u64, 363),
            (0x4_0000, 248),
            (0x2000_0040, 485),
            (0xFFFF_FFFF_FFFF_FFC0, 143),
        ] {
            assert_eq!(h.hash(key), index, "{key:#x}");
        }
    }

    proptest! {
        #[test]
        fn set_bit_walk_matches_the_shift_loop(
            keys in prop::collection::vec(any::<u64>(), 1..64),
            high in 48u32..64,
            seed in any::<u64>(),
        ) {
            for index_bits in [1, 5, 9, 32] {
                let h = H3Hash::new(index_bits, seed);
                let edge = [0, u64::MAX, 1 << 63, u64::MAX << high];
                for &key in keys.iter().chain(&edge) {
                    prop_assert_eq!(h.hash(key), h.hash_reference(key));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index_bits")]
    fn rejects_zero_bits() {
        H3Hash::new(0, 1);
    }
}
