//! Plain and counting Bloom filters with a private H3 hash each: the
//! per-filter bank that PR 13 flattened into `BloomBank`. Kept as the
//! reference `model_bank.rs` checks the flat bank against; `prop_bloom.rs`
//! holds these filters to the no-false-negative guarantee.

// Each test binary that includes this module uses part of it.
#![allow(dead_code)]

use tw_bloom::H3Hash;

/// A non-counting Bloom filter (1 bit per entry), as used at the L1s.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<bool>,
    hash: H3Hash,
    insertions: u64,
}

impl BloomFilter {
    /// Creates an empty filter with `entries` 1-bit entries (must be a power
    /// of two) hashed by an H3 function seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two greater than 1.
    pub fn new(entries: usize, seed: u64) -> Self {
        assert!(entries.is_power_of_two() && entries > 1);
        BloomFilter {
            bits: vec![false; entries],
            hash: H3Hash::new(entries.trailing_zeros(), seed),
            insertions: 0,
        }
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.bits.len()
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        let idx = self.hash.hash(key);
        self.bits[idx] = true;
        self.insertions += 1;
    }

    /// Whether the key may have been inserted (no false negatives).
    pub fn may_contain(&self, key: u64) -> bool {
        self.bits[self.hash.hash(key)]
    }

    /// Clears every entry.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|b| *b = false);
    }

    /// Ors another filter's contents into this one (used when an L1 receives
    /// a copy of an L2 filter).
    ///
    /// # Panics
    ///
    /// Panics if the two filters have different sizes.
    pub fn union_from(&mut self, other: &BloomFilter) {
        assert_eq!(self.bits.len(), other.bits.len());
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
    }

    /// Imports the set-bit image of a counting filter (an L2→L1 copy).
    ///
    /// # Panics
    ///
    /// Panics if the two filters have different sizes.
    pub fn union_from_counting(&mut self, other: &CountingBloomFilter) {
        assert_eq!(self.bits.len(), other.counters.len());
        for (a, c) in self.bits.iter_mut().zip(&other.counters) {
            *a |= *c > 0;
        }
    }

    /// Fraction of entries that are set (a proxy for the false-positive rate
    /// with a single hash function).
    pub fn occupancy(&self) -> f64 {
        self.bits.iter().filter(|&&b| b).count() as f64 / self.bits.len() as f64
    }
}

/// A counting Bloom filter (8-bit saturating counters), as used at the L2s so
/// that lines can be removed when they stop being dirty.
#[derive(Debug, Clone)]
pub struct CountingBloomFilter {
    counters: Vec<u8>,
    hash: H3Hash,
}

impl CountingBloomFilter {
    /// Creates an empty counting filter (see [`BloomFilter::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two greater than 1.
    pub fn new(entries: usize, seed: u64) -> Self {
        assert!(entries.is_power_of_two() && entries > 1);
        CountingBloomFilter {
            counters: vec![0; entries],
            hash: H3Hash::new(entries.trailing_zeros(), seed),
        }
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.counters.len()
    }

    /// Increments the counter for a key (saturating).
    pub fn insert(&mut self, key: u64) {
        let idx = self.hash.hash(key);
        self.counters[idx] = self.counters[idx].saturating_add(1);
    }

    /// Decrements the counter for a key (saturating at zero).
    pub fn remove(&mut self, key: u64) {
        let idx = self.hash.hash(key);
        self.counters[idx] = self.counters[idx].saturating_sub(1);
    }

    /// Whether the key may be present.
    pub fn may_contain(&self, key: u64) -> bool {
        self.counters[self.hash.hash(key)] > 0
    }

    /// Clears every counter.
    pub fn clear(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = 0);
    }

    /// Fraction of entries with non-zero counters.
    pub fn occupancy(&self) -> f64 {
        self.counters.iter().filter(|&&c| c > 0).count() as f64 / self.counters.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(512, 1);
        for k in (0..200u64).map(|i| i * 64) {
            f.insert(k);
        }
        for k in (0..200u64).map(|i| i * 64) {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut f = BloomFilter::new(512, 1);
        f.insert(640);
        assert!(f.may_contain(640));
        f.clear();
        assert!(!f.may_contain(640));
        assert_eq!(f.occupancy(), 0.0);
    }

    #[test]
    fn counting_filter_supports_removal() {
        let mut f = CountingBloomFilter::new(512, 9);
        f.insert(128);
        f.insert(128);
        assert!(f.may_contain(128));
        f.remove(128);
        assert!(f.may_contain(128), "still one reference outstanding");
        f.remove(128);
        assert!(!f.may_contain(128));
        // Removing again must not underflow.
        f.remove(128);
        assert!(!f.may_contain(128));
    }

    #[test]
    fn union_from_counting_copies_set_entries() {
        let mut l2 = CountingBloomFilter::new(512, 5);
        let mut l1 = BloomFilter::new(512, 5);
        for k in (0..50u64).map(|i| i * 4096) {
            l2.insert(k);
        }
        l1.union_from_counting(&l2);
        for k in (0..50u64).map(|i| i * 4096) {
            assert!(l1.may_contain(k));
        }
    }

    #[test]
    fn union_from_plain_filter() {
        let mut a = BloomFilter::new(64, 2);
        let mut b = BloomFilter::new(64, 2);
        b.insert(7 * 64);
        a.union_from(&b);
        assert!(a.may_contain(7 * 64));
    }

    #[test]
    fn occupancy_grows_with_insertions() {
        let mut f = CountingBloomFilter::new(512, 11);
        assert_eq!(f.occupancy(), 0.0);
        for k in 0..256u64 {
            f.insert(k * 64);
        }
        assert!(f.occupancy() > 0.2);
        assert_eq!(f.entries(), 512);
    }

    #[test]
    #[should_panic]
    fn mismatched_union_panics() {
        let mut a = BloomFilter::new(64, 2);
        let b = BloomFilter::new(128, 2);
        a.union_from(&b);
    }
}
