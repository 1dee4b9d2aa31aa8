//! Banked Bloom filters: the per-L2-slice array of filters and the per-L1
//! shadow copies.

use crate::filter::{BloomFilter, CountingBloomFilter};
use crate::h3::H3Hash;
use tw_types::LineAddr;

/// Parameters of the Bloom-filter structure (paper §4.4 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BloomConfig {
    /// Entries per individual filter (512).
    pub entries_per_filter: usize,
    /// Number of filters per L2 slice (32).
    pub filters_per_bank: usize,
    /// Seed controlling the hash functions (deterministic runs).
    pub seed: u64,
}

impl Default for BloomConfig {
    fn default() -> Self {
        BloomConfig {
            entries_per_filter: 512,
            filters_per_bank: 32,
            seed: 0xB10F,
        }
    }
}

impl BloomConfig {
    /// Storage required at an L1 for shadow copies of `slices` L2 banks, in
    /// bytes (1 bit per entry).
    pub fn l1_storage_bytes(&self, slices: usize) -> usize {
        self.filters_per_bank * self.entries_per_filter * slices / 8
    }

    /// Storage required at one L2 slice, in bytes (8-bit counters).
    pub fn l2_storage_bytes(&self) -> usize {
        self.filters_per_bank * self.entries_per_filter
    }
}

/// The variant of filters held in a bank.
#[derive(Debug, Clone)]
enum BankKind {
    Counting(Vec<CountingBloomFilter>),
    Plain(Vec<BloomFilter>),
}

/// A bank of Bloom filters indexed by line address, as attached to one L2
/// slice (counting) or one L1's shadow of a slice (plain).
///
/// The line address selects a filter (cache-style indexing) and is then
/// hashed again inside the selected filter, following the paper's
/// description of the structure as "similar to a cache".
#[derive(Debug, Clone)]
pub struct BloomBank {
    cfg: BloomConfig,
    select: H3Hash,
    kind: BankKind,
    /// Which filters have been copied from the L2 (only meaningful for the
    /// plain/L1 variant).
    copied: Vec<bool>,
}

impl BloomBank {
    /// Creates a bank of counting filters (the L2-side structure).
    pub fn counting(cfg: BloomConfig) -> Self {
        let filters = (0..cfg.filters_per_bank)
            .map(|i| CountingBloomFilter::new(cfg.entries_per_filter, cfg.seed ^ (i as u64) << 32))
            .collect();
        BloomBank {
            select: H3Hash::new(
                cfg.filters_per_bank.trailing_zeros().max(1),
                cfg.seed ^ 0xFEED,
            ),
            kind: BankKind::Counting(filters),
            copied: vec![true; cfg.filters_per_bank],
            cfg,
        }
    }

    /// Creates a bank of plain filters (the L1-side shadow of one slice).
    pub fn plain(cfg: BloomConfig) -> Self {
        let filters = (0..cfg.filters_per_bank)
            .map(|i| BloomFilter::new(cfg.entries_per_filter, cfg.seed ^ (i as u64) << 32))
            .collect();
        BloomBank {
            select: H3Hash::new(
                cfg.filters_per_bank.trailing_zeros().max(1),
                cfg.seed ^ 0xFEED,
            ),
            kind: BankKind::Plain(filters),
            copied: vec![false; cfg.filters_per_bank],
            cfg,
        }
    }

    /// The configuration of this bank.
    pub fn config(&self) -> &BloomConfig {
        &self.cfg
    }

    /// Index of the filter responsible for `line`.
    pub fn filter_index(&self, line: LineAddr) -> usize {
        self.select.hash(line.byte()) % self.cfg.filters_per_bank
    }

    /// Inserts a line address.
    pub fn insert(&mut self, line: LineAddr) {
        let idx = self.filter_index(line);
        match &mut self.kind {
            BankKind::Counting(f) => f[idx].insert(line.byte()),
            BankKind::Plain(f) => f[idx].insert(line.byte()),
        }
    }

    /// Removes a line address (counting banks only; a no-op for plain banks,
    /// which can only be cleared wholesale).
    pub fn remove(&mut self, line: LineAddr) {
        let idx = self.filter_index(line);
        if let BankKind::Counting(f) = &mut self.kind {
            f[idx].remove(line.byte());
        }
    }

    /// Whether the line may be present (never a false negative).
    pub fn may_contain(&self, line: LineAddr) -> bool {
        let idx = self.filter_index(line);
        match &self.kind {
            BankKind::Counting(f) => f[idx].may_contain(line.byte()),
            BankKind::Plain(f) => f[idx].may_contain(line.byte()),
        }
    }

    /// Clears every filter and (for plain banks) marks all copies stale.
    /// Called at barriers for the L1 shadows.
    pub fn clear(&mut self) {
        match &mut self.kind {
            BankKind::Counting(f) => f.iter_mut().for_each(CountingBloomFilter::clear),
            BankKind::Plain(f) => f.iter_mut().for_each(BloomFilter::clear),
        }
        if matches!(self.kind, BankKind::Plain(_)) {
            self.copied.iter_mut().for_each(|c| *c = false);
        }
    }

    /// Whether the filter covering `line` has been copied from the L2 since
    /// the last clear (plain banks; counting banks are always authoritative).
    pub fn has_copy_for(&self, line: LineAddr) -> bool {
        self.copied[self.filter_index(line)]
    }

    /// Installs the L2's filter image for the filter covering `line` into
    /// this (plain) bank, OR-ing it with current contents and marking the
    /// copy present.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a plain bank or the configurations differ.
    pub fn install_copy(&mut self, line: LineAddr, l2: &BloomBank) {
        assert_eq!(self.cfg.filters_per_bank, l2.cfg.filters_per_bank);
        let idx = self.filter_index(line);
        let BankKind::Plain(mine) = &mut self.kind else {
            panic!("install_copy requires a plain (L1) bank");
        };
        match &l2.kind {
            BankKind::Counting(theirs) => mine[idx].union_from_counting(&theirs[idx]),
            BankKind::Plain(theirs) => mine[idx].union_from(&theirs[idx]),
        }
        self.copied[idx] = true;
    }

    /// Mean occupancy across the bank's filters.
    pub fn occupancy(&self) -> f64 {
        let occ: f64 = match &self.kind {
            BankKind::Counting(f) => f.iter().map(CountingBloomFilter::occupancy).sum(),
            BankKind::Plain(f) => f.iter().map(BloomFilter::occupancy).sum(),
        };
        occ / self.cfg.filters_per_bank as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_aligned(n * 64)
    }

    #[test]
    fn paper_storage_figures() {
        // Paper §4.4: 32 KB per L1 (for all 16 slices) and 16 KB per L2 slice.
        let cfg = BloomConfig::default();
        assert_eq!(cfg.l1_storage_bytes(16), 32 * 1024);
        assert_eq!(cfg.l2_storage_bytes(), 16 * 1024);
    }

    #[test]
    fn default_filter_selection_is_pinned() {
        // Taken at the parent of the flat-bank rewrite (per-filter banks,
        // shift-loop H3), for the same four lines `h3.rs` pins.
        let b = BloomBank::counting(BloomConfig::default());
        for (byte, filter) in [
            (0x40u64, 9),
            (0x4_0000, 12),
            (0x2000_0040, 23),
            (0xFFFF_FFFF_FFFF_FFC0, 6),
        ] {
            assert_eq!(b.filter_index(LineAddr::from_aligned(byte)), filter);
        }
    }

    #[test]
    fn counting_bank_insert_query_remove() {
        let mut b = BloomBank::counting(BloomConfig::default());
        b.insert(line(100));
        assert!(b.may_contain(line(100)));
        b.remove(line(100));
        assert!(!b.may_contain(line(100)));
    }

    #[test]
    fn plain_bank_copy_protocol() {
        let cfg = BloomConfig::default();
        let mut l2 = BloomBank::counting(cfg);
        let mut l1 = BloomBank::plain(cfg);
        l2.insert(line(7));
        assert!(!l1.has_copy_for(line(7)));
        l1.install_copy(line(7), &l2);
        assert!(l1.has_copy_for(line(7)));
        assert!(l1.may_contain(line(7)));
        // Barrier: clear L1 shadows, copies become stale.
        l1.clear();
        assert!(!l1.has_copy_for(line(7)));
        assert!(!l1.may_contain(line(7)));
    }

    #[test]
    fn l1_writebacks_insert_into_shadow() {
        let mut l1 = BloomBank::plain(BloomConfig::default());
        l1.insert(line(55));
        assert!(l1.may_contain(line(55)));
        // remove() is a no-op on plain banks.
        l1.remove(line(55));
        assert!(l1.may_contain(line(55)));
    }

    #[test]
    fn no_false_negatives_across_bank() {
        let mut b = BloomBank::counting(BloomConfig::default());
        let lines: Vec<_> = (0..2000u64).map(|i| line(i * 13)).collect();
        for &l in &lines {
            b.insert(l);
        }
        assert!(lines.iter().all(|&l| b.may_contain(l)));
        assert!(b.occupancy() > 0.0);
    }

    #[test]
    #[should_panic(expected = "plain (L1) bank")]
    fn install_copy_into_counting_bank_panics() {
        let cfg = BloomConfig::default();
        let l2 = BloomBank::counting(cfg);
        let mut another = BloomBank::counting(cfg);
        another.install_copy(line(1), &l2);
    }
}
