//! Banked Bloom filters: the per-L2-slice array of filters and the per-L1
//! shadow copies.

use crate::h3::H3Hash;
use std::sync::Arc;
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

/// The hash functions of a bank: one selecting the filter a line belongs to
/// and one per filter. They depend only on the [`BloomConfig`], so every bank
/// of a simulated machine — each slice's counting bank and every L1's shadow
/// of it — shares one set behind an [`Arc`].
#[derive(Debug)]
pub struct BloomHashes {
    cfg: BloomConfig,
    select: H3Hash,
    filters: Vec<H3Hash>,
}

impl BloomHashes {
    /// Builds the hash set for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.entries_per_filter` is not a power of two greater
    /// than 1.
    pub fn new(cfg: BloomConfig) -> Self {
        let entries = cfg.entries_per_filter;
        assert!(entries.is_power_of_two() && entries > 1);
        BloomHashes {
            select: H3Hash::new(
                cfg.filters_per_bank.trailing_zeros().max(1),
                cfg.seed ^ 0xFEED,
            ),
            filters: (0..cfg.filters_per_bank)
                .map(|i| H3Hash::new(entries.trailing_zeros(), cfg.seed ^ (i as u64) << 32))
                .collect(),
            cfg,
        }
    }

    /// Index of the filter responsible for `line`.
    #[inline]
    fn filter_index(&self, line: LineAddr) -> usize {
        self.select.hash(line.byte()) % self.cfg.filters_per_bank
    }

    /// The filter responsible for `line` and the entry `line` hashes to
    /// inside it.
    #[inline]
    fn locate(&self, line: LineAddr) -> (usize, usize) {
        let filter = self.filter_index(line);
        (filter, self.filters[filter].hash(line.byte()))
    }
}

/// Per-filter flag of a plain bank: the filter was copied from the L2.
const COPIED: u8 = 1;
/// Per-filter flag of a plain bank: the filter may hold set bits.
const WRITTEN: u8 = 2;

/// The storage of a bank, all filters in one allocation.
#[derive(Debug, Clone)]
enum Cells {
    /// 8-bit saturating counters, `entries_per_filter` per filter.
    Counting(Vec<u8>),
    /// 1-bit entries packed into words, a whole number of words per filter,
    /// plus the [`COPIED`] / [`WRITTEN`] flags of each filter.
    Plain { bits: Vec<u64>, flags: Vec<u8> },
}

/// A bank of Bloom filters indexed by line address, as attached to one L2
/// slice (counting) or one L1's shadow of a slice (plain).
///
/// The line address selects a filter (cache-style indexing) and is then
/// hashed again inside the selected filter, following the paper's
/// description of the structure as "similar to a cache".
#[derive(Debug, Clone)]
pub struct BloomBank {
    hashes: Arc<BloomHashes>,
    cells: Cells,
}

impl BloomBank {
    /// Creates a bank of counting filters (the L2-side structure) with a
    /// hash set of its own.
    pub fn counting(cfg: BloomConfig) -> Self {
        Self::counting_with(Arc::new(BloomHashes::new(cfg)))
    }

    /// Creates a bank of plain filters (the L1-side shadow of one slice)
    /// with a hash set of its own.
    pub fn plain(cfg: BloomConfig) -> Self {
        Self::plain_with(Arc::new(BloomHashes::new(cfg)))
    }

    /// Creates a counting bank over a shared hash set.
    pub fn counting_with(hashes: Arc<BloomHashes>) -> Self {
        let cfg = hashes.cfg;
        BloomBank {
            cells: Cells::Counting(vec![0; cfg.filters_per_bank * cfg.entries_per_filter]),
            hashes,
        }
    }

    /// Creates a plain bank over a shared hash set.
    pub fn plain_with(hashes: Arc<BloomHashes>) -> Self {
        let cfg = hashes.cfg;
        BloomBank {
            cells: Cells::Plain {
                bits: vec![0; cfg.filters_per_bank * words_per_filter(&cfg)],
                flags: vec![0; cfg.filters_per_bank],
            },
            hashes,
        }
    }

    /// The configuration of this bank.
    pub fn config(&self) -> &BloomConfig {
        &self.hashes.cfg
    }

    /// Index of the filter responsible for `line`.
    pub fn filter_index(&self, line: LineAddr) -> usize {
        self.hashes.filter_index(line)
    }

    /// Inserts a line address.
    #[inline]
    pub fn insert(&mut self, line: LineAddr) {
        let (filter, entry) = self.hashes.locate(line);
        let cfg = &self.hashes.cfg;
        match &mut self.cells {
            Cells::Counting(counters) => {
                let c = &mut counters[filter * cfg.entries_per_filter + entry];
                *c = c.saturating_add(1);
            }
            Cells::Plain { bits, flags } => {
                let (word, bit) = bit_of(cfg, filter, entry);
                bits[word] |= bit;
                flags[filter] |= WRITTEN;
            }
        }
    }

    /// Removes a line address (counting banks only; a no-op for plain banks,
    /// which can only be cleared wholesale).
    #[inline]
    pub fn remove(&mut self, line: LineAddr) {
        if let Cells::Counting(counters) = &mut self.cells {
            let (filter, entry) = self.hashes.locate(line);
            let c = &mut counters[filter * self.hashes.cfg.entries_per_filter + entry];
            *c = c.saturating_sub(1);
        }
    }

    /// Whether the line may be present (never a false negative).
    #[inline]
    pub fn may_contain(&self, line: LineAddr) -> bool {
        let (filter, entry) = self.hashes.locate(line);
        let cfg = &self.hashes.cfg;
        match &self.cells {
            Cells::Counting(counters) => counters[filter * cfg.entries_per_filter + entry] > 0,
            Cells::Plain { bits, .. } => {
                let (word, bit) = bit_of(cfg, filter, entry);
                bits[word] & bit != 0
            }
        }
    }

    /// Clears every filter and (for plain banks) marks all copies stale.
    /// Called at barriers for the L1 shadows, most of whose filters were
    /// never written since the last barrier: only flagged ones are zeroed.
    pub fn clear(&mut self) {
        match &mut self.cells {
            Cells::Counting(counters) => counters.fill(0),
            Cells::Plain { bits, flags } => {
                let words = words_per_filter(&self.hashes.cfg);
                for (filter, flag) in flags.iter_mut().enumerate() {
                    if *flag & WRITTEN != 0 {
                        bits[filter * words..][..words].fill(0);
                    }
                    *flag = 0;
                }
            }
        }
    }

    /// Whether the filter covering `line` has been copied from the L2 since
    /// the last clear (plain banks; counting banks are always authoritative).
    pub fn has_copy_for(&self, line: LineAddr) -> bool {
        match &self.cells {
            Cells::Counting(_) => true,
            Cells::Plain { flags, .. } => flags[self.filter_index(line)] & COPIED != 0,
        }
    }

    /// Installs the L2's filter image for the filter covering `line` into
    /// this (plain) bank, OR-ing it with current contents and marking the
    /// copy present.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a plain bank or the configurations differ.
    pub fn install_copy(&mut self, line: LineAddr, l2: &BloomBank) {
        let (cfg, l2_cfg) = (self.hashes.cfg, l2.hashes.cfg);
        assert_eq!(cfg.filters_per_bank, l2_cfg.filters_per_bank);
        let filter = self.filter_index(line);
        let Cells::Plain { bits, flags } = &mut self.cells else {
            panic!("install_copy requires a plain (L1) bank");
        };
        assert_eq!(cfg.entries_per_filter, l2_cfg.entries_per_filter);
        let words = words_per_filter(&cfg);
        let mine = &mut bits[filter * words..][..words];
        match &l2.cells {
            Cells::Counting(counters) => {
                let entries = cfg.entries_per_filter;
                let image = &counters[filter * entries..][..entries];
                for (word, chunk) in mine.iter_mut().zip(image.chunks(64)) {
                    for (bit, &count) in chunk.iter().enumerate() {
                        *word |= u64::from(count > 0) << bit;
                    }
                }
            }
            Cells::Plain { bits: theirs, .. } => {
                for (word, image) in mine.iter_mut().zip(&theirs[filter * words..][..words]) {
                    *word |= image;
                }
            }
        }
        flags[filter] = COPIED | WRITTEN;
    }

    /// Mean occupancy across the bank's filters (equal-sized, so the set
    /// fraction of the whole bank).
    pub fn occupancy(&self) -> f64 {
        let cfg = &self.hashes.cfg;
        let set = match &self.cells {
            Cells::Counting(counters) => counters.iter().filter(|&&c| c > 0).count(),
            Cells::Plain { bits, .. } => bits.iter().map(|w| w.count_ones() as usize).sum(),
        };
        set as f64 / (cfg.filters_per_bank * cfg.entries_per_filter) as f64
    }
}

/// Words a plain filter of `cfg` occupies (entries are a power of two, so
/// either a whole number of words or a part of one).
fn words_per_filter(cfg: &BloomConfig) -> usize {
    cfg.entries_per_filter.div_ceil(64)
}

/// Word index and bit mask of `entry` of `filter` in a plain bank.
#[inline]
fn bit_of(cfg: &BloomConfig, filter: usize, entry: usize) -> (usize, u64) {
    (
        filter * words_per_filter(cfg) + entry / 64,
        1 << (entry % 64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_aligned(n * 64)
    }

    #[test]
    fn paper_storage_figures() {
        // Paper §4.4: 16 KB per L2 slice (an 8-bit counter an entry) and
        // 32 KB per L1 (a bit an entry, shadowing all 16 slices).
        let cfg = BloomConfig::default();
        let entries = cfg.filters_per_bank * cfg.entries_per_filter;
        assert_eq!(entries, 16 * 1024);
        assert_eq!(entries * 16 / 8, 32 * 1024);
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
