//! Waste categories and aggregated reports.

use crate::table::Table;
use std::fmt;
use tw_types::MessageClass;

/// Classification of one word moved through the memory hierarchy (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WasteCategory {
    /// The word's value was read by the program (or returned by the L2 in a
    /// response): useful data movement.
    Used,
    /// The word was overwritten before being used.
    Write,
    /// The word was brought into a cache that already held it.
    Fetch,
    /// The word was invalidated by the coherence protocol before being used.
    Invalidate,
    /// The word was evicted before being used or overwritten.
    Evict,
    /// The word was still unclassified when the simulation ended.
    Unevicted,
    /// The word was fetched from DRAM but dropped at the memory controller
    /// (L2-Flex without sub-line DRAM support); memory-level only.
    Excess,
    /// The word was pushed into the cache by a write-update broadcast
    /// (Dragon) and the receiving core never read it — the waste class
    /// update protocols trade invalidation re-fetches for. Appended after
    /// the paper's categories so their discriminants (and every serialized
    /// invalidation-protocol report) are unchanged.
    Update,
}

impl WasteCategory {
    /// All categories, in the stacking order of Figure 5.3 (the update-waste
    /// extension stacks last).
    pub const ALL: [WasteCategory; 8] = [
        WasteCategory::Used,
        WasteCategory::Fetch,
        WasteCategory::Write,
        WasteCategory::Invalidate,
        WasteCategory::Evict,
        WasteCategory::Unevicted,
        WasteCategory::Excess,
        WasteCategory::Update,
    ];

    /// Whether the category represents wasted movement.
    pub const fn is_waste(self) -> bool {
        !matches!(self, WasteCategory::Used)
    }

    /// Figure label.
    pub const fn label(self) -> &'static str {
        match self {
            WasteCategory::Used => "Used Words",
            WasteCategory::Fetch => "Fetch Waste",
            WasteCategory::Write => "Write Waste",
            WasteCategory::Invalidate => "Invalidate Waste",
            WasteCategory::Evict => "Evict Waste",
            WasteCategory::Unevicted => "Unevicted Waste",
            WasteCategory::Excess => "Excess Waste",
            WasteCategory::Update => "Update Waste",
        }
    }
}

impl fmt::Display for WasteCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Categories in discriminant (`Ord`) order — the iteration order of
/// `words_iter`/`flit_hops_iter`. Note this differs from
/// [`WasteCategory::ALL`], which is figure stacking order (`Fetch` and
/// `Write` are swapped there).
const CAT_ORD: [WasteCategory; CATS] = [
    WasteCategory::Used,
    WasteCategory::Write,
    WasteCategory::Fetch,
    WasteCategory::Invalidate,
    WasteCategory::Evict,
    WasteCategory::Unevicted,
    WasteCategory::Excess,
    WasteCategory::Update,
];

const CATS: usize = 8;
const CLASSES: usize = 4;

#[inline(always)]
fn hop_idx(class: MessageClass, category: WasteCategory) -> usize {
    // Class-major, category-minor — ascending flat index reproduces the
    // `(MessageClass, WasteCategory)` tuple-Ord iteration order.
    class as usize * CATS + category as usize
}

/// Aggregated outcome of one profiler: word counts and the flit-hops the
/// classified words were responsible for, split by category and, for
/// flit-hops, by the message class (load vs. store response) that moved them.
///
/// Stored as dense tables indexed by discriminant (this is the single
/// hottest accumulator in the simulator — every profiled word lands here).
/// A record marks its slots present even at 0.0 flit-hops, so the raw-entry
/// round trip through the result cache stays exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WasteReport {
    words: Table<u64, CATS>,
    flit_hops: Table<f64, { CLASSES * CATS }>,
}

impl WasteReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        WasteReport::default()
    }

    /// Records one classified word that cost `flit_hops` to move as part of a
    /// `class` response.
    #[inline]
    pub fn record(&mut self, category: WasteCategory, class: MessageClass, flit_hops: f64) {
        self.words.add(category as usize, 1);
        self.flit_hops.add(hop_idx(class, category), flit_hops);
    }

    /// Records `n` classified words that each cost `flit_hops`: exactly `n`
    /// calls of [`WasteReport::record`] with the same arguments, the flit-hop
    /// sum included (the same `n` sequential additions).
    #[inline]
    pub fn record_n(
        &mut self,
        category: WasteCategory,
        class: MessageClass,
        flit_hops: f64,
        n: u32,
    ) {
        if n == 0 {
            return;
        }
        self.words.add(category as usize, u64::from(n));
        self.flit_hops.add_n(hop_idx(class, category), flit_hops, n);
    }

    /// Number of words classified into `category`.
    pub fn words(&self, category: WasteCategory) -> u64 {
        self.words.get(category as usize)
    }

    /// Total words profiled.
    pub fn total_words(&self) -> u64 {
        self.words.entries().map(|(_, n)| n).sum()
    }

    /// Total words classified as waste.
    pub fn wasted_words(&self) -> u64 {
        WasteCategory::ALL
            .iter()
            .filter(|c| c.is_waste())
            .map(|c| self.words(*c))
            .sum()
    }

    /// Fraction of profiled words that were waste (0 when nothing profiled).
    pub fn waste_fraction(&self) -> f64 {
        let total = self.total_words();
        if total == 0 {
            0.0
        } else {
            self.wasted_words() as f64 / total as f64
        }
    }

    /// Flit-hops spent moving words of `category` in responses of `class`.
    pub fn flit_hops(&self, class: MessageClass, category: WasteCategory) -> f64 {
        self.flit_hops.get(hop_idx(class, category))
    }

    /// Flit-hops spent on *used* words in responses of `class`.
    pub fn used_flit_hops(&self, class: MessageClass) -> f64 {
        self.flit_hops(class, WasteCategory::Used)
    }

    /// Flit-hops spent on *wasted* words in responses of `class`.
    pub fn wasted_flit_hops(&self, class: MessageClass) -> f64 {
        WasteCategory::ALL
            .iter()
            .filter(|c| c.is_waste())
            .map(|c| self.flit_hops(class, *c))
            .sum()
    }

    /// Iterates over the raw per-category word counts in a stable order.
    pub fn words_iter(&self) -> impl Iterator<Item = (WasteCategory, u64)> + '_ {
        self.words.entries().map(|(i, n)| (CAT_ORD[i], n))
    }

    /// Iterates over the raw per-(class, category) flit-hop entries in a
    /// stable order.
    pub fn flit_hops_iter(&self) -> impl Iterator<Item = (MessageClass, WasteCategory, f64)> + '_ {
        self.flit_hops
            .entries()
            .map(|(i, h)| (MessageClass::ALL[i / CATS], CAT_ORD[i % CATS], h))
    }

    /// Rebuilds a report from raw entries, inserted verbatim — the inverse
    /// of [`WasteReport::words_iter`] / [`WasteReport::flit_hops_iter`].
    /// `from_parts(x.words_iter(), x.flit_hops_iter())` is bit-identical to
    /// `x` (the experiment result cache's round-trip guarantee).
    pub fn from_parts(
        words: impl IntoIterator<Item = (WasteCategory, u64)>,
        flit_hops: impl IntoIterator<Item = (MessageClass, WasteCategory, f64)>,
    ) -> Self {
        WasteReport {
            words: Table::from_entries(words.into_iter().map(|(cat, n)| (cat as usize, n))),
            flit_hops: Table::from_entries(
                flit_hops
                    .into_iter()
                    .map(|(cl, ca, h)| (hop_idx(cl, ca), h)),
            ),
        }
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &WasteReport) {
        self.words.merge(&other.words);
        self.flit_hops.merge(&other.flit_hops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_waste_predicate() {
        assert!(!WasteCategory::Used.is_waste());
        for c in [
            WasteCategory::Write,
            WasteCategory::Fetch,
            WasteCategory::Invalidate,
            WasteCategory::Evict,
            WasteCategory::Unevicted,
            WasteCategory::Excess,
            WasteCategory::Update,
        ] {
            assert!(c.is_waste(), "{c} should be waste");
        }
    }

    #[test]
    fn update_is_appended_after_the_paper_categories() {
        // Serialized invalidation-protocol reports index categories by
        // label, but the dense in-memory layout indexes by discriminant:
        // Update must not displace any existing category.
        assert_eq!(WasteCategory::ALL[CATS - 1], WasteCategory::Update);
        assert_eq!(CAT_ORD[CATS - 1], WasteCategory::Update);
        assert_eq!(
            WasteCategory::Excess as usize + 1,
            WasteCategory::Update as usize
        );
    }

    #[test]
    fn report_accumulates_words_and_hops() {
        let mut r = WasteReport::new();
        r.record(WasteCategory::Used, MessageClass::Load, 2.0);
        r.record(WasteCategory::Used, MessageClass::Load, 1.0);
        r.record(WasteCategory::Evict, MessageClass::Store, 4.0);
        assert_eq!(r.words(WasteCategory::Used), 2);
        assert_eq!(r.words(WasteCategory::Evict), 1);
        assert_eq!(r.total_words(), 3);
        assert_eq!(r.wasted_words(), 1);
        assert!((r.waste_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.used_flit_hops(MessageClass::Load), 3.0);
        assert_eq!(r.wasted_flit_hops(MessageClass::Store), 4.0);
        assert_eq!(r.wasted_flit_hops(MessageClass::Load), 0.0);
    }

    #[test]
    fn record_n_is_n_records_bit_for_bit() {
        // From a non-zero sum, with addends for which one addition of
        // `n as f64 * x` rounds differently from n additions of `x` (0.25,
        // the committed artifacts' dyadic case, is the one where it cannot).
        for x in [0.25, 1.0 / 3.0, 1e-9, 1e15] {
            for n in [1u32, 2, 3, 7, 16, 1000] {
                let mut one = WasteReport::new();
                one.record(WasteCategory::Evict, MessageClass::Load, 0.7);
                let mut batched = one.clone();
                for _ in 0..n {
                    one.record(WasteCategory::Evict, MessageClass::Load, x);
                }
                batched.record_n(WasteCategory::Evict, MessageClass::Load, x, n);
                assert_eq!(
                    batched
                        .flit_hops(MessageClass::Load, WasteCategory::Evict)
                        .to_bits(),
                    one.flit_hops(MessageClass::Load, WasteCategory::Evict)
                        .to_bits(),
                    "{n} x {x}"
                );
                assert_eq!(batched, one, "{n} x {x}");
            }
        }
    }

    #[test]
    fn record_n_of_nothing_leaves_the_slot_absent() {
        let mut r = WasteReport::new();
        r.record_n(WasteCategory::Fetch, MessageClass::Store, 2.0, 0);
        assert_eq!(r, WasteReport::new());
        assert_eq!(r.words_iter().count(), 0);
        assert_eq!(r.flit_hops_iter().count(), 0);
    }

    #[test]
    fn merge_combines_reports() {
        let mut a = WasteReport::new();
        a.record(WasteCategory::Used, MessageClass::Load, 1.0);
        let mut b = WasteReport::new();
        b.record(WasteCategory::Used, MessageClass::Load, 2.0);
        b.record(WasteCategory::Write, MessageClass::Store, 0.5);
        a.merge(&b);
        assert_eq!(a.words(WasteCategory::Used), 2);
        assert_eq!(a.flit_hops(MessageClass::Load, WasteCategory::Used), 3.0);
        assert_eq!(a.words(WasteCategory::Write), 1);
    }

    #[test]
    fn empty_report_has_zero_waste_fraction() {
        assert_eq!(WasteReport::new().waste_fraction(), 0.0);
    }

    #[test]
    fn raw_entries_round_trip_bit_exactly() {
        let mut r = WasteReport::new();
        r.record(WasteCategory::Used, MessageClass::Load, 0.1 + 0.2);
        r.record(WasteCategory::Evict, MessageClass::Store, 0.0);
        let back = WasteReport::from_parts(r.words_iter(), r.flit_hops_iter());
        assert_eq!(back, r);
        assert_eq!(back.words(WasteCategory::Evict), 1);
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(WasteCategory::Used.label(), "Used Words");
        assert_eq!(WasteCategory::Excess.to_string(), "Excess Waste");
        assert_eq!(WasteCategory::Update.to_string(), "Update Waste");
        assert_eq!(WasteCategory::ALL.len(), 8);
    }
}
