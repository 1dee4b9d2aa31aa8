//! The L1 and L2 waste-profiling state machines (Figures 4.1 and 4.2).

use crate::category::{WasteCategory, WasteReport};
use crate::{chunk_of, ONE_WORD};
use tw_types::{Addr, FastMap, MessageClass, WordMask};

/// Which cache level a [`CacheWasteProfiler`] instruments.
///
/// The two levels share the arrival/evict/fetch/unevicted behaviour; they
/// differ in what counts as *use* (a program load at the L1, serving an L1
/// request at the L2) and in whether protocol invalidations occur (L1 only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLevel {
    /// A private L1 data cache.
    L1,
    /// The shared L2 (any slice).
    L2,
}

/// One arrival group: a set of words of the chunk that arrived in the same
/// response and therefore share one `(flit_hops, class, update)` record.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Group {
    words: u16,
    flit_hops: f64,
    class: MessageClass,
    /// The words were pushed by a write-update broadcast (Dragon) rather
    /// than fetched: if they die unread (evicted, invalidated or unevicted
    /// at the end), they classify as `Update` waste instead.
    update: bool,
}

/// The category an unread word finalizes into, given how it arrived: words
/// a write-update broadcast pushed become `Update` waste wherever a fetched
/// word would have been Evict/Invalidate/Unevicted waste. `Used` (the
/// update paid off) and `Write` (overwritten either way) pass through.
#[inline(always)]
fn classify(category: WasteCategory, update: bool) -> WasteCategory {
    if update
        && matches!(
            category,
            WasteCategory::Evict | WasteCategory::Invalidate | WasteCategory::Unevicted
        )
    {
        WasteCategory::Update
    } else {
        category
    }
}

/// How many groups a chunk holds inline before spilling to the heap. Full
/// line fills produce exactly one group; partial DeNovo word fetches rarely
/// leave more than two unclassified groups per line.
const INLINE_GROUPS: usize = 2;

/// Pending words of one 64-byte chunk, as a union mask plus arrival groups.
///
/// Invariant: every set bit of `mask` belongs to exactly one group, and
/// every group's `words` is non-empty and a subset of `mask`. Sharing the
/// per-response record across words keeps the chunk ~4x smaller than
/// per-word slots would — small enough that probe misses stay cheap.
#[derive(Debug, Clone)]
struct Chunk {
    mask: u16,
    inline: [Group; INLINE_GROUPS],
    n_inline: u8,
    spill: Vec<Group>,
}

impl Chunk {
    fn empty() -> Self {
        const NO_GROUP: Group = Group {
            words: 0,
            flit_hops: 0.0,
            class: MessageClass::Load,
            update: false,
        };
        Chunk {
            mask: 0,
            inline: [NO_GROUP; INLINE_GROUPS],
            n_inline: 0,
            spill: Vec::new(),
        }
    }

    /// Adds `words` with the shared record, merging into an existing group
    /// when the record is identical (merging cannot change any word's
    /// record, so classification output is unaffected).
    fn add(&mut self, words: u16, flit_hops: f64, class: MessageClass, update: bool) {
        debug_assert!(words != 0 && self.mask & words == 0);
        self.mask |= words;
        for g in self.groups_mut() {
            if g.flit_hops.to_bits() == flit_hops.to_bits()
                && g.class == class
                && g.update == update
            {
                g.words |= words;
                return;
            }
        }
        let group = Group {
            words,
            flit_hops,
            class,
            update,
        };
        if (self.n_inline as usize) < INLINE_GROUPS {
            self.inline[self.n_inline as usize] = group;
            self.n_inline += 1;
        } else {
            self.spill.push(group);
        }
    }

    /// Removes word `w` (which must be pending) and returns its group as the
    /// removal left it: the word's record, and `words == 0` if it was the
    /// group's last.
    fn take(&mut self, w: usize) -> Group {
        let bit = 1u16 << w;
        debug_assert!(self.mask & bit != 0);
        self.mask &= !bit;
        for g in self.groups_mut() {
            if g.words & bit != 0 {
                g.words &= !bit;
                return *g;
            }
        }
        unreachable!("pending word belongs to a group");
    }

    /// Removes the pending words `hit` and records each as `category`, in
    /// ascending word order. When one arrival group holds them all — every
    /// full-line fill is one group — they share one record and one report
    /// bucket, so that is one mask operation and one batched record.
    /// Returns `(batched, emptied)`: whether that path served the call, and
    /// whether some group lost its last word (the chunk then wants
    /// [`Chunk::compact`], unless it is empty and about to be removed).
    fn finalize(
        &mut self,
        hit: u16,
        category: WasteCategory,
        report: &mut WasteReport,
    ) -> (bool, bool) {
        debug_assert!(hit != 0 && self.mask & hit == hit);
        let holder = self.groups_mut().find(|g| g.words & hit == hit).map(|g| {
            g.words &= !hit;
            *g
        });
        if let Some(g) = holder {
            self.mask &= !hit;
            report.record_n(
                classify(category, g.update),
                g.class,
                g.flit_hops,
                hit.count_ones(),
            );
            return (true, g.words == 0);
        }
        (false, self.finalize_spanning(hit, category, report))
    }

    /// [`Chunk::finalize`] of hit words that span groups, word by word:
    /// groups of differing flit-hops can share a report bucket, and its f64
    /// sum must accumulate in ascending word order. Returns whether some
    /// group lost its last word.
    #[cold]
    fn finalize_spanning(
        &mut self,
        hit: u16,
        category: WasteCategory,
        report: &mut WasteReport,
    ) -> bool {
        let (mut left, mut emptied) = (hit, false);
        while left != 0 {
            let w = left.trailing_zeros() as usize;
            left &= left - 1;
            let g = self.take(w);
            emptied |= g.words == 0;
            report.record(classify(category, g.update), g.class, g.flit_hops);
        }
        emptied
    }

    fn groups_mut(&mut self) -> impl Iterator<Item = &mut Group> {
        self.inline[..self.n_inline as usize]
            .iter_mut()
            .chain(self.spill.iter_mut())
    }

    /// Drops emptied groups so the scan in [`Chunk::take`] stays short. Only
    /// worth calling when a group just emptied.
    fn compact(&mut self) {
        self.spill.retain(|g| g.words != 0);
        let mut i = 0;
        let mut n = self.n_inline as usize;
        while i < n {
            if self.inline[i].words == 0 {
                if let Some(g) = self.spill.pop() {
                    self.inline[i] = g;
                    i += 1;
                } else {
                    // Backfill from the end and re-examine the moved group.
                    n -= 1;
                    self.inline[i] = self.inline[n];
                }
            } else {
                i += 1;
            }
        }
        self.n_inline = n as u8;
    }
}

/// Per-cache waste profiler implementing the decision diagrams of §4.1.
///
/// The caller (the simulator's cache controllers) reports word- or
/// line-granularity events; the profiler defers classification until a
/// word's fate is known. A per-word event is the line event over the one
/// word at its address. Words that arrive while the same address is still
/// pending are classified as `Fetch` waste immediately (the cache already
/// had the word).
#[derive(Debug, Clone)]
pub struct CacheWasteProfiler {
    level: CacheLevel,
    // Keyed by 64-byte chunk; FastMap because this table is hit several
    // times per simulated memory operation, and chunk keying resolves a
    // whole line fill or eviction with one probe. Drained chunks are
    // removed eagerly: the table then stays sized to the words actually in
    // flight (cache-resident, unclassified), which keeps it hot in the host
    // cache.
    pending: FastMap<Chunk>,
    report: WasteReport,
    /// Line events (`*_words` calls) that finalized at least one word, and
    /// how many of them one arrival group served. Observer lane only.
    line_finalizes: u64,
    line_finalizes_batched: u64,
}

impl CacheWasteProfiler {
    /// Creates a profiler for one cache of the given level.
    pub fn new(level: CacheLevel) -> Self {
        CacheWasteProfiler {
            level,
            pending: FastMap::new(),
            report: WasteReport::new(),
            line_finalizes: 0,
            line_finalizes_batched: 0,
        }
    }

    /// The level this profiler instruments.
    pub fn level(&self) -> CacheLevel {
        self.level
    }

    /// Number of words whose classification is still pending.
    pub fn pending_words(&self) -> usize {
        self.pending
            .iter()
            .map(|(_, c)| c.mask.count_ones() as usize)
            .sum()
    }

    /// Pending-table probe statistics `(chunks, collision_probes, resizes)`
    /// for flight-recorder spans. Observer lane only.
    pub fn pending_table_stats(&self) -> (usize, u64, u64) {
        let (probes, resizes) = self.pending.probe_stats();
        (self.pending.len(), probes, resizes)
    }

    /// `(line events that finalized a word, those one arrival group served
    /// with one mask operation)` so far, for flight-recorder spans. Observer
    /// lane only.
    pub fn finalize_stats(&self) -> (u64, u64) {
        (self.line_finalizes, self.line_finalizes_batched)
    }

    /// A word arrived at the cache in a response of class `class`, having
    /// spent `flit_hops` flit-hops on its final network leg.
    ///
    /// `already_present` must be true when the cache already held valid or
    /// dirty data for the word; the arrival is then immediately classified as
    /// `Fetch` waste (paper §4.1) and the older instance keeps its pending
    /// state.
    pub fn arrive(
        &mut self,
        addr: Addr,
        already_present: bool,
        flit_hops: f64,
        class: MessageClass,
    ) {
        let already = if already_present {
            ONE_WORD
        } else {
            WordMask::EMPTY
        };
        self.arrive_words(addr, ONE_WORD, already, flit_hops, class);
    }

    /// A write-update broadcast (Dragon `UpdateData`) delivered the word into
    /// the cache. Any still-pending instance was overwritten before use and
    /// finalizes as `Write` waste; the pushed word then becomes pending as
    /// *update-born*, so if the receiving core never reads it, it finalizes
    /// as `Update` waste instead of Evict/Invalidate/Unevicted.
    pub fn updated(&mut self, addr: Addr, flit_hops: f64) {
        self.finalize(addr, ONE_WORD, WasteCategory::Write);
        let (key, bit) = chunk_of(addr, ONE_WORD);
        let chunk = self.pending.get_or_insert_with(key, Chunk::empty);
        // Updates ride store-class responses (the write that triggered them).
        chunk.add(bit, flit_hops, MessageClass::Store, true);
    }

    /// Line [`CacheWasteProfiler::arrive`]: words `words` of the line whose
    /// first word is at `line0` arrive together (one response), with
    /// `already` naming the words the cache held beforehand. The same as
    /// `arrive` per word in ascending word order, with one table probe.
    pub fn arrive_words(
        &mut self,
        line0: Addr,
        words: WordMask,
        already: WordMask,
        flit_hops: f64,
        class: MessageClass,
    ) {
        let (key, requested) = chunk_of(line0, words);
        let mut fetch = chunk_of(line0, already.intersect(words)).1;
        let fresh = requested & !fetch;
        // Only a word the cache did not hold touches the table, so a call
        // that pends nothing leaves no empty chunk behind.
        if fresh != 0 {
            let chunk = self.pending.get_or_insert_with(key, Chunk::empty);
            fetch |= fresh & chunk.mask;
            let fresh = fresh & !chunk.mask;
            if fresh != 0 {
                chunk.add(fresh, flit_hops, class, false);
            }
        }
        // All Fetch records of this call share (class, flit_hops) and land in
        // one report bucket, so recording them after the pending update sums
        // the same addends the interleaved per-word order would.
        self.report
            .record_n(WasteCategory::Fetch, class, flit_hops, fetch.count_ones());
    }

    /// Classifies whichever of `words` of the line whose first word is at
    /// `line0` are pending, in ascending word order, with one table probe;
    /// words with no pending record are skipped. Returns `None` when none
    /// was pending, else whether one arrival group held them all.
    fn finalize(&mut self, line0: Addr, words: WordMask, category: WasteCategory) -> Option<bool> {
        debug_assert!(
            category != WasteCategory::Invalidate || self.level == CacheLevel::L1,
            "L2 words are not invalidated in this study"
        );
        if words.is_empty() {
            return None;
        }
        let (key, bits) = chunk_of(line0, words);
        let chunk = self.pending.get_mut(key)?;
        let hit = chunk.mask & bits;
        if hit == 0 {
            return None;
        }
        let (batched, emptied) = chunk.finalize(hit, category, &mut self.report);
        if chunk.mask == 0 {
            self.pending.remove(key);
        } else if emptied {
            chunk.compact();
        }
        Some(batched)
    }

    /// [`CacheWasteProfiler::finalize`] of a line event, counted in
    /// [`CacheWasteProfiler::finalize_stats`].
    fn finalize_words(&mut self, line0: Addr, words: WordMask, category: WasteCategory) {
        if let Some(batched) = self.finalize(line0, words, category) {
            self.line_finalizes += 1;
            self.line_finalizes_batched += u64::from(batched);
        }
    }

    /// The program loaded the word (L1), or the cache returned it in a
    /// response to an L1 (L2): the pending instance becomes `Used`.
    pub fn loaded(&mut self, addr: Addr) {
        self.finalize(addr, ONE_WORD, WasteCategory::Used);
    }

    /// Line [`CacheWasteProfiler::loaded`] over `words` of the line whose
    /// first word is at `line0`.
    pub fn loaded_words(&mut self, line0: Addr, words: WordMask) {
        self.finalize_words(line0, words, WasteCategory::Used);
    }

    /// Line [`CacheWasteProfiler::evicted`] over `words` of the line whose
    /// first word is at `line0`.
    pub fn evicted_words(&mut self, line0: Addr, words: WordMask) {
        self.finalize_words(line0, words, WasteCategory::Evict);
    }

    /// Line [`CacheWasteProfiler::invalidated`] over `words` of the line
    /// whose first word is at `line0`.
    pub fn invalidated_words(&mut self, line0: Addr, words: WordMask) {
        self.finalize_words(line0, words, WasteCategory::Invalidate);
    }

    /// The word was overwritten before use: a program store at the L1, or an
    /// L1 writeback overwriting it at the L2.
    pub fn stored(&mut self, addr: Addr) {
        self.finalize(addr, ONE_WORD, WasteCategory::Write);
    }

    /// The coherence protocol invalidated the word before use (L1 only:
    /// MESI invalidation messages or DeNovo self-invalidation).
    pub fn invalidated(&mut self, addr: Addr) {
        self.finalize(addr, ONE_WORD, WasteCategory::Invalidate);
    }

    /// The word was evicted before use.
    pub fn evicted(&mut self, addr: Addr) {
        self.finalize(addr, ONE_WORD, WasteCategory::Evict);
    }

    /// Ends the simulation: all still-pending words become `Unevicted` and the
    /// final report is returned.
    pub fn finish(mut self) -> WasteReport {
        let mut leftovers: Vec<u64> = self.pending.keys().collect();
        // Finalize in address order (chunk-ascending, then word-ascending
        // within the chunk): the per-bucket flit-hop totals are f64 sums, and
        // accumulating them in hash-iteration order would leak run-to-run
        // jitter into otherwise bit-identical reports.
        leftovers.sort_unstable();
        for key in leftovers {
            let chunk = self.pending.get_mut(key).expect("key just listed");
            chunk.finalize(chunk.mask, WasteCategory::Unevicted, &mut self.report);
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn addr(n: u64) -> Addr {
        Addr::new(n * 4)
    }

    fn l1() -> CacheWasteProfiler {
        CacheWasteProfiler::new(CacheLevel::L1)
    }

    #[test]
    fn load_after_arrival_is_used() {
        let mut p = l1();
        p.arrive(addr(1), false, 2.0, MessageClass::Load);
        p.loaded(addr(1));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Used), 1);
        assert_eq!(r.used_flit_hops(MessageClass::Load), 2.0);
    }

    #[test]
    fn store_before_load_is_write_waste() {
        let mut p = l1();
        p.arrive(addr(1), false, 1.0, MessageClass::Store);
        p.stored(addr(1));
        // A later load must not resurrect the record.
        p.loaded(addr(1));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Write), 1);
        assert_eq!(r.words(WasteCategory::Used), 0);
    }

    #[test]
    fn arrival_on_top_of_pending_word_is_fetch_waste() {
        let mut p = l1();
        p.arrive(addr(1), false, 1.0, MessageClass::Load);
        p.arrive(addr(1), false, 3.0, MessageClass::Load);
        p.loaded(addr(1));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Fetch), 1);
        assert_eq!(r.words(WasteCategory::Used), 1);
        assert_eq!(r.flit_hops(MessageClass::Load, WasteCategory::Fetch), 3.0);
        assert_eq!(r.used_flit_hops(MessageClass::Load), 1.0);
    }

    #[test]
    fn arrival_when_cache_reports_present_is_fetch_waste() {
        let mut p = l1();
        p.arrive(addr(2), true, 2.5, MessageClass::Load);
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Fetch), 1);
    }

    #[test]
    fn invalidate_and_evict_before_use() {
        let mut p = l1();
        p.arrive(addr(1), false, 1.0, MessageClass::Load);
        p.arrive(addr(2), false, 1.0, MessageClass::Load);
        p.invalidated(addr(1));
        p.evicted(addr(2));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Invalidate), 1);
        assert_eq!(r.words(WasteCategory::Evict), 1);
    }

    #[test]
    fn use_then_evict_stays_used() {
        let mut p = l1();
        p.arrive(addr(1), false, 1.0, MessageClass::Load);
        p.loaded(addr(1));
        p.evicted(addr(1));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Used), 1);
        assert_eq!(r.words(WasteCategory::Evict), 0);
    }

    #[test]
    fn unclassified_words_become_unevicted_at_finish() {
        let mut p = l1();
        p.arrive(addr(1), false, 1.0, MessageClass::Load);
        p.arrive(addr(2), false, 1.0, MessageClass::Store);
        assert_eq!(p.pending_words(), 2);
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Unevicted), 2);
    }

    #[test]
    fn events_without_arrival_are_ignored() {
        let mut p = l1();
        p.loaded(addr(5));
        p.evicted(addr(5));
        p.stored(addr(5));
        let r = p.finish();
        assert_eq!(r.total_words(), 0);
    }

    #[test]
    fn l2_level_uses_same_fsm_without_invalidation() {
        let mut p = CacheWasteProfiler::new(CacheLevel::L2);
        assert_eq!(p.level(), CacheLevel::L2);
        p.arrive(addr(1), false, 1.0, MessageClass::Load);
        p.loaded(addr(1)); // served to an L1
        p.arrive(addr(2), false, 1.0, MessageClass::Load);
        p.stored(addr(2)); // overwritten by an L1 writeback
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Used), 1);
        assert_eq!(r.words(WasteCategory::Write), 1);
    }

    #[test]
    fn batched_words_match_per_word_calls() {
        use tw_types::{LineAddr, WordIdx};
        // Drive the same deterministic event stream through the per-word and
        // batched entry points; the resulting reports must be identical.
        let mut a = l1();
        let mut b = l1();
        let line = LineAddr::from_aligned(0x2440);
        let words = WordMask::from_bits(0b1010_1101_0011_0110);
        let already = WordMask::from_bits(0b0000_1000_0000_0100);
        for w in words.iter() {
            a.arrive(
                line.word_addr(w),
                already.contains(w),
                1.5,
                MessageClass::Load,
            );
        }
        b.arrive_words(
            line.word_addr(WordIdx(0)),
            words,
            already,
            1.5,
            MessageClass::Load,
        );
        // Double arrival of a subset: Fetch waste either way.
        let again = WordMask::from_bits(0b0000_0001_0011_0000);
        for w in again.iter() {
            a.arrive(line.word_addr(w), false, 0.5, MessageClass::Store);
        }
        b.arrive_words(
            line.word_addr(WordIdx(0)),
            again,
            WordMask::EMPTY,
            0.5,
            MessageClass::Store,
        );
        // Mixed finalization, including words never pending.
        let used = WordMask::from_bits(0b0000_0000_0000_0111);
        let evicted = WordMask::from_bits(0b1111_0000_0000_0000);
        let invalidated = WordMask::from_bits(0b0000_1111_0000_0000);
        for w in used.iter() {
            a.loaded(line.word_addr(w));
        }
        for w in evicted.iter() {
            a.evicted(line.word_addr(w));
        }
        for w in invalidated.iter() {
            a.invalidated(line.word_addr(w));
        }
        b.loaded_words(line.word_addr(WordIdx(0)), used);
        b.evicted_words(line.word_addr(WordIdx(0)), evicted);
        b.invalidated_words(line.word_addr(WordIdx(0)), invalidated);
        assert_eq!(a.pending_words(), b.pending_words());
        assert_eq!(b.finalize_stats(), (3, 3), "one group held every hit");

        // A second line: two load-class groups whose hop counts differ (and
        // are not dyadic) interleaved word by word, plus an update-born
        // group. One eviction spans all three, so `Evict`/`Load` takes
        // addends of both sizes and the per-word order decides its bits.
        let line = LineAddr::from_aligned(0x2480);
        let line0 = line.word_addr(WordIdx(0));
        let near = WordMask::from_bits(0b0000_0101_0101_0101);
        let far = WordMask::from_bits(0b0000_1010_1010_1010);
        let pushed = WordMask::from_bits(0b0011_0000_0000_0000);
        for (words, hops) in [(near, 1.0 / 3.0), (far, 7.0 / 3.0)] {
            for w in words.iter() {
                a.arrive(line.word_addr(w), false, hops, MessageClass::Load);
            }
            b.arrive_words(line0, words, WordMask::EMPTY, hops, MessageClass::Load);
        }
        for w in pushed.iter() {
            a.updated(line.word_addr(w), 2.0 / 3.0);
            b.updated(line.word_addr(w), 2.0 / 3.0);
        }
        let spanning = WordMask::from_bits(0b0001_0011_1111_1100);
        for w in spanning.iter() {
            a.evicted(line.word_addr(w));
        }
        b.evicted_words(line0, spanning);
        assert_eq!(b.finalize_stats(), (4, 3), "no one group held that hit");
        // What is left of `near` is one group again.
        b.loaded_words(line0, near);
        for w in near.iter() {
            a.loaded(line.word_addr(w));
        }
        assert_eq!(b.finalize_stats(), (5, 4));
        assert_eq!(a.pending_words(), b.pending_words());

        let (ra, rb) = (a.finish(), b.finish());
        assert_eq!(rb.words(WasteCategory::Update), 2, "one evicted, one left");
        for cat in WasteCategory::ALL {
            assert_eq!(ra.words(cat), rb.words(cat), "{cat}");
        }
        for class in [MessageClass::Load, MessageClass::Store] {
            for cat in WasteCategory::ALL {
                assert_eq!(
                    ra.flit_hops(class, cat).to_bits(),
                    rb.flit_hops(class, cat).to_bits(),
                    "{class:?} {cat}"
                );
            }
        }
    }

    #[test]
    fn read_update_is_used_unread_update_is_update_waste() {
        let mut p = l1();
        p.updated(addr(1), 2.0);
        p.updated(addr(2), 2.0);
        p.loaded(addr(1));
        p.evicted(addr(2));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Used), 1);
        assert_eq!(r.words(WasteCategory::Update), 1);
        assert_eq!(r.words(WasteCategory::Evict), 0);
        // Both legs were store-class responses.
        assert_eq!(r.used_flit_hops(MessageClass::Store), 2.0);
        assert_eq!(r.flit_hops(MessageClass::Store, WasteCategory::Update), 2.0);
    }

    #[test]
    fn update_over_pending_fetch_is_write_waste_then_update_born() {
        let mut p = l1();
        p.arrive(addr(1), false, 1.0, MessageClass::Load);
        p.updated(addr(1), 3.0);
        let r = p.finish();
        // The fetched instance was overwritten before use; the pushed word
        // was never read before the end of simulation.
        assert_eq!(r.words(WasteCategory::Write), 1);
        assert_eq!(r.words(WasteCategory::Update), 1);
        assert_eq!(r.words(WasteCategory::Unevicted), 0);
    }

    #[test]
    fn update_born_words_invalidated_or_unevicted_are_update_waste() {
        let mut p = l1();
        p.updated(addr(1), 1.0);
        p.updated(addr(2), 1.0);
        p.updated(addr(3), 1.0);
        p.invalidated(addr(1));
        // addr(2) stays pending to the end; addr(3) is overwritten locally.
        p.stored(addr(3));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Update), 2);
        assert_eq!(r.words(WasteCategory::Write), 1);
        assert_eq!(r.words(WasteCategory::Invalidate), 0);
        assert_eq!(r.words(WasteCategory::Unevicted), 0);
    }

    #[test]
    fn update_and_fetch_groups_do_not_merge() {
        // Same (flit_hops, class) but different provenance: the update-born
        // flag must keep the groups distinct so their fates stay separable.
        let mut p = l1();
        p.arrive(addr(1), false, 1.0, MessageClass::Store);
        p.updated(addr(2), 1.0);
        p.evicted(addr(1));
        p.evicted(addr(2));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Evict), 1);
        assert_eq!(r.words(WasteCategory::Update), 1);
    }

    #[test]
    fn an_arrival_of_only_present_words_leaves_no_chunk() {
        let line0 = Addr::new(0x4000);
        let mut p = l1();
        p.arrive_words(
            line0,
            WordMask::FULL,
            WordMask::FULL,
            1.0,
            MessageClass::Load,
        );
        p.arrive(addr(3), true, 1.0, MessageClass::Load);
        assert_eq!(p.pending_table_stats().0, 0, "nothing is pending");
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Fetch), 17);
        assert_eq!(r.total_words(), 17);
    }

    /// Word-granular reference of the L1/L2 state machines, sharing no code
    /// with the profiler: per word address, the pending instance's
    /// `(flit_hops, class, update-born)`, and the report as two ordered
    /// maps.
    #[derive(Default)]
    struct Reference {
        pending: BTreeMap<u64, (f64, MessageClass, bool)>,
        words: BTreeMap<WasteCategory, u64>,
        hops: BTreeMap<(MessageClass, WasteCategory), f64>,
    }

    impl Reference {
        fn record(&mut self, cat: WasteCategory, class: MessageClass, hops: f64) {
            *self.words.entry(cat).or_default() += 1;
            *self.hops.entry((class, cat)).or_default() += hops;
        }

        fn arrive(&mut self, a: Addr, present: bool, hops: f64, class: MessageClass) {
            let a = a.word_aligned().byte();
            if present || self.pending.contains_key(&a) {
                self.record(WasteCategory::Fetch, class, hops);
            } else {
                self.pending.insert(a, (hops, class, false));
            }
        }

        /// The word's fate is known: an unread update-born word is `Update`
        /// waste wherever a fetched one would be Evict, Invalidate or
        /// Unevicted.
        fn finalize(&mut self, a: Addr, cat: WasteCategory) {
            if let Some((hops, class, update)) = self.pending.remove(&a.word_aligned().byte()) {
                let unread = matches!(
                    cat,
                    WasteCategory::Evict | WasteCategory::Invalidate | WasteCategory::Unevicted
                );
                let cat = if update && unread {
                    WasteCategory::Update
                } else {
                    cat
                };
                self.record(cat, class, hops);
            }
        }

        fn updated(&mut self, a: Addr, hops: f64) {
            self.finalize(a, WasteCategory::Write);
            self.pending
                .insert(a.word_aligned().byte(), (hops, MessageClass::Store, true));
        }

        /// Every entry, flit-hop sums by their bits, in key order.
        fn finish(mut self) -> Vec<String> {
            for a in self.pending.keys().copied().collect::<Vec<_>>() {
                self.finalize(Addr::new(a), WasteCategory::Unevicted);
            }
            let words = self
                .words
                .iter()
                .map(|(cat, n)| format!("{cat}: {n} words"));
            let hops = (self.hops.iter())
                .map(|((class, cat), h)| format!("{class:?} {cat}: {:#018x}", h.to_bits()));
            words.chain(hops).collect()
        }
    }

    fn report_bits(r: &WasteReport) -> Vec<String> {
        let words = r.words_iter().map(|(cat, n)| format!("{cat}: {n} words"));
        let hops = (r.flit_hops_iter())
            .map(|(class, cat, h)| format!("{class:?} {cat}: {:#018x}", h.to_bits()));
        words.chain(hops).collect()
    }

    #[test]
    fn random_events_match_the_word_granular_reference() {
        use tw_types::{LineAddr, WordIdx};
        // The dev profile keeps the suite quick; CI runs this in release.
        let events = if cfg!(debug_assertions) {
            100_000
        } else {
            1_000_000
        };
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        // A full line, a half line, or a sparse set of words.
        let some_words = |next: &mut dyn FnMut(u64) -> u64| {
            WordMask::from_bits(match next(4) {
                0 => 0xFFFF,
                1 => 0x00FF << (8 * next(2)),
                _ => next(1 << 16) as u16,
            })
        };
        let mut p = l1();
        let mut r = Reference::default();
        for i in 1..=events {
            let line_no = next(160);
            let line = LineAddr::from_aligned(0x8000 + line_no * 64);
            let line0 = line.word_addr(WordIdx(0));
            let word = line.word_addr(WordIdx(next(16) as u8));
            // Thirds are not dyadic, so a sum depends on the order and the
            // number of its additions. Most responses to a line travel the
            // same distance (one arrival group); one in four does not.
            let k = if next(4) == 0 {
                next(7)
            } else {
                line_no % 5 + 1
            };
            let hops = k as f64 / 3.0;
            let class = if next(3) == 0 {
                MessageClass::Store
            } else {
                MessageClass::Load
            };
            match next(20) {
                0..=3 => {
                    let words = some_words(&mut next);
                    let already = match next(3) {
                        0 => some_words(&mut next).intersect(words),
                        _ => WordMask::EMPTY,
                    };
                    p.arrive_words(line0, words, already, hops, class);
                    for w in words.iter() {
                        r.arrive(line.word_addr(w), already.contains(w), hops, class);
                    }
                }
                4 => {
                    let present = next(10) == 0;
                    p.arrive(word, present, hops, class);
                    r.arrive(word, present, hops, class);
                }
                5 => {
                    p.updated(word, hops);
                    r.updated(word, hops);
                }
                6..=8 => {
                    p.loaded(word);
                    r.finalize(word, WasteCategory::Used);
                }
                9 => {
                    p.stored(word);
                    r.finalize(word, WasteCategory::Write);
                }
                10 => {
                    p.evicted(word);
                    r.finalize(word, WasteCategory::Evict);
                }
                11 => {
                    p.invalidated(word);
                    r.finalize(word, WasteCategory::Invalidate);
                }
                event => {
                    let words = some_words(&mut next);
                    let cat = match event {
                        12..=14 => {
                            p.loaded_words(line0, words);
                            WasteCategory::Used
                        }
                        15..=17 => {
                            p.evicted_words(line0, words);
                            WasteCategory::Evict
                        }
                        _ => {
                            p.invalidated_words(line0, words);
                            WasteCategory::Invalidate
                        }
                    };
                    for w in words.iter() {
                        r.finalize(line.word_addr(w), cat);
                    }
                }
            }
            if i % 1000 == 0 {
                assert_eq!(p.pending_words(), r.pending.len(), "after {i} events");
            }
        }
        // Both line paths were driven: one group held the hit words, and
        // the hit words spanned groups.
        let (lines, batched) = p.finalize_stats();
        assert!(
            batched > lines / 10 && batched < lines * 9 / 10,
            "{batched} of {lines}"
        );
        assert_eq!(report_bits(&p.finish()), r.finish());
    }

    #[test]
    fn addresses_are_word_aligned_internally() {
        let mut p = l1();
        p.arrive(Addr::new(0x101), false, 1.0, MessageClass::Load);
        p.loaded(Addr::new(0x103));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Used), 1);
    }
}
