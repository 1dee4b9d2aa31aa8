//! The L1 and L2 waste-profiling state machines (Figures 4.1 and 4.2).

use crate::category::{WasteCategory, WasteReport};
use tw_types::{Addr, FastMap, MessageClass, WordMask, WORD_BYTES};

/// Pending state is grouped by 64-byte chunk — the maximum line size a
/// [`WordMask`] can describe — so one hash probe covers up to sixteen words.
const CHUNK_SHIFT: u32 = 6;
const CHUNK_WORDS: usize = 16;

/// Chunk key and word-within-chunk index of a word-aligned byte address.
#[inline(always)]
fn chunk_of(byte: u64) -> (u64, usize) {
    (
        byte >> CHUNK_SHIFT,
        (byte / WORD_BYTES) as usize & (CHUNK_WORDS - 1),
    )
}

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
        // Groups of differing flit-hops can share a report bucket, and its
        // f64 sum must accumulate in the order the per-word calls would.
        let (mut left, mut emptied) = (hit, false);
        while left != 0 {
            let w = left.trailing_zeros() as usize;
            left &= left - 1;
            let g = self.take(w);
            emptied |= g.words == 0;
            report.record(classify(category, g.update), g.class, g.flit_hops);
        }
        (false, emptied)
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
/// The caller (the simulator's cache controllers) reports word-granularity
/// events; the profiler defers classification until a word's fate is known.
/// Words that arrive while the same address is still pending are classified
/// as `Fetch` waste immediately (the cache already had the word).
#[derive(Debug, Clone)]
pub struct CacheWasteProfiler {
    level: CacheLevel,
    // Keyed by 64-byte chunk; FastMap because this table is hit several
    // times per simulated memory operation, and chunk keying lets the
    // `*_words` batch entry points resolve a whole line fill or eviction
    // with one probe. Drained chunks are removed eagerly: the table then
    // stays sized to the words actually in flight (cache-resident,
    // unclassified), which keeps it hot in the host cache.
    pending: FastMap<Chunk>,
    report: WasteReport,
    /// Line events that finalized at least one word, and how many of them
    /// one arrival group served. Observer lane only.
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
        if already_present {
            self.report.record(WasteCategory::Fetch, class, flit_hops);
            return;
        }
        let (key, w) = chunk_of(addr.word_aligned().byte());
        let chunk = self.pending.get_or_insert_with(key, Chunk::empty);
        let bit = 1u16 << w;
        if chunk.mask & bit != 0 {
            self.report.record(WasteCategory::Fetch, class, flit_hops);
        } else {
            chunk.add(bit, flit_hops, class, false);
        }
    }

    /// A write-update broadcast (Dragon `UpdateData`) delivered the word into
    /// the cache. Any still-pending instance was overwritten before use and
    /// finalizes as `Write` waste; the pushed word then becomes pending as
    /// *update-born*, so if the receiving core never reads it, it finalizes
    /// as `Update` waste instead of Evict/Invalidate/Unevicted.
    pub fn updated(&mut self, addr: Addr, flit_hops: f64) {
        self.finalize(addr, WasteCategory::Write);
        let (key, w) = chunk_of(addr.word_aligned().byte());
        let chunk = self.pending.get_or_insert_with(key, Chunk::empty);
        // Updates ride store-class responses (the write that triggered them).
        chunk.add(1u16 << w, flit_hops, MessageClass::Store, true);
    }

    /// Batched [`CacheWasteProfiler::arrive`]: words `words` of the line whose
    /// first word is at `line0` arrive together (one response), with `already`
    /// naming the words the cache held beforehand. Equivalent to calling
    /// `arrive` per word in ascending word order, but with one table probe.
    pub fn arrive_words(
        &mut self,
        line0: Addr,
        words: WordMask,
        already: WordMask,
        flit_hops: f64,
        class: MessageClass,
    ) {
        if words.is_empty() {
            return;
        }
        let (key, w0) = chunk_of(line0.word_aligned().byte());
        debug_assert!(
            (words.bits() as u32) << w0 <= u16::MAX as u32,
            "line spans a 64-byte chunk"
        );
        let chunk = self.pending.get_or_insert_with(key, Chunk::empty);
        let requested = (words.bits() as u32) << w0;
        let already_bits = ((already.bits() & words.bits()) as u32) << w0;
        let fetch_bits = already_bits | (chunk.mask as u32 & requested);
        let fresh = (requested & !fetch_bits) as u16;
        if fresh != 0 {
            chunk.add(fresh, flit_hops, class, false);
        }
        // All Fetch records of this call share (class, flit_hops) and land in
        // one report bucket, so recording them after the pending update sums
        // the same addends the interleaved per-word loop would.
        self.report.record_n(
            WasteCategory::Fetch,
            class,
            flit_hops,
            fetch_bits.count_ones(),
        );
    }

    fn finalize(&mut self, addr: Addr, category: WasteCategory) -> bool {
        let (key, w) = chunk_of(addr.word_aligned().byte());
        let Some(chunk) = self.pending.get_mut(key) else {
            return false;
        };
        if chunk.mask & (1u16 << w) == 0 {
            return false;
        }
        let g = chunk.take(w);
        if chunk.mask == 0 {
            self.pending.remove(key);
        } else if g.words == 0 {
            chunk.compact();
        }
        self.report
            .record(classify(category, g.update), g.class, g.flit_hops);
        true
    }

    /// Batched `finalize`: classifies whichever of `words` are pending, in
    /// ascending word order, with one table probe. Words with no pending
    /// record are skipped, exactly as their per-word calls would be.
    fn finalize_words(&mut self, line0: Addr, words: WordMask, category: WasteCategory) {
        if words.is_empty() {
            return;
        }
        let (key, w0) = chunk_of(line0.word_aligned().byte());
        let Some(chunk) = self.pending.get_mut(key) else {
            return;
        };
        let line_bits = (words.bits() as u32) << w0;
        debug_assert!(line_bits <= u16::MAX as u32, "line spans a 64-byte chunk");
        let hit = (chunk.mask as u32 & line_bits) as u16;
        if hit == 0 {
            return;
        }
        let (batched, emptied) = chunk.finalize(hit, category, &mut self.report);
        self.line_finalizes += 1;
        self.line_finalizes_batched += u64::from(batched);
        if chunk.mask == 0 {
            self.pending.remove(key);
        } else if emptied {
            chunk.compact();
        }
    }

    /// The program loaded the word (L1), or the cache returned it in a
    /// response to an L1 (L2): the pending instance becomes `Used`.
    pub fn loaded(&mut self, addr: Addr) {
        self.finalize(addr, WasteCategory::Used);
    }

    /// Batched [`CacheWasteProfiler::loaded`] over `words` of the line whose
    /// first word is at `line0`.
    pub fn loaded_words(&mut self, line0: Addr, words: WordMask) {
        self.finalize_words(line0, words, WasteCategory::Used);
    }

    /// Batched [`CacheWasteProfiler::evicted`] over `words` of the line whose
    /// first word is at `line0`.
    pub fn evicted_words(&mut self, line0: Addr, words: WordMask) {
        self.finalize_words(line0, words, WasteCategory::Evict);
    }

    /// Batched [`CacheWasteProfiler::invalidated`] over `words` of the line
    /// whose first word is at `line0`.
    pub fn invalidated_words(&mut self, line0: Addr, words: WordMask) {
        debug_assert_eq!(
            self.level,
            CacheLevel::L1,
            "L2 words are not invalidated in this study"
        );
        self.finalize_words(line0, words, WasteCategory::Invalidate);
    }

    /// The word was overwritten before use: a program store at the L1, or an
    /// L1 writeback overwriting it at the L2.
    pub fn stored(&mut self, addr: Addr) {
        self.finalize(addr, WasteCategory::Write);
    }

    /// The coherence protocol invalidated the word before use (L1 only:
    /// MESI invalidation messages or DeNovo self-invalidation).
    pub fn invalidated(&mut self, addr: Addr) {
        debug_assert_eq!(
            self.level,
            CacheLevel::L1,
            "L2 words are not invalidated in this study"
        );
        self.finalize(addr, WasteCategory::Invalidate);
    }

    /// The word was evicted before use.
    pub fn evicted(&mut self, addr: Addr) {
        self.finalize(addr, WasteCategory::Evict);
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
    fn addresses_are_word_aligned_internally() {
        let mut p = l1();
        p.arrive(Addr::new(0x101), false, 1.0, MessageClass::Load);
        p.loaded(Addr::new(0x103));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Used), 1);
    }
}
