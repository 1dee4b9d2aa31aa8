//! The memory-fetch waste profiler (Figure 4.3).
//!
//! Every word fetched from DRAM is tracked as a distinct pending instance,
//! because DeNovo's non-inclusive L2 can have several copies of the same
//! word on chip from different memory requests. The profile answers "how
//! useful was each word we paid to bring on chip?".
//!
//! Two simplifications relative to the thesis' exact `NumRefs` bookkeeping
//! (documented here because they matter only for corner cases): a program
//! load classifies the *most recent* pending instance of the address as
//! `Used`, and an eviction event classifies the *oldest* pending instance as
//! `Evict`. Stores follow the paper exactly: all pending instances of the
//! address become `Write` waste.

use crate::category::{WasteCategory, WasteReport};
use crate::{chunk_of, CHUNK_WORDS, ONE_WORD};
use tw_types::{Addr, FastMap, MessageClass, WordMask};

/// What a chunk stores once its words stop sharing one record: per word,
/// the *oldest* pending instance's flit-hops in `oldest` (its presence bit
/// is in [`Chunk::mask`]) and younger instances of the same word in `spill`,
/// in arrival order.
#[derive(Debug, Clone)]
struct Rest {
    oldest: [f64; CHUNK_WORDS],
    spill: Vec<(u8, f64)>,
}

/// Pending instances of one 64-byte chunk.
///
/// While `rest` is `None` every word of `mask` has exactly one pending
/// instance and they all carry `uniform` flit-hops — what a line fetched by
/// one response looks like — so a line event is one mask operation. `rest`
/// is built the first time that stops being true (a word gets a second
/// instance, or a response with another hop count lands in the chunk) and
/// stays until the chunk drains and is removed; which representation a chunk
/// is in follows from the events it saw and nothing else.
#[derive(Debug, Clone)]
struct Chunk {
    mask: u16,
    uniform: f64,
    rest: Option<Box<Rest>>,
}

impl Chunk {
    fn empty() -> Self {
        Chunk {
            mask: 0,
            uniform: 0.0,
            rest: None,
        }
    }

    fn instances(&self) -> usize {
        self.mask.count_ones() as usize + self.rest.as_ref().map_or(0, |r| r.spill.len())
    }

    /// Adds one instance of every word of `words`, in ascending word order,
    /// each carrying `flit_hops`. Returns whether this built `rest`.
    fn push(&mut self, words: u16, flit_hops: f64) -> bool {
        if self.rest.is_none() {
            if self.mask == 0 {
                self.uniform = flit_hops;
            }
            if self.mask & words == 0 && self.uniform.to_bits() == flit_hops.to_bits() {
                self.mask |= words;
                return false;
            }
        }
        let built = self.rest.is_none();
        let uniform = self.uniform;
        // Slots of words outside `mask` are never read.
        let rest = self.rest.get_or_insert_with(|| {
            Box::new(Rest {
                oldest: [uniform; CHUNK_WORDS],
                spill: Vec::new(),
            })
        });
        let mut left = words;
        while left != 0 {
            let w = left.trailing_zeros() as usize;
            left &= left - 1;
            let bit = 1u16 << w;
            if self.mask & bit == 0 {
                self.mask |= bit;
                rest.oldest[w] = flit_hops;
            } else {
                rest.spill.push((w as u8, flit_hops));
            }
        }
        built
    }

    /// Removes and returns the most recent instance of word `w`, if any.
    fn pop_newest(&mut self, w: usize) -> Option<f64> {
        let bit = 1u16 << w;
        // A spilled instance is always younger than a pending inline one, so
        // a clear bit means no instance at all.
        if self.mask & bit == 0 {
            return None;
        }
        let Some(rest) = &mut self.rest else {
            self.mask &= !bit;
            return Some(self.uniform);
        };
        if let Some(i) = rest.spill.iter().rposition(|&(sw, _)| sw as usize == w) {
            return Some(rest.spill.remove(i).1);
        }
        self.mask &= !bit;
        Some(rest.oldest[w])
    }

    /// Removes and returns the oldest instance of word `w`, if any.
    fn pop_oldest(&mut self, w: usize) -> Option<f64> {
        let bit = 1u16 << w;
        if self.mask & bit == 0 {
            return None;
        }
        let Some(rest) = &mut self.rest else {
            self.mask &= !bit;
            return Some(self.uniform);
        };
        let hops = rest.oldest[w];
        if let Some(i) = rest.spill.iter().position(|&(sw, _)| sw as usize == w) {
            rest.oldest[w] = rest.spill.remove(i).1;
        } else {
            self.mask &= !bit;
        }
        Some(hops)
    }

    /// Classifies as `category` the oldest instance of each word of `words`
    /// (every instance when `drain`), in ascending word order. A uniform
    /// chunk has one instance per word and one record for all of them, so
    /// there it is one mask operation and one batched record. `Write` waste
    /// is booked on store-class traffic (a store overwrote the words), every
    /// other category on the load-class fetch that brought them.
    fn classify_oldest(
        &mut self,
        words: u16,
        drain: bool,
        category: WasteCategory,
        report: &mut WasteReport,
    ) {
        let class = if category == WasteCategory::Write {
            MessageClass::Store
        } else {
            MessageClass::Load
        };
        if self.rest.is_none() {
            let hit = self.mask & words;
            self.mask &= !hit;
            report.record_n(category, class, self.uniform, hit.count_ones());
            return;
        }
        let mut left = self.mask & words;
        while left != 0 {
            let w = left.trailing_zeros() as usize;
            left &= left - 1;
            while let Some(hops) = self.pop_oldest(w) {
                report.record(category, class, hops);
                if !drain {
                    break;
                }
            }
        }
    }
}

/// Profiler for words fetched from memory.
#[derive(Debug, Clone, Default)]
pub struct MemoryWasteProfiler {
    // Keyed by 64-byte chunk; FastMap because the table is consulted on
    // every DRAM word fetched and every program access. Drained chunks are
    // removed eagerly so the table tracks only instances genuinely in
    // flight, which keeps it hot in the host cache.
    pending: FastMap<Chunk>,
    report: WasteReport,
    /// Chunks inserted into `pending`, and how many of them built a `Rest`.
    /// Observer lane only.
    chunks: u64,
    spills: u64,
}

impl MemoryWasteProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        MemoryWasteProfiler::default()
    }

    /// Number of word instances awaiting classification.
    pub fn pending_instances(&self) -> usize {
        self.pending.iter().map(|(_, c)| c.instances()).sum()
    }

    /// Pending-table probe statistics `(chunks, collision_probes, resizes)`
    /// for flight-recorder spans. Observer lane only.
    pub fn pending_table_stats(&self) -> (usize, u64, u64) {
        let (probes, resizes) = self.pending.probe_stats();
        (self.pending.len(), probes, resizes)
    }

    /// `(chunks inserted, chunks that left the uniform representation)` so
    /// far, for flight-recorder spans: the share of chunks the one-mask
    /// paths do not serve. Observer lane only.
    pub fn chunk_stats(&self) -> (u64, u64) {
        (self.chunks, self.spills)
    }

    /// A word was sent from memory onto the chip.
    ///
    /// `l2_already_present` is true when the L2 already holds the address, in
    /// which case the new instance is immediately `Fetch` waste (Figure 4.3).
    pub fn fetched(&mut self, addr: Addr, l2_already_present: bool, flit_hops: f64) {
        self.fetched_words(addr, ONE_WORD, l2_already_present, flit_hops);
    }

    /// Line [`MemoryWasteProfiler::fetched`] for `words` of the line whose
    /// first word is at `line0`, all carried by one response. The same as
    /// `fetched` per word in ascending word order, with one probe.
    pub fn fetched_words(
        &mut self,
        line0: Addr,
        words: WordMask,
        l2_already_present: bool,
        flit_hops: f64,
    ) {
        if words.is_empty() {
            return;
        }
        if l2_already_present {
            self.report.record_n(
                WasteCategory::Fetch,
                MessageClass::Load,
                flit_hops,
                words.count() as u32,
            );
            return;
        }
        let (key, bits) = chunk_of(line0, words);
        let chunk = self.pending.get_or_insert_with(key, Chunk::empty);
        // Drained chunks are removed, so an empty one was inserted just now.
        self.chunks += u64::from(chunk.mask == 0);
        self.spills += u64::from(chunk.push(bits, flit_hops));
    }

    /// DRAM read `words` of a line but the memory controller dropped them,
    /// because the Flex communication region did not include them (`Excess`
    /// waste). These words never enter the network, so they carry no
    /// flit-hops.
    pub fn dropped_at_controller(&mut self, words: WordMask) {
        self.report.record_n(
            WasteCategory::Excess,
            MessageClass::Load,
            0.0,
            words.count() as u32,
        );
    }

    /// The program loaded the word: the most recent pending instance of the
    /// address becomes `Used`.
    pub fn loaded(&mut self, addr: Addr) {
        let (key, bit) = chunk_of(addr, ONE_WORD);
        if let Some(chunk) = self.pending.get_mut(key) {
            if let Some(hops) = chunk.pop_newest(bit.trailing_zeros() as usize) {
                if chunk.mask == 0 {
                    self.pending.remove(key);
                }
                self.report
                    .record(WasteCategory::Used, MessageClass::Load, hops);
            }
        }
    }

    /// Some L1 stored to the address: every pending instance becomes `Write`
    /// waste, oldest first (the coherence protocol will invalidate or
    /// overwrite all other on-chip copies; paper §4.1).
    pub fn stored(&mut self, addr: Addr) {
        self.classify(addr, ONE_WORD, true, WasteCategory::Write);
    }

    /// The last on-chip copy of one instance of the address left the chip:
    /// the oldest pending instance becomes `Evict` waste.
    pub fn evicted(&mut self, addr: Addr) {
        self.evicted_words(addr, ONE_WORD);
    }

    /// Line [`MemoryWasteProfiler::evicted`] over `words` of the line whose
    /// first word is at `line0`, in ascending word order.
    pub fn evicted_words(&mut self, line0: Addr, words: WordMask) {
        self.classify(line0, words, false, WasteCategory::Evict);
    }

    /// [`Chunk::classify_oldest`] over `words` of the line whose first word
    /// is at `line0`, with one probe.
    fn classify(&mut self, line0: Addr, words: WordMask, drain: bool, category: WasteCategory) {
        if words.is_empty() {
            return;
        }
        let (key, bits) = chunk_of(line0, words);
        let Some(chunk) = self.pending.get_mut(key) else {
            return;
        };
        chunk.classify_oldest(bits, drain, category, &mut self.report);
        if chunk.mask == 0 {
            self.pending.remove(key);
        }
    }

    /// Ends the simulation; remaining instances become `Unevicted`.
    pub fn finish(mut self) -> WasteReport {
        let mut keys: Vec<u64> = self.pending.keys().collect();
        // Address order (chunk-ascending, word-ascending, oldest instance
        // first), not hash order: the flit-hop buckets are f64 sums and must
        // accumulate identically on every run.
        keys.sort_unstable();
        for key in keys {
            let chunk = self.pending.get_mut(key).expect("key just listed");
            chunk.classify_oldest(u16::MAX, true, WasteCategory::Unevicted, &mut self.report);
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> Addr {
        Addr::new(0x1000 + n * 4)
    }

    #[test]
    fn fetch_then_load_is_used() {
        let mut p = MemoryWasteProfiler::new();
        p.fetched(addr(0), false, 3.0);
        p.loaded(addr(0));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Used), 1);
        assert_eq!(r.used_flit_hops(MessageClass::Load), 3.0);
    }

    #[test]
    fn fetch_when_l2_holds_the_address_is_fetch_waste() {
        let mut p = MemoryWasteProfiler::new();
        p.fetched(addr(0), true, 2.0);
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Fetch), 1);
    }

    #[test]
    fn store_marks_all_pending_instances_write() {
        let mut p = MemoryWasteProfiler::new();
        p.fetched(addr(0), false, 1.0);
        p.fetched(addr(0), false, 1.0);
        p.stored(addr(0));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Write), 2);
        assert_eq!(r.words(WasteCategory::Unevicted), 0);
    }

    #[test]
    fn eviction_consumes_oldest_instance() {
        let mut p = MemoryWasteProfiler::new();
        p.fetched(addr(0), false, 1.0);
        p.fetched(addr(0), false, 2.0);
        p.evicted(addr(0));
        p.loaded(addr(0));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Evict), 1);
        assert_eq!(r.words(WasteCategory::Used), 1);
        // The evicted (oldest) instance carried 1.0 flit-hops, the used one 2.0.
        assert_eq!(r.flit_hops(MessageClass::Load, WasteCategory::Evict), 1.0);
        assert_eq!(r.used_flit_hops(MessageClass::Load), 2.0);
    }

    #[test]
    fn excess_waste_counts_words_dropped_at_the_controller() {
        let mut p = MemoryWasteProfiler::new();
        p.dropped_at_controller(WordMask::from_bits(0b0011_0000));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Excess), 2);
    }

    #[test]
    fn unresolved_instances_finish_unevicted() {
        let mut p = MemoryWasteProfiler::new();
        p.fetched(addr(0), false, 1.0);
        p.fetched(addr(1), false, 1.0);
        assert_eq!(p.pending_instances(), 2);
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Unevicted), 2);
    }

    #[test]
    fn events_without_fetch_are_ignored() {
        let mut p = MemoryWasteProfiler::new();
        p.loaded(addr(9));
        p.stored(addr(9));
        p.evicted(addr(9));
        assert_eq!(p.finish().total_words(), 0);
    }

    #[test]
    fn three_instances_resolve_newest_and_oldest_correctly() {
        let mut p = MemoryWasteProfiler::new();
        p.fetched(addr(0), false, 1.0);
        p.fetched(addr(0), false, 2.0);
        p.fetched(addr(0), false, 3.0);
        p.loaded(addr(0)); // newest: 3.0
        p.evicted(addr(0)); // oldest: 1.0
        p.loaded(addr(0)); // remaining: 2.0
        let r = p.finish();
        assert_eq!(r.used_flit_hops(MessageClass::Load), 5.0);
        assert_eq!(r.flit_hops(MessageClass::Load, WasteCategory::Evict), 1.0);
        assert_eq!(r.words(WasteCategory::Unevicted), 0);
    }

    #[test]
    fn batched_words_match_per_word_calls() {
        use tw_types::{LineAddr, WordIdx};
        let mut a = MemoryWasteProfiler::new();
        let mut b = MemoryWasteProfiler::new();
        let line = LineAddr::from_aligned(0x3400);
        let words = WordMask::from_bits(0b0110_1011_0101_1110);
        for w in words.iter() {
            a.fetched(line.word_addr(w), false, 2.5);
        }
        b.fetched_words(line.word_addr(WordIdx(0)), words, false, 2.5);
        // Refetch a subset while still pending, then classify a mix.
        let again = WordMask::from_bits(0b0000_0011_0000_0110);
        for w in again.iter() {
            a.fetched(line.word_addr(w), false, 4.0);
        }
        b.fetched_words(line.word_addr(WordIdx(0)), again, false, 4.0);
        a.loaded(line.word_addr(WordIdx(1)));
        b.loaded(line.word_addr(WordIdx(1)));
        let evict = WordMask::from_bits(0b0110_0000_0000_0110);
        for w in evict.iter() {
            a.evicted(line.word_addr(w));
        }
        b.evicted_words(line.word_addr(WordIdx(0)), evict);
        assert_eq!(a.pending_instances(), b.pending_instances());
        let (ra, rb) = (a.finish(), b.finish());
        for cat in WasteCategory::ALL {
            assert_eq!(ra.words(cat), rb.words(cat), "{cat}");
            assert_eq!(
                ra.flit_hops(MessageClass::Load, cat),
                rb.flit_hops(MessageClass::Load, cat)
            );
        }
    }

    /// Word-granular reference: per address, the pending instances' flit-hops
    /// in arrival order.
    #[derive(Default)]
    struct Reference {
        pending: std::collections::BTreeMap<u64, std::collections::VecDeque<f64>>,
        report: WasteReport,
    }

    impl Reference {
        fn fetched(&mut self, a: Addr, present: bool, hops: f64) {
            if present {
                self.report
                    .record(WasteCategory::Fetch, MessageClass::Load, hops);
            } else {
                self.pending.entry(a.byte()).or_default().push_back(hops);
            }
        }

        /// Classifies the newest (`back`) or oldest instance of `a`, or all
        /// of them oldest first (`drain`).
        fn classify(&mut self, a: Addr, back: bool, drain: bool, cat: WasteCategory) {
            let class = if cat == WasteCategory::Write {
                MessageClass::Store
            } else {
                MessageClass::Load
            };
            let Some(q) = self.pending.get_mut(&a.byte()) else {
                return;
            };
            while let Some(hops) = if back { q.pop_back() } else { q.pop_front() } {
                self.report.record(cat, class, hops);
                if !drain {
                    break;
                }
            }
        }

        fn instances(&self) -> usize {
            self.pending.values().map(|q| q.len()).sum()
        }

        fn finish(mut self) -> WasteReport {
            for a in self.pending.keys().copied().collect::<Vec<_>>() {
                self.classify(Addr::new(a), false, true, WasteCategory::Unevicted);
            }
            self.report
        }
    }

    /// Every entry of a report, flit-hop sums by their bits.
    fn report_bits(r: &WasteReport) -> Vec<String> {
        r.words_iter()
            .map(|(cat, n)| format!("{cat}: {n} words"))
            .chain(
                r.flit_hops_iter()
                    .map(|(class, cat, h)| format!("{class:?} {cat}: {:#018x}", h.to_bits())),
            )
            .collect()
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
        let mut stream = tw_types::SplitMix64::new(0x9E37_79B9_7F4A_7C15);
        let mut next = move |n: u64| stream.next_u64() % n;
        let mut p = MemoryWasteProfiler::new();
        let mut r = Reference::default();
        for i in 1..=events {
            let line_no = next(192);
            let line = LineAddr::from_aligned(0x8000 + line_no * 64);
            let word = line.word_addr(WordIdx(next(16) as u8));
            // Thirds are not dyadic, so a sum depends on the order and the
            // number of its additions. Most responses to a line travel the
            // same distance (uniform chunks); one in eight does not.
            let k = if next(8) == 0 {
                next(7)
            } else {
                line_no % 5 + 1
            };
            let hops = k as f64 / 3.0;
            match next(16) {
                0..=2 => {
                    // A full line, a half line at word 0 or at word 8, or a
                    // sparse set of words, in one response.
                    let (w0, words) = match next(4) {
                        0 => (0, 0xFFFF),
                        1 => (0, 0x00FF),
                        2 => (8, 0x00FF),
                        _ => (0, next(1 << 16) as u16),
                    };
                    let (line0, words) = (line.word_addr(WordIdx(w0)), WordMask::from_bits(words));
                    let present = next(10) == 0;
                    p.fetched_words(line0, words, present, hops);
                    for w in words.iter() {
                        r.fetched(line.word_addr(WordIdx(w0 + w.0)), present, hops);
                    }
                }
                3 => {
                    let present = next(10) == 0;
                    p.fetched(word, present, hops);
                    r.fetched(word, present, hops);
                }
                4..=7 => {
                    p.loaded(word);
                    r.classify(word, true, false, WasteCategory::Used);
                }
                8..=9 => {
                    p.stored(word);
                    r.classify(word, false, true, WasteCategory::Write);
                }
                10..=11 => {
                    p.evicted(word);
                    r.classify(word, false, false, WasteCategory::Evict);
                }
                _ => {
                    let words = WordMask::from_bits(if next(2) == 0 {
                        0xFFFF
                    } else {
                        next(1 << 16) as u16
                    });
                    p.evicted_words(line.word_addr(WordIdx(0)), words);
                    for w in words.iter() {
                        r.classify(line.word_addr(w), false, false, WasteCategory::Evict);
                    }
                }
            }
            if i % 1000 == 0 {
                assert_eq!(p.pending_instances(), r.instances(), "after {i} events");
            }
        }
        // Both representations were driven, neither one only.
        let (chunks, spills) = p.chunk_stats();
        assert!(
            spills > chunks / 10 && spills < chunks * 9 / 10,
            "{spills} of {chunks}"
        );
        assert_eq!(report_bits(&p.finish()), report_bits(&r.finish()));
    }

    #[test]
    fn a_chunk_is_uniform_until_its_words_differ_and_again_once_reinserted() {
        use tw_types::{LineAddr, WordIdx};
        let line = LineAddr::from_aligned(0x5000);
        let line0 = line.word_addr(WordIdx(0));
        let key = chunk_of(line0, ONE_WORD).0;
        let mut p = MemoryWasteProfiler::new();
        let mut r = Reference::default();
        let fetch = |p: &mut MemoryWasteProfiler, r: &mut Reference, bits: u16, hops: f64| {
            let words = WordMask::from_bits(bits);
            p.fetched_words(line0, words, false, hops);
            for w in words.iter() {
                r.fetched(line.word_addr(w), false, hops);
            }
        };
        let third = 1.0 / 3.0;
        // What every fetched line writes into the table, and later moves.
        assert_eq!(std::mem::size_of::<Chunk>(), 24);
        // Two responses of one hop count to disjoint words: still uniform.
        fetch(&mut p, &mut r, 0x00FF, third);
        fetch(&mut p, &mut r, 0x0F00, third);
        assert!(p.pending.get(key).unwrap().rest.is_none());
        assert_eq!(p.chunk_stats(), (1, 0));
        // A second instance of pending words, from further away: spilled.
        fetch(&mut p, &mut r, 0x000F, 2.0 * third);
        assert_eq!(
            p.pending
                .get(key)
                .unwrap()
                .rest
                .as_ref()
                .unwrap()
                .spill
                .len(),
            4
        );
        assert_eq!(p.chunk_stats(), (1, 1));
        assert_eq!(p.pending_instances(), 16);
        // Newest first for a load, oldest first for an eviction.
        p.loaded(line0);
        r.classify(line0, true, false, WasteCategory::Used);
        p.evicted_words(line0, WordMask::from_bits(0xFFFF));
        for w in WordMask::from_bits(0xFFFF).iter() {
            r.classify(line.word_addr(w), false, false, WasteCategory::Evict);
        }
        assert_eq!(p.pending_instances(), 3);
        // Drained: the chunk is gone, and its successor starts uniform.
        p.evicted_words(line0, WordMask::from_bits(0xFFFF));
        for w in WordMask::from_bits(0xFFFF).iter() {
            r.classify(line.word_addr(w), false, false, WasteCategory::Evict);
        }
        assert!(p.pending.get(key).is_none());
        fetch(&mut p, &mut r, 0xFFFF, 5.0 * third);
        assert!(p.pending.get(key).unwrap().rest.is_none());
        assert_eq!(p.chunk_stats(), (2, 1));
        // A different hop count on *fresh* words spills too.
        p.evicted_words(line0, WordMask::from_bits(0xFF00));
        for w in WordMask::from_bits(0xFF00).iter() {
            r.classify(line.word_addr(w), false, false, WasteCategory::Evict);
        }
        fetch(&mut p, &mut r, 0x0100, third);
        assert_eq!(p.chunk_stats(), (2, 2));
        assert_eq!(p.pending_instances(), r.instances());
        assert_eq!(report_bits(&p.finish()), report_bits(&r.finish()));
    }
}
