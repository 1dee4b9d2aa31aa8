//! The memory-fetch waste profiler (Figure 4.3).
//!
//! Every word fetched from DRAM is tracked as a distinct `(address,
//! identifier)` instance, because DeNovo's non-inclusive L2 can have several
//! copies of the same word on chip from different memory requests. The
//! profile answers "how useful was each word we paid to bring on chip?".
//!
//! Two simplifications relative to the thesis' exact `NumRefs` bookkeeping
//! (documented here because they matter only for corner cases): a program
//! load classifies the *most recent* pending instance of the address as
//! `Used`, and an eviction event classifies the *oldest* pending instance as
//! `Evict`. Stores follow the paper exactly: all pending instances of the
//! address become `Write` waste.

use crate::category::{WasteCategory, WasteReport};
use tw_types::{Addr, FastMap, MessageClass, WordMask, WORD_BYTES};

/// Pending instances are grouped by 64-byte chunk (the maximum line size a
/// [`WordMask`] can describe) so one hash probe covers a whole line event.
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

/// Pending instances of one 64-byte chunk.
///
/// Per word, the *oldest* pending instance's flit-hops live inline in
/// `oldest` (with its presence bit in `mask`); younger instances of the same
/// word spill to `spill` in arrival order. Nearly every word has at most one
/// pending instance, so the spill vector stays empty and allocation-free.
#[derive(Debug, Clone)]
struct Chunk {
    mask: u16,
    oldest: [f64; CHUNK_WORDS],
    spill: Vec<(u8, f64)>,
}

impl Chunk {
    fn empty() -> Self {
        Chunk {
            mask: 0,
            oldest: [0.0; CHUNK_WORDS],
            spill: Vec::new(),
        }
    }

    fn instances(&self) -> usize {
        self.mask.count_ones() as usize + self.spill.len()
    }

    fn push(&mut self, w: usize, flit_hops: f64) {
        let bit = 1u16 << w;
        if self.mask & bit == 0 {
            self.mask |= bit;
            self.oldest[w] = flit_hops;
        } else {
            self.spill.push((w as u8, flit_hops));
        }
    }

    /// Removes and returns the most recent instance of word `w`, if any.
    fn pop_newest(&mut self, w: usize) -> Option<f64> {
        if let Some(i) = self.spill.iter().rposition(|&(sw, _)| sw as usize == w) {
            return Some(self.spill.remove(i).1);
        }
        let bit = 1u16 << w;
        if self.mask & bit != 0 {
            self.mask &= !bit;
            return Some(self.oldest[w]);
        }
        None
    }

    /// Removes and returns the oldest instance of word `w`, if any.
    fn pop_oldest(&mut self, w: usize) -> Option<f64> {
        let bit = 1u16 << w;
        if self.mask & bit == 0 {
            return None;
        }
        let hops = self.oldest[w];
        if let Some(i) = self.spill.iter().position(|&(sw, _)| sw as usize == w) {
            self.oldest[w] = self.spill.remove(i).1;
        } else {
            self.mask &= !bit;
        }
        Some(hops)
    }
}

/// Profiler for words fetched from memory.
#[derive(Debug, Clone, Default)]
pub struct MemoryWasteProfiler {
    next_id: u64,
    // Keyed by 64-byte chunk; FastMap because the table is consulted on
    // every DRAM word fetched and every program access. Drained chunks are
    // removed eagerly so the table tracks only instances genuinely in
    // flight, which keeps it hot in the host cache.
    pending: FastMap<Chunk>,
    report: WasteReport,
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

    /// A word was sent from memory onto the chip.
    ///
    /// `l2_already_present` is true when the L2 already holds the address, in
    /// which case the new instance is immediately `Fetch` waste (Figure 4.3).
    /// Returns the instance identifier.
    pub fn fetched(&mut self, addr: Addr, l2_already_present: bool, flit_hops: f64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if l2_already_present {
            self.report
                .record(WasteCategory::Fetch, MessageClass::Load, flit_hops);
        } else {
            let (key, w) = chunk_of(addr.word_aligned().byte());
            self.pending
                .get_or_insert_with(key, Chunk::empty)
                .push(w, flit_hops);
        }
        id
    }

    /// Batched [`MemoryWasteProfiler::fetched`] for `words` of the line whose
    /// first word is at `line0`, all carried by one response. Equivalent to
    /// calling `fetched` per word in ascending word order, with one probe.
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
        self.next_id += words.count() as u64;
        if l2_already_present {
            for _ in 0..words.count() {
                self.report
                    .record(WasteCategory::Fetch, MessageClass::Load, flit_hops);
            }
            return;
        }
        let (key, w0) = chunk_of(line0.word_aligned().byte());
        debug_assert!(
            (words.bits() as u32) << w0 <= u16::MAX as u32,
            "line spans a 64-byte chunk"
        );
        let chunk = self.pending.get_or_insert_with(key, Chunk::empty);
        for w in words.iter() {
            chunk.push(w0 + w.index(), flit_hops);
        }
    }

    /// A word was read by DRAM but dropped at the memory controller because
    /// the Flex communication region did not include it (`Excess` waste).
    /// These words never enter the network, so they carry no flit-hops.
    pub fn dropped_at_controller(&mut self, addr: Addr) {
        let _ = addr;
        self.report
            .record(WasteCategory::Excess, MessageClass::Load, 0.0);
    }

    /// The program loaded the word: the most recent pending instance of the
    /// address becomes `Used`.
    pub fn loaded(&mut self, addr: Addr) {
        let (key, w) = chunk_of(addr.word_aligned().byte());
        if let Some(chunk) = self.pending.get_mut(key) {
            if let Some(hops) = chunk.pop_newest(w) {
                if chunk.mask == 0 {
                    self.pending.remove(key);
                }
                self.report
                    .record(WasteCategory::Used, MessageClass::Load, hops);
            }
        }
    }

    /// Some L1 stored to the address: every pending instance becomes `Write`
    /// waste (the coherence protocol will invalidate or overwrite all other
    /// on-chip copies; paper §4.1).
    pub fn stored(&mut self, addr: Addr) {
        let (key, w) = chunk_of(addr.word_aligned().byte());
        if let Some(chunk) = self.pending.get_mut(key) {
            // Oldest first, matching the insertion-order drain of the old
            // per-address list.
            while let Some(hops) = chunk.pop_oldest(w) {
                self.report
                    .record(WasteCategory::Write, MessageClass::Store, hops);
            }
            if chunk.mask == 0 {
                self.pending.remove(key);
            }
        }
    }

    /// The last on-chip copy of one instance of the address left the chip:
    /// the oldest pending instance becomes `Evict` waste.
    pub fn evicted(&mut self, addr: Addr) {
        let (key, w) = chunk_of(addr.word_aligned().byte());
        if let Some(chunk) = self.pending.get_mut(key) {
            if let Some(hops) = chunk.pop_oldest(w) {
                if chunk.mask == 0 {
                    self.pending.remove(key);
                }
                self.report
                    .record(WasteCategory::Evict, MessageClass::Load, hops);
            }
        }
    }

    /// Batched [`MemoryWasteProfiler::evicted`] over `words` of the line
    /// whose first word is at `line0`, in ascending word order.
    pub fn evicted_words(&mut self, line0: Addr, words: WordMask) {
        if words.is_empty() {
            return;
        }
        let (key, w0) = chunk_of(line0.word_aligned().byte());
        let Some(chunk) = self.pending.get_mut(key) else {
            return;
        };
        for w in words.iter() {
            if let Some(hops) = chunk.pop_oldest(w0 + w.index()) {
                self.report
                    .record(WasteCategory::Evict, MessageClass::Load, hops);
            }
        }
        if chunk.mask == 0 {
            self.pending.remove(key);
        }
    }

    /// The coherence protocol invalidated on-chip copies of the address
    /// before use.
    pub fn invalidated(&mut self, addr: Addr) {
        let (key, w) = chunk_of(addr.word_aligned().byte());
        if let Some(chunk) = self.pending.get_mut(key) {
            if let Some(hops) = chunk.pop_newest(w) {
                if chunk.mask == 0 {
                    self.pending.remove(key);
                }
                self.report
                    .record(WasteCategory::Invalidate, MessageClass::Load, hops);
            }
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
            for w in 0..CHUNK_WORDS {
                while let Some(hops) = chunk.pop_oldest(w) {
                    self.report
                        .record(WasteCategory::Unevicted, MessageClass::Load, hops);
                }
            }
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
        let first = p.fetched(addr(0), false, 1.0);
        let second = p.fetched(addr(0), false, 2.0);
        assert!(second > first);
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
        p.dropped_at_controller(addr(4));
        p.dropped_at_controller(addr(5));
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
    fn invalidate_classifies_pending_instance() {
        let mut p = MemoryWasteProfiler::new();
        p.fetched(addr(0), false, 1.0);
        p.invalidated(addr(0));
        let r = p.finish();
        assert_eq!(r.words(WasteCategory::Invalidate), 1);
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
        assert_eq!(a.next_id, b.next_id);
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
}
