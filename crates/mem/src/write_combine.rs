//! DeNovo write-combining (registration-coalescing) table.
//!
//! The baseline DeNovo implementation in the paper (§4.2) batches pending
//! registration requests for the same cache line into a single message
//! instead of issuing one per written word. An entry is held until one of:
//! the entire line has been written, a 10 000-cycle timeout expires, a
//! release/barrier is issued, or the line is evicted from the L1. The table
//! has 32 entries; MESI's non-blocking write table is modelled with the same
//! structure (one pending GetM per line).

use tw_types::{Cycle, LineAddr, WordIdx, WordMask};

/// A pending set of unregistered written words for one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteCombineEntry {
    /// The cache line.
    pub line: LineAddr,
    /// Words written but not yet registered with the L2.
    pub pending: WordMask,
    /// Cycle of the first pending write.
    pub first_write: Cycle,
}

/// Why an entry was flushed from the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFlush {
    /// Every word of the line has been written.
    LineFull,
    /// The oldest pending write exceeded the timeout.
    Timeout,
    /// A release operation (barrier) forced all entries out.
    Release,
    /// The line was evicted from the L1 while writes were pending.
    Eviction,
    /// The table was full and the LRU entry was displaced to make room.
    CapacityReplacement,
}

/// Fixed-capacity write-combining table.
///
/// Entries live in a small flat vector kept sorted by line address. Flush
/// order (capacity-victim tie-breaks, timeout expiry, release order) feeds
/// directly into message order on the mesh, so every path that emits more
/// than one entry does so in ascending line order with `first_write` ties
/// broken toward the lowest line — exactly the order the original
/// `BTreeMap`-backed table produced (the determinism CI gate caught hash
/// iteration order varying between processes once already). The
/// [`reference`](mod@reference) module keeps that original implementation
/// alive as the oracle for the differential property test in
/// `tests/prop_write_combine.rs`.
///
/// Because the table holds at most a few dozen entries (32 in the paper's
/// configuration), sorted-vector scans beat any tree or hash structure; the
/// cached `oldest` lower bound additionally lets the per-store
/// [`WriteCombineTable::expire`] call return without touching the entries at
/// all while nothing can be due.
#[derive(Debug, Clone)]
pub struct WriteCombineTable {
    capacity: usize,
    timeout: u64,
    words_per_line: usize,
    /// Sorted by `line` ascending.
    entries: Vec<WriteCombineEntry>,
    /// Lower bound on the minimum `first_write` over `entries` (stale — i.e.
    /// strictly below the true minimum — only after the oldest entry leaves;
    /// refreshed by the next full `expire` scan). Only ever used to skip
    /// scans that cannot find anything due, never to skip a due flush.
    oldest: Cycle,
    flushes: u64,
}

impl WriteCombineTable {
    /// Creates a table with `capacity` entries, a flush `timeout` in cycles,
    /// and `words_per_line` words per cache line.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `words_per_line` is zero.
    pub fn new(capacity: usize, timeout: u64, words_per_line: usize) -> Self {
        assert!(capacity > 0 && words_per_line > 0);
        WriteCombineTable {
            capacity,
            timeout,
            words_per_line,
            entries: Vec::with_capacity(capacity),
            oldest: Cycle::MAX,
            flushes: 0,
        }
    }

    /// Number of lines with pending registrations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no registrations are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of entries flushed over the table lifetime.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    #[inline]
    fn position(&self, line: LineAddr) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&line, |e| e.line)
    }

    /// Pending words for `line`, if an entry exists.
    pub fn pending(&self, line: LineAddr) -> Option<WordMask> {
        self.position(line).ok().map(|i| self.entries[i].pending)
    }

    /// Records a write to `word` of `line` at cycle `now`.
    ///
    /// Returns the entries that must be flushed (turned into registration
    /// messages) as a consequence: the written line itself if it became
    /// fully written, plus a capacity victim if the table was full.
    pub fn record_write(
        &mut self,
        line: LineAddr,
        word: WordIdx,
        now: Cycle,
    ) -> Vec<(WriteCombineEntry, WriteFlush)> {
        let mut out = Vec::new();

        match self.position(line) {
            Ok(i) => {
                self.entries[i].pending.insert(word);
                if self.entries[i].pending.count() >= self.words_per_line {
                    let e = self.entries.remove(i);
                    self.flushes += 1;
                    out.push((e, WriteFlush::LineFull));
                }
            }
            Err(mut i) => {
                if self.entries.len() >= self.capacity {
                    // Displace the oldest entry; `first_write` ties break
                    // toward the lowest line address, deterministically
                    // (ascending scan keeps the first minimum).
                    let mut victim = 0;
                    for (j, e) in self.entries.iter().enumerate().skip(1) {
                        if e.first_write < self.entries[victim].first_write {
                            victim = j;
                        }
                    }
                    let e = self.entries.remove(victim);
                    self.flushes += 1;
                    if victim < i {
                        i -= 1;
                    }
                    out.push((e, WriteFlush::CapacityReplacement));
                }
                let mut pending = WordMask::EMPTY;
                pending.insert(word);
                if self.words_per_line <= 1 {
                    self.flushes += 1;
                    out.push((
                        WriteCombineEntry {
                            line,
                            pending,
                            first_write: now,
                        },
                        WriteFlush::LineFull,
                    ));
                } else {
                    self.entries.insert(
                        i,
                        WriteCombineEntry {
                            line,
                            pending,
                            first_write: now,
                        },
                    );
                    self.oldest = self.oldest.min(now);
                }
            }
        }
        out
    }

    /// Flushes all entries whose first pending write is older than the
    /// timeout at cycle `now`.
    pub fn expire(&mut self, now: Cycle) -> Vec<(WriteCombineEntry, WriteFlush)> {
        // Fast path for the per-store call: nothing can be due while even a
        // lower bound on the oldest first_write is inside the timeout.
        if self.entries.is_empty() || now.saturating_sub(self.oldest) < self.timeout {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut oldest = Cycle::MAX;
        // Ascending line order, matching BTreeMap iteration.
        self.entries.retain(|e| {
            if now.saturating_sub(e.first_write) >= self.timeout {
                out.push((e.clone(), WriteFlush::Timeout));
                false
            } else {
                oldest = oldest.min(e.first_write);
                true
            }
        });
        self.flushes += out.len() as u64;
        self.oldest = oldest;
        out
    }

    /// Flushes every entry (release / barrier semantics), in line order.
    pub fn release_all(&mut self) -> Vec<(WriteCombineEntry, WriteFlush)> {
        let out: Vec<_> = std::mem::take(&mut self.entries)
            .into_iter()
            .map(|e| (e, WriteFlush::Release))
            .collect();
        self.flushes += out.len() as u64;
        self.oldest = Cycle::MAX;
        out
    }

    /// Flushes the entry for an evicted line, if one exists.
    pub fn evict_line(&mut self, line: LineAddr) -> Option<(WriteCombineEntry, WriteFlush)> {
        self.position(line).ok().map(|i| {
            let e = self.entries.remove(i);
            self.flushes += 1;
            (e, WriteFlush::Eviction)
        })
    }
}

/// The original `BTreeMap`-backed implementation, kept verbatim as the
/// oracle for the differential property test (`tests/prop_write_combine.rs`):
/// the flat table above must produce the same flushes, in the same order,
/// for any op stream.
pub mod reference {
    use super::{WriteCombineEntry, WriteFlush};
    use std::collections::BTreeMap;
    use tw_types::{Cycle, LineAddr, WordIdx, WordMask};

    /// Reference write-combining table (ordered-map storage).
    #[derive(Debug, Clone)]
    pub struct WriteCombineTable {
        capacity: usize,
        timeout: u64,
        words_per_line: usize,
        entries: BTreeMap<LineAddr, WriteCombineEntry>,
        flushes: u64,
    }

    impl WriteCombineTable {
        /// See [`super::WriteCombineTable::new`].
        pub fn new(capacity: usize, timeout: u64, words_per_line: usize) -> Self {
            assert!(capacity > 0 && words_per_line > 0);
            WriteCombineTable {
                capacity,
                timeout,
                words_per_line,
                entries: BTreeMap::new(),
                flushes: 0,
            }
        }

        /// See [`super::WriteCombineTable::len`].
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// See [`super::WriteCombineTable::is_empty`].
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// See [`super::WriteCombineTable::flushes`].
        pub fn flushes(&self) -> u64 {
            self.flushes
        }

        /// See [`super::WriteCombineTable::pending`].
        pub fn pending(&self, line: LineAddr) -> Option<WordMask> {
            self.entries.get(&line).map(|e| e.pending)
        }

        /// See [`super::WriteCombineTable::record_write`].
        pub fn record_write(
            &mut self,
            line: LineAddr,
            word: WordIdx,
            now: Cycle,
        ) -> Vec<(WriteCombineEntry, WriteFlush)> {
            let mut out = Vec::new();

            if !self.entries.contains_key(&line) && self.entries.len() >= self.capacity {
                if let Some(&victim) = self
                    .entries
                    .values()
                    .min_by_key(|e| e.first_write)
                    .map(|e| &e.line)
                {
                    let e = self.entries.remove(&victim).expect("victim present");
                    self.flushes += 1;
                    out.push((e, WriteFlush::CapacityReplacement));
                }
            }

            let entry = self.entries.entry(line).or_insert(WriteCombineEntry {
                line,
                pending: WordMask::EMPTY,
                first_write: now,
            });
            entry.pending.insert(word);

            if entry.pending.count() >= self.words_per_line {
                let e = self.entries.remove(&line).expect("just inserted");
                self.flushes += 1;
                out.push((e, WriteFlush::LineFull));
            }
            out
        }

        /// See [`super::WriteCombineTable::expire`].
        pub fn expire(&mut self, now: Cycle) -> Vec<(WriteCombineEntry, WriteFlush)> {
            let expired: Vec<LineAddr> = self
                .entries
                .values()
                .filter(|e| now.saturating_sub(e.first_write) >= self.timeout)
                .map(|e| e.line)
                .collect();
            expired
                .into_iter()
                .map(|l| {
                    self.flushes += 1;
                    (
                        self.entries.remove(&l).expect("listed"),
                        WriteFlush::Timeout,
                    )
                })
                .collect()
        }

        /// See [`super::WriteCombineTable::release_all`].
        pub fn release_all(&mut self) -> Vec<(WriteCombineEntry, WriteFlush)> {
            let out: Vec<_> = std::mem::take(&mut self.entries)
                .into_values()
                .map(|e| (e, WriteFlush::Release))
                .collect();
            self.flushes += out.len() as u64;
            out
        }

        /// See [`super::WriteCombineTable::evict_line`].
        pub fn evict_line(&mut self, line: LineAddr) -> Option<(WriteCombineEntry, WriteFlush)> {
            self.entries.remove(&line).map(|e| {
                self.flushes += 1;
                (e, WriteFlush::Eviction)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_aligned(n * 64)
    }

    fn table() -> WriteCombineTable {
        WriteCombineTable::new(4, 10_000, 16)
    }

    #[test]
    fn writes_accumulate_until_line_full() {
        let mut t = table();
        for w in 0..15u8 {
            assert!(t.record_write(line(1), WordIdx(w), 100).is_empty());
        }
        assert_eq!(t.pending(line(1)).unwrap().count(), 15);
        let flushed = t.record_write(line(1), WordIdx(15), 200);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].1, WriteFlush::LineFull);
        assert!(flushed[0].0.pending.is_full());
        assert!(t.is_empty());
    }

    #[test]
    fn timeout_expiry_flushes_old_entries_only() {
        let mut t = table();
        t.record_write(line(1), WordIdx(0), 0);
        t.record_write(line(2), WordIdx(0), 9_000);
        let expired = t.expire(10_000);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0.line, line(1));
        assert_eq!(expired[0].1, WriteFlush::Timeout);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn expire_early_out_does_not_miss_later_expiries() {
        let mut t = table();
        t.record_write(line(1), WordIdx(0), 0);
        assert!(t.expire(9_999).is_empty());
        // Entry inserted after an older one left keeps the bound conservative.
        t.record_write(line(2), WordIdx(0), 5_000);
        assert_eq!(t.expire(10_000).len(), 1);
        assert!(t.expire(14_999).is_empty());
        assert_eq!(t.expire(15_000).len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn release_flushes_everything_in_line_order() {
        let mut t = table();
        t.record_write(line(3), WordIdx(0), 0);
        t.record_write(line(1), WordIdx(0), 0);
        let released = t.release_all();
        assert_eq!(released.len(), 2);
        assert_eq!(released[0].0.line, line(1));
        assert!(released.iter().all(|(_, f)| *f == WriteFlush::Release));
        assert!(t.is_empty());
        assert_eq!(t.flushes(), 2);
    }

    #[test]
    fn capacity_displacement_evicts_oldest() {
        let mut t = table();
        for (i, cyc) in [(1u64, 10u64), (2, 5), (3, 20), (4, 15)] {
            t.record_write(line(i), WordIdx(0), cyc);
        }
        let flushed = t.record_write(line(5), WordIdx(0), 30);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].0.line, line(2), "oldest first_write displaced");
        assert_eq!(flushed[0].1, WriteFlush::CapacityReplacement);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn eviction_flush_returns_pending_words() {
        let mut t = table();
        t.record_write(line(7), WordIdx(2), 0);
        t.record_write(line(7), WordIdx(3), 1);
        let (e, why) = t.evict_line(line(7)).unwrap();
        assert_eq!(why, WriteFlush::Eviction);
        assert_eq!(e.pending.count(), 2);
        assert!(t.evict_line(line(7)).is_none());
    }
}
