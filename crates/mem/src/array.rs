//! Set-associative cache arrays with per-word valid/dirty state.

use tw_types::{LineAddr, WordMask, LINE_BYTES};

/// Geometry of a cache array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes: always [`LINE_BYTES`].
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Creates a geometry description.
    ///
    /// # Panics
    ///
    /// Panics if the line is not the 64-byte line the engine is built
    /// around, or the parameters do not describe a whole number of sets.
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert_eq!(line_bytes, LINE_BYTES, "a cache line is 64 bytes");
        assert!(ways > 0);
        assert_eq!(
            capacity_bytes % (ways as u64 * line_bytes),
            0,
            "capacity must be a whole number of sets"
        );
        CacheGeometry {
            capacity_bytes,
            ways,
            line_bytes,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / (self.ways as u64 * self.line_bytes)) as usize
    }

    /// Number of lines the array can hold.
    pub fn lines(&self) -> usize {
        self.sets() * self.ways
    }

    /// Set index of a line address.
    pub fn set_of(&self, line: LineAddr) -> usize {
        ((line.byte() / self.line_bytes) as usize) % self.sets()
    }
}

/// One resident cache line with per-word state plus protocol metadata `M`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineEntry<M> {
    /// Line address (tag).
    pub line: LineAddr,
    /// Which words hold valid data.
    pub valid: WordMask,
    /// Which words are dirty with respect to the next level.
    pub dirty: WordMask,
    /// Protocol-specific metadata (MESI state, DeNovo registration, ...).
    pub meta: M,
    lru: u64,
}

impl<M> LineEntry<M> {
    /// Whether any word of the line is dirty.
    pub fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }
}

/// A set-associative cache array with true-LRU replacement.
///
/// The array tracks only line residency and per-word state; protocol
/// behaviour lives in the protocol crates, which store their state in the
/// metadata parameter `M`.
///
/// Storage is struct-of-arrays over a single flat allocation: set `s`
/// occupies slots `[s*ways, s*ways + set_len[s])`, with the line tags
/// mirrored into a dense `u64` array so the per-access tag scan touches one
/// cache line instead of chasing `Vec<Vec<_>>` pointers or hashing. Within a
/// set, slot positions mirror the push/`swap_remove` discipline of the
/// original `Vec`-of-`Vec`s representation exactly — `iter`/`iter_mut`
/// order feeds protocol message order, so residency order is part of the
/// determinism contract, not an implementation detail.
#[derive(Debug, Clone)]
pub struct CacheArray<M> {
    geom: CacheGeometry,
    /// `sets - 1`, valid when `sets_pow2`.
    set_mask: usize,
    sets_pow2: bool,
    nsets: usize,
    ways: usize,
    /// Line tags (byte addresses), dense per set; meaningful only below the
    /// set's length.
    tags: Vec<u64>,
    /// Occupied slots per set.
    set_len: Vec<u32>,
    entries: Vec<Option<LineEntry<M>>>,
    len: usize,
    tick: u64,
    insertions: u64,
    evictions: u64,
}

impl<M> CacheArray<M> {
    /// Creates an empty array with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        let nsets = geom.sets();
        let ways = geom.ways;
        CacheArray {
            set_mask: nsets.wrapping_sub(1),
            sets_pow2: nsets.is_power_of_two(),
            nsets,
            ways,
            tags: vec![0; nsets * ways],
            set_len: vec![0; nsets],
            entries: (0..nsets * ways).map(|_| None).collect(),
            geom,
            len: 0,
            tick: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// Set index of `line` — same mapping as [`CacheGeometry::set_of`], with
    /// the set division strength-reduced for a power-of-two set count.
    #[inline(always)]
    fn set_of(&self, line: LineAddr) -> usize {
        let line_no = (line.byte() / LINE_BYTES) as usize;
        if self.sets_pow2 {
            line_no & self.set_mask
        } else {
            line_no % self.nsets
        }
    }

    /// Slot index of `line` within the flat arrays, if resident.
    #[inline(always)]
    fn slot_of(&self, line: LineAddr) -> Option<usize> {
        let set = self.set_of(line);
        let base = set * self.ways;
        let len = self.set_len[set] as usize;
        let tag = line.byte();
        self.tags[base..base + len]
            .iter()
            .position(|t| *t == tag)
            .map(|i| base + i)
    }

    /// The array geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total lines inserted over the array's lifetime.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Total lines evicted (capacity/conflict) over the array's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up a line without affecting LRU order.
    #[inline]
    pub fn peek(&self, line: LineAddr) -> Option<&LineEntry<M>> {
        let i = self.slot_of(line)?;
        self.entries[i].as_ref()
    }

    /// Looks up a line and refreshes its LRU position.
    #[inline]
    pub fn get(&mut self, line: LineAddr) -> Option<&mut LineEntry<M>> {
        let i = self.slot_of(line)?;
        // The tick advances only on hits, exactly as before.
        self.tick += 1;
        let entry = self.entries[i].as_mut().expect("tagged slot occupied");
        entry.lru = self.tick;
        Some(entry)
    }

    /// Looks up a line and refreshes its LRU position only when `pred`
    /// accepts the entry; a rejected (or absent) line is left untouched.
    ///
    /// Equivalent to `peek` followed by a conditional `get` — same tick and
    /// LRU effects — with a single tag scan, for the hit-check-then-touch
    /// pattern on the simulator's hot path.
    #[inline]
    pub fn get_where<F>(&mut self, line: LineAddr, pred: F) -> Option<&mut LineEntry<M>>
    where
        F: FnOnce(&LineEntry<M>) -> bool,
    {
        let i = self.slot_of(line)?;
        if !pred(self.entries[i].as_ref().expect("tagged slot occupied")) {
            return None;
        }
        // The tick advances only on accepted hits, exactly as a plain `get`.
        self.tick += 1;
        let entry = self.entries[i].as_mut().expect("tagged slot occupied");
        entry.lru = self.tick;
        Some(entry)
    }

    /// Whether the line is resident.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.slot_of(line).is_some()
    }

    /// Inserts a line, evicting the LRU line of the set if it is full.
    ///
    /// Returns the new entry and the evicted victim, if any. If the line is
    /// already resident the existing entry is returned (metadata untouched)
    /// and no eviction happens.
    pub fn insert(&mut self, line: LineAddr, meta: M) -> (&mut LineEntry<M>, Option<LineEntry<M>>) {
        // The tick advances on every insert (hit or miss), exactly as before.
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let base = set * self.ways;
        let mut slen = self.set_len[set] as usize;

        if let Some(pos) = self.tags[base..base + slen]
            .iter()
            .position(|t| *t == line.byte())
        {
            let entry = self.entries[base + pos].as_mut().expect("resident");
            entry.lru = tick;
            return (entry, None);
        }

        let victim = if slen >= self.ways {
            let mut vpos = 0;
            for i in 1..slen {
                if self.entries[base + i].as_ref().expect("occupied").lru
                    < self.entries[base + vpos].as_ref().expect("occupied").lru
                {
                    vpos = i;
                }
            }
            // Mirror `Vec::swap_remove(vpos)`: the last slot moves into the
            // hole, preserving the original in-set residency order.
            let victim = self.entries[base + vpos].take().expect("occupied");
            slen -= 1;
            if vpos != slen {
                self.entries[base + vpos] = self.entries[base + slen].take();
                self.tags[base + vpos] = self.tags[base + slen];
            }
            self.len -= 1;
            self.evictions += 1;
            Some(victim)
        } else {
            None
        };

        self.tags[base + slen] = line.byte();
        self.entries[base + slen] = Some(LineEntry {
            line,
            valid: WordMask::EMPTY,
            dirty: WordMask::EMPTY,
            meta,
            lru: tick,
        });
        self.set_len[set] = (slen + 1) as u32;
        self.len += 1;
        self.insertions += 1;
        (
            self.entries[base + slen].as_mut().expect("just inserted"),
            victim,
        )
    }

    /// Removes a line (protocol invalidation or explicit eviction), returning
    /// it if it was resident. Does not count as a capacity eviction.
    pub fn remove(&mut self, line: LineAddr) -> Option<LineEntry<M>> {
        let set = self.set_of(line);
        let base = set * self.ways;
        let slen = self.set_len[set] as usize;
        let pos = self.tags[base..base + slen]
            .iter()
            .position(|t| *t == line.byte())?;
        let removed = self.entries[base + pos].take().expect("occupied");
        let last = slen - 1;
        if pos != last {
            self.entries[base + pos] = self.entries[base + last].take();
            self.tags[base + pos] = self.tags[base + last];
        }
        self.set_len[set] = last as u32;
        self.len -= 1;
        Some(removed)
    }

    /// Iterator over all resident lines (set-major, in-set residency order).
    pub fn iter(&self) -> impl Iterator<Item = &LineEntry<M>> {
        self.entries
            .chunks(self.ways)
            .zip(self.set_len.iter())
            .flat_map(|(chunk, len)| {
                chunk[..*len as usize]
                    .iter()
                    .map(|e| e.as_ref().expect("occupied"))
            })
    }

    /// Mutable iterator over all resident lines (set-major, in-set residency
    /// order).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut LineEntry<M>> {
        self.entries
            .chunks_mut(self.ways)
            .zip(self.set_len.iter())
            .flat_map(|(chunk, len)| {
                chunk[..*len as usize]
                    .iter_mut()
                    .map(|e| e.as_mut().expect("occupied"))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_types::{Addr, WordIdx};

    fn line(n: u64) -> LineAddr {
        LineAddr::from_aligned(n * 64)
    }

    fn small() -> CacheArray<u32> {
        // 2 sets x 2 ways of 64-byte lines.
        CacheArray::new(CacheGeometry::new(256, 2, 64))
    }

    #[test]
    fn geometry_derivations() {
        let g = CacheGeometry::new(32 * 1024, 8, 64);
        assert_eq!(g.sets(), 64);
        assert_eq!(g.lines(), 512);
        assert_eq!(g.set_of(LineAddr::from_aligned(64 * 64)), 0);
        assert_eq!(g.set_of(LineAddr::from_aligned(65 * 64)), 1);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn geometry_rejects_fractional_sets() {
        CacheGeometry::new(100, 3, 64);
    }

    #[test]
    #[should_panic(expected = "a cache line is 64 bytes")]
    fn geometry_refuses_any_other_line() {
        CacheGeometry::new(32 * 1024, 8, 32);
    }

    #[test]
    fn insert_lookup_and_word_state() {
        let mut c = small();
        let l = line(4);
        let (e, v) = c.insert(l, 7);
        assert!(v.is_none());
        e.valid.insert(WordIdx(3));
        e.dirty.insert(WordIdx(3));
        assert!(c.contains(l));
        let e = c.get(l).unwrap();
        assert!(e.valid.contains(WordIdx(3)));
        assert!(e.is_dirty());
        assert_eq!(e.meta, 7);
        assert!(c.peek(line(5)).is_none());
    }

    #[test]
    fn lru_eviction_prefers_least_recently_used() {
        let mut c = small();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        c.insert(line(0), 0);
        c.insert(line(2), 0);
        // Touch line 0 so line 2 becomes LRU.
        c.get(line(0));
        let (_, victim) = c.insert(line(4), 0);
        let victim = victim.expect("set was full");
        assert_eq!(victim.line, line(2));
        assert!(c.contains(line(0)));
        assert!(c.contains(line(4)));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn get_where_touches_lru_only_on_accepted_hits() {
        let mut c = small();
        c.insert(line(0), 1);
        c.insert(line(2), 2);
        // A rejected predicate must leave LRU order untouched: line 0 stays
        // the victim candidate.
        assert!(c.get_where(line(0), |e| e.meta == 99).is_none());
        let victim = |c: &CacheArray<u32>| c.clone().insert(line(4), 0).1.unwrap().line;
        assert_eq!(victim(&c), line(0));
        // An accepted predicate refreshes LRU exactly like `get`.
        assert!(c.get_where(line(0), |e| e.meta == 1).is_some());
        assert_eq!(victim(&c), line(2));
        assert!(c.get_where(line(4), |_| true).is_none(), "absent line");
    }

    #[test]
    fn reinsert_existing_line_does_not_evict() {
        let mut c = small();
        c.insert(line(0), 1);
        c.insert(line(2), 2);
        let (e, v) = c.insert(line(0), 99);
        assert!(v.is_none());
        assert_eq!(e.meta, 1, "metadata of resident line untouched");
        assert_eq!(c.len(), 2);
        assert_eq!(c.insertions(), 2);
    }

    #[test]
    fn remove_does_not_count_as_eviction() {
        let mut c = small();
        c.insert(line(0), 0);
        assert!(c.remove(line(0)).is_some());
        assert!(c.remove(line(0)).is_none());
        assert_eq!(c.evictions(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn index_stays_consistent_under_churn() {
        let mut c = CacheArray::new(CacheGeometry::new(1024, 4, 64));
        for i in 0..200u64 {
            c.insert(line(i % 37), i as u32);
            if i % 3 == 0 {
                c.remove(line((i * 7) % 37));
            }
        }
        let resident: Vec<_> = c.iter().map(|e| e.line).collect();
        for l in resident {
            assert!(c.contains(l));
            assert_eq!(c.peek(l).unwrap().line, l);
        }
        assert!(c.len() <= c.geometry().lines());
    }

    #[test]
    fn line_addr_helper_matches_containing() {
        assert_eq!(line(2), LineAddr::containing(Addr::new(130), 64));
    }
}
