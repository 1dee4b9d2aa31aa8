//! A fast open-addressing hash map for `u64` keys.
//!
//! The simulation hot path looks words up by address on every memory
//! reference (waste-profiler pending tables, write-combine state). The std
//! `HashMap` pays SipHash on every probe — robust against adversarial keys,
//! but simulated physical addresses are not adversarial. [`FastMap`] is a
//! linear-probing table with Fibonacci multiplicative hashing and
//! backward-shift deletion: no tombstones, no per-probe branches beyond the
//! key compare, ~5x faster than SipHash for this access pattern.
//!
//! Iteration order over a `FastMap` depends on the hash layout and MUST NOT
//! feed anything order-sensitive (f64 accumulation, message emission);
//! callers that need a stable order collect the keys and sort, exactly as
//! they did with the std `HashMap` (see `CacheWasteProfiler::finish`).

/// Multiplier for Fibonacci hashing: `floor(2^64 / phi)`, odd.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// One slot: an occupied key/value pair, or empty.
type Slot<V> = Option<(u64, V)>;

/// A linear-probing hash map from `u64` keys to `V`.
///
/// Semantically a subset of `std::collections::HashMap<u64, V>`: `get`,
/// `get_mut`, `insert`, `remove`, `contains_key`, `len` and key iteration,
/// with identical observable behavior for any call sequence (iteration
/// *order* excepted, as with any hash map).
#[derive(Debug, Clone)]
pub struct FastMap<V> {
    slots: Vec<Slot<V>>,
    mask: usize,
    shift: u32,
    len: usize,
    // Observability counters, maintained only on `&mut self` paths (the
    // collision branch and `grow_to`) so the shared-read `find` stays
    // untouched. Observer lane: nothing reads these back into simulation.
    probes: u64,
    resizes: u64,
}

impl<V> Default for FastMap<V> {
    fn default() -> Self {
        FastMap::new()
    }
}

impl<V> FastMap<V> {
    /// Creates an empty map (allocates on first insert).
    pub fn new() -> Self {
        FastMap {
            slots: Vec::new(),
            mask: 0,
            shift: 64,
            len: 0,
            probes: 0,
            resizes: 0,
        }
    }

    /// Creates an empty map pre-sized for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        let mut m = FastMap::new();
        if cap > 0 {
            m.grow_to((cap * 2 + 1).next_power_of_two().max(8));
        }
        m
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline(always)]
    fn home(&self, key: u64) -> usize {
        // High bits of the Fibonacci product, folded to the table size; the
        // high bits mix far better than the low ones for sequential keys.
        (key.wrapping_mul(PHI) >> self.shift) as usize
    }

    /// Index of `key`'s slot, if present.
    #[inline(always)]
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => return Some(i),
                Some(_) => i = (i + 1) & self.mask,
                None => return None,
            }
        }
    }

    /// Returns a reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key)
            .map(|i| &self.slots[i].as_ref().expect("occupied").1)
    }

    /// Returns a mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.find(key)?;
        Some(&mut self.slots[i].as_mut().expect("occupied").1)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Returns a mutable reference to the value for `key`, inserting
    /// `default()` first if the key is absent.
    ///
    /// A single probe replaces the `contains_key` + `insert` pair the
    /// profilers' hot paths would otherwise pay twice per word.
    #[inline]
    pub fn get_or_insert_with<F: FnOnce() -> V>(&mut self, key: u64, default: F) -> &mut V {
        if self.len * 2 >= self.slots.len() {
            self.grow_to((self.slots.len() * 2).max(8));
        }
        let mut i = self.home(key);
        let idx = loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => break i,
                Some(_) => {
                    self.probes += 1;
                    i = (i + 1) & self.mask;
                }
                None => {
                    self.slots[i] = Some((key, default()));
                    self.len += 1;
                    break i;
                }
            }
        };
        &mut self.slots[idx].as_mut().expect("occupied").1
    }

    /// Inserts `key -> value`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        // Grow at 50% occupancy: scalar linear probing degrades sharply past
        // that (absent-key probes scan to the next empty slot, and the
        // profilers' hot calls are mostly absent-key lookups), so trade
        // memory for short chains rather than running dense like a SIMD
        // swiss table would.
        if self.len * 2 >= self.slots.len() {
            self.grow_to((self.slots.len() * 2).max(8));
        }
        let mut i = self.home(key);
        loop {
            match &mut self.slots[i] {
                Some((k, v)) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Some(_) => {
                    self.probes += 1;
                    i = (i + 1) & self.mask;
                }
                None => {
                    self.slots[i] = Some((key, value));
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    ///
    /// Uses backward-shift deletion, so probe chains stay tombstone-free and
    /// lookup cost never degrades with churn.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut i = self.find(key)?;
        let (_, value) = self.slots[i].take().expect("occupied");
        self.len -= 1;
        // Shift back any entry whose probe chain ran through the hole.
        let mut j = (i + 1) & self.mask;
        while let Some((k, _)) = &self.slots[j] {
            let home = self.home(*k);
            // Cyclic probe distance from home to the current slot; if the
            // hole lies within it, the entry can (and must) move back.
            let dist_j = j.wrapping_sub(home) & self.mask;
            let dist_i = j.wrapping_sub(i) & self.mask;
            if dist_j >= dist_i {
                self.slots[i] = self.slots[j].take();
                i = j;
            }
            j = (j + 1) & self.mask;
        }
        Some(value)
    }

    /// Iterates over all keys (hash order — not stable across histories;
    /// sort before doing anything order-sensitive).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, _)| *k))
    }

    /// Iterates over `(key, &value)` pairs (hash order — see [`FastMap::keys`]).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    /// Observability counters: cumulative collision probes on mutating
    /// lookups, and table rehashes. Write-side only — the shared-read
    /// `find` path is deliberately uninstrumented.
    pub fn probe_stats(&self) -> (u64, u64) {
        (self.probes, self.resizes)
    }

    fn grow_to(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two());
        self.resizes += 1;
        let old = std::mem::replace(
            &mut self.slots,
            (0..new_cap).map(|_| None).collect::<Vec<Slot<V>>>(),
        );
        self.mask = new_cap - 1;
        self.shift = 64 - new_cap.trailing_zeros();
        for slot in old.into_iter().flatten() {
            let (key, value) = slot;
            let mut i = self.home(key);
            while self.slots[i].is_some() {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = Some((key, value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn basic_insert_get_remove() {
        let mut m = FastMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, "a"), None);
        assert_eq!(m.insert(7, "b"), Some("a"));
        assert_eq!(m.get(7), Some(&"b"));
        assert!(m.contains_key(7));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(7), Some("b"));
        assert_eq!(m.remove(7), None);
        assert!(m.get(0).is_none());
    }

    #[test]
    fn zero_key_is_an_ordinary_key() {
        let mut m = FastMap::new();
        m.insert(0, 42u32);
        assert_eq!(m.get(0), Some(&42));
        *m.get_mut(0).unwrap() += 1;
        assert_eq!(m.remove(0), Some(43));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = FastMap::with_capacity(4);
        for k in 0..10_000u64 {
            m.insert(k * 64, k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k * 64), Some(&k), "key {k}");
        }
    }

    #[test]
    fn keys_cover_all_entries() {
        let mut m = FastMap::new();
        for k in [3u64, 99, 12_000, 0] {
            m.insert(k, ());
        }
        let mut keys: Vec<u64> = m.keys().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 3, 99, 12_000]);
        assert_eq!(m.iter().count(), 4);
    }

    /// Differential check against `std::collections::HashMap` under a
    /// deterministic churn of inserts/removes/lookups, including the
    /// clustered sequential addresses the simulator actually produces.
    #[test]
    fn matches_std_hashmap_under_churn() {
        let mut fast: FastMap<u64> = FastMap::new();
        let mut std_map: HashMap<u64, u64> = HashMap::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..50_000u64 {
            let r = rng();
            // Mix word-aligned clustered keys with sparse ones.
            let key = if r % 3 == 0 {
                (r % 512) * 4
            } else {
                (r >> 16) & 0xFFFF_FFF0
            };
            match r % 5 {
                0..=2 => {
                    assert_eq!(fast.insert(key, step), std_map.insert(key, step));
                }
                3 => {
                    assert_eq!(fast.remove(key), std_map.remove(&key));
                }
                _ => {
                    assert_eq!(fast.get(key), std_map.get(&key));
                }
            }
            assert_eq!(fast.len(), std_map.len());
        }
        let mut a: Vec<u64> = fast.keys().collect();
        let mut b: Vec<u64> = std_map.keys().copied().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn get_or_insert_with_matches_entry_semantics() {
        let mut m: FastMap<Vec<u64>> = FastMap::new();
        m.get_or_insert_with(8, Vec::new).push(1);
        m.get_or_insert_with(8, Vec::new).push(2);
        m.get_or_insert_with(16, || vec![9]).push(10);
        assert_eq!(m.get(8), Some(&vec![1, 2]));
        assert_eq!(m.get(16), Some(&vec![9, 10]));
        assert_eq!(m.len(), 2);
        // Must also grow correctly when called on a full table.
        let mut g: FastMap<u64> = FastMap::new();
        for k in 0..1000 {
            *g.get_or_insert_with(k * 4, || k) += 1;
        }
        for k in 0..1000 {
            assert_eq!(g.get(k * 4), Some(&(k + 1)));
        }
    }

    #[test]
    fn probe_stats_count_collisions_and_resizes() {
        let mut m = FastMap::new();
        assert_eq!(m.probe_stats(), (0, 0));
        for k in 0..1000u64 {
            m.insert(k * 64, k);
        }
        let (_, resizes) = m.probe_stats();
        // 1000 entries at 50% occupancy needs a 2048-slot table: 8 -> 2048
        // is 9 doublings (grow_to is also the initial allocation).
        assert!(resizes >= 9, "resizes = {resizes}");
        // Force a guaranteed collision chain: with_capacity avoids growth
        // noise, and two keys sharing a home probe past each other.
        let mut c: FastMap<u64> = FastMap::with_capacity(512);
        let (probes0, _) = c.probe_stats();
        for k in 0..256u64 {
            c.insert(k, k);
        }
        let (probes, _) = c.probe_stats();
        assert!(probes >= probes0, "probe counter must be monotone");
    }

    #[test]
    fn backward_shift_keeps_chains_reachable() {
        // Force heavy clustering: many keys landing in adjacent homes, then
        // remove from the middle of chains and verify everything else is
        // still reachable.
        let mut m = FastMap::with_capacity(16);
        let keys: Vec<u64> = (0..64).map(|k| k * 8).collect();
        for &k in &keys {
            m.insert(k, k);
        }
        for &k in keys.iter().step_by(3) {
            assert_eq!(m.remove(k), Some(k));
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(m.get(k), None);
            } else {
                assert_eq!(m.get(k), Some(&k), "key {k} lost after deletions");
            }
        }
    }
}
