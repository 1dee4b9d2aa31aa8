//! Property-based tests of the cache-array and write-combining invariants.

use proptest::prelude::*;
use tw_mem::{CacheArray, CacheGeometry, WriteCombineTable};
use tw_types::{LineAddr, WordIdx};

fn small_geometry() -> CacheGeometry {
    // 4 sets x 4 ways of 64-byte lines.
    CacheGeometry::new(1024, 4, 64)
}

proptest! {
    /// Under any sequence of inserts, lookups, and removes the array never
    /// exceeds its capacity, never holds two entries for the same line, and
    /// insertions = resident + evictions + removals.
    #[test]
    fn cache_array_conserves_lines(ops in prop::collection::vec((0u8..3, 0u64..64), 1..400)) {
        let mut cache: CacheArray<u8> = CacheArray::new(small_geometry());
        let mut removed = 0u64;
        for (op, line_no) in ops {
            let line = LineAddr::from_aligned(line_no * 64);
            match op {
                0 => {
                    cache.insert(line, 0);
                }
                1 => {
                    cache.get(line);
                }
                _ => {
                    if cache.remove(line).is_some() {
                        removed += 1;
                    }
                }
            }
            prop_assert!(cache.len() <= cache.geometry().lines());
        }
        prop_assert_eq!(
            cache.insertions(),
            cache.len() as u64 + cache.evictions() + removed
        );
        // No duplicate lines among residents.
        let mut lines: Vec<_> = cache.iter().map(|e| e.line).collect();
        let before = lines.len();
        lines.sort();
        lines.dedup();
        prop_assert_eq!(before, lines.len());
    }

    /// A line that was just inserted and touched is never the next victim of
    /// its set (LRU ordering).
    #[test]
    fn recently_used_line_is_not_the_victim(line_nos in prop::collection::vec(0u64..64, 5..64)) {
        let mut cache: CacheArray<u8> = CacheArray::new(small_geometry());
        for &n in &line_nos {
            let line = LineAddr::from_aligned(n * 64);
            cache.insert(line, 0);
            cache.get(line);
            // Any new line mapping to the same set must not pick `line`.
            let probe = LineAddr::from_aligned((n + 4 * 64) * 64);
            if let (_, Some(victim)) = cache.clone().insert(probe, 0) {
                prop_assert_ne!(victim.line, line);
            }
        }
    }

    /// The write-combining table never flushes an empty word set, never holds
    /// more entries than its capacity, and every recorded word is flushed
    /// exactly once across the run.
    #[test]
    fn write_combine_flushes_every_word_once(
        writes in prop::collection::vec((0u64..16, 0u8..16), 1..300),
        timeout in 1u64..5000,
    ) {
        let mut table = WriteCombineTable::new(8, timeout, 16);
        let recorded = writes.len();
        let mut flushed_words = 0usize;
        for (i, (line_no, word)) in writes.iter().enumerate() {
            let line = LineAddr::from_aligned(line_no * 64);
            let out = table.record_write(line, WordIdx(*word), i as u64 * 10);
            for (entry, _) in &out {
                prop_assert!(!entry.pending.is_empty());
                flushed_words += entry.pending.count();
            }
            prop_assert!(table.len() <= 8);
            for (entry, _) in table.expire(i as u64 * 10) {
                prop_assert!(!entry.pending.is_empty());
                flushed_words += entry.pending.count();
            }
        }
        let leftover: usize = table.release_all().iter().map(|(e, _)| e.pending.count()).sum();
        // Every flushed word corresponds to at least one recorded write
        // (coalescing can only shrink the count, never invent words).
        prop_assert!(flushed_words + leftover <= recorded);
    }
}
