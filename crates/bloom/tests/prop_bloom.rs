//! Property-based tests of the Bloom-filter guarantees the "L2 Request
//! Bypass" optimization depends on: no false negatives, ever.

mod reference_filter;

use proptest::prelude::*;
use reference_filter::{BloomFilter, CountingBloomFilter};
use tw_bloom::{BloomBank, BloomConfig};
use tw_types::LineAddr;

proptest! {
    /// A plain filter never forgets an inserted key until cleared.
    #[test]
    fn plain_filter_has_no_false_negatives(keys in prop::collection::vec(0u64..1_000_000, 1..500)) {
        let mut f = BloomFilter::new(512, 0xABCD);
        for &k in &keys {
            f.insert(k * 64);
        }
        for &k in &keys {
            prop_assert!(f.may_contain(k * 64));
        }
        f.clear();
        prop_assert_eq!(f.occupancy(), 0.0);
    }

    /// A counting filter never reports absent while at least one matching
    /// insert is outstanding, under any interleaving of inserts and removes.
    #[test]
    fn counting_filter_tracks_outstanding_inserts(
        ops in prop::collection::vec((any::<bool>(), 0u64..64), 1..400)
    ) {
        let mut f = CountingBloomFilter::new(512, 0x1234);
        let mut outstanding = std::collections::HashMap::<u64, i64>::new();
        for (insert, key) in ops {
            let k = key * 64;
            if insert {
                f.insert(k);
                *outstanding.entry(k).or_insert(0) += 1;
            } else if outstanding.get(&k).copied().unwrap_or(0) > 0 {
                f.remove(k);
                *outstanding.get_mut(&k).unwrap() -= 1;
            }
            for (&k, &count) in &outstanding {
                if count > 0 {
                    prop_assert!(f.may_contain(k), "false negative for {k}");
                }
            }
        }
    }

    /// The banked structure (L2 side + L1 shadow copy protocol) preserves the
    /// no-false-negative guarantee across copies and writeback inserts.
    #[test]
    fn bank_copy_protocol_has_no_false_negatives(
        dirty_lines in prop::collection::vec(0u64..4096, 1..200),
        local_writebacks in prop::collection::vec(0u64..4096, 0..50),
    ) {
        let cfg = BloomConfig::default();
        let mut l2 = BloomBank::counting(cfg);
        let mut l1 = BloomBank::plain(cfg);
        for &n in &dirty_lines {
            l2.insert(LineAddr::from_aligned(n * 64));
        }
        // The L1 copies each needed filter on demand, then records its own
        // writebacks locally.
        for &n in &dirty_lines {
            let line = LineAddr::from_aligned(n * 64);
            if !l1.has_copy_for(line) {
                l1.install_copy(line, &l2);
            }
        }
        for &n in &local_writebacks {
            l1.insert(LineAddr::from_aligned(n * 64));
        }
        for &n in dirty_lines.iter().chain(&local_writebacks) {
            let line = LineAddr::from_aligned(n * 64);
            if l1.has_copy_for(line) {
                prop_assert!(l1.may_contain(line), "false negative for line {n}");
            }
        }
    }
}
