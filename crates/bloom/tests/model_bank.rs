//! Model test of the flat [`BloomBank`]: random operation sequences are
//! applied to a counting home bank plus a plain shadow of it, and to a
//! reference built the way the bank used to be — one [`CountingBloomFilter`]
//! or [`BloomFilter`] per filter, each with a private hash, cleared
//! wholesale — and every answer must agree after every step.

mod reference_filter;

use proptest::prelude::*;
use reference_filter::{BloomFilter, CountingBloomFilter};
use std::sync::Arc;
use tw_bloom::{BloomBank, BloomConfig, BloomHashes, H3Hash};
use tw_types::LineAddr;

/// The per-filter bank the flat one replaced.
struct ReferenceBank {
    select: H3Hash,
    counting: Vec<CountingBloomFilter>,
    plain: Vec<BloomFilter>,
    copied: Vec<bool>,
}

impl ReferenceBank {
    fn new(cfg: BloomConfig) -> Self {
        let seed = |i: usize| cfg.seed ^ (i as u64) << 32;
        ReferenceBank {
            select: H3Hash::new(
                cfg.filters_per_bank.trailing_zeros().max(1),
                cfg.seed ^ 0xFEED,
            ),
            counting: (0..cfg.filters_per_bank)
                .map(|i| CountingBloomFilter::new(cfg.entries_per_filter, seed(i)))
                .collect(),
            plain: (0..cfg.filters_per_bank)
                .map(|i| BloomFilter::new(cfg.entries_per_filter, seed(i)))
                .collect(),
            copied: vec![false; cfg.filters_per_bank],
        }
    }

    fn filter(&self, line: LineAddr) -> usize {
        self.select.hash(line.byte()) % self.copied.len()
    }

    fn clear_shadow(&mut self) {
        self.plain.iter_mut().for_each(BloomFilter::clear);
        self.copied.fill(false);
    }

    fn install_copy(&mut self, line: LineAddr) {
        let f = self.filter(line);
        self.plain[f].union_from_counting(&self.counting[f]);
        self.copied[f] = true;
    }
}

fn line(n: u64) -> LineAddr {
    LineAddr::from_aligned(n * 64)
}

/// Drives `ops` through both implementations. An op is `(kind, line, burst)`;
/// bursts of several hundred repeats of one line reach the 255 ceiling and
/// the 0 floor of the counters.
fn check(cfg: BloomConfig, universe: u64, ops: &[(u8, u64, u16)]) {
    let hashes = Arc::new(BloomHashes::new(cfg));
    let mut home = BloomBank::counting_with(hashes.clone());
    let mut shadow = BloomBank::plain_with(hashes);
    let mut model = ReferenceBank::new(cfg);

    for &(kind, n, burst) in ops {
        let l = line(n % universe);
        let f = model.filter(l);
        match kind % 8 {
            0 => {
                home.insert(l);
                model.counting[f].insert(l.byte());
            }
            1 => {
                home.remove(l);
                model.counting[f].remove(l.byte());
            }
            2 => {
                for _ in 0..burst {
                    home.insert(l);
                    model.counting[f].insert(l.byte());
                }
            }
            3 => {
                for _ in 0..burst {
                    home.remove(l);
                    model.counting[f].remove(l.byte());
                }
            }
            4 => {
                shadow.insert(l);
                model.plain[f].insert(l.byte());
            }
            5 => {
                // A no-op on plain banks, which can only be cleared.
                shadow.remove(l);
            }
            6 => {
                shadow.install_copy(l, &home);
                model.install_copy(l);
            }
            _ => {
                shadow.clear();
                model.clear_shadow();
            }
        }
        for probe in (0..universe).map(line) {
            let f = model.filter(probe);
            assert_eq!(home.filter_index(probe), f);
            assert_eq!(
                home.may_contain(probe),
                model.counting[f].may_contain(probe.byte()),
                "home {probe}"
            );
            assert!(home.has_copy_for(probe), "counting banks are authoritative");
            assert_eq!(
                shadow.may_contain(probe),
                model.plain[f].may_contain(probe.byte()),
                "shadow {probe}"
            );
            assert_eq!(shadow.has_copy_for(probe), model.copied[f], "copy {probe}");
        }
        let mean = |occ: Vec<f64>| occ.iter().sum::<f64>() / occ.len() as f64;
        let home_occ = mean(model.counting.iter().map(|c| c.occupancy()).collect());
        let shadow_occ = mean(model.plain.iter().map(|p| p.occupancy()).collect());
        assert!((home.occupancy() - home_occ).abs() < 1e-12);
        assert!((shadow.occupancy() - shadow_occ).abs() < 1e-12);
    }
}

proptest! {
    /// The paper's geometry: 32 filters of 512 entries (8 words a filter).
    #[test]
    fn flat_bank_matches_per_filter_bank_at_paper_geometry(
        ops in prop::collection::vec((any::<u8>(), 0u64..4096, 200u16..600), 1..120)
    ) {
        check(BloomConfig::default(), 96, &ops);
    }

    /// A crowded geometry whose filters are smaller than one word, so
    /// collisions, saturation and partial words are the common case.
    #[test]
    fn flat_bank_matches_per_filter_bank_when_crowded(
        ops in prop::collection::vec((any::<u8>(), 0u64..4096, 200u16..600), 1..200),
        filters in 1usize..6,
        seed in any::<u64>(),
    ) {
        let cfg = BloomConfig { entries_per_filter: 8, filters_per_bank: filters, seed };
        check(cfg, 40, &ops);
    }
}

#[test]
fn counters_saturate_at_255_and_floor_at_0() {
    let mut bank = BloomBank::counting(BloomConfig::default());
    for _ in 0..300 {
        bank.insert(line(3));
    }
    // 255 removals empty a saturated counter; 300 inserts did not make it
    // need 300.
    for _ in 0..254 {
        bank.remove(line(3));
    }
    assert!(bank.may_contain(line(3)));
    bank.remove(line(3));
    assert!(!bank.may_contain(line(3)));
    bank.remove(line(3));
    bank.insert(line(3));
    assert!(
        bank.may_contain(line(3)),
        "the floor is 0, not a wrapped 255"
    );
}
