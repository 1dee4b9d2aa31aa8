//! SPLASH-2 radix sort.
//!
//! One counting-sort pass over 32-bit keys with a 1024-entry radix. The
//! properties the paper's analysis depends on:
//!
//! * the permutation phase writes the destination array at 1024 scattered
//!   bucket cursors — more lines than the L1 can hold, so partially written
//!   lines are evicted and refetched (`Evict` waste under fetch-on-write,
//!   §5.2.2) and DeNovo's 32-entry write-combining table cannot batch all the
//!   registrations (§5.2.2, "Increase in DeNovo Store Control Traffic");
//! * the source array is read exactly once per phase (streaming bypass
//!   region) and the destination array is written before being read (MESI
//!   fetch-on-write `Write` waste);
//! * the destination array becomes the input of the next phase (§5.2.1).

use crate::builder::{even_share, ArrayLayout};
use crate::generator::Sink;
use crate::workload::BenchmarkKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tw_types::{BypassKind, RegionId, RegionInfo, RegionTable};

/// PRNG seed for key values.
const SEED: u64 = 0xADD5;

/// Configuration for the radix-sort trace generator.
#[derive(Debug, Clone)]
pub struct RadixConfig {
    /// Number of 4-byte keys.
    pub keys: usize,
    /// Radix (number of buckets; paper: 1024).
    pub radix: usize,
}

impl RadixConfig {
    /// Emits the workload for `cores` cores into `sink`, one core at a time.
    pub(crate) fn emit(&self, cores: usize, sink: &mut dyn Sink) -> Result<(), String> {
        let per_core = even_share(self.keys, "radix keys", cores)?;
        if self.radix == 0 {
            return Err("radix sort needs at least one bucket".to_string());
        }
        const KEY_BYTES: u64 = 4;
        let n = self.keys as u64;

        let src = ArrayLayout::new(0x1000_0000, KEY_BYTES, n, RegionId(1));
        let dst = ArrayLayout::new(0x2000_0000, KEY_BYTES, n, RegionId(2));
        // Per-core histograms plus the global prefix-sum array.
        let hist = ArrayLayout::new(
            0x3000_0000,
            KEY_BYTES,
            (self.radix * (cores + 1)) as u64,
            RegionId(3),
        );

        let mut regions = RegionTable::new();
        let mut rs = RegionInfo::plain(RegionId(1), "source keys", src.base, src.bytes());
        rs.bypass = BypassKind::StreamingOncePerPhase;
        regions.insert(rs);
        let mut rd = RegionInfo::plain(RegionId(2), "destination keys", dst.base, dst.bytes());
        rd.bypass = BypassKind::StreamingOncePerPhase;
        regions.insert(rd);
        regions.insert(RegionInfo::plain(
            RegionId(3),
            "histograms",
            hist.base,
            hist.bytes(),
        ));
        let input = format!("{} keys, {} radix", self.keys, self.radix);
        if !sink.header(BenchmarkKind::Radix, input, regions, cores) {
            return Ok(());
        }

        let mut rng = StdRng::seed_from_u64(SEED);
        // Pre-draw the bucket of every key so that the histogram and
        // permutation phases agree.
        let buckets: Vec<u32> = (0..n)
            .map(|_| rng.gen_range(0..self.radix as u32))
            .collect();

        for core in 0..cores as u64 {
            let mut t = sink.builder();
            let lo = core * per_core;
            let hi = lo + per_core;
            let my_hist = core * self.radix as u64;

            // Phase 0: local histogram over the core's chunk of the source.
            for k in lo..hi {
                t.load(src.elem(k), src.region);
                let b = buckets[k as usize] as u64;
                t.load(hist.elem(my_hist + b), hist.region);
                t.compute(1);
                t.store(hist.elem(my_hist + b), hist.region);
            }
            t.barrier(0);

            // Phase 1: prefix sum over the histograms. Each core sums its
            // slice of the radix across all per-core histograms.
            let radix_per_core = (self.radix / cores.min(self.radix)) as u64;
            let rlo = core * radix_per_core;
            let rhi = if core as usize == cores - 1 {
                self.radix as u64
            } else {
                rlo + radix_per_core
            };
            for b in rlo..rhi {
                for c in 0..cores as u64 {
                    t.load(hist.elem(c * self.radix as u64 + b), hist.region);
                }
                t.compute(2);
                t.store(hist.elem(cores as u64 * self.radix as u64 + b), hist.region);
            }
            t.barrier(1);

            // Phase 2: permutation — read the source chunk in order, write the
            // destination at the key's bucket cursor (scattered writes).
            let mut cursors: Vec<u64> = (0..self.radix as u64)
                .map(|b| (b * n) / self.radix as u64 + lo / self.radix as u64)
                .collect();
            for k in lo..hi {
                t.load(src.elem(k), src.region);
                let b = buckets[k as usize] as usize;
                // Read the global cursor for the bucket, then write the key.
                t.load(
                    hist.elem(cores as u64 * self.radix as u64 + b as u64),
                    hist.region,
                );
                let pos = cursors[b].min(n - 1);
                cursors[b] += 1;
                t.store(dst.elem(pos), dst.region);
                t.compute(1);
            }
            t.barrier(2);

            // Phase 3: the next pass reads the destination array (this is what
            // gives the destination its later reuse).
            for k in lo..hi {
                t.load(dst.elem(k), dst.region);
                t.compute(1);
            }
            t.barrier(3);

            sink.stream(t);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Generator, ScaleProfile, Workload};
    use tw_types::{MemKind, Record};

    /// The radix input at `scale`.
    fn input(scale: ScaleProfile) -> RadixConfig {
        match Generator::new(BenchmarkKind::Radix, scale) {
            Ok(Generator::Radix(config)) => config,
            other => panic!("{other:?}"),
        }
    }

    /// The Tiny radix workload on `cores` cores.
    fn tiny_workload(cores: usize) -> Workload {
        Generator::Radix(input(ScaleProfile::Tiny))
            .build(cores)
            .unwrap()
    }

    #[test]
    fn tiny_workload_is_well_formed() {
        let wl = tiny_workload(16);
        wl.assert_well_formed();
        assert_eq!(wl.barriers(), 4);
        assert_eq!(wl.kind, BenchmarkKind::Radix);
    }

    #[test]
    fn permutation_writes_touch_many_distinct_lines() {
        // The scattered destination writes must span (far) more lines than an
        // L1 can hold partially-written — the source of radix's Evict waste.
        let wl = tiny_workload(16);
        let dst_base = 0x2000_0000u64;
        let mut lines = std::collections::HashSet::new();
        for trace in &wl.traces {
            let mut barriers = 0;
            for op in trace {
                match op.view() {
                    Record::Barrier { .. } => barriers += 1,
                    Record::Mem {
                        kind: MemKind::Store,
                        addr,
                        ..
                    } if barriers == 2 && addr.byte() >= dst_base => {
                        lines.insert(addr.byte() / 64);
                    }
                    _ => {}
                }
            }
        }
        assert!(
            lines.len() > 200,
            "only {} destination lines written",
            lines.len()
        );
    }

    #[test]
    fn source_and_destination_are_streaming_bypass_regions() {
        let wl = tiny_workload(16);
        assert_eq!(
            wl.regions.get(RegionId(1)).unwrap().bypass,
            BypassKind::StreamingOncePerPhase
        );
        assert_eq!(
            wl.regions.get(RegionId(2)).unwrap().bypass,
            BypassKind::StreamingOncePerPhase
        );
        assert!(!wl.regions.bypasses_l2(RegionId(3)));
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let a = tiny_workload(4);
        let b = tiny_workload(4);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn paper_and_scaled_sizes() {
        assert_eq!(input(ScaleProfile::Paper).keys, 4 * 1024 * 1024);
        assert_eq!(input(ScaleProfile::Scaled).keys, 256 * 1024);
        assert_eq!(input(ScaleProfile::Scaled).radix, 1024);
    }

    #[test]
    fn a_radix_of_zero_is_an_error() {
        let radix = Generator::Radix(RadixConfig { keys: 16, radix: 0 });
        assert_eq!(
            radix.build(4).unwrap_err(),
            "radix sort needs at least one bucket"
        );
    }

    #[test]
    #[should_panic(expected = "1000 radix keys do not divide evenly among 16 cores")]
    fn uneven_key_split_is_rejected() {
        Generator::Radix(RadixConfig {
            keys: 1000,
            radix: 16,
        })
        .build(16)
        .unwrap();
    }
}
