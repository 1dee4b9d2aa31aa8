//! SPLASH-2 FFT.
//!
//! The six-step FFT alternates local butterfly phases with an all-to-all
//! matrix transpose. The traffic-relevant properties the paper leans on:
//!
//! * the butterfly phases *read and then overwrite the same addresses* of the
//!   working array — the first kind of L2-bypass region (§3.1);
//! * the transpose reads its source array exactly once per phase and writes a
//!   destination array that is overwritten before being read — under MESI's
//!   fetch-on-write policy that fetch is pure `Write` waste (§5.2.2), and the
//!   source is a read-once streaming region (the second bypass kind);
//! * the destination array is then used as the working array of the next
//!   butterfly phase (§5.2.1, "secondary benefit" discussion).

use crate::builder::{even_share, ArrayLayout};
use crate::generator::Sink;
use crate::workload::BenchmarkKind;
use tw_types::{BypassKind, RegionId, RegionInfo, RegionTable};

/// Configuration for the FFT trace generator.
#[derive(Debug, Clone)]
pub struct FftConfig {
    /// Number of complex points (each 16 bytes: two doubles).
    pub points: usize,
    /// Compute cycles modelled per butterfly update.
    pub compute_per_point: u32,
}

impl FftConfig {
    /// Emits the workload for `cores` cores into `sink`, one core at a time.
    pub(crate) fn emit(&self, cores: usize, sink: &mut dyn Sink) -> Result<(), String> {
        let per_core = even_share(self.points, "FFT points", cores)?;
        const POINT_BYTES: u64 = 16;
        let n = self.points as u64;

        let x = ArrayLayout::new(0x1000_0000, POINT_BYTES, n, RegionId(1));
        let trans = ArrayLayout::new(0x2000_0000, POINT_BYTES, n, RegionId(2));
        let roots = ArrayLayout::new(0x3000_0000, POINT_BYTES, 1024.min(n), RegionId(3));

        let mut regions = RegionTable::new();
        let mut rx = RegionInfo::plain(RegionId(1), "x (working array)", x.base, x.bytes());
        // Butterfly phases read then overwrite x in place.
        rx.bypass = BypassKind::ReadThenOverwritten;
        regions.insert(rx);
        let mut rt = RegionInfo::plain(
            RegionId(2),
            "trans (transpose dest)",
            trans.base,
            trans.bytes(),
        );
        rt.bypass = BypassKind::ReadThenOverwritten;
        regions.insert(rt);
        let mut rr = RegionInfo::plain(RegionId(3), "roots of unity", roots.base, roots.bytes());
        rr.written_in_parallel_phases = false;
        regions.insert(rr);
        let input = format!("{} points", self.points);
        if !sink.header(BenchmarkKind::Fft, input, regions, cores) {
            return Ok(());
        }

        let words_per_point = x.words_per_elem();
        // The transpose treats the data as a sqrt(n) x sqrt(n) matrix of
        // points; each core transposes a band of rows into a band of columns.
        let dim = (n as f64).sqrt() as u64;

        for core in 0..cores as u64 {
            let mut t = sink.builder();
            let lo = core * per_core;
            let hi = lo + per_core;

            // Phase 0: butterfly over the core's chunk of x (read-modify-write).
            for p in lo..hi {
                t.load_words(x.elem(p), words_per_point, x.region);
                // A handful of root coefficients are re-read constantly.
                t.load_words(roots.elem(p % roots.elems), 2, roots.region);
                t.compute(self.compute_per_point);
                t.store_words(x.elem(p), words_per_point, x.region);
            }
            t.barrier(0);

            // Phase 1: transpose x -> trans. Reads of x walk down columns
            // (stride = dim points), writes of trans are sequential: the
            // destination is written without being read first.
            for p in lo..hi {
                let row = p / dim;
                let col = p % dim;
                let src = col * dim + row; // column-order read of x
                if src < n {
                    t.load_words(x.elem(src), words_per_point, x.region);
                }
                t.compute(1);
                t.store_words(trans.elem(p), words_per_point, trans.region);
            }
            t.barrier(1);

            // Phase 2: butterfly over the core's chunk of trans.
            for p in lo..hi {
                t.load_words(trans.elem(p), words_per_point, trans.region);
                t.load_words(roots.elem(p % roots.elems), 2, roots.region);
                t.compute(self.compute_per_point);
                t.store_words(trans.elem(p), words_per_point, trans.region);
            }
            t.barrier(2);

            sink.stream(t);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Generator, ScaleProfile, Workload};
    use tw_types::Record;

    /// The FFT input at `scale`.
    fn input(scale: ScaleProfile) -> FftConfig {
        match Generator::new(BenchmarkKind::Fft, scale) {
            Ok(Generator::Fft(config)) => config,
            other => panic!("{other:?}"),
        }
    }

    /// The Tiny FFT workload on `cores` cores.
    fn tiny_workload(cores: usize) -> Workload {
        Generator::Fft(input(ScaleProfile::Tiny))
            .build(cores)
            .unwrap()
    }

    #[test]
    fn tiny_workload_is_well_formed() {
        let wl = tiny_workload(16);
        wl.assert_well_formed();
        assert_eq!(wl.cores(), 16);
        assert_eq!(wl.barriers(), 3);
        assert_eq!(wl.kind, BenchmarkKind::Fft);
    }

    #[test]
    fn transpose_destination_is_written_before_read() {
        let wl = tiny_workload(4);
        // In phase 1 the first touch of any trans element must be a store.
        let trans_base = 0x2000_0000u64;
        for trace in &wl.traces {
            let mut seen_store = std::collections::HashSet::new();
            let mut barrier_count = 0;
            for op in trace {
                match op.view() {
                    Record::Barrier { .. } => barrier_count += 1,
                    Record::Mem { kind, addr, .. }
                        if barrier_count == 1
                            && addr.byte() >= trans_base
                            && addr.byte() < trans_base + (1 << 20) =>
                    {
                        match kind {
                            tw_types::MemKind::Store => {
                                seen_store.insert(addr.byte());
                            }
                            tw_types::MemKind::Load => {
                                panic!("trans read during the transpose phase");
                            }
                        }
                    }
                    _ => {}
                }
            }
            assert!(!seen_store.is_empty());
        }
    }

    #[test]
    fn working_array_is_marked_read_then_overwritten() {
        let wl = tiny_workload(16);
        assert_eq!(
            wl.regions.get(RegionId(1)).unwrap().bypass,
            BypassKind::ReadThenOverwritten
        );
        assert!(wl.regions.bypasses_l2(RegionId(2)));
        assert!(!wl.regions.bypasses_l2(RegionId(3)));
    }

    #[test]
    fn every_access_is_inside_a_region() {
        tiny_workload(16).assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "1000 FFT points do not divide evenly among 16 cores")]
    fn uneven_core_split_is_rejected() {
        Generator::Fft(FftConfig {
            points: 1000,
            compute_per_point: 1,
        })
        .build(16)
        .unwrap();
    }

    #[test]
    fn paper_and_scaled_sizes() {
        assert_eq!(input(ScaleProfile::Paper).points, 262_144);
        assert_eq!(input(ScaleProfile::Scaled).points, 32_768);
        let all_loads_stores = tiny_workload(16).total_mem_ops();
        assert!(all_loads_stores > 10_000);
    }

    #[test]
    fn roots_region_is_read_only_in_parallel_phases() {
        let wl = tiny_workload(16);
        assert!(
            !wl.regions
                .get(RegionId(3))
                .unwrap()
                .written_in_parallel_phases
        );
    }
}
