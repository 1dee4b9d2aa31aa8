//! SPLASH-2 LU (contiguous, aligned variant).
//!
//! Blocked dense LU factorization. The paper uses the aligned version so no
//! false sharing remains; what is left for the waste analysis:
//!
//! * the diagonal and perimeter updates touch only a triangular part of each
//!   block, so part of every fetched line goes unused (§5.3, "the waste in LU
//!   is caused by accessing the upper triangular component of the blocks");
//! * blocks are read by many cores and then written by their owner, so MESI
//!   store requests are mostly `Upgrade` requests (no data response) and the
//!   Exclusive-state silent upgrade rarely applies (§5.2.2, "LU Store Control
//!   Traffic");
//! * the working set is small relative to the L2, so there is little
//!   opportunity for bypassing (§5.3).

use crate::builder::{ArrayLayout, TraceBuilder};
use crate::generator::Sink;
use crate::workload::BenchmarkKind;
use tw_types::{RegionId, RegionInfo, RegionTable};

/// Configuration for the LU trace generator.
#[derive(Debug, Clone)]
pub struct LuConfig {
    /// Matrix dimension (paper: 512).
    pub n: usize,
    /// Block dimension (paper: 16).
    pub block: usize,
    /// Compute cycles per updated element.
    pub compute_per_elem: u32,
}

impl LuConfig {
    /// Emits the workload for `cores` cores into `sink`, one core at a
    /// time: each core walks the whole factorization and touches the blocks
    /// it owns, so its stream is what it would be if the cores were built
    /// side by side.
    pub(crate) fn emit(&self, cores: usize, sink: &mut dyn Sink) -> Result<(), String> {
        if self.block == 0 || !self.n.is_multiple_of(self.block) {
            return Err(format!(
                "a {0}x{0} matrix is not a whole number of {1}x{1} blocks",
                self.n, self.block
            ));
        }
        if cores == 0 {
            return Err("LU cannot run on 0 cores".to_string());
        }
        const ELEM_BYTES: u64 = 8; // double precision
        let nb = (self.n / self.block) as u64; // blocks per dimension
        let block_elems = (self.block * self.block) as u64;
        let elems = (self.n * self.n) as u64;

        // Contiguous block layout (the "aligned" variant): block (bi, bj)
        // occupies a contiguous run of block_elems doubles.
        let a = ArrayLayout::new(0x1000_0000, ELEM_BYTES, elems, RegionId(1));
        let mut regions = RegionTable::new();
        regions.insert(RegionInfo::plain(
            RegionId(1),
            "matrix A",
            a.base,
            a.bytes(),
        ));
        let input = format!(
            "{}x{} matrix, {}x{} blocks",
            self.n, self.n, self.block, self.block
        );
        if !sink.header(BenchmarkKind::Lu, input, regions, cores) {
            return Ok(());
        }

        let block_base = |bi: u64, bj: u64| (bi * nb + bj) * block_elems;
        // 2-D cyclic block-to-core assignment, as in SPLASH-2.
        let owner = |bi: u64, bj: u64| ((bi % 4) * 4 + (bj % 4)) as usize % cores;
        let words_per_elem = (ELEM_BYTES / 4) as usize;

        // Emits a read-modify-write over the (possibly triangular) portion of
        // a block. `triangular` skips the lower-left half of the block, which
        // is what creates LU's irregular within-line waste.
        let touch_block =
            |t: &mut TraceBuilder, base: u64, read_only: bool, triangular: bool, compute: u32| {
                for r in 0..self.block as u64 {
                    let start_col = if triangular { r } else { 0 };
                    for c in start_col..self.block as u64 {
                        let idx = base + r * self.block as u64 + c;
                        t.load_words(a.elem(idx), words_per_elem, a.region);
                        t.compute(compute);
                        if !read_only {
                            t.store_words(a.elem(idx), words_per_elem, a.region);
                        }
                    }
                }
            };

        for core in 0..cores {
            let mut t = sink.builder();
            let mut barrier = 0u32;
            for k in 0..nb {
                // Step 1: factor the diagonal block (owner only, triangular
                // access).
                if owner(k, k) == core {
                    touch_block(&mut t, block_base(k, k), false, true, self.compute_per_elem);
                }
                t.barrier(barrier);
                barrier += 1;

                // Step 2: perimeter blocks (row k and column k) divide among
                // owners. Each reads the diagonal block, then updates its
                // perimeter block.
                for j in (k + 1)..nb {
                    if owner(k, j) == core {
                        touch_block(&mut t, block_base(k, k), true, true, 0);
                        touch_block(
                            &mut t,
                            block_base(k, j),
                            false,
                            false,
                            self.compute_per_elem,
                        );
                    }
                }
                for i in (k + 1)..nb {
                    if owner(i, k) == core {
                        touch_block(&mut t, block_base(k, k), true, true, 0);
                        touch_block(
                            &mut t,
                            block_base(i, k),
                            false,
                            false,
                            self.compute_per_elem,
                        );
                    }
                }
                t.barrier(barrier);
                barrier += 1;

                // Step 3: interior update — each owned block reads its row
                // and column perimeter blocks and is then overwritten.
                for i in (k + 1)..nb {
                    for j in (k + 1)..nb {
                        if owner(i, j) == core {
                            touch_block(&mut t, block_base(i, k), true, false, 0);
                            touch_block(&mut t, block_base(k, j), true, false, 0);
                            touch_block(
                                &mut t,
                                block_base(i, j),
                                false,
                                false,
                                self.compute_per_elem,
                            );
                        }
                    }
                }
                t.barrier(barrier);
                barrier += 1;
            }
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

    /// The LU input at `scale`.
    fn input(scale: ScaleProfile) -> LuConfig {
        match Generator::new(BenchmarkKind::Lu, scale) {
            Ok(Generator::Lu(config)) => config,
            other => panic!("{other:?}"),
        }
    }

    /// The Tiny LU workload on `cores` cores.
    fn tiny_workload(cores: usize) -> Workload {
        Generator::Lu(input(ScaleProfile::Tiny))
            .build(cores)
            .unwrap()
    }

    #[test]
    fn tiny_workload_is_well_formed() {
        let wl = tiny_workload(16);
        wl.assert_well_formed();
        // 4 blocks per dimension -> 4 iterations x 3 barriers.
        assert_eq!(wl.barriers(), 12);
        assert_eq!(wl.kind, BenchmarkKind::Lu);
    }

    #[test]
    fn no_bypass_or_flex_annotations() {
        let wl = tiny_workload(16);
        assert_eq!(wl.regions.len(), 1);
        let r = wl.regions.get(RegionId(1)).unwrap();
        assert!(r.comm.is_none());
        assert!(!r.bypass.bypasses_l2());
    }

    #[test]
    fn blocks_are_read_by_non_owners_before_being_written() {
        // A block written in the interior update must have been read by some
        // other core in an earlier step — the property that defeats MESI's
        // E-state silent upgrade for LU.
        let wl = tiny_workload(16);
        let mut readers = std::collections::HashMap::<u64, std::collections::HashSet<usize>>::new();
        let mut writers = std::collections::HashMap::<u64, std::collections::HashSet<usize>>::new();
        for (core, trace) in wl.traces.iter().enumerate() {
            for op in trace {
                if let Record::Mem { kind, addr, .. } = op.view() {
                    let line = addr.byte() / 64;
                    match kind {
                        MemKind::Load => readers.entry(line).or_default().insert(core),
                        MemKind::Store => writers.entry(line).or_default().insert(core),
                    };
                }
            }
        }
        let shared_then_written = writers
            .iter()
            .filter(|(line, _)| readers.get(line).map(|r| r.len() > 1).unwrap_or(false))
            .count();
        assert!(
            shared_then_written > 10,
            "expected many lines read by several cores and written, found {shared_then_written}"
        );
    }

    #[test]
    fn triangular_access_leaves_part_of_the_block_untouched_per_phase() {
        // In the diagonal-factor phase only the upper triangle is accessed.
        let wl = tiny_workload(16);
        let first_phase_ops: usize = wl
            .traces
            .iter()
            .map(|t| {
                t.iter()
                    .take_while(|op| !matches!(op.view(), Record::Barrier { .. }))
                    .filter(|op| op.is_mem())
                    .count()
            })
            .sum();
        // Upper triangle of an 8x8 block = 36 of 64 elements, each two words,
        // loaded and stored: 144 word accesses.
        assert_eq!(first_phase_ops, 36 * 2 * 2);
    }

    #[test]
    fn scaled_matches_design_doc() {
        let cfg = input(ScaleProfile::Scaled);
        assert_eq!((cfg.n, cfg.block), (128, 16));
        assert_eq!(input(ScaleProfile::Paper).n, 512);
    }

    #[test]
    fn non_divisible_blocks_are_rejected() {
        let lu = |n, block| {
            Generator::Lu(LuConfig {
                n,
                block,
                compute_per_elem: 1,
            })
        };
        assert_eq!(
            lu(100, 16).build(4).unwrap_err(),
            "a 100x100 matrix is not a whole number of 16x16 blocks"
        );
        assert!(lu(0, 0).build(4).is_err());
        assert!(lu(32, 16).build(4).is_ok());
    }
}
