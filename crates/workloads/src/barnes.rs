//! SPLASH-2 Barnes-Hut N-body simulation.
//!
//! The paper sequentializes the oct-tree build (DeNovo has no mutex support)
//! and measures one iteration. The traffic-relevant structure:
//!
//! * body and tree-cell structs carry many fields that are used only during
//!   tree construction plus compiler padding, and the structs are not padded
//!   to a multiple of the line size — so the force-computation phase drags in
//!   useless words unless Flex sends only the communicated fields (§5.2.1);
//! * the force phase traverses the tree irregularly (random-looking cell
//!   visits), which is why some Fetch/Evict waste remains even under the
//!   fully optimized protocol (§5.3);
//! * the working set is small relative to the L2, so bypassing does not
//!   apply (§5.3).

use crate::builder::{even_share, ArrayLayout};
use crate::generator::{Collect, Sink};
use crate::workload::{BenchmarkKind, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tw_types::{CommRegion, RegionId, RegionInfo, RegionTable, WORD_BYTES};

/// Size of one body record in bytes (deliberately not a multiple of 64).
pub const BODY_BYTES: u64 = 120;
/// Size of one tree-cell record in bytes.
pub const CELL_BYTES: u64 = 200;

/// Configuration for the Barnes-Hut trace generator.
#[derive(Debug, Clone)]
pub struct BarnesConfig {
    /// Number of bodies.
    pub bodies: usize,
    /// Tree cells visited per body during force computation.
    pub cells_per_body: usize,
    /// Direct body–body interactions sampled per body.
    pub leaf_interactions: usize,
    /// PRNG seed for the traversal pattern.
    pub seed: u64,
}

impl BarnesConfig {
    /// The paper's input: 16 K bodies.
    pub fn paper() -> Self {
        BarnesConfig {
            bodies: 16 * 1024,
            cells_per_body: 24,
            leaf_interactions: 4,
            seed: 0xBA51,
        }
    }

    /// Scaled default: 2 K bodies.
    pub fn scaled() -> Self {
        BarnesConfig {
            bodies: 2 * 1024,
            cells_per_body: 20,
            leaf_interactions: 4,
            seed: 0xBA51,
        }
    }

    /// Miniature input for unit tests.
    pub fn tiny() -> Self {
        BarnesConfig {
            bodies: 256,
            cells_per_body: 6,
            leaf_interactions: 2,
            seed: 0xBA51,
        }
    }

    /// Builds the workload for `cores` cores.
    ///
    /// # Errors
    ///
    /// Fails if `bodies` is not divisible by `cores`.
    pub fn build(&self, cores: usize) -> Result<Workload, String> {
        let mut sink = Collect::default();
        self.emit(cores, &mut sink)?;
        Ok(sink.into_workload())
    }

    /// Emits the workload for `cores` cores into `sink`, one core at a time.
    pub(crate) fn emit(&self, cores: usize, sink: &mut dyn Sink) -> Result<(), String> {
        let per_core = even_share(self.bodies, "Barnes-Hut bodies", cores)?;
        let nbody = self.bodies as u64;
        let ncell = (nbody / 2).max(1);

        let bodies = ArrayLayout::new(0x1000_0000, BODY_BYTES, nbody, RegionId(1));
        let cells = ArrayLayout::new(0x2000_0000, CELL_BYTES, ncell, RegionId(2));

        // Body layout (byte offsets): pos 0..24, mass 24..32, vel 32..56,
        // acc 56..80, tree-build bookkeeping and padding 80..120.
        let body_comm = CommRegion {
            object_bytes: BODY_BYTES,
            useful_offsets: (0..8).map(|w| w * WORD_BYTES).collect(), // pos + mass
        };
        // Cell layout: center-of-mass pos 0..24, mass 24..32, child pointers
        // 32..48 used during traversal, remaining pointers and build-only
        // fields 48..200. The force phase reads the first 48 bytes (12
        // words); Flex supplies exactly those.
        let cell_comm = CommRegion {
            object_bytes: CELL_BYTES,
            useful_offsets: (0..12).map(|w| w * WORD_BYTES).collect(),
        };

        let mut regions = RegionTable::new();
        let mut rb = RegionInfo::plain(RegionId(1), "bodies", bodies.base, bodies.bytes());
        rb.comm = Some(body_comm);
        regions.insert(rb);
        let mut rc = RegionInfo::plain(RegionId(2), "tree cells", cells.base, cells.bytes());
        rc.comm = Some(cell_comm);
        regions.insert(rc);
        let input = format!("{} bodies", self.bodies);
        sink.header(BenchmarkKind::Barnes, input, regions, cores);

        // One generator draws every core's traversal in core order, so the
        // trace is deterministic.
        let mut rng = StdRng::seed_from_u64(self.seed);
        for core in 0..cores as u64 {
            let mut t = sink.builder();
            let lo = core * per_core;
            let hi = lo + per_core;

            // Phase 0: sequential tree build on core 0 (paper §4.3).
            if core == 0 {
                for b in 0..nbody {
                    // Read the body position, walk a few cells, update one.
                    t.load_words(bodies.field(b, 0), 6, bodies.region);
                    let depth = 3 + (b % 3) as usize;
                    for _ in 0..depth {
                        let c = rng.gen_range(0..ncell);
                        // Read the child-pointer block of the cell.
                        t.load_words(cells.field(c, 32), 4, cells.region);
                    }
                    let c = rng.gen_range(0..ncell);
                    t.store_words(cells.field(c, 0), 8, cells.region);
                    t.compute(4);
                }
                // Center-of-mass pass over the cells.
                for c in 0..ncell {
                    t.load_words(cells.field(c, 0), 8, cells.region);
                    t.compute(2);
                    t.store_words(cells.field(c, 0), 8, cells.region);
                }
            }
            t.barrier(0);

            // Phase 1: force computation over the core's bodies.
            for b in lo..hi {
                t.load_words(bodies.field(b, 0), 8, bodies.region); // pos + mass
                for _ in 0..self.cells_per_body {
                    let c = rng.gen_range(0..ncell);
                    t.load_words(cells.field(c, 0), 8, cells.region); // COM + mass
                    t.load_words(cells.field(c, 32), 4, cells.region); // children
                    t.compute(3);
                }
                for _ in 0..self.leaf_interactions {
                    let other = rng.gen_range(0..nbody);
                    t.load_words(bodies.field(other, 0), 8, bodies.region);
                    t.compute(3);
                }
                t.store_words(bodies.field(b, 56), 6, bodies.region); // acc
            }
            t.barrier(1);

            // Phase 2: position/velocity update.
            for b in lo..hi {
                t.load_words(bodies.field(b, 32), 6, bodies.region); // vel
                t.load_words(bodies.field(b, 56), 6, bodies.region); // acc
                t.compute(4);
                t.store_words(bodies.field(b, 0), 6, bodies.region); // pos
                t.store_words(bodies.field(b, 32), 6, bodies.region); // vel
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

    #[test]
    fn tiny_workload_is_well_formed() {
        let wl = BarnesConfig::tiny().build(16).unwrap();
        wl.assert_well_formed();
        assert_eq!(wl.barriers(), 3);
        assert_eq!(wl.kind, BenchmarkKind::Barnes);
    }

    #[test]
    fn structs_are_not_line_multiples() {
        assert_ne!(BODY_BYTES % 64, 0, "body structs must straddle lines");
        assert_ne!(CELL_BYTES % 64, 0);
    }

    #[test]
    fn flex_communication_regions_are_smaller_than_objects() {
        let wl = BarnesConfig::tiny().build(16).unwrap();
        let (info, comm) = wl.regions.comm_region(RegionId(1)).unwrap();
        assert_eq!(info.name, "bodies");
        assert!(comm.useful_words() * 4 < BODY_BYTES as usize);
        let (_, cell_comm) = wl.regions.comm_region(RegionId(2)).unwrap();
        assert!(cell_comm.useful_words() * 4 < CELL_BYTES as usize);
    }

    #[test]
    fn no_bypass_regions() {
        let wl = BarnesConfig::tiny().build(16).unwrap();
        assert!(!wl.regions.bypasses_l2(RegionId(1)));
        assert!(!wl.regions.bypasses_l2(RegionId(2)));
    }

    #[test]
    fn tree_build_happens_only_on_core_zero() {
        let wl = BarnesConfig::tiny().build(8).unwrap();
        let ops_before_first_barrier = |core: usize| {
            wl.traces[core]
                .iter()
                .take_while(|op| !matches!(op.view(), tw_types::Record::Barrier { .. }))
                .filter(|op| op.is_mem())
                .count()
        };
        assert!(ops_before_first_barrier(0) > 1000);
        for core in 1..8 {
            assert_eq!(
                ops_before_first_barrier(core),
                0,
                "core {core} should idle during build"
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = BarnesConfig::tiny().build(4).unwrap();
        let b = BarnesConfig::tiny().build(4).unwrap();
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn paper_and_scaled_sizes() {
        assert_eq!(BarnesConfig::paper().bodies, 16 * 1024);
        assert_eq!(BarnesConfig::scaled().bodies, 2 * 1024);
    }
}
