//! PARSEC fluidanimate (ghost-cell variant, as modified for the paper).
//!
//! Smoothed-particle hydrodynamics over a uniform grid of cells, each of
//! which statically reserves space for 16 particles. The properties the paper
//! builds on:
//!
//! * most cells hold far fewer than 16 particles, so the tail of every cell's
//!   preallocated storage is fetched but never used under line-granularity
//!   transfer (`Evict` waste, §5.2.2 and §5.3);
//! * the grid-rebuild phase is an array-to-array copy that overwrites the
//!   destination, and density/force accumulators are zeroed — `Write` waste
//!   under fetch-on-write (§5.2.2);
//! * density/force accumulators are *read then overwritten* by the same core,
//!   the first kind of bypass region (§3.1, §5.2.1);
//! * the stencil walks the grid in X-Y-Z order without blocking, giving the
//!   grid highly variable L2 reuse distance (§5.3).

use crate::builder::ArrayLayout;
use crate::generator::{Collect, Sink};
use crate::workload::{BenchmarkKind, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tw_types::{BypassKind, RegionId, RegionInfo, RegionTable};

/// Bytes reserved per particle slot (position, velocity, density, force).
pub const SLOT_BYTES: u64 = 40;
/// Particle slots statically reserved per cell.
pub const SLOTS_PER_CELL: u64 = 16;
/// Bytes per cell (16 slots plus a count word, padded).
pub const CELL_BYTES: u64 = SLOT_BYTES * SLOTS_PER_CELL + 64;

/// Configuration for the fluidanimate trace generator.
#[derive(Debug, Clone)]
pub struct FluidanimateConfig {
    /// Grid dimension (cells per axis).
    pub grid: usize,
    /// Mean number of occupied particle slots per cell (of 16).
    pub mean_particles: usize,
    /// Number of frames to simulate.
    pub frames: usize,
    /// PRNG seed for cell occupancy.
    pub seed: u64,
}

impl FluidanimateConfig {
    /// The paper's input (simmedium): roughly a 30×34×30 grid.
    pub fn paper() -> Self {
        FluidanimateConfig {
            grid: 30,
            mean_particles: 6,
            frames: 1,
            seed: 0xF1D0,
        }
    }

    /// Scaled default: 10×10×10 grid, one frame.
    pub fn scaled() -> Self {
        FluidanimateConfig {
            grid: 10,
            mean_particles: 6,
            frames: 1,
            seed: 0xF1D0,
        }
    }

    /// Miniature input for unit tests.
    pub fn tiny() -> Self {
        FluidanimateConfig {
            grid: 4,
            mean_particles: 4,
            frames: 1,
            seed: 0xF1D0,
        }
    }

    /// Builds the workload for `cores` cores.
    pub fn build(&self, cores: usize) -> Workload {
        let mut sink = Collect::default();
        self.emit(cores, &mut sink);
        sink.into_workload()
    }

    /// Emits the workload for `cores` cores into `sink`, one core at a
    /// time: each core walks only its own slab of cells, in the order the
    /// whole grid is walked, so its stream is what it would be if the cores
    /// were built side by side.
    pub(crate) fn emit(&self, cores: usize, sink: &mut dyn Sink) {
        assert!(cores > 0);
        let g = self.grid as u64;
        let ncell = g * g * g;

        // Double-buffered grids: `cells` is the working grid (accumulators),
        // `cells2` holds last frame's particles and is read once per rebuild.
        let cells = ArrayLayout::new(0x1000_0000, CELL_BYTES, ncell, RegionId(1));
        let cells2 = ArrayLayout::new(0x4000_0000, CELL_BYTES, ncell, RegionId(2));

        let mut regions = RegionTable::new();
        let mut r1 = RegionInfo::plain(
            RegionId(1),
            "grid cells (accumulators)",
            cells.base,
            cells.bytes(),
        );
        r1.bypass = BypassKind::ReadThenOverwritten;
        regions.insert(r1);
        let mut r2 = RegionInfo::plain(
            RegionId(2),
            "previous-frame cells",
            cells2.base,
            cells2.bytes(),
        );
        r2.bypass = BypassKind::StreamingOncePerPhase;
        regions.insert(r2);
        let input = format!(
            "{0}x{0}x{0} grid, ~{1} particles/cell, {2} frame(s)",
            self.grid, self.mean_particles, self.frames
        );
        sink.header(BenchmarkKind::Fluidanimate, input, regions, cores);

        let mut rng = StdRng::seed_from_u64(self.seed);
        // Occupancy of each cell: 1..=min(2*mean, 16) particles.
        let occupancy: Vec<u64> = (0..ncell)
            .map(|_| rng.gen_range(1..=(2 * self.mean_particles as u64).min(SLOTS_PER_CELL)))
            .collect();

        // Cells are partitioned among cores by contiguous index range, which
        // corresponds to slabs along the Z axis (X-Y-Z traversal order):
        // core `k` owns the cells `c` with `c * cores / ncell == k`.
        let cell_of = |x: u64, y: u64, z: u64| (z * g + y) * g + x;
        let first_cell = |core: u64| (core * ncell).div_ceil(cores as u64);
        // Byte offset of a field of one particle slot within a cell.
        let slot_field = |slot: u64, field_word: u64| slot * SLOT_BYTES + field_word * 4;

        for core in 0..cores as u64 {
            let mut t = sink.builder();
            let mine = first_cell(core)..first_cell(core + 1);
            let mut barrier = 0u32;
            for _frame in 0..self.frames {
                // Phase 0: rebuild the grid — copy particles from cells2 into
                // cells (overwriting) and clear the accumulators.
                for c in mine.clone() {
                    for s in 0..occupancy[c as usize] {
                        t.load_words(cells2.field(c, slot_field(s, 0)), 6, cells2.region); // pos+vel
                        t.store_words(cells.field(c, slot_field(s, 0)), 6, cells.region);
                    }
                    // Zero the density and force accumulators of every slot
                    // that will be used this frame.
                    for s in 0..occupancy[c as usize] {
                        t.store(cells.field(c, slot_field(s, 6)), cells.region); // density
                        t.store_words(cells.field(c, slot_field(s, 7)), 3, cells.region);
                        // force
                    }
                    t.compute(2);
                }
                t.barrier(barrier);
                barrier += 1;

                // Phases 1 and 2: density then force computation, each a
                // 7-point stencil over neighbouring cells with
                // read-modify-write of the cell's own accumulators.
                for (accum_word, accum_len) in [(6u64, 1usize), (7, 3)] {
                    for c in mine.clone() {
                        let (x, y, z) = (c % g, c / g % g, c / (g * g));
                        let own = occupancy[c as usize];
                        // Read own particle positions.
                        for s in 0..own {
                            t.load_words(cells.field(c, slot_field(s, 0)), 3, cells.region);
                        }
                        // Read a sample of particles from each face neighbour.
                        let neighbours = [
                            (x.wrapping_sub(1), y, z),
                            (x + 1, y, z),
                            (x, y.wrapping_sub(1), z),
                            (x, y + 1, z),
                            (x, y, z.wrapping_sub(1)),
                            (x, y, z + 1),
                        ];
                        for (nx, ny, nz) in neighbours {
                            if nx < g && ny < g && nz < g {
                                let nc = cell_of(nx, ny, nz);
                                let sample = occupancy[nc as usize].min(2);
                                for s in 0..sample {
                                    t.load_words(
                                        cells.field(nc, slot_field(s, 0)),
                                        3,
                                        cells.region,
                                    );
                                }
                            }
                        }
                        // Read-modify-write the accumulators of own particles.
                        for s in 0..own {
                            t.load_words(
                                cells.field(c, slot_field(s, accum_word)),
                                accum_len,
                                cells.region,
                            );
                            t.compute(4);
                            t.store_words(
                                cells.field(c, slot_field(s, accum_word)),
                                accum_len,
                                cells.region,
                            );
                        }
                    }
                    t.barrier(barrier);
                    barrier += 1;
                }

                // Phase 3: advance particles — read force, update pos/vel in
                // cells2 (which becomes next frame's source).
                for c in mine.clone() {
                    for s in 0..occupancy[c as usize] {
                        t.load_words(cells.field(c, slot_field(s, 0)), 6, cells.region);
                        t.load_words(cells.field(c, slot_field(s, 7)), 3, cells.region);
                        t.compute(4);
                        t.store_words(cells2.field(c, slot_field(s, 0)), 6, cells2.region);
                    }
                }
                t.barrier(barrier);
                barrier += 1;
            }
            sink.stream(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workload_is_well_formed() {
        let wl = FluidanimateConfig::tiny().build(16);
        wl.assert_well_formed();
        assert_eq!(wl.barriers(), 4); // rebuild, density, force, advance
        assert_eq!(wl.kind, BenchmarkKind::Fluidanimate);
    }

    #[test]
    fn cells_reserve_sixteen_slots_but_use_fewer() {
        // The generator must never touch more slots than the occupancy it drew,
        // which is capped well below 16 for the default mean.
        let cfg = FluidanimateConfig::tiny();
        assert!(2 * cfg.mean_particles < SLOTS_PER_CELL as usize);
        assert_eq!(CELL_BYTES, 704);
    }

    #[test]
    fn accumulator_region_is_read_then_overwritten_bypass() {
        let wl = FluidanimateConfig::tiny().build(16);
        assert_eq!(
            wl.regions.get(RegionId(1)).unwrap().bypass,
            BypassKind::ReadThenOverwritten
        );
        assert_eq!(
            wl.regions.get(RegionId(2)).unwrap().bypass,
            BypassKind::StreamingOncePerPhase
        );
    }

    #[test]
    fn multiple_frames_multiply_barriers() {
        let wl = FluidanimateConfig {
            frames: 2,
            ..FluidanimateConfig::tiny()
        }
        .build(8);
        assert_eq!(wl.barriers(), 8);
        wl.assert_well_formed();
    }

    #[test]
    fn neighbouring_slabs_share_boundary_cells() {
        // Cells owned by one core are read by the neighbouring core's stencil,
        // which is what creates the communication fluidanimate needs.
        let wl = FluidanimateConfig::tiny().build(4);
        let mut writers = std::collections::HashMap::<u64, usize>::new();
        let mut cross_reads = 0usize;
        for (core, trace) in wl.traces.iter().enumerate() {
            for op in trace {
                if let tw_types::Record::Mem {
                    kind: tw_types::MemKind::Store,
                    addr,
                    ..
                } = op.view()
                {
                    writers.entry(addr.byte() / CELL_BYTES).or_insert(core);
                }
            }
        }
        for (core, trace) in wl.traces.iter().enumerate() {
            for op in trace {
                if let tw_types::Record::Mem {
                    kind: tw_types::MemKind::Load,
                    addr,
                    ..
                } = op.view()
                {
                    if let Some(&w) = writers.get(&(addr.byte() / CELL_BYTES)) {
                        if w != core {
                            cross_reads += 1;
                        }
                    }
                }
            }
        }
        assert!(
            cross_reads > 10,
            "expected cross-core stencil reads, got {cross_reads}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = FluidanimateConfig::tiny().build(4);
        let b = FluidanimateConfig::tiny().build(4);
        assert_eq!(a.traces, b.traces);
    }
}
