//! Parallel SAH kD-tree construction.
//!
//! The builder maintains two large arrays (paper §5.2.1): a *triangle* array
//! holding the scene mesh, accessed randomly, and an *edge* array holding the
//! axis-aligned bounding-box edge events, accessed in streaming order every
//! level. Properties the paper relies on:
//!
//! * both structs mix fields that the construction phase needs with fields it
//!   does not, so Flex trims the responses (§5.2.1);
//! * the edge array is much larger than the L2 and is read once per level —
//!   the second kind of bypass region; bypassing it also leaves L2 room for
//!   the randomly accessed triangle array (§5.2.1, "secondary benefit");
//! * the edge communication region spans more than one packet's worth of
//!   data, which is what produces `Excess` waste at the memory controller
//!   when Flex is extended to memory (§5.3, "Memory Fetch Waste").

use crate::builder::{even_share, ArrayLayout};
use crate::generator::{Collect, Sink};
use crate::workload::{BenchmarkKind, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tw_types::{BypassKind, CommRegion, RegionId, RegionInfo, RegionTable, WORD_BYTES};

/// Bytes per triangle record (vertices + id + flags).
pub const TRIANGLE_BYTES: u64 = 48;
/// Bytes per per-triangle edge-event record (six edges of 16 bytes).
pub const EDGE_BYTES: u64 = 96;

/// Configuration for the kD-tree trace generator.
#[derive(Debug, Clone)]
pub struct KdTreeConfig {
    /// Number of triangles in the mesh.
    pub triangles: usize,
    /// Tree levels built (the paper measures three iterations).
    pub levels: usize,
    /// Fraction (per mille) of triangles re-examined randomly per level.
    pub random_touch_per_mille: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl KdTreeConfig {
    /// The paper's input: the Stanford bunny (~69 K triangles).
    pub fn paper() -> Self {
        KdTreeConfig {
            triangles: 69 * 1024,
            levels: 3,
            random_touch_per_mille: 250,
            seed: 0x5EED,
        }
    }

    /// Scaled default: 16 K triangles, 3 levels.
    pub fn scaled() -> Self {
        KdTreeConfig {
            triangles: 16 * 1024,
            levels: 3,
            random_touch_per_mille: 250,
            seed: 0x5EED,
        }
    }

    /// Miniature input for unit tests.
    pub fn tiny() -> Self {
        KdTreeConfig {
            triangles: 1024,
            levels: 2,
            random_touch_per_mille: 250,
            seed: 0x5EED,
        }
    }

    /// Builds the workload for `cores` cores.
    ///
    /// # Errors
    ///
    /// Fails if `triangles` is not divisible by `cores`.
    pub fn build(&self, cores: usize) -> Result<Workload, String> {
        let mut sink = Collect::default();
        self.emit(cores, &mut sink)?;
        Ok(sink.into_workload())
    }

    /// Emits the workload for `cores` cores into `sink`, one core at a time.
    pub(crate) fn emit(&self, cores: usize, sink: &mut dyn Sink) -> Result<(), String> {
        let per_core = even_share(self.triangles, "kD-tree triangles", cores)?;
        let n = self.triangles as u64;

        let triangles = ArrayLayout::new(0x1000_0000, TRIANGLE_BYTES, n, RegionId(1));
        let edges = ArrayLayout::new(0x2000_0000, EDGE_BYTES, n, RegionId(2));
        // Split decisions / node records and the triangle classification array.
        let nodes = ArrayLayout::new(0x3000_0000, 64, 4 * n.max(64), RegionId(3));

        // Triangle: three vertex indices + bbox min (12 B) + bbox max (12 B) +
        // id/flags. The construction phase needs the bbox and id: 7 words.
        let tri_comm = CommRegion {
            object_bytes: TRIANGLE_BYTES,
            useful_offsets: (0..7).map(|w| w * WORD_BYTES).collect(),
        };
        // Edge record: six (value, index, flags, pad) events of 16 bytes; the
        // sweep needs value+index of each: 12 useful words spread over 96 B,
        // i.e. more than one 64-byte packet's worth of span.
        let edge_comm = CommRegion {
            object_bytes: EDGE_BYTES,
            useful_offsets: (0..6).flat_map(|e| [e * 16, e * 16 + 4]).collect(),
        };

        let mut regions = RegionTable::new();
        let mut rt = RegionInfo::plain(RegionId(1), "triangles", triangles.base, triangles.bytes());
        rt.comm = Some(tri_comm);
        regions.insert(rt);
        let mut re = RegionInfo::plain(RegionId(2), "edge events", edges.base, edges.bytes());
        re.comm = Some(edge_comm);
        re.bypass = BypassKind::StreamingOncePerPhase;
        regions.insert(re);
        regions.insert(RegionInfo::plain(
            RegionId(3),
            "nodes & classification",
            nodes.base,
            nodes.bytes(),
        ));
        let input = format!("{} triangles, {} levels", self.triangles, self.levels);
        sink.header(BenchmarkKind::KdTree, input, regions, cores);

        let mut rng = StdRng::seed_from_u64(self.seed);
        for core in 0..cores as u64 {
            let mut t = sink.builder();
            let lo = core * per_core;
            let hi = lo + per_core;

            for level in 0..self.levels as u32 {
                // Sweep the core's slice of the edge array in streaming order,
                // reading the useful fields of each event.
                for e in lo..hi {
                    for ev in 0..6u64 {
                        t.load(edges.field(e, ev * 16), edges.region); // value
                        t.load(edges.field(e, ev * 16 + 4), edges.region); // index
                    }
                    t.compute(3);
                }
                // Randomly re-examine a subset of triangles (SAH evaluation /
                // classification against the chosen split plane).
                let touches = per_core * self.random_touch_per_mille as u64 / 1000;
                for _ in 0..touches {
                    let tri = rng.gen_range(0..n);
                    t.load_words(triangles.field(tri, 0), 7, triangles.region);
                    t.compute(2);
                    // Write the triangle's classification for this level.
                    let slot = (tri * self.levels as u64 + level as u64) % nodes.elems;
                    t.store(nodes.elem(slot), nodes.region);
                }
                // Emit the node record for the split this core contributed to.
                t.store_words(
                    nodes.elem((core + level as u64 * cores as u64) % nodes.elems),
                    8,
                    nodes.region,
                );
                t.barrier(level);
            }

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
        let wl = KdTreeConfig::tiny().build(16).unwrap();
        wl.assert_well_formed();
        assert_eq!(wl.barriers(), 2);
        assert_eq!(wl.kind, BenchmarkKind::KdTree);
    }

    #[test]
    fn edge_comm_region_spans_more_than_one_packet() {
        // 12 useful words spread over 96 bytes: the span exceeds the 64-byte
        // packet payload, which is what produces Excess waste under L2 Flex.
        let wl = KdTreeConfig::tiny().build(16).unwrap();
        let (_, comm) = wl.regions.comm_region(RegionId(2)).unwrap();
        assert_eq!(comm.useful_words(), 12);
        assert!(comm.object_bytes > 64);
        let span =
            comm.useful_offsets.iter().max().unwrap() - comm.useful_offsets.iter().min().unwrap();
        assert!(span > 64);
    }

    #[test]
    fn edges_are_streamed_and_bypassed_triangles_are_not() {
        let wl = KdTreeConfig::tiny().build(16).unwrap();
        assert!(wl.regions.bypasses_l2(RegionId(2)));
        assert!(!wl.regions.bypasses_l2(RegionId(1)));
        assert!(wl.regions.comm_region(RegionId(1)).is_some());
    }

    #[test]
    fn edge_sweep_is_streaming_in_order() {
        let wl = KdTreeConfig::tiny().build(4).unwrap();
        // Within the first level, the addresses of edge loads must be
        // non-decreasing for each core (streaming order).
        for trace in &wl.traces {
            let mut last = 0u64;
            for op in trace {
                match op.view() {
                    tw_types::Record::Barrier { .. } => break,
                    tw_types::Record::Mem { addr, .. }
                        if (0x2000_0000..0x3000_0000).contains(&addr.byte()) =>
                    {
                        assert!(addr.byte() >= last, "edge sweep went backwards");
                        last = addr.byte();
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = KdTreeConfig::tiny().build(4).unwrap();
        let b = KdTreeConfig::tiny().build(4).unwrap();
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn paper_and_scaled_sizes() {
        assert_eq!(KdTreeConfig::paper().triangles, 69 * 1024);
        assert_eq!(KdTreeConfig::scaled().triangles, 16 * 1024);
        assert_eq!(KdTreeConfig::scaled().levels, 3);
    }
}
