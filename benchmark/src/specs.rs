//! The inputs: experiment specs, the seeded `serve_mix` schedule, and the
//! golden digests the outputs are checked against.
//!
//! The paper's inputs are fixed, so `cold_matrix`, `net_models` and
//! `warm_matrix` do not depend on the seed. The seed drives the `serve_mix`
//! schedule (which L2 size each novel request sweeps) and the address
//! streams of the per-layer substrate drivers.

use denovo_waste::{ExperimentSpec, ScaleProfile, SystemVariant};
use tw_types::{Digest, NetworkModelKind, ProtocolKind};
use tw_workloads::BenchmarkKind;

/// One protocol per executor family: invalidate (MESI), the fully
/// optimised DeNovo point, and write-update (Dragon).
pub const FAMILIES: [(&str, ProtocolKind); 3] = [
    ("mesi", ProtocolKind::Mesi),
    ("denovo", ProtocolKind::DBypFull),
    ("dragon", ProtocolKind::Dragon),
];

/// Three benchmarks × the three executor families × the two event-driven
/// network models (18 cells).
pub fn net_models(scale: ScaleProfile) -> ExperimentSpec {
    let mut spec = ExperimentSpec::subset(
        FAMILIES.iter().map(|&(_, p)| p).collect(),
        vec![
            BenchmarkKind::Fft,
            BenchmarkKind::Barnes,
            BenchmarkKind::Fluidanimate,
        ],
        scale,
    );
    spec.name = format!("{}-net-models", scale.name());
    spec.networks = vec![NetworkModelKind::FlitLevel, NetworkModelKind::SnoopBus];
    spec
}

/// A request the daemon has not seen: the Tiny inputs of all six benchmarks
/// under the three executor families, with the L2 slice set to `l2_kib`
/// KiB (18 short cells, none of them in the cache).
pub fn novel(l2_kib: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::subset(
        FAMILIES.iter().map(|&(_, p)| p).collect(),
        BenchmarkKind::ALL.to_vec(),
        ScaleProfile::Tiny,
    );
    spec.name = format!("novel-l2-{l2_kib}k");
    spec.variants = vec![SystemVariant::l2_slice(
        format!("l2-{l2_kib}k"),
        l2_kib * 1024,
    )];
    spec
}

/// Every `NOVEL_EVERY`-th request of `serve_mix` is novel; the rest repeat
/// the matrix spec.
///
/// The mix is ISSUE 11's and is an **assumption, not measured traffic**: the
/// only daemon traffic the repository records (`BENCH_service_baseline.json`)
/// is 32 identical requests. The share of novel requests, their size (18
/// Tiny cells), the range of L2 sizes and the two closed-loop connections
/// were chosen to bring stores, the flight table and `Simulator::new` into a
/// window beside the probes, not read off a production log. Each request
/// class is therefore gated on its own (`Measured::end_to_end`), so the
/// number of record does not hang on the ratio.
pub const NOVEL_EVERY: usize = 8;
/// Novel L2 slice sizes are whole KiB in this range. The L2 is 16-way with
/// 64-byte lines, so every multiple of 1 KiB is a whole number of sets.
pub const NOVEL_L2_KIB: std::ops::RangeInclusive<u64> = 8..=128;

/// What one request of the `serve_mix` schedule submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    Repeat,
    Novel { l2_kib: u64 },
}

/// The seeded request schedule: position → request. Novel sizes are a
/// seeded permutation of [`NOVEL_L2_KIB`], so no two novel requests of one
/// run share a cell.
#[derive(Debug, Clone)]
pub struct Schedule {
    novel_l2_kib: Vec<u64>,
}

impl Schedule {
    pub fn new(seed: u64) -> Self {
        let mut sizes: Vec<u64> = NOVEL_L2_KIB.collect();
        let mut rng = SplitMix64::new(seed);
        for i in (1..sizes.len()).rev() {
            sizes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Schedule {
            novel_l2_kib: sizes,
        }
    }

    /// Requests the schedule holds before novel sizes would repeat.
    pub fn len(&self) -> usize {
        self.novel_l2_kib.len() * NOVEL_EVERY
    }

    /// The request at `position`, or `None` past the end of the schedule.
    pub fn get(&self, position: usize) -> Option<Request> {
        if position >= self.len() {
            None
        } else if position % NOVEL_EVERY == NOVEL_EVERY - 1 {
            Some(Request::Novel {
                l2_kib: self.novel_l2_kib[position / NOVEL_EVERY],
            })
        } else {
            Some(Request::Repeat)
        }
    }
}

/// SplitMix64: the seeded generator behind the schedule and the substrate
/// drivers' address streams.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` > 0; the modulo bias is irrelevant
    /// for choosing addresses and shuffling 121 items).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Golden digests of `plan_figures_json` bytes, one `name digest` pair per
/// line. Regenerate a line from the digest a failing run prints.
const GOLDEN: &str = include_str!("../golden/figures.digests");

/// The golden 128-bit digest recorded under `name`.
pub fn golden(name: &str) -> Result<Digest, String> {
    GOLDEN
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("no golden digest named `{name}`"))?
        .1
        .trim()
        .parse()
}

/// Checks figure bytes against the golden digest of `spec_name`.
pub fn check_golden(spec_name: &str, figures: &[u8]) -> Result<(), String> {
    let want = golden(spec_name)?;
    let got = Digest::of_bytes(figures);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "figures of `{spec_name}` digest to {got}, golden is {want}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use denovo_waste::WorkloadSet;
    use std::collections::BTreeSet;

    #[test]
    fn schedule_is_reproducible_and_novel_sizes_are_distinct_and_valid() {
        let a = Schedule::new(7);
        let b = Schedule::new(7);
        let requests = |s: &Schedule| (0..240).map(|i| s.get(i).unwrap()).collect::<Vec<_>>();
        assert_eq!(requests(&a), requests(&b));
        assert_ne!(requests(&a), requests(&Schedule::new(8)));

        let novel: Vec<u64> = requests(&a)
            .into_iter()
            .filter_map(|r| match r {
                Request::Novel { l2_kib } => Some(l2_kib),
                Request::Repeat => None,
            })
            .collect();
        assert_eq!(novel.len(), 30);
        assert_eq!(novel.iter().collect::<BTreeSet<_>>().len(), 30);
        for l2_kib in novel {
            assert!(NOVEL_L2_KIB.contains(&l2_kib));
            let mut sys = ScaleProfile::Tiny.system();
            sys.cache.l2_slice_bytes = l2_kib * 1024;
            sys.validate().unwrap();
        }
        // Seven of every eight requests repeat; the schedule ends rather
        // than reuse a size.
        assert_eq!(a.get(6), Some(Request::Repeat));
        assert!(matches!(a.get(7), Some(Request::Novel { .. })));
        assert_eq!(a.len(), 121 * 8);
        assert_eq!(a.get(a.len()), None);
    }

    #[test]
    fn specs_compile_to_the_advertised_shapes() {
        let set = WorkloadSet::new();
        let net = net_models(ScaleProfile::Tiny).compile(&set).unwrap();
        assert_eq!(net.cells.len(), 18);
        let novel = novel(24);
        let plan = ExperimentSpec::from_json(&novel.to_json())
            .unwrap()
            .compile(&set)
            .unwrap();
        assert_eq!(plan.cells.len(), 18);
        assert_eq!(plan.cells[0].system.cache.l2_slice_bytes, 24 * 1024);
        assert_eq!(
            ExperimentSpec::full_matrix(ScaleProfile::Tiny)
                .compile(&set)
                .unwrap()
                .cells
                .len(),
            54
        );
    }

    #[test]
    fn every_golden_line_parses() {
        for name in [
            "scaled-matrix",
            "scaled-net-models",
            "tiny-matrix",
            "tiny-net-models",
        ] {
            golden(name).unwrap();
        }
        assert!(golden("missing").is_err());
    }
}
