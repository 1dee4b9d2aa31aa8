//! The seedable random workload synthesizer.
//!
//! A synthesized workload is a composition of *sharing-pattern primitives*,
//! each owning one disjoint software region with its own Flex/bypass
//! annotations. The primitives are the sharing idioms the paper's six
//! applications are built from (private working sets, read-shared tables,
//! migratory objects, producer→consumer hand-offs, word-granular false
//! sharing, streaming/bypass scans, and barrier-phased pipelines); composing
//! random instances of them yields an unbounded seeded family of well-formed
//! reference streams that exercise the same mechanisms as the hand-built
//! generators.
//!
//! Every synthesized workload is **data-race-free per barrier phase by
//! construction**: within one phase, any word that is written is touched by
//! exactly one core. That discipline is what DeNovo assumes of its software
//! (DPJ-style determinism) and what makes the golden functional model in
//! [`crate::oracle`] well defined.

use rand::{rngs::StdRng, Rng, SeedableRng};
use tw_types::{Addr, BypassKind, CommRegion, RegionId, RegionInfo, RegionTable, WORD_BYTES};
use tw_workloads::{BenchmarkKind, TraceBuilder, Workload};

/// One sharing-pattern primitive of the synthesis grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingPattern {
    /// Each core reads and overwrites a disjoint private chunk every phase
    /// (the paper's "read-then-overwritten" bypass pattern when annotated).
    Private,
    /// A table written by nobody during parallel phases; all cores read
    /// random words of it (Barnes-Hut body positions, FFT roots of unity).
    ReadShared,
    /// One small object that migrates: in phase `p` exactly one core
    /// read-modify-writes it, a different core in the next phase.
    Migratory,
    /// Even phases: core `c` produces chunk `c`. Odd phases: core `c`
    /// consumes chunk `c-1` (fluidanimate ghost cells, kD-tree hand-offs).
    ProducerConsumer,
    /// Cores store to disjoint *words* that share cache lines — the
    /// word-granularity scenario MESI pays for and DeNovo does not.
    FalseSharing,
    /// A region larger than the L1 read exactly once per phase and never
    /// written — the streaming L2-bypass pattern (§3.1, access pattern 2).
    Streaming,
    /// A barrier-phased pipeline: the chunk written in phase `p` by its
    /// stage owner is read in phase `p+1` by the next stage's core.
    Pipeline,
}

impl SharingPattern {
    /// Every primitive of the grammar.
    pub const ALL: [SharingPattern; 7] = [
        SharingPattern::Private,
        SharingPattern::ReadShared,
        SharingPattern::Migratory,
        SharingPattern::ProducerConsumer,
        SharingPattern::FalseSharing,
        SharingPattern::Streaming,
        SharingPattern::Pipeline,
    ];

    /// Region-name stem used in the synthesized region table.
    pub const fn name(self) -> &'static str {
        match self {
            SharingPattern::Private => "private",
            SharingPattern::ReadShared => "read-shared",
            SharingPattern::Migratory => "migratory",
            SharingPattern::ProducerConsumer => "producer-consumer",
            SharingPattern::FalseSharing => "false-sharing",
            SharingPattern::Streaming => "streaming",
            SharingPattern::Pipeline => "pipeline",
        }
    }
}

/// Configuration of one synthesis run. Identical configurations produce
/// byte-identical workloads (the generator draws from a single `StdRng`
/// stream in a fixed phase→core→pattern order).
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// RNG seed; the only thing `experiments fuzz` varies.
    pub seed: u64,
    /// Cores to generate for (must match the simulated system's tile count).
    pub cores: usize,
    /// Barrier-phase count (each phase ends in one global barrier).
    pub phases: usize,
    /// Pattern-instance count; the instances are drawn uniformly from
    /// [`SharingPattern::ALL`] unless [`SynthConfig::only`] restricts them.
    pub pattern_instances: usize,
    /// When set, every instance uses this primitive (used by the streaming
    /// preset the bypass invariant checks).
    pub only: Option<SharingPattern>,
    /// Bounds on the random per-(core, phase, instance) op count.
    pub ops_per_phase: (usize, usize),
    /// Bounds on a streaming instance's per-core stripe, in words. The
    /// streaming *preset* sizes stripes past the tiny 16 KB (4096-word) L1
    /// so every phase's scan capacity-misses and genuinely exercises the
    /// L2-bypass path; streaming instances drawn into general mixes stay
    /// small (they add scan coverage there, not the dominance invariant).
    pub streaming_stripe_words: (u64, u64),
}

impl SynthConfig {
    /// The general-purpose preset: a few instances of random primitives on
    /// the tiny 16-tile geometry.
    pub fn general(seed: u64) -> Self {
        SynthConfig {
            seed,
            cores: 16,
            phases: 0, // drawn from the seed in build()
            pattern_instances: 0,
            only: None,
            ops_per_phase: (8, 32),
            streaming_stripe_words: (512, 1024),
        }
    }

    /// A workload whose every accessed data region is a bypass-annotated
    /// streaming region — the scenario for which L2 response/request bypass
    /// exists, used by the `DBypFull ≤ MESI` metamorphic invariant.
    pub fn streaming(seed: u64) -> Self {
        SynthConfig {
            seed,
            cores: 16,
            // One instance over two phases: the second scan re-misses the
            // whole (larger-than-L1) stripe, which is the entire point;
            // more phases or instances would only repeat it at 9-protocol
            // simulation cost.
            phases: 2,
            pattern_instances: 1,
            only: Some(SharingPattern::Streaming),
            ops_per_phase: (64, 128),
            streaming_stripe_words: (4352, 5120),
        }
    }

    /// Synthesizes the workload. Deterministic in the configuration; the
    /// result always passes [`Workload::try_well_formed`] and the golden
    /// oracle's race check.
    pub fn build(&self) -> Workload {
        let mut rng = StdRng::seed_from_u64(self.seed ^ SEED_DOMAIN);
        let cores = self.cores.max(1);
        let phases = if self.phases > 0 {
            self.phases
        } else {
            rng.gen_range(2usize..=5)
        };
        let instances = if self.pattern_instances > 0 {
            self.pattern_instances
        } else {
            rng.gen_range(2usize..=4)
        };

        // Draw the pattern instances and lay their regions out 16 MB apart.
        let mut regions = RegionTable::new();
        let mut pats: Vec<PatternInstance> = Vec::with_capacity(instances);
        for i in 0..instances {
            let kind = match self.only {
                Some(k) => k,
                None => SharingPattern::ALL[rng.gen_range(0usize..SharingPattern::ALL.len())],
            };
            let inst = PatternInstance::draw(kind, i, cores, self.streaming_stripe_words, &mut rng);
            regions.insert(inst.region_info());
            pats.push(inst);
        }
        // Guarantee at least one writing pattern in the general preset, so
        // every synthesized workload exercises stores (and gives the
        // mutation suite a flip site). Read-only compositions still occur in
        // the streaming preset, which pins `only`.
        let writes = |k: SharingPattern| {
            !matches!(k, SharingPattern::ReadShared | SharingPattern::Streaming)
        };
        if self.only.is_none() && !pats.iter().any(|p| writes(p.kind)) {
            let inst = PatternInstance::draw(
                SharingPattern::Private,
                pats.len(),
                cores,
                self.streaming_stripe_words,
                &mut rng,
            );
            regions.insert(inst.region_info());
            pats.push(inst);
        }

        // Emit the per-core streams in a fixed phase → core → pattern order.
        let mut builders: Vec<TraceBuilder> = (0..cores).map(|_| TraceBuilder::new()).collect();
        for phase in 0..phases {
            for (core, b) in builders.iter_mut().enumerate() {
                for pat in &pats {
                    pat.emit(b, core, phase, cores, self.ops_per_phase, &mut rng);
                }
                b.barrier(phase as u32);
            }
        }

        let pattern_names: Vec<&str> = pats.iter().map(|p| p.kind.name()).collect();
        Workload {
            kind: BenchmarkKind::Synthesized,
            input: format!(
                "seed={} phases={phases} patterns=[{}]",
                self.seed,
                pattern_names.join(",")
            ),
            regions,
            traces: builders.into_iter().map(TraceBuilder::into_ops).collect(),
        }
    }
}

/// Domain-separation constant mixed into the seed so the synthesizer's
/// stream differs from any other consumer of `StdRng::seed_from_u64`.
const SEED_DOMAIN: u64 = 0x5eed_5ce4_a210_97c3;

/// Synthesizes the default (general-preset) workload for a seed: the entry
/// point `experiments fuzz` and the property tests use.
pub fn synthesize(seed: u64) -> Workload {
    SynthConfig::general(seed).build()
}

/// Whether every region that a workload's streams actually access is a
/// bypass-annotated streaming region — the predicate guarding the
/// `DBypFull ≤ MESI` traffic invariant.
pub fn is_fully_bypass_streaming(wl: &Workload) -> bool {
    let mut any = false;
    for op in wl.traces.iter().flatten() {
        if let Some(id) = op.region() {
            any = true;
            match wl.regions.get(id) {
                Some(r) if r.bypass == BypassKind::StreamingOncePerPhase => {}
                _ => return false,
            }
        }
    }
    any
}

/// One drawn instance of a primitive: its region geometry plus the
/// kind-specific parameters fixed at draw time.
#[derive(Debug, Clone)]
struct PatternInstance {
    kind: SharingPattern,
    region: RegionId,
    base: Addr,
    /// Region size in words.
    words: u64,
    /// Per-core chunk in words (patterns that stripe by core).
    chunk_words: u64,
    /// Annotations drawn for this instance.
    bypass: BypassKind,
    comm: Option<CommRegion>,
    written_in_parallel: bool,
}

impl PatternInstance {
    fn draw(
        kind: SharingPattern,
        index: usize,
        cores: usize,
        stripe_words: (u64, u64),
        rng: &mut StdRng,
    ) -> Self {
        let region = RegionId(index as u16 + 1);
        let base = Addr::new(0x1000_0000 + index as u64 * 0x0100_0000);
        let cores = cores as u64;
        let (words, chunk_words, bypass, comm, written) = match kind {
            SharingPattern::Private => {
                let chunk = rng.gen_range(16u64..=64);
                // Private chunks are read then overwritten in place each
                // phase — the first L2-bypass access pattern, annotated on a
                // coin flip so both sides are exercised.
                let byp = if rng.gen_bool(0.5) {
                    BypassKind::ReadThenOverwritten
                } else {
                    BypassKind::None
                };
                (chunk * cores, chunk, byp, None, true)
            }
            SharingPattern::ReadShared => {
                let words = rng.gen_range(64u64..=512);
                (words, 0, BypassKind::None, None, false)
            }
            SharingPattern::Migratory => {
                let obj = rng.gen_range(4u64..=16);
                (obj, obj, BypassKind::None, None, true)
            }
            SharingPattern::ProducerConsumer => {
                // Chunks are multiples of 3 words so the region size divides
                // evenly into the 96-byte Flex objects drawn below.
                let chunk = 3 * rng.gen_range(6u64..=16);
                // Half the instances carry a Flex communication region: the
                // consumer only ever needs a subset of each object's words.
                let comm = if rng.gen_bool(0.5) {
                    let object_bytes = 96;
                    let object_words = object_bytes / WORD_BYTES;
                    let useful = rng.gen_range(2u64..object_words);
                    let mut offsets: Vec<u64> = (0..object_words).map(|w| w * WORD_BYTES).collect();
                    // Keep a deterministic subset: every k-th word.
                    let stride = (object_words / useful).max(1) as usize;
                    offsets = offsets.into_iter().step_by(stride).collect();
                    Some(CommRegion {
                        object_bytes,
                        useful_offsets: offsets,
                    })
                } else {
                    None
                };
                (chunk * cores, chunk, BypassKind::None, comm, true)
            }
            SharingPattern::FalseSharing => {
                // One word per core per line; a handful of lines.
                let lines = rng.gen_range(4u64..=16);
                (lines * cores, 0, BypassKind::None, None, true)
            }
            SharingPattern::Streaming => {
                // Stripe bounds come from the preset (see
                // `SynthConfig::streaming_stripe_words` for the sizing
                // rationale against the tiny L1).
                let chunk = rng.gen_range(stripe_words.0..=stripe_words.1.max(stripe_words.0));
                (
                    chunk * cores,
                    chunk,
                    BypassKind::StreamingOncePerPhase,
                    None,
                    false,
                )
            }
            SharingPattern::Pipeline => {
                let chunk = rng.gen_range(16u64..=48);
                // One chunk per pipeline stage; stages cycle with the phase.
                let stages = rng.gen_range(2u64..=4).min(cores);
                (chunk * stages, chunk, BypassKind::None, None, true)
            }
        };
        PatternInstance {
            kind,
            region,
            base,
            words,
            chunk_words,
            bypass,
            comm,
            written_in_parallel: written,
        }
    }

    fn region_info(&self) -> RegionInfo {
        let mut info = RegionInfo::plain(
            self.region,
            format!("{} {}", self.kind.name(), self.region.0),
            self.base,
            self.words * WORD_BYTES,
        );
        info.bypass = self.bypass;
        info.comm = self.comm.clone();
        info.written_in_parallel_phases = self.written_in_parallel;
        info
    }

    fn word(&self, idx: u64) -> Addr {
        debug_assert!(idx < self.words);
        self.base.offset(idx * WORD_BYTES)
    }

    /// Emits this instance's ops for `(core, phase)`. The DRF discipline is
    /// local to each arm: a word written in a phase is touched by one core.
    fn emit(
        &self,
        t: &mut TraceBuilder,
        core: usize,
        phase: usize,
        cores: usize,
        ops_bounds: (usize, usize),
        rng: &mut StdRng,
    ) {
        let (lo, hi) = ops_bounds;
        let ops = rng.gen_range(lo..=hi.max(lo));
        let core_u = core as u64;
        let cores_u = cores as u64;
        let phase_u = phase as u64;
        match self.kind {
            SharingPattern::Private => {
                let chunk_base = core_u * self.chunk_words;
                for _ in 0..ops {
                    let w = chunk_base + rng.gen_range(0u64..self.chunk_words);
                    t.load(self.word(w), self.region);
                    if rng.gen_bool(0.7) {
                        t.store(self.word(w), self.region);
                    }
                    maybe_compute(t, rng);
                }
            }
            SharingPattern::ReadShared => {
                for _ in 0..ops {
                    let w = rng.gen_range(0u64..self.words);
                    t.load(self.word(w), self.region);
                    maybe_compute(t, rng);
                }
            }
            SharingPattern::Migratory => {
                // Exactly one owner per phase; everyone else skips (but the
                // RNG stream stays aligned because `ops` was already drawn).
                if core_u == phase_u % cores_u {
                    for w in 0..self.words {
                        t.load(self.word(w), self.region);
                    }
                    t.compute(4);
                    for w in 0..self.words {
                        t.store(self.word(w), self.region);
                    }
                }
            }
            SharingPattern::ProducerConsumer => {
                if phase.is_multiple_of(2) {
                    // Produce: core c fills chunk c.
                    let chunk_base = core_u * self.chunk_words;
                    for i in 0..self.chunk_words.min(ops as u64) {
                        t.store(self.word(chunk_base + i), self.region);
                    }
                } else {
                    // Consume: core c drains chunk c-1 (exactly one reader
                    // per chunk, no writers anywhere in odd phases).
                    let producer = (core_u + cores_u - 1) % cores_u;
                    let chunk_base = producer * self.chunk_words;
                    for i in 0..self.chunk_words.min(ops as u64) {
                        t.load(self.word(chunk_base + i), self.region);
                    }
                }
                maybe_compute(t, rng);
            }
            SharingPattern::FalseSharing => {
                // Word k of line l belongs to core k: stores from different
                // cores land in the same lines but never the same words.
                let lines = self.words / cores_u;
                for _ in 0..ops {
                    let line = rng.gen_range(0u64..lines);
                    let w = line * cores_u + core_u;
                    t.store(self.word(w), self.region);
                    if rng.gen_bool(0.3) {
                        t.load(self.word(w), self.region);
                    }
                }
            }
            SharingPattern::Streaming => {
                // Read the core's stripe once, sequentially, every phase.
                let chunk_base = core_u * self.chunk_words;
                for i in 0..self.chunk_words {
                    t.load(self.word(chunk_base + i), self.region);
                }
                t.compute(2);
            }
            SharingPattern::Pipeline => {
                let stages = self.words / self.chunk_words;
                // Stage owner of phase p writes chunk (p mod stages); the
                // next core reads the previous phase's chunk. Distinct
                // chunks, one core each — race-free within the phase.
                let write_stage = phase_u % stages;
                let writer = (phase_u * 3 + 1) % cores_u;
                if core_u == writer {
                    let base = write_stage * self.chunk_words;
                    for i in 0..self.chunk_words {
                        t.store(self.word(base + i), self.region);
                    }
                }
                if phase_u > 0 {
                    let read_stage = (phase_u - 1) % stages;
                    let prev_writer = ((phase_u - 1) * 3 + 1) % cores_u;
                    let reader = (prev_writer + 1) % cores_u;
                    if core_u == reader && read_stage != write_stage {
                        let base = read_stage * self.chunk_words;
                        for i in 0..self.chunk_words {
                            t.load(self.word(base + i), self.region);
                        }
                    }
                }
            }
        }
    }
}

/// Sprinkles a small compute record on a coin flip, keeping synthesized
/// timing structure non-trivial without bloating the trace.
fn maybe_compute(t: &mut TraceBuilder, rng: &mut StdRng) {
    if rng.gen_bool(0.25) {
        t.compute(rng.gen_range(1u32..=6));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic_in_the_seed() {
        for seed in [0, 1, 42, 0xdead_beef] {
            let a = synthesize(seed);
            let b = synthesize(seed);
            assert_eq!(a.traces, b.traces, "seed {seed} is not reproducible");
            assert_eq!(a.input, b.input);
            assert_eq!(a.regions.len(), b.regions.len());
        }
        assert_ne!(
            synthesize(1).traces,
            synthesize(2).traces,
            "different seeds should differ"
        );
    }

    #[test]
    fn synthesized_workloads_are_well_formed() {
        for seed in 0..32 {
            let wl = synthesize(seed);
            assert_eq!(wl.kind, BenchmarkKind::Synthesized);
            assert_eq!(wl.cores(), 16);
            assert!(wl.barriers() >= 2, "seed {seed}: too few phases");
            assert!(wl.total_mem_ops() > 0, "seed {seed}: empty workload");
            wl.try_well_formed()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn streaming_preset_is_fully_bypass_annotated() {
        for seed in 0..8 {
            let wl = SynthConfig::streaming(seed).build();
            wl.try_well_formed().unwrap();
            assert!(
                is_fully_bypass_streaming(&wl),
                "seed {seed}: streaming preset must only touch bypass regions"
            );
        }
    }

    #[test]
    fn grammar_covers_every_primitive_across_seeds() {
        use std::collections::BTreeSet;
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for seed in 0..64 {
            let wl = synthesize(seed);
            for r in wl.regions.iter() {
                seen.insert(
                    SharingPattern::ALL
                        .iter()
                        .find(|p| r.name.starts_with(p.name()))
                        .map(|p| p.name())
                        .unwrap_or_else(|| panic!("unknown region name {}", r.name)),
                );
            }
        }
        for p in SharingPattern::ALL {
            assert!(
                seen.contains(p.name()),
                "{} never drawn in 64 seeds",
                p.name()
            );
        }
    }
}
