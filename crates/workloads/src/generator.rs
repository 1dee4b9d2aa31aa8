//! One way into every generator and one way out of it.
//!
//! In: [`Generator::new`] is the table of every benchmark's input, one arm
//! per benchmark and [`ScaleProfile`]. Out: a workload's header, then one
//! core's stream at a time, into a sink.
//!
//! Three sinks read it. `Collect` keeps every stream, which is what
//! [`Generator::build`] does. The digest pass keeps none: it folds each core's
//! stream into the content digest ([`tw_trace::ContentDigester`], the one
//! definition [`Workload::content_digest`] runs as well), counts its
//! records, and clears its one [`TraceBuilder`] for the next core. The
//! header-only pass wants no stream at all: the generator returns right
//! after its header, which is all a committed table line needs to be
//! checked against. What [`Generator::digested`] and
//! [`Generator::committed`] return is a [`Workload`] whose streams hold the
//! generator instead of the records, built the first time something reads
//! them ([`Streams`]).

use crate::barnes::BarnesConfig;
use crate::builder::TraceBuilder;
use crate::fft::FftConfig;
use crate::fluidanimate::FluidanimateConfig;
use crate::kdtree::KdTreeConfig;
use crate::lu::LuConfig;
use crate::radix::RadixConfig;
use crate::workload::{BenchmarkKind, Streams, Workload};
use tw_trace::ContentDigester;
use tw_types::{Digest, RegionTable, SystemConfig, TraceOp};

/// Where a generator emits a workload.
pub(crate) trait Sink {
    /// The workload's metadata, before any stream; whether the sink wants
    /// the streams. A generator that is told no returns at once.
    fn header(
        &mut self,
        kind: BenchmarkKind,
        input: String,
        regions: RegionTable,
        cores: usize,
    ) -> bool;
    /// An empty builder for the next core's stream.
    fn builder(&mut self) -> TraceBuilder;
    /// The next core's finished stream, in core order.
    fn stream(&mut self, stream: TraceBuilder);
}

/// The metadata a generator emits ahead of its streams.
struct Header {
    kind: BenchmarkKind,
    input: String,
    regions: RegionTable,
}

/// The sink that keeps every stream: an eager [`Workload`].
#[derive(Default)]
pub(crate) struct Collect {
    header: Option<Header>,
    streams: Vec<Vec<TraceOp>>,
}

impl Sink for Collect {
    fn header(
        &mut self,
        kind: BenchmarkKind,
        input: String,
        regions: RegionTable,
        cores: usize,
    ) -> bool {
        self.header = Some(Header {
            kind,
            input,
            regions,
        });
        self.streams.reserve_exact(cores);
        true
    }

    fn builder(&mut self) -> TraceBuilder {
        TraceBuilder::new()
    }

    fn stream(&mut self, stream: TraceBuilder) {
        self.streams.push(stream.into_ops());
    }
}

impl Collect {
    pub(crate) fn into_workload(self) -> Workload {
        let Header {
            kind,
            input,
            regions,
        } = self.header.expect("a generator emits its header first");
        Workload {
            kind,
            input,
            regions,
            traces: self.streams.into(),
        }
    }
}

/// The sink that wants no stream: the header-only pass. It keeps the header
/// and the content digester over it.
#[derive(Default)]
struct HeaderOnly(Option<(Header, ContentDigester)>);

impl Sink for HeaderOnly {
    fn header(
        &mut self,
        kind: BenchmarkKind,
        input: String,
        regions: RegionTable,
        cores: usize,
    ) -> bool {
        let digester = ContentDigester::new(kind.name(), &input, cores, &regions);
        let header = Header {
            kind,
            input,
            regions,
        };
        self.0 = Some((header, digester));
        false
    }

    fn builder(&mut self) -> TraceBuilder {
        unreachable!("the header-only pass wants no stream")
    }

    fn stream(&mut self, _: TraceBuilder) {
        unreachable!("the header-only pass wants no stream")
    }
}

impl HeaderOnly {
    /// The header and its digester.
    fn finish(self) -> (Header, ContentDigester) {
        self.0.expect("a generator emits its header first")
    }
}

/// The sink that keeps no stream: the digest pass, which goes on from a
/// header-only pass's digester.
#[derive(Default)]
struct DigestPass {
    header: HeaderOnly,
    /// The one builder every core's stream is emitted into in turn.
    buffer: TraceBuilder,
    records: u64,
    mem_ops: u64,
}

impl Sink for DigestPass {
    fn header(
        &mut self,
        kind: BenchmarkKind,
        input: String,
        regions: RegionTable,
        cores: usize,
    ) -> bool {
        self.header.header(kind, input, regions, cores);
        true
    }

    fn builder(&mut self) -> TraceBuilder {
        std::mem::take(&mut self.buffer)
    }

    fn stream(&mut self, mut stream: TraceBuilder) {
        if let Some((_, digester)) = &mut self.header.0 {
            digester.stream(stream.ops());
        }
        self.records += stream.len() as u64;
        self.mem_ops += stream.ops().iter().filter(|op| op.is_mem()).count() as u64;
        stream.clear();
        self.buffer = stream;
    }
}

/// A benchmark's generator with its input: what a generated workload is a
/// function of, together with its core count.
#[derive(Debug, Clone)]
pub enum Generator {
    /// PARSEC fluidanimate.
    Fluidanimate(FluidanimateConfig),
    /// SPLASH-2 LU.
    Lu(LuConfig),
    /// SPLASH-2 FFT.
    Fft(FftConfig),
    /// SPLASH-2 radix sort.
    Radix(RadixConfig),
    /// SPLASH-2 Barnes-Hut.
    Barnes(BarnesConfig),
    /// Parallel SAH kD-tree construction.
    KdTree(KdTreeConfig),
}

/// Which input scale to run (see `DESIGN.md` §7): the system a scale
/// simulates, and with [`Generator::new`] the input of every benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScaleProfile {
    /// The paper's input sizes on the Table 4.1 system. Slow; intended for
    /// full reproduction runs.
    Paper,
    /// Scaled-down inputs with the L2 shrunk proportionally so every
    /// working-set-to-cache relationship of the paper is preserved. This is
    /// the default for `EXPERIMENTS.md`.
    Scaled,
    /// Miniature inputs for tests and benchmark smoke runs.
    Tiny,
}

impl ScaleProfile {
    /// The spec-grammar name of this profile (lowercase).
    pub const fn name(self) -> &'static str {
        match self {
            ScaleProfile::Paper => "paper",
            ScaleProfile::Scaled => "scaled",
            ScaleProfile::Tiny => "tiny",
        }
    }

    /// Resolves a profile from its spec-grammar name (case-insensitive).
    pub fn by_name(name: &str) -> Result<ScaleProfile, String> {
        [
            ScaleProfile::Paper,
            ScaleProfile::Scaled,
            ScaleProfile::Tiny,
        ]
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown scale `{name}`; expected paper | scaled | tiny"))
    }

    /// The system configuration this profile simulates.
    pub fn system(self) -> SystemConfig {
        let mut sys = SystemConfig::default();
        match self {
            ScaleProfile::Paper => {}
            ScaleProfile::Scaled => {
                // 64 KB slices (1 MB total): keeps "working set >> L2" true
                // for fluidanimate/FFT/radix/kD-tree and "working set << L2"
                // true for LU/Barnes at the scaled input sizes.
                sys.cache.l2_slice_bytes = 64 * 1024;
            }
            ScaleProfile::Tiny => {
                sys.cache.l1_bytes = 16 * 1024;
                sys.cache.l2_slice_bytes = 32 * 1024;
            }
        }
        sys
    }

    /// Builds the workload for one benchmark at this scale, every record in
    /// memory (errors as [`Generator::new`] and [`Generator::build`]).
    pub fn try_workload(self, bench: BenchmarkKind, cores: usize) -> Result<Workload, String> {
        Generator::new(bench, self)?.build(cores)
    }
}

impl Generator {
    /// The generator of `kind` at `scale`: the one table of every
    /// benchmark's input. Paper is the paper's Table 4.2; Scaled and Tiny
    /// are chosen in `DESIGN.md` §7.
    ///
    /// # Errors
    ///
    /// The trace-only kinds ([`BenchmarkKind::Custom`],
    /// [`BenchmarkKind::Synthesized`]) have no generator, and say so.
    pub fn new(kind: BenchmarkKind, scale: ScaleProfile) -> Result<Generator, String> {
        use BenchmarkKind as B;
        use ScaleProfile::{Paper, Scaled, Tiny};
        Ok(match (kind, scale) {
            // simmedium: roughly a 30x34x30 grid.
            (B::Fluidanimate, Paper) => Self::Fluidanimate(FluidanimateConfig {
                grid: 30,
                mean_particles: 6,
            }),
            (B::Fluidanimate, Scaled) => Self::Fluidanimate(FluidanimateConfig {
                grid: 10,
                mean_particles: 6,
            }),
            (B::Fluidanimate, Tiny) => Self::Fluidanimate(FluidanimateConfig {
                grid: 4,
                mean_particles: 4,
            }),
            (B::Lu, Paper) => Self::Lu(LuConfig {
                n: 512,
                block: 16,
                compute_per_elem: 4,
            }),
            (B::Lu, Scaled) => Self::Lu(LuConfig {
                n: 128,
                block: 16,
                compute_per_elem: 4,
            }),
            (B::Lu, Tiny) => Self::Lu(LuConfig {
                n: 32,
                block: 8,
                compute_per_elem: 1,
            }),
            (B::Fft, Paper) => Self::Fft(FftConfig {
                points: 256 * 1024,
                compute_per_point: 8,
            }),
            (B::Fft, Scaled) => Self::Fft(FftConfig {
                points: 32 * 1024,
                compute_per_point: 8,
            }),
            (B::Fft, Tiny) => Self::Fft(FftConfig {
                points: 1024,
                compute_per_point: 2,
            }),
            (B::Radix, Paper) => Self::Radix(RadixConfig {
                keys: 4 * 1024 * 1024,
                radix: 1024,
            }),
            (B::Radix, Scaled) => Self::Radix(RadixConfig {
                keys: 256 * 1024,
                radix: 1024,
            }),
            (B::Radix, Tiny) => Self::Radix(RadixConfig {
                keys: 8 * 1024,
                radix: 256,
            }),
            (B::Barnes, Paper) => Self::Barnes(BarnesConfig {
                bodies: 16 * 1024,
                cells_per_body: 24,
                leaf_interactions: 4,
            }),
            (B::Barnes, Scaled) => Self::Barnes(BarnesConfig {
                bodies: 2 * 1024,
                cells_per_body: 20,
                leaf_interactions: 4,
            }),
            (B::Barnes, Tiny) => Self::Barnes(BarnesConfig {
                bodies: 256,
                cells_per_body: 6,
                leaf_interactions: 2,
            }),
            // The Stanford bunny, ~69 K triangles.
            (B::KdTree, Paper) => Self::KdTree(KdTreeConfig {
                triangles: 69 * 1024,
                levels: 3,
            }),
            (B::KdTree, Scaled) => Self::KdTree(KdTreeConfig {
                triangles: 16 * 1024,
                levels: 3,
            }),
            (B::KdTree, Tiny) => Self::KdTree(KdTreeConfig {
                triangles: 1024,
                levels: 2,
            }),
            // Trace files and the seeded synthesizer make these.
            (B::Custom, _) => {
                return Err(
                    "custom workloads have no generator; replay them from a trace file".into(),
                )
            }
            (B::Synthesized, _) => {
                return Err(
                    "synthesized workloads have no fixed generator; build them from a \
                     seed with the tw-scenarios synthesizer (or replay a saved trace)"
                        .into(),
                )
            }
        })
    }

    fn emit(&self, cores: usize, sink: &mut dyn Sink) -> Result<(), String> {
        match self {
            Generator::Fluidanimate(config) => config.emit(cores, sink),
            Generator::Lu(config) => config.emit(cores, sink),
            Generator::Fft(config) => config.emit(cores, sink),
            Generator::Radix(config) => config.emit(cores, sink),
            Generator::Barnes(config) => config.emit(cores, sink),
            Generator::KdTree(config) => config.emit(cores, sink),
        }
    }

    /// Builds the workload for `cores` cores, every record in memory.
    ///
    /// # Errors
    ///
    /// An input that does not split among `cores`, 0 cores, or an input
    /// no stream can be drawn from: an LU matrix that is not a whole
    /// number of blocks, radix 0, fluidanimate cells with no particle.
    pub fn build(&self, cores: usize) -> Result<Workload, String> {
        let mut sink = Collect::default();
        self.emit(cores, &mut sink)?;
        Ok(sink.into_workload())
    }

    /// The digest pass: the workload for `cores` cores and its content
    /// digest, equal to `build(cores)?.content_digest()`, with no record
    /// held. Its streams are built the first time something reads them,
    /// and checked then to digest to the digest returned here; its core
    /// count, regions and memory-op count are known without that.
    ///
    /// # Errors
    ///
    /// As [`Generator::build`].
    pub fn digested(&self, cores: usize) -> Result<(Workload, Digest), String> {
        let mut pass = DigestPass::default();
        self.emit(cores, &mut pass)?;
        let (header, digester) = pass.header.finish();
        let digest = digester.finish();
        let workload = self.lazy(header, cores, digest, pass.records, pass.mem_ops);
        Ok((workload, digest))
    }

    /// The workload for `cores` cores as a committed line records it: the
    /// content digest and the counts of its digest pass are taken as given,
    /// and only the header is generated. Returns the workload, the same
    /// unbuilt one [`Generator::digested`] returns for those numbers, and
    /// its *header digest*: the content digester over the header alone,
    /// which the caller compares to the line's before it trusts the rest.
    /// A line that is wrong all the same is refused when the streams are
    /// built, which checks them against every number given here.
    ///
    /// # Errors
    ///
    /// Exactly what [`Generator::digested`] refuses: every generator checks
    /// its input against `cores` before its header, and cannot fail after
    /// it.
    pub fn committed(
        &self,
        cores: usize,
        digest: Digest,
        records: u64,
        mem_ops: u64,
    ) -> Result<(Workload, Digest), String> {
        let mut pass = HeaderOnly::default();
        self.emit(cores, &mut pass)?;
        let (header, digester) = pass.finish();
        let header_digest = digester.finish();
        let workload = self.lazy(header, cores, digest, records, mem_ops);
        Ok((workload, header_digest))
    }

    /// The unbuilt workload of `header` whose streams this generator builds.
    fn lazy(
        &self,
        header: Header,
        cores: usize,
        digest: Digest,
        records: u64,
        mem_ops: u64,
    ) -> Workload {
        Workload {
            kind: header.kind,
            input: header.input,
            regions: header.regions,
            traces: Streams::lazy(self.clone(), cores, digest, records, mem_ops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The digest pass of `generator` on `cores` cores against its build,
    /// and the header-only pass against both: all three refuse the core
    /// count alike, or the digest pass returns the build's digest and
    /// counts with no record in memory, the header-only pass given those
    /// returns the same workload and the digest of the build's header, and
    /// the records of either, once read, are the build's record for record.
    fn the_digest_pass_is_the_build(generator: &Generator, cores: usize) {
        let committed = |digest, records, mem_ops| {
            generator
                .committed(cores, digest, records, mem_ops)
                .map(|(workload, header)| (workload.traces, header))
        };
        let (built, lazy) = match (generator.build(cores), generator.digested(cores)) {
            (Err(refused), Err(again)) => {
                assert_eq!(refused, again);
                return assert_eq!(committed(Digest(0), 0, 0).unwrap_err(), refused);
            }
            (Ok(built), Ok(lazy)) => (built, lazy),
            (built, lazy) => panic!("{generator:?} on {cores} cores: {built:?} but {lazy:?}"),
        };
        let (lazy, digest) = lazy;
        let what = format!("{} on {cores} cores", built.kind);
        assert_eq!(digest, built.content_digest().unwrap(), "{what}");
        assert_eq!(lazy.cores(), cores, "{what}");
        assert_eq!(lazy.total_mem_ops(), built.total_mem_ops(), "{what}");
        assert_eq!(
            lazy.traces.record_count(),
            built.traces.record_count(),
            "{what}"
        );
        assert!(!lazy.traces.is_built(), "{what}");

        let (records, mem_ops) = (lazy.traces.record_count(), lazy.traces.mem_ops());
        let (read, header) = generator
            .committed(cores, digest, records, mem_ops)
            .unwrap();
        let built_header =
            ContentDigester::new(built.kind.name(), &built.input, cores, &built.regions).finish();
        assert_eq!(header, built_header, "{what}");
        assert_eq!(
            (read.kind, &read.input, &read.regions),
            (lazy.kind, &lazy.input, &lazy.regions),
            "{what}"
        );
        assert_eq!(read.cores(), cores, "{what}");
        assert_eq!(
            (read.traces.record_count(), read.traces.mem_ops()),
            (records, mem_ops),
            "{what}"
        );
        assert!(!read.traces.is_built(), "{what}");
        assert!(*lazy.traces == *built.traces, "{what}");
        assert_eq!(read.traces.try_materialize(), Ok(true), "{what}");
        assert!(read.traces == built.traces, "{what}");
    }

    /// Every core count a mesh can have (the domain of
    /// `no_core_count_makes_a_generator_panic`), every one of them rather
    /// than a sample.
    #[test]
    fn the_digest_pass_digests_what_build_builds_at_every_tiny_core_count() {
        for kind in BenchmarkKind::ALL {
            let generator = Generator::new(kind, ScaleProfile::Tiny).unwrap();
            for cores in 0..=64 {
                the_digest_pass_is_the_build(&generator, cores);
            }
        }
    }

    #[test]
    fn the_digest_pass_digests_what_build_builds_at_scaled_size() {
        for kind in BenchmarkKind::ALL {
            the_digest_pass_is_the_build(&Generator::new(kind, ScaleProfile::Scaled).unwrap(), 16);
        }
    }

    #[test]
    fn only_reading_the_records_builds_them() {
        let generator = Generator::new(BenchmarkKind::Barnes, ScaleProfile::Tiny).unwrap();
        let built = generator.build(16).unwrap();
        let (lazy, digest) = generator.digested(16).unwrap();
        assert_eq!(lazy.cores(), 16);
        assert_eq!(lazy.regions, built.regions);
        assert_eq!(lazy.total_mem_ops(), built.total_mem_ops());
        let debug = format!("{lazy:?}");
        assert!(debug.contains("built: false"), "{debug}");
        let clone = lazy.clone();
        assert!(!lazy.traces.is_built() && !clone.traces.is_built());

        assert_eq!(lazy.traces.try_materialize(), Ok(true), "the first builds");
        assert_eq!(
            lazy.traces.try_materialize(),
            Ok(false),
            "and only the first"
        );
        assert!(!clone.traces.is_built(), "a clone builds on its own");
        assert_eq!(lazy.traces, built.traces);
        assert_eq!(lazy.content_digest().unwrap(), digest);
        assert_eq!(format!("{lazy:?}"), format!("{built:?}"));
    }

    #[test]
    #[should_panic(expected = "built other records than it digested")]
    fn records_that_do_not_digest_to_the_compiled_digest_are_refused() {
        let generator = Generator::new(BenchmarkKind::Fft, ScaleProfile::Tiny).unwrap();
        let streams = Streams::lazy(generator, 16, Digest(0), 0, 0);
        let _ = streams.len();
    }

    #[test]
    fn records_that_are_not_the_committed_ones_are_an_error_and_kept_nowhere() {
        let generator = Generator::new(BenchmarkKind::Fft, ScaleProfile::Tiny).unwrap();
        let (lazy, digest) = generator.digested(16).unwrap();
        let (records, mem_ops) = (lazy.traces.record_count(), lazy.traces.mem_ops());
        for (digest, records, mem_ops) in [
            (Digest(digest.0 ^ 1), records, mem_ops),
            (digest, records + 1, mem_ops),
            (digest, records, mem_ops - 1),
        ] {
            let (stale, _) = generator.committed(16, digest, records, mem_ops).unwrap();
            for _ in 0..2 {
                let refused = stale.traces.try_materialize().unwrap_err();
                assert_eq!(
                    refused,
                    "FFT on 16 cores built other records than it digested"
                );
                assert!(!stale.traces.is_built());
            }
        }
        let (good, _) = generator.committed(16, digest, records, mem_ops).unwrap();
        assert_eq!(good.traces.try_materialize(), Ok(true));
        assert_eq!(good.traces.try_materialize(), Ok(false));
    }

    #[test]
    fn racing_callers_build_once_and_share_the_outcome() {
        let generator = Generator::new(BenchmarkKind::Fft, ScaleProfile::Tiny).unwrap();
        let (lazy, digest) = generator.digested(16).unwrap();
        let (records, mem_ops) = (lazy.traces.record_count(), lazy.traces.mem_ops());
        let (stale, _) = generator
            .committed(16, Digest(digest.0 ^ 1), records, mem_ops)
            .unwrap();
        // Each caller's outcome, and where the records it read are.
        let race = |workload: &Workload| {
            std::thread::scope(|s| {
                let callers: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(|| {
                            let outcome = workload.traces.try_materialize();
                            let at = outcome.is_ok().then(|| workload.traces.as_ptr());
                            (outcome, at.map(|p| p as usize))
                        })
                    })
                    .collect();
                callers
                    .into_iter()
                    .map(|c| c.join().unwrap())
                    .collect::<Vec<_>>()
            })
        };
        let outcomes = race(&lazy);
        let builders = outcomes.iter().filter(|(o, _)| *o == Ok(true)).count();
        assert_eq!(builders, 1, "{outcomes:?}");
        assert!(outcomes.iter().all(|(o, _)| o.is_ok()), "{outcomes:?}");
        let at = lazy.traces.as_ptr() as usize;
        assert!(outcomes.iter().all(|&(_, p)| p == Some(at)), "one copy");
        assert_eq!(lazy.content_digest().unwrap(), digest);

        let refused = Err("FFT on 16 cores built other records than it digested".to_string());
        assert!(race(&stale).iter().all(|(o, _)| *o == refused));
        assert!(!stale.traces.is_built());
    }

    #[test]
    fn scale_profiles_produce_distinct_systems() {
        assert_eq!(
            ScaleProfile::Paper.system().cache.l2_slice_bytes,
            256 * 1024
        );
        assert_eq!(
            ScaleProfile::Scaled.system().cache.l2_slice_bytes,
            64 * 1024
        );
        assert!(ScaleProfile::Tiny.system().cache.l1_bytes < 32 * 1024);
        assert!(ScaleProfile::Paper.system().validate().is_ok());
        assert!(ScaleProfile::Scaled.system().validate().is_ok());
        assert!(ScaleProfile::Tiny.system().validate().is_ok());
    }

    #[test]
    fn scale_names_round_trip() {
        for s in [
            ScaleProfile::Paper,
            ScaleProfile::Scaled,
            ScaleProfile::Tiny,
        ] {
            assert_eq!(ScaleProfile::by_name(s.name()), Ok(s));
            assert_eq!(ScaleProfile::by_name(&s.name().to_uppercase()), Ok(s));
        }
        assert!(ScaleProfile::by_name("huge").is_err());
    }

    #[test]
    fn edited_records_are_the_workload_from_then_on() {
        let (mut lazy, _) = Generator::new(BenchmarkKind::Fft, ScaleProfile::Tiny)
            .unwrap()
            .digested(4)
            .unwrap();
        let mem_ops = lazy.total_mem_ops();
        lazy.traces[0].retain(|op| !op.is_mem());
        assert!(lazy.total_mem_ops() < mem_ops);
        let records: usize = lazy.traces.iter().map(Vec::len).sum();
        assert_eq!(lazy.traces.record_count(), records as u64);
    }
}
