//! One way out of every generator: a workload's header, then one core's
//! stream at a time, into a sink.
//!
//! Two sinks read it. [`Collect`] keeps every stream, which is what each
//! config's `build` does. The digest pass keeps none: it folds each core's
//! stream into the content digest ([`tw_trace::ContentDigester`], the one
//! definition [`Workload::content_digest`] runs as well), counts its
//! records, and clears its one [`TraceBuilder`] for the next core. What
//! [`Generator::digested`] returns is a [`Workload`] whose streams hold the
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
use tw_trace::{ContentDigester, TraceError};
use tw_types::{Digest, RegionTable, TraceOp};

/// Where a generator emits a workload.
pub(crate) trait Sink {
    /// The workload's metadata, before any stream.
    fn header(&mut self, kind: BenchmarkKind, input: String, regions: RegionTable, cores: usize);
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
    fn header(&mut self, kind: BenchmarkKind, input: String, regions: RegionTable, cores: usize) {
        self.header = Some(Header {
            kind,
            input,
            regions,
        });
        self.streams.reserve_exact(cores);
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

/// The sink that keeps no stream: the digest pass.
#[derive(Default)]
struct DigestPass {
    header: Option<(Header, Result<ContentDigester, TraceError>)>,
    /// The one builder every core's stream is emitted into in turn.
    buffer: TraceBuilder,
    records: u64,
    mem_ops: u64,
}

impl Sink for DigestPass {
    fn header(&mut self, kind: BenchmarkKind, input: String, regions: RegionTable, cores: usize) {
        let digester = ContentDigester::new(kind.name(), &input, cores, &regions);
        let header = Header {
            kind,
            input,
            regions,
        };
        self.header = Some((header, digester));
    }

    fn builder(&mut self) -> TraceBuilder {
        std::mem::take(&mut self.buffer)
    }

    fn stream(&mut self, mut stream: TraceBuilder) {
        if let Some((_, Ok(digester))) = &mut self.header {
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

/// The error returned when asked for a generator of a benchmark kind that
/// has none ([`BenchmarkKind::Custom`] comes from trace files,
/// [`BenchmarkKind::Synthesized`] from the seeded synthesizer).
fn no_generator(kind: BenchmarkKind) -> String {
    match kind {
        BenchmarkKind::Custom => {
            "custom workloads have no generator; replay them from a trace file".to_string()
        }
        BenchmarkKind::Synthesized => {
            "synthesized workloads have no fixed generator; build them from a seed \
             with the tw-scenarios synthesizer (or replay a saved trace)"
                .to_string()
        }
        other => unreachable!("{other} has a generator"),
    }
}

impl Generator {
    /// The generator of `kind` at the paper's input (Table 4.2).
    ///
    /// # Errors
    ///
    /// The trace-only kinds ([`BenchmarkKind::Custom`],
    /// [`BenchmarkKind::Synthesized`]) have no generator, and say so.
    pub fn paper(kind: BenchmarkKind) -> Result<Generator, String> {
        Ok(match kind {
            BenchmarkKind::Fluidanimate => Generator::Fluidanimate(FluidanimateConfig::paper()),
            BenchmarkKind::Lu => Generator::Lu(LuConfig::paper()),
            BenchmarkKind::Fft => Generator::Fft(FftConfig::paper()),
            BenchmarkKind::Radix => Generator::Radix(RadixConfig::paper()),
            BenchmarkKind::Barnes => Generator::Barnes(BarnesConfig::paper()),
            BenchmarkKind::KdTree => Generator::KdTree(KdTreeConfig::paper()),
            BenchmarkKind::Custom | BenchmarkKind::Synthesized => return Err(no_generator(kind)),
        })
    }

    /// The generator of `kind` at the scaled default input (`DESIGN.md` §7).
    ///
    /// # Errors
    ///
    /// As [`Generator::paper`].
    pub fn scaled(kind: BenchmarkKind) -> Result<Generator, String> {
        Ok(match kind {
            BenchmarkKind::Fluidanimate => Generator::Fluidanimate(FluidanimateConfig::scaled()),
            BenchmarkKind::Lu => Generator::Lu(LuConfig::scaled()),
            BenchmarkKind::Fft => Generator::Fft(FftConfig::scaled()),
            BenchmarkKind::Radix => Generator::Radix(RadixConfig::scaled()),
            BenchmarkKind::Barnes => Generator::Barnes(BarnesConfig::scaled()),
            BenchmarkKind::KdTree => Generator::KdTree(KdTreeConfig::scaled()),
            BenchmarkKind::Custom | BenchmarkKind::Synthesized => return Err(no_generator(kind)),
        })
    }

    /// The generator of `kind` at its miniature test input.
    ///
    /// # Errors
    ///
    /// As [`Generator::paper`].
    pub fn tiny(kind: BenchmarkKind) -> Result<Generator, String> {
        Ok(match kind {
            BenchmarkKind::Fluidanimate => Generator::Fluidanimate(FluidanimateConfig::tiny()),
            BenchmarkKind::Lu => Generator::Lu(LuConfig::tiny()),
            BenchmarkKind::Fft => Generator::Fft(FftConfig::tiny()),
            BenchmarkKind::Radix => Generator::Radix(RadixConfig::tiny()),
            BenchmarkKind::Barnes => Generator::Barnes(BarnesConfig::tiny()),
            BenchmarkKind::KdTree => Generator::KdTree(KdTreeConfig::tiny()),
            BenchmarkKind::Custom | BenchmarkKind::Synthesized => return Err(no_generator(kind)),
        })
    }

    fn emit(&self, cores: usize, sink: &mut dyn Sink) -> Result<(), String> {
        match self {
            Generator::Fluidanimate(config) => config.emit(cores, sink),
            Generator::Lu(config) => config.emit(cores, sink),
            Generator::Fft(config) => config.emit(cores, sink)?,
            Generator::Radix(config) => config.emit(cores, sink)?,
            Generator::Barnes(config) => config.emit(cores, sink)?,
            Generator::KdTree(config) => config.emit(cores, sink)?,
        }
        Ok(())
    }

    /// Builds the workload for `cores` cores, every record in memory.
    ///
    /// # Errors
    ///
    /// Fails where the config's own `build` does: an input that does not
    /// divide evenly among `cores`.
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
    /// As [`Generator::build`], and a header the trace format cannot hold.
    pub fn digested(&self, cores: usize) -> Result<(Workload, Digest), String> {
        let mut pass = DigestPass::default();
        self.emit(cores, &mut pass)?;
        let (header, digester) = pass.header.expect("a generator emits its header first");
        let digest = digester.map_err(|e| e.to_string())?.finish();
        let workload = Workload {
            kind: header.kind,
            input: header.input,
            regions: header.regions,
            traces: Streams::lazy(self.clone(), cores, digest, pass.records, pass.mem_ops),
        };
        Ok((workload, digest))
    }

    /// The records of a workload [`Generator::digested`] returned, built
    /// now.
    ///
    /// # Panics
    ///
    /// If they do not digest to `digest`: a generator whose output is not a
    /// function of its input would otherwise run records other than the
    /// ones its cache key names.
    pub(crate) fn records(&self, cores: usize, digest: Digest) -> Vec<Vec<TraceOp>> {
        let mut built = self
            .build(cores)
            .expect("a generator that digested a core count builds it");
        let rebuilt = built.content_digest().ok();
        assert_eq!(
            rebuilt,
            Some(digest),
            "{} on {cores} cores built other records than it digested",
            built.kind
        );
        std::mem::take(&mut *built.traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The digest pass of `generator` on `cores` cores against its build:
    /// both refuse the core count alike, or the digest pass returns the
    /// build's digest and counts with no record in memory, and its records,
    /// once read, are the build's record for record.
    fn the_digest_pass_is_the_build(generator: &Generator, cores: usize) {
        let (built, lazy) = match (generator.build(cores), generator.digested(cores)) {
            (Err(refused), Err(again)) => return assert_eq!(refused, again),
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
        assert!(*lazy.traces == *built.traces, "{what}");
    }

    /// Every core count a mesh can have (the domain of
    /// `no_core_count_makes_a_generator_panic`), every one of them rather
    /// than a sample.
    #[test]
    fn the_digest_pass_digests_what_build_builds_at_every_tiny_core_count() {
        for kind in BenchmarkKind::ALL {
            let generator = Generator::tiny(kind).unwrap();
            for cores in 1..=64 {
                the_digest_pass_is_the_build(&generator, cores);
            }
        }
    }

    #[test]
    fn the_digest_pass_digests_what_build_builds_at_scaled_size() {
        for kind in BenchmarkKind::ALL {
            the_digest_pass_is_the_build(&Generator::scaled(kind).unwrap(), 16);
        }
    }

    #[test]
    fn only_reading_the_records_builds_them() {
        let generator = Generator::tiny(BenchmarkKind::Barnes).unwrap();
        let built = generator.build(16).unwrap();
        let (lazy, digest) = generator.digested(16).unwrap();
        assert_eq!(lazy.cores(), 16);
        assert_eq!(lazy.regions, built.regions);
        assert_eq!(lazy.total_mem_ops(), built.total_mem_ops());
        let debug = format!("{lazy:?}");
        assert!(debug.contains("built: false"), "{debug}");
        let clone = lazy.clone();
        assert!(!lazy.traces.is_built() && !clone.traces.is_built());

        assert!(lazy.traces.materialize(), "the first read builds");
        assert!(!lazy.traces.materialize(), "and only the first");
        assert!(!clone.traces.is_built(), "a clone builds on its own");
        assert_eq!(lazy.traces, built.traces);
        assert_eq!(lazy.content_digest().unwrap(), digest);
        assert_eq!(format!("{lazy:?}"), format!("{built:?}"));
    }

    #[test]
    #[should_panic(expected = "built other records than it digested")]
    fn records_that_do_not_digest_to_the_compiled_digest_are_refused() {
        let generator = Generator::tiny(BenchmarkKind::Fft).unwrap();
        let streams = Streams::lazy(generator, 16, Digest(0), 0, 0);
        streams.materialize();
    }

    #[test]
    fn edited_records_are_the_workload_from_then_on() {
        let (mut lazy, _) = Generator::tiny(BenchmarkKind::Fft)
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
