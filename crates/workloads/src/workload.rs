//! The [`Workload`] container and benchmark identifiers.

use crate::Generator;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;
use tw_trace::{TraceDocument, TraceError};
use tw_types::{Digest, Record, RegionTable, TraceOp};

/// The six applications evaluated in the paper (Table 4.2), plus the
/// catch-all kind for externally captured or hand-written traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BenchmarkKind {
    /// PARSEC fluidanimate (ghost-cell variant).
    Fluidanimate,
    /// SPLASH-2 LU (contiguous/aligned variant).
    Lu,
    /// SPLASH-2 FFT.
    Fft,
    /// SPLASH-2 radix sort.
    Radix,
    /// SPLASH-2 Barnes-Hut (sequential tree build, as in the paper).
    Barnes,
    /// Parallel SAH kD-tree construction.
    KdTree,
    /// A workload replayed from a trace file rather than generated — the
    /// trace-driven interface to third-party reference streams. Not part of
    /// [`BenchmarkKind::ALL`] (the paper's figures) and has no generator.
    Custom,
    /// A workload produced by the seeded random synthesizer (`tw-scenarios`),
    /// which composes sharing-pattern primitives into well-formed reference
    /// streams. Like [`BenchmarkKind::Custom`] it is not part of
    /// [`BenchmarkKind::ALL`] and has no fixed-input generator here: building
    /// one takes a seed, which lives in the synthesizer's configuration.
    Synthesized,
}

impl BenchmarkKind {
    /// All benchmarks in the order the paper's figures present them.
    pub const ALL: [BenchmarkKind; 6] = [
        BenchmarkKind::Fluidanimate,
        BenchmarkKind::Lu,
        BenchmarkKind::Fft,
        BenchmarkKind::Radix,
        BenchmarkKind::Barnes,
        BenchmarkKind::KdTree,
    ];

    /// Figure label.
    pub const fn name(self) -> &'static str {
        match self {
            BenchmarkKind::Fluidanimate => "fluidanimate",
            BenchmarkKind::Lu => "LU",
            BenchmarkKind::Fft => "FFT",
            BenchmarkKind::Radix => "radix",
            BenchmarkKind::Barnes => "barnes",
            BenchmarkKind::KdTree => "kD-tree",
            BenchmarkKind::Custom => "custom",
            BenchmarkKind::Synthesized => "synthesized",
        }
    }

    /// The input size used by the paper (Table 4.2).
    pub const fn paper_input(self) -> &'static str {
        match self {
            BenchmarkKind::Fluidanimate => "simmedium",
            BenchmarkKind::Lu => "512x512 matrix, 16x16 blocks",
            BenchmarkKind::Fft => "256K points",
            BenchmarkKind::Radix => "4 million keys, 1024 radix",
            BenchmarkKind::Barnes => "16K bodies",
            BenchmarkKind::KdTree => "bunny",
            BenchmarkKind::Custom => "external trace",
            BenchmarkKind::Synthesized => "seeded synthesis",
        }
    }

    /// Resolves a benchmark from its figure label (case-insensitive),
    /// including the trace-only kinds `custom` and `synthesized`. Unknown
    /// names are an error naming the rejected input and every accepted name —
    /// callers that want the old "anything replays" behavior (trace headers)
    /// fall back to [`BenchmarkKind::Custom`] explicitly.
    pub fn by_name(name: &str) -> Result<BenchmarkKind, String> {
        // The accepted set and the advertised set must come from the same
        // chain, so a new kind can never desynchronize them.
        let candidates = || {
            BenchmarkKind::ALL
                .into_iter()
                .chain([BenchmarkKind::Custom, BenchmarkKind::Synthesized])
        };
        candidates()
            .find(|b| b.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let names: Vec<&str> = candidates().map(|b| b.name()).collect();
                format!(
                    "unknown benchmark `{name}`; expected one of: {}",
                    names.join(" ")
                )
            })
    }
}

impl fmt::Display for BenchmarkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-core record streams of a [`Workload`] (index = core id); it
/// derefs to them.
///
/// A workload read from a trace or built in memory holds its records from
/// the start (`From<Vec<Vec<TraceOp>>>`). One that [`Generator::digested`]
/// or [`Generator::committed`] made holds its generator instead, with the
/// content digest and the counts of its digest pass, and builds the records
/// the first time anything reads them — once, however many threads read at
/// the same time — and then checks that they digest to that digest and
/// count to those counts. Its core count, record count and
/// memory-op count never build it, nor does `Debug`, and cloning it while
/// unbuilt copies the recipe alone.
///
/// A compiled plan's streams stay unbuilt: the experiment session's
/// `execute` builds a clone of the recipe for the runs that read it and
/// drops that clone after the last of them. What still fills these streams
/// is a caller that reads a workload directly — a `Simulator` built on it,
/// [`Workload::to_trace`], an edit through `DerefMut` — or that calls
/// [`Streams::try_materialize`].
#[derive(Clone)]
pub struct Streams {
    records: OnceLock<Vec<Vec<TraceOp>>>,
    /// What builds `records`, for a workload that was only digested.
    recipe: Option<Recipe>,
}

/// How to build a digested workload's records, and what its digest pass
/// counted (or what a committed line says it counts).
#[derive(Debug, Clone)]
struct Recipe {
    generator: Generator,
    cores: usize,
    digest: Digest,
    records: u64,
    mem_ops: u64,
}

impl Streams {
    /// The streams of a workload whose digest pass is done.
    pub(crate) fn lazy(
        generator: Generator,
        cores: usize,
        digest: Digest,
        records: u64,
        mem_ops: u64,
    ) -> Self {
        Streams {
            records: OnceLock::new(),
            recipe: Some(Recipe {
                generator,
                cores,
                digest,
                records,
                mem_ops,
            }),
        }
    }

    /// Number of streams.
    pub fn cores(&self) -> usize {
        match &self.recipe {
            Some(recipe) => recipe.cores,
            None => self.len(),
        }
    }

    /// Records across every stream.
    pub fn record_count(&self) -> u64 {
        match &self.recipe {
            Some(recipe) => recipe.records,
            None => self.iter().map(|t| t.len() as u64).sum(),
        }
    }

    /// Memory records across every stream.
    pub fn mem_ops(&self) -> u64 {
        match &self.recipe {
            Some(recipe) => recipe.mem_ops,
            None => self.iter().flatten().filter(|op| op.is_mem()).count() as u64,
        }
    }

    /// Whether the records are in memory.
    pub fn is_built(&self) -> bool {
        self.records.get().is_some()
    }

    /// Builds the records unless they are built already, and reports
    /// whether this call built them. Records that are not the ones the
    /// recipe names are an error, and nothing is kept; reading the streams
    /// (`Deref`) panics instead. Unlike a read, two callers racing on
    /// unbuilt streams may both build, and one of their copies is kept: a
    /// caller that wants one build serializes its readers itself.
    ///
    /// # Errors
    ///
    /// The built records do not digest to the recipe's digest, or do not
    /// count to its record and memory-op counts.
    pub fn try_materialize(&self) -> Result<bool, String> {
        if self.is_built() {
            return Ok(false);
        }
        let records = self.recipe().build()?;
        Ok(self.records.set(records).is_ok())
    }

    fn recipe(&self) -> &Recipe {
        self.recipe
            .as_ref()
            .expect("streams without records have a recipe")
    }

    fn build(&self) -> Vec<Vec<TraceOp>> {
        self.recipe().build().unwrap_or_else(|e| panic!("{e}"))
    }
}

impl Recipe {
    /// The records, checked against every number the recipe holds: a
    /// generator whose output is not a function of its input, or a
    /// committed line that is stale, would otherwise run records other
    /// than the ones its cache key names.
    fn build(&self) -> Result<Vec<Vec<TraceOp>>, String> {
        let mut built = self.generator.build(self.cores)?;
        let counts = (built.traces.record_count(), built.traces.mem_ops());
        if built.content_digest().ok() != Some(self.digest)
            || counts != (self.records, self.mem_ops)
        {
            return Err(format!(
                "{} on {} cores built other records than it digested",
                built.kind, self.cores
            ));
        }
        Ok(std::mem::take(&mut *built.traces))
    }
}

impl From<Vec<Vec<TraceOp>>> for Streams {
    fn from(records: Vec<Vec<TraceOp>>) -> Self {
        Streams {
            records: OnceLock::from(records),
            recipe: None,
        }
    }
}

impl FromIterator<Vec<TraceOp>> for Streams {
    fn from_iter<I: IntoIterator<Item = Vec<TraceOp>>>(streams: I) -> Self {
        Streams::from(streams.into_iter().collect::<Vec<_>>())
    }
}

impl Deref for Streams {
    type Target = Vec<Vec<TraceOp>>;

    fn deref(&self) -> &Self::Target {
        self.records.get_or_init(|| self.build())
    }
}

impl DerefMut for Streams {
    /// The records, to be edited: from here on they, not the generator,
    /// are the workload.
    fn deref_mut(&mut self) -> &mut Self::Target {
        let _ = Deref::deref(self);
        self.recipe = None;
        self.records.get_mut().expect("materialized")
    }
}

impl<'a> IntoIterator for &'a Streams {
    type Item = &'a Vec<TraceOp>;
    type IntoIter = std::slice::Iter<'a, Vec<TraceOp>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Streams {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Streams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.records.get() {
            Some(records) => records.fmt(f),
            None => f
                .debug_struct("Streams")
                .field("cores", &self.cores())
                .field("records", &self.record_count())
                .field("built", &false)
                .finish(),
        }
    }
}

/// A complete workload: region annotations plus one trace per core.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which benchmark this is.
    pub kind: BenchmarkKind,
    /// Human-readable description of the input size actually generated.
    pub input: String,
    /// Software-supplied region / Flex / bypass annotations.
    pub regions: RegionTable,
    /// Per-core traces (index = core id).
    pub traces: Streams,
}

impl Workload {
    /// Number of cores the workload was generated for.
    pub fn cores(&self) -> usize {
        self.traces.cores()
    }

    /// Total memory operations across all cores.
    pub fn total_mem_ops(&self) -> usize {
        self.traces.mem_ops() as usize
    }

    /// Number of barriers in core 0's trace (all cores must agree).
    pub fn barriers(&self) -> usize {
        self.traces
            .first()
            .map(|t| {
                t.iter()
                    .filter(|op| matches!(op.view(), Record::Barrier { .. }))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Checks the structural invariants every workload must uphold — at
    /// least one core, every core sees the same barrier sequence, and every
    /// memory access falls in a declared region — returning a description
    /// of the first violation. Replay of externally supplied traces runs
    /// this before simulating, so a malformed trace is a diagnosable error
    /// rather than a simulator deadlock.
    pub fn try_well_formed(&self) -> Result<(), String> {
        if self.traces.is_empty() {
            return Err("workload has no cores".to_string());
        }
        let barrier_seq = |t: &Vec<TraceOp>| {
            t.iter()
                .filter_map(|op| match op.view() {
                    Record::Barrier { id } => Some(id),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let reference = barrier_seq(&self.traces[0]);
        for (i, t) in self.traces.iter().enumerate() {
            if barrier_seq(t) != reference {
                return Err(format!("core {i} disagrees on the barrier sequence"));
            }
        }
        for t in &self.traces {
            for op in t {
                if let Some(addr) = op.addr() {
                    if self.regions.region_of(addr).is_none() {
                        return Err(format!(
                            "access to {addr} falls outside every declared region"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks the structural invariants every generator must uphold (see
    /// [`Workload::try_well_formed`]).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if an invariant is violated; used by
    /// tests and debug assertions in the simulator.
    pub fn assert_well_formed(&self) {
        if let Err(msg) = self.try_well_formed() {
            panic!("{msg}");
        }
    }

    /// The canonical content digest of this workload: its trace header and
    /// its packed records ([`tw_trace::content_digest`]), equal to the
    /// digest of [`Workload::to_trace`] and of that document read back from
    /// either encoding. This is the identity half of a `WorkloadRef` — two
    /// workloads with the same digest have identical streams, regions and
    /// metadata, so every simulation result derived from them is
    /// interchangeable.
    pub fn content_digest(&self) -> Result<tw_types::Digest, TraceError> {
        // Digest the streams where they are instead of going through
        // `to_trace()`, which would clone every per-core stream.
        Ok(tw_trace::content_digest(
            self.kind.name(),
            &self.input,
            &self.regions,
            &self.traces,
        ))
    }

    /// Exports this workload as a persistable [`TraceDocument`].
    pub fn to_trace(&self) -> TraceDocument {
        TraceDocument {
            benchmark: self.kind.name().to_string(),
            input: self.input.clone(),
            regions: self.regions.clone(),
            streams: self.traces.to_vec(),
        }
    }

    /// Builds a first-class workload from a replayed trace.
    ///
    /// The benchmark name in the trace header is mapped back to its
    /// [`BenchmarkKind`] when it names a paper benchmark; anything else
    /// becomes [`BenchmarkKind::Custom`]. The workload invariants are
    /// validated, so a malformed external trace is rejected here rather
    /// than deadlocking the simulator.
    pub fn from_trace(doc: TraceDocument) -> Result<Workload, TraceError> {
        let wl = Workload {
            kind: BenchmarkKind::by_name(&doc.benchmark).unwrap_or(BenchmarkKind::Custom),
            input: doc.input,
            regions: doc.regions,
            traces: doc.streams.into(),
        };
        wl.try_well_formed().map_err(TraceError::Malformed)?;
        Ok(wl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_types::{Addr, RegionId, RegionInfo};

    #[test]
    fn benchmark_names_match_figures() {
        let names: Vec<_> = BenchmarkKind::ALL.iter().map(|b| b.to_string()).collect();
        assert_eq!(
            names,
            vec!["fluidanimate", "LU", "FFT", "radix", "barnes", "kD-tree"]
        );
        assert_eq!(
            BenchmarkKind::Radix.paper_input(),
            "4 million keys, 1024 radix"
        );
    }

    fn tiny_workload() -> Workload {
        let mut regions = RegionTable::new();
        regions.insert(RegionInfo::plain(RegionId(1), "a", Addr::new(0), 4096));
        Workload {
            kind: BenchmarkKind::Fft,
            input: "test".into(),
            regions,
            traces: vec![
                vec![
                    TraceOp::load(Addr::new(0), RegionId(1)),
                    TraceOp::barrier(0),
                ],
                vec![
                    TraceOp::store(Addr::new(64), RegionId(1)),
                    TraceOp::barrier(0),
                ],
            ]
            .into(),
        }
    }

    #[test]
    fn counts_and_validation() {
        let wl = tiny_workload();
        assert_eq!(wl.cores(), 2);
        assert_eq!(wl.total_mem_ops(), 2);
        assert_eq!(wl.barriers(), 1);
        wl.assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "barrier sequence")]
    fn mismatched_barriers_are_detected() {
        let mut wl = tiny_workload();
        wl.traces[1].push(TraceOp::barrier(1));
        wl.assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "outside every declared region")]
    fn out_of_region_access_is_detected() {
        let mut wl = tiny_workload();
        wl.traces[0].push(TraceOp::load(Addr::new(1 << 30), RegionId(1)));
        wl.assert_well_formed();
    }

    #[test]
    fn benchmark_names_round_trip_and_unknowns_are_rejected() {
        for b in BenchmarkKind::ALL {
            assert_eq!(BenchmarkKind::by_name(b.name()), Ok(b));
            assert_eq!(BenchmarkKind::by_name(&b.name().to_uppercase()), Ok(b));
        }
        assert_eq!(BenchmarkKind::by_name("custom"), Ok(BenchmarkKind::Custom));
        assert_eq!(
            BenchmarkKind::by_name("Synthesized"),
            Ok(BenchmarkKind::Synthesized)
        );
        let err = BenchmarkKind::by_name("somebody-elses-trace").unwrap_err();
        assert!(err.contains("somebody-elses-trace"), "{err}");
        assert!(err.contains("fluidanimate"), "{err}");
        assert!(!BenchmarkKind::ALL.contains(&BenchmarkKind::Custom));
        assert!(!BenchmarkKind::ALL.contains(&BenchmarkKind::Synthesized));
    }

    #[test]
    fn content_digest_matches_the_trace_documents_digest() {
        let wl = tiny_workload();
        let doc = wl.to_trace();
        let of_doc =
            tw_trace::content_digest(&doc.benchmark, &doc.input, &doc.regions, &doc.streams);
        assert_eq!(wl.content_digest().unwrap(), of_doc);
        // The header and records of a two-core trace: a literal, so the
        // digest function cannot change unnoticed (see
        // `tiny_content_digests_are_pinned`).
        assert_eq!(
            wl.content_digest().unwrap().to_string(),
            "9e25590c5127767e5998b2513a101190"
        );
        let mut other = tiny_workload();
        other.traces[0][0] = TraceOp::load(Addr::new(128), RegionId(1));
        assert_ne!(
            other.content_digest().unwrap(),
            wl.content_digest().unwrap()
        );
    }

    #[test]
    fn trace_bridge_round_trips_a_workload() {
        let wl = tiny_workload();
        let doc = wl.to_trace();
        assert_eq!(doc.benchmark, "FFT");
        assert_eq!(doc.cores(), 2);
        let back = Workload::from_trace(doc).unwrap();
        assert_eq!(back.kind, BenchmarkKind::Fft);
        assert_eq!(back.input, wl.input);
        assert_eq!(back.traces, wl.traces);
        assert_eq!(back.regions.len(), wl.regions.len());
    }

    #[test]
    fn from_trace_maps_unknown_benchmarks_to_custom() {
        let mut doc = tiny_workload().to_trace();
        doc.benchmark = "their-workload".into();
        let wl = Workload::from_trace(doc).unwrap();
        assert_eq!(wl.kind, BenchmarkKind::Custom);
        assert_eq!(wl.kind.name(), "custom");
        assert_eq!(wl.kind.paper_input(), "external trace");
    }

    #[test]
    fn from_trace_rejects_malformed_streams() {
        // Barrier mismatch between the two cores.
        let mut doc = tiny_workload().to_trace();
        doc.streams[1].push(TraceOp::barrier(9));
        let err = Workload::from_trace(doc).err().unwrap().to_string();
        assert!(err.contains("barrier sequence"), "{err}");

        // Access outside every declared region.
        let mut doc = tiny_workload().to_trace();
        doc.streams[0].push(TraceOp::load(Addr::new(1 << 40), RegionId(1)));
        let err = Workload::from_trace(doc).err().unwrap().to_string();
        assert!(err.contains("outside every declared region"), "{err}");
    }
}
