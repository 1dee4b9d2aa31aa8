//! The [`Workload`] container and benchmark identifiers.

use std::fmt;
use tw_trace::{TraceDocument, TraceError};
use tw_types::{Record, RegionTable, TraceOp};

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
    pub traces: Vec<Vec<TraceOp>>,
}

impl Workload {
    /// Number of cores the workload was generated for.
    pub fn cores(&self) -> usize {
        self.traces.len()
    }

    /// Total memory operations across all cores.
    pub fn total_mem_ops(&self) -> usize {
        self.traces
            .iter()
            .map(|t| t.iter().filter(|op| op.is_mem()).count())
            .sum()
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
        tw_trace::content_digest(self.kind.name(), &self.input, &self.regions, &self.traces)
    }

    /// Exports this workload as a persistable [`TraceDocument`].
    pub fn to_trace(&self) -> TraceDocument {
        TraceDocument {
            benchmark: self.kind.name().to_string(),
            input: self.input.clone(),
            regions: self.regions.clone(),
            streams: self.traces.clone(),
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
            traces: doc.streams,
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
            ],
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
        assert_eq!(
            wl.content_digest().unwrap(),
            wl.to_trace().digest().unwrap()
        );
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
