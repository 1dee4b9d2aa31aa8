//! The trace file formats for per-core memory-reference streams.
//!
//! The simulator drives every protocol configuration with per-core
//! [`tw_types::TraceOp`] streams. This crate makes those streams a durable,
//! exchangeable artifact — the universal workload interface of classic
//! trace-driven cache simulators — as a [`TraceDocument`] in two encodings:
//!
//! * a **compact, versioned binary format** (`DNVT` magic + version byte)
//!   with varint/zigzag-delta-encoded addresses, explicit barrier framing of
//!   phases, per-core streams and the full region-annotation table; and
//! * a **human-readable text format** for hand-written scenarios and code
//!   review.
//!
//! [`TraceDocument::from_bytes`] reads either, and both round-trip a
//! document exactly; [`diff()`] reports the first divergence between two
//! documents, which CI uses as a byte-exact determinism oracle (see
//! `DESIGN.md` §8).
//!
//! # Example
//!
//! ```
//! use tw_trace::TraceDocument;
//! use tw_types::{Addr, RegionId, RegionInfo, RegionTable, TraceOp};
//!
//! let mut regions = RegionTable::new();
//! regions.insert(RegionInfo::plain(RegionId(1), "a", Addr::new(0), 4096));
//! let doc = TraceDocument {
//!     benchmark: "custom".into(),
//!     input: "hand-written".into(),
//!     regions,
//!     streams: vec![vec![
//!         TraceOp::load(Addr::new(0), RegionId(1)),
//!         TraceOp::barrier(0),
//!     ]],
//! };
//! let bytes = doc.to_binary_bytes().unwrap();
//! let back = TraceDocument::from_bytes(&bytes).unwrap();
//! assert!(tw_trace::diff(&doc, &back).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod diff;
mod text;
mod varint;

pub use diff::{diff, TraceDivergence};

use std::fmt;
use std::io;
use std::path::Path;
use tw_types::{RegionTable, TraceOp, TraceStats};

/// Errors reading or writing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The input is not a valid trace (bad magic, truncated stream,
    /// unsupported version, unparsable text, ...). The string names the
    /// offending construct.
    Malformed(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Malformed(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A complete trace: workload metadata, region annotations and one
/// [`TraceOp`] stream per core.
///
/// This is the in-memory form both encodings serialize; `tw-workloads`
/// bridges it to and from a first-class `Workload`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDocument {
    /// Benchmark name (a paper benchmark's figure label, or anything else
    /// for external/hand-written traces — replay maps unknown names to the
    /// `Custom` benchmark kind).
    pub benchmark: String,
    /// Human-readable input description.
    pub input: String,
    /// Software-supplied region / Flex / bypass annotations.
    pub regions: RegionTable,
    /// Per-core reference streams (index = core id).
    pub streams: Vec<Vec<TraceOp>>,
}

/// The content digest of a trace given as its parts, so a caller holding
/// the streams in another container (`Workload::content_digest`, over the
/// benchmark name a trace replays as) digests them where they are.
///
/// It digests the binary header (benchmark, input, core count, region
/// table: the bytes a binary trace file starts with), then each core's
/// stream as its length and its packed records, read in place
/// ([`tw_types::Digester::write_records`]). The identity is therefore a
/// property of the content, not of either encoding: a document and its
/// binary or text round trip share it, and any change to a record, to the
/// order of the records or to the metadata moves it.
pub fn content_digest(
    benchmark: &str,
    input: &str,
    regions: &RegionTable,
    streams: &[Vec<TraceOp>],
) -> tw_types::Digest {
    let mut d = ContentDigester::new(benchmark, input, streams.len(), regions);
    for stream in streams {
        d.stream(stream);
    }
    d.finish()
}

/// [`content_digest`] fed one stream at a time, for a producer that holds
/// one core's records at once: a generator's digest pass.
#[derive(Debug, Clone)]
pub struct ContentDigester(tw_types::Digester);

impl ContentDigester {
    /// Digests the header of a trace of `cores` streams.
    pub fn new(benchmark: &str, input: &str, cores: usize, regions: &RegionTable) -> Self {
        let mut header = Vec::new();
        binary::encode_header(&mut header, benchmark, input, cores, regions);
        let mut d = tw_types::Digester::new();
        d.write_bytes(&header);
        ContentDigester(d)
    }

    /// Digests the next core's stream.
    pub fn stream(&mut self, records: &[TraceOp]) {
        self.0.write_records(records);
    }

    /// The content digest of the header and the streams so far.
    pub fn finish(&self) -> tw_types::Digest {
        self.0.finish()
    }
}

impl TraceDocument {
    /// Number of cores the trace was recorded for.
    pub fn cores(&self) -> usize {
        self.streams.len()
    }

    /// Per-core summary statistics.
    pub fn stats(&self) -> Vec<TraceStats> {
        self.streams
            .iter()
            .map(|s| TraceStats::from_stream(s))
            .collect()
    }

    /// Summary statistics aggregated over all cores.
    pub fn total_stats(&self) -> TraceStats {
        let mut total = TraceStats::default();
        for s in self.stats() {
            total.merge(&s);
        }
        total
    }

    /// Writes the binary encoding to `w`: the header, then each core's
    /// stream, encoded into one reused buffer and written whole, so no more
    /// than one stream's encoding is held at a time.
    fn write_binary<W: io::Write>(&self, mut w: W) -> io::Result<()> {
        let mut buf = Vec::new();
        binary::encode_header(
            &mut buf,
            &self.benchmark,
            &self.input,
            self.cores(),
            &self.regions,
        );
        w.write_all(&buf)?;
        for stream in &self.streams {
            buf.clear();
            binary::encode_stream(&mut buf, stream);
            w.write_all(&buf)?;
        }
        Ok(())
    }

    /// The binary encoding as a byte vector.
    pub fn to_binary_bytes(&self) -> Result<Vec<u8>, TraceError> {
        let mut buf = Vec::new();
        self.write_binary(&mut buf)?;
        Ok(buf)
    }

    /// The text encoding as a string.
    pub fn to_text(&self) -> String {
        text::emit(self)
    }

    /// Parses the text format.
    pub fn from_text(s: &str) -> Result<Self, TraceError> {
        text::parse(s)
    }

    /// Parses a trace in either encoding, detected by the leading magic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.starts_with(binary::BINARY_MAGIC) {
            binary::decode(bytes)
        } else {
            let s = std::str::from_utf8(bytes).map_err(|_| {
                TraceError::Malformed("neither the binary magic nor valid UTF-8 text".to_string())
            })?;
            TraceDocument::from_text(s)
        }
    }

    /// Writes the trace to `path` (binary unless `as_text`).
    pub fn save(&self, path: &Path, as_text: bool) -> Result<(), TraceError> {
        if as_text {
            std::fs::write(path, self.to_text())?;
        } else {
            self.write_binary(std::fs::File::create(path)?)?;
        }
        Ok(())
    }

    /// Reads a trace from `path` in either encoding.
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        let bytes = std::fs::read(path)?;
        TraceDocument::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_types::{Addr, RegionId, RegionInfo};

    pub(crate) fn sample_doc() -> TraceDocument {
        let mut regions = RegionTable::new();
        regions.insert(RegionInfo::plain(RegionId(1), "a", Addr::new(0), 4096));
        let mut shared = RegionInfo::plain(RegionId(2), "dest array", Addr::new(4096), 8192);
        shared.bypass = tw_types::BypassKind::StreamingOncePerPhase;
        shared.written_in_parallel_phases = false;
        shared.comm = Some(tw_types::CommRegion {
            object_bytes: 96,
            useful_offsets: vec![0, 8, 16, 80],
        });
        regions.insert(shared);
        TraceDocument {
            benchmark: "FFT".into(),
            input: "64 points".into(),
            regions,
            streams: vec![
                vec![
                    TraceOp::load(Addr::new(0), RegionId(1)),
                    TraceOp::compute(12),
                    TraceOp::store(Addr::new(4096), RegionId(2)),
                    TraceOp::barrier(0),
                    TraceOp::barrier(1),
                ],
                vec![
                    TraceOp::store(Addr::new(64), RegionId(1)),
                    TraceOp::barrier(0),
                    TraceOp::load(Addr::new(4160), RegionId(2)),
                    TraceOp::barrier(1),
                ],
            ],
        }
    }

    #[test]
    fn binary_round_trip_preserves_everything() {
        let doc = sample_doc();
        let bytes = doc.to_binary_bytes().unwrap();
        assert_eq!(&bytes[..4], binary::BINARY_MAGIC);
        let back = TraceDocument::from_bytes(&bytes).unwrap();
        assert_eq!(doc, back);
        assert!(diff(&doc, &back).is_none());
    }

    #[test]
    fn text_round_trip_preserves_everything() {
        let doc = sample_doc();
        let text = doc.to_text();
        let back = TraceDocument::from_bytes(text.as_bytes()).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn stats_summarize_streams() {
        let doc = sample_doc();
        let total = doc.total_stats();
        assert_eq!(total.loads, 2);
        assert_eq!(total.stores, 2);
        assert_eq!(total.compute_cycles, 12);
        assert_eq!(total.barriers, 4);
        assert_eq!(doc.stats().len(), 2);
    }

    fn digest_of(doc: &TraceDocument) -> tw_types::Digest {
        content_digest(&doc.benchmark, &doc.input, &doc.regions, &doc.streams)
    }

    proptest::proptest! {
        /// The digest is the content's, not an encoding's: a document read
        /// back from either encoding digests like the one written.
        #[test]
        fn digest_survives_binary_and_text_round_trips(
            raw in binary::tests::arbitrary_streams(),
        ) {
            let doc = TraceDocument {
                benchmark: "custom".into(),
                input: "arbitrary".into(),
                regions: binary::tests::regions_one(),
                streams: binary::tests::streams_of(raw),
            };
            let digest = digest_of(&doc);
            let binary = TraceDocument::from_bytes(&doc.to_binary_bytes().unwrap()).unwrap();
            proptest::prop_assert_eq!(digest_of(&binary), digest);
            let text = TraceDocument::from_text(&doc.to_text()).unwrap();
            proptest::prop_assert_eq!(digest_of(&text), digest);
        }
    }

    /// Every edit below makes a different document, so each must make a
    /// digest no other one has.
    #[test]
    fn every_content_edit_moves_the_digest() {
        let mut digests = std::collections::BTreeSet::new();
        let mut distinct = |doc: &TraceDocument, what: &str| {
            assert!(digests.insert(digest_of(doc)), "{what}");
        };
        distinct(&sample_doc(), "the original");
        let others = [
            TraceOp::load(Addr::new(8), RegionId(1)),
            TraceOp::store(Addr::new(0), RegionId(1)),
            TraceOp::load(Addr::new(4096), RegionId(2)),
            TraceOp::compute(13),
            TraceOp::barrier(2),
        ];
        let doc = sample_doc();
        for (core, stream) in doc.streams.iter().enumerate() {
            for (at, &op) in stream.iter().enumerate() {
                for &other in others.iter().filter(|&&o| o != op) {
                    let mut edited = sample_doc();
                    edited.streams[core][at] = other;
                    distinct(&edited, &format!("core {core} record {at} -> {other:?}"));
                }
                if at + 1 < stream.len() {
                    let mut swapped = sample_doc();
                    swapped.streams[core].swap(at, at + 1);
                    distinct(&swapped, &format!("core {core} swap {at}"));
                }
            }
        }
        let mut moved = sample_doc();
        let last = moved.streams[0].pop().unwrap();
        moved.streams[1].insert(0, last);
        distinct(&moved, "core 0's last record moved to core 1's head");
        let mut other = sample_doc();
        other.benchmark = "LU".into();
        distinct(&other, "benchmark");
        let mut other = sample_doc();
        other.input = "65 points".into();
        distinct(&other, "input");
        let mut other = sample_doc();
        other.regions = RegionTable::new();
        for r in sample_doc().regions.iter() {
            let mut r = r.clone();
            r.written_in_parallel_phases |= r.id == RegionId(2);
            other.regions.insert(r);
        }
        distinct(&other, "a region field");
    }

    #[test]
    fn garbage_input_is_rejected() {
        assert!(matches!(
            TraceDocument::from_bytes(&[0xde, 0xad, 0xbe, 0xef]),
            Err(TraceError::Malformed(_))
        ));
        assert!(TraceDocument::from_bytes(b"not a trace").is_err());
    }

    #[test]
    fn save_and_load_both_encodings() {
        let dir = std::env::temp_dir().join("tw-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let doc = sample_doc();
        for (name, as_text) in [("t.trace", false), ("t.txt", true)] {
            let path = dir.join(name);
            doc.save(&path, as_text).unwrap();
            assert_eq!(TraceDocument::load(&path).unwrap(), doc);
            std::fs::remove_file(&path).ok();
        }
    }
}
