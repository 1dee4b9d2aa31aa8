//! Trace capture/replay formats for per-core memory-reference streams.
//!
//! The simulator drives every protocol configuration with per-core
//! [`tw_types::TraceOp`] streams. This crate makes those streams a durable,
//! exchangeable artifact — the universal workload interface of classic
//! trace-driven cache simulators — in two encodings:
//!
//! * a **compact, versioned binary format** (`DNVT` magic + version byte)
//!   with varint/zigzag-delta-encoded addresses, explicit barrier framing of
//!   phases, per-core streams and the full region-annotation table
//!   ([`binary`]); and
//! * a **human-readable text format** for hand-written scenarios and code
//!   review ([`text`]).
//!
//! Both encodings round-trip a [`TraceDocument`] exactly; [`diff`] reports
//! the first divergence between two documents, which CI uses as a byte-exact
//! determinism oracle (see `DESIGN.md` §8).
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

pub mod binary;
pub mod diff;
pub mod text;
pub mod varint;

pub use binary::{TraceReader, TraceWriter, BINARY_MAGIC, FORMAT_VERSION};
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

/// Encodes a trace given as its parts, so a caller holding the streams in
/// another container need not clone them into a [`TraceDocument`] first.
fn write_binary_parts<W: io::Write>(
    w: W,
    benchmark: &str,
    input: &str,
    regions: &RegionTable,
    streams: &[Vec<TraceOp>],
) -> Result<W, TraceError> {
    let mut writer = TraceWriter::new(w, benchmark, input, streams.len(), regions)?;
    for stream in streams {
        for op in stream {
            writer.op(op)?;
        }
        writer.end_stream()?;
    }
    writer.finish()
}

/// The digest of the binary encoding of a trace given as its parts (see
/// [`TraceDocument::digest`]), streamed without materializing the bytes.
pub fn content_digest(
    benchmark: &str,
    input: &str,
    regions: &RegionTable,
    streams: &[Vec<TraceOp>],
) -> Result<tw_types::Digest, TraceError> {
    let sink = tw_types::DigestWriter::new();
    Ok(write_binary_parts(sink, benchmark, input, regions, streams)?.finish())
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

    /// Serializes the document in the binary format.
    pub fn write_binary<W: io::Write>(&self, w: W) -> Result<(), TraceError> {
        write_binary_parts(
            w,
            &self.benchmark,
            &self.input,
            &self.regions,
            &self.streams,
        )?;
        Ok(())
    }

    fn decode_binary(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut reader = TraceReader::new(bytes)?;
        let mut streams = Vec::with_capacity(reader.cores());
        while let Some(stream) = reader.next_stream()? {
            streams.push(stream);
        }
        reader.expect_eof()?;
        Ok(TraceDocument {
            benchmark: reader.benchmark().to_string(),
            input: reader.input().to_string(),
            regions: reader.take_regions(),
            streams,
        })
    }

    /// The binary encoding as a byte vector.
    pub fn to_binary_bytes(&self) -> Result<Vec<u8>, TraceError> {
        let mut buf = Vec::new();
        self.write_binary(&mut buf)?;
        Ok(buf)
    }

    /// The canonical content digest of this trace: the digest of its binary
    /// encoding, streamed without materializing the bytes. Two documents
    /// share a digest exactly when their binary encodings are identical,
    /// which (by the round-trip property) means they are structurally equal
    /// — this is the workload identity the experiment layer's cell identity
    /// and result-cache keys are built from.
    pub fn digest(&self) -> Result<tw_types::Digest, TraceError> {
        content_digest(&self.benchmark, &self.input, &self.regions, &self.streams)
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
        if bytes.starts_with(BINARY_MAGIC) {
            TraceDocument::decode_binary(bytes)
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
            let file = std::fs::File::create(path)?;
            self.write_binary(io::BufWriter::new(file))?;
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
        assert_eq!(&bytes[..4], BINARY_MAGIC);
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

    #[test]
    fn digest_matches_binary_bytes_and_tracks_content() {
        let doc = sample_doc();
        let streamed = doc.digest().unwrap();
        let materialized = tw_types::Digest::of_bytes(&doc.to_binary_bytes().unwrap());
        assert_eq!(streamed, materialized);

        // Any content change — op stream, metadata, region annotations —
        // must move the digest.
        let mut other = sample_doc();
        other.streams[0][0] = TraceOp::load(Addr::new(8), RegionId(1));
        assert_ne!(other.digest().unwrap(), streamed);
        let mut other = sample_doc();
        other.input = "65 points".into();
        assert_ne!(other.digest().unwrap(), streamed);
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
