//! Flight-recorder telemetry for the traffic-waste study.
//!
//! This crate is the *observer lane* of the simulator: structured spans
//! recorded by the engine, the experiment session and the daemon, a
//! deterministic JSONL trace format to persist them, and fixed-bucket log2
//! histograms for service latency exposition. Nothing here may influence a
//! simulated number — recording is wired through an `Option<`[`SpanSink`]`>`
//! that is `None` when off, and every consumer treats the recorder as
//! write-only (see DESIGN.md §15 for the observer-lane argument).
//!
//! # Determinism contract
//!
//! A trace file byte-diffs *modulo timing*: every span quarantines its
//! wall-clock fields in a `timing` sub-object, and everything outside that
//! sub-object — track, name, attributes, sequence numbers — is a pure
//! function of the run's inputs. [`strip_timing`] removes the sub-object
//! from a serialized line; two traces of the same run compare byte-equal
//! after stripping, exactly like the figures JSON does with wall time.
//!
//! Serialization sorts spans by track (stable, preserving within-track
//! emission order) before assigning sequence numbers, so a parallel run —
//! where cells finish in scheduler order — still serializes to the same
//! bytes as a serial one.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tw_obs::{AttrValue, FlightRecorder, Span, SpanSink};
//!
//! let rec = Arc::new(FlightRecorder::new());
//! let sink = SpanSink::new(rec.clone(), "FFT/MESI");
//! sink.emit(Span::event("cell").attr("outcome", "simulated").timing_us("sim_us", 1234));
//! let trace = rec.to_jsonl();
//! let summary = tw_obs::validate_trace(&trace).unwrap();
//! assert_eq!(summary.spans, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod recorder;
pub mod span;
pub mod trace;

pub use hist::Log2Histogram;
pub use json::Json;
pub use recorder::{FlightRecorder, SpanSink};
pub use span::{AttrValue, Span};
pub use trace::{
    diff_traces, strip_timing, stripped_lines, validate_trace, TraceError, TraceSummary,
    TRACE_SCHEMA,
};
