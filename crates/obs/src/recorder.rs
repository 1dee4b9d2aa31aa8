//! The [`Recorder`] trait and its two implementations.
//!
//! Everything that can observe a run takes a recorder handle; the default is
//! [`NoopRecorder`], whose `enabled()` is a constant `false` so every
//! emission site reduces to one predictable branch (the ops/sec gate in CI
//! verifies the hot path does not pay for telemetry it is not producing).
//! [`FlightRecorder`] buffers spans in memory and serializes them as the
//! deterministic JSONL trace described in [`crate::trace`].

use crate::span::{AttrValue, Span};
use crate::trace::TRACE_SCHEMA;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// A write-only span sink. Implementations must be cheap to probe via
/// `enabled()` — emission sites guard span *construction* on it, so a
/// disabled recorder costs one branch, not one allocation.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Whether spans are being captured. Sites skip building spans when
    /// this is `false`.
    fn enabled(&self) -> bool;

    /// Accepts one span. Must not panic; must not observe or influence the
    /// caller beyond consuming the span.
    fn record(&self, span: Span);
}

/// The compiled-out default: never enabled, drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _span: Span) {}
}

/// An in-memory flight recorder. Spans are appended under a mutex (cells
/// fan out on rayon; contention is one push per span, not per simulated
/// op) and serialized deterministically by [`FlightRecorder::to_jsonl`].
#[derive(Debug, Default)]
pub struct FlightRecorder {
    spans: Mutex<Vec<Span>>,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Number of spans captured so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("flight recorder lock").len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the captured spans, in arrival order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("flight recorder lock").clone()
    }

    /// Serializes the captured spans as the deterministic JSONL trace:
    /// a header line naming the schema and span count, then one compact
    /// JSON object per span.
    ///
    /// Spans are stably sorted by track before sequence numbers are
    /// assigned, so the output does not depend on the order parallel cells
    /// happened to finish in — only on the (deterministic) per-track
    /// emission order and the set of tracks.
    pub fn to_jsonl(&self) -> String {
        let mut spans = self.spans();
        spans.sort_by(|a, b| a.track.cmp(&b.track));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"spans\":{}}}",
            spans.len()
        );
        for (seq, span) in spans.iter().enumerate() {
            write_span_line(&mut out, seq as u64, span);
        }
        out
    }
}

impl Recorder for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("flight recorder lock").push(span);
    }
}

/// Serializes one span as a compact single-line JSON object. The `timing`
/// sub-object is always present and always last, which is what lets
/// [`crate::strip_timing`] remove it with a linear scan.
fn write_span_line(out: &mut String, seq: u64, span: &Span) {
    let _ = write!(
        out,
        "{{\"seq\":{seq},\"track\":\"{}\",\"name\":\"{}\",\"attrs\":{{",
        escaped(&span.track),
        escaped(&span.name)
    );
    for (i, (key, value)) in span.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", escaped(key));
        match value {
            AttrValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::Str(s) => {
                let _ = write!(out, "\"{}\"", escaped(s));
            }
        }
    }
    out.push_str("},\"timing\":{");
    for (i, (key, us)) in span.timing.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{us}", escaped(key));
    }
    out.push_str("}}\n");
}

/// Appends `s` to `out` escaped for a JSON string literal (backslash,
/// quote and control characters). The workspace's one escaper: the span
/// writer here, `denovo_waste::Json` and the `tw-bench` documents all emit
/// strings through it, so their bytes cannot drift apart.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// [`escape_into`] a fresh string, for `format!` arguments.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// A cloneable handle binding a recorder to one track. This is what the
/// simulator configuration and the differential runner carry: emission
/// sites call [`SpanSink::emit`] without knowing which recorder (if any)
/// is behind it.
#[derive(Debug, Clone)]
pub struct SpanSink {
    recorder: Arc<dyn Recorder>,
    track: String,
}

impl SpanSink {
    /// A sink writing to `recorder` under `track`.
    pub fn new(recorder: Arc<dyn Recorder>, track: impl Into<String>) -> SpanSink {
        SpanSink {
            recorder,
            track: track.into(),
        }
    }

    /// Whether the underlying recorder captures spans. Guard span
    /// construction on this.
    pub fn enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// The track this sink emits under.
    pub fn track(&self) -> &str {
        &self.track
    }

    /// The same recorder under a different track (how the session derives
    /// per-cell sinks from its run-level recorder).
    pub fn with_track(&self, track: impl Into<String>) -> SpanSink {
        SpanSink {
            recorder: Arc::clone(&self.recorder),
            track: track.into(),
        }
    }

    /// Emits one span on this sink's track.
    pub fn emit(&self, mut span: Span) {
        if !self.recorder.enabled() {
            return;
        }
        span.track.clone_from(&self.track);
        self.recorder.record(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{stripped_lines, validate_trace};

    #[test]
    fn noop_recorder_is_disabled_and_silent() {
        let noop = NoopRecorder;
        assert!(!noop.enabled());
        noop.record(Span::event("cell")); // must not panic
    }

    #[test]
    fn serialization_sorts_by_track_and_numbers_sequentially() {
        let rec = FlightRecorder::new();
        SpanSink::new(Arc::new(NoopRecorder), "ignored").emit(Span::event("dropped"));
        let rec = Arc::new(rec);
        // Emit on tracks out of lexicographic order, as parallel cells would.
        SpanSink::new(rec.clone(), "b/cell").emit(Span::event("cell").attr("n", 1u64));
        SpanSink::new(rec.clone(), "a/cell").emit(Span::event("phase").attr("n", 2u64));
        SpanSink::new(rec.clone(), "a/cell").emit(Span::event("cell").attr("n", 3u64));
        let text = rec.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"spans\":3"));
        // a/cell's two spans first (emission order preserved), then b/cell.
        assert!(lines[1].starts_with("{\"seq\":0,\"track\":\"a/cell\",\"name\":\"phase\""));
        assert!(lines[2].starts_with("{\"seq\":1,\"track\":\"a/cell\",\"name\":\"cell\""));
        assert!(lines[3].starts_with("{\"seq\":2,\"track\":\"b/cell\",\"name\":\"cell\""));
        assert_eq!(validate_trace(&text).unwrap().spans, 3);
    }

    #[test]
    fn timing_is_quarantined_and_strippable() {
        let rec = Arc::new(FlightRecorder::new());
        let sink = SpanSink::new(rec.clone(), "t");
        sink.emit(
            Span::event("cell")
                .attr("label", "x\"y") // escaping must not confuse the stripper
                .timing_us("wall_us", 123),
        );
        let with = rec.to_jsonl();
        assert!(with.contains("\"timing\":{\"wall_us\":123}"));
        let stripped = stripped_lines(&with).unwrap();
        assert!(!stripped[1].contains("wall_us"));
        assert!(stripped[1].contains("x\\\"y"));
    }

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escaped("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(escaped("line\r\tbreak"), "line\\r\\tbreak");
        assert_eq!(escaped("plain"), "plain");
    }
}
