//! The flight recorder and the per-track handle emission sites hold.
//!
//! Everything that can observe a run carries an `Option<SpanSink>`: `None`
//! is the one way to be off, so an unrecorded emission site is one
//! predictable branch (the ops/sec gate in CI verifies the hot path does not
//! pay for telemetry it is not producing), and a present sink always
//! records. [`FlightRecorder`] buffers spans in memory and serializes them as
//! the deterministic JSONL trace described in [`crate::trace`].

use crate::json::Json;
use crate::span::{AttrValue, Span};
use crate::trace::header;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// An in-memory flight recorder. Spans are appended under a mutex (cells
/// run on a session's thread pool; contention is one push per span, not
/// per simulated op) and serialized deterministically by
/// [`FlightRecorder::to_jsonl`].
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
        let mut out = header(spans.len() as u64).compact();
        out.push('\n');
        for (seq, span) in spans.iter().enumerate() {
            out.push_str(&span_json(seq as u64, span).compact());
            out.push('\n');
        }
        out
    }
}

/// One span as the JSON object of its trace line. The `timing` sub-object
/// is always present and always last.
fn span_json(seq: u64, span: &Span) -> Json {
    let attrs = span.attrs.iter().map(|(key, value)| {
        let value = match value {
            AttrValue::U64(v) => Json::UInt(*v),
            AttrValue::Str(s) => Json::str(s.as_str()),
        };
        (key.clone(), value)
    });
    let timing = span
        .timing
        .iter()
        .map(|(key, us)| (key.clone(), Json::UInt(*us)));
    Json::Obj(vec![
        ("seq".to_string(), Json::UInt(seq)),
        ("track".to_string(), Json::str(span.track.as_str())),
        ("name".to_string(), Json::str(span.name.as_str())),
        ("attrs".to_string(), Json::Obj(attrs.collect())),
        ("timing".to_string(), Json::Obj(timing.collect())),
    ])
}

/// Appends `s` to `out` escaped for a JSON string literal (backslash,
/// quote and control characters). The workspace's one escaper: [`Json`]
/// (and through it the span writer here) and the hand-formatted `tw-bench`
/// documents all emit strings through it, so their bytes cannot drift apart.
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

/// A cloneable handle binding the flight recorder to one track. This is
/// what the simulator configuration and the differential runner carry, as an
/// `Option`: a present sink records, an absent one is how recording is off.
#[derive(Debug, Clone)]
pub struct SpanSink {
    recorder: Arc<FlightRecorder>,
    track: String,
}

impl SpanSink {
    /// A sink writing to `recorder` under `track`.
    pub fn new(recorder: Arc<FlightRecorder>, track: impl Into<String>) -> SpanSink {
        SpanSink {
            recorder,
            track: track.into(),
        }
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
        span.track.clone_from(&self.track);
        self.recorder
            .spans
            .lock()
            .expect("flight recorder lock")
            .push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{stripped_lines, validate_trace};

    #[test]
    fn serialization_sorts_by_track_and_numbers_sequentially() {
        let rec = Arc::new(FlightRecorder::new());
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
