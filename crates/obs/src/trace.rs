//! The flight-trace JSONL format: validation, timing-stripping and diff.
//!
//! A trace file is one header line plus one compact JSON object per span:
//!
//! ```text
//! {"schema":"denovo-waste/flight/v1","spans":N}
//! {"seq":0,"track":"...","name":"...","attrs":{...},"timing":{...}}
//! ...
//! {"seq":N-1,...}
//! ```
//!
//! The header's span count is the truncation detector, mirroring the DNVT
//! binary format's end-marker contract: a file with fewer span lines than
//! the header promises is rejected with a *named* [`TraceError::Truncated`]
//! (not silently accepted as a shorter trace), and any structural damage —
//! bad header, out-of-sequence `seq`, a line that is not a span object — is
//! [`TraceError::Corrupt`] with the offense in the message.

use crate::json::Json;

/// Schema identifier carried by every trace header.
pub const TRACE_SCHEMA: &str = "denovo-waste/flight/v1";

/// Why a trace file was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file ends before the span count promised by its header —
    /// the writer crashed or the file was cut mid-stream.
    Truncated {
        /// Span lines the header promised.
        expected: u64,
        /// Span lines actually present.
        found: u64,
    },
    /// The file is structurally damaged: bad header, out-of-sequence
    /// numbering, surplus lines, or a malformed span line.
    Corrupt(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Truncated { expected, found } => write!(
                f,
                "truncated trace: header promises {expected} spans, found {found}"
            ),
            TraceError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// What a validated trace contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Number of span lines.
    pub spans: u64,
}

/// The header line of a trace of `spans` spans — the one definition of its
/// shape, emitted by the writer and compared against by the reader.
pub(crate) fn header(spans: u64) -> Json {
    Json::Obj(vec![
        ("schema".to_string(), Json::str(TRACE_SCHEMA)),
        ("spans".to_string(), Json::UInt(spans)),
    ])
}

/// Validates a trace's framing: header schema and span count, one
/// well-formed span line per promised span, sequence numbers `0..N` in
/// order, nothing after the last span.
///
/// # Errors
///
/// [`TraceError::Truncated`] when span lines are missing,
/// [`TraceError::Corrupt`] for any other structural damage.
pub fn validate_trace(text: &str) -> Result<TraceSummary, TraceError> {
    let spans = walk_trace(text, |_| {})?;
    Ok(TraceSummary { spans })
}

/// Parses one line and reads its counter: `spans` of the header, `seq` of a
/// span.
fn parse_line(line: &str, counter: &str) -> Result<(Json, u64), String> {
    let doc = Json::parse(line)?;
    let n = doc.require(counter)?.as_u64()?;
    Ok((doc, n))
}

/// Parses and validates a trace, handing each line to `each` as it is
/// accepted (header first); returns the number of span lines.
fn walk_trace(text: &str, mut each: impl FnMut(Json)) -> Result<u64, TraceError> {
    let corrupt = TraceError::Corrupt;
    let mut lines = text.lines();
    let first = lines.next().ok_or_else(|| corrupt("empty file".into()))?;
    let (head, expected) =
        parse_line(first, "spans").map_err(|e| corrupt(format!("header: {e}")))?;
    if head != header(expected) {
        let shape = header(expected).compact();
        return Err(corrupt(format!("header must be exactly {shape}")));
    }
    each(head);
    let mut found = 0;
    for line in lines.filter(|l| !l.is_empty()) {
        if found >= expected {
            return Err(corrupt(format!(
                "{} span lines after the {expected} the header promises",
                found + 1 - expected
            )));
        }
        let (span, seq) = parse_line(line, "seq")
            .map_err(|e| corrupt(format!("span line {found} is malformed: {e}")))?;
        if seq != found {
            return Err(corrupt(format!(
                "span line {found} carries seq {seq}; sequence numbers must be consecutive"
            )));
        }
        each(span);
        found += 1;
    }
    if found < expected {
        return Err(TraceError::Truncated { expected, found });
    }
    Ok(found)
}

/// `line` without its top-level `timing` key, re-serialized compactly — for
/// a line the writer produced, the same bytes minus the timing sub-object.
/// Only the top-level key is dropped: the line is parsed, so attribute
/// values containing the text `"timing"` are left alone. Lines without the
/// key (the header) and lines that do not parse pass through unchanged.
pub fn strip_timing(line: &str) -> String {
    Json::parse(line).map_or_else(|_| line.to_string(), without_timing)
}

fn without_timing(line: Json) -> String {
    match line {
        Json::Obj(mut fields) => {
            fields.retain(|(key, _)| key != "timing");
            Json::Obj(fields).compact()
        }
        other => other.compact(),
    }
}

/// Validates a trace and returns its lines with timing stripped (header
/// included, unmodified) — the canonical form two traces of the same run
/// compare byte-equal in.
///
/// # Errors
///
/// Any [`TraceError`] from [`validate_trace`].
pub fn stripped_lines(text: &str) -> Result<Vec<String>, TraceError> {
    let mut stripped = Vec::new();
    walk_trace(text, |line| stripped.push(without_timing(line)))?;
    Ok(stripped)
}

/// Diffs two traces modulo timing. `None` means identical; `Some` names the
/// first divergence (span count or first differing line).
///
/// # Errors
///
/// Any [`TraceError`] from validating either input.
pub fn diff_traces(a: &str, b: &str) -> Result<Option<String>, TraceError> {
    let la = stripped_lines(a)?;
    let lb = stripped_lines(b)?;
    if la.len() != lb.len() {
        return Ok(Some(format!(
            "span counts differ: {} vs {}",
            la.len().saturating_sub(1),
            lb.len().saturating_sub(1)
        )));
    }
    for (i, (x, y)) in la.iter().zip(&lb).enumerate() {
        if x != y {
            return Ok(Some(format!("line {i}:\n  a: {x}\n  b: {y}")));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FlightRecorder, SpanSink};
    use crate::span::Span;
    use std::sync::Arc;

    fn sample_trace() -> String {
        let rec = Arc::new(FlightRecorder::new());
        let sink = SpanSink::new(rec.clone(), "FFT/MESI");
        sink.emit(Span::event("phase").attr("phase", 0u64));
        sink.emit(
            Span::event("cell")
                .attr("outcome", "simulated")
                .timing_us("sim_us", 42),
        );
        rec.to_jsonl()
    }

    #[test]
    fn valid_trace_validates() {
        let t = sample_trace();
        assert_eq!(validate_trace(&t).unwrap(), TraceSummary { spans: 2 });
    }

    #[test]
    fn truncated_trace_is_a_named_error() {
        let t = sample_trace();
        let cut: String = t.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert_eq!(
            validate_trace(&cut),
            Err(TraceError::Truncated {
                expected: 2,
                found: 1
            })
        );
    }

    #[test]
    fn surplus_lines_bad_header_and_bad_seq_are_corrupt() {
        let t = sample_trace();
        let extra = format!("{t}{}", t.lines().nth(2).unwrap());
        assert!(matches!(
            validate_trace(&extra),
            Err(TraceError::Corrupt(_))
        ));

        let bad_header = t.replacen("flight/v1", "flight/v9", 1);
        assert!(matches!(
            validate_trace(&bad_header),
            Err(TraceError::Corrupt(_))
        ));

        let bad_seq = t.replacen("{\"seq\":1,", "{\"seq\":7,", 1);
        assert!(matches!(
            validate_trace(&bad_seq),
            Err(TraceError::Corrupt(_))
        ));

        assert!(matches!(validate_trace(""), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn strip_timing_ignores_lookalike_attr_values() {
        let rec = Arc::new(FlightRecorder::new());
        let sink = SpanSink::new(rec.clone(), "t");
        sink.emit(
            Span::event("cell")
                .attr("note", "\"timing\":{ inside a string")
                .timing_us("wall_us", 5),
        );
        let line = rec.to_jsonl().lines().nth(1).unwrap().to_string();
        let stripped = strip_timing(&line);
        assert!(stripped.contains("inside a string"));
        assert!(!stripped.contains("wall_us"));
        assert!(stripped.ends_with("}}"));
    }

    #[test]
    fn diff_is_none_for_same_run_and_names_first_divergence() {
        let a = sample_trace();
        let b = sample_trace();
        assert_eq!(diff_traces(&a, &b).unwrap(), None);
        // Different timing only: still identical.
        let b_timed = b.replace("\"sim_us\":42", "\"sim_us\":9000");
        assert_eq!(diff_traces(&a, &b_timed).unwrap(), None);
        // Different attr: named divergence.
        let b_attr = a.replace("\"outcome\":\"simulated\"", "\"outcome\":\"hit\"");
        let d = diff_traces(&a, &b_attr).unwrap().unwrap();
        assert!(d.contains("line 2"), "{d}");
    }
}
