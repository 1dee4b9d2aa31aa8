//! Structured spans: the unit of flight-recorder telemetry.
//!
//! A [`Span`] is one observed episode — a barrier phase inside the engine, a
//! cell executed by the session, a request served by the daemon — addressed
//! by a *track* (the grouping key: cell label, request id) and a *name* (the
//! span kind within the track). Deterministic payload lives in `attrs`;
//! wall-clock measurements are quarantined in `timing` so serialized traces
//! byte-diff modulo timing (see the crate docs).

/// One attribute value. The deterministic payload deliberately supports only
/// unsigned integers and strings — floats would drag formatting questions
/// into the byte-identity contract (deterministic f64s travel as
/// fixed-precision strings, exactly like the daemon's wire JSON).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// An unsigned integer.
    U64(u64),
    /// A string.
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One recorded span. `track` is filled in by the [`crate::SpanSink`] that
/// emits it; builders construct the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Grouping key: the cell label, request id, or subsystem the span
    /// belongs to. Serialization orders spans by track.
    pub track: String,
    /// Span kind within the track (`phase`, `cell`, `run`, `request`).
    pub name: String,
    /// Deterministic payload, serialized in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
    /// Wall-clock fields (microseconds), quarantined in the serialized
    /// `timing` sub-object and stripped before byte comparison.
    pub timing: Vec<(String, u64)>,
}

impl Span {
    /// A span with the given name and no payload yet; the emitting sink
    /// assigns the track.
    pub fn event(name: impl Into<String>) -> Span {
        Span {
            track: String::new(),
            name: name.into(),
            attrs: Vec::new(),
            timing: Vec::new(),
        }
    }

    /// Appends one deterministic attribute.
    #[must_use]
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<AttrValue>) -> Span {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// The integer attribute `key`, if the span carries one.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find_map(|(k, v)| match v {
            AttrValue::U64(n) if k == key => Some(*n),
            _ => None,
        })
    }

    /// Appends one wall-clock field (microseconds) to the quarantined
    /// `timing` sub-object.
    #[must_use]
    pub fn timing_us(mut self, key: impl Into<String>, us: u64) -> Span {
        self.timing.push((key.into(), us));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_in_order() {
        let s = Span::event("phase")
            .attr("phase", 3u64)
            .attr("proto", "MESI")
            .timing_us("wall_us", 17);
        assert_eq!(s.name, "phase");
        assert_eq!(
            s.attrs,
            vec![
                ("phase".to_string(), AttrValue::U64(3)),
                ("proto".to_string(), AttrValue::Str("MESI".to_string())),
            ]
        );
        assert_eq!(s.timing, vec![("wall_us".to_string(), 17)]);
        assert_eq!(s.attr_u64("phase"), Some(3));
        assert_eq!(s.attr_u64("proto"), None, "a string, not an integer");
        assert_eq!(s.attr_u64("absent"), None);
    }
}
