//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the public
//! calls into each layer (the program itself is not instrumented by this
//! package). They stay in memory until the run ends and are then written as
//! JSON Lines. A span's *layer* is the part of its name before the first
//! dot; a span's *self time* is its duration minus its direct children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes the span that caused it; spans of
/// one benchmark op share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u32,
}

/// Handle returned by [`Tracer::begin`], consumed by [`Tracer::end`].
#[derive(Debug)]
#[must_use = "a begun span must be ended"]
pub struct Open(usize);

/// Records spans on one thread with stack discipline: a span begun while
/// another is open is that span's child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next op: later spans carry its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Ends the innermost open span, which must be `open`.
    pub fn end(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must end innermost first");
        self.spans[open.0].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as JSON Lines, one span per line, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span, in nanoseconds: duration minus the durations
/// of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Per span name: how many were recorded and their summed self time (ns).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0,100] { plan.compile [10,70] { workloads.generate [20,50] },
        //              figures.render [80,95] }
        let spans = vec![
            span("op", 0, 100, None),
            span("plan.compile", 10, 70, Some(0)),
            span("workloads.generate", 20, 50, Some(1)),
            span("figures.render", 80, 95, Some(0)),
        ];
        // Grandchildren are charged to their parent only: 100 − 60 − 15.
        assert_eq!(self_times(&spans), vec![25, 30, 30, 15]);
        // Self times tile the root: nothing is counted twice or lost.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let names = by_name(&spans);
        assert_eq!(names["plan.compile"], (1, 30));
        assert_eq!(layer_of("workloads.generate"), "workloads");
        assert_eq!(layer_of("op"), "op");
    }

    #[test]
    fn tracer_nests_by_stack_and_tags_ops() {
        let mut t = Tracer::new();
        t.next_op();
        let op = t.begin("op");
        t.span("plan.parse", || ());
        let c = t.begin("plan.compile");
        t.span("workloads.generate", || ());
        t.end(c);
        t.end(op);
        t.next_op();
        t.span("op", || ());
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!((s[0].op, s[4].op), (1, 2));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.to_jsonl().lines().count(), 5);
        assert!(t.to_jsonl().contains("\"parent\": null"));
    }
}
