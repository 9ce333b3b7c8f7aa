//! In-memory spans for the traced replay, and self-time arithmetic.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! started), a parent and the index of the request it belongs to. A
//! *probe* span re-runs, on the request's own inputs, work that an opaque
//! call around it already did (for instance the Monte-Carlo width solve
//! inside `Pipeline::evaluate`); it runs inside its parent's interval.
//!
//! Self time of a span = its duration − the time its children's intervals
//! cover − the duration of its probe children. A probe is subtracted a
//! second time because the parent's own call did the same work, so the
//! self times of a request's spans add up to its duration minus the
//! duplicated work.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a trace.
    pub id: u64,
    /// Layer-qualified name, e.g. `json.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer started.
    pub start: u64,
    /// End, nanoseconds since the tracer started.
    pub end: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The request (line index) it belongs to.
    pub request: usize,
    /// Whether it re-runs work its parent's call already did.
    pub probe: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// One JSON line.
    pub fn to_json_line(&self) -> String {
        format!(
            r#"{{"id":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"request":{},"probe":{}}}"#,
            self.id,
            self.name,
            self.start,
            self.end,
            self.parent.map_or("null".to_string(), |p| p.to_string()),
            self.request,
            self.probe
        )
    }
}

/// A side measurement attached to a request (e.g. a sweep's time to its
/// first report).
#[derive(Debug, Clone, PartialEq)]
pub struct Note {
    /// The request (line index).
    pub request: usize,
    /// What was measured.
    pub name: &'static str,
    /// The value.
    pub value: f64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    notes: Mutex<Vec<Note>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            notes: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Store a finished span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Store a side measurement.
    pub fn note(&self, request: usize, name: &'static str, value: f64) {
        self.notes.lock().expect("note buffer lock").push(Note {
            request,
            name,
            value,
        });
    }

    fn timed<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: usize,
        probe: bool,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.id();
        let start = self.now();
        let out = f(id);
        self.record(Span {
            id,
            name,
            start,
            end: self.now(),
            parent,
            request,
            probe,
        });
        out
    }

    /// Run `f` inside a span; `f` gets the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: usize,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        self.timed(name, parent, request, false, f)
    }

    /// Run `f` inside a probe span (see the module docs).
    pub fn probe<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: usize,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        self.timed(name, Some(parent), request, true, f)
    }

    /// Everything recorded so far, spans sorted by id.
    pub fn take(&self) -> (Vec<Span>, Vec<Note>) {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer lock"));
        spans.sort_by_key(|s| s.id);
        let notes = std::mem::take(&mut *self.notes.lock().expect("note buffer lock"));
        (spans, notes)
    }
}

/// Self time (nanoseconds) of every span, in the order given.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push(span);
        }
    }
    spans
        .iter()
        .map(|span| {
            let kids = children.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|c| (c.start.max(span.start), c.end.min(span.end)))
                .filter(|(s, e)| s < e)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            let duplicated: u64 = kids.iter().filter(|c| c.probe).map(|c| c.duration()).sum();
            span.duration().saturating_sub(covered + duplicated)
        })
        .collect()
}

/// The layer a span's self time belongs to, named after the module.
pub fn layer(name: &str) -> &'static str {
    match name {
        "request" => "serve",
        "router" | "shard.serve" => "router",
        "json.parse" | "json.encode" => "json",
        "envelope.decode" | "envelope.encode" | "envelope.error" | "scenario.build" => "envelope",
        "service.stream" | "sweep.run" => "service",
        "engine.evaluate" | "design.stats" => "engine",
        "curve.first_query" | "model.mean_count" => "curve",
        "wmin.solve" => "wmin",
        "mc.point" => "mc",
        "wafer.run" => "wafer",
        "opt.run" => "opt",
        name if name.starts_with("fault.") => "fault",
        _ => "other",
    }
}

/// Layers in report order.
pub const LAYERS: [&str; 12] = [
    "serve", "router", "json", "envelope", "service", "engine", "curve", "wmin", "fault", "mc",
    "wafer", "opt",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start: u64, end: u64, parent: Option<u64>, probe: bool) -> Span {
        Span {
            id,
            name: "x",
            start,
            end,
            parent,
            request: 0,
            probe,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100] with children [10,30] and [50,60]; the first child
        // has its own child [15,20].
        let spans = [
            span(1, 0, 100, None, false),
            span(2, 10, 30, Some(1), false),
            span(3, 50, 60, Some(1), false),
            span(4, 15, 20, Some(2), false),
        ];
        assert_eq!(self_times(&spans), vec![70, 15, 10, 5]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Streamed encodes overlap the router span under one request.
        let spans = [
            span(1, 0, 100, None, false),
            span(2, 0, 80, Some(1), false),
            span(3, 40, 50, Some(1), false),
            span(4, 90, 95, Some(1), false),
            span(5, 95, 120, Some(1), false), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans)[0], 100 - 80 - 10);
    }

    #[test]
    fn probes_are_subtracted_twice_and_sum_holds() {
        // engine [0,100] = real call [0,60] + probe [60,100] re-running
        // 40 units of the real call's work; the probe has a child [70,90].
        let spans = [
            span(1, 0, 100, None, false),
            span(2, 60, 100, Some(1), true),
            span(3, 70, 90, Some(2), false),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![20, 20, 20]);
        // Self times add up to the duration minus the duplicated work.
        assert_eq!(selfs.iter().sum::<u64>(), 100 - 40);
    }

    #[test]
    fn tracer_nests_spans() {
        let tracer = Tracer::new();
        tracer.span("request", None, 3, |root| {
            tracer.span("json.parse", Some(root), 3, |_| {});
            tracer.probe("scenario.build", root, 3, |_| {});
        });
        let (spans, _) = tracer.take();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "request").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name != "request")
            .all(|s| s.parent == Some(root.id) && s.start >= root.start && s.end <= root.end));
        assert!(spans.iter().any(|s| s.probe));
        assert_eq!(layer("scenario.build"), "envelope");
        assert_eq!(layer("fault.compose_mc"), "fault");
    }
}
