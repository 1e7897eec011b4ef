//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions; nothing inside the program is instrumented.
//! They stay in memory until the run ends. A span's *self time* is its
//! duration minus the part of it its child spans cover, so the self times of
//! one request add up to the request's duration and every nanosecond of it is
//! attributed to exactly one layer.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`core.eval`, `graph.wal`, …) or `op` for a request root.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

/// Handle returned by [`Tracer::begin`]; hand it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Records spans when on; costs one branch per call when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// At most this many spans go into a trace file; totals cover all of them.
const FILE_SPAN_CAP: usize = 20_000;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id` (and, defensively, anything opened inside it and left open).
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end_ns = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open as usize].end_ns = end_ns;
            if open == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span measured elsewhere (a duration the program reported),
    /// as a child of the innermost open span ending now.
    pub fn record(&mut self, name: &'static str, request: u64, nanos: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(nanos),
            end_ns,
            parent: self.open.last().copied(),
            request,
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(self nanoseconds, span count)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        self_times(&self.spans)
    }

    /// The trace as a JSON document (the first [`FILE_SPAN_CAP`] spans; the
    /// self-time totals cover every span).
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let totals = self.self_times();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("total_spans", Json::Num(self.spans.len() as f64)),
            ("truncated", Json::Bool(self.spans.len() > FILE_SPAN_CAP)),
            (
                "self_time_ns",
                Json::obj(totals.iter().map(|(name, (ns, count))| {
                    (
                        *name,
                        Json::obj([
                            ("self_ns", Json::Num(*ns as f64)),
                            ("spans", Json::Num(*count as f64)),
                        ]),
                    )
                })),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .take(FILE_SPAN_CAP)
                        .map(|s| {
                            Json::Arr(vec![
                                Json::str(s.name),
                                Json::Num(s.start_ns as f64),
                                Json::Num(s.end_ns as f64),
                                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                                Json::Num(s.request as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "span_columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "request"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
        ])
    }
}

/// Self time per span name: each span's duration minus its children's, the
/// children clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            covered[parent as usize] += end.saturating_sub(start);
        }
    }
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        let own = (span.end_ns - span.start_ns).saturating_sub(covered);
        let entry = totals.entry(span.name).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("op", 0, 100, None),
            span("prepare", 10, 30, Some(0)),
            span("eval", 30, 90, Some(0)),
            span("csr", 40, 60, Some(2)),
        ];
        let totals = self_times(&spans);
        assert_eq!(totals["op"], (20, 1));
        assert_eq!(totals["prepare"], (20, 1));
        assert_eq!(totals["eval"], (40, 1));
        assert_eq!(totals["csr"], (20, 1));
        // Every nanosecond of the request is attributed exactly once.
        assert_eq!(totals.values().map(|(ns, _)| ns).sum::<u64>(), 100);
    }

    #[test]
    fn a_child_reported_longer_than_its_parent_is_clipped() {
        let spans = [span("op", 50, 100, None), span("reported", 0, 100, Some(0))];
        assert_eq!(self_times(&spans)["op"], (0, 1));
    }

    #[test]
    fn tracer_nests_by_open_order_and_is_free_when_off() {
        let mut tracer = Tracer::new(true);
        let op = tracer.begin("op", 7);
        tracer.scope("inner", 7, || ());
        tracer.record("reported", 7, 0);
        tracer.end(op);
        let parents: Vec<_> = tracer.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0)]);
        assert!(tracer.spans().iter().all(|s| s.request == 7));

        let mut off = Tracer::new(false);
        let id = off.begin("op", 0);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
