//! In-memory spans around the calls into each layer.
//!
//! The benchmark opens a span around each call it makes into a product
//! crate; nothing here runs inside the product. Spans stay in memory until
//! the run ends and are then written as one JSON file.

use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` indexes [`Recorder::spans`]; spans of one
/// federated round share `round`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one clock origin. Single-threaded: spans nest in
/// call order, so the innermost open span is the parent of the next.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// `capacity` spans are reserved up front so recording does not
    /// allocate inside the timed region.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, round: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = end_ns;
        }
    }

    /// Times `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, round: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, round);
        let out = f();
        self.exit();
        out
    }

    /// Records an interval measured elsewhere (a protocol hop stamped by
    /// the probe), as a top-level span.
    pub fn push_closed(&mut self, name: &'static str, round: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            round,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(span, covered)| span.duration_ns().saturating_sub(*covered))
        .collect()
}

/// Every duration of the spans called `name`, in microseconds.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// The trace file: one object per span, self time included so a reader
/// needs no tree walk.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let self_ns = self_times_ns(spans);
    let items = spans
        .iter()
        .zip(self_ns)
        .map(|(span, self_ns)| {
            Json::obj([
                ("name", Json::Str(span.name.to_string())),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                ("self_ns", Json::Num(self_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("round", Json::Num(span.round as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("spans", Json::Arr(items)),
    ])
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
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round [0, 100] ⊃ train [10, 60] ⊃ step [20, 50]; round ⊃ agg [70, 90]
        let spans = vec![
            span("round", 0, 100, None),
            span("train", 10, 60, Some(0)),
            span("step", 20, 50, Some(1)),
            span("agg", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn sibling_spans_sum_and_leaves_keep_their_duration() {
        let spans = vec![
            span("round", 0, 50, None),
            span("a", 0, 10, Some(0)),
            span("a", 10, 30, Some(0)),
            span("b", 30, 50, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 10, 20, 20]);
        assert_eq!(durations_us(&spans, "a"), vec![0.01, 0.02]);
        assert_eq!(durations_us(&spans, "b"), vec![0.02]);
    }

    #[test]
    fn recorder_nests_in_call_order() {
        let mut rec = Recorder::with_capacity(4);
        rec.span("outer", 7, || {});
        rec.enter("outer", 8);
        rec.span("inner", 8, || {});
        rec.exit();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[1].end_ns >= spans[2].end_ns);
        let doc = trace_json("w", 1, spans);
        assert_eq!(
            doc.get("spans")
                .map(|s| matches!(s, Json::Arr(a) if a.len() == 3)),
            Some(true)
        );
    }
}
