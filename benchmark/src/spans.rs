//! Spans recorded from the benchmark's own files around the calls into each
//! layer. A span has a name (`layer.call`), a start and an end, the span it
//! is nested in, the span that caused it (for a delivery: the handler that
//! sent the message), and the identifier of the operation it belongs to when
//! there is one. Spans stay in memory and are written out once, at exit.
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Index of a span in its tracer.
pub type SpanId = u32;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `core.on_message`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// The span this one is nested in.
    pub parent: Option<SpanId>,
    /// The span that caused this one, when it is not the parent.
    pub cause: Option<SpanId>,
    /// The operation `(origin, seq)` the span belongs to, when known.
    pub op: Option<(u32, u64)>,
}

/// Records spans, or does nothing at all when disabled (the untraced run
/// uses the same driver with a disabled tracer, which is what makes the
/// tracing overhead measurable).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

/// Busy and self time of every span of one name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans.
    pub calls: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Every span's duration, for percentiles.
    pub durations_ns: Vec<f64>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(
        &mut self,
        name: &'static str,
        cause: Option<SpanId>,
        op: Option<(u32, u64)>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as SpanId;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            cause,
            op,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `id` (which must be the innermost open one).
    pub fn exit(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now;
        }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Busy and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// The trace as a JSON document: at most `max_spans` spans (the summary
    /// always covers all of them).
    pub fn to_json(&self, workload: &str, max_spans: usize) -> Json {
        let span_json = |(id, s): (usize, &Span)| {
            Json::obj([
                ("id", Json::Int(id as i64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(i64::from(p))),
                ),
                (
                    "cause",
                    s.cause.map_or(Json::Null, |p| Json::Int(i64::from(p))),
                ),
                (
                    "op",
                    s.op.map_or(Json::Null, |(origin, seq)| {
                        Json::Arr(vec![Json::Int(i64::from(origin)), Json::Int(seq as i64)])
                    }),
                ),
            ])
        };
        let summary = self.layer_times().into_iter().map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("calls", Json::Int(t.calls as i64)),
                    ("busy_ns", Json::Int(t.busy_ns as i64)),
                    ("self_ns", Json::Int(t.self_ns as i64)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("spans_recorded", Json::Int(self.spans.len() as i64)),
            (
                "spans_written",
                Json::Int(self.spans.len().min(max_spans) as i64),
            ),
            ("summary", Json::obj(summary)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .take(max_spans)
                        .map(span_json)
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            if let Some(list) = children.get_mut(parent as usize) {
                list.push((span.start_ns, span.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Busy and self time per span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        let busy = span.end_ns - span.start_ns;
        entry.calls += 1;
        entry.busy_ns += busy;
        entry.self_ns += self_ns;
        entry.durations_ns.push(busy as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cause: None,
            op: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span("step", 0, 100, None),               // 0
            span("core.on_message", 10, 40, Some(0)), // 1
            span("codec.encode", 50, 60, Some(0)),    // 2
            span("codec.encode", 60, 75, Some(0)),    // 3
            span("inner", 20, 30, Some(1)),           // 4: grandchild
        ];
        // step: 100 - (30 + 10 + 15); on_message: 30 - 10; leaves: whole
        assert_eq!(self_times(&spans), vec![45, 20, 10, 15, 10]);
        let layers = layer_times(&spans);
        assert_eq!(layers["codec.encode"].calls, 2);
        assert_eq!(layers["codec.encode"].busy_ns, 25);
        assert_eq!(layers["codec.encode"].self_ns, 25);
        assert_eq!(layers["step"].self_ns, 45);
        // self times partition the root: nothing is counted twice
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 190, 230, Some(0)), // hangs over the parent's end by 30
            span("d", 120, 130, Some(0)), // wholly inside a
        ];
        // covered: [110,170) = 60 and [190,200) = 10
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_costs_no_state() {
        let mut off = Tracer::new(false);
        let id = off.enter("core.on_input", None, Some((0, 1)));
        off.exit(id);
        assert_eq!(id, None);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let outer = on.enter("lockstep.step", None, Some((2, 9)));
        let inner = on.enter("core.on_input", None, Some((2, 9)));
        on.exit(inner);
        on.exit(outer);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, outer);
        assert_eq!(inner, Some(1));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
        let doc = on.to_json("sim-steady", 1).encode();
        assert!(doc.contains("\"spans_recorded\":2") && doc.contains("\"spans_written\":1"));
        assert!(doc.contains("\"op\":[2,9]"));
    }
}
