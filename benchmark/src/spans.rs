//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program under test, around each
//! call into a layer (`scenario.run`, `trace.generate`,
//! `consolidation.aco.consolidate`, …). They are kept in memory and
//! flushed as JSONL when the workload's process ends. A span's layer is
//! the first dotted segment of its name; a layer's self time is the sum
//! over its spans of duration minus the part covered by child spans.
//!
//! A disabled recorder reads no clock and stores nothing, so the
//! untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use snooze_telemetry::json::Obj;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The workload iteration the span belongs to (spans of one
    /// iteration share this identifier).
    pub iteration: u32,
}

/// In-memory span log with a stack of currently open spans.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Switch recording on or off and tag what follows with `iteration`.
    pub fn begin_iteration(&mut self, iteration: u32, enabled: bool) {
        debug_assert!(self.open.is_empty(), "iteration changed inside a span");
        self.iteration = iteration;
        self.enabled = enabled;
    }

    /// Run `f` inside a span called `name`, nested under whichever span
    /// is open. The recorder is handed down so callees can nest further.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in opening order.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = Obj::new()
                .u64("id", id as u64)
                .str("workload", workload)
                .u64("iteration", s.iteration as u64)
                .str("name", &s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns);
            if let Some(p) = s.parent {
                o = o.u64("parent", p as u64);
            }
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

/// The layer a span name belongs to: its first dotted segment.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, in seconds, over `spans` filtered to those
/// under (and including) root spans called `root`, per iteration:
/// `iteration -> layer -> seconds`.
pub fn self_time_by_layer(spans: &[Span], root: &str) -> BTreeMap<u32, BTreeMap<String, f64>> {
    // Duration covered by direct children, per parent.
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    // A span counts when its outermost ancestor is a `root` span.
    let mut in_root = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        in_root[i] = match s.parent {
            None => s.name == root,
            Some(p) => in_root[p],
        };
    }
    let mut out: BTreeMap<u32, BTreeMap<String, f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if !in_root[i] {
            continue;
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        *out.entry(s.iteration)
            .or_default()
            .entry(layer_of(&s.name).to_string())
            .or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>, iteration: u32) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            iteration,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_root() {
        let spans = vec![
            span("bench.body", 0, 1_000, None, 0),
            span("scenario.parse", 100, 200, Some(0), 0),
            span("scenario.run", 200, 900, Some(0), 0),
            span("trace.load", 250, 450, Some(2), 0),
            span("bench.setup", 2_000, 2_500, None, 0),
        ];
        let by = self_time_by_layer(&spans, "bench.body");
        let it = &by[&0];
        assert!((it["bench"] - 200e-9).abs() < 1e-15, "{it:?}");
        assert!((it["scenario"] - 600e-9).abs() < 1e-15, "{it:?}");
        assert!((it["trace"] - 200e-9).abs() < 1e-15, "{it:?}");
        let total: f64 = it.values().sum();
        assert!(
            (total - 1_000e-9).abs() < 1e-15,
            "self times sum to the root span"
        );
        assert_eq!(it.len(), 3, "the setup span is outside the body root");
    }

    #[test]
    fn iterations_are_kept_apart() {
        let spans = vec![
            span("bench.body", 0, 10, None, 0),
            span("bench.body", 20, 50, None, 1),
            span("mc.explore", 25, 45, Some(1), 1),
        ];
        let by = self_time_by_layer(&spans, "bench.body");
        assert!((by[&0]["bench"] - 10e-9).abs() < 1e-15);
        assert!((by[&1]["bench"] - 10e-9).abs() < 1e-15);
        assert!((by[&1]["mc"] - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_recorder_stores_nothing_and_enabled_one_nests() {
        let mut r = Recorder::new();
        assert_eq!(r.span("a.b", |r| r.span("c.d", |_| 7)), 7);
        assert!(r.spans().is_empty());
        r.begin_iteration(3, true);
        r.span("a.b", |r| r.span("c.d", |_| ()));
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[1].iteration, 3);
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
        let jsonl = r.to_jsonl("w");
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.lines().nth(1).unwrap().contains("\"parent\":0"));
    }

    #[test]
    fn layer_is_the_first_segment() {
        assert_eq!(layer_of("consolidation.aco.consolidate"), "consolidation");
        assert_eq!(layer_of("plain"), "plain");
    }
}
