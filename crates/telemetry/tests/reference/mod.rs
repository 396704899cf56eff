//! The exporters as they stood before they streamed into the buffer they
//! return (the commit before ISSUE 23), frozen: `Obj` collecting a body it
//! copies on `finish`, an escaped copy per key and value, a `String` per
//! number, nested objects finished and copied in through `raw`, the Chrome
//! trace as a `Vec<String>` joined at the end. Unedited except that each
//! file became a module and the two `WindowLog` methods take the rows —
//! what the new writers must equal byte for byte. `snooze-simcore`'s
//! property tests include this file for the old `MetricsRegistry::to_jsonl`.
//!
//! Beside them, `span`: the span log as it stood before its labels became
//! typed values in segments — one `Vec<(&'static str, String)>` of labels
//! per record, every value rendered to a `String` by its caller. Unedited
//! except that it reuses the crate's `SpanId`; the two span exporters
//! above read this log.

#![allow(dead_code)]

pub mod json {
    /// Escape `s` as the *contents* of a JSON string (no surrounding quotes).
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Render an `f64` deterministically. Uses Rust's shortest-roundtrip
    /// `Display`, mapping non-finite values (invalid JSON) to `null`.
    pub fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_owned()
        }
    }

    /// Incremental JSON object writer with insertion-order keys.
    #[derive(Debug, Default)]
    pub struct Obj {
        body: String,
    }

    impl Obj {
        /// Start an empty object.
        pub fn new() -> Self {
            Self::default()
        }

        /// Add a string field.
        pub fn str(mut self, key: &str, value: &str) -> Self {
            self.push(key, &format!("\"{}\"", escape(value)));
            self
        }

        /// Add an unsigned integer field.
        pub fn u64(mut self, key: &str, value: u64) -> Self {
            self.push(key, &value.to_string());
            self
        }

        /// Add a float field.
        pub fn f64(mut self, key: &str, value: f64) -> Self {
            self.push(key, &num(value));
            self
        }

        /// Add a pre-rendered JSON value (object, array, …) verbatim.
        pub fn raw(mut self, key: &str, value: &str) -> Self {
            self.push(key, value);
            self
        }

        /// Finish: `{"k":v,...}`.
        pub fn finish(self) -> String {
            format!("{{{}}}", self.body)
        }

        fn push(&mut self, key: &str, rendered: &str) {
            if !self.body.is_empty() {
                self.body.push(',');
            }
            self.body.push('"');
            self.body.push_str(&escape(key));
            self.body.push_str("\":");
            self.body.push_str(rendered);
        }
    }

    /// Render a JSON array from pre-rendered element strings.
    pub fn array(elems: &[String]) -> String {
        format!("[{}]", elems.join(","))
    }
}

pub mod span {
    use snooze_telemetry::{fnv1a, FNV_OFFSET};

    pub use snooze_telemetry::span::SpanId;

    /// One timed, causally linked interval.
    #[derive(Clone, Debug)]
    pub struct SpanRecord {
        /// This span's id.
        pub id: SpanId,
        /// The span this one is causally nested under, if any.
        pub parent: Option<SpanId>,
        /// Static operation name (e.g. `"gl.dispatch"`).
        pub name: &'static str,
        /// Track the span runs on — simcore uses the component index, so a
        /// Chrome trace renders one lane per simulated actor.
        pub track: u64,
        /// Open time, microseconds of virtual time.
        pub start_us: u64,
        /// Close time, microseconds; `None` while the span is still open
        /// (e.g. its actor crashed before finishing the operation).
        pub end_us: Option<u64>,
        /// Key/value annotations (VM ids, outcomes, …), in insertion order.
        pub labels: Vec<(&'static str, String)>,
    }

    impl SpanRecord {
        /// Duration if closed, clamping backwards clocks to zero.
        pub fn duration_us(&self) -> Option<u64> {
            self.end_us.map(|e| e.saturating_sub(self.start_us))
        }

        /// First label value recorded under `key`.
        pub fn label(&self, key: &str) -> Option<&str> {
            self.labels
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.as_str())
        }
    }

    /// Append-only log of spans with deterministic ids and a running digest.
    #[derive(Clone, Debug, Default)]
    pub struct SpanLog {
        spans: Vec<SpanRecord>,
        digest: u64,
    }

    impl SpanLog {
        /// Empty log.
        pub fn new() -> Self {
            SpanLog {
                spans: Vec::new(),
                digest: FNV_OFFSET,
            }
        }

        /// Open a span at `at_us` on `track`, optionally nested under
        /// `parent`, and return its id.
        pub fn open(
            &mut self,
            name: &'static str,
            track: u64,
            parent: Option<SpanId>,
            at_us: u64,
        ) -> SpanId {
            let id = SpanId(self.spans.len() as u64 + 1);
            self.fold(1, id.0, at_us, name.as_bytes());
            self.spans.push(SpanRecord {
                id,
                parent,
                name,
                track,
                start_us: at_us,
                end_us: None,
                labels: Vec::new(),
            });
            id
        }

        /// Close span `id` at `at_us`. Closing an already-closed or unknown
        /// span is a no-op (a crashed actor's cleanup path may race its own
        /// completion path; first close wins).
        pub fn close(&mut self, id: SpanId, at_us: u64) {
            let Some(rec) = self.get_mut(id) else { return };
            if rec.end_us.is_none() {
                rec.end_us = Some(at_us);
                self.fold(2, id.0, at_us, &[]);
            }
        }

        /// Annotate span `id` with a key/value label.
        pub fn label(&mut self, id: SpanId, key: &'static str, value: impl Into<String>) {
            let value = value.into();
            if let Some(rec) = self.get_mut(id) {
                rec.labels.push((key, value.clone()));
                self.fold(3, id.0, 0, value.as_bytes());
            }
        }

        /// Look a span up by id.
        pub fn get(&self, id: SpanId) -> Option<&SpanRecord> {
            id.0.checked_sub(1).and_then(|i| self.spans.get(i as usize))
        }

        /// Parent of span `id`, if any.
        pub fn parent_of(&self, id: SpanId) -> Option<SpanId> {
            self.get(id).and_then(|r| r.parent)
        }

        /// All spans, in open (= id) order.
        pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
            self.spans.iter()
        }

        /// Number of spans opened.
        pub fn len(&self) -> usize {
            self.spans.len()
        }

        /// True if no spans were opened.
        pub fn is_empty(&self) -> bool {
            self.spans.is_empty()
        }

        /// Latest timestamp touched by any span (open or close). Exporters
        /// use this to clamp still-open spans.
        pub fn max_time_us(&self) -> u64 {
            self.spans
                .iter()
                .map(|s| s.end_us.unwrap_or(s.start_us))
                .max()
                .unwrap_or(0)
        }

        /// Running FNV-1a digest over every open/close/label mutation. Two
        /// logs built by identical call sequences report identical digests.
        pub fn digest(&self) -> u64 {
            self.digest
        }

        fn get_mut(&mut self, id: SpanId) -> Option<&mut SpanRecord> {
            id.0.checked_sub(1)
                .and_then(|i| self.spans.get_mut(i as usize))
        }

        fn fold(&mut self, op: u64, id: u64, time_us: u64, payload: &[u8]) {
            let mut h = self.digest;
            for word in [op, id, time_us] {
                h = fnv1a(h, &word.to_le_bytes());
            }
            self.digest = fnv1a(h, payload);
        }
    }
}

pub mod chrome {
    use super::json::{array, Obj};
    use super::span::SpanLog;

    /// Render `log` as a Chrome trace-event JSON array.
    ///
    /// `track_name` maps a span's track id (simcore: the component index) to
    /// a display name for the corresponding viewer lane. Spans still open at
    /// the end of the run are clamped to the log's latest timestamp so they
    /// remain visible (with `"open":"true"` in `args`).
    pub fn render(log: &SpanLog, track_name: &dyn Fn(u64) -> String) -> String {
        let clamp = log.max_time_us();
        let mut tracks: Vec<u64> = log.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();

        let mut events: Vec<String> = Vec::with_capacity(tracks.len() + log.len());
        for &track in &tracks {
            let args = Obj::new().str("name", &track_name(track)).finish();
            events.push(
                Obj::new()
                    .str("ph", "M")
                    .str("name", "thread_name")
                    .u64("pid", 0)
                    .u64("tid", track)
                    .raw("args", &args)
                    .finish(),
            );
        }

        for span in log.iter() {
            let mut args = Obj::new().u64("span", span.id.0);
            if let Some(parent) = span.parent {
                args = args.u64("parent", parent.0);
            }
            if span.end_us.is_none() {
                args = args.str("open", "true");
            }
            for (key, value) in &span.labels {
                args = args.str(key, value);
            }
            let dur = span
                .duration_us()
                .unwrap_or_else(|| clamp.saturating_sub(span.start_us));
            events.push(
                Obj::new()
                    .str("ph", "X")
                    .str("name", span.name)
                    .str("cat", "span")
                    .u64("pid", 0)
                    .u64("tid", span.track)
                    .u64("ts", span.start_us)
                    .u64("dur", dur)
                    .raw("args", &args.finish())
                    .finish(),
            );
        }

        array(&events)
    }
}

pub mod jsonl {
    use super::json::Obj;
    use super::span::SpanLog;

    /// Render every span as one JSON object per line (trailing newline
    /// included when the log is non-empty).
    ///
    /// Schema per line:
    /// `{"span":u64,"parent":u64?,"name":str,"track":u64,"start_us":u64,`
    /// `"end_us":u64?,"labels":{...}}` — `parent` and `end_us` are omitted
    /// for roots and still-open spans respectively.
    pub fn render(log: &SpanLog) -> String {
        let mut out = String::new();
        for span in log.iter() {
            let mut labels = Obj::new();
            for (key, value) in &span.labels {
                labels = labels.str(key, value);
            }
            let mut obj = Obj::new().u64("span", span.id.0);
            if let Some(parent) = span.parent {
                obj = obj.u64("parent", parent.0);
            }
            obj = obj
                .str("name", span.name)
                .u64("track", span.track)
                .u64("start_us", span.start_us);
            if let Some(end) = span.end_us {
                obj = obj.u64("end_us", end);
            }
            out.push_str(&obj.raw("labels", &labels.finish()).finish());
            out.push('\n');
        }
        out
    }
}

pub mod window {
    use super::json::{num, Obj};
    use snooze_telemetry::window::{WindowKind, WindowRow};

    /// One JSON object per row, byte-deterministic.
    pub fn to_jsonl(rows: &[WindowRow]) -> String {
        let mut out = String::new();
        for r in rows {
            let mut labels = Obj::new();
            for (k, v) in r.labels.pairs() {
                labels = labels.str(k, v);
            }
            let mut obj = Obj::new()
                .u64("window", r.index)
                .u64("start_us", r.start_us)
                .u64("end_us", r.end_us)
                .str("type", r.kind.as_str())
                .str("name", &r.name)
                .raw("labels", &labels.finish());
            obj = match r.kind {
                WindowKind::Counter => obj.u64("count", r.count),
                WindowKind::Gauge => obj.f64("value", r.stats.max),
                WindowKind::Histogram => obj
                    .u64("count", r.count)
                    .f64("sum", r.stats.sum)
                    .f64("min", r.stats.min)
                    .f64("max", r.stats.max)
                    .f64("p50", r.stats.p50)
                    .f64("p95", r.stats.p95)
                    .f64("p99", r.stats.p99),
            };
            out.push_str(&obj.finish());
            out.push('\n');
        }
        out
    }

    /// Flat CSV (one schema for all three kinds; unused cells are
    /// empty), byte-deterministic.
    pub fn to_csv(rows: &[WindowRow]) -> String {
        let mut out =
            String::from("window,start_us,end_us,type,name,labels,count,sum,min,max,p50,p95,p99\n");
        for r in rows {
            let labels = r.labels.render().replace('"', "'");
            out.push_str(&format!(
                "{},{},{},{},{},\"{}\"",
                r.index,
                r.start_us,
                r.end_us,
                r.kind.as_str(),
                r.name,
                labels
            ));
            match r.kind {
                WindowKind::Counter => out.push_str(&format!(",{},,,,,,", r.count)),
                WindowKind::Gauge => out.push_str(&format!(",,,,{},,,", num(r.stats.max))),
                WindowKind::Histogram => out.push_str(&format!(
                    ",{},{},{},{},{},{},{}",
                    r.count,
                    num(r.stats.sum),
                    num(r.stats.min),
                    num(r.stats.max),
                    num(r.stats.p50),
                    num(r.stats.p95),
                    num(r.stats.p99)
                )),
            }
            out.push('\n');
        }
        out
    }
}
