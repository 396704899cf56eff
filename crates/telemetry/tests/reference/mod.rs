//! The exporters as they stood before they streamed into the buffer they
//! return (the commit before ISSUE 23), frozen: `Obj` collecting a body it
//! copies on `finish`, an escaped copy per key and value, a `String` per
//! number, nested objects finished and copied in through `raw`, the Chrome
//! trace as a `Vec<String>` joined at the end. Unedited except that each
//! file became a module and the two `WindowLog` methods take the rows —
//! what the new writers must equal byte for byte. `snooze-simcore`'s
//! property tests include this file for the old `MetricsRegistry::to_jsonl`.

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

pub mod chrome {
    use super::json::{array, Obj};
    use snooze_telemetry::span::SpanLog;

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
    use snooze_telemetry::span::SpanLog;

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
