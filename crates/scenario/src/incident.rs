//! Flight-recorder incident dumps as scenario documents.
//!
//! When a watchdog trips (an SLO breach, a scheduled fault, a forced
//! test trigger), the runner freezes the flight recorder's ring, the
//! most recent span closures and the metric windows around the trigger
//! into an [`IncidentDoc`] — plain data serialized through the same
//! dependency-free TOML subset every other scenario file uses, so dumps
//! are checked in under `scenarios/`, diffed in review, and parsed back
//! by `--check-scenarios` like mc traces. Everything in a dump is keyed
//! on sim time and sequence counters; two same-seed runs produce
//! byte-identical dumps.
//!
//! Like [`crate::mc_trace`], this module is data + format only; the
//! capture itself lives in the runner ([`crate::compile`]), the only
//! place that can see the live engine.

use std::collections::BTreeMap;

use crate::toml::{parse, render, Reader, Value};

/// One retained engine event (a flight-recorder ring entry with its
/// component indices resolved to names).
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentEvent {
    /// Execution time, microseconds of sim time.
    pub at_us: u64,
    /// Scheduling sequence number.
    pub seq: u64,
    /// `start`, `deliver`, `timer`, `crash`, `restart` or `net`.
    pub kind: String,
    /// Source component name (deliver), or the target's name.
    pub src: String,
    /// Destination component name (deliver only, else empty).
    pub dst: String,
    /// Message variant (deliver), or the event kind again.
    pub variant: String,
}

/// One recently closed span at trigger time.
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentSpan {
    /// Span name.
    pub name: String,
    /// Start, microseconds of sim time.
    pub start_us: u64,
    /// End, microseconds of sim time.
    pub end_us: u64,
}

/// One metric-window row around the trigger (a flattened
/// `snooze_telemetry::window::WindowRow`).
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentWindow {
    /// Window index.
    pub window: u64,
    /// `counter`, `gauge` or `histogram`.
    pub kind: String,
    /// Metric name.
    pub name: String,
    /// Rendered label set (`{k="v"}`), empty string for none.
    pub labels: String,
    /// Counter delta or histogram sample count.
    pub count: u64,
    /// Gauge boundary value or histogram p95 (0 for counters).
    pub value: f64,
}

/// A deterministic incident dump.
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentDoc {
    /// Document name (conventionally `<scenario>-incident-<n>`).
    pub name: String,
    /// The scenario that produced the dump.
    pub scenario: String,
    /// The scenario's seed.
    pub seed: u64,
    /// What tripped: `slo:<name>`, `fault:<label>` or `forced`.
    pub trigger: String,
    /// Human-readable breach detail (signal, value, bound).
    pub detail: String,
    /// Trigger time, microseconds of sim time.
    pub at_us: u64,
    /// The flight ring at trigger time, oldest first.
    pub events: Vec<IncidentEvent>,
    /// The most recent span closures before the trigger.
    pub spans: Vec<IncidentSpan>,
    /// Metric windows around the trigger.
    pub windows: Vec<IncidentWindow>,
}

/// True when `text` looks like an incident dump (top-level `trigger`
/// key). Scenario files have no such key, and mc traces carry
/// `harness` instead.
pub fn is_incident(text: &str) -> bool {
    text.lines().any(|l| l.starts_with("trigger = "))
}

impl IncidentDoc {
    /// Render as a canonical TOML document.
    pub fn to_toml(&self) -> String {
        let mut root = BTreeMap::new();
        root.insert("name".into(), Value::Str(self.name.clone()));
        root.insert("scenario".into(), Value::Str(self.scenario.clone()));
        root.insert("seed".into(), Value::Int(self.seed as i64));
        root.insert("trigger".into(), Value::Str(self.trigger.clone()));
        root.insert("detail".into(), Value::Str(self.detail.clone()));
        root.insert("at_us".into(), Value::Int(self.at_us as i64));
        if !self.events.is_empty() {
            let events = self
                .events
                .iter()
                .map(|e| {
                    let mut t = BTreeMap::new();
                    t.insert("at_us".into(), Value::Int(e.at_us as i64));
                    t.insert("seq".into(), Value::Int(e.seq as i64));
                    t.insert("kind".into(), Value::Str(e.kind.clone()));
                    t.insert("src".into(), Value::Str(e.src.clone()));
                    t.insert("dst".into(), Value::Str(e.dst.clone()));
                    t.insert("variant".into(), Value::Str(e.variant.clone()));
                    t
                })
                .collect();
            root.insert("event".into(), Value::TableArray(events));
        }
        if !self.spans.is_empty() {
            let spans = self
                .spans
                .iter()
                .map(|s| {
                    let mut t = BTreeMap::new();
                    t.insert("name".into(), Value::Str(s.name.clone()));
                    t.insert("start_us".into(), Value::Int(s.start_us as i64));
                    t.insert("end_us".into(), Value::Int(s.end_us as i64));
                    t
                })
                .collect();
            root.insert("span".into(), Value::TableArray(spans));
        }
        if !self.windows.is_empty() {
            let windows = self
                .windows
                .iter()
                .map(|w| {
                    let mut t = BTreeMap::new();
                    t.insert("window".into(), Value::Int(w.window as i64));
                    t.insert("kind".into(), Value::Str(w.kind.clone()));
                    t.insert("name".into(), Value::Str(w.name.clone()));
                    t.insert("labels".into(), Value::Str(w.labels.clone()));
                    t.insert("count".into(), Value::Int(w.count as i64));
                    t.insert("value".into(), Value::Float(w.value));
                    t
                })
                .collect();
            root.insert("window".into(), Value::TableArray(windows));
        }
        render(&root)
    }

    /// Parse a document previously written by [`IncidentDoc::to_toml`].
    pub fn from_toml(text: &str) -> Result<IncidentDoc, String> {
        let root = parse(text)?;
        decode(&Reader::new(&root, "incident")).map_err(|e| format!("incident: {e}"))
    }
}

fn decode(root: &Reader<'_>) -> Result<IncidentDoc, String> {
    let events = root.tables("event")?.map(|t| {
        let kind = t.str("kind")?;
        if !matches!(
            kind,
            "start" | "deliver" | "timer" | "crash" | "restart" | "net"
        ) {
            return Err(format!("event: unknown kind `{kind}`"));
        }
        t.finish(IncidentEvent {
            at_us: t.int("at_us")?,
            seq: t.int("seq")?,
            kind: kind.into(),
            src: t.str("src")?.into(),
            dst: t.str("dst")?.into(),
            variant: t.str("variant")?.into(),
        })
    });
    let spans = root.tables("span")?.map(|t| {
        t.finish(IncidentSpan {
            name: t.str("name")?.into(),
            start_us: t.int("start_us")?,
            end_us: t.int("end_us")?,
        })
    });
    let windows = root.tables("window")?.map(|t| {
        t.finish(IncidentWindow {
            window: t.int("window")?,
            kind: t.str("kind")?.into(),
            name: t.str("name")?.into(),
            labels: t.str("labels")?.into(),
            count: t.int("count")?,
            value: t.f64("value")?,
        })
    });
    root.finish(IncidentDoc {
        name: root.str("name")?.into(),
        scenario: root.str("scenario")?.into(),
        seed: root.int("seed")?,
        trigger: root.str("trigger")?.into(),
        detail: root.str("detail")?.into(),
        at_us: root.int("at_us")?,
        events: events.collect::<Result<_, String>>()?,
        spans: spans.collect::<Result<_, String>>()?,
        windows: windows.collect::<Result<_, String>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IncidentDoc {
        IncidentDoc {
            name: "e11-incident-0".into(),
            scenario: "e11-kilonode".into(),
            seed: 0xE11,
            trigger: "slo:dead-letter-budget".into(),
            detail: "dead_letters = 129 > 0".into(),
            at_us: 3_600_000_000,
            events: vec![IncidentEvent {
                at_us: 3_599_999_870,
                seq: 1_385_000,
                kind: "deliver".into(),
                src: "gm3".into(),
                dst: "lc117".into(),
                variant: "GmLcHeartbeat".into(),
            }],
            spans: vec![IncidentSpan {
                name: "vm.place".into(),
                start_us: 3_500_000_000,
                end_us: 3_500_120_000,
            }],
            windows: vec![IncidentWindow {
                window: 59,
                kind: "counter".into(),
                name: "dead_letters".into(),
                labels: "{msg=\"GmLcHeartbeat\",reason=\"crashed\"}".into(),
                count: 129,
                value: 0.0,
            }],
        }
    }

    #[test]
    fn round_trips_through_toml() {
        let doc = sample();
        let text = doc.to_toml();
        let back = IncidentDoc::from_toml(&text).expect("parses");
        assert_eq!(back, doc);
        // Canonical: render(parse(x)) == x.
        assert_eq!(back.to_toml(), text);
    }

    #[test]
    fn discriminator_separates_incidents_from_other_docs() {
        assert!(is_incident(&sample().to_toml()));
        assert!(!is_incident("name = \"x\"\nharness = \"election\"\n"));
        assert!(!is_incident("name = \"x\"\nseed = 1\n"));
    }

    #[test]
    fn missing_and_malformed_fields_error_cleanly() {
        let err = IncidentDoc::from_toml("name = \"x\"\n").unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let bad = sample().to_toml().replace("\"deliver\"", "\"teleport\"");
        let err = IncidentDoc::from_toml(&bad).unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
        // Used to decode, to seed 18446744073709551615.
        let bad = sample().to_toml().replace("seed = 3601", "seed = -1");
        let err = IncidentDoc::from_toml(&bad).unwrap_err();
        let want = "incident: `seed` in incident must be a non-negative integer";
        assert_eq!(err, want);
        let bad = sample().to_toml().replace("\nseq = ", "\nsequence = ");
        let err = IncidentDoc::from_toml(&bad).unwrap_err();
        assert_eq!(err, "incident: missing key `seq` in event");
        let bad = sample()
            .to_toml()
            .replace("\nend_us = ", "\nend = 3\nend_us = ");
        let err = IncidentDoc::from_toml(&bad).unwrap_err();
        assert_eq!(err, "incident: unknown key `end` in span");
    }

    #[test]
    fn empty_sections_are_omitted_and_reparse() {
        let mut doc = sample();
        doc.events.clear();
        doc.spans.clear();
        doc.windows.clear();
        let text = doc.to_toml();
        assert!(!text.contains("[[event]]"));
        assert_eq!(IncidentDoc::from_toml(&text).expect("parses"), doc);
    }
}
