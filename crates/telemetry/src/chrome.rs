//! Chrome trace-event JSON exporter.
//!
//! Renders a [`SpanLog`] in the Trace Event Format (the JSON-array
//! flavour) understood by Perfetto (<https://ui.perfetto.dev>) and the
//! legacy `about://tracing` viewer. Each span track becomes a named
//! thread (`"M"` metadata events), each span a `"X"` complete event with
//! `ts`/`dur` in microseconds — which is exactly the simulator's native
//! time unit, so virtual timestamps map 1:1 onto the viewer timeline.
//! Parent links and labels travel in `args`, so causality survives the
//! round trip even across tracks.
//!
//! Output is byte-deterministic: events are emitted in track order then
//! span-id order, and numbers render via [`crate::json::num`].

use crate::json::Obj;
use crate::span::SpanLog;

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

    // The whole document is written front to back into `out`: each event
    // begins at the end of the buffer and hands it back when it finishes.
    let mut out = String::from("[");
    let event = |mut out: String| {
        if out.len() > 1 {
            out.push(',');
        }
        Obj::begin(out)
    };
    for &track in &tracks {
        out = event(out)
            .str("ph", "M")
            .str("name", "thread_name")
            .u64("pid", 0)
            .u64("tid", track)
            .obj("args", |args| args.str("name", &track_name(track)))
            .finish();
    }

    for span in log.iter() {
        let dur = span
            .duration_us()
            .unwrap_or_else(|| clamp.saturating_sub(span.start_us));
        out = event(out)
            .str("ph", "X")
            .str("name", span.name)
            .str("cat", "span")
            .u64("pid", 0)
            .u64("tid", span.track)
            .u64("ts", span.start_us)
            .u64("dur", dur)
            .obj("args", |mut args| {
                args = args.u64("span", span.id.0);
                if let Some(parent) = span.parent {
                    args = args.u64("parent", parent.0);
                }
                if span.end_us.is_none() {
                    args = args.str("open", "true");
                }
                log.labels(span.id).fold(args, |a, l| {
                    a.str_parts(l.key, &l.value.pieces(&mut [0; 20]))
                })
            })
            .finish();
    }

    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanLog;

    fn sample_log() -> SpanLog {
        let mut log = SpanLog::new();
        let root = log.open("submit", 3, None, 100);
        let child = log.open("place", 7, Some(root), 150);
        log.label(child, "vm", "9");
        log.close(child, 180);
        log.close(root, 200);
        log.open("dangling", 3, None, 190); // never closed
        log
    }

    #[test]
    fn renders_metadata_then_complete_events() {
        let out = render(&sample_log(), &|t| format!("track{t}"));
        assert!(out.starts_with('['));
        assert!(out.ends_with(']'));
        // Two distinct tracks → two thread_name records.
        assert_eq!(out.matches("thread_name").count(), 2);
        assert!(out.contains("\"name\":\"track3\""));
        assert!(out.contains("\"name\":\"submit\""));
        assert!(out.contains("\"ts\":150,\"dur\":30"));
        assert!(out.contains("\"parent\":1"));
        assert!(out.contains("\"vm\":\"9\""));
    }

    #[test]
    fn open_spans_clamp_to_latest_time() {
        let out = render(&sample_log(), &|_| "t".into());
        // dangling opened at 190, log max is 200 → dur 10, flagged open.
        assert!(out.contains("\"ts\":190,\"dur\":10"));
        assert!(out.contains("\"open\":\"true\""));
    }

    #[test]
    fn identical_logs_render_identical_bytes() {
        let a = render(&sample_log(), &|t| format!("c{t}"));
        let b = render(&sample_log(), &|t| format!("c{t}"));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_log_is_empty_array() {
        assert_eq!(render(&SpanLog::new(), &|_| "x".into()), "[]");
    }
}
