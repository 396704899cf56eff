//! JSONL (one JSON object per line) span dumps.
//!
//! The machine-consumable sibling of the Chrome exporter: every span in
//! id order, one self-contained object per line, byte-deterministic.
//! Metric JSONL lives in simcore (it needs registry internals); this
//! module only needs the [`SpanLog`].

use crate::json::Obj;
use crate::span::SpanLog;

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
        let mut obj = Obj::begin(out).u64("span", span.id.0);
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
        out = obj
            .obj("labels", |l| {
                log.labels(span.id)
                    .fold(l, |o, l| o.str_parts(l.key, &l.value.pieces(&mut [0; 20])))
            })
            .finish();
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanLog;

    #[test]
    fn one_line_per_span_with_optional_fields() {
        let mut log = SpanLog::new();
        let a = log.open("root", 1, None, 10);
        let b = log.open("kid", 2, Some(a), 12);
        log.label(b, "vm", "3");
        log.close(b, 20);
        let text = render(&log);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"span\":1,\"name\":\"root\",\"track\":1,\"start_us\":10,\"labels\":{}}"
        );
        assert_eq!(
            lines[1],
            "{\"span\":2,\"parent\":1,\"name\":\"kid\",\"track\":2,\"start_us\":12,\
             \"end_us\":20,\"labels\":{\"vm\":\"3\"}}"
        );
    }

    #[test]
    fn empty_log_renders_empty_string() {
        assert_eq!(render(&SpanLog::new()), "");
    }
}
