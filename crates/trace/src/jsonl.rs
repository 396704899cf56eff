//! Canonical JSONL trace format.
//!
//! One object per line, fixed key order, no spaces:
//!
//! ```text
//! {"vm":0,"arrival_s":12.5,"lifetime_s":3600,"cpu_cores":2,"mem_mb":4096,"curve":[[0,0.3,0.5],[300,0.8,0.6]]}
//! ```
//!
//! Curve points are `[offset_s, cpu, mem]` triples. The writer is
//! canonical (fixed key order, shortest round-trip floats), so
//! `JSONL → CSV → JSONL` through the canonical writers is
//! byte-identical — the property test in `tests/roundtrip.rs` pins it.

use std::fmt::Write as _;
use std::io::{BufRead, Write};

use crate::dataset::{DatasetReader, LineReader};
use crate::error::{Excerpt, TraceError};
use crate::json::Json;
use crate::record::{CurvePoint, TraceRecord};

/// Streaming, validating reader of the canonical JSONL format.
pub struct JsonlReader<R: BufRead> {
    lines: LineReader<R>,
}

impl<R: BufRead> JsonlReader<R> {
    /// Wrap a buffered reader over canonical JSONL text.
    pub fn new(inner: R) -> Self {
        JsonlReader {
            lines: LineReader::new(inner),
        }
    }
}

const KEYS: &[&str] = &[
    "vm",
    "arrival_s",
    "lifetime_s",
    "cpu_cores",
    "mem_mb",
    "curve",
];

fn num(line: usize, obj: &Json, key: &str) -> Result<f64, TraceError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| TraceError::at(line, format!("missing or non-numeric `{key}`")))
}

impl<R: BufRead> DatasetReader for JsonlReader<R> {
    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        if !self.lines.advance()? {
            return Ok(None);
        }
        let n = self.lines.line();
        let obj = Json::parse(self.lines.current()).map_err(|m| TraceError::at(n, m))?;
        let pairs = obj
            .as_obj()
            .ok_or_else(|| TraceError::at(n, "each line must be a JSON object"))?;
        for (k, _) in pairs {
            if !KEYS.contains(&k.as_str()) {
                return Err(TraceError::at(n, format!("unknown key `{}`", Excerpt(k))));
            }
        }
        let vm_raw = num(n, &obj, "vm")?;
        if vm_raw < 0.0 || vm_raw.fract() != 0.0 {
            return Err(TraceError::at(n, "`vm` must be a non-negative integer"));
        }
        let curve_val = obj
            .get("curve")
            .ok_or_else(|| TraceError::at(n, "missing `curve`"))?;
        let curve_arr = curve_val
            .as_arr()
            .ok_or_else(|| TraceError::at(n, "`curve` must be an array"))?;
        let mut curve = Vec::with_capacity(curve_arr.len());
        for (i, p) in curve_arr.iter().enumerate() {
            let triple = p.as_arr().filter(|t| t.len() == 3).ok_or_else(|| {
                TraceError::at(n, format!("curve point {i} must be `[offset_s, cpu, mem]`"))
            })?;
            let f = |j: usize| -> Result<f64, TraceError> {
                triple[j]
                    .as_f64()
                    .ok_or_else(|| TraceError::at(n, format!("curve point {i} must be numeric")))
            };
            curve.push(CurvePoint {
                offset_s: f(0)?,
                cpu: f(1)?,
                mem: f(2)?,
            });
        }
        let record = TraceRecord {
            vm: vm_raw as u64,
            arrival_s: num(n, &obj, "arrival_s")?,
            lifetime_s: num(n, &obj, "lifetime_s")?,
            cpu_cores: num(n, &obj, "cpu_cores")?,
            mem_mb: num(n, &obj, "mem_mb")?,
            curve,
        };
        record.validate().map_err(|m| TraceError::at(n, m))?;
        Ok(Some(record))
    }
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Append one record's canonical JSONL line (no newline) to `out`. Floats
/// go through `Display`, the canonical form [`crate::record::fmt_f64`]
/// names.
fn push_record(out: &mut String, r: &TraceRecord) {
    let _ = write!(
        out,
        "{{\"vm\":{},\"arrival_s\":{},\"lifetime_s\":{},\"cpu_cores\":{},\"mem_mb\":{},\"curve\":[",
        r.vm, r.arrival_s, r.lifetime_s, r.cpu_cores, r.mem_mb
    );
    for (i, p) in r.curve.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{},{}]", p.offset_s, p.cpu, p.mem);
    }
    out.push_str("]}");
}

/// Render one record as its canonical JSONL line (no newline).
// audit-allow(uncalled): the old-writer-vs-new proptest
// (tests/writer_reference.rs) compares one record's bytes through it.
pub fn format_record(r: &TraceRecord) -> String {
    let mut line = String::new();
    push_record(&mut line, r);
    line
}

/// Write records in canonical JSONL form, each formatted into one reused
/// line buffer.
pub fn write<W: Write>(w: &mut W, records: &[TraceRecord]) -> std::io::Result<()> {
    let mut line = String::new();
    for r in records {
        line.clear();
        push_record(&mut line, r);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Canonical JSONL text for `records`.
pub fn to_string(records: &[TraceRecord]) -> String {
    let mut out = Vec::new();
    let _ = write(&mut out, records);
    String::from_utf8(out).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::read_all;

    fn rec(vm: u64) -> TraceRecord {
        TraceRecord {
            vm,
            arrival_s: 12.5,
            lifetime_s: 3600.0,
            cpu_cores: 2.0,
            mem_mb: 4096.0,
            curve: vec![
                CurvePoint {
                    offset_s: 0.0,
                    cpu: 0.3,
                    mem: 0.5,
                },
                CurvePoint {
                    offset_s: 300.0,
                    cpu: 0.8,
                    mem: 0.6,
                },
            ],
        }
    }

    #[test]
    fn writes_then_reads_back_exactly() {
        let records = vec![rec(0), rec(1)];
        let text = to_string(&records);
        let mut reader = JsonlReader::new(text.as_bytes());
        assert_eq!(read_all(&mut reader).unwrap(), records);
        let mut reader = JsonlReader::new(text.as_bytes());
        assert_eq!(to_string(&read_all(&mut reader).unwrap()), text);
    }

    #[test]
    fn truncated_record_is_a_line_numbered_error() {
        let good = format_record(&rec(0));
        let cut = &good[..good.len() - 10];
        let text = format!("{good}\n{cut}\n");
        let err = read_all(&mut JsonlReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn a_line_of_open_brackets_is_a_line_numbered_error_not_a_stack_overflow() {
        use crate::json::{Json, MAX_DEPTH};
        let deep = "[".repeat(100_000);
        let msg = Json::parse(&deep).unwrap_err();
        assert!(msg.contains("nesting deeper"), "{msg}");
        let text = format!("{}\n{deep}\n", format_record(&rec(0)));
        let err = read_all(&mut JsonlReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("nesting deeper"), "{}", err.msg);
        // The bound itself still parses.
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_bound).is_ok());
    }

    #[test]
    fn unknown_keys_and_bad_curves_are_rejected() {
        let text = r#"{"vm":0,"arrival_s":0,"lifetime_s":60,"cpu_cores":1,"mem_mb":1024,"curve":[],"bogus":1}"#;
        let err = read_all(&mut JsonlReader::new(text.as_bytes())).unwrap_err();
        assert!(err.msg.contains("bogus"), "{}", err.msg);

        let text = r#"{"vm":0,"arrival_s":0,"lifetime_s":60,"cpu_cores":1,"mem_mb":1024,"curve":[[0,0.5]]}"#;
        let err = read_all(&mut JsonlReader::new(text.as_bytes())).unwrap_err();
        assert!(err.msg.contains("curve point 0"), "{}", err.msg);
    }

    #[test]
    fn validation_is_shared_with_csv() {
        let text =
            r#"{"vm":0,"arrival_s":0,"lifetime_s":-60,"cpu_cores":1,"mem_mb":1024,"curve":[]}"#;
        let err = read_all(&mut JsonlReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("lifetime"), "{}", err.msg);
    }
}
