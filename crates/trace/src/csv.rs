//! Canonical CSV trace format.
//!
//! Header, then one record per line:
//!
//! ```text
//! vm,arrival_s,lifetime_s,cpu_cores,mem_mb,curve
//! 0,12.5,3600,2,4096,0:0.3:0.5;300:0.8:0.6
//! ```
//!
//! The `curve` field is a `;`-separated list of `offset:cpu:mem`
//! triples (fractions of the reservation); an empty field means "flat
//! at the full reservation". Floats render in Rust's shortest
//! round-trip form, so writing and re-reading is byte-exact — the
//! canonical-writer property the round-trip tests pin.

use std::fmt::Write as _;
use std::io::{BufRead, Write};

use crate::dataset::{expect_header, fields, parse_field, DatasetReader, LineReader};
use crate::error::{Excerpt, TraceError};
use crate::record::{CurvePoint, TraceRecord};

/// The canonical header line.
pub const HEADER: &str = "vm,arrival_s,lifetime_s,cpu_cores,mem_mb,curve";

/// Streaming, validating reader of the canonical CSV format.
pub struct CsvReader<R: BufRead> {
    lines: LineReader<R>,
    header_seen: bool,
}

impl<R: BufRead> CsvReader<R> {
    /// Wrap a buffered reader over canonical CSV text.
    pub fn new(inner: R) -> Self {
        CsvReader {
            lines: LineReader::new(inner),
            header_seen: false,
        }
    }
}

impl<R: BufRead> DatasetReader for CsvReader<R> {
    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        if !self.header_seen {
            expect_header(&mut self.lines, HEADER)?;
            self.header_seen = true;
        }
        if !self.lines.advance()? {
            return Ok(None);
        }
        let n = self.lines.line();
        let mut field = fields(n, self.lines.current(), 6)?;
        let record = TraceRecord {
            vm: parse_field(n, "vm", field())?,
            arrival_s: parse_field(n, "arrival_s", field())?,
            lifetime_s: parse_field(n, "lifetime_s", field())?,
            cpu_cores: parse_field(n, "cpu_cores", field())?,
            mem_mb: parse_field(n, "mem_mb", field())?,
            curve: parse_curve(n, field())?,
        };
        record.validate().map_err(|m| TraceError::at(n, m))?;
        Ok(Some(record))
    }
}

fn parse_curve(line: usize, raw: &str) -> Result<Vec<CurvePoint>, TraceError> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Ok(Vec::new());
    }
    // Sized to the points: most curves hold one or two, and a collect
    // through `Result` would start at four.
    let mut curve = Vec::with_capacity(raw.bytes().filter(|&b| b == b';').count() + 1);
    for triple in raw.split(';') {
        let mut parts = triple.split(':');
        let (Some(offset), Some(cpu), Some(mem), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(TraceError::at(
                line,
                format!(
                    "curve point `{}` must be `offset:cpu:mem` (truncated record?)",
                    Excerpt(triple)
                ),
            ));
        };
        curve.push(CurvePoint {
            offset_s: parse_field(line, "curve offset", offset)?,
            cpu: parse_field(line, "curve cpu", cpu)?,
            mem: parse_field(line, "curve mem", mem)?,
        });
    }
    Ok(curve)
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Append one record's canonical CSV line (no newline) to `out`. Floats go
/// through `Display`, the canonical form [`crate::record::fmt_f64`] names.
fn push_record(out: &mut String, r: &TraceRecord) {
    let _ = write!(
        out,
        "{},{},{},{},{},",
        r.vm, r.arrival_s, r.lifetime_s, r.cpu_cores, r.mem_mb
    );
    for (i, p) in r.curve.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        let _ = write!(out, "{}:{}:{}", p.offset_s, p.cpu, p.mem);
    }
}

/// Render one record as its canonical CSV line (no newline).
// audit-allow(uncalled): the old-writer-vs-new proptest
// (tests/writer_reference.rs) compares one record's bytes through it.
pub fn format_record(r: &TraceRecord) -> String {
    let mut line = String::new();
    push_record(&mut line, r);
    line
}

/// Write records in canonical CSV form, each formatted into one reused
/// line buffer.
pub fn write<W: Write>(w: &mut W, records: &[TraceRecord]) -> std::io::Result<()> {
    writeln!(w, "{HEADER}")?;
    let mut line = String::new();
    for r in records {
        line.clear();
        push_record(&mut line, r);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Canonical CSV text for `records`.
pub fn to_string(records: &[TraceRecord]) -> String {
    let mut out = Vec::new();
    // Writing to a Vec cannot fail.
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
        let mut reader = CsvReader::new(text.as_bytes());
        assert_eq!(read_all(&mut reader).unwrap(), records);
        // And the re-written text is byte-identical.
        let mut reader = CsvReader::new(text.as_bytes());
        assert_eq!(to_string(&read_all(&mut reader).unwrap()), text);
    }

    #[test]
    fn tolerates_crlf_and_bom() {
        let text = to_string(&[rec(3)]);
        let crlf = format!("\u{feff}{}", text.replace('\n', "\r\n"));
        let mut reader = CsvReader::new(crlf.as_bytes());
        assert_eq!(read_all(&mut reader).unwrap(), vec![rec(3)]);
    }

    #[test]
    fn empty_curve_means_flat_full() {
        let text = format!("{HEADER}\n5,0,60,1,1024,\n");
        let mut reader = CsvReader::new(text.as_bytes());
        let all = read_all(&mut reader).unwrap();
        assert!(all[0].curve.is_empty());
    }

    #[test]
    fn truncated_row_is_a_line_numbered_error() {
        let text = format!("{HEADER}\n0,12.5,3600,2,4096,\n1,9,60\n");
        let mut reader = CsvReader::new(text.as_bytes());
        let err = read_all(&mut reader).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("truncated"), "{}", err.msg);
    }

    #[test]
    fn truncated_curve_point_is_a_line_numbered_error() {
        let text = format!("{HEADER}\n0,12.5,3600,2,4096,0:0.3\n");
        let mut reader = CsvReader::new(text.as_bytes());
        let err = read_all(&mut reader).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("offset:cpu:mem"), "{}", err.msg);
    }

    #[test]
    fn validation_errors_carry_the_line() {
        // Negative lifetime on line 3.
        let text = format!("{HEADER}\n0,0,60,1,1024,\n1,5,-60,1,1024,\n");
        let mut reader = CsvReader::new(text.as_bytes());
        let err = read_all(&mut reader).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("lifetime"), "{}", err.msg);

        // Demand over reservation.
        let text = format!("{HEADER}\n0,0,60,1,1024,0:1.5:0.5\n");
        let err = read_all(&mut CsvReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("exceeds reservation"), "{}", err.msg);

        // Unsorted curve.
        let text = format!("{HEADER}\n0,0,60,1,1024,300:0.5:0.5;0:0.4:0.4\n");
        let err = read_all(&mut CsvReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("time-increasing"), "{}", err.msg);
    }

    #[test]
    fn missing_header_is_rejected() {
        let err = read_all(&mut CsvReader::new("".as_bytes())).unwrap_err();
        assert_eq!(err.line, 0);
        let err = read_all(&mut CsvReader::new("vm,foo\n".as_bytes())).unwrap_err();
        assert_eq!(err.line, 1);
    }
}
