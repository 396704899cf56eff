//! The [`DatasetReader`] adapter trait and external-format adapters.
//!
//! The canonical readers ([`crate::csv`], [`crate::jsonl`]) and the
//! external-layout adapters below all present the same streaming
//! interface: pull one validated [`TraceRecord`] at a time. Scenario
//! code consumes the trait, so a new dataset format only needs a new
//! adapter, not new plumbing.

use std::io::BufRead;
use std::path::Path;

use crate::error::{Excerpt, TraceError};
use crate::record::{CurvePoint, TraceRecord};

/// A streaming source of canonical trace records.
///
/// Implementations validate as they go and report failures with input
/// line numbers; they must never panic on malformed input and must
/// preserve input order (no hash containers — readers sit on the
/// simulation path).
pub trait DatasetReader {
    /// Pull the next record, `Ok(None)` at end of input.
    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError>;
}

/// Drain a reader into a vector.
pub fn read_all(reader: &mut dyn DatasetReader) -> Result<Vec<TraceRecord>, TraceError> {
    let mut out = Vec::new();
    while let Some(r) = reader.next_record()? {
        out.push(r);
    }
    Ok(out)
}

/// Load a trace file by extension (`.csv` or `.jsonl`), returning the
/// records sorted by `(arrival, vm)` — the deterministic replay order
/// the scenario compiler wants regardless of file order.
pub fn load_path(path: &Path) -> Result<Vec<TraceRecord>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let buf = std::io::BufReader::new(file);
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let mut records = match ext {
        "csv" => read_all(&mut crate::csv::CsvReader::new(buf)),
        "jsonl" => read_all(&mut crate::jsonl::JsonlReader::new(buf)),
        other => {
            return Err(format!(
                "{}: unknown trace extension `{other}` (expected .csv or .jsonl)",
                path.display()
            ))
        }
    }
    .map_err(|e| format!("{}: {e}", path.display()))?;
    records.sort_by(|a, b| {
        a.arrival_s
            .total_cmp(&b.arrival_s)
            .then_with(|| a.vm.cmp(&b.vm))
    });
    Ok(records)
}

/// Line-by-line input with 1-based numbering, BOM stripping and
/// `\r\n` tolerance — the byte-order/line-ending independence both
/// canonical readers share. Call [`LineReader::advance`] then borrow
/// the line with [`LineReader::current`].
pub(crate) struct LineReader<R: BufRead> {
    inner: R,
    line: usize,
    buf: String,
    start: usize,
    end: usize,
}

impl<R: BufRead> LineReader<R> {
    pub(crate) fn new(inner: R) -> Self {
        LineReader {
            inner,
            line: 0,
            buf: String::new(),
            start: 0,
            end: 0,
        }
    }

    /// The 1-based number of the current line.
    pub(crate) fn line(&self) -> usize {
        self.line
    }

    /// Advance to the next non-empty line; `false` at end of input.
    /// The line is trimmed of its trailing newline (`\n` or `\r\n`)
    /// and, on the first line, of a UTF-8 BOM.
    pub(crate) fn advance(&mut self) -> Result<bool, TraceError> {
        loop {
            self.buf.clear();
            let n = self
                .inner
                .read_line(&mut self.buf)
                .map_err(|e| TraceError::at(self.line + 1, format!("read error: {e}")))?;
            if n == 0 {
                return Ok(false);
            }
            self.line += 1;
            let trimmed = self.buf.trim_end_matches(['\n', '\r']);
            let mut start = 0;
            let end = trimmed.len();
            if self.line == 1 {
                if let Some(stripped) = trimmed.strip_prefix('\u{feff}') {
                    start = trimmed.len() - stripped.len();
                }
            }
            if !self.buf[start..end].trim().is_empty() {
                self.start = start;
                self.end = end;
                return Ok(true);
            }
        }
    }

    /// The current line (valid after `advance` returned `true`).
    pub(crate) fn current(&self) -> &str {
        &self.buf[self.start..self.end]
    }
}

/// Consume the first line, which must be `header`.
pub(crate) fn expect_header<R: BufRead>(
    lines: &mut LineReader<R>,
    header: &str,
) -> Result<(), TraceError> {
    if !lines.advance()? {
        return Err(TraceError::at(0, "empty input: missing header"));
    }
    let h = lines.current();
    if h.trim() != header {
        return Err(TraceError::at(
            lines.line(),
            format!("unexpected header `{}` (expected `{header}`)", Excerpt(h)),
        ));
    }
    Ok(())
}

/// The comma-separated fields of `row`, one per call, after checking there
/// are exactly `expected` of them (a call past the last yields `""`).
pub(crate) fn fields<'a>(
    line: usize,
    row: &'a str,
    expected: usize,
) -> Result<impl FnMut() -> &'a str, TraceError> {
    let got = row.split(',').count();
    if got != expected {
        return Err(TraceError::at(
            line,
            format!("expected {expected} fields, got {got} (truncated record?)"),
        ));
    }
    let mut fields = row.split(',');
    Ok(move || fields.next().unwrap_or(""))
}

pub(crate) fn parse_field<T: std::str::FromStr>(
    line: usize,
    name: &str,
    raw: &str,
) -> Result<T, TraceError> {
    raw.trim()
        .parse::<T>()
        .map_err(|_| TraceError::at(line, format!("invalid `{name}`: `{}`", Excerpt(raw.trim()))))
}

// ---------------------------------------------------------------------------
// Azure-shaped adapter
// ---------------------------------------------------------------------------

/// Adapter for an Azure-Public-Dataset-shaped VM table: CSV with columns
/// `vmid,vmcreated,vmdeleted,corecount,memorygb,avgcpu,p95maxcpu`
/// (timestamps in seconds, cpu readings in percent of the reservation).
///
/// Lowering: arrival = `vmcreated`, lifetime = `vmdeleted − vmcreated`,
/// reservation = `corecount` cores / `memorygb × 1024` MB, and the
/// demand curve is two points — average cpu from arrival, p95 cpu from
/// the lifetime's midpoint — with memory flat at the reservation (the
/// Azure table reports allocations, not memory readings).
pub struct AzureShapedReader<R: BufRead> {
    lines: LineReader<R>,
    header_seen: bool,
}

impl<R: BufRead> AzureShapedReader<R> {
    /// Wrap a buffered reader over the Azure-shaped CSV.
    pub fn new(inner: R) -> Self {
        AzureShapedReader {
            lines: LineReader::new(inner),
            header_seen: false,
        }
    }
}

const AZURE_HEADER: &str = "vmid,vmcreated,vmdeleted,corecount,memorygb,avgcpu,p95maxcpu";

impl<R: BufRead> DatasetReader for AzureShapedReader<R> {
    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        if !self.header_seen {
            expect_header(&mut self.lines, AZURE_HEADER)?;
            self.header_seen = true;
        }
        if !self.lines.advance()? {
            return Ok(None);
        }
        let n = self.lines.line();
        let mut field = fields(n, self.lines.current(), 7)?;
        let vm: u64 = parse_field(n, "vmid", field())?;
        let created: f64 = parse_field(n, "vmcreated", field())?;
        let deleted: f64 = parse_field(n, "vmdeleted", field())?;
        let cores: f64 = parse_field(n, "corecount", field())?;
        let mem_gb: f64 = parse_field(n, "memorygb", field())?;
        let avg_pct: f64 = parse_field(n, "avgcpu", field())?;
        let p95_pct: f64 = parse_field(n, "p95maxcpu", field())?;
        let lifetime = deleted - created;
        let mut curve = Vec::with_capacity(if lifetime > 2.0 { 2 } else { 1 });
        curve.push(CurvePoint {
            offset_s: 0.0,
            cpu: avg_pct / 100.0,
            mem: 1.0,
        });
        if lifetime > 2.0 {
            curve.push(CurvePoint {
                offset_s: lifetime / 2.0,
                cpu: p95_pct / 100.0,
                mem: 1.0,
            });
        }
        let record = TraceRecord {
            vm,
            arrival_s: created,
            lifetime_s: lifetime,
            cpu_cores: cores,
            mem_mb: mem_gb * 1024.0,
            curve,
        };
        record.validate().map_err(|m| TraceError::at(n, m))?;
        Ok(Some(record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn azure_shape_maps_onto_canonical_records() {
        let input = "vmid,vmcreated,vmdeleted,corecount,memorygb,avgcpu,p95maxcpu\n\
                     1,0,3600,4,16,12.5,80\n\
                     2,300,360,2,8,50,90\n";
        let mut r = AzureShapedReader::new(input.as_bytes());
        let all = read_all(&mut r).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].cpu_cores, 4.0);
        assert_eq!(all[0].mem_mb, 16.0 * 1024.0);
        assert_eq!(all[0].curve.len(), 2);
        assert_eq!(all[0].curve[0].cpu, 0.125);
        assert_eq!(all[0].curve[1].offset_s, 1800.0);
        assert_eq!(all[0].curve[1].cpu, 0.8);
    }

    #[test]
    fn azure_shape_rejects_deleted_before_created() {
        let input = "vmid,vmcreated,vmdeleted,corecount,memorygb,avgcpu,p95maxcpu\n\
                     1,3600,0,4,16,12.5,80\n";
        let mut r = AzureShapedReader::new(input.as_bytes());
        let err = read_all(&mut r).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("lifetime"));
    }
}
