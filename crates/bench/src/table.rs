//! Minimal fixed-width table printing for experiment output.

/// A printable table: header plus rows of equally many cells.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    /// Headers of the advisory columns (host wall-clock timings).
    advisory: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            advisory: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Mark the named columns advisory: host wall-clock timings, different
    /// on every run and machine, which [`Table::deterministic`] drops.
    pub fn advisory(mut self, columns: &[&str]) -> Self {
        self.advisory = columns.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Render as CSV (header + rows; cells containing commas or quotes
    /// are quoted per RFC 4180).
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write the CSV next to stdout output: `<dir>/<slug>.csv`, where the
    /// slug is derived from the title's leading experiment id.
    pub fn write_csv(&self, dir: &std::path::Path, slug: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{slug}.csv")), self.to_csv())
    }

    /// Render as machine-readable JSON.
    ///
    /// Schema: `{"title": string, "columns": [string, ...],
    /// "rows": [{"<column>": string, ...}, ...]}` — every cell is kept as
    /// the exact string that the text renderer prints (units and rounding
    /// included), so a JSON consumer sees precisely the published table.
    /// Duplicate column names would keep the last value; the manifest test
    /// (`tests/experiments_manifest.rs`) asserts no table has any.
    pub fn to_json(&self) -> String {
        let q = |s: &str| format!("\"{}\"", snooze_telemetry::json::escape(s));
        let mut out = String::from("{\n  \"title\": ");
        out.push_str(&q(&self.title));
        out.push_str(",\n  \"columns\": [");
        for (i, h) in self.header.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&q(h));
        }
        out.push_str("],\n  \"rows\": [");
        for (r, row) in self.rows.iter().enumerate() {
            out.push_str(if r > 0 { ",\n    {" } else { "\n    {" });
            for (i, (h, cell)) in self.header.iter().zip(row).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&q(h));
                out.push_str(": ");
                out.push_str(&q(cell));
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Write the JSON rendering to `<dir>/<slug>.json`.
    pub fn write_json(&self, dir: &std::path::Path, slug: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{slug}.json")), self.to_json())
    }

    /// A copy of the table without its advisory columns: what two
    /// same-seed runs must agree on byte for byte, and what the checked-in
    /// goldens pin.
    // audit-allow(uncalled): the golden replay (root
    // `tests/experiments_manifest.rs`) records and compares through it.
    pub fn deterministic(&self) -> Table {
        let keep: Vec<usize> = (0..self.header.len())
            .filter(|&i| !self.advisory.contains(&self.header[i]))
            .collect();
        Table {
            title: self.title.clone(),
            header: keep.iter().map(|&i| self.header[i].clone()).collect(),
            advisory: Vec::new(),
            rows: self
                .rows
                .iter()
                .map(|row| keep.iter().map(|&i| row[i].clone()).collect())
                .collect(),
        }
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.row(vec!["1".into(), "10.00".into()]);
        t.row(vec!["100".into(), "2.50".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("  n  value"));
        assert!(s.contains("  1  10.00"));
        assert!(s.contains("100   2.50"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_delimiters() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1,5".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"1,5\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn json_matches_documented_schema() {
        let mut t = Table::new("E0 demo", &["n", "note"]);
        t.row(vec!["1".into(), "plain".into()]);
        t.row(vec!["2".into(), "with \"quotes\"".into()]);
        let json = t.to_json();
        assert_eq!(
            json,
            "{\n  \"title\": \"E0 demo\",\n  \"columns\": [\"n\", \"note\"],\n  \"rows\": [\n    {\"n\": \"1\", \"note\": \"plain\"},\n    {\"n\": \"2\", \"note\": \"with \\\"quotes\\\"\"}\n  ]\n}\n"
        );
    }

    #[test]
    fn empty_table_still_renders_valid_json() {
        let t = Table::new("empty", &["a"]);
        assert_eq!(
            t.to_json(),
            "{\n  \"title\": \"empty\",\n  \"columns\": [\"a\"],\n  \"rows\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f1(2.34), "2.3");
        assert_eq!(pct(0.047), "4.7%");
    }
}
