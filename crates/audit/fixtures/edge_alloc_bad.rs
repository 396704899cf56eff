//! `edge-alloc` fixture, linted as `crates/trace/src/csv.rs`: the writers
//! start at the `// Writers` banner, so only the second `format!(` counts.

fn describe(out: &mut String, line: usize) {
    out.push_str(&format!("line {line}"));
}

// Writers

fn push_row(out: &mut String, line: usize) {
    out.push_str(&format!("line {line}"));
}
