//! `edge-alloc` fixture, linted as `crates/trace/src/csv.rs`: a wrapper
//! that must return a `String` of its own keeps its allocation.

// Writers

pub fn to_line(line: usize) -> String {
    // audit-allow(edge-alloc): a by-value wrapper returns its own String
    format!("line {line}")
}
