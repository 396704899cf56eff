//! Line-numbered trace errors.
//!
//! Every reader failure carries the 1-based line of the offending input
//! so a malformed row in a million-record trace is findable. Readers
//! must never panic on bad input — a trace is external data.

use std::fmt;

/// A trace read/validation failure at a specific input line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number in the input (0 = before any line, e.g. an
    /// empty file where a header was required).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl TraceError {
    /// Build an error at `line` (1-based).
    pub fn at(line: usize, msg: impl Into<String>) -> TraceError {
        TraceError {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TraceError {}

/// The one excerpt type, defined below every crate that quotes input.
pub use snooze_simcore::excerpt::{Excerpt, EXCERPT_BYTES};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excerpt_keeps_short_input_and_cuts_long_input_on_a_char_boundary() {
        assert_eq!(Excerpt("vm,foo").to_string(), "vm,foo");
        let exact = "x".repeat(EXCERPT_BYTES);
        assert_eq!(Excerpt(&exact).to_string(), exact);
        // 'é' is two bytes: byte 120 falls inside the 60th one.
        let long = format!("a{}", "é".repeat(200));
        let shown = Excerpt(&long).to_string();
        assert_eq!(shown, format!("a{}…", "é".repeat(59)));
        assert!(shown.len() <= EXCERPT_BYTES + '…'.len_utf8());
    }
}
