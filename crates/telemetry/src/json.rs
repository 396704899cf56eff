//! Minimal deterministic JSON rendering helpers.
//!
//! The exporters need exactly three things from JSON — string escaping,
//! deterministic number formatting, and object assembly with caller-chosen
//! key order — so this hand-rolled writer avoids pulling a serialisation
//! dependency into the workspace. Output is canonical for our purposes:
//! the same calls always produce the same bytes.

use std::fmt::Write as _;

/// Escape `s` as the *contents* of a JSON string (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Append `s`, escaped as the contents of a JSON string, to `out`.
/// Runs of bytes that need no escape are copied whole.
fn escape_into(out: &mut String, s: &str) {
    // Every byte that needs an escape is ASCII, so `copied` and `i` always
    // sit on character boundaries.
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// Render an `f64` deterministically. Uses Rust's shortest-roundtrip
/// `Display`, mapping non-finite values (invalid JSON) to `null`.
pub fn num(v: f64) -> String {
    let mut out = String::new();
    num_into(&mut out, v);
    out
}

/// Append `v` to `out` in the form [`num`] returns.
pub(crate) fn num_into(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Incremental JSON object writer with insertion-order keys.
///
/// The writer owns the buffer it returns: `{` is pushed when the object
/// begins, every field is escaped and formatted straight into the buffer,
/// and [`Obj::finish`] pushes `}` and hands the buffer back.
#[derive(Debug)]
pub struct Obj {
    out: String,
    /// No field written yet: the next one takes no leading comma.
    empty: bool,
}

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

impl Obj {
    /// Start an empty object in a buffer of its own.
    pub fn new() -> Self {
        Self::begin(String::new())
    }

    /// Start an empty object at the end of `out`; [`Obj::finish`] returns
    /// `out` with the object appended. This is how a multi-object document
    /// (a JSON array, JSONL) is written front to back into one buffer.
    pub fn begin(mut out: String) -> Self {
        out.push('{');
        Obj { out, empty: true }
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push('"');
        escape_into(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// Add a string field whose value is `parts` one after another, each
    /// escaped straight into the buffer.
    pub fn str_parts(mut self, key: &str, parts: &[&str]) -> Self {
        self.key(key);
        self.out.push('"');
        for part in parts {
            escape_into(&mut self.out, part);
        }
        self.out.push('"');
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Add a float field.
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        num_into(&mut self.out, value);
        self
    }

    /// Add a pre-rendered JSON value (object, array, …) verbatim.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push_str(value);
        self
    }

    /// Add an object field written in place: `build` receives the nested
    /// object, already open in this buffer, and returns it with its fields.
    pub fn obj(mut self, key: &str, build: impl FnOnce(Obj) -> Obj) -> Self {
        self.key(key);
        self.out = build(Obj::begin(self.out)).finish();
        self
    }

    /// Finish: `{"k":v,...}`, after whatever the buffer held at
    /// [`Obj::begin`].
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str("\":");
    }
}

/// Render a JSON array from pre-rendered element strings.
pub fn array(elems: &[String]) -> String {
    // audit-allow(edge-alloc): by-value helper for callers that already hold rendered elements
    format!("[{}]", elems.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn numbers_are_roundtrip_and_finite() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let o = Obj::new()
            .str("name", "x")
            .u64("ts", 12)
            .f64("v", 0.5)
            .raw("args", "{}")
            .str_parts("d", &["c", "7\""])
            .finish();
        assert_eq!(
            o,
            "{\"name\":\"x\",\"ts\":12,\"v\":0.5,\"args\":{},\"d\":\"c7\\\"\"}"
        );
    }

    #[test]
    fn array_joins() {
        assert_eq!(array(&["1".into(), "2".into()]), "[1,2]");
        assert_eq!(array(&[]), "[]");
    }
}
