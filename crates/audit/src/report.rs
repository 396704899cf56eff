//! Rendering lint findings for humans and machines.
//!
//! The JSON encoder is hand-rolled (the workspace builds offline, with
//! no serde); the schema is small and stable:
//!
//! ```json
//! {
//!   "findings": [
//!     {"rule": "...", "path": "...", "line": 3,
//!      "snippet": "...", "hint": "...", "allowed": false}
//!   ],
//!   "total": 1,
//!   "active": 1
//! }
//! ```

use snooze_simcore::telemetry::json;

use crate::lint::Finding;

/// Findings as the JSON document described in the module docs.
pub fn findings_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"snippet\": \"{}\", \"hint\": \"{}\", \"allowed\": {}}}",
            json::escape(f.rule),
            json::escape(&f.path),
            f.line,
            json::escape(&f.snippet),
            json::escape(f.hint),
            f.allowed,
        ));
    }
    let active = findings.iter().filter(|f| !f.allowed).count();
    out.push_str(&format!(
        "\n  ],\n  \"total\": {},\n  \"active\": {}\n}}\n",
        findings.len(),
        active
    ));
    out
}

/// Findings as compiler-style text: `path:line: [rule] snippet` plus the
/// fix hint, with allowed findings marked when included.
pub fn findings_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let marker = if f.allowed { " (allowed)" } else { "" };
        out.push_str(&format!(
            "{}:{}: [{}]{} {}\n",
            f.path, f.line, f.rule, marker, f.snippet
        ));
        out.push_str(&format!("    fix: {}\n", f.hint));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            rule: "hash-iter",
            hint: "use a BTreeMap",
            path: "crates/x/src/lib.rs".into(),
            line: 7,
            snippet: "for (k, v) in map.iter() { \"q\\\"\" }".into(),
            allowed: false,
        }
    }

    #[test]
    fn escapes_json_specials() {
        assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json::escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_document_shape() {
        let doc = findings_json(&[finding()]);
        assert!(doc.contains("\"rule\": \"hash-iter\""));
        assert!(doc.contains("\"line\": 7"));
        assert!(doc.contains("\"total\": 1"));
        assert!(doc.contains("\"active\": 1"));
        assert!(doc.trim_end().ends_with('}'));
    }

    #[test]
    fn text_includes_hint() {
        let txt = findings_text(&[finding()]);
        assert!(txt.contains("crates/x/src/lib.rs:7: [hash-iter]"));
        assert!(txt.contains("fix: use a BTreeMap"));
    }
}
