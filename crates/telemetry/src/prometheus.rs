//! Prometheus text exposition format.
//!
//! [`PromWriter`] collects samples grouped into metric families and
//! renders them in the text exposition format (`# TYPE` headers, one
//! `name{labels} value` line per sample). Families render sorted by
//! name and samples sorted by label set, so the output is
//! byte-deterministic regardless of insertion order.

use std::collections::BTreeMap;

use crate::label::LabelSet;

/// Map an internal metric name (dotted, e.g. `net.sent`) to a legal
/// Prometheus metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`, everything else
/// becomes `_`.
fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => c,
            _ => '_',
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition format (`\\`, `\"`, `\n`).
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

struct Family {
    kind: &'static str,
    samples: BTreeMap<LabelSet, String>,
}

/// Builder for a text exposition document.
#[derive(Default)]
pub struct PromWriter {
    families: BTreeMap<String, Family>,
}

impl PromWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a counter sample.
    pub fn counter(&mut self, name: &str, labels: &LabelSet, value: u64) {
        self.sample("counter", name, labels, value.to_string());
    }

    /// Record a gauge sample.
    pub fn gauge(&mut self, name: &str, labels: &LabelSet, value: f64) {
        self.sample("gauge", name, labels, crate::json::num(value));
    }

    /// Record a summary quantile/`_sum`/`_count` family member. `name`
    /// is the base family name; callers add `quantile` labels or the
    /// `_sum`/`_count` suffixes through `suffix`.
    pub fn summary_part(&mut self, name: &str, suffix: &str, labels: &LabelSet, value: f64) {
        let full = format!("{}{}", sanitize_name(name), suffix);
        // The TYPE header hangs off the base family name.
        self.families
            .entry(sanitize_name(name))
            .or_insert_with(|| Family {
                kind: "summary",
                samples: BTreeMap::new(),
            });
        let fam = self.families.entry(full).or_insert_with(|| Family {
            kind: "",
            samples: BTreeMap::new(),
        });
        fam.samples.insert(labels.clone(), crate::json::num(value));
    }

    /// Record a raw sample with an explicit family `kind`.
    pub fn sample(&mut self, kind: &'static str, name: &str, labels: &LabelSet, value: String) {
        let fam = self
            .families
            .entry(sanitize_name(name))
            .or_insert_with(|| Family {
                kind,
                samples: BTreeMap::new(),
            });
        fam.samples.insert(labels.clone(), value);
    }

    /// Render the exposition document. Ends with a trailing newline, as
    /// scrapers expect.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            if !fam.kind.is_empty() {
                out.push_str(&format!("# TYPE {name} {}\n", fam.kind));
            }
            for (labels, value) in &fam.samples {
                out.push_str(name);
                if !labels.is_empty() {
                    out.push('{');
                    let body: Vec<String> = labels
                        .pairs()
                        .iter()
                        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label_value(v)))
                        .collect();
                    out.push_str(&body.join(","));
                    out.push('}');
                }
                out.push(' ');
                out.push_str(value);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::label;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("net.sent"), "net_sent");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok_name:x"), "ok_name:x");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn renders_sorted_families_and_samples() {
        let mut w = PromWriter::new();
        w.counter("z.count", &LabelSet::EMPTY, 3);
        w.counter("a.count", &label("role", "gm"), 1);
        w.counter("a.count", &label("role", "lc"), 2);
        w.gauge("m.gauge", &LabelSet::EMPTY, 1.5);
        let text = w.render();
        let expected = "# TYPE a_count counter\n\
                        a_count{role=\"gm\"} 1\n\
                        a_count{role=\"lc\"} 2\n\
                        # TYPE m_gauge gauge\n\
                        m_gauge 1.5\n\
                        # TYPE z_count counter\n\
                        z_count 3\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn summary_parts_share_one_type_header() {
        let mut w = PromWriter::new();
        w.summary_part("lat", "", &label("quantile", "0.5"), 2.0);
        w.summary_part("lat", "", &label("quantile", "0.99"), 4.0);
        w.summary_part("lat", "_sum", &LabelSet::EMPTY, 6.0);
        w.summary_part("lat", "_count", &LabelSet::EMPTY, 2.0);
        let text = w.render();
        assert_eq!(text.matches("# TYPE lat summary").count(), 1);
        assert!(text.contains("lat{quantile=\"0.5\"} 2\n"));
        assert!(text.contains("lat_sum 6\n"));
        assert!(text.contains("lat_count 2\n"));
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let render = |keys: &[&str]| {
            let mut w = PromWriter::new();
            for k in keys {
                w.counter(k, &LabelSet::EMPTY, 1);
            }
            w.render()
        };
        assert_eq!(render(&["b", "a", "c"]), render(&["c", "b", "a"]));
    }
}
