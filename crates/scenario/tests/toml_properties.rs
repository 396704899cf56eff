//! Properties of the TOML codec over generated documents.
//!
//! * **Round trip.** For any document of tables, arrays of tables and
//!   tables inside them to depth 4, with strings that hold `"`, `\`, `#`,
//!   `=`, line breaks, tabs and non-ASCII and finite floats of any
//!   magnitude, `parse(render(d)) == d` and rendering is a fixed point.
//!   (`render` of a NaN or an infinity is documented as unparseable.)
//!   Arrays of inline tables, the one value the old writer had no form
//!   for, round-trip the same way beside them.
//! * **The old writer is the reference.** [`reference`] is the renderer
//!   this one replaced, frozen: three hand-unrolled nesting levels that
//!   built a `String` per scalar and joined a cloned path per header. On
//!   every document it could write without dropping data the two produce
//!   the same bytes.
//! * **Hostile input.** `parse` of arbitrary text, and of valid documents
//!   with bytes cut, inserted and repeated, returns `Ok` or a short
//!   `line N: …` error — never a panic, never an error the size of its
//!   input.

use std::collections::BTreeMap;

use proptest::prelude::*;
use snooze_scenario::toml::{parse, render, Value};

type Table = BTreeMap<String, Value>;

/// The renderer as it stood before it became one recursive function,
/// unedited except for `pub` and names: what the new one must equal.
mod reference {
    use super::{Table, Value};
    use std::fmt::Write as _;

    pub fn render(root: &Table) -> String {
        let mut out = String::new();
        render_table(&mut out, root, &[], true);
        out
    }

    fn render_table(out: &mut String, table: &Table, path: &[String], root: bool) {
        if !root {
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "[{}]", path.join("."));
        }
        for (k, v) in table {
            match v {
                Value::Table(_) | Value::TableArray(_) => {}
                v => {
                    let _ = writeln!(out, "{k} = {}", render_scalar(v));
                }
            }
        }
        for (k, v) in table {
            if let Value::Table(t) = v {
                let mut sub = path.to_vec();
                sub.push(k.clone());
                render_table(out, t, &sub, false);
            }
        }
        for (k, v) in table {
            if let Value::TableArray(items) = v {
                let mut sub = path.to_vec();
                sub.push(k.clone());
                for item in items {
                    if !out.is_empty() {
                        out.push('\n');
                    }
                    let _ = writeln!(out, "[[{}]]", sub.join("."));
                    for (ik, iv) in item {
                        match iv {
                            Value::Table(_) | Value::TableArray(_) => {}
                            iv => {
                                let _ = writeln!(out, "{ik} = {}", render_scalar(iv));
                            }
                        }
                    }
                    for (ik, iv) in item {
                        if let Value::Table(t) = iv {
                            let mut p = sub.clone();
                            p.push(ik.clone());
                            render_table(out, t, &p, false);
                        }
                    }
                    for (ik, iv) in item {
                        if let Value::TableArray(nested) = iv {
                            let mut p = sub.clone();
                            p.push(ik.clone());
                            for elem in nested {
                                if !out.is_empty() {
                                    out.push('\n');
                                }
                                let _ = writeln!(out, "[[{}]]", p.join("."));
                                // The defect: tables and arrays of tables
                                // inside `elem` are never written.
                                for (nk, nv) in elem {
                                    match nv {
                                        Value::Table(_) | Value::TableArray(_) => {}
                                        nv => {
                                            let _ = writeln!(out, "{nk} = {}", render_scalar(nv));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn render_scalar(v: &Value) -> String {
        match v {
            Value::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{f:.1}")
                } else {
                    format!("{f}")
                }
            }
            Value::Bool(b) => b.to_string(),
            Value::Array(items) => {
                let body: Vec<String> = items.iter().map(render_scalar).collect();
                format!("[{}]", body.join(", "))
            }
            Value::Table(_) | Value::TableArray(_) => unreachable!("tables render via headers"),
        }
    }
}

/// Generated documents. With `old_safe`, they stay inside what the
/// reference renderer could write: an element of an array of tables that
/// itself sits in an element of an array of tables holds scalars only, no
/// string holds a line break or a tab (it wrote them raw), and no float is
/// whole and past 1e15 (it dropped the decimal point) or under 1e-4 (it
/// wrote every digit where `{:?}` writes an exponent).
struct Docs {
    old_safe: bool,
}

const MAX_DEPTH: usize = 4;
const KEYS: &[&str] = &["a", "b", "c", "k_1", "x-y", "Zed", "9"];
/// The last two are the ones only the new renderer escapes.
const STRING_CHARS: &[char] = &[
    '"', '\\', '#', '=', ' ', ',', '[', ']', '.', 'a', 'n', 't', '\r', 'é', '日', '𝄞', '\n', '\t',
];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

impl Docs {
    fn string(&self, rng: &mut TestRng) -> String {
        let chars = if self.old_safe {
            &STRING_CHARS[..STRING_CHARS.len() - 2]
        } else {
            STRING_CHARS
        };
        (0..rng.below(9)).map(|_| pick(rng, chars)).collect()
    }

    fn atom(&self, rng: &mut TestRng) -> Value {
        match rng.below(4) {
            0 => Value::Str(self.string(rng)),
            1 => Value::Int(match rng.below(4) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => rng.next_u64() as i64 >> rng.below(64),
            }),
            2 => Value::Float(match rng.below(6) {
                0 => pick(rng, &[0.0, -0.0, 0.1, 4096.0]),
                // Any finite float at all: 1e15, 1e300, 5e-324 included.
                1 if !self.old_safe => loop {
                    let f = f64::from_bits(rng.next_u64());
                    if f.is_finite() {
                        break f;
                    }
                },
                2 if !self.old_safe => pick(rng, &[1e15, -1e15, 1e16, 1e300, 1e-9, 5e-324]),
                _ => (rng.next_u64() as i64 >> 20) as f64 / 64.0,
            }),
            _ => Value::Bool(rng.below(2) == 0),
        }
    }

    fn scalar(&self, rng: &mut TestRng) -> Value {
        if rng.below(4) == 0 {
            Value::Array((0..rng.below(4)).map(|_| self.atom(rng)).collect())
        } else {
            self.atom(rng)
        }
    }

    /// One table `depth` levels down. `in_array` says it is an element of
    /// an array of tables; `scalars_only` that it may hold nothing else.
    fn table(&self, rng: &mut TestRng, depth: usize, in_array: bool, scalars_only: bool) -> Table {
        let mut t = Table::new();
        for _ in 0..rng.below(4) {
            t.insert(pick(rng, KEYS).to_string(), self.scalar(rng));
        }
        if depth == MAX_DEPTH || scalars_only {
            return t;
        }
        for _ in 0..rng.below(3) {
            let sub = self.table(rng, depth + 1, false, false);
            t.insert(pick(rng, KEYS).to_string(), Value::Table(sub));
        }
        for _ in 0..rng.below(3) {
            let items = (0..1 + rng.below(3))
                .map(|_| self.table(rng, depth + 1, true, self.old_safe && in_array))
                .collect();
            t.insert(pick(rng, KEYS).to_string(), Value::TableArray(items));
        }
        t
    }
}

impl Strategy for Docs {
    type Value = Table;
    fn generate(&self, rng: &mut TestRng) -> Table {
        self.table(rng, 0, false, false)
    }
}

/// Unrestricted documents with arrays of inline tables (scalars, arrays
/// and inline tables inside) set in some of their tables.
struct InlineDocs;

fn inline_table(rng: &mut TestRng, depth: usize) -> Table {
    let docs = Docs { old_safe: false };
    let mut t = Table::new();
    for _ in 0..rng.below(4) {
        let value = match rng.below(4) {
            0 if depth < 2 => Value::Table(inline_table(rng, depth + 1)),
            _ => docs.scalar(rng),
        };
        t.insert(pick(rng, KEYS).to_string(), value);
    }
    t
}

fn with_inline_arrays(t: &mut Table, rng: &mut TestRng) {
    for v in t.values_mut() {
        match v {
            Value::Table(sub) => with_inline_arrays(sub, rng),
            Value::TableArray(subs) => subs.iter_mut().for_each(|sub| with_inline_arrays(sub, rng)),
            _ => {}
        }
    }
    if rng.below(2) == 0 {
        let key = pick(rng, KEYS).to_string();
        let items = (0..rng.below(4)).map(|_| Value::Table(inline_table(rng, 0)));
        t.insert(key, Value::Array(items.collect()));
    }
}

impl Strategy for InlineDocs {
    type Value = Table;
    fn generate(&self, rng: &mut TestRng) -> Table {
        let mut doc = Docs { old_safe: false }.generate(rng);
        with_inline_arrays(&mut doc, rng);
        doc
    }
}

/// Arbitrary text from the characters the grammar gives meaning to, with
/// the odd very long run.
struct HostileText;

const HOSTILE_CHARS: &[char] = &[
    '[', ']', '.', '=', '"', '\\', '#', ',', ' ', '\t', '\n', '\n', '\r', 'a', 'b', '0', '7', '-',
    '+', 'e', '_', 't', 'r', 'u', 'é', '日', '\u{0}', '\u{feff}',
];

impl Strategy for HostileText {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for _ in 0..rng.below(120) {
            let c = pick(rng, HOSTILE_CHARS);
            let run = if rng.below(40) == 0 {
                1 + rng.below(3000)
            } else {
                1
            };
            out.extend((0..run).map(|_| c));
        }
        out
    }
}

/// A valid document damaged: ranges cut, characters inserted, pieces
/// repeated, all on character boundaries.
struct Mutated;

fn boundary(rng: &mut TestRng, s: &str) -> usize {
    let mut i = rng.below(s.len() as u64 + 1) as usize;
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

impl Strategy for Mutated {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut text = render(&Docs { old_safe: false }.generate(rng));
        for _ in 0..1 + rng.below(4) {
            let (a, b) = (boundary(rng, &text), boundary(rng, &text));
            let (a, b) = (a.min(b), a.max(b));
            match rng.below(4) {
                0 => text.replace_range(a..b, ""),
                1 => text.insert(a, pick(rng, HOSTILE_CHARS)),
                2 => {
                    let piece = text[a..b].to_string();
                    text.insert_str(a, &piece);
                }
                _ => text.truncate(a),
            }
        }
        text
    }
}

/// `Ok`, or `line N: …` in under 512 bytes.
fn ok_or_short_line_numbered_error(text: &str) -> Result<(), TestCaseError> {
    if let Err(e) = parse(text) {
        prop_assert!(e.len() < 512, "{} bytes: {e}", e.len());
        let line = e.strip_prefix("line ").and_then(|r| r.split_once(':'));
        let line = line.and_then(|(n, _)| n.parse::<usize>().ok());
        prop_assert!(
            line.is_some_and(|n| (1..=text.lines().count()).contains(&n)),
            "no line number of the input in `{e}`"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_then_parse_is_the_document(doc in Docs { old_safe: false }) {
        let text = render(&doc);
        let back = parse(&text);
        prop_assert_eq!(back.as_ref(), Ok(&doc), "rendered as:\n{}", text);
        prop_assert_eq!(render(&back.unwrap()), text);
    }

    #[test]
    fn arrays_of_inline_tables_render_then_parse_to_the_document(doc in InlineDocs) {
        let text = render(&doc);
        let back = parse(&text);
        prop_assert_eq!(back.as_ref(), Ok(&doc), "rendered as:\n{}", text);
        prop_assert_eq!(render(&back.unwrap()), text);
    }

    #[test]
    fn new_renderer_writes_the_reference_bytes(doc in Docs { old_safe: true }) {
        prop_assert_eq!(render(&doc), reference::render(&doc));
    }

    #[test]
    fn arbitrary_text_parses_or_fails_briefly(text in HostileText) {
        ok_or_short_line_numbered_error(&text)?;
    }

    #[test]
    fn damaged_documents_parse_or_fail_briefly(text in Mutated) {
        ok_or_short_line_numbered_error(&text)?;
    }
}

/// The generators reach what the properties are about: the reference
/// renderer really does lose data on a good share of the unrestricted
/// documents, and on none of the restricted ones.
#[test]
fn generated_documents_reach_the_shape_the_old_renderer_lost() {
    let mut rng = TestRng::from_seed(23);
    let mut lossy = 0;
    for _ in 0..256 {
        let doc = Docs { old_safe: false }.generate(&mut rng);
        lossy += usize::from(parse(&reference::render(&doc)).as_ref() != Ok(&doc));
        let safe = Docs { old_safe: true }.generate(&mut rng);
        assert_eq!(parse(&reference::render(&safe)).as_ref(), Ok(&safe));
    }
    assert!(lossy >= 16, "only {lossy} of 256 documents have the shape");
}

/// The document ISSUE 23 reproduced the defect with: four tables in, two
/// out, before the renderer recursed.
#[test]
fn a_table_three_levels_into_arrays_of_tables_is_written() {
    let text = "[[a]]\nx = 1\n\n[[a.b]]\ny = 2\n\n[a.b.c]\nz = 3\n\n[[a.b.d]]\nw = 4\n";
    let doc = parse(text).unwrap();
    assert_eq!(render(&doc), text);
    assert_eq!(reference::render(&doc), "[[a]]\nx = 1\n\n[[a.b]]\ny = 2\n");
}

/// A 400 000-byte line is reported by number and excerpt, not echoed.
#[test]
fn a_huge_bad_line_yields_a_short_error() {
    for line in [
        "x".repeat(400_000),
        format!("k = \"{}", "é".repeat(200_000)),
    ] {
        let err = parse(&line).unwrap_err();
        assert!(err.starts_with("line 1: "), "{err}");
        assert!(err.len() < 512, "{} bytes", err.len());
        assert!(err.ends_with('…'), "{err}");
    }
}
