//! A small, dependency-free TOML subset: exactly what scenario files
//! need, nothing more.
//!
//! The build environment has no route to crates.io, so instead of the
//! `toml` crate this module hand-rolls the subset the scenario schema
//! uses:
//!
//! * bare keys with scalar values (string, integer, float, boolean),
//! * single-line arrays of scalars,
//! * `[table]` and `[[array-of-tables]]` headers with dotted paths,
//! * full-line and trailing `#` comments.
//!
//! The writer emits one **canonical form** (sorted keys, scalars before
//! sub-tables, floats always carrying a decimal point), so that
//! `render(parse(s)) == s` for any canonically written document — the
//! property the scenario round-trip tests pin down.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float (always rendered with a decimal point or exponent).
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array of scalars.
    Array(Vec<Value>),
    /// A table (`[header]` or nested).
    Table(BTreeMap<String, Value>),
    /// An array of tables (`[[header]]`).
    TableArray(Vec<BTreeMap<String, Value>>),
}

impl Value {
    /// Empty table.
    pub fn table() -> Value {
        Value::Table(BTreeMap::new())
    }

    /// The table map, if this is a table.
    pub fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// String content, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content (also accepts an integral float).
    pub fn as_int(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(f as i64),
            _ => None,
        }
    }

    /// Float content (also accepts an integer).
    pub fn as_float(&self) -> Option<f64> {
        match *self {
            Value::Float(f) => Some(f),
            Value::Int(i) => Some(i as f64),
            _ => None,
        }
    }

    /// Boolean content, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// Parse a document into its root table.
pub fn parse(input: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut root = BTreeMap::new();
    // Path of the table the cursor currently appends into.
    let mut cursor: Vec<String> = Vec::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = strip_comment(raw).trim().to_string();
        let err = |msg: &str| format!("line {}: {msg}: {raw}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(path) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let path = split_path(path).map_err(|m| err(&m))?;
            let table = navigate(&mut root, &path[..path.len() - 1]).map_err(|m| err(&m))?;
            let leaf = path.last().expect("non-empty path").clone();
            match table
                .entry(leaf)
                .or_insert_with(|| Value::TableArray(Vec::new()))
            {
                Value::TableArray(v) => v.push(BTreeMap::new()),
                _ => return Err(err("key already holds a non-array-of-tables value")),
            }
            cursor = path;
        } else if let Some(path) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let path = split_path(path).map_err(|m| err(&m))?;
            // Creating the table as a side effect of navigation.
            navigate(&mut root, &path).map_err(|m| err(&m))?;
            cursor = path;
        } else if let Some(eq) = find_unquoted(&line, '=') {
            let key = line[..eq].trim();
            if key.is_empty() || !is_bare_key(key) {
                return Err(err("expected a bare key"));
            }
            let value = parse_value(line[eq + 1..].trim()).map_err(|m| err(&m))?;
            let table = navigate(&mut root, &cursor).map_err(|m| err(&m))?;
            if table.insert(key.to_string(), value).is_some() {
                return Err(err("duplicate key"));
            }
        } else {
            return Err(err("expected `key = value` or a [table] header"));
        }
    }
    Ok(root)
}

/// Render a root table in canonical form.
pub fn render(root: &BTreeMap<String, Value>) -> String {
    let mut out = String::new();
    render_table(&mut out, root, &[], true);
    out
}

fn render_table(out: &mut String, table: &BTreeMap<String, Value>, path: &[String], root: bool) {
    if !root {
        if !out.is_empty() {
            out.push('\n');
        }
        let _ = writeln!(out, "[{}]", path.join("."));
    }
    // Scalars and scalar arrays first, in key order …
    for (k, v) in table {
        match v {
            Value::Table(_) | Value::TableArray(_) => {}
            v => {
                let _ = writeln!(out, "{k} = {}", render_scalar(v));
            }
        }
    }
    // … then sub-tables, then arrays of tables.
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
                // Array-of-table elements hold scalars and sub-tables;
                // nested arrays-of-tables render with the full path.
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

/// Deep-merge `patch` onto `base` (variant expansion): tables merge
/// recursively, arrays-of-tables merge element-wise by index (extra
/// patch elements append), everything else replaces.
pub fn deep_merge(base: &mut BTreeMap<String, Value>, patch: &BTreeMap<String, Value>) {
    for (k, pv) in patch {
        match (base.get_mut(k), pv) {
            (Some(Value::Table(b)), Value::Table(p)) => deep_merge(b, p),
            (Some(Value::TableArray(b)), Value::TableArray(p)) => {
                for (i, elem) in p.iter().enumerate() {
                    if i < b.len() {
                        deep_merge(&mut b[i], elem);
                    } else {
                        b.push(elem.clone());
                    }
                }
            }
            _ => {
                base.insert(k.clone(), pv.clone());
            }
        }
    }
}

/// How many dotted segments a table header may have. Each segment is a
/// level of nested tables, which drop (and render) recursively and whose
/// canonical form repeats the whole path per level; the checked-in
/// scenarios go six deep.
const MAX_PATH_DEPTH: usize = 16;

fn split_path(path: &str) -> Result<Vec<String>, String> {
    if path.split('.').nth(MAX_PATH_DEPTH).is_some() {
        return Err(format!(
            "table path has more than {MAX_PATH_DEPTH} segments"
        ));
    }
    let parts: Vec<String> = path.split('.').map(|p| p.trim().to_string()).collect();
    if parts.iter().any(|p| p.is_empty() || !is_bare_key(p)) {
        return Err(format!("bad table path `{path}`"));
    }
    Ok(parts)
}

/// Walk to the table at `path` from `root`, creating intermediate
/// tables, descending into the *last* element of arrays-of-tables.
fn navigate<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
) -> Result<&'a mut BTreeMap<String, Value>, String> {
    let mut cur = root;
    for seg in path {
        let entry = cur.entry(seg.clone()).or_insert_with(Value::table);
        cur = match entry {
            Value::Table(t) => t,
            Value::TableArray(v) => v
                .last_mut()
                .ok_or_else(|| format!("empty array of tables at `{seg}`"))?,
            _ => return Err(format!("`{seg}` is not a table")),
        };
    }
    Ok(cur)
}

fn is_bare_key(s: &str) -> bool {
    s.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn strip_comment(line: &str) -> &str {
    match find_unquoted(line, '#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn find_unquoted(line: &str, needle: char) -> Option<usize> {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            c if c == needle && !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_value(s: &str) -> Result<Value, String> {
    if let Some(body) = s.strip_prefix('"') {
        let mut out = String::new();
        let mut escaped = false;
        for (i, c) in body.char_indices() {
            if escaped {
                out.push(match c {
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                if !body[i + c.len_utf8()..].trim().is_empty() {
                    return Err("trailing garbage after string".into());
                }
                return Ok(Value::Str(out));
            } else {
                out.push(c);
            }
        }
        return Err("unterminated string".into());
    }
    if let Some(body) = s.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?;
        let mut items = Vec::new();
        for part in split_top_level(body) {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_value(part)?);
            }
        }
        return Ok(Value::Array(items));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if s.contains(['.', 'e', 'E']) {
        return s
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("bad float `{s}`"));
    }
    s.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("bad value `{s}`"))
}

fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars_tables_and_arrays() {
        let doc = r#"
name = "demo" # trailing comment
seed = 42
ratio = 0.5
on = true
sizes = [1, 2, 3]

[topology]
lcs = 16

[[workload]]
kind = "burst"
n = 10

[[workload]]
kind = "burst"
n = 20
"#;
        let root = parse(doc).unwrap();
        assert_eq!(root["name"], Value::Str("demo".into()));
        assert_eq!(root["seed"], Value::Int(42));
        assert_eq!(root["ratio"], Value::Float(0.5));
        assert_eq!(root["on"], Value::Bool(true));
        assert_eq!(
            root["sizes"],
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        let topo = root["topology"].as_table().unwrap();
        assert_eq!(topo["lcs"], Value::Int(16));
        match &root["workload"] {
            Value::TableArray(v) => {
                assert_eq!(v.len(), 2);
                assert_eq!(v[1]["n"], Value::Int(20));
            }
            other => panic!("expected array of tables, got {other:?}"),
        }
    }

    #[test]
    fn dotted_headers_descend_into_last_array_element() {
        let doc = r#"
[[variant]]
name = "a"

[variant.config]
x = 1

[[variant]]
name = "b"

[variant.config]
x = 2
"#;
        let root = parse(doc).unwrap();
        match &root["variant"] {
            Value::TableArray(v) => {
                assert_eq!(v[0]["config"].as_table().unwrap()["x"], Value::Int(1));
                assert_eq!(v[1]["config"].as_table().unwrap()["x"], Value::Int(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn canonical_render_round_trips() {
        let doc = r#"
name = "demo"
ratio = 2.5
whole = 4096.0

[topology]
lcs = 16

[topology.client]
retry_ms = 15000.0

[[workload]]
n = 10
"#;
        let root = parse(doc).unwrap();
        let canon = render(&root);
        assert_eq!(parse(&canon).unwrap(), root);
        assert_eq!(render(&parse(&canon).unwrap()), canon);
        assert!(canon.contains("whole = 4096.0"), "{canon}");
    }

    #[test]
    fn a_header_of_200_000_segments_is_a_line_numbered_error() {
        for (open, close) in [("[", "]"), ("[[", "]]")] {
            let deep = format!("x = 1\n{open}a{}{close}\n", ".a".repeat(199_999));
            let err = parse(&deep).unwrap_err();
            assert!(err.starts_with("line 2: table path has more than 16 segments"));
        }
        let at_bound = format!("[a{}]\nx = 1\n", ".a".repeat(MAX_PATH_DEPTH - 1));
        assert!(render(&parse(&at_bound).unwrap()).ends_with(&at_bound));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("x = \n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse("x = 1\nx = 2\n").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }
}
