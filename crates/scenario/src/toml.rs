//! A small, dependency-free TOML subset: exactly what scenario files
//! need, nothing more.
//!
//! The build environment has no route to crates.io, so instead of the
//! `toml` crate this module hand-rolls the subset the scenario schema
//! uses:
//!
//! * bare keys with scalar values (string, integer, float, boolean),
//! * single-line arrays of scalars, of arrays and of inline tables
//!   (`[{ sort = "cpu" }, {}]`: one `[[sweep]]` element may set several
//!   keys, or none),
//! * `[table]` and `[[array-of-tables]]` headers with dotted paths,
//! * full-line and trailing `#` comments.
//!
//! The writer emits one **canonical form** (sorted keys, scalars before
//! sub-tables, floats always carrying a decimal point or an exponent), so
//! that `render(parse(s)) == s` for any canonically written document and
//! `parse(render(d)) == d` for any document of finite floats — the
//! properties `tests/toml_properties.rs` pins down.
//!
//! [`Reader`] is how a typed field leaves a parsed table.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use snooze_simcore::excerpt::Excerpt;

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
    /// A single-line array: of scalars, of arrays or of inline tables.
    Array(Vec<Value>),
    /// A table (`[header]`, nested, or inline in an array).
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

/// What errors call a table: the key it sits under and the table that key
/// is in. Borrowed links, so naming a table costs nothing until an error
/// prints the name.
struct Name<'a> {
    parent: Option<&'a Name<'a>>,
    key: &'a str,
}

impl fmt::Display for Name<'_> {
    /// Dotted from the document's top-level tables down
    /// (`config.reconfiguration`); the root is named only on its own.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.parent {
            Some(parent) if parent.parent.is_some() => write!(f, "{parent}.{}", self.key),
            _ => f.write_str(self.key),
        }
    }
}

/// Most keys one table read through a [`Reader`] may hold — the width of
/// its read-set. The widest table of any schema here has 14.
const MAX_KEYS: usize = u64::BITS as usize;

/// The one way a typed field leaves a table. A decoder asks for each key
/// it knows by name and type; [`Reader::finish`] then rejects the first
/// key nothing asked for. So a table's legal keys are the keys its decoder
/// reads, stated once, and a present key of the wrong type is an error
/// naming the key and the table, never a silent default.
pub struct Reader<'a> {
    table: &'a BTreeMap<String, Value>,
    name: Name<'a>,
    /// Bit `i`: the table's `i`-th key, in key order, has been asked for.
    read: Cell<u64>,
}

impl<'a> Reader<'a> {
    /// Read a document's root table; `name` is what errors call it, and its
    /// sub-tables are named from their own key down.
    pub fn new(table: &'a BTreeMap<String, Value>, name: &'a str) -> Reader<'a> {
        let (parent, read) = (None, Cell::new(0));
        let name = Name { parent, key: name };
        Reader { table, name, read }
    }

    fn sub<'s>(&'s self, table: &'s BTreeMap<String, Value>, key: &'s str) -> Reader<'s> {
        let (parent, read) = (Some(&self.name), Cell::new(0));
        let name = Name { parent, key };
        Reader { table, name, read }
    }

    fn is_read(&self, i: usize) -> bool {
        i < MAX_KEYS && self.read.get() >> i & 1 == 1
    }

    /// The value at `key`, marked read. A linear scan: it yields the key's
    /// rank for the read-set, and tables are a dozen keys wide.
    fn get(&self, key: &str) -> Option<&'a Value> {
        let (i, (_, v)) = self
            .table
            .iter()
            .enumerate()
            .find(|(_, (k, _))| *k == key)?;
        if i < MAX_KEYS {
            self.read.set(self.read.get() | 1 << i);
        }
        Some(v)
    }

    /// `key` as `as_t` reads it: absent is `None`, present and of another
    /// type is the error.
    fn typed<T>(
        &self,
        key: &str,
        want: &str,
        as_t: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        as_t(v).map(Some).ok_or_else(|| self.invalid(key, want))
    }

    /// The error for a `key` of this table whose value the decoder cannot
    /// take: `` `key` in <table> must be <want> ``, the shape a type error
    /// has too.
    pub fn invalid(&self, key: &str, want: impl fmt::Display) -> String {
        format!("`{key}` in {} must be {want}", self.name)
    }

    fn required<T>(&self, key: &str, found: Option<T>) -> Result<T, String> {
        found.ok_or_else(|| format!("missing key `{key}` in {}", self.name))
    }

    /// An optional string.
    pub fn opt_str(&self, key: &str) -> Result<Option<&'a str>, String> {
        self.typed(key, "a string", Value::as_str)
    }

    /// A required string.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        self.required(key, self.opt_str(key)?)
    }

    /// An optional number (an integer reads as a float).
    pub fn opt_f64(&self, key: &str) -> Result<Option<f64>, String> {
        self.typed(key, "a number", Value::as_float)
    }

    /// A required number.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.required(key, self.opt_f64(key)?)
    }

    /// An optional integer in the range of `T`, the type of the field it
    /// fills: a `usize` or `u64` field rejects a negative one here, so none
    /// reaches an `as` cast.
    pub fn opt_int<T: TryFrom<i64>>(&self, key: &str) -> Result<Option<T>, String> {
        let want = match T::try_from(-1) {
            Ok(_) => "an integer",
            Err(_) => "a non-negative integer",
        };
        self.typed(key, want, |v| T::try_from(v.as_int()?).ok())
    }

    /// A required integer in the range of `T`.
    pub fn int<T: TryFrom<i64>>(&self, key: &str) -> Result<T, String> {
        self.required(key, self.opt_int(key)?)
    }

    /// An optional boolean.
    pub fn opt_bool(&self, key: &str) -> Result<Option<bool>, String> {
        self.typed(key, "a boolean", Value::as_bool)
    }

    /// A required boolean.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.required(key, self.opt_bool(key)?)
    }

    /// A required array of numbers.
    pub fn f64_array(&self, key: &str) -> Result<Vec<f64>, String> {
        let numbers = |v: &Value| match v {
            Value::Array(items) => items.iter().map(Value::as_float).collect(),
            _ => None,
        };
        self.required(key, self.typed(key, "an array of numbers", numbers)?)
    }

    /// An optional sub-table, as a reader named `<this table>.<key>`.
    pub fn opt_table<'s>(&'s self, key: &'s str) -> Result<Option<Reader<'s>>, String> {
        let table = self.typed(key, "a table", Value::as_table)?;
        Ok(table.map(|t| self.sub(t, key)))
    }

    /// A required sub-table.
    pub fn table<'s>(&'s self, key: &'s str) -> Result<Reader<'s>, String> {
        self.required(key, self.opt_table(key)?)
    }

    /// The elements of an array of tables (absent = none), each a reader
    /// named `<this table>.<key>`.
    pub fn tables<'s>(
        &'s self,
        key: &'s str,
    ) -> Result<impl Iterator<Item = Reader<'s>> + 's, String> {
        let items = self.typed(key, "an array of tables", |v| match v {
            Value::TableArray(items) => Some(items.as_slice()),
            _ => None,
        })?;
        let items = items.unwrap_or_default();
        Ok(items.iter().map(move |t| self.sub(t, key)))
    }

    /// The keys nothing has asked for yet, as a table of their own, and
    /// read from here on: a table whose remaining keys belong to another
    /// decoder (`[[power.model]]`'s curve parameters, the consolidator's
    /// `params`) hands them over with this.
    pub fn rest(&self) -> BTreeMap<String, Value> {
        let unread = self
            .table
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.is_read(*i));
        let rest = unread.map(|(_, (k, v))| (k.clone(), v.clone())).collect();
        self.read.set(u64::MAX);
        rest
    }

    /// `value`, the thing decoded from this table, unless the table holds a
    /// key the decoder never asked for.
    pub fn finish<T>(&self, value: T) -> Result<T, String> {
        let unread = |(i, _): &(usize, &String)| !self.is_read(*i);
        match self.table.keys().enumerate().find(unread) {
            None => Ok(value),
            Some((i, _)) if i >= MAX_KEYS => {
                Err(format!("more than {MAX_KEYS} keys in {}", self.name))
            }
            Some((_, key)) => Err(format!("unknown key `{}` in {}", Excerpt(key), self.name)),
        }
    }
}

/// Parse a document into its root table.
pub fn parse(input: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut root = BTreeMap::new();
    // The table `key = value` lines append into: resolved once per header,
    // not once per line.
    let mut table = &mut root;
    for (lineno, raw) in input.lines().enumerate() {
        let line = strip_comment(raw).trim();
        let err = |msg: &str| format!("line {}: {msg}: {}", lineno + 1, Excerpt(raw));
        if line.is_empty() {
            continue;
        }
        if let Some(path) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            check_path(path).map_err(|m| err(&m))?;
            let (parent, leaf) = match path.rsplit_once('.') {
                Some((parent, leaf)) => (parent, leaf.trim()),
                None => ("", path.trim()),
            };
            let parent = navigate(&mut root, parent).map_err(|m| err(&m))?;
            if !parent.contains_key(leaf) {
                parent.insert(leaf.to_string(), Value::TableArray(Vec::new()));
            }
            let Some(Value::TableArray(items)) = parent.get_mut(leaf) else {
                return Err(err("key already holds a non-array-of-tables value"));
            };
            items.push(BTreeMap::new());
            table = items.last_mut().expect("pushed above");
        } else if let Some(path) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            check_path(path).map_err(|m| err(&m))?;
            // Creating the table as a side effect of navigation.
            table = navigate(&mut root, path).map_err(|m| err(&m))?;
        } else if let Some(eq) = find_unquoted(line, '=') {
            let key = line[..eq].trim();
            if key.is_empty() || !is_bare_key(key) {
                return Err(err("expected a bare key"));
            }
            let value = parse_value(line[eq + 1..].trim()).map_err(|m| err(&m))?;
            if table.contains_key(key) {
                return Err(err("duplicate key"));
            }
            table.insert(key.to_string(), value);
        } else {
            return Err(err("expected `key = value` or a [table] header"));
        }
    }
    Ok(root)
}

/// Render a root table in canonical form. `parse` reads back what this
/// writes, except a NaN or infinite float: TOML spells those `nan` and
/// `inf`, which this subset does not read.
pub fn render(root: &BTreeMap<String, Value>) -> String {
    let mut out = String::new();
    render_body(&mut out, root, &mut String::new());
    out
}

/// Write what sits under a header (or, at the root, under none): the
/// table's scalars and scalar arrays in key order, then its sub-tables,
/// then its arrays of tables, each under the full dotted `path` — which is
/// one buffer, extended by a segment on the way down and cut back on the
/// way up.
fn render_body(out: &mut String, table: &BTreeMap<String, Value>, path: &mut String) {
    for (k, v) in table {
        if !matches!(v, Value::Table(_) | Value::TableArray(_)) {
            out.push_str(k);
            out.push_str(" = ");
            render_scalar(out, v);
            out.push('\n');
        }
    }
    let tables = table
        .iter()
        .filter_map(|(k, v)| Some((k, v.as_table()?, "[", "]\n")));
    let arrays = table.iter().flat_map(|(k, v)| {
        let items: &[_] = if let Value::TableArray(items) = v {
            items
        } else {
            &[]
        };
        items.iter().map(move |item| (k, item, "[[", "]]\n"))
    });
    let parent = path.len();
    for (k, sub, open, close) in tables.chain(arrays) {
        if parent > 0 {
            path.push('.');
        }
        path.push_str(k);
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(open);
        out.push_str(path);
        out.push_str(close);
        render_body(out, sub, path);
        path.truncate(parent);
    }
}

fn render_scalar(out: &mut String, v: &Value) {
    match v {
        Value::Str(s) => {
            out.push('"');
            // Every escape `parse_value` undoes: a raw line break would end
            // the line inside the quotes.
            for c in s.chars() {
                match c {
                    '\\' | '"' => out.extend(['\\', c]),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        // `{:?}` keeps a `.0` on a whole float and turns to an exponent from
        // 1e16 up and below 1e-4, so any finite float reads back a float.
        Value::Float(f) => {
            let _ = write!(out, "{f:?}");
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_scalar(out, item);
            }
            out.push(']');
        }
        // A table inside an array: inline, keys in order.
        Value::Table(table) if table.is_empty() => out.push_str("{}"),
        Value::Table(table) => {
            out.push('{');
            for (i, (k, v)) in table.iter().enumerate() {
                out.push_str(if i > 0 { ", " } else { " " });
                out.push_str(k);
                out.push_str(" = ");
                render_scalar(out, v);
            }
            out.push_str(" }");
        }
        Value::TableArray(_) => unreachable!("arrays of tables render via headers"),
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

/// Check a header's dotted path: at most [`MAX_PATH_DEPTH`] segments, each
/// a bare key once trimmed.
fn check_path(path: &str) -> Result<(), String> {
    if path.split('.').nth(MAX_PATH_DEPTH).is_some() {
        return Err(format!(
            "table path has more than {MAX_PATH_DEPTH} segments"
        ));
    }
    if path
        .split('.')
        .map(str::trim)
        .any(|p| p.is_empty() || !is_bare_key(p))
    {
        return Err(format!("bad table path `{}`", Excerpt(path)));
    }
    Ok(())
}

/// Walk to the table at the dotted `path` (empty = `root` itself) from
/// `root`, creating intermediate tables, descending into the *last*
/// element of arrays-of-tables. A key `String` is allocated only for a
/// table this creates.
fn navigate<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &str,
) -> Result<&'a mut BTreeMap<String, Value>, String> {
    let mut cur = root;
    for seg in path.split('.').map(str::trim).filter(|s| !s.is_empty()) {
        if !cur.contains_key(seg) {
            cur.insert(seg.to_string(), Value::table());
        }
        cur = match cur.get_mut(seg).expect("inserted above") {
            Value::Table(t) => t,
            Value::TableArray(v) => v
                .last_mut()
                .ok_or_else(|| format!("empty array of tables at `{}`", Excerpt(seg)))?,
            _ => return Err(format!("`{}` is not a table", Excerpt(seg))),
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
    if let Some(body) = s.strip_prefix('{') {
        let body = body
            .strip_suffix('}')
            .ok_or_else(|| "unterminated inline table".to_string())?;
        let mut table = BTreeMap::new();
        for part in split_top_level(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let eq = find_unquoted(part, '=').ok_or("expected `key = value` in an inline table")?;
            let key = part[..eq].trim();
            if key.is_empty() || !is_bare_key(key) {
                return Err("expected a bare key in an inline table".into());
            }
            if table
                .insert(key.to_string(), parse_value(part[eq + 1..].trim())?)
                .is_some()
            {
                return Err("duplicate key in an inline table".into());
            }
        }
        return Ok(Value::Table(table));
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
            .map_err(|_| format!("bad float `{}`", Excerpt(s)));
    }
    s.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("bad value `{}`", Excerpt(s)))
}

/// `s` split at the commas outside strings, arrays and inline tables.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut escaped = false;
    let mut depth = 0usize;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth = depth.saturating_sub(1),
            ',' if !in_str && depth == 0 => {
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
        // What the writer used to lose: an escape it read but did not
        // write, and the decimal point of a whole float from 1e15 up.
        let text = "a = \"x\\ny\\tz\"\nbig = 1000000000000000.0\nhuge = 1e300\n";
        let root = parse(text).unwrap();
        assert_eq!(root["a"], Value::Str("x\ny\tz".into()));
        assert_eq!(root["big"], Value::Float(1e15));
        assert_eq!(root["huge"], Value::Float(1e300));
        assert_eq!(render(&root), text);
    }

    #[test]
    fn arrays_of_inline_tables_round_trip() {
        let text = "params = [{ sort = \"cpu\" }, { n = [1, 2], s = \"a, } b\" }, {}]\n";
        let root = parse(text).unwrap();
        let Value::Array(items) = &root["params"] else {
            panic!("{root:?}")
        };
        assert_eq!(
            items[0],
            Value::Table([("sort".into(), Value::Str("cpu".into()))].into())
        );
        let second = items[1].as_table().unwrap();
        assert_eq!(second["s"], Value::Str("a, } b".into()));
        assert_eq!(items[2], Value::table());
        assert_eq!(render(&root), text);
        for (bad, why) in [
            ("x = [{ a = 1 }", "unterminated array"),
            ("x = [{ a = 1 ]", "unterminated inline table"),
            ("x = [{ a }]", "expected `key = value`"),
            ("x = [{ a.b = 1 }]", "expected a bare key"),
            ("x = [{ a = 1, a = 2 }]", "duplicate key"),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.starts_with("line 1: ") && err.contains(why),
                "{bad}: {err}"
            );
        }
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
    fn reader_getters_name_the_key_the_table_and_the_type() {
        let root = parse(
            "s = \"x\"\nf = 0.5\ni = -3\nwhole = 4.0\nb = true\nxs = [1, 2.5]\n\
             [t]\n[[ts]]\n[[ts]]\n",
        )
        .unwrap();
        let r = Reader::new(&root, "doc");
        // Right types, with the two coercions `Value` has always made.
        assert_eq!(
            (r.str("s"), r.f64("f"), r.bool("b")),
            (Ok("x"), Ok(0.5), Ok(true))
        );
        assert_eq!((r.f64("i"), r.int::<i64>("whole")), (Ok(-3.0), Ok(4)));
        assert_eq!(r.f64_array("xs"), Ok(vec![1.0, 2.5]));
        assert_eq!(r.tables("ts").unwrap().count(), 2);
        assert_eq!(r.tables("absent").unwrap().count(), 0);
        assert!(r.opt_table("t").unwrap().is_some());
        // An optional key is `None` only when absent …
        assert_eq!((r.opt_str("z"), r.opt_f64("z")), (Ok(None), Ok(None)));
        assert_eq!(
            (r.opt_bool("z"), r.opt_int::<u64>("z")),
            (Ok(None), Ok(None))
        );
        assert!(r.opt_table("z").unwrap().is_none());
        // … a present key of another type is the error, required or not.
        let wrong = |e: Result<(), String>, want: &str| assert_eq!(e, Err(want.to_string()));
        wrong(r.str("f").map(drop), "`f` in doc must be a string");
        wrong(r.opt_str("t").map(drop), "`t` in doc must be a string");
        wrong(r.f64("s").map(drop), "`s` in doc must be a number");
        wrong(r.opt_f64("b").map(drop), "`b` in doc must be a number");
        wrong(r.int::<i64>("f").map(drop), "`f` in doc must be an integer");
        let non_negative = "`i` in doc must be a non-negative integer";
        wrong(r.int::<u64>("i").map(drop), non_negative);
        wrong(r.opt_int::<usize>("i").map(drop), non_negative);
        wrong(r.bool("i").map(drop), "`i` in doc must be a boolean");
        wrong(r.opt_bool("s").map(drop), "`s` in doc must be a boolean");
        let numbers = "must be an array of numbers";
        wrong(r.f64_array("f").map(drop), &format!("`f` in doc {numbers}"));
        let mixed = parse("xs = [1, \"two\"]\n").unwrap();
        let mixed = Reader::new(&mixed, "doc").f64_array("xs");
        wrong(mixed.map(drop), &format!("`xs` in doc {numbers}"));
        wrong(r.table("ts").map(drop), "`ts` in doc must be a table");
        wrong(r.opt_table("s").map(drop), "`s` in doc must be a table");
        let tables = r.tables("t").map(|_| ());
        wrong(tables, "`t` in doc must be an array of tables");
        // A required key that is absent.
        wrong(r.str("z").map(drop), "missing key `z` in doc");
        wrong(r.int::<u32>("z").map(drop), "missing key `z` in doc");
        wrong(r.f64_array("z").map(drop), "missing key `z` in doc");
        wrong(r.table("z").map(drop), "missing key `z` in doc");
    }

    #[test]
    fn reader_finish_names_the_first_key_nothing_asked_for() {
        let root = parse("a = 1\nb = 2\n[t]\nc = 3\n[t.u]\nd = 4\n[[t.v]]\ne = 5\n").unwrap();
        let r = Reader::new(&root, "doc");
        assert_eq!(r.finish(()), Err("unknown key `a` in doc".into()));
        let _ = r.int::<i64>("a");
        let _ = r.str("b"); // asked for, even though of another type
        assert_eq!(r.finish(()), Err("unknown key `t` in doc".into()));
        // Sub-readers are named from the root's tables down, dotted.
        let t = r.table("t").unwrap();
        assert_eq!(r.finish("done"), Ok("done"));
        assert_eq!(t.finish(()), Err("unknown key `c` in t".into()));
        let u = t.table("u").unwrap();
        assert_eq!(u.finish(()), Err("unknown key `d` in t.u".into()));
        assert_eq!(u.str("d"), Err("`d` in t.u must be a string".into()));
        let v = t.tables("v").unwrap().next().unwrap();
        assert_eq!(v.int::<u64>("f"), Err("missing key `f` in t.v".into()));
        // `rest` hands over what is unread and counts it as read.
        assert_eq!(t.rest(), parse("c = 3\n").unwrap());
        assert_eq!((t.rest().len(), t.finish(())), (0, Ok(())));
        // The read-set is 64 bits: a wider table is refused as such.
        let wide: String = (0..65).map(|i| format!("k{i:02} = {i}\n")).collect();
        let wide = parse(&wide).unwrap();
        let r = Reader::new(&wide, "wide");
        assert_eq!(
            (r.int("k64"), r.rest().len()),
            (Ok(64), 65),
            "k64 cannot be marked"
        );
        assert_eq!(r.finish(()), Err("more than 64 keys in wide".into()));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("x = \n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse("x = 1\nx = 2\n").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }
}
