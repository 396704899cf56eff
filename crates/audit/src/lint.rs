//! The source lint: a text/AST-lite static analysis over the workspace
//! sources.
//!
//! The simulator's whole value proposition is bit-identical replay from
//! a seed. The first nine rules each ban a *source* of nondeterminism (or
//! of silent divergence) that survives type-checking; the last four keep
//! dead API and per-field allocations out of the tree:
//!
//! | rule               | bans                                            |
//! |--------------------|-------------------------------------------------|
//! | `hash-iter`        | iterating `HashMap`/`HashSet` in simulation code |
//! | `wall-clock`       | `Instant::now` / `SystemTime` outside benches    |
//! | `ambient-rng`      | `thread_rng` / `from_entropy` / `OsRng`          |
//! | `float-eq`         | `==`/`!=` against float literals in schedulers   |
//! | `partial-cmp-unwrap` | `.partial_cmp(..).unwrap()` on floats, and `.unwrap_or(..)` in a sort comparator |
//! | `handler-unwrap`   | `.unwrap()`/`.expect(` inside `on_message`       |
//! | `type-erasure`     | `dyn Any` / `downcast` on the simulation path    |
//! | `interleaving-hashset` | any `HashSet` on the simulation path         |
//! | `unscoped-thread`  | threads/locks/atomics on the simulation path      |
//! | `uncalled`         | a `pub fn` no code outside tests calls           |
//! | `edge-alloc`       | a per-field `String` in an exporter or writer    |
//! | `span-label`       | a `String` built for a span label                |
//! | `lc-views`         | `lc_views()` outside the GM's two planners       |
//!
//! The analysis is deliberately lightweight: a comment/string-aware line
//! model plus token scanning — no syn, no rustc internals, no external
//! dependencies. Suppression is explicit and auditable: an inline
//! `// audit-allow: reason` (or rule-targeted
//! `// audit-allow(rule-id): reason`) on the offending line or in the
//! block of standalone comment lines directly above it, or an entry in
//! the curated allowlist file (`audit.allowlist` at the workspace root).
//!
//! Heuristic limits, by design: code from a column-0 `#[cfg(test)]` on is
//! skipped (test assertions may compare floats or iterate maps without
//! affecting the simulated history), and `hash-iter` tracks *named*
//! bindings declared as hash collections in the same file — good enough
//! for this codebase, and wrong in the safe direction for exotic code (it
//! misses, it does not false-positive).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Crates whose sources sit on the simulation path: any iteration-order
/// or float-comparison wobble here changes simulated histories.
pub const SIM_PATH: &[&str] = &[
    "crates/simcore/src",
    "crates/protocols/src",
    "crates/cluster/src",
    "crates/snooze/src",
    "crates/consolidation/src",
    "crates/telemetry/src",
    "crates/scenario/src",
    "crates/mc/src",
    "crates/trace/src",
];

/// One source line, split into its code and comment parts (string
/// literal contents are blanked out of `code`).
#[derive(Debug)]
pub struct SourceLine {
    /// The original text.
    pub raw: String,
    /// Code with comments removed and string/char literal bodies blanked.
    pub code: String,
    /// The comment text (line + block comments) on this line.
    pub comment: String,
}

/// A parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Parsed lines.
    pub lines: Vec<SourceLine>,
    /// Index of the first column-0 `#[cfg(test)]` line, if any: the
    /// trailing test module, exempt from the rules from here on. An
    /// indented one marks a single item and cuts nothing.
    pub test_cut: Option<usize>,
}

/// Lexer state carried across lines.
enum St {
    Code,
    Block(u32),
    Str,
    RawStr(u32),
}

impl SourceFile {
    /// Parse `text` into the line model.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let mut st = St::Code;
        let mut lines = Vec::new();
        for raw in text.lines() {
            let ch: Vec<char> = raw.chars().collect();
            let mut code = String::new();
            let mut comment = String::new();
            let mut i = 0usize;
            let mut line_comment = false;
            while i < ch.len() {
                match st {
                    St::Code => {
                        let c = ch[i];
                        let next = ch.get(i + 1).copied();
                        if c == '/' && next == Some('/') {
                            comment.push_str(&ch[i + 2..].iter().collect::<String>());
                            line_comment = true;
                            break;
                        } else if c == '/' && next == Some('*') {
                            st = St::Block(1);
                            i += 2;
                        } else if c == '"' {
                            code.push('"');
                            st = St::Str;
                            i += 1;
                        } else if c == 'r' && !(i > 0 && ident_char(ch[i - 1])) {
                            // Possible raw string: r"..."/r#"..."#.
                            let mut j = i + 1;
                            while ch.get(j) == Some(&'#') {
                                j += 1;
                            }
                            if ch.get(j) == Some(&'"') {
                                code.push('"');
                                st = St::RawStr((j - i - 1) as u32);
                                i = j + 1;
                            } else {
                                code.push(c);
                                i += 1;
                            }
                        } else if c == '\'' {
                            // Char literal vs lifetime.
                            if next == Some('\\') {
                                // '\n' style: consume through closing quote.
                                let mut j = i + 2;
                                while j < ch.len() && ch[j] != '\'' {
                                    j += 1;
                                }
                                code.push(' ');
                                i = j + 1;
                            } else if ch.get(i + 2) == Some(&'\'') {
                                code.push(' ');
                                i += 3;
                            } else {
                                code.push('\'');
                                i += 1;
                            }
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    }
                    St::Block(depth) => {
                        let c = ch[i];
                        let next = ch.get(i + 1).copied();
                        if c == '*' && next == Some('/') {
                            if depth == 1 {
                                st = St::Code;
                            } else {
                                st = St::Block(depth - 1);
                            }
                            i += 2;
                        } else if c == '/' && next == Some('*') {
                            st = St::Block(depth + 1);
                            i += 2;
                        } else {
                            comment.push(c);
                            i += 1;
                        }
                    }
                    St::Str => {
                        let c = ch[i];
                        if c == '\\' {
                            i += 2;
                        } else if c == '"' {
                            code.push('"');
                            st = St::Code;
                            i += 1;
                        } else {
                            i += 1;
                        }
                    }
                    St::RawStr(hashes) => {
                        if ch[i] == '"' {
                            let n = hashes as usize;
                            if ch[i + 1..].iter().take(n).filter(|&&h| h == '#').count() == n {
                                code.push('"');
                                st = St::Code;
                                i += 1 + n;
                                continue;
                            }
                        }
                        i += 1;
                    }
                }
            }
            if line_comment {
                st = St::Code;
            }
            lines.push(SourceLine {
                raw: raw.to_string(),
                code,
                comment,
            });
        }
        let test_cut = lines
            .iter()
            .position(|l| l.code.starts_with("#[cfg(test)]"));
        SourceFile {
            rel_path: rel_path.to_string(),
            lines,
            test_cut,
        }
    }

    /// Whether line `idx` (0-based) is inside a trailing test module.
    fn in_test_module(&self, idx: usize) -> bool {
        self.test_cut.is_some_and(|cut| idx >= cut)
    }

    /// Whether an inline marker suppresses `rule` at line `idx`: on the
    /// line itself or anywhere in the block of standalone comment lines
    /// directly above it.
    pub fn allows(&self, idx: usize, rule: &str) -> bool {
        comment_allows(&self.lines[idx].comment, rule)
            || self.lines[..idx]
                .iter()
                .rev()
                .take_while(|l| l.code.trim().is_empty() && !l.raw.trim().is_empty())
                .any(|l| comment_allows(&l.comment, rule))
    }
}

/// `audit-allow: reason` suppresses every rule at its site;
/// `audit-allow(rule-a, rule-b): reason` suppresses only those rules.
fn comment_allows(comment: &str, rule: &str) -> bool {
    let Some(pos) = comment.find("audit-allow") else {
        return false;
    };
    let rest = &comment[pos + "audit-allow".len()..];
    if let Some(inner) = rest.strip_prefix('(') {
        match inner.find(')') {
            Some(close) => inner[..close].split(',').any(|r| r.trim() == rule),
            None => false,
        }
    } else {
        rest.trim_start().starts_with(':')
    }
}

fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offset of each word-boundary occurrence of `token` in `code`.
/// `token` itself may contain `::` (path tokens).
fn token_positions(code: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(p) = code[start..].find(token) {
        let at = start + p;
        let before_ok = at == 0 || !ident_char(code[..at].chars().next_back().unwrap_or(' '));
        let after = at + token.len();
        let after_ok =
            after >= code.len() || !ident_char(code[after..].chars().next().unwrap_or(' '));
        if before_ok && after_ok {
            out.push(at);
        }
        start = at + token.len().max(1);
    }
    out
}

/// A raw rule hit: 0-based line index plus display snippet.
type Hit = (usize, String);

/// The names code outside tests uses as a call site (`call_sites`).
pub type Called<'a> = Option<&'a BTreeSet<&'a str>>;

fn snippet(file: &SourceFile, idx: usize) -> String {
    let s = file.lines[idx].raw.trim();
    if s.len() > 120 {
        let mut cut = 117;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}...", &s[..cut])
    } else {
        s.to_string()
    }
}

/// Every line `hit` holds for.
fn hits_where(file: &SourceFile, hit: impl Fn(&SourceLine) -> bool) -> Vec<Hit> {
    (0..file.lines.len())
        .filter(|&idx| hit(&file.lines[idx]))
        .map(|idx| (idx, snippet(file, idx)))
        .collect()
}

/// A lint rule: identity, scope predicate, and checker.
pub struct RuleDef {
    /// Stable rule id (used in allow markers and the allowlist).
    pub id: &'static str,
    /// One-line description of what the rule bans.
    pub summary: &'static str,
    /// How to fix a finding.
    pub hint: &'static str,
    /// Whether the rule applies to a (workspace-relative) path.
    pub in_scope: fn(&str) -> bool,
    /// Scan a file, given the names the tree calls (`None`: linted alone).
    pub check: fn(&SourceFile, Called) -> Vec<Hit>,
}

fn scope_sim_path(path: &str) -> bool {
    SIM_PATH.iter().any(|p| path.starts_with(p))
}

fn scope_not_bench(path: &str) -> bool {
    !path.starts_with("crates/bench")
}

fn scope_everywhere(_path: &str) -> bool {
    true
}

fn scope_scheduling_aco(path: &str) -> bool {
    path.starts_with("crates/consolidation/src") || path.starts_with("crates/snooze/src")
}

// --- rule: hash-iter ----------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter()",
    "iter_mut()",
    "into_iter()",
    "keys()",
    "values()",
    "values_mut()",
    "into_keys()",
    "into_values()",
    "drain(",
    "retain(",
];

/// Names declared as `HashMap`/`HashSet` in this file (struct fields,
/// `let` bindings with type annotations or `::new()` initializers).
fn hash_binding_names(file: &SourceFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in &file.lines {
        let code = &line.code;
        if code.trim_start().starts_with("use ") {
            continue;
        }
        for ty in ["HashMap", "HashSet"] {
            for pos in token_positions(code, ty) {
                let before = code[..pos].trim_end();
                // `name: HashMap<..>` (field or typed binding).
                if let Some(stripped) = before.strip_suffix(':') {
                    if let Some(name) = last_ident(stripped) {
                        names.insert(name);
                        continue;
                    }
                }
                // `let [mut] name = HashMap::new()` style.
                if let Some(stripped) = before.strip_suffix('=') {
                    let head = stripped.trim_end();
                    if code.contains("let ") {
                        if let Some(name) = last_ident(head) {
                            names.insert(name);
                        }
                    }
                }
            }
        }
    }
    names
}

fn last_ident(s: &str) -> Option<String> {
    let s = s.trim_end();
    let ident = &s[s.trim_end_matches(ident_char).len()..];
    let valid = ident.starts_with(|c: char| !c.is_ascii_digit());
    valid.then(|| ident.to_string())
}

fn check_hash_iter(file: &SourceFile, _: Called) -> Vec<Hit> {
    let names = hash_binding_names(file);
    if names.is_empty() {
        return Vec::new();
    }
    let mut hits = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let mut flagged = false;
        for name in &names {
            if flagged {
                break;
            }
            for pos in token_positions(code, name) {
                let after = &code[pos + name.len()..];
                // `name.iter()` / `.keys()` / `.drain(..)` and friends.
                if let Some(rest) = after.strip_prefix('.') {
                    if ITER_METHODS.iter().any(|m| rest.starts_with(m)) {
                        hits.push((idx, snippet(file, idx)));
                        flagged = true;
                        break;
                    }
                }
                // `for x in [&[mut]] [self.]name` loops.
                let mut pre = &code[..pos];
                if let Some(p) = pre.strip_suffix("self.") {
                    pre = p;
                }
                let pre = pre.trim_end_matches("mut ").trim_end_matches('&');
                let consumed_ok =
                    after.is_empty() || after.starts_with(' ') || after.starts_with('{');
                if pre.ends_with(" in ") && consumed_ok {
                    hits.push((idx, snippet(file, idx)));
                    flagged = true;
                    break;
                }
            }
        }
    }
    hits
}

// --- rule: wall-clock / ambient-rng -------------------------------------

fn check_tokens(file: &SourceFile, tokens: &[&str]) -> Vec<Hit> {
    hits_where(file, |line| {
        tokens
            .iter()
            .any(|t| !token_positions(&line.code, t).is_empty())
    })
}

fn check_wall_clock(file: &SourceFile, _: Called) -> Vec<Hit> {
    check_tokens(file, &["Instant::now", "SystemTime::now", "UNIX_EPOCH"])
}

fn check_ambient_rng(file: &SourceFile, _: Called) -> Vec<Hit> {
    check_tokens(
        file,
        &[
            "thread_rng",
            "from_entropy",
            "OsRng",
            "getrandom",
            "rand::random",
        ],
    )
}

// --- rule: float-eq -----------------------------------------------------

/// Token directly left of byte `end` in `code`: identifier chars, `.`,
/// and indexing are collected; anything else terminates.
fn operand_left(code: &str, end: usize) -> String {
    let mut out: Vec<char> = Vec::new();
    for c in code[..end].chars().rev() {
        if c == ' ' && out.is_empty() {
            continue;
        }
        if ident_char(c) || c == '.' {
            out.push(c);
        } else {
            break;
        }
    }
    out.into_iter().rev().collect()
}

/// Token directly right of byte `start`; `+`/`-` are kept only directly
/// after an exponent marker so `1e-9` parses as one token.
fn operand_right(code: &str, start: usize) -> String {
    let mut out = String::new();
    for c in code[start..].chars() {
        if c == ' ' && out.is_empty() {
            continue;
        }
        let exponent_sign = (c == '+' || c == '-') && out.ends_with(['e', 'E']);
        if ident_char(c) || c == '.' || exponent_sign {
            out.push(c);
        } else {
            break;
        }
    }
    out
}

/// Whether `tok` is a floating-point literal (`0.5`, `1e-9`, `2f64`…).
fn is_float_literal(tok: &str) -> bool {
    let t = tok
        .strip_suffix("f64")
        .or_else(|| tok.strip_suffix("f32"))
        .map(|t| t.strip_suffix('_').unwrap_or(t))
        .unwrap_or(tok);
    let mut chars = t.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !first.is_ascii_digit() {
        return false;
    }
    let floaty =
        t.contains('.') || t.contains(['e', 'E']) || tok.ends_with("f64") || tok.ends_with("f32");
    floaty
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '+' | '-'))
}

fn check_float_eq(file: &SourceFile, _: Called) -> Vec<Hit> {
    let mut hits = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let bytes = code.as_bytes();
        let mut flagged = false;
        let mut i = 0;
        while i + 1 < bytes.len() && !flagged {
            let two = &code[i..i + 2];
            let is_eq = two == "==" || two == "!=";
            if is_eq {
                let prev = if i == 0 { b' ' } else { bytes[i - 1] };
                let next = if i + 2 < bytes.len() {
                    bytes[i + 2]
                } else {
                    b' '
                };
                // Skip `<=`, `>=`, `=>`-adjacent and `===`-like runs.
                if !matches!(prev, b'=' | b'<' | b'>' | b'!') && next != b'=' {
                    let lhs = operand_left(code, i);
                    let rhs = operand_right(code, i + 2);
                    if is_float_literal(&lhs) || is_float_literal(&rhs) {
                        hits.push((idx, snippet(file, idx)));
                        flagged = true;
                    }
                }
                i += 2;
            } else {
                i += 1;
            }
        }
    }
    hits
}

// --- rule: partial-cmp-unwrap -------------------------------------------

fn check_partial_cmp_unwrap(file: &SourceFile, _: Called) -> Vec<Hit> {
    let in_sort = sort_comparator_lines(file);
    let mut hits = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        if let Some(pos) = code.find(".partial_cmp(") {
            // The `.unwrap()` may be chained on the same or the next line.
            let mut tail = code[pos..].to_string();
            if let Some(next) = file.lines.get(idx + 1) {
                tail.push_str(next.code.trim());
            }
            // A defaulted comparison is no total order once a NaN is
            // present, and a sort may panic on it; `min_by`/`max_by`
            // only pick, so there it stays.
            let defaulted = in_sort[idx] && tail.contains(".unwrap_or(");
            if tail.contains(".unwrap()") || tail.contains(".expect(") || defaulted {
                hits.push((idx, snippet(file, idx)));
            }
        }
    }
    hits
}

/// Which lines lie inside the comparator of a `.sort_by(` or
/// `.sort_unstable_by(` call, from its opening parenthesis to the one
/// that closes it.
fn sort_comparator_lines(file: &SourceFile) -> Vec<bool> {
    let mut inside = vec![false; file.lines.len()];
    // Parentheses open in the current comparator; 0 outside one.
    let mut depth = 0usize;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let mut from = 0;
        if depth == 0 {
            let start = [".sort_by(", ".sort_unstable_by("]
                .iter()
                .filter_map(|p| code.find(p).map(|i| i + p.len()))
                .min();
            match start {
                Some(start) => {
                    depth = 1;
                    from = start;
                }
                None => continue,
            }
        }
        inside[idx] = true;
        for c in code[from..].chars() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    inside
}

// --- rule: handler-unwrap -----------------------------------------------

fn check_handler_unwrap(file: &SourceFile, _: Called) -> Vec<Hit> {
    let mut hits = Vec::new();
    let mut depth: i32 = 0;
    let mut in_handler = false;
    let mut seeking = false;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        if !in_handler && !seeking && code.contains("fn on_message") {
            seeking = true;
            depth = 0;
        }
        if seeking || in_handler {
            if in_handler && (code.contains(".unwrap()") || code.contains(".expect(")) {
                hits.push((idx, snippet(file, idx)));
            }
            for c in code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        if seeking {
                            seeking = false;
                            in_handler = true;
                        }
                    }
                    '}' => {
                        depth -= 1;
                        if in_handler && depth == 0 {
                            in_handler = false;
                        }
                    }
                    // A `;` before any `{` means this was a trait-method
                    // declaration, not a handler body.
                    ';' if seeking && depth == 0 => {
                        seeking = false;
                    }
                    _ => {}
                }
            }
        }
    }
    hits
}

// --- rule: type-erasure ---------------------------------------------------

fn check_type_erasure(file: &SourceFile, _: Called) -> Vec<Hit> {
    check_tokens(
        file,
        &["dyn Any", "downcast", "downcast_ref", "downcast_mut"],
    )
}

// --- rule: interleaving-hashset -------------------------------------------

/// `hash-iter` catches *iteration* of a named hash binding; this rule is
/// stricter on sets. A `HashSet` poisons determinism even without a
/// visible `.iter()` — its order leaks through `Extend`, `Debug`
/// formatting, drains inside std adaptors, and any later refactor that
/// adds a loop. The model checker's visited-set and worklist code made
/// the gap concrete: a `HashSet` there would reorder exploration without
/// failing `hash-iter`. On the simulation path the type itself is
/// banned; `BTreeSet` costs a logarithm and buys replayability.
fn check_interleaving_hashset(file: &SourceFile, _: Called) -> Vec<Hit> {
    check_tokens(file, &["HashSet", "hash_set"])
}

// --- rule: unscoped-thread ------------------------------------------------

/// The engine is single-threaded, so nothing on the simulation path has
/// a reason to touch real concurrency — and threads, locks and atomics
/// are how nondeterminism sneaks back in: an unscoped `thread::spawn`
/// races the virtual clock, and a shared `Mutex`/`AtomicUsize` counter
/// observes real scheduling order.
fn check_unscoped_thread(file: &SourceFile, _: Called) -> Vec<Hit> {
    check_tokens(
        file,
        &[
            "thread::spawn",
            "Mutex",
            "RwLock",
            "Condvar",
            "AtomicUsize",
            "AtomicU64",
            "AtomicU32",
            "AtomicBool",
            "AtomicI64",
        ],
    )
}

fn scope_crate_src(path: &str) -> bool {
    path.starts_with("crates/") && path.split('/').nth(2) == Some("src")
}

/// Each identifier on a line of code, with its byte offset.
fn idents(code: &str) -> Vec<(usize, &str)> {
    code.split(|c: char| !ident_char(c))
        .filter(|w| w.starts_with(|c: char| !c.is_ascii_digit()))
        .map(|w| (w.as_ptr() as usize - code.as_ptr() as usize, w))
        .collect()
}

/// Each `fn NAME` on a line of code: (name offset, name, is a `pub fn`).
fn fn_defs(code: &str) -> Vec<(usize, &str, bool)> {
    let ids = idents(code);
    let spaced = |w: &[(usize, &str)]| code[w[0].0 + 2..w[1].0].trim().is_empty();
    ids.windows(2)
        .filter(|w| w[0].1 == "fn" && spaced(w))
        .map(|w| (w[1].0, w[1].1, code[..w[1].0].ends_with("pub fn ")))
        .collect()
}

// --- rule: uncalled -------------------------------------------------------

/// Every name that code outside tests uses as a call site: `name(`,
/// `name::<`, `.name` or `::name` (a path used as a value, `map(Type::name)`),
/// never a bare word nor a `fn name` definition. A bare `name(` in a file
/// that defines a `fn name` other than a `pub fn` calls that local fn, so
/// it counts for no `pub fn` elsewhere. `tests/` directories and code
/// below the test cut call nothing.
fn call_sites(files: &[SourceFile]) -> BTreeSet<&str> {
    let mut called = BTreeSet::new();
    let callers = files
        .iter()
        .filter(|f| !f.rel_path.split('/').any(|c| c == "tests"));
    for file in callers {
        let code = &file.lines[..file.test_cut.unwrap_or(file.lines.len())];
        let defs: Vec<_> = code.iter().map(|l| fn_defs(&l.code)).collect();
        let own: BTreeSet<&str> = defs
            .iter()
            .flatten()
            .filter_map(|&(_, name, public)| (!public).then_some(name))
            .collect();
        for (line, defs) in code.iter().zip(&defs) {
            let c = line.code.as_str();
            for (at, name) in idents(c) {
                let (before, after) = (&c[..at], &c[at + name.len()..]);
                let path =
                    before.ends_with("::") || before.ends_with('.') && !before.ends_with("..");
                let bare = (after.starts_with('(') || after.starts_with("::<"))
                    && !own.contains(name)
                    && !defs.iter().any(|d| d.0 == at);
                if path || bare {
                    called.insert(name);
                }
            }
        }
    }
    called
}

/// A `pub fn` under `crates/*/src` that no call site names: delete it,
/// make it private, or mark a hook tests are meant to drive.
fn check_uncalled(file: &SourceFile, called: Called) -> Vec<Hit> {
    let uncalled = |&(_, name, public): &(usize, &str, bool)| {
        public && called.is_some_and(|called| !called.contains(name))
    };
    hits_where(file, |line| fn_defs(&line.code).iter().any(uncalled))
}

// --- rule: edge-alloc -----------------------------------------------------

/// The exporters, trace writers and TOML renderer: each fills one buffer.
const EDGE_FILES: &[&str] = &[
    "crates/telemetry/src/json.rs",
    "crates/telemetry/src/chrome.rs",
    "crates/telemetry/src/jsonl.rs",
    "crates/telemetry/src/span.rs",
    "crates/trace/src/csv.rs",
    "crates/trace/src/jsonl.rs",
    "crates/scenario/src/toml.rs",
];

/// A per-field `String` in a render path is a heap round trip per field,
/// row or header. Scanned: the telemetry files whole, the trace files
/// from their `// Writers` banner, the TOML codec's `render*` fns.
fn check_edge_alloc(file: &SourceFile, _: Called) -> Vec<Hit> {
    let render = file.rel_path.starts_with("crates/scenario/");
    let mut scan = file.rel_path.starts_with("crates/telemetry/");
    let mut hits = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let raw = line.raw.trim_start_matches("pub ");
        scan |= render && raw.starts_with("fn render") || !render && raw == "// Writers";
        let allocs = "format!( .to_string() .join( collect::<Vec<String>>";
        if scan && allocs.split(' ').any(|p| line.code.contains(p)) {
            hits.push((idx, snippet(file, idx)));
        }
        scan &= !(render && raw.starts_with('}'));
    }
    hits
}

// --- rule: span-label -----------------------------------------------------

/// `Ctx::span_label` takes `impl Into<LabelValue>`, so a label is stored
/// as itself; a `span_label(` call whose arguments, followed across lines
/// to the matching `)`, build a `String` is reported at its first line.
fn check_span_label(file: &SourceFile, _: Called) -> Vec<Hit> {
    let mut hits = Vec::new();
    let mut open: Option<(usize, String)> = None;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let (start, call) = match (open.take(), code.find("span_label(")) {
            (Some((start, call)), _) => (start, call + " " + code),
            (None, Some(at)) if !code.contains("fn span_label") => (idx, code[at..].to_string()),
            (None, _) => continue,
        };
        let mut depth = 0;
        let close = call.char_indices().find(|&(_, c)| {
            depth += i32::from(c == '(') - i32::from(c == ')');
            c == ')' && depth == 0
        });
        match close.map(|(end, _)| &call[..end]) {
            None => open = Some((start, call)),
            Some(args) if args.contains(".to_string()") || args.contains("format!(") => {
                hits.push((start, snippet(file, start)))
            }
            Some(_) => {}
        }
    }
    hits
}

// --- rule: lc-views -------------------------------------------------------

/// `GroupManager::lc_views` copies every LC record: placement and the
/// tick walk the table in place, and only `fn reconfigure` and the
/// `SnoozeMsg::AnomalyReport` arm, whichever of a `fn` or an arm opened
/// last above the call, take the snapshot.
fn check_lc_views(file: &SourceFile, _: Called) -> Vec<Hit> {
    let mut scope = ("", "");
    let mut hits = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        if let Some(&(_, name, _)) = fn_defs(code).first() {
            scope = ("fn", name);
        }
        if let Some(arm) = code.trim_start().strip_prefix("SnoozeMsg::") {
            scope = ("SnoozeMsg", idents(arm).first().map_or("", |&(_, v)| v));
        }
        let planner = scope == ("fn", "reconfigure") || scope == ("SnoozeMsg", "AnomalyReport");
        if code.contains("lc_views(") && !code.contains("fn lc_views(") && !planner {
            hits.push((idx, snippet(file, idx)));
        }
    }
    hits
}

/// The rule set, in reporting order.
pub fn rules() -> &'static [RuleDef] {
    &[
        RuleDef {
            id: "hash-iter",
            summary: "HashMap/HashSet iteration in simulation-path code",
            hint: "use a BTreeMap/BTreeSet, or sort the items and mark the site `// audit-allow(hash-iter): sorted`",
            in_scope: scope_sim_path,
            check: check_hash_iter,
        },
        RuleDef {
            id: "wall-clock",
            summary: "wall-clock reads (Instant::now / SystemTime) outside crates/bench",
            hint: "use virtual time (SimTime, Ctx::now); wall-clock timing belongs in crates/bench only",
            in_scope: scope_not_bench,
            check: check_wall_clock,
        },
        RuleDef {
            id: "ambient-rng",
            summary: "ambient entropy sources (thread_rng / from_entropy / OsRng)",
            hint: "draw randomness from the engine's seeded SimRng (fork a labeled stream)",
            in_scope: scope_everywhere,
            check: check_ambient_rng,
        },
        RuleDef {
            id: "float-eq",
            summary: "exact float equality against a literal in scheduling/ACO code",
            hint: "compare with an epsilon band or use f64::total_cmp; exact equality flips on the last ulp",
            in_scope: scope_scheduling_aco,
            check: check_float_eq,
        },
        RuleDef {
            id: "partial-cmp-unwrap",
            summary: ".partial_cmp(..).unwrap(), or .unwrap_or(..) in a sort comparator, in simulation-path code",
            hint: "sort with f64::total_cmp; .unwrap_or(Ordering::Equal) is for min_by/max_by only, never a sort comparator",
            in_scope: scope_sim_path,
            check: check_partial_cmp_unwrap,
        },
        RuleDef {
            id: "handler-unwrap",
            summary: ".unwrap()/.expect() inside an on_message handler",
            hint: "handlers must tolerate stale or malformed messages: use if-let/match instead of unwrapping",
            in_scope: scope_sim_path,
            check: check_handler_unwrap,
        },
        RuleDef {
            id: "type-erasure",
            summary: "type-erased messaging (dyn Any / downcast) in simulation-path code",
            hint: "the engine is generic over its message enum; add a variant and match on it instead of erasing the type",
            in_scope: scope_sim_path,
            check: check_type_erasure,
        },
        RuleDef {
            id: "interleaving-hashset",
            summary: "HashSet declared or used in simulation-path code",
            hint: "use a BTreeSet: set order leaks into simulated histories even without direct iteration",
            in_scope: scope_sim_path,
            check: check_interleaving_hashset,
        },
        RuleDef {
            id: "unscoped-thread",
            summary: "threads, locks or atomics on the simulation path",
            hint: "the engine is single-threaded and the digest depends on it; keep real concurrency out of simulation-path crates",
            in_scope: scope_sim_path,
            check: check_unscoped_thread,
        },
        RuleDef {
            id: "uncalled",
            summary: "a pub fn under crates/*/src that no code outside tests calls",
            hint: "delete it or make it private; a hook tests are meant to drive takes `// audit-allow(uncalled): reason`",
            in_scope: scope_crate_src,
            check: check_uncalled,
        },
        RuleDef {
            id: "edge-alloc",
            summary: "format!/.to_string()/.join(/collect::<Vec<String>> in an exporter, a trace writer or a TOML render fn",
            hint: "stream into the output buffer; a wrapper that must return a String of its own takes `// audit-allow(edge-alloc): reason`",
            in_scope: |path| EDGE_FILES.contains(&path),
            check: check_edge_alloc,
        },
        RuleDef {
            id: "span-label",
            summary: "a span_label( call that builds its value with .to_string() or format!(",
            hint: "pass the integer, ComponentId or &'static str itself: span labels are typed LabelValues",
            in_scope: scope_crate_src,
            check: check_span_label,
        },
        RuleDef {
            id: "lc-views",
            summary: "lc_views() outside fn reconfigure and the SnoozeMsg::AnomalyReport arm",
            hint: "lc_views() copies the whole LC table; walk it in place",
            in_scope: |path| path.starts_with("crates/snooze/src"),
            check: check_lc_views,
        },
    ]
}

/// One reportable finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id.
    pub rule: &'static str,
    /// Fix hint for the rule.
    pub hint: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source line.
    pub snippet: String,
    /// Suppressed by an inline marker or the allowlist.
    pub allowed: bool,
}

/// The curated allowlist file: `rule-id path-substring` per line, `#`
/// comments, blank lines ignored. A `*` rule matches every rule.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
}

impl Allowlist {
    /// Parse the allowlist format. Returns `Err` on malformed lines.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some(rule), Some(path)) => entries.push((rule.to_string(), path.to_string())),
                _ => return Err(format!("allowlist line {}: expected `rule path`", n + 1)),
            }
        }
        Ok(Allowlist { entries })
    }

    /// Load from a file; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> Result<Allowlist, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Allowlist::default()),
            Err(e) => Err(format!("reading {}: {e}", path.display())),
        }
    }

    /// Whether `rule` at `path` is allowlisted.
    fn permits(&self, rule: &str, path: &str) -> bool {
        self.entries
            .iter()
            .any(|(r, p)| (r == "*" || r == rule) && path.contains(p.as_str()))
    }

    /// Entries that matched none of `findings` — dead weight left behind
    /// after the offending code was fixed, moved, or renamed. A stale
    /// entry is a latent hole: it silently re-permits the pattern if it
    /// ever comes back. Pass the *full* finding set (allowed included),
    /// since a live entry's findings are, by definition, allowed.
    /// Returns displayable `rule path` strings in file order.
    pub fn stale_entries(&self, findings: &[Finding]) -> Vec<String> {
        self.entries
            .iter()
            .filter(|(rule, path)| {
                !findings.iter().any(|f| {
                    (rule.as_str() == "*" || rule.as_str() == f.rule)
                        && f.path.contains(path.as_str())
                })
            })
            .map(|(rule, path)| format!("{rule} {path}"))
            .collect()
    }
}

/// Lint one parsed file against every in-scope rule, given the names the
/// tree calls; with `None`, as for a file linted alone, `uncalled` skips it.
pub fn lint_file(file: &SourceFile, called: Called, allowlist: &Allowlist) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in rules() {
        if !(rule.in_scope)(&file.rel_path) {
            continue;
        }
        for (idx, snip) in (rule.check)(file, called) {
            if file.in_test_module(idx) {
                continue;
            }
            let allowed = file.allows(idx, rule.id) || allowlist.permits(rule.id, &file.rel_path);
            findings.push(Finding {
                rule: rule.id,
                hint: rule.hint,
                path: file.rel_path.clone(),
                line: idx + 1,
                snippet: snip,
                allowed,
            });
        }
    }
    findings
}

/// Lint `files` as one tree, `uncalled` included. Files under
/// `benchmark/` are read as callers only, never linted.
pub fn lint_files(files: &[SourceFile], allowlist: &Allowlist) -> Vec<Finding> {
    let called = call_sites(files);
    files
        .iter()
        .filter(|f| !f.rel_path.starts_with("benchmark/"))
        .flat_map(|f| lint_file(f, Some(&called), allowlist))
        .collect()
}

/// Collect the workspace `.rs` sources under `root` (`benchmark/src` as
/// callers), skipping build output, vendored stand-ins, and the lint's
/// own fixture corpus.
fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["src", "tests", "examples", "crates", "benchmark/src"] {
        walk(&root.join(top), &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | "vendor" | "fixtures" | ".git") {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Lint the whole workspace rooted at `root`.
///
/// Errors if no sources are found: a "clean" verdict over zero files
/// (wrong `--root`, deleted tree) must never read as a pass.
pub fn lint_root(root: &Path, allowlist: &Allowlist) -> Result<Vec<Finding>, String> {
    let files = collect_files(root);
    if files.is_empty() {
        return Err(format!("no .rs sources found under {}", root.display()));
    }
    let mut parsed = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {rel}: {e}"))?;
        parsed.push(SourceFile::parse(&rel, &text));
    }
    Ok(lint_files(&parsed, allowlist))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/simcore/src/x.rs", src)
    }

    #[test]
    fn comments_and_strings_are_stripped() {
        let f = parse("let a = \"HashMap // not code\"; // trailing HashMap\nlet b = 2; /* block\nHashMap */ let c = 3;\n");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].comment.contains("trailing HashMap"));
        assert!(!f.lines[1].code.contains("HashMap"));
        assert!(f.lines[2].code.contains("let c = 3;"));
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let f = parse("let s = r#\"thread_rng()\"#; let c = 'x'; let lt: &'static str = \"y\";\n");
        assert!(!f.lines[0].code.contains("thread_rng"));
        assert!(f.lines[0].code.contains("&'static str"));
    }

    #[test]
    fn allow_markers_parse() {
        assert!(comment_allows(" audit-allow: sorted below", "hash-iter"));
        assert!(comment_allows(
            " audit-allow(hash-iter): sorted",
            "hash-iter"
        ));
        assert!(comment_allows(" audit-allow(a, hash-iter): x", "hash-iter"));
        assert!(!comment_allows(" audit-allow(float-eq): x", "hash-iter"));
        assert!(!comment_allows(" plain comment", "hash-iter"));
    }

    #[test]
    fn float_literal_detection() {
        for t in ["0.0", "1.5", "1e-9", "2f64", "3.25f32", "1_000.5"] {
            assert!(is_float_literal(t), "{t}");
        }
        for t in ["100", "x", "w", "a.b", "0", "self.x.0", ""] {
            assert!(!is_float_literal(t), "{t}");
        }
    }

    #[test]
    fn stale_allowlist_entries_are_detected() {
        let allowlist = Allowlist::parse(
            "wall-clock crates/simcore/src/x.rs\n\
             hash-iter crates/gone/src/old.rs\n",
        )
        .expect("allowlist parses");
        let file = parse("fn t() -> Instant { Instant::now() }\n");
        let findings = lint_file(&file, None, &allowlist);
        // The wall-clock entry is live (it suppresses a real finding)…
        assert!(findings.iter().any(|f| f.rule == "wall-clock" && f.allowed));
        // …while the hash-iter entry points at code that no longer exists.
        assert_eq!(
            allowlist.stale_entries(&findings),
            vec!["hash-iter crates/gone/src/old.rs".to_string()]
        );
    }

    /// Pin the lint's jurisdiction. Every crate whose code can touch a
    /// simulated history must be listed — including the observability
    /// path (`telemetry` windows, the `scenario` compiler's SLO/flight
    /// machinery, the `mc` checker), whose whole contract is *not*
    /// perturbing that history. Growing the workspace means consciously
    /// extending this list; shrinking it silently would exempt live
    /// simulation code, so any change must update this test too.
    #[test]
    fn sim_path_covers_every_simulation_crate() {
        assert_eq!(
            SIM_PATH,
            &[
                "crates/simcore/src",
                "crates/protocols/src",
                "crates/cluster/src",
                "crates/snooze/src",
                "crates/consolidation/src",
                "crates/telemetry/src",
                "crates/scenario/src",
                "crates/mc/src",
                "crates/trace/src",
            ]
        );
        for path in [
            "crates/simcore/src/flight.rs",
            "crates/telemetry/src/window.rs",
            "crates/scenario/src/incident.rs",
            "crates/scenario/src/compile.rs",
        ] {
            assert!(scope_sim_path(path), "{path} must be in lint scope");
        }
    }

    /// The observability modules this repo grew (flight recorder +
    /// profiler, windowed time-series, incident dumps, SLO evaluation)
    /// must be lint-clean against the real allowlist: they observe the
    /// simulation and therefore sit on the simulation path themselves.
    #[test]
    fn observability_modules_are_lint_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let allowlist = Allowlist::load(&root.join("audit.allowlist")).expect("allowlist loads");
        for rel in [
            "crates/simcore/src/flight.rs",
            "crates/telemetry/src/window.rs",
            "crates/scenario/src/incident.rs",
            "crates/scenario/src/compile.rs",
        ] {
            let text = std::fs::read_to_string(root.join(rel)).expect(rel);
            let file = SourceFile::parse(rel, &text);
            let live: Vec<String> = lint_file(&file, None, &allowlist)
                .into_iter()
                .filter(|f| !f.allowed)
                .map(|f| format!("{}:{} {} {}", f.path, f.line, f.rule, f.snippet))
                .collect();
            assert!(
                live.is_empty(),
                "lint findings in {rel}:\n{}",
                live.join("\n")
            );
        }
    }

    #[test]
    fn tuple_field_access_is_not_float_eq() {
        let f = SourceFile::parse(
            "crates/snooze/src/x.rs",
            "fn c(w: &[(f64, u32)]) -> bool { w[0].1 == w[1].1 }\n",
        );
        assert!(check_float_eq(&f, None).is_empty());
    }
}
