//! Fixture proof for every lint rule: each rule has a positive fixture
//! that fires and a suppressed twin (inline allow marker or curated
//! allowlist entry) that does not.
//!
//! The fixtures live in `crates/audit/fixtures/` — a directory the
//! source walker deliberately skips, so the bad fixtures never pollute
//! a real `snooze-audit lint` run.

use snooze_audit::lint::{lint_file, lint_files, rules, Allowlist, Finding, SourceFile};

/// Lint one fixture as if it sat at `rel_path` in the workspace.
fn findings(rel_path: &str, text: &str, allowlist: &Allowlist) -> Vec<(&'static str, bool)> {
    let file = SourceFile::parse(rel_path, text);
    lint_file(&file, None, allowlist)
        .into_iter()
        .map(|f| (f.rule, f.allowed))
        .collect()
}

fn empty() -> Allowlist {
    Allowlist::parse("").expect("empty allowlist parses")
}

/// Lint several fixtures as one tree, each as if it sat at its path.
fn tree(files: &[(&str, &str)]) -> Vec<Finding> {
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(rel_path, text)| SourceFile::parse(rel_path, text))
        .collect();
    lint_files(&parsed, &empty())
}

/// The active findings of one rule as `line: snippet`.
fn flagged(findings: &[Finding], rule: &str) -> Vec<String> {
    findings
        .iter()
        .filter(|f| f.rule == rule && !f.allowed)
        .map(|f| format!("{}: {}", f.line, f.snippet))
        .collect()
}

fn active(rel_path: &str, text: &str) -> Vec<&'static str> {
    findings(rel_path, text, &empty())
        .into_iter()
        .filter(|(_, allowed)| !allowed)
        .map(|(rule, _)| rule)
        .collect()
}

#[test]
fn hash_iter_fires_on_hashmap_iteration() {
    let hits = active(
        "crates/snooze/src/fixture.rs",
        include_str!("../fixtures/hash_iter_bad.rs"),
    );
    assert_eq!(hits, vec!["hash-iter"]);
}

#[test]
fn hash_iter_respects_inline_allow() {
    let hits = active(
        "crates/snooze/src/fixture.rs",
        include_str!("../fixtures/hash_iter_allowed.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn hash_iter_is_scoped_to_sim_path_crates() {
    // The same source outside the simulation path is not in scope.
    let hits = active(
        "crates/bench/src/fixture.rs",
        include_str!("../fixtures/hash_iter_bad.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn wall_clock_fires_outside_bench() {
    let hits = active(
        "crates/simcore/src/fixture.rs",
        include_str!("../fixtures/wall_clock_bad.rs"),
    );
    assert_eq!(hits, vec!["wall-clock"]);
}

#[test]
fn wall_clock_respects_curated_allowlist() {
    let allowlist = Allowlist::parse(
        "# benchmark harness measures real time on purpose\n\
         wall-clock examples/fixture.rs\n",
    )
    .expect("allowlist parses");
    let found = findings(
        "examples/fixture.rs",
        include_str!("../fixtures/wall_clock_bad.rs"),
        &allowlist,
    );
    assert!(found
        .iter()
        .all(|(rule, allowed)| *rule == "wall-clock" && *allowed));
    assert!(
        !found.is_empty(),
        "finding should still be reported, just allowed"
    );
}

#[test]
fn wall_clock_is_permitted_in_bench() {
    let hits = active(
        "crates/bench/src/fixture.rs",
        include_str!("../fixtures/wall_clock_bad.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn ambient_rng_fires_everywhere() {
    for path in [
        "crates/simcore/src/fixture.rs",
        "crates/bench/src/fixture.rs",
    ] {
        let hits = active(path, include_str!("../fixtures/ambient_rng_bad.rs"));
        assert_eq!(hits, vec!["ambient-rng"], "at {path}");
    }
}

#[test]
fn ambient_rng_respects_untargeted_allow() {
    let hits = active(
        "crates/simcore/src/fixture.rs",
        include_str!("../fixtures/ambient_rng_allowed.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn float_eq_fires_in_scheduling_code() {
    let hits = active(
        "crates/consolidation/src/fixture.rs",
        include_str!("../fixtures/float_eq_bad.rs"),
    );
    assert_eq!(hits, vec!["float-eq"]);
}

#[test]
fn float_eq_respects_targeted_allow_on_previous_line() {
    let hits = active(
        "crates/consolidation/src/fixture.rs",
        include_str!("../fixtures/float_eq_allowed.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn partial_cmp_unwrap_fires_in_sim_path() {
    let hits = active(
        "crates/consolidation/src/fixture.rs",
        include_str!("../fixtures/partial_cmp_bad.rs"),
    );
    assert_eq!(hits, vec!["partial-cmp-unwrap"]);
}

#[test]
fn partial_cmp_unwrap_respects_targeted_allow() {
    let hits = active(
        "crates/consolidation/src/fixture.rs",
        include_str!("../fixtures/partial_cmp_allowed.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn partial_cmp_unwrap_or_fires_in_a_sort_comparator() {
    let hits = active(
        "crates/snooze/src/fixture.rs",
        include_str!("../fixtures/partial_cmp_sort_bad.rs"),
    );
    assert_eq!(hits, vec!["partial-cmp-unwrap"]);
}

#[test]
fn partial_cmp_unwrap_or_is_silent_in_min_by() {
    let hits = active(
        "crates/snooze/src/fixture.rs",
        include_str!("../fixtures/partial_cmp_min_by_ok.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn handler_unwrap_fires_only_inside_on_message() {
    // `helper()` also unwraps, but only the handler body may be flagged.
    let file = SourceFile::parse(
        "crates/snooze/src/fixture.rs",
        include_str!("../fixtures/handler_unwrap_bad.rs"),
    );
    let found = lint_file(&file, None, &empty());
    let lines: Vec<usize> = found
        .iter()
        .filter(|f| f.rule == "handler-unwrap")
        .map(|f| f.line)
        .collect();
    assert_eq!(lines.len(), 1, "exactly the handler-body line: {found:?}");
    assert!(
        found[0].snippet.contains("self.peer.unwrap()"),
        "flagged the handler body, not the helper: {found:?}"
    );
}

#[test]
fn handler_unwrap_respects_targeted_allow() {
    let hits = active(
        "crates/snooze/src/fixture.rs",
        include_str!("../fixtures/handler_unwrap_allowed.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn type_erasure_fires_in_sim_path() {
    let hits = active(
        "crates/simcore/src/fixture.rs",
        include_str!("../fixtures/type_erasure_bad.rs"),
    );
    // The fixture has three erasure sites (`dyn Any`, `downcast_ref`,
    // `downcast`) on three lines — every one must be reported.
    assert_eq!(hits, vec!["type-erasure"; 3]);
}

#[test]
fn type_erasure_is_scoped_to_sim_path_crates() {
    // Outside the simulation path (e.g. the audit crate's own scanner or
    // a bench harness) dynamic typing is not a determinism hazard.
    let hits = active(
        "crates/bench/src/fixture.rs",
        include_str!("../fixtures/type_erasure_bad.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn type_erasure_respects_targeted_allow() {
    let hits = active(
        "crates/simcore/src/fixture.rs",
        include_str!("../fixtures/type_erasure_allowed.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn interleaving_hashset_fires_without_iteration() {
    // The fixture declares and inserts into a HashSet but never iterates
    // it — invisible to `hash-iter`, exactly the gap this rule closes.
    // Both the import and the field declaration are flagged.
    let hits = active(
        "crates/mc/src/fixture.rs",
        include_str!("../fixtures/interleaving_hashset_bad.rs"),
    );
    assert_eq!(hits, vec!["interleaving-hashset"; 2]);
}

#[test]
fn interleaving_hashset_is_scoped_to_sim_path_crates() {
    let hits = active(
        "crates/bench/src/fixture.rs",
        include_str!("../fixtures/interleaving_hashset_bad.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn interleaving_hashset_respects_targeted_allow() {
    let hits = active(
        "crates/snooze/src/fixture.rs",
        include_str!("../fixtures/interleaving_hashset_allowed.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn unscoped_thread_fires_on_sim_path_concurrency() {
    // The fixture spawns a thread and declares a Mutex and an
    // AtomicUsize (imports included) — five flagged lines.
    let hits = active(
        "crates/snooze/src/fixture.rs",
        include_str!("../fixtures/unscoped_thread_bad.rs"),
    );
    assert!(!hits.is_empty());
    assert!(
        hits.iter().all(|&r| r == "unscoped-thread"),
        "got: {hits:?}"
    );
}

#[test]
fn unscoped_thread_has_no_carve_out_inside_simcore() {
    // No simcore module is exempt — not the engine, not a file named
    // like the deleted shard executor.
    for path in [
        "crates/simcore/src/engine.rs",
        "crates/simcore/src/exec.rs",
        "crates/simcore/src/equeue.rs",
    ] {
        let hits = active(path, include_str!("../fixtures/unscoped_thread_bad.rs"));
        assert!(!hits.is_empty(), "{path} must be in scope");
        assert!(
            hits.iter().all(|&r| r == "unscoped-thread"),
            "{path}: {hits:?}"
        );
    }
}

#[test]
fn unscoped_thread_is_scoped_to_sim_path_crates() {
    let hits = active(
        "crates/bench/src/fixture.rs",
        include_str!("../fixtures/unscoped_thread_bad.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn unscoped_thread_respects_inline_allow() {
    let hits = active(
        "crates/simcore/src/fixture.rs",
        include_str!("../fixtures/unscoped_thread_allowed.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn unscoped_thread_respects_the_curated_allowlist() {
    let allow = Allowlist::parse("unscoped-thread crates/simcore/src/fixture.rs")
        .expect("allowlist parses");
    let flagged: Vec<_> = findings(
        "crates/simcore/src/fixture.rs",
        include_str!("../fixtures/unscoped_thread_bad.rs"),
        &allow,
    )
    .into_iter()
    .filter(|(_, allowed)| !allowed)
    .collect();
    assert_eq!(flagged, Vec::<(&str, bool)>::new());
}

#[test]
fn wall_clock_respects_a_marker_two_comment_lines_up() {
    let hits = active(
        "crates/simcore/src/fixture.rs",
        include_str!("../fixtures/wall_clock_allowed.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn an_indented_cfg_test_cuts_nothing() {
    // Only a column-0 `#[cfg(test)]` opens the exempt test module; one
    // inside a macro marks a single item, and the code after it is linted.
    let hits = active(
        "crates/simcore/src/fixture.rs",
        include_str!("../fixtures/indented_cfg_test_bad.rs"),
    );
    assert_eq!(hits, vec!["wall-clock"]);
}

#[test]
fn uncalled_fires_on_a_pub_fn_only_tests_or_strings_name() {
    let found = tree(&[
        (
            "crates/demo/src/lib.rs",
            include_str!("../fixtures/uncalled_bad.rs"),
        ),
        (
            "crates/other/src/lib.rs",
            include_str!("../fixtures/uncalled_callers.rs"),
        ),
        (
            "crates/demo/tests/it.rs",
            "fn it() { demo::only_integration_tests_call_me(); }\n",
        ),
        (
            "benchmark/src/main.rs",
            "fn main() { let _t = std::time::Instant::now(); demo::the_benchmark_calls_me(); }\n",
        ),
    ]);
    assert_eq!(
        flagged(&found, "uncalled"),
        vec![
            "5: pub fn only_unit_tests_call_me() -> u32 {",
            "10: pub fn only_integration_tests_call_me() -> u32 {",
            "15: pub fn only_named_in_a_string() -> u32 {",
            "20: pub fn shadowed() -> u32 {",
        ]
    );
    // `benchmark/src` is read as a caller, never linted itself.
    assert!(
        found.iter().all(|f| !f.path.starts_with("benchmark/")),
        "{found:?}"
    );
}

#[test]
fn uncalled_needs_the_whole_tree() {
    // A file linted alone has no call sites to check against.
    let hits = active(
        "crates/demo/src/lib.rs",
        include_str!("../fixtures/uncalled_bad.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn uncalled_respects_a_marker_two_comment_lines_up() {
    let found = tree(&[(
        "crates/demo/src/lib.rs",
        include_str!("../fixtures/uncalled_allowed.rs"),
    )]);
    assert_eq!(flagged(&found, "uncalled"), Vec::<String>::new());
    assert_eq!(found.len(), 1, "reported, just allowed: {found:?}");
}

#[test]
fn edge_alloc_fires_below_the_writers_banner_only() {
    let file = SourceFile::parse(
        "crates/trace/src/csv.rs",
        include_str!("../fixtures/edge_alloc_bad.rs"),
    );
    assert_eq!(
        flagged(&lint_file(&file, None, &empty()), "edge-alloc"),
        vec![r#"11: out.push_str(&format!("line {line}"));"#]
    );
}

#[test]
fn edge_alloc_is_scoped_to_the_render_paths() {
    let hits = active(
        "crates/trace/src/gen.rs",
        include_str!("../fixtures/edge_alloc_bad.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn edge_alloc_respects_targeted_allow() {
    let hits = active(
        "crates/trace/src/csv.rs",
        include_str!("../fixtures/edge_alloc_allowed.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn span_label_fires_on_a_string_built_across_lines() {
    let file = SourceFile::parse(
        "crates/snooze/src/fixture.rs",
        include_str!("../fixtures/span_label_bad.rs"),
    );
    assert_eq!(
        flagged(&lint_file(&file, None, &empty()), "span-label"),
        vec![r#"8: ctx.span_label(span, "vm","#]
    );
}

#[test]
fn span_label_respects_targeted_allow() {
    let hits = active(
        "crates/snooze/src/fixture.rs",
        include_str!("../fixtures/span_label_allowed.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn lc_views_fires_in_try_place_but_not_in_the_planners() {
    let file = SourceFile::parse(
        "crates/snooze/src/group_manager.rs",
        include_str!("../fixtures/lc_views_bad.rs"),
    );
    assert_eq!(
        flagged(&lint_file(&file, None, &empty()), "lc-views"),
        vec!["10: let views = self.lc_views();"]
    );
}

#[test]
fn lc_views_respects_targeted_allow() {
    let hits = active(
        "crates/snooze/src/group_manager.rs",
        include_str!("../fixtures/lc_views_allowed.rs"),
    );
    assert_eq!(hits, Vec::<&str>::new());
}

#[test]
fn every_rule_has_fixture_coverage() {
    // Keep this test honest if rules are added later: each rule id must
    // appear among the fixture-driven positives above.
    let covered = [
        "hash-iter",
        "wall-clock",
        "ambient-rng",
        "float-eq",
        "partial-cmp-unwrap",
        "handler-unwrap",
        "type-erasure",
        "interleaving-hashset",
        "unscoped-thread",
        "uncalled",
        "edge-alloc",
        "span-label",
        "lc-views",
    ];
    for rule in rules() {
        assert!(
            covered.contains(&rule.id),
            "rule `{}` has no fixture test; add one to lint_rules.rs",
            rule.id
        );
    }
    assert_eq!(rules().len(), covered.len());
}
