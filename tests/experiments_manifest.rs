//! Tier-1's view of the experiment manifest (`snooze_bench::experiments`):
//! without running a full experiment, the manifest, the golden files and
//! the checked-in `scenarios/*.toml` must describe the same tables — and
//! one reduced sweep goes through the generic runner end to end.

use std::collections::BTreeSet;
use std::path::PathBuf;

use snooze_bench::experiments::{find, run_specs, EXPERIMENTS, SUMMARY};
use snooze_scenario::presets;
use snooze_scenario::spec::ScenarioDoc;

fn repo(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
}

#[test]
fn slugs_are_unique_and_cli_names_form_one_group_each() {
    let slugs: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.slug).collect();
    assert_eq!(slugs.len(), EXPERIMENTS.len(), "duplicate slug");

    // Tables sharing a CLI name (e7/e7b, e8a/e8b, e10a/e10b) sit together
    // and agree on being explicit-only, so a name selects one contiguous,
    // uniformly-weighted group.
    let mut groups: Vec<&str> = EXPERIMENTS.iter().map(|e| e.cli).collect();
    groups.dedup();
    let distinct: BTreeSet<&str> = groups.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        groups.len(),
        "a CLI name is split: {groups:?}"
    );
    assert!(!distinct.contains("all"), "`all` is reserved");
    for pair in EXPERIMENTS.windows(2) {
        if pair[0].cli == pair[1].cli {
            assert_eq!(
                pair[0].explicit_only, pair[1].explicit_only,
                "{}",
                pair[0].cli
            );
        }
    }
}

#[test]
fn headers_are_unique_within_each_table() {
    // `Table::to_json` keys cells by header: a duplicate silently keeps
    // the last value.
    let tables = EXPERIMENTS
        .iter()
        .filter_map(|e| Some((e.slug, e.scenarios()?.columns)))
        .chain([("--scenario", SUMMARY)]);
    for (slug, columns) in tables {
        let headers: BTreeSet<&str> = columns.iter().map(|c| c.header).collect();
        assert_eq!(headers.len(), columns.len(), "{slug}: duplicate header");
    }
}

#[test]
fn goldens_and_scenario_backed_entries_correspond() {
    let dir = repo("crates/bench/tests/golden");
    for exp in EXPERIMENTS {
        let Some(table) = exp.scenarios() else {
            continue;
        };
        let golden = std::fs::read_to_string(dir.join(format!("{}.json", exp.slug)))
            .unwrap_or_else(|e| {
                panic!("{}: scenario-backed table without a golden: {e}", exp.slug)
            });
        let pinned: Vec<String> = table
            .columns
            .iter()
            .filter(|c| !c.advisory)
            .map(|c| format!("\"{}\"", c.header))
            .collect();
        assert_eq!(
            golden.lines().nth(2),
            Some(format!("  \"columns\": [{}],", pinned.join(", ")).as_str()),
            "{}: the golden pins exactly the non-advisory columns, in order",
            exp.slug
        );
    }
    for entry in std::fs::read_dir(&dir).expect("golden dir") {
        let path = entry.expect("dir entry").path();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 stem");
        assert!(
            EXPERIMENTS.iter().any(|e| e.slug == stem),
            "{}: no manifest entry with this slug",
            path.display()
        );
    }
}

#[test]
fn every_scenario_backed_entry_is_its_checked_in_scenario_file() {
    for exp in EXPERIMENTS {
        let Some(table) = exp.scenarios() else {
            continue;
        };
        let path = repo("scenarios").join(format!("{}.toml", exp.slug));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let doc = ScenarioDoc::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            doc.expand()
                .unwrap_or_else(|e| panic!("{}: {e}", path.display())),
            (table.specs)(),
            "`run_experiments {}` must run exactly scenarios/{}.toml",
            exp.cli,
            exp.slug
        );
    }
}

#[test]
fn a_reduced_sweep_goes_through_the_generic_runner() {
    // The 16-LC E4 shape: two burst sizes on a small hierarchy.
    let runs = run_specs(&presets::e4(&[10, 40], 16, 3, 21), false).expect("preset compiles");
    let table = find("e4")
        .scenarios()
        .expect("scenario-backed")
        .render(&runs);
    let csv = table.deterministic().to_csv();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("VMs,LCs,placed,rejected,mean lat s,p95 lat s,sim events"),
        "the advisory wall column is dropped by spec"
    );
    assert!(lines
        .next()
        .is_some_and(|row| row.starts_with("10,16,10,0,")));
    assert!(lines
        .next()
        .is_some_and(|row| row.starts_with("40,16,40,0,")));
    assert_eq!(lines.next(), None);
    assert!(table
        .to_csv()
        .starts_with("VMs,LCs,placed,rejected,mean lat s,p95 lat s,sim events,wall ms\n"));
}
