//! Acceptance tests for the declarative scenario layer and the one runner
//! over it:
//!
//! * `scenarios/*.toml` passes the `--check-scenarios` gate: canonical,
//!   every run and every `[override.*]` profile compiling (tier-1's
//!   `tests/experiments_manifest.rs` pins what each file expands to);
//! * every manifest table that has a golden reproduces it byte for byte
//!   (release builds only). After a change that is meant to move them,
//!   re-record deliberately with
//!   `UPDATE_GOLDEN=1 cargo test --release -p snooze-bench --test
//!   scenario_suite release_tables -- --nocapture`.

use std::path::PathBuf;

use snooze_bench::experiments::EXPERIMENTS;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[test]
fn check_scenarios_gate_passes_on_the_checked_in_directory() {
    // Every file parses, is canonical and dry-run compiles — smoke
    // profiles included, so a shape that no longer decodes fails here and
    // not minutes into `check.sh --smoke`.
    let dir = scenarios_dir();
    let report = snooze_bench::scenario_cli::check_dir(&dir).unwrap_or_else(|e| panic!("{e}"));
    let smoke = report.iter().filter(|l| l.contains(" [override.smoke] "));
    assert_eq!(smoke.count(), 3, "e11, e12_trace, e14_arena: {report:#?}");
    let backed = EXPERIMENTS.iter().filter(|e| e.scenarios().is_some());
    assert!(report.len() > backed.count(), "hand-written files too");
}

#[test]
fn release_tables_match_the_checked_in_goldens() {
    // The identity gate for any engine, protocol or runner change: every
    // manifest table with a golden must stay byte-identical to
    // `tests/golden/<slug>.json` in every non-advisory column. Debug
    // builds skip it — the full suite is a release-scale workload.
    if cfg!(debug_assertions) {
        eprintln!("skipping release-table identity gate in a debug build");
        return;
    }
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut compared = 0;
    for exp in EXPERIMENTS {
        let path = golden_dir.join(format!("{}.json", exp.slug));
        let Ok(golden) = std::fs::read_to_string(&path) else {
            continue; // E1 and E2 fold host wall time into their energy columns.
        };
        // Only the locked columns are written: `run_experiments --json`
        // output carries the advisory wall-clock ones too.
        let table = exp.table().deterministic().to_json();
        if update && table != golden {
            std::fs::write(&path, &table).expect("write golden");
            eprintln!("[golden] {}: RE-RECORDED", exp.slug);
        } else {
            assert_eq!(
                table, golden,
                "{0}: deterministic table columns drifted from tests/golden/{0}.json \
                 (run with UPDATE_GOLDEN=1 to regenerate deliberately)",
                exp.slug
            );
            eprintln!("[golden] {}: identical", exp.slug);
        }
        compared += 1;
    }
    let files = std::fs::read_dir(&golden_dir).expect("golden dir").count();
    assert_eq!(compared, files, "a golden file names no manifest entry");
}
