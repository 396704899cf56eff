//! Acceptance test for the declarative scenario layer: `scenarios/*.toml`
//! passes the `--check-scenarios` gate — canonical, every run and every
//! `[override.*]` profile compiling. Tier-1's `tests/experiments_manifest.rs`
//! pins what each file expands to and replays every table against its
//! golden.

use std::path::PathBuf;

use snooze_bench::experiments::EXPERIMENTS;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[test]
fn check_scenarios_gate_passes_on_the_checked_in_directory() {
    // Every file parses, is canonical and dry-run compiles — smoke
    // profiles included, so a shape that no longer decodes fails here and
    // not in the middle of a golden replay.
    let dir = scenarios_dir();
    let report = snooze_bench::scenario_cli::check_dir(&dir).unwrap_or_else(|e| panic!("{e}"));
    let smoke = report.iter().filter(|l| l.contains(" [override.smoke] "));
    assert_eq!(smoke.count(), 4, "e1, e2, e11, e14_arena: {report:#?}");
    assert!(report.len() > EXPERIMENTS.len(), "hand-written files too");
}
