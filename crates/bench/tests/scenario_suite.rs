//! Acceptance test for the declarative scenario layer: `scenarios/*.toml`
//! passes the `--check-scenarios` gate — canonical, every run and every
//! `[override.*]` profile compiling — and every document that is not an
//! experiment runs without breaking an invariant. Tier-1's `tests/experiments_manifest.rs`
//! pins what each file expands to and replays every table against its
//! golden.

use std::path::PathBuf;

use snooze_bench::experiments::EXPERIMENTS;
use snooze_bench::scenario_cli::run_file;

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

#[test]
fn hand_written_documents_break_no_invariant() {
    // The experiments' runs are checked by the golden replay; this runs
    // every other simulating document in the directory, as checked in,
    // and requires no safety predicate of `snooze::invariants` to fire at
    // any of their probes or at the end of any run.
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| {
            let stem = path.file_stem().unwrap_or_default().to_string_lossy();
            let text = std::fs::read_to_string(path).unwrap_or_default();
            let mc_trace = text.lines().any(|l| l.starts_with("harness = "));
            !mc_trace && !EXPERIMENTS.iter().any(|e| e.slug == stem)
        })
        .collect();
    files.sort();
    let stems: Vec<String> = (files.iter())
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        stems,
        ["fault_storm", "hetero_burst", "hierarchy", "report"]
    );
    for path in &files {
        let runs = run_file(path, false).unwrap_or_else(|e| panic!("{e}"));
        for run in &runs {
            let run = run.sim();
            let broken = &run.outcome.violations;
            assert!(broken.is_empty(), "{}: {broken:#?}", run.spec.name);
        }
    }
}
