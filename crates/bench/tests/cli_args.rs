//! `run_experiments` must reject what it does not know or would ignore:
//! a stale `e13`, a typo such as `e15`, a value flag that swallows the
//! next flag, two modes at once, or names beside a mode that drops them
//! all used to select nothing (or the wrong thing) and exit 0 — a vacuous
//! pass.

use std::process::Command;

/// Exit code and everything printed (stderr, then stdout).
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(args)
        .output()
        .expect("run_experiments starts");
    let printed = [out.stderr, out.stdout].concat();
    (
        out.status.code(),
        String::from_utf8_lossy(&printed).into_owned(),
    )
}

#[test]
fn bad_command_lines_exit_2_and_say_why() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let out = std::env::temp_dir().join(format!("snooze-cli-args-{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp dir");
    // Deleted flags, spelled in two halves so a tree-wide grep for them
    // finds no live use.
    let stale = concat!("--shard", "-smoke");
    let dump = concat!("--dump", "-scenarios"); // went with the presets it wrote
    for (args, why) in [
        (&["e13"][..], "unknown experiment `e13`"),
        (&["e3"][..], "unknown experiment `e3`"),
        (&["e1", "e15"][..], "unknown experiment `e15`"),
        (&["trace"][..], "unknown experiment `trace`"),
        (
            &["--smoke", "e11"][..],
            "`--smoke` takes no names (got `e11`)",
        ),
        (&[stale][..], "unknown flag `--shard-smoke`"),
        (&[dump][..], "unknown flag `--dump"),
        (
            &["--csv", out, "--e11smoke"][..],
            "unknown flag `--e11smoke`",
        ),
        // A value flag never swallows its neighbour.
        (&["--csv", "--json", out, "e9"][..], "`--csv` needs a value"),
        (
            &["--json", "--csv", out, "e9"][..],
            "`--json` needs a value",
        ),
        (&["e9", "--csv"][..], "`--csv` needs a value"),
        (&["--scenario", "--watch"][..], "`--scenario` needs a value"),
        // One mode, and nothing beside it that it would drop.
        (&["--smoke", "--check-scenarios"][..], "cannot be combined"),
        (
            &["--list-scenarios", dir, "--smoke"][..],
            "cannot be combined",
        ),
        (&["--smoke", "--smoke"][..], "cannot be combined"),
        (&["--list-scenarios", dir, "e4"][..], "takes no names"),
        (&["e4", "--check-scenarios"][..], "takes no names"),
        (&["--smoke", "--csv", out][..], "`--csv` does not apply"),
        (&["e4", "--watch"][..], "`--watch` does not apply"),
        (
            &["--scenario", "f.toml", "--csv", out][..],
            "`--csv` does not apply",
        ),
    ] {
        let (code, printed) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {printed}");
        assert!(printed.contains(why), "{args:?}: {printed}");
        let lists_what_is_valid = printed.contains("(valid: e1") || printed.contains("(valid: --");
        assert!(
            !why.starts_with("unknown") || lists_what_is_valid,
            "{printed}"
        );
    }
    assert!(
        !std::path::Path::new("--json").exists() && !std::path::Path::new(out).exists(),
        "a rejected command line must not have run anything"
    );
}

#[test]
fn an_unwritable_json_dir_fails_the_smoke_gate_before_it_runs() {
    // A directory below a file cannot be made: the gate says so before its
    // first scenario, not after its 62 runs.
    let (code, printed) = run(&["--smoke", "--json", "/dev/null/artifacts"]);
    assert_eq!(code, Some(1), "{printed}");
    let why = "obs smoke FAILED: --json /dev/null/artifacts";
    assert!(printed.contains(why), "{printed}");
    assert!(!printed.contains("[scenario]"), "no run started: {printed}");
}

#[test]
fn a_scenario_prints_its_span_tables_and_writes_its_exports() {
    let scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    // The timeline comes from whichever file runs: fault_storm.toml's
    // static manager and LC crashes always fail over.
    let (code, printed) = run(&["--scenario", &format!("{scenarios}/fault_storm.toml")]);
    assert_eq!(code, Some(0), "{printed}");
    let timeline = printed.split("== failover timeline ==").nth(1);
    let timeline = timeline.unwrap_or_else(|| panic!("no failover timeline: {printed}"));
    assert!(timeline.contains("gl.gm-failover"), "{printed}");
    assert!(timeline.contains("gm.lc-failover"), "{printed}");
    // Its three probes print the tree below the GL.
    assert!(printed.contains("== hierarchy =="), "{printed}");

    let out = std::env::temp_dir().join(format!("snooze-cli-json-{}", std::process::id()));
    let report = format!("{scenarios}/report.toml");
    let (code, printed) = run(&["--scenario", &report, "--json", out.to_str().unwrap()]);
    let written = |file: &str| out.join(file).is_file();
    let tables = [
        "report.json",
        "report.run_record.json",
        "report.failover_timeline.json",
    ];
    let exports = [
        "trace.chrome.json",
        "metrics.prom",
        "windows.csv",
        "incident_0.toml",
    ];
    let all_written = tables.iter().all(|f| written(f))
        && exports
            .iter()
            .all(|f| written(&format!("report-failover/{f}")));
    std::fs::remove_dir_all(&out).ok();
    assert_eq!(code, Some(0), "{printed}");
    assert!(all_written, "{printed}");
}

#[test]
fn a_pack_scenario_prints_its_table_and_writes_no_exports() {
    // A `[pack]` document simulates nothing: `--scenario` prints the one
    // table its runs make, and `--json` writes that table only.
    let scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let out = std::env::temp_dir().join(format!("snooze-cli-pack-{}", std::process::id()));
    let e8b = format!("{scenarios}/e8b.toml");
    let (code, printed) = run(&["--scenario", &e8b, "--json", out.to_str().unwrap()]);
    let written: Vec<_> = std::fs::read_dir(&out)
        .map(|dir| dir.filter_map(|e| Some(e.ok()?.file_name())).collect())
        .unwrap_or_default();
    std::fs::remove_dir_all(&out).ok();
    assert_eq!(code, Some(0), "{printed}");
    let table = printed.split("== scenario outcomes: e8b ==").nth(1);
    let table = table.unwrap_or_else(|| panic!("no pack table: {printed}"));
    for run in ["e8b-cpu", "e8b-mem", "e8b-l1", "e8b-l2", "e8b-linf"] {
        assert!(table.contains(run), "{printed}");
    }
    assert!(table.contains("FFD-linf"), "{printed}");
    assert_eq!(written, ["e8b.json"], "{printed}");
}

#[test]
fn known_arguments_still_run() {
    // The cheapest real mode: inventory the checked-in scenarios.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let (code, stderr) = run(&["--list-scenarios", dir]);
    assert_eq!(code, Some(0), "{stderr}");
}
