//! `snooze-tracegen` writes exactly the bytes the library generates, so a
//! trace named only by its flags can be regenerated anywhere — by hand
//! from the CLI or in-process by a test — and compare equal.

use std::process::Command;

use snooze_trace::{csv, generate, GeneratorConfig};

#[test]
fn the_cli_writes_the_in_process_trace() {
    let out = std::env::temp_dir().join(format!("snooze-tracegen-{}.csv", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_snooze-tracegen"))
        .args(["--seed", "42", "--vms", "200", "--horizon-s", "1800"])
        .args(["--diurnal-period-s", "900", "--flash-crowds", "1"])
        .args(["--curve-step-s", "300", "--out"])
        .arg(&out)
        .status()
        .expect("snooze-tracegen starts");
    assert!(status.success(), "snooze-tracegen exited with {status}");
    let written = std::fs::read_to_string(&out).expect("snooze-tracegen wrote --out");
    std::fs::remove_file(&out).expect("remove the written trace");

    let cfg = GeneratorConfig {
        vms: 200,
        horizon_s: 1800.0,
        diurnal_period_s: 900.0,
        flash_crowds: 1,
        curve_step_s: 300.0,
    };
    assert_eq!(written, csv::to_string(&generate(&cfg, 42)));
}
