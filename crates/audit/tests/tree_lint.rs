//! The source lint over the whole workspace, as `snooze-audit lint` runs
//! it from `scripts/check.sh`: the same 13 rules, the same sources, the
//! same `audit.allowlist`, the same inline `audit-allow` markers. Any
//! finding neither excuses fails plain `cargo test`, so a `HashMap`
//! iteration on the simulated path or a `pub fn` only tests call cannot
//! wait for `check.sh` to be caught.

use std::path::Path;

use snooze_audit::lint::{lint_root, Allowlist};
use snooze_audit::report::findings_text;

#[test]
fn the_tree_has_no_live_determinism_finding() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let allowlist = Allowlist::load(&root.join("audit.allowlist")).expect("audit.allowlist");
    let mut findings = lint_root(&root, &allowlist).expect("workspace sources");
    findings.retain(|f| !f.allowed);
    assert!(findings.is_empty(), "\n{}", findings_text(&findings));
}
