//! `snooze-audit` — the workspace determinism auditor.
//!
//! ```text
//! snooze-audit lint [--json] [--root DIR] [--allowlist FILE] [--include-allowed]
//! snooze-audit determinism [--json] [--seed N] [--nodes N] [--vms N] [--secs N]
//! snooze-audit rules
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use snooze_audit::determinism::{check, Scenario};
use snooze_audit::lint::{lint_root, rules, Allowlist};
use snooze_audit::report::{findings_json, findings_text};
use snooze_simcore::telemetry::json;

fn usage() -> &'static str {
    "snooze-audit: determinism lint + same-seed replay check\n\
     \n\
     USAGE:\n\
     \x20 snooze-audit lint [--json] [--root DIR] [--allowlist FILE] [--include-allowed]\n\
     \x20     Scan workspace sources for determinism-hostile constructs.\n\
     \x20     Exit 1 if any finding is not allowlisted.\n\
     \x20 snooze-audit determinism [--json] [--seed N] [--nodes N] [--vms N] [--secs N]\n\
     \x20     Run a full-stack scenario twice with one seed and diff the\n\
     \x20     event/span digests. Exit 1 on divergence.\n\
     \x20 snooze-audit rules\n\
     \x20     List the lint rules with their fix hints.\n"
}

/// Walk upward from the current directory to the workspace root (the
/// first ancestor holding a `Cargo.toml` with a `[workspace]` table).
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn cmd_lint(mut args: Vec<String>) -> Result<ExitCode, String> {
    let json = take_flag(&mut args, "--json");
    let include_allowed = take_flag(&mut args, "--include-allowed");
    let root = take_value(&mut args, "--root")?
        .map(PathBuf::from)
        .unwrap_or_else(find_root);
    let allowlist_path = take_value(&mut args, "--allowlist")?
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("audit.allowlist"));
    if let Some(stray) = args.first() {
        return Err(format!("unknown lint argument: {stray}"));
    }

    let allowlist = Allowlist::load(&allowlist_path)?;
    let mut findings = lint_root(&root, &allowlist)?;
    // Stale-entry hygiene: computed against the full finding set, before
    // the allowed ones are filtered out of the report.
    for stale in allowlist.stale_entries(&findings) {
        eprintln!("snooze-audit lint: warning: stale allowlist entry `{stale}` matches no finding");
    }
    let active = findings.iter().filter(|f| !f.allowed).count();
    if !include_allowed {
        findings.retain(|f| !f.allowed);
    }
    if json {
        print!("{}", findings_json(&findings));
    } else {
        print!("{}", findings_text(&findings));
        if active == 0 {
            println!("snooze-audit lint: clean ({} rules)", rules().len());
        } else {
            println!("snooze-audit lint: {active} finding(s)");
        }
    }
    Ok(if active == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{what}: expected an integer, got `{s}`"))
}

fn cmd_determinism(mut args: Vec<String>) -> Result<ExitCode, String> {
    let json = take_flag(&mut args, "--json");
    let mut sc = Scenario::default();
    if let Some(v) = take_value(&mut args, "--seed")? {
        sc.seed = parse_u64(&v, "--seed")?;
    }
    if let Some(v) = take_value(&mut args, "--nodes")? {
        sc.nodes = parse_u64(&v, "--nodes")? as usize;
    }
    if let Some(v) = take_value(&mut args, "--vms")? {
        sc.vms = parse_u64(&v, "--vms")?;
    }
    if let Some(v) = take_value(&mut args, "--secs")? {
        sc.secs = parse_u64(&v, "--secs")?;
    }
    if let Some(stray) = args.first() {
        return Err(format!("unknown determinism argument: {stray}"));
    }

    let verdict = check(&sc);
    let identical = verdict.identical();
    if json {
        let diffs: Vec<String> = verdict
            .diverging_fields()
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect();
        println!(
            "{{\"seed\": {}, \"nodes\": {}, \"vms\": {}, \"secs\": {}, \
             \"identical\": {}, \"event_digest\": \"{:#018x}\", \
             \"span_digest\": \"{:#018x}\", \"events\": {}, \"diverging\": [{}]}}",
            sc.seed,
            sc.nodes,
            sc.vms,
            sc.secs,
            identical,
            verdict.first.event_digest,
            verdict.first.span_digest,
            verdict.first.events,
            diffs.join(", "),
        );
    } else {
        for (n, run) in [(1, &verdict.first), (2, &verdict.second)] {
            println!(
                "run {n}: events={} event_digest={:#018x} span_digest={:#018x} placed={} energy={} Wh",
                run.events, run.event_digest, run.span_digest, run.placed, run.energy,
            );
        }
        if identical {
            println!(
                "snooze-audit determinism: identical (seed {}, {} nodes, {} VMs, {} s)",
                sc.seed, sc.nodes, sc.vms, sc.secs
            );
        } else {
            println!(
                "snooze-audit determinism: DIVERGED in {:?}",
                verdict.diverging_fields()
            );
        }
    }
    Ok(if identical {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_rules() -> ExitCode {
    for r in rules() {
        println!("{:<20} {}", r.id, r.summary);
        println!("{:<20} fix: {}", "", r.hint);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprint!("{}", usage());
        return ExitCode::from(2);
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "lint" => cmd_lint(args),
        "determinism" => cmd_determinism(args),
        "rules" => Ok(cmd_rules()),
        "--help" | "-h" | "help" => {
            print!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand: {other}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("snooze-audit: {msg}");
            eprint!("{}", usage());
            ExitCode::from(2)
        }
    }
}
