//! `snooze-mc` — the model-checker CLI.
//!
//! ```text
//! snooze-mc [--harness election|failover] [options]     explore a topology
//! snooze-mc --replay FILE [--json]                      replay a counterexample
//! snooze-mc --smoke                                     CI determinism gate
//! ```

use std::process::ExitCode;

use snooze_mc::election::{self, ElectionHarness};
use snooze_mc::explorer::{explore, McConfig, McReport, PredicateKind, Strategy};
use snooze_mc::failover::{self, FailoverHarness};
use snooze_scenario::mc_trace::McTraceDoc;
use snooze_simcore::telemetry::json;

fn usage() -> &'static str {
    "snooze-mc: exhaustive model checking of the Snooze protocols\n\
     \n\
     USAGE:\n\
     \x20 snooze-mc [--harness election|failover] [--contenders N] [--gms N] [--lcs N]\n\
     \x20           [--seeded-bug] [--strategy dfs|bfs] [--depth N] [--states N]\n\
     \x20           [--drops N] [--crashes N] [--restarts N] [--bootstrap SECS]\n\
     \x20           [--max-violations N] [--no-liveness] [--reorder-timers]\n\
     \x20           [--json] [--emit FILE]\n\
     \x20     Explore the topology's state space and check its invariants.\n\
     \x20     Exit 1 if a violation is found (exit 0 with --emit, whose job\n\
     \x20     is to write the counterexample as a scenario TOML document).\n\
     \x20 snooze-mc --replay FILE [--json]\n\
     \x20     Rebuild the harness a trace document describes, re-apply its\n\
     \x20     steps, and re-evaluate the recorded predicate. Exit 0 if the\n\
     \x20     violation reproduces.\n\
     \x20 snooze-mc --smoke\n\
     \x20     Explore the failover topology twice at a small fixed depth and\n\
     \x20     require zero violations, identical explored-state counts and\n\
     \x20     fingerprints, and the counts the crate pins. Exit 0 on pass.\n"
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

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{what}: expected an integer, got `{s}`"))
}

fn print_report(report: &McReport, label: &str, json: bool) {
    if json {
        let violations: Vec<String> = report
            .violations
            .iter()
            .map(|v| {
                format!(
                    "{{\"predicate\": \"{}\", \"depth\": {}, \"detail\": \"{}\"}}",
                    json::escape(&v.predicate),
                    v.trace.len(),
                    json::escape(&v.detail)
                )
            })
            .collect();
        println!(
            "{{\"harness\": \"{}\", \"explored\": {}, \"transitions\": {}, \
             \"deduped\": {}, \"truncated\": {}, \"liveness_probes\": {}, \
             \"suffixes_run\": {}, \"memo_entries\": {}, \"max_depth_reached\": {}, \
             \"hit_state_cap\": {}, \"fingerprint\": \"{:#018x}\", \"violations\": [{}]}}",
            json::escape(label),
            report.explored,
            report.transitions,
            report.deduped,
            report.truncated,
            report.liveness_probes,
            report.suffixes_run,
            report.memo_entries,
            report.max_depth_reached,
            report.hit_state_cap,
            report.fingerprint,
            violations.join(", "),
        );
    } else {
        println!(
            "{label}: explored={} transitions={} deduped={} truncated={} \
             liveness_probes={} suffixes_run={} memo_entries={} max_depth={} \
             fingerprint={:#018x}{}",
            report.explored,
            report.transitions,
            report.deduped,
            report.truncated,
            report.liveness_probes,
            report.suffixes_run,
            report.memo_entries,
            report.max_depth_reached,
            report.fingerprint,
            if report.hit_state_cap {
                " (state cap hit)"
            } else {
                ""
            },
        );
        for (i, v) in report.violations.iter().enumerate() {
            println!(
                "violation[{i}]: {} at depth {}: {}",
                v.predicate,
                v.trace.len(),
                v.detail
            );
        }
    }
}

enum Harness {
    Election(ElectionHarness),
    Failover(FailoverHarness),
}

fn cmd_check(mut args: Vec<String>) -> Result<ExitCode, String> {
    let json = take_flag(&mut args, "--json");
    let seeded_bug = take_flag(&mut args, "--seeded-bug");
    let no_liveness = take_flag(&mut args, "--no-liveness");
    let reorder_timers = take_flag(&mut args, "--reorder-timers");
    let harness_kind = take_value(&mut args, "--harness")?.unwrap_or_else(|| "election".into());
    let contenders = match take_value(&mut args, "--contenders")? {
        Some(v) => parse_u64(&v, "--contenders")? as usize,
        None => 3,
    };
    let gms = match take_value(&mut args, "--gms")? {
        Some(v) => parse_u64(&v, "--gms")? as usize,
        None => 3,
    };
    let lcs = match take_value(&mut args, "--lcs")? {
        Some(v) => parse_u64(&v, "--lcs")? as usize,
        None => 2,
    };
    let bootstrap = match take_value(&mut args, "--bootstrap")? {
        Some(v) => parse_u64(&v, "--bootstrap")?,
        None => match harness_kind.as_str() {
            "failover" => 10,
            _ => 5,
        },
    };
    let mut config = McConfig {
        crash_budget: 1,
        reorder_timers,
        ..McConfig::default()
    };
    if let Some(v) = take_value(&mut args, "--strategy")? {
        config.strategy =
            Strategy::parse(&v).ok_or_else(|| format!("--strategy: `{v}` is not dfs|bfs"))?;
    }
    if let Some(v) = take_value(&mut args, "--depth")? {
        config.max_depth = parse_u64(&v, "--depth")? as usize;
    }
    if let Some(v) = take_value(&mut args, "--states")? {
        config.max_states = parse_u64(&v, "--states")? as usize;
    }
    if let Some(v) = take_value(&mut args, "--drops")? {
        config.drop_budget = parse_u64(&v, "--drops")? as u32;
    }
    if let Some(v) = take_value(&mut args, "--crashes")? {
        config.crash_budget = parse_u64(&v, "--crashes")? as u32;
    }
    if let Some(v) = take_value(&mut args, "--restarts")? {
        config.restart_budget = parse_u64(&v, "--restarts")? as u32;
    }
    if let Some(v) = take_value(&mut args, "--max-violations")? {
        config.max_violations = (parse_u64(&v, "--max-violations")? as usize).max(1);
    }
    let emit = take_value(&mut args, "--emit")?;
    if let Some(stray) = args.first() {
        return Err(format!("unknown argument: {stray}"));
    }

    let mut harness = match harness_kind.as_str() {
        "election" => Harness::Election(ElectionHarness::new(contenders, seeded_bug, bootstrap)),
        "failover" => {
            if seeded_bug {
                return Err("--seeded-bug applies to the election harness only".into());
            }
            Harness::Failover(FailoverHarness::new(gms, lcs, bootstrap))
        }
        other => return Err(format!("--harness: `{other}` is not election|failover")),
    };

    let report = match &mut harness {
        Harness::Election(h) => {
            config.crashable = h.contenders.clone();
            let mut preds = h.predicates();
            if no_liveness {
                preds.retain(|p| matches!(p.kind, PredicateKind::Safety));
            }
            explore(&mut h.sim, &preds, &config)
        }
        Harness::Failover(h) => {
            config.crashable = h.crashable();
            let mut preds = h.predicates();
            if no_liveness {
                preds.retain(|p| matches!(p.kind, PredicateKind::Safety));
            }
            explore(&mut h.sim, &preds, &config)
        }
    };
    print_report(&report, &format!("snooze-mc {harness_kind}"), json);

    if let Some(path) = emit {
        let Some(v) = report.violations.first() else {
            eprintln!("snooze-mc: no violation found, nothing to emit");
            return Ok(ExitCode::FAILURE);
        };
        let stem = std::path::Path::new(&path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("counterexample")
            .to_string();
        let doc = match &harness {
            Harness::Election(h) => h.to_doc(v, &stem),
            Harness::Failover(h) => h.to_doc(v, &stem),
        };
        std::fs::write(&path, doc.to_toml()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("snooze-mc: wrote {path} ({} steps)", doc.steps.len());
        return Ok(ExitCode::SUCCESS);
    }
    Ok(if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_replay(path: &str, json: bool) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = McTraceDoc::from_toml(&text)?;
    let outcome = match doc.harness.as_str() {
        "election" => election::replay_doc(&doc)?,
        "failover" => failover::replay_doc(&doc)?,
        other => return Err(format!("unknown harness `{other}` in {path}")),
    };
    let reproduced = outcome.is_some();
    if json {
        println!(
            "{{\"name\": \"{}\", \"predicate\": \"{}\", \"steps\": {}, \"reproduced\": {}, \
             \"detail\": \"{}\"}}",
            json::escape(&doc.name),
            json::escape(&doc.predicate),
            doc.steps.len(),
            reproduced,
            json::escape(outcome.as_deref().unwrap_or("")),
        );
    } else {
        match &outcome {
            Some(detail) => println!(
                "snooze-mc replay: {} reproduced after {} steps: {detail}",
                doc.predicate,
                doc.steps.len()
            ),
            None => println!(
                "snooze-mc replay: {} did NOT reproduce ({} steps applied cleanly)",
                doc.predicate,
                doc.steps.len()
            ),
        }
    }
    Ok(if reproduced {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_smoke() -> ExitCode {
    let first = failover::smoke();
    let second = failover::smoke();
    print_report(&first, "snooze-mc smoke run 1", false);
    print_report(&second, "snooze-mc smoke run 2", false);
    let stable = first.explored == second.explored && first.fingerprint == second.fingerprint;
    let pinned = first.counts() == failover::SMOKE_COUNTS;
    let clean = first.violations.is_empty()
        && second.violations.is_empty()
        && !first.hit_state_cap
        && !second.hit_state_cap;
    if stable && clean && pinned {
        println!(
            "snooze-mc smoke: OK ({} states, fingerprint {:#018x})",
            first.explored, first.fingerprint
        );
        ExitCode::SUCCESS
    } else {
        if !stable {
            eprintln!("snooze-mc smoke: exploration NOT deterministic across runs");
        }
        if !clean {
            eprintln!("snooze-mc smoke: violations or state-cap hit");
        }
        if !pinned {
            eprintln!(
                "snooze-mc smoke: explored {:?}, pinned {:?} \
                 (explored, transitions, deduped, truncated, liveness_probes, suffixes_run)",
                first.counts(),
                failover::SMOKE_COUNTS
            );
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if take_flag(&mut args, "--help") || args.first().map(String::as_str) == Some("help") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if take_flag(&mut args, "--smoke") {
        return cmd_smoke();
    }
    let json = args.iter().any(|a| a == "--json");
    let replay = match take_value(&mut args, "--replay") {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("snooze-mc: {msg}");
            return ExitCode::from(2);
        }
    };
    let result = match replay {
        Some(path) => {
            take_flag(&mut args, "--json");
            if let Some(stray) = args.first() {
                Err(format!("unknown argument: {stray}"))
            } else {
                cmd_replay(&path, json)
            }
        }
        None => cmd_check(args),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("snooze-mc: {msg}");
            eprint!("{}", usage());
            ExitCode::from(2)
        }
    }
}
