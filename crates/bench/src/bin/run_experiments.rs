//! Regenerate the paper's evaluation tables.
//!
//! ```text
//! run_experiments [--csv <dir>] [--json <dir>] [e1|e2|...|e10|e11|e12|e14|all]...
//! run_experiments --e11-smoke
//! run_experiments --trace-smoke [trace.csv]
//! run_experiments --arena-smoke [trace.csv]
//! run_experiments --obs-smoke [artifact-dir]
//! run_experiments --scenario <file.toml> [--watch]
//! run_experiments --list-scenarios [dir]
//! run_experiments --check-scenarios [dir]
//! run_experiments --dump-scenarios [dir]
//! ```
//!
//! With no experiment arguments, runs everything *except* E11 and E12,
//! which are explicit-only (`run_experiments e11`, `run_experiments
//! e12`): their kilonode-scale runs are deliberately heavy. `--e11-smoke`
//! runs the reduced 256-LC fault-free shape and fails unless the
//! throughput column is present and the run finished with zero dead
//! letters — the CI gate behind `scripts/check.sh --e11-smoke`.
//! `--trace-smoke` generates a tiny trace from the fixed seed (or takes
//! a `snooze-tracegen`-written file), replays it twice on the reduced
//! 128-LC E12 shape, and fails unless the two runs agree byte-for-byte
//! on event digest and table — the gate behind `scripts/check.sh
//! --trace-smoke`. `--arena-smoke` replays the same tiny trace once per
//! `ConsolidatorRegistry` key on the reduced 128-LC arena shape under
//! the billed-DVFS power model, twice each, and fails unless every cell
//! agrees byte-for-byte on digest and table — the gate behind
//! `scripts/check.sh --arena-smoke`. E14 itself (`run_experiments e14`)
//! sweeps algorithm × power model at kilonode scale;
//! `BENCH_E14_ARENA.json` is the checked-in measurement.
//!
//! Each experiment prints
//! the table documented in DESIGN.md's per-experiment index (and, with
//! `--csv` / `--json`, writes machine-readable copies); EXPERIMENTS.md
//! records paper-vs-measured.
//!
//! `--json <dir>` writes one `<slug>.json` per table (`e1.json`,
//! `e7b.json`, …) with the schema documented on
//! [`Table::to_json`]: `{"title", "columns", "rows": [{column: cell}]}`,
//! cells verbatim as printed.
//!
//! The scenario flags drive the declarative layer (`snooze-scenario`):
//! `--scenario` runs every variant of one TOML file and prints generic
//! outcome/fault/probe tables; `--list-scenarios` inventories a
//! directory (default `scenarios/`); `--check-scenarios` is the CI gate
//! (parse, canonical-form, dry-run compile, preset drift);
//! `--dump-scenarios` (re)writes the preset files.
//!
//! An argument that is neither a flag nor an experiment name listed above
//! is an error (exit code 2), never a silent no-op.

use snooze_bench::table::Table;
use snooze_bench::*;

/// Experiment names accepted as positional arguments.
const EXPERIMENTS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e14", "all",
];

/// Accepted flags, and whether the next argument (when it does not itself
/// start with `--`) is the flag's value.
const FLAGS: &[(&str, bool)] = &[
    ("--csv", true),
    ("--json", true),
    ("--e11-smoke", false),
    ("--trace-smoke", true),
    ("--arena-smoke", true),
    ("--obs-smoke", true),
    ("--scenario", true),
    ("--watch", false),
    ("--list-scenarios", true),
    ("--check-scenarios", true),
    ("--dump-scenarios", true),
    ("--fmt-scenarios", true),
];

/// Reject any argument that would otherwise select nothing: a stale or
/// mistyped experiment name or flag must not run zero experiments and
/// exit 0.
fn check_args(args: &[String]) -> Result<(), String> {
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            match FLAGS.iter().find(|(flag, _)| flag == arg) {
                Some((_, true)) => {
                    it.next_if(|next| !next.starts_with("--"));
                }
                Some((_, false)) => {}
                None => {
                    let flags: Vec<&str> = FLAGS.iter().map(|(flag, _)| *flag).collect();
                    return Err(format!("unknown flag `{arg}` (valid: {})", flags.join(" ")));
                }
            }
        } else if !EXPERIMENTS.contains(&arg.as_str()) {
            return Err(format!(
                "unknown experiment `{arg}` (valid: {})",
                EXPERIMENTS.join(" ")
            ));
        }
    }
    Ok(())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_args(&args) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }

    // Scenario-layer modes: handle and exit before the experiment sweep.
    let dir_arg = |args: &[String], i: usize| {
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "scenarios".into())
    };
    if let Some(i) = args.iter().position(|a| a == "--dump-scenarios") {
        let dir = std::path::PathBuf::from(dir_arg(&args, i));
        match scenario_cli::dump_dir(&dir) {
            Ok(written) => {
                for w in written {
                    println!("wrote {w}");
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--fmt-scenarios") {
        let dir = std::path::PathBuf::from(dir_arg(&args, i));
        match scenario_cli::fmt_dir(&dir) {
            Ok(rewritten) => {
                for r in rewritten {
                    println!("canonicalized {r}");
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--list-scenarios") {
        let dir = std::path::PathBuf::from(dir_arg(&args, i));
        match scenario_cli::list_table(&dir) {
            Ok(t) => t.print(),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--check-scenarios") {
        let dir = std::path::PathBuf::from(dir_arg(&args, i));
        match scenario_cli::check_dir(&dir) {
            Ok(report) => {
                for line in report {
                    println!("{line}");
                }
                println!("scenario check: OK");
            }
            Err(e) => {
                eprintln!("scenario check FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.iter().any(|a| a == "--e11-smoke") {
        eprintln!("[e11-smoke] 256 LCs, fault-free, scaled fleet …");
        let row = e11_kilonode::smoke_row();
        let table = e11_kilonode::render(std::slice::from_ref(&row));
        table.print();
        let mut failures = Vec::new();
        if row.events_per_sec().is_nan() {
            failures.push("throughput column is empty (wall clock read 0 ms)".to_string());
        }
        if row.dead_letters != 0 {
            failures.push(format!(
                "{} dead letter(s) in a fault-free run",
                row.dead_letters
            ));
        }
        if row.placed != row.vms {
            failures.push(format!("placed {}/{} VMs", row.placed, row.vms));
        }
        if failures.is_empty() {
            println!("e11 smoke: OK ({:.0} events/s)", row.events_per_sec());
        } else {
            for f in &failures {
                eprintln!("e11 smoke FAILED: {f}");
            }
            std::process::exit(1);
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--trace-smoke") {
        let trace = args
            .get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .map(std::path::PathBuf::from);
        eprintln!("[trace-smoke] seeded trace, 128-LC replay x2 per variant, identity check …");
        let smoke = match e12_trace::smoke(trace.as_deref()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("trace smoke FAILED: {e}");
                std::process::exit(1);
            }
        };
        e12_trace::render(&smoke.rows).print();
        let mut failures = Vec::new();
        if !smoke.digests_match {
            failures.push("two same-seed runs disagree on the event digest".to_string());
        }
        if !smoke.tables_identical {
            failures
                .push("two same-seed runs disagree on a deterministic table column".to_string());
        }
        for r in &smoke.rows {
            if r.placed == 0 {
                failures.push(format!("{}: no trace VM was placed", r.name));
            }
            if r.dead_letters != 0 {
                failures.push(format!(
                    "{}: {} dead letter(s) in a fault-free run",
                    r.name, r.dead_letters
                ));
            }
        }
        if failures.is_empty() {
            println!(
                "trace smoke: OK ({} variant(s), trace {})",
                smoke.rows.len(),
                smoke.trace_path
            );
        } else {
            for f in &failures {
                eprintln!("trace smoke FAILED: {f}");
            }
            std::process::exit(1);
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--arena-smoke") {
        let trace = args
            .get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .map(std::path::PathBuf::from);
        eprintln!("[arena-smoke] seeded trace, every registry key on 128 LCs x2, identity check …");
        let smoke = match e14_arena::smoke(trace.as_deref()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("arena smoke FAILED: {e}");
                std::process::exit(1);
            }
        };
        e14_arena::render(&smoke.rows).print();
        let mut failures = Vec::new();
        if !smoke.digests_match {
            failures.push("two same-seed runs disagree on the event digest".to_string());
        }
        if !smoke.tables_identical {
            failures
                .push("two same-seed runs disagree on a deterministic table column".to_string());
        }
        for r in &smoke.rows {
            if r.placed == 0 {
                failures.push(format!("{}: no trace VM was placed", r.name));
            }
            if r.dead_letters != 0 {
                failures.push(format!(
                    "{}: {} dead letter(s) in a fault-free run",
                    r.name, r.dead_letters
                ));
            }
        }
        if failures.is_empty() {
            println!(
                "arena smoke: OK ({} registry key(s): {}, trace {})",
                smoke.keys_run.len(),
                smoke.keys_run.join(" "),
                smoke.trace_path
            );
        } else {
            for f in &failures {
                eprintln!("arena smoke FAILED: {f}");
            }
            std::process::exit(1);
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--obs-smoke") {
        let artifact_dir = args
            .get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .map(std::path::PathBuf::from);
        eprintln!("[obs-smoke] 256 LCs, windows + profiler + SLOs + forced incident, 3x2 runs …");
        let smoke = match obs_smoke::run() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("obs smoke FAILED: {e}");
                std::process::exit(1);
            }
        };
        let rows = vec![smoke.baseline.clone(), smoke.observed.clone()];
        e11_kilonode::render(&rows).print();
        if let Some(dir) = &artifact_dir {
            std::fs::create_dir_all(dir).expect("create artifact dir");
            std::fs::write(dir.join("windows.jsonl"), &smoke.windows_jsonl).expect("write jsonl");
            std::fs::write(dir.join("windows.csv"), &smoke.windows_csv).expect("write csv");
            std::fs::write(dir.join("profile.folded"), &smoke.folded).expect("write folded");
            std::fs::write(dir.join("incident_forced.toml"), &smoke.incident_toml)
                .expect("write incident");
            obs_smoke::comparison_table(&smoke)
                .write_json(dir, "e11_obs")
                .expect("write comparison json");
            eprintln!("[obs-smoke] artifacts in {}", dir.display());
        }
        let mut failures = Vec::new();
        if !smoke.digest_match {
            failures.push("observability changed the engine digest".to_string());
        }
        if !smoke.bytes_identical {
            failures
                .push("two observed runs disagree on windows/profile/incident bytes".to_string());
        }
        if smoke.windows == 0 {
            failures.push("observed run closed no metric windows".to_string());
        }
        if smoke.observed.placed != smoke.observed.vms {
            failures.push(format!(
                "placed {}/{} VMs",
                smoke.observed.placed, smoke.observed.vms
            ));
        }
        if smoke.throughput_ratio < 0.9 || smoke.throughput_ratio.is_nan() {
            failures.push(format!(
                "observability overhead too high: {:.1}% of baseline throughput (floor 90%)",
                smoke.throughput_ratio * 100.0
            ));
        }
        if failures.is_empty() {
            println!(
                "obs smoke: OK ({} windows, {} profiled handler rows, {:.1}% of baseline throughput)",
                smoke.windows,
                smoke.folded.lines().count(),
                smoke.throughput_ratio * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("obs smoke FAILED: {f}");
            }
            std::process::exit(1);
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--scenario") {
        let Some(file) = args.get(i + 1).cloned() else {
            eprintln!("--scenario needs a file argument");
            std::process::exit(2);
        };
        let watch = args.iter().any(|a| a == "--watch");
        let path = std::path::PathBuf::from(file);
        match scenario_cli::run_file(&path, watch) {
            Ok(outcomes) => {
                let title = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.display().to_string());
                scenario_cli::summary_table(&title, &outcomes).print();
                let faults = scenario_cli::fault_table(&outcomes);
                if !faults.is_empty() {
                    faults.print();
                }
                let probes = scenario_cli::probe_table(&outcomes);
                if !probes.is_empty() {
                    probes.print();
                }
                let slos = scenario_cli::slo_table(&outcomes);
                if !slos.is_empty() {
                    slos.print();
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let csv_dir: Option<std::path::PathBuf> = args.iter().position(|a| a == "--csv").map(|i| {
        let dir = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "experiment_csv".into());
        args.drain(i..=(i + 1).min(args.len() - 1));
        std::path::PathBuf::from(dir)
    });
    let json_dir: Option<std::path::PathBuf> = args.iter().position(|a| a == "--json").map(|i| {
        let dir = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "experiment_json".into());
        args.drain(i..=(i + 1).min(args.len() - 1));
        std::path::PathBuf::from(dir)
    });
    let emit = |table: &Table, slug: &str| {
        table.print();
        if let Some(dir) = &csv_dir {
            table.write_csv(dir, slug).expect("write csv");
        }
        if let Some(dir) = &json_dir {
            table.write_json(dir, slug).expect("write json");
        }
    };
    let want = |k: &str| args.is_empty() || args.iter().any(|a| a == k || a == "all");

    if want("e1") {
        eprintln!("[e1] ACO vs FFD vs optimal …");
        emit(
            &e1_aco_vs_ffd_vs_optimal::render(&e1_aco_vs_ffd_vs_optimal::default_rows()),
            "e1",
        );
    }
    if want("e2") {
        eprintln!("[e2] scaling …");
        emit(&e2_scaling::render(&e2_scaling::default_rows()), "e2");
    }
    if want("e3") {
        eprintln!("[e3] parallel ants …");
        emit(&e3_parallel::render(&e3_parallel::default_rows()), "e3");
    }
    if want("e4") {
        eprintln!("[e4] submission scalability (144 LCs, up to 500 VMs) …");
        emit(
            &e4_submission_scalability::render(&e4_submission_scalability::default_rows()),
            "e4",
        );
    }
    if want("e5") {
        eprintln!("[e5] distributed-management overhead …");
        emit(
            &e5_distribution_overhead::render(&e5_distribution_overhead::default_rows()),
            "e5",
        );
    }
    if want("e6") {
        eprintln!("[e6] fault tolerance …");
        emit(
            &e6_fault_tolerance::render(&e6_fault_tolerance::default_report()),
            "e6",
        );
    }
    if want("e7") {
        eprintln!("[e7] energy savings …");
        emit(
            &e7_energy_savings::render(&e7_energy_savings::default_rows()),
            "e7",
        );
    }
    if want("e7") {
        eprintln!("[e7b] idle-threshold sweep …");
        emit(
            &e7_energy_savings::render_thresholds(&e7_energy_savings::default_threshold_rows()),
            "e7b",
        );
    }
    if want("e8") {
        eprintln!("[e8] ablations …");
        emit(
            &e8_ablations::render_aco(&e8_ablations::default_aco_rows()),
            "e8a",
        );
        emit(
            &e8_ablations::render_ffd(&e8_ablations::default_ffd_rows()),
            "e8b",
        );
    }
    if want("e9") {
        eprintln!("[e9] failover sensitivity …");
        emit(
            &e9_failover_sensitivity::render(&e9_failover_sensitivity::default_rows()),
            "e9",
        );
    }
    if want("e10") {
        eprintln!("[e10] distributed consolidation …");
        emit(
            &e10_distributed_consolidation::render_offline(
                &e10_distributed_consolidation::default_offline_rows(),
            ),
            "e10a",
        );
        emit(
            &e10_distributed_consolidation::render_system(
                &e10_distributed_consolidation::default_system_rows(),
            ),
            "e10b",
        );
    }
    // E11, E12 and E14 are explicit-only: their kilonode-scale runs are
    // deliberately heavy, so neither bare `run_experiments` nor `all`
    // includes them.
    if args.iter().any(|a| a == "e11") {
        eprintln!("[e11] kilonode scale (1024 LCs, 5000 VMs) …");
        emit(&e11_kilonode::render(&e11_kilonode::default_rows()), "e11");
    }
    if args.iter().any(|a| a == "e12") {
        eprintln!(
            "[e12] trace-driven consolidation (1000 LCs, full reference trace, ACO vs FFD) …"
        );
        emit(&e12_trace::render(&e12_trace::default_rows()), "e12_trace");
    }
    if args.iter().any(|a| a == "e14") {
        eprintln!("[e14] consolidation arena (1000 LCs, algorithm x power-model sweep) …");
        emit(&e14_arena::render(&e14_arena::default_rows()), "e14_arena");
    }
}
