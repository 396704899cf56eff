//! Regenerate the paper's evaluation tables.
//!
//! ```text
//! run_experiments [--csv <dir>] [--json <dir>] [e1|e2|...|e10|e11|e12|e14|all]...
//! run_experiments --smoke [--json <dir>]
//! run_experiments --scenario <file.toml> [--watch] [--json <dir>]
//! run_experiments --list-scenarios [dir]
//! run_experiments --check-scenarios [dir]
//! run_experiments --fmt-scenarios [dir]
//! ```
//!
//! The experiments are the rows of [`EXPERIMENTS`]; each prints the table
//! documented in DESIGN.md's per-experiment index (EXPERIMENTS.md records
//! paper-vs-measured). With no experiment arguments, or `all`, every row
//! runs *except* the explicit-only ones (E11, E12, E14: kilonode-scale and
//! deliberately heavy), which run only when named.
//!
//! `--csv <dir>` / `--json <dir>` write one `<slug>.csv` / `<slug>.json`
//! per table (`e1.json`, `e7b.json`, …), cells verbatim as printed;
//! [`Table::to_json`] documents the schema.
//!
//! `--smoke` runs the observability-overhead gate ([`smoke::run_obs`]) and
//! exits non-zero if it fails; with `--json <dir>` it also writes its
//! artifacts (windows, folded profile, forced incident dump,
//! `e11_obs.json`) there. `scripts/check.sh --smoke` runs it.
//!
//! The scenario flags drive the declarative layer (`snooze-scenario`):
//! `--scenario` runs every run of one TOML file (its `[[sweep]]`, then
//! its `[[variant]]`s) through the same generic runner and prints the
//! summary plus every detail table that has rows (run record, faults,
//! probes, SLO alerts, latency by hop, failover timeline); with
//! `--json <dir>` it writes each table as `<dir>/<stem>[.<detail>].json`
//! and each run's exports (Chrome trace, span and metric dumps, windows,
//! folded profile, incident dumps) under `<dir>/<run name>/`, all but the
//! summary's wall columns byte-identical across two runs of the same
//! file. The seed is the document's: another seed is an edited file or a
//! `[[sweep]] seed = [...]`. `--list-scenarios` inventories a
//! directory (default `scenarios/`); `--check-scenarios` is the CI gate
//! (parse, canonical form, dry-run compile of every run and of every
//! `[override.*]` profile); `--fmt-scenarios` rewrites every file into
//! canonical form.
//!
//! The command line is parsed once, in [`parse`]. Anything it does not
//! know, a value flag without its value, two modes at once, or names a
//! mode would ignore is an error (exit code 2), never a silent no-op.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use snooze_bench::experiments::EXPERIMENTS;
use snooze_bench::scenario_cli;
use snooze_bench::smoke;
use snooze_bench::table::Table;

/// Whether a flag takes the next argument.
#[derive(Clone, Copy, PartialEq)]
enum Value {
    None,
    /// Taken when present (the scenario directory, default `scenarios`).
    Optional,
    Required,
}

/// Accepted flags: name, value, and whether it selects a mode (at most
/// one mode per invocation).
const FLAGS: &[(&str, Value, bool)] = &[
    ("--csv", Value::Required, false),
    ("--json", Value::Required, false),
    ("--smoke", Value::None, true),
    ("--scenario", Value::Required, true),
    ("--watch", Value::None, false),
    ("--list-scenarios", Value::Optional, true),
    ("--check-scenarios", Value::Optional, true),
    ("--fmt-scenarios", Value::Optional, true),
];

/// The parsed command line.
#[derive(Default)]
struct Cli {
    csv: Option<PathBuf>,
    json: Option<PathBuf>,
    watch: bool,
    /// The mode flag and its value; `None` runs experiments.
    mode: Option<(&'static str, Option<String>)>,
    /// Positional arguments: experiment names.
    names: Vec<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            cli.names.push(arg.clone());
            continue;
        }
        let Some(&(flag, value, is_mode)) = FLAGS.iter().find(|(flag, ..)| flag == arg) else {
            let flags: Vec<&str> = FLAGS.iter().map(|(flag, ..)| *flag).collect();
            return Err(format!("unknown flag `{arg}` (valid: {})", flags.join(" ")));
        };
        let taken = match value {
            Value::None => None,
            _ => it.next_if(|next| !next.starts_with("--")).cloned(),
        };
        if value == Value::Required && taken.is_none() {
            return Err(format!("`{flag}` needs a value"));
        }
        if is_mode {
            if let Some((other, _)) = cli.mode {
                return Err(format!("`{other}` and `{flag}` cannot be combined"));
            }
            cli.mode = Some((flag, taken));
        } else {
            match flag {
                "--csv" => cli.csv = taken.map(PathBuf::from),
                "--json" => cli.json = taken.map(PathBuf::from),
                _ => cli.watch = true,
            }
        }
    }

    // What the selected mode reads; everything else would be dropped.
    let (kind, valid, modifiers): (&str, Vec<&str>, &[&str]) = match cli.mode {
        None => {
            let mut valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.cli).collect();
            valid.dedup();
            valid.push("all");
            ("experiment", valid, &["--csv", "--json"])
        }
        Some(("--smoke", _)) => ("", Vec::new(), &["--json"]),
        Some(("--scenario", _)) => ("", Vec::new(), &["--watch", "--json"]),
        Some(_) => ("", Vec::new(), &[]),
    };
    let mode = cli.mode.as_ref().map_or("running experiments", |m| m.0);
    for (flag, given) in [
        ("--csv", cli.csv.is_some()),
        ("--json", cli.json.is_some()),
        ("--watch", cli.watch),
    ] {
        if given && !modifiers.contains(&flag) {
            return Err(format!("`{flag}` does not apply to {mode}"));
        }
    }
    for name in &cli.names {
        if valid.is_empty() {
            return Err(format!("`{mode}` takes no names (got `{name}`)"));
        }
        if !valid.contains(&name.as_str()) {
            return Err(format!(
                "unknown {kind} `{name}` (valid: {})",
                valid.join(" ")
            ));
        }
    }
    Ok(cli)
}

/// Print a scenario-directory mode's report lines, or its error.
fn report(result: Result<Vec<String>, String>, prefix: &str) -> Result<(), String> {
    for line in result? {
        println!("{prefix}{line}");
    }
    Ok(())
}

fn run_scenario_file(path: &Path, cli: &Cli) -> Result<(), String> {
    let mut done = scenario_cli::run_file(path, cli.watch)?;
    let stem = path.file_stem().map_or_else(
        || path.display().to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    let tables = scenario_cli::tables(&stem, &done);
    for (_, table) in &tables {
        table.print();
    }
    if let Some(dir) = &cli.json {
        let at = |e: std::io::Error| format!("--json {}: {e}", dir.display());
        for (slug, table) in &tables {
            table.write_json(dir, slug).map_err(at)?;
        }
        for f in &mut done {
            scenario_cli::export_run(&mut f.run, &dir.join(&f.spec.name)).map_err(at)?;
        }
    }
    Ok(())
}

fn run_experiments(cli: &Cli) -> Result<(), String> {
    let emit = |table: &Table, slug: &str| -> std::io::Result<()> {
        table.print();
        if let Some(dir) = &cli.csv {
            table.write_csv(dir, slug)?;
        }
        if let Some(dir) = &cli.json {
            table.write_json(dir, slug)?;
        }
        Ok(())
    };
    let named = |name: &str| cli.names.iter().any(|n| n == name);
    for exp in EXPERIMENTS {
        let by_default = !exp.explicit_only && (cli.names.is_empty() || named("all"));
        if by_default || named(exp.cli) {
            eprintln!("[{}] …", exp.slug);
            emit(&exp.table(), exp.slug).map_err(|e| format!("{}: {e}", exp.slug))?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = |value: &Option<String>| PathBuf::from(value.as_deref().unwrap_or("scenarios"));
    let result = match &cli.mode {
        None => run_experiments(&cli),
        Some(("--smoke", _)) => smoke::run_obs(cli.json.as_deref())
            .map(|ok| println!("{ok}"))
            .map_err(|e| format!("obs smoke FAILED: {e}")),
        Some(("--scenario", file)) => {
            let file = file.as_deref().expect("parse() requires the value");
            run_scenario_file(Path::new(file), &cli)
        }
        Some(("--list-scenarios", d)) => scenario_cli::list_table(&dir(d)).map(|t| t.print()),
        Some(("--fmt-scenarios", d)) => report(scenario_cli::fmt_dir(&dir(d)), "canonicalized "),
        Some(("--check-scenarios", d)) => report(scenario_cli::check_dir(&dir(d)), "")
            .map(|()| println!("scenario check: OK"))
            .map_err(|e| format!("scenario check FAILED: {e}")),
        Some((flag, _)) => unreachable!("`{flag}` is not a mode flag"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
