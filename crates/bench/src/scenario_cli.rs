//! CLI-side scenario plumbing for `run_experiments`: load scenario
//! documents from disk, run every expanded variant through the generic
//! runner, render the fault/probe/SLO detail tables, and gate the
//! checked-in `scenarios/*.toml` files (`--check-scenarios`).

use std::path::{Path, PathBuf};

use snooze_scenario::compile;
use snooze_scenario::incident::{is_incident, IncidentDoc};
use snooze_scenario::mc_trace::McTraceDoc;
use snooze_scenario::spec::ScenarioDoc;

use crate::experiments::{
    col, run_specs, secs, tabulate, Column, Finished, RowsOf, FAULT_AT, FAULT_VMS_AFTER, PER_FAULT,
    SCENARIO,
};
use crate::table::{f2, Table};

/// True when the document is a model-checking counterexample trace
/// rather than a runnable scenario. Trace docs always carry a
/// top-level `harness` key, which `ScenarioSpec` does not know.
fn is_mc_trace(text: &str) -> bool {
    text.lines().any(|l| l.starts_with("harness = "))
}

/// Run every run of a scenario file, in document order, through the
/// generic runner ([`crate::experiments::run_specs`]). Read, parse and
/// expansion errors name the file.
pub fn run_file(path: &Path, watch: bool) -> Result<Vec<Finished>, String> {
    let at = |e: String| format!("{}: {e}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| at(e.to_string()))?;
    let doc = ScenarioDoc::parse(&text).map_err(at)?;
    run_specs(&doc.expand().map_err(at)?, watch)
}

/// A per-run detail table `--scenario` and `report` print beside the
/// summary when it has rows: title, rows per run, columns.
pub type Detail = (&'static str, RowsOf, &'static [Column]);

/// Fault outcomes of every run that injected any.
pub const FAULTS: Detail = (
    "fault outcomes",
    PER_FAULT,
    &[
        SCENARIO,
        col("fault", |c| c.fault().label.clone()),
        FAULT_AT,
        col("perf after", |c| match c.fault().perf_after {
            perf if perf.is_nan() => "-".into(),
            perf => f2(perf),
        }),
        FAULT_VMS_AFTER,
        col("recovery s", |c| match c.fault().recovery_s {
            s if s.is_nan() => "never".into(),
            s => f2(s),
        }),
    ],
);

/// Probe samples of every run that declared any.
pub const PROBES: Detail = (
    "probe samples",
    |o| o.probes.len(),
    &[
        SCENARIO,
        col("probe", |c| c.o().probes[c.sub].name.clone()),
        col("at s", |c| secs(c.o().probes[c.sub].at)),
        col("placed", |c| c.o().probes[c.sub].placed.to_string()),
        col("VMs", |c| c.o().probes[c.sub].total_vms.to_string()),
        col("nodes on", |c| c.o().probes[c.sub].nodes_on.to_string()),
        col("messages", |c| c.o().probes[c.sub].messages.to_string()),
    ],
);

/// SLO watchdog breaches of every run that raised any.
pub const SLO_ALERTS: Detail = (
    "slo alerts",
    |o| o.slo_alerts.len(),
    &[
        SCENARIO,
        col("slo", |c| c.o().slo_alerts[c.sub].name.clone()),
        col("signal", |c| c.o().slo_alerts[c.sub].signal.as_str().into()),
        col("window", |c| c.o().slo_alerts[c.sub].window.to_string()),
        col("at s", |c| secs(c.o().slo_alerts[c.sub].at)),
        col("value", |c| f2(c.o().slo_alerts[c.sub].value)),
        col("max", |c| f2(c.o().slo_alerts[c.sub].max)),
    ],
);

/// Print the detail tables that have rows.
pub fn print_details(details: &[Detail], runs: &[Finished]) {
    for (title, rows, columns) in details {
        let table = tabulate(title, columns, *rows, runs);
        if !table.is_empty() {
            table.print();
        }
    }
}

/// Every `*.toml` under `dir`, sorted by file name.
fn scenario_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    Ok(files)
}

/// One file of a scenario directory: a runnable scenario, a `snooze-mc`
/// counterexample trace, or an incident dump.
enum Doc {
    Scenario(ScenarioDoc),
    McTrace(McTraceDoc),
    Incident(IncidentDoc),
}

impl Doc {
    /// Read `path` and parse it as whichever kind it is.
    fn read(path: &Path) -> Result<(String, Doc), String> {
        let at = |e: String| format!("{}: {e}", path.display());
        let text = std::fs::read_to_string(path).map_err(|e| at(e.to_string()))?;
        let doc = if is_mc_trace(&text) {
            Doc::McTrace(McTraceDoc::from_toml(&text).map_err(at)?)
        } else if is_incident(&text) {
            Doc::Incident(IncidentDoc::from_toml(&text).map_err(at)?)
        } else {
            Doc::Scenario(ScenarioDoc::parse(&text).map_err(at)?)
        };
        Ok((text, doc))
    }

    fn to_toml(&self) -> String {
        match self {
            Doc::Scenario(doc) => doc.to_toml(),
            Doc::McTrace(doc) => doc.to_toml(),
            Doc::Incident(doc) => doc.to_toml(),
        }
    }

    /// What the file is, for the inventory and the check report.
    fn describe(&self) -> String {
        match self {
            Doc::Scenario(doc) => doc.description().unwrap_or("-").to_string(),
            Doc::McTrace(doc) => format!("mc counterexample ({} steps)", doc.steps.len()),
            Doc::Incident(doc) => format!(
                "incident dump (trigger `{}`, {} event(s))",
                doc.trigger,
                doc.events.len()
            ),
        }
    }
}

/// The `--list-scenarios` table: one row per checked-in file.
pub fn list_table(dir: &Path) -> Result<Table, String> {
    let mut t = Table::new(
        format!("scenarios in {}", dir.display()),
        &["file", "name", "runs", "description"],
    );
    for path in scenario_files(dir)? {
        let (_, doc) = Doc::read(&path)?;
        let at = |e| format!("{}: {e}", path.display());
        let (name, runs) = match &doc {
            Doc::Scenario(doc) => (
                doc.name().unwrap_or("-"),
                doc.run_count().map_err(at)?.to_string(),
            ),
            Doc::McTrace(doc) => (doc.name.as_str(), "-".to_string()),
            Doc::Incident(doc) => (doc.name.as_str(), "-".to_string()),
        };
        let file = path.file_name().unwrap_or_default().to_string_lossy();
        t.row(vec![
            file.into_owned(),
            name.to_string(),
            runs,
            doc.describe(),
        ]);
    }
    Ok(t)
}

/// The `--check-scenarios` gate: every file under `dir` must parse and
/// round-trip canonically; scenarios must also expand and dry-run compile
/// (deployment + workload + fault schedule built, no simulation), at
/// their own shape and at every `[override.*]` profile — mc traces
/// (`snooze-mc --replay` is their executable form) and incident dumps
/// (evidence, not programs) have nothing to compile.
pub fn check_dir(dir: &Path) -> Result<Vec<String>, String> {
    let mut report = Vec::new();
    for path in scenario_files(dir)? {
        let (text, doc) = Doc::read(&path)?;
        if doc.to_toml() != text {
            let fix = match doc {
                Doc::Scenario(_) => "rewrite with --fmt-scenarios",
                Doc::McTrace(_) => "re-emit with snooze-mc --emit",
                Doc::Incident(_) => "incident dumps are written canonically",
            };
            return Err(format!("{}: not in canonical form ({fix})", path.display()));
        }
        let Doc::Scenario(scenario) = &doc else {
            report.push(format!(
                "{}: {} parses canonically",
                path.display(),
                doc.describe()
            ));
            continue;
        };
        let mut line = format!("{}:", path.display());
        let profiles = scenario.profiles().into_iter().map(Some);
        for profile in std::iter::once(None).chain(profiles) {
            let label = profile.map_or(String::new(), |p| format!(" [override.{p}]"));
            let at = |e: String| format!("{}{label}: {e}", path.display());
            let shaped = profile.map_or_else(|| Ok(scenario.clone()), |p| scenario.profile(p));
            let specs = shaped.and_then(|doc| doc.expand()).map_err(at)?;
            for spec in &specs {
                compile(spec).map_err(|e| at(format!("{}: {e}", spec.name)))?;
            }
            line += &format!("{label} {} run(s) compile,", specs.len());
        }
        report.push(line.trim_end_matches(',').to_string());
    }
    Ok(report)
}

/// The `--fmt-scenarios` writer: rewrite every file under `dir` into
/// canonical form (idempotent; hand-authored scenarios pass the
/// `--check-scenarios` canonical-form gate after this).
pub fn fmt_dir(dir: &Path) -> Result<Vec<String>, String> {
    let mut rewritten = Vec::new();
    for path in scenario_files(dir)? {
        let (text, doc) = Doc::read(&path)?;
        if doc.to_toml() != text {
            std::fs::write(&path, doc.to_toml()).map_err(|e| format!("{}: {e}", path.display()))?;
            rewritten.push(path.display().to_string());
        }
    }
    Ok(rewritten)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{PER_RUN, SUMMARY};

    #[test]
    fn a_bad_generated_run_is_reported_with_its_file_and_run() {
        // E5's four swept runs decode; a fifth, by hand, never advances.
        let bad = "[[variant]]\nname = \"stuck\"\n[[variant.phase]]\nkind = \"sample_to\"\n\
                   every_ms = 0.0\nt_ms = 1.0\n";
        let text = format!("{}\n{bad}", include_str!("../../../scenarios/e5.toml"));
        let dir = std::env::temp_dir().join(format!("snooze-bad-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e5_stuck.toml");
        std::fs::write(&path, ScenarioDoc::parse(&text).unwrap().to_toml()).unwrap();
        let errors = [run_file(&path, false).err(), check_dir(&dir).err()];
        std::fs::remove_dir_all(&dir).unwrap();
        for err in errors.map(|e| e.expect("a stuck run is an error")) {
            let named = "e5_stuck.toml: run 4 (`stuck`): `every_ms` in phase must be";
            assert!(err.contains(named), "{err}");
        }
    }

    #[test]
    fn outcome_tables_render_fault_and_probe_rows() {
        let spec = crate::report::report_failover(7);
        let done = run_specs(&[spec], false).expect("compiles");
        let s = tabulate("report", SUMMARY, PER_RUN, &done).render();
        assert!(s.contains("report-failover"));
        let (title, rows, columns) = FAULTS;
        let f = tabulate(title, columns, rows, &done).render();
        assert!(f.contains("GM crash"));
        assert!(
            f.contains("never"),
            "no-observe faults render a '-'/'never' pair"
        );
    }
}
