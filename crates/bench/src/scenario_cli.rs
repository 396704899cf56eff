//! CLI-side scenario plumbing for `run_experiments`: load scenario
//! documents from disk, run every expanded variant through the generic
//! runner, render the per-run detail tables (run record, faults, probes,
//! SLO alerts, the submission-latency decomposition by hop and the failover
//! timeline), write every run's exports, and gate the checked-in
//! `scenarios/*.toml` files (`--check-scenarios`).

use std::path::{Path, PathBuf};

use snooze_scenario::compile;
use snooze_scenario::incident::{is_incident, IncidentDoc};
use snooze_scenario::mc_trace::McTraceDoc;
use snooze_scenario::spec::ScenarioDoc;
use snooze_scenario::ScenarioRun;
use snooze_simcore::metrics::{Histogram, HistogramSummary};
use snooze_simcore::telemetry::{self, SpanLog, SpanRecord};
use snooze_simcore::{Component, ComponentId, Engine};

use crate::experiments::{
    col, run_specs, secs, tabulate, Cell, Column, Finished, RowsOf, FAULT_AT, FAULT_VMS_AFTER,
    PER_FAULT, PER_RUN, SCENARIO, SUMMARY,
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

/// A per-run detail table `--scenario` prints beside the summary when it
/// has rows: title, rows per run, columns.
type Detail = (&'static str, RowsOf, &'static [Column]);

/// What a run recorded beyond the summary: abandoned submissions, the span
/// log and the two determinism fingerprints, the metric windows.
const RUN_RECORD: Detail = (
    "run record",
    PER_RUN,
    &[
        SCENARIO,
        col("abandoned", |c| c.o().abandoned.to_string()),
        col("spans", |c| c.this().run.live.sim.spans().len().to_string()),
        col("span digest", |c| {
            format!("{:016x}", c.this().run.live.sim.span_digest())
        }),
        col("event digest", |c| {
            format!("{:016x}", c.this().run.live.sim.digest())
        }),
        col("windows", |c| c.o().windows.to_string()),
        col("window rows", |c| {
            let windows = c.this().run.windows.as_ref();
            windows.map_or(0, |w| w.len()).to_string()
        }),
    ],
);

/// Fault outcomes of every run that injected any.
const FAULTS: Detail = (
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
const PROBES: Detail = (
    "probe samples",
    |f| f.run.outcome.probes.len(),
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
const SLO_ALERTS: Detail = (
    "slo alerts",
    |f| f.run.outcome.slo_alerts.len(),
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

/// The hop chain a placement travels, outer to inner.
const HOPS: [&str; 4] = ["ep.forward", "gl.dispatch", "gm.place", "lc.boot"];

/// Seconds spent by every *placed* submission: index 0 end to end (its
/// `client.submit` root), index `1 + h` in the last span named `HOPS[h]` of
/// its tree — a GM that refused the VM opens a `gm.place` too, before the
/// one that placed it. A span opens after its parent, so one forward pass
/// finds every root and one backward pass meets each tree's last hops
/// first.
fn hop_latency(log: &SpanLog) -> [Histogram; 1 + HOPS.len()] {
    let spans: Vec<&SpanRecord> = log.iter().collect();
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, span) in spans.iter().enumerate() {
        let parent = span.parent.and_then(|p| p.0.checked_sub(1));
        root_of.push(parent.map_or(i, |p| root_of[p as usize]));
    }
    let placed =
        |root: &SpanRecord| root.name == "client.submit" && root.label("outcome") == Some("placed");
    let mut hists: [Histogram; 1 + HOPS.len()] = Default::default();
    // Per root: which hops of its tree are recorded already.
    let mut recorded: Vec<u8> = vec![0; spans.len()];
    for (i, span) in spans.iter().enumerate().rev() {
        let root = root_of[i];
        if !placed(spans[root]) {
            continue;
        }
        let slot = match HOPS.iter().position(|&h| h == span.name) {
            _ if root == i => 0,
            Some(h) if recorded[root] & (1 << h) == 0 => {
                recorded[root] |= 1 << h;
                1 + h
            }
            _ => continue,
        };
        if let Some(us) = span.duration_us() {
            hists[slot].record(us as f64 / 1e6);
        }
    }
    hists
}

/// Row `c.sub` of the hop table: its name and latency summary.
fn hop_row(c: &Cell) -> (&'static str, HistogramSummary) {
    let name = match c.sub {
        0 => "client.submit (end-to-end)",
        h => HOPS[h - 1],
    };
    let hists = hop_latency(c.this().run.live.sim.spans());
    (name, hists[c.sub].summary())
}

/// Submission latency decomposed by hop, for every run that placed a VM.
const HOP_LATENCY: Detail = (
    "submission latency by hop (seconds)",
    |f| match f.run.outcome.placed {
        0 => 0,
        _ => 1 + HOPS.len(),
    },
    &[
        SCENARIO,
        col("hop", |c| hop_row(c).0.into()),
        col("count", |c| hop_row(c).1.count.to_string()),
        col("mean", |c| f2(hop_row(c).1.mean)),
        col("p50", |c| f2(hop_row(c).1.p50)),
        col("p95", |c| f2(hop_row(c).1.p95)),
        col("max", |c| f2(hop_row(c).1.max)),
    ],
);

/// The spans the failover timeline lists: detected failures, leader
/// promotions, and the election campaigns they triggered.
fn is_failover(span: &&SpanRecord) -> bool {
    const EVENTS: [&str; 4] = [
        "gl.gm-failover",
        "gm.lc-failover",
        "gl.promoted",
        "election.campaign",
    ];
    EVENTS.contains(&span.name)
}

/// Row `c.sub` of the failover timeline.
fn failover_span<'c>(c: &'c Cell) -> &'c SpanRecord {
    let spans = c.this().run.live.sim.spans().iter();
    spans
        .filter(is_failover)
        .nth(c.sub)
        .expect("counted by the row function")
}

/// A span track's name for the failover timeline and the Chrome exporter:
/// component name + id.
fn track_name<C: Component>(sim: &Engine<C>, track: u64) -> String {
    format!("{} #{track}", sim.name_of(ComponentId(track as usize)))
}

/// Failure and recovery events of every run, in time order.
const FAILOVER_TIMELINE: Detail = (
    "failover timeline",
    |f| f.run.live.sim.spans().iter().filter(is_failover).count(),
    &[
        SCENARIO,
        col("t (s)", |c| f2(failover_span(c).start_us as f64 / 1e6)),
        col("component", |c| {
            track_name(&c.this().run.live.sim, failover_span(c).track)
        }),
        col("event", |c| failover_span(c).name.into()),
        col("detail", |c| {
            let labels = failover_span(c).labels.iter();
            let pairs: Vec<String> = labels.map(|(k, v)| format!("{k}={v}")).collect();
            pairs.join(" ")
        }),
    ],
);

/// Every detail table, in print order.
const DETAILS: [Detail; 6] = [
    RUN_RECORD,
    FAULTS,
    PROBES,
    SLO_ALERTS,
    HOP_LATENCY,
    FAILOVER_TIMELINE,
];

/// What `--scenario` prints for the runs of the file `stem`: the summary,
/// then every detail table that has rows. Each comes with the file stem
/// `--json` writes it under: `<stem>` for the summary, `<stem>.<title>`
/// (its words joined by `_`) for a detail.
pub fn tables(stem: &str, runs: &[Finished]) -> Vec<(String, Table)> {
    let summary = tabulate(
        &format!("scenario outcomes: {stem}"),
        SUMMARY,
        PER_RUN,
        runs,
    );
    let mut tables = vec![(stem.to_string(), summary)];
    for (title, rows, columns) in DETAILS {
        let table = tabulate(title, columns, rows, runs);
        if !table.is_empty() {
            let words = title.split(|c: char| !c.is_ascii_alphanumeric());
            let words: Vec<&str> = words.filter(|w| !w.is_empty()).collect();
            tables.push((format!("{stem}.{}", words.join("_")), table));
        }
    }
    tables
}

/// Write every export of a finished run into `dir`, each byte-identical
/// across same-seed runs:
///
/// * `trace.chrome.json` — Chrome trace-event JSON (load in Perfetto or
///   `chrome://tracing`)
/// * `spans.jsonl` — one JSON object per span
/// * `metrics.prom` — Prometheus text exposition
/// * `metrics.jsonl` — one JSON object per metric
/// * `windows.jsonl` / `windows.csv` — the windowed time-series (runs
///   with `[obs] window_ms`)
/// * `profile.folded` — folded-stack event counts (feed into `inferno` /
///   `flamegraph.pl`)
/// * `incident_<n>.toml` — one canonical dump per captured incident
pub fn export_run(run: &mut ScenarioRun, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let sim = &mut run.live.sim;
    let chrome = telemetry::chrome::render(sim.spans(), &|t| track_name(sim, t));
    std::fs::write(dir.join("trace.chrome.json"), chrome)?;
    std::fs::write(
        dir.join("spans.jsonl"),
        telemetry::jsonl::render(sim.spans()),
    )?;
    std::fs::write(dir.join("metrics.prom"), sim.metrics().to_prometheus())?;
    std::fs::write(dir.join("metrics.jsonl"), sim.metrics().to_jsonl())?;
    if let Some(log) = &run.windows {
        std::fs::write(dir.join("windows.jsonl"), log.to_jsonl())?;
        std::fs::write(dir.join("windows.csv"), log.to_csv())?;
    }
    std::fs::write(dir.join("profile.folded"), sim.profile_folded())?;
    for (i, incident) in run.incidents.iter().enumerate() {
        std::fs::write(dir.join(format!("incident_{i}.toml")), incident.to_toml())?;
    }
    Ok(())
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
        let doc = ScenarioDoc::parse(include_str!("../../../scenarios/report.toml"));
        let specs = doc.and_then(|d| d.patch("seed = 7\n")?.expand()).unwrap();
        let done = run_specs(&specs, false).expect("compiles");
        let tables = tables("report", &done);
        let rendered = |slug: &str| {
            let found = tables.iter().find(|(s, _)| s == slug);
            found
                .unwrap_or_else(|| panic!("no table {slug}"))
                .1
                .render()
        };
        assert!(rendered("report").contains("report-failover"));
        let f = rendered("report.fault_outcomes");
        assert!(f.contains("GM crash"));
        assert!(
            f.contains("never"),
            "no-observe faults render a '-'/'never' pair"
        );
        assert!(rendered("report.failover_timeline").contains("gl.gm-failover"));
        let hops = rendered("report.submission_latency_by_hop_seconds");
        assert!(hops.contains("client.submit (end-to-end)"));
        assert!(!tables.iter().any(|(s, _)| s == "report.probe_samples"));
    }

    #[test]
    fn hop_latency_reads_the_last_hop_of_placed_trees() {
        let mut log = SpanLog::default();
        let root = log.open("client.submit", 0, None, 0);
        log.label(root, "outcome", "placed");
        let hop = log.open("ep.forward", 1, Some(root), 100);
        log.close(hop, 150);
        let refused = log.open("gl.dispatch", 2, Some(hop), 100_000);
        log.close(refused, 100_000);
        let dispatch = log.open("gl.dispatch", 2, Some(hop), 200_000);
        log.close(dispatch, 1_200_000);
        log.close(root, 2_000_000);
        // A rejected tree counts nowhere.
        let other = log.open("client.submit", 0, None, 0);
        log.label(other, "outcome", "rejected");
        let lost = log.open("ep.forward", 1, Some(other), 100);
        log.close(lost, 200);
        log.close(other, 300);
        let counts = hop_latency(&log).map(|h| h.summary().count);
        assert_eq!(counts, [1, 1, 1, 0, 0]);
        assert_eq!(hop_latency(&log)[2].summary().max, 1.0);
    }
}
