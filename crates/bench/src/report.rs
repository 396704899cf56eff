//! The telemetry report: a full-stack observability scenario plus the
//! breakdown tables the `report` binary prints.
//!
//! The scenario is E4-shaped: one GL, four GMs, 32 LCs, a burst of 100
//! VMs, and one GM crash mid-burst. Every client submission becomes a
//! causal span tree (client.submit → ep.forward → gl.dispatch →
//! gm.place → lc.boot); the tables decompose placement latency by hop,
//! list the failover timeline, and profile the ACO consolidator's
//! phases. [`export_all`] writes the standard-format exports (Chrome
//! trace-event JSON, Prometheus text exposition, JSONL dumps) — all
//! byte-identical across two same-seed runs.

use snooze_consolidation::{AcoConsolidator, AcoParams, InstanceGenerator};
use snooze_simcore::metrics::Histogram;
use snooze_simcore::prelude::*;
use snooze_simcore::telemetry::{self, SpanId, SpanLog, SpanRecord};

use crate::table::{f2, Table};

use snooze_scenario::spec::ScenarioDoc;
pub use snooze_scenario::{LiveSystem, ScenarioRun, ScenarioSpec};

/// The telemetry-report acceptance scenario, `scenarios/report.toml`
/// (compiled in), with its seed set: an E4-shaped burst with one GM
/// crash while placements are in flight.
pub fn report_failover(seed: u64) -> ScenarioSpec {
    let doc = ScenarioDoc::parse(include_str!("../../../scenarios/report.toml"));
    let runs = doc.and_then(|d| d.patch(&format!("seed = {seed}"))?.expand());
    runs.unwrap_or_else(|e| panic!("scenarios/report.toml: {e}"))
        .remove(0)
}

/// The first crashed component of a finished run, if any.
pub fn crashed_component(run: &ScenarioRun) -> Option<ComponentId> {
    run.outcome.faults.first().map(|f| f.target)
}

/// Continuous-observability headline for a finished run: windows,
/// alerts, incidents, profiled events.
pub fn obs_summary(run: &mut ScenarioRun) -> Table {
    let mut t = Table::new("continuous observability", &["metric", "value"]);
    t.row(vec![
        "windows closed".into(),
        run.outcome.windows.to_string(),
    ]);
    t.row(vec![
        "window rows".into(),
        run.windows
            .as_ref()
            .map(|w| w.len())
            .unwrap_or(0)
            .to_string(),
    ]);
    t.row(vec![
        "slo alerts".into(),
        run.outcome.slo_alerts.len().to_string(),
    ]);
    t.row(vec![
        "incident dumps".into(),
        run.incidents.len().to_string(),
    ]);
    t.row(vec![
        "profiled events".into(),
        run.live
            .sim
            .profile_rows()
            .iter()
            .map(|r| r.events)
            .sum::<u64>()
            .to_string(),
    ]);
    t
}

/// Write the continuous-observability exports into `dir`:
///
/// * `windows.jsonl` / `windows.csv` — the windowed time-series
/// * `profile.folded` — folded-stack profile (event counts; feed into
///   `inferno` / `flamegraph.pl`)
/// * `incident_<n>.toml` — one canonical dump per captured incident
///
/// All deterministic: byte-identical across same-seed runs.
pub fn export_obs(run: &mut ScenarioRun, dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    if let Some(log) = &run.windows {
        std::fs::write(dir.join("windows.jsonl"), log.to_jsonl())?;
        std::fs::write(dir.join("windows.csv"), log.to_csv())?;
    }
    std::fs::write(dir.join("profile.folded"), run.live.sim.profile_folded())?;
    for (i, incident) in run.incidents.iter().enumerate() {
        std::fs::write(dir.join(format!("incident_{i}.toml")), incident.to_toml())?;
    }
    Ok(())
}

/// Track-naming function for the Chrome exporter: component name + id.
pub fn track_name<C: Component>(sim: &Engine<C>) -> impl Fn(u64) -> String + '_ {
    |t| format!("{} #{t}", sim.name_of(ComponentId(t as usize)))
}

/// Write every standard-format export into `dir`:
///
/// * `trace.chrome.json` — Chrome trace-event JSON (load in Perfetto / `chrome://tracing`)
/// * `spans.jsonl` — one JSON object per span
/// * `metrics.prom` — Prometheus text exposition
/// * `metrics.jsonl` — one JSON object per metric
///
/// All four are deterministic: byte-identical across same-seed runs.
pub fn export_all<C: Component>(sim: &Engine<C>, dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("trace.chrome.json"),
        telemetry::chrome::render(sim.spans(), &track_name(sim)),
    )?;
    std::fs::write(
        dir.join("spans.jsonl"),
        telemetry::jsonl::render(sim.spans()),
    )?;
    std::fs::write(dir.join("metrics.prom"), sim.metrics().to_prometheus())?;
    std::fs::write(dir.join("metrics.jsonl"), sim.metrics().to_jsonl())
}

/// Depth-first search for the first descendant of `root` named `name`.
pub fn find_descendant<'a>(log: &'a SpanLog, root: SpanId, name: &str) -> Option<&'a SpanRecord> {
    let mut stack: Vec<SpanId> = log.children_of(root).map(|s| s.id).collect();
    while let Some(id) = stack.pop() {
        let rec = log.get(id)?;
        if rec.name == name {
            return Some(rec);
        }
        stack.extend(log.children_of(id).map(|s| s.id));
    }
    None
}

/// The hop chain a placement travels, inner to outer.
pub const HOPS: [&str; 4] = ["ep.forward", "gl.dispatch", "gm.place", "lc.boot"];

/// Submission-latency decomposition: for every *placed* submission span
/// tree, the per-hop span durations plus the end-to-end latency.
pub fn hop_decomposition(log: &SpanLog) -> Table {
    let mut hists: Vec<(&str, Histogram)> =
        std::iter::once(("client.submit (end-to-end)", Histogram::default()))
            .chain(HOPS.iter().map(|&h| (h, Histogram::default())))
            .collect();
    for root in log.roots().filter(|s| s.name == "client.submit") {
        if root.label("outcome") != Some("placed") {
            continue;
        }
        if let Some(d) = root.duration_us() {
            hists[0].1.record(d as f64 / 1e6);
        }
        for (i, &hop) in HOPS.iter().enumerate() {
            if let Some(d) = find_descendant(log, root.id, hop).and_then(|s| s.duration_us()) {
                hists[i + 1].1.record(d as f64 / 1e6);
            }
        }
    }
    let mut t = Table::new(
        "submission latency by hop (seconds)",
        &["hop", "count", "mean", "p50", "p95", "max"],
    );
    for (name, h) in &hists {
        let s = h.summary();
        t.row(vec![
            name.to_string(),
            s.count.to_string(),
            f2(s.mean),
            f2(s.p50),
            f2(s.p95),
            f2(s.max),
        ]);
    }
    t
}

/// Failure/recovery events in time order: detected failures, leader
/// promotions, and the election campaigns they triggered.
pub fn failover_timeline<C: Component>(sim: &Engine<C>) -> Table {
    const EVENTS: [&str; 4] = [
        "gl.gm-failover",
        "gm.lc-failover",
        "gl.promoted",
        "election.campaign",
    ];
    let mut t = Table::new(
        "failover timeline",
        &["t (s)", "component", "event", "detail"],
    );
    let names = track_name(sim);
    for span in sim.spans().iter() {
        if !EVENTS.contains(&span.name) {
            continue;
        }
        let detail = span
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(vec![
            f2(span.start_us as f64 / 1e6),
            names(span.track),
            span.name.to_string(),
            detail,
        ]);
    }
    t
}

/// ACO phase profile on a representative GRID'11 instance, via the
/// profiling hooks in `aco.rs`. Work units are deterministic; the
/// wall-clock milliseconds are advisory (host-dependent) and marked so.
pub fn aco_phase_table(n_items: usize, seed: u64) -> Table {
    let inst = InstanceGenerator::grid11().generate(n_items, &mut SimRng::new(seed));
    let run = AcoConsolidator::new(AcoParams::default()).run(&inst);
    let p = run.profile;
    let total_work =
        (p.construction_steps + p.evaluation_comparisons + p.evaporation_updates).max(1) as f64;
    let mut t = Table::new(
        format!(
            "ACO phase profile ({n_items} VMs, {} cycles, best {} bins)",
            p.cycles,
            run.solution.as_ref().map(|s| s.bins_used()).unwrap_or(0)
        ),
        &["phase", "work units", "share", "wall ms (advisory)"],
    );
    let rows: [(&str, u64, u64); 3] = [
        ("construction", p.construction_steps, p.construction_nanos),
        ("evaluation", p.evaluation_comparisons, p.evaluation_nanos),
        ("evaporation", p.evaporation_updates, p.evaporation_nanos),
    ];
    for (phase, work, nanos) in rows {
        t.row(vec![
            phase.to_string(),
            work.to_string(),
            format!("{:.1}%", work as f64 / total_work * 100.0),
            f2(nanos as f64 / 1e6),
        ]);
    }
    t
}

/// Scenario headline: what happened, and the determinism fingerprints.
pub fn scenario_summary(live: &LiveSystem, crashed: Option<ComponentId>) -> Table {
    let mut t = Table::new("scenario summary", &["metric", "value"]);
    let client = live.client();
    t.row(vec!["vms placed".into(), client.placed.len().to_string()]);
    t.row(vec![
        "vms rejected".into(),
        client.rejected.len().to_string(),
    ]);
    t.row(vec![
        "vms abandoned".into(),
        client.abandoned.len().to_string(),
    ]);
    t.row(vec![
        "crashed gm".into(),
        crashed
            .map(|c| format!("{c:?}"))
            .unwrap_or_else(|| "-".into()),
    ]);
    t.row(vec![
        "spans recorded".into(),
        live.sim.spans().len().to_string(),
    ]);
    t.row(vec![
        "span digest".into(),
        format!("{:016x}", live.sim.span_digest()),
    ]);
    t.row(vec![
        "event digest".into(),
        format!("{:016x}", live.sim.digest()),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_decomposition_reads_span_trees() {
        let mut log = SpanLog::default();
        let root = log.open("client.submit", 0, None, 0);
        log.label(root, "outcome", "placed");
        let hop = log.open("ep.forward", 1, Some(root), 100);
        log.close(hop, 150);
        let dispatch = log.open("gl.dispatch", 2, Some(hop), 200);
        log.close(dispatch, 1_200_000);
        log.close(root, 2_000_000);
        let t = hop_decomposition(&log);
        let rendered = t.render();
        assert!(rendered.contains("client.submit"));
        assert!(rendered.contains("gl.dispatch"));
        // 1 sample for the hops present, 0 for the missing ones.
        assert!(t.len() == 1 + HOPS.len());
    }

    #[test]
    fn aco_phase_table_shows_three_phases() {
        let t = aco_phase_table(20, 7);
        let s = t.render();
        assert!(s.contains("construction"));
        assert!(s.contains("evaluation"));
        assert!(s.contains("evaporation"));
    }
}
