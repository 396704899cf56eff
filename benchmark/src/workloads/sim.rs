//! The three whole-system workloads: `kilonode_failover`,
//! `trace_replay` and `dense_reconfig`. Each is a scenario document
//! under `workloads/`, seeded from `--seed` and run through
//! `snooze_scenario::run` exactly as `run_experiments` would run it.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use snooze_scenario::spec::ScenarioSpec;
use snooze_scenario::toml::{self, Value};
use snooze_scenario::ScenarioRun;

use super::{replay_trace, source, Harness, Outcome, Variant};
use crate::checks;
use crate::metrics::SNOOZE_KINDS;
use crate::spans::Recorder;

type Table = BTreeMap<String, Value>;

/// What set-up hands to the body.
struct Prepared {
    spec: ScenarioSpec,
    compile_ms: f64,
}

/// Point every seeded input of the document at `seed`: the scenario
/// seed, a random fleet's own stream, and (for trace workloads) the
/// seed's arrangement of the replay trace, written next to the other
/// outputs.
fn seed_document(
    rec: &mut Recorder,
    root: &mut Table,
    seed: u64,
    trace_path: &Path,
) -> Result<(), String> {
    root.insert("seed".into(), Value::Int(seed as i64));
    let Some(Value::TableArray(workloads)) = root.get_mut("workload") else {
        return Err("workload document has no `[[workload]]`".into());
    };
    for w in workloads {
        match w.get("kind").and_then(Value::as_str) {
            Some("random_fleet") => {
                w.insert("seed".into(), Value::Int(seed as i64));
            }
            Some("trace") => {
                let records = rec.span("trace.generate", |_| replay_trace(seed))?;
                rec.span("trace.csv_write", |_| {
                    std::fs::write(trace_path, snooze_trace::csv::to_string(&records))
                })
                .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
                // Read the file back before the run depends on it.
                let loaded = rec
                    .span("trace.load", |_| snooze_trace::load_path(trace_path))
                    .map_err(|e| format!("{}: {e}", trace_path.display()))?;
                if loaded != records {
                    return Err(format!(
                        "{}: read back differs from what was generated",
                        trace_path.display()
                    ));
                }
                w.insert(
                    "path".into(),
                    Value::Str(trace_path.to_string_lossy().into_owned()),
                );
            }
            _ => {}
        }
    }
    Ok(())
}

/// An `[obs]` table that turns the engine profiler on and nothing else:
/// one window as long as any run, the smallest flight ring.
fn profiler_only_obs() -> Value {
    let mut t = Table::new();
    t.insert("profile".into(), Value::Bool(true));
    t.insert("ring".into(), Value::Int(1));
    t.insert("window_ms".into(), Value::Float(1e12));
    Value::Table(t)
}

fn prepare(
    rec: &mut Recorder,
    workload: &str,
    seed: u64,
    variant: Variant,
    out: &Path,
) -> Result<Prepared, String> {
    let mut root = rec
        .span("scenario.parse", |_| toml::parse(source(workload)))
        .map_err(|e| format!("workloads/{workload}.toml: {e}"))?;
    let trace_path = out.join(format!("{workload}.seed{seed}.trace.csv"));
    seed_document(rec, &mut root, seed, &trace_path)?;
    match variant {
        Variant::Plain => {}
        Variant::Traced => {
            root.entry("obs".into()).or_insert_with(profiler_only_obs);
        }
        Variant::ObsStripped => {
            root.remove("obs");
            root.remove("slo");
        }
    }
    let spec = rec.span("scenario.spec", |_| ScenarioSpec::from_value(&root))?;
    // Dry-run compile: validates the document (and loads the trace)
    // before the timed body, which compiles again inside `run`.
    let start = Instant::now();
    rec.span("scenario.compile", |_| {
        snooze_scenario::compile(&spec).map(drop)
    })?;
    let compile_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(Prepared { spec, compile_ms })
}

/// Per-kind event counts and handler-time shares from the engine
/// profiler, plus the share of events on the periodic heartbeat path.
fn profile_metrics(run: &mut ScenarioRun, out: &mut Outcome) {
    let rows = run.live.sim.profile_rows();
    if rows.is_empty() {
        return;
    }
    let mut events: BTreeMap<&str, u64> = BTreeMap::new();
    let mut nanos: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut total_events, mut total_nanos, mut heartbeat) = (0u64, 0u64, 0u64);
    for r in &rows {
        let kind = SNOOZE_KINDS
            .iter()
            .copied()
            .find(|k| *k == r.kind)
            .unwrap_or("other");
        *events.entry(kind).or_insert(0) += r.events;
        *nanos.entry(kind).or_insert(0) += r.wall_nanos;
        total_events += r.events;
        total_nanos += r.wall_nanos;
        let periodic = (r.kind == "lc" && r.variant == "timer")
            || r.variant == "LcMonitoring"
            || r.variant == "GmLcHeartbeat";
        if periodic {
            heartbeat += r.events;
        }
    }
    for kind in SNOOZE_KINDS.iter().copied().chain(["other"]) {
        let n = events.get(kind).copied().unwrap_or(0);
        out.count(&format!("snooze.{kind}.events"), n);
        // Wall nanos are sampled and advisory; the counts are exact.
        let share = nanos.get(kind).copied().unwrap_or(0) as f64 / total_nanos.max(1) as f64;
        out.value(format!("snooze.{kind}.handler_share"), share);
    }
    out.exact_value(
        "simcore.heartbeat_event_share",
        heartbeat as f64 / total_events.max(1) as f64,
    );
}

pub fn iteration(h: &mut Harness) -> Result<Outcome, String> {
    let (workload, seed, variant, dir) = (h.workload, h.seed, h.variant, h.out.clone());
    let prepared = h.timed_setup(|rec| prepare(rec, workload, seed, variant, &dir))?;
    let mut run =
        h.timed_body(|rec| rec.span("scenario.run", |_| snooze_scenario::run(&prepared.spec)))?;

    let mut out = Outcome::default();
    let o = run.outcome.clone();
    out.attempted = o.requested_vms as u64;
    out.failed = (o.rejected + o.abandoned) as u64;
    out.check(checks::vms_conserved(
        o.placed,
        o.rejected,
        o.abandoned,
        o.requested_vms,
    ));

    out.count("simcore.events", o.sim_events);
    out.count("simcore.digest48", run.live.sim.digest() & 0xFFFF_FFFF_FFFF);
    out.count("simcore.messages_sent", o.messages);
    out.count("simcore.dead_letters", o.dead_letters);
    out.count("cluster.suspends", o.suspends);
    out.count("cluster.migrations", o.migrations);
    out.exact_value("cluster.mean_nodes_on", o.mean_nodes_on);
    out.exact_value("snooze.placement_mean_s", o.mean_latency_s);
    out.value("scenario.compile_ms", prepared.compile_ms);

    if workload == "kilonode_failover" {
        out.exact_value("sim_placement_p95_s", o.p95_latency_s);
        match o.faults.first().map(|f| f.recovery_s) {
            Some(s) if s.is_finite() => out.exact_value("sim_gl_reelect_s", s),
            _ => out
                .failures
                .push("no GL was re-elected within the observation".into()),
        }
    } else {
        // The replays inject no fault: nothing may be dropped.
        out.check(checks::no_dead_letters(o.dead_letters));
        out.exact_value("sim_energy_wh", o.energy_wh);
        if o.sla_samples == 0 {
            out.failures.push("no loaded LC-sample was observed".into());
        } else {
            let violated = o.sla_violations as f64 / o.sla_samples as f64;
            out.exact_value("sim_sla_ok_ratio", 1.0 - violated);
        }
    }

    // The observability products exist on the variants that have an
    // `[obs]` table; the stripped variant has none by construction.
    if variant != Variant::ObsStripped {
        if let Some(log) = &run.windows {
            let metrics = run.live.sim.metrics();
            for counter in ["net.sent", "net.delivered"] {
                out.check(checks::windows_conserve(
                    counter,
                    log.counter_sum(counter),
                    metrics.counter(counter),
                ));
            }
            if workload == "kilonode_failover" {
                out.count("telemetry.window_rows", log.len() as u64);
                out.count("telemetry.spans", run.live.sim.spans().len() as u64);
            }
        } else if workload == "kilonode_failover" {
            out.failures
                .push("kilonode_failover ran without its metric windows".into());
        }
    }
    if variant == Variant::Traced {
        profile_metrics(&mut run, &mut out);
    }
    Ok(out)
}
