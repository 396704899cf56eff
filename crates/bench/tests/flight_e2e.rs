//! Acceptance test for continuous observability (ISSUE 7).
//!
//! Runs the E4-style failover scenario — `scenarios/report.toml` carries
//! a 30 s metric window, a profiler, a 128-event flight ring and a
//! zero-tolerance heartbeat SLO — and checks the headline properties:
//!
//! * conservation: per-window counter deltas sum to the whole-run
//!   counter totals, for every counter in the registry;
//! * the heartbeat watchdog trips during the GM failover, producing an
//!   alert, an `slo.alert` span, and an incident dump that re-parses
//!   canonically;
//! * two same-seed runs are byte-identical in every continuous export
//!   (windows JSONL + CSV, folded-stack profile, incident TOML);
//! * observation is invisible: stripping every observer from the spec
//!   leaves the engine digest unchanged.

use std::collections::BTreeSet;

use snooze_scenario::incident::{is_incident, IncidentDoc};
use snooze_scenario::run;
use snooze_scenario::spec::{ScenarioDoc, ScenarioSpec};

/// `scenarios/report.toml` at seed 42.
fn report_failover() -> ScenarioSpec {
    let doc = ScenarioDoc::parse(include_str!("../../../scenarios/report.toml"));
    let runs = doc.and_then(|d| d.patch("seed = 42\n")?.expand());
    runs.expect("scenarios/report.toml expands").remove(0)
}

#[test]
fn window_counter_deltas_conserve_every_run_total() {
    let spec = report_failover();
    let run = run(&spec).expect("the report scenario compiles");
    let log = run.windows.as_ref().expect("report.toml enables windows");
    assert!(run.outcome.windows >= 2, "the run spans several windows");

    let names: BTreeSet<&str> = run
        .live
        .sim
        .metrics()
        .counters_iter()
        .map(|(name, _, _)| name)
        .collect();
    assert!(!names.is_empty(), "the run records counters");
    for name in names {
        let total: u64 = run
            .live
            .sim
            .metrics()
            .counters_iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, _, v)| v)
            .sum();
        assert_eq!(
            log.counter_sum(name),
            total,
            "windowed deltas of `{name}` must sum to the run total"
        );
    }
}

#[test]
fn heartbeat_watchdog_trips_and_the_incident_reparses() {
    let spec = report_failover();
    let run = run(&spec).expect("the report scenario compiles");

    // The GM crash makes the zero-tolerance heartbeat SLO breach.
    assert!(
        run.outcome
            .slo_alerts
            .iter()
            .any(|a| a.name == "heartbeat-misses"),
        "the heartbeat watchdog must trip during failover"
    );
    assert!(
        run.live.sim.spans().iter().any(|s| s.name == "slo.alert"),
        "each breach opens an slo.alert span"
    );
    let incident = run
        .incidents
        .iter()
        .find(|i| i.trigger == "slo:heartbeat-misses")
        .expect("the breach captures an incident dump");
    assert!(!incident.events.is_empty(), "the flight ring was non-empty");

    // The dump is canonical TOML, discriminated, and round-trips.
    let toml = incident.to_toml();
    assert!(is_incident(&toml));
    let reparsed = IncidentDoc::from_toml(&toml).expect("incident dump re-parses");
    assert_eq!(reparsed.to_toml(), toml, "canonical form");
    assert_eq!(reparsed.trigger, "slo:heartbeat-misses");
}

#[test]
fn continuous_exports_are_byte_identical_across_same_seed_runs() {
    let spec = report_failover();
    let mut a = run(&spec).expect("the report scenario compiles");
    let mut b = run(&spec).expect("the report scenario compiles");

    let log_a = a.windows.take().expect("windows enabled");
    let log_b = b.windows.take().expect("windows enabled");
    assert_eq!(log_a.to_jsonl(), log_b.to_jsonl(), "windows JSONL differs");
    assert_eq!(log_a.to_csv(), log_b.to_csv(), "windows CSV differs");
    assert!(!log_a.is_empty());

    assert_eq!(
        a.live.sim.profile_folded(),
        b.live.sim.profile_folded(),
        "folded-stack profile differs"
    );
    assert!(a.live.sim.profile_folded().contains(';'));

    assert_eq!(a.incidents.len(), b.incidents.len());
    assert!(!a.incidents.is_empty(), "the failover captures incidents");
    for (ia, ib) in a.incidents.iter().zip(&b.incidents) {
        assert_eq!(ia.to_toml(), ib.to_toml(), "incident dump differs");
    }
}

#[test]
fn stripping_every_observer_leaves_the_digest_unchanged() {
    let spec = report_failover();
    let observed = run(&spec).expect("the report scenario compiles");

    let mut plain_spec = spec.clone();
    plain_spec.obs = None;
    plain_spec.slos.clear();
    let plain = run(&plain_spec).expect("the report scenario compiles");

    assert_eq!(
        observed.live.sim.digest(),
        plain.live.sim.digest(),
        "windows/profiler/flight/SLOs must not perturb the event stream"
    );
    // Alert spans are *additional* telemetry (the span digest may grow);
    // the plain run must simply have none of them.
    assert!(!plain.live.sim.spans().iter().any(|s| s.name == "slo.alert"));
    assert!(plain.windows.is_none() && plain.incidents.is_empty());
}
