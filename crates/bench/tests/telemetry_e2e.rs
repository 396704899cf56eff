//! Acceptance test for the telemetry subsystem (ISSUE 2).
//!
//! Runs the full-stack E4-style scenario — 1 GL / 4 GMs / 32 LCs, a
//! burst of 100 VMs, one GM crash mid-flight — and checks that:
//!
//! * every placed submission is a causal span tree with correct parent
//!   links across EP → GL → GM → LC, and
//! * two same-seed runs produce byte-identical span and metric exports
//!   in every standard format.

use snooze_bench::scenario_cli::export_run;
use snooze_scenario::run;
use snooze_scenario::spec::{ScenarioDoc, ScenarioSpec};
use snooze_simcore::prelude::*;
use snooze_simcore::telemetry::{self, SpanLog};

/// `scenarios/report.toml` at seed 42.
fn report_failover() -> ScenarioSpec {
    let doc = ScenarioDoc::parse(include_str!("../../../scenarios/report.toml"));
    let runs = doc.and_then(|d| d.patch("seed = 42\n")?.expand());
    runs.expect("scenarios/report.toml expands").remove(0)
}

/// The root of `id`'s span tree.
fn root_of(log: &SpanLog, id: SpanId) -> SpanId {
    std::iter::successors(Some(id), |&id| log.parent_of(id))
        .last()
        .expect("starts at id")
}

/// The files [`export_run`] writes for any run of this scenario (one
/// incident dump or more besides).
const EXPORTS: [&str; 8] = [
    "trace.chrome.json",
    "spans.jsonl",
    "metrics.prom",
    "metrics.jsonl",
    "windows.jsonl",
    "windows.csv",
    "profile.folded",
    "incident_0.toml",
];

#[test]
fn e4_failover_scenario_produces_linked_span_trees_and_identical_exports() {
    let spec = report_failover();
    let mut run_a = run(&spec).expect("the report scenario compiles");
    assert!(!run_a.outcome.faults.is_empty(), "scenario must crash a GM");
    let live_a = &run_a.live;

    // --- every submission placed, each a well-linked span tree ---------
    let client = live_a.client();
    assert_eq!(client.placed.len(), 100, "all 100 VMs place");
    let log = live_a.sim.spans();
    for ack in &client.placed {
        let vm_label = ack.vm.0.to_string();
        let root = log
            .iter()
            .find(|s| s.name == "client.submit" && s.label("vm") == Some(&vm_label))
            .unwrap_or_else(|| panic!("no client.submit root for vm {vm_label}"));
        assert_eq!(root.label("outcome"), Some("placed"));
        assert!(root.parent.is_none(), "submission spans are roots");
        assert!(
            root.duration_us().is_some(),
            "placed submissions are closed"
        );

        // The boot leaf must see the full EP → GL → GM chain above it.
        let boot = log
            .iter()
            .find(|s| s.name == "lc.boot" && root_of(log, s.id) == root.id)
            .unwrap_or_else(|| panic!("vm {vm_label}: no lc.boot in tree"));
        let ancestors = std::iter::successors(log.parent_of(boot.id), |&id| log.parent_of(id));
        let ancestor_names: Vec<&str> = ancestors.map(|id| log.get(id).unwrap().name).collect();
        for hop in ["gm.place", "gl.dispatch", "ep.forward", "client.submit"] {
            assert!(
                ancestor_names.contains(&hop),
                "vm {vm_label}: lc.boot ancestors {ancestor_names:?} missing {hop}"
            );
        }
        // And in causal order: outermost last.
        let pos = |n: &str| ancestor_names.iter().position(|&a| a == n).unwrap();
        assert!(pos("gm.place") < pos("gl.dispatch"));
        assert!(pos("gl.dispatch") < pos("ep.forward"));
        assert!(pos("ep.forward") < pos("client.submit"));
        assert_eq!(*ancestor_names.last().unwrap(), "client.submit");
    }

    // --- the crash shows up in the observability surface ----------------
    assert!(
        log.iter().any(|s| s.name == "gl.gm-failover"),
        "GM failure must be marked"
    );
    assert!(
        live_a
            .sim
            .metrics()
            .counter_with("heartbeat_missed", &telemetry::label::label("role", "gm"))
            >= 1,
        "missed-heartbeat metric must be labelled"
    );

    // --- two same-seed runs: byte-identical exports ---------------------
    let mut run_b = run(&spec).expect("the report scenario compiles");
    assert_eq!(live_a.sim.span_digest(), run_b.live.sim.span_digest());
    assert_eq!(live_a.sim.digest(), run_b.live.sim.digest());
    let dir = std::env::temp_dir().join(format!("snooze-telemetry-e2e-{}", std::process::id()));
    export_run(&mut run_a, &dir.join("a")).expect("exports write");
    export_run(&mut run_b, &dir.join("b")).expect("exports write");
    let read = |side: &str, file: &str| std::fs::read_to_string(dir.join(side).join(file));
    let listing = |side: &str| {
        let entries = std::fs::read_dir(dir.join(side)).expect("export dir");
        let mut names: Vec<String> = entries
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let written = listing("a");
    assert_eq!(written, listing("b"), "same files from same-seed runs");
    for file in EXPORTS {
        assert!(written.iter().any(|w| w == file), "{file} not written");
    }
    for file in &written {
        let a = read("a", file).unwrap();
        assert_eq!(
            a,
            read("b", file).unwrap(),
            "{file} differs between same-seed runs"
        );
    }
    let chrome = read("a", "trace.chrome.json").unwrap();
    assert!(chrome.contains("\"ph\":\"X\""), "complete events present");
    assert!(chrome.contains("client.submit"));
    assert_eq!(
        read("a", "spans.jsonl").unwrap(),
        telemetry::jsonl::render(run_a.live.sim.spans())
    );
    std::fs::remove_dir_all(&dir).ok();
}
