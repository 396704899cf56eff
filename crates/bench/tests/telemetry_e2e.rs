//! Acceptance test for the telemetry subsystem (ISSUE 2).
//!
//! Runs the full-stack E4-style scenario — 1 GL / 4 GMs / 32 LCs, a
//! burst of 100 VMs, one GM crash mid-flight — and checks that:
//!
//! * every placed submission is a causal span tree with correct parent
//!   links across EP → GL → GM → LC, and
//! * two same-seed runs produce byte-identical span and metric exports
//!   in every standard format.

use snooze_bench::report::{crashed_component, export_all, find_descendant, report_failover};
use snooze_scenario::run;
use snooze_simcore::prelude::*;
use snooze_simcore::telemetry;

const SEED: u64 = 42;

/// Render every export in memory for digest-style comparison.
fn render_exports<C: Component>(sim: &Engine<C>) -> [String; 4] {
    let names = snooze_bench::report::track_name(sim);
    [
        telemetry::chrome::render(sim.spans(), &names),
        telemetry::jsonl::render(sim.spans()),
        sim.metrics().to_prometheus(),
        sim.metrics().to_jsonl(),
    ]
}

#[test]
fn e4_failover_scenario_produces_linked_span_trees_and_identical_exports() {
    let spec = report_failover(SEED);
    let run_a = run(&spec).expect("the report scenario compiles");
    assert!(
        crashed_component(&run_a).is_some(),
        "scenario must crash a GM"
    );
    let live_a = run_a.live;

    // --- every submission placed, each a well-linked span tree ---------
    let client = live_a.client();
    assert_eq!(client.placed.len(), 100, "all 100 VMs place");
    let log = live_a.sim.spans();
    for ack in &client.placed {
        let vm_label = ack.vm.0.to_string();
        let root = log
            .roots()
            .find(|s| s.name == "client.submit" && s.label("vm") == Some(&vm_label))
            .unwrap_or_else(|| panic!("no client.submit root for vm {vm_label}"));
        assert_eq!(root.label("outcome"), Some("placed"));
        assert!(root.parent.is_none(), "submission spans are roots");
        assert!(
            root.duration_us().is_some(),
            "placed submissions are closed"
        );

        // The boot leaf must see the full EP → GL → GM chain above it.
        let boot = find_descendant(log, root.id, "lc.boot")
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
    let live_b = run(&spec).expect("the report scenario compiles").live;
    assert_eq!(live_a.sim.span_digest(), live_b.sim.span_digest());
    assert_eq!(live_a.sim.digest(), live_b.sim.digest());
    let a = render_exports(&live_a.sim);
    let b = render_exports(&live_b.sim);
    for (i, kind) in ["chrome", "spans.jsonl", "prometheus", "metrics.jsonl"]
        .iter()
        .enumerate()
    {
        assert_eq!(a[i], b[i], "{kind} export differs between same-seed runs");
    }

    // --- export_all writes the same bytes to disk -----------------------
    let dir = std::env::temp_dir().join(format!("snooze-telemetry-e2e-{SEED}"));
    export_all(&live_a.sim, &dir).expect("exports write");
    assert_eq!(
        std::fs::read_to_string(dir.join("trace.chrome.json")).unwrap(),
        a[0]
    );
    let chrome = &a[0];
    assert!(chrome.contains("\"ph\":\"X\""), "complete events present");
    assert!(chrome.contains("client.submit"));
    std::fs::remove_dir_all(&dir).ok();
}
