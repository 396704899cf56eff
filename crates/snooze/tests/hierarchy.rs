//! End-to-end tests of the Snooze hierarchy: self-organization, VM
//! submission, fault tolerance (§II-E) and energy management (§III).
//!
//! Deployments, workloads and (where the program fits the declarative
//! mold) fault schedules are expressed as [`ScenarioSpec`]s and built by
//! the scenario compiler — the same single builder the experiment
//! harness uses. Tests that poke at mid-run internals compile the spec
//! and drive the engine by hand.

use snooze::prelude::*;
use snooze_cluster::node::NodeSpec;
use snooze_cluster::workload::{UsageShape, VmWorkload};
use snooze_scenario::spec::{
    ClientSpec, ConfigSpec, PhaseSpec, ReconfSpec, ScenarioSpec, TargetSpec, TopologySpec,
    WorkloadSpec,
};
use snooze_scenario::{vm_item, LiveSystem};
use snooze_simcore::prelude::*;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn topology(managers: usize, lcs: usize, eps: usize, retry_ms: Option<f64>) -> TopologySpec {
    TopologySpec {
        managers,
        lcs,
        node_groups: Vec::new(),
        eps,
        client: retry_ms.map(|retry_ms| ClientSpec { retry_ms }),
    }
}

fn fast_config() -> ConfigSpec {
    ConfigSpec::preset("fast_test")
}

/// The standard test burst: `n` 2-core/8 GB VMs at `at_s`.
fn burst(n: usize, at_s: f64, util: f64) -> WorkloadSpec {
    WorkloadSpec::Burst {
        n,
        at_ms: at_s * 1e3,
        cores: 2.0,
        memory_mb: 8192.0,
        util,
    }
}

fn spec(
    seed: u64,
    topology: TopologySpec,
    config: ConfigSpec,
    workload: Vec<WorkloadSpec>,
) -> ScenarioSpec {
    ScenarioSpec {
        name: "hierarchy-test".into(),
        description: String::new(),
        seed,
        topology,
        config,
        workload,
        faults: Vec::new(),
        phases: Vec::new(),
        probes: Vec::new(),
        obs: None,
        power: None,
        slos: Vec::new(),
    }
}

fn compile(spec: &ScenarioSpec) -> LiveSystem {
    snooze_scenario::compile(spec).expect("spec compiles")
}

#[test]
fn hierarchy_converges_to_one_gl_with_joined_gms_and_lcs() {
    let mut live = compile(&spec(1, topology(3, 8, 2, None), fast_config(), vec![]));
    live.sim.run_until(secs(15));
    let (sim, system) = (&live.sim, &live.system);

    let gl = system.current_gl(sim).expect("one GL elected");
    let gms = system.active_gms(sim);
    assert_eq!(gms.len(), 2, "the other two managers serve as GMs");
    assert!(!gms.contains(&gl));

    // Every LC must be assigned to some GM, and assignments must balance.
    let mut counts = std::collections::HashMap::new();
    for &lc in &system.lcs {
        let l = sim.component(lc).as_lc().unwrap();
        let gm = l.assigned_gm().expect("LC assigned");
        assert!(gms.contains(&gm), "assigned to an active GM");
        *counts.entry(gm).or_insert(0usize) += 1;
    }
    for (&gm, &n) in &counts {
        assert!((3..=5).contains(&n), "GM {gm:?} has unbalanced share {n}");
    }

    // EPs discovered the GL.
    for &ep in &system.eps {
        assert_eq!(sim.component(ep).as_ep().unwrap().current_gl(), Some(gl));
    }
}

#[test]
fn burst_submission_places_every_vm() {
    let mut live = compile(&spec(
        2,
        topology(2, 10, 1, Some(10000.0)),
        fast_config(),
        vec![burst(20, 10.0, 0.5)],
    ));
    live.sim.run_until(secs(120));

    let c = live.client();
    assert_eq!(
        c.placed.len(),
        20,
        "rejected: {:?}, abandoned: {:?}",
        c.rejected,
        c.abandoned
    );
    assert_eq!(live.system.total_vms(&live.sim), 20);
    assert!(c.mean_latency_secs() > 0.0);
    // Every ack points at a real LC hosting that VM.
    for ack in &live.client().placed {
        let l = live.sim.component(ack.lc).as_lc().unwrap();
        assert!(l.hypervisor().guest(ack.vm).is_some(), "{ack:?}");
    }
}

#[test]
fn oversized_vm_is_rejected() {
    let mut live = compile(&spec(
        3,
        topology(2, 4, 1, Some(10000.0)),
        fast_config(),
        vec![WorkloadSpec::Burst {
            n: 1,
            at_ms: 10000.0,
            cores: 64.0,
            memory_mb: 999_999.0,
            util: 1.0,
        }],
    ));
    live.sim.run_until(secs(60));
    let c = live.client();
    assert_eq!(c.rejected, vec![snooze_cluster::vm::VmId(0)]);
    assert!(c.placed.is_empty());
}

#[test]
fn gl_failure_heals_and_new_submissions_succeed() {
    // Fully declarative: run to 20 s, crash the current GL, settle the
    // post-failover burst.
    let mut s = spec(
        4,
        topology(3, 6, 1, Some(10000.0)),
        fast_config(),
        vec![burst(5, 50.0, 0.5)],
    );
    s.phases = vec![
        PhaseSpec::RunTo { t_ms: 20000.0 },
        PhaseSpec::Fault {
            label: "GL crash".into(),
            target: TargetSpec::Gl,
            delay_ms: 0.0,
            kind: "crash".into(),
            observe: None,
        },
        PhaseSpec::Settle {
            deadline_ms: 150_000.0,
        },
    ];
    let run = snooze_scenario::run(&s).expect("compiles");
    let first_gl = run.outcome.faults[0].target;
    let second_gl = run
        .live
        .system
        .current_gl(&run.live.sim)
        .expect("failover elected a new GL");
    assert_ne!(second_gl, first_gl);

    // The healed hierarchy still serves requests.
    let c = run.live.client();
    assert_eq!(
        c.placed.len(),
        5,
        "rejected: {:?} abandoned: {:?}",
        c.rejected,
        c.abandoned
    );
}

#[test]
fn gm_failure_relinks_its_lcs_and_preserves_vms() {
    // This test exercises failover, not energy management: keep every LC
    // awake so all of them can re-join within the test window. (Suspended
    // LCs recover through the watchdog — covered separately below.)
    let mut s = spec(
        5,
        topology(3, 6, 1, Some(10000.0)),
        ConfigSpec {
            idle_suspend_ms: Some(-1.0),
            ..fast_config()
        },
        vec![burst(8, 10.0, 0.5)],
    );
    s.phases = vec![
        PhaseSpec::RunTo { t_ms: 61000.0 },
        PhaseSpec::Fault {
            label: "GM crash".into(),
            target: TargetSpec::ActiveGm(0),
            delay_ms: 0.0,
            kind: "crash".into(),
            observe: None,
        },
        PhaseSpec::RunTo { t_ms: 120_000.0 },
    ];
    let run = snooze_scenario::run(&s).expect("compiles");
    let (sim, system) = (&run.live.sim, &run.live.system);
    let victim = run.outcome.faults[0].target;

    // VMs survive on their LCs ("VM management" is control plane only).
    assert_eq!(system.total_vms(sim), 8);
    // Every LC is re-assigned to a live GM.
    let live_gms = system.active_gms(sim);
    assert!(!live_gms.contains(&victim));
    for &lc in &system.lcs {
        let l = sim.component(lc).as_lc().unwrap();
        let gm = l.assigned_gm().expect("LC re-assigned after GM failure");
        assert!(live_gms.contains(&gm), "LC {lc:?} points at dead/stale GM");
    }
}

#[test]
fn suspended_lc_orphaned_by_gm_death_recovers_via_watchdog() {
    let mut live = compile(&spec(
        16,
        topology(3, 1, 1, None),
        ConfigSpec {
            idle_suspend_ms: Some(5000.0),
            suspend_watchdog_ms: Some(30000.0),
            ..fast_config()
        },
        vec![],
    ));

    // The lone LC joins, idles, and is suspended.
    live.sim.run_until(secs(25));
    let (_, _, low) = live.system.power_census(&live.sim);
    assert_eq!(low, 1, "LC should be suspended by now");
    let lc0 = live.system.lcs[0];
    let gm = live
        .sim
        .component(lc0)
        .as_lc()
        .unwrap()
        .assigned_gm()
        .expect("was assigned before suspending");

    // Its GM dies while it sleeps: nobody remembers the sleeper, so only
    // the RTC watchdog can bring it back.
    live.sim.schedule_crash(secs(26), gm);
    live.sim.run_until(secs(120));

    let wakes = live
        .sim
        .metrics()
        .counter_with("power.transitions", &label("kind", "watchdog-wake"));
    assert!(wakes >= 1, "watchdog must have fired");
    let l = live.sim.component(lc0).as_lc().unwrap();
    let current = l.assigned_gm().expect("re-assigned after watchdog wake");
    assert_ne!(current, gm, "must not still point at the dead GM");
    assert!(live.system.active_gms(&live.sim).contains(&current));
}

#[test]
fn lc_failure_is_detected_and_vms_are_lost_without_snapshots() {
    let mut live = compile(&spec(
        6,
        topology(2, 3, 1, Some(10000.0)),
        fast_config(),
        vec![burst(6, 10.0, 0.5)],
    ));
    live.sim.run_until(secs(60));
    assert_eq!(live.system.total_vms(&live.sim), 6);

    // Kill the LC hosting the most VMs.
    let victim = *live
        .system
        .lcs
        .iter()
        .max_by_key(|&&lc| {
            live.sim
                .component(lc)
                .as_lc()
                .unwrap()
                .hypervisor()
                .guest_count()
        })
        .unwrap();
    let lost = live
        .sim
        .component(victim)
        .as_lc()
        .unwrap()
        .hypervisor()
        .guest_count();
    assert!(lost > 0);
    live.sim.schedule_crash(secs(61), victim);
    live.sim.run_until(secs(120));
    assert_eq!(
        live.system.total_vms(&live.sim),
        6 - lost,
        "no snapshot recovery configured"
    );
}

#[test]
fn lc_failure_with_snapshots_reschedules_vms() {
    // Keep nodes awake so rescheduling has targets immediately.
    let mut live = compile(&spec(
        7,
        topology(2, 4, 1, Some(10000.0)),
        ConfigSpec {
            reschedule_on_lc_failure: Some(true),
            idle_suspend_ms: Some(-1.0),
            ..fast_config()
        },
        vec![burst(6, 10.0, 0.5)],
    ));
    live.sim.run_until(secs(60));
    assert_eq!(live.system.total_vms(&live.sim), 6);

    let victim = *live
        .system
        .lcs
        .iter()
        .max_by_key(|&&lc| {
            live.sim
                .component(lc)
                .as_lc()
                .unwrap()
                .hypervisor()
                .guest_count()
        })
        .unwrap();
    live.sim.schedule_crash(secs(61), victim);
    live.sim.run_until(secs(180));
    assert_eq!(
        live.system.total_vms(&live.sim),
        6,
        "snapshot recovery must restore the lost VMs on surviving LCs"
    );
}

#[test]
fn idle_nodes_suspend_and_submission_wakes_one() {
    let mut live = compile(&spec(
        8,
        topology(2, 3, 1, Some(10000.0)),
        ConfigSpec {
            idle_suspend_ms: Some(5000.0),
            ..fast_config()
        },
        vec![burst(1, 65.0, 0.5)],
    ));

    // Let the hierarchy converge, then idle long enough to suspend all.
    live.sim.run_until(secs(60));
    let (on, _, low) = live.system.power_census(&live.sim);
    assert_eq!(on, 0, "all idle nodes suspend");
    assert_eq!(low, 3);

    // The scheduled submission must wake a node and eventually place.
    live.sim.run_until(secs(200));
    let c = live.client();
    assert_eq!(
        c.placed.len(),
        1,
        "rejected: {:?} abandoned: {:?}",
        c.rejected,
        c.abandoned
    );
    let (on, _, _) = live.system.power_census(&live.sim);
    assert!(on >= 1, "at least the hosting node is awake");

    // Suspended-node statistics are visible.
    let suspensions = live
        .sim
        .metrics()
        .counter_with("power.transitions", &label("kind", "suspend"));
    assert!(suspensions >= 3);
}

#[test]
fn power_management_saves_energy_on_idle_clusters() {
    let horizon = secs(600);
    let run_with = |idle_suspend_ms: f64| {
        let mut live = compile(&spec(
            9,
            topology(2, 4, 1, None),
            ConfigSpec {
                idle_suspend_ms: Some(idle_suspend_ms),
                ..fast_config()
            },
            vec![],
        ));
        live.sim.run_until(horizon);
        live.system.total_energy_wh(&live.sim, horizon)
    };
    let e_with = run_with(5000.0);
    let e_without = run_with(-1.0);
    assert!(
        e_with < e_without * 0.2,
        "suspend power ≪ idle power: {e_with:.1} vs {e_without:.1} Wh"
    );
}

#[test]
fn overload_triggers_relocation() {
    // Custom per-dimension workload shapes don't fit WorkloadSpec: build
    // the schedule by hand and deploy through the same single builder.
    let config = ConfigSpec {
        idle_suspend_ms: Some(-1.0),
        placement: Some("first_fit".into()),
        ..fast_config()
    }
    .build()
    .unwrap();

    // Two VMs whose combined CPU demand rises above the overload
    // threshold on one node: reserve 4 cores each (fits 8-core node),
    // but demand ramps to ~100% of reservation. Small OS images keep the
    // live migration short.
    let mk = |id: u64| {
        let mut item = vm_item(id, 4.0, 8192.0, 1.0);
        item.at = secs(10);
        item.workload = VmWorkload {
            cpu: UsageShape::Constant(1.0),
            memory: UsageShape::Constant(0.5),
            network: UsageShape::Constant(0.2),
            seed: id,
        };
        item
    };
    // First-fit puts both on lc0 (4+4 = 8 cores reserved, 100% used ⇒
    // above the 0.9 overload threshold).
    let mut live = snooze_scenario::deploy_hierarchy(
        10,
        &config,
        2,
        &NodeSpec::standard_cluster(3),
        1,
        Some((vec![mk(0), mk(1)], SimSpan::from_secs(10))),
    );
    live.sim.run_until(secs(200));

    let migrations = live.sim.metrics().counter("lc.migrations_out");
    assert!(
        migrations >= 1,
        "overload must trigger at least one migration"
    );
    // Both VMs still exist somewhere.
    assert_eq!(live.system.total_vms(&live.sim), 2);
}

#[test]
fn underload_drains_node_onto_moderate_ones() {
    // Three VMs: round-robin spreads them 2/1. The node with one light
    // VM is underloaded; the other is moderately loaded. The light VM
    // should migrate away and its node suspend. Mixed utilizations are
    // three single-VM bursts (ids stay in workload order).
    let mut live = compile(&spec(
        11,
        topology(2, 2, 1, Some(10000.0)),
        ConfigSpec {
            idle_suspend_ms: Some(10000.0),
            placement: Some("round_robin".into()),
            underload_threshold: Some(0.3),
            ..fast_config()
        },
        // Heavy pair lands on lc0 (util ≈ 0.45 mean — "moderate"), the
        // light VM on lc1 (util ≈ 0.1 — underloaded): lc1 must drain
        // into lc0.
        vec![
            burst(1, 10.0, 0.9),
            burst(1, 10.0, 0.4),
            burst(1, 10.0, 0.9),
        ],
    ));
    live.sim.run_until(secs(300));

    assert_eq!(live.system.total_vms(&live.sim), 3);
    let (on, _, low) = live.system.power_census(&live.sim);
    assert_eq!(low, 1, "drained node suspends (on={on}, low={low})");
}

#[test]
fn deterministic_replay_same_seed_same_outcome() {
    let run = |seed: u64| {
        let mut live = compile(&spec(
            seed,
            topology(2, 6, 1, Some(10000.0)),
            fast_config(),
            vec![burst(10, 10.0, 0.5)],
        ));
        live.sim.run_until(secs(120));
        let placements: Vec<(snooze_cluster::vm::VmId, ComponentId)> =
            live.client().placed.iter().map(|p| (p.vm, p.lc)).collect();
        (placements, live.sim.events_executed(), live.sim.digest())
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn ep_failure_is_tolerated_by_client_rotating_to_second_ep() {
    // The client's preferred EP dies before it ever submits; the retry
    // rotation must carry every submission through the surviving EP.
    // The rotating client isn't expressible in a spec: deploy without
    // one and attach it by hand.
    let mut live = compile(&spec(13, topology(2, 4, 2, None), fast_config(), vec![]));
    let eps = live.system.eps.clone();
    live.sim.schedule_crash(secs(5), eps[0]);
    let mut alloc = snooze_scenario::VmIdAlloc::new();
    let schedule = snooze_scenario::burst(&mut alloc, 4, secs(10), 2.0, 8192.0, 0.5);
    let client = live.sim.add_component(
        "client",
        ClientDriver::with_eps(eps, schedule, SimSpan::from_secs(5)),
    );
    live.sim.run_until(secs(150));
    let c = live.sim.component(client).as_client().unwrap();
    assert_eq!(
        c.placed.len(),
        4,
        "rejected {:?} abandoned {:?}",
        c.rejected,
        c.abandoned
    );
    // The dead EP really did eat the first attempts.
    assert!(live.sim.metrics().counter("net.to_dead") > 0);
}

#[test]
fn submissions_before_convergence_eventually_succeed() {
    // The client fires at t=0, before any GL exists; EP drops, client
    // retries, everything lands.
    let mut live = compile(&spec(
        14,
        topology(2, 4, 1, Some(10000.0)),
        fast_config(),
        vec![burst(3, 0.0, 0.5)],
    ));
    live.sim.run_until(secs(120));
    let c = live.client();
    assert_eq!(
        c.placed.len(),
        3,
        "rejected: {:?} abandoned: {:?}",
        c.rejected,
        c.abandoned
    );
    let ep = live.sim.component(live.system.eps[0]).as_ep().unwrap();
    assert!(
        ep.dropped > 0,
        "early submissions were dropped pre-convergence"
    );
}

#[test]
fn reconfiguration_consolidates_spread_vms() {
    let config = ConfigSpec {
        placement: Some("round_robin".into()),
        idle_suspend_ms: Some(10000.0),
        // Disable underload relocation; let reconf do the packing.
        underload_threshold: Some(0.0),
        reconfiguration: Some(ReconfSpec {
            period_ms: 60000.0,
            algo: "aco".into(),
            aco: "fast".into(),
            aco_cycles: None,
            max_migrations: 16,
            params: None,
        }),
        ..fast_config()
    }
    .build()
    .unwrap();
    // Full-size OS images: each live migration is a real (~minute-long)
    // transfer, so the packing must converge rather than churn.
    let schedule: Vec<_> = (0..4)
        .map(|id| {
            let mut item = vm_item(id, 2.0, 8192.0, 0.5);
            item.at = secs(10);
            item.spec.image_mb = 8192.0;
            item
        })
        .collect();
    let mut live = snooze_scenario::deploy_hierarchy(
        15,
        &config,
        2,
        &NodeSpec::standard_cluster(4),
        1,
        Some((schedule, SimSpan::from_secs(10))),
    );

    // Four small VMs spread round-robin over four nodes; consolidation
    // should pack them onto one and let three nodes suspend.
    live.sim.run_until(secs(400));

    assert_eq!(live.system.total_vms(&live.sim), 4);
    let occupied = live
        .system
        .lcs
        .iter()
        .filter(|&&lc| {
            live.sim
                .component(lc)
                .as_lc()
                .unwrap()
                .hypervisor()
                .guest_count()
                > 0
        })
        .count();
    assert_eq!(occupied, 1, "ACO reconfiguration packs onto one node");
    let (_, _, low) = live.system.power_census(&live.sim);
    assert_eq!(low, 3, "freed nodes suspend");
}
