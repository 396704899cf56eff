//! Tests of the unified-node extension (paper §V): no administrator-
//! assigned roles — the framework decides which nodes act as managers.
//!
//! Deployments go through the declarative scenario layer
//! (`topology.unified`); clients are attached by hand because these
//! workloads shape each resource dimension differently.

use snooze::prelude::*;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::{UsageShape, VmWorkload};
use snooze_scenario::spec::{ConfigSpec, ScenarioSpec, TopologySpec, UnifiedSpec};
use snooze_scenario::LiveSystem;
use snooze_simcore::prelude::*;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn deploy(seed: u64, n_nodes: usize, target_managers: usize) -> LiveSystem {
    let spec = ScenarioSpec {
        name: "unified-test".into(),
        description: String::new(),
        seed,
        topology: TopologySpec {
            managers: 0,
            lcs: 0,
            node_groups: Vec::new(),
            eps: 1,
            unified: Some(UnifiedSpec {
                nodes: n_nodes,
                target_managers,
            }),
            client: None,
        },
        config: ConfigSpec {
            idle_suspend_ms: Some(-1.0),
            ..ConfigSpec::preset("fast_test")
        },
        workload: Vec::new(),
        faults: Vec::new(),
        phases: Vec::new(),
        probes: Vec::new(),
        obs: None,
        power: None,
        slos: Vec::new(),
    };
    snooze_scenario::compile(&spec).expect("unified spec compiles")
}

fn schedule(n: u64, at: SimTime) -> Vec<ScheduledVm> {
    (0..n)
        .map(|i| ScheduledVm {
            at,
            spec: VmSpec::new(VmId(i), ResourceVector::new(2.0, 4096.0, 100.0, 100.0)),
            workload: VmWorkload {
                cpu: UsageShape::Constant(0.6),
                memory: UsageShape::Constant(0.6),
                network: UsageShape::Constant(0.3),
                seed: i,
            },
            lifetime: None,
        })
        .collect()
}

#[test]
fn framework_bootstraps_roles_without_an_administrator() {
    let mut live = deploy(61, 8, 3);
    // Everyone starts as an LC; the director must promote three into
    // managers and the hierarchy must converge around them.
    live.sim.run_until(secs(60));
    let (sim, system) = (&live.sim, live.unified());
    let (managers, lcs) = system.role_census(sim);
    assert_eq!(managers, 3, "director reaches its target");
    assert_eq!(lcs, 5);
    assert!(
        system.current_gl(sim).is_some(),
        "a GL emerged among the promoted"
    );
}

#[test]
fn unified_system_serves_vm_submissions() {
    let mut live = deploy(62, 8, 3);
    live.sim.run_until(secs(60));
    let ep = live.unified().eps[0];
    let client = live.sim.add_component(
        "client",
        ClientDriver::new(ep, schedule(6, secs(70)), SimSpan::from_secs(10)),
    );
    live.sim.run_until(secs(300));
    let c = live.sim.component(client).as_client().unwrap();
    assert_eq!(
        c.placed.len(),
        6,
        "rejected {:?} abandoned {:?}",
        c.rejected,
        c.abandoned
    );
    assert_eq!(live.unified().total_vms(&live.sim), 6);
}

#[test]
fn dead_manager_is_replaced_from_the_lc_pool() {
    let mut live = deploy(63, 8, 3);
    live.sim.run_until(secs(60));
    let (managers, _) = live.unified().role_census(&live.sim);
    assert_eq!(managers, 3);
    // Kill a non-GL manager.
    let gl = live.unified().current_gl(&live.sim).unwrap();
    let victim = *live
        .unified()
        .nodes
        .iter()
        .find(|&&n| {
            n != gl
                && live
                    .sim
                    .component(n)
                    .as_unified()
                    .map(|u| u.role() == NodeRole::Manager)
                    .unwrap_or(false)
        })
        .expect("a non-GL manager exists");
    live.sim.schedule_crash(secs(61), victim);
    live.sim.run_until(secs(180));
    let (sim, system) = (&live.sim, live.unified());
    let (managers, _) = system.role_census(sim);
    assert_eq!(managers, 3, "a replacement was promoted");
    // The replacement is a different node.
    // Two initially promoted survivors plus one freshly promoted
    // replacement = at least 3 role changes outside the victim.
    let replacement_changes: u64 = system
        .nodes
        .iter()
        .filter(|&&n| n != victim && sim.is_alive(n))
        .filter_map(|&n| sim.component(n).as_unified())
        .map(|u| u.role_changes)
        .sum();
    assert!(
        replacement_changes >= 3,
        "someone new changed role: {replacement_changes}"
    );
}

#[test]
fn dead_gl_triggers_both_failover_and_backfill() {
    let mut live = deploy(64, 8, 3);
    live.sim.run_until(secs(60));
    let gl = live.unified().current_gl(&live.sim).unwrap();
    live.sim.schedule_crash(secs(61), gl);
    live.sim.run_until(secs(240));
    let new_gl = live
        .unified()
        .current_gl(&live.sim)
        .expect("failover elected a new GL");
    assert_ne!(new_gl, gl);
    let (managers, _) = live.unified().role_census(&live.sim);
    assert_eq!(managers, 3, "pool backfilled after losing the GL");
}

#[test]
fn vm_hosting_nodes_refuse_promotion() {
    let mut live = deploy(65, 5, 2);
    live.sim.run_until(secs(60));
    // Fill every LC-role node with a VM.
    let ep = live.unified().eps[0];
    let client = live.sim.add_component(
        "client",
        ClientDriver::new(ep, schedule(3, secs(70)), SimSpan::from_secs(10)),
    );
    live.sim.run_until(secs(150));
    assert_eq!(
        live.sim.component(client).as_client().unwrap().placed.len(),
        3
    );

    // Kill a manager: with every remaining LC busy, the director may be
    // stuck — but must never promote a VM-hosting node.
    let gl = live.unified().current_gl(&live.sim).unwrap();
    let victim = *live
        .unified()
        .nodes
        .iter()
        .find(|&&n| {
            n != gl
                && live
                    .sim
                    .component(n)
                    .as_unified()
                    .map(|u| u.role() == NodeRole::Manager)
                    .unwrap_or(false)
        })
        .unwrap();
    live.sim.schedule_crash(secs(151), victim);
    live.sim.run_until(secs(300));
    let (sim, system) = (&live.sim, live.unified());
    for &n in &system.nodes {
        if !sim.is_alive(n) {
            continue;
        }
        let u = sim.component(n).as_unified().unwrap();
        if u.role() == NodeRole::Manager {
            assert_eq!(
                u.as_lc().hypervisor().guest_count(),
                0,
                "a VM-hosting node must never have been promoted"
            );
        }
    }
    // All VMs are still alive regardless.
    assert_eq!(system.total_vms(sim), 3);
}

#[test]
fn restarted_manager_rejoins_as_lc_and_surplus_is_demoted() {
    let mut live = deploy(66, 8, 3);
    live.sim.run_until(secs(60));
    let gl = live.unified().current_gl(&live.sim).unwrap();
    let victim = *live
        .unified()
        .nodes
        .iter()
        .find(|&&n| {
            n != gl
                && live
                    .sim
                    .component(n)
                    .as_unified()
                    .map(|u| u.role() == NodeRole::Manager)
                    .unwrap_or(false)
        })
        .unwrap();
    // Crash it; a replacement gets promoted; then it comes back (as an
    // LC). The pool is now 3 — back at target, nobody demoted — or
    // briefly 4 if the victim restarts before the census settles, in
    // which case the director trims the surplus.
    live.sim.schedule_crash(secs(61), victim);
    live.sim.schedule_restart(secs(120), victim);
    live.sim.run_until(secs(360));
    let (sim, system) = (&live.sim, live.unified());
    let (managers, lcs) = system.role_census(sim);
    assert_eq!(managers, 3, "pool converged back to target");
    assert_eq!(lcs, 5);
    let restarted = sim.component(victim).as_unified().unwrap();
    assert_eq!(
        restarted.role(),
        NodeRole::LocalController,
        "reboots rejoin as LC"
    );
    assert!(system.current_gl(sim).is_some());
}

#[test]
fn deterministic_role_assignment() {
    let run = |seed: u64| {
        let mut live = deploy(seed, 8, 3);
        live.sim.run_until(secs(120));
        let roles: Vec<NodeRole> = live
            .unified()
            .nodes
            .iter()
            .map(|&n| live.sim.component(n).as_unified().unwrap().role())
            .collect();
        (roles, live.sim.events_executed(), live.sim.digest())
    };
    assert_eq!(run(67), run(67));
}
