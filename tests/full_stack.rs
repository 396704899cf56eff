//! Cross-crate integration tests: the full Snooze stack (simcore +
//! protocols + cluster + consolidation + hierarchy) under partitions,
//! random failure storms, and consolidation-in-the-loop.

use snooze::prelude::*;
use snooze::scheduling::placement::PlacementKind;
use snooze::scheduling::reconfiguration::ReconfigurationConfig;
use snooze_cluster::node::NodeSpec;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::{UsageShape, VmWorkload};
use snooze_consolidation::aco::{AcoConsolidator, AcoParams};
use snooze_simcore::prelude::*;
use snooze_simcore::rng::SimRng;
use snooze_simcore::telemetry::SpanRecord;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// One step of a crash/repair cycle: `id` crashes (or restarts) at `at`.
struct Chaos {
    at: SimTime,
    id: ComponentId,
    crash: bool,
}

/// Independent crash/repair cycles: each target fails after
/// exponentially distributed up-times (`mttf` mean) and recovers after
/// exponentially distributed repair times (`mttr` mean), until
/// `horizon`. Sorted by time, stable for equal times.
fn random_crash_repair(
    targets: &[ComponentId],
    mttf: SimSpan,
    mttr: SimSpan,
    horizon: SimTime,
    rng: &mut SimRng,
) -> Vec<Chaos> {
    let mut exp_span =
        |mean: SimSpan| SimSpan::from_secs_f64(rng.exponential(mean.as_secs_f64().max(1e-9)));
    let mut plan = Vec::new();
    for &id in targets {
        let mut clock = SimTime::ZERO;
        loop {
            clock += exp_span(mttf);
            if clock >= horizon {
                break;
            }
            let down = exp_span(mttr);
            plan.push(Chaos {
                at: clock,
                id,
                crash: true,
            });
            clock += down;
            if clock >= horizon {
                break;
            }
            plan.push(Chaos {
                at: clock,
                id,
                crash: false,
            });
        }
    }
    plan.sort_by_key(|c| c.at);
    plan
}

#[test]
fn random_plan_is_sorted_and_alternates_per_target() {
    let mut rng = SimRng::new(5);
    let targets = [ComponentId(0), ComponentId(1), ComponentId(2)];
    let plan = random_crash_repair(
        &targets,
        SimSpan::from_secs(100),
        SimSpan::from_secs(10),
        secs(2000),
        &mut rng,
    );
    assert!(
        plan.windows(2).all(|w| w[0].at <= w[1].at),
        "plan must be time-ordered"
    );
    // Per target, actions must strictly alternate crash/restart.
    for &t in &targets {
        let mut expect_crash = true;
        for c in plan.iter().filter(|c| c.id == t) {
            assert_eq!(c.crash, expect_crash, "crash/restart out of turn for {t:?}");
            expect_crash = !expect_crash;
        }
    }
    assert!(!plan.is_empty(), "horizon long enough to see failures");
}

#[test]
fn random_plan_respects_horizon() {
    let mut rng = SimRng::new(9);
    let plan = random_crash_repair(
        &[ComponentId(0)],
        SimSpan::from_secs(5),
        SimSpan::from_secs(1),
        secs(100),
        &mut rng,
    );
    assert!(plan.iter().all(|c| c.at < secs(100)));
}

fn schedule(n: u64, at: SimTime, util: f64) -> Vec<ScheduledVm> {
    (0..n)
        .map(|i| {
            let mut spec = VmSpec::new(VmId(i), ResourceVector::new(2.0, 4096.0, 100.0, 100.0));
            spec.image_mb = 1024.0;
            ScheduledVm {
                at,
                spec,
                workload: VmWorkload {
                    cpu: UsageShape::Constant(util),
                    memory: UsageShape::Constant(util),
                    network: UsageShape::Constant(0.3),
                    seed: i,
                },
                lifetime: None,
            }
        })
        .collect()
}

#[test]
fn partitioned_gl_causes_no_lasting_split_brain() {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(51).network(NetworkConfig::lan()).build();
    let config = SnoozeConfig {
        idle_suspend_after: None,
        ..SnoozeConfig::fast_test()
    };
    let nodes = NodeSpec::standard_cluster(6);
    let system = SnoozeSystem::deploy(&mut sim, &config, 3, &nodes, 1);
    sim.run_until(secs(10));
    let old_gl = system.current_gl(&sim).expect("converged");

    // Partition the GL away from the world. Its coordination session
    // expires; a new GL is elected on the majority side.
    sim.schedule_net_fault(sim.now(), NetFault::Isolate(old_gl));
    sim.run_until(secs(40));
    let leaders: Vec<ComponentId> = system
        .gms
        .iter()
        .copied()
        .filter(|&gm| {
            sim.component(gm)
                .as_gm()
                .map(|g| g.is_gl())
                .unwrap_or(false)
        })
        .collect();
    assert_eq!(leaders.len(), 2, "during the partition, both sides believe");

    // Heal. SessionExpired must depose the old GL.
    sim.schedule_net_fault(sim.now(), NetFault::Reconnect(old_gl));
    sim.run_until(secs(90));
    let gl = system
        .current_gl(&sim)
        .expect("exactly one GL after healing");
    assert_ne!(gl, old_gl, "deposed leader must not return to power");
    let old = sim.component(old_gl).as_gm().unwrap();
    assert!(
        matches!(old.mode(), Mode::Gm(g) if g == gl),
        "old GL now follows: {:?}",
        old.mode()
    );
}

#[test]
fn survives_a_random_failure_storm_with_invariants_intact() {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(52)
        .network(NetworkConfig::lossy_lan(0.01))
        .build();
    let config = SnoozeConfig {
        idle_suspend_after: None,
        reschedule_on_lc_failure: true,
        ..SnoozeConfig::fast_test()
    };
    let nodes = NodeSpec::standard_cluster(10);
    let system = SnoozeSystem::deploy(&mut sim, &config, 4, &nodes, 1);
    let client = sim.add_component(
        "client",
        ClientDriver::new(
            system.eps[0],
            schedule(12, secs(10), 0.5),
            SimSpan::from_secs(10),
        ),
    );

    // Random crash/repair cycles on managers and half the LCs.
    let mut chaos_rng = SimRng::new(0xBAD);
    let mut targets: Vec<ComponentId> = system.gms.clone();
    targets.extend(&system.lcs[..5]);
    for c in random_crash_repair(
        &targets,
        SimSpan::from_secs(120), // MTTF
        SimSpan::from_secs(15),  // MTTR
        secs(500),
        &mut chaos_rng,
    ) {
        if c.crash {
            sim.schedule_crash(c.at, c.id);
        } else {
            sim.schedule_restart(c.at, c.id);
        }
    }

    // Long quiet tail so everything heals.
    sim.run_until(secs(800));

    // Invariant: exactly one GL among alive managers.
    assert!(system.current_gl(&sim).is_some(), "hierarchy re-converged");
    // Invariant: every alive LC is assigned to an alive manager.
    let live_gms = system.active_gms(&sim);
    for &lc in &system.lcs {
        if !sim.is_alive(lc) {
            continue;
        }
        let l = sim.component(lc).as_lc().unwrap();
        if let Some(gm) = l.assigned_gm() {
            assert!(live_gms.contains(&gm), "LC {lc:?} bound to dead GM {gm:?}");
        }
    }
    // Invariant: the client got an answer (or gave up) for every VM.
    let c = sim.component(client).as_client().unwrap();
    assert_eq!(
        c.placed.len() + c.rejected.len() + c.abandoned.len(),
        12,
        "every submission resolved"
    );
    // The storm was survivable: most VMs should have landed.
    assert!(c.placed.len() >= 8, "placed only {} of 12", c.placed.len());
}

/// Eight 2-core VMs round-robined over eight 8-core LCs under one GM,
/// idle suspend after 20 s, and ACO reconfiguration every 60 s if
/// `reconf`: the deployment run for `horizon`.
fn consolidation_deployment(reconf: bool, horizon: SimTime) -> (Engine<SnoozeNode>, SnoozeSystem) {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(53).network(NetworkConfig::lan()).build();
    let config = SnoozeConfig {
        placement: PlacementKind::RoundRobin,
        idle_suspend_after: Some(SimSpan::from_secs(20)),
        underload_threshold: 0.0, // isolate the reconfiguration effect
        reconfiguration: reconf.then(|| ReconfigurationConfig {
            period: SimSpan::from_secs(60),
            algo: "aco".into(),
            consolidator: std::sync::Arc::new(AcoConsolidator::new(AcoParams::fast())),
            max_migrations: 16,
        }),
        ..SnoozeConfig::fast_test()
    };
    let nodes = NodeSpec::standard_cluster(8);
    let system = SnoozeSystem::deploy(&mut sim, &config, 2, &nodes, 1);
    sim.add_component(
        "client",
        ClientDriver::new(
            system.eps[0],
            schedule(8, secs(10), 0.5),
            SimSpan::from_secs(10),
        ),
    );
    sim.run_until(horizon);
    (sim, system)
}

#[test]
fn consolidation_in_the_loop_reduces_powered_nodes() {
    let run = |reconf: bool| -> (usize, f64) {
        let horizon = secs(600);
        let (sim, system) = consolidation_deployment(reconf, horizon);
        let (on, _, _) = system.power_census(&sim);
        (on, system.total_energy_wh(&sim, 0, horizon))
    };

    let (on_without, wh_without) = run(false);
    let (on_with, wh_with) = run(true);
    assert!(
        on_with < on_without,
        "ACO reconfiguration must empty nodes: {on_with} vs {on_without}"
    );
    assert!(wh_with < wh_without, "fewer powered nodes ⇒ less energy");
    // 8 VMs × 2 cores pack into 2 hosts of 8 cores.
    assert!(
        on_with <= 3,
        "packed cluster should run ≤3 nodes, got {on_with}"
    );
}

/// Every `gm.reconfigure` span carries the pass's decision record, and a
/// pass that commands migrations planned no more hosts than it found.
#[test]
fn every_reconfiguration_pass_carries_its_decision_record() {
    const KEYS: [&str; 6] = [
        "migrations",
        "items",
        "hosts",
        "hosts_before",
        "hosts_after",
        "lower_bound",
    ];
    let (sim, _) = consolidation_deployment(true, secs(600));
    let mut passes = 0;
    let mut moved = 0;
    let log = sim.spans();
    for span in log.iter().filter(|s| s.name == "gm.reconfigure") {
        passes += 1;
        let labels: Vec<_> = log.labels(span.id).collect();
        let keys: Vec<&str> = labels.iter().map(|l| l.key).collect();
        assert_eq!(keys, KEYS, "span {:?}", span.id);
        let [migrations, items, hosts, before, after, bound]: [u64; 6] =
            std::array::from_fn(|i| match labels[i].value {
                LabelValue::U64(n) => n,
                ref other => panic!("{} is a count, not {other:?}", KEYS[i]),
            });
        assert!(before <= hosts && after <= hosts, "{labels:?}");
        assert!(migrations <= items, "{labels:?}");
        if items > 0 {
            assert!(bound >= 1 && bound <= after, "{labels:?}");
        }
        if migrations > 0 {
            moved += 1;
            assert!(after <= before, "{labels:?}");
        }
    }
    assert!(passes >= 8, "a pass a minute from 60 s, got {passes}");
    assert!(moved >= 1, "some pass consolidated");
}

#[test]
fn lossy_network_delays_but_does_not_break_placement() {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(54)
        .network(NetworkConfig::lossy_lan(0.05))
        .build();
    let config = SnoozeConfig {
        idle_suspend_after: None,
        ..SnoozeConfig::fast_test()
    };
    let nodes = NodeSpec::standard_cluster(6);
    let system = SnoozeSystem::deploy(&mut sim, &config, 2, &nodes, 1);
    let client = sim.add_component(
        "client",
        ClientDriver::new(
            system.eps[0],
            schedule(10, secs(10), 0.5),
            SimSpan::from_secs(10),
        ),
    );
    sim.run_until(secs(600));
    let c = sim.component(client).as_client().unwrap();
    assert_eq!(
        c.placed.len(),
        10,
        "retries overcome 5% loss: {:?}",
        c.abandoned
    );
    assert!(
        sim.metrics().counter("net.dropped") > 0,
        "loss actually happened"
    );
}

#[test]
fn energy_accounting_matches_power_model_bounds() {
    // Sanity link between the hierarchy's metered energy and the power
    // model: a fully idle, never-suspended cluster burns exactly
    // idle-watts × nodes × time (modulo float).
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(55).network(NetworkConfig::lan()).build();
    let config = SnoozeConfig {
        idle_suspend_after: None,
        ..SnoozeConfig::fast_test()
    };
    let nodes = NodeSpec::standard_cluster(4);
    let system = SnoozeSystem::deploy(&mut sim, &config, 2, &nodes, 1);
    let horizon = secs(3600);
    sim.run_until(horizon);
    let measured = system.total_energy_wh(&sim, 0, horizon);
    let expected = 4.0 * 160.0 * 1.0; // 4 nodes × 160 W idle × 1 h
    assert!(
        (measured - expected).abs() < expected * 0.01,
        "measured {measured} Wh vs expected {expected} Wh"
    );
}

/// A GL, a GM and an LC killed in turn, and every decision the hierarchy
/// takes in answer, read from the span log and the counters (the same
/// records `run_experiments --scenario scenarios/e6.toml` prints as its
/// failover timeline).
#[test]
fn drill_decisions_are_in_the_span_log_and_the_counters() {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(7).network(NetworkConfig::lan()).build();
    let config = SnoozeConfig {
        idle_suspend_after: None,
        reschedule_on_lc_failure: true,
        ..SnoozeConfig::default()
    };
    let nodes = NodeSpec::standard_cluster(9);
    let system = SnoozeSystem::deploy(&mut sim, &config, 4, &nodes, 1);
    sim.add_component(
        "client",
        ClientDriver::new(
            system.eps[0],
            schedule(12, secs(30), 0.7),
            SimSpan::from_secs(10),
        ),
    );
    sim.run_until(secs(120));

    let first_gl = system.current_gl(&sim).expect("converged");
    sim.schedule_crash(secs(121), first_gl);
    sim.run_until(secs(185));
    let second_gl = system.current_gl(&sim).expect("re-elected");

    let gm = system.active_gms(&sim)[0];
    sim.schedule_crash(secs(186), gm);
    sim.run_until(secs(250));

    let lc = *system
        .lcs
        .iter()
        .max_by_key(|&&lc| {
            sim.component(lc)
                .as_lc()
                .unwrap()
                .hypervisor()
                .guest_count()
        })
        .unwrap();
    sim.schedule_crash(secs(251), lc);
    sim.run_until(secs(375));
    assert_eq!(system.total_vms(&sim), 12, "the dead LC's VMs came back");

    let log = sim.spans();
    let value_of = |s: &SpanRecord, key| log.label_of(s.id, key).map(ToString::to_string);
    let decisions: Vec<(&str, usize, Option<String>)> = log
        .iter()
        .filter_map(|s| match s.name {
            "gl.promoted" => Some((s.name, s.track as usize, None)),
            "gl.gm-failover" => Some((s.name, s.track as usize, value_of(s, "gm"))),
            "gm.lc-failover" => Some((s.name, s.track as usize, value_of(s, "lc"))),
            _ => None,
        })
        .collect();
    let (gm_name, lc_name) = (format!("{gm:?}"), format!("{lc:?}"));
    assert_eq!(
        decisions[..3],
        [
            ("gl.promoted", first_gl.0, None),
            ("gl.promoted", second_gl.0, None),
            ("gl.gm-failover", second_gl.0, Some(gm_name)),
        ]
    );
    assert_eq!(decisions.len(), 4);
    let (name, by, dead) = decisions[3].clone();
    assert_eq!((name, dead), ("gm.lc-failover", Some(lc_name)));
    assert!(system.active_gms(&sim).contains(&ComponentId(by)));

    let m = sim.metrics();
    assert_eq!(m.counter("failure.crashes"), 3);
    assert_eq!(m.counter_with("heartbeat_missed", &label("role", "gm")), 1);
    assert_eq!(m.counter_with("heartbeat_missed", &label("role", "lc")), 1);
    assert_eq!(m.counter_with("role_transitions", &label("to", "gl")), 2);
}
