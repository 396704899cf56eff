//! Configuration-matrix tests: every pluggable policy choice the paper
//! names (§II-C placement, §II-B estimation) must work end to end, and
//! mixed-generation (heterogeneous) clusters must respect per-node
//! capacities.

use snooze::estimator::EstimatorKind;
use snooze::prelude::*;
use snooze::scheduling::placement::PlacementKind;
use snooze_cluster::node::{NodeId, NodeSpec};
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::{UsageShape, VmWorkload};
use snooze_simcore::prelude::*;
use snooze_simcore::rng::SimRng;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn run_matrix_case(seed: u64, config: SnoozeConfig, n_vms: u64) -> usize {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(seed).network(NetworkConfig::lan()).build();
    let nodes = NodeSpec::standard_cluster(6);
    let system = SnoozeSystem::deploy(&mut sim, &config, 3, &nodes, 1);
    let schedule: Vec<ScheduledVm> = (0..n_vms)
        .map(|i| ScheduledVm {
            at: secs(10),
            spec: VmSpec::new(VmId(i), ResourceVector::new(2.0, 4096.0, 100.0, 100.0)),
            workload: VmWorkload {
                cpu: UsageShape::Constant(0.5),
                memory: UsageShape::Constant(0.5),
                network: UsageShape::Constant(0.2),
                seed: i,
            },
            lifetime: None,
        })
        .collect();
    let client = sim.add_component(
        "client",
        ClientDriver::new(system.eps[0], schedule, SimSpan::from_secs(10)),
    );
    sim.run_until(secs(150));
    sim.component(client).as_client().unwrap().placed.len()
}

#[test]
fn every_placement_policy_serves_submissions() {
    for (seed, kind) in [
        (95, PlacementKind::FirstFit),
        (98, PlacementKind::RoundRobin),
    ] {
        let config = SnoozeConfig {
            placement: kind,
            idle_suspend_after: None,
            ..SnoozeConfig::fast_test()
        };
        assert_eq!(run_matrix_case(seed, config, 8), 8, "{kind:?}");
    }
}

#[test]
fn every_estimator_serves_submissions() {
    for (i, kind) in [
        EstimatorKind::LastValue,
        EstimatorKind::Ewma { alpha: 0.3 },
        EstimatorKind::WindowMax { window: 5 },
    ]
    .into_iter()
    .enumerate()
    {
        let config = SnoozeConfig {
            estimator: kind,
            idle_suspend_after: None,
            ..SnoozeConfig::fast_test()
        };
        assert_eq!(run_matrix_case(99 + i as u64, config, 8), 8, "{kind:?}");
    }
}

#[test]
fn heterogeneous_cluster_respects_per_node_capacity() {
    // Three small nodes (4 cores) and one jumbo (16 cores). A 6-core VM
    // only fits the jumbo; 2-core VMs fit anywhere.
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(103).network(NetworkConfig::lan()).build();
    let config = SnoozeConfig {
        idle_suspend_after: None,
        ..SnoozeConfig::fast_test()
    };
    let mut nodes: Vec<NodeSpec> = (0..3)
        .map(|i| {
            let mut n = NodeSpec::standard(NodeId(i));
            n.capacity = ResourceVector::new(4.0, 16_384.0, 1000.0, 1000.0);
            n
        })
        .collect();
    let mut jumbo = NodeSpec::standard(NodeId(3));
    jumbo.capacity = ResourceVector::new(16.0, 65_536.0, 2000.0, 2000.0);
    nodes.push(jumbo);
    let system = SnoozeSystem::deploy(&mut sim, &config, 2, &nodes, 1);

    let mk = |id: u64, cores: f64| ScheduledVm {
        at: secs(10),
        spec: VmSpec::new(VmId(id), ResourceVector::new(cores, 4096.0, 100.0, 100.0)),
        workload: VmWorkload {
            cpu: UsageShape::Constant(0.5),
            memory: UsageShape::Constant(0.5),
            network: UsageShape::Constant(0.2),
            seed: id,
        },
        lifetime: None,
    };
    let schedule = vec![mk(0, 6.0), mk(1, 6.0), mk(2, 2.0), mk(3, 2.0)];
    let client = sim.add_component(
        "client",
        ClientDriver::new(system.eps[0], schedule, SimSpan::from_secs(10)),
    );
    sim.run_until(secs(150));
    let c = sim.component(client).as_client().unwrap();
    assert_eq!(
        c.placed.len(),
        4,
        "rejected {:?} abandoned {:?}",
        c.rejected,
        c.abandoned
    );
    // The two 6-core VMs must both be on the jumbo node.
    let jumbo_lc = system.lcs[3];
    for ack in &c.placed {
        if matches!(ack.vm, VmId(0) | VmId(1)) {
            assert_eq!(ack.lc, jumbo_lc, "{:?} needs the jumbo node", ack.vm);
        }
    }
    // No node's reservations exceed its capacity.
    for &lc in &system.lcs {
        let l = sim.component(lc).as_lc().unwrap();
        assert!(l
            .hypervisor()
            .reserved()
            .fits_within(&l.hypervisor().capacity()));
    }
}

#[test]
fn generated_mixed_fleet_runs_through_the_hierarchy() {
    // Diurnal and bursty shapes drive the system (not just constant
    // utilizations): everything places, nothing panics, and usage stays
    // within reservations.
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(104).network(NetworkConfig::lan()).build();
    let config = SnoozeConfig {
        idle_suspend_after: None,
        ..SnoozeConfig::fast_test()
    };
    let nodes = NodeSpec::standard_cluster(8);
    let system = SnoozeSystem::deploy(&mut sim, &config, 3, &nodes, 1);

    // GRID'11 demand sizes (10–60 % of a standard node per dimension),
    // the three shapes in turn.
    let mut rng = SimRng::new(7);
    let schedule: Vec<ScheduledVm> = (0..12)
        .map(|i| {
            let mut share = |of: f64| of * rng.uniform(0.1, 0.6);
            let requested =
                ResourceVector::new(share(8.0), share(32_768.0), share(1000.0), share(1000.0));
            let cpu = match i % 3 {
                0 => UsageShape::Constant(rng.uniform(0.7, 1.0)),
                1 => UsageShape::diurnal(
                    rng.uniform(0.05, 0.2),
                    rng.uniform(0.6, 1.0),
                    SimSpan::from_secs(24 * 3600),
                    rng.f64(),
                ),
                _ => UsageShape::on_off(
                    rng.uniform(0.7, 1.0),
                    rng.uniform(0.02, 0.1),
                    rng.uniform(0.2, 0.5),
                    SimSpan::from_secs(300),
                ),
            };
            ScheduledVm {
                at: secs(10),
                spec: VmSpec::new(VmId(i), requested),
                workload: VmWorkload {
                    cpu: cpu.clone(),
                    memory: UsageShape::Constant(rng.uniform(0.6, 0.95)),
                    network: cpu,
                    seed: i,
                },
                lifetime: None,
            }
        })
        .collect();
    let client = sim.add_component(
        "client",
        ClientDriver::new(system.eps[0], schedule, SimSpan::from_secs(10)),
    );
    sim.run_until(secs(600));
    let c = sim.component(client).as_client().unwrap();
    assert!(
        c.placed.len() >= 10,
        "most of the mixed fleet placed: {}",
        c.placed.len()
    );
    assert!(
        system.mean_performance(&sim, sim.now()) > 0.99,
        "reservations prevent contention"
    );
}
