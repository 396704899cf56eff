//! Quickstart: deploy a small Snooze hierarchy, submit a handful of VMs,
//! and watch where they land.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use snooze::prelude::*;
use snooze_cluster::node::NodeSpec;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::{UsageShape, VmWorkload};
use snooze_simcore::prelude::*;

fn main() {
    // A deterministic simulation of a LAN-connected cluster.
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(2026).network(NetworkConfig::lan()).build();

    // 3 manager nodes (one will be elected Group Leader), 8 physical
    // nodes, 1 entry point.
    let config = SnoozeConfig::default();
    let nodes = NodeSpec::standard_cluster(8);
    let system = SnoozeSystem::deploy(&mut sim, &config, 3, &nodes, 1);

    // A client submitting six 2-core / 4 GB VMs at t = 30 s.
    let schedule: Vec<ScheduledVm> = (0..6)
        .map(|i| ScheduledVm {
            at: SimTime::from_secs(30),
            spec: VmSpec::new(VmId(i), ResourceVector::new(2.0, 4096.0, 100.0, 100.0)),
            workload: VmWorkload {
                cpu: UsageShape::Constant(0.6),
                memory: UsageShape::Constant(0.7),
                network: UsageShape::Constant(0.3),
                seed: i,
            },
            lifetime: None,
        })
        .collect();
    let client = sim.add_component(
        "client",
        ClientDriver::new(system.eps[0], schedule, SimSpan::from_secs(10)),
    );

    // Run five simulated minutes.
    sim.run_until(SimTime::from_secs(300));

    // Inspect the outcome.
    let gl = system.current_gl(&sim).expect("a GL was elected");
    println!("Group Leader : {} ({gl:?})", sim.name_of(gl));
    for gm in system.active_gms(&sim) {
        let g = sim.component(gm).as_gm().unwrap();
        println!(
            "Group Manager: {} — {} LCs, {} VMs",
            sim.name_of(gm),
            g.lc_count(),
            g.vm_count()
        );
    }

    let c = sim.component(client).as_client().unwrap();
    println!("\nPlacements ({} of 6):", c.placed.len());
    for ack in &c.placed {
        println!(
            "  {:?} -> {} (latency {:.2}s)",
            ack.vm,
            sim.name_of(ack.lc),
            ack.latency.as_secs_f64()
        );
    }

    let (on, transitioning, low) = system.power_census(&sim);
    println!("\nPower census : {on} on, {transitioning} transitioning, {low} suspended");
    println!(
        "Cluster energy so far: {:.1} Wh",
        system.total_energy_wh(&sim, 0, sim.now())
    );
}
