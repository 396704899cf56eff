//! Energy-aware datacenter demo: a staggered, partly terminating
//! workload on a 16-node cluster, with underload relocation, idle
//! suspension and periodic ACO consolidation. Prints a power timeline
//! and the final energy bill against a no-power-management baseline.
//!
//! ```text
//! cargo run --release --example datacenter_energy
//! ```

use snooze::prelude::*;
use snooze::scheduling::placement::PlacementKind;
use snooze::scheduling::reconfiguration::ReconfigurationConfig;
use snooze_cluster::node::NodeSpec;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::{UsageShape, VmWorkload};
use snooze_consolidation::aco::{AcoConsolidator, AcoParams};
use snooze_simcore::prelude::*;

fn schedule(seed: u64) -> Vec<ScheduledVm> {
    let mut rng = snooze_simcore::rng::SimRng::new(seed);
    (0..24)
        .map(|i| {
            let cores = rng.uniform(1.0, 3.0);
            let mem = rng.uniform(2048.0, 6144.0);
            let mut spec = VmSpec::new(VmId(i), ResourceVector::new(cores, mem, 100.0, 100.0));
            spec.image_mb = 1024.0;
            ScheduledVm {
                at: SimTime::from_secs(60) + SimSpan::from_secs(rng.range(0, 900) as u64),
                spec,
                workload: VmWorkload {
                    cpu: UsageShape::diurnal(
                        0.1,
                        rng.uniform(0.6, 0.9),
                        SimSpan::from_secs(3600),
                        rng.f64(),
                    ),
                    memory: UsageShape::Constant(0.8),
                    network: UsageShape::Constant(0.2),
                    seed: i,
                },
                lifetime: (i % 2 == 0).then(|| SimSpan::from_secs(rng.range(1800, 3600) as u64)),
            }
        })
        .collect()
}

fn run(label: &str, config: SnoozeConfig, print_timeline: bool) -> f64 {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(99).network(NetworkConfig::lan()).build();
    let nodes = NodeSpec::standard_cluster(16);
    let system = SnoozeSystem::deploy(&mut sim, &config, 3, &nodes, 1);
    let _client = sim.add_component(
        "client",
        ClientDriver::new(system.eps[0], schedule(1), SimSpan::from_secs(15)),
    );

    let horizon = SimTime::from_secs(2 * 3600);
    if print_timeline {
        println!("\n[{label}] power timeline (1 char per node: #=on .=suspended ~=transitioning)");
    }
    while sim.now() < horizon {
        sim.run_until(sim.now() + SimSpan::from_secs(600));
        if print_timeline {
            let mut line = String::new();
            for &lc in &system.lcs {
                let l = sim.component(lc).as_lc().unwrap();
                line.push(match l.power_state() {
                    snooze_cluster::node::PowerState::On => '#',
                    s if s.is_low_power() => '.',
                    _ => '~',
                });
            }
            println!(
                "  t={:>5}s  {}  ({} VMs, {:7.1} Wh)",
                sim.now().as_micros() / 1_000_000,
                line,
                system.total_vms(&sim),
                system.total_energy_wh(&sim, 0, sim.now())
            );
        }
    }
    let wh = system.total_energy_wh(&sim, 0, horizon);
    println!("[{label}] total energy over 2 h: {wh:.1} Wh");
    wh
}

fn main() {
    let base = SnoozeConfig {
        placement: PlacementKind::RoundRobin,
        ..SnoozeConfig::default()
    };

    let baseline = run(
        "no power mgmt",
        SnoozeConfig {
            idle_suspend_after: None,
            ..base.clone()
        },
        false,
    );
    let managed = run(
        "snooze (suspend + ACO reconf)",
        SnoozeConfig {
            idle_suspend_after: Some(SimSpan::from_secs(120)),
            reconfiguration: Some(ReconfigurationConfig {
                period: SimSpan::from_secs(900),
                algo: "aco".into(),
                consolidator: std::sync::Arc::new(AcoConsolidator::new(AcoParams {
                    n_cycles: 15,
                    ..AcoParams::default()
                })),
                max_migrations: 12,
            }),
            ..base
        },
        true,
    );

    println!(
        "\nEnergy saved by Snooze's power management: {:.1}%",
        (1.0 - managed / baseline) * 100.0
    );
}
