//! Consolidation-algorithm shoot-out on one GRID'11-style instance:
//! the FFD family, best/worst-fit, the ACO colony (sequential and
//! distributed), and — when the instance is small enough — the exact
//! branch-and-bound optimum.
//!
//! ```text
//! cargo run --release --example consolidation_comparison -- [n_vms] [seed]
//! ```

use std::time::Instant;

use snooze_cluster::power::LinearPower;
use snooze_consolidation::aco::{AcoConsolidator, AcoParams};
use snooze_consolidation::distributed::{DistributedAco, DistributedParams};
use snooze_consolidation::energy::{compute_energy_j, placement_energy_wh, EnergyParams};
use snooze_consolidation::exact::BranchAndBound;
use snooze_consolidation::ffd::{BestFit, FirstFitDecreasing, SortKey, WorstFit};
use snooze_consolidation::problem::{Consolidator, InstanceGenerator};
use snooze_simcore::rng::SimRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(30);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);

    let gen = InstanceGenerator::grid11();
    let instance = gen.generate(n, &mut SimRng::new(seed));
    let power = LinearPower::grid5000();
    println!(
        "Instance: {} VMs, {} hosts available, lower bound {} hosts\n",
        instance.n_items(),
        instance.n_bins(),
        instance.lower_bound()
    );
    println!(
        "{:<22} {:>6} {:>8} {:>12} {:>12}",
        "algorithm", "hosts", "util", "energy Wh", "runtime ms"
    );

    let algos: Vec<Box<dyn Consolidator>> = vec![
        Box::new(FirstFitDecreasing { key: SortKey::Cpu }),
        Box::new(FirstFitDecreasing { key: SortKey::L2 }),
        Box::new(BestFit { key: SortKey::L2 }),
        Box::new(WorstFit { key: SortKey::L2 }),
        Box::new(AcoConsolidator::new(AcoParams::default())),
        Box::new(DistributedAco::new(DistributedParams::default())),
    ];

    for algo in &algos {
        let start = Instant::now();
        match algo.consolidate(&instance) {
            Some(sol) => {
                let elapsed = start.elapsed().as_secs_f64();
                assert!(
                    sol.is_feasible(&instance),
                    "{} produced infeasible",
                    algo.name()
                );
                let wh = placement_energy_wh(
                    &instance,
                    &sol,
                    &EnergyParams {
                        power: &power,
                        duration_secs: 3600.0,
                        compute_overhead_j: compute_energy_j(elapsed, 250.0),
                    },
                );
                println!(
                    "{:<22} {:>6} {:>7.1}% {:>12.2} {:>12.2}",
                    algo.name(),
                    sol.bins_used(),
                    sol.avg_used_bin_utilization(&instance) * 100.0,
                    wh,
                    elapsed * 1e3
                );
            }
            None => println!("{:<22} {:>6}", algo.name(), "—"),
        }
    }

    if n <= 30 {
        let start = Instant::now();
        let out = BranchAndBound {
            node_budget: 2_000_000,
        }
        .solve(&instance);
        let elapsed = start.elapsed().as_secs_f64();
        if let Some(sol) = out.solution {
            println!(
                "{:<22} {:>6} {:>7.1}% {:>12} {:>12.2}   ({} nodes{})",
                "B&B optimum",
                sol.bins_used(),
                sol.avg_used_bin_utilization(&instance) * 100.0,
                "-",
                elapsed * 1e3,
                out.nodes,
                if out.optimal {
                    ", proven optimal"
                } else {
                    ", budget hit"
                }
            );
        }
    } else {
        println!("\n(n > 30: skipping the exact solver)");
    }
}
