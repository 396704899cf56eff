//! **E2 — scaling beyond exactly solvable sizes** (paper §III-B / \[10\]).
//!
//! The GRID'11 evaluation also compares ACO and FFD where CPLEX can no
//! longer certify optima. The comparison sweeps instance sizes and
//! reports hosts, utilization, energy and algorithm runtime for the FFD
//! family and ACO.

use std::time::Instant;

use snooze_cluster::power::LinearPower;
use snooze_consolidation::aco::{AcoConsolidator, AcoParams};
use snooze_consolidation::energy::{compute_energy_j, placement_energy_wh, EnergyParams};
use snooze_consolidation::ffd::{BestFit, FirstFitDecreasing, SortKey};
use snooze_consolidation::problem::{Consolidator, InstanceGenerator};
use snooze_simcore::rng::SimRng;

use crate::table::{f2, pct, Table};
use crate::{PLACEMENT_HOLD_SECS, SOLVER_MACHINE_WATTS};

/// One algorithm's aggregate at one size.
#[derive(Clone, Debug)]
pub struct E2Cell {
    /// Algorithm display name.
    pub algo: &'static str,
    /// Mean hosts used.
    pub hosts: f64,
    /// Mean utilization of used hosts.
    pub util: f64,
    /// Mean placement + compute energy, Wh.
    pub energy_wh: f64,
    /// Mean solve wall-time, milliseconds.
    pub runtime_ms: f64,
}

/// All algorithms at one size.
#[derive(Clone, Debug)]
pub struct E2Row {
    /// Number of VMs.
    pub n: usize,
    /// Per-algorithm results.
    pub cells: Vec<E2Cell>,
}

/// Run E2 at the given sizes.
pub fn run(sizes: &[usize], repeats: u64, base_seed: u64) -> Vec<E2Row> {
    let gen = InstanceGenerator::grid11();
    let power = LinearPower::grid5000();
    let algos: Vec<(&'static str, Box<dyn Consolidator>)> = vec![
        (
            "FFD-cpu",
            Box::new(FirstFitDecreasing { key: SortKey::Cpu }),
        ),
        ("FFD-l2", Box::new(FirstFitDecreasing { key: SortKey::L2 })),
        ("BFD", Box::new(BestFit { key: SortKey::L2 })),
        ("ACO", Box::new(AcoConsolidator::new(AcoParams::default()))),
    ];

    sizes
        .iter()
        .map(|&n| {
            let mut cells: Vec<E2Cell> = algos
                .iter()
                .map(|(name, _)| E2Cell {
                    algo: name,
                    hosts: 0.0,
                    util: 0.0,
                    energy_wh: 0.0,
                    runtime_ms: 0.0,
                })
                .collect();
            for rep in 0..repeats {
                let mut rng = SimRng::new(base_seed ^ ((n as u64) << 20) ^ rep);
                let instance = gen.generate(n, &mut rng);
                for (i, (_, algo)) in algos.iter().enumerate() {
                    let start = Instant::now();
                    let sol = algo.consolidate(&instance).expect("solvable");
                    let elapsed = start.elapsed().as_secs_f64();
                    cells[i].hosts += sol.bins_used() as f64;
                    cells[i].util += sol.avg_used_bin_utilization(&instance);
                    cells[i].runtime_ms += elapsed * 1e3;
                    cells[i].energy_wh += placement_energy_wh(
                        &instance,
                        &sol,
                        &EnergyParams {
                            power: &power,
                            duration_secs: PLACEMENT_HOLD_SECS,
                            compute_overhead_j: compute_energy_j(elapsed, SOLVER_MACHINE_WATTS),
                        },
                    );
                }
            }
            for c in &mut cells {
                let k = repeats as f64;
                c.hosts /= k;
                c.util /= k;
                c.energy_wh /= k;
                c.runtime_ms /= k;
            }
            E2Row { n, cells }
        })
        .collect()
}

/// Default configuration used by `run_experiments e2`.
pub fn default_rows() -> Vec<E2Row> {
    run(&[50, 100, 200, 400], 3, 0xE2)
}

/// Render the table.
pub fn render(rows: &[E2Row]) -> Table {
    let mut t = Table::new(
        "E2: scaling — hosts / utilization / energy / runtime per algorithm",
        &["n", "algo", "hosts", "util", "energy Wh", "runtime ms"],
    );
    for r in rows {
        for c in &r.cells {
            t.row(vec![
                r.n.to_string(),
                c.algo.to_string(),
                f2(c.hosts),
                pct(c.util),
                f2(c.energy_wh),
                f2(c.runtime_ms),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aco_wins_or_ties_on_hosts_at_scale() {
        let rows = run(&[60], 2, 11);
        let row = &rows[0];
        let get = |name: &str| row.cells.iter().find(|c| c.algo == name).unwrap();
        let aco = get("ACO");
        let ffd = get("FFD-cpu");
        assert!(
            aco.hosts <= ffd.hosts + 1e-9,
            "ACO {} vs FFD {}",
            aco.hosts,
            ffd.hosts
        );
        assert!(
            aco.energy_wh <= ffd.energy_wh * 1.02,
            "energy should track host count"
        );
        // Greedy baselines are orders of magnitude faster — that's the
        // trade-off the paper acknowledges.
        assert!(aco.runtime_ms > ffd.runtime_ms);
    }
}
