//! **E1 — ACO vs FFD vs optimal** (paper §III-B).
//!
//! The paper's headline table: "compared to FFD, the ACO-based approach
//! utilizes lower amounts of hosts and thus yields to superior average
//! host utilization and energy gains. Thereby, on average 4.7% of hosts
//! and 4.1% of energy were conserved (including energy spent into the
//! computation). Moreover, the proposed algorithm achieves nearly optimal
//! solutions (i.e. 1.1% deviation)."
//!
//! Instance sizes stay small (n ≤ 40), as the paper limited its CPLEX
//! runs, but the branch-and-bound solver does not certify every instance
//! inside its node budget: from n = 25 up some searches run out and return
//! an incumbent, not an optimum. The `OPT hosts` and `dev. vs opt` columns
//! average only the instances whose optimum was proven; `proven` says how
//! many that is.

use std::time::Instant;

use snooze_cluster::power::LinearPower;
use snooze_consolidation::aco::{AcoConsolidator, AcoParams};
use snooze_consolidation::energy::{compute_energy_j, placement_energy_wh, EnergyParams};
use snooze_consolidation::exact::BranchAndBound;
use snooze_consolidation::ffd::{FirstFitDecreasing, SortKey};
use snooze_consolidation::problem::{Consolidator, InstanceGenerator};
use snooze_simcore::rng::SimRng;

use crate::table::{f2, pct, Table};
use crate::{PLACEMENT_HOLD_SECS, SOLVER_MACHINE_WATTS};

/// Per-size aggregate results.
#[derive(Clone, Debug)]
pub struct E1Row {
    /// Number of VMs in the instance.
    pub n: usize,
    /// Mean hosts used by FFD (CPU presort — the paper's baseline).
    pub ffd_hosts: f64,
    /// Mean hosts used by ACO.
    pub aco_hosts: f64,
    /// Instances whose optimum the solver proved within its node budget.
    pub proven: u64,
    /// Instances run.
    pub repeats: u64,
    /// Mean optimal host count over the proven instances (`None`: none).
    pub opt_hosts: Option<f64>,
    /// Mean utilization of used hosts, FFD.
    pub ffd_util: f64,
    /// Mean utilization of used hosts, ACO.
    pub aco_util: f64,
    /// Mean energy (Wh) of the FFD placement incl. compute.
    pub ffd_energy_wh: f64,
    /// Mean energy (Wh) of the ACO placement incl. compute.
    pub aco_energy_wh: f64,
    /// Fraction of hosts ACO saves vs FFD.
    pub hosts_saved: f64,
    /// Fraction of energy ACO saves vs FFD.
    pub energy_saved: f64,
    /// ACO's deviation from the optimum (fraction of hosts), ACO hosts
    /// over optimal hosts on the proven instances (`None`: none).
    pub deviation_from_opt: Option<f64>,
}

/// Run E1 over the given sizes with `repeats` random instances per size.
pub fn run(sizes: &[usize], repeats: u64, base_seed: u64) -> Vec<E1Row> {
    let gen = InstanceGenerator::grid11();
    let power = LinearPower::grid5000();
    let mut rows = Vec::new();

    for &n in sizes {
        let mut acc = E1Row {
            n,
            ffd_hosts: 0.0,
            aco_hosts: 0.0,
            proven: 0,
            repeats,
            opt_hosts: None,
            ffd_util: 0.0,
            aco_util: 0.0,
            ffd_energy_wh: 0.0,
            aco_energy_wh: 0.0,
            hosts_saved: 0.0,
            energy_saved: 0.0,
            deviation_from_opt: None,
        };
        // Host counts summed over the proven instances only.
        let (mut proven_opt, mut proven_aco) = (0usize, 0usize);
        for rep in 0..repeats {
            let mut rng = SimRng::new(base_seed ^ (n as u64) << 16 ^ rep);
            let instance = gen.generate(n, &mut rng);

            let measure = |algo: &dyn Consolidator| {
                let start = Instant::now();
                let sol = algo.consolidate(&instance).expect("solvable instance");
                let elapsed = start.elapsed().as_secs_f64();
                let energy = placement_energy_wh(
                    &instance,
                    &sol,
                    &EnergyParams {
                        power: &power,
                        duration_secs: PLACEMENT_HOLD_SECS,
                        compute_overhead_j: compute_energy_j(elapsed, SOLVER_MACHINE_WATTS),
                    },
                );
                (sol, energy)
            };

            let (ffd_sol, ffd_wh) = measure(&FirstFitDecreasing { key: SortKey::Cpu });
            let aco = AcoConsolidator::new(AcoParams {
                seed: rep ^ 0xE1,
                ..AcoParams::default()
            });
            let (aco_sol, aco_wh) = measure(&aco);
            // An exhausted budget returns the FFD-seeded incumbent with
            // `optimal = false`: not an optimum, so not in the OPT columns.
            let exact = BranchAndBound::default().solve(&instance);
            if let (true, Some(opt)) = (exact.optimal, &exact.solution) {
                acc.proven += 1;
                proven_opt += opt.bins_used();
                proven_aco += aco_sol.bins_used();
            }

            acc.ffd_hosts += ffd_sol.bins_used() as f64;
            acc.aco_hosts += aco_sol.bins_used() as f64;
            acc.ffd_util += ffd_sol.avg_used_bin_utilization(&instance);
            acc.aco_util += aco_sol.avg_used_bin_utilization(&instance);
            acc.ffd_energy_wh += ffd_wh;
            acc.aco_energy_wh += aco_wh;
        }
        let k = repeats as f64;
        acc.ffd_hosts /= k;
        acc.aco_hosts /= k;
        acc.ffd_util /= k;
        acc.aco_util /= k;
        acc.ffd_energy_wh /= k;
        acc.aco_energy_wh /= k;
        acc.hosts_saved = 1.0 - acc.aco_hosts / acc.ffd_hosts;
        acc.energy_saved = 1.0 - acc.aco_energy_wh / acc.ffd_energy_wh;
        if acc.proven > 0 {
            acc.opt_hosts = Some(proven_opt as f64 / acc.proven as f64);
            acc.deviation_from_opt = Some(proven_aco as f64 / proven_opt as f64 - 1.0);
        }
        rows.push(acc);
    }
    rows
}

/// Default configuration used by `run_experiments e1`.
pub fn default_rows() -> Vec<E1Row> {
    run(&[10, 15, 20, 25, 30, 35, 40], 5, 0xE1)
}

/// Render rows as the experiment table.
pub fn render(rows: &[E1Row]) -> Table {
    let mut t = Table::new(
        "E1: ACO vs FFD(cpu) vs optimal — hosts / utilization / energy (paper: 4.7% hosts, 4.1% energy saved; 1.1% from optimal)",
        &[
            "n", "FFD hosts", "ACO hosts", "proven", "OPT hosts", "FFD util", "ACO util",
            "FFD Wh", "ACO Wh", "hosts saved", "energy saved", "dev. vs opt",
        ],
    );
    let dash = || "—".to_string();
    for r in rows {
        t.row(vec![
            r.n.to_string(),
            f2(r.ffd_hosts),
            f2(r.aco_hosts),
            format!("{}/{}", r.proven, r.repeats),
            r.opt_hosts.map_or_else(dash, f2),
            pct(r.ffd_util),
            pct(r.aco_util),
            f2(r.ffd_energy_wh),
            f2(r.aco_energy_wh),
            pct(r.hosts_saved),
            pct(r.energy_saved),
            r.deviation_from_opt.map_or_else(dash, pct),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper_claims() {
        // Small but real run: ACO ≥ as good as FFD, near-optimal.
        let rows = run(&[12, 18, 24], 3, 7);
        let mean_hosts_saved: f64 =
            rows.iter().map(|r| r.hosts_saved).sum::<f64>() / rows.len() as f64;
        // Not every instance is proven even here (one n = 24 search runs
        // out of budget); the optimum columns cover the proven ones.
        assert_eq!(rows[0].proven, rows[0].repeats, "n = 12 is easy");
        let devs: Vec<f64> = rows.iter().filter_map(|r| r.deviation_from_opt).collect();
        let mean_dev: f64 = devs.iter().sum::<f64>() / devs.len() as f64;
        assert!(
            mean_hosts_saved >= 0.0,
            "ACO must not lose to FFD: {mean_hosts_saved}"
        );
        assert!(
            mean_dev <= 0.10,
            "ACO should be within 10% of optimal, got {mean_dev}"
        );
        for r in &rows {
            assert!(
                r.deviation_from_opt.is_none_or(|d| d >= -1e-9),
                "nothing beats a proven optimum"
            );
            assert!(
                r.aco_util >= r.ffd_util - 1e-9,
                "fewer hosts ⇒ higher utilization"
            );
        }
    }

    #[test]
    fn render_has_row_per_size() {
        let rows = run(&[10, 14], 2, 3);
        assert_eq!(render(&rows).len(), 2);
    }
}
