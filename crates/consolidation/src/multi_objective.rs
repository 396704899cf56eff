//! Migration-cost-aware multi-objective consolidation (after the
//! decentralized multi-objective ACO of arxiv 1706.06646).
//!
//! Pure bin-minimisation treats migrations as free; a live datacenter
//! does not. This consolidator optimises a weighted objective
//! `bins_used + migration_weight · migration_count` against the
//! incumbent placement carried by the [`Instance`]: it runs the ACO
//! colony for packing quality, then greedily *reverts* planned
//! migrations that don't pay for themselves — an item goes back to its
//! incumbent bin whenever that keeps the solution feasible and does not
//! worsen the weighted objective. Against an identical incumbent the
//! result is migration-free; without an incumbent it degrades to plain
//! ACO.

use crate::aco::{AcoConsolidator, AcoParams};
use crate::problem::{Consolidator, Instance, Solution};

/// Parameters of the migration-aware scheme.
#[derive(Clone, Copy, Debug)]
pub struct MigrationAwareParams {
    /// Colony parameters for the packing stage.
    pub aco: AcoParams,
    /// How many freed bins one migration is worth. A revert is kept when
    /// it costs fewer than `1 / migration_weight` … i.e. when
    /// `Δbins + migration_weight · Δmigrations ≤ 0`.
    pub migration_weight: f64,
}

impl Default for MigrationAwareParams {
    fn default() -> Self {
        MigrationAwareParams {
            aco: AcoParams::default(),
            // A migration is worth 1/20 of a freed host: reverts that
            // leave the host count alone are always taken, and packing
            // one extra host must save at least 20 migrations.
            migration_weight: 0.05,
        }
    }
}

/// The migration-cost-aware consolidator.
#[derive(Clone, Copy, Debug, Default)]
pub struct MigrationAwareAco {
    /// Scheme parameters.
    pub params: MigrationAwareParams,
}

impl MigrationAwareAco {
    /// A consolidator with the given parameters.
    pub fn new(params: MigrationAwareParams) -> Self {
        MigrationAwareAco { params }
    }

    /// The weighted objective this consolidator minimises.
    pub fn objective(&self, solution: &Solution, incumbent: &[usize]) -> f64 {
        solution.bins_used() as f64
            + self.params.migration_weight * solution.migration_count(incumbent) as f64
    }
}

impl Consolidator for MigrationAwareAco {
    fn consolidate(&self, instance: &Instance) -> Option<Solution> {
        let mut solution = AcoConsolidator::new(self.params.aco).consolidate(instance)?;
        let Some(incumbent) = instance.incumbent.as_ref() else {
            return Some(solution); // nothing to weigh churn against
        };

        let mut loads = solution.bin_loads(instance);
        // Revert candidates, costliest items first: large-memory VMs are
        // the most expensive to pre-copy, so spare them preferentially.
        let mut movers: Vec<usize> = (0..instance.n_items())
            .filter(|&i| solution.assignment[i] != incumbent[i])
            .collect();
        movers.sort_by(|&a, &b| {
            instance.items[b]
                .memory
                .total_cmp(&instance.items[a].memory)
                .then(a.cmp(&b))
        });

        for &item in &movers {
            let home = incumbent[item];
            if home >= instance.n_bins() {
                continue; // incumbent host left the instance
            }
            let demand = instance.items[item];
            if !(loads[home] + demand).fits_within(&instance.bins[home]) {
                continue;
            }
            let planned = solution.assignment[item];
            let before = self.objective(&solution, incumbent);
            solution.assignment[item] = home;
            let after_loads_home = loads[home] + demand;
            let after_loads_planned = loads[planned].saturating_sub(&demand);
            let after = self.objective(&solution, incumbent);
            if after <= before {
                loads[home] = after_loads_home;
                loads[planned] = after_loads_planned;
            } else {
                solution.assignment[item] = planned; // revert the revert
            }
        }

        debug_assert!(solution.is_feasible(instance));
        Some(solution)
    }

    fn name(&self) -> &'static str {
        "MO-ACO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::InstanceGenerator;
    use snooze_simcore::rng::SimRng;

    fn fast() -> MigrationAwareParams {
        MigrationAwareParams {
            aco: AcoParams::fast(),
            ..MigrationAwareParams::default()
        }
    }

    #[test]
    fn identical_incumbent_costs_zero_migrations_when_already_packed() {
        // Incumbent = the packing ACO itself would produce: every planned
        // move is a no-win churn and gets reverted.
        let gen = InstanceGenerator::grid11();
        let mut inst = gen.generate(30, &mut SimRng::new(5));
        let packed = AcoConsolidator::new(fast().aco).consolidate(&inst).unwrap();
        inst.incumbent = Some(packed.assignment.clone());
        let sol = MigrationAwareAco::new(fast()).consolidate(&inst).unwrap();
        assert!(sol.is_feasible(&inst));
        assert_eq!(sol.migration_count(&packed.assignment), 0);
    }

    #[test]
    fn cuts_migrations_without_losing_bins() {
        let gen = InstanceGenerator::grid11();
        for seed in 0..4 {
            let mut inst = gen.generate(36, &mut SimRng::new(40 + seed));
            // Incumbent: round-robin spread — plenty of nominal movement.
            let incumbent: Vec<usize> = (0..inst.n_items()).map(|i| i % inst.n_bins()).collect();
            inst.incumbent = Some(incumbent.clone());
            let plain = AcoConsolidator::new(fast().aco).consolidate(&inst).unwrap();
            let aware = MigrationAwareAco::new(fast()).consolidate(&inst).unwrap();
            assert!(aware.is_feasible(&inst), "seed {seed}");
            assert!(
                aware.bins_used() <= plain.bins_used(),
                "seed {seed}: reverts must never add bins"
            );
            assert!(
                aware.migration_count(&incumbent) <= plain.migration_count(&incumbent),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn without_incumbent_equals_plain_aco() {
        let gen = InstanceGenerator::grid11();
        let inst = gen.generate(25, &mut SimRng::new(9));
        let plain = AcoConsolidator::new(fast().aco).consolidate(&inst).unwrap();
        let aware = MigrationAwareAco::new(fast()).consolidate(&inst).unwrap();
        assert_eq!(plain, aware);
    }

    #[test]
    fn migration_metrics_count_and_weigh_moves() {
        let sol = Solution {
            assignment: vec![0, 0],
        };
        assert_eq!(sol.migration_count(&[0, 0]), 0);
        assert_eq!(sol.migration_count(&[0, 1]), 1);
        assert_eq!(sol.migration_count(&[1, 1]), 2);
    }
}
