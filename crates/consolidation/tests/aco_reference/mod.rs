//! The naive ACO colony, frozen: the per-item construction kernel and the
//! item-major pheromone matrix exactly as they stood before the
//! demand-class memoised kernel replaced them in `src/aco.rs`, minus the
//! advisory wall-clock timers and audit hooks. Every candidate's
//! `τ^α · η^β` is recomputed from scratch with two `powf` calls. Kept
//! only so `properties.rs` can assert the shipped kernel reproduces it
//! bit for bit — do not optimise this file. The colony loop states the
//! shipped stop at the lower bound in its plainest form, and can run
//! without it: the full colony the stop is held to.

use snooze_cluster::resources::ResourceVector;
use snooze_consolidation::aco::{AcoParams, UpdateRule};
use snooze_consolidation::problem::{Instance, Solution};
use snooze_simcore::rng::SimRng;

/// The deterministic surface of an `AcoRun`.
#[derive(Debug, PartialEq, Eq)]
pub struct ReferenceRun {
    pub solution: Option<Solution>,
    pub best_bins_per_cycle: Vec<usize>,
    pub failed_ants: usize,
    pub construction_steps: u64,
    pub evaluation_comparisons: u64,
    pub evaporation_updates: u64,
}

struct PheromoneMatrix {
    tau: Vec<f64>,
    n_bins: usize,
}

impl PheromoneMatrix {
    fn new(n_items: usize, n_bins: usize, tau0: f64) -> Self {
        PheromoneMatrix {
            tau: vec![tau0; n_items * n_bins],
            n_bins,
        }
    }

    fn get(&self, item: usize, bin: usize) -> f64 {
        self.tau[item * self.n_bins + bin]
    }

    fn evaporate(&mut self, rho: f64, tau_min: f64) -> u64 {
        for t in &mut self.tau {
            *t = ((1.0 - rho) * *t).max(tau_min);
        }
        self.tau.len() as u64
    }

    fn deposit(&mut self, item: usize, bin: usize, amount: f64, tau_max: f64) {
        let t = &mut self.tau[item * self.n_bins + bin];
        *t = (*t + amount).min(tau_max);
    }
}

/// The colony loop of `AcoConsolidator::run` over the naive kernel.
pub fn run(p: AcoParams, instance: &Instance) -> ReferenceRun {
    colony(p, instance, true)
}

/// The colony loop, stopping after the first cycle whose global best uses
/// at most `instance.lower_bound()` hosts when `stop_at_lower_bound` is
/// set, every host has the same capacity and no item or host has a
/// negative component; every one of `n_cycles` cycles otherwise.
pub fn colony(p: AcoParams, instance: &Instance, stop_at_lower_bound: bool) -> ReferenceRun {
    let n_items = instance.n_items();
    let mut out = ReferenceRun {
        solution: Some(Solution { assignment: vec![] }),
        best_bins_per_cycle: vec![],
        failed_ants: 0,
        construction_steps: 0,
        evaluation_comparisons: 0,
        evaporation_updates: 0,
    };
    if n_items == 0 {
        return out;
    }
    let mut pheromone = PheromoneMatrix::new(n_items, instance.n_bins(), p.tau0);
    let master = SimRng::new(p.seed);
    let mut global_best: Option<(Solution, usize, f64)> = None; // (sol, bins, util)

    for cycle in 0..p.n_cycles {
        let candidates: Vec<(Option<Solution>, u64)> = (0..p.n_ants)
            .map(|ant| {
                let mut rng = master.fork((cycle * p.n_ants + ant) as u64 + 1);
                construct_solution(instance, &pheromone, &p, &mut rng)
            })
            .collect();
        out.construction_steps += candidates.iter().map(|(_, steps)| steps).sum::<u64>();

        let mut cycle_solutions: Vec<Solution> = Vec::new();
        for (sol, _) in candidates {
            match sol {
                Some(sol) => {
                    out.evaluation_comparisons += 1;
                    let bins = sol.bins_used();
                    let util = sol.avg_used_bin_utilization(instance);
                    let better = match &global_best {
                        None => true,
                        Some((_, gb, gu)) => bins < *gb || (bins == *gb && util > *gu),
                    };
                    if better {
                        global_best = Some((sol.clone(), bins, util));
                    }
                    cycle_solutions.push(sol);
                }
                None => out.failed_ants += 1,
            }
        }

        out.evaporation_updates += pheromone.evaporate(p.rho, p.tau_min);
        match p.update_rule {
            UpdateRule::GlobalBest => {
                if let Some((sol, bins, _)) = &global_best {
                    let amount = p.q / (*bins as f64).max(1.0);
                    for (item, &bin) in sol.assignment.iter().enumerate() {
                        pheromone.deposit(item, bin, amount, p.tau0 * 10.0);
                    }
                    out.evaporation_updates += sol.assignment.len() as u64;
                }
            }
            UpdateRule::AllAnts => {
                for sol in &cycle_solutions {
                    let amount = p.q / (sol.bins_used() as f64).max(1.0);
                    for (item, &bin) in sol.assignment.iter().enumerate() {
                        pheromone.deposit(item, bin, amount, p.tau0 * 10.0);
                    }
                    out.evaporation_updates += sol.assignment.len() as u64;
                }
            }
        }
        out.best_bins_per_cycle.push(
            global_best
                .as_ref()
                .map(|(_, b, _)| *b)
                .unwrap_or(usize::MAX),
        );
        let non_negative = instance
            .items
            .iter()
            .chain(&instance.bins)
            .all(|v| !v.to_array().iter().any(|x| *x < 0.0));
        if stop_at_lower_bound
            && instance.is_homogeneous()
            && non_negative
            && global_best
                .as_ref()
                .is_some_and(|(_, bins, _)| *bins <= instance.lower_bound())
        {
            break;
        }
    }

    out.solution = global_best.map(|(s, _, _)| s);
    out
}

/// One ant's solution construction — the pre-memo kernel, verbatim.
fn construct_solution(
    instance: &Instance,
    pheromone: &PheromoneMatrix,
    p: &AcoParams,
    rng: &mut SimRng,
) -> (Option<Solution>, u64) {
    let mut steps = 0u64;
    let n_items = instance.n_items();
    let mut unassigned: Vec<usize> = (0..n_items).collect();
    let mut assignment = vec![usize::MAX; n_items];
    let mut bin = 0usize;
    let Some(&first_bin) = instance.bins.first() else {
        return (None, steps);
    };
    let mut residual = first_bin;

    // Scratch buffers reused across iterations (allocation-conscious: the
    // inner loop runs n_items times per ant).
    let mut candidates: Vec<usize> = Vec::with_capacity(n_items);
    let mut weights: Vec<f64> = Vec::with_capacity(n_items);

    while !unassigned.is_empty() {
        candidates.clear();
        weights.clear();
        for (slot, &item) in unassigned.iter().enumerate() {
            if instance.items[item].fits_within(&residual) {
                candidates.push(slot);
                let eta = heuristic(&instance.items[item], &residual, &instance.bins[bin]);
                let tau = pheromone.get(item, bin);
                weights.push(tau.powf(p.alpha) * eta.powf(p.beta));
            }
        }
        steps += 1;
        if candidates.is_empty() {
            // Current bin is as full as this ant can make it — move on.
            bin += 1;
            if bin >= instance.n_bins() {
                return (None, steps); // out of hosts
            }
            residual = instance.bins[bin];
            continue;
        }
        let pick = rng.weighted_index(&weights).unwrap_or(0);
        let slot = candidates[pick];
        let item = unassigned.swap_remove(slot);
        assignment[item] = bin;
        residual = residual.saturating_sub(&instance.items[item]);
    }
    (Some(Solution { assignment }), steps)
}

fn heuristic(item: &ResourceVector, residual: &ResourceVector, capacity: &ResourceVector) -> f64 {
    let slack_after = residual.saturating_sub(item).normalize_by(capacity).l1();
    1.0 / (1.0 + slack_after)
}
