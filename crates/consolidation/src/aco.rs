//! The ACO-based VM consolidation algorithm (paper §III-A).
//!
//! Reproduces the algorithm of the GRID'11 companion paper (Feller,
//! Rilling, Morin — "Energy-aware ant colony based workload placement in
//! clouds"), as summarized in the PhD-forum paper:
//!
//! > "multiple agents (i.e. artificial ants) compute solutions
//! > probabilistically and simultaneously within multiple cycles. Thereby,
//! > they communicate indirectly by depositing … pheromone on each VM–LC
//! > pair within a pheromone matrix. In each cycle the ants receive VMs,
//! > and start constructing local solutions (i.e. VM to LC assignments) by
//! > the use of a probabilistic decision rule … based on the current
//! > pheromone concentration … and a heuristic information which guides
//! > the ants towards choosing VMs leading to better overall LC
//! > utilization. … At the end of each cycle, local solutions are compared
//! > and the one requiring the least number of LCs is saved as the new
//! > globally optimal solution. Afterwards, the pheromone matrix is
//! > updated to simulate pheromone evaporation and reinforce VM–LC pairs
//! > which belonged to the so-far best solution."
//!
//! Each ant packs bins one at a time: among the still-unassigned VMs that
//! fit the current bin's residual capacity, it draws one with probability
//! proportional to `τ(vm, bin)^α · η(vm, residual)^β`, where the heuristic
//! η rewards choices that leave little slack (better bin utilization).
//! When nothing fits, the ant moves to the next bin. Max–Min-style
//! pheromone bounds keep the colony from stagnating.
//!
//! The ants of one cycle are independent by construction — each only
//! reads the shared pheromone matrix and the per-run kernel tables, draws
//! from its own RNG stream forked from the cycle and ant index, and the
//! cycle reduces its candidates in ant order — and they run one after the
//! other: threads over the ant loop were measured and did not pay
//! end to end (EXPERIMENTS.md, E3).
//!
//! # The construction kernel
//!
//! Live instances are built from a handful of VM flavours, so most
//! heuristic evaluations would recompute a value the ant already has.
//! Once per [`AcoConsolidator::run`] items are grouped by bit-identical
//! demand vector and bins by bit-identical capacity ([`KernelTables`]);
//! `η^β` for the first draw into an empty bin is tabulated per (distinct
//! capacity, item), and inside a bin it is computed once per demand
//! class per step and reused for every unassigned item of that class
//! (where two items share one). `τ^α` is read off directly when `α` is
//! exactly 1 or 0 ([`TauPower`]). A step builds its candidates, their
//! weights and the weights' total in one pass, and a step inside a bin
//! rescans only the items that fitted the step before: residuals only
//! shrink, so nothing else can fit. Every shortcut reuses a value computed
//! from bit-identical operands by the same expression, or skips an item
//! that cannot be a candidate, so solutions, convergence series, work
//! counters and RNG draws are those of the naive per-item evaluation
//! (DESIGN.md has the argument; `tests/properties.rs` holds the naive
//! kernel as the reference).

use snooze_cluster::resources::ResourceVector;
use snooze_simcore::rng::SimRng;

use crate::problem::{Consolidator, Instance, Solution};

/// How pheromone is reinforced at the end of a cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum UpdateRule {
    /// Max–Min style: only the global-best solution deposits (the
    /// behaviour the paper describes — "reinforce VM–LC pairs which
    /// belonged to the so-far best solution").
    #[default]
    GlobalBest,
    /// Classic Ant System: every ant deposits on its own solution,
    /// weighted by quality. Included as an ablation (E8).
    AllAnts,
}

/// Tunable parameters of the colony.
#[derive(Clone, Copy, Debug)]
pub struct AcoParams {
    /// Ants per cycle.
    pub n_ants: usize,
    /// Cycles.
    pub n_cycles: usize,
    /// Pheromone exponent α.
    pub alpha: f64,
    /// Heuristic exponent β.
    pub beta: f64,
    /// Evaporation rate ρ in `(0, 1)`.
    pub rho: f64,
    /// Reinforcement scale: the global best deposits `q / bins_used`.
    pub q: f64,
    /// Initial pheromone τ₀ (also the Max–Min upper bound).
    pub tau0: f64,
    /// Max–Min lower bound on pheromone.
    pub tau_min: f64,
    /// Master seed for the colony's randomness.
    pub seed: u64,
    /// Pheromone reinforcement rule.
    pub update_rule: UpdateRule,
}

impl Default for AcoParams {
    fn default() -> Self {
        AcoParams {
            n_ants: 10,
            n_cycles: 30,
            alpha: 1.0,
            beta: 2.0,
            rho: 0.3,
            q: 10.0,
            tau0: 1.0,
            tau_min: 0.01,
            seed: 0xAC0,
            update_rule: UpdateRule::GlobalBest,
        }
    }
}

impl AcoParams {
    /// A cheap configuration for unit tests and small instances.
    pub fn fast() -> Self {
        AcoParams {
            n_ants: 6,
            n_cycles: 12,
            ..Default::default()
        }
    }

    /// Check every parameter against the range in which the colony is a
    /// colony. Outside it the run does not fail, it quietly degenerates:
    /// no ants or no cycles yield no solution, a NaN exponent makes every
    /// weight NaN (the draw falls back to the first fitting VM), and
    /// `rho >= 1` or `tau_min > tau0` invert the Max–Min band. The error
    /// names the parameter and its accepted range.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [("n_ants", self.n_ants), ("n_cycles", self.n_cycles)] {
            if value < 1 {
                return Err(format!(
                    "parameter `{name}` must be at least 1, got {value}"
                ));
            }
        }
        if !(self.rho > 0.0 && self.rho < 1.0) {
            return Err(format!(
                "parameter `rho` must be in (0, 1), got {}",
                self.rho
            ));
        }
        for (name, value) in [("alpha", self.alpha), ("beta", self.beta), ("q", self.q)] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!(
                    "parameter `{name}` must be finite and >= 0, got {value}"
                ));
            }
        }
        if !(self.tau_min > 0.0 && self.tau_min <= self.tau0 && self.tau0.is_finite()) {
            return Err(format!(
                "parameters `tau_min` and `tau0` must satisfy 0 < tau_min <= tau0 < inf, \
                 got tau_min = {}, tau0 = {}",
                self.tau_min, self.tau0
            ));
        }
        Ok(())
    }
}

/// Dense pheromone matrix over (item, bin) pairs, stored bin-major: an
/// ant fills one bin at a time, so each construction step gathers from
/// one contiguous row.
#[derive(Clone, Debug)]
struct PheromoneMatrix {
    tau: Vec<f64>,
    n_items: usize,
}

impl PheromoneMatrix {
    fn new(n_items: usize, n_bins: usize, tau0: f64) -> Self {
        PheromoneMatrix {
            tau: vec![tau0; n_items * n_bins],
            n_items,
        }
    }

    /// `τ(·, bin)` for every item.
    #[inline]
    fn row(&self, bin: usize) -> &[f64] {
        &self.tau[bin * self.n_items..(bin + 1) * self.n_items]
    }

    fn evaporate(&mut self, rho: f64, tau_min: f64) -> u64 {
        for t in &mut self.tau {
            *t = ((1.0 - rho) * *t).max(tau_min);
        }
        self.tau.len() as u64
    }

    fn deposit(&mut self, item: usize, bin: usize, amount: f64, tau_max: f64) {
        let t = &mut self.tau[bin * self.n_items + item];
        *t = (*t + amount).min(tau_max);
    }

    /// Audit predicate: every entry is finite and inside the Max–Min
    /// band `[tau_min, tau_max]`.
    fn within_bounds(&self, tau_min: f64, tau_max: f64) -> bool {
        self.tau
            .iter()
            .all(|t| t.is_finite() && (tau_min..=tau_max).contains(t))
    }
}

/// How `τ^α` is evaluated. C99 Annex F fixes `pow(x, 0) = 1` for every
/// `x`, and `pow(x, 1)` has the representable exact result `x`, which any
/// faithfully rounded `pow` must return (a unit test sweeps the Max–Min
/// band) — so the two exponents every shipped configuration uses skip the
/// libm call without moving a bit. Any other exponent keeps `powf`.
#[derive(Clone, Copy, Debug)]
enum TauPower {
    /// `α` is exactly 0: `τ^α = 1`.
    One,
    /// `α` is exactly 1: `τ^α = τ`.
    Identity,
    /// Any other exponent.
    Pow(f64),
}

impl TauPower {
    fn of(alpha: f64) -> Self {
        // Bit comparisons: only the exact exponents may take the shortcut.
        if alpha.to_bits() == 1.0f64.to_bits() {
            TauPower::Identity
        } else if alpha.to_bits() == 0.0f64.to_bits() {
            TauPower::One
        } else {
            TauPower::Pow(alpha)
        }
    }

    #[inline]
    fn apply(self, tau: f64) -> f64 {
        match self {
            TauPower::One => 1.0,
            TauPower::Identity => tau,
            TauPower::Pow(alpha) => tau.powf(alpha),
        }
    }
}

/// For every vector, the index of the first vector with bit-identical
/// components — the representative of its class (`rep[i] <= i`). Sorts
/// one scratch buffer rather than filling a map: a map's freed nodes
/// linger in the allocator's small-chunk cache above the pheromone
/// matrix, where later long-lived allocations pinned a matrix-sized hole
/// (measured: +1.2 MB peak RSS on the benchmark's 512-VM instance).
fn representatives(vectors: &[ResourceVector]) -> Vec<usize> {
    let mut keyed: Vec<([u64; 4], usize)> = vectors
        .iter()
        .enumerate()
        .map(|(index, v)| (v.to_array().map(f64::to_bits), index))
        .collect();
    keyed.sort_unstable();
    let mut representative = vec![0; vectors.len()];
    for class in keyed.chunk_by(|a, b| a.0 == b.0) {
        for &(_, index) in class {
            representative[index] = class[0].1;
        }
    }
    representative
}

/// `η(demand, residual)^β` if `demand` fits `residual`, else `None` — the
/// per-candidate work of a construction step, minus the pheromone factor.
#[inline]
fn fit_eta_beta(
    demand: &ResourceVector,
    residual: &ResourceVector,
    capacity: &ResourceVector,
    beta: f64,
) -> Option<f64> {
    demand
        .fits_within(residual)
        .then(|| heuristic(demand, residual, capacity).powf(beta))
}

/// What one `run` fixes for the construction kernel: the two exponents,
/// the demand classes of the items, and `η^β` for the first draw into an
/// empty bin of each distinct capacity.
///
/// Classes are named by their representative item, so per-class state is
/// item-indexed and no allocation's size depends on how many classes
/// there are. `fresh` holds one row per *distinct* host capacity — one or
/// a few hardware generations in any fleet this repo builds; a fleet of
/// all-different hosts would make it twice the pheromone matrix.
#[derive(Clone, Debug)]
struct KernelTables {
    /// How `τ^α` is evaluated.
    tau_power: TauPower,
    /// Heuristic exponent β (the one `fresh` was tabulated with).
    beta: f64,
    /// Representative (first bit-identical) item of each item.
    item_class: Vec<usize>,
    /// Where each bin's row of `fresh` starts.
    fresh_row_start: Vec<usize>,
    /// `fit_eta_beta(item, capacity, capacity)` per (distinct capacity,
    /// item), one row of `n_items` per capacity.
    fresh: Vec<Option<f64>>,
    /// Whether some demand class has two or more items. If none has (no
    /// two items bit-identical, as in the GRID'11 family), the per-step
    /// class memo could never hand back a value, and an in-bin step
    /// evaluates each item directly instead of stamping a memo entry.
    memo: bool,
    /// Whether a step inside a bin may rescan only the items that fitted
    /// the step before. It may when no item or bin has a negative
    /// component (`ResourceVector`'s invariant): a residual then only
    /// shrinks under `saturating_sub`, and `a <= b + 1e-9` is monotone in
    /// `b`, so an item that did not fit cannot fit later in the same bin.
    carry: bool,
}

impl KernelTables {
    fn new(instance: &Instance, alpha: f64, beta: f64) -> Self {
        let bin_class = representatives(&instance.bins);
        let mut fresh_row_start = vec![0; instance.n_bins()];
        let mut fresh = Vec::new();
        for (bin, capacity) in instance.bins.iter().enumerate() {
            if bin_class[bin] == bin {
                fresh_row_start[bin] = fresh.len();
                fresh.extend(
                    instance
                        .items
                        .iter()
                        .map(|demand| fit_eta_beta(demand, capacity, capacity, beta)),
                );
            } else {
                fresh_row_start[bin] = fresh_row_start[bin_class[bin]];
            }
        }
        let item_class = representatives(&instance.items);
        KernelTables {
            tau_power: TauPower::of(alpha),
            beta,
            memo: item_class
                .iter()
                .enumerate()
                .any(|(item, &class)| class != item),
            item_class,
            fresh_row_start,
            fresh,
            carry: instance
                .items
                .iter()
                .chain(&instance.bins)
                .all(|v| v.to_array().iter().all(|x| *x >= 0.0 || x.is_nan())),
        }
    }

    /// The fresh-bin table row of `bin`, indexed by item.
    #[inline]
    fn fresh_row(&self, bin: usize) -> &[Option<f64>] {
        let start = self.fresh_row_start[bin];
        &self.fresh[start..start + self.item_class.len()]
    }
}

/// Per-phase work counters of a colony run: exact functions of the
/// instance and parameters, so two same-seed runs produce identical
/// values. Host time per cycle is the repo benchmark's to measure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AcoPhaseProfile {
    /// Cycles executed.
    pub cycles: u64,
    /// Construction-phase inner-loop steps (placement draws plus bin
    /// advances, summed over every ant in every cycle).
    pub construction_steps: u64,
    /// Candidate solutions scored against the global best.
    pub evaluation_comparisons: u64,
    /// Pheromone entries touched by evaporation and deposits.
    pub evaporation_updates: u64,
}

/// Result of a full colony run, including per-cycle convergence data for
/// the convergence figure (experiment E8).
#[derive(Clone, Debug)]
pub struct AcoRun {
    /// Best solution found (feasible), if any ant ever completed one.
    pub solution: Option<Solution>,
    /// Bins used by the global best after each cycle.
    pub best_bins_per_cycle: Vec<usize>,
    /// Total ants that failed to construct a feasible solution.
    pub failed_ants: usize,
    /// Phase-by-phase profile of the run.
    pub profile: AcoPhaseProfile,
}

/// The ACO consolidator.
#[derive(Clone, Copy, Debug, Default)]
pub struct AcoConsolidator {
    /// Colony parameters.
    pub params: AcoParams,
}

impl AcoConsolidator {
    /// A consolidator with the given parameters.
    pub fn new(params: AcoParams) -> Self {
        AcoConsolidator { params }
    }

    /// Run the colony, returning the full run record.
    pub fn run(&self, instance: &Instance) -> AcoRun {
        let p = self.params;
        let n_items = instance.n_items();
        if n_items == 0 {
            return AcoRun {
                solution: Some(Solution { assignment: vec![] }),
                best_bins_per_cycle: vec![],
                failed_ants: 0,
                profile: AcoPhaseProfile::default(),
            };
        }
        let mut pheromone = PheromoneMatrix::new(n_items, instance.n_bins(), p.tau0);
        let tables = KernelTables::new(instance, p.alpha, p.beta);
        let master = SimRng::new(p.seed);
        let mut global_best: Option<(Solution, usize, f64)> = None; // (sol, bins, util)
        let mut best_per_cycle = Vec::with_capacity(p.n_cycles);
        let mut failed = 0usize;
        let mut profile = AcoPhaseProfile {
            cycles: p.n_cycles as u64,
            ..AcoPhaseProfile::default()
        };

        for cycle in 0..p.n_cycles {
            let construct = |ant: usize| -> (Option<Solution>, u64) {
                let mut rng = master.fork((cycle * p.n_ants + ant) as u64 + 1);
                construct_solution(instance, &tables, &pheromone, &mut rng)
            };
            let candidates: Vec<(Option<Solution>, u64)> = (0..p.n_ants).map(construct).collect();
            profile.construction_steps += candidates.iter().map(|(_, steps)| steps).sum::<u64>();

            let mut cycle_solutions: Vec<Solution> = Vec::new();
            for (sol, _) in candidates {
                match sol {
                    Some(sol) => {
                        profile.evaluation_comparisons += 1;
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
                    None => failed += 1,
                }
            }

            // Evaporation, then reinforcement per the configured rule.
            profile.evaporation_updates += pheromone.evaporate(p.rho, p.tau_min);
            match p.update_rule {
                UpdateRule::GlobalBest => {
                    // Max–Min ant system: only the best deposits, with
                    // bounds.
                    if let Some((sol, bins, _)) = &global_best {
                        let amount = p.q / (*bins as f64).max(1.0);
                        for (item, &bin) in sol.assignment.iter().enumerate() {
                            pheromone.deposit(item, bin, amount, p.tau0 * 10.0);
                        }
                        profile.evaporation_updates += sol.assignment.len() as u64;
                    }
                }
                UpdateRule::AllAnts => {
                    // Classic Ant System: every ant deposits, weighted by
                    // its own solution quality.
                    for sol in &cycle_solutions {
                        let amount = p.q / (sol.bins_used() as f64).max(1.0);
                        for (item, &bin) in sol.assignment.iter().enumerate() {
                            pheromone.deposit(item, bin, amount, p.tau0 * 10.0);
                        }
                        profile.evaporation_updates += sol.assignment.len() as u64;
                    }
                }
            }
            best_per_cycle.push(
                global_best
                    .as_ref()
                    .map(|(_, b, _)| *b)
                    .unwrap_or(usize::MAX),
            );

            snooze_simcore::audit_invariant!(
                "aco",
                "pheromone-bounds",
                pheromone.within_bounds(p.tau_min, p.tau0 * 10.0),
                "cycle {cycle}: pheromone escaped [{}, {}] (or went non-finite)",
                p.tau_min,
                p.tau0 * 10.0
            );
            snooze_simcore::audit_invariant!(
                "aco",
                "best-solution-feasible",
                global_best
                    .as_ref()
                    .is_none_or(|(sol, _, _)| sol.is_feasible(instance)),
                "cycle {cycle}: global best violates bin capacities"
            );
        }

        AcoRun {
            solution: global_best.map(|(s, _, _)| s),
            best_bins_per_cycle: best_per_cycle,
            failed_ants: failed,
            profile,
        }
    }
}

/// One ant's solution construction. Returns the solution (if feasible)
/// and the number of inner-loop steps taken — the deterministic work
/// counter behind [`AcoPhaseProfile::construction_steps`].
///
/// Candidate order, weights and RNG draws are those of evaluating
/// `τ^α · η^β` per unassigned item: the fresh-bin table and the per-step
/// class memo only ever stand in for the same expression over
/// bit-identical operands, an in-bin step skips only items that cannot
/// fit (see [`KernelTables::carry`]), and the total handed to the draw is
/// the sum `weighted_index` would make.
fn construct_solution(
    instance: &Instance,
    tables: &KernelTables,
    pheromone: &PheromoneMatrix,
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
    // Nothing placed in `bin` yet: `residual` is its full capacity and
    // the per-run table already holds every item's value.
    let mut fresh = true;

    // Scratch buffers reused across iterations (allocation-conscious: the
    // inner loop runs n_items times per ant). `candidates` holds slots of
    // `unassigned` in `unassigned` order; between the steps of one bin it
    // carries the slots that fitted the step before.
    let mut candidates: Vec<usize> = Vec::with_capacity(n_items);
    let mut weights: Vec<f64> = Vec::with_capacity(n_items);
    // Per demand class (at its representative item): the step that last
    // evaluated it (0 = never; steps count from 1) and what it found.
    let mut memo: Vec<(u64, Option<f64>)> = vec![(0, None); n_items];

    while !unassigned.is_empty() {
        weights.clear();
        // The positive weights, added left to right as they are pushed.
        let mut total = 0.0;
        steps += 1;
        let tau = pheromone.row(bin);
        if fresh {
            candidates.clear();
            let fresh_row = tables.fresh_row(bin);
            for (slot, &item) in unassigned.iter().enumerate() {
                if let Some(eta_beta) = fresh_row[item] {
                    candidates.push(slot);
                    let weight = tables.tau_power.apply(tau[item]) * eta_beta;
                    push_weight(&mut weights, &mut total, weight);
                }
            }
        } else {
            if !tables.carry {
                candidates.clear();
                candidates.extend(0..unassigned.len());
            }
            let capacity = &instance.bins[bin];
            let mut kept = 0;
            for i in 0..candidates.len() {
                let slot = candidates[i];
                let item = unassigned[slot];
                let eta_beta = if tables.memo {
                    let class = tables.item_class[item];
                    let entry = &mut memo[class];
                    if entry.0 != steps {
                        let found =
                            fit_eta_beta(&instance.items[class], &residual, capacity, tables.beta);
                        *entry = (steps, found);
                    }
                    entry.1
                } else {
                    fit_eta_beta(&instance.items[item], &residual, capacity, tables.beta)
                };
                if let Some(eta_beta) = eta_beta {
                    candidates[kept] = slot;
                    kept += 1;
                    let weight = tables.tau_power.apply(tau[item]) * eta_beta;
                    push_weight(&mut weights, &mut total, weight);
                }
            }
            candidates.truncate(kept);
        }
        if candidates.is_empty() {
            // Current bin is as full as this ant can make it — move on.
            bin += 1;
            if bin >= instance.n_bins() {
                return (None, steps); // out of hosts
            }
            residual = instance.bins[bin];
            fresh = true;
            continue;
        }
        let pick = rng.weighted_index_with_total(&weights, total).unwrap_or(0);
        let slot = candidates[pick];
        let item = unassigned.swap_remove(slot);
        // Mirror the `swap_remove` on the carried slots: the last item of
        // `unassigned` now sits at `slot`, so if it is a candidate (the
        // last one) it takes the drawn candidate's place, which keeps the
        // list in `unassigned` order; otherwise the drawn entry just goes.
        let moved_from = unassigned.len();
        if candidates.last() == Some(&moved_from) && pick + 1 < candidates.len() {
            candidates.swap_remove(pick);
            candidates[pick] = slot;
        } else {
            candidates.remove(pick);
        }
        assignment[item] = bin;
        residual = residual.saturating_sub(&instance.items[item]);
        fresh = false;
    }
    (Some(Solution { assignment }), steps)
}

/// Push one candidate's weight, adding it to `total` if positive — the
/// terms and order of `weighted_index`'s own sum.
#[inline]
fn push_weight(weights: &mut Vec<f64>, total: &mut f64, weight: f64) {
    weights.push(weight);
    if weight > 0.0 {
        *total += weight;
    }
}

/// Heuristic desirability η of packing `item` into a bin with `residual`
/// capacity left (out of `capacity` total): inversely proportional to the
/// normalized slack that would remain, so choices that fill the bin
/// tightly are favoured — "guides the ants towards choosing VMs leading
/// to better overall LC utilization" (§III-A).
#[inline]
fn heuristic(item: &ResourceVector, residual: &ResourceVector, capacity: &ResourceVector) -> f64 {
    let slack_after = residual.saturating_sub(item).normalize_by(capacity).l1();
    1.0 / (1.0 + slack_after)
}

impl Consolidator for AcoConsolidator {
    fn consolidate(&self, instance: &Instance) -> Option<Solution> {
        self.run(instance).solution
    }

    fn name(&self) -> &'static str {
        "ACO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffd::{FirstFitDecreasing, SortKey};
    use crate::problem::InstanceGenerator;

    fn unit_instance(sizes: &[f64], n_bins: usize) -> Instance {
        Instance::homogeneous(
            sizes.iter().map(|&s| ResourceVector::splat(s)).collect(),
            n_bins,
            ResourceVector::splat(1.0),
        )
    }

    #[test]
    fn solves_trivial_instance_optimally() {
        let inst = unit_instance(&[0.5, 0.5, 0.5, 0.5], 4);
        let sol = AcoConsolidator::new(AcoParams::fast())
            .consolidate(&inst)
            .unwrap();
        assert!(sol.is_feasible(&inst));
        assert_eq!(sol.bins_used(), 2);
    }

    #[test]
    fn finds_complementary_pairings() {
        // 0.7+0.3 pairs: optimal 3 bins; a bad packing needs 4+.
        let inst = unit_instance(&[0.7, 0.7, 0.7, 0.3, 0.3, 0.3], 6);
        let sol = AcoConsolidator::new(AcoParams::fast())
            .consolidate(&inst)
            .unwrap();
        assert!(sol.is_feasible(&inst));
        assert_eq!(sol.bins_used(), 3);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let gen = InstanceGenerator::grid11();
        let inst = gen.generate(30, &mut SimRng::new(3));
        let a = AcoConsolidator::new(AcoParams::fast()).run(&inst);
        let b = AcoConsolidator::new(AcoParams::fast()).run(&inst);
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.best_bins_per_cycle, b.best_bins_per_cycle);
    }

    /// The profile's work counters are part of the deterministic surface.
    #[test]
    fn phase_work_counters_are_deterministic_and_nonzero() {
        let gen = InstanceGenerator::grid11();
        let inst = gen.generate(30, &mut SimRng::new(3));
        let a = AcoConsolidator::new(AcoParams::fast()).run(&inst).profile;
        let b = AcoConsolidator::new(AcoParams::fast()).run(&inst).profile;
        assert_eq!(a.construction_steps, b.construction_steps);
        assert_eq!(a.evaluation_comparisons, b.evaluation_comparisons);
        assert_eq!(a.evaporation_updates, b.evaporation_updates);
        assert_eq!(a.cycles, AcoParams::fast().n_cycles as u64);
        assert!(a.construction_steps > 0);
        assert!(a.evaluation_comparisons > 0);
        assert!(a.evaporation_updates > 0);
    }

    #[test]
    fn beats_or_matches_cpu_ffd_on_grid11_instances() {
        // The paper's headline (E1): ACO uses fewer hosts than FFD. On
        // any single instance it must at least never be *worse* than the
        // single-dimension FFD baseline; across seeds it should win some.
        let gen = InstanceGenerator::grid11();
        let mut wins = 0;
        let mut losses = 0;
        for seed in 0..6 {
            let inst = gen.generate(40, &mut SimRng::new(seed));
            let ffd = FirstFitDecreasing { key: SortKey::Cpu }
                .consolidate(&inst)
                .unwrap()
                .bins_used();
            let aco = AcoConsolidator::new(AcoParams {
                n_cycles: 25,
                ..AcoParams::default()
            })
            .consolidate(&inst)
            .unwrap()
            .bins_used();
            if aco < ffd {
                wins += 1;
            }
            if aco > ffd {
                losses += 1;
            }
        }
        assert_eq!(losses, 0, "ACO lost to FFD-cpu {losses} times");
        assert!(
            wins >= 1,
            "ACO should beat FFD-cpu at least once over 6 seeds"
        );
    }

    #[test]
    fn respects_lower_bound_and_feasibility() {
        let gen = InstanceGenerator::grid11();
        let inst = gen.generate(25, &mut SimRng::new(8));
        let sol = AcoConsolidator::new(AcoParams::fast())
            .consolidate(&inst)
            .unwrap();
        assert!(sol.is_feasible(&inst));
        assert!(sol.bins_used() >= inst.lower_bound());
    }

    #[test]
    fn convergence_is_monotone_non_increasing() {
        let gen = InstanceGenerator::grid11();
        let inst = gen.generate(40, &mut SimRng::new(2));
        let run = AcoConsolidator::new(AcoParams::default()).run(&inst);
        let series = run.best_bins_per_cycle;
        assert!(!series.is_empty());
        assert!(
            series.windows(2).all(|w| w[1] <= w[0]),
            "global best can only improve: {series:?}"
        );
    }

    #[test]
    fn fails_gracefully_when_bins_insufficient() {
        let inst = unit_instance(&[0.9, 0.9, 0.9], 2);
        let run = AcoConsolidator::new(AcoParams::fast()).run(&inst);
        assert!(run.solution.is_none());
        assert_eq!(
            run.failed_ants,
            AcoParams::fast().n_ants * AcoParams::fast().n_cycles
        );
    }

    #[test]
    fn empty_instance_is_trivially_solved() {
        let inst = unit_instance(&[], 3);
        let run = AcoConsolidator::new(AcoParams::fast()).run(&inst);
        assert_eq!(run.solution.unwrap().assignment.len(), 0);
    }

    #[test]
    fn oversized_item_cannot_be_placed() {
        let inst = unit_instance(&[1.2], 3);
        assert!(AcoConsolidator::new(AcoParams::fast())
            .consolidate(&inst)
            .is_none());
    }

    #[test]
    fn heuristic_prefers_tight_fits() {
        let cap = ResourceVector::splat(1.0);
        let residual = ResourceVector::splat(0.6);
        let big = ResourceVector::splat(0.55);
        let small = ResourceVector::splat(0.1);
        assert!(heuristic(&big, &residual, &cap) > heuristic(&small, &residual, &cap));
    }

    /// The `α ∈ {0, 1}` shortcuts return libm's bits over the whole
    /// Max–Min band (and well outside it).
    #[test]
    fn tau_power_shortcuts_match_powf_bit_for_bit() {
        let mut rng = SimRng::new(0x7A0);
        for _ in 0..200_000 {
            let tau = rng.uniform(0.0, 12.0);
            for alpha in [0.0, 1.0] {
                assert_eq!(
                    TauPower::of(alpha).apply(tau).to_bits(),
                    tau.powf(alpha).to_bits(),
                    "tau = {tau:e}, alpha = {alpha}"
                );
            }
        }
        assert!(matches!(TauPower::of(1.0), TauPower::Identity));
        assert!(matches!(TauPower::of(0.0), TauPower::One));
        // Not bit-exactly 0 or 1 ⇒ libm.
        for alpha in [-0.0, 1.0 + f64::EPSILON, 1.7, f64::NAN] {
            assert!(matches!(TauPower::of(alpha), TauPower::Pow(_)), "{alpha}");
        }
    }

    #[test]
    fn classes_group_bit_identical_vectors_only() {
        let a = ResourceVector::new(2.0, 4096.0, 100.0, 100.0);
        let b = ResourceVector::new(2.0, 4096.0 + 1e-9, 100.0, 100.0);
        assert_eq!(representatives(&[b, a, a, b, a]), vec![0, 1, 1, 0, 1]);
        assert_eq!(representatives(&[]), Vec::<usize>::new());
    }

    #[test]
    fn fresh_table_holds_the_per_item_value_for_every_bin() {
        let inst = InstanceGenerator::grid11().generate_heterogeneous(12, &mut SimRng::new(9));
        let tables = KernelTables::new(&inst, 1.0, 2.0);
        // Two capacities ⇒ two rows, shared by every other bin.
        assert_eq!(tables.fresh.len(), 2 * inst.n_items());
        for (bin, cap) in inst.bins.iter().enumerate() {
            for (item, demand) in inst.items.iter().enumerate() {
                assert_eq!(
                    tables.fresh_row(bin)[item].map(f64::to_bits),
                    fit_eta_beta(demand, cap, cap, 2.0).map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn class_memo_is_armed_only_where_two_items_share_a_class() {
        let gen = InstanceGenerator::grid11();
        let distinct = gen.generate(40, &mut SimRng::new(9));
        assert!(!KernelTables::new(&distinct, 1.0, 2.0).memo);
        let flavoured = gen.generate_flavoured(40, 20, &mut SimRng::new(9));
        assert!(KernelTables::new(&flavoured, 1.0, 2.0).memo);
    }

    #[test]
    fn all_ants_update_rule_is_feasible_and_deterministic() {
        let gen = InstanceGenerator::grid11();
        let inst = gen.generate(30, &mut SimRng::new(6));
        let aco = AcoConsolidator::new(AcoParams {
            update_rule: UpdateRule::AllAnts,
            ..AcoParams::fast()
        });
        let a = aco.run(&inst);
        let b = aco.run(&inst);
        assert_eq!(a.solution, b.solution);
        let sol = a.solution.unwrap();
        assert!(sol.is_feasible(&inst));
        assert!(sol.bins_used() >= inst.lower_bound());
    }

    #[test]
    fn more_cycles_do_not_hurt() {
        let gen = InstanceGenerator::grid11();
        let inst = gen.generate(35, &mut SimRng::new(4));
        let short = AcoConsolidator::new(AcoParams {
            n_cycles: 3,
            ..AcoParams::default()
        })
        .consolidate(&inst)
        .unwrap()
        .bins_used();
        let long = AcoConsolidator::new(AcoParams {
            n_cycles: 40,
            ..AcoParams::default()
        })
        .consolidate(&inst)
        .unwrap()
        .bins_used();
        assert!(long <= short, "long {long} vs short {short}");
    }
}
