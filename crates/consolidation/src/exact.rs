//! Exact branch-and-bound solver — the CPLEX stand-in.
//!
//! The paper computed "the optimal solution" with CPLEX for small
//! instances and reported that the ACO algorithm "achieves nearly optimal
//! solutions (i.e. 1.1% deviation)". CPLEX is proprietary; optimality is
//! not. This module finds the minimum number of bins by depth-first
//! branch and bound over homogeneous vector bin packing:
//!
//! * items are branched in descending size order (large items first
//!   maximizes early pruning);
//! * a node assigns the next item to each feasible *open* bin, or to one
//!   fresh bin (opening more than one fresh bin is symmetric, so only the
//!   first is explored);
//! * nodes are pruned when `max(open, root bound) ≥ best`, where the root
//!   bound is the volume bound over all items, computed once;
//! * a node budget bounds worst-case runtime; exceeding it yields the best
//!   incumbent with `optimal = false` — an upper bound, not an optimum,
//!   and callers that report optima must read the flag (E1 does).
//!
//! **What the bound can and cannot do.** It is the per-dimension volume
//! (L1) bound, not an L2 bound. A per-node form — remaining demand beyond
//! the open bins' free space, over the capacity — adds nothing to it:
//! every placed item sits in an open bin, so the open bins' free space is
//! `open·cap − placed`, and `open` plus that bound is `max(open, root
//! bound)` at every node. That is exact in real arithmetic; on floats the
//! re-summed form could part from it only where a total lands within
//! rounding error of a ceiling's edge, and it never did on any instance
//! checked. The search therefore prunes on the closed form and never
//! re-sums the open bins' residuals; the per-node form is kept as a test
//! oracle in `tests/exact_reference`, which a proptest holds the solver to
//! in solution, optimality and node count. A branch is cut
//! when it has opened as many bins as the incumbent uses, or once the
//! incumbent has come down to the root bound, and for no other reason.
//! When the optimum equals the root bound the search stops at the first
//! optimal leaf; when it is one above (space wasted in bins nothing left
//! fits into), every packing into fewer bins than the incumbent is
//! enumerated and the search runs to its budget — 14 of E1's 35 instances
//! at the default 20 M nodes. A bound that counts that waste is ROADMAP
//! item 4.
//!
//! **The bound sets the node count; the fit test sets the node cost.**
//! Almost every node is a loop over the open bins asking
//! [`ResourceVector::fits_within`], and almost every answer is no (on the
//! benchmark's 50 instances: 222 M tests, 19 M fits, 20 M nodes, 89 nodes
//! pruned by the bound). That is why the fit test is branch-free: an early
//! exit there is a mispredicted branch per test. Fewer nodes need a bound
//! that cuts more of them. `tests/exact_pin.rs` pins three searches' node
//! counts.

use snooze_cluster::resources::{ResourceVector, DIMS};

use crate::ffd::{FirstFitDecreasing, SortKey};
use crate::problem::{Consolidator, Instance, Solution};

/// Outcome of an exact solve.
#[derive(Clone, Debug)]
pub struct ExactOutcome {
    /// Best solution found (in original item order), if any.
    pub solution: Option<Solution>,
    /// Whether the search proved optimality (budget not exhausted).
    pub optimal: bool,
    /// Search nodes expanded.
    pub nodes: u64,
}

/// The branch-and-bound solver. Only valid for homogeneous instances
/// (all bins identical), which is what the paper's evaluation uses.
#[derive(Clone, Copy, Debug)]
pub struct BranchAndBound {
    /// Maximum search nodes before giving up on proving optimality.
    pub node_budget: u64,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        BranchAndBound {
            node_budget: 20_000_000,
        }
    }
}

struct Search<'a> {
    items: &'a [ResourceVector], // sorted descending
    capacity: ResourceVector,
    max_bins: usize,
    /// The volume bound over every item: no packing uses fewer bins.
    root_bound: usize,
    residuals: Vec<ResourceVector>, // residual of each open bin
    assignment: Vec<usize>,
    best: Option<(usize, Vec<usize>)>, // (bins, assignment-over-sorted-items)
    nodes: u64,
    budget: u64,
}

/// The per-dimension volume (L1) bound: per dimension, total demand over
/// capacity, rounded up, maximised over the dimensions. The sum runs last
/// item first, with the per-node form's tolerances, so the value is bit
/// for bit what `tests/exact_reference` computes at the root.
fn volume_bound(sorted: &[ResourceVector], capacity: &ResourceVector) -> usize {
    let total = sorted
        .iter()
        .rev()
        .fold(ResourceVector::ZERO, |sum, &item| sum + item);
    let mut bound = 0usize;
    for d in 0..DIMS {
        let cap = capacity.get(d);
        if cap > 0.0 && total.get(d) > 1e-9 {
            bound = bound.max((total.get(d) / cap - 1e-9).ceil() as usize);
        }
    }
    bound
}

impl Search<'_> {
    fn dfs(&mut self, item: usize, open: usize) {
        if self.nodes >= self.budget {
            return;
        }
        self.nodes += 1;
        if item == self.items.len() {
            let better = self.best.as_ref().map(|(b, _)| open < *b).unwrap_or(true);
            if better {
                self.best = Some((open, self.assignment.clone()));
            }
            return;
        }
        let best_bins = self.best.as_ref().map(|(b, _)| *b).unwrap_or(usize::MAX);
        if open.max(self.root_bound) >= best_bins {
            return; // cannot improve
        }
        let demand = self.items[item];

        // Try each open bin (distinct residuals only would be an extra
        // symmetry break; open bins differ in content so keep all).
        for b in 0..open {
            if demand.fits_within(&self.residuals[b]) {
                let saved = self.residuals[b];
                self.residuals[b] = saved.saturating_sub(&demand);
                self.assignment[item] = b;
                self.dfs(item + 1, open);
                self.residuals[b] = saved;
            }
        }
        // Try one fresh bin (only if it improves on the incumbent and a
        // host is available).
        if open < self.max_bins && open + 1 < best_bins {
            self.residuals[open] = self.capacity.saturating_sub(&demand);
            self.assignment[item] = open;
            self.dfs(item + 1, open + 1);
        }
    }
}

impl BranchAndBound {
    /// Solve `instance` to optimality (or best-effort within the budget).
    pub fn solve(&self, instance: &Instance) -> ExactOutcome {
        let n = instance.n_items();
        if n == 0 {
            return ExactOutcome {
                solution: Some(Solution { assignment: vec![] }),
                optimal: true,
                nodes: 0,
            };
        }
        let capacity = instance.bins[0];
        assert!(
            instance.is_homogeneous(),
            "BranchAndBound requires homogeneous bins (its fresh-bin symmetry \
             breaking is unsound otherwise); use the heuristics for mixed fleets"
        );

        // Sort items descending by normalized L1 size; remember permutation.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let ka = instance.items[a].normalize_by(&capacity).l1();
            let kb = instance.items[b].normalize_by(&capacity).l1();
            kb.total_cmp(&ka).then(a.cmp(&b))
        });
        let sorted: Vec<ResourceVector> = order.iter().map(|&i| instance.items[i]).collect();

        // Reject impossible items up front.
        if sorted.iter().any(|it| !it.fits_within(&capacity)) {
            return ExactOutcome {
                solution: None,
                optimal: true,
                nodes: 0,
            };
        }

        // Seed the incumbent with FFD so pruning bites immediately.
        let ffd_incumbent = FirstFitDecreasing { key: SortKey::L1 }.consolidate(instance);
        let mut search = Search {
            items: &sorted,
            capacity,
            max_bins: instance.n_bins(),
            root_bound: volume_bound(&sorted, &capacity),
            residuals: vec![ResourceVector::ZERO; instance.n_bins()],
            assignment: vec![usize::MAX; n],
            best: ffd_incumbent.map(|s| {
                let mut canon = s.clone();
                canon.canonicalize();
                // Re-express over the sorted item order.
                let over_sorted: Vec<usize> = order.iter().map(|&i| canon.assignment[i]).collect();
                (canon.bins_used(), over_sorted)
            }),
            nodes: 0,
            budget: self.node_budget,
        };
        search.dfs(0, 0);

        let optimal = search.nodes < self.node_budget;
        let nodes = search.nodes;
        let solution = search.best.map(|(_, sorted_assignment)| {
            // Map back to original item order.
            let mut assignment = vec![usize::MAX; n];
            for (pos, &orig) in order.iter().enumerate() {
                assignment[orig] = sorted_assignment[pos];
            }
            Solution { assignment }
        });
        ExactOutcome {
            solution,
            optimal,
            nodes,
        }
    }
}

impl Consolidator for BranchAndBound {
    fn consolidate(&self, instance: &Instance) -> Option<Solution> {
        self.solve(instance).solution
    }

    fn name(&self) -> &'static str {
        "B&B(optimal)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aco::{AcoConsolidator, AcoParams};
    use crate::problem::InstanceGenerator;
    use snooze_simcore::rng::SimRng;

    fn unit_instance(sizes: &[f64], n_bins: usize) -> Instance {
        Instance::homogeneous(
            sizes.iter().map(|&s| ResourceVector::splat(s)).collect(),
            n_bins,
            ResourceVector::splat(1.0),
        )
    }

    #[test]
    fn solves_complementary_pairs_optimally() {
        let inst = unit_instance(&[0.7, 0.7, 0.7, 0.3, 0.3, 0.3], 6);
        let out = BranchAndBound::default().solve(&inst);
        assert!(out.optimal);
        let sol = out.solution.unwrap();
        assert!(sol.is_feasible(&inst));
        assert_eq!(sol.bins_used(), 3);
    }

    #[test]
    fn beats_ffd_where_ffd_is_suboptimal() {
        // Classic FFD pathology: 0.55×2 + 0.45×2 + 0.3×2.
        // FFD-L1: [0.55,0.3], [0.55,0.3], [0.45,0.45] = 3 bins — actually
        // optimal here; craft a genuinely hard one instead:
        // sizes where FFD gives 3 but optimal is 2: 0.5,0.5,0.34,0.33,0.33.
        let inst = unit_instance(&[0.5, 0.5, 0.34, 0.33, 0.33], 5);
        let ffd = FirstFitDecreasing { key: SortKey::L1 }
            .consolidate(&inst)
            .unwrap();
        let out = BranchAndBound::default().solve(&inst);
        assert!(out.optimal);
        let opt = out.solution.unwrap();
        assert!(opt.is_feasible(&inst));
        assert_eq!(opt.bins_used(), 2, "0.5+0.5 | 0.34+0.33+0.33");
        assert!(ffd.bins_used() >= opt.bins_used());
    }

    #[test]
    fn optimum_at_most_any_heuristic_on_random_instances() {
        let gen = InstanceGenerator::grid11();
        for seed in 0..8 {
            let inst = gen.generate(12, &mut SimRng::new(seed));
            let out = BranchAndBound::default().solve(&inst);
            assert!(out.optimal, "seed {seed} should solve within budget");
            let opt = out.solution.unwrap();
            assert!(opt.is_feasible(&inst));
            assert!(opt.bins_used() >= inst.lower_bound());
            let ffd = FirstFitDecreasing { key: SortKey::L2 }
                .consolidate(&inst)
                .unwrap();
            let aco = AcoConsolidator::new(AcoParams::fast())
                .consolidate(&inst)
                .unwrap();
            assert!(opt.bins_used() <= ffd.bins_used(), "seed {seed}");
            assert!(opt.bins_used() <= aco.bins_used(), "seed {seed}");
        }
    }

    #[test]
    fn empty_and_single_item_instances() {
        let out = BranchAndBound::default().solve(&unit_instance(&[], 2));
        assert!(out.optimal);
        assert_eq!(out.solution.unwrap().assignment.len(), 0);

        let inst = unit_instance(&[0.4], 2);
        let out = BranchAndBound::default().solve(&inst);
        assert_eq!(out.solution.unwrap().bins_used(), 1);
    }

    #[test]
    fn oversized_item_is_unsolvable() {
        let out = BranchAndBound::default().solve(&unit_instance(&[1.5], 2));
        assert!(out.solution.is_none());
        assert!(out.optimal);
    }

    #[test]
    fn budget_exhaustion_returns_incumbent() {
        let gen = InstanceGenerator::grid11();
        let inst = gen.generate(30, &mut SimRng::new(1));
        let out = BranchAndBound { node_budget: 50 }.solve(&inst);
        assert!(!out.optimal);
        // FFD incumbent is still returned.
        let sol = out.solution.unwrap();
        assert!(sol.is_feasible(&inst));
    }

    #[test]
    fn solution_is_in_original_item_order() {
        // One big and one small item; big sorts first internally, but the
        // returned assignment must be indexed by original position.
        let inst = unit_instance(&[0.1, 0.9], 2);
        let sol = BranchAndBound::default().solve(&inst).solution.unwrap();
        assert_eq!(sol.assignment.len(), 2);
        assert!(sol.is_feasible(&inst));
        // 0.1 + 0.9 fit together: must use a single bin.
        assert_eq!(sol.bins_used(), 1);
        assert_eq!(sol.assignment[0], sol.assignment[1]);
    }
}
