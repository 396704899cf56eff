//! The branch-and-bound search, frozen: `Search` with its per-node
//! `incremental_bound` over a suffix-sum table, exactly as it stood before
//! `src/exact.rs` replaced that bound by its closed form
//! `max(open, root bound)`. Kept only so `properties.rs` can assert the
//! shipped solver reproduces it bit for bit — solution, `optimal` and the
//! node count — do not optimise this file.

use snooze_cluster::resources::{ResourceVector, DIMS};
use snooze_consolidation::ffd::{FirstFitDecreasing, SortKey};
use snooze_consolidation::problem::{Consolidator, Instance, Solution};

/// The deterministic surface of an `ExactOutcome`.
#[derive(Debug, PartialEq, Eq)]
pub struct ReferenceOutcome {
    pub solution: Option<Solution>,
    pub optimal: bool,
    pub nodes: u64,
}

struct Search<'a> {
    items: &'a [ResourceVector], // sorted descending
    capacity: ResourceVector,
    max_bins: usize,
    /// Suffix sums of demand: `suffix[i]` = total demand of items `i..`.
    suffix: Vec<ResourceVector>,
    residuals: Vec<ResourceVector>, // residual of each open bin
    assignment: Vec<usize>,
    best: Option<(usize, Vec<usize>)>, // (bins, assignment-over-sorted-items)
    nodes: u64,
    budget: u64,
}

impl Search<'_> {
    /// Lower bound on *additional* bins needed beyond the open ones:
    /// remaining demand that exceeds the open bins' aggregate residual,
    /// divided by the bin capacity, per dimension.
    fn incremental_bound(&self, next_item: usize, open: usize) -> usize {
        let remaining = self.suffix[next_item];
        let mut free_open = ResourceVector::ZERO;
        for r in &self.residuals[..open] {
            free_open += *r;
        }
        let mut extra = 0usize;
        for d in 0..DIMS {
            let cap = self.capacity.get(d);
            if cap > 0.0 {
                let overflow = remaining.get(d) - free_open.get(d);
                if overflow > 1e-9 {
                    extra = extra.max((overflow / cap - 1e-9).ceil() as usize);
                }
            }
        }
        extra
    }

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
        if open + self.incremental_bound(item, open) >= best_bins {
            return; // cannot improve
        }
        let demand = self.items[item];

        for b in 0..open {
            if demand.fits_within(&self.residuals[b]) {
                let saved = self.residuals[b];
                self.residuals[b] = saved.saturating_sub(&demand);
                self.assignment[item] = b;
                self.dfs(item + 1, open);
                self.residuals[b] = saved;
            }
        }
        if open < self.max_bins && open + 1 < best_bins {
            self.residuals[open] = self.capacity.saturating_sub(&demand);
            self.assignment[item] = open;
            self.dfs(item + 1, open + 1);
        }
    }
}

/// `BranchAndBound { node_budget }.solve(instance)` over the per-node
/// bound. Homogeneous instances only, as the shipped solver.
pub fn solve(node_budget: u64, instance: &Instance) -> ReferenceOutcome {
    let n = instance.n_items();
    if n == 0 {
        return ReferenceOutcome {
            solution: Some(Solution { assignment: vec![] }),
            optimal: true,
            nodes: 0,
        };
    }
    let capacity = instance.bins[0];
    assert!(instance.is_homogeneous());

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let ka = instance.items[a].normalize_by(&capacity).l1();
        let kb = instance.items[b].normalize_by(&capacity).l1();
        kb.partial_cmp(&ka)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let sorted: Vec<ResourceVector> = order.iter().map(|&i| instance.items[i]).collect();

    if sorted.iter().any(|it| !it.fits_within(&capacity)) {
        return ReferenceOutcome {
            solution: None,
            optimal: true,
            nodes: 0,
        };
    }

    let mut suffix = vec![ResourceVector::ZERO; n + 1];
    for i in (0..n).rev() {
        suffix[i] = suffix[i + 1] + sorted[i];
    }

    let ffd_incumbent = FirstFitDecreasing { key: SortKey::L1 }.consolidate(instance);
    let mut search = Search {
        items: &sorted,
        capacity,
        max_bins: instance.n_bins(),
        suffix,
        residuals: vec![ResourceVector::ZERO; instance.n_bins()],
        assignment: vec![usize::MAX; n],
        best: ffd_incumbent.map(|s| {
            let mut canon = s.clone();
            canon.canonicalize();
            let over_sorted: Vec<usize> = order.iter().map(|&i| canon.assignment[i]).collect();
            (canon.bins_used(), over_sorted)
        }),
        nodes: 0,
        budget: node_budget,
    };
    search.dfs(0, 0);

    let optimal = search.nodes < node_budget;
    let nodes = search.nodes;
    let solution = search.best.map(|(_, sorted_assignment)| {
        let mut assignment = vec![usize::MAX; n];
        for (pos, &orig) in order.iter().enumerate() {
            assignment[orig] = sorted_assignment[pos];
        }
        Solution { assignment }
    });
    ReferenceOutcome {
        solution,
        optimal,
        nodes,
    }
}
