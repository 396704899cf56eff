//! Distributed ACO consolidation — the paper's future work (§V):
//! "a distributed version of the algorithm will be developed".
//!
//! The distribution scheme mirrors how Snooze would host it: the VM set
//! and the host set are split across *k* partitions (one per Group
//! Manager, which only sees its own Local Controllers). Each partition
//! runs the centralized ACO colony over its share, independently of the
//! others. A partition-local optimum is globally wasteful at the seams,
//! so partitions then run *migration rounds* arranged in a ring: each
//! partition takes its least-utilized used host, unpacks it, and offers
//! those VMs to the next partition, which accepts them only if they fit
//! in the residual capacity of hosts it already uses (so acceptance
//! strictly reduces the global host count).
//!
//! This trades solution quality for scalability exactly the way the
//! thesis argues: each colony works on `n/k` items (the construction step
//! is O(n²·bins) per ant), and the ring exchange recovers most of the
//! seam waste.

use snooze_cluster::resources::ResourceVector;

use crate::aco::{AcoConsolidator, AcoParams};
use crate::problem::{Consolidator, Instance, Solution};

/// Parameters of the distributed scheme.
#[derive(Clone, Copy, Debug)]
pub struct DistributedParams {
    /// Number of partitions (Group Managers).
    pub partitions: usize,
    /// Ring-exchange rounds after the local solves.
    pub exchange_rounds: usize,
    /// Colony parameters used by each partition.
    pub aco: AcoParams,
}

impl Default for DistributedParams {
    fn default() -> Self {
        DistributedParams {
            partitions: 4,
            exchange_rounds: 2,
            aco: AcoParams::default(),
        }
    }
}

/// The distributed ACO consolidator.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistributedAco {
    /// Scheme parameters.
    pub params: DistributedParams,
}

impl DistributedAco {
    /// A distributed consolidator with the given parameters.
    pub fn new(params: DistributedParams) -> Self {
        DistributedAco { params }
    }

    /// Run the distributed scheme. Returns `None` if any partition cannot
    /// place its share (the centralized algorithm may still succeed in
    /// that case — a genuine cost of partitioning).
    pub fn run(&self, instance: &Instance) -> Option<Solution> {
        let k = self.params.partitions.max(1).min(instance.n_bins().max(1));
        if instance.n_items() == 0 {
            return Some(Solution { assignment: vec![] });
        }

        // Round-robin split of items; contiguous split of bins.
        let item_part: Vec<usize> = (0..instance.n_items()).map(|i| i % k).collect();
        let bin_ranges: Vec<std::ops::Range<usize>> = split_ranges(instance.n_bins(), k);

        // Local colonies (seeds derived from the partition index, results
        // indexed by partition).
        let locals: Vec<Option<(Vec<usize>, Solution)>> = (0..k)
            .map(|p| {
                let my_items: Vec<usize> = (0..instance.n_items())
                    .filter(|&i| item_part[i] == p)
                    .collect();
                let sub = Instance {
                    items: my_items.iter().map(|&i| instance.items[i]).collect(),
                    bins: instance.bins[bin_ranges[p].clone()].to_vec(),
                    incumbent: None,
                };
                let aco = AcoConsolidator::new(AcoParams {
                    seed: self.params.aco.seed ^ (p as u64).wrapping_mul(0x9E37_79B9),
                    ..self.params.aco
                });
                aco.consolidate(&sub).map(|s| (my_items, s))
            })
            .collect();

        // Merge into a global assignment.
        let mut assignment = vec![usize::MAX; instance.n_items()];
        for (p, local) in locals.into_iter().enumerate() {
            let (my_items, sol) = local?;
            for (local_idx, &global_item) in my_items.iter().enumerate() {
                assignment[global_item] = bin_ranges[p].start + sol.assignment[local_idx];
            }
        }
        let mut solution = Solution { assignment };

        // Ring exchange rounds.
        for _ in 0..self.params.exchange_rounds {
            let mut improved = false;
            for p in 0..k {
                let next = (p + 1) % k;
                if self.try_drain_into(instance, &mut solution, &bin_ranges[p], &bin_ranges[next]) {
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        debug_assert!(solution.is_feasible(instance));
        Some(solution)
    }

    /// Try to empty the least-utilized used bin of `from` by best-fitting
    /// its items into the residual capacity of bins already used in `to`
    /// (or elsewhere in `from`). All-or-nothing: the move happens only if
    /// every item finds a home, so the global bin count strictly drops.
    fn try_drain_into(
        &self,
        instance: &Instance,
        solution: &mut Solution,
        from: &std::ops::Range<usize>,
        to: &std::ops::Range<usize>,
    ) -> bool {
        let loads = solution.bin_loads(instance);
        // Least-utilized used bin in `from`.
        let victim = from
            .clone()
            .filter(|&b| loads[b].l1() > 0.0)
            .min_by(|&a, &b| {
                let ua = loads[a].normalize_by(&instance.bins[a]).l1();
                let ub = loads[b].normalize_by(&instance.bins[b]).l1();
                ua.partial_cmp(&ub).unwrap_or(std::cmp::Ordering::Equal)
            });
        let victim = match victim {
            Some(v) => v,
            None => return false,
        };
        let movers: Vec<usize> = (0..instance.n_items())
            .filter(|&i| solution.assignment[i] == victim)
            .collect();
        if movers.is_empty() {
            return false;
        }

        // Candidate destination bins: used bins in `to` plus used bins in
        // `from` other than the victim.
        let mut residuals: Vec<(usize, ResourceVector)> = to
            .clone()
            .chain(from.clone())
            .filter(|&b| b != victim && loads[b].l1() > 0.0)
            .map(|b| (b, instance.bins[b].saturating_sub(&loads[b])))
            .collect();

        // Best-fit each mover (largest first) into the tightest residual.
        let mut order = movers.clone();
        order.sort_by(|&a, &b| {
            let ka = instance.items[a].l1();
            let kb = instance.items[b].l1();
            kb.total_cmp(&ka)
        });
        let mut placement: Vec<(usize, usize)> = Vec::with_capacity(order.len());
        for &item in &order {
            let demand = instance.items[item];
            let slot = residuals
                .iter()
                .enumerate()
                .filter(|(_, (_, r))| demand.fits_within(r))
                .min_by(|(_, (_, ra)), (_, (_, rb))| {
                    let sa = ra.saturating_sub(&demand).l1();
                    let sb = rb.saturating_sub(&demand).l1();
                    sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(idx, _)| idx);
            match slot {
                Some(idx) => {
                    let (bin, r) = &mut residuals[idx];
                    *r = r.saturating_sub(&demand);
                    placement.push((item, *bin));
                }
                None => return false, // all-or-nothing
            }
        }
        for (item, bin) in placement {
            solution.assignment[item] = bin;
        }
        true
    }
}

impl Consolidator for DistributedAco {
    fn consolidate(&self, instance: &Instance) -> Option<Solution> {
        self.run(instance)
    }

    fn name(&self) -> &'static str {
        "dACO"
    }
}

/// Split `0..n` into `k` contiguous near-equal ranges.
fn split_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let base = n / k;
    let extra = n % k;
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0;
    for p in 0..k {
        let len = base + usize::from(p < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::InstanceGenerator;
    use snooze_simcore::rng::SimRng;

    fn params() -> DistributedParams {
        DistributedParams {
            partitions: 3,
            exchange_rounds: 3,
            aco: AcoParams::fast(),
        }
    }

    #[test]
    fn split_ranges_covers_everything() {
        let rs = split_ranges(10, 3);
        assert_eq!(rs, vec![0..4, 4..7, 7..10]);
        let rs = split_ranges(3, 3);
        assert_eq!(rs, vec![0..1, 1..2, 2..3]);
        let rs = split_ranges(2, 5);
        assert_eq!(rs.iter().map(|r| r.len()).sum::<usize>(), 2);
    }

    #[test]
    fn produces_feasible_solutions() {
        let gen = InstanceGenerator::grid11();
        for seed in 0..4 {
            let inst = gen.generate(45, &mut SimRng::new(seed));
            let sol = DistributedAco::new(params()).consolidate(&inst);
            let sol = match sol {
                Some(s) => s,
                None => continue, // partitioning can run out of local bins
            };
            assert!(sol.is_feasible(&inst), "seed {seed}");
            assert!(sol.bins_used() >= inst.lower_bound());
        }
    }

    #[test]
    fn quality_is_close_to_centralized() {
        let gen = InstanceGenerator::grid11();
        let mut total_d = 0usize;
        let mut total_c = 0usize;
        let mut solved = 0;
        for seed in 0..5 {
            let inst = gen.generate(42, &mut SimRng::new(100 + seed));
            let central = AcoConsolidator::new(AcoParams::fast())
                .consolidate(&inst)
                .unwrap()
                .bins_used();
            if let Some(d) = DistributedAco::new(params()).consolidate(&inst) {
                total_d += d.bins_used();
                total_c += central;
                solved += 1;
            }
        }
        assert!(
            solved >= 3,
            "distributed should usually solve grid11 instances"
        );
        let overhead = total_d as f64 / total_c as f64;
        assert!(
            overhead < 1.35,
            "distributed within 35% of centralized, got {overhead:.2}×"
        );
    }

    #[test]
    fn exchange_rounds_never_hurt() {
        let gen = InstanceGenerator::grid11();
        let inst = gen.generate(36, &mut SimRng::new(7));
        let no_exchange = DistributedAco::new(DistributedParams {
            exchange_rounds: 0,
            ..params()
        })
        .consolidate(&inst);
        let with_exchange = DistributedAco::new(params()).consolidate(&inst);
        if let (Some(a), Some(b)) = (no_exchange, with_exchange) {
            assert!(b.bins_used() <= a.bins_used());
            assert!(b.is_feasible(&inst));
        }
    }

    #[test]
    fn single_partition_degenerates_to_centralized_quality() {
        let gen = InstanceGenerator::grid11();
        let inst = gen.generate(30, &mut SimRng::new(3));
        let one = DistributedAco::new(DistributedParams {
            partitions: 1,
            ..params()
        })
        .consolidate(&inst)
        .unwrap();
        assert!(one.is_feasible(&inst));
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::homogeneous(vec![], 4, ResourceVector::splat(1.0));
        let sol = DistributedAco::new(params()).consolidate(&inst).unwrap();
        assert!(sol.assignment.is_empty());
    }

    #[test]
    fn deterministic() {
        let gen = InstanceGenerator::grid11();
        let inst = gen.generate(30, &mut SimRng::new(9));
        let a = DistributedAco::new(params()).consolidate(&inst);
        let b = DistributedAco::new(params()).consolidate(&inst);
        assert_eq!(a, b);
    }

    #[test]
    fn ring_exchange_ties_go_to_the_first_in_scan_order() {
        // `from` = bins 0..3, `to` = bins 3..6 (only 3 in use), every
        // bin 10 units a dimension. Three ties, each observable:
        // - bins 0 (items 0, 1) and 2 (item 2) are equally utilised: the
        //   lower index, 0, is drained;
        // - items 0 and 1 are equal: they are placed in item order;
        // - bins 3 (`to`) and 1 (`from`) both leave item 0 zero slack:
        //   `to` is scanned first, so bin 3 takes item 0 and item 1 gets
        //   what is left of the tie, bin 1.
        let size = ResourceVector::splat;
        let inst = Instance::homogeneous(
            vec![size(1.0), size(1.0), size(2.0), size(9.0), size(9.0)],
            6,
            size(10.0),
        );
        let mut sol = Solution {
            assignment: vec![0, 0, 2, 1, 3],
        };
        let daco = DistributedAco::new(params());
        assert!(daco.try_drain_into(&inst, &mut sol, &(0..3), &(3..6)));
        assert_eq!(sol.assignment, [3, 1, 2, 1, 3]);

        // Item order among equal movers again, over more movers than a
        // small-slice sort handles: bin 0 holds 24 items alternating 2
        // and 1 units; `to` = bins 1..25, twelve with room for exactly a
        // 2 and twelve for exactly a 1. Each mover takes the first bin it
        // leaves no slack in, so the k-th 2 (1) in item order lands in
        // bin 1 + k (13 + k).
        let mut items: Vec<ResourceVector> = (0..24)
            .map(|i| size(if i % 2 == 0 { 2.0 } else { 1.0 }))
            .collect();
        items.extend((0..24).map(|b| size(if b < 12 { 98.0 } else { 99.0 })));
        let inst = Instance::homogeneous(items, 25, size(100.0));
        let mut sol = Solution {
            assignment: (0..24).map(|_| 0).chain(1..25).collect(),
        };
        assert!(daco.try_drain_into(&inst, &mut sol, &(0..1), &(1..25)));
        let movers: Vec<usize> = (0..24).map(|i| 1 + i / 2 + 12 * (i % 2)).collect();
        assert_eq!(sol.assignment[..24], movers);
    }
}
