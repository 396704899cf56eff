//! Static VM placement as d-dimensional vector bin packing.
//!
//! The GRID'11 evaluation frames consolidation exactly this way: *n* VMs
//! with multi-dimensional resource demands must be packed into the fewest
//! hosts such that no host's capacity is exceeded in any dimension. An
//! [`Instance`] holds the demands and host capacities, a [`Solution`] maps
//! every VM to a host, and [`Consolidator`] is the interface all
//! algorithms (ACO, FFD family, exact) implement.

use snooze_cluster::resources::{ResourceVector, DIMS};
use snooze_simcore::rng::SimRng;

/// One consolidation problem instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// VM demands, in absolute units.
    pub items: Vec<ResourceVector>,
    /// Host capacities. `bins.len()` bounds the number of usable hosts.
    pub bins: Vec<ResourceVector>,
    /// The placement currently in force, if the instance describes a live
    /// reconfiguration: `incumbent[i]` is item `i`'s current bin. Lets
    /// migration-cost-aware consolidators weigh churn against packing
    /// quality. `None` for from-scratch placement.
    pub incumbent: Option<Vec<usize>>,
}

impl Instance {
    /// An instance over `n_bins` identical hosts of the given capacity.
    pub fn homogeneous(
        items: Vec<ResourceVector>,
        n_bins: usize,
        capacity: ResourceVector,
    ) -> Self {
        Instance {
            items,
            bins: vec![capacity; n_bins],
            incumbent: None,
        }
    }

    /// Number of VMs.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Number of available hosts.
    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    /// True when every host has the same capacity. The greedy and ACO
    /// algorithms handle heterogeneous hosts; [`crate::exact`] requires
    /// homogeneity (its symmetry breaking depends on it).
    pub fn is_homogeneous(&self) -> bool {
        self.bins.windows(2).all(|w| w[0] == w[1])
    }

    /// The classical lower bound on bins needed: for each dimension, total
    /// demand divided by the (maximum) bin capacity, rounded up; take the
    /// max over dimensions. Exact-solver pruning and sanity checks use it.
    pub fn lower_bound(&self) -> usize {
        if self.items.is_empty() {
            return 0;
        }
        let total: ResourceVector = self.items.iter().copied().sum();
        let cap = self
            .bins
            .iter()
            .fold(ResourceVector::ZERO, |acc, b| acc.max(b));
        let mut lb = 1usize;
        for d in 0..DIMS {
            if cap.get(d) > 0.0 {
                let need = (total.get(d) / cap.get(d) - 1e-9).ceil() as usize;
                lb = lb.max(need.max(1));
            }
        }
        lb
    }
}

/// A complete assignment of items to bins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// `assignment[i]` is the bin index of item `i`.
    pub assignment: Vec<usize>,
}

impl Solution {
    /// Number of distinct bins used.
    pub fn bins_used(&self) -> usize {
        let mut seen: Vec<bool> = Vec::new();
        let mut count = 0;
        for &b in &self.assignment {
            if b >= seen.len() {
                seen.resize(b + 1, false);
            }
            if !seen[b] {
                seen[b] = true;
                count += 1;
            }
        }
        count
    }

    /// Load vector of each bin (indexed by bin, length `instance.n_bins()`).
    pub fn bin_loads(&self, instance: &Instance) -> Vec<ResourceVector> {
        let mut loads = vec![ResourceVector::ZERO; instance.n_bins()];
        for (item, &bin) in self.assignment.iter().enumerate() {
            loads[bin] += instance.items[item];
        }
        loads
    }

    /// True iff every item is assigned to a valid bin and no bin exceeds
    /// capacity in any dimension.
    pub fn is_feasible(&self, instance: &Instance) -> bool {
        if self.assignment.len() != instance.n_items() {
            return false;
        }
        if self.assignment.iter().any(|&b| b >= instance.n_bins()) {
            return false;
        }
        self.bin_loads(instance)
            .iter()
            .zip(&instance.bins)
            .all(|(load, cap)| load.fits_within(cap))
    }

    /// Mean utilization of the *used* bins, averaged over dimensions with
    /// non-zero capacity — the paper's "average host utilization" metric.
    pub fn avg_used_bin_utilization(&self, instance: &Instance) -> f64 {
        let loads = self.bin_loads(instance);
        let mut sum = 0.0;
        let mut used = 0usize;
        for (load, cap) in loads.iter().zip(&instance.bins) {
            if load.l1() > 0.0 {
                used += 1;
                let u = load.normalize_by(cap);
                let mut dims = 0;
                let mut acc = 0.0;
                for d in 0..DIMS {
                    if cap.get(d) > 0.0 {
                        acc += u.get(d);
                        dims += 1;
                    }
                }
                if dims > 0 {
                    sum += acc / dims as f64;
                }
            }
        }
        if used == 0 {
            0.0
        } else {
            sum / used as f64
        }
    }

    /// Number of items whose bin differs from the incumbent placement —
    /// the live migrations this solution would trigger. Zero against an
    /// identical incumbent.
    pub fn migration_count(&self, incumbent: &[usize]) -> usize {
        self.assignment
            .iter()
            .zip(incumbent)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Renumber bins so that used bins are `0..bins_used()` in first-use
    /// order. Quality metrics are invariant; this canonical form makes
    /// solutions comparable across algorithms that open bins in different
    /// orders. Only valid for homogeneous instances.
    pub fn canonicalize(&mut self) {
        let mut remap: Vec<Option<usize>> = Vec::new();
        let mut next = 0usize;
        for b in self.assignment.iter_mut() {
            if *b >= remap.len() {
                remap.resize(*b + 1, None);
            }
            let target = *remap[*b].get_or_insert_with(|| {
                let t = next;
                next += 1;
                t
            });
            *b = target;
        }
    }
}

/// The interface every consolidation algorithm implements.
///
/// `Send + Sync` because configured consolidators are shared (via `Arc`)
/// between every Group Manager of a deployment.
pub trait Consolidator: Send + Sync {
    /// Compute a feasible placement, or `None` if the algorithm cannot
    /// place every item within the available bins.
    fn consolidate(&self, instance: &Instance) -> Option<Solution>;

    /// Short display name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Random-instance generator reproducing the GRID'11 instance family.
#[derive(Clone, Debug)]
pub struct InstanceGenerator {
    /// Host capacity (homogeneous).
    pub capacity: ResourceVector,
    /// Per-dimension demand, as a fraction of capacity: `U[lo, hi)`.
    pub demand_lo: f64,
    /// Upper end of the demand fraction range.
    pub demand_hi: f64,
    /// Bins made available, as a multiple of the lower bound (≥ 1.0).
    /// The default 2.0 gives every algorithm room to be wasteful.
    pub bin_slack: f64,
}

impl InstanceGenerator {
    /// GRID'11-style generator: demands uniform in 10–60 % of host
    /// capacity per dimension against a standard 8-core / 32 GB / 1 Gbit
    /// node.
    pub fn grid11() -> Self {
        InstanceGenerator {
            capacity: ResourceVector::new(8.0, 32_768.0, 1000.0, 1000.0),
            demand_lo: 0.1,
            demand_hi: 0.6,
            bin_slack: 2.0,
        }
    }

    /// Generate a *heterogeneous* instance: demands as in
    /// [`InstanceGenerator::generate`], but hosts split between the
    /// reference capacity and double-size machines — the mixed-generation
    /// clusters real datacenters accumulate.
    // audit-allow(uncalled): the mixed-capacity shape the frozen kernel pin
    // (tests/aco_kernel.rs) and the reference-colony properties generate.
    pub fn generate_heterogeneous(&self, n: usize, rng: &mut SimRng) -> Instance {
        let mut inst = self.generate(n, rng);
        let big = self.capacity * 2.0;
        for (i, bin) in inst.bins.iter_mut().enumerate() {
            if i % 2 == 1 {
                *bin = big;
            }
        }
        inst
    }

    /// Generate a *flavoured* instance: `n` VMs reserved from the trace
    /// generator's grid — `{1, 2, 4, 8}` cores (small sizes most popular)
    /// × `{1, 2, 4}` GB per core, network fixed at 100/100 Mbit/s — on
    /// `n_bins` hosts of the reference capacity. At most 12 distinct
    /// demand vectors: the duplicate-heavy shape a live reconfiguration
    /// hands the packers.
    // audit-allow(uncalled): the duplicate-heavy shape the frozen kernel pin
    // (tests/aco_kernel.rs) and the reference-colony properties generate.
    pub fn generate_flavoured(&self, n: usize, n_bins: usize, rng: &mut SimRng) -> Instance {
        const CORES: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
        const MB_PER_CORE: [f64; 3] = [1024.0, 2048.0, 4096.0];
        let items = (0..n)
            .map(|_| {
                let cores = CORES[rng
                    .weighted_index(&[0.45, 0.30, 0.17, 0.08])
                    .expect("weights are positive")];
                let mb_per_core = MB_PER_CORE[rng
                    .weighted_index(&[0.25, 0.50, 0.25])
                    .expect("weights are positive")];
                ResourceVector::new(cores, cores * mb_per_core, 100.0, 100.0)
            })
            .collect();
        Instance::homogeneous(items, n_bins, self.capacity)
    }

    /// Generate an instance with `n` VMs.
    pub fn generate(&self, n: usize, rng: &mut SimRng) -> Instance {
        let items: Vec<ResourceVector> = (0..n)
            .map(|_| {
                ResourceVector::new(
                    self.capacity.cpu * rng.uniform(self.demand_lo, self.demand_hi),
                    self.capacity.memory * rng.uniform(self.demand_lo, self.demand_hi),
                    self.capacity.net_rx * rng.uniform(self.demand_lo, self.demand_hi),
                    self.capacity.net_tx * rng.uniform(self.demand_lo, self.demand_hi),
                )
            })
            .collect();
        let tmp = Instance {
            items,
            bins: vec![self.capacity],
            incumbent: None,
        };
        let lb = tmp.lower_bound();
        let n_bins = (((lb as f64) * self.bin_slack).ceil() as usize)
            .max(1)
            .min(n.max(1));
        Instance::homogeneous(tmp.items, n_bins.max(lb), self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_bins(n: usize) -> Vec<ResourceVector> {
        vec![ResourceVector::splat(1.0); n]
    }

    fn item(x: f64) -> ResourceVector {
        ResourceVector::splat(x)
    }

    #[test]
    fn lower_bound_is_max_over_dims() {
        let inst = Instance {
            items: vec![
                ResourceVector::new(0.6, 0.1, 0.0, 0.0),
                ResourceVector::new(0.6, 0.1, 0.0, 0.0),
                ResourceVector::new(0.6, 0.1, 0.0, 0.0),
            ],
            bins: unit_bins(5),
            incumbent: None,
        };
        // CPU total 1.8 ⇒ at least 2 bins; memory total 0.3 ⇒ 1.
        assert_eq!(inst.lower_bound(), 2);
    }

    #[test]
    fn lower_bound_edge_cases() {
        let empty = Instance {
            items: vec![],
            bins: unit_bins(3),
            incumbent: None,
        };
        assert_eq!(empty.lower_bound(), 0);
        let one = Instance {
            items: vec![item(0.01)],
            bins: unit_bins(3),
            incumbent: None,
        };
        assert_eq!(one.lower_bound(), 1);
    }

    #[test]
    fn feasibility_checks_capacity_and_indices() {
        let inst = Instance {
            items: vec![item(0.6), item(0.6)],
            bins: unit_bins(2),
            incumbent: None,
        };
        assert!(Solution {
            assignment: vec![0, 1]
        }
        .is_feasible(&inst));
        assert!(
            !Solution {
                assignment: vec![0, 0]
            }
            .is_feasible(&inst),
            "0.6+0.6 > 1"
        );
        assert!(
            !Solution {
                assignment: vec![0, 5]
            }
            .is_feasible(&inst),
            "bin out of range"
        );
        assert!(
            !Solution {
                assignment: vec![0]
            }
            .is_feasible(&inst),
            "missing item"
        );
    }

    #[test]
    fn bins_used_counts_distinct() {
        let s = Solution {
            assignment: vec![0, 2, 2, 0, 7],
        };
        assert_eq!(s.bins_used(), 3);
        assert_eq!(Solution { assignment: vec![] }.bins_used(), 0);
    }

    #[test]
    fn avg_utilization_ignores_empty_bins() {
        let inst = Instance {
            items: vec![item(0.5), item(0.5)],
            bins: unit_bins(10),
            incumbent: None,
        };
        let s = Solution {
            assignment: vec![0, 0],
        };
        // One used bin at 100% across all dims.
        assert!((s.avg_used_bin_utilization(&inst) - 1.0).abs() < 1e-9);
        let spread = Solution {
            assignment: vec![0, 5],
        };
        assert!((spread.avg_used_bin_utilization(&inst) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn canonicalize_preserves_structure() {
        let inst = Instance {
            items: vec![item(0.3); 4],
            bins: unit_bins(10),
            incumbent: None,
        };
        let mut s = Solution {
            assignment: vec![7, 2, 7, 9],
        };
        let before_used = s.bins_used();
        s.canonicalize();
        assert_eq!(s.assignment, vec![0, 1, 0, 2]);
        assert_eq!(s.bins_used(), before_used);
        assert!(s.is_feasible(&inst));
    }

    #[test]
    fn generator_produces_feasible_sized_instances() {
        let gen = InstanceGenerator::grid11();
        let mut rng = SimRng::new(42);
        let inst = gen.generate(50, &mut rng);
        assert_eq!(inst.n_items(), 50);
        assert!(inst.n_bins() >= inst.lower_bound());
        assert!(inst.n_bins() <= 50);
        for it in &inst.items {
            let f = it.normalize_by(&gen.capacity);
            for d in 0..DIMS {
                assert!((0.1..0.6).contains(&f.get(d)));
            }
        }
    }

    #[test]
    fn flavoured_generator_draws_from_twelve_demand_vectors() {
        let gen = InstanceGenerator::grid11();
        let inst = gen.generate_flavoured(400, 200, &mut SimRng::new(5));
        assert_eq!((inst.n_items(), inst.n_bins()), (400, 200));
        assert!(inst.is_homogeneous());
        let mut distinct: Vec<[u64; DIMS]> = inst
            .items
            .iter()
            .map(|it| it.to_array().map(f64::to_bits))
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 12);
        assert!(inst.items.iter().all(|it| it.fits_within(&gen.capacity)));
    }

    #[test]
    fn generator_is_deterministic() {
        let gen = InstanceGenerator::grid11();
        let a = gen.generate(20, &mut SimRng::new(1));
        let b = gen.generate(20, &mut SimRng::new(1));
        assert_eq!(a.items.len(), b.items.len());
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x, y);
        }
    }
}
