//! First-Fit Decreasing and the other greedy baselines.
//!
//! The paper's criticism (§I): existing consolidation approaches "adopt
//! simple greedy algorithms such as variants of the First-Fit Decreasing
//! (FFD) heuristic, which tend to waste a lot of resources by presorting
//! the VMs according to a single dimension (e.g. CPU)". To reproduce both
//! the baseline and the criticism, this module provides FFD with five
//! presort keys — the single-dimension sorts (CPU, memory) and the
//! multi-dimension norms (L1, L2, L∞) — plus best-fit and worst-fit
//! decreasing variants.

use snooze_cluster::resources::ResourceVector;

use crate::problem::{Consolidator, Instance, Solution};

/// The scalar key items are sorted by (descending) before greedy packing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SortKey {
    /// CPU demand only — the presort the paper singles out.
    Cpu,
    /// Memory demand only.
    Memory,
    /// Sum of normalized demands (L1).
    L1,
    /// Euclidean norm of normalized demands (L2).
    L2,
    /// Largest normalized demand (L∞).
    Linf,
}

impl SortKey {
    /// All keys, for sweeps.
    pub const ALL: [SortKey; 5] = [
        SortKey::Cpu,
        SortKey::Memory,
        SortKey::L1,
        SortKey::L2,
        SortKey::Linf,
    ];

    fn measure(&self, item: &ResourceVector, reference: &ResourceVector) -> f64 {
        let n = item.normalize_by(reference);
        match self {
            SortKey::Cpu => n.cpu,
            SortKey::Memory => n.memory,
            SortKey::L1 => n.l1(),
            SortKey::L2 => n.l2(),
            SortKey::Linf => n.linf(),
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SortKey::Cpu => "cpu",
            SortKey::Memory => "mem",
            SortKey::L1 => "l1",
            SortKey::L2 => "l2",
            SortKey::Linf => "linf",
        }
    }
}

/// Item indices sorted by descending key (ties by index, deterministic).
fn sorted_indices(instance: &Instance, key: SortKey) -> Vec<usize> {
    let reference = instance
        .bins
        .first()
        .copied()
        .unwrap_or_else(|| ResourceVector::splat(1.0));
    let mut idx: Vec<usize> = (0..instance.n_items()).collect();
    idx.sort_by(|&a, &b| {
        let ka = key.measure(&instance.items[a], &reference);
        let kb = key.measure(&instance.items[b], &reference);
        kb.total_cmp(&ka).then(a.cmp(&b))
    });
    idx
}

/// Shared greedy skeleton: place items (in the given order) by a bin
/// choice rule. Returns `None` when an item fits nowhere.
fn greedy_place<F>(instance: &Instance, order: &[usize], mut choose: F) -> Option<Solution>
where
    F: FnMut(&Instance, &[ResourceVector], usize) -> Option<usize>,
{
    let mut loads = vec![ResourceVector::ZERO; instance.n_bins()];
    let mut assignment = vec![usize::MAX; instance.n_items()];
    for &item in order {
        let bin = choose(instance, &loads, item)?;
        loads[bin] += instance.items[item];
        assignment[item] = bin;
    }
    Some(Solution { assignment })
}

fn fits(instance: &Instance, loads: &[ResourceVector], item: usize, bin: usize) -> bool {
    (loads[bin] + instance.items[item]).fits_within(&instance.bins[bin])
}

/// First-Fit Decreasing: sort items descending by [`SortKey`], place each
/// in the lowest-indexed bin it fits in.
#[derive(Clone, Copy, Debug)]
pub struct FirstFitDecreasing {
    /// Presort key.
    pub key: SortKey,
}

impl FirstFitDecreasing {
    /// The paper's baseline: CPU-sorted FFD.
    pub fn cpu() -> Self {
        FirstFitDecreasing { key: SortKey::Cpu }
    }
}

impl Consolidator for FirstFitDecreasing {
    fn consolidate(&self, instance: &Instance) -> Option<Solution> {
        let order = sorted_indices(instance, self.key);
        greedy_place(instance, &order, |inst, loads, item| {
            (0..inst.n_bins()).find(|&b| fits(inst, loads, item, b))
        })
    }

    fn name(&self) -> &'static str {
        match self.key {
            SortKey::Cpu => "FFD-cpu",
            SortKey::Memory => "FFD-mem",
            SortKey::L1 => "FFD-l1",
            SortKey::L2 => "FFD-l2",
            SortKey::Linf => "FFD-linf",
        }
    }
}

/// Best-Fit Decreasing: place each item in the feasible bin with the
/// least remaining L1 slack after placement (tightest fit).
#[derive(Clone, Copy, Debug)]
pub struct BestFit {
    /// Presort key.
    pub key: SortKey,
}

impl Consolidator for BestFit {
    fn consolidate(&self, instance: &Instance) -> Option<Solution> {
        let order = sorted_indices(instance, self.key);
        greedy_place(instance, &order, |inst, loads, item| {
            let mut best: Option<(usize, f64)> = None;
            for b in 0..inst.n_bins() {
                if fits(inst, loads, item, b) {
                    let after = inst.bins[b].saturating_sub(&(loads[b] + inst.items[item]));
                    let slack = after.normalize_by(&inst.bins[b]).l1();
                    // Prefer bins already in use (slack of an empty bin is
                    // large anyway, but break exact ties toward lower index).
                    if best.map(|(_, s)| slack < s).unwrap_or(true) {
                        best = Some((b, slack));
                    }
                }
            }
            best.map(|(b, _)| b)
        })
    }

    fn name(&self) -> &'static str {
        "BFD"
    }
}

/// Worst-Fit Decreasing: place each item in the feasible bin with the
/// *most* remaining slack — a load-balancing rule, included as the
/// anti-consolidation ablation.
#[derive(Clone, Copy, Debug)]
pub struct WorstFit {
    /// Presort key.
    pub key: SortKey,
}

impl Consolidator for WorstFit {
    fn consolidate(&self, instance: &Instance) -> Option<Solution> {
        let order = sorted_indices(instance, self.key);
        greedy_place(instance, &order, |inst, loads, item| {
            let mut best: Option<(usize, f64)> = None;
            for b in 0..inst.n_bins() {
                if fits(inst, loads, item, b) {
                    let after = inst.bins[b].saturating_sub(&(loads[b] + inst.items[item]));
                    let slack = after.normalize_by(&inst.bins[b]).l1();
                    if best.map(|(_, s)| slack > s).unwrap_or(true) {
                        best = Some((b, slack));
                    }
                }
            }
            best.map(|(b, _)| b)
        })
    }

    fn name(&self) -> &'static str {
        "WFD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn ffd_packs_classic_example_optimally() {
        // Sizes 0.6, 0.6, 0.4, 0.4: optimal is 2 bins (0.6+0.4 each).
        let inst = unit_instance(&[0.4, 0.6, 0.4, 0.6], 4);
        let sol = FirstFitDecreasing::cpu().consolidate(&inst).unwrap();
        assert!(sol.is_feasible(&inst));
        assert_eq!(sol.bins_used(), 2);
    }

    #[test]
    fn ffd_single_dimension_sort_can_waste_bins() {
        // The §I criticism, concretely: items small in CPU but large in
        // memory are sorted last by a CPU-only key and straggle into
        // extra bins, while an L∞ sort handles them first.
        let mut items = Vec::new();
        for _ in 0..4 {
            items.push(ResourceVector::new(0.50, 0.05, 0.0, 0.0)); // cpu-heavy
            items.push(ResourceVector::new(0.05, 0.50, 0.0, 0.0)); // mem-heavy
        }
        // One jumbo memory item that must lead the packing.
        items.push(ResourceVector::new(0.02, 0.95, 0.0, 0.0));
        let inst = Instance::homogeneous(items, 9, ResourceVector::splat(1.0));
        let cpu = FirstFitDecreasing { key: SortKey::Cpu }
            .consolidate(&inst)
            .unwrap();
        let linf = FirstFitDecreasing { key: SortKey::Linf }
            .consolidate(&inst)
            .unwrap();
        assert!(cpu.is_feasible(&inst) && linf.is_feasible(&inst));
        assert!(
            linf.bins_used() <= cpu.bins_used(),
            "L∞ ({}) should not lose to CPU-only ({})",
            linf.bins_used(),
            cpu.bins_used()
        );
    }

    #[test]
    fn all_baselines_produce_feasible_solutions() {
        let gen = InstanceGenerator::grid11();
        let mut rng = SimRng::new(9);
        let inst = gen.generate(60, &mut rng);
        let algos: Vec<Box<dyn Consolidator>> = vec![
            Box::new(FirstFitDecreasing { key: SortKey::L2 }),
            Box::new(BestFit { key: SortKey::L2 }),
            Box::new(WorstFit { key: SortKey::L2 }),
        ];
        for a in &algos {
            let sol = a
                .consolidate(&inst)
                .unwrap_or_else(|| panic!("{} failed", a.name()));
            assert!(sol.is_feasible(&inst), "{} infeasible", a.name());
            assert!(sol.bins_used() >= inst.lower_bound());
        }
    }

    #[test]
    fn worst_fit_spreads_load() {
        let inst = unit_instance(&[0.3, 0.3, 0.3], 3);
        let wfd = WorstFit { key: SortKey::L1 }.consolidate(&inst).unwrap();
        assert_eq!(wfd.bins_used(), 3, "WFD should spread");
        let ffd = FirstFitDecreasing::cpu().consolidate(&inst).unwrap();
        assert_eq!(ffd.bins_used(), 1, "FFD should pack");
    }

    #[test]
    fn infeasible_when_bins_run_out() {
        let inst = unit_instance(&[0.9, 0.9, 0.9], 2);
        assert!(FirstFitDecreasing::cpu().consolidate(&inst).is_none());
    }

    #[test]
    fn oversized_item_is_rejected() {
        let inst = unit_instance(&[1.5], 3);
        assert!(FirstFitDecreasing::cpu().consolidate(&inst).is_none());
        assert!(BestFit { key: SortKey::L1 }.consolidate(&inst).is_none());
    }

    #[test]
    fn sort_keys_order_as_documented() {
        // Item A: cpu-heavy; item B: mem-heavy but bigger in total.
        let a = ResourceVector::new(0.5, 0.1, 0.0, 0.0);
        let b = ResourceVector::new(0.2, 0.6, 0.1, 0.1);
        let inst = Instance::homogeneous(vec![a, b], 2, ResourceVector::splat(1.0));
        assert_eq!(sorted_indices(&inst, SortKey::Cpu), vec![0, 1]);
        assert_eq!(sorted_indices(&inst, SortKey::Memory), vec![1, 0]);
        assert_eq!(sorted_indices(&inst, SortKey::L1), vec![1, 0]);
        assert_eq!(sorted_indices(&inst, SortKey::Linf), vec![1, 0]);
    }

    #[test]
    fn empty_instance_yields_empty_solution() {
        let inst = unit_instance(&[], 3);
        let sol = FirstFitDecreasing::cpu().consolidate(&inst).unwrap();
        assert!(sol.assignment.is_empty());
        assert_eq!(sol.bins_used(), 0);
    }
}
