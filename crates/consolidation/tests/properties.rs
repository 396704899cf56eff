//! Property-based tests over the consolidation algorithms: for random
//! instances — homogeneous and heterogeneous — every algorithm must
//! produce feasible solutions (or decline), respect the lower bound, and
//! keep its documented relationships (the optimum is never beaten,
//! canonicalization preserves structure).

mod aco_reference;
mod exact_reference;

use proptest::prelude::*;

use snooze_cluster::resources::ResourceVector;
use snooze_consolidation::aco::{AcoConsolidator, AcoParams, UpdateRule};
use snooze_consolidation::distributed::{DistributedAco, DistributedParams};
use snooze_consolidation::exact::BranchAndBound;
use snooze_consolidation::ffd::{BestFit, FirstFitDecreasing, SortKey, WorstFit};
use snooze_consolidation::problem::{Consolidator, Instance, InstanceGenerator, Solution};
use snooze_consolidation::registry::{ConsolidatorRegistry, ParamValue, Params, COLONY_KEYS};

/// Strategy: a random homogeneous instance with unit bins and items in
/// (0, 0.7] per dimension — always solvable with enough bins.
fn homogeneous_instance() -> impl Strategy<Value = Instance> {
    (1usize..30, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = snooze_simcore::rng::SimRng::new(seed);
        let items: Vec<ResourceVector> = (0..n)
            .map(|_| {
                ResourceVector::new(
                    rng.uniform(0.05, 0.7),
                    rng.uniform(0.05, 0.7),
                    rng.uniform(0.05, 0.7),
                    rng.uniform(0.05, 0.7),
                )
            })
            .collect();
        Instance::homogeneous(items, n, ResourceVector::splat(1.0))
    })
}

/// Strategy: same but with alternating 1× / 2× bins.
fn heterogeneous_instance() -> impl Strategy<Value = Instance> {
    homogeneous_instance().prop_map(|mut inst| {
        for (i, b) in inst.bins.iter_mut().enumerate() {
            if i % 2 == 1 {
                *b = ResourceVector::splat(2.0);
            }
        }
        inst
    })
}

/// Strategy: the instance shapes the construction kernel treats
/// differently — few demand classes, all-distinct items, two capacity
/// classes, a dimension no host has, an unplaceable item, no hosts — at
/// sizes from empty upward.
fn kernel_instance() -> impl Strategy<Value = Instance> {
    (0usize..7, 0usize..56, any::<u64>()).prop_map(|(shape, n, seed)| {
        let mut rng = snooze_simcore::rng::SimRng::new(seed);
        let grid11 = InstanceGenerator::grid11();
        match shape {
            // The live system's 12 flavours on 8-core hosts, alternating
            // with 16-core hosts for odd seeds.
            0 => {
                let mut inst = grid11.generate_flavoured(n, n.max(1), &mut rng);
                if seed % 2 == 1 {
                    for bin in inst.bins.iter_mut().step_by(2) {
                        *bin = grid11.capacity * 2.0;
                    }
                }
                inst
            }
            1 => grid11.generate(n, &mut rng),
            2 => grid11.generate_heterogeneous(n, &mut rng),
            // A dimension with zero capacity: demanded by nobody (solvable)
            // or, for odd seeds, by everybody (nothing fits anywhere).
            3 => {
                let mut inst = grid11.generate(n, &mut rng);
                for bin in &mut inst.bins {
                    bin.net_tx = 0.0;
                }
                if seed % 2 == 0 {
                    for item in &mut inst.items {
                        item.net_tx = 0.0;
                    }
                }
                inst
            }
            // One item larger than every bin.
            4 => {
                let mut inst = grid11.generate_heterogeneous(n.max(1), &mut rng);
                let victim = rng.range(0, inst.items.len());
                inst.items[victim] = grid11.capacity * 3.0;
                inst
            }
            // No hosts at all.
            5 => {
                let mut inst = grid11.generate(n, &mut rng);
                inst.bins.clear();
                inst
            }
            // Too few hosts: some ants run out, some may not.
            _ => {
                let mut inst = grid11.generate(n, &mut rng);
                let keep = (inst.lower_bound() + 1).min(inst.bins.len());
                inst.bins.truncate(keep);
                inst
            }
        }
    })
}

/// Strategy: the homogeneous shapes the exact solver accepts — GRID'11
/// (all-distinct real demands), twelve flavours (small integers, so the
/// volume bound is often hit exactly) and unit bins — with a node budget
/// small enough that many searches run out of it.
fn exact_instance() -> impl Strategy<Value = (Instance, u64)> {
    (0usize..3, 1usize..32, any::<u64>(), 2_000u64..50_000).prop_map(|(shape, n, seed, budget)| {
        let mut rng = snooze_simcore::rng::SimRng::new(seed);
        let grid11 = InstanceGenerator::grid11();
        let instance = match shape {
            0 => grid11.generate(n, &mut rng),
            1 => grid11.generate_flavoured(n, n, &mut rng),
            _ => {
                let items = (0..n)
                    .map(|_| {
                        ResourceVector::new(
                            rng.uniform(0.05, 0.7),
                            rng.uniform(0.05, 0.7),
                            rng.uniform(0.05, 0.7),
                            rng.uniform(0.05, 0.7),
                        )
                    })
                    .collect();
                Instance::homogeneous(items, n, ResourceVector::splat(1.0))
            }
        };
        (instance, budget)
    })
}

fn algorithms() -> Vec<Box<dyn Consolidator>> {
    vec![
        Box::new(FirstFitDecreasing { key: SortKey::Cpu }),
        Box::new(FirstFitDecreasing { key: SortKey::L2 }),
        Box::new(BestFit { key: SortKey::L1 }),
        Box::new(WorstFit { key: SortKey::Linf }),
        Box::new(AcoConsolidator::new(AcoParams {
            n_ants: 4,
            n_cycles: 4,
            ..AcoParams::fast()
        })),
        Box::new(DistributedAco::new(DistributedParams {
            partitions: 2,
            exchange_rounds: 1,
            aco: AcoParams {
                n_ants: 4,
                n_cycles: 4,
                ..AcoParams::fast()
            },
        })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_algorithms_feasible_on_homogeneous(inst in homogeneous_instance()) {
        for algo in algorithms() {
            if let Some(sol) = algo.consolidate(&inst) {
                prop_assert!(sol.is_feasible(&inst), "{} infeasible", algo.name());
                prop_assert!(
                    sol.bins_used() >= inst.lower_bound(),
                    "{} beat the lower bound", algo.name()
                );
                prop_assert!(sol.avg_used_bin_utilization(&inst) <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn all_algorithms_feasible_on_heterogeneous(inst in heterogeneous_instance()) {
        for algo in algorithms() {
            if let Some(sol) = algo.consolidate(&inst) {
                prop_assert!(sol.is_feasible(&inst), "{} infeasible on mixed fleet", algo.name());
            }
        }
    }

    #[test]
    fn every_registered_consolidator_is_feasible(inst in homogeneous_instance()) {
        // The registry contract: anything a scenario file can name must
        // yield a feasible solution or decline — on fresh instances and
        // on live ones carrying an incumbent placement.
        let reg = ConsolidatorRegistry::standard();
        let fast: Params = [
            ("preset".to_string(), ParamValue::Str("fast".into())),
            ("n_ants".to_string(), ParamValue::Int(4)),
            ("n_cycles".to_string(), ParamValue::Int(4)),
        ].into_iter().collect();
        let spread: Vec<usize> = (0..inst.n_items()).map(|i| i % inst.n_bins()).collect();
        let live = Instance { incumbent: Some(spread), ..inst.clone() };
        for key in reg.keys() {
            let params = if COLONY_KEYS.contains(key) {
                fast.clone()
            } else {
                Params::new()
            };
            let algo = reg.build(key, &params)
                .unwrap_or_else(|e| panic!("{key} must build: {e}"));
            for variant in [&inst, &live] {
                if let Some(sol) = algo.consolidate(variant) {
                    prop_assert!(sol.is_feasible(variant), "{key} infeasible");
                    prop_assert!(
                        sol.bins_used() >= variant.lower_bound(),
                        "{key} beat the lower bound"
                    );
                }
            }
        }
    }

    #[test]
    fn migration_cost_is_zero_against_identical_incumbent(inst in homogeneous_instance()) {
        // Any solution measured against itself as incumbent moves nothing.
        for algo in algorithms() {
            if let Some(sol) = algo.consolidate(&inst) {
                prop_assert_eq!(sol.migration_count(&sol.assignment), 0);
            }
        }
    }

    #[test]
    fn optimum_is_never_beaten(inst in homogeneous_instance()) {
        prop_assume!(inst.n_items() <= 12); // keep B&B instant
        let out = BranchAndBound { node_budget: 2_000_000 }.solve(&inst);
        if let Some(opt) = out.solution {
            prop_assert!(opt.is_feasible(&inst));
            if out.optimal {
                for algo in algorithms() {
                    if let Some(sol) = algo.consolidate(&inst) {
                        prop_assert!(
                            sol.bins_used() >= opt.bins_used(),
                            "{} ({}) beat the proven optimum ({})",
                            algo.name(), sol.bins_used(), opt.bins_used()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn canonicalize_preserves_feasibility_and_bin_count(inst in homogeneous_instance()) {
        let ffd = FirstFitDecreasing { key: SortKey::L1 };
        if let Some(sol) = ffd.consolidate(&inst) {
            let mut canon = sol.clone();
            canon.canonicalize();
            prop_assert_eq!(canon.bins_used(), sol.bins_used());
            prop_assert!(canon.is_feasible(&inst));
            // Canonical bins are exactly 0..bins_used.
            let max_bin = canon.assignment.iter().copied().max().unwrap_or(0);
            if !canon.assignment.is_empty() {
                prop_assert_eq!(max_bin + 1, canon.bins_used());
            }
        }
    }

    #[test]
    fn solution_metrics_are_consistent(inst in homogeneous_instance()) {
        let ffd = FirstFitDecreasing { key: SortKey::L2 };
        if let Some(sol) = ffd.consolidate(&inst) {
            let loads = sol.bin_loads(&inst);
            // Total load equals total demand.
            let total_load: ResourceVector = loads.iter().copied().sum();
            let total_demand: ResourceVector = inst.items.iter().copied().sum();
            for d in 0..snooze_cluster::resources::DIMS {
                prop_assert!((total_load.get(d) - total_demand.get(d)).abs() < 1e-6);
            }
            // bins_used agrees with non-empty loads.
            let nonempty = loads.iter().filter(|l| l.l1() > 0.0).count();
            prop_assert_eq!(nonempty, sol.bins_used());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The shipped construction kernel (class memo, fresh-bin table, `τ^α`
    /// shortcuts, a per-ant τ row built from the sparse pheromone store)
    /// against the frozen naive colony: the whole deterministic surface of
    /// the run, bit for bit.
    #[test]
    fn aco_kernel_reproduces_the_naive_reference(
        inst in kernel_instance(),
        exponents in 0usize..9,
        all_ants in any::<bool>(),
        colony in any::<u64>(),
    ) {
        let params = AcoParams {
            n_ants: 1 + (colony % 5) as usize,
            n_cycles: 1 + (colony / 5 % 6) as usize,
            alpha: [0.0, 1.0, 1.7][exponents % 3],
            beta: [0.0, 2.0, 2.5][exponents / 3],
            seed: colony,
            update_rule: if all_ants { UpdateRule::AllAnts } else { UpdateRule::GlobalBest },
            ..AcoParams::default()
        };
        let run = AcoConsolidator::new(params).run(&inst);
        let shipped = aco_reference::ReferenceRun {
            solution: run.solution,
            best_bins_per_cycle: run.best_bins_per_cycle,
            failed_ants: run.failed_ants,
            construction_steps: run.profile.construction_steps,
            evaluation_comparisons: run.profile.evaluation_comparisons,
            evaporation_updates: run.profile.evaporation_updates,
        };
        prop_assert_eq!(shipped, aco_reference::run(params, &inst));
    }

    /// The stop at the lower bound against the full colony (the reference
    /// with the stop off). Where it applies — identical hosts, no negative
    /// component — the shipped run is the full colony cut after the first
    /// cycle whose best meets the bound: same host count, its convergence
    /// series a prefix, and every field that of a full colony given only
    /// that many cycles. Where the bound is never met, the hosts differ or
    /// a component is negative, every field is the full colony's. Besides
    /// the kernel shapes: one item made negative in one dimension, and one
    /// host made larger by 1 Mbit/s, so hosts differ where the colony meets
    /// the bound as often as on identical ones.
    #[test]
    fn aco_stops_at_the_lower_bound_only_where_a_cycle_buys_nothing(
        inst in kernel_instance(),
        variant in 0usize..3,
        colony in any::<u64>(),
    ) {
        let mut inst = inst;
        match variant {
            1 => {
                if let Some(item) = inst.items.first_mut() {
                    item.net_rx = -item.net_rx - 1.0;
                }
            }
            2 => {
                if let Some(bin) = inst.bins.last_mut() {
                    bin.net_rx += 1.0;
                }
            }
            _ => {}
        }
        let params = AcoParams {
            n_ants: 1 + (colony % 4) as usize,
            n_cycles: 1 + (colony / 4 % 12) as usize,
            seed: colony,
            ..AcoParams::default()
        };
        let run = AcoConsolidator::new(params).run(&inst);
        prop_assert_eq!(run.profile.cycles, run.best_bins_per_cycle.len() as u64);
        let shipped = aco_reference::ReferenceRun {
            solution: run.solution,
            best_bins_per_cycle: run.best_bins_per_cycle,
            failed_ants: run.failed_ants,
            construction_steps: run.profile.construction_steps,
            evaluation_comparisons: run.profile.evaluation_comparisons,
            evaporation_updates: run.profile.evaporation_updates,
        };
        let full = aco_reference::colony(params, &inst, false);
        let applies = inst.is_homogeneous()
            && inst
                .items
                .iter()
                .chain(&inst.bins)
                .all(|v| v.to_array().iter().all(|x| *x >= 0.0));
        let bound = inst.lower_bound();
        let stop = full
            .best_bins_per_cycle
            .iter()
            .position(|&bins| applies && bins <= bound);
        match stop {
            None => prop_assert_eq!(shipped, full),
            Some(cycle) => {
                let hosts = |run: &aco_reference::ReferenceRun| {
                    run.solution.as_ref().map(Solution::bins_used)
                };
                prop_assert_eq!(hosts(&shipped), hosts(&full));
                prop_assert_eq!(
                    &shipped.best_bins_per_cycle[..],
                    &full.best_bins_per_cycle[..=cycle]
                );
                let cut = AcoParams { n_cycles: cycle + 1, ..params };
                prop_assert_eq!(shipped, aco_reference::colony(cut, &inst, false));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The shipped search (pruning on `max(open, root bound)`) against the
    /// frozen one (re-summing the open bins' residuals at every node):
    /// solution, `optimal` and node count, bit for bit.
    #[test]
    fn exact_search_reproduces_the_per_node_bound_reference(
        case in exact_instance(),
    ) {
        let (inst, budget) = case;
        let out = BranchAndBound { node_budget: budget }.solve(&inst);
        let shipped = exact_reference::ReferenceOutcome {
            solution: out.solution,
            optimal: out.optimal,
            nodes: out.nodes,
        };
        prop_assert_eq!(shipped, exact_reference::solve(budget, &inst));
    }
}

/// A negative demand grows the residual it is subtracted from, which
/// breaks the argument that lets an in-bin step rescan only the items that
/// fitted the step before: here a `0.9` that stopped fitting fits again
/// after the `-1.0` is placed. The kernel must rescan every item on such an
/// instance and still draw what the reference draws.
#[test]
fn aco_kernel_reproduces_the_reference_on_negative_components() {
    let v = |x: f64| ResourceVector {
        cpu: x,
        memory: x,
        net_rx: x,
        net_tx: x,
    };
    let items = [0.9, 0.9, 0.9, -1.0, 0.6, -0.5, 0.3].map(v).to_vec();
    let inst = Instance::homogeneous(items, 7, v(1.0));
    for seed in 0..64 {
        let params = AcoParams {
            n_ants: 3,
            n_cycles: 2,
            seed,
            ..AcoParams::default()
        };
        let run = AcoConsolidator::new(params).run(&inst);
        let shipped = aco_reference::ReferenceRun {
            solution: run.solution,
            best_bins_per_cycle: run.best_bins_per_cycle,
            failed_ants: run.failed_ants,
            construction_steps: run.profile.construction_steps,
            evaluation_comparisons: run.profile.evaluation_comparisons,
            evaporation_updates: run.profile.evaporation_updates,
        };
        assert_eq!(shipped, aco_reference::run(params, &inst), "seed {seed}");
    }
}

#[test]
fn exact_solver_rejects_heterogeneous_instances() {
    let inst = Instance {
        items: vec![ResourceVector::splat(0.5)],
        bins: vec![ResourceVector::splat(1.0), ResourceVector::splat(2.0)],
        incumbent: None,
    };
    assert!(!inst.is_homogeneous());
    let result = std::panic::catch_unwind(|| BranchAndBound::default().solve(&inst));
    assert!(result.is_err(), "must refuse unsound input loudly");
}

#[test]
fn heterogeneous_generator_produces_mixed_bins() {
    let gen = InstanceGenerator::grid11();
    let inst = gen.generate_heterogeneous(20, &mut snooze_simcore::rng::SimRng::new(1));
    assert!(!inst.is_homogeneous());
    // Heuristics still solve it.
    let sol = BestFit { key: SortKey::L2 }.consolidate(&inst).unwrap();
    assert!(sol.is_feasible(&inst));
}

#[test]
fn empty_solution_is_feasible_for_empty_instance() {
    let inst = Instance::homogeneous(vec![], 3, ResourceVector::splat(1.0));
    let sol = Solution { assignment: vec![] };
    assert!(sol.is_feasible(&inst));
    assert_eq!(sol.bins_used(), 0);
    assert_eq!(sol.avg_used_bin_utilization(&inst), 0.0);
}
