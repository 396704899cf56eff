//! Tier-1 pin on the exact solver: `(bins_used, optimal, nodes)` of three
//! seeded GRID'11 instances under a 200 000-node budget. The node count is
//! the search's whole decision trace in one number, so a change to the
//! bound, the branching order, the symmetry breaking or the fit test that
//! moves a single branch fails plain `cargo test -q`. The constants were
//! captured on the commit before the branch-free `fits_within` landed.

use snooze_consolidation::exact::BranchAndBound;
use snooze_consolidation::problem::InstanceGenerator;
use snooze_simcore::rng::SimRng;

/// `(bins_used, optimal, nodes)` of GRID'11 instance `(n, seed)`.
fn pin(n: usize, seed: u64) -> (usize, bool, u64) {
    let inst = InstanceGenerator::grid11().generate(n, &mut SimRng::new(seed));
    let out = BranchAndBound {
        node_budget: 200_000,
    }
    .solve(&inst);
    let solution = out.solution.expect("instance is solvable");
    assert!(solution.is_feasible(&inst));
    (solution.bins_used(), out.optimal, out.nodes)
}

#[test]
fn optimum_at_the_root_bound_is_pinned() {
    // The volume bound is 8: the search stops at the first 8-bin leaf.
    assert_eq!(pin(20, 3), (8, true, 5_747));
}

#[test]
fn optimum_above_the_root_bound_is_pinned() {
    // The bound is 8, the optimum 9: every packing into fewer bins than
    // the incumbent is enumerated before the search ends.
    assert_eq!(pin(20, 4), (9, true, 108_804));
}

#[test]
fn budget_exhaustion_is_pinned() {
    assert_eq!(pin(25, 0), (11, false, 200_000));
}
