//! Tier-1 pin on the ACO construction kernel: every bit of the colony's
//! output on three seeded instances. The constants were captured on the
//! commit before the demand-class memoised kernel landed, so plain
//! `cargo test -q` fails if any optimisation of `aco.rs` moves a single
//! random draw, weight or tie-break.

use snooze_consolidation::aco::{AcoConsolidator, AcoParams};
use snooze_consolidation::problem::{Instance, InstanceGenerator};
use snooze_simcore::rng::SimRng;
use snooze_telemetry::{fnv1a, FNV_OFFSET};

/// FNV-1a over the assignment's bin indices (little-endian u64 each).
fn assignment_digest(assignment: &[usize]) -> u64 {
    assignment.iter().fold(FNV_OFFSET, |hash, &bin| {
        fnv1a(hash, &(bin as u64).to_le_bytes())
    })
}

/// `(hosts, construction_steps, FNV-1a of assignment)` of a default-colony
/// run.
fn pin(instance: &Instance) -> (usize, u64, u64) {
    let run = AcoConsolidator::new(AcoParams::default()).run(instance);
    let solution = run.solution.expect("instance is solvable");
    assert!(solution.is_feasible(instance));
    (
        solution.bins_used(),
        run.profile.construction_steps,
        assignment_digest(&solution.assignment),
    )
}

#[test]
fn grid11_n60_is_pinned() {
    let inst = InstanceGenerator::grid11().generate(60, &mut SimRng::new(11));
    assert_eq!(pin(&inst), (27, 26_235, 4_767_523_307_200_430_394));
}

#[test]
fn twelve_flavour_n200_is_pinned() {
    // The live system's shape: 12 VM flavours on 8-core hosts.
    let inst = InstanceGenerator::grid11().generate_flavoured(200, 120, &mut SimRng::new(12));
    assert_eq!(pin(&inst), (62, 78_300, 15_132_279_211_677_242_250));
}

#[test]
fn heterogeneous_n40_is_pinned() {
    let inst = InstanceGenerator::grid11().generate_heterogeneous(40, &mut SimRng::new(13));
    assert_eq!(pin(&inst), (11, 15_218, 13_856_374_691_520_254_756));
}
