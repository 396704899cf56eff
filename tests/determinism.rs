//! Repository-wide determinism: every layer, from the DES engine to the
//! full experiments, must replay bit-identically from a seed. This is
//! what makes the reproduced tables reproducible.

use snooze_audit::determinism::{check, run_once, Scenario};
use snooze_consolidation::aco::{AcoConsolidator, AcoParams};
use snooze_consolidation::distributed::{DistributedAco, DistributedParams};
use snooze_consolidation::exact::BranchAndBound;
use snooze_consolidation::problem::InstanceGenerator;
use snooze_simcore::rng::SimRng;

#[test]
fn full_system_replays_identically() {
    // `Scenario::default()`: seed 77, 8 LCs, 10 VMs, 300 s on a 2 % lossy
    // LAN, a GM crash at 40 s — the run `snooze-audit determinism` diffs.
    let verdict = check(&Scenario::default());
    assert!(
        verdict.identical(),
        "diverging: {:?}",
        verdict.diverging_fields()
    );
}

#[test]
fn full_system_differs_across_seeds() {
    let a = run_once(&Scenario::default());
    let b = run_once(&Scenario {
        seed: 78,
        ..Scenario::default()
    });
    assert_ne!(
        a.events, b.events,
        "different seeds should explore different histories"
    );
}

#[test]
fn all_consolidators_are_deterministic() {
    let gen = InstanceGenerator::grid11();
    let inst = gen.generate(30, &mut SimRng::new(5));

    let aco = AcoConsolidator::new(AcoParams::fast());
    assert_eq!(aco.run(&inst).solution, aco.run(&inst).solution);

    let daco = DistributedAco::new(DistributedParams {
        aco: AcoParams::fast(),
        ..Default::default()
    });
    assert_eq!(daco.run(&inst), daco.run(&inst));

    let exact = BranchAndBound::default();
    assert_eq!(exact.solve(&inst).solution, exact.solve(&inst).solution);
}

#[test]
fn experiment_rows_replay_identically() {
    let a = snooze_bench_fingerprint();
    let b = snooze_bench_fingerprint();
    assert_eq!(a, b);
}

fn snooze_bench_fingerprint() -> String {
    // E1's core loop at a tiny size.
    let gen = InstanceGenerator::grid11();
    let inst = gen.generate(15, &mut SimRng::new(3));
    let aco = AcoConsolidator::new(AcoParams::fast()).consolidate_fingerprint(&inst);
    let opt = BranchAndBound::default()
        .solve(&inst)
        .solution
        .unwrap()
        .bins_used();
    format!("{aco}/{opt}")
}

trait Fingerprint {
    fn consolidate_fingerprint(&self, inst: &snooze_consolidation::problem::Instance) -> String;
}

impl Fingerprint for AcoConsolidator {
    fn consolidate_fingerprint(&self, inst: &snooze_consolidation::problem::Instance) -> String {
        use snooze_consolidation::problem::Consolidator;
        let sol = self.consolidate(inst).unwrap();
        format!("{}:{:?}", sol.bins_used(), sol.assignment)
    }
}
