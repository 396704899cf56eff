//! Repository-wide determinism: every layer, from the DES engine to the
//! full experiments, must replay bit-identically from a seed. This is
//! what makes the reproduced tables reproducible.

use snooze::prelude::*;
use snooze_cluster::node::NodeSpec;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::{UsageShape, VmWorkload};
use snooze_consolidation::aco::{AcoConsolidator, AcoParams};
use snooze_consolidation::distributed::{DistributedAco, DistributedParams};
use snooze_consolidation::exact::BranchAndBound;
use snooze_consolidation::problem::InstanceGenerator;
use snooze_simcore::prelude::*;
use snooze_simcore::rng::SimRng;

fn full_system_fingerprint(seed: u64) -> (u64, Vec<(VmId, ComponentId)>, String) {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(seed)
        .network(NetworkConfig::lossy_lan(0.02))
        .build();
    let config = SnoozeConfig::fast_test();
    let nodes = NodeSpec::standard_cluster(8);
    let system = SnoozeSystem::deploy(&mut sim, &config, 3, &nodes, 1);
    let schedule: Vec<ScheduledVm> = (0..10)
        .map(|i| ScheduledVm {
            at: SimTime::from_secs(10),
            spec: VmSpec::new(VmId(i), ResourceVector::new(2.0, 4096.0, 100.0, 100.0)),
            workload: VmWorkload {
                cpu: UsageShape::OnOff {
                    on_level: 0.9,
                    off_level: 0.1,
                    duty: 0.4,
                    slot: SimSpan::from_secs(60),
                },
                memory: UsageShape::Constant(0.7),
                network: UsageShape::Constant(0.2),
                seed: i,
            },
            lifetime: None,
        })
        .collect();
    let client = sim.add_component(
        "client",
        ClientDriver::new(system.eps[0], schedule, SimSpan::from_secs(10)),
    );
    // Inject a failure too: determinism must hold under healing.
    sim.schedule_crash(SimTime::from_secs(40), system.gms[0]);
    sim.run_until(SimTime::from_secs(300));
    let c = sim.component(client).as_client().unwrap();
    let placements: Vec<(VmId, ComponentId)> = c.placed.iter().map(|p| (p.vm, p.lc)).collect();
    let energy = format!("{:.6}", system.total_energy_wh(&sim, sim.now()));
    (sim.events_executed(), placements, energy)
}

#[test]
fn full_system_replays_identically() {
    assert_eq!(full_system_fingerprint(77), full_system_fingerprint(77));
}

#[test]
fn full_system_differs_across_seeds() {
    let a = full_system_fingerprint(77);
    let b = full_system_fingerprint(78);
    assert_ne!(
        a.0, b.0,
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
    // The umbrella crate doesn't depend on snooze-bench; reproduce E1's
    // core loop inline at a tiny size.
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
