//! Runtime invariant checks (layer 2), exercised with the `audit`
//! feature armed: `cargo test -p snooze-audit --features audit`.
//!
//! Each test collects on its own thread, so the suite runs in parallel.

use snooze_simcore::invariant::{collect, report};
use snooze_simcore::prelude::*;

use snooze_cluster::hypervisor::Hypervisor;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::VmWorkload;

/// Run `f` with a collector active on this thread; return what it
/// gathered.
fn collected(f: impl FnOnce()) -> Vec<String> {
    collect(f).1.iter().map(|v| v.to_string()).collect()
}

#[test]
fn clean_engine_run_reports_no_violations() {
    struct Echo;
    impl Component for Echo {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.set_timer(SimSpan::from_secs(1), 1);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _src: ComponentId, _msg: u64) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
            ctx.set_timer(SimSpan::from_secs(1), 1);
        }
    }

    let violations = collected(|| {
        let mut sim: Engine<Echo> = SimBuilder::new(42).build();
        sim.add_component("echo", Echo);
        sim.run_until(SimTime::from_secs(50));
        assert!(sim.events_executed() > 40);
    });
    assert_eq!(violations, Vec::<String>::new());
}

#[test]
fn hypervisor_mutations_stay_conserving() {
    let violations = collected(|| {
        let mut hv = Hypervisor::new(ResourceVector::splat(16.0));
        for i in 0..4 {
            let spec = VmSpec::new(VmId(i), ResourceVector::splat(3.0));
            hv.admit(spec, VmWorkload::flat_full(i), SimTime::ZERO)
                .expect("fits");
        }
        hv.remove(VmId(1));
        hv.remove(VmId(999)); // absent: must not disturb accounting
        hv.clear();
    });
    assert_eq!(violations, Vec::<String>::new());
}

#[test]
fn aco_pheromone_and_feasibility_hold_over_a_run() {
    use snooze_consolidation::aco::{AcoConsolidator, AcoParams};
    use snooze_consolidation::problem::InstanceGenerator;
    use snooze_simcore::rng::SimRng;

    let violations = collected(|| {
        let inst = InstanceGenerator::grid11().generate(20, &mut SimRng::new(9));
        let run = AcoConsolidator::new(AcoParams::fast()).run(&inst);
        assert!(run.solution.is_some());
    });
    assert_eq!(violations, Vec::<String>::new());
}

#[test]
fn violations_reach_the_collector_with_domain_and_rule() {
    let violations = collected(|| {
        report("test-domain", "test-rule", "synthetic".to_string());
    });
    assert_eq!(violations, vec!["[test-domain/test-rule] synthetic"]);
}

#[test]
fn full_stack_scenario_is_violation_free_under_audit() {
    use snooze_audit::determinism::{run_once, Scenario};
    let violations = collected(|| {
        let fp = run_once(&Scenario {
            seed: 7,
            nodes: 4,
            vms: 4,
            secs: 120,
        });
        assert!(fp.events > 0);
    });
    assert_eq!(violations, Vec::<String>::new());
}
