//! Property-based tests over the cluster substrate: the node power-state
//! machine never reaches an inconsistent state under random command
//! sequences, the migration model's outputs behave monotonically, the
//! energy meter never decreases, and hypervisor accounting balances.

use proptest::prelude::*;

use snooze_cluster::hypervisor::Hypervisor;
use snooze_cluster::migration::MigrationModel;
use snooze_cluster::node::{PowerState, PowerStateMachine, TransitionTimes};
use snooze_cluster::power::{EnergyMeter, LinearPower, PowerModel, SpecLikePower};
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::VmWorkload;
use snooze_simcore::time::{SimSpan, SimTime};

/// A random power command.
#[derive(Clone, Copy, Debug)]
enum Cmd {
    Suspend,
    Resume,
    Tick(u64),
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        Just(Cmd::Suspend),
        Just(Cmd::Resume),
        (0u64..400).prop_map(Cmd::Tick),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn power_state_machine_never_corrupts(cmds in prop::collection::vec(cmd_strategy(), 1..60)) {
        let mut m = PowerStateMachine::new_on(TransitionTimes::typical_server());
        let mut now = SimTime::ZERO;
        let model = LinearPower::grid5000();
        for cmd in cmds {
            match cmd {
                Cmd::Suspend => { let _ = m.suspend(now); }
                Cmd::Resume => { let _ = m.resume(now); }
                Cmd::Tick(s) => {
                    now += SimSpan::from_secs(s);
                    m.tick(now);
                }
            }
            // Invariants: power draw is finite and non-negative in every
            // state; transitional states always carry a completion time
            // at or after "now minus transition span".
            let w = m.watts(&model, 0.5);
            prop_assert!(w.is_finite() && w >= 0.0);
            if let Some(done) = m.state().transition_done_at() {
                prop_assert!(done >= now.max(SimTime::ZERO) || m.tick(now) != m.state());
            }
        }
        // Eventually-quiescent: after a long tick, no transition remains.
        now += SimSpan::from_secs(3600);
        let settled = m.tick(now);
        prop_assert!(settled.transition_done_at().is_none());
        prop_assert!(matches!(settled, PowerState::On | PowerState::Suspended));
    }

    #[test]
    fn migration_model_behaves_monotonically(
        image in 1.0..16_384.0f64,
        dirty in 0.0..300.0f64,
        bw in 20.0..1000.0f64,
    ) {
        let model = MigrationModel { bandwidth_mbps: bw, max_rounds: 30, stop_copy_threshold_mb: 50.0 };
        let est = model.estimate(image, dirty);
        prop_assert!(est.duration >= est.downtime);
        prop_assert!(est.transferred_mb >= image - 1e-9, "must move at least the image");
        prop_assert!(est.rounds <= model.max_rounds);
        // More dirtying can only increase cost *while pre-copy still
        // converges*. Past the convergence boundary (dirty ≥ bw) the
        // model deliberately bails to stop-and-copy after one round,
        // which transfers less but pauses much longer — also check that.
        let busier = model.estimate(image, dirty + 50.0);
        if (dirty + 50.0) / bw < 0.95 {
            prop_assert!(busier.transferred_mb >= est.transferred_mb - 1e-6);
        } else if dirty + 50.0 >= bw && image > model.stop_copy_threshold_mb {
            prop_assert!(busier.downtime >= est.downtime);
        }
        // Within the converging regime, a faster link can only shrink
        // the total migration time. (Across the convergence boundary
        // neither duration nor pause is monotone: a faster link can turn
        // an early stop-and-copy bail-out into a long converging
        // pre-copy, trading a shorter pause for a longer migration — and
        // with a fixed stop threshold, it also stops at a larger
        // residue. Both are properties of real pre-copy, not bugs.)
        if dirty / bw < 0.9 {
            let faster = MigrationModel { bandwidth_mbps: bw * 2.0, ..model }.estimate(image, dirty);
            prop_assert!(
                faster.duration <= est.duration + snooze_simcore::time::SimSpan::from_millis(1)
            );
        }
    }

    #[test]
    fn energy_meter_is_monotone(
        updates in prop::collection::vec((0u64..1000, 0.0..400.0f64), 1..40)
    ) {
        let mut meter = EnergyMeter::new(SimTime::ZERO, 100.0);
        let mut now = SimTime::ZERO;
        let mut prev = 0.0;
        for (dt, watts) in updates {
            now += SimSpan::from_secs(dt);
            meter.update(now, watts);
            let j = meter.joules_at(now);
            prop_assert!(j >= prev - 1e-9, "energy must not decrease");
            prev = j;
        }
    }

    #[test]
    fn power_models_are_bounded_and_monotone(u1 in 0.0..1.0f64, u2 in 0.0..1.0f64) {
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        for model in [&LinearPower::grid5000() as &dyn PowerModel, &SpecLikePower::xeon_2011()] {
            prop_assert!(model.active_watts(lo) <= model.active_watts(hi) + 1e-9);
            prop_assert!(model.suspended_watts() < model.active_watts(0.0));
        }
    }

    #[test]
    fn hypervisor_reservation_accounting_balances(
        sizes in prop::collection::vec(0.05..0.5f64, 1..20)
    ) {
        let cap = ResourceVector::splat(4.0);
        let mut h = Hypervisor::new(cap);
        let mut admitted = Vec::new();
        for (i, &s) in sizes.iter().enumerate() {
            let spec = VmSpec::new(VmId(i as u64), ResourceVector::splat(s));
            if h.admit(spec, VmWorkload::flat_full(i as u64), SimTime::ZERO).is_ok() {
                admitted.push(spec);
            }
        }
        // Reserved equals the sum of admitted reservations.
        let expect: ResourceVector = admitted.iter().map(|s| s.requested).sum();
        prop_assert!((h.reserved().l1() - expect.l1()).abs() < 1e-9);
        prop_assert!(h.reserved().fits_within(&cap));
        // Removing everything returns to zero.
        for spec in &admitted {
            prop_assert!(h.remove(spec.id).is_some());
        }
        prop_assert!(h.is_idle());
        prop_assert!(h.reserved().l1() < 1e-9, "float residue only: {}", h.reserved().l1());
    }
}
