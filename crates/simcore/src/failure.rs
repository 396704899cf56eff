//! Failure injection plans.
//!
//! The paper's §II-E describes recovery from GL, GM and LC failures; the
//! CCGrid evaluation killed components mid-run and measured that
//! "fault tolerance features of the framework do not impact application
//! performance". [`FailurePlan`] expresses those experiments declaratively:
//! a list of crash/restart actions applied to an [`Engine`] before the run,
//! plus generators for random failure schedules.

use crate::engine::{Component, ComponentId, Engine, NetFault};
use crate::rng::SimRng;
use crate::time::{SimSpan, SimTime};

/// One scheduled failure action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureAction {
    /// Crash the component at the given time.
    Crash(SimTime, ComponentId),
    /// Restart the component at the given time.
    Restart(SimTime, ComponentId),
    /// Cut the component off from the network at the given time.
    Isolate(SimTime, ComponentId),
    /// Reconnect a previously isolated component at the given time.
    Reconnect(SimTime, ComponentId),
    /// Degrade every link from the given time on: set the message-loss
    /// probability in parts per million.
    Degrade(SimTime, u32),
}

impl FailureAction {
    /// When this action fires.
    pub fn time(&self) -> SimTime {
        match *self {
            FailureAction::Crash(t, _)
            | FailureAction::Restart(t, _)
            | FailureAction::Isolate(t, _)
            | FailureAction::Reconnect(t, _)
            | FailureAction::Degrade(t, _) => t,
        }
    }

    /// The component affected, if the action targets one (link
    /// degradation targets the whole network).
    pub fn target(&self) -> Option<ComponentId> {
        match *self {
            FailureAction::Crash(_, c)
            | FailureAction::Restart(_, c)
            | FailureAction::Isolate(_, c)
            | FailureAction::Reconnect(_, c) => Some(c),
            FailureAction::Degrade(..) => None,
        }
    }
}

/// A declarative failure schedule.
#[derive(Clone, Debug, Default)]
pub struct FailurePlan {
    actions: Vec<FailureAction>,
}

impl FailurePlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Crash `id` at `at`.
    pub fn crash(mut self, at: SimTime, id: ComponentId) -> Self {
        self.actions.push(FailureAction::Crash(at, id));
        self
    }

    /// Restart `id` at `at`.
    pub fn restart(mut self, at: SimTime, id: ComponentId) -> Self {
        self.actions.push(FailureAction::Restart(at, id));
        self
    }

    /// Crash `id` at `at` and restart it after `downtime`.
    pub fn crash_for(self, at: SimTime, downtime: SimSpan, id: ComponentId) -> Self {
        self.crash(at, id).restart(at + downtime, id)
    }

    /// Isolate `id` from the network at `at`.
    pub fn isolate(mut self, at: SimTime, id: ComponentId) -> Self {
        self.actions.push(FailureAction::Isolate(at, id));
        self
    }

    /// Reconnect `id` at `at`.
    pub fn reconnect(mut self, at: SimTime, id: ComponentId) -> Self {
        self.actions.push(FailureAction::Reconnect(at, id));
        self
    }

    /// Isolate `id` at `at` and reconnect it after `downtime` — a link
    /// failure rather than a process failure: the component keeps
    /// running but nobody can hear it.
    pub fn isolate_for(self, at: SimTime, downtime: SimSpan, id: ComponentId) -> Self {
        self.isolate(at, id).reconnect(at + downtime, id)
    }

    /// Set the network-wide message-loss probability to `ppm` parts per
    /// million from `at` on (0 restores a lossless network).
    pub fn degrade_links(mut self, at: SimTime, ppm: u32) -> Self {
        self.actions.push(FailureAction::Degrade(at, ppm));
        self
    }

    /// A schedule of independent crash/repair cycles: each target fails
    /// with exponentially distributed inter-failure times (`mttf` mean) and
    /// recovers after exponentially distributed repair times (`mttr` mean),
    /// until `horizon`.
    // check-allow(uncalled): the chaos schedule tests/full_stack.rs soaks
    // the hierarchy under; scenario files schedule their faults one by one.
    pub fn random_crash_repair(
        targets: &[ComponentId],
        mttf: SimSpan,
        mttr: SimSpan,
        horizon: SimTime,
        rng: &mut SimRng,
    ) -> Self {
        let mut plan = FailurePlan::new();
        for &t in targets {
            let mut clock = SimTime::ZERO;
            loop {
                clock += rng.exp_span(mttf);
                if clock >= horizon {
                    break;
                }
                let down = rng.exp_span(mttr);
                plan = plan.crash(clock, t);
                clock += down;
                if clock >= horizon {
                    break;
                }
                plan = plan.restart(clock, t);
            }
        }
        plan.sorted()
    }

    /// Actions sorted by time (stable for equal times).
    fn sorted(mut self) -> Self {
        self.actions.sort_by_key(|a| a.time());
        self
    }

    /// The scheduled actions.
    pub fn actions(&self) -> &[FailureAction] {
        &self.actions
    }

    /// Install every action into the engine's event queue.
    pub fn apply<C: Component>(&self, engine: &mut Engine<C>) {
        for action in &self.actions {
            match *action {
                FailureAction::Crash(at, id) => engine.schedule_crash(at, id),
                FailureAction::Restart(at, id) => engine.schedule_restart(at, id),
                FailureAction::Isolate(at, id) => {
                    engine.schedule_net_fault(at, NetFault::Isolate(id))
                }
                FailureAction::Reconnect(at, id) => {
                    engine.schedule_net_fault(at, NetFault::Reconnect(id))
                }
                FailureAction::Degrade(at, ppm) => {
                    engine.schedule_net_fault(at, NetFault::SetLossPpm(ppm))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Component, Ctx, SimBuilder};
    use crate::node_enum;

    struct Dummy;
    impl Component for Dummy {
        type Msg = ();
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: ComponentId, _: ()) {}
    }

    struct Beacon {
        peer: ComponentId,
    }
    impl Component for Beacon {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer(SimSpan::from_secs(1), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: ComponentId, _: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _tag: u64) {
            ctx.send(self.peer, ());
            ctx.set_timer(SimSpan::from_secs(1), 0);
        }
    }

    struct Sink {
        seen: u32,
    }
    impl Component for Sink {
        type Msg = ();
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: ComponentId, _: ()) {
            self.seen += 1;
        }
    }

    node_enum! {
        enum FaultNode: () {
            Dummy(Dummy) as as_dummy,
            Beacon(Beacon) as as_beacon,
            Sink(Sink) as as_sink,
        }
    }

    #[test]
    fn builder_accumulates_actions() {
        let plan = FailurePlan::new()
            .crash_for(SimTime::from_secs(1), SimSpan::from_secs(2), ComponentId(0))
            .crash(SimTime::from_secs(9), ComponentId(1));
        assert_eq!(
            plan.actions(),
            [
                FailureAction::Crash(SimTime::from_secs(1), ComponentId(0)),
                FailureAction::Restart(SimTime::from_secs(3), ComponentId(0)),
                FailureAction::Crash(SimTime::from_secs(9), ComponentId(1)),
            ]
        );
    }

    #[test]
    fn apply_drives_engine_lifecycle() {
        let mut sim: Engine<FaultNode> = SimBuilder::new(1).build();
        let id = sim.add_component("d", Dummy);
        FailurePlan::new()
            .crash_for(SimTime::from_secs(1), SimSpan::from_secs(1), id)
            .apply(&mut sim);
        sim.run_until(SimTime::from_secs(1) + SimSpan::from_millis(1));
        assert!(!sim.is_alive(id));
        sim.run_until(SimTime::from_secs(3));
        assert!(sim.is_alive(id));
    }

    #[test]
    fn random_plan_is_sorted_and_alternates_per_target() {
        let mut rng = SimRng::new(5);
        let targets = [ComponentId(0), ComponentId(1), ComponentId(2)];
        let plan = FailurePlan::random_crash_repair(
            &targets,
            SimSpan::from_secs(100),
            SimSpan::from_secs(10),
            SimTime::from_secs(2000),
            &mut rng,
        );
        let times: Vec<SimTime> = plan.actions().iter().map(|a| a.time()).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted, "plan must be time-ordered");
        // Per-target, actions must strictly alternate crash/restart.
        for &t in &targets {
            let mut expect_crash = true;
            for a in plan.actions().iter().filter(|a| a.target() == Some(t)) {
                match a {
                    FailureAction::Crash(..) => {
                        assert!(expect_crash, "two crashes in a row for {t:?}");
                        expect_crash = false;
                    }
                    FailureAction::Restart(..) => {
                        assert!(!expect_crash, "restart before crash for {t:?}");
                        expect_crash = true;
                    }
                    other => panic!("unexpected action in random plan: {other:?}"),
                }
            }
        }
        assert!(
            !plan.actions().is_empty(),
            "horizon long enough to see failures"
        );
    }

    #[test]
    fn net_faults_fire_as_events() {
        let mut sim: Engine<FaultNode> = SimBuilder::new(3).build();
        let sink = sim.add_component("sink", Sink { seen: 0 });
        let beacon = sim.add_component("beacon", Beacon { peer: sink });
        // Isolate the beacon for seconds (4, 8]: its 1 Hz pings during
        // that window are lost; outside it they arrive.
        FailurePlan::new()
            .isolate_for(
                SimTime::from_secs(4) + SimSpan::from_micros(1),
                SimSpan::from_secs(4),
                beacon,
            )
            .apply(&mut sim);
        sim.run_until(SimTime::from_secs(10) + SimSpan::from_millis(1));
        let seen = sim.component(sink).as_sink().unwrap().seen;
        assert_eq!(seen, 6, "pings at 1-4 and 9-10 arrive, 5-8 are lost");
        assert_eq!(sim.metrics().counter("failure.net"), 2);
    }

    #[test]
    fn degrade_links_changes_loss_rate_at_the_scheduled_time() {
        let mut sim: Engine<FaultNode> = SimBuilder::new(1).build();
        let plan = FailurePlan::new().degrade_links(SimTime::from_secs(1), 1_000_000);
        assert_eq!(plan.actions()[0].target(), None);
        plan.apply(&mut sim);
        let sink = sim.add_component("sink", Dummy);
        sim.run_until(SimTime::from_secs(2));
        // With 100% loss installed at t=1, a message sent via the network
        // from another component would be dropped; external posts bypass
        // loss, so just assert the event executed and was counted.
        assert_eq!(sim.metrics().counter("failure.net"), 1);
        let _ = sink;
    }

    #[test]
    fn random_plan_respects_horizon() {
        let mut rng = SimRng::new(9);
        let plan = FailurePlan::random_crash_repair(
            &[ComponentId(0)],
            SimSpan::from_secs(5),
            SimSpan::from_secs(1),
            SimTime::from_secs(100),
            &mut rng,
        );
        for a in plan.actions() {
            assert!(a.time() < SimTime::from_secs(100));
        }
    }
}
