//! Physical nodes and their power-state machine.
//!
//! Snooze transitions idle Local Controllers "into the system administrator
//! specified power-state (e.g. suspend)" and wakes them "upon new VM
//! submission" (paper §I, §III). Those transitions are not instantaneous on
//! real hardware — suspend-to-RAM takes seconds, wake-up tens of seconds —
//! and that latency is exactly what makes the idle-time threshold policy
//! interesting. [`PowerStateMachine`] models the four states and their
//! timed transitions.

use std::sync::Arc;

use snooze_simcore::mc::{McHasher, McState};
use snooze_simcore::time::{SimSpan, SimTime};

use crate::power::{LinearPower, PowerModel};
use crate::resources::ResourceVector;

/// Identifies a physical node within a cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// Transition latencies of the platform's power management.
#[derive(Clone, Copy, Debug)]
pub struct TransitionTimes {
    /// Entering suspend-to-RAM.
    pub suspend: SimSpan,
    /// Waking from suspend-to-RAM.
    pub resume: SimSpan,
}

impl TransitionTimes {
    /// Typical 2011-era server: 8 s to suspend, 25 s to resume.
    pub fn typical_server() -> Self {
        TransitionTimes {
            suspend: SimSpan::from_secs(8),
            resume: SimSpan::from_secs(25),
        }
    }

    /// Instant transitions — for unit tests where timing is noise.
    pub fn instant() -> Self {
        TransitionTimes {
            suspend: SimSpan::ZERO,
            resume: SimSpan::ZERO,
        }
    }
}

/// The power state of a node. Transitional states carry their completion
/// time; callers advance the machine with [`PowerStateMachine::tick`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PowerState {
    /// Powered on and able to host VMs.
    On,
    /// Entering suspend; done at the contained time.
    Suspending(SimTime),
    /// Suspended to RAM.
    Suspended,
    /// Waking from suspend; done at the contained time.
    Resuming(SimTime),
}

impl PowerState {
    /// True when the node can run VMs right now.
    pub fn is_on(&self) -> bool {
        matches!(self, PowerState::On)
    }

    /// True when the node is in its low-power state (suspended).
    pub fn is_low_power(&self) -> bool {
        matches!(self, PowerState::Suspended)
    }

    /// Completion time of an in-flight transition, if any.
    pub fn transition_done_at(&self) -> Option<SimTime> {
        match *self {
            PowerState::Suspending(t) | PowerState::Resuming(t) => Some(t),
            _ => None,
        }
    }
}

/// Errors from illegal power-state requests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PowerError {
    /// The requested transition is not legal from the current state.
    IllegalTransition,
}

/// A node's power-state machine.
#[derive(Clone, Debug)]
pub struct PowerStateMachine {
    state: PowerState,
    times: TransitionTimes,
}

impl PowerStateMachine {
    /// A machine that starts powered on.
    pub fn new_on(times: TransitionTimes) -> Self {
        PowerStateMachine {
            state: PowerState::On,
            times,
        }
    }

    /// Current state (without advancing transitions; call
    /// [`PowerStateMachine::tick`] first if time has passed).
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Advance any in-flight transition whose completion time has passed.
    /// Returns the state after advancement.
    pub fn tick(&mut self, now: SimTime) -> PowerState {
        if let Some(done) = self.state.transition_done_at() {
            if now >= done {
                self.state = match self.state {
                    PowerState::Suspending(_) => PowerState::Suspended,
                    PowerState::Resuming(_) => PowerState::On,
                    s => s,
                };
            }
        }
        self.state
    }

    /// Begin suspend-to-RAM. Legal only from `On`. Returns the completion
    /// time.
    pub fn suspend(&mut self, now: SimTime) -> Result<SimTime, PowerError> {
        self.tick(now);
        if !self.state.is_on() {
            return Err(PowerError::IllegalTransition);
        }
        let done = now + self.times.suspend;
        self.state = PowerState::Suspending(done);
        self.tick(now); // zero-latency transitions complete immediately
        Ok(done)
    }

    /// Begin waking from suspend. Legal from `Suspended` (and from
    /// `Suspending`, modelling a wake-on-LAN racing the suspend — it takes
    /// effect after the suspend completes, costing the full resume time).
    pub fn resume(&mut self, now: SimTime) -> Result<SimTime, PowerError> {
        self.tick(now);
        let base = match self.state {
            PowerState::Suspended => now,
            PowerState::Suspending(done) => done,
            _ => return Err(PowerError::IllegalTransition),
        };
        let done = base + self.times.resume;
        self.state = PowerState::Resuming(done);
        self.tick(now);
        Ok(done)
    }

    /// Instantaneous power draw in the current state, given a power model
    /// and the node's CPU utilization (only meaningful when on).
    ///
    /// Transitional states draw whatever the model bills for them; the
    /// trait defaults charge idle power (hardware busy but doing no guest
    /// work), while wrappers like
    /// [`BilledTransitions`](crate::power::BilledTransitions) charge peak
    /// on the way up.
    pub fn watts(&self, model: &dyn PowerModel, utilization: f64) -> f64 {
        match self.state {
            PowerState::On => model.active_watts(utilization),
            PowerState::Suspending(_) => model.suspending_watts(),
            PowerState::Resuming(_) => model.resuming_watts(),
            PowerState::Suspended => model.suspended_watts(),
        }
    }
}

impl McState for PowerState {
    fn mc_fold(&self, h: &mut McHasher) {
        match *self {
            PowerState::On => h.word(1),
            PowerState::Suspending(done) => {
                h.word(2);
                h.time(done);
            }
            PowerState::Suspended => h.word(3),
            PowerState::Resuming(done) => {
                h.word(4);
                h.time(done);
            }
        }
    }
}

impl McState for PowerStateMachine {
    fn mc_fold(&self, h: &mut McHasher) {
        self.state.mc_fold(h);
        h.span(self.times.suspend);
        h.span(self.times.resume);
    }
}

/// Static description of a node: identity, capacity, power behaviour.
#[derive(Clone)]
pub struct NodeSpec {
    /// The node's identity.
    pub id: NodeId,
    /// Total resource capacity.
    pub capacity: ResourceVector,
    /// Power-state transition latencies.
    pub transitions: TransitionTimes,
    /// The power models the node is metered under, one energy meter
    /// each. The first is the node's own; the rest bill the same history
    /// under other models (a power model decides nothing, it only turns a
    /// state and a utilization into watts).
    pub power: Arc<[Arc<dyn PowerModel>]>,
}

impl NodeSpec {
    /// A homogeneous mid-2011 server: 8 cores, 32 GB RAM, 1 Gbit/s each
    /// way, Grid'5000-style power profile.
    pub fn standard(id: NodeId) -> Self {
        NodeSpec {
            id,
            capacity: ResourceVector::new(8.0, 32_768.0, 1000.0, 1000.0),
            transitions: TransitionTimes::typical_server(),
            power: Arc::new([Arc::new(LinearPower::grid5000()) as Arc<dyn PowerModel>]),
        }
    }

    /// Build `n` standard nodes with ids `0..n`, sharing one power model.
    pub fn standard_cluster(n: usize) -> Vec<NodeSpec> {
        let node = NodeSpec::standard(NodeId(0));
        let with_id = |i| NodeSpec {
            id: NodeId(i),
            ..node.clone()
        };
        (0..n).map(with_id).collect()
    }
}

impl std::fmt::Debug for NodeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeSpec")
            .field("id", &self.id)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn suspend_resume_cycle() {
        let mut m = PowerStateMachine::new_on(TransitionTimes::typical_server());
        let done = m.suspend(t(100)).unwrap();
        assert_eq!(done, t(108));
        assert_eq!(m.state(), PowerState::Suspending(t(108)));
        assert_eq!(
            m.tick(t(105)),
            PowerState::Suspending(t(108)),
            "not done yet"
        );
        assert_eq!(m.tick(t(108)), PowerState::Suspended);
        let done = m.resume(t(200)).unwrap();
        assert_eq!(done, t(225));
        assert_eq!(m.tick(t(225)), PowerState::On);
    }

    #[test]
    fn wake_racing_suspend_takes_effect_after_suspend_completes() {
        let mut m = PowerStateMachine::new_on(TransitionTimes::typical_server());
        m.suspend(t(100)).unwrap();
        // Wake request arrives mid-suspend.
        let done = m.resume(t(103)).unwrap();
        assert_eq!(done, t(108) + SimSpan::from_secs(25));
        assert_eq!(m.tick(done), PowerState::On);
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut m = PowerStateMachine::new_on(TransitionTimes::typical_server());
        // Can't resume an already-on machine.
        assert_eq!(m.resume(t(0)), Err(PowerError::IllegalTransition));
        m.suspend(t(0)).unwrap();
        // Can't suspend while suspending, nor once suspended.
        assert_eq!(m.suspend(t(1)), Err(PowerError::IllegalTransition));
        assert_eq!(m.suspend(t(8)), Err(PowerError::IllegalTransition));
        m.resume(t(8)).unwrap();
        // Nor while resuming: only `On` suspends.
        assert_eq!(m.suspend(t(9)), Err(PowerError::IllegalTransition));
        assert_eq!(m.resume(t(9)), Err(PowerError::IllegalTransition));
        assert_eq!(m.tick(t(33)), PowerState::On);
    }

    #[test]
    fn instant_transitions_complete_synchronously() {
        let mut m = PowerStateMachine::new_on(TransitionTimes::instant());
        m.suspend(t(5)).unwrap();
        assert_eq!(m.state(), PowerState::Suspended);
        m.resume(t(5)).unwrap();
        assert_eq!(m.state(), PowerState::On);
    }

    #[test]
    fn power_draw_by_state() {
        let model = LinearPower {
            idle_watts: 100.0,
            max_watts: 200.0,
            suspend_watts: 5.0,
        };
        let mut m = PowerStateMachine::new_on(TransitionTimes::typical_server());
        assert_eq!(m.watts(&model, 0.5), 150.0);
        m.suspend(t(0)).unwrap();
        assert_eq!(m.watts(&model, 0.5), 100.0, "transitions draw idle power");
        m.tick(t(8));
        assert_eq!(m.watts(&model, 0.5), 5.0);
        m.resume(t(8)).unwrap();
        assert_eq!(m.watts(&model, 0.5), 100.0);
    }

    #[test]
    fn billed_round_trip_can_net_lose_energy_for_short_idle_gaps() {
        // With transition energy billed honestly, suspending for a short
        // idle gap costs more than idling through it — the break-even an
        // energy-aware consolidator has to see. Gap: 60 s wall, of which
        // 8 s suspending (idle watts), 27 s suspended, 25 s resuming at
        // peak.
        use crate::power::{BilledTransitions, EnergyMeter};

        let base = LinearPower::grid5000(); // 160 idle / 250 peak / 5 susp
        let model = BilledTransitions::new(Arc::new(base));
        let gap = SimSpan::from_secs(60);

        let mut m = PowerStateMachine::new_on(TransitionTimes::typical_server());
        let mut meter = EnergyMeter::new(t(0), m.watts(&model, 0.0));
        let suspend_done = m.suspend(t(0)).unwrap();
        meter.update(t(0), m.watts(&model, 0.0)); // suspending @ idle
        m.tick(suspend_done);
        meter.update(suspend_done, m.watts(&model, 0.0)); // suspended @ 5 W
                                                          // Wake so the node is back On exactly at the end of the gap.
        let wake_at = t(0) + gap - TransitionTimes::typical_server().resume;
        let resume_done = m.resume(wake_at).unwrap();
        meter.update(wake_at, m.watts(&model, 0.0)); // resuming @ peak
        m.tick(resume_done);
        meter.update(resume_done, m.watts(&model, 0.0));
        assert_eq!(resume_done, t(60));
        assert_eq!(m.state(), PowerState::On);

        let round_trip = meter.joules_at(t(60));
        let idle_through = base.active_watts(0.0) * gap.as_secs_f64();
        // 8·160 + 27·5 + 25·250 = 7665 J > 60·160 = 9600? No: 7665 < 9600.
        // The 60 s gap is already past break-even for suspend-to-RAM; use
        // a 35 s gap (8 s suspend + 2 s suspended + 25 s resume) instead:
        // 8·160 + 2·5 + 25·250 = 7540 J vs 35·160 = 5600 J — a net loss.
        assert!((round_trip - (8.0 * 160.0 + 27.0 * 5.0 + 25.0 * 250.0)).abs() < 1e-6);
        assert!(round_trip < idle_through, "60 s gap breaks even");

        let mut m = PowerStateMachine::new_on(TransitionTimes::typical_server());
        let mut meter = EnergyMeter::new(t(100), m.watts(&model, 0.0));
        let short_gap = SimSpan::from_secs(35);
        let suspend_done = m.suspend(t(100)).unwrap();
        meter.update(t(100), m.watts(&model, 0.0));
        m.tick(suspend_done);
        meter.update(suspend_done, m.watts(&model, 0.0));
        let wake_at = t(100) + short_gap - TransitionTimes::typical_server().resume;
        let resume_done = m.resume(wake_at).unwrap();
        meter.update(wake_at, m.watts(&model, 0.0));
        m.tick(resume_done);
        meter.update(resume_done, m.watts(&model, 0.0));

        let round_trip = meter.joules_at(resume_done);
        let idle_through = base.active_watts(0.0) * short_gap.as_secs_f64();
        assert!(
            round_trip > idle_through,
            "short gap must net-lose: {round_trip} J vs {idle_through} J idling"
        );
    }

    #[test]
    fn low_power_predicate() {
        assert!(PowerState::Suspended.is_low_power());
        assert!(!PowerState::On.is_low_power());
        assert!(!PowerState::Suspending(t(1)).is_low_power());
    }

    #[test]
    fn standard_cluster_is_homogeneous() {
        let nodes = NodeSpec::standard_cluster(5);
        assert_eq!(nodes.len(), 5);
        assert!(nodes.iter().enumerate().all(|(i, n)| n.id == NodeId(i)));
        assert!(nodes.windows(2).all(|w| w[0].capacity == w[1].capacity));
    }
}
