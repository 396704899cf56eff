//! Node power models and energy accounting.
//!
//! Energy is the quantity the paper's headline result is about ("on average
//! 4.7% of hosts and 4.1% of energy were conserved"). Two models are
//! provided:
//!
//! * [`LinearPower`] — the standard idle/peak interpolation used by the
//!   GRID'11 companion paper (power grows linearly with CPU utilization;
//!   an idle server still burns ~60–70% of peak).
//! * [`SpecLikePower`] — an 11-point piecewise-linear curve in the style of
//!   SPECpower_ssj2008 submissions, for sensitivity analysis.
//! * [`DvfsPower`] — a frequency-stepped model: a governor picks the
//!   slowest P-state that can serve the demand, and each state has its own
//!   idle/peak interpolation.
//! * [`BilledTransitions`] — a wrapper charging sleep/wake transitions at
//!   model-specified wattages (peak during resume) instead of the legacy
//!   idle draw.
//!
//! [`EnergyMeter`] integrates instantaneous power over virtual time.

use std::sync::Arc;

use snooze_simcore::time::SimTime;

/// Maps a node's CPU utilization in `[0, 1]` to instantaneous power draw.
///
/// The two transition hooks default to the legacy behaviour — idle draw
/// (`active_watts(0.0)`) in every transitional state — so existing models
/// and goldens are unaffected unless a model opts in.
pub trait PowerModel: Send + Sync + 'static {
    /// Power in watts when powered on at `utilization`.
    fn active_watts(&self, utilization: f64) -> f64;

    /// Power in watts while suspended (ACPI S3 keeps RAM refreshed).
    fn suspended_watts(&self) -> f64 {
        5.0
    }

    /// Power while entering suspend-to-RAM (flushing state, parking cores).
    fn suspending_watts(&self) -> f64 {
        self.active_watts(0.0)
    }

    /// Power while waking from suspend (devices re-powering at full tilt).
    fn resuming_watts(&self) -> f64 {
        self.active_watts(0.0)
    }
}

/// Linear interpolation between idle and peak power.
#[derive(Clone, Copy, Debug)]
pub struct LinearPower {
    /// Watts at 0% CPU utilization.
    pub idle_watts: f64,
    /// Watts at 100% CPU utilization.
    pub max_watts: f64,
    /// Watts while suspended to RAM.
    pub suspend_watts: f64,
}

impl LinearPower {
    /// The node profile used throughout the experiments: a mid-2011 dual
    /// socket server — 160 W idle, 250 W at full load, 5 W suspended.
    /// (Matches the class of machines in Grid'5000's parapluie cluster.)
    pub fn grid5000() -> Self {
        LinearPower {
            idle_watts: 160.0,
            max_watts: 250.0,
            suspend_watts: 5.0,
        }
    }
}

impl PowerModel for LinearPower {
    fn active_watts(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.idle_watts + (self.max_watts - self.idle_watts) * u
    }

    fn suspended_watts(&self) -> f64 {
        self.suspend_watts
    }
}

/// Piecewise-linear power curve sampled at 0%, 10%, …, 100% utilization,
/// the format SPECpower results are published in. Real servers are
/// sub-linear at low load and super-linear near saturation; this shape
/// matters for ablations on where consolidation pays off.
#[derive(Clone, Debug)]
pub struct SpecLikePower {
    /// Watts at 0, 10, …, 100 percent utilization (11 points, ascending).
    pub points: [f64; 11],
    /// Watts while suspended.
    pub suspend_watts: f64,
}

impl SpecLikePower {
    /// A curve shaped like published SPECpower results for a 2011-era
    /// two-socket Xeon box.
    pub fn xeon_2011() -> Self {
        SpecLikePower {
            points: [
                165.0, 180.0, 192.0, 203.0, 213.0, 222.0, 231.0, 239.0, 247.0, 254.0, 260.0,
            ],
            suspend_watts: 5.0,
        }
    }
}

impl PowerModel for SpecLikePower {
    fn active_watts(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0) * 10.0;
        let lo = u.floor() as usize;
        if lo >= 10 {
            return self.points[10];
        }
        let frac = u - lo as f64;
        self.points[lo] + (self.points[lo + 1] - self.points[lo]) * frac
    }

    fn suspended_watts(&self) -> f64 {
        self.suspend_watts
    }
}

/// One DVFS operating point: a core frequency and the linear power curve
/// the node follows while pinned to it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DvfsState {
    /// Core frequency in GHz (states must be sorted ascending).
    pub freq_ghz: f64,
    /// Watts at 0% utilization in this state.
    pub idle_watts: f64,
    /// Watts at 100% utilization in this state.
    pub max_watts: f64,
}

/// Frequency-stepped power model with an on-demand-style governor.
///
/// Demand `u` (a fraction of the node's full-speed capacity) is served by
/// the slowest state whose frequency covers it: the governor picks the
/// first state with `freq / max_freq ≥ u`, then the node runs at the
/// *effective* utilization `u · max_freq / freq` of that state's curve.
/// Slow states burn less at the wall but sit proportionally busier —
/// exactly the race-to-idle trade DVFS policies argue about.
#[derive(Clone, Debug)]
pub struct DvfsPower {
    /// Operating points, ascending by frequency. Must be non-empty.
    pub states: Vec<DvfsState>,
    /// Watts while suspended.
    pub suspend_watts: f64,
}

impl DvfsPower {
    /// A three-state profile for the same class of 2011 dual-socket box as
    /// [`LinearPower::grid5000`]: 1.2 / 1.8 / 2.4 GHz. At full load it
    /// meets grid5000's 250 W peak; at low demand the slow states shave
    /// the idle floor below grid5000's 160 W.
    pub fn grid5000_3state() -> Self {
        DvfsPower {
            states: vec![
                DvfsState {
                    freq_ghz: 1.2,
                    idle_watts: 118.0,
                    max_watts: 162.0,
                },
                DvfsState {
                    freq_ghz: 1.8,
                    idle_watts: 136.0,
                    max_watts: 201.0,
                },
                DvfsState {
                    freq_ghz: 2.4,
                    idle_watts: 160.0,
                    max_watts: 250.0,
                },
            ],
            suspend_watts: 5.0,
        }
    }

    /// The state the governor selects for demand `u` ∈ [0, 1].
    fn governor_pick(&self, u: f64) -> &DvfsState {
        let max_freq = self
            .states
            .last()
            .expect("DvfsPower has no states")
            .freq_ghz;
        self.states
            .iter()
            .find(|s| s.freq_ghz / max_freq >= u - 1e-12)
            .unwrap_or_else(|| self.states.last().expect("DvfsPower has no states"))
    }
}

impl PowerModel for DvfsPower {
    fn active_watts(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let max_freq = self
            .states
            .last()
            .expect("DvfsPower has no states")
            .freq_ghz;
        let state = self.governor_pick(u);
        // Effective busy fraction once the clock is scaled down.
        let eff = (u * max_freq / state.freq_ghz).clamp(0.0, 1.0);
        state.idle_watts + (state.max_watts - state.idle_watts) * eff
    }

    fn suspended_watts(&self) -> f64 {
        self.suspend_watts
    }
}

/// Wraps any model so transitional power states are billed honestly:
/// resume draws *peak* power (devices re-initialising), suspend-entry
/// draws idle. With this wrapper a
/// suspend→resume round-trip has a real energy cost, so suspending for a
/// short idle gap can net-*lose* energy — the break-even an energy-aware
/// consolidator must reason about.
#[derive(Clone)]
pub struct BilledTransitions {
    /// The underlying steady-state model.
    pub base: Arc<dyn PowerModel>,
}

impl BilledTransitions {
    /// Bill transitions on top of `base`.
    pub fn new(base: Arc<dyn PowerModel>) -> Self {
        BilledTransitions { base }
    }
}

impl PowerModel for BilledTransitions {
    fn active_watts(&self, utilization: f64) -> f64 {
        self.base.active_watts(utilization)
    }

    fn suspended_watts(&self) -> f64 {
        self.base.suspended_watts()
    }

    fn suspending_watts(&self) -> f64 {
        self.base.active_watts(0.0)
    }

    fn resuming_watts(&self) -> f64 {
        self.base.active_watts(1.0)
    }
}

/// Integrates power over virtual time.
///
/// Callers report every change in instantaneous draw via
/// [`EnergyMeter::update`]; the meter accumulates joules assuming the
/// previous wattage held since the previous update (exact for the
/// piecewise-constant utilization signals the simulator produces).
#[derive(Clone, Copy, Debug)]
pub struct EnergyMeter {
    joules: f64,
    last_time: SimTime,
    last_watts: f64,
}

impl EnergyMeter {
    /// Start metering at `start` with an initial draw of `watts`.
    pub fn new(start: SimTime, watts: f64) -> Self {
        EnergyMeter {
            joules: 0.0,
            last_time: start,
            last_watts: watts,
        }
    }

    /// Record that the draw changed to `watts` at time `now`.
    pub fn update(&mut self, now: SimTime, watts: f64) {
        debug_assert!(now >= self.last_time, "meter time went backwards");
        self.joules += self.last_watts * now.since(self.last_time).as_secs_f64();
        self.last_time = now;
        self.last_watts = watts;
    }

    /// Total energy in joules up to `now` (flushes the open segment
    /// without changing the current draw).
    pub fn joules_at(&self, now: SimTime) -> f64 {
        self.joules + self.last_watts * now.since(self.last_time).as_secs_f64()
    }

    /// Total energy in watt-hours up to `now`.
    pub fn wh_at(&self, now: SimTime) -> f64 {
        self.joules_at(now) / 3600.0
    }

    /// Current instantaneous draw.
    pub fn watts(&self) -> f64 {
        self.last_watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snooze_simcore::time::SimSpan;

    #[test]
    fn linear_power_interpolates() {
        let m = LinearPower {
            idle_watts: 100.0,
            max_watts: 200.0,
            suspend_watts: 4.0,
        };
        assert_eq!(m.active_watts(0.0), 100.0);
        assert_eq!(m.active_watts(0.5), 150.0);
        assert_eq!(m.active_watts(1.0), 200.0);
        assert_eq!(m.active_watts(2.0), 200.0, "clamped above 1");
        assert_eq!(m.active_watts(-1.0), 100.0, "clamped below 0");
        assert_eq!(m.suspended_watts(), 4.0);
    }

    #[test]
    fn idle_power_is_a_large_fraction_of_peak() {
        // The premise of consolidation: an idle host still burns most of
        // its peak power, so emptying hosts saves real energy.
        let m = LinearPower::grid5000();
        assert!(m.active_watts(0.0) / m.active_watts(1.0) > 0.6);
        assert!(m.suspended_watts() < 0.05 * m.active_watts(0.0));
    }

    #[test]
    fn spec_curve_interpolates_between_points() {
        let m = SpecLikePower::xeon_2011();
        assert_eq!(m.active_watts(0.0), 165.0);
        assert_eq!(m.active_watts(1.0), 260.0);
        // Halfway between the 10% (180) and 20% (192) points.
        assert!((m.active_watts(0.15) - 186.0).abs() < 1e-9);
        // Monotone non-decreasing across the whole range.
        let mut prev = 0.0;
        for i in 0..=100 {
            let w = m.active_watts(i as f64 / 100.0);
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    fn default_transition_watts_equal_idle() {
        // The legacy contract: without an explicit override every
        // transitional state draws active_watts(0.0). Goldens depend on it.
        let m = LinearPower::grid5000();
        assert_eq!(m.suspending_watts(), m.active_watts(0.0));
        assert_eq!(m.resuming_watts(), m.active_watts(0.0));
    }

    #[test]
    fn billed_transitions_charge_peak_on_the_way_up() {
        let base = LinearPower::grid5000();
        let billed = BilledTransitions::new(Arc::new(base));
        assert_eq!(billed.active_watts(0.3), base.active_watts(0.3));
        assert_eq!(billed.suspended_watts(), base.suspended_watts());
        assert_eq!(billed.suspending_watts(), base.active_watts(0.0));
        assert_eq!(billed.resuming_watts(), base.active_watts(1.0));
    }

    #[test]
    fn dvfs_governor_picks_slowest_sufficient_state() {
        let m = DvfsPower::grid5000_3state();
        // 1.2/2.4 = 0.5, 1.8/2.4 = 0.75 are the state boundaries.
        assert_eq!(m.governor_pick(0.0).freq_ghz, 1.2);
        assert_eq!(m.governor_pick(0.5).freq_ghz, 1.2);
        assert_eq!(m.governor_pick(0.6).freq_ghz, 1.8);
        assert_eq!(m.governor_pick(0.75).freq_ghz, 1.8);
        assert_eq!(m.governor_pick(0.9).freq_ghz, 2.4);
        assert_eq!(m.governor_pick(1.0).freq_ghz, 2.4);
    }

    #[test]
    fn dvfs_curve_is_continuous_enough_and_beats_linear_at_low_load() {
        let m = DvfsPower::grid5000_3state();
        let lin = LinearPower::grid5000();
        // Idle lands on the slowest state's idle floor, below grid5000's.
        assert_eq!(m.active_watts(0.0), 118.0);
        assert!(m.active_watts(0.0) < lin.active_watts(0.0));
        // Full load saturates the fastest state at its peak.
        assert_eq!(m.active_watts(1.0), 250.0);
        // At a state boundary the node runs flat-out in the slow state.
        assert_eq!(m.active_watts(0.5), 162.0);
        // Monotone non-decreasing within each state; bounded overall.
        for i in 0..=100 {
            let w = m.active_watts(i as f64 / 100.0);
            assert!((118.0..=250.0).contains(&w), "u={i}% -> {w} W");
        }
    }

    #[test]
    fn energy_meter_integrates_piecewise_constant_power() {
        let t0 = SimTime::ZERO;
        let mut meter = EnergyMeter::new(t0, 100.0);
        meter.update(t0 + SimSpan::from_secs(10), 200.0); // 100 W × 10 s
        meter.update(t0 + SimSpan::from_secs(15), 0.0); // 200 W × 5 s
        let joules = meter.joules_at(t0 + SimSpan::from_secs(20)); // 0 W × 5 s
        assert!((joules - 2000.0).abs() < 1e-9);
        assert!((meter.wh_at(t0 + SimSpan::from_secs(20)) - 2000.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn energy_meter_flush_is_idempotent() {
        let t0 = SimTime::ZERO;
        let meter = EnergyMeter::new(t0, 50.0);
        let t = t0 + SimSpan::from_secs(4);
        assert_eq!(meter.joules_at(t), meter.joules_at(t));
        assert!((meter.joules_at(t) - 200.0).abs() < 1e-9);
    }
}
