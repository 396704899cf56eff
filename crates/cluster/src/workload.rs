//! Per-VM utilization shapes.
//!
//! The paper's evaluations drive the system with up to 500 VMs whose
//! resource usage varies over time (that variation is what creates the
//! overload/underload events §II-C's relocation policies respond to, and
//! the idle times §III's energy manager exploits). This module holds the
//! shapes a VM's usage follows: constant reservations, diurnal sinusoids,
//! bursty on/off processes, and the step functions trace demand curves
//! lower to. Fleets are built where they are described — scenario
//! workload programs (`snooze-scenario`) and trace records (`snooze-trace`).
//!
//! Sampling is **stateless and deterministic**: `usage_at(t)` depends only
//! on the shape, the VM's seed and `t`, so monitoring probes may sample at
//! arbitrary instants and replays are exact.

use std::sync::Arc;

use snooze_simcore::mc::{McHasher, McState};
use snooze_simcore::time::{SimSpan, SimTime};

use crate::resources::ResourceVector;

/// splitmix64 finalizer — the hash behind stateless per-slot randomness.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Uniform `[0,1)` derived from a hash of `(seed, slot)`.
fn hash_unit(seed: u64, slot: u64) -> f64 {
    (mix(seed ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 11) as f64 / (1u64 << 53) as f64
}

/// A time-varying utilization multiplier in `[0, 1]`, applied to a VM's
/// reservation to obtain actual usage.
///
/// Every variant holds at most one word, so a shape is 16 bytes and a
/// [`VmWorkload`] 56: the client schedule, the GM's records, the LC's
/// guests and the placement messages each keep one per VM. The two
/// four-parameter shapes, which only tests and the determinism probe
/// build, sit behind a `Box`.
#[derive(Clone, Debug)]
pub enum UsageShape {
    /// Flat utilization.
    Constant(f64),
    /// Sinusoidal day/night pattern; build through
    /// [`UsageShape::diurnal`].
    Diurnal(Box<Diurnal>),
    /// Bursty on/off process; build through [`UsageShape::on_off`].
    OnOff(Box<OnOff>),
    /// Step function over absolute sim time, lowered from trace demand
    /// curves: each breakpoint's value holds until the next breakpoint.
    /// Before the first point the first value holds; past the last point
    /// the last value holds (no looping — a trace VM's lifetime bounds
    /// it). Build through [`UsageShape::piecewise`], which validates
    /// ordering and clamps values.
    Piecewise {
        /// Strictly time-increasing `(instant, utilization)` breakpoints.
        points: Arc<Vec<(SimTime, f64)>>,
    },
}

/// Sinusoidal day/night pattern between `low` and `high` with the given
/// period; `phase` in `[0, 1)` shifts the peak.
#[derive(Clone, Debug)]
pub struct Diurnal {
    /// Trough utilization.
    pub low: f64,
    /// Peak utilization.
    pub high: f64,
    /// Cycle length.
    pub period: SimSpan,
    /// Fraction of a period by which the cycle is shifted.
    pub phase: f64,
}

/// Bursty on/off process: time is cut into `slot` intervals; in each,
/// the VM runs at `on_level` with probability `duty`, else `off_level`.
#[derive(Clone, Debug)]
pub struct OnOff {
    /// Utilization while bursting.
    pub on_level: f64,
    /// Utilization while quiescent.
    pub off_level: f64,
    /// Probability a slot is a burst.
    pub duty: f64,
    /// Slot length.
    pub slot: SimSpan,
}

impl UsageShape {
    /// A [`Diurnal`] shape: trough `low`, peak `high`, cycle `period`,
    /// peak shifted by `phase` of a period.
    // audit-allow(uncalled): the config matrix (snooze tests) and the
    // hypervisor and workload unit tests build their day-cycle loads here.
    pub fn diurnal(low: f64, high: f64, period: SimSpan, phase: f64) -> UsageShape {
        UsageShape::Diurnal(Box::new(Diurnal {
            low,
            high,
            period,
            phase,
        }))
    }

    /// An [`OnOff`] shape: `on_level` in a burst slot, `off_level`
    /// otherwise, a slot bursting with probability `duty`.
    pub fn on_off(on_level: f64, off_level: f64, duty: f64, slot: SimSpan) -> UsageShape {
        UsageShape::OnOff(Box::new(OnOff {
            on_level,
            off_level,
            duty,
            slot,
        }))
    }

    /// Build a [`UsageShape::Piecewise`] from `(instant, utilization)`
    /// breakpoints. Times must be strictly increasing; utilizations are
    /// clamped to `[0, 1]` and must be finite. At least one point is
    /// required.
    pub fn piecewise(points: Vec<(SimTime, f64)>) -> Result<UsageShape, &'static str> {
        if points.is_empty() {
            return Err("piecewise shape needs at least one breakpoint");
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err("piecewise breakpoints must be strictly time-increasing");
            }
        }
        if points.iter().any(|(_, u)| !u.is_finite()) {
            return Err("piecewise utilization must be finite");
        }
        let clamped: Vec<(SimTime, f64)> = points
            .into_iter()
            .map(|(t, u)| (t, u.clamp(0.0, 1.0)))
            .collect();
        Ok(UsageShape::Piecewise {
            points: Arc::new(clamped),
        })
    }

    /// Utilization in `[0, 1]` at time `t` for a VM whose stream seed is
    /// `seed`.
    pub fn sample(&self, t: SimTime, seed: u64) -> f64 {
        match self {
            UsageShape::Constant(u) => u.clamp(0.0, 1.0),
            UsageShape::Diurnal(d) => {
                let Diurnal {
                    low,
                    high,
                    period,
                    phase,
                } = **d;
                let p = period.as_secs_f64().max(1e-9);
                let x = t.as_secs_f64() / p + phase;
                let s = 0.5 - 0.5 * (std::f64::consts::TAU * x).cos(); // 0 at trough
                (low + (high - low) * s).clamp(0.0, 1.0)
            }
            UsageShape::OnOff(o) => {
                let OnOff {
                    on_level,
                    off_level,
                    duty,
                    slot,
                } = **o;
                let slot_idx = t.as_micros() / slot.as_micros().max(1);
                if hash_unit(seed, slot_idx) < duty {
                    on_level.clamp(0.0, 1.0)
                } else {
                    off_level.clamp(0.0, 1.0)
                }
            }
            UsageShape::Piecewise { points } => {
                // Index of the first breakpoint strictly after `t`; the
                // active value is the one just before it. Before the first
                // breakpoint, the first value holds.
                let after = points.partition_point(|(bt, _)| *bt <= t);
                points[after.saturating_sub(1)].1
            }
        }
    }
}

/// The full time-varying demand of one VM: a shape per resource class.
/// Memory is typically near-constant on real VMs; CPU and network move.
#[derive(Clone, Debug)]
pub struct VmWorkload {
    /// CPU utilization shape.
    pub cpu: UsageShape,
    /// Memory utilization shape.
    pub memory: UsageShape,
    /// Network (both directions) utilization shape.
    pub network: UsageShape,
    /// Per-VM seed for stateless randomness.
    pub seed: u64,
}

impl McState for UsageShape {
    fn mc_fold(&self, h: &mut McHasher) {
        match self {
            UsageShape::Constant(u) => {
                h.word(1);
                h.float(*u);
            }
            UsageShape::Diurnal(d) => {
                h.word(2);
                h.float(d.low);
                h.float(d.high);
                h.span(d.period);
                h.float(d.phase);
            }
            UsageShape::OnOff(o) => {
                h.word(3);
                h.float(o.on_level);
                h.float(o.off_level);
                h.float(o.duty);
                h.span(o.slot);
            }
            UsageShape::Piecewise { points } => {
                h.word(5); // 4 was the looping step trace: retired, not reused
                h.word(points.len() as u64);
                for (t, u) in points.iter() {
                    h.time(*t);
                    h.float(*u);
                }
            }
        }
    }
}

impl McState for VmWorkload {
    fn mc_fold(&self, h: &mut McHasher) {
        self.cpu.mc_fold(h);
        self.memory.mc_fold(h);
        self.network.mc_fold(h);
        h.word(self.seed);
    }
}

impl VmWorkload {
    /// A workload that always uses the full reservation.
    pub fn flat_full(seed: u64) -> Self {
        VmWorkload {
            cpu: UsageShape::Constant(1.0),
            memory: UsageShape::Constant(1.0),
            network: UsageShape::Constant(1.0),
            seed,
        }
    }

    /// Actual usage at `t`, as a fraction of `requested` per dimension.
    pub fn usage_at(&self, t: SimTime, requested: &ResourceVector) -> ResourceVector {
        let net = self.network.sample(t, self.seed.wrapping_add(2));
        ResourceVector {
            cpu: requested.cpu * self.cpu.sample(t, self.seed),
            memory: requested.memory * self.memory.sample(t, self.seed.wrapping_add(1)),
            net_rx: requested.net_rx * net,
            net_tx: requested.net_tx * net,
        }
    }

    /// Memory dirty-page rate in MB/s at time `t` — drives live-migration
    /// cost. Modelled as proportional to CPU activity: a busy guest
    /// touches more pages.
    pub fn dirty_rate_mbps(&self, t: SimTime, requested: &ResourceVector) -> f64 {
        // An active core dirties on the order of 10–50 MB/s; scale with
        // utilization and the reservation's core count.
        20.0 * requested.cpu * self.cpu.sample(t, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn a_shape_is_two_words_and_a_workload_seven() {
        assert_eq!(std::mem::size_of::<UsageShape>(), 16, "UsageShape");
        assert_eq!(std::mem::size_of::<VmWorkload>(), 56, "VmWorkload");
    }

    #[test]
    fn constant_shape_clamps() {
        assert_eq!(UsageShape::Constant(0.5).sample(t(100), 1), 0.5);
        assert_eq!(UsageShape::Constant(1.5).sample(t(0), 1), 1.0);
        assert_eq!(UsageShape::Constant(-0.5).sample(t(0), 1), 0.0);
    }

    #[test]
    fn diurnal_peaks_and_troughs() {
        let shape = UsageShape::diurnal(0.1, 0.9, SimSpan::from_secs(100), 0.0);
        assert!(
            (shape.sample(t(0), 0) - 0.1).abs() < 1e-9,
            "trough at phase 0"
        );
        assert!(
            (shape.sample(t(50), 0) - 0.9).abs() < 1e-9,
            "peak at half period"
        );
        assert!((shape.sample(t(100), 0) - 0.1).abs() < 1e-9, "periodic");
    }

    #[test]
    fn diurnal_phase_shifts_peak() {
        let shape = UsageShape::diurnal(0.0, 1.0, SimSpan::from_secs(100), 0.5);
        assert!((shape.sample(t(0), 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn onoff_is_deterministic_and_two_valued() {
        let shape = UsageShape::on_off(0.9, 0.1, 0.5, SimSpan::from_secs(10));
        let mut on = 0;
        let mut off = 0;
        for i in 0..200 {
            let v = shape.sample(t(i * 10), 42);
            assert_eq!(v, shape.sample(t(i * 10 + 5), 42), "constant within slot");
            if v == 0.9 {
                on += 1;
            } else {
                assert_eq!(v, 0.1);
                off += 1;
            }
        }
        assert!(
            on > 60 && off > 60,
            "duty 0.5 should mix: on={on} off={off}"
        );
        // Different seeds give different schedules.
        let diff = (0..100)
            .filter(|&i| shape.sample(t(i * 10), 1) != shape.sample(t(i * 10), 2))
            .count();
        assert!(diff > 10);
    }

    #[test]
    fn piecewise_boundary_sampling() {
        let shape = UsageShape::piecewise(vec![(t(10), 0.2), (t(20), 0.6), (t(30), 0.9)]).unwrap();
        // Before the first breakpoint the first value holds.
        assert_eq!(shape.sample(t(0), 0), 0.2);
        assert_eq!(shape.sample(t(9), 0), 0.2);
        // Exactly on a breakpoint, that breakpoint's value takes over.
        assert_eq!(shape.sample(t(10), 0), 0.2);
        assert_eq!(shape.sample(t(20), 0), 0.6);
        // Between breakpoints the earlier value holds (step, not lerp).
        assert_eq!(shape.sample(t(15), 0), 0.2);
        assert_eq!(shape.sample(t(25), 0), 0.6);
        // Past the last breakpoint the last value holds — no looping.
        assert_eq!(shape.sample(t(30), 0), 0.9);
        assert_eq!(shape.sample(t(1_000_000), 0), 0.9);
        // The seed is irrelevant: the shape is a pure function of time.
        assert_eq!(shape.sample(t(25), 1), shape.sample(t(25), 2));
    }

    #[test]
    fn piecewise_single_point_is_constant() {
        let shape = UsageShape::piecewise(vec![(t(100), 0.4)]).unwrap();
        assert_eq!(shape.sample(t(0), 0), 0.4);
        assert_eq!(shape.sample(t(100), 0), 0.4);
        assert_eq!(shape.sample(t(500), 0), 0.4);
    }

    #[test]
    fn piecewise_validates_and_clamps() {
        assert!(UsageShape::piecewise(vec![]).is_err(), "empty rejected");
        assert!(
            UsageShape::piecewise(vec![(t(20), 0.5), (t(10), 0.5)]).is_err(),
            "unsorted rejected"
        );
        assert!(
            UsageShape::piecewise(vec![(t(10), 0.5), (t(10), 0.6)]).is_err(),
            "duplicate time rejected"
        );
        assert!(
            UsageShape::piecewise(vec![(t(0), f64::NAN)]).is_err(),
            "non-finite rejected"
        );
        let shape = UsageShape::piecewise(vec![(t(0), -0.5), (t(10), 1.5)]).unwrap();
        assert_eq!(shape.sample(t(5), 0), 0.0, "clamped low");
        assert_eq!(shape.sample(t(15), 0), 1.0, "clamped high");
    }

    #[test]
    fn workload_usage_scales_reservation() {
        let req = ResourceVector::new(4.0, 8000.0, 100.0, 200.0);
        let w = VmWorkload {
            cpu: UsageShape::Constant(0.5),
            memory: UsageShape::Constant(0.25),
            network: UsageShape::Constant(1.0),
            seed: 7,
        };
        let u = w.usage_at(t(0), &req);
        assert_eq!(u.cpu, 2.0);
        assert_eq!(u.memory, 2000.0);
        assert_eq!(u.net_rx, 100.0);
        assert_eq!(u.net_tx, 200.0);
        assert!(u.fits_within(&req));
    }

    #[test]
    fn dirty_rate_tracks_cpu_activity() {
        let req = ResourceVector::new(2.0, 4096.0, 0.0, 0.0);
        let busy = VmWorkload::flat_full(1);
        let idle = VmWorkload {
            cpu: UsageShape::Constant(0.0),
            ..VmWorkload::flat_full(1)
        };
        assert!(busy.dirty_rate_mbps(t(0), &req) > 0.0);
        assert_eq!(idle.dirty_rate_mbps(t(0), &req), 0.0);
    }
}
