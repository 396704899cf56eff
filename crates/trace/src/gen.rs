//! Seeded synthetic trace generator with Azure-like distributions.
//!
//! Real cloud traces share a few robust statistical features the
//! consolidation literature leans on: arrival intensity follows a
//! diurnal cycle with occasional flash crowds, VM lifetimes are heavy
//! tailed (most VMs are short-lived, a few run for days), reservations
//! cluster on flavor sizes with cpu and memory correlated, and per-VM
//! utilization moves with the day. The generator reproduces those
//! shapes **offline** from a single seed — it is a pure function of
//! `(config, seed)`, drawing only from [`SimRng`], so the same seed
//! always yields the byte-identical trace (`snooze-tracegen` exposes
//! it on the command line).
//!
//! Generated values are rounded (times to ms, fractions to 1e-4) so
//! canonical trace files stay compact and platform-independent.

use snooze_simcore::rng::SimRng;

use crate::record::{CurvePoint, TraceRecord};

/// Knobs of the synthetic trace.
#[derive(Clone, Copy, Debug)]
pub struct GeneratorConfig {
    /// Number of VM requests to generate (the diurnal horizon is
    /// rescaled so roughly this many arrivals fit).
    pub vms: usize,
    /// Trace horizon, seconds: arrivals happen in `[0, horizon_s)`.
    pub horizon_s: f64,
    /// Diurnal period of arrival intensity and demand curves, seconds.
    pub diurnal_period_s: f64,
    /// Number of flash-crowd overlays (short windows of multiplied
    /// arrival intensity).
    pub flash_crowds: usize,
    /// Demand-curve resolution, seconds between breakpoints (widened
    /// automatically for very long-lived VMs to cap curve length).
    pub curve_step_s: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            vms: 2000,
            horizon_s: 7200.0,
            diurnal_period_s: 3600.0,
            flash_crowds: 2,
            curve_step_s: 600.0,
        }
    }
}

/// Longest curve per VM; beyond this the step widens.
const MAX_CURVE_POINTS: usize = 64;
/// Lifetime distribution: bounded Pareto, the canonical heavy tail.
const LIFETIME_MIN_S: f64 = 180.0;
const LIFETIME_ALPHA: f64 = 1.6;
const LIFETIME_CAP_S: f64 = 172_800.0; // two days

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

/// Smooth diurnal factor in `[0, 1]`: 0 at the trough, 1 at the peak.
fn diurnal(t_s: f64, period_s: f64, phase: f64) -> f64 {
    let x = t_s / period_s.max(1e-9) + phase;
    0.5 - 0.5 * (std::f64::consts::TAU * x).cos()
}

struct FlashCrowd {
    center_s: f64,
    half_width_s: f64,
    boost: f64,
}

/// Generate a synthetic trace. Pure in `(cfg, seed)`.
pub fn generate(cfg: &GeneratorConfig, seed: u64) -> Vec<TraceRecord> {
    let mut rng = SimRng::new(seed);

    let crowds: Vec<FlashCrowd> = (0..cfg.flash_crowds)
        .map(|_| FlashCrowd {
            center_s: rng.uniform(0.1, 0.9) * cfg.horizon_s,
            half_width_s: rng.uniform(60.0, 300.0),
            boost: rng.uniform(4.0, 9.0),
        })
        .collect();

    // Relative arrival intensity: diurnal in [0.4, 1.6] (mean 1.0) plus
    // the flash-crowd boosts. Thinned Poisson sampling against the
    // intensity envelope gives exact nonhomogeneous arrivals.
    let intensity = |t: f64| -> f64 {
        let mut rho = 0.4 + 1.2 * diurnal(t, cfg.diurnal_period_s, 0.0);
        for c in &crowds {
            if (t - c.center_s).abs() < c.half_width_s {
                rho += c.boost;
            }
        }
        rho
    };
    let rho_max = 1.6 + crowds.iter().map(|c| c.boost).sum::<f64>();
    let base_rate = cfg.vms as f64 / cfg.horizon_s.max(1e-9);

    let mut records = Vec::with_capacity(cfg.vms);
    let mut t = 0.0f64;
    while records.len() < cfg.vms {
        t += rng.exponential(1.0 / (base_rate * rho_max));
        if t >= cfg.horizon_s {
            break;
        }
        if rng.f64() >= intensity(t) / rho_max {
            continue;
        }
        records.push(make_vm(cfg, &mut rng, records.len() as u64, t));
    }
    records
}

/// Flavor grid: cpu sizes with Azure-like popularity (small flavors
/// dominate), and per-core memory ratios drawn around 2 GB/core so cpu
/// and memory reservations are correlated but not rigid.
const CORES: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
const CORE_WEIGHTS: [f64; 4] = [0.45, 0.30, 0.17, 0.08];
const MB_PER_CORE: [f64; 3] = [1024.0, 2048.0, 4096.0];
const MB_WEIGHTS: [f64; 3] = [0.25, 0.50, 0.25];

fn make_vm(cfg: &GeneratorConfig, rng: &mut SimRng, vm: u64, arrival_s: f64) -> TraceRecord {
    let cores = CORES[rng.weighted_index(&CORE_WEIGHTS).unwrap_or(0)];
    let mem_mb = cores * MB_PER_CORE[rng.weighted_index(&MB_WEIGHTS).unwrap_or(1)];
    let lifetime_s = round3(
        rng.pareto(LIFETIME_MIN_S, LIFETIME_ALPHA)
            .min(LIFETIME_CAP_S),
    );

    // Per-VM demand curve: a diurnal swing (phase-jittered around the
    // global day) plus noise for cpu; near-constant, slowly ramping
    // memory — the usual cloud profile.
    let phase_jitter = rng.uniform(-0.08, 0.08);
    let cpu_base = rng.uniform(0.10, 0.35);
    let cpu_amp = rng.uniform(0.25, 0.55);
    let mem_base = rng.uniform(0.45, 0.75);
    let mem_ramp = rng.uniform(0.0, 0.15);

    let step = cfg.curve_step_s.max(lifetime_s / MAX_CURVE_POINTS as f64);
    let offsets = std::iter::successors(Some(0.0f64), |o| Some(o + step))
        .take_while(|&o| o < lifetime_s)
        .take(MAX_CURVE_POINTS);
    // Counted first, so the curve is allocated to its length.
    let mut curve = Vec::with_capacity(offsets.clone().count());
    for offset in offsets {
        let day = diurnal(arrival_s + offset, cfg.diurnal_period_s, phase_jitter);
        let cpu = (cpu_base + cpu_amp * day + rng.normal(0.0, 0.06)).clamp(0.02, 1.0);
        let mem =
            (mem_base + mem_ramp * (offset / lifetime_s) + rng.normal(0.0, 0.015)).clamp(0.05, 1.0);
        curve.push(CurvePoint {
            offset_s: round3(offset),
            cpu: round4(cpu),
            mem: round4(mem),
        });
    }

    TraceRecord {
        vm,
        arrival_s: round3(arrival_s),
        lifetime_s,
        cpu_cores: cores,
        mem_mb,
        curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace() {
        let cfg = GeneratorConfig {
            vms: 300,
            ..GeneratorConfig::default()
        };
        assert_eq!(generate(&cfg, 42), generate(&cfg, 42));
        assert_ne!(generate(&cfg, 42), generate(&cfg, 43));
    }

    #[test]
    fn records_are_valid_and_roughly_sized() {
        let cfg = GeneratorConfig {
            vms: 500,
            ..GeneratorConfig::default()
        };
        let trace = generate(&cfg, 7);
        assert!(
            trace.len() >= 350,
            "expected near-target count, got {}",
            trace.len()
        );
        for r in &trace {
            r.validate().expect("generated record must validate");
            assert!(r.arrival_s < cfg.horizon_s);
            assert!(!r.curve.is_empty());
            assert!(r.curve.len() <= MAX_CURVE_POINTS);
        }
        // Arrivals are sorted by construction (ids follow arrival order).
        assert!(trace.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
    }

    #[test]
    fn arrivals_follow_the_diurnal_cycle() {
        let cfg = GeneratorConfig {
            vms: 4000,
            horizon_s: 3600.0,
            diurnal_period_s: 3600.0,
            flash_crowds: 0,
            curve_step_s: 600.0,
        };
        let trace = generate(&cfg, 11);
        // Peak half (middle of the period) vs trough halves.
        let peak = trace
            .iter()
            .filter(|r| (900.0..2700.0).contains(&r.arrival_s))
            .count();
        let trough = trace.len() - peak;
        assert!(
            peak as f64 > 1.5 * trough as f64,
            "diurnal arrivals: peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn lifetimes_are_heavy_tailed() {
        let trace = generate(
            &GeneratorConfig {
                vms: 1000,
                ..GeneratorConfig::default()
            },
            3,
        );
        let mut lives: Vec<f64> = trace.iter().map(|r| r.lifetime_s).collect();
        lives.sort_by(f64::total_cmp);
        let median = lives[lives.len() / 2];
        let max = *lives.last().unwrap();
        assert!(median < 1200.0, "most VMs short-lived, median {median}");
        assert!(max > 8.0 * median, "heavy tail: max {max}, median {median}");
    }

    #[test]
    fn cpu_and_mem_reservations_are_correlated() {
        let trace = generate(
            &GeneratorConfig {
                vms: 800,
                ..GeneratorConfig::default()
            },
            5,
        );
        for r in &trace {
            let per_core = r.mem_mb / r.cpu_cores;
            assert!(
                (1024.0..=4096.0).contains(&per_core),
                "mem tracks cores: {} MB over {} cores",
                r.mem_mb,
                r.cpu_cores
            );
        }
    }

    #[test]
    fn flash_crowds_concentrate_arrivals() {
        let base = GeneratorConfig {
            vms: 2000,
            horizon_s: 7200.0,
            diurnal_period_s: 7200.0,
            flash_crowds: 0,
            curve_step_s: 600.0,
        };
        let with = GeneratorConfig {
            flash_crowds: 3,
            ..base
        };
        // With crowds enabled, some 10-minute window holds a larger
        // share of arrivals than any window does without them.
        let share = |trace: &[TraceRecord]| -> f64 {
            let mut best = 0usize;
            let mut lo = 0usize;
            let arr: Vec<f64> = trace.iter().map(|r| r.arrival_s).collect();
            for hi in 0..arr.len() {
                while arr[hi] - arr[lo] > 600.0 {
                    lo += 1;
                }
                best = best.max(hi - lo + 1);
            }
            best as f64 / arr.len().max(1) as f64
        };
        let calm = share(&generate(&base, 9));
        let crowded = share(&generate(&with, 9));
        assert!(
            crowded > calm,
            "flash crowds should concentrate arrivals: {crowded} vs {calm}"
        );
    }
}
