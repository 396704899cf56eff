//! Criterion bench for **E7**: a short power-managed cluster run —
//! measures the simulation cost of the energy-management machinery
//! (suspend sweeps, wake-on-demand, watchdogs) against the same run with
//! power management off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use snooze::prelude::SnoozeConfig;
use snooze_scenario::live::{burst, deploy, Deployment, VmIdAlloc};
use snooze_simcore::time::{SimSpan, SimTime};

fn run(pm: bool, seed: u64) -> f64 {
    let config = SnoozeConfig {
        idle_suspend_after: pm.then(|| SimSpan::from_secs(60)),
        ..SnoozeConfig::default()
    };
    let dep = Deployment {
        managers: 2,
        lcs: 8,
        eps: 1,
        seed,
    };
    let mut live = deploy(
        &dep,
        &config,
        burst(
            &mut VmIdAlloc::new(),
            6,
            SimTime::from_secs(30),
            2.0,
            4096.0,
            0.5,
        ),
    );
    let horizon = SimTime::from_secs(900);
    live.sim.run_until(horizon);
    live.system().total_energy_wh(&live.sim, horizon)
}

fn bench_energy(c: &mut Criterion) {
    let mut group = c.benchmark_group("energy_run");
    group.sample_size(10);
    for (label, pm) in [("no_pm", false), ("suspend", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &pm, |b, &pm| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(run(pm, seed))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_energy);
criterion_main!(benches);
