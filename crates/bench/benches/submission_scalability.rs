//! Criterion bench for **E4/E5**: end-to-end submission handling — a
//! full simulated hierarchy placing a burst, at two hierarchy widths.
//! Wall-time here measures the *simulator's* cost of the management
//! work, a proxy for protocol complexity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use snooze::prelude::SnoozeConfig;
use snooze_scenario::live::{burst, deploy, Deployment, VmIdAlloc};
use snooze_simcore::time::SimTime;

fn place_burst(managers: usize, vms: usize, seed: u64) -> usize {
    let config = SnoozeConfig {
        idle_suspend_after: None,
        ..SnoozeConfig::default()
    };
    let dep = Deployment {
        managers,
        lcs: 16,
        eps: 1,
        seed,
    };
    let mut live = deploy(
        &dep,
        &config,
        burst(
            &mut VmIdAlloc::new(),
            vms,
            SimTime::from_secs(30),
            2.0,
            4096.0,
            0.5,
        ),
    );
    live.run_until_settled(SimTime::from_secs(600));
    live.client().placed.len()
}

fn bench_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("submission_burst");
    group.sample_size(10);
    for &(managers, vms) in &[(2usize, 20usize), (4, 20), (4, 40)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{managers}mgr_{vms}vms")),
            &(managers, vms),
            |b, &(m, v)| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    black_box(place_burst(m, v, seed))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_burst);
criterion_main!(benches);
