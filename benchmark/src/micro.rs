//! Isolating micro-calls: one public function of one layer, called in a
//! tight loop, reported as time per call. Multiplied by how often a run
//! makes that call, the figure estimates the layer's share of a
//! workload's `wall_s`; on its own it says whether a change to the
//! function moved. Run in every traced run, after the workload.

use std::hint::black_box;
use std::time::Instant;

use snooze_cluster::hypervisor::Hypervisor;
use snooze_cluster::migration::MigrationModel;
use snooze_cluster::power::EnergyMeter;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::{UsageShape, VmWorkload};
use snooze_mc::election::ElectionHarness;
use snooze_protocols::heartbeat::FailureDetector;
use snooze_simcore::metrics::MetricsRegistry;
use snooze_simcore::telemetry::label::label;
use snooze_simcore::telemetry::SpanLog;
use snooze_simcore::{SimSpan, SimTime};

use crate::stats::summarize;
use crate::workloads::engine;

const BATCHES: usize = 5;

/// Median over `BATCHES` batches of the nanoseconds one call of `f`
/// takes, `calls` calls to a batch. `f` gets the call's index.
fn ns_per_call(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for i in 0..calls {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    summarize(&batches).median
}

/// A node hosting six guests whose demand follows piecewise curves, the
/// shape the replays' hypervisors sample.
fn loaded_hypervisor() -> Hypervisor {
    let mut hv = Hypervisor::new(ResourceVector::new(8.0, 32_768.0, 1000.0, 1000.0));
    for id in 0..6u64 {
        let points = (0..8)
            .map(|k| {
                (
                    SimTime::from_secs(600 * k),
                    0.2 + 0.1 * ((id + k) % 7) as f64,
                )
            })
            .collect();
        let shape = UsageShape::piecewise(points).expect("breakpoints are sorted");
        let workload = VmWorkload {
            cpu: shape.clone(),
            memory: UsageShape::Constant(0.8),
            network: shape,
            seed: id,
        };
        let spec = VmSpec::new(VmId(id), ResourceVector::new(1.0, 4096.0, 100.0, 100.0));
        hv.admit(spec, workload, SimTime::ZERO)
            .expect("six 1-core guests fit an 8-core node");
    }
    hv
}

/// Every micro-call, as `(per-layer metric name, value)`.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    let labels = label("component", "lc17").with("msg", "GmLcHeartbeat");
    let mut registry = MetricsRegistry::new();
    out.push((
        "simcore.metrics.incr_ns",
        ns_per_call(1_000_000, |_| registry.incr_with("net.delivered", &labels)),
    ));
    // Histograms keep their samples: a fresh registry per batch bounds memory.
    let mut registry = MetricsRegistry::new();
    out.push((
        "simcore.metrics.observe_ns",
        ns_per_call(200_000, |i| {
            if i == 0 {
                registry = MetricsRegistry::new();
            }
            registry.observe_with("client.placement_latency_s", &labels, i as f64);
        }),
    ));
    black_box(&registry);

    let mut log = SpanLog::new();
    out.push((
        "telemetry.span.open_close_ns",
        ns_per_call(200_000, |i| {
            if i == 0 {
                log = SpanLog::new();
            }
            let id = log.open("vm.submit", 3, None, i);
            log.close(id, i + 1);
        }),
    ));
    black_box(&log);

    let hv = loaded_hypervisor();
    out.push((
        "cluster.hypervisor.demand_at_ns",
        ns_per_call(1_000_000, |i| {
            black_box(hv.demand_at(SimTime(i * 4_000)));
        }),
    ));
    out.push((
        "cluster.hypervisor.performance_at_ns",
        ns_per_call(1_000_000, |i| {
            black_box(hv.performance_at(SimTime(i * 4_000)));
        }),
    ));

    let mut meter = EnergyMeter::new(SimTime::ZERO, 100.0);
    let mut now = 0u64;
    out.push((
        "cluster.power.meter_update_ns",
        ns_per_call(1_000_000, |i| {
            now += 1_000;
            meter.update(SimTime(now), 100.0 + (i % 64) as f64);
        }),
    ));
    black_box(meter.wh_at(SimTime(now)));

    let model = MigrationModel::gigabit();
    out.push((
        "cluster.migration.estimate_ns",
        ns_per_call(1_000_000, |i| {
            black_box(model.estimate(1024.0 + (i % 4096) as f64, (i % 50) as f64));
        }),
    ));

    // A GM's view of 1024 LCs: every peer heard once a sweep, then one
    // expiry pass over the table.
    let mut detector: FailureDetector<u64> = FailureDetector::new(SimSpan::from_secs(10));
    out.push((
        "protocols.detector.heard_expire_ns",
        ns_per_call(1_000_000, |i| {
            let now = SimTime::from_secs(i / 1024);
            detector.heard(i % 1024, now);
            if i % 1024 == 1023 {
                black_box(detector.expire(now));
            }
        }),
    ));

    // Coordination service plus three contenders, from cold to a leader.
    let elections: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            let h = ElectionHarness::new(3, false, 5);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(h.live_leaders().len(), 1, "election must converge");
            ms
        })
        .collect();
    out.push(("protocols.election.elect_ms", summarize(&elections).median));

    // The engine-only reference the sim workloads' floor share uses.
    let ring = engine::ring(seed, 1024, 1_000_000);
    let start = Instant::now();
    let ring = ring();
    out.push((
        "simcore.ring1024.events_per_s",
        ring.executed as f64 / start.elapsed().as_secs_f64(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_call_is_the_median_batch() {
        let mut calls = 0u64;
        let ns = ns_per_call(1_000, |_| calls += 1);
        assert_eq!(calls, 1_000 * BATCHES as u64);
        assert!(ns >= 0.0 && ns.is_finite());
    }

    #[test]
    fn the_probe_node_hosts_six_guests_with_moving_demand() {
        let hv = loaded_hypervisor();
        assert_eq!(hv.guest_count(), 6);
        let a = hv.demand_at(SimTime::from_secs(0));
        let b = hv.demand_at(SimTime::from_secs(1800));
        assert!(a != b, "piecewise demand should move over time");
    }
}
