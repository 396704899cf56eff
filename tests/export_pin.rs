//! Tier-1 pins on exported bytes: FNV-1a-64 of every text export of two
//! seeded runs, so a moved byte in an exporter fails plain `cargo test -q`
//! and not only the benchmark's `telemetry.export.*_bytes` fingerprints.
//!
//! * The faulted deployment of `tests/engine_pin.rs` (3 GMs, 16 LCs, a
//!   24-VM burst, a GM crash + restart, an LC isolated and reconnected, a
//!   link-loss change): Chrome trace, span JSONL, metrics JSONL and
//!   Prometheus text. The last two are the constants `engine_pin.rs`
//!   already holds, which is how this file shows it rebuilt the same run.
//! * One small observed scenario (`[obs]` windows on — the deployment
//!   above records none): window JSONL and window CSV.
//!
//! Every constant was captured on the commit before the exporters were
//! rewritten to stream into the buffer they return, running the old
//! exporters.

use snooze::prelude::*;
use snooze_cluster::node::NodeSpec;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::{UsageShape, VmWorkload};
use snooze_scenario::spec::ScenarioSpec;
use snooze_simcore::prelude::*;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// `(FNV-1a-64, length)` of an export's bytes.
fn fnv(text: &str) -> (u64, usize) {
    (
        snooze_telemetry::fnv1a(snooze_telemetry::FNV_OFFSET, text.as_bytes()),
        text.len(),
    )
}

/// The deployment `tests/engine_pin.rs` pins as `faulted_deployment_is_pinned`.
fn faulted_deployment() -> Engine<SnoozeNode> {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(1303)
        .network(NetworkConfig::lossy_lan(0.01))
        .build();
    let config = SnoozeConfig::fast_test();
    let nodes = NodeSpec::standard_cluster(16);
    let system = SnoozeSystem::deploy(&mut sim, &config, 3, &nodes, 1);
    let burst: Vec<ScheduledVm> = (0..24)
        .map(|i| ScheduledVm {
            at: secs(10),
            spec: VmSpec::new(VmId(i), ResourceVector::new(2.0, 4096.0, 100.0, 100.0)),
            workload: VmWorkload {
                cpu: UsageShape::on_off(0.9, 0.1, 0.4, SimSpan::from_secs(60)),
                memory: UsageShape::Constant(0.7),
                network: UsageShape::Constant(0.2),
                seed: i,
            },
            lifetime: None,
        })
        .collect();
    sim.add_component(
        "client",
        ClientDriver::new(system.eps[0], burst, SimSpan::from_secs(10)),
    );
    sim.schedule_crash(secs(40), system.gms[0]);
    sim.schedule_restart(secs(90), system.gms[0]);
    sim.schedule_net_fault(secs(60), NetFault::Isolate(system.lcs[3]));
    sim.schedule_net_fault(secs(120), NetFault::Reconnect(system.lcs[3]));
    sim.schedule_net_fault(secs(150), NetFault::SetLossPpm(50_000));
    sim.run_until(secs(300));
    sim
}

#[test]
fn faulted_deployment_exports_are_pinned() {
    let sim = faulted_deployment();
    let track = |t: u64| sim.name_of(ComponentId(t as usize)).to_string();
    let exports = [
        fnv(&snooze_telemetry::chrome::render(sim.spans(), &track)),
        fnv(&snooze_telemetry::jsonl::render(sim.spans())),
        fnv(&sim.metrics().to_jsonl()),
        fnv(&sim.metrics().to_prometheus()),
    ];
    const PINNED: [(u64, usize); 4] = [
        (7_739_793_672_712_497_924, 19_645),
        (9_055_654_801_544_213_181, 16_944),
        // Re-pinned from (2_321_619_509_053_479_843, 1_437) and
        // (14_851_916_671_413_868_775, 1_139): `client.rejections` went, and
        // its one JSONL line and two Prometheus lines are the whole diff.
        (11_779_433_608_010_932_277, 1_369),
        (13_016_098_420_641_230_352, 1_086),
    ];
    assert_eq!(exports, PINNED);
    // The same run as `engine_pin.rs`: these two are its constants.
    assert_eq!(exports[2].0, 11_779_433_608_010_932_277);
    assert_eq!(exports[3].0, 13_016_098_420_641_230_352);
}

/// `scenarios/report.toml` cut down to 8 LCs and 12 VMs: counter and
/// histogram windows across a GM crash. Nothing in the stack sets a gauge;
/// gauge rows are covered by the old-vs-new proptest in `snooze-telemetry`.
const OBSERVED: &str = r#"
name = "export-pin"
seed = 7411

[config]
preset = "fast_test"

[obs]
profile = true
ring = 64
window_ms = 20000.0

[topology]
eps = 1
lcs = 8
managers = 3

[topology.client]
retry_ms = 15000.0

[[phase]]
kind = "run_to"
t_ms = 45000.0

[[phase]]
delay_ms = 1.0
fault = "crash"
index = 0
kind = "fault"
label = "GM crash"
target = "active_gm"

[[phase]]
deadline_ms = 240000.0
kind = "settle"

[[workload]]
at_ms = 30000.0
cores = 2.0
kind = "burst"
memory_mb = 4096.0
n = 12
util = 0.6
"#;

#[test]
fn observed_scenario_window_exports_are_pinned() {
    let spec = ScenarioSpec::from_toml(OBSERVED).expect("the pinned scenario decodes");
    let run = snooze_scenario::run(&spec).expect("the pinned scenario runs");
    let windows = run.windows.as_ref().expect("`[obs]` records windows");
    let kinds: std::collections::BTreeSet<&str> =
        windows.rows().iter().map(|r| r.kind.as_str()).collect();
    assert!(kinds.contains("counter") && kinds.contains("histogram"));
    const PINNED: [(u64, usize); 2] = [
        (1_316_879_685_042_348_325, 2_053),
        (5_067_690_611_689_519_502, 1_117),
    ];
    assert_eq!([fnv(&windows.to_jsonl()), fnv(&windows.to_csv())], PINNED);
}
