//! Tier-1 pin on the engine's executed history: a seeded Snooze
//! deployment under a GM crash + restart, an LC isolate/reconnect pair and
//! a link-loss change, pinned to literal counters and digests. The
//! constants were captured on the commit before the sharded executor was
//! deleted, so plain `cargo test -q` fails if the single-queue engine moves
//! one RNG draw, sequence number or tie-break.

use snooze::prelude::*;
use snooze_cluster::node::NodeSpec;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::{UsageShape, VmWorkload};
use snooze_simcore::prelude::*;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// `(events_executed, digest, span_digest, dead_letters, net.sent)` of a
/// 3-GM / 16-LC deployment with a 24-VM burst and the fault schedule above.
fn pin(queue: QueueKind) -> (u64, u64, u64, u64, u64) {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(1303)
        .network(NetworkConfig::lossy_lan(0.01))
        .queue(queue)
        .build();
    let config = SnoozeConfig::fast_test();
    let nodes = NodeSpec::standard_cluster(16);
    let system = SnoozeSystem::deploy(&mut sim, &config, 3, &nodes, 1);
    let burst: Vec<ScheduledVm> = (0..24)
        .map(|i| ScheduledVm {
            at: secs(10),
            spec: VmSpec::new(VmId(i), ResourceVector::new(2.0, 4096.0, 100.0, 100.0)),
            workload: VmWorkload {
                cpu: UsageShape::OnOff {
                    on_level: 0.9,
                    off_level: 0.1,
                    duty: 0.4,
                    slot: SimSpan::from_secs(60),
                },
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
    (
        sim.events_executed(),
        sim.digest(),
        sim.span_digest(),
        sim.dead_letters(),
        sim.metrics().counter("net.sent"),
    )
}

const PINNED: (u64, u64, u64, u64, u64) = (
    39_874,
    3_150_394_356_885_249_003,
    9_643_873_029_163_597_281,
    98,
    32_353,
);

#[test]
fn faulted_deployment_is_pinned() {
    assert_eq!(pin(QueueKind::Heap), PINNED);
}

#[test]
fn queue_kind_does_not_move_the_pin() {
    assert_eq!(pin(QueueKind::Bucket), PINNED);
}
