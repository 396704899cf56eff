//! Fault-tolerance drill: place a workload, then kill the Group Leader,
//! a Group Manager and a Local Controller in sequence, narrating the
//! self-healing from the span log and the counters (paper §II-E).
//!
//! ```text
//! cargo run --example fault_tolerance_drill
//! ```

use snooze::prelude::*;
use snooze_cluster::node::NodeSpec;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::{UsageShape, VmWorkload};
use snooze_simcore::prelude::*;

fn status(sim: &Engine<SnoozeNode>, system: &SnoozeSystem, label: &str) {
    let gl = system.current_gl(sim);
    let gms = system.active_gms(sim);
    println!(
        "  [{label}] t={:>4}s  GL={}  GMs={}  VMs={}  perf={:.2}",
        sim.now().as_micros() / 1_000_000,
        gl.map(|g| sim.name_of(g).to_string())
            .unwrap_or_else(|| "—".into()),
        gms.len(),
        system.total_vms(sim),
        system.mean_performance(sim, sim.now()),
    );
}

fn main() {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(7).network(NetworkConfig::lan()).build();
    let config = SnoozeConfig {
        idle_suspend_after: None,
        reschedule_on_lc_failure: true, // §II-E snapshot recovery
        ..SnoozeConfig::default()
    };
    let nodes = NodeSpec::standard_cluster(9);
    let system = SnoozeSystem::deploy(&mut sim, &config, 4, &nodes, 1);

    let schedule: Vec<ScheduledVm> = (0..12)
        .map(|i| ScheduledVm {
            at: SimTime::from_secs(30),
            spec: VmSpec::new(VmId(i), ResourceVector::new(2.0, 4096.0, 100.0, 100.0)),
            workload: VmWorkload {
                cpu: UsageShape::Constant(0.7),
                memory: UsageShape::Constant(0.7),
                network: UsageShape::Constant(0.3),
                seed: i,
            },
            lifetime: None,
        })
        .collect();
    sim.add_component(
        "client",
        ClientDriver::new(system.eps[0], schedule, SimSpan::from_secs(10)),
    );

    println!("Phase 0: convergence and placement");
    sim.run_until(SimTime::from_secs(120));
    status(&sim, &system, "steady");

    println!("\nPhase 1: kill the Group Leader");
    let gl = system.current_gl(&sim).expect("converged");
    sim.schedule_crash(sim.now() + SimSpan::from_secs(1), gl);
    sim.run_until(sim.now() + SimSpan::from_secs(5));
    status(&sim, &system, "just after");
    sim.run_until(sim.now() + SimSpan::from_secs(60));
    status(&sim, &system, "healed");

    println!("\nPhase 2: kill a Group Manager");
    let gm = system.active_gms(&sim)[0];
    sim.schedule_crash(sim.now() + SimSpan::from_secs(1), gm);
    sim.run_until(sim.now() + SimSpan::from_secs(5));
    status(&sim, &system, "just after");
    sim.run_until(sim.now() + SimSpan::from_secs(60));
    status(&sim, &system, "healed");

    println!("\nPhase 3: kill a VM-hosting Local Controller (snapshots on)");
    let victim = *system
        .lcs
        .iter()
        .max_by_key(|&&lc| {
            sim.component(lc)
                .as_lc()
                .unwrap()
                .hypervisor()
                .guest_count()
        })
        .unwrap();
    println!(
        "  killing {} hosting {} VMs",
        sim.name_of(victim),
        sim.component(victim)
            .as_lc()
            .unwrap()
            .hypervisor()
            .guest_count()
    );
    sim.schedule_crash(sim.now() + SimSpan::from_secs(1), victim);
    sim.run_until(sim.now() + SimSpan::from_secs(5));
    status(&sim, &system, "just after");
    sim.run_until(sim.now() + SimSpan::from_secs(120));
    status(&sim, &system, "rescheduled");

    println!("\nDecisions (span log):");
    let log = sim.spans();
    for span in log.iter() {
        let dead = |key| {
            log.label_of(span.id, key)
                .map_or_else(|| "?".to_string(), ToString::to_string)
        };
        let what = match span.name {
            "gl.promoted" => "promoted to GL".to_string(),
            "gl.gm-failover" => format!("declared GM {} dead", dead("gm")),
            "gm.lc-failover" => format!("declared LC {} dead", dead("lc")),
            _ => continue,
        };
        println!(
            "  {:>9}  {:<10} {what}",
            format!("{}", SimTime(span.start_us)),
            sim.name_of(ComponentId(span.track as usize)),
        );
    }

    let m = sim.metrics();
    println!("\nCounters:");
    for (what, n) in [
        ("crashes injected", m.counter("failure.crashes")),
        (
            "GMs declared dead",
            m.counter_with("heartbeat_missed", &label("role", "gm")),
        ),
        (
            "LCs declared dead",
            m.counter_with("heartbeat_missed", &label("role", "lc")),
        ),
        (
            "promotions to GL",
            m.counter_with("role_transitions", &label("to", "gl")),
        ),
    ] {
        println!("  {what:<18} {n}");
    }
}
