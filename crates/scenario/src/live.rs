//! The live side of a scenario: a deployed engine + system stack, the
//! workload builders that feed the scripted client, and the VM-id
//! allocator that keeps ids unique across workload entries.

use snooze::prelude::*;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::{UsageShape, VmWorkload};
use snooze_simcore::prelude::*;
use snooze_simcore::rng::SimRng;
use snooze_simcore::wallclock::WallClock;

use crate::spec::WorkloadSpec;

/// Allocates VM ids sequentially across every workload entry of a
/// scenario. Two bursts built from the same allocator never collide —
/// previously each burst restarted at id 0, so a second burst silently
/// reused the first one's VmIds (and RNG streams, which are seeded from
/// the id).
#[derive(Clone, Debug, Default)]
pub struct VmIdAlloc {
    next: u64,
}

impl VmIdAlloc {
    /// A fresh allocator starting at id 0.
    pub fn new() -> VmIdAlloc {
        VmIdAlloc::default()
    }

    /// The next unused id.
    fn next_id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }
}

/// Build a flat-utilization VM spec of `cores` cores.
pub fn vm_item(id: u64, cores: f64, mem_mb: f64, util: f64) -> ScheduledVm {
    let mut spec = VmSpec::new(VmId(id), ResourceVector::new(cores, mem_mb, 100.0, 100.0));
    spec.image_mb = 1024.0; // small OS image: migrations stay fast
    ScheduledVm {
        at: SimTime::ZERO,
        spec,
        workload: VmWorkload {
            cpu: UsageShape::Constant(util),
            memory: UsageShape::Constant(util),
            network: UsageShape::Constant(util),
            seed: id,
        },
        lifetime: None,
    }
}

/// A burst of `n` identical VMs at `at`, ids drawn from `alloc`.
pub fn burst(
    alloc: &mut VmIdAlloc,
    n: usize,
    at: SimTime,
    cores: f64,
    mem_mb: f64,
    util: f64,
) -> Vec<ScheduledVm> {
    (0..n)
        .map(|_| ScheduledVm {
            at,
            ..vm_item(alloc.next_id(), cores, mem_mb, util)
        })
        .collect()
}

/// Materialize one workload entry, drawing ids from `alloc`. Only the
/// trace entry can fail (missing file, malformed record, bad curve).
pub fn build_workload(alloc: &mut VmIdAlloc, w: &WorkloadSpec) -> Result<Vec<ScheduledVm>, String> {
    match w {
        WorkloadSpec::Burst {
            n,
            at_ms,
            cores,
            memory_mb,
            util,
        } => Ok(burst(
            alloc,
            *n,
            crate::spec::ms_to_time(*at_ms),
            *cores,
            *memory_mb,
            *util,
        )),
        WorkloadSpec::RandomFleet {
            n,
            seed,
            cores_min,
            cores_max,
            mem_min_mb,
            mem_max_mb,
            util_min,
            util_max,
            arrival_at_ms,
            arrival_spread_s,
            lifetime_every,
            lifetime_min_s,
            lifetime_max_s,
        } => {
            let mut rng = SimRng::new(*seed);
            let base_at = crate::spec::ms_to_time(*arrival_at_ms);
            Ok((0..*n)
                .map(|i| {
                    let cores = rng.uniform(*cores_min, *cores_max);
                    let mem = rng.uniform(*mem_min_mb, *mem_max_mb);
                    let util = rng.uniform(*util_min, *util_max);
                    let mut item = vm_item(alloc.next_id(), cores, mem, util);
                    item.at = base_at + SimSpan::from_secs(rng.range(0, *arrival_spread_s) as u64);
                    // Part of the fleet terminates mid-run, creating the
                    // idle times the energy manager exploits.
                    if *lifetime_every > 0 && i % lifetime_every == 0 {
                        let lifetime = rng.range(*lifetime_min_s, *lifetime_max_s);
                        item.lifetime = Some(SimSpan::from_secs(lifetime as u64));
                    }
                    item
                })
                .collect())
        }
        WorkloadSpec::Trace {
            path,
            time_scale,
            max_vms,
            policy,
        } => trace_schedule(alloc, path, *time_scale, *max_vms, policy),
    }
}

/// Resolve a trace path: absolute or locally-existing paths are used
/// as-is; otherwise the path is taken relative to the repository root,
/// so checked-in scenarios resolve from any crate's test harness.
fn resolve_trace_path(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() || p.exists() {
        return p.to_path_buf();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(p)
}

/// Replay a canonical trace file into a VM schedule. `time_scale`
/// multiplies every trace time; `policy = "loop"` replays the whole
/// trace shifted past its last arrival until `max_vms` is reached.
fn trace_schedule(
    alloc: &mut VmIdAlloc,
    path: &str,
    time_scale: f64,
    max_vms: usize,
    policy: &str,
) -> Result<Vec<ScheduledVm>, String> {
    let resolved = resolve_trace_path(path);
    let records = snooze_trace::load_path(&resolved)
        .map_err(|e| format!("trace `{}`: {e}", resolved.display()))?;
    if records.is_empty() {
        return Err(format!("trace `{}` has no records", resolved.display()));
    }
    let cap = if max_vms > 0 { max_vms } else { records.len() };

    // One lap spans the last arrival, rounded up a second so looped
    // laps never interleave with the previous one's arrivals.
    let span_s = records
        .iter()
        .map(|r| r.arrival_s)
        .fold(0.0f64, f64::max)
        .ceil()
        + 1.0;

    let mut schedule = Vec::with_capacity(cap.min(records.len()));
    let mut shift_s = 0.0f64;
    'laps: loop {
        for r in &records {
            if schedule.len() >= cap {
                break 'laps;
            }
            schedule.push(lower_record(alloc.next_id(), r, shift_s, time_scale)?);
        }
        if policy != "loop" {
            break;
        }
        shift_s += span_s;
    }
    Ok(schedule)
}

/// Lower one trace record to a scheduled VM: reservation becomes the
/// spec, the demand curve becomes piecewise cpu/mem shapes anchored at
/// the (scaled, shifted) arrival instant, and the record lifetime
/// terminates the VM.
fn lower_record(
    id: u64,
    r: &snooze_trace::TraceRecord,
    shift_s: f64,
    time_scale: f64,
) -> Result<ScheduledVm, String> {
    let at = crate::spec::ms_to_time((r.arrival_s + shift_s) * time_scale * 1000.0);
    let lifetime = crate::spec::ms_to_span(r.lifetime_s * time_scale * 1000.0);

    let shape = |points: Vec<(SimTime, f64)>| -> Result<UsageShape, String> {
        UsageShape::piecewise(points)
            .map_err(|e| format!("trace vm {}: bad demand curve: {e}", r.vm))
    };
    let (cpu, memory) = if r.curve.is_empty() {
        (UsageShape::Constant(1.0), UsageShape::Constant(1.0))
    } else {
        let bp = |f: fn(&snooze_trace::CurvePoint) -> f64| -> Vec<(SimTime, f64)> {
            r.curve
                .iter()
                .map(|p| {
                    (
                        at + crate::spec::ms_to_span(p.offset_s * time_scale * 1000.0),
                        f(p),
                    )
                })
                .collect()
        };
        (shape(bp(|p| p.cpu))?, shape(bp(|p| p.mem))?)
    };

    let mut spec = VmSpec::new(
        VmId(id),
        ResourceVector::new(r.cpu_cores, r.mem_mb, 100.0, 100.0),
    );
    spec.image_mb = 1024.0;
    Ok(ScheduledVm {
        at,
        spec,
        workload: VmWorkload {
            network: cpu.clone(),
            cpu,
            memory,
            seed: id,
        },
        lifetime: Some(lifetime),
    })
}

/// Build the engine every deployment shares: seeded, LAN network, and
/// the message classifier (purely observational — dead-letter breakdown,
/// profiler, flight recorder — so it cannot perturb the digest-covered
/// history).
fn build_engine(seed: u64) -> Engine<SnoozeNode> {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(seed).network(NetworkConfig::lan()).build();
    sim.set_msg_classifier(snooze::messages::SnoozeMsg::variant_name);
    sim
}

/// The single builder under every scenario: engine → hierarchy →
/// optional client, in that component order (the order fixes
/// `ComponentId`s and therefore digests).
pub fn deploy_hierarchy(
    seed: u64,
    config: &SnoozeConfig,
    managers: usize,
    nodes: &[snooze_cluster::node::NodeSpec],
    eps: usize,
    client: Option<(Vec<ScheduledVm>, SimSpan)>,
) -> LiveSystem {
    let mut sim = build_engine(seed);
    let system = SnoozeSystem::deploy(&mut sim, config, managers, nodes, eps);
    let client_id = client.map(|(schedule, retry)| {
        let ep = *system.eps.first().expect("a client needs an EP");
        sim.add_component("client", ClientDriver::new(ep, schedule, retry))
    });
    LiveSystem {
        sim,
        system,
        client_id,
        wall: WallClock::start(),
    }
}

/// A deployed system plus its driver client.
pub struct LiveSystem {
    /// The engine.
    pub sim: Engine<SnoozeNode>,
    /// The deployed hierarchy's handles.
    pub system: SnoozeSystem,
    /// The scripted client, if the scenario has one.
    pub client_id: Option<ComponentId>,
    pub(crate) wall: WallClock,
}

impl LiveSystem {
    /// The driver client. Panics if the scenario has none.
    pub fn client(&self) -> &ClientDriver {
        self.client_opt().expect("scenario has a client")
    }

    /// The driver client, if any.
    pub fn client_opt(&self) -> Option<&ClientDriver> {
        self.client_id
            .and_then(|id| self.sim.get(id))
            .and_then(|c| c.as_client())
    }

    /// Wall-clock milliseconds since deployment (advisory: never folded
    /// into digests or deterministic outputs).
    pub fn wall_ms(&self) -> f64 {
        self.wall.elapsed_ms()
    }

    /// Management messages sent so far (the distributed-management cost
    /// E5 reports).
    pub fn messages_sent(&self) -> u64 {
        self.sim.metrics().counter("net.sent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bursts_from_one_allocator_get_disjoint_ids() {
        let mut alloc = VmIdAlloc::new();
        let a = burst(&mut alloc, 3, SimTime::from_secs(10), 1.0, 1024.0, 0.5);
        let b = burst(&mut alloc, 2, SimTime::from_secs(20), 1.0, 1024.0, 0.5);
        let ids: Vec<u64> = a.iter().chain(&b).map(|v| v.spec.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        // Workload RNG streams are seeded from the id, so they must be
        // disjoint too.
        assert_eq!(b[0].workload.seed, 3);
    }

    #[test]
    fn fleet_ids_continue_after_a_burst() {
        let mut alloc = VmIdAlloc::new();
        let _ = burst(&mut alloc, 4, SimTime::ZERO, 1.0, 1024.0, 0.5);
        let fleet = build_workload(
            &mut alloc,
            &WorkloadSpec::RandomFleet {
                n: 3,
                seed: 99,
                cores_min: 1.0,
                cores_max: 3.0,
                mem_min_mb: 2048.0,
                mem_max_mb: 8192.0,
                util_min: 0.4,
                util_max: 0.9,
                arrival_at_ms: 30000.0,
                arrival_spread_s: 600,
                lifetime_every: 2,
                lifetime_min_s: 1200,
                lifetime_max_s: 3600,
            },
        )
        .unwrap();
        assert_eq!(
            fleet.iter().map(|v| v.spec.id.0).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert!(fleet[0].lifetime.is_some(), "i % 2 == 0 terminates");
        assert!(fleet[1].lifetime.is_none());
        assert!(fleet.iter().all(|v| v.at >= SimTime::from_secs(30)));
    }

    fn sample_record() -> snooze_trace::TraceRecord {
        snooze_trace::TraceRecord {
            vm: 0,
            arrival_s: 10.0,
            lifetime_s: 60.0,
            cpu_cores: 2.0,
            mem_mb: 4096.0,
            curve: vec![
                snooze_trace::CurvePoint {
                    offset_s: 0.0,
                    cpu: 0.2,
                    mem: 0.5,
                },
                snooze_trace::CurvePoint {
                    offset_s: 30.0,
                    cpu: 0.8,
                    mem: 0.6,
                },
            ],
        }
    }

    #[test]
    fn trace_record_lowers_to_a_piecewise_vm() {
        let vm = lower_record(7, &sample_record(), 0.0, 1.0).unwrap();
        assert_eq!(vm.spec.id.0, 7);
        assert_eq!(vm.at, SimTime::from_secs(10));
        assert_eq!(vm.lifetime, Some(SimSpan::from_secs(60)));
        assert_eq!(vm.spec.requested.cpu, 2.0);
        assert_eq!(vm.spec.requested.memory, 4096.0);
        // Demand curve anchored at arrival: first segment until t=40 s,
        // second afterwards; seed-independent (piecewise is scripted).
        assert_eq!(vm.workload.cpu.sample(SimTime::from_secs(10), 1), 0.2);
        assert_eq!(vm.workload.cpu.sample(SimTime::from_secs(39), 2), 0.2);
        assert_eq!(vm.workload.cpu.sample(SimTime::from_secs(40), 3), 0.8);
        assert_eq!(vm.workload.memory.sample(SimTime::from_secs(70), 4), 0.6);
    }

    #[test]
    fn trace_time_scale_compresses_the_replay() {
        let vm = lower_record(0, &sample_record(), 0.0, 0.5).unwrap();
        assert_eq!(vm.at, SimTime::from_secs(5));
        assert_eq!(vm.lifetime, Some(SimSpan::from_secs(30)));
        // Curve offsets scale with the replay: the 30 s breakpoint
        // lands 15 s after arrival.
        assert_eq!(vm.workload.cpu.sample(SimTime::from_secs(19), 1), 0.2);
        assert_eq!(vm.workload.cpu.sample(SimTime::from_secs(20), 1), 0.8);
    }

    #[test]
    fn trace_loop_policy_replays_shifted_laps() {
        let dir = std::env::temp_dir().join("snooze-live-trace-loop-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("two.csv");
        let mut recs = vec![sample_record(), sample_record()];
        recs[1].vm = 1;
        recs[1].arrival_s = 40.0;
        std::fs::write(&path, snooze_trace::csv::to_string(&recs)).unwrap();

        let mut alloc = VmIdAlloc::new();
        let sched = trace_schedule(&mut alloc, path.to_str().unwrap(), 1.0, 5, "loop").unwrap();
        assert_eq!(sched.len(), 5);
        assert_eq!(
            sched.iter().map(|v| v.spec.id.0).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        // Lap span = ceil(40) + 1 = 41 s: the second lap starts at
        // 10 + 41 s, the third at 10 + 82 s.
        assert_eq!(sched[2].at, SimTime::from_secs(51));
        assert_eq!(sched[3].at, SimTime::from_secs(81));
        assert_eq!(sched[4].at, SimTime::from_secs(92));

        let truncated = trace_schedule(
            &mut VmIdAlloc::new(),
            path.to_str().unwrap(),
            1.0,
            0,
            "truncate",
        )
        .unwrap();
        assert_eq!(truncated.len(), 2, "max_vms = 0 takes the whole trace");
    }
}
