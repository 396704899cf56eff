//! The checked-in experiment suite as scenario presets.
//!
//! Each function builds the *same* deployment, workload and phase
//! program the hand-written E4–E10 harnesses used, as data. The bench
//! crate runs these through the generic compiler, `run_experiments
//! --dump-scenarios` writes them to `scenarios/*.toml`, and a drift test
//! asserts the checked-in files still expand to exactly these specs.

use std::collections::BTreeMap;

use crate::spec::{
    ClientSpec, Condition, ConfigSpec, KnobsSpec, ObsSpec, ObserveSpec, PhaseSpec, PowerModelSpec,
    PowerSpec, ReconfSpec, ScenarioDoc, ScenarioSpec, SloSignal, SloSpec, TargetSpec, TopologySpec,
    WorkloadSpec,
};
use crate::toml::Value;

fn hierarchy(managers: usize, lcs: usize, retry_ms: f64) -> TopologySpec {
    TopologySpec {
        managers,
        lcs,
        node_groups: Vec::new(),
        eps: 1,
        unified: None,
        client: Some(ClientSpec { retry_ms }),
    }
}

fn no_suspend_config() -> ConfigSpec {
    ConfigSpec {
        idle_suspend_ms: Some(-1.0),
        ..ConfigSpec::preset("default")
    }
}

fn flat_burst(n: usize, at_ms: f64, cores: f64, memory_mb: f64, util: f64) -> WorkloadSpec {
    WorkloadSpec::Burst {
        n,
        at_ms,
        cores,
        memory_mb,
        util,
    }
}

/// The standard post-fault observation: 180 s in 2 s steps, performance
/// sampled over the first 60 s, no early exit (E6's shape).
fn observe_180s(until: Condition) -> ObserveSpec {
    ObserveSpec {
        steps: 90,
        step_ms: 2000.0,
        perf_window_ms: 60000.0,
        until,
        stop_on_success: false,
    }
}

/// **E4 — submission scalability**: burst sweeps on a fixed hierarchy.
pub fn e4(vm_counts: &[usize], lcs: usize, managers: usize, seed: u64) -> Vec<ScenarioSpec> {
    vm_counts
        .iter()
        .map(|&n| ScenarioSpec {
            name: format!("e4-{n}"),
            description: format!("submission scalability: {n}-VM burst on {lcs} LCs"),
            seed: seed ^ n as u64,
            topology: hierarchy(managers, lcs, 15000.0),
            config: no_suspend_config(),
            workload: vec![flat_burst(n, 30000.0, 2.0, 4096.0, 0.5)],
            faults: Vec::new(),
            phases: vec![PhaseSpec::Settle {
                deadline_ms: 1_800_000.0,
            }],
            probes: Vec::new(),
            obs: None,
            power: None,
            slos: Vec::new(),
        })
        .collect()
}

/// The default E4 sweep (paper: 144 nodes, up to 500 VMs).
pub fn e4_default() -> Vec<ScenarioSpec> {
    e4(&[50, 100, 200, 300, 400, 500], 144, 4, 0xE4)
}

/// **E5 — distribution overhead**: fixed burst, varying GM count.
pub fn e5(gm_counts: &[usize], lcs: usize, vms: usize, seed: u64) -> Vec<ScenarioSpec> {
    gm_counts
        .iter()
        .map(|&gms| ScenarioSpec {
            name: format!("e5-{gms}gm"),
            description: format!("distribution overhead: {vms} VMs under {gms} GMs"),
            seed: seed ^ gms as u64,
            topology: hierarchy(gms + 1, lcs, 15000.0),
            config: no_suspend_config(),
            workload: vec![flat_burst(vms, 30000.0, 2.0, 4096.0, 0.5)],
            faults: Vec::new(),
            phases: vec![PhaseSpec::Settle {
                deadline_ms: 1_200_000.0,
            }],
            probes: Vec::new(),
            obs: None,
            power: None,
            slos: Vec::new(),
        })
        .collect()
}

/// The default E5 sweep.
pub fn e5_default() -> Vec<ScenarioSpec> {
    e5(&[1, 2, 4, 8], 64, 200, 0xE5)
}

/// **E6 — fault tolerance**: place a burst, then kill the GL, a GM and
/// the busiest LC in sequence, observing performance and recovery.
pub fn e6(seed: u64, reschedule: bool) -> ScenarioSpec {
    ScenarioSpec {
        name: "e6-fault-tolerance".into(),
        description: "GL, GM and LC failures under a placed workload".into(),
        seed,
        topology: hierarchy(4, 24, 15000.0),
        config: ConfigSpec {
            reschedule_on_lc_failure: Some(reschedule),
            ..no_suspend_config()
        },
        workload: vec![flat_burst(48, 30000.0, 2.0, 4096.0, 0.7)],
        faults: Vec::new(),
        phases: vec![
            PhaseSpec::Settle {
                deadline_ms: 400_000.0,
            },
            PhaseSpec::Fault {
                label: "GL crash".into(),
                target: TargetSpec::Gl,
                delay_ms: 10000.0,
                kind: "crash".into(),
                observe: Some(observe_180s(Condition::GlElected)),
            },
            PhaseSpec::RunFor { dur_ms: 60000.0 },
            PhaseSpec::Fault {
                label: "GM crash".into(),
                target: TargetSpec::ActiveGm(0),
                delay_ms: 5000.0,
                kind: "crash".into(),
                observe: Some(observe_180s(Condition::LcsOnLiveGms)),
            },
            PhaseSpec::RunFor { dur_ms: 60000.0 },
            PhaseSpec::Fault {
                label: if reschedule {
                    "LC crash (snapshots)".into()
                } else {
                    "LC crash".into()
                },
                target: TargetSpec::LcMostVms,
                delay_ms: 5000.0,
                kind: "crash".into(),
                observe: Some(observe_180s(Condition::VmsRestored)),
            },
        ],
        probes: Vec::new(),
        obs: None,
        power: None,
        slos: Vec::new(),
    }
}

/// The default E6 scenario (snapshot rescheduling on).
pub fn e6_default() -> ScenarioSpec {
    e6(0xE6, true)
}

/// The E7 staggered, partly terminating fleet.
fn e7_fleet(n: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec::RandomFleet {
        n,
        seed,
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
    }
}

/// Human-readable labels for the three E7 configurations, index-aligned
/// with [`e7`]'s output.
pub const E7_LABELS: [&str; 3] = ["no power mgmt", "suspend only", "suspend + ACO reconf"];

/// **E7 — energy savings**: the same fleet under no power management,
/// suspend-only, and suspend + ACO reconfiguration.
pub fn e7(lcs: usize, vms: usize, horizon_secs: u64, seed: u64) -> Vec<ScenarioSpec> {
    let base = |name: &str, desc: &str| ScenarioSpec {
        name: name.into(),
        description: desc.into(),
        seed,
        topology: hierarchy(3, lcs, 15000.0),
        config: ConfigSpec {
            placement: Some("round_robin".into()),
            idle_suspend_ms: Some(-1.0),
            ..ConfigSpec::preset("default")
        },
        workload: vec![e7_fleet(vms, seed ^ 0xF1EE7)],
        faults: Vec::new(),
        phases: vec![PhaseSpec::SampleTo {
            t_ms: horizon_secs as f64 * 1e3,
            every_ms: 60000.0,
        }],
        probes: Vec::new(),
        obs: None,
        power: None,
        slos: Vec::new(),
    };
    let no_pm = base("e7-no-pm", "energy baseline: power management off");
    let mut pm = base("e7-suspend", "energy: suspend idle nodes after 120 s");
    pm.config.idle_suspend_ms = Some(120_000.0);
    let mut pm_reconf = base(
        "e7-suspend-reconf",
        "energy: suspend + periodic ACO packing",
    );
    pm_reconf.config.idle_suspend_ms = Some(120_000.0);
    pm_reconf.config.reconfiguration = Some(ReconfSpec {
        period_ms: 900_000.0,
        algo: "aco".into(),
        aco: "default".into(),
        aco_cycles: Some(15),
        max_migrations: 12,
        params: None,
    });
    vec![no_pm, pm, pm_reconf]
}

/// The default E7 configuration.
pub fn e7_default() -> Vec<ScenarioSpec> {
    e7(32, 48, 7200, 0xE7)
}

/// **E7b — idle-threshold sweep**: energy vs suspend churn.
pub fn e7b(
    thresholds_s: &[u64],
    lcs: usize,
    vms: usize,
    horizon_secs: u64,
    seed: u64,
) -> Vec<ScenarioSpec> {
    thresholds_s
        .iter()
        .map(|&th| ScenarioSpec {
            name: format!("e7b-{th}s"),
            description: format!("idle threshold {th} s"),
            seed: seed ^ th,
            topology: hierarchy(3, lcs, 15000.0),
            config: ConfigSpec {
                placement: Some("round_robin".into()),
                idle_suspend_ms: Some(th as f64 * 1e3),
                ..ConfigSpec::preset("default")
            },
            // The fleet is identical across thresholds: only the
            // deployment seed and the suspend knob vary.
            workload: vec![e7_fleet(vms, seed ^ 0xF1EE7)],
            faults: Vec::new(),
            phases: vec![PhaseSpec::RunTo {
                t_ms: horizon_secs as f64 * 1e3,
            }],
            probes: Vec::new(),
            obs: None,
            power: None,
            slos: Vec::new(),
        })
        .collect()
}

/// The default E7b sweep.
pub fn e7b_default() -> Vec<ScenarioSpec> {
    e7b(&[30, 120, 600, 1800], 24, 36, 7200, 0xE7B)
}

/// The E9 post-crash poll: up to ~300 s in 500 ms steps, stopping as
/// soon as the condition holds.
fn poll_500ms(until: Condition) -> ObserveSpec {
    ObserveSpec {
        steps: 599,
        step_ms: 500.0,
        perf_window_ms: 0.0,
        until,
        stop_on_success: true,
    }
}

/// One E9 measurement: crash the GL, poll for re-election; crash a GM,
/// poll for LC rejoin. Control-plane only: no client, no workload.
pub fn e9_single(session_ms: u64, heartbeat_ms: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("e9-s{}", session_ms / 1000),
        description: format!("session {session_ms} ms, heartbeat {heartbeat_ms} ms"),
        seed,
        topology: TopologySpec {
            managers: 4,
            lcs: 8,
            node_groups: Vec::new(),
            eps: 1,
            unified: None,
            client: None,
        },
        config: ConfigSpec {
            idle_suspend_ms: Some(-1.0),
            knobs: Some(KnobsSpec {
                session_ms: session_ms as f64,
                heartbeat_ms: heartbeat_ms as f64,
            }),
            ..ConfigSpec::preset("default")
        },
        workload: Vec::new(),
        faults: Vec::new(),
        phases: vec![
            PhaseSpec::RunTo { t_ms: 60000.0 },
            PhaseSpec::Fault {
                label: "GL failover".into(),
                target: TargetSpec::Gl,
                delay_ms: 0.0,
                kind: "crash".into(),
                observe: Some(poll_500ms(Condition::GlElected)),
            },
            PhaseSpec::RunFor { dur_ms: 60000.0 },
            PhaseSpec::Fault {
                label: "LC rejoin".into(),
                target: TargetSpec::ActiveGm(0),
                delay_ms: 0.0,
                kind: "crash".into(),
                observe: Some(poll_500ms(Condition::LcsOnLiveGms)),
            },
        ],
        probes: Vec::new(),
        obs: None,
        power: None,
        slos: Vec::new(),
    }
}

/// **E9 — failover sensitivity**: the knob sweep, one scenario per
/// `(session seconds, heartbeat ms)` pair.
pub fn e9(knob_pairs: &[(u64, u64)], seed: u64) -> Vec<ScenarioSpec> {
    knob_pairs
        .iter()
        .map(|&(session_s, hb_ms)| e9_single(session_s * 1000, hb_ms, seed ^ session_s))
        .collect()
}

/// The default E9 knob sweep.
pub fn e9_default() -> Vec<ScenarioSpec> {
    e9(&[(4, 1000), (8, 2000), (16, 4000), (30, 8000)], 0xE9)
}

/// **E10b — distributed consolidation in the hierarchy**: same cluster
/// and burst, varying how many GMs partition the consolidation scope.
pub fn e10b(gm_counts: &[usize], lcs: usize, vms: usize, seed: u64) -> Vec<ScenarioSpec> {
    gm_counts
        .iter()
        .map(|&gms| ScenarioSpec {
            name: format!("e10b-{gms}gm"),
            description: format!("per-GM consolidation scope: {gms} GMs over {lcs} LCs"),
            seed: seed ^ gms as u64,
            topology: hierarchy(gms + 1, lcs, 15000.0),
            config: ConfigSpec {
                placement: Some("round_robin".into()),
                idle_suspend_ms: Some(60000.0),
                underload_threshold: Some(0.0),
                reconfiguration: Some(ReconfSpec {
                    period_ms: 120_000.0,
                    algo: "aco".into(),
                    aco: "default".into(),
                    aco_cycles: Some(15),
                    max_migrations: 16,
                    params: None,
                }),
                ..ConfigSpec::preset("default")
            },
            workload: vec![flat_burst(vms, 30000.0, 2.0, 4096.0, 0.6)],
            faults: Vec::new(),
            phases: vec![PhaseSpec::RunTo { t_ms: 1_800_000.0 }],
            probes: Vec::new(),
            obs: None,
            power: None,
            slos: Vec::new(),
        })
        .collect()
}

/// The default E10b sweep.
pub fn e10b_default() -> Vec<ScenarioSpec> {
    e10b(&[1, 2, 4], 24, 36, 0x10)
}

/// **E11 — kilonode**: submission latency and self-healing at ~7× the
/// paper's 144-node testbed. A staggered random fleet is placed across
/// `lcs` nodes; once it settles, the GL is crashed and re-election is
/// observed with the full fleet in flight. `with_fault: false` is the
/// smoke shape (used by `--smoke e11`): settle-only, so any dead letter
/// is a real routing bug rather than fault fallout.
///
/// The VM count scales with the node count (5000 VMs at 1024 LCs —
/// ~61% CPU and memory load on the standard 8-core/32-GB node), keeping
/// the per-node pressure identical between the full and smoke shapes.
pub fn e11(lcs: usize, with_fault: bool, seed: u64) -> ScenarioSpec {
    let vms = lcs * 5000 / 1024;
    let mut phases = vec![PhaseSpec::Settle {
        deadline_ms: 3_600_000.0,
    }];
    if with_fault {
        phases.push(PhaseSpec::Fault {
            label: "GL crash".into(),
            target: TargetSpec::Gl,
            delay_ms: 10000.0,
            kind: "crash".into(),
            observe: Some(observe_180s(Condition::GlElected)),
        });
        phases.push(PhaseSpec::RunFor { dur_ms: 120_000.0 });
    }
    ScenarioSpec {
        name: if with_fault {
            format!("e11-kilonode-{lcs}")
        } else {
            format!("e11-smoke-{lcs}")
        },
        description: format!("kilonode scale: {vms}-VM staggered fleet on {lcs} LCs"),
        seed,
        topology: hierarchy(9, lcs, 15000.0),
        config: no_suspend_config(),
        workload: vec![WorkloadSpec::RandomFleet {
            n: vms,
            seed: seed ^ 0x11F1EE7,
            cores_min: 0.5,
            cores_max: 1.5,
            mem_min_mb: 2048.0,
            mem_max_mb: 6144.0,
            util_min: 0.3,
            util_max: 0.8,
            arrival_at_ms: 30000.0,
            arrival_spread_s: 600,
            lifetime_every: 0,
            lifetime_min_s: 0,
            lifetime_max_s: 0,
        }],
        faults: Vec::new(),
        phases,
        probes: Vec::new(),
        // One-minute metric windows + the profiler: the kilonode run is
        // exactly where per-handler attribution and the dead-letter
        // breakdown pay for themselves. Generous watchdog bounds — a
        // healthy run stays silent; the fault shape's re-election storm
        // is what they exist to flag.
        power: None,
        obs: Some(ObsSpec {
            window_ms: 60_000.0,
            ring: 256,
            profile: true,
            force_incident_at_ms: None,
        }),
        slos: vec![
            SloSpec {
                name: "placement-p95".into(),
                signal: SloSignal::P95PlacementLatencyS,
                max: 120.0,
            },
            SloSpec {
                name: "dead-letter-budget".into(),
                signal: SloSignal::DeadLetters,
                max: 500.0,
            },
        ],
    }
}

/// The default E11 scenario: 1024 LCs under 8 GMs + 1 GL, 5000 VMs.
pub fn e11_default() -> ScenarioSpec {
    e11(1024, true, 0xE11)
}

/// The reduced E11 smoke shape for CI gates: 256 LCs, no faults.
pub fn e11_smoke() -> ScenarioSpec {
    e11(256, false, 0xE11)
}

/// Path of the checked-in reference trace, relative to the repo root
/// (`snooze-tracegen --seed 42`, 2000 VMs over two simulated hours).
pub const REFERENCE_TRACE: &str = "traces/azure_diurnal_2k.csv";

/// **E12 — trace-driven consolidation**: replay a diurnal VM-request
/// trace and compare ACO against FFD reconfiguration on the same
/// cluster. Placement is round-robin (spread, so packing is entirely
/// the consolidator's work), underload drain is disabled, and idle
/// nodes suspend after 120 s — energy differences between the two
/// variants come from how well the periodic consolidator packs the
/// live, curve-driven demand. The two variants differ only in
/// `config.reconfiguration.algo`: no per-algorithm Rust.
pub fn e12_trace(
    lcs: usize,
    trace_path: &str,
    max_vms: usize,
    horizon_secs: u64,
    seed: u64,
) -> Vec<ScenarioSpec> {
    let base = |algo: &str| ScenarioSpec {
        name: format!("e12-trace-{algo}"),
        description: format!("diurnal trace replay on {lcs} LCs, {algo} reconfiguration"),
        seed,
        topology: hierarchy(9, lcs, 15000.0),
        config: ConfigSpec {
            placement: Some("round_robin".into()),
            idle_suspend_ms: Some(120_000.0),
            underload_threshold: Some(0.0),
            reconfiguration: Some(ReconfSpec {
                period_ms: 600_000.0,
                algo: algo.into(),
                aco: "default".into(),
                aco_cycles: Some(15),
                max_migrations: 16,
                params: None,
            }),
            ..ConfigSpec::preset("default")
        },
        workload: vec![WorkloadSpec::Trace {
            path: trace_path.into(),
            time_scale: 1.0,
            max_vms,
            policy: "truncate".into(),
        }],
        faults: Vec::new(),
        phases: vec![PhaseSpec::SampleTo {
            t_ms: horizon_secs as f64 * 1e3,
            every_ms: 60000.0,
        }],
        probes: Vec::new(),
        obs: None,
        power: None,
        slos: Vec::new(),
    };
    vec![base("aco"), base("ffd")]
}

/// The default E12 configuration: the whole checked-in reference trace
/// on 1000 LCs, three simulated hours (`scenarios/e12_trace.toml`).
pub fn e12_trace_default() -> Vec<ScenarioSpec> {
    e12_trace(1000, REFERENCE_TRACE, 0, 10_800, 0xE12)
}

/// The reduced shape behind `run_experiments --smoke trace`: 128 LCs,
/// a capped VM count, 45 simulated minutes.
pub fn e12_trace_smoke(trace_path: &str) -> Vec<ScenarioSpec> {
    e12_trace(128, trace_path, 200, 2700, 0xE12)
}

/// The consolidators the full E14 arena sweeps (every registry key
/// except `bnb`, whose exhaustive search is pointless at cluster scale;
/// the smoke gate still exercises it on the small shape).
pub const E14_ALGOS: [&str; 8] = [
    "aco", "aco-pso", "bfd", "daco", "ffd", "mo-aco", "nfd", "wfd",
];

/// The power models the E14 arena sweeps: the legacy linear profile,
/// the 3-state DVFS curve, and the same DVFS curve with billed
/// suspend/resume transitions.
pub const E14_POWER_MODELS: [&str; 3] = ["grid5000", "grid5000_dvfs3", "dvfs3_billed"];

/// The E14 `[power]` table: `dvfs3_billed` is the built-in 3-state
/// DVFS curve with `transitions = "billed"` — resume and boot draw the
/// top state's peak, so short idle gaps can net-lose energy and the
/// arena punishes over-eager packing.
fn e14_power_spec(default: &str) -> PowerSpec {
    let mut params = BTreeMap::new();
    params.insert(
        "freq_ghz".to_string(),
        Value::Array(vec![
            Value::Float(1.2),
            Value::Float(1.8),
            Value::Float(2.4),
        ]),
    );
    params.insert(
        "idle_watts".to_string(),
        Value::Array(vec![
            Value::Float(118.0),
            Value::Float(136.0),
            Value::Float(160.0),
        ]),
    );
    params.insert(
        "max_watts".to_string(),
        Value::Array(vec![
            Value::Float(162.0),
            Value::Float(201.0),
            Value::Float(250.0),
        ]),
    );
    params.insert("suspend_watts".to_string(), Value::Float(5.0));
    PowerSpec {
        default: Some(default.to_string()),
        models: vec![PowerModelSpec {
            name: "dvfs3_billed".into(),
            kind: "dvfs".into(),
            transitions: "billed".into(),
            params,
        }],
    }
}

/// **E14 — the consolidation arena**: the E12 diurnal-trace shape swept
/// over the full `algo` × power-model grid. Placement stays round-robin
/// (spread), underload drain stays off, so packing quality, migration
/// churn and transition billing are entirely down to the
/// (consolidator, power model) pair under test. One scenario per cell,
/// named `e14-{algo}-{power}`.
pub fn e14_arena(
    lcs: usize,
    trace_path: &str,
    max_vms: usize,
    horizon_secs: u64,
    seed: u64,
    algos: &[&str],
    powers: &[&str],
) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for algo in algos {
        for power in powers {
            // `bnb` needs a node budget the small smoke shape can
            // exhaust quickly; every other algorithm takes registry
            // defaults.
            let params = (*algo == "bnb").then(|| {
                let mut p = BTreeMap::new();
                p.insert("node_budget".to_string(), Value::Int(200_000));
                p
            });
            specs.push(ScenarioSpec {
                name: format!("e14-{algo}-{power}"),
                description: format!(
                    "consolidation arena: {algo} reconfiguration under the {power} power model"
                ),
                seed,
                topology: hierarchy(9, lcs, 15000.0),
                config: ConfigSpec {
                    placement: Some("round_robin".into()),
                    idle_suspend_ms: Some(120_000.0),
                    underload_threshold: Some(0.0),
                    reconfiguration: Some(ReconfSpec {
                        period_ms: 600_000.0,
                        algo: (*algo).into(),
                        aco: "default".into(),
                        aco_cycles: Some(15),
                        max_migrations: 16,
                        params,
                    }),
                    ..ConfigSpec::preset("default")
                },
                workload: vec![WorkloadSpec::Trace {
                    path: trace_path.into(),
                    time_scale: 1.0,
                    max_vms,
                    policy: "truncate".into(),
                }],
                faults: Vec::new(),
                phases: vec![PhaseSpec::SampleTo {
                    t_ms: horizon_secs as f64 * 1e3,
                    every_ms: 60000.0,
                }],
                probes: Vec::new(),
                obs: None,
                power: Some(e14_power_spec(power)),
                slos: Vec::new(),
            });
        }
    }
    specs
}

/// The full arena (`scenarios/e14_arena.toml`): the whole reference
/// trace on 1000 LCs, three simulated hours, all 8 × 3 cells.
pub fn e14_arena_default() -> Vec<ScenarioSpec> {
    e14_arena(
        1000,
        REFERENCE_TRACE,
        0,
        10_800,
        0xE14,
        &E14_ALGOS,
        &E14_POWER_MODELS,
    )
}

/// The reduced shape behind `run_experiments --smoke arena`: 128 LCs,
/// 200 VMs, 45 simulated minutes, *every* registry key (including
/// `bnb`) under the billed-DVFS model.
pub fn e14_arena_smoke(trace_path: &str) -> Vec<ScenarioSpec> {
    e14_arena(
        128,
        trace_path,
        200,
        2700,
        0xE14,
        &snooze_consolidation::registry::REGISTRY_KEYS,
        &["dvfs3_billed"],
    )
}

/// The telemetry-report acceptance scenario: an E4-shaped burst with one
/// GM crash while placements are in flight.
pub fn report_failover(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "report-failover".into(),
        description: "observability scenario: 100-VM burst, one GM crash mid-flight".into(),
        seed,
        topology: hierarchy(5, 32, 15000.0),
        config: ConfigSpec::preset("fast_test"),
        workload: vec![flat_burst(100, 30000.0, 2.0, 4096.0, 0.6)],
        faults: Vec::new(),
        phases: vec![
            PhaseSpec::RunTo { t_ms: 45000.0 },
            PhaseSpec::Fault {
                label: "GM crash".into(),
                target: TargetSpec::ActiveGm(0),
                delay_ms: 1.0,
                kind: "crash".into(),
                observe: None,
            },
            PhaseSpec::Settle {
                deadline_ms: 600_000.0,
            },
        ],
        probes: Vec::new(),
        // 30 s windows with a zero-tolerance heartbeat watchdog: the GM
        // crash *will* miss heartbeats, so this scenario demonstrates
        // the alert → incident-dump path end to end.
        power: None,
        obs: Some(ObsSpec {
            window_ms: 30_000.0,
            ring: 128,
            profile: true,
            force_incident_at_ms: None,
        }),
        slos: vec![SloSpec {
            name: "heartbeat-misses".into(),
            signal: SloSignal::HeartbeatMisses,
            max: 0.0,
        }],
    }
}

/// Every checked-in scenario file and the document it must contain.
/// `run_experiments --dump-scenarios` writes these; the drift test
/// in the bench crate asserts `scenarios/<file>` still matches.
pub fn checked_in() -> Vec<(&'static str, ScenarioDoc)> {
    fn doc(specs: Vec<ScenarioSpec>) -> ScenarioDoc {
        ScenarioDoc::from_specs(&specs[0], &specs)
    }
    vec![
        ("e4.toml", doc(e4_default())),
        ("e5.toml", doc(e5_default())),
        ("e6.toml", ScenarioDoc::from_specs(&e6_default(), &[])),
        ("e7.toml", doc(e7_default())),
        ("e7b.toml", doc(e7b_default())),
        ("e9.toml", doc(e9_default())),
        ("e10b.toml", doc(e10b_default())),
        ("e11.toml", ScenarioDoc::from_specs(&e11_default(), &[])),
        ("e12_trace.toml", doc(e12_trace_default())),
        ("e14_arena.toml", doc(e14_arena_default())),
        (
            "report.toml",
            ScenarioDoc::from_specs(&report_failover(0x5EED), &[]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_checked_in_doc_round_trips_and_expands() {
        for (file, doc) in checked_in() {
            let text = doc.to_toml();
            let parsed = ScenarioDoc::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert_eq!(parsed.to_toml(), text, "{file}: canonical round-trip");
            let specs = parsed.expand().unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(!specs.is_empty(), "{file}: expands to at least one run");
            for s in &specs {
                // Every expanded spec must itself round-trip.
                let again = ScenarioSpec::from_toml(&s.to_toml()).unwrap();
                assert_eq!(&again, s, "{file}: spec round-trip for {}", s.name);
            }
        }
    }

    #[test]
    fn e4_doc_expands_to_the_default_sweep() {
        let doc = ScenarioDoc::from_specs(&e4_default()[0], &e4_default());
        assert_eq!(doc.expand().unwrap(), e4_default());
        assert_eq!(doc.run_count(), 6);
    }

    #[test]
    fn e6_label_tracks_the_reschedule_knob() {
        let with = e6(1, true);
        let without = e6(1, false);
        let label = |s: &ScenarioSpec| match &s.phases[5] {
            PhaseSpec::Fault { label, .. } => label.clone(),
            _ => unreachable!(),
        };
        assert_eq!(label(&with), "LC crash (snapshots)");
        assert_eq!(label(&without), "LC crash");
    }
}
