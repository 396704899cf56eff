//! The declarative scenario schema.
//!
//! A [`ScenarioSpec`] says everything about one run: the topology
//! (managers / LCs / EPs, heterogeneous node groups,
//! the client), the Snooze configuration (a preset plus overrides), a
//! workload program, a static fault schedule, a phase program (run /
//! settle / sample / fault-and-observe), and named probe points.
//!
//! A scenario *file* ([`ScenarioDoc`]) is a base table plus what generates
//! its runs, so one file is a whole experiment. `scenarios/e14_arena.toml`:
//!
//! ```toml
//! name = "e14-{config.reconfiguration.algo}-{power.default}"
//! [[sweep]]                       # 5 runs: one per element
//! [sweep.config.reconfiguration]
//! algo = ["aco", "daco", "ffd", "mo-aco", "wfd"]
//! [[sweep]]                       # × 3: blocks cross, the first slowest
//! [sweep.power]
//! default = ["grid5000", "grid5000_dvfs3", "dvfs3_billed"]
//! [override.smoke.topology]       # `profile("smoke")`: the CI shape
//! lcs = 128
//! ```
//!
//! * `[[variant]]` is a patch deep-merged onto the base (tables by key,
//!   arrays of tables by index): one run each, after the sweep's.
//! * `[[sweep]]` is a variant whose leaves are arrays. Run *i* of a block
//!   takes element *i* of every leaf — one block's leaves are zipped (E4:
//!   `seed` beside `[[sweep.workload]] n`) and must be equally long.
//! * `{dotted.path}` in `name` / `description` is filled from the run's
//!   merged document; a number indexes an array of tables
//!   (`{workload.0.n}`). Run names must come out distinct.
//! * `[override.<profile>]` is the same document at another shape, under
//!   the one array rule stated on [`ScenarioDoc`].
//! * A base with a `[pack]` table is a pack document ([`crate::pack`]): its
//!   runs pack generated instances and simulate nothing.
//!   [`ScenarioDoc::runs`] expands either kind, [`ScenarioDoc::expand`] a
//!   simulated one.
//!
//! Everything is plain data: durations are `*_ms` floats converted to whole
//! microseconds, enums are strings. A document ([`ScenarioDoc`]) round-trips
//! through TOML byte for byte in canonical form; a spec is decoded from one
//! and never written back. Every table is read through a
//! [`Reader`](crate::toml::Reader): the keys a decoder asks for are the
//! table's legal keys, and a present key of the wrong type or an unknown one
//! is an error naming the key and the table
//! (`` `placement` in config must be a string ``).

use std::collections::BTreeMap;
use std::sync::Arc;

use snooze::prelude::SnoozeConfig;
use snooze::scheduling::placement::PlacementKind;
use snooze::scheduling::reconfiguration::ReconfigurationConfig;
use snooze_cluster::node::{NodeId, NodeSpec, TransitionTimes};
use snooze_cluster::power::{
    BilledTransitions, DvfsPower, DvfsState, LinearPower, PowerModel, SpecLikePower,
};
use snooze_cluster::resources::ResourceVector;
use snooze_consolidation::registry::{ConsolidatorRegistry, ParamValue, Params, COLONY_KEYS};
use snooze_simcore::excerpt::Excerpt;
use snooze_simcore::time::{SimSpan, SimTime};

use crate::pack::PackSpec;
use crate::toml::{self, Reader, Value};

/// Milliseconds (float) → exact microseconds. Scenario files carry every
/// duration as `*_ms`; all arithmetic downstream is integer micros.
pub fn ms_to_span(ms: f64) -> SimSpan {
    assert!(
        ms.is_finite() && ms >= 0.0,
        "duration must be >= 0, got {ms}"
    );
    SimSpan::from_micros((ms * 1e3).round() as u64)
}

/// Milliseconds (float) → an absolute instant.
pub fn ms_to_time(ms: f64) -> SimTime {
    SimTime(ms_to_span(ms).as_micros())
}

/// One full scenario (a single run).
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (labels tables, exports and telemetry).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Master RNG seed — the only run-to-run degree of freedom.
    pub seed: u64,
    /// What to deploy.
    pub topology: TopologySpec,
    /// How to configure it.
    pub config: ConfigSpec,
    /// What to submit.
    pub workload: Vec<WorkloadSpec>,
    /// Statically scheduled faults (installed before the run starts).
    pub faults: Vec<StaticFault>,
    /// The phase program executed in order.
    pub phases: Vec<PhaseSpec>,
    /// Named sample points.
    pub probes: Vec<ProbeSpec>,
    /// Continuous observability (windowed metrics, profiler, flight
    /// recorder). Absent = off, exactly the pre-observability runner.
    pub obs: Option<ObsSpec>,
    /// SLO watchdogs evaluated at every window boundary (requires
    /// `obs`).
    pub slos: Vec<SloSpec>,
    /// Power-model library (the `[power]` table). Absent = the built-in
    /// Grid'5000 linear model everywhere, exactly the pre-arena objects.
    pub power: Option<PowerSpec>,
}

/// The `[power]` table: a library of named power models plus an optional
/// default for the standard LC fleet. Node groups pick a model by name
/// via their `model` key; names resolve against `[[power.model]]`
/// definitions first, then the built-ins (`grid5000`, `xeon_2011`,
/// `grid5000_dvfs3`).
#[derive(Clone, Debug, PartialEq)]
pub struct PowerSpec {
    /// Model name applied to the standard `lcs` nodes. Absent = the
    /// built-in Grid'5000 linear model.
    pub default: Option<String>,
    /// Named model definitions.
    pub models: Vec<PowerModelSpec>,
}

/// One `[[power.model]]` definition. `kind` selects the curve family and
/// the remaining keys are its parameters (validated when the model is
/// built):
///
/// - `"linear"`: `idle_watts`, `max_watts`, `suspend_watts`
/// - `"spec"`: `points` (11 watts values at 0..100% load), `suspend_watts`
/// - `"dvfs"`: parallel arrays `freq_ghz`, `idle_watts`, `max_watts`
///   (one entry per frequency state, ascending), plus `suspend_watts`
#[derive(Clone, Debug, PartialEq)]
pub struct PowerModelSpec {
    /// The name node groups and `power.default` refer to.
    pub name: String,
    /// `"linear"`, `"spec"` or `"dvfs"`.
    pub kind: String,
    /// Transition billing: `"legacy"` draws idle while suspending /
    /// resuming; `"billed"` draws peak on the way up.
    pub transitions: String,
    /// Kind-specific parameters (raw scalars / arrays).
    pub params: BTreeMap<String, Value>,
}

/// Continuous-observability settings (the `[obs]` table).
#[derive(Clone, Debug, PartialEq)]
pub struct ObsSpec {
    /// Metric window width, ms.
    pub window_ms: f64,
    /// Flight-recorder ring capacity, events.
    pub ring: usize,
    /// Attribute events to (component kind, message variant).
    pub profile: bool,
    /// Force an incident dump at this instant, ms — a deterministic
    /// trigger for testing the dump pipeline end to end.
    pub force_incident_at_ms: Option<f64>,
}

/// One SLO watchdog (a `[[slo]]` entry): at every window boundary the
/// runner evaluates the signal over the just-closed window and raises an
/// alert (span + flight-recorder incident) when it exceeds `max`.
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// Watchdog name (labels alert spans, incident dumps and reports).
    pub name: String,
    /// Which signal to watch.
    pub signal: SloSignal,
    /// Inclusive upper bound; strictly above it is a breach.
    pub max: f64,
}

/// The signals SLO watchdogs understand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloSignal {
    /// p95 of `client.placement_latency_s` samples in the window,
    /// seconds.
    P95PlacementLatencyS,
    /// `heartbeat_missed` increments in the window (all roles).
    HeartbeatMisses,
    /// Whole-run `dead_letters` total as of the boundary (a budget).
    DeadLetters,
    /// Engine queue depth at the boundary.
    QueueDepth,
}

impl SloSignal {
    /// Stable TOML name.
    pub fn as_str(self) -> &'static str {
        match self {
            SloSignal::P95PlacementLatencyS => "p95_placement_latency_s",
            SloSignal::HeartbeatMisses => "heartbeat_misses",
            SloSignal::DeadLetters => "dead_letters",
            SloSignal::QueueDepth => "queue_depth",
        }
    }

    /// Inverse of [`SloSignal::as_str`].
    pub fn parse(s: &str) -> Result<SloSignal, String> {
        match s {
            "p95_placement_latency_s" => Ok(SloSignal::P95PlacementLatencyS),
            "heartbeat_misses" => Ok(SloSignal::HeartbeatMisses),
            "dead_letters" => Ok(SloSignal::DeadLetters),
            "queue_depth" => Ok(SloSignal::QueueDepth),
            other => Err(format!("unknown slo signal `{}`", Excerpt(other))),
        }
    }
}

/// Deployment shape.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologySpec {
    /// Manager components (one is elected GL, the rest serve as GMs).
    pub managers: usize,
    /// Homogeneous standard LC nodes (8 cores / 32 GB / Grid'5000 power).
    pub lcs: usize,
    /// Extra heterogeneous node groups, appended after the standard LCs.
    pub node_groups: Vec<NodeGroupSpec>,
    /// Entry Points.
    pub eps: usize,
    /// The scripted client driving the workload (absent = no client,
    /// e.g. for pure control-plane scenarios like E9).
    pub client: Option<ClientSpec>,
}

/// A group of identical nodes with explicit capacity and power profile.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeGroupSpec {
    /// Nodes in this group.
    pub count: usize,
    /// CPU cores per node.
    pub cores: f64,
    /// Memory per node, MB.
    pub memory_mb: f64,
    /// Network capacity per node (each direction), Mbit/s.
    pub net_mbps: f64,
    /// Idle power draw, watts.
    pub idle_watts: f64,
    /// Full-load power draw, watts.
    pub max_watts: f64,
    /// Suspended power draw, watts.
    pub suspend_watts: f64,
    /// Named `[power]` model for this group. When set, it supersedes the
    /// inline linear watts above.
    pub model: Option<String>,
}

/// The scripted client.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientSpec {
    /// Retry period for unacknowledged submissions, ms.
    pub retry_ms: f64,
}

/// Snooze configuration: a named preset plus optional overrides.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigSpec {
    /// `"default"` or `"fast_test"`.
    pub preset: String,
    /// Idle time before suspend, ms; negative disables power management.
    pub idle_suspend_ms: Option<f64>,
    /// RTC watchdog period for suspended nodes, ms.
    pub suspend_watchdog_ms: Option<f64>,
    /// `"first_fit"` or `"round_robin"`.
    pub placement: Option<String>,
    /// LC-local underload threshold override.
    pub underload_threshold: Option<f64>,
    /// Reschedule VMs lost to LC failures from snapshots (§II-E).
    pub reschedule_on_lc_failure: Option<bool>,
    /// Periodic ACO reconfiguration.
    pub reconfiguration: Option<ReconfSpec>,
    /// Heartbeat/session knob pair (the E9 ablation's two dials).
    pub knobs: Option<KnobsSpec>,
}

/// Periodic consolidation settings.
#[derive(Clone, Debug, PartialEq)]
pub struct ReconfSpec {
    /// Pass period, ms.
    pub period_ms: f64,
    /// Which consolidator plans the pass — any
    /// [`ConsolidatorRegistry`] key (`aco`, `bnb`, `daco`, `ffd`,
    /// `mo-aco`, `wfd`).
    pub algo: String,
    /// `"default"` or `"fast"` colony parameters (colony-based
    /// algorithms only; greedy ones ignore it).
    pub aco: String,
    /// ACO cycle-count override.
    pub aco_cycles: Option<i64>,
    /// Migration budget per pass.
    pub max_migrations: usize,
    /// Extra per-algorithm parameters forwarded verbatim to the registry
    /// (the `[config.reconfiguration.params]` sub-table).
    pub params: Option<BTreeMap<String, Value>>,
}

/// The two administrator dials §II-D/E healing latency hangs on. Setting
/// this derives the heartbeat period (= heartbeat), the silence timeout
/// (= 4 × heartbeat), the coordination session timeout (= session) and
/// the election ping (= session / 3).
#[derive(Clone, Debug, PartialEq)]
pub struct KnobsSpec {
    /// Coordination session timeout, ms.
    pub session_ms: f64,
    /// Heartbeat period at all levels, ms.
    pub heartbeat_ms: f64,
}

/// One workload program entry. VM ids are allocated sequentially across
/// entries in order — two bursts never collide.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// `n` identical VMs submitted together.
    Burst {
        /// VMs in the burst.
        n: usize,
        /// Submission time, ms.
        at_ms: f64,
        /// Cores per VM.
        cores: f64,
        /// Memory per VM, MB.
        memory_mb: f64,
        /// Flat utilization of every dimension.
        util: f64,
    },
    /// A randomized fleet with staggered arrivals and partial
    /// termination (the E7 workload shape).
    RandomFleet {
        /// Fleet size.
        n: usize,
        /// Dedicated RNG stream seed for the fleet's draws.
        seed: u64,
        /// Core draw range.
        cores_min: f64,
        /// Core draw range.
        cores_max: f64,
        /// Memory draw range, MB.
        mem_min_mb: f64,
        /// Memory draw range, MB.
        mem_max_mb: f64,
        /// Utilization draw range.
        util_min: f64,
        /// Utilization draw range.
        util_max: f64,
        /// Earliest arrival, ms.
        arrival_at_ms: f64,
        /// Arrivals spread uniformly over this many whole seconds (> 0).
        arrival_spread_s: usize,
        /// Every `k`-th VM (i % k == 0) terminates mid-run; 0 = none does.
        lifetime_every: usize,
        /// Lifetime draw range, whole seconds (`[min, max)`, so min < max
        /// when `lifetime_every` > 0).
        lifetime_min_s: usize,
        /// Lifetime draw range, whole seconds.
        lifetime_max_s: usize,
    },
    /// VM requests replayed from a canonical trace file (CSV or JSONL,
    /// see `snooze-trace`). Every record becomes one scheduled VM with
    /// a piecewise cpu/mem demand curve and a fixed lifetime.
    Trace {
        /// Trace file path; relative paths resolve against the repo
        /// root so checked-in scenarios work from any crate.
        path: String,
        /// Multiplier on every trace time (arrival, lifetime, curve
        /// offsets); `0.5` replays the trace twice as fast.
        time_scale: f64,
        /// Cap on VMs taken from the trace (`0` = all records).
        max_vms: usize,
        /// What to do against `max_vms`: `"truncate"` stops at the
        /// cap; `"loop"` replays the trace shifted in time until the
        /// cap is reached (requires `max_vms > 0`).
        policy: String,
    },
}

/// A statically scheduled fault (compiled to a `simcore::failure`
/// plan before the run starts — fault injection is event-scheduled, not
/// imperative kill-and-poll).
#[derive(Clone, Debug, PartialEq)]
pub struct StaticFault {
    /// When, ms.
    pub at_ms: f64,
    /// `"crash"`, `"restart"`, `"isolate"`, `"reconnect"`, `"degrade"`.
    pub kind: String,
    /// `"manager"`, `"lc"`, `"ep"` (ignored for `"degrade"`).
    pub target: String,
    /// Index into the target list (deployment order).
    pub index: usize,
    /// For crash/isolate: automatically undo after this long, ms.
    pub downtime_ms: Option<f64>,
    /// For `"degrade"`: network-wide loss, parts per million.
    pub loss_ppm: Option<u32>,
}

/// One step of the phase program.
#[derive(Clone, Debug, PartialEq)]
pub enum PhaseSpec {
    /// Advance virtual time to an absolute instant.
    RunTo {
        /// Target instant, ms.
        t_ms: f64,
    },
    /// Advance virtual time by a duration.
    RunFor {
        /// Duration, ms.
        dur_ms: f64,
    },
    /// Step in 5 s increments until the client has an answer for every
    /// VM or the deadline passes.
    Settle {
        /// Deadline, ms.
        deadline_ms: f64,
    },
    /// Advance to `t_ms`, sampling the power census every `every_ms`.
    SampleTo {
        /// Target instant, ms.
        t_ms: f64,
        /// Sample period, ms.
        every_ms: f64,
    },
    /// Resolve a target *now*, schedule a fault on it after `delay_ms`,
    /// and optionally observe the aftermath.
    Fault {
        /// Row label in reports.
        label: String,
        /// Who to hit.
        target: TargetSpec,
        /// Fault time relative to now, ms.
        delay_ms: f64,
        /// `"crash"` (the only dynamic fault kind today).
        kind: String,
        /// Post-fault observation loop.
        observe: Option<ObserveSpec>,
    },
}

/// Dynamic target selection for fault phases.
#[derive(Clone, Debug, PartialEq)]
pub enum TargetSpec {
    /// The current Group Leader.
    Gl,
    /// The i-th currently active (non-leader) GM.
    ActiveGm(usize),
    /// The LC hosting the most VMs.
    LcMostVms,
    /// The i-th LC (deployment order).
    Lc(usize),
    /// The i-th Entry Point.
    Ep(usize),
    /// The i-th manager component.
    Manager(usize),
}

/// The observation loop after a fault: walk forward in fixed steps,
/// sample application performance inside the window, and record when the
/// recovery condition first holds.
#[derive(Clone, Debug, PartialEq)]
pub struct ObserveSpec {
    /// Steps to walk.
    pub steps: u32,
    /// Step length, ms.
    pub step_ms: f64,
    /// Sample mean application performance while `step * step_ms` is
    /// within this window (0 = don't sample).
    pub perf_window_ms: f64,
    /// The "recovered-when" condition.
    pub until: Condition,
    /// Stop walking as soon as the condition holds.
    pub stop_on_success: bool,
}

/// Named recovery conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Condition {
    /// A (single) GL is elected.
    GlElected,
    /// Every alive LC is assigned to a live GM (`orphaned-lc-recovered`).
    LcsOnLiveGms,
    /// Snapshot rescheduling restored the pre-fault VM count.
    VmsRestored,
}

/// A named sample point: the runner records a system snapshot when
/// virtual time passes `at_ms`.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbeSpec {
    /// Probe name (labels the sample in outcomes and exports).
    pub name: String,
    /// When, ms.
    pub at_ms: f64,
}

// ---------------------------------------------------------------------------
// Building runtime objects
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// Whether `other` runs the same history: every field equal but
    /// `name`, `description` and `power`, which only label a run and turn
    /// its power states into watts. Such specs share one engine run
    /// ([`crate::run_group`]), each billed by its own meter.
    pub fn same_history(&self, other: &ScenarioSpec) -> bool {
        // Destructured, so a new field has to be placed on one side.
        let ScenarioSpec {
            name: _,
            description: _,
            power: _,
            seed,
            topology,
            config,
            workload,
            faults,
            phases,
            probes,
            obs,
            slos,
        } = self;
        (
            seed, topology, config, workload, faults, phases, probes, obs, slos,
        ) == (
            &other.seed,
            &other.topology,
            &other.config,
            &other.workload,
            &other.faults,
            &other.phases,
            &other.probes,
            &other.obs,
            &other.slos,
        )
    }
}

impl TopologySpec {
    /// The node list: `lcs` standard nodes, then each group, ids
    /// continuing in order, each metered under one model. `power` is the
    /// scenario's `[power]` table; absent, every node draws the hard-coded
    /// Grid'5000 linear model — exactly the pre-arena objects.
    pub fn build_nodes(&self, power: Option<&PowerSpec>) -> Result<Vec<NodeSpec>, String> {
        let mut nodes = NodeSpec::standard_cluster(self.lcs);
        if let Some(p) = power {
            if let Some(name) = &p.default {
                let model: Arc<[_]> = Arc::new([p.resolve(name)?]);
                for n in &mut nodes {
                    n.power = Arc::clone(&model);
                }
            }
        }
        for g in &self.node_groups {
            let model: Arc<dyn PowerModel> = match (&g.model, power) {
                (Some(name), Some(p)) => p.resolve(name)?,
                (Some(name), None) => {
                    return Err(format!(
                        "node group names power model `{}` but the scenario has no [power] table",
                        Excerpt(name)
                    ))
                }
                (None, _) => Arc::new(LinearPower {
                    idle_watts: g.idle_watts,
                    max_watts: g.max_watts,
                    suspend_watts: g.suspend_watts,
                }),
            };
            let model: Arc<[_]> = Arc::new([model]);
            for _ in 0..g.count {
                let id = NodeId(nodes.len());
                nodes.push(NodeSpec {
                    id,
                    capacity: ResourceVector::new(g.cores, g.memory_mb, g.net_mbps, g.net_mbps),
                    transitions: TransitionTimes::typical_server(),
                    power: Arc::clone(&model),
                });
            }
        }
        Ok(nodes)
    }
}

impl PowerSpec {
    /// Resolve a model name: `[[power.model]]` definitions first, then
    /// the built-ins.
    pub fn resolve(&self, name: &str) -> Result<Arc<dyn PowerModel>, String> {
        if let Some(def) = self.models.iter().find(|m| m.name == name) {
            return def.build();
        }
        match name {
            "grid5000" => Ok(Arc::new(LinearPower::grid5000())),
            "xeon_2011" => Ok(Arc::new(SpecLikePower::xeon_2011())),
            "grid5000_dvfs3" => Ok(Arc::new(DvfsPower::grid5000_3state())),
            other => {
                let mut names: Vec<&str> = self.models.iter().map(|m| m.name.as_str()).collect();
                names.extend(["grid5000", "xeon_2011", "grid5000_dvfs3"]);
                names.sort_unstable();
                Err(format!(
                    "unknown power model `{}`; available: {}",
                    Excerpt(other),
                    names.join(", ")
                ))
            }
        }
    }
}

impl PowerModelSpec {
    /// Materialize the model, validating kind-specific parameters.
    pub fn build(&self) -> Result<Arc<dyn PowerModel>, String> {
        self.curve()
            .map_err(|e| format!("power model `{}`: {e}", Excerpt(&self.name)))
    }

    fn curve(&self) -> Result<Arc<dyn PowerModel>, String> {
        // `params` is what `[[power.model]]` held beside name, kind and
        // transitions, so that is the table a bad key is in.
        let p = Reader::new(&self.params, "power.model");
        let base: Arc<dyn PowerModel> = match self.kind.as_str() {
            "linear" => Arc::new(LinearPower {
                idle_watts: p.f64("idle_watts")?,
                max_watts: p.f64("max_watts")?,
                suspend_watts: p.f64("suspend_watts")?,
            }),
            "spec" => {
                let points: [f64; 11] =
                    p.f64_array("points")?.try_into().map_err(|v: Vec<f64>| {
                        format!("`points` needs exactly 11 entries, got {}", v.len())
                    })?;
                Arc::new(SpecLikePower {
                    points,
                    suspend_watts: p.f64("suspend_watts")?,
                })
            }
            "dvfs" => {
                let freq = p.f64_array("freq_ghz")?;
                let idle = p.f64_array("idle_watts")?;
                let max = p.f64_array("max_watts")?;
                if freq.is_empty() || freq.len() != idle.len() || freq.len() != max.len() {
                    return Err("`freq_ghz`, `idle_watts` and `max_watts` must be \
                                non-empty arrays of equal length"
                        .into());
                }
                if freq.windows(2).any(|w| w[0] >= w[1]) {
                    return Err("`freq_ghz` must be strictly ascending".into());
                }
                Arc::new(DvfsPower {
                    states: freq
                        .into_iter()
                        .zip(idle)
                        .zip(max)
                        .map(|((freq_ghz, idle_watts), max_watts)| DvfsState {
                            freq_ghz,
                            idle_watts,
                            max_watts,
                        })
                        .collect(),
                    suspend_watts: p.f64("suspend_watts")?,
                })
            }
            other => {
                return Err(format!(
                    "unknown kind `{}` (expected `linear`, `spec` or `dvfs`)",
                    Excerpt(other)
                ))
            }
        };
        p.finish(match self.transitions.as_str() {
            "legacy" => base,
            "billed" => Arc::new(BilledTransitions { base }),
            other => {
                return Err(format!(
                    "unknown transitions `{}` (expected `legacy` or `billed`)",
                    Excerpt(other)
                ))
            }
        })
    }
}

impl ReconfSpec {
    /// Materialize the pass configuration: the consolidator comes from
    /// the [`ConsolidatorRegistry`], keyed by `algo`, fed the colony
    /// preset plus any `params` overrides.
    pub fn build(&self) -> Result<ReconfigurationConfig, String> {
        // The colony preset is validated up front even for greedy
        // algorithms that ignore it — the pre-registry strictness.
        if self.aco != "default" && self.aco != "fast" {
            return Err(format!("unknown aco preset `{}`", Excerpt(&self.aco)));
        }
        let mut params = Params::new();
        if COLONY_KEYS.contains(&self.algo.as_str()) {
            params.insert("preset".into(), ParamValue::Str(self.aco.clone()));
            if let Some(n) = self.aco_cycles {
                params.insert("n_cycles".into(), ParamValue::Int(n));
            }
        }
        if let Some(extra) = &self.params {
            params.extend(registry_params(extra, "reconfiguration")?);
        }
        let consolidator = ConsolidatorRegistry::standard()
            .build(&self.algo, &params)
            .map_err(|e| format!("reconfiguration: {e}"))?;
        Ok(ReconfigurationConfig {
            period: ms_to_span(self.period_ms),
            algo: self.algo.clone(),
            consolidator: Arc::from(consolidator),
            max_migrations: self.max_migrations,
        })
    }
}

impl ConfigSpec {
    /// A spec that applies a preset verbatim.
    pub fn preset(name: &str) -> ConfigSpec {
        ConfigSpec {
            preset: name.to_string(),
            idle_suspend_ms: None,
            suspend_watchdog_ms: None,
            placement: None,
            underload_threshold: None,
            reschedule_on_lc_failure: None,
            reconfiguration: None,
            knobs: None,
        }
    }

    /// Materialize the [`SnoozeConfig`].
    pub fn build(&self) -> Result<SnoozeConfig, String> {
        let mut c = match self.preset.as_str() {
            "default" => SnoozeConfig::default(),
            "fast_test" => SnoozeConfig::fast_test(),
            other => return Err(format!("unknown config preset `{}`", Excerpt(other))),
        };
        if let Some(k) = &self.knobs {
            let hb = ms_to_span(k.heartbeat_ms);
            let session = ms_to_span(k.session_ms);
            c.heartbeat_period = hb;
            c.silence_timeout = hb * 4;
            c.zk_session_timeout = session;
            c.election_ping_period = session / 3;
        }
        if let Some(ms) = self.idle_suspend_ms {
            c.idle_suspend_after = if ms < 0.0 { None } else { Some(ms_to_span(ms)) };
        }
        if let Some(ms) = self.suspend_watchdog_ms {
            c.suspend_watchdog = ms_to_span(ms);
        }
        if let Some(p) = &self.placement {
            c.placement = match p.as_str() {
                "first_fit" => PlacementKind::FirstFit,
                "round_robin" => PlacementKind::RoundRobin,
                other => return Err(format!("unknown placement `{}`", Excerpt(other))),
            };
        }
        if let Some(u) = self.underload_threshold {
            c.underload_threshold = u;
        }
        if let Some(r) = self.reschedule_on_lc_failure {
            c.reschedule_on_lc_failure = r;
        }
        if let Some(r) = &self.reconfiguration {
            c.reconfiguration = Some(r.build()?);
        }
        Ok(c)
    }
}

// ---------------------------------------------------------------------------
// TOML decoding
// ---------------------------------------------------------------------------

pub(crate) type Tbl = BTreeMap<String, Value>;

/// A parameter table for the consolidator registry: every value a scalar.
/// `what` names the table's owner in the error.
pub(crate) fn registry_params(table: &Tbl, what: &str) -> Result<Params, String> {
    let scalar = |(k, v): (&String, &Value)| {
        let v = match v {
            Value::Int(i) => ParamValue::Int(*i),
            Value::Float(f) => ParamValue::Float(*f),
            Value::Str(s) => ParamValue::Str(s.clone()),
            Value::Bool(b) => ParamValue::Bool(*b),
            _ => return Err(format!("{what} param `{}` must be a scalar", Excerpt(k))),
        };
        Ok((k.clone(), v))
    };
    table.iter().map(scalar).collect()
}

fn table_array<'a>(t: &'a Tbl, k: &str) -> Result<Vec<&'a Tbl>, String> {
    match t.get(k) {
        None => Ok(Vec::new()),
        Some(Value::TableArray(v)) => Ok(v.iter().collect()),
        Some(_) => Err(format!("`{k}` must be an array of tables")),
    }
}

/// `*_ms` keys something re-arms itself by — phase stepping, periodic
/// timers, the client's retry, the election ping derived from the
/// session: at zero the run never advances.
const STEPPING_MS: [&str; 7] = [
    "every_ms",
    "step_ms",
    "window_ms",
    "period_ms",
    "heartbeat_ms",
    "session_ms",
    "retry_ms",
];

/// Reject hostile durations anywhere under `t`, before they reach
/// [`ms_to_span`]'s assert or a stepping loop: every `*_ms` key must be
/// finite and >= 0 (`idle_suspend_ms` may be negative — its documented
/// "off"), and the [`STEPPING_MS`] keys > 0. `ctx` names the table, as a
/// [`Reader`] would.
fn check_durations(t: &Tbl, ctx: &str) -> Result<(), String> {
    let at = |sub: &str| match ctx {
        "scenario" => sub.to_string(),
        _ => format!("{ctx}.{sub}"),
    };
    for (k, v) in t {
        match v {
            Value::Table(sub) => check_durations(sub, &at(k))?,
            Value::TableArray(subs) => {
                for sub in subs {
                    check_durations(sub, &at(k))?;
                }
            }
            _ if k.ends_with("_ms") => {
                let Some(ms) = v.as_float() else { continue }; // the decoder names the type error
                let (in_range, want) = if STEPPING_MS.contains(&k.as_str()) {
                    (ms > 0.0, "finite and > 0")
                } else if k == "idle_suspend_ms" {
                    (true, "finite")
                } else {
                    (ms >= 0.0, "finite and >= 0")
                };
                if !(in_range && ms.is_finite()) {
                    return Err(format!("`{k}` in {ctx} must be {want}, got {ms}"));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

impl ScenarioSpec {
    /// Decode a spec from a (variant-expanded) root table.
    pub fn from_value(root: &Tbl) -> Result<ScenarioSpec, String> {
        check_durations(root, "scenario")?;
        let root = Reader::new(root, "scenario");

        let topo = root.table("topology")?;
        let node_groups = topo.tables("nodes")?.map(|g| {
            g.finish(NodeGroupSpec {
                count: g.int("count")?,
                cores: g.f64("cores")?,
                memory_mb: g.f64("memory_mb")?,
                net_mbps: g.f64("net_mbps")?,
                idle_watts: g.f64("idle_watts")?,
                max_watts: g.f64("max_watts")?,
                suspend_watts: g.f64("suspend_watts")?,
                model: g.opt_str("model")?.map(String::from),
            })
        });
        let client = topo.opt_table("client")?.map(|c| {
            c.finish(ClientSpec {
                retry_ms: c.f64("retry_ms")?,
            })
        });
        let topology = topo.finish(TopologySpec {
            managers: topo.opt_int("managers")?.unwrap_or(0),
            lcs: topo.opt_int("lcs")?.unwrap_or(0),
            node_groups: node_groups.collect::<Result<_, String>>()?,
            eps: topo.int("eps")?,
            client: client.transpose()?,
        })?;

        let config = match root.opt_table("config")? {
            None => ConfigSpec::preset("default"),
            Some(c) => {
                let reconfiguration = c.opt_table("reconfiguration")?.map(|r| {
                    r.finish(ReconfSpec {
                        period_ms: r.f64("period_ms")?,
                        algo: r.opt_str("algo")?.unwrap_or("aco").into(),
                        aco: r.opt_str("aco")?.unwrap_or("default").into(),
                        aco_cycles: r.opt_int("aco_cycles")?,
                        max_migrations: r.int("max_migrations")?,
                        params: r.opt_table("params")?.map(|p| p.rest()),
                    })
                });
                let knobs = c.opt_table("knobs")?.map(|k| {
                    k.finish(KnobsSpec {
                        session_ms: k.f64("session_ms")?,
                        heartbeat_ms: k.f64("heartbeat_ms")?,
                    })
                });
                c.finish(ConfigSpec {
                    preset: c.opt_str("preset")?.unwrap_or("default").into(),
                    idle_suspend_ms: c.opt_f64("idle_suspend_ms")?,
                    suspend_watchdog_ms: c.opt_f64("suspend_watchdog_ms")?,
                    placement: c.opt_str("placement")?.map(String::from),
                    underload_threshold: c.opt_f64("underload_threshold")?,
                    reschedule_on_lc_failure: c.opt_bool("reschedule_on_lc_failure")?,
                    reconfiguration: reconfiguration.transpose()?,
                    knobs: knobs.transpose()?,
                })?
            }
        };

        let workload = root.tables("workload")?.map(decode_workload);
        let phases = root.tables("phase")?.map(decode_phase);
        let faults = root.tables("fault")?.map(|f| {
            f.finish(StaticFault {
                at_ms: f.f64("at_ms")?,
                kind: f.str("kind")?.into(),
                target: f.opt_str("target")?.unwrap_or("lc").into(),
                index: f.opt_int("index")?.unwrap_or(0),
                downtime_ms: f.opt_f64("downtime_ms")?,
                loss_ppm: f.opt_int("loss_ppm")?,
            })
        });
        let probes = root.tables("probe")?.map(|p| {
            p.finish(ProbeSpec {
                name: p.str("name")?.into(),
                at_ms: p.f64("at_ms")?,
            })
        });
        let obs = root.opt_table("obs")?.map(|o| {
            o.finish(ObsSpec {
                window_ms: o.f64("window_ms")?,
                ring: o.opt_int("ring")?.unwrap_or(256).max(1),
                profile: o.opt_bool("profile")?.unwrap_or(true),
                force_incident_at_ms: o.opt_f64("force_incident_at_ms")?,
            })
        });
        let slos = root.tables("slo")?.map(|s| {
            s.finish(SloSpec {
                name: s.str("name")?.into(),
                signal: SloSignal::parse(s.str("signal")?)?,
                max: s.f64("max")?,
            })
        });
        let power = root.opt_table("power")?.map(|p| {
            let models = p.tables("model")?.map(|m| {
                Ok(PowerModelSpec {
                    name: m.str("name")?.into(),
                    kind: m.str("kind")?.into(),
                    transitions: m.opt_str("transitions")?.unwrap_or("legacy").into(),
                    params: m.rest(), // `PowerModelSpec::build` reads these
                })
            });
            p.finish(PowerSpec {
                default: p.opt_str("default")?.map(String::from),
                models: models.collect::<Result<_, String>>()?,
            })
        });

        let spec = root.finish(ScenarioSpec {
            name: root.str("name")?.into(),
            description: root.opt_str("description")?.unwrap_or("").into(),
            seed: root.int("seed")?,
            topology,
            config,
            workload: workload.collect::<Result<_, String>>()?,
            faults: faults.collect::<Result<_, String>>()?,
            phases: phases.collect::<Result<_, String>>()?,
            probes: probes.collect::<Result<_, String>>()?,
            obs: obs.transpose()?,
            slos: slos.collect::<Result<_, String>>()?,
            power: power.transpose()?,
        })?;
        if !spec.slos.is_empty() && spec.obs.is_none() {
            return Err("`[[slo]]` watchdogs require an `[obs]` table".into());
        }
        Ok(spec)
    }

    /// Parse a single-run scenario (no variants) from TOML.
    pub fn from_toml(s: &str) -> Result<ScenarioSpec, String> {
        ScenarioSpec::from_value(&toml::parse(s)?)
    }
}

fn decode_workload(w: Reader<'_>) -> Result<WorkloadSpec, String> {
    w.finish(match w.str("kind")? {
        "burst" => WorkloadSpec::Burst {
            n: w.int("n")?,
            at_ms: w.f64("at_ms")?,
            cores: w.f64("cores")?,
            memory_mb: w.f64("memory_mb")?,
            util: w.f64("util")?,
        },
        "random_fleet" => {
            // Each pair is a draw range: `min` above `max` (or a NaN) has
            // no draw to make.
            let range = |min: &str, max: &str| {
                let (lo, hi) = (w.f64(min)?, w.f64(max)?);
                match lo <= hi {
                    true => Ok((lo, hi)),
                    false => Err(w.invalid(min, format_args!("<= `{max}` ({hi}), got {lo}"))),
                }
            };
            let (cores_min, cores_max) = range("cores_min", "cores_max")?;
            let (mem_min_mb, mem_max_mb) = range("mem_min_mb", "mem_max_mb")?;
            let (util_min, util_max) = range("util_min", "util_max")?;
            let arrival_spread_s = w.int("arrival_spread_s")?;
            if arrival_spread_s == 0 {
                return Err(w.invalid("arrival_spread_s", "a positive integer"));
            }
            let lifetime_every = w.int("lifetime_every")?;
            let (lo, hi) = (w.int("lifetime_min_s")?, w.int("lifetime_max_s")?);
            if lifetime_every > 0 && lo >= hi {
                let want =
                    format_args!("< `lifetime_max_s` ({hi}) when `lifetime_every` > 0, got {lo}");
                return Err(w.invalid("lifetime_min_s", want));
            }
            WorkloadSpec::RandomFleet {
                n: w.int("n")?,
                seed: w.int("seed")?,
                cores_min,
                cores_max,
                mem_min_mb,
                mem_max_mb,
                util_min,
                util_max,
                arrival_at_ms: w.f64("arrival_at_ms")?,
                arrival_spread_s,
                lifetime_every,
                lifetime_min_s: lo,
                lifetime_max_s: hi,
            }
        }
        "trace" => {
            let time_scale = w.opt_f64("time_scale")?.unwrap_or(1.0);
            if !(time_scale.is_finite() && time_scale > 0.0) {
                return Err("trace `time_scale` must be a positive number".into());
            }
            let max_vms = w.opt_int("max_vms")?.unwrap_or(0);
            let policy = w.opt_str("policy")?.unwrap_or("truncate");
            match policy {
                "truncate" => {}
                "loop" if max_vms > 0 => {}
                "loop" => return Err("trace policy `loop` requires `max_vms` > 0".into()),
                other => {
                    return Err(format!(
                        "unknown trace policy `{}` (expected `truncate` or `loop`)",
                        Excerpt(other)
                    ))
                }
            }
            WorkloadSpec::Trace {
                path: w.str("path")?.into(),
                time_scale,
                max_vms,
                policy: policy.into(),
            }
        }
        other => return Err(format!("unknown workload kind `{}`", Excerpt(other))),
    })
}

fn decode_phase(p: Reader<'_>) -> Result<PhaseSpec, String> {
    p.finish(match p.str("kind")? {
        "run_to" => PhaseSpec::RunTo {
            t_ms: p.f64("t_ms")?,
        },
        "run_for" => PhaseSpec::RunFor {
            dur_ms: p.f64("dur_ms")?,
        },
        "settle" => PhaseSpec::Settle {
            deadline_ms: p.f64("deadline_ms")?,
        },
        "sample_to" => PhaseSpec::SampleTo {
            t_ms: p.f64("t_ms")?,
            every_ms: p.f64("every_ms")?,
        },
        "fault" => {
            let index = p.opt_int("index")?.unwrap_or(0);
            let target = match p.str("target")? {
                "gl" => TargetSpec::Gl,
                "active_gm" => TargetSpec::ActiveGm(index),
                "lc_most_vms" => TargetSpec::LcMostVms,
                "lc" => TargetSpec::Lc(index),
                "ep" => TargetSpec::Ep(index),
                "manager" => TargetSpec::Manager(index),
                other => return Err(format!("unknown fault target `{}`", Excerpt(other))),
            };
            let observe = p.opt_table("observe")?.map(|o| {
                let until = match o.str("until")? {
                    "gl_elected" => Condition::GlElected,
                    "lcs_on_live_gms" => Condition::LcsOnLiveGms,
                    "vms_restored" => Condition::VmsRestored,
                    other => return Err(format!("unknown condition `{}`", Excerpt(other))),
                };
                o.finish(ObserveSpec {
                    steps: o.int("steps")?,
                    step_ms: o.f64("step_ms")?,
                    perf_window_ms: o.opt_f64("perf_window_ms")?.unwrap_or(0.0),
                    until,
                    stop_on_success: o.opt_bool("stop_on_success")?.unwrap_or(false),
                })
            });
            PhaseSpec::Fault {
                label: p.opt_str("label")?.unwrap_or("fault").into(),
                target,
                delay_ms: p.opt_f64("delay_ms")?.unwrap_or(0.0),
                kind: p.opt_str("fault")?.unwrap_or("crash").into(),
                observe: observe.transpose()?,
            }
        }
        other => return Err(format!("unknown phase kind `{}`", Excerpt(other))),
    })
}

// ---------------------------------------------------------------------------
// Scenario documents: base + [[sweep]] + [[variant]] + [override.*]
// ---------------------------------------------------------------------------

/// Most runs one document's `[[sweep]]` blocks may cross to: a constant,
/// so a hostile cross-product is an error before anything is allocated.
const MAX_RUNS: usize = 4096;

/// A scenario file: a base table, its generators (`[[sweep]]`,
/// `[[variant]]`, `{placeholders}`) and its `[override.<profile>]` shapes —
/// the module docs give the grammar. A document's runs are its sweep's
/// runs followed by its `[[variant]]`s; with neither, the base runs once.
///
/// **The one array rule of `[override.*]`** (and of [`ScenarioDoc::patch`]):
/// an array of tables named in an override *replaces* the base's — a
/// smoke shape can drop fault phases or swap the whole sweep, which
/// merging by index cannot express — and everything else deep-merges.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioDoc {
    root: Tbl,
}

impl ScenarioDoc {
    /// Parse a document.
    pub fn parse(input: &str) -> Result<ScenarioDoc, String> {
        Ok(ScenarioDoc {
            root: toml::parse(input)?,
        })
    }

    /// Canonical TOML.
    pub fn to_toml(&self) -> String {
        toml::render(&self.root)
    }

    /// This document with `patch` (TOML text) applied under the override
    /// rule: arrays of tables replace, everything else deep-merges.
    // audit-allow(uncalled): how a test reshapes a checked-in document
    // (a smaller sweep, another seed); runs take theirs from the file.
    pub fn patch(&self, patch: &str) -> Result<ScenarioDoc, String> {
        let mut doc = self.clone();
        override_merge(&mut doc.root, &toml::parse(patch)?);
        Ok(doc)
    }

    /// The names of this document's `[override.*]` profiles.
    pub fn profiles(&self) -> Vec<&str> {
        let overrides = self.root.get("override").and_then(Value::as_table);
        overrides.map_or_else(Vec::new, |t| t.keys().map(String::as_str).collect())
    }

    /// The document at the shape `[override.<name>]` describes.
    pub fn profile(&self, name: &str) -> Result<ScenarioDoc, String> {
        let shape = self.root.get("override");
        let shape = shape.and_then(|o| o.as_table()?.get(name)?.as_table());
        let absent = || format!("no `[override.{name}]` table (found {:?})", self.profiles());
        let mut doc = self.clone();
        doc.root.remove("override");
        override_merge(&mut doc.root, shape.ok_or_else(absent)?);
        Ok(doc)
    }

    /// Expand into the concrete runs of a simulated scenario, in document
    /// order. An error names the run it came from: its index and, once it
    /// has one, its `name`.
    pub fn expand(&self) -> Result<Vec<ScenarioSpec>, String> {
        self.expand_as(ScenarioSpec::from_value, |spec| &spec.name)
    }

    /// Expand into the concrete runs of either kind: a document whose base
    /// has a `[pack]` table is a pack document ([`crate::pack`]), every
    /// other one a simulated scenario. The expansion is [`Self::expand`]'s.
    pub fn runs(&self) -> Result<Vec<RunSpec>, String> {
        if self.root.contains_key("pack") {
            let packs = self.expand_as(PackSpec::from_value, |spec| &spec.name)?;
            return Ok(packs.into_iter().map(RunSpec::Pack).collect());
        }
        let sims = self.expand()?.into_iter();
        Ok(sims.map(|spec| RunSpec::Sim(Box::new(spec))).collect())
    }

    /// Expand, decoding every merged run with `decode`; `name` reads a
    /// decoded run's name for the distinct-names check.
    fn expand_as<T>(
        &self,
        decode: fn(&Tbl) -> Result<T, String>,
        name: fn(&T) -> &String,
    ) -> Result<Vec<T>, String> {
        let sweep = table_array(&self.root, "sweep")?;
        let variants = table_array(&self.root, "variant")?;
        if !matches!(self.root.get("override"), None | Some(Value::Table(_))) {
            return Err("`override` must be a table of profiles".into());
        }
        let mut base = self.root.clone();
        base.retain(|k, _| !["sweep", "variant", "override"].contains(&k.as_str()));
        let lens = sweep.iter().copied().map(sweep_len);
        let lens = lens.collect::<Result<Vec<usize>, _>>()?;
        let crossed = |n: usize, len: &usize| n.checked_mul(*len).filter(|&n| n <= MAX_RUNS);
        let too_many = || format!("`[[sweep]]` blocks {lens:?} cross to over {MAX_RUNS} runs");
        let swept = lens.iter().try_fold(1, crossed).ok_or_else(too_many)?;
        let swept = if sweep.is_empty() { 0 } else { swept };

        let (mut specs, mut names) = (Vec::new(), BTreeMap::new());
        for run in 0..(swept + variants.len()).max(1) {
            let mut doc = base.clone();
            if run < swept {
                let mut stride = swept;
                for (block, len) in sweep.iter().zip(&lens) {
                    stride /= len;
                    toml::deep_merge(&mut doc, &sweep_pick(block, run / stride % len));
                }
            } else if let Some(patch) = variants.get(run - swept) {
                toml::deep_merge(&mut doc, patch);
            }
            let decoded = fill_placeholders(&mut doc);
            let decoded = decoded.and_then(|()| decode(&doc));
            let spec = decoded.map_err(|e| match doc.get("name").and_then(Value::as_str) {
                Some(name) => format!("run {run} (`{}`): {e}", Excerpt(name)),
                None => format!("run {run}: {e}"),
            })?;
            if let Some(first) = names.insert(name(&spec).clone(), run) {
                let name = Excerpt(name(&spec));
                let clash = format!("runs {first} and {run} are both named `{name}`");
                return Err(clash + ": tell them apart with a `{placeholder}` in `name`");
            }
            specs.push(spec);
        }
        Ok(specs)
    }

    /// The base scenario name (before patches and placeholders).
    pub fn name(&self) -> Option<&str> {
        self.root.get("name").and_then(|v| v.as_str())
    }

    /// The base description.
    pub fn description(&self) -> Option<&str> {
        self.root.get("description").and_then(|v| v.as_str())
    }

    /// Number of runs — by expanding, so no inventory disagrees with a run.
    pub fn run_count(&self) -> Result<usize, String> {
        self.runs().map(|runs| runs.len())
    }
}

/// One run of a document, of either kind.
#[derive(Clone, Debug, PartialEq)]
pub enum RunSpec {
    /// A simulated hierarchy (boxed: a spec is most of a kilobyte).
    Sim(Box<ScenarioSpec>),
    /// Consolidators on generated instances.
    Pack(PackSpec),
}

impl RunSpec {
    /// The run's name.
    pub fn name(&self) -> &str {
        match self {
            RunSpec::Sim(spec) => &spec.name,
            RunSpec::Pack(spec) => &spec.name,
        }
    }
}

/// The override rule: tables merge recursively, everything else —
/// arrays of tables included — replaces.
fn override_merge(base: &mut Tbl, patch: &Tbl) {
    for (k, pv) in patch {
        match (base.get_mut(k), pv) {
            (Some(Value::Table(b)), Value::Table(p)) => override_merge(b, p),
            _ => drop(base.insert(k.clone(), pv.clone())),
        }
    }
}

/// How many runs one `[[sweep]]` block generates: the common length of
/// its leaves, which are all arrays.
fn sweep_len(block: &Tbl) -> Result<usize, String> {
    fn leaves(t: &Tbl, ctx: &str, out: &mut Vec<(String, usize)>) -> Result<(), String> {
        for (k, v) in t {
            let at = format!("{ctx}.{k}");
            match v {
                Value::Table(sub) => leaves(sub, &at, out)?,
                Value::TableArray(subs) => subs.iter().try_for_each(|sub| leaves(sub, &at, out))?,
                Value::Array(items) => out.push((at, items.len())),
                _ => return Err(format!("`{at}` must be an array, one element per run")),
            }
        }
        Ok(())
    }
    let mut found = Vec::new();
    leaves(block, "sweep", &mut found)?;
    let Some((first, len)) = found.first() else {
        return Err("a `[[sweep]]` block names no key to sweep".into());
    };
    match found.iter().find(|(_, n)| n != len) {
        _ if *len == 0 => Err(format!("`{first}` is empty: one element per run")),
        Some((key, n)) => Err(format!(
            "`{key}` has {n} element(s), `{first}` has {len}: one block's leaves are zipped"
        )),
        None => Ok(*len),
    }
}

/// Run `i` of a sweep block: every leaf array replaced by its `i`-th
/// element ([`sweep_len`] has checked that it exists).
fn sweep_pick(block: &Tbl, i: usize) -> Tbl {
    let pick = |v: &Value| match v {
        Value::Table(sub) => Value::Table(sweep_pick(sub, i)),
        Value::TableArray(subs) => {
            Value::TableArray(subs.iter().map(|s| sweep_pick(s, i)).collect())
        }
        Value::Array(items) => items[i].clone(),
        fixed => fixed.clone(),
    };
    block.iter().map(|(k, v)| (k.clone(), pick(v))).collect()
}

/// Fill every `{dotted.path}` in the run's `name` and `description` from
/// the run's own merged document.
fn fill_placeholders(doc: &mut Tbl) -> Result<(), String> {
    for key in ["name", "description"] {
        let Some(Value::Str(text)) = doc.get(key) else {
            continue; // the decoder names a missing or mistyped key
        };
        let (mut filled, mut rest) = (String::new(), text.as_str());
        while let Some((before, after)) = rest.split_once('{') {
            let unclosed = || format!("unclosed `{{` in `{key}` = \"{}\"", Excerpt(text));
            let (path, tail) = after.split_once('}').ok_or_else(unclosed)?;
            filled = filled + before + &placeholder(doc, path)?;
            rest = tail;
        }
        filled.push_str(rest);
        doc.insert(key.into(), Value::Str(filled));
    }
    Ok(())
}

/// The string or number at `path` — keys, and indices into arrays of
/// tables — as placeholder text.
fn placeholder(doc: &Tbl, path: &str) -> Result<String, String> {
    let bad = |what: String| format!("placeholder `{{{}}}` {what}", Excerpt(path));
    let a_table = || bad("names a table, not a value".into());
    let (mut table, mut segs) = (doc, path.split('.'));
    loop {
        let seg = segs.next().ok_or_else(a_table)?;
        table = match (table.get(seg), segs.clone().next()) {
            (None, _) => return Err(bad(format!("names a missing key `{}`", Excerpt(seg)))),
            (Some(Value::Table(sub)), _) => sub,
            (Some(Value::TableArray(subs)), _) => {
                let index = segs.next().ok_or_else(a_table)?;
                let element = index.parse().ok().and_then(|i: usize| subs.get(i));
                let (n, index) = (subs.len(), Excerpt(index));
                let past = || format!("indexes `{seg}` ({n} long) with `{index}`");
                element.ok_or_else(|| bad(past()))?
            }
            (Some(_), Some(more)) => {
                return Err(bad(format!(
                    "looks for `{}` in value `{seg}`",
                    Excerpt(more)
                )))
            }
            (Some(Value::Str(s)), None) => return Ok(s.clone()),
            (Some(Value::Int(i)), None) => return Ok(i.to_string()),
            (Some(Value::Float(f)), None) => return Ok(f.to_string()),
            (Some(_), None) => return Err(bad("names neither a string nor a number".into())),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "demo".into(),
            description: "a demo".into(),
            seed: 7,
            topology: TopologySpec {
                managers: 3,
                lcs: 8,
                node_groups: vec![NodeGroupSpec {
                    count: 2,
                    cores: 16.0,
                    memory_mb: 65536.0,
                    net_mbps: 1000.0,
                    idle_watts: 200.0,
                    max_watts: 320.0,
                    suspend_watts: 6.0,
                    model: None,
                }],
                eps: 1,
                client: Some(ClientSpec { retry_ms: 15000.0 }),
            },
            config: ConfigSpec {
                idle_suspend_ms: Some(-1.0),
                ..ConfigSpec::preset("default")
            },
            workload: vec![
                WorkloadSpec::Burst {
                    n: 4,
                    at_ms: 30000.0,
                    cores: 2.0,
                    memory_mb: 4096.0,
                    util: 0.5,
                },
                WorkloadSpec::Burst {
                    n: 2,
                    at_ms: 60000.0,
                    cores: 1.0,
                    memory_mb: 2048.0,
                    util: 0.25,
                },
            ],
            faults: vec![StaticFault {
                at_ms: 90000.0,
                kind: "crash".into(),
                target: "lc".into(),
                index: 1,
                downtime_ms: Some(30000.0),
                loss_ppm: None,
            }],
            phases: vec![
                PhaseSpec::Settle {
                    deadline_ms: 300000.0,
                },
                PhaseSpec::Fault {
                    label: "GL crash".into(),
                    target: TargetSpec::Gl,
                    delay_ms: 10000.0,
                    kind: "crash".into(),
                    observe: Some(ObserveSpec {
                        steps: 90,
                        step_ms: 2000.0,
                        perf_window_ms: 60000.0,
                        until: Condition::GlElected,
                        stop_on_success: false,
                    }),
                },
            ],
            probes: vec![ProbeSpec {
                name: "mid".into(),
                at_ms: 150000.0,
            }],
            obs: None,
            slos: vec![],
            power: None,
        }
    }

    /// [`demo_spec`] as a scenario file.
    const DEMO: &str = r#"description = "a demo"
name = "demo"
seed = 7

[config]
idle_suspend_ms = -1.0
preset = "default"

[topology]
eps = 1
lcs = 8
managers = 3

[topology.client]
retry_ms = 15000.0

[[topology.nodes]]
cores = 16.0
count = 2
idle_watts = 200.0
max_watts = 320.0
memory_mb = 65536.0
net_mbps = 1000.0
suspend_watts = 6.0

[[fault]]
at_ms = 90000.0
downtime_ms = 30000.0
index = 1
kind = "crash"
target = "lc"

[[phase]]
deadline_ms = 300000.0
kind = "settle"

[[phase]]
delay_ms = 10000.0
fault = "crash"
kind = "fault"
label = "GL crash"
target = "gl"

[phase.observe]
perf_window_ms = 60000.0
step_ms = 2000.0
steps = 90
stop_on_success = false
until = "gl_elected"

[[probe]]
at_ms = 150000.0
name = "mid"

[[workload]]
at_ms = 30000.0
cores = 2.0
kind = "burst"
memory_mb = 4096.0
n = 4
util = 0.5

[[workload]]
at_ms = 60000.0
cores = 1.0
kind = "burst"
memory_mb = 2048.0
n = 2
util = 0.25
"#;

    #[test]
    fn spec_toml_round_trip_is_identity() {
        // The file is canonical and decodes to the spec; specs themselves
        // are decoded only.
        assert_eq!(ScenarioDoc::parse(DEMO).unwrap().to_toml(), DEMO);
        assert_eq!(ScenarioSpec::from_toml(DEMO), Ok(demo_spec()));
    }

    #[test]
    fn engine_table_is_an_unknown_key() {
        // The `[engine]` table went with the sharded executor; a stale
        // document must fail loudly, naming the key.
        let text = format!("{DEMO}\n[engine]\nshards = 4\n");
        let err = ScenarioSpec::from_toml(&text).unwrap_err();
        assert!(
            err.contains("unknown") && err.contains("`engine`"),
            "got: {err}"
        );
    }

    /// The demo file with `tail` appended (array-of-tables headers reopen
    /// the root, so generators can follow the base).
    fn demo_doc(tail: &str) -> ScenarioDoc {
        ScenarioDoc::parse(&format!("{DEMO}\n{tail}")).unwrap()
    }

    /// The one run of the demo file with `tail` appended.
    fn demo_run(tail: &str) -> Result<ScenarioSpec, String> {
        Ok(demo_doc(tail).expand()?.remove(0))
    }

    #[test]
    fn doc_with_variants_expands_to_patched_specs() {
        let doc = demo_doc(
            "[[variant]]\nname = \"demo-big\"\nseed = 9\n[[variant.workload]]\nn = 16\n\
             [[variant]]\nname = \"demo-suspend\"\n[variant.config]\nidle_suspend_ms = 60000.0\n",
        );
        let (mut big, mut suspend) = (demo_spec(), demo_spec());
        (big.name, big.seed) = ("demo-big".into(), 9);
        if let WorkloadSpec::Burst { n, .. } = &mut big.workload[0] {
            *n = 16; // arrays of tables merge by index: the second burst stays
        }
        suspend.name = "demo-suspend".into();
        suspend.config.idle_suspend_ms = Some(60000.0);
        let reparsed = ScenarioDoc::parse(&doc.to_toml()).unwrap();
        assert_eq!(reparsed, doc, "round-trip");
        assert_eq!(doc.expand().unwrap(), [big, suspend]);
    }

    #[test]
    fn sweep_blocks_zip_their_leaves_and_cross_first_slowest() {
        let doc = demo_doc(
            "[[sweep]]\nname = [\"a-{workload.1.n}-{topology.client.retry_ms}\", \"b-{workload.1.n}\"]\n\
             seed = [1, 2]\n\
             [[sweep]]\n[[sweep.workload]]\n[[sweep.workload]]\nn = [10, 20, 30]\n\
             [[variant]]\nname = \"by-hand\"\n",
        );
        let runs = doc.expand().unwrap();
        let names: Vec<&str> = runs.iter().map(|s| s.name.as_str()).collect();
        let zipped_then_crossed = [
            "a-10-15000",
            "a-20-15000",
            "a-30-15000",
            "b-10",
            "b-20",
            "b-30",
        ];
        assert_eq!(
            (&names[..6], names[6]),
            (&zipped_then_crossed[..], "by-hand")
        );
        let seeds: Vec<u64> = runs.iter().map(|s| s.seed).collect();
        assert_eq!(seeds, [1, 1, 1, 2, 2, 2, 7], "variants follow the sweep");
        assert_eq!(runs[4].workload[0], demo_spec().workload[0], "by index");
        assert_eq!(doc.run_count(), Ok(7));
        let reparsed = ScenarioDoc::parse(&doc.to_toml()).unwrap();
        assert_eq!(reparsed, doc, "round-trip");
    }

    #[test]
    fn an_override_replaces_arrays_of_tables_and_merges_everything_else() {
        let doc = demo_doc(
            "[override.small]\nseed = 9\n[override.small.topology]\nlcs = 4\n\
             [[override.small.phase]]\ndeadline_ms = 1000.0\nkind = \"settle\"\n",
        );
        assert_eq!(doc.expand().unwrap(), [demo_spec()], "profiles are opt-in");
        assert_eq!(doc.profiles(), ["small"]);
        let small = doc.profile("small").unwrap();
        assert!(small.profiles().is_empty(), "no profiles of profiles");
        let run = &small.expand().unwrap()[0];
        // Tables merge key by key …
        let topology = &run.topology;
        assert_eq!((run.seed, topology.lcs, topology.managers), (9, 4, 3));
        // … the named array of tables is replaced outright (merged by index
        // the GL-crash phase would survive), the others are untouched.
        let deadline_ms = 1000.0;
        assert_eq!(run.phases, [PhaseSpec::Settle { deadline_ms }]);
        assert_eq!(run.workload, demo_spec().workload);
        // A patch is the same rule applied to text.
        let patched = doc.patch("[[workload]]\nkind = \"burst\"\n").unwrap();
        assert!(patched.expand().unwrap_err().contains("missing key `n`"));
        let err = doc.profile("smoke").unwrap_err();
        assert!(err.contains("no `[override.smoke]`") && err.contains("small"));
    }

    #[test]
    fn hostile_sweeps_are_expansion_errors() {
        let named = |name: &str| format!("[[variant]]\n[[variant]]\nname = \"{name}\"\n");
        let many = |blocks: usize| "[[sweep]]\nseed = [1, 2]\n".repeat(blocks);
        // (appended to the demo document, what the error must name)
        let cases = [
            (
                "[[sweep]]\nseed = [1, 2]\n[sweep.topology]\nlcs = [1, 2, 3]\n".into(),
                "`sweep.topology.lcs` has 3 element(s), `sweep.seed` has 2",
            ),
            ("[[sweep]]\nseed = []\n".into(), "`sweep.seed` is empty"),
            (
                "[[sweep]]\nseed = 3\n".into(),
                "`sweep.seed` must be an array",
            ),
            (
                "[[sweep]]\n[[sweep.workload]]\nn = 3\n".into(),
                "`sweep.workload.n` must be an array",
            ),
            ("[[sweep]]\n".into(), "names no key to sweep"),
            (many(13), "cross to over 4096 runs"), // 2^13
            (many(70), "cross to over 4096 runs"), // 2^70: no overflow either
            (
                "[[sweep]]\nseed = [1, 2]\n".into(),
                "runs 0 and 1 are both named `demo`",
            ),
            (
                named("x-{seed"),
                "run 1 (`x-{seed`): unclosed `{` in `name`",
            ),
            (named("{topology}"), "`{topology}` names a table"),
            (named("{workload.1}"), "`{workload.1}` names a table"),
            (
                named("{topology.racks}"),
                "`{topology.racks}` names a missing key `racks`",
            ),
            (
                named("{workload.2.n}"),
                "indexes `workload` (2 long) with `2`",
            ),
            (
                named("{workload.last.n}"),
                "indexes `workload` (2 long) with `last`",
            ),
            (named("{seed.hex}"), "looks for `hex` in value `seed`"),
            (
                named("slow\"\n[[variant.probe]]\nat_ms = -1.0\nname = \"p"),
                "run 1 (`slow`): `at_ms` in probe must be",
            ),
        ];
        for (tail, want) in cases {
            let err = demo_doc(&tail).expand().unwrap_err();
            assert!(err.contains(want), "{tail:?}: {err}");
        }
    }

    #[test]
    fn run_count_is_the_expansion() {
        // A generator of the wrong type used to count as one run while
        // `expand` rejected it: `--list-scenarios` against `--scenario`.
        for key in ["sweep", "variant", "override"] {
            let text = format!("{key} = 3\n{DEMO}");
            let doc = ScenarioDoc::parse(&text).unwrap();
            let err = doc.expand().unwrap_err();
            assert!(err.contains(&format!("`{key}` must be")), "{err}");
            assert_eq!(doc.run_count(), Err(err));
        }
        assert_eq!(demo_doc("").run_count(), Ok(1));
    }

    #[test]
    fn unknown_reconfiguration_algo_lists_registry_keys() {
        // Deleted keys are errors like any unknown one.
        for algo in ["simulated-annealing", "aco-pso", "nfd"] {
            let cs = ConfigSpec {
                reconfiguration: Some(ReconfSpec {
                    period_ms: 60000.0,
                    algo: algo.into(),
                    aco: "default".into(),
                    aco_cycles: None,
                    max_migrations: 8,
                    params: None,
                }),
                ..ConfigSpec::preset("default")
            };
            let err = cs.build().unwrap_err();
            assert!(err.contains(&format!("`{algo}`")), "{err}");
            assert!(
                err.ends_with("available: aco, bnb, daco, ffd, mo-aco, wfd"),
                "{err}"
            );
        }
    }

    #[test]
    fn every_registry_algo_is_selectable_from_toml() {
        for key in snooze_consolidation::registry::REGISTRY_KEYS {
            let cs = ConfigSpec {
                reconfiguration: Some(ReconfSpec {
                    period_ms: 60000.0,
                    algo: key.to_string(),
                    aco: "fast".into(),
                    aco_cycles: Some(4),
                    max_migrations: 8,
                    params: None,
                }),
                ..ConfigSpec::preset("default")
            };
            let c = cs.build().unwrap_or_else(|e| panic!("{key}: {e}"));
            let rc = c.reconfiguration.expect(key);
            assert_eq!(rc.algo, *key);
        }
    }

    #[test]
    fn reconfiguration_params_round_trip_and_reach_the_registry() {
        let mut spec = demo_spec();
        let mut params = BTreeMap::new();
        params.insert("sort".to_string(), Value::Str("cpu".into()));
        spec.config.reconfiguration = Some(ReconfSpec {
            period_ms: 60000.0,
            algo: "ffd".into(),
            aco: "default".into(),
            aco_cycles: None,
            max_migrations: 8,
            params: Some(params),
        });
        let back = demo_run(
            "[config.reconfiguration]\nalgo = \"ffd\"\nmax_migrations = 8\nperiod_ms = 60000.0\n\
             [config.reconfiguration.params]\nsort = \"cpu\"\n",
        );
        assert_eq!(back, Ok(spec.clone()));
        spec.config.build().unwrap();

        // A bogus parameter is rejected at build time with the algo name.
        let mut bad = spec.clone();
        if let Some(r) = &mut bad.config.reconfiguration {
            r.params
                .as_mut()
                .unwrap()
                .insert("ants".into(), Value::Int(3));
        }
        let err = bad.config.build().unwrap_err();
        assert!(err.contains("unknown parameter `ants`"), "{err}");
    }

    #[test]
    fn power_table_round_trips_and_builds_models() {
        let mut spec = demo_spec();
        let mut dvfs = BTreeMap::new();
        dvfs.insert(
            "freq_ghz".to_string(),
            Value::Array(vec![Value::Float(1.2), Value::Float(2.4)]),
        );
        dvfs.insert(
            "idle_watts".to_string(),
            Value::Array(vec![Value::Float(118.0), Value::Float(160.0)]),
        );
        dvfs.insert(
            "max_watts".to_string(),
            Value::Array(vec![Value::Float(162.0), Value::Float(250.0)]),
        );
        dvfs.insert("suspend_watts".to_string(), Value::Float(5.0));
        spec.power = Some(PowerSpec {
            default: Some("slowstep".into()),
            models: vec![PowerModelSpec {
                name: "slowstep".into(),
                kind: "dvfs".into(),
                transitions: "billed".into(),
                params: dvfs,
            }],
        });
        spec.topology.node_groups[0].model = Some("xeon_2011".into());

        let text = DEMO.replace(
            "net_mbps = 1000.0\n",
            "net_mbps = 1000.0\nmodel = \"xeon_2011\"\n",
        ) + "[power]\ndefault = \"slowstep\"\n[[power.model]]\nname = \"slowstep\"\n\
               kind = \"dvfs\"\ntransitions = \"billed\"\nfreq_ghz = [1.2, 2.4]\n\
               idle_watts = [118.0, 160.0]\nmax_watts = [162.0, 250.0]\nsuspend_watts = 5.0\n";
        let back = ScenarioSpec::from_toml(&text).unwrap();
        assert_eq!(back, spec);

        let nodes = back.topology.build_nodes(back.power.as_ref()).unwrap();
        assert_eq!(nodes.len(), 8 + 2);
        // The default model resumes at the billed (peak) wattage, the
        // legacy linear model would bill idle.
        let own = |n: usize| &nodes[n].power[0];
        assert_eq!(nodes[0].power.len(), 1, "one metered model per node");
        assert!(own(0).resuming_watts() > own(0).active_watts(0.0));
        // The group picked the built-in SPEC-like curve.
        let xeon = SpecLikePower::xeon_2011();
        assert_eq!(own(9).active_watts(1.0), xeon.active_watts(1.0));

        // Unknown names are spec errors listing what exists.
        let err = back
            .power
            .as_ref()
            .unwrap()
            .resolve("warp-drive")
            .err()
            .expect("unknown model must fail");
        assert!(err.contains("warp-drive"), "{err}");
        assert!(err.contains("slowstep"), "{err}");
        assert!(err.contains("grid5000_dvfs3"), "{err}");

        // A model's curve parameters are read when it is built: a stray or
        // mistyped one names the model and the table the key sits in.
        let model = |edit: fn(&mut BTreeMap<String, Value>)| {
            let mut model = back.power.as_ref().unwrap().models[0].clone();
            edit(&mut model.params);
            model.build().err().expect("must fail")
        };
        assert_eq!(
            model(|p| drop(p.insert("turbo".into(), Value::Bool(true)))),
            "power model `slowstep`: unknown key `turbo` in power.model"
        );
        assert_eq!(
            model(|p| drop(p.insert("freq_ghz".into(), Value::Float(2.4)))),
            "power model `slowstep`: `freq_ghz` in power.model must be an array of numbers"
        );
        assert_eq!(
            model(|p| drop(p.remove("suspend_watts"))),
            "power model `slowstep`: missing key `suspend_watts` in power.model"
        );

        // Absent [power], a named group model is an error.
        let mut orphan = demo_spec();
        orphan.topology.node_groups[0].model = Some("slowstep".into());
        let err = orphan.topology.build_nodes(None).unwrap_err();
        assert!(err.contains("no [power] table"), "{err}");
    }

    #[test]
    fn knobs_derive_the_e9_config() {
        let cs = ConfigSpec {
            idle_suspend_ms: Some(-1.0),
            knobs: Some(KnobsSpec {
                session_ms: 4000.0,
                heartbeat_ms: 1000.0,
            }),
            ..ConfigSpec::preset("default")
        };
        let c = cs.build().unwrap();
        assert_eq!(c.heartbeat_period, SimSpan::from_millis(1000));
        assert_eq!(c.silence_timeout, SimSpan::from_millis(4000));
        assert_eq!(c.zk_session_timeout, SimSpan::from_millis(4000));
        // Truncating integer division, exactly as the hand-built sweep.
        assert_eq!(c.election_ping_period, SimSpan::from_micros(4_000_000 / 3));
        assert!(c.idle_suspend_after.is_none());
    }

    #[test]
    fn obs_and_slo_round_trip_and_validate() {
        let mut spec = demo_spec();
        spec.obs = Some(ObsSpec {
            window_ms: 60000.0,
            ring: 512,
            profile: true,
            force_incident_at_ms: Some(120000.0),
        });
        spec.slos = vec![
            SloSpec {
                name: "submit-p95".into(),
                signal: SloSignal::P95PlacementLatencyS,
                max: 2.0,
            },
            SloSpec {
                name: "dead-letter-budget".into(),
                signal: SloSignal::DeadLetters,
                max: 0.0,
            },
        ];
        let slos =
            "[[slo]]\nmax = 2.0\nname = \"submit-p95\"\nsignal = \"p95_placement_latency_s\"\n\
                    [[slo]]\nmax = 0.0\nname = \"dead-letter-budget\"\nsignal = \"dead_letters\"\n";
        let obs = "[obs]\nforce_incident_at_ms = 120000.0\nring = 512\nwindow_ms = 60000.0\n";
        assert_eq!(demo_run(&format!("{obs}{slos}")), Ok(spec));

        // Watchdogs without an [obs] table are a decode error.
        let err = demo_run(slos).unwrap_err();
        assert!(err.contains("require an `[obs]`"), "{err}");

        let err = SloSignal::parse("bogus").unwrap_err();
        assert!(err.contains("bogus"));
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let err =
            ScenarioSpec::from_toml("name = \"x\"\nseed = 1\nbogus = 2\n[topology]\neps = 1\n")
                .unwrap_err();
        assert!(err.contains("bogus"), "{err}");

        // The unified-node deployment (§V) is gone: its table is a stray
        // key, and its `node` fault target is unknown.
        let head = "name = \"x\"\nseed = 1\n[topology]\nmanagers = 2\neps = 1\n";
        let err =
            ScenarioSpec::from_toml(&format!("{head}[topology.unified]\nnodes = 4\n")).unwrap_err();
        assert_eq!(err, "unknown key `unified` in topology");
        let spec = ScenarioSpec::from_toml(&format!(
            "{head}[[fault]]\nat_ms = 1.0\nkind = \"crash\"\ntarget = \"node\"\n"
        ))
        .unwrap();
        let err = crate::compile(&spec).err().unwrap();
        assert_eq!(err, "unknown fault target `node`");
        // Without that deployment, managerless topologies have no meaning:
        // compile says so instead of tripping the deployer's assertion.
        let spec = ScenarioSpec::from_toml(&head.replace("managers = 2", "managers = 1")).unwrap();
        let err = crate::compile(&spec).err().unwrap();
        assert!(err.starts_with("`managers` in topology must be"), "{err}");
    }

    /// A document with every table of the schema and every key of each.
    const FULL: &str = r#"
name = "full"
description = "every table, every key"
seed = 7
[topology]
managers = 3
lcs = 8
eps = 1
[topology.client]
retry_ms = 15000.0
[[topology.nodes]]
count = 2
cores = 16.0
memory_mb = 65536.0
net_mbps = 1000.0
idle_watts = 200.0
max_watts = 320.0
suspend_watts = 6.0
model = "slowstep"
[config]
preset = "fast_test"
idle_suspend_ms = -1.0
suspend_watchdog_ms = 1000.0
placement = "round_robin"
underload_threshold = 0.2
reschedule_on_lc_failure = true
[config.reconfiguration]
period_ms = 60000.0
algo = "ffd"
aco = "fast"
aco_cycles = 4
max_migrations = 8
[config.reconfiguration.params]
sort = "cpu"
[config.knobs]
session_ms = 4000.0
heartbeat_ms = 1000.0
[[workload]]
kind = "burst"
n = 4
at_ms = 30000.0
cores = 2.0
memory_mb = 4096.0
util = 0.5
[[workload]]
kind = "random_fleet"
n = 10
seed = 3
cores_min = 1.0
cores_max = 4.0
mem_min_mb = 1024.0
mem_max_mb = 8192.0
util_min = 0.1
util_max = 0.9
arrival_at_ms = 1000.0
arrival_spread_s = 60
lifetime_every = 3
lifetime_min_s = 100
lifetime_max_s = 200
[[workload]]
kind = "trace"
path = "traces/reference.csv"
time_scale = 0.5
max_vms = 10
policy = "loop"
[[fault]]
at_ms = 90000.0
kind = "crash"
target = "lc"
index = 1
downtime_ms = 30000.0
loss_ppm = 0
[[phase]]
kind = "run_to"
t_ms = 1000.0
[[phase]]
kind = "run_for"
dur_ms = 1000.0
[[phase]]
kind = "settle"
deadline_ms = 300000.0
[[phase]]
kind = "sample_to"
t_ms = 400000.0
every_ms = 60000.0
[[phase]]
kind = "fault"
label = "GL crash"
target = "active_gm"
index = 1
delay_ms = 10000.0
fault = "crash"
[phase.observe]
steps = 90
step_ms = 2000.0
perf_window_ms = 60000.0
until = "gl_elected"
stop_on_success = true
[[probe]]
name = "mid"
at_ms = 150000.0
[obs]
window_ms = 60000.0
ring = 512
profile = false
force_incident_at_ms = 120000.0
[[slo]]
name = "dead-letter-budget"
signal = "dead_letters"
max = 0.0
[power]
default = "slowstep"
[[power.model]]
name = "slowstep"
kind = "linear"
transitions = "billed"
idle_watts = 100.0
max_watts = 200.0
suspend_watts = 5.0
"#;

    /// `root` with `value` at `key` of the table `path` leads to, through
    /// the last element of each array of tables on the way.
    fn with(root: &Tbl, path: &[&str], key: &str, value: Value) -> Tbl {
        let mut root = root.clone();
        let table = path.iter().fold(&mut root, |t, seg| {
            match t.entry(seg.to_string()).or_insert_with(Value::table) {
                Value::Table(sub) => sub,
                Value::TableArray(subs) => subs.last_mut().unwrap(),
                other => panic!("`{seg}` is {other:?}"),
            }
        });
        table.insert(key.into(), value);
        root
    }

    #[test]
    fn values_that_used_to_run_the_default_are_decode_errors() {
        let full = toml::parse(FULL).unwrap();
        ScenarioSpec::from_value(&full).expect("the base document decodes");
        let s = |text: &str| Value::Str(text.into());
        // Each of these decoded at the parent of the reader, and ran as if
        // the key were absent (or, for `managers`, as zero managers).
        let cases: [(&[&str], &str, Value, &str); 17] = [
            (&["config"], "placement", Value::Int(3), "a string"),
            (
                &["config"],
                "reschedule_on_lc_failure",
                s("yes"),
                "a boolean",
            ),
            (&["config"], "preset", Value::Int(1), "a string"),
            (
                &["config", "reconfiguration"],
                "algo",
                Value::Int(7),
                "a string",
            ),
            (&["fault"], "target", Value::Int(1), "a string"),
            (
                &["fault"],
                "index",
                Value::Int(-3),
                "a non-negative integer",
            ),
            (&["obs"], "profile", s("no"), "a boolean"),
            (&["obs"], "ring", Value::Int(-5), "a non-negative integer"),
            (&[], "description", Value::Int(5), "a string"),
            (&["topology", "nodes"], "model", Value::Int(5), "a string"),
            (&["phase"], "label", Value::Int(3), "a string"),
            (&["phase"], "fault", Value::Int(9), "a string"),
            (
                &["phase"],
                "index",
                Value::Int(-1),
                "a non-negative integer",
            ),
            (
                &["phase", "observe"],
                "stop_on_success",
                Value::Int(1),
                "a boolean",
            ),
            (
                &["workload"],
                "max_vms",
                Value::Int(-1),
                "a non-negative integer",
            ),
            (&["power"], "default", Value::Int(3), "a string"),
            (
                &["topology"],
                "managers",
                Value::Int(-2),
                "a non-negative integer",
            ),
        ];
        for (path, key, value, want) in cases {
            let err = ScenarioSpec::from_value(&with(&full, path, key, value.clone())).unwrap_err();
            let table = if path.is_empty() {
                "scenario".into()
            } else {
                path.join(".")
            };
            let want = format!("`{key}` in {table} must be {want}");
            assert_eq!(err, want, "{table}.{key} = {value:?}");
        }
    }

    #[test]
    fn hostile_integers_and_empty_ranges_are_decode_errors() {
        let mut full = toml::parse(FULL).unwrap();
        // `with` edits the last workload: make that the random fleet.
        if let Some(Value::TableArray(items)) = full.get_mut("workload") {
            items.rotate_left(2);
        }
        ScenarioSpec::from_value(&full).expect("the base document decodes");
        let (int, float) = (Value::Int, Value::Float);
        let negative = "a non-negative integer";
        // Each decoded at the parent of this test, and then either panicked
        // in `compile` (the four fleet shapes) or was cast to a huge
        // unsigned value (`-1` migrations per pass, `-1` ppm of loss).
        let cases: [(&[&str], &str, Value, String); 10] = [
            (
                &["workload"],
                "arrival_spread_s",
                int(0),
                "a positive integer".into(),
            ),
            (&["workload"], "arrival_spread_s", int(-5), negative.into()),
            (
                &["workload"],
                "lifetime_min_s",
                int(200),
                "< `lifetime_max_s` (200) when `lifetime_every` > 0, got 200".into(),
            ),
            (&["workload"], "lifetime_every", int(-1), negative.into()),
            (
                &["workload"],
                "cores_min",
                float(5.0),
                "<= `cores_max` (4), got 5".into(),
            ),
            (
                &["workload"],
                "mem_min_mb",
                float(9000.0),
                "<= `mem_max_mb` (8192), got 9000".into(),
            ),
            (
                &["workload"],
                "util_min",
                float(f64::NAN),
                "<= `util_max` (0.9), got NaN".into(),
            ),
            (
                &["config", "reconfiguration"],
                "max_migrations",
                int(-1),
                negative.into(),
            ),
            (&["fault"], "loss_ppm", int(-1), negative.into()),
            (&["fault"], "loss_ppm", int(1 << 32), negative.into()),
        ];
        for (path, key, value, want) in cases {
            let err = ScenarioSpec::from_value(&with(&full, path, key, value.clone())).unwrap_err();
            let want = format!("`{key}` in {} must be {want}", path.join("."));
            assert_eq!(err, want, "{key} = {value:?}");
        }
        // No lifetimes drawn, no lifetime range needed: the benchmark's
        // kilonode fleet reads `lifetime_every = 0` with `0` / `0`.
        let never = [
            ("lifetime_every", 0),
            ("lifetime_min_s", 0),
            ("lifetime_max_s", 0),
        ];
        let never = never.iter().fold(full, |doc, &(key, v)| {
            with(&doc, &["workload"], key, int(v))
        });
        ScenarioSpec::from_value(&never).expect("`lifetime_every = 0` draws no lifetime");
    }

    /// Every table of `t` — `t` itself, its sub-tables, the elements of
    /// its arrays of tables — as the path [`with`] takes to reach it.
    /// (`with` reaches only the last element of an array, and the kinds of
    /// workload and phase differ: callers rotate the array.)
    fn table_paths<'a>(t: &'a Tbl, at: &mut Vec<&'a str>, out: &mut Vec<Vec<&'a str>>) {
        out.push(at.clone());
        for (k, v) in t {
            at.push(k);
            match v {
                Value::Table(sub) => table_paths(sub, at, out),
                Value::TableArray(subs) => table_paths(subs.last().unwrap(), at, out),
                _ => {}
            }
            at.pop();
        }
    }

    #[test]
    fn every_table_rejects_an_unknown_key_and_every_key_a_wrong_type() {
        let mut full = toml::parse(FULL).unwrap();
        let (mut tables, mut keys) = (0, 0);
        // Five rotations bring each `[[phase]]` (and each `[[workload]]`)
        // kind to the end of its array once.
        for _ in 0..5 {
            for array in ["workload", "phase"] {
                if let Some(Value::TableArray(items)) = full.get_mut(array) {
                    items.rotate_left(1);
                }
            }
            let mut paths = Vec::new();
            table_paths(&full, &mut Vec::new(), &mut paths);
            for path in &paths {
                let name = match path.as_slice() {
                    [] => "scenario".to_string(),
                    // Tables another decoder reads: the registry rejects an
                    // unknown `params` key, `PowerModelSpec::build` a model's.
                    ["config", "reconfiguration", "params"] | ["power", "model"] => continue,
                    path => path.join("."),
                };
                let stray = with(&full, path, "zzz", Value::Int(1));
                let err = ScenarioSpec::from_value(&stray).unwrap_err();
                assert_eq!(err, format!("unknown key `zzz` in {name}"));
                tables += 1;
                let table = path.iter().fold(&full, |t, seg| match &t[*seg] {
                    Value::Table(sub) => sub,
                    Value::TableArray(subs) => subs.last().unwrap(),
                    other => panic!("`{seg}` is {other:?}"),
                });
                for key in table.keys() {
                    // No key of the schema is an empty array.
                    let wrong = with(&full, path, key, Value::Array(Vec::new()));
                    let err = ScenarioSpec::from_value(&wrong).unwrap_err();
                    let want = format!("`{key}` in {name} must be ");
                    assert!(err.starts_with(&want), "{name}.{key}: {err}");
                    keys += 1;
                }
            }
        }
        assert!(
            tables >= 5 * 14 && keys >= 5 * 60,
            "{tables} tables, {keys} keys"
        );
    }

    #[test]
    fn hostile_durations_are_decode_errors() {
        let base = toml::parse(include_str!("../../../scenarios/hetero_burst.toml")).unwrap();
        // (path to the table — last element of an array of tables —, key, value)
        let cases: &[(&[&str], &str, f64)] = &[
            (&["workload"], "at_ms", -30000.0), // used to panic in `ms_to_span`
            (&["phase"], "every_ms", 0.0),      // used to loop forever in `sample_to`
            (&["phase"], "every_ms", -1.0),
            (&["phase"], "t_ms", f64::NAN),
            (&["phase", "observe"], "step_ms", 0.0),
            (&["phase", "observe"], "perf_window_ms", -1.0),
            (&["obs"], "window_ms", 0.0),
            (&["obs"], "force_incident_at_ms", f64::NEG_INFINITY),
            (&["config", "reconfiguration"], "period_ms", 0.0),
            (&["config", "knobs"], "heartbeat_ms", 0.0),
            (&["config", "knobs"], "session_ms", 0.0), // hangs, like `every_ms`
            (&["topology", "client"], "retry_ms", 0.0), // likewise
            (&["config"], "idle_suspend_ms", f64::INFINITY),
            (&["config"], "suspend_watchdog_ms", -1.0),
            (&["topology", "client"], "retry_ms", -15000.0),
            (&["fault"], "downtime_ms", -1.0),
            (&["probe"], "at_ms", f64::INFINITY),
        ];
        for &(path, key, bad) in cases {
            let root = with(&base, path, key, Value::Float(bad));
            let err = ScenarioSpec::from_value(&root).unwrap_err();
            let ctx = path.join(".");
            assert!(
                err.contains(&format!("`{key}` in {ctx} must be")),
                "{ctx}.{key} = {bad}: {err}"
            );
        }
        // Nothing checked in is rejected — the documented negative
        // (`idle_suspend_ms = -1.0`, "off") included.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let mut decoded = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !name.ends_with(".toml") || name.starts_with("mc_") {
                continue; // model-checker traces are not scenarios
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let runs = ScenarioDoc::parse(&text).and_then(|doc| doc.runs());
            assert!(runs.is_ok(), "{name}: {}", runs.unwrap_err());
            decoded += 1;
        }
        assert!(decoded >= 10, "found only {decoded} scenarios under {dir}");
    }

    #[test]
    fn ms_conversion_is_exact_for_microsecond_grids() {
        assert_eq!(ms_to_span(30000.0), SimSpan::from_secs(30));
        assert_eq!(ms_to_span(0.5), SimSpan::from_micros(500));
        assert_eq!(ms_to_time(1.0), SimTime(1000));
    }
}
