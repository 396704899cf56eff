//! The seven workloads and the harness that times them.
//!
//! A workload is one function, `iteration`, that re-does its set-up
//! (timed as `setup_s`), runs its body (timed as `wall_s`) and then,
//! outside both timers, reads counters, runs its output checks and
//! fills an [`Outcome`]. The child process calls it repeatedly and
//! reports medians.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use snooze_scenario::toml::{self, Value};
use snooze_simcore::rng::SimRng;
use snooze_trace::TraceRecord;

use crate::spans::Recorder;

pub mod engine;
pub mod ingest;
pub mod mc;
pub mod pack;
pub mod sim;

/// Which flavour of an iteration is running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Tracing off: the run end-to-end metrics are taken from.
    Plain,
    /// Span recorder on, engine profiler on, layer probes run.
    Traced,
    /// `kilonode_failover` with `[obs]`/`[[slo]]` removed, the
    /// reference for `telemetry.obs_overhead_pct`.
    ObsStripped,
}

/// What one iteration produced, besides its two timings.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (the `ok_ratio` pair).
    pub attempted: u64,
    pub failed: u64,
    /// Metric samples by name (end-to-end or per-layer).
    pub values: Vec<(String, f64)>,
    /// Quantities every iteration must reproduce exactly.
    pub exact: Vec<(String, u64)>,
    /// Failed output checks.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn value(&mut self, name: impl Into<String>, v: f64) {
        self.values.push((name.into(), v));
    }

    /// A count: reported as a metric and required to repeat exactly.
    pub fn count(&mut self, name: &str, v: u64) {
        self.values.push((name.to_string(), v as f64));
        self.exact.push((name.to_string(), v));
    }

    /// A simulated result: reported and required to repeat bit for bit.
    pub fn exact_value(&mut self, name: &str, v: f64) {
        self.values.push((name.to_string(), v));
        self.exact.push((name.to_string(), v.to_bits()));
    }

    pub fn check(&mut self, result: crate::checks::Check) {
        if let Err(e) = result {
            self.failures.push(e);
        }
    }
}

/// Shortest stretch of set-up work `setup_s` is read from.
const MIN_SETUP_MEASURE: Duration = Duration::from_millis(5);

/// Per-process state shared by the iterations of one workload.
pub struct Harness {
    pub workload: &'static str,
    pub seed: u64,
    /// Scratch and output directory (trace files, span logs).
    pub out: PathBuf,
    pub variant: Variant,
    /// Index of the round of iterations in progress (0-based).
    pub round: u32,
    pub rec: Recorder,
    /// Timings of the iteration in progress, as the clock read them.
    pub setup_s: f64,
    pub wall_s: f64,
}

impl Harness {
    /// The one iteration that runs a workload's heavier layer probes:
    /// the first traced one.
    pub fn probes_due(&self) -> bool {
        self.variant == Variant::Traced && self.round == 0
    }

    /// Run the set-up under the `setup_s` timer. A set-up too short to
    /// time on its own is repeated until [`MIN_SETUP_MEASURE`] has
    /// passed and `setup_s` is the mean of the batch, as any
    /// microsecond-scale call is measured; every set-up is idempotent.
    pub fn timed_setup<T>(&mut self, mut f: impl FnMut(&mut Recorder) -> T) -> T {
        let start = Instant::now();
        let mut runs = 1u32;
        let mut out = self.rec.span("bench.setup", &mut f);
        while start.elapsed() < MIN_SETUP_MEASURE {
            out = self.rec.span("bench.setup", &mut f);
            runs += 1;
        }
        self.setup_s = start.elapsed().as_secs_f64() / runs as f64;
        out
    }

    /// Run the body under the `wall_s` timer.
    pub fn timed_body<T>(&mut self, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let start = Instant::now();
        let out = self.rec.span("bench.body", f);
        self.wall_s = start.elapsed().as_secs_f64();
        out
    }
}

/// The workload definition files, compiled in so the binary does not
/// depend on where it is run from. `trace_gen` is shared by the two
/// replays and is not a workload of its own.
pub const SOURCES: [(&str, &str); 8] = [
    (
        "kilonode_failover",
        include_str!("../../workloads/kilonode_failover.toml"),
    ),
    (
        "trace_replay",
        include_str!("../../workloads/trace_replay.toml"),
    ),
    (
        "dense_reconfig",
        include_str!("../../workloads/dense_reconfig.toml"),
    ),
    (
        "pack_kernels",
        include_str!("../../workloads/pack_kernels.toml"),
    ),
    (
        "engine_micro",
        include_str!("../../workloads/engine_micro.toml"),
    ),
    (
        "mc_failover",
        include_str!("../../workloads/mc_failover.toml"),
    ),
    (
        "ingest_export",
        include_str!("../../workloads/ingest_export.toml"),
    ),
    ("trace_gen", include_str!("../../workloads/trace_gen.toml")),
];

pub fn source(name: &str) -> &'static str {
    SOURCES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, text)| *text)
        .unwrap_or_else(|| panic!("no workload file `{name}`"))
}

/// A parsed params file with typed, loudly failing accessors.
pub struct Params(BTreeMap<String, Value>);

impl Params {
    pub fn load(name: &str) -> Result<Params, String> {
        toml::parse(source(name))
            .map(Params)
            .map_err(|e| format!("workloads/{name}.toml: {e}"))
    }

    pub fn int(&self, key: &str) -> Result<u64, String> {
        self.0
            .get(key)
            .and_then(Value::as_int)
            .and_then(|v| u64::try_from(v).ok())
            .ok_or_else(|| format!("params: `{key}` must be a non-negative integer"))
    }

    pub fn float(&self, key: &str) -> Result<f64, String> {
        self.0
            .get(key)
            .and_then(Value::as_float)
            .ok_or_else(|| format!("params: `{key}` must be a number"))
    }

    pub fn ints(&self, key: &str) -> Result<Vec<u64>, String> {
        match self.0.get(key) {
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| v.as_int().and_then(|i| u64::try_from(i).ok()))
                .collect::<Option<Vec<u64>>>(),
            _ => None,
        }
        .ok_or_else(|| format!("params: `{key}` must be an array of non-negative integers"))
    }
}

/// Generator settings from `workloads/trace_gen.toml`, for `vms` VMs.
// `..Default::default()` keeps this compiling when the generator grows a knob.
#[allow(clippy::needless_update)]
fn trace_config(p: &Params, vms: usize) -> Result<snooze_trace::GeneratorConfig, String> {
    Ok(snooze_trace::GeneratorConfig {
        vms,
        horizon_s: p.float("horizon_s")?,
        diurnal_period_s: p.float("diurnal_period_s")?,
        flash_crowds: p.int("flash_crowds")? as usize,
        curve_step_s: p.float("curve_step_s")?,
        ..Default::default()
    })
}

/// The trace both replays run. The VM population (sizes, lifetimes,
/// demand curves, flash crowds) is generated once from
/// `population_seed`; the run's seed moves every arrival by up to
/// `arrival_jitter_s` either way, so seeds differ in ordering, timing
/// and therefore placement, not in offered load. A trace generated
/// wholly from the run's seed moves occupancy — and with it `wall_s` and
/// `sim_energy_wh` — by 15-20% from seed to seed, wider than any bound
/// the benchmark could then state for them.
pub fn replay_trace(seed: u64) -> Result<Vec<TraceRecord>, String> {
    let p = Params::load("trace_gen")?;
    let cfg = trace_config(&p, p.int("vms")? as usize)?;
    let mut records = snooze_trace::generate(&cfg, p.int("population_seed")?);
    let jitter = p.float("arrival_jitter_s")?;
    let earliest = p.float("earliest_arrival_s")?;
    let mut rng = SimRng::new(seed);
    for r in &mut records {
        let shifted = (r.arrival_s + rng.uniform(-jitter, jitter)).max(earliest);
        r.arrival_s = (shifted * 1e3).round() / 1e3;
    }
    records.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.vm.cmp(&b.vm)));
    for (vm, r) in records.iter_mut().enumerate() {
        r.vm = vm as u64;
    }
    Ok(records)
}

/// A trace of `vms` VMs generated wholly from `seed`: what
/// `ingest_export` writes and reads back.
pub fn generated_trace_config(vms: usize) -> Result<snooze_trace::GeneratorConfig, String> {
    trace_config(&Params::load("trace_gen")?, vms)
}

/// Run one iteration of `h.workload`.
pub fn iteration(h: &mut Harness) -> Result<Outcome, String> {
    match h.workload {
        "kilonode_failover" | "trace_replay" | "dense_reconfig" => sim::iteration(h),
        "pack_kernels" => pack::iteration(h),
        "engine_micro" => engine::iteration(h),
        "mc_failover" => mc::iteration(h),
        "ingest_export" => ingest::iteration(h),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Seconds → the rate `count / seconds` (0 for an unmeasurably short call).
pub fn per_second(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        0.0
    }
}

/// FNV-1a of `bytes`: how exports are compared across iterations.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    snooze_telemetry::fnv1a(0xcbf2_9ce4_8422_2325, bytes)
}
