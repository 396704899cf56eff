//! The `--smoke` CI gates: reduced shapes of the heavy experiments, each
//! a row of [`GATES`] — whose `[override.smoke]` profile to run, how often,
//! and which properties the finished runs must have. The shapes are data:
//! the `smoke` profile of the experiment's own `scenarios/<slug>.toml`. A
//! gate's sweep runs `repeats` times back to back, so repeats of one spec
//! are the two-run identity evidence and the variants of one sweep meet
//! the same machine noise.
//!
//! * `e11` — the 256-LC fault-free kilonode shape.
//! * `trace` — the seed-42 trace on the 128-LC E12 shape, both variants.
//! * `arena` — the same trace once per `ConsolidatorRegistry` key (the
//!   profile includes `bnb`, which the full arena skips) on the 128-LC E14
//!   shape under the billed-DVFS model.
//! * `obs` — the `e11` shape with and without the full observability
//!   surface (windows, profiler, flight recorder, SLO watchdogs and a
//!   forced incident).

use std::path::Path;

use snooze_scenario::incident::{is_incident, IncidentDoc};
use snooze_scenario::spec::{ScenarioSpec, WorkloadSpec};
use snooze_scenario::ScenarioOutcome;

use crate::experiments::{
    advisory, col, events_per_sec, find, run_specs, tabulate, Column, Finished, DEAD_LETTERS,
    EVENTS_PER_S, PER_RUN, SIM_EVENTS, WALL_MS,
};
use crate::table::Table;

/// One smoke gate.
pub struct Gate {
    /// The name `--smoke <name>` selects.
    pub name: &'static str,
    /// Manifest slug of the experiment whose `[override.smoke]` profile
    /// the gate runs and whose table renders the runs.
    pub table: &'static str,
    /// What the gate makes of that profile's runs.
    pub specs: fn(smoke: Vec<ScenarioSpec>) -> Vec<ScenarioSpec>,
    /// How many times the sweep runs.
    pub repeats: usize,
    /// What must hold.
    pub checks: &'static [Check],
    /// What the gate reports beyond its table, and writes when `--json
    /// <dir>` is given.
    pub report: Option<Report>,
}

/// A gate's extra report; the directory is `--json`'s, when given.
pub type Report = fn(&mut Runs, Option<&Path>) -> std::io::Result<()>;

/// One property of a gate's runs; `Err` says what is wrong.
pub type Check = fn(&Runs) -> Result<(), String>;

/// Every gate, in the order a bare `--smoke` runs them.
pub const GATES: &[Gate] = &[
    Gate {
        name: "e11",
        table: "e11",
        specs: |smoke| smoke,
        repeats: 2,
        checks: &[repeatable, throughput_present, no_dead_letters, all_placed],
        report: None,
    },
    Gate {
        name: "trace",
        table: "e12_trace",
        specs: |smoke| smoke,
        repeats: 2,
        checks: &[repeatable, some_placed, no_dead_letters],
        report: None,
    },
    Gate {
        name: "arena",
        table: "e14_arena",
        specs: |smoke| smoke,
        repeats: 2,
        checks: &[repeatable, some_placed, no_dead_letters],
        report: None,
    },
    Gate {
        name: "obs",
        table: "e11",
        // The same simulation twice: with the scenario's windows, profiler
        // and SLO watchdogs plus a forced incident two minutes in — mid
        // arrival wave, so the flight ring is full of real placement
        // traffic — and, first, with every observer removed.
        specs: |smoke| {
            let (mut plain, mut observed) = (smoke[0].clone(), smoke[0].clone());
            let obs = observed.obs.as_mut().expect("e11.toml carries [obs]");
            obs.force_incident_at_ms = Some(120_000.0);
            (plain.obs, plain.slos) = (None, Vec::new());
            vec![plain, observed]
        },
        repeats: 3,
        checks: &[
            digest_neutral,
            artifacts_identical,
            all_placed,
            throughput_floor,
        ],
        report: Some(report_obs_overhead),
    },
];

/// Write the tiny seed-42 trace the `trace` and `arena` gates replay
/// (the one `snooze-tracegen --seed 42 --vms 200 --horizon-s 1800
/// --diurnal-period-s 900 --flash-crowds 1 --curve-step-s 300` writes)
/// and return its path. Generates it twice: the generator must be a pure
/// function of the seed.
pub fn seeded_trace() -> Result<String, String> {
    let cfg = snooze_trace::GeneratorConfig {
        vms: 200,
        horizon_s: 1800.0,
        diurnal_period_s: 900.0,
        flash_crowds: 1,
        curve_step_s: 300.0,
    };
    let text = snooze_trace::csv::to_string(&snooze_trace::generate(&cfg, 42));
    if text != snooze_trace::csv::to_string(&snooze_trace::generate(&cfg, 42)) {
        return Err("tracegen is not a pure function of the seed".into());
    }
    let dir = std::env::temp_dir().join("snooze-trace-smoke");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("smoke_seed42.csv");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    let utf8 = path.to_str().map(str::to_string);
    utf8.ok_or_else(|| format!("non-UTF8 trace path {}", path.display()))
}

/// A gate's finished runs: `reps[r][s]` is repeat `r` of spec `s`.
pub struct Runs {
    /// The gate that ran.
    pub gate: &'static Gate,
    /// The sweep, once per repeat. The first repeat carries every spec's
    /// fastest wall clock: the advisory clock swings ±20% under a noisy
    /// scheduler, and minima converge on the true cost while means do not.
    pub reps: Vec<Vec<Finished>>,
}

impl Runs {
    /// Repeat `r` rendered through the gate's experiment table.
    fn table(&self, r: usize) -> Table {
        let table = find(self.gate.table).scenarios();
        table
            .expect("gates render through scenario-backed tables")
            .render(&self.reps[r])
    }

    /// The observed (last) variant of repeat `r` (`obs` gate).
    fn observed(&self, r: usize) -> &Finished {
        self.reps[r].last().expect("gate has specs")
    }
}

/// Run one gate: print its table and report, evaluate every check.
/// `Ok` carries the OK line, `Err` every violated property.
pub fn run_gate(
    gate: &'static Gate,
    trace: &str,
    json_dir: Option<&Path>,
) -> Result<String, Vec<String>> {
    // The profile names the checked-in reference trace; the gate replays
    // the one generated for this run.
    let mut smoke = find(gate.table).specs(|doc| doc.profile("smoke"));
    for workload in smoke.iter_mut().flat_map(|spec| &mut spec.workload) {
        if let WorkloadSpec::Trace { path, .. } = workload {
            *path = trace.to_string();
        }
    }
    let specs = (gate.specs)(smoke);
    let mut runs = Runs {
        gate,
        reps: Vec::new(),
    };
    for _ in 0..gate.repeats {
        runs.reps
            .push(run_specs(&specs, false).map_err(|e| vec![e])?);
    }
    for s in 0..specs.len() {
        let walls = runs.reps.iter().map(|rep| rep[s].run.outcome.wall_ms);
        runs.reps[0][s].run.outcome.wall_ms = walls.fold(f64::INFINITY, f64::min);
    }
    runs.table(0).print();

    let mut failures: Vec<String> = gate.checks.iter().filter_map(|c| c(&runs).err()).collect();
    if let Some(Err(e)) = gate.report.map(|report| report(&mut runs, json_dir)) {
        failures.push(format!("writing artifacts: {e}"));
    }
    if !failures.is_empty() {
        return Err(failures);
    }
    let (n, x) = (specs.len(), gate.repeats);
    Ok(format!("{} smoke: OK ({n} scenario(s) x{x})", gate.name))
}

fn ensure(holds: bool, failure: impl Into<String>) -> Result<(), String> {
    holds.then_some(()).ok_or_else(|| failure.into())
}

/// Every row of the first repeat that is `wrong`, as `name: <what>`.
fn each_row(runs: &Runs, wrong: fn(&ScenarioOutcome) -> Option<String>) -> Result<(), String> {
    let named = |f: &Finished| wrong(&f.run.outcome).map(|w| format!("{}: {w}", f.spec.name));
    let failures: Vec<String> = runs.reps[0].iter().filter_map(named).collect();
    ensure(failures.is_empty(), failures.join("; "))
}

fn all_placed(runs: &Runs) -> Result<(), String> {
    each_row(runs, |o| {
        let (placed, of) = (o.placed, o.requested_vms);
        (placed != of).then(|| format!("placed {placed}/{of} VMs"))
    })
}

fn some_placed(runs: &Runs) -> Result<(), String> {
    each_row(runs, |o| {
        (o.placed == 0).then(|| "no trace VM was placed".into())
    })
}

fn no_dead_letters(runs: &Runs) -> Result<(), String> {
    each_row(runs, |o| {
        let n = o.dead_letters;
        (n != 0).then(|| format!("{n} dead letter(s) in a fault-free run"))
    })
}

fn throughput_present(runs: &Runs) -> Result<(), String> {
    let present = !events_per_sec(&runs.reps[0][0].run.outcome).is_nan();
    ensure(present, "throughput column is empty (wall clock read 0 ms)")
}

fn digests(rep: &[Finished]) -> Vec<u64> {
    rep.iter().map(|f| f.run.live.sim.digest()).collect()
}

/// Repeats of one spec agree on the event digest and on every
/// non-advisory column of the gate's table.
fn repeatable(runs: &Runs) -> Result<(), String> {
    let deterministic = |r: usize| runs.table(r).deterministic().to_json();
    for r in 1..runs.reps.len() {
        let failure = "two same-seed runs disagree on the event digest";
        ensure(digests(&runs.reps[0]) == digests(&runs.reps[r]), failure)?;
        let failure = "two same-seed runs disagree on a deterministic table column";
        ensure(deterministic(0) == deterministic(r), failure)?;
    }
    Ok(())
}

/// Observation is invisible to the simulation: every run of every
/// variant reports the same engine digest.
fn digest_neutral(runs: &Runs) -> Result<(), String> {
    let all: Vec<u64> = runs.reps.iter().flat_map(|rep| digests(rep)).collect();
    let neutral = all.iter().all(|d| *d == all[0]);
    ensure(neutral, "observability changed the engine digest")
}

/// Every observability artifact is byte-deterministic across two observed
/// runs — windows JSONL, profile (the deterministic event counts the
/// folded-stack export prints), forced incident dump — and the dump
/// re-parses canonically, so `--check-scenarios` can always re-read one.
fn artifacts_identical(runs: &Runs) -> Result<(), String> {
    let bytes = |r: usize| -> Result<_, String> {
        let f = runs.observed(r);
        let windows = f.run.windows.as_ref();
        let jsonl = windows.ok_or("observed run produced no window log")?;
        let profile = f.profile.iter().map(|p| (&p.kind, &p.variant, p.events));
        let forced = f.run.incidents.iter().find(|i| i.trigger == "forced");
        let incident = forced.ok_or("forced trigger produced no incident dump")?;
        Ok((
            jsonl.to_jsonl(),
            profile.collect::<Vec<_>>(),
            incident.to_toml(),
        ))
    };
    let (a, b) = (bytes(0)?, bytes(1)?);
    let failure = "two observed runs disagree on windows/profile/incident bytes";
    ensure(a == b, failure)?;
    let incident = a.2;
    let failure = "incident dump missed the `trigger = ` discriminator";
    ensure(is_incident(&incident), failure)?;
    let reparsed = IncidentDoc::from_toml(&incident)
        .map_err(|e| format!("incident dump does not re-parse: {e}"))?;
    let canonical = reparsed.to_toml() == incident;
    ensure(canonical, "incident dump is not in canonical form")?;
    let windows = runs.observed(0).run.outcome.windows;
    ensure(windows > 0, "observed run closed no metric windows")
}

/// Throughput of `f` against the plain (first) variant of its sweep, %.
/// Both clocks are advisory but measured run-to-run in one invocation, so
/// machine speed cancels.
fn pct_of_plain(f: &Finished, sweep: &[Finished]) -> f64 {
    events_per_sec(&f.run.outcome) / events_per_sec(&sweep[0].run.outcome) * 100.0
}

fn throughput_floor(runs: &Runs) -> Result<(), String> {
    let pct = pct_of_plain(runs.observed(0), &runs.reps[0]);
    let floor = "of baseline throughput (floor 90%)";
    let failure = format!("observability overhead too high: {pct:.1}% {floor}");
    ensure(pct >= 90.0, failure)
}

/// The two-row overhead comparison the `obs` gate writes as
/// `e11_obs.json`: the same simulation with and without the full
/// observability surface. Sim events and dead letters are exact; wall
/// and throughput columns are advisory (best-of-3 on the measuring
/// host).
const OBS_OVERHEAD: &[Column] = &[
    col("variant", |c| {
        let observed = c.this().spec.obs.is_some();
        let suffix = if observed { "obs" } else { "plain" };
        format!("{}-{suffix}", c.o().name)
    }),
    SIM_EVENTS,
    DEAD_LETTERS,
    col("windows", |c| match c.this().spec.obs {
        Some(_) => c.o().windows.to_string(),
        None => "-".into(),
    }),
    col("digest match", |c| {
        let digest = |f: &Finished| f.run.live.sim.digest();
        match c.this().spec.obs {
            Some(_) if digest(c.this()) == digest(&c.runs[0]) => "yes",
            Some(_) => "NO",
            None => "-",
        }
        .into()
    }),
    WALL_MS,
    EVENTS_PER_S,
    advisory("vs plain", |c| {
        format!("{:.1}%", pct_of_plain(c.this(), c.runs))
    }),
];

/// The `obs` gate's report: the overhead comparison, and with `--json
/// <dir>` that table as `e11_obs.json` beside the observed run's
/// continuous exports ([`crate::report::export_obs`]).
fn report_obs_overhead(runs: &mut Runs, dir: Option<&Path>) -> std::io::Result<()> {
    let title =
        "E11 obs overhead (256-LC smoke, best-of-3 interleaved runs; wall columns advisory)";
    let comparison = tabulate(title, OBS_OVERHEAD, PER_RUN, &runs.reps[0]);
    comparison.print();
    let Some(dir) = dir else { return Ok(()) };
    comparison.write_json(dir, "e11_obs")?;
    let observed = runs.reps[0].last_mut().expect("gate has specs");
    crate::report::export_obs(&mut observed.run, dir)
}
