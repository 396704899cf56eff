//! The `--smoke` CI gates: reduced shapes of the heavy experiments, each
//! a row of [`GATES`] — whose `[override.smoke]` profile to run, how often,
//! how the repeats' advisory clocks fold into the printed one, and which
//! properties the finished runs must have. The shapes are data: the
//! `smoke` profile of the experiment's own `scenarios/<slug>.toml`. A
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
use snooze_simcore::metrics::Histogram;

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
    /// How the repeats' wall clocks fold into the one the tables print.
    pub clock: Clock,
    /// What must hold.
    pub checks: &'static [Check],
    /// What the gate reports beyond its table, and writes when `--json
    /// <dir>` is given.
    pub report: Option<Report>,
}

/// Folds a gate's advisory wall clocks — `walls[r][s]`, repeat `r` of spec
/// `s`, ms — into one per spec.
pub type Clock = fn(walls: &[Vec<f64>]) -> Vec<f64>;

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
        clock: best_of,
        checks: &[repeatable, throughput_present, no_dead_letters, all_placed],
        report: None,
    },
    Gate {
        name: "trace",
        table: "e12_trace",
        specs: |smoke| smoke,
        repeats: 2,
        clock: best_of,
        checks: &[repeatable, some_placed, no_dead_letters],
        report: None,
    },
    Gate {
        name: "arena",
        table: "e14_arena",
        specs: |smoke| smoke,
        repeats: 2,
        clock: best_of,
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
        // The floor compares two clocks of under 0.1 s each: see
        // `paired_with_plain` for why it takes this many pairs.
        repeats: OBS_REPEATS,
        clock: paired_with_plain,
        checks: &[
            digest_neutral,
            artifacts_identical,
            all_placed,
            throughput_floor,
        ],
        report: Some(report_obs_overhead),
    },
];

/// How often the `obs` gate runs its plain/observed pair.
const OBS_REPEATS: usize = 31;

/// Each spec's fastest repeat: the advisory clock swings ±20% under a noisy
/// scheduler, and minima converge on the true cost while means do not.
fn best_of(walls: &[Vec<f64>]) -> Vec<f64> {
    let fastest = |s: usize| walls.iter().map(|rep| rep[s]).fold(f64::INFINITY, f64::min);
    (0..walls[0].len()).map(fastest).collect()
}

/// The plain (first) spec's median repeat, and every other spec at its
/// median slowdown against the plain run *of the same repeat*. A ratio of
/// two minima is not a measurement on a shared host: one run in five lands
/// in a spell where the machine is a quarter faster, and whichever side
/// catches more of those wins — best-of-3 and best-of-11 of unchanged code
/// both read anywhere from 67% to 115% of plain. Back-to-back runs share
/// their spell, so the per-repeat ratio cancels it, and the median sheds
/// the pairs a spell boundary split: over 150 pairs of one binary, windows
/// of 11 pairs spread ±5 points, of 21 ±4, of 31 ±2 (±3 on the noisiest
/// sample) — about 6 s of gate for a floor that does not flake.
fn paired_with_plain(walls: &[Vec<f64>]) -> Vec<f64> {
    let plain = median(walls.iter().map(|rep| rep[0]));
    let slowdown = |s: usize| median(walls.iter().map(|rep| rep[s] / rep[0]));
    (0..walls[0].len()).map(|s| plain * slowdown(s)).collect()
}

fn median(samples: impl Iterator<Item = f64>) -> f64 {
    let mut sorted = Histogram::default();
    samples.for_each(|x| sorted.record(x));
    sorted.percentile(50.0)
}

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
    /// The sweep's first two repeats — what the identity checks compare; a
    /// finished run holds its whole live system, so later repeats leave
    /// only their clocks and digests. The first repeat carries every spec's
    /// wall clock as the gate's [`Clock`] folded it over all of them.
    pub reps: Vec<Vec<Finished>>,
    /// Every repeat's engine digests: `digests[r][s]`.
    pub digests: Vec<Vec<u64>>,
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
        digests: Vec::new(),
    };
    let mut walls: Vec<Vec<f64>> = Vec::new();
    for _ in 0..gate.repeats {
        let rep = run_specs(&specs, false).map_err(|e| vec![e])?;
        walls.push(rep.iter().map(|f| f.run.outcome.wall_ms).collect());
        let digests = rep.iter().map(|f| f.run.live.sim.digest());
        runs.digests.push(digests.collect());
        if runs.reps.len() < 2 {
            runs.reps.push(rep);
        }
    }
    for (f, folded) in runs.reps[0].iter_mut().zip((gate.clock)(&walls)) {
        f.run.outcome.wall_ms = folded;
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

/// Repeats of one spec agree on the event digest and on every
/// non-advisory column of the gate's table.
fn repeatable(runs: &Runs) -> Result<(), String> {
    let same_digests = runs.digests.iter().all(|rep| *rep == runs.digests[0]);
    let failure = "two same-seed runs disagree on the event digest";
    ensure(same_digests, failure)?;
    let deterministic = |r: usize| runs.table(r).deterministic().to_json();
    let same_tables = (1..runs.reps.len()).all(|r| deterministic(0) == deterministic(r));
    let failure = "two same-seed runs disagree on a deterministic table column";
    ensure(same_tables, failure)
}

/// Observation is invisible to the simulation: every run of every
/// variant reports the same engine digest.
fn digest_neutral(runs: &Runs) -> Result<(), String> {
    let mut all = runs.digests.iter().flatten();
    let neutral = all.all(|d| *d == runs.digests[0][0]);
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
/// Both clocks are advisory but measured back to back in one invocation,
/// so machine speed cancels ([`paired_with_plain`]).
fn pct_of_plain(f: &Finished, sweep: &[Finished]) -> f64 {
    events_per_sec(&f.run.outcome) / events_per_sec(&sweep[0].run.outcome) * 100.0
}

/// What observing costs per event on this host, ns: `f`'s clock less the
/// plain variant's, over the events both executed. The ratio above moves
/// whenever the plain path gets faster or slower; this does not.
fn observer_ns_per_event(f: &Finished, sweep: &[Finished]) -> f64 {
    let (observed, plain) = (&f.run.outcome, &sweep[0].run.outcome);
    (observed.wall_ms - plain.wall_ms) * 1e6 / observed.sim_events as f64
}

fn throughput_floor(runs: &Runs) -> Result<(), String> {
    let (observed, sweep) = (runs.observed(0), &runs.reps[0]);
    let pct = pct_of_plain(observed, sweep);
    let ns = observer_ns_per_event(observed, sweep);
    let floor = "of baseline throughput (floor 90%)";
    let failure = format!("observability overhead too high: {pct:.1}% {floor}, {ns:.0} ns/event");
    ensure(pct >= 90.0, failure)
}

/// The two-row overhead comparison the `obs` gate writes as
/// `e11_obs.json`: the same simulation with and without the full
/// observability surface. Sim events and dead letters are exact; wall
/// and throughput columns are advisory ([`paired_with_plain`] over
/// [`OBS_REPEATS`] pairs on the measuring host).
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
    advisory("obs ns/event", |c| match c.this().spec.obs {
        Some(_) => format!("{:.0}", observer_ns_per_event(c.this(), c.runs)),
        None => "-".into(),
    }),
];

/// The `obs` gate's report: the overhead comparison, and with `--json
/// <dir>` that table as `e11_obs.json` beside the observed run's
/// continuous exports ([`crate::report::export_obs`]).
fn report_obs_overhead(runs: &mut Runs, dir: Option<&Path>) -> std::io::Result<()> {
    let title = format!(
        "E11 obs overhead (256-LC smoke, median of {OBS_REPEATS} back-to-back pairs; wall columns advisory)"
    );
    let comparison = tabulate(&title, OBS_OVERHEAD, PER_RUN, &runs.reps[0]);
    comparison.print();
    let Some(dir) = dir else { return Ok(()) };
    comparison.write_json(dir, "e11_obs")?;
    let observed = runs.reps[0].last_mut().expect("gate has specs");
    crate::report::export_obs(&mut observed.run, dir)
}
