//! The `--smoke` gate: the one CI check a golden cannot replace, because it
//! measures host time. It runs the `e11` smoke shape (256 LCs, fault-free)
//! plain and fully observed — windows, profiler, flight recorder, SLO
//! watchdogs and a forced incident — in 31 back-to-back pairs, and fails
//! when the observed run keeps under 90 % of the plain run's throughput.
//!
//! Decisions are pinned elsewhere: tier-1's `tests/experiments_manifest.rs`
//! replays every `[override.smoke]` profile against
//! `crates/bench/tests/golden/<slug>.smoke.json`, and
//! `crates/bench/tests/flight_e2e.rs` checks that observing leaves the
//! engine digest and the exported bytes unchanged.

use std::path::Path;

use snooze_scenario::{RunSpec, ScenarioSpec};
use snooze_simcore::metrics::Histogram;

use crate::experiments::{
    advisory, col, events_per_sec, find, run_specs, tabulate, Column, Finished, SimRun,
    DEAD_LETTERS, EVENTS_PER_S, PER_RUN, SIM_EVENTS, WALL_MS,
};

/// How often the plain/observed pair runs.
const OBS_REPEATS: usize = 31;

/// The throughput the observed run must keep, % of the plain run's.
const FLOOR_PCT: f64 = 90.0;

/// Run the gate: print the overhead comparison and, with `dir` (`--json`),
/// write it there as `e11_obs.json` beside the observed run's exports
/// ([`crate::scenario_cli::export_run`]). `Ok` carries the OK line.
pub fn run_obs(dir: Option<&Path>) -> Result<String, String> {
    // Made before the first run, so a path that cannot be a directory fails
    // now and not after every pair has run.
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--json {}: {e}", dir.display()))?;
    }
    // The same simulation twice: with the scenario's windows, profiler and
    // SLO watchdogs plus a forced incident two minutes in — mid arrival
    // wave, so the flight ring is full of real placement traffic — and,
    // first, with every observer removed.
    let smoke = find("e11").specs(|doc| doc.profile("smoke"));
    let Some(RunSpec::Sim(spec)) = smoke.first() else {
        return Err("the e11 smoke profile must be one simulated run".into());
    };
    let (mut plain, mut observed) = (ScenarioSpec::clone(spec), ScenarioSpec::clone(spec));
    let obs = observed.obs.as_mut().expect("e11.toml carries [obs]");
    obs.force_incident_at_ms = Some(120_000.0);
    (plain.obs, plain.slos) = (None, Vec::new());
    let specs = [
        RunSpec::Sim(Box::new(plain)),
        RunSpec::Sim(Box::new(observed)),
    ];

    let mut walls = Vec::with_capacity(OBS_REPEATS);
    let mut first: Option<Vec<Finished>> = None;
    for _ in 0..OBS_REPEATS {
        let pair = run_specs(&specs, false)?;
        let wall = |i: usize| pair[i].sim().outcome.wall_ms;
        walls.push([wall(0), wall(1)]);
        // A finished run holds its whole live system: keep one pair.
        if first.is_none() {
            first = Some(pair);
        }
    }
    let mut runs = first.expect("OBS_REPEATS > 0");
    for (f, folded) in runs.iter_mut().zip(paired_with_plain(&walls)) {
        if let Finished::Sim(run) = f {
            run.outcome.wall_ms = folded;
        }
    }

    let title = format!(
        "E11 obs overhead (256-LC smoke, median of {OBS_REPEATS} back-to-back pairs; wall columns advisory)"
    );
    let comparison = tabulate(&title, OBS_OVERHEAD, PER_RUN, &runs);
    comparison.print();
    if let Some(dir) = dir {
        let written = comparison.write_json(dir, "e11_obs");
        let written = written.and_then(|()| runs[1].sim().export(dir));
        written.map_err(|e| format!("writing artifacts to {}: {e}", dir.display()))?;
    }

    let (pct, ns) = (
        pct_of_plain(runs[1].sim(), &runs),
        observer_ns_per_event(runs[1].sim(), &runs),
    );
    let reading = format!("{pct:.1}% of plain throughput (floor {FLOOR_PCT}%), {ns:.0} ns/event");
    if pct < FLOOR_PCT {
        return Err(format!("observability overhead too high: {reading}"));
    }
    Ok(format!("obs smoke: OK ({reading}, {OBS_REPEATS} pairs)"))
}

/// The plain run's median clock, and the observed run at its median
/// slowdown against the plain run *of the same pair*. A ratio of two
/// minima is not a measurement on a shared host: one run in five lands in a
/// spell where the machine is a quarter faster, and whichever side catches
/// more of those wins — best-of-3 and best-of-11 of unchanged code both
/// read anywhere from 67% to 115% of plain. Back-to-back runs share their
/// spell, so the per-pair ratio cancels it, and the median sheds the pairs
/// a spell boundary split: over 150 pairs of one binary, windows of 11
/// pairs spread ±5 points, of 21 ±4, of 31 ±2 (±3 on the noisiest sample)
/// — about 6 s of gate for a floor that does not flake.
fn paired_with_plain(walls: &[[f64; 2]]) -> [f64; 2] {
    let plain = median(walls.iter().map(|w| w[0]));
    [plain, plain * median(walls.iter().map(|w| w[1] / w[0]))]
}

fn median(samples: impl Iterator<Item = f64>) -> f64 {
    let mut sorted = Histogram::default();
    samples.for_each(|x| sorted.record(x));
    sorted.percentile(50.0)
}

/// Throughput of `f` against the plain (first) run of the pair, %. Both
/// clocks are advisory but measured back to back in one invocation, so
/// machine speed cancels ([`paired_with_plain`]).
fn pct_of_plain(f: &SimRun, pair: &[Finished]) -> f64 {
    events_per_sec(&f.outcome) / events_per_sec(&pair[0].sim().outcome) * 100.0
}

/// What observing costs per event on this host, ns: `f`'s clock less the
/// plain run's, over the events both executed. The ratio above moves
/// whenever the plain path gets faster or slower; this does not.
fn observer_ns_per_event(f: &SimRun, pair: &[Finished]) -> f64 {
    let (observed, plain) = (&f.outcome, &pair[0].sim().outcome);
    (observed.wall_ms - plain.wall_ms) * 1e6 / observed.sim_events as f64
}

/// The two-row overhead comparison the gate writes as `e11_obs.json`: the
/// same simulation with and without the full observability surface. Sim
/// events and dead letters are exact; wall and throughput columns are
/// advisory ([`paired_with_plain`] over [`OBS_REPEATS`] pairs on the
/// measuring host).
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
        let digest = |f: &SimRun| f.shared.live.sim.digest();
        match c.this().spec.obs {
            Some(_) if digest(c.this()) == digest(c.runs[0].sim()) => "yes",
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
