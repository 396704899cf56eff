//! The experiment manifest and the one runner behind it.
//!
//! Every table `run_experiments` prints is a row of [`EXPERIMENTS`]. The
//! offline ones (E1, E2, E8, E10a: consolidation algorithms on generated
//! instances, no simulated hierarchy) bring their own `fn() -> Table`.
//! Every other table is *scenario-backed*: the row carries the text of
//! the checked-in `scenarios/<slug>.toml` — the file **is** the experiment,
//! its `[[sweep]]` the sweep and its `[override.smoke]` a reduced shape — and
//! the table is a list of [`Column`]s evaluated over the finished runs by
//! [`tabulate`], the same function `--scenario <file>` uses with
//! [`SUMMARY`]. A new experiment costs a TOML file, a manifest row and a
//! golden file; there is no Rust per experiment.

use std::collections::BTreeMap;

use snooze_scenario::spec::{ScenarioDoc, ScenarioSpec};
use snooze_scenario::{FaultOutcome, ScenarioOutcome, ScenarioRun, WindowStatus};
use snooze_simcore::flight::ProfileRow;

use crate::table::{f1, f2, pct, Table};
use crate::{
    e10_distributed_consolidation as e10, e1_aco_vs_ffd_vs_optimal as e1, e2_scaling as e2,
    e8_ablations as e8,
};

/// One finished scenario of a table.
pub struct Finished {
    /// The spec that ran.
    pub spec: ScenarioSpec,
    /// The live system and everything it measured.
    pub run: ScenarioRun,
    /// The profiler's rows, busiest first (empty without `[obs] profile`).
    /// Kept beside the run because flushing them needs `&mut` and cells
    /// only ever see `&`.
    pub profile: Vec<ProfileRow>,
}

/// Run every spec, in order, through the scenario compiler. With
/// `watch`, every closed metric window prints a status line as the run
/// progresses (`[obs]` scenarios only — others close no windows).
pub fn run_specs(specs: &[ScenarioSpec], watch: bool) -> Result<Vec<Finished>, String> {
    let run_one = |spec: &ScenarioSpec| {
        eprintln!("[scenario] {} …", spec.name);
        let mut print_status = |s: &WindowStatus| {
            eprintln!(
                "[watch] {} w{:>3} t={:>6}s rows={:<3} alerts={} queue={} dead={}",
                spec.name,
                s.window,
                secs(s.at),
                s.rows,
                s.alerts,
                s.queue_depth,
                s.dead_letters,
            );
        };
        let cb = watch.then_some(&mut print_status as &mut dyn FnMut(&WindowStatus));
        let mut run = snooze_scenario::run_watch(spec, cb)?;
        let profile = run.live.sim.profile_rows();
        Ok(Finished {
            spec: spec.clone(),
            run,
            profile,
        })
    };
    specs.iter().map(run_one).collect()
}

/// What a column function sees: one finished run among its siblings.
pub struct Cell<'a> {
    /// Every run of the table, in spec order.
    pub runs: &'a [Finished],
    /// Which run this row describes.
    pub index: usize,
    /// Which of the rows that run contributes (see [`RowsOf`]).
    pub sub: usize,
}

impl Cell<'_> {
    /// This row's run.
    pub fn this(&self) -> &Finished {
        &self.runs[self.index]
    }

    /// This row's measurements.
    pub fn o(&self) -> &ScenarioOutcome {
        &self.this().run.outcome
    }

    /// This row's fault phase ([`PER_FAULT`] tables).
    pub fn fault(&self) -> &FaultOutcome {
        &self.o().faults[self.sub]
    }
}

/// One table column.
pub struct Column {
    /// Header text.
    pub header: &'static str,
    /// Host wall-clock derived: differs on every run and machine, so the
    /// goldens drop it.
    pub advisory: bool,
    /// The cell text for one row.
    pub cell: fn(&Cell) -> String,
}

/// A deterministic column.
pub const fn col(header: &'static str, cell: fn(&Cell) -> String) -> Column {
    Column {
        header,
        advisory: false,
        cell,
    }
}

/// A host wall-clock column.
pub const fn advisory(header: &'static str, cell: fn(&Cell) -> String) -> Column {
    Column {
        advisory: true,
        ..col(header, cell)
    }
}

/// How many rows a finished run contributes to a table.
pub type RowsOf = fn(&Finished) -> usize;
/// One row per run.
pub const PER_RUN: RowsOf = |_| 1;
/// One row per fault phase of every run.
pub const PER_FAULT: RowsOf = |f| f.run.outcome.faults.len();

/// Evaluate `columns` over `runs`: the one scenario → table renderer.
pub fn tabulate(title: &str, columns: &[Column], rows: RowsOf, runs: &[Finished]) -> Table {
    let headers: Vec<&str> = columns.iter().map(|c| c.header).collect();
    let wall = columns.iter().filter(|c| c.advisory).map(|c| c.header);
    let mut t = Table::new(title, &headers).advisory(&wall.collect::<Vec<_>>());
    for (index, f) in runs.iter().enumerate() {
        for sub in 0..rows(f) {
            let cell = Cell { runs, index, sub };
            t.row(columns.iter().map(|c| (c.cell)(&cell)).collect());
        }
    }
    t
}

/// A scenario-backed table: which document to run and how to print it.
pub struct ScenarioTable {
    /// Table title; `{placed}` stands for the first run's placed count
    /// at the end of its first settle phase (E6).
    pub title: &'static str,
    /// The text of `scenarios/<slug>.toml`, compiled in.
    pub scenario: &'static str,
    /// The columns, in print order.
    pub columns: &'static [Column],
    /// Row expansion.
    pub rows: RowsOf,
}

impl ScenarioTable {
    /// Render finished runs (of the document, or of a reduced shape of
    /// it) as this table.
    pub fn render(&self, runs: &[Finished]) -> Table {
        let placed = runs
            .first()
            .and_then(|f| f.run.outcome.settle_placed)
            .unwrap_or(0);
        let title = self.title.replace("{placed}", &placed.to_string());
        tabulate(&title, self.columns, self.rows, runs)
    }
}

/// Where a table's rows come from.
pub enum Source {
    /// Consolidation algorithms on generated instances; no scenario.
    Offline(fn() -> Table),
    /// A checked-in scenario document through the generic runner.
    Scenarios(ScenarioTable),
}

/// One table of the evaluation.
pub struct Experiment {
    /// File stem of the `--csv`/`--json` outputs, of
    /// `tests/golden/<slug>.json` and of `scenarios/<slug>.toml`.
    pub slug: &'static str,
    /// The positional argument that selects it (`e7` selects e7 and e7b).
    pub cli: &'static str,
    /// Too heavy for a bare `run_experiments` or `all`: runs only when
    /// named.
    pub explicit_only: bool,
    /// How to produce it.
    pub source: Source,
}

impl Experiment {
    /// Run the experiment at its default scale.
    pub fn table(&self) -> Table {
        match &self.source {
            Source::Offline(table) => table(),
            Source::Scenarios(t) => {
                t.render(&run_specs(&self.specs(Ok), false).expect("checked-in scenario compiles"))
            }
        }
    }

    /// The runs of `scenarios/<slug>.toml` once `shape` has had the
    /// document: `Ok` for the experiment itself, `|d| d.profile("smoke")`
    /// for its reduced shape, `|d| d.patch(..)` for a test's own sweep. The
    /// file is compiled in, so an error is a panic — naming file and run.
    pub fn specs(
        &self,
        shape: impl FnOnce(ScenarioDoc) -> Result<ScenarioDoc, String>,
    ) -> Vec<ScenarioSpec> {
        let table = self.scenarios().expect("scenario-backed experiment");
        ScenarioDoc::parse(table.scenario)
            .and_then(shape)
            .and_then(|doc| doc.expand())
            .unwrap_or_else(|e| panic!("scenarios/{}.toml: {e}", self.slug))
    }

    /// The scenario-backed half, if this is one.
    pub fn scenarios(&self) -> Option<&ScenarioTable> {
        match &self.source {
            Source::Offline(_) => None,
            Source::Scenarios(t) => Some(t),
        }
    }
}

/// The manifest entry with this slug.
pub fn find(slug: &str) -> &'static Experiment {
    EXPERIMENTS
        .iter()
        .find(|e| e.slug == slug)
        .unwrap_or_else(|| panic!("no experiment `{slug}` in the manifest"))
}

/// A sim-time instant in whole seconds.
pub(crate) fn secs(at: snooze_simcore::SimTime) -> String {
    (at.as_micros() / 1_000_000).to_string()
}

/// Simulated events per wall-clock second (NaN when the clock read 0 ms).
pub fn events_per_sec(o: &ScenarioOutcome) -> f64 {
    if o.wall_ms > 0.0 {
        o.sim_events as f64 / (o.wall_ms / 1000.0)
    } else {
        f64::NAN
    }
}

pub(crate) const SCENARIO: Column = col("scenario", |c| c.o().name.clone());
const LCS: Column = col("LCs", |c| c.o().lcs.to_string());
const VMS: Column = col("VMs", |c| c.o().requested_vms.to_string());
const GMS: Column = col("GMs", |c| (c.o().managers - 1).to_string());
const PLACED: Column = col("placed", |c| c.o().placed.to_string());
const REJECTED: Column = col("rejected", |c| c.o().rejected.to_string());
const MEAN_LAT: Column = col("mean lat s", |c| f2(c.o().mean_latency_s));
const P95_LAT: Column = col("p95 lat s", |c| f2(c.o().p95_latency_s));
const ENERGY: Column = col("energy Wh", |c| f2(c.o().energy_wh));
const MIGRATIONS: Column = col("migrations", |c| c.o().migrations.to_string());
const SUSPENDS: Column = col("suspends", |c| c.o().suspends.to_string());
const NODES_ON: Column = col("nodes on", |c| c.o().nodes_on_end.to_string());
const MEAN_NODES_ON: Column = col("mean nodes on", |c| f2(c.o().mean_nodes_on));
const MEAN_PERF: Column = col("mean perf", |c| f2(c.o().mean_performance));
const SLA_VIOL: Column = col("SLA viol", |c| c.o().sla_violations.to_string());
const SLA_SAMPLES: Column = col("SLA samples", |c| c.o().sla_samples.to_string());
pub(crate) const SIM_EVENTS: Column = col("sim events", |c| c.o().sim_events.to_string());
pub(crate) const DEAD_LETTERS: Column = col("dead letters", |c| c.o().dead_letters.to_string());
pub(crate) const FAULT_AT: Column = col("at s", |c| secs(c.fault().at));
pub(crate) const FAULT_VMS_AFTER: Column = col("VMs after", |c| c.fault().vms_after.to_string());
pub(crate) const WALL_MS: Column = advisory("wall ms", |c| f2(c.o().wall_ms));
pub(crate) const EVENTS_PER_S: Column = advisory("events/s", |c| match events_per_sec(c.o()) {
    eps if eps.is_nan() => "-".into(),
    eps => format!("{eps:.0}"),
});

/// The generic per-run columns `--scenario <file>` prints.
pub const SUMMARY: &[Column] = &[
    SCENARIO,
    col("seed", |c| c.o().seed.to_string()),
    col("requested", |c| c.o().requested_vms.to_string()),
    PLACED,
    REJECTED,
    ENERGY,
    MIGRATIONS,
    SUSPENDS,
    NODES_ON,
    col("VMs end", |c| c.o().total_vms_end.to_string()),
    SIM_EVENTS,
    DEAD_LETTERS,
    WALL_MS,
    EVENTS_PER_S,
];

/// Recovery time of the fault phase labelled `label` (NaN = never, or no
/// such phase).
fn recovery(o: &ScenarioOutcome, label: &str) -> f64 {
    o.faults
        .iter()
        .find(|f| f.label == label)
        .map_or(f64::NAN, |f| f.recovery_s)
}

/// The `dead_letters{reason,msg}` counters summed per message variant,
/// worst first (ties broken alphabetically, so the order is stable).
fn dead_letter_breakdown(run: &ScenarioRun) -> Vec<(&str, u64)> {
    let mut by_variant: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, labels, n) in run.live.sim.metrics().counters_iter() {
        if name == "dead_letters" {
            *by_variant
                .entry(labels.get("msg").unwrap_or("unclassified"))
                .or_insert(0) += n;
        }
    }
    let mut rows: Vec<(&str, u64)> = by_variant.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    rows
}

/// One E14 cell: `(algo, power model, [SLA violations, energy Wh,
/// migrations])`.
pub type ArenaPoint<'a> = (&'a str, &'a str, [f64; 3]);

fn arena_point(f: &Finished) -> ArenaPoint<'_> {
    let o = &f.run.outcome;
    let reconfiguration = f.spec.config.reconfiguration.as_ref();
    let power = f.spec.power.as_ref().and_then(|p| p.default.as_deref());
    let objectives = [o.sla_violations as f64, o.energy_wh, o.migrations as f64];
    (
        reconfiguration.map_or("none", |r| &r.algo),
        power.unwrap_or("grid5000"),
        objectives,
    )
}

/// Pareto flags, one per point: `true` when no other point *under the
/// same power model* dominates it — is no worse on every objective and
/// strictly better on at least one.
fn pareto_flags(points: &[ArenaPoint]) -> Vec<bool> {
    let dominates = |a: &[f64; 3], b: &[f64; 3]| a != b && a.iter().zip(b).all(|(a, b)| a <= b);
    let beaten = |(_, power, r): &ArenaPoint| {
        let rival = |(_, p, o): &ArenaPoint| p == power && dominates(o, r);
        points.iter().any(rival)
    };
    points.iter().map(|r| !beaten(r)).collect()
}

/// What the E7 table calls the three runs of `scenarios/e7.toml`.
const E7_LABELS: [&str; 3] = ["no power mgmt", "suspend only", "suspend + ACO reconf"];

const fn offline(slug: &'static str, cli: &'static str, table: fn() -> Table) -> Experiment {
    Experiment {
        slug,
        cli,
        explicit_only: false,
        source: Source::Offline(table),
    }
}

const fn scenarios(
    slug: &'static str,
    cli: &'static str,
    explicit_only: bool,
    title: &'static str,
    scenario: &'static str,
    rows: RowsOf,
    columns: &'static [Column],
) -> Experiment {
    Experiment {
        slug,
        cli,
        explicit_only,
        source: Source::Scenarios(ScenarioTable {
            title,
            scenario,
            columns,
            rows,
        }),
    }
}

/// Every table of the evaluation, in print order.
pub const EXPERIMENTS: &[Experiment] = &[
    offline("e1", "e1", || e1::render(&e1::default_rows())),
    offline("e2", "e2", || e2::render(&e2::default_rows())),
    scenarios(
        "e4",
        "e4",
        false,
        "E4: submission scalability on a 144-LC hierarchy (paper: scalable up to 500 VMs)",
        include_str!("../../../scenarios/e4.toml"),
        PER_RUN,
        &[
            VMS, LCS, PLACED, REJECTED, MEAN_LAT, P95_LAT, SIM_EVENTS, WALL_MS,
        ],
    ),
    scenarios(
        "e5",
        "e5",
        false,
        "E5: distributed-management overhead — 1 GM (centralized) vs many (paper: negligible cost)",
        include_str!("../../../scenarios/e5.toml"),
        PER_RUN,
        &[
            GMS,
            PLACED,
            MEAN_LAT,
            P95_LAT,
            col("messages", |c| c.o().messages.to_string()),
            col("msgs/VM", |c| {
                let o = c.o();
                f2(if o.placed > 0 {
                    o.messages as f64 / o.placed as f64
                } else {
                    0.0
                })
            }),
        ],
    ),
    scenarios(
        "e6",
        "e6",
        false,
        "E6: fault tolerance — {placed} VMs placed; failures injected (paper: no impact on application performance)",
        include_str!("../../../scenarios/e6.toml"),
        PER_FAULT,
        &[
            col("event", |c| c.fault().label.clone()),
            FAULT_AT,
            col("perf after", |c| f2(c.fault().perf_after)),
            FAULT_VMS_AFTER,
            col("recovery s", |c| {
                let s = c.fault().recovery_s;
                if s.is_nan() {
                    // The observation window is 90 × 2 s: a NaN means
                    // the recovery condition never held within it.
                    "never (>180 s)".into()
                } else {
                    f2(s)
                }
            }),
        ],
    ),
    scenarios(
        "e7",
        "e7",
        false,
        "E7: cluster energy under power management (paper §III: suspend idle nodes, drain underloaded ones, consolidate)",
        include_str!("../../../scenarios/e7.toml"),
        PER_RUN,
        &[
            col("config", |c| E7_LABELS[c.index].to_string()),
            ENERGY,
            col("savings", |c| {
                pct(1.0 - c.o().energy_wh / c.runs[0].run.outcome.energy_wh)
            }),
            MIGRATIONS,
            SUSPENDS,
            MEAN_NODES_ON,
            PLACED,
        ],
    ),
    scenarios(
        "e7b",
        "e7",
        false,
        "E7b: idle-threshold sweep — energy vs suspend churn",
        include_str!("../../../scenarios/e7b.toml"),
        PER_RUN,
        &[
            col("threshold s", |c| {
                let ms = c.this().spec.config.idle_suspend_ms.unwrap_or(f64::NAN);
                ((ms / 1e3) as u64).to_string()
            }),
            ENERGY,
            SUSPENDS,
            col("wakeups", |c| c.o().wakeups.to_string()),
            PLACED,
        ],
    ),
    offline("e8a", "e8", || e8::render_aco(&e8::default_aco_rows())),
    offline("e8b", "e8", || e8::render_ffd(&e8::default_ffd_rows())),
    scenarios(
        "e9",
        "e9",
        false,
        "E9: self-healing latency vs heartbeat/session knobs (§II-D/E ablation)",
        include_str!("../../../scenarios/e9.toml"),
        PER_RUN,
        &[
            col("session s", |c| {
                let knobs = c.this().spec.config.knobs.as_ref();
                f1(knobs.map_or(f64::NAN, |k| k.session_ms / 1e3))
            }),
            col("heartbeat s", |c| {
                let knobs = c.this().spec.config.knobs.as_ref();
                f1(knobs.map_or(f64::NAN, |k| k.heartbeat_ms / 1e3))
            }),
            col("GL failover s", |c| f1(recovery(c.o(), "GL failover"))),
            col("LC rejoin s", |c| f1(recovery(c.o(), "LC rejoin"))),
        ],
    ),
    offline("e10a", "e10", || {
        e10::render_offline(&e10::default_offline_rows())
    }),
    scenarios(
        "e10b",
        "e10",
        false,
        "E10b: per-GM reconfiguration in the hierarchy — consolidation scope vs GM count",
        include_str!("../../../scenarios/e10b.toml"),
        PER_RUN,
        &[GMS, NODES_ON, ENERGY, MIGRATIONS, PLACED],
    ),
    scenarios(
        "e11",
        "e11",
        true,
        "E11: kilonode scale (1024 LCs, 5000 VMs; paper testbed was 144 nodes / 500 VMs)",
        include_str!("../../../scenarios/e11.toml"),
        PER_RUN,
        &[
            SCENARIO,
            LCS,
            VMS,
            PLACED,
            REJECTED,
            MEAN_LAT,
            P95_LAT,
            col("GL reelect s", |c| {
                // NaN in the fault-free smoke shape.
                match c.o().faults.first() {
                    Some(f) if !f.recovery_s.is_nan() => f2(f.recovery_s),
                    _ => "-".into(),
                }
            }),
            SIM_EVENTS,
            DEAD_LETTERS,
            // Worst-offending `dead_letters{msg=..}` variant: attributes
            // the fault shape's dead letters to the protocol traffic
            // that was in flight toward the dead manager.
            col("top dead letter", |c| {
                dead_letter_breakdown(&c.this().run)
                    .first()
                    .map_or_else(|| "-".into(), |(v, n)| format!("{v} x{n}"))
            }),
            // The three busiest `(component kind, message variant)`
            // handlers by deterministic event count.
            col("top handlers", |c| {
                let top: Vec<String> = c
                    .this()
                    .profile
                    .iter()
                    .take(3)
                    .map(|r| format!("{}/{} x{}", r.kind, r.variant, r.events))
                    .collect();
                if top.is_empty() {
                    "-".into()
                } else {
                    top.join("; ")
                }
            }),
            WALL_MS,
            EVENTS_PER_S,
        ],
    ),
    scenarios(
        "e12_trace",
        "e12",
        true,
        "E12: trace-driven consolidation — ACO vs FFD under a diurnal VM trace",
        include_str!("../../../scenarios/e12_trace.toml"),
        PER_RUN,
        &[
            SCENARIO,
            LCS,
            VMS,
            PLACED,
            REJECTED,
            ENERGY,
            MIGRATIONS,
            SUSPENDS,
            MEAN_NODES_ON,
            MEAN_PERF,
            SLA_VIOL,
            SLA_SAMPLES,
            DEAD_LETTERS,
            WALL_MS,
        ],
    ),
    scenarios(
        "e14_arena",
        "e14",
        true,
        "E14: consolidation arena — algorithm × power model, Pareto on (energy, SLA, migrations)",
        include_str!("../../../scenarios/e14_arena.toml"),
        PER_RUN,
        &[
            SCENARIO,
            col("algo", |c| arena_point(c.this()).0.to_string()),
            col("power", |c| arena_point(c.this()).1.to_string()),
            LCS,
            VMS,
            PLACED,
            REJECTED,
            ENERGY,
            MIGRATIONS,
            SUSPENDS,
            MEAN_NODES_ON,
            MEAN_PERF,
            SLA_VIOL,
            SLA_SAMPLES,
            DEAD_LETTERS,
            col("pareto", |c| {
                let points: Vec<ArenaPoint> = c.runs.iter().map(arena_point).collect();
                if pareto_flags(&points)[c.index] { "*" } else { "" }.to_string()
            }),
            WALL_MS,
        ],
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn run(specs: &[ScenarioSpec]) -> Vec<Finished> {
        run_specs(specs, false).expect("reduced scenario compiles")
    }

    fn render(slug: &str, runs: &[Finished]) -> Table {
        let table = find(slug).scenarios().expect("scenario-backed");
        table.render(runs)
    }

    #[test]
    fn e5_distribution_does_not_degrade_latency() {
        // 24 VMs on 16 LCs under 1 and 4 GMs.
        let small = "[topology]\nlcs = 16\n\
                     [[sweep]]\nname = [\"e5-1gm\", \"e5-4gm\"]\nseed = [30, 27]\n\
                     [sweep.topology]\nmanagers = [2, 5]\n[[sweep.workload]]\nn = [24, 24]\n";
        let runs = run(&find("e5").specs(|d| d.patch(small)));
        let (central, spread) = (&runs[0].run.outcome, &runs[1].run.outcome);
        assert_eq!((central.placed, spread.placed), (24, 24));
        // The distributed hierarchy must be within 2× of centralized
        // latency (the paper claims "negligible" — shape, not exactness).
        assert!(spread.mean_latency_s <= central.mean_latency_s * 2.0 + 2.0);
    }

    #[test]
    fn e6_management_failures_do_not_hurt_application_performance() {
        let runs = run(&find("e6").specs(|d| d.patch("seed = 17\n")));
        let o = &runs[0].run.outcome;
        let placed = o.settle_placed.unwrap_or(0);
        assert!(placed >= 40, "most of the burst placed: {placed}");
        let (gl, gm, lc) = (&o.faults[0], &o.faults[1], &o.faults[2]);
        assert!(gl.perf_after > 0.99, "GL crash degraded VMs: {gl:?}");
        assert!(gm.perf_after > 0.99, "GM crash degraded VMs: {gm:?}");
        assert!(gl.recovery_s <= 120.0 && gm.recovery_s <= 120.0);
        // Snapshot recovery restores the LC's VMs.
        assert!(lc.vms_after >= gm.vms_after, "not rescheduled: {lc:?}");
        let table = render("e6", &runs);
        assert_eq!(table.len(), 3, "one row per fault phase");
        let title = format!("E6: fault tolerance — {placed} VMs placed;");
        assert!(table.render().contains(&title));
    }

    #[test]
    fn e6_never_recovering_rows_render_explicitly() {
        // Without snapshot rescheduling the crashed LC's VMs never come
        // back: the recovery condition stays false for the whole window.
        let no_snapshots = "seed = 17\n[config]\nreschedule_on_lc_failure = false\n";
        let runs = run(&find("e6").specs(|d| d.patch(no_snapshots)));
        assert!(runs[0].run.outcome.faults[2].recovery_s.is_nan());
        assert!(render("e6", &runs).render().contains("never (>180 s)"));
    }

    #[test]
    fn e7_power_management_saves_energy_without_losing_placements() {
        // The checked-in fleet for half an hour instead of two.
        let short = "[[phase]]\nevery_ms = 60000.0\nkind = \"sample_to\"\nt_ms = 1800000.0\n";
        let runs = run(&find("e7").specs(|d| d.patch(short)));
        let (no_pm, pm) = (&runs[0].run.outcome, &runs[1].run.outcome);
        assert_eq!((no_pm.placed, pm.placed), (48, 48));
        assert!(pm.energy_wh < no_pm.energy_wh, "suspend must save energy");
        assert!(pm.suspends > 0);
        assert!(pm.mean_nodes_on < no_pm.mean_nodes_on);
        let csv = render("e7", &runs).to_csv();
        assert!(
            csv.contains("\nno power mgmt,"),
            "labels, and savings against row 0"
        );
        assert!(csv
            .lines()
            .nth(1)
            .is_some_and(|baseline| baseline.contains(",0.0%,")));
    }

    #[test]
    fn e9_healing_latency_scales_with_timeouts() {
        let two = "[[sweep]]\nname = [\"e9-s3\", \"e9-s20\"]\nseed = [5, 5]\n\
                   [sweep.config.knobs]\nheartbeat_ms = [500.0, 5000.0]\n\
                   session_ms = [3000.0, 20000.0]\n";
        let runs = run(&find("e9").specs(|d| d.patch(two)));
        let heal = |f: &Finished| {
            let o = &f.run.outcome;
            (recovery(o, "GL failover"), recovery(o, "LC rejoin"))
        };
        let (fast, slow) = (heal(&runs[0]), heal(&runs[1]));
        assert!([fast.0, fast.1, slow.0, slow.1]
            .iter()
            .all(|s| s.is_finite()));
        assert!(fast.0 < slow.0, "shorter sessions heal faster");
        assert!(fast.1 < slow.1, "shorter heartbeats rejoin faster");
        // Failover is bounded by a small multiple of the session timeout.
        assert!(fast.0 <= 4.0 * 3.0 + 5.0);
    }

    #[test]
    fn e10b_consolidation_powers_down_nodes_at_any_gm_count() {
        // 10 VMs on 10 LCs under 1 and 2 GMs.
        let small = "[topology]\nlcs = 10\n\
                     [[sweep]]\nname = [\"e10b-1gm\", \"e10b-2gm\"]\nseed = [8, 11]\n\
                     [sweep.topology]\nmanagers = [2, 3]\n[[sweep.workload]]\nn = [10, 10]\n";
        for f in run(&find("e10b").specs(|d| d.patch(small))) {
            let o = &f.run.outcome;
            assert_eq!(o.placed, 10, "{}", o.name);
            assert!(o.nodes_on_end < 10, "{}: no node emptied", o.name);
        }
    }

    #[test]
    fn e14_arena_cells_run_and_admission_is_uniform() {
        // Two algorithms × two power models on 12 LCs and the first 40
        // trace VMs; a block's leaves are zipped, so `max_vms` rides along.
        let small = "seed = 20\n[topology]\nlcs = 12\n\
                     [[sweep]]\n[sweep.config.reconfiguration]\nalgo = [\"ffd\", \"mo-aco\"]\n\
                     [[sweep]]\n[sweep.power]\ndefault = [\"grid5000\", \"dvfs3_billed\"]\n\
                     [[sweep.workload]]\nmax_vms = [40, 40]\n";
        let runs = run(&find("e14_arena").specs(|d| d.patch(small)));
        assert_eq!(runs.len(), 4, "full cross product");
        let o = |i: usize| &runs[i].run.outcome;
        for i in 0..4 {
            assert!(o(i).placed > 0 && o(i).energy_wh > 0.0, "{}", o(i).name);
            assert_eq!(o(i).dead_letters, 0, "{}", o(i).name);
            // Placement is round-robin: admission cannot depend on the cell.
            assert_eq!(o(i).placed, o(0).placed);
        }
        // Same algorithm, same event history: the power model only
        // changes the billing, never the digest-bearing decisions — so
        // migrations agree across the power axis.
        assert_eq!(o(0).migrations, o(1).migrations);
        assert_eq!(o(2).migrations, o(3).migrations);
        let csv = render("e14_arena", &runs).to_csv();
        assert!(csv.contains("\ne14-mo-aco-dvfs3_billed,mo-aco,dvfs3_billed,12,40,"));
    }

    #[test]
    fn pareto_flags_mark_non_dominated_points_per_power_model() {
        let points = [
            ("a", "p", [0.0, 100.0, 10.0]), // dominated by c
            ("b", "p", [0.0, 120.0, 5.0]),  // pareto: fewest migrations
            ("c", "p", [0.0, 90.0, 10.0]),  // pareto: least energy
            ("d", "q", [9.0, 500.0, 99.0]), // alone under q: trivially pareto
        ];
        assert_eq!(pareto_flags(&points), vec![false, true, true, true]);
    }
}
