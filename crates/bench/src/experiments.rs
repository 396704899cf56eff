//! The experiment manifest and the one runner behind it.
//!
//! Every table `run_experiments` prints is a row of [`EXPERIMENTS`], and
//! every row carries the text of the checked-in `scenarios/<slug>.toml`:
//! the file **is** the experiment, its `[[sweep]]` the sweep and its
//! `[override.smoke]` a reduced shape. Most files simulate the hierarchy;
//! a `[pack]` file (E1, E2, E8, E10a) packs generated instances with
//! registry consolidators and simulates nothing. Both kinds expand through
//! one [`ScenarioDoc`], run through [`run_specs`], and become a table as a
//! list of [`Column`]s evaluated over the finished runs by [`tabulate`],
//! the same function `--scenario <file>` uses with [`SUMMARY`]. A new
//! experiment costs a TOML file, a manifest row and a golden file; there
//! is no Rust per experiment.
//!
//! A power model decides nothing: it only turns a power state and a
//! utilization into watts. So consecutive runs that differ only in name,
//! description and power model share one engine run, and each is billed
//! by its own meter ([`run_specs`]); E14's 15 cells are 5 engines.

use std::collections::BTreeMap;
use std::rc::Rc;

use snooze_consolidation::registry::ParamValue;
use snooze_scenario::incident::IncidentDoc;
use snooze_scenario::pack::{self, PackOutcome, PackSpec, Packed};
use snooze_scenario::spec::{RunSpec, ScenarioDoc, ScenarioSpec};
use snooze_scenario::{FaultOutcome, GroupRun, LiveSystem, ScenarioOutcome, WindowStatus};
use snooze_simcore::flight::ProfileRow;
use snooze_simcore::telemetry::WindowLog;

use crate::table::{f1, f2, pct, Table};

/// One finished run of a table.
pub enum Finished {
    /// A simulated hierarchy (boxed: it holds the whole live system).
    Sim(Box<SimRun>),
    /// Consolidators on generated instances.
    Pack(PackRun),
}

/// One finished simulated scenario.
pub struct SimRun {
    /// The spec that ran.
    pub spec: ScenarioSpec,
    /// What it measured: its own name and its own meter's energy, every
    /// other field from the shared run.
    pub outcome: ScenarioOutcome,
    /// Incident dumps captured during the run, named for this spec.
    pub incidents: Vec<IncidentDoc>,
    /// The engine run this spec shares with its neighbours that differ
    /// from it only in power model.
    pub shared: Rc<SharedRun>,
}

/// One engine run and what it recorded, shared by every spec it billed.
pub struct SharedRun {
    /// The live system after the program ran (spans, metrics, digests).
    pub live: LiveSystem,
    /// The windowed time-series (`Some` with an `[obs]` table).
    pub windows: Option<WindowLog>,
    /// The profiler's rows, busiest first (empty without `[obs] profile`).
    /// Kept beside the run because flushing them needs `&mut` and cells
    /// only ever see `&`.
    pub profile: Vec<ProfileRow>,
}

/// One finished pack run.
pub struct PackRun {
    /// The spec that ran.
    pub spec: PackSpec,
    /// What each instance measured.
    pub outcome: PackOutcome,
}

impl SimRun {
    /// Write this run's exports into `dir` (see
    /// [`crate::scenario_cli::export_run`]).
    pub fn export(&self, dir: &std::path::Path) -> std::io::Result<()> {
        let windows = self.shared.windows.as_ref();
        crate::scenario_cli::export_run(&self.shared.live, windows, &self.incidents, dir)
    }
}

impl Finished {
    /// The simulated run. A table's columns read one kind of run, so a
    /// pack run here is a manifest row with the wrong column list.
    pub fn sim(&self) -> &SimRun {
        match self {
            Finished::Sim(run) => run,
            Finished::Pack(run) => panic!("{}: a pack run simulates nothing", run.spec.name),
        }
    }

    /// The pack run (see [`Finished::sim`]).
    pub fn pack(&self) -> &PackRun {
        match self {
            Finished::Pack(run) => run,
            Finished::Sim(run) => panic!("{}: a simulated run packs nothing", run.spec.name),
        }
    }
}

/// Run every spec, in order, and return one [`Finished`] per spec: a pack
/// through [`pack::run`], a simulated scenario through the scenario
/// compiler. Each maximal run of consecutive simulated specs that differ
/// only in name, description and power model
/// ([`ScenarioSpec::same_history`]) is one engine run
/// ([`snooze_scenario::run_group`]); a group of one is a plain run. With
/// `watch`, every closed metric window prints a status line as the run
/// progresses (`[obs]` scenarios only — others close no windows).
pub fn run_specs(specs: &[RunSpec], watch: bool) -> Result<Vec<Finished>, String> {
    let mut done = Vec::with_capacity(specs.len());
    let mut rest = specs;
    while let Some(first) = rest.first() {
        let ran = match first {
            RunSpec::Pack(spec) => {
                eprintln!("[scenario] {} …", spec.name);
                let outcome = pack::run(spec).map_err(|e| format!("{}: {e}", spec.name))?;
                let spec = spec.clone();
                done.push(Finished::Pack(PackRun { spec, outcome }));
                1
            }
            RunSpec::Sim(lead) => {
                let group: Vec<&ScenarioSpec> = rest
                    .iter()
                    .map_while(|spec| match spec {
                        RunSpec::Sim(spec) if lead.same_history(spec) => Some(&**spec),
                        _ => None,
                    })
                    .collect();
                done.extend(run_group(&group, watch)?);
                group.len()
            }
        };
        rest = &rest[ran..];
    }
    Ok(done)
}

/// Run `group` as one engine and hand each member its share of it.
fn run_group(group: &[&ScenarioSpec], watch: bool) -> Result<Vec<Finished>, String> {
    let names: Vec<&str> = group.iter().map(|spec| spec.name.as_str()).collect();
    let label = names.join(" + ");
    eprintln!("[scenario] {label} …");
    let mut print_status = |s: &WindowStatus| {
        eprintln!(
            "[watch] {label} w{:>3} t={:>6}s rows={:<3} alerts={} queue={} dead={}",
            s.window,
            secs(s.at),
            s.rows,
            s.alerts,
            s.queue_depth,
            s.dead_letters,
        );
    };
    let cb = watch.then_some(&mut print_status as &mut dyn FnMut(&WindowStatus));
    let GroupRun {
        mut live,
        windows,
        members,
    } = snooze_scenario::run_group(group, cb)?;
    let profile = live.sim.profile_rows();
    let shared = Rc::new(SharedRun {
        live,
        windows,
        profile,
    });
    let member = |(spec, member): (&&ScenarioSpec, snooze_scenario::Member)| {
        Finished::Sim(Box::new(SimRun {
            spec: ScenarioSpec::clone(spec),
            outcome: member.outcome,
            incidents: member.incidents,
            shared: Rc::clone(&shared),
        }))
    };
    Ok(group.iter().zip(members).map(member).collect())
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
    /// This row's run, simulated.
    pub fn this(&self) -> &SimRun {
        self.runs[self.index].sim()
    }

    /// This row's run, a pack.
    pub fn pack(&self) -> &PackRun {
        self.runs[self.index].pack()
    }

    /// This row's measurements.
    pub fn o(&self) -> &ScenarioOutcome {
        &self.this().outcome
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
pub const PER_FAULT: RowsOf = |f| f.sim().outcome.faults.len();

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

/// One table of the evaluation: which document to run and how to print it.
pub struct Experiment {
    /// File stem of `scenarios/<slug>.toml`, of `tests/golden/<slug>.json`
    /// and of the `--csv`/`--json` outputs.
    pub slug: &'static str,
    /// The positional argument that selects it (`e7` selects e7 and e7b).
    pub cli: &'static str,
    /// Too heavy for a bare `run_experiments` or `all`: runs only when
    /// named.
    pub explicit_only: bool,
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

impl Experiment {
    /// Run the experiment at its default scale.
    pub fn table(&self) -> Table {
        self.render(&run_specs(&self.specs(Ok), false).expect("checked-in scenario runs"))
    }

    /// The runs of `scenarios/<slug>.toml` once `shape` has had the
    /// document: `Ok` for the experiment itself, `|d| d.profile("smoke")`
    /// for its reduced shape, `|d| d.patch(..)` for a test's own sweep. The
    /// file is compiled in, so an error is a panic — naming file and run.
    pub fn specs(
        &self,
        shape: impl FnOnce(ScenarioDoc) -> Result<ScenarioDoc, String>,
    ) -> Vec<RunSpec> {
        ScenarioDoc::parse(self.scenario)
            .and_then(shape)
            .and_then(|doc| doc.runs())
            .unwrap_or_else(|e| panic!("scenarios/{}.toml: {e}", self.slug))
    }

    /// Render finished runs (of the document, or of a reduced shape of
    /// it) as this table.
    pub fn render(&self, runs: &[Finished]) -> Table {
        let placed = match runs.first() {
            Some(Finished::Sim(f)) => f.outcome.settle_placed.unwrap_or(0),
            _ => 0,
        };
        let title = self.title.replace("{placed}", &placed.to_string());
        tabulate(&title, self.columns, self.rows, runs)
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
fn dead_letter_breakdown(live: &LiveSystem) -> Vec<(&str, u64)> {
    let mut by_variant: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, labels, n) in live.sim.metrics().counters_iter() {
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

fn arena_point(f: &SimRun) -> ArenaPoint<'_> {
    let o = &f.outcome;
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

/// `of` averaged over the run's instances.
fn mean(run: &PackRun, of: fn(&Packed) -> f64) -> f64 {
    let instances = &run.outcome.instances;
    instances.iter().map(of).sum::<f64>() / instances.len() as f64
}

fn mean_hosts(run: &PackRun) -> f64 {
    mean(run, |p| p.hosts as f64)
}

/// The run of the table that packed this row's instances with `algo`:
/// same size, seed and instance count.
fn sibling<'a>(c: &Cell<'a>, algo: &str) -> Option<&'a PackRun> {
    let cell = |s: &PackSpec| (s.n, s.seed, s.instances);
    let this = cell(&c.pack().spec);
    let mut runs = c.runs.iter().map(Finished::pack);
    runs.find(|run| run.spec.algo == algo && cell(&run.spec) == this)
}

/// Over the instances the `bnb` sibling proved optimal: this row's hosts
/// and the optimum's, summed, and how many there were.
fn proven_hosts(c: &Cell) -> Option<(usize, usize, usize)> {
    let opt = sibling(c, "bnb")?;
    let pairs = c
        .pack()
        .outcome
        .instances
        .iter()
        .zip(&opt.outcome.instances);
    let proven = pairs.filter(|(_, o)| o.proven == Some(true));
    Some(proven.fold((0, 0, 0), |(this, best, k), (p, o)| {
        (this + p.hosts, best + o.hosts, k + 1)
    }))
}

/// A cell with nothing to show.
fn dash() -> String {
    "—".into()
}

const N: Column = col("n", |c| c.pack().spec.n.to_string());
const ALGO: Column = col("algo", |c| c.pack().outcome.label.into());
const HOSTS: Column = col("hosts", |c| f2(mean_hosts(c.pack())));
const UTIL: Column = col("util", |c| pct(mean(c.pack(), |p| p.util)));
const PACK_ENERGY: Column = advisory("energy Wh", |c| f2(mean(c.pack(), |p| p.energy_wh)));
const RUNTIME: Column = advisory("runtime ms", |c| f2(mean(c.pack(), |p| p.ms)));

/// The generic per-run columns `--scenario <file>` prints for a `[pack]`
/// document.
pub const PACK_SUMMARY: &[Column] = &[
    col("scenario", |c| c.pack().spec.name.clone()),
    N,
    col("instances", |c| c.pack().spec.instances.to_string()),
    ALGO,
    HOSTS,
    UTIL,
    PACK_ENERGY,
    RUNTIME,
];

const fn experiment(
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
        title,
        scenario,
        columns,
        rows,
    }
}

/// Every table of the evaluation, in print order.
pub const EXPERIMENTS: &[Experiment] = &[
    experiment(
        "e1",
        "e1",
        false,
        "E1: ACO vs FFD(cpu) vs optimal — hosts / utilization / energy (paper: 4.7% hosts, 4.1% energy saved; 1.1% from optimal)",
        include_str!("../../../scenarios/e1.toml"),
        PER_RUN,
        &[
            N,
            ALGO,
            HOSTS,
            UTIL,
            col("proven", |c| match proven_hosts(c) {
                Some((_, _, k)) => format!("{k}/{}", c.pack().spec.instances),
                None => dash(),
            }),
            col("OPT hosts", |c| match proven_hosts(c) {
                Some((_, best, k)) if k > 0 => f2(best as f64 / k as f64),
                _ => dash(),
            }),
            col("vs FFD", |c| match sibling(c, "ffd") {
                Some(ffd) => pct(1.0 - mean_hosts(c.pack()) / mean_hosts(ffd)),
                None => dash(),
            }),
            col("vs OPT (proven only)", |c| match proven_hosts(c) {
                Some((this, best, k)) if k > 0 => pct(this as f64 / best as f64 - 1.0),
                _ => dash(),
            }),
            PACK_ENERGY,
            RUNTIME,
        ],
    ),
    experiment(
        "e2",
        "e2",
        false,
        "E2: scaling — hosts / utilization / energy / runtime per algorithm",
        include_str!("../../../scenarios/e2.toml"),
        PER_RUN,
        &[N, ALGO, HOSTS, UTIL, PACK_ENERGY, RUNTIME],
    ),
    experiment(
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
    experiment(
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
    experiment(
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
    experiment(
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
                pct(1.0 - c.o().energy_wh / c.runs[0].sim().outcome.energy_wh)
            }),
            MIGRATIONS,
            SUSPENDS,
            MEAN_NODES_ON,
            PLACED,
        ],
    ),
    experiment(
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
    experiment(
        "e8a",
        "e8",
        false,
        "E8a: ACO parameter ablation (hosts lower = better)",
        include_str!("../../../scenarios/e8a.toml"),
        PER_RUN,
        &[
            col("setting", |c| c.pack().spec.name.clone()),
            HOSTS,
            RUNTIME,
        ],
    ),
    experiment(
        "e8b",
        "e8",
        false,
        "E8b: FFD presort-dimension ablation (§I: single-dimension presorts waste resources)",
        include_str!("../../../scenarios/e8b.toml"),
        PER_RUN,
        &[
            col("sort key", |c| match c.pack().spec.params.get("sort") {
                Some(ParamValue::Str(key)) => key.clone(),
                _ => dash(),
            }),
            HOSTS,
            UTIL,
        ],
    ),
    experiment(
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
    experiment(
        "e10a",
        "e10",
        false,
        "E10a: distributed vs centralized ACO (offline) — partitioning cost",
        include_str!("../../../scenarios/e10a.toml"),
        PER_RUN,
        &[N, ALGO, HOSTS, RUNTIME],
    ),
    experiment(
        "e10b",
        "e10",
        false,
        "E10b: per-GM reconfiguration in the hierarchy — consolidation scope vs GM count",
        include_str!("../../../scenarios/e10b.toml"),
        PER_RUN,
        &[GMS, NODES_ON, ENERGY, MIGRATIONS, PLACED],
    ),
    experiment(
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
                dead_letter_breakdown(&c.this().shared.live)
                    .first()
                    .map_or_else(|| "-".into(), |(v, n)| format!("{v} x{n}"))
            }),
            // The three busiest `(component kind, message variant)`
            // handlers by deterministic event count.
            col("top handlers", |c| {
                let top: Vec<String> = c
                    .this()
                    .shared
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
    experiment(
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
                let points: Vec<ArenaPoint> = c.runs.iter().map(|f| arena_point(f.sim())).collect();
                if pareto_flags(&points)[c.index] { "*" } else { "" }.to_string()
            }),
            WALL_MS,
        ],
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn run(specs: &[RunSpec]) -> Vec<Finished> {
        run_specs(specs, false).expect("reduced scenario compiles")
    }

    fn render(slug: &str, runs: &[Finished]) -> Table {
        find(slug).render(runs)
    }

    /// `slug`'s pack runs once `patch` has had the document.
    fn packs(slug: &str, patch: &str) -> Vec<Finished> {
        run(&find(slug).specs(|d| d.patch(patch)))
    }

    /// The row of `runs` whose consolidator is labelled `label` at size `n`.
    fn row<'a>(runs: &'a [Finished], n: usize, label: &str) -> Cell<'a> {
        let at = |f: &Finished| (f.pack().spec.n, f.pack().outcome.label) == (n, label);
        let index = runs.iter().position(at).expect("a run of that cell");
        Cell {
            runs,
            index,
            sub: 0,
        }
    }

    /// Run `label`'s mean hosts, or utilization, at size `n`.
    fn hosts(runs: &[Finished], n: usize, label: &str) -> f64 {
        mean_hosts(row(runs, n, label).pack())
    }

    fn util(runs: &[Finished], n: usize, label: &str) -> f64 {
        mean(row(runs, n, label).pack(), |p| p.util)
    }

    /// E1's three packers on `sizes` (a TOML array), `instances` each.
    fn e1_at(sizes: &str, instances: u64, seed: u64) -> Vec<Finished> {
        let patch = format!(
            "[pack]\ninstances = {instances}\nseed = {seed}\n\
             [[sweep]]\n[sweep.pack]\nn = {sizes}\n\
             [[sweep]]\n[sweep.pack]\nalgo = [\"ffd\", \"aco\", \"bnb\"]\n\
             params = [{{ sort = \"cpu\" }}, {{ seed = 225 }}, {{}}]\n"
        );
        packs("e1", &patch)
    }

    #[test]
    fn shape_matches_paper_claims() {
        // Small but real run: ACO ≥ as good as FFD, near-optimal.
        let runs = e1_at("[12, 18, 24]", 3, 7);
        let sizes = [12, 18, 24];
        let hosts_saved = |n| 1.0 - hosts(&runs, n, "ACO") / hosts(&runs, n, "FFD-cpu");
        let mean_hosts_saved: f64 = sizes.iter().map(|&n| hosts_saved(n)).sum::<f64>() / 3.0;
        // ACO's hosts over the optimum's on the proven instances, and how
        // many were proven.
        let vs_opt = |n| proven_hosts(&row(&runs, n, "ACO")).expect("a bnb sibling");
        // Every instance here is proven: n = 24 needs the waste of dead
        // bins to be counted, or one of its searches runs out of budget.
        for n in sizes {
            assert_eq!(vs_opt(n).2, 3, "n = {n}: all three proven");
        }
        let devs: Vec<f64> = sizes
            .iter()
            .map(|&n| vs_opt(n))
            .filter(|&(_, _, k)| k > 0)
            .map(|(aco, opt, _)| aco as f64 / opt as f64 - 1.0)
            .collect();
        let mean_dev: f64 = devs.iter().sum::<f64>() / devs.len() as f64;
        assert!(
            mean_hosts_saved >= 0.0,
            "ACO must not lose to FFD: {mean_hosts_saved}"
        );
        assert!(
            mean_dev <= 0.10,
            "ACO should be within 10% of optimal, got {mean_dev}"
        );
        for d in devs {
            assert!(d >= -1e-9, "nothing beats a proven optimum");
        }
        for n in sizes {
            assert!(
                util(&runs, n, "ACO") >= util(&runs, n, "FFD-cpu") - 1e-9,
                "fewer hosts ⇒ higher utilization"
            );
        }
    }

    #[test]
    fn render_has_row_per_size() {
        // One row per size and packer: three packers at each of two sizes.
        let table = render("e1", &e1_at("[10, 14]", 2, 3));
        assert_eq!(table.len(), 2 * 3);
        let csv = table.to_csv();
        for n in ["10", "14"] {
            let at_n = csv.lines().filter(|l| l.split(',').next() == Some(n));
            assert_eq!(at_n.count(), 3, "{csv}");
        }
    }

    #[test]
    fn aco_wins_or_ties_on_hosts_at_scale() {
        let runs = packs(
            "e2",
            "[pack]\ninstances = 2\nseed = 11\n[[sweep]]\nname = [\"ffd\", \"aco\"]\n\
             [sweep.pack]\nalgo = [\"ffd\", \"aco\"]\nn = [60, 60]\n\
             params = [{ sort = \"cpu\" }, {}]\n",
        );
        let (ffd, aco) = (row(&runs, 60, "FFD-cpu"), row(&runs, 60, "ACO"));
        let (ffd, aco) = (ffd.pack(), aco.pack());
        assert!(
            mean_hosts(aco) <= mean_hosts(ffd) + 1e-9,
            "ACO {} vs FFD {}",
            mean_hosts(aco),
            mean_hosts(ffd)
        );
        let energy = |run: &PackRun| mean(run, |p| p.energy_wh);
        assert!(
            energy(aco) <= energy(ffd) * 1.02,
            "energy should track host count"
        );
        // Greedy baselines are orders of magnitude faster — that's the
        // trade-off the paper acknowledges.
        let runtime = |run: &PackRun| mean(run, |p| p.ms);
        assert!(runtime(aco) > runtime(ffd));
    }

    #[test]
    fn multi_dimension_sorts_beat_or_match_single_dimension() {
        let runs = packs("e8b", "[pack]\ninstances = 4\nn = 80\nseed = 3\n");
        let hosts = |k: &str| hosts(&runs, 80, k);
        let single_best = hosts("FFD-cpu").min(hosts("FFD-mem"));
        let multi_best = hosts("FFD-l1").min(hosts("FFD-l2")).min(hosts("FFD-linf"));
        assert!(
            multi_best <= single_best + 1e-9,
            "multi-dim {multi_best} vs single-dim {single_best}"
        );
    }

    #[test]
    fn more_search_does_not_hurt_quality() {
        let runs = packs("e8a", "[pack]\ninstances = 2\nn = 40\nseed = 9\n");
        let hosts = |setting: &str| {
            let run = runs.iter().find(|f| f.pack().spec.name == setting);
            mean_hosts(run.expect("a run of that setting").pack())
        };
        assert!(hosts("cycles=60") <= hosts("cycles=5") + 1e-9);
        assert!(hosts("ants=20") <= hosts("ants=2") + 1e-9);
    }

    #[test]
    fn partitioning_costs_a_bounded_amount_of_quality() {
        let runs = packs(
            "e10a",
            "[pack]\ninstances = 2\nseed = 5\n[[sweep]]\n[sweep.pack]\n\
             algo = [\"aco\", \"daco\"]\nn = [60, 60]\nparams = [{}, { partitions = 3 }]\n",
        );
        let (central, distributed) = (hosts(&runs, 60, "ACO"), hosts(&runs, 60, "dACO"));
        assert!(central > 0.0 && distributed > 0.0);
        assert!(
            distributed <= central * 1.3,
            "distributed within 30%: {distributed} vs {central}"
        );
    }

    #[test]
    fn e5_distribution_does_not_degrade_latency() {
        // 24 VMs on 16 LCs under 1 and 4 GMs.
        let small = "[topology]\nlcs = 16\n\
                     [[sweep]]\nname = [\"e5-1gm\", \"e5-4gm\"]\nseed = [30, 27]\n\
                     [sweep.topology]\nmanagers = [2, 5]\n[[sweep.workload]]\nn = [24, 24]\n";
        let runs = run(&find("e5").specs(|d| d.patch(small)));
        let (central, spread) = (&runs[0].sim().outcome, &runs[1].sim().outcome);
        assert_eq!((central.placed, spread.placed), (24, 24));
        // The distributed hierarchy must be within 2× of centralized
        // latency (the paper claims "negligible" — shape, not exactness).
        assert!(spread.mean_latency_s <= central.mean_latency_s * 2.0 + 2.0);
    }

    #[test]
    fn e6_management_failures_do_not_hurt_application_performance() {
        let runs = run(&find("e6").specs(|d| d.patch("seed = 17\n")));
        let o = &runs[0].sim().outcome;
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
        assert!(runs[0].sim().outcome.faults[2].recovery_s.is_nan());
        assert!(render("e6", &runs).render().contains("never (>180 s)"));
    }

    #[test]
    fn e7_power_management_saves_energy_without_losing_placements() {
        // The checked-in fleet for half an hour instead of two.
        let short = "[[phase]]\nevery_ms = 60000.0\nkind = \"sample_to\"\nt_ms = 1800000.0\n";
        let runs = run(&find("e7").specs(|d| d.patch(short)));
        let (no_pm, pm) = (&runs[0].sim().outcome, &runs[1].sim().outcome);
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
            let o = &f.sim().outcome;
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
            let o = &f.sim().outcome;
            assert_eq!(o.placed, 10, "{}", o.name);
            assert!(o.nodes_on_end < 10, "{}: no node emptied", o.name);
        }
    }

    /// Each simulated spec of `specs` run alone through
    /// [`snooze_scenario::run`] is its folded run in `runs`: the same event
    /// and span digests, every outcome field but `wall_ms`, and its energy
    /// bit for bit.
    fn assert_folded_runs_equal_runs_alone(specs: &[RunSpec], runs: &[Finished]) {
        assert_eq!(specs.len(), runs.len(), "one finished run per spec");
        for (spec, folded) in specs.iter().zip(runs) {
            let RunSpec::Sim(spec) = spec else { continue };
            let (folded, alone) = (folded.sim(), snooze_scenario::run(spec).expect("compiles"));
            let (sim, name) = (&folded.shared.live.sim, &spec.name);
            assert_eq!(sim.digest(), alone.live.sim.digest(), "{name}: events");
            assert_eq!(sim.span_digest(), alone.live.sim.span_digest(), "{name}");
            let bits = |o: &ScenarioOutcome| o.energy_wh.to_bits();
            assert_eq!(
                bits(&folded.outcome),
                bits(&alone.outcome),
                "{name}: energy"
            );
            let unclocked = |o: &ScenarioOutcome| {
                let o = ScenarioOutcome {
                    wall_ms: 0.0,
                    ..o.clone()
                };
                format!("{o:?}")
            };
            assert_eq!(unclocked(&folded.outcome), unclocked(&alone.outcome));
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
        let specs = find("e14_arena").specs(|d| d.patch(small));
        let runs = run(&specs);
        assert_eq!(runs.len(), 4, "full cross product");
        let o = |i: usize| &runs[i].sim().outcome;
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

        // The power axis folds: one engine per algorithm, and each cell
        // is what it measures alone.
        let engine = |i: usize| &runs[i].sim().shared;
        assert!(Rc::ptr_eq(engine(0), engine(1)) && Rc::ptr_eq(engine(2), engine(3)));
        assert!(!Rc::ptr_eq(engine(1), engine(2)));
        assert_folded_runs_equal_runs_alone(&specs, &runs);
        // So it is with an LC crashed and restarted: every meter stops at
        // the crash and starts over with the node.
        let crash = "[[fault]]\nat_ms = 1200000.0\ndowntime_ms = 300000.0\nindex = 0\n\
                     kind = \"crash\"\ntarget = \"lc\"\n";
        let specs = find("e14_arena").specs(|d| d.patch(small)?.patch(crash));
        let ffd = &specs[..2];
        assert_folded_runs_equal_runs_alone(ffd, &run(ffd));
    }

    /// Six LCs that idle, suspend, wake, and lose LC 0 for two minutes,
    /// metered under a linear model `a`, under `b` = `a` with idle and
    /// peak both raised by 37.5 W, and under `unit`: 1 W whenever the node
    /// is powered (on or between states), 0 W suspended or crashed.
    const SHIFTED_WATTS: &str = r#"
        name = "watts-{power.default}"
        seed = 11
        [config]
        idle_suspend_ms = 30000.0
        placement = "round_robin"
        preset = "default"
        [topology]
        eps = 1
        lcs = 6
        managers = 2
        [topology.client]
        retry_ms = 15000.0
        [[fault]]
        at_ms = 900000.0
        downtime_ms = 120000.0
        index = 0
        kind = "crash"
        target = "lc"
        [[phase]]
        kind = "run_to"
        t_ms = 2400000.0
        [[workload]]
        arrival_at_ms = 30000.0
        arrival_spread_s = 1200
        cores_max = 3.0
        cores_min = 1.0
        kind = "random_fleet"
        lifetime_every = 1
        lifetime_max_s = 900
        lifetime_min_s = 300
        mem_max_mb = 8192.0
        mem_min_mb = 2048.0
        n = 12
        seed = 5
        util_max = 0.9
        util_min = 0.4
        [[power.model]]
        name = "a"
        kind = "linear"
        idle_watts = 160.0
        max_watts = 250.0
        suspend_watts = 5.0
        transitions = "legacy"
        [[power.model]]
        name = "b"
        kind = "linear"
        idle_watts = 197.5
        max_watts = 287.5
        suspend_watts = 5.0
        transitions = "legacy"
        [[power.model]]
        name = "unit"
        kind = "linear"
        idle_watts = 1.0
        max_watts = 1.0
        suspend_watts = 0.0
        transitions = "legacy"
        [[sweep]]
        [sweep.power]
        default = ["a", "b", "unit"]
    "#;

    #[test]
    fn shifting_a_linear_model_by_delta_adds_delta_per_powered_second() {
        // Watts are not causes: raising a linear model's idle and peak by
        // Δ bills exactly Δ more for every second a node is powered, and
        // the unit model counts those seconds.
        const DELTA: f64 = 37.5;
        let specs = ScenarioDoc::parse(SHIFTED_WATTS).and_then(|d| d.runs());
        let runs = run(&specs.expect("the document expands"));
        let (a, b, unit) = (runs[0].sim(), runs[1].sim(), runs[2].sim());
        assert!(Rc::ptr_eq(&a.shared, &b.shared) && Rc::ptr_eq(&a.shared, &unit.shared));
        // Every power state is metered, and so is the crash (0 W).
        let metrics = a.shared.live.sim.metrics();
        let o = &a.outcome;
        assert!(o.suspends > 0 && o.wakeups > 0, "{o:?}");
        assert_eq!(metrics.counter("failure.crashes"), 1);
        assert_eq!(metrics.counter("failure.restarts"), 1);

        let (e_a, e_b, e_unit) = (
            a.outcome.energy_wh,
            b.outcome.energy_wh,
            unit.outcome.energy_wh,
        );
        let powered_s = e_unit * 3600.0;
        assert!(
            powered_s > 0.0 && powered_s < 6.0 * 2400.0,
            "{powered_s} LC-s"
        );
        let shifted = DELTA * e_unit;
        let gap = (e_b - e_a - shifted).abs();
        assert!(
            gap <= 1e-9 * shifted,
            "E_B − E_A = {} vs Δ·E_C = {shifted}",
            e_b - e_a
        );
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
