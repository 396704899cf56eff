//! Compiling a [`ScenarioSpec`] down to a live system, and the generic
//! phase runner that executes its program.
//!
//! The compiler is deliberately boring: it performs exactly the
//! deployment sequence the hand-written experiment harnesses performed
//! (builder → system → client → static fault plan), so a spec-driven run
//! is event-for-event identical to the code it replaced. The
//! [`Runner`] then interprets the phase program — run / settle / sample
//! / fault+observe — splitting `run_until` at probe points, metric
//! window boundaries and forced incident triggers, all of which are
//! digest-neutral because executing the same event set in more slices
//! schedules nothing new.
//!
//! With an `[obs]` table the runner also rolls the engine's metrics
//! into fixed-width windows, evaluates `[[slo]]` watchdogs at every
//! boundary, and snapshots the flight recorder into
//! [`IncidentDoc`] dumps when a watchdog trips, a scheduled fault
//! fires, or the spec forces a test trigger.

use snooze_simcore::excerpt::Excerpt;
use snooze_simcore::failure::FailurePlan;
use snooze_simcore::flight::Windower;
use snooze_simcore::prelude::*;
use snooze_simcore::telemetry::window::WindowKind;
use snooze_simcore::telemetry::WindowLog;

use crate::incident::{IncidentDoc, IncidentEvent, IncidentSpan, IncidentWindow};
use crate::live::{build_workload, LiveSystem, VmIdAlloc};
use crate::spec::{
    ms_to_span, ms_to_time, Condition, ObserveSpec, PhaseSpec, ProbeSpec, ScenarioSpec, SloSignal,
    SloSpec, TargetSpec,
};

/// Delivered-performance floor below which a loaded LC-sample counts
/// as an SLA violation. `performance_at` is 1.0 on uncontended nodes,
/// so the floor only trips when VMs actually starve; it sits a hair
/// under 1.0 to absorb float noise in the contention model.
pub const SLA_PERFORMANCE_FLOOR: f64 = 0.999;

/// One fault phase's measured aftermath.
#[derive(Clone, Debug)]
pub struct FaultOutcome {
    /// The phase's row label.
    pub label: String,
    /// Who was hit.
    pub target: ComponentId,
    /// Injection time.
    pub at: SimTime,
    /// Mean application performance over the observation window
    /// (NaN without an observe block).
    pub perf_after: f64,
    /// VMs alive when the observation ended.
    pub vms_after: usize,
    /// Seconds until the recovery condition first held (NaN = never
    /// within the observation).
    pub recovery_s: f64,
}

/// One SLO watchdog breach, raised at a window boundary.
#[derive(Clone, Debug)]
pub struct SloAlert {
    /// Watchdog name.
    pub name: String,
    /// The breached signal.
    pub signal: SloSignal,
    /// Index of the window whose boundary raised the alert.
    pub window: u64,
    /// Boundary time.
    pub at: SimTime,
    /// Observed value.
    pub value: f64,
    /// The configured bound.
    pub max: f64,
}

/// Per-window status surfaced to `--watch` callbacks.
#[derive(Clone, Debug)]
pub struct WindowStatus {
    /// Window index just closed.
    pub window: u64,
    /// Boundary time.
    pub at: SimTime,
    /// Rows the window emitted.
    pub rows: usize,
    /// Alerts raised at this boundary.
    pub alerts: usize,
    /// Engine queue depth at the boundary.
    pub queue_depth: usize,
    /// Whole-run dead letters as of the boundary.
    pub dead_letters: u64,
}

/// A named probe's snapshot.
#[derive(Clone, Debug)]
pub struct ProbeSample {
    /// Probe name.
    pub name: String,
    /// Sample time.
    pub at: SimTime,
    /// VMs the client has placed so far.
    pub placed: usize,
    /// VMs alive on the cluster.
    pub total_vms: usize,
    /// Nodes on or transitioning.
    pub nodes_on: usize,
    /// Management messages sent so far.
    pub messages: u64,
}

/// Everything a scenario run measured. Every field is deterministic for
/// a fixed spec except `wall_ms` (advisory host time).
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// RNG seed.
    pub seed: u64,
    /// Manager components deployed.
    pub managers: usize,
    /// LC nodes deployed (standard + heterogeneous groups).
    pub lcs: usize,
    /// VMs the workload program submitted.
    pub requested_vms: usize,
    /// VMs placed by the end of the run.
    pub placed: usize,
    /// VMs rejected.
    pub rejected: usize,
    /// VMs abandoned (client gave up retrying).
    pub abandoned: usize,
    /// Mean submission→running latency, seconds.
    pub mean_latency_s: f64,
    /// 95th-percentile latency, seconds.
    pub p95_latency_s: f64,
    /// Placed count at the end of the *first* settle phase.
    pub settle_placed: Option<usize>,
    /// Simulator events executed.
    pub sim_events: u64,
    /// Deliveries that found no live receiver (crashed or unknown
    /// destination) — healthy closed-loop scenarios without faults
    /// should report 0.
    pub dead_letters: u64,
    /// Advisory wall-clock of the whole run, ms.
    pub wall_ms: f64,
    /// Management messages sent.
    pub messages: u64,
    /// Cluster energy integrated to the final instant, Wh.
    pub energy_wh: f64,
    /// Live migrations performed.
    pub migrations: u64,
    /// Suspend transitions performed.
    pub suspends: u64,
    /// Wake-ups commanded.
    pub wakeups: u64,
    /// Mean powered-on node count across `sample_to` samples.
    pub mean_nodes_on: f64,
    /// Mean application performance across `sample_to` samples
    /// (1.0 = no contention anywhere; 1.0 without samples).
    pub mean_performance: f64,
    /// LC-samples observed across `sample_to` (an LC hosting VMs at a
    /// sample instant counts once) — the SLA-violation denominator.
    pub sla_samples: u64,
    /// LC-samples whose delivered performance fell below the SLA floor
    /// ([`SLA_PERFORMANCE_FLOOR`]).
    pub sla_violations: u64,
    /// Nodes on or transitioning at the end.
    pub nodes_on_end: usize,
    /// VMs alive at the end.
    pub total_vms_end: usize,
    /// Fault phases, in order.
    pub faults: Vec<FaultOutcome>,
    /// Probe snapshots, in time order.
    pub probes: Vec<ProbeSample>,
    /// Metric windows closed (0 without an `[obs]` table).
    pub windows: u64,
    /// SLO watchdog breaches, in boundary order.
    pub slo_alerts: Vec<SloAlert>,
}

/// A finished run: the live system (spans, metrics, digests still
/// queryable) plus the measured outcome.
pub struct ScenarioRun {
    /// The deployed system after the program ran.
    pub live: LiveSystem,
    /// The measurements.
    pub outcome: ScenarioOutcome,
    /// The windowed time-series (`Some` with an `[obs]` table).
    pub windows: Option<WindowLog>,
    /// Incident dumps captured during the run, in trigger order.
    pub incidents: Vec<IncidentDoc>,
}

/// Deploy a spec: engine → system stack → client → static fault plan.
pub fn compile(spec: &ScenarioSpec) -> Result<LiveSystem, String> {
    let config = spec.config.build()?;

    let mut alloc = VmIdAlloc::new();
    let mut schedule = Vec::new();
    for w in &spec.workload {
        schedule.extend(build_workload(&mut alloc, w)?);
    }
    let client = match &spec.topology.client {
        None => {
            if !schedule.is_empty() {
                return Err("a workload needs a `topology.client`".into());
            }
            None
        }
        Some(c) => {
            if spec.topology.eps == 0 {
                return Err("a client needs at least one EP".into());
            }
            Some((schedule, ms_to_span(c.retry_ms)))
        }
    };

    if spec.topology.managers < 2 {
        return Err("`managers` in topology must be at least 2: a GL and a GM".into());
    }
    let mut live = crate::live::deploy_hierarchy(
        spec.seed,
        &config,
        spec.topology.managers,
        &spec.topology.build_nodes(spec.power.as_ref())?,
        spec.topology.eps,
        client,
    );

    let mut plan = FailurePlan::new();
    for f in &spec.faults {
        let at = ms_to_time(f.at_ms);
        if f.kind == "degrade" {
            let ppm = f.loss_ppm.ok_or("`degrade` needs `loss_ppm`")?;
            plan = plan.degrade_links(at, ppm);
            continue;
        }
        let pool: &[ComponentId] = match f.target.as_str() {
            "manager" => &live.system.gms,
            "lc" => &live.system.lcs,
            "ep" => &live.system.eps,
            other => return Err(format!("unknown fault target `{}`", Excerpt(other))),
        };
        let id = *pool
            .get(f.index)
            .ok_or_else(|| format!("fault index {} out of range for `{}`", f.index, f.target))?;
        plan = match f.kind.as_str() {
            "crash" => match f.downtime_ms {
                Some(d) => plan.crash_for(at, ms_to_span(d), id),
                None => plan.crash(at, id),
            },
            "restart" => plan.restart(at, id),
            "isolate" => match f.downtime_ms {
                Some(d) => plan.isolate_for(at, ms_to_span(d), id),
                None => plan.isolate(at, id),
            },
            "reconnect" => plan.reconnect(at, id),
            other => return Err(format!("unknown fault kind `{other}`")),
        };
    }
    plan.apply(&mut live.sim);

    if let Some(o) = &spec.obs {
        live.sim.enable_flight_recorder(o.ring);
        if o.profile {
            live.sim.enable_profiler();
        }
    }

    Ok(live)
}

fn probe_sample(live: &LiveSystem, name: &str) -> ProbeSample {
    let (on, transitioning, _) = live.system.power_census(&live.sim);
    ProbeSample {
        name: name.to_string(),
        at: live.sim.now(),
        placed: live.client_opt().map(|c| c.placed.len()).unwrap_or(0),
        total_vms: live.system.total_vms(&live.sim),
        nodes_on: on + transitioning,
        messages: live.messages_sent(),
    }
}

/// Observability runtime: the windower, the watchdogs, and everything
/// they have produced so far.
struct ObsRun {
    windower: Windower,
    slos: Vec<SloSpec>,
    /// Pending forced trigger (cleared once fired).
    force_at: Option<SimTime>,
    /// Queued fault captures `(instant, trigger, detail)`: the driver
    /// pauses when it next *crosses* the instant and dumps there. The
    /// injection site must not advance the clock itself — a pause there
    /// would shift the next phase's `now()`-relative stepping grid and
    /// break digest neutrality.
    pending_faults: Vec<(SimTime, String, String)>,
    alerts: Vec<SloAlert>,
    incidents: Vec<IncidentDoc>,
    scenario: String,
    seed: u64,
}

/// The phase interpreter's threaded state: the live system, the probe
/// cursor, and (with an `[obs]` table) the observability runtime.
/// Replaces the old free functions that threaded five `&mut` arguments
/// through every call.
struct Runner<'w> {
    live: LiveSystem,
    probes: Vec<ProbeSpec>,
    next_probe: usize,
    samples: Vec<ProbeSample>,
    obs: Option<ObsRun>,
    watch: Option<&'w mut dyn FnMut(&WindowStatus)>,
}

/// Snapshot the flight recorder, recent span closures and the windows
/// around `now` into an incident dump.
fn capture_incident(live: &LiveSystem, o: &mut ObsRun, trigger: &str, detail: &str) {
    let Some(ring) = live.sim.flight_recorder() else {
        return;
    };
    let resolve = |idx: u64| -> String {
        if idx == usize::MAX as u64 {
            "external".to_string()
        } else {
            live.sim.name_of(ComponentId(idx as usize)).to_string()
        }
    };
    let events = ring
        .events()
        .into_iter()
        .map(|e| IncidentEvent {
            at_us: e.time_us,
            seq: e.seq,
            kind: e.kind.to_string(),
            src: resolve(e.a),
            dst: if e.kind == "deliver" {
                resolve(e.b)
            } else {
                String::new()
            },
            variant: e.variant.to_string(),
        })
        .collect();
    let closed: Vec<&snooze_simcore::telemetry::SpanRecord> = live
        .sim
        .spans()
        .iter()
        .filter(|s| s.end_us.is_some())
        .collect();
    let spans = closed
        .iter()
        .rev()
        .take(16)
        .rev()
        .map(|s| IncidentSpan {
            name: s.name.to_string(),
            start_us: s.start_us,
            end_us: s.end_us.unwrap_or(s.start_us),
        })
        .collect();
    // The last two closed windows' rows, newest last, bounded.
    let min_index = o.windower.index().saturating_sub(2);
    let near: Vec<&snooze_simcore::telemetry::WindowRow> = o
        .windower
        .log()
        .rows()
        .iter()
        .filter(|r| r.index >= min_index)
        .collect();
    let skip = near.len().saturating_sub(64);
    let windows = near
        .into_iter()
        .skip(skip)
        .map(|r| IncidentWindow {
            window: r.index,
            kind: r.kind.as_str().to_string(),
            name: r.name.clone(),
            labels: r.labels.render(),
            count: r.count,
            value: match r.kind {
                WindowKind::Counter => 0.0,
                WindowKind::Gauge => r.stats.max,
                WindowKind::Histogram => r.stats.p95,
            },
        })
        .collect();
    o.incidents.push(IncidentDoc {
        name: format!("{}-incident-{}", o.scenario, o.incidents.len()),
        scenario: o.scenario.clone(),
        seed: o.seed,
        trigger: trigger.to_string(),
        detail: detail.to_string(),
        at_us: live.sim.now().0,
        events,
        spans,
        windows,
    });
}

impl Runner<'_> {
    /// Advance virtual time to `to`, pausing at every pending probe
    /// point, metric window boundary and forced incident trigger on the
    /// way. Splitting `run_until` adds no events, so digests and event
    /// counts are unchanged by observation.
    fn advance(&mut self, to: SimTime) {
        loop {
            let probe_at = self
                .probes
                .get(self.next_probe)
                .map(|p| ms_to_time(p.at_ms))
                .filter(|&t| t <= to);
            let window_at = self
                .obs
                .as_ref()
                .map(|o| o.windower.next_boundary())
                .filter(|&t| t <= to);
            let force_at = self
                .obs
                .as_ref()
                .and_then(|o| o.force_at)
                .filter(|&t| t <= to);
            let fault_at = self
                .obs
                .as_ref()
                .and_then(|o| o.pending_faults.iter().map(|p| p.0).min())
                .filter(|&t| t <= to);
            let stop = [probe_at, window_at, force_at, fault_at]
                .into_iter()
                .flatten()
                .min();
            let Some(stop) = stop else {
                if to > self.live.sim.now() {
                    self.live.sim.run_until(to);
                }
                return;
            };
            if stop > self.live.sim.now() {
                self.live.sim.run_until(stop);
            }
            if probe_at == Some(stop) {
                let name = self.probes[self.next_probe].name.clone();
                self.samples.push(probe_sample(&self.live, &name));
                self.next_probe += 1;
            }
            if window_at == Some(stop) {
                self.roll_window(stop);
            }
            if force_at == Some(stop) {
                if let Some(o) = self.obs.as_mut() {
                    o.force_at = None;
                    capture_incident(&self.live, o, "forced", "scheduled test trigger");
                }
            }
            if fault_at == Some(stop) {
                self.capture_pending_faults(stop);
            }
        }
    }

    /// Dump every queued fault capture due at or before `upto`, in queue
    /// order.
    fn capture_pending_faults(&mut self, upto: SimTime) {
        let Some(o) = self.obs.as_mut() else { return };
        let mut due = Vec::new();
        o.pending_faults.retain(|p| {
            if p.0 <= upto {
                due.push(p.clone());
                false
            } else {
                true
            }
        });
        for (_, trigger, detail) in due {
            capture_incident(&self.live, o, &trigger, &detail);
        }
    }

    /// Close the window ending at `at`: emit its rows, evaluate every
    /// watchdog over them, raise alert spans / incidents on breach, and
    /// surface the boundary to a `--watch` callback.
    fn roll_window(&mut self, at: SimTime) {
        let Some(o) = self.obs.as_mut() else { return };
        let index = o.windower.index();
        let rows = o.windower.roll(self.live.sim.metrics(), at).to_vec();
        let mut alerts_here = 0usize;
        for slo in o.slos.clone() {
            let value = match slo.signal {
                SloSignal::P95PlacementLatencyS => rows
                    .iter()
                    .find(|r| {
                        r.kind == WindowKind::Histogram && r.name == "client.placement_latency_s"
                    })
                    .map(|r| r.stats.p95),
                SloSignal::HeartbeatMisses => Some(
                    rows.iter()
                        .filter(|r| r.kind == WindowKind::Counter && r.name == "heartbeat_missed")
                        .map(|r| r.count)
                        .sum::<u64>() as f64,
                ),
                SloSignal::DeadLetters => Some(self.live.sim.dead_letters() as f64),
                SloSignal::QueueDepth => Some(self.live.sim.queue_depth() as f64),
            };
            let Some(value) = value else { continue };
            if value > slo.max {
                alerts_here += 1;
                let us = at.0;
                let spans = self.live.sim.spans_mut();
                let id = spans.open("slo.alert", 0, None, us);
                spans.label(id, "slo", slo.name.clone());
                spans.label(id, "signal", slo.signal.as_str());
                spans.close(id, us);
                let detail = format!(
                    "{} = {value} > {} in window {index}",
                    slo.signal.as_str(),
                    slo.max
                );
                capture_incident(&self.live, o, &format!("slo:{}", slo.name), &detail);
                o.alerts.push(SloAlert {
                    name: slo.name.clone(),
                    signal: slo.signal,
                    window: index,
                    at,
                    value,
                    max: slo.max,
                });
            }
        }
        if let Some(watch) = self.watch.as_mut() {
            watch(&WindowStatus {
                window: index,
                at,
                rows: rows.len(),
                alerts: alerts_here,
                queue_depth: self.live.sim.queue_depth(),
                dead_letters: self.live.sim.dead_letters(),
            });
        }
    }

    /// Flush the final (partial) window so per-window counter deltas
    /// always sum to the whole-run totals.
    fn finish_windows(&mut self) {
        let now = self.live.sim.now();
        if self.obs.as_ref().is_some_and(|o| now > o.windower.start()) {
            self.roll_window(now);
        }
    }
}

fn condition_holds(c: Condition, live: &LiveSystem, reschedule: bool, baseline_vms: usize) -> bool {
    let sys = &live.system;
    match c {
        Condition::GlElected => sys.current_gl(&live.sim).is_some(),
        Condition::LcsOnLiveGms => {
            let live_gms = sys.active_gms(&live.sim);
            sys.lcs.iter().all(|&lc| {
                !live.sim.is_alive(lc)
                    || live
                        .sim
                        .get(lc)
                        .and_then(|c| c.as_lc())
                        .and_then(|l| l.assigned_gm())
                        .map(|g| live_gms.contains(&g))
                        .unwrap_or(false)
            })
        }
        Condition::VmsRestored => reschedule && sys.total_vms(&live.sim) >= baseline_vms,
    }
}

impl Runner<'_> {
    /// Drive a fault phase's observation block: step forward (through
    /// [`Runner::advance`], so probes and windows still fire), averaging
    /// application performance over the perf window and timing the
    /// recovery condition.
    fn observe_fault(
        &mut self,
        from: SimTime,
        o: &ObserveSpec,
        reschedule: bool,
        baseline_vms: usize,
    ) -> (f64, f64) {
        let step_span = ms_to_span(o.step_ms);
        let perf_window = ms_to_span(o.perf_window_ms);
        let mut acc = 0.0;
        let mut n = 0u32;
        let mut recovery = f64::NAN;
        for step in 1..=o.steps as u64 {
            let t = from + step_span * step;
            self.advance(t);
            if o.perf_window_ms > 0.0 && step_span * step <= perf_window {
                let live = &self.live;
                acc += live.system.mean_performance(&live.sim, live.sim.now());
                n += 1;
            }
            if recovery.is_nan() && condition_holds(o.until, &self.live, reschedule, baseline_vms) {
                recovery = step as f64 * o.step_ms / 1e3;
                if o.stop_on_success {
                    break;
                }
            }
        }
        (if n == 0 { 1.0 } else { acc / n as f64 }, recovery)
    }
}

/// Compile a spec and execute its phase program.
pub fn run(spec: &ScenarioSpec) -> Result<ScenarioRun, String> {
    run_watch(spec, None)
}

/// [`run`], surfacing every closed metric window to `watch` — the
/// `--watch` mode's per-window status feed.
pub fn run_watch(
    spec: &ScenarioSpec,
    watch: Option<&mut dyn FnMut(&WindowStatus)>,
) -> Result<ScenarioRun, String> {
    let live = compile(spec)?;
    let reschedule = spec.config.build()?.reschedule_on_lc_failure;
    let mut probes = spec.probes.clone();
    probes.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
    let obs = spec.obs.as_ref().map(|o| ObsRun {
        windower: Windower::new(ms_to_span(o.window_ms)),
        slos: spec.slos.clone(),
        force_at: o.force_incident_at_ms.map(ms_to_time),
        pending_faults: Vec::new(),
        alerts: Vec::new(),
        incidents: Vec::new(),
        scenario: spec.name.clone(),
        seed: spec.seed,
    });
    let mut r = Runner {
        live,
        probes,
        next_probe: 0,
        samples: Vec::new(),
        obs,
        watch,
    };
    let mut settle_placed = None;
    let mut faults = Vec::new();
    let mut on_acc = 0.0;
    let mut on_n = 0u32;
    let mut perf_acc = 0.0;
    let mut sla_samples = 0u64;
    let mut sla_violations = 0u64;

    for phase in &spec.phases {
        match phase {
            PhaseSpec::RunTo { t_ms } => {
                r.advance(ms_to_time(*t_ms));
            }
            PhaseSpec::RunFor { dur_ms } => {
                let to = r.live.sim.now() + ms_to_span(*dur_ms);
                r.advance(to);
            }
            PhaseSpec::Settle { deadline_ms } => {
                let deadline = ms_to_time(*deadline_ms);
                if r.live.client_id.is_none() {
                    r.advance(deadline);
                } else {
                    let step = SimSpan::from_secs(5);
                    while r.live.sim.now() < deadline {
                        let next = (r.live.sim.now() + step).min(deadline);
                        r.advance(next);
                        if r.live.client().done() {
                            break;
                        }
                    }
                }
                if settle_placed.is_none() {
                    settle_placed = Some(r.live.client_opt().map(|c| c.placed.len()).unwrap_or(0));
                }
            }
            PhaseSpec::SampleTo { t_ms, every_ms } => {
                let horizon = ms_to_time(*t_ms);
                let step = ms_to_span(*every_ms);
                while r.live.sim.now() < horizon {
                    let next = (r.live.sim.now() + step).min(horizon);
                    r.advance(next);
                    let sys = &r.live.system;
                    let (on, transitioning, _) = sys.power_census(&r.live.sim);
                    on_acc += (on + transitioning) as f64;
                    on_n += 1;
                    let now = r.live.sim.now();
                    perf_acc += sys.mean_performance(&r.live.sim, now);
                    let (loaded, violating) =
                        sys.sla_census(&r.live.sim, now, SLA_PERFORMANCE_FLOOR);
                    sla_samples += loaded as u64;
                    sla_violations += violating as u64;
                }
            }
            PhaseSpec::Fault {
                label,
                target,
                delay_ms,
                kind,
                observe: ob_spec,
            } => {
                if kind != "crash" {
                    return Err(format!("unsupported dynamic fault kind `{kind}`"));
                }
                let (resolved, baseline_vms) = {
                    let live = &r.live;
                    let sys = &live.system;
                    let resolved = match target {
                        TargetSpec::Gl => sys.current_gl(&live.sim),
                        TargetSpec::ActiveGm(i) => sys.active_gms(&live.sim).get(*i).copied(),
                        TargetSpec::LcMostVms => sys
                            .lcs
                            .iter()
                            .max_by_key(|&&lc| {
                                live.sim
                                    .get(lc)
                                    .and_then(|c| c.as_lc())
                                    .map(|l| l.hypervisor().guest_count())
                                    .unwrap_or(0)
                            })
                            .copied(),
                        TargetSpec::Lc(i) => sys.lcs.get(*i).copied(),
                        TargetSpec::Ep(i) => sys.eps.get(*i).copied(),
                        TargetSpec::Manager(i) => sys.gms.get(*i).copied(),
                    };
                    (resolved, sys.total_vms(&live.sim))
                };
                // An unresolvable target (no GL yet, index out of range)
                // skips the fault, like the hand-written harnesses did.
                let Some(victim) = resolved else { continue };
                let t = r.live.sim.now() + ms_to_span(*delay_ms);
                r.live.sim.schedule_crash(t, victim);
                if let Some(o) = r.obs.as_mut() {
                    // Queue the capture for when the driver next crosses
                    // the injection instant. Advancing to `t` here would
                    // move the phase clock and shift every later
                    // `now()`-relative stepping grid — observably, in the
                    // digest.
                    let detail = format!("crash of {:?} ({})", victim, r.live.sim.name_of(victim));
                    o.pending_faults.push((t, format!("fault:{label}"), detail));
                }
                let (perf_after, recovery_s, vms_after) = match ob_spec {
                    None => (f64::NAN, f64::NAN, baseline_vms),
                    Some(o) => {
                        let (perf, recovery) = r.observe_fault(t, o, reschedule, baseline_vms);
                        let vms = r.live.system.total_vms(&r.live.sim);
                        (perf, recovery, vms)
                    }
                };
                faults.push(FaultOutcome {
                    label: label.clone(),
                    target: victim,
                    at: t,
                    perf_after,
                    vms_after,
                    recovery_s,
                });
            }
        }
    }

    // Fault captures the phase loop never crossed: dump the ones whose
    // injection instant has passed (the crash did execute); a pending
    // instant beyond the end of the run means the crash never happened,
    // so no incident either.
    let end = r.live.sim.now();
    r.capture_pending_faults(end);
    r.finish_windows();
    let Runner {
        live, samples, obs, ..
    } = r;
    let (windows_closed, slo_alerts, window_log, incidents) = match obs {
        Some(o) => (
            o.windower.index(),
            o.alerts,
            Some(o.windower.into_log()),
            o.incidents,
        ),
        None => (0, Vec::new(), None, Vec::new()),
    };

    let metrics = live.sim.metrics();
    let transitions = |kind| metrics.counter_with("power.transitions", &label("kind", kind));
    let migrations = metrics.counter("lc.migrations_out");
    let suspends = transitions("suspend");
    let wakeups = transitions("wake") + transitions("watchdog-wake");
    let (on, transitioning, _) = live.system.power_census(&live.sim);

    let (placed, rejected, abandoned, mean_latency_s, p95_latency_s, requested_vms) =
        match live.client_opt() {
            Some(c) => (
                c.placed.len(),
                c.rejected.len(),
                c.abandoned.len(),
                c.mean_latency_secs(),
                c.p95_latency_secs(),
                c.schedule_len(),
            ),
            None => (0, 0, 0, 0.0, 0.0, 0),
        };

    let outcome = ScenarioOutcome {
        name: spec.name.clone(),
        seed: spec.seed,
        managers: spec.topology.managers,
        lcs: spec.topology.lcs
            + spec
                .topology
                .node_groups
                .iter()
                .map(|g| g.count)
                .sum::<usize>(),
        requested_vms,
        placed,
        rejected,
        abandoned,
        mean_latency_s,
        p95_latency_s,
        settle_placed,
        sim_events: live.sim.events_executed(),
        dead_letters: live.sim.dead_letters(),
        wall_ms: live.wall_ms(),
        messages: live.messages_sent(),
        energy_wh: live.system.total_energy_wh(&live.sim, live.sim.now()),
        migrations,
        suspends,
        wakeups,
        mean_nodes_on: if on_n > 0 { on_acc / on_n as f64 } else { 0.0 },
        mean_performance: if on_n > 0 {
            perf_acc / on_n as f64
        } else {
            1.0
        },
        sla_samples,
        sla_violations,
        nodes_on_end: on + transitioning,
        total_vms_end: live.system.total_vms(&live.sim),
        faults,
        probes: samples,
        windows: windows_closed,
        slo_alerts,
    };
    Ok(ScenarioRun {
        live,
        outcome,
        windows: window_log,
        incidents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClientSpec, ConfigSpec, TopologySpec, WorkloadSpec};

    fn small_burst_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "small-burst".into(),
            description: "compile test".into(),
            seed: 1,
            topology: TopologySpec {
                managers: 2,
                lcs: 4,
                node_groups: Vec::new(),
                eps: 1,
                client: Some(ClientSpec { retry_ms: 15000.0 }),
            },
            config: ConfigSpec::preset("fast_test"),
            workload: vec![WorkloadSpec::Burst {
                n: 4,
                at_ms: 10000.0,
                cores: 2.0,
                memory_mb: 4096.0,
                util: 0.5,
            }],
            faults: Vec::new(),
            phases: vec![PhaseSpec::Settle {
                deadline_ms: 300000.0,
            }],
            probes: vec![
                ProbeSpec {
                    name: "early".into(),
                    at_ms: 12000.0,
                },
                ProbeSpec {
                    name: "late".into(),
                    at_ms: 14000.0,
                },
            ],
            obs: None,
            power: None,
            slos: Vec::new(),
        }
    }

    fn obs_spec() -> ScenarioSpec {
        let mut spec = small_burst_spec();
        spec.obs = Some(crate::spec::ObsSpec {
            window_ms: 5000.0,
            ring: 64,
            profile: true,
            force_incident_at_ms: None,
        });
        spec
    }

    #[test]
    fn compiled_burst_scenario_places_everything() {
        let spec = small_burst_spec();
        let run = run(&spec).unwrap();
        assert_eq!(run.outcome.placed, 4);
        assert_eq!(run.outcome.requested_vms, 4);
        assert_eq!(run.outcome.settle_placed, Some(4));
        assert!(run.outcome.messages > 0);
        assert!(run.outcome.wall_ms >= 0.0);
        assert_eq!(run.outcome.probes.len(), 2);
        assert_eq!(run.outcome.probes[0].name, "early");
        assert_eq!(run.outcome.probes[1].at, SimTime::from_secs(14));
    }

    #[test]
    fn probes_do_not_change_the_event_stream() {
        let with = small_burst_spec();
        let mut without = small_burst_spec();
        without.probes.clear();
        let a = run(&with).unwrap();
        let b = run(&without).unwrap();
        assert_eq!(a.live.sim.digest(), b.live.sim.digest());
        assert_eq!(
            a.outcome.sim_events, b.outcome.sim_events,
            "probe splits must not add events"
        );
    }

    #[test]
    fn same_spec_runs_are_digest_identical() {
        let spec = small_burst_spec();
        let a = run(&spec).unwrap();
        let b = run(&spec).unwrap();
        assert_eq!(a.live.sim.digest(), b.live.sim.digest());
        assert_eq!(a.outcome.placed, b.outcome.placed);
    }

    /// Underload relocation drains one of two LCs, which then sleeps and
    /// is woken by its RTC watchdog; the other crashes at 120 s and
    /// snapshot recovery wakes the sleeper for its VMs.
    const COUNTER_COLUMNS: &str = r#"
name = "counter-columns"
seed = 11
[config]
preset = "fast_test"
idle_suspend_ms = 10000.0
suspend_watchdog_ms = 30000.0
placement = "round_robin"
underload_threshold = 0.3
reschedule_on_lc_failure = true
[topology]
managers = 2
lcs = 2
eps = 1
[topology.client]
retry_ms = 10000.0
[[workload]]
kind = "burst"
n = 1
at_ms = 10000.0
cores = 2.0
memory_mb = 8192.0
util = 0.9
[[workload]]
kind = "burst"
n = 1
at_ms = 10000.0
cores = 2.0
memory_mb = 8192.0
util = 0.4
[[workload]]
kind = "burst"
n = 1
at_ms = 10000.0
cores = 2.0
memory_mb = 8192.0
util = 0.9
[[fault]]
at_ms = 120000.0
kind = "crash"
target = "lc"
index = 0
downtime_ms = 20000.0
[[phase]]
kind = "run_to"
t_ms = 240000.0
"#;

    #[test]
    fn migration_and_power_columns_count_what_the_lcs_did() {
        let run = run(&ScenarioSpec::from_toml(COUNTER_COLUMNS).unwrap()).unwrap();
        let o = &run.outcome;
        // Captured from this same run at ceeadd5, the commit before these
        // columns moved onto the registry, where they were sums over the
        // LCs' private `stats` (`migrations_out`, `suspensions`, `wakeups`).
        assert_eq!((o.migrations, o.suspends, o.wakeups), (1, 4, 3));
        // One GM-commanded wake, two RTC check-ins.
        let m = run.live.sim.metrics();
        let woken = |kind| m.counter_with("power.transitions", &label("kind", kind));
        assert_eq!((woken("wake"), woken("watchdog-wake")), (1, 2));
        assert_eq!(o.total_vms_end, 3, "the crash's VMs were rescheduled");
    }

    #[test]
    fn static_fault_schedule_is_applied() {
        let mut spec = small_burst_spec();
        spec.faults.push(crate::spec::StaticFault {
            at_ms: 20000.0,
            kind: "crash".into(),
            target: "lc".into(),
            index: 0,
            downtime_ms: Some(30000.0),
            loss_ppm: None,
        });
        let run = run(&spec).unwrap();
        // The LC died and came back; the run still settles.
        assert_eq!(run.outcome.placed, 4);
        let lc0 = run.live.system.lcs[0];
        assert!(run.live.sim.is_alive(lc0), "restarted after downtime");
    }

    #[test]
    fn observability_does_not_change_the_event_stream() {
        let plain = run(&small_burst_spec()).unwrap();
        let observed = run(&obs_spec()).unwrap();
        assert_eq!(plain.live.sim.digest(), observed.live.sim.digest());
        assert_eq!(
            plain.outcome.sim_events, observed.outcome.sim_events,
            "window/incident splits must not add events"
        );
        assert!(observed.outcome.windows > 0);
        assert!(observed.windows.is_some());
        assert!(plain.windows.is_none());
    }

    #[test]
    fn window_counter_sums_match_run_totals() {
        let run = run(&obs_spec()).unwrap();
        let log = run.windows.as_ref().unwrap();
        // Per-window deltas of any counter must sum to its final value:
        // the windower never drops or double-counts a window.
        for name in ["net.sent", "net.delivered"] {
            assert_eq!(
                log.counter_sum(name),
                run.live.sim.metrics().counter(name),
                "windowed sum of `{name}` diverged from the run total"
            );
        }
        assert!(log.counter_sum("net.sent") > 0);
    }

    #[test]
    fn forced_incident_dumps_are_byte_identical_across_runs() {
        let mut spec = obs_spec();
        spec.obs.as_mut().unwrap().force_incident_at_ms = Some(15000.0);
        let a = run(&spec).unwrap();
        let b = run(&spec).unwrap();
        assert_eq!(a.incidents.len(), 1);
        assert_eq!(a.incidents[0].trigger, "forced");
        assert!(!a.incidents[0].events.is_empty(), "ring captured events");
        let ta = a.incidents[0].to_toml();
        assert_eq!(ta, b.incidents[0].to_toml(), "dump must be deterministic");
        let parsed = crate::incident::IncidentDoc::from_toml(&ta).unwrap();
        assert_eq!(parsed, a.incidents[0]);
    }

    #[test]
    fn slo_watchdog_raises_alerts_spans_and_incidents() {
        let mut spec = obs_spec();
        // max = -1 on a non-negative signal: every window breaches.
        spec.slos.push(SloSpec {
            name: "impossible".into(),
            signal: SloSignal::QueueDepth,
            max: -1.0,
        });
        let mut statuses = Vec::new();
        let mut cb = |s: &WindowStatus| statuses.push(s.clone());
        let run = run_watch(&spec, Some(&mut cb)).unwrap();
        assert_eq!(run.outcome.slo_alerts.len() as u64, run.outcome.windows);
        assert!(run.incidents.iter().all(|i| i.trigger == "slo:impossible"));
        assert!(!run.incidents.is_empty());
        assert!(run
            .live
            .sim
            .spans()
            .iter()
            .any(|s| s.name == "slo.alert" && s.end_us.is_some()));
        assert_eq!(statuses.len() as u64, run.outcome.windows);
        assert!(statuses.iter().all(|s| s.alerts == 1));
    }
}
