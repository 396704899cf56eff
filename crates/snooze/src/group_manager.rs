//! The Group Manager (GM) — and, when elected, the Group Leader (GL).
//!
//! Paper §II-A/§II-D: every manager node runs the same component; the
//! leader-election recipe decides which one currently acts as GL ("each
//! group manager (GM) is promoted to a group leader (GL) dynamically
//! during the leader election procedure"). Accordingly this component has
//! two modes:
//!
//! * **GM mode** — manages a set of LCs: receives their monitoring,
//!   estimates demand, runs placement/relocation/reconfiguration
//!   policies, manages energy (suspends idle LCs, wakes them on demand),
//!   and reports an aggregated summary to the GL.
//! * **GL mode** — oversees the GMs: keeps their summaries, assigns
//!   joining LCs to GMs, dispatches VM submissions with a candidate list
//!   plus linear search (§II-C), and multicasts GL heartbeats that EPs,
//!   GMs and unassigned LCs discover it by. A GM promoted to GL abandons
//!   its LCs (dedicated roles, §II-A); they rejoin other GMs through the
//!   self-organization protocol.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::VmWorkload;
use snooze_protocols::coordination::ProtocolMsg;
use snooze_protocols::election::{Elector, ElectorEvent, ELECTION_PING_TAG};
use snooze_protocols::heartbeat::FailureDetector;
use snooze_simcore::engine::{Component, ComponentId, Ctx, GroupId};
use snooze_simcore::mc::{McHasher, McState};
use snooze_simcore::telemetry::label::label;
use snooze_simcore::telemetry::SpanId;
use snooze_simcore::time::SimTime;

use crate::config::SnoozeConfig;
use crate::estimator::DemandEstimator;
use crate::messages::*;
pub use crate::messages::{VmActive, VmFailed};
use crate::scheduling::dispatching::Dispatcher;
use crate::scheduling::placement::Placer;
use crate::scheduling::reconfiguration::plan_reconfiguration;
use crate::scheduling::relocation::{
    plan_overload_relocation, plan_underload_relocation, PlannedMigration, VmView,
};
use crate::scheduling::{GmSummaryView, LcView};
use crate::tags::*;

/// Role of the manager right now.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Campaigning; no role yet.
    Candidate,
    /// Acting Group Leader.
    Gl,
    /// Managing LCs under the contained GL.
    Gm(ComponentId),
}

/// Per-LC record kept by a GM.
#[derive(Clone)]
struct LcRecord {
    capacity: ResourceVector,
    reserved: ResourceVector,
    usage: DemandEstimator,
    powered_on: bool,
    waking: bool,
    /// When the last WakeNode was sent (wake commands ride the same
    /// lossy network as everything else and are re-sent if unanswered).
    wake_sent_at: Option<SimTime>,
    idle_since: Option<SimTime>,
    vms: BTreeMap<VmId, VmRecord>,
}

/// Per-VM record kept by a GM (needed for relocation, reconfiguration
/// and §II-E's snapshot-based rescheduling).
#[derive(Clone)]
struct VmRecord {
    spec: VmSpec,
    workload: VmWorkload,
    usage: DemandEstimator,
    migrating_to: Option<ComponentId>,
    /// Confirmed running: a StartVmResult(ok) arrived or the LC reported
    /// it. Unconfirmed records get their StartVm re-sent (the command
    /// rides the same lossy network as everything else).
    confirmed: bool,
    /// When the (latest) StartVm was sent.
    start_sent_at: SimTime,
    /// Open `gm.place` span; closed when the start is confirmed.
    span: Option<SpanId>,
    /// Open `gm.migrate` span while a migration is in flight.
    migration_span: Option<SpanId>,
}

/// A placement waiting for capacity (e.g. a node waking up).
#[derive(Clone)]
struct PendingPlacement {
    spec: VmSpec,
    workload: VmWorkload,
    retries: u32,
    /// Placement span the retry continues (if the original request was
    /// instrumented).
    span: Option<SpanId>,
}

/// Dispatch state the GL keeps per in-flight submission.
#[derive(Clone)]
struct DispatchState {
    spec: VmSpec,
    workload: VmWorkload,
    client: ComponentId,
    candidates: Vec<ComponentId>,
    next: usize,
    started_at: SimTime,
    /// A GM took responsibility (possibly waking a node); stop the
    /// linear-search timeout clock.
    accepted: bool,
    /// The `gl.dispatch` span covering candidate search through VmActive.
    span: SpanId,
}

/// The Group Manager component.
#[derive(Clone)]
pub struct GroupManager {
    config: SnoozeConfig,
    gl_group: GroupId,
    lc_group: GroupId,
    elector: Elector,
    mode: Mode,

    // --- GM-mode state ---
    lcs: BTreeMap<ComponentId, LcRecord>,
    lc_fd: FailureDetector<ComponentId>,
    placer: Placer,
    pending: VecDeque<PendingPlacement>,
    gm_timer_armed: bool,

    // --- GL-mode state ---
    gm_summaries: BTreeMap<ComponentId, GmHeartbeat>,
    gm_fd: FailureDetector<ComponentId>,
    dispatcher: Dispatcher,
    dispatches: BTreeMap<VmId, DispatchState>,
    /// Idempotence registry: VMs already placed this GL term, so client
    /// retries re-ack instead of double-placing.
    placed_registry: BTreeMap<VmId, (ComponentId, ComponentId)>,
}

impl GroupManager {
    /// A manager contending for leadership at coordination service `zk`,
    /// heartbeating on `gl_group` when leader and on `lc_group` toward
    /// its LCs when manager.
    pub fn new(
        config: SnoozeConfig,
        zk: ComponentId,
        gl_group: GroupId,
        lc_group: GroupId,
    ) -> Self {
        let elector = Elector::new(zk, "gl-election", config.election_ping_period);
        GroupManager {
            lc_fd: FailureDetector::new(config.lc_timeout),
            gm_fd: FailureDetector::new(config.gm_timeout),
            placer: Placer::new(config.placement),
            dispatcher: Dispatcher::new(config.dispatching),
            config,
            gl_group,
            lc_group,
            elector,
            mode: Mode::Candidate,
            lcs: BTreeMap::new(),
            pending: VecDeque::new(),
            gm_timer_armed: false,
            gm_summaries: BTreeMap::new(),
            dispatches: BTreeMap::new(),
            placed_registry: BTreeMap::new(),
        }
    }

    /// Current mode (inspection).
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// True if currently the Group Leader.
    pub fn is_gl(&self) -> bool {
        self.mode == Mode::Gl
    }

    /// The elector's current session epoch. Model-checking invariants
    /// compare it to the coordination service's session table to count
    /// *live* leaders (a deposed-in-flight GL is not a violation).
    pub fn election_epoch(&self) -> u64 {
        self.elector.epoch()
    }

    /// Number of LCs currently managed.
    pub fn lc_count(&self) -> usize {
        self.lcs.len()
    }

    /// Number of VMs currently tracked across managed LCs.
    pub fn vm_count(&self) -> usize {
        self.lcs.values().map(|l| l.vms.len()).sum()
    }

    // ------------------------------------------------------------------
    // Views
    // ------------------------------------------------------------------

    fn lc_views(&self) -> Vec<LcView> {
        self.lcs
            .iter()
            .map(|(&lc, r)| LcView {
                lc,
                capacity: r.capacity,
                reserved: r.reserved,
                used_estimate: r.usage.estimate(),
                powered_on: r.powered_on,
                waking: r.waking,
                n_vms: r.vms.len(),
            })
            .collect()
    }

    fn summary(&self) -> GmHeartbeat {
        let mut used = ResourceVector::ZERO;
        let mut total = ResourceVector::ZERO;
        let mut reserved = ResourceVector::ZERO;
        let mut n_vms = 0;
        for r in self.lcs.values() {
            // Suspended capacity counts: it is wakeable on demand.
            total += r.capacity;
            reserved += r.reserved;
            used += r.usage.estimate();
            n_vms += r.vms.len();
        }
        GmHeartbeat {
            used,
            total,
            reserved,
            n_lcs: self.lcs.len(),
            n_vms,
        }
    }

    // ------------------------------------------------------------------
    // GM-mode actions
    // ------------------------------------------------------------------

    /// Try to place a VM now; returns the LC on success. On failure,
    /// optionally wakes a suspended LC with enough capacity.
    fn try_place(
        &mut self,
        ctx: &mut Ctx<'_, SnoozeMsg>,
        spec: &VmSpec,
        workload: &VmWorkload,
        span: Option<SpanId>,
    ) -> Option<ComponentId> {
        let views = self.lc_views();
        if let Some(lc) = self.placer.place(spec, &views) {
            let record = self.lcs.get_mut(&lc).expect("placer returned managed LC");
            record.reserved += spec.requested;
            record.idle_since = None;
            record.vms.insert(
                spec.id,
                VmRecord {
                    spec: *spec,
                    workload: workload.clone(),
                    usage: DemandEstimator::new(self.config.estimator),
                    migrating_to: None,
                    confirmed: false,
                    start_sent_at: ctx.now(),
                    span,
                    migration_span: None,
                },
            );
            let start = StartVm {
                spec: *spec,
                workload: workload.clone(),
            };
            match span {
                Some(s) => ctx.send_in(s, lc, start),
                None => ctx.send(lc, start),
            }
            return Some(lc);
        }
        // No powered-on LC fits. Wake a sleeping one that would.
        let wake_target = self
            .lcs
            .iter()
            .find(|(_, r)| {
                !r.powered_on && !r.waking && (r.reserved + spec.requested).fits_within(&r.capacity)
            })
            .map(|(&lc, _)| lc);
        if let Some(lc) = wake_target {
            let r = self.lcs.get_mut(&lc).unwrap();
            r.waking = true;
            r.wake_sent_at = Some(ctx.now());
            ctx.metrics()
                .incr_with("power.commands", &label("kind", "wake"));
            // The wake is causally part of the placement that forced it.
            match span {
                Some(s) => ctx.send_in(s, lc, WakeNode),
                None => ctx.send(lc, WakeNode),
            }
        }
        None
    }

    /// Queue a placement for retry (wake in progress / transient full).
    fn enqueue_pending(
        &mut self,
        ctx: &mut Ctx<'_, SnoozeMsg>,
        spec: VmSpec,
        workload: VmWorkload,
        span: Option<SpanId>,
    ) {
        self.pending.push_back(PendingPlacement {
            spec,
            workload,
            retries: 0,
            span,
        });
        if self.pending.len() == 1 {
            ctx.set_timer(self.config.placement_retry_period, tag(GM_RETRY, 0));
        }
    }

    fn drain_pending(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        let mut still_pending = VecDeque::new();
        while let Some(mut p) = self.pending.pop_front() {
            if let Some(lc) = self.try_place(ctx, &p.spec, &p.workload, p.span) {
                let _ = lc;
                continue;
            }
            // A wake in flight is progress, not a failed retry — resume
            // latency must not eat into the retry budget.
            if !self.lcs.values().any(|r| r.waking) {
                p.retries += 1;
            }
            if p.retries >= self.config.placement_max_retries {
                if let Some(sp) = p.span {
                    ctx.span_label(sp, "outcome", "exhausted");
                    ctx.span_close(sp);
                }
                if let Mode::Gm(gl) = self.mode {
                    let failed = VmFailed { vm: p.spec.id };
                    match p.span {
                        Some(sp) => ctx.send_in(sp, gl, failed),
                        None => ctx.send(gl, failed),
                    }
                }
            } else {
                still_pending.push_back(p);
            }
        }
        self.pending = still_pending;
        if !self.pending.is_empty() {
            ctx.set_timer(self.config.placement_retry_period, tag(GM_RETRY, 0));
        }
    }

    /// Issue a planned migration and update reservation bookkeeping.
    fn command_migration(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, m: PlannedMigration) {
        let Some(src) = self.lcs.get_mut(&m.from) else {
            return;
        };
        let Some(vm) = src.vms.get_mut(&m.vm) else {
            return;
        };
        if vm.migrating_to.is_some() {
            return;
        }
        vm.migrating_to = Some(m.to);
        let requested = vm.spec.requested;
        let span = ctx.span_open("gm.migrate");
        ctx.span_label(span, "vm", m.vm.0.to_string());
        ctx.span_label(span, "from", format!("{:?}", m.from));
        ctx.span_label(span, "to", format!("{:?}", m.to));
        // Re-borrow: span bookkeeping above released the record.
        if let Some(rec) = self.lcs.get_mut(&m.from).and_then(|r| r.vms.get_mut(&m.vm)) {
            rec.migration_span = Some(span);
        }
        if let Some(dst) = self.lcs.get_mut(&m.to) {
            dst.reserved += requested;
            dst.idle_since = None;
        }
        ctx.send_in(span, m.from, MigrateVm { vm: m.vm, to: m.to });
    }

    fn vm_views_of(&self, lc: ComponentId) -> Vec<VmView> {
        self.lcs
            .get(&lc)
            .map(|r| {
                r.vms
                    .values()
                    .filter(|v| v.migrating_to.is_none())
                    .map(|v| VmView {
                        vm: v.spec.id,
                        requested: v.spec.requested,
                        used: v.usage.estimate(),
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    fn handle_lc_failure(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, lc: ComponentId) {
        ctx.metrics()
            .incr_with("heartbeat_missed", &label("role", "lc"));
        let failover = ctx.span_instant("gm.lc-failover");
        ctx.span_label(failover, "lc", format!("{lc:?}"));
        let Some(record) = self.lcs.remove(&lc) else {
            return;
        };
        if self.config.reschedule_on_lc_failure {
            // §II-E: snapshot-based recovery — "allow the GM to reschedule
            // the failed VMs on its active LCs".
            for vm in record.vms.into_values() {
                self.enqueue_pending(ctx, vm.spec, vm.workload, vm.span);
            }
        }
    }

    fn energy_sweep(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        let Some(threshold) = self.config.idle_suspend_after else {
            return;
        };
        let now = ctx.now();
        let targets: Vec<ComponentId> = self
            .lcs
            .iter()
            .filter(|(_, r)| {
                r.powered_on
                    && !r.waking
                    && r.vms.is_empty()
                    && r.idle_since
                        .map(|t| now.since(t) >= threshold)
                        .unwrap_or(false)
            })
            .map(|(&lc, _)| lc)
            .collect();
        for lc in targets {
            let r = self.lcs.get_mut(&lc).unwrap();
            r.powered_on = false; // optimistic; LC confirms
            r.idle_since = None;
            self.lc_fd.forget(lc); // no heartbeats while asleep
            ctx.send(lc, SuspendNode);
        }
    }

    /// Re-send StartVm for placements whose acknowledgment is overdue
    /// (the command or its result was lost). Safe because the LC treats
    /// StartVm idempotently.
    fn retry_unconfirmed_starts(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        let now = ctx.now();
        let patience = self.config.vm_boot_delay + self.config.placement_retry_period * 4;
        let mut resend: Vec<(ComponentId, VmSpec, VmWorkload, Option<SpanId>)> = Vec::new();
        for (&lc, record) in &mut self.lcs {
            if !record.powered_on {
                continue;
            }
            for rec in record.vms.values_mut() {
                if !rec.confirmed
                    && rec.migrating_to.is_none()
                    && now.since(rec.start_sent_at) > patience
                {
                    rec.start_sent_at = now;
                    resend.push((lc, rec.spec, rec.workload.clone(), rec.span));
                }
            }
        }
        for (lc, spec, workload, span) in resend {
            let msg = StartVm { spec, workload };
            match span {
                Some(sp) => ctx.send_in(sp, lc, msg),
                None => ctx.send(lc, msg),
            }
        }
    }

    /// Re-send WakeNode to nodes that have been "waking" implausibly
    /// long — the original command (or the confirmation) was lost.
    fn retry_stale_wakes(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        let now = ctx.now();
        let patience = self.config.placement_retry_period * 12;
        let stale: Vec<ComponentId> = self
            .lcs
            .iter()
            .filter(|(_, r)| {
                r.waking
                    && r.wake_sent_at
                        .map(|t| now.since(t) > patience)
                        .unwrap_or(true)
            })
            .map(|(&lc, _)| lc)
            .collect();
        for lc in stale {
            if let Some(r) = self.lcs.get_mut(&lc) {
                r.wake_sent_at = Some(now);
            }
            ctx.send(lc, WakeNode);
        }
    }

    fn reconfigure(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        let Some(rc) = self.config.reconfiguration.as_ref() else {
            return;
        };
        let consolidator = Arc::clone(&rc.consolidator);
        let max_migrations = rc.max_migrations;
        let span = ctx.span_open("gm.reconfigure");
        let views = self.lc_views();
        let placements: Vec<(VmView, ComponentId)> = self
            .lcs
            .iter()
            .flat_map(|(&lc, r)| {
                r.vms
                    .values()
                    .filter(|v| v.migrating_to.is_none())
                    .map(move |v| {
                        (
                            VmView {
                                vm: v.spec.id,
                                requested: v.spec.requested,
                                used: v.usage.estimate(),
                            },
                            lc,
                        )
                    })
            })
            .collect();
        let plan = plan_reconfiguration(
            &views,
            &placements,
            consolidator.as_ref(),
            max_migrations,
            self.config.overload_threshold,
        );
        ctx.span_label(span, "migrations", plan.len().to_string());
        // The commanded migrations nest under the reconfiguration span
        // (span_open made it ambient), tying each move to its cause.
        for m in plan {
            self.command_migration(ctx, m);
        }
        ctx.span_close(span);
    }

    // ------------------------------------------------------------------
    // Mode transitions
    // ------------------------------------------------------------------

    fn become_gl(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        ctx.span_instant("gl.promoted");
        ctx.metrics()
            .incr_with("role_transitions", &label("to", "gl"));
        self.mode = Mode::Gl;
        // Dedicated roles: a GL does not manage LCs. Drop them; they will
        // notice the missing GM heartbeats and rejoin through the GL.
        self.lcs.clear();
        self.lc_fd.reset();
        self.pending.clear();
        self.gm_summaries.clear();
        self.gm_fd.reset();
        self.dispatches.clear();
        self.placed_registry.clear();
        ctx.set_timer(self.config.gl_heartbeat_period, tag(GL_TICK, 0));
        // Announce immediately: EPs and orphaned LCs are waiting.
        let me = ctx.id();
        ctx.multicast(self.gl_group, move || GlHeartbeat { gl: me });
    }

    fn become_gm(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, gl: ComponentId) {
        if self.mode == Mode::Gl {
            // Demotion does not happen in the ZK recipe (a leader keeps
            // its lowest znode until it dies), but guard anyway.
            self.gm_summaries.clear();
            self.gm_fd.reset();
        }
        self.mode = Mode::Gm(gl);
        ctx.metrics()
            .incr_with("role_transitions", &label("to", "gm"));
        ctx.send(gl, GmJoin);
        if !self.gm_timer_armed {
            self.gm_timer_armed = true;
            ctx.set_timer(self.config.gm_heartbeat_period, tag(GM_TICK, 0));
        }
    }

    // ------------------------------------------------------------------
    // GL-mode actions
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, submit: SubmitVm) {
        // Client submissions are at-least-once; placement must not be.
        if let Some(&(gm, lc)) = self.placed_registry.get(&submit.spec.id) {
            ctx.send(
                submit.client,
                VmPlaced {
                    vm: submit.spec.id,
                    gm,
                    lc,
                },
            );
            return;
        }
        if self.dispatches.contains_key(&submit.spec.id) {
            return; // already in flight
        }
        let summaries: Vec<GmSummaryView> = self
            .gm_summaries
            .iter()
            .map(|(&gm, s)| GmSummaryView {
                gm,
                used: s.used,
                total: s.total,
                reserved: s.reserved,
                n_lcs: s.n_lcs,
                n_vms: s.n_vms,
            })
            .collect();
        let candidates = self.dispatcher.candidates(&submit.spec, &summaries);
        if candidates.is_empty() {
            ctx.send(submit.client, VmRejected { vm: submit.spec.id });
            return;
        }
        let first = candidates[0];
        // Child of the EP's forward hop (ambient from the incoming
        // SubmitVm); stays open across candidate retries until a GM
        // confirms, rejects, or the search exhausts.
        let span = ctx.span_open("gl.dispatch");
        ctx.span_label(span, "vm", submit.spec.id.0.to_string());
        ctx.span_label(span, "candidates", candidates.len().to_string());
        self.dispatches.insert(
            submit.spec.id,
            DispatchState {
                spec: submit.spec,
                workload: submit.workload.clone(),
                client: submit.client,
                candidates,
                next: 1,
                started_at: ctx.now(),
                accepted: false,
                span,
            },
        );
        ctx.send_in(
            span,
            first,
            PlaceVmRequest {
                spec: submit.spec,
                workload: submit.workload,
            },
        );
    }

    /// Linear search continuation: the previous candidate refused.
    fn advance_dispatch(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, vm: VmId) {
        let Some(state) = self.dispatches.get_mut(&vm) else {
            return;
        };
        // Skip candidates that have since been declared dead.
        while state.next < state.candidates.len() {
            let gm = state.candidates[state.next];
            state.next += 1;
            if self.gm_summaries.contains_key(&gm) {
                state.started_at = ctx.now();
                state.accepted = false;
                let req = PlaceVmRequest {
                    spec: state.spec,
                    workload: state.workload.clone(),
                };
                ctx.send_in(state.span, gm, req);
                return;
            }
        }
        let state = self.dispatches.remove(&vm).unwrap();
        ctx.span_label(state.span, "outcome", "rejected");
        ctx.span_close(state.span);
        ctx.send_in(state.span, state.client, VmRejected { vm });
    }

    fn handle_gm_failure(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, gm: ComponentId) {
        // "GM failures are detected by the GL based on missing heartbeats,
        // and its contact information is gracefully removed in order to
        // prevent new VMs from being scheduled on it" (§II-E).
        self.gm_summaries.remove(&gm);
        ctx.metrics()
            .incr_with("heartbeat_missed", &label("role", "gm"));
        let failover = ctx.span_instant("gl.gm-failover");
        ctx.span_label(failover, "gm", format!("{gm:?}"));
        // Any dispatch waiting on that GM moves to the next candidate.
        // BTreeMap iteration is VmId-ordered, so the retry order is stable.
        let stuck: Vec<VmId> = self
            .dispatches
            .iter()
            .filter(|(_, s)| s.next > 0 && s.candidates.get(s.next - 1) == Some(&gm))
            .map(|(&vm, _)| vm)
            .collect();
        for vm in stuck {
            self.advance_dispatch(ctx, vm);
        }
    }

    fn gl_tick(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        let me = ctx.id();
        ctx.multicast(self.gl_group, move || GlHeartbeat { gl: me });
        for gm in self.gm_fd.expire(ctx.now()) {
            self.handle_gm_failure(ctx, gm);
        }
        // Time out dispatches whose current candidate never answered —
        // and, with a much longer fuse, *accepted* dispatches whose GM
        // went silent (a lost StartVm/VmActive would otherwise wedge the
        // VM forever behind the in-flight dedupe). The accepted deadline
        // must comfortably exceed a node wake (≈25 s) plus a VM boot.
        let deadline = self.config.placement_retry_period * 4;
        let accepted_deadline = self.config.dispatch_accept_timeout;
        let now = ctx.now();
        let stale: Vec<VmId> = self
            .dispatches
            .iter()
            .filter(|(_, s)| {
                let age = now.since(s.started_at);
                if s.accepted {
                    age > accepted_deadline
                } else {
                    age > deadline
                }
            })
            .map(|(&vm, _)| vm)
            .collect();
        for vm in stale {
            self.advance_dispatch(ctx, vm);
        }
        ctx.set_timer(self.config.gl_heartbeat_period, tag(GL_TICK, 0));
    }

    fn gm_tick(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        if let Mode::Gm(gl) = self.mode {
            let summary = self.summary();
            ctx.send(gl, summary);
            let me = ctx.id();
            ctx.multicast(self.lc_group, move || GmLcHeartbeat { gm: me });
            for lc in self.lc_fd.expire(ctx.now()) {
                self.handle_lc_failure(ctx, lc);
            }
            self.retry_stale_wakes(ctx);
            self.retry_unconfirmed_starts(ctx);
            self.energy_sweep(ctx);
            ctx.set_timer(self.config.gm_heartbeat_period, tag(GM_TICK, 0));
        } else {
            self.gm_timer_armed = false;
        }
    }
}

impl McState for Mode {
    fn mc_fold(&self, h: &mut McHasher) {
        match *self {
            Mode::Candidate => h.word(1),
            Mode::Gl => h.word(2),
            Mode::Gm(gl) => {
                h.word(3);
                h.id(gl);
            }
        }
    }
}

impl McState for GroupManager {
    fn mc_fold(&self, h: &mut McHasher) {
        // Config, groups, placer and dispatcher are run constants —
        // identical in every state of one exploration — so only the
        // mutable protocol state is folded.
        self.elector.mc_fold(h);
        self.mode.mc_fold(h);
        h.word(self.lcs.len() as u64);
        for (lc, rec) in &self.lcs {
            h.id(*lc);
            rec.capacity.mc_fold(h);
            rec.reserved.mc_fold(h);
            rec.usage.mc_fold(h);
            h.flag(rec.powered_on);
            h.flag(rec.waking);
            match rec.wake_sent_at {
                Some(t) => {
                    h.word(1);
                    h.time(t);
                }
                None => h.word(0),
            }
            match rec.idle_since {
                Some(t) => {
                    h.word(1);
                    h.time(t);
                }
                None => h.word(0),
            }
            h.word(rec.vms.len() as u64);
            for (vm, v) in &rec.vms {
                vm.mc_fold(h);
                v.spec.mc_fold(h);
                v.workload.mc_fold(h);
                v.usage.mc_fold(h);
                h.opt_id(v.migrating_to);
                h.flag(v.confirmed);
                h.time(v.start_sent_at);
            }
        }
        self.lc_fd.mc_fold(h);
        h.word(self.pending.len() as u64);
        for p in &self.pending {
            p.spec.mc_fold(h);
            p.workload.mc_fold(h);
            h.word(p.retries as u64);
        }
        h.flag(self.gm_timer_armed);
        h.word(self.gm_summaries.len() as u64);
        for (gm, hb) in &self.gm_summaries {
            h.id(*gm);
            hb.mc_fold(h);
        }
        self.gm_fd.mc_fold(h);
        h.word(self.dispatches.len() as u64);
        for (vm, d) in &self.dispatches {
            vm.mc_fold(h);
            d.spec.mc_fold(h);
            d.workload.mc_fold(h);
            h.id(d.client);
            h.word(d.candidates.len() as u64);
            for c in &d.candidates {
                h.id(*c);
            }
            h.word(d.next as u64);
            h.time(d.started_at);
            h.flag(d.accepted);
        }
        h.word(self.placed_registry.len() as u64);
        for (vm, (gm, lc)) in &self.placed_registry {
            vm.mc_fold(h);
            h.id(*gm);
            h.id(*lc);
        }
    }
}

impl Component for GroupManager {
    type Msg = SnoozeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        ctx.join_group(self.gl_group);
        self.elector.start(ctx);
        if let Some(rc) = self.config.reconfiguration.as_ref() {
            ctx.set_timer(rc.period, tag(GM_RECONF, 0));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, src: ComponentId, msg: SnoozeMsg) {
        let now = ctx.now();

        match msg {
            // --- election plumbing ---
            SnoozeMsg::Protocol(p) => {
                let ProtocolMsg::Reply(reply) = *p else {
                    return; // requests are for the coordination service
                };
                if let Some(event) = self.elector.handle_reply(ctx, &reply) {
                    match event {
                        ElectorEvent::BecameLeader => self.become_gl(ctx),
                        ElectorEvent::FollowingLeader(gl) => self.become_gm(ctx, gl),
                    }
                }
            }

            // --- messages any mode can receive ---
            SnoozeMsg::GlHeartbeat(hb) => {
                // A GM re-syncs with a GL it didn't know (e.g. after the
                // elector converged before the GmJoin got through a partition).
                if let Mode::Gm(gl) = self.mode {
                    if gl != hb.gl {
                        self.become_gm(ctx, hb.gl);
                    }
                }
            }

            // --- GL-mode traffic ---
            SnoozeMsg::GmJoin(_) if self.mode == Mode::Gl => {
                self.gm_fd.heard(src, now);
                self.gm_summaries.entry(src).or_insert(GmHeartbeat {
                    used: ResourceVector::ZERO,
                    total: ResourceVector::ZERO,
                    reserved: ResourceVector::ZERO,
                    n_lcs: 0,
                    n_vms: 0,
                });
            }
            SnoozeMsg::GmHeartbeat(hb) if self.mode == Mode::Gl => {
                self.gm_fd.heard(src, now);
                self.gm_summaries.insert(src, *hb);
            }
            SnoozeMsg::LcAssignRequest(_) if self.mode == Mode::Gl => {
                // Assign to the GM with the fewest LCs ("e.g. to least
                // loaded GMs", §II-D).
                let target = self
                    .gm_summaries
                    .iter()
                    .min_by_key(|(gm, s)| (s.n_lcs, **gm))
                    .map(|(&gm, _)| gm);
                if let Some(gm) = target {
                    // Count the assignment so a burst of joins spreads.
                    if let Some(s) = self.gm_summaries.get_mut(&gm) {
                        s.n_lcs += 1;
                    }
                    ctx.send(src, LcAssignment { gm });
                }
                // No GMs yet: drop; the LC retries on later heartbeats.
            }
            SnoozeMsg::SubmitVm(submit) if self.mode == Mode::Gl => {
                self.dispatch(ctx, *submit);
            }
            SnoozeMsg::PlaceVmResponse(resp) if self.mode == Mode::Gl => {
                if resp.placed_on.is_some() {
                    // Accepted; wait for VmActive before acking client.
                    if let Some(state) = self.dispatches.get_mut(&resp.vm) {
                        state.accepted = true;
                        state.started_at = now; // acceptance clock
                    }
                } else {
                    self.advance_dispatch(ctx, resp.vm);
                }
            }
            SnoozeMsg::VmActive(active) if self.mode == Mode::Gl => {
                self.placed_registry.insert(active.vm, (src, active.lc));
                if let Some(state) = self.dispatches.remove(&active.vm) {
                    ctx.span_label(state.span, "outcome", "placed");
                    ctx.span_close(state.span);
                    let placed = VmPlaced {
                        vm: active.vm,
                        gm: src,
                        lc: active.lc,
                    };
                    ctx.send_in(state.span, state.client, placed);
                }
            }
            SnoozeMsg::VmFailed(fail) if self.mode == Mode::Gl => {
                if let Some(state) = self.dispatches.remove(&fail.vm) {
                    ctx.span_label(state.span, "outcome", "failed");
                    ctx.span_close(state.span);
                    ctx.send_in(state.span, state.client, VmRejected { vm: fail.vm });
                }
            }
            SnoozeMsg::HierarchyQuery(_) if self.mode == Mode::Gl => {
                // "Exporting of the hierarchy organization" (§II-A).
                let snapshot = HierarchySnapshot {
                    gl: ctx.id(),
                    gms: self.gm_summaries.iter().map(|(&gm, s)| (gm, *s)).collect(),
                };
                ctx.send(src, snapshot);
            }

            // --- GM-mode traffic ---
            SnoozeMsg::LcJoin(join) if matches!(self.mode, Mode::Gm(_)) => {
                self.lc_fd.heard(src, now);
                self.lcs.entry(src).or_insert_with(|| LcRecord {
                    capacity: join.capacity,
                    reserved: ResourceVector::ZERO,
                    usage: DemandEstimator::new(self.config.estimator),
                    powered_on: true,
                    waking: false,
                    wake_sent_at: None,
                    idle_since: Some(now),
                    vms: BTreeMap::new(),
                });
                let group = self.lc_group;
                ctx.send(src, LcJoinAckWithGroup { group });
            }
            SnoozeMsg::LcMonitoring(report) if matches!(self.mode, Mode::Gm(_)) => {
                let estimator_kind = self.config.estimator;
                let Some(record) = self.lcs.get_mut(&src) else {
                    return;
                };
                if !record.powered_on && report.powered_on {
                    // In-flight report racing a suspend command: if it
                    // refreshed the record, the failure detector would
                    // later expire the silent sleeper and evict it.
                    // The LC announces genuine wake-ups (and refused
                    // suspends) via NodePowerChanged.
                    return;
                }
                self.lc_fd.heard(src, now);
                record.capacity = report.capacity;
                record.reserved = report.reserved;
                record.powered_on = report.powered_on;
                if report.powered_on {
                    record.waking = false;
                    record.wake_sent_at = None;
                }
                let mut total_used = ResourceVector::ZERO;
                // Sync the VM set with the LC's authoritative list.
                let reported: std::collections::BTreeSet<VmId> =
                    report.vms.iter().map(|v| v.vm).collect();
                record.vms.retain(|vm, rec| {
                    // VMs mid-migration linger in bookkeeping until
                    // MigrationDone even if the LC dropped them, and
                    // unconfirmed records survive until their StartVm
                    // is acknowledged (it may still be in flight).
                    reported.contains(vm) || rec.migrating_to.is_some() || !rec.confirmed
                });
                for vu in &report.vms {
                    total_used += vu.used;
                    let rec = record.vms.entry(vu.vm).or_insert_with(|| VmRecord {
                        spec: snooze_cluster::vm::VmSpec::new(vu.vm, vu.requested),
                        workload: VmWorkload::flat_full(vu.vm.0),
                        usage: DemandEstimator::new(estimator_kind),
                        migrating_to: None,
                        confirmed: true,
                        start_sent_at: now,
                        span: None,
                        migration_span: None,
                    });
                    if !rec.confirmed {
                        // Monitoring vouched for the VM before the
                        // StartVmResult arrived: the placement is done.
                        if let Some(sp) = rec.span.take() {
                            ctx.span_label(sp, "outcome", "confirmed");
                            ctx.span_close(sp);
                        }
                    }
                    rec.confirmed = true; // the LC vouches for it
                    rec.usage.observe(vu.used);
                }
                record.usage.observe(total_used);
                record.idle_since = match (record.vms.is_empty(), record.idle_since) {
                    (true, None) => Some(now),
                    (true, keep) => keep,
                    (false, _) => None,
                };
            }
            SnoozeMsg::AnomalyReport(report) if matches!(self.mode, Mode::Gm(_)) => {
                self.lc_fd.heard(src, now);
                let views = self.lc_views();
                // Each relocation round is a span; the migrations it
                // commands nest under it through the ambient context.
                let span = ctx.span_open("gm.relocate");
                ctx.span_label(span, "lc", format!("{src:?}"));
                match report.kind {
                    AnomalyKind::Overload => {
                        ctx.span_label(span, "kind", "overload");
                        let vms = self.vm_views_of(src);
                        if let Some(m) = plan_overload_relocation(src, &vms, &views) {
                            self.command_migration(ctx, m);
                        }
                    }
                    AnomalyKind::Underload => {
                        ctx.span_label(span, "kind", "underload");
                        let vms = self.vm_views_of(src);
                        if let Some(plan) = plan_underload_relocation(
                            src,
                            &vms,
                            &views,
                            self.config.underload_threshold,
                        ) {
                            for m in plan {
                                self.command_migration(ctx, m);
                            }
                        }
                    }
                }
                ctx.span_close(span);
            }
            SnoozeMsg::PlaceVmRequest(req) if matches!(self.mode, Mode::Gm(_)) => {
                // Child of the GL's dispatch span; lives in the
                // VmRecord (or pending queue) until the start confirms.
                let span = ctx.span_open("gm.place");
                ctx.span_label(span, "vm", req.spec.id.0.to_string());
                if let Some(lc) = self.try_place(ctx, &req.spec, &req.workload, Some(span)) {
                    ctx.span_label(span, "lc", format!("{lc:?}"));
                    let resp = PlaceVmResponse {
                        vm: req.spec.id,
                        placed_on: Some(lc),
                    };
                    ctx.send(src, resp);
                } else if self.lcs.values().any(|r| r.waking) {
                    // Capacity is waking up: accept and queue.
                    ctx.span_label(span, "queued", "true");
                    let resp = PlaceVmResponse {
                        vm: req.spec.id,
                        placed_on: Some(src),
                    };
                    ctx.send(src, resp);
                    self.enqueue_pending(ctx, req.spec, req.workload, Some(span));
                } else {
                    ctx.span_label(span, "outcome", "refused");
                    ctx.span_close(span);
                    let resp = PlaceVmResponse {
                        vm: req.spec.id,
                        placed_on: None,
                    };
                    ctx.send(src, resp);
                }
            }
            SnoozeMsg::StartVmResult(result) if matches!(self.mode, Mode::Gm(_)) => {
                let Mode::Gm(gl) = self.mode else {
                    return;
                };
                if result.ok {
                    if let Some(record) = self.lcs.get_mut(&src) {
                        if let Some(rec) = record.vms.get_mut(&result.vm) {
                            rec.confirmed = true;
                            if let Some(sp) = rec.span.take() {
                                ctx.span_label(sp, "outcome", "started");
                                ctx.span_close(sp);
                            }
                        }
                    }
                    ctx.send(
                        gl,
                        VmActive {
                            vm: result.vm,
                            lc: src,
                        },
                    );
                } else {
                    // Admission raced; roll back and retry elsewhere.
                    if let Some(record) = self.lcs.get_mut(&src) {
                        if let Some(rec) = record.vms.remove(&result.vm) {
                            record.reserved = record.reserved.saturating_sub(&rec.spec.requested);
                            self.enqueue_pending(ctx, rec.spec, rec.workload, rec.span);
                        }
                    }
                }
            }
            SnoozeMsg::MigrateRefused(refused) if matches!(self.mode, Mode::Gm(_)) => {
                // Roll back: the VM stays where it is; release the
                // destination's reservation.
                let vm = refused.vm;
                let rollback = self.lcs.values_mut().find_map(|r| {
                    let rec = r.vms.get_mut(&vm)?;
                    rec.migrating_to
                        .take()
                        .map(|dest| (rec.spec.requested, dest, rec.migration_span.take()))
                });
                if let Some((requested, dest, mig_span)) = rollback {
                    if let Some(sp) = mig_span {
                        ctx.span_label(sp, "outcome", "refused");
                        ctx.span_close(sp);
                    }
                    if let Some(dst) = self.lcs.get_mut(&dest) {
                        dst.reserved = dst.reserved.saturating_sub(&requested);
                    }
                }
            }
            SnoozeMsg::MigrationDone(done) if matches!(self.mode, Mode::Gm(_)) => {
                // src is the *destination* LC.
                self.lc_fd.heard(src, now);
                let vm = done.vm;
                // Find the source record holding this VM in-flight.
                let source = self
                    .lcs
                    .iter()
                    .find(|(_, r)| {
                        r.vms
                            .get(&vm)
                            .map(|v| v.migrating_to == Some(src))
                            .unwrap_or(false)
                    })
                    .map(|(&lc, _)| lc);
                // `source` came from a scan that saw the record, but
                // unwrapping would still wedge the GM on a stale or
                // replayed MigrationDone — tolerate absence instead.
                let rec = source.and_then(|from| {
                    let src_rec = self.lcs.get_mut(&from)?;
                    let rec = src_rec.vms.remove(&vm)?;
                    src_rec.reserved = src_rec.reserved.saturating_sub(&rec.spec.requested);
                    if src_rec.vms.is_empty() {
                        src_rec.idle_since = Some(now);
                    }
                    Some(rec)
                });
                if let Some(rec) = rec {
                    if let Some(sp) = rec.migration_span {
                        ctx.span_label(sp, "outcome", if done.ok { "done" } else { "failed" });
                        ctx.span_close(sp);
                    }
                    if done.ok {
                        if let Some(dst_rec) = self.lcs.get_mut(&src) {
                            dst_rec.vms.insert(
                                vm,
                                VmRecord {
                                    migrating_to: None,
                                    migration_span: None,
                                    ..rec
                                },
                            );
                        }
                    } else {
                        // Destination refused the hand-off: the VM is
                        // gone from the source. Recover if configured.
                        if let Some(dst_rec) = self.lcs.get_mut(&src) {
                            dst_rec.reserved = dst_rec.reserved.saturating_sub(&rec.spec.requested);
                        }
                        if self.config.reschedule_on_lc_failure {
                            self.enqueue_pending(ctx, rec.spec, rec.workload, rec.span);
                        }
                    }
                }
            }
            SnoozeMsg::DestroyVm(d) if matches!(self.mode, Mode::Gm(_)) => {
                // Forwarded by an LC the VM migrated away from: route
                // to wherever our bookkeeping says it lives now.
                let vm = d.vm;
                let host = self
                    .lcs
                    .iter()
                    .find(|(&lc, r)| lc != src && r.vms.contains_key(&vm))
                    .map(|(&lc, _)| lc);
                if let Some(lc) = host {
                    ctx.send(lc, DestroyVm { vm });
                }
            }
            SnoozeMsg::NodePowerChanged(pc) if matches!(self.mode, Mode::Gm(_)) => {
                if let Some(record) = self.lcs.get_mut(&src) {
                    record.powered_on = pc.powered_on;
                    if pc.powered_on {
                        record.waking = false;
                        record.wake_sent_at = None;
                        self.lc_fd.heard(src, now);
                        // Capacity came online: retry queued work now.
                        self.drain_pending(ctx);
                    } else {
                        self.lc_fd.forget(src);
                    }
                }
            }

            // Everything else — wrong-mode traffic (a Candidate is not
            // yet part of the hierarchy), messages addressed to other
            // roles — is dropped, like an unrecognized RPC.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, t: u64) {
        if t == ELECTION_PING_TAG {
            self.elector.tick(ctx);
            return;
        }
        match tag_kind(t) {
            GL_TICK if self.mode == Mode::Gl => self.gl_tick(ctx),
            GL_TICK => {}
            GM_TICK => self.gm_tick(ctx),
            GM_RETRY => {
                if matches!(self.mode, Mode::Gm(_)) {
                    self.drain_pending(ctx);
                }
            }
            GM_RECONF => {
                if matches!(self.mode, Mode::Gm(_)) {
                    self.reconfigure(ctx);
                }
                if let Some(rc) = self.config.reconfiguration.as_ref() {
                    ctx.set_timer(rc.period, tag(GM_RECONF, 0));
                }
            }
            _ => {}
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        // Fresh process: volatile state is gone (§II-E's self-healing
        // relies on re-joining, not on persistence).
        self.mode = Mode::Candidate;
        self.lcs.clear();
        self.lc_fd.reset();
        self.pending.clear();
        self.gm_summaries.clear();
        self.gm_fd.reset();
        self.dispatches.clear();
        self.placed_registry.clear();
        self.gm_timer_armed = false;
        self.elector.start(ctx);
        if let Some(rc) = self.config.reconfiguration.as_ref() {
            ctx.set_timer(rc.period, tag(GM_RECONF, 0));
        }
    }
}
