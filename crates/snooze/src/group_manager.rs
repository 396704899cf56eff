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
use crate::scheduling::dispatching;
use crate::scheduling::placement::{Decision, Placer, Slot};
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

/// A GM's per-LC rows: `(lc, value)` in `ComponentId` order in one
/// `Vec`, plus an index from id to row. A lookup is one array read, and
/// every scan walks the rows in the order a `BTreeMap` keyed by id would
/// give. Joins and evictions shift the rows after them, which is cheap
/// at their rate (once per LC per join) against one lookup per report.
#[derive(Clone)]
struct LcTable<V> {
    rows: Vec<(ComponentId, V)>,
    /// `index[lc.0]` is `lc`'s row, or `VACANT`; ids past its end are
    /// absent. Component ids are engine slot numbers, so it is never
    /// longer than the deployment has components.
    index: Vec<u32>,
}

const VACANT: u32 = u32::MAX;

impl<V> LcTable<V> {
    fn new() -> Self {
        LcTable {
            rows: Vec::new(),
            index: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn row(&self, lc: ComponentId) -> Option<usize> {
        match self.index.get(lc.0) {
            Some(&row) if row != VACANT => Some(row as usize),
            _ => None,
        }
    }

    fn get(&self, lc: ComponentId) -> Option<&V> {
        self.row(lc).map(|row| &self.rows[row].1)
    }

    fn get_mut(&mut self, lc: ComponentId) -> Option<&mut V> {
        self.row(lc).map(|row| &mut self.rows[row].1)
    }

    /// `lc`'s value, inserting `make()` first if `lc` has none.
    fn get_or_insert_with(&mut self, lc: ComponentId, make: impl FnOnce() -> V) -> &mut V {
        let row = match self.row(lc) {
            Some(row) => row,
            None => {
                let row = self.rows.partition_point(|&(id, _)| id < lc);
                self.rows.insert(row, (lc, make()));
                if self.index.len() <= lc.0 {
                    self.index.resize(lc.0 + 1, VACANT);
                }
                self.reindex_from(row);
                row
            }
        };
        &mut self.rows[row].1
    }

    fn remove(&mut self, lc: ComponentId) -> Option<V> {
        let row = self.row(lc)?;
        let (_, value) = self.rows.remove(row);
        self.index[lc.0] = VACANT;
        self.reindex_from(row);
        Some(value)
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.index.clear();
    }

    /// Point the index at every row from `row` on, after a shift.
    fn reindex_from(&mut self, row: usize) {
        for (i, &(id, _)) in self.rows.iter().enumerate().skip(row) {
            self.index[id.0] = i as u32;
        }
    }

    fn iter(&self) -> impl Iterator<Item = (ComponentId, &V)> + Clone {
        self.rows.iter().map(|(id, v)| (*id, v))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (ComponentId, &mut V)> {
        self.rows.iter_mut().map(|(id, v)| (*id, v))
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.rows.iter().map(|(_, v)| v)
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.rows.iter_mut().map(|(_, v)| v)
    }
}

/// A GM's records of the VMs on one LC: `(vm, value)` rows in `VmId`
/// order in one `Vec`, searched by bisection. An LC hosts a handful of
/// VMs, so one allocation is smaller than a B-tree leaf sized for eleven,
/// and every scan sees the order a `BTreeMap` keyed by id would give.
/// The methods keep that map's names, so call sites read as before.
#[derive(Clone)]
struct VmTable<V> {
    rows: Vec<(VmId, V)>,
}

impl<V> VmTable<V> {
    fn new() -> Self {
        VmTable { rows: Vec::new() }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// `vm`'s row: `Ok` where it is held, `Err` where it would go.
    fn row(&self, vm: VmId) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&vm, |&(id, _)| id)
    }

    fn contains_key(&self, vm: VmId) -> bool {
        self.row(vm).is_ok()
    }

    fn get(&self, vm: VmId) -> Option<&V> {
        self.row(vm).ok().map(|row| &self.rows[row].1)
    }

    fn get_mut(&mut self, vm: VmId) -> Option<&mut V> {
        let row = self.row(vm).ok()?;
        Some(&mut self.rows[row].1)
    }

    /// Hold `value` for `vm`, returning the value it replaces.
    fn insert(&mut self, vm: VmId, value: V) -> Option<V> {
        match self.row(vm) {
            Ok(row) => Some(std::mem::replace(&mut self.rows[row].1, value)),
            Err(row) => {
                self.rows.insert(row, (vm, value));
                None
            }
        }
    }

    fn remove(&mut self, vm: VmId) -> Option<V> {
        let row = self.row(vm).ok()?;
        Some(self.rows.remove(row).1)
    }

    /// Keep the rows `keep` accepts, visiting every row once in `VmId`
    /// order.
    fn retain(&mut self, mut keep: impl FnMut(VmId, &mut V) -> bool) {
        self.rows.retain_mut(|(vm, value)| keep(*vm, value));
    }

    fn iter(&self) -> impl Iterator<Item = (VmId, &V)> {
        self.rows.iter().map(|(vm, v)| (*vm, v))
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.rows.iter().map(|(_, v)| v)
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.rows.iter_mut().map(|(_, v)| v)
    }

    fn into_values(self) -> impl Iterator<Item = V> {
        self.rows.into_iter().map(|(_, v)| v)
    }
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
    vms: VmTable<VmRecord>,
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

/// What became of one placement attempt.
enum Attempt {
    /// Started on this LC.
    Placed(ComponentId),
    /// Nothing fits yet, but an LC is waking up (perhaps woken by this
    /// very attempt).
    Waking,
    /// Nothing fits and nothing is waking.
    Full,
}

/// Retries after which a pending placement is given up and reported
/// failed to the GL.
const PLACEMENT_MAX_RETRIES: u32 = 20;

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
    /// Shared by every component of a deployment: the engine strides its
    /// slots by the largest node, and a private copy would put 240 bytes
    /// in every slot.
    config: Arc<SnoozeConfig>,
    gl_group: GroupId,
    lc_group: GroupId,
    elector: Elector,
    mode: Mode,

    // --- GM-mode state ---
    lcs: LcTable<LcRecord>,
    lc_fd: FailureDetector<ComponentId>,
    placer: Placer,
    pending: VecDeque<PendingPlacement>,
    gm_timer_armed: bool,

    // --- GL-mode state ---
    gm_summaries: BTreeMap<ComponentId, GmHeartbeat>,
    gm_fd: FailureDetector<ComponentId>,
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
        config: impl Into<Arc<SnoozeConfig>>,
        zk: ComponentId,
        gl_group: GroupId,
        lc_group: GroupId,
    ) -> Self {
        let config = config.into();
        let elector = Elector::new(zk, "gl-election", config.election_ping_period);
        GroupManager {
            lc_fd: FailureDetector::new(config.silence_timeout),
            gm_fd: FailureDetector::new(config.silence_timeout),
            placer: Placer::new(config.placement),
            config,
            gl_group,
            lc_group,
            elector,
            mode: Mode::Candidate,
            lcs: LcTable::new(),
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

    /// A copy of every LC record, for the planners that take a snapshot
    /// (relocation, reconfiguration). Placement and the tick's sweep read
    /// the table in place: a copy per VM is a fleet-sized allocation.
    fn lc_views(&self) -> Vec<LcView> {
        self.lcs
            .iter()
            .map(|(lc, r)| LcView {
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

    /// Try to place a VM now, deciding over the LC table in place. When
    /// no powered-on LC fits, wakes the lowest-id sleeper that would.
    fn try_place(
        &mut self,
        ctx: &mut Ctx<'_, SnoozeMsg>,
        spec: &VmSpec,
        workload: &VmWorkload,
        span: Option<SpanId>,
    ) -> Attempt {
        let slots = self.lcs.iter().map(|(lc, r)| Slot {
            lc,
            capacity: &r.capacity,
            reserved: &r.reserved,
            powered_on: r.powered_on,
            waking: r.waking,
        });
        let lc = match self.placer.decide(&spec.requested, slots) {
            Decision::Place(lc) => lc,
            Decision::Wake(lc) => {
                let r = self.lcs.get_mut(lc).expect("placer returned managed LC");
                r.waking = true;
                r.wake_sent_at = Some(ctx.now());
                ctx.metrics()
                    .incr_with("power.commands", &label("kind", "wake"));
                // The wake is causally part of the placement that forced it.
                match span {
                    Some(s) => ctx.send_in(s, lc, WakeNode),
                    None => ctx.send(lc, WakeNode),
                }
                return Attempt::Waking;
            }
            Decision::Wait { waking: true } => return Attempt::Waking,
            Decision::Wait { waking: false } => return Attempt::Full,
        };
        let record = self.lcs.get_mut(lc).expect("placer returned managed LC");
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
        Attempt::Placed(lc)
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
            match self.try_place(ctx, &p.spec, &p.workload, p.span) {
                Attempt::Placed(_) => continue,
                // A wake in flight is progress, not a failed retry —
                // resume latency must not eat into the retry budget.
                Attempt::Waking => {}
                Attempt::Full => p.retries += 1,
            }
            if p.retries >= PLACEMENT_MAX_RETRIES {
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
        let Some(src) = self.lcs.get_mut(m.from) else {
            return;
        };
        let Some(vm) = src.vms.get_mut(m.vm) else {
            return;
        };
        if vm.migrating_to.is_some() {
            return;
        }
        vm.migrating_to = Some(m.to);
        let requested = vm.spec.requested;
        let span = ctx.span_open("gm.migrate");
        ctx.span_label(span, "vm", m.vm.0);
        ctx.span_label(span, "from", m.from);
        ctx.span_label(span, "to", m.to);
        // Re-borrow: span bookkeeping above released the record.
        if let Some(rec) = self.lcs.get_mut(m.from).and_then(|r| r.vms.get_mut(m.vm)) {
            rec.migration_span = Some(span);
        }
        if let Some(dst) = self.lcs.get_mut(m.to) {
            dst.reserved += requested;
            dst.idle_since = None;
        }
        ctx.send_in(span, m.from, MigrateVm { vm: m.vm, to: m.to });
    }

    fn vm_views_of(&self, lc: ComponentId) -> Vec<VmView> {
        self.lcs
            .get(lc)
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
        ctx.span_label(failover, "lc", lc);
        let Some(record) = self.lcs.remove(lc) else {
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

    /// The tick's one walk over the LC table. It re-sends `WakeNode` to
    /// LCs that have been waking implausibly long (the command or its
    /// confirmation was lost), re-sends `StartVm` for placements whose
    /// acknowledgment is overdue (safe: the LC treats StartVm
    /// idempotently) and suspends powered-on LCs idle past
    /// `idle_suspend_after`. The sends leave in three groups — every
    /// wake, then every start, then every suspend, each in LC id order.
    fn sweep(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        let now = ctx.now();
        let wake_patience = self.config.placement_retry_period * 12;
        let start_patience = self.config.vm_boot_delay + self.config.placement_retry_period * 4;
        let idle_suspend_after = self.config.idle_suspend_after;
        let mut wakes = Vec::new();
        let mut starts = Vec::new();
        let mut suspends = Vec::new();
        for (lc, r) in self.lcs.iter_mut() {
            if r.waking && r.wake_sent_at.is_none_or(|t| now.since(t) > wake_patience) {
                r.wake_sent_at = Some(now);
                wakes.push(lc);
            }
            // Starts and suspends are for powered-on LCs only: a sleeper's
            // row is read no further than its flags.
            if !r.powered_on {
                continue;
            }
            for rec in r.vms.values_mut() {
                if !rec.confirmed
                    && rec.migrating_to.is_none()
                    && now.since(rec.start_sent_at) > start_patience
                {
                    rec.start_sent_at = now;
                    let msg = StartVm {
                        spec: rec.spec,
                        workload: rec.workload.clone(),
                    };
                    starts.push((lc, msg, rec.span));
                }
            }
            let idle_long_enough = match (idle_suspend_after, r.idle_since) {
                (Some(threshold), Some(t)) => now.since(t) >= threshold,
                _ => false,
            };
            if !r.waking && r.vms.is_empty() && idle_long_enough {
                r.powered_on = false; // optimistic; LC confirms
                r.idle_since = None;
                self.lc_fd.forget(lc); // no heartbeats while asleep
                suspends.push(lc);
            }
        }
        for lc in wakes {
            ctx.send(lc, WakeNode);
        }
        for (lc, msg, span) in starts {
            match span {
                Some(sp) => ctx.send_in(sp, lc, msg),
                None => ctx.send(lc, msg),
            }
        }
        for lc in suspends {
            ctx.send(lc, SuspendNode);
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
            .flat_map(|(lc, r)| {
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
        // The decision record: what the packer was handed and what it found.
        for (key, value) in [
            ("migrations", plan.migrations.len()),
            ("items", plan.items),
            ("hosts", plan.hosts),
            ("hosts_before", plan.hosts_before),
            ("hosts_after", plan.hosts_after),
            ("lower_bound", plan.lower_bound),
        ] {
            ctx.span_label(span, key, value);
        }
        // The commanded migrations nest under the reconfiguration span
        // (span_open made it ambient), tying each move to its cause.
        for m in plan.migrations {
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
        ctx.set_timer(self.config.heartbeat_period, tag(GL_TICK, 0));
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
            ctx.set_timer(self.config.heartbeat_period, tag(GM_TICK, 0));
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
        let candidates = dispatching::candidates(&submit.spec, &summaries);
        if candidates.is_empty() {
            ctx.send(submit.client, VmRejected { vm: submit.spec.id });
            return;
        }
        let first = candidates[0];
        // Child of the EP's forward hop (ambient from the incoming
        // SubmitVm); stays open across candidate retries until a GM
        // confirms, rejects, or the search exhausts.
        let span = ctx.span_open("gl.dispatch");
        ctx.span_label(span, "vm", submit.spec.id.0);
        ctx.span_label(span, "candidates", candidates.len());
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
        ctx.span_label(failover, "gm", gm);
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
        ctx.set_timer(self.config.heartbeat_period, tag(GL_TICK, 0));
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
            self.sweep(ctx);
            ctx.set_timer(self.config.heartbeat_period, tag(GM_TICK, 0));
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
        // Config and groups are run constants — identical in every state
        // of one exploration — so only the mutable protocol state is
        // folded. The placer is not folded either: the round-robin
        // placer's cursor moves, but the checked harnesses run
        // first-fit, whose placer holds no state.
        self.elector.mc_fold(h);
        self.mode.mc_fold(h);
        h.word(self.lcs.len() as u64);
        for (lc, rec) in self.lcs.iter() {
            h.id(lc);
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
            for (vm, v) in rec.vms.iter() {
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
                let estimator = self.config.estimator;
                self.lcs.get_or_insert_with(src, || LcRecord {
                    capacity: join.capacity,
                    reserved: ResourceVector::ZERO,
                    usage: DemandEstimator::new(estimator),
                    powered_on: true,
                    waking: false,
                    wake_sent_at: None,
                    idle_since: Some(now),
                    vms: VmTable::new(),
                });
                let group = self.lc_group;
                ctx.send(src, LcJoinAckWithGroup { group });
            }
            SnoozeMsg::LcMonitoring(report) if matches!(self.mode, Mode::Gm(_)) => {
                let estimator_kind = self.config.estimator;
                let Some(record) = self.lcs.get_mut(src) else {
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
                debug_assert!(
                    report.vms.windows(2).all(|w| w[0].vm < w[1].vm),
                    "a monitoring report lists its VMs in strictly increasing id order"
                );
                // Sync the VM set with the LC's authoritative list: one
                // merge walk of two `VmId`-ordered sequences, the records
                // and the report.
                let mut reported = report.vms.iter().peekable();
                let mut unrecorded = false;
                record.vms.retain(|vm, rec| {
                    while reported.next_if(|vu| vu.vm < vm).is_some() {
                        unrecorded = true;
                    }
                    let Some(vu) = reported.next_if(|vu| vu.vm == vm) else {
                        // VMs mid-migration linger in bookkeeping until
                        // MigrationDone even if the LC dropped them, and
                        // unconfirmed records survive until their StartVm
                        // is acknowledged (it may still be in flight).
                        return rec.migrating_to.is_some() || !rec.confirmed;
                    };
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
                    true
                });
                if unrecorded || reported.next().is_some() {
                    // The LC hosts VMs this GM holds no record of
                    // (adopted on a rejoin): it vouches for them.
                    for vu in &report.vms {
                        if !record.vms.contains_key(vu.vm) {
                            let mut rec = VmRecord {
                                spec: VmSpec::new(vu.vm, vu.requested),
                                workload: VmWorkload::flat_full(vu.vm.0),
                                usage: DemandEstimator::new(estimator_kind),
                                migrating_to: None,
                                confirmed: true,
                                start_sent_at: now,
                                span: None,
                                migration_span: None,
                            };
                            rec.usage.observe(vu.used);
                            record.vms.insert(vu.vm, rec);
                        }
                    }
                }
                record
                    .usage
                    .observe(report.vms.iter().map(|vu| vu.used).sum());
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
                ctx.span_label(span, "lc", src);
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
                ctx.span_label(span, "vm", req.spec.id.0);
                match self.try_place(ctx, &req.spec, &req.workload, Some(span)) {
                    Attempt::Placed(lc) => {
                        ctx.span_label(span, "lc", lc);
                        let resp = PlaceVmResponse {
                            vm: req.spec.id,
                            placed_on: Some(lc),
                        };
                        ctx.send(src, resp);
                    }
                    Attempt::Waking => {
                        // Capacity is waking up: accept and queue.
                        ctx.span_label(span, "queued", "true");
                        let resp = PlaceVmResponse {
                            vm: req.spec.id,
                            placed_on: Some(src),
                        };
                        ctx.send(src, resp);
                        self.enqueue_pending(ctx, req.spec, req.workload, Some(span));
                    }
                    Attempt::Full => {
                        ctx.span_label(span, "outcome", "refused");
                        ctx.span_close(span);
                        let resp = PlaceVmResponse {
                            vm: req.spec.id,
                            placed_on: None,
                        };
                        ctx.send(src, resp);
                    }
                }
            }
            SnoozeMsg::StartVmResult(result) if matches!(self.mode, Mode::Gm(_)) => {
                let Mode::Gm(gl) = self.mode else {
                    return;
                };
                if result.ok {
                    if let Some(record) = self.lcs.get_mut(src) {
                        if let Some(rec) = record.vms.get_mut(result.vm) {
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
                    if let Some(record) = self.lcs.get_mut(src) {
                        if let Some(rec) = record.vms.remove(result.vm) {
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
                    let rec = r.vms.get_mut(vm)?;
                    rec.migrating_to
                        .take()
                        .map(|dest| (rec.spec.requested, dest, rec.migration_span.take()))
                });
                if let Some((requested, dest, mig_span)) = rollback {
                    if let Some(sp) = mig_span {
                        ctx.span_label(sp, "outcome", "refused");
                        ctx.span_close(sp);
                    }
                    if let Some(dst) = self.lcs.get_mut(dest) {
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
                            .get(vm)
                            .map(|v| v.migrating_to == Some(src))
                            .unwrap_or(false)
                    })
                    .map(|(lc, _)| lc);
                // `source` came from a scan that saw the record, but
                // unwrapping would still wedge the GM on a stale or
                // replayed MigrationDone — tolerate absence instead.
                let rec = source.and_then(|from| {
                    let src_rec = self.lcs.get_mut(from)?;
                    let rec = src_rec.vms.remove(vm)?;
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
                        if let Some(dst_rec) = self.lcs.get_mut(src) {
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
                        if let Some(dst_rec) = self.lcs.get_mut(src) {
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
                    .find(|(lc, r)| *lc != src && r.vms.contains_key(vm))
                    .map(|(lc, _)| lc);
                if let Some(lc) = host {
                    ctx.send(lc, DestroyVm { vm });
                }
            }
            SnoozeMsg::NodePowerChanged(pc) if matches!(self.mode, Mode::Gm(_)) => {
                if let Some(record) = self.lcs.get_mut(src) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a random program over LC ids `0..48`.
    #[derive(Clone, Debug)]
    enum Op {
        GetOrInsert(usize, u32),
        Bump(usize),
        Get(usize),
        Remove(usize),
        BumpAll,
        Clear,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0..16u8, 0..48usize, any::<u32>()).prop_map(|(kind, id, v)| match kind {
            0..=5 => Op::GetOrInsert(id, v),
            6..=7 => Op::Bump(id),
            8..=9 => Op::Get(id),
            10..=13 => Op::Remove(id),
            14 => Op::BumpAll,
            _ => Op::Clear,
        })
    }

    /// One step of a random program over VM ids `0..32`.
    #[derive(Clone, Debug)]
    enum VmOp {
        Insert(u64, u32),
        Bump(u64),
        Remove(u64),
        BumpAll,
        /// A monitoring report listing these ids.
        Merge(Vec<u64>),
        Drain,
    }

    fn vm_op_strategy() -> impl Strategy<Value = VmOp> {
        let report = prop::collection::vec(0..32u64, 0..8);
        (0..16u8, 0..32u64, any::<u32>(), report).prop_map(|(kind, id, v, report)| match kind {
            0..=5 => VmOp::Insert(id, v),
            6..=7 => VmOp::Bump(id),
            8..=10 => VmOp::Remove(id),
            11 => VmOp::BumpAll,
            12..=14 => VmOp::Merge(report),
            _ => VmOp::Drain,
        })
    }

    proptest! {
        /// The dense table answers every lookup, removal and walk exactly
        /// as the `BTreeMap` it replaced, including ids past the end of
        /// its index and ids re-inserted after a removal.
        #[test]
        fn lc_table_matches_a_btree_map(program in prop::collection::vec(op_strategy(), 1..200)) {
            let mut table: LcTable<u32> = LcTable::new();
            let mut map: BTreeMap<ComponentId, u32> = BTreeMap::new();
            for op in program {
                match op {
                    Op::GetOrInsert(id, v) => {
                        let id = ComponentId(id);
                        prop_assert_eq!(
                            *table.get_or_insert_with(id, || v),
                            *map.entry(id).or_insert(v)
                        );
                    }
                    Op::Bump(id) => {
                        let id = ComponentId(id);
                        let (t, m) = (table.get_mut(id), map.get_mut(&id));
                        prop_assert_eq!(t.is_some(), m.is_some());
                        if let (Some(t), Some(m)) = (t, m) {
                            *t = t.wrapping_add(1);
                            *m = m.wrapping_add(1);
                        }
                    }
                    Op::Get(id) => {
                        let id = ComponentId(id);
                        prop_assert_eq!(table.get(id), map.get(&id));
                    }
                    Op::Remove(id) => {
                        let id = ComponentId(id);
                        prop_assert_eq!(table.remove(id), map.remove(&id));
                    }
                    Op::BumpAll => {
                        for (id, v) in table.iter_mut() {
                            *v = v.wrapping_add(id.0 as u32);
                        }
                        for (id, v) in map.iter_mut() {
                            *v = v.wrapping_add(id.0 as u32);
                        }
                    }
                    Op::Clear => {
                        table.clear();
                        map.clear();
                    }
                }
                prop_assert_eq!(table.len(), map.len());
                let rows: Vec<(ComponentId, u32)> = table.iter().map(|(id, &v)| (id, v)).collect();
                let want: Vec<(ComponentId, u32)> = map.iter().map(|(&id, &v)| (id, v)).collect();
                prop_assert_eq!(rows, want);
                prop_assert!(table.values().eq(map.values()));
                for id in 0..64 {
                    let id = ComponentId(id);
                    prop_assert_eq!(table.get(id), map.get(&id));
                }
            }
        }

        /// The per-LC VM table answers every operation the GM uses
        /// exactly as the `BTreeMap` it replaced, including the monitoring
        /// handler's merge walk: one `retain` over the rows beside a
        /// sorted report, then adoption of the reported ids it missed.
        #[test]
        fn vm_table_matches_a_btree_map(
            program in prop::collection::vec(vm_op_strategy(), 1..200)
        ) {
            let mut table: VmTable<u32> = VmTable::new();
            let mut map: BTreeMap<VmId, u32> = BTreeMap::new();
            for op in program {
                match op {
                    VmOp::Insert(id, v) => {
                        let vm = VmId(id);
                        prop_assert_eq!(table.insert(vm, v), map.insert(vm, v));
                    }
                    VmOp::Bump(id) => {
                        let vm = VmId(id);
                        let (t, m) = (table.get_mut(vm), map.get_mut(&vm));
                        prop_assert_eq!(t.is_some(), m.is_some());
                        if let (Some(t), Some(m)) = (t, m) {
                            *t = t.wrapping_add(1);
                            *m = m.wrapping_add(1);
                        }
                    }
                    VmOp::Remove(id) => {
                        let vm = VmId(id);
                        prop_assert_eq!(table.remove(vm), map.remove(&vm));
                    }
                    VmOp::BumpAll => {
                        for v in table.values_mut() {
                            *v = v.wrapping_mul(3);
                        }
                        for v in map.values_mut() {
                            *v = v.wrapping_mul(3);
                        }
                    }
                    VmOp::Merge(mut report) => {
                        report.sort_unstable();
                        report.dedup();
                        // Keep what the report lists, bumped, and what
                        // lingers (odd values); adopt what it adds.
                        let mut reported = report.iter().copied().map(VmId).peekable();
                        let mut unrecorded = false;
                        table.retain(|vm, v| {
                            while reported.next_if(|&r| r < vm).is_some() {
                                unrecorded = true;
                            }
                            if reported.next_if(|&r| r == vm).is_none() {
                                return *v % 2 == 1;
                            }
                            *v = v.wrapping_add(1);
                            true
                        });
                        if unrecorded || reported.next().is_some() {
                            for &id in &report {
                                if !table.contains_key(VmId(id)) {
                                    table.insert(VmId(id), 0);
                                }
                            }
                        }
                        map.retain(|vm, v| {
                            if !report.contains(&vm.0) {
                                return *v % 2 == 1;
                            }
                            *v = v.wrapping_add(1);
                            true
                        });
                        for &id in &report {
                            map.entry(VmId(id)).or_insert(0);
                        }
                    }
                    VmOp::Drain => {
                        let t = std::mem::replace(&mut table, VmTable::new());
                        let m = std::mem::take(&mut map);
                        prop_assert!(t.into_values().eq(m.into_values()));
                    }
                }
                prop_assert_eq!(table.len(), map.len());
                prop_assert_eq!(table.is_empty(), map.is_empty());
                let rows: Vec<(VmId, u32)> = table.iter().map(|(vm, &v)| (vm, v)).collect();
                let want: Vec<(VmId, u32)> = map.iter().map(|(&vm, &v)| (vm, v)).collect();
                prop_assert_eq!(rows, want);
                prop_assert!(table.values().eq(map.values()));
                for id in 0..40 {
                    let vm = VmId(id);
                    prop_assert_eq!(table.get(vm), map.get(&vm));
                    prop_assert_eq!(table.contains_key(vm), map.contains_key(&vm));
                }
            }
        }
    }
}
