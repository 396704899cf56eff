//! The Local Controller (LC) — one per physical node.
//!
//! Paper §II-A: "LCs enforce VM and host management commands coming from
//! the GM. Moreover, they detect local overload/underload anomaly
//! situations and report them to the assigned GM."
//!
//! The LC owns the node's hypervisor ([`Hypervisor`]), its power-state
//! machine, and one energy meter per power model the node is metered
//! under ([`NodeSpec::power`]). It self-organizes per §II-D: on start
//! (or after losing its GM) it listens for GL heartbeats, asks the GL for
//! a GM assignment, joins that GM's multicast group and starts sending
//! monitoring reports, which double as its heartbeat.
//!
//! Its multicast memberships follow that state, so heartbeats go to
//! listeners only. It is in the GL's group exactly while it has no GM —
//! once assigned there is nothing left to discover, and losing the GM (or
//! restarting) puts it back. It is in its GM's group exactly while
//! assigned *and powered on*: a suspended host's NIC honours wake-on-LAN
//! and nothing else, which is also why the GM stops expecting reports
//! from a sleeper and why the RTC watchdog exists. Multicasts already in
//! flight when a membership ends still arrive, so the handlers keep both
//! guards (`gm.is_none()` on GL heartbeats, `is_on()` on everything).

use std::collections::BTreeMap;
use std::sync::Arc;

use snooze_cluster::hypervisor::Hypervisor;
use snooze_cluster::migration::MigrationModel;
use snooze_cluster::node::{NodeSpec, PowerState, PowerStateMachine};
use snooze_cluster::power::{EnergyMeter, PowerModel};
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmState};
use snooze_simcore::engine::{Component, ComponentId, Ctx, GroupId, TimerHandle};
use snooze_simcore::mc::{McHasher, McState};
use snooze_simcore::telemetry::label::label;
use snooze_simcore::telemetry::SpanId;
use snooze_simcore::time::SimTime;

use crate::config::SnoozeConfig;
use crate::messages::*;
use crate::tags::*;

pub use crate::messages::LcJoinAckWithGroup;

/// One energy meter per power model of the node, all moved at the same
/// instants from the same power state and utilization. The first meter
/// is inline, so cloning a one-model node's controller allocates nothing.
#[derive(Clone)]
struct Meters {
    first: EnergyMeter,
    rest: Box<[EnergyMeter]>,
}

impl Meters {
    /// A meter per model, each started at `now` at its model's idle draw.
    fn new(now: SimTime, models: &[Arc<dyn PowerModel>]) -> Meters {
        let idle = |m: &Arc<dyn PowerModel>| EnergyMeter::new(now, m.active_watts(0.0));
        Meters {
            first: idle(&models[0]),
            rest: models[1..].iter().map(idle).collect(),
        }
    }

    /// Record that each model's draw changed to `watts(model)` at `now`.
    fn update(
        &mut self,
        now: SimTime,
        models: &[Arc<dyn PowerModel>],
        watts: impl Fn(&dyn PowerModel) -> f64,
    ) {
        self.first.update(now, watts(models[0].as_ref()));
        for (meter, model) in self.rest.iter_mut().zip(&models[1..]) {
            meter.update(now, watts(model.as_ref()));
        }
    }

    /// Watt-hours up to `now` under the `model`-th model.
    fn wh_at(&self, model: usize, now: SimTime) -> f64 {
        match model {
            0 => self.first.wh_at(now),
            i => self.rest[i - 1].wh_at(now),
        }
    }
}

/// The Local Controller component.
#[derive(Clone)]
pub struct LocalController {
    node: NodeSpec,
    config: Arc<SnoozeConfig>,
    gl_group: GroupId,

    hypervisor: Hypervisor,
    power: PowerStateMachine,
    energy: Meters,
    gm: Option<ComponentId>,
    gm_group: Option<GroupId>,
    last_gm_heartbeat: SimTime,
    assignment_requested_at: Option<SimTime>,
    /// The RTC alarm of the current suspend cycle. A real RTC holds one
    /// alarm, re-programmed per suspend: every resume disarms it, or an
    /// earlier cycle's alarm would cut a later sleep short.
    watchdog: Option<TimerHandle>,
    /// Outbound migrations in flight: vm → (destination, transfer span).
    migrating_out: Vec<(VmId, ComponentId, SpanId)>,
    last_anomaly_at: SimTime,
    /// Boot spans for VMs between admission and their boot timer.
    boot_spans: BTreeMap<VmId, SpanId>,
}

impl LocalController {
    /// A controller for `node`, discovering the hierarchy through GL
    /// heartbeats on `gl_group`.
    pub fn new(node: NodeSpec, config: impl Into<Arc<SnoozeConfig>>, gl_group: GroupId) -> Self {
        let config = config.into();
        let hypervisor = Hypervisor::new(node.capacity);
        let power = PowerStateMachine::new_on(node.transitions);
        let energy = Meters::new(SimTime::ZERO, &node.power);
        LocalController {
            node,
            config,
            gl_group,
            hypervisor,
            power,
            energy,
            gm: None,
            gm_group: None,
            last_gm_heartbeat: SimTime::ZERO,
            assignment_requested_at: None,
            watchdog: None,
            migrating_out: Vec::new(),
            last_anomaly_at: SimTime::ZERO,
            boot_spans: BTreeMap::new(),
        }
    }

    /// The node's hypervisor (inspection).
    pub fn hypervisor(&self) -> &Hypervisor {
        &self.hypervisor
    }

    /// Current power state.
    pub fn power_state(&self) -> PowerState {
        self.power.state()
    }

    /// The GM this LC is assigned to, if any.
    pub fn assigned_gm(&self) -> Option<ComponentId> {
        self.gm
    }

    /// Energy consumed up to `now`, in watt-hours, under the node's
    /// `model`-th power model.
    pub fn energy_wh(&self, model: usize, now: SimTime) -> f64 {
        self.energy.wh_at(model, now)
    }

    /// Fraction of demanded work delivered right now (1.0 = no
    /// contention) — the application-performance signal for E6.
    pub fn performance_at(&self, now: SimTime) -> f64 {
        self.hypervisor.performance_at(now)
    }

    fn is_on(&self) -> bool {
        self.power.state().is_on()
    }

    fn meter_update(&mut self, now: SimTime) {
        // A node that is not on draws its state's power whatever it
        // hosts, so only one that is on is sampled.
        let demand = if self.is_on() {
            self.hypervisor.demand_at(now)
        } else {
            ResourceVector::ZERO
        };
        self.meter_record(now, &demand);
    }

    /// Move every energy meter to `now` at the power `demand` draws.
    fn meter_record(&mut self, now: SimTime, demand: &ResourceVector) {
        let util = self.hypervisor.utilization_of(demand).cpu.clamp(0.0, 1.0);
        let state = &self.power;
        let watts = |model: &dyn PowerModel| state.watts(model, util);
        self.energy.update(now, &self.node.power, watts);
    }

    /// Every guest's usage at `now`, in `VmId` order.
    fn sample(&self, now: SimTime) -> Vec<VmUsage> {
        let usage = self.hypervisor.usage_at(now).map(|(g, used)| VmUsage {
            vm: g.spec.id,
            requested: g.spec.requested,
            used,
        });
        usage.collect()
    }

    /// Report `vms`, sampled at `now`, to the GM (if assigned).
    fn send_monitoring(&self, ctx: &mut Ctx<'_, SnoozeMsg>, vms: Vec<VmUsage>) {
        let Some(gm) = self.gm else { return };
        ctx.send(gm, self.monitoring(ctx.now(), vms));
    }

    fn monitoring(&self, now: SimTime, vms: Vec<VmUsage>) -> LcMonitoring {
        LcMonitoring {
            capacity: self.hypervisor.capacity(),
            reserved: self.hypervisor.reserved(),
            vms,
            powered_on: true,
            sampled_at: now,
        }
    }

    /// The anomaly `demand` amounts to, if one is due: at most one report
    /// per three monitoring ticks.
    fn detect_anomaly(&self, now: SimTime, demand: &ResourceVector) -> Option<AnomalyKind> {
        self.gm?;
        if now.since(self.last_anomaly_at) < self.config.heartbeat_period * 3 {
            return None;
        }
        let hv = &self.hypervisor;
        if hv.is_overloaded_by(demand, self.config.overload_threshold) {
            Some(AnomalyKind::Overload)
        // VMs mid-migration are about to leave; don't double-report them.
        } else if self.migrating_out.is_empty()
            && hv.is_underloaded_by(demand, self.config.underload_threshold)
        {
            Some(AnomalyKind::Underload)
        } else {
            None
        }
    }

    /// Raise `kind` at the GM, backed by the running guests' share of the
    /// beat's sample.
    fn report_anomaly(
        &mut self,
        ctx: &mut Ctx<'_, SnoozeMsg>,
        kind: AnomalyKind,
        vms: Vec<VmUsage>,
    ) {
        let Some(gm) = self.gm else { return };
        let now = ctx.now();
        self.last_anomaly_at = now;
        let kind_label = match kind {
            AnomalyKind::Overload => "overload",
            AnomalyKind::Underload => "underload",
        };
        ctx.metrics()
            .incr_with("lc.anomaly_reports", &label("kind", kind_label));
        let monitoring = self.monitoring(now, vms);
        ctx.send(gm, AnomalyReport { kind, monitoring });
    }

    /// The monitoring beat: one usage sample per guest feeds the energy
    /// meter, the report to the GM and the anomaly check, in that order.
    fn monitor(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        let now = ctx.now();
        let vms = self.sample(now);
        let demand: ResourceVector = vms.iter().map(|u| u.used).sum();
        self.meter_record(now, &demand);
        // The report takes the sample with it, so what an anomaly report
        // needs of it is set aside first; the anomaly's own effects follow
        // the monitoring send, as they always have.
        let anomaly = self.detect_anomaly(now, &demand).map(|kind| {
            let guests = self.hypervisor.guests().zip(&vms);
            let running = guests.filter(|(g, _)| g.state == VmState::Running);
            (kind, running.map(|(_, u)| *u).collect())
        });
        self.send_monitoring(ctx, vms);
        if let Some((kind, running)) = anomaly {
            self.report_anomaly(ctx, kind, running);
        }
    }

    /// Back to unassigned: out of the GM's group, and listening for the GL
    /// again — an LC is in `gl_group` exactly while it has no GM.
    fn leave_gm(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        if let Some(group) = self.gm_group.take() {
            ctx.leave_group(group);
        }
        self.gm = None;
        self.assignment_requested_at = None;
        ctx.join_group(self.gl_group);
    }

    fn disarm_watchdog(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        if let Some(alarm) = self.watchdog.take() {
            ctx.cancel_timer(alarm);
        }
    }
}

impl McState for LocalController {
    fn mc_fold(&self, h: &mut McHasher) {
        // Node spec and config are run constants; the energy meter and
        // span bookkeeping are observational — both skipped.
        self.hypervisor.mc_fold(h);
        self.power.mc_fold(h);
        h.opt_id(self.gm);
        match self.gm_group {
            Some(g) => {
                h.word(1);
                h.word(g.0 as u64);
            }
            None => h.word(0),
        }
        h.time(self.last_gm_heartbeat);
        match self.assignment_requested_at {
            Some(t) => {
                h.word(1);
                h.time(t);
            }
            None => h.word(0),
        }
        h.word(self.migrating_out.len() as u64);
        for (vm, to, _span) in &self.migrating_out {
            vm.mc_fold(h);
            h.id(*to);
        }
        h.time(self.last_anomaly_at);
        h.flag(self.watchdog.is_some());
    }
}

impl Component for LocalController {
    type Msg = SnoozeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        ctx.join_group(self.gl_group);
        self.energy = Meters::new(ctx.now(), &self.node.power);
        ctx.set_timer(self.config.heartbeat_period, tag(LC_MONITOR, 0));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, src: ComponentId, msg: SnoozeMsg) {
        let now = ctx.now();
        self.power.tick(now);

        // While suspended, the NIC only honours wake-on-LAN.
        if !self.is_on() {
            if let SnoozeMsg::WakeNode(_) = msg {
                if let Ok(done) = self.power.resume(now) {
                    self.disarm_watchdog(ctx);
                    self.meter_update(now);
                    ctx.metrics()
                        .incr_with("power.transitions", &label("kind", "wake"));
                    ctx.set_timer(done - now, tag(LC_POWER, 0));
                }
            }
            return;
        }

        match msg {
            // Unassigned LCs use GL heartbeats to (re)join the hierarchy.
            SnoozeMsg::GlHeartbeat(hb) if self.gm.is_none() => {
                let stale = self
                    .assignment_requested_at
                    .map(|t| now.since(t) > self.config.placement_retry_period)
                    .unwrap_or(true);
                if stale {
                    self.assignment_requested_at = Some(now);
                    let capacity = self.hypervisor.capacity();
                    ctx.send(hb.gl, LcAssignRequest { capacity });
                }
            }
            SnoozeMsg::LcAssignment(assign) if self.gm.is_none() => {
                let capacity = self.hypervisor.capacity();
                ctx.send(assign.gm, LcJoin { capacity });
            }
            SnoozeMsg::LcJoinAckWithGroup(ack) => {
                self.gm = Some(src);
                self.last_gm_heartbeat = now;
                let group = ack.group;
                self.gm_group = Some(group);
                ctx.join_group(group);
                // Assigned: GL heartbeats are for discovery (§II-D), and
                // there is nothing left to discover.
                ctx.leave_group(self.gl_group);
                // Report immediately so the GM learns our capacity and guests.
                self.send_monitoring(ctx, self.sample(now));
            }
            SnoozeMsg::GmLcHeartbeat(hb) if Some(hb.gm) == self.gm => {
                self.last_gm_heartbeat = now;
            }
            SnoozeMsg::StartVm(start) => {
                let vm = start.spec.id;
                // Idempotent: a GM may re-send a StartVm whose acknowledgment
                // was lost. An already-running guest is re-acked; a booting
                // one will be acked by its boot timer.
                if let Some(existing) = self.hypervisor.guest(vm) {
                    if existing.state == VmState::Running {
                        ctx.send(src, StartVmResult { vm, ok: true });
                    }
                    return;
                }
                match self.hypervisor.admit(start.spec, start.workload, now) {
                    Ok(()) => {
                        if let Some(g) = self.hypervisor.guest_mut(vm) {
                            g.state = VmState::Booting;
                        }
                        self.meter_update(now);
                        // The boot is the leaf of the placement tree: a child
                        // of the GM's gm.place span (ambient from StartVm),
                        // carried across the boot delay by the timer.
                        let span = ctx.span_open("lc.boot");
                        ctx.span_label(span, "vm", vm.0);
                        self.boot_spans.insert(vm, span);
                        ctx.set_timer_in(span, self.config.vm_boot_delay, tag(LC_VM_BOOT, vm.0));
                    }
                    Err(_) => {
                        ctx.send(src, StartVmResult { vm, ok: false });
                    }
                }
            }
            SnoozeMsg::DestroyVm(d) => {
                if self.hypervisor.remove(d.vm).is_some() {
                    self.meter_update(now);
                } else if let Some(gm) = self.gm {
                    // Not here (migrated away since the client's ack): the GM
                    // knows where intra-group relocation put it.
                    if src != gm {
                        ctx.send(gm, d);
                    }
                }
            }
            SnoozeMsg::MigrateVm(m) => {
                let Some(guest) = self.hypervisor.guest_mut(m.vm) else {
                    if let Some(gm) = self.gm {
                        ctx.send(gm, MigrateRefused { vm: m.vm });
                    }
                    return;
                };
                if guest.state != VmState::Running {
                    // Booting or already migrating — tell the GM so it can
                    // roll back its bookkeeping instead of waiting forever.
                    let vm = m.vm;
                    if let Some(gm) = self.gm {
                        ctx.send(gm, MigrateRefused { vm });
                    }
                    return;
                }
                guest.state = VmState::Migrating;
                let dirty = guest.workload.dirty_rate_mbps(now, &guest.spec.requested);
                let image = guest.spec.image_mb;
                let est = MigrationModel::gigabit().estimate(image, dirty);
                // The transfer span covers pre-copy through hand-off, nested
                // under the GM's gm.migrate span (ambient from MigrateVm).
                let span = ctx.span_open("lc.migrate-out");
                ctx.span_label(span, "vm", m.vm.0);
                ctx.span_label(span, "to", m.to);
                self.migrating_out.push((m.vm, m.to, span));
                ctx.set_timer_in(span, est.duration, tag(LC_MIG_OUT, m.vm.0));
            }
            SnoozeMsg::VmHandoff(handoff) => {
                let vm = handoff.spec.id;
                let ok = self
                    .hypervisor
                    .admit(handoff.spec, handoff.workload, now)
                    .is_ok();
                if ok {
                    self.meter_update(now);
                }
                if let Some(gm) = self.gm {
                    ctx.send(gm, MigrationDone { vm, ok });
                }
            }
            SnoozeMsg::SuspendNode(_) => {
                if self.hypervisor.is_idle() {
                    if let Ok(done) = self.power.suspend(now) {
                        // A sleeper's NIC hears wake-on-LAN and nothing else.
                        if let Some(group) = self.gm_group {
                            ctx.leave_group(group);
                        }
                        ctx.metrics()
                            .incr_with("power.transitions", &label("kind", "suspend"));
                        self.meter_update(now);
                        ctx.set_timer(done - now, tag(LC_POWER, 0));
                        if let Some(gm) = self.gm {
                            ctx.send(gm, NodePowerChanged { powered_on: false });
                        }
                    }
                } else if let Some(gm) = self.gm {
                    // Stale command: correct the GM's view.
                    self.send_monitoring(ctx, self.sample(now));
                    ctx.send(gm, NodePowerChanged { powered_on: true });
                }
            }
            SnoozeMsg::WakeNode(_) => {
                // Already on — confirm so the GM stops waiting.
                if let Some(gm) = self.gm {
                    ctx.send(gm, NodePowerChanged { powered_on: true });
                }
            }
            // Anything else is addressed to another role; drop it.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, t: u64) {
        let now = ctx.now();
        self.power.tick(now);
        match tag_kind(t) {
            // While suspended the monitoring loop stops; it is restarted
            // by the LC_POWER timer on wake-up.
            LC_MONITOR if self.is_on() => {
                self.monitor(ctx);
                // GM liveness: silent too long ⇒ rejoin the hierarchy.
                if self.gm.is_some()
                    && now.since(self.last_gm_heartbeat) > self.config.silence_timeout
                {
                    self.leave_gm(ctx);
                }
                ctx.set_timer(self.config.heartbeat_period, tag(LC_MONITOR, 0));
            }
            LC_MONITOR => {}
            LC_VM_BOOT => {
                let vm = VmId(tag_payload(t));
                if let Some(g) = self.hypervisor.guest_mut(vm) {
                    g.state = VmState::Running;
                    self.meter_update(now);
                    if let Some(gm) = self.gm {
                        // The timer's span context makes the ack a causal
                        // descendant of lc.boot.
                        ctx.send(gm, StartVmResult { vm, ok: true });
                    }
                }
                if let Some(sp) = self.boot_spans.remove(&vm) {
                    ctx.span_close(sp);
                }
            }
            LC_MIG_OUT => {
                let vm = VmId(tag_payload(t));
                let Some(pos) = self.migrating_out.iter().position(|(v, _, _)| *v == vm) else {
                    return;
                };
                let (_, dest, span) = self.migrating_out.swap_remove(pos);
                if let Some(guest) = self.hypervisor.remove(vm) {
                    ctx.metrics().incr("lc.migrations_out");
                    self.meter_update(now);
                    // Hand-off inherits the transfer span (timer context);
                    // close it only after, so the send stays inside it.
                    ctx.send(
                        dest,
                        VmHandoff {
                            spec: guest.spec,
                            workload: guest.workload,
                        },
                    );
                }
                ctx.span_close(span);
            }
            // RTC check-in: a suspended node wakes periodically so it can
            // notice a dead GM and rejoin (no one else can wake an
            // orphaned sleeper).
            LC_WATCHDOG if self.power.state() == PowerState::Suspended => {
                self.watchdog = None;
                if let Ok(done) = self.power.resume(now) {
                    ctx.metrics()
                        .incr_with("power.transitions", &label("kind", "watchdog-wake"));
                    self.meter_update(now);
                    ctx.set_timer(done - now, tag(LC_POWER, 0));
                }
            }
            LC_WATCHDOG => self.watchdog = None,
            LC_POWER => {
                let state = self.power.tick(now);
                self.meter_update(now);
                if state == PowerState::Suspended {
                    let alarm = ctx.set_timer(self.config.suspend_watchdog, tag(LC_WATCHDOG, 0));
                    self.watchdog = Some(alarm);
                }
                if state.is_on() {
                    if let Some(group) = self.gm_group {
                        ctx.join_group(group);
                    }
                    // Give the GM a grace period before liveness checks.
                    self.last_gm_heartbeat = now;
                    if let Some(gm) = self.gm {
                        ctx.send(gm, NodePowerChanged { powered_on: true });
                        self.send_monitoring(ctx, self.sample(now));
                    }
                    ctx.set_timer(self.config.heartbeat_period, tag(LC_MONITOR, 0));
                }
            }
            _ => {}
        }
    }

    fn on_crash(&mut self, now: SimTime) {
        // "In the event of a LC failure, VMs are also terminated" (§II-E).
        self.energy.update(now, &self.node.power, |_| 0.0);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        let now = ctx.now();
        self.hypervisor = Hypervisor::new(self.node.capacity);
        self.power = PowerStateMachine::new_on(self.node.transitions);
        // Back on, idle: the meters keep what the node drew before its crash.
        self.energy
            .update(now, &self.node.power, |m| m.active_watts(0.0));
        self.migrating_out.clear();
        self.boot_spans.clear();
        self.disarm_watchdog(ctx);
        self.leave_gm(ctx);
        self.last_gm_heartbeat = now;
        ctx.set_timer(self.config.heartbeat_period, tag(LC_MONITOR, 0));
    }
}
