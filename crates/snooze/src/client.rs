//! A scripted cloud client.
//!
//! Drives experiments the way the CCGrid evaluation drove the real
//! system: submit a fleet of VMs on a schedule through an Entry Point,
//! retry unacknowledged submissions, and record per-VM placement latency
//! (submission → running acknowledgment) plus rejections.

use std::collections::{BTreeMap, HashMap};

use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::VmWorkload;
use snooze_simcore::engine::{Component, ComponentId, Ctx};
use snooze_simcore::mc::{McHasher, McState};
use snooze_simcore::telemetry::label::label;
use snooze_simcore::telemetry::SpanId;
use snooze_simcore::time::{SimSpan, SimTime};

use crate::messages::{DestroyVm, SnoozeMsg, SubmitVm};
use crate::tags::*;

/// One scheduled submission.
#[derive(Clone, Debug)]
pub struct ScheduledVm {
    /// When to submit.
    pub at: SimTime,
    /// What to submit.
    pub spec: VmSpec,
    /// Its workload.
    pub workload: VmWorkload,
    /// Destroy the VM this long after it is acknowledged (None = forever).
    pub lifetime: Option<SimSpan>,
}

#[derive(Clone, Copy, Debug)]
struct Outstanding {
    schedule_idx: usize,
    submitted_at: SimTime,
    attempts: u32,
    /// Root span of this submission's causal tree; every retry, hop and
    /// eventual boot nests under it.
    span: SpanId,
}

/// A completed placement as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct PlacementAck {
    /// The VM.
    pub vm: VmId,
    /// Where it runs.
    pub lc: ComponentId,
    /// Submission → acknowledgment latency.
    pub latency: SimSpan,
}

/// The client component.
#[derive(Clone)]
pub struct ClientDriver {
    /// Entry points, tried in rotation — the paper's EPs are
    /// "replicated", and the client is where that replication pays off:
    /// a retry after silence goes to the *next* EP.
    eps: Vec<ComponentId>,
    ep_cursor: usize,
    schedule: Vec<ScheduledVm>,
    retry_period: SimSpan,
    max_attempts: u32,
    outstanding: BTreeMap<VmId, Outstanding>,
    vm_locations: HashMap<VmId, ComponentId>,
    /// Successful placements, in acknowledgment order.
    pub placed: Vec<PlacementAck>,
    /// VMs the system rejected.
    pub rejected: Vec<VmId>,
    /// VMs that exhausted client-side retries without any answer.
    pub abandoned: Vec<VmId>,
}

impl ClientDriver {
    /// A client submitting `schedule` through a single `ep`, retrying
    /// silently dropped submissions every `retry_period`.
    pub fn new(ep: ComponentId, schedule: Vec<ScheduledVm>, retry_period: SimSpan) -> Self {
        Self::with_eps(vec![ep], schedule, retry_period)
    }

    /// A client aware of several replicated entry points; retries rotate
    /// across them, so one dead EP costs one retry period, not liveness.
    pub fn with_eps(
        eps: Vec<ComponentId>,
        schedule: Vec<ScheduledVm>,
        retry_period: SimSpan,
    ) -> Self {
        assert!(!eps.is_empty(), "client needs at least one entry point");
        ClientDriver {
            eps,
            ep_cursor: 0,
            schedule,
            retry_period,
            max_attempts: 30,
            outstanding: BTreeMap::new(),
            vm_locations: HashMap::new(),
            placed: Vec::new(),
            rejected: Vec::new(),
            abandoned: Vec::new(),
        }
    }

    /// True when every scheduled VM has been answered or abandoned.
    pub fn done(&self) -> bool {
        self.placed.len() + self.rejected.len() + self.abandoned.len() == self.schedule.len()
    }

    /// VMs this client was scripted to submit.
    pub fn schedule_len(&self) -> usize {
        self.schedule.len()
    }

    /// Fold for model checking. `vm_locations` lives in a `HashMap`
    /// (allowed off the deterministic message path), so its entries are
    /// sorted before folding.
    fn mc_fold_impl(&self, h: &mut McHasher) {
        h.word(self.eps.len() as u64);
        for ep in &self.eps {
            h.id(*ep);
        }
        h.word(self.ep_cursor as u64);
        h.word(self.schedule.len() as u64);
        h.word(self.outstanding.len() as u64);
        for (vm, o) in &self.outstanding {
            vm.mc_fold(h);
            h.word(o.schedule_idx as u64);
            h.time(o.submitted_at);
            h.word(o.attempts as u64);
        }
        let mut locations: Vec<(VmId, ComponentId)> =
            // audit-allow(hash-iter): sorted immediately below
            self.vm_locations.iter().map(|(v, c)| (*v, *c)).collect();
        locations.sort();
        h.word(locations.len() as u64);
        for (vm, lc) in locations {
            vm.mc_fold(h);
            h.id(lc);
        }
        h.word(self.placed.len() as u64);
        for p in &self.placed {
            p.vm.mc_fold(h);
            h.id(p.lc);
        }
        h.word(self.rejected.len() as u64);
        for vm in &self.rejected {
            vm.mc_fold(h);
        }
        h.word(self.abandoned.len() as u64);
        for vm in &self.abandoned {
            vm.mc_fold(h);
        }
    }

    /// Mean placement latency in seconds (0 if nothing placed).
    pub fn mean_latency_secs(&self) -> f64 {
        if self.placed.is_empty() {
            return 0.0;
        }
        self.placed
            .iter()
            .map(|p| p.latency.as_secs_f64())
            .sum::<f64>()
            / self.placed.len() as f64
    }

    /// 95th-percentile placement latency in seconds, by nearest rank: the
    /// sorted sample at index `round((n − 1) · 0.95)`, always a latency
    /// some VM saw. `telemetry::window::percentile` (what histograms, metric
    /// windows and the `p95_placement_latency_s` SLO report) interpolates
    /// between the two samples around that rank instead, so the two differ
    /// whenever the neighbours do. The scenario outcome's `p95_latency_s`,
    /// the experiment tables' `p95 lat s` column and their goldens are
    /// this definition.
    pub fn p95_latency_secs(&self) -> f64 {
        if self.placed.is_empty() {
            return 0.0;
        }
        let mut lats: Vec<f64> = self
            .placed
            .iter()
            .map(|p| p.latency.as_secs_f64())
            .collect();
        lats.sort_by(f64::total_cmp);
        let rank = ((lats.len() as f64 - 1.0) * 0.95).round() as usize;
        lats[rank.min(lats.len() - 1)]
    }

    fn submit(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, idx: usize) {
        let item = &self.schedule[idx];
        let vm = item.spec.id;
        let span = match self.outstanding.get(&vm) {
            Some(out) => out.span,
            None => {
                let span = ctx.span_open_under("client.submit", None);
                ctx.span_label(span, "vm", vm.0);
                self.outstanding.insert(
                    vm,
                    Outstanding {
                        schedule_idx: idx,
                        submitted_at: ctx.now(),
                        attempts: 0,
                        span,
                    },
                );
                span
            }
        };
        let entry = self.outstanding.get_mut(&vm).expect("inserted above");
        entry.attempts += 1;
        let attempts = entry.attempts;
        let me = ctx.id();
        let msg = SubmitVm {
            spec: item.spec,
            workload: item.workload.clone(),
            client: me,
        };
        // First attempt uses the preferred EP; retries rotate.
        let ep = self.eps[(self.ep_cursor + attempts as usize - 1) % self.eps.len()];
        ctx.send_in(span, ep, msg);
    }
}

impl McState for ClientDriver {
    fn mc_fold(&self, h: &mut McHasher) {
        self.mc_fold_impl(h);
    }
}

impl Component for ClientDriver {
    type Msg = SnoozeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        let now = ctx.now();
        for (idx, item) in self.schedule.iter().enumerate() {
            let delay = item.at.since(now);
            ctx.set_timer(delay, tag(CLIENT_SUBMIT, idx as u64));
        }
        if !self.schedule.is_empty() {
            ctx.set_timer(self.retry_period, tag(CLIENT_RETRY, 0));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, _src: ComponentId, msg: SnoozeMsg) {
        let now = ctx.now();
        match msg {
            SnoozeMsg::VmPlaced(placed) => {
                if let Some(out) = self.outstanding.remove(&placed.vm) {
                    let latency = now.since(out.submitted_at);
                    self.placed.push(PlacementAck {
                        vm: placed.vm,
                        lc: placed.lc,
                        latency,
                    });
                    self.vm_locations.insert(placed.vm, placed.lc);
                    ctx.span_label(out.span, "outcome", "placed");
                    ctx.span_close(out.span);
                    ctx.metrics()
                        .observe("client.placement_latency_s", latency.as_secs_f64());
                    ctx.metrics()
                        .incr_with("client.outcome", &label("kind", "placed"));
                    if let Some(lifetime) = self.schedule[out.schedule_idx].lifetime {
                        ctx.set_timer(lifetime, tag(CLIENT_DESTROY, out.schedule_idx as u64));
                    }
                }
            }
            SnoozeMsg::VmRejected(rej) => {
                if let Some(out) = self.outstanding.remove(&rej.vm) {
                    self.rejected.push(rej.vm);
                    ctx.span_label(out.span, "outcome", "rejected");
                    ctx.span_close(out.span);
                    ctx.metrics()
                        .incr_with("client.outcome", &label("kind", "rejected"));
                }
            }
            // Everything else is addressed to another role; drop it.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, t: u64) {
        match tag_kind(t) {
            CLIENT_SUBMIT => {
                let idx = tag_payload(t) as usize;
                self.submit(ctx, idx);
            }
            CLIENT_RETRY => {
                let now = ctx.now();
                // Resend submissions that have waited a full retry period
                // (EP had no GL, message lost, GM died mid-dispatch, …).
                let retry_period = self.retry_period;
                let max = self.max_attempts;
                // BTreeMap iteration is VmId-ordered: resend order is stable.
                let to_retry: Vec<(VmId, usize, bool)> = self
                    .outstanding
                    .iter()
                    .filter(|(_, o)| now.since(o.submitted_at) > retry_period * o.attempts as u64)
                    .map(|(&vm, o)| (vm, o.schedule_idx, o.attempts >= max))
                    .collect();
                for (vm, idx, give_up) in to_retry {
                    if give_up {
                        if let Some(out) = self.outstanding.remove(&vm) {
                            ctx.span_label(out.span, "outcome", "abandoned");
                            ctx.span_close(out.span);
                        }
                        self.abandoned.push(vm);
                        ctx.metrics()
                            .incr_with("client.outcome", &label("kind", "abandoned"));
                    } else {
                        self.submit(ctx, idx);
                    }
                }
                if !self.done() {
                    ctx.set_timer(self.retry_period, tag(CLIENT_RETRY, 0));
                }
            }
            CLIENT_DESTROY => {
                let idx = tag_payload(t) as usize;
                let vm = self.schedule[idx].spec.id;
                if let Some(lc) = self.vm_locations.get(&vm).copied() {
                    ctx.send(lc, DestroyVm { vm });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snooze_simcore::telemetry::window::percentile;

    #[test]
    fn a_scheduled_vm_is_128_bytes() {
        assert_eq!(std::mem::size_of::<ScheduledVm>(), 128, "ScheduledVm");
    }

    #[test]
    fn p95_is_nearest_rank_not_interpolated() {
        let mut client = ClientDriver::new(ComponentId(0), Vec::new(), SimSpan::from_secs(1));
        assert_eq!(client.p95_latency_secs(), 0.0);
        // Ten latencies, 1 s … 10 s, placed out of order: rank 0.95 · 9 =
        // 8.55 rounds to the tenth sample, where interpolation stops at 9.55.
        for s in [3, 10, 1, 7, 5, 2, 9, 4, 8, 6] {
            client.placed.push(PlacementAck {
                vm: VmId(s),
                lc: ComponentId(1),
                latency: SimSpan::from_secs(s),
            });
        }
        assert_eq!(client.p95_latency_secs(), 10.0);
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&sorted, 95.0) - 9.55).abs() < 1e-9);
    }
}
