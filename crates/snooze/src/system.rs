//! System assembly: build a full Snooze deployment inside a simulation.
//!
//! Mirrors Figure 1 of the paper: a coordination service, a set of
//! manager nodes (GMs, one of which will be elected GL), a Local
//! Controller per physical node, and replicated Entry Points.

use std::sync::Arc;

use snooze_cluster::node::{NodeSpec, PowerState};
use snooze_protocols::coordination::CoordinationService;
use snooze_simcore::engine::{Component, ComponentId, Engine, GroupId};
use snooze_simcore::time::SimTime;

use crate::config::SnoozeConfig;
use crate::entry_point::EntryPoint;
use crate::group_manager::{GroupManager, Mode};
use crate::local_controller::LocalController;
use crate::messages::SnoozeMsg;
use crate::NodeView;

/// Handles to every component of a deployed system.
#[derive(Clone)]
pub struct SnoozeSystem {
    /// The coordination service (ZooKeeper stand-in).
    pub zk: ComponentId,
    /// The GL-heartbeat multicast group.
    pub gl_group: GroupId,
    /// Manager components (GMs; one acts as GL at any time).
    pub gms: Vec<ComponentId>,
    /// Local Controllers, in node order.
    pub lcs: Vec<ComponentId>,
    /// Entry Points.
    pub eps: Vec<ComponentId>,
}

impl SnoozeSystem {
    /// Deploy a system: `n_gms` manager nodes, one LC per entry of
    /// `nodes`, and `n_eps` entry points, all sharing one copy of
    /// `config` behind an [`Arc`]. Generic
    /// over the engine's node enum so test harnesses can mix in
    /// scripted components; `SnoozeNode` satisfies the bounds.
    pub fn deploy<C>(
        engine: &mut Engine<C>,
        config: &SnoozeConfig,
        n_gms: usize,
        nodes: &[NodeSpec],
        n_eps: usize,
    ) -> SnoozeSystem
    where
        C: Component<Msg = SnoozeMsg>
            + From<CoordinationService<SnoozeMsg>>
            + From<GroupManager>
            + From<LocalController>
            + From<EntryPoint>,
    {
        assert!(
            n_gms >= 2,
            "need at least two managers: one is elected GL and, having a \
             dedicated role (§II-A), manages no LCs itself"
        );
        let zk = engine.add_component("zk", CoordinationService::new(config.zk_session_timeout));
        let config = Arc::new(config.clone());
        let gl_group = engine.create_group();

        let gms: Vec<ComponentId> = (0..n_gms)
            .map(|i| {
                let lc_group = engine.create_group();
                engine.add_component(
                    format!("gm{i}"),
                    GroupManager::new(Arc::clone(&config), zk, gl_group, lc_group),
                )
            })
            .collect();

        let lcs: Vec<ComponentId> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                engine.add_component(
                    format!("lc{i}"),
                    LocalController::new(node.clone(), Arc::clone(&config), gl_group),
                )
            })
            .collect();

        let eps: Vec<ComponentId> = (0..n_eps)
            .map(|i| {
                engine.add_component(
                    format!("ep{i}"),
                    EntryPoint::new(Arc::clone(&config), gl_group),
                )
            })
            .collect();

        SnoozeSystem {
            zk,
            gl_group,
            gms,
            lcs,
            eps,
        }
    }

    /// The component currently acting as GL, if the hierarchy has
    /// converged.
    pub fn current_gl<C: Component + NodeView>(&self, engine: &Engine<C>) -> Option<ComponentId> {
        let leaders: Vec<ComponentId> = self
            .gms
            .iter()
            .copied()
            .filter(|&gm| {
                engine.is_alive(gm)
                    && engine
                        .get(gm)
                        .and_then(|c| c.gm())
                        .map(|g| g.is_gl())
                        .unwrap_or(false)
            })
            .collect();
        match leaders.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }

    /// Managers currently in GM (non-leader) mode with at least one LC.
    pub fn active_gms<C: Component + NodeView>(&self, engine: &Engine<C>) -> Vec<ComponentId> {
        self.gms
            .iter()
            .copied()
            .filter(|&gm| {
                engine.is_alive(gm)
                    && engine
                        .get(gm)
                        .and_then(|c| c.gm())
                        .map(|g| matches!(g.mode(), Mode::Gm(_)))
                        .unwrap_or(false)
            })
            .collect()
    }

    /// The alive LCs with their controllers, in deployment order.
    pub fn alive_lcs<'a, C: Component + NodeView>(
        &'a self,
        engine: &'a Engine<C>,
    ) -> impl Iterator<Item = (ComponentId, &'a LocalController)> + 'a {
        (self.lcs.iter())
            .filter(|&&lc| engine.is_alive(lc))
            .filter_map(|&lc| Some((lc, engine.get(lc)?.lc()?)))
    }

    /// Total VMs currently resident across all LC hypervisors.
    pub fn total_vms<C: Component + NodeView>(&self, engine: &Engine<C>) -> usize {
        let guests = |(_, l): (_, &LocalController)| l.hypervisor().guest_count();
        self.alive_lcs(engine).map(guests).sum()
    }

    /// Cluster-wide energy consumed up to `now`, in watt-hours, under
    /// each node's `model`-th power model (0: its own; crashed nodes
    /// stopped metering at the crash).
    pub fn total_energy_wh<C: Component + NodeView>(
        &self,
        engine: &Engine<C>,
        model: usize,
        now: SimTime,
    ) -> f64 {
        self.lcs
            .iter()
            .filter_map(|&lc| engine.get(lc).and_then(|c| c.lc()))
            .map(|l| l.energy_wh(model, now))
            .sum()
    }

    /// How many LCs are in each coarse power state: `(on, transitioning,
    /// low_power)`.
    pub fn power_census<C: Component + NodeView>(
        &self,
        engine: &Engine<C>,
    ) -> (usize, usize, usize) {
        let mut on = 0;
        let mut transitioning = 0;
        let mut low = 0;
        for (_, l) in self.alive_lcs(engine) {
            match l.power_state() {
                PowerState::On => on += 1,
                s if s.is_low_power() => low += 1,
                _ => transitioning += 1,
            }
        }
        (on, transitioning, low)
    }

    /// Mean application performance across LCs hosting VMs (1.0 = no
    /// contention anywhere).
    pub fn mean_performance<C: Component + NodeView>(
        &self,
        engine: &Engine<C>,
        now: SimTime,
    ) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (_, l) in self.alive_lcs(engine) {
            if l.hypervisor().guest_count() > 0 {
                sum += l.performance_at(now);
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }

    /// SLA census at `now`: how many LCs host VMs, and how many of
    /// those deliver less than `threshold` of requested performance.
    pub fn sla_census<C: Component + NodeView>(
        &self,
        engine: &Engine<C>,
        now: SimTime,
        threshold: f64,
    ) -> (usize, usize) {
        let mut loaded = 0;
        let mut violating = 0;
        for (_, l) in self.alive_lcs(engine) {
            if l.hypervisor().guest_count() > 0 {
                loaded += 1;
                if l.performance_at(now) < threshold {
                    violating += 1;
                }
            }
        }
        (loaded, violating)
    }
}
