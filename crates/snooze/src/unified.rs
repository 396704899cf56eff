//! Unified nodes — the paper's future work, implemented (§V):
//!
//! > "In the future, we plan to make the system even more autonomic by
//! > removing the distinction between GMs and LCs. Consequently, the
//! > decisions when a node should play the role of GM or LC in the
//! > hierarchy will be taken by the framework instead of the system
//! > administrator upon configuration."
//!
//! A [`UnifiedNode`] owns *both* a [`LocalController`] and a
//! [`GroupManager`] and plays exactly one role at a time. A
//! [`RoleDirector`] watches the management plane through GL heartbeats
//! and a census of live managers; when managers die it promotes idle
//! LCs into the manager pool, and when the pool is over target it
//! demotes a surplus (never the acting GL). Promotion is refused by
//! nodes hosting VMs — the framework only converts capacity that is
//! actually spare.
//!
//! Role changes reuse the self-healing already in the hierarchy: a
//! promoted node simply campaigns (its old GM times it out), and a
//! demoted node resigns its election znode and rejoins as a fresh LC.

use snooze_cluster::node::NodeSpec;
use snooze_simcore::engine::{Component, ComponentId, Ctx, Engine, GroupId};
use snooze_simcore::mc::{McHasher, McState};
use snooze_simcore::time::{SimSpan, SimTime};

use crate::config::SnoozeConfig;
use crate::group_manager::GroupManager;
use crate::local_controller::LocalController;
use crate::messages::SnoozeMsg;
use crate::tags::{tag, tag_kind};
use crate::NodeView;

pub use crate::messages::{
    DemoteToLc, ManagerCensusQuery, ManagerCensusReply, PromoteIfIdle, QueryRole, RoleReport,
};

/// Which role a unified node currently plays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeRole {
    /// Serving as a Local Controller (hosting VMs).
    LocalController,
    /// Serving as a manager (GM, possibly elected GL).
    Manager,
}

/// A node that can play either hierarchy role.
#[derive(Clone)]
pub struct UnifiedNode {
    lc: LocalController,
    gm: GroupManager,
    role: NodeRole,
    /// Times this node changed roles (inspection).
    pub role_changes: u64,
}

impl UnifiedNode {
    /// A unified node for `node`, wired like both an LC (discovering the
    /// hierarchy on `gl_group`) and a dormant manager (contending at
    /// `zk`, heartbeating its own `lc_group` when promoted).
    pub fn new(
        node: NodeSpec,
        config: SnoozeConfig,
        zk: ComponentId,
        gl_group: GroupId,
        lc_group: GroupId,
    ) -> Self {
        UnifiedNode {
            lc: LocalController::new(node, config.clone(), gl_group),
            gm: GroupManager::new(config, zk, gl_group, lc_group),
            role: NodeRole::LocalController,
            role_changes: 0,
        }
    }

    /// Current role.
    pub fn role(&self) -> NodeRole {
        self.role
    }

    /// The LC persona (state is only meaningful in LC role).
    pub fn as_lc(&self) -> &LocalController {
        &self.lc
    }

    /// The manager persona (state is only meaningful in Manager role).
    fn as_manager(&self) -> &GroupManager {
        &self.gm
    }

    fn report(&self, ctx: &mut Ctx<'_, SnoozeMsg>, to: ComponentId) {
        let report = RoleReport {
            role: self.role,
            promotable: self.role == NodeRole::LocalController && self.lc.promotable(),
        };
        ctx.send(to, report);
    }

    fn promote(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) -> bool {
        if self.role == NodeRole::Manager || !self.lc.detach(ctx) {
            return false;
        }
        self.role = NodeRole::Manager;
        self.role_changes += 1;
        // A fresh manager process: campaign and join the hierarchy.
        self.gm.on_restart(ctx);
        true
    }

    fn demote(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) -> bool {
        if self.role == NodeRole::LocalController {
            return false;
        }
        // Never demote an acting GL out from under the hierarchy; the
        // director avoids this, but defend anyway.
        if self.gm.is_gl() {
            return false;
        }
        self.role = NodeRole::LocalController;
        self.role_changes += 1;
        self.gm.resign(ctx);
        // A fresh LC process: rediscover the hierarchy and start serving.
        self.lc.on_restart(ctx);
        true
    }
}

impl Component for UnifiedNode {
    type Msg = SnoozeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        self.lc.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, src: ComponentId, msg: SnoozeMsg) {
        match msg {
            SnoozeMsg::QueryRole(_) => self.report(ctx, src),
            SnoozeMsg::PromoteIfIdle(_) => {
                self.promote(ctx);
                self.report(ctx, src);
            }
            SnoozeMsg::DemoteToLc(_) => {
                self.demote(ctx);
                self.report(ctx, src);
            }
            msg => match self.role {
                NodeRole::LocalController => self.lc.on_message(ctx, src, msg),
                NodeRole::Manager => self.gm.on_message(ctx, src, msg),
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, t: u64) {
        // Timer tags are disjoint between the personas (LC_* vs GM_*/
        // election); route by tag so a stale timer from the inactive
        // persona dies silently instead of reviving it.
        let is_lc_timer = matches!(tag_kind(t), 1..=15);
        match (self.role, is_lc_timer) {
            (NodeRole::LocalController, true) => self.lc.on_timer(ctx, t),
            (NodeRole::Manager, false) => self.gm.on_timer(ctx, t),
            _ => {}
        }
    }

    fn on_crash(&mut self, now: SimTime) {
        self.lc.on_crash(now);
        self.gm.on_crash(now);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        // A rebooted node comes back in the default role.
        self.role = NodeRole::LocalController;
        self.lc.on_restart(ctx);
    }
}

/// Timer tag for the director's periodic check.
const DIRECTOR_TICK: u8 = 48;

/// The role director: keeps the manager pool at its target size.
#[derive(Clone)]
pub struct RoleDirector {
    nodes: Vec<ComponentId>,
    gl_group: GroupId,
    target_managers: usize,
    period: SimSpan,
    gl: Option<ComponentId>,
    roles: Vec<Option<RoleReport>>,
    cursor: usize,
    /// Promotions commanded (inspection).
    pub promotions: u64,
    /// Demotions commanded (inspection).
    pub demotions: u64,
}

impl RoleDirector {
    /// A director maintaining `target_managers` managers among `nodes`.
    pub fn new(
        nodes: Vec<ComponentId>,
        gl_group: GroupId,
        target_managers: usize,
        period: SimSpan,
    ) -> Self {
        assert!(
            target_managers >= 2,
            "hierarchy needs a GL plus at least one GM"
        );
        let roles = vec![None; nodes.len()];
        RoleDirector {
            nodes,
            gl_group,
            target_managers,
            period,
            gl: None,
            roles,
            cursor: 0,
            promotions: 0,
            demotions: 0,
        }
    }

    fn known_managers(&self) -> usize {
        self.roles
            .iter()
            .flatten()
            .filter(|r| r.role == NodeRole::Manager)
            .count()
    }

    fn act(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, census: usize) {
        if census < self.target_managers {
            // Promote the next promotable LC (round-robin for wear
            // leveling).
            for probe in 0..self.nodes.len() {
                let i = (self.cursor + probe) % self.nodes.len();
                if self.roles[i].map(|r| r.promotable).unwrap_or(false) {
                    self.cursor = i + 1;
                    self.promotions += 1;
                    let node = self.nodes[i];
                    ctx.send(node, PromoteIfIdle);
                    return;
                }
            }
        } else if census > self.target_managers {
            // Demote a surplus manager — never the GL.
            let gl = self.gl;
            for (i, r) in self.roles.iter().enumerate() {
                let node = self.nodes[i];
                if Some(node) == gl {
                    continue;
                }
                if r.map(|r| r.role == NodeRole::Manager).unwrap_or(false) {
                    self.demotions += 1;
                    ctx.send(node, DemoteToLc);
                    return;
                }
            }
        }
    }
}

impl McState for NodeRole {
    fn mc_fold(&self, h: &mut McHasher) {
        h.word(match self {
            NodeRole::LocalController => 1,
            NodeRole::Manager => 2,
        });
    }
}

impl McState for UnifiedNode {
    fn mc_fold(&self, h: &mut McHasher) {
        self.lc.mc_fold(h);
        self.gm.mc_fold(h);
        self.role.mc_fold(h);
    }
}

impl McState for RoleDirector {
    fn mc_fold(&self, h: &mut McHasher) {
        h.word(self.nodes.len() as u64);
        for n in &self.nodes {
            h.id(*n);
        }
        h.word(self.target_managers as u64);
        h.opt_id(self.gl);
        h.word(self.roles.len() as u64);
        for r in &self.roles {
            match r {
                Some(report) => {
                    h.word(1);
                    report.role.mc_fold(h);
                    h.flag(report.promotable);
                }
                None => h.word(0),
            }
        }
        h.word(self.cursor as u64);
    }
}

impl Component for RoleDirector {
    type Msg = SnoozeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        ctx.join_group(self.gl_group);
        ctx.set_timer(self.period, tag(DIRECTOR_TICK, 0));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, src: ComponentId, msg: SnoozeMsg) {
        match msg {
            SnoozeMsg::GlHeartbeat(hb) => {
                self.gl = Some(hb.gl);
            }
            SnoozeMsg::RoleReport(report) => {
                if let Some(i) = self.nodes.iter().position(|&n| n == src) {
                    self.roles[i] = Some(report);
                }
            }
            SnoozeMsg::ManagerCensusReply(census) => {
                self.act(ctx, census.managers);
            }
            // Everything else is addressed to another role; drop it.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, t: u64) {
        if tag_kind(t) != DIRECTOR_TICK {
            return;
        }
        // Refresh role knowledge and ask the GL for the census.
        for &node in &self.nodes.clone() {
            ctx.send(node, QueryRole);
        }
        match self.gl {
            Some(gl) => ctx.send(gl, ManagerCensusQuery),
            None => {
                // No GL known: bootstrap. If we know of no manager at
                // all, promote two seeds so an election can happen.
                let managers = self.known_managers();
                if managers < self.target_managers {
                    self.act(ctx, managers);
                }
            }
        }
        ctx.set_timer(self.period, tag(DIRECTOR_TICK, 0));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        self.gl = None;
        self.roles = vec![None; self.nodes.len()];
        ctx.set_timer(self.period, tag(DIRECTOR_TICK, 0));
    }
}

/// Handles to a deployed unified-node system.
pub struct UnifiedSystem {
    /// The coordination service.
    pub zk: ComponentId,
    /// The GL-heartbeat multicast group.
    pub gl_group: GroupId,
    /// Every unified node, in deployment order.
    pub nodes: Vec<ComponentId>,
    /// The role director.
    pub director: ComponentId,
    /// Entry points.
    pub eps: Vec<ComponentId>,
}

impl UnifiedSystem {
    /// Deploy `n_nodes` unified nodes plus a director maintaining
    /// `target_managers` managers — no administrator-assigned roles at
    /// all (the §V vision). Generic over the engine's node enum so test
    /// harnesses can mix in scripted components; `SnoozeNode` satisfies
    /// the bounds.
    pub fn deploy<C>(
        engine: &mut Engine<C>,
        config: &SnoozeConfig,
        specs: &[NodeSpec],
        target_managers: usize,
        n_eps: usize,
    ) -> UnifiedSystem
    where
        C: Component<Msg = SnoozeMsg>
            + From<snooze_protocols::coordination::CoordinationService<SnoozeMsg>>
            + From<UnifiedNode>
            + From<RoleDirector>
            + From<crate::entry_point::EntryPoint>,
    {
        use snooze_protocols::coordination::CoordinationService;

        let zk = engine.add_component("zk", CoordinationService::new(config.zk_session_timeout));
        let gl_group = engine.create_group();
        let nodes: Vec<ComponentId> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let lc_group = engine.create_group();
                engine.add_component(
                    format!("node{i}"),
                    UnifiedNode::new(spec.clone(), config.clone(), zk, gl_group, lc_group),
                )
            })
            .collect();
        let director = engine.add_component(
            "director",
            RoleDirector::new(
                nodes.clone(),
                gl_group,
                target_managers,
                config.gm_heartbeat_period * 2,
            ),
        );
        let eps: Vec<ComponentId> = (0..n_eps)
            .map(|i| {
                engine.add_component(
                    format!("ep{i}"),
                    crate::entry_point::EntryPoint::new(config.clone(), gl_group),
                )
            })
            .collect();
        UnifiedSystem {
            zk,
            gl_group,
            nodes,
            director,
            eps,
        }
    }

    /// Nodes currently in each role: `(managers, lcs)`.
    pub fn role_census<C: Component + NodeView>(&self, engine: &Engine<C>) -> (usize, usize) {
        let mut managers = 0;
        let mut lcs = 0;
        for &node in &self.nodes {
            if !engine.is_alive(node) {
                continue;
            }
            match engine.get(node).and_then(|n| n.unified()).map(|n| n.role()) {
                Some(NodeRole::Manager) => managers += 1,
                Some(NodeRole::LocalController) => lcs += 1,
                None => {}
            }
        }
        (managers, lcs)
    }

    /// The node currently acting as GL, if exactly one exists.
    pub fn current_gl<C: Component + NodeView>(&self, engine: &Engine<C>) -> Option<ComponentId> {
        let leaders: Vec<ComponentId> = self
            .nodes
            .iter()
            .copied()
            .filter(|&n| {
                engine.is_alive(n)
                    && engine
                        .get(n)
                        .and_then(|c| c.unified())
                        .map(|u| u.role() == NodeRole::Manager && u.as_manager().is_gl())
                        .unwrap_or(false)
            })
            .collect();
        match leaders.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }

    /// Total VMs resident across nodes currently in LC role.
    pub fn total_vms<C: Component + NodeView>(&self, engine: &Engine<C>) -> usize {
        self.nodes
            .iter()
            .filter(|&&n| engine.is_alive(n))
            .filter_map(|&n| engine.get(n).and_then(|c| c.unified()))
            .filter(|u| u.role() == NodeRole::LocalController)
            .map(|u| u.as_lc().hypervisor().guest_count())
            .sum()
    }
}
