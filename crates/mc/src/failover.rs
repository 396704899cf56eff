//! Failover harness: a full Snooze deployment (coordination service,
//! managers, Local Controllers, Entry Point, scripted client) under
//! exhaustive exploration.
//!
//! The default topology is the issue's "1 GL / 2 GM / 2 LC" system:
//! three managers (one elected GL, two serving LCs), two LCs hosting
//! one client VM each, one Entry Point. Invariants:
//!
//! * **single-live-gl** (safety): at most one manager acts as GL with a
//!   live coordination session.
//! * **no-lost-vms** (safety): every VM the client placed is still
//!   resident on some alive LC — GM crashes and failovers must never
//!   destroy guests.
//! * **unassigned-lc-listens** (safety): every alive LC without a GM is
//!   a member of the GL heartbeat group. An LC leaves that group while
//!   assigned, so one that lost its GM and did not rejoin would be deaf
//!   to the only message that can re-attach it.
//! * **orphaned-lc-recovered** (bounded liveness): from every frontier
//!   state, a fair suffix ends with every alive LC assigned to an alive
//!   manager in GM mode — an LC orphaned by its manager's crash rejoins
//!   through the Entry Point and is re-covered.
//!
//! Exploration targets manager crashes ([`FailoverHarness::crashable`]):
//! LC and client faults are covered by the scenario suite; the GL/GM
//! failover interleavings are where election, heartbeat and rejoin
//! logic cross.

use snooze::prelude::*;
use snooze_cluster::node::NodeSpec;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::VmWorkload;
use snooze_scenario::mc_trace::McTraceDoc;
use snooze_simcore::prelude::*;

use crate::explorer::{self, McConfig, McReport, McViolation, Predicate, PredicateKind, Strategy};

/// Fair-suffix horizon for the failover liveness predicate: GL failover
/// (session expiry 2 s + election) plus LC silence detection (2 s) and
/// an EP-mediated rejoin, with slack.
pub const LIVENESS_WITHIN: SimSpan = SimSpan::from_secs(15);

/// What [`smoke`] explores, as [`McReport::counts`] reads it: `snooze-mc
/// --smoke` fails when a run differs from it, so an explorer change that
/// explores a different (if stable) space cannot pass the gate.
pub const SMOKE_COUNTS: [u64; 6] = [3_196, 8_033, 4_838, 1_963, 1_963, 10];

/// The smoke exploration: the default 1 GL / 2 GM / 2 LC topology, DFS
/// to depth 8 with one manager crash to spend and every predicate on.
/// Changing any of it changes [`SMOKE_COUNTS`].
pub fn smoke() -> McReport {
    let mut h = FailoverHarness::new(3, 2, 10);
    let config = McConfig {
        strategy: Strategy::Dfs,
        max_depth: 8,
        max_states: 500_000,
        crash_budget: 1,
        crashable: h.crashable(),
        max_violations: 8,
        ..McConfig::default()
    };
    let preds = h.predicates();
    explorer::explore(&mut h.sim, &preds, &config)
}

/// A bootstrapped failover topology ready for exploration.
pub struct FailoverHarness {
    /// The engine, converged to a steady placed state.
    pub sim: Engine<SnoozeNode>,
    /// Component handles of the deployed system.
    pub system: SnoozeSystem,
    /// The scripted client.
    pub client: ComponentId,
    /// VMs the client had successfully placed at bootstrap end.
    pub placed_vms: usize,
    /// Managers deployed (`gms` in trace documents).
    pub n_gms: usize,
    /// LCs deployed.
    pub n_lcs: usize,
    /// Virtual seconds of normal execution run before exploration.
    pub bootstrap_secs: u64,
}

impl FailoverHarness {
    /// Build and bootstrap: `n_gms` managers, `n_lcs` LC nodes, one EP
    /// and a client placing one VM per LC, on the instant network with a
    /// fixed seed. `fast_test` timers with power management disabled
    /// (suspend/resume cycles would multiply the explored state space
    /// without touching the failover logic under test). Runs
    /// `bootstrap_secs` of normal execution and asserts the hierarchy
    /// converged and every VM was placed.
    pub fn new(n_gms: usize, n_lcs: usize, bootstrap_secs: u64) -> FailoverHarness {
        let mut config = SnoozeConfig::fast_test();
        config.idle_suspend_after = None;
        let mut sim: Engine<SnoozeNode> =
            SimBuilder::new(1).network(NetworkConfig::instant()).build();
        let nodes = NodeSpec::standard_cluster(n_lcs);
        let system = SnoozeSystem::deploy(&mut sim, &config, n_gms, &nodes, 1);
        let schedule: Vec<ScheduledVm> = (0..n_lcs as u64)
            .map(|i| ScheduledVm {
                at: SimTime::from_secs(2),
                spec: VmSpec::new(VmId(i), ResourceVector::new(2.0, 4096.0, 100.0, 100.0)),
                workload: VmWorkload::flat_full(i),
                lifetime: None,
            })
            .collect();
        let client = sim.add_component(
            "client",
            ClientDriver::new(system.eps[0], schedule, SimSpan::from_secs(5)),
        );
        sim.run_until(SimTime::from_secs(bootstrap_secs));
        let placed_vms = sim
            .get(client)
            .and_then(|n| n.as_client())
            .map(|c| c.placed.len())
            .unwrap_or(0);
        assert_eq!(placed_vms, n_lcs, "bootstrap must place every VM");
        assert!(
            system.current_gl(&sim).is_some(),
            "bootstrap must elect a GL"
        );
        FailoverHarness {
            sim,
            system,
            client,
            placed_vms,
            n_gms,
            n_lcs,
            bootstrap_secs,
        }
    }

    /// The fault surface: the managers. Crashing a GL exercises
    /// election failover; crashing a serving GM exercises LC rejoin.
    pub fn crashable(&self) -> Vec<ComponentId> {
        self.system.gms.clone()
    }

    /// Managers currently acting as GL with a live session.
    // check-allow(uncalled): `tests/mc.rs` reads the restored engine's GL
    // through it; the predicates call the free function directly.
    pub fn live_gls(&self) -> Vec<ComponentId> {
        live_gls(&self.sim, self.system.zk, &self.system.gms)
    }

    /// The standard invariants for this topology.
    pub fn predicates(&self) -> Vec<Predicate<SnoozeNode>> {
        let (zk, gms) = (self.system.zk, self.system.gms.clone());
        let single = Predicate::safety("single-live-gl", move |sim| {
            let ls = live_gls(sim, zk, &gms);
            (ls.len() > 1).then(|| format!("{} live GLs: {ls:?}", ls.len()))
        });

        let lcs = self.system.lcs.clone();
        let expected = self.placed_vms;
        let no_lost = Predicate::safety("no-lost-vms", move |sim: &Engine<SnoozeNode>| {
            let resident: usize = lcs
                .iter()
                .filter(|&&lc| sim.is_alive(lc))
                .filter_map(|&lc| sim.get(lc).and_then(|n| n.lc()))
                .map(|l| l.hypervisor().guest_count())
                .sum();
            (resident < expected).then(|| format!("{resident} of {expected} placed VMs resident"))
        });

        let (lcs, gl_group) = (self.system.lcs.clone(), self.system.gl_group);
        let listens =
            Predicate::safety("unassigned-lc-listens", move |sim: &Engine<SnoozeNode>| {
                let listening = sim.group_members(gl_group);
                let deaf = lcs.iter().find(|&&lc| {
                    let l = sim.get(lc).and_then(|n| n.lc());
                    sim.is_alive(lc)
                        && !listening.contains(&lc)
                        && l.is_some_and(|l| l.assigned_gm().is_none())
                });
                deaf.map(|lc| format!("LC {lc:?} has no GM and is not in the GL group"))
            });

        let (gms, lcs) = (self.system.gms.clone(), self.system.lcs.clone());
        let recovered = Predicate::liveness(
            "orphaned-lc-recovered",
            LIVENESS_WITHIN,
            move |sim: &Engine<SnoozeNode>| {
                for &lc in &lcs {
                    if !sim.is_alive(lc) {
                        continue;
                    }
                    let assigned = sim
                        .get(lc)
                        .and_then(|n| n.lc())
                        .and_then(|l| l.assigned_gm());
                    let covered = assigned.is_some_and(|gm| {
                        gms.contains(&gm)
                            && sim.is_alive(gm)
                            && sim
                                .get(gm)
                                .and_then(|n| n.gm())
                                .is_some_and(|g| matches!(g.mode(), Mode::Gm(_)))
                    });
                    if !covered {
                        return Some(format!(
                            "LC {lc:?} not re-covered: assigned to {assigned:?} after fair suffix"
                        ));
                    }
                }
                None
            },
        );
        vec![single, no_lost, listens, recovered]
    }

    /// Package a violation as a replayable scenario document.
    pub fn to_doc(&self, v: &McViolation, name: &str) -> McTraceDoc {
        McTraceDoc {
            name: name.to_string(),
            harness: "failover".to_string(),
            contenders: 0,
            gms: self.n_gms as u64,
            lcs: self.n_lcs as u64,
            seeded_bug: false,
            bootstrap_secs: self.bootstrap_secs,
            predicate: v.predicate.clone(),
            detail: v.detail.clone(),
            steps: explorer::trace_to_steps(&v.trace),
        }
    }
}

fn live_gls(sim: &Engine<SnoozeNode>, zk: ComponentId, gms: &[ComponentId]) -> Vec<ComponentId> {
    let Some(svc) = sim.get(zk).and_then(|n| n.as_zk()) else {
        return Vec::new();
    };
    gms.iter()
        .copied()
        .filter(|&gm| {
            sim.is_alive(gm)
                && sim
                    .get(gm)
                    .and_then(|n| n.gm())
                    .map(|g| g.is_gl() && svc.session_epoch(gm) == Some(g.election_epoch()))
                    .unwrap_or(false)
        })
        .collect()
}

/// Rebuild the harness a trace document describes and replay its steps;
/// same contract as [`crate::election::replay_doc`].
pub fn replay_doc(doc: &McTraceDoc) -> Result<Option<String>, String> {
    if doc.harness != "failover" {
        return Err(format!("not a failover trace: harness={}", doc.harness));
    }
    let mut h = FailoverHarness::new(doc.gms as usize, doc.lcs as usize, doc.bootstrap_secs);
    let steps = explorer::steps_from_doc(&doc.steps)?;
    explorer::replay(&mut h.sim, &steps)?;
    let predicates = h.predicates();
    let p = predicates
        .iter()
        .find(|p| p.name == doc.predicate)
        .ok_or_else(|| format!("unknown predicate `{}`", doc.predicate))?;
    if let PredicateKind::Liveness { within } = p.kind {
        h.sim.run_for(within);
    }
    Ok((p.check)(&h.sim))
}
