//! Failover harness: a full Snooze deployment (coordination service,
//! managers, Local Controllers, Entry Point, scripted client) under
//! exhaustive exploration.
//!
//! The default topology is the issue's "1 GL / 2 GM / 2 LC" system:
//! three managers (one elected GL, two serving LCs), two LCs hosting
//! one client VM each, one Entry Point. Invariants: `single-live-gl`,
//! `unassigned-lc-listens` and the bounded liveness predicate
//! `orphaned-lc-recovered` from `snooze::invariants`, and this harness's
//! own `no-lost-vms` (every VM the client placed is still resident on
//! some alive LC: GM crashes and failovers never destroy guests).
//!
//! Exploration targets manager crashes ([`FailoverHarness::crashable`]):
//! LC and client faults are covered by the scenario suite; the GL/GM
//! failover interleavings are where election, heartbeat and rejoin
//! logic cross.

use snooze::invariants;
use snooze::prelude::*;
use snooze_cluster::node::NodeSpec;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::VmWorkload;
use snooze_scenario::mc_trace::McTraceDoc;
use snooze_simcore::prelude::*;

use crate::explorer::{self, McConfig, McReport, McViolation, Predicate, PredicateKind, Strategy};

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

    /// The standard invariants for this topology: three from
    /// `snooze::invariants`, each holding its own copy of the system
    /// handles, and `no-lost-vms`.
    pub fn predicates(&self) -> Vec<Predicate<SnoozeNode>> {
        let shared = |name: &str| {
            let inv = invariants::by_name(name).expect("a library invariant");
            let system = self.system.clone();
            (inv.name, move |sim: &Engine<SnoozeNode>| {
                (inv.check)(sim, &system)
            })
        };
        let (single, single_check) = shared("single-live-gl");
        let (listens, listens_check) = shared("unassigned-lc-listens");
        let (recovered, recovered_check) = shared("orphaned-lc-recovered");

        // Every VM the client placed, by id: a VM hosted twice must not
        // make up for one that is gone. The client's acknowledgments are
        // walked in place, so a state costs no allocation.
        let (client, system) = (self.client, self.system.clone());
        let no_lost = move |sim: &Engine<SnoozeNode>| {
            let hosted =
                |vm| (system.alive_lcs(sim)).any(|(_, l)| l.hypervisor().guest(vm).is_some());
            let placed = &sim.get(client)?.as_client()?.placed;
            let lost = placed.iter().find(|ack| !hosted(ack.vm))?;
            Some(format!(
                "placed VM {} is resident on no alive LC",
                lost.vm.0
            ))
        };

        vec![
            Predicate::safety(single, single_check),
            Predicate::safety("no-lost-vms", no_lost),
            Predicate::safety(listens, listens_check),
            Predicate::liveness(recovered, invariants::RECOVERY_WITHIN, recovered_check),
        ]
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
