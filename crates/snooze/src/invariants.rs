//! The system's named invariants, one definition for the model checker
//! and for every scenario run. A predicate reads a deployed hierarchy and
//! returns what it saw, or `None` while it holds; it schedules and
//! mutates nothing, so checking it leaves every digest as it was.
//! [`SAFETY`] must hold in every reachable state: `snooze-mc`'s failover
//! harness checks two of them at every explored state, and every scenario
//! run all four at each `[[probe]]` and at its end.
//! [`ORPHANED_LC_RECOVERED`] must hold once a fair suffix of
//! [`RECOVERY_WITHIN`] has run; only the model checker checks it (a
//! scenario's `lcs_on_live_gms` condition times how long it takes).
//! Local conditions (event order, a hypervisor's reservations, the
//! pheromone band) are `debug_assert!`s at their sites.

use snooze_cluster::vm::VmId;
use snooze_simcore::{ComponentId, Engine, SimSpan};

use crate::group_manager::Mode;
use crate::system::SnoozeSystem;
use crate::SnoozeNode;

/// A named system invariant.
pub struct Invariant {
    /// Stable name: recorded in model-checker violations, trace
    /// documents and the `checks` table of `run_experiments --scenario`.
    pub name: &'static str,
    /// The predicate.
    pub check: Check,
}

impl Invariant {
    const fn new(name: &'static str, check: Check) -> Invariant {
        Invariant { name, check }
    }
}

/// A predicate: `None` while it holds, what it saw otherwise.
pub type Check = fn(&Engine<SnoozeNode>, &SnoozeSystem) -> Option<String>;

/// The safety predicates, in evaluation order.
pub const SAFETY: [Invariant; 4] = [
    Invariant::new("single-live-gl", single_live_gl),
    Invariant::new("unassigned-lc-listens", unassigned_lc_listens),
    Invariant::new("reservations-within-capacity", reservations_within_capacity),
    Invariant::new("single-hosting", single_hosting),
];

/// Every alive LC is assigned to an alive manager in GM mode: an LC
/// orphaned by its manager's crash rejoins and is re-covered.
pub const ORPHANED_LC_RECOVERED: Invariant =
    Invariant::new("orphaned-lc-recovered", orphaned_lc_recovered);

/// How long [`ORPHANED_LC_RECOVERED`] may take under `fast_test` timers:
/// GL failover (session expiry 2 s + election), LC silence detection
/// (2 s) and a rejoin through the Entry Point, with slack.
pub const RECOVERY_WITHIN: SimSpan = SimSpan::from_secs(15);

/// The invariant called `name`, safety or liveness.
pub fn by_name(name: &str) -> Option<&'static Invariant> {
    let mut all = SAFETY.iter().chain([&ORPHANED_LC_RECOVERED]);
    all.find(|inv| inv.name == name)
}

/// Every safety predicate that does not hold, in [`SAFETY`] order, with
/// what it saw.
pub fn violations<'a>(
    sim: &'a Engine<SnoozeNode>,
    system: &'a SnoozeSystem,
) -> impl Iterator<Item = (&'static str, String)> + 'a {
    let fired = move |inv: &Invariant| Some((inv.name, (inv.check)(sim, system)?));
    SAFETY.iter().filter_map(fired)
}

/// Managers acting as GL with a live coordination session of the epoch
/// they were elected under, in deployment order. One that still believes
/// it leads after its session expired is deposed in flight, not a second
/// leader.
pub fn live_gls(sim: &Engine<SnoozeNode>, system: &SnoozeSystem) -> Vec<ComponentId> {
    live_gl_ids(sim, system).collect()
}

fn live_gl_ids<'a>(
    sim: &'a Engine<SnoozeNode>,
    system: &'a SnoozeSystem,
) -> impl Iterator<Item = ComponentId> + 'a {
    let svc = sim.get(system.zk).and_then(|n| n.as_zk());
    let epoch = move |gm| svc.and_then(|svc| svc.session_epoch(gm));
    let live = move |&gm: &ComponentId| {
        let g = sim.get(gm).and_then(|n| n.as_gm());
        sim.is_alive(gm) && g.is_some_and(|g| g.is_gl() && epoch(gm) == Some(g.election_epoch()))
    };
    system.gms.iter().copied().filter(live)
}

/// At most one manager is a live GL. Counted before any list is built,
/// so the model checker's per-state call allocates nothing.
fn single_live_gl(sim: &Engine<SnoozeNode>, system: &SnoozeSystem) -> Option<String> {
    (live_gl_ids(sim, system).count() > 1).then(|| {
        let ls = live_gls(sim, system);
        format!("{} live GLs: {ls:?}", ls.len())
    })
}

/// Every alive LC without a GM is in the GL heartbeat group. An LC leaves
/// that group while assigned, so one that lost its GM and did not rejoin
/// would be deaf to the only message that can re-attach it.
fn unassigned_lc_listens(sim: &Engine<SnoozeNode>, system: &SnoozeSystem) -> Option<String> {
    let listening = sim.group_members(system.gl_group);
    let mut deaf = system
        .alive_lcs(sim)
        .filter(|(lc, l)| l.assigned_gm().is_none() && !listening.contains(lc));
    let (lc, _) = deaf.next()?;
    Some(format!("LC {lc:?} has no GM and is not in the GL group"))
}

/// Every alive LC's hypervisor keeps its reservations valid, within
/// capacity, and equal to the sum of its guests'.
fn reservations_within_capacity(sim: &Engine<SnoozeNode>, system: &SnoozeSystem) -> Option<String> {
    system.alive_lcs(sim).find_map(|(lc, l)| {
        let (hv, rule) = (l.hypervisor(), l.hypervisor().conservation_fault()?);
        let (reserved, capacity) = (hv.reserved(), hv.capacity());
        Some(format!(
            "LC {lc:?} breaks {rule}: reserved {reserved:?} of capacity {capacity:?}"
        ))
    })
}

/// No VM is resident on two alive LCs.
fn single_hosting(sim: &Engine<SnoozeNode>, system: &SnoozeSystem) -> Option<String> {
    let mut resident: Vec<(VmId, ComponentId)> = system
        .alive_lcs(sim)
        .flat_map(|(lc, l)| l.hypervisor().guests().map(move |g| (g.spec.id, lc)))
        .collect();
    resident.sort_unstable();
    let vm = resident.windows(2).find(|w| w[0].0 == w[1].0)?[0].0;
    let hosts: Vec<ComponentId> = (resident.iter().filter(|r| r.0 == vm))
        .map(|r| r.1)
        .collect();
    Some(format!("VM {} resident on LCs {hosts:?}", vm.0))
}

fn orphaned_lc_recovered(sim: &Engine<SnoozeNode>, system: &SnoozeSystem) -> Option<String> {
    let is_gm = |gm: ComponentId| {
        let mode = sim.get(gm).and_then(|n| n.as_gm()).map(|g| g.mode());
        system.gms.contains(&gm) && sim.is_alive(gm) && matches!(mode, Some(Mode::Gm(_)))
    };
    let (lc, assigned) = system
        .alive_lcs(sim)
        .map(|(lc, l)| (lc, l.assigned_gm()))
        .find(|&(_, assigned)| !assigned.is_some_and(is_gm))?;
    Some(format!(
        "LC {lc:?} not re-covered: assigned to {assigned:?} after fair suffix"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use snooze_cluster::node::NodeSpec;
    use snooze_cluster::resources::ResourceVector;
    use snooze_cluster::vm::VmSpec;
    use snooze_cluster::workload::VmWorkload;
    use snooze_protocols::coordination::{ZkReply, ZnodePath};
    use snooze_protocols::ProtocolMsg;
    use snooze_simcore::prelude::*;

    /// Two managers and two LCs on the instant network, converged: one
    /// GL, one GM serving both LCs. Power management is off, so no LC
    /// sleeps through a test.
    fn converged() -> (Engine<SnoozeNode>, SnoozeSystem, SnoozeConfig) {
        let mut config = SnoozeConfig::fast_test();
        config.idle_suspend_after = None;
        let mut sim: Engine<SnoozeNode> =
            SimBuilder::new(3).network(NetworkConfig::instant()).build();
        let system = SnoozeSystem::deploy(&mut sim, &config, 2, &NodeSpec::standard_cluster(2), 1);
        sim.run_until(SimTime::from_secs(10));
        let fired: Vec<_> = violations(&sim, &system).collect();
        assert!(
            fired.is_empty(),
            "a converged hierarchy breaks nothing: {fired:?}"
        );
        (sim, system, config)
    }

    /// Run a millisecond past now, so posted messages are handled.
    fn settle(sim: &mut Engine<SnoozeNode>) {
        let to = sim.now() + SimSpan::from_millis(1);
        sim.run_until(to);
    }

    fn fired(sim: &Engine<SnoozeNode>, system: &SnoozeSystem) -> Vec<&'static str> {
        violations(sim, system).map(|(name, _)| name).collect()
    }

    #[test]
    fn a_forged_election_listing_fires_single_live_gl() {
        let (mut sim, system, _) = converged();
        let gl = system.current_gl(&sim).expect("elected");
        let follower = *system.gms.iter().find(|&&gm| gm != gl).unwrap();
        // The GL holds znode 0 and the follower znode 1. A listing that
        // omits the GL's znode makes the follower the lowest contender
        // while the GL's session stays live.
        let prefix = "gl-election".to_string();
        let mine = ZnodePath {
            prefix: prefix.clone(),
            seq: 1,
        };
        let entries = vec![(mine, follower)];
        let forged = ProtocolMsg::Reply(ZkReply::Children { prefix, entries });
        sim.post(sim.now(), follower, forged);
        settle(&mut sim);
        let mut both = [gl, follower];
        both.sort_unstable();
        assert_eq!(live_gls(&sim, &system), both);
        assert_eq!(fired(&sim, &system), ["single-live-gl"]);
    }

    #[test]
    fn an_unassigned_lc_outside_the_gl_group_fires_unassigned_lc_listens() {
        let (mut sim, mut system, config) = converged();
        // An LC that listens for GL heartbeats on a group no GL beats on:
        // it never hears one, so it never asks for a GM.
        let elsewhere = sim.create_group();
        let node = NodeSpec::standard_cluster(3).pop().unwrap();
        let stray = sim.add_component("stray", LocalController::new(node, config, elsewhere));
        system.lcs.push(stray);
        settle(&mut sim);
        assert_eq!(fired(&sim, &system), ["unassigned-lc-listens"]);
        let (_, seen) = violations(&sim, &system).next().unwrap();
        assert!(seen.contains(&format!("{stray:?}")), "{seen}");
    }

    #[test]
    fn a_node_below_its_reservations_fires_reservations_within_capacity() {
        let (mut sim, mut system, config) = converged();
        // Nothing reserved, on a node that claims less than nothing: no
        // admission can produce this, so the node is built that way.
        let mut node = NodeSpec::standard_cluster(3).pop().unwrap();
        node.capacity.cpu = -1.0;
        let short = sim.add_component("short", LocalController::new(node, config, system.gl_group));
        system.lcs.push(short);
        settle(&mut sim);
        assert_eq!(fired(&sim, &system), ["reservations-within-capacity"]);
        let (_, seen) = violations(&sim, &system).next().unwrap();
        assert!(seen.contains("reserved-within-capacity"), "{seen}");
    }

    #[test]
    fn one_vm_admitted_on_two_lcs_fires_single_hosting() {
        let (mut sim, system, _) = converged();
        let spec = VmSpec::new(VmId(7), ResourceVector::new(1.0, 1024.0, 10.0, 10.0));
        for &lc in &system.lcs {
            let start = StartVm {
                spec,
                workload: VmWorkload::flat_full(7),
            };
            sim.post(sim.now(), lc, start);
        }
        settle(&mut sim);
        assert_eq!(fired(&sim, &system), ["single-hosting"]);
        let (_, seen) = violations(&sim, &system).next().unwrap();
        assert_eq!(seen, format!("VM 7 resident on LCs {:?}", system.lcs));
    }

    #[test]
    fn a_crashed_gm_with_no_successor_leaves_its_lcs_orphaned() {
        let (mut sim, system, _) = converged();
        let check = by_name("orphaned-lc-recovered").unwrap().check;
        assert_eq!(check(&sim, &system), None);
        // With two managers the GM's crash leaves only the GL: nobody can
        // cover the LCs, however long the suffix.
        let gl = system.current_gl(&sim).unwrap();
        let gm = *system.gms.iter().find(|&&gm| gm != gl).unwrap();
        sim.schedule_crash(sim.now(), gm);
        let to = sim.now() + RECOVERY_WITHIN;
        sim.run_until(to);
        assert!(check(&sim, &system).is_some_and(|seen| seen.contains("not re-covered")));
        assert!(
            fired(&sim, &system).is_empty(),
            "an orphan breaks no safety predicate"
        );
    }

    #[test]
    fn every_invariant_is_found_by_its_name() {
        for inv in SAFETY.iter().chain([&ORPHANED_LC_RECOVERED]) {
            assert_eq!(by_name(inv.name).map(|i| i.name), Some(inv.name));
        }
        assert!(by_name("no-lost-vms").is_none(), "harness-only");
    }
}
