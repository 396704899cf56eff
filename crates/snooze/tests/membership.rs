//! Multicast membership follows protocol state: an LC listens on the GL
//! heartbeat group exactly while it has no GM (§II-D: GL heartbeats are
//! how it discovers the hierarchy), and on its GM's group exactly while it
//! is assigned *and powered on* (a suspended host hears wake-on-LAN and
//! nothing else). The tests drive deployed systems through every edge of
//! that life cycle and read the groups back through
//! [`Engine::group_members`].

use snooze::prelude::*;
use snooze_cluster::node::{NodeSpec, PowerState};
use snooze_simcore::mc::{McHasher, McState};
use snooze_simcore::prelude::*;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// `fast_test` timers with the GM's idle sweep off: power transitions
/// happen when a test posts `SuspendNode` / `WakeNode`, not before.
fn manual_power() -> SnoozeConfig {
    SnoozeConfig {
        idle_suspend_after: None,
        ..SnoozeConfig::fast_test()
    }
}

/// `fast_test` timers with idle LCs suspended after 5 s, so a fleet
/// without VMs is assigned and asleep a quarter of a minute in.
fn eager_suspend() -> SnoozeConfig {
    SnoozeConfig {
        idle_suspend_after: Some(SimSpan::from_secs(5)),
        ..SnoozeConfig::fast_test()
    }
}

fn deploy(
    seed: u64,
    config: &SnoozeConfig,
    gms: usize,
    lcs: usize,
) -> (Engine<SnoozeNode>, SnoozeSystem) {
    let mut sim: Engine<SnoozeNode> = SimBuilder::new(seed).build();
    let nodes = NodeSpec::standard_cluster(lcs);
    let system = SnoozeSystem::deploy(&mut sim, config, gms, &nodes, 1);
    (sim, system)
}

/// The heartbeat group of the `i`-th manager: the deployer creates it
/// right after the GL group, in deployment order.
fn lc_group(gl_group: GroupId, i: usize) -> GroupId {
    GroupId(gl_group.0 + 1 + i)
}

/// `power.transitions{kind}` so far: with one LC deployed, that LC's count.
fn transitions(sim: &Engine<SnoozeNode>, kind: &str) -> u64 {
    sim.metrics()
        .counter_with("power.transitions", &label("kind", kind))
}

/// A group's members as a set: the engine lists them in join order.
fn members(sim: &Engine<SnoozeNode>, group: GroupId) -> Vec<ComponentId> {
    let mut members = sim.group_members(group).to_vec();
    members.sort();
    members
}

fn lc(sim: &Engine<SnoozeNode>, id: ComponentId) -> &LocalController {
    sim.component(id).as_lc().expect("an LC")
}

/// The law, checked against what every LC's own state says (a crashed LC
/// keeps the memberships it died with, as it keeps its fields).
fn assert_membership_follows_state(sim: &Engine<SnoozeNode>, system: &SnoozeSystem) {
    let at = sim.now();
    let unassigned = |&id: &ComponentId| lc(sim, id).assigned_gm().is_none();
    let mut listening: Vec<ComponentId> = system.gms.clone();
    listening.extend(system.lcs.iter().copied().filter(unassigned));
    listening.extend(&system.eps);
    assert_eq!(
        members(sim, system.gl_group),
        listening,
        "GL group at {at:?}: managers, unassigned LCs, EPs"
    );
    for (i, &gm) in system.gms.iter().enumerate() {
        let served = |&id: &ComponentId| {
            lc(sim, id).assigned_gm() == Some(gm) && lc(sim, id).power_state().is_on()
        };
        let served: Vec<ComponentId> = system.lcs.iter().copied().filter(served).collect();
        assert_eq!(
            members(sim, lc_group(system.gl_group, i)),
            served,
            "group of {gm:?} at {at:?}: its powered-on LCs"
        );
    }
}

/// Step until `done` holds, failing if it does not by `deadline`.
fn step_until(
    sim: &mut Engine<SnoozeNode>,
    deadline: SimTime,
    what: &str,
    done: impl Fn(&Engine<SnoozeNode>) -> bool,
) {
    while !done(sim) {
        assert!(sim.step() && sim.now() <= deadline, "never saw: {what}");
    }
}

#[test]
fn after_bootstrap_no_lc_listens_to_the_gl_and_each_gm_group_is_its_awake_lcs() {
    // Idle LCs are suspended from 5 s on, so "powered on" is a real filter.
    let (mut sim, system) = deploy(11, &eager_suspend(), 3, 8);
    // Before anything ran, everyone but the group-less ZK would listen.
    sim.run_until(secs(4));
    assert_membership_follows_state(&sim, &system);
    let listening = sim.group_members(system.gl_group);
    assert!(
        system.lcs.iter().all(|id| !listening.contains(id)),
        "every LC is assigned by now"
    );
    let gms_and_eps = system.gms.len() + system.eps.len();
    assert_eq!(listening.len(), gms_and_eps);
    let in_gm_groups = |sim: &Engine<SnoozeNode>| -> usize {
        let group = |i| sim.group_members(lc_group(system.gl_group, i)).len();
        (0..system.gms.len()).map(group).sum()
    };
    assert_eq!(in_gm_groups(&sim), 8, "all awake and assigned");
    // The law also holds mid-transition, and once everyone sleeps the GM
    // groups are empty while every assignment stands.
    for t in [8, 12, 16, 30] {
        sim.run_until(secs(t));
        assert_membership_follows_state(&sim, &system);
    }
    assert_eq!(system.power_census(&sim), (0, 0, 8));
    assert_eq!(in_gm_groups(&sim), 0);
    assert!(system
        .lcs
        .iter()
        .all(|&id| lc(&sim, id).assigned_gm().is_some()));
}

#[test]
fn suspend_leaves_the_gm_group_and_wake_rejoins_it_in_time_to_stay_assigned() {
    let config = manual_power();
    let (mut sim, system) = deploy(12, &config, 2, 3);
    sim.run_until(secs(10));
    let victim = system.lcs[1];
    let gm = lc(&sim, victim).assigned_gm().expect("assigned");
    let gm_index = system.gms.iter().position(|&g| g == gm).unwrap();
    let group = lc_group(system.gl_group, gm_index);
    assert!(sim.group_members(group).contains(&victim));

    sim.post(secs(10), victim, SuspendNode);
    sim.run_until(secs(11));
    assert!(matches!(
        lc(&sim, victim).power_state(),
        PowerState::Suspending(_)
    ));
    assert!(
        !sim.group_members(group).contains(&victim),
        "out as soon as the suspend begins"
    );
    assert_membership_follows_state(&sim, &system);

    // Asleep for many silence windows: nothing reaches it, nothing expires.
    sim.post(secs(60), victim, WakeNode);
    sim.run_until(secs(70));
    assert!(matches!(
        lc(&sim, victim).power_state(),
        PowerState::Resuming(_)
    ));
    assert!(!sim.group_members(group).contains(&victim), "not yet on");

    // On again at 60 + 25 s. Without the rejoin the wake-up grace would run
    // out one silence window later and the LC would drop its GM.
    sim.run_until(secs(86));
    assert_eq!(lc(&sim, victim).power_state(), PowerState::On);
    assert!(sim.group_members(group).contains(&victim));
    sim.run_until(secs(86) + config.silence_timeout * 3);
    assert_eq!(lc(&sim, victim).assigned_gm(), Some(gm));
    assert_membership_follows_state(&sim, &system);
    assert_eq!(sim.dead_letters(), 0);
}

#[test]
fn gm_crash_sends_its_lcs_back_to_the_gl_group_until_they_are_reassigned() {
    let (mut sim, system) = deploy(13, &manual_power(), 3, 6);
    sim.run_until(secs(10));
    let victim = system.active_gms(&sim)[0];
    let orphans: Vec<ComponentId> = system
        .lcs
        .iter()
        .copied()
        .filter(|&id| lc(&sim, id).assigned_gm() == Some(victim))
        .collect();
    assert!(!orphans.is_empty());
    sim.schedule_crash(secs(10), victim);

    // The first orphan to notice the silence listens for the GL again …
    let first = orphans[0];
    step_until(&mut sim, secs(20), "an orphan dropping its GM", |sim| {
        lc(sim, first).assigned_gm().is_none()
    });
    assert!(sim.group_members(system.gl_group).contains(&first));
    assert_membership_follows_state(&sim, &system);

    // … and stops once a live GM has taken it.
    sim.run_until(secs(40));
    let live = system.active_gms(&sim);
    assert!(!live.contains(&victim));
    for &id in &orphans {
        let gm = lc(&sim, id).assigned_gm().expect("re-assigned");
        assert!(live.contains(&gm), "{id:?} re-assigned to a live GM");
        assert!(!sim.group_members(system.gl_group).contains(&id));
    }
    assert_membership_follows_state(&sim, &system);
}

#[test]
fn restarted_lc_listens_for_the_gl_until_it_is_assigned_again() {
    let (mut sim, system) = deploy(14, &manual_power(), 2, 3);
    sim.run_until(secs(10));
    let victim = system.lcs[0];
    assert!(!sim.group_members(system.gl_group).contains(&victim));
    sim.schedule_crash(secs(10), victim);
    sim.schedule_restart(secs(20), victim);

    step_until(&mut sim, secs(21), "the restart", |sim| {
        sim.now() >= secs(20) && sim.is_alive(victim)
    });
    assert_eq!(lc(&sim, victim).assigned_gm(), None);
    assert!(sim.group_members(system.gl_group).contains(&victim));
    assert_membership_follows_state(&sim, &system);

    sim.run_until(secs(30));
    assert!(lc(&sim, victim).assigned_gm().is_some());
    assert!(!sim.group_members(system.gl_group).contains(&victim));
    assert_membership_follows_state(&sim, &system);
}

#[test]
fn watchdog_wake_under_a_dead_gm_ends_reassigned() {
    let config = SnoozeConfig {
        suspend_watchdog: SimSpan::from_secs(30),
        ..eager_suspend()
    };
    let (mut sim, system) = deploy(16, &config, 3, 1);
    let sleeper = system.lcs[0];
    sim.run_until(secs(25));
    assert_eq!(lc(&sim, sleeper).power_state(), PowerState::Suspended);
    let dead = lc(&sim, sleeper).assigned_gm().expect("assigned, asleep");
    sim.schedule_crash(secs(26), dead);

    // Asleep under a dead GM it is in no group at all: only its own RTC
    // can bring it back.
    sim.run_until(secs(35));
    assert_membership_follows_state(&sim, &system);
    assert_eq!(lc(&sim, sleeper).assigned_gm(), Some(dead));

    sim.run_until(secs(120));
    assert!(transitions(&sim, "watchdog-wake") >= 1);
    let gm = lc(&sim, sleeper)
        .assigned_gm()
        .expect("re-assigned after the watchdog wake");
    assert!(gm != dead && system.active_gms(&sim).contains(&gm));
    assert_membership_follows_state(&sim, &system);
}

/// A real RTC holds one alarm, re-programmed on every suspend. A node
/// that slept, was woken for work and went back to sleep must get its
/// watchdog check-in `suspend_watchdog` after the *second* suspend, not
/// the first.
#[test]
fn a_woken_nodes_stale_rtc_alarm_does_not_cut_its_next_sleep_short() {
    let config = SnoozeConfig {
        idle_suspend_after: None,
        ..SnoozeConfig::default()
    };
    let (mut sim, system) = deploy(17, &config, 2, 1);
    let node = system.lcs[0];
    sim.run_until(secs(100));
    assert!(lc(&sim, node).assigned_gm().is_some());

    // Suspended 8 s after each command (typical_server transitions).
    let (first, second) = (secs(100), secs(400));
    sim.post(first, node, SuspendNode);
    sim.post(secs(200), node, WakeNode);
    sim.post(second, node, SuspendNode);
    sim.run_until(secs(410));
    assert_eq!(lc(&sim, node).power_state(), PowerState::Suspended);
    assert_eq!(transitions(&sim, "suspend"), 2);

    let asleep = SimSpan::from_secs(8) + config.suspend_watchdog;
    sim.run_until(first + asleep + SimSpan::from_secs(1));
    assert_eq!(
        lc(&sim, node).power_state(),
        PowerState::Suspended,
        "the first cycle's alarm was disarmed by the wake-up"
    );
    assert_eq!(transitions(&sim, "watchdog-wake"), 0);

    sim.run_until(second + asleep - SimSpan::from_secs(1));
    assert_eq!(transitions(&sim, "watchdog-wake"), 0);
    sim.run_until(second + asleep + SimSpan::from_secs(1));
    assert_eq!(transitions(&sim, "watchdog-wake"), 1);
    assert!(matches!(
        lc(&sim, node).power_state(),
        PowerState::Resuming(_)
    ));
}

/// The guard behind the membership: a multicast already in flight when
/// the LC suspends still arrives, and must change nothing.
#[test]
fn in_flight_gm_heartbeat_reaching_a_just_suspended_lc_is_a_no_op() {
    let (mut sim, system) = deploy(18, &manual_power(), 2, 2);
    sim.run_until(secs(10));
    let sleeper = system.lcs[0];
    let gm = lc(&sim, sleeper).assigned_gm().expect("assigned");
    sim.post(secs(10), sleeper, SuspendNode);
    sim.run_until(secs(11));
    assert!(!lc(&sim, sleeper).power_state().is_on());

    // Folded against a fixed instant, so a moved `last_gm_heartbeat` shows.
    let fold = |sim: &Engine<SnoozeNode>| {
        let mut h = McHasher::new(SimTime::ZERO);
        lc(sim, sleeper).mc_fold(&mut h);
        h.finish()
    };
    let (before, sent) = (fold(&sim), sim.metrics().counter("net.sent"));
    let delivered = sim.metrics().counter("net.delivered");
    sim.post(sim.now(), sleeper, GmLcHeartbeat { gm });
    assert!(sim.step());
    assert_eq!(sim.metrics().counter("net.delivered"), delivered + 1);
    assert_eq!(sim.metrics().counter("net.sent"), sent);
    assert_eq!(fold(&sim), before);
    assert_membership_follows_state(&sim, &system);
}

/// What the membership buys: heartbeats nobody reads are never sent. Once
/// a fleet is assigned and asleep, how many events the hierarchy executes
/// does not depend on how many LCs it has.
#[test]
fn a_sleeping_fleet_costs_no_events_per_lc() {
    let config = eager_suspend();
    // Settled by 60 s; the first RTC alarm is 300 s after the first suspend.
    let (from, to) = (secs(60), secs(260));
    let events_in_window = |lcs: usize| {
        let (mut sim, system) = deploy(20, &config, 2, lcs);
        sim.run_until(from);
        assert_eq!(system.power_census(&sim), (0, 0, lcs));
        let before = sim.events_executed();
        sim.run_until(to);
        assert_eq!(system.power_census(&sim), (0, 0, lcs));
        sim.events_executed() - before
    };
    let (small, large) = (events_in_window(32), events_in_window(128));
    // Two jittered deliveries per LC per 500 ms beat would be ~77 000 more.
    assert!(
        small.abs_diff(large) <= 8,
        "32 LCs: {small} events, 128 LCs: {large}"
    );
}
