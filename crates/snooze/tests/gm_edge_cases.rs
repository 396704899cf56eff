//! Edge-path tests of the Group Manager's bookkeeping, driven through
//! scriptable stub LCs: migration refusal must roll back reservations,
//! failed VM starts must requeue, rejected migration hand-offs must
//! trigger snapshot recovery when configured, a monitoring report must
//! sync the GM's VM records the way its merge walk promises, and one
//! tick's retries and suspends must leave in their fixed order.
//!
//! The stubs speak the real LC↔GM protocol, so the hierarchy here is
//! wired by hand rather than through the scenario compiler — but the
//! `SnoozeConfig`s are still built from the declarative [`ConfigSpec`].

use std::cell::RefCell;

use snooze::group_manager::GroupManager;
use snooze::prelude::*;
use snooze_cluster::resources::ResourceVector;
use snooze_cluster::vm::{VmId, VmSpec};
use snooze_cluster::workload::VmWorkload;
use snooze_protocols::coordination::CoordinationService;
use snooze_scenario::spec::ConfigSpec;
use snooze_simcore::prelude::*;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// The shared test configuration: fast timeouts, power management off.
fn config() -> ConfigSpec {
    ConfigSpec {
        idle_suspend_ms: Some(-1.0),
        ..ConfigSpec::preset("fast_test")
    }
}

/// A scriptable fake Local Controller speaking the LC↔GM protocol.
struct StubLc {
    gm: ComponentId,
    capacity: ResourceVector,
    /// Refuse MigrateVm commands (guest "still booting").
    refuse_migrations: bool,
    /// Fail the first `fail_starts` StartVm commands.
    fail_starts: u32,
    /// Reject inbound hand-offs (destination "out of capacity").
    reject_handoffs: bool,
    /// Admit StartVm commands without answering them (every
    /// StartVmResult is lost).
    silent_starts: bool,
    /// Drop MigrateVm commands unanswered (the command is lost).
    ignore_migrations: bool,
    /// Never send LcJoin: the GM receives reports from an LC it does
    /// not manage.
    skip_join: bool,
    /// Join this long after starting instead of at once.
    join_after: Option<SimSpan>,
    /// The VMs every periodic report names in place of `guests`, once a
    /// scripted report has been posted (see [`script_report`]).
    scripted: Option<Vec<VmUsage>>,
    // --- recording ---
    guests: Vec<(VmSpec, VmWorkload)>,
    start_cmds: u32,
    migrate_cmds: Vec<(VmId, ComponentId)>,
    handoffs_seen: u32,
}

impl StubLc {
    fn new(gm: ComponentId) -> Self {
        StubLc {
            gm,
            capacity: ResourceVector::new(8.0, 32_768.0, 1000.0, 1000.0),
            refuse_migrations: false,
            fail_starts: 0,
            reject_handoffs: false,
            silent_starts: false,
            ignore_migrations: false,
            skip_join: false,
            join_after: None,
            scripted: None,
            guests: Vec::new(),
            start_cmds: 0,
            migrate_cmds: Vec::new(),
            handoffs_seen: 0,
        }
    }

    fn reserved(&self) -> ResourceVector {
        self.guests.iter().map(|(s, _)| s.requested).sum()
    }

    fn monitoring(&self, now: SimTime, heavy: bool) -> LcMonitoring {
        let vms = match &self.scripted {
            Some(vms) if !heavy => vms.clone(),
            _ => self
                .guests
                .iter()
                .map(|(s, w)| VmUsage {
                    vm: s.id,
                    requested: s.requested,
                    used: if heavy {
                        s.requested
                    } else {
                        w.usage_at(now, &s.requested)
                    },
                })
                .collect(),
        };
        LcMonitoring {
            capacity: self.capacity,
            reserved: self.reserved(),
            vms,
            powered_on: true,
            sampled_at: now,
        }
    }
}

thread_local! {
    /// Every power and start command a stub of this test's thread
    /// received, in delivery order: `(when, stub, command)`.
    static COMMANDS: RefCell<Vec<(SimTime, ComponentId, &'static str)>> =
        const { RefCell::new(Vec::new()) };
}

/// Timer tag of a delayed join (the monitoring beat uses 1).
const JOIN_TAG: u64 = 2;

impl Component for StubLc {
    type Msg = SnoozeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>) {
        let (gm, capacity) = (self.gm, self.capacity);
        match self.join_after {
            _ if self.skip_join => {}
            Some(delay) => {
                ctx.set_timer(delay, JOIN_TAG);
            }
            None => ctx.send(gm, LcJoin { capacity }),
        }
        ctx.set_timer(SimSpan::from_millis(500), 1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, src: ComponentId, msg: SnoozeMsg) {
        let now = ctx.now();
        let command = match &msg {
            SnoozeMsg::WakeNode(_) => Some("wake"),
            SnoozeMsg::StartVm(_) => Some("start"),
            SnoozeMsg::SuspendNode(_) => Some("suspend"),
            _ => None,
        };
        if let Some(command) = command {
            let me = ctx.id();
            COMMANDS.with(|log| log.borrow_mut().push((now, me, command)));
        }
        match msg {
            SnoozeMsg::LcJoinAckWithGroup(_) => {
                // joined; monitoring loop already armed
            }
            SnoozeMsg::StartVm(start) => {
                self.start_cmds += 1;
                if self.fail_starts > 0 {
                    self.fail_starts -= 1;
                    ctx.send(
                        src,
                        StartVmResult {
                            vm: start.spec.id,
                            ok: false,
                        },
                    );
                } else {
                    let vm = start.spec.id;
                    self.guests.push((start.spec, start.workload));
                    if !self.silent_starts {
                        ctx.send(src, StartVmResult { vm, ok: true });
                    }
                }
            }
            SnoozeMsg::MigrateVm(m) => {
                self.migrate_cmds.push((m.vm, m.to));
                if self.ignore_migrations {
                    // Lost: the VM stays, and the GM hears nothing.
                } else if self.refuse_migrations {
                    let vm = m.vm;
                    ctx.send(src, MigrateRefused { vm });
                } else if let Some(pos) = self.guests.iter().position(|(s, _)| s.id == m.vm) {
                    let (spec, workload) = self.guests.remove(pos);
                    ctx.send(m.to, VmHandoff { spec, workload });
                }
            }
            SnoozeMsg::VmHandoff(handoff) => {
                self.handoffs_seen += 1;
                let vm = handoff.spec.id;
                let ok = !self.reject_handoffs;
                if ok {
                    self.guests.push((handoff.spec, handoff.workload));
                }
                let gm = self.gm;
                ctx.send(gm, MigrationDone { vm, ok });
            }
            SnoozeMsg::AnomalyReport(_) => {
                // Scripted trigger (real LCs never *receive* anomaly
                // reports): regenerate a heavy report of our own and
                // raise it at the GM.
                let report = AnomalyReport {
                    kind: AnomalyKind::Overload,
                    monitoring: self.monitoring(now, true),
                };
                let gm = self.gm;
                ctx.send(gm, report);
            }
            SnoozeMsg::LcMonitoring(script) => {
                // Scripted (real LCs never *receive* monitoring): from
                // now on report exactly these VMs, starting at once.
                self.scripted = Some(script.vms);
                let (gm, report) = (self.gm, self.monitoring(now, false));
                ctx.send(gm, report);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SnoozeMsg>, tag: u64) {
        if tag == JOIN_TAG {
            let (gm, capacity) = (self.gm, self.capacity);
            ctx.send(gm, LcJoin { capacity });
            return;
        }
        let report = self.monitoring(ctx.now(), false);
        let gm = self.gm;
        ctx.send(gm, report);
        ctx.set_timer(SimSpan::from_millis(500), 1);
    }
}

node_enum! {
    /// The edge-case harness: real managers plus scripted stub LCs.
    enum EdgeNode: SnoozeMsg {
        Zk(CoordinationService<SnoozeMsg>) as as_zk,
        Gm(GroupManager) as as_gm,
        Ep(EntryPoint) as as_ep,
        Client(ClientDriver) as as_client,
        Stub(StubLc) as as_stub,
    }
}

/// Post a scripted overload trigger to `stub` at `at`. The carried
/// monitoring is a placeholder; the stub rebuilds a heavy one itself.
fn trigger_overload(sim: &mut Engine<EdgeNode>, at: SimTime, stub: ComponentId) {
    sim.post(
        at,
        stub,
        AnomalyReport {
            kind: AnomalyKind::Overload,
            monitoring: LcMonitoring {
                capacity: ResourceVector::new(0.0, 0.0, 0.0, 0.0),
                reserved: ResourceVector::new(0.0, 0.0, 0.0, 0.0),
                vms: Vec::new(),
                powered_on: true,
                sampled_at: at,
            },
        },
    );
}

/// Post to `stub` at `at` the VMs its reports name from then on, as
/// `(id, cores)` pairs in increasing id order.
fn script_report(sim: &mut Engine<EdgeNode>, at: SimTime, stub: ComponentId, vms: &[(u64, f64)]) {
    let usage = |&(id, cores): &(u64, f64)| VmUsage {
        vm: VmId(id),
        requested: ResourceVector::new(cores, 1024.0, 10.0, 10.0),
        used: ResourceVector::new(cores / 2.0, 512.0, 5.0, 5.0),
    };
    sim.post(
        at,
        stub,
        LcMonitoring {
            capacity: ResourceVector::new(0.0, 0.0, 0.0, 0.0),
            reserved: ResourceVector::new(0.0, 0.0, 0.0, 0.0),
            vms: vms.iter().map(usage).collect(),
            powered_on: true,
            sampled_at: at,
        },
    );
}

/// Deploy two real managers (one becomes GL, one GM) plus one stub LC
/// per entry of `mods`, each pre-configured by its closure, all attached
/// to the GM.
fn setup(
    seed: u64,
    spec: ConfigSpec,
    mods: &[fn(&mut StubLc)],
) -> (Engine<EdgeNode>, ComponentId, Vec<ComponentId>, ComponentId) {
    let config = spec.build().expect("config spec builds");
    setup_on(seed, config, NetworkConfig::lan(), mods)
}

/// [`setup`] from a built configuration, on the given network.
fn setup_on(
    seed: u64,
    config: SnoozeConfig,
    network: NetworkConfig,
    mods: &[fn(&mut StubLc)],
) -> (Engine<EdgeNode>, ComponentId, Vec<ComponentId>, ComponentId) {
    let mut sim: Engine<EdgeNode> = SimBuilder::new(seed).network(network).build();
    let zk = sim.add_component("zk", CoordinationService::new(config.zk_session_timeout));
    let gl_group = sim.create_group();
    let managers: Vec<ComponentId> = (0..2)
        .map(|i| {
            let lc_group = sim.create_group();
            sim.add_component(
                format!("gm{i}"),
                GroupManager::new(config.clone(), zk, gl_group, lc_group),
            )
        })
        .collect();
    let ep = sim.add_component("ep", EntryPoint::new(config.clone(), gl_group));
    sim.run_until(secs(5));
    let gm = *managers
        .iter()
        .find(|&&m| matches!(sim.component(m).as_gm().unwrap().mode(), Mode::Gm(_)))
        .expect("one manager follows");
    let stubs: Vec<ComponentId> = mods
        .iter()
        .enumerate()
        .map(|(i, configure)| {
            let mut stub = StubLc::new(gm);
            configure(&mut stub);
            sim.add_component(format!("stub{i}"), stub)
        })
        .collect();
    sim.run_until(secs(8));
    (sim, gm, stubs, ep)
}

fn submit_one(sim: &mut Engine<EdgeNode>, ep: ComponentId, cores: f64) -> ComponentId {
    submit(sim, ep, &[(0, 9)], cores)
}

/// Submit one VM of `cores` per `(id, second)` pair, at that second.
fn submit(
    sim: &mut Engine<EdgeNode>,
    ep: ComponentId,
    vms: &[(u64, u64)],
    cores: f64,
) -> ComponentId {
    let schedule = vms
        .iter()
        .map(|&(id, at)| ScheduledVm {
            at: secs(at),
            spec: VmSpec::new(VmId(id), ResourceVector::new(cores, 4096.0, 100.0, 100.0)),
            workload: VmWorkload::flat_full(id),
            lifetime: None,
        })
        .collect();
    sim.add_component(
        "client",
        ClientDriver::new(ep, schedule, SimSpan::from_secs(5)),
    )
}

#[test]
fn migrate_refused_rolls_back_and_allows_retry() {
    let (mut sim, _gm, stubs, ep) = setup(81, config(), &[|_| {}, |_| {}]);
    let client = submit_one(&mut sim, ep, 2.0);
    sim.run_until(secs(20));
    assert_eq!(sim.component(client).as_client().unwrap().placed.len(), 1);
    // The VM landed on one stub (first-fit: lowest id). Report overload
    // there and verify the full command → hand-off → done cycle.
    let host = *stubs
        .iter()
        .find(|&&s| !sim.component(s).as_stub().unwrap().guests.is_empty())
        .unwrap();
    trigger_overload(&mut sim, secs(21), host);
    sim.run_until(secs(40));
    // The GM opens one `gm.migrate` span per command it issues.
    let commanded = sim.spans().iter().filter(|s| s.name == "gm.migrate");
    let commanded = commanded.count();
    assert!(commanded >= 1, "overload triggered a migration");
    let src = sim.component(host).as_stub().unwrap();
    assert_eq!(src.migrate_cmds.len(), commanded);
    assert!(src.guests.is_empty(), "guest migrated away");
    let dst = stubs.iter().find(|&&s| s != host).unwrap();
    assert_eq!(sim.component(*dst).as_stub().unwrap().guests.len(), 1);
}

#[test]
fn migrate_refusal_is_rolled_back_so_a_second_attempt_happens() {
    // Stub 0 refuses migrations; stub 1 is a willing destination.
    let (mut sim, gm, stubs, ep) = setup(82, config(), &[|s| s.refuse_migrations = true, |_| {}]);
    let s0 = stubs[0];
    let client = submit_one(&mut sim, ep, 2.0);
    sim.run_until(secs(20));
    assert_eq!(sim.component(client).as_client().unwrap().placed.len(), 1);

    // Two overload reports, far enough apart for both to be acted on.
    trigger_overload(&mut sim, secs(21), s0);
    trigger_overload(&mut sim, secs(30), s0);
    sim.run_until(secs(45));

    let stub = sim.component(s0).as_stub().unwrap();
    assert!(
        stub.migrate_cmds.len() >= 2,
        "rollback must allow the second migration attempt, got {:?}",
        stub.migrate_cmds
    );
    // Without rollback, the destination reservation would leak 2 cores
    // per refusal; verify the GM still sees the full free capacity by
    // placing a VM that needs almost everything on the destination.
    let gm_ref = sim.component(gm).as_gm().unwrap();
    assert_eq!(gm_ref.vm_count(), 1, "exactly the one VM is tracked");
}

#[test]
fn failed_start_is_requeued_and_eventually_placed() {
    // Admission races twice, then succeeds.
    let (mut sim, _gm, stubs, ep) = setup(83, config(), &[|s| s.fail_starts = 2]);
    let s0 = stubs[0];
    let client = submit_one(&mut sim, ep, 2.0);
    sim.run_until(secs(60));

    let stub = sim.component(s0).as_stub().unwrap();
    assert!(
        stub.start_cmds >= 3,
        "retried after failures: {}",
        stub.start_cmds
    );
    assert_eq!(stub.guests.len(), 1, "eventually admitted");
    let c = sim.component(client).as_client().unwrap();
    assert_eq!(
        c.placed.len(),
        1,
        "client acked only after the successful start"
    );
}

#[test]
fn rejected_handoff_triggers_snapshot_recovery_when_enabled() {
    let spec = ConfigSpec {
        reschedule_on_lc_failure: Some(true),
        ..config()
    };
    // Stub 1 rejects inbound hand-offs.
    let (mut sim, _gm, stubs, ep) = setup(84, spec, &[|_| {}, |s| s.reject_handoffs = true]);
    let (s0, s1) = (stubs[0], stubs[1]);
    let client = submit_one(&mut sim, ep, 2.0);
    sim.run_until(secs(20));
    assert_eq!(sim.component(client).as_client().unwrap().placed.len(), 1);
    assert_eq!(
        sim.component(s0).as_stub().unwrap().guests.len(),
        1,
        "first-fit → stub0"
    );

    // Overload stub0 → GM migrates its VM toward stub1, which rejects
    // the hand-off. The VM is momentarily gone; snapshot recovery must
    // re-place it.
    trigger_overload(&mut sim, secs(21), s0);
    sim.run_until(secs(60));
    let total_guests = sim.component(s0).as_stub().unwrap().guests.len()
        + sim.component(s1).as_stub().unwrap().guests.len();
    assert_eq!(total_guests, 1, "VM recovered somewhere");
    assert!(
        sim.component(s1).as_stub().unwrap().handoffs_seen >= 1,
        "hand-off was attempted"
    );
    // Recovery re-places the VM: a second StartVm beyond the first.
    let starts = |s: ComponentId| sim.component(s).as_stub().unwrap().start_cmds;
    assert!(starts(s0) + starts(s1) >= 2, "recovery path exercised");
}

/// The GM's `gm.place` span for `vm`.
fn place_span(sim: &Engine<EdgeNode>, vm: u64) -> SpanId {
    let log = sim.spans();
    log.iter()
        .find(|s| {
            s.name == "gm.place"
                && matches!(log.label_of(s.id, "vm"), Some(LabelValue::U64(n)) if *n == vm)
        })
        .map(|s| s.id)
        .expect("the VM's placement is instrumented")
}

fn span_closed(sim: &Engine<EdgeNode>, span: SpanId) -> bool {
    sim.spans().get(span).is_some_and(|s| s.end_us.is_some())
}

#[test]
fn a_report_adopts_unrecorded_vms_and_drops_unreported_confirmed_ones() {
    let (mut sim, gm, stubs, ep) = setup(85, config(), &[|_| {}]);
    let s0 = stubs[0];
    let client = submit(&mut sim, ep, &[(5, 9)], 1.0);
    sim.run_until(secs(20));
    assert_eq!(sim.component(client).as_client().unwrap().placed.len(), 1);
    assert_eq!(sim.component(gm).as_gm().unwrap().vm_count(), 1);

    // A VM the GM never recorded, below its record of VM 5: the LC
    // vouches for it, so it is recorded.
    script_report(&mut sim, secs(21), s0, &[(2, 1.0), (5, 1.0)]);
    sim.run_until(secs(22));
    assert_eq!(sim.component(gm).as_gm().unwrap().vm_count(), 2);

    // Then one above it, while VM 2 goes unreported: confirmed, so
    // dropped.
    script_report(&mut sim, secs(23), s0, &[(5, 1.0), (9, 1.0)]);
    sim.run_until(secs(24));
    assert_eq!(sim.component(gm).as_gm().unwrap().vm_count(), 2);

    // Adopted and unreported by the very next report (a microsecond
    // later, between two of the stub's half-second beats): dropped at
    // once, so it was recorded as confirmed — an unconfirmed record
    // would be kept.
    let at = SimTime(secs(25).0 + 250_000);
    script_report(&mut sim, at, s0, &[(5, 1.0), (11, 1.0)]);
    script_report(&mut sim, SimTime(at.0 + 1), s0, &[(5, 1.0)]);
    sim.run_until(secs(26));
    let gm_ref = sim.component(gm).as_gm().unwrap();
    assert_eq!(gm_ref.vm_count(), 1, "VMs 2, 9 and 11 are dropped, 5 stays");
    assert_eq!(gm_ref.lc_count(), 1);
}

#[test]
fn an_unreported_migrating_vm_is_kept() {
    // Stub 0 loses every MigrateVm: its VM stays mid-migration.
    let (mut sim, gm, stubs, ep) = setup(86, config(), &[|s| s.ignore_migrations = true, |_| {}]);
    let s0 = stubs[0];
    let client = submit_one(&mut sim, ep, 2.0);
    sim.run_until(secs(20));
    assert_eq!(sim.component(client).as_client().unwrap().placed.len(), 1);
    trigger_overload(&mut sim, secs(21), s0);
    sim.run_until(secs(23));
    assert_eq!(sim.component(s0).as_stub().unwrap().migrate_cmds.len(), 1);

    // The LC stops naming the VM; the GM keeps it until MigrationDone.
    script_report(&mut sim, secs(24), s0, &[]);
    sim.run_until(secs(30));
    assert_eq!(sim.component(gm).as_gm().unwrap().vm_count(), 1);
}

#[test]
fn unconfirmed_vms_are_kept_until_a_report_vouches_for_them_in_id_order() {
    // Stub 0 never answers StartVm and, scripted, reports no VMs.
    let (mut sim, gm, stubs, ep) = setup(87, config(), &[|s| s.silent_starts = true]);
    let s0 = stubs[0];
    script_report(&mut sim, secs(8), s0, &[]);
    // VM 7's placement span opens before VM 3's.
    submit(&mut sim, ep, &[(7, 9), (3, 10)], 1.0);
    sim.run_until(secs(12));
    let (span7, span3) = (place_span(&sim, 7), place_span(&sim, 3));
    assert!(span7 < span3);
    assert_eq!(
        sim.component(gm).as_gm().unwrap().vm_count(),
        2,
        "unreported but unconfirmed: kept"
    );
    assert!(!span_closed(&sim, span7) && !span_closed(&sim, span3));

    // One report vouches for both. Step to the event that closes them.
    script_report(
        &mut sim,
        SimTime(secs(12).0 + 250_000),
        s0,
        &[(3, 1.0), (7, 1.0)],
    );
    let before = loop {
        let before = sim.spans().clone();
        assert!(sim.step(), "the vouching report is delivered");
        if span_closed(&sim, span3) || span_closed(&sim, span7) {
            break before;
        }
    };
    let now_us = sim.now().as_micros();
    for span in [span3, span7] {
        let rec = sim.spans().get(span).unwrap();
        let outcome = sim.spans().label_of(span, "outcome");
        assert!(outcome.is_some_and(|v| *v == "confirmed"), "{outcome:?}");
        assert_eq!(rec.end_us, Some(now_us));
    }
    // The span log's digest folds every mutation in order: that event
    // labelled and closed VM 3's span, then VM 7's.
    let replay = |order: [SpanId; 2]| {
        let mut log = before.clone();
        for span in order {
            log.label(span, "outcome", "confirmed");
            log.close(span, now_us);
        }
        log.digest()
    };
    assert_eq!(sim.spans().digest(), replay([span3, span7]));
    assert_ne!(replay([span3, span7]), replay([span7, span3]));
}

#[test]
fn a_report_from_an_lc_the_gm_does_not_manage_changes_nothing() {
    // Stub 1 never joins, yet reports to the GM every half second.
    let (mut sim, gm, stubs, _ep) = setup(88, config(), &[|_| {}, |s| s.skip_join = true]);
    let s1 = stubs[1];
    script_report(&mut sim, secs(9), s1, &[(4, 1.0)]);
    sim.run_until(secs(12));
    let gm_ref = sim.component(gm).as_gm().unwrap();
    assert_eq!(gm_ref.lc_count(), 1, "only stub 0 is managed");
    assert_eq!(gm_ref.vm_count(), 0, "stub 1's VM is not recorded");

    // Had a report reached the failure detector, stub 1 falling silent
    // would be declared an LC failure after the 2 s timeout.
    sim.schedule_crash(secs(13), s1);
    sim.run_until(secs(20));
    let s1_name = format!("{s1:?}");
    let log = sim.spans();
    let evicted = log.iter().any(|s| {
        s.name == "gm.lc-failover"
            && log
                .label_of(s.id, "lc")
                .is_some_and(|v| *v == s1_name.as_str())
    });
    assert!(!evicted, "the detector never tracked stub 1");
    assert_eq!(sim.component(gm).as_gm().unwrap().lc_count(), 1);
}

#[test]
fn one_tick_sends_stale_wakes_then_overdue_starts_then_suspends() {
    // Stubs 0 and 1 admit their VM silently and report none, so its
    // start stays unconfirmed; stubs 2 and 3 idle into suspend at 8 s
    // and never act on a wake; stubs 4 and 5, too small for any VM, join
    // at 20.5 s and go idle. The retry fuses (a wake 12 retry periods, a
    // start the 9 s boot plus 4 retry periods) and the 3 s idle threshold
    // make all six commands fall due on the 23.5 s tick. The network is
    // instant, so delivery order is send order.
    let mut config = config().build().expect("config spec builds");
    config.idle_suspend_after = Some(SimSpan::from_secs(3));
    config.vm_boot_delay = SimSpan::from_secs(9);
    let (mut sim, _gm, stubs, ep) = setup_on(
        89,
        config,
        NetworkConfig::instant(),
        &[
            |s| {
                s.silent_starts = true;
                s.join_after = Some(SimSpan::from_secs(4));
            },
            |s| {
                s.silent_starts = true;
                s.join_after = Some(SimSpan::from_secs(4));
            },
            |_| {},
            |_| {},
            |s| {
                s.capacity = ResourceVector::new(1.0, 32_768.0, 1000.0, 1000.0);
                s.join_after = Some(SimSpan::from_millis(15_500));
            },
            |s| {
                s.capacity = ResourceVector::new(1.0, 32_768.0, 1000.0, 1000.0);
                s.join_after = Some(SimSpan::from_millis(15_500));
            },
        ],
    );
    script_report(&mut sim, secs(8), stubs[0], &[]);
    script_report(&mut sim, secs(8), stubs[1], &[]);
    // One 5-core VM fills each of stubs 0 and 1; at 11 s no awake LC
    // fits a 6-core one, so each wakes a sleeper: stub 2, then stub 3.
    submit(&mut sim, ep, &[(1, 10), (2, 10)], 5.0);
    submit(&mut sim, ep, &[(3, 11), (4, 11)], 6.0);
    sim.run_until(secs(30));

    let log = COMMANDS.with(|log| log.borrow().clone());
    let tick = log
        .iter()
        .find(|&&(_, stub, command)| stub == stubs[4] && command == "suspend")
        .map(|&(at, _, _)| at)
        .expect("the late idle stubs are suspended");
    let sent: Vec<(ComponentId, &str)> = log
        .iter()
        .filter(|&&(at, _, _)| at == tick)
        .map(|&(_, stub, command)| (stub, command))
        .collect();
    assert_eq!(
        sent,
        [
            (stubs[2], "wake"),
            (stubs[3], "wake"),
            (stubs[0], "start"),
            (stubs[1], "start"),
            (stubs[4], "suspend"),
            (stubs[5], "suspend"),
        ],
        "at {tick:?}: wakes, then starts, then suspends, each in LC id order"
    );
}
