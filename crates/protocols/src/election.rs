//! Leader election — the ZooKeeper recipe.
//!
//! Paper §II-D: "When a GM first attempts to join the system, a leader
//! election algorithm is triggered in order to detect the current GL. …
//! our leader election scheme is built on top of the Apache ZooKeeper".
//!
//! This is the standard ZK election recipe: each contender creates an
//! ephemeral sequential znode under a common prefix; the holder of the
//! lowest sequence number is the leader; every other contender watches
//! the znode *immediately preceding its own* (not the leader's — that
//! avoids a thundering herd) and re-examines the children when the watch
//! fires.
//!
//! [`Elector`] is an embeddable state machine, not a component: the host
//! component (a Group Manager in Snooze) forwards coordination replies to
//! [`Elector::handle_reply`] and pumps [`Elector::tick`] from a periodic
//! timer to keep the session alive. Its methods are generic over the
//! host's message enum `M: ProtocolCarrier`, so the same state machine
//! embeds into any system whose message hierarchy carries
//! [`crate::coordination::ProtocolMsg`].

use snooze_simcore::prelude::*;

use crate::coordination::{ProtocolCarrier, ProtocolMsg, ZkReply, ZkRequest, ZnodePath};

/// Timer tag reserved for the elector's session pings. Host components
/// must route timers with this tag to [`Elector::tick`].
pub const ELECTION_PING_TAG: u64 = 0xE1EC;

/// Where the elector stands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ElectorState {
    /// Not campaigning.
    Idle,
    /// Waiting for znode creation / children listing.
    Campaigning,
    /// This component holds the lowest znode.
    Leader,
    /// Another component leads.
    Follower {
        /// The current leader.
        leader: ComponentId,
    },
}

/// State-change notifications returned by [`Elector::handle_reply`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ElectorEvent {
    /// This component just became the leader.
    BecameLeader,
    /// This component is now following `leader` (reported on every
    /// leadership change, including the initial one).
    FollowingLeader(ComponentId),
}

/// A deliberately wrong variant of the election recipe, re-introducible
/// for the model checker's seeded-bug tests (`snooze-mc` must find the
/// resulting counterexample). Never enable outside of tests.
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeededBug {
    /// Watch the *leader's* znode instead of the predecessor's, and
    /// assume leadership directly when the watch fires instead of
    /// re-listing the children. With three contenders A < B < C, A's
    /// death fires the watch at **both** B and C and both assume
    /// leadership — the classic double-leader bug the predecessor chain
    /// exists to prevent.
    WatchLeaderAssumeOnFire,
}

/// The election state machine.
#[derive(Clone, Debug)]
pub struct Elector {
    zk: ComponentId,
    prefix: String,
    ping_period: SimSpan,
    epoch: u64,
    my_path: Option<ZnodePath>,
    state: ElectorState,
    /// Open `election.campaign` span: creation → first leader knowledge.
    campaign_span: Option<SpanId>,
    /// Test-only wrong-protocol variant (see [`SeededBug`]).
    seeded_bug: Option<SeededBug>,
}

impl Elector {
    /// An elector contending under `prefix` at coordination service `zk`.
    pub fn new(zk: ComponentId, prefix: impl Into<String>, ping_period: SimSpan) -> Self {
        Elector {
            zk,
            prefix: prefix.into(),
            ping_period,
            epoch: 0,
            my_path: None,
            state: ElectorState::Idle,
            campaign_span: None,
            seeded_bug: None,
        }
    }

    /// Enable a known-wrong protocol variant. Test-only: exists so the
    /// model checker's seeded-bug test can prove the checker would catch
    /// this class of regression.
    #[doc(hidden)]
    pub fn seed_bug(&mut self, bug: SeededBug) {
        self.seeded_bug = Some(bug);
    }

    /// Current state.
    pub fn state(&self) -> ElectorState {
        self.state
    }

    /// The session epoch of the current campaign. Model-checking
    /// invariants compare this against the coordination service's
    /// [`CoordinationService::session_epoch`](crate::coordination::CoordinationService::session_epoch)
    /// to count *live* leaders.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True if currently leader.
    pub fn is_leader(&self) -> bool {
        self.state == ElectorState::Leader
    }

    /// Begin (or restart, with a fresh session epoch) a campaign. Call
    /// from `on_start` and `on_restart`.
    pub fn start<M: ProtocolCarrier>(&mut self, ctx: &mut Ctx<'_, M>) {
        self.epoch += 1;
        self.my_path = None;
        self.state = ElectorState::Campaigning;
        if let Some(sp) = self.campaign_span.take() {
            // Recampaign before the previous one resolved.
            ctx.span_label(sp, "outcome", "restarted");
            ctx.span_close(sp);
        }
        let span = ctx.span_open("election.campaign");
        ctx.span_label(span, "epoch", self.epoch);
        self.campaign_span = Some(span);
        let (zk, prefix, epoch) = (self.zk, self.prefix.clone(), self.epoch);
        ctx.send(
            zk,
            ProtocolMsg::Request(ZkRequest::CreateEphemeralSequential { prefix, epoch }),
        );
        ctx.set_timer(self.ping_period, ELECTION_PING_TAG);
    }

    /// Keep the coordination session alive and re-drive any stalled
    /// protocol step; re-arms the ping timer. Call from `on_timer` when
    /// the tag is [`ELECTION_PING_TAG`].
    ///
    /// Every coordination message can be lost on the simulated network,
    /// so the elector is built as a *convergent* protocol: each tick it
    /// re-issues whatever request its current state is waiting on
    /// (creation is idempotent service-side, children listings are pure
    /// reads, and watches are deduplicated).
    pub fn tick<M: ProtocolCarrier>(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.state == ElectorState::Idle {
            return;
        }
        let (zk, epoch) = (self.zk, self.epoch);
        ctx.send(zk, ProtocolMsg::Request(ZkRequest::Ping { epoch }));
        match self.state {
            ElectorState::Campaigning if self.my_path.is_none() => {
                // Created reply lost — re-create (idempotent).
                let prefix = self.prefix.clone();
                ctx.send(
                    zk,
                    ProtocolMsg::Request(ZkRequest::CreateEphemeralSequential { prefix, epoch }),
                );
            }
            ElectorState::Campaigning => {
                // Children reply lost — re-list.
                self.request_children(ctx);
            }
            ElectorState::Follower { .. } => {
                // Anti-entropy: repairs lost watches and stale leader
                // knowledge at one cheap read per ping.
                self.request_children(ctx);
            }
            _ => {}
        }
        ctx.set_timer(self.ping_period, ELECTION_PING_TAG);
    }

    /// Feed a coordination reply. Returns a notification if leadership
    /// knowledge changed.
    pub fn handle_reply<M: ProtocolCarrier>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        reply: &ZkReply,
    ) -> Option<ElectorEvent> {
        if self.state == ElectorState::Idle {
            return None;
        }
        match reply {
            ZkReply::Created { path } if path.prefix == self.prefix => {
                self.my_path = Some(path.clone());
                self.request_children(ctx);
                None
            }
            ZkReply::Children { prefix, entries } if *prefix == self.prefix => {
                self.evaluate(ctx, entries)
            }
            ZkReply::WatchFired { path } if path.prefix == self.prefix => {
                if self.seeded_bug == Some(SeededBug::WatchLeaderAssumeOnFire) {
                    // BUG (deliberate, test-only): assume the deleted
                    // znode was the leader's and that we are next in
                    // line, without re-listing. Every watcher of that
                    // znode concludes the same thing.
                    let was = self.state;
                    self.state = ElectorState::Leader;
                    if let Some(sp) = self.campaign_span.take() {
                        ctx.span_label(sp, "outcome", "leader-assumed");
                        ctx.span_close(sp);
                    }
                    return (was != ElectorState::Leader).then_some(ElectorEvent::BecameLeader);
                }
                // Predecessor died — re-examine the field.
                self.request_children(ctx);
                None
            }
            ZkReply::SessionExpired { epoch } if *epoch == self.epoch => {
                // Our session (and znode) died while we were away — any
                // leadership we held is void. Recampaign from scratch;
                // the host learns its new place via the usual events.
                self.start(ctx);
                None
            }
            _ => None,
        }
    }

    fn request_children<M: ProtocolCarrier>(&self, ctx: &mut Ctx<'_, M>) {
        let (zk, prefix) = (self.zk, self.prefix.clone());
        ctx.send(zk, ProtocolMsg::Request(ZkRequest::GetChildren { prefix }));
    }

    fn evaluate<M: ProtocolCarrier>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        entries: &[(ZnodePath, ComponentId)],
    ) -> Option<ElectorEvent> {
        let my_path = self.my_path.clone()?;
        let my_seq = my_path.seq;
        if !entries.iter().any(|(p, _)| *p == my_path) {
            // Our znode vanished (session expired behind our back):
            // restart the campaign with a fresh epoch.
            self.start(ctx);
            return None;
        }
        let (lowest_path, lowest_owner) = entries.first().cloned()?;
        if lowest_path == my_path {
            let was = self.state;
            self.state = ElectorState::Leader;
            if let Some(sp) = self.campaign_span.take() {
                ctx.span_label(sp, "outcome", "leader");
                ctx.span_close(sp);
            }
            return (was != ElectorState::Leader).then_some(ElectorEvent::BecameLeader);
        }
        let zk = self.zk;
        if self.seeded_bug == Some(SeededBug::WatchLeaderAssumeOnFire) {
            // BUG (deliberate, test-only): thundering-herd watch on the
            // leader's znode only — every follower fires at once when
            // the leader dies.
            ctx.send(
                zk,
                ProtocolMsg::Request(ZkRequest::WatchDelete {
                    path: lowest_path.clone(),
                }),
            );
        } else {
            // Watch the entry immediately preceding ours (failover
            // chain), and also the leader's znode so stale leadership
            // knowledge is refreshed promptly even when the leader is
            // not our predecessor.
            let predecessor = entries
                .iter()
                .filter(|(p, _)| p.seq < my_seq)
                .max_by_key(|(p, _)| p.seq)
                .map(|(p, _)| p.clone())
                .expect("non-lowest contender has a predecessor");
            if predecessor != lowest_path {
                ctx.send(
                    zk,
                    ProtocolMsg::Request(ZkRequest::WatchDelete {
                        path: lowest_path.clone(),
                    }),
                );
            }
            ctx.send(
                zk,
                ProtocolMsg::Request(ZkRequest::WatchDelete { path: predecessor }),
            );
        }
        let was = self.state;
        self.state = ElectorState::Follower {
            leader: lowest_owner,
        };
        if let Some(sp) = self.campaign_span.take() {
            ctx.span_label(sp, "outcome", "follower");
            ctx.span_close(sp);
        }
        (was != self.state).then_some(ElectorEvent::FollowingLeader(lowest_owner))
    }
}

impl McState for ElectorState {
    fn mc_fold(&self, h: &mut McHasher) {
        match *self {
            ElectorState::Idle => h.word(1),
            ElectorState::Campaigning => h.word(2),
            ElectorState::Leader => h.word(3),
            ElectorState::Follower { leader } => {
                h.word(4);
                h.id(leader);
            }
        }
    }
}

impl McState for Elector {
    fn mc_fold(&self, h: &mut McHasher) {
        h.id(self.zk);
        h.text(&self.prefix);
        h.span(self.ping_period);
        h.word(self.epoch);
        match &self.my_path {
            Some(p) => {
                h.word(1);
                p.mc_fold(h);
            }
            None => h.word(0),
        }
        self.state.mc_fold(h);
        h.flag(self.seeded_bug.is_some());
        // campaign_span is observability only — skipped.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordination::CoordinationService;

    /// Minimal host component wrapping an elector.
    struct Contender {
        elector: Elector,
        events: Vec<ElectorEvent>,
    }

    impl Contender {
        fn new(zk: ComponentId) -> Self {
            Contender {
                elector: Elector::new(zk, "gl-election", SimSpan::from_secs(2)),
                events: Vec::new(),
            }
        }
    }

    impl Component for Contender {
        type Msg = ProtocolMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>) {
            self.elector.start(ctx);
        }
        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_, ProtocolMsg>,
            _src: ComponentId,
            msg: ProtocolMsg,
        ) {
            match msg {
                ProtocolMsg::Reply(reply) => {
                    if let Some(ev) = self.elector.handle_reply(ctx, &reply) {
                        self.events.push(ev);
                    }
                }
                ProtocolMsg::Request(_) => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>, tag: u64) {
            if tag == ELECTION_PING_TAG {
                self.elector.tick(ctx);
            }
        }
        fn on_restart(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>) {
            self.elector.start(ctx);
        }
    }

    node_enum! {
        enum ElectNode: ProtocolMsg {
            Zk(CoordinationService<ProtocolMsg>) as as_zk,
            Contender(Contender) as as_contender,
        }
    }

    fn setup(n: usize) -> (Engine<ElectNode>, ComponentId, Vec<ComponentId>) {
        let mut sim: Engine<ElectNode> = SimBuilder::new(11).network(NetworkConfig::lan()).build();
        let zk = sim.add_component("zk", CoordinationService::new(SimSpan::from_secs(6)));
        let contenders: Vec<ComponentId> = (0..n)
            .map(|i| sim.add_component(format!("gm{i}"), Contender::new(zk)))
            .collect();
        (sim, zk, contenders)
    }

    fn contender(sim: &Engine<ElectNode>, id: ComponentId) -> &Contender {
        sim.component(id).as_contender().unwrap()
    }

    fn leaders(sim: &Engine<ElectNode>, cs: &[ComponentId]) -> Vec<ComponentId> {
        cs.iter()
            .copied()
            .filter(|&c| sim.is_alive(c) && contender(sim, c).elector.is_leader())
            .collect()
    }

    /// All alive contenders must agree on `leader`.
    fn assert_agreement(sim: &Engine<ElectNode>, cs: &[ComponentId], leader: ComponentId) {
        for &c in cs.iter().filter(|&&c| sim.is_alive(c)) {
            let believed = match contender(sim, c).elector.state() {
                ElectorState::Leader => Some(c),
                ElectorState::Follower { leader } => Some(leader),
                _ => None,
            };
            assert_eq!(believed, Some(leader), "{c:?} disagrees on leadership");
        }
    }

    #[test]
    fn exactly_one_leader_emerges() {
        let (mut sim, _zk, cs) = setup(5);
        sim.run_until(SimTime::from_secs(5));
        let ls = leaders(&sim, &cs);
        assert_eq!(ls.len(), 1, "expected exactly one leader, got {ls:?}");
        assert_agreement(&sim, &cs, ls[0]);
    }

    #[test]
    fn leader_failure_triggers_failover() {
        let (mut sim, _zk, cs) = setup(4);
        sim.run_until(SimTime::from_secs(5));
        let first = leaders(&sim, &cs)[0];
        // Kill the leader; its session expires after 6 s; the contender
        // watching its znode must take over.
        sim.schedule_crash(SimTime::from_secs(10), first);
        sim.run_until(SimTime::from_secs(30));
        let ls = leaders(&sim, &cs);
        assert_eq!(ls.len(), 1, "got {ls:?}");
        assert_ne!(ls[0], first, "dead leader cannot lead");
        assert_agreement(&sim, &cs, ls[0]);
    }

    #[test]
    fn cascaded_failures_still_converge() {
        let (mut sim, _zk, cs) = setup(4);
        sim.run_until(SimTime::from_secs(5));
        let l1 = leaders(&sim, &cs)[0];
        sim.schedule_crash(SimTime::from_secs(10), l1);
        sim.run_until(SimTime::from_secs(30));
        let l2 = leaders(&sim, &cs)[0];
        assert_ne!(l2, l1);
        sim.schedule_crash(SimTime::from_secs(31), l2);
        sim.run_until(SimTime::from_secs(60));
        let ls = leaders(&sim, &cs);
        assert_eq!(ls.len(), 1, "got {ls:?}");
        assert!(ls[0] != l1 && ls[0] != l2);
        assert_agreement(&sim, &cs, ls[0]);
    }

    #[test]
    fn restarted_old_leader_rejoins_as_follower() {
        let (mut sim, _zk, cs) = setup(3);
        sim.run_until(SimTime::from_secs(5));
        let first = leaders(&sim, &cs)[0];
        sim.schedule_crash(SimTime::from_secs(10), first);
        sim.schedule_restart(SimTime::from_secs(30), first);
        sim.run_until(SimTime::from_secs(60));
        let ls = leaders(&sim, &cs);
        assert_eq!(ls.len(), 1, "got {ls:?}");
        assert_ne!(ls[0], first, "old leader must not usurp");
        let el = &contender(&sim, first).elector;
        assert_eq!(el.state(), ElectorState::Follower { leader: ls[0] });
    }

    #[test]
    fn follower_death_does_not_change_leader() {
        let (mut sim, _zk, cs) = setup(4);
        sim.run_until(SimTime::from_secs(5));
        let leader = leaders(&sim, &cs)[0];
        let victim = *cs.iter().find(|&&c| c != leader).unwrap();
        sim.schedule_crash(SimTime::from_secs(10), victim);
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(leaders(&sim, &cs), vec![leader]);
        assert_agreement(&sim, &cs, leader);
    }

    #[test]
    fn single_contender_leads_alone() {
        let (mut sim, _zk, cs) = setup(1);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(leaders(&sim, &cs), vec![cs[0]]);
        let events = &contender(&sim, cs[0]).events;
        assert_eq!(events, &[ElectorEvent::BecameLeader]);
    }

    #[test]
    fn partitioned_leader_is_deposed_and_rejoins_as_follower() {
        let (mut sim, _zk, cs) = setup(3);
        sim.run_until(SimTime::from_secs(5));
        let old = leaders(&sim, &cs)[0];
        // Cut the leader off from everything (including the coordination
        // service): its session expires, a new leader is elected.
        sim.schedule_net_fault(sim.now(), NetFault::Isolate(old));
        sim.run_until(SimTime::from_secs(30));
        let interim = leaders(&sim, &cs);
        assert_eq!(
            interim.len(),
            2,
            "both believe they lead during the partition"
        );
        // Heal: the old leader's next ping gets SessionExpired and it
        // must recampaign and follow.
        sim.schedule_net_fault(sim.now(), NetFault::Reconnect(old));
        sim.run_until(SimTime::from_secs(60));
        let ls = leaders(&sim, &cs);
        assert_eq!(ls.len(), 1, "split brain must resolve: {ls:?}");
        assert_ne!(ls[0], old);
        let el = &contender(&sim, old).elector;
        assert_eq!(el.state(), ElectorState::Follower { leader: ls[0] });
    }

    #[test]
    fn became_leader_event_fires_exactly_once_per_term() {
        let (mut sim, _zk, cs) = setup(2);
        sim.run_until(SimTime::from_secs(5));
        let first = leaders(&sim, &cs)[0];
        let survivor = *cs.iter().find(|&&c| c != first).unwrap();
        sim.schedule_crash(SimTime::from_secs(10), first);
        sim.run_until(SimTime::from_secs(30));
        let evs = &contender(&sim, survivor).events;
        let leads = evs
            .iter()
            .filter(|e| **e == ElectorEvent::BecameLeader)
            .count();
        assert_eq!(leads, 1, "events: {evs:?}");
        assert!(matches!(evs[0], ElectorEvent::FollowingLeader(_)));
    }
}
