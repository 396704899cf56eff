//! A ZooKeeper stand-in: sessions, ephemeral sequential znodes, watches.
//!
//! Snooze only asks two things of ZooKeeper: (1) create ephemeral
//! sequential znodes under an election prefix, and (2) watch a znode for
//! deletion so the next contender notices its predecessor dying. This
//! module reproduces exactly those semantics as a simulated component:
//!
//! * Each client (identified by its `ComponentId` and a client-chosen
//!   **session epoch**) holds a session kept alive by pings. A session
//!   that misses pings for the timeout — or is superseded by a request
//!   with a higher epoch, as happens when a process restarts — expires,
//!   its ephemeral znodes are deleted, and watches on them fire.
//! * Znodes live under flat string prefixes and carry a monotonically
//!   increasing sequence number per prefix (like ZK's `-%010d` suffix).
//! * Watches are one-shot deletion watches, as in ZooKeeper.
//!
//! The service itself is crash-able like any component; Snooze assumes a
//! *reliable* coordination service (real ZK is replicated), so experiments
//! crash GLs and GMs, not the coordination service — but nothing prevents
//! injecting that, too.
//!
//! ## The protocol message set
//!
//! [`ProtocolMsg`] is the closed wire vocabulary of this crate —
//! requests in, replies out. Systems embedding the coordination service
//! in a larger message enum implement [`ProtocolCarrier`] for that enum
//! (wrap via `From`, unwrap via [`ProtocolCarrier::into_protocol`]), and
//! instantiate [`CoordinationService`] over it; the service itself never
//! sees the host's other message kinds.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use snooze_simcore::prelude::*;

/// Path of a znode: `prefix` plus per-prefix sequence number.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ZnodePath {
    /// The flat prefix (e.g. `"election"`).
    pub prefix: String,
    /// Sequence number within the prefix.
    pub seq: u64,
}

/// Requests a client sends to the [`CoordinationService`].
#[derive(Clone, Debug)]
pub enum ZkRequest {
    /// Create an ephemeral sequential znode under `prefix`. The session is
    /// `(sender, epoch)`; a higher epoch supersedes (and expires) any
    /// older session of the same sender.
    CreateEphemeralSequential {
        /// Znode prefix.
        prefix: String,
        /// Client session epoch (bump on process restart).
        epoch: u64,
    },
    /// List the children of `prefix`, sorted by sequence number.
    GetChildren {
        /// Znode prefix.
        prefix: String,
    },
    /// Set a one-shot watch that fires when `path` is deleted. Fires
    /// immediately if the path does not exist.
    WatchDelete {
        /// Path to watch.
        path: ZnodePath,
    },
    /// Keep the sender's session alive.
    Ping {
        /// Client session epoch.
        epoch: u64,
    },
    /// Close the sender's session explicitly, deleting its znodes.
    CloseSession {
        /// Client session epoch.
        epoch: u64,
    },
}

/// Replies and notifications from the [`CoordinationService`].
#[derive(Clone, Debug, PartialEq)]
pub enum ZkReply {
    /// A znode was created for the sender.
    Created {
        /// The new znode's path.
        path: ZnodePath,
    },
    /// Children listing: `(path, owner)` sorted by sequence number.
    Children {
        /// The prefix listed.
        prefix: String,
        /// Sorted `(path, owning component)` pairs.
        entries: Vec<(ZnodePath, ComponentId)>,
    },
    /// A watched znode was deleted (or did not exist at watch time).
    WatchFired {
        /// The deleted path.
        path: ZnodePath,
    },
    /// The sender pinged a session that no longer exists (it expired
    /// while the client was partitioned away, or was superseded). The
    /// client must treat all its ephemeral state as gone — exactly what
    /// ZooKeeper's `SESSION_EXPIRED` event means.
    SessionExpired {
        /// The epoch the stale ping carried.
        epoch: u64,
    },
}

/// The closed message set of the protocols crate: every wire message a
/// coordination-service conversation can carry.
#[derive(Clone, Debug)]
pub enum ProtocolMsg {
    /// A client → service request.
    Request(ZkRequest),
    /// A service → client reply or notification.
    Reply(ZkReply),
}

impl From<ZkRequest> for ProtocolMsg {
    fn from(req: ZkRequest) -> Self {
        ProtocolMsg::Request(req)
    }
}

impl From<ZkReply> for ProtocolMsg {
    fn from(reply: ZkReply) -> Self {
        ProtocolMsg::Reply(reply)
    }
}

/// A host message enum that can carry [`ProtocolMsg`]s.
///
/// Implemented by any workspace message hierarchy embedding this crate's
/// protocols (e.g. `snooze`'s `SnoozeMsg`, which holds a
/// `Protocol(ProtocolMsg)` variant): wrap with the required `From`,
/// unwrap with [`ProtocolCarrier::into_protocol`]. [`ProtocolMsg`]
/// itself is the trivial carrier, for systems that speak nothing else.
pub trait ProtocolCarrier: From<ProtocolMsg> {
    /// Extract the protocol message, or `None` if this message belongs
    /// to some other subsystem of the host enum.
    fn into_protocol(self) -> Option<ProtocolMsg>;
}

impl ProtocolCarrier for ProtocolMsg {
    fn into_protocol(self) -> Option<ProtocolMsg> {
        Some(self)
    }
}

#[derive(Clone, Debug)]
struct Session {
    epoch: u64,
    last_heard: SimTime,
}

#[derive(Clone, Debug)]
struct Znode {
    path: ZnodePath,
    owner: ComponentId,
}

const TICK: u64 = 1;

/// The coordination service component, generic over the host message
/// enum `M` it is deployed into.
pub struct CoordinationService<M> {
    session_timeout: SimSpan,
    sessions: BTreeMap<ComponentId, Session>,
    znodes: Vec<Znode>,
    next_seq: BTreeMap<String, u64>,
    watches: Vec<(ZnodePath, ComponentId)>,
    /// Total sessions ever expired (for tests/metrics).
    pub sessions_expired: u64,
    _msg: PhantomData<M>,
}

// Manual impl: `PhantomData<M>` is `Clone` for any `M`, but the derive
// would demand `M: Clone` anyway.
impl<M> Clone for CoordinationService<M> {
    fn clone(&self) -> Self {
        CoordinationService {
            session_timeout: self.session_timeout,
            sessions: self.sessions.clone(),
            znodes: self.znodes.clone(),
            next_seq: self.next_seq.clone(),
            watches: self.watches.clone(),
            sessions_expired: self.sessions_expired,
            _msg: PhantomData,
        }
    }
}

impl<M: ProtocolCarrier> CoordinationService<M> {
    /// A service expiring sessions after `session_timeout` without pings.
    pub fn new(session_timeout: SimSpan) -> Self {
        CoordinationService {
            session_timeout,
            sessions: BTreeMap::new(),
            znodes: Vec::new(),
            next_seq: BTreeMap::new(),
            watches: Vec::new(),
            sessions_expired: 0,
            _msg: PhantomData,
        }
    }

    /// The epoch of `client`'s live session, if the service currently
    /// holds one. Model-checking invariants use this to count *live*
    /// leaders: a contender that still believes it leads but whose
    /// session has expired is deposed-in-flight, not a safety violation.
    pub fn session_epoch(&self, client: ComponentId) -> Option<u64> {
        self.sessions.get(&client).map(|s| s.epoch)
    }

    fn touch(&mut self, ctx: &mut Ctx<'_, M>, client: ComponentId, epoch: u64) {
        match self.sessions.get(&client) {
            Some(s) if s.epoch > epoch => {
                // Stale incarnation — ignore (its znodes are already gone).
            }
            Some(s) if s.epoch == epoch => {
                self.sessions.insert(
                    client,
                    Session {
                        epoch,
                        last_heard: ctx.now(),
                    },
                );
            }
            _ => {
                // New session or superseding epoch: kill the old one first.
                if self.sessions.contains_key(&client) {
                    self.expire_session(ctx, client);
                }
                self.sessions.insert(
                    client,
                    Session {
                        epoch,
                        last_heard: ctx.now(),
                    },
                );
            }
        }
    }

    fn expire_session(&mut self, ctx: &mut Ctx<'_, M>, client: ComponentId) {
        self.sessions.remove(&client);
        self.sessions_expired += 1;
        let mut deleted = Vec::new();
        self.znodes.retain(|z| {
            if z.owner == client {
                deleted.push(z.path.clone());
                false
            } else {
                true
            }
        });
        for path in deleted {
            self.fire_watches(ctx, &path);
        }
    }

    fn fire_watches(&mut self, ctx: &mut Ctx<'_, M>, path: &ZnodePath) {
        let mut fired = Vec::new();
        self.watches.retain(|(p, watcher)| {
            if p == path {
                fired.push(*watcher);
                false
            } else {
                true
            }
        });
        for watcher in fired {
            ctx.send(
                watcher,
                ProtocolMsg::Reply(ZkReply::WatchFired { path: path.clone() }),
            );
        }
    }
}

impl McState for ZnodePath {
    fn mc_fold(&self, h: &mut McHasher) {
        h.text(&self.prefix);
        h.word(self.seq);
    }
}

impl McState for ZkRequest {
    fn mc_fold(&self, h: &mut McHasher) {
        match self {
            ZkRequest::CreateEphemeralSequential { prefix, epoch } => {
                h.word(1);
                h.text(prefix);
                h.word(*epoch);
            }
            ZkRequest::GetChildren { prefix } => {
                h.word(2);
                h.text(prefix);
            }
            ZkRequest::WatchDelete { path } => {
                h.word(3);
                path.mc_fold(h);
            }
            ZkRequest::Ping { epoch } => {
                h.word(4);
                h.word(*epoch);
            }
            ZkRequest::CloseSession { epoch } => {
                h.word(5);
                h.word(*epoch);
            }
        }
    }
}

impl McState for ZkReply {
    fn mc_fold(&self, h: &mut McHasher) {
        match self {
            ZkReply::Created { path } => {
                h.word(1);
                path.mc_fold(h);
            }
            ZkReply::Children { prefix, entries } => {
                h.word(2);
                h.text(prefix);
                h.word(entries.len() as u64);
                for (p, owner) in entries {
                    p.mc_fold(h);
                    h.id(*owner);
                }
            }
            ZkReply::WatchFired { path } => {
                h.word(3);
                path.mc_fold(h);
            }
            ZkReply::SessionExpired { epoch } => {
                h.word(4);
                h.word(*epoch);
            }
        }
    }
}

impl McState for ProtocolMsg {
    fn mc_fold(&self, h: &mut McHasher) {
        match self {
            ProtocolMsg::Request(r) => {
                h.word(1);
                r.mc_fold(h);
            }
            ProtocolMsg::Reply(r) => {
                h.word(2);
                r.mc_fold(h);
            }
        }
    }
}

impl<M> McState for CoordinationService<M> {
    fn mc_fold(&self, h: &mut McHasher) {
        h.span(self.session_timeout);
        h.word(self.sessions.len() as u64);
        for (client, s) in &self.sessions {
            h.id(*client);
            h.word(s.epoch);
            h.time(s.last_heard);
        }
        h.word(self.znodes.len() as u64);
        for z in &self.znodes {
            z.path.mc_fold(h);
            h.id(z.owner);
        }
        h.word(self.next_seq.len() as u64);
        for (prefix, seq) in &self.next_seq {
            h.text(prefix);
            h.word(*seq);
        }
        h.word(self.watches.len() as u64);
        for (path, watcher) in &self.watches {
            path.mc_fold(h);
            h.id(*watcher);
        }
        // sessions_expired is an observational counter — skipped.
    }
}

impl<M: ProtocolCarrier> Component for CoordinationService<M> {
    type Msg = M;

    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        ctx.set_timer(self.session_timeout / 2, TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, src: ComponentId, msg: M) {
        // Replies addressed to the service (can't happen in practice) and
        // non-protocol host messages fall through silently.
        let Some(ProtocolMsg::Request(req)) = msg.into_protocol() else {
            return;
        };
        match req {
            ZkRequest::CreateEphemeralSequential { prefix, epoch } => {
                self.touch(ctx, src, epoch);
                if self.sessions.get(&src).map(|s| s.epoch) != Some(epoch) {
                    return; // request from a superseded incarnation
                }
                // Idempotent per session+prefix (ZooKeeper's "protected
                // create" pattern): a client retrying a Create whose reply
                // was lost gets its existing znode back instead of a
                // duplicate.
                if let Some(existing) = self
                    .znodes
                    .iter()
                    .find(|z| z.owner == src && z.path.prefix == prefix)
                {
                    let path = existing.path.clone();
                    ctx.send(src, ProtocolMsg::Reply(ZkReply::Created { path }));
                    return;
                }
                let seq = self.next_seq.entry(prefix.clone()).or_insert(0);
                let path = ZnodePath { prefix, seq: *seq };
                *seq += 1;
                self.znodes.push(Znode {
                    path: path.clone(),
                    owner: src,
                });
                ctx.send(src, ProtocolMsg::Reply(ZkReply::Created { path }));
            }
            ZkRequest::GetChildren { prefix } => {
                let mut entries: Vec<(ZnodePath, ComponentId)> = self
                    .znodes
                    .iter()
                    .filter(|z| z.path.prefix == prefix)
                    .map(|z| (z.path.clone(), z.owner))
                    .collect();
                entries.sort_by_key(|(p, _)| p.seq);
                ctx.send(
                    src,
                    ProtocolMsg::Reply(ZkReply::Children { prefix, entries }),
                );
            }
            ZkRequest::WatchDelete { path } => {
                if self.znodes.iter().any(|z| z.path == path) {
                    // One-shot watches, deduplicated per (path, watcher).
                    if !self.watches.contains(&(path.clone(), src)) {
                        self.watches.push((path, src));
                    }
                } else {
                    // ZK semantics: watching a missing node is an error;
                    // for the election recipe, an immediate fire is the
                    // useful equivalent (the predecessor is already gone).
                    ctx.send(src, ProtocolMsg::Reply(ZkReply::WatchFired { path }));
                }
            }
            ZkRequest::Ping { epoch } => {
                // A ping only *refreshes* a session — it never creates
                // one. Pinging a session the service no longer holds gets
                // the expiry notification (the client was partitioned
                // away past the timeout and must re-establish).
                match self.sessions.get(&src) {
                    Some(s) if s.epoch == epoch => self.touch(ctx, src, epoch),
                    Some(s) if s.epoch > epoch => {} // stale incarnation
                    _ => ctx.send(src, ProtocolMsg::Reply(ZkReply::SessionExpired { epoch })),
                }
            }
            ZkRequest::CloseSession { epoch } => {
                if self.sessions.get(&src).is_some_and(|s| s.epoch == epoch) {
                    self.expire_session(ctx, src);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, _tag: u64) {
        let now = ctx.now();
        let timeout = self.session_timeout;
        // BTreeMap iteration is key-ordered, so expiry order is stable.
        let expired: Vec<ComponentId> = self
            .sessions
            .iter()
            .filter(|(_, s)| now.since(s.last_heard) > timeout)
            .map(|(c, _)| *c)
            .collect();
        for client in expired {
            self.expire_session(ctx, client);
        }
        ctx.set_timer(self.session_timeout / 2, TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scripted coordination client used to exercise the service.
    struct Client {
        zk: ComponentId,
        script: Vec<ZkRequest>,
        replies: Vec<ZkReply>,
        ping_period: Option<SimSpan>,
        epoch: u64,
    }

    impl Client {
        fn new(zk: ComponentId, script: Vec<ZkRequest>) -> Self {
            Client {
                zk,
                script,
                replies: Vec::new(),
                ping_period: None,
                epoch: 0,
            }
        }
    }

    impl Component for Client {
        type Msg = ProtocolMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>) {
            for req in self.script.drain(..) {
                let zk = self.zk;
                ctx.send(zk, req);
            }
            if let Some(p) = self.ping_period {
                ctx.set_timer(p, 0);
            }
        }
        fn on_message(
            &mut self,
            _ctx: &mut Ctx<'_, ProtocolMsg>,
            _src: ComponentId,
            msg: ProtocolMsg,
        ) {
            match msg {
                ProtocolMsg::Reply(reply) => self.replies.push(reply),
                ProtocolMsg::Request(_) => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>, _tag: u64) {
            let zk = self.zk;
            let epoch = self.epoch;
            ctx.send(zk, ZkRequest::Ping { epoch });
            if let Some(p) = self.ping_period {
                ctx.set_timer(p, 0);
            }
        }
    }

    node_enum! {
        enum CoordNode: ProtocolMsg {
            Zk(CoordinationService<ProtocolMsg>) as as_zk,
            Client(Client) as as_client,
        }
    }

    fn setup() -> (Engine<CoordNode>, ComponentId) {
        let mut sim: Engine<CoordNode> = SimBuilder::new(7).network(NetworkConfig::lan()).build();
        let zk = sim.add_component("zk", CoordinationService::new(SimSpan::from_secs(6)));
        (sim, zk)
    }

    fn client(sim: &Engine<CoordNode>, id: ComponentId) -> &Client {
        sim.component(id).as_client().unwrap()
    }

    fn service(sim: &Engine<CoordNode>, id: ComponentId) -> &CoordinationService<ProtocolMsg> {
        sim.component(id).as_zk().unwrap()
    }

    fn path(prefix: &str, seq: u64) -> ZnodePath {
        ZnodePath {
            prefix: prefix.into(),
            seq,
        }
    }

    #[test]
    fn sequential_znodes_are_per_prefix_and_protected() {
        let (mut sim, zk) = setup();
        let a = sim.add_component(
            "a",
            Client::new(
                zk,
                vec![
                    ZkRequest::CreateEphemeralSequential {
                        prefix: "e".into(),
                        epoch: 0,
                    },
                    // Retried create (e.g. lost reply): protected-create
                    // semantics return the same znode, not a duplicate.
                    ZkRequest::CreateEphemeralSequential {
                        prefix: "e".into(),
                        epoch: 0,
                    },
                    ZkRequest::CreateEphemeralSequential {
                        prefix: "other".into(),
                        epoch: 0,
                    },
                ],
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        let c = client(&sim, a);
        let created: Vec<&ZnodePath> = c
            .replies
            .iter()
            .filter_map(|r| match r {
                ZkReply::Created { path } => Some(path),
                _ => None,
            })
            .collect();
        assert_eq!(created.len(), 3);
        assert_eq!(*created[0], path("e", 0));
        assert_eq!(*created[1], path("e", 0), "retry is idempotent");
        assert_eq!(*created[2], path("other", 0), "sequences are per-prefix");
        assert_eq!(service(&sim, zk).znodes.len(), 2);
    }

    #[test]
    fn distinct_sessions_get_increasing_seqs() {
        let (mut sim, zk) = setup();
        let _a = sim.add_component(
            "a",
            Client::new(
                zk,
                vec![ZkRequest::CreateEphemeralSequential {
                    prefix: "e".into(),
                    epoch: 0,
                }],
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        let b = sim.add_component(
            "b",
            Client::new(
                zk,
                vec![ZkRequest::CreateEphemeralSequential {
                    prefix: "e".into(),
                    epoch: 0,
                }],
            ),
        );
        sim.run_until(SimTime::from_secs(2));
        let cb = client(&sim, b);
        assert_eq!(cb.replies, vec![ZkReply::Created { path: path("e", 1) }]);
    }

    #[test]
    fn get_children_lists_sorted_entries_with_owners() {
        let (mut sim, zk) = setup();
        let a = sim.add_component(
            "a",
            Client::new(
                zk,
                vec![ZkRequest::CreateEphemeralSequential {
                    prefix: "e".into(),
                    epoch: 0,
                }],
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        let b = sim.add_component(
            "b",
            Client::new(
                zk,
                vec![
                    ZkRequest::CreateEphemeralSequential {
                        prefix: "e".into(),
                        epoch: 0,
                    },
                    ZkRequest::GetChildren { prefix: "e".into() },
                ],
            ),
        );
        sim.run_until(SimTime::from_secs(2));
        let cb = client(&sim, b);
        let children = cb
            .replies
            .iter()
            .find_map(|r| match r {
                ZkReply::Children { entries, .. } => Some(entries.clone()),
                _ => None,
            })
            .expect("children reply");
        assert_eq!(children.len(), 2);
        assert_eq!(children[0], (path("e", 0), a));
        assert_eq!(children[1], (path("e", 1), b));
    }

    #[test]
    fn session_expiry_deletes_ephemerals_and_fires_watches() {
        let (mut sim, zk) = setup();
        // Owner creates a znode but never pings.
        let _owner = sim.add_component(
            "owner",
            Client::new(
                zk,
                vec![ZkRequest::CreateEphemeralSequential {
                    prefix: "e".into(),
                    epoch: 0,
                }],
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        // Watcher pings to stay alive and watches the owner's node.
        let mut w = Client::new(zk, vec![ZkRequest::WatchDelete { path: path("e", 0) }]);
        w.ping_period = Some(SimSpan::from_secs(2));
        let watcher = sim.add_component("watcher", w);
        // Session timeout is 6 s; run past it.
        sim.run_until(SimTime::from_secs(20));
        let cw = client(&sim, watcher);
        assert!(
            cw.replies
                .contains(&ZkReply::WatchFired { path: path("e", 0) }),
            "watch must fire on expiry: {:?}",
            cw.replies
        );
        let svc = service(&sim, zk);
        assert!(svc.sessions_expired >= 1);
        assert_eq!(svc.znodes.len(), 0);
    }

    #[test]
    fn pings_keep_sessions_alive() {
        let (mut sim, zk) = setup();
        let mut c = Client::new(
            zk,
            vec![ZkRequest::CreateEphemeralSequential {
                prefix: "e".into(),
                epoch: 0,
            }],
        );
        c.ping_period = Some(SimSpan::from_secs(2));
        let _id = sim.add_component("c", c);
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(
            service(&sim, zk).znodes.len(),
            1,
            "pinged session must survive"
        );
    }

    #[test]
    fn watch_on_missing_node_fires_immediately() {
        let (mut sim, zk) = setup();
        let w = sim.add_component(
            "w",
            Client::new(
                zk,
                vec![ZkRequest::WatchDelete {
                    path: path("nope", 9),
                }],
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        let cw = client(&sim, w);
        assert_eq!(
            cw.replies,
            vec![ZkReply::WatchFired {
                path: path("nope", 9)
            }]
        );
    }

    #[test]
    fn higher_epoch_supersedes_old_session() {
        let (mut sim, zk) = setup();
        let a = sim.add_component(
            "a",
            Client::new(
                zk,
                vec![
                    ZkRequest::CreateEphemeralSequential {
                        prefix: "e".into(),
                        epoch: 0,
                    },
                    // Restarted process: new epoch. The old znode must die.
                    ZkRequest::CreateEphemeralSequential {
                        prefix: "e".into(),
                        epoch: 1,
                    },
                    ZkRequest::GetChildren { prefix: "e".into() },
                ],
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        let c = client(&sim, a);
        let children = c
            .replies
            .iter()
            .find_map(|r| match r {
                ZkReply::Children { entries, .. } => Some(entries.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(
            children.len(),
            1,
            "old epoch's znode must be gone: {children:?}"
        );
        assert_eq!(children[0].0, path("e", 1));
    }

    #[test]
    fn close_session_is_explicit_expiry() {
        let (mut sim, zk) = setup();
        let _a = sim.add_component(
            "a",
            Client::new(
                zk,
                vec![
                    ZkRequest::CreateEphemeralSequential {
                        prefix: "e".into(),
                        epoch: 0,
                    },
                    ZkRequest::CloseSession { epoch: 0 },
                ],
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(service(&sim, zk).znodes.len(), 0);
    }

    #[test]
    fn stale_epoch_requests_are_ignored() {
        let (mut sim, zk) = setup();
        let _a = sim.add_component(
            "a",
            Client::new(
                zk,
                vec![
                    ZkRequest::CreateEphemeralSequential {
                        prefix: "e".into(),
                        epoch: 5,
                    },
                    // A stale close from the old incarnation must not kill
                    // the new session.
                    ZkRequest::CloseSession { epoch: 3 },
                ],
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(service(&sim, zk).znodes.len(), 1);
    }
}
