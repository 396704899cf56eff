//! Model-checking hooks: state snapshots, canonical fingerprints, and
//! the enabled-event surface an exhaustive explorer drives.
//!
//! The `snooze-mc` crate explores the protocol state space by snapshotting
//! the engine ([`Engine::mc_snapshot`](crate::engine::Engine::mc_snapshot)),
//! executing one pending event chosen *out of queue order*
//! ([`Engine::mc_execute_pending`](crate::engine::Engine::mc_execute_pending)),
//! and restoring to try the siblings. Everything here is ordinary
//! single-threaded engine machinery — no `unsafe`, no global state — so the
//! same engine binary runs simulations and model checks. The `mc_*` hooks
//! on [`Engine`] are implemented at the bottom of this module.
//!
//! ## What a transition costs
//!
//! One transition runs one handler, and a handler reaches its own slot
//! and the core ([`Ctx`](crate::engine::Ctx)) and no other slot. The
//! hooks charge a transition for that slot, not for the system:
//!
//! * a snapshot holds an `Rc` per slot, and a child
//!   ([`Engine::mc_snapshot_after`](crate::engine::Engine::mc_snapshot_after))
//!   shares its parent's `Rc` in every slot but the touched one;
//! * a restore between snapshots
//!   ([`Engine::mc_restore_diff`](crate::engine::Engine::mc_restore_diff))
//!   re-clones the slots whose `Rc` differs, plus the one slot an action
//!   dirtied since; only a restore from an engine that equals no
//!   snapshot (after a fair suffix) re-clones them all;
//! * the span log is copy-on-write (`Arc`), so capturing or restoring it
//!   copies a pointer and only a span written afterwards copies the log;
//! * the fingerprint is built from one sub-fingerprint per slot, and a
//!   state one transition from a snapshot reuses the snapshot's for every
//!   untouched slot while the clock has not moved
//!   ([`Engine::mc_fingerprint_after`](crate::engine::Engine::mc_fingerprint_after));
//! * executing or dropping a pending event takes it out of the queue in
//!   place instead of draining and re-pushing the rest.
//!
//! ## Fingerprints
//!
//! Visited-state deduplication hashes a *canonical* view of the system:
//! per-component state (via [`McState`]), liveness/incarnation vectors,
//! the pending-event multiset, and the network's mutable state, all folded
//! a machine word at a time by [`McHasher`]: one 64×64→128-bit multiply
//! per word, where the audit digest keeps its byte-serial FNV-1a (DESIGN.md,
//! "What a fingerprint word costs"). Each component is folded
//! into its own sub-fingerprint by a fresh [`McHasher`]; the fingerprint
//! folds `(index, alive, incarnation, sub-fingerprint)` per slot, then the
//! pending set, then the network. Absolute virtual time is
//! deliberately excluded — times are folded **relative to now** — so states
//! that differ only by a clock shift deduplicate. Two states with equal
//! fingerprints are treated as equal, which is an abstraction: payload
//! folds are written to cover every behavior-relevant field, but state
//! reached first wins, so exploration is exhaustive *up to* fingerprint
//! equality. The RNG position and the `seq` / timer-id counters are
//! outside the fingerprint (checked harnesses draw nothing, and identity
//! counters decide no behavior). The explorer leans on this contract
//! twice: for its visited set, and for the verdict memo that lets a
//! liveness probe stop at a state whose fair suffix an earlier probe
//! already ran.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use snooze_telemetry::span::{SpanId, SpanLog};
use snooze_telemetry::FNV_OFFSET;

use crate::engine::{Component, ComponentId, Engine, EngineCore, EventKind, NetFault, Scheduled};
use crate::network::NetworkState;
use crate::rng::SimRng;
use crate::time::{SimSpan, SimTime};

/// Canonical word folder handed to [`McState::mc_fold`] implementations.
///
/// Carries the current virtual time so implementations fold timestamps
/// *relative* to now ([`McHasher::time`]) — the key to deduplicating
/// states that differ only by when they happened.
pub struct McHasher {
    hash: u64,
    now: SimTime,
}

impl McHasher {
    /// A fresh hasher anchored at virtual time `now`.
    pub fn new(now: SimTime) -> Self {
        McHasher {
            hash: FNV_OFFSET,
            now,
        }
    }

    /// Fold one machine word: one 64×64→128-bit multiply by the golden
    /// ratio constant `K`, whose two halves are xored back into 64 bits.
    ///
    /// The word is offset by `K` first. Without that the
    /// fold maps 0 to 0, so a word equal to the running hash (the seed,
    /// for a first word) zeroes it and every 0 folded after that is
    /// absorbed: `[seed]`, `[seed, 0]` and `[seed, 0, 0]` would collide.
    /// With it, the word a zero hash absorbs is `-K`, not the commonest
    /// word the protocols fold. The offset depends on the word alone, so
    /// it stays off the chain of dependent multiplies.
    #[inline]
    pub fn word(&mut self, w: u64) {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let m = u128::from(self.hash ^ w.wrapping_add(K)) * u128::from(K);
        self.hash = (m as u64) ^ ((m >> 64) as u64);
    }

    /// Fold a boolean.
    pub fn flag(&mut self, b: bool) {
        self.word(b as u64);
    }

    /// Fold a float by bit pattern.
    pub fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    /// Fold a string: its length, then 8 bytes a word, the last chunk
    /// zero-padded. The length keeps `"ab"` apart from `"ab\0"` and
    /// concatenations from colliding.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    /// Fold a component id (`EXTERNAL` keeps its sentinel value).
    pub fn id(&mut self, id: ComponentId) {
        self.word(id.0 as u64);
    }

    /// Fold an optional component id.
    pub fn opt_id(&mut self, id: Option<ComponentId>) {
        match id {
            Some(id) => {
                self.word(1);
                self.id(id);
            }
            None => self.word(0),
        }
    }

    /// Fold a timestamp **relative to the current virtual time**, so a
    /// whole-system time shift does not change the fingerprint.
    pub fn time(&mut self, t: SimTime) {
        let delta = t.0 as i64 - self.now.0 as i64;
        self.word(delta as u64);
    }

    /// Fold a duration (durations are shift-invariant already).
    pub fn span(&mut self, s: SimSpan) {
        self.word(s.0);
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// Canonical state capture for model checking.
///
/// Implemented by every component (and message payload) a checked system
/// contains. Implementations fold every field that influences *future
/// behavior*; observational state (spans, statistics counters) may be
/// skipped, and timestamps should be folded with [`McHasher::time`] so
/// they compare shift-invariantly.
pub trait McState {
    /// Fold this value's behavior-relevant state into `h`.
    fn mc_fold(&self, h: &mut McHasher);
}

impl<T: McState> McState for Option<T> {
    fn mc_fold(&self, h: &mut McHasher) {
        match self {
            Some(v) => {
                h.word(1);
                v.mc_fold(h);
            }
            None => h.word(0),
        }
    }
}

/// Plain-word payloads (toy protocols, tests) fold as themselves.
impl McState for u64 {
    fn mc_fold(&self, h: &mut McHasher) {
        h.word(*self);
    }
}

/// One engine state: clock, counters, pending events, network, RNG, span
/// log and every component. Produced by
/// [`Engine::mc_snapshot`](crate::engine::Engine::mc_snapshot) (a full
/// copy) or [`Engine::mc_snapshot_after`](crate::engine::Engine::mc_snapshot_after)
/// (a child that shares its parent's slots), consumed by
/// [`Engine::mc_restore`](crate::engine::Engine::mc_restore) and
/// [`Engine::mc_restore_diff`](crate::engine::Engine::mc_restore_diff).
/// Opaque outside the crate — the explorer treats snapshots as tokens.
pub struct SystemState<C: Component> {
    pub(crate) now: SimTime,
    pub(crate) seq: u64,
    /// Pending events, in the queue's iteration order (restore re-pushes
    /// them; pop order depends only on `(time, seq)`).
    pub(crate) queue: Vec<Scheduled<C::Msg>>,
    pub(crate) rng: SimRng,
    pub(crate) next_timer_id: u64,
    pub(crate) cancelled_timers: BTreeSet<u64>,
    pub(crate) network: NetworkState,
    pub(crate) spans: Arc<SpanLog>,
    pub(crate) ctx_span: Option<SpanId>,
    pub(crate) alive: Vec<bool>,
    pub(crate) incarnation: Vec<u32>,
    pub(crate) events_executed: u64,
    pub(crate) digest: u64,
    pub(crate) last_executed: Option<(SimTime, u64)>,
    /// One per slot. Two snapshots holding the same `Rc` in a slot hold
    /// the same component state there; different `Rc`s may or may not.
    pub(crate) components: Vec<Rc<C>>,
    /// Each slot's sub-fingerprint at `now` (see
    /// [`Engine::mc_fingerprint`](crate::engine::Engine::mc_fingerprint)).
    pub(crate) slot_fps: Vec<u64>,
}

impl<C: Component> SystemState<C> {
    /// Virtual time at capture.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

/// What kind of event a pending queue entry is — the action surface the
/// explorer enumerates, stripped of payloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum McEventDesc {
    /// A component's `on_start`.
    Start {
        /// The starting component.
        dst: ComponentId,
    },
    /// A message in flight.
    Deliver {
        /// Sender.
        src: ComponentId,
        /// Receiver.
        dst: ComponentId,
    },
    /// A live (non-stale) timer.
    Timer {
        /// The component the timer fires on.
        dst: ComponentId,
        /// The caller-chosen timer tag.
        tag: u64,
    },
    /// A scheduled crash (from a pre-exploration fault plan).
    Crash {
        /// The crash target.
        dst: ComponentId,
    },
    /// A scheduled restart.
    Restart {
        /// The restart target.
        dst: ComponentId,
    },
    /// A scheduled network-health change.
    Net,
}

impl McEventDesc {
    /// Stable discriminant + endpoint words, for fingerprinting and trace
    /// serialization.
    pub fn words(&self) -> (u64, u64, u64) {
        match *self {
            McEventDesc::Start { dst } => (1, dst.0 as u64, 0),
            McEventDesc::Deliver { src, dst } => (2, src.0 as u64, dst.0 as u64),
            McEventDesc::Timer { dst, tag } => (3, dst.0 as u64, tag),
            McEventDesc::Crash { dst } => (4, dst.0 as u64, 0),
            McEventDesc::Restart { dst } => (5, dst.0 as u64, 0),
            McEventDesc::Net => (6, 0, 0),
        }
    }

    /// The one component whose slot executing this event can change
    /// (`None` for a network-health change, which touches the core only).
    pub fn target(&self) -> Option<ComponentId> {
        match *self {
            McEventDesc::Start { dst }
            | McEventDesc::Deliver { dst, .. }
            | McEventDesc::Timer { dst, .. }
            | McEventDesc::Crash { dst }
            | McEventDesc::Restart { dst } => Some(dst),
            McEventDesc::Net => None,
        }
    }
}

/// One pending (enabled or enablable) event, as reported by
/// [`Engine::mc_pending`](crate::engine::Engine::mc_pending). Stale
/// timers — cancelled, or belonging to a dead or superseded incarnation —
/// are never reported.
#[derive(Clone, Copy, Debug)]
pub struct McPending {
    /// Queue identity; pass to `mc_execute_pending` / `mc_drop_pending`.
    pub seq: u64,
    /// The time the event would fire at under normal execution. The
    /// checker executes it at `max(now, time)` instead.
    pub time: SimTime,
    /// Whether the destination component is currently alive (`true` for
    /// events without a destination).
    pub dst_alive: bool,
    /// What the event is.
    pub desc: McEventDesc,
}

/// The timer id of `ev` if it is a timer that normal execution would
/// discard unfired.
fn stale_timer<M>(core: &EngineCore<M>, ev: &Scheduled<M>) -> Option<u64> {
    match &ev.kind {
        EventKind::Timer {
            dst,
            incarnation,
            id,
            ..
        } if core.timer_is_stale(*dst, *incarnation, *id) => Some(*id),
        _ => None,
    }
}

impl<C> Engine<C>
where
    C: Component + Clone + McState,
    C::Msg: Clone,
{
    /// Capture a full copy of the engine state: clock, counters, pending
    /// events, network, RNG stream, span log and every component. Metrics
    /// are *not* captured — they are observers, never causes, and
    /// restoring them would only blur exploration statistics.
    pub fn mc_snapshot(&self) -> SystemState<C> {
        let components = self.components.iter().cloned().map(Rc::new).collect();
        let slot_fps = (0..self.components.len())
            .map(|i| self.slot_fingerprint(i))
            .collect();
        self.snapshot_with(components, slot_fps)
    }

    /// Capture the engine as a child of `parent`, for an engine that
    /// equals `parent` in every slot but `touched` — it was restored to
    /// `parent` and has since executed one event (or injected one crash /
    /// restart) whose [`McEventDesc::target`] is `touched`. The child
    /// shares `parent`'s `Rc` in every other slot, and its sub-fingerprints
    /// too while the clock has not moved. Sound because a handler runs
    /// with its own slot and a [`Ctx`](crate::engine::Ctx) over the core
    /// and can reach no other slot.
    pub fn mc_snapshot_after(
        &self,
        parent: &SystemState<C>,
        touched: Option<ComponentId>,
    ) -> SystemState<C> {
        let touched = self.slot_of(touched);
        let mut components = parent.components.clone();
        let mut slot_fps = parent.slot_fps.clone();
        if let Some(i) = touched {
            components[i] = Rc::new(self.components[i].clone());
        }
        for (i, fp) in slot_fps.iter_mut().enumerate() {
            if Some(i) == touched || parent.now != self.core.now {
                *fp = self.slot_fingerprint(i);
            }
        }
        self.snapshot_with(components, slot_fps)
    }

    fn snapshot_with(&self, components: Vec<Rc<C>>, slot_fps: Vec<u64>) -> SystemState<C> {
        SystemState {
            now: self.core.now,
            seq: self.core.seq,
            queue: self.core.queue.iter().cloned().collect(),
            rng: self.core.rng.clone(),
            next_timer_id: self.core.next_timer_id,
            cancelled_timers: self.core.cancelled_timers.clone(),
            network: self.core.network.save_state(),
            spans: Arc::clone(&self.core.spans),
            ctx_span: self.core.ctx_span,
            alive: self.core.alive.clone(),
            incarnation: self.core.incarnation.clone(),
            events_executed: self.core.events_executed,
            digest: self.core.digest,
            last_executed: self.core.last_executed,
            components,
            slot_fps,
        }
    }
}

impl<C: Component> Engine<C>
where
    C: Clone,
    C::Msg: Clone,
{
    /// Restore a state captured by [`Engine::mc_snapshot`] or
    /// [`Engine::mc_snapshot_after`], re-cloning every slot. The snapshot
    /// must come from *this* engine (same components, same names); the
    /// checker only ever restores its own captures.
    pub fn mc_restore(&mut self, state: &SystemState<C>) {
        self.restore_core(state);
        for (mine, theirs) in self.components.iter_mut().zip(&state.components) {
            mine.clone_from(theirs);
        }
    }

    /// [`Engine::mc_restore`] for an engine that equals snapshot `current`
    /// in every slot but `dirty` — it was restored to or captured as
    /// `current`, and at most one event (or crash / restart) whose
    /// [`McEventDesc::target`] is `dirty` has run since. The core is
    /// restored in full; of the components, only the `dirty` slot and the
    /// slots whose `Rc` differs between `current` and `target` are
    /// re-cloned. After anything else ran (a second event, a fair suffix)
    /// the engine equals no snapshot and needs the full `mc_restore`.
    pub fn mc_restore_diff(
        &mut self,
        current: &SystemState<C>,
        dirty: Option<ComponentId>,
        target: &SystemState<C>,
    ) {
        self.restore_core(target);
        let dirty = self.slot_of(dirty);
        let slots = current.components.iter().zip(&target.components);
        for (i, (was, want)) in slots.enumerate() {
            if Some(i) == dirty || !Rc::ptr_eq(was, want) {
                self.components[i].clone_from(want);
            }
        }
    }

    fn restore_core(&mut self, state: &SystemState<C>) {
        assert_eq!(
            state.components.len(),
            self.components.len(),
            "snapshot from a different system shape"
        );
        self.core.now = state.now;
        self.core.seq = state.seq;
        self.core.queue.clear();
        for ev in &state.queue {
            self.core.queue.push(ev.clone());
        }
        self.core.rng = state.rng.clone();
        self.core.next_timer_id = state.next_timer_id;
        self.core
            .cancelled_timers
            .clone_from(&state.cancelled_timers);
        self.core.network.load_state(&state.network);
        self.core.spans = Arc::clone(&state.spans);
        self.core.ctx_span = state.ctx_span;
        self.core.alive.clone_from(&state.alive);
        self.core.incarnation.clone_from(&state.incarnation);
        self.core.events_executed = state.events_executed;
        self.core.digest = state.digest;
        self.core.last_executed = state.last_executed;
    }
}

impl<C: Component> Engine<C> {
    /// Every pending event a checker could execute next, sorted by
    /// `(time, seq)`. Stale timers (cancelled, or set by a dead or
    /// superseded incarnation) are omitted — they would be silently
    /// discarded by normal execution too.
    pub fn mc_pending(&self) -> Vec<McPending> {
        let mut out: Vec<McPending> = Vec::new();
        for ev in self.core.queue.iter() {
            let desc = match &ev.kind {
                EventKind::Start(dst) => McEventDesc::Start { dst: *dst },
                EventKind::Deliver { src, dst, .. } => McEventDesc::Deliver {
                    src: *src,
                    dst: *dst,
                },
                EventKind::Timer {
                    dst,
                    tag,
                    incarnation,
                    id,
                    ..
                } => {
                    if self.core.timer_is_stale(*dst, *incarnation, *id) {
                        continue;
                    }
                    McEventDesc::Timer {
                        dst: *dst,
                        tag: *tag,
                    }
                }
                EventKind::Crash(dst) => McEventDesc::Crash { dst: *dst },
                EventKind::Restart(dst) => McEventDesc::Restart { dst: *dst },
                EventKind::Net(_) => McEventDesc::Net,
            };
            let dst_alive = match desc {
                McEventDesc::Start { dst }
                | McEventDesc::Deliver { dst, .. }
                | McEventDesc::Timer { dst, .. } => self.is_alive(dst),
                _ => true,
            };
            out.push(McPending {
                seq: ev.seq,
                time: ev.time,
                dst_alive,
                desc,
            });
        }
        out.sort_by_key(|p| (p.time, p.seq));
        out
    }

    /// Execute `kind` at `time` under a fresh sequence number, so the
    /// executed stream stays strictly `(time, seq)`-ordered.
    fn mc_execute_at(&mut self, time: SimTime, kind: EventKind<C::Msg>) {
        let seq = self.core.next_seq();
        self.execute(Scheduled { time, seq, kind });
    }

    /// Execute pending event `p` *now*, regardless of queue order: the
    /// event is re-timed to `max(now, its scheduled time)` and re-sequenced
    /// so the executed stream stays strictly `(time, seq)`-ordered — the
    /// engine's debug assertions hold during exploration exactly as during
    /// normal runs. Returns `false` if no such pending event exists.
    pub fn mc_execute_pending(&mut self, p: &McPending) -> bool {
        let Some(ev) = self.core.queue.remove(p.time, p.seq) else {
            return false;
        };
        self.mc_execute_at(ev.time.max(self.core.now), ev.kind);
        true
    }

    /// Drop pending event `p` without executing it — the checker's
    /// explicit message-loss action. Returns `false` if no such pending
    /// event exists.
    pub fn mc_drop_pending(&mut self, p: &McPending) -> bool {
        if self.core.queue.remove(p.time, p.seq).is_none() {
            return false;
        }
        self.core.metrics.incr("mc.dropped");
        true
    }

    /// Crash `id` immediately (a checker-chosen crash point). No-op if
    /// already dead or unknown.
    pub fn mc_inject_crash(&mut self, id: ComponentId) {
        self.mc_execute_at(self.core.now, EventKind::Crash(id));
    }

    /// Restart `id` immediately. No-op if alive or unknown.
    pub fn mc_inject_restart(&mut self, id: ComponentId) {
        self.mc_execute_at(self.core.now, EventKind::Restart(id));
    }

    /// Purge stale timers from the queue (and their ids from the
    /// cancelled set). Keeps snapshots small and fingerprints free of
    /// events that can never fire.
    pub fn mc_gc(&mut self) {
        let core = &self.core;
        let stale: Vec<(SimTime, u64, u64)> = core
            .queue
            .iter()
            .filter_map(|ev| stale_timer(core, ev).map(|id| (ev.time, ev.seq, id)))
            .collect();
        for (time, seq, id) in stale {
            self.core.queue.remove(time, seq);
            self.core.cancelled_timers.remove(&id);
        }
    }

    /// The slot `id` names, if something is registered under it.
    fn slot_of(&self, id: Option<ComponentId>) -> Option<usize> {
        id.map(|id| id.0).filter(|&i| i < self.components.len())
    }

    /// Hand the queue back to normal scheduled execution after checker
    /// perturbation: any event whose scheduled time fell behind the clock
    /// (a message the checker left "in flight" while executing later
    /// events) is re-timed to *now*, preserving relative `(time, seq)`
    /// order via fresh sequence numbers. Without this, [`Engine::step`]'s
    /// monotonic-clock assertion would trip on the stale entries. The
    /// total-order baseline restarts here too: an event due at now may sit
    /// below one the checker ran out of queue order under a fresh sequence
    /// number, and from the hand-back on the queue's own order is the
    /// order (renumbering the due events instead would drain the queue at
    /// almost every liveness probe).
    pub fn mc_release(&mut self) {
        self.core.last_executed = None;
        let now = self.core.now;
        if self.core.queue.iter().all(|ev| ev.time >= now) {
            return;
        }
        let mut events = self.core.queue.drain_all(); // sorted by (time, seq)
        for ev in events.iter_mut() {
            if ev.time < now {
                ev.time = now;
                ev.seq = self.core.next_seq();
            }
        }
        events.into_iter().for_each(|ev| self.core.queue.push(ev));
    }
}

impl<C: Component + McState> Engine<C> {
    /// Slot `i`'s sub-fingerprint: its component folded alone by a fresh
    /// [`McHasher`] at the current time.
    fn slot_fingerprint(&self, i: usize) -> u64 {
        let mut h = McHasher::new(self.core.now);
        self.components[i].mc_fold(&mut h);
        h.finish()
    }
}

impl<C> Engine<C>
where
    C: Component + McState,
    C::Msg: McState,
{
    /// Canonical fingerprint of the current state, for visited-state
    /// deduplication: per-component state, liveness, the pending-event
    /// multiset (stale timers excluded, times relative to now), and the
    /// network's mutable state. Excludes observers (metrics, spans),
    /// history (digest, executed count) and identity counters
    /// (seq, timer ids) — none of which influence future behavior.
    ///
    /// Each component folds into its own sub-fingerprint (a fresh
    /// [`McHasher`] at now); the fingerprint folds `(index, alive,
    /// incarnation, sub-fingerprint)` per slot, then the pending set and
    /// the network. So a state one transition from a snapshot can reuse
    /// the snapshot's sub-fingerprints ([`Engine::mc_fingerprint_after`]).
    pub fn mc_fingerprint(&self) -> u64 {
        self.fold_fingerprint(|i| self.slot_fingerprint(i))
    }

    /// [`Engine::mc_fingerprint`] for an engine that equals `parent` in
    /// every slot but `touched` (the contract of
    /// [`Engine::mc_snapshot_after`]): while the clock has not moved
    /// since `parent`, every other slot's sub-fingerprint is `parent`'s.
    pub fn mc_fingerprint_after(
        &self,
        parent: &SystemState<C>,
        touched: Option<ComponentId>,
    ) -> u64 {
        if parent.now != self.core.now {
            return self.mc_fingerprint();
        }
        let touched = self.slot_of(touched);
        self.fold_fingerprint(|i| {
            if Some(i) == touched {
                self.slot_fingerprint(i)
            } else {
                parent.slot_fps[i]
            }
        })
    }

    fn fold_fingerprint(&self, slot_fp: impl Fn(usize) -> u64) -> u64 {
        let mut h = McHasher::new(self.core.now);
        for idx in 0..self.components.len() {
            h.word(idx as u64);
            h.flag(self.core.alive[idx]);
            h.word(self.core.incarnation[idx] as u64);
            h.word(slot_fp(idx));
        }
        let mut pending: Vec<&Scheduled<C::Msg>> = self
            .core
            .queue
            .iter()
            .filter(|ev| stale_timer(&self.core, ev).is_none())
            .collect();
        pending.sort_unstable();
        for ev in pending {
            h.time(ev.time);
            match &ev.kind {
                EventKind::Start(dst) => {
                    h.word(1);
                    h.id(*dst);
                }
                EventKind::Deliver { src, dst, msg, .. } => {
                    h.word(2);
                    h.id(*src);
                    h.id(*dst);
                    msg.mc_fold(&mut h);
                }
                EventKind::Timer { dst, tag, .. } => {
                    h.word(3);
                    h.id(*dst);
                    h.word(*tag);
                }
                EventKind::Crash(dst) => {
                    h.word(4);
                    h.id(*dst);
                }
                EventKind::Restart(dst) => {
                    h.word(5);
                    h.id(*dst);
                }
                EventKind::Net(fault) => {
                    h.word(6);
                    match fault {
                        NetFault::Isolate(id) => {
                            h.word(0);
                            h.id(*id);
                        }
                        NetFault::Reconnect(id) => {
                            h.word(1);
                            h.id(*id);
                        }
                        NetFault::SetLossPpm(ppm) => {
                            h.word(2);
                            h.word(*ppm as u64);
                        }
                    }
                }
            }
        }
        self.core.network.fold_state(|w| h.word(w));
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fold(words: &[u64]) -> u64 {
        let mut h = McHasher::new(SimTime::ZERO);
        words.iter().for_each(|&w| h.word(w));
        h.finish()
    }

    fn fold_text(s: &str) -> u64 {
        let mut h = McHasher::new(SimTime::ZERO);
        h.text(s);
        h.finish()
    }

    fn assert_all_distinct(folds: &[u64]) {
        for (i, a) in folds.iter().enumerate() {
            for b in &folds[i + 1..] {
                assert_ne!(a, b, "{folds:x?}");
            }
        }
    }

    #[test]
    fn word_fold_is_order_sensitive() {
        for (a, b) in [(0, 1), (1, 2), (0, u64::MAX), (7, 1 << 32), (FNV_OFFSET, 0)] {
            assert_ne!(fold(&[a, b]), fold(&[b, a]), "{a:#x}, {b:#x}");
        }
        assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[1, 3, 2]));
    }

    #[test]
    fn a_word_equal_to_the_seed_absorbs_no_zeros() {
        assert_all_distinct(&[
            fold(&[]),
            fold(&[FNV_OFFSET]),
            fold(&[FNV_OFFSET, 0]),
            fold(&[FNV_OFFSET, 0, 0]),
            fold(&[FNV_OFFSET, 0, 1]),
            fold(&[FNV_OFFSET, 1]),
            fold(&[0]),
            fold(&[0, 0]),
        ]);
    }

    #[test]
    fn text_separates_lengths_around_a_word() {
        // Zero bytes only, so no byte tells the lengths apart: the length
        // word and the chunk count must.
        assert_all_distinct(&[0, 7, 8, 9, 16].map(|n| fold_text(&"\0".repeat(n))));
        assert_ne!(fold_text("ab"), fold_text("ab\0"));
        assert_ne!(fold_text("abcdefgh"), fold_text("abcdefgh\0"));
    }

    #[test]
    fn time_is_folded_relative_to_now() {
        let at = |now: u64, times: &[u64]| {
            let mut h = McHasher::new(SimTime(now));
            times.iter().for_each(|&t| h.time(SimTime(t)));
            h.finish()
        };
        // Behind, at and ahead of now, shifted by a second.
        let (base, shifted) = (5_000_000, 6_000_000);
        let offsets = [-3_000_000i64, 0, 250_000];
        let times = |now: u64| offsets.map(|d| (now as i64 + d) as u64);
        assert_eq!(at(base, &times(base)), at(shifted, &times(shifted)));
        assert_ne!(at(base, &times(base)), at(shifted, &times(base)));
    }

    /// Small integers, zero again (the word the plain multiply fold
    /// absorbs), a word with only its upper half set, all ones and the
    /// hasher's own seed: the shapes the protocols fold, and the ones a
    /// weak fold confuses.
    fn structured_word() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..=255,
            Just(0u64),
            Just(1u64 << 32),
            Just(u64::MAX),
            Just(FNV_OFFSET),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// 64 sequences of up to three words a case: no two different
        /// ones fold to the same value.
        #[test]
        fn distinct_short_sequences_fold_apart(
            seqs in prop::collection::vec(prop::collection::vec(structured_word(), 0..=3), 64),
        ) {
            let mut seen = std::collections::BTreeMap::new();
            for seq in seqs {
                let fp = fold(&seq);
                let first = seen.entry(fp).or_insert_with(|| seq.clone());
                prop_assert_eq!(&*first, &seq, "fold {:#x}", fp);
            }
        }
    }
}
