//! The discrete-event engine.
//!
//! User logic lives in [`Component`]s. Each component is addressed by a
//! [`ComponentId`] and reacts to three stimuli: a start signal, messages
//! from other components (routed through the simulated [`crate::network`]),
//! and timers it set on itself. All interaction with the simulation happens
//! through the [`Ctx`] handle passed into every callback — components never
//! hold references to one another, which is what makes crash injection and
//! deterministic replay trivial.
//!
//! The engine is *generic over its message type*: a [`Component`] declares
//! the closed message set it speaks as [`Component::Msg`] (typically an
//! enum), the engine is [`Engine<C>`] over one component type `C`, and a
//! heterogeneous system wraps its node kinds in a dispatch enum — see
//! [`node_enum!`](crate::node_enum). Messages travel by value, handlers
//! match exhaustively, and the compiler checks every arm: no `Box`, no
//! `Any`, no runtime casts on the deliver path.
//!
//! Events are executed in `(time, sequence)` order; the sequence number
//! breaks ties in scheduling order, so the engine is fully deterministic.
//!
//! There is one engine: one queue (`equeue.rs`), one RNG stream, one
//! thread. A sharded, multi-worker executor and a second, heap-backed
//! queue existed and were deleted because neither beat this path on the
//! hardware the suite runs on — DESIGN.md, "Why there is one engine" and
//! "Why there is one queue", keeps the measurements.
//!
//! What the engine itself does per message is kept to a pop, a digest
//! fold and a push: a handler runs on its component's slot in place (the
//! components and everything a [`Ctx`] can reach are disjoint fields), the
//! engine's own `net.*` counters are bumped through handles taken once at
//! build instead of by name, the FIFO clamp reads the sender's own row
//! (`network.rs`), and the digest folds each word's high zero bytes in one
//! multiply. A queued event is `(time, seq)`, two endpoints, the message
//! and a span context — 48 bytes around the message — and is copied by
//! every push, bucket sort and pop, so the message type should be small:
//! a deployment's enum boxes its rare fat variants (`snooze::messages`).
//! DESIGN.md, "What one message costs" and "What an event weighs", has
//! the ledgers.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use snooze_telemetry::label::label;
use snooze_telemetry::span::{LabelValue, SpanId, SpanLog};

use crate::equeue::EventQueue;
use crate::metrics::{CounterHandle, MetricsRegistry};
use crate::network::{Network, NetworkConfig};
use crate::rng::SimRng;
use crate::time::{SimSpan, SimTime};

/// Identifies a registered component. Ids are dense indices assigned in
/// registration order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub usize);

impl ComponentId {
    /// Pseudo-sender for messages injected from outside the simulation
    /// (e.g. a test driver posting a client request).
    pub const EXTERNAL: ComponentId = ComponentId(usize::MAX);
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ComponentId::EXTERNAL {
            write!(f, "ext")
        } else {
            write!(f, "c{}", self.0)
        }
    }
}

impl From<ComponentId> for u64 {
    fn from(id: ComponentId) -> u64 {
        id.0 as u64
    }
}

/// A span label holding a component id renders as its `Debug` text.
impl From<ComponentId> for LabelValue {
    fn from(id: ComponentId) -> LabelValue {
        if id == ComponentId::EXTERNAL {
            LabelValue::EXTERNAL
        } else {
            LabelValue::Component(id.0 as u64)
        }
    }
}

/// Identifies a multicast group on the simulated network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub usize);

/// Handle for cancelling a pending timer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerHandle(u64);

/// A simulated process speaking a closed, typed message set.
///
/// [`Component::Msg`] is the message type this component sends and
/// receives — usually a workspace enum (one variant per wire message),
/// so `on_message` is an exhaustive `match` the compiler checks.
pub trait Component {
    /// The message type this component exchanges over the simulated
    /// network. Every component registered in one [`Engine`] shares it.
    type Msg;

    /// Called once when the simulation starts (or never, if the component
    /// is registered after `run` began — use messages to bootstrap those).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// A message arrived from `src` over the simulated network.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, src: ComponentId, msg: Self::Msg);

    /// A timer set via [`Ctx::set_timer`] fired. `tag` is the caller-chosen
    /// discriminator.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _tag: u64) {}

    /// The failure injector crashed this component. State is *not* cleared
    /// automatically — a crashed process keeps its memory so tests can
    /// inspect it — but no events will be delivered until restart.
    fn on_crash(&mut self, _now: SimTime) {}

    /// The failure injector restarted this component. Implementations
    /// should reset volatile state here, as a freshly exec'd process would.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}
}

/// A scheduled change to the simulated network's health. Installed via
/// [`Engine::schedule_net_fault`], it fires in event order like any
/// other event, so fault schedules are part of the audited,
/// digest-covered history.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetFault {
    /// Cut a component off from the network entirely.
    Isolate(ComponentId),
    /// Reconnect a previously isolated component.
    Reconnect(ComponentId),
    /// Degrade every link: set the message-loss probability, in parts
    /// per million (integer, so fault schedules stay `Eq`/hashable).
    SetLossPpm(u32),
}

#[derive(Clone)]
pub(crate) enum EventKind<M> {
    Start(ComponentId),
    Deliver {
        src: ComponentId,
        dst: ComponentId,
        msg: M,
        /// Causal span context riding along with the message — the
        /// simulated analogue of trace-context propagation headers.
        span: Option<SpanId>,
    },
    Timer {
        dst: ComponentId,
        tag: u64,
        incarnation: u32,
        id: u64,
        /// Span context carried across the timer (explicitly opted into
        /// via [`Ctx::set_timer_in`]; plain timers never inherit one, so
        /// periodic ticks don't capture unrelated submission contexts).
        span: Option<SpanId>,
    },
    Crash(ComponentId),
    Restart(ComponentId),
    Net(NetFault),
}

#[derive(Clone)]
pub(crate) struct Scheduled<M> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Everything the engine owns apart from the components themselves.
/// Split out so a component can be borrowed mutably while its [`Ctx`]
/// mutates the rest of the engine.
pub(crate) struct EngineCore<M> {
    pub(crate) now: SimTime,
    pub(crate) seq: u64,
    pub(crate) queue: EventQueue<M>,
    pub(crate) rng: SimRng,
    pub(crate) next_timer_id: u64,
    pub(crate) cancelled_timers: BTreeSet<u64>,
    pub(crate) network: Network,
    pub(crate) metrics: MetricsRegistry,
    /// Handles on the counters the engine bumps once per message, taken
    /// at build: `net.sent`, `net.delivered`, `net.dropped`, `net.to_dead`.
    net_sent: CounterHandle,
    net_delivered: CounterHandle,
    net_dropped: CounterHandle,
    net_to_dead: CounterHandle,
    /// Copy-on-write: a model-checker snapshot or restore copies the
    /// pointer, and the first span written after it copies the log.
    /// `Arc` rather than `Rc` so the engine stays `Send`.
    pub(crate) spans: Arc<SpanLog>,
    /// Ambient span context for the event being executed: seeded from
    /// the incoming message/timer context, updated by [`Ctx::span_open`]
    /// so later sends in the same handler propagate the innermost span.
    pub(crate) ctx_span: Option<SpanId>,
    pub(crate) alive: Vec<bool>,
    pub(crate) incarnation: Vec<u32>,
    pub(crate) names: Vec<String>,
    pub(crate) events_executed: u64,
    /// Running FNV-1a fingerprint of the executed event stream.
    pub(crate) digest: u64,
    /// `(time, seq)` of the last executed event — the audit's witness
    /// that the executed stream is strictly ordered.
    pub(crate) last_executed: Option<(SimTime, u64)>,
    /// Names payloads of `M` for the profiler, the flight recorder and
    /// the `dead_letters{msg}` breakdown. An observer: never folded
    /// into the digest, excluded from mc snapshots and fingerprints.
    pub(crate) classifier: Option<fn(&M) -> &'static str>,
    /// Per-(component kind, message variant) event attribution; `None`
    /// until enabled. Observer.
    pub(crate) profiler: Option<crate::flight::Profiler>,
    /// Bounded ring of recent executed events; `None` until enabled.
    /// Observer.
    pub(crate) flight: Option<crate::flight::FlightRecorder>,
}

impl<M> EngineCore<M> {
    /// Fold an executed event into the run digest. The digest covers the
    /// full executed stream — `(time, seq, kind, endpoints)` per event —
    /// so two runs agree on it iff they executed the same history.
    ///
    /// It is FNV-1a over the five words' 40 little-endian bytes, computed
    /// by [`fnv1a_word`](crate::trace::fnv1a_word): about 27 of those
    /// bytes are the words' high zero bytes, and a run of zero bytes is
    /// one multiply instead of one xor-multiply step each — the same
    /// value from a serial chain a third as long.
    fn fold_event(&mut self, ev: &Scheduled<M>) {
        let (disc, a, b): (u64, u64, u64) = match &ev.kind {
            EventKind::Start(id) => (1, id.0 as u64, 0),
            // Span contexts are observers, not causes: they are folded
            // into the SpanLog's own digest, never into the event digest,
            // so instrumentation cannot perturb the audited history.
            // Payloads are likewise never folded — the digest is message-
            // type-agnostic, which is what let the typed message layer
            // replace the old type-erased one digest-identically.
            EventKind::Deliver { src, dst, .. } => (2, src.0 as u64, dst.0 as u64),
            EventKind::Timer { dst, tag, .. } => (3, dst.0 as u64, *tag),
            EventKind::Crash(id) => (4, id.0 as u64, 0),
            EventKind::Restart(id) => (5, id.0 as u64, 0),
            EventKind::Net(NetFault::Isolate(id)) => (6, id.0 as u64, 0),
            EventKind::Net(NetFault::Reconnect(id)) => (6, id.0 as u64, 1),
            EventKind::Net(NetFault::SetLossPpm(ppm)) => (6, *ppm as u64, 2),
        };
        let mut h = self.digest;
        for word in [ev.time.0, ev.seq, disc, a, b] {
            h = crate::trace::fnv1a_word(h, word);
        }
        self.digest = h;
    }

    /// The next sequence number — every scheduled or injected event draws
    /// exactly one, in scheduling order.
    pub(crate) fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind<M>) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let time = at.max(self.now);
        let seq = self.next_seq();
        self.queue.push(Scheduled { time, seq, kind });
    }

    fn send_via_network(
        &mut self,
        src: ComponentId,
        dst: ComponentId,
        msg: M,
        span: Option<SpanId>,
    ) {
        match self.network.transit(src, dst, self.now, &mut self.rng) {
            Some(arrival) => {
                self.schedule(
                    arrival,
                    EventKind::Deliver {
                        src,
                        dst,
                        msg,
                        span,
                    },
                );
            }
            None => self.metrics.bump(self.net_dropped),
        }
    }

    pub(crate) fn is_alive(&self, id: ComponentId) -> bool {
        self.alive.get(id.0).copied().unwrap_or(false)
    }

    /// Whether a pending timer would be discarded on execution: cancelled,
    /// or set by a dead or superseded incarnation.
    pub(crate) fn timer_is_stale(&self, dst: ComponentId, incarnation: u32, id: u64) -> bool {
        self.cancelled_timers.contains(&id)
            || self.incarnation.get(dst.0).copied() != Some(incarnation)
            || !self.is_alive(dst)
    }
}

/// The context handle passed to every component callback, parameterized
/// by the engine's message type `M`.
pub struct Ctx<'a, M> {
    core: &'a mut EngineCore<M>,
    me: ComponentId,
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Id of the component being invoked.
    pub fn id(&self) -> ComponentId {
        self.me
    }

    /// Send `msg` to `dst` over the simulated network (subject to latency,
    /// loss and isolation). Anything convertible into the engine's
    /// message type is accepted, so call sites pass concrete wire structs
    /// and the `From` impls on the message enum do the wrapping. The
    /// current span context (the incoming one, or the innermost span
    /// opened via [`Ctx::span_open`]) rides along, so causal chains
    /// survive uninstrumented hops.
    pub fn send(&mut self, dst: ComponentId, msg: impl Into<M>) {
        let span = self.core.ctx_span;
        self.send_with(dst, msg.into(), span);
    }

    /// Send `msg` carrying an explicit span context instead of the
    /// ambient one — for operations whose span outlives a single handler
    /// (a GM retrying a placement it recorded earlier, say).
    pub fn send_in(&mut self, span: SpanId, dst: ComponentId, msg: impl Into<M>) {
        self.send_with(dst, msg.into(), Some(span));
    }

    fn send_with(&mut self, dst: ComponentId, msg: M, span: Option<SpanId>) {
        self.core.metrics.bump(self.core.net_sent);
        self.core.send_via_network(self.me, dst, msg, span);
    }

    /// Multicast to every current member of `group` except the sender.
    /// `make` is invoked once per receiver, so payloads need not be
    /// `Clone`. The member list is read in place, one index at a time:
    /// `make` sees no `Ctx`, so nothing can change the group mid-loop.
    pub fn multicast<T: Into<M>, F: Fn() -> T>(&mut self, group: GroupId, make: F) {
        let mut next = 0;
        while let Some(&dst) = self.core.network.group_members(group).get(next) {
            next += 1;
            if dst != self.me {
                self.send(dst, make());
            }
        }
    }

    /// Join a multicast group.
    pub fn join_group(&mut self, group: GroupId) {
        self.core.network.join_group(group, self.me);
    }

    /// Leave a multicast group.
    pub fn leave_group(&mut self, group: GroupId) {
        self.core.network.leave_group(group, self.me);
    }

    /// Arrange for [`Component::on_timer`] to be called on this component
    /// after `delay`, carrying `tag`. Timers die with the incarnation that
    /// set them: if the component crashes, pending timers never fire.
    pub fn set_timer(&mut self, delay: SimSpan, tag: u64) -> TimerHandle {
        self.set_timer_impl(delay, tag, None)
    }

    /// Like [`Ctx::set_timer`], but the timer carries span context `span`:
    /// when it fires, the handler's ambient context is `span`, so a VM
    /// boot delay or migration transfer keeps its causal chain intact.
    pub fn set_timer_in(&mut self, span: SpanId, delay: SimSpan, tag: u64) -> TimerHandle {
        self.set_timer_impl(delay, tag, Some(span))
    }

    fn set_timer_impl(&mut self, delay: SimSpan, tag: u64, span: Option<SpanId>) -> TimerHandle {
        let id = self.core.next_timer_id;
        self.core.next_timer_id += 1;
        let at = self.core.now + delay;
        let incarnation = self.core.incarnation[self.me.0];
        self.core.schedule(
            at,
            EventKind::Timer {
                dst: self.me,
                tag,
                incarnation,
                id,
                span,
            },
        );
        TimerHandle(id)
    }

    /// Cancel a timer previously set with [`Ctx::set_timer`]. Cancelling an
    /// already-fired timer is a no-op.
    pub fn cancel_timer(&mut self, handle: TimerHandle) {
        self.core.cancelled_timers.insert(handle.0);
    }

    /// Whether `other` is currently alive (not crashed). Real processes
    /// cannot ask this of remote peers — only failure detectors built on
    /// heartbeats should use it for *remote* components; it is exposed
    /// mainly so a component can cheaply model local knowledge (e.g. a
    /// hypervisor knows its own host is up).
    pub fn is_alive(&self, other: ComponentId) -> bool {
        self.core.is_alive(other)
    }

    /// Record a metric counter increment.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.core.metrics
    }

    // --- causal spans ----------------------------------------------------

    /// Open a span named `name` as a child of the current context (or as
    /// a root if there is none). The new span becomes the ambient context
    /// for the rest of this handler, so subsequent [`Ctx::send`]s carry it.
    pub fn span_open(&mut self, name: &'static str) -> SpanId {
        let parent = self.core.ctx_span;
        self.span_open_under(name, parent)
    }

    /// Open a span with an explicit parent (`None` for a root), e.g. when
    /// resuming an operation whose context was stashed in component state.
    /// Like [`Ctx::span_open`], the new span becomes the ambient context.
    pub fn span_open_under(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let id = Arc::make_mut(&mut self.core.spans).open(
            name,
            self.me.0 as u64,
            parent,
            self.core.now.0,
        );
        self.core.ctx_span = Some(id);
        id
    }

    /// Close span `id` at the current virtual time. If it is the ambient
    /// context, the context pops back to its parent (spans behave as a
    /// stack within a handler). Double-close is a no-op.
    pub fn span_close(&mut self, id: SpanId) {
        if self.core.ctx_span == Some(id) {
            self.core.ctx_span = self.core.spans.parent_of(id);
        }
        Arc::make_mut(&mut self.core.spans).close(id, self.core.now.0);
    }

    /// Open and immediately close a zero-duration marker span (e.g.
    /// "became GL", "declared GM dead"). Ambient context is unchanged.
    pub fn span_instant(&mut self, name: &'static str) -> SpanId {
        let id = self.span_open(name);
        self.span_close(id);
        id
    }

    /// Annotate span `id` with a key/value label.
    pub fn span_label(&mut self, id: SpanId, key: &'static str, value: impl Into<LabelValue>) {
        Arc::make_mut(&mut self.core.spans).label(id, key, value);
    }
}

/// Builder for [`Engine`].
pub struct SimBuilder {
    seed: u64,
    network: NetworkConfig,
    max_events: u64,
}

impl SimBuilder {
    /// Start building a simulation seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SimBuilder {
            seed,
            network: NetworkConfig::default(),
            max_events: u64::MAX,
        }
    }

    /// Configure the simulated network.
    pub fn network(mut self, config: NetworkConfig) -> Self {
        self.network = config;
        self
    }

    /// Abort the run after this many events (runaway-loop guard).
    pub fn max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Finish building. The component type is chosen by the caller
    /// (usually via a type annotation on the binding):
    ///
    /// ```ignore
    /// let mut sim: Engine<SnoozeNode> = SimBuilder::new(7).build();
    /// ```
    pub fn build<C: Component>(self) -> Engine<C> {
        let mut metrics = MetricsRegistry::new();
        Engine {
            core: EngineCore {
                now: SimTime::ZERO,
                seq: 0,
                queue: EventQueue::new(),
                rng: SimRng::new(self.seed),
                next_timer_id: 0,
                cancelled_timers: BTreeSet::new(),
                network: Network::new(self.network),
                net_sent: metrics.counter_handle("net.sent"),
                net_delivered: metrics.counter_handle("net.delivered"),
                net_dropped: metrics.counter_handle("net.dropped"),
                net_to_dead: metrics.counter_handle("net.to_dead"),
                metrics,
                spans: Arc::new(SpanLog::new()),
                ctx_span: None,
                alive: Vec::new(),
                incarnation: Vec::new(),
                names: Vec::new(),
                events_executed: 0,
                digest: snooze_telemetry::FNV_OFFSET,
                last_executed: None,
                classifier: None,
                profiler: None,
                flight: None,
            },
            components: Vec::new(),
            max_events: self.max_events,
        }
    }
}

/// The simulation engine: owns all components (of one type `C`, usually
/// a dispatch enum built with [`node_enum!`](crate::node_enum)), the
/// event queue, the network, metrics and the span log.
pub struct Engine<C: Component> {
    pub(crate) core: EngineCore<C::Msg>,
    /// One slot per registered id, never vacated.
    pub(crate) components: Vec<C>,
    max_events: u64,
}

impl<C: Component> Engine<C> {
    /// Register a component; its `on_start` runs at time zero when the
    /// simulation starts (or immediately-ish if already running).
    /// Anything convertible into the engine's component type is accepted,
    /// so node-enum wrapping happens here rather than at every call site.
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        component: impl Into<C>,
    ) -> ComponentId {
        let id = ComponentId(self.components.len());
        self.components.push(component.into());
        self.core.alive.push(true);
        self.core.incarnation.push(0);
        self.core.names.push(name.into());
        self.core.schedule(self.core.now, EventKind::Start(id));
        id
    }

    /// Create a fresh multicast group.
    pub fn create_group(&mut self) -> GroupId {
        self.core.network.create_group()
    }

    /// Add a component to a multicast group from outside the simulation.
    pub fn join_group(&mut self, group: GroupId, id: ComponentId) {
        self.core.network.join_group(group, id);
    }

    /// Inject a message from outside the simulation, delivered to `dst` at
    /// absolute time `at` (no network latency is applied).
    // audit-allow(uncalled): how a test hands a bare component a message;
    // systems under a scenario are driven by their client component.
    pub fn post(&mut self, at: SimTime, dst: ComponentId, msg: impl Into<C::Msg>) {
        self.core.schedule(
            at,
            EventKind::Deliver {
                src: ComponentId::EXTERNAL,
                dst,
                msg: msg.into(),
                span: None,
            },
        );
    }

    /// Schedule a crash of `id` at time `at`.
    pub fn schedule_crash(&mut self, at: SimTime, id: ComponentId) {
        self.core.schedule(at, EventKind::Crash(id));
    }

    /// Schedule a restart of `id` at time `at`.
    pub fn schedule_restart(&mut self, at: SimTime, id: ComponentId) {
        self.core.schedule(at, EventKind::Restart(id));
    }

    /// Schedule a network-health change at time `at` — link degradation
    /// and component isolation as first-class, digest-covered events.
    pub fn schedule_net_fault(&mut self, at: SimTime, fault: NetFault) {
        self.core.schedule(at, EventKind::Net(fault));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.core.events_executed
    }

    /// FNV-1a fingerprint of the executed event stream: every executed
    /// event's `(time, seq, kind, endpoints)` in order. Two runs from the
    /// same seed must report identical digests; `snooze-audit
    /// determinism` and the replay proptests assert exactly that.
    pub fn digest(&self) -> u64 {
        self.core.digest
    }

    /// Whether `id` is currently alive.
    pub fn is_alive(&self, id: ComponentId) -> bool {
        self.core.is_alive(id)
    }

    /// The registered name of `id`.
    pub fn name_of(&self, id: ComponentId) -> &str {
        self.core.names.get(id.0).map(String::as_str).unwrap_or("?")
    }

    /// Metrics collected during the run.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.core.metrics
    }

    /// Messages that arrived for a crashed or never-registered component
    /// and were dropped — the sum of every `dead_letters{reason}` count.
    pub fn dead_letters(&self) -> u64 {
        self.core.metrics.counter_total("dead_letters")
    }

    /// The causal span log accumulated by instrumented components.
    pub fn spans(&self) -> &SpanLog {
        &self.core.spans
    }

    /// FNV-1a digest of the span log's mutation stream — the telemetry
    /// analogue of [`Engine::digest`]; same-seed runs must agree on it.
    pub fn span_digest(&self) -> u64 {
        self.core.spans.digest()
    }

    /// Mutable span log — for drivers recording engine-external spans
    /// (e.g. the scenario layer's SLO alert spans).
    pub fn spans_mut(&mut self) -> &mut SpanLog {
        Arc::make_mut(&mut self.core.spans)
    }

    /// Number of events currently pending in the queue. An observer
    /// reading (the queue is untouched); SLO watchdogs use it as the
    /// backlog signal.
    pub fn queue_depth(&self) -> usize {
        self.core.queue.len()
    }

    /// Install the message classifier: a plain `fn` mapping a payload
    /// to its `&'static str` variant name. Powers the profiler's
    /// per-variant attribution, the flight recorder's event labels and
    /// the `dead_letters{msg}` breakdown. Purely observational — the
    /// digest-covered history is identical with or without it.
    pub fn set_msg_classifier(&mut self, classify: fn(&C::Msg) -> &'static str) {
        self.core.classifier = Some(classify);
    }

    /// Turn on the sim-time profiler (idempotent). Costs a bucket probe
    /// per executed event and two advisory wall-clock reads per
    /// [`Profiler::WALL_SAMPLE`](crate::flight::Profiler::WALL_SAMPLE)
    /// events while on.
    pub fn enable_profiler(&mut self) {
        if self.core.profiler.is_none() {
            self.core.profiler = Some(crate::flight::Profiler::new());
        }
    }

    /// Turn on the flight recorder with a ring of `capacity` events
    /// (idempotent; the first call wins).
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        if self.core.flight.is_none() {
            self.core.flight = Some(crate::flight::FlightRecorder::new(capacity));
        }
    }

    /// The flight recorder, if enabled.
    pub fn flight_recorder(&self) -> Option<&crate::flight::FlightRecorder> {
        self.core.flight.as_ref()
    }

    /// The aggregated profile, hottest bucket first — empty when the
    /// profiler is off. Flushes the in-flight attribution first.
    pub fn profile_rows(&mut self) -> Vec<crate::flight::ProfileRow> {
        match self.core.profiler.as_mut() {
            Some(p) => {
                p.flush();
                p.rows()
            }
            None => Vec::new(),
        }
    }

    /// Folded-stack profile text (`kind;variant events` per line),
    /// flamegraph-compatible and byte-deterministic — empty when the
    /// profiler is off. It holds event counts only, so the wall-time
    /// sample in flight needs no flush.
    pub fn profile_folded(&self) -> String {
        self.core
            .profiler
            .as_ref()
            .map_or_else(String::new, |p| p.folded())
    }

    /// Current members of a multicast group, in the order they joined.
    pub fn group_members(&self, group: GroupId) -> &[ComponentId] {
        self.core.network.group_members(group)
    }

    /// Borrow a registered component for inspection, or `None` for an
    /// unknown id. (Node-enum engines usually chain this with the enum's
    /// generated `as_*` accessor.)
    pub fn get(&self, id: ComponentId) -> Option<&C> {
        self.components.get(id.0)
    }

    /// Borrow a registered component for inspection. Panics if the id is
    /// unknown.
    pub fn component(&self, id: ComponentId) -> &C {
        self.get(id).expect("unknown component id")
    }

    /// Execute a single event. Returns `false` when the queue is empty or
    /// `max_events` is reached.
    pub fn step(&mut self) -> bool {
        if self.core.events_executed >= self.max_events {
            return false;
        }
        let ev = match self.core.queue.pop() {
            Some(e) => e,
            None => return false,
        };
        debug_assert!(ev.time >= self.core.now);
        self.execute(ev);
        true
    }

    /// Execute one event: advance the clock, fold the digest, dispatch to
    /// the target component. Shared by [`Engine::step`] (which executes
    /// the queue minimum) and the model checker's re-timed apply path.
    pub(crate) fn execute(&mut self, ev: Scheduled<C::Msg>) {
        debug_assert!(
            self.core
                .last_executed
                .is_none_or(|last| (ev.time, ev.seq) > last),
            "total event order: event (t={:?}, seq={}) not after last executed {:?}",
            ev.time,
            ev.seq,
            self.core.last_executed
        );
        self.core.last_executed = Some((ev.time, ev.seq));
        self.core.fold_event(&ev);
        self.core.now = ev.time;
        self.core.events_executed += 1;
        if self.core.profiler.is_some() || self.core.flight.is_some() {
            self.observe_event(&ev);
        }
        match ev.kind {
            EventKind::Start(id) => {
                self.with_component(id, |comp, ctx| comp.on_start(ctx));
            }
            EventKind::Deliver {
                src,
                dst,
                msg,
                span,
            } => {
                if self.core.is_alive(dst) {
                    self.core.metrics.bump(self.core.net_delivered);
                    self.core.ctx_span = span;
                    self.with_component(dst, |comp, ctx| comp.on_message(ctx, src, msg));
                } else {
                    // Dead letter: delivered to a crashed component, or to
                    // an id nothing was ever registered under. Counted per
                    // reason so silent drops show up in run outcomes.
                    self.core.metrics.bump(self.core.net_to_dead);
                    let reason = if dst.0 < self.core.names.len() {
                        "crashed"
                    } else {
                        "unknown_dst"
                    };
                    let mut labels = label("reason", reason);
                    if let Some(classify) = self.core.classifier {
                        // Break the drop count down by message variant
                        // so "129 dead letters" becomes "mostly missed
                        // GmLcHeartbeat to a crashed LC".
                        labels.insert("msg", classify(&msg));
                    }
                    self.core.metrics.incr_with("dead_letters", &labels);
                }
            }
            EventKind::Timer {
                dst,
                tag,
                incarnation,
                id,
                span,
            } => {
                let stale = self.core.cancelled_timers.remove(&id)
                    || self.core.incarnation.get(dst.0) != Some(&incarnation)
                    || !self.core.is_alive(dst);
                if !stale {
                    self.core.ctx_span = span;
                    self.with_component(dst, |comp, ctx| comp.on_timer(ctx, tag));
                }
            }
            // Any event for an id nothing was registered under is a no-op
            // (already folded into the digest above), except that a
            // `Deliver` to it is also a counted dead letter.
            EventKind::Crash(id) => {
                if self.core.is_alive(id) {
                    self.core.alive[id.0] = false;
                    // Bump the incarnation so timers set by the dead
                    // incarnation never fire, even across a restart.
                    self.core.incarnation[id.0] += 1;
                    self.core.metrics.incr("failure.crashes");
                    self.components[id.0].on_crash(self.core.now);
                }
            }
            EventKind::Restart(id) => {
                if self.core.alive.get(id.0) == Some(&false) {
                    self.core.alive[id.0] = true;
                    self.core.metrics.incr("failure.restarts");
                    self.with_component(id, |comp, ctx| comp.on_restart(ctx));
                }
            }
            EventKind::Net(fault) => {
                self.core.metrics.incr("failure.net");
                match fault {
                    NetFault::Isolate(id) => self.core.network.isolate(id),
                    NetFault::Reconnect(id) => self.core.network.reconnect(id),
                    NetFault::SetLossPpm(ppm) => self.core.network.set_loss_rate(ppm as f64 / 1e6),
                }
            }
        }
    }

    /// Feed one executed event to the enabled observers (profiler and
    /// flight recorder). Pure observation: reads the event, mutates
    /// only observer state, schedules nothing — the digest-covered
    /// history is identical with observers on or off.
    fn observe_event(&mut self, ev: &Scheduled<C::Msg>) {
        let (kind, comp, a, b): (&'static str, Option<usize>, u64, u64) = match &ev.kind {
            EventKind::Start(id) => ("start", Some(id.0), id.0 as u64, 0),
            EventKind::Deliver { src, dst, .. } => {
                ("deliver", Some(dst.0), src.0 as u64, dst.0 as u64)
            }
            EventKind::Timer { dst, tag, .. } => ("timer", Some(dst.0), dst.0 as u64, *tag),
            EventKind::Crash(id) => ("crash", Some(id.0), id.0 as u64, 0),
            EventKind::Restart(id) => ("restart", Some(id.0), id.0 as u64, 0),
            EventKind::Net(_) => ("net", None, 0, 0),
        };
        let variant = match (&ev.kind, self.core.classifier) {
            (EventKind::Deliver { msg, .. }, Some(classify)) => classify(msg),
            _ => kind,
        };
        if let Some(p) = self.core.profiler.as_mut() {
            let k = p.kind_index(comp, &self.core.names);
            p.begin_event(k, variant);
        }
        if let Some(fr) = self.core.flight.as_mut() {
            fr.record(crate::flight::FlightEvent {
                time_us: ev.time.0,
                seq: ev.seq,
                kind,
                a,
                b,
                variant,
            });
        }
    }

    /// Run `f` on component `id` in place: `components` and `core` are
    /// disjoint fields and a [`Ctx`] holds `&mut EngineCore` only, so no
    /// handler can reach `components` — its own slot or another's — while
    /// it runs.
    fn with_component<F: FnOnce(&mut C, &mut Ctx<'_, C::Msg>)>(&mut self, id: ComponentId, f: F) {
        let Some(comp) = self.components.get_mut(id.0) else {
            return; // nothing registered under `id` — drop the event
        };
        let mut ctx = Ctx {
            core: &mut self.core,
            me: id,
        };
        f(comp, &mut ctx);
        // Context hygiene: ambient span context never leaks across events.
        self.core.ctx_span = None;
    }

    /// Run until the queue drains or `max_events` hits.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until virtual time reaches `deadline` (events at exactly
    /// `deadline` are executed). Time advances to `deadline` even if the
    /// queue drains early.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.core.queue.peek_key() {
                Some((time, _)) if time <= deadline => {}
                _ => break,
            }
            if !self.step() {
                break;
            }
        }
        if self.core.now < deadline {
            self.core.now = deadline;
        }
    }

    /// Run for an additional span of virtual time.
    pub fn run_for(&mut self, span: SimSpan) {
        let deadline = self.core.now + span;
        self.run_until(deadline);
    }
}

/// Generate a dispatch enum over several [`Component`] types sharing one
/// message type — the glue that lets a heterogeneous system (managers,
/// controllers, clients, …) live in one typed [`Engine`].
///
/// For each `Variant(Inner) as accessor` entry the macro emits:
/// * the enum variant wrapping `Inner`,
/// * `From<Inner>` (so [`Engine::add_component`] takes the bare inner
///   type),
/// * an `fn accessor(&self) -> Option<&Inner>` borrow for inspection,
/// * and a [`Component`] impl that delegates every callback to the
///   active variant.
///
/// ```
/// use snooze_simcore::prelude::*;
///
/// enum Msg { Ping }
///
/// struct Ping;
/// impl Component for Ping {
///     type Msg = Msg;
///     fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ComponentId, _: Msg) {}
/// }
///
/// node_enum! {
///     /// All node kinds of this little system.
///     enum Node: Msg {
///         Ping(Ping) as as_ping,
///     }
/// }
///
/// let mut sim: Engine<Node> = SimBuilder::new(1).build();
/// let id = sim.add_component("ping", Ping);
/// sim.run();
/// assert!(sim.component(id).as_ping().is_some());
/// ```
#[macro_export]
macro_rules! node_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident : $msg:ty {
            $( $variant:ident($inner:ty) as $as_fn:ident ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                #[doc = concat!("A [`", stringify!($inner), "`] node.")]
                $variant($inner),
            )+
        }

        $(
            impl ::core::convert::From<$inner> for $name {
                fn from(inner: $inner) -> Self {
                    $name::$variant(inner)
                }
            }
        )+

        impl $name {
            $(
                #[doc = concat!(
                    "Borrow the inner [`", stringify!($inner),
                    "`] if this node is that kind."
                )]
                #[allow(unreachable_patterns, dead_code)]
                $vis fn $as_fn(&self) -> ::core::option::Option<&$inner> {
                    match self {
                        $name::$variant(inner) => ::core::option::Option::Some(inner),
                        _ => ::core::option::Option::None,
                    }
                }
            )+
        }

        impl $crate::engine::Component for $name {
            type Msg = $msg;

            fn on_start(&mut self, ctx: &mut $crate::engine::Ctx<'_, $msg>) {
                match self {
                    $( $name::$variant(inner) =>
                        $crate::engine::Component::on_start(inner, ctx), )+
                }
            }

            fn on_message(
                &mut self,
                ctx: &mut $crate::engine::Ctx<'_, $msg>,
                src: $crate::engine::ComponentId,
                msg: $msg,
            ) {
                match self {
                    $( $name::$variant(inner) =>
                        $crate::engine::Component::on_message(inner, ctx, src, msg), )+
                }
            }

            fn on_timer(&mut self, ctx: &mut $crate::engine::Ctx<'_, $msg>, tag: u64) {
                match self {
                    $( $name::$variant(inner) =>
                        $crate::engine::Component::on_timer(inner, ctx, tag), )+
                }
            }

            fn on_crash(&mut self, now: $crate::time::SimTime) {
                match self {
                    $( $name::$variant(inner) =>
                        $crate::engine::Component::on_crash(inner, now), )+
                }
            }

            fn on_restart(&mut self, ctx: &mut $crate::engine::Ctx<'_, $msg>) {
                match self {
                    $( $name::$variant(inner) =>
                        $crate::engine::Component::on_restart(inner, ctx), )+
                }
            }
        }
    };
}
#[cfg(test)]
mod tests {
    use super::*;

    /// The closed message set of the unit-test system.
    #[derive(Debug, Clone, PartialEq)]
    enum TestMsg {
        Ping,
    }

    /// Echoes every message back to its sender `bounces` times.
    struct Echo {
        bounces: u32,
        seen: u32,
    }

    impl Component for Echo {
        type Msg = TestMsg;
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, src: ComponentId, _msg: TestMsg) {
            self.seen += 1;
            if self.bounces > 0 && src != ComponentId::EXTERNAL {
                self.bounces -= 1;
                ctx.send(src, TestMsg::Ping);
            }
        }
    }

    struct Kickoff {
        peer: ComponentId,
    }

    impl Component for Kickoff {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.send(self.peer, TestMsg::Ping);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, src: ComponentId, _msg: TestMsg) {
            ctx.send(src, TestMsg::Ping);
        }
    }

    struct TimerUser {
        fired: Vec<u64>,
        cancel_second: bool,
    }

    impl Component for TimerUser {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.set_timer(SimSpan::from_secs(1), 1);
            let h = ctx.set_timer(SimSpan::from_secs(2), 2);
            ctx.set_timer(SimSpan::from_secs(3), 3);
            if self.cancel_second {
                ctx.cancel_timer(h);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TestMsg>, tag: u64) {
            self.fired.push(tag);
        }
    }

    struct RestartProbe {
        restarts: u32,
        crashes: u32,
    }

    impl Component for RestartProbe {
        type Msg = TestMsg;
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        fn on_crash(&mut self, _now: SimTime) {
            self.crashes += 1;
        }
        fn on_restart(&mut self, _ctx: &mut Ctx<'_, TestMsg>) {
            self.restarts += 1;
        }
    }

    struct Caster {
        group: GroupId,
    }
    impl Component for Caster {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.join_group(self.group);
            ctx.multicast(self.group, || TestMsg::Ping);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {
            panic!("sender must not receive its own multicast");
        }
    }

    struct Loopy;
    impl Component for Loopy {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.set_timer(SimSpan::from_micros(1), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _tag: u64) {
            ctx.set_timer(SimSpan::from_micros(1), 0);
        }
    }

    /// Pings `peer` once a second, from t = 1 s on.
    struct Beacon {
        peer: ComponentId,
    }
    impl Component for Beacon {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.set_timer(SimSpan::from_secs(1), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _tag: u64) {
            ctx.send(self.peer, TestMsg::Ping);
            ctx.set_timer(SimSpan::from_secs(1), 0);
        }
    }

    struct SrcProbe {
        from_external: bool,
    }
    impl Component for SrcProbe {
        type Msg = TestMsg;
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, src: ComponentId, _: TestMsg) {
            self.from_external = src == ComponentId::EXTERNAL;
        }
    }

    /// Opens a root span, relays through a middle hop that doesn't
    /// instrument anything, ends at a sink that opens a child — the
    /// context must survive the uninstrumented hop.
    struct SpanSource {
        next: ComponentId,
    }
    impl Component for SpanSource {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            let root = ctx.span_open("op.root");
            ctx.span_label(root, "kind", "test");
            ctx.send(self.next, TestMsg::Ping);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
    }
    struct SpanRelay {
        next: ComponentId,
    }
    impl Component for SpanRelay {
        type Msg = TestMsg;
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: ComponentId, msg: TestMsg) {
            ctx.send(self.next, msg); // no instrumentation here
        }
    }
    struct SpanSink;
    impl Component for SpanSink {
        type Msg = TestMsg;
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {
            let leaf = ctx.span_open("op.leaf");
            ctx.span_close(leaf);
        }
    }

    struct TimerSpans {
        carried: Option<Option<SpanId>>,
        plain: Option<Option<SpanId>>,
    }
    impl Component for TimerSpans {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            let op = ctx.span_open("op");
            ctx.set_timer_in(op, SimSpan::from_secs(1), 1);
            ctx.set_timer(SimSpan::from_secs(2), 2);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, tag: u64) {
            if tag == 1 {
                self.carried = Some(ctx.core.ctx_span);
            } else {
                self.plain = Some(ctx.core.ctx_span);
            }
        }
    }

    struct Nester;
    impl Component for Nester {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            let outer = ctx.span_open("outer");
            let inner = ctx.span_open("inner");
            assert_eq!(ctx.core.ctx_span, Some(inner));
            ctx.span_close(inner);
            assert_eq!(ctx.core.ctx_span, Some(outer));
            let marker = ctx.span_instant("marker");
            assert_eq!(ctx.core.ctx_span, Some(outer));
            ctx.span_close(outer);
            assert_eq!(ctx.core.ctx_span, None);
            let _ = marker;
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
    }

    /// Fires `left` self-timers at delays drawn from its own `rng`,
    /// burning `spin_nanos` of host time in each — the profiler test's
    /// heavy and light kinds.
    struct Spinner {
        left: u32,
        spin_nanos: u64,
        rng: SimRng,
    }
    impl Component for Spinner {
        type Msg = TestMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            self.on_timer(ctx, 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: ComponentId, _: TestMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, _tag: u64) {
            let clock = crate::wallclock::WallClock::start();
            while clock.elapsed_nanos() < self.spin_nanos {
                std::hint::spin_loop();
            }
            if self.left > 0 {
                self.left -= 1;
                let delay = self
                    .rng
                    .span_between(SimSpan::from_micros(1), SimSpan::from_micros(100));
                ctx.set_timer(delay, 0);
            }
        }
    }

    node_enum! {
        /// Every component kind the engine unit tests register,
        /// exercising the macro-generated dispatcher along the way.
        enum TestNode: TestMsg {
            Echo(Echo) as as_echo,
            Kickoff(Kickoff) as as_kickoff,
            TimerUser(TimerUser) as as_timer_user,
            RestartProbe(RestartProbe) as as_restart_probe,
            Caster(Caster) as as_caster,
            Loopy(Loopy) as as_loopy,
            Beacon(Beacon) as as_beacon,
            SrcProbe(SrcProbe) as as_src_probe,
            SpanSource(SpanSource) as as_span_source,
            SpanRelay(SpanRelay) as as_span_relay,
            SpanSink(SpanSink) as as_span_sink,
            TimerSpans(TimerSpans) as as_timer_spans,
            Nester(Nester) as as_nester,
            Spinner(Spinner) as as_spinner,
        }
    }

    fn sim(seed: u64) -> Engine<TestNode> {
        SimBuilder::new(seed).build()
    }

    #[test]
    fn ping_pong_terminates() {
        let mut sim = sim(1);
        let echo = sim.add_component(
            "echo",
            Echo {
                bounces: 5,
                seen: 0,
            },
        );
        let _kick = sim.add_component("kick", Kickoff { peer: echo });
        sim.run();
        let echo_ref = sim.component(echo).as_echo().unwrap();
        assert_eq!(echo_ref.seen, 6); // initial + 5 replies to its bounces
        assert_eq!(echo_ref.bounces, 0);
    }

    #[test]
    fn time_advances_with_network_latency() {
        let mut sim = sim(1);
        let echo = sim.add_component(
            "echo",
            Echo {
                bounces: 0,
                seen: 0,
            },
        );
        sim.post(SimTime::from_secs(3), echo, TestMsg::Ping);
        sim.run();
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "t",
            TimerUser {
                fired: vec![],
                cancel_second: false,
            },
        );
        sim.run();
        assert_eq!(
            sim.component(id).as_timer_user().unwrap().fired,
            vec![1, 2, 3]
        );
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "t",
            TimerUser {
                fired: vec![],
                cancel_second: true,
            },
        );
        sim.run();
        assert_eq!(sim.component(id).as_timer_user().unwrap().fired, vec![1, 3]);
    }

    #[test]
    fn crash_suppresses_delivery_and_timers() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "t",
            TimerUser {
                fired: vec![],
                cancel_second: false,
            },
        );
        sim.schedule_crash(SimTime::from_secs(1) + SimSpan::from_micros(1), id);
        sim.post(SimTime::from_secs(2), id, TestMsg::Ping);
        sim.run();
        // Only the first timer fired before the crash.
        assert_eq!(sim.component(id).as_timer_user().unwrap().fired, vec![1]);
        assert_eq!(sim.metrics().counter("net.to_dead"), 1);
    }

    #[test]
    fn dead_letters_are_counted_by_reason() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "t",
            TimerUser {
                fired: vec![],
                cancel_second: false,
            },
        );
        sim.schedule_crash(SimTime::from_secs(1), id);
        // To a crashed component and to an id nothing is registered under.
        sim.post(SimTime::from_secs(2), id, TestMsg::Ping);
        sim.post(SimTime::from_secs(2), ComponentId(99), TestMsg::Ping);
        sim.run();
        assert_eq!(
            sim.metrics()
                .counter_with("dead_letters", &label("reason", "crashed")),
            1
        );
        assert_eq!(
            sim.metrics()
                .counter_with("dead_letters", &label("reason", "unknown_dst")),
            1
        );
        assert_eq!(sim.dead_letters(), 2);
        assert_eq!(sim.metrics().counter("net.to_dead"), 2);
    }

    #[test]
    fn crash_restart_lifecycle() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "p",
            RestartProbe {
                restarts: 0,
                crashes: 0,
            },
        );
        sim.schedule_crash(SimTime::from_secs(1), id);
        sim.schedule_restart(SimTime::from_secs(2), id);
        // Crash while already dead and restart while alive are no-ops.
        sim.schedule_crash(SimTime::from_secs(1) + SimSpan::from_millis(1), id);
        sim.schedule_restart(SimTime::from_secs(3), id);
        sim.run();
        let p = sim.component(id).as_restart_probe().unwrap();
        assert_eq!(p.crashes, 1);
        assert_eq!(p.restarts, 1);
        assert!(sim.is_alive(id));
    }

    /// A beacon pinging an echo that never answers; returns the engine
    /// and both ids.
    fn beacon_and_listener(seed: u64) -> (Engine<TestNode>, ComponentId, ComponentId) {
        let mut sim = sim(seed);
        let listener = sim.add_component(
            "listener",
            Echo {
                bounces: 0,
                seen: 0,
            },
        );
        let beacon = sim.add_component("beacon", Beacon { peer: listener });
        (sim, beacon, listener)
    }

    #[test]
    fn net_faults_fire_as_events() {
        let (mut sim, beacon, listener) = beacon_and_listener(3);
        // Isolate the beacon for seconds (4, 8]: its 1 Hz pings during
        // that window are lost; outside it they arrive.
        let at = SimTime::from_secs(4) + SimSpan::from_micros(1);
        sim.schedule_net_fault(at, NetFault::Isolate(beacon));
        sim.schedule_net_fault(at + SimSpan::from_secs(4), NetFault::Reconnect(beacon));
        sim.run_until(SimTime::from_secs(10) + SimSpan::from_millis(1));
        let seen = sim.component(listener).as_echo().unwrap().seen;
        assert_eq!(seen, 6, "pings at 1-4 and 9-10 arrive, 5-8 are lost");
        assert_eq!(sim.metrics().counter("failure.net"), 2);
    }

    #[test]
    fn degrade_links_changes_loss_rate_at_the_scheduled_time() {
        let (mut sim, _beacon, listener) = beacon_and_listener(1);
        // Every link loses everything from just after the 4th ping on.
        sim.schedule_net_fault(
            SimTime::from_secs(4) + SimSpan::from_micros(1),
            NetFault::SetLossPpm(1_000_000),
        );
        sim.run_until(SimTime::from_secs(10) + SimSpan::from_millis(1));
        let seen = sim.component(listener).as_echo().unwrap().seen;
        assert_eq!(seen, 4, "pings at 1-4 arrive, 5-10 are lost");
        assert_eq!(sim.metrics().counter("failure.net"), 1);
    }

    #[test]
    fn run_until_advances_clock_past_empty_queue() {
        let mut sim = sim(1);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn determinism_same_seed_same_history() {
        fn history(seed: u64) -> (u64, SimTime) {
            let mut sim = sim(seed);
            let echo = sim.add_component(
                "echo",
                Echo {
                    bounces: 50,
                    seen: 0,
                },
            );
            let _k = sim.add_component("kick", Kickoff { peer: echo });
            sim.run();
            (sim.events_executed(), sim.now())
        }
        assert_eq!(history(42), history(42));
    }

    #[test]
    fn multicast_reaches_all_members_except_sender() {
        let mut sim = sim(1);
        let group = sim.create_group();
        let a = sim.add_component(
            "a",
            Echo {
                bounces: 0,
                seen: 0,
            },
        );
        let b = sim.add_component(
            "b",
            Echo {
                bounces: 0,
                seen: 0,
            },
        );
        sim.join_group(group, a);
        sim.join_group(group, b);
        let _c = sim.add_component("caster", Caster { group });
        sim.run();
        assert_eq!(sim.component(a).as_echo().unwrap().seen, 1);
        assert_eq!(sim.component(b).as_echo().unwrap().seen, 1);
    }

    #[test]
    fn max_events_guard_stops_runaway() {
        let mut sim: Engine<TestNode> = SimBuilder::new(1).max_events(100).build();
        sim.add_component("loopy", Loopy);
        sim.run();
        assert_eq!(sim.events_executed(), 100);
    }

    #[test]
    fn run_for_advances_relative_spans() {
        let mut sim = sim(1);
        sim.run_for(SimSpan::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.run_for(SimSpan::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(8));
    }

    #[test]
    fn node_enum_accessor_is_variant_checked() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "echo",
            Echo {
                bounces: 0,
                seen: 0,
            },
        );
        assert!(sim.component(id).as_echo().is_some());
        assert!(sim.component(id).as_kickoff().is_none());
        assert!(sim.get(ComponentId(99)).is_none());
    }

    #[test]
    fn external_posts_report_external_sender() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "p",
            SrcProbe {
                from_external: false,
            },
        );
        sim.post(SimTime::from_secs(1), id, TestMsg::Ping);
        sim.run();
        assert!(sim.component(id).as_src_probe().unwrap().from_external);
    }

    #[test]
    fn name_of_unknown_component_is_safe() {
        let sim = sim(1);
        assert_eq!(sim.name_of(ComponentId(99)), "?");
        assert!(!sim.is_alive(ComponentId(99)));
    }

    #[test]
    fn crash_and_restart_of_unknown_component_are_digested_noops() {
        let nobody = ComponentId(99);
        let run = |events: bool| {
            let mut sim = sim(1);
            if events {
                sim.schedule_crash(SimTime::from_secs(1), nobody);
                sim.schedule_restart(SimTime::from_secs(2), nobody);
                // No public door schedules these two for an id nothing is
                // registered under; dispatch must not index with it anyway.
                sim.core
                    .schedule(SimTime::from_secs(3), EventKind::Start(nobody));
                sim.core.schedule(
                    SimTime::from_secs(4),
                    EventKind::Timer {
                        dst: nobody,
                        tag: 7,
                        incarnation: 0,
                        id: 0,
                        span: None,
                    },
                );
            }
            sim.run();
            sim
        };
        let mut sim = run(true);
        assert_eq!(sim.events_executed(), 4);
        assert_ne!(sim.digest(), run(false).digest(), "executed, so digested");
        sim.mc_inject_crash(nobody);
        sim.mc_inject_restart(nobody);
        assert_eq!(sim.events_executed(), 6);
        assert_eq!(sim.metrics().counter("failure.crashes"), 0);
        assert_eq!(sim.metrics().counter("failure.restarts"), 0);
        assert_eq!(sim.metrics().counters_iter().count(), 0);
        assert!(!sim.is_alive(nobody));
    }

    #[test]
    fn span_context_survives_uninstrumented_hops() {
        let mut sim = sim(1);
        let sink = sim.add_component("sink", SpanSink);
        let relay = sim.add_component("relay", SpanRelay { next: sink });
        let _src = sim.add_component("src", SpanSource { next: relay });
        sim.run();
        let spans = sim.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "op.root").unwrap();
        let leaf = spans.iter().find(|s| s.name == "op.leaf").unwrap();
        assert_eq!(leaf.parent, Some(root.id), "context lost across relay");
        assert!(spans
            .label_of(root.id, "kind")
            .is_some_and(|v| *v == "test"));
        assert!(leaf.end_us.is_some());
        assert!(root.end_us.is_none(), "source never closed its root");
    }

    #[test]
    fn plain_timers_do_not_inherit_context_but_spanned_ones_carry_it() {
        let mut sim = sim(1);
        let id = sim.add_component(
            "t",
            TimerSpans {
                carried: None,
                plain: None,
            },
        );
        sim.run();
        let t = sim.component(id).as_timer_spans().unwrap();
        assert_eq!(t.carried, Some(Some(SpanId(1))));
        assert_eq!(t.plain, Some(None));
    }

    #[test]
    fn span_open_close_behaves_as_stack() {
        let mut sim = sim(1);
        sim.add_component("n", Nester);
        sim.run();
        assert_eq!(sim.spans().len(), 3);
        let marker = sim.spans().iter().find(|s| s.name == "marker").unwrap();
        assert_eq!(
            marker.parent,
            Some(sim.spans().iter().find(|s| s.name == "outer").unwrap().id)
        );
    }

    #[test]
    fn engine_is_send() {
        // The copy-on-write span log is an `Arc`, not an `Rc`, so an
        // engine whose components and messages are `Send` can be moved
        // to another thread.
        fn send<T: Send>() {}
        send::<Engine<Echo>>();
    }

    #[test]
    fn span_digest_is_deterministic_across_runs() {
        fn run() -> u64 {
            let mut sim = sim(7);
            let sink = sim.add_component("sink", SpanSink);
            let relay = sim.add_component("relay", SpanRelay { next: sink });
            let _src = sim.add_component("src", SpanSource { next: relay });
            sim.run();
            sim.span_digest()
        }
        assert_eq!(run(), run());
    }

    fn classify(_m: &TestMsg) -> &'static str {
        "Ping"
    }

    #[test]
    fn observers_do_not_perturb_the_event_digest() {
        fn run(observed: bool) -> (u64, u64) {
            let mut sim = sim(9);
            if observed {
                sim.set_msg_classifier(classify);
                sim.enable_profiler();
                sim.enable_flight_recorder(16);
            }
            let echo = sim.add_component(
                "echo",
                Echo {
                    bounces: 5,
                    seen: 0,
                },
            );
            sim.add_component("kick", Kickoff { peer: echo });
            sim.run();
            (sim.digest(), sim.events_executed())
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn profiler_attributes_events_to_kind_and_variant() {
        let mut sim = sim(3);
        sim.set_msg_classifier(classify);
        sim.enable_profiler();
        let echo = sim.add_component(
            "echo1",
            Echo {
                bounces: 2,
                seen: 0,
            },
        );
        sim.add_component("echo2", Kickoff { peer: echo });
        sim.run();
        let folded = sim.profile_folded();
        // Both components share the digit-stripped kind "echo"; starts
        // and delivers are separate buckets.
        assert!(folded.contains("echo;Ping "), "folded:\n{folded}");
        assert!(folded.contains("echo;start 2\n"), "folded:\n{folded}");
        let rows = sim.profile_rows();
        let total: u64 = rows.iter().map(|r| r.events).sum();
        assert_eq!(total, sim.events_executed());
        // Deterministic bytes for the deterministic columns.
        assert_eq!(folded, sim.profile_folded());
    }

    #[test]
    fn profiler_wall_time_follows_cost_not_event_count() {
        // Two kinds, the same number of events each, interleaved at
        // random; one burns ~20 µs of host time per event. Wall time
        // banked per lap on whoever runs at the tick splits ~50/50.
        let mut sim = sim(11);
        sim.enable_profiler();
        for (stream, (name, spin_nanos)) in
            [("heavy", 20_000), ("light", 0)].into_iter().enumerate()
        {
            let left = 6_000;
            let rng = SimRng::new(11).fork(stream as u64);
            sim.add_component(
                name,
                Spinner {
                    left,
                    spin_nanos,
                    rng,
                },
            );
        }
        sim.run();
        let rows = sim.profile_rows();
        let of = |kind: &str| -> (u64, u64) {
            let mine = rows.iter().filter(|r| r.kind == kind);
            mine.fold((0, 0), |(e, w), r| (e + r.events, w + r.wall_nanos))
        };
        let ((heavy_events, heavy), (light_events, light)) = (of("heavy"), of("light"));
        assert_eq!(heavy_events, light_events);
        let share = heavy as f64 / (heavy + light) as f64;
        assert!(share > 0.8, "heavy kind holds {share:.3} of wall time");
    }

    #[test]
    fn flight_recorder_keeps_recent_events_with_variants() {
        let mut sim = sim(4);
        sim.set_msg_classifier(classify);
        sim.enable_flight_recorder(4);
        let echo = sim.add_component(
            "echo",
            Echo {
                bounces: 6,
                seen: 0,
            },
        );
        sim.add_component("kick", Kickoff { peer: echo });
        sim.run();
        let fr = sim.flight_recorder().unwrap();
        assert_eq!(fr.capacity(), 4);
        assert_eq!(fr.recorded(), sim.events_executed());
        let evs = fr.events();
        assert_eq!(evs.len(), 4);
        assert!(evs
            .windows(2)
            .all(|w| (w[0].time_us, w[0].seq) < (w[1].time_us, w[1].seq)));
        assert!(evs
            .iter()
            .all(|e| e.kind == "deliver" && e.variant == "Ping"));
    }

    #[test]
    fn dead_letters_carry_msg_variant_when_classified() {
        let mut sim = sim(5);
        sim.set_msg_classifier(classify);
        let id = sim.add_component(
            "t",
            TimerUser {
                fired: vec![],
                cancel_second: false,
            },
        );
        sim.schedule_crash(SimTime::from_secs(1), id);
        sim.post(SimTime::from_secs(2), id, TestMsg::Ping);
        sim.run();
        let labels = label("reason", "crashed").with("msg", "Ping");
        assert_eq!(sim.metrics().counter_with("dead_letters", &labels), 1);
        assert_eq!(sim.dead_letters(), 1);
    }

    /// What the queue moves per event, around a message of 40 bytes (what
    /// a Snooze deployment carries): `(time, seq)`, two endpoints, the
    /// message and a span context. Every push, bucket sort and pop copies
    /// this many bytes, so it is a ceiling, not an observation.
    #[test]
    fn a_queued_event_is_at_most_88_bytes_around_a_40_byte_message() {
        assert!(std::mem::size_of::<Scheduled<[u64; 5]>>() <= 88);
        // 16 of them are the span context: ids are 1-based, so a
        // `NonZeroU64` niche would make it 8 — not taken, 88 → 80 B is
        // inside the noise (DESIGN.md, "What an event weighs").
        assert_eq!(std::mem::size_of::<Option<SpanId>>(), 16);
    }

    /// What a span weighs: a record and one entry per label, each in a
    /// fixed-size segment of the log, and no heap allocation of their own
    /// unless a value is an owned string (DESIGN.md, "What a span weighs").
    #[test]
    fn a_span_record_is_80_bytes_and_a_label_48() {
        use snooze_telemetry::span::{SpanLabel, SpanRecord};
        assert_eq!(std::mem::size_of::<SpanRecord>(), 80);
        assert_eq!(std::mem::size_of::<SpanLabel>(), 48);
        assert_eq!(std::mem::size_of::<LabelValue>(), 24);
    }

    #[test]
    fn a_component_label_renders_as_the_ids_debug_text() {
        for id in [0, 7, 1023, usize::MAX - 1, usize::MAX].map(ComponentId) {
            let value = LabelValue::from(id);
            assert_eq!(value.to_string(), format!("{id:?}"));
        }
    }

    #[test]
    fn queue_depth_reports_pending_events() {
        let mut sim = sim(6);
        let id = sim.add_component(
            "t",
            TimerUser {
                fired: vec![],
                cancel_second: false,
            },
        );
        assert_eq!(sim.queue_depth(), 1, "the pending Start event");
        sim.post(SimTime::from_secs(10), id, TestMsg::Ping);
        assert_eq!(sim.queue_depth(), 2);
        sim.run();
        assert_eq!(sim.queue_depth(), 0);
    }
}
