#![warn(missing_docs)]

//! # snooze-simcore
//!
//! A deterministic discrete-event simulation (DES) engine used as the
//! substrate for the Snooze reproduction. The real Snooze system ran on a
//! 144-node Grid'5000 cluster; this crate replaces the physical testbed with
//! a virtual-time event loop so that the management protocols (heartbeats,
//! leader election, scheduling, energy management) execute against the same
//! event orderings they would see on real hardware — reproducibly.
//!
//! ## Architecture
//!
//! * [`time`] — virtual time ([`SimTime`]) and spans ([`SimSpan`]).
//! * [`engine`] — the event loop. User logic lives in [`Component`]s which
//!   react to messages and timers through a [`Ctx`] handle. Crashes,
//!   restarts and [`NetFault`]s are scheduled as events like any other.
//! * [`network`] — a simulated message bus with jittered latency,
//!   message loss, isolation and multicast groups.
//! * [`rng`] — seedable, stream-splittable randomness so every run is
//!   replayable from a single `u64` seed.
//! * [`metrics`] — labeled counters, gauges and histograms collected
//!   during a run, exportable as Prometheus text or JSONL.
//! * [`excerpt`] — how an error message quotes outside input: briefly.
//!
//! ## Observability
//!
//! The engine carries causal span context ([`telemetry::SpanId`]) on
//! every simulated message and, opt-in, across timers: a component opens
//! a span with [`Ctx::span_open`], later sends propagate it, and the
//! receiving handler sees it as its ambient context — so a multi-hop
//! operation (client → EP → GL → GM → LC) becomes one span tree in
//! [`Engine::spans`]. Span ids come from a sequence counter, never wall
//! clock, so the log (and every exporter built on it in
//! `snooze-telemetry`) is byte-identical across same-seed runs.
//!
//! ## Determinism
//!
//! Events are totally ordered by `(time, sequence-number)`, and all
//! randomness flows from one master seed through per-purpose
//! [`rng::SimRng`] streams, so two runs with the same seed produce
//! byte-identical histories. The engine is one queue on one thread:
//! a two-level bucket queue (`equeue.rs`) held to a binary heap's exact
//! pop order by its tests.
//!
//! ## Example
//!
//! The engine is generic over its message type: a [`Component`] declares
//! the closed message set it speaks as an associated type, and handlers
//! receive messages by value — no boxing, no runtime casts. Systems mixing
//! several component kinds wrap them in a dispatch enum via
//! [`node_enum!`].
//!
//! ```
//! use snooze_simcore::prelude::*;
//!
//! enum Msg { Ping, Pong }
//!
//! struct Ping { peer: ComponentId, left: u32 }
//!
//! impl Component for Ping {
//!     type Msg = Msg;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
//!         ctx.send(self.peer, Msg::Ping);
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, src: ComponentId, msg: Msg) {
//!         if self.left > 0 {
//!             self.left -= 1;
//!             match msg {
//!                 Msg::Ping => ctx.send(src, Msg::Pong),
//!                 Msg::Pong => ctx.send(src, Msg::Ping),
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim: Engine<Ping> = SimBuilder::new(42).build();
//! let a = sim.add_component("a", Ping { peer: ComponentId(1), left: 3 });
//! let b = sim.add_component("b", Ping { peer: ComponentId(0), left: 3 });
//! assert_eq!(a, ComponentId(0));
//! assert_eq!(b, ComponentId(1));
//! sim.run();
//! assert!(sim.now() > SimTime::ZERO);
//! ```

pub mod engine;
mod equeue;
pub mod excerpt;
pub mod flight;
pub mod mc;
pub mod metrics;
pub mod network;
pub mod rng;
pub mod time;
mod trace;
pub mod wallclock;

/// Re-export of the foundation observability crate, so downstream
/// simulation crates reach spans/labels/exporters without a separate
/// dependency edge.
pub use snooze_telemetry as telemetry;

pub use engine::{Component, ComponentId, Ctx, Engine, GroupId, NetFault, SimBuilder};
pub use telemetry::{LabelSet, SpanId};
pub use time::{SimSpan, SimTime};
pub use wallclock::WallClock;

/// Convenient glob import for simulation authors.
pub mod prelude {
    pub use crate::engine::{
        Component, ComponentId, Ctx, Engine, GroupId, NetFault, SimBuilder, TimerHandle,
    };
    pub use crate::mc::{McHasher, McState};
    pub use crate::metrics::MetricsRegistry;
    pub use crate::network::NetworkConfig;
    pub use crate::node_enum;
    pub use crate::rng::SimRng;
    pub use crate::telemetry::label::label;
    pub use crate::telemetry::{LabelSet, LabelValue, SpanId};
    pub use crate::time::{SimSpan, SimTime};
    pub use crate::wallclock::WallClock;
}
