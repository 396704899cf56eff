#![warn(missing_docs)]

//! # snooze-mc — exhaustive model checking of the Snooze protocols
//!
//! The simulation engine already replays one schedule deterministically;
//! this crate drives it through **every** schedule of a small topology.
//! An explorer ([`explorer::explore`]) snapshots the engine
//! ([`snooze_simcore::engine::Engine::mc_snapshot`]), enumerates the
//! checker actions available in that state — execute any pending event
//! out of queue order, drop an in-flight message, crash or restart a
//! component — applies one to the engine brought back to that snapshot,
//! and recurses (DFS or BFS), deduplicating on the engine's canonical
//! state fingerprint. A transition costs the one component slot its
//! handler ran on, not the whole system (`explorer`, "What a transition
//! costs").
//!
//! Invariants come in two kinds:
//!
//! * **safety** — checked in every distinct state (at most one live
//!   leader, no lost VMs);
//! * **bounded liveness** — checked at the depth frontier by running a
//!   *fair suffix* (normal scheduled execution for a bounded span) and
//!   requiring the goal at its end (a leader is elected, every orphaned
//!   LC is re-covered).
//!
//! Two harnesses are checked in: [`election`] (the ZooKeeper election
//! recipe in isolation, including a deliberately wrong variant the
//! checker must catch) and [`failover`] (a full Snooze deployment under
//! manager crashes). Violations export as replayable scenario TOML
//! documents ([`snooze_scenario::mc_trace::McTraceDoc`]) that the
//! `snooze-mc` binary can re-run: a counterexample found once is a
//! regression test forever.

pub mod election;
pub mod explorer;
pub mod failover;

pub use explorer::{
    explore, replay, Action, McConfig, McReport, McViolation, Predicate, PredicateKind, Strategy,
    TraceStep,
};
