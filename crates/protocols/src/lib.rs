#![warn(missing_docs)]

//! # snooze-protocols
//!
//! Distributed-systems building blocks under the Snooze hierarchy:
//!
//! * [`coordination`] — a ZooKeeper stand-in: sessions with timeouts,
//!   ephemeral sequential znodes, one-shot watches. The paper's leader
//!   election "is built on top of the Apache ZooKeeper highly available
//!   and reliable coordination system" (§II-D); this module provides the
//!   same primitives as a simulated component.
//! * [`election`] — the standard ZooKeeper election recipe (lowest
//!   ephemeral-sequential znode leads; every other contender watches its
//!   predecessor) as an embeddable state machine.
//! * [`heartbeat`] — periodic heartbeat emission and timeout-based failure
//!   detection, the mechanism behind §II-D/§II-E's self-organization and
//!   self-healing.

pub mod coordination;
pub mod election;
pub mod heartbeat;

pub use coordination::{
    CoordinationService, ProtocolCarrier, ProtocolMsg, ZkReply, ZkRequest, ZnodePath,
};
pub use election::{Elector, ElectorEvent, ElectorState};
pub use heartbeat::FailureDetector;
