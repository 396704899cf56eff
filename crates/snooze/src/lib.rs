#![warn(missing_docs)]

//! # snooze
//!
//! A Rust reproduction of **Snooze** — the scalable, autonomic and
//! energy-aware virtual-machine management framework of Feller & Morin,
//! *Autonomous and Energy-Aware Management of Large-Scale Cloud
//! Infrastructures* (IPDPS 2012 PhD Forum).
//!
//! The system is a self-organizing hierarchy (paper Figure 1):
//!
//! ```text
//!   clients ──► Entry Points (replicated)
//!                  │   discover the GL via multicast heartbeats
//!                  ▼
//!              Group Leader  ◄─ elected among the managers (ZooKeeper recipe)
//!               │  dispatching: candidate GMs + linear search
//!               ▼
//!          Group Managers    ◄─ placement / relocation / reconfiguration,
//!               │               demand estimation, energy management
//!               ▼
//!         Local Controllers  ◄─ one per node: hypervisor, monitoring,
//!                                anomaly detection, power state
//! ```
//!
//! * [`messages`] is the closed [`messages::SnoozeMsg`] enum every
//!   component exchanges — the engine is generic over it, so sends and
//!   handlers are fully typed (no `Any`, no runtime casts).
//! * [`SnoozeNode`] is the deployment node enum: one variant per
//!   component kind, generated by `node_enum!`.
//! * [`system`] assembles a full deployment inside a
//!   [`snooze_simcore::engine::Engine`] simulation.
//! * [`group_manager`], [`local_controller`], [`entry_point`] are the
//!   hierarchy's components; [`client`] is a scripted test client.
//! * [`invariants`] names what the hierarchy must never do (two live
//!   GLs, a VM on two LCs, …); the model checker and every scenario run
//!   evaluate the same predicates.
//! * [`scheduling`] holds the two-level scheduling policies of §II-C;
//!   [`estimator`] the demand estimation of §II-B.
//! * Consolidation algorithms (the §III contribution) live in the
//!   companion crate `snooze-consolidation` and plug in through
//!   [`scheduling::reconfiguration`].
//!
//! ## Quick start
//!
//! ```
//! use snooze::prelude::*;
//! use snooze_cluster::node::NodeSpec;
//! use snooze_simcore::prelude::*;
//!
//! let mut sim: Engine<SnoozeNode> = SimBuilder::new(7).network(NetworkConfig::lan()).build();
//! let config = SnoozeConfig::fast_test();
//! let nodes = NodeSpec::standard_cluster(4);
//! let system = SnoozeSystem::deploy(&mut sim, &config, 2, &nodes, 1);
//! sim.run_until(SimTime::from_secs(10));
//! assert!(system.current_gl(&sim).is_some(), "hierarchy converged");
//! ```

pub mod client;
pub mod config;
pub mod entry_point;
pub mod estimator;
pub mod group_manager;
pub mod invariants;
pub mod local_controller;
pub mod messages;
pub mod scheduling;
pub mod system;
pub mod tags;

use snooze_protocols::coordination::CoordinationService;
use snooze_simcore::node_enum;

use crate::client::ClientDriver;
use crate::entry_point::EntryPoint;
use crate::group_manager::GroupManager;
use crate::local_controller::LocalController;
use crate::messages::SnoozeMsg;

/// Structural projection from an engine's node enum onto the Snooze
/// components embedded in it.
///
/// [`SnoozeNode`] implements every method; test harnesses that mix
/// library components with scripted stubs implement just the ones
/// their node enum embeds — that is enough for the inspection helpers
/// on [`system::SnoozeSystem`] to work over custom engines.
pub trait NodeView {
    /// The node as a [`GroupManager`], if it is one.
    fn gm(&self) -> Option<&GroupManager> {
        None
    }
    /// The node as a [`LocalController`], if it is one.
    fn lc(&self) -> Option<&LocalController> {
        None
    }
}

node_enum! {
    /// The standard Snooze deployment node: every component kind the
    /// framework ships, as one engine-ready enum over [`SnoozeMsg`].
    ///
    /// Custom harnesses that need extra scripted components declare
    /// their own `node_enum!` (and, if they use the system inspection
    /// helpers, a [`NodeView`] impl) instead of extending this one.
    #[derive(Clone)]
    pub enum SnoozeNode: SnoozeMsg {
        Zk(CoordinationService<SnoozeMsg>) as as_zk,
        Gm(GroupManager) as as_gm,
        Lc(LocalController) as as_lc,
        Ep(EntryPoint) as as_ep,
        Client(ClientDriver) as as_client,
    }
}

impl snooze_simcore::mc::McState for SnoozeNode {
    fn mc_fold(&self, h: &mut snooze_simcore::mc::McHasher) {
        match self {
            SnoozeNode::Zk(c) => {
                h.word(1);
                c.mc_fold(h);
            }
            SnoozeNode::Gm(c) => {
                h.word(2);
                c.mc_fold(h);
            }
            SnoozeNode::Lc(c) => {
                h.word(3);
                c.mc_fold(h);
            }
            SnoozeNode::Ep(c) => {
                h.word(4);
                c.mc_fold(h);
            }
            SnoozeNode::Client(c) => {
                h.word(5);
                c.mc_fold(h);
            }
        }
    }
}

impl NodeView for SnoozeNode {
    fn gm(&self) -> Option<&GroupManager> {
        self.as_gm()
    }
    fn lc(&self) -> Option<&LocalController> {
        self.as_lc()
    }
}

/// Convenient glob import.
pub mod prelude {
    pub use crate::client::{ClientDriver, ScheduledVm};
    pub use crate::config::SnoozeConfig;
    pub use crate::entry_point::EntryPoint;
    pub use crate::group_manager::{GroupManager, Mode};
    pub use crate::local_controller::LocalController;
    pub use crate::messages::*;
    pub use crate::system::SnoozeSystem;
    pub use crate::{NodeView, SnoozeNode};
}
