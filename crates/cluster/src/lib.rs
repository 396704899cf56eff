#![warn(missing_docs)]

//! # snooze-cluster
//!
//! The physical-cluster substrate for the Snooze reproduction. The original
//! system managed real machines through libvirt; every physical concern the
//! management plane observes is modelled here:
//!
//! * [`resources`] — d-dimensional resource vectors (CPU, memory, network
//!   RX/TX) with the capacity arithmetic every scheduler needs.
//! * [`power`] — node power models (linear and SPECpower-style piecewise)
//!   and energy integration.
//! * [`node`] — the node power-state machine (on / suspending / suspended /
//!   resuming) with transition latencies.
//! * [`vm`] — VM identities, specifications and lifecycle states.
//! * [`workload`] — per-VM utilization shapes (constant, periodic, bursty
//!   on/off, the step functions of trace demand curves).
//! * [`hypervisor`] — a per-node hypervisor: VM admission, aggregate usage,
//!   overload/underload detection. Stand-in for libvirt/KVM.
//! * [`migration`] — an analytic pre-copy live-migration model producing
//!   migration duration and downtime.

pub mod hypervisor;
pub mod migration;
pub mod node;
pub mod power;
pub mod resources;
pub mod vm;
pub mod workload;

pub use hypervisor::Hypervisor;
pub use node::{NodeId, NodeSpec, PowerState, PowerStateMachine, TransitionTimes};
pub use power::{
    BilledTransitions, DvfsPower, DvfsState, EnergyMeter, LinearPower, PowerModel, SpecLikePower,
};
pub use resources::ResourceVector;
pub use vm::{VmId, VmSpec, VmState};
pub use workload::{UsageShape, VmWorkload};
