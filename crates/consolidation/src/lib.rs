#![warn(missing_docs)]

//! # snooze-consolidation
//!
//! The paper's second contribution: "a novel nature-inspired VM
//! consolidation algorithm based on the Ant Colony Optimization" (§III-A),
//! together with every comparator its evaluation (§III-B) needs:
//!
//! * [`problem`] — static VM-to-host placement as d-dimensional vector bin
//!   packing: instances, solutions, feasibility validation and quality
//!   metrics.
//! * [`ffd`] — the First-Fit-Decreasing family the paper compares against,
//!   with the single-dimension presorts criticised in the introduction
//!   ("presorting the VMs according to a single dimension (e.g. CPU) …
//!   tend\[s\] to waste a lot of resources"), plus L1/L2/L∞ multi-dimension
//!   variants and best-fit / worst-fit baselines.
//! * [`aco`] — the ACO consolidation algorithm: pheromone matrix over
//!   VM–bin pairs, heuristic desirability, probabilistic decision rule,
//!   cycles with evaporation and global-best reinforcement.
//! * [`exact`] — a branch-and-bound optimal solver standing in for the
//!   CPLEX runs the paper used to compute "the optimal solution".
//! * [`energy`] — placement → energy mapping, including the energy spent
//!   computing the placement itself (the paper's 4.1% saving "includ\[es\]
//!   energy spent into the computation").
//! * [`distributed`] — the future-work §V "distributed version of the
//!   algorithm": per-partition ACO with ring-based residual exchange.
//! * [`multi_objective`] — migration-cost-aware consolidation (arxiv
//!   1706.06646): weighs freed hosts against live-migration churn.
//! * [`registry`] — the string-keyed [`registry::ConsolidatorRegistry`]
//!   building any of the above from flat TOML-expressible parameters.

pub mod aco;
pub mod distributed;
pub mod energy;
pub mod exact;
pub mod ffd;
pub mod multi_objective;
pub mod problem;
pub mod registry;

pub use aco::{AcoConsolidator, AcoParams, AcoPhaseProfile, AcoRun, UpdateRule};
pub use distributed::{DistributedAco, DistributedParams};
pub use energy::{placement_energy_wh, EnergyParams};
pub use exact::{BranchAndBound, ExactOutcome};
pub use ffd::{BestFit, FirstFitDecreasing, SortKey, WorstFit};
pub use multi_objective::{MigrationAwareAco, MigrationAwareParams};
pub use problem::{Consolidator, Instance, InstanceGenerator, Solution};
pub use registry::{
    ConsolidatorRegistry, GuardedBranchAndBound, ParamValue, Params, COLONY_KEYS, REGISTRY_KEYS,
};
