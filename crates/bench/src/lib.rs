#![warn(missing_docs)]

//! # snooze-bench
//!
//! The experiment harness: one module per experiment family from
//! DESIGN.md's per-experiment index (E1–E8), each reproducing a table or
//! figure-equivalent of the paper's evaluation (§II-F and §III-B).
//! The `run_experiments` binary prints the tables; the Criterion benches
//! under `benches/` measure the algorithmic kernels.
//!
//! Experiments return structured rows so tests can assert on the *shape*
//! of the results (who wins, by roughly what factor) without parsing
//! stdout.

pub mod e10_distributed_consolidation;
pub mod e11_kilonode;
pub mod e12_trace;
pub mod e14_arena;
pub mod e1_aco_vs_ffd_vs_optimal;
pub mod e2_scaling;
pub mod e3_parallel;
pub mod e4_submission_scalability;
pub mod e5_distribution_overhead;
pub mod e6_fault_tolerance;
pub mod e7_energy_savings;
pub mod e8_ablations;
pub mod e9_failover_sensitivity;
pub mod obs_smoke;
pub mod report;
pub mod scenario_cli;
pub mod simrun;
pub mod table;

/// Power draw (watts) of the machine assumed to run the consolidation
/// algorithm itself — used to charge algorithms for their own compute
/// energy, as the paper does ("including energy spent into the
/// computation").
pub const SOLVER_MACHINE_WATTS: f64 = 250.0;

/// How long a computed placement is assumed to hold before the next
/// reconfiguration pass (the paper's consolidation is periodic; one hour
/// is a neutral choice that only scales the energy numbers, not the
/// ranking).
pub const PLACEMENT_HOLD_SECS: f64 = 3600.0;
