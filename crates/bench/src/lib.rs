#![warn(missing_docs)]

//! # snooze-bench
//!
//! The experiment harness. Every table of DESIGN.md's per-experiment
//! index (E1–E14: the paper's §II-F and §III-B evaluation, and beyond) is
//! a row of [`experiments::EXPERIMENTS`]: the offline consolidation
//! studies (E1, E2, E8, E10a) keep a module each; everything that runs the
//! simulated hierarchy is a `scenarios/*.toml` file plus a column list,
//! rendered by the one generic runner in [`experiments`]. The `run_experiments`
//! binary loops over the manifest and [`smoke`] is its one measurement
//! gate, what observing costs; wall time is measured by the repo benchmark
//! (`benchmark/`), not here.
//!
//! Tests assert on the *shape* of the results (who wins, by roughly what
//! factor); the goldens under `tests/golden/` pin every deterministic
//! column.

pub mod e10_distributed_consolidation;
pub mod e1_aco_vs_ffd_vs_optimal;
pub mod e2_scaling;
pub mod e8_ablations;
pub mod experiments;
pub mod report;
pub mod scenario_cli;
pub mod smoke;
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
