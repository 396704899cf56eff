#![warn(missing_docs)]

//! # snooze-bench
//!
//! The experiment harness. Every table of DESIGN.md's per-experiment
//! index (E1–E14: the paper's §II-F and §III-B evaluation, and beyond) is
//! a row of [`experiments::EXPERIMENTS`]: a `scenarios/*.toml` file plus a
//! column list, rendered by the one generic runner in [`experiments`] —
//! whether the file simulates the hierarchy or, with a `[pack]` table
//! (E1, E2, E8, E10a), packs generated instances. The `run_experiments`
//! binary loops over the manifest and [`smoke`] is its one measurement
//! gate, what observing costs; wall time is measured by the repo benchmark
//! (`benchmark/`), not here.
//!
//! Tests assert on the *shape* of the results (who wins, by roughly what
//! factor); the goldens under `tests/golden/` pin every deterministic
//! column.

pub mod experiments;
pub mod scenario_cli;
pub mod smoke;
pub mod table;
