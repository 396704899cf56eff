//! Trace-driven workloads (ROADMAP item 2(c)).
//!
//! Every workload the system ran before this crate was a synthetic
//! program — bursts and staggered random fleets. Credible energy/SLA
//! comparisons of consolidation algorithms are conventionally driven by
//! real or realistic traces instead, in the dslab-iaas style: a dataset
//! of VM requests (arrival, lifetime, reservation, time-varying demand)
//! replayed against the simulated cluster.
//!
//! The crate provides:
//!
//! - a **canonical trace format** ([`TraceRecord`]): one record per VM
//!   request with arrival time, lifetime, cpu/mem reservation, and a
//!   piecewise demand curve (fractions of the reservation in `[0, 1]`);
//! - deterministic, streaming, validating **CSV and JSONL readers and
//!   canonical writers** ([`csv`], [`jsonl`]) — malformed rows produce
//!   line-numbered [`TraceError`]s, never panics, and the writers are
//!   canonical so `JSONL → CSV → JSONL` round-trips byte-identically;
//! - a [`DatasetReader`] adapter trait so an external column layout
//!   (Azure-shaped, [`dataset`]) maps onto the canonical format;
//! - a **seeded synthetic generator** ([`gen`], surfaced as the
//!   `snooze-tracegen` binary) producing Azure-like distributions
//!   offline: diurnal arrival intensity, heavy-tailed lifetimes,
//!   correlated cpu/mem demand, flash-crowd overlays.
//!
//! Everything here sits on the simulation path (the audit lint's
//! `SIM_PATH` covers `crates/trace/src`): readers preserve input order,
//! iterate no hash containers, and draw no ambient entropy — the
//! generator is a pure function of its seed.

pub mod csv;
pub mod dataset;
pub mod error;
pub mod gen;
pub mod json;
pub mod jsonl;
pub mod record;

pub use dataset::{load_path, read_all, DatasetReader};
pub use error::TraceError;
pub use gen::{generate, GeneratorConfig};
pub use record::{CurvePoint, TraceRecord};
