//! Observability primitives for the Snooze simulation suite.
//!
//! This crate is deliberately *foundation-level*: it knows nothing about
//! the simulation engine, actors or experiments. It defines
//!
//! - [`span::SpanLog`] — an append-only log of causally linked, timed
//!   spans with deterministic sequence-counter ids (never wall clock),
//! - [`label::LabelSet`] — sorted label sets for dimensional metrics
//!   (`heartbeat_missed{role="gm"}`),
//! - [`window::WindowLog`] — fixed-width sim-time windows aggregating
//!   counter deltas, gauge boundary values and per-window histogram
//!   statistics, with JSONL/CSV trajectory exports,
//! - exporters — [`chrome`] (trace-event JSON loadable in Perfetto /
//!   `about://tracing`), [`prometheus`] (text exposition format) and
//!   [`jsonl`] (one JSON object per line),
//!
//! all of which are byte-deterministic: two identical logs render to
//! identical bytes, so two same-seed simulation runs produce
//! byte-identical export files. `snooze-simcore` builds its engine-level
//! span plumbing and labeled [`MetricsRegistry`] on top of these types;
//! this crate must therefore never depend on simcore.
//!
//! Times are plain `u64` microseconds throughout — the same unit as the
//! simulator's `SimTime` and, conveniently, the unit of the Chrome
//! trace-event `ts`/`dur` fields.

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod jsonl;
pub mod label;
pub mod prometheus;
pub mod span;
pub mod window;

pub use label::LabelSet;
pub use span::{LabelValue, SpanId, SpanLog, SpanRecord};
pub use window::{WindowKind, WindowLog, WindowRow};

/// FNV-1a 64-bit offset basis (same constant simcore's event digest uses).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a running FNV-1a 64-bit hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
    }
}
