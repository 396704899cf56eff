#![warn(missing_docs)]

//! # snooze-audit
//!
//! Determinism auditing for the Snooze workspace, in two layers:
//!
//! 1. **Static** — [`lint`]: a dependency-free text/AST-lite analysis
//!    that bans sources of nondeterminism at their origin (hash-order
//!    iteration, wall-clock reads, ambient entropy, exact float
//!    comparisons, unwraps in message handlers), uncalled `pub fn`s and
//!    per-field `String`s in render paths. Run it with
//!    `snooze-audit lint`; suppress individual sites with
//!    `// audit-allow(rule): reason` or curated entries in
//!    `audit.allowlist`.
//!
//! 2. **Dynamic** — [`determinism`]: a two-run replay check
//!    (`snooze-audit determinism`) that diffs event and span digests of
//!    identical-seed runs.
//!
//! The two layers are complementary: the lint catches what the type
//! system can't before it ships, and the replay diff is the end-to-end
//! oracle. What a run must never do (a clock that moves backwards, a
//! hypervisor that mints reservations, two live GLs) is checked
//! elsewhere: local checks are `debug_assert!`s at their sites, and
//! system predicates live in `snooze::invariants`.

pub mod determinism;
pub mod lint;
pub mod report;
