//! # snooze-scenario — the declarative scenario layer
//!
//! Everything a Snooze experiment is — topology, configuration, workload
//! program, fault schedule, probe points — expressed as plain data
//! ([`spec::ScenarioSpec`]), serialized as TOML, and compiled down to
//! the same live system the hand-written harnesses built. One scenario
//! *file* ([`spec::ScenarioDoc`]) is a whole experiment: a base table,
//! `[[sweep]]` blocks whose array leaves generate the runs (zipped within
//! a block, crossed between blocks — E14's 8 × 3 grid is two blocks),
//! `[[variant]]` patches for runs that differ in kind, `{placeholders}`
//! in names, and `[override.smoke]` for the reduced CI shape. A document
//! with a `[pack]` table runs no hierarchy: each of its runs packs
//! generated instances with one registry consolidator ([`pack`]). The
//! checked-in `scenarios/*.toml` are the only definition of E1–E14.
//!
//! The layers:
//!
//! * [`toml`] — a dependency-free TOML subset: parser, canonical writer,
//!   `deep_merge` (variant expansion) and the [`toml::Reader`] every
//!   decoder takes its typed fields through.
//! * [`spec`] — the schema, its decoder, and document expansion (the
//!   grammar is in its module docs). Documents ([`spec::ScenarioDoc`])
//!   round-trip through TOML; specs are decoded only.
//! * [`live`] — the deployed side: engine + system stack + scripted
//!   client, the VM-id allocator, and the workload builders.
//! * [`compile`] — spec → [`live::LiveSystem`], plus the generic phase
//!   runner ([`compile::run`]) that interprets run / settle / sample /
//!   fault+observe programs and returns a [`compile::ScenarioOutcome`];
//!   [`compile::run_group`] runs specs that differ only in power model
//!   as one engine, one meter per model.
//! * [`pack`] — the other run kind: its spec, its decoder and its runner
//!   ([`pack::run`], one [`pack::PackOutcome`] per run).
//! * [`mc_trace`] — model-checking counterexamples from `snooze-mc` as
//!   replayable scenario documents, on the same TOML machinery.
//!
//! Determinism contract: a spec plus its seed fully determines the event
//! stream. Probe points split `run_until` calls but schedule nothing, so
//! digests and event counts are unchanged by observation.

pub mod compile;
pub mod incident;
pub mod live;
pub mod mc_trace;
pub mod pack;
pub mod spec;
pub mod toml;

pub use compile::{
    compile, run, run_group, FaultOutcome, GroupRun, LcSample, Member, ProbeSample,
    ScenarioOutcome, ScenarioRun, SloAlert, Violation, WindowStatus,
};
pub use incident::IncidentDoc;
pub use live::{burst, deploy_hierarchy, vm_item, LiveSystem, VmIdAlloc};
pub use mc_trace::{McTraceDoc, McTraceStep};
pub use spec::{RunSpec, ScenarioDoc, ScenarioSpec};
