//! Runtime invariant auditing (the `audit` feature).
//!
//! The static lint (`snooze-audit lint`) keeps *sources* of
//! nondeterminism out of the tree; this module catches *semantic*
//! violations while a simulation runs: a clock that moves backwards, a
//! hypervisor handing out more resources than the node has, a pheromone
//! value escaping its Max–Min bounds. Checks are written with
//! [`crate::audit_invariant!`], which compiles to nothing unless the
//! expanding crate enables its `audit` feature, so the hot path pays
//! zero cost in normal builds.
//!
//! Violations are routed to a process-wide [`InvariantSink`]. With no
//! sink installed a violation panics — enabling `audit` without wiring a
//! sink is still a fail-fast configuration. Tests that want to *observe*
//! violations (including the lint's own fixture tests) install a
//! [`CollectingSink`] and inspect what accumulated.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// One invariant violation, as reported by an `audit_invariant!` site.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Subsystem the check lives in (`"engine"`, `"hypervisor"`, `"aco"`, …).
    pub domain: &'static str,
    /// Stable identifier of the specific invariant.
    pub rule: &'static str,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}/{}] {}", self.domain, self.rule, self.detail)
    }
}

/// Receiver for invariant violations.
pub trait InvariantSink: Send {
    /// Called once per violation, at the site that detected it.
    fn on_violation(&mut self, violation: &Violation);
}

/// Sink that appends violations to a shared list — install it, run a
/// scenario, then inspect [`CollectingSink::handle`]'s contents.
pub struct CollectingSink {
    store: Arc<Mutex<Vec<Violation>>>,
}

impl CollectingSink {
    /// A new sink plus the handle its violations will accumulate in.
    pub fn new() -> (Self, Arc<Mutex<Vec<Violation>>>) {
        let store = Arc::new(Mutex::new(Vec::new()));
        (
            CollectingSink {
                store: Arc::clone(&store),
            },
            store,
        )
    }
}

impl InvariantSink for CollectingSink {
    fn on_violation(&mut self, violation: &Violation) {
        self.store.lock().unwrap().push(violation.clone());
    }
}

/// Sink that panics on the first violation (the default behavior when no
/// sink is installed, made explicit).
pub struct PanicSink;

impl InvariantSink for PanicSink {
    fn on_violation(&mut self, violation: &Violation) {
        panic!("invariant violated: {violation}");
    }
}

fn sink_slot() -> std::sync::MutexGuard<'static, Option<Box<dyn InvariantSink>>> {
    static SLOT: OnceLock<Mutex<Option<Box<dyn InvariantSink>>>> = OnceLock::new();
    // A sink panicking (PanicSink, or the no-sink default) poisons the
    // mutex; the slot data is still coherent, so recover rather than
    // cascade panics into unrelated tests.
    SLOT.get_or_init(|| Mutex::new(None))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Install a process-wide sink, returning the previous one (if any).
// check-allow(uncalled): how a test collects violations instead of
// panicking on the first (`snooze-audit`'s runtime_invariants suite).
pub fn install_sink(sink: Box<dyn InvariantSink>) -> Option<Box<dyn InvariantSink>> {
    sink_slot().replace(sink)
}

/// Remove the installed sink, restoring panic-on-violation behavior.
// check-allow(uncalled): the other half of `install_sink`.
pub fn take_sink() -> Option<Box<dyn InvariantSink>> {
    sink_slot().take()
}

/// Report a violation to the installed sink, or panic if none is
/// installed. Called by `audit_invariant!`; usable directly for checks
/// that don't fit the macro's condition-plus-format shape.
pub fn report(domain: &'static str, rule: &'static str, detail: String) {
    let violation = Violation {
        domain,
        rule,
        detail,
    };
    let mut slot = sink_slot();
    match slot.as_mut() {
        Some(sink) => sink.on_violation(&violation),
        None => {
            drop(slot); // don't poison the slot for the unwinder
            panic!("invariant violated (no sink installed): {violation}");
        }
    }
}

/// Assert a runtime invariant, compiled away unless auditing is on.
///
/// ```ignore
/// audit_invariant!("hypervisor", "reserved-within-capacity",
///     reserved.fits_within(&capacity),
///     "reserved {reserved:?} exceeds capacity {capacity:?}");
/// ```
///
/// The condition is evaluated only when the *expanding* crate is built
/// with its `audit` feature (each simulation crate forwards its own
/// `audit` feature to `snooze-simcore/audit`), so release simulations
/// pay nothing for the checks.
#[macro_export]
macro_rules! audit_invariant {
    ($domain:expr, $rule:expr, $cond:expr, $($fmt:tt)+) => {
        if cfg!(feature = "audit") && !($cond) {
            $crate::invariant::report($domain, $rule, ::std::format!($($fmt)+));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is process-global, so these tests serialize on a lock to
    // avoid cross-test interference under the parallel test harness.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn collecting_sink_accumulates() {
        let _gate = serial();
        let (sink, store) = CollectingSink::new();
        let prev = install_sink(Box::new(sink));
        report("test", "rule-a", "first".to_string());
        report("test", "rule-b", "second".to_string());
        let got: Vec<String> = store
            .lock()
            .unwrap()
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(got, vec!["[test/rule-a] first", "[test/rule-b] second"]);
        take_sink();
        if let Some(p) = prev {
            install_sink(p);
        }
    }

    #[test]
    fn violation_formats_with_domain_and_rule() {
        let v = Violation {
            domain: "engine",
            rule: "monotonic-clock",
            detail: "t=3 < t=5".into(),
        };
        assert_eq!(v.to_string(), "[engine/monotonic-clock] t=3 < t=5");
    }
}
