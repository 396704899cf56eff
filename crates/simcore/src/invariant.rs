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
//! Violations stay on the thread that found them: [`collect`] runs a
//! closure with a collector active on the calling thread and returns
//! what it gathered. With no collector active a violation panics —
//! enabling `audit` without collecting is still a fail-fast
//! configuration. Two threads collecting at once never see each
//! other's violations, so independent runs need no shared state.

use std::cell::RefCell;
use std::fmt;

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

thread_local! {
    /// The calling thread's active collector, if any.
    static COLLECTOR: RefCell<Option<Vec<Violation>>> = const { RefCell::new(None) };
}

/// Run `f` with a fresh collector active on this thread and return its
/// result with the violations reported meanwhile, in report order. The
/// previous collector (an enclosing `collect`'s, or none) is restored
/// afterwards, also when `f` unwinds.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Vec<Violation>) {
    struct Restore(Option<Vec<Violation>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            COLLECTOR.set(self.0.take());
        }
    }
    let restore = Restore(COLLECTOR.replace(Some(Vec::new())));
    let out = f();
    let got = COLLECTOR.take().unwrap_or_default();
    drop(restore);
    (out, got)
}

/// Report a violation to this thread's collector, or panic if none is
/// active. Called by `audit_invariant!`; usable directly for checks
/// that don't fit the macro's condition-plus-format shape.
pub fn report(domain: &'static str, rule: &'static str, detail: String) {
    let violation = Violation {
        domain,
        rule,
        detail,
    };
    let unheard = COLLECTOR.with_borrow_mut(|c| match c {
        Some(found) => {
            found.push(violation);
            None
        }
        None => Some(violation),
    });
    if let Some(violation) = unheard {
        panic!("invariant violated (no collector on this thread): {violation}");
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

    fn rendered(found: &[Violation]) -> Vec<String> {
        found.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn collecting_sink_accumulates() {
        let ((), found) = collect(|| {
            report("test", "rule-a", "first".to_string());
            report("test", "rule-b", "second".to_string());
        });
        assert_eq!(
            rendered(&found),
            ["[test/rule-a] first", "[test/rule-b] second"]
        );
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

    #[test]
    fn each_thread_collects_only_its_own_violations() {
        // Both threads report, meet, and report again, so each one's
        // collector is active while the other reports.
        let met = std::sync::Barrier::new(2);
        let run = |rule: &'static str| {
            collect(|| {
                report("test", rule, "before".to_string());
                met.wait();
                report("test", rule, "after".to_string());
            })
            .1
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run("a"));
            let b = s.spawn(|| run("b"));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(rendered(&a), ["[test/a] before", "[test/a] after"]);
        assert_eq!(rendered(&b), ["[test/b] before", "[test/b] after"]);
    }

    #[test]
    fn an_unwinding_collect_restores_the_enclosing_collector() {
        let ((), outer) = collect(|| {
            report("test", "outer", "kept".to_string());
            let unwound = std::panic::catch_unwind(|| {
                collect(|| {
                    report("test", "inner", "dropped".to_string());
                    panic!("the checked code failed");
                })
            });
            assert!(unwound.is_err());
            report("test", "outer", "still heard".to_string());
        });
        assert_eq!(
            rendered(&outer),
            ["[test/outer] kept", "[test/outer] still heard"]
        );
    }

    #[test]
    #[should_panic(expected = "no collector on this thread")]
    fn a_violation_with_no_collector_panics() {
        report("test", "unheard", "nobody collects".to_string());
    }
}
