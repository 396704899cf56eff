//! The exhaustive explorer: systematic interleaving search over engine
//! snapshots.
//!
//! From one bootstrapped engine state the explorer enumerates every
//! checker action — execute one pending event (chosen out of queue
//! order), drop an in-flight message, crash or restart a component from
//! the configured fault surface — applies each to the engine brought
//! back to the node's snapshot, and recurses, deduplicating on the
//! engine's canonical state fingerprint. Safety predicates are
//! evaluated at every distinct state; liveness predicates are evaluated
//! at the depth frontier by running a *fair suffix* (normal scheduled
//! execution for a bounded span) and requiring the goal to hold at its
//! end — "liveness by bounded depth plus fair closure".
//!
//! Determinism: action enumeration follows the engine's sorted pending
//! list and the configured `crashable` order, the visited set folds
//! fingerprints in insertion order, and the harnesses use the instant
//! (draw-free) network — so two explorations of the same harness
//! produce identical state counts, fingerprints and violations.
//!
//! Remaining fault budgets are mixed into the visited-set key: a state
//! reached with budget left can reach strictly more behaviors than the
//! same engine state with none, so the two must not deduplicate.
//!
//! ## What a transition costs
//!
//! An action runs one handler, which changes the core and at most one
//! component slot (its [`McEventDesc::target`]), so the explorer pays
//! for that slot, not the system. It tracks which snapshot the engine
//! equals apart from at most one dirty slot (`At`), and one restore
//! rule (`restore`) brings it to any other: nothing if it is already
//! there, a re-clone of the dirty slot and of the slots whose `Rc`
//! differs between the two snapshots otherwise, and a full restore only
//! after a fair suffix, which leaves it equal to no snapshot. A new state
//! is captured as a child sharing its parent's slots, and fingerprinted
//! from its parent's per-slot sub-fingerprints
//! (`snooze_simcore::mc`, "What a transition costs"). DESIGN.md, "What a
//! liveness probe costs", has the ledger.
//!
//! ## What a liveness probe costs
//!
//! Thousands of frontier states differ only in history the protocols
//! have forgotten half a second later, so their fair suffixes converge
//! and then repeat each other event for event. A probe therefore runs
//! its suffix in checkpoints ([`SUFFIX_CHECKPOINT`] apart) and, at each,
//! looks `(predicate, remaining horizon, fingerprint)` up in a
//! per-exploration verdict memo: a hit means an earlier probe already
//! ran from an equal state over an equal remaining span, and its verdict
//! is reused. This leans on nothing the visited set does not already
//! assume — states with equal fingerprints are equal
//! (`snooze_simcore::mc`), the suffix is deterministic scheduled
//! execution, and the fingerprint is time-shift invariant — so at an
//! equal remaining horizon the verdict is a function of the fingerprint.
//! The same caveat applies: a predicate must read only state the
//! fingerprint covers.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use snooze_scenario::mc_trace::McTraceStep;
use snooze_simcore::engine::{Component, ComponentId, Engine};
use snooze_simcore::mc::{McEventDesc, McPending, McState, SystemState};
use snooze_simcore::time::SimSpan;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Worklist discipline: depth-first dives to counterexamples fast;
/// breadth-first finds *shortest* counterexamples.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Depth-first search (stack worklist).
    Dfs,
    /// Breadth-first search (queue worklist).
    Bfs,
}

impl Strategy {
    /// Parse `"dfs"` / `"bfs"`.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "dfs" => Some(Strategy::Dfs),
            "bfs" => Some(Strategy::Bfs),
            _ => None,
        }
    }
}

/// Exploration limits and the fault-action surface.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Worklist discipline.
    pub strategy: Strategy,
    /// Maximum actions along any path; deeper states become the
    /// liveness frontier.
    pub max_depth: usize,
    /// Hard cap on distinct states; exploration stops (and the report
    /// says so) when reached.
    pub max_states: usize,
    /// How many in-flight messages may be dropped along one path.
    pub drop_budget: u32,
    /// How many crashes may be injected along one path.
    pub crash_budget: u32,
    /// How many restarts may be injected along one path.
    pub restart_budget: u32,
    /// Components the crash/restart actions may target.
    pub crashable: Vec<ComponentId>,
    /// Stop after this many violations (1 = stop at the first).
    pub max_violations: usize,
    /// Also reorder timers against each other (models local clock
    /// skew). Off by default: messages in flight are reorderable and
    /// droppable, but non-`Deliver` events fire in `(time, seq)` order —
    /// the standard asynchronous-network reduction. Timers still
    /// interleave freely with every delivery, which is where protocol
    /// races live; enabling this multiplies the state space by the
    /// timer-permutation count without adding behaviors a real run (or
    /// a real deployment without pathological clock skew) exhibits.
    pub reorder_timers: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            strategy: Strategy::Dfs,
            max_depth: 12,
            max_states: 200_000,
            drop_budget: 0,
            crash_budget: 0,
            restart_budget: 0,
            crashable: Vec::new(),
            max_violations: 1,
            reorder_timers: false,
        }
    }
}

/// Predicate body: `None` = holds, `Some(detail)` = violated.
pub type PredicateFn<C> = Box<dyn Fn(&Engine<C>) -> Option<String>>;

/// When (and how) a predicate is evaluated.
#[derive(Clone, Copy, Debug)]
pub enum PredicateKind {
    /// Must hold in **every** explored state.
    Safety,
    /// Must hold after a fair suffix of `within` virtual time from every
    /// depth-frontier (or quiescent) state.
    Liveness {
        /// Length of the fair suffix run before evaluation.
        within: SimSpan,
    },
}

/// A named invariant over engine states.
pub struct Predicate<C: Component> {
    /// Stable name, recorded in violations and trace documents.
    pub name: &'static str,
    /// Safety or bounded liveness.
    pub kind: PredicateKind,
    /// The check itself.
    pub check: PredicateFn<C>,
}

impl<C: Component> Predicate<C> {
    /// A safety predicate evaluated at every explored state.
    pub fn safety(
        name: &'static str,
        check: impl Fn(&Engine<C>) -> Option<String> + 'static,
    ) -> Self {
        Predicate {
            name,
            kind: PredicateKind::Safety,
            check: Box::new(check),
        }
    }

    /// A liveness predicate evaluated after a fair suffix of `within`.
    pub fn liveness(
        name: &'static str,
        within: SimSpan,
        check: impl Fn(&Engine<C>) -> Option<String> + 'static,
    ) -> Self {
        Predicate {
            name,
            kind: PredicateKind::Liveness { within },
            check: Box::new(check),
        }
    }
}

/// One checker action.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Execute the pending event at this ordinal of the sorted pending
    /// list.
    Execute {
        /// Index into [`Engine::mc_pending`].
        ordinal: usize,
    },
    /// Drop the in-flight message at this ordinal.
    Drop {
        /// Index into [`Engine::mc_pending`].
        ordinal: usize,
    },
    /// Crash a component from the fault surface.
    Crash {
        /// The victim.
        target: ComponentId,
    },
    /// Restart a crashed component from the fault surface.
    Restart {
        /// The component to revive.
        target: ComponentId,
    },
}

/// One step of a counterexample trace: the action plus the descriptor
/// words of what it acted on, revalidated during replay.
#[derive(Clone, Copy, Debug)]
pub struct TraceStep {
    /// The action taken.
    pub action: Action,
    /// [`McEventDesc::words`] of the affected event (for execute/drop),
    /// or `(4|5, target, 0)` for crash/restart.
    pub desc: (u64, u64, u64),
}

/// An invariant violation plus the path that reached it.
#[derive(Clone, Debug)]
pub struct McViolation {
    /// Name of the violated predicate.
    pub predicate: String,
    /// Human-readable description of the violating state.
    pub detail: String,
    /// Actions from the bootstrap state to the violation.
    pub trace: Vec<TraceStep>,
}

/// Exploration statistics and findings.
#[derive(Clone, Debug, Default)]
pub struct McReport {
    /// Distinct states discovered (after fingerprint dedup).
    pub explored: u64,
    /// Actions applied (edges of the explored graph).
    pub transitions: u64,
    /// Transitions that landed on an already-visited state.
    pub deduped: u64,
    /// Nodes cut at the depth bound.
    pub truncated: u64,
    /// Liveness evaluations performed: one per frontier state and
    /// liveness predicate, however its verdict was obtained.
    pub liveness_probes: u64,
    /// Probes whose fair suffix ran to its deadline; the other
    /// `liveness_probes - suffixes_run` took their verdict from a suffix
    /// an earlier probe had already run (see [`fair_suffix`]).
    pub suffixes_run: u64,
    /// Verdicts the memo holds when exploration ends: one per checkpoint
    /// a fair suffix passed before it knew its verdict (see
    /// [`fair_suffix`]). 0 with the memo off or no liveness predicate.
    pub memo_entries: u64,
    /// Deepest node expanded or probed.
    pub max_depth_reached: usize,
    /// True if the `max_states` cap stopped exploration early.
    pub hit_state_cap: bool,
    /// Order-sensitive fold of every visited state key: two runs explored
    /// identically iff `explored` and `fingerprint` both match.
    pub fingerprint: u64,
    /// Violations found, in discovery order.
    pub violations: Vec<McViolation>,
}

impl McReport {
    /// `[explored, transitions, deduped, truncated, liveness_probes,
    /// suffixes_run]`: what an exploration covered, the fingerprint
    /// aside.
    pub fn counts(&self) -> [u64; 6] {
        [
            self.explored,
            self.transitions,
            self.deduped,
            self.truncated,
            self.liveness_probes,
            self.suffixes_run,
        ]
    }
}

struct Node<C: Component> {
    snap: Rc<SystemState<C>>,
    depth: usize,
    drops: u32,
    crashes: u32,
    restarts: u32,
    trace: Vec<TraceStep>,
}

/// The snapshot the engine equals, apart from what ran since.
struct At<C: Component> {
    snap: Rc<SystemState<C>>,
    /// `None` while the engine *is* `snap`; `Some(slot)` once one action
    /// has run on it, which changed the core and, if any, `slot` (its
    /// [`McEventDesc::target`]).
    ran: Option<Option<ComponentId>>,
}

/// Bring the engine to snapshot `to` by the one restore rule: nothing
/// when it already is `to`; when it equals a snapshot but for at most one
/// slot, re-clone that slot and the slots whose `Rc` differs
/// ([`Engine::mc_restore_diff`]); when it equals none (after a fair
/// suffix), restore everything.
fn restore<C>(sim: &mut Engine<C>, at: &mut Option<At<C>>, to: &Rc<SystemState<C>>)
where
    C: Component + Clone,
    C::Msg: Clone,
{
    match at.take() {
        Some(At { snap, ran: None }) if Rc::ptr_eq(&snap, to) => {}
        Some(At { snap, ran }) => sim.mc_restore_diff(&snap, ran.flatten(), to),
        None => sim.mc_restore(to),
    }
    *at = Some(At {
        snap: Rc::clone(to),
        ran: None,
    });
}

/// Virtual time between two fingerprint checkpoints of a fair suffix.
/// On the failover harness (depth 10, one crash) at least 99.7 % of the
/// 14 568 probes are in an already-run state at their first checkpoint
/// at any spacing from 50 ms to 2 s, and 22 suffixes run to the end, so
/// the spacing trades the events a hit executes before it is recognised
/// against the fingerprints the checkpoints take, each of which re-folds
/// every slot because the clock has moved. With one multiply a word
/// ([`McHasher::word`](snooze_simcore::mc::McHasher::word)) 100 ms reads
/// faster than 500 ms and than 50 ms, for 3 574 memo entries (682 at
/// 500 ms, 7 189 at 50 ms). DESIGN.md, "What a liveness probe costs" and
/// "What a fingerprint word costs", has the tables.
const SUFFIX_CHECKPOINT: SimSpan = SimSpan::from_millis(100);

/// Verdicts of fair suffixes already run, keyed by `(predicate index,
/// remaining horizon in µs, state fingerprint)` at a checkpoint.
type VerdictMemo = BTreeMap<(usize, u64, u64), Option<String>>;

/// Evaluate liveness predicate `index` on the engine's current (released)
/// state: run the fair suffix of `within` and return `check`'s verdict
/// at its end, plus whether the suffix ran to that end.
///
/// With a memo the suffix stops at the first checkpoint whose key an
/// earlier suffix stored and reuses that verdict; either way the verdict
/// is stored under every checkpoint this suffix passed. The state the
/// probe starts from gets no key: the visited set has already
/// deduplicated frontier states, so such a key would almost never be
/// hit, and one entry per probe is what would make the memo grow with
/// the frontier. Checkpoints are absolute times and the last chunk is
/// the remainder, so a suffix that runs through ends exactly where one
/// `run_for(within)` would. `memo: None` is that single run — the
/// reference the tests compare against.
fn fair_suffix<C>(
    sim: &mut Engine<C>,
    index: usize,
    within: SimSpan,
    check: &PredicateFn<C>,
    memo: Option<&mut VerdictMemo>,
) -> (Option<String>, bool)
where
    C: Component + McState,
    C::Msg: McState,
{
    let deadline = sim.now() + within;
    let Some(memo) = memo else {
        sim.run_until(deadline);
        return (check(sim), true);
    };
    let mut passed = Vec::new();
    let mut at = sim.now() + SUFFIX_CHECKPOINT;
    let (verdict, ran) = loop {
        if at >= deadline {
            sim.run_until(deadline);
            break (check(sim), true);
        }
        sim.run_until(at);
        let key = (index, (deadline - at).0, sim.mc_fingerprint());
        if let Some(verdict) = memo.get(&key) {
            break (verdict.clone(), false);
        }
        passed.push(key);
        at += SUFFIX_CHECKPOINT;
    };
    for key in passed {
        memo.insert(key, verdict.clone());
    }
    (verdict, ran)
}

fn visit_key(state_fp: u64, drops: u32, crashes: u32, restarts: u32) -> u64 {
    let mut k = mix(state_fp, drops as u64);
    k = mix(k, crashes as u64);
    mix(k, restarts as u64)
}

fn apply<C>(sim: &mut Engine<C>, pending: &[McPending], action: Action) -> TraceStep
where
    C: Component + Clone + McState,
    C::Msg: Clone + McState,
{
    match action {
        Action::Execute { ordinal } => {
            let p = pending[ordinal];
            let found = sim.mc_execute_pending(&p);
            assert!(found, "enumerated pending event vanished");
            TraceStep {
                action,
                desc: p.desc.words(),
            }
        }
        Action::Drop { ordinal } => {
            let p = pending[ordinal];
            let found = sim.mc_drop_pending(&p);
            assert!(found, "enumerated pending event vanished");
            TraceStep {
                action,
                desc: p.desc.words(),
            }
        }
        Action::Crash { target } => {
            sim.mc_inject_crash(target);
            TraceStep {
                action,
                desc: (4, u64::from(target), 0),
            }
        }
        Action::Restart { target } => {
            sim.mc_inject_restart(target);
            TraceStep {
                action,
                desc: (5, u64::from(target), 0),
            }
        }
    }
}

/// Exhaustively explore the state space reachable from the engine's
/// current state under `config`, checking `predicates`. The engine is
/// restored to its pre-exploration state before returning.
pub fn explore<C>(sim: &mut Engine<C>, predicates: &[Predicate<C>], config: &McConfig) -> McReport
where
    C: Component + Clone + McState,
    C::Msg: Clone + McState,
{
    explore_with(sim, predicates, config, true)
}

/// [`explore`], with the verdict memo switchable: `memoize: false` runs
/// every fair suffix to its end, which is what the memo must be
/// indistinguishable from.
fn explore_with<C>(
    sim: &mut Engine<C>,
    predicates: &[Predicate<C>],
    config: &McConfig,
    memoize: bool,
) -> McReport
where
    C: Component + Clone + McState,
    C::Msg: Clone + McState,
{
    let mut report = McReport {
        fingerprint: FNV_OFFSET,
        ..McReport::default()
    };
    sim.mc_gc();
    let root = Rc::new(sim.mc_snapshot());
    let root_key = visit_key(
        sim.mc_fingerprint(),
        config.drop_budget,
        config.crash_budget,
        config.restart_budget,
    );
    let mut visited: BTreeSet<u64> = BTreeSet::new();
    visited.insert(root_key);
    report.fingerprint = mix(report.fingerprint, root_key);
    let mut memo = memoize.then(VerdictMemo::new);
    let mut at = Some(At {
        snap: Rc::clone(&root),
        ran: None,
    });
    let mut work: VecDeque<Node<C>> = VecDeque::new();
    work.push_back(Node {
        snap: Rc::clone(&root),
        depth: 0,
        drops: config.drop_budget,
        crashes: config.crash_budget,
        restarts: config.restart_budget,
        trace: Vec::new(),
    });

    'search: loop {
        let node = match config.strategy {
            Strategy::Dfs => work.pop_back(),
            Strategy::Bfs => work.pop_front(),
        };
        let Some(node) = node else { break };
        report.max_depth_reached = report.max_depth_reached.max(node.depth);
        restore(sim, &mut at, &node.snap);

        let mut violated = false;
        for p in predicates {
            if !matches!(p.kind, PredicateKind::Safety) {
                continue;
            }
            if let Some(detail) = (p.check)(sim) {
                violated = true;
                report.violations.push(McViolation {
                    predicate: p.name.to_string(),
                    detail,
                    trace: node.trace.clone(),
                });
                if report.violations.len() >= config.max_violations {
                    break 'search;
                }
            }
        }
        if violated {
            // A violating state is a counterexample, not a frontier to
            // expand — its successors would only repeat the finding.
            continue;
        }

        let pending = sim.mc_pending();
        let mut actions: Vec<Action> = Vec::new();
        // Without `reorder_timers`, only the earliest non-Deliver event
        // is executable: the pending list is (time, seq)-sorted, so this
        // pins timers to their real firing order while still interleaving
        // each firing freely against every message delivery.
        let mut timer_slot_free = true;
        for (ordinal, p) in pending.iter().enumerate() {
            let is_deliver = matches!(p.desc, McEventDesc::Deliver { .. });
            if is_deliver || config.reorder_timers {
                actions.push(Action::Execute { ordinal });
            } else if timer_slot_free {
                timer_slot_free = false;
                actions.push(Action::Execute { ordinal });
            }
            // Dropping a message to a dead component is indistinguishable
            // from executing it (the engine discards silently), so the
            // drop action is only offered where it creates new behavior.
            if node.drops > 0 && p.dst_alive && is_deliver {
                actions.push(Action::Drop { ordinal });
            }
        }
        if node.crashes > 0 {
            for &t in &config.crashable {
                if sim.is_alive(t) {
                    actions.push(Action::Crash { target: t });
                }
            }
        }
        if node.restarts > 0 {
            for &t in &config.crashable {
                if !sim.is_alive(t) {
                    actions.push(Action::Restart { target: t });
                }
            }
        }

        if node.depth >= config.max_depth || actions.is_empty() {
            if node.depth >= config.max_depth {
                report.truncated += 1;
            }
            for (index, p) in predicates.iter().enumerate() {
                let PredicateKind::Liveness { within } = p.kind else {
                    continue;
                };
                restore(sim, &mut at, &node.snap);
                // The suffix leaves the engine equal to no snapshot.
                at = None;
                sim.mc_release();
                let (verdict, ran) = fair_suffix(sim, index, within, &p.check, memo.as_mut());
                report.liveness_probes += 1;
                report.suffixes_run += u64::from(ran);
                if let Some(detail) = verdict {
                    report.violations.push(McViolation {
                        predicate: p.name.to_string(),
                        detail,
                        trace: node.trace.clone(),
                    });
                    if report.violations.len() >= config.max_violations {
                        break 'search;
                    }
                }
            }
            continue;
        }

        for action in actions {
            restore(sim, &mut at, &node.snap);
            let touched = match action {
                Action::Execute { ordinal } => pending[ordinal].desc.target(),
                Action::Drop { .. } => None,
                Action::Crash { target } | Action::Restart { target } => Some(target),
            };
            at = Some(At {
                snap: Rc::clone(&node.snap),
                ran: Some(touched),
            });
            let step = apply(sim, &pending, action);
            report.transitions += 1;
            sim.mc_gc();
            let (drops, crashes, restarts) = match action {
                Action::Drop { .. } => (node.drops - 1, node.crashes, node.restarts),
                Action::Crash { .. } => (node.drops, node.crashes - 1, node.restarts),
                Action::Restart { .. } => (node.drops, node.crashes, node.restarts - 1),
                Action::Execute { .. } => (node.drops, node.crashes, node.restarts),
            };
            let fingerprint = sim.mc_fingerprint_after(&node.snap, touched);
            let key = visit_key(fingerprint, drops, crashes, restarts);
            if !visited.insert(key) {
                report.deduped += 1;
                continue;
            }
            report.fingerprint = mix(report.fingerprint, key);
            if visited.len() >= config.max_states {
                report.hit_state_cap = true;
                break 'search;
            }
            let mut trace = node.trace.clone();
            trace.push(step);
            let snap = Rc::new(sim.mc_snapshot_after(&node.snap, touched));
            at = Some(At {
                snap: Rc::clone(&snap),
                ran: None,
            });
            work.push_back(Node {
                snap,
                depth: node.depth + 1,
                drops,
                crashes,
                restarts,
                trace,
            });
        }
    }

    restore(sim, &mut at, &root);
    report.explored = visited.len() as u64;
    report.memo_entries = memo.map_or(0, |m| m.len() as u64);
    report
}

/// Re-apply a recorded trace to a freshly bootstrapped engine. Each
/// execute/drop step addresses its ordinal in the engine's (sorted,
/// deterministic) pending list and is validated against the recorded
/// event descriptor, so a trace replayed against drifted code fails
/// loudly instead of silently exploring a different schedule.
pub fn replay<C>(sim: &mut Engine<C>, steps: &[TraceStep]) -> Result<(), String>
where
    C: Component + Clone + McState,
    C::Msg: Clone + McState,
{
    for (i, step) in steps.iter().enumerate() {
        match step.action {
            Action::Execute { ordinal } | Action::Drop { ordinal } => {
                sim.mc_gc();
                let pending = sim.mc_pending();
                let Some(p) = pending.get(ordinal).copied() else {
                    return Err(format!(
                        "replay step {i}: ordinal {ordinal} out of range ({} pending)",
                        pending.len()
                    ));
                };
                let got = p.desc.words();
                if got != step.desc {
                    return Err(format!(
                        "replay step {i}: event descriptor mismatch: recorded {:?}, found {got:?}",
                        step.desc
                    ));
                }
                let found = if matches!(step.action, Action::Execute { .. }) {
                    sim.mc_execute_pending(&p)
                } else {
                    sim.mc_drop_pending(&p)
                };
                if !found {
                    return Err(format!("replay step {i}: pending event vanished"));
                }
            }
            Action::Crash { target } => sim.mc_inject_crash(target),
            Action::Restart { target } => sim.mc_inject_restart(target),
        }
    }
    // Leave the engine resumable: events the trace left in flight are
    // re-timed so normal execution (e.g. a liveness fair suffix) can
    // take over from the replayed state.
    sim.mc_release();
    Ok(())
}

/// Convert an in-memory trace to scenario-document steps.
pub fn trace_to_steps(trace: &[TraceStep]) -> Vec<McTraceStep> {
    trace
        .iter()
        .map(|s| {
            let (action, ordinal) = match s.action {
                Action::Execute { ordinal } => ("execute", ordinal as u64),
                Action::Drop { ordinal } => ("drop", ordinal as u64),
                Action::Crash { .. } => ("crash", 0),
                Action::Restart { .. } => ("restart", 0),
            };
            McTraceStep {
                action: action.to_string(),
                ordinal,
                kind: s.desc.0,
                a: s.desc.1,
                b: s.desc.2,
            }
        })
        .collect()
}

/// Parse scenario-document steps back into replayable actions.
pub fn steps_from_doc(steps: &[McTraceStep]) -> Result<Vec<TraceStep>, String> {
    steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let action = match s.action.as_str() {
                "execute" => Action::Execute {
                    ordinal: s.ordinal as usize,
                },
                "drop" => Action::Drop {
                    ordinal: s.ordinal as usize,
                },
                "crash" => Action::Crash {
                    target: ComponentId(s.a as usize),
                },
                "restart" => Action::Restart {
                    target: ComponentId(s.a as usize),
                },
                other => return Err(format!("trace step {i}: unknown action `{other}`")),
            };
            Ok(TraceStep {
                action,
                desc: (s.kind, s.a, s.b),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::election::ElectionHarness;
    use crate::failover::FailoverHarness;

    fn config(max_depth: usize, crashable: Vec<ComponentId>) -> McConfig {
        McConfig {
            max_depth,
            crash_budget: 1,
            crashable,
            max_violations: 4,
            ..McConfig::default()
        }
    }

    /// Explore twice from the same bootstrapped engine — with the memo,
    /// then with every suffix run to its end — and require reports that
    /// differ in `suffixes_run` alone.
    fn assert_memo_matches_reference<C>(
        what: &str,
        sim: &mut Engine<C>,
        predicates: &[Predicate<C>],
        config: &McConfig,
    ) -> McReport
    where
        C: Component + Clone + McState,
        C::Msg: Clone + McState,
    {
        let memo = explore_with(sim, predicates, config, true);
        let reference = explore_with(sim, predicates, config, false);
        let counts = |r: &McReport| {
            (
                (r.explored, r.transitions, r.deduped, r.truncated),
                (r.liveness_probes, r.max_depth_reached, r.hit_state_cap),
                r.fingerprint,
            )
        };
        assert_eq!(counts(&memo), counts(&reference), "{what}: counts");
        let findings = |r: &McReport| -> Vec<_> {
            r.violations
                .iter()
                .map(|v| {
                    (
                        v.predicate.clone(),
                        v.detail.clone(),
                        trace_to_steps(&v.trace),
                    )
                })
                .collect()
        };
        assert_eq!(findings(&memo), findings(&reference), "{what}: violations");
        assert_eq!(reference.suffixes_run, reference.liveness_probes);
        assert!(
            memo.suffixes_run < memo.liveness_probes,
            "{what}: the memo served no probe ({} suffixes for {} probes)",
            memo.suffixes_run,
            memo.liveness_probes
        );
        memo
    }

    #[test]
    fn memo_matches_reference_on_election_and_failover() {
        let mut h = ElectionHarness::new(3, false, 5);
        let (preds, cfg) = (h.predicates(), config(8, h.contenders.clone()));
        let clean = assert_memo_matches_reference("election", &mut h.sim, &preds, &cfg);
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);

        let mut h = ElectionHarness::new(3, true, 5);
        let (preds, cfg) = (h.predicates(), config(8, h.contenders.clone()));
        let bug = assert_memo_matches_reference("seeded bug", &mut h.sim, &preds, &cfg);
        assert!(
            !bug.violations.is_empty(),
            "the seeded bug must be visible for the comparison to cover a failing verdict"
        );

        let mut h = FailoverHarness::new(3, 2, 10);
        let (preds, cfg) = (h.predicates(), config(6, h.crashable()));
        let clean = assert_memo_matches_reference("failover", &mut h.sim, &preds, &cfg);
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);
    }

    #[test]
    fn memo_entries_are_reported_only_for_a_live_memo() {
        let entries = |memoize: bool, liveness: bool| {
            let mut h = ElectionHarness::new(3, false, 5);
            let mut preds = h.predicates();
            if !liveness {
                preds.retain(|p| matches!(p.kind, PredicateKind::Safety));
            }
            let cfg = config(6, h.contenders.clone());
            explore_with(&mut h.sim, &preds, &cfg, memoize).memo_entries
        };
        assert!(
            entries(true, true) > 0,
            "a memoized liveness run stores verdicts"
        );
        assert_eq!(entries(false, true), 0, "memo off");
        assert_eq!(entries(true, false), 0, "no liveness predicate");
    }

    #[test]
    fn chunked_suffix_ends_where_one_run_would() {
        // 3.23 s: whole checkpoints and a remainder at every spacing
        // measured (50, 100, 250 and 500 ms).
        let within = SimSpan::from_millis(3_230);
        assert!(!within.0.is_multiple_of(SUFFIX_CHECKPOINT.0));
        let mut h = ElectionHarness::new(3, false, 5);
        let start = h.sim.mc_snapshot();
        let end_state = |sim: &Engine<_>| {
            (
                sim.now(),
                sim.events_executed(),
                sim.digest(),
                sim.mc_fingerprint(),
            )
        };

        h.sim.run_for(within);
        let single = end_state(&h.sim);

        h.sim.mc_restore(&start);
        let check: PredicateFn<_> = Box::new(|_| None);
        let mut memo = VerdictMemo::new();
        let (verdict, ran) = fair_suffix(&mut h.sim, 0, within, &check, Some(&mut memo));
        assert_eq!((verdict, ran), (None, true));
        assert_eq!(end_state(&h.sim), single);
        assert_eq!(
            memo.len() as u64,
            within.0 / SUFFIX_CHECKPOINT.0,
            "one key per checkpoint before the deadline"
        );
        assert!(memo.keys().all(|&(_, remaining, _)| remaining > 0));
    }
}
