//! Model-checking counterexample traces as scenario documents.
//!
//! When the `snooze-mc` checker finds an invariant violation, the path
//! from the initial state to the violating state is a sequence of
//! explorer actions (execute pending event *k*, drop a message, crash
//! or restart a component). [`McTraceDoc`] is that trace as plain data,
//! serialized through the same dependency-free TOML subset every other
//! scenario file uses — so counterexamples are checked in under
//! `scenarios/`, diffed in review, and replayed as regression tests.
//!
//! The document also records how to rebuild the harness the trace ran
//! against (harness kind, topology, seeded bug, bootstrap horizon): a
//! trace is only meaningful relative to its initial state. Replay
//! itself lives in `snooze-mc` (the only crate that can drive the
//! engine's exploration hooks); this module is just the data + format.

use std::collections::BTreeMap;

use crate::toml::{parse, render, Reader, Value};

/// One explorer action of a counterexample trace.
///
/// `execute` and `drop` address the *ordinal* of the target event in
/// the engine's deterministic pending list at that point of the replay;
/// `kind`/`a`/`b` are the event descriptor words
/// ([`McEventDesc::words`](snooze_simcore::mc::McEventDesc::words)) the
/// original run saw, revalidated on replay so a drifted trace fails
/// loudly instead of replaying a different schedule. For `crash` and
/// `restart`, `a` is the target component id and `ordinal`/`kind`/`b`
/// are zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct McTraceStep {
    /// `"execute"`, `"drop"`, `"crash"` or `"restart"`.
    pub action: String,
    /// Pending-list ordinal (execute/drop only).
    pub ordinal: u64,
    /// Event-descriptor discriminant (execute/drop only).
    pub kind: u64,
    /// First descriptor word (or the crash/restart target id).
    pub a: u64,
    /// Second descriptor word.
    pub b: u64,
}

/// A replayable model-checking counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct McTraceDoc {
    /// Document name (conventionally the scenario file stem).
    pub name: String,
    /// Harness kind: `"election"` or `"failover"`.
    pub harness: String,
    /// Election harness: number of contenders.
    pub contenders: u64,
    /// Failover harness: number of GMs.
    pub gms: u64,
    /// Failover harness: number of LCs.
    pub lcs: u64,
    /// Whether the known-wrong election variant was seeded.
    pub seeded_bug: bool,
    /// Virtual seconds of normal execution before exploration began.
    pub bootstrap_secs: u64,
    /// Name of the violated predicate.
    pub predicate: String,
    /// Human-readable description of the violating state.
    pub detail: String,
    /// The action path from the bootstrap state to the violation.
    pub steps: Vec<McTraceStep>,
}

impl McTraceDoc {
    /// Render as a canonical TOML document.
    pub fn to_toml(&self) -> String {
        let mut root = BTreeMap::new();
        root.insert("name".into(), Value::Str(self.name.clone()));
        root.insert("harness".into(), Value::Str(self.harness.clone()));
        root.insert("contenders".into(), Value::Int(self.contenders as i64));
        root.insert("gms".into(), Value::Int(self.gms as i64));
        root.insert("lcs".into(), Value::Int(self.lcs as i64));
        root.insert("seeded_bug".into(), Value::Bool(self.seeded_bug));
        root.insert(
            "bootstrap_secs".into(),
            Value::Int(self.bootstrap_secs as i64),
        );
        root.insert("predicate".into(), Value::Str(self.predicate.clone()));
        root.insert("detail".into(), Value::Str(self.detail.clone()));
        let steps: Vec<BTreeMap<String, Value>> = self
            .steps
            .iter()
            .map(|s| {
                let mut t = BTreeMap::new();
                t.insert("action".into(), Value::Str(s.action.clone()));
                t.insert("ordinal".into(), Value::Int(s.ordinal as i64));
                t.insert("kind".into(), Value::Int(s.kind as i64));
                t.insert("a".into(), Value::Int(s.a as i64));
                t.insert("b".into(), Value::Int(s.b as i64));
                t
            })
            .collect();
        root.insert("step".into(), Value::TableArray(steps));
        render(&root)
    }

    /// Parse a document previously written by [`McTraceDoc::to_toml`].
    pub fn from_toml(text: &str) -> Result<McTraceDoc, String> {
        let root = parse(text)?;
        decode(&Reader::new(&root, "mc trace")).map_err(|e| format!("mc trace: {e}"))
    }
}

fn decode(root: &Reader<'_>) -> Result<McTraceDoc, String> {
    let steps = root.tables("step")?.map(|t| {
        let action = t.str("action")?;
        if !matches!(action, "execute" | "drop" | "crash" | "restart") {
            return Err(format!("step: unknown action `{action}`"));
        }
        t.finish(McTraceStep {
            action: action.into(),
            ordinal: t.int("ordinal")?,
            kind: t.int("kind")?,
            a: t.int("a")?,
            b: t.int("b")?,
        })
    });
    root.finish(McTraceDoc {
        name: root.str("name")?.into(),
        harness: root.str("harness")?.into(),
        contenders: root.int("contenders")?,
        gms: root.int("gms")?,
        lcs: root.int("lcs")?,
        seeded_bug: root.bool("seeded_bug")?,
        bootstrap_secs: root.int("bootstrap_secs")?,
        predicate: root.str("predicate")?.into(),
        detail: root.str("detail")?.into(),
        steps: steps.collect::<Result<_, String>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> McTraceDoc {
        McTraceDoc {
            name: "double-leader".into(),
            harness: "election".into(),
            contenders: 3,
            gms: 0,
            lcs: 0,
            seeded_bug: true,
            bootstrap_secs: 5,
            predicate: "single-live-leader".into(),
            detail: "2 live leaders".into(),
            steps: vec![
                McTraceStep {
                    action: "crash".into(),
                    ordinal: 0,
                    kind: 0,
                    a: 1,
                    b: 0,
                },
                McTraceStep {
                    action: "execute".into(),
                    ordinal: 2,
                    kind: 3,
                    a: 2,
                    b: 0xE1EC,
                },
                McTraceStep {
                    action: "drop".into(),
                    ordinal: 0,
                    kind: 2,
                    a: 2,
                    b: 0,
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_toml() {
        let doc = sample();
        let text = doc.to_toml();
        let back = McTraceDoc::from_toml(&text).expect("parses");
        assert_eq!(back, doc);
        // The rendering is canonical: render(parse(x)) == x.
        assert_eq!(back.to_toml(), text);
    }

    #[test]
    fn missing_fields_error_cleanly() {
        let err = McTraceDoc::from_toml("name = \"x\"\n").unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let bad = sample().to_toml().replace("\"crash\"", "\"explode\"");
        let err = McTraceDoc::from_toml(&bad).unwrap_err();
        assert!(err.contains("unknown action"), "{err}");
        let bad = sample().to_toml().replace("ordinal = 2", "ordinal = -2");
        let err = McTraceDoc::from_toml(&bad).unwrap_err();
        let want = "mc trace: `ordinal` in step must be a non-negative integer";
        assert_eq!(err, want);
    }

    #[test]
    fn empty_step_list_is_allowed() {
        let mut doc = sample();
        doc.steps.clear();
        // A violation in the *initial* state has an empty trace.
        let text = doc.to_toml();
        assert_eq!(McTraceDoc::from_toml(&text).expect("parses"), doc);
    }
}
