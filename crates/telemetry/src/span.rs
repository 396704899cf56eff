//! Causal spans: timed intervals with parent/child links.
//!
//! A [`SpanLog`] is an append-only arena of [`SpanRecord`]s. Ids are
//! dense 1-based sequence numbers handed out in open order — fully
//! deterministic, no wall clock, no randomness — so a simulation that
//! opens spans in a deterministic order produces an identical log every
//! run. The log keeps a running FNV-1a digest of every mutation
//! (open/close/label), which determinism audits can compare across runs
//! without serialising anything.

use crate::{fnv1a, FNV_OFFSET};

/// Identifies a span within one [`SpanLog`]. Ids are dense and 1-based;
/// id `n` is the `n`-th span opened.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

/// One timed, causally linked interval.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// The span this one is causally nested under, if any.
    pub parent: Option<SpanId>,
    /// Static operation name (e.g. `"gl.dispatch"`).
    pub name: &'static str,
    /// Track the span runs on — simcore uses the component index, so a
    /// Chrome trace renders one lane per simulated actor.
    pub track: u64,
    /// Open time, microseconds of virtual time.
    pub start_us: u64,
    /// Close time, microseconds; `None` while the span is still open
    /// (e.g. its actor crashed before finishing the operation).
    pub end_us: Option<u64>,
    /// Key/value annotations (VM ids, outcomes, …), in insertion order.
    pub labels: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// Duration if closed, clamping backwards clocks to zero.
    pub fn duration_us(&self) -> Option<u64> {
        self.end_us.map(|e| e.saturating_sub(self.start_us))
    }

    /// First label value recorded under `key`.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Append-only log of spans with deterministic ids and a running digest.
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    spans: Vec<SpanRecord>,
    digest: u64,
}

impl SpanLog {
    /// Empty log.
    pub fn new() -> Self {
        SpanLog {
            spans: Vec::new(),
            digest: FNV_OFFSET,
        }
    }

    /// Open a span at `at_us` on `track`, optionally nested under
    /// `parent`, and return its id.
    pub fn open(
        &mut self,
        name: &'static str,
        track: u64,
        parent: Option<SpanId>,
        at_us: u64,
    ) -> SpanId {
        let id = SpanId(self.spans.len() as u64 + 1);
        self.fold(1, id.0, at_us, name.as_bytes());
        self.spans.push(SpanRecord {
            id,
            parent,
            name,
            track,
            start_us: at_us,
            end_us: None,
            labels: Vec::new(),
        });
        id
    }

    /// Close span `id` at `at_us`. Closing an already-closed or unknown
    /// span is a no-op (a crashed actor's cleanup path may race its own
    /// completion path; first close wins).
    pub fn close(&mut self, id: SpanId, at_us: u64) {
        let Some(rec) = self.get_mut(id) else { return };
        if rec.end_us.is_none() {
            rec.end_us = Some(at_us);
            self.fold(2, id.0, at_us, &[]);
        }
    }

    /// Annotate span `id` with a key/value label.
    pub fn label(&mut self, id: SpanId, key: &'static str, value: impl Into<String>) {
        let value = value.into();
        if let Some(rec) = self.get_mut(id) {
            rec.labels.push((key, value.clone()));
            self.fold(3, id.0, 0, value.as_bytes());
        }
    }

    /// Look a span up by id.
    pub fn get(&self, id: SpanId) -> Option<&SpanRecord> {
        id.0.checked_sub(1).and_then(|i| self.spans.get(i as usize))
    }

    /// Parent of span `id`, if any.
    pub fn parent_of(&self, id: SpanId) -> Option<SpanId> {
        self.get(id).and_then(|r| r.parent)
    }

    /// All spans, in open (= id) order.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter()
    }

    /// Number of spans opened.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no spans were opened.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Latest timestamp touched by any span (open or close). Exporters
    /// use this to clamp still-open spans.
    pub fn max_time_us(&self) -> u64 {
        self.spans
            .iter()
            .map(|s| s.end_us.unwrap_or(s.start_us))
            .max()
            .unwrap_or(0)
    }

    /// Running FNV-1a digest over every open/close/label mutation. Two
    /// logs built by identical call sequences report identical digests.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    fn get_mut(&mut self, id: SpanId) -> Option<&mut SpanRecord> {
        id.0.checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
    }

    fn fold(&mut self, op: u64, id: u64, time_us: u64, payload: &[u8]) {
        let mut h = self.digest;
        for word in [op, id, time_us] {
            h = fnv1a(h, &word.to_le_bytes());
        }
        self.digest = fnv1a(h, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_one_based() {
        let mut log = SpanLog::new();
        let a = log.open("a", 0, None, 10);
        let b = log.open("b", 1, Some(a), 20);
        assert_eq!(a, SpanId(1));
        assert_eq!(b, SpanId(2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.parent_of(b), Some(a));
        assert_eq!(log.parent_of(a), None);
    }

    #[test]
    fn close_is_first_wins() {
        let mut log = SpanLog::new();
        let a = log.open("a", 0, None, 10);
        log.close(a, 15);
        let d1 = log.digest();
        log.close(a, 99);
        assert_eq!(log.get(a).unwrap().end_us, Some(15));
        assert_eq!(log.digest(), d1, "idempotent close must not disturb digest");
        assert_eq!(log.get(a).unwrap().duration_us(), Some(5));
    }

    #[test]
    fn clone_from_equals_clone_whatever_it_overwrites() {
        let mut source = SpanLog::new();
        let a = source.open("a", 0, None, 10);
        source.label(a, "vm", "7");
        source.label(a, "outcome", "placed");
        let b = source.open("b", 1, Some(a), 20);
        source.close(b, 25);
        let want = format!("{:?}", source.clone());

        // Shorter, longer, and same-length-but-different targets.
        let mut longer = source.clone();
        let c = longer.open("c", 2, None, 30);
        longer.label(c, "k", "v");
        longer.label(a, "extra", "label on a span the source also has");
        let mut relabelled = SpanLog::new();
        let x = relabelled.open("x", 9, None, 1);
        relabelled.label(x, "other", "a much longer value than the source's");
        relabelled.open("y", 9, None, 2);
        for mut target in [SpanLog::new(), longer, relabelled] {
            target.clone_from(&source);
            assert_eq!(format!("{target:?}"), want);
        }
    }

    #[test]
    fn tree_navigation() {
        let mut log = SpanLog::new();
        let root = log.open("root", 0, None, 0);
        let mid = log.open("mid", 1, Some(root), 1);
        let leaf = log.open("leaf", 2, Some(mid), 2);
        assert_eq!(log.parent_of(leaf), Some(mid));
        assert_eq!(log.parent_of(mid), Some(root));
    }

    #[test]
    fn labels_record_and_query() {
        let mut log = SpanLog::new();
        let a = log.open("a", 0, None, 0);
        log.label(a, "vm", "7");
        log.label(a, "outcome", "placed");
        assert_eq!(log.get(a).unwrap().label("vm"), Some("7"));
        assert_eq!(log.get(a).unwrap().label("missing"), None);
    }

    #[test]
    fn digest_tracks_mutations_deterministically() {
        let build = || {
            let mut log = SpanLog::new();
            let a = log.open("a", 0, None, 5);
            log.label(a, "k", "v");
            log.close(a, 9);
            log.digest()
        };
        assert_eq!(build(), build());
        let mut other = SpanLog::new();
        let a = other.open("a", 0, None, 5);
        other.close(a, 9);
        assert_ne!(build(), other.digest(), "label must perturb the digest");
    }

    #[test]
    fn unknown_ids_are_safe() {
        let mut log = SpanLog::new();
        log.close(SpanId(42), 1);
        log.label(SpanId(0), "k", "v");
        assert!(log.get(SpanId(42)).is_none());
        assert!(log.is_empty());
        assert_eq!(log.max_time_us(), 0);
    }
}
