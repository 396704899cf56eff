//! Causal spans: timed intervals with parent/child links.
//!
//! A [`SpanLog`] is an append-only arena of [`SpanRecord`]s. Ids are
//! dense 1-based sequence numbers handed out in open order — fully
//! deterministic, no wall clock, no randomness — so a simulation that
//! opens spans in a deterministic order produces an identical log every
//! run. The log keeps a running FNV-1a digest of every mutation
//! (open/close/label), which determinism audits can compare across runs
//! without serialising anything.
//!
//! Labels are typed [`LabelValue`]s in one log-wide store, each span's
//! chained in insertion order; neither a label nor a record owns a heap
//! allocation of its own unless its value is an owned string. Records and
//! labels both live in fixed-size segments: past the first, a segment is
//! allocated whole and never moves, so a long log grows one segment at a
//! time and leaves no abandoned generations of a doubling buffer behind.

use std::fmt;

use crate::{fnv1a, FNV_OFFSET};

/// Records or labels per segment: 320 KiB of records, 192 KiB of labels.
/// Both are past glibc's default 128 KiB mmap threshold, so a whole
/// segment is mapped on its own and handed back whole when the log drops;
/// 512-entry segments, carved from the main heap, left the next run's
/// set-up measurably slower in some processes (DESIGN.md, "What a span
/// weighs").
const SEGMENT: usize = 4096;

/// End of a label chain.
const NIL: u32 = u32::MAX;

/// Identifies a span within one [`SpanLog`]. Ids are dense and 1-based;
/// id `n` is the `n`-th span opened.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

/// A span label's value, kept as what the caller had rather than as the
/// text it renders to. Its [`Display`](fmt::Display) is that text: the
/// bytes the digest folds and the exporters write.
#[derive(Clone, Debug)]
pub enum LabelValue {
    /// A static string (an outcome, a kind), written as is.
    Static(&'static str),
    /// An unsigned integer (a VM id, a count), written in decimal.
    U64(u64),
    /// A component index, written `c{n}`; [`LabelValue::EXTERNAL`] is
    /// written `ext`.
    Component(u64),
    /// An owned string, for a value none of the others can hold.
    Owned(Box<str>),
}

impl LabelValue {
    /// The pseudo-component that stands for the world outside the
    /// simulation.
    pub const EXTERNAL: LabelValue = LabelValue::Component(u64::MAX);

    /// The text, as a prefix and a body: `c` and the digits for a
    /// component, `""` and the whole text otherwise. An integer's digits
    /// are written into `digits`; nothing is allocated or formatted.
    pub(crate) fn pieces<'a>(&'a self, digits: &'a mut [u8; 20]) -> [&'a str; 2] {
        match self {
            LabelValue::Static(s) => ["", s],
            LabelValue::Owned(s) => ["", s],
            LabelValue::U64(n) => ["", decimal(*n, digits)],
            LabelValue::Component(u64::MAX) => ["", "ext"],
            LabelValue::Component(n) => ["c", decimal(*n, digits)],
        }
    }
}

/// `n` in decimal, written into the tail of `buf`.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

impl fmt::Display for LabelValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut digits = [0; 20];
        let [prefix, body] = self.pieces(&mut digits);
        f.write_str(prefix)?;
        f.write_str(body)
    }
}

/// A value equals the text it renders to.
impl PartialEq<&str> for LabelValue {
    fn eq(&self, other: &&str) -> bool {
        let mut digits = [0; 20];
        let [prefix, body] = self.pieces(&mut digits);
        other.strip_prefix(prefix) == Some(body)
    }
}

impl From<&'static str> for LabelValue {
    fn from(s: &'static str) -> Self {
        LabelValue::Static(s)
    }
}

impl From<String> for LabelValue {
    fn from(s: String) -> Self {
        LabelValue::Owned(s.into_boxed_str())
    }
}

impl From<u64> for LabelValue {
    fn from(n: u64) -> Self {
        LabelValue::U64(n)
    }
}

impl From<usize> for LabelValue {
    fn from(n: usize) -> Self {
        LabelValue::U64(n as u64)
    }
}

/// One timed, causally linked interval. Its labels live in the log:
/// [`SpanLog::labels`] walks them.
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
    /// Index of this span's first and last label in the log's label
    /// store, [`NIL`] when it has none.
    first_label: u32,
    last_label: u32,
}

impl SpanRecord {
    /// Duration if closed, clamping backwards clocks to zero.
    pub fn duration_us(&self) -> Option<u64> {
        self.end_us.map(|e| e.saturating_sub(self.start_us))
    }
}

/// One key/value annotation of a span (a VM id, an outcome, …).
#[derive(Clone, Debug)]
pub struct SpanLabel {
    /// The key.
    pub key: &'static str,
    /// The value.
    pub value: LabelValue,
    /// The same span's next label, [`NIL`] at the end of its chain.
    next: u32,
}

/// An append-only sequence in [`SEGMENT`]-sized segments. Every segment
/// after the first is allocated whole when the one before it fills and
/// never moves, so a long sequence never copies what it holds. The first
/// segment grows like a `Vec` until it is whole, so a short sequence (the
/// model checker's logs hold a dozen spans) costs what it holds; a clone
/// copies only what is used, and its last segment grows back the same way.
#[derive(Clone, Debug)]
struct Segments<T> {
    segs: Vec<Vec<T>>,
}

impl<T> Default for Segments<T> {
    fn default() -> Self {
        Segments { segs: Vec::new() }
    }
}

impl<T> Segments<T> {
    fn len(&self) -> usize {
        self.segs
            .last()
            .map_or(0, |last| (self.segs.len() - 1) * SEGMENT + last.len())
    }

    fn push(&mut self, value: T) {
        if self.segs.last().is_none_or(|last| last.len() == SEGMENT) {
            let whole = if self.segs.is_empty() { 0 } else { SEGMENT };
            self.segs.push(Vec::with_capacity(whole));
        }
        let last = self.segs.last_mut().expect("a segment with room");
        if last.len() == last.capacity() {
            // The first segment, or a clone's last: double, up to the full size.
            last.reserve_exact(last.len().max(4).min(SEGMENT - last.len()));
        }
        last.push(value);
    }

    fn get(&self, i: usize) -> Option<&T> {
        self.segs.get(i / SEGMENT)?.get(i % SEGMENT)
    }

    fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.segs.get_mut(i / SEGMENT)?.get_mut(i % SEGMENT)
    }

    fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.segs.iter().flatten()
    }
}

/// The labels of one span, in insertion order ([`SpanLog::labels`]).
#[derive(Clone, Debug)]
pub struct Labels<'a> {
    store: &'a Segments<SpanLabel>,
    next: u32,
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a SpanLabel;

    fn next(&mut self) -> Option<&'a SpanLabel> {
        let label = self.store.get(self.next as usize)?;
        self.next = label.next;
        Some(label)
    }
}

/// Append-only log of spans with deterministic ids and a running digest.
#[derive(Clone, Debug)]
pub struct SpanLog {
    spans: Segments<SpanRecord>,
    labels: Segments<SpanLabel>,
    digest: u64,
}

/// The empty log of [`SpanLog::new`]: its digest starts at the FNV
/// offset like every other log's, not at zero.
impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// Empty log.
    pub fn new() -> Self {
        SpanLog {
            spans: Segments::default(),
            labels: Segments::default(),
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
            first_label: NIL,
            last_label: NIL,
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

    /// Annotate span `id` with a key/value label, after its others.
    pub fn label(&mut self, id: SpanId, key: &'static str, value: impl Into<LabelValue>) {
        let index = id.0.checked_sub(1).map(|i| i as usize);
        let Some(rec) = index.and_then(|i| self.spans.get_mut(i)) else {
            return;
        };
        let at = u32::try_from(self.labels.len())
            .ok()
            .filter(|&at| at != NIL)
            .expect("a span log holds fewer than 2^32 - 1 labels");
        match rec.last_label {
            NIL => rec.first_label = at,
            tail => {
                let prev = self.labels.get_mut(tail as usize);
                prev.expect("a chain's tail is stored").next = at;
            }
        }
        rec.last_label = at;
        let value = value.into();
        let mut digits = [0; 20];
        let [prefix, body] = value.pieces(&mut digits);
        self.fold(3, id.0, 0, prefix.as_bytes());
        self.digest = fnv1a(self.digest, body.as_bytes());
        self.labels.push(SpanLabel {
            key,
            value,
            next: NIL,
        });
    }

    /// Look a span up by id.
    pub fn get(&self, id: SpanId) -> Option<&SpanRecord> {
        id.0.checked_sub(1).and_then(|i| self.spans.get(i as usize))
    }

    /// Parent of span `id`, if any.
    pub fn parent_of(&self, id: SpanId) -> Option<SpanId> {
        self.get(id).and_then(|r| r.parent)
    }

    /// Labels of span `id` in insertion order (none for an unknown id).
    pub fn labels(&self, id: SpanId) -> Labels<'_> {
        Labels {
            store: &self.labels,
            next: self.get(id).map_or(NIL, |r| r.first_label),
        }
    }

    /// First label value span `id` recorded under `key`.
    pub fn label_of(&self, id: SpanId, key: &str) -> Option<&LabelValue> {
        self.labels(id).find(|l| l.key == key).map(|l| &l.value)
    }

    /// All spans, in open (= id) order; `.rev()` walks them newest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &SpanRecord> {
        self.spans.iter()
    }

    /// Number of spans opened.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no spans were opened.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Latest timestamp touched by any span (open or close). Exporters
    /// use this to clamp still-open spans.
    pub fn max_time_us(&self) -> u64 {
        self.iter()
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
    fn default_and_new_build_one_empty_log() {
        let (mut built, mut defaulted) = (SpanLog::new(), SpanLog::default());
        assert_eq!(built.digest(), defaulted.digest(), "empty");
        for log in [&mut built, &mut defaulted] {
            let a = log.open("a", 0, None, 10);
            log.label(a, "vm", 7u64);
            let b = log.open("b", 1, Some(a), 12);
            log.close(b, 14);
            log.close(a, 20);
        }
        assert_eq!(
            built.digest(),
            defaulted.digest(),
            "after the same operations"
        );
        assert_eq!(format!("{built:?}"), format!("{defaulted:?}"));
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
        log.label(a, "vm", 7u64);
        log.label(a, "outcome", "placed");
        log.label(a, "vm", "shadowed");
        assert!(log.label_of(a, "vm").is_some_and(|v| *v == "7"));
        assert!(log.label_of(a, "missing").is_none());
        let keys: Vec<&str> = log.labels(a).map(|l| l.key).collect();
        assert_eq!(keys, ["vm", "outcome", "vm"]);
        assert_eq!(log.labels(SpanId(9)).count(), 0);
    }

    #[test]
    fn values_render_as_their_text_and_equal_it() {
        let cases = [
            (LabelValue::from("placed"), "placed"),
            (LabelValue::from(String::from("a \"b\"")), "a \"b\""),
            (LabelValue::from(0u64), "0"),
            (LabelValue::from(u64::MAX), "18446744073709551615"),
            (LabelValue::from(5_000usize), "5000"),
            (LabelValue::Component(0), "c0"),
            (LabelValue::Component(1023), "c1023"),
            (LabelValue::EXTERNAL, "ext"),
        ];
        for (value, text) in cases {
            assert_eq!(value.to_string(), text);
            assert!(value == text, "{value:?} equals {text:?}");
            for other in ["", "c", "ext0", "placedx", "1", "c10234"] {
                assert_eq!(value == other, text == other, "{value:?} vs {other:?}");
            }
        }
    }

    #[test]
    fn spans_and_labels_cross_segment_edges() {
        let mut log = SpanLog::new();
        let first = log.open("first", 0, None, 0);
        for i in 0..2 * SEGMENT as u64 {
            let id = log.open("s", i, None, i);
            log.label(id, "i", i);
            log.label(first, "n", i);
        }
        assert_eq!(log.len(), 2 * SEGMENT + 1);
        assert_eq!(log.spans.segs.len(), 3);
        assert!(log.spans.segs.iter().all(|s| s.capacity() == SEGMENT));
        assert_eq!(log.labels(first).count(), 2 * SEGMENT);
        assert!(log
            .labels(first)
            .zip(0u64..)
            .all(|(l, i)| l.value == i.to_string().as_str()));
        let last = SpanId(log.len() as u64);
        assert_eq!(log.get(last).map(|s| s.track), Some(2 * SEGMENT as u64 - 1));
        let newest: Vec<u64> = log.iter().rev().take(2).map(|s| s.id.0).collect();
        assert_eq!(newest, [last.0, last.0 - 1]);
    }

    #[test]
    fn a_short_log_holds_what_it_uses() {
        let mut log = SpanLog::new();
        for i in 0..14 {
            let id = log.open("s", 0, None, i);
            log.label(id, "i", i);
        }
        assert_eq!(log.spans.segs[0].capacity(), 16);
        assert_eq!(log.labels.segs[0].capacity(), 16);
    }

    #[test]
    fn a_clones_last_segment_grows_back_to_full_size() {
        let mut log = SpanLog::new();
        for i in 0..SEGMENT as u64 + 3 {
            log.open("s", 0, None, i);
        }
        let mut clone = log.clone();
        assert_eq!(
            clone.spans.segs[1].capacity(),
            3,
            "a clone copies what is used"
        );
        for i in 0..SEGMENT as u64 {
            clone.open("s", 0, None, i);
        }
        let caps: Vec<usize> = clone.spans.segs.iter().map(Vec::capacity).collect();
        assert_eq!(caps, [SEGMENT, SEGMENT, SEGMENT]);
        assert_eq!(clone.len(), 2 * SEGMENT + 3);
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
