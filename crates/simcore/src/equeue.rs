//! Pending-event storage: a binary heap or a hierarchical bucket queue.
//!
//! The engine's original event queue was a global
//! `BinaryHeap<Reverse<Scheduled<M>>>`. That stays the default — it is
//! what every golden and every benchmark workload runs — and
//! [`SimBuilder::queue`](crate::engine::SimBuilder::queue) can select
//! [`BucketQueue`] instead, a two-level calendar queue tuned for the
//! simulator's actual schedule shape:
//!
//! * a **near ring** of fixed-width buckets (64 µs wide, covering about
//!   a quarter second ahead of the active bucket) absorbs message
//!   latencies and short timers with O(1) pushes;
//! * a **far map** (`BTreeMap` keyed by bucket index) absorbs the
//!   multi-second heartbeat and monitoring timers that dominate E11 —
//!   synchronized fleets land thousands of timers in a handful of far
//!   buckets, one `BTreeMap` probe each instead of a heap sift that
//!   memmoves whole `SnoozeMsg` payloads down the tree;
//! * the **active bucket** is sorted once when first touched and then
//!   drained in order; events scheduled *into* the active window (e.g.
//!   1 µs self-timers) go to a small side heap that is merged on pop, so
//!   ordering stays exact without re-sorting.
//!
//! Both variants pop in strictly increasing `(time, seq)` order — the
//! total order every audit invariant and digest depends on — and a
//! randomized differential test below holds the bucket queue to the
//! heap's exact pop sequence.
//!
//! Why both stay (ROADMAP item 2 has the numbers): the bucket queue is
//! 20–25% faster on the long fleet runs, but `BucketQueue::new` allocates
//! its whole ring, and the model checker rebuilds the queue on every
//! `drain_all`/`retain`/`from_vec`, so a bucket-only engine is ~50% slower
//! there. Unifying them is a measured change of its own.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::engine::Scheduled;
use crate::time::SimTime;

/// log2 of the bucket width: 64 µs per bucket.
const BUCKET_SHIFT: u64 = 6;
/// Number of buckets in the near ring (power of two): 4096 × 64 µs
/// ≈ 262 ms of schedule ahead of the active bucket.
const RING_LEN: u64 = 4096;
const RING_MASK: u64 = RING_LEN - 1;

#[inline]
fn bucket_of(t: SimTime) -> u64 {
    t.0 >> BUCKET_SHIFT
}

/// Which queue implementation an engine uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueueKind {
    /// The classic global binary heap (the default).
    #[default]
    Heap,
    /// The hierarchical bucket / calendar queue.
    Bucket,
}

/// A pending-event queue: one of the two implementations above, behind
/// a single API so the engine core never branches on anything else.
pub(crate) enum EventQueue<M> {
    Heap(BinaryHeap<Reverse<Scheduled<M>>>),
    Bucket(BucketQueue<M>),
}

impl<M> EventQueue<M> {
    pub(crate) fn new(kind: QueueKind) -> EventQueue<M> {
        match kind {
            QueueKind::Heap => EventQueue::Heap(BinaryHeap::new()),
            QueueKind::Bucket => EventQueue::Bucket(BucketQueue::new()),
        }
    }

    pub(crate) fn kind(&self) -> QueueKind {
        match self {
            EventQueue::Heap(_) => QueueKind::Heap,
            EventQueue::Bucket(_) => QueueKind::Bucket,
        }
    }

    pub(crate) fn push(&mut self, ev: Scheduled<M>) {
        match self {
            EventQueue::Heap(h) => h.push(Reverse(ev)),
            EventQueue::Bucket(b) => b.push(ev),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled<M>> {
        match self {
            EventQueue::Heap(h) => h.pop().map(|Reverse(ev)| ev),
            EventQueue::Bucket(b) => b.pop(),
        }
    }

    /// `(time, seq)` of the next event without removing it. Mutable
    /// because the bucket queue may advance its active bucket to answer.
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        match self {
            EventQueue::Heap(h) => h.peek().map(|Reverse(ev)| (ev.time, ev.seq)),
            EventQueue::Bucket(b) => b.peek_key(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Heap(h) => h.len(),
            EventQueue::Bucket(b) => b.len,
        }
    }

    #[allow(dead_code)] // symmetry with `len`; used by tests
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All pending events in `(time, seq)` order, leaving the queue
    /// untouched — the model checker's snapshot representation.
    pub(crate) fn to_sorted_vec(&self) -> Vec<Scheduled<M>>
    where
        M: Clone,
    {
        let mut v: Vec<Scheduled<M>> = match self {
            EventQueue::Heap(h) => h.iter().map(|Reverse(ev)| ev.clone()).collect(),
            EventQueue::Bucket(b) => b.iter().cloned().collect(),
        };
        v.sort_unstable();
        v
    }

    /// Rebuild from a snapshot taken by [`EventQueue::to_sorted_vec`].
    pub(crate) fn from_vec(kind: QueueKind, events: Vec<Scheduled<M>>) -> EventQueue<M> {
        let mut q = EventQueue::new(kind);
        for ev in events {
            q.push(ev);
        }
        q
    }

    /// Iterate pending events in arbitrary order (the model checker
    /// sorts the projection it builds from this).
    pub(crate) fn iter(&self) -> Box<dyn Iterator<Item = &Scheduled<M>> + '_> {
        match self {
            EventQueue::Heap(h) => Box::new(h.iter().map(|Reverse(ev)| ev)),
            EventQueue::Bucket(b) => Box::new(b.iter()),
        }
    }

    /// Remove and return every pending event, sorted by `(time, seq)`.
    /// Unlike [`EventQueue::to_sorted_vec`] this needs no `Clone` — the
    /// model checker uses it for re-timing and selective removal.
    pub(crate) fn drain_all(&mut self) -> Vec<Scheduled<M>> {
        let mut v: Vec<Scheduled<M>> = match self {
            EventQueue::Heap(h) => std::mem::take(h)
                .into_iter()
                .map(|Reverse(ev)| ev)
                .collect(),
            EventQueue::Bucket(b) => {
                let mut old = std::mem::replace(b, BucketQueue::new());
                let mut out = Vec::with_capacity(old.len);
                while let Some(ev) = old.pop() {
                    out.push(ev);
                }
                out
            }
        };
        v.sort_unstable();
        v
    }

    /// Remove every event failing `keep`, preserving order semantics.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Scheduled<M>) -> bool) {
        match self {
            EventQueue::Heap(h) => {
                let kept: Vec<Reverse<Scheduled<M>>> = std::mem::take(h)
                    .into_iter()
                    .filter(|r| keep(&r.0))
                    .collect();
                *h = BinaryHeap::from(kept);
            }
            EventQueue::Bucket(b) => {
                // Rebuild from scratch so the bucket layout stays
                // healthy (a drain-and-repush would leave every event
                // behind the advanced base, degenerating into a heap).
                let old = std::mem::replace(b, BucketQueue::new());
                let mut kept: Vec<Scheduled<M>> = Vec::with_capacity(old.len);
                let mut old = old;
                while let Some(ev) = old.pop() {
                    if keep(&ev) {
                        kept.push(ev);
                    }
                }
                for ev in kept {
                    b.push(ev);
                }
            }
        }
    }
}

/// The two-level hierarchical bucket queue described in the module doc.
pub(crate) struct BucketQueue<M> {
    /// Bucket index of the active (draining) bucket. Only grows.
    base: u64,
    /// Active bucket, sorted **descending** so the next event pops from
    /// the tail in O(1) without shifting the vector.
    active: Vec<Scheduled<M>>,
    /// Events scheduled at or behind the active bucket after it was
    /// sorted (self-timers, arrivals below the advanced base).
    /// Merged with `active` on every pop, so order stays exact.
    late: BinaryHeap<Reverse<Scheduled<M>>>,
    /// Near future: slot `b & RING_MASK` holds bucket `b` iff
    /// `base < b < base + RING_LEN`.
    ring: Vec<Vec<Scheduled<M>>>,
    /// Number of events currently stored in `ring`.
    ring_count: usize,
    /// Far future: bucket index → events, for `b >= base + RING_LEN`.
    far: BTreeMap<u64, Vec<Scheduled<M>>>,
    len: usize,
}

impl<M> BucketQueue<M> {
    fn new() -> BucketQueue<M> {
        BucketQueue {
            base: 0,
            active: Vec::new(),
            late: BinaryHeap::new(),
            ring: (0..RING_LEN).map(|_| Vec::new()).collect(),
            ring_count: 0,
            far: BTreeMap::new(),
            len: 0,
        }
    }

    fn push(&mut self, ev: Scheduled<M>) {
        self.len += 1;
        let b = bucket_of(ev.time);
        if b <= self.base {
            self.late.push(Reverse(ev));
        } else if b - self.base < RING_LEN {
            self.ring[(b & RING_MASK) as usize].push(ev);
            self.ring_count += 1;
        } else {
            self.far.entry(b).or_default().push(ev);
        }
    }

    /// Ensure the next event (if any) is visible in `active` or `late`.
    fn ensure_front(&mut self) {
        if !self.active.is_empty() || !self.late.is_empty() || self.len == 0 {
            return;
        }
        // Active and late are drained; find the earliest non-empty
        // bucket among the ring and the far map. Both must be
        // consulted: once `base` advances, a far bucket can be nearer
        // than the ring's next occupied slot.
        let next_ring = if self.ring_count > 0 {
            (self.base + 1..self.base + RING_LEN)
                .find(|b| !self.ring[(b & RING_MASK) as usize].is_empty())
        } else {
            None
        };
        let next_far = self.far.keys().next().copied();
        let b = match (next_ring, next_far) {
            (Some(r), Some(f)) => r.min(f),
            (Some(r), None) => r,
            (None, Some(f)) => f,
            (None, None) => unreachable!("len > 0 but no bucket holds events"),
        };
        let mut events = if next_ring == Some(b) {
            let v = std::mem::take(&mut self.ring[(b & RING_MASK) as usize]);
            self.ring_count -= v.len();
            v
        } else {
            Vec::new()
        };
        if let Some(mut far_events) = self.far.remove(&b) {
            events.append(&mut far_events);
        }
        events.sort_unstable_by(|x, y| y.cmp(x));
        self.active = events;
        self.base = b;
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.ensure_front();
        let a = self.active.last().map(|ev| (ev.time, ev.seq));
        let l = self.late.peek().map(|Reverse(ev)| (ev.time, ev.seq));
        match (a, l) {
            (Some(a), Some(l)) => Some(a.min(l)),
            (x, None) | (None, x) => x,
        }
    }

    fn pop(&mut self) -> Option<Scheduled<M>> {
        self.ensure_front();
        let take_late = match (self.active.last(), self.late.peek()) {
            (Some(a), Some(Reverse(l))) => l < a,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => return None,
        };
        self.len -= 1;
        if take_late {
            self.late.pop().map(|Reverse(ev)| ev)
        } else {
            self.active.pop()
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Scheduled<M>> {
        self.active
            .iter()
            .chain(self.late.iter().map(|Reverse(ev)| ev))
            .chain(self.ring.iter().flatten())
            .chain(self.far.values().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ComponentId, EventKind};
    use crate::rng::SimRng;

    fn ev(time: u64, seq: u64) -> Scheduled<u32> {
        Scheduled {
            time: SimTime(time),
            seq,
            kind: EventKind::Start(ComponentId(0)),
        }
    }

    /// Drive both implementations through an identical operation
    /// sequence and require identical pop streams.
    fn differential(times: impl Iterator<Item = (u64, bool)>) {
        let mut heap: EventQueue<u32> = EventQueue::new(QueueKind::Heap);
        let mut bucket: EventQueue<u32> = EventQueue::new(QueueKind::Bucket);
        let mut seq = 0u64;
        let mut clock = 0u64; // pushes never go behind the last pop
        for (t, do_pop) in times {
            if do_pop {
                let a = heap.pop().map(|e| (e.time, e.seq));
                let b = bucket.pop().map(|e| (e.time, e.seq));
                assert_eq!(a, b, "pop divergence");
                if let Some((t, _)) = a {
                    clock = clock.max(t.0);
                }
            } else {
                let at = clock + t;
                heap.push(ev(at, seq));
                bucket.push(ev(at, seq));
                seq += 1;
            }
            assert_eq!(heap.len(), bucket.len());
            assert_eq!(heap.peek_key(), bucket.peek_key(), "peek divergence");
        }
        loop {
            let a = heap.pop().map(|e| (e.time, e.seq));
            let b = bucket.pop().map(|e| (e.time, e.seq));
            assert_eq!(a, b, "drain divergence");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn matches_heap_on_random_schedules() {
        let mut rng = SimRng::new(0xE0_0E);
        // Mix of near (sub-millisecond), mid (ring-range), and far
        // (multi-second) offsets, interleaved with pops.
        let ops: Vec<(u64, bool)> = (0..4000)
            .map(|_| {
                let pop = rng.range(0, 3) == 0;
                let t = match rng.range(0, 4) {
                    0 => rng.range(0, 200),               // active/near bucket
                    1 => rng.range(200, 60_000),          // ring
                    2 => rng.range(60_000, 400_000),      // outer ring / far edge
                    _ => rng.range(1_000_000, 9_000_000), // far heartbeat-style
                };
                (t as u64, pop)
            })
            .collect();
        differential(ops.into_iter());
    }

    #[test]
    fn matches_heap_on_timer_storm_pattern() {
        // The engine_throughput TimerStorm: every pop schedules a new
        // event 1 µs later, so pushes continually land in the active
        // bucket (the `late` side heap path).
        let pattern = (0..64)
            .map(|_| (1u64, false))
            .chain((0..2000).flat_map(|_| [(0, true), (1, false)]));
        differential(pattern);
    }

    #[test]
    fn matches_heap_on_synchronized_fleet_bursts() {
        // E11's shape: thousands of timers at the same far instant,
        // deliveries spread a few hundred µs after each burst.
        let mut ops: Vec<(u64, bool)> = Vec::new();
        for burst in 0..5u64 {
            for i in 0..300 {
                ops.push((3_000_000 * (burst + 1) + (i % 7) * 97, false));
            }
            for _ in 0..300 {
                ops.push((0, true));
            }
        }
        differential(ops.into_iter());
    }

    #[test]
    fn push_behind_active_bucket_still_pops_in_order() {
        // An event can land numerically below the bucket the queue has
        // already advanced to (the `late` path).
        let mut q: EventQueue<u32> = EventQueue::new(QueueKind::Bucket);
        q.push(ev(10_000_000, 0));
        assert_eq!(q.peek_key(), Some((SimTime(10_000_000), 0))); // advances base far ahead
        q.push(ev(500, 1));
        q.push(ev(9_999_999, 2));
        assert_eq!(q.pop().map(|e| e.seq), Some(1));
        assert_eq!(q.pop().map(|e| e.seq), Some(2));
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        assert_eq!(q.pop().map(|e| e.seq), None);
    }

    #[test]
    fn snapshot_roundtrip_preserves_order_and_len() {
        let mut rng = SimRng::new(7);
        let mut q: EventQueue<u32> = EventQueue::new(QueueKind::Bucket);
        for seq in 0..500 {
            q.push(ev(rng.range(0, 5_000_000) as u64, seq));
        }
        for _ in 0..100 {
            q.pop();
        }
        let snap = q.to_sorted_vec();
        assert_eq!(snap.len(), q.len());
        assert!(snap.windows(2).all(|w| w[0] < w[1]), "snapshot sorted");
        let mut restored = EventQueue::from_vec(QueueKind::Bucket, snap.clone());
        for want in &snap {
            let got = restored.pop().expect("restored event");
            assert_eq!((got.time, got.seq), (want.time, want.seq));
        }
        assert!(restored.pop().is_none());
    }

    #[test]
    fn retain_filters_both_variants() {
        for kind in [QueueKind::Heap, QueueKind::Bucket] {
            let mut q: EventQueue<u32> = EventQueue::new(kind);
            for seq in 0..100 {
                q.push(ev(seq * 10, seq));
            }
            q.retain(|ev| ev.seq % 2 == 0);
            assert_eq!(q.len(), 50);
            let mut prev = None;
            while let Some(e) = q.pop() {
                assert_eq!(e.seq % 2, 0);
                assert!(prev < Some((e.time, e.seq)));
                prev = Some((e.time, e.seq));
            }
        }
    }
}
