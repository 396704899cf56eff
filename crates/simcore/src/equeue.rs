//! Pending-event storage: one two-level bucket (calendar) queue.
//!
//! Every engine holds exactly one [`EventQueue`], shaped after the
//! simulator's actual schedule:
//!
//! * a **near ring** of fixed-width buckets (64 µs wide, covering about
//!   a quarter second ahead of the active bucket) absorbs message
//!   latencies and short timers with O(1) pushes;
//! * a **far map** (`BTreeMap` keyed by bucket index) absorbs the
//!   multi-second heartbeat and monitoring timers that dominate the fleet
//!   runs — synchronized fleets land thousands of timers in a handful of
//!   far buckets, one `BTreeMap` probe each instead of a heap sift that
//!   memmoves whole `SnoozeMsg` payloads down the tree;
//! * the **active bucket** is sorted once when first touched and then
//!   drained in order; events scheduled *into* the active window (e.g.
//!   1 µs self-timers) go to a small side heap that is merged on pop, so
//!   ordering stays exact without re-sorting.
//!
//! Pops come out in strictly increasing `(time, seq)` order — the total
//! order every audit invariant and digest depends on. A global
//! `BinaryHeap` was the engine's first queue; it survives below as the
//! reference the tests hold this one to, pop for pop.
//!
//! Drained bucket vectors are **recycled**: a fleet's beat fills a dozen
//! ring buckets with a few hundred events each, and a bucket that starts
//! at capacity 0 reallocates (and copies its entries) seven or eight
//! times on the way there. When a bucket has been drained its empty
//! vector goes on a short spare list — at most [`SPARE_CAP`] of them —
//! and the next *ring* bucket to receive its first event takes one
//! instead of starting from nothing. Two limits keep the capacity parked
//! this way from becoming resident memory. The list is bounded: handing a
//! drained vector straight back to its own ring slot leaves capacity in
//! all 4096 slots (`trace_replay` peak RSS 15 → 70 MB). And far buckets
//! never take a spare: a ring bucket is drained within a quarter second
//! of simulated time, but a far bucket can hold one watchdog timer for
//! half an hour, and a thousand of those each sitting on a vector sized
//! for a fleet-wide beat is 14 → 29 MB on the same run. DESIGN.md, "What
//! an event weighs", has the ledger row.
//!
//! Three choices exist for the model checker, which snapshots, edits and
//! restores the pending set thousands of times a second on queues of a
//! few dozen events:
//!
//! * the **ring is lazy** — allocated by the first push that lands in
//!   it. A checked system's events sit seconds ahead (far map), so it
//!   never pays for 4096 empty slots, and a bare engine's resident set
//!   stays where a heap's was;
//! * [`EventQueue::clear`] and [`EventQueue::drain_all`] **reset `base`
//!   to 0**, so a restore refills the same queue in place. Left where it
//!   had advanced to, `base` would send every re-pushed event at or
//!   behind it into the side heap and the queue would degenerate into
//!   the heap it replaced;
//! * [`EventQueue::remove`] takes one event out **where it sits**, so
//!   executing or dropping one pending event out of order costs a lookup
//!   in its bucket, not a drain and re-push of the whole set.

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
/// Most drained bucket vectors kept for reuse. Each can be as large as
/// the largest bucket the run has drained, so the count is what bounds
/// the memory parked here: 4, 8 and 16 read the same `wall_s`, and 16
/// costs `dense_reconfig` +0.8 MB of peak RSS over 8.
const SPARE_CAP: usize = 8;

#[inline]
fn bucket_of(t: SimTime) -> u64 {
    t.0 >> BUCKET_SHIFT
}

/// The engine's pending-event queue, described in the module doc.
pub(crate) struct EventQueue<M> {
    /// Bucket index of the active (draining) bucket. Grows until
    /// [`EventQueue::drain_all`] resets it.
    base: u64,
    /// Active bucket, sorted **descending** so the next event pops from
    /// the tail in O(1) without shifting the vector.
    active: Vec<Scheduled<M>>,
    /// Events scheduled at or behind the active bucket after it was
    /// sorted (self-timers, arrivals below the advanced base).
    /// Merged with `active` on every pop, so order stays exact.
    late: BinaryHeap<Reverse<Scheduled<M>>>,
    /// Near future: slot `b & RING_MASK` holds bucket `b` iff
    /// `base < b < base + RING_LEN`. Empty until the first push into it.
    ring: Vec<Vec<Scheduled<M>>>,
    /// Number of events currently stored in `ring`.
    ring_count: usize,
    /// Far future: bucket index → events, for `b >= base + RING_LEN`.
    far: BTreeMap<u64, Vec<Scheduled<M>>>,
    /// Drained bucket vectors — empty, capacity kept — waiting for the
    /// next bucket that receives its first event. At most [`SPARE_CAP`].
    spare: Vec<Vec<Scheduled<M>>>,
    len: usize,
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> EventQueue<M> {
        EventQueue {
            base: 0,
            active: Vec::new(),
            late: BinaryHeap::new(),
            ring: Vec::new(),
            ring_count: 0,
            far: BTreeMap::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn push(&mut self, ev: Scheduled<M>) {
        self.len += 1;
        let b = bucket_of(ev.time);
        if b <= self.base {
            self.late.push(Reverse(ev));
        } else if b - self.base < RING_LEN {
            if self.ring.is_empty() {
                self.ring.resize_with(RING_LEN as usize, Vec::new);
            }
            let slot = &mut self.ring[(b & RING_MASK) as usize];
            if slot.capacity() == 0 {
                *slot = self.spare.pop().unwrap_or_default();
            }
            slot.push(ev);
            self.ring_count += 1;
        } else {
            self.far.entry(b).or_default().push(ev);
        }
    }

    /// Park a drained bucket vector for reuse, or free it if the spare
    /// list is full.
    fn recycle(&mut self, bucket: Vec<Scheduled<M>>) {
        debug_assert!(bucket.is_empty());
        if bucket.capacity() > 0 && self.spare.len() < SPARE_CAP {
            self.spare.push(bucket);
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
        let b = next_ring.into_iter().chain(next_far).min();
        let b = b.expect("len > 0 but no bucket holds events");
        let mut events = if next_ring == Some(b) {
            let v = std::mem::take(&mut self.ring[(b & RING_MASK) as usize]);
            self.ring_count -= v.len();
            v
        } else {
            Vec::new()
        };
        if let Some(mut far_events) = self.far.remove(&b) {
            if events.is_empty() {
                std::mem::swap(&mut events, &mut far_events);
            } else {
                events.append(&mut far_events);
            }
            self.recycle(far_events);
        }
        events.sort_unstable_by(|x, y| y.cmp(x));
        let drained = std::mem::replace(&mut self.active, events);
        self.recycle(drained);
        self.base = b;
    }

    /// `(time, seq)` of the next event without removing it. Mutable
    /// because answering may advance the active bucket.
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.ensure_front();
        let a = self.active.last().map(|ev| (ev.time, ev.seq));
        let l = self.late.peek().map(|Reverse(ev)| (ev.time, ev.seq));
        match (a, l) {
            (Some(a), Some(l)) => Some(a.min(l)),
            (x, None) | (None, x) => x,
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled<M>> {
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

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Iterate pending events in arbitrary order (the model checker
    /// sorts what it builds from this).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Scheduled<M>> {
        self.active
            .iter()
            .chain(self.late.iter().map(|Reverse(ev)| ev))
            .chain(self.ring.iter().flatten())
            .chain(self.far.values().flatten())
    }

    /// Remove and return pending event `(time, seq)`, wherever it sits:
    /// the far bucket its time maps to, then the ring slot, then the
    /// active bucket, then the side heap. Nothing else moves — pop order
    /// is `(time, seq)` whatever the layout — so the model checker takes
    /// one event out of the pending set without draining the rest.
    pub(crate) fn remove(&mut self, time: SimTime, seq: u64) -> Option<Scheduled<M>> {
        let ev = self.take(time, seq)?;
        self.len -= 1;
        Some(ev)
    }

    fn take(&mut self, time: SimTime, seq: u64) -> Option<Scheduled<M>> {
        let is = |ev: &Scheduled<M>| (ev.time, ev.seq) == (time, seq);
        let b = bucket_of(time);
        if let Some(bucket) = self.far.get_mut(&b) {
            if let Some(i) = bucket.iter().position(is) {
                let ev = bucket.swap_remove(i);
                if bucket.is_empty() {
                    // `ensure_front` takes any far key for a non-empty bucket.
                    self.far.remove(&b);
                }
                return Some(ev);
            }
        }
        // A ring slot or a far bucket is sorted when it becomes active,
        // so either can lose an entry out of order; `active` cannot.
        if let Some(slot) = self.ring.get_mut((b & RING_MASK) as usize) {
            if let Some(i) = slot.iter().position(is) {
                self.ring_count -= 1;
                return Some(slot.swap_remove(i));
            }
        }
        if let Some(i) = self.active.iter().position(is) {
            return Some(self.active.remove(i));
        }
        let mut late = std::mem::take(&mut self.late).into_vec();
        let found = late
            .iter()
            .position(|Reverse(ev)| is(ev))
            .map(|i| late.swap_remove(i).0);
        self.late = late.into();
        found
    }

    /// Forget every pending event and base the queue at bucket 0 again,
    /// ready to be refilled by `push` — a restore's first step, which
    /// needs the events gone, not returned in order.
    pub(crate) fn clear(&mut self) {
        self.active.clear();
        self.late.clear();
        if self.ring_count > 0 {
            self.ring.iter_mut().for_each(Vec::clear);
            self.ring_count = 0;
        }
        self.far.clear();
        self.base = 0;
        self.len = 0;
    }

    /// Remove and return every pending event in `(time, seq)` order,
    /// leaving an empty queue based at bucket 0 again — ready to be
    /// refilled by `push`, whatever times the new events carry. The model
    /// checker re-times events left behind the clock as drain → edit →
    /// push.
    pub(crate) fn drain_all(&mut self) -> Vec<Scheduled<M>> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(ev) = self.pop() {
            out.push(ev);
        }
        self.base = 0;
        out
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

    fn key(e: Scheduled<u32>) -> (SimTime, u64) {
        (e.time, e.seq)
    }

    /// The reference: the global binary heap the engine started with.
    type Reference = BinaryHeap<Reverse<Scheduled<u32>>>;

    enum Op {
        /// Push an event this far after the last popped time.
        Push(u64),
        Pop,
        /// `drain_all`, then push everything back.
        Refill,
        /// Remove the pending event of this rank (modulo the pending
        /// count) in `(time, seq)` order, and ask for one never pushed.
        Remove(usize),
        /// `clear`, then push the pending set back in arbitrary order —
        /// what a model-checker restore does.
        Restore,
    }

    /// Drive the queue and the reference heap through one operation
    /// sequence and require identical pop streams.
    fn differential(ops: impl Iterator<Item = Op>) {
        let mut heap = Reference::new();
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut seq = 0u64;
        let mut clock = 0u64; // pushes never go behind the last pop
        for op in ops {
            match op {
                Op::Push(t) => {
                    heap.push(Reverse(ev(clock + t, seq)));
                    queue.push(ev(clock + t, seq));
                    seq += 1;
                }
                Op::Pop => {
                    let a = heap.pop().map(|Reverse(e)| key(e));
                    assert_eq!(a, queue.pop().map(key), "pop divergence");
                    if let Some((t, _)) = a {
                        clock = clock.max(t.0);
                    }
                }
                Op::Refill => {
                    let drained = queue.drain_all();
                    assert_eq!(queue.len(), 0);
                    let want = heap.clone().into_sorted_vec();
                    assert!(
                        drained.iter().eq(want.iter().rev().map(|Reverse(e)| e)),
                        "drain_all is not the sorted pending set"
                    );
                    for e in drained {
                        queue.push(e);
                    }
                }
                Op::Remove(rank) => {
                    let mut keys: Vec<(SimTime, u64)> =
                        heap.iter().map(|Reverse(e)| (e.time, e.seq)).collect();
                    keys.sort_unstable();
                    if let Some(&(t, s)) = keys.get(rank % keys.len().max(1)) {
                        heap.retain(|Reverse(e)| (e.time, e.seq) != (t, s));
                        assert_eq!(queue.remove(t, s).map(key), Some((t, s)));
                        assert!(queue.remove(t, s).is_none(), "removed twice");
                    }
                    assert!(queue.remove(SimTime(clock), seq).is_none(), "never pushed");
                }
                Op::Restore => {
                    queue.clear();
                    assert_eq!((queue.len(), queue.base), (0, 0));
                    for Reverse(e) in heap.iter() {
                        queue.push(ev(e.time.0, e.seq));
                    }
                }
            }
            assert_eq!(heap.len(), queue.len());
            let want = heap.peek().map(|Reverse(e)| (e.time, e.seq));
            assert_eq!(want, queue.peek_key(), "peek divergence");
        }
        loop {
            let a = heap.pop().map(|Reverse(e)| key(e));
            assert_eq!(a, queue.pop().map(key), "drain divergence");
            if a.is_none() {
                break;
            }
        }
    }

    /// Offsets that reach the active bucket, the ring, its outer edge
    /// and the far map.
    fn mixed_offset(rng: &mut SimRng) -> u64 {
        (match rng.range(0, 4) {
            0 => rng.range(0, 200),               // active/near bucket
            1 => rng.range(200, 60_000),          // ring
            2 => rng.range(60_000, 400_000),      // outer ring / far edge
            _ => rng.range(1_000_000, 9_000_000), // far heartbeat-style
        }) as u64
    }

    #[test]
    fn matches_heap_on_random_schedules() {
        let mut rng = SimRng::new(0xE0_0E);
        let ops: Vec<Op> = (0..4000)
            .map(|_| match rng.range(0, 3) {
                0 => Op::Pop,
                _ => Op::Push(mixed_offset(&mut rng)),
            })
            .collect();
        differential(ops.into_iter());
    }

    #[test]
    fn matches_heap_on_timer_storm_pattern() {
        // Every pop schedules a new event 1 µs later, so pushes
        // continually land in the active bucket (the `late` side heap).
        let pattern = (0..64)
            .map(|_| Op::Push(1))
            .chain((0..2000).flat_map(|_| [Op::Pop, Op::Push(1)]));
        differential(pattern);
    }

    #[test]
    fn matches_heap_on_synchronized_fleet_bursts() {
        // E11's shape: thousands of timers at the same far instant,
        // deliveries spread a few hundred µs after each burst.
        let mut ops: Vec<Op> = Vec::new();
        for burst in 0..5u64 {
            for i in 0..300 {
                ops.push(Op::Push(3_000_000 * (burst + 1) + (i % 7) * 97));
            }
            ops.extend((0..300).map(|_| Op::Pop));
        }
        differential(ops.into_iter());
    }

    #[test]
    fn matches_heap_across_drain_and_refill() {
        // The model checker's usage: pushes and pops interleaved with
        // whole-queue drain → push-back cycles.
        let mut rng = SimRng::new(0xD2A1);
        let ops: Vec<Op> = (0..3000)
            .map(|_| match rng.range(0, 40) {
                0 => Op::Refill,
                1..=13 => Op::Pop,
                _ => Op::Push(mixed_offset(&mut rng)),
            })
            .collect();
        differential(ops.into_iter());
    }

    #[test]
    fn matches_heap_with_removals() {
        // The model checker's usage: events taken out of the pending set
        // by rank, between pushes, pops, drain → refill cycles and
        // clear → re-push restores.
        let mut rng = SimRng::new(0x2E_40);
        let ops: Vec<Op> = (0..4000)
            .map(|_| match rng.range(0, 40) {
                0 => Op::Refill,
                1 => Op::Restore,
                2..=10 => Op::Pop,
                11..=20 => Op::Remove(rng.range(0, 1 << 16)),
                _ => Op::Push(mixed_offset(&mut rng)),
            })
            .collect();
        differential(ops.into_iter());
    }

    #[test]
    fn remove_reaches_every_place_an_event_sits() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let pushes = [(100, 0), (110, 1), (120, 2), (125, 3)] // bucket 1
            .into_iter()
            .chain([(50_000, 4), (9_000_000, 5), (9_000_010, 6)]);
        for (t, seq) in pushes {
            q.push(ev(t, seq));
        }
        assert_eq!(q.pop().map(|e| e.seq), Some(0)); // bucket 1 is active
        q.push(ev(60, 7)); // behind the active bucket: late
        assert_eq!(
            (q.active.len(), q.late.len(), q.ring_count, q.far.len()),
            (3, 1, 1, 1)
        );
        // The active bucket's latest event, so the rest must stay sorted.
        for (t, seq) in [(9_000_000, 5), (50_000, 4), (125, 3), (60, 7)] {
            assert_eq!(q.remove(SimTime(t), seq).map(key), Some((SimTime(t), seq)));
        }
        assert_eq!((q.len(), q.ring_count, q.far.len()), (3, 0, 1));
        assert_eq!(q.remove(SimTime(9_000_010), 6).map(|e| e.seq), Some(6));
        assert!(q.far.is_empty(), "an emptied far bucket is dropped");
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!((rest, q.len()), (vec![1, 2], 0));
    }

    #[test]
    fn push_behind_active_bucket_still_pops_in_order() {
        // An event can land numerically below the bucket the queue has
        // already advanced to (the `late` path).
        let mut q: EventQueue<u32> = EventQueue::new();
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
    fn drained_queue_is_reusable_from_bucket_zero() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(ev(20_000_000, 0));
        q.push(ev(20_000_100, 1));
        assert_eq!(q.pop().map(|e| e.seq), Some(0)); // base is now 20 s in
        assert_eq!(q.drain_all().len(), 1);
        assert_eq!((q.len(), q.base), (0, 0));
        // Everything below the old base: with `base` left where it was
        // these would all sit in `late`.
        q.push(ev(9_000_000, 2)); // far
        q.push(ev(100_000, 3)); // ring
        q.push(ev(3_000_000, 4)); // far
        q.push(ev(5_000, 5)); // ring
        assert!(q.late.is_empty());
        assert_eq!((q.ring_count, q.far.len()), (2, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, [5, 3, 4, 2]);
    }

    #[test]
    fn spare_list_is_bounded_after_synchronized_fleet_beats() {
        // A fleet's beat: 300 timers in one far bucket; each one popped
        // sends a delivery a few hundred µs on (a handful of ring buckets,
        // ~40 events each) and re-arms itself 3 s later.
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut seq = 0u64;
        let mut push = |q: &mut EventQueue<u32>, t: u64| {
            q.push(ev(t, seq));
            seq += 1;
        };
        for i in 0..300 {
            push(&mut q, 3_000_000 + i % 3);
        }
        let mut largest = 0; // capacity of the largest bucket drained
        for beat in 1..=5u64 {
            let next_beat = 3_000_000 * (beat + 1);
            while let Some(e) = q.pop() {
                largest = largest.max(q.active.capacity());
                if e.time.0 < 3_000_000 * beat + 3 {
                    push(&mut q, e.time.0 + 100 + (e.seq % 400));
                    push(&mut q, next_beat + e.seq % 3);
                }
                if q.peek_key().is_some_and(|(t, _)| t.0 >= next_beat) {
                    break;
                }
            }
            assert!(!q.spare.is_empty(), "drained ring buckets are kept");
            assert!(q.spare.len() <= SPARE_CAP);
        }
        let parked: usize = q.spare.iter().map(Vec::capacity).sum();
        assert!(
            parked <= SPARE_CAP * largest,
            "{parked} > {SPARE_CAP} x {largest}"
        );
        assert!(q.spare.iter().all(|v| v.is_empty() && v.capacity() > 0));
        // The next bucket to open takes a spare instead of allocating;
        // far buckets (which can sit for hours holding one timer) do not.
        let spares = q.spare.len();
        let soon = q.peek_key().expect("next beat is pending").0 .0 + 5_000;
        push(&mut q, soon);
        assert_eq!(q.spare.len(), spares - 1);
        push(&mut q, soon + 3_600_000_000);
        assert_eq!(q.spare.len(), spares - 1);
    }

    #[test]
    fn drain_all_leaves_the_spare_list_usable() {
        // The model checker's cycle, on one queue: fill, drain, refill.
        let mut q: EventQueue<u32> = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..40 {
                q.push(ev(1_000 + i * 640 + round, i)); // a ring bucket every 10
            }
            let drained = q.drain_all();
            assert!(drained.windows(2).all(|w| w[0] < w[1]));
            assert_eq!((drained.len(), q.len(), q.base), (40, 0, 0));
            assert!((1..=SPARE_CAP).contains(&q.spare.len()));
        }
        let spares = q.spare.len();
        q.push(ev(70_000, 0));
        assert_eq!(q.spare.len(), spares - 1, "refill reuses a drained bucket");
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
    }

    #[test]
    fn ring_is_allocated_by_the_first_push_into_it() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for seq in 0..100 {
            q.push(ev(1_000_000 * (seq + 1), seq)); // far
            q.push(ev(seq / 2, 100 + seq)); // bucket 0: late
        }
        while q.pop().is_some() {}
        assert_eq!(
            q.ring.capacity(),
            0,
            "far and late traffic never touches the ring"
        );
        q.push(ev(100_000_100, 200));
        assert_eq!(q.ring.len(), RING_LEN as usize);
        let slots = q.ring.as_ptr();
        q.push(ev(100_200_000, 201));
        assert_eq!(q.drain_all().len(), 2);
        q.push(ev(5_000, 202));
        assert_eq!((q.ring.len(), q.ring.as_ptr()), (RING_LEN as usize, slots));
    }
}
