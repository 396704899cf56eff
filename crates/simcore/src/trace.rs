//! Bounded in-memory event trace.
//!
//! Snooze's CLI supported "live visualizing and exporting of the hierarchy
//! organization" (paper §II-A); the trace is the data source for the
//! equivalent here — the `hierarchy_visualizer` example renders it. It is a
//! ring buffer so long experiments don't accumulate unbounded history.

use std::collections::VecDeque;

use snooze_telemetry::{fnv1a, FNV_OFFSET};

use crate::engine::ComponentId;
use crate::time::SimTime;

/// One trace record.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// When the event happened.
    pub time: SimTime,
    /// Which component reported it.
    pub component: ComponentId,
    /// Static category (e.g. `"join"`, `"election"`, `"migrate"`).
    pub category: &'static str,
    /// Free-form details.
    pub text: String,
}

/// Ring buffer of [`TraceRecord`]s. Capacity 0 disables recording.
///
/// Independent of retention, every submitted record is folded into a
/// running FNV-1a [`digest`](Trace::digest) — a cheap fingerprint of the
/// *entire* trace stream that two same-seed runs must reproduce exactly.
/// The `snooze-audit determinism` subcommand diffs these digests.
#[derive(Debug)]
pub struct Trace {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    total: u64,
    digest: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new(0)
    }
}

/// The multiplier of [`fnv1a`], for the word-at-a-time fold below.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` (wrapping) for `k` in `0..=8`: what folding `k` zero
/// bytes multiplies a hash by.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// `fnv1a(hash, &word.to_le_bytes())`, bit for bit, in fewer steps.
///
/// FNV-1a folds a byte `b` as `h ← (h ^ b) · P`. For `b = 0` the xor is
/// the identity, so a run of `k` zero bytes is `h ← h · Pᵏ` — one
/// wrapping multiply by a constant, since multiplication mod 2⁶⁴ is
/// associative. The words the engine and the model checker fold (times,
/// sequence numbers, component ids, discriminants) are small, so most of
/// their little-endian bytes are the high zero ones: fold the low
/// non-zero-prefixed bytes one by one as FNV-1a does, then the high zero
/// run at once. An interior zero byte (`0x0100`) sits below the highest
/// set bit and takes the byte-wise path like any other.
#[inline]
pub(crate) fn fnv1a_word(mut hash: u64, word: u64) -> u64 {
    let high_zero_bytes = (word.leading_zeros() / 8) as usize;
    let mut rest = word;
    for _ in high_zero_bytes..8 {
        hash = (hash ^ (rest & 0xFF)).wrapping_mul(FNV_PRIME);
        rest >>= 8;
    }
    hash.wrapping_mul(PRIME_POW[high_zero_bytes])
}

impl Trace {
    /// Create a trace keeping the last `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Trace {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            total: 0,
            digest: FNV_OFFSET,
        }
    }

    /// Append a record, evicting the oldest if full. The digest always
    /// updates; retention is a no-op when disabled.
    pub fn record(
        &mut self,
        time: SimTime,
        component: ComponentId,
        category: &'static str,
        text: String,
    ) {
        self.total += 1;
        self.digest = fnv1a(self.digest, &time.0.to_le_bytes());
        self.digest = fnv1a(self.digest, &(component.0 as u64).to_le_bytes());
        self.digest = fnv1a(self.digest, category.as_bytes());
        self.digest = fnv1a(self.digest, text.as_bytes());
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(TraceRecord {
            time,
            component,
            category,
            text,
        });
    }

    /// FNV-1a fingerprint of every record ever submitted (even with
    /// retention disabled). Equal seeds must yield equal digests.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Records in a category, oldest first.
    pub fn by_category<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a TraceRecord> {
        self.records.iter().filter(move |r| r.category == category)
    }

    /// Total records ever submitted (including evicted or disabled ones).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(trace: &mut Trace, n: u64, cat: &'static str) {
        trace.record(SimTime(n), ComponentId(0), cat, format!("r{n}"));
    }

    #[test]
    fn word_fold_is_fnv1a_on_the_edge_cases() {
        // No byte, one byte, a full low byte, an interior zero byte, only
        // the top byte, every byte.
        for w in [0, 1, 0xFF, 0x0100, 1 << 56, u64::MAX] {
            for h in [FNV_OFFSET, 0, u64::MAX] {
                assert_eq!(
                    fnv1a_word(h, w),
                    fnv1a(h, &w.to_le_bytes()),
                    "word {w:#x} from {h:#x}"
                );
            }
        }
    }

    #[test]
    fn word_fold_is_fnv1a_over_a_chained_stream() {
        // 10 000 words of every byte length, each fold starting from the
        // last one's result, as the engine's digest does.
        let mut rng = crate::rng::SimRng::new(0xF0_1D);
        let (mut fast, mut reference) = (FNV_OFFSET, FNV_OFFSET);
        for _ in 0..10_000 {
            let w = match rng.range(0, 9) {
                0 => 0,
                bytes => rng.range(0, usize::MAX) as u64 >> (64 - 8 * bytes),
            };
            fast = fnv1a_word(fast, w);
            reference = fnv1a(reference, &w.to_le_bytes());
            assert_eq!(fast, reference, "diverged at word {w:#x}");
        }
    }

    proptest! {
        #[test]
        fn word_fold_is_fnv1a(h in any::<u64>(), w in any::<u64>(), shift in 0u32..64) {
            // `w >> shift` spreads the cases over every count of high
            // zero bytes; a uniform `u64` almost never has one.
            for word in [w, w >> shift] {
                prop_assert_eq!(fnv1a_word(h, word), fnv1a(h, &word.to_le_bytes()));
            }
        }
    }

    #[test]
    fn keeps_only_last_capacity_records() {
        let mut t = Trace::new(3);
        for i in 0..5 {
            rec(&mut t, i, "a");
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_recorded(), 5);
        let texts: Vec<&str> = t.records().map(|r| r.text.as_str()).collect();
        assert_eq!(texts, ["r2", "r3", "r4"]);
    }

    #[test]
    fn zero_capacity_disables_retention_but_counts() {
        let mut t = Trace::new(0);
        rec(&mut t, 1, "a");
        assert!(t.is_empty());
        assert_eq!(t.total_recorded(), 1);
    }

    #[test]
    fn digest_tracks_stream_not_retention() {
        let mut full = Trace::new(100);
        let mut ring = Trace::new(2);
        let mut off = Trace::new(0);
        for i in 0..10 {
            rec(&mut full, i, "a");
            rec(&mut ring, i, "a");
            rec(&mut off, i, "a");
        }
        assert_eq!(full.digest(), ring.digest());
        assert_eq!(full.digest(), off.digest());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut ab = Trace::new(0);
        rec(&mut ab, 1, "a");
        rec(&mut ab, 2, "b");
        let mut ba = Trace::new(0);
        rec(&mut ba, 2, "b");
        rec(&mut ba, 1, "a");
        assert_ne!(ab.digest(), ba.digest());
    }

    #[test]
    fn digest_stable_across_capacity_overflow() {
        // Same stream into differently sized rings: eviction must never
        // touch the digest, even long after wraparound.
        let sizes = [1usize, 3, 7, 1000];
        let digests: Vec<u64> = sizes
            .iter()
            .map(|&cap| {
                let mut t = Trace::new(cap);
                for i in 0..50 {
                    rec(&mut t, i, if i % 2 == 0 { "even" } else { "odd" });
                }
                t.digest()
            })
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
        // And retention really did differ.
        let mut small = Trace::new(3);
        for i in 0..50 {
            rec(&mut small, i, "even");
        }
        assert_eq!(small.len(), 3);
        assert_eq!(small.total_recorded(), 50);
    }

    #[test]
    fn by_category_after_wraparound_sees_only_survivors() {
        let mut t = Trace::new(4);
        // 10 records alternating categories; only the last 4 (r6..r9)
        // survive: categories even, odd, even, odd.
        for i in 0..10 {
            rec(&mut t, i, if i % 2 == 0 { "even" } else { "odd" });
        }
        let even: Vec<&str> = t.by_category("even").map(|r| r.text.as_str()).collect();
        let odd: Vec<&str> = t.by_category("odd").map(|r| r.text.as_str()).collect();
        assert_eq!(even, ["r6", "r8"]);
        assert_eq!(odd, ["r7", "r9"]);
        // Evicted categories are gone entirely.
        assert!(t.records().all(|r| r.text != "r0"));
    }

    #[test]
    fn category_filter() {
        let mut t = Trace::new(10);
        rec(&mut t, 1, "join");
        rec(&mut t, 2, "crash");
        rec(&mut t, 3, "join");
        assert_eq!(t.by_category("join").count(), 2);
        assert_eq!(t.by_category("crash").count(), 1);
        assert_eq!(t.by_category("none").count(), 0);
    }
}
