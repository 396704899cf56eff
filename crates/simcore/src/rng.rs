//! Deterministic, stream-splittable randomness.
//!
//! Every source of randomness in a simulation must flow from a single master
//! seed, otherwise runs are not replayable and experiments are not
//! comparable. [`SimRng`] wraps a ChaCha8 generator (fast, high-quality,
//! portable across platforms — unlike `SmallRng` whose algorithm may change
//! between `rand` releases) and adds the distribution helpers the cluster
//! and workload models need.
//!
//! Streams are split with [`SimRng::fork`], which derives a child generator
//! keyed by a label so that, e.g., adding one more VM's workload generator
//! does not perturb the arrival process of every other VM.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::time::SimSpan;

/// Seedable deterministic RNG with simulation-oriented helpers.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Create a generator from a master seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream keyed by `label`.
    ///
    /// Forking is stable: the same parent seed and label always produce the
    /// same child stream, and consuming values from one child does not
    /// affect siblings.
    pub fn fork(&self, label: u64) -> SimRng {
        // Mix the parent's word stream position-independently: hash the
        // parent seed material with the label via splitmix64 finalization.
        let mut seed = self.inner.get_seed();
        let mut x = label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for chunk in seed.chunks_mut(8) {
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            for (b, s) in x.to_le_bytes().iter().zip(chunk.iter_mut()) {
                *s ^= *b;
            }
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        SimRng {
            inner: ChaCha8Rng::from_seed(seed),
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform `f64` in `[lo, hi)`. Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform range inverted: [{lo}, {hi})");
        if lo == hi {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "integer range empty: [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponentially distributed value with the given mean (`mean > 0`).
    ///
    /// Used for inter-arrival times of VM submissions and failure events.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be > 0");
        let u = 1.0 - self.f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Normally distributed value (Box–Muller transform).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "std_dev must be >= 0");
        let u1 = 1.0 - self.f64(); // avoid ln(0)
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Pareto-distributed value with scale `x_m > 0` and shape `alpha > 0`.
    ///
    /// Heavy-tailed VM lifetimes and burst sizes follow this in the
    /// workload generators.
    pub fn pareto(&mut self, x_m: f64, alpha: f64) -> f64 {
        assert!(x_m > 0.0 && alpha > 0.0, "pareto parameters must be > 0");
        let u = 1.0 - self.f64(); // in (0, 1]
        x_m / u.powf(1.0 / alpha)
    }

    /// Uniform virtual-time span in `[lo, hi)`.
    pub fn span_between(&mut self, lo: SimSpan, hi: SimSpan) -> SimSpan {
        if lo >= hi {
            return lo;
        }
        SimSpan(self.inner.gen_range(lo.0..hi.0))
    }

    /// Pick a uniformly random element of a slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.range(0, items.len())])
        }
    }

    /// Sample an index from non-negative weights proportionally.
    ///
    /// Returns `None` if the weights are empty or sum to zero. This is the
    /// primitive the ACO consolidation algorithm's probabilistic decision
    /// rule is built on.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total = weights.iter().copied().filter(|w| *w > 0.0).sum();
        self.weighted_index_with_total(weights, total)
    }

    /// [`SimRng::weighted_index`] for a caller that summed the weights as
    /// it built them: `total` must be the positive weights added left to
    /// right, the fold `weighted_index` makes, for the draw to be the same.
    /// Returns `None` without drawing unless `total` is positive and finite.
    pub fn weighted_index_with_total(&mut self, weights: &[f64], total: f64) -> Option<usize> {
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        let mut target = self.f64() * total;
        let mut last_positive = None;
        for (i, &w) in weights.iter().enumerate() {
            if w > 0.0 {
                last_positive = Some(i);
                target -= w;
                if target <= 0.0 {
                    return Some(i);
                }
            }
        }
        last_positive // floating-point slack: fall back to the last candidate
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should diverge");
    }

    #[test]
    fn fork_is_stable_and_independent() {
        let parent = SimRng::new(99);
        let mut c1 = parent.fork(5);
        let mut c2 = parent.fork(5);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut c3 = parent.fork(6);
        assert_ne!(parent.fork(5).next_u64(), c3.next_u64());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let v = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
        }
        assert_eq!(r.uniform(4.0, 4.0), 4.0);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!(
            (mean - 4.0).abs() < 0.15,
            "sample mean {mean} too far from 4.0"
        );
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = SimRng::new(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1);
        assert!((var - 4.0).abs() < 0.3);
    }

    #[test]
    fn pareto_lower_bound_holds() {
        let mut r = SimRng::new(17);
        for _ in 0..1000 {
            assert!(r.pareto(3.0, 1.5) >= 3.0);
        }
    }

    #[test]
    fn weighted_index_follows_weights() {
        let mut r = SimRng::new(29);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..8_000 {
            counts[r.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.5..3.6).contains(&ratio), "ratio {ratio} not ~3");
    }

    #[test]
    fn weighted_index_degenerate_cases() {
        let mut r = SimRng::new(31);
        assert_eq!(r.weighted_index(&[]), None);
        assert_eq!(r.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(r.weighted_index(&[0.0, 2.0]), Some(1));
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(41);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn span_between_handles_degenerate_range() {
        let mut r = SimRng::new(43);
        let lo = SimSpan::from_millis(5);
        assert_eq!(r.span_between(lo, lo), lo);
        for _ in 0..100 {
            let s = r.span_between(SimSpan::from_millis(1), SimSpan::from_millis(2));
            assert!(s >= SimSpan::from_millis(1) && s < SimSpan::from_millis(2));
        }
    }
}
