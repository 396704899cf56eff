//! d-dimensional resource vectors.
//!
//! Snooze schedules over CPU, memory and network utilization (paper §II-A:
//! "Resource (i.e. CPU, memory and network utilization) demand
//! estimation"), and the ACO companion paper treats placement as
//! d-dimensional vector bin packing with CPU, memory and network RX/TX.
//! [`ResourceVector`] is the common currency: four non-negative `f64`
//! components, with the comparison and normalization operators both the
//! hierarchy and the consolidation algorithms need.
//!
//! Values are in *absolute* units (cores, MB, Mbit/s); normalization
//! against a capacity vector produces dimensionless utilizations.

use std::fmt;
use std::ops::{Add, AddAssign, Index, Mul, Sub, SubAssign};

use snooze_simcore::mc::{McHasher, McState};

/// Number of resource dimensions.
pub const DIMS: usize = 4;

/// A non-negative quantity of each managed resource.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct ResourceVector {
    /// CPU capacity/demand, in cores (or core-equivalents of utilization).
    pub cpu: f64,
    /// Memory, in MB.
    pub memory: f64,
    /// Network receive bandwidth, in Mbit/s.
    pub net_rx: f64,
    /// Network transmit bandwidth, in Mbit/s.
    pub net_tx: f64,
}

impl ResourceVector {
    /// The zero vector.
    pub const ZERO: ResourceVector = ResourceVector {
        cpu: 0.0,
        memory: 0.0,
        net_rx: 0.0,
        net_tx: 0.0,
    };

    /// Construct from explicit components.
    pub fn new(cpu: f64, memory: f64, net_rx: f64, net_tx: f64) -> Self {
        let v = ResourceVector {
            cpu,
            memory,
            net_rx,
            net_tx,
        };
        debug_assert!(
            v.is_valid(),
            "resource components must be finite and >= 0: {v:?}"
        );
        v
    }

    /// A vector with every component set to `x`.
    pub fn splat(x: f64) -> Self {
        Self::new(x, x, x, x)
    }

    /// Component by dimension index (0=cpu, 1=memory, 2=net_rx, 3=net_tx).
    #[inline]
    pub fn get(&self, dim: usize) -> f64 {
        match dim {
            0 => self.cpu,
            1 => self.memory,
            2 => self.net_rx,
            3 => self.net_tx,
            _ => panic!("dimension {dim} out of range (0..{DIMS})"),
        }
    }

    /// Set component by dimension index.
    pub fn set(&mut self, dim: usize, value: f64) {
        match dim {
            0 => self.cpu = value,
            1 => self.memory = value,
            2 => self.net_rx = value,
            3 => self.net_tx = value,
            _ => panic!("dimension {dim} out of range (0..{DIMS})"),
        }
    }

    /// All components as an array.
    pub fn to_array(&self) -> [f64; DIMS] {
        [self.cpu, self.memory, self.net_rx, self.net_tx]
    }

    /// True if every component is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        self.to_array().iter().all(|x| x.is_finite() && *x >= 0.0)
    }

    /// True if every component of `self` fits within `capacity`
    /// (component-wise `<=`, with a tiny epsilon for float accumulation).
    ///
    /// The four comparisons are joined by the non-short-circuit `&`: every
    /// packer's hot loop calls this, mostly on a bin the item does not fit,
    /// and an early exit there is a mispredicted branch per call. The
    /// result equals the short-circuit `.all()` form for every input, NaN
    /// included (`tests/fits_within.rs` holds that form as the reference).
    #[inline]
    pub fn fits_within(&self, capacity: &ResourceVector) -> bool {
        const EPS: f64 = 1e-9;
        (self.cpu <= capacity.cpu + EPS)
            & (self.memory <= capacity.memory + EPS)
            & (self.net_rx <= capacity.net_rx + EPS)
            & (self.net_tx <= capacity.net_tx + EPS)
    }

    /// Component-wise subtraction clamped at zero.
    pub fn saturating_sub(&self, rhs: &ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu: (self.cpu - rhs.cpu).max(0.0),
            memory: (self.memory - rhs.memory).max(0.0),
            net_rx: (self.net_rx - rhs.net_rx).max(0.0),
            net_tx: (self.net_tx - rhs.net_tx).max(0.0),
        }
    }

    /// Component-wise maximum.
    pub fn max(&self, rhs: &ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu: self.cpu.max(rhs.cpu),
            memory: self.memory.max(rhs.memory),
            net_rx: self.net_rx.max(rhs.net_rx),
            net_tx: self.net_tx.max(rhs.net_tx),
        }
    }

    /// Component-wise minimum.
    pub fn min(&self, rhs: &ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu: self.cpu.min(rhs.cpu),
            memory: self.memory.min(rhs.memory),
            net_rx: self.net_rx.min(rhs.net_rx),
            net_tx: self.net_tx.min(rhs.net_tx),
        }
    }

    /// Component-wise division by `capacity`, producing utilizations.
    /// Dimensions with zero capacity map to 0 (an absent resource cannot
    /// be utilized).
    pub fn normalize_by(&self, capacity: &ResourceVector) -> ResourceVector {
        let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        ResourceVector {
            cpu: div(self.cpu, capacity.cpu),
            memory: div(self.memory, capacity.memory),
            net_rx: div(self.net_rx, capacity.net_rx),
            net_tx: div(self.net_tx, capacity.net_tx),
        }
    }

    /// Sum of components (L1 norm — all components are non-negative).
    pub fn l1(&self) -> f64 {
        self.cpu + self.memory + self.net_rx + self.net_tx
    }

    /// Euclidean norm.
    pub fn l2(&self) -> f64 {
        self.to_array().iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest component (L∞ norm).
    pub fn linf(&self) -> f64 {
        self.to_array().into_iter().fold(0.0, f64::max)
    }

    /// Mean of the components — used as a scalar "size" for presorting
    /// heuristics and utilization summaries.
    pub fn mean(&self) -> f64 {
        self.l1() / DIMS as f64
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu: self.cpu + rhs.cpu,
            memory: self.memory + rhs.memory,
            net_rx: self.net_rx + rhs.net_rx,
            net_tx: self.net_tx + rhs.net_tx,
        }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;
    /// Exact subtraction; may produce negative components. Use
    /// [`ResourceVector::saturating_sub`] when modelling releases.
    fn sub(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            cpu: self.cpu - rhs.cpu,
            memory: self.memory - rhs.memory,
            net_rx: self.net_rx - rhs.net_rx,
            net_tx: self.net_tx - rhs.net_tx,
        }
    }
}

impl SubAssign for ResourceVector {
    fn sub_assign(&mut self, rhs: ResourceVector) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for ResourceVector {
    type Output = ResourceVector;
    fn mul(self, k: f64) -> ResourceVector {
        ResourceVector {
            cpu: self.cpu * k,
            memory: self.memory * k,
            net_rx: self.net_rx * k,
            net_tx: self.net_tx * k,
        }
    }
}

impl Index<usize> for ResourceVector {
    type Output = f64;
    fn index(&self, dim: usize) -> &f64 {
        match dim {
            0 => &self.cpu,
            1 => &self.memory,
            2 => &self.net_rx,
            3 => &self.net_tx,
            _ => panic!("dimension {dim} out of range (0..{DIMS})"),
        }
    }
}

impl fmt::Debug for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cpu={:.3} mem={:.1} rx={:.1} tx={:.1}]",
            self.cpu, self.memory, self.net_rx, self.net_tx
        )
    }
}

impl std::iter::Sum for ResourceVector {
    fn sum<I: Iterator<Item = ResourceVector>>(iter: I) -> ResourceVector {
        iter.fold(ResourceVector::ZERO, |acc, v| acc + v)
    }
}

impl McState for ResourceVector {
    fn mc_fold(&self, h: &mut McHasher) {
        h.float(self.cpu);
        h.float(self.memory);
        h.float(self.net_rx);
        h.float(self.net_tx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rv(cpu: f64, mem: f64) -> ResourceVector {
        ResourceVector::new(cpu, mem, 0.0, 0.0)
    }

    #[test]
    fn arithmetic_basics() {
        let a = ResourceVector::new(1.0, 2.0, 3.0, 4.0);
        let b = ResourceVector::new(0.5, 1.0, 1.5, 2.0);
        assert_eq!(a + b, ResourceVector::new(1.5, 3.0, 4.5, 6.0));
        assert_eq!(a - b, b);
        assert_eq!(a * 2.0, ResourceVector::new(2.0, 4.0, 6.0, 8.0));
        assert_eq!([a, b].into_iter().sum::<ResourceVector>(), a + b);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut v = ResourceVector::ZERO;
        for d in 0..DIMS {
            v.set(d, d as f64 + 1.0);
        }
        for d in 0..DIMS {
            assert_eq!(v.get(d), d as f64 + 1.0);
            assert_eq!(v[d], d as f64 + 1.0);
        }
        assert_eq!(v.to_array(), [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn get_out_of_range_panics() {
        let _ = ResourceVector::ZERO.get(DIMS);
    }

    #[test]
    fn fits_within_is_componentwise() {
        let cap = ResourceVector::new(4.0, 8192.0, 1000.0, 1000.0);
        assert!(rv(4.0, 8192.0).fits_within(&cap));
        assert!(!rv(4.1, 100.0).fits_within(&cap));
        assert!(!rv(1.0, 9000.0).fits_within(&cap));
        assert!(ResourceVector::ZERO.fits_within(&cap));
    }

    #[test]
    fn fits_within_tolerates_float_accumulation() {
        let cap = ResourceVector::splat(1.0);
        let mut acc = ResourceVector::ZERO;
        for _ in 0..10 {
            acc += ResourceVector::splat(0.1);
        }
        // 10 × 0.1 > 1.0 in floats; epsilon must absorb it.
        assert!(acc.fits_within(&cap));
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = rv(1.0, 5.0);
        let b = rv(2.0, 3.0);
        assert_eq!(a.saturating_sub(&b), rv(0.0, 2.0));
    }

    #[test]
    fn normalize_by_capacity() {
        let cap = ResourceVector::new(4.0, 8000.0, 0.0, 100.0);
        let used = ResourceVector::new(2.0, 2000.0, 50.0, 50.0);
        let u = used.normalize_by(&cap);
        assert_eq!(u.cpu, 0.5);
        assert_eq!(u.memory, 0.25);
        assert_eq!(u.net_rx, 0.0, "zero-capacity dimension normalizes to 0");
        assert_eq!(u.net_tx, 0.5);
    }

    #[test]
    fn norms() {
        let v = ResourceVector::new(3.0, 4.0, 0.0, 0.0);
        assert_eq!(v.l1(), 7.0);
        assert_eq!(v.l2(), 5.0);
        assert_eq!(v.linf(), 4.0);
        assert_eq!(v.mean(), 1.75);
    }

    #[test]
    fn max_min_componentwise() {
        let a = ResourceVector::new(1.0, 5.0, 2.0, 0.0);
        let b = ResourceVector::new(2.0, 3.0, 2.0, 1.0);
        assert_eq!(a.max(&b), ResourceVector::new(2.0, 5.0, 2.0, 1.0));
        assert_eq!(a.min(&b), ResourceVector::new(1.0, 3.0, 2.0, 0.0));
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(
            a in 0.0..100.0f64, b in 0.0..100.0f64,
            c in 0.0..100.0f64, d in 0.0..100.0f64,
        ) {
            let v = ResourceVector::new(a, b, c, d);
            let w = ResourceVector::new(d, c, b, a);
            let back = (v + w) - w;
            for dim in 0..DIMS {
                prop_assert!((back.get(dim) - v.get(dim)).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_saturating_sub_never_negative(
            a in 0.0..100.0f64, b in 0.0..100.0f64,
            c in 0.0..100.0f64, d in 0.0..100.0f64,
        ) {
            let v = ResourceVector::new(a, b, c, d);
            let w = ResourceVector::new(d, c, b, a);
            let r = v.saturating_sub(&w);
            prop_assert!(r.is_valid());
        }

        #[test]
        fn prop_fits_within_reflexive(
            a in 0.0..100.0f64, b in 0.0..100.0f64,
        ) {
            let v = ResourceVector::new(a, b, a, b);
            prop_assert!(v.fits_within(&v));
        }

        #[test]
        fn prop_norm_inequalities(
            a in 0.0..100.0f64, b in 0.0..100.0f64,
            c in 0.0..100.0f64, d in 0.0..100.0f64,
        ) {
            let v = ResourceVector::new(a, b, c, d);
            prop_assert!(v.linf() <= v.l2() + 1e-9);
            prop_assert!(v.l2() <= v.l1() + 1e-9);
        }
    }
}
