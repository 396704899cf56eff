//! `ResourceVector::fits_within` against the short-circuit form it
//! replaced, kept here as the reference: the same verdict for every pair
//! of vectors, on the components where a float comparison can go wrong —
//! NaN, ±∞, ±0, subnormals, and demands exactly at the `b + 1e-9`
//! tolerance or one ULP either side of it.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use snooze_cluster::resources::{ResourceVector, DIMS};

/// The tolerance `fits_within` documents.
const EPS: f64 = 1e-9;

/// The former implementation, verbatim.
fn reference(demand: &ResourceVector, capacity: &ResourceVector) -> bool {
    demand
        .to_array()
        .iter()
        .zip(capacity.to_array())
        .all(|(a, b)| *a <= b + EPS)
}

/// Components a comparison can trip on.
const SPECIAL: [f64; 16] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE / 2.0,
    f64::MIN_POSITIVE,
    EPS,
    -EPS,
    1.0,
    -1.0,
    8192.0,
    f64::MAX,
    f64::MIN,
];

fn component(rng: &mut TestRng) -> f64 {
    match rng.below(3) {
        0 => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
        1 => f64::from_bits(rng.next_u64()),
        _ => rng.unit_f64() * 16.0 - 8.0,
    }
}

/// A demand component for capacity `b`: at the tolerance, a ULP either
/// side of it, or unrelated to `b`.
fn demand_for(b: f64, rng: &mut TestRng) -> f64 {
    let edge = b + EPS;
    match rng.below(4) {
        0 => edge,
        1 => edge.next_up(),
        2 => edge.next_down(),
        _ => component(rng),
    }
}

/// `(demand, capacity)` with each dimension drawn independently.
struct Pair;

impl Strategy for Pair {
    type Value = (ResourceVector, ResourceVector);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let (mut demand, mut capacity) = (ResourceVector::ZERO, ResourceVector::ZERO);
        for d in 0..DIMS {
            let b = component(rng);
            capacity.set(d, b);
            demand.set(d, demand_for(b, rng));
        }
        (demand, capacity)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn fits_within_matches_the_short_circuit_form(pair in Pair) {
        let (demand, capacity) = pair;
        prop_assert_eq!(
            demand.fits_within(&capacity),
            reference(&demand, &capacity),
            "{:?} within {:?}",
            demand.to_array(),
            capacity.to_array()
        );
    }
}

/// Every special pair in every dimension, the other three dimensions
/// fitting: each comparison decides alone.
#[test]
fn each_dimension_decides_on_every_special_pair() {
    let mut seen = [0usize; 2];
    for d in 0..DIMS {
        for &b in &SPECIAL {
            let edge = b + EPS;
            for a in SPECIAL
                .into_iter()
                .chain([edge, edge.next_up(), edge.next_down()])
            {
                let (mut demand, mut capacity) = (ResourceVector::ZERO, ResourceVector::splat(1.0));
                demand.set(d, a);
                capacity.set(d, b);
                let fits = demand.fits_within(&capacity);
                assert_eq!(
                    fits,
                    reference(&demand, &capacity),
                    "dim {d}: {a:e} vs {b:e}"
                );
                seen[fits as usize] += 1;
            }
        }
    }
    // Both verdicts occur in every dimension's sweep.
    assert!(seen[0] >= DIMS * 16 && seen[1] >= DIMS * 16, "{seen:?}");
}
