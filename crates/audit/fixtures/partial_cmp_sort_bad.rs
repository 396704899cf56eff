// Fixture: a defaulted `.partial_cmp(..)` in a sort comparator must fire
// `partial-cmp-unwrap`: it is no total order once a NaN is present.
fn rank(scores: &mut [(usize, f64)]) {
    scores.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
}
