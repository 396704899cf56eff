// Fixture: the same defaulted comparison in a `min_by` only picks an
// element, so `partial-cmp-unwrap` stays silent.
fn lightest(scores: &[(usize, f64)]) -> Option<&(usize, f64)> {
    scores.iter().min_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    })
}
