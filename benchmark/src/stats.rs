//! Median and quartiles of a handful of samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the driver that
//! consumes `BENCHMARK.json` computes its spreads with.

/// Sample count, median and the two outer quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// The `i`-th of the three quartile cut points of sorted `data`.
fn quartile(data: &[f64], i: usize) -> f64 {
    let ld = data.len();
    if ld == 1 {
        return data[0];
    }
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
}

/// Summarise `values` (any order). Panics on an empty slice: every
/// metric the benchmark reports has at least one sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarise");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        median: quartile(&sorted, 2),
        q1: quartile(&sorted, 1),
        q3: quartile(&sorted, 3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9], n=4) == [2.5, 5.0, 7.5]
        let s = summarize(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (9, 2.5, 5.0, 7.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([10, 20, 30, 50], n=4) == [12.5, 25.0, 45.0]
        let s = summarize(&[10.0, 20.0, 30.0, 50.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 45.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = summarize(&[3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let s = summarize(&[7.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 7.0, 7.0, 7.0));
    }
}
