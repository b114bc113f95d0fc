//! Order statistics over a run's samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method, which extrapolates beyond the data for fewer than three
/// samples), so the spreads the benchmark reports match the ones a caller
/// computes from its output. A single sample is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        // Signed: for two samples the first quartile lies below the data.
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Expected values are what Python's `statistics.quantiles(xs, n=4)`
    // and `statistics.median(xs)` return for the same inputs.

    #[test]
    fn odd_count() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quartiles(&xs), [1.5, 3.0, 4.5]);
        assert_eq!(median(&xs), 3.0);
    }

    #[test]
    fn even_count() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quartiles(&xs), [1.25, 2.5, 3.75]);
        assert_eq!(median(&xs), 2.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn two_samples() {
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn single_sample() {
        assert_eq!(quartiles(&[0.25]), [0.25, 0.25, 0.25]);
        assert_eq!(median(&[0.25]), 0.25);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        median(&[]);
    }
}
