//! Order statistics: medians, tail percentiles and quartiles.

/// The `q`-th percentile (0..=100) of `samples`, by nearest rank on the
/// sorted values.  `None` when there are no samples.
pub fn percentile(samples: &mut [u32], q: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    // Nearest rank: the smallest value with at least q% of samples at or
    // below it.
    let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
    let (_, v, _) = samples.select_nth_unstable(rank.min(n) - 1);
    Some(*v)
}

/// The highest of the usual tail percentiles (p99.99, p99.9, p99, p90,
/// p50) that still has at least `beyond` samples above its rank, so a
/// tail figure is never read off a handful of points.
pub fn highest_supported_percentile(n: usize, beyond: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        // The tolerance absorbs binary rounding of the percentages.
        .find(|q| (n as f64) * (100.0 - q) / 100.0 >= beyond as f64 - 1e-6)
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The share of windows a run's figures drop from each end before
/// averaging the rest.
pub const TRIM: f64 = 0.2;

/// The mean of `values` after dropping the lowest and the highest
/// `trim` share of them (rounded down).
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim) as usize;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The three cut points dividing `values` into quarters, computed exactly
/// as Python's `statistics.quantiles(values, n=4)` (its default
/// "exclusive" method) does.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1i64..4) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (data[j as usize - 1] * (4.0 - delta) + data[j as usize] * delta) / 4.0;
    }
    Some(out)
}

/// Latency percentiles of one window of requests, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// The median.
    pub p50: f64,
    /// The 99th percentile.
    pub p99: f64,
    /// The highest percentile with at least ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    /// Summarize nanosecond samples (reordering them).
    pub fn of(ns: &mut [u32]) -> Latency {
        let n = ns.len();
        let mut us = |q: f64| percentile(ns, q).unwrap_or(0) as f64 / 1000.0;
        let (p50, p99) = (us(50.0), us(99.0));
        let tail = highest_supported_percentile(n, 10).map(|q| (q, us(q)));
        Latency { p50, p99, tail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p99_by_nearest_rank() {
        let mut v: Vec<u32> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), Some(500));
        assert_eq!(percentile(&mut v, 99.0), Some(990));
        assert_eq!(percentile(&mut v, 100.0), Some(1000));
        assert_eq!(percentile(&mut [7], 99.0), Some(7));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(100_000, 10), Some(99.99));
        assert_eq!(highest_supported_percentile(99_999, 10), Some(99.9));
        assert_eq!(highest_supported_percentile(10_000, 10), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000, 10), Some(99.0));
        assert_eq!(highest_supported_percentile(999, 10), Some(90.0));
        assert_eq!(highest_supported_percentile(19, 10), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_a_share_from_each_end() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(trimmed_mean(&v, 0.1), 5.5);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0, 1000.0, -1000.0], 0.2), 2.0);
        assert_eq!(trimmed_mean(&[4.0, 1.0, 1.0], 0.1), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
