//! The benchmark's percentile rule and the spread measure `selfcheck` uses.
//!
//! Percentiles are nearest-rank, through the repository's own
//! `telemetry::stats::percentiles`, so a reported value is always a latency
//! that occurred. A percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it; the sample count is printed with
//! every percentile.

use ibbe_sgx::telemetry::stats::percentiles;
use std::time::Duration;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `pct`-th percentile of `samples` (seconds), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it. The median is always
/// reported when there is at least one sample.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    if pct > 50.0 && beyond(samples.len(), pct) < MIN_BEYOND {
        return None;
    }
    let mut durations: Vec<Duration> = samples
        .iter()
        .map(|&s| Duration::from_secs_f64(s))
        .collect();
    Some(percentiles(&mut durations, &[pct])[0].as_secs_f64())
}

/// Samples strictly above the nearest-rank position of `pct` among `n`
/// (the rank formula is the one `telemetry::stats::percentiles` uses).
fn beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), needing at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_a_sample_that_occurred() {
        let samples: Vec<f64> = (1..=200).map(|i| i as f64 * 1e-3).collect();
        assert_eq!(percentile(&samples, 50.0), Some(0.100));
        assert_eq!(percentile(&samples, 95.0), Some(0.190));
    }

    #[test]
    fn a_tail_with_fewer_than_ten_samples_beyond_it_is_refused() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!(percentile(&samples, 90.0).is_some(), "10 beyond");
        assert!(percentile(&samples, 95.0).is_none(), "5 beyond");
        assert!(percentile(&samples, 50.0).is_some());
        assert!(percentile(&[], 50.0).is_none());
        // the median of a handful of samples is still reported
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
