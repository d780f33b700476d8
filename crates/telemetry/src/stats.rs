//! Nearest-rank percentiles over raw [`Duration`] samples.
//!
//! No interpolation: a reported p99 is always a latency that actually
//! occurred, which is the honest choice for the small sample counts a
//! bench smoke run collects. The bench binaries and the repo benchmark
//! both call this function, so they agree on one definition.

use std::time::Duration;

/// Nearest-rank percentiles of `samples`.
///
/// Sorts `samples` in place (ascending) and returns one [`Duration`] per
/// entry of `percentiles`, where each entry is a percentile in `0.0..=100.0`
/// (out-of-range values are clamped). The nearest-rank definition is used:
/// the p-th percentile is the smallest sample such that at least `p%` of
/// the samples are `<=` it, so `p = 0` maps to the minimum and `p = 100`
/// to the maximum.
///
/// With no samples every requested percentile is [`Duration::ZERO`] — an
/// empty op class in a bench table reports zeros rather than panicking.
pub fn percentiles(samples: &mut [Duration], percentiles: &[f64]) -> Vec<Duration> {
    if samples.is_empty() {
        return vec![Duration::ZERO; percentiles.len()];
    }
    samples.sort_unstable();
    percentiles
        .iter()
        .map(|&p| {
            let p = p.clamp(0.0, 100.0);
            // nearest rank: ceil(p/100 * n), 1-based; p=0 still reads rank 1
            let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
            samples[rank.max(1) - 1]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn empty_samples_report_zero() {
        assert_eq!(
            percentiles(&mut [], &[0.0, 50.0, 99.0, 100.0]),
            vec![Duration::ZERO; 4]
        );
    }

    #[test]
    fn a_single_sample_is_every_percentile() {
        let mut s = [ms(7)];
        assert_eq!(
            percentiles(&mut s, &[0.0, 50.0, 99.0, 100.0]),
            vec![ms(7); 4]
        );
    }

    #[test]
    fn nearest_rank_over_a_known_distribution() {
        // classic nearest-rank worked example: p30 of 5 samples is rank
        // ceil(1.5) = 2, p40 is rank 2, p50 is rank ceil(2.5) = 3
        let mut s = [ms(15), ms(20), ms(35), ms(40), ms(50)];
        assert_eq!(
            percentiles(&mut s, &[30.0, 40.0, 50.0, 100.0]),
            vec![ms(20), ms(20), ms(35), ms(50)]
        );
    }

    #[test]
    fn sorts_unsorted_input_and_clamps_out_of_range() {
        let mut s = [ms(9), ms(1), ms(5)];
        assert_eq!(percentiles(&mut s, &[-10.0, 200.0]), vec![ms(1), ms(9)]);
        // the slice itself comes back sorted
        assert_eq!(s, [ms(1), ms(5), ms(9)]);
    }

    #[test]
    fn p99_picks_the_tail_sample_once_the_count_justifies_it() {
        // 100 samples 1..=100ms: p99 = rank 99, p50 = rank 50
        let mut s: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentiles(&mut s, &[50.0, 99.0]), vec![ms(50), ms(99)]);
    }
}
